"""Core model family: x_{n+1} = x_n * e^{r - x_{n-1}} + h_n.

Defines the parameter container, the exponential density, and the scalar and
planar stepping maps that every other module consumes.  The stocking schedule
h_n is periodic; constant stocking is simply the period-1 case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence


class PlanarPoint(NamedTuple):
    """A state (x_n, x_{n-1}) of the vectorized system."""

    x: float
    y: float


class QuadPoint(NamedTuple):
    """A point of the 4-dimensional embedding space."""

    x: float
    y: float
    u: float
    v: float


def _minimal_period(seq: tuple[float, ...]) -> int:
    n = len(seq)
    for d in range(1, n + 1):
        if n % d == 0 and all(seq[i] == seq[i % d] for i in range(n)):
            return d
    return n


@dataclass(frozen=True)
class ModelParams:
    """Growth rate and stocking schedule.

    The schedule is normalized to its minimal period at construction, so a
    sequence like (2.0, 2.0) collapses to (2.0,) with p = 1.  All entries must
    be non-negative; r must be positive.
    """

    r: float
    stocking: tuple[float, ...]
    p: int = field(init=False)

    def __post_init__(self) -> None:
        r = float(self.r)
        if not math.isfinite(r) or r <= 0.0:
            raise ValueError(f"growth rate must be positive and finite, got {self.r!r}")
        if isinstance(self.stocking, (int, float)):
            seq: tuple[float, ...] = (float(self.stocking),)
        else:
            seq = tuple(float(h) for h in self.stocking)
        if not seq:
            raise ValueError("stocking schedule must not be empty")
        for h in seq:
            if not math.isfinite(h) or h < 0.0:
                raise ValueError(f"stocking entries must be non-negative and finite, got {h!r}")
        p = _minimal_period(seq)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "stocking", seq[:p])
        object.__setattr__(self, "p", p)

    @classmethod
    def constant(cls, r: float, h: float) -> "ModelParams":
        return cls(r=r, stocking=(h,))

    @classmethod
    def two_periodic(cls, r: float, h0: float, h1: float) -> "ModelParams":
        return cls(r=r, stocking=(h0, h1))

    def h(self, n: int) -> float:
        """Stocking applied at step index n."""
        return self.stocking[n % self.p]

    @property
    def h_const(self) -> float:
        """The single stocking value; only meaningful for p = 1."""
        if self.p != 1:
            raise ValueError("h_const is only defined for constant stocking (p = 1)")
        return self.stocking[0]


def density_f(t: float, r: float) -> float:
    """Per-capita density e^{r - t}; strictly decreasing in t with f(r) = 1.

    Raises OverflowError when r - t exceeds the double-precision exponent
    range (very negative t).
    """
    return math.exp(r - t)


def step(x: float, y: float, params: ModelParams, n: int = 0) -> float:
    """One scalar step x_{n+1} = x * f(y) + h_n, with (x, y) = (x_n, x_{n-1})."""
    if not (math.isfinite(x) and math.isfinite(y)) or x < 0.0 or y < 0.0:
        raise ValueError(f"states must be non-negative and finite, got ({x!r}, {y!r})")
    return x * density_f(y, params.r) + params.h(n)


def vector_step(point: Sequence[float], params: ModelParams, n: int = 0) -> PlanarPoint:
    """One planar step T_n(x, y) = (F_n(x, y), x)."""
    x, y = point
    return PlanarPoint(step(x, y, params, n), x)


PlanarMap = Callable[[float, float], float]


@dataclass(frozen=True, slots=True)
class RickerMap:
    """The planar map F(x, y) = x e^{r - y} + h.

    dF/dx = e^{r-y} > 0 and, for x >= 0, dF/dy = -x e^{r-y} <= 0, so the
    embeddings built from such maps preserve the southeast order on the
    quadrant by construction (see `embedding.corner_iterate`).
    """

    r: float
    h: float

    def __call__(self, x: float, y: float) -> float:
        return x * math.exp(self.r - y) + self.h


def planar_maps(params: ModelParams) -> list[RickerMap]:
    """The family F_j(x, y) = x f(y) + h_j for j = 0..p-1."""
    return [RickerMap(params.r, hj) for hj in params.stocking]
