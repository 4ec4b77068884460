"""Monotone 4D embedding machinery for planar maps F(x, y) increasing in x and
decreasing in y.

The planar system T(x, y) = (F(x, y), x) is lifted to the 4D map

    G(x, y, u, v) = (F(x, y), u, F(u, v), x),

which is monotone with respect to the southeast order.  On the plane,
(x1, y1) <= (x2, y2) southeast iff x1 <= x2 and y1 >= y2.  On quadruples the
order is the southeast pattern applied to the two planar halves: the first
half increases in the planar order while the second half decreases,

    (x1, y1, u1, v1) <= (x2, y2, u2, v2)  iff  x1 <= x2, y1 >= y2,
                                               u1 >= u2, v1 <= v2.

Under that convention a box [a, b]^2 corresponds to the order interval between
the corner quadruples (a, b, b, a) and (b, a, a, b), and iterating G from the
corners yields monotone orbits that enclose every orbit started inside the
box.  Corner limits are fixed points of G and bound the attractor.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import (
    MaxIterExceeded,
    NonMonotoneDetected,
    NotAFixedPoint,
    PreconditionViolated,
    WitnessConstructionFailed,
)
from .model import ModelParams, PlanarMap, QuadPoint, RickerMap

QuadMap = Callable[[Sequence[float]], QuadPoint]


def se_leq(p: Sequence[float], q: Sequence[float]) -> bool:
    """Southeast comparison for planar points and quadruples.

    Length 2: p <= q iff p.x <= q.x and p.y >= q.y.
    Length 4: the order on pairs-of-planar-points described in the module
    docstring (second planar half reversed); this is the order the embedded
    map preserves.
    """
    if len(p) == 2:
        return p[0] <= q[0] and p[1] >= q[1]
    if len(p) == 4:
        return p[0] <= q[0] and p[1] >= q[1] and p[2] >= q[2] and p[3] <= q[3]
    raise ValueError(f"se_leq expects points of length 2 or 4, got {len(p)}")


@dataclass(frozen=True)
class BoxRegion:
    """Planar box [a, b]^2 described by its diagonal values a <= b."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)) or self.a > self.b:
            raise ValueError(f"box requires finite a <= b, got ({self.a!r}, {self.b!r})")

    def contains(self, point: Sequence[float]) -> bool:
        return all(self.a <= c <= self.b for c in point)


def _order_proven(F: PlanarMap) -> bool:
    """Whether F is a RickerMap whose embedding is southeast-monotone on the
    quadrant by the embedding lemma: F rises in x and, for x >= 0, falls in
    y, and F >= h >= 0 keeps every image inside the quadrant."""
    return isinstance(F, RickerMap) and math.isfinite(F.r) and F.h >= 0.0


def build_embedding(F: PlanarMap) -> QuadMap:
    """Lift a planar map to the 4D embedded map G(x,y,u,v) = (F(x,y), u, F(u,v), x).

    A G built from a `model.RickerMap` is marked as proven monotone, which
    lets `corner_iterate` skip sampling it.
    """

    def G(q: Sequence[float]) -> QuadPoint:
        x, y, u, v = q
        return QuadPoint(F(x, y), u, F(u, v), x)

    G._proven_monotone = _order_proven(F)
    return G


def build_folded_embedding(f0: PlanarMap, f1: PlanarMap) -> QuadMap:
    """The folded embedded map G1 o G0 of the 2-periodic pair (f0, f1),
    marked as proven monotone when both maps are."""
    g0 = build_embedding(f0)
    g1 = build_embedding(f1)

    def G(q: Sequence[float]) -> QuadPoint:
        return g1(g0(q))

    G._proven_monotone = g0._proven_monotone and g1._proven_monotone
    return G


def box_compatible(G: QuadMap, box: BoxRegion) -> bool:
    """Whether (a, b) <= (F(a, b), F(b, a)) southeast, read off one G evaluation.

    This is the condition that makes both corner orbits monotone from the
    first step.
    """
    img = G((box.a, box.b, box.b, box.a))
    return box.a <= img[0] and img[2] <= box.b


def _compatibility_curves(t: float, r: float, h0: float, h1: float) -> tuple[float, float]:
    """c1(t) = h0 / (1 - e^{r-t}) and c2(t) = (h0 e^{r-t} + h1) / (1 - e^{2(r-t)}): the b whose
    one-step image b e^{r-t} + h0, and two-step image (b e^{r-t} + h0) e^{r-t} + h1, is b.
    The denominators come from expm1, which keeps their digits as t nears r."""
    return h0 / -math.expm1(r - t), (h0 * math.exp(r - t) + h1) / -math.expm1(2.0 * (r - t))


def compatible_box(params: ModelParams, lo: float, hi: float) -> BoxRegion | None:
    """The witness box [a, b]^2 of one stocking period (h0, h1), or (h,) read
    as h0 = h1 = h, holding the target [lo, hi]:

        a = r + (min(h, lo) - r) / 2,    b = 2 max(c1(a), c2(a), hi)

    from `_compatibility_curves` (one map uses c1 = g1 alone).  Each
    embedded map of the period, in turn, moves the lower corner
    (a, b, b, a) strictly up in the southeast order:
    - a < min(h) lifts both corner images above a: F_j(x, y) > h_j > a.
    - With f = e^{r-a} < 1, b > c1(a) is b f + h0 < b and b > c2(a) is
      (b f + h0) f + h1 < b: the one-step and two-step images stay below b.
    - The factor 2 keeps that margin above rounding.  With the float f at
      1 - k u, u = 2^-53, h0 <= b (k + 1/2) u / 2, so b f + h0, b f rounded,
      lies (k - 5/2) b u / 2 below b, and the two-step image lies about
      (k - 1/2) b u below b after three roundings of at most b u each.  Both
      clear the last rounding, at most b u, once k >= 5.
    The walk checks this in floats with strict inequalities.  None means
    min(h, lo) = r to float resolution: a is not strictly between r and
    min(h, lo), or the walk fails with k <= 4; with k >= 5 a failed walk
    raises WitnessConstructionFailed.  A b past the float range is cut to
    the largest float, and the walk decides.
    """
    r, h = params.r, params.stocking
    floor = min(*h, lo)
    a = r + 0.5 * (floor - r)
    if not r < a < floor:
        return None
    b = min(2.0 * max(*_compatibility_curves(a, r, h[0], h[-1])[:len(h)], hi), sys.float_info.max)
    ok = hi < b
    x, y, u, v = a, b, b, a
    for hj in h:
        # the embedded map of F_j(x, y) = x e^{r-y} + h_j, in the float
        # arithmetic of `model.RickerMap`
        x, y, u, v = x * math.exp(r - y) + hj, u, u * math.exp(r - v) + hj, x
        ok = ok and x > a and u < b
    if ok:
        return BoxRegion(a, b)
    if math.exp(r - a) >= 1.0 - 4 * 2.0**-53:
        return None
    raise WitnessConstructionFailed(f"box ({a}, {b}) failed its strict check for r={r}, h={h}")


def sample_monotone(G: QuadMap, box: BoxRegion, samples: int, seed: int = 0) -> None:
    """Check G on randomly drawn ordered quadruple pairs inside the box.

    The map is not proven monotone, only sampled: `samples` southeast-ordered
    pairs are drawn and a single violation aborts with NonMonotoneDetected.
    `corner_iterate` runs this for user-supplied maps; embeddings built from
    `model.planar_maps` are monotone by proof and are not sampled.
    """
    rng = np.random.default_rng(seed)
    a, b = box.a, box.b
    lo = rng.uniform(a, b, size=(samples, 4))
    t = rng.uniform(0.0, 1.0, size=(samples, 4))
    hi = np.empty_like(lo)
    hi[:, 0] = lo[:, 0] + t[:, 0] * (b - lo[:, 0])
    hi[:, 1] = lo[:, 1] - t[:, 1] * (lo[:, 1] - a)
    hi[:, 2] = lo[:, 2] - t[:, 2] * (lo[:, 2] - a)
    hi[:, 3] = lo[:, 3] + t[:, 3] * (b - lo[:, 3])
    for p, q in zip(lo, hi):
        if not se_leq(G(p), G(q)):
            raise NonMonotoneDetected(
                f"embedded map failed the southeast order on sampled pair {tuple(p)} <= {tuple(q)}"
            )


@dataclass(frozen=True)
class Enclosure:
    """Limits of the two corner orbits, bounding the attractor inside a box."""

    lower: QuadPoint
    upper: QuadPoint
    converged: bool
    iterations: int
    compatible: bool
    residual_lower: float
    residual_upper: float

    def is_point(self, tol: float = 1e-9) -> bool:
        """True when both corner limits coincide (a single symmetric fixed point)."""
        return max(abs(a - b) for a, b in zip(self.lower, self.upper)) <= tol


def _sup_dist(p: Sequence[float], q: Sequence[float]) -> float:
    return max(abs(a - b) for a, b in zip(p, q))


def corner_iterate(
    G: QuadMap,
    box: BoxRegion,
    tol: float = 1e-12,
    max_iter: int = 10**6,
    monotone_samples: int = 10_000,
    require_compatible: bool = True,
    raise_on_max_iter: bool = False,
    seed: int = 0,
) -> Enclosure:
    """Iterate G from the box corners (a,b,b,a) and (b,a,a,b) to their limits.

    With a compatible box the lower corner orbit increases and the upper one
    decreases in the southeast order, so the limits are fixed points of G that
    sandwich every orbit started inside the box.  `require_compatible=False`
    skips that validation and iterates anyway (useful for exploring boxes that
    only become compatible after a transient); per-step monotonicity is then
    not enforced, only the lower <= upper sandwich.

    Unless G embeds `model.RickerMap`s (as `model.planar_maps` builds them)
    and a >= 0, where the embedding lemma proves it monotone,
    `monotone_samples` ordered pairs are first checked by `sample_monotone`.
    The per-step order and crossing checks run for every G; they guard the
    float orbits actually computed.

    Stops when both corner orbits move less than `tol` in sup norm, or after
    `max_iter` steps (converged=False, or MaxIterExceeded when
    `raise_on_max_iter` is set).
    """
    compatible = box_compatible(G, box)
    if require_compatible and not compatible:
        raise PreconditionViolated(
            f"box ({box.a}, {box.b}) fails (a,b) <= (F(a,b), F(b,a)) southeast; "
            "pass require_compatible=False to iterate anyway"
        )
    proven = getattr(G, "_proven_monotone", False) and box.a >= 0.0
    if monotone_samples > 0 and not proven:
        sample_monotone(G, box, monotone_samples, seed=seed)

    # se_leq and _sup_dist are written out on coordinates unpacked once per
    # step: five helper calls a step cost about as much as the step itself
    lower: Sequence[float] = QuadPoint(box.a, box.b, box.b, box.a)
    upper: Sequence[float] = QuadPoint(box.b, box.a, box.a, box.b)
    lx, ly, lu, lv = lower
    ux, uy, uu, uv = upper
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        lower = G(lower)
        upper = G(upper)
        nlx, nly, nlu, nlv = lower
        nux, nuy, nuu, nuv = upper
        if compatible and not (
            lx <= nlx and ly >= nly and lu >= nlu and lv <= nlv
            and nux <= ux and nuy >= uy and nuu >= uu and nuv <= uv
        ):
            raise NonMonotoneDetected(
                f"corner orbit lost monotonicity at iterate {iterations}"
            )
        if not (nlx <= nux and nly >= nuy and nlu >= nuu and nlv <= nuv):
            raise NonMonotoneDetected(
                f"corner orbits crossed at iterate {iterations}; map is not order preserving"
            )
        delta = max(
            max(abs(lx - nlx), abs(ly - nly), abs(lu - nlu), abs(lv - nlv)),
            max(abs(ux - nux), abs(uy - nuy), abs(uu - nuu), abs(uv - nuv)),
        )
        lx, ly, lu, lv, ux, uy, uu, uv = nlx, nly, nlu, nlv, nux, nuy, nuu, nuv
        if delta < tol:
            converged = True
            break
    if not converged and raise_on_max_iter:
        raise MaxIterExceeded(f"corner iteration did not settle within {max_iter} steps")

    return Enclosure(
        lower=QuadPoint(*lower),
        upper=QuadPoint(*upper),
        converged=converged,
        iterations=iterations,
        compatible=compatible,
        residual_lower=_sup_dist(G(lower), lower),
        residual_upper=_sup_dist(G(upper), upper),
    )


# ---------------------------------------------------------------------------
# Periodic folding
# ---------------------------------------------------------------------------

Planar2Map = Callable[[float, float], tuple[float, float]]


def fold_period2(t0: Planar2Map, t1: Planar2Map) -> tuple[Planar2Map, Planar2Map]:
    """Compositions (t10, t01) of a 2-periodic planar system.

    t10 applies t0 first and then t1; t01 the other way round.  They satisfy
    the conjugacy identities t1(t01(p)) == t10(t1(p)) and t0(t10(p)) ==
    t01(t0(p)), so t0 carries cycles of t01 onto cycles of t10 and back.
    """

    def t10(x: float, y: float) -> tuple[float, float]:
        return t1(*t0(x, y))

    def t01(x: float, y: float) -> tuple[float, float]:
        return t0(*t1(x, y))

    return t10, t01


# ---------------------------------------------------------------------------
# Fixed point taxonomy
# ---------------------------------------------------------------------------


class FoldedFixedPointKind(str, Enum):
    COMMON_EQUILIBRIUM = "CommonEquilibrium"
    ONE_DIMENSIONAL_TWO_CYCLE = "OneDimensionalTwoCycle"
    PSEUDO_COMMON_FIXED_POINTS = "PseudoCommonFixedPoints"
    TRUE_TWO_CYCLE = "TrueTwoCycle"
    ARTIFICIAL_CYCLES = "ArtificialCycles"


def classify_folded_fixed_point(
    xi: Sequence[float],
    f0: PlanarMap,
    f1: PlanarMap,
    tol: float = 1e-8,
) -> FoldedFixedPointKind:
    """Classify a fixed point of the folded embedded map G1 o G0.

    The branches are decided purely by coordinate equalities within `tol`:
    x = y with (u, v) = (x, x) is a common equilibrium of both maps; x = y
    with u = v != x seeds a 2-cycle of the diagonal one-dimensional system;
    x != y with (u, v) = (y, x) is a pseudo pair fixed by both embedded maps;
    x != y with (u, v) = (x, y) seeds a genuine 2-cycle of the alternating
    system; anything else is an artificial cycle.
    """
    image = build_folded_embedding(f0, f1)(xi)
    resid = _sup_dist(image, xi)
    # A point perturbed by tol moves by O(tol) under the folded map, so the
    # fixed-point gate is looser than the coordinate-equality tolerance.
    if resid > max(10.0 * tol, 1e-7):
        raise NotAFixedPoint(
            f"point {tuple(xi)} is not fixed by the folded map (residual {resid:.3e})"
        )
    x, y, u, v = xi
    eq = lambda a, b: abs(a - b) <= tol
    if eq(x, y):
        if eq(u, x) and eq(v, x):
            return FoldedFixedPointKind.COMMON_EQUILIBRIUM
        if eq(u, v):
            return FoldedFixedPointKind.ONE_DIMENSIONAL_TWO_CYCLE
        return FoldedFixedPointKind.ARTIFICIAL_CYCLES
    if eq(u, y) and eq(v, x):
        return FoldedFixedPointKind.PSEUDO_COMMON_FIXED_POINTS
    if eq(u, x) and eq(v, y):
        return FoldedFixedPointKind.TRUE_TWO_CYCLE
    return FoldedFixedPointKind.ARTIFICIAL_CYCLES
