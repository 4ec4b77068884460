"""Orbit simulation, attractor classification, and eigenvalue-modulus scans."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from ._roots import bisect
from .constant import _r1, solve_equilibrium
from .errors import NoCrossing, OrbitOverflow
from .model import ModelParams
from .periodic import solve_two_cycle

_OVERFLOW_GUARD = 1e300
_LOG_GUARD = math.log(_OVERFLOW_GUARD)


def simulate(params: ModelParams, x0: float, x_minus1: float, n_steps: int) -> np.ndarray:
    """The orbit terms x_1 .. x_{n_steps} from initial data (x0, x_{-1}).

    Deterministic; raises ValueError unless both initial states are finite and
    non-negative, and OrbitOverflow (with the offending step index) when a
    term exceeds the 1e300 guard.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    # written as one positive condition, so that NaN and inf states fail it
    if not (0.0 <= x0 < math.inf and 0.0 <= x_minus1 < math.inf):
        raise ValueError("initial states must be finite and non-negative")
    r = params.r
    exp = math.exp
    stocking = itertools.islice(itertools.cycle(params.stocking), n_steps)

    def terms():
        cur, prev = x0, x_minus1
        for h in stocking:
            try:
                nxt = cur * exp(r - prev) + h
            except OverflowError:
                # e^{r - prev} is past the float range, but a small cur can
                # bring the product back into it, so form the product in logs
                log_term = math.log(cur) + (r - prev) if cur > 0.0 else -math.inf
                nxt = (exp(log_term) if log_term <= _LOG_GUARD else math.inf) + h
            # terms are non-negative, so this also catches inf and NaN
            if not nxt <= _OVERFLOW_GUARD:
                # this step has taken its h, so the steps left give its index
                raise OrbitOverflow(step=n_steps - sum(1 for _ in stocking), value=nxt)
            yield nxt
            prev, cur = cur, nxt

    return np.fromiter(terms(), float, count=n_steps)


class AttractorKind(str, Enum):
    EQUILIBRIUM = "Equilibrium"
    CYCLE = "Cycle"
    INVARIANT_CURVE = "InvariantCurve"
    UNRESOLVED = "Unresolved"


@dataclass(frozen=True)
class OrbitResult:
    """Post-transient window with its attractor label.

    samples holds (x_n, x_{n-1}) pairs for the window.  For a cycle, `points`
    lists one period in orbit order; for an equilibrium, `value` is the fixed
    point estimate.
    """

    kind: AttractorKind
    samples: np.ndarray
    value: Optional[float] = None
    period: Optional[int] = None
    points: Optional[tuple[float, ...]] = None


def classify_attractor(
    params: ModelParams,
    x0: float,
    x_minus1: float,
    transient: int = 10_000,
    window: int = 4096,
    tol: float = 1e-6,
    max_period: int = 64,
) -> OrbitResult:
    """Label the long-run behavior of one orbit.

    After dropping `transient` steps: an equilibrium when the window collapses
    to a point; otherwise the smallest period k <= max_period matching the
    window shift within tol; otherwise, when the orbit stays bounded and the
    local eigenvalue pair at the nearest equilibrium/2-cycle is complex with
    modulus above one, an invariant curve; else unresolved.  The invariant
    curve label is heuristic and is never consumed by the certifiers.
    """
    if window < 2 * max_period:
        raise ValueError("window must be at least twice max_period")
    orbit = simulate(params, x0, x_minus1, transient + window)
    w = orbit[transient:]
    prev = np.concatenate(([x0 if transient == 0 else orbit[transient - 1]], w[:-1]))
    samples = np.column_stack([w, prev])

    if w.max() - w.min() < tol:
        return OrbitResult(
            kind=AttractorKind.EQUILIBRIUM, samples=samples, value=float(w.mean()), period=1,
        )
    # the full shift test at k includes |w[k] - w[0]| < tol, so only the
    # periods passing that one comparison can match
    candidates = np.flatnonzero(np.abs(w[2:max_period + 1] - w[0]) < tol) + 2
    for k in candidates.tolist():
        if np.max(np.abs(w[k:] - w[:-k])) < tol:
            return OrbitResult(
                kind=AttractorKind.CYCLE, samples=samples, period=k, points=tuple(float(v) for v in w[-k:]),
            )
    spectral = _modulus_at(params)
    if spectral is not None:
        radius, lead = spectral
        if lead.imag != 0.0 and radius > 1.0:
            return OrbitResult(kind=AttractorKind.INVARIANT_CURVE, samples=samples)
    return OrbitResult(kind=AttractorKind.UNRESOLVED, samples=samples)


@dataclass(frozen=True)
class CrossingReport:
    """Location of a unit-circle crossing of the leading eigenvalue pair."""

    s_lo: float
    s_hi: float
    s_star: float
    modulus: float
    argument: float
    complex_pair: bool
    kind: str  # "equilibrium" or "two-cycle"


def _modulus_at(params: ModelParams) -> tuple[float, complex] | None:
    """(spectral radius, leading eigenvalue) at the equilibrium (p = 1) or
    the composed 2-cycle Jacobian (p = 2); None for longer periods."""
    if params.p == 1:
        lam = solve_equilibrium(params).eigenvalues
    elif params.p == 2:
        lam = solve_two_cycle(params).eigenvalues
    else:
        return None
    lead = max(lam, key=abs)
    return abs(lead), lead


def neimark_sacker_scan(
    family: Callable[[float], ModelParams],
    s_lo: float,
    s_hi: float,
    steps: int = 101,
    refine_width: float = 1e-8,
) -> CrossingReport:
    """Bracket and bisect the first unit-modulus crossing along a family.

    `family` maps the scan parameter s to model parameters; the scanned
    quantity is the sign of (spectral radius - 1) at the equilibrium (p = 1)
    or of the composed 2-cycle Jacobian (p = 2).  The first sign change on a
    `steps`-point grid over s_lo < s_hi is bisected until it is no wider than
    `refine_width`; `refine_width=0` bisects down to float resolution.  The
    grid is evaluated in order and no point past the first sign change is
    evaluated.  Raises NoCrossing when the radius stays on one side over the
    whole grid.  `modulus` and `argument` are read from the eigenvalues at
    s_star.

    For p = 1 the closed form decides the sign, with no equilibrium solve:
    radius - 1 has the sign of r - r1(h), r1(h) = h + 1 - ln(h + 1).
    - At the equilibrium y > max(r, h) (y = r at h = 0), Tr = 1 - h/y lies
      in (0, 1] and Det = y - h > 0.
    - A real pair then has both roots in (0, 1): their product Det is
      positive and their sum Tr is at most 1.  A complex pair has
      |lambda|^2 = Det.  A real pair has Det < 1, so radius >= 1 exactly
      when Det >= 1.
    - Det = y - h rises with r, since y does, and Det = 1 at y = h + 1,
      where y - y e^{r-y} = h gives r = r1(h).
    The sign is decided at each (r, h) on its own, so the argument holds
    when h varies along s too.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    # one positive condition, so that NaN and inf bounds fail it
    if not -math.inf < s_lo < s_hi < math.inf:
        raise ValueError(f"scan range needs finite s_lo < s_hi, got [{s_lo}, {s_hi}]")

    def excess(s: float) -> float:
        params = family(s)
        if params.p == 1:
            return params.r - _r1(params.stocking[0])
        spectral = _modulus_at(params)
        if spectral is None:
            raise ValueError("scans support p = 1 and p = 2 only")
        return spectral[0] - 1.0

    grid = np.linspace(s_lo, s_hi, steps).tolist()
    flo = excess(grid[0])
    for i in range(steps - 1):
        fhi = excess(grid[i + 1])
        if flo == 0.0 or flo * fhi < 0.0:
            break
        flo = fhi
    else:
        raise NoCrossing(
            f"eigenvalue modulus stays on one side of 1 over [{s_lo}, {s_hi}]"
        )
    bracket = (grid[i], grid[i + 1])
    s_star = bisect(lambda s: flo * excess(s) > 0.0, *bracket, width=refine_width)
    params = family(s_star)
    modulus, lead = _modulus_at(params)
    kind = "equilibrium" if params.p == 1 else "two-cycle"
    return CrossingReport(
        s_lo=bracket[0],
        s_hi=bracket[1],
        s_star=s_star,
        modulus=modulus,
        argument=math.atan2(abs(lead.imag), lead.real),
        complex_pair=lead.imag != 0.0,
        kind=kind,
    )
