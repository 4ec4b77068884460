"""Constant-stocking analysis: equilibrium, Jury classification, thresholds,
curve intersections, feasible boxes, and global-stability certification.

For x_{n+1} = x_n e^{r - x_{n-1}} + h with h > 0 there is a unique positive
equilibrium y* > max(r, h).  Its Jacobian has trace 1 - h/y* and determinant
y* - h, so local stability reduces to y* < 1 + h, which happens exactly for
r below the threshold r1(h).  Global stability is certified below the smaller
threshold r2(h) where the fixed-point curves of the embedded map meet only on
the diagonal; between r2 and h the off-diagonal intersections (pseudo fixed
points) bound an absorbing box instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import bisect
from .errors import BracketFailure, Infeasible
from .model import ModelParams, PlanarPoint, planar_maps
from .embedding import BoxRegion
from .verdicts import (
    ClassificationVerdict,
    LocalVerdict,
    VerdictTag,
    eigenvalues_from_trace_det,
)

_MARGINAL_BAND = 1e-10


@dataclass(frozen=True)
class EquilibriumReport:
    """Equilibrium location plus its 2x2 Jacobian data and Jury verdict."""

    y_bar: float
    trace: float
    det: float
    eigenvalues: tuple[complex, complex]
    local_verdict: LocalVerdict
    residual: float

    def to_dict(self) -> dict:
        return {
            "y_bar": self.y_bar,
            "trace": self.trace,
            "det": self.det,
            "eig_re": [lam.real for lam in self.eigenvalues],
            "eig_im": [lam.imag for lam in self.eigenvalues],
            "verdict": self.local_verdict.value,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class ThresholdSet:
    """Closed-form stability thresholds for a given stocking level h.

    r1: where the equilibrium reaches 1 + h and local stability is lost.
    h_star: the equilibrium height at which the intersection curves have
        slope -1, the root of H(H - h) = h.
    r2: the growth rate putting the equilibrium exactly at h_star; below it
        the off-diagonal intersections are absent and global stability holds.
    """

    r1: float
    h_star: float
    r2: float


def thresholds(h: float) -> ThresholdSet:
    if not math.isfinite(h) or h <= 0.0:
        raise ValueError(f"thresholds are defined for h > 0, got {h!r}")
    r1 = h + 1.0 - math.log(h + 1.0)
    disc = h * h + 4.0 * h
    if math.isfinite(disc):
        h_star = 0.5 * (h + math.sqrt(disc))
        gap = h_star - h
        if gap <= 0.0:
            # h_star - h rounds to 0 from h = 2^53 on; this form does not cancel
            gap = 2.0 * h / (h + math.sqrt(disc))
    else:
        # h * h overflows from about 1.34e154 on; divide the root through by h
        root = math.sqrt(1.0 + 4.0 / h)
        h_star = 0.5 * h * (1.0 + root)
        gap = 2.0 / (1.0 + root)
    r2 = h_star + math.log(gap) - math.log(h_star)
    return ThresholdSet(r1=r1, h_star=h_star, r2=r2)


def _equilibrium_root(r: float, h: float) -> float:
    """Root of y - y e^{r-y} - h on (max(r, h), r + h + 1].

    Bisection on the guaranteed bracket, then one Newton polish.  The lower
    end is negative because the equilibrium exceeds both r and h; the upper
    end is positive because r + h + 1 <= (r + 1)(h + 1) and
    (h + 1) e^{-(h+1)} <= 1/e give phi(r + h + 1) >= (r + 1)(1 - 1/e).
    """
    if h == 0.0:
        return r
    phi = lambda y: y - y * math.exp(r - y) - h
    lo = max(r, h)
    hi = r + h + 1.0
    flo, fhi = phi(lo), phi(hi)
    if flo > 0.0 or fhi < 0.0:
        raise BracketFailure(f"equilibrium bracket failed for r={r}, h={h}: ({flo}, {fhi})")
    y = bisect(lambda y: phi(y) <= 0.0, lo, hi)
    # phi'(y) = 1 - (1 - y) e^{r-y}
    dphi = 1.0 - (1.0 - y) * math.exp(r - y)
    if dphi != 0.0:
        y -= phi(y) / dphi
    return y


def _local_verdict(r: float, y: float, band: float = _MARGINAL_BAND) -> LocalVerdict:
    """Jury verdict at the equilibrium y, Marginal within `band` of det = 1.

    The determinant is y - h, which cancels once h dwarfs it; at the
    equilibrium it equals y e^{r-y}, which does not.
    """
    excess = y * math.exp(r - y) - 1.0
    if abs(excess) < band:
        return LocalVerdict.MARGINAL
    return LocalVerdict.LAS if excess < 0.0 else LocalVerdict.UNSTABLE


def solve_equilibrium(params: ModelParams) -> EquilibriumReport:
    """Equilibrium report for constant stocking (p = 1, h >= 0)."""
    if params.p != 1:
        raise ValueError("solve_equilibrium requires constant stocking (p = 1)")
    r, h = params.r, params.h_const
    y = _equilibrium_root(r, h)
    trace = 1.0 - h / y
    det = y - h
    eig = eigenvalues_from_trace_det(trace, det)
    verdict = _local_verdict(r, y)
    residual = abs(y - y * math.exp(r - y) - h)
    return EquilibriumReport(
        y_bar=y, trace=trace, det=det, eigenvalues=eig,
        local_verdict=verdict, residual=residual,
    )


def equilibria_grid(r: np.ndarray, h: np.ndarray, iters: int = 90) -> np.ndarray:
    """Vectorized equilibrium solve over parameter arrays (used by sweeps)."""
    r = np.asarray(r, dtype=float)
    h = np.asarray(h, dtype=float)
    lo = np.maximum(r, h)
    hi = r + h + 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        neg = mid - mid * np.exp(r - mid) - h <= 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    y = 0.5 * (lo + hi)
    for _ in range(2):
        phi = y - y * np.exp(r - y) - h
        dphi = 1.0 - (1.0 - y) * np.exp(r - y)
        y = y - np.where(dphi != 0.0, phi / dphi, 0.0)
    return np.where(h == 0.0, r, y)


# ---------------------------------------------------------------------------
# Intersections of the fixed-point curves
# ---------------------------------------------------------------------------


def _g1(t: float, r: float, h: float) -> float:
    return h / (1.0 - math.exp(r - t))


def expected_intersection_count(r: float, h: float, ts: ThresholdSet | None = None) -> int:
    """Case prediction: 3 off/on-diagonal intersections iff r2 < r < h, else 1."""
    if ts is None:
        ts = thresholds(h)
    return 3 if (ts.r2 < r < h) else 1


def find_intersections(params: ModelParams) -> list[PlanarPoint]:
    """All solutions of x = x f(y) + h and y = y f(x) + h in the open quadrant.

    Both curves are graphs of the decreasing map g1(t) = h / (1 - e^{r-t}) on
    t > r, so the intersections are the fixed point y_bar of g1 and its
    2-cycle.  Outside the box regime r2 < r < h that is [(y_bar, y_bar)].
    Inside it the 2-cycle x* < y_bar < y* exists, and the model brackets it:
    g1 > h because 0 < e^{r-t} < 1, so x* = g1(y*) > h, and as g1 decreases,
    y* = g1(x*) < g1(h).  Hence s(t) = g1(g1(t)) - t is >= 0 at h and <= 0
    at g1(h); s changes sign only at x*, y_bar and y*, and y_bar repels, so
    bisecting on the sign of s over [h, y_bar] gives x* and over
    [y_bar, g1(h)] gives y*.  Raises BracketFailure where g1(h) is infinite
    (e^{r-h} rounds to 1) or the end signs fail in floats.
    """
    if params.p != 1:
        raise ValueError("find_intersections requires constant stocking (p = 1)")
    r, h = params.r, params.h_const
    if h <= 0.0:
        raise ValueError("find_intersections requires h > 0")
    y_bar = _equilibrium_root(r, h)
    if expected_intersection_count(r, h) == 1:
        return [PlanarPoint(y_bar, y_bar)]

    if math.exp(r - h) >= 1.0:
        raise BracketFailure(f"g1(h) is infinite at r={r}, h={h}: e^(r-h) rounds to 1")
    s = lambda t: _g1(_g1(t, r, h), r, h) - t
    top = _g1(h, r, h)
    s_lo, s_hi = s(h), s(top)
    if s_lo < 0.0 or s_hi > 0.0:
        raise BracketFailure(f"pseudo fixed point brackets failed for r={r}, h={h}: ({s_lo}, {s_hi})")
    x_star = bisect(lambda t: s(t) > 0.0, h, y_bar)
    y_star = bisect(lambda t: s(t) > 0.0, y_bar, top)
    return [PlanarPoint(x_star, y_star), PlanarPoint(y_bar, y_bar), PlanarPoint(y_star, x_star)]


def feasible_ab(params: ModelParams, target: PlanarPoint | tuple[float, float]) -> BoxRegion:
    """A box (a, b) with (a, b) <= (F(a, b), F(b, a)) southeast enclosing `target`.

    Exists exactly when h > r: pick a between r and h, then any b at or above
    g1(a) works because a < h guarantees a < F(a, b) while b >= g1(a) is
    b >= F(b, a).  The box is widened until the target is inside.
    """
    if params.p != 1:
        raise ValueError("feasible_ab requires constant stocking (p = 1)")
    r, h = params.r, params.h_const
    if h <= r:
        raise Infeasible(f"no compatible box exists when h <= r (h={h}, r={r})")
    tx, ty = target
    t_min, t_max = min(tx, ty), max(tx, ty)
    if t_min <= r:
        raise Infeasible(f"target {target} has a coordinate at or below r={r}")
    F, = planar_maps(params)
    a = r + 0.5 * (min(h, t_min) - r)
    for _ in range(60):
        b = max(_g1(a, r, h) + 1e-9, t_max)
        ok = a <= F(a, b) and b >= F(b, a) and a <= t_min and b >= t_max
        if ok:
            return BoxRegion(a, b)
        a = r + 0.5 * (a - r)
    raise Infeasible(f"could not construct a compatible box for target {target}")


_PROV_GLOBAL = "r <= r2: single diagonal intersection, monotone corner orbits collapse to it"
_PROV_BOX = "r2 < r < h: off-diagonal pseudo fixed points bound an absorbing box"
_PROV_OPEN = "h <= r < r1: locally stable but no compatible box; global status open"
_PROV_UNSTABLE = "r >= r1: Jury conditions fail at the equilibrium"


def _constant_tag(r: float, h: float, ts: ThresholdSet, y_bar: float) -> VerdictTag:
    """Shared tag rule for certify_constant and the parameter sweeps.

    Instability takes precedence over the absorbing box: for h large enough
    the box regime r2 < r < h overlaps r > r1, and the verdict reports the
    lost local stability there (the box bounds remain available through
    find_intersections).
    """
    if r <= ts.r2:
        return VerdictTag.GLOBALLY_STABLE
    if _local_verdict(r, y_bar) is LocalVerdict.UNSTABLE:
        return VerdictTag.UNSTABLE
    if r < h:
        return VerdictTag.ABSORBING_BOX
    return VerdictTag.LOCALLY_STABLE_GLOBAL_OPEN


def certify_constant(params: ModelParams) -> ClassificationVerdict:
    """Classify the long-run behavior under constant stocking.

    GloballyStable for r <= r2 (with a compatible witness box); AbsorbingBox
    [x*, y*] for r2 < r < h, bounded by the pseudo fixed points; otherwise the
    conjecture region tag LocallyStableGlobalOpen while the equilibrium is
    Jury-stable, and Unstable beyond r1.  The open-region tag is never
    upgraded even when orbits visibly converge.
    """
    if params.p != 1:
        raise ValueError("certify_constant requires constant stocking (p = 1)")
    r, h = params.r, params.h_const
    if h <= 0.0:
        raise ValueError("certification requires h > 0; the h = 0 limit is out of scope")
    ts = thresholds(h)
    report = solve_equilibrium(params)
    tag = _constant_tag(r, h, ts, report.y_bar)

    if tag is VerdictTag.GLOBALLY_STABLE:
        witness = None
        if h > r:
            box = feasible_ab(params, PlanarPoint(report.y_bar, report.y_bar))
            witness = (box.a, box.b)
        return ClassificationVerdict(
            tag=tag, provenance=_PROV_GLOBAL, witness=witness,
            local=report.local_verdict,
        )
    if tag is VerdictTag.ABSORBING_BOX:
        pts = find_intersections(params)
        xs = min(p.x for p in pts)
        ys = max(p.x for p in pts)
        box = feasible_ab(params, PlanarPoint(ys, ys))
        note = ""
        if report.local_verdict is LocalVerdict.MARGINAL:
            note = "equilibrium on the local-stability boundary"
        return ClassificationVerdict(
            tag=tag, provenance=_PROV_BOX, note=note, box=(xs, ys),
            witness=(box.a, box.b), local=report.local_verdict,
        )
    if tag is VerdictTag.LOCALLY_STABLE_GLOBAL_OPEN:
        note = "convergence in this region is conjectured, not certified"
        if report.local_verdict is LocalVerdict.MARGINAL:
            note = "on the Neimark-Sacker boundary; " + note
        return ClassificationVerdict(
            tag=tag, provenance=_PROV_OPEN, note=note, local=report.local_verdict,
        )
    note = "an absorbing box still exists (r < h)" if r < h else ""
    return ClassificationVerdict(
        tag=tag, provenance=_PROV_UNSTABLE, note=note, local=report.local_verdict,
    )
