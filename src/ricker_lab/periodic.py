"""Two-periodic stocking analysis: the alternating 2-cycle, its composed
Jacobian, artificial cycles of the folded embedded map, and certification.

With schedule (h0, h1) the even-indexed terms of an orbit settle (when stable)
on z0 and the odd-indexed terms on z1, where

    z0 = z1 f(z0) + h1      and      z1 = z0 f(z1) + h0.

The composed two-step Jacobian has Det = (z1 - h0)(z0 - h1) and
Tr = (h1 - z0) + (h0 - z1) + (1 - h0/z1)(1 - h1/z0), so Jury's test decides
local stability.  Global stability is certified by embedding: if both
stocking values are at least r and the folded embedded map has no fixed points
besides the one seeded by the 2-cycle, the 2-cycle attracts globally;
otherwise the extra (artificial) fixed points bound the even and odd tails.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from ._roots import newton_2d
from .embedding import BoxRegion, build_folded_embedding, compatible_box
from .errors import ContradictionDetected, NonConvergence, PreconditionViolated
from .model import ModelParams, QuadPoint, planar_maps
from .verdicts import (
    ClassificationVerdict,
    LocalVerdict,
    VerdictTag,
    eigenvalues_from_trace_det,
    jury_verdict,
)

_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class TwoCycleReport:
    """The alternating 2-cycle with its composed Jacobian data."""

    z0: float
    z1: float
    trace: float
    det: float
    eigenvalues: tuple[complex, complex]
    local_verdict: LocalVerdict
    residuals: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "z0": self.z0,
            "z1": self.z1,
            "trace": self.trace,
            "det": self.det,
            "eig_re": [lam.real for lam in self.eigenvalues],
            "eig_im": [lam.imag for lam in self.eigenvalues],
            "verdict": self.local_verdict.value,
            "residual": max(self.residuals),
        }


def _require_two_periodic(params: ModelParams) -> tuple[float, float, float]:
    if params.p != 2:
        raise ValueError("this operation requires a 2-periodic schedule (h0 != h1)")
    return params.r, params.stocking[0], params.stocking[1]


def _orbit_bounds(r: float, h0: float, h1: float) -> tuple[float, float]:
    """Two-step trapping bounds: even terms below (e^r + h0)e^r + h1, odd
    terms below the swapped expression.  Raises PreconditionViolated where
    they overflow, as for r above about 355."""
    try:
        er = math.exp(r)
    except OverflowError:
        er = math.inf
    x_max, y_max = (er + h0) * er + h1, (er + h1) * er + h0
    if not (math.isfinite(x_max) and math.isfinite(y_max)):
        raise PreconditionViolated(f"the trapping bounds overflow for r={r}, h=({h0}, {h1})")
    return x_max, y_max


def _geomspace(lo: float, hi: float | np.ndarray, n: int) -> np.ndarray:
    """`np.geomspace(lo, hi, n)` for positive scalar ends and n >= 2, bit for
    bit: the same log10, linspace and power steps without its argument
    handling, which costs several times the arithmetic at these sizes.  Both
    ends are pinned, as numpy pins them.  With hi a (cells, 1) array it gives
    one such row per cell."""
    log_lo, log_hi = np.log10(lo), np.log10(hi)
    y = np.arange(n, dtype=float) * ((log_hi - log_lo) / (n - 1)) + log_lo
    out = np.power(10.0, y)
    out[..., 0], out[..., -1:] = lo, hi
    return out


def _cycle_residuals(z0: float, z1: float, r: float, h0: float, h1: float) -> tuple[float, float]:
    """The two 2-cycle equations, each as image minus point."""
    return z1 * math.exp(r - z0) + h1 - z0, z0 * math.exp(r - z1) + h0 - z1


def _reduced_z1(z0: float, r: float, h1: float) -> float:
    """z1 = (z0 - h1) e^{z0 - r}, from the first cycle equation."""
    s = math.log(z0 - h1) + z0 - r
    return math.exp(s) if s < 690.0 else math.inf


def _reduced_residual(z0: float, r: float, h0: float, h1: float, y_max: float) -> float:
    """The second cycle equation at (z0, z1(z0)); 1e18 where z1 overflows or
    leaves ten times the trapping bound."""
    z1 = _reduced_z1(z0, r, h1)
    if not math.isfinite(z1) or z1 > 10.0 * y_max:
        return 1e18
    return z1 - h0 - z0 * math.exp(r - z1)


def _offset_system(a: float, b: float, r: float, h0: float, h1: float):
    """The 2-cycle equations E1, E2 in the log offsets a = log(z0 - h1) and
    b = log(z1 - h0), with their Jacobian in (a, b) (see `solve_two_cycle`).

    log(h0 + e^b) is taken as b + log1p(h0 e^{-b}) where e^b > h0, so that
    E1 forms a - b in one subtraction, and as it reads where h0 >= e^b, where
    that log1p would be about log h0 - b and cancel b instead; likewise for
    E2.  Either way each equation carries the rounding of its smaller terms:
    near the diagonal at small r and h, a and b are both about log r, while
    every other term is about r.  e^{-a} or e^{-b} overflows only on a trial
    step, which `newton_2d` then rejects.
    """
    ea, eb = math.exp(a), math.exp(b)
    w0, w1 = h0 * math.exp(-b), h1 * math.exp(-a)
    t0 = a - b - math.log1p(w0) if w0 < 1.0 else a - math.log(h0 + eb)
    t1 = b - a - math.log1p(w1) if w1 < 1.0 else b - math.log(h1 + ea)
    return t0 + ea + h1 - r, t1 + eb + h0 - r, 1.0 + ea, -1.0 / (1.0 + w0), -1.0 / (1.0 + w1), 1.0 + eb


def solve_two_cycle(params: ModelParams) -> TwoCycleReport:
    """Solve the 2-cycle equations and classify it with Jury's test.

    The first cycle equation gives z1 = (z0 - h1) e^{z0 - r}, and the second
    leaves the scalar reduction F(z0) = z1 - h0 - z0 e^{r - z1} on
    (h1, inf).  F has exactly one zero there, the 2-cycle, stable or not.
    At a zero, d0 = z0 - h1 = z1 e^{r - z0} > 0 and
    d1 = z1 - h0 = z0 e^{r - z1} > 0, and

        F'(z0) = e^{z0 - r} [(1 + d0)(1 + d1) - d0 d1 / (z0 z1)] > 0,

    because d0 <= z0 and d1 <= z1.  Every zero is a strict upward crossing,
    so between two of them F would have to cross downwards: there is at most
    one.  As z0 falls to h1, F tends to -h0 - h1 e^r < 0.  The zero lies
    below hi = min(x_max, max(h1 + 2, r + log(y_max + 1) + 2)):
    z0 - h1 = h0 e^{r-z0} + z0 e^{-z0} e^{2r-z1} < h0 e^r + e^{2r}, so
    z0 < x_max, and likewise z1 < y_max, so for z0 >= r + log(y_max + 1) + 2
    the offset z0 - h1 = z1 e^{r-z0} is below 1.  The solve checks F < 0 at
    nextafter(h1) and F > 0 at hi in floats.  Where h1 is far above r, z0 - h1
    can lie below the float resolution of h1; F is then already positive at
    the lower end, and the solve raises NonConvergence.

    The cycle is then solved in its log offsets a = log d0 and b = log d1.
    The logs of d0 = z1 e^{r - z0} and d1 = z0 e^{r - z1} read

        E1 = a + e^a + h1 - r - log(h0 + e^b) = 0,
        E2 = b + e^b + h0 - r - log(h1 + e^a) = 0,

    whose one root is the 2-cycle.  The Jacobian has diagonal 1 + e^a and
    1 + e^b, both above 1, and off-diagonal -e^b / (h0 + e^b) and
    -e^a / (h1 + e^a), both in (-1, 0].  It is strictly diagonally dominant,
    and its determinant exceeds (1 + e^a)(1 + e^b) - 1 > 0, so no Newton
    step meets a singular Jacobian.  Damped Newton (`newton_2d`) runs from
    (a, b) = (0, 0).

    One more Newton step (da, db) finishes, applied in z's own floats as
    d0 (1 - da) and d1 (1 - db), exact to first order in steps this small.
    Rounded into a instead, it would be lost: floats near a lie about
    |a| 2^-52 apart, so e^a can only move by that much of itself, about |a|
    ulps of z0 where h1 is small.  The step also carries the offsets past
    newton_2d's stopping test, |E1| + |E2| < 1e-14 (1 + |a| + |b|), which
    for a and b near log r lies far above their rounding.  A Newton polish
    of the (z0, z1) residuals instead moved roots near the diagonal at small
    r and h up to 15 ulps away from a 40-digit root: their Jacobian is
    nearly singular there.  Where the determinant rounds to zero, which
    needs e^a, e^b, h0 e^{-b} and h1 e^{-a} all below 2^-53, the step is
    skipped and the residual check decides.

    The solve raises NonConvergence where the pair fails the residual check
    or is not above (h1, h0) in floats, and where it breaks the ordering law
    by more than its float resolution.
    """
    r, h0, h1 = _require_two_periodic(params)
    x_max, y_max = _orbit_bounds(r, h0, h1)
    residual = lambda z0: _reduced_residual(z0, r, h0, h1, y_max)
    lo = math.nextafter(h1, math.inf)
    hi = min(x_max, max(h1 + 2.0, r + math.log(y_max + 1.0) + 2.0))
    if not residual(lo) < 0.0:
        raise NonConvergence(
            f"no 2-cycle resolvable for r={r}, h=({h0}, {h1}): z0 - h1 lies below "
            f"the float resolution of h1={h1}"
        )
    if not residual(hi) > 0.0:
        raise NonConvergence(f"2-cycle bracket failed for r={r}, h=({h0}, {h1}) at z0={hi}")
    system = lambda a, b: _offset_system(a, b, r, h0, h1)
    a, b = newton_2d(system, 0.0, 0.0)
    e1, e2, j11, j12, j21, j22 = system(a, b)
    det = j11 * j22 - j12 * j21
    d0, d1 = math.exp(a), math.exp(b)
    if det > 0.0:
        d0, d1 = d0 - d0 * (e1 * j22 - e2 * j12) / det, d1 - d1 * (e2 * j11 - e1 * j21) / det
    z0, z1 = h1 + d0, h0 + d1
    q1, q2 = _cycle_residuals(z0, z1, r, h0, h1)
    if not max(abs(q1), abs(q2)) < _RESIDUAL_TOL:
        raise NonConvergence(
            f"2-cycle polish for r={r}, h=({h0}, {h1}) left residuals ({q1}, {q2})"
        )
    if not (z0 > h1 and z1 > h0):
        raise NonConvergence(
            f"no 2-cycle resolvable for r={r}, h=({h0}, {h1}): the solved pair ({z0}, {z1}) "
            "is not above (h1, h0), so z0 - h1 or z1 - h0 lies below the float resolution"
        )
    # a misorder within the pair's float resolution is rounding: with both
    # residuals under _RESIDUAL_TOL, it forces |h0 - h1| below about twice
    # that, as for h0, h1 an ulp apart or h1 = 3.4e-71 against h0 = 0
    if (h0 - h1) * (z1 - z0) < 0.0 and abs(z1 - z0) > math.ulp(max(z0, z1)):
        raise NonConvergence(
            f"solved pair ({z0}, {z1}) violates the stocking/phase ordering law"
        )
    # Det and Tr from the full-precision offsets d0 = z0 - h1, d1 = z1 - h0:
    # re-formed from the rounded pair, they lose digits where h1 or h0 dwarfs
    # them.  (1 - h0/z1)(1 - h1/z0) = (d1/z1)(d0/z0) = Det / (z0 z1).
    det = d0 * d1
    trace = det / (z0 * z1) - d0 - d1
    return TwoCycleReport(
        z0=z0,
        z1=z1,
        trace=trace,
        det=det,
        eigenvalues=eigenvalues_from_trace_det(trace, det),
        local_verdict=jury_verdict(trace, det),
        residuals=(abs(q1), abs(q2)),
    )


RULE_DET_BELOW_ONE = "r<=1 implies det<1"
RULE_CYCLE_LAS = "both z_j <= h_{j+1}+1 implies LAS"
RULE_CYCLE_UNSTABLE = "both z_j > h_{j+1}+1 implies unstable"


def corollary_shortcuts(report: TwoCycleReport, params: ModelParams) -> list[str]:
    """Which of the three shortcut rules fire, cross-checked against Jury.

    Rule 1: r <= 1 forces det < 1.  Rule 2: z0 <= h1 + 1 and z1 <= h0 + 1
    force local stability.  Rule 3: both reversed force instability.  A fired
    rule that contradicts the direct Jury verdict raises
    ContradictionDetected (it would indicate a numeric failure).
    """
    r, h0, h1 = _require_two_periodic(params)
    fired: list[str] = []
    if r <= 1.0:
        fired.append(RULE_DET_BELOW_ONE)
        if not report.det < 1.0:
            raise ContradictionDetected(
                f"r={r} <= 1 but det={report.det} is not below 1"
            )
    if report.z0 <= h1 + 1.0 and report.z1 <= h0 + 1.0:
        fired.append(RULE_CYCLE_LAS)
        if report.local_verdict is LocalVerdict.UNSTABLE:
            raise ContradictionDetected(
                "shortcut predicts a stable 2-cycle but Jury says unstable"
            )
    if report.z0 > h1 + 1.0 and report.z1 > h0 + 1.0:
        fired.append(RULE_CYCLE_UNSTABLE)
        if report.local_verdict is LocalVerdict.LAS:
            raise ContradictionDetected(
                "shortcut predicts an unstable 2-cycle but Jury says stable"
            )
    return fired


# ---------------------------------------------------------------------------
# Artificial cycles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArtificialCycleSet:
    """Fixed points of the folded embedded map not seeded by the 2-cycle.

    Each quadruple (x, y, u, v) pairs a root (x, y) of the reduced 2D system
    with its partner (u, v) = (F1(y, x), F0(x, y)); the partner's root is
    listed as its own quadruple.  `grid` records the scan resolution: absence
    of further roots is only established at that resolution.
    """

    cycles: tuple[QuadPoint, ...]
    count: int
    grid: int


def _first_residual(X, Y, eX, eY, r: float, h0: float, h1: float):
    """The residual R1 = P e^{r-Q} - X + h1, with P = X e^{r-Y} + h0 and
    Q = Y e^{r-X} + h1, on X and Y broadcast together, given eX = e^{r-X}
    and eY = e^{r-Y}.

    Built in place, in the order the formula reads, so the values are those
    of the plain expression.  With the roles swapped it is the second
    residual, bit for bit: `_first_residual(Y, X, eY, eX, r, h1, h0)` is
    R2 = Q e^{r-P} - Y + h0, since the swap exchanges P and Q.
    """
    P = X * eY
    P += h0
    Q = Y * eX
    Q += h1
    R1 = np.subtract(r, Q)
    np.exp(R1, out=R1)
    R1 *= P
    R1 -= X
    R1 += h1
    return R1


# Where min(h0, h1) < r, e^{r-x} and e^{r-y} exceed 1, and for large r the
# products P, Q and P e^{r-Q} can pass the float range.  Their true values
# are positive, so the inf each overflows to keeps its sign, and so does
# R1 = inf - X + h1: signbit reads the sign of the true residual, as the band
# search needs.  Only the warning is silenced; every value is unchanged.
@np.errstate(over="ignore")
def _seed_cells(xs: np.ndarray, ys: np.ndarray, r, h0, h1) -> np.ndarray:
    """The (cell, i, j) indices of the lattice cells xs[cell] x ys[cell]
    across which both residual surfaces change sign, for many scans at once.

    xs and ys are (cells, grid) arrays, one lattice per cell; r, h0 and h1
    are scalars or (cells, 1) arrays.  The result runs cell by cell, each
    cell's lattice cells in row-major order.

    R1 falls in y along each lattice row, so a lower-bound search finds each
    row's first negative column k[cell, i], every row of every cell at once,
    from about log2(grid) evaluations of R1 on one point per row.  Between
    rows i and i + 1, R1 then changes sign exactly on the columns
    min(k) - 1 .. max(k) - 1, and R2 is evaluated only at the corners of
    those lattice cells, once per corner shared along the band.  Per cell
    that is O(grid log grid) time and O(grid) memory; a batch pays the numpy
    call overhead, about 20 calls per probe, once for all its cells, and
    holds O(cells x grid) memory.

    e^{r-x} and e^{r-y} depend only on the lattice, so they are taken once,
    on xs and ys, and gathered with the indices of each probe and of the
    band; a probe then evaluates one exp, e^{r-Q}.  numpy's exp works
    element by element, so the gathered values are those an exp of the
    gathered points would give, and so are the seeds.
    """
    cells, rows = xs.shape
    cols = ys.shape[1]
    flat_xs, flat_ys = xs.ravel(), ys.ravel()
    ex, flat_ey = np.exp(r - xs), np.exp(r - ys).ravel()
    base = np.arange(0, cells * cols, cols)[:, None]
    k = np.repeat(base, rows, axis=1)  # flat indices into ys; k - base is the column
    n = cols  # k - base + n stays cols, so every probe k + half lies in the row
    while n > 1:
        half = n // 2
        probe = k + half
        k += half * ~np.signbit(_first_residual(xs, flat_ys[probe], ex, flat_ey[probe], r, h0, h1))
        n -= half
    k += ~np.signbit(_first_residual(xs, flat_ys[k], ex, flat_ey[k], r, h0, h1))
    k -= base
    lo = np.maximum(np.minimum(k[:, :-1], k[:, 1:]) - 1, 0).ravel()
    counts = np.maximum(np.minimum(np.maximum(k[:, :-1], k[:, 1:]), cols - 1).ravel() - lo, 0)
    # the band of each pair of rows, by its corners: count + 1 columns from lo
    pairs = np.flatnonzero(counts)
    nodes = counts[pairs] + 1
    ends = np.cumsum(nodes)
    S = np.repeat(pairs, nodes)  # the pair of each corner column, flat over (cell, i)
    J = np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - nodes - lo[pairs], nodes)
    C, I = np.divmod(S, rows - 1)
    xi = np.stack((S + C, S + C + 1))  # flat indices of rows i and i + 1 of the cell's xs
    yj = C * cols + J
    r, h0, h1 = (np.ravel(v)[C] if np.size(v) > 1 else v for v in (r, h0, h1))
    s2 = np.signbit(_first_residual(flat_ys[yj], flat_xs[xi], flat_ey[yj], ex.ravel()[xi], r, h1, h0))
    # a lattice cell starts at each corner column but the last of its band
    c00 = s2[0, :-1]
    mixed = (s2[0, 1:] != c00) | (s2[1, :-1] != c00) | (s2[1, 1:] != c00)
    mixed[ends[:-1] - 1] = False
    keep = np.flatnonzero(mixed)
    return np.column_stack((C[keep], I[keep], J[keep]))


def _artificial_system(x: float, y: float, r: float, h0: float, h1: float):
    """The residuals R1 and R2 of `_first_residual` at one point, with their
    Jacobian in (x, y)."""
    a1 = math.exp(r - y)
    a2 = math.exp(r - x)
    P = x * a1 + h0
    Q = y * a2 + h1
    b1 = math.exp(r - Q)
    b2 = math.exp(r - P)
    return (
        P * b1 - x + h1,
        Q * b2 - y + h0,
        a1 * b1 + P * b1 * y * a2 - 1.0,
        -x * a1 * b1 - P * b1 * a2,
        -y * a2 * b2 - Q * b2 * a1,
        a2 * b2 + Q * b2 * x * a1 - 1.0,
    )


def _newton_polish_artificial(x: float, y: float, r: float, h0: float, h1: float):
    """The polished root near (x, y), or None when its residual sum exceeds 1e-11."""
    system = lambda x, y: _artificial_system(x, y, r, h0, h1)
    x, y = newton_2d(system, x, y)
    r1, r2 = system(x, y)[:2]
    if abs(r1) + abs(r2) > 1e-11:
        return None
    return x, y


def _artificial_roots(seeds, r: float, h0: float, h1: float, x_max: float, y_max: float):
    """The admissible roots Newton polishes from `seeds`, one at a time, in
    seed order: above (h1, h0), within 1.01 times (x_max, y_max), and at
    least 1e-6 from every earlier root, those near the 2-cycle included."""
    roots: list[tuple[float, float]] = []
    for sx, sy in seeds:
        sol = _newton_polish_artificial(sx, sy, r, h0, h1)
        if sol is None:
            continue
        x, y = sol
        if not (x > h1 and y > h0 and x <= 1.01 * x_max and y <= 1.01 * y_max):
            continue
        if any(abs(x - a) < 1e-6 and abs(y - b) < 1e-6 for a, b in roots):
            continue
        roots.append((x, y))
        yield x, y


def _artificial_quads(params: ModelParams, cycle: TwoCycleReport, roots):
    """The artificial cycles among `roots`, one at a time, in their order:
    the roots away from the 2-cycle whose quadruple the folded map fixes.
    The folded map is built at the first root it has to check."""
    scale = 1.0 + abs(cycle.z0) + abs(cycle.z1)
    g10 = None
    for x, y in roots:
        if abs(x - cycle.z0) + abs(y - cycle.z1) < 1e-5 * scale:
            continue
        if g10 is None:
            f0, f1 = planar_maps(params)
            g10 = build_folded_embedding(f0, f1)
        q = QuadPoint(x, y, f1(y, x), f0(x, y))
        if max(abs(a - b) for a, b in zip(g10(q), q)) > 1e-9:
            continue
        yield q


def _scan_seeds(schedules: list[ModelParams], grid: int) -> list[tuple[Iterator, float, float]]:
    """For each 2-periodic schedule, its Newton seeds as (x, y) pairs, with
    its trapping bounds x_max and y_max, from one seed search for all of them
    (see `_seed_cells`).

    The search holds a few arrays of cells x grid elements, so a caller with
    many cells hands them over in chunks (see `_sweep_tags`).
    """
    if not schedules:
        return []
    points = [_require_two_periodic(params) for params in schedules]
    bounds = [_orbit_bounds(*point) for point in points]
    r, h0, h1 = (np.array(v)[:, None] for v in zip(*points))
    x_max, y_max = (np.array(v)[:, None] for v in zip(*bounds))
    xs = h1 + _geomspace(1e-9, x_max - h1, grid)
    ys = h0 + _geomspace(1e-9, y_max - h0, grid)
    seeds = _seed_cells(xs, ys, r, h0, h1)
    owner = seeds[:, 0]
    sx, sy = xs[owner, seeds[:, 1]].tolist(), ys[owner, seeds[:, 2]].tolist()
    ends = np.cumsum(np.bincount(owner, minlength=len(schedules))).tolist()
    return [
        (zip(sx[start:end], sy[start:end]), xm, ym)
        for start, end, (xm, ym) in zip([0, *ends], ends, bounds)
    ]


def find_artificial_cycles(
    params: ModelParams, grid: int = 1024, *, cycle: TwoCycleReport | None = None
) -> ArtificialCycleSet:
    """Enumerate fixed points of the folded embedded map beyond the 2-cycle.

    Scans the trapping rectangle (h1, x_max] x (h0, y_max] on a geometric
    grid x grid lattice, seeds Newton wherever both residual surfaces R1 and
    R2 (see `_first_residual`) change sign across a cell, deduplicates at 1e-6,
    and drops roots within 1e-5 (1 + z0 + z1) of the 2-cycle.  The 2-cycle
    is a root of both surfaces, but it is not a Newton seed: its root would
    come last and fall to that filter.  An empty set is a valid outcome and
    is what global-stability certification requires.  `cycle` is the solved
    2-cycle of params, for a caller that already has it; it is solved here
    otherwise, with the same result.

    The seeds are the cells of the full lattice, found without filling it.
    At fixed x, R1 = P e^{r-Q} - x + h1 falls strictly in y, because
    P = x e^{r-y} + h0 falls and Q = y e^{r-x} + h1 rises; so R1 changes sign
    at most once along each row, a search finds that column, and R2 is
    evaluated only in the band of cells where R1 changes sign (see
    `_seed_cells`): O(grid log grid) time and O(grid) memory.  This is the
    one-cell case of the scan a periodic sweep runs on a chunk of c cells at
    once, with the same result per cell: O(c grid log grid) time in one set
    of about 20 log2(grid) numpy calls, and O(c grid) memory.  In floats the
    monotonicity is observed, not proven: where rounding makes R1 tie or
    wobble about zero within a row, a seed can move to a neighbouring cell
    along the same crossing.
    """
    _require_two_periodic(params)
    if grid < 2:
        raise ValueError(f"the artificial-cycle scan needs grid >= 2, got {grid}")
    if cycle is None:
        cycle = solve_two_cycle(params)
    [(seeds, x_max, y_max)] = _scan_seeds([params], grid)
    roots = sorted(_artificial_roots(seeds, params.r, *params.stocking, x_max, y_max))
    quads = tuple(_artificial_quads(params, cycle, roots))
    return ArtificialCycleSet(cycles=quads, count=len(quads), grid=grid)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


_PROV_GS2 = "min(h0,h1) >= r and the folded embedded map has a unique fixed point: 2-cycle attracts globally"
_PROV_BOX2 = "artificial cycles present: even/odd tails bounded by their coordinates"
_PROV_NA2 = "min(h0,h1) < r: no compatible box, embedding inapplicable"


def _certifiable(params: ModelParams) -> bool:
    """Whether certification runs the artificial-cycle scan: a 2-periodic
    schedule with min(h0, h1) >= r."""
    return params.p == 2 and not min(params.stocking) < params.r


def _witness_box(params: ModelParams, report: TwoCycleReport) -> BoxRegion | None:
    """The witness box around the 2-cycle `report` of a certifiable params,
    or None where min(h0, h1) = r to float resolution (see `compatible_box`).

    Certification builds it before any scan, because past it nothing
    raises, given that `report` is the solved 2-cycle of params and the
    scan's grid is at least 2:
    - The seed search takes the trapping bounds the solve already took, and
      the log10 of x_max - h1 and y_max - h0.  In reals each difference is
      at least e^{2r} > 1, so in floats it is positive unless h1 (or h0) is
      at least 2^53.  There z0 > h1 in floats puts z0 at least 2 above h1,
      e^{r-z0} underflows to 0 (r is below 355, or the bounds would have
      overflowed), and the first cycle residual
      z1 e^{r-z0} + h1 - z0 could not have passed the solve's check;
      likewise for h0 with z1.
    - With min(h0, h1) >= r every lattice point has x >= h1 >= r and
      y >= h0 >= r, and so does every admitted root, with x > h1 and y > h0.
      Then P = x e^{r-y} + h0 >= r and Q = y e^{r-x} + h1 >= r, and the
      fixed-point check's coordinates and images are each at least r.  So
      each e^{r-.} that the seed search, the polish and the fixed-point
      check evaluate is at most 1, and each value stays finite.
    - `newton_2d` catches the overflow of its trial steps, and the polish
      re-evaluates only the point it accepted.
    """
    return compatible_box(params, min(report.z0, report.z1), max(report.z0, report.z1))


def _periodic_verdict(
    report: TwoCycleReport, box: BoxRegion | None, art: ArtificialCycleSet | None, grid: int
) -> ClassificationVerdict:
    """The verdict from the 2-cycle, its witness `box` and `art`, the
    artificial-cycle scan's result, or None for a cell that is not
    certifiable."""
    if art is None:
        return ClassificationVerdict(
            tag=VerdictTag.NOT_APPLICABLE,
            provenance=_PROV_NA2,
            note="certification unavailable; Jury verdict of the 2-cycle attached",
            local=report.local_verdict,
        )
    witness = None if box is None else (box.a, box.b)
    scan_note = f"uniqueness established at scan resolution {grid}x{grid}"
    if box is None:
        scan_note += "; min(h0,h1) = r to float resolution, witness box unavailable"

    if art.count == 0:
        return ClassificationVerdict(
            tag=VerdictTag.GLOBALLY_STABLE,
            provenance=_PROV_GS2,
            note=scan_note,
            witness=witness,
            local=report.local_verdict,
        )
    even_lo = min(min(q.x, q.u) for q in art.cycles)
    even_hi = max(max(q.x, q.u) for q in art.cycles)
    odd_lo = min(min(q.v, q.y) for q in art.cycles)
    odd_hi = max(max(q.v, q.y) for q in art.cycles)
    return ClassificationVerdict(
        tag=VerdictTag.ABSORBING_BOX,
        provenance=_PROV_BOX2,
        note=scan_note,
        witness=witness,
        even_range=(even_lo, even_hi),
        odd_range=(odd_lo, odd_hi),
        local=report.local_verdict,
    )


def certify_periodic(
    params: ModelParams, grid: int = 1024, *, cycle: TwoCycleReport | None = None
) -> ClassificationVerdict:
    """Classify the long-run behavior under 2-periodic stocking.

    GloballyStable(2-cycle) when min(h0, h1) >= r and the artificial-cycle
    scan finds nothing; AbsorbingBox with even-term range [min(x,u),
    max(x,u)] and odd-term range [min(v,y), max(v,y)] when artificial
    cycles exist; NotApplicable when min(h0, h1) < r.  The Jury verdict of
    the 2-cycle is carried alongside either way.  The witness box is built
    before the scan (see `_witness_box`).  `cycle` is the solved 2-cycle of
    params, for a caller that already has it; it is solved here otherwise,
    with the same verdict.
    """
    report = solve_two_cycle(params) if cycle is None else cycle
    _require_two_periodic(params)
    if not _certifiable(params):
        return _periodic_verdict(report, None, None, grid)
    box = _witness_box(params, report)
    return _periodic_verdict(report, box, find_artificial_cycles(params, grid, cycle=report), grid)


# cells x grid elements of one batched artificial-cycle scan: 16 cells at
# grid 128, 2 at grid 1024.  The band-corner arrays of `_seed_cells` dominate
# its memory; past a few thousand elements a larger batch saves little numpy
# call overhead and only raises the peak.
_SCAN_ELEMENTS = 2048


def _sweep_tags(cells: Iterable[tuple], grid: int) -> Iterator[tuple[ModelParams, object, VerdictTag]]:
    """(params, report, tag) for each (params, report) pair of `cells`, in
    order, the tag being that of `certify_periodic(params, grid,
    cycle=report)`.  A cell that is not certifiable, such as a constant one
    with its equilibrium report, passes through as NotApplicable.

    Cells are taken one at a time, and each certifiable one builds its
    witness box as it is taken, so a failure, in taking a cell or in its
    box, comes in cell order.  Every max(1, 2048 // grid) cells taken share
    one seed search, whose memory is bounded by that chunk however many
    cells follow.  Past the box nothing raises (see `_witness_box`), so the
    chunk's tags follow in order.

    A sweep row prints only the tag, so each certifiable cell's scan stops at
    its first artificial cycle, and the verdict is taken from a set holding
    that cycle or none.  The roots come in seed order rather than sorted, but
    they are the same roots, each deduplicated against the same earlier ones,
    so the set is empty exactly when `find_artificial_cycles` finds nothing,
    and `_periodic_verdict` gives the same tag.
    """
    cells = iter(cells)
    chunk = max(1, _SCAN_ELEMENTS // grid)
    while True:
        batch = []  # (params, report, certifiable, box)
        for params, report in itertools.islice(cells, chunk):
            certifiable = _certifiable(params)
            batch.append((params, report, certifiable, _witness_box(params, report) if certifiable else None))
        if not batch:
            return
        scans = iter(_scan_seeds([params for params, _, certifiable, _ in batch if certifiable], grid))
        for params, report, certifiable, box in batch:
            art = None
            if certifiable:
                seeds, x_max, y_max = next(scans)
                roots = _artificial_roots(seeds, params.r, *params.stocking, x_max, y_max)
                first = tuple(itertools.islice(_artificial_quads(params, report, roots), 1))
                art = ArtificialCycleSet(cycles=first, count=len(first), grid=grid)
            yield params, report, _periodic_verdict(report, box, art, grid).tag
