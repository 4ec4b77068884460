"""Two-periodic stocking analysis: the alternating 2-cycle, its composed
Jacobian, artificial cycles of the folded embedded map, and certification.

With schedule (h0, h1) the even-indexed terms of an orbit settle (when stable)
on z0 and the odd-indexed terms on z1, where

    z0 = z1 f(z0) + h1      and      z1 = z0 f(z1) + h0.

The composed two-step Jacobian has Det = (z1 - h0)(z0 - h1) and
Tr = (h1 - z0) + (h0 - z1) + (1 - h0/z1)(1 - h1/z0), so Jury's test decides
local stability.  Global stability is certified by embedding: if both
stocking values exceed r and the folded embedded map has no fixed points
besides the one seeded by the 2-cycle, the 2-cycle attracts globally;
otherwise the extra (artificial) fixed points bound the even and odd tails.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import bisect, newton_2d
from .embedding import _compatibility_curves, build_folded_embedding, compatible_box
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


def _cycle_system(z0: float, z1: float, r: float, h0: float, h1: float):
    """The 2-cycle residuals and their Jacobian in (z0, z1)."""
    f0 = math.exp(r - z0)
    f1 = math.exp(r - z1)
    return z1 * f0 + h1 - z0, z0 * f1 + h0 - z1, -z1 * f0 - 1.0, f0, f1, -z0 * f1 - 1.0


def _cycle_residuals(z0: float, z1: float, r: float, h0: float, h1: float) -> tuple[float, float]:
    return _cycle_system(z0, z1, r, h0, h1)[:2]


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
    the offset z0 - h1 = z1 e^{r-z0} is below 1.  One bisection of F on
    [nextafter(h1), hi] therefore finds the 2-cycle, and a damped Newton
    polish of the 2D residuals refines it.

    Where h1 is far above r, z0 - h1 can lie below the float resolution of
    h1; F is then already positive at the lower end, and the solve raises
    NonConvergence, as it does for a polished pair that fails the residual
    check or is not above (h1, h0) in floats.
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
    z0 = bisect(lambda t: residual(t) < 0.0, lo, hi)
    z0, z1 = newton_2d(lambda z0, z1: _cycle_system(z0, z1, r, h0, h1), z0, _reduced_z1(z0, r, h1))
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
    det = (z1 - h0) * (z0 - h1)
    trace = (h1 - z0) + (h0 - z1) + (1.0 - h0 / z1) * (1.0 - h1 / z0)
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


def feasibility_curves(t: float, params: ModelParams) -> tuple[float, float]:
    """The two decreasing curves bounding compatible boxes, evaluated at t > r.

    First value: h0 / (1 - f(t)), the height making the one-step condition an
    equality.  Second: (h0 f(t) + h1) / (1 - f(t)^2) for the two-step
    condition.  Both have a pole at t = r and decay to h0 and h1.  They are
    the curves `embedding.compatible_box` places its witness box by.
    """
    r, h0, h1 = _require_two_periodic(params)
    if t <= r:
        raise ValueError(f"feasibility curves are defined for t > r, got t={t}, r={r}")
    return _compatibility_curves(t, r, h0, h1)


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
    x_max: float
    y_max: float


def _first_residual(X, Y, r: float, h0: float, h1: float):
    """The residual R1 = P e^{r-Q} - X + h1, with P = X e^{r-Y} + h0 and
    Q = Y e^{r-X} + h1, on X and Y broadcast together.

    Built in place, in the order the formula reads, so the values are those
    of the plain expression.  With the roles swapped it is the second
    residual, bit for bit: `_first_residual(Y, X, r, h1, h0)` is
    R2 = Q e^{r-P} - Y + h0, since the swap exchanges P and Q.
    """
    P = X * np.exp(r - Y)
    P += h0
    Q = Y * np.exp(r - X)
    Q += h1
    R1 = np.subtract(r, Q)
    np.exp(R1, out=R1)
    R1 *= P
    R1 -= X
    R1 += h1
    return R1


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
    """
    cells, rows = xs.shape
    cols = ys.shape[1]
    flat_xs, flat_ys = xs.ravel(), ys.ravel()
    base = np.arange(0, cells * cols, cols)[:, None]
    k = np.repeat(base, rows, axis=1)  # flat indices into ys; k - base is the column
    n = cols  # k - base + n stays cols, so every probe k + half lies in the row
    while n > 1:
        half = n // 2
        k += half * ~np.signbit(_first_residual(xs, flat_ys[k + half], r, h0, h1))
        n -= half
    k += ~np.signbit(_first_residual(xs, flat_ys[k], r, h0, h1))
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
    X = flat_xs[np.stack((S + C, S + C + 1))]  # rows i and i + 1 of the cell's xs
    r, h0, h1 = (np.ravel(v)[C] if np.size(v) > 1 else v for v in (r, h0, h1))
    s2 = np.signbit(_first_residual(flat_ys[C * cols + J], X, r, h1, h0))
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


def _artificial_cycle_set(
    params: ModelParams, cycle: TwoCycleReport, seeds, x_max: float, y_max: float, grid: int
) -> ArtificialCycleSet:
    """Newton-polish one cell's seeds, deduplicate the admissible roots at
    1e-6 and keep those away from the 2-cycle whose quadruple the folded
    map fixes."""
    r, (h0, h1) = params.r, params.stocking
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

    scale = 1.0 + abs(cycle.z0) + abs(cycle.z1)
    roots = [
        (x, y) for x, y in sorted(roots) if not abs(x - cycle.z0) + abs(y - cycle.z1) < 1e-5 * scale
    ]
    quads: list[QuadPoint] = []
    if roots:
        f0, f1 = planar_maps(params)
        g10 = build_folded_embedding(f0, f1)
        for x, y in roots:
            q = QuadPoint(x, y, f1(y, x), f0(x, y))
            resid = max(abs(a - b) for a, b in zip(g10(q), q))
            if resid > 1e-9:
                continue
            quads.append(q)
    return ArtificialCycleSet(
        cycles=tuple(quads), count=len(quads), grid=grid, x_max=x_max, y_max=y_max
    )


def _artificial_cycle_sets(
    cells: list[tuple[ModelParams, TwoCycleReport]], grid: int
) -> list[ArtificialCycleSet]:
    """`find_artificial_cycles(params, grid, cycle=cycle)` for each (params,
    cycle) pair, with one seed search for all of them (see `_seed_cells`).

    The search holds a few arrays of cells x grid elements, so a caller with
    many cells hands them over in chunks of `_scan_chunk(grid)`.
    """
    if not cells:
        return []
    points = [_require_two_periodic(params) for params, _ in cells]
    bounds = [_orbit_bounds(*point) for point in points]
    r, h0, h1 = (np.array(v)[:, None] for v in zip(*points))
    x_max, y_max = (np.array(v)[:, None] for v in zip(*bounds))
    xs = h1 + _geomspace(1e-9, x_max - h1, grid)
    ys = h0 + _geomspace(1e-9, y_max - h0, grid)
    seeds = _seed_cells(xs, ys, r, h0, h1)
    owner = seeds[:, 0]
    sx, sy = xs[owner, seeds[:, 1]].tolist(), ys[owner, seeds[:, 2]].tolist()
    ends = np.cumsum(np.bincount(owner, minlength=len(cells))).tolist()
    sets = []
    start = 0
    for (params, cycle), (xm, ym), end in zip(cells, bounds, ends):
        sets.append(_artificial_cycle_set(params, cycle, zip(sx[start:end], sy[start:end]), xm, ym, grid))
        start = end
    return sets


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
    return _artificial_cycle_sets([(params, cycle)], grid)[0]


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


_PROV_GS2 = "h0,h1 > r and the folded embedded map has a unique fixed point: 2-cycle attracts globally"
_PROV_BOX2 = "artificial cycles present: even/odd tails bounded by their coordinates"
_PROV_NA2 = "min(h0,h1) < r: no compatible box, embedding inapplicable"


def _certifiable(params: ModelParams) -> bool:
    """Whether certification runs the artificial-cycle scan: min(h0, h1) >= r."""
    return not min(params.stocking) < params.r


def _periodic_verdict(
    params: ModelParams, report: TwoCycleReport, art: ArtificialCycleSet | None, grid: int
) -> ClassificationVerdict:
    """The verdict from the 2-cycle and `art`, the artificial-cycle scan's
    result, or None for a cell that is not certifiable."""
    if art is None:
        return ClassificationVerdict(
            tag=VerdictTag.NOT_APPLICABLE,
            provenance=_PROV_NA2,
            note="certification unavailable; Jury verdict of the 2-cycle attached",
            local=report.local_verdict,
        )
    box = compatible_box(params, min(report.z0, report.z1), max(report.z0, report.z1))
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

    GloballyStable(2-cycle) when both stocking values exceed r and the
    artificial-cycle scan finds nothing; AbsorbingBox with even-term range
    [min(x,u), max(x,u)] and odd-term range [min(v,y), max(v,y)] when
    artificial cycles exist; NotApplicable when min(h0, h1) < r.  The Jury
    verdict of the 2-cycle is carried alongside either way.  `cycle` is the
    solved 2-cycle of params, for a caller that already has it; it is solved
    here otherwise, with the same verdict.
    """
    report = solve_two_cycle(params) if cycle is None else cycle
    _require_two_periodic(params)
    art = find_artificial_cycles(params, grid, cycle=report) if _certifiable(params) else None
    return _periodic_verdict(params, report, art, grid)


# cells x grid elements of one batched artificial-cycle scan: 16 cells at
# grid 128, 2 at grid 1024.  The band-corner arrays of `_seed_cells` dominate
# its memory; past a few thousand elements a larger batch saves little numpy
# call overhead and only raises the peak.
_SCAN_ELEMENTS = 2048


def _scan_chunk(grid: int) -> int:
    """How many cells `_certify_cells` should take at once at this grid."""
    return max(1, _SCAN_ELEMENTS // grid)


def _certify_cells(
    cells: list[tuple[ModelParams, TwoCycleReport]], grid: int
) -> list[ClassificationVerdict]:
    """`certify_periodic(params, grid, cycle=cycle)` for each (params, cycle)
    pair, in order, with one artificial-cycle scan for all the certifiable
    ones.  Its memory grows with their number times the grid, so a sweep
    hands it chunks of `_scan_chunk(grid)` cells."""
    arts = iter(_artificial_cycle_sets([cell for cell in cells if _certifiable(cell[0])], grid))
    return [
        _periodic_verdict(params, cycle, next(arts) if _certifiable(params) else None, grid)
        for params, cycle in cells
    ]
