import dataclasses
import math
import tracemalloc
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ricker_lab import (
    LocalVerdict,
    ModelParams,
    VerdictTag,
    certify_periodic,
    corollary_shortcuts,
    find_artificial_cycles,
    solve_two_cycle,
)
from ricker_lab import periodic
from ricker_lab._roots import bisect, newton_2d
from ricker_lab.embedding import _compatibility_curves, build_folded_embedding
from ricker_lab.errors import (
    ContradictionDetected,
    NonConvergence,
    PreconditionViolated,
    RickerLabError,
    WitnessConstructionFailed,
)
from ricker_lab.model import QuadPoint, planar_maps
from ricker_lab.periodic import (
    RULE_CYCLE_LAS,
    RULE_CYCLE_UNSTABLE,
    RULE_DET_BELOW_ONE,
    _cycle_residuals,
    _first_residual,
    _geomspace,
    _orbit_bounds,
    _reduced_residual,
    _reduced_z1,
    _seed_cells,
)

from _oracles import mp_two_cycle, mp_two_cycle_near, mp_two_cycle_offsets, orbit_batch

# frozen 40-digit oracle values (z0 = limit of even terms, z1 = odd terms)
CYCLES = {
    (1.0, 2.0, 1.5): (2.2301537363441861, 2.4984075953397381),
    (2.0, 2.156, 2.720): (3.4617233707454497, 3.1993397158265517),
    (3.0, 2.0, 6.444): (6.5612142330242758, 4.1266348395007535),
    (1.0, 2.0, 1.0): (1.9497266070049478, 2.4550459773112217),
    (1.5, 0.820, 1.800): (2.5515228100689818, 2.1508628614591809),
}
ART_121 = (1.1087550341333, 3.3062780550092, 3.9655664742232, 2.1104667995193)


def params_of(key):
    r, h0, h1 = key
    return ModelParams(r=r, stocking=(h0, h1))


def test_two_cycle_frozen_values():
    for key, (z0, z1) in CYCLES.items():
        rep = solve_two_cycle(params_of(key))
        assert rep.z0 == pytest.approx(z0, abs=1e-9)
        assert rep.z1 == pytest.approx(z1, abs=1e-9)
        assert max(rep.residuals) < 1e-10
        r, h0, h1 = key
        assert rep.z0 > h1 and rep.z1 > h0


def test_two_cycle_against_live_oracle():
    z0, z1 = mp_two_cycle(1.0, 2.0, 1.5, 1.6, 3.5)
    rep = solve_two_cycle(params_of((1.0, 2.0, 1.5)))
    assert rep.z0 == pytest.approx(float(z0), abs=1e-12)
    assert rep.z1 == pytest.approx(float(z1), abs=1e-12)


def test_two_cycle_reports_match_reference_stable_cases():
    rep = solve_two_cycle(params_of((1.0, 2.0, 1.5)))
    assert (rep.z0, rep.z1) == pytest.approx((2.230, 2.498), abs=1e-3)
    assert rep.trace == pytest.approx(-1.163, abs=2e-3)
    assert rep.det == pytest.approx(0.364, abs=2e-3)
    lam = rep.eigenvalues[0]
    assert lam.real == pytest.approx(-0.582, abs=2e-3)
    assert abs(lam.imag) == pytest.approx(0.161, abs=2e-3)
    assert rep.local_verdict is LocalVerdict.LAS

    rep2 = solve_two_cycle(params_of((2.0, 2.156, 2.720)))
    assert rep2.det == pytest.approx(0.774, abs=2e-3)
    assert rep2.trace == pytest.approx(-1.715, abs=2e-3)
    assert rep2.local_verdict is LocalVerdict.LAS

    rep3 = solve_two_cycle(params_of((1.5, 0.820, 1.800)))
    assert (rep3.z0, rep3.z1) == pytest.approx((2.552, 2.151), abs=2e-3)
    assert rep3.det > 1.0  # just past the stability boundary
    assert rep3.local_verdict is LocalVerdict.UNSTABLE


def test_two_cycle_unstable_case():
    # period-doubled regime: the 2-cycle repels, and the solve still finds it
    rep = solve_two_cycle(params_of((3.0, 2.0, 6.444)))
    assert rep.local_verdict is LocalVerdict.UNSTABLE
    assert rep.det < 1.0  # determinant alone does not decide stability here
    lam = sorted(rep.eigenvalues, key=abs)
    assert lam[0].imag == 0.0
    assert abs(lam[1]) > 2.0


# r and both stocking values small, where the 2-cycle sits next to the
# diagonal and its solve is tens of ulps off at some points; these are the
# points of a log-uniform audit whose roots the bisection moved and left
# within 2 ulps of the 40-digit root
SMALL_R_POINTS = [
    (0.010281805072557703, 0.00017487520095740716, 0.0003785607838377908),
    (0.012049928309048137, 0.026246596385902675, 0.000277833970143178),
    (0.012419516610850157, 0.0061137832152539946, 2.388559822499091e-06),
    (0.013792884459271343, 0.004146577763875342, 0.05229374399616955),
    (0.014219187805620346, 0.2100292038368713, 2.0772486034280345e-05),
    (0.024663732044393177, 0.03962548368514531, 0.010051639110173862),
    (0.025321480502586355, 0.0006375709928293646, 0.0011185872327814663),
    (0.029013768917978095, 0.026615606178363994, 0.00022654137178900954),
    (0.03215253439373621, 0.00041251496792082054, 3.400431845034695e-05),
    (0.032297047256666114, 0.01606586694386708, 1.587379535097316e-06),
    (0.0353529408175843, 0.008203157068380469, 2.5615054696895655e-06),
    (0.03819295224947057, 1.73410270353321e-05, 1.1605874762265416e-05),
    (0.04137128287035782, 0.0002501882691996706, 3.679716688539752e-05),
    (0.0415281007686668, 3.985771182449621e-05, 0.010420391660290308),
    (0.048708048820256734, 0.00010456140719088963, 1.1407121375709972e-06),
    (0.06716999365470826, 0.05653626731594396, 0.004566254458446156),
    (0.07512407457397681, 1.6443405619351616e-06, 0.0004520135623248901),
    (0.08715447779011203, 0.010150227110418072, 1.975036297607936e-06),
    (0.08735477182005746, 0.030271116304785354, 0.005800195381711004),
    (0.10484053662530943, 0.0006070792459110699, 4.345615494229908e-05),
    (0.10515937311583777, 2.0995731183402766e-05, 8.231802828444662e-05),
    (0.10772941277494835, 0.008347457413303748, 1.5510746447575892e-05),
    (0.11954075479364099, 0.00014656158263237886, 2.8020578387491902e-05),
    (0.11971828552844732, 1.4913105816461058e-05, 9.43656681694371e-05),
    (0.12286156674935332, 0.00013876037414347164, 1.091845070579853e-05),
    (0.13405535124898482, 0.003270570469250472, 0.000873102402735492),
    (0.14887532798308764, 0.00013852362001086526, 0.007985945262178067),
    (0.18845809757626814, 4.327198893563983e-06, 5.61581665983832e-05),
    (0.2038130180307211, 0.00042571481253139026, 7.714444558851177e-06),
    (0.21216513755654776, 0.005826751397168007, 5.216284466860571e-05),
    (0.28637090868535653, 9.052287683305635e-06, 0.00016940547437039645),
]


def test_two_cycle_within_two_ulps_of_mpmath():
    # the README plane at 10x10 plus seeded random points; the bisection and
    # the Newton polish leave the last bits, which no golden file pins
    axis = np.linspace(0.3, 3.0, 10)
    points = [(1.0, float(a), float(b)) for a in axis for b in axis if a != b]
    rng = np.random.default_rng(2061)
    points += [
        (float(r), float(h0), float(h1))
        for r, h0, h1 in zip(rng.uniform(0.3, 4.5, 150), rng.uniform(0.0, 9.0, 150),
                             rng.uniform(0.0, 9.0, 150))
    ]
    # h1 far above r: z0 - h1 = z1 e^{r - z0} is 2.3e-12 or 2.5e-13, only 645
    # or 69 ulps of h1
    points += [(1.0, 9.0, 30.0), (1.0, 30.0, 9.0), (0.5, 8.7, 31.7)]
    points += SMALL_R_POINTS
    verdicts = set()
    for r, h0, h1 in points:
        rep = solve_two_cycle(ModelParams(r=r, stocking=(h0, h1)))
        verdicts.add(rep.local_verdict)
        z0, z1 = mp_two_cycle_near(r, h0, h1, rep.z0)
        for got, want in ((rep.z0, z0), (rep.z1, z1)):
            ulps = float(abs(mp.mpf(got) - want)) / math.ulp(float(want))
            assert ulps <= 2.0, ((r, h0, h1), got, want)
    assert verdicts == {LocalVerdict.LAS, LocalVerdict.UNSTABLE}


def _reduced_residual_grid(z0, r, h0, h1, y_max):
    # `_reduced_residual` at every point of z0, as one array expression
    s = np.log(z0 - h1) + z0 - r
    z1 = np.exp(np.where(s < 690.0, s, np.inf))
    inside = np.isfinite(z1) & (z1 <= 10.0 * y_max)
    return np.where(inside, z1 - h0 - z0 * np.exp(r - z1), 1e18)


def _cycle_system(z0, z1, r, h0, h1):
    # the 2-cycle residuals and their Jacobian in (z0, z1), for the reference
    # polish
    f0, f1 = math.exp(r - z0), math.exp(r - z1)
    return z1 * f0 + h1 - z0, z0 * f1 + h0 - z1, -z1 * f0 - 1.0, f0, f1, -z0 * f1 - 1.0


def _dense_cycle_roots(r, h0, h1, n_grid=4096):
    # the reference: the reduced residual's signs on a 4096-point geometric
    # grid, every sign change bisected and Newton-polished, roots deduplicated
    # at 1e-6; returns the admissible roots and the number of sign changes
    x_max, y_max = _orbit_bounds(r, h0, h1)
    hi_cap = min(x_max, max(h1 + 2.0, r + math.log(y_max + 1.0) + 2.0))
    offsets = _geomspace(1e-9, hi_cap - h1, n_grid)
    grid = h1 + np.concatenate(([min(math.ulp(h1), 1e-9)], offsets))
    sign = np.sign(_reduced_residual_grid(grid, r, h0, h1, y_max))
    changes = np.where(np.diff(sign) != 0)[0]
    system = lambda z0, z1: _cycle_system(z0, z1, r, h0, h1)
    roots = []
    for i in changes:
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo = _reduced_residual(lo, r, h0, h1, y_max)
        z0 = bisect(lambda t: flo * _reduced_residual(t, r, h0, h1, y_max) > 0.0, lo, hi)
        z0, z1 = newton_2d(system, z0, _reduced_z1(z0, r, h1))
        q1, q2 = _cycle_residuals(z0, z1, r, h0, h1)
        if max(abs(q1), abs(q2)) < 1e-10 and z0 > h1 and z1 > h0:
            if not any(abs(z0 - a) < 1e-6 and abs(z1 - b) < 1e-6 for a, b in roots):
                roots.append((z0, z1))
    return sorted(roots), len(changes)


def _solved_or_none(r, h0, h1):
    try:
        rep = solve_two_cycle(ModelParams(r=r, stocking=(h0, h1)))
    except NonConvergence:
        return None
    return rep.z0, rep.z1


def _ulps_off(got, want):
    return float(abs(mp.mpf(got) - want)) / math.ulp(float(want))


def _agrees_with_the_reference(r, h0, h1, solved, expected):
    # each coordinate within 2 ulps of the reference's root, or else of the
    # 40-digit root
    if expected is not None and all(abs(g - e) <= 2 * math.ulp(e) for g, e in zip(solved, expected)):
        return True
    return all(_ulps_off(g, w) <= 2.0 for g, w in zip(solved, mp_two_cycle_offsets(r, h0, h1, *solved)))


@settings(max_examples=300, deadline=None, database=None)
@given(point=st.tuples(st.floats(0.3, 4.5), st.floats(0.0, 9.0), st.floats(0.0, 9.0))
       | st.tuples(st.floats(0.3, 30.0), st.floats(0.0, 60.0), st.floats(0.0, 60.0)))
@example(point=(3.799153988382861, 0.6099207778882526, 1.3268276058619164e-06))
@example(point=(0.3, 0.01421444972852082, 0.0))
@example(point=(14.5, 0.0, 48.25))
@example(point=(14.0, 46.0, 50.0))
def test_two_cycle_matches_the_dense_scan(point):
    # the proof leaves one sign change for the scan to find; the offset solve
    # succeeds wherever the scan's bisection and polish do, on the same root
    # to within 2 ulps, and where it alone succeeds, as where the polish
    # rounds z1 - h0 away (at r = 14, h = (46, 50)), its pair lies within
    # 2 ulps of the 40-digit root
    r, h0, h1 = point
    assume(h0 != h1)
    roots, changes = _dense_cycle_roots(r, h0, h1)
    assert changes <= 1 and len(roots) <= 1
    # the ordering law rejects a root of either solve alike, beyond the
    # pair's float resolution
    if roots:
        z0, z1 = roots[0]
        if (h0 - h1) * (z1 - z0) < 0.0 and abs(z1 - z0) > math.ulp(max(z0, z1)):
            roots = []
    expected = roots[0] if roots else None
    solved = _solved_or_none(r, h0, h1)
    assert solved is not None or expected is None
    if solved is not None:
        assert _agrees_with_the_reference(r, h0, h1, solved, expected), (solved, expected)


def test_two_cycle_matches_the_dense_scan_on_the_readme_plane():
    axis = np.linspace(0.3, 3.0, 40)
    plane = [(1.0, float(a), float(b)) for a in axis for b in axis if a != b]
    assert len(plane) == 1560
    for r, h0, h1 in plane:
        roots, changes = _dense_cycle_roots(r, h0, h1)
        assert changes == 1 and len(roots) == 1
        solved = _solved_or_none(r, h0, h1)
        assert solved is not None and _agrees_with_the_reference(r, h0, h1, solved, roots[0]), (h0, h1)


def _full_bisection_two_cycle(r, h0, h1):
    # the reference: one bisection of the reduced residual down to adjacent
    # floats on the solve's proven bracket, and a polish of the (z0, z1)
    # residuals; (z0, z1), or None where a check fails
    x_max, y_max = _orbit_bounds(r, h0, h1)
    residual = lambda z0: _reduced_residual(z0, r, h0, h1, y_max)
    lo = math.nextafter(h1, math.inf)
    hi = min(x_max, max(h1 + 2.0, r + math.log(y_max + 1.0) + 2.0))
    if not (residual(lo) < 0.0 and residual(hi) > 0.0):
        return None
    z0 = bisect(lambda t: residual(t) < 0.0, lo, hi)
    z0, z1 = newton_2d(lambda z0, z1: _cycle_system(z0, z1, r, h0, h1), z0, _reduced_z1(z0, r, h1))
    q1, q2 = _cycle_residuals(z0, z1, r, h0, h1)
    if not (max(abs(q1), abs(q2)) < 1e-10 and z0 > h1 and z1 > h0):
        return None
    if (h0 - h1) * (z1 - z0) < 0.0 and abs(z1 - z0) > math.ulp(max(z0, z1)):
        return None
    return z0, z1


def _readme_plane():
    axis = np.linspace(0.3, 3.0, 40).tolist()
    return [(1.0, a, b) for a in axis for b in axis if a != b]


def _log_uniform_points(n, seed):
    # r log-uniform on [0.005, 50], h0 and h1 log-uniform on [1e-7, 100]
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(math.log(0.005), math.log(50.0), n))
    h = np.exp(rng.uniform(math.log(1e-7), math.log(100.0), (n, 2)))
    return [(float(a), float(b), float(c)) for a, (b, c) in zip(r, h) if b != c]


def _ulps_to_the_root(r, h0, h1, pair):
    return max(_ulps_off(g, w) for g, w in zip(pair, mp_two_cycle_offsets(r, h0, h1, *pair)))


@pytest.mark.parametrize("points", ["readme", "small r", "log-uniform"])
def test_two_cycle_is_no_less_accurate_than_the_full_bisection(points):
    # the offset solve succeeds wherever the full bisection does, and each
    # pair lies within 2 ulps of the bisection's, or no farther from the
    # 40-digit root than the bisection's, beyond 2 ulps; a pair the
    # bisection cannot give lies within 2 ulps of that root
    cases = {"readme": _readme_plane, "small r": lambda: SMALL_R_POINTS,
             "log-uniform": lambda: _log_uniform_points(4000, 19)}[points]()
    outcomes = set()
    for r, h0, h1 in cases:
        solved, full = _solved_or_none(r, h0, h1), _full_bisection_two_cycle(r, h0, h1)
        outcomes.add(solved is not None)
        assert solved is not None or full is None, (r, h0, h1)
        if solved is None or (full is not None and all(abs(s - f) <= 2 * math.ulp(f) for s, f in zip(solved, full))):
            continue
        off = _ulps_to_the_root(r, h0, h1, solved)
        assert off <= (2.0 if full is None else max(2.0, _ulps_to_the_root(r, h0, h1, full))), (r, h0, h1)
    assert outcomes == ({True, False} if points == "log-uniform" else {True})


def _newton_steps(monkeypatch):
    # Newton steps of each solve.  `newton_2d` accepts a trial only where
    # |E1| + |E2| falls below that of its current point, which is the least
    # residual evaluated so far; so each evaluation that sets a new least
    # residual is one of its steps, and the finishing step is one more
    solves = []
    system = periodic._offset_system

    def counting(*args):
        e1, e2, *jacobian = system(*args)
        least = solves[-1]
        if abs(e1) + abs(e2) < least[0]:
            least[0] = abs(e1) + abs(e2)
            least[1] += 1
        return e1, e2, *jacobian

    monkeypatch.setattr(periodic, "_offset_system", counting)

    def steps(r, h0, h1):
        solves.append([math.inf, -1])  # the first evaluation is the start
        solve_two_cycle(ModelParams(r=r, stocking=(h0, h1)))
        return solves[-1][1] + 1

    return steps


def test_two_cycle_solve_takes_at_most_6_offset_newton_steps_on_the_readme_plane(monkeypatch):
    steps = _newton_steps(monkeypatch)
    assert max(steps(*point) for point in _readme_plane()) <= 6


def test_two_cycle_solve_at_large_r_takes_fewer_evaluations_than_the_full_bisection(monkeypatch):
    # above r = 10, the 2-cycle's offsets reach e^{2r}; the offset solve,
    # its two end-sign checks and its finishing step included, still
    # evaluates fewer functions than the full bisection of the reduced
    # residual, which takes about 55
    calls = []
    residual, system = periodic._reduced_residual, periodic._offset_system
    counted = lambda *a: calls.append(1) or residual(*a)
    monkeypatch.setattr(periodic, "_reduced_residual", counted)
    monkeypatch.setattr(periodic, "_offset_system", lambda *a: calls.append(1) or system(*a))
    monkeypatch.setitem(globals(), "_reduced_residual", counted)
    pairs = []
    for r, h0, h1 in _log_uniform_points(4000, 19):
        if r <= 10.0:
            continue
        calls.clear()
        if _solved_or_none(r, h0, h1) is None:
            continue
        solved = len(calls)
        calls.clear()
        _full_bisection_two_cycle(r, h0, h1)
        pairs.append((solved, len(calls)))
    assert len(pairs) > 600
    assert all(solved < full for solved, full in pairs)
    assert np.median([solved for solved, _ in pairs]) <= 14


_STOCKING = st.just(0.0) | st.floats(math.log(1e-7), math.log(1e3)).map(math.exp)


@settings(max_examples=400, deadline=None, database=None)
@given(r=st.floats(math.log(1e-3), math.log(354.0)).map(math.exp), h0=_STOCKING, h1=_STOCKING)
def test_two_cycle_solve_returns_a_checked_pair_or_a_typed_error(r, h0, h1):
    # only the solve's own typed errors escape, never a float exception of
    # the offsets' exp, log or division; a returned pair passes the checks
    assume(h0 != h1)
    try:
        rep = solve_two_cycle(ModelParams(r=r, stocking=(h0, h1)))
    except (NonConvergence, PreconditionViolated):
        return
    z0, z1 = rep.z0, rep.z1
    assert max(abs(q) for q in _cycle_residuals(z0, z1, r, h0, h1)) < 1e-10
    assert z0 > h1 and z1 > h0
    assert not ((h0 - h1) * (z1 - z0) < 0.0 and abs(z1 - z0) > math.ulp(max(z0, z1)))


# h = (0, 3.4e-71) and its swap: both true values lie about 3e-71 above 0.5,
# so the correctly rounded pair is (0.5, 0.5), which the law does not order.
# h0 and h1 an ulp apart at 0.22: the true pair is 1.2e-17 apart and agrees
# with the law, and the float pair, each half an ulp off, is an ulp apart in
# the wrong order
MISORDER_POINTS = {
    (0.0, 3.4182591922630875e-71): (0.5, 0.5),
    (3.4182591922630875e-71, 0.0): (0.5, 0.5),
    (0.2206983405753754, 0.22069834057537543): (0.8155504602912972, 0.8155504602912973),
    (0.22069834057537543, 0.2206983405753754): (0.8155504602912973, 0.8155504602912972),
}


@pytest.mark.parametrize("h0, h1", list(MISORDER_POINTS))
def test_ordering_law_allows_a_misorder_within_float_resolution(h0, h1):
    rep = solve_two_cycle(ModelParams(r=0.5, stocking=(h0, h1)))
    assert (rep.z0, rep.z1) == MISORDER_POINTS[h0, h1]
    for got, want in zip((rep.z0, rep.z1), mp_two_cycle_near(0.5, h0, h1, rep.z0)):
        assert _ulps_off(got, want) <= 1.0
    assert max(rep.residuals) < 1e-10
    assert rep.local_verdict is LocalVerdict.LAS


@pytest.mark.parametrize("key", list(CYCLES) + [(0.3, 0.01, 0.02), (4.5, 8.0, 0.5), (1.0, 9.0, 30.0)])
def test_reduced_residual_crosses_upwards_at_the_two_cycle(key):
    # F'(z0) = e^{z0 - r} [(1 + d0)(1 + d1) - d0 d1 / (z0 z1)] at the root,
    # with d0 = z0 - h1 and d1 = z1 - h0, against mpmath's own derivative
    r, h0, h1 = (mp.mpf(v) for v in key)
    rep = solve_two_cycle(params_of(key))
    z1_of = lambda z0: (z0 - h1) * mp.e ** (z0 - r)
    F = lambda z0: z1_of(z0) - h0 - z0 * mp.e ** (r - z1_of(z0))
    z0 = mp.findroot(F, mp.mpf(rep.z0))
    z1 = z1_of(z0)
    d0, d1 = z0 - h1, z1 - h0
    closed = mp.e ** (z0 - r) * ((1 + d0) * (1 + d1) - d0 * d1 / (z0 * z1))
    assert closed > 0 and d0 > 0 and d1 > 0
    assert abs(mp.diff(F, z0) - closed) < mp.mpf("1e-25") * closed


@pytest.mark.parametrize("key", [(3.0, 2.0, 6.444), (1.5, 0.820, 1.800), (4.2, 0.05, 8.7), (2.5, 7.0, 0.0)])
def test_reduced_residual_grid_signs_match_scalar_loop(key):
    # the dense scan's array evaluation may differ from math.exp/log in the
    # last bit, but it must pick the same brackets as the scalar residual
    r, h0, h1 = key
    y_max = _orbit_bounds(r, h0, h1)[1]
    grid = h1 + np.geomspace(1e-9, 60.0, 4096)
    scalar = np.array([_reduced_residual(float(t), r, h0, h1, y_max) for t in grid])
    vector = _reduced_residual_grid(grid, r, h0, h1, y_max)
    assert (scalar == 1e18).any() and (vector == 1e18).any()
    assert np.array_equal(np.sign(vector), np.sign(scalar))
    np.testing.assert_allclose(vector, scalar, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("key", [(1.0, 2.0, 1.0), (1.0, 2.0, 1.5), (0.5, 3.0, 0.6), (3.0, 2.0, 6.444)])
def test_artificial_residuals_match_plain_formula(key):
    # the surfaces are built in place; the values must be those of the
    # plain expressions, bit for bit
    r, h0, h1 = key
    x_max, y_max = _orbit_bounds(r, h0, h1)
    X = (h1 + np.geomspace(1e-9, x_max - h1, 257))[:, None]
    Y = (h0 + np.geomspace(1e-9, y_max - h0, 263))[None, :]
    eX, eY = np.exp(r - X), np.exp(r - Y)
    P = X * np.exp(r - Y) + h0
    Q = Y * np.exp(r - X) + h1
    # the second surface is the first with the roles of (x, h1) and (y, h0) swapped
    assert np.array_equal(_first_residual(X, Y, eX, eY, r, h0, h1), P * np.exp(r - Q) - X + h1)
    assert np.array_equal(_first_residual(Y, X, eY, eX, r, h1, h0), Q * np.exp(r - P) - Y + h0)


@settings(max_examples=300, deadline=None, database=None)
@given(
    lo=st.floats(1e-12, 1e6),
    hi=st.floats(1e-12, 1e6),
    n=st.one_of(st.sampled_from((2, 3, 7, 128, 1000, 1024, 4096)), st.integers(2, 5000)),
)
def test_geomspace_matches_numpy(lo, hi, n):
    assert np.array_equal(_geomspace(lo, hi, n), np.geomspace(lo, hi, n))


def _scan_axes(r, h0, h1, grid):
    x_max, y_max = _orbit_bounds(r, h0, h1)
    return h1 + np.geomspace(1e-9, x_max - h1, grid), h0 + np.geomspace(1e-9, y_max - h0, grid)


def _dense_seed_cells(xs, ys, r, h0, h1):
    # the reference: both surfaces filled on the whole lattice, and every
    # cell whose four corners disagree in sign on each
    X, Y = xs[:, None], ys[None, :]
    P = X * np.exp(r - Y) + h0
    Q = Y * np.exp(r - X) + h1
    R1, R2 = P * np.exp(r - Q) - X + h1, Q * np.exp(r - P) - Y + h0

    def mixed(s):
        c = s[:-1, :-1]
        return (s[1:, :-1] != c) | (s[:-1, 1:] != c) | (s[1:, 1:] != c)

    return np.argwhere(mixed(np.signbit(R1)) & mixed(np.signbit(R2)))


_UNIFORM_POINTS = st.tuples(st.floats(0.05, 6.0), st.floats(0.0, 9.0), st.floats(0.0, 9.0))
_LOG_POINTS = st.tuples(
    st.floats(math.log(0.02), math.log(20.0)),
    st.floats(math.log(5e-5), math.log(55.0)),
    st.floats(math.log(5e-5), math.log(55.0)),
).map(lambda logs: tuple(math.exp(v) for v in logs))


@settings(max_examples=150, deadline=None, database=None)
@given(point=st.one_of(_UNIFORM_POINTS, _LOG_POINTS), grid=st.sampled_from((2, 3, 7, 128, 1000, 1024)))
def test_seed_cells_match_the_full_grid(point, grid):
    # the band search must seed Newton from exactly the cells of the full
    # grid x grid lattice
    r, h0, h1 = point
    xs, ys = _scan_axes(r, h0, h1, grid)
    cells = _seed_cells(xs[None], ys[None], r, h0, h1)
    assert not cells[:, 0].any()
    assert np.array_equal(cells[:, 1:], _dense_seed_cells(xs, ys, r, h0, h1))


@settings(max_examples=100, deadline=None, database=None)
@given(points=st.lists(st.one_of(_UNIFORM_POINTS, _LOG_POINTS), min_size=1, max_size=6),
       grid=st.sampled_from((2, 3, 7, 128, 1024)), shared_r=st.booleans())
def test_batched_seed_cells_match_the_full_grid_per_cell(points, grid, shared_r):
    # one search over a batch of cells seeds each cell from exactly the cells
    # of its own full lattice, cell after cell; r is a scalar when all share it
    if shared_r:
        points = [(points[0][0], h0, h1) for _, h0, h1 in points]
    axes = [_scan_axes(*point, grid) for point in points]
    r, h0, h1 = (np.array(v)[:, None] for v in zip(*points))
    got = _seed_cells(np.stack([xs for xs, _ in axes]), np.stack([ys for _, ys in axes]),
                      points[0][0] if shared_r else r, h0, h1)
    assert np.all(np.diff(got[:, 0]) >= 0)
    for c, (point, (xs, ys)) in enumerate(zip(points, axes)):
        assert np.array_equal(got[got[:, 0] == c, 1:], _dense_seed_cells(xs, ys, *point)), point


def _three_exp_residual(X, Y, r, h0, h1):
    # the reference: the first residual with all three exps taken on the
    # points themselves, in the order `_first_residual` uses
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


def _three_exp_seed_cells(xs, ys, r, h0, h1):
    # the reference: `_seed_cells` with each probe's exps taken on its own
    # points instead of gathered from the lattice's
    cells, rows = xs.shape
    cols = ys.shape[1]
    flat_xs, flat_ys = xs.ravel(), ys.ravel()
    base = np.arange(0, cells * cols, cols)[:, None]
    k = np.repeat(base, rows, axis=1)
    n = cols
    while n > 1:
        half = n // 2
        k += half * ~np.signbit(_three_exp_residual(xs, flat_ys[k + half], r, h0, h1))
        n -= half
    k += ~np.signbit(_three_exp_residual(xs, flat_ys[k], r, h0, h1))
    k -= base
    lo = np.maximum(np.minimum(k[:, :-1], k[:, 1:]) - 1, 0).ravel()
    counts = np.maximum(np.minimum(np.maximum(k[:, :-1], k[:, 1:]), cols - 1).ravel() - lo, 0)
    pairs = np.flatnonzero(counts)
    nodes = counts[pairs] + 1
    ends = np.cumsum(nodes)
    S = np.repeat(pairs, nodes)
    J = np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - nodes - lo[pairs], nodes)
    C, I = np.divmod(S, rows - 1)
    X = flat_xs[np.stack((S + C, S + C + 1))]
    r, h0, h1 = (np.ravel(v)[C] if np.size(v) > 1 else v for v in (r, h0, h1))
    s2 = np.signbit(_three_exp_residual(flat_ys[C * cols + J], X, r, h1, h0))
    c00 = s2[0, :-1]
    mixed = (s2[0, 1:] != c00) | (s2[1, :-1] != c00) | (s2[1, 1:] != c00)
    mixed[ends[:-1] - 1] = False
    keep = np.flatnonzero(mixed)
    return np.column_stack((C[keep], I[keep], J[keep]))


def _seed_chunks(points, grid, chunk, search):
    # `search` run on `points` a chunk at a time, each chunk's (cell, i, j)
    # rows renumbered to the cell's place among all the points
    found = []
    for start in range(0, len(points), chunk):
        batch = points[start:start + chunk]
        axes = [_scan_axes(*point, grid) for point in batch]
        r, h0, h1 = (np.array(v)[:, None] for v in zip(*batch))
        cells = search(np.stack([xs for xs, _ in axes]), np.stack([ys for _, ys in axes]), r, h0, h1)
        found.append(cells + [start, 0, 0])
    return np.concatenate(found)


@settings(max_examples=60, deadline=None, database=None)
@given(points=st.lists(st.one_of(_UNIFORM_POINTS, _LOG_POINTS), min_size=1, max_size=12),
       grid=st.one_of(st.sampled_from((2, 3, 128, 1024)), st.integers(2, 1024)),
       chunk=st.integers(1, 12))
def test_seed_cells_are_bit_identical_to_the_three_exp_search(points, grid, chunk):
    # the exps of the lattice taken once and gathered leave every seed as it
    # was with three exps per probe, at any chunk size, and a chunk seeds each
    # cell as the cell alone does
    got = _seed_chunks(points, grid, chunk, _seed_cells)
    assert np.array_equal(got, _seed_chunks(points, grid, chunk, _three_exp_seed_cells))
    assert np.array_equal(got, _seed_chunks(points, grid, 1, _seed_cells))


def test_seed_cells_match_the_full_grid_on_the_readme_plane():
    axis = np.linspace(0.3, 3.0, 40)
    certifiable = [(1.0, float(a), float(b)) for a in axis for b in axis if a != b and min(a, b) >= 1.0]
    assert len(certifiable) == 812
    for r, h0, h1 in certifiable:
        xs, ys = _scan_axes(r, h0, h1, 128)
        cells = _seed_cells(xs[None], ys[None], r, h0, h1)[:, 1:]
        assert np.array_equal(cells, _dense_seed_cells(xs, ys, r, h0, h1)), (h0, h1)


def _reference_artificial_cycles(params, grid, cycle):
    # the polish loop as it was before the scan was batched: seeds from the
    # full lattice plus the 2-cycle itself as the last seed, and the folded
    # map built whether or not a root is left
    r, (h0, h1) = params.r, params.stocking
    x_max, y_max = _orbit_bounds(r, h0, h1)
    xs, ys = _scan_axes(r, h0, h1, grid)
    seeds = [(float(xs[i]), float(ys[j])) for i, j in _dense_seed_cells(xs, ys, r, h0, h1)]
    seeds.append((cycle.z0, cycle.z1))
    roots = []
    for sx, sy in seeds:
        sol = periodic._newton_polish_artificial(sx, sy, r, h0, h1)
        if sol is None:
            continue
        x, y = sol
        if not (x > h1 and y > h0 and x <= 1.01 * x_max and y <= 1.01 * y_max):
            continue
        if any(abs(x - a) < 1e-6 and abs(y - b) < 1e-6 for a, b in roots):
            continue
        roots.append((x, y))
    scale = 1.0 + abs(cycle.z0) + abs(cycle.z1)
    quads = []
    f0, f1 = planar_maps(params)
    g10 = build_folded_embedding(f0, f1)
    for x, y in sorted(roots):
        if abs(x - cycle.z0) + abs(y - cycle.z1) < 1e-5 * scale:
            continue
        q = QuadPoint(x, y, f1(y, x), f0(x, y))
        if max(abs(a - b) for a, b in zip(g10(q), q)) > 1e-9:
            continue
        quads.append(q)
    return periodic.ArtificialCycleSet(cycles=tuple(quads), count=len(quads), grid=grid)


def test_artificial_cycles_match_the_reference_polish_on_the_readme_plane():
    axis = np.linspace(0.3, 3.0, 40)
    certifiable = [ModelParams(r=1.0, stocking=(float(a), float(b)))
                   for a in axis for b in axis if a != b and min(a, b) >= 1.0]
    found = 0
    for params in certifiable:
        cycle = solve_two_cycle(params)
        art = find_artificial_cycles(params, 128, cycle=cycle)
        assert art == _reference_artificial_cycles(params, 128, cycle), params.stocking
        found += art.count > 0
    assert found == 174


@settings(max_examples=150, deadline=None, database=None)
@given(point=st.one_of(_UNIFORM_POINTS, _LOG_POINTS), grid=st.sampled_from((2, 3, 7, 128, 512)))
def test_artificial_cycles_match_the_reference_polish(point, grid):
    r, h0, h1 = point
    assume(h0 != h1)
    params = ModelParams(r=r, stocking=(h0, h1))
    try:
        cycle = solve_two_cycle(params)
    except NonConvergence:
        assume(False)
    assert find_artificial_cycles(params, grid, cycle=cycle) == _reference_artificial_cycles(params, grid, cycle)


def test_artificial_scan_memory_is_not_quadratic_in_the_grid():
    # two full 1024x1024 surfaces take 24 MiB; the band takes a few rows' worth
    params = params_of((1.0, 2.0, 1.5))
    cycle = solve_two_cycle(params)
    tracemalloc.start()
    try:
        find_artificial_cycles(params, 1024, cycle=cycle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_two_cycle_requires_two_periodic():
    with pytest.raises(ValueError):
        solve_two_cycle(ModelParams.constant(1.0, 2.0))
    with pytest.raises(ValueError):
        solve_two_cycle(ModelParams(r=1.0, stocking=(2.0, 2.0)))


def test_ordering_law_and_det_identity_random():
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 250:
        r = rng.uniform(0.1, 3.0)
        h0, h1 = rng.uniform(0.1, 7.0, size=2)
        if abs(h0 - h1) < 1e-3:
            continue
        rep = solve_two_cycle(ModelParams(r=r, stocking=(h0, h1)))
        checked += 1
        # stocking/phase ordering law
        assert math.copysign(1.0, h0 - h1) == math.copysign(1.0, rep.z1 - rep.z0)
        # determinant identity, two routes
        det_product = rep.z0 * rep.z1 * math.exp(r - rep.z0) * math.exp(r - rep.z1)
        assert rep.det == pytest.approx(det_product, rel=1e-10)
        assert rep.det == pytest.approx((rep.z1 - h0) * (rep.z0 - h1), rel=1e-12)
        # one Jury inequality holds unconditionally
        assert rep.det - rep.trace + 1.0 > 0.0
        assert max(rep.residuals) < 1e-10


@pytest.mark.parametrize("point", [(14.0, 46.0, 50.0), (1.0, 9.0, 30.0), (0.5, 8.7, 31.7)])
def test_two_cycle_det_and_trace_keep_the_digits_of_the_offsets(point):
    # where h1 or h0 dwarfs the offsets d0 = z0 - h1 and d1 = z1 - h0, the
    # rounded z0 and z1 hold few of their digits: (z1 - h0)(z0 - h1) formed
    # from them was 33% off at (14, 46, 50) and 1.5e-4 off at (1, 9, 30).
    # Det = d0 d1 and Tr = Det / (z0 z1) - d0 - d1 from the solved offsets
    # lie within 8 eps of the 40-digit values, Tr relative to the sum of the
    # magnitudes of its terms
    eps = 2.0**-52
    r, h0, h1 = point
    rep = solve_two_cycle(params_of(point))
    z0, z1 = mp_two_cycle_offsets(r, h0, h1, rep.z0, rep.z1)
    d0, d1 = z0 - h1, z1 - h0
    det = d0 * d1
    trace = det / (z0 * z1) - d0 - d1
    assert abs(rep.det - det) <= 8 * eps * det
    assert abs(rep.trace - trace) <= 8 * eps * (d0 + d1 + det / (z0 * z1))
    assert rep.local_verdict is LocalVerdict.LAS


def test_swap_symmetry():
    rep = solve_two_cycle(params_of((1.0, 2.0, 1.0)))
    rep_swapped = solve_two_cycle(ModelParams(r=1.0, stocking=(1.0, 2.0)))
    assert rep_swapped.z0 == pytest.approx(rep.z1, abs=1e-9)
    assert rep_swapped.z1 == pytest.approx(rep.z0, abs=1e-9)
    assert rep_swapped.det == pytest.approx(rep.det, abs=1e-9)
    assert rep_swapped.trace == pytest.approx(rep.trace, abs=1e-9)
    art = find_artificial_cycles(params_of((1.0, 2.0, 1.0)), grid=512)
    art_swapped = find_artificial_cycles(ModelParams(r=1.0, stocking=(1.0, 2.0)), grid=512)
    assert art.count == art_swapped.count == 2
    transposed = sorted((q.v, q.u, q.y, q.x) for q in art.cycles)
    got = sorted(tuple(q) for q in art_swapped.cycles)
    for a, b in zip(transposed, got):
        assert a == pytest.approx(b, abs=1e-9)


def test_corollary_shortcuts():
    params = params_of((1.0, 2.0, 1.5))
    rep = solve_two_cycle(params)
    fired = corollary_shortcuts(rep, params)
    assert RULE_DET_BELOW_ONE in fired
    assert RULE_CYCLE_LAS in fired
    assert rep.local_verdict is LocalVerdict.LAS

    # z0 < h1 + 1 but z1 > h0 + 1: no clause fires, Jury alone decides
    params2 = params_of((3.0, 2.0, 6.444))
    rep2 = solve_two_cycle(params2)
    assert rep2.z0 <= 6.444 + 1.0 and rep2.z1 > 2.0 + 1.0
    assert corollary_shortcuts(rep2, params2) == []

    params3 = ModelParams(r=0.5, stocking=(1.0, 2.0))
    rep3 = solve_two_cycle(params3)
    assert RULE_DET_BELOW_ONE in corollary_shortcuts(rep3, params3)


# A report that disagrees with itself trips each rule's cross-check.  The base
# cycle of (1, 2, 1.5) fires rules 1 and 2 with det < 1 and a LAS verdict.
@pytest.mark.parametrize("changes, message", [
    ({"det": 1.5}, "r=1.0 <= 1 but det=1.5 is not below 1"),
    ({"local_verdict": LocalVerdict.UNSTABLE}, "shortcut predicts a stable 2-cycle but Jury says unstable"),
    ({"z0": 10.0, "z1": 10.0}, "shortcut predicts an unstable 2-cycle but Jury says stable"),
], ids=["rule 1", "rule 2", "rule 3"])
def test_corollary_shortcuts_raise_on_an_inconsistent_report(changes, message):
    params = params_of((1.0, 2.0, 1.5))
    rep = solve_two_cycle(params)
    assert corollary_shortcuts(rep, params) == [RULE_DET_BELOW_ONE, RULE_CYCLE_LAS]
    with pytest.raises(ContradictionDetected) as exc:
        corollary_shortcuts(dataclasses.replace(rep, **changes), params)
    assert str(exc.value) == message


def test_unstable_cycle_with_small_determinant_is_possible():
    # determinant below one does not guarantee stability: the other Jury
    # inequality fails here through a flip eigenvalue below -1
    rep = solve_two_cycle(params_of((3.0, 2.0, 6.444)))
    assert rep.det < 1.0
    assert rep.det + rep.trace + 1.0 < 0.0
    assert rep.local_verdict is LocalVerdict.UNSTABLE


def test_instability_clause_fires_when_both_exceed():
    # pick parameters with both branches far above the stocking floors
    rng = np.random.default_rng(59)
    found = False
    for _ in range(200):
        r = rng.uniform(2.0, 3.0)
        h0, h1 = rng.uniform(0.1, 1.5, size=2)
        if abs(h0 - h1) < 1e-3:
            continue
        params = ModelParams(r=r, stocking=(h0, h1))
        rep = solve_two_cycle(params)
        if rep.z0 > h1 + 1.0 and rep.z1 > h0 + 1.0:
            fired = corollary_shortcuts(rep, params)
            assert RULE_CYCLE_UNSTABLE in fired
            assert rep.local_verdict is LocalVerdict.UNSTABLE
            found = True
            break
    assert found


def test_feasibility_curves():
    one_step, two_step = _compatibility_curves(2.0, 1.0, 2.0, 1.5)
    assert one_step == pytest.approx(3.16395341373865, abs=1e-12)
    assert two_step == pytest.approx(2.58569459236382, abs=1e-12)
    # decreasing, with limits h0 and h1
    g1b, g2b = _compatibility_curves(3.0, 1.0, 2.0, 1.5)
    assert one_step > g1b and two_step > g2b
    g1c, g2c = _compatibility_curves(60.0, 1.0, 2.0, 1.5)
    assert g1c == pytest.approx(2.0, abs=1e-12)
    assert g2c == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("offset", [1e-13, 1e-10, 1e-6, 1.0])
@pytest.mark.parametrize("point", [(1.0, 2.0, 1.5), (0.3, 0.5, 0.4), (4.0, 4.5, 9.0)])
def test_feasibility_curves_keep_their_digits_next_to_the_pole(point, offset):
    # 1 - e^{r-t} formed by subtraction keeps only about -log10(t - r) of its
    # digits (5e-11 and 1e-10 off at t - r = 1e-10); from expm1 both curves
    # stay within 4 ulps of 1 of a 40-digit value at the same floats t and r
    r, h0, h1 = point
    t = r + offset
    got = _compatibility_curves(t, r, h0, h1)
    with mp.workdps(40):
        f = mp.exp(mp.mpf(r) - mp.mpf(t))
        want = (h0 / (1 - f), (h0 * f + h1) / (1 - f * f))
    for g, w in zip(got, want):
        assert abs(g - w) / w <= 4 * 2.0**-53


def test_artificial_cycles_found_and_absent():
    art = find_artificial_cycles(params_of((1.0, 2.0, 1.0)))
    assert art.count == 2
    quads = sorted(tuple(q) for q in art.cycles)
    assert quads[0] == pytest.approx(ART_121, abs=1e-8)
    assert quads[1] == pytest.approx((ART_121[2], ART_121[3], ART_121[0], ART_121[1]), abs=1e-8)
    # three-decimal reference values
    assert quads[0] == pytest.approx((1.109, 3.306, 3.966, 2.110), abs=2e-3)

    empty = find_artificial_cycles(params_of((1.0, 2.0, 1.5)))
    assert empty.count == 0 and empty.cycles == ()


def test_artificial_cycles_reject_constant():
    with pytest.raises(ValueError):
        find_artificial_cycles(ModelParams(r=1.0, stocking=(2.0, 2.0)))


def test_certify_globally_stable_with_witness():
    params = params_of((1.0, 2.0, 1.5))
    verdict = certify_periodic(params)
    assert verdict.tag is VerdictTag.GLOBALLY_STABLE
    a, b = verdict.witness
    r, h0, h1 = 1.0, 2.0, 1.5
    F0 = lambda x, y: x * math.exp(r - y) + h0
    F1 = lambda x, y: x * math.exp(r - y) + h1
    assert a < min(F0(a, b), F1(F0(a, b), b))
    assert b > max(F0(b, a), F1(F0(b, a), a))
    rep = solve_two_cycle(params)
    assert a < min(rep.z0, rep.z1) and b > max(rep.z0, rep.z1)
    # orbit validation: even/odd tails converge to the 2-cycle
    rng = np.random.default_rng(61)
    tails = orbit_batch(1.0, (2.0, 1.5), rng.uniform(0.0, 6.0, 100),
                        rng.uniform(0.0, 6.0, 100), 60_000, keep_last=4)
    # rows are x_59997..x_60000; odd indices first
    assert np.max(np.abs(tails[1] - rep.z0)) < 1e-6
    assert np.max(np.abs(tails[3] - rep.z0)) < 1e-6
    assert np.max(np.abs(tails[0] - rep.z1)) < 1e-6
    assert np.max(np.abs(tails[2] - rep.z1)) < 1e-6


def test_certify_absorbing_box_boundary_case():
    verdict = certify_periodic(params_of((1.0, 2.0, 1.0)))
    assert verdict.tag is VerdictTag.ABSORBING_BOX
    assert verdict.even_range == pytest.approx((1.109, 3.966), abs=2e-3)
    assert verdict.odd_range == pytest.approx((2.110, 3.306), abs=2e-3)
    assert "min(h0,h1) = r" in verdict.note


def test_certify_not_applicable():
    verdict = certify_periodic(params_of((1.5, 0.820, 1.800)))
    assert verdict.tag is VerdictTag.NOT_APPLICABLE
    assert verdict.local is LocalVerdict.UNSTABLE


def test_two_cycle_witness_other_orientation():
    # h0 < h1 exercises the two-step-curve construction
    params = ModelParams(r=1.0, stocking=(1.5, 2.0))
    verdict = certify_periodic(params)
    assert verdict.tag is VerdictTag.GLOBALLY_STABLE
    a, b = verdict.witness
    r, h0, h1 = 1.0, 1.5, 2.0
    F0 = lambda x, y: x * math.exp(r - y) + h0
    F1 = lambda x, y: x * math.exp(r - y) + h1
    assert a < min(F0(a, b), F1(F0(a, b), b))
    assert b > max(F0(b, a), F1(F0(b, a), a))


def test_residual_helper_zero_at_cycle():
    z0, z1 = CYCLES[(1.0, 2.0, 1.5)]
    q1, q2 = _cycle_residuals(z0, z1, 1.0, 2.0, 1.5)
    assert abs(q1) < 1e-10 and abs(q2) < 1e-10


def test_certify_builds_the_witness_box_before_the_scan(monkeypatch):
    def failing_build(params, lo, hi):
        raise WitnessConstructionFailed("no box")

    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran before the witness box")

    monkeypatch.setattr(periodic, "compatible_box", failing_build)
    monkeypatch.setattr(periodic, "find_artificial_cycles", no_scan)
    monkeypatch.setattr(periodic, "_scan_seeds", no_scan)
    params = params_of((1.0, 2.0, 1.5))
    with pytest.raises(WitnessConstructionFailed):
        certify_periodic(params, 128)
    with pytest.raises(WitnessConstructionFailed):
        next(periodic._sweep_tags([(params, solve_two_cycle(params))], 128))


_OFFSET_ABOVE_R = st.floats(-12.0, 3.0).map(lambda e: 10.0**e)


@settings(max_examples=200, deadline=None, database=None)
@given(log_r=st.floats(math.log(0.01), math.log(350.0)),
       offsets=st.tuples(st.one_of(st.just(0.0), _OFFSET_ABOVE_R), _OFFSET_ABOVE_R),
       swap=st.booleans(), grid=st.integers(2, 256))
def test_scan_raises_nothing_after_the_solve_and_the_box(log_r, offsets, swap, grid):
    # `_witness_box` proves that nothing past the box raises where
    # min(h0, h1) >= r; the seed search runs here without the errstate that
    # silences the overflow of cells below r, so the suite's warning filter
    # sees every float exception the proof rules out
    r = math.exp(log_r)
    h0, h1 = (r + offset for offset in (offsets[::-1] if swap else offsets))
    assume(h0 != h1)
    params = ModelParams(r=r, stocking=(h0, h1))
    try:
        report = solve_two_cycle(params)
        periodic._witness_box(params, report)
    except RickerLabError:
        assume(False)
    with mock.patch.object(periodic, "_seed_cells", periodic._seed_cells.__wrapped__):
        [(_, _, tag)] = periodic._sweep_tags([(params, report)], grid)
        art = find_artificial_cycles(params, grid, cycle=report)
    assert tag is (VerdictTag.ABSORBING_BOX if art.count else VerdictTag.GLOBALLY_STABLE)


@pytest.mark.parametrize("grid", [2, 128, 1024, 4096])
def test_sweep_tags_take_at_most_one_chunk_before_the_first_tag(grid):
    params = params_of((1.0, 2.0, 1.5))
    report = solve_two_cycle(params)
    taken = 0

    def endless():
        nonlocal taken
        while True:
            taken += 1
            yield params, report

    params_out, report_out, tag = next(periodic._sweep_tags(endless(), grid))
    assert (params_out, report_out, tag) == (params, report, VerdictTag.GLOBALLY_STABLE)
    assert taken <= max(1, 2048 // grid)


# GloballyStable in both orientations, AbsorbingBox, NotApplicable and the
# min(h0, h1) = r boundary
@pytest.mark.parametrize("point", [(1.0, 2.0, 1.5), (1.0, 1.5, 2.0), (1.0, 2.0, 1.1), (1.5, 0.82, 1.8),
                                   (1.0, 2.0, 1.0), (1.0, 1.0043478, 1.1217391)])
def test_solved_cycle_keyword_gives_the_same_result(monkeypatch, point):
    params = params_of(point)
    cycle = solve_two_cycle(params)
    verdict = certify_periodic(params, 128)
    art = find_artificial_cycles(params, 128)

    def no_solve(params):
        raise AssertionError("the 2-cycle was solved although it was handed over")

    monkeypatch.setattr(periodic, "solve_two_cycle", no_solve)
    assert certify_periodic(params, 128, cycle=cycle) == verdict
    assert find_artificial_cycles(params, 128, cycle=cycle) == art
