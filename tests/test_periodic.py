import dataclasses
import math
import tracemalloc

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
    feasibility_curves,
    find_artificial_cycles,
    solve_two_cycle,
)
from ricker_lab import periodic
from ricker_lab._roots import bisect, newton_2d
from ricker_lab.embedding import build_folded_embedding
from ricker_lab.errors import ContradictionDetected, NonConvergence
from ricker_lab.model import QuadPoint, planar_maps
from ricker_lab.periodic import (
    RULE_CYCLE_LAS,
    RULE_CYCLE_UNSTABLE,
    RULE_DET_BELOW_ONE,
    _cycle_residuals,
    _cycle_system,
    _first_residual,
    _geomspace,
    _orbit_bounds,
    _reduced_residual,
    _reduced_z1,
    _seed_cells,
)

from _oracles import mp_two_cycle, mp_two_cycle_near, orbit_batch

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


def _sign_ambiguous_floats(r, h0, h1, a, b, pad=64):
    # the first float where the float residual is not negative and the last
    # where it is, among the floats from pad ulps below min(a, b) to pad ulps
    # above max(a, b); the first lies below the last only where the float
    # residual crosses zero more than once
    y_max = _orbit_bounds(r, h0, h1)[1]
    t, hi = min(a, b), max(a, b)
    for _ in range(pad):
        t, hi = math.nextafter(t, -math.inf), math.nextafter(hi, math.inf)
    first = last = None
    while t <= hi:
        if _reduced_residual(t, r, h0, h1, y_max) < 0.0:
            last = t
        elif first is None:
            first = t
        t = math.nextafter(t, math.inf)
    return first, last


@settings(max_examples=300, deadline=None, database=None)
@given(point=st.tuples(st.floats(0.3, 4.5), st.floats(0.0, 9.0), st.floats(0.0, 9.0))
       | st.tuples(st.floats(0.3, 30.0), st.floats(0.0, 60.0), st.floats(0.0, 60.0)))
@example(point=(3.799153988382861, 0.6099207778882526, 1.3268276058619164e-06))
@example(point=(0.3, 0.01421444972852082, 0.0))
def test_two_cycle_matches_the_dense_scan(point):
    # the proof leaves one sign change for the scan to find, and the one
    # bisection on the proven bracket stops on the scan's float
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
    if solved is None or expected is None or solved == expected:
        assert solved == expected
        return
    # the bisections stop on different floats only where the float residual
    # changes sign more than once next to the root, as at the two examples;
    # both roots then lie where its sign cannot place the root, give or take
    # the last ulps of the polish, and z1 follows z0 along z1(z0)
    first, last = _sign_ambiguous_floats(r, h0, h1, solved[0], expected[0])
    assert first < last
    for z0 in (solved[0], expected[0]):
        assert first - 2 * math.ulp(first) <= z0 <= last + 2 * math.ulp(last)
    slope = math.exp(expected[0] - r) * (1.0 + expected[0] - h1)
    dz0, dz1 = abs(solved[0] - expected[0]), abs(solved[1] - expected[1])
    assert dz1 <= slope * dz0 + 2 * math.ulp(expected[1])


def test_two_cycle_matches_the_dense_scan_on_the_readme_plane():
    axis = np.linspace(0.3, 3.0, 40)
    plane = [(1.0, float(a), float(b)) for a in axis for b in axis if a != b]
    assert len(plane) == 1560
    for r, h0, h1 in plane:
        roots, changes = _dense_cycle_roots(r, h0, h1)
        assert changes == 1 and len(roots) == 1
        assert _solved_or_none(r, h0, h1) == roots[0], (h0, h1)


@pytest.mark.parametrize("h0, h1", [(0.0, 3.4182591922630875e-71), (3.4182591922630875e-71, 0.0)])
def test_ordering_law_allows_a_misorder_within_float_resolution(h0, h1):
    # the true pair differs by about 1e-71 and agrees with the law; the float
    # pair is one ulp apart, in the wrong order for h0 < h1
    rep = solve_two_cycle(ModelParams(r=0.5, stocking=(h0, h1)))
    assert {rep.z0, rep.z1} == {0.5, math.nextafter(0.5, 0.0)}
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
    P = X * np.exp(r - Y) + h0
    Q = Y * np.exp(r - X) + h1
    # the second surface is the first with the roles of (x, h1) and (y, h0) swapped
    assert np.array_equal(_first_residual(X, Y, r, h0, h1), P * np.exp(r - Q) - X + h1)
    assert np.array_equal(_first_residual(Y, X, r, h1, h0), Q * np.exp(r - P) - Y + h0)


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
    return periodic.ArtificialCycleSet(
        cycles=tuple(quads), count=len(quads), grid=grid, x_max=x_max, y_max=y_max
    )


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
    params = params_of((1.0, 2.0, 1.5))
    one_step, two_step = feasibility_curves(2.0, params)
    assert one_step == pytest.approx(3.16395341373865, abs=1e-12)
    assert two_step == pytest.approx(2.58569459236382, abs=1e-12)
    # decreasing, with limits h0 and h1
    g1a, g2a = feasibility_curves(2.0, params)
    g1b, g2b = feasibility_curves(3.0, params)
    assert g1a > g1b and g2a > g2b
    g1c, g2c = feasibility_curves(60.0, params)
    assert g1c == pytest.approx(2.0, abs=1e-12)
    assert g2c == pytest.approx(1.5, abs=1e-12)
    with pytest.raises(ValueError):
        feasibility_curves(1.0, params)
    with pytest.raises(ValueError):
        feasibility_curves(0.5, params)


@pytest.mark.parametrize("offset", [1e-13, 1e-10, 1e-6, 1.0])
@pytest.mark.parametrize("point", [(1.0, 2.0, 1.5), (0.3, 0.5, 0.4), (4.0, 4.5, 9.0)])
def test_feasibility_curves_keep_their_digits_next_to_the_pole(point, offset):
    # 1 - e^{r-t} formed by subtraction keeps only about -log10(t - r) of its
    # digits (5e-11 and 1e-10 off at t - r = 1e-10); from expm1 both curves
    # stay within 4 ulps of 1 of a 40-digit value at the same floats t and r
    r, h0, h1 = point
    t = r + offset
    got = feasibility_curves(t, params_of(point))
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
