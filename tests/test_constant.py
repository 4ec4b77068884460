import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ricker_lab import (
    LocalVerdict,
    ModelParams,
    VerdictTag,
    certify_constant,
    feasible_ab,
    find_intersections,
    solve_equilibrium,
    thresholds,
)
from ricker_lab import constant
from ricker_lab._roots import bisect
from ricker_lab.constant import _equilibrium_root, _g1
from ricker_lab.errors import BracketFailure, Infeasible, MaxIterExceeded

from _oracles import mp_equilibrium, mp_pseudo_pair, orbit_batch

E_MINUS_1 = math.e - 1.0

# frozen 40-digit oracle values
YBAR = {
    (2.0, 3.0): 3.6839070955344095,
    (2.0, 0.7): 2.3530841474384756,
    (2.0, 2.6): 3.4242051673855149,
    (2.0, E_MINUS_1): 2.8984960389127034,
    (1.5, E_MINUS_1): 2.5894021720135397,
    (0.5, 1.0): 1.5436268955915372,
}
XSTAR_26 = 2.7407493243191001
YSTAR_26 = 4.9690061715897323
THRESH_26 = (2.3190661545379357, 3.3712315177207979, 1.8961867364793728)


def test_equilibrium_frozen_values():
    for (r, h), expected in YBAR.items():
        rep = solve_equilibrium(ModelParams.constant(r, h))
        assert rep.y_bar == pytest.approx(expected, abs=1e-10)
        assert rep.residual < 1e-10


def test_equilibrium_against_live_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        r = rng.uniform(0.1, 4.0)
        h = rng.uniform(0.01, 8.0)
        rep = solve_equilibrium(ModelParams.constant(r, h))
        assert rep.y_bar == pytest.approx(float(mp_equilibrium(r, h)), abs=1e-10)


@pytest.mark.parametrize("r, h, tag", [
    (2.0, 1e-12, VerdictTag.UNSTABLE),
    (1.5, 1e-13, VerdictTag.UNSTABLE),
    (0.5, 1e-16, VerdictTag.LOCALLY_STABLE_GLOBAL_OPEN),
    (0.9, 5e-13, VerdictTag.LOCALLY_STABLE_GLOBAL_OPEN),
])
def test_equilibrium_tiny_stocking_against_oracle(r, h, tag):
    # y* - r is about h/r here, below any fixed offset from max(r, h)
    expected = float(mp_equilibrium(r, h))
    y = solve_equilibrium(ModelParams.constant(r, h)).y_bar
    assert y == pytest.approx(expected, rel=4e-16)
    assert certify_constant(ModelParams.constant(r, h)).tag is tag


# past r of about 710, e^{r-1} overflows a float
@pytest.mark.parametrize("r, h", [(800.0, 1.0), (800.0, 900.0), (750.0, 1e-9)])
def test_equilibrium_past_exp_overflow_against_findroot(r, h):
    # a second oracle beside mp_equilibrium's bisection: mpmath's own root finder
    R, H = mp.mpf(r), mp.mpf(h)
    expected = float(mp.findroot(lambda y: y - y * mp.e ** (R - y) - H, max(R, H) + 1))
    assert solve_equilibrium(ModelParams.constant(r, h)).y_bar == pytest.approx(expected, rel=4e-16)


def test_equilibrium_zero_stocking_limit():
    for r in (0.3, 1.0, 2.5):
        rep = solve_equilibrium(ModelParams.constant(r, 0.0))
        assert rep.y_bar == r


def test_example_unstable_and_stable_pair():
    rep = solve_equilibrium(ModelParams.constant(2.0, E_MINUS_1))
    assert rep.y_bar == pytest.approx(2.898, abs=1e-3)
    lam = rep.eigenvalues[0]
    assert lam.real == pytest.approx(0.204, abs=2e-3)
    assert abs(lam.imag) == pytest.approx(1.067, abs=2e-3)
    assert rep.local_verdict is LocalVerdict.UNSTABLE

    rep2 = solve_equilibrium(ModelParams.constant(1.5, E_MINUS_1))
    assert rep2.y_bar == pytest.approx(2.589, abs=1e-3)
    lam2 = rep2.eigenvalues[0]
    assert lam2.real == pytest.approx(0.168, abs=2e-3)
    assert abs(lam2.imag) == pytest.approx(0.918, abs=2e-3)
    assert rep2.local_verdict is LocalVerdict.LAS


def test_report_invariants_random():
    rng = np.random.default_rng(23)
    for _ in range(300):
        r = rng.uniform(0.05, 4.0)
        h = rng.uniform(0.01, 8.0)
        rep = solve_equilibrium(ModelParams.constant(r, h))
        assert rep.y_bar > max(r, h)
        assert 0.0 < rep.trace < 1.0
        assert rep.det > 0.0
        assert rep.det - rep.trace > -1.0


def test_jury_identities_two_routes():
    # matrix entries (e^{r-y}, -y e^{r-y}; 1, 0) versus the closed forms
    rng = np.random.default_rng(29)
    for _ in range(300):
        r = rng.uniform(0.05, 4.0)
        h = rng.uniform(0.01, 8.0)
        rep = solve_equilibrium(ModelParams.constant(r, h))
        y = rep.y_bar
        a11 = math.exp(r - y)
        a12 = -y * math.exp(r - y)
        trace_mat = a11
        det_mat = -a12
        assert trace_mat == pytest.approx(rep.trace, abs=1e-12)
        assert det_mat == pytest.approx(rep.det, abs=1e-12)


def test_equilibrium_increasing_in_h_and_r():
    rng = np.random.default_rng(31)
    for _ in range(200):
        r = rng.uniform(0.1, 3.0)
        h1, h2 = np.sort(rng.uniform(0.01, 6.0, size=2))
        if h1 == h2:
            continue
        y1 = solve_equilibrium(ModelParams.constant(r, h1)).y_bar
        y2 = solve_equilibrium(ModelParams.constant(r, h2)).y_bar
        assert y1 < y2
        r1, r2 = np.sort(rng.uniform(0.1, 3.0, size=2))
        h = rng.uniform(0.01, 6.0)
        if r1 == r2:
            continue
        assert solve_equilibrium(ModelParams.constant(r1, h)).y_bar < \
            solve_equilibrium(ModelParams.constant(r2, h)).y_bar


def _ulps_from_root(y, r, h):
    ref = mp_equilibrium(r, h)
    return float(abs(mp.mpf(y) - ref)) / math.ulp(float(ref))


@settings(max_examples=300, deadline=None, database=None)
@given(r=st.floats(0.1, 8.0), h=st.floats(0.1, 10.0))
def test_equilibrium_root_within_one_and_a_half_ulps(r, h):
    assert _ulps_from_root(_equilibrium_root(r, h), r, h) <= 1.5


# y - y e^{r-y} cancels as y nears r: a solve that evaluates the residual
# that way is off by up to about 3e-11 relative at small r
@settings(max_examples=300, deadline=None, database=None)
@given(log_r=st.floats(math.log(1e-6), math.log(700.0)),
       log_h=st.floats(math.log(1e-12), math.log(1e12)))
def test_equilibrium_root_on_wide_log_uniform_points(log_r, log_h):
    r, h = math.exp(log_r), math.exp(log_h)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(constant, "_NEWTON_CAP", 30)
        y = _equilibrium_root(r, h)
    ref = mp_equilibrium(r, h)
    assert abs(mp.mpf(y) - ref) <= 1e-15 * ref


@pytest.mark.parametrize("r, h", [(1e-300, 1e-300), (1e-20, 1e-40), (1e-12, 1e-3), (5e-324, 1e-300)])
def test_equilibrium_root_at_tiny_growth_and_stocking(r, h):
    # the root lies near sqrt(h) or r + h/r, far below the float resolution of 1
    y = _equilibrium_root(r, h)
    ref = mp_equilibrium(r, h)
    assert abs(mp.mpf(y) - ref) <= 1e-15 * ref


def test_equilibrium_root_stops_where_rounding_creeps(monkeypatch):
    # near this root the float residual moves y by one ulp a step for a long
    # time, so "stop once y stops moving" does not end here
    r, h = 0.0030637751815563307, 1.917540791515548e-09
    monkeypatch.setattr(constant, "_NEWTON_CAP", 30)
    assert _ulps_from_root(_equilibrium_root(r, h), r, h) <= 1.5


def test_equilibrium_root_cap_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(constant, "_NEWTON_CAP", 1)
    with pytest.raises(MaxIterExceeded, match="did not settle"):
        _equilibrium_root(2.0, 2.6)


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_threshold_frozen_values():
    ts = thresholds(2.6)
    assert ts.r1 == pytest.approx(THRESH_26[0], abs=1e-12)
    assert ts.h_star == pytest.approx(THRESH_26[1], abs=1e-12)
    assert ts.r2 == pytest.approx(THRESH_26[2], abs=1e-12)
    # closed-form coincidence: r1(e-1) = e-1
    assert thresholds(E_MINUS_1).r1 == pytest.approx(E_MINUS_1, abs=1e-12)
    assert thresholds(0.7).r1 == pytest.approx(1.1693717489378296, abs=1e-12)


def test_threshold_limits_small_h():
    ts = thresholds(1e-10)
    assert ts.r1 == pytest.approx(1.0, abs=1e-9)
    assert ts.h_star == pytest.approx(0.0, abs=1e-4)


def test_threshold_ordering_laws():
    for h in np.geomspace(0.01, 20.0, 200):
        ts = thresholds(float(h))
        assert ts.r2 < ts.r1
        if h > E_MINUS_1:
            assert ts.r1 < h


def test_threshold_consistency_with_equilibrium():
    for h in (0.3, 1.0, 2.6, 7.0):
        ts = thresholds(h)
        y_at_r1 = solve_equilibrium(ModelParams.constant(ts.r1, h)).y_bar
        assert y_at_r1 == pytest.approx(1.0 + h, abs=1e-9)
        y_at_r2 = solve_equilibrium(ModelParams.constant(ts.r2, h)).y_bar
        assert y_at_r2 == pytest.approx(ts.h_star, abs=1e-9)


def test_h_star_below_equilibrium_when_h_below_r():
    rng = np.random.default_rng(41)
    for _ in range(200):
        r = rng.uniform(0.1, 4.0)
        h = rng.uniform(0.01, 1.0) * r
        ts = thresholds(h)
        y = solve_equilibrium(ModelParams.constant(r, h)).y_bar
        assert ts.h_star <= y + 1e-12


def test_marginal_verdict_on_the_boundary():
    # solving exactly at r1(h) lands within the marginal band around 1 + h
    for h in (0.5, 2.0, 5.0):
        rep = solve_equilibrium(ModelParams.constant(thresholds(h).r1, h))
        assert rep.local_verdict is LocalVerdict.MARGINAL
        assert abs(rep.y_bar - (1.0 + h)) < 1e-10


def mp_r2(h):
    # h_star - h cancels about log10(h) digits
    with mp.workdps(50 + 2 * int(math.log10(h))):
        h = mp.mpf(h)
        h_star = (h + mp.sqrt(h * h + 4 * h)) / 2
        return float(h_star + mp.log(h_star - h) - mp.log(h_star))


@pytest.mark.parametrize("h", [1e16, 1e17])
def test_threshold_r2_at_huge_stocking_against_mpmath(h):
    # h_star - h rounds to 0 from h = 2^53 on; r2 must still be finite and right
    r2 = thresholds(h).r2
    assert abs(r2 - mp_r2(h)) <= 2 * math.ulp(r2)


def mp_h_star(h):
    with mp.workdps(50 + 2 * int(math.log10(h))):
        h = mp.mpf(h)
        return float((h + mp.sqrt(h * h + 4 * h)) / 2)


@pytest.mark.parametrize("h", [1e155, 1e200, 1e300])
def test_thresholds_where_h_squared_overflows(h):
    ts = thresholds(h)
    assert abs(ts.h_star - mp_h_star(h)) <= 2 * math.ulp(ts.h_star)
    assert abs(ts.r2 - mp_r2(h)) <= 2 * math.ulp(ts.r2)


@pytest.mark.parametrize("h", [1e16, 1e17])
def test_local_verdict_at_huge_stocking(h):
    # y - (1 + h) rounds to 0 here, but det = y e^{r-y} is about 0, far below 1
    rep = solve_equilibrium(ModelParams.constant(2.0, h))
    assert rep.local_verdict is LocalVerdict.LAS
    assert certify_constant(ModelParams.constant(2.0, h)).tag is VerdictTag.GLOBALLY_STABLE


def test_threshold_rejects_nonpositive():
    with pytest.raises(ValueError):
        thresholds(0.0)
    with pytest.raises(ValueError):
        thresholds(-1.0)


# ---------------------------------------------------------------------------
# intersections / feasibility / certification
# ---------------------------------------------------------------------------


def test_intersections_single_point_cases():
    pts = find_intersections(ModelParams.constant(2.0, 0.7))
    assert len(pts) == 1
    assert pts[0].x == pytest.approx(YBAR[(2.0, 0.7)], abs=1e-8)
    assert pts[0].x == pytest.approx(2.35, abs=5e-3)
    pts = find_intersections(ModelParams.constant(2.0, 3.0))
    assert len(pts) == 1
    assert pts[0].x == pytest.approx(YBAR[(2.0, 3.0)], abs=1e-8)


def test_intersections_three_point_case():
    pts = find_intersections(ModelParams.constant(2.0, 2.6))
    assert len(pts) == 3
    coords = sorted((p.x, p.y) for p in pts)
    assert coords[0] == pytest.approx((XSTAR_26, YSTAR_26), abs=5e-3)
    assert coords[1] == pytest.approx((YBAR[(2.0, 2.6)],) * 2, abs=5e-3)
    assert coords[2] == pytest.approx((YSTAR_26, XSTAR_26), abs=5e-3)
    # three-decimal reference values
    assert coords[0] == pytest.approx((2.741, 4.969), abs=5e-3)
    assert coords[1] == pytest.approx((3.424, 3.424), abs=5e-3)


def test_intersections_symmetric_pairing():
    pts = find_intersections(ModelParams.constant(2.0, 2.6))
    xs = sorted(p.x for p in pts)
    ys = sorted(p.y for p in pts)
    assert xs == pytest.approx(ys, abs=1e-8)


def _pseudo_pair(r, h):
    pts = find_intersections(ModelParams.constant(r, h))
    x_star, y_bar, y_star = (p.x for p in pts)
    assert pts == [(x_star, y_star), (y_bar, y_bar), (y_star, x_star)]
    return x_star, y_bar, y_star


def _assert_near_pseudo_pair(r, h, x_star, y_star, rel=1e-9):
    mx, my = mp_pseudo_pair(r, h)
    assert abs(x_star - float(mx)) <= rel * float(mx)
    assert abs(y_star - float(my)) <= rel * float(my)


# u places r between r2 and h.  At r2 the pair bifurcates off y_bar and is
# ill-conditioned in floats (error about 1e-16 / u), so u keeps 1e-3 away
# from there; as r nears h, g1 forms its denominator 1 - e^{r-t} with expm1,
# which does not cancel, so u runs to within 1e-9 of 1.
@settings(max_examples=100, deadline=None, database=None)
@given(log_h=st.floats(math.log(1e-3), math.log(1e3)), u=st.floats(1e-3, 1.0 - 1e-9))
def test_pseudo_pair_is_bracketed_and_matches_mpmath(log_h, u):
    h = math.exp(log_h)
    r2 = thresholds(h).r2
    r = r2 + u * (h - r2)
    assume(r2 < r < h)
    x_star, y_bar, y_star = _pseudo_pair(r, h)
    assert h <= x_star <= y_bar <= y_star <= _g1(h, r, h)
    assert y_bar == _equilibrium_root(r, h)
    _assert_near_pseudo_pair(r, h, x_star, y_star)


def test_pseudo_pair_far_beyond_the_old_scan_span():
    # y* is about 82, past the (r, r + 40] the grid scan used to cover
    r, h = 1.1995871901336117, 1.2145055622368421
    x_star, _, y_star = _pseudo_pair(r, h)
    assert y_star == pytest.approx(82.01882225799, abs=1e-9)
    _assert_near_pseudo_pair(r, h, x_star, y_star)


def test_pseudo_pair_closer_than_a_grid_cell():
    # midway between r2 and r1 at h = 1e5 the three points sit 0.008 apart
    r, h = 99989.4870545353, 1e5
    x_star, y_bar, y_star = _pseudo_pair(r, h)
    assert h < x_star < y_bar < y_star
    assert y_star - x_star < 0.02
    _assert_near_pseudo_pair(r, h, x_star, y_star)


@pytest.mark.parametrize("r, h", [(0.009999999, 0.01), (0.009999999999, 0.01)])
def test_pseudo_pair_as_r_nears_h(r, h):
    # x* - r is about h - r, where 1 - e^{r-t} formed by subtraction keeps
    # few digits: y* was 2.7e-8 and 2.3e-5 relative off there
    x_star, _, y_star = _pseudo_pair(r, h)
    _assert_near_pseudo_pair(r, h, x_star, y_star, rel=1e-15)


def test_pseudo_pair_takes_fewer_evaluations_than_two_bisections(monkeypatch):
    # Each evaluation of s(t) = g1(g1(t)) - t calls g1 twice.  Two full
    # bisections of [h, y_bar] and [y_bar, g1(h)] cost 75 to 111 evaluations
    # on these points; the two Newton solves take a median of 9, at most 28
    g1 = constant._g1
    calls = []
    monkeypatch.setattr(constant, "_g1", lambda t, r, h: calls.append(t) or g1(t, r, h))
    pairs = []
    rng = np.random.default_rng(2024)
    for log_h, u in zip(rng.uniform(math.log(1e-3), math.log(1e5), 200), rng.uniform(0.0, 1.0, 200)):
        h = float(math.exp(log_h))
        r2 = thresholds(h).r2
        r = r2 + float(u) * (h - r2)
        calls.clear()
        find_intersections(ModelParams.constant(r, h))
        # g1(h) once, then two evaluations for the end signs
        pairs.append((len(calls) - 5) // 2)
        halvings = []
        below = lambda t: halvings.append(t) or g1(g1(t, r, h), r, h) > t
        y_bar = _equilibrium_root(r, h)
        bisect(below, h, y_bar)
        bisect(below, y_bar, g1(h, r, h))
        assert pairs[-1] < len(halvings), (r, h)
    assert np.median(pairs) <= 12


def _solve_evaluations(monkeypatch):
    # the evaluations of s in each bracketed Newton solve, one list per solve
    solves = []
    solve = constant.bracketed_newton

    def counting(step, lo, hi, t):
        solves.append(0)

        def counted(t):
            solves[-1] += 1
            return step(t)

        return solve(counted, lo, hi, t)

    monkeypatch.setattr(constant, "bracketed_newton", counting)
    return solves


def test_pseudo_pair_steps_past_the_root_instead_of_halving(monkeypatch):
    # Newton reaches y*'s rounding band from above, and its steps stop
    # shrinking 3e-15 short of y* with the lower end of the bracket still at
    # y_bar; halving [3.95, 6.09] from there took 51 evaluations, 59 in all
    solves = _solve_evaluations(monkeypatch)
    r, h = 2.449062634229205, 3.0662523938765105
    x_star, _, y_star = _pseudo_pair(r, h)
    assert solves == [6, 11]
    _assert_near_pseudo_pair(r, h, x_star, y_star, rel=1e-15)


def test_pseudo_pair_evaluations_on_seeded_box_regime_points(monkeypatch):
    # both solves together: a median of 7 evaluations, as before the step
    # past the root, and at most 34, where halving the bracket from the
    # rounding band took up to 62; what remains above 30 (3 of these
    # points) is Newton's slow approach near r2, where x*, y_bar and y*
    # close up
    solves = _solve_evaluations(monkeypatch)
    rng = np.random.default_rng(2024)
    pairs = []
    for log_h, u in zip(rng.uniform(math.log(1e-3), math.log(1e5), 5000), rng.uniform(0.0, 1.0, 5000)):
        h = float(math.exp(log_h))
        r2 = thresholds(h).r2
        solves.clear()
        find_intersections(ModelParams.constant(r2 + float(u) * (h - r2), h))
        pairs.append(sum(solves))
    assert np.median(pairs) == 7
    assert max(pairs) <= 34


def test_pseudo_pair_with_h_within_rounding_of_r():
    # e^{r-h} rounds to 1, so g1(h) is infinite and there is no upper bracket
    with pytest.raises(BracketFailure, match="g1"):
        find_intersections(ModelParams.constant(0.1, 0.10000000000000002))


def test_feasible_ab_constructs_verified_boxes():
    params = ModelParams.constant(2.0, 3.0)
    box = feasible_ab(params, (3.7, 3.7))
    F = lambda x, y: x * math.exp(2.0 - y) + 3.0
    assert box.a <= 3.7 <= box.b
    assert box.a <= F(box.a, box.b)
    assert box.b >= F(box.b, box.a)

    params26 = ModelParams.constant(2.0, 2.6)
    box26 = feasible_ab(params26, (3.4, 3.4))
    assert 2.0 < box26.a < 2.6
    assert box26.b >= 5.0
    F26 = lambda x, y: x * math.exp(2.0 - y) + 2.6
    assert box26.a <= F26(box26.a, box26.b)
    assert box26.b >= F26(box26.b, box26.a)


def test_feasible_ab_infeasible_when_h_below_r():
    with pytest.raises(Infeasible):
        feasible_ab(ModelParams.constant(2.0, 0.7), (2.35, 2.35))


def test_certify_globally_stable():
    verdict = certify_constant(ModelParams.constant(1.8, 2.6))
    assert verdict.tag is VerdictTag.GLOBALLY_STABLE
    assert verdict.witness is not None
    # orbit validation: random starts converge to the equilibrium
    y = solve_equilibrium(ModelParams.constant(1.8, 2.6)).y_bar
    rng = np.random.default_rng(43)
    tails = orbit_batch(1.8, (2.6,), rng.uniform(0.0, 8.0, 100),
                        rng.uniform(0.0, 8.0, 100), 40_000, keep_last=4)
    assert np.max(np.abs(tails - y)) < 1e-6


def test_certify_absorbing_box():
    verdict = certify_constant(ModelParams.constant(2.0, 2.6))
    assert verdict.tag is VerdictTag.ABSORBING_BOX
    assert verdict.box == pytest.approx((XSTAR_26, YSTAR_26), abs=5e-3)
    # orbit tails respect the box
    rng = np.random.default_rng(47)
    tails = orbit_batch(2.0, (2.6,), rng.uniform(0.0, 9.0, 60),
                        rng.uniform(0.0, 9.0, 60), 30_000, keep_last=512)
    assert tails.min() >= verdict.box[0] - 1e-6
    assert tails.max() <= verdict.box[1] + 1e-6


def test_certify_unstable_and_open_regions():
    v = certify_constant(ModelParams.constant(2.0, 0.7))
    assert v.tag is VerdictTag.UNSTABLE
    assert v.local is LocalVerdict.UNSTABLE
    v2 = certify_constant(ModelParams.constant(1.2, 1.0))
    assert v2.tag is VerdictTag.LOCALLY_STABLE_GLOBAL_OPEN
    assert v2.local is LocalVerdict.LAS
    with pytest.raises(ValueError):
        certify_constant(ModelParams.constant(1.0, 0.0))


def test_certify_requires_constant_schedule():
    with pytest.raises(ValueError):
        certify_constant(ModelParams.two_periodic(1.0, 1.0, 2.0))
