import math

import mpmath as mp
import numpy as np
import pytest

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
from ricker_lab.constant import _equilibrium_root, _g1, _intersection_residual_grid, equilibria_grid
from ricker_lab.errors import Infeasible

from _oracles import mp_equilibrium, orbit_batch

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
    assert equilibria_grid(np.array([r]), np.array([h]))[0] == pytest.approx(expected, rel=4e-16)
    assert certify_constant(ModelParams.constant(r, h)).tag is tag


# past r of about 710, e^{r-1} overflows a float
@pytest.mark.parametrize("r, h", [(800.0, 1.0), (800.0, 900.0), (750.0, 1e-9)])
def test_equilibrium_past_exp_overflow_against_findroot(r, h):
    # mp_equilibrium's fixed 200 halvings cannot narrow a bracket as wide as
    # e^{r-1}, so the oracle here is mpmath's own root finder
    R, H = mp.mpf(r), mp.mpf(h)
    expected = float(mp.findroot(lambda y: y - y * mp.e ** (R - y) - H, max(R, H) + 1))
    assert solve_equilibrium(ModelParams.constant(r, h)).y_bar == pytest.approx(expected, rel=4e-16)
    assert equilibria_grid(np.array([r]), np.array([h]))[0] == pytest.approx(expected, rel=4e-16)


@pytest.mark.parametrize("r", [80.0, 200.0, 700.0, 750.0])
def test_equilibria_grid_equals_scalar_root_at_large_growth_rates(r):
    # a fixed count of halvings cannot narrow an e^{r-1}-wide bracket; the
    # r + h + 1 end is never wider than about twice the root
    assert equilibria_grid(np.array([r]), np.array([1.0]))[0] == _equilibrium_root(r, 1.0)


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


def test_equilibria_grid_matches_scalar():
    rng = np.random.default_rng(37)
    r = rng.uniform(0.1, 4.0, size=50)
    h = rng.uniform(0.01, 8.0, size=50)
    grid = equilibria_grid(r, h)
    for ri, hi, yi in zip(r, h, grid):
        assert yi == pytest.approx(solve_equilibrium(ModelParams.constant(ri, hi)).y_bar, abs=1e-9)


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


def test_threshold_rejects_nonpositive():
    with pytest.raises(ValueError):
        thresholds(0.0)
    with pytest.raises(ValueError):
        thresholds(-1.0)


# ---------------------------------------------------------------------------
# intersections / feasibility / certification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r, h", [
    (2.0, 2.6), (2.0, 0.7), (2.0, 3.0), (1.1995871901336117, 1.2145055622368421),
])
def test_intersection_grid_signs_match_scalar_loop(r, h):
    # the array scan may differ from math.exp in the last bit, but it must
    # pick the same brackets as the scalar s(t) = g1(g1(t)) - t
    def s(t):
        inner = _g1(t, r, h)
        if inner <= r:
            return math.nan
        return _g1(inner, r, h) - t

    ts = r + np.geomspace(1e-9, 40.0, 4096)
    scalar = np.array([s(float(t)) for t in ts])
    vector = _intersection_residual_grid(ts, r, h)
    # g1 decays to h, so g1(t) <= r on the far grid exactly when h < r
    assert np.isnan(scalar).any() == (h < r)
    assert np.array_equal(np.isnan(vector), np.isnan(scalar))
    assert np.array_equal(np.sign(vector), np.sign(scalar), equal_nan=True)
    np.testing.assert_allclose(vector, scalar, rtol=1e-12, atol=1e-12)


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
