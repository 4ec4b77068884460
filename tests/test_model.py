import math

import mpmath as mp
import numpy as np
import pytest

from ricker_lab import ModelParams, PlanarPoint, density_f, simulate, step, vector_step

from _oracles import mp_equilibrium

# equilibrium of (r=2, h=3), frozen from the 40-digit bisection oracle
YBAR_2_3 = 3.6839070955344095


def test_minimal_period_normalization():
    assert ModelParams(r=1.0, stocking=(2.0, 2.0)).p == 1
    assert ModelParams(r=1.0, stocking=(2.0, 2.0)).stocking == (2.0,)
    assert ModelParams(r=1.0, stocking=(1.0, 2.0, 1.0, 2.0)).p == 2
    assert ModelParams(r=1.0, stocking=(1.0, 2.0, 3.0)).p == 3
    assert ModelParams.constant(1.0, 0.5).p == 1
    assert ModelParams.two_periodic(1.0, 1.0, 2.0).p == 2


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(r=0.0, stocking=(1.0,))
    with pytest.raises(ValueError):
        ModelParams(r=-2.0, stocking=(1.0,))
    with pytest.raises(ValueError):
        ModelParams(r=1.0, stocking=(-0.1,))
    with pytest.raises(ValueError):
        ModelParams(r=1.0, stocking=())
    with pytest.raises(ValueError):
        ModelParams(r=math.nan, stocking=(1.0,))
    # equal entries are legal: they collapse to constant stocking
    assert ModelParams.two_periodic(1.0, 2.0, 2.0).h_const == 2.0


def test_h_indexing():
    params = ModelParams.two_periodic(1.0, 2.0, 1.5)
    assert params.h(0) == 2.0
    assert params.h(1) == 1.5
    assert params.h(7) == 1.5
    assert ModelParams.constant(1.0, 3.0).h_const == 3.0
    with pytest.raises(ValueError):
        ModelParams.two_periodic(1.0, 2.0, 1.5).h_const


def test_density_identity_cases():
    assert density_f(2.0, 2.0) == 1.0
    for r in (0.3, 1.0, 5.7):
        assert density_f(r, r) == pytest.approx(1.0, abs=0.0)


def test_density_against_exponential_oracle():
    # e^{-1.684} via 40-digit arithmetic
    expected = float(mp.e ** mp.mpf("-1.684"))
    assert density_f(3.684, 2.0) == pytest.approx(expected, abs=1e-15)
    assert abs(density_f(3.684, 2.0) - 0.1857) < 1e-4


def test_density_strictly_decreasing():
    rng = np.random.default_rng(7)
    for _ in range(500):
        r = rng.uniform(0.1, 5.0)
        t1, t2 = np.sort(rng.uniform(-3.0, 20.0, size=2))
        if t1 == t2:
            continue
        assert density_f(t1, r) > density_f(t2, r)


def test_density_overflow_reported():
    with pytest.raises(OverflowError):
        density_f(-1000.0, 2.0)


def test_step_fixed_point():
    params = ModelParams.constant(2.0, 3.0)
    assert step(YBAR_2_3, YBAR_2_3, params) == pytest.approx(YBAR_2_3, abs=1e-12)


def test_step_unit_density():
    params = ModelParams(r=2.0, stocking=(0.0,))
    assert step(1.0, 2.0, params) == pytest.approx(1.0, abs=0.0)


def test_step_four_cycle_transition():
    # attracting 4-cycle of (r=3, h=(2, 6.444)), values frozen from a long
    # double-precision orbit; step into the even term uses the odd stocking
    params = ModelParams.two_periodic(3.0, 2.0, 6.444)
    c_even_a = 6.478884800574986
    c_odd_a = 19.611427242211448
    c_even_b = 7.048851454005471
    c_odd_b = 2.000000430394953
    assert step(c_odd_b, c_even_b, params, n=1) == pytest.approx(c_even_a, abs=1e-9)
    assert step(c_even_a, c_odd_b, params, n=0) == pytest.approx(c_odd_a, abs=1e-9)
    assert step(c_odd_a, c_even_a, params, n=1) == pytest.approx(c_even_b, abs=1e-9)
    assert step(c_even_b, c_odd_a, params, n=0) == pytest.approx(c_odd_b, abs=1e-9)
    # the three-decimal reference values agree to 5e-3
    for got, rounded in [(c_even_a, 6.479), (c_odd_a, 19.611), (c_even_b, 7.049), (c_odd_b, 2.000)]:
        assert abs(got - rounded) < 5e-3


def test_step_rejects_negative_states():
    params = ModelParams.constant(1.0, 1.0)
    with pytest.raises(ValueError):
        step(-0.1, 1.0, params)
    with pytest.raises(ValueError):
        step(1.0, -0.1, params)


def test_step_exceeds_stocking():
    rng = np.random.default_rng(11)
    for _ in range(300):
        r = rng.uniform(0.1, 4.0)
        h0, h1 = rng.uniform(0.0, 5.0, size=2)
        params = ModelParams(r=r, stocking=(h0, h1)) if h0 != h1 else ModelParams.constant(r, h0)
        x = rng.uniform(1e-9, 20.0)
        y = rng.uniform(0.0, 20.0)
        n = int(rng.integers(0, 4))
        assert step(x, y, params, n) > params.h(n)


def test_vector_step():
    params = ModelParams.constant(2.0, 3.0)
    pt = vector_step(PlanarPoint(YBAR_2_3, YBAR_2_3), params)
    assert pt.x == pytest.approx(YBAR_2_3, abs=1e-12)
    assert pt.y == YBAR_2_3
    # annihilation of the product term
    assert vector_step((0.0, 123.0), params) == PlanarPoint(3.0, 0.0)
    # applied at the 2-cycle of (r=1, h=(2, 1.5)): the odd-step map sends
    # (z1, z0) back to (z0, z1)
    params2 = ModelParams.two_periodic(1.0, 2.0, 1.5)
    out = vector_step((2.498, 2.230), params2, n=1)
    assert out.x == pytest.approx(2.230, abs=1e-3)
    assert out.y == 2.498


def test_two_step_bound_along_orbits():
    # x_{n+2} <= (e^r + h_n) e^r + h_{n+1}, per parity of n
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = rng.uniform(0.2, 3.0)
        h0, h1 = rng.uniform(0.0, 6.0, size=2)
        if h0 == h1:
            continue
        params = ModelParams(r=r, stocking=(h0, h1))
        orbit = simulate(params, rng.uniform(0, 5), rng.uniform(0, 5), 400)
        er = math.exp(r)
        bound_even = (er + h0) * er + h1  # terms x_{2k}
        bound_odd = (er + h1) * er + h0
        for idx in range(2, 400):  # x_{idx+1} with idx>=2 ensures two prior steps
            n = idx + 1
            bound = bound_even if n % 2 == 0 else bound_odd
            assert orbit[idx] <= bound + 1e-9


def test_monotone_in_first_antitone_in_second():
    rng = np.random.default_rng(5)
    params = ModelParams.constant(2.0, 1.3)
    for _ in range(500):
        x1, x2 = np.sort(rng.uniform(0.0, 15.0, size=2))
        y = rng.uniform(0.0, 15.0)
        if x1 != x2:
            assert step(x1, y, params) < step(x2, y, params) or x1 == 0.0
        y1, y2 = np.sort(rng.uniform(0.0, 15.0, size=2))
        x = rng.uniform(1e-6, 15.0)
        if y1 != y2:
            assert step(x, y1, params) > step(x, y2, params)


def test_equilibrium_value_matches_oracle():
    assert float(mp_equilibrium(2, 3)) == pytest.approx(YBAR_2_3, abs=1e-13)
