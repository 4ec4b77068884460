import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ricker_lab
from ricker_lab import (
    AttractorKind,
    ModelParams,
    VerdictTag,
    certify_constant,
    certify_periodic,
    classify_attractor,
    neimark_sacker_scan,
    simulate,
    solve_two_cycle,
)
from ricker_lab.errors import NoCrossing, OrbitOverflow

from _oracles import orbit_batch

YBAR_05_1 = 1.5436268955915372
FOUR_CYCLE = (2.000000430394953, 6.478884800574986, 7.048851454005471, 19.611427242211448)


def test_simulate_deterministic():
    params = ModelParams.two_periodic(1.5, 0.82, 1.8)
    a = simulate(params, 1.3, 0.4, 5000)
    b = simulate(params, 1.3, 0.4, 5000)
    assert np.array_equal(a, b)


def test_simulate_matches_batch_oracle():
    # scalar math.exp and vectorized np.exp may differ by an ulp, so the
    # comparison is tight but not bitwise; the regime is contracting
    params = ModelParams.two_periodic(1.0, 2.0, 1.5)
    orbit = simulate(params, 0.9, 2.4, 200)
    tail = orbit_batch(1.0, (2.0, 1.5), np.array([0.9]), np.array([2.4]), 200, keep_last=200)
    assert np.allclose(orbit, tail[:, 0], rtol=1e-9, atol=1e-12)


def test_simulate_fixed_point_constant():
    params = ModelParams.constant(0.5, 1.0)
    orbit = simulate(params, YBAR_05_1, YBAR_05_1, 100)
    assert np.max(np.abs(orbit - YBAR_05_1)) < 1e-12


def test_simulate_converges_from_random_start():
    params = ModelParams.constant(0.5, 1.0)
    orbit = simulate(params, 0.123, 4.56, 5000)
    assert orbit[-1] == pytest.approx(YBAR_05_1, abs=1e-10)


def test_simulate_lower_bound_law():
    rng = np.random.default_rng(67)
    for _ in range(20):
        r = rng.uniform(0.2, 3.0)
        h0, h1 = rng.uniform(0.05, 4.0, size=2)
        params = ModelParams(r=r, stocking=(h0, h1)) if h0 != h1 else ModelParams.constant(r, h0)
        orbit = simulate(params, rng.uniform(0, 4), rng.uniform(0, 4), 300)
        # strict in exact arithmetic; equality occurs when the product term
        # rounds away below one ulp of the stocking value
        assert np.all(orbit[1:] >= min(h0, h1))


def test_simulate_validation_and_overflow():
    params = ModelParams.constant(1.0, 1.0)
    with pytest.raises(ValueError):
        simulate(params, -1.0, 0.0, 10)
    with pytest.raises(ValueError):
        simulate(params, 1.0, 1.0, 0)
    with pytest.raises(OrbitOverflow) as exc:
        simulate(ModelParams.constant(400.0, 0.0), 1.0, 0.0, 50)
    assert exc.value.step >= 1


def test_classify_equilibrium():
    res = classify_attractor(ModelParams.constant(0.5, 1.0), 2.0, 0.1)
    assert res.kind is AttractorKind.EQUILIBRIUM
    assert res.value == pytest.approx(YBAR_05_1, abs=1e-6)
    assert res.samples.shape == (4096, 2)


def test_classify_two_cycle():
    res = classify_attractor(ModelParams.two_periodic(1.0, 2.0, 1.5), 1.0, 1.0)
    assert res.kind is AttractorKind.CYCLE
    assert res.period == 2
    assert sorted(res.points) == pytest.approx([2.230, 2.498], abs=1e-3)
    # consecutive cycle points satisfy one step of the map: on a 2-cycle the
    # delayed state equals the target, so p1 = p0 f(p1) + h for one of the h's
    p0, p1 = res.points
    prod = p0 * math.exp(1.0 - p1)
    assert min(abs(prod + 2.0 - p1), abs(prod + 1.5 - p1)) < 1e-4


def test_classify_four_cycle():
    res = classify_attractor(ModelParams.two_periodic(3.0, 2.0, 6.444), 1.0, 1.0)
    assert res.kind is AttractorKind.CYCLE
    assert res.period == 4
    assert sorted(res.points) == pytest.approx(sorted(FOUR_CYCLE), abs=1e-6)
    assert sorted(res.points) == pytest.approx([2.000, 6.479, 7.049, 19.611], abs=5e-3)


def test_classify_invariant_curve():
    res = classify_attractor(ModelParams.two_periodic(1.5, 0.820, 1.800), 1.0, 1.0)
    assert res.kind is AttractorKind.INVARIANT_CURVE


def test_classify_window_validation():
    with pytest.raises(ValueError):
        classify_attractor(ModelParams.constant(1.0, 1.0), 1.0, 1.0, window=10, max_period=64)


def test_classification_consistent_with_certification():
    rng = np.random.default_rng(71)
    params = ModelParams.constant(1.8, 2.6)
    assert certify_constant(params).tag is VerdictTag.GLOBALLY_STABLE
    for _ in range(5):
        res = classify_attractor(params, rng.uniform(0.1, 6.0), rng.uniform(0.1, 6.0),
                                 transient=30_000)
        assert res.kind is AttractorKind.EQUILIBRIUM
    params2 = ModelParams.two_periodic(1.0, 2.0, 1.5)
    assert certify_periodic(params2).tag is VerdictTag.GLOBALLY_STABLE
    for _ in range(5):
        res = classify_attractor(params2, rng.uniform(0.1, 6.0), rng.uniform(0.1, 6.0))
        assert res.kind is AttractorKind.CYCLE and res.period == 2


def test_even_odd_tails_trapped_in_witness_box():
    # once inside a certified box the parity subsequences never leave it
    params = ModelParams.two_periodic(1.0, 2.0, 1.5)
    verdict = certify_periodic(params)
    a, b = verdict.witness
    orbit = simulate(params, 3.0, 3.0, 20_000)
    inside = np.where((orbit >= a) & (orbit <= b))[0]
    assert inside.size > 0
    k = inside[0]
    assert np.all(orbit[k:] >= a - 1e-12) and np.all(orbit[k:] <= b + 1e-12)


def test_ns_scan_constant():
    report = neimark_sacker_scan(lambda s: ModelParams.constant(s, 1.0), 1.0, 1.6)
    assert report.s_star == pytest.approx(2.0 - math.log(2.0), abs=1e-6)
    assert report.complex_pair
    assert report.modulus == pytest.approx(1.0, abs=1e-7)
    assert report.kind == "equilibrium"


def test_ns_scan_periodic():
    report = neimark_sacker_scan(
        lambda s: ModelParams.two_periodic(s, 0.820, 1.800), 1.2, 1.8
    )
    assert 1.45 <= report.s_star <= 1.55
    assert report.kind == "two-cycle"
    # modulus at the crossing equals sqrt(det) for the complex pair
    rep = solve_two_cycle(ModelParams.two_periodic(report.s_star, 0.820, 1.800))
    assert abs(rep.det - 1.0) < 1e-6


def test_ns_scan_no_crossing():
    with pytest.raises(NoCrossing):
        neimark_sacker_scan(lambda s: ModelParams.constant(s, 1.0), 0.1, 1.0)


@pytest.mark.parametrize("s_lo, s_hi", [(1.6, 1.0), (1.3, 1.3)])
def test_ns_scan_rejects_empty_range(s_lo, s_hi):
    with pytest.raises(ValueError, match="s_lo < s_hi"):
        neimark_sacker_scan(lambda s: ModelParams.constant(s, 1.0), s_lo, s_hi)


def test_ns_scan_zero_width_stops_at_float_resolution():
    # run in a child process, so that a bisection that never ends fails
    # this test on its timeout instead of hanging the suite
    code = (
        "from ricker_lab import ModelParams, neimark_sacker_scan\n"
        "rep = neimark_sacker_scan(lambda s: ModelParams.constant(s, 1.0), 1.0, 1.6, refine_width=0.0)\n"
        "print(repr(rep.s_star))\n"
    )
    src = str(Path(ricker_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=30)
    assert done.returncode == 0, done.stderr
    assert abs(float(done.stdout) - (2.0 - math.log(2.0))) <= 4e-16
