import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    thresholds,
)
from ricker_lab import orbits
from ricker_lab._roots import bisect
from ricker_lab.constant import _r1
from ricker_lab.errors import NoCrossing, OrbitOverflow, RickerLabError

from _oracles import mp_equilibrium, orbit_batch

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


# At the equilibrium trace = 1 - h/y lies in (0, 1) and det = y - h > 0, so a
# real pair stays inside the unit circle and a complex pair has modulus
# sqrt(det): the only crossing in r is det = 1, that is y = 1 + h, at r1(h).
@settings(max_examples=60, deadline=None, database=None)
@given(h=st.floats(0.05, 50.0))
def test_ns_scan_constant_crossing_is_r1(h):
    r1, width = thresholds(h).r1, 1e-8
    report = neimark_sacker_scan(lambda s: ModelParams.constant(s, h), r1 - 0.25, r1 + 0.25,
                                 refine_width=width)
    assert abs(report.s_star - r1) <= width


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


def _reference_simulate(params, x0, x_minus1, n_steps):
    """The per-step loop simulate ran before, kept as its reference."""
    out = np.empty(n_steps)
    cur, prev = x0, x_minus1
    for n in range(n_steps):
        nxt = cur * math.exp(params.r - prev) + params.stocking[n % params.p]
        if not math.isfinite(nxt) or nxt > 1e300:
            raise OrbitOverflow(step=n + 1, value=nxt)
        out[n] = nxt
        prev, cur = cur, nxt
    return out


# r stays below 700, where e^{r - prev} itself is representable, so the
# reference loop never raises a bare OverflowError
@settings(max_examples=300, deadline=None, database=None)
@given(
    r=st.one_of(st.floats(0.01, 8.0), st.floats(8.0, 700.0)),
    stocking=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=3),
    x0=st.floats(0.0, 100.0),
    x_minus1=st.floats(0.0, 100.0),
    n_steps=st.integers(1, 400),
)
def test_simulate_matches_the_per_step_loop(r, stocking, x0, x_minus1, n_steps):
    params = ModelParams(r=r, stocking=tuple(stocking))
    try:
        expected = _reference_simulate(params, x0, x_minus1, n_steps)
    except OrbitOverflow as ref:
        with pytest.raises(OrbitOverflow) as exc:
            simulate(params, x0, x_minus1, n_steps)
        assert exc.value.step == ref.step
        assert exc.value.value == ref.value or not math.isfinite(ref.value)
        return
    assert np.array_equal(simulate(params, x0, x_minus1, n_steps), expected)


@pytest.mark.parametrize("stocking", [(1.0,), (0.82, 1.8), (0.5, 1.0, 2.0)])
def test_simulate_matches_the_per_step_loop_on_long_orbits(stocking):
    params = ModelParams(r=1.5, stocking=stocking)
    assert np.array_equal(simulate(params, 1.0, 1.05, 14_096),
                          _reference_simulate(params, 1.0, 1.05, 14_096))


def test_simulate_past_exp_overflow():
    # e^{r - prev} is past the float range at r = 800
    with pytest.raises(OrbitOverflow) as exc:
        simulate(ModelParams.constant(800.0, 1.0), 1.0, 1.0, 3)
    assert exc.value.step == 1 and exc.value.value == math.inf
    # a zero state times any growth factor is zero, so the term is h
    assert simulate(ModelParams.constant(800.0, 1.0), 0.0, 0.0, 1).tolist() == [1.0]
    # a small state brings the product back into range, x_1 = 1e-300 e^{800};
    # x_2 = x_1 e^{800 - 1e-300} is past the guard
    with pytest.raises(OrbitOverflow) as exc:
        simulate(ModelParams.constant(800.0, 0.0), 1e-300, 0.0, 3)
    assert exc.value.step == 2
    x1 = simulate(ModelParams.constant(800.0, 0.0), 1e-300, 0.0, 1)[0]
    assert x1 == pytest.approx(math.exp(800.0 + math.log(1e-300)), rel=1e-12)


def _reference_period(w, tol, max_period):
    """The period the 63-comparison loop picked: 1 for a collapsed window,
    the smallest matching k, or None."""
    if w.max() - w.min() < tol:
        return 1
    for k in range(2, max_period + 1):
        if np.max(np.abs(w[k:] - w[:-k])) < tol:
            return k
    return None


def _classify_window(w, tol):
    """classify_attractor on a window given directly, with no transient."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orbits, "simulate", lambda params, x0, x_minus1, n: w)
        return classify_attractor(ModelParams.constant(0.5, 1.0), 1.0, 1.0, transient=0,
                                  window=w.size, tol=tol)


@settings(max_examples=200, deadline=None, database=None)
@given(
    period=st.integers(2, 64),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from((0.0, 0.3, 0.9, 1.1, 3.0)),
    tol=st.sampled_from((0.0, 1e-6, 1e-3)),
)
def test_classify_picks_the_period_of_the_full_loop(period, seed, noise, tol):
    rng = np.random.default_rng(seed)
    w = np.tile(rng.uniform(1.0, 5.0, period), 4096 // period + 1)[:4096]
    w = w + noise * tol * rng.uniform(-0.5, 0.5, w.size)
    res = _classify_window(w, tol)
    assert res.period == _reference_period(w, tol, 64)
    if res.period is not None and res.period > 1:
        assert res.kind is AttractorKind.CYCLE
        assert res.points == tuple(w[-res.period:].tolist())


def test_classify_skips_a_period_that_matches_only_at_the_start():
    # period 3 except for one late entry: |w[3] - w[0]| < tol holds but the
    # full shift test at 3 fails, and the window repeats with period 6
    w = np.tile([1.0, 2.0, 3.0, 1.0, 2.0, 3.5], 700)[:4096]
    assert abs(w[3] - w[0]) < 1e-6
    res = _classify_window(w, 1e-6)
    assert res.kind is AttractorKind.CYCLE and res.period == 6 == _reference_period(w, 1e-6, 64)


def test_classify_with_zero_tolerance_finds_no_period():
    w = np.tile([1.0, 2.0], 2048)
    res = _classify_window(w, 0.0)
    assert res.period is None and _reference_period(w, 0.0, 64) is None
    assert res.kind is AttractorKind.UNRESOLVED


def _reference_ns_scan(family, s_lo, s_hi, steps=101, refine_width=1e-8):
    """The scan before it stopped at its first bracket: every grid point is
    evaluated, then the first sign change is bisected."""
    excess = lambda s: orbits._modulus_at(family(s))[0] - 1.0
    grid = np.linspace(s_lo, s_hi, steps)
    vals = [excess(float(s)) for s in grid]
    for i in range(steps - 1):
        if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0.0:
            bracket = (float(grid[i]), float(grid[i + 1]))
            flo = vals[i]
            break
    else:
        raise NoCrossing(f"eigenvalue modulus stays on one side of 1 over [{s_lo}, {s_hi}]")
    s_star = bisect(lambda s: flo * excess(s) > 0.0, *bracket, width=refine_width)
    params = family(s_star)
    modulus, lead = orbits._modulus_at(params)
    return orbits.CrossingReport(
        s_lo=bracket[0], s_hi=bracket[1], s_star=s_star, modulus=modulus,
        argument=math.atan2(abs(lead.imag), lead.real), complex_pair=lead.imag != 0.0,
        kind="equilibrium" if params.p == 1 else "two-cycle",
    )


# the scan-ns cases of tests/data/cli_points_golden.jsonl: (stocking, s_lo, s_hi, steps)
_GOLDEN_SCANS = [
    *(((h,), 0.5, h + 1.0 - math.log(h + 1.0) + 0.3, 101) for h in (0.3, 1.0, 2.6, 5.0)),
    ((1.0,), 1.0, 1.6, 7),
    ((2.0, 1.5), 0.5, 3.5, 101),
    ((0.82, 1.8), 0.5, 2.5, 101),
]


@pytest.mark.parametrize("stocking, s_lo, s_hi, steps", _GOLDEN_SCANS)
def test_ns_scan_matches_the_full_grid_and_stops_at_its_bracket(stocking, s_lo, s_hi, steps):
    calls = []

    def family(s):
        calls.append(s)
        return ModelParams(r=s, stocking=stocking)

    report = neimark_sacker_scan(family, s_lo, s_hi, steps=steps)
    scanned = list(calls)
    assert report == _reference_ns_scan(family, s_lo, s_hi, steps)
    # grid points 0 .. i + 1 in order, the bisection inside [grid[i], grid[i+1]],
    # then the crossing itself
    grid = np.linspace(s_lo, s_hi, steps).tolist()
    i = grid.index(report.s_lo)
    assert scanned[:i + 2] == grid[:i + 2] and grid[i + 1] == report.s_hi
    bisections = scanned[i + 2:-1]
    assert len(bisections) <= math.ceil(math.log2((report.s_hi - report.s_lo) / 1e-8))
    assert all(report.s_lo < s < report.s_hi for s in bisections)
    assert scanned[-1] == report.s_star
    assert len(scanned) <= i + 2 + len(bisections) + 1 < steps + len(bisections) + 1


def _same_scan(family, s_lo, s_hi, steps=101):
    """neimark_sacker_scan and the eigenvalue reference agree bit for bit:
    the same report, or the same error and message."""
    try:
        expected = _reference_ns_scan(family, s_lo, s_hi, steps)
    except RickerLabError as ref:
        with pytest.raises(type(ref)) as exc:
            neimark_sacker_scan(family, s_lo, s_hi, steps=steps)
        assert str(exc.value) == str(ref)
        return None
    report = neimark_sacker_scan(family, s_lo, s_hi, steps=steps)
    assert repr(report) == repr(expected)
    return report


def _mp_radius_minus_one_sign(r, h):
    """sign(spectral radius - 1) at the equilibrium, from the 50-digit root:
    the larger root of l^2 - Tr l + Det for a real pair, sqrt(Det) for a
    complex one."""
    with mp.workdps(60):
        y, h = mp_equilibrium(r, h), mp.mpf(h)
        tr, det = 1 - h / y, y - h
        disc = tr * tr - 4 * det
        radius = mp.sqrt(det) if disc < 0 else (tr + mp.sqrt(disc)) / 2
        return int(mp.sign(radius - 1))


# h = 0 or log-uniform on [1e-6, 1e8]; r on either side of r1(h), at least
# 1e-12 of r1 away from it and up to 0.89 r1
@settings(max_examples=300, deadline=None, database=None)
@given(
    h=st.one_of(st.just(0.0), st.floats(math.log(1e-6), math.log(1e8)).map(math.exp)),
    side=st.sampled_from((-1.0, 1.0)),
    offset=st.floats(-12.0, -0.05),
)
@example(h=0.0, side=-1.0, offset=-12.0)
@example(h=1e8, side=1.0, offset=-12.0)
def test_closed_form_sign_is_the_sign_of_radius_minus_one(h, side, offset):
    r1 = _r1(h)
    r = r1 * (1.0 + side * 10.0**offset)
    assume(abs(r - r1) > 1e-12 * r1)
    assert math.copysign(1.0, r - r1) == _mp_radius_minus_one_sign(r, h)


def test_constant_scans_match_the_eigenvalue_reference():
    # grids that miss r1 itself, where the reference's radius reads about
    # 1e-16 from 1 and either sign can come out
    rng = np.random.default_rng(18)
    for _ in range(300):
        h = 0.0 if rng.random() < 0.05 else float(np.exp(rng.uniform(math.log(1e-3), math.log(1e4))))
        r1 = _r1(h)
        s_lo, s_hi = r1 - float(rng.uniform(0.05, 0.5)), r1 + float(rng.uniform(0.05, 0.5))
        steps = int(rng.integers(5, 200))
        assert r1 not in np.linspace(s_lo, s_hi, steps).tolist()
        report = _same_scan(lambda s: ModelParams.constant(s, h), s_lo, s_hi, steps)
        assert abs(report.s_star - r1) <= 1e-8


# families along which h moves with s: the closed form decides each point
# at its own (r, h)
_MOVING_H = [
    (lambda s: ModelParams.constant(2.0, s), 0.5, 4.0),
    (lambda s: ModelParams.constant(s, 0.5 * s), 0.5, 4.0),
    (lambda s: ModelParams.constant(1.0 + 2.0 * s, math.exp(s)), 0.0, 3.0),
    (lambda s: ModelParams.constant(3.0, 10.0 - s), 0.0, 9.5),
]


@pytest.mark.parametrize("k", range(len(_MOVING_H)))
@pytest.mark.parametrize("steps", [7, 101])
def test_scans_with_stocking_moving_along_s_match_the_reference(k, steps):
    family, s_lo, s_hi = _MOVING_H[k]
    report = _same_scan(family, s_lo, s_hi, steps)
    params = family(report.s_star)
    assert abs(params.r - _r1(params.stocking[0])) <= 1e-7


def test_two_cycle_scans_match_the_reference():
    rng = np.random.default_rng(19)
    reports = [
        _same_scan(lambda s, h=tuple(rng.uniform(0.3, 3.0, 2)): ModelParams(r=s, stocking=h), 0.5, 3.5,
                   int(rng.integers(5, 60)))
        for _ in range(12)
    ]
    assert any(rep is not None and rep.kind == "two-cycle" for rep in reports)


def test_ns_scan_with_a_grid_point_on_r1():
    # the grid centred on r1 lands on it exactly, so the closed form reads
    # 0.0 there and the scan brackets from that point
    h, width = 2.5232434852593286, 1e-8
    r1 = thresholds(h).r1
    grid = np.linspace(r1 - 0.25, r1 + 0.25, 101).tolist()
    assert grid[50] == r1
    report = neimark_sacker_scan(lambda s: ModelParams.constant(s, h), r1 - 0.25, r1 + 0.25,
                                 refine_width=width)
    assert (report.s_lo, report.s_hi) == (r1, grid[51])
    assert abs(report.s_star - r1) <= width


def test_ns_scan_without_a_crossing_evaluates_every_point():
    calls = []

    def family(s):
        calls.append(s)
        return ModelParams.constant(s, 1.0)

    with pytest.raises(NoCrossing):
        neimark_sacker_scan(family, 0.1, 1.0, steps=37)
    assert calls == np.linspace(0.1, 1.0, 37).tolist()


def test_ns_scan_never_evaluates_past_its_bracket():
    # the trapping bounds overflow at r = 400, the last of the five grid
    # points; the first sign change lies in [0.5, 100.375], so it is not reached
    report = neimark_sacker_scan(lambda s: ModelParams.two_periodic(s, 1.0, 2.0), 0.5, 400.0, steps=5)
    assert (report.s_lo, report.s_hi) == (0.5, 100.375)
    assert report.kind == "two-cycle" and report.complex_pair
    assert report.modulus == pytest.approx(1.0, abs=1e-7)
