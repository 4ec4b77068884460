import math

from hypothesis import given, settings, strategies as st

from ricker_lab._roots import bisect, bracketed_newton, newton_2d
from ricker_lab.periodic import _artificial_system


def _halving_newton_2d(system, x, y):
    # `newton_2d` as it read before a trial that rounds back to (x, y) ended
    # its halving: every trial down to a step of 1e-6 is evaluated
    r1, r2, j11, j12, j21, j22 = system(x, y)
    for _ in range(60):
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            break
        dx = (r1 * j22 - r2 * j12) / det
        dy = (r2 * j11 - r1 * j21) / det
        base = abs(r1) + abs(r2)
        step = 1.0
        while step > 1e-6:
            nx, ny = x - step * dx, y - step * dy
            try:
                trial = system(nx, ny)
            except OverflowError:
                trial = (math.inf,) * 6
            if abs(trial[0]) + abs(trial[1]) < base:
                break
            step *= 0.5
        else:
            break
        x, y = nx, ny
        r1, r2, j11, j12, j21, j22 = trial
        if abs(r1) + abs(r2) < 1e-14 * (1.0 + abs(x) + abs(y)):
            break
    return x, y


@settings(max_examples=300, deadline=None, database=None)
@given(r=st.floats(0.05, 4.0), h0=st.floats(0.0, 6.0), h1=st.floats(0.0, 6.0),
       x=st.floats(0.0, 12.0), y=st.floats(0.0, 12.0))
def test_newton_2d_that_stops_halving_at_a_trial_that_rounds_back_returns_the_same_point(r, h0, h1, x, y):
    # the artificial-cycle polish from an arbitrary seed: a trial that rounds
    # back to the current point has its residual, and so does every shorter
    # step, so stopping there returns the same float pair from fewer
    # evaluations
    calls = [0, 0]

    def counted(k):
        def system(x, y):
            calls[k] += 1
            return _artificial_system(x, y, r, h0, h1)
        return system

    assert newton_2d(counted(0), x, y) == _halving_newton_2d(counted(1), x, y)
    assert calls[0] <= calls[1]


def test_newton_2d_at_a_root_evaluates_its_system_once():
    # at an exact root the first step is zero and rounds back at once: only
    # the start is evaluated, where the halving evaluated 20 trials after it
    calls = []
    system = lambda x, y: calls.append((x, y)) or (x - 1.0, y - 2.0, 1.0, 0.0, 0.0, 1.0)
    assert newton_2d(system, 1.0, 2.0) == (1.0, 2.0)
    assert len(calls) == 1
    calls.clear()
    assert _halving_newton_2d(system, 1.0, 2.0) == (1.0, 2.0)
    assert len(calls) == 21


@settings(max_examples=300, deadline=None, database=None)
@given(c=st.floats(0.01, 5.0), k=st.floats(0.1, 50.0), below=st.floats(1e-3, 40.0),
       above=st.floats(1e-3, 40.0), start=st.floats(0.0, 1.0))
def test_bracketed_newton_stays_inside_its_bracket(c, k, below, above, start):
    # Newton on atan overshoots from far out, past the bracket and off to
    # either side; every point after the start must still lie strictly
    # inside the bracket the values before it give, and the solve ends at
    # the sign change, as the bisection does
    lo, hi = c - below, c + above
    t = lo + start * (hi - lo)
    points = []

    def step(t):
        points.append(t)
        return math.atan(k * (c - t)), -k / (1.0 + (k * (c - t)) ** 2)

    root = bracketed_newton(step, lo, hi, t)
    a, b = lo, hi
    for i, p in enumerate(points):
        if i:
            assert a < p < b
        if math.atan(k * (c - p)) > 0.0:
            a = p
        else:
            b = p
    assert abs(root - c) <= 2.0 * math.ulp(c)
    assert abs(root - bisect(lambda t: math.atan(k * (c - t)) > 0.0, lo, hi)) <= 2.0 * math.ulp(c)


def test_bracketed_newton_halves_where_the_slope_is_zero():
    # 2 - t^2 has slope 0 at the start 0: the first step is a halving
    points = []

    def step(t):
        points.append(t)
        return 2.0 - t * t, -2.0 * t

    root = bracketed_newton(step, 0.0, 2.0, 0.0)
    assert root == bisect(lambda t: 2.0 - t * t > 0.0, 0.0, 2.0)
    assert abs(root - math.sqrt(2.0)) <= math.ulp(root)
    assert points[1] == 1.0
    assert len(points) < 10
