import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from ricker_lab._roots import bisect, bracketed_newton, newton_2d
from ricker_lab.periodic import _artificial_system, _offset_system


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

    assert newton_2d(counted(0), x, y)[:2] == _halving_newton_2d(counted(1), x, y)
    assert calls[0] <= calls[1]


def test_newton_2d_at_a_root_evaluates_its_system_once():
    # at an exact root the first step is zero and rounds back at once: only
    # the start is evaluated, where the halving evaluated 20 trials after it
    calls = []
    system = lambda x, y: calls.append((x, y)) or (x - 1.0, y - 2.0, 1.0, 0.0, 0.0, 1.0)
    assert newton_2d(system, 1.0, 2.0) == (1.0, 2.0, (0.0, 0.0, 1.0, 0.0, 0.0, 1.0))
    assert len(calls) == 1
    calls.clear()
    assert _halving_newton_2d(system, 1.0, 2.0) == (1.0, 2.0)
    assert len(calls) == 21


def _bits(values):
    return struct.pack("6d", *values)


def _newton_2d_exit(system, x, y):
    # newton_2d's point and values, with how its loop ended, read off its
    # evaluations: each one that sets a new least |r1| + |r2| is an accepted
    # step, since a trial is accepted exactly when it beats the current point,
    # and the residual test runs only after a step
    evaluated = []

    def recording(x, y):
        values = system(x, y)
        evaluated.append(abs(values[0]) + abs(values[1]))
        return values

    x, y, values = newton_2d(recording, x, y)
    steps = sum(e < min(evaluated[:i]) for i, e in enumerate(evaluated) if i)
    r1, r2, j11, j12, j21, j22 = values
    det = j11 * j22 - j12 * j21
    if steps and abs(r1) + abs(r2) < 1e-14 * (1.0 + abs(x) + abs(y)):
        end = "converged"
    elif steps == 60:
        end = "cap"
    elif det == 0.0 or not math.isfinite(det):
        end = "singular"
    else:
        dx, dy = (r1 * j22 - r2 * j12) / det, (r2 * j11 - r1 * j21) / det
        rounds = any(x - 0.5**k * dx == x and y - 0.5**k * dy == y for k in range(20))
        end = "rounds back" if rounds else "no decrease"
    return x, y, values, end


_SYSTEMS = {"offset": _offset_system, "artificial": _artificial_system}


@settings(max_examples=300, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_SYSTEMS)), r=st.floats(0.05, 4.0), h0=st.floats(0.0, 6.0),
       h1=st.floats(0.0, 6.0), x=st.floats(0.0, 12.0), y=st.floats(0.0, 12.0))
def test_newton_2d_returns_the_system_value_at_its_point(name, r, h0, h1, x, y):
    # the value newton_2d returns is the one its system gives at the point it
    # returns, bit for bit, so a caller can read it instead of evaluating again
    system = lambda x, y: _SYSTEMS[name](x, y, r, h0, h1)
    if name == "offset":
        x, y = x - 10.0, y - 10.0
    x, y, values, _ = _newton_2d_exit(system, x, y)
    assert _bits(values) == _bits(system(x, y))


@pytest.mark.parametrize("name, point, start, end", [
    ("offset", (40.0, 1.0, 2.0), (0.0, 0.0), "converged"),
    # the point newton_2d returns from (0, 0) at (40, 1, 2): its Newton step
    # is below the float spacing of a and b
    ("offset", (40.0, 1.0, 2.0), (3.6389171176766504, 3.664225987426484), "rounds back"),
    # with h0 = h1 = 0, 1 + e^a and 1 + e^b round to 1 and det to 0
    ("offset", (1.0, 0.0, 0.0), (-40.0, -40.0), "singular"),
    # e^a dominates E1 and E2, so each step moves a and b by about 1
    ("offset", (1.0, 0.5, 0.8), (300.0, 300.0), "cap"),
    ("artificial", (1.0, 2.0, 1.0), (1.805722382861676, 1.7473821459601313), "converged"),
    # (0, 0) is a root at h0 = h1 = 0: the first step is zero
    ("artificial", (1.0, 0.0, 0.0), (0.0, 0.0), "rounds back"),
    # with y = h1 = 0, j21 = 0, and this h0 makes e^{2r - x - P} round to 1, so j22 = 0
    ("artificial", (1.0, 2.0 - 0.5 - 0.5 * math.e, 0.0), (0.5, 0.0), "singular"),
    ("artificial", (1.7173604735517336, 0.17424472544920766, 1.3301499976382103),
     (5.254651123806864, 5.949746896582208), "cap"),
])
def test_newton_2d_returns_the_system_value_at_its_point_on_every_exit(name, point, start, end):
    system = lambda x, y: _SYSTEMS[name](x, y, *point)
    x, y, values, got = _newton_2d_exit(system, *start)
    assert got == end
    assert _bits(values) == _bits(system(x, y))


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
