import math

import pytest
from hypothesis import example, given, settings, strategies as st

from ricker_lab._roots import bisect, newton_window


def _cubic_step(c):
    # t^3 - c with its slope and a rounding error of a few ulps of its terms
    return lambda t: (t**3 - c, 3.0 * t * t, 4.0 * 2.0**-52 * (abs(t**3) + c))


@settings(max_examples=200, deadline=None, database=None)
@given(c=st.floats(1e-3, 1e3), start=st.floats(0.0, 1.0))
# a start this close to 0 has a subnormal slope, whose band overflowed and
# counted as settled, so the window was the whole bracket
@example(c=2.0, start=1.635230910536983e-163)
def test_known_sides_leave_the_bisection_as_it_is(c, start):
    # the same float as with every midpoint evaluated, from fewer evaluations,
    # and none outside the window
    lo, hi = 0.0, 11.0
    below = lambda t: t**3 - c < 0.0
    window = newton_window(_cubic_step(c), below, lo, hi, lo + start * (hi - lo))
    ta, tb = window
    assert lo <= ta < tb <= hi and below(ta) and not below(tb)
    assert tb - ta < 1e-12 * c ** (1 / 3)
    calls = []
    got = bisect(lambda t: calls.append(t) or below(t), lo, hi, known=window)
    assert got == bisect(below, lo, hi)
    assert all(ta < t < tb for t in calls) and len(calls) < 20


def test_a_failed_window_check_returns_the_newton_bracket():
    # the value is t - 1.5 but its sign turns over within 1e-12 below 1.5,
    # far past the rounding error it declares: Newton settles at 1.5, the
    # window's lower end reads above, and the sides Newton read are returned
    f = lambda t: t - 1.5 if abs(t - 1.5) >= 1e-12 else 1.5 - t
    below = lambda t: f(t) < 0.0
    window = newton_window(lambda t: (f(t), 1.0, 2.0**-52), below, 0.0, 3.0, 1.0)
    assert window == (1.0, 1.5)
    assert bisect(below, 0.0, 3.0, known=window) == bisect(below, 0.0, 3.0)


def test_newton_that_never_settles_returns_its_bracket():
    # a value that stays 1, with no finite slope, never settles: each of the
    # 40 steps halves the bracket toward lo, and the bisection takes it up
    # there; the predicate, which agrees with the value, is never called by
    # the window
    calls = []
    below = lambda t: calls.append(t) or False
    ta, tb = newton_window(lambda t: (1.0, math.nan, 0.0), below, 1.0, 4.0, 2.5)
    assert calls == []
    assert ta == 1.0 and tb == 1.0 + 1.5 * 2.0**-39
    calls.clear()
    full = bisect(below, 1.0, 4.0)
    every = len(calls)
    calls.clear()
    assert bisect(below, 1.0, 4.0, known=(ta, tb)) == full
    assert len(calls) == every - 40 and all(t < tb for t in calls)


@pytest.mark.parametrize("end", ["lo", "hi"])
def test_a_root_within_rounding_of_an_end_is_reached_at_once(end):
    # a Newton step past an end still of the bracket goes to the float next
    # to it; the window is cut at that end, whose side is not checked again
    lo, hi = 1.0, 2.0
    root = math.nextafter(lo, hi) if end == "lo" else math.nextafter(hi, lo)
    steps = []
    step = lambda t: steps.append(t) or (t - root, 1.0, 2.0**-52)
    calls = []
    ta, tb = newton_window(step, lambda t: calls.append(t) or t < root, lo, hi, 1.5)
    assert len(steps) <= 3
    assert (ta == lo) if end == "lo" else (tb == hi)
    assert lo not in calls and hi not in calls
