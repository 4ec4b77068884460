"""The root-finding primitives every scalar solver in the package shares; each
caller hands in its own predicate or residual."""
from __future__ import annotations

import math
from typing import Callable

# no side known in advance: every midpoint is evaluated
_UNKNOWN = (-math.inf, math.inf)
# the most Newton steps `newton_window` takes before it returns its bracket
_NEWTON_STEPS = 40
# how many rounding bands the window of `newton_window` reaches to either side
_WINDOW_BANDS = 8.0


def bisect(
    below: Callable[[float], bool],
    lo: float,
    hi: float,
    width: float = 0.0,
    known: tuple[float, float] = _UNKNOWN,
) -> float:
    """Midpoint of [lo, hi] after halving it down to `width` or float resolution.

    `below(t)` says whether t lies on the `lo` side of the root.  Halving
    stops once the bracket is no wider than `width` or has no float strictly
    inside it, so `width=0` always terminates.

    `known = (ta, tb)`, with lo <= ta < tb <= hi, are sides checked in
    advance, as `newton_window` returns them: a midpoint at or below ta
    counts as below and one at or above tb as above, without a call to
    `below`, so only midpoints strictly inside (ta, tb) are evaluated.  The
    halving is the same one, from the same bracket; the default evaluates
    every midpoint.  With width=0 the final pair is still a checked sign
    change.  Its ends are adjacent floats, each an end of [lo, hi], an
    evaluated midpoint or a midpoint taken as known.  A lower end taken as
    known lies at or below ta; the upper end lies above ta, since it is an
    evaluated midpoint inside (ta, tb), a midpoint at or above tb, or hi.
    With no float between them, that lower end is ta itself, whose side was
    checked.  Likewise an upper end taken as known is tb.
    """
    below_to, above_from = known
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid <= below_to or (mid < above_from and below(mid)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def newton_window(
    step: Callable[[float], tuple[float, float, float]],
    below: Callable[[float], bool],
    lo: float,
    hi: float,
    t: float,
) -> tuple[float, float]:
    """Sides of the root in [lo, hi] found by Newton's method, as `bisect`
    takes them: (ta, tb) with lo <= ta < tb <= hi, ta below the root unless
    it is lo and tb above it unless it is hi.

    The function is negative on the lo side of its root, and step(t)
    returns its value, its slope and an estimate of the value's rounding
    error at t.  The value must have the sign `below` reads, bit for bit:
    below(t) exactly where the value is negative.  Newton's method runs from
    t inside a bracket (a, b) that each value narrows, so a and b are sides
    read through the same floats as `below`.  Where a step would leave the
    bracket, is longer than half the step before the last one, or the slope
    is not positive and finite, it takes the bracket's midpoint instead, so
    a Newton that crawls gives way to halving; but a step past lo or hi
    while that is still an end of the bracket goes to the float next to it,
    so a root within rounding of an end is reached at once.  Newton settles
    where the step, |value| / slope, is within the band where rounding
    decides the sign, of half-width max(error / slope, ulp), unless that
    overflows, as for a subnormal slope.  The window then reaches
    `_WINDOW_BANDS` band half-widths to either side, cut at lo and hi, and
    `below` is called at its two ends.  Where both checks hold
    the window is returned; where one fails, or Newton does not settle
    within `_NEWTON_STEPS` steps, the bracket (a, b) is, so the bisection
    still skips every midpoint outside the part Newton has not ruled out.
    """
    a, b = lo, hi
    before_last = hi - lo  # the length of the step before the last one
    last = before_last
    for _ in range(_NEWTON_STEPS):
        f, slope, noise = step(t)
        if f < 0.0:
            a = t
        else:
            b = t
        if slope > 0.0 and math.isfinite(slope):
            band = max(noise / slope, math.ulp(t))
            if band < math.inf and abs(f) <= slope * band:
                w = _WINDOW_BANDS * band
                ta, tb = max(t - w, lo), min(t + w, hi)
                if (ta == lo or below(ta)) and (tb == hi or not below(tb)):
                    return ta, tb
                return a, b
            t_next = t - f / slope
        else:
            t_next = math.nan
        if a < t_next < b and 2.0 * abs(t_next - t) <= before_last:
            new = t_next
        elif t_next <= a and a == lo:
            new = math.nextafter(lo, hi)
        elif t_next >= b and b == hi:
            new = math.nextafter(hi, lo)
        else:
            new = 0.5 * (a + b)
        before_last, last = last, abs(new - t)
        t = new
    return a, b


def newton_2d(system: Callable[[float, float], tuple[float, ...]], x: float, y: float) -> tuple[float, float]:
    """Damped Newton from (x, y) on `system`, which returns the residuals and
    Jacobian (r1, r2, j11, j12, j21, j22); returns the last accepted point.

    Each step is halved from 1 down to 1e-6 until |r1| + |r2| decreases; a
    trial that overflows counts as no decrease.  The loop ends after 60
    steps, on a singular or non-finite Jacobian, when no step decreases the
    residual, or once |r1| + |r2| < 1e-14 (1 + |x| + |y|).
    """
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
