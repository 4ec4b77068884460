"""The root-finding primitives every scalar solver in the package shares; each
caller hands in its own predicate or residual."""
from __future__ import annotations

import math
from typing import Callable


def bisect(below: Callable[[float], bool], lo: float, hi: float, width: float = 0.0) -> float:
    """Midpoint of [lo, hi] after halving it down to `width` or float resolution.

    `below(t)` says whether t lies on the `lo` side of the root.  Halving
    stops once the bracket is no wider than `width` or has no float strictly
    inside it, so `width=0` always terminates.
    """
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bracketed_newton(step: Callable[[float], tuple[float, float]], lo: float, hi: float, t: float) -> float:
    """Root of a function on [lo, hi] by Newton's method from t in [lo, hi],
    kept inside the function's sign bracket (Press et al., Numerical Recipes,
    section 9.4, `rtsafe`).

    `step(t)` returns the value and slope at t; a value above 0 puts t on
    the `lo` side of the root, as `below` does for `bisect`, and each
    evaluation moves that side's end of the bracket to t.  A Newton step
    that does not land strictly inside the bracket, or is more than half the
    step before the last one, is replaced by the bracket's midpoint.  Where
    Newton reaches the rounding band of the function from one side, its
    steps stop shrinking while the far end of the bracket is still where
    the first steps left it; so a Newton step that lands inside the bracket
    but fails to shrink is first replaced by twice itself, which steps past
    the root and closes the bracket about it, and a second such step in a
    row by the midpoint.  Like `bisect` it ends on float resolution: at a
    Newton step that rounds back to t, returning t, or at a midpoint with no
    float strictly inside the bracket, returning that midpoint.  Every point
    after the first lies strictly inside the bracket, which so shrinks with
    each evaluation, and of any two replaced steps in a row one halves it.
    """
    last = older = hi - lo
    probed = False
    while True:
        value, slope = step(t)
        if value > 0.0:
            lo = t
        else:
            hi = t
        nxt = t - value / slope if slope else math.nan
        if nxt == t:
            return t
        if not lo < nxt < hi or 2.0 * abs(nxt - t) > abs(older):
            past = 2.0 * nxt - t
            probed = not probed and lo < past < hi
            nxt = past if probed else 0.5 * (lo + hi)
            if not lo < nxt < hi:
                return nxt
        else:
            probed = False
        older, last = last, nxt - t
        t = nxt


def newton_2d(
    system: Callable[[float, float], tuple[float, ...]], x: float, y: float
) -> tuple[float, float, tuple[float, ...]]:
    """Damped Newton from (x, y) on `system`, which returns the residuals and
    Jacobian (r1, r2, j11, j12, j21, j22); returns the last accepted point
    and `system`'s value there, so a caller need not evaluate it again.

    Each step is halved from 1 down to 1e-6 until |r1| + |r2| decreases; a
    trial that overflows counts as no decrease.  The loop ends after 60
    steps, on a singular or non-finite Jacobian, when no step decreases the
    residual, or once |r1| + |r2| < 1e-14 (1 + |x| + |y|).  A trial that
    rounds back to (x, y) ends the halving at once: its residual is the one
    it would improve on, and so, since rounding is monotone, is that of
    every shorter step.
    """
    values = system(x, y)
    for _ in range(60):
        r1, r2, j11, j12, j21, j22 = values
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            break
        dx = (r1 * j22 - r2 * j12) / det
        dy = (r2 * j11 - r1 * j21) / det
        base = abs(r1) + abs(r2)
        step = 1.0
        while step > 1e-6:
            nx, ny = x - step * dx, y - step * dy
            if nx == x and ny == y:
                return x, y, values
            try:
                trial = system(nx, ny)
            except OverflowError:
                trial = (math.inf,) * 6
            if abs(trial[0]) + abs(trial[1]) < base:
                break
            step *= 0.5
        else:
            break
        x, y, values = nx, ny, trial
        if abs(trial[0]) + abs(trial[1]) < 1e-14 * (1.0 + abs(x) + abs(y)):
            break
    return x, y, values
