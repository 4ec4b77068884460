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
