"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own solvers: equilibria are
recomputed by 50-digit and cycles by 40-digit mpmath bisection/Newton, and
orbits are re-simulated with a separate vectorized numpy iteration.  Expected
values frozen into the tests were produced by these same routines.
"""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 40


def mp_equilibrium(r, h) -> mp.mpf:
    """y - y e^{r-y} - h = 0 at 50 digits, bisected on (max(r, h), r + h + 1]
    until the bracket is below 1e-50 of its lower end.  The residual is
    taken as -y expm1(r - y) - h, which keeps its digits as y nears r."""
    if h == 0:
        return mp.mpf(r)
    with mp.workdps(50):
        r, h = mp.mpf(r), mp.mpf(h)
        lo, hi = max(r, h), r + h + 1
        tol = mp.mpf(10) ** -50
        while hi - lo > lo * tol:
            mid = (lo + hi) / 2
            if -mid * mp.expm1(r - mid) - h <= 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def _mp_bisect(below, lo, hi, steps=240) -> mp.mpf:
    for _ in range(steps):
        mid = (lo + hi) / 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def mp_pseudo_pair(r, h) -> tuple[mp.mpf, mp.mpf]:
    """High-precision pseudo fixed points (x*, y*), the 2-cycle of
    g1(t) = h / (1 - e^{r-t}), for r2 < r < h.

    The equilibrium is bisected on (max(r, h), r + h + 1], then x* on
    (h, y_bar) by the sign of g1(g1(t)) - t, which is positive between h and
    x* and negative between x* and y_bar; y* = g1(x*).
    """
    r, h = mp.mpf(r), mp.mpf(h)
    g1 = lambda t: h / (1 - mp.e ** (r - t))
    y_bar = _mp_bisect(lambda y: y - y * mp.e ** (r - y) - h <= 0, max(r, h), r + h + 1)
    x_star = _mp_bisect(lambda t: g1(g1(t)) - t > 0, h, y_bar)
    return x_star, g1(x_star)


def mp_two_cycle(r, h0, h1, z0_lo, z0_hi) -> tuple[mp.mpf, mp.mpf]:
    """High-precision 2-cycle from the scalar reduction on a given bracket."""
    r, h0, h1 = mp.mpf(r), mp.mpf(h0), mp.mpf(h1)
    z1_of = lambda z0: (z0 - h1) * mp.e ** (z0 - r)
    phi = lambda z0: z1_of(z0) - h0 - z0 * mp.e ** (r - z1_of(z0))
    lo, hi = mp.mpf(z0_lo), mp.mpf(z0_hi)
    flo = phi(lo)
    assert flo * phi(hi) < 0
    for _ in range(220):
        mid = (lo + hi) / 2
        if flo * phi(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = phi(lo)
    z0 = (lo + hi) / 2
    return z0, z1_of(z0)


def mp_two_cycle_near(r, h0, h1, z0) -> tuple[mp.mpf, mp.mpf]:
    """High-precision 2-cycle from mpmath's root finder on the scalar
    reduction, started at z0."""
    r, h0, h1 = mp.mpf(r), mp.mpf(h0), mp.mpf(h1)
    z1_of = lambda z0: (z0 - h1) * mp.e ** (z0 - r)
    root = mp.findroot(lambda z0: z1_of(z0) - h0 - z0 * mp.e ** (r - z1_of(z0)), mp.mpf(z0))
    return root, z1_of(root)


def orbit_batch(r: float, stocking, x0: np.ndarray, xm1: np.ndarray, n_steps: int,
                keep_last: int = 0) -> np.ndarray:
    """Vectorized orbits for many initial conditions at once.

    Returns the last `keep_last` terms per orbit as an array of shape
    (keep_last, len(x0)); row k holds x_{n_steps - keep_last + 1 + k}.
    """
    stocking = tuple(float(h) for h in stocking)
    p = len(stocking)
    cur = np.asarray(x0, dtype=float).copy()
    prev = np.asarray(xm1, dtype=float).copy()
    kept = np.empty((keep_last, cur.size)) if keep_last else None
    for n in range(n_steps):
        nxt = cur * np.exp(r - prev) + stocking[n % p]
        prev, cur = cur, nxt
        if keep_last and n >= n_steps - keep_last:
            kept[n - (n_steps - keep_last)] = cur
    if keep_last:
        # shift: loop stored steps n_steps-keep_last .. n_steps-1 at offsets 0..keep_last-1
        return kept
    return np.vstack([cur, prev])


def strict_witness(r: float, stocking, a: float, b: float, lo: float, hi: float) -> bool:
    """Whether [a, b]^2 holds [lo, hi] strictly and the maps
    F_j(x, y) = x e^{r-y} + h_j of one stocking period, applied in turn to
    the lower corner (a, b, b, a) of the embedding, each leave its x image
    strictly above a and its u image strictly below b.  Plain float
    arithmetic, none of the library's code."""
    if not (a < lo and hi < b):
        return False
    x, y, u, v = a, b, b, a
    for h in stocking:
        x, y, u, v = x * math.exp(r - y) + h, u, u * math.exp(r - v) + h, x
        if not (x > a and u < b):
            return False
    return True
