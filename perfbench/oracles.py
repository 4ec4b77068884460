"""Output checks computed apart from ricker_lab.

Nothing here imports ricker_lab or the repository's tests.  The checks use
the paper's closed forms for r1, h* and r2, 40-digit mpmath roots and a
separately written numpy orbit iteration.  Every check raises CheckFailed
with a reason when an output is wrong and returns None otherwise.
"""
from __future__ import annotations

import json
import math

import mpmath
import numpy as np

DIGITS = 40
REL_TOL = 1e-9       # residuals and agreement with the mpmath roots
BAND = 1e-9          # verdict boundaries closer than this are not judged
ORBIT_STEPS = 4000   # even, so the last iterate is an even-indexed term, x_4000
ORBIT_STARTS = 4
SAMPLE = 16          # cells of the periodic sweep given the 40-digit and orbit checks
NS_REFINE_WIDTH = 1e-8   # neimark_sacker_scan's default refine width


class CheckFailed(Exception):
    """A program output disagrees with an independent check."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# closed forms and high-precision roots
# ---------------------------------------------------------------------------


def closed_forms(h: float) -> tuple[float, float, float]:
    """(r1, h*, r2) for constant stocking h, from the paper's closed forms."""
    with mpmath.workdps(DIGITS):
        hm = mpmath.mpf(h)
        r1 = hm + 1 - mpmath.log(hm + 1)
        hs = (hm + mpmath.sqrt(hm * hm + 4 * hm)) / 2
        r2 = hs + mpmath.log(hs - hm) - mpmath.log(hs)
        return float(r1), float(hs), float(r2)


def constant_verdict(r: float, h: float, y: float) -> str | None:
    """The paper's constant-stocking verdict rule for equilibrium y.

    GloballyStable iff r <= r2; otherwise Unstable iff y is above 1 + h;
    otherwise AbsorbingBox iff r < h; otherwise LocallyStableGlobalOpen.
    None within BAND of a boundary, where a verdict is not judged.
    """
    r2 = closed_forms(h)[2]
    if min(abs(r - r2), abs(y - 1.0 - h), abs(r - h)) <= BAND:
        return None
    if r <= r2:
        return "GloballyStable"
    if y > 1.0 + h:
        return "Unstable"
    return "AbsorbingBox" if r < h else "LocallyStableGlobalOpen"


def mp_equilibrium(r: float, h: float) -> mpmath.mpf:
    """The positive equilibrium y = y e^{r-y} + h to 40 digits.

    y (1 - e^{r-y}) increases on y > r, so the root on (max(r, h), h +
    e^{r-1} + 1] is unique; bisection finds it in floats and mpmath polishes.
    """
    phi = lambda y: y - y * math.exp(r - y) - h
    lo, hi = max(r, h), h + math.exp(r - 1.0) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    with mpmath.workdps(DIGITS):
        return mpmath.findroot(
            lambda y: y - y * mpmath.exp(r - y) - h, mpmath.mpf(0.5 * (lo + hi))
        )


def mp_root2(f1, f2, x0: float, x1: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """A 40-digit root of the planar system (f1, f2) near (x0, x1)."""
    with mpmath.workdps(DIGITS):
        root = mpmath.findroot([f1, f2], (mpmath.mpf(x0), mpmath.mpf(x1)))
        return root[0], root[1]


def mp_two_cycle(r: float, h0: float, h1: float, z0: float, z1: float):
    """The 2-cycle z0 = z1 e^{r-z0} + h1, z1 = z0 e^{r-z1} + h0 near (z0, z1)."""
    return mp_root2(
        lambda a, b: b * mpmath.exp(r - a) + h1 - a,
        lambda a, b: a * mpmath.exp(r - b) + h0 - b,
        z0, z1,
    )


def mp_pseudo_pair(r: float, h: float, x: float, y: float):
    """The pseudo fixed point x = x e^{r-y} + h, y = y e^{r-x} + h near (x, y)."""
    return mp_root2(
        lambda a, b: a * mpmath.exp(r - b) + h - a,
        lambda a, b: b * mpmath.exp(r - a) + h - b,
        x, y,
    )


def _close(value: float, exact, what: str) -> None:
    exact = float(exact)
    _require(
        math.isfinite(value) and abs(value - exact) <= REL_TOL * max(1.0, abs(exact)),
        f"{what} = {value!r} differs from the 40-digit root {exact!r}",
    )


def cycle_residuals(r, h0, h1, z0, z1):
    """Relative residuals of both 2-cycle equations (numpy-broadcasting)."""
    e0 = np.abs(z1 * np.exp(r - z0) + h1 - z0) / np.maximum(1.0, np.abs(z0))
    e1 = np.abs(z0 * np.exp(r - z1) + h0 - z1) / np.maximum(1.0, np.abs(z1))
    return np.maximum(e0, e1)


# ---------------------------------------------------------------------------
# orbit iteration
# ---------------------------------------------------------------------------


def orbit(r, h0, h1, x0, x_prev, steps: int) -> np.ndarray:
    """x_{k+1} = x_k e^{r - x_{k-1}} + h_{k mod 2} from (x_0, x_{-1}) = (x0, x_prev).

    Arrays broadcast, so many orbits run at once.  Row k of the result holds
    x_{k+1}, so even-indexed terms sit in the odd rows.
    """
    prev = np.asarray(x_prev, dtype=float)
    cur = np.asarray(x0, dtype=float)
    xs = np.empty((steps, *np.broadcast(cur, prev, r).shape))
    for k in range(steps):
        cur, prev = cur * np.exp(r - prev) + (h0 if k % 2 == 0 else h1), cur
        xs[k] = cur
    return xs


def check_orbits_converge(r, h0, h1, z0, z1, rng: np.random.Generator) -> None:
    """Orbits from ORBIT_STARTS seeded starts reach (z0, z1) in phase.

    Arguments are equal-length arrays of cells; each cell gets its own starts
    drawn from [0.1, 10]^2.
    """
    r, h0, h1, z0, z1 = (np.asarray(a, dtype=float) for a in (r, h0, h1, z0, z1))
    shape = (ORBIT_STARTS, r.size)
    xs = orbit(r, h0, h1, rng.uniform(0.1, 10.0, shape), rng.uniform(0.1, 10.0, shape), ORBIT_STEPS)
    err = np.maximum(np.abs(xs[-1] - z0) / z0, np.abs(xs[-2] - z1) / z1)
    worst = int(np.argmax(np.max(err, axis=0)))
    _require(
        bool(np.all(err <= 1e-6)),
        f"orbits at r={r[worst]!r}, h=({h0[worst]!r}, {h1[worst]!r}) do not reach "
        f"the cycle ({z0[worst]!r}, {z1[worst]!r}) in phase",
    )


# ---------------------------------------------------------------------------
# fixed points of the folded embedded map: the 2-cycle and artificial cycles
# ---------------------------------------------------------------------------

ART_POINTS = 1024    # x samples on each of a geometric and a linear scale
CYCLE_BAND = 1e-4    # a fixed point this close to the 2-cycle (relative) is not judged
NEAR_CYCLE = np.geomspace(1e-7, 1e-1, 60)   # extra x samples at z0 (1 -/+ these)
BISECTIONS = 52
CHUNK = 64           # cells scanned at once


# With P = x e^{r-y} + h0 and Q = y e^{r-x} + h1, a fixed point (x, y, Q, P)
# of the folded embedded map has x = P e^{r-Q} + h1 (the first equation) and
# y = Q e^{r-P} + h0 (the second).  The 2-cycle gives (x, y) = (z0, z1); every
# other fixed point is an artificial cycle.


def first_equation_y(x, r, h0, h1, y_max):
    """The y in (h0, y_max] solving the first fixed-point equation at each x,
    or nan where there is none.

    At fixed x the residual P e^{r-Q} + h1 - x falls strictly in y (P falls
    and Q rises), so the root is unique and bisection finds it.
    """
    ex = np.exp(r - x)

    def first(y):
        return (x * np.exp(r - y) + h0) * np.exp(r - h1 - y * ex) + h1 - x

    lo = np.broadcast_to(h0, x.shape) + 0.0
    hi = np.broadcast_to(y_max, x.shape) + 0.0
    found = (first(lo) > 0.0) & (first(hi) < 0.0)
    for _ in range(BISECTIONS):
        mid = 0.5 * (lo + hi)
        above = first(mid) > 0.0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return np.where(found, 0.5 * (lo + hi), np.nan)


def _second_on_first(x, r, h0, h1, y_max):
    """The second residual Q e^{r-P} + h0 - y along the curve where the first
    equation holds."""
    y = first_equation_y(x, r, h0, h1, y_max)
    p = x * np.exp(r - y) + h0
    q = y * np.exp(r - x) + h1
    return q * np.exp(r - p) + h0 - y


def artificial_brackets(r, h0, h1, z0) -> list:
    """For each cell, the x-brackets (lo, hi) of its artificial cycles.

    The fixed points in the trapping rectangle (h1, x_max] x (h0, y_max] are
    the sign changes, along x, of the second equation's residual on the
    curve where the first holds.  A cell whose 2-cycle is not seen as one
    sign change at z0, or that has a fixed point within CYCLE_BAND of it, is
    not judged and gets None.
    """
    r, h0, h1, z0 = (np.atleast_1d(np.asarray(a, dtype=float))[:, None] for a in (r, h0, h1, z0))
    er = np.exp(r)
    x_max, y_max = (er + h0) * er + h1, (er + h1) * er + h0
    u = np.concatenate([np.geomspace(1e-10, 1.0, ART_POINTS), np.linspace(0.0, 1.0, ART_POINTS)[1:-1]])
    result = []
    for k in range(0, r.shape[0], CHUNK):
        c = slice(k, k + CHUNK)
        x = np.sort(np.concatenate(
            [h1[c] + (x_max[c] - h1[c]) * u, z0[c] * (1.0 + NEAR_CYCLE), z0[c] * (1.0 - NEAR_CYCLE)], axis=1,
        ), axis=1)
        phi = _second_on_first(x, r[c], h0[c], h1[c], y_max[c])
        sign = np.signbit(phi)
        change = ~np.isnan(phi[:, :-1]) & ~np.isnan(phi[:, 1:]) & (sign[:, :-1] != sign[:, 1:])
        for xi, ci, z in zip(x, change, z0[c, 0]):
            lo, hi = xi[:-1][ci], xi[1:][ci]
            cycle = (lo <= z) & (z <= hi)
            far = (hi < z * (1.0 - CYCLE_BAND)) | (lo > z * (1.0 + CYCLE_BAND))
            judged = cycle.sum() == 1 and np.all(cycle | far)
            result.append((lo[far], hi[far]) if judged else None)
    return result


def artificial_cycles(r: float, h0: float, h1: float, lo, hi) -> list[tuple[float, float, float, float]]:
    """The artificial cycles (x, y, Q, P) of one cell, from their x-brackets,
    bisected in floats and polished to 40 digits."""
    er = math.exp(r)
    y_max = (er + h1) * er + h0
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    lo_sign = np.signbit(_second_on_first(lo, r, h0, h1, y_max))
    for _ in range(BISECTIONS):
        mid = 0.5 * (lo + hi)
        same = np.signbit(_second_on_first(mid, r, h0, h1, y_max)) == lo_sign
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    x = 0.5 * (lo + hi)
    cycles = []
    for xv, yv in zip(x, first_equation_y(x, r, h0, h1, y_max)):
        with mpmath.workdps(DIGITS):
            p = lambda a, b: a * mpmath.exp(r - b) + h0
            q = lambda a, b: b * mpmath.exp(r - a) + h1
            a, b = mp_root2(
                lambda a, b: p(a, b) * mpmath.exp(r - q(a, b)) + h1 - a,
                lambda a, b: q(a, b) * mpmath.exp(r - p(a, b)) + h0 - b,
                float(xv), float(yv),
            )
            cycles.append((float(a), float(b), float(q(a, b)), float(p(a, b))))
    return cycles


# ---------------------------------------------------------------------------
# sweep --mode periodic
# ---------------------------------------------------------------------------


def check_periodic_sweep(
    text: str, r: float, h0_vals: np.ndarray, h1_vals: np.ndarray, rng: np.random.Generator
) -> None:
    """Region CSV of one periodic sweep at growth rate r.

    Only the first six fields are parsed; whatever follows is the note, so a
    note carrying an unquoted comma does not break the parse.  Every
    certifiable cell's GloballyStable/AbsorbingBox split is judged by the
    separate artificial-cycle scan.
    """
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == "h0,h1,r,verdict,z0,z1,notes", "bad periodic header")
    rows = [line.split(",", 6) for line in lines[1:]]
    n = h0_vals.size * h1_vals.size
    _require(len(rows) == n, f"{len(rows)} rows, expected {n}")
    _require(all(len(row) == 7 for row in rows), "a periodic row holds fewer than 7 fields")
    num = np.array([[float(row[i]) for i in (0, 1, 2, 4, 5)] for row in rows])
    h0, h1, rr, z0, z1 = num.T
    verdicts = np.array([row[3] for row in rows])
    _require(
        np.array_equal(h0, np.repeat(h0_vals, h1_vals.size)) and np.array_equal(h1, np.tile(h1_vals, h0_vals.size))
        and bool(np.all(rr == r)),
        "rows are not the (h0, h1) grid in row-major order",
    )

    resid = cycle_residuals(rr, h0, h1, z0, z1)
    _require(bool(np.all(resid <= REL_TOL)), f"2-cycle residual {resid.max():.3e} above {REL_TOL}")
    off = h0 != h1
    _require(bool(np.all((h0 - h1)[off] * (z1 - z0)[off] > 0.0)), "a 2-cycle breaks (h0 - h1)(z1 - z0) > 0")
    not_applicable = (np.minimum(h0, h1) < r) | ~off
    _require(
        np.array_equal(verdicts == "NotApplicable", not_applicable),
        "NotApplicable does not appear exactly where min(h0, h1) < r or h0 = h1",
    )
    _require(
        set(verdicts[~not_applicable]) <= {"GloballyStable", "AbsorbingBox"},
        "a certifiable cell got a verdict other than GloballyStable or AbsorbingBox",
    )

    for i in rng.choice(np.flatnonzero(off), size=min(SAMPLE, int(off.sum())), replace=False):
        e0, e1 = mp_two_cycle(r, float(h0[i]), float(h1[i]), float(z0[i]), float(z1[i]))
        _close(float(z0[i]), e0, f"z0 at h=({h0[i]!r}, {h1[i]!r})")
        _close(float(z1[i]), e1, f"z1 at h=({h0[i]!r}, {h1[i]!r})")

    cells = np.flatnonzero(~not_applicable)
    for i, brackets in zip(cells, artificial_brackets(rr[cells], h0[cells], h1[cells], z0[cells])):
        if brackets is None:
            continue
        expected = "AbsorbingBox" if len(brackets[0]) else "GloballyStable"
        _require(
            verdicts[i] == expected,
            f"verdict {verdicts[i]} at h=({float(h0[i])!r}, {float(h1[i])!r}), where the scan finds "
            f"{len(brackets[0])} artificial cycles",
        )

    gs = np.flatnonzero(verdicts == "GloballyStable")
    if gs.size:
        pick = rng.choice(gs, size=min(SAMPLE, gs.size), replace=False)
        check_orbits_converge(rr[pick], h0[pick], h1[pick], z0[pick], z1[pick], rng)


# ---------------------------------------------------------------------------
# certify --json
# ---------------------------------------------------------------------------


def check_certify_constant(text: str, r: float, h: float) -> None:
    """certify --json output for a constant point in the absorbing-box regime."""
    out = json.loads(text)
    _require(out["mode"] == "constant" and out["r"] == r and out["h"] == h, "echoed parameters differ")
    y = out["y_bar"]
    _close(y, mp_equilibrium(r, h), f"y_bar at r={r!r}, h={h!r}")
    expected = constant_verdict(r, h, y)
    _require(
        expected is None or out["verdict"] == expected,
        f"verdict {out['verdict']} at r={r!r}, h={h!r}; the rule gives {expected}",
    )
    if out["verdict"] != "AbsorbingBox":
        return
    x_star, y_star = out["box"]
    ex, ey = mp_pseudo_pair(r, h, x_star, y_star)
    _close(x_star, ex, "box x*")
    _close(y_star, ey, "box y*")
    _require(x_star < y < y_star, f"box [{x_star!r}, {y_star!r}] does not hold y_bar = {y!r} inside")


def check_certify_periodic(text: str, r: float, h0: float, h1: float, rng: np.random.Generator) -> None:
    """certify --json output for a periodic point with min(h0, h1) > r."""
    out = json.loads(text)
    _require(out["mode"] == "periodic" and out["r"] == r and out["h0"] == h0 and out["h1"] == h1, "echoed parameters differ")
    z0, z1 = out["z0"], out["z1"]
    e0, e1 = mp_two_cycle(r, h0, h1, z0, z1)
    _close(z0, e0, f"z0 at r={r!r}, h=({h0!r}, {h1!r})")
    _close(z1, e1, f"z1 at r={r!r}, h=({h0!r}, {h1!r})")
    _require((h0 - h1) * (z1 - z0) > 0.0, "the 2-cycle breaks (h0 - h1)(z1 - z0) > 0")
    verdict = out["verdict"]
    _require(verdict in ("GloballyStable", "AbsorbingBox"), f"verdict {verdict} where min(h0, h1) > r")
    (brackets,) = artificial_brackets(r, h0, h1, z0)
    if brackets is not None:
        expected = "AbsorbingBox" if len(brackets[0]) else "GloballyStable"
        _require(verdict == expected, f"verdict {verdict}; the scan finds {len(brackets[0])} artificial cycles")
    if verdict == "GloballyStable":
        check_orbits_converge([r], [h0], [h1], [z0], [z1], rng)
        return
    (elo, ehi), (olo, ohi) = out["even_range"], out["odd_range"]
    _require(elo <= z0 <= ehi, f"z0 = {z0!r} outside even_range [{elo!r}, {ehi!r}]")
    _require(olo <= z1 <= ohi, f"z1 = {z1!r} outside odd_range [{olo!r}, {ohi!r}]")
    if brackets is not None:
        cycles = artificial_cycles(r, h0, h1, *brackets)
        for got, exact, what in (
            (elo, min(min(c[0], c[2]) for c in cycles), "even_range low"),
            (ehi, max(max(c[0], c[2]) for c in cycles), "even_range high"),
            (olo, min(min(c[3], c[1]) for c in cycles), "odd_range low"),
            (ohi, max(max(c[3], c[1]) for c in cycles), "odd_range high"),
        ):
            _close(got, exact, f"{what} (span of the artificial cycles)")
    _require(out["witness"] is not None, "AbsorbingBox without a witness box to start the tails from")
    a, b = out["witness"]
    shape = (ORBIT_STARTS * 4,)
    tail = orbit(r, h0, h1, rng.uniform(a, b, shape), rng.uniform(a, b, shape), ORBIT_STEPS)[ORBIT_STEPS // 2:]
    even, odd = tail[1::2], tail[0::2]
    slack = REL_TOL * max(ehi, ohi)
    _require(
        bool(np.all(even >= elo - slack) and np.all(even <= ehi + slack)
             and np.all(odd >= olo - slack) and np.all(odd <= ohi + slack)),
        "orbit tails from the witness box leave the even or odd range",
    )


# ---------------------------------------------------------------------------
# corner_iterate, neimark_sacker_scan, classify_attractor
# ---------------------------------------------------------------------------


def check_orbits_embedding(
    h: float, r_box: float, lower, upper, converged: bool, s_star: float, attractor_kind: str
) -> None:
    """One orbits-embedding composite for stocking h.

    lower/upper are the corner limits for growth rate r_box <= r2(h); s_star
    is the scanned crossing along r; attractor_kind is the label just past it.
    """
    _require(converged, "corner iteration did not converge")
    _require(
        max(abs(a - b) for a, b in zip(lower, upper)) <= REL_TOL * max(upper),
        f"corner limits {tuple(lower)} and {tuple(upper)} do not coincide",
    )
    y = mp_equilibrium(r_box, h)
    for c in (*lower, *upper):
        _close(c, y, f"corner limit at r={r_box!r}, h={h!r}")
    r1 = closed_forms(h)[0]
    _require(
        abs(s_star - r1) <= NS_REFINE_WIDTH,
        f"crossing at s={s_star!r}, closed form r1={r1!r} (refine width {NS_REFINE_WIDTH})",
    )
    _require(attractor_kind == "InvariantCurve", f"past the crossing the attractor is {attractor_kind}")
