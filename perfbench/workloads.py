"""The three workloads: seeded inputs, one round of ops each, and their checks.

ricker_lab is reached only through public entry points: `cli.main` with its
standard output and error captured, or the functions exported by the
package.  Every op is a whole call made from the caller's thread.  A run
repeats one round of ops, so each run attempts whole rounds of the same ops.
"""
from __future__ import annotations

import io
import itertools
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

# Library functions are looked up on the package at call time, so the tracer's
# wrappers on the package namespace see these calls too.
import ricker_lab as rl
from ricker_lab import ModelParams, PlanarPoint, cli
from ricker_lab.errors import RickerLabError

OUT_DIR = Path(__file__).resolve().parent / "out"

WORKLOADS = ("sweep-periodic", "point-certify", "orbits-embedding")

# The README's periodic region-map recipe, split into its four interleaved
# 20x20 sub-lattices: op (i, j) sweeps the h0 rows i, i + 2, ... against the
# h1 columns j, j + 2, ....  Each holds the same mix of regions, so the ops
# are alike, and a round of them covers the whole plane.  Ops of ~0.8 s,
# rather than one ~3 s op for the plane, put a few dozen ops in a run, so its
# median is not that of a handful.  Each lattice axis is passed to the CLI by
# its ends and respaced there, so both axes of ops (0, 0) and (1, 1) are the
# same floats and their diagonal cells have h0 == h1 exactly: cells an ulp
# off the diagonal make the sweep fail (see "Program faults" in README.md).
PERIODIC_GRID = dict(r=1.0, lo=0.3, hi=3.0, n=40, art_grid=128)

# point-certify round: 10 constant points, 5 periodic points and 1 point of
# the known find_intersections span fault (h - r < 0.02; the far pseudo fixed
# point y* ~ 82 lies beyond the scanned t <= r + 40, so certify exits 3).
# Of the 15 ops that succeed, 2/3 are the ~7 ms constant ops and 1/3 the
# ~66 ms periodic ops, so the median sits among the constant ops, away from
# the 2/3 boundary between the kinds.
CONSTANT_PER_ROUND = 10
PERIODIC_PER_ROUND = 5
KNOWN_FAILING = (1.1995871901336117, 1.2145055622368421)  # (r, h); fixed, not seeded

EMBEDDING_PER_ROUND = 8
NS_HALF_WIDTH = 0.25   # scan r over r1(h) -/+ this
PAST_CROSSING = 0.05   # classify the attractor this far beyond the crossing


def _oracles():
    """The checks, imported on first use so that mpmath stays out of set-up."""
    import oracles

    return oracles


def _closed_r1_r2(h: float) -> tuple[float, float]:
    """(r1, r2) from the paper's closed forms, for drawing inputs."""
    r1 = h + 1.0 - math.log(h + 1.0)
    hs = 0.5 * (h + math.sqrt(h * h + 4.0 * h))
    return r1, hs + math.log(hs - h) - math.log(hs)


def _strata(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """One uniform draw in each of n equal strata of [lo, hi], so every seed
    covers the range evenly and rounds cost about the same across seeds."""
    return lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n


class CliOp:
    """One `cli.main` call with standard output and error captured."""

    def __init__(self, kind: str, argv: list[str], check):
        """`check(output, rng)` raises when the output is wrong."""
        self.kind, self.argv, self.check = kind, argv, check

    def run(self) -> str | None:
        """Run the call; returns None on exit code 0, else the error text."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(self.argv)
        self.stdout = out.getvalue()
        if code != 0:
            return f"exit {code}: {err.getvalue().strip()}"
        return None

    def output(self) -> tuple[str]:
        return (self.stdout,)


class EmbeddingOp:
    """corner_iterate on a witness box, the NS scan across r1(h), and the
    attractor label just past the crossing, for one stocking level h."""

    kind = "embedding"

    def __init__(self, h: float, r_box: float):
        self.h, self.r_box = h, r_box

    def run(self) -> str | None:
        h = self.h
        try:
            params = ModelParams.constant(self.r_box, h)
            y = rl.solve_equilibrium(params).y_bar
            box = rl.feasible_ab(params, PlanarPoint(y, y))
            enc = rl.corner_iterate(rl.build_embedding(rl.planar_maps(params)[0]), box)
            r1 = _closed_r1_r2(h)[0]
            scan = rl.neimark_sacker_scan(
                lambda s: ModelParams.constant(s, h), r1 - NS_HALF_WIDTH, r1 + NS_HALF_WIDTH
            )
            past = rl.classify_attractor(
                ModelParams.constant(scan.s_star + PAST_CROSSING, h), 1.0 + h, 1.05 + h
            )
        except RickerLabError as exc:
            return f"{type(exc).__name__}: {exc}"
        self.result = (
            tuple(enc.lower), tuple(enc.upper), enc.converged, scan.s_star, past.kind.value,
        )
        return None

    def output(self):
        return self.result

    def check(self, output, rng: np.random.Generator) -> None:
        lower, upper, converged, s_star, kind = output
        _oracles().check_orbits_embedding(
            self.h, self.r_box, lower, upper, converged, s_star, kind
        )


def _fmt(x: float) -> str:
    return repr(float(x))


def sweep_periodic_ops(rng: np.random.Generator) -> list:
    g = PERIODIC_GRID
    axis = np.linspace(g["lo"], g["hi"], g["n"])
    ops = []
    for rows, cols in itertools.product((axis[0::2], axis[1::2]), repeat=2):
        argv = [
            "sweep", "--mode", "periodic", "--r", _fmt(g["r"]),
            "--h0-lo", _fmt(rows[0]), "--h0-hi", _fmt(rows[-1]), "--nh0", str(rows.size),
            "--h1-lo", _fmt(cols[0]), "--h1-hi", _fmt(cols[-1]), "--nh1", str(cols.size),
            "--art-grid", str(g["art_grid"]), "--out", "-",
        ]
        # The CLI respaces each axis from its ends; that can differ from `rows` in the last bit.
        respaced = [np.linspace(sub[0], sub[-1], sub.size) for sub in (rows, cols)]
        ops.append(CliOp("sweep", argv, _periodic_sweep_check(*respaced)))
    return ops


def _periodic_sweep_check(h0_vals: np.ndarray, h1_vals: np.ndarray):
    def check(output, check_rng):
        _oracles().check_periodic_sweep(output[0], PERIODIC_GRID["r"], h0_vals, h1_vals, check_rng)

    return check


def constant_points(rng: np.random.Generator, n: int) -> list[tuple[float, float]]:
    """(r, h) in the absorbing-box regime r2(h) < r < min(h, r1(h)), h in [0.5, 4].

    r is drawn from the inner 10%-80% of the regime, which keeps h - r at
    least twice the width where the far pseudo fixed point passes r + 40.
    """
    points = []
    for h, u in zip(_strata(rng, 0.5, 4.0, n), rng.uniform(0.1, 0.8, n)):
        r1, r2 = _closed_r1_r2(float(h))
        points.append((r2 + u * (min(h, r1) - r2), float(h)))
    return points


def periodic_points(rng: np.random.Generator, n: int) -> list[tuple[float, float, float]]:
    """(r, h0, h1) with r in [0.6, 1.4] and both h0, h1 in [r + 0.1, r + 2.5]."""
    rs = _strata(rng, 0.6, 1.4, n)
    return [
        (float(r), float(r + rng.uniform(0.1, 2.5)), float(r + rng.uniform(0.1, 2.5)))
        for r in rs
    ]


def certify_constant_op(kind: str, r: float, h: float) -> CliOp:
    def check(output, check_rng):
        _oracles().check_certify_constant(output[0], r, h)

    return CliOp(kind, ["certify", "--r", _fmt(r), "--h", _fmt(h), "--json"], check)


def certify_periodic_op(r: float, h0: float, h1: float) -> CliOp:
    def check(output, check_rng):
        _oracles().check_certify_periodic(output[0], r, h0, h1, check_rng)

    return CliOp("periodic", ["certify", "--r", _fmt(r), "--h0", _fmt(h0), "--h1", _fmt(h1), "--json"], check)


def point_certify_ops(rng: np.random.Generator) -> list:
    const = [certify_constant_op("constant", r, h) for r, h in constant_points(rng, CONSTANT_PER_ROUND)]
    periodic = [certify_periodic_op(*p) for p in periodic_points(rng, PERIODIC_PER_ROUND)]
    ops = []
    for i in range(PERIODIC_PER_ROUND):
        ops += const[2 * i: 2 * i + 2] + [periodic[i]]
    return ops + [certify_constant_op("known-failing", *KNOWN_FAILING)]


def orbits_embedding_ops(rng: np.random.Generator) -> list:
    ops = []
    for h, u in zip(_strata(rng, 1.0, 3.0, EMBEDDING_PER_ROUND), rng.uniform(0.3, 0.9, EMBEDDING_PER_ROUND)):
        ops.append(EmbeddingOp(float(h), float(u * _closed_r1_r2(float(h))[1])))
    return ops


def build_round(name: str, seed: int) -> list:
    """The ops of one round of workload `name`, drawn from `seed`."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return {
        "sweep-periodic": sweep_periodic_ops,
        "point-certify": point_certify_ops,
        "orbits-embedding": orbits_embedding_ops,
    }[name](rng)
