"""The benchmark's own tests: each check accepts the program's real output
and turns a corrupted copy into a failed op.

    python3 -m pytest perfbench/test_checks.py -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import workloads  # noqa: E402
from worker import check_outputs, run_rounds  # noqa: E402


def rng():
    return np.random.default_rng(0)


class Corrupted:
    """An op whose successful output passes through `corrupt` before its check."""

    def __init__(self, op, corrupt):
        self.op, self.corrupt, self.kind = op, corrupt, op.kind

    def run(self):
        return self.op.run()

    def output(self):
        return self.corrupt(self.op.output())

    def check(self, output, check_rng):
        self.op.check(output, check_rng)


def run_once(ops):
    return check_outputs(ops, run_rounds(ops, 0), rng())


def failed_op(op, corrupt):
    tally = run_once([Corrupted(op, corrupt)])
    return tally.attempted == tally.failed == tally.wrong == 1


def replace_field(text: str, row: int, col: int, value: str) -> str:
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[col] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def scale_field(text: str, row: int, col: int, factor: float) -> str:
    return replace_field(text, row, col, repr(float(text.splitlines()[row].split(",")[col]) * factor))


def edit_json(text: str, **changes) -> str:
    return json.dumps({**json.loads(text), **changes})


# ---------------------------------------------------------------------------
# the constant-stocking verdict rule
# ---------------------------------------------------------------------------


def test_constant_rule_follows_the_closed_forms():
    def verdict(r, h):
        return oracles.constant_verdict(r, h, float(oracles.mp_equilibrium(r, h)))

    r1, _, r2 = oracles.closed_forms(2.6)
    assert verdict(0.5 * r2, 2.6) == "GloballyStable"
    assert verdict(0.5 * (r2 + 2.6), 2.6) == "AbsorbingBox"
    assert verdict(r1 + 0.1, 2.6) == "Unstable"
    r1, _, r2 = oracles.closed_forms(1.0)
    assert verdict(0.5 * (1.0 + r1), 1.0) == "LocallyStableGlobalOpen"


# ---------------------------------------------------------------------------
# sweep --mode periodic
# ---------------------------------------------------------------------------


@pytest.fixture
def periodic_sweep(monkeypatch):
    """Sub-lattice (0, 0) of a 7 x 7 version of the sweep-periodic plane, a
    4 x 4 lattice that holds the diagonal and has NotApplicable,
    GloballyStable and AbsorbingBox cells."""
    monkeypatch.setitem(workloads.PERIODIC_GRID, "n", 7)
    return workloads.sweep_periodic_ops(rng())[0]


def _row_with(text: str, verdict: str) -> int:
    return next(i for i, line in enumerate(text.splitlines()) if f",{verdict}," in line)


def test_periodic_sweep_passes(periodic_sweep):
    assert not failed_op(periodic_sweep, lambda out: out)


@pytest.mark.parametrize("corrupt", [
    lambda out: (scale_field(out[0], _row_with(out[0], "GloballyStable"), 4, 1 + 1e-6),),
    lambda out: (replace_field(out[0], _row_with(out[0], "NotApplicable"), 3, "GloballyStable"),),
    lambda out: (replace_field(out[0], _row_with(out[0], "GloballyStable"), 3, "NotApplicable"),),
    lambda out: (replace_field(out[0], _row_with(out[0], "GloballyStable"), 3, "AbsorbingBox"),),
    lambda out: (replace_field(out[0], _row_with(out[0], "AbsorbingBox"), 3, "GloballyStable"),),
], ids=["z0", "verdict-on-na-cell", "verdict-on-certifiable-cell", "stable-to-box", "box-to-stable"])
def test_periodic_sweep_corruption_fails(periodic_sweep, corrupt):
    assert failed_op(periodic_sweep, corrupt)


def test_orbit_check_wants_the_cycle_in_phase():
    r, h0, h1 = 1.0, 2.0, 1.5
    op = workloads.certify_periodic_op(r, h0, h1)
    assert op.run() is None
    out = json.loads(op.output()[0])
    oracles.check_orbits_converge([r], [h0], [h1], [out["z0"]], [out["z1"]], rng())
    with pytest.raises(oracles.CheckFailed):
        oracles.check_orbits_converge([r], [h0], [h1], [out["z1"]], [out["z0"]], rng())


# ---------------------------------------------------------------------------
# certify --json
# ---------------------------------------------------------------------------


def test_certify_constant_checks():
    op = workloads.certify_constant_op("constant", 2.0, 2.6)
    assert not failed_op(op, lambda out: out)
    x_star, y_star = json.loads(op.output()[0])["box"]
    for change in (
        {"verdict": "GloballyStable"},
        {"box": [x_star, y_star * (1 + 1e-7)]},
        {"box": [y_star, x_star]},
        {"y_bar": 3.4},
        {"box": None},
    ):
        assert failed_op(op, lambda out: (edit_json(out[0], **change),)), change


def test_certify_periodic_stable_checks():
    op = workloads.certify_periodic_op(1.0, 2.0, 1.5)
    assert not failed_op(op, lambda out: out)
    assert json.loads(op.output()[0])["verdict"] == "GloballyStable"
    z0 = json.loads(op.output()[0])["z0"]
    assert failed_op(op, lambda out: (edit_json(out[0], z0=z0 * (1 + 1e-6)),))
    assert failed_op(op, lambda out: (edit_json(
        out[0], verdict="AbsorbingBox", even_range=[1.0, 3.0], odd_range=[1.0, 3.0]),))


def test_certify_periodic_box_checks():
    op = workloads.certify_periodic_op(1.0, 2.0, 1.05)
    assert not failed_op(op, lambda out: out)
    out = json.loads(op.output()[0])
    assert out["verdict"] == "AbsorbingBox"
    (elo, ehi), (olo, ohi) = out["even_range"], out["odd_range"]
    z0, z1 = out["z0"], out["z1"]
    for change in (
        {"even_range": [z0 * (1 + 1e-6), ehi]},
        {"odd_range": [olo, z1 * (1 - 1e-6)]},
        {"even_range": [z1, z1 + 1.0]},
        {"even_range": [elo * (1 - 1e-6), ehi]},   # holds the cycle, wider than the artificial cycles
        {"odd_range": [olo, ohi * (1 + 1e-6)]},
        {"verdict": "GloballyStable"},
    ):
        assert failed_op(op, lambda o: (edit_json(o[0], **change),)), change


# ---------------------------------------------------------------------------
# orbits-embedding
# ---------------------------------------------------------------------------


def test_orbits_embedding_checks():
    op = workloads.orbits_embedding_ops(rng())[0]
    assert not failed_op(op, lambda out: out)
    lower, upper, converged, s_star, kind = op.output()
    shifted = tuple(c * (1 + 1e-6) for c in upper)
    for corrupt in (
        (lower, shifted, converged, s_star, kind),
        (shifted, shifted, converged, s_star, kind),
        (lower, upper, False, s_star, kind),
        (lower, upper, converged, s_star + 1e-6, kind),
        (lower, upper, converged, s_star, "Cycle"),
    ):
        assert failed_op(op, lambda out: corrupt), corrupt


def test_known_failing_point_fails_as_a_program_error():
    op = workloads.certify_constant_op("known-failing", *workloads.KNOWN_FAILING)
    tally = run_once([op])
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)
    assert "found 2 intersections" in tally.errors["known-failing"]
