import csv
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ricker_lab
from ricker_lab import (
    ModelParams,
    VerdictTag,
    certify_constant,
    certify_periodic,
    cli,
    periodic,
    solve_equilibrium,
    solve_two_cycle,
    thresholds,
)
from ricker_lab.cli import main
from ricker_lab.errors import NonConvergence, WitnessConstructionFailed

from _oracles import strict_witness


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_equilibrium_human_and_json(capsys):
    code, out, _ = run(capsys, "equilibrium", "--r", "2", "--h", "1.7182818")
    assert code == 0
    assert "y_bar=2.898496" in out and "verdict=Unstable" in out
    code, out, _ = run(capsys, "equilibrium", "--r", "2", "--h", "1.7182818", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"r", "h", "y_bar", "trace", "det", "eig_re", "eig_im", "verdict", "residual"}
    assert payload["y_bar"] == pytest.approx(2.898, abs=1e-3)
    assert payload["verdict"] == "Unstable"


def test_equilibrium_zero_stocking(capsys):
    code, out, _ = run(capsys, "equilibrium", "--r", "1", "--h", "0", "--json")
    assert code == 0
    assert json.loads(out)["y_bar"] == pytest.approx(1.0, abs=0.0)


def test_two_cycle_json(capsys):
    code, out, _ = run(capsys, "two-cycle", "--r", "1", "--h0", "2", "--h1", "1.5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"r", "h0", "h1", "z0", "z1", "trace", "det", "eig_re", "eig_im", "verdict", "residual"}
    assert payload["z0"] == pytest.approx(2.230, abs=1e-3)
    assert payload["z1"] == pytest.approx(2.498, abs=1e-3)
    assert payload["verdict"] == "LAS"


def test_certify_constant_json(capsys):
    code, out, _ = run(capsys, "certify", "--r", "1.8", "--h", "2.6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "GloballyStable"
    assert payload["provenance"].startswith("r <= r2")
    code, out, _ = run(capsys, "certify", "--r", "2", "--h", "2.6", "--json")
    payload = json.loads(out)
    assert payload["verdict"] == "AbsorbingBox"
    assert payload["box"] == pytest.approx([2.741, 4.969], abs=5e-3)


def test_certify_periodic_json(capsys):
    code, out, _ = run(capsys, "certify", "--r", "1", "--h0", "2", "--h1", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "AbsorbingBox"
    assert payload["even_range"] == pytest.approx([1.109, 3.966], abs=2e-3)
    assert payload["odd_range"] == pytest.approx([2.110, 3.306], abs=2e-3)


def test_scan_ns_at_zero_stocking(capsys):
    # r1(0) = 1 is a grid point, where the closed form reads exactly 0.0;
    # thresholds() rejects h = 0, so the scan must not take r1 from it
    code, out, _ = run(capsys, "scan-ns", "--h", "0", "--s-lo", "0.5", "--s-hi", "1.5", "--json")
    assert code == 0
    assert json.loads(out) == {
        "argument": 1.047197552573108, "complex_pair": True, "kind": "equilibrium",
        "modulus": 1.0000000023841857, "s_hi": 1.01, "s_lo": 1.0, "s_star": 1.0000000047683715,
    }
    code, out, _ = run(capsys, "scan-ns", "--h", "0", "--s-lo", "0.5", "--s-hi", "1.5")
    assert code == 0
    assert out == ("crossing at s=1.00000000 (bracket [1.000000, 1.010000]) modulus=1.00000000 "
                   "argument=1.047198 complex=True kind=equilibrium\n")


def test_exit_codes(capsys):
    code, _, err = run(capsys, "equilibrium", "--r", "-3", "--h", "1")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "scan-ns", "--h", "1", "--s-lo", "0.1", "--s-hi", "1.0")
    assert code == 3 and "numeric failure" in err
    code, _, err = run(capsys, "scan-ns", "--h", "1", "--s-lo", "2", "--s-hi", "1")
    assert code == 2 and "s_lo < s_hi" in err
    with pytest.raises(SystemExit) as exc:
        main(["equilibrium", "--r", "not-a-number", "--h", "1"])
    assert exc.value.code == 2


def test_certify_tiny_constant_stocking(capsys):
    code, out, _ = run(capsys, "certify", "--r", "2", "--h", "1e-12", "--json")
    assert code == 0
    assert json.loads(out)["y_bar"] == 2.0000000000005


# h0 > h1 with h1 just above r, near the pole of the feasibility curves at
# t = r: the witness box holds the 2-cycle and each map of the period moves
# its lower corner strictly up
@pytest.mark.parametrize("r, h0, h1", [
    (1.0, 2.0, 1.0001), (1.0, 2.0, 1.00000001), (1.0, 2.0, 1.000000000000001),
    (1.0, 1.5, 1.0001), (1.0, 1.2, 1.00001), (0.5, 0.9, 0.5000001),
])
def test_certify_one_step_corner_at_the_pole(capsys, r, h0, h1):
    code, out, _ = run(capsys, "certify", "--r", repr(r), "--h0", repr(h0), "--h1", repr(h1),
                       "--grid", "256", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "AbsorbingBox" and payload["witness"] is not None
    z0, z1 = payload["z0"], payload["z1"]
    assert strict_witness(r, (h0, h1), *payload["witness"], min(z0, z1), max(z0, z1))


# below r = 0.5 an ulp above r is within rounding of r, so min(h0, h1) is r
# to float resolution: each twin takes the boundary path of its equality
# point, with the same tag and note and no witness box
@pytest.mark.parametrize("h0, h1", [(0.5, 0.10000000000000002), (0.10000000000000002, 0.5)])
def test_certify_stocking_within_rounding_of_r(capsys, h0, h1):
    def certify(h0, h1):
        code, out, _ = run(capsys, "certify", "--r", "0.1", "--h0", repr(h0), "--h1", repr(h1),
                           "--grid", "64", "--json")
        assert code == 0
        return json.loads(out)

    twin = certify(h0, h1)
    equal = certify(*(0.1 if h == 0.10000000000000002 else h for h in (h0, h1)))
    assert twin["verdict"] == equal["verdict"] == "GloballyStable"
    assert twin["note"] == equal["note"]
    assert "min(h0,h1) = r to float resolution" in twin["note"]
    assert twin["witness"] is None and equal["witness"] is None


def test_constant_box_regime_with_h_within_rounding_of_r_gets_no_witness(capsys):
    # e^{r-h} stays below 1, so the pseudo fixed points are found, but the
    # witness corner a, halfway from r to h, is within rounding of r
    code, out, _ = run(capsys, "certify", "--r", "0.1", "--h", "0.10000000000000007", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "AbsorbingBox" and payload["witness"] is None


@pytest.mark.parametrize("argv", [
    ("certify", "--r", "1", "--h0", "2", "--h1", "1", "--grid", "1"),
    ("artificial-cycles", "--r", "1", "--h0", "2", "--h1", "1", "--grid", "0"),
    ("sweep", "--mode", "periodic", "--r", "1", "--h0-lo", "2", "--h0-hi", "2", "--nh0", "1",
     "--h1-lo", "1", "--h1-hi", "1", "--nh1", "1", "--art-grid", "1"),
    # the floor holds on cells that never reach the scan: min(h0, h1) < r
    ("certify", "--r", "1", "--h0", "0.5", "--h1", "2", "--grid", "1"),
    ("sweep", "--mode", "periodic", "--r", "1", "--h0-lo", "0.3", "--h0-hi", "0.6", "--nh0", "2",
     "--h1-lo", "0.3", "--h1-hi", "2", "--nh1", "2", "--art-grid", "0"),
])
def test_artificial_cycle_grid_floor(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "grid >= 2" in err


def test_growth_rate_past_exp_overflow(capsys):
    code, out, _ = run(capsys, "equilibrium", "--r", "800", "--h", "1", "--json")
    assert code == 0
    assert json.loads(out)["y_bar"] == pytest.approx(800.00125, abs=1e-5)
    code, out, _ = run(capsys, "certify", "--r", "800", "--h", "900", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "GloballyStable"


def test_equilibrium_bracket_failure_is_a_typed_error(capsys):
    # r + h + 1 rounds to r = max(r, h), so the upper bracket end reads negative
    code, out, err = run(capsys, "equilibrium", "--r", "1e16", "--h", "1")
    assert code == 3 and out == ""
    assert "equilibrium bracket failed" in err and "Traceback" not in err


def test_huge_stocking_gets_a_verdict(capsys):
    code, out, _ = run(capsys, "equilibrium", "--r", "2", "--h", "1e17", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "LAS"
    code, out, _ = run(capsys, "certify", "--r", "2", "--h", "1e16", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "GloballyStable" and payload["local"] == "LAS"


@pytest.mark.parametrize("r", ["2", "1e154"])
def test_stocking_past_square_overflow_gets_a_verdict(capsys, r):
    # h * h overflows from about 1.34e154 on
    code, out, _ = run(capsys, "certify", "--r", r, "--h", "1e155", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "GloballyStable"


def test_constant_box_with_h_within_rounding_of_r(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "certify", "--r", "0.1", "--h", "0.10000000000000002")
    assert code == 3
    assert "numeric failure" in err and "g1(h) is infinite" in err


def test_constant_box_past_the_old_scan_span(capsys):
    code, out, _ = run(capsys, "certify", "--r", "1.1995871901336117", "--h", "1.2145055622368421",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "AbsorbingBox"
    assert payload["box"][1] == pytest.approx(82.01882225799, abs=1e-9)


def test_constant_sweep_at_large_growth_rates(capsys, tmp_path):
    out_path = tmp_path / "c.csv"
    code, _, _ = run(capsys, "sweep", "--mode", "constant", "--h-lo", "1", "--h-hi", "900", "--nh", "2",
                     "--r-lo", "700", "--r-hi", "800", "--nr", "3", "--out", str(out_path))
    assert code == 0
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 6
    for row in rows:
        h, r = float(row["h"]), float(row["r"])
        assert float(row["y_bar"]) >= max(r, h)
        assert row["verdict"] == certify_constant(ModelParams.constant(r, h)).tag.value


@pytest.mark.parametrize("r", ["400", "800"])
@pytest.mark.parametrize("argv", [("two-cycle", "--h0", "1", "--h1", "2"),
                                  ("certify", "--h0", "900", "--h1", "901")], ids=["two-cycle", "certify"])
def test_periodic_trapping_bound_overflow_is_a_typed_error(capsys, argv, r):
    # below r of about 710 the bounds overflow to inf, above it e^r itself does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, *argv, "--r", r)
    assert code == 3
    assert "trapping bounds overflow" in err and "Traceback" not in err


# h1 far above r: z0 - h1 = z1 e^{r - z0} is below the float resolution of
# h1, about 6e-21 against 1.4e-14 at h1 = 91; from h1 = 2^23 on the 2-cycle
# solve used to take log(0) and exit 2 with a math domain error
@pytest.mark.parametrize("point", [("40", "90", "91"), ("1", "2", "1e8")])
@pytest.mark.parametrize("command", ["two-cycle", "certify"])
def test_two_cycle_offset_below_float_resolution_is_a_typed_error(capsys, command, point):
    r, h0, h1 = point
    code, out, err = run(capsys, command, "--r", r, "--h0", h0, "--h1", h1)
    assert code == 3 and out == ""
    assert "z0 - h1 lies below the float resolution of h1" in err and "Traceback" not in err


def test_orbit_csv_single_row(capsys):
    code, out, _ = run(capsys, "orbit", "--r", "1", "--h", "1", "--x0", "1", "--xprev", "1", "--n", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,x_n,x_prev,parity"
    assert len(lines) == 2
    n, xn, xprev, parity = lines[1].split(",")
    assert n == "1" and parity == "1"
    assert float(xn) == pytest.approx(1.0 * math.exp(0.0) + 1.0)
    assert float(xprev) == 1.0


def test_orbit_csv_transient_and_parity(capsys):
    code, out, _ = run(capsys, "orbit", "--r", "1.5", "--h0", "0.82", "--h1", "1.8",
                       "--x0", "1", "--xprev", "1", "--n", "6", "--transient", "100")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 6
    first_n = int(rows[0].split(",")[0])
    assert first_n == 101
    for row in rows:
        n, _, _, parity = row.split(",")
        assert int(parity) == int(n) % 2


def test_sweep_single_cell_matches_certify(capsys, tmp_path):
    code, out, _ = run(capsys, "sweep", "--mode", "constant",
                       "--h-lo", "3", "--h-hi", "3", "--nh", "1",
                       "--r-lo", "2", "--r-hi", "2", "--nr", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "h,r,verdict,y_bar,r1,r2,notes"
    cell = lines[1].split(",")
    verdict = certify_constant(ModelParams.constant(2.0, 3.0))
    assert cell[2] == verdict.tag.value
    ts = thresholds(3.0)
    assert float(cell[4]) == pytest.approx(ts.r1, abs=1e-15)
    assert float(cell[5]) == pytest.approx(ts.r2, abs=1e-15)


def test_constant_sweep_y_bar_is_the_point_solve(capsys):
    # a coarser grid over the README plane; an array solve of its own, as the
    # sweep once had, rounds y_bar differently on about 1 cell in 8 here
    code, out, _ = run(capsys, "sweep", "--mode", "constant",
                       "--h-lo", "0.1", "--h-hi", "10", "--nh", "20",
                       "--r-lo", "0.1", "--r-hi", "8", "--nr", "50")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 1000
    for h, r, _, y_bar in (row[:4] for row in rows):
        assert float(y_bar) == solve_equilibrium(ModelParams.constant(float(r), float(h))).y_bar


def test_periodic_sweep_degenerate_rows_are_the_point_solve(capsys):
    code, out, _ = run(capsys, "sweep", "--mode", "periodic", "--r", "1",
                       "--h0-lo", "0.1", "--h0-hi", "10", "--nh0", "12",
                       "--h1-lo", "0.1", "--h1-hi", "10", "--nh1", "12")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    degenerate = [row for row in rows if row[0] == row[1]]
    assert len(degenerate) == 12
    for h, _, r, tag, z0, z1 in (row[:6] for row in degenerate):
        y_bar = solve_equilibrium(ModelParams.constant(float(r), float(h))).y_bar
        assert tag == "NotApplicable" and float(z0) == float(z1) == y_bar


def test_sweep_tags_match_certify_on_random_cells(capsys, tmp_path):
    out_path = tmp_path / "cells.csv"
    code, _, _ = run(capsys, "sweep", "--mode", "constant",
                     "--h-lo", "0.4", "--h-hi", "6", "--nh", "12",
                     "--r-lo", "0.3", "--r-hi", "4", "--nr", "10",
                     "--out", str(out_path))
    assert code == 0
    rows = out_path.read_text().strip().splitlines()[1:]
    rng = np.random.default_rng(73)
    for idx in rng.choice(len(rows), size=25, replace=False):
        h, r, tag = rows[idx].split(",")[:3]
        verdict = certify_constant(ModelParams.constant(float(r), float(h)))
        assert verdict.tag.value == tag


def test_sweep_round_trip_and_curves(capsys, tmp_path):
    out_path = tmp_path / "cells.csv"
    code, _, _ = run(capsys, "sweep", "--mode", "constant",
                     "--h-lo", "0.5", "--h-hi", "5", "--nh", "8",
                     "--r-lo", "0.5", "--r-hi", "3", "--nr", "8",
                     "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    parsed = list(csv.reader(io.StringIO(text)))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(parsed)
    assert buf.getvalue() == text
    curves = (tmp_path / "cells.csv.curves.csv").read_text().strip().splitlines()
    assert curves[0] == "h,r1,r2,r_diag"
    h, r1, r2, rdiag = map(float, curves[1].split(","))
    ts = thresholds(h)
    assert r1 == ts.r1 and r2 == ts.r2 and rdiag == h


def test_sweep_periodic_round_trip(capsys, tmp_path):
    out_path = tmp_path / "p.csv"
    code, _, _ = run(capsys, "sweep", "--mode", "periodic", "--r", "1",
                     "--h0-lo", "0.3", "--h0-hi", "3", "--nh0", "3",
                     "--h1-lo", "0.3", "--h1-hi", "3", "--nh1", "3",
                     "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    parsed = list(csv.reader(io.StringIO(text)))
    assert {len(row) for row in parsed} == {7}
    assert "min(h0,h1) < r" in {row[6] for row in parsed}
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(parsed)
    assert buf.getvalue() == text


def test_periodic_cells_solve_their_two_cycle_once(capsys, monkeypatch):
    solved = []
    solve = periodic.solve_two_cycle

    def counting_solve(params):
        solved.append(params.stocking)
        return solve(params)

    monkeypatch.setattr(periodic, "solve_two_cycle", counting_solve)
    monkeypatch.setattr(cli, "solve_two_cycle", counting_solve)
    code, _, _ = run(capsys, "sweep", "--mode", "periodic", "--r", "1",
                     "--h0-lo", "0.3", "--h0-hi", "3", "--nh0", "4",
                     "--h1-lo", "0.3", "--h1-hi", "3", "--nh1", "4",
                     "--art-grid", "64")
    assert code == 0
    # the 4 diagonal cells are degenerate and solve no 2-cycle
    assert len(solved) == len(set(solved)) == 12
    solved.clear()
    code, _, _ = run(capsys, "certify", "--r", "1", "--h0", "2", "--h1", "1.5", "--grid", "64")
    assert code == 0 and solved == [(2.0, 1.5)]


# h1 = 3.4e-71 against h0 = 0: the float pair is an ulp apart and, for
# h0 < h1, in the wrong order, which the ordering law takes as rounding
@pytest.mark.parametrize("h0, h1", [("0", "3.4182591922630875e-71"), ("3.4182591922630875e-71", "0")])
def test_two_cycle_misorder_within_float_resolution_is_not_a_failure(capsys, h0, h1):
    code, out, err = run(capsys, "two-cycle", "--r", "0.5", "--h0", h0, "--h1", h1, "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert {payload["z0"], payload["z1"]} == {0.5, 0.49999999999999994}
    assert payload["verdict"] == "LAS"


# h0 and h1 one ulp apart: the solved cycle has z0 == z1 to the last bit, and
# the verdict is the constant-stocking one (r2(1.2) ~ 0.80 < r = 1 < h = 1.2)
ULP_APART = ("1.2000000000000002", "1.2")


@pytest.mark.parametrize("h0, h1", [ULP_APART, ULP_APART[::-1]])
def test_ulp_apart_stocking_is_certified(capsys, h0, h1):
    code, out, _ = run(capsys, "certify", "--r", "1", "--h0", h0, "--h1", h1, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "AbsorbingBox"
    assert payload["z0"] == payload["z1"]
    box = certify_constant(ModelParams.constant(1.0, 1.2)).box
    assert payload["even_range"] == pytest.approx(box, abs=1e-9)
    assert payload["odd_range"] == pytest.approx(box, abs=1e-9)
    code, _, _ = run(capsys, "two-cycle", "--r", "1", "--h0", h0, "--h1", h1)
    assert code == 0


def test_sweep_ulp_apart_cell(capsys, tmp_path):
    out_path = tmp_path / "p.csv"
    h0, h1 = ULP_APART
    code, _, _ = run(capsys, "sweep", "--mode", "periodic", "--r", "1",
                     "--h0-lo", h0, "--h0-hi", h0, "--nh0", "1",
                     "--h1-lo", h1, "--h1-hi", h1, "--nh1", "1",
                     "--out", str(out_path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert rows[1][:4] == [h0, h1, "1", "AbsorbingBox"]


def test_sweep_boundary_coherence(capsys, tmp_path):
    out_path = tmp_path / "cells.csv"
    code, _, _ = run(capsys, "sweep", "--mode", "constant",
                     "--h-lo", "0.5", "--h-hi", "8", "--nh", "20",
                     "--r-lo", "0.2", "--r-hi", "6", "--nr", "30",
                     "--out", str(out_path))
    assert code == 0
    rows = out_path.read_text().strip().splitlines()[1:]
    cell_height = (6.0 - 0.2) / 29
    for row in rows:
        parts = row.split(",")
        h, r, tag, _, r1, r2 = parts[0], parts[1], parts[2], parts[3], parts[4], parts[5]
        h, r, r1, r2 = map(float, (h, r, r1, r2))
        if r < r2 - cell_height:
            assert tag == "GloballyStable"
        if tag == "Unstable":
            assert r > r1


def test_sweep_periodic_not_applicable_region(capsys, tmp_path):
    out_path = tmp_path / "p.csv"
    code, _, _ = run(capsys, "sweep", "--mode", "periodic", "--r", "1",
                     "--h0-lo", "0.3", "--h0-hi", "2.7", "--nh0", "7",
                     "--h1-lo", "0.3", "--h1-hi", "2.7", "--nh1", "7",
                     "--art-grid", "64", "--out", str(out_path))
    assert code == 0
    rows = out_path.read_text().strip().splitlines()
    assert rows[0] == "h0,h1,r,verdict,z0,z1,notes"
    for row in rows[1:]:
        parts = row.split(",")
        h0, h1, tag = float(parts[0]), float(parts[1]), parts[3]
        if min(h0, h1) < 1.0 or h0 == h1:
            assert tag == "NotApplicable"
        else:
            assert tag in ("GloballyStable", "AbsorbingBox")


# `sweep --mode periodic` over the README plane at 10x10: 32 GloballyStable,
# 10 AbsorbingBox and 58 NotApplicable cells.  Regenerate it with
#
#     PYTHONPATH=src python -m ricker_lab sweep --mode periodic --r 1 \
#         --h0-lo 0.3 --h0-hi 3 --nh0 10 --h1-lo 0.3 --h1-hi 3 --nh1 10 \
#         --art-grid 128 --out tests/data/sweep_periodic_r1_10x10.csv
#
# only on purpose, and say in the change log which rows moved and why.
GOLDEN_PERIODIC = Path(__file__).parent / "data" / "sweep_periodic_r1_10x10.csv"


def _six_fields_and_note(line):
    """The six value fields as written, and the note read as the remainder,
    quoted or not."""
    parts = line.split(",", 6)
    return parts[:6], ",".join(next(csv.reader([parts[6]])))


def test_sweep_periodic_matches_golden(capsys, tmp_path):
    out_path = tmp_path / "p.csv"
    code, _, _ = run(capsys, "sweep", "--mode", "periodic", "--r", "1",
                     "--h0-lo", "0.3", "--h0-hi", "3", "--nh0", "10",
                     "--h1-lo", "0.3", "--h1-hi", "3", "--nh1", "10",
                     "--art-grid", "128", "--out", str(out_path))
    assert code == 0
    got = out_path.read_text().splitlines()
    want = GOLDEN_PERIODIC.read_text().splitlines()
    assert got[0] == want[0] and len(got) == len(want) == 101
    for got_row, want_row in zip(got[1:], want[1:]):
        assert _six_fields_and_note(got_row) == _six_fields_and_note(want_row)


def _single_cell_row(r, h0, h1, art_grid):
    # a periodic sweep row as one cell's own solve and certify_periodic give it
    fmt = lambda x: f"{x:.17g}"
    if h0 == h1:
        y = solve_equilibrium(ModelParams.constant(r, h0)).y_bar
        return f"{fmt(h0)},{fmt(h1)},{fmt(r)},NotApplicable,{fmt(y)},{fmt(y)},degenerate: h0 == h1"
    params = ModelParams(r=r, stocking=(h0, h1))
    report = solve_two_cycle(params)
    tag = certify_periodic(params, art_grid, cycle=report).tag
    note = '"min(h0,h1) < r"' if tag is VerdictTag.NOT_APPLICABLE else f"art-grid={art_grid}"
    return f"{fmt(h0)},{fmt(h1)},{fmt(r)},{tag.value},{fmt(report.z0)},{fmt(report.z1)},{note}"


def test_periodic_sweep_rows_match_single_cell_certification(capsys):
    # the sweep certifies its cells a chunk at a time; every row must be the
    # one the cell gets on its own, bit for bit, in grid order
    code, out, _ = run(capsys, "sweep", "--mode", "periodic", "--r", "1",
                       "--h0-lo", "0.3", "--h0-hi", "3", "--nh0", "40",
                       "--h1-lo", "0.3", "--h1-hi", "3", "--nh1", "40", "--art-grid", "128")
    assert code == 0
    rows = out.splitlines()
    axis = np.linspace(0.3, 3.0, 40).tolist()
    assert rows[0] == "h0,h1,r,verdict,z0,z1,notes" and len(rows) == 1601
    for row, (h0, h1) in zip(rows[1:], ((h0, h1) for h0 in axis for h1 in axis)):
        assert row == _single_cell_row(1.0, h0, h1, 128)


_README_PERIODIC_SWEEP = ["sweep", "--mode", "periodic", "--r", "1",
                          "--h0-lo", "0.3", "--h0-hi", "3", "--nh0", "40",
                          "--h1-lo", "0.3", "--h1-hi", "3", "--nh1", "40", "--art-grid", "128"]
# SHA-256 of the README's 40x40 periodic sweep as the full-bisection 2-cycle
# solve, the three-exp seed search and a polish of every seed write it
_README_PERIODIC_SHA256 = "8723d5ef99e2c73bdf6d2aaa288194185f67f064632963c6aa021fb1f227fd4c"


def test_readme_periodic_sweep_is_byte_identical(tmp_path):
    out_path = tmp_path / "pregions.csv"
    assert main([*_README_PERIODIC_SWEEP, "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == _README_PERIODIC_SHA256


def test_periodic_sweep_stops_each_polish_at_the_first_artificial_cycle(capsys, monkeypatch):
    # on the README plane the 174 AbsorbingBox cells need only their first
    # artificial cycle, and the 638 GloballyStable ones every seed
    polished = []
    polish = periodic._newton_polish_artificial

    def counting_polish(*args):
        polished.append(args)
        return polish(*args)

    monkeypatch.setattr(periodic, "_newton_polish_artificial", counting_polish)
    code, out, _ = run(capsys, *_README_PERIODIC_SWEEP)
    assert code == 0
    assert out.count(",AbsorbingBox,") == 174 and out.count(",GloballyStable,") == 638
    assert len(polished) == 2179
    polished.clear()
    axis = np.linspace(0.3, 3.0, 40).tolist()
    for h0 in axis:
        for h1 in axis:
            if h0 != h1 and min(h0, h1) >= 1.0:
                periodic.find_artificial_cycles(ModelParams(r=1.0, stocking=(h0, h1)), 128)
    assert len(polished) == 4694


def test_failing_periodic_sweep_reports_its_first_failing_cell(capsys):
    # cell (90, 90) is degenerate and (90, 91) is the first that fails
    code, out, err = run(capsys, "sweep", "--mode", "periodic", "--r", "40",
                         "--h0-lo", "90", "--h0-hi", "91", "--nh0", "2",
                         "--h1-lo", "90", "--h1-hi", "91", "--nh1", "2")
    assert code == 3 and out == ""
    assert err == ("numeric failure: no 2-cycle resolvable for r=40.0, h=(90.0, 91.0): "
                   "z0 - h1 lies below the float resolution of h1=91.0\n")


@pytest.mark.parametrize("cert_fails, solve_fails", [((1.5, 2.0), (2.0, 1.5)), ((2.0, 1.5), (1.5, 2.0))])
def test_sweep_failure_order_spans_waiting_cells(capsys, monkeypatch, cert_fails, solve_fails):
    # a cell that waits for its chunk's certification still fails before a
    # later cell whose 2-cycle solve fails, and after an earlier one
    solve, build = cli.solve_two_cycle, periodic.compatible_box

    def failing_solve(params):
        if params.stocking == solve_fails:
            raise NonConvergence(f"solve failed at {params.stocking}")
        return solve(params)

    def failing_build(params, lo, hi):
        if params.stocking == cert_fails:
            raise WitnessConstructionFailed(f"no box at {params.stocking}")
        return build(params, lo, hi)

    monkeypatch.setattr(cli, "solve_two_cycle", failing_solve)
    monkeypatch.setattr(periodic, "compatible_box", failing_build)
    code, out, err = run(capsys, "sweep", "--mode", "periodic", "--r", "1",
                         "--h0-lo", "1.5", "--h0-hi", "2", "--nh0", "2",
                         "--h1-lo", "1.5", "--h1-hi", "2", "--nh1", "2")
    assert code == 3 and out == ""
    first = "no box at" if cert_fails < solve_fails else "solve failed at"
    assert err == f"numeric failure: {first} {min(cert_fails, solve_fails)}\n"


@pytest.mark.parametrize("eq_fails, cert_fails", [((2.0,), (1.5, 2.0)), ((1.5,), (2.0, 1.5))])
def test_sweep_failure_order_spans_degenerate_cells(capsys, monkeypatch, eq_fails, cert_fails):
    # a diagonal cell whose equilibrium solve fails fails after an earlier
    # periodic cell whose witness box fails, and before a later one
    solve, build = cli.solve_equilibrium, periodic.compatible_box

    def failing_solve(params):
        if params.stocking == eq_fails:
            raise NonConvergence(f"equilibrium failed at {params.stocking}")
        return solve(params)

    def failing_build(params, lo, hi):
        if params.stocking == cert_fails:
            raise WitnessConstructionFailed(f"no box at {params.stocking}")
        return build(params, lo, hi)

    monkeypatch.setattr(cli, "solve_equilibrium", failing_solve)
    monkeypatch.setattr(periodic, "compatible_box", failing_build)
    code, out, err = run(capsys, "sweep", "--mode", "periodic", "--r", "1",
                         "--h0-lo", "1.5", "--h0-hi", "2", "--nh0", "2",
                         "--h1-lo", "1.5", "--h1-hi", "2", "--nh1", "2")
    assert code == 3 and out == ""
    first = f"no box at {cert_fails}" if cert_fails[0] < eq_fails[0] else f"equilibrium failed at {eq_fails}"
    assert err == f"numeric failure: {first}\n"


# one chunk of cells at a time: two full 1024x1024 surfaces per cell would
# take 24 MiB, and the README plane certified as one batch peaks at about 25 MiB
@pytest.mark.parametrize("n, art_grid", [(40, 128), (20, 1024)])
def test_periodic_sweep_memory_is_bounded_by_one_chunk(tmp_path, n, art_grid):
    argv = ["sweep", "--mode", "periodic", "--r", "1",
            "--h0-lo", "0.3", "--h0-hi", "3", "--nh0", str(n),
            "--h1-lo", "0.3", "--h1-hi", "3", "--nh1", str(n),
            "--art-grid", str(art_grid), "--out", str(tmp_path / "p.csv")]
    assert main(argv) == 0  # the first call builds the parser and its caches
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 1.5 * 2**20


_SWEEP_GRIDS = {
    "constant": ["--h-lo", "0.5", "--h-hi", "1", "--nh", "2", "--r-lo", "0.2", "--r-hi", "1", "--nr", "2"],
    "periodic": ["--r", "1", "--h0-lo", "1.5", "--h0-hi", "2", "--nh0", "2",
                 "--h1-lo", "1.5", "--h1-hi", "2", "--nh1", "2"],
}


# an option of the other mode used to be ignored: `--mode periodic --curves`
# wrote no curves file, `--mode constant --art-grid 64 --r 5 --h0-lo 3` ran
# the constant sweep
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("mode, key, value", [
    ("constant", "art-grid", "64"), ("constant", "r", "5"), ("constant", "h0-lo", "3"),
    ("constant", "nh1", "4"), ("periodic", "curves", "c.csv"), ("periodic", "h-lo", "1"),
    ("periodic", "nr", "4"),
])
def test_sweep_rejects_the_other_modes_options(capsys, tmp_path, monkeypatch, source, mode, key, value):
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--mode", mode, *_SWEEP_GRIDS[mode], "--out", "s.csv"]
    if source == "flag":
        argv += [f"--{key}", value]
    else:
        (tmp_path / "run.cfg").write_text(f"{key}={value}\n")
        argv += ["--config", "run.cfg"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: sweep --mode {mode} does not take --{key}\n"
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("mode", ["constant", "periodic"])
def test_sweep_takes_its_own_options_from_a_config_file(capsys, tmp_path, monkeypatch, mode):
    monkeypatch.chdir(tmp_path)
    own = {"constant": "curves=c.csv", "periodic": "art-grid=64"}[mode]
    (tmp_path / "run.cfg").write_text(own + "\n")
    code, _, _ = run(capsys, "sweep", "--mode", mode, *_SWEEP_GRIDS[mode],
                     "--out", "s.csv", "--config", "run.cfg")
    assert code == 0
    if mode == "constant":
        assert (tmp_path / "c.csv").read_text().startswith("h,r1,r2,r_diag\n")
    else:
        assert (tmp_path / "s.csv").read_text().splitlines()[2].endswith(",art-grid=64")


def test_sweep_rejects_bad_grid(capsys):
    code, _, err = run(capsys, "sweep", "--mode", "constant",
                       "--h-lo", "5", "--h-hi", "1", "--nh", "4",
                       "--r-lo", "1", "--r-hi", "2", "--nr", "4")
    assert code == 2 and "grid" in err


# a NaN bound fails every comparison, so it passed the range check that
# looked for a bad ordering and the sweep wrote rows with r = nan
@pytest.mark.parametrize("argv", [
    ("--mode", "constant", "--h-lo", "1", "--h-hi", "2", "--nh", "2", "--r-lo", "1", "--r-hi", "nan", "--nr", "2"),
    ("--mode", "constant", "--h-lo", "1", "--h-hi", "2", "--nh", "2", "--r-lo", "1", "--r-hi", "inf", "--nr", "2"),
    ("--mode", "periodic", "--r", "1", "--h0-lo", "1", "--h0-hi", "inf", "--nh0", "2",
     "--h1-lo", "1.5", "--h1-hi", "2", "--nh1", "2"),
])
def test_sweep_rejects_non_finite_bounds(capsys, argv):
    code, out, err = run(capsys, "sweep", *argv)
    assert code == 2 and out == "" and "grid" in err


def test_scan_ns_json(capsys):
    code, out, _ = run(capsys, "scan-ns", "--h", "1", "--s-lo", "1.0", "--s-hi", "1.6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["s_star"] == pytest.approx(2.0 - math.log(2.0), abs=1e-6)
    assert payload["complex_pair"] is True


def test_artificial_cycles_cli(capsys):
    code, out, _ = run(capsys, "artificial-cycles", "--r", "1", "--h0", "2", "--h1", "1",
                       "--grid", "512", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    quads = sorted(tuple(q) for q in payload["cycles"])
    assert quads[0] == pytest.approx((1.109, 3.306, 3.966, 2.110), abs=2e-3)


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r=2\nh=1.7182818\njson=true\n")
    code, out, _ = run(capsys, "equilibrium", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["y_bar"] == pytest.approx(2.898, abs=1e-3)
    # explicit flag beats the file
    code, out, _ = run(capsys, "equilibrium", "--config", str(cfg), "--r", "1.5")
    assert json.loads(out)["y_bar"] == pytest.approx(2.589, abs=1e-3)


def test_config_before_the_subcommand_is_a_usage_error(tmp_path):
    # --config belongs to the subcommand; in front of it, it is not an option
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r=2\nh=1.7182818\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "equilibrium"])
    assert exc.value.code == 2


def test_missing_config_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "equilibrium", "--config", str(tmp_path / "absent.cfg"))
    assert code == 2 and "error:" in err and "absent.cfg" in err


def test_unwritable_out_path_exits_2(capsys, tmp_path):
    out_path = tmp_path / "absent-dir" / "x.csv"
    code, _, err = run(capsys, "sweep", "--mode", "constant", "--h-lo", "1", "--h-hi", "2", "--nh", "2",
                       "--r-lo", "1", "--r-hi", "2", "--nr", "2", "--out", str(out_path))
    assert code == 2 and "error:" in err and "x.csv" in err


def test_unknown_config_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r=2\nh=1.7182818\nrr=5\n")
    code, out, err = run(capsys, "equilibrium", "--config", str(cfg))
    assert code == 2 and out == "" and "rr" in err


def test_non_boolean_flag_value_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r=2\nh=1.7182818\njson=maybe\n")
    code, out, err = run(capsys, "equilibrium", "--config", str(cfg))
    assert code == 2 and out == "" and "json" in err and "maybe" in err


def test_negative_transient_exits_2(capsys):
    code, out, err = run(capsys, "orbit", "--r", "1", "--h", "1", "--x0", "1", "--xprev", "1",
                         "--n", "3", "--transient", "-1")
    assert code == 2 and out == "" and "--transient" in err


# NaN fails every comparison, so it passed the check for negative states
# and the orbit stopped at the overflow guard as a numeric failure (exit 3)
@pytest.mark.parametrize("x0, xprev", [("nan", "1"), ("1", "nan"), ("inf", "1"), ("1", "inf")])
def test_orbit_rejects_non_finite_states(capsys, x0, xprev):
    code, out, err = run(capsys, "orbit", "--r", "1", "--h", "1", "--x0", x0, "--xprev", xprev, "--n", "3")
    assert code == 2 and out == "" and "finite and non-negative" in err


# math.exp(r - prev) overflows above r - prev of about 709.78, which was a
# bare OverflowError (exit 1)
def test_orbit_past_exp_overflow_is_a_numeric_failure(capsys):
    code, out, err = run(capsys, "orbit", "--r", "800", "--h", "1", "--x0", "1", "--xprev", "1", "--n", "3")
    assert code == 3 and out == "" and "at step 1" in err and "Traceback" not in err


def test_orbit_from_zero_past_exp_overflow(capsys):
    code, out, _ = run(capsys, "orbit", "--r", "800", "--h", "1", "--x0", "0", "--xprev", "0", "--n", "1")
    assert code == 0
    n, xn, _, _ = out.strip().splitlines()[1].split(",")
    assert n == "1" and float(xn) == 1.0


# grid points past the first bracket are not evaluated: the trapping bounds
# overflow at the last point, r = 400, which used to exit 3
def test_scan_ns_stops_at_its_first_bracket(capsys):
    code, out, err = run(capsys, "scan-ns", "--h0", "1", "--h1", "2", "--s-lo", "0.5", "--s-hi", "400",
                         "--steps", "5", "--json")
    assert code == 0, err
    payload = json.loads(out)
    assert (payload["s_lo"], payload["s_hi"]) == (0.5, 100.375)
    assert payload["kind"] == "two-cycle"


# `--s-hi inf` used to print numpy's invalid-value warning from np.linspace
# and then fail on a NaN growth rate; the suite turns that warning into an error
@pytest.mark.parametrize("s_lo, s_hi", [("0.5", "inf"), ("-inf", "1.5")])
def test_scan_ns_rejects_an_infinite_bound(capsys, s_lo, s_hi):
    code, out, err = run(capsys, "scan-ns", "--h", "1", f"--s-lo={s_lo}", f"--s-hi={s_hi}")
    assert code == 2 and out == ""
    assert err == f"error: scan range needs finite s_lo < s_hi, got [{float(s_lo)}, {float(s_hi)}]\n"


# with min(h0, h1) < r and r large the residual surfaces pass the float
# range; the overflow used to print three numpy warnings before count=0
def test_artificial_cycles_past_the_float_range_print_no_warning(capsys):
    code, out, err = run(capsys, "artificial-cycles", "--r", "343.60143948463394",
                         "--h0", "0.25989454401361883", "--h1", "122.1385432530858", "--grid", "16")
    assert (code, out, err) == (0, "count=0 (scan 16x16)\n", "")


def test_scan_ns_rejects_h_with_the_pair(capsys):
    code, out, err = run(capsys, "scan-ns", "--h", "1", "--h0", "2", "--h1", "3",
                         "--s-lo", "1.0", "--s-hi", "1.6")
    assert code == 2 and out == "" and "not both" in err


def _config_text(opt, which):
    """One of two distinct valid config values for opt."""
    if opt.type is bool:
        return ("on", "off")[which]
    if opt.choices:
        return opt.choices[which]
    return {int: ("7", "9"), float: ("1.5", "2.5"), str: ("a.csv", "b.csv")}[opt.type][which]


def _merged(*argv):
    args = cli._build_parser().parse_args(list(argv))
    cli._merge_config(args)
    return args


@pytest.mark.parametrize("command, dest", [
    (command, dest) for command, spec in cli._COMMANDS.items() for dest in spec.options
])
def test_every_option_is_read_from_config_and_overridden_by_its_flag(tmp_path, command, dest):
    options = cli._COMMANDS[command].options
    opt = options[dest]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key}={_config_text(o, 0)}\n" for key, o in options.items()))
    args = _merged(command, "--config", str(cfg))
    if opt.type is bool:
        assert getattr(args, dest) is True
        cfg.write_text(cfg.read_text().replace(f"{dest}=on", f"{dest}=off"))
        assert getattr(_merged(command, "--config", str(cfg)), dest) is False
        flag, want = ["--" + dest], True
    else:
        assert getattr(args, dest) == opt.type(_config_text(opt, 0))
        flag, want = ["--" + dest.replace("_", "-"), _config_text(opt, 1)], opt.type(_config_text(opt, 1))
    assert getattr(_merged(command, "--config", str(cfg), *flag), dest) == want


def _readme_command_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = "".join(re.findall(r"```bash\n(.*?)```", text, flags=re.S)).replace("\\\n", " ")
    return [line.strip() for line in blocks.splitlines() if line.strip().startswith("ricker-lab ")]


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    assert len(lines) >= 10
    for line in lines:
        # optional parts are written [--flag value]; parse them as given
        argv = shlex.split(re.sub(r"\[([^\]]*)\]", r"\1", line))[1:]
        try:
            cli._build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")


def test_parser_keeps_no_state_between_calls(capsys, tmp_path):
    # the parser is built once per process; each call in one process must
    # print what the same call prints in a fresh one
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r=2\nh=1.7182818\njson=true\n")
    calls = [
        ("certify", "--r", "2", "--h", "2.6", "--json"),
        ("certify", "--r", "2", "--h", "2.6"),
        ("equilibrium", "--config", str(cfg)),
        ("equilibrium", "--r", "1.5", "--h", "1"),
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(ricker_lab.__file__).parents[1])}
    for argv in calls:
        code, out, err = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "ricker_lab", *argv],
                               capture_output=True, text=True, env=env, timeout=60)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
