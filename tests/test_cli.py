import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ricker_lab
from ricker_lab import ModelParams, certify_constant, cli, periodic, thresholds
from ricker_lab.cli import main


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


# h0 > h1 with h1 just above r: the one-step corner a = r + (h1 - r) 2^-k
# reaches r, where the feasibility curves have their pole
@pytest.mark.parametrize("r, h0, h1", [
    (1.0, 2.0, 1.0001), (1.0, 2.0, 1.00000001), (1.0, 2.0, 1.000000000000001),
    (1.0, 1.5, 1.0001), (1.0, 1.2, 1.00001), (0.5, 0.9, 0.5000001),
])
def test_certify_one_step_corner_at_the_pole(capsys, r, h0, h1):
    code, out, _ = run(capsys, "certify", "--r", repr(r), "--h0", repr(h0), "--h1", repr(h1),
                       "--grid", "256", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "AbsorbingBox" and payload["witness"] is None


# below r = 0.5 an ulp above r is within rounding of the pole, e^{r - t} == 1
@pytest.mark.parametrize("h0, h1", [(0.5, 0.10000000000000002), (0.10000000000000002, 0.5)])
def test_certify_stocking_within_rounding_of_r(capsys, h0, h1):
    code, _, err = run(capsys, "certify", "--r", "0.1", "--h0", repr(h0), "--h1", repr(h1),
                       "--grid", "64")
    assert code == 3 and "numeric failure" in err


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


def test_sweep_rejects_bad_grid(capsys):
    code, _, err = run(capsys, "sweep", "--mode", "constant",
                       "--h-lo", "5", "--h-hi", "1", "--nh", "4",
                       "--r-lo", "1", "--r-hi", "2", "--nr", "4")
    assert code == 2 and "grid" in err


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
