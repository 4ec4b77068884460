"""Point-wise CLI outputs pinned against a golden file.

`tests/data/cli_points_golden.jsonl` holds one JSON object per line: the argv
of a CLI call, its exit code and its standard output.  `equilibrium`,
constant `certify`, `two-cycle` and `scan-ns` must reproduce their output
byte for byte.  Periodic `certify` and `artificial-cycles` must reproduce
every field exactly except `even_range`, `odd_range` and `cycles`, which may
move by 1e-10 absolute: they are Newton-polished roots of the folded map.

The call list mixes hand-picked points (README and paper examples, h0 and h1
an ulp apart, tiny stocking, large growth rates, the known-failing
intersection point) with seeded random ones.  Regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py

only on purpose, and say in the change log which outputs moved and why.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from ricker_lab.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_points_golden.jsonl"
ROOT_FIELDS = ("even_range", "odd_range", "cycles")
ROOT_TOL = 1e-10


def _calls() -> list[list[str]]:
    rng = np.random.default_rng(20261018)
    calls: list[list[str]] = []

    constant = [
        (2.0, 2.6), (1.8, 2.6), (2.0, 1.7182818), (1.5, 1.7182818), (1.0, 1.0),
        (1.3068528194400546, 1.0), (0.5, 3.0), (3.0, 0.5), (4.5, 9.0), (2.0, 0.0),
        (1.1995871901336117, 1.2145055622368421), (1e-3, 5.0), (30.0, 2.0),
        (40.0, 1.0), (2.0, 1e-9), (1.0, 1e-10), (0.5, 1e-6), (3.0, 1e-11),
    ]
    constant += [
        (float(r), float(h))
        for r, h in zip(rng.uniform(0.1, 6.0, 40), np.exp(rng.uniform(-6.0, 2.5, 40)))
    ]
    for r, h in constant:
        calls.append(["equilibrium", "--r", repr(r), "--h", repr(h), "--json"])
        if h > 0.0:
            calls.append(["certify", "--r", repr(r), "--h", repr(h), "--json"])

    periodic = [
        (1.0, 2.0, 1.5), (1.0, 2.0, 1.0), (1.0, 1.0, 2.0), (0.5, 3.0, 0.6),
        (1.2, 1.3, 2.9), (1.5, 0.82, 1.8), (1.0, 1.0043478, 1.1217391),
        (1.0, 1.2000000000000002, 1.2), (1.0, 1.2, 1.2000000000000002),
        (2.0, 2.5, math.nextafter(2.5, 0.0)), (0.7, 1e-9, 2.0), (0.7, 2.0, 1e-9),
        (3.0, 4.0, 3.5), (4.5, 9.0, 5.0), (2.0, 0.3, 0.4),
    ]
    periodic += [
        (float(r), float(h0), float(h1))
        for r, h0, h1 in zip(rng.uniform(0.3, 4.5, 45), rng.uniform(0.0, 9.0, 45),
                             rng.uniform(0.0, 9.0, 45))
    ]
    periodic += [
        (1.0, float(h0), float(h1))
        for h0, h1 in zip(rng.uniform(1.0, 3.0, 20), rng.uniform(1.0, 3.0, 20))
    ]
    for i, (r, h0, h1) in enumerate(periodic):
        point = ["--r", repr(r), "--h0", repr(h0), "--h1", repr(h1)]
        grid = "1024" if i % 8 == 0 else "256"
        calls.append(["two-cycle", *point, "--json"])
        calls.append(["certify", *point, "--grid", grid, "--json"])
        calls.append(["artificial-cycles", *point, "--grid", grid, "--json"])

    for h in (0.3, 1.0, 2.6, 5.0):
        hi = h + 1.0 - math.log(h + 1.0) + 0.3
        calls.append(["scan-ns", "--h", repr(h), "--s-lo", "0.5", "--s-hi", repr(hi), "--json"])
    calls.append(["scan-ns", "--h", "1", "--s-lo", "1.0", "--s-hi", "1.6", "--steps", "7", "--json"])
    calls.append(["scan-ns", "--h", "1", "--s-lo", "0.1", "--s-hi", "1.0", "--json"])
    calls.append(["scan-ns", "--h0", "2", "--h1", "1.5", "--s-lo", "0.5", "--s-hi", "3.5", "--json"])
    calls.append(["scan-ns", "--h0", "0.82", "--h1", "1.8", "--s-lo", "0.5", "--s-hi", "2.5", "--json"])
    return calls


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _close(got, want) -> bool:
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_close, got, want))
    if isinstance(want, float):
        return isinstance(got, float) and abs(got - want) <= ROOT_TOL
    return got == want


def _mismatch(argv: list[str], code: int, out: str, want: dict) -> str | None:
    if code != want["exit"]:
        return f"exit {code}, golden {want['exit']}"
    periodic = argv[0] in ("certify", "artificial-cycles") and "--h0" in argv
    if not periodic or code != 0:
        return None if out == want["stdout"] else "stdout differs"
    got, ref = json.loads(out), json.loads(want["stdout"])
    if set(got) != set(ref):
        return f"keys {sorted(got)} != {sorted(ref)}"
    for key in ref:
        ok = _close(got[key], ref[key]) if key in ROOT_FIELDS else got[key] == ref[key]
        if not ok:
            return f"{key}: {got[key]!r} != {ref[key]!r}"
    return None


def test_cli_points_match_golden():
    records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    failures = []
    for rec in records:
        reason = _mismatch(rec["argv"], *_run(rec["argv"]), rec)
        if reason is not None:
            failures.append(f"{' '.join(rec['argv'])}: {reason}")
    assert not failures, "\n".join(failures)


if __name__ == "__main__":
    with GOLDEN.open("w") as fh:
        for argv in _calls():
            code, out = _run(argv)
            fh.write(json.dumps({"argv": argv, "exit": code, "stdout": out}) + "\n")
