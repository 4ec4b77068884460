"""ricker-lab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload point-certify --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from the
checkout's own src/.  Each run starts fresh workload processes (worker.py):
four that only set up and one that sets up and then measures, and reports
set-up time as the median of the five.  RICKER_LAB_THREADS is removed from
their environment, so sweeps use the CLI's default pool.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics
(the end-to-end metrics, or with --trace 1 the per-layer metrics).
"""
from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-periodic", "point-certify", "orbits-embedding")
SETUP_PROBES = 4
SETUP_TIMEOUT_S = 30
CHECK_TIMEOUT_S = 60


class BenchError(Exception):
    pass


def _start(cmd: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a workload process and return it with its set-up time, the time
    from its start until it reports ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    ready = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)[0]
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process did not set up (exit {proc.returncode})")
    return proc, setup


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process ran past {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    return out


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (HERE.parent / "src" / "ricker_lab" / "__init__.py").is_file():
        raise BenchError(f"no ricker_lab sources under {HERE.parent / 'src'}")
    env = {k: v for k, v in os.environ.items() if k != "RICKER_LAB_THREADS"}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            proc, setup = _start(cmd + ["--probe"], env)
            _finish(proc, SETUP_TIMEOUT_S)
            setups.append(setup)
    proc, setup = _start(cmd + ["--seconds", str(seconds), "--trace", str(int(trace))], env)
    setups.append(setup)
    report = json.loads(_finish(proc, seconds + CHECK_TIMEOUT_S).splitlines()[-1])
    if not trace:
        report["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **report["metrics"]}
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
