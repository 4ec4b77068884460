"""The workload process: set up, run whole rounds of ops for a fixed time,
then check every output, and report on the last line of standard output.

Started by run.py, one fresh process per workload run.  With --probe it
stops after set-up, so run.py can time set-up in several processes.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402  (imports ricker_lab)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0          # failed ops whose output an oracle rejected
    timed_ns: int = 0       # wall time of all ops, failed ones included
    latencies_ns: list[int] = field(default_factory=list)   # ops that succeeded
    op_cpu_ns: dict[int, int] = field(default_factory=dict)  # process CPU per op
    errors: dict[str, str] = field(default_factory=dict)     # first error per op kind
    # per op: (op index in the round, wall ns, the program's error text or the output)
    records: list[tuple[int, int, object]] = field(default_factory=list)


def run_rounds(ops, budget_ns: int, tracer=None) -> Tally:
    """Run whole rounds of `ops` until their summed wall time reaches budget_ns.

    Only op.run() is timed.  Outputs are kept, not checked: equal outputs of
    an op share one copy, so memory holds only the few distinct ones and the
    checks, run later by `check_outputs`, add nothing to this loop's time or
    peak memory.
    """
    tally = Tally()
    distinct: dict[tuple, tuple] = {}
    while True:
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = tally.attempted
            c0 = time.process_time_ns()
            t0 = time.perf_counter_ns()
            error = op.run()
            t1 = time.perf_counter_ns()
            tally.op_cpu_ns[tally.attempted] = time.process_time_ns() - c0
            tally.timed_ns += t1 - t0
            tally.attempted += 1
            if error is None:
                key = (i, op.output())
                tally.records.append((i, t1 - t0, distinct.setdefault(key, key)))
            else:
                tally.records.append((i, t1 - t0, error))
        if tally.timed_ns >= budget_ns:
            return tally


def check_outputs(ops, tally: Tally, check_rng) -> Tally:
    """Check each distinct output of each op once and count the failed ops.

    An op fails when the program reported an error (its record holds the
    error text) or its output does not pass the check (CheckFailed, or an
    output too malformed to check).
    """
    verdicts: dict[int, str | None] = {}   # id of a distinct (op, output) -> its error
    for i, wall_ns, outcome in tally.records:
        if isinstance(outcome, str):
            error = outcome
        else:
            if id(outcome) not in verdicts:
                try:
                    ops[i].check(outcome[1], check_rng)
                    verdicts[id(outcome)] = None
                except Exception as exc:  # a malformed output fails its op, not the run
                    verdicts[id(outcome)] = f"wrong output: {type(exc).__name__}: {exc}"
            error = verdicts[id(outcome)]
            tally.wrong += error is not None
        if error is None:
            tally.latencies_ns.append(wall_ns)
        else:
            tally.failed += 1
            tally.errors.setdefault(ops[i].kind, error)
    return tally


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    # The whole process, pool threads included, runs on one CPU.  The
    # sweep's two pool threads take the GIL in turn; spread over two vCPUs,
    # every hand-off waits for the hypervisor to wake the other vCPU, and
    # that wait swings with the host (see "Pinning" in README.md).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    ops = workloads.build_round(args.workload, args.seed)
    ops[0].run()
    print("ready", flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    tally = run_rounds(ops, int(args.seconds * 1e9), tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_outputs(ops, tally, np.random.default_rng([args.seed, 7]))

    for kind, error in tally.errors.items():
        print(f"{args.workload} {kind}: {error}", file=sys.stderr)
    report = {"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed}
    op_p50_ms = statistics.median(tally.latencies_ns) / 1e6 if tally.latencies_ns else float("nan")
    if tracer:
        workloads.OUT_DIR.mkdir(exist_ok=True)
        path = workloads.OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(path)
        layers = tracing.layer_metrics(tracer.spans, tally.op_cpu_ns, threading.get_ident())
        report["metrics"] = {name: {"value": layers[name], "unit": unit} for name, unit in tracing.PER_LAYER}
        print(f"{args.workload}: traced op_p50_ms={op_p50_ms:.6g}, spans in {path}", file=sys.stderr)
    else:
        report["metrics"] = {
            "ops_per_s": {"value": (tally.attempted - tally.failed) / (tally.timed_ns / 1e9), "unit": "1/s"},
            "op_p50_ms": {"value": op_p50_ms, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
