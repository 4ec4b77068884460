"""Span tracer applied to ricker_lab from outside the program.

Each traced function is replaced, in every ricker_lab module namespace that
binds it, by a wrapper that records one span per call: its name, the op it
belongs to, its thread, its parent span, its wall time and its thread CPU
time, plus a per-function count taken from the arguments or the result.
Spans stay in memory until `write` puts them in a file at the end of the run.

model, verdicts and errors are not traced: their calls take well under a
microsecond, so their time counts as their callers' self time.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


def _two_cycle_count(args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    point = (params.r, *params.stocking)
    unstable = result is not None and result.local_verdict.value != "LAS"
    return point, unstable


# "module.function" -> the count a call contributes, taken from its
# arguments and result, or None
TRACED = {
    "constant.solve_equilibrium": None,
    "constant.find_intersections": None,
    "constant.certify_constant": None,
    "periodic.solve_two_cycle": _two_cycle_count,
    "periodic.find_artificial_cycles": lambda a, k, res: res.count if res is not None else 0,
    "periodic.certify_periodic": None,
    "embedding.corner_iterate": lambda a, k, res: res.iterations if res is not None else 0,
    "orbits.simulate": lambda a, k, res: a[3] if len(a) > 3 else k["n_steps"],
    "orbits.classify_attractor": None,
    "orbits.neimark_sacker_scan": None,
}

PER_LAYER = (
    ("cli.self_cpu_ms", "ms"),
    ("cli.pool_wait_ms", "ms"),
    ("constant.solve_equilibrium.calls", "count"),
    ("constant.solve_equilibrium.cpu_ms", "ms"),
    ("constant.find_intersections.calls", "count"),
    ("constant.find_intersections.cpu_ms", "ms"),
    ("constant.certify_constant.cpu_ms", "ms"),
    ("periodic.solve_two_cycle.calls", "count"),
    ("periodic.solve_two_cycle.cpu_ms", "ms"),
    ("periodic.solve_two_cycle.calls_per_point", "ratio"),
    ("periodic.solve_two_cycle.unstable_share", "ratio"),
    ("periodic.find_artificial_cycles.calls", "count"),
    ("periodic.find_artificial_cycles.cpu_ms", "ms"),
    ("periodic.find_artificial_cycles.found", "count"),
    ("periodic.certify_periodic.cpu_ms", "ms"),
    ("embedding.corner_iterate.calls", "count"),
    ("embedding.corner_iterate.cpu_ms", "ms"),
    ("embedding.corner_iterate.iterations", "count"),
    ("orbits.simulate.steps", "count"),
    ("orbits.simulate.cpu_ms", "ms"),
    ("orbits.classify_attractor.cpu_ms", "ms"),
    ("orbits.neimark_sacker_scan.cpu_ms", "ms"),
)

_COUNT_NAME = {
    "periodic.find_artificial_cycles": "found",
    "embedding.corner_iterate": "iterations",
    "orbits.simulate": "steps",
}


class Tracer:
    """Wraps the traced functions and keeps their spans.

    A span is (id, parent id, name, op, thread id, start ns, end ns, thread
    CPU ns, count).  `op` is the index of the op that was running when the
    span started; the caller sets it before each op.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()

    def install(self) -> None:
        """Wrap every traced function in each ricker_lab module binding it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "ricker_lab" or n.startswith("ricker_lab.")]
        for name, count in TRACED.items():
            module, func = name.split(".")
            original = getattr(sys.modules[f"ricker_lab.{module}"], func)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                if getattr(mod, func, None) is original:
                    setattr(mod, func, wrapper)

    def _wrap(self, name, fn, count):
        spans, local, ids = self.spans, self._local, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            sid = next(ids)
            op = self.op
            stack.append(sid)
            result = None
            c0 = time.thread_time_ns()
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                c1 = time.thread_time_ns()
                stack.pop()
                spans.append((
                    sid, parent, name, op, threading.get_ident(), t0, t1, c1 - c0,
                    count(args, kwargs, result) if count else None,
                ))

        return traced

    def write(self, path) -> None:
        fields = ("id", "parent", "name", "op", "thread", "start_ns", "end_ns", "cpu_ns", "count")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def layer_metrics(spans, op_cpu_ns: dict[int, int], main_thread: int) -> dict[str, float]:
    """Per-op layer metrics from the spans of the ops in op_cpu_ns.

    op_cpu_ns maps op index to the process CPU time the op took.  cpu_ms is
    self CPU time: a span's thread CPU minus that of its traced children.
    cli.self_cpu_ms is the op's process CPU outside every root span;
    cli.pool_wait_ms is wall minus thread CPU of root spans on pool threads.
    """
    ops = len(op_cpu_ns)
    spans = [s for s in spans if s[3] in op_cpu_ns]
    child_cpu = defaultdict(int)
    for s in spans:
        if s[1]:
            child_cpu[s[1]] += s[7]
    calls = defaultdict(int)
    self_cpu = defaultdict(int)
    counts = defaultdict(int)
    root_cpu = 0
    pool_wait = 0
    points_per_op = defaultdict(set)
    unstable = 0
    for sid, parent, name, op, thread, t0, t1, cpu, count in spans:
        calls[name] += 1
        self_cpu[name] += cpu - child_cpu[sid]
        if not parent:
            root_cpu += cpu
            if thread != main_thread:
                pool_wait += (t1 - t0) - cpu
        if name == "periodic.solve_two_cycle":
            point, was_unstable = count
            points_per_op[op].add(point)
            unstable += was_unstable
        elif count is not None:
            counts[name] += count

    metrics = {
        "cli.self_cpu_ms": (sum(op_cpu_ns.values()) - root_cpu) / 1e6 / ops,
        "cli.pool_wait_ms": pool_wait / 1e6 / ops,
    }
    for name in TRACED:
        metrics[f"{name}.calls"] = calls[name] / ops
        metrics[f"{name}.cpu_ms"] = self_cpu[name] / 1e6 / ops
        if name in _COUNT_NAME:
            metrics[f"{name}.{_COUNT_NAME[name]}"] = counts[name] / ops
    two_cycle_calls = calls["periodic.solve_two_cycle"]
    points = sum(len(p) for p in points_per_op.values())
    metrics["periodic.solve_two_cycle.calls_per_point"] = two_cycle_calls / points if points else 0.0
    metrics["periodic.solve_two_cycle.unstable_share"] = unstable / two_cycle_calls if two_cycle_calls else 0.0
    return metrics
