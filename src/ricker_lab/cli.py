"""Command-line front end: reports, certification, sweeps, orbit dumps, scans.

Exit codes: 0 on success, 2 on usage or parameter validation failure or a
file that cannot be read or written, 3 on numeric failure.  A simple
key=value config file (--config, after the subcommand) can pre-set any
option that `_COMMANDS` declares for that subcommand; explicit flags win.
CSV output uses 17 significant digits so a parse/re-serialize round trip is
byte identical.  Sweep rows are written in grid order.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Any, Callable, NamedTuple

import numpy as np

from .constant import (
    ThresholdSet,
    _constant_tag,
    _equilibrium_root,
    _local_verdict,
    certify_constant,
    solve_equilibrium,
    thresholds,
)
from .errors import RickerLabError
from .model import ModelParams
from .orbits import neimark_sacker_scan, simulate
from .periodic import (
    TwoCycleReport,
    _certify_cells,
    _scan_chunk,
    certify_periodic,
    find_artificial_cycles,
    solve_two_cycle,
)
from .verdicts import LocalVerdict, VerdictTag


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _print_json(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# options and config merging
# ---------------------------------------------------------------------------


class _Option(NamedTuple):
    """One option of a subcommand; type bool makes a store_true flag.  min is
    the smallest accepted value, checked before any work starts, so a bad
    value fails on every input, not only where it is used (a sweep reaches
    the --art-grid scan only on cells with min(h0, h1) >= r)."""

    type: Callable[[str], Any] = float
    default: Any = None
    required: bool = False
    choices: tuple[str, ...] | None = None
    min: int | None = None


class _Command(NamedTuple):
    handler: Callable[[argparse.Namespace], int]
    help: str
    options: dict[str, _Option]


def _load_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"config line is not key=value: {raw.strip()!r}")
            cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _merge_config(args: argparse.Namespace) -> None:
    """Fill the subcommand's unset options from the config file, then apply
    defaults and check each value against its declaration in `_COMMANDS`.

    CLI flags (non-None, or True for store_true flags) always win over the
    config file.  A config key the subcommand does not declare is an error.
    """
    options = _COMMANDS[args.command].options
    cfg = _load_config(args.config) if args.config else {}
    unknown = [key for key in cfg if key not in options]
    if unknown:
        raise ValueError(f"config keys not known to {args.command}: {', '.join(unknown)}")
    for dest, opt in options.items():
        val = getattr(args, dest)
        if opt.type is bool:
            if not val and dest in cfg:
                if cfg[dest].lower() not in _BOOLEANS:
                    raise ValueError(f"config {dest}={cfg[dest]!r} is not one of {'/'.join(_BOOLEANS)}")
                setattr(args, dest, _BOOLEANS[cfg[dest].lower()])
            continue
        if val is None:
            val = opt.type(cfg[dest]) if dest in cfg else opt.default
        if val is None:
            if opt.required:
                raise ValueError(f"missing required option {_flag(dest)}")
        elif opt.choices is not None and val not in opt.choices:
            raise ValueError(f"{_flag(dest)} must be one of {', '.join(opt.choices)}, got {val!r}")
        elif opt.min is not None and val < opt.min:
            raise ValueError(f"{args.command} needs {_flag(dest)} >= {opt.min}, got {val}")
        setattr(args, dest, val)


def _stocking_from(args: argparse.Namespace) -> tuple[float, ...]:
    """The stocking schedule from --h or from the pair --h0/--h1, not both."""
    if args.h is not None:
        if args.h0 is not None or args.h1 is not None:
            raise ValueError("give either --h or the pair --h0/--h1, not both")
        return (args.h,)
    if args.h0 is None or args.h1 is None:
        raise ValueError("give --h or both --h0 and --h1")
    return (args.h0, args.h1)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_equilibrium(args: argparse.Namespace) -> int:
    report = solve_equilibrium(ModelParams.constant(args.r, args.h))
    if args.json:
        _print_json({"r": args.r, "h": args.h, **report.to_dict()})
    else:
        lam = report.eigenvalues[0]
        print(
            f"y_bar={report.y_bar:.6f} trace={report.trace:.6f} det={report.det:.6f} "
            f"eig={lam.real:.6f}{lam.imag:+.6f}i verdict={report.local_verdict.value} "
            f"residual={report.residual:.2e}"
        )
    return 0


def cmd_two_cycle(args: argparse.Namespace) -> int:
    report = solve_two_cycle(ModelParams(r=args.r, stocking=(args.h0, args.h1)))
    if args.json:
        _print_json({"r": args.r, "h0": args.h0, "h1": args.h1, **report.to_dict()})
    else:
        lam = report.eigenvalues[0]
        print(
            f"z0={report.z0:.6f} z1={report.z1:.6f} trace={report.trace:.6f} "
            f"det={report.det:.6f} eig={lam.real:.6f}{lam.imag:+.6f}i "
            f"verdict={report.local_verdict.value} residual={max(report.residuals):.2e}"
        )
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    params = ModelParams(r=args.r, stocking=_stocking_from(args))
    if params.p == 1:
        verdict = certify_constant(params)
        payload = {"mode": "constant", "r": params.r, "h": params.h_const}
        payload["y_bar"] = solve_equilibrium(params).y_bar
    else:
        report = solve_two_cycle(params)
        verdict = certify_periodic(params, args.grid, cycle=report)
        payload = {
            "mode": "periodic", "r": params.r,
            "h0": params.stocking[0], "h1": params.stocking[1],
            "z0": report.z0, "z1": report.z1,
        }
    payload.update(verdict.to_dict())
    if args.json:
        _print_json(payload)
    else:
        bits = [f"verdict={verdict.tag.value}"]
        if verdict.box is not None:
            bits.append(f"box=[{verdict.box[0]:.6f}, {verdict.box[1]:.6f}]")
        if verdict.even_range is not None:
            bits.append(
                f"even=[{verdict.even_range[0]:.6f}, {verdict.even_range[1]:.6f}] "
                f"odd=[{verdict.odd_range[0]:.6f}, {verdict.odd_range[1]:.6f}]"
            )
        if verdict.witness is not None:
            bits.append(f"witness=({verdict.witness[0]:.6f}, {verdict.witness[1]:.6f})")
        bits.append(f"provenance: {verdict.provenance}")
        print(" ".join(bits))
    return 0


_SWEEP_HEADER_CONSTANT = "h,r,verdict,y_bar,r1,r2,notes"
_SWEEP_HEADER_PERIODIC = "h0,h1,r,verdict,z0,z1,notes"
_CURVES_HEADER = "h,r1,r2,r_diag"


def _sweep_constant_row(h: float, ts: ThresholdSet, r_cells: list[tuple[float, str]]) -> list[str]:
    """The constant sweep's row at stocking h, one cell per (r, formatted r)
    of `r_cells`.  Each cell's y_bar is the root `equilibrium` reports."""
    head = f"{_fmt(h)},"
    tail = f",{_fmt(ts.r1)},{_fmt(ts.r2)},"
    rows = []
    for r, r_text in r_cells:
        y = _equilibrium_root(r, h)
        tag = _constant_tag(r, h, ts, y)
        note = ""
        if _local_verdict(r, y, band=1e-8) is LocalVerdict.MARGINAL:
            note = "near local-stability boundary"
        rows.append(f"{head}{r_text},{tag.value},{_fmt(y)}{tail}{note}")
    return rows


def _sweep_periodic_row(h0: float, h1: float, r: float, tag: VerdictTag, z0: float, z1: float, note: str) -> str:
    return f"{_fmt(h0)},{_fmt(h1)},{_fmt(r)},{tag.value},{_fmt(z0)},{_fmt(z1)},{note}"


def _sweep_periodic_rows(r: float, h0_vals: np.ndarray, h1_vals: np.ndarray, art_grid: int) -> list[str]:
    """The periodic sweep's rows, in grid order.

    Each cell solves its 2-cycle once, as its turn comes.  Cells with
    h0 != h1 then wait until `_scan_chunk(art_grid)` of them have gathered
    and are certified together, with one artificial-cycle scan for those
    that need it, so the scan's memory is bounded by one chunk however large
    the sweep.  A cell that fails certifies the waiting cells first, so the
    error reported is that of the first failing cell in grid order.
    """
    chunk = _scan_chunk(art_grid)
    rows: list[str | None] = []
    waiting: list[tuple[int, ModelParams, TwoCycleReport]] = []  # (row index, params, 2-cycle)

    def certify_waiting() -> None:
        verdicts = _certify_cells([(params, report) for _, params, report in waiting], art_grid)
        for (i, params, report), verdict in zip(waiting, verdicts):
            tag = verdict.tag
            note = '"min(h0,h1) < r"' if tag is VerdictTag.NOT_APPLICABLE else f"art-grid={art_grid}"
            rows[i] = _sweep_periodic_row(*params.stocking, r, tag, report.z0, report.z1, note)
        waiting.clear()

    for h0 in h0_vals.tolist():
        for h1 in h1_vals.tolist():
            try:
                if h0 == h1:
                    y = solve_equilibrium(ModelParams.constant(r, h0)).y_bar
                    rows.append(_sweep_periodic_row(
                        h0, h1, r, VerdictTag.NOT_APPLICABLE, y, y, "degenerate: h0 == h1"
                    ))
                    continue
                params = ModelParams(r=r, stocking=(h0, h1))
                report = solve_two_cycle(params)
            except Exception:
                certify_waiting()
                raise
            waiting.append((len(rows), params, report))
            rows.append(None)
            if len(waiting) == chunk:
                certify_waiting()
    certify_waiting()
    return rows


# sweep mode -> the options it requires and the one it also takes; a mode
# rejects the other's options.  --art-grid gets its default, 128, in cmd_sweep
# and not in `_COMMANDS`, so that a constant sweep can tell whether it was given
_SWEEP_MODES = {
    "constant": (("h_lo", "h_hi", "nh", "r_lo", "r_hi", "nr"), "curves"),
    "periodic": (("r", "h0_lo", "h0_hi", "nh0", "h1_lo", "h1_hi", "nh1"), "art_grid"),
}


def cmd_sweep(args: argparse.Namespace) -> int:
    for mode, (required, optional) in _SWEEP_MODES.items():
        for name in (*required, optional):
            given = getattr(args, name) is not None
            if mode != args.mode and given:
                raise ValueError(f"sweep --mode {args.mode} does not take {_flag(name)}")
            if mode == args.mode and name in required and not given:
                raise ValueError(f"{mode} sweep requires {_flag(name)}")
    if args.mode == "constant":
        # written as one positive condition, so that NaN and inf bounds fail it
        if not (args.nh >= 1 and args.nr >= 1 and 0 < args.h_lo <= args.h_hi < math.inf
                and 0 < args.r_lo <= args.r_hi < math.inf):
            raise ValueError("sweep grid must have finite positive ranges and counts")
        rows_ts = [(h, thresholds(h)) for h in np.linspace(args.h_lo, args.h_hi, args.nh).tolist()]
        r_cells = [(r, _fmt(r)) for r in np.linspace(args.r_lo, args.r_hi, args.nr).tolist()]
        lines = [_SWEEP_HEADER_CONSTANT]
        for h, ts in rows_ts:
            lines.extend(_sweep_constant_row(h, ts, r_cells))
        _emit(lines, args.out)
        curves_path = args.curves
        if curves_path is None and args.out not in (None, "-"):
            curves_path = args.out + ".curves.csv"
        if curves_path is not None:
            curve_lines = [_CURVES_HEADER]
            for h, ts in rows_ts:
                curve_lines.append(f"{_fmt(h)},{_fmt(ts.r1)},{_fmt(ts.r2)},{_fmt(h)}")
            _emit(curve_lines, curves_path)
        return 0

    if not (args.nh0 >= 1 and args.nh1 >= 1 and 0 <= args.h0_lo <= args.h0_hi < math.inf
            and 0 <= args.h1_lo <= args.h1_hi < math.inf):
        raise ValueError("sweep grid must have finite non-negative ranges and positive counts")
    h0_vals = np.linspace(args.h0_lo, args.h0_hi, args.nh0)
    h1_vals = np.linspace(args.h1_lo, args.h1_hi, args.nh1)
    art_grid = 128 if args.art_grid is None else args.art_grid
    _emit([_SWEEP_HEADER_PERIODIC, *_sweep_periodic_rows(args.r, h0_vals, h1_vals, art_grid)], args.out)
    return 0


def cmd_orbit(args: argparse.Namespace) -> int:
    params = ModelParams(r=args.r, stocking=_stocking_from(args))
    total = args.transient + args.n
    orbit = simulate(params, args.x0, args.xprev, total)
    lines = ["n,x_n,x_prev,parity"]
    for k in range(args.transient, total):
        n = k + 1
        prev = args.x0 if k == 0 else orbit[k - 1]
        lines.append(f"{n},{_fmt(orbit[k])},{_fmt(float(prev))},{n % 2}")
    _emit(lines, args.out)
    return 0


def cmd_scan_ns(args: argparse.Namespace) -> int:
    stocking = _stocking_from(args)
    family = lambda s: ModelParams(r=s, stocking=stocking)
    report = neimark_sacker_scan(family, args.s_lo, args.s_hi, steps=args.steps)
    if args.json:
        _print_json({
            "s_lo": report.s_lo, "s_hi": report.s_hi, "s_star": report.s_star,
            "modulus": report.modulus, "argument": report.argument,
            "complex_pair": report.complex_pair, "kind": report.kind,
        })
    else:
        print(
            f"crossing at s={report.s_star:.8f} (bracket [{report.s_lo:.6f}, {report.s_hi:.6f}]) "
            f"modulus={report.modulus:.8f} argument={report.argument:.6f} "
            f"complex={report.complex_pair} kind={report.kind}"
        )
    return 0


def cmd_artificial_cycles(args: argparse.Namespace) -> int:
    result = find_artificial_cycles(ModelParams(r=args.r, stocking=(args.h0, args.h1)), args.grid)
    if args.json:
        _print_json({
            "r": args.r, "h0": args.h0, "h1": args.h1,
            "count": result.count, "grid": result.grid,
            "cycles": [list(q) for q in result.cycles],
        })
    else:
        print(f"count={result.count} (scan {result.grid}x{result.grid})")
        for q in result.cycles:
            print("  " + " ".join(_fmt(c) for c in q))
    return 0


# ---------------------------------------------------------------------------
# option table and parser
# ---------------------------------------------------------------------------


_R = {"r": _Option(required=True)}
_STOCKING = {"h": _Option(), "h0": _Option(), "h1": _Option()}
_PAIR = {"h0": _Option(required=True), "h1": _Option(required=True)}
_GRID = {"grid": _Option(int, 1024, min=2)}
_JSON = {"json": _Option(bool, False)}
_OUT = {"out": _Option(str, "-")}

# subcommand -> handler, help text and options, in the order --help lists them
_COMMANDS = {
    "equilibrium": _Command(cmd_equilibrium, "equilibrium report for constant stocking",
                            {**_R, "h": _Option(required=True), **_JSON}),
    "two-cycle": _Command(cmd_two_cycle, "2-cycle report for 2-periodic stocking",
                          {**_R, **_PAIR, **_JSON}),
    "certify": _Command(cmd_certify, "global-stability certification",
                        {**_R, **_STOCKING, **_GRID, **_JSON}),
    "sweep": _Command(cmd_sweep, "parameter-plane sweep to CSV", {
        "mode": _Option(str, "constant", choices=("constant", "periodic")),
        "h_lo": _Option(), "h_hi": _Option(), "nh": _Option(int),
        "r_lo": _Option(), "r_hi": _Option(), "nr": _Option(int),
        "r": _Option(), "h0_lo": _Option(), "h0_hi": _Option(), "nh0": _Option(int),
        "h1_lo": _Option(), "h1_hi": _Option(), "nh1": _Option(int),
        "art_grid": _Option(int, min=2), **_OUT, "curves": _Option(str),
    }),
    "orbit": _Command(cmd_orbit, "orbit dump as CSV (n, x_n, x_prev, parity)", {
        **_R, **_STOCKING,
        "x0": _Option(required=True), "xprev": _Option(required=True),
        "n": _Option(int, required=True, min=1), "transient": _Option(int, 0, min=0), **_OUT,
    }),
    "scan-ns": _Command(cmd_scan_ns, "locate a unit-modulus eigenvalue crossing along r", {
        **_STOCKING, "s_lo": _Option(required=True), "s_hi": _Option(required=True),
        "steps": _Option(int, 101), **_JSON,
    }),
    "artificial-cycles": _Command(cmd_artificial_cycles, "enumerate artificial cycles of the folded map",
                                  {**_R, **_PAIR, **_GRID, **_JSON}),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser from `_COMMANDS`, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="ricker-lab",
        description="Delayed Ricker model with stocking: reports, certification, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="key=value file; flags override")
        for dest, opt in command.options.items():
            if opt.type is bool:
                p.add_argument(_flag(dest), action="store_true")
            else:
                p.add_argument(_flag(dest), type=opt.type, choices=opt.choices)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _merge_config(args)
        return _COMMANDS[args.command].handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RickerLabError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
