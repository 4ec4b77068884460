"""Command-line front end: reports, certification, sweeps, orbit dumps, scans.

Exit codes: 0 on success, 2 on usage or parameter validation failure, 3 on
numeric failure.  A simple key=value config file can pre-set any option
(--config); explicit flags win.  CSV output uses 17 significant digits so a
parse/re-serialize round trip is byte identical.  Sweep rows are written in
grid order.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .constant import (
    _constant_tag,
    _local_verdict,
    certify_constant,
    equilibria_grid,
    solve_equilibrium,
    thresholds,
)
from .errors import RickerLabError
from .model import ModelParams
from .orbits import neimark_sacker_scan, simulate
from .periodic import _certify_periodic, find_artificial_cycles, solve_two_cycle
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
# config merging
# ---------------------------------------------------------------------------


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


def _as_bool(raw: str) -> bool:
    return raw.lower() in {"1", "true", "yes", "on"}


def _merge_config(args: argparse.Namespace, spec: dict[str, tuple]) -> None:
    """Fill unset options from the config file, then apply defaults.

    spec maps dest -> (coerce, default, required).  CLI flags (non-None, or
    True for store_true flags) always win over the config file.
    """
    cfg = _load_config(args.config) if args.config else {}
    for dest, (coerce, default, required) in spec.items():
        val = getattr(args, dest, None)
        if coerce is _as_bool:
            if val is False and dest in cfg:
                setattr(args, dest, _as_bool(cfg[dest]))
            continue
        if val is None and dest in cfg:
            val = coerce(cfg[dest])
        if val is None:
            val = default
        if val is None and required:
            raise ValueError(f"missing required option --{dest.replace('_', '-')}")
        setattr(args, dest, val)


def _require_scan_grid(grid: int, flag: str) -> None:
    """Reject an artificial-cycle scan resolution below 2 before any cell
    runs, so the option fails on every input, not only on the cells that
    reach the scan."""
    if grid < 2:
        raise ValueError(f"the artificial-cycle scan needs {flag} >= 2, got {grid}")


def _params_from(args: argparse.Namespace) -> ModelParams:
    has_const = args.h is not None
    has_periodic = args.h0 is not None or args.h1 is not None
    if has_const and has_periodic:
        raise ValueError("give either --h or the pair --h0/--h1, not both")
    if has_const:
        return ModelParams.constant(args.r, args.h)
    if args.h0 is None or args.h1 is None:
        raise ValueError("periodic stocking needs both --h0 and --h1")
    return ModelParams(r=args.r, stocking=(args.h0, args.h1))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_equilibrium(args: argparse.Namespace) -> int:
    _merge_config(args, {
        "r": (float, None, True),
        "h": (float, None, True),
        "json": (_as_bool, False, False),
    })
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
    _merge_config(args, {
        "r": (float, None, True),
        "h0": (float, None, True),
        "h1": (float, None, True),
        "json": (_as_bool, False, False),
    })
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
    _merge_config(args, {
        "r": (float, None, True),
        "h": (float, None, False),
        "h0": (float, None, False),
        "h1": (float, None, False),
        "grid": (int, 1024, False),
        "json": (_as_bool, False, False),
    })
    _require_scan_grid(args.grid, "--grid")
    params = _params_from(args)
    if params.p == 1:
        verdict = certify_constant(params)
        payload = {"mode": "constant", "r": params.r, "h": params.h_const}
        payload["y_bar"] = solve_equilibrium(params).y_bar
    else:
        report = solve_two_cycle(params)
        verdict = _certify_periodic(params, report, args.grid)
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


def _sweep_constant_row(h: float, r_vals: np.ndarray) -> list[str]:
    ts = thresholds(h)
    y_row = equilibria_grid(r_vals, np.full(r_vals.shape, h))
    rows = []
    for r, y in zip(r_vals, y_row):
        tag = _constant_tag(float(r), h, ts, float(y))
        note = ""
        if _local_verdict(float(r), float(y), band=1e-8) is LocalVerdict.MARGINAL:
            note = "near local-stability boundary"
        rows.append(
            f"{_fmt(h)},{_fmt(float(r))},{tag.value},{_fmt(float(y))},"
            f"{_fmt(ts.r1)},{_fmt(ts.r2)},{note}"
        )
    return rows


def _sweep_periodic_cell(r: float, h0: float, h1: float, art_grid: int) -> str:
    if h0 == h1:
        y = solve_equilibrium(ModelParams.constant(r, h0)).y_bar
        return (
            f"{_fmt(h0)},{_fmt(h1)},{_fmt(r)},{VerdictTag.NOT_APPLICABLE.value},"
            f"{_fmt(y)},{_fmt(y)},degenerate: h0 == h1"
        )
    params = ModelParams(r=r, stocking=(h0, h1))
    report = solve_two_cycle(params)
    tag = _certify_periodic(params, report, art_grid).tag
    note = '"min(h0,h1) < r"' if tag is VerdictTag.NOT_APPLICABLE else f"art-grid={art_grid}"
    return (
        f"{_fmt(h0)},{_fmt(h1)},{_fmt(r)},{tag.value},"
        f"{_fmt(report.z0)},{_fmt(report.z1)},{note}"
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    _merge_config(args, {
        "mode": (str, "constant", False),
        "h_lo": (float, None, False), "h_hi": (float, None, False), "nh": (int, None, False),
        "r_lo": (float, None, False), "r_hi": (float, None, False), "nr": (int, None, False),
        "r": (float, None, False),
        "h0_lo": (float, None, False), "h0_hi": (float, None, False), "nh0": (int, None, False),
        "h1_lo": (float, None, False), "h1_hi": (float, None, False), "nh1": (int, None, False),
        "art_grid": (int, 128, False),
        "out": (str, "-", False),
        "curves": (str, None, False),
    })
    _require_scan_grid(args.art_grid, "--art-grid")
    if args.mode == "constant":
        for name in ("h_lo", "h_hi", "nh", "r_lo", "r_hi", "nr"):
            if getattr(args, name) is None:
                raise ValueError(f"constant sweep requires --{name.replace('_', '-')}")
        if args.nh < 1 or args.nr < 1 or args.h_lo <= 0 or args.h_lo > args.h_hi or args.r_lo <= 0 or args.r_lo > args.r_hi:
            raise ValueError("sweep grid must have positive ranges and counts")
        h_vals = np.linspace(args.h_lo, args.h_hi, args.nh)
        r_vals = np.linspace(args.r_lo, args.r_hi, args.nr)
        lines = [_SWEEP_HEADER_CONSTANT]
        for h in h_vals:
            lines.extend(_sweep_constant_row(float(h), r_vals))
        _emit(lines, args.out)
        curves_path = args.curves
        if curves_path is None and args.out not in (None, "-"):
            curves_path = args.out + ".curves.csv"
        if curves_path is not None:
            curve_lines = [_CURVES_HEADER]
            for h in h_vals:
                ts = thresholds(float(h))
                curve_lines.append(
                    f"{_fmt(float(h))},{_fmt(ts.r1)},{_fmt(ts.r2)},{_fmt(float(h))}"
                )
            _emit(curve_lines, curves_path)
        return 0

    if args.mode != "periodic":
        raise ValueError(f"unknown sweep mode {args.mode!r}")
    for name in ("r", "h0_lo", "h0_hi", "nh0", "h1_lo", "h1_hi", "nh1"):
        if getattr(args, name) is None:
            raise ValueError(f"periodic sweep requires --{name.replace('_', '-')}")
    if args.nh0 < 1 or args.nh1 < 1 or args.h0_lo < 0 or args.h0_lo > args.h0_hi or args.h1_lo < 0 or args.h1_lo > args.h1_hi:
        raise ValueError("sweep grid must have positive ranges and counts")
    h0_vals = np.linspace(args.h0_lo, args.h0_hi, args.nh0)
    h1_vals = np.linspace(args.h1_lo, args.h1_hi, args.nh1)
    lines = [_SWEEP_HEADER_PERIODIC]
    for h0 in h0_vals:
        lines.extend(
            _sweep_periodic_cell(args.r, float(h0), float(h1), args.art_grid)
            for h1 in h1_vals
        )
    _emit(lines, args.out)
    return 0


def cmd_orbit(args: argparse.Namespace) -> int:
    _merge_config(args, {
        "r": (float, None, True),
        "h": (float, None, False),
        "h0": (float, None, False),
        "h1": (float, None, False),
        "x0": (float, None, True),
        "xprev": (float, None, True),
        "n": (int, None, True),
        "transient": (int, 0, False),
        "out": (str, "-", False),
    })
    params = _params_from(args)
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
    _merge_config(args, {
        "h": (float, None, False),
        "h0": (float, None, False),
        "h1": (float, None, False),
        "s_lo": (float, None, True),
        "s_hi": (float, None, True),
        "steps": (int, 101, False),
        "json": (_as_bool, False, False),
    })
    if args.h is not None:
        family = lambda s: ModelParams.constant(s, args.h)
    elif args.h0 is not None and args.h1 is not None:
        family = lambda s: ModelParams(r=s, stocking=(args.h0, args.h1))
    else:
        raise ValueError("scan-ns needs --h or the pair --h0/--h1")
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
    _merge_config(args, {
        "r": (float, None, True),
        "h0": (float, None, True),
        "h1": (float, None, True),
        "grid": (int, 1024, False),
        "json": (_as_bool, False, False),
    })
    _require_scan_grid(args.grid, "--grid")
    result = find_artificial_cycles(
        ModelParams(r=args.r, stocking=(args.h0, args.h1)), grid=args.grid
    )
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
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="ricker-lab",
        description="Delayed Ricker model with stocking: reports, certification, sweeps.",
    )
    parser.add_argument("--config", default=None, help="key=value file; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    def newsub(name: str, helptext: str):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", default=None, help="key=value file; flags override")
        return p

    p = newsub("equilibrium", "equilibrium report for constant stocking")
    p.add_argument("--r", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_equilibrium)

    p = newsub("two-cycle", "2-cycle report for 2-periodic stocking")
    p.add_argument("--r", type=float)
    p.add_argument("--h0", type=float)
    p.add_argument("--h1", type=float)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_two_cycle)

    p = newsub("certify", "global-stability certification")
    p.add_argument("--r", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--h0", type=float)
    p.add_argument("--h1", type=float)
    p.add_argument("--grid", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = newsub("sweep", "parameter-plane sweep to CSV")
    p.add_argument("--mode", choices=["constant", "periodic"])
    p.add_argument("--h-lo", type=float)
    p.add_argument("--h-hi", type=float)
    p.add_argument("--nh", type=int)
    p.add_argument("--r-lo", type=float)
    p.add_argument("--r-hi", type=float)
    p.add_argument("--nr", type=int)
    p.add_argument("--r", type=float)
    p.add_argument("--h0-lo", type=float)
    p.add_argument("--h0-hi", type=float)
    p.add_argument("--nh0", type=int)
    p.add_argument("--h1-lo", type=float)
    p.add_argument("--h1-hi", type=float)
    p.add_argument("--nh1", type=int)
    p.add_argument("--art-grid", type=int)
    p.add_argument("--out")
    p.add_argument("--curves")
    p.set_defaults(func=cmd_sweep)

    p = newsub("orbit", "orbit dump as CSV (n, x_n, x_prev, parity)")
    p.add_argument("--r", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--h0", type=float)
    p.add_argument("--h1", type=float)
    p.add_argument("--x0", type=float)
    p.add_argument("--xprev", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--transient", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_orbit)

    p = newsub("scan-ns", "locate a unit-modulus eigenvalue crossing along r")
    p.add_argument("--h", type=float)
    p.add_argument("--h0", type=float)
    p.add_argument("--h1", type=float)
    p.add_argument("--s-lo", type=float)
    p.add_argument("--s-hi", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_scan_ns)

    p = newsub("artificial-cycles", "enumerate artificial cycles of the folded map")
    p.add_argument("--r", type=float)
    p.add_argument("--h0", type=float)
    p.add_argument("--h1", type=float)
    p.add_argument("--grid", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_artificial_cycles)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RickerLabError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
