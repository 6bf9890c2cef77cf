"""Command-line front end: steady-state reports, figure data, validation.

Subcommands: steady | figure {fig3,fig4,fig5,fig6} | sweep | maximize |
validate | ensemble.  Single-point reports are JSON; tables are CSV with
'#'-prefixed metadata lines carrying the fully resolved configuration, so
identical invocations produce byte-identical files; each distinct value of a
column is formatted once per command (:func:`_cells`), for every file it writes.

Exit codes: 0 success, 2 user/config error, 3 numerical degeneracy,
4 invariant failure or another package error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .dissipation import build_generator_parts, sector_tables
from .errors import (
    DegenerateSteadyStateError,
    EmptyCoolingWindowError,
    NeqFridgeError,
    ParameterError,
)
from .invariants import validate
from .model import PARAM_NAMES, REFERENCE, ModelParams
from .observables import _performance, heat_currents
from .steadystate import solve_oracle
from .experiments import (
    EnsembleSpec,
    SweepSpec,
    maximize_cooling_power,
    random_ensemble,
    sweep,
    sweep_fig3,
    sweep_fig4,
    sweep_fig5,
)

def _plain(obj):
    """JSON-native copy of a report: numpy scalars and 0-d arrays as Python values,
    non-finite floats as None."""
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    if isinstance(obj, (np.generic, np.ndarray)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write(path: str | Path, text: str) -> None:
    """Overwrite ``path`` with ``text`` in place.  Truncating a file to zero before
    rewriting it makes ext4 flush it on close, so a regular file is cut to the new
    length after the write instead; a device, FIFO or pipe cannot be cut, and is not."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode())
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _emit(report: dict, out: str | None) -> None:
    """Write a report as strict JSON to ``out``, or to stdout."""
    text = json.dumps(_plain(report), indent=2, allow_nan=False)
    if out:
        _write(out, text + "\n")
    else:
        print(text)


def _float_cells(values: list[float]) -> list[str]:
    """Each of ``values`` as %.17g, all in one format call."""
    return ("%.17g\n" * len(values) % tuple(values)).split("\n")[:-1]


def _cells(table: dict[str, np.ndarray], columns) -> dict[str, list[str]]:
    """The named columns of a table as CSV cells: floats as %.17g, integers as str,
    each distinct value (floats told apart by their bits) formatted once."""
    cells = {}
    for name in columns:
        column = table[name]
        floats = column.dtype.kind == "f"
        _, first, inverse = np.unique(column.view(np.int64) if floats else column,
                                      return_index=True, return_inverse=True)
        values = column[first].tolist()
        text = np.array(_float_cells(values) if floats else [*map(str, values)], object)
        cells[name] = text[inverse].tolist()
    return cells


def write_csv(path: Path, metadata: dict, columns: list[str], cells: dict[str, list[str]]) -> None:
    """Write the named columns of :func:`_cells` under '#' metadata lines and a header."""
    lines = [f"# neqfridge {__version__}"]
    lines += [f"# {key}: {metadata[key]}" for key in sorted(metadata)]
    lines.append(f"# columns: {','.join(columns)}")
    lines.append(",".join(columns))
    lines += map(",".join, zip(*(cells[col] for col in columns)))
    _write(path, "\n".join(lines) + "\n")


def _load_config(path: str) -> dict[str, float]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"config file {path} is not UTF-8 text: {exc}")
    values: dict[str, float] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"bad config line (expected key = value): {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in PARAM_NAMES:
            raise ParameterError(
                f"unknown config key {key!r}; expected one of {', '.join(PARAM_NAMES)}")
        try:
            values[key] = float(val)
        except ValueError:
            raise ParameterError(f"config value for {key} is not a number: {val!r}")
    return values


def _resolve_params(args) -> ModelParams:
    """Flags over the config file over the reference model."""
    resolved = _load_config(args.config) if args.config else {}
    for name in PARAM_NAMES:
        if getattr(args, name) is not None:
            resolved[name] = getattr(args, name)
    return replace(REFERENCE, **resolved)


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    for name in PARAM_NAMES:
        parser.add_argument(f"--{name}", type=float, default=None)
    parser.add_argument("--config", default=None, help="key = value file with flag defaults")


def cmd_steady(args) -> int:
    params = _resolve_params(args)
    parts = build_generator_parts(params)
    oracle = solve_oracle(parts)
    frame, pops = parts.frame, parts.pops
    analytic, numeric = oracle.analytic, oracle.numeric
    currents = heat_currents(parts, numeric)
    norm = params.e1 * params.p
    _emit({
        "version": __version__,
        "command": "steady",
        "params": params.as_dict(),
        "frame": {
            "e2": frame.e2, "delta_e": frame.delta_e, "lambda": frame.lam,
            "eps2": frame.eps2, "eps3": frame.eps3, "theta": frame.theta,
        },
        "populations": {
            "r1": pops.r1, "r22": pops.r22, "r23": pops.r23,
            "r32": pops.r32, "r33": pops.r33,
            "rtilde2": pops.rtilde2, "rtilde3": pops.rtilde3,
            "ttilde2": pops.ttilde2, "ttilde3": pops.ttilde3,
        },
        "decomposition": numeric.decomposition.as_dict(),
        "residuals": {
            "analytic": analytic.residual,
            "numeric": numeric.residual,
            "max_coefficient_delta": oracle.max_delta,
            "charge_leakage": sector_tables().leakage,
        },
        "currents": {
            "q1": currents.q1, "q2": currents.q2, "q3": currents.q3,
            "q23": currents.q23, "q1g": currents.q1g,
            "q2g": currents.q2g, "q3g": currents.q3g,
            "qt2g": currents.qt2g, "qt3g": currents.qt3g,
            "route_delta": currents.max_route_delta,
            "normalized": {
                "q1g": currents.q1g / norm, "q23": currents.q23 / norm,
                "q3g": currents.q3g / norm,
            },
        },
        "performance": {**_performance(parts, analytic.decomposition.a1, currents.eta_tot),
                        "cooling": currents.cooling},
    }, args.out)
    return 0


def cmd_figure(args) -> int:
    name = args.name
    for flag in ("gamma", "points") if name == "fig6" else ("n", "seed"):
        if getattr(args, flag) is not None:
            raise ParameterError(f"figure {name} does not read --{flag}")
    points = 200 if args.points is None else args.points
    seed = 7 if args.seed is None else args.seed
    # every figure records both defaults, whether it reads them or not
    meta = {"figure": name, "points": points, "seed": seed}
    gammas = (args.gamma,) if args.gamma is not None else None
    if name == "fig3":
        table = sweep_fig3(points=points, gammas=gammas)
        cols = ["beta3", "gamma", "e1", "e3", "t1", "t2", "t3", "p", "g"]
        own = (["q1g"], ["delta_c"])
    elif name == "fig4":
        table, windows = sweep_fig4(points=points, gammas=gammas)
        meta.update({f"window_gamma_{g}": f"[{w.left!r}, {w.right!r}]"
                     for g, w in windows.items()})
        cols = ["e1", "gamma", "e3", "t1", "t2", "t3", "p", "g", "window_left", "window_right"]
        own = (["eta_g", "eta_tot"], ["coherence"])
    elif name == "fig5":
        table, skipped = sweep_fig5(points=points, gammas=gammas)
        meta["skipped_points"] = len(skipped)
        cols = ["beta3", "gamma", "e1", "e3", "t1", "t2", "t3", "p", "g"]
        own = (["eta_ratio"], ["coherence"])
    else:  # fig6; the parser accepts no other name
        spec = EnsembleSpec(n=1000 if args.n is None else args.n, seed=seed)
        table, ensemble_meta = random_ensemble(spec)
        meta.update(ensemble_meta)
        cols = ["gamma_over_e3", "e1", "e3", "gamma", "t1", "t2", "t3", "p", "g"]
        own = (["eta_star_ratio", "eta_star_max", "eta_star_min", "eta_tot_star", "near_bound"],
               ["coherence", "near_bound"])
    cells = _cells(table, cols + own[0] + own[1])
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    for suffix, extra in zip("ab", own):
        write_csv(outdir / f"{name}{suffix}.csv", meta, cols + extra, cells)
    return 0


def cmd_sweep(args) -> int:
    params = _resolve_params(args)
    spec = SweepSpec(base=params, axis=args.axis, lo=args.lo, hi=args.hi, points=args.points)
    table, skipped = sweep(spec)
    cols = ["axis_value", "e1", "e3", "gamma", "t1", "t2", "t3", "p", "g",
            "d", "q1g", "q23", "eta_g", "eta_tot", "tv", "t1s", "coherence"]
    meta = {"axis": args.axis, "lo": args.lo, "hi": args.hi,
            "points": args.points, "skipped_points": len(skipped),
            "base": " ".join(f"{k}={v!r}" for k, v in params.as_dict().items())}
    write_csv(Path(args.out or "sweep.csv"), meta, cols, _cells(table, cols))
    return 0


def cmd_maximize(args) -> int:
    params = _resolve_params(args)
    result = maximize_cooling_power(params)
    _emit({
        "version": __version__,
        "command": "maximize",
        "params": params.as_dict(),
        "e1_star": result.e1_star,
        "q1g_max": result.q1g_max,
        "eta_g_star": result.eta_g_star,
        "window": {"left": result.window.left, "right": result.window.right,
                   "left_is_boundary": result.window.left_is_boundary},
    }, args.out)
    return 0


def cmd_validate(args) -> int:
    single = any(getattr(args, name) is not None for name in PARAM_NAMES) or args.config
    for flag in ("grid", "seed"):
        if single and getattr(args, flag) is not None:
            raise ParameterError(f"validate with parameter flags or --config does not read --{flag}")
    grid = 5 if args.grid is None else args.grid
    seed = 7 if args.seed is None else args.seed
    if grid < 1:
        raise ParameterError(f"validate --grid must be at least 1, got {grid}")
    if not 0.0 <= args.tol < math.inf:
        raise ParameterError(f"validate --tol must be finite and nonnegative, got {args.tol}")
    if seed < 0:
        raise ParameterError(f"validate --seed must be nonnegative, got {seed}")
    points = [_resolve_params(args) if single else REFERENCE]
    rng = None if single else np.random.default_rng(seed)
    for _ in range(0 if single else grid - 1):
        e1 = rng.uniform(0.5, 2.0)
        points.append(ModelParams(
            e1=e1,
            e3=rng.uniform(2.0, 8.0),
            gamma=rng.uniform(0.0, 0.49) * e1,
            t1=(t1 := rng.uniform(0.5, 2.0)),
            t2=(t2 := t1 + rng.uniform(0.0, 2.0)),
            t3=t2 + rng.uniform(0.0, 4.0),
            p=rng.uniform(0.002, 0.03),
            g=rng.uniform(0.002, 0.03),
        ))
    results = []
    for params in points:
        report = validate(params, args.tol)
        results.append({"params": params.as_dict(), "passed": report.passed, "groups": report.groups})
    all_passed = all(result["passed"] for result in results)
    _emit({
        "version": __version__,
        "command": "validate",
        "tolerance": args.tol,
        "points": len(points),
        "passed": all_passed,
        "results": results,
    }, args.out)
    return 0 if all_passed else 4


def cmd_ensemble(args) -> int:
    table, meta = random_ensemble(EnsembleSpec(n=args.n, eta_c=args.eta_c, seed=args.seed))
    cols = ["gamma_over_e3", "e1", "e3", "gamma", "t1", "t2", "t3", "p", "g",
            "eta_star", "eta_star_ratio", "eta_star_max", "eta_star_min",
            "eta_tot_star", "coherence", "q1g_max", "near_bound"]
    write_csv(Path(args.out or "ensemble.csv"), meta, cols, _cells(table, cols))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neqfridge",
        description="Steady states and performance analysis of the three-qubit "
                    "nonequilibrium absorption refrigerator.",
    )
    parser.add_argument("--version", action="version", version=f"neqfridge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_steady = sub.add_parser("steady", help="single-point steady-state JSON report")
    _add_param_flags(p_steady)
    p_steady.set_defaults(func=cmd_steady)

    p_fig = sub.add_parser("figure", help="write CSV data for a standard figure")
    p_fig.add_argument("name", choices=("fig3", "fig4", "fig5", "fig6"))
    p_fig.add_argument("--gamma", type=float, default=None, help="a single coupling curve (fig3-fig5)")
    p_fig.add_argument("--points", type=int, default=None, help="points per curve (fig3-fig5, default 200)")
    p_fig.add_argument("--seed", type=int, default=None, help="ensemble seed (fig6, default 7)")
    p_fig.add_argument("--n", type=int, default=None, help="ensemble size (fig6, default 1000)")
    p_fig.set_defaults(func=cmd_figure)

    p_sweep = sub.add_parser("sweep", help="generic 1-D sweep to CSV")
    _add_param_flags(p_sweep)
    p_sweep.add_argument("--axis", choices=("beta3", "e1", "gamma"), required=True)
    p_sweep.add_argument("--lo", type=float, required=True)
    p_sweep.add_argument("--hi", type=float, required=True)
    p_sweep.add_argument("--points", type=int, default=200)
    p_sweep.set_defaults(func=cmd_sweep)

    p_max = sub.add_parser("maximize", help="maximize the cooling power over the target gap")
    _add_param_flags(p_max)
    p_max.set_defaults(func=cmd_maximize)

    p_val = sub.add_parser("validate", help="run the invariant suite")
    _add_param_flags(p_val)
    p_val.add_argument("--grid", type=int, default=None, help="grid points (default 5)")
    p_val.add_argument("--tol", type=float, default=1e-8)
    p_val.add_argument("--seed", type=int, default=None, help="grid seed (default 7)")
    p_val.set_defaults(func=cmd_validate)

    p_ens = sub.add_parser("ensemble", help="random-refrigerator ensemble to CSV")
    p_ens.add_argument("--n", type=int, default=1000)
    p_ens.add_argument("--eta-c", type=float, default=1.0)
    p_ens.add_argument("--seed", type=int, default=7)
    p_ens.set_defaults(func=cmd_ensemble)

    for subparser in sub.choices.values():
        subparser.add_argument("--out", default=None, help="output file or directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The parser is built on the first call and reused for the rest of the
    process, so in-process callers pay for it once; importing the module
    does not build it.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a negative number such as -1e-3 or -inf after a --flag as another
    # flag, so each is joined to its flag as --flag=value, from the last one back
    for i in reversed(range(1, len(argv))):
        flag, value = argv[i - 1], argv[i]
        if flag.startswith("--") and flag != "--" and "=" not in flag and value.startswith("-"):
            with contextlib.suppress(ValueError):
                float(value)
                argv[i - 1:i + 1] = [f"{flag}={value}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, EmptyCoolingWindowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateSteadyStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NeqFridgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
