"""Command-line front end: steady-state reports, figure data, validation.

Subcommands: steady | figure {fig3,fig4,fig5,fig6} | sweep | maximize |
validate | ensemble.  Single-point reports are JSON; tables are CSV with
'#'-prefixed metadata lines carrying the fully resolved configuration, so
identical invocations produce byte-identical files.

Exit codes: 0 success, 2 user/config error, 3 numerical degeneracy,
4 invariant failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dissipation import assemble_liouvillian, build_generator_parts
from .errors import (
    DegenerateSteadyStateError,
    EmptyCoolingWindowError,
    NeqFridgeError,
    ParameterError,
)
from .linalg import density_matrix_defects, hermiticity_defect
from .model import (
    ModelParams,
    resolve_resonance,
    thermal_population,
    tilde_populations,
)
from .observables import heat_currents, performance_report
from .steadystate import analytic_steady_state, numeric_steady_state, steady_coefficients
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

PARAM_FLAGS = ("e1", "e3", "gamma", "t1", "t2", "t3", "p", "g")

DEFAULT_PARAMS = {
    "e1": 1.0, "e3": 4.0, "gamma": 0.3,
    "t1": 4.0 / 3.0, "t2": 2.0, "t3": 4.0,
    "p": 0.01, "g": 0.01,
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _dumps(report: dict) -> str:
    return json.dumps(report, indent=2, default=_json_default)


def write_csv(path: Path, metadata: dict, columns: list[str], rows: list[dict]) -> None:
    lines = [f"# neqfridge {__version__}"]
    for key in sorted(metadata):
        lines.append(f"# {key}: {metadata[key]}")
    lines.append(f"# columns: {','.join(columns)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row.get(col, math.nan)) for col in columns))
    path.write_text("\n".join(lines) + "\n")


def _load_config(path: str) -> dict:
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"bad config line (expected key = value): {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key] = val
    return values


def _resolve_params(args) -> ModelParams:
    config = _load_config(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for name in PARAM_FLAGS:
        flag = getattr(args, name, None)
        if flag is not None:
            resolved[name] = flag
        elif name in config:
            try:
                resolved[name] = float(config[name])
            except ValueError:
                raise ParameterError(f"config value for {name} is not a number: {config[name]!r}")
        else:
            resolved[name] = DEFAULT_PARAMS[name]
    return ModelParams(**resolved)


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    for name in PARAM_FLAGS:
        parser.add_argument(f"--{name}", type=float, default=None)
    parser.add_argument("--config", default=None, help="key = value file with flag defaults")
    parser.add_argument("--out", default=None, help="output file or directory")
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--points", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)


def _steady_report(params: ModelParams, tol: float) -> tuple[dict, bool]:
    frame = resolve_resonance(params)
    pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
    analytic = analytic_steady_state(params)
    numeric = numeric_steady_state(params)
    deltas = {
        name: abs(analytic.decomposition.as_dict()[name] - numeric.decomposition.as_dict()[name])
        for name in analytic.decomposition.as_dict()
    }
    currents = heat_currents(params, frame, pops, numeric)
    perf = performance_report(params, frame, pops, numeric, currents)
    norm = params.e1 * params.p
    report = {
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
            "max_coefficient_delta": max(deltas.values()),
            "off_family_max": numeric.off_family_max,
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
        "performance": {
            "eta_g": perf.eta_g, "eta_tot": perf.eta_tot, "eta_c": perf.eta_c,
            "eta_tilde": perf.eta_tilde, "tv": perf.tv, "t1s": perf.t1s,
            "coherence": perf.coherence, "cooling": perf.cooling,
        },
    }
    ok = max(deltas.values()) <= tol
    return report, ok


def cmd_steady(args) -> int:
    params = _resolve_params(args)
    report, _ = _steady_report(params, args.tol)
    text = _dumps(report)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _figure_metadata(name: str, args, extra: dict | None = None) -> dict:
    meta = {"figure": name, "points": args.points, "seed": args.seed}
    if extra:
        meta.update(extra)
    return meta


def cmd_figure(args) -> int:
    outdir = Path(args.out) if args.out else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    name = args.name
    if name == "fig3":
        gammas = (args.gamma,) if args.gamma is not None else None
        rows = sweep_fig3(points=args.points, gammas=gammas)
        cols = ["beta3", "gamma", "e1", "e3", "t1", "t2", "t3", "p", "g"]
        write_csv(outdir / "fig3a.csv", _figure_metadata(name, args), cols + ["q1g"], rows)
        write_csv(outdir / "fig3b.csv", _figure_metadata(name, args), cols + ["delta_c"], rows)
    elif name == "fig4":
        gammas = (args.gamma,) if args.gamma is not None else (0.2, 0.4, 0.6)
        rows, windows = sweep_fig4(points=args.points, gammas=gammas)
        meta = _figure_metadata(name, args, {
            f"window_gamma_{g}": f"[{w.left!r}, {w.right!r}]" for g, w in windows.items()
        })
        cols = ["e1", "gamma", "e3", "t1", "t2", "t3", "p", "g",
                "window_left", "window_right"]
        write_csv(outdir / "fig4a.csv", meta, cols + ["eta_g", "eta_tot"], rows)
        write_csv(outdir / "fig4b.csv", meta, cols + ["coherence"], rows)
    elif name == "fig5":
        gammas = (args.gamma,) if args.gamma is not None else (0.1, 0.2, 0.3)
        rows, skipped = sweep_fig5(points=args.points, gammas=gammas)
        meta = _figure_metadata(name, args, {"skipped_points": len(skipped)})
        cols = ["beta3", "gamma", "e1", "e3", "t1", "t2", "t3", "p", "g"]
        write_csv(outdir / "fig5a.csv", meta, cols + ["eta_ratio"], rows)
        write_csv(outdir / "fig5b.csv", meta, cols + ["coherence"], rows)
    elif name == "fig6":
        spec = EnsembleSpec(n=args.n, seed=args.seed)
        rows, meta = random_ensemble(spec)
        metadata = _figure_metadata(name, args, meta)
        cols = ["gamma_over_e3", "e1", "e3", "gamma", "t1", "t2", "t3", "p", "g"]
        write_csv(outdir / "fig6a.csv", metadata,
                  cols + ["eta_star_ratio", "eta_star_max", "eta_star_min",
                          "eta_tot_star", "near_bound"], rows)
        write_csv(outdir / "fig6b.csv", metadata, cols + ["coherence", "near_bound"], rows)
    else:
        raise ParameterError(f"unknown figure {name!r}")
    return 0


def cmd_sweep(args) -> int:
    params = _resolve_params(args)
    spec = SweepSpec(base=params, axis=args.axis, lo=args.lo, hi=args.hi, points=args.points)
    rows, skipped = sweep(spec)
    cols = ["axis_value", "e1", "e3", "gamma", "t1", "t2", "t3", "p", "g",
            "d", "q1g", "q23", "eta_g", "eta_tot", "tv", "t1s", "coherence"]
    meta = {"axis": args.axis, "lo": args.lo, "hi": args.hi,
            "points": args.points, "skipped_points": len(skipped),
            "base": " ".join(f"{k}={v!r}" for k, v in params.as_dict().items())}
    out = Path(args.out) if args.out else Path("sweep.csv")
    write_csv(out, meta, cols, rows)
    return 0


def cmd_maximize(args) -> int:
    params = _resolve_params(args)
    result = maximize_cooling_power(params)
    report = {
        "version": __version__,
        "command": "maximize",
        "params": params.as_dict(),
        "e1_star": result.e1_star,
        "q1g_max": result.q1g_max,
        "eta_g_star": result.eta_g_star,
        "window": {"left": result.window.left, "right": result.window.right,
                   "left_is_boundary": result.window.left_is_boundary},
    }
    text = _dumps(report)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _validate_one(params: ModelParams, tol: float, rng: np.random.Generator,
                  flip_exponent: bool = False) -> dict[str, dict]:
    """Invariant groups for one parameter point, as {name: {passed, max_error}}."""
    frame = resolve_resonance(params)
    flipped = lambda e, t: 1.0 - thermal_population(e, t)  # wrong Boltzmann-exponent sign
    pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1,
                             population=flipped if flip_exponent else thermal_population)
    groups: dict[str, dict] = {}

    pop_values = [pops.r1, pops.r22, pops.r23, pops.r32, pops.r33,
                  pops.rtilde2, pops.rtilde3]
    pop_err = max(max(0.0, r - 0.5, -r) for r in pop_values)
    groups["population_range"] = {"passed": pop_err == 0.0, "max_error": pop_err}

    balance_err = max(
        abs(pops.r(nu, mu) - thermal_population(
            frame.eps2 if nu == 2 else frame.eps3,
            params.t2 if mu == 2 else params.t3))
        for nu in (2, 3) for mu in (2, 3)
    )
    groups["detailed_balance"] = {"passed": balance_err <= 1e-12, "max_error": balance_err}

    liouvillian = assemble_liouvillian(params, frame, pops)
    analytic = analytic_steady_state(params)
    try:
        from .linalg import steady_null_space, vec

        rho_n = steady_null_space(liouvillian)
        residual = float(np.linalg.norm(liouvillian @ vec(rho_n)))
        from .steadystate import decompose

        decomp_n, off = decompose(rho_n, frame)
        deltas = {
            k: abs(v - decomp_n.as_dict()[k]) for k, v in
            (steady_coefficients(pops, params.p, params.g).as_dict()
             if flip_exponent else analytic.decomposition.as_dict()).items()
        }
        max_delta = max(deltas.values())
        groups["oracle_equivalence"] = {
            "passed": max_delta <= tol and residual <= 1e-10 and off <= 1e-10,
            "max_error": max_delta,
        }
        herm, trace_dev, min_eig = density_matrix_defects(rho_n)
        groups["steady_state_positivity"] = {
            "passed": herm <= 1e-12 and trace_dev <= 1e-12 and min_eig >= -1e-10,
            "max_error": max(herm, trace_dev, max(0.0, -min_eig)),
        }
        steady = numeric_steady_state(params)
    except DegenerateSteadyStateError as exc:
        groups["oracle_equivalence"] = {"passed": False, "max_error": math.inf,
                                        "error": str(exc)}
        return groups

    currents = heat_currents(params, frame, pops, steady)
    first_law = abs(currents.q1 + currents.q2 + currents.q3)
    groups["first_law"] = {"passed": first_law <= 1e-10, "max_error": first_law}
    route = currents.max_route_delta
    groups["current_route_agreement"] = {"passed": route <= 1e-9, "max_error": route}
    q1g_err = abs(currents.q1g - currents.q1)
    c2, s2 = frame.cos_half_sq, frame.sin_half_sq
    tilde_err = max(
        abs(currents.q1g + currents.qt2g + currents.qt3g),
        abs(currents.q2g - (currents.qt2g * c2 + currents.qt3g * s2)),
        abs(currents.q3g - (currents.qt3g * c2 + currents.qt2g * s2)),
    )
    groups["tilde_current_identities"] = {
        "passed": q1g_err <= 1e-10 and tilde_err <= 1e-10,
        "max_error": max(q1g_err, tilde_err),
    }

    # channel algebra on a random Hermitian matrix
    parts = build_generator_parts(params, frame, pops)
    raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    herm_in = 0.5 * (raw + raw.conj().T)
    alg_err = 0.0
    for channel in (parts.d1, parts.d2, parts.d3):
        out = channel.apply(herm_in)
        alg_err = max(alg_err, abs(np.trace(out)), hermiticity_defect(out))
    groups["channel_algebra"] = {"passed": alg_err <= 1e-10, "max_error": alg_err}

    # localized channels agree with the delocalized pair on the family
    from .dissipation import tilde_channel
    from .steadystate import family_operators

    loc_err = 0.0
    t2c = tilde_channel(2, frame, pops, params.p)
    t3c = tilde_channel(3, frame, pops, params.p)
    for op in family_operators(frame).values():
        direct = parts.d2.apply(op) + parts.d3.apply(op)
        local = t2c.apply(op) + t3c.apply(op)
        loc_err = max(loc_err, float(np.max(np.abs(direct - local))))
    groups["localization_identity"] = {"passed": loc_err <= 1e-12, "max_error": loc_err}

    # d sign vs cooling sign vs achieved temperature
    d = steady.decomposition.d
    a1 = steady.decomposition.a1
    sign_ok = True
    if pops.s1 is not None and d != 0.0:
        cooled = a1 < pops.s1
        sign_ok = (d < 0.0) == (currents.q1g > 0.0) == cooled
    groups["sign_chain"] = {"passed": bool(sign_ok), "max_error": 0.0 if sign_ok else 1.0}

    # zero net flow against a fictitious bath at the achieved temperature
    from .dissipation import reset_channel

    r1s = 0.5 * (1.0 + a1)
    fict = reset_channel(1, params.p, r1s)
    flow = abs(np.trace(parts.hams.htot @ fict.apply(steady.rho)).real)
    groups["fictitious_bath"] = {"passed": flow <= 1e-10, "max_error": float(flow)}
    return groups


def cmd_validate(args) -> int:
    rng = np.random.default_rng(args.seed)
    points = []
    if any(getattr(args, name) is not None for name in PARAM_FLAGS) or args.config:
        points.append(_resolve_params(args))
    else:
        points.append(ModelParams(**DEFAULT_PARAMS))
        for _ in range(max(args.grid - 1, 0)):
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
    all_passed = True
    for params in points:
        groups = _validate_one(params, args.tol, rng, flip_exponent=args.debug_flip_rnm_exponent)
        point_passed = all(g["passed"] for g in groups.values())
        all_passed = all_passed and point_passed
        results.append({"params": params.as_dict(), "passed": point_passed, "groups": groups})
    report = {
        "version": __version__,
        "command": "validate",
        "tolerance": args.tol,
        "points": len(points),
        "passed": all_passed,
        "results": results,
    }
    text = _dumps(report)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0 if all_passed else 4


def cmd_ensemble(args) -> int:
    spec = EnsembleSpec(n=args.n, eta_c=args.eta_c, seed=args.seed)
    rows, meta = random_ensemble(spec)
    cols = ["gamma_over_e3", "e1", "e3", "gamma", "t1", "t2", "t3", "p", "g",
            "eta_star", "eta_star_ratio", "eta_star_max", "eta_star_min",
            "eta_tot_star", "coherence", "q1g_max", "near_bound"]
    out = Path(args.out) if args.out else Path("ensemble.csv")
    write_csv(out, meta, cols, rows)
    return 0


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
    _add_param_flags(p_fig)
    p_fig.add_argument("--n", type=int, default=1000, help="ensemble size (fig6)")
    p_fig.set_defaults(func=cmd_figure)

    p_sweep = sub.add_parser("sweep", help="generic 1-D sweep to CSV")
    _add_param_flags(p_sweep)
    p_sweep.add_argument("--axis", choices=("beta3", "e1", "gamma"), required=True)
    p_sweep.add_argument("--lo", type=float, required=True)
    p_sweep.add_argument("--hi", type=float, required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_max = sub.add_parser("maximize", help="maximize the cooling power over the target gap")
    _add_param_flags(p_max)
    p_max.set_defaults(func=cmd_maximize)

    p_val = sub.add_parser("validate", help="run the invariant suite")
    _add_param_flags(p_val)
    p_val.add_argument("--grid", type=int, default=5, help="number of random grid points")
    p_val.add_argument("--debug-flip-rnm-exponent", action="store_true",
                       help=argparse.SUPPRESS)
    p_val.set_defaults(func=cmd_validate)

    p_ens = sub.add_parser("ensemble", help="random-refrigerator ensemble to CSV")
    _add_param_flags(p_ens)
    p_ens.add_argument("--n", type=int, default=1000)
    p_ens.add_argument("--eta-c", type=float, default=1.0)
    p_ens.set_defaults(func=cmd_ensemble)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, EmptyCoolingWindowError, FileNotFoundError) as exc:
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
