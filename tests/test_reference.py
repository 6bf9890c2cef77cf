"""Committed reference outputs, compared in stated units.

``tests/reference/`` holds what a fixed list of commands (``COMMANDS``)
wrote, and ``status.json`` their exit codes, ``error:`` lines and
warnings.  The test reruns the commands through ``cli.main`` into a
temporary directory and compares:

- exactly: exit codes, ``error:`` lines, warnings, the set of files, ``#``
  lines, headers, row counts, JSON keys, and integer, boolean, string and
  null values; a CSV column whose reference cells are all integers is
  compared as text;
- every other float within its command's bound (``BOUNDS``, else ``BOUND``)
  of the largest finite magnitude in its CSV column or JSON block (the
  innermost object or list that holds it); a non-finite float must stay the
  same;
- rounding-noise keys (``NOISE``) against the bound ``validate`` applies to
  them, not against the reference;
- a ``steady`` report's numeric-route keys, which move with the BLAS kernels,
  within that route's noise (``_steady_bounds``): its decomposition within the
  two runs' ``max_coefficient_delta``, and its trace-route currents and
  ``eta_tot`` within the currents' noise unit ``CurrentReport.floor``.

Run as a script to print the largest move per file and column::

    PYTHONPATH=src python tests/test_reference.py          # compare a fresh run
    PYTHONPATH=src python tests/test_reference.py --write  # refresh the reference

The bounds were chosen on one x86-64 machine (numpy 2.4, Python 3.11), with
OpenBLAS's own kernels and with ``OPENBLAS_CORETYPE`` set to Prescott, Nehalem,
Sandybridge, Haswell and Zen; the numpy and LAPACK builds of hosted runners have
not been compared with them.
"""

from __future__ import annotations

import contextlib
import csv
import fnmatch
import io
import json
import math
import re
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from neqfridge import ModelParams, build_generator_parts, heat_currents, solve_oracle
from neqfridge.cli import main

REFERENCE = Path(__file__).with_name("reference")
EPS = float(np.finfo(float).eps)
# With numpy's SIMD dispatch cut to its baseline (NPY_DISABLE_CPU_FEATURES="X86_V4
# AVX512_ICL AVX512_SPR X86_V3", which acts only on the process it is set for), the
# largest moves were 759 eps in ensemble.csv (eta_star; E1* 636), 175 eps in fig6
# (eta_tot_star), 60 in ensemble_eta_c_1e-200.csv (eta_tot_star), 8.4 in fig3, 5 in fig5,
# 3.5 in fig4 and 2.6 in sweep_e1.csv, and every JSON report and '#' line was unchanged;
# CI runs this script with that setting.  Each bound is more than ten times the largest
# move of the commands it covers
BOUNDS = {"ensemble.csv": 8192 * EPS, "ensemble_eta_c_1e-200.csv": 8192 * EPS, "fig6": 2048 * EPS}
BOUND = 128 * EPS  # every other command

# the fields of the reference refrigerator that the 2^k commands scale
SCALED = {"e1": 1.0, "e3": 4.0, "gamma": 0.3, "t1": 4.0 / 3.0, "t2": 2.0, "t3": 4.0}


def _scaled(k: int, **flags: float) -> list[str]:
    """The flags of the reference refrigerator, and of ``flags``, times 2^k (p and g
    unchanged), each the repr of the exact product."""
    return [item for name, value in {**SCALED, **flags}.items()
            for item in (f"--{name}", repr(math.ldexp(value, k)))]


# name -> argv; a name with a suffix is the output file, one without a figure's directory
COMMANDS = {
    "fig3": ["figure", "fig3", "--points", "20"],
    "fig4": ["figure", "fig4", "--points", "20"],
    "fig5": ["figure", "fig5", "--points", "20"],
    "fig6": ["figure", "fig6", "--n", "50", "--seed", "7"],
    "ensemble.csv": ["ensemble", "--n", "50", "--eta-c", "10", "--seed", "5"],
    "sweep_e1.csv": ["sweep", "--axis", "e1", "--lo", "0.65", "--hi", "3.65", "--points", "20"],
    # beta3 = 0 (T3 = inf) breaks t3's finiteness rule and is skipped by its verdict
    "sweep_beta3.csv": ["sweep", "--axis", "beta3", "--lo", "0", "--hi", "0.5", "--points", "11"],
    "steady.json": ["steady"],
    "steady_p_1e-9.json": ["steady", "--p", "1e-9"],
    "steady_t1_1e-300.json": ["steady", "--t1", "1e-300"],
    "validate.json": ["validate"],
    "maximize.json": ["maximize"],
    "maximize_gamma_0.2.json": ["maximize", "--gamma", "0.2"],
    "maximize_gamma_0.json": ["maximize", "--gamma", "0"],
    # frozen machine baths inside the window scans: at gamma = 0 r~2 underflows at the
    # scan's top, where the right edge is E3 times the Carnot COP, 767.2507; at E3 = 1e6
    # and 1e8 every machine population underflows, and the log-odds stay finite
    "maximize_item_1.json": ["maximize", "--gamma", "0", "--e3", "4", "--t1", "1",
                             "--t2", "1.00390625", "--t3", "4.00390625"],
    "maximize_e3_1e8.json": ["maximize", "--e3", "1e8"],
    "steady_e3_1e6.json": ["steady", "--e3", "1e6"],
    # the parameter gate's messages: one broken rule each, exit 2 and an error line
    "steady_gamma_0.6.json": ["steady", "--gamma", "0.6"],
    "steady_t1_3.json": ["steady", "--t1", "3"],
    "steady_p_0.json": ["steady", "--p", "0"],
    "steady_e1_-inf.json": ["steady", "--e1", "-inf"],
    "steady_e3_1e308.json": ["steady", "--e3", "1e308"],
    "maximize_t1_2.json": ["maximize", "--t1", "2.0"],
    # 5 of the 13 points are skipped, breaking two different rules
    "sweep_e1_two_rules.csv": ["sweep", "--axis", "e1", "--lo", "1", "--hi", "4", "--points", "13",
                               "--e1", "3", "--e3", "0.5", "--gamma", "0.9"],
    "validate_grid_20.json": ["validate", "--grid", "20"],
    # the reference refrigerator with E1, E3, gamma, T1, T2 and T3 times 2^k
    **{f"maximize_2^{k}.json": ["maximize", *_scaled(k)] for k in (-600, -500, 500)},
    "steady_2^-500.json": ["steady", *_scaled(-500)],
    "steady_2^-600.json": ["steady", *_scaled(-600)],
    "ensemble_eta_c_1e-200.csv": ["ensemble", "--n", "5", "--eta-c", "1e-200"],
    # beta1 = 1/T2 + (1/T2 - 1/T3)/eta_c overflows in most of these draws, whose T1 = 0
    # gives an empty scan range without a warning; a draw whose beta1 stays finite puts
    # its window edges among the subnormals, where the edge search does not close (exit 4)
    "ensemble_eta_c_1e-310.csv": ["ensemble", "--n", "3", "--eta-c", "1e-310"],
    # every draw's beta1 overflows, so every range is empty and the sampler stalls (exit 2)
    "ensemble_eta_c_5e-324.csv": ["ensemble", "--n", "3", "--eta-c", "5e-324"],
    "sweep_e1_2^-500.csv": ["sweep", "--axis", "e1", "--points", "20",
                            *_scaled(-500, lo=0.65, hi=3.65)],
    # subnormal target gaps in the window scan: the slopes' 1/E1 is taken over E3's power
    # of two and does not overflow; E/T is about 1e-310, and no cooling is found (exit 2)
    "maximize_e1_1e-300.json": ["maximize", "--e1", "1e-300", "--e3", "1e-300", "--gamma", "0",
                                "--t1", "1e10", "--t2", "2e10", "--t3", "4e10"],
}


def _current_floor(report: dict) -> float:
    """The current noise unit of a steady report's point, ``CurrentReport.floor``."""
    parts = build_generator_parts(ModelParams(**report["params"]))
    return heat_currents(parts, solve_oracle(parts).numeric).floor


def _steady_bounds(new: dict, ref: dict) -> dict[str, float]:
    """Bounds on a steady report's keys, by dotted-path pattern: on the value of a
    rounding-noise key the bound ``validate`` applies, and on the move of a
    numeric-route key from ``ref`` to ``new`` the route's noise in the two runs."""
    p, g, eps2 = ref["params"]["p"], ref["params"]["g"], ref["frame"]["eps2"]
    rate = p + g
    runs = (new, ref)
    # each run's numeric coefficients lie within its max_coefficient_delta of the closed
    # forms, which use no BLAS and so agree between the runs
    coefficients = max(64.0 * EPS * min(rate / p, eps2 / rate),
                       sum(run["residuals"]["max_coefficient_delta"] for run in runs))
    # the currents' noise, the bound of validate's current groups
    currents = _current_floor(ref)
    q3, eta_tot = abs(ref["currents"]["q3"]), ref["performance"]["eta_tot"]
    bounds = {
        "decomposition.*": coefficients,
        "currents.q*": currents,
        "currents.normalized.*": currents / (ref["params"]["e1"] * p),
        # the routes' residuals are rates, in eps (p + g)
        "residuals.analytic": 64.0 * EPS * rate,
        "residuals.numeric": 64.0 * EPS * rate,
        # validate's default tolerance over the coefficients' rounding floor
        "residuals.max_coefficient_delta": max(1e-8, 64.0 * EPS * min(rate / p, eps2 / rate)),
        "residuals.charge_leakage": 1e-12,
        "currents.route_delta": currents,
    }
    # eta_tot = q1/q3 moves by at most (1 + |eta_tot|)/|q3| times a current's bound; a
    # null reference eta_tot (q3 is rounding noise) is not a float, so it is compared
    # exactly and takes no bound
    if eta_tot is not None:
        bounds["performance.eta_tot"] = currents * (1.0 + abs(eta_tot)) / q3
    return bounds


# rounding-noise keys (dotted paths, list indices as numbers); a validate group's
# max_error is bounded through the group's own "passed", which is compared exactly
NOISE = ("residuals.*", "currents.route_delta", "results.*.groups.*.max_error")


def run(outdir: Path) -> None:
    """Run every command with its output under ``outdir``, and write status.json there."""
    status = {}
    for name, argv in COMMANDS.items():
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main([*argv, "--out", str(outdir / name)])
        status[name] = {
            "exit": code,
            "stderr": stderr.getvalue().splitlines(),
            "warnings": sorted({f"{w.category.__name__}: {w.message}" for w in caught}),
        }
    (outdir / "status.json").write_text(json.dumps(status, indent=2) + "\n")


def _files(root: Path) -> list[str]:
    return sorted(str(path.relative_to(root)) for path in root.rglob("*") if path.is_file())


def _move(new: float, ref: float, scale: float) -> float:
    """|new - ref| in units of ``scale``; 0 for the same non-finite value, inf for another."""
    if not (math.isfinite(new) and math.isfinite(ref)):
        return 0.0 if new == ref or (math.isnan(new) and math.isnan(ref)) else math.inf
    if new == ref:
        return 0.0
    return abs(new - ref) / scale if scale > 0.0 else math.inf


def _compare_csv(name: str, new: str, ref: str, moves: dict, faults: list) -> None:
    new_lines, ref_lines = new.splitlines(), ref.splitlines()
    head = lambda lines: [line for line in lines if line.startswith("#")]
    if head(new_lines) != head(ref_lines):
        faults.append(f"{name}: '#' lines differ")
    new_rows = list(csv.reader(line for line in new_lines if not line.startswith("#")))
    ref_rows = list(csv.reader(line for line in ref_lines if not line.startswith("#")))
    if new_rows[0] != ref_rows[0] or len(new_rows) != len(ref_rows):
        faults.append(f"{name}: header or row count differs")
        return
    for column, new_cells, ref_cells in zip(ref_rows[0], zip(*new_rows[1:]), zip(*ref_rows[1:])):
        if all(re.fullmatch(r"-?\d+", cell) for cell in ref_cells):
            if new_cells != ref_cells:
                faults.append(f"{name}: integer column {column} differs")
            continue
        new_values, ref_values = np.array(new_cells, float), np.array(ref_cells, float)
        finite = ref_values[np.isfinite(ref_values)]
        scale = float(np.max(np.abs(finite))) if finite.size else 0.0
        moves[f"{name}:{column}"] = max(_move(a, b, scale) for a, b in
                                        zip(new_values.tolist(), ref_values.tolist()))


def _keys(container) -> list:
    return list(container) if isinstance(container, dict) else list(range(len(container)))


def _compare_json(name: str, new, ref, moves: dict, faults: list, bounds: dict,
                  path: str = "") -> None:
    if isinstance(ref, (dict, list)):
        keys = _keys(ref)
        if type(new) is not type(ref) or _keys(new) != keys:
            faults.append(f"{name}: {path or 'top level'} has other keys or length")
            return
        floats = [ref[k] for k in keys if type(ref[k]) is float]
        scale = max((abs(v) for v in floats if math.isfinite(v)), default=0.0)
        for k in keys:
            child = f"{path}.{k}" if path else str(k)
            limit = next((bound for pattern, bound in bounds.items()
                          if fnmatch.fnmatchcase(child, pattern)), math.inf)
            if any(fnmatch.fnmatchcase(child, pattern) for pattern in NOISE):
                if not (type(new[k]) is type(ref[k]) and (new[k] is None or new[k] <= limit)):
                    faults.append(f"{name}: {child} = {new[k]!r} is above its bound {limit!r}")
            elif type(ref[k]) is float and type(new[k]) is float and limit < math.inf:
                if _move(new[k], ref[k], limit) > 1.0:
                    faults.append(f"{name}: {child} moved from {ref[k]!r} to {new[k]!r}, "
                                  f"more than its bound {limit!r}")
            elif type(ref[k]) is float and type(new[k]) is float:
                block = f"{name}:{path or '.'}"
                moves[block] = max(moves.get(block, 0.0), _move(new[k], ref[k], scale))
            else:
                _compare_json(name, new[k], ref[k], moves, faults, bounds, child)
    elif type(new) is not type(ref) or new != ref:
        faults.append(f"{name}: {path} is {new!r}, reference {ref!r}")


def compare(outdir: Path, reference: Path = REFERENCE) -> tuple[dict[str, float], list[str]]:
    """The largest move per file and column (CSV) or block (JSON), in units of its
    largest reference magnitude, and every exact difference, of ``outdir`` against
    ``reference``."""
    moves: dict[str, float] = {}
    faults: list[str] = []
    if _files(outdir) != _files(reference):
        faults.append(f"files differ: {_files(outdir)} against {_files(reference)}")
        return moves, faults
    for name in _files(reference):
        new, ref = (root.joinpath(name).read_text() for root in (outdir, reference))
        if name.endswith(".csv"):
            _compare_csv(name, new, ref, moves, faults)
        elif name == "status.json":
            if json.loads(new) != json.loads(ref):
                faults.append("status.json: exit codes, error lines or warnings differ")
        else:
            new, ref = json.loads(new), json.loads(ref)
            bounds = _steady_bounds(new, ref) if ref.get("command") == "steady" else {}
            _compare_json(name, new, ref, moves, faults, bounds)
    return moves, faults


def _bound(key: str) -> float:
    """The bound on a move of ``key``, "file:column" or "file:block"."""
    return BOUNDS.get(key.split(":")[0].split("/")[0], BOUND)


def test_outputs_match_the_reference(tmp_path):
    run(tmp_path)
    moves, faults = compare(tmp_path)
    assert not faults
    assert moves, "no float was compared"
    too_far = {key: move / EPS for key, move in moves.items() if move > _bound(key)}
    assert not too_far, f"moves above their bounds, in eps: {too_far}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        shutil.rmtree(REFERENCE, ignore_errors=True)
        REFERENCE.mkdir()
        run(REFERENCE)
        print(f"wrote {len(_files(REFERENCE))} files to {REFERENCE}")
    else:
        with tempfile.TemporaryDirectory() as tmp:
            run(Path(tmp))
            moves, faults = compare(Path(tmp))
        for key, move in moves.items():
            print(f"{key}: {move / EPS:.3g} eps (bound {_bound(key) / EPS:.0f})")
        for fault in faults:
            print(fault)
        over = sum(move > _bound(key) for key, move in moves.items())
        print(f"{over} moves above their bounds, {len(faults)} exact differences")
        sys.exit(1 if faults or over else 0)
