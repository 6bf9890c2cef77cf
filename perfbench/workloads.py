"""The benchmark's workloads: seeded CLI call lists and their output checks.

Every workload is a closed loop with one caller: the next call starts when
the previous one has returned.  A workload is a fixed list of items built
from the seed; an item is a list of one or more in-process
``neqfridge.cli.main`` calls whose latency is measured together.  Each call writes its output
files, and a check reads them back and returns the work units the call
produced (accepted models, oracle points or CSV data rows).  A check raises
``CheckError`` when an output is wrong; tolerances, never byte hashes, so
that last-bit changes within the stated tolerances still pass.

Why these three workloads, and which layer each one stresses, is written
down in README.md next to this file.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ENSEMBLE_N = 100       # accepted models per fig6 call
ORACLE_POINTS = 100    # distinct points, so p90 has ten points beyond it
SWEEP_POINTS = 200     # the CLI's default figure resolution
BAND_TOL = 1e-9        # eta_star band tolerance of acceptance criterion 7


class CheckError(Exception):
    """A call's output failed its correctness check."""


@dataclass
class Call:
    kind: str
    argv: list[str]
    outputs: tuple[Path, ...]
    check: Callable[[], int]


@dataclass
class Plan:
    unit: str   # what work_per_s counts
    item: str   # what one latency sample is
    items: list[list[Call]]   # each item is timed as one latency sample
    warmup: list[list[str]]
    counters: dict[str, int] = field(default_factory=dict)


def read_csv(path: Path) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Metadata and data rows of a CSV written by ``cli.write_csv``."""
    meta: dict[str, str] = {}
    body: list[str] = []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        else:
            body.append(line)
    return meta, list(csv.DictReader(body))


def _finite(rows: list[dict[str, str]], columns) -> None:
    for row in rows:
        for col in columns:
            if not math.isfinite(float(row[col])):
                raise CheckError(f"non-finite {col}={row[col]!r}")


def _rows(path: Path, points: int) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Read a CSV and check it holds ``points`` rows less its reported skips."""
    meta, rows = read_csv(path)
    expected = points - int(meta.get("skipped_points", 0))
    if len(rows) != expected:
        raise CheckError(f"{path.name}: {len(rows)} rows, expected {expected}")
    return meta, rows


def _flags(params: dict[str, float]) -> list[str]:
    out: list[str] = []
    for name, value in params.items():
        out += [f"--{name}", repr(value)]
    return out


# --- ensemble ---------------------------------------------------------------

def ensemble_plan(seed: int, outdir: Path) -> Plan:
    """``figure fig6 --n 100 --seed S``: the closed-form kernel inside root finds."""
    plan = Plan("model", "fig6_call", [], warmup=[
        ["figure", "fig6", "--n", "1", "--seed", str(seed), "--out", str(outdir / "warmup")],
    ])
    fig6a, fig6b = outdir / "fig6a.csv", outdir / "fig6b.csv"

    def check() -> int:
        meta, rows = _rows(fig6a, ENSEMBLE_N)
        _, rows_b = _rows(fig6b, ENSEMBLE_N)
        _finite(rows, [c for c in rows[0] if c != "near_bound"])
        _finite(rows_b, [c for c in rows_b[0] if c != "near_bound"])
        eta_c = float(meta["eta_c"])
        for row in rows:
            eta_star = float(row["eta_star_ratio"]) * eta_c
            if not (float(row["eta_star_min"]) - BAND_TOL <= eta_star
                    <= float(row["eta_star_max"]) + BAND_TOL):
                raise CheckError(f"eta_star {eta_star} outside its band")
        plan.counters["models"] = ENSEMBLE_N
        plan.counters["draws"] = ENSEMBLE_N + int(meta["resamples"])
        return ENSEMBLE_N

    argv = ["figure", "fig6", "--n", str(ENSEMBLE_N), "--seed", str(seed), "--out", str(outdir)]
    plan.items.append([Call("fig6", argv, (fig6a, fig6b), check)])
    return plan


# --- oracle -----------------------------------------------------------------

def oracle_points(seed: int, count: int) -> list[dict[str, float]]:
    """Parameter points drawn over the box that ``validate --grid`` samples."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        e1 = rng.uniform(0.5, 2.0)
        e3 = rng.uniform(2.0, 8.0)
        gamma = rng.uniform(0.0, 0.49) * e1
        t1 = rng.uniform(0.5, 2.0)
        t2 = t1 + rng.uniform(0.0, 2.0)
        t3 = t2 + rng.uniform(0.0, 4.0)
        p = rng.uniform(0.002, 0.03)
        g = rng.uniform(0.002, 0.03)
        points.append({"e1": e1, "e3": e3, "gamma": gamma, "t1": t1, "t2": t2, "t3": t3,
                       "p": p, "g": g})
    return [{k: float(v) for k, v in point.items()} for point in points]


def oracle_plan(seed: int, outdir: Path) -> Plan:
    """``steady`` then single-point ``validate`` at each seeded point: the 64x64 route."""
    steady_json, validate_json = outdir / "steady.json", outdir / "validate.json"
    points = oracle_points(seed, ORACLE_POINTS)
    flags0 = _flags(points[0])
    plan = Plan("point", "point", [], warmup=[
        ["steady", *flags0, "--out", str(outdir / "warmup.json")],
        ["validate", *flags0, "--out", str(outdir / "warmup.json")],
    ])

    def check_steady() -> int:
        report = json.loads(steady_json.read_text())
        residuals, currents = report["residuals"], report["currents"]
        if not residuals["numeric"] <= 1e-10:
            raise CheckError(f"numeric residual {residuals['numeric']}")
        if not residuals["max_coefficient_delta"] <= 1e-8:
            raise CheckError(f"coefficient delta {residuals['max_coefficient_delta']}")
        if not currents["route_delta"] <= 1e-9:
            raise CheckError(f"current route delta {currents['route_delta']}")
        return 0

    def check_validate() -> int:
        if not json.loads(validate_json.read_text())["passed"]:
            raise CheckError("validate reported a failed invariant")
        return 1

    for point in points:
        flags = _flags(point)
        plan.items.append([
            Call("steady", ["steady", *flags, "--out", str(steady_json)],
                 (steady_json,), check_steady),
            Call("validate", ["validate", *flags, "--out", str(validate_json)],
                 (validate_json,), check_validate),
        ])
    return plan


# --- sweeps -----------------------------------------------------------------

FIGURE_COLUMNS = {
    "fig3a.csv": ("beta3", "q1g"), "fig3b.csv": ("beta3", "delta_c"),
    "fig4a.csv": ("e1", "eta_g", "eta_tot", "window_left", "window_right"),
    "fig4b.csv": ("e1", "coherence", "window_left", "window_right"),
    "fig5a.csv": ("beta3", "eta_ratio"), "fig5b.csv": ("beta3", "coherence"),
}
SWEEP_COLUMNS = ("axis_value", "d", "q1g", "q23", "coherence")


def sweeps_plan(seed: int, outdir: Path) -> Plan:
    """fig3, fig4, fig5 and one seeded ``sweep --axis e1``: closed forms on dense grids."""
    points = str(SWEEP_POINTS)
    plan = Plan("row", "call", [], warmup=[
        ["figure", "fig5", "--points", "2", "--out", str(outdir / "warmup")],
    ])

    def figure_check(name: str, curves: int) -> Callable[[], int]:
        def check() -> int:
            written = 0
            for suffix in "ab":
                path = outdir / f"{name}{suffix}.csv"
                _, rows = _rows(path, curves * SWEEP_POINTS)
                _finite(rows, FIGURE_COLUMNS[path.name])
                written += len(rows)
            return written
        return check

    for name, curves in (("fig3", 4), ("fig4", 3), ("fig5", 3)):
        argv = ["figure", name, "--points", points, "--out", str(outdir)]
        outputs = (outdir / f"{name}a.csv", outdir / f"{name}b.csv")
        plan.items.append([Call(name, argv, outputs, figure_check(name, curves))])

    base = oracle_points(seed, 1)[0]
    lo = 2.0 * base["gamma"] + 0.05
    sweep_csv = outdir / "sweep.csv"

    def check_sweep() -> int:
        _, rows = _rows(sweep_csv, SWEEP_POINTS)
        _finite(rows, SWEEP_COLUMNS)
        return len(rows)

    argv = ["sweep", "--axis", "e1", "--lo", repr(lo), "--hi", repr(lo + 3.0),
            "--points", points, *_flags(base), "--out", str(sweep_csv)]
    plan.items.append([Call("sweep", argv, (sweep_csv,), check_sweep)])
    return plan


PLANS = {"ensemble": ensemble_plan, "oracle": oracle_plan, "sweeps": sweeps_plan}
