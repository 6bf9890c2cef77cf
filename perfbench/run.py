"""neqfridge benchmark: drive the CLI in-process and report end-to-end metrics.

    python3 perfbench/run.py --workload ensemble|oracle|sweeps --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N [--out FILE]

Run from the repository root.  A run builds its workload's call list from
the seed, makes one small warm-up call, times a closed loop over those calls
for ``--seconds`` seconds, checks every output, and prints one JSON object
as its last line.

With ``--trace 0`` the metrics are the end-to-end ones:

- ``work_per_s``: work units per second over one pass of the items
  (accepted models for ``ensemble``, oracle points for ``oracle``, CSV data
  rows for ``sweeps``);
- ``call_ms_p50`` / ``call_ms_p90``: latency of one item (a fig6 call, one
  ``steady`` plus ``validate`` pair, one figure or sweep call), the
  quantiles taken over the items;
- ``setup_s``: median over fresh processes of ``import neqfridge.cli``;
- ``peak_rss_mb``: peak resident memory of the benchmark process.

Each item is repeated, in the same cyclic order, until the time is spent,
and each call counts with the mean of its repetitions.  Times are wall
times scaled by a machine-speed probe that runs between items (probe.py):
the shared machine this was tuned on runs the same code up to 1.4x slower in
phases that last from under a second to minutes, and the scaled times do
not follow them.

With ``--trace 1`` the run makes one untraced and one traced pass over the
items and reports per-layer call counts and self times instead (see
spans.py), plus the tracing overhead and two derived ensemble counts.  The
two passes must write byte-identical files.  ``--workload all`` runs every
workload in its own process and prints the metrics under the names the
benchmark's README uses.
"""

from __future__ import annotations

import os

# The 64x64 SVD gains nothing from BLAS threads on this problem size; one
# thread keeps runs comparable.  NEQFRIDGE_THREADS stays at its default (1).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NEQFRIDGE_THREADS", None)

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from probe import REFERENCE_S, probe_for
from spans import Tracer
from workloads import PLANS, CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("ensemble", "oracle", "sweeps")
SETUP_REPEATS = 11
PROBE_SHARE = 0.05  # probe time per unit of measured time
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import neqfridge.cli; "
    "print(time.perf_counter() - t)"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> float:
    """Median probe-scaled time of ``import neqfridge.cli`` in fresh interpreters."""
    times = []
    probes: list[float] = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail(f"import neqfridge.cli failed:\n{proc.stderr}")
        probes += probe_for(PROBE_SHARE * (time.perf_counter() - start))
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times) * REFERENCE_S / statistics.fmean(probes)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "neqfridge").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
    }


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by linear interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    """Executes a plan's calls and tallies attempts, failures and output digests."""

    def __init__(self, plan, cli) -> None:
        self.plan = plan
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()

    def call(self, call, hash_outputs: bool = False) -> tuple[float, int | None]:
        """Run one call; return its wall time and work units (None on failure)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = self.cli.main(call.argv)
        except Exception:  # a crash is a failed call, not a dead benchmark
            elapsed = time.perf_counter() - start
            print(f"perfbench: {call.kind} {call.argv[1:4]} raised", file=sys.stderr)
            traceback.print_exc()
            self.failed += 1
            return elapsed, None
        elapsed = time.perf_counter() - start
        try:
            if code != 0:
                raise CheckError(f"exit code {code}")
            units = call.check()
        except (CheckError, OSError, KeyError, ValueError) as exc:
            print(f"perfbench: {call.kind} {call.argv[1:4]} failed: {exc}", file=sys.stderr)
            self.failed += 1
            return elapsed, None
        if hash_outputs:
            for path in call.outputs:
                self.digest.update(path.name.encode())
                self.digest.update(path.read_bytes())
        return elapsed, units

    def warm_up(self) -> None:
        for argv in self.plan.warmup:
            if self.cli.main(argv) != 0:
                fail(f"warm-up call {argv[:2]} failed")

    def one_pass(self, hash_outputs: bool = False) -> tuple[float, float]:
        """One pass over the items; return its wall time and its probe scale."""
        probes: list[float] = []
        wall = 0.0
        for item in self.plan.items:
            start = time.perf_counter()
            for call in item:
                self.call(call, hash_outputs)
            elapsed = time.perf_counter() - start
            wall += elapsed
            probes += probe_for(PROBE_SHARE * elapsed)
        return wall, REFERENCE_S / statistics.fmean(probes)


def measure(runner: Runner, seconds: float) -> dict:
    """Cycle the items until ``seconds`` have passed, probing between items.

    After each item the probe runs for a fixed share of the item's time, so
    the probe samples the machine's speed over the run in proportion to
    time, as the calls do.  A call's time is the mean of its repetitions,
    scaled by the reference over the mean probe time (see probe.py).  Means,
    not medians: a mean over time-proportional samples weights fast and
    slow phases as the calls' own mean does, and their ratio cancels them.
    """
    items = runner.plan.items
    raw: list[list[list[float]]] = [[[] for _ in item] for item in items]
    units = [0] * len(items)
    probes: list[float] = []
    start = time.perf_counter()
    repetition = 0
    while repetition == 0 or time.perf_counter() - start < seconds:
        for i, item in enumerate(items):
            item_start = time.perf_counter()
            done = [(j, *runner.call(call)) for j, call in enumerate(item)]
            probes += probe_for(PROBE_SHARE * (time.perf_counter() - item_start))
            for j, elapsed, call_units in done:
                if call_units is not None:
                    raw[i][j].append(elapsed)
            if all(call_units is not None for _, _, call_units in done):
                units[i] = sum(call_units for _, _, call_units in done)
            if repetition and time.perf_counter() - start >= seconds:
                break
        repetition += 1
    ok = [i for i in range(len(items)) if all(raw[i])]
    if not ok:
        fail("every item failed")
    probe_s = statistics.fmean(probes)
    scale = REFERENCE_S / probe_s
    call_s = {i: [scale * statistics.fmean(times) for times in raw[i]] for i in ok}
    item_s = [sum(call_s[i]) for i in ok]
    by_kind: dict[str, list[float]] = {}
    for i in ok:
        for j, call in enumerate(items[i]):
            by_kind.setdefault(call.kind, []).append(call_s[i][j])
    return {
        "work_per_s": sum(units[i] for i in ok) / sum(item_s),
        "call_ms_p50": 1e3 * statistics.median(item_s),
        "call_ms_p90": 1e3 * quantile(item_s, 90),
        "by_kind": by_kind,
        "repetitions": repetition,
        "items": len(ok),
        "probe_ms": 1e3 * probe_s,
        "probes": len(probes),
    }


def report_line(workload: str, name: str, value: float, unit: str) -> None:
    print(f"{workload:9s} {name:22s} {value:14.6g} {unit}")


def run_untraced(runner: Runner, workload: str, seconds: float) -> dict:
    setup_s = measure_setup()
    runner.warm_up()
    result = measure(runner, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unit = runner.plan.unit
    print(f"# {result['items']} items x {result['repetitions']} repetitions; mean of "
          f"{result['probes']} probes {result['probe_ms']:.4f} ms, times scaled to the "
          f"{1e3 * REFERENCE_S:g} ms reference")
    report_line(workload, f"{unit}s_per_s", result["work_per_s"], "1/s")
    report_line(workload, f"{runner.plan.item}_ms_p50", result["call_ms_p50"], "ms")
    report_line(workload, f"{runner.plan.item}_ms_p90", result["call_ms_p90"], "ms")
    for kind, times in result["by_kind"].items():
        if len(times) > 1 and len(result["by_kind"]) > 1:
            report_line(workload, f"{kind}_ms_p50", 1e3 * statistics.median(times), "ms")
            report_line(workload, f"{kind}_ms_p90", 1e3 * quantile(times, 90), "ms")
    report_line(workload, "setup_s", setup_s, "s")
    report_line(workload, "peak_rss_mb", peak_rss_mb, "MB")
    report_line(workload, "fail_ratio", runner.failed / runner.attempted, "1")
    return {
        "work_per_s": (result["work_per_s"], "1/s"),
        "call_ms_p50": (result["call_ms_p50"], "ms"),
        "call_ms_p90": (result["call_ms_p90"], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def run_traced(runner: Runner, workload: str, seed: int) -> dict:
    runner.warm_up()
    untraced_wall, untraced_scale = runner.one_pass(hash_outputs=True)
    untraced_digest = runner.digest.hexdigest()
    runner.digest = hashlib.sha256()
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, scale = runner.one_pass(hash_outputs=True)
    finally:
        tracer.uninstall()
    if runner.digest.hexdigest() != untraced_digest:
        print("perfbench: traced outputs differ from untraced outputs", file=sys.stderr)
        runner.failed += 1
    metrics = tracer.metrics(scale)
    counters = runner.plan.counters
    models, draws = counters.get("models", 0), counters.get("draws", 0)
    evals = tracer.count("experiments.deviation")
    metrics["experiments.kernel_evals_per_model"] = (evals / models if models else 0.0, "count")
    metrics["experiments.accept_ratio"] = (models / draws if draws else 0.0, "ratio")
    untraced_s, traced_s = untraced_wall * untraced_scale, traced_wall * scale
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    spans = OUT / f"spans-{workload}-{seed}.tsv.gz"
    tracer.write(spans)
    print(f"# untraced pass {untraced_s:.4f} s, traced pass {traced_s:.4f} s (probe-scaled), "
          f"{len(tracer.span_name)} spans written to {spans.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        report_line(workload, name, value, unit)
    return metrics


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "neqfridge" / "cli.py").is_file():
        fail(f"no neqfridge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import neqfridge.cli as cli

    outdir = OUT / workload
    (outdir / "warmup").mkdir(parents=True, exist_ok=True)
    print("# env " + json.dumps(environment(workload, seed)))
    runner = Runner(PLANS[workload](seed, outdir), cli)
    metrics = run_traced(runner, workload, seed) if trace else run_untraced(
        runner, workload, seconds)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool, out: str | None) -> dict:
    """Every workload in its own process (so peak memory is per workload)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    record = {"env": None, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {workload} exited with code {proc.returncode}")
        for line in lines[:-1]:
            if line.startswith("# env "):
                record["env"] = {k: v for k, v in json.loads(line[6:]).items()
                                 if k != "workload"}
            else:
                print(line)
        result = json.loads(lines[-1])
        record["workloads"][workload] = result
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    if out:
        Path(out).write_text(json.dumps(record, indent=2) + "\n")
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="with --workload all: write results here")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace), args.out)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
