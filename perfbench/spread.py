"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads ensemble,oracle]
        [--seconds S] [--out FILE] [--against FILE]

Runs ``run.py`` once per seed and workload, alternating the workload order
from one seed to the next, and prints for every end-to-end metric the
median, the quartiles and the spread: the distance between the quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  The
spread is compared with the metric's bound in BENCHMARK.json; aim for a
third of it.  ``--against`` compares the medians with an earlier ``--out``
file and flags every metric that got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=None)
    parser.add_argument("--against", default=None)
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    failed = 0
    for k, seed in enumerate(parse_seeds(args.seeds)):
        for workload in (workloads if k % 2 == 0 else workloads[::-1]):
            result = run(workload, seed, args.seconds)
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    previous = json.loads(Path(args.against).read_text()) if args.against else None
    worst = 0.0
    print(f"\n{'workload':9s} {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            line = (f"{workload:9s} {name:12s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                    f"{spread:7.3f} {bounds[name]:6.2f}")
            if previous:
                before = statistics.median(previous["values"][workload][name])
                change = (median - before) / before
                worse = change if better[name] == "lower" else -change
                line += f"  vs before {change:+.3f}{'  WORSE' if worse > bounds[name] else ''}"
            print(line)
    print(f"\nfailed calls: {failed}; largest spread/bound (setup_s aside): {worst:.2f}")
    if args.out:
        Path(args.out).write_text(json.dumps({"seconds": args.seconds, "values": values},
                                             indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
