"""Repeat the workloads and report how steady each end-to-end metric is.

    python3 perfbench/steady.py                        # 10 runs of every workload
    python3 perfbench/steady.py --workloads band-sweep --runs 5
    python3 perfbench/steady.py --sets 2               # two sets: do their medians agree?
    python3 perfbench/steady.py --runs 1 --trace       # one timed and one traced run each

Each run is the command from BENCHMARK.json, for run_seconds seconds as
the benchmark always runs, with its own seed (``--seed0`` upwards),
workloads taken round-robin so that slow spells of the machine spread
over all of them.  For each workload and metric it prints the median and
quartiles of the first set, the metric's bound, each set's spread
(q3 - q1) / median, flagged when over a third of the bound, and, with two
sets, how much worse the second set's median is than the first's.
Everything is also written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: {result['failed']} of {result['attempted']} jobs failed", file=sys.stderr)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated names; default all")
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    values: dict = {w: [{m["name"]: [] for m in metrics} for _ in range(args.sets)] for w in names}
    seed = args.seed0
    for s in range(args.sets):
        for _r in range(args.runs):
            for w in names:
                t0 = time.perf_counter()
                result = run_once(spec, w, seed, seconds, 0)
                for m in metrics:
                    values[w][s][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"set {s + 1} {w} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                      f"{result['attempted']} jobs, {result['failed']} failed", file=sys.stderr)
                seed += 1

    report: dict = {"seconds": seconds, "runs": args.runs, "sets": args.sets, "workloads": {}}
    ok = True
    for w in names:
        print(f"\n{w}")
        print(f"  {'metric':14s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'bound':>6s}  spread per set"
              + ("  2nd-worse" if args.sets > 1 else ""))
        rows = {}
        for m in metrics:
            sets = values[w]
            q1, med, q3 = quartiles(sets[0][m["name"]])
            spreads = []
            for one in sets:
                a, b, c = quartiles(one[m["name"]])
                spreads.append((c - a) / b if b else 0.0)
            line = (f"  {m['name']:14s} {m['unit']:6s} {med:12.5g} {q1:12.5g} {q3:12.5g} {m['bound']:6.3f}  "
                    + " ".join(f"{x:.3f}" for x in spreads))
            row = {"median": med, "q1": q1, "q3": q3, "spreads": spreads, "bound": m["bound"],
                   "values": [one[m["name"]] for one in sets]}
            if max(spreads) > m["bound"] / 3:
                line += "  spread over a third of the bound"
                ok = False
            if args.sets > 1:
                later = statistics.median(sets[1][m["name"]])
                row["worse"] = worse_by(med, later, m["better"])
                line += f"  {row['worse']:+.3f}"
                if row["worse"] > m["bound"]:
                    line += " OVER BOUND"
                    ok = False
            print(line)
            rows[m["name"]] = row
        report["workloads"][w] = rows

    if args.trace:
        report["traced"] = {}
        for w in names:
            result = run_once(spec, w, seed, seconds, 1)
            seed += 1
            report["traced"][w] = result
            print(f"\n{w} traced ({result['attempted']} jobs)")
            for name, metric in result["metrics"].items():
                if metric["value"]:
                    print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']}")

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out_file.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"\n{'steady' if ok else 'NOT steady'}; written to {out_file.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
