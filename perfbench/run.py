"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The inputs are generated from ``--seed``, set-up runs several
times (``setup_s`` is the median), then jobs run back to back for
``--seconds``, at least 100 of them, each under a wall-time cap and each
output checked.

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json.
With ``--trace 1`` the first half of the time runs untraced and the second
half with the layer wrappers of ``tracer.py`` installed; the metrics are
the per-layer ones, including the tracing overhead.  The last line of
stdout is the result object; the line before it gives the machine
context.  A copy of everything, spans included, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs as gen
from speed import Probe, Speed, corrected_runs
from tracer import Tracer, layer_metrics, scale_times
from workloads import WORKLOADS, JobTimeout, call_with_cap

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_JOBS = 100  # so that ten samples lie beyond the 90th percentile
RUN_LIMIT_S = 150  # stop starting jobs after this, whatever --seconds says
SETUP_CAP_S = 30.0


def import_package():
    """Import trisweep from the checkout's src/, or None when it is not there."""
    package = ROOT / "src" / "trisweep"
    if not (package / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(package.parent))
    import trisweep

    if Path(trisweep.__file__).resolve().parent != package.resolve():
        return None
    return trisweep


def wall_ms(cmd: list[str], reps: int) -> float:
    """Median wall time of a short subprocess."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, capture_output=True, check=True, timeout=30)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def quantile(values: list[float], q: int) -> float:
    """The q-th decile cut (q=5 is the median, q=9 the 90th percentile)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


class Loop:
    """Back-to-back capped jobs for a fixed time, each after a speed probe.

    Latencies cover the job alone, not its output check.  They are
    corrected for machine speed (see ``speed.py``); the raw ones are kept
    too.  With a tracer, each job's layer times are corrected by the same
    factor.
    """

    def __init__(self, workload, seconds: float, deadline: float, probe: Probe, min_jobs: int = 0, tracer=None):
        self.raw_ms: list[float] = []
        self.labels: list[str] = []
        self.failures: list[str] = []
        self.speed = Speed(probe)
        traced: list[tuple[int, dict]] = []
        start = time.perf_counter()
        stop = start + seconds
        k = 0
        while True:
            now = time.perf_counter()
            if now >= deadline or (now >= stop and k >= min_jobs):
                break
            self.speed.probe()
            traced_jobs = len(tracer.jobs) if tracer is not None else 0
            t0 = time.perf_counter()
            problem = None
            try:
                out = workload.run_job(k, tracer)
            except JobTimeout:
                problem = f"job {k}: over the {workload.job_cap_s} s cap"
            except Exception as exc:  # a failing job is counted, and the run goes on
                problem = f"job {k}: {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if problem is None:
                try:
                    problem = workload.check(k, out)
                except Exception as exc:
                    problem = f"job {k}: output check raised {type(exc).__name__}: {exc}"
            if tracer is not None and len(tracer.jobs) > traced_jobs:
                traced.append((k, tracer.jobs[-1]))
            self.raw_ms.append((t1 - t0) * 1e3)
            self.labels.append(workload.label(k))
            if problem is not None:
                self.failures.append(problem)
            k += 1
        self.speed.probe()  # the last job's after-sample
        factors = self.speed.factors()
        self.latencies_ms = [t * f for t, f in zip(self.raw_ms, factors)]
        for job, raw in traced:
            scale_times(raw, factors[job])

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def p(self, q: int) -> float:
        return quantile(self.latencies_ms, q)


def multiply_ns(seed: int, probe: Probe) -> dict[str, float]:
    """ns per ``multiply`` call per backend, on 64 seeded pairs each.

    free: words of 32 syllables over 4 generators, the only long free words
    the benchmark multiplies (band-sweep's stay at 2 syllables); cyclic: Z_60; symmetric:
    S_5; dihedral: D_40; product: S_3 x Z_5.  Median of 3 speed-corrected
    passes of 4096 calls.
    """
    import trisweep.groups as groups

    rng = random.Random(f"multiply:{seed}")
    S3, Z5 = groups.symmetric_group(3), groups.cyclic_group(5)
    backends = {
        "free": (groups.free_group(["x", "y", "z", "w"]), lambda G: gen.random_free_word(G.generators, rng, 32)),
        "cyclic": (groups.cyclic_group(60), lambda G: rng.randrange(60)),
        "symmetric": (groups.symmetric_group(5), lambda G: gen.random_perm(5, rng)),
        "dihedral": (groups.dihedral_group(40), lambda G: gen.random_dihedral(40, rng)),
        "product": (
            groups.product_group(S3, Z5),
            lambda G: (groups.element(S3, gen.random_perm(3, rng)), groups.element(Z5, rng.randrange(5))),
        ),
    }
    multiply = groups.multiply
    out = {}
    for name, (G, payload) in backends.items():
        pairs = [(groups.element(G, payload(G)), groups.element(G, payload(G))) for _ in range(64)] * 64

        def run(pairs=pairs):
            for a, b in pairs:
                multiply(a, b)

        out[f"groups.multiply.ns.{name}"] = statistics.median(corrected_runs(run, 3, probe)) / len(pairs) * 1e9
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()
    deadline = began + RUN_LIMIT_S

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print("perfbench: BENCHMARK.json is missing from the checkout", file=sys.stderr)
        return 2
    if import_package() is None:
        print("perfbench: no trisweep package under src/ in the checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, ROOT)

    # one CPU for this process and its children, the speed probe's process
    # among them, so that the probe and the work it corrects run on the
    # same processor
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "python_c_pass_ms": wall_ms([sys.executable, "-c", "pass"], 5),
        "sizes": workload.sizes,
    }

    with Probe() as probe:
        setup_times = corrected_runs(
            lambda: call_with_cap(workload.setup, SETUP_CAP_S), workload.setup_reps, probe
        )
        gc.collect()

        record: dict = {"context": context, "setup_s": setup_times}
        if args.trace == 0:
            loop = Loop(workload, args.seconds, deadline, probe, min_jobs=MIN_JOBS)
            who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
            values = {
                "setup_s": statistics.median(setup_times),
                "job_ms_p50": loop.p(5),
                "job_ms_p90": loop.p(9),
                "jobs_per_s": (loop.attempted - loop.failed) / (sum(loop.latencies_ms) / 1e3),
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
                "ok_frac": (loop.attempted - loop.failed) / max(loop.attempted, 1),
            }
            wanted = spec["end_to_end"]
            loops = {"timed": loop}
        else:
            untraced = Loop(workload, args.seconds / 2, deadline, probe)
            values = multiply_ns(args.seed, probe)
            tracer = Tracer()
            if workload.in_process:
                tracer.install()
            try:
                traced = Loop(workload, args.seconds / 2, deadline, probe, tracer=tracer)
            finally:
                tracer.restore()
            values.update(layer_metrics(tracer.jobs))
            if not workload.in_process:  # wall time of each CLI subcommand
                for label in sorted(set(untraced.labels)):
                    times = [t for t, lab in zip(untraced.latencies_ms, untraced.labels) if lab == label]
                    values[f"cli.{label}.ms"] = statistics.median(times)
            values["trace.overhead_frac"] = traced.p(5) / untraced.p(5) - 1
            wanted = spec["per_layer"]
            loops = {"untraced": untraced, "traced": traced}
            record["spans"] = tracer.spans
            record["layers"] = values

    attempted = sum(loop.attempted for loop in loops.values())
    failed = sum(loop.failed for loop in loops.values())
    if attempted == 0:
        print("perfbench: no job ran before the run limit", file=sys.stderr)
        return 1
    for loop in loops.values():
        for problem in loop.failures[:5]:
            print(f"perfbench: {problem}", file=sys.stderr)
    context["jobs"] = {name: loop.attempted for name, loop in loops.items()}
    context["run_s"] = time.perf_counter() - began
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted},
    }
    record["result"] = result
    record["latencies_ms"] = {name: loop.latencies_ms for name, loop in loops.items()}
    record["raw_ms"] = {name: loop.raw_ms for name, loop in loops.items()}
    record["reference_ms"] = {name: loop.speed.samples for name, loop in loops.items()}
    record["failures"] = [p for loop in loops.values() for p in loop.failures]
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print("perfbench context " + json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
