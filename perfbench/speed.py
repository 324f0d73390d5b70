"""Machine-speed correction for the benchmark's timings.

The benchmark shares its host with other virtual machines, and the host
slows a process down by as much as 1.8x for minutes at a time.  A run of
half a minute cannot average that out, so every timing is corrected by
the speed the machine shows at the moment it is taken.

Before each timed piece of work the benchmark asks a ``Probe`` to time
``reference()``, a fixed computation that is, like the package, bound by
the interpreter: tuples, dicts, frozensets, string formatting and
sorting.  The probe runs the reference in a process of its own, with its
garbage collector off, pinned to the benchmark's CPU: the work under test
and the reference never run at the same time, and the heap, garbage and
collector state the work leaves behind cannot change the divisor.  A
timing ``t`` is reported as ``t * REF_MS / r``, where ``r`` is the mean
of the reference times taken just before and just after it (for set-up
repetitions, the median of three before and three after).  Values therefore read as
milliseconds on a machine that runs the reference in ``REF_MS``, a fixed
scale of the order of the reference's time on the 2-vCPU Xeon (2.0 GHz)
host the bounds were set on, when nothing else slows it.

    python3 perfbench/speed.py --serve    # the probe process: one time per input line
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time

REF_MS = 1.2


def reference() -> int:
    d: dict = {}
    for i in range(1200):
        key = (i % 37, i % 11, "k%d" % (i % 13))
        d[key] = d.get(key, 0) + i
    sets = {frozenset(key) for key in d}
    names = sorted("%s-%s" % (a, b) for a, b, _c in d)
    return len(sets) + len(names)


def reference_ms() -> float:
    t0 = time.perf_counter()
    reference()
    return (time.perf_counter() - t0) * 1e3


def serve() -> None:
    """Answer each line on stdin with one reference time in ms; stop at EOF."""
    gc.disable()
    while sys.stdin.buffer.readline():
        sys.stdout.write(f"{reference_ms()!r}\n")
        sys.stdout.flush()


class Probe:
    """The reference timer: a child process started with the CPU affinity
    of its parent, asked for one time at a call.  Use it as a context
    manager, so that the process is stopped and waited for."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve"], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        for _ in range(3):  # warm-up: imports and the first allocations
            self.ms()

    def ms(self) -> float:
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the speed probe process ended")
        return float(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> Probe:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Speed:
    """Reference times taken one before each job and one after the last;
    ``factors()`` scales each job's timing.

    A job's factor uses the mean of the two reference times that bracket
    it: the one taken just before it and the one taken just after it (the
    next job's).  Of the ways to combine the probes that were tried (the
    median of the three or five around the job, the time before it alone,
    the faster or slower of the bracket), this left the least spread of
    the latency quantiles between runs on slow and uneven spells.
    """

    def __init__(self, probe: Probe) -> None:
        self._probe = probe
        self.samples: list[float] = []

    def probe(self) -> None:
        self.samples.append(self._probe.ms())

    def factors(self) -> list[float]:
        s = self.samples
        return [2 * REF_MS / (s[i] + s[i + 1]) for i in range(len(s) - 1)]


def corrected_runs(fn, reps: int, probe: Probe, probes: int = 3) -> list[float]:
    """Seconds taken by ``reps`` calls of ``fn()``, each corrected by the
    reference times taken just before and just after it.  The garbage the
    previous call left is collected, untimed, before each call."""
    samples = [probe.ms() for _ in range(probes)]
    out = []
    for _ in range(reps):
        gc.collect()
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        after = [probe.ms() for _ in range(probes)]
        out.append(dt * REF_MS / statistics.median(samples[-probes:] + after))
        samples += after
    return out


if __name__ == "__main__":
    if sys.argv[1:] != ["--serve"]:
        sys.exit(__doc__)
    serve()
