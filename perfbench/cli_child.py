"""One traced CLI call: ``python perfbench/cli_child.py <trisweep arguments>``.

Times ``import trisweep.cli``, installs the layer wrappers, runs
``trisweep.cli.main`` on the arguments and restores the wrappers.  The
command's own output goes to stdout unchanged; the last line of stderr is
a JSON report with the start time of this interpreter's first statement,
the import time, the layer counters and the spans.
"""

import time

STARTED_NS = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    t0 = time.monotonic_ns()
    import trisweep.cli

    import_ns = time.monotonic_ns() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_job(0)
    try:
        code = trisweep.cli.main(sys.argv[1:])
    finally:
        metrics = tracer.end_job()
        tracer.restore()
    sys.stdout.flush()
    report = {"started_ns": STARTED_NS, "import_ns": import_ns, "metrics": metrics, "spans": tracer.spans}
    print(json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
