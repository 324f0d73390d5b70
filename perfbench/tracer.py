"""Layer tracing for the benchmark's traced run.

``Tracer.install`` replaces the public functions each layer calls on the
next with timing wrappers, at the names the calling modules bound them to
(``trisweep.sweep.multiply``, ``trisweep.cli.run_scheme``, the
``SimplicialComplex`` query methods, ...); ``restore`` puts every original
back.  Nothing in the package itself changes.

A wrapper measures its call and subtracts the time of wrapped calls made
inside it, giving self time.  Coarse calls are also kept as spans (name,
start, end, parent span, job id); hot leaf calls such as ``multiply`` are
only counted and timed, so a job of a hundred thousand multiplications
does not fill memory.  Wrappers account only while a job is running, so
set-up and output checks are not attributed to any layer.
"""

from __future__ import annotations

import functools
import time
from importlib import import_module

# (module, attribute, layer span name, hot).  Each function is wrapped at
# every module that binds it and that a workload reaches through.
_FUNCTIONS = [
    ("trisweep.complexes", "load_complex", "complexes.load_complex", False),
    ("trisweep.cli", "load_complex", "complexes.load_complex", False),
    ("trisweep.complexes", "validate_complex", "complexes.validate_complex", False),
    ("trisweep.cli", "validate_complex", "complexes.validate_complex", False),
    ("trisweep.paths", "load_scheme", "paths.load_scheme", False),
    ("trisweep.cli", "load_scheme", "paths.load_scheme", False),
    ("trisweep.paths", "validate_scheme", "paths.validate_scheme", False),
    ("trisweep.paths", "apply_move_path", "paths.apply_move_path", True),
    ("trisweep.sweep", "apply_move_path", "paths.apply_move_path", True),
    ("trisweep.paths", "search_homotopy", "paths.search_homotopy", False),
    ("trisweep.groups", "multiply", "groups.multiply", True),
    ("trisweep.bundle", "multiply", "groups.multiply", True),
    ("trisweep.sweep", "multiply", "groups.multiply", True),
    ("trisweep.groups", "parse_element", "groups.parse_element", True),
    ("trisweep.sweep", "parse_element", "groups.parse_element", True),
    ("trisweep.cli", "parse_element", "groups.parse_element", True),
    ("trisweep.groups", "format_element", "groups.format_element", True),
    ("trisweep.sweep", "format_element", "groups.format_element", True),
    ("trisweep.cli", "format_element", "groups.format_element", True),
    ("trisweep.groups", "enumerate_elements", "groups.enumerate_elements", False),
    ("trisweep.bundle", "enumerate_elements", "groups.enumerate_elements", False),
    ("trisweep.sweep", "enumerate_elements", "groups.enumerate_elements", False),
    ("trisweep.bundle", "holonomy", "bundle.holonomy", False),
    ("trisweep.cli", "edge_holonomy", "bundle.holonomy", False),
    ("trisweep.bundle", "find_isomorphism", "bundle.find_isomorphism", False),
    ("trisweep.sweep", "load_connection", "sweep.load_connection", False),
    ("trisweep.cli", "load_connection", "sweep.load_connection", False),
    ("trisweep.sweep", "run_scheme", "sweep.run_scheme", False),
    ("trisweep.cli", "run_scheme", "sweep.run_scheme", False),
    ("trisweep.sweep", "apply_move_section", "sweep.apply_move_section", True),
    ("trisweep.sweep", "trace_to_json", "sweep.trace_to_json", False),
    ("trisweep.cli", "trace_to_json", "sweep.trace_to_json", False),
    ("trisweep.sweep", "compare_schemes", "sweep.compare_schemes", False),
    ("trisweep.cli", "compare_schemes", "sweep.compare_schemes", False),
    ("trisweep.sweep", "sections_gauge_equivalent", "sweep.sections_gauge_equivalent", False),
    ("trisweep.sweep", "center_obstruction_check", "sweep.center_obstruction_check", False),
    ("trisweep.cli", "center_obstruction_check", "sweep.center_obstruction_check", False),
    ("trisweep.sweep", "curvature_square", "sweep.curvature_square", False),
    ("trisweep.cli", "curvature_square", "sweep.curvature_square", False),
    ("trisweep.cli", "main", "cli.main", False),
]

# (module, class, method, layer span name, hot); classmethods stay classmethods.
_METHODS = [
    ("trisweep.complexes", "SimplicialComplex", "has_face", "complexes.queries", True),
    ("trisweep.complexes", "SimplicialComplex", "has_edge", "complexes.queries", True),
    ("trisweep.complexes", "SimplicialComplex", "neighbors", "complexes.queries", True),
    ("trisweep.complexes", "SimplicialComplex", "faces_containing", "complexes.queries", True),
    ("trisweep.complexes", "SimplicialComplex", "faces_containing_edge", "complexes.queries", True),
    ("trisweep.bundle", "Connection1", "build", "bundle.Connection1.build", False),
    ("trisweep.sweep", "Connection2", "build", "sweep.Connection2.build", False),
    ("trisweep.sweep", "Connection2", "flat", "sweep.Connection2.flat", False),
]


def _syllables(text: str) -> int:
    """Factors in an element's text form: ``x*y^2`` has two, ``e`` none."""
    return 0 if text == "e" else text.count("*") + 1


class Tracer:
    """Spans and per-job counters recorded by the installed wrappers."""

    def __init__(self) -> None:
        self.clock = time.monotonic_ns  # system-wide, so child spans line up
        self.job = None  # id of the running job; None means not accounting
        self.stack: list[list[int]] = []  # per open call: [child_ns, span_id]
        self.spans: list[tuple] = []
        self.jobs: list[dict[str, float]] = []
        self.current: dict[str, float] = {}
        self._next_span = 1
        self._saved: list[tuple] = []
        self._search_paths = None  # distinct paths seen by the running search

    # -- jobs --------------------------------------------------------------

    def begin_job(self, job_id: int) -> None:
        self.job = job_id
        self.current = {}

    def end_job(self) -> dict[str, float]:
        self.job = None
        self.jobs.append(self.current)
        return self.current

    def add(self, key: str, value: float) -> None:
        self.current[key] = self.current.get(key, 0) + value

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, name: str, hot: bool, after=None):
        tracer = self
        clock = self.clock
        calls_key = name + ".calls"
        self_key = name + ".self_ns"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][1] if stack else 0
            if hot:
                span_id = parent
            else:
                span_id = tracer._next_span
                tracer._next_span += 1
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                current = tracer.current
                current[calls_key] = current.get(calls_key, 0) + 1
                current[self_key] = current.get(self_key, 0) + duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if not hot:
                    tracer.spans.append((name, start, end, span_id, parent, tracer.job))
            if after is not None:
                hook_start = clock()
                after(out)
                # the hook is measurement, not program work: keep it out of
                # the caller's self time
                if stack:
                    stack[-1][0] += clock() - hook_start
            return out

        return wrapper

    def _after_run_scheme(self, format_element):
        def after(trace) -> None:
            letters = 0
            peak = 0
            seen: dict[int, int] = {}
            for section in trace.sections:
                letters += len(section.letters)
                for letter in section.letters:
                    n = seen.get(id(letter))
                    if n is None:
                        n = seen[id(letter)] = _syllables(format_element(letter))
                    peak = max(peak, n)
            self.add("sweep.trace.letters", letters)
            self.current["sweep.word.peak_syllables"] = max(
                self.current.get("sweep.word.peak_syllables", 0), peak
            )

        return after

    def _after_apply_move_path(self, path) -> None:
        if self._search_paths is not None:
            self._search_paths.add(path)
            self.add("paths.search_homotopy.moves_tried", 1)

    def _around_search(self, wrapped):
        @functools.wraps(wrapped)
        def search(*args, **kwargs):
            if self.job is None:
                return wrapped(*args, **kwargs)
            self._search_paths = set()
            try:
                return wrapped(*args, **kwargs)
            finally:
                self.add("paths.search_homotopy.distinct", len(self._search_paths))
                self._search_paths = None

        return search

    def install(self) -> None:
        """Wrap every layer boundary the loaded modules expose."""
        # the run_scheme hook formats letters with the unwrapped function, so
        # that its calls are not counted as the program's
        format_element = import_module("trisweep.groups").format_element
        for modname, attr, name, hot in _FUNCTIONS:
            try:
                module = import_module(modname)
            except ImportError:
                continue
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            after = None
            if name == "sweep.run_scheme":
                after = self._after_run_scheme(format_element)
            elif name == "paths.apply_move_path":
                after = self._after_apply_move_path
            wrapped = self.wrap(original, name, hot, after)
            if name == "paths.search_homotopy":
                wrapped = self._around_search(wrapped)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapped)
        for modname, clsname, attr, name, hot in _METHODS:
            cls = getattr(import_module(modname), clsname)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(original.__func__, name, hot))
            else:
                replacement = self.wrap(original, name, hot)
            self._saved.append((cls, attr, original))
            setattr(cls, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def scale_times(raw: dict[str, float], factor: float) -> None:
    """Apply a machine-speed factor to one job's recorded times."""
    for key in raw:
        if key.endswith(("_ns", "_ms")):
            raw[key] *= factor


def layer_metrics(jobs: list[dict[str, float]]) -> dict[str, float]:
    """Per-job means of the recorded counters, self times in ms.

    ``paths.search_homotopy.distinct_ratio`` is distinct paths produced over
    moves tried, summed over all jobs.
    """
    totals: dict[str, float] = {}
    for raw in jobs:
        for key, value in raw.items():
            totals[key] = totals.get(key, 0) + value
    n = max(len(jobs), 1)
    out: dict[str, float] = {}
    for key, value in totals.items():
        if key.endswith(".self_ns"):
            out[key[: -len(".self_ns")] + ".self_ms"] = value / n / 1e6
        else:
            out[key] = value / n
    tried = totals.get("paths.search_homotopy.moves_tried", 0)
    if tried:
        out["paths.search_homotopy.distinct_ratio"] = totals["paths.search_homotopy.distinct"] / tried
    return out
