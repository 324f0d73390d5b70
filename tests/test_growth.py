"""Growth gates by counts, not clocks: how each layer's work grows with its input.

Each row runs one layer on the band-sweep benchmark's inputs at 40, 160
and 640 columns, built before the measured span.  Three counts are taken
per size, each after ``gc.collect()``: the ``call`` and ``c_call``
events that ``sys.setprofile`` sees, the ``line`` events that
``sys.settrace`` sees, and the ``tracemalloc`` peak.  Calls alone miss a
loop that runs inside one frame, such as a generator expression that
rescans a list; its lines do not.  From one size to the next, 4x larger,
each event count may grow at most 4.6x and the peak at most 5.5x: linear
work with room for dict and list resizes, where a layer that rescans its
input per item grows 16x.  No count depends on the speed of the host.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from functools import cache

import pytest

import trisweep as ts
from conftest import band_sweep

SIZES = (40, 160, 640)
CALLS_BOUND = 4.6
PEAK_BOUND = 5.5

band = cache(band_sweep)


def validated(columns: int) -> tuple[ts.Section, ts.SweepScheme, ts.Connection2]:
    """A run's arguments: the start section and a scheme whose replay ``validate_scheme`` has made."""
    b = band(columns)
    scheme = ts.load_scheme(b.scheme_text)
    ts.validate_scheme(scheme, b.K)
    return ts.Section(scheme.start_path, tuple(ts.parse_element(w, b.conn.group) for w in b.words)), scheme, b.conn


# (layer, the layer's arguments at a size, built fresh for each measure, the call measured)
ROWS = [
    ("load_scheme", lambda m: (band(m).scheme_text,), ts.load_scheme),
    ("validate_scheme", lambda m: (ts.load_scheme(band(m).scheme_text), band(m).K), ts.validate_scheme),
    ("run_scheme final-only", validated, lambda start, scheme, conn: ts.run_scheme(start, scheme, conn).final),
]


def events(call, args: tuple) -> int:
    """The ``call`` and ``c_call`` events of ``call(*args)``."""
    seen = 0

    def profile(_frame, event, _arg) -> None:
        nonlocal seen
        seen += event in ("call", "c_call")

    gc.collect()
    before = sys.getprofile()  # a coverage tool's or debugger's hook, put back after
    sys.setprofile(profile)
    try:
        call(*args)
    finally:
        sys.setprofile(before)
    return seen


def lines(call, args: tuple) -> int:
    """The ``line`` events of ``call(*args)``."""
    seen = 0

    def trace(_frame, event, _arg):
        nonlocal seen
        seen += event == "line"
        return trace

    gc.collect()
    before = sys.gettrace()
    sys.settrace(trace)
    try:
        call(*args)
    finally:
        sys.settrace(before)
    return seen


def peak(call, args: tuple) -> int:
    """The ``tracemalloc`` peak of ``call(*args)``, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("prepare, call", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_a_layer_grows_at_most_linearly_with_the_band(prepare, call):
    calls = [events(call, prepare(m)) for m in SIZES]
    steps = [lines(call, prepare(m)) for m in SIZES]
    peaks = [peak(call, prepare(m)) for m in SIZES]
    for counts, bound in ((calls, CALLS_BOUND), (steps, CALLS_BOUND), (peaks, PEAK_BOUND)):
        ratios = [big / small for small, big in zip(counts, counts[1:])]
        assert max(ratios) <= bound, (counts, ratios)
