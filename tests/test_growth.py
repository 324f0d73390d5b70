"""Growth gates by counts, not clocks: how each layer's work grows with its input.

Each row runs one layer at three sizes, each 4x the one before, on
inputs built before the measured span by the benchmark's generators: the
band-sweep band at 40, 160 and 640 columns, or the surface-ingest torus
T(n) at n = 8, 16 and 32, with 2n^2 triangles, and its connection file
over D_5 with a value on every triangle marking.  Three counts are taken
per size, each after ``gc.collect()``: the ``call`` and ``c_call``
events that ``sys.setprofile`` sees, the ``line`` events that
``sys.settrace`` sees, and the ``tracemalloc`` peak.  Calls alone miss a
loop that runs inside one frame, such as a generator expression that
rescans a list; its lines do not.  From one size to the next, 4x larger,
each event count may grow at most 4.6x and the peak at most 5.5x: linear
work with room for dict and list resizes, where a layer that rescans its
input per item grows 16x.  No count depends on the speed of the host.

The counts cannot see a rescan made in C: an ``in`` test on a tuple or a
list, per item, is one ``c_call`` or none, and no line, so such a
quadratic layer passes these gates.  Such a scan is pinned by counting
its comparisons instead, as
``tests/test_groups.py::test_a_free_letter_is_looked_up_among_the_generators_not_scanned_for``
does for the generators of a free group.
"""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc
from functools import cache

import pytest

import trisweep as ts
from conftest import _benchmark_inputs, band_sweep

BANDS = (40, 160, 640)
TORI = (8, 16, 32)
CALLS_BOUND = 4.6
PEAK_BOUND = 5.5

band = cache(band_sweep)


@cache
def torus_files(n: int) -> tuple[str, str]:
    """The texts of the complex file of T(n) and of a D_5 connection file on it with a ``cells`` block."""
    gen = _benchmark_inputs()
    vertices, triangles = gen.torus(n)
    return gen.complex_json(vertices, triangles), gen.dihedral_connection(5, vertices, triangles, random.Random(n))[0]


def torus(n: int) -> ts.SimplicialComplex:
    """T(n), read afresh: none of its indexes is built yet."""
    return ts.load_complex(torus_files(n)[0])


def validated(columns: int) -> tuple[ts.Section, ts.SweepScheme, ts.Connection2]:
    """A run's arguments: the start section and a scheme whose replay ``validate_scheme`` has made."""
    b = band(columns)
    scheme = ts.load_scheme(b.scheme_text)
    ts.validate_scheme(scheme, b.K)
    return ts.Section(scheme.start_path, tuple(ts.parse_element(w, b.conn.group) for w in b.words)), scheme, b.conn


# (layer, its sizes, the layer's arguments at a size, built fresh for each measure, the call measured)
ROWS = [
    ("load_scheme", BANDS, lambda m: (band(m).scheme_text,), ts.load_scheme),
    ("validate_scheme", BANDS, lambda m: (ts.load_scheme(band(m).scheme_text), band(m).K), ts.validate_scheme),
    ("run_scheme final-only", BANDS, validated, lambda start, scheme, conn: ts.run_scheme(start, scheme, conn).final),
    ("validate_complex", TORI, lambda n: (torus(n), True), ts.validate_complex),
    ("load_connection", TORI, lambda n: (torus_files(n)[1], torus(n)), ts.load_connection),
    ("Connection2.flat", TORI, lambda n: (ts.dihedral_group(5), torus(n)), ts.Connection2.flat),
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


@pytest.mark.parametrize("sizes, prepare, call", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_a_layer_grows_at_most_linearly_with_its_input(sizes, prepare, call):
    calls = [events(call, prepare(m)) for m in sizes]
    steps = [lines(call, prepare(m)) for m in sizes]
    peaks = [peak(call, prepare(m)) for m in sizes]
    for counts, bound in ((calls, CALLS_BOUND), (steps, CALLS_BOUND), (peaks, PEAK_BOUND)):
        ratios = [big / small for small, big in zip(counts, counts[1:])]
        assert max(ratios) <= bound, (counts, ratios)
