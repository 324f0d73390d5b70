"""Sections and paths are validated where they are built and where a move
starts; what a move produces is built unchecked.  These tests hold the
unchecked results to the public constructors' rules."""

from __future__ import annotations

import gc
import json
import pickle
import random
import tracemalloc

import pytest

import trisweep as ts
from conftest import (
    band_complex,
    product_of_letters,
    random_connection1,
    random_connection2,
    random_element,
    random_gauge,
    random_walk,
    torus_complex,
)
from trisweep.errors import BundleError, PathError, SweepError, quote
from trisweep.paths import MOVES, _candidate_moves

FREE = ts.free_group(["x", "y", "z"])
S3 = ts.symmetric_group(3)
S4 = ts.symmetric_group(4)
D4 = ts.dihedral_group(4)
Z3xS3 = ts.product_group(ts.cyclic_group(3), S3)
Z5 = ts.cyclic_group(5)


def random_scheme(K: ts.SimplicialComplex, start: ts.EdgePath, rng: random.Random, moves: int) -> ts.SweepScheme:
    """A valid scheme: each move drawn from the applicable ones, its kind first.

    Drawing the kind first keeps merges and cancellations as likely as
    insertions, so the path does not only grow.
    """
    path = start
    steps = []
    for _ in range(moves):
        by_kind: dict[str, list[ts.HomotopyStep]] = {}
        for step in _candidate_moves(path, K):
            by_kind.setdefault(step.move, []).append(step)
        step = rng.choice(by_kind[rng.choice(sorted(by_kind))])
        path = ts.apply_move_path(path, step, K)
        steps.append(step)
    return ts.SweepScheme(start, tuple(steps))


@pytest.mark.parametrize(
    "surface, group",
    [("band", FREE), ("band", S3), ("torus", D4), ("torus", Z3xS3)],
    ids=["band-free", "band-S3", "torus-D4", "torus-Z3xS3"],
)
def test_move_results_equal_sections_built_through_the_public_constructors(surface, group):
    K = band_complex(6) if surface == "band" else torus_complex(4)
    for seed in range(6):
        rng = random.Random(f"{surface}-{group.kind}-{seed}")
        conn = random_connection2(K, group, rng)
        start_path = random_walk(K, rng, rng.randrange(1, 6), stay_prob=0.2)
        scheme = random_scheme(K, start_path, rng, 30)
        start = ts.Section(start_path, tuple(random_element(group, rng, 3) for _ in start_path.steps))
        trace = ts.run_scheme(start, scheme, conn)
        paths = ts.validate_scheme(scheme, K)
        assert [s.path for s in trace.sections] == paths
        for section in trace.sections:
            rebuilt = ts.Section(ts.EdgePath(tuple(section.path.steps)), tuple(section.letters))
            assert rebuilt == section
            assert hash(rebuilt) == hash(section)
            assert hash(rebuilt.path) == hash(section.path)
            assert vars(rebuilt) == vars(section)
            assert vars(rebuilt.path) == vars(section.path)


def test_public_constructors_still_reject_invalid_sections():
    path = ts.EdgePath((("a", "b"), ("b", "c")))
    with pytest.raises(SweepError, match="2 letters over 1 steps"):
        ts.Section(ts.EdgePath((("a", "b"),)), (ts.identity(S3),) * 2)
    with pytest.raises(SweepError, match="share one backend"):
        ts.Section(path, (ts.identity(S3), ts.identity(Z5)))
    with pytest.raises(PathError, match="not composable"):
        ts.EdgePath((("a", "b"), ("c", "d")))
    with pytest.raises(PathError, match="empty"):
        ts.EdgePath(())


@pytest.mark.parametrize("letter", [1, None, "x"])
def test_a_section_refuses_a_letter_that_is_not_a_group_element(letter):
    with pytest.raises(SweepError) as info:
        ts.Section(ts.EdgePath.identity("a"), (letter,))
    assert str(info.value) == f"section letter {quote(letter)} is not a group element"
    with pytest.raises(SweepError, match="is not a group element"):
        ts.Section(ts.EdgePath.from_vertices("a", "b", "c"), (ts.identity(S3), letter))


def z5_section(path: ts.EdgePath) -> ts.Section:
    return ts.Section(path, tuple(ts.element(Z5, k + 1) for k in range(len(path))))


def assert_names_both_groups(exc: SweepError) -> None:
    assert "backend mismatch" in str(exc)
    assert '{"cyclic": 5}' in str(exc)
    assert '{"free": ["x", "y", "phi_' in str(exc)


def test_run_scheme_reports_a_backend_mismatch_on_a_merge(symbolic_connection, scheme1):
    assert scheme1.steps[0].move == "alpha_merge"
    with pytest.raises(SweepError) as info:
        ts.run_scheme(z5_section(scheme1.start_path), scheme1, symbolic_connection)
    assert info.value.step_index == 0
    assert_names_both_groups(info.value)


def test_run_scheme_reports_a_backend_mismatch_on_an_expansion(symbolic_connection):
    path = ts.EdgePath((("a", "b"),))
    scheme = ts.SweepScheme(path, (ts.HomotopyStep("alpha_expand", 0, ("a", "c", "b")),))
    with pytest.raises(SweepError) as info:
        ts.run_scheme(z5_section(path), scheme, symbolic_connection)
    assert info.value.step_index == 0
    assert_names_both_groups(info.value)


def test_section_moves_report_a_backend_mismatch(symbolic_connection):
    merge = ts.HomotopyStep("alpha_merge", 0, ("a", "c", "b"))
    expand = ts.HomotopyStep("alpha_expand", 0, ("a", "c", "b"))
    with pytest.raises(SweepError) as info:
        ts.apply_move_section(z5_section(ts.EdgePath.from_vertices("a", "c", "b")), merge, symbolic_connection)
    assert_names_both_groups(info.value)
    with pytest.raises(SweepError) as info:
        ts.apply_move_section(z5_section(ts.EdgePath.from_vertices("a", "b")), expand, symbolic_connection)
    assert_names_both_groups(info.value)


def test_a_cell_value_outside_the_connection_group_is_refused(tetra):
    # the constructor checks the values as build does, so no move meets a foreign cell value
    base = ts.Connection1.constant(S3, tetra, ts.identity(S3))
    for cells in (((("a", "c", "b"), ts.identity(Z5)),), {("a", "c", "b"): "junk"}):
        for make in (ts.Connection2, ts.Connection2.build):
            with pytest.raises(SweepError) as info:
                make(base, cells)
            assert str(info.value) == "backend mismatch at cell a.c.b"


def test_values_built_trusted_are_what_the_checked_constructors_make_of_their_fields(tetra):
    # each trusted builder skips a check that the constructor makes: a damaged field is refused
    rng = random.Random(23)
    empty = ts.SimplicialComplex(frozenset(), frozenset(), frozenset())
    for group, K in ((S3, tetra), (Z5, torus_complex(3)), (FREE, band_complex(3)), (S4, empty)):
        base = ts.Connection1.constant(group, K, random_element(group, rng))
        assert ts.Connection1(base.group, base.complex, base._map) == base
        flat = ts.Connection2.flat(group, K)
        assert ts.Connection2(flat.base, flat._alpha, flat._beta) == flat
        if K.vertices:
            with pytest.raises(BundleError):
                ts.Connection1(base.group, base.complex, base._map | {K.sorted_edges[0]: 5})
            with pytest.raises(SweepError):
                ts.Connection2(flat.base, flat._alpha | {next(K.markings()): ts.identity(Z3xS3)}, flat._beta)
        if group is not FREE:
            f = random_connection1(K, group, rng)
            found = ts.find_isomorphism(f, ts.gauge_transform(f, random_gauge(K, group, rng)) if K.vertices else f)
            assert ts.GaugeTransform(found.group, found.values) == found
            with pytest.raises(BundleError):
                ts.GaugeTransform(found.group, found.values + (("x", ts.identity(Z3xS3)),))


def test_trace_to_json_formats_every_section_like_section_to_json():
    K = band_complex(6)
    rng = random.Random(17)
    conn = random_connection2(K, FREE, rng)
    start_path = random_walk(K, rng, 4)
    scheme = random_scheme(K, start_path, rng, 40)
    start = ts.Section(start_path, tuple(random_element(FREE, rng, 3) for _ in start_path.steps))
    trace = ts.run_scheme(start, scheme, conn)
    expected = [ts.sweep.section_to_json(s) for s in trace.sections]
    assert ts.sweep.trace_to_json(trace) == expected
    # equal letters that are distinct objects format alike
    twin = ts.Section(start_path, tuple(ts.element(FREE, l.payload) for l in start.letters))
    retraced = ts.SweepTrace(scheme, (twin,) + trace.sections[1:])
    assert ts.sweep.trace_to_json(retraced) == [ts.sweep.section_to_json(s) for s in retraced.sections] == expected


# -- recorded traces ------------------------------------------------------------

def scheme_of_every_kind(K: ts.SimplicialComplex, rng: random.Random, moves: int) -> ts.SweepScheme:
    """A random valid scheme that starts by cancelling a backtrack down to an
    identity path and ends by dropping a degenerate step at the end of the
    path, whose letter folds into the preceding one."""
    a = rng.choice(K.sorted_vertices)
    b = rng.choice(K.neighbors(a))
    start = ts.EdgePath(((a, b), (b, a)))
    cancel = ts.HomotopyStep("x1_cancel", 0)
    middle = random_scheme(K, ts.apply_move_path(start, cancel, K), rng, moves)
    end = len(ts.validate_scheme(middle, K)[-1])
    last = (ts.HomotopyStep("deg_insert", end), ts.HomotopyStep("deg_drop", end))
    return ts.SweepScheme(start, (cancel,) + middle.steps + last)


def folded(letters: tuple, position: int, width: int) -> tuple:
    """The letters after a drop of ``width`` steps at ``position``: their
    product folds into the following letter, else into the preceding one."""
    lo, hi = position, position + width
    if hi < len(letters):
        hi += 1
    elif lo:
        lo -= 1
    return letters[:lo] + (product_of_letters(letters[lo:hi]),) + letters[hi:]


@pytest.mark.parametrize(
    "surface, group", [("band", FREE), ("band", S3), ("torus", D4)], ids=["band-free", "band-S3", "torus-D4"]
)
def test_a_recorded_trace_is_the_sections_of_step_by_step_moves(surface, group):
    K = band_complex(6) if surface == "band" else torus_complex(4)
    kinds = set()
    for seed in range(6):
        rng = random.Random(f"recorded-{surface}-{group.kind}-{seed}")
        conn = random_connection2(K, group, rng)
        scheme = scheme_of_every_kind(K, rng, 30)
        kinds.update(step.move for step in scheme.steps)
        start = ts.Section(scheme.start_path, tuple(random_element(group, rng, 3) for _ in scheme.start_path.steps))
        expected = [start]
        for step in scheme.steps:
            expected.append(ts.apply_move_section(expected[-1], step, conn))
            if step.move in ("x1_cancel", "deg_drop"):
                assert expected[-1].letters == folded(expected[-2].letters, step.position, MOVES[step.move])
        assert expected[1].path.is_identity()

        trace = ts.run_scheme(start, scheme, conn)
        # final and the JSON come from the moves, without building the sections
        assert trace.final == expected[-1]
        as_json = ts.sweep.trace_to_json(trace)
        assert "sections" not in vars(trace)
        by_section = [ts.sweep.section_to_json(s) for s in expected]
        assert as_json == by_section
        assert json.dumps(as_json, sort_keys=True) == json.dumps(by_section, sort_keys=True)

        built = ts.SweepTrace(scheme, tuple(expected))
        assert trace == built and hash(trace) == hash(built) and repr(trace) == repr(built)
        assert trace.sections == tuple(expected)
        assert pickle.loads(pickle.dumps(trace)) == built
        assert pickle.dumps(trace) == pickle.dumps(ts.SweepTrace(scheme, trace.sections))
        assert ts.sweep.trace_to_json(built) == by_section
    assert kinds == set(MOVES)


def test_a_recorded_trace_equals_one_built_from_its_sections_before_either_is_read(scheme1, symbolic_connection):
    x, y = (ts.parse_element(t, symbolic_connection.group) for t in ("x", "y"))
    start = ts.Section(scheme1.start_path, (x, y))
    first, second = (ts.run_scheme(start, scheme1, symbolic_connection) for _ in range(2))
    assert first == second and hash(first) == hash(second)
    assert ts.SweepTrace(sections=second.sections, scheme=scheme1) == first
    empty = ts.run_scheme(start, ts.SweepScheme(scheme1.start_path, ()), symbolic_connection)
    assert empty.final == start and empty.sections == (start,)
    assert ts.sweep.trace_to_json(empty) == [ts.sweep.section_to_json(start)]


def test_a_trace_with_no_sections_is_refused(scheme1):
    with pytest.raises(SweepError, match="a trace needs at least one section"):
        ts.SweepTrace(scheme1, ())


def test_a_trace_of_sections_in_two_backends_is_refused():
    # a trace formats every letter by one backend's rules: those of its first section
    path = ts.EdgePath.from_vertices("a", "b")
    z5, s3 = ts.Section(path, (ts.element(Z5, 1),)), ts.Section(path, (ts.parse_element("(1 2)", S3),))
    with pytest.raises(SweepError) as info:
        ts.SweepTrace(ts.SweepScheme(path, ()), (z5, s3))
    assert str(info.value) == "trace sections must share one backend"


def test_paths_and_sections_keep_their_sequences_as_tuples():
    x = ts.element(Z5, 1)
    steps, letters = [["a", "b"]], [x]
    path = ts.EdgePath(steps)
    section = ts.Section(path, letters)
    # what the caller does to its lists afterwards reaches neither value
    steps[0][1] = "z"
    steps.append(["z", "c"])
    letters.append(x)
    assert path.steps == (("a", "b"),) and section.letters == (x,)
    same_path = ts.EdgePath((("a", "b"),))
    same_section = ts.Section(same_path, (x,))
    assert path == same_path and hash(path) == hash(same_path)
    assert section == same_section and hash(section) == hash(same_section)


def test_trace_json_shares_step_lists_between_sections():
    # the result is read-only: a step no move touches is the same list in every section
    K = band_complex(6)
    rng = random.Random(3)
    conn = random_connection2(K, S3, rng)
    start = ts.Section(ts.EdgePath.from_vertices("b0", "b1", "b2"), (ts.identity(S3),) * 2)
    scheme = ts.SweepScheme(start.path, (ts.HomotopyStep("alpha_expand", 1, ("b1", "t2", "b2")),))
    before, after = ts.sweep.trace_to_json(ts.run_scheme(start, scheme, conn))
    assert before["path"][0] is after["path"][0]
    assert before["path"] == [["b0", "b1"], ["b1", "b2"]]
    assert after["path"] == [["b0", "b1"], ["b1", "t2"], ["t2", "b2"]]


def s4_band_sweep(columns: int) -> tuple[ts.Section, ts.SweepScheme, ts.Connection2]:
    """Sweep the bottom ring of an S_4 band over the top ring, column by
    column, and back: 4 moves per column."""
    K = band_complex(columns)
    rng = random.Random(columns)
    conn = random_connection2(K, S4, rng)
    ring = ts.EdgePath(tuple((f"b{c}", f"b{(c + 1) % columns}") for c in range(columns)))
    forward = []
    for c in range(columns):
        d = (c + 1) % columns
        forward += [
            ts.HomotopyStep("alpha_expand", 3 * c, (f"b{c}", f"t{d}", f"b{d}")),
            ts.HomotopyStep("alpha_expand", 3 * c, (f"b{c}", f"t{c}", f"t{d}")),
        ]
    back = [ts.HomotopyStep("alpha_merge", step.position, step.cell) for step in reversed(forward)]
    start = ts.Section(ring, tuple(random_element(S4, rng) for _ in ring.steps))
    return start, ts.SweepScheme(ring, tuple(forward + back)), conn


def final_only_peak(columns: int) -> int:
    """Peak traced memory of a run that reads only the final section."""
    start, scheme, conn = s4_band_sweep(columns)
    assert ts.run_scheme(start, scheme, conn).final == start  # also fills the complex's indexes
    gc.collect()  # a full collection also empties the interpreter's free lists
    tracemalloc.start()
    try:
        ts.run_scheme(start, scheme, conn).final
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_final_only_run_takes_memory_linear_in_its_moves():
    # 640 and 2,560 moves; retaining every section made this about 15x
    small, large = final_only_peak(160), final_only_peak(640)
    assert large < 8 * small


def test_a_schemes_stored_replay_depends_on_neither_the_complex_nor_its_earlier_use():
    # the replay checks the moves against the path only, so a complex that lacks a cell
    # refuses it on every run, and a scheme that was replayed stays the value it was
    K = band_complex(6)
    rng = random.Random(23)
    start_path = random_walk(K, rng, 4)
    scheme = random_scheme(K, start_path, rng, 30)
    start = ts.Section(start_path, tuple(random_element(S3, rng) for _ in start_path.steps))
    conn = random_connection2(K, S3, rng)
    k = next(k for k, step in enumerate(scheme.steps) if step.cell is not None and len(step.cell) > 2)
    lost = set(scheme.steps[k].cell)
    lacking = ts.SimplicialComplex.build(K.vertices, [t for t in K.sorted_triangles if set(t) != lost], K.sorted_edges)
    first_unsupported = next(j for j, step in enumerate(scheme.steps) if step.cell and not lacking.supports(step.cell))
    other = random_connection2(lacking, S3, rng)

    trace = ts.run_scheme(start, scheme, conn)
    errors = []
    for copy in (scheme, ts.SweepScheme(scheme.start_path, scheme.steps)):
        with pytest.raises(SweepError) as on_run:
            ts.run_scheme(start, copy, other)
        with pytest.raises(ts.SchemeError) as on_paths:
            ts.validate_scheme(copy, lacking)
        errors.append([(str(e.value), e.value.step_index) for e in (on_run, on_paths)])
    assert errors[0] == errors[1]
    assert "cell not supported" in errors[0][0][0] and errors[0][0][1] == errors[0][1][1] == first_unsupported

    fresh = ts.SweepScheme(scheme.start_path, scheme.steps)
    assert scheme == fresh and hash(scheme) == hash(fresh) and repr(scheme) == repr(fresh)
    assert pickle.dumps(scheme) == pickle.dumps(fresh)
    back = pickle.loads(pickle.dumps(scheme))
    assert back == scheme and ts.run_scheme(start, back, conn) == trace
    assert ts.run_scheme(start, scheme, conn) == trace and list(ts.validate_scheme(back, K)) == [s.path for s in trace.sections]
