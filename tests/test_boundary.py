"""Sections and paths are validated where they are built and where a move
starts; what a move produces is built unchecked.  These tests hold the
unchecked results to the public constructors' rules."""

from __future__ import annotations

import random

import pytest

import trisweep as ts
from conftest import band_complex, random_connection2, random_element, random_walk, torus_complex
from trisweep.errors import PathError, SweepError
from trisweep.paths import _candidate_moves

FREE = ts.free_group(["x", "y", "z"])
S3 = ts.symmetric_group(3)
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
    with pytest.raises(SweepError) as info:
        ts.alpha_merge(z5_section(ts.EdgePath.from_vertices("a", "c", "b")), ("a", "c", "b"), 0, symbolic_connection)
    assert_names_both_groups(info.value)
    with pytest.raises(SweepError) as info:
        ts.alpha_expand(z5_section(ts.EdgePath.from_vertices("a", "b")), ("a", "c", "b"), 0, symbolic_connection)
    assert_names_both_groups(info.value)


def test_a_cell_value_outside_the_connection_group_is_refused(tetra):
    # Connection2's own constructor does not check its values; build does
    base = ts.Connection1.constant(S3, tetra, ts.identity(S3))
    conn = ts.Connection2(base, ((("a", "c", "b"), ts.identity(Z5)),))
    section = ts.Section(ts.EdgePath.from_vertices("a", "b"), (ts.identity(S3),))
    with pytest.raises(SweepError, match="backend mismatch at cell a.c.b"):
        ts.alpha_expand(section, ("a", "c", "b"), 0, conn)


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
    doubled = ts.SweepTrace(scheme, (start, twin) + trace.sections)
    assert ts.sweep.trace_to_json(doubled) == [ts.sweep.section_to_json(s) for s in doubled.sections]
