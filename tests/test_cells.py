"""Oriented cells, built from the two cell sides that a move swaps."""

from __future__ import annotations

import pytest

import trisweep as ts
from trisweep.paths import cell_sides

ABC = ts.SimplicialComplex.build("abc", [("a", "b", "c")])
LOOP = ts.EdgePath.from_vertices("c", "a", "b", "c")


def test_cell_sides_of_a_triangle_and_a_loop():
    assert cell_sides(("a", "c", "b")) == ((("a", "b"),), (("a", "c"), ("c", "b")))
    assert cell_sides(("c", "a", "b", "c")) == ((("c", "c"),), (("c", "a"), ("a", "b"), ("b", "c")))


@pytest.mark.parametrize(
    "kind, first",
    [
        ("alpha", "b.a.c"),
        ("alpha_star", "b.a.c*"),
        ("beta", "a.b.c.a"),
        ("beta_star", "a.b.c.a*"),
        ("identity_edge", "id.a.b"),
        ("identity_vertex", "id.a"),
    ],
)
def test_one_cell_of_each_kind_is_named(kind, first):
    assert ts.oriented_triangles(ABC, kind)[0].name == first


def test_a_classified_starred_loop_cell_is_named():
    cell = ts.classify_cell(LOOP, ts.EdgePath.identity("c"), ABC)
    assert cell.kind == "beta_star"
    assert cell.name == "c.a.b.c*"
    assert cell.source_path == LOOP and cell.target_path.is_identity()


def test_a_three_step_side_that_does_not_close_is_not_a_cell(tetra):
    # the shorter side is one step, not the identity, so no loop cell expands it
    assert ts.classify_cell(ts.EdgePath((("a", "b"),)), ts.EdgePath.from_vertices("a", "c", "d", "b"), tetra) is None
