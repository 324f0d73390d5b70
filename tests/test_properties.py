"""Property tests: group axioms, element text round trips, record equality,
moves undone by their inverses, the oriented cells of random complexes and
the cell-support rule."""

from __future__ import annotations

import itertools
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

import trisweep as ts  # noqa: E402
from conftest import random_connection2, random_section, random_walk, torus_complex  # noqa: E402
from trisweep.paths import _candidate_moves  # noqa: E402

FREE = ts.free_group(["x", "y"])
Z12 = ts.cyclic_group(12)
S4 = ts.symmetric_group(4)
D5 = ts.dihedral_group(5)
Z3xS3 = ts.product_group(ts.cyclic_group(3), ts.symmetric_group(3))
BACKENDS = {"free": FREE, "cyclic": Z12, "symmetric": S4, "dihedral": D5, "product": Z3xS3}


def elements(group: ts.GroupDescriptor) -> st.SearchStrategy:
    """Elements of one backend, built from raw payloads through ``element``."""
    if group.kind == "free":
        syllable = st.tuples(st.sampled_from(group.generators), st.integers(-3, 3))
        payloads = st.lists(syllable, max_size=6)
    elif group.kind == "cyclic":
        payloads = st.integers(0, group.modulus - 1)
    elif group.kind == "symmetric":
        payloads = st.permutations(range(1, group.degree + 1))
    elif group.kind == "dihedral":
        payloads = st.tuples(st.integers(0, group.modulus - 1), st.integers(0, 1))
    else:
        payloads = st.tuples(*(elements(f) for f in group.factors))
    return payloads.map(lambda p: ts.element(group, p))


@pytest.mark.parametrize("kind", sorted(BACKENDS))
@given(data=st.data())
def test_group_axioms(kind, data):
    group = BACKENDS[kind]
    a, b, c = (data.draw(elements(group)) for _ in range(3))
    e = ts.identity(group)
    assert ts.multiply(ts.multiply(a, b), c) == ts.multiply(a, ts.multiply(b, c))
    assert ts.multiply(e, a) == a == ts.multiply(a, e)
    assert ts.multiply(a, ts.inverse(a)) == e == ts.multiply(ts.inverse(a), a)


@pytest.mark.parametrize("kind", sorted(BACKENDS))
@given(data=st.data())
def test_format_then_parse_is_the_identity(kind, data):
    group = BACKENDS[kind]
    a = data.draw(elements(group))
    assert ts.parse_element(ts.format_element(a), group) == a


# two small groups whose payloads overlap, so that equal payloads in
# different groups come up
SMALL = st.sampled_from([ts.cyclic_group(3), ts.cyclic_group(4)]).flatmap(elements)


@given(SMALL, SMALL)
def test_element_equality_is_field_equality(a, b):
    assert (a == b) == (a.group == b.group and a.payload == b.payload)
    assert (a != b) == (not a == b)
    if a == b:
        assert hash(a) == hash(b)


CHAINS = st.lists(st.sampled_from("abc"), min_size=1, max_size=4).map(lambda vs: ts.EdgePath.from_vertices(*vs))


@given(CHAINS, CHAINS)
def test_path_equality_is_field_equality(p, q):
    assert (p == q) == (p.steps == q.steps)
    if p == q:
        assert hash(p) == hash(q)


TORUS = torus_complex(4)
INVERSE_MOVE = {
    "alpha_expand": "alpha_merge",
    "beta_expand": "beta_merge",
    "x1_insert": "x1_cancel",
    "deg_insert": "deg_drop",
}
INVERSE_MOVE.update({undo: move for move, undo in INVERSE_MOVE.items()})


def inverse_step(path: ts.EdgePath, step: ts.HomotopyStep) -> ts.HomotopyStep:
    """The move that undoes ``step`` on ``path``."""
    move = INVERSE_MOVE[step.move]
    if move == "x1_insert":
        return ts.HomotopyStep(move, step.position, path.steps[step.position])
    return ts.HomotopyStep(move, step.position, None if move in ("x1_cancel", "deg_insert", "deg_drop") else step.cell)


@given(seed=st.integers(0, 2**32 - 1))
def test_a_move_then_its_inverse_is_the_identity_on_paths(seed):
    rng = random.Random(seed)
    path = random_walk(TORUS, rng, rng.randrange(1, 6), stay_prob=0.2)
    for step in _candidate_moves(path, TORUS):
        if step.move == "x1_cancel" and len(path) == 2:
            continue  # a cancellation down to the identity path leaves a degenerate step behind
        moved = ts.apply_move_path(path, step, TORUS)
        assert (moved.source, moved.target) == (path.source, path.target)
        assert ts.apply_move_path(moved, inverse_step(path, step), TORUS) == path


@given(seed=st.integers(0, 2**32 - 1))
def test_an_expansion_or_insertion_then_its_inverse_is_the_identity_on_sections(seed):
    # merges, cancellations and drops multiply letters together, which their
    # inverses cannot split again; expansions and insertions are undone exactly
    rng = random.Random(seed)
    conn = random_connection2(TORUS, S4, rng)
    section = random_section(TORUS, S4, rng, rng.randrange(1, 6), stay_prob=0.2)
    for step in _candidate_moves(section.path, TORUS):
        if step.move.endswith(("expand", "insert")):
            moved = ts.apply_move_section(section, step, conn)
            assert ts.apply_move_section(moved, inverse_step(section.path, step), conn) == section


VERTICES = "pqrstu"
# faces on up to six vertices, plus edges that may lie in no face
COMPLEXES = st.builds(
    lambda faces, edges: ts.SimplicialComplex.build(set(VERTICES), faces, edges),
    st.lists(st.sets(st.sampled_from(VERTICES), min_size=3, max_size=3), max_size=8),
    st.lists(st.sets(st.sampled_from(VERTICES), min_size=2, max_size=2), max_size=3),
)


@given(COMPLEXES)
def test_every_enumerated_cell_is_classified_as_itself(K):
    for cell in ts.oriented_triangles(K):
        assert ts.classify_cell(cell.source_path, cell.target_path, K) == cell


@given(COMPLEXES)
def test_the_expand_move_on_a_cells_short_side_gives_its_long_side(K):
    for cell in ts.oriented_triangles(K):
        if cell.kind.startswith("identity"):
            continue
        star = cell.kind.endswith("_star")
        short, long = (cell.target_path, cell.source_path) if star else (cell.source_path, cell.target_path)
        if cell.kind.startswith("alpha"):
            step = ts.HomotopyStep("alpha_expand", 0, (cell.source, cell.apex, cell.target))
        else:
            assert short.is_identity() and len(long) == 3
            step = ts.HomotopyStep("beta_expand", 0, long.vertices)
        assert ts.apply_move_path(short, step, K) == long


@given(COMPLEXES)
def test_the_flat_connection_has_a_value_on_exactly_the_alpha_cells(K):
    flat = ts.Connection2.flat(ts.cyclic_group(2), K)
    alpha = [(c.source, c.apex, c.target) for c in ts.oriented_triangles(K, "alpha")]
    assert [key for key, _ in flat.alpha_values] == sorted(alpha)


def old_support_rule(K: ts.SimplicialComplex, cell: tuple[str, ...]) -> bool:
    """The cell check as it was written out at each caller before ``supports``."""
    if len(cell) == 2:
        return K.has_edge(*cell)
    return len(set(cell[:3])) == 3 and K.has_face(*cell[:3])


@given(COMPLEXES)
def test_supports_is_the_old_rule_on_every_pair_triple_and_loop(K):
    cells = [*itertools.product(VERTICES, repeat=2), *itertools.product(VERTICES, repeat=3)]
    cells += [(c, a, b, c) for c, a, b in itertools.product(VERTICES, repeat=3)]
    for cell in cells:
        assert K.supports(cell) == old_support_rule(K, cell), cell


def oracle_candidate_moves(path: ts.EdgePath, K: ts.SimplicialComplex):
    """The candidate moves of a path, with the conditions written out before ``supports``."""
    steps, chain, n = path.steps, path.vertices, len(path.steps)
    for i in range(n):
        x, y = steps[i]
        if x == y:
            if n >= 2:
                yield ts.HomotopyStep("deg_drop", i)
            for face in K.faces_containing(x):
                others = sorted(face - {x})
                for a, b in ((others[0], others[1]), (others[1], others[0])):
                    yield ts.HomotopyStep("beta_expand", i, (x, a, b, x))
        else:
            for face in K.faces_containing_edge(x, y):
                (apex,) = face - {x, y}
                yield ts.HomotopyStep("alpha_expand", i, (x, apex, y))
    for i in range(n - 1):
        (x, y), (x2, y2) = steps[i], steps[i + 1]
        if (y2, x2) == (x, y) and x != y:
            yield ts.HomotopyStep("x1_cancel", i)
        if x != y and y == x2 and x != y2 and K.has_face(x, y, y2):
            yield ts.HomotopyStep("alpha_merge", i, (x, y, y2))
    for i in range(n - 2):
        (c, a), (a2, b), (b2, c2) = steps[i], steps[i + 1], steps[i + 2]
        if a == a2 and b == b2 and c == c2 and len({c, a, b}) == 3 and K.has_face(c, a, b):
            yield ts.HomotopyStep("beta_merge", i, (c, a, b, c))
    for k in range(n + 1):
        yield ts.HomotopyStep("deg_insert", k)
        for w in K.neighbors(chain[k]):
            yield ts.HomotopyStep("x1_insert", k, (chain[k], w))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_candidate_moves_match_the_written_out_conditions_in_order(n):
    K = torus_complex(n)
    rng = random.Random(n)
    for _ in range(100):
        path = random_walk(K, rng, rng.randrange(1, 7), stay_prob=0.2)
        if rng.random() < 0.5:  # walk part of the way back, so cancellations apply
            path = path * ts.EdgePath(path.steps[-rng.randrange(1, len(path) + 1) :]).inverse()
        assert list(_candidate_moves(path, K)) == list(oracle_candidate_moves(path, K))
