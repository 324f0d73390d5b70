from __future__ import annotations

import collections
import random

import pytest

import trisweep as ts
from conftest import random_connection1, random_element, random_gauge, random_walk, torus_complex, tree_propagation_search
from trisweep.errors import BundleError

Z12 = ts.cyclic_group(12)
S3 = ts.symmetric_group(3)


def z12_example_connection(tetra) -> ts.Connection1:
    values = {("a", "b"): 3, ("b", "d"): 4, ("d", "a"): 7, ("a", "c"): 0, ("b", "c"): 0, ("c", "d"): 0}
    return ts.Connection1.build(
        Z12, tetra, {k: ts.element(Z12, v) for k, v in values.items()}
    )


def test_holonomy_degenerate_loop(tetra):
    conn = z12_example_connection(tetra)
    assert ts.holonomy(conn, ts.EdgePath.identity("a")) == ts.identity(Z12)


def test_holonomy_modular_example(tetra):
    conn = z12_example_connection(tetra)
    loop = ts.EdgePath((("a", "b"), ("b", "d"), ("d", "a")))
    # oracle: plain modular addition of the three edge values
    assert (3 + 4 + 7) % 12 == 2
    assert ts.holonomy(conn, loop) == ts.element(Z12, 2)


def test_holonomy_of_backtracking_loop(tetra):
    rng = random.Random(3)
    for group in (Z12, S3):
        for _ in range(100):
            conn = random_connection1(tetra, group, rng)
            p = random_walk(tetra, rng, rng.randrange(1, 6), stay_prob=0.1)
            loop = p * ts.invert_path(p)
            assert ts.holonomy(conn, loop) == ts.identity(group)


def test_holonomy_functoriality(tetra):
    rng = random.Random(5)
    for _ in range(200):
        conn = random_connection1(tetra, S3, rng)
        p = random_walk(tetra, rng, rng.randrange(1, 6))
        q = random_walk(tetra, rng, rng.randrange(1, 6), start=p.target)
        assert ts.holonomy(conn, p * q) == ts.multiply(
            ts.holonomy(conn, p), ts.holonomy(conn, q)
        )


def test_holonomy_x1_invariance(tetra):
    rng = random.Random(7)
    for _ in range(200):
        conn = random_connection1(tetra, Z12, rng)
        p = random_walk(tetra, rng, rng.randrange(1, 8), stay_prob=0.2)
        assert ts.holonomy(conn, p) == ts.holonomy(conn, ts.reduce_x1(p))


def test_holonomy_rejects_non_edges(tetra):
    conn = z12_example_connection(tetra)
    with pytest.raises(BundleError, match="not an edge"):
        ts.holonomy(conn, ts.EdgePath((("a", "z"),)))


def test_partial_connection_rejected(tetra):
    with pytest.raises(BundleError, match="partial"):
        ts.Connection1.build(Z12, tetra, {("a", "b"): ts.identity(Z12)})


@pytest.mark.parametrize("key", [("a", "b"), ("b", "a")], ids=["sorted", "reversed"])
def test_connection1_build_refuses_a_value_that_is_not_a_group_element(tetra, key):
    values = {e: ts.identity(Z12) for e in tetra.sorted_edges if e != ("a", "b")}
    values[key] = 3
    with pytest.raises(BundleError) as info:
        ts.Connection1.build(Z12, tetra, values)
    assert str(info.value) == f"backend mismatch at edge ({key[0]},{key[1]})"


@pytest.mark.parametrize("key", [("a", "b", "c"), 1, ("a",), "ab"])
def test_connection1_build_refuses_a_key_that_is_not_a_pair_of_vertices(tetra, key):
    values = {e: ts.identity(Z12) for e in tetra.sorted_edges}
    values[key] = ts.identity(Z12)
    with pytest.raises(BundleError) as info:
        ts.Connection1.build(Z12, tetra, values)
    assert str(info.value) == f"edge key {key!r} is not a pair of vertices"


def test_connection1_build_refuses_a_key_whose_vertices_do_not_compare(tetra):
    values = {e: ts.identity(Z12) for e in tetra.sorted_edges}
    values[("a", 1)] = ts.identity(Z12)
    with pytest.raises(BundleError) as info:
        ts.Connection1.build(Z12, tetra, values)
    assert str(info.value) == "(a,1) is not an edge of the complex"


def test_connection1_value_refuses_a_pair_whose_vertices_do_not_compare(tetra):
    conn = ts.Connection1.constant(ts.cyclic_group(3), tetra, ts.element(ts.cyclic_group(3), 1))
    for a, b in (("a", 1), (1, "a")):
        with pytest.raises(BundleError) as info:
            conn.value(a, b)
        assert str(info.value) == f"({a},{b}) is not an edge of the complex"
    with pytest.raises(BundleError) as info:
        ts.holonomy(conn, ts.EdgePath((("a", 1), (1, "a"))))
    assert str(info.value) == "(a,1) is not an edge of the complex"


def test_connection1_build_refuses_keys_of_a_tuple_subclass(tetra):
    Pair = collections.namedtuple("Pair", "source target")
    values = {Pair(*e): ts.identity(Z12) for e in tetra.sorted_edges}
    with pytest.raises(BundleError) as info:
        ts.Connection1.build(Z12, tetra, values)
    assert str(info.value) == f"edge key {Pair('a', 'b')!r} is not a pair of vertices"


def test_duplicate_edge_assignment_rejected(tetra):
    values = {e: ts.identity(Z12) for e in tetra.sorted_edges}
    values[("b", "a")] = ts.element(Z12, 5)
    with pytest.raises(BundleError, match="assigned twice"):
        ts.Connection1.build(Z12, tetra, values)


def test_reversed_orientation_is_inverse(tetra):
    conn = z12_example_connection(tetra)
    assert conn.value("b", "a") == ts.inverse(conn.value("a", "b"))
    p = ts.EdgePath((("a", "b"), ("b", "d")))
    assert ts.holonomy(conn, ts.invert_path(p)) == ts.inverse(ts.holonomy(conn, p))


# -- gauge transformations ---------------------------------------------------

def test_identity_gauge_is_neutral(tetra):
    rng = random.Random(11)
    conn = random_connection1(tetra, S3, rng)
    n = ts.GaugeTransform.build(S3, {v: ts.identity(S3) for v in tetra.sorted_vertices})
    assert ts.gauge_transform(conn, n) == conn


def test_gauge_conjugates_loop_holonomy(tetra):
    rng = random.Random(13)
    for _ in range(200):
        conn = random_connection1(tetra, S3, rng)
        n = random_gauge(tetra, S3, rng)
        a = rng.choice(tetra.sorted_vertices)
        walk = random_walk(tetra, rng, rng.randrange(1, 6), start=a)
        loop = walk if walk.target == a else walk * ts.EdgePath(((walk.target, a),))
        after = ts.holonomy(ts.gauge_transform(conn, n), loop)
        # oracle: conjugation at the basepoint, written out directly
        expected = ts.multiply(ts.multiply(ts.inverse(n.get(a)), ts.holonomy(conn, loop)), n.get(a))
        assert after == expected


def test_gauge_composition_is_pointwise_product(tetra):
    rng = random.Random(17)
    for _ in range(100):
        conn = random_connection1(tetra, S3, rng)
        n = random_gauge(tetra, S3, rng)
        m = random_gauge(tetra, S3, rng)
        twice = ts.gauge_transform(ts.gauge_transform(conn, n), m)
        nm = ts.GaugeTransform.build(
            S3, {v: ts.multiply(n.get(v), m.get(v)) for v in tetra.sorted_vertices}
        )
        assert twice == ts.gauge_transform(conn, nm)


def test_gauge_missing_vertex_rejected(tetra):
    conn = z12_example_connection(tetra)
    partial = ts.GaugeTransform.build(Z12, {"a": ts.identity(Z12)})
    with pytest.raises(BundleError, match="missing vertex"):
        ts.gauge_transform(conn, partial)


def test_gauge_build_refuses_a_value_that_is_not_a_group_element():
    with pytest.raises(BundleError) as info:
        ts.GaugeTransform.build(Z12, {"b": ts.identity(Z12), "a": 3})
    assert str(info.value) == "backend mismatch in gauge value at vertex a"


# -- isomorphism search ---------------------------------------------------------

def test_find_isomorphism_recovers_gauged_connection(tetra):
    rng = random.Random(19)
    for _ in range(20):
        f = random_connection1(tetra, S3, rng)
        n = random_gauge(tetra, S3, rng)
        g = ts.gauge_transform(f, n)
        found = ts.find_isomorphism(f, g)
        assert found is not None
        assert ts.gauge_transform(f, found) == g


def test_find_isomorphism_none_for_distinct_holonomy():
    Z2 = ts.cyclic_group(2)
    K = ts.SimplicialComplex.build("abc", [("a", "b", "c")])
    flat = ts.Connection1.constant(Z2, K, ts.identity(Z2))
    twisted = ts.Connection1.build(
        Z2,
        K,
        {("a", "b"): ts.element(Z2, 1), ("a", "c"): ts.identity(Z2), ("b", "c"): ts.identity(Z2)},
    )
    # oracle: in an abelian group the loop holonomy is gauge invariant
    loop = ts.EdgePath((("a", "b"), ("b", "c"), ("c", "a")))
    assert ts.holonomy(flat, loop) != ts.holonomy(twisted, loop)
    assert ts.find_isomorphism(flat, twisted) is None


def test_find_isomorphism_self_gives_identity(tetra):
    rng = random.Random(23)
    f = random_connection1(tetra, S3, rng)
    found = ts.find_isomorphism(f, f)
    assert found is not None
    assert all(g == ts.identity(S3) for _v, g in found.values)


def test_find_isomorphism_rejects_infinite_backend(tetra):
    free = ts.free_group(["x"])
    f = ts.Connection1.constant(free, tetra, ts.identity(free))
    with pytest.raises(BundleError, match="infinite backend"):
        ts.find_isomorphism(f, f)


def test_find_isomorphism_rejects_disconnected():
    Z2 = ts.cyclic_group(2)
    K = ts.SimplicialComplex.build("abcd", edges=[("a", "b"), ("c", "d")])
    f = ts.Connection1.constant(Z2, K, ts.identity(Z2))
    with pytest.raises(BundleError, match="connected"):
        ts.find_isomorphism(f, f)


@pytest.mark.parametrize(
    "group",
    [S3, ts.symmetric_group(4), ts.dihedral_group(4), ts.product_group(ts.cyclic_group(3), S3)],
    ids=["S3", "S4", "D4", "Z3xS3"],
)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_find_isomorphism_matches_tree_propagation(group, n):
    K = torus_complex(n)
    rng = random.Random(f"{ts.descriptor_to_json(group)}-{n}")
    for _ in range(3):
        f = random_connection1(K, group, rng)
        related = ts.gauge_transform(f, random_gauge(K, group, rng))
        values = dict(related.edge_values)
        values[rng.choice(K.sorted_edges)] = random_element(group, rng)
        one_edge_off = ts.Connection1.build(group, K, values)
        unrelated = random_connection1(K, group, rng)
        for g in (related, one_edge_off, unrelated):
            expected = tree_propagation_search(f, g)
            found = ts.find_isomorphism(f, g)
            if expected is None:
                assert found is None
            else:
                assert found is not None
                assert dict(found.values) == expected
        assert ts.find_isomorphism(f, related) is not None


# -- loops ------------------------------------------------------------------------

def test_holonomy_of_the_identity_connection_is_the_identity(tetra):
    flat = ts.Connection1.constant(S3, tetra, ts.identity(S3))
    loop = ts.EdgePath((("a", "b"), ("b", "c"), ("c", "a")))
    assert ts.holonomy(flat, loop) == ts.identity(S3)


def test_holonomy_of_a_rotated_loop_is_conjugate(tetra):
    rng = random.Random(41)
    for _ in range(50):
        conn = random_connection1(tetra, S3, rng)
        loop = ts.EdgePath((("a", "b"), ("b", "c"), ("c", "a")))
        rotated = ts.EdgePath((("b", "c"), ("c", "a"), ("a", "b")))
        # oracle: moving the basepoint from a to b conjugates by the value of a>b
        assert ts.holonomy(conn, rotated) == ts.conjugate(ts.holonomy(conn, loop), conn.value("a", "b"))


# -- file round trips ----------------------------------------------------------

def test_connection_file_without_cells(tetra):
    text = '{"group": {"cyclic": 12}, "edges": {"a>b": "3", "b>d": "4", "d>a": "7", "a>c": "0", "b>c": "0", "c>d": "0"}}'
    conn = ts.load_connection(text, tetra)
    assert isinstance(conn, ts.Connection1)
    loop = ts.EdgePath((("a", "b"), ("b", "d"), ("d", "a")))
    assert ts.holonomy(conn, loop) == ts.element(Z12, 2)


def test_connection_file_partial_rejected(tetra):
    with pytest.raises(BundleError, match="partial"):
        ts.load_connection('{"group": {"cyclic": 2}, "edges": {"a>b": "1"}}', tetra)


def test_connection_file_unknown_key_rejected(tetra):
    with pytest.raises(BundleError, match="unknown keys"):
        ts.load_connection('{"group": {"cyclic": 2}, "edges": {}, "what": 0}', tetra)
