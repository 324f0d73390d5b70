from __future__ import annotations

import itertools
import json
import random
import sys

import pytest

import trisweep as ts
from trisweep.errors import ComplexError, quote


def test_load_tetrahedron(tetra):
    assert len(tetra.edges) == 6
    assert len(tetra.triangles) == 4
    assert tetra.vertices == frozenset("abcd")
    assert tetra.pure_dim2


def test_load_single_vertex():
    K = ts.load_complex('{"vertices": ["a"]}')
    assert K.vertices == frozenset("a")
    assert len(K.edges) == 0


def test_load_derives_triangle_faces():
    K = ts.load_complex('{"vertices": ["a","b","c"], "triangles": [["a","b","c"]]}')
    assert K.edges == frozenset({frozenset("ab"), frozenset("ac"), frozenset("bc")})


@pytest.mark.parametrize("triangle", [("a", "a", "b"), ("a", "b", "b"), ("a", "b"), ("a", "b", "c", "d")])
def test_build_refuses_a_triangle_without_three_distinct_vertices(triangle):
    with pytest.raises(ComplexError) as info:
        ts.SimplicialComplex.build({"a", "b", "c", "d"}, [triangle])
    assert str(info.value) == f"bad triangle {triangle!r}: need three distinct vertices"


@pytest.mark.parametrize("edge", [("a", "a"), ("a",), ("a", "b", "c")])
def test_build_refuses_an_edge_without_two_distinct_vertices(edge):
    with pytest.raises(ComplexError) as info:
        ts.SimplicialComplex.build({"a", "b", "c"}, [("a", "b", "c")], [edge])
    assert str(info.value) == f"bad edge {edge!r}: need two distinct vertices"


@pytest.mark.parametrize(
    "vertices, triangles, edges",
    [("abc", [(["a"], "b", "c")], []), ("abc", [3], []), ("abc", [], [(["a"], "b")]), ([["a"]], [], [])],
    ids=["list-in-triangle", "int-triangle", "list-in-edge", "list-vertex"],
)
def test_build_refuses_a_simplex_that_is_not_a_sequence_of_hashable_vertices(vertices, triangles, edges):
    with pytest.raises(ComplexError, match="^bad simplicial data: "):
        ts.SimplicialComplex.build(vertices, triangles, edges)


@pytest.mark.parametrize(
    "key, entry, refusal",
    [
        ("triangles", ["a", "a", "b"], "bad triangle ['a', 'a', 'b']: need three distinct vertices"),
        ("edges", ["a", "a"], "bad edge ['a', 'a']: need two distinct vertices"),
        ("triangles", ["a", "b", "z"], "closure violation: triangle ['a', 'b', 'z'] references undeclared vertex 'z'"),
        ("edges", ["a", "z"], "closure violation: edge ['a', 'z'] references undeclared vertex 'z'"),
        # for "vertices" the entry is the whole vertex list
        ("vertices", ["a", "b c"], "bad vertex name 'b c': must be nonempty without whitespace"),
        ("vertices", ["a", "b", "a"], "duplicate vertex 'a'"),
    ],
)
def test_load_complex_quotes_a_bounded_prefix_of_a_bad_entry(key, entry, refusal):
    def refusal_of(entry):
        doc = {key: entry} if key == "vertices" else {"vertices": ["a", "b", "c"], key: [entry]}
        with pytest.raises(ComplexError) as info:
            ts.load_complex(json.dumps(doc))
        return str(info.value)

    assert refusal_of(entry) == refusal  # a short entry is quoted whole
    if key == "vertices":  # each name 5,000 times over: still the same fault
        long_entry = [v * 5000 for v in entry]
    else:
        long_entry = [f"v{i}" for i in range(3004)] if entry[-1] != "z" else entry[:-1] + ["z" * 15000]
    refused = refusal_of(long_entry)
    assert refused.startswith(refusal.split("[")[0].split("'")[0]) and len(refused) <= 200


def test_load_parse_error_has_line_and_column():
    with pytest.raises(ComplexError) as err:
        ts.load_complex('{"vertices": [}')
    assert err.value.line == 1
    assert err.value.column is not None
    assert "parse error" in str(err.value)


def test_load_rejects_duplicate_vertex():
    with pytest.raises(ComplexError, match="duplicate vertex"):
        ts.load_complex('{"vertices": ["a", "a"]}')


def test_load_rejects_closure_violation():
    with pytest.raises(ComplexError, match="closure violation"):
        ts.load_complex('{"vertices": ["a","b"], "triangles": [["a","b","c"]]}')


def test_load_rejects_unknown_keys():
    with pytest.raises(ComplexError, match="unknown keys"):
        ts.load_complex('{"vertices": [], "extra": 1}')


def test_load_rejects_whitespace_vertex():
    with pytest.raises(ComplexError, match="bad vertex name"):
        ts.load_complex('{"vertices": ["a b"]}')


def vertex_refusal(vertices: list) -> str:
    with pytest.raises(ComplexError) as info:
        ts.load_complex(json.dumps({"vertices": vertices}))
    return str(info.value)


def test_a_vertex_name_is_refused_for_exactly_the_characters_isspace_accepts():
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert len(spaces) > 20  # the ASCII ones and the Unicode separators
    for ch in spaces:
        name = f"a{ch}b"
        assert vertex_refusal([name]) == f"bad vertex name {quote(name)}: must be nonempty without whitespace"
    assert vertex_refusal([""]) == "bad vertex name '': must be nonempty without whitespace"
    good = [f"v{i}" for i in range(256)]
    assert vertex_refusal(good + ["x\u2029y"]) == "bad vertex name 'x\\u2029y': must be nonempty without whitespace"
    # ">" separates the vertices of a connection file's edge key
    separator = "bad vertex name 'a>b': holds the edge key separator '>'"
    assert vertex_refusal(["a>b", "c", "d"]) == vertex_refusal(good + ["a>b"]) == separator
    # every other code point but the surrogates, which JSON escapes pair up, is accepted, in names of 4,096
    others = "".join(chr(c) for c in range(sys.maxunicode + 1) if not (chr(c).isspace() or chr(c) == ">" or 0xD800 <= c <= 0xDFFF))
    names = [others[i : i + 4096] for i in range(0, len(others), 4096)]
    assert ts.load_complex(json.dumps({"vertices": names})).vertices == frozenset(names)


def test_validate_tetrahedron_clean(tetra):
    assert ts.validate_complex(tetra, require_pure_dim2=True) == []


def test_validate_isolated_vertex():
    K = ts.SimplicialComplex.build("abcx", [("a", "b", "c")])
    diags = ts.validate_complex(K, require_pure_dim2=True)
    assert len(diags) == 1
    assert diags[0].rule == "pure_dim2"
    assert "vertex x not in any 2-simplex" in diags[0].message


def test_a_diagnostic_prints_as_its_message():
    (diag,) = ts.validate_complex(ts.SimplicialComplex.build("abcx", [("a", "b", "c")]), require_pure_dim2=True)
    assert str(diag) == diag.message == "vertex x not in any 2-simplex"


def test_validate_undeclared_triangle_vertex():
    K = ts.SimplicialComplex.build("ab", [("a", "b", "c")])
    diags = ts.validate_complex(K)
    assert any(d.rule == "closure" and "undeclared vertex c" in d.message for d in diags)


def test_validate_dangling_edge_under_pure_dim2():
    K = ts.SimplicialComplex.build("abcd", [("a", "b", "c")], edges=[("a", "d")])
    diags = ts.validate_complex(K, require_pure_dim2=True)
    assert any("not in any 2-simplex" in d.message for d in diags)


ABC = ts.SimplicialComplex.build("abc", [("a", "b", "c")])

# raw-constructor fields over ABC with a simplex of the wrong size, and the constructor's refusal: the
# first wrong-size simplex in sorted order, triangles before edges
WRONG_SIZES = {
    "one-vertex edge": ((ABC.vertices, ABC.triangles, ABC.edges | {frozenset("a")}), "edge {a} needs two distinct vertices"),
    "one undeclared vertex edge": ((ABC.vertices, ABC.triangles, ABC.edges | {frozenset("z")}), "edge {z} needs two distinct vertices"),
    "three-vertex edge": ((ABC.vertices, ABC.triangles, ABC.edges | {frozenset("abc")}), "edge {a,b,c} needs two distinct vertices"),
    "two-vertex triangle": ((ABC.vertices, ABC.triangles | {frozenset("ab")}, ABC.edges), "triangle {a,b} needs three distinct vertices"),
    "four-vertex triangle": (
        (ABC.vertices | {"d"}, ABC.triangles | {frozenset("abcd")}, ABC.edges),
        "triangle {a,b,c,d} needs three distinct vertices",
    ),
    "two one-vertex edges": ((ABC.vertices, ABC.triangles, ABC.edges | {frozenset("b"), frozenset("a")}), "edge {a} needs two distinct vertices"),
}


@pytest.mark.parametrize("pure", [False, True], ids=["plain", "pure"])
@pytest.mark.parametrize("case", sorted(WRONG_SIZES))
def test_validate_reports_a_simplex_of_the_wrong_size(case, pure):
    # the constructor refuses the fields, so validate_complex never meets the simplex, under either rule set
    fields, refusal = WRONG_SIZES[case]
    with pytest.raises(ComplexError) as info:
        ts.validate_complex(ts.SimplicialComplex(*fields), require_pure_dim2=pure)
    assert str(info.value) == refusal


def test_validate_runs_the_other_rules_beside_a_simplex_of_the_wrong_size():
    vertices, edges = ABC.vertices | {"x"}, ABC.edges | {frozenset("bx")}
    with pytest.raises(ComplexError) as info:
        ts.SimplicialComplex(vertices, ABC.triangles | {frozenset("ab")}, edges | {frozenset("a")})
    assert str(info.value) == "triangle {a,b} needs three distinct vertices"
    # without the wrong-size simplices, the other rules find what they found beside them
    assert ts.validate_complex(ts.SimplicialComplex(vertices, ABC.triangles, edges), require_pure_dim2=True) == [
        ts.Diagnostic("pure_dim2", "x", "vertex x not in any 2-simplex"),
        ts.Diagnostic("pure_dim2", "{b,x}", "edge {b,x} not in any 2-simplex"),
    ]


ONE_VERTEX_EDGE = (frozenset("ab"), frozenset(), frozenset({frozenset("a"), frozenset("ab")}))


@pytest.mark.parametrize(
    "read, expected",
    [
        (lambda K: ts.Connection1.constant(ts.cyclic_group(2), K, ts.identity(ts.cyclic_group(2))).edge_values, ((("a", "b"), ts.identity(ts.cyclic_group(2))),)),
        (lambda K: K.is_connected(), True),
        (lambda K: K.neighbors("a"), ("b",)),
    ],
    ids=["constant", "is_connected", "neighbors"],
)
def test_an_edge_without_two_vertices_is_refused_where_edges_are_read_as_pairs(read, expected):
    # the constructor refuses the one-vertex edge before any reader can meet it
    with pytest.raises(ComplexError) as info:
        read(ts.SimplicialComplex(*ONE_VERTEX_EDGE))
    assert str(info.value) == "edge {a} needs two distinct vertices"
    # the reader reads the two-vertex edge that is left as a pair
    vertices, triangles, edges = ONE_VERTEX_EDGE
    assert read(ts.SimplicialComplex(vertices, triangles, edges - {frozenset("a")})) == expected


def test_alpha_count_on_tetrahedron(tetra):
    # oracle: exhaustive enumeration of oriented markings over the four faces
    expected = set()
    for tri in tetra.sorted_triangles:
        for src, apex, tgt in itertools.permutations(tri):
            expected.add((src, apex, tgt))
    cells = list(tetra.markings())
    assert len(cells) == 24
    assert set(cells) == expected


def test_enumeration_counts_random_complexes():
    rng = random.Random(7)
    letters = "pqrstuvw"
    for _ in range(20):
        n_faces = rng.randrange(1, 11)
        faces = set()
        while len(faces) < n_faces:
            faces.add(frozenset(rng.sample(letters, 3)))
        K = ts.SimplicialComplex.build(letters, faces)
        assert len(list(K.markings())) == 6 * len(K.triangles)


def test_dump_complex_round_trips(tetra):
    again = ts.load_complex(ts.dump_complex(tetra))
    assert again == tetra


# -- the incidence index against the triangle scans it replaced ----------------------

def scan_faces_containing(K: ts.SimplicialComplex, v: str) -> tuple[frozenset[str], ...]:
    return tuple(t for t in map(frozenset, K.sorted_triangles) if v in t)


def scan_faces_containing_edge(K: ts.SimplicialComplex, a: str, b: str) -> tuple[frozenset[str], ...]:
    e = frozenset((a, b))
    return tuple(t for t in map(frozenset, K.sorted_triangles) if e <= t)


def scan_validate_complex(K: ts.SimplicialComplex, require_pure_dim2: bool = False) -> list:
    """validate_complex as it was before the index: every query a scan."""
    out = []
    for t in K.sorted_triangles:
        for v in t:
            if v not in K.vertices:
                out.append(("closure", "{%s}" % ",".join(t), f"triangle {{{','.join(t)}}} references undeclared vertex {v}"))
        a, b, c = t
        for pair in ((a, b), (a, c), (b, c)):
            if frozenset(pair) not in K.edges:
                out.append(("closure", "{%s}" % ",".join(pair), f"edge {{{','.join(pair)}}} of triangle {{{','.join(t)}}} is missing"))
    for e in K.sorted_edges:
        for v in e:
            if v not in K.vertices:
                out.append(("closure", "{%s}" % ",".join(e), f"edge {{{','.join(e)}}} references undeclared vertex {v}"))
    if require_pure_dim2 or K.pure_dim2:
        in_some_face = {v for t in K.triangles for v in t}
        for v in K.sorted_vertices:
            if v not in in_some_face:
                out.append(("pure_dim2", v, f"vertex {v} not in any 2-simplex"))
        for e in K.sorted_edges:
            if not scan_faces_containing_edge(K, *e):
                out.append(("pure_dim2", "{%s}" % ",".join(e), f"edge {{{','.join(e)}}} not in any 2-simplex"))
    return out


def index_test_complexes() -> list[ts.SimplicialComplex]:
    from conftest import torus_complex

    rng = random.Random(2024)
    out = [ts.load_complex(ts.data_path("tetrahedron.json").read_text()), ts.SimplicialComplex.build([])]
    for n in (3, 4, 5, 6):
        torus = torus_complex(n)
        kept = [t for t in torus.sorted_triangles if rng.random() > 0.3]
        extra_vertices = [f"iso{k}" for k in range(rng.randrange(1, 4))]
        vertices = sorted(torus.vertices) + extra_vertices
        # declared edges that lie in no face: among kept vertices and to isolated ones
        edges = [tuple(rng.sample(vertices, 2)) for _ in range(rng.randrange(1, 6))]
        out.append(ts.SimplicialComplex.build(vertices, kept, edges))
        # the same faces with some of their vertices left undeclared
        dropped = set(rng.sample(sorted(torus.vertices), 2))
        out.append(ts.SimplicialComplex.build(set(vertices) - dropped, kept, edges, pure_dim2=True))
        # the raw constructor derives nothing: some sides of the faces are missing
        some_edges = rng.sample(sorted(torus.edges, key=sorted), len(torus.edges) // 2)
        out.append(ts.SimplicialComplex(torus.vertices, frozenset(map(frozenset, kept)), frozenset(some_edges)))
    # a cone: the apex lies in 40 faces, so an edge query filters a long face list; one declared edge lies in no face
    rim = [f"r{k:02d}" for k in range(40)]
    fan = [("apex", rim[k], rim[k - 1]) for k in range(40)]
    out.append(ts.SimplicialComplex.build(["apex", *rim], fan, [("r00", "r20")]))
    return out


@pytest.mark.parametrize("K", index_test_complexes(), ids=lambda K: f"{len(K.vertices)}v{len(K.triangles)}t")
def test_incidence_index_matches_the_triangle_scans(K):
    names = sorted(K.vertices | {v for t in K.triangles for v in t}) + ["absent"]
    for v in names:
        assert K.faces_containing(v) == scan_faces_containing(K, v)
    # a name that does not compare with the others: no query may order the caller's names
    for a, b in itertools.product(names + [1], repeat=2):
        assert K.has_edge(a, b) == (frozenset((a, b)) in K.edges)
        assert K.faces_containing_edge(a, b) == scan_faces_containing_edge(K, a, b)
    for pure in (False, True):
        got = [(d.rule, d.simplex, d.message) for d in ts.validate_complex(K, require_pure_dim2=pure)]
        assert got == scan_validate_complex(K, require_pure_dim2=pure)
