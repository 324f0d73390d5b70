from __future__ import annotations

import itertools
import json
import random
import warnings

import pytest

import trisweep as ts
from conftest import (
    all_alpha_markings,
    product_of_letters,
    random_connection2,
    random_element,
    random_section,
    torus_complex,
)
from trisweep.errors import BundleError, GroupError, SchemeError, SweepError

Z12 = ts.cyclic_group(12)
S3 = ts.symmetric_group(3)
S4 = ts.symmetric_group(4)
D4 = ts.dihedral_group(4)


def parse(text: str, conn: ts.Connection2) -> ts.GroupElement:
    return ts.parse_element(text, conn.group)


def words(section: ts.Section) -> list[str]:
    return [ts.format_element(l) for l in section.letters]


# the moves across the triangle a.c.b and across the loop c.a.b.c, at position 0
EXPAND_ACB = ts.HomotopyStep("alpha_expand", 0, ("a", "c", "b"))
MERGE_ACB = ts.HomotopyStep("alpha_merge", 0, ("a", "c", "b"))
EXPAND_CABC = ts.HomotopyStep("beta_expand", 0, ("c", "a", "b", "c"))
MERGE_CABC = ts.HomotopyStep("beta_merge", 0, ("c", "a", "b", "c"))


# -- single moves -----------------------------------------------------------------

def test_alpha_merge_generic_word(tetra, symbolic_connection):
    start = ts.Section(
        ts.EdgePath((("a", "c"), ("c", "b"))),
        (parse("x", symbolic_connection), parse("y", symbolic_connection)),
    )
    merged = ts.apply_move_section(start, MERGE_ACB, symbolic_connection)
    assert merged.path == ts.EdgePath((("a", "b"),))
    assert words(merged) == ["x*y*phi_acb^-1"]


def test_alpha_merge_trivial_letters(tetra):
    flat = ts.Connection2.flat(Z12, tetra)
    start = ts.Section(ts.EdgePath((("a", "c"), ("c", "b"))), (ts.identity(Z12),) * 2)
    merged = ts.apply_move_section(start, MERGE_ACB, flat)
    assert merged.letters == (ts.identity(Z12),)


def test_alpha_merge_permutation_oracle(tetra):
    u = ts.parse_element("(1 2)", S3)
    v = ts.parse_element("(2 3)", S3)
    phi = ts.parse_element("(1 2 3)", S3)
    base = ts.Connection1.constant(S3, tetra, ts.identity(S3))
    conn = ts.Connection2.build(base, {m: phi for m in all_alpha_markings(tetra)})
    start = ts.Section(ts.EdgePath((("a", "c"), ("c", "b"))), (u, v))
    merged = ts.apply_move_section(start, MERGE_ACB, conn)
    # oracle: compose the permutations directly
    expected = ts.multiply(ts.multiply(u, v), ts.inverse(phi))
    assert merged.letters == (expected,)
    assert expected == ts.identity(S3)


def test_alpha_expand_golden_lines(tetra, symbolic_connection):
    w = parse("x*y*phi_acb^-1", symbolic_connection)
    s = ts.Section(ts.EdgePath((("a", "b"),)), (w,))
    s = ts.apply_move_section(s, ts.HomotopyStep("alpha_expand", 0, ("a", "d", "b")), symbolic_connection)
    assert words(s) == ["x*y*phi_acb^-1", "phi_adb"]
    s = ts.apply_move_section(s, ts.HomotopyStep("alpha_expand", 1, ("d", "c", "b")), symbolic_connection)
    assert words(s) == ["x*y*phi_acb^-1", "phi_adb", "phi_dcb"]


def test_alpha_moves_are_inverse_in_stated_order(tetra, symbolic_connection):
    w = parse("x", symbolic_connection)
    s = ts.Section(ts.EdgePath((("a", "b"),)), (w,))
    expanded = ts.apply_move_section(s, EXPAND_ACB, symbolic_connection)
    assert ts.apply_move_section(expanded, MERGE_ACB, symbolic_connection) == s


def test_expand_after_merge_needs_interior_gauge(tetra, symbolic_connection):
    u = parse("x", symbolic_connection)
    v = parse("y", symbolic_connection)
    s = ts.Section(ts.EdgePath((("a", "c"), ("c", "b"))), (u, v))
    merged = ts.apply_move_section(s, MERGE_ACB, symbolic_connection)
    back = ts.apply_move_section(merged, EXPAND_ACB, symbolic_connection)
    assert back != s
    gauge = ts.sections_gauge_equivalent(back, s, movable={"c"})
    assert gauge is not None
    # oracle: the forced solution is n_c = phi * y^-1
    phi = parse("phi_acb", symbolic_connection)
    assert gauge.get("c") == ts.multiply(phi, ts.inverse(v))
    assert ts.twist_section(back, gauge) == s


def test_alpha_expand_identity_first_variant(tetra, symbolic_connection):
    w = parse("x", symbolic_connection)
    s = ts.Section(ts.EdgePath((("a", "b"),)), (w,))
    default = ts.apply_move_section(s, EXPAND_ACB, symbolic_connection)
    # the variant parks the identity on the first new edge: (e, w*phi) over (a,c),(c,b)
    phi = symbolic_connection.alpha_value("a", "c", "b")
    variant = ts.Section(default.path, (ts.identity(symbolic_connection.group), ts.multiply(w, phi)))
    assert words(variant) == ["e", "x*phi_acb"]
    assert ts.sections_gauge_equivalent(default, variant, movable={"c"}) is not None
    assert ts.apply_move_section(variant, MERGE_ACB, symbolic_connection) == s


def test_beta_expand_flat(tetra):
    flat = ts.Connection2.flat(Z12, tetra)
    s = ts.Section(ts.EdgePath.identity("c"), (ts.identity(Z12),))
    out = ts.apply_move_section(s, EXPAND_CABC, flat)
    assert out.path == ts.EdgePath((("c", "a"), ("a", "b"), ("b", "c")))
    assert out.letters == (ts.identity(Z12),) * 3


def test_beta_moves_inverse_and_product_conservation(tetra, symbolic_connection):
    w = parse("x*y^-1", symbolic_connection)
    s = ts.Section(ts.EdgePath.identity("c"), (w,))
    out = ts.apply_move_section(s, EXPAND_CABC, symbolic_connection)
    assert ts.apply_move_section(out, MERGE_CABC, symbolic_connection) == s
    # oracle: the ordered product of the letters is w times the boundary value
    phi = symbolic_connection.beta_value("c", "a", "b")
    assert product_of_letters(out.letters) == ts.multiply(w, phi)
    assert words(out)[0] == "e"


def test_independent_beta_value_is_flagged_and_used(tetra):
    payload = {
        "group": {"free": ["p", "q"]},
        "edges": {e[0] + ">" + e[1]: "e" for e in tetra.sorted_edges},
        "cells": {"a.b.c": "p", "c.a.b.c": "q"},
    }
    import json

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        conn = ts.load_connection(json.dumps(payload), tetra)
    assert any("independent loop-cell value" in str(w.message) for w in caught)
    assert conn.beta_value("c", "a", "b") == ts.parse_element("q", conn.group)
    # an unsupplied basepoint still derives from the triangle cell
    s = ts.Section(ts.EdgePath.identity("c"), (ts.identity(conn.group),))
    out = ts.apply_move_section(s, EXPAND_CABC, conn)
    assert words(out) == ["e", "e", "q"]


# -- loading and building connections ---------------------------------------------------

D5 = ts.dihedral_group(5)
# D_5 element texts, several of them spelling one element
D5_TEXTS = ["e", "r", "r^6", "s", "r*s", "s*r^4", "r^2*s", "s*r^-2", "r^-1", "r^4"]


def test_repeated_element_texts_load_as_each_text_parsed_alone():
    K = torus_complex(4)
    rng = random.Random(11)
    edges = {f"{a}>{b}": rng.choice(D5_TEXTS) for a, b in K.sorted_edges}
    cells = {".".join(m): rng.choice(D5_TEXTS) for m in all_alpha_markings(K)}
    conn = ts.load_connection(json.dumps({"group": {"dihedral": 5}, "edges": edges, "cells": cells}), K)
    for key, text in edges.items():
        assert conn.base.value(*key.split(">")) == ts.parse_element(text, D5)
    for key, text in cells.items():
        assert conn.alpha_value(*key.split(".")) == ts.parse_element(text, D5)


def test_a_valid_connection_file_is_read_in_bulk(monkeypatch):
    K = torus_complex(4)
    rng = random.Random(12)
    edges = {f"{a}>{b}": rng.choice(D5_TEXTS) for a, b in K.sorted_edges}
    cells = {".".join(m): rng.choice(D5_TEXTS) for m in all_alpha_markings(K)}
    text = json.dumps({"group": {"dihedral": 5}, "edges": edges, "cells": cells})
    expected = ts.load_connection(text, K)
    parsed = []

    def counted(text, group):
        parsed.append(text)
        return ts.parse_element(text, group)

    def per_entry(*args):
        raise AssertionError("a valid file was read entry by entry")

    monkeypatch.setattr(ts.sweep, "parse_element", counted)
    for module, name in [(ts.sweep, "_parse_edge_key"), (ts.sweep, "_parse_cell_key"), (ts.SimplicialComplex, "has_edge")]:
        monkeypatch.setattr(module, name, per_entry)
    assert ts.load_connection(text, K) == expected
    assert sorted(parsed) == sorted(set(edges.values()) | set(cells.values()))


@pytest.mark.parametrize("bad", ["t^2", 3, ["r"]], ids=["bad-text", "number", "array"])
@pytest.mark.parametrize("block", ["edges", "cells"])
def test_a_repeated_bad_value_fails_as_parse_element_does(tetra, block, bad):
    payload = {
        "group": {"dihedral": 5},
        "edges": {f"{a}>{b}": "r" for a, b in tetra.sorted_edges},
        "cells": {"a.b.c": "r", "a.c.b": "s", "b.a.c": "r"},
    }
    for key in list(payload[block])[1:]:
        payload[block][key] = bad
    with pytest.raises(GroupError) as expected:
        ts.parse_element(bad, D5)
    with pytest.raises(GroupError) as got:
        ts.load_connection(json.dumps(payload), tetra)
    assert str(got.value) == str(expected.value)


def test_no_parsed_value_outlives_its_load(tetra):
    text = json.dumps({"group": {"free": ["x"]}, "edges": {f"{a}>{b}": "x" for a, b in tetra.sorted_edges}})
    wider = ts.free_group(["x", "y"])
    assert ts.load_connection(text, tetra).value("a", "b").group == ts.free_group(["x"])
    assert ts.load_connection(text, tetra, words=["y"]).value("a", "b").group == wider


def edge_text(tetra, group) -> str:
    e = ts.format_element(ts.identity(ts.descriptor_from_json(group)))
    return json.dumps({"group": group, "edges": {f"{a}>{b}": e for a, b in tetra.sorted_edges}})


def test_words_extend_a_free_group_by_their_fresh_names_in_sorted_order(tetra):
    conn = ts.load_connection(edge_text(tetra, {"free": ["x", "q"]}), tetra, words=["z^2*y", "x*w^-1", "y"])
    assert conn.group == ts.free_group(["x", "q", "w", "y", "z"])


def test_words_skip_e_and_the_declared_generators(tetra):
    text = edge_text(tetra, {"free": ["x", "y"]})
    assert ts.load_connection(text, tetra, words=["e", "x*y^-1", "y*e"]).group == ts.free_group(["x", "y"])
    assert ts.load_connection(text, tetra, words=[]).group == ts.free_group(["x", "y"])


@pytest.mark.parametrize("group", [{"cyclic": 5}, {"symmetric": 3}, {"product": [{"free": ["x"]}, {"cyclic": 2}]}])
def test_words_leave_a_group_that_is_not_free_as_declared(tetra, group):
    conn = ts.load_connection(edge_text(tetra, group), tetra, words=["y", "x*z"])
    assert conn.group == ts.descriptor_from_json(group)


LONG_NAMES = [f"v{i}" for i in range(3004)]


@pytest.mark.parametrize(
    "block, short, long, refusal",
    [
        ("edges", "a>b>c", ">".join(LONG_NAMES), "bad edge key 'a>b>c': expected \"a>b\""),
        ("edges", "a>", "v" * 15000 + ">", "bad edge key 'a>'"),
        ("cells", "a.b", ".".join(LONG_NAMES), "bad cell key 'a.b': expected \"a.c.b\" or \"c.a.b.c\""),
        ("cell_relations", ["a.c.b"], LONG_NAMES, "bad cell relation ['a.c.b']: expected [name, name, kind]"),
    ],
    ids=["edge-key", "empty-edge-key-end", "cell-key", "cell-relation"],
)
def test_connection_errors_quote_a_bounded_prefix_of_the_entry(tetra, block, short, long, refusal):
    def load(entry):
        payload = {"group": {"cyclic": 12}, "edges": {f"{a}>{b}": "1" for a, b in tetra.sorted_edges}}
        if block == "edges":
            payload["edges"][entry] = "1"
        elif block == "cells":
            payload["cells"] = {entry: "1"}
        else:
            payload["cell_relations"] = [entry]
        with pytest.raises(BundleError) as info:
            ts.load_connection(json.dumps(payload), tetra)
        return str(info.value)

    assert load(short) == refusal  # a short entry is quoted whole
    got = load(long)
    assert got.startswith(" ".join(refusal.split()[:3])) and len(got) <= 200


def load_z12_relations(tetra, cells: dict, relations: list) -> ts.Connection2:
    payload = {
        "group": {"cyclic": 12},
        "edges": {f"{a}>{b}": "0" for a, b in tetra.sorted_edges},
        "cells": cells,
        "cell_relations": relations,
    }
    return ts.load_connection(json.dumps(payload), tetra)


@pytest.mark.parametrize(
    "cells, relation, filled, value",
    [
        ({"a.c.b": "5"}, ["a.c.b", "a.d.b", "equal"], ("a", "d", "b"), "5"),  # the right cell from the left
        ({"a.b.d": "5"}, ["a.c.d", "a.b.d", "inverse"], ("a", "c", "d"), "7"),  # the left cell from the right
    ],
    ids=["equal", "inverse"],
)
def test_a_cell_relation_fills_the_missing_cell(tetra, cells, relation, filled, value):
    conn = load_z12_relations(tetra, cells, [relation])
    assert conn.alpha_value(*filled) == ts.parse_element(value, Z12)
    [(given, text)] = cells.items()
    assert conn.alpha_value(*given.split(".")) == ts.parse_element(text, Z12)


def test_a_cell_relation_between_consistent_supplied_values_loads(tetra):
    conn = load_z12_relations(tetra, {"a.c.b": "5", "a.d.b": "7"}, [["a.c.b", "a.d.b", "inverse"]])
    assert conn.alpha_value("a", "d", "b") == ts.parse_element("7", Z12)


@pytest.mark.parametrize(
    "cells, relation, refusal",
    [
        (
            {"a.c.b": "5", "a.d.b": "4"},
            ["a.c.b", "a.d.b", "equal"],
            "cell relation ['a.c.b', 'a.d.b', 'equal'] violated by supplied values",
        ),
        ({}, ["a.c.b", "a.d.b", "equal"], "cell relation ['a.c.b', 'a.d.b', 'equal'] references values that are not present"),
        ({"a.c.b": "5"}, ["c.a.b.c", "a.c.b", "equal"], "cell relations apply to triangle cells only"),
        ({"a.c.b": "5"}, ["a.c.b", "a.d.b", "same"], "unknown cell relation kind 'same'"),
    ],
    ids=["inconsistent", "neither-present", "loop-cell", "unknown-kind"],
)
def test_a_cell_relation_is_refused(tetra, cells, relation, refusal):
    with pytest.raises(BundleError) as info:
        load_z12_relations(tetra, cells, [relation])
    assert str(info.value) == refusal


def test_a_cell_key_is_read_as_it_splits_when_a_vertex_name_holds_a_dot():
    # "c.a.b.d" names the marking (c, a.b, d) when joined, yet splits into four parts;
    # "x.a.b.x" names the marking (x.a, b, x) when joined, yet splits into the loop x.a.b.x
    K = ts.SimplicialComplex.build({"c", "a.b", "d", "x.a", "b", "x", "a"}, [("c", "a.b", "d"), ("x.a", "b", "x"), ("x", "a", "b")])

    def load(cells):
        payload = {"group": {"cyclic": 12}, "edges": {f"{u}>{w}": "1" for u, w in K.sorted_edges}, "cells": cells}
        return ts.load_connection(json.dumps(payload), K)

    with pytest.raises(BundleError) as info:
        load({"c.a.b.d": "1"})
    assert str(info.value) == 'bad cell key \'c.a.b.d\': expected "a.c.b" or "c.a.b.c"'
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the loop value differs from the one its triangle cell would give
        conn = load({"x.a.b.x": "1"})
    assert conn.alpha_values == () and conn.beta_values == ((("x", "a", "b"), ts.element(Z12, 1)),)


def test_connections_built_from_one_map_in_two_insertion_orders_are_equal():
    K = torus_complex(3)
    rng = random.Random(5)
    edges = [(e, random_element(S3, rng)) for e in K.sorted_edges]
    cells = [(m, random_element(S3, rng)) for m in all_alpha_markings(K)]
    loops = [((c, a, b), random_element(S3, rng)) for a, b, c in K.sorted_triangles]

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return dict(items)

    f = ts.Connection1.build(S3, K, dict(edges))
    g = ts.Connection1.build(S3, K, shuffled(edges))
    assert f == g and hash(f) == hash(g)
    assert f.edge_values == g.edge_values == tuple(edges)
    one = ts.Connection2.build(f, dict(cells), dict(loops))
    two = ts.Connection2.build(g, shuffled(cells), shuffled(loops))
    assert one == two and hash(one) == hash(two)
    assert one.alpha_values == two.alpha_values == tuple(sorted(cells))
    assert one.beta_values == two.beta_values == tuple(sorted(loops))
    assert ts.Connection2(f, tuple(sorted(cells)), tuple(loops)) == one
    changed = dict(cells)
    changed[cells[0][0]] = ts.multiply(cells[0][1], ts.element(S3, (2, 1, 3)))
    assert ts.Connection2.build(f, changed, dict(loops)) != one


@pytest.mark.parametrize(
    "alpha, beta, message",
    [
        ({("a", "e", "b"): "e"}, {}, "cell a.e.b is not supported by a triangle of the complex"),
        ({("a", "a", "b"): "e"}, {}, "cell a.a.b is not supported by a triangle of the complex"),
        ({}, {("c", "a", "c"): "e"}, "cell c.a.c.c is not supported by a triangle of the complex"),
        ({}, {("e", "a", "b"): "e"}, "cell e.a.b.e is not supported by a triangle of the complex"),
        ({("a", "c", "b"): "z5"}, {}, "backend mismatch at cell a.c.b"),
        ({}, {("c", "a", "b"): "z5"}, "backend mismatch at cell c.a.b.c"),
        ({("a", "c", "b"): "z5"}, {("e", "a", "b"): "e"}, "backend mismatch at cell a.c.b"),
        ({("a", "b", "c"): "text"}, {}, "backend mismatch at cell a.b.c"),
        ({}, {("c", "a", "b"): "int"}, "backend mismatch at cell c.a.b.c"),
    ],
    ids=[
        "alpha-no-face", "alpha-repeated", "beta-repeated", "beta-no-face", "alpha-group", "beta-group", "alpha-first",
        "alpha-not-an-element", "beta-not-an-element",
    ],
)
def test_connection2_build_refuses_an_unsupported_cell_or_a_foreign_value(tetra, alpha, beta, message):
    values = {"e": ts.identity(S3), "z5": ts.identity(ts.cyclic_group(5)), "text": "r", "int": 3}
    base = ts.Connection1.constant(S3, tetra, ts.identity(S3))
    with pytest.raises(SweepError) as info:
        ts.Connection2.build(base, {k: values[v] for k, v in alpha.items()}, {k: values[v] for k, v in beta.items()})
    assert str(info.value) == message


@pytest.mark.parametrize("key", [("a", "b"), ("c", "a", "b", "c")])
def test_connection2_build_refuses_an_alpha_key_that_is_not_a_triple(tetra, key):
    # ("a", "b") is an edge of the complex, yet never an alpha cell
    base = ts.Connection1.constant(S3, tetra, ts.identity(S3))
    with pytest.raises(SweepError) as info:
        ts.Connection2.build(base, {key: ts.identity(S3)})
    assert str(info.value) == f"alpha key {key!r} is not a triple of vertex names"


@pytest.mark.parametrize("key", [("c", "a"), ("c", "a", "b", "c"), "cab", 1, ("c", "a", 2)])
def test_connection2_build_refuses_a_beta_key_that_is_not_a_triple(tetra, key):
    base = ts.Connection1.constant(S3, tetra, ts.identity(S3))
    with pytest.raises(SweepError) as info:
        ts.Connection2.build(base, {("a", "c", "b"): ts.identity(S3)}, {key: ts.identity(S3)})
    assert str(info.value) == f"beta key {key!r} is not a triple of vertex names"


def test_missing_cell_value_raises(tetra):
    base = ts.Connection1.constant(S3, tetra, ts.identity(S3))
    conn = ts.Connection2.build(base, {})
    s = ts.Section(ts.EdgePath((("a", "b"),)), (ts.identity(S3),))
    with pytest.raises(SweepError, match="missing cell value"):
        ts.apply_move_section(s, EXPAND_ACB, conn)


# -- whole schemes ------------------------------------------------------------------

def golden_first_succession(connection) -> list[list[str]]:
    return [
        ["x", "y"],
        ["x*y*phi_acb^-1"],
        ["x*y*phi_acb^-1", "phi_adb"],
        ["x*y*phi_acb^-1", "phi_adb", "phi_dcb"],
        ["x*y*phi_acb^-1*phi_adb*phi_adc^-1", "phi_dcb"],
    ]


def golden_second_succession(connection) -> list[list[str]]:
    return [
        ["x", "y"],
        ["x*y*phi_acb^-1"],
        ["x*y*phi_acb^-1", "phi_adb"],
        ["x*y*phi_acb^-1", "phi_acd", "phi_adb"],
        ["x*y*phi_acb^-1", "phi_acd*phi_adb*phi_cdb^-1"],
    ]


def generic_start(symbolic_connection) -> ts.Section:
    return ts.Section(
        ts.EdgePath((("a", "c"), ("c", "b"))),
        (parse("x", symbolic_connection), parse("y", symbolic_connection)),
    )


def test_run_scheme_first_succession(tetra, symbolic_connection, scheme1):
    trace = ts.run_scheme(generic_start(symbolic_connection), scheme1, symbolic_connection)
    assert [words(s) for s in trace.sections] == golden_first_succession(symbolic_connection)


def test_run_scheme_second_succession(tetra, symbolic_connection, scheme2):
    trace = ts.run_scheme(generic_start(symbolic_connection), scheme2, symbolic_connection)
    assert [words(s) for s in trace.sections] == golden_second_succession(symbolic_connection)


def test_run_scheme_empty(tetra, symbolic_connection):
    s = generic_start(symbolic_connection)
    trace = ts.run_scheme(s, ts.SweepScheme(s.path, ()), symbolic_connection)
    assert trace.sections == (s,)


def test_run_scheme_reports_failing_step(tetra, symbolic_connection, scheme1):
    bad = ts.SweepScheme(scheme1.start_path, scheme1.steps[:1] + scheme1.steps[:1])
    with pytest.raises(SweepError) as err:
        ts.run_scheme(generic_start(symbolic_connection), bad, symbolic_connection)
    assert err.value.step_index == 1


def test_run_scheme_deterministic(tetra, symbolic_connection, scheme2):
    s = generic_start(symbolic_connection)
    t1 = ts.run_scheme(s, scheme2, symbolic_connection)
    t2 = ts.run_scheme(s, scheme2, symbolic_connection)
    assert t1 == t2


# -- two-holonomy -------------------------------------------------------------------

def test_two_holonomy_identity(tetra, symbolic_connection, scheme1):
    s = generic_start(symbolic_connection)
    report = ts.two_holonomy(s, s)
    assert report.is_flat()
    assert report.gauge_used.get("c") == ts.identity(symbolic_connection.group)


def test_two_holonomy_second_scheme_defects(tetra, symbolic_connection, scheme2):
    s = generic_start(symbolic_connection)
    final = ts.run_scheme(s, scheme2, symbolic_connection).final
    report = ts.two_holonomy(s, final)
    # frozen from the free-reduction oracle: defects are init^-1 * final letterwise
    assert [ts.format_element(d) for d in report.defects] == [
        "y*phi_acb^-1",
        "y^-1*phi_acd*phi_adb*phi_cdb^-1",
    ]
    lhs = [ts.multiply(a, d) for a, d in zip(s.letters, report.defects)]
    assert tuple(lhs) == final.letters


def test_two_holonomy_path_mismatch(tetra, symbolic_connection):
    s = generic_start(symbolic_connection)
    t = ts.Section(ts.EdgePath((("a", "d"), ("d", "b"))), s.letters)
    with pytest.raises(SweepError, match="different paths"):
        ts.two_holonomy(s, t)


# -- scheme comparison ---------------------------------------------------------------

def test_compare_schemes_flat_tetrahedron_discrepancy(tetra, symbolic_connection, scheme1, scheme2):
    result = ts.compare_schemes(scheme1, scheme2, generic_start(symbolic_connection), symbolic_connection)
    assert result.verdict == "different"
    assert [ts.format_element(q) for q in result.quotient] == [
        "phi_adc*phi_adb^-1",
        "phi_dcb^-1*phi_acd*phi_adb*phi_cdb^-1",
    ]
    assert all(q.payload for q in result.quotient)


def test_compare_scheme_with_itself(tetra, symbolic_connection, scheme1):
    result = ts.compare_schemes(scheme1, scheme1, generic_start(symbolic_connection), symbolic_connection)
    assert result.verdict == "equal"
    assert all(q.is_identity() for q in result.quotient)


def test_compare_gauge_equivalent_schemes(tetra, symbolic_connection):
    # merging and re-expanding across the same triangle re-gauges the word
    # at the interior vertex, so comparing against the empty scheme lands
    # strictly between "equal" and "different"
    path = ts.EdgePath((("a", "c"), ("c", "b")))
    round_trip = ts.SweepScheme(
        path,
        (
            MERGE_ACB,
            EXPAND_ACB,
        ),
    )
    stay_put = ts.SweepScheme(path, ())
    start = generic_start(symbolic_connection)
    result = ts.compare_schemes(round_trip, stay_put, start, symbolic_connection)
    assert result.verdict == "gauge_equivalent"
    assert result.gauge is not None
    phi = parse("phi_acb", symbolic_connection)
    y = parse("y", symbolic_connection)
    assert result.gauge.get("c") == ts.multiply(phi, ts.inverse(y))
    f1 = ts.run_scheme(start, round_trip, symbolic_connection).final
    assert ts.twist_section(f1, result.gauge) == start


# -- locality -----------------------------------------------------------------------

def section_moves_with_ranges(section: ts.Section, complex) -> list[tuple[ts.HomotopyStep, int, int]]:
    """Triangle moves applicable to the section: (step, consumed, produced)."""
    out = []
    steps = section.path.steps
    for i, (x, y) in enumerate(steps):
        if x == y:
            for face in complex.faces_containing(x):
                others = sorted(face - {x})
                for a, b in ((others[0], others[1]), (others[1], others[0])):
                    out.append((ts.HomotopyStep("beta_expand", i, (x, a, b, x)), 1, 3))
        else:
            for face in complex.faces_containing_edge(x, y):
                (apex,) = face - {x, y}
                out.append((ts.HomotopyStep("alpha_expand", i, (x, apex, y)), 1, 2))
    for i in range(len(steps) - 1):
        (x, y), (y2, z) = steps[i], steps[i + 1]
        if x != y and y == y2 and x != z and y != z and complex.has_face(x, y, z):
            out.append((ts.HomotopyStep("alpha_merge", i, (x, y, z)), 2, 1))
    for i in range(len(steps) - 2):
        (c, a), (a2, b), (b2, c2) = steps[i], steps[i + 1], steps[i + 2]
        if (a, b, c) == (a2, b2, c2) and len({a, b, c}) == 3 and complex.has_face(a, b, c):
            out.append((ts.HomotopyStep("beta_merge", i, (c, a, b, c)), 3, 1))
    return out


def swap_disjoint_pair(section, complex, connection, rng) -> tuple[ts.Section, ts.Section] | None:
    """Apply two moves at disjoint ranges in both orders; None if no pair fits."""
    first_choices = section_moves_with_ranges(section, complex)
    if not first_choices:
        return None
    m1, consumed1, produced1 = rng.choice(first_choices)
    after1 = ts.apply_move_section(section, m1, connection)
    second_choices = [
        (m2, c2, p2)
        for m2, c2, p2 in section_moves_with_ranges(after1, complex)
        if m2.position >= m1.position + produced1
    ]
    if not second_choices:
        return None
    m2, consumed2, _p2 = rng.choice(second_choices)
    ordered = ts.apply_move_section(after1, m2, connection)

    shift = produced1 - consumed1
    m2_first = ts.HomotopyStep(m2.move, m2.position - shift, m2.cell)
    swapped = ts.apply_move_section(
        ts.apply_move_section(section, m2_first, connection), m1, connection
    )
    return ordered, swapped


def test_disjoint_moves_commute(tetra):
    from conftest import random_section

    rng = random.Random(37)
    done = 0
    while done < 150:
        group = rng.choice((S3, Z12))
        conn = random_connection2(tetra, group, rng)
        section = random_section(tetra, group, rng, rng.randrange(4, 8), stay_prob=0.2)
        pair = swap_disjoint_pair(section, tetra, conn, rng)
        if pair is None:
            continue
        ordered, swapped = pair
        assert ordered == swapped
        done += 1


# -- curvature square -----------------------------------------------------------------

def test_curvature_square_flat(tetra):
    flat = ts.Connection2.flat(Z12, tetra)
    start = ts.Section(ts.EdgePath((("a", "b"), ("b", "d"))), (ts.identity(Z12),) * 2)
    report = ts.curvature_square("a", "b", "c", "d", start, flat)
    assert report.is_flat()


def test_curvature_square_symbolic_golden(tetra, symbolic_connection):
    x = parse("x", symbolic_connection)
    y = parse("y", symbolic_connection)
    start = ts.Section(ts.EdgePath((("a", "b"), ("b", "d"))), (x, y))
    report = ts.curvature_square("a", "b", "c", "d", start, symbolic_connection)

    # hand-rolled oracle: replay the four moves with bare word operations
    def val(name):
        return parse(name, symbolic_connection)

    w1 = ts.multiply(ts.multiply(val("phi_acb"), y), ts.inverse(val("phi_cbd")))
    w2 = ts.multiply(ts.multiply(val("phi_abc"), w1), ts.inverse(val("phi_bcd")))
    expected_second = ts.multiply(ts.inverse(y), w2)
    assert report.defects[0].is_identity()
    assert report.defects[1] == expected_second
    assert ts.format_element(report.defects[1]) == (
        "y^-1*phi_abc*phi_acb*y*phi_cbd^-1*phi_bcd^-1"
    )


def test_curvature_square_abelian_ignores_letters(tetra):
    rng = random.Random(43)
    conn = random_connection2(tetra, Z12, rng)
    base_start = ts.Section(
        ts.EdgePath((("a", "b"), ("b", "d"))), (ts.identity(Z12),) * 2
    )
    base = ts.curvature_square("a", "b", "c", "d", base_start, conn)
    # oracle: the defect is the signed sum of the four cell values
    total = (
        conn.alpha_value("a", "c", "b").payload
        + conn.alpha_value("a", "b", "c").payload
        - conn.alpha_value("c", "b", "d").payload
        - conn.alpha_value("b", "c", "d").payload
    ) % 12
    assert base.defects[1] == ts.element(Z12, total)
    for _ in range(20):
        letters = (random_element(Z12, rng), random_element(Z12, rng))
        start = ts.Section(ts.EdgePath((("a", "b"), ("b", "d"))), letters)
        report = ts.curvature_square("a", "b", "c", "d", start, conn)
        assert report.defects == base.defects


def test_curvature_square_missing_cells(tetra):
    base = ts.Connection1.constant(Z12, tetra, ts.identity(Z12))
    conn = ts.Connection2.build(base, {})
    start = ts.Section(ts.EdgePath((("a", "b"), ("b", "d"))), (ts.identity(Z12),) * 2)
    with pytest.raises(SweepError, match="missing cell value"):
        ts.curvature_square("a", "b", "c", "d", start, conn)


# -- center obstruction ----------------------------------------------------------------

def test_center_obstruction_matches_center():
    for group in (S3, S4, ts.cyclic_group(6)):
        assert ts.center_obstruction_check(group) == ts.center(group)


def test_center_obstruction_s3_trivial():
    assert [ts.format_element(z) for z in ts.center_obstruction_check(S3)] == ["e"]


def test_center_obstruction_check_resolves_from_sweep_and_groups():
    assert ts.sweep.center_obstruction_check is ts.groups.center_obstruction_check
    assert ts.center_obstruction_check is ts.groups.center_obstruction_check
    assert ts.sweep.center_obstruction_check(D4) == ts.center(D4)


def test_center_obstruction_abelian_everything():
    Z6 = ts.cyclic_group(6)
    assert ts.center_obstruction_check(Z6) == ts.enumerate_elements(Z6)


# -- gauge solving on sections ------------------------------------------------------------

def test_sections_gauge_equivalent_identity(tetra, symbolic_connection):
    s = generic_start(symbolic_connection)
    gauge = ts.sections_gauge_equivalent(s, s, movable={"c"})
    assert gauge is not None
    assert gauge.get("c") == ts.identity(symbolic_connection.group)


def test_sections_gauge_not_equivalent_without_movable(tetra, symbolic_connection):
    s = generic_start(symbolic_connection)
    t = ts.Section(s.path, (s.letters[1], s.letters[0]))
    assert ts.sections_gauge_equivalent(s, t, movable=set()) is None


def test_sections_gauge_refuses_a_twist_at_a_pinned_interior_vertex(tetra):
    # t is s twisted at c and at the pinned interior vertex b: only the walk's
    # comparisons at b and at the pinned target d can refuse it
    rng = random.Random(59)
    path = ts.EdgePath((("a", "c"), ("c", "b"), ("b", "d")))
    for _ in range(30):
        s = ts.Section(path, tuple(random_element(S3, rng) for _ in range(3)))
        n_b = random_element(S3, rng)
        if n_b.is_identity():
            continue
        t = ts.twist_section(s, ts.GaugeTransform.build(S3, {"c": random_element(S3, rng), "b": n_b}))
        assert ts.sections_gauge_equivalent(s, t, movable={"c"}) is None
        assert ts.sections_gauge_equivalent(s, t, movable={"b", "c"}) is not None


def test_sections_gauge_equivalent_finite_backend_loop(tetra):
    # loops revisit the movable vertex, forcing the consistency branch
    rng = random.Random(47)
    path = ts.EdgePath((("a", "c"), ("c", "b"), ("b", "c"), ("c", "d")))
    for _ in range(50):
        letters = tuple(random_element(S3, rng) for _ in range(4))
        s = ts.Section(path, letters)
        n_c = random_element(S3, rng)
        n_b = random_element(S3, rng)
        gauge = ts.GaugeTransform.build(S3, {"c": n_c, "b": n_b})
        t = ts.twist_section(s, gauge)
        found = ts.sections_gauge_equivalent(s, t, movable={"b", "c"})
        assert found is not None
        assert ts.twist_section(s, found) == t


def test_alpha_merge_conserves_product_up_to_cell_value(tetra):
    rng = random.Random(53)
    for _ in range(100):
        conn = random_connection2(tetra, S3, rng)
        u, v = random_element(S3, rng), random_element(S3, rng)
        s = ts.Section(ts.EdgePath((("a", "c"), ("c", "b"))), (u, v))
        merged = ts.apply_move_section(s, MERGE_ACB, conn)
        phi = conn.alpha_value("a", "c", "b")
        assert ts.multiply(merged.letters[0], phi) == ts.multiply(u, v)


def test_compare_swapped_disjoint_moves_equal(tetra, symbolic_connection):
    path = ts.EdgePath((("a", "c"), ("c", "b"), ("b", "d")))
    first = ts.SweepScheme(
        path,
        (
            MERGE_ACB,
            ts.HomotopyStep("alpha_expand", 1, ("b", "c", "d")),
        ),
    )
    swapped = ts.SweepScheme(
        path,
        (
            ts.HomotopyStep("alpha_expand", 2, ("b", "c", "d")),
            MERGE_ACB,
        ),
    )
    letters = tuple(
        parse(t, symbolic_connection) for t in ("x", "y", "phi_adb")
    )
    start = ts.Section(path, letters)
    result = ts.compare_schemes(first, swapped, start, symbolic_connection)
    assert result.verdict == "equal"


# -- move semantics over all eight kinds ----------------------------------------------

INVERSE_MOVE = {
    "alpha_expand": "alpha_merge",
    "beta_expand": "beta_merge",
    "x1_insert": "x1_cancel",
    "deg_insert": "deg_drop",
}
BOOKKEEPING_MOVES = ("x1_insert", "x1_cancel", "deg_insert", "deg_drop")
ALL_MOVES = (
    "alpha_expand",
    "alpha_merge",
    "beta_expand",
    "beta_merge",
    "x1_insert",
    "x1_cancel",
    "deg_insert",
    "deg_drop",
)


def every_applicable_move(complex, path: ts.EdgePath) -> list[ts.HomotopyStep]:
    """Every move of every kind that the path move accepts, found by trying them all."""
    triples = list(itertools.permutations(complex.sorted_vertices, 3))
    cells = {
        "alpha_expand": triples,
        "alpha_merge": triples,
        "beta_expand": [(c, a, b, c) for c, a, b in triples],
        "beta_merge": [(c, a, b, c) for c, a, b in triples],
        "x1_insert": list(itertools.permutations(complex.sorted_vertices, 2)),
    }
    out = []
    for move in ALL_MOVES:
        for position in range(len(path.steps) + 1):
            for cell in cells.get(move, [None]):
                step = ts.HomotopyStep(move, position, cell)
                try:
                    ts.apply_move_path(path, step, complex)
                except SchemeError:
                    continue
                out.append(step)
    return out


@pytest.mark.parametrize("group_name", ["S3", "Z12", "free"])
def test_section_moves_match_path_moves_and_invert(tetra, symbolic_connection, group_name):
    group = {"S3": S3, "Z12": Z12, "free": symbolic_connection.group}[group_name]
    rng = random.Random(61)
    seen = set()
    for _ in range(30):
        conn = random_connection2(tetra, group, rng)
        s = random_section(tetra, group, rng, rng.randrange(1, 6), stay_prob=0.3)
        for step in every_applicable_move(tetra, s.path):
            out = ts.apply_move_section(s, step, conn)
            assert out.path == ts.apply_move_path(s.path, step, tetra)
            seen.add(step.move)
            if step.move in INVERSE_MOVE:
                cell = step.cell if step.move.endswith("expand") else None
                back = ts.HomotopyStep(INVERSE_MOVE[step.move], step.position, cell)
                assert ts.apply_move_section(out, back, conn) == s
            if step.move in BOOKKEEPING_MOVES:
                assert product_of_letters(out.letters) == product_of_letters(s.letters)
    assert seen == set(ALL_MOVES)


def test_drop_folds_into_following_letter(symbolic_connection):
    s = ts.Section(
        ts.EdgePath((("a", "b"), ("b", "b"), ("b", "c"))),
        tuple(parse(t, symbolic_connection) for t in ("x", "y", "phi_acb")),
    )
    out = ts.apply_move_section(s, ts.HomotopyStep("deg_drop", 1), symbolic_connection)
    assert out.path == ts.EdgePath((("a", "b"), ("b", "c")))
    assert words(out) == ["x", "y*phi_acb"]


def test_drop_at_path_end_folds_into_preceding_letter(symbolic_connection):
    s = ts.Section(
        ts.EdgePath((("a", "b"), ("b", "b"))),
        (parse("x", symbolic_connection), parse("y", symbolic_connection)),
    )
    out = ts.apply_move_section(s, ts.HomotopyStep("deg_drop", 1), symbolic_connection)
    assert out.path == ts.EdgePath((("a", "b"),))
    assert words(out) == ["x*y"]


def test_cancel_of_whole_path_leaves_product_as_only_letter(symbolic_connection):
    s = ts.Section(
        ts.EdgePath((("a", "b"), ("b", "a"))),
        (parse("x", symbolic_connection), parse("y", symbolic_connection)),
    )
    out = ts.apply_move_section(s, ts.HomotopyStep("x1_cancel", 0), symbolic_connection)
    assert out.path == ts.EdgePath.identity("a")
    assert words(out) == ["x*y"]


# -- invalid moves fail alike on paths and sections --------------------------------------

BAD_MOVES = {
    "out-of-range": (
        "acb",
        [("alpha_merge", 0, ("a", "c", "b")), ("alpha_merge", 0, ("a", "c", "b"))],
        "out of range",
    ),
    "path-mismatch": ("acb", [("deg_insert", 0, None), ("alpha_expand", 0, ("a", "d", "c"))], "path mismatch"),
    "unsupported-triangle": (
        "acb",
        [("alpha_merge", 0, ("a", "c", "b")), ("alpha_expand", 0, ("a", "e", "b"))],
        "not supported",
    ),
    "unsupported-edge": (
        "acb",
        [("alpha_merge", 0, ("a", "c", "b")), ("x1_insert", 1, ("b", "e"))],
        "not supported",
    ),
    "not-opposite": ("acb", [("deg_insert", 0, None), ("x1_cancel", 1, None)], "not an opposite pair"),
    "not-degenerate": ("acb", [("deg_insert", 0, None), ("deg_drop", 1, None)], "not degenerate"),
    "only-step": ("aba", [("x1_cancel", 0, None), ("deg_drop", 0, None)], "only step"),
}


@pytest.mark.parametrize("case", sorted(BAD_MOVES))
def test_invalid_move_fails_alike_on_path_and_section(tetra, symbolic_connection, case):
    chain, moves, category = BAD_MOVES[case]
    path = ts.EdgePath.from_vertices(*chain)
    scheme = ts.SweepScheme(path, tuple(ts.HomotopyStep(m, i, c) for m, i, c in moves))
    start = ts.Section(path, tuple(parse("x", symbolic_connection) for _ in path.steps))
    with pytest.raises(SchemeError, match=category) as on_path:
        ts.validate_scheme(scheme, tetra)
    with pytest.raises(SweepError, match=category) as on_section:
        ts.run_scheme(start, scheme, symbolic_connection)
    assert on_path.value.step_index == on_section.value.step_index == len(moves) - 1
