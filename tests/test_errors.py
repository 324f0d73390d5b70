"""One error shape and one JSON decode rule for every input the package reads."""

from __future__ import annotations

import json

import pytest

import trisweep as ts
from trisweep import cli
from trisweep.errors import BundleError, ComplexError, GroupError, PathError, SchemeError, SweepError, TrisweepError, quote


def load_center(text: str):
    args = cli.build_parser().parse_args(["center", text])
    return args.func(args)


# (reader, error class, message prefix, text with a syntax error past its first line)
BAD_JSON = {
    "complex": (ts.load_complex, ComplexError, "parse error", '{\n  "vertices": ["a",\n    "b",]\n}'),
    "scheme": (ts.load_scheme, SchemeError, "scheme parse error", '{"start": [["a", "b"]],\n "steps": [}'),
    "connection": (
        lambda text: ts.load_connection(text, ts.SimplicialComplex.build("ab", edges=["ab"])),
        BundleError,
        "connection parse error",
        '{"group": {"cyclic": 2},\n\n "edges": {"a>b" "1"}}',
    ),
    "center": (load_center, TrisweepError, "bad group descriptor", '{"cyclic":\n 3,\n}'),
}


@pytest.mark.parametrize("case", sorted(BAD_JSON))
def test_a_json_syntax_error_carries_the_decoders_line_and_column(case):
    read, error, what, text = BAD_JSON[case]
    with pytest.raises(json.JSONDecodeError) as decoded:
        json.loads(text)
    line, column = decoded.value.lineno, decoded.value.colno
    assert line > 1
    with pytest.raises(error) as info:
        read(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"{what} at line {line}, column {column}: {decoded.value.msg}"
    assert info.value.step_index is None


@pytest.mark.parametrize("case", sorted(BAD_JSON))
def test_an_input_past_an_interpreter_limit_has_no_position(case):
    read, error, what, _text = BAD_JSON[case]
    with pytest.raises(error) as info:
        read("[" * 100_000)
    assert str(info.value) == f"{what}: arrays or objects nested too deeply"
    assert (info.value.line, info.value.column, info.value.step_index) == (None, None, None)


def test_run_scheme_and_validate_scheme_errors_keep_their_step_index(tetra, symbolic_connection, scheme1):
    bad = ts.SweepScheme(scheme1.start_path, scheme1.steps[:2] + (ts.HomotopyStep("deg_drop", 0),))
    with pytest.raises(SchemeError) as on_path:
        ts.validate_scheme(bad, tetra)
    start = ts.Section(bad.start_path, tuple(ts.identity(symbolic_connection.group) for _ in bad.start_path.steps))
    with pytest.raises(SweepError) as on_section:
        ts.run_scheme(start, bad, symbolic_connection)
    # load_scheme names the step it could not read, whichever check refused it
    read_errors = []
    for key, value in (("position", True), ("cell", "a..b"), ("move", "zig"), ("extra", 1)):
        obj = json.loads(ts.dump_scheme(scheme1))
        obj["steps"][2][key] = value
        with pytest.raises(SchemeError) as on_read:
            ts.load_scheme(json.dumps(obj))
        read_errors.append(on_read.value)
    for err in (on_path.value, on_section.value, *read_errors):
        assert err.step_index == 2
        assert str(err).startswith("step 2: ")
        assert (err.line, err.column) == (None, None)


@pytest.mark.parametrize("error", [TrisweepError, ComplexError, PathError, SchemeError, GroupError, BundleError, SweepError])
def test_every_domain_error_has_one_shape(error):
    plain = error("message")
    assert (str(plain), plain.line, plain.column, plain.step_index) == ("message", None, None, None)
    placed = error("message", line=3, column=4, step_index=5)
    assert (placed.line, placed.column, placed.step_index) == (3, 4, 5)
    with pytest.raises(TypeError):  # the positions are keyword-only
        error("message", 3)


TETRA = ts.load_complex(ts.data_path("tetrahedron.json").read_text())
SYMBOLIC = ts.load_connection(ts.data_path("tetrahedron_symbolic.json").read_text(), TETRA)
Z2, Z3, S3 = ts.cyclic_group(2), ts.cyclic_group(3), ts.symmetric_group(3)
Z2_EDGES = '{"group": {"cyclic": 2}, "edges": {"a>b": "0", "a>c": "0", "a>d": "0", "b>c": "0", "b>d": "0", "c>d": "0"}'
ACB = ts.EdgePath.from_vertices("a", "c", "b")
EMPTY = ts.SweepScheme(ACB, ())
MERGE = ts.SweepScheme(ACB, (ts.HomotopyStep("alpha_merge", 0, ("a", "c", "b")),))


def identity_section(*vertices: str, group=SYMBOLIC.group) -> ts.Section:
    path = ts.EdgePath.from_vertices(*vertices)
    return ts.Section(path, tuple(ts.identity(group) for _ in path.steps))


# (call, error class, the whole message) of refusals that no other in-process test reaches
REFUSALS = {
    # paths
    "no vertices": (lambda: ts.EdgePath.from_vertices(), PathError, "at least one vertex is required"),
    "step of three vertices": (
        lambda: ts.EdgePath((("a", "b", "c"),)), PathError, "step ('a', 'b', 'c') is not a pair of vertices"
    ),
    "step of one vertex": (lambda: ts.EdgePath((("a",),)), PathError, "step ('a',) is not a pair of vertices"),
    "step not a sequence": (lambda: ts.EdgePath([1]), PathError, "edge-path steps [1] are not pairs of vertices"),
    # a string of two characters is not read as a pair of one-character vertices
    "step a string": (lambda: ts.EdgePath(["ab", "bc"]), PathError, "step 'ab' is not a pair of vertices"),
    "scheme start not a path": (
        lambda: ts.SweepScheme((("a", "b"),), ()), SchemeError, "scheme start (('a', 'b'),) is not an edge-path"
    ),
    "scheme steps not a tuple": (lambda: ts.SweepScheme(ACB, 5), SchemeError, "scheme steps 5 are not a tuple of homotopy steps"),
    "scheme step not a move": (
        lambda: ts.SweepScheme(ACB, (("alpha_merge", 0),)),
        SchemeError,
        "scheme steps (('alpha_merge', 0),) are not a tuple of homotopy steps",
    ),
    "negative position": (lambda: ts.HomotopyStep("alpha_merge", -1, ("a", "c", "b")), SchemeError, "negative position -1"),
    "move not a string": (lambda: ts.HomotopyStep(["x"], 0), SchemeError, "unknown move ['x']"),
    "cell on a degenerate move": (
        lambda: ts.HomotopyStep("deg_insert", 0, ("a", "b", "c")), SchemeError, "move deg_insert takes no cell"
    ),
    "open loop cell": (
        lambda: ts.HomotopyStep("beta_expand", 0, ("a", "b", "c", "d")),
        SchemeError,
        "loop cell a.b.c.d must start and end at the same vertex",
    ),
    "scheme without steps": (
        lambda: ts.load_scheme('{"start": [["a", "b"]]}'), SchemeError, 'scheme file needs "start" and "steps"'
    ),
    "scheme with a broken start": (
        lambda: ts.load_scheme('{"start": [["a", "b"], ["c", "d"]], "steps": []}'),
        SchemeError,
        "bad start path: steps (a,b) and (c,d) are not composable",
    ),
    # complexes
    "pure_dim2 not a boolean": (
        lambda: ts.load_complex('{"vertices": ["a"], "pure_dim2": 1}'), ComplexError, '"pure_dim2" must be a boolean'
    ),
    "unknown cell kind": (lambda: ts.oriented_triangles(TETRA, "gamma"), ComplexError, "unknown cell kind 'gamma'"),
    # sweep
    "connection without edges": (
        lambda: ts.load_connection('{"group": {"cyclic": 2}}', TETRA),
        BundleError,
        'connection file needs "group" and "edges"',
    ),
    "cells not an object": (
        lambda: ts.load_connection(Z2_EDGES + ', "cells": []}', TETRA), BundleError, '"cells" must be an object'
    ),
    "cell relations not a list": (
        lambda: ts.load_connection(Z2_EDGES + ', "cell_relations": {}}', TETRA),
        BundleError,
        '"cell_relations" must be a list',
    ),
    "section off the scheme's start": (
        lambda: ts.run_scheme(identity_section("a", "b"), EMPTY, SYMBOLIC),
        SweepError,
        "section path does not match the scheme start path",
    ),
    "schemes from different paths": (
        lambda: ts.compare_schemes(EMPTY, ts.SweepScheme(ts.EdgePath.from_vertices("a", "b"), ()),
                                   identity_section("a", "c", "b"), SYMBOLIC),
        SweepError,
        "schemes start on different paths",
    ),
    "schemes to different paths": (
        lambda: ts.compare_schemes(EMPTY, MERGE, identity_section("a", "c", "b"), SYMBOLIC),
        SweepError,
        "endpoint mismatch: schemes end on different paths",
    ),
    "curvature square off its path": (
        lambda: ts.curvature_square("a", "b", "c", "d", identity_section("a", "c", "b"), SYMBOLIC),
        SweepError,
        "curvature square needs a section over (a>b,b>d)",
    ),
    "gauge search over different paths": (
        lambda: ts.sections_gauge_equivalent(identity_section("a", "b"), identity_section("a", "c", "b"), {"c"}),
        SweepError,
        "sections live over different paths",
    ),
    "gauge search over different backends": (
        lambda: ts.sections_gauge_equivalent(identity_section("a", "b"), identity_section("a", "b", group=Z2), set()),
        GroupError,
        "backend mismatch between the two sections",
    ),
    "two-holonomy over different paths": (
        lambda: ts.two_holonomy(identity_section("a", "b"), identity_section("a", "c", "b")),
        SweepError,
        "sections live over different paths",
    ),
    "cell value not an element": (
        lambda: ts.Connection2(SYMBOLIC.base, {("a", "c", "b"): "junk"}), SweepError, "backend mismatch at cell a.c.b"
    ),
    "cell values not a map": (
        lambda: ts.Connection2(SYMBOLIC.base, 5), SweepError, "alpha values 5 are not a map or (key, value) pairs"
    ),
    "loop cell values not a map": (
        lambda: ts.Connection2(SYMBOLIC.base, {}, 5), SweepError, "beta values 5 are not a map or (key, value) pairs"
    ),
    "connection base not an edge connection": (
        lambda: ts.Connection2("junk", {}), SweepError, "connection base 'junk' is not an edge connection"
    ),
    "section path not a path": (lambda: ts.Section("junk", ()), SweepError, "section path 'junk' is not an edge-path"),
    "trace of a scheme that stops": (
        lambda: ts.SweepTrace(ts.SweepScheme(ACB, (ts.HomotopyStep("deg_drop", 0),)), (identity_section("a", "c", "b"),)),
        SweepError,
        "step 0: path mismatch at position 0: (a,c), not degenerate",
    ),
    "trace with a section too many": (
        lambda: ts.SweepTrace(EMPTY, (identity_section("a", "c", "b"),) * 2),
        SweepError,
        "a trace needs one section per path of its scheme: 1, not 2",
    ),
    "trace off the scheme's path": (
        lambda: ts.SweepTrace(EMPTY, (identity_section("a", "b"),)),
        SweepError,
        "trace section 0 is over (a>b), not over the scheme's (a>c,c>b)",
    ),
    "two-holonomy over different backends": (
        lambda: ts.two_holonomy(identity_section("a", "b"), identity_section("a", "b", group=Z2)),
        GroupError,
        "backend mismatch between the two sections",
    ),
    # groups
    "repeated generator": (lambda: ts.free_group(["x", "x"]), GroupError, "generator names must be distinct"),
    "generator named e": (lambda: ts.free_group(["e"]), GroupError, "bad generator name 'e'"),
    "generator name a list": (lambda: ts.free_group([["x"]]), GroupError, "bad generator name ['x']"),
    "generator name an integer": (lambda: ts.free_group([1]), GroupError, "bad generator name 1"),
    "cyclic of a string": (lambda: ts.cyclic_group("3"), GroupError, '"cyclic" takes an integer parameter'),
    "cyclic of a boolean": (lambda: ts.cyclic_group(True), GroupError, '"cyclic" takes an integer parameter'),
    "symmetric of None": (lambda: ts.symmetric_group(None), GroupError, '"symmetric" takes an integer parameter'),
    "dihedral of a float": (lambda: ts.dihedral_group(2.5), GroupError, '"dihedral" takes an integer parameter'),
    "product of a number": (lambda: ts.product_group(3), GroupError, "product factor 3 is not a group descriptor"),
    "cyclic of order 0": (lambda: ts.cyclic_group(0), GroupError, "cyclic modulus must be >= 1"),
    "symmetric of degree 0": (lambda: ts.symmetric_group(0), GroupError, "symmetric degree must be >= 1"),
    "dihedral of order 0": (lambda: ts.dihedral_group(0), GroupError, "dihedral order parameter must be >= 1"),
    "empty product": (lambda: ts.product_group(), GroupError, "product needs at least one factor"),
    "one-line syntax": (
        lambda: ts.parse_element("[1,2", S3), GroupError, "syntax error in one-line permutation '[1,2'"
    ),
    "one-line length": (lambda: ts.parse_element("[1,2]", S3), GroupError, "one-line form must list 3 integers"),
    "product length": (
        lambda: ts.parse_element('["0"]', ts.product_group(Z2, Z3)),
        GroupError,
        "product element must be an array of 2 entries",
    ),
    "matrix product shapes": (lambda: ts.mat_mul(((1,),), ((1,), (2,))), GroupError, "matrix dimension mismatch"),
    "permutation representation of Z_2": (
        lambda: ts.permutation_representation(Z2), GroupError, "permutation representation needs the symmetric backend"
    ),
    "cyclic character of S_3": (lambda: ts.cyclic_character(S3), GroupError, "cyclic character needs the cyclic backend"),
    "table of two dimensions": (
        lambda: ts.table_representation(Z2, {"0": [[1]], "1": [[1, 0], [0, 1]]}),
        GroupError,
        "table matrices must share one square dimension",
    ),
    "table missing an element": (
        lambda: ts.table_representation(Z2, {"0": [[1]]}), GroupError, "table representation misses elements: ['1']"
    ),
    "table moving the identity": (
        lambda: ts.table_representation(Z2, {"0": [[2]], "1": [[1]]}),
        GroupError,
        "table must send the identity to the identity matrix",
    ),
    "represented element of another group": (
        lambda: ts.represent(ts.cyclic_character(Z3), ts.identity(Z2)),
        GroupError,
        "backend mismatch: element does not live in the represented group",
    ),
    # bundle
    "gauge of another backend": (
        lambda: ts.gauge_transform(SYMBOLIC.base, ts.GaugeTransform.build(Z2, {})),
        BundleError,
        "backend mismatch between gauge and connection",
    ),
    "isomorphism across backends": (
        lambda: ts.find_isomorphism(ts.Connection1.constant(Z2, TETRA, ts.identity(Z2)),
                                    ts.Connection1.constant(Z3, TETRA, ts.identity(Z3))),
        BundleError,
        "connections must share a backend and a complex",
    ),
    "constant of a non-element": (
        lambda: ts.Connection1.constant(Z2, TETRA, 5), BundleError, "backend mismatch at edge (a,b)"
    ),
    "edge values not elements": (
        lambda: ts.Connection1(Z3, TETRA, dict.fromkeys(TETRA.sorted_edges, 5)), BundleError, "backend mismatch at edge (a,b)"
    ),
    "gauge value not an element": (
        lambda: ts.GaugeTransform(S3, (("a", 7),)), BundleError, "backend mismatch in gauge value at vertex a"
    ),
    "gauge entry not a pair": (
        lambda: ts.GaugeTransform(S3, ("a",)), BundleError, "gauge entry 'a' is not a (vertex, value) pair"
    ),
    "gauge vertex listed twice": (
        lambda: ts.GaugeTransform(Z2, (("a", ts.identity(Z2)), ("a", ts.identity(Z2)))),
        BundleError,
        "gauge transform lists a vertex twice",
    ),
    "edge values not a map": (
        lambda: ts.Connection1(Z3, TETRA, 5), BundleError, "edge values 5 are not a map or (key, value) pairs"
    ),
    "edge values not pairs": (
        lambda: ts.Connection1(Z3, TETRA, [("a", "b", "c")]),
        BundleError,
        "edge values [('a', 'b', 'c')] are not a map or (key, value) pairs",
    ),
    "gauge vertex not hashable": (
        lambda: ts.GaugeTransform(Z3, (([1], ts.identity(Z3)),)),
        BundleError,
        f"gauge entries {quote((([1], ts.identity(Z3)),))} hold a vertex that cannot be hashed",
    ),
    "gauge vertex holding a list": (
        lambda: ts.GaugeTransform(Z3, ((("a", [1]), ts.identity(Z3)),)),
        BundleError,
        f"gauge entries {quote(((('a', [1]), ts.identity(Z3)),))} hold a vertex that cannot be hashed",
    ),
    "constant of a foreign value": (
        lambda: ts.Connection1.constant(Z2, TETRA, ts.identity(Z3)), BundleError, "backend mismatch at edge (a,b)"
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_each_refusal_names_its_fault(case):
    call, error, text = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == text
