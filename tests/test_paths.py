from __future__ import annotations

import json
import random
import time

import pytest

import trisweep as ts
from conftest import random_walk, torus_complex
from trisweep.errors import PathError, SchemeError, quote
from trisweep.paths import _candidate_moves, cell_sides


def P(*chain: str) -> ts.EdgePath:
    return ts.EdgePath.from_vertices(*chain)


# -- composition and inversion ------------------------------------------------

def test_compose_simple():
    assert ts.compose_paths(P("a", "b"), P("b", "c")) == P("a", "b", "c")


def test_compose_identities_collapse():
    assert ts.compose_paths(P("a", "a"), P("a", "a")) == ts.EdgePath.identity("a")


def test_compose_drops_trailing_degenerate():
    assert ts.compose_paths(P("a", "b"), ts.EdgePath.identity("b")) == P("a", "b")


def test_compose_endpoint_mismatch():
    with pytest.raises(PathError, match="endpoint mismatch"):
        ts.compose_paths(P("a", "b"), P("c", "d"))


def test_invert_simple():
    assert ts.invert_path(P("a", "b", "c")) == P("c", "b", "a")


def test_invert_identity():
    assert ts.invert_path(ts.EdgePath.identity("a")) == ts.EdgePath.identity("a")


def test_invert_is_involution(tetra):
    rng = random.Random(11)
    for _ in range(200):
        p = random_walk(tetra, rng, rng.randrange(1, 8), stay_prob=0.2)
        assert ts.invert_path(ts.invert_path(p)) == p


def test_empty_path_rejected():
    with pytest.raises(PathError):
        ts.EdgePath(())


def test_non_composable_rejected():
    with pytest.raises(PathError, match="not composable"):
        ts.EdgePath((("a", "b"), ("c", "d")))


# -- reduction ---------------------------------------------------------------

def test_reduce_full_cancellation():
    assert ts.reduce_x1(P("a", "b", "a")) == ts.EdgePath.identity("a")


def test_reduce_single_cancellation():
    assert ts.reduce_x1(P("a", "b", "c", "b", "d")) == P("a", "b", "d")


def _reduce_scan(path: ts.EdgePath, leftmost: bool) -> ts.EdgePath:
    """Oracle: repeatedly remove the first/last removable spot until stable."""
    steps = list(path.steps)
    while True:
        spots = []
        for i, (x, y) in enumerate(steps):
            if x == y and len(steps) > 1:
                spots.append(("deg", i))
        for i in range(len(steps) - 1):
            if steps[i] == (steps[i + 1][1], steps[i + 1][0]):
                spots.append(("pair", i))
        if not spots:
            break
        spots.sort(key=lambda s: s[1])
        kind, i = spots[0] if leftmost else spots[-1]
        if kind == "deg":
            del steps[i]
        else:
            del steps[i : i + 2]
        if not steps:
            return ts.EdgePath.identity(path.source)
    return ts.EdgePath(tuple(steps))


def test_reduce_idempotent_and_matches_scan_oracles(tetra):
    rng = random.Random(23)
    for _ in range(300):
        p = random_walk(tetra, rng, rng.randrange(1, 10), stay_prob=0.25)
        r = ts.reduce_x1(p)
        assert ts.reduce_x1(r) == r
        assert r == _reduce_scan(p, leftmost=True)
        assert r == _reduce_scan(p, leftmost=False)


def test_x1_homotopic_inserted_pair(tetra):
    p = P("a", "b", "c")
    padded = ts.compose_paths(p, P("c", "b", "c"))
    assert ts.x1_homotopic(p, padded)


def test_x1_homotopic_distinct_routes():
    assert not ts.x1_homotopic(P("a", "b"), P("a", "c", "b"))


def test_x1_homotopic_needs_matching_endpoints():
    p = P("a", "b", "c")
    assert not ts.x1_homotopic(p, ts.invert_path(p))


# -- groupoid laws -------------------------------------------------------------

def test_groupoid_laws(tetra):
    rng = random.Random(5)
    for _ in range(300):
        a = rng.choice(tetra.sorted_vertices)
        p = random_walk(tetra, rng, rng.randrange(1, 6), start=a, stay_prob=0.1)
        q = random_walk(tetra, rng, rng.randrange(1, 6), start=p.target, stay_prob=0.1)
        r = random_walk(tetra, rng, rng.randrange(1, 6), start=q.target, stay_prob=0.1)
        assert (p * q) * r == p * (q * r)
        assert ts.EdgePath.identity(p.source) * p == p * ts.EdgePath.identity(p.target)
        assert ts.reduce_x1(p * ts.invert_path(p)) == ts.EdgePath.identity(p.source)


def test_identities_neutral_on_degenerate_free_paths(tetra):
    rng = random.Random(6)
    for _ in range(100):
        p = random_walk(tetra, rng, rng.randrange(1, 6))
        assert p * ts.EdgePath.identity(p.target) == p
        assert ts.EdgePath.identity(p.source) * p == p


# -- degenerate bookkeeping ----------------------------------------------------

def deg(p, move, k):
    return ts.apply_move_path(p, ts.HomotopyStep(move, k), None)


def test_insert_degenerate():
    assert deg(P("a", "b", "c"), "deg_insert", 1) == ts.EdgePath(
        (("a", "b"), ("b", "b"), ("b", "c"))
    )


def test_drop_then_insert_round_trip():
    p = ts.EdgePath((("a", "b"), ("b", "b"), ("b", "c")))
    assert deg(deg(p, "deg_drop", 1), "deg_insert", 1) == p


def test_insert_raises_length():
    p = P("a", "b", "c")
    for k in range(len(p.steps) + 1):
        assert len(deg(p, "deg_insert", k)) == len(p) + 1


def test_drop_requires_degenerate():
    with pytest.raises(SchemeError, match="not degenerate"):
        deg(P("a", "b"), "deg_drop", 0)
    with pytest.raises(SchemeError, match="only step of an identity path"):
        deg(ts.EdgePath.identity("a"), "deg_drop", 0)


# -- cells ---------------------------------------------------------------------

def test_cell_sides_of_a_triangle_and_a_loop():
    assert cell_sides(("a", "c", "b")) == ((("a", "b"),), (("a", "c"), ("c", "b")))
    assert cell_sides(("c", "a", "b", "c")) == ((("c", "c"),), (("c", "a"), ("a", "b"), ("b", "c")))


# -- scheme validation ---------------------------------------------------------

def test_validate_scheme_first_sweep(tetra, scheme1):
    paths = ts.validate_scheme(scheme1, tetra)
    assert paths == [
        P("a", "c", "b"),
        P("a", "b"),
        P("a", "d", "b"),
        P("a", "d", "c", "b"),
        P("a", "c", "b"),
    ]


def test_validated_paths_print_as_their_list(tetra, scheme1):
    paths = ts.validate_scheme(scheme1, tetra)
    assert repr(paths) == repr([P("a", "c", "b"), P("a", "b"), P("a", "d", "b"), P("a", "d", "c", "b"), P("a", "c", "b")])


def test_validate_empty_scheme(tetra):
    scheme = ts.SweepScheme(P("a", "b"), ())
    assert ts.validate_scheme(scheme, tetra) == [P("a", "b")]


def test_validate_unsupported_cell(tetra):
    scheme = ts.SweepScheme(
        P("a", "b"), (ts.HomotopyStep("alpha_expand", 0, ("a", "e", "b")),)
    )
    with pytest.raises(SchemeError, match="not supported") as err:
        ts.validate_scheme(scheme, tetra)
    assert err.value.step_index == 0


def test_validate_position_out_of_range(tetra):
    scheme = ts.SweepScheme(
        P("a", "b"), (ts.HomotopyStep("alpha_merge", 3, ("a", "c", "b")),)
    )
    with pytest.raises(SchemeError, match="out of range"):
        ts.validate_scheme(scheme, tetra)


def test_x1_and_degenerate_moves_in_schemes(tetra):
    scheme = ts.SweepScheme(
        P("a", "b"),
        (
            ts.HomotopyStep("x1_insert", 1, ("b", "c")),
            ts.HomotopyStep("deg_insert", 0),
            ts.HomotopyStep("deg_drop", 0),
            ts.HomotopyStep("x1_cancel", 1),
        ),
    )
    paths = ts.validate_scheme(scheme, tetra)
    assert paths[-1] == P("a", "b")
    assert paths[1] == P("a", "b", "c", "b")


def test_x1_cancel_collapses_to_identity(tetra):
    scheme = ts.SweepScheme(P("a", "b", "a"), (ts.HomotopyStep("x1_cancel", 0),))
    assert ts.validate_scheme(scheme, tetra)[-1] == ts.EdgePath.identity("a")


# -- bounded homotopy search ---------------------------------------------------

def test_search_single_expand(tetra):
    scheme = ts.search_homotopy(P("a", "b"), P("a", "c", "b"), tetra, 1)
    assert scheme is not None
    assert len(scheme.steps) == 1
    assert scheme.steps[0].move == "alpha_expand"


def test_search_trivial(tetra):
    scheme = ts.search_homotopy(P("a", "b"), P("a", "b"), tetra, 0)
    assert scheme == ts.SweepScheme(P("a", "b"), ())


def test_search_two_face_route(tetra):
    # oracle: this two-step scheme is valid, so a bound of 4 must succeed
    known = ts.SweepScheme(
        P("a", "b", "d"),
        (
            ts.HomotopyStep("alpha_expand", 0, ("a", "c", "b")),
            ts.HomotopyStep("alpha_merge", 1, ("c", "b", "d")),
        ),
    )
    assert ts.validate_scheme(known, tetra)[-1] == P("a", "c", "d")
    found = ts.search_homotopy(P("a", "b", "d"), P("a", "c", "d"), tetra, 4)
    assert found is not None
    assert len(found.steps) <= 4
    assert ts.validate_scheme(found, tetra)[-1] == P("a", "c", "d")


def test_search_requires_matching_endpoints(tetra):
    with pytest.raises(PathError):
        ts.search_homotopy(P("a", "b"), P("a", "c"), tetra, 2)


def test_search_not_found_within_bound():
    K = ts.SimplicialComplex.build("abc", edges=[("a", "b"), ("a", "c"), ("c", "b")])
    assert ts.search_homotopy(P("a", "b"), P("a", "c", "b"), K, 2) is None


def test_search_gives_up_past_its_node_limit():
    # a backtrack and a 3-step loop through a non-edge: no scheme reaches it,
    # and depth 4 would try about 830,000 moves without the limit
    K = torus_complex(16)
    p = P("v0_0", "v1_0", "v0_0")
    q = P("v0_0", "v8_8", "v8_9", "v0_0")
    assert ts.search_homotopy(p, q, K, 3) is None  # about 10,600 paths: within the limit
    began = time.monotonic()
    with pytest.raises(SchemeError, match=f"gave up past {ts.paths.SEARCH_NODE_LIMIT} paths, at depth 4 of 4"):
        ts.search_homotopy(p, q, K, 4)
    assert time.monotonic() - began < 2.0


def test_search_returns_the_target_that_takes_it_past_its_node_limit(tetra, monkeypatch):
    p = P("a", "b")
    reached = [p]  # the distinct paths of a depth-1 search, in the order it reaches them
    for step in _candidate_moves(p, tetra):
        new = ts.apply_move_path(p, step, tetra)
        if new not in reached:
            reached.append(new)
    q = reached[-1]
    assert len(reached) >= 3
    monkeypatch.setattr(ts.paths, "SEARCH_NODE_LIMIT", len(reached) - 1)
    found = ts.search_homotopy(p, q, tetra, 1)
    assert found is not None and ts.validate_scheme(found, tetra)[-1] == q
    monkeypatch.setattr(ts.paths, "SEARCH_NODE_LIMIT", len(reached) - 2)
    with pytest.raises(SchemeError, match="gave up past"):
        ts.search_homotopy(p, q, tetra, 1)


def test_short_searches_on_a_torus_are_unaffected_by_the_limit():
    # like the searches of the surface-ingest benchmark: depth 3, from a
    # 2-step walk to the path two edge expansions away
    K = torus_complex(16)
    rng = random.Random(5)
    for _ in range(5):
        p = random_walk(K, rng, 2)
        q = p
        for _ in range(2):
            i = rng.randrange(len(q))
            a, b = q.steps[i]
            (apex,) = rng.choice(K.faces_containing_edge(a, b)) - {a, b}
            q = ts.apply_move_path(q, ts.HomotopyStep("alpha_expand", i, (a, apex, b)), K)
        found = ts.search_homotopy(p, q, K, 3)
        assert found is not None and len(found.steps) <= 2
        assert ts.validate_scheme(found, K)[-1] == q


def test_search_results_validate(tetra):
    rng = random.Random(17)
    for _ in range(20):
        p = random_walk(tetra, rng, rng.randrange(1, 4))
        q = random_walk(tetra, rng, rng.randrange(1, 4), start=p.source)
        if p.target != q.target:
            continue
        found = ts.search_homotopy(p, q, tetra, 2)
        if found is None:
            continue
        assert ts.validate_scheme(found, tetra)[-1] == q


# -- scheme files ---------------------------------------------------------------

def test_scheme_json_round_trip(scheme1):
    assert ts.load_scheme(ts.dump_scheme(scheme1)) == scheme1


def test_scheme_dotless_cell_shorthand():
    loaded = ts.load_scheme(
        '{"start": [["a","c"],["c","b"]], "steps": [{"move":"alpha_merge","cell":"acb","position":0}]}'
    )
    assert loaded.steps[0].cell == ("a", "c", "b")


def test_scheme_cell_name_errors_quote_a_bounded_prefix():
    def refusal(cell: str) -> str:
        step = {"move": "alpha_merge", "cell": cell, "position": 0}
        with pytest.raises(SchemeError) as info:
            ts.load_scheme(json.dumps({"start": [["a", "c"], ["c", "b"]], "steps": [step]}))
        return str(info.value)

    assert refusal("a..b") == "step 0: bad cell name 'a..b'"  # a short name is quoted whole
    got = refusal("a." + ".".join(f"v{i}" for i in range(3004)) + ".")
    assert got.startswith("step 0: bad cell name 'a.v0.v1") and len(got) <= 200


def test_scheme_rejects_unknown_move():
    with pytest.raises(SchemeError, match="unknown move"):
        ts.load_scheme('{"start": [["a","b"]], "steps": [{"move":"zig","position":0}]}')


def test_scheme_rejects_a_boolean_position(scheme1):
    obj = json.loads(ts.dump_scheme(scheme1))
    obj["steps"][2]["position"] = True
    with pytest.raises(SchemeError, match='step 2: needs string "move" and integer "position"'):
        ts.load_scheme(json.dumps(obj))


@pytest.mark.parametrize("position", [True, False, 0.5, "1", None])
def test_a_step_built_in_code_refuses_a_position_that_is_not_an_integer(position):
    with pytest.raises(SchemeError, match=f"position {position!r} is not an integer"):
        ts.HomotopyStep("deg_insert", position)


@pytest.mark.parametrize(
    "move, cell",
    [("alpha_expand", "acb"), ("beta_expand", (1, 2, 3, 4)), ("alpha_expand", ["a", "c", "b"])],
    ids=["string", "ints", "list"],
)
def test_a_step_built_in_code_refuses_a_cell_that_is_not_a_tuple_of_strings(move, cell):
    with pytest.raises(SchemeError) as info:
        ts.HomotopyStep(move, 0, cell)
    assert str(info.value) == f"cell {quote(cell)} is not a tuple of vertex names"


def test_dump_scheme_refuses_a_cell_vertex_that_holds_a_dot():
    K = ts.SimplicialComplex.build(["a.1", "b", "c"], [("a.1", "b", "c")])
    expand = ts.HomotopyStep("alpha_expand", 0, ("a.1", "b", "c"))
    scheme = ts.SweepScheme(ts.EdgePath((("a.1", "c"),)), (ts.HomotopyStep("deg_insert", 1), expand))
    assert ts.validate_scheme(scheme, K)[-1] == ts.EdgePath((("a.1", "b"), ("b", "c"), ("c", "c")))
    # the file would join the cell as a.1.b.c, which reads back as four vertices
    with pytest.raises(SchemeError) as info:
        ts.dump_scheme(scheme)
    assert str(info.value) == "step 1: cell vertex 'a.1' holds the cell name separator '.'"
    assert info.value.step_index == 1


def test_dump_scheme_refuses_an_empty_cell_vertex():
    K = ts.SimplicialComplex.build(["", "b", "c"], [("", "b", "c")])
    scheme = ts.SweepScheme(ts.EdgePath((("", "c"),)), (ts.HomotopyStep("alpha_expand", 0, ("", "b", "c")),))
    assert ts.validate_scheme(scheme, K)[-1] == ts.EdgePath((("", "b"), ("b", "c")))
    # the file would join the cell as .b.c, which reads back as a bad cell name
    with pytest.raises(SchemeError) as info:
        ts.dump_scheme(scheme)
    assert str(info.value) == "step 0: cell vertex '' is empty"
    assert info.value.step_index == 0


def test_scheme_rejects_unknown_keys():
    with pytest.raises(SchemeError, match="unknown scheme keys"):
        ts.load_scheme('{"start": [["a","b"]], "steps": [], "zap": 1}')
