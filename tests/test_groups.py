from __future__ import annotations

import itertools
import os
import pickle
import random
import subprocess
import sys

import pytest

import trisweep as ts
from conftest import compose_perms, perm_inverse, random_element
from trisweep.errors import GroupError, quote

FREE_XY = ts.free_group(["x", "y"])
Z12 = ts.cyclic_group(12)
S3 = ts.symmetric_group(3)
S4 = ts.symmetric_group(4)
D4 = ts.dihedral_group(4)
Z2xS3 = ts.product_group(ts.cyclic_group(2), S3)

BACKENDS = (FREE_XY, Z12, S3, D4, Z2xS3)


# -- multiplication, inversion, identity ---------------------------------------

def test_free_cancellation():
    x = ts.parse_element("x", FREE_XY)
    assert ts.multiply(x, ts.inverse(x)) == ts.identity(FREE_XY)


def test_cyclic_modular_addition():
    a = ts.parse_element("7", Z12)
    b = ts.parse_element("8", Z12)
    assert ts.multiply(a, b) == ts.element(Z12, (7 + 8) % 12)


def test_permutation_action_order_pinned():
    # (1 2)*(2 3) must come out as the 3-cycle (1 2 3); this fixes the
    # convention (a*b)(i) = a(b(i)) for the whole backend.
    a = ts.parse_element("(1 2)", S3)
    b = ts.parse_element("(2 3)", S3)
    assert ts.format_element(ts.multiply(a, b)) == "(1 2 3)"
    rng = random.Random(2)
    for _ in range(300):
        u = random_element(S4, rng)
        v = random_element(S4, rng)
        assert ts.multiply(u, v).payload == compose_perms(u.payload, v.payload)
        assert ts.inverse(u).payload == perm_inverse(u.payload)


def test_backend_mismatch_rejected():
    with pytest.raises(GroupError, match="backend mismatch"):
        ts.multiply(ts.identity(S3), ts.identity(Z12))


def many_generators() -> list[str]:
    return ["x", "y"] + [f"phi_{k}" for k in range(480)]


def nested_product() -> ts.GroupDescriptor:
    inner = ts.product_group(ts.cyclic_group(3), ts.free_group(many_generators()))
    return ts.product_group(ts.symmetric_group(3), inner, ts.dihedral_group(4))


@pytest.mark.parametrize("build", [lambda: ts.free_group(many_generators()), nested_product], ids=["free482", "nested"])
def test_descriptors_built_apart_compare_and_hash_alike(build):
    g, h = build(), build()
    assert g is not h
    assert g == h and not g != h
    assert hash(g) == hash(h)
    assert ts.descriptor_from_json(ts.descriptor_to_json(g)) == h
    rng = random.Random(5)
    a, b = random_element(g, rng), random_element(h, rng)
    assert ts.multiply(a, b) == ts.multiply(ts.element(h, a.payload), b)
    assert ts.multiply(a, b).group == g


def test_descriptors_that_differ_compare_unequal():
    assert ts.cyclic_group(4) != ts.dihedral_group(4)
    assert ts.free_group(["x", "y"]) != ts.free_group(["y", "x"])
    assert nested_product() != ts.product_group(ts.symmetric_group(3), ts.cyclic_group(3), ts.dihedral_group(4))
    assert ts.cyclic_group(4) != ("cyclic", 4)


def test_descriptor_pickled_in_another_process_equals_and_hashes_alike():
    # a hash of strings differs between processes; unpickling must not keep it
    code = (
        "import pickle, sys, trisweep as ts;"
        "sys.stdout.buffer.write(pickle.dumps(ts.product_group(ts.free_group(['x', 'y']), ts.cyclic_group(3))))"
    )
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=os.pathsep.join(sys.path))
    blob = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, env=env).stdout
    g = pickle.loads(blob)
    h = ts.product_group(ts.free_group(["x", "y"]), ts.cyclic_group(3))
    assert g == h and hash(g) == hash(h)
    assert {h: 1}[g] == 1


def test_group_axioms_random_triples():
    rng = random.Random(41)
    for group in BACKENDS:
        e = ts.identity(group)
        for _ in range(1000):
            a = random_element(group, rng)
            b = random_element(group, rng)
            c = random_element(group, rng)
            assert ts.multiply(ts.multiply(a, b), c) == ts.multiply(a, ts.multiply(b, c))
            assert ts.multiply(a, e) == a
            assert ts.multiply(e, a) == a
            assert ts.multiply(a, ts.inverse(a)) == e
            assert ts.multiply(ts.inverse(a), a) == e


def test_free_word_length_cap_respected():
    rng = random.Random(1)
    for _ in range(200):
        w = random_element(FREE_XY, rng, max_len=16)
        assert sum(abs(k) for _g, k in w.payload) <= 16 * 3


def test_free_reduction_confluence_random_order():
    # oracle: cancel adjacent mergeable syllables in random order until stable
    rng = random.Random(13)
    for _ in range(300):
        raw = [(rng.choice("xy"), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randrange(12))]
        work = list(raw)
        while True:
            spots = [i for i in range(len(work) - 1) if work[i][0] == work[i + 1][0]]
            spots += [i for i, (_g, k) in enumerate(work) if k == 0]
            if not spots:
                break
            i = rng.choice(spots)
            if i < len(work) - 1 and work[i][0] == work[i + 1][0]:
                g, k1 = work[i]
                _g, k2 = work[i + 1]
                work[i : i + 2] = [(g, k1 + k2)] if k1 + k2 else []
            else:
                del work[i]
        assert ts.element(FREE_XY, raw) == ts.element(FREE_XY, work)


# -- parsing and formatting ------------------------------------------------------

def test_parse_free_word():
    w = ts.parse_element("x*y^-1*x^2", FREE_XY)
    assert w.payload == (("x", 1), ("y", -1), ("x", 2))
    assert ts.format_element(w) == "x*y^-1*x^2"


def test_parse_reduces():
    assert ts.format_element(ts.parse_element("x*x^-1", FREE_XY)) == "e"


def test_parse_cycle_notation():
    assert ts.parse_element("(1 2 3)", S3).payload == (2, 3, 1)
    assert ts.parse_element("[2,3,1]", S3).payload == (2, 3, 1)
    assert ts.parse_element("(1 2)(3 4)", S4).payload == (2, 1, 4, 3)


def test_parse_format_round_trip_random():
    rng = random.Random(29)
    for group in BACKENDS:
        for _ in range(300):
            a = random_element(group, rng)
            assert ts.parse_element(ts.format_element(a), group) == a


def test_parse_errors():
    with pytest.raises(GroupError, match="unknown generator"):
        ts.parse_element("z", FREE_XY)
    with pytest.raises(GroupError, match="syntax error"):
        ts.parse_element("x**y", FREE_XY)
    with pytest.raises(GroupError, match="out of range"):
        ts.parse_element("12", Z12)
    with pytest.raises(GroupError, match="out of range"):
        ts.parse_element("-1", Z12)
    with pytest.raises(GroupError, match="repeated point"):
        ts.parse_element("(1 2)(1 3)", S3)


def test_dihedral_relations():
    r = ts.parse_element("r", D4)
    s = ts.parse_element("s", D4)
    e = ts.identity(D4)
    assert ts.multiply(ts.multiply(ts.multiply(r, r), r) , r) == e
    assert ts.multiply(s, s) == e
    assert ts.multiply(s, r) == ts.multiply(ts.inverse(r), s)
    assert ts.parse_element("r^3*s*r", D4) == ts.parse_element("r^2*s", D4)


def test_product_parse_format():
    a = ts.parse_element('[1, "(1 2)"]', Z2xS3)
    assert ts.format_element(a) == '["1", "(1 2)"]'
    assert ts.parse_element(ts.format_element(a), Z2xS3) == a


def test_a_product_payload_is_the_tuple_of_its_factors_payloads():
    a = ts.parse_element('["1", "(1 2)"]', Z2xS3)
    assert a.payload == (1, (2, 1, 3))
    # element takes the factors' raw payloads and normalises each component
    assert ts.element(Z2xS3, (3, [2, 1, 3])) == a
    g, rng = nested_product(), random.Random(11)
    for _ in range(20):
        b = random_element(g, rng)
        assert ts.element(g, b.payload) == b


@pytest.mark.parametrize("factor", BACKENDS, ids=[g.kind for g in BACKENDS])
def test_a_product_component_may_be_an_element_of_its_factor_and_of_no_other_group(factor):
    # the benchmark's multiply probe builds product elements from factor elements
    g, a = ts.product_group(factor, Z12), ts.identity(factor)
    assert ts.element(g, (a, 5)) == ts.element(g, (a.payload, 5))
    with pytest.raises(GroupError, match="^bad product element"):
        ts.element(g, (ts.identity(ts.cyclic_group(7)), 5))


@pytest.mark.parametrize("payload", [(1,), (1, (1, 2, 3), 0)], ids=["one", "three"])
def test_a_product_payload_with_the_wrong_component_count_is_a_group_error(payload):
    with pytest.raises(GroupError, match="product element needs 2 components"):
        ts.element(Z2xS3, payload)


# -- finite-group utilities -------------------------------------------------------

def _perm_center_oracle(n: int) -> set[tuple[int, ...]]:
    elems = list(itertools.permutations(range(1, n + 1)))
    return {
        z for z in elems if all(compose_perms(z, u) == compose_perms(u, z) for u in elems)
    }


def test_center_s3():
    assert _perm_center_oracle(3) == {(1, 2, 3)}
    assert [ts.format_element(z) for z in ts.center(S3)] == ["e"]


def test_center_s4():
    assert _perm_center_oracle(4) == {(1, 2, 3, 4)}
    assert [ts.format_element(z) for z in ts.center(S4)] == ["e"]


def test_center_cyclic_is_everything():
    Z4 = ts.cyclic_group(4)
    assert ts.center(Z4) == ts.enumerate_elements(Z4)


def test_center_dihedral():
    # oracle: realize the square symmetries as permutations of the corners
    r = (2, 3, 4, 1)
    s = (1, 4, 3, 2)
    elems = set()
    for k in range(4):
        rk = (1, 2, 3, 4)
        for _ in range(k):
            rk = compose_perms(rk, r)
        elems.add(rk)
        elems.add(compose_perms(rk, s))
    assert len(elems) == 8
    central = {z for z in elems if all(compose_perms(z, u) == compose_perms(u, z) for u in elems)}
    assert len(central) == 2
    assert [ts.format_element(z) for z in ts.center(D4)] == ["e", "r^2"]


def test_center_infinite_backend_rejected():
    with pytest.raises(GroupError, match="infinite backend"):
        ts.center(FREE_XY)
    with pytest.raises(GroupError, match="infinite backend"):
        ts.enumerate_elements(FREE_XY)


# every finite kind, trivial and small degenerate cases included
GENERATED_GROUPS = {
    "S1": ts.symmetric_group(1),
    "S2": ts.symmetric_group(2),
    "S3": S3,
    "S5": ts.symmetric_group(5),
    "Z1": ts.cyclic_group(1),
    "Z60": ts.cyclic_group(60),
    "D1": ts.dihedral_group(1),
    "D2": ts.dihedral_group(2),
    "D40": ts.dihedral_group(40),
    "free()": ts.free_group([]),
    "Z1xS3": ts.product_group(ts.cyclic_group(1), S3),
    "S1xD2xfree()": ts.product_group(ts.symmetric_group(1), ts.dihedral_group(2), ts.free_group([])),
    "Z2x(S3xZ4)xD3": ts.product_group(
        ts.cyclic_group(2), ts.product_group(S3, ts.cyclic_group(4)), ts.dihedral_group(3)
    ),
}


@pytest.mark.parametrize("name", GENERATED_GROUPS)
def test_center_by_generators_matches_the_exhaustive_center(name):
    group = GENERATED_GROUPS[name]
    assert ts.center_obstruction_check(group) == ts.center(group)


def test_center_obstruction_check_refuses_a_free_group():
    with pytest.raises(GroupError, match="infinite backend"):
        ts.center_obstruction_check(FREE_XY)


def test_group_order():
    assert ts.group_order(S4) == 24
    assert ts.group_order(D4) == 8
    assert ts.group_order(Z2xS3) == 12
    assert ts.group_order(FREE_XY) is None


@pytest.mark.parametrize(
    ("group", "order"),
    [
        (ts.free_group([]), 1),
        (ts.free_group(["x"]), None),
        (ts.cyclic_group(7), 7),
        (ts.symmetric_group(4), 24),
        (ts.dihedral_group(5), 10),
        (ts.product_group(ts.cyclic_group(3), ts.dihedral_group(2)), 12),
        (ts.product_group(ts.cyclic_group(3), ts.free_group(["x"])), None),
    ],
    ids=["free0", "free1", "Z7", "S4", "D5", "Z3xD2", "Z3xfree1"],
)
def test_finiteness_follows_group_order(group, order):
    assert ts.group_order(group) == order
    assert ts.is_finite(group) == (order is not None)
    if order is None:
        with pytest.raises(GroupError, match="infinite backend"):
            ts.enumerate_elements(group)
    else:
        assert len(set(ts.enumerate_elements(group))) == order
    assert ts.descriptor_from_json(ts.descriptor_to_json(group)) == group


# -- descriptors --------------------------------------------------------------------

def test_descriptor_json_round_trip():
    for group in BACKENDS:
        assert ts.descriptor_from_json(ts.descriptor_to_json(group)) == group


def test_descriptor_rejects_garbage():
    with pytest.raises(GroupError):
        ts.descriptor_from_json({"free": ["x"], "cyclic": 3})
    with pytest.raises(GroupError):
        ts.descriptor_from_json({"swirl": 3})


@pytest.mark.parametrize(
    "group, payload",
    [
        (ts.dihedral_group(4), (1, 2, 3)),
        (ts.cyclic_group(12), "x"),
        (ts.free_group(["x"]), [("x",)]),
        (ts.symmetric_group(3), 5),
    ],
    ids=["dihedral-triple", "cyclic-text", "free-short-syllable", "symmetric-int"],
)
def test_malformed_payload_is_a_group_error(group, payload):
    with pytest.raises(GroupError, match="bad"):
        ts.element(group, payload)


@pytest.mark.parametrize(
    "group",
    [ts.cyclic_group(10**12), ts.symmetric_group(20), ts.product_group(S4, ts.dihedral_group(21))],
    ids=["Z_10^12", "S20", "S4xD21"],
)
def test_whole_group_operations_stop_at_the_enumeration_limit(group):
    limit = ts.groups.ENUMERATION_LIMIT
    order = ts.group_order(group)
    assert order > limit
    message = f"order {order} is above the enumeration limit of {limit}"
    K = ts.SimplicialComplex.build("ab", edges=[("a", "b")])
    e = ts.identity(group)
    f = ts.Connection1.constant(group, K, e)
    section = ts.Section(ts.EdgePath((("a", "b"),)), (e,))
    whole_group_calls = [
        lambda: ts.enumerate_elements(group),
        lambda: ts.center(group),
        lambda: ts.center_obstruction_check(group),
        lambda: ts.find_isomorphism(f, f),
        # with both path vertices movable nothing pins the root value, so it is searched for
        lambda: ts.sections_gauge_equivalent(section, section, movable={"a", "b"}),
    ]
    for call in whole_group_calls:
        with pytest.raises(GroupError, match=message):
            call()


# each whole-group call, given the group, a section s, its twist t and a constant connection f,
# with the error it refuses an infinite group by
INFINITE_GROUP_REFUSALS = {
    "enumerate_elements": (lambda group, s, t, f: ts.enumerate_elements(group), GroupError),
    "center": (lambda group, s, t, f: ts.center(group), GroupError),
    "center_obstruction_check": (lambda group, s, t, f: ts.center_obstruction_check(group), GroupError),
    # with both path vertices movable nothing pins the root value, so it is searched for
    "sections_gauge_equivalent": (
        lambda group, s, t, f: ts.sections_gauge_equivalent(s, t, movable={"a", "b"}),
        GroupError,
    ),
    "find_isomorphism": (lambda group, s, t, f: ts.find_isomorphism(f, f), ts.BundleError),
}


@pytest.mark.parametrize("operation", list(INFINITE_GROUP_REFUSALS))
@pytest.mark.parametrize(
    "group, x, y",
    [
        (FREE_XY, (("x", 1),), (("y", 1),)),
        (ts.product_group(ts.cyclic_group(3), ts.free_group(["x"])), (1, (("x", 1),)), (0, (("x", 1),))),
    ],
    ids=["free(x,y)", "Z_3xfree(x)"],
)
def test_whole_group_operations_refuse_an_infinite_group(group, x, y, operation):
    K = ts.SimplicialComplex.build("ab", edges=[("a", "b")])
    e = ts.identity(group)
    f = ts.Connection1.constant(group, K, e)
    # the letters (x, e) over a->b->a twisted by n_a = y: a gauge exists, and over free(x, y)
    # only a root value other than the identity finds it, so no root may be guessed
    s = ts.Section(ts.EdgePath.from_vertices("a", "b", "a"), (ts.element(group, x), e))
    t = ts.twist_section(s, ts.GaugeTransform.build(group, {"a": ts.element(group, y)}))
    call, error = INFINITE_GROUP_REFUSALS[operation]
    with pytest.raises(error, match="infinite backend"):
        call(group, s, t, f)


@pytest.mark.parametrize(
    "group",
    [
        ts.symmetric_group(1700),
        ts.symmetric_group(10**6),
        ts.product_group(ts.cyclic_group(2), ts.symmetric_group(2000)),
        ts.cyclic_group(10**700),
    ],
    ids=["S1700", "S10^6", "Z2xS2000", "Z_10^700"],
)
def test_huge_orders_are_refused_without_being_stated_in_full(group):
    assert ts.is_finite(group)
    with pytest.raises(GroupError, match=r"order over 10\^600 is above the enumeration limit of 1000"):
        ts.enumerate_elements(group)


def test_a_symmetric_degree_above_the_limit_builds_no_permutation():
    limit = ts.groups.SYMMETRIC_DEGREE_LIMIT
    assert limit == 10_000
    big = ts.symmetric_group(limit + 1)  # the descriptor itself holds one integer
    message = rf"^symmetric degree {limit + 1} is above the limit of {limit}$"
    for call in (
        lambda: ts.identity(big),
        lambda: ts.parse_element("e", big),
        lambda: ts.element(big, range(1, limit + 2)),
    ):
        with pytest.raises(GroupError, match=message):
            call()
    at_limit = ts.symmetric_group(limit)
    e = ts.identity(at_limit)
    assert ts.parse_element("e", at_limit) == e == ts.element(at_limit, range(1, limit + 1))
    assert ts.format_element(ts.parse_element(f"(1 {limit})", at_limit)) == f"(1 {limit})"


def test_enumeration_limit_is_inclusive():
    group = ts.cyclic_group(ts.groups.ENUMERATION_LIMIT)
    assert len(ts.enumerate_elements(group)) == ts.groups.ENUMERATION_LIMIT


LONG = "1" + "0" * 4000  # below the int-to-str limit, far above a readable line


@pytest.mark.parametrize(
    "text, group",
    [
        (LONG, Z12),
        (f"x{'y' * 4000}", ts.free_group(["x"])),
        (f"r*t{'y' * 4000}", ts.dihedral_group(5)),
        (f"(1 2)({LONG})", S3),
        ("[" + ", ".join(["1"] * 900) + "]", ts.symmetric_group(900)),
        (f'["{LONG}", "0"]', ts.product_group(Z12, Z12)),
        ("[" * 5000, ts.product_group(Z12, Z12)),
        (["0"] * 5000, Z12),
    ],
    ids=["residue", "free-generator", "dihedral-generator", "cycle-point", "one-line", "product", "nested", "non-string"],
)
def test_errors_quote_a_bounded_prefix_of_the_element(text, group):
    with pytest.raises(GroupError) as info:
        ts.parse_element(text, group)
    assert len(str(info.value)) <= 200


@pytest.mark.parametrize(
    "group, payload",
    [(ts.cyclic_group(5), "x" * 100_000), (S3, ["x"] * 100_000), (S3, [[1]] * 100_000)],
    ids=["cyclic-text", "symmetric-texts", "symmetric-lists"],
)
def test_element_quotes_a_bounded_prefix_of_the_payload(group, payload):
    # the payload is quoted through errors.quote; the interpreter's own text after it stays short too
    with pytest.raises(GroupError) as info:
        ts.element(group, payload)
    assert str(info.value).startswith(f"bad {group.kind} element {quote(payload)}: ")
    assert len(str(info.value)) < 400


def test_product_descriptors_nest_up_to_the_limit():
    def nested(levels: int) -> dict:
        obj = {"cyclic": 2}
        for _ in range(levels):
            obj = {"product": [{"cyclic": 3}, obj]}
        return obj

    limit = ts.groups.PRODUCT_NESTING_LIMIT
    deepest = ts.descriptor_from_json(nested(limit))
    assert ts.descriptor_to_json(deepest) == nested(limit)
    assert ts.group_order(deepest) == 2 * 3**limit
    with pytest.raises(GroupError, match=f"nest more than {limit} levels deep"):
        ts.descriptor_from_json(nested(limit + 1))
    with pytest.raises(GroupError, match="nest more than"):
        ts.descriptor_from_json({"product": [{"cyclic": 2}, nested(limit)]})
