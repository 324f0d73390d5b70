"""Property tests: group axioms, the element methods against the module
operations over the finite backends, the free-group product, the
closed-form centers, the product operations against their
factors' operations, the isomorphism search against
propagation along a spanning tree, element text round trips, record
equality, moves undone by their inverses, the abelian flux law of a
whole scheme, whole runs and validations against their moves one at a
time, complex and scheme file round trips, the gauge covariance
of the defects, the section gauge search against a brute-force search,
the expand moves across the cells of random complexes, the cell-support
rule, and the set-level ingest checks and bulk file readers against
per-entry scans."""

from __future__ import annotations

import itertools
import json
import random
import typing
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

import trisweep as ts  # noqa: E402
from conftest import (  # noqa: E402
    band_complex,
    product_of_letters,
    random_connection1,
    random_connection2,
    random_element,
    random_gauge,
    random_section,
    random_walk,
    torus_complex,
    tree_propagation_search,
)
from test_boundary import random_scheme  # noqa: E402
from test_records import CASES as RECORD_CASES  # noqa: E402
from test_sweep import SWEEP_A, SWEEP_C, runs_in_sorted_cyclic_order  # noqa: E402
from trisweep.errors import quote  # noqa: E402
from trisweep.groups import _reduce_free  # noqa: E402
from trisweep.paths import _candidate_moves, cell_sides  # noqa: E402
from trisweep.sweep import _parse_cell_key, _parse_edge_key  # noqa: E402

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
        payloads = st.tuples(*(elements(f).map(lambda a: a.payload) for f in group.factors))
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


@pytest.mark.parametrize("kind", sorted(set(BACKENDS) - {"free"}))
@given(data=st.data())
def test_element_methods_are_the_module_operations(kind, data):
    a, b = (data.draw(elements(BACKENDS[kind])) for _ in range(2))
    assert a * b == ts.multiply(a, b)
    assert a.inverse() == ts.inverse(a)
    assert str(a) == ts.format_element(a)


@given(data=st.data())
def test_free_multiply_equals_the_reduction_of_the_joined_words(data):
    a, c = data.draw(elements(FREE)), data.draw(elements(FREE))
    # b opens with the inverse of a's last k syllables, so that long cancellations come up
    k = data.draw(st.integers(0, len(a.payload)))
    b = ts.element(FREE, ts.inverse(a).payload[:k] + c.payload)
    assert ts.multiply(a, b).payload == _reduce_free(a.payload + b.payload)


def finite_groups(max_order: int) -> st.SearchStrategy:
    """Every finite backend, of order at most ``max_order``: the free group on no generators among them."""
    options = [
        st.integers(1, max_order).map(ts.cyclic_group),
        st.integers(1, 5).map(ts.symmetric_group),
        st.just(ts.free_group([])),
    ]
    if max_order >= 2:
        options.append(st.integers(1, max_order // 2).map(ts.dihedral_group))
    return st.one_of(options).filter(lambda G: ts.group_order(G) <= max_order)


# a product of two finite backends, up to order 200
FINITE_PRODUCTS = finite_groups(100).flatmap(
    lambda G: finite_groups(200 // ts.group_order(G)).map(lambda H: ts.product_group(G, H))
)
# one backend, or a product of two, up to order 200
CENTER_GROUPS = st.one_of(finite_groups(200), FINITE_PRODUCTS)


@given(CENTER_GROUPS)
def test_the_closed_form_center_is_the_exhaustive_center(group):
    assert ts.center_obstruction_check(group) == ts.center(group)


@given(group=CENTER_GROUPS, oriented=st.booleans(), data=st.data())
def test_the_sweeps_agree_from_every_start_letter_exactly_when_a_drawn_cell_value_is_central(tetra, group, oriented, data):
    """The center obstruction through the sweep engine, on the tetrahedron's trivial connective structure.

    Every edge carries the identity and every marking z (or, under the oriented
    rule, z against the sorted face's cyclic order gets z^-1); z is drawn from
    the center half the time, so that both verdicts are drawn often.
    """
    elements = ts.enumerate_elements(group)
    z = data.draw(st.one_of(st.sampled_from(ts.center(group)), st.sampled_from(elements)))
    alpha = {m: z if not oriented or runs_in_sorted_cyclic_order(m) else ts.inverse(z) for m in tetra.markings()}
    conn = ts.Connection2.build(ts.Connection1.constant(group, tetra, ts.identity(group)), alpha)
    starts = (ts.Section(ts.EdgePath.identity("a"), (w,)) for w in elements)
    agree = all(ts.compare_schemes(SWEEP_A, SWEEP_C, start, conn).verdict == "equal" for start in starts)
    assert agree == (z in ts.center_obstruction_check(group))


def components(a: ts.GroupElement) -> list[ts.GroupElement]:
    """The factor elements of a product element, each built by its factor's ``element``."""
    return [ts.element(f, p) for f, p in zip(a.group.factors, a.payload)]


@given(data=st.data())
def test_product_operations_are_the_factors_operations_component_by_component(data):
    group = data.draw(FINITE_PRODUCTS)
    factor_lists = [ts.enumerate_elements(f) for f in group.factors]
    a_parts, b_parts = ([data.draw(st.sampled_from(elems)) for elems in factor_lists] for _ in range(2))
    a, b = (ts.element(group, tuple(x.payload for x in parts)) for parts in (a_parts, b_parts))
    assert components(a) == a_parts and components(b) == b_parts
    assert components(ts.multiply(a, b)) == [ts.multiply(x, y) for x, y in zip(a_parts, b_parts)]
    assert components(ts.inverse(a)) == [ts.inverse(x) for x in a_parts]
    assert components(ts.identity(group)) == [ts.identity(f) for f in group.factors]
    assert ts.format_element(a) == json.dumps([ts.format_element(x) for x in a_parts])
    assert [components(x) for x in ts.enumerate_elements(group)] == [list(t) for t in itertools.product(*factor_lists)]
    factor_centers = [ts.center_obstruction_check(f) for f in group.factors]
    assert [components(z) for z in ts.center_obstruction_check(group)] == [list(t) for t in itertools.product(*factor_centers)]


# cyclic, odd and even dihedral, S_3 and Z_3 x S_3
ISOMORPHISM_GROUPS = [
    ts.cyclic_group(5), ts.cyclic_group(6), ts.dihedral_group(3), ts.dihedral_group(5),
    ts.dihedral_group(4), ts.dihedral_group(6), ts.symmetric_group(3), Z3xS3,
]
ISOMORPHISM_TORI = [torus_complex(3), torus_complex(4)]


@given(seed=st.integers(0, 2**32 - 1), group=st.sampled_from(ISOMORPHISM_GROUPS), K=st.sampled_from(ISOMORPHISM_TORI))
def test_find_isomorphism_is_the_tree_propagation_search(seed, group, K):
    rng = random.Random(seed)
    f = random_connection1(K, group, rng)
    related = ts.gauge_transform(f, random_gauge(K, group, rng))
    values = dict(related.edge_values)
    values[rng.choice(K.sorted_edges)] = random_element(group, rng)
    one_edge_off = ts.Connection1.build(group, K, values)
    for g in (related, one_edge_off, random_connection1(K, group, rng)):
        found = ts.find_isomorphism(f, g)
        assert (None if found is None else dict(found.values)) == tree_propagation_search(f, g)
    assert ts.find_isomorphism(f, related) is not None


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


ABELIAN = [ts.cyclic_group(7), ts.product_group(ts.cyclic_group(4), ts.cyclic_group(6))]


@given(seed=st.integers(0, 2**32 - 1), group=st.sampled_from(ABELIAN))
def test_over_an_abelian_group_the_letters_product_changes_by_the_swept_cells_only(seed, group):
    # a discrete Stokes law, read off the scheme alone: each expansion multiplies the product of the letters
    # by its cell value phi, each merge by phi^-1, and no other move changes it
    rng = random.Random(seed)
    conn = random_connection2(TORUS, group, rng)
    start = random_section(TORUS, group, rng, rng.randrange(1, 6), stay_prob=0.2)
    scheme = random_scheme(TORUS, start.path, rng, 40)
    expected = product_of_letters(start.letters)
    for step in scheme.steps:
        if step.move.startswith(("alpha", "beta")):
            cell = step.cell
            phi = conn.alpha_value(*cell) if len(cell) == 3 else conn.beta_value(*cell[:3])
            expected = ts.multiply(expected, phi if step.move.endswith("expand") else ts.inverse(phi))
    assert product_of_letters(ts.run_scheme(start, scheme, conn).final.letters) == expected


@given(seed=st.integers(0, 2**32 - 1))
def test_dump_then_load_scheme_is_the_identity(seed):
    rng = random.Random(seed)
    start = random_walk(TORUS, rng, rng.randrange(1, 6), stay_prob=0.2)
    scheme = random_scheme(TORUS, start, rng, rng.randrange(0, 20))
    assert ts.load_scheme(ts.dump_scheme(scheme)) == scheme


def stepwise_run(start: ts.Section, scheme: ts.SweepScheme, conn: ts.Connection2):
    """Every section of the scheme, by one ``apply_move_section`` on a plain section per move, or the failing step's error."""
    sections = [start]
    for k, step in enumerate(scheme.steps):
        try:
            sections.append(ts.apply_move_section(sections[-1], step, conn))
        except ts.SweepError as exc:
            return ts.SweepError, f"step {k}: {exc}", k
    return sections


def stepwise_paths(scheme: ts.SweepScheme, K: ts.SimplicialComplex):
    """Every path of the scheme, by one ``apply_move_path`` per move, or the failing step's error."""
    paths = [scheme.start_path]
    for k, step in enumerate(scheme.steps):
        try:
            paths.append(ts.apply_move_path(paths[-1], step, K))
        except ts.SchemeError as exc:
            return ts.SchemeError, f"step {k}: {exc}", k
    return paths


def damage_move(rng: random.Random, start: ts.EdgePath, steps: list, k: int, damage: str) -> None:
    """Damage move k of ``steps`` in place, by a "path" or an "unsupported" damage; the moves before k must apply."""
    step = steps[k]
    if damage == "path":  # a shifted move may still apply: the outcomes must agree either way
        steps[k] = ts.HomotopyStep(step.move, rng.choice([step.position + 1, step.position + 3, 1000]), step.cell)
    else:  # an expansion or insertion at a step of the path, on a cell the torus lacks
        path = stepwise_paths(ts.SweepScheme(start, tuple(steps[:k])), TORUS)[-1]
        i = rng.randrange(len(path))
        a, b = path.steps[i]
        if a != b and rng.random() < 0.5:
            apex = rng.choice([v for v in TORUS.sorted_vertices if not TORUS.supports((a, v, b))])
            steps[k] = ts.HomotopyStep("alpha_expand", i, (a, apex, b))
        else:
            far = rng.choice([v for v in TORUS.sorted_vertices if not TORUS.supports((a, v))])
            steps[k] = ts.HomotopyStep("x1_insert", i, (a, far))


def without_value(conn: ts.Connection2, cell: tuple[str, ...]) -> ts.Connection2:
    """The connection with no value for ``cell``: a loop cell c.a.b.c takes the value of a.b.c."""
    alpha = dict(conn.alpha_values)
    alpha.pop(cell if len(cell) == 3 else cell[1:], None)
    return ts.Connection2(conn.base, alpha)


def damage_one_step(rng: random.Random, start: ts.EdgePath, steps: list, conn: ts.Connection2, damage: str) -> ts.Connection2:
    """Damage one move of ``steps`` in place, or its cell's value; returns the connection to run on."""
    k = rng.randrange(len(steps))
    if damage != "missing":
        damage_move(rng, start, steps, k, damage)
        return conn
    cells = [step.cell for step in steps if step.cell is not None and len(step.cell) > 2]
    return without_value(conn, rng.choice(cells)) if cells else conn


def damage_two_steps(rng: random.Random, start: ts.EdgePath, steps: list, conn: ts.Connection2, kinds: tuple) -> ts.Connection2:
    """Damage two distinct moves of ``steps`` in place, one per kind, the later move first; returns the connection to run on.

    A "missing" damage removes the value of its own move's cell, so it
    falls on a triangle or loop move.
    """
    picked: dict[int, str] = {}
    for kind in kinds:
        eligible = [k for k, step in enumerate(steps) if k not in picked and (kind != "missing" or step.move.startswith(("alpha", "beta")))]
        hypothesis.assume(eligible)
        picked[rng.choice(eligible)] = kind
    for k in sorted(picked, reverse=True):  # so that the moves before each damaged one still apply
        if picked[k] == "missing":
            conn = without_value(conn, steps[k].cell)
        else:
            damage_move(rng, start, steps, k, picked[k])
    return conn


@given(
    seed=st.integers(0, 2**32 - 1),
    group=st.sampled_from([FREE, S4, D5, Z3xS3]),
    damage=st.sampled_from([None, "path", "unsupported", "missing"]),
)
def test_a_run_and_a_validation_are_their_moves_one_at_a_time(seed, group, damage):
    # validate first on one copy of the scheme and run first on another, so that
    # the second call of each reads the replay the first stored
    rng = random.Random(seed)
    conn = random_connection2(TORUS, group, rng)
    start = random_section(TORUS, group, rng, rng.randrange(1, 5), stay_prob=0.2)
    steps = list(random_scheme(TORUS, start.path, rng, rng.randrange(1, 12)).steps)
    if damage is not None:
        conn = damage_one_step(rng, start.path, steps, conn, damage)
    expected_sections = stepwise_run(start, ts.SweepScheme(start.path, tuple(steps)), conn)
    expected_paths = stepwise_paths(ts.SweepScheme(start.path, tuple(steps)), TORUS)

    def check_run(scheme: ts.SweepScheme) -> None:
        try:
            trace = ts.run_scheme(start, scheme, conn)
        except ts.TrisweepError as exc:
            assert (type(exc), str(exc), exc.step_index) == expected_sections
        else:
            assert trace.final == expected_sections[-1]
            assert ts.sweep.trace_to_json(trace) == [ts.sweep.section_to_json(s) for s in expected_sections]
            assert list(trace.sections) == expected_sections

    def check_validate(scheme: ts.SweepScheme) -> None:
        try:
            paths = ts.validate_scheme(scheme, TORUS)
        except ts.TrisweepError as exc:
            assert (type(exc), str(exc), exc.step_index) == expected_paths
        else:
            assert paths[-1] == expected_paths[-1] and list(paths) == expected_paths

    for checks in ((check_validate, check_run), (check_run, check_validate)):
        scheme = ts.SweepScheme(start.path, tuple(steps))
        for check in checks + checks:
            check(scheme)


DAMAGE = st.sampled_from(["path", "unsupported", "missing"])


@given(seed=st.integers(0, 2**32 - 1), group=st.sampled_from([FREE, S4, D5, Z3xS3]), kinds=st.tuples(DAMAGE, DAMAGE))
def test_of_two_faults_a_run_and_a_validation_name_the_one_their_moves_one_at_a_time_meet_first(seed, group, kinds):
    # a run and a validation check a scheme in bulk first: with two faults of any kinds they must still
    # name the first one, with the text and step index of the moves made one at a time
    rng = random.Random(seed)
    conn = random_connection2(TORUS, group, rng)
    start = random_section(TORUS, group, rng, rng.randrange(1, 5), stay_prob=0.2)
    steps = list(random_scheme(TORUS, start.path, rng, rng.randrange(2, 12)).steps)
    conn = damage_two_steps(rng, start.path, steps, conn, kinds)
    scheme = ts.SweepScheme(start.path, tuple(steps))
    for outcome, expected in (
        (lambda: list(ts.run_scheme(start, scheme, conn).sections), stepwise_run(start, scheme, conn)),
        (lambda: list(ts.validate_scheme(scheme, TORUS)), stepwise_paths(scheme, TORUS)),
    ):
        try:
            got = outcome()
        except ts.TrisweepError as exc:
            got = type(exc), str(exc), exc.step_index
        assert got == expected


S3 = ts.symmetric_group(3)


@given(seed=st.integers(0, 2**32 - 1))
def test_two_holonomy_is_gauge_covariant(seed):
    # twisting both sections by n turns defect i into n_q^-1 * defect_i * n_q, q the target of step i
    rng = random.Random(seed)
    initial = random_section(TORUS, S3, rng, rng.randrange(1, 6), stay_prob=0.2)
    final = ts.Section(initial.path, tuple(random_element(S3, rng) for _ in initial.letters))
    n = random_gauge(TORUS, S3, rng)
    report = ts.two_holonomy(initial, final)
    twisted = ts.two_holonomy(ts.twist_section(initial, n), ts.twist_section(final, n))
    conjugated = tuple(
        ts.multiply(ts.multiply(ts.inverse(n.get(q)), d), n.get(q)) for (_p, q), d in zip(initial.path.steps, report.defects)
    )
    assert twisted.defects == conjugated
    e = ts.identity(S3)
    assert report.gauge_used == ts.GaugeTransform.build(S3, {v: e for v in ts.interior_vertices(initial.path)})


GAUGE_GROUPS = [S3, ts.cyclic_group(4)]
GAUGE_COMPLEXES = [ts.load_complex(ts.data_path("tetrahedron.json").read_text()), torus_complex(3)]


def brute_force_gauge_exists(s: ts.Section, t: ts.Section, movable: set[str]) -> bool:
    """Oracle: try every gauge on the movable vertices of the path, the others held at the identity."""
    group = s.letters[0].group
    free = sorted(movable & set(s.path.vertices))
    e = ts.identity(group)
    for values in itertools.product(ts.enumerate_elements(group), repeat=len(free)):
        n = dict(zip(free, values))
        if all(
            ts.multiply(ts.multiply(ts.inverse(n.get(p, e)), sl), n.get(q, e)) == tl
            for (p, q), sl, tl in zip(s.path.steps, s.letters, t.letters)
        ):
            return True
    return False


@given(
    seed=st.integers(0, 2**32 - 1),
    group=st.sampled_from(GAUGE_GROUPS),
    K=st.sampled_from(GAUGE_COMPLEXES),
    length=st.integers(1, 6),
)
def test_sections_gauge_equivalent_is_the_brute_force_search(seed, group, K, length):
    rng = random.Random(seed)
    s = random_section(K, group, rng, length, stay_prob=0.15)
    pool = sorted(set(s.path.vertices) | {rng.choice(K.sorted_vertices)})  # one vertex may lie off the path
    # at most four movable vertices keep the brute force small; some draws pin no vertex of the path
    size = len(pool) if len(pool) <= 4 and rng.random() < 0.3 else rng.randint(0, min(4, len(pool)))
    movable = set(rng.sample(pool, size))
    kind = rng.randrange(3)
    if kind == 2:  # unrelated letters
        t = ts.Section(s.path, tuple(random_element(group, rng) for _ in s.letters))
    else:  # a twist on the movable vertices, or on every vertex of the complex
        support = movable if kind == 0 else K.sorted_vertices
        t = ts.twist_section(s, ts.GaugeTransform.build(group, {v: random_element(group, rng) for v in support}))
    found = ts.sections_gauge_equivalent(s, t, movable)
    assert (found is not None) == brute_force_gauge_exists(s, t, movable)
    if found is not None:
        assert ts.twist_section(s, found) == t
        assert set(found.vertices()) <= movable


VERTICES = "pqrstu"
# faces on up to six vertices, plus edges that may lie in no face
COMPLEXES = st.builds(
    lambda faces, edges: ts.SimplicialComplex.build(set(VERTICES), faces, edges),
    st.lists(st.sets(st.sampled_from(VERTICES), min_size=3, max_size=3), max_size=8),
    st.lists(st.sets(st.sampled_from(VERTICES), min_size=2, max_size=2), max_size=3),
)


def cells(K: ts.SimplicialComplex):
    """Each cell of each marking (a, c, b) of the complex, the triangle a.c.b and the loop c.a.b.c, with its short and long side."""
    for a, c, b in K.markings():
        for cell in ((a, c, b), (c, a, b, c)):
            yield (cell, *map(ts.EdgePath, cell_sides(cell)))


@given(COMPLEXES)
def test_the_expand_move_on_a_cells_short_side_gives_its_long_side(K):
    for cell, short, long in cells(K):
        if len(cell) == 3:
            step = ts.HomotopyStep("alpha_expand", 0, cell)
        else:
            assert short.is_identity() and len(long) == 3
            step = ts.HomotopyStep("beta_expand", 0, cell)
        assert ts.apply_move_path(short, step, K) == long


@given(COMPLEXES)
def test_the_flat_connection_has_a_value_on_exactly_the_alpha_cells(K):
    flat = ts.Connection2.flat(ts.cyclic_group(2), K)
    # the alpha cells (source, apex, target): every ordering of each face's three vertices
    alpha = [cell for face in K.triangles for cell in itertools.permutations(face)]
    assert [key for key, _ in flat.alpha_values] == sorted(alpha)


@given(COMPLEXES, st.booleans())
def test_dump_then_load_complex_is_the_identity(K, pure):
    K = ts.SimplicialComplex(K.vertices, K.triangles, K.edges, pure)
    assert ts.load_complex(ts.dump_complex(K)) == K


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


# -- set-level ingest checks against per-entry scans --------------------------------

SURFACES = [torus_complex(3), torus_complex(4), band_complex(3), band_complex(5)]
FOREIGN = ts.cyclic_group(5)


def scanned_diagnostics(K: ts.SimplicialComplex, pure: bool) -> list[ts.Diagnostic]:
    """What ``validate_complex`` lists, each entry checked on its own against the raw fields."""
    out = []
    for t in sorted(tuple(sorted(t)) for t in K.triangles):
        name = "{%s}" % ",".join(t)
        out += [ts.Diagnostic("closure", name, f"triangle {name} references undeclared vertex {v}") for v in t if v not in K.vertices]
        for pair in itertools.combinations(t, 2):
            if frozenset(pair) not in K.edges:
                pair_name = "{%s}" % ",".join(pair)
                out.append(ts.Diagnostic("closure", pair_name, f"edge {pair_name} of triangle {name} is missing"))
    edges = sorted(tuple(sorted(e)) for e in K.edges)
    for e in edges:
        name = "{%s}" % ",".join(e)
        out += [ts.Diagnostic("closure", name, f"edge {name} references undeclared vertex {v}") for v in e if v not in K.vertices]
    if pure:
        for v in sorted(K.vertices):
            if not any(v in t for t in K.triangles):
                out.append(ts.Diagnostic("pure_dim2", v, f"vertex {v} not in any 2-simplex"))
        for e in edges:
            if not any(frozenset(e) <= t for t in K.triangles):
                name = "{%s}" % ",".join(e)
                out.append(ts.Diagnostic("pure_dim2", name, f"edge {name} not in any 2-simplex"))
    return out


def first_size_fault(triangles: set, edges: set) -> str | None:
    """The constructor's refusal, each simplex checked on its own: the first of the wrong size in sorted order, triangles first."""
    for what, simplices, size, count in (("triangle", triangles, 3, "three"), ("edge", edges, 2, "two")):
        for s in sorted(tuple(sorted(s)) for s in simplices):
            if len(s) != size:
                return f"{what} {{{','.join(s)}}} needs {count} distinct vertices"
    return None


@given(seed=st.integers(0, 2**32 - 1), require_pure=st.booleans())
def test_validate_complex_lists_what_a_per_entry_scan_finds_on_damaged_surfaces(seed, require_pure):
    rng = random.Random(seed)
    K = rng.choice(SURFACES)
    vertices, edges = set(K.vertices), set(K.edges)
    if rng.random() < 0.5:  # a triangle side dropped
        edges.discard(frozenset(rng.choice(K.sorted_edges)))
    if rng.random() < 0.5:  # an isolated vertex
        vertices.add("z")
    if rng.random() < 0.5:  # an edge in no triangle
        non_edges = [p for p in itertools.combinations(K.sorted_vertices, 2) if frozenset(p) not in K.edges]
        edges.add(frozenset(rng.choice(non_edges)))
    if rng.random() < 0.5:  # an edge to an undeclared vertex
        edges.add(frozenset(("y", rng.choice(K.sorted_vertices))))
    if rng.random() < 0.5:  # a triangle vertex left undeclared
        vertices.discard(rng.choice(K.sorted_vertices))
    triangles = set(K.triangles)
    if rng.random() < 0.3:  # a one-vertex edge, declared or not
        edges.add(frozenset((rng.choice([*K.sorted_vertices, "y"]),)))
    if rng.random() < 0.3:  # a two-vertex triangle on an edge
        triangles.add(frozenset(rng.choice(K.sorted_edges)))
    fields = (frozenset(vertices), frozenset(triangles), frozenset(edges), rng.random() < 0.5)
    refusal = first_size_fault(triangles, edges)
    if refusal is not None:
        with pytest.raises(ts.ComplexError) as info:
            ts.SimplicialComplex(*fields)
        assert str(info.value) == refusal
    else:
        damaged = ts.SimplicialComplex(*fields)
        expected = scanned_diagnostics(damaged, require_pure or damaged.pure_dim2)
        assert ts.validate_complex(damaged, require_pure) == expected
    assert ts.validate_complex(K, require_pure) == []


def first_edge_fault(group: ts.GroupDescriptor, K: ts.SimplicialComplex, values: dict) -> str | None:
    """The refusal of ``Connection1.build``: entries checked one at a time, in insertion order."""
    stored = set()
    for (a, b), g in values.items():
        key = tuple(sorted((a, b)))
        if a == b:
            return f"degenerate key ({a},{b}): degenerate edges are implicit"
        if frozenset(key) not in K.edges:
            return f"({a},{b}) is not an edge of the complex"
        if not isinstance(g, ts.GroupElement) or g.group != group:
            return f"backend mismatch at edge ({a},{b})"
        if key in stored:
            return f"edge {{{key[0]},{key[1]}}} assigned twice"
        stored.add(key)
    missing = [e for e in K.sorted_edges if e not in stored]
    return f"connection is partial: missing edges {missing}" if missing else None


def damaged_entries(rng: random.Random, entries: list, faults: list) -> dict:
    """The entries shuffled, a tail of them dropped three times in ten, and up to three faults inserted."""
    entries = entries[:]
    rng.shuffle(entries)
    if rng.random() < 0.3:
        del entries[rng.randrange(len(entries) + 1) :]
    for _ in range(rng.randrange(4)):
        entries.insert(rng.randrange(len(entries) + 1), rng.choice(faults)())
    return dict(entries)


@given(seed=st.integers(0, 2**32 - 1))
def test_connection1_build_names_the_first_fault_in_insertion_order(seed):
    rng = random.Random(seed)
    K = rng.choice(SURFACES)
    non_edges = [p for p in itertools.combinations(K.sorted_vertices, 2) if frozenset(p) not in K.edges]
    faults = [
        lambda: (rng.choice(K.sorted_edges), random_element(FOREIGN, rng)),
        lambda: (rng.choice(non_edges), random_element(Z12, rng)),
        lambda: ((v := rng.choice(K.sorted_vertices), v), random_element(Z12, rng)),
        lambda: (rng.choice(K.sorted_edges)[::-1], random_element(Z12, rng)),
        lambda: (rng.choice(K.sorted_edges), rng.choice([5, "x"])),
    ]
    flip = rng.choice([0.0, 0.5])  # with no key reversed, a map without faults is checked in bulk
    entries = [(e[::-1] if rng.random() < flip else e, random_element(Z12, rng)) for e in K.sorted_edges]
    values = damaged_entries(rng, entries, faults)
    group = rng.choice([Z12, ts.cyclic_group(12)])  # the values' descriptor, or an equal one that is another object
    refusal = first_edge_fault(group, K, values)
    # build, and the constructor given the map or its pairs, check alike
    makes = (ts.Connection1.build, ts.Connection1, lambda group, K, values: ts.Connection1(group, K, list(values.items())))
    if refusal is None:
        stored = {(a, b) if a < b else (b, a): g if a < b else ts.inverse(g) for (a, b), g in values.items()}
        for make in makes:
            connection = make(group, K, values)
            assert connection == ts.Connection1._trusted(group, K, stored) and connection._map == stored
    else:
        for make in makes:
            with pytest.raises(ts.BundleError) as info:
                make(group, K, values)
            assert str(info.value) == refusal


def first_cell_fault(base: ts.Connection1, alpha: dict, beta: dict) -> str | None:
    """The refusal of ``Connection2.build``: alpha cells, then loop cells, one at a time in insertion order."""
    cells = [((a, c, b), g) for (a, c, b), g in alpha.items()] + [((c, a, b, c), g) for (c, a, b), g in beta.items()]
    for cell, g in cells:
        if not old_support_rule(base.complex, cell):
            return f"cell {'.'.join(cell)} is not supported by a triangle of the complex"
        if not isinstance(g, ts.GroupElement) or g.group != base.group:
            return f"backend mismatch at cell {'.'.join(cell)}"
    return None


@given(seed=st.integers(0, 2**32 - 1))
def test_connection2_build_names_the_first_fault_in_insertion_order(seed):
    rng = random.Random(seed)
    K = rng.choice(SURFACES)
    base = ts.Connection1.constant(Z12, K, ts.identity(Z12))
    markings = list(K.markings())
    unsupported = [t for t in itertools.permutations(K.sorted_vertices[:6], 3) if t not in set(markings)]
    unsupported += [(v, v, w) for v, w in K.sorted_edges[:4]]
    faults = [
        lambda: (rng.choice(markings), random_element(FOREIGN, rng)),
        lambda: (rng.choice(unsupported), random_element(Z12, rng)),
        lambda: (rng.choice(markings), rng.choice([5, "x"])),
    ]
    alpha, beta = (
        damaged_entries(rng, [(m, random_element(Z12, rng)) for m in rng.sample(markings, k)], faults)
        for k in (rng.randrange(len(markings) + 1), rng.randrange(4))
    )
    refusal = first_cell_fault(base, alpha, beta)
    # build, and the constructor given the maps or their pairs, check alike
    makes = (ts.Connection2.build, ts.Connection2, lambda base, alpha, beta: ts.Connection2(base, alpha.items(), beta.items()))
    if refusal is None:
        for make in makes:
            connection = make(base, alpha, beta)
            assert connection == ts.Connection2._trusted(base, alpha, beta)
            assert (connection._alpha, connection._beta) == (alpha, beta)
    else:
        for make in makes:
            with pytest.raises(ts.SweepError) as info:
                make(base, alpha, beta)
            assert str(info.value) == refusal


# -- the bulk file readers against their per-entry loops ------------------------------

def outcome(read, *args):
    """What a reader returns, or the type and text of the error it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an independent loop-cell value is flagged, and used
            return read(*args)
    except ts.TrisweepError as exc:
        return type(exc), str(exc)


def per_entry_load_complex(text: str) -> ts.SimplicialComplex:
    """``load_complex`` as its vertex, triangle and edge loops read a file before the bulk checks."""
    obj = json.loads(text)
    if not all(isinstance(v, str) for v in obj["vertices"]):
        raise ts.ComplexError('"vertices" must be a list of strings')
    seen = set()
    for v in obj["vertices"]:
        if not v or any(ch.isspace() for ch in v):
            raise ts.ComplexError(f"bad vertex name {quote(v)}: must be nonempty without whitespace")
        if ">" in v:
            raise ts.ComplexError(f"bad vertex name {quote(v)}: holds the edge key separator '>'")
        if v in seen:
            raise ts.ComplexError(f"duplicate vertex {quote(v)}")
        seen.add(v)
    read = {}
    for key, size, count in (("triangles", 3, "three"), ("edges", 2, "two")):
        for s in obj[key]:
            if not isinstance(s, list) or len(s) != size or not all(type(v) is str for v in s) or len(set(s)) != size:
                raise ts.ComplexError(f"bad {key[:-1]} {quote(s)}: need {count} distinct vertices")
            for v in s:
                if v not in seen:
                    raise ts.ComplexError(f"closure violation: {key[:-1]} {quote(s)} references undeclared vertex {quote(v)}")
        read[key] = frozenset(map(frozenset, obj[key]))
    sides = {frozenset(p) for t in read["triangles"] for p in itertools.combinations(t, 2)}
    return ts.SimplicialComplex(frozenset(seen), read["triangles"], read["edges"] | sides, obj["pure_dim2"])


def per_entry_load_connection(text: str, K: ts.SimplicialComplex) -> ts.Connection2:
    """``load_connection`` as its edge and cell loops read a file, and the builds check it, entry by entry."""
    obj = json.loads(text)
    group = ts.descriptor_from_json(obj["group"])
    parsed = {}

    def parse(value):
        if not (isinstance(value, str) and value in parsed):
            parsed[value] = ts.parse_element(value, group)
        return parsed[value]

    edges = {_parse_edge_key(k): parse(v) for k, v in obj["edges"].items()}
    refusal = first_edge_fault(group, K, edges)
    if refusal is not None:
        raise ts.BundleError(refusal)
    base = ts.Connection1(group, K, {(a, b) if a < b else (b, a): g if a < b else ts.inverse(g) for (a, b), g in edges.items()})
    named = {".".join(m): m for m in K.markings() if "." not in "".join(m)}
    alpha, beta = {}, {}
    for key, val in obj["cells"].items():
        parts = named.get(key) or _parse_cell_key(key)
        g = parse(val)
        if len(parts) == 3:
            alpha[parts] = g
        else:
            beta[parts[:3]] = g
    refusal = first_cell_fault(base, alpha, beta)
    if refusal is not None:
        raise ts.SweepError(refusal)
    return ts.Connection2(base, alpha, beta)


def with_faults(rng: random.Random, entries: list, faults: list, count: int) -> list:
    entries = entries[:]
    for _ in range(count):
        entries.insert(rng.randrange(len(entries) + 1), rng.choice(faults)())
    return entries


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 2))
def test_load_complex_reads_a_file_as_its_per_entry_loops_do(seed, count):
    rng = random.Random(seed)
    K = torus_complex(rng.choice([3, 4]))
    V = K.sorted_vertices
    non_edges = [list(p) for p in itertools.combinations(V, 2) if frozenset(p) not in K.edges]
    blocks = {
        "vertices": list(V),
        "triangles": [rng.sample(t, 3) for t in K.sorted_triangles],
        "edges": [list(e) for e in rng.sample(K.sorted_edges, rng.randrange(6))],
    }
    faults = {
        "vertices": [
            lambda: rng.choice(["", "a b", "a\tb", "x　y", "z\x1fz", 7, rng.choice(V)]),
            lambda: rng.choice(["a>b", ">", f"{rng.choice(V)}>", "a >b"]),  # the edge key separator
        ],
        "triangles": [
            lambda: list(rng.choice(K.sorted_edges)),
            lambda: [*rng.choice(K.sorted_triangles), rng.choice(V)],
            lambda: [(v := rng.choice(V)), v, rng.choice(V)],
            lambda: [*rng.sample(V, 2), "zz"],
            lambda: rng.choice(["abc", None, [["a"], "b", "c"], [1, 2, 3], [{}, "a", "b"]]),
        ],
        "edges": [
            lambda: [rng.choice(V)],
            lambda: [(v := rng.choice(V)), v],
            lambda: [rng.choice(V), "zz"],
            lambda: rng.choice(["ab", {"a": 1}, [1, 2], [[], "a"], [*rng.sample(V, 3)]]),
            lambda: rng.choice(non_edges),  # an edge in no triangle: not a fault
        ],
    }
    for _ in range(count):
        key = rng.choice(sorted(faults))
        blocks[key] = with_faults(rng, blocks[key], faults[key], 1)
    text = json.dumps({**blocks, "pure_dim2": rng.random() < 0.5})
    assert outcome(ts.load_complex, text) == outcome(per_entry_load_complex, text)


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 2))
def test_load_connection_reads_a_file_as_its_per_entry_loops_do(seed, count):
    rng = random.Random(seed)
    K = torus_complex(rng.choice([3, 4]))
    if rng.random() < 0.4:  # a vertex name that holds a dot, or a ">" as a complex built in code may
        sep = rng.choice(".>")
        dotted = {v: v.replace("_", sep) for v in rng.sample(K.sorted_vertices, 2)}
        triangles = [[dotted.get(v, v) for v in t] for t in K.sorted_triangles]
        K = ts.SimplicialComplex.build({v for t in triangles for v in t}, triangles)
    V = K.sorted_vertices
    texts = ["e", "r", "r^6", "s", "r*s", "s*r^4"]
    flip = rng.choice([0.0, 0.0, 0.3])
    edges = [((b, a) if rng.random() < flip else (a, b), rng.choice(texts)) for a, b in K.sorted_edges]
    edges = [(f"{a}>{b}", t) for (a, b), t in edges]
    markings = list(K.markings())
    # on a complex with dotted names, half the files name only the markings whose names split into three parts
    pool = [m for m in markings if rng.random() < 0.5 or "." not in "".join(m)]
    cells = [(".".join(m), rng.choice(texts)) for m in rng.sample(pool, rng.randrange(len(pool) + 1))]
    bad_value = lambda: rng.choice([1, None, [], "t^2"])  # noqa: E731
    edge_faults = [
        lambda: (f"{rng.choice(V)}>{rng.choice(V)}>{rng.choice(V)}", "r"),
        lambda: (f"{rng.choice(V)}>", "r"),
        lambda: (f">{rng.choice(V)}", "r"),
        lambda: (">".join(rng.choice(edges)[0].split(">")[::-1]), "s"),  # the reversed duplicate of a key
        lambda: (rng.choice(edges)[0], bad_value()),  # a later bad value for a key, which replaces the earlier one
    ]
    cell_faults = [
        lambda: (".".join((*(m := rng.choice(markings)), m[0])), rng.choice(texts)),  # a loop cell c.a.b.c: not a fault
        lambda: (".".join(rng.sample(V, 3)), "r"),  # a cell that no face may support
        lambda: (f"{V[0]}.{V[0]}.{V[1]}", "r"),  # a malformed key
        lambda: (".".join(rng.choice(markings)), bad_value()),
    ]
    edge_block, cell_block = edges, cells
    for _ in range(count):
        if rng.random() < 0.5:
            edge_block = with_faults(rng, edge_block, edge_faults, 1)
        elif rng.random() < 0.2:
            edge_block = edge_block[:]
            del edge_block[rng.randrange(len(edge_block))]  # a missing edge
        else:
            cell_block = with_faults(rng, cell_block, cell_faults, 1)
    text = json.dumps({"group": {"dihedral": 5}, "edges": dict(edge_block), "cells": dict(cell_block)})
    assert outcome(ts.load_connection, text, K) == outcome(per_entry_load_connection, text, K)


# The records built elsewhere by design: GroupElement, whose constructor is the hot
# path of every product, is checked by element and parse_element, and GroupDescriptor
# by its factories.
BUILT_ELSEWHERE = {ts.GroupElement, ts.GroupDescriptor}
# the constructors read any sequence as a tuple, so an empty list, of no ints, is the empty tuple
HOSTILE_VALUES = st.one_of(
    st.none(),
    st.integers(),
    st.text(max_size=3),
    st.lists(st.integers(), min_size=1, max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.sampled_from([cls(**fields) for cls, fields, _defaults, _text in RECORD_CASES]),
)


def of_type(value: object, hint) -> bool:
    """Whether the value is of the annotated type, judged by its outer type alone."""
    if typing.get_origin(hint) is typing.Union:
        return any(of_type(value, h) for h in typing.get_args(hint))
    return hint is typing.Any or isinstance(value, typing.get_origin(hint) or hint)


# valid records that hold no values, so that no value's backend checks the group field in its place
EMPTY_RECORDS = [
    (ts.GaugeTransform, {"group": Z12, "values": ()}),
    (ts.Connection1, {"group": Z12, "complex": ts.SimplicialComplex.build("a"), "_map": {}}),
]
# each field of each record class that its constructor checks: (class, a valid record's fields, name, type)
RECORD_FIELDS = [
    (cls, fields, name, hint)
    for cls, fields in [(cls, fields) for cls, fields, _defaults, _text in RECORD_CASES] + EMPTY_RECORDS
    if cls not in BUILT_ELSEWHERE
    for name in fields
    for hint in [typing.get_type_hints(cls)[name]]
]


@given(st.lists(HOSTILE_VALUES, min_size=len(RECORD_FIELDS), max_size=len(RECORD_FIELDS)))
def test_a_record_refuses_a_field_of_another_type_with_a_domain_error(values):
    # each field of a valid record in turn is replaced by its drawn value, where that is not of the field's type
    for (cls, fields, name, hint), value in zip(RECORD_FIELDS, values):
        if not of_type(value, hint):
            with pytest.raises(ts.TrisweepError):
                cls(**{**fields, name: value})
