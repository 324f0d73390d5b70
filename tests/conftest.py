"""Shared fixtures and random-object helpers for the test suite."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

import trisweep as ts

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # derandomized and without an example database: every run draws the same
    # examples, so the suite stays deterministic and writes no files
    settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=60)
    # the same rules with five times the examples, for a CI step that runs the property
    # tests again with --hypothesis-profile=ci; a plain run keeps tier1
    settings.register_profile("ci", settings.get_profile("tier1"), max_examples=300)
    settings.load_profile("tier1")


@pytest.fixture(scope="session")
def tetra() -> ts.SimplicialComplex:
    return ts.load_complex(ts.data_path("tetrahedron.json").read_text())


@pytest.fixture(scope="session")
def symbolic_connection(tetra) -> ts.Connection2:
    return ts.load_connection(ts.data_path("tetrahedron_symbolic.json").read_text(), tetra)


@pytest.fixture(scope="session")
def scheme1() -> ts.SweepScheme:
    return ts.load_scheme(ts.data_path("scheme1.json").read_text())


@pytest.fixture(scope="session")
def scheme2() -> ts.SweepScheme:
    return ts.load_scheme(ts.data_path("scheme2.json").read_text())


def _benchmark_inputs():
    """``perfbench/inputs.py``, the benchmark's seeded input generators: plain Python that does not import trisweep."""
    spec = importlib.util.spec_from_file_location("benchmark_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def band_sweep(columns: int, seed: int = 1) -> SimpleNamespace:
    """The band-sweep benchmark's inputs at ``columns`` columns, made by its generators.

    ``K`` is the band, ``conn`` its symbolic connection (trivial edges,
    one free generator per triangle marking), ``scheme_text`` a sweep of
    the bottom ring across the strip and back (4 * columns moves, each
    cell expanded once and merged once), and ``words`` one two-syllable
    start word per step of the ring.
    """
    gen, rng = _benchmark_inputs(), random.Random(f"band-sweep:{seed}")
    vertices, triangles = gen.band(columns)
    K = ts.load_complex(gen.complex_json(vertices, triangles))
    conn = ts.load_connection(gen.symbolic_connection(triangles)[0], K)
    order = list(range(columns))
    rng.shuffle(order)
    scheme_text = gen.scheme_json(gen.bottom_ring(columns), gen.strip_sweep_steps(columns, order))
    words = [gen.free_text(gen.random_free_word(["x", "y"], rng, 2)) for _ in range(columns)]
    return SimpleNamespace(K=K, conn=conn, scheme_text=scheme_text, words=words)


def band_complex(columns: int) -> ts.SimplicialComplex:
    """Cylinder band: bottom ring b0.., top ring t0.., two triangles per column."""
    triangles = []
    for c in range(columns):
        d = (c + 1) % columns
        triangles += [(f"b{c}", f"b{d}", f"t{d}"), (f"b{c}", f"t{c}", f"t{d}")]
    return ts.SimplicialComplex.build({v for t in triangles for v in t}, triangles)


def torus_complex(n: int) -> ts.SimplicialComplex:
    """Triangulated torus T(n): an n x n grid with one diagonal per square (n >= 3)."""

    def v(i: int, j: int) -> str:
        return f"v{i % n}_{j % n}"

    triangles = []
    for i in range(n):
        for j in range(n):
            triangles += [(v(i, j), v(i + 1, j), v(i + 1, j + 1)), (v(i, j), v(i, j + 1), v(i + 1, j + 1))]
    return ts.SimplicialComplex.build({v for t in triangles for v in t}, triangles)


def all_alpha_markings(complex: ts.SimplicialComplex) -> list[tuple[str, str, str]]:
    """Every oriented (source, apex, target) marking of every face."""
    out = []
    for tri in complex.sorted_triangles:
        for apex in tri:
            u, w = sorted(set(tri) - {apex})
            out.append((u, apex, w))
            out.append((w, apex, u))
    return out


def random_element(group: ts.GroupDescriptor, rng: random.Random, max_len: int = 6) -> ts.GroupElement:
    if group.kind == "free":
        if not group.generators:
            return ts.identity(group)
        sylls = []
        for _ in range(rng.randrange(max_len + 1)):
            k = rng.choice([-3, -2, -1, 1, 2, 3])
            sylls.append((rng.choice(group.generators), k))
        return ts.element(group, sylls)
    if group.kind == "cyclic":
        return ts.element(group, rng.randrange(group.modulus))
    if group.kind == "symmetric":
        images = list(range(1, group.degree + 1))
        rng.shuffle(images)
        return ts.element(group, images)
    if group.kind == "dihedral":
        return ts.element(group, (rng.randrange(group.modulus), rng.randrange(2)))
    if group.kind == "product":
        return ts.element(group, tuple(random_element(f, rng, max_len).payload for f in group.factors))
    raise AssertionError(group.kind)


def random_walk(
    complex: ts.SimplicialComplex,
    rng: random.Random,
    length: int,
    start: str | None = None,
    stay_prob: float = 0.0,
) -> ts.EdgePath:
    """A random edge-path; ``stay_prob`` mixes in degenerate steps."""
    at = start if start is not None else rng.choice(complex.sorted_vertices)
    steps = []
    for _ in range(length):
        if stay_prob and rng.random() < stay_prob:
            steps.append((at, at))
            continue
        nxt = rng.choice(complex.neighbors(at))
        steps.append((at, nxt))
        at = nxt
    if not steps:
        return ts.EdgePath.identity(at)
    return ts.EdgePath(tuple(steps))


def random_connection1(
    complex: ts.SimplicialComplex, group: ts.GroupDescriptor, rng: random.Random
) -> ts.Connection1:
    values = {e: random_element(group, rng) for e in complex.sorted_edges}
    return ts.Connection1.build(group, complex, values)


def random_connection2(
    complex: ts.SimplicialComplex, group: ts.GroupDescriptor, rng: random.Random
) -> ts.Connection2:
    base = random_connection1(complex, group, rng)
    cells = {marking: random_element(group, rng) for marking in all_alpha_markings(complex)}
    return ts.Connection2.build(base, cells)


def random_gauge(
    complex: ts.SimplicialComplex, group: ts.GroupDescriptor, rng: random.Random
) -> ts.GaugeTransform:
    return ts.GaugeTransform.build(
        group, {v: random_element(group, rng) for v in complex.sorted_vertices}
    )


def random_section(
    complex: ts.SimplicialComplex,
    group: ts.GroupDescriptor,
    rng: random.Random,
    length: int,
    stay_prob: float = 0.0,
) -> ts.Section:
    path = random_walk(complex, rng, length, stay_prob=stay_prob)
    letters = tuple(random_element(group, rng) for _ in path.steps)
    return ts.Section(path, letters)


def compose_perms(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Independent oracle for the pinned action order: (a*b)(i) = a(b(i))."""
    return tuple(a[b[i] - 1] for i in range(len(a)))


def perm_inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, img in enumerate(a):
        out[img - 1] = i + 1
    return tuple(out)


def product_of_letters(letters) -> ts.GroupElement:
    out = letters[0]
    for l in letters[1:]:
        out = ts.multiply(out, l)
    return out


def tree_propagation_search(f: ts.Connection1, g: ts.Connection1):
    """Oracle: the isomorphism search by propagation along a spanning tree.

    For each root value in enumeration order, solve f_ab * n_b = n_a * g_ab
    for n_b along a breadth-first tree, then check every edge.
    """
    K = f.complex
    root = K.sorted_vertices[0]
    tree = []
    seen = {root}
    queue = [root]
    while queue:
        v = queue.pop(0)
        for w in K.neighbors(v):
            if w not in seen:
                seen.add(w)
                tree.append((v, w))
                queue.append(w)
    for candidate in ts.enumerate_elements(f.group):
        n = {root: candidate}
        for a, b in tree:
            n[b] = ts.multiply(ts.multiply(ts.inverse(f.value(a, b)), n[a]), g.value(a, b))
        if all(ts.multiply(f.value(a, b), n[b]) == ts.multiply(n[a], g.value(a, b)) for a, b in K.sorted_edges):
            return n
    return None
