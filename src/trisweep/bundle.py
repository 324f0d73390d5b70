"""Group-valued connections on the edges of a complex and their holonomy.

A connection assigns one group element to each oriented edge, with the
reversed orientation carrying the inverse and degenerate steps the
identity.  The product of these values along a path is the transport of
the path; around a loop it is the holonomy.  Gauge transformations act
vertexwise and conjugate loop holonomies at the basepoint.
"""

from __future__ import annotations

from contextlib import suppress
from functools import cached_property
from typing import Collection, Iterable, Mapping, Optional

from ._record import Record
from .complexes import SimplicialComplex
from .errors import BundleError, as_collection, quote
from .groups import (
    GroupDescriptor,
    GroupElement,
    enumerate_elements,
    identity,
    inverse,
    is_finite,
    multiply,
    payload_rules,
)
from .paths import EdgePath


class GaugeTransform(Record):
    """A choice of group element per vertex; unlisted vertices act as identity.

    The constructor takes a group descriptor and a sequence of (vertex,
    value) pairs, where a string or a map is no sequence.  It refuses, in
    this order, pairs that are not a sequence, an entry that is not a
    pair, a value that is not an element of the group (naming its
    vertex), a vertex that cannot be hashed and a vertex listed twice.
    ``build`` takes a map and lists its pairs sorted by vertex.
    """

    group: GroupDescriptor
    values: tuple[tuple[str, GroupElement], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", as_collection(tuple, self.values, BundleError, "gauge entries"))
        for entry in self.values:
            if type(entry) is not tuple or len(entry) != 2:
                raise BundleError(f"gauge entry {quote(entry)} is not a (vertex, value) pair")
            if not isinstance(entry[1], GroupElement) or entry[1].group != self.group:
                raise BundleError(f"backend mismatch in gauge value at vertex {entry[0]}")
        try:
            if len(self._map) != len(self.values):
                raise BundleError("gauge transform lists a vertex twice")
        except TypeError:  # a vertex that cannot be hashed
            raise BundleError(f"gauge entries {quote(self.values)} hold a vertex that cannot be hashed") from None

    @classmethod
    def build(cls, group: GroupDescriptor, values: Mapping[str, GroupElement]) -> "GaugeTransform":
        return cls(group, tuple(sorted(values.items())))

    @cached_property
    def _map(self) -> dict[str, GroupElement]:
        return dict(self.values)

    def get(self, vertex: str) -> GroupElement:
        return self._map.get(vertex) or identity(self.group)  # an element is never false

    def vertices(self) -> tuple[str, ...]:
        return tuple(v for v, _g in self.values)


class Connection1(Record):
    """A total assignment of group elements to the edges of a complex.

    Values are stored once per unordered edge, keyed by the sorted vertex
    pair.  :meth:`value` looks the caller's pair up as given, then
    reversed, and returns the inverse of a reversed hit; it never compares
    the caller's names, so a pair that is no edge, even of names that do
    not compare, is a ``BundleError``.  The sorted ``edge_values`` pairs
    are derived on first read.

    The constructor takes a complex and a map or (key, value) pairs,
    refusing any other with a ``BundleError``, makes a dict of the values,
    and checks that
    the values are one per edge of the complex, in the connection's
    backend.  The check is done in bulk when the keys are
    exactly the complex's edges as sorted vertex pairs, plain tuples: one
    set comparison with the pairs the complex indexes its edges by, which
    builds no set per key.  Then each value's backend is compared with the
    connection's, by identity first, so that no descriptor is hashed, and
    the dict is kept as given, unsorted.  Any other map is walked entry by
    entry, which stores the inverse under a reversed key and names the
    first fault.  A key that is not a tuple of two vertices is refused,
    and a value that is not a ``GroupElement`` is a backend mismatch.
    :meth:`build` is the constructor under its older name.
    """

    group: GroupDescriptor
    complex: SimplicialComplex
    _map: Mapping[tuple[str, str], GroupElement]

    def __post_init__(self) -> None:
        group, complex, values = self.group, self.complex, as_collection(dict, self._map, BundleError, "edge values")
        if not isinstance(complex, SimplicialComplex):
            raise BundleError(f"connection complex {quote(complex)} is not a simplicial complex")
        object.__setattr__(self, "_map", values)
        keys = values.keys()
        if keys == complex._edge_pairs and set(map(type, keys)) <= {tuple}:  # a tuple subclass goes to the loop
            with suppress(AttributeError):  # a value that is not an element: the loop below names it
                if all(g.group is group or g.group == group for g in values.values()):
                    return
        store: dict[tuple[str, str], GroupElement] = {}
        for key, g in values.items():
            if type(key) is not tuple or len(key) != 2:
                raise BundleError(f"edge key {quote(key)} is not a pair of vertices")
            a, b = key
            if a == b:
                raise BundleError(f"degenerate key ({a},{b}): degenerate edges are implicit")
            if not complex.has_edge(a, b):
                raise BundleError(f"({a},{b}) is not an edge of the complex")
            if not isinstance(g, GroupElement) or g.group != group:
                raise BundleError(f"backend mismatch at edge ({a},{b})")
            key = (a, b) if a < b else (b, a)
            val = g if a < b else inverse(g)
            if key in store:
                raise BundleError(f"edge {{{key[0]},{key[1]}}} assigned twice")
            store[key] = val
        if len(store) != len(complex.edges):  # each stored key is a distinct edge of the complex
            missing = [e for e in complex.sorted_edges if e not in store]
            raise BundleError(f"connection is partial: missing edges {missing}")
        object.__setattr__(self, "_map", store)

    def __hash__(self) -> int:
        return hash((self.group, self.complex, frozenset(self._map.items())))

    @classmethod
    def build(cls, group: GroupDescriptor, complex: SimplicialComplex, values: Mapping[tuple[str, str], GroupElement]) -> "Connection1":
        return cls(group, complex, values)

    @classmethod
    def constant(cls, group: GroupDescriptor, complex: SimplicialComplex, value: GroupElement) -> "Connection1":
        """The same value on every edge, keyed by its sorted vertex pair: only its backend is checked."""
        if isinstance(value, GroupElement) and value.group == group:
            return cls._trusted(group, complex, dict.fromkeys(complex._edge_pairs, value))
        return cls(group, complex, dict.fromkeys(complex.sorted_edges, value))  # refused, naming the least edge

    @cached_property
    def edge_values(self) -> tuple[tuple[tuple[str, str], GroupElement], ...]:
        return tuple(sorted(self._map.items()))

    def value(self, a: str, b: str) -> GroupElement:
        if a == b:
            return identity(self.group)
        stored = self._map.get((a, b))
        if stored is not None:
            return stored
        stored = self._map.get((b, a))  # the pair in the other order, so no name is compared
        if stored is None:
            raise BundleError(f"({a},{b}) is not an edge of the complex")
        return inverse(stored)


def holonomy(connection: Connection1, path: EdgePath) -> GroupElement:
    """Left-to-right product of the edge values along the path."""
    out = identity(connection.group)
    for a, b in path.steps:
        out = multiply(out, connection.value(a, b))
    return out


def gauge_transform(connection: Connection1, gauge: GaugeTransform) -> Connection1:
    """Twist every edge value: the new value over (a, b) is n_a^-1 * f_ab * n_b."""
    if gauge.group != connection.group:
        raise BundleError("backend mismatch between gauge and connection")
    missing = [v for v in connection.complex.sorted_vertices if v not in gauge._map]
    if missing:
        raise BundleError(f"missing vertex in gauge transform: {missing}")
    new = {
        (a, b): multiply(multiply(inverse(gauge.get(a)), g), gauge.get(b))
        for (a, b), g in connection.edge_values
    }
    return Connection1.build(connection.group, connection.complex, new)


def _solve_gauge(group: GroupDescriptor, root: str, walk: Iterable[tuple], pinned: Collection[str]) -> Optional[GaugeTransform]:
    """The gauge n with f * n_b == n_a * g on every payload step (a, b, f, g) of the walk, or None.

    Each step starts at the root or at a vertex an earlier step reached,
    and every pinned vertex is reached.
    Fixing the root value c fixes the whole gauge: with F_v and G_v the
    products of f and of g along the steps that first reach v, it is
    n_v = F_v^-1 * c * G_v, and a step that first reaches a vertex holds
    for every c.  One pass over the walk records F_v, F_v^-1 and G_v and
    keeps every other step, a step back onto a reached vertex, as a
    closing step; no closing step is skipped, since one may cross an edge
    the walk already took with other letters.  A pinned vertex v keeps the
    identity, which forces c = F_v * G_v^-1; with none pinned, the
    candidates are the group's elements in enumeration order.  The call is
    then a whole-group operation: ``enumerate_elements`` refuses an
    infinite group, or one above ``ENUMERATION_LIMIT``, with a
    ``GroupError``, and no root is guessed.  Each candidate's gauge is computed
    on demand, vertex by vertex, and checked on the closing steps in walk
    order up to the first that fails; the first candidate they all pass
    gives the gauge, of every reached vertex that is not pinned.  All of it
    runs on payloads through the backend's rules
    (``groups.payload_rules``), and elements are built only for that gauge.
    """
    rules = payload_rules(group)
    mul, inv, e = rules.multiply, rules.inverse, rules.identity(group)
    F, F_inv, G = {root: e}, {root: e}, {root: e}
    closing = []
    for a, b, f, g in walk:
        if b in F:
            closing.append((a, b, f, g))
        else:
            F[b] = x = mul(group, F[a], f)
            F_inv[b], G[b] = inv(group, x), mul(group, G[a], g)
    forced = {mul(group, F[v], inv(group, G[v])) for v in pinned}
    if len(forced) > 1:
        return None
    for c in forced or [c.payload for c in enumerate_elements(group)]:
        n = {}

        def gauge(v):  # n_v for this candidate, each computed once
            if v not in n:
                n[v] = mul(group, mul(group, F_inv[v], c), G[v])
            return n[v]

        if all(mul(group, f, gauge(b)) == mul(group, gauge(a), g) for a, b, f, g in closing):
            # every value lies in the group and each vertex is listed once
            return GaugeTransform._trusted(group, tuple(sorted((v, GroupElement(group, gauge(v))) for v in F if v not in pinned)))
    return None


def find_isomorphism(f: Connection1, g: Connection1) -> Optional[GaugeTransform]:
    """Search for a gauge carrying f to g, or None.

    The gauge solver walks the complex's spanning tree from its least
    vertex, then every edge off the tree, with the stored values of f and
    g (an edge walked against its stored orientation carries the inverse),
    and pins no vertex.  A tree edge is not walked again: it carries the
    values that fixed the gauge at its far end, so it holds for every root
    value.  The root value is the first element, in enumeration order,
    whose gauge carries f to g on every edge off the tree.  Needs a finite
    backend and a connected complex.  Each connection holds a value under
    every edge's sorted vertex pair, as its constructor checked, so the
    stored values are read directly.
    """
    if f.group != g.group or f.complex != g.complex:
        raise BundleError("connections must share a backend and a complex")
    if not is_finite(f.group):
        raise BundleError("infinite backend: isomorphism search needs a finite group")
    K, grp = f.complex, f.group
    if not K.is_connected():
        raise BundleError("isomorphism search needs a connected complex")
    if not K.vertices:
        return GaugeTransform._trusted(grp, ())
    inv = payload_rules(grp).inverse
    fm, gm = f._map, g._map

    def value(m, a, b):  # an edge walked against its stored orientation carries the inverse
        return m[a, b].payload if a < b else inv(grp, m[b, a].payload)

    walk = [(v, w, value(fm, v, w), value(gm, v, w)) for v, w in K._spanning_tree]
    tree = {(v, w) if v < w else (w, v) for v, w in K._spanning_tree}
    walk += [(a, b, fm[a, b].payload, gm[a, b].payload) for a, b in K.sorted_edges if (a, b) not in tree]
    return _solve_gauge(grp, K.sorted_vertices[0], walk, ())

