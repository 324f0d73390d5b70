"""Group-valued connections on the edges of a complex and their holonomy.

A connection assigns one group element to each oriented edge, with the
reversed orientation carrying the inverse and degenerate steps the
identity.  The product of these values along a path is the transport of
the path; around a loop it is the holonomy.  Gauge transformations act
vertexwise and conjugate loop holonomies at the basepoint.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Optional

from ._record import Record
from .complexes import SimplicialComplex
from .errors import BundleError
from .groups import (
    GroupDescriptor,
    GroupElement,
    Matrix,
    Representation,
    conjugators,
    enumerate_elements,
    identity,
    inverse,
    is_finite,
    multiply,
    represent,
)
from .paths import EdgePath


class GaugeTransform(Record):
    """A choice of group element per vertex; unlisted vertices act as identity."""

    group: GroupDescriptor
    values: tuple[tuple[str, GroupElement], ...]

    @classmethod
    def build(cls, group: GroupDescriptor, values: Mapping[str, GroupElement]) -> "GaugeTransform":
        for v, g in values.items():
            if g.group != group:
                raise BundleError(f"backend mismatch in gauge value at vertex {v}")
        return cls(group, tuple(sorted(values.items())))

    @classmethod
    def identity_gauge(cls, group: GroupDescriptor) -> "GaugeTransform":
        return cls(group, ())

    @cached_property
    def _map(self) -> dict[str, GroupElement]:
        return dict(self.values)

    def get(self, vertex: str) -> GroupElement:
        return self._map.get(vertex, identity(self.group))

    def vertices(self) -> tuple[str, ...]:
        return tuple(v for v, _g in self.values)


class Connection1(Record):
    """A total assignment of group elements to the edges of a complex.

    Values are stored once per unordered edge, keyed by the sorted vertex
    pair; querying the opposite orientation returns the inverse.  The map
    is kept as :meth:`build` checked it, unsorted; the sorted
    ``edge_values`` pairs are derived on first read.  The constructor,
    which checks nothing, takes a map or (key, value) pairs.
    """

    group: GroupDescriptor
    complex: SimplicialComplex
    _map: Mapping[tuple[str, str], GroupElement]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_map", dict(self._map))

    def __hash__(self) -> int:
        return hash((self.group, self.complex, frozenset(self._map.items())))

    @classmethod
    def build(
        cls,
        group: GroupDescriptor,
        complex: SimplicialComplex,
        values: Mapping[tuple[str, str], GroupElement],
    ) -> "Connection1":
        store: dict[tuple[str, str], GroupElement] = {}
        for (a, b), g in values.items():
            if a == b:
                raise BundleError(f"degenerate key ({a},{b}): degenerate edges are implicit")
            if not complex.has_edge(a, b):
                raise BundleError(f"({a},{b}) is not an edge of the complex")
            if g.group != group:
                raise BundleError(f"backend mismatch at edge ({a},{b})")
            key = (a, b) if a < b else (b, a)
            val = g if a < b else inverse(g)
            if key in store:
                raise BundleError(f"edge {{{key[0]},{key[1]}}} assigned twice")
            store[key] = val
        missing = [e for e in complex.sorted_edges if e not in store]
        if missing:
            raise BundleError(f"connection is partial: missing edges {missing}")
        return cls(group, complex, store)

    @classmethod
    def constant(cls, group: GroupDescriptor, complex: SimplicialComplex, value: GroupElement) -> "Connection1":
        return cls.build(group, complex, {e: value for e in complex.sorted_edges})

    @cached_property
    def edge_values(self) -> tuple[tuple[tuple[str, str], GroupElement], ...]:
        return tuple(sorted(self._map.items()))

    def value(self, a: str, b: str) -> GroupElement:
        if a == b:
            return identity(self.group)
        if a < b:
            stored = self._map.get((a, b))
        else:
            stored = self._map.get((b, a))
            stored = inverse(stored) if stored is not None else None
        if stored is None:
            raise BundleError(f"({a},{b}) is not an edge of the complex")
        return stored


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
    present = set(gauge.vertices())
    missing = [v for v in connection.complex.sorted_vertices if v not in present]
    if missing:
        raise BundleError(f"missing vertex in gauge transform: {missing}")
    new = {
        (a, b): multiply(multiply(inverse(gauge.get(a)), g), gauge.get(b))
        for (a, b), g in connection.edge_values
    }
    return Connection1.build(connection.group, connection.complex, new)


def find_isomorphism(f: Connection1, g: Connection1) -> Optional[GaugeTransform]:
    """Search for a gauge carrying f to g, or None.

    Fixing the root value c fixes the whole gauge: with F_v and G_v the
    transports of f and g along the spanning-tree path from the root to v,
    it is n_v = F_v^-1 * c * G_v.  That gauge carries f to g iff on every
    edge (a, b) the loop values x = F_a f_ab F_b^-1 and y = G_a g_ab G_b^-1
    satisfy c^-1 * x * c == y.  So the transports, their inverses and the
    loop values are computed once per vertex and edge, and c is the first
    element, in enumeration order, that ``groups.conjugators`` yields for
    the loop pairs (x, y): at most two payload products per loop edge and
    candidate.  The gauge is built for that c alone.  Needs a finite
    backend and a connected complex.
    """
    if f.group != g.group or f.complex != g.complex:
        raise BundleError("connections must share a backend and a complex")
    if not is_finite(f.group):
        raise BundleError("infinite backend: isomorphism search needs a finite group")
    K = f.complex
    if not K.is_connected():
        raise BundleError("isomorphism search needs a connected complex")
    if not K.vertices:
        return GaugeTransform.identity_gauge(f.group)
    candidates = enumerate_elements(f.group)
    root = K.sorted_vertices[0]
    e = identity(f.group)
    F, G = {root: e}, {root: e}
    queue = [root]
    for v in queue:  # the loop reaches the vertices appended to it, breadth first
        for w in K.neighbors(v):
            if w not in F:
                F[w] = multiply(F[v], f.value(v, w))
                G[w] = multiply(G[v], g.value(v, w))
                queue.append(w)
    F_inv = {v: inverse(x) for v, x in F.items()}
    G_inv = {v: inverse(y) for v, y in G.items()}
    loops = []
    for a, b in K.sorted_edges:
        x = multiply(multiply(F[a], f.value(a, b)), F_inv[b])
        y = multiply(multiply(G[a], g.value(a, b)), G_inv[b])
        if x != e or y != e:  # x = y = e holds for every c, as on every tree edge
            loops.append((x, y))
    c = next(conjugators(loops, candidates), None)
    if c is None:
        return None
    return GaugeTransform.build(f.group, {v: multiply(multiply(F_inv[v], c), G[v]) for v in F})


def wilson_loop(connection: Connection1, loop: EdgePath, rho: Representation):
    """Trace of the loop holonomy in the given representation."""
    if not loop.is_loop():
        raise BundleError(f"path from {loop.source} to {loop.target} is not a loop")
    mat = represent(rho, holonomy(connection, loop))
    return sum(mat[i][i] for i in range(len(mat)))


def associated_transport(connection: Connection1, path: EdgePath, rho: Representation) -> Matrix:
    """The matrix transporting the associated linear fiber along the path."""
    return represent(rho, holonomy(connection, path))
