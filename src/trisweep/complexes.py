"""Simplicial complexes of pure dimension two, their file format and validation.

A complex stores vertices, unordered triangles and unordered edges; the
edges always include every side of every triangle.  Its queries answer
incidence (the faces at a vertex or an edge, the neighbours of a vertex)
and list each face's six markings (source, apex, target): the triangle
cells that the moves of ``paths`` sweep across.
``SimplicialComplex.supports`` is the one rule for which cells a complex
carries.
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import cached_property
from itertools import chain, combinations, repeat
from typing import Iterable, Iterator

from ._record import Record
from .errors import ComplexError, decode_json, quote


class SimplicialComplex(Record):
    """Vertices, triangles and edges of a (declared) pure-dimension-2 complex.

    Instances are immutable and safe to share between workers.  Build them
    with :meth:`build` or :func:`load_complex`, which add the derived edges.
    The constructor refuses fields that are not three frozensets and a
    boolean, then a triangle that is not three vertices or an
    edge that is not two, in one C-level pass over each set's sizes; only
    then are they sorted, to name the first, triangles before edges.

    Incidence queries read one index built on first use in one pass over
    the sorted triangles: each vertex maps to the faces that contain it,
    in sorted-triangle order.  ``faces_containing`` is a dict lookup, and
    ``faces_containing_edge(a, b)`` keeps those of ``a``'s faces that
    hold ``b``, in the same order; on a surface a vertex lies in a handful
    of faces.  Every derived edge structure is keyed by the edge's sorted
    vertex pair, a tuple, so the ``edges`` field holds the only two-vertex
    sets: :meth:`build` makes one per distinct edge.  No query compares
    the caller's names: ``has_edge`` looks the pair up in both orders.
    """

    vertices: frozenset[str]
    triangles: frozenset[frozenset[str]]
    edges: frozenset[frozenset[str]]
    pure_dim2: bool = False

    def __post_init__(self) -> None:
        if not all(isinstance(s, frozenset) for s in (self.vertices, self.triangles, self.edges)) or type(self.pure_dim2) is not bool:
            raise ComplexError(f"complex fields {quote(self._field_values(self))} are not three frozensets and a boolean")
        if set(map(len, self.triangles)) <= {3} and set(map(len, self.edges)) <= {2}:
            return
        for what, simplices, size in (("triangle", self.triangles, 3), ("edge", self.edges, 2)):
            # read as text, since vertices given in code need not be strings and are named here all the same
            if bad := [tuple(sorted(map(str, s))) for s in simplices if len(s) != size]:
                raise ComplexError(f"{what} {{{','.join(min(bad))}}} needs {('two', 'three')[size - 2]} distinct vertices")

    @classmethod
    def build(
        cls,
        vertices: Iterable[str],
        triangles: Iterable[Iterable[str]] = (),
        edges: Iterable[Iterable[str]] = (),
        pure_dim2: bool = False,
    ) -> "SimplicialComplex":
        """A complex with every side of every triangle among its edges.

        The sides are derived as the pairs of each triangle, with no sort,
        and collected as tuples with the given edges; one frozenset is
        built per distinct pair, and the constructor checks the simplex
        sizes.  Only when it refuses one are the given triangles, then the
        given edges, walked in the given order, to name the first that is
        not three or two distinct vertices.  A simplex that is not a
        sequence of hashable vertices is a ``ComplexError`` too.
        """
        try:
            vs = frozenset(vertices)
            listed = list(map(tuple, triangles))
            tris = frozenset(map(frozenset, listed))
            declared = list(map(tuple, edges))
            pairs = set(chain.from_iterable(map(combinations, tris, repeat(2)))).union(declared)
            return cls(vs, tris, frozenset(map(frozenset, pairs)), pure_dim2)
        except TypeError as exc:  # a simplex that is not a sequence, or a vertex that cannot be hashed
            raise ComplexError(f"bad simplicial data: {exc}") from exc
        except ComplexError:
            for t in listed:
                if len(set(t)) != 3:
                    raise ComplexError(f"bad triangle {quote(t)}: need three distinct vertices") from None
            for e in declared:
                if len(e) != 2 or e[0] == e[1]:
                    raise ComplexError(f"bad edge {quote(e)}: need two distinct vertices") from None
            raise

    # -- queries ---------------------------------------------------------

    def has_edge(self, a: str, b: str) -> bool:
        return (a, b) in self._edge_pairs or (b, a) in self._edge_pairs  # (a, a) is no edge: the constructor refuses {a}

    def has_face(self, a: str, b: str, c: str) -> bool:
        return frozenset((a, b, c)) in self.triangles

    def supports(self, cell: tuple[str, ...]) -> bool:
        """Whether the complex supports a move's cell: the one rule for it.

        A pair ``(x, y)`` needs the edge; a triangle ``a.c.b`` or a loop
        ``c.a.b.c`` needs ``(a, c, b)`` to be a marking of one of the faces.
        """
        if len(cell) == 2:
            return self.has_edge(*cell)
        return cell[:3] in self._marking_set

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._neighbor_map.get(v, ())

    def faces_containing(self, v: str) -> tuple[frozenset[str], ...]:
        return self._vertex_faces.get(v, ())

    def faces_containing_edge(self, a: str, b: str) -> tuple[frozenset[str], ...]:
        # a vertex lies in a handful of faces, so filtering them answers an edge query with no index of its own
        return tuple([face for face in self._vertex_faces.get(a, ()) if b in face])

    @cached_property
    def _marking_set(self) -> frozenset[tuple[str, str, str]]:
        return frozenset(self._markings)

    @cached_property
    def _neighbor_map(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = defaultdict(list)
        for a, b in self._edge_pairs:
            adj[a].append(b)
            adj[b].append(a)
        # a few short sorts, one per vertex, cost less than sorting all the edges
        return dict(zip(adj, map(tuple, map(sorted, adj.values()))))

    @cached_property
    def _vertex_faces(self) -> dict[str, tuple[frozenset[str], ...]]:
        buckets: dict = defaultdict(list)
        for (a, b, c), face in zip(self.sorted_triangles, map(frozenset, self.sorted_triangles)):
            buckets[a].append(face)
            buckets[b].append(face)
            buckets[c].append(face)
        return dict(zip(buckets, map(tuple, buckets.values())))

    @cached_property
    def _edge_pairs(self) -> frozenset[tuple[str, str]]:
        # the one comparison sorted() makes of two items, so each pair is as sorted() orders it
        return frozenset((b, a) if b < a else (a, b) for a, b in self.edges)

    @cached_property
    def sorted_vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.vertices))

    @cached_property
    def sorted_edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self._edge_pairs))

    @cached_property
    def sorted_triangles(self) -> tuple[tuple[str, str, str], ...]:
        return tuple(sorted(map(tuple, map(sorted, self.triangles))))

    def markings(self) -> Iterator[tuple[str, str, str]]:
        """The six markings (source, apex, target) of each face, faces in sorted order."""
        return iter(self._markings)

    @cached_property
    def _markings(self) -> tuple[tuple[str, str, str], ...]:
        # kept, so that the support set and the connections built on this complex share these tuples
        return tuple(
            m for a, b, c in self.sorted_triangles for m in ((b, a, c), (c, a, b), (a, b, c), (c, b, a), (a, c, b), (b, c, a))
        )

    @cached_property
    def _spanning_tree(self) -> tuple[tuple[str, str], ...]:
        """The edges (v, w) by which a breadth-first walk from the least vertex first reaches each w."""
        tree: list[tuple[str, str]] = []
        queue, seen = list(self.sorted_vertices[:1]), set(self.sorted_vertices[:1])
        for v in queue:  # the loop reaches the vertices appended to it
            for w in self.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    tree.append((v, w))
                    queue.append(w)
        return tuple(tree)

    def is_connected(self) -> bool:
        return {w for _v, w in self._spanning_tree}.union(self.sorted_vertices[:1]) == self.vertices


# -- file format ---------------------------------------------------------

_COMPLEX_KEYS = {"vertices", "triangles", "edges", "pure_dim2"}


def load_complex(text: str) -> SimplicialComplex:
    """Parse and validate the JSON complex format.

    Raises ``ComplexError`` on malformed JSON (with line and column), on a
    vertex name that is empty or holds whitespace or ``>`` (the separator
    of a connection file's edge keys), on a duplicate vertex, and on
    closure violations such as a triangle naming an undeclared vertex.
    The vertices, triangles and edges are checked in bulk, in C-level
    passes over the whole list; only when one fails is the list walked
    entry by entry, to name the first bad entry in file order.
    """
    obj = decode_json(text, ComplexError, "parse error")
    if not isinstance(obj, dict):
        raise ComplexError("complex file must hold a JSON object")
    unknown = set(obj) - _COMPLEX_KEYS
    if unknown:
        raise ComplexError(f"unknown keys: {sorted(unknown)}")
    raw_vertices = obj.get("vertices", [])
    if not isinstance(raw_vertices, list) or not set(map(type, raw_vertices)) <= {str}:
        raise ComplexError('"vertices" must be a list of strings')
    # str.split() splits at exactly the characters str.isspace() accepts, and drops empty names;
    # ">" separates the two vertices of a connection file's edge key
    joined = " ".join(raw_vertices)
    if joined.split() != raw_vertices or ">" in joined or len(set(raw_vertices)) != len(raw_vertices):
        seen: set[str] = set()
        for v in raw_vertices:
            if not v or any(ch.isspace() for ch in v):
                raise ComplexError(f"bad vertex name {quote(v)}: must be nonempty without whitespace")
            if ">" in v:
                raise ComplexError(f"bad vertex name {quote(v)}: holds the edge key separator '>'")
            if v in seen:
                raise ComplexError(f"duplicate vertex {quote(v)}")
            seen.add(v)
    vertices = frozenset(raw_vertices)
    triangles = _simplices(obj, "triangles", 3, vertices)
    edges = _simplices(obj, "edges", 2, vertices)
    pure = obj.get("pure_dim2", False)
    if not isinstance(pure, bool):
        raise ComplexError('"pure_dim2" must be a boolean')
    return SimplicialComplex.build(vertices, triangles, edges, pure)


def _simplices(obj: dict, key: str, size: int, vertices: frozenset[str]) -> list:
    """The file's list of triangles or edges, each ``size`` distinct declared vertex names.

    One C-level pass per rule checks the whole list; only when one fails
    is the list walked, to name its first bad entry.
    """
    raw = obj.get(key, [])
    if not isinstance(raw, list):
        raise ComplexError(f'"{key}" must be a list')
    if (
        set(map(type, raw)) <= {list}
        and set(map(len, raw)) <= {size}
        and set(map(type, chain.from_iterable(raw))) <= {str}
        and set(map(len, map(set, raw))) <= {size}
        and vertices.issuperset(chain.from_iterable(raw))
    ):
        return raw
    what, count = key[:-1], ("two", "three")[size - 2]
    for s in raw:
        # a list or an object among the vertices would make set(s) raise
        if not isinstance(s, list) or len(s) != size or not all(type(v) is str for v in s) or len(set(s)) != size:
            raise ComplexError(f"bad {what} {quote(s)}: need {count} distinct vertices")
        for v in s:
            if v not in vertices:
                raise ComplexError(f"closure violation: {what} {quote(s)} references undeclared vertex {quote(v)}")
    return raw


def dump_complex(complex: SimplicialComplex) -> str:
    obj = {
        "vertices": list(complex.sorted_vertices),
        "triangles": [list(t) for t in complex.sorted_triangles],
        "edges": [list(e) for e in complex.sorted_edges],
        "pure_dim2": complex.pure_dim2,
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- validation ----------------------------------------------------------

class Diagnostic(Record):
    """One finding of ``validate_complex``: its rule, the simplex it names and its text, each a string."""

    rule: str
    simplex: str
    message: str

    def __post_init__(self) -> None:
        if not {str}.issuperset(map(type, self._field_values(self))):
            raise ComplexError(f"diagnostic fields {quote(self._field_values(self))} are not all text")

    def __str__(self) -> str:
        return self.message


def validate_complex(complex: SimplicialComplex, require_pure_dim2: bool = False) -> list[Diagnostic]:
    """Check all invariants; an empty list means the complex is valid.

    Pure-dimension checks run when requested or when the complex declares
    itself pure of dimension two.  The simplex sizes are the constructor's
    to check.  The other invariants are checked in bulk: every side of a
    triangle is a declared edge and every edge's vertices are declared,
    one set comparison each over the vertices, the edges' sorted pairs
    and the set of the sorted triangles' sides, which are sorted pairs
    too; for pure dimension two, every vertex has faces
    (``faces_containing``) and every edge lies in a triangle.  Only when
    one fails are the triangles, edges and vertices scanned, in sorted
    order, for the diagnostics.
    """
    pure = require_pure_dim2 or complex.pure_dim2
    V, E = complex.vertices, complex._edge_pairs
    # each triangle is sorted, so each of its sides comes out as a sorted pair
    in_faces = set(chain.from_iterable(map(combinations, complex.sorted_triangles, repeat(2))))
    # a triangle's vertices lie on its sides, so declared sides with declared vertices declare them too
    if in_faces <= E and V.issuperset(chain.from_iterable(E)):
        if not pure or (all(map(complex.faces_containing, V)) and E <= in_faces):
            return []
    out: list[Diagnostic] = []
    for t in complex.sorted_triangles:
        name = "{%s}" % ",".join(t)
        out += [Diagnostic("closure", name, f"triangle {name} references undeclared vertex {v}") for v in t if v not in V]
        for pair in combinations(t, 2):
            if pair not in E:  # the triangle is sorted, so each pair is too
                out.append(Diagnostic("closure", "{%s}" % ",".join(pair), f"edge {{{','.join(pair)}}} of triangle {name} is missing"))
    for e in complex.sorted_edges:
        name = "{%s}" % ",".join(e)
        out += [Diagnostic("closure", name, f"edge {name} references undeclared vertex {v}") for v in e if v not in V]
    if pure:
        for v in complex.sorted_vertices:
            if not complex.faces_containing(v):
                out.append(Diagnostic("pure_dim2", v, f"vertex {v} not in any 2-simplex"))
        for e in complex.sorted_edges:
            if not complex.faces_containing_edge(*e):
                out.append(Diagnostic("pure_dim2", "{%s}" % ",".join(e), f"edge {{{','.join(e)}}} not in any 2-simplex"))
    return out

