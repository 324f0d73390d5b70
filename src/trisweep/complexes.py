"""Simplicial complexes of pure dimension two and their oriented triangle cells.

A complex stores vertices, unordered triangles and unordered edges; the
edges always include every side of every triangle.  Oriented cells come in
six kinds: the two triangle orientations over a marked edge, the two loop
orientations at a marked basepoint, and the identity cells at an oriented
edge or a vertex.  They are built from the cell sides that
``paths.move_window`` checks (``paths.cell_sides``), and ``classify_cell``
recognises a triangle or loop cell by checking its expand move through
``move_window``.  ``SimplicialComplex.supports`` is the one rule for which
cells a complex carries.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable, Iterator, Optional

from ._record import Record
from .errors import ComplexError, SchemeError, input_limit_text, quote
from .paths import EdgePath, HomotopyStep, cell_name, cell_sides, move_window, reduce_x1

VertexId = str

KINDS = ("alpha", "alpha_star", "beta", "beta_star", "identity_edge", "identity_vertex")


def _token_ok(name: str) -> bool:
    return isinstance(name, str) and bool(name) and not any(ch.isspace() for ch in name)


class SimplicialComplex(Record):
    """Vertices, triangles and edges of a (declared) pure-dimension-2 complex.

    Instances are immutable and safe to share between workers.  Build them
    with :meth:`build` or :func:`load_complex`, which add the derived edges.

    Incidence queries read an index built on first use in one pass over the
    sorted triangles: each vertex and each edge maps to the faces that
    contain it, in sorted-triangle order, so ``faces_containing`` and
    ``faces_containing_edge`` are dict lookups, not scans.
    """

    vertices: frozenset[str]
    triangles: frozenset[frozenset[str]]
    edges: frozenset[frozenset[str]]
    pure_dim2: bool = False

    @classmethod
    def build(
        cls,
        vertices: Iterable[str],
        triangles: Iterable[Iterable[str]] = (),
        edges: Iterable[Iterable[str]] = (),
        pure_dim2: bool = False,
    ) -> "SimplicialComplex":
        vs = frozenset(vertices)
        listed = [tuple(t) for t in triangles]
        for t in listed:
            if len(set(t)) != 3:
                raise ComplexError(f"bad triangle {quote(t)}: need three distinct vertices")
        tris = frozenset(map(frozenset, listed))
        declared = frozenset(frozenset(e) for e in edges)
        derived = frozenset(frozenset(pair) for t in tris for pair in _edge_subsets(t))
        return cls(vs, tris, declared | derived, pure_dim2)

    # -- queries ---------------------------------------------------------

    def has_edge(self, a: str, b: str) -> bool:
        return a != b and frozenset((a, b)) in self.edges

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
        if a == b:
            return self.faces_containing(a)
        return self._edge_faces.get(frozenset((a, b)), ())

    @cached_property
    def _marking_set(self) -> frozenset[tuple[str, str, str]]:
        return frozenset(self._markings)

    @cached_property
    def _neighbor_map(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, set[str]] = {}
        for e in self.edges:
            a, b = sorted(e)
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        return {v: tuple(sorted(ws)) for v, ws in adj.items()}

    @cached_property
    def _vertex_faces(self) -> dict[str, tuple[frozenset[str], ...]]:
        return _faces_by_part(self.sorted_triangles_sets, lambda face: face)

    @cached_property
    def _edge_faces(self) -> dict[frozenset[str], tuple[frozenset[str], ...]]:
        return _faces_by_part(self.sorted_triangles_sets, lambda face: [face - {v} for v in face])

    @cached_property
    def sorted_vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.vertices))

    @cached_property
    def sorted_edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(tuple(sorted(e)) for e in sorted(self.edges, key=lambda e: sorted(e)))

    @cached_property
    def sorted_triangles(self) -> tuple[tuple[str, str, str], ...]:
        return tuple(tuple(sorted(t)) for t in sorted(self.triangles, key=lambda t: sorted(t)))

    @cached_property
    def sorted_triangles_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(t) for t in self.sorted_triangles)

    def markings(self) -> Iterator[tuple[str, str, str]]:
        """The six markings (source, apex, target) of each face, faces in sorted order."""
        return iter(self._markings)

    @cached_property
    def _markings(self) -> tuple[tuple[str, str, str], ...]:
        # kept, so that the support set and the connections built on this complex share these tuples
        return tuple(
            m for a, b, c in self.sorted_triangles for m in ((b, a, c), (c, a, b), (a, b, c), (c, b, a), (a, c, b), (b, c, a))
        )

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.sorted_vertices[0]}
        stack = [self.sorted_vertices[0]]
        while stack:
            for w in self.neighbors(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == self.vertices


def _faces_by_part(faces, parts) -> dict:
    """Map each vertex or edge that ``parts(face)`` yields to its faces, in the given order."""
    buckets: dict = {}
    for face in faces:
        for part in parts(face):
            buckets.setdefault(part, []).append(face)
    return {part: tuple(bucket) for part, bucket in buckets.items()}


def _edge_subsets(tri: frozenset[str]) -> list[tuple[str, str]]:
    a, b, c = sorted(tri)
    return [(a, b), (a, c), (b, c)]


# -- file format ---------------------------------------------------------

_COMPLEX_KEYS = {"vertices", "triangles", "edges", "pure_dim2"}


def load_complex(text: str) -> SimplicialComplex:
    """Parse and validate the JSON complex format.

    Raises ``ComplexError`` on malformed JSON (with line and column), on a
    duplicate vertex, and on closure violations such as a triangle naming
    an undeclared vertex.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ComplexError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc
    except (ValueError, RecursionError) as exc:  # an integer past the int-to-str limit, or deep nesting
        raise ComplexError(f"parse error: {input_limit_text(exc)}") from exc
    if not isinstance(obj, dict):
        raise ComplexError("complex file must hold a JSON object")
    unknown = set(obj) - _COMPLEX_KEYS
    if unknown:
        raise ComplexError(f"unknown keys: {sorted(unknown)}")
    raw_vertices = obj.get("vertices", [])
    if not isinstance(raw_vertices, list) or not all(isinstance(v, str) for v in raw_vertices):
        raise ComplexError('"vertices" must be a list of strings')
    seen: set[str] = set()
    for v in raw_vertices:
        if not _token_ok(v):
            raise ComplexError(f"bad vertex name {v!r}: must be nonempty without whitespace")
        if v in seen:
            raise ComplexError(f"duplicate vertex {v!r}")
        seen.add(v)
    vertices = frozenset(raw_vertices)

    raw_triangles = obj.get("triangles", [])
    if not isinstance(raw_triangles, list):
        raise ComplexError('"triangles" must be a list')
    triangles = []
    for t in raw_triangles:
        # a list or an object among the vertices would make set(t) raise
        if not isinstance(t, list) or len(t) != 3 or not (type(t[0]) is type(t[1]) is type(t[2]) is str) or len(set(t)) != 3:
            raise ComplexError(f"bad triangle {quote(t)}: need three distinct vertices")
        for v in t:
            if v not in vertices:
                raise ComplexError(f"closure violation: triangle {quote(t)} references undeclared vertex {quote(v)}")
        triangles.append(t)

    raw_edges = obj.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ComplexError('"edges" must be a list')
    edges = []
    for e in raw_edges:
        if not isinstance(e, list) or len(e) != 2 or not (type(e[0]) is type(e[1]) is str) or len(set(e)) != 2:
            raise ComplexError(f"bad edge {quote(e)}: need two distinct vertices")
        for v in e:
            if v not in vertices:
                raise ComplexError(f"closure violation: edge {quote(e)} references undeclared vertex {quote(v)}")
        edges.append(e)

    pure = obj.get("pure_dim2", False)
    if not isinstance(pure, bool):
        raise ComplexError('"pure_dim2" must be a boolean')
    return SimplicialComplex.build(vertices, triangles, edges, pure)


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
    rule: str
    simplex: str
    message: str

    def __str__(self) -> str:
        return self.message


def validate_complex(complex: SimplicialComplex, require_pure_dim2: bool = False) -> list[Diagnostic]:
    """Scan all invariants; an empty list means the complex is valid.

    Pure-dimension checks run when requested or when the complex declares
    itself pure of dimension two.
    """
    out: list[Diagnostic] = []
    for t in complex.sorted_triangles:
        for v in t:
            if v not in complex.vertices:
                out.append(
                    Diagnostic("closure", "{%s}" % ",".join(t), f"triangle {{{','.join(t)}}} references undeclared vertex {v}")
                )
        for pair in _edge_subsets(frozenset(t)):
            if frozenset(pair) not in complex.edges:
                out.append(
                    Diagnostic("closure", "{%s}" % ",".join(pair), f"edge {{{','.join(pair)}}} of triangle {{{','.join(t)}}} is missing")
                )
    for e in complex.sorted_edges:
        for v in e:
            if v not in complex.vertices:
                out.append(Diagnostic("closure", "{%s}" % ",".join(e), f"edge {{{','.join(e)}}} references undeclared vertex {v}"))
    if require_pure_dim2 or complex.pure_dim2:
        for v in complex.sorted_vertices:
            if not complex.faces_containing(v):
                out.append(Diagnostic("pure_dim2", v, f"vertex {v} not in any 2-simplex"))
        for e in complex.sorted_edges:
            if not complex.faces_containing_edge(*e):
                out.append(Diagnostic("pure_dim2", "{%s}" % ",".join(e), f"edge {{{','.join(e)}}} not in any 2-simplex"))
    return out


# -- oriented cells ------------------------------------------------------

class OrientedTriangle(Record):
    """An oriented cell: marked source/target vertices plus its two boundary paths.

    ``direction`` is set on loop cells: +1 when the boundary follows the
    cyclic order of the lexicographically sorted face, -1 otherwise.
    """

    kind: str
    source: str
    target: str
    source_path: EdgePath
    target_path: EdgePath
    apex: Optional[str] = None
    direction: Optional[int] = None

    @classmethod
    def _of(cls, cell: tuple[str, ...], star: bool = False) -> "OrientedTriangle":
        """The cell on the chain ``a.c.b``, ``c.a.b.c``, ``a.b`` or ``a.a``; ``star`` runs it from the long side to the short.

        Both sides of an identity cell are its one step.
        """
        short, long = cell_sides(cell) if len(cell) > 2 else ((cell,), (cell,))
        # a loop in the sorted face's cyclic order ascends on two of its three steps, the reverse loop on one
        direction = 2 * sum(x < y for x, y in long) - 3 if len(cell) == 4 else None
        paths = (EdgePath(long), EdgePath(short)) if star else (EdgePath(short), EdgePath(long))
        apex = cell[1] if len(cell) == 3 else None
        return cls(_cell_kind(cell, star), cell[0], cell[-1], *paths, apex, direction)

    @property
    def marked_vertices(self) -> tuple[str, str]:
        return (self.source, self.target)

    @property
    def name(self) -> str:
        star = self.kind.endswith("_star")
        chain = (self.source_path if star else self.target_path).vertices
        if self.kind.startswith("identity"):
            return "id." + cell_name(chain[: 1 + (self.kind == "identity_edge")])
        return cell_name(chain) + "*" * star


def _cell_kind(cell: tuple[str, ...], star: bool) -> str:
    if len(cell) == 2:
        return "identity_vertex" if cell[0] == cell[1] else "identity_edge"
    return ("alpha", "beta")[len(cell) - 3] + "_star" * star


def oriented_triangles(complex: SimplicialComplex, kind_filter: Optional[str] = None) -> list[OrientedTriangle]:
    """Enumerate oriented cells in deterministic order.

    Per triangle: six cells of each triangle-move orientation (three apex
    choices times two directions of the marked edge) and three loop cells,
    one per basepoint, in the canonical direction.  Identity cells come one
    per oriented edge and one per vertex.
    """
    if kind_filter is not None and kind_filter not in KINDS:
        raise ComplexError(f"unknown cell kind {kind_filter!r}")
    loops = ((c, a, b, c) for p, q, r in complex.sorted_triangles for c, a, b in ((p, q, r), (q, r, p), (r, p, q)))
    edges = (pair for u, w in complex.sorted_edges for pair in ((u, w), (w, u)))
    vertices = ((v, v) for v in complex.sorted_vertices)
    families = ((complex.markings(), (False, True)), (loops, (False, True)), (edges, (False,)), (vertices, (False,)))
    return [
        OrientedTriangle._of(cell, star)
        for cells, stars in families
        for cell in cells
        for star in stars
        if kind_filter in (None, _cell_kind(cell, star))
    ]


def classify_cell(source_path: EdgePath, target_path: EdgePath, complex: SimplicialComplex) -> Optional[OrientedTriangle]:
    """Identify the elementary cell realizing the pair, reduced rel endpoints.

    The cell is the vertex chain of the longer reduced path.  Equal one-step
    paths give an identity cell; otherwise the shorter path must be one
    step that the cell's expand move, as ``move_window`` checks it against
    the complex, turns into the longer one.  Returns None when no single
    oriented triangle connects the two paths; composite homotopies are not
    elementary.
    """
    if source_path.source != target_path.source or source_path.target != target_path.target:
        return None
    rs = reduce_x1(source_path)
    rt = reduce_x1(target_path)
    star = len(rs) > len(rt)
    short, long = (rt, rs) if star else (rs, rt)
    if len(short) != 1:
        return None
    cell = long.vertices
    if short == long:
        x, y = cell
        return OrientedTriangle._of(cell) if x == y or complex.has_edge(x, y) else None
    if len(cell) not in (3, 4):
        return None
    try:
        move_window(short, HomotopyStep("alpha_expand" if len(cell) == 3 else "beta_expand", 0, cell), complex)
    except SchemeError:
        return None
    return OrientedTriangle._of(cell, star)
