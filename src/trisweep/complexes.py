"""Simplicial complexes of pure dimension two and their oriented triangle cells.

A complex stores vertices, unordered triangles and unordered edges; the
edges always include every side of every triangle.  Oriented cells come in
six kinds: the two triangle orientations over a marked edge, the two loop
orientations at a marked basepoint, and the identity cells at an oriented
edge or a vertex.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable, Optional

from ._record import Record
from .errors import ComplexError, input_limit_text
from .paths import EdgePath, reduce_x1

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
        tris = frozenset(frozenset(t) for t in triangles)
        declared = frozenset(frozenset(e) for e in edges)
        derived = frozenset(frozenset(pair) for t in tris for pair in _edge_subsets(t))
        return cls(vs, tris, declared | derived, pure_dim2)

    # -- queries ---------------------------------------------------------

    def has_edge(self, a: str, b: str) -> bool:
        return a != b and frozenset((a, b)) in self.edges

    def has_face(self, a: str, b: str, c: str) -> bool:
        return frozenset((a, b, c)) in self.triangles

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._neighbor_map.get(v, ())

    def faces_containing(self, v: str) -> tuple[frozenset[str], ...]:
        return self._vertex_faces.get(v, ())

    def faces_containing_edge(self, a: str, b: str) -> tuple[frozenset[str], ...]:
        if a == b:
            return self.faces_containing(a)
        return self._edge_faces.get(frozenset((a, b)), ())

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
        if not isinstance(t, list) or len(t) != 3 or len(set(t)) != 3:
            raise ComplexError(f"bad triangle {t!r}: need three distinct vertices")
        for v in t:
            if v not in vertices:
                raise ComplexError(f"closure violation: triangle {t!r} references undeclared vertex {v!r}")
        triangles.append(t)

    raw_edges = obj.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ComplexError('"edges" must be a list')
    edges = []
    for e in raw_edges:
        if not isinstance(e, list) or len(e) != 2 or len(set(e)) != 2:
            raise ComplexError(f"bad edge {e!r}: need two distinct vertices")
        for v in e:
            if v not in vertices:
                raise ComplexError(f"closure violation: edge {e!r} references undeclared vertex {v!r}")
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

    @property
    def marked_vertices(self) -> tuple[str, str]:
        return (self.source, self.target)

    @property
    def name(self) -> str:
        if self.kind == "alpha":
            return f"{self.source}.{self.apex}.{self.target}"
        if self.kind == "alpha_star":
            return f"{self.source}.{self.apex}.{self.target}*"
        if self.kind in ("beta", "beta_star"):
            a, b = self.target_path.steps[0][1], self.target_path.steps[1][1]
            if self.kind == "beta_star":
                a, b = self.source_path.steps[0][1], self.source_path.steps[1][1]
                return f"{self.source}.{a}.{b}.{self.source}*"
            return f"{self.source}.{a}.{b}.{self.source}"
        if self.kind == "identity_edge":
            return f"id.{self.source}.{self.target}"
        return f"id.{self.source}"

    @classmethod
    def alpha(cls, a: str, c: str, b: str) -> "OrientedTriangle":
        return cls("alpha", a, b, EdgePath(((a, b),)), EdgePath(((a, c), (c, b))), apex=c)

    @classmethod
    def alpha_star(cls, a: str, c: str, b: str) -> "OrientedTriangle":
        return cls("alpha_star", a, b, EdgePath(((a, c), (c, b))), EdgePath(((a, b),)), apex=c)

    @classmethod
    def beta(cls, c: str, a: str, b: str) -> "OrientedTriangle":
        return cls(
            "beta", c, c,
            EdgePath.identity(c),
            EdgePath(((c, a), (a, b), (b, c))),
            direction=_loop_direction(c, a, b),
        )

    @classmethod
    def beta_star(cls, c: str, a: str, b: str) -> "OrientedTriangle":
        return cls(
            "beta_star", c, c,
            EdgePath(((c, a), (a, b), (b, c))),
            EdgePath.identity(c),
            direction=_loop_direction(c, a, b),
        )

    @classmethod
    def identity_edge(cls, a: str, b: str) -> "OrientedTriangle":
        p = EdgePath(((a, b),))
        return cls("identity_edge", a, b, p, p)

    @classmethod
    def identity_vertex(cls, a: str) -> "OrientedTriangle":
        p = EdgePath.identity(a)
        return cls("identity_vertex", a, a, p, p)


def _loop_direction(c: str, a: str, b: str) -> int:
    p, q, r = sorted((c, a, b))
    succ = {p: q, q: r, r: p}
    return 1 if succ[c] == a else -1


def oriented_triangles(complex: SimplicialComplex, kind_filter: Optional[str] = None) -> list[OrientedTriangle]:
    """Enumerate oriented cells in deterministic order.

    Per triangle: six cells of each triangle-move orientation (three apex
    choices times two directions of the marked edge) and three loop cells,
    one per basepoint, in the canonical direction.  Identity cells come one
    per oriented edge and one per vertex.
    """
    if kind_filter is not None and kind_filter not in KINDS:
        raise ComplexError(f"unknown cell kind {kind_filter!r}")
    out: list[OrientedTriangle] = []

    def want(kind: str) -> bool:
        return kind_filter is None or kind_filter == kind

    if want("alpha") or want("alpha_star"):
        for tri in complex.sorted_triangles:
            for apex in tri:
                u, w = sorted(set(tri) - {apex})
                for a, b in ((u, w), (w, u)):
                    if want("alpha"):
                        out.append(OrientedTriangle.alpha(a, apex, b))
                    if want("alpha_star"):
                        out.append(OrientedTriangle.alpha_star(a, apex, b))
    if want("beta") or want("beta_star"):
        for tri in complex.sorted_triangles:
            p, q, r = tri
            succ = {p: q, q: r, r: p}
            for c in tri:
                a = succ[c]
                b = succ[a]
                if want("beta"):
                    out.append(OrientedTriangle.beta(c, a, b))
                if want("beta_star"):
                    out.append(OrientedTriangle.beta_star(c, a, b))
    if want("identity_edge"):
        for u, w in complex.sorted_edges:
            out.append(OrientedTriangle.identity_edge(u, w))
            out.append(OrientedTriangle.identity_edge(w, u))
    if want("identity_vertex"):
        for v in complex.sorted_vertices:
            out.append(OrientedTriangle.identity_vertex(v))
    return out


def classify_cell(source_path: EdgePath, target_path: EdgePath, complex: SimplicialComplex) -> Optional[OrientedTriangle]:
    """Identify the elementary cell realizing the pair, reduced rel endpoints.

    Returns None when no single oriented triangle connects the two paths;
    composite homotopies are not elementary.
    """
    if source_path.source != target_path.source or source_path.target != target_path.target:
        return None
    rs = reduce_x1(source_path)
    rt = reduce_x1(target_path)

    if rs == rt:
        (x, y) = rs.steps[0]
        if len(rs.steps) == 1:
            if x == y:
                return OrientedTriangle.identity_vertex(x)
            if complex.has_edge(x, y):
                return OrientedTriangle.identity_edge(x, y)
        return None

    def as_alpha(one: EdgePath, two: EdgePath) -> Optional[tuple[str, str, str]]:
        if len(one.steps) != 1 or len(two.steps) != 2:
            return None
        (a, b) = one.steps[0]
        (a2, c), (c2, b2) = two.steps
        if a == b or a2 != a or b2 != b or c != c2:
            return None
        if len({a, b, c}) != 3 or not complex.has_face(a, b, c):
            return None
        return (a, c, b)

    hit = as_alpha(rs, rt)
    if hit:
        return OrientedTriangle.alpha(*hit)
    hit = as_alpha(rt, rs)
    if hit:
        return OrientedTriangle.alpha_star(*hit)

    def as_beta(one: EdgePath, two: EdgePath) -> Optional[tuple[str, str, str]]:
        if not one.is_identity() or len(two.steps) != 3:
            return None
        c = one.source
        (c1, a), (a2, b), (b2, c2) = two.steps
        if c1 != c or c2 != c or a != a2 or b != b2:
            return None
        if len({c, a, b}) != 3 or not complex.has_face(c, a, b):
            return None
        return (c, a, b)

    hit = as_beta(rs, rt)
    if hit:
        return OrientedTriangle.beta(*hit)
    hit = as_beta(rt, rs)
    if hit:
        return OrientedTriangle.beta_star(*hit)
    return None
