"""Edge-paths on a triangulated surface and the rewriting moves between them.

An edge-path is a composable sequence of ordered vertex pairs; a pair
``(x, x)`` is a degenerate step and acts as the identity at ``x``.  Paths
compose by concatenation (degenerate steps collapse), invert by reversal,
and reduce to a normal form with no adjacent opposite pair and no removable
degenerate step.

A homotopy between two paths is a sequence of elementary moves: expanding
an edge across a triangle (or merging the two sides back), expanding a
degenerate loop to a triangle boundary (or collapsing it), inserting or
cancelling an opposite pair of edges, and inserting or dropping degenerate
steps.  ``validate_scheme`` replays such a sequence against a complex and
``search_homotopy`` looks for one by bounded breadth-first search.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from functools import cached_property
from typing import Iterator, Optional

from ._record import Record
from .errors import PathError, SchemeError, TrisweepError, decode_json, quote

Step = tuple[str, str]

# Every move, with the number of path steps it consumes at its position.
MOVES = {
    "alpha_expand": 1,
    "alpha_merge": 2,
    "beta_expand": 1,
    "beta_merge": 3,
    "x1_insert": 0,
    "x1_cancel": 2,
    "deg_insert": 0,
    "deg_drop": 1,
}

# Vertices of the cell a move names; the moves missing here take no cell.
_CELL_SIZE = {"alpha_expand": 3, "alpha_merge": 3, "beta_expand": 4, "beta_merge": 4, "x1_insert": 2}

# What a window that does not match its move fails to be, where the path
# rather than the cell fixes the window.
_MISMATCH = {"x1_cancel": "an opposite pair", "deg_drop": "degenerate"}


class EdgePath(Record):
    """A nonempty composable sequence of ordered vertex pairs, kept as a tuple of tuples.

    The constructor refuses steps that are not pairs, a string among
    them, an empty sequence and steps that do not compose, each with a
    ``PathError``.
    """

    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        try:  # None, like an empty sequence, is the empty path refused below
            given = tuple(self.steps or ())
            object.__setattr__(self, "steps", tuple(map(tuple, given)))
        except TypeError:  # the steps, or one of them, cannot be iterated
            raise PathError(f"edge-path steps {quote(self.steps)} are not pairs of vertices") from None
        if bad := [g for g, s in zip(given, self.steps) if len(s) != 2 or isinstance(g, str)]:
            raise PathError(f"step {quote(bad[0])} is not a pair of vertices")
        if not self.steps:
            raise PathError("empty edge-path is not allowed; use an identity path")
        for (x, y), (x2, _y2) in zip(self.steps, self.steps[1:]):
            if y != x2:
                raise PathError(f"steps ({x},{y}) and ({x2},{_y2}) are not composable")

    @classmethod
    def from_vertices(cls, *chain: str) -> "EdgePath":
        """Build a path from a chain of vertices; a single vertex gives the identity."""
        if not chain:
            raise PathError("at least one vertex is required")
        if len(chain) == 1:
            return cls.identity(chain[0])
        return cls._trusted(tuple(zip(chain, chain[1:])))

    @classmethod
    def identity(cls, vertex: str) -> "EdgePath":
        return cls._trusted(((vertex, vertex),))

    @property
    def source(self) -> str:
        return self.steps[0][0]

    @property
    def target(self) -> str:
        return self.steps[-1][1]

    @property
    def vertices(self) -> tuple[str, ...]:
        """The vertex chain v0..vn visited by the path."""
        return (self.steps[0][0],) + tuple(y for _x, y in self.steps)

    def is_loop(self) -> bool:
        return self.source == self.target

    def is_identity(self) -> bool:
        return len(self.steps) == 1 and self.steps[0][0] == self.steps[0][1]

    def inverse(self) -> "EdgePath":
        return invert_path(self)

    def __mul__(self, other: "EdgePath") -> "EdgePath":
        return compose_paths(self, other)

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return "(" + ",".join(f"{x}>{y}" for x, y in self.steps) + ")"


def _drop_removable_degenerates(steps: Sequence[Step], source: str) -> EdgePath:
    # a degenerate step (x, x) joins two steps through x, so the rest stay composable
    kept = tuple(s for s in steps if s[0] != s[1])
    if not kept:
        return EdgePath.identity(source)
    return EdgePath._trusted(kept)


def compose_paths(p: EdgePath, q: EdgePath) -> EdgePath:
    """Concatenate two paths; removable degenerate steps are dropped."""
    if p.target != q.source:
        raise PathError(
            f"endpoint mismatch: cannot compose path into {p.target} with path from {q.source}"
        )
    return _drop_removable_degenerates(p.steps + q.steps, p.source)


def invert_path(p: EdgePath) -> EdgePath:
    """Reverse the step order and each step."""
    return EdgePath._trusted(tuple((y, x) for x, y in reversed(p.steps)))


def reduce_x1(p: EdgePath) -> EdgePath:
    """Normal form: no adjacent opposite pair, no removable degenerate step.

    Free reduction is confluent, so the result does not depend on the
    cancellation order.  Endpoints are preserved; a path that cancels away
    completely becomes the identity at its source.
    """
    stack: list[Step] = []
    for step in p.steps:
        if step[0] == step[1]:
            continue
        if stack and stack[-1] == (step[1], step[0]):
            stack.pop()
        else:
            stack.append(step)
    if not stack:
        return EdgePath.identity(p.source)
    return EdgePath._trusted(tuple(stack))


def x1_homotopic(p: EdgePath, q: EdgePath) -> bool:
    """True iff the endpoints agree and the reduced forms coincide."""
    if p.source != q.source or p.target != q.target:
        return False
    return reduce_x1(p) == reduce_x1(q)


class HomotopyStep(Record):
    """One elementary move, applied at a step index of the current path.

    ``cell`` is a vertex tuple whose length encodes its meaning: three
    vertices ``(a, c, b)`` name the triangle cell with marked pair (a, b)
    and third vertex c; four vertices ``(c, a, b, c)`` name the loop cell
    based at c; two vertices give the edge pair used by ``x1_insert``.
    Bookkeeping moves carry no cell.  A cell that is not a tuple of
    strings is refused here, once, with a ``SchemeError`` that quotes it.
    """

    move: str
    position: int
    cell: Optional[tuple[str, ...]] = None

    # written out: load_scheme builds one per scheme step, search_homotopy
    # one per candidate move
    def __init__(self, move: str, position: int, cell: Optional[tuple[str, ...]] = None) -> None:
        object.__setattr__(self, "move", move)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "cell", cell)
        if not isinstance(move, str) or move not in MOVES:
            raise SchemeError(f"unknown move {move!r}")
        if type(position) is not int:  # refuses a bool, and any other int subclass, too
            raise SchemeError(f"position {position!r} is not an integer")
        if position < 0:
            raise SchemeError(f"negative position {position}")
        size = _CELL_SIZE.get(move)
        if size is None:
            if cell is not None:
                raise SchemeError(f"move {move} takes no cell")
        elif cell is not None and (type(cell) is not tuple or not {str}.issuperset(map(type, cell))):
            raise SchemeError(f"cell {quote(cell)} is not a tuple of vertex names")
        elif cell is None or len(cell) != size:
            raise SchemeError(f"move {move} needs a cell with {size} vertices")
        elif size == 4 and cell[0] != cell[-1]:
            raise SchemeError(f"loop cell {'.'.join(cell)} must start and end at the same vertex")


class SweepScheme(Record):
    """A start path together with a tuple of homotopy moves.

    The constructor refuses a start that is not an ``EdgePath`` and steps
    that are not a tuple of ``HomotopyStep``, with a ``SchemeError``.
    ``_replay`` replays the moves on the start path once per scheme
    object, checking each against the path alone, and ``_cells`` holds
    the distinct cells they name.  ``validate_scheme`` and ``run_scheme``
    read both, and check the cells against their own complex on every
    call.
    """

    start_path: EdgePath
    steps: tuple[HomotopyStep, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.start_path, EdgePath):
            raise SchemeError(f"scheme start {quote(self.start_path)} is not an edge-path")
        if type(self.steps) is not tuple or not all(isinstance(step, HomotopyStep) for step in self.steps):
            raise SchemeError(f"scheme steps {quote(self.steps)} are not a tuple of homotopy steps")

    @cached_property
    def _cells(self) -> set[tuple[str, ...]]:
        return {step.cell for step in self.steps} - {None}

    @cached_property
    def _replay(self) -> tuple[list[tuple], tuple[Step, ...], Optional[str]]:
        """One path delta per move that applies, the path after them, and why the next move does not apply.

        The first delta ``(0, 0, steps)`` writes the start path, and each
        move adds ``(i, j, produced)``: the window it consumes, steps i:j,
        becomes ``produced``.  The message is None when every move applies.
        """
        steps, deltas = list(self.start_path.steps), [(0, 0, self.start_path.steps)]
        for step in self.steps:
            try:
                consumed, produced = _path_window(steps, step)
            except SchemeError as exc:
                return deltas, tuple(steps), str(exc)
            i, j = step.position, step.position + len(consumed)
            steps[i:j] = produced
            deltas.append((i, j, produced))
        return deltas, tuple(steps), None

    def __reduce__(self):
        # the replay is derived from the fields, so a pickle holds the fields alone
        return type(self), (self.start_path, self.steps)


def _steps_text(steps: Sequence[Step]) -> str:
    return ",".join(f"({x},{y})" for x, y in steps)


def cell_sides(cell: tuple[str, ...]) -> tuple[tuple[Step, ...], tuple[Step, ...]]:
    """The short and the long side of a triangle cell or a loop cell.

    They are ``(a,b)`` and ``(a,c),(c,b)`` for the triangle ``a.c.b``, and
    the degenerate step ``(c,c)`` and the boundary ``(c,a),(a,b),(b,c)``
    for the loop ``c.a.b.c``: the long side runs along the cell's vertices.
    """
    if len(cell) == 3:
        a, c, b = cell
        return ((a, b),), ((a, c), (c, b))
    c, a, b, _c = cell
    return ((c, c),), ((c, a), (a, b), (b, c))


def _path_window(steps: Sequence[Step], step: HomotopyStep) -> tuple[tuple[Step, ...], tuple[Step, ...]]:
    """The steps a move consumes at ``step.position`` and the steps replacing them.

    This is the one check of a move against a path's ``steps``; a move
    that does not apply raises ``SchemeError``.  Both windows run between
    the same two vertices, so a move keeps the path's endpoints.  A
    cancellation of the whole path produces the identity step at its
    source.
    """
    i, move, cell = step.position, step.move, step.cell
    found = tuple(steps[i : i + MOVES[move]])
    if i > len(steps) or len(found) < MOVES[move]:
        raise SchemeError(f"position {i} out of range for {move} on a path of {len(steps)} steps")
    v = steps[i][0] if i < len(steps) else steps[-1][1]
    # a move and its inverse swap the same two windows: the short side and
    # the long side of a triangle, loop cell, backtracking pair or degenerate step
    if move.startswith(("alpha", "beta")):
        short, long = cell_sides(cell)
    elif move.startswith("x1"):
        x, y = cell or found[0]
        short, long = (), ((x, y), (y, x))
    else:
        short, long = (), ((v, v),)
    consumed, produced = (short, long) if move.endswith(("expand", "insert")) else (long, short)
    if found != consumed or (produced and produced[0][0] != v):
        want = _MISMATCH.get(move) or _steps_text(consumed) or f"vertex {produced[0][0]}"
        raise SchemeError(f"path mismatch at position {i}: {_steps_text(found) or 'vertex ' + v}, not {want}")
    if move == "deg_drop" and len(steps) == 1:
        raise SchemeError("cannot drop the only step of an identity path")
    if len(consumed) == len(steps) and not produced:
        produced = ((v, v),)
    return consumed, produced


def _check_support(cell: Optional[tuple[str, ...]], complex) -> None:
    """Raise ``SchemeError`` unless the move's cell, if any, is one ``complex.supports``."""
    if cell is not None and not complex.supports(cell):
        shape = "an edge" if len(cell) == 2 else "a triangle"
        raise SchemeError(f"cell not supported: {cell_name(cell)} is not {shape} of the complex")


def apply_move_path(path: EdgePath, step: HomotopyStep, complex) -> EdgePath:
    """Apply one move to a bare path, checking it against the complex.

    The path is checked first, as a scheme's replay checks it, then the
    cell, as ``_replayed_window`` checks it.  The window's two sides run
    between the same two vertices, and the produced side starts where the
    path stands at the position, so the spliced steps are composable and
    are not checked again.
    """
    consumed, produced = _path_window(path.steps, step)
    _check_support(step.cell, complex)
    return EdgePath._trusted(path.steps[: step.position] + produced + path.steps[step.position + len(consumed) :])


def _states(deltas: list[tuple], item=None):
    """After each delta ``(i, j, new)`` in turn, the list it leaves: items i:j of the one before become ``new``.

    The same list is yielded each time, so copy it to keep a state; each
    item a delta writes goes through ``item`` when given.
    """
    out: list = []
    for i, j, new in deltas:
        out[i:j] = new if item is None else map(item, new)
        yield out


def _sweep_scheme(scheme: SweepScheme, move, error: type[TrisweepError]) -> None:
    """Call ``move(k, step)`` on every move of the scheme in order.

    This is the one loop that replays a scheme.  A move that raises
    ``error`` is named in the text ``step k: ...`` and in ``step_index``.
    """
    for idx, step in enumerate(scheme.steps):
        try:
            move(idx, step)
        except error as exc:
            raise error(f"step {idx}: {exc}", step_index=idx) from exc


def _replayed_window(scheme: SweepScheme, k: int, complex) -> tuple:
    """Move k's path delta ``(i, j, produced)`` from the scheme's replay, once the complex supports its cell.

    Where the replay stopped at move k, the move's window does not apply
    on the path: that is its ``SchemeError``, raised before the cell is
    checked, as ``apply_move_path`` orders the two.  A complex of None
    skips the cell, for a caller that checked every cell in bulk.
    """
    deltas, _final, failure = scheme._replay
    if k + 1 == len(deltas):
        raise SchemeError(failure)
    if complex is not None:
        _check_support(scheme.steps[k].cell, complex)
    return deltas[k + 1]


class _SweptPaths(Sequence):
    """Every path of a validated scheme, start included: read-only, built from its replay on first read.

    It supports ``len``, indexing and iteration, and compares equal to a
    list of the same paths; the last path is kept, so ``[-1]`` builds no other.
    """

    def __init__(self, scheme: SweepScheme) -> None:
        self._deltas, self._final = scheme._replay[0], EdgePath._trusted(scheme._replay[1])

    @cached_property
    def _paths(self) -> list[EdgePath]:
        return [EdgePath._trusted(tuple(steps)) for steps in _states(self._deltas)]

    def __len__(self) -> int:
        return len(self._deltas)

    def __getitem__(self, k):
        return self._final if k in (-1, len(self) - 1) else self._paths[k]

    def __eq__(self, other: object) -> bool:
        return list(self) == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


def validate_scheme(scheme: SweepScheme, complex) -> Sequence[EdgePath]:
    """Check a scheme against a complex and return every path it passes, start included.

    The scheme's replay checks the moves against the path once per scheme
    object.  Each call then checks the scheme's distinct cells against
    ``complex``, one ``supports`` call each.  Only when the replay stops
    or a cell is not supported are the moves checked one at a time, to
    raise the first fault's ``SchemeError`` with its step index.  Every
    path keeps the start path's endpoints, since each move does.  The
    result is a read-only sequence whose paths are built on first read.
    """
    if scheme._replay[2] is not None or not all(map(complex.supports, scheme._cells)):
        _sweep_scheme(scheme, lambda k, _step: _replayed_window(scheme, k, complex), SchemeError)
    return _SweptPaths(scheme)


def _candidate_moves(path: EdgePath, complex) -> Iterator[HomotopyStep]:
    steps = path.steps
    chain = path.vertices
    n = len(steps)
    for i in range(n):
        x, y = steps[i]
        if x == y:
            if n >= 2:
                yield HomotopyStep("deg_drop", i)
            for face in complex.faces_containing(x):
                others = sorted(face - {x})
                for a, b in ((others[0], others[1]), (others[1], others[0])):
                    yield HomotopyStep("beta_expand", i, (x, a, b, x))
        else:
            for face in complex.faces_containing_edge(x, y):
                (apex,) = face - {x, y}
                yield HomotopyStep("alpha_expand", i, (x, apex, y))
    # the steps are composable, so each window below runs along the chain
    for i in range(n - 1):
        x, y, y2 = chain[i : i + 3]
        if y2 == x and x != y:
            yield HomotopyStep("x1_cancel", i)
        if complex.supports((x, y, y2)):
            yield HomotopyStep("alpha_merge", i, (x, y, y2))
    for i in range(n - 2):
        c, a, b, c2 = chain[i : i + 4]
        if c == c2 and complex.supports((c, a, b)):
            yield HomotopyStep("beta_merge", i, (c, a, b, c))
    for k in range(n + 1):
        yield HomotopyStep("deg_insert", k)
        v = chain[k]
        for w in complex.neighbors(v):
            yield HomotopyStep("x1_insert", k, (v, w))


# The distinct paths search_homotopy may reach before it gives up.  From a
# backtrack on the torus T(16), depth 3 reaches about 10,600 paths and
# depth 4 took 8 s (2-vCPU host): about 30x per level.
SEARCH_NODE_LIMIT = 20_000


def search_homotopy(p: EdgePath, q: EdgePath, complex, depth_bound: int) -> Optional[SweepScheme]:
    """Breadth-first search for a scheme from p to q with at most depth_bound moves.

    Returns None when no scheme exists within the bound; this is
    inconclusive for homotopy in general.  Raises ``SchemeError`` once
    more than ``SEARCH_NODE_LIMIT`` distinct paths were reached without it.
    """
    if p.source != q.source or p.target != q.target:
        raise PathError("endpoints of the two paths must agree")
    if p == q:
        return SweepScheme(p, ())
    # every path reached, with the path and move it was first reached by
    parents: dict[EdgePath, Optional[tuple[EdgePath, HomotopyStep]]] = {p: None}
    frontier = [p]

    def rebuild(last: EdgePath) -> SweepScheme:
        moves: list[HomotopyStep] = []
        link = parents[last]
        while link is not None:
            last, step = link
            moves.append(step)
            link = parents[last]
        return SweepScheme(p, tuple(reversed(moves)))

    for depth in range(1, depth_bound + 1):
        nxt: list[EdgePath] = []
        for cur in frontier:
            for step in _candidate_moves(cur, complex):
                new = apply_move_path(cur, step, complex)
                if new in parents:
                    continue
                parents[new] = (cur, step)
                if new == q:
                    return rebuild(new)
                if len(parents) > SEARCH_NODE_LIMIT:
                    raise SchemeError(f"homotopy search gave up past {SEARCH_NODE_LIMIT} paths, at depth {depth} of {depth_bound}")
                nxt.append(new)
        frontier = nxt
        if not frontier:
            break
    return None


# -- scheme file format -------------------------------------------------------

def _cell_from_text(text: str) -> tuple[str, ...]:
    if "." in text:
        parts = tuple(text.split("."))
    else:
        # dotless shorthand: each character is a single-letter vertex name
        parts = tuple(text)
    if "" in parts:
        raise SchemeError(f"bad cell name {quote(text)}")
    return parts


def cell_name(cell: tuple[str, ...]) -> str:
    return ".".join(cell)


_STEP_KEYS = {"move", "cell", "position"}


def load_scheme(text: str) -> SweepScheme:
    """Parse the JSON scheme format into a SweepScheme.

    A step that cannot be read raises a ``SchemeError`` with ``step_index``
    set and the text ``step k: ...``.  Each step's keys are checked with
    one set inclusion, each distinct cell text is split once per file, and
    the scheme is built from the checked start path and moves unchecked.
    """
    obj = decode_json(text, SchemeError, "scheme parse error")
    if not isinstance(obj, dict):
        raise SchemeError("scheme file must hold a JSON object")
    unknown = set(obj) - {"start", "steps"}
    if unknown:
        raise SchemeError(f"unknown scheme keys: {sorted(unknown)}")
    if "start" not in obj or "steps" not in obj:
        raise SchemeError('scheme file needs "start" and "steps"')
    raw_start = obj["start"]
    if not isinstance(raw_start, list) or not all(
        isinstance(s, list) and len(s) == 2 and all(isinstance(v, str) for v in s) for s in raw_start
    ):
        raise SchemeError('"start" must be a list of [from, to] vertex pairs')
    try:
        start = EdgePath(tuple((s[0], s[1]) for s in raw_start))
    except PathError as exc:
        raise SchemeError(f"bad start path: {exc}") from exc
    moves: list[HomotopyStep] = []
    cells: dict[str, tuple[str, ...]] = {}
    if not isinstance(obj["steps"], list):
        raise SchemeError('"steps" must be a list')
    for k, raw in enumerate(obj["steps"]):
        if not isinstance(raw, dict):
            raise SchemeError(f"step {k} must be an object", step_index=k)
        try:
            if not raw.keys() <= _STEP_KEYS:
                raise SchemeError(f"unknown keys {sorted(raw.keys() - _STEP_KEYS)}")
            move, position, text = raw.get("move"), raw.get("position"), raw.get("cell")
            if not isinstance(move, str) or type(position) is not int:  # a JSON true is a bool, not an int
                raise SchemeError('needs string "move" and integer "position"')
            if text is not None and not isinstance(text, str):
                raise SchemeError('"cell" must be a string')
            if text is not None and text not in cells:
                cells[text] = _cell_from_text(text)
            moves.append(HomotopyStep(move, position, cells.get(text)))
        except SchemeError as exc:  # each step's refusal names the step, in its text and its step_index
            raise SchemeError(f"step {k}: {exc}", step_index=k) from exc
    return SweepScheme._trusted(start, tuple(moves))


def dump_scheme(scheme: SweepScheme) -> str:
    """Serialize a scheme back to its JSON file format.

    A cell's vertices are joined with ``.``, so a vertex name that is
    empty or holds one could not be read back: it is a ``SchemeError``
    naming the step and the vertex.
    """
    steps = []
    for k, st in enumerate(scheme.steps):
        entry: dict = {"move": st.move, "position": st.position}
        if st.cell is not None:
            if bad := [v for v in st.cell if not v or "." in v]:
                why = "holds the cell name separator '.'" if bad[0] else "is empty"
                raise SchemeError(f"step {k}: cell vertex {quote(bad[0])} {why}", step_index=k)
            entry["cell"] = cell_name(st.cell)
        steps.append(entry)
    obj = {"start": [[x, y] for x, y in scheme.start_path.steps], "steps": steps}
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
