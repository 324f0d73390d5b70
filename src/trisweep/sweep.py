"""Transport of sections across a swept surface, one triangle move at a time.

A section over an edge-path is a word of group elements, one letter per
step.  Each oriented triangle with a value phi rewrites these words:

* expanding an edge (a,b) across the triangle a.c.b sends the letter w to
  the pair (w, phi); merging the two sides back sends (u, v) to
  u * v * phi^-1, the exact inverse.
* expanding a degenerate loop (c,c) across the boundary cell c.a.b.c
  yields the letters (e, w, phi) over (ca, ab, bc); collapsing the
  boundary is again the exact inverse.

Running a whole scheme composes these moves.  Comparing the final word to
the initial one over the same path, letter by letter, gives the defect
word of the swept surface; the four-move square around two faces sharing
an edge measures the curvature of the cell values, and with a trivial
connective structure the admissible cell values are forced into the
center of the group.
"""

from __future__ import annotations

import json
import warnings
from contextlib import suppress
from functools import cached_property, partial, reduce
from itertools import chain
from typing import Collection, Iterable, Mapping, Optional

from ._record import Record
from .bundle import Connection1, GaugeTransform, _solve_gauge
from .complexes import SimplicialComplex
from .errors import BundleError, GroupError, SchemeError, SweepError, as_collection, decode_json, quote
# center_obstruction_check lives in groups; it stays importable from this
# module, where it was defined before and where the benchmark's tracer wraps
# it, as it wraps enumerate_elements, which is not called here
from .groups import (
    _NAME_RE,
    GroupDescriptor,
    GroupElement,
    center_obstruction_check,
    descriptor_from_json,
    descriptor_to_json,
    enumerate_elements,
    format_element,
    free_group,
    identity,
    inverse,
    multiply,
    parse_element,
    payload_rules,
)
# apply_move_path is not called here; it stays importable from this module,
# where the benchmark's tracer wraps it and its tests look it up
from .paths import (
    EdgePath,
    HomotopyStep,
    SweepScheme,
    _replayed_window,
    _states,
    _sweep_scheme,
    apply_move_path,
    cell_name,
)


class Connection2(Record):
    """Edge values plus one group element per named oriented triangle.

    Alpha keys are (source, apex, target) triples; the starred cell is
    never stored, its value is the inverse on demand.  Distinct markings
    of one face are independent entries unless a relation table
    identified them at load time.  Loop-cell (beta) values are derived
    from the matching alpha entry unless supplied explicitly.

    The constructor takes a ``Connection1`` and maps or (key, value)
    pairs, refusing any other with a ``SweepError``, makes a dict of
    each, and checks every cell's support and every value's backend: two
    set inclusions, of the alpha and beta keys in the complex's markings,
    and one pass over the values that compares each backend with the
    connection's, by identity first, so that no descriptor is hashed.
    Only when one fails are the cells walked, alpha before beta in
    insertion order, to raise a ``SweepError`` naming the first key that
    is not a triple of vertex names, unsupported cell or mismatched value;
    a value that is not a ``GroupElement`` is a backend mismatch.
    :meth:`build` is the constructor under its older name.  Both dicts are
    kept as checked, in insertion order, and connections with the same
    values compare equal whatever that order; the sorted ``alpha_values``
    and ``beta_values`` pairs are derived on first read.
    """

    base: Connection1
    _alpha: Mapping[tuple[str, str, str], GroupElement]
    _beta: Mapping[tuple[str, str, str], GroupElement] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.base, Connection1):
            raise SweepError(f"connection base {quote(self.base)} is not an edge connection")
        K, G = self.base.complex, self.base.group
        alpha, beta = as_collection(dict, self._alpha, SweepError, "alpha values"), as_collection(dict, self._beta, SweepError, "beta values")
        object.__setattr__(self, "_alpha", alpha)
        object.__setattr__(self, "_beta", beta)
        if alpha.keys() <= K._marking_set and beta.keys() <= K._marking_set:
            with suppress(AttributeError):  # a value that is not an element: the loop below names it
                if all(g.group is G or g.group == G for g in chain(alpha.values(), beta.values())):
                    return
        # the loop names the first fault; a key must be a triple before it is read as a cell, so a pair is
        # never read as an edge cell; an alpha key is its cell, and a beta key (c, a, b) names the loop c.a.b.c
        for name, cells, loop in (("alpha", alpha, 0), ("beta", beta, 1)):
            for key, g in cells.items():
                if type(key) is not tuple or len(key) != 3 or not all(isinstance(v, str) for v in key):
                    raise SweepError(f"{name} key {quote(key)} is not a triple of vertex names")
                if not K.supports(cell := key + key[:loop]):
                    raise SweepError(f"cell {cell_name(cell)} is not supported by a triangle of the complex")
                if not isinstance(g, GroupElement) or g.group != G:
                    raise SweepError(f"backend mismatch at cell {cell_name(cell)}")

    def __hash__(self) -> int:
        return hash((self.base, frozenset(self._alpha.items()), frozenset(self._beta.items())))

    @classmethod
    def build(cls, base: Connection1, alpha: Mapping[tuple[str, str, str], GroupElement], beta: Mapping | None = None) -> "Connection2":
        return cls(base, alpha, beta or {})

    @classmethod
    def flat(cls, group: GroupDescriptor, complex: SimplicialComplex) -> "Connection2":
        """All edges and all triangle cells carry the identity.

        It is built trusted: each key is a marking (source, apex, target)
        of one of the complex's own triangles, and each value the group's
        identity.
        """
        e = identity(group)
        return cls._trusted(Connection1.constant(group, complex, e), dict.fromkeys(complex.markings(), e), {})

    @property
    def group(self) -> GroupDescriptor:
        return self.base.group

    @property
    def complex(self) -> SimplicialComplex:
        return self.base.complex

    @cached_property
    def alpha_values(self) -> tuple[tuple[tuple[str, str, str], GroupElement], ...]:
        return tuple(sorted(self._alpha.items()))

    @cached_property
    def beta_values(self) -> tuple[tuple[tuple[str, str, str], GroupElement], ...]:
        return tuple(sorted(self._beta.items()))

    def alpha_value(self, a: str, c: str, b: str) -> GroupElement:
        got = self._alpha.get((a, c, b))
        if got is None:
            raise SweepError(f"missing cell value for {a}.{c}.{b}")
        return got

    def beta_value(self, c: str, a: str, b: str) -> GroupElement:
        got = self._beta.get((c, a, b))
        if got is not None:
            return got
        got = self._alpha.get((a, b, c))
        if got is None:
            raise SweepError(f"missing cell value for {c}.{a}.{b}.{c} (and no {a}.{b}.{c} to derive it)")
        return got


class Section(Record):
    """A word of group elements over an edge-path, one letter per step, kept as a tuple.

    A path that is not an ``EdgePath``, letters that are not a sequence,
    or a letter that is not a ``GroupElement``, is refused here, once,
    with a ``SweepError`` that quotes it.
    """

    path: EdgePath
    letters: tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.path, EdgePath):
            raise SweepError(f"section path {quote(self.path)} is not an edge-path")
        object.__setattr__(self, "letters", as_collection(tuple, self.letters, SweepError, "section letters"))
        if len(self.letters) != len(self.path.steps):
            raise SweepError(f"section has {len(self.letters)} letters over {len(self.path.steps)} steps")
        if bad := [l for l in self.letters if not isinstance(l, GroupElement)]:
            raise SweepError(f"section letter {quote(bad[0])} is not a group element")
        if len({l.group for l in self.letters}) > 1:
            raise SweepError("section letters must share one backend")


class SweepTrace(Record):
    """Every section a scheme passes through, from the start section to ``final``.

    It keeps the group and two lists of deltas ``(i, j, new)``, one each
    per section: a path delta turns the steps of the section before (none,
    for the first) into its steps, and a letter delta turns the letters
    before into its letters, as payloads; entries i:j become ``new``.  The
    path deltas are the scheme's replay.  ``sections`` is built from the
    deltas on first read.  The constructor refuses a scheme that is not a
    ``SweepScheme`` and sections that are not a sequence of ``Section``,
    then a trace with no sections, with sections in more than one
    backend, of a scheme whose replay stops at a move, or whose sections
    are not one per path of that replay, each over its path.  It records each section's letters as a
    delta ``(0, None, payloads)`` over the whole of the one before, so a
    trace compares, hashes, prints and pickles as its scheme and sections
    however it was made.
    """

    scheme: SweepScheme
    sections: tuple[Section, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sections", as_collection(tuple, self.sections, SweepError, "trace sections"))
        if not isinstance(self.scheme, SweepScheme) or not all(isinstance(s, Section) for s in self.sections):
            raise SweepError(f"trace fields {quote((self.scheme, self.sections))} are not a sweep scheme and sections")
        if not self.sections:
            raise SweepError("a trace needs at least one section")
        if len({s.letters[0].group for s in self.sections}) > 1:
            raise SweepError("trace sections must share one backend")
        paths, _final, failure = self.scheme._replay
        if failure is not None:
            raise SweepError(f"step {len(paths) - 1}: {failure}", step_index=len(paths) - 1)
        if len(self.sections) != len(paths):
            raise SweepError(f"a trace needs one section per path of its scheme: {len(paths)}, not {len(self.sections)}")
        for k, (s, steps) in enumerate(zip(self.sections, _states(paths))):
            if list(s.path.steps) != steps:
                raise SweepError(f"trace section {k} is over {s.path}, not over the scheme's {EdgePath._trusted(tuple(steps))}")
        letters = [(0, None, [l.payload for l in s.letters]) for s in self.sections]  # each replaces every letter before
        object.__setattr__(self, "_deltas", (self.sections[0].letters[0].group, paths, letters))

    @classmethod
    def _recorded(cls, scheme: SweepScheme, deltas: tuple, final: Section) -> "SweepTrace":
        trace = cls._trusted(scheme)
        # one update, not one set per attribute: a trace's attributes are read only a few times
        vars(trace).update(_deltas=deltas, final=final)
        return trace

    # read only where the constructor did not store the field: on a recorded trace
    @cached_property
    def sections(self) -> tuple[Section, ...]:
        group, paths, letters = self._deltas
        states = zip(_states(paths), _states(letters, partial(GroupElement, group)))
        return tuple(Section._trusted(EdgePath._trusted(tuple(s)), tuple(l)) for s, l in states)

    # read only where _recorded did not store it: on a trace built from its sections
    @cached_property
    def final(self) -> Section:
        return self.sections[-1]

    def __reduce__(self):
        return type(self), (self.scheme, self.sections)


class DefectReport(Record):
    """Letterwise quotient of a final section against the initial one.

    The constructor refuses a path, a tuple of defects or a gauge of
    another type with a ``SweepError``.
    """

    path: EdgePath
    defects: tuple[GroupElement, ...]
    gauge_used: GaugeTransform

    def __post_init__(self) -> None:
        if not (isinstance(self.path, EdgePath) and isinstance(self.gauge_used, GaugeTransform)
                and type(self.defects) is tuple and all(isinstance(d, GroupElement) for d in self.defects)):
            raise SweepError(f"defect report fields {quote(self._field_values(self))} are not a path, group elements and a gauge")

    def is_flat(self) -> bool:
        return all(d.is_identity() for d in self.defects)


def interior_vertices(path: EdgePath) -> frozenset[str]:
    """Vertices visited strictly inside the path, endpoints excluded."""
    chain = path.vertices
    return frozenset(chain[1:-1]) - {chain[0], chain[-1]}


# -- elementary moves on sections -----------------------------------------

class _Sweep:
    """The payload letters of a section that a scheme's moves rewrite in place, with one letter delta per move.

    ``k`` is the index of the next move.  ``complex`` is None when the
    connection's complex supports every distinct cell of the scheme,
    checked once per cell when the sweep is made, and else that complex,
    for each move to check its own cell.  The sweep holds its group's
    payload rules, bound to the group.
    """

    def __init__(self, start: Section, scheme: SweepScheme, connection: Connection2) -> None:
        group = start.letters[0].group
        rules = payload_rules(group)
        self.scheme, self.group, self.e, self.k = scheme, group, rules.identity(group), 0
        self.mul, self.inv = partial(rules.multiply, group), partial(rules.inverse, group)
        self.letters = [l.payload for l in start.letters]
        self.deltas = [(0, 0, tuple(self.letters))]
        self.complex = None if all(map(connection.complex.supports, scheme._cells)) else connection.complex

    def section(self) -> Section:
        """The section once every move of the scheme has run, built unchecked.

        Each move's window keeps the path composable, and every letter
        written lives in the checked backend.
        """
        return Section._trusted(EdgePath._trusted(self.scheme._replay[1]), tuple([GroupElement(self.group, p) for p in self.letters]))


def apply_move_section(section: Section, step: HomotopyStep, connection: Connection2) -> Section:
    """Apply one homotopy move to a section, rewriting only the letters over its window.

    The move's window comes from a scheme's replay.  Over it, an expansion
    writes (w, phi) across a triangle and (e, w, phi) across a loop
    boundary, phi being the cell value; a merge writes the product of the
    window's letters times phi^-1, which for a window ending in phi is
    the product of the letters before it, so that a merge undoing an
    expansion writes back w itself; an insertion writes identities.  A
    drop keeps the ordered product of the letters: the window's product
    is folded into the following letter, into the preceding one at the
    end of the path, and is the only letter when the path collapses to an
    identity path.  Letters are written as payloads, through the backend's
    rules.

    The checks run in the move's order: the section's backend against the
    connection's (first move only), the window against the path, the cell
    against the connection's complex, and the cell's value.  A cell value
    needs no check of its own, since the connection's constructor refuses
    one of another backend.  ``run_scheme`` passes its ``_Sweep`` here, and
    its next move is applied and spliced into it.  A plain section runs
    as a sweep over the scheme of this one move, and the result is that
    sweep's section.
    """
    sweep = section if isinstance(section, _Sweep) else _Sweep(section, SweepScheme(section.path, (step,)), connection)
    if sweep.k == 0 and sweep.group is not connection.group and sweep.group != connection.group:
        section_text, connection_text = (json.dumps(descriptor_to_json(g)) for g in (sweep.group, connection.group))
        raise SweepError(f"backend mismatch: section over {section_text}, connection over {connection_text}")
    try:
        i, j, produced = _replayed_window(sweep.scheme, sweep.k, sweep.complex)
    except SchemeError as exc:
        raise SweepError(str(exc)) from exc
    letters = sweep.letters
    if step.move in ("x1_cancel", "deg_drop"):
        # widen the window by the letter its product folds into
        i, j = (i, j + 1) if j < len(letters) else (max(i - 1, 0), j)
        new = (reduce(sweep.mul, letters[i:j]),)
    elif i == j:
        new = (sweep.e,) * len(produced)
    else:
        phi = (connection.alpha_value(*step.cell) if len(step.cell) == 3 else connection.beta_value(*step.cell[:3])).payload
        if len(produced) == 1:  # a merge; phi^-1 cancels a last letter phi, so it writes back the letter an expansion kept
            window = letters[i:j]
            new = (reduce(sweep.mul, window[:-1] if window[-1] == phi else window + [sweep.inv(phi)]),)
        else:
            new = (letters[i], phi) if len(step.cell) == 3 else (sweep.e, letters[i], phi)
    letters[i:j] = new
    sweep.deltas.append((i, j, new))
    sweep.k += 1
    return sweep if sweep is section else sweep.section()


def run_scheme(start: Section, scheme: SweepScheme, connection: Connection2) -> SweepTrace:
    """Apply every move of the scheme in order to one letter list of payloads.

    ``_Sweep`` checks the scheme's distinct cells against the connection's
    complex once per call; the path is checked once per scheme object, by
    its replay.  ``paths._sweep_scheme`` is the loop, as for
    ``validate_scheme``, and each move goes through ``apply_move_section``,
    which checks and applies it: a move so costs its letters and a list
    splice, not a copy of the section.  A fault is raised by the move it
    belongs to, named by its step; a scheme of no moves checks no backend.
    The trace records one letter delta per move, takes its path deltas
    from the replay, and builds the final section once.
    """
    if start.path != scheme.start_path:
        raise SweepError("section path does not match the scheme start path")
    sweep = _Sweep(start, scheme, connection)

    def move(_k: int, step: HomotopyStep) -> None:
        apply_move_section(sweep, step, connection)  # looked up on every move, so a wrapper set on the name sees each one

    _sweep_scheme(scheme, move, SweepError)
    return SweepTrace._recorded(scheme, (sweep.group, scheme._replay[0], sweep.deltas), sweep.section())


# -- gauge action on sections ----------------------------------------------

def twist_section(section: Section, gauge: GaugeTransform) -> Section:
    """Twist each letter over (p, q) into n_p^-1 * letter * n_q.

    ``multiply`` refuses a gauge value of another backend, so the twisted
    letters share the section's backend and the section is built unchecked.
    """
    letters = tuple(
        multiply(multiply(inverse(gauge.get(p)), l), gauge.get(q))
        for (p, q), l in zip(section.path.steps, section.letters)
    )
    return Section._trusted(section.path, letters)


def _common_group(s: Section, t: Section) -> GroupDescriptor:
    """The backend of two sections over one path: another path is a ``SweepError``, another backend a ``GroupError``."""
    if s.path != t.path:
        raise SweepError("sections live over different paths")
    if t.letters[0].group != s.letters[0].group:
        raise GroupError("backend mismatch between the two sections")
    return s.letters[0].group


def sections_gauge_equivalent(
    s: Section, t: Section, movable: frozenset[str] | set[str]
) -> Optional[GaugeTransform]:
    """Find a gauge supported on ``movable`` with twist(s) == t, or None.

    A section is an edge connection on its path's steps, so this is
    ``find_isomorphism``'s question, asked through the same gauge solver:
    it walks the path's steps with the letters of s and t, and the path's
    vertices outside ``movable`` keep the identity.  Every step that
    returns to a vertex the path already visited is checked, even one that
    crosses an edge the path took before.  A pinned vertex forces the root
    value, so only that candidate is tried.  When every vertex of the path
    is movable, the call is a whole-group operation: the group is
    enumerated, and an infinite group, or one above ``ENUMERATION_LIMIT``,
    is a ``GroupError``.  A candidate's gauge holds on every step once it
    passes the checks, so it is returned without twisting s again.
    """
    group = _common_group(s, t)
    chain = s.path.vertices
    walk = [(p, q, sl.payload, tl.payload) for (p, q), sl, tl in zip(s.path.steps, s.letters, t.letters)]
    return _solve_gauge(group, chain[0], walk, set(chain).difference(movable))


# -- two-holonomy and scheme comparison --------------------------------------

def _quotients(group: GroupDescriptor, u: Iterable[GroupElement], v: Iterable[GroupElement]) -> tuple[GroupElement, ...]:
    """The letterwise quotients a^-1 * b of two words whose letters the caller knows to live in ``group``.

    Each is computed on payloads through the backend's rules, so it builds
    one element per letter and compares no descriptors.
    """
    rules = payload_rules(group)
    return tuple(GroupElement(group, rules.multiply(group, rules.inverse(group, a.payload), b.payload)) for a, b in zip(u, v))


def two_holonomy(initial: Section, final: Section) -> DefectReport:
    """Letterwise defects of the final section against the initial one.

    Uses the canonical identity gauge on the interior vertices, which
    leaves every letter as it is, so the defects are read from the final
    letters directly; the gauge is reported so alternative choices can be
    recomputed by re-twisting.
    """
    group = _common_group(initial, final)
    gauge = GaugeTransform.build(group, {v: identity(group) for v in sorted(interior_vertices(initial.path))})
    defects = _quotients(group, initial.letters, final.letters)
    return DefectReport(initial.path, defects, gauge)


class SchemeComparison(Record):
    """The verdict on two schemes, the letterwise quotient of their final words, and the gauge that was found.

    The constructor refuses an unknown verdict, and a quotient tuple or a
    gauge of another type, with a ``SweepError``.
    """

    verdict: str  # "equal" | "gauge_equivalent" | "different"
    quotient: tuple[GroupElement, ...]
    gauge: Optional[GaugeTransform] = None

    def __post_init__(self) -> None:
        if not (self.verdict in ("equal", "gauge_equivalent", "different") and isinstance(self.gauge, (GaugeTransform, type(None)))
                and type(self.quotient) is tuple and all(isinstance(l, GroupElement) for l in self.quotient)):
            raise SweepError(f"comparison fields {quote(self._field_values(self))} are not a verdict, group elements and a gauge or None")


def compare_schemes(
    scheme1: SweepScheme, scheme2: SweepScheme, start: Section, connection: Connection2
) -> SchemeComparison:
    """Run both schemes from the same section and compare the final words.

    The quotient letters are final1^-1 * final2, letter by letter.  When
    the words differ, a gauge supported on the interior vertices of the
    final path is searched; success downgrades "different" to
    "gauge_equivalent".
    """
    if scheme1.start_path != scheme2.start_path:
        raise SweepError("schemes start on different paths")
    f1 = run_scheme(start, scheme1, connection).final
    f2 = run_scheme(start, scheme2, connection).final
    if f1.path != f2.path:
        raise SweepError("endpoint mismatch: schemes end on different paths")
    quotient = _quotients(f1.letters[0].group, f1.letters, f2.letters)
    if f1 == f2:
        return SchemeComparison("equal", quotient)
    gauge = sections_gauge_equivalent(f1, f2, interior_vertices(f1.path))
    if gauge is not None:
        return SchemeComparison("gauge_equivalent", quotient, gauge)
    return SchemeComparison("different", quotient)


def curvature_square(
    a: str, b: str, c: str, d: str, start: Section, connection: Connection2
) -> DefectReport:
    """Sweep the four-move square over the faces {a,b,c} and {b,c,d}.

    The section starts and ends over (a,b),(b,d); the defect report
    measures how far the cell values are from flat.
    """
    expected = EdgePath(((a, b), (b, d)))
    if start.path != expected:
        raise SweepError(f"curvature square needs a section over {expected}")
    moves = (
        HomotopyStep("alpha_expand", 0, (a, c, b)),
        HomotopyStep("alpha_merge", 1, (c, b, d)),
        HomotopyStep("alpha_expand", 0, (a, b, c)),
        HomotopyStep("alpha_merge", 1, (b, c, d)),
    )
    trace = run_scheme(start, SweepScheme(expected, moves), connection)
    return two_holonomy(start, trace.final)


# -- connection file format ---------------------------------------------------

_CONNECTION_KEYS = {"group", "edges", "cells", "cell_relations"}


def _parse_edge_key(key: str) -> tuple[str, str]:
    if key.count(">") != 1:
        raise BundleError(f'bad edge key {quote(key)}: expected "a>b"')
    a, b = key.split(">")
    if not a or not b:
        raise BundleError(f"bad edge key {quote(key)}")
    return a, b


def _parse_cell_key(key: str) -> tuple[str, ...]:
    parts = tuple(key.split("."))
    if len(parts) == 3 and len(set(parts)) == 3:
        return parts
    if len(parts) == 4 and parts[0] == parts[-1] and len(set(parts)) == 3:
        return parts
    raise BundleError(f'bad cell key {quote(key)}: expected "a.c.b" or "c.a.b.c"')


def load_connection(text: str, complex: SimplicialComplex, words: Iterable[str] = ()) -> Connection1 | Connection2:
    """Parse the JSON connection format against a complex.

    Returns a plain edge connection when the file has no "cells" block.
    When the declared group is free, every name in the letter texts
    ``words`` that is not ``e`` or a generator joins its generators, in
    sorted order, so that a word over fresh generators parses.  Each
    distinct element text is parsed once per call.

    The edge and cell blocks are read alike, entry by entry in file order,
    so that the first fault is named: each key is looked up by name among
    the complex's own tuples (an edge "a>b" among its sorted vertex pairs,
    a cell "a.c.b" among its markings), so a found key is the complex's
    tuple, and a key not found is split by ``_parse_edge_key`` or
    ``_parse_cell_key``.
    """
    obj = decode_json(text, BundleError, "connection parse error")
    if not isinstance(obj, dict):
        raise BundleError("connection file must hold a JSON object")
    unknown = set(obj) - _CONNECTION_KEYS
    if unknown:
        raise BundleError(f"unknown keys: {sorted(unknown)}")
    if "group" not in obj or "edges" not in obj:
        raise BundleError('connection file needs "group" and "edges"')
    group = descriptor_from_json(obj["group"])
    if group.kind == "free":
        fresh = {name for w in words for name in _NAME_RE.findall(w)} - {"e", *group.generators}
        if fresh:
            group = free_group(group.generators + tuple(sorted(fresh)))
    edges = obj["edges"]
    if not isinstance(edges, dict):
        raise BundleError('"edges" must be an object of "a>b" keys')
    parsed: dict[str, GroupElement] = {}

    def parse(value) -> GroupElement:
        parsed[value] = got = parse_element(value, group)  # which refuses a non-string first
        return got

    def read(block: dict, keys: Collection[tuple[str, ...]], sep: str, parse_key) -> dict:
        """The block as {key tuple: element}: a key that names one of ``keys`` by its ``sep``-joined vertices is that tuple."""
        # vertices given in code need not be strings, and then no key is named
        names = dict(zip(map(sep.join, keys), keys)) if set(map(type, complex.vertices)) <= {str} else {}
        if names and sep in "".join(complex.vertices):  # a name that splits into other parts is left to parse_key
            names = {name: key for name, key in names.items() if name.count(sep) == len(key) - 1}
        return {names.get(k) or parse_key(k): parsed[v] if type(v) is str and v in parsed else parse(v) for k, v in block.items()}

    base = Connection1.build(group, complex, read(edges, complex._edge_pairs, ">", _parse_edge_key))
    if "cells" not in obj and "cell_relations" not in obj:
        return base

    cells = obj.get("cells", {})
    if not isinstance(cells, dict):
        raise BundleError('"cells" must be an object')
    alpha: dict[tuple[str, ...], GroupElement] = read(cells, complex._markings, ".", _parse_cell_key)
    # a loop cell c.a.b.c is no marking, so _parse_cell_key keys it by its four parts
    beta = {k[:3]: alpha.pop(k) for k in [k for k in alpha if len(k) == 4]} if 4 in set(map(len, alpha)) else {}

    relations = obj.get("cell_relations", [])
    if not isinstance(relations, list):
        raise BundleError('"cell_relations" must be a list')
    for rel in relations:
        if not (isinstance(rel, list) and len(rel) == 3 and all(isinstance(x, str) for x in rel)):
            raise BundleError(f"bad cell relation {quote(rel)}: expected [name, name, kind]")
        left, right, kind = rel
        if kind not in ("equal", "inverse"):
            raise BundleError(f"unknown cell relation kind {quote(kind)}")
        lk, rk = _parse_cell_key(left), _parse_cell_key(right)
        if len(lk) != 3 or len(rk) != 3:
            raise BundleError("cell relations apply to triangle cells only")
        # inverse is an involution, so one map sends either side to the other
        twin = inverse if kind == "inverse" else (lambda g: g)
        if lk in alpha and rk in alpha:
            if alpha[rk] != twin(alpha[lk]):
                raise BundleError(f"cell relation {quote(rel)} violated by supplied values")
        elif lk in alpha or rk in alpha:
            src, dst = (lk, rk) if lk in alpha else (rk, lk)
            alpha[dst] = twin(alpha[src])
        else:
            raise BundleError(f"cell relation {quote(rel)} references values that are not present")

    for (c, a, b), g in beta.items():
        derived = alpha.get((a, b, c))
        if derived is None or derived != g:
            warnings.warn(
                f"independent loop-cell value for {c}.{a}.{b}.{c}; "
                "it will not be derived from a triangle cell",
                stacklevel=2,
            )
    return Connection2.build(base, alpha, beta)


def section_to_json(section: Section) -> dict:
    return {
        "path": [[x, y] for x, y in section.path.steps],
        "letters": [format_element(l) for l in section.letters],
    }


def trace_to_json(trace: SweepTrace) -> list[dict]:
    """Every section of the trace, each as ``section_to_json`` writes it.

    The deltas are replayed into one list of [x, y] steps and one of letter
    texts, and each section gets shallow copies of both: the sections share
    their [x, y] lists, so treat the result as read-only.
    """
    group, paths, letters = trace._deltas
    rules, memo = payload_rules(group), {}

    def fmt(payload) -> str:
        # a payload recurs as the same object (kept across a window, a cell value, a letter a merge wrote back):
        # each is formatted once, keyed by id, cheaper than hashing; the deltas keep every payload alive, so no id is reused
        return memo[id(payload)] if id(payload) in memo else memo.setdefault(id(payload), rules.format(group, payload))

    return [{"path": steps[:], "letters": words[:]} for steps, words in zip(_states(paths, list), _states(letters, fmt))]


def defect_report_to_json(report: DefectReport) -> dict:
    return {
        "path": [[x, y] for x, y in report.path.steps],
        "defects": [format_element(d) for d in report.defects],
        "gauge": {v: format_element(g) for v, g in report.gauge_used.values},
    }
