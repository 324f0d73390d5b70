"""Pluggable group backends with decidable normal forms.

Backends
--------
free        reduced words over named generators, ``{"free": ["x", "y"]}``
cyclic      residues modulo n, ``{"cyclic": 12}``
symmetric   permutations of {1..n} in one-line form, ``{"symmetric": 3}``
dihedral    symmetries of the regular n-gon, ``{"dihedral": 4}``
product     tuples over factor backends, ``{"product": [...]}``

Element grammar
---------------
free / dihedral   ``gen ('^' int)? ('*' gen ('^' int)?)*`` or ``e``
cyclic            a residue literal in ``[0, n)``
symmetric         cycle notation ``(1 2 3)(4 5)``, one-line ``[2,3,1]``, or ``e``
product           a JSON array with one entry per factor

Products of elements are written left to right throughout the package, so
``multiply(a, b)`` is "a then b" in every formula involving words.  For the
permutation backend the action order is fixed by the normal-form example
(1 2)*(2 3) = (1 2 3).
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections import namedtuple
from functools import cached_property
from typing import Any, Iterable, Optional

from ._record import Record
from .errors import GroupError, input_limit_text, quote as _quote


class GroupDescriptor(Record):
    """Tagged description of one group backend.

    Equality and hashing are structural.  Every element carries its
    descriptor and every multiplication compares two of them, so the hash
    is computed once per instance and equality tests identity first: both
    cost O(1) on the hot path, not O(generators).
    """

    kind: str
    generators: tuple[str, ...] = ()
    modulus: int = 0
    degree: int = 0
    factors: tuple["GroupDescriptor", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self._field_values(self)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, GroupDescriptor):
            return NotImplemented
        return self._hash == other._hash and self._field_values(self) == other._field_values(other)

    def __reduce__(self):
        # rebuild through __init__: a stored hash of strings is only valid
        # in the process that computed it
        return (GroupDescriptor, self._field_values(self))

    @cached_property
    def _generator_set(self) -> frozenset[str]:
        # a free word's letters are looked up here, not scanned for in the tuple
        return frozenset(self.generators)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# Each factory below checks its arguments, whether they come from a file,
# through its backend's from_json rule, or from code.

def free_group(generators: Iterable[str]) -> GroupDescriptor:
    gens = tuple(generators)
    for g in gens:  # a name is a string before it is hashed or matched
        if not isinstance(g, str) or not _NAME_RE.fullmatch(g) or g == "e":
            raise GroupError(f"bad generator name {_quote(g)}")
    if len(set(gens)) != len(gens):
        raise GroupError("generator names must be distinct")
    return GroupDescriptor("free", generators=gens)


def _parameter(kind: str, n: Any, name: str) -> int:
    """The parameter ``n`` of a ``kind`` group: an ``int`` that is not a ``bool``, and at least 1."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise GroupError(f'"{kind}" takes an integer parameter')
    if n < 1:
        raise GroupError(f"{name} must be >= 1")
    return n


def cyclic_group(n: int) -> GroupDescriptor:
    return GroupDescriptor("cyclic", modulus=_parameter("cyclic", n, "cyclic modulus"))


def symmetric_group(n: int) -> GroupDescriptor:
    return GroupDescriptor("symmetric", degree=_parameter("symmetric", n, "symmetric degree"))


def dihedral_group(n: int) -> GroupDescriptor:
    return GroupDescriptor("dihedral", modulus=_parameter("dihedral", n, "dihedral order parameter"))


def product_group(*factors: GroupDescriptor) -> GroupDescriptor:
    if not factors:
        raise GroupError("product needs at least one factor")
    if bad := [f for f in factors if not isinstance(f, GroupDescriptor)]:
        raise GroupError(f"product factor {_quote(bad[0])} is not a group descriptor")
    return GroupDescriptor("product", factors=factors)


class GroupElement(Record):
    """An element in normal form; equality and hashing are structural.

    Every ``multiply`` builds one, so its constructor, equality and hash
    are written out for its two fields.
    """

    __slots__ = ("group", "payload")
    group: GroupDescriptor
    payload: Any

    def __init__(self, group: GroupDescriptor, payload: Any) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "payload", payload)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group, self.payload) == (other.group, other.payload)

    def __hash__(self) -> int:
        return hash((self.group, self.payload))

    def __reduce__(self):
        # slots and a refusing __setattr__ leave pickle no default way in
        return (self.__class__, (self.group, self.payload))

    def inverse(self) -> "GroupElement":
        return inverse(self)

    def is_identity(self) -> bool:
        return self == identity(self.group)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)

    def __str__(self) -> str:
        return format_element(self)


def _reduce_free(syllables: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    stack: list[tuple[str, int]] = []
    for g, k in syllables:
        if k == 0:
            continue
        if stack and stack[-1][0] == g:
            merged = stack[-1][1] + k
            stack.pop()
            if merged:
                stack.append((g, merged))
        else:
            stack.append((g, k))
    return tuple(stack)


def _free_multiply(g: GroupDescriptor, a: tuple, b: tuple) -> tuple[tuple[str, int], ...]:
    # a and b are reduced, so letters cancel only where they meet
    i, j = len(a), 0
    while i and j < len(b) and a[i - 1][0] == b[j][0]:
        k = a[i - 1][1] + b[j][1]
        if k:
            return a[: i - 1] + ((b[j][0], k),) + b[j + 1 :]
        i, j = i - 1, j + 1
    return a[:i] + b[j:]


_SYLLABLE_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\^\s*(-?\d+))?\s*")


def _parse_word(text: str) -> list[tuple[str, int]]:
    stripped = text.strip()
    if stripped == "e":
        return []
    out = []
    for chunk in stripped.split("*"):
        m = _SYLLABLE_RE.fullmatch(chunk)
        if not m:
            raise GroupError(f"syntax error in element {_quote(text)} near {_quote(chunk)}")
        out.append((m.group(1), int(m.group(2)) if m.group(2) else 1))
    return out


def _parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    images = list(range(1, degree + 1))
    seen: set[int] = set()
    body = text.strip()
    if body in ("e", "()"):
        return tuple(images)
    pos = 0
    cycle_re = re.compile(r"\(\s*((?:\d+[\s,]*)*)\)")
    while pos < len(body):
        m = cycle_re.match(body, pos)
        if not m:
            raise GroupError(f"syntax error in permutation {_quote(text)}")
        points = [int(tok) for tok in re.split(r"[\s,]+", m.group(1).strip()) if tok]
        if any(p < 1 or p > degree for p in points):
            raise GroupError(f"point out of range 1..{degree} in {_quote(text)}")
        if len(set(points)) != len(points) or seen & set(points):
            raise GroupError(f"repeated point in cycle notation {_quote(text)}")
        seen.update(points)
        for p, q in zip(points, points[1:] + points[:1]):
            images[p - 1] = q
        pos = m.end()
        while pos < len(body) and body[pos].isspace():
            pos += 1
    return tuple(images)


# -- backends ------------------------------------------------------------
#
# One backend per kind holds all of that kind's rules, each a function of the
# descriptor ``g`` and of payloads in normal form:
#   from_json(arg) -> descriptor      to_json(g) -> the descriptor's JSON argument
#   normalise(g, raw) -> payload      validates a payload given in code
#   identity(g), multiply(g, a, b), inverse(g, a) -> payload
#   parse(g, text) -> payload         format(g, a) -> text
#   order(g, cap) -> int, or None when the group is infinite; with a cap
#     that is not None, an order above the cap may come back as any number
#     above the cap, so that a huge order is never computed in full
#   elements(g) -> every payload of a finite group, in a fixed order
#   center(g) -> the payloads of the center of a finite group, in the order
#     of elements(g), from a closed form: no element is multiplied
# A product's payload is the tuple of its factors' payloads, and each of its
# rules applies the factors' own rules to the components: it builds no element.

_Backend = namedtuple(
    "_Backend",
    "from_json to_json normalise identity multiply inverse parse format order elements center",
)


class _Backends(dict):
    """The kind -> backend table; a kind missing from it is a GroupError."""

    def __missing__(self, kind: str):
        raise GroupError(f"unknown backend {_quote(kind)}")


_BACKENDS = _Backends()


def _free_from_json(arg: Any) -> GroupDescriptor:
    if not isinstance(arg, list):  # free_group checks the names
        raise GroupError('"free" takes a list of generator names')
    return free_group(arg)


def _free_normalise(g: GroupDescriptor, payload: Any) -> tuple[tuple[str, int], ...]:
    raw = tuple((str(gen), int(k)) for gen, k in payload)
    for gen, _k in raw:
        if gen not in g._generator_set:
            raise GroupError(f"unknown generator {_quote(gen)}")
    return _reduce_free(raw)


def _free_format(g: GroupDescriptor, a: tuple[tuple[str, int], ...]) -> str:
    if not a:
        return "e"
    return "*".join(gen if k == 1 else f"{gen}^{k}" for gen, k in a)


_BACKENDS["free"] = _Backend(
    from_json=_free_from_json,
    to_json=lambda g: list(g.generators),
    normalise=_free_normalise,
    identity=lambda g: (),
    multiply=_free_multiply,
    inverse=lambda g, a: tuple((gen, -k) for gen, k in reversed(a)),
    parse=lambda g, text: _free_normalise(g, _parse_word(text)),
    format=_free_format,
    order=lambda g, cap: None if g.generators else 1,
    elements=lambda g: [()],
    center=lambda g: [()],
)


def _cyclic_parse(g: GroupDescriptor, text: str) -> int:
    body = text.strip()
    if body == "e":
        return 0
    try:
        value = int(body)
    except ValueError as exc:
        raise GroupError(f"syntax error in residue {_quote(text)}") from exc
    if not 0 <= value < g.modulus:
        raise GroupError(f"residue {_quote(value)} out of range [0, {g.modulus})")
    return value


_BACKENDS["cyclic"] = _Backend(
    from_json=cyclic_group,
    to_json=lambda g: g.modulus,
    normalise=lambda g, payload: int(payload) % g.modulus,
    identity=lambda g: 0,
    multiply=lambda g, a, b: (a + b) % g.modulus,
    inverse=lambda g, a: (-a) % g.modulus,
    parse=_cyclic_parse,
    format=lambda g, a: str(a),
    order=lambda g, cap: g.modulus,
    elements=lambda g: range(g.modulus),
    center=lambda g: range(g.modulus),
)


# Largest symmetric degree whose permutations are built: a payload holds one
# integer per point, so the degree alone fixes what an element costs.
SYMMETRIC_DEGREE_LIMIT = 10_000


def _symmetric_degree(g: GroupDescriptor) -> int:
    """The degree, once it is at most ``SYMMETRIC_DEGREE_LIMIT``; checked before any permutation is built."""
    if g.degree > SYMMETRIC_DEGREE_LIMIT:
        raise GroupError(f"symmetric degree {g.degree} is above the limit of {SYMMETRIC_DEGREE_LIMIT}")
    return g.degree


def _symmetric_normalise(g: GroupDescriptor, payload: Any) -> tuple[int, ...]:
    degree = _symmetric_degree(g)
    images = tuple(int(v) for v in payload)
    if sorted(images) != list(range(1, degree + 1)):
        raise GroupError(f"{_quote(images)} is not a permutation of 1..{g.degree}")
    return images


def _symmetric_inverse(g: GroupDescriptor, a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * g.degree
    for i, img in enumerate(a):
        inv[img - 1] = i + 1
    return tuple(inv)


def _symmetric_parse(g: GroupDescriptor, text: str) -> tuple[int, ...]:
    _symmetric_degree(g)
    body = text.strip()
    if body.startswith("["):
        try:
            arr = json.loads(body)
        except (ValueError, RecursionError) as exc:  # a decode error, a huge integer, deep nesting
            raise GroupError(f"syntax error in one-line permutation {_quote(text)}") from exc
        if not isinstance(arr, list) or not all(isinstance(v, int) for v in arr) or len(arr) != g.degree:
            raise GroupError(f"one-line form must list {g.degree} integers")
        return _symmetric_normalise(g, arr)
    return _symmetric_normalise(g, _parse_cycles(body, g.degree))


def _symmetric_order(g: GroupDescriptor, cap: Optional[int]) -> int:
    if cap is None:
        return math.factorial(_symmetric_degree(g))
    # the factorial of a huge degree takes seconds: stop once past the cap
    order = 1
    for k in range(2, g.degree + 1):
        order *= k
        if order > cap:
            break
    return order


def _symmetric_format(g: GroupDescriptor, a: tuple[int, ...]) -> str:
    cycles = []
    seen: set[int] = set()
    for start in range(1, g.degree + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = a[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = a[nxt - 1]
        if len(cyc) > 1:
            cycles.append(cyc)
    if not cycles:
        return "e"
    return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycles)


_BACKENDS["symmetric"] = _Backend(
    from_json=symmetric_group,
    to_json=lambda g: g.degree,
    normalise=_symmetric_normalise,
    identity=lambda g: tuple(range(1, _symmetric_degree(g) + 1)),
    multiply=lambda g, a, b: tuple([a[j - 1] for j in b]),
    inverse=_symmetric_inverse,
    parse=_symmetric_parse,
    format=_symmetric_format,
    order=_symmetric_order,
    elements=lambda g: itertools.permutations(range(1, g.degree + 1)),
    # S_1 and S_2 are abelian; from S_3 on only the identity commutes with everything
    center=lambda g: _BACKENDS["symmetric"].elements(g) if g.degree <= 2 else [tuple(range(1, g.degree + 1))],
)


def _dihedral_normalise(g: GroupDescriptor, payload: Any) -> tuple[int, int]:
    rot, flip = payload
    return (int(rot) % g.modulus, int(flip) % 2)


def _dihedral_multiply(g: GroupDescriptor, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    i, fa = a
    j, fb = b
    return ((i + (j if fa == 0 else -j)) % g.modulus, fa ^ fb)


def _dihedral_parse(g: GroupDescriptor, text: str) -> tuple[int, int]:
    out = (0, 0)
    for gen, k in _parse_word(text):
        if gen == "r":
            step = (k % g.modulus, 0)
        elif gen == "s":
            step = (0, k % 2)
        else:
            raise GroupError(f"unknown generator {_quote(gen)}: dihedral elements use r and s")
        out = _dihedral_multiply(g, out, step)
    return out


def _dihedral_format(g: GroupDescriptor, a: tuple[int, int]) -> str:
    rot, flip = a
    rpart = "" if rot == 0 else ("r" if rot == 1 else f"r^{rot}")
    spart = "s" if flip else ""
    if rpart and spart:
        return f"{rpart}*{spart}"
    return rpart or spart or "e"


_BACKENDS["dihedral"] = _Backend(
    from_json=dihedral_group,
    to_json=lambda g: g.modulus,
    normalise=_dihedral_normalise,
    identity=lambda g: (0, 0),
    multiply=_dihedral_multiply,
    inverse=lambda g, a: ((-a[0]) % g.modulus if a[1] == 0 else a[0], a[1]),
    parse=_dihedral_parse,
    format=_dihedral_format,
    order=lambda g, cap: 2 * g.modulus,
    elements=lambda g: [(r, f) for f in (0, 1) for r in range(g.modulus)],
    # D_1 and D_2 are abelian; from D_3 on no flip is central, and a rotation
    # r^k is central iff r^k = r^-k: k = 0, and k = n/2 for even n
    center=lambda g: _BACKENDS["dihedral"].elements(g) if g.modulus <= 2 else [(0, 0), (g.modulus // 2, 0)][: 2 - g.modulus % 2],
)


def _product_from_json(arg: Any) -> GroupDescriptor:
    if not isinstance(arg, list):
        raise GroupError('"product" takes a list of descriptors')
    return product_group(*(descriptor_from_json(f) for f in arg))


def _product_normalise(g: GroupDescriptor, payload: Any) -> tuple:
    items = tuple(payload)
    if len(items) != len(g.factors):
        raise GroupError(f"product element needs {len(g.factors)} components")
    # a component given as an element of its factor is already in normal form
    return tuple([x.payload if isinstance(x, GroupElement) and x.group == f else _BACKENDS[f.kind].normalise(f, x)
                  for f, x in zip(g.factors, items)])


def _product_parse(g: GroupDescriptor, text: str) -> tuple:
    try:
        arr = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a decode error, a huge integer, deep nesting
        raise GroupError(f"syntax error in product element {_quote(text)}") from exc
    if not isinstance(arr, list) or len(arr) != len(g.factors):
        raise GroupError(f"product element must be an array of {len(g.factors)} entries")
    return tuple([_BACKENDS[f.kind].parse(f, x if isinstance(x, str) else json.dumps(x)) for f, x in zip(g.factors, arr)])


def _product_order(g: GroupDescriptor, cap: Optional[int]) -> Optional[int]:
    # every factor counts: one infinite factor makes the product infinite
    orders = [_BACKENDS[f.kind].order(f, cap) for f in g.factors]
    return None if None in orders else math.prod(orders)


_BACKENDS["product"] = _Backend(
    from_json=_product_from_json,
    to_json=lambda g: [descriptor_to_json(f) for f in g.factors],
    normalise=_product_normalise,
    identity=lambda g: tuple([_BACKENDS[f.kind].identity(f) for f in g.factors]),
    multiply=lambda g, a, b: tuple([_BACKENDS[f.kind].multiply(f, x, y) for f, x, y in zip(g.factors, a, b)]),
    inverse=lambda g, a: tuple([_BACKENDS[f.kind].inverse(f, x) for f, x in zip(g.factors, a)]),
    parse=_product_parse,
    format=lambda g, a: json.dumps([_BACKENDS[f.kind].format(f, x) for f, x in zip(g.factors, a)]),
    order=_product_order,
    # called once the product's order passed the enumeration check, which bounds every factor's
    elements=lambda g: itertools.product(*(_BACKENDS[f.kind].elements(f) for f in g.factors)),
    # Z(G x H) = Z(G) x Z(H), and the product of lists in order keeps the order of elements
    center=lambda g: itertools.product(*(_BACKENDS[f.kind].center(f) for f in g.factors)),
)


# -- public operations ---------------------------------------------------

def descriptor_to_json(group: GroupDescriptor) -> dict:
    return {group.kind: _BACKENDS[group.kind].to_json(group)}


# Deepest nesting of product descriptors that descriptor_from_json accepts.
PRODUCT_NESTING_LIMIT = 4


def descriptor_from_json(obj: Any) -> GroupDescriptor:
    """The descriptor of a JSON value such as ``{"product": [{"cyclic": 2}, {"free": ["x"]}]}``.

    Products nest at most ``PRODUCT_NESTING_LIMIT`` (4) levels deep: a
    deeper one is refused before any descriptor is built, since each level
    doubles the length of an element's text.
    """
    level = [obj]
    for _depth in range(PRODUCT_NESTING_LIMIT + 1):
        level = [f for d in level if isinstance(d, dict) and isinstance(d.get("product"), list) for f in d["product"]]
    if level:
        raise GroupError(f"product descriptors nest more than {PRODUCT_NESTING_LIMIT} levels deep")
    if not isinstance(obj, dict) or len(obj) != 1:
        raise GroupError("group descriptor must be a single-key object")
    (kind, arg), = obj.items()
    return _BACKENDS[kind].from_json(arg)


def element(group: GroupDescriptor, payload: Any) -> GroupElement:
    """Normalizing constructor; validates the payload for the backend.

    A product takes a sequence with one component per factor, each given
    as ``element`` takes a payload for that factor or as an element of
    that factor; its ``payload`` is the tuple of the factors' payloads in
    normal form.
    """
    try:
        return GroupElement(group, _BACKENDS[group.kind].normalise(group, payload))
    except (ValueError, TypeError) as exc:
        raise GroupError(f"bad {group.kind} element {_quote(payload)}: {exc}") from exc


def identity(group: GroupDescriptor) -> GroupElement:
    return GroupElement(group, _BACKENDS[group.kind].identity(group))


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    g = a.group
    if g is not b.group and g != b.group:
        raise GroupError("backend mismatch: elements live in different groups")
    return GroupElement(g, _BACKENDS[g.kind].multiply(g, a.payload, b.payload))


def inverse(a: GroupElement) -> GroupElement:
    return GroupElement(a.group, _BACKENDS[a.group.kind].inverse(a.group, a.payload))


def conjugate(a: GroupElement, by: GroupElement) -> GroupElement:
    return multiply(multiply(inverse(by), a), by)


def parse_element(text: str, group: GroupDescriptor) -> GroupElement:
    """Parse element text for the given backend; the result is in normal form."""
    if not isinstance(text, str):
        raise GroupError(f"element {_quote(text)} must be given as a string")
    try:
        return GroupElement(group, _BACKENDS[group.kind].parse(group, text))
    except ValueError as exc:  # an exponent or point past the int-to-str limit
        raise GroupError(f"bad {group.kind} element: {input_limit_text(exc)}") from exc


def format_element(a: GroupElement) -> str:
    return _BACKENDS[a.group.kind].format(a.group, a.payload)


# -- finite-group utilities ----------------------------------------------

# Largest group order that whole-group operations enumerate.
ENUMERATION_LIMIT = 1000

# Error messages state an order of up to 10^600 in full.  A larger one is
# neither computed in full nor printed: 600 digits stay below the smallest
# int-to-str limit the interpreter can be set to (640 digits).
_STATED_ORDER_DIGITS = 600


def group_order(group: GroupDescriptor) -> Optional[int]:
    """The exact order, or None for an infinite group."""
    return _BACKENDS[group.kind].order(group, None)


def is_finite(group: GroupDescriptor) -> bool:
    # with a cap of 0, no finite order is computed in full
    return _BACKENDS[group.kind].order(group, 0) is not None


def _enumerable(group: GroupDescriptor) -> _Backend:
    """The group's backend, once its order is known to be finite and at most ``ENUMERATION_LIMIT``."""
    backend, cap = _BACKENDS[group.kind], 10**_STATED_ORDER_DIGITS
    order = backend.order(group, cap)
    if order is None:
        raise GroupError(f"infinite backend: cannot enumerate {json.dumps(descriptor_to_json(group))}")
    if order > ENUMERATION_LIMIT:
        stated = order if order <= cap else f"over 10^{_STATED_ORDER_DIGITS}"
        raise GroupError(f"group of order {stated} is above the enumeration limit of {ENUMERATION_LIMIT}")
    return backend


def enumerate_elements(group: GroupDescriptor) -> list[GroupElement]:
    """All elements of a finite backend, in a fixed deterministic order.

    Every operation over the whole group goes through here or through
    ``center_obstruction_check``, so groups of order above
    ``ENUMERATION_LIMIT`` fail fast instead of filling memory.
    """
    return [GroupElement(group, p) for p in _enumerable(group).elements(group)]


def payload_rules(group: GroupDescriptor) -> _Backend:
    """The group's backend: its rules on payloads in normal form, each taking the group first.

    ``multiply(group, a, b)``, ``inverse(group, a)``, ``identity(group)``
    and ``format(group, a)`` among them build no element.
    """
    return _BACKENDS[group.kind]


def center_obstruction_check(group: GroupDescriptor) -> list[GroupElement]:
    """Admissible cell values under a trivial connective structure.

    These are the elements whose commutator with every element is the
    identity: the center of the group, in enumeration order.  Each
    backend's ``center`` rule gives it in closed form, so the group is
    neither enumerated nor multiplied; it is refused as
    ``enumerate_elements`` refuses it, when infinite or above
    ``ENUMERATION_LIMIT``.  ``center`` keeps the exhaustive pairwise
    check through ``multiply``.
    """
    return [GroupElement(group, p) for p in _enumerable(group).center(group)]


def center(group: GroupDescriptor) -> list[GroupElement]:
    """The elements commuting with everything, by exhaustive check."""
    elems = enumerate_elements(group)
    return [z for z in elems if all(multiply(z, u) == multiply(u, z) for u in elems)]

