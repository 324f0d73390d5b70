"""The contract of the package's immutable records.

Every value class is built positionally or by keyword, fills in its
defaults, refuses a missing or unknown field, refuses assignment, equals
only records of its own class with equal fields, hashes like its equals,
prints as ``Name(field=value, ...)`` and survives pickling, also into
another process.
"""

from __future__ import annotations

import ast
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import trisweep as ts
from trisweep._record import Record
from trisweep.complexes import Diagnostic
from trisweep.sweep import DefectReport, SchemeComparison, SweepTrace

Z3 = ts.cyclic_group(3)
ONE = ts.element(Z3, 1)
POINT = ts.SimplicialComplex(frozenset({"a"}), frozenset(), frozenset())
AB = ts.EdgePath((("a", "b"),))
# a connection's complex carries its edges and cells, so the connections are over one triangle
TRIANGLE = ts.SimplicialComplex.build("abc", [("a", "b", "c")])
C1_MAP = {("a", "b"): ONE, ("a", "c"): ONE, ("b", "c"): ONE}
C1 = ts.Connection1(Z3, TRIANGLE, C1_MAP)
GAUGE = ts.GaugeTransform(Z3, (("a", ONE),))
SECTION = ts.Section(AB, (ONE,))
SCHEME = ts.SweepScheme(AB, ())

# The repr texts were recorded from the earlier dataclass-based records.
Z3_TEXT = "GroupDescriptor(kind='cyclic', generators=(), modulus=3, degree=0, factors=())"
ONE_TEXT = f"GroupElement(group={Z3_TEXT}, payload=1)"
POINT_TEXT = "SimplicialComplex(vertices=frozenset({'a'}), triangles=frozenset(), edges=frozenset(), pure_dim2=False)"
AB_TEXT = "EdgePath(steps=(('a', 'b'),))"
# a frozenset of several strings prints in an order that varies between runs, so the
# triangle's text is read here; POINT pins the text of a complex
TRIANGLE_TEXT = repr(TRIANGLE)
C1_TEXT = (
    f"Connection1(group={Z3_TEXT}, complex={TRIANGLE_TEXT},"
    f" _map={{('a', 'b'): {ONE_TEXT}, ('a', 'c'): {ONE_TEXT}, ('b', 'c'): {ONE_TEXT}}})"
)
GAUGE_TEXT = f"GaugeTransform(group={Z3_TEXT}, values=(('a', {ONE_TEXT}),))"
SECTION_TEXT = f"Section(path={AB_TEXT}, letters=({ONE_TEXT},))"
SCHEME_TEXT = f"SweepScheme(start_path={AB_TEXT}, steps=())"

# (class, every field's value in order, the defaults a field left out takes, repr)
CASES = [
    (
        ts.GroupDescriptor,
        {"kind": "cyclic", "generators": (), "modulus": 3, "degree": 0, "factors": ()},
        {"generators": (), "modulus": 0, "degree": 0, "factors": ()},
        Z3_TEXT,
    ),
    (ts.GroupElement, {"group": Z3, "payload": 1}, {}, ONE_TEXT),
    (
        ts.SimplicialComplex,
        {"vertices": frozenset({"a"}), "triangles": frozenset(), "edges": frozenset(), "pure_dim2": False},
        {"pure_dim2": False},
        POINT_TEXT,
    ),
    (Diagnostic, {"rule": "a", "simplex": "b", "message": "c"}, {}, "Diagnostic(rule='a', simplex='b', message='c')"),
    (ts.EdgePath, {"steps": (("a", "b"),)}, {}, AB_TEXT),
    (
        ts.HomotopyStep,
        {"move": "alpha_expand", "position": 0, "cell": ("a", "c", "b")},
        {},
        "HomotopyStep(move='alpha_expand', position=0, cell=('a', 'c', 'b'))",
    ),
    (ts.SweepScheme, {"start_path": AB, "steps": ()}, {}, SCHEME_TEXT),
    (ts.GaugeTransform, {"group": Z3, "values": (("a", ONE),)}, {}, GAUGE_TEXT),
    (ts.Connection1, {"group": Z3, "complex": TRIANGLE, "_map": C1_MAP}, {}, C1_TEXT),
    (
        ts.Connection2,
        {"base": C1, "_alpha": {("a", "c", "b"): ONE}, "_beta": {}},
        {"_beta": {}},
        f"Connection2(base={C1_TEXT}, _alpha={{('a', 'c', 'b'): {ONE_TEXT}}}, _beta={{}})",
    ),
    (ts.Section, {"path": AB, "letters": (ONE,)}, {}, SECTION_TEXT),
    (
        SweepTrace,
        {"scheme": SCHEME, "sections": (SECTION,)},
        {},
        f"SweepTrace(scheme={SCHEME_TEXT}, sections=({SECTION_TEXT},))",
    ),
    (
        DefectReport,
        {"path": AB, "defects": (ONE,), "gauge_used": GAUGE},
        {},
        f"DefectReport(path={AB_TEXT}, defects=({ONE_TEXT},), gauge_used={GAUGE_TEXT})",
    ),
    (
        SchemeComparison,
        {"verdict": "equal", "quotient": (ONE,), "gauge": None},
        {"gauge": None},
        f"SchemeComparison(verdict='equal', quotient=({ONE_TEXT},), gauge=None)",
    ),
]
IDS = [cls.__name__ for cls, *_rest in CASES]


def test_only_the_record_base_builds_a_record_unchecked():
    # Record._trusted is the one way to build a record that skips its checks
    modules = sorted((Path(__file__).resolve().parents[1] / "src" / "trisweep").rglob("*.py"))
    assert len(modules) > 5
    callers = {
        path.name
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    }
    assert callers == {"_record.py"}


def test_every_record_class_is_covered():
    package_records = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("trisweep.")}
    assert {cls for cls, *_rest in CASES} == package_records
    assert len(CASES) == 14 == len(set(IDS))


@pytest.mark.parametrize("cls, fields, defaults, text", CASES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, fields, defaults, text):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("cls, fields, defaults, text", [c for c in CASES if c[2]], ids=[i for c, i in zip(CASES, IDS) if c[2]])
def test_left_out_fields_take_their_defaults(cls, fields, defaults, text):
    required = {name: value for name, value in fields.items() if name not in defaults}
    for record in (cls(**required), cls(*required.values())):
        for name, value in defaults.items():
            assert getattr(record, name) == value


@pytest.mark.parametrize("cls, fields, defaults, text", CASES, ids=IDS)
def test_missing_unknown_or_surplus_arguments_are_type_errors(cls, fields, defaults, text):
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(**{name: value for name, value in fields.items() if name != first})
    with pytest.raises(TypeError):
        cls(**fields, bogus=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), 1)
    with pytest.raises(TypeError):
        cls(fields[first], **fields)


@pytest.mark.parametrize("cls, fields, defaults, text", CASES, ids=IDS)
def test_assignment_and_deletion_raise_attribute_error(cls, fields, defaults, text):
    record = cls(**fields)
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, first, fields[first])
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, first)
    assert getattr(record, first) == fields[first]


@pytest.mark.parametrize("cls, fields, defaults, text", CASES, ids=IDS)
def test_equality_holds_within_one_class_only(cls, fields, defaults, text):
    record, twin = cls(**fields), cls(**fields)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert {record: 1}[twin] == 1
    assert record.__eq__(object()) is NotImplemented
    assert record != tuple(fields.values())
    for other_cls, other_fields, _defaults, _text in CASES:
        if other_cls is not cls:
            assert record != other_cls(**other_fields)


def test_equality_follows_the_fields():
    assert ts.element(Z3, 1) != ts.element(Z3, 2)
    assert ts.element(Z3, 1) != ts.element(ts.cyclic_group(4), 1)
    assert ts.EdgePath.from_vertices("a", "b") != ts.EdgePath.from_vertices("b", "a")
    assert ts.HomotopyStep("deg_insert", 0) != ts.HomotopyStep("deg_insert", 1)
    assert Diagnostic("a", "b", "c") != Diagnostic("a", "b", "d")


@pytest.mark.parametrize("cls, fields, defaults, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_text(cls, fields, defaults, text):
    assert repr(cls(**fields)) == text


# -- pickling ----------------------------------------------------------------

def pickled_values() -> dict:
    """Values the README promises can be shared across processes, indexes filled."""
    tetra = ts.load_complex(ts.data_path("tetrahedron.json").read_text())
    for v in tetra.sorted_vertices:
        tetra.faces_containing(v)
        tetra.neighbors(v)
    tetra.faces_containing_edge("a", "b")
    connection = ts.load_connection(ts.data_path("tetrahedron_symbolic.json").read_text(), tetra)
    scheme = ts.load_scheme(ts.data_path("scheme1.json").read_text())
    x, y = (ts.parse_element(t, connection.group) for t in ("x", "y"))
    product = ts.product_group(ts.cyclic_group(2), ts.symmetric_group(3))
    return {
        "element": ts.parse_element('["1", "(1 2 3)"]', product),
        "path": scheme.start_path,
        "section": ts.Section(scheme.start_path, (x, y)),
        "scheme": scheme,
        "trace": ts.run_scheme(ts.Section(scheme.start_path, (x, y)), scheme, connection),
        "connection": connection,
        "complex": tetra,
    }


def check_round_trip(got: dict, fresh: dict) -> None:
    """The unpickled values equal, hash and behave like freshly built ones."""
    assert got.keys() == fresh.keys()
    for key in fresh:
        assert got[key] == fresh[key], key
        assert hash(got[key]) == hash(fresh[key]), key
        assert {fresh[key]: key}[got[key]] == key
    assert got["complex"].faces_containing("a") == fresh["complex"].faces_containing("a")
    assert got["complex"].faces_containing_edge("c", "d") == fresh["complex"].faces_containing_edge("c", "d")
    assert got["connection"].alpha_value("a", "c", "b") == fresh["connection"].alpha_value("a", "c", "b")
    g = got["element"].group
    assert ts.multiply(got["element"], ts.inverse(got["element"])) == ts.identity(g)


def test_pickle_round_trip_in_process():
    fresh = pickled_values()
    check_round_trip(pickle.loads(pickle.dumps(fresh)), pickled_values())


def test_pickle_round_trip_through_a_child_process():
    # the child hashes strings with another seed, checks what this process
    # pickled and sends back what it built
    code = (
        "import pickle, sys; sys.path.insert(0, sys.argv[1]);"
        "from test_records import check_round_trip, pickled_values;"
        "check_round_trip(pickle.load(sys.stdin.buffer), pickled_values());"
        "sys.stdout.buffer.write(pickle.dumps(pickled_values()))"
    )
    env = dict(os.environ, PYTHONHASHSEED="7", PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).parent)],
        input=pickle.dumps(pickled_values()),
        capture_output=True,
        env=env,
    )
    assert done.returncode == 0, done.stderr.decode()[-2000:]
    check_round_trip(pickle.loads(done.stdout), pickled_values())
