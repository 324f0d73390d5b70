from __future__ import annotations

import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import trisweep as ts


def run_cli(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-m", "trisweep.cli", *args],
        text=True,
        capture_output=True,
        check=False,
    )


GOLDEN_SWEEP_1 = """\
(ac,cb) -> (x, y)
(ab) -> (x*y*phi_acb^-1)
(ad,db) -> (x*y*phi_acb^-1, phi_adb)
(ad,dc,cb) -> (x*y*phi_acb^-1, phi_adb, phi_dcb)
(ac,cb) -> (x*y*phi_acb^-1*phi_adb*phi_adc^-1, phi_dcb)
"""

GOLDEN_SWEEP_2 = """\
(ac,cb) -> (x, y)
(ab) -> (x*y*phi_acb^-1)
(ad,db) -> (x*y*phi_acb^-1, phi_adb)
(ac,cd,db) -> (x*y*phi_acb^-1, phi_acd, phi_adb)
(ac,cb) -> (x*y*phi_acb^-1, phi_acd*phi_adb*phi_cdb^-1)
"""


def test_validate_bundled_tetrahedron():
    proc = run_cli("validate", "--complex", "tetrahedron.json")
    assert proc.returncode == 0
    assert proc.stdout == "ok\n"


def test_validate_broken_closure(tmp_path: Path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["a","b","c","x"], "triangles": [["a","b","c"]], "pure_dim2": true}')
    proc = run_cli("validate", "--complex", str(bad))
    assert proc.returncode == 1
    assert "not in any 2-simplex" in proc.stdout


def test_validate_unparseable_file(tmp_path: Path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["a", "a"]}')
    proc = run_cli("validate", "--complex", str(bad))
    assert proc.returncode == 1
    assert "duplicate vertex" in proc.stderr


def test_missing_file_is_usage_error():
    proc = run_cli("validate", "--complex", "/nonexistent/complex.json")
    assert proc.returncode == 2


def test_holonomy_degenerate_loop():
    proc = run_cli(
        "holonomy",
        "--complex", "tetrahedron.json",
        "--connection", "tetrahedron_symbolic.json",
        "--path", "a,a",
    )
    assert proc.returncode == 0
    assert proc.stdout == "e\n"


def test_holonomy_modular_loop(tmp_path: Path):
    conn = tmp_path / "z12.json"
    conn.write_text(
        '{"group": {"cyclic": 12}, "edges": {"a>b": "3", "b>d": "4", "d>a": "7", "a>c": "0", "b>c": "0", "c>d": "0"}}'
    )
    forward = run_cli(
        "holonomy", "--complex", "tetrahedron.json", "--connection", str(conn), "--path", "a,b,d,a"
    )
    assert forward.returncode == 0
    assert forward.stdout == "2\n"
    reverse = run_cli(
        "holonomy", "--complex", "tetrahedron.json", "--connection", str(conn), "--path", "a,d,b,a"
    )
    assert reverse.stdout == "10\n"


def test_sweep_scheme1_golden_text():
    proc = run_cli(
        "sweep",
        "--complex", "tetrahedron.json",
        "--connection", "tetrahedron_symbolic.json",
        "--scheme", "scheme1.json",
        "--word", "x,y",
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_SWEEP_1


def test_sweep_scheme2_golden_text():
    proc = run_cli(
        "sweep",
        "--complex", "tetrahedron.json",
        "--connection", "tetrahedron_symbolic.json",
        "--scheme", "scheme2.json",
        "--word", "x,y",
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_SWEEP_2


def test_sweep_json_round_trips():
    proc = run_cli(
        "sweep",
        "--complex", "tetrahedron.json",
        "--connection", "tetrahedron_symbolic.json",
        "--scheme", "scheme1.json",
        "--word", "x,y",
        "--format", "json",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert len(payload) == 5
    K = ts.load_complex(ts.data_path("tetrahedron.json").read_text())
    conn = ts.load_connection(ts.data_path("tetrahedron_symbolic.json").read_text(), K)
    for entry in payload:
        path = ts.EdgePath(tuple((x, y) for x, y in entry["path"]))
        letters = tuple(ts.parse_element(t, conn.group) for t in entry["letters"])
        ts.Section(path, letters)
    assert payload[-1]["letters"] == ["x*y*phi_acb^-1*phi_adb*phi_adc^-1", "phi_dcb"]


def test_sweep_empty_scheme(tmp_path: Path):
    scheme = tmp_path / "empty.json"
    scheme.write_text('{"start": [["a","c"],["c","b"]], "steps": []}')
    proc = run_cli(
        "sweep",
        "--complex", "tetrahedron.json",
        "--connection", "tetrahedron_symbolic.json",
        "--scheme", str(scheme),
        "--word", "x,y",
    )
    assert proc.returncode == 0
    assert proc.stdout == "(ac,cb) -> (x, y)\n"


def test_sweep_accepts_fresh_generators(tmp_path: Path):
    scheme = tmp_path / "one.json"
    scheme.write_text(
        '{"start": [["a","c"],["c","b"]], "steps": [{"move":"alpha_merge","cell":"a.c.b","position":0}]}'
    )
    proc = run_cli(
        "sweep",
        "--complex", "tetrahedron.json",
        "--connection", "tetrahedron_symbolic.json",
        "--scheme", str(scheme),
        "--word", "fresh_u,fresh_v",
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "(ab) -> (fresh_u*fresh_v*phi_acb^-1)"


@pytest.mark.parametrize("word", [[], ["--word", "x,y"]], ids=["no-word", "word"])
def test_a_connection_without_a_group_fails_its_key_check_with_or_without_a_word(tmp_path: Path, word):
    conn = tmp_path / "conn.json"
    conn.write_text(json.dumps({"edges": {e: "x" for e in TETRA_EDGES}}))
    proc = run_cli(
        "sweep", "--complex", "tetrahedron.json", "--connection", str(conn), "--scheme", "scheme1.json", *word
    )
    assert proc.returncode == 1
    assert proc.stderr == 'error: connection file needs "group" and "edges"\n'


def test_compare_bundled_schemes():
    proc = run_cli(
        "compare",
        "--complex", "tetrahedron.json",
        "--connection", "tetrahedron_symbolic.json",
        "--scheme", "scheme1.json",
        "--scheme", "scheme2.json",
        "--word", "x,y",
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "different"
    assert lines[1] == "quotient: (phi_adc*phi_adb^-1, phi_dcb^-1*phi_acd*phi_adb*phi_cdb^-1)"


def _compare_schemes_cli(tmp_path: Path, first: list, second: list, fmt: str) -> subprocess.CompletedProcess[str]:
    schemes = []
    for name, steps in (("first", first), ("second", second)):
        scheme = tmp_path / f"{name}.json"
        scheme.write_text(json.dumps({"start": [["a", "c"], ["c", "b"]], "steps": steps}))
        schemes += ["--scheme", str(scheme)]
    return run_cli(
        "compare",
        "--complex", "tetrahedron.json",
        "--connection", "tetrahedron_symbolic.json",
        *schemes,
        "--word", "x,y",
        "--format", fmt,
    )


MERGE_THEN_EXPAND = [
    {"move": "alpha_merge", "cell": "a.c.b", "position": 0},
    {"move": "alpha_expand", "cell": "a.c.b", "position": 0},
]


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("text", "gauge_equivalent\nquotient: (phi_acb*y^-1, phi_acb^-1*y)\ngauge c: phi_acb*y^-1\n"),
        (
            "json",
            '{"gauge": {"c": "phi_acb*y^-1"}, "quotient": ["phi_acb*y^-1", "phi_acb^-1*y"], '
            '"verdict": "gauge_equivalent"}\n',
        ),
    ],
)
def test_compare_gauge_equivalent_output(tmp_path: Path, fmt, expected):
    proc = _compare_schemes_cli(tmp_path, MERGE_THEN_EXPAND, [], fmt)
    assert proc.returncode == 0
    assert proc.stdout == expected


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("text", "equal\nquotient: (e, e)\n"),
        ("json", '{"gauge": null, "quotient": ["e", "e"], "verdict": "equal"}\n'),
    ],
)
def test_compare_equal_output(tmp_path: Path, fmt, expected):
    proc = _compare_schemes_cli(tmp_path, [], [], fmt)
    assert proc.returncode == 0
    assert proc.stdout == expected


def test_validate_json_lists_the_diagnostics_and_exits_1(tmp_path: Path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["a","b","c","x"], "triangles": [["a","b","c"]], "edges": [["a","x"]], "pure_dim2": true}')
    proc = run_cli("validate", "--complex", str(bad), "--format", "json")
    assert proc.returncode == 1
    assert proc.stdout == (
        '{"diagnostics": [{"message": "vertex x not in any 2-simplex", "rule": "pure_dim2", "simplex": "x"}, '
        '{"message": "edge {a,x} not in any 2-simplex", "rule": "pure_dim2", "simplex": "{a,x}"}]}\n'
    )


def test_curvature_flat_cells(tmp_path: Path):
    conn = tmp_path / "flat.json"
    edges = {f"{a}>{b}": "0" for a, b in (("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"))}
    cells = {}
    for tri in (("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")):
        for apex in tri:
            u, w = sorted(set(tri) - {apex})
            cells[f"{u}.{apex}.{w}"] = "0"
            cells[f"{w}.{apex}.{u}"] = "0"
    conn.write_text(json.dumps({"group": {"cyclic": 5}, "edges": edges, "cells": cells}))
    proc = run_cli(
        "curvature", "--complex", "tetrahedron.json", "--connection", str(conn), "a", "b", "c", "d"
    )
    assert proc.returncode == 0
    assert proc.stdout == "path: (ab,bd)\ndefects: (0, 0)\n"


def test_center_symmetric_three():
    proc = run_cli("center", '{"symmetric":3}')
    assert proc.returncode == 0
    assert proc.stdout == "e\n"


def test_center_dihedral_json():
    proc = run_cli("center", '{"dihedral":4}', "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"center": ["e", "r^2"]}


def test_output_is_deterministic():
    args = (
        "compare",
        "--complex", "tetrahedron.json",
        "--connection", "tetrahedron_symbolic.json",
        "--scheme", "scheme1.json",
        "--scheme", "scheme2.json",
        "--word", "x,y",
        "--format", "json",
        "--seed", "0",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


@pytest.mark.parametrize("value", [3, ["0", "0"]], ids=["number", "bare-array"])
def test_non_string_element_value_is_an_error(tmp_path: Path, value):
    conn = tmp_path / "conn.json"
    group = {"cyclic": 12} if isinstance(value, int) else {"product": [{"cyclic": 2}, {"cyclic": 3}]}
    conn.write_text(json.dumps({"group": group, "edges": {"a>b": value}}))
    proc = run_cli(
        "holonomy", "--complex", "tetrahedron.json", "--connection", str(conn), "--path", "a,b,d,a"
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_sweep_word_of_product_elements(tmp_path: Path):
    group = {"product": [{"cyclic": 2}, {"cyclic": 3}]}
    edges = {f"{a}>{b}": '["0","0"]' for a, b in (("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"))}
    cells = {}
    for i, (u, apex, w) in enumerate(itertools.permutations("abcd", 3)):
        cells[f"{u}.{apex}.{w}"] = json.dumps([str(i % 2), str(i % 3)])
    conn = tmp_path / "z2xz3.json"
    conn.write_text(json.dumps({"group": group, "edges": edges, "cells": cells}))
    word = '["1","0"],["0","1"]'
    proc = run_cli(
        "sweep",
        "--complex", "tetrahedron.json",
        "--connection", str(conn),
        "--scheme", "scheme1.json",
        "--word", word,
        "--format", "json",
    )
    assert proc.returncode == 0, proc.stderr
    K = ts.load_complex(ts.data_path("tetrahedron.json").read_text())
    connection = ts.load_connection(conn.read_text(), K)
    scheme = ts.load_scheme(ts.data_path("scheme1.json").read_text())
    G = connection.group
    start = ts.Section(scheme.start_path, (ts.parse_element('["1","0"]', G), ts.parse_element('["0","1"]', G)))
    expected = [ts.format_element(l) for l in ts.run_scheme(start, scheme, connection).final.letters]
    assert json.loads(proc.stdout)[-1]["letters"] == expected


@pytest.mark.parametrize("descriptor", ['{"cyclic": 1000000000000}', '{"symmetric": 20}'])
def test_center_of_a_huge_group_fails_fast(descriptor):
    proc = run_cli("center", descriptor)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "enumeration limit" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "descriptor",
    ['{"symmetric": 1700}', '{"symmetric": 1000000}', '{"product": [{"cyclic": 2}, {"symmetric": 2000}]}'],
    ids=["S1700", "S10^6", "Z2xS2000"],
)
def test_center_of_a_group_with_a_huge_order_fails_fast(descriptor):
    began = time.monotonic()
    proc = run_cli("center", descriptor)
    elapsed = time.monotonic() - began
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "enumeration limit" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 2.0


# past the interpreter's default int-to-str limit of 4300 digits
HUGE = "1" + "0" * 5000
TETRA_EDGES = ("a>b", "a>c", "a>d", "b>c", "b>d", "c>d")


def _connection_text(group: str, huge_value: str, other_value: str) -> str:
    """A tetrahedron connection file written as raw JSON text (json.dumps cannot write HUGE)."""
    values = [huge_value] + [other_value] * (len(TETRA_EDGES) - 1)
    edges = ", ".join(f'"{k}": {v}' for k, v in zip(TETRA_EDGES, values))
    return f'{{"group": {group}, "edges": {{{edges}}}}}'


def test_a_connection_over_a_huge_symmetric_degree_fails_fast(tmp_path: Path):
    conn = tmp_path / "s30m.json"
    conn.write_text(json.dumps({"group": {"symmetric": 30_000_000}, "edges": dict.fromkeys(TETRA_EDGES, "e")}))
    began = time.monotonic()
    proc = run_cli("holonomy", "--complex", "tetrahedron.json", "--connection", str(conn), "--path", "a,b,c,a")
    elapsed = time.monotonic() - began
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: symmetric degree 30000000 is above the limit of 10000\n"
    assert elapsed < 1.0


HUGE_INTEGER_INPUTS = {
    "center": lambda d: ["center", f'{{"cyclic": {HUGE}}}'],
    "connection group": lambda d: [
        "holonomy", "--complex", "tetrahedron.json", "--path", "a,b,a",
        "--connection", d(_connection_text(f'{{"cyclic": {HUGE}}}', '"0"', '"0"')),
    ],
    "connection group, sweep word": lambda d: [
        "sweep", "--complex", "tetrahedron.json", "--scheme", "scheme1.json", "--word", "x,y",
        "--connection", d(_connection_text(f'{{"cyclic": {HUGE}}}', '"0"', '"0"')),
    ],
    "one-line permutation": lambda d: [
        "holonomy", "--complex", "tetrahedron.json", "--path", "a,b,a",
        "--connection", d(_connection_text('{"symmetric": 3}', f'"[{HUGE}, 1, 2]"', '"e"')),
    ],
    "product element": lambda d: [
        "holonomy", "--complex", "tetrahedron.json", "--path", "a,b,a",
        "--connection", d(_connection_text('{"product": [{"cyclic": 2}, {"cyclic": 3}]}', f'"[{HUGE}, 0]"', '"[0, 0]"')),
    ],
    "free exponent": lambda d: [
        "holonomy", "--complex", "tetrahedron.json", "--path", "a,b,a",
        "--connection", d(_connection_text('{"free": ["x"]}', f'"x^{HUGE}"', '"e"')),
    ],
    "cycle point": lambda d: [
        "holonomy", "--complex", "tetrahedron.json", "--path", "a,b,a",
        "--connection", d(_connection_text('{"symmetric": 3}', f'"(1 {HUGE})"', '"e"')),
    ],
    "complex file": lambda d: [
        "validate", "--complex", d(f'{{"vertices": ["a", "b", "c"], "triangles": [["a", "b", "c"]], "n": {HUGE}}}'),
    ],
    "scheme file": lambda d: [
        "sweep", "--complex", "tetrahedron.json", "--connection", "tetrahedron_symbolic.json",
        "--scheme", d(f'{{"start": [["a", "b"]], "steps": [], "n": {HUGE}}}'),
    ],
}


@pytest.mark.parametrize("case", sorted(HUGE_INTEGER_INPUTS))
def test_integer_past_the_int_to_str_limit_is_an_error(tmp_path: Path, case):
    def write(text: str) -> str:
        path = tmp_path / "input.json"
        path.write_text(text)
        return str(path)

    proc = run_cli(*HUGE_INTEGER_INPUTS[case](write))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_integer_past_the_limit_is_reported_in_a_short_line_without_interpreter_advice(tmp_path: Path):
    def write(text: str) -> str:
        path = tmp_path / "input.json"
        path.write_text(text)
        return str(path)

    for case in sorted(HUGE_INTEGER_INPUTS):
        proc = run_cli(*HUGE_INTEGER_INPUTS[case](write))
        assert proc.returncode == 1, case
        assert all(len(line) <= 200 for line in proc.stderr.splitlines()), case
        assert "sys." not in proc.stderr, case


DEEP = "[" * 100_000
DEEP_NESTING_INPUTS = {
    "complex file": lambda d: ["validate", "--complex", d(DEEP)],
    "connection file": lambda d: [
        "holonomy", "--complex", "tetrahedron.json", "--path", "a,b,a", "--connection", d(DEEP),
    ],
    "connection file, sweep word": lambda d: [
        "sweep", "--complex", "tetrahedron.json", "--scheme", "scheme1.json", "--word", "x,y",
        "--connection", d(DEEP),
    ],
    "scheme file": lambda d: [
        "sweep", "--complex", "tetrahedron.json", "--connection", "tetrahedron_symbolic.json",
        "--scheme", d(DEEP),
    ],
    "group argument": lambda d: ["center", "[" * 3000],
    "one-line permutation": lambda d: [
        "holonomy", "--complex", "tetrahedron.json", "--path", "a,b,a",
        "--connection", d(_connection_text('{"symmetric": 3}', json.dumps(DEEP), '"e"')),
    ],
    "product element": lambda d: [
        "holonomy", "--complex", "tetrahedron.json", "--path", "a,b,a",
        "--connection", d(_connection_text('{"product": [{"cyclic": 2}, {"cyclic": 3}]}', json.dumps(DEEP), '"[0, 0]"')),
    ],
}


@pytest.mark.parametrize("case", sorted(DEEP_NESTING_INPUTS))
def test_deeply_nested_json_is_an_error(tmp_path: Path, case):
    def write(text: str) -> str:
        path = tmp_path / "input.json"
        path.write_text(text)
        return str(path)

    proc = run_cli(*DEEP_NESTING_INPUTS[case](write))
    assert proc.returncode == 1, proc.stderr[-500:]
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert all(len(line) <= 200 for line in proc.stderr.splitlines())


def _nested_product(levels: int) -> str:
    return '{"product": [' * levels + '{"cyclic": 2}' + "]}" * levels


@pytest.mark.parametrize("levels", [100, 300, 490])
def test_deeply_nested_product_descriptor_is_an_error(levels):
    began = time.monotonic()
    proc = run_cli("center", _nested_product(levels))
    assert time.monotonic() - began < 10.0
    assert proc.returncode == 1, proc.stderr[-500:]
    assert proc.stderr.startswith("error:") and "nest more than" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and len(proc.stderr.rstrip("\n")) <= 200
    assert "Traceback" not in proc.stderr


def test_importing_the_cli_leaves_out_modules_it_does_not_use():
    # compared with the modules loaded before the import, since site may
    # preload some of them
    code = (
        "import sys; before = set(sys.modules); import trisweep.cli;"
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    added = set(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split())
    assert "trisweep.cli" in added
    assert not added & {"dataclasses", "fractions", "decimal", "inspect", "importlib.resources"}


def test_reading_a_bundled_example_leaves_out_importlib_resources(tmp_path: Path):
    # without site, which may preload importlib.resources, and from a directory
    # without a local tetrahedron.json, so that the bundled one is read
    code = (
        "import os, sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules);"
        "from trisweep.cli import main; os.chdir(sys.argv[2]);"
        "code = main(['validate', '--complex', 'tetrahedron.json']);"
        "print(code, ' '.join(sorted(set(sys.modules) - before)))"
    )
    package_root = str(Path(ts.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, package_root, str(tmp_path)], capture_output=True, text=True, check=True
    )
    assert proc.stdout.startswith("ok\n0 ")
    assert "importlib.resources" not in proc.stdout.split()


def test_a_boolean_scheme_position_is_an_error(tmp_path: Path):
    obj = json.loads(ts.data_path("scheme1.json").read_text())
    obj["steps"][2]["position"] = True
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps(obj))
    proc = run_cli(
        "sweep",
        "--complex", "tetrahedron.json",
        "--connection", "tetrahedron_symbolic.json",
        "--scheme", str(scheme),
        "--word", "x,y",
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: step 2:") and len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_modules_imported_on_use_still_work():
    from fractions import Fraction

    assert "vertices" in json.loads(ts.data_path("tetrahedron.json").read_text())
    rho = ts.table_representation(ts.cyclic_group(2), {"0": [[1, 0], [0, 1]], "1": [[0, 2], ["1/2", 0]]})
    matrix = ts.represent(rho, ts.element(ts.cyclic_group(2), 1))
    assert matrix == ((0, 2), (Fraction(1, 2), 0))
    assert all(type(v) is Fraction for row in matrix for v in row)


@pytest.mark.parametrize(
    "text, refusal",
    [
        ('{"vertices": ["a", "b", "c"], "triangles": [[["a"], "b", "c"]]}', "error: bad triangle [['a'], 'b', 'c']"),
        ('{"vertices": ["a", "b", "c"], "edges": [[{"a": 1}, "b"]]}', "error: bad edge [{'a': 1}, 'b']"),
    ],
    ids=["triangle", "edge"],
)
def test_a_non_string_vertex_in_a_triangle_or_edge_is_an_error(tmp_path: Path, text, refusal):
    complex_file = tmp_path / "complex.json"
    complex_file.write_text(text)
    proc = run_cli("validate", "--complex", str(complex_file))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(refusal) and len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
