"""One error shape and one JSON decode rule for every input the package reads."""

from __future__ import annotations

import json

import pytest

import trisweep as ts
from trisweep import cli
from trisweep.errors import BundleError, ComplexError, GroupError, PathError, SchemeError, SweepError, TrisweepError


def load_center(text: str):
    args = cli.build_parser().parse_args(["center", text])
    return args.func(args)


# (reader, error class, message prefix, text with a syntax error past its first line)
BAD_JSON = {
    "complex": (ts.load_complex, ComplexError, "parse error", '{\n  "vertices": ["a",\n    "b",]\n}'),
    "scheme": (ts.load_scheme, SchemeError, "scheme parse error", '{"start": [["a", "b"]],\n "steps": [}'),
    "connection": (
        lambda text: ts.load_connection(text, ts.SimplicialComplex.build("ab", edges=["ab"])),
        BundleError,
        "connection parse error",
        '{"group": {"cyclic": 2},\n\n "edges": {"a>b" "1"}}',
    ),
    "center": (load_center, TrisweepError, "bad group descriptor", '{"cyclic":\n 3,\n}'),
}


@pytest.mark.parametrize("case", sorted(BAD_JSON))
def test_a_json_syntax_error_carries_the_decoders_line_and_column(case):
    read, error, what, text = BAD_JSON[case]
    with pytest.raises(json.JSONDecodeError) as decoded:
        json.loads(text)
    line, column = decoded.value.lineno, decoded.value.colno
    assert line > 1
    with pytest.raises(error) as info:
        read(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"{what} at line {line}, column {column}: {decoded.value.msg}"
    assert info.value.step_index is None


@pytest.mark.parametrize("case", sorted(BAD_JSON))
def test_an_input_past_an_interpreter_limit_has_no_position(case):
    read, error, what, _text = BAD_JSON[case]
    with pytest.raises(error) as info:
        read("[" * 100_000)
    assert str(info.value) == f"{what}: arrays or objects nested too deeply"
    assert (info.value.line, info.value.column, info.value.step_index) == (None, None, None)


def test_run_scheme_and_validate_scheme_errors_keep_their_step_index(tetra, symbolic_connection, scheme1):
    bad = ts.SweepScheme(scheme1.start_path, scheme1.steps[:2] + (ts.HomotopyStep("deg_drop", 0),))
    with pytest.raises(SchemeError) as on_path:
        ts.validate_scheme(bad, tetra)
    start = ts.Section(bad.start_path, tuple(ts.identity(symbolic_connection.group) for _ in bad.start_path.steps))
    with pytest.raises(SweepError) as on_section:
        ts.run_scheme(start, bad, symbolic_connection)
    # load_scheme names the step it could not read, whichever check refused it
    read_errors = []
    for key, value in (("position", True), ("cell", "a..b"), ("move", "zig"), ("extra", 1)):
        obj = json.loads(ts.dump_scheme(scheme1))
        obj["steps"][2][key] = value
        with pytest.raises(SchemeError) as on_read:
            ts.load_scheme(json.dumps(obj))
        read_errors.append(on_read.value)
    for err in (on_path.value, on_section.value, *read_errors):
        assert err.step_index == 2
        assert str(err).startswith("step 2: ")
        assert (err.line, err.column) == (None, None)


@pytest.mark.parametrize("error", [TrisweepError, ComplexError, PathError, SchemeError, GroupError, BundleError, SweepError])
def test_every_domain_error_has_one_shape(error):
    plain = error("message")
    assert (str(plain), plain.line, plain.column, plain.step_index) == ("message", None, None, None)
    placed = error("message", line=3, column=4, step_index=5)
    assert (placed.line, placed.column, placed.step_index) == (3, 4, 5)
    with pytest.raises(TypeError):  # the positions are keyword-only
        error("message", 3)
