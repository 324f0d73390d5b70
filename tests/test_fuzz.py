"""Seeded fuzzing of the CLI: mutated bundled examples fail with exit 1 or 2.

Each case changes one value of a bundled example file (to a list, an
object, a number or null, always of another JSON type), puts a huge
integer or a deeply nested array in its place, or adds an unknown key to
one of its objects.  Every subcommand that reads the file then runs in
process through ``cli.main``; none may return 0 or let an exception escape.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

import pytest

import trisweep as ts
from trisweep import cli

EXAMPLES = {name: json.loads(ts.data_path(name).read_text()) for name in (
    "tetrahedron.json", "tetrahedron_symbolic.json", "scheme1.json", "scheme2.json"
)}
# center reads a group descriptor from its argument, not from a file
CENTER_GROUP = {"product": [{"cyclic": 2}, {"dihedral": 3}]}
REPLACEMENTS = ([], ["zz"], {}, {"zz": 1}, -1, 0.5, None)
HUGE = "1" + "0" * 5000
MARK = "@@mutated@@"
CASES_PER_FILE = 60


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def _paths(value, path=()):
    """Every position in a JSON value, as key paths, the root first."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def mutate(doc, rng: random.Random) -> str:
    """The text of ``doc`` with one mutation, drawn from ``rng``."""
    positions = list(_paths(doc))
    kind = rng.choice(("type", "type", "huge", "deep", "key"))
    if kind == "key":
        doc = copy.deepcopy(doc)
        path = rng.choice([p for p, v in positions if isinstance(v, dict)])
        target = doc
        for key in path:
            target = target[key]
        target["zz_unknown"] = 1
        return json.dumps(doc)
    path, value = rng.choice(positions[1:])
    if kind == "type":
        choices = [r for r in REPLACEMENTS if _json_type(r) != _json_type(value)]
        return json.dumps(_replaced(doc, path, rng.choice(choices)))
    if kind == "huge":
        text = rng.choice((HUGE, "-" + HUGE))
    else:
        depth = rng.choice((20, 900, 100_000))
        text = "[" * depth + "]" * depth
    return json.dumps(_replaced(doc, path, MARK)).replace(json.dumps(MARK), text)


def command_lines(name: str, mutated: str) -> list[list[str]]:
    """Every subcommand line that reads the mutated file in place of ``name``."""
    if name == "center":
        return [["center", mutated]]
    files = {example: example for example in EXAMPLES}
    files[name] = mutated
    complex_, connection = files["tetrahedron.json"], files["tetrahedron_symbolic.json"]
    lines = [
        ["validate", "--complex", complex_],
        ["holonomy", "--complex", complex_, "--connection", connection, "--path", "a,b,d,a"],
        ["curvature", "--complex", complex_, "--connection", connection, "a", "b", "c", "d"],
        ["sweep", "--complex", complex_, "--connection", connection, "--scheme", files["scheme1.json"], "--word", "x,y"],
        ["compare", "--complex", complex_, "--connection", connection,
         "--scheme", files["scheme1.json"], "--scheme", files["scheme2.json"], "--word", "x,y"],
    ]
    return [line for line in lines if mutated in line]


@pytest.mark.parametrize("name", [*EXAMPLES, "center"])
def test_mutated_examples_fail_without_a_traceback(tmp_path: Path, capsys, name):
    rng = random.Random(f"fuzz {name}")
    doc = CENTER_GROUP if name == "center" else EXAMPLES[name]
    for case in range(CASES_PER_FILE):
        text = mutate(doc, rng)
        if name == "center":
            mutated = text
        else:
            mutated = str(tmp_path / f"case{case}.json")
            Path(mutated).write_text(text)
        for argv in command_lines(name, mutated):
            try:
                code = cli.main(argv)
            except Exception as exc:
                pytest.fail(f"{argv[0]} on {text[:300]!r} raised {exc!r}")
            capsys.readouterr()
            assert code in (1, 2), (argv[0], text[:300])
