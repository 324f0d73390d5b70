"""Every module that CI runs parses under the grammar of the oldest Python that ``pyproject.toml`` supports.

That is the package, its tools, its tests and the benchmark."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# read with a regex, since tomllib is new in Python 3.11
OLDEST = tuple(map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M).groups()))
TREES = ("src/trisweep", "tools", "tests", "perfbench")


def test_the_check_is_in_force():
    with pytest.raises(SyntaxError):  # except* is new in Python 3.11
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("tree", TREES)
def test_every_module_of_a_tree_parses_under_the_oldest_supported_grammar(tree):
    modules = sorted((ROOT / tree).rglob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST)  # a SyntaxError names the file
