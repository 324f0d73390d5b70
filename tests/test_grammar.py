"""Every module parses under the grammar of the oldest Python that ``pyproject.toml`` supports."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# read with a regex, since tomllib is new in Python 3.11
OLDEST = tuple(map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M).groups()))


def test_every_module_parses_under_the_oldest_supported_grammar():
    with pytest.raises(SyntaxError):  # the check is in force: except* is new in Python 3.11
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    modules = sorted([*(ROOT / "src" / "trisweep").rglob("*.py"), *(ROOT / "tools").rglob("*.py")])
    assert len(modules) > 5
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST)  # a SyntaxError names the file
