"""The code-line counter in ``tools/code_lines.py``, against counts made by hand."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# each line is marked by whether it counts: docstrings, comment-only lines and
# blank lines do not; a string statement that opens no body and every line of a
# call that spans several lines do
FIXTURE = '''\
"""A module docstring
over two lines."""

import os  # a code line with a trailing comment

# a comment-only line


class Box:
    """A class docstring."""

    def path(self):
        """A def docstring
        over two lines."""
        # a comment-only line in a body
        "a string statement that opens no body"
        return os.path.join(
            "a",
            "b",
        )
'''


def test_code_lines_counts_a_fixture_as_counted_by_hand(tmp_path):
    source = tmp_path / "fixture.py"
    source.write_text(FIXTURE)
    assert len(FIXTURE.splitlines()) == 20
    assert code_lines.code_lines(source) == 8  # lines 4, 9, 12, 16 and 17-20


def test_the_total_is_the_sum_of_the_module_counts(capsys):
    assert code_lines.main(["code_lines.py", str(ROOT / "src" / "trisweep")]) == 0
    *modules, total = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[0]) for line in modules]
    assert len(counts) == len(list((ROOT / "src" / "trisweep").rglob("*.py")))
    assert total.split() == [str(sum(counts)), "total"]
