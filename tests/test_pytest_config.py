"""The pytest configuration in ``pyproject.toml``, run on a test written here."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_every_integer_is_small(n):
    assert n < 5
'''


def test_a_failing_property_reports_its_example_under_the_warning_filters(tmp_path):
    # every warning is an error, so a warning raised while hypothesis reports a
    # failure would end the run in an INTERNALERROR and lose the example
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    command = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    run = subprocess.run(
        [*command, "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
