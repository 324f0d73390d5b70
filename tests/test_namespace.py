"""The package binds each exported name, and each submodule, on first use."""

from __future__ import annotations

import subprocess
import sys
import types

import pytest

import trisweep as ts
from trisweep import cli

PUBLIC = [name for name in dir(ts) if not name.startswith("_")]


def test_every_listed_name_is_the_object_its_defining_module_binds():
    assert len(PUBLIC) > 60
    for name in PUBLIC:
        obj = getattr(ts, name)
        if isinstance(obj, types.ModuleType):
            assert obj is sys.modules[f"trisweep.{name}"]
        else:
            assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert {"paths", "complexes", "groups", "sweep", "data_path", "load_connection"} <= set(PUBLIC)


def test_a_star_import_binds_every_exported_name_in_a_fresh_interpreter():
    code = "from trisweep import *; print(*dir())"
    bound = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split()
    assert {name for name in PUBLIC if not isinstance(getattr(ts, name), types.ModuleType)} <= set(bound)


def test_a_name_and_a_submodule_resolve_in_a_fresh_interpreter():
    # a from-import loads only its own module and what that imports;
    # a submodule read as an attribute is imported then
    code = (
        "import sys, trisweep; from trisweep import center_obstruction_check;"
        "print(*sorted(m for m in sys.modules if m.startswith('trisweep.')));"
        "print(center_obstruction_check is sys.modules['trisweep.groups'].center_obstruction_check,"
        " trisweep.sweep.run_scheme is sys.modules['trisweep.sweep'].run_scheme,"
        " trisweep.paths is sys.modules['trisweep.paths'], trisweep.complexes is sys.modules['trisweep.complexes'])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["trisweep._record trisweep.errors trisweep.groups", "True True True True"]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ts.no_such_name  # noqa: B018
    assert not hasattr(ts, "no_such_name")
    with pytest.raises(ImportError):
        from trisweep import no_such_name  # noqa: F401
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name  # noqa: B018


def test_the_cli_binds_a_name_the_benchmark_tracer_wraps_on_first_read():
    assert cli.load_complex is ts.complexes.load_complex
    assert cli.edge_holonomy is ts.bundle.holonomy
    assert vars(cli)["edge_holonomy"] is ts.bundle.holonomy  # bound, not looked up on each read
