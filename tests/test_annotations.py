"""Every function the package exports annotates each of its parameters, and its annotations resolve."""

from __future__ import annotations

import inspect
import typing

import pytest

import trisweep as ts

EXPORTED = {
    name: obj
    for name, obj in vars(ts).items()
    if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__.startswith("trisweep")
}


def test_the_exported_functions_are_found():
    assert len(EXPORTED) > 40


@pytest.mark.parametrize("name", sorted(EXPORTED))
def test_an_exported_function_annotates_every_parameter(name):
    parameters = inspect.signature(EXPORTED[name]).parameters.values()
    assert not [p.name for p in parameters if p.annotation is inspect.Parameter.empty]


@pytest.mark.parametrize("name", sorted(EXPORTED))
def test_the_annotations_of_an_exported_function_resolve(name):
    function = EXPORTED[name]
    hints = typing.get_type_hints(function)  # a name that does not resolve raises NameError
    assert set(inspect.signature(function).parameters) <= set(hints)
