"""Discrete parallel transport in one and two dimensions on triangulated surfaces.

One-dimensional transport assigns a group element to every oriented edge
and multiplies them along edge-paths; two-dimensional transport rewrites
words of group elements while the underlying path sweeps across oriented
triangles.  The package ships the complex/connection/scheme file formats,
a CLI, and a bundled tetrahedron example.

Each exported name, and each submodule, is imported on first use (PEP 562),
so that ``import trisweep`` loads no layer and a caller pays only for the
modules it reaches.
"""

# the module that defines each exported name
_HOMES = {
    name: module
    for module, names in {
        "errors": "BundleError ComplexError GroupError PathError SchemeError SweepError TrisweepError",
        "paths": "EdgePath HomotopyStep SweepScheme apply_move_path compose_paths dump_scheme invert_path"
        " load_scheme reduce_x1 search_homotopy validate_scheme x1_homotopic",
        "complexes": "Diagnostic SimplicialComplex dump_complex load_complex validate_complex",
        "groups": "GroupDescriptor GroupElement center center_obstruction_check conjugate cyclic_group"
        " descriptor_from_json descriptor_to_json dihedral_group element enumerate_elements format_element"
        " free_group group_order identity inverse is_finite multiply parse_element product_group symmetric_group",
        "bundle": "Connection1 GaugeTransform find_isomorphism gauge_transform holonomy",
        "sweep": "Connection2 DefectReport SchemeComparison Section SweepTrace apply_move_section compare_schemes"
        " curvature_square interior_vertices load_connection run_scheme sections_gauge_equivalent twist_section"
        " two_holonomy",
    }.items()
    for name in names.split()
}
_SUBMODULES = {"errors", "paths", "complexes", "groups", "bundle", "sweep", "cli"}
__all__ = [*_HOMES, "data_path"]  # what ``from trisweep import *`` binds, each name through __getattr__

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module behind ``name``, bind ``name`` here and return it."""
    from importlib import import_module

    if name in _HOMES:
        value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *_SUBMODULES})


def data_path(name: str):
    """Path of a bundled example file, e.g. ``data_path("tetrahedron.json")``."""
    from pathlib import Path  # here, so that importing the package does not load it

    return Path(__file__).parent / "examples" / name
