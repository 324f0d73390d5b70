"""Discrete parallel transport in one and two dimensions on triangulated surfaces.

One-dimensional transport assigns a group element to every oriented edge
and multiplies them along edge-paths; two-dimensional transport rewrites
words of group elements while the underlying path sweeps across oriented
triangles.  The package ships the complex/connection/scheme file formats,
a CLI, and a bundled tetrahedron example.
"""

from .errors import (
    BundleError,
    ComplexError,
    GroupError,
    PathError,
    SchemeError,
    SweepError,
    TrisweepError,
)
from .paths import (
    EdgePath,
    HomotopyStep,
    SweepScheme,
    apply_move_path,
    compose_paths,
    dump_scheme,
    invert_path,
    load_scheme,
    reduce_x1,
    search_homotopy,
    validate_scheme,
    x1_homotopic,
)
from .complexes import (
    Diagnostic,
    SimplicialComplex,
    dump_complex,
    load_complex,
    validate_complex,
)
from .groups import (
    GroupDescriptor,
    GroupElement,
    center,
    center_obstruction_check,
    conjugate,
    cyclic_group,
    descriptor_from_json,
    descriptor_to_json,
    dihedral_group,
    element,
    enumerate_elements,
    format_element,
    free_group,
    group_order,
    identity,
    inverse,
    is_finite,
    multiply,
    parse_element,
    product_group,
    symmetric_group,
)
from .bundle import (
    Connection1,
    GaugeTransform,
    find_isomorphism,
    gauge_transform,
    holonomy,
)
from .sweep import (
    Connection2,
    DefectReport,
    SchemeComparison,
    Section,
    SweepTrace,
    apply_move_section,
    compare_schemes,
    curvature_square,
    interior_vertices,
    load_connection,
    run_scheme,
    sections_gauge_equivalent,
    twist_section,
    two_holonomy,
)

__version__ = "0.1.0"


def data_path(name: str):
    """Path of a bundled example file, e.g. ``data_path("tetrahedron.json")``."""
    from pathlib import Path  # here, so that importing the package does not load it

    return Path(__file__).parent / "examples" / name
