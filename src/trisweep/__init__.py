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
    drop_degenerate,
    dump_scheme,
    insert_degenerate,
    invert_path,
    load_scheme,
    reduce_x1,
    search_homotopy,
    validate_scheme,
    x1_homotopic,
)
from .complexes import (
    Diagnostic,
    OrientedTriangle,
    SimplicialComplex,
    classify_cell,
    dump_complex,
    load_complex,
    oriented_triangles,
    validate_complex,
)
from .groups import (
    GroupDescriptor,
    GroupElement,
    Representation,
    center,
    center_obstruction_check,
    conjugate,
    conjugators,
    cyclic_character,
    cyclic_group,
    descriptor_from_json,
    descriptor_to_json,
    dihedral_group,
    element,
    enumerate_elements,
    format_element,
    free_group,
    generating_set,
    group_order,
    identity,
    inverse,
    is_finite,
    mat_identity,
    mat_mul,
    mat_trace,
    multiply,
    parse_element,
    permutation_representation,
    product_group,
    represent,
    symmetric_group,
    table_representation,
)
from .bundle import (
    Connection1,
    GaugeTransform,
    associated_transport,
    find_isomorphism,
    gauge_transform,
    holonomy,
    wilson_loop,
)
from .sweep import (
    Connection2,
    DefectReport,
    SchemeComparison,
    Section,
    SweepTrace,
    alpha_expand,
    alpha_merge,
    apply_move_section,
    beta_expand,
    beta_merge,
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
    """Handle on a bundled example file, e.g. ``data_path("tetrahedron.json")``."""
    from importlib import resources  # here, so that importing the package does not load it

    return resources.files(__name__).joinpath("examples", name)
