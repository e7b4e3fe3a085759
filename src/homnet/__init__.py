"""homnet: chain-complex engine for the physics of finite networks.

Networks (circuits, trusses, moving point systems) are modelled as oriented
simplicial complexes with ring-valued chains and cochains.  Kirchhoff's laws,
static equilibrium, self-stress, rigidity counting and the conservation laws
of discrete mechanics all become statements about boundaries, cycles and
coboundaries, which this package verifies exactly where the input is exact.
"""

from ._kernel import BACKEND as KERNEL_BACKEND
from .complexes import Complex, ConeResult, build_complex, cone, path_components
from .chains import (
    COLLAPSED,
    Chain,
    ChainMapSpec,
    Cochain,
    apply_chain_map,
    augmented_boundary,
    boundary,
    classify_path,
    coboundary,
    evaluate,
    verify_chain_map,
)
from .coeffs import (
    INTEGER,
    RATIONAL,
    REAL64,
    Bivector,
    bivector,
    covector,
    time_series,
    vector,
)
from .homology import (
    betti_numbers,
    cycle_basis,
    euler_characteristic,
    homology_generators,
    is_boundary,
    is_coboundary,
    is_cycle,
    summary,
    torsion_coefficients,
)
from .exact import smith_normal_form

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "Complex",
    "ConeResult",
    "build_complex",
    "cone",
    "path_components",
    "COLLAPSED",
    "Chain",
    "ChainMapSpec",
    "Cochain",
    "apply_chain_map",
    "augmented_boundary",
    "boundary",
    "classify_path",
    "coboundary",
    "evaluate",
    "verify_chain_map",
    "INTEGER",
    "RATIONAL",
    "REAL64",
    "Bivector",
    "bivector",
    "covector",
    "time_series",
    "vector",
    "betti_numbers",
    "cycle_basis",
    "euler_characteristic",
    "homology_generators",
    "is_boundary",
    "is_coboundary",
    "is_cycle",
    "summary",
    "torsion_coefficients",
    "smith_normal_form",
    "__version__",
]
