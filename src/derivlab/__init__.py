"""derivlab: an exact workbench for derivation-style identities on finite
matrix rings over Z/mZ.

The package computes full solution spaces of linear map identities (derivation,
Jordan, zero-product conditioned, and their generalized variants) as canonical
Howell-form modules, runs the constructive decompositions behind the collapse
of those spaces, and verifies the corresponding results end to end at desk
scale.
"""

from .errors import (
    EvenModulusError,
    GuardError,
    InternalVerificationError,
    PreconditionError,
)
from .identities import (
    IDENTITY_KINDS,
    CheckReport,
    ConstraintSystem,
    DecompositionTrace,
    check,
    constraint_system,
    decompose_inner_plus_lifted,
    decompose_theorem21,
    decompose_trivial_extension,
    inner_derivation_module,
    maps_from_module,
    peirce_component_check,
    right_multiplier_module,
    solve_all,
    verify_proof_steps,
)
from .linalg import (
    ResidueMatrix,
    SolutionModule,
    module_equal,
    solve_homogeneous,
)
from .maps import (
    AdditiveMap,
    compose,
    identity_map,
    inner_derivation,
    lift_map,
    right_multiplier,
    zero_map,
)
from .rings import (
    Bimodule,
    PeirceComponents,
    RingDescriptor,
    RingElement,
    anti_commuting_pairs,
    basis_elements,
    center_basis,
    dual_numbers,
    left_zero_pairs,
    matrix_ring,
    matrix_unit,
    one_element,
    peirce_split,
    ring_rank,
    ring_size,
    trivial_extension,
    zero_element,
    zero_product_pairs,
    zmod,
)
from .theorems import THEOREM_IDS, TheoremReport, run_all, verify_theorem

__version__ = "0.1.0"

__all__ = [
    "AdditiveMap",
    "Bimodule",
    "CheckReport",
    "ConstraintSystem",
    "DecompositionTrace",
    "EvenModulusError",
    "GuardError",
    "IDENTITY_KINDS",
    "InternalVerificationError",
    "PeirceComponents",
    "PreconditionError",
    "ResidueMatrix",
    "RingDescriptor",
    "RingElement",
    "SolutionModule",
    "THEOREM_IDS",
    "TheoremReport",
    "anti_commuting_pairs",
    "basis_elements",
    "center_basis",
    "check",
    "compose",
    "constraint_system",
    "decompose_inner_plus_lifted",
    "decompose_theorem21",
    "decompose_trivial_extension",
    "dual_numbers",
    "identity_map",
    "inner_derivation",
    "inner_derivation_module",
    "left_zero_pairs",
    "lift_map",
    "maps_from_module",
    "matrix_ring",
    "matrix_unit",
    "module_equal",
    "one_element",
    "peirce_component_check",
    "peirce_split",
    "right_multiplier",
    "right_multiplier_module",
    "ring_rank",
    "ring_size",
    "run_all",
    "solve_all",
    "solve_homogeneous",
    "trivial_extension",
    "verify_proof_steps",
    "verify_theorem",
    "zero_element",
    "zero_map",
    "zero_product_pairs",
    "zmod",
]
