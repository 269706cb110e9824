"""Quantum codes from quaternary cyclic, duadic and quadratic-residue codes.

The package builds 0-dimensional binary quantum codes (equivalently,
Hermitian self-dual linear codes over the 4-element field) and certifies
minimum-distance bounds: exactly at desk scale by packed Gray-walk
enumeration, and by honest intervals beyond the enumeration budget.

The enumeration kernels are plain numpy; active_backend() names them.
"""

from ._kernels import active_backend
from .cyclic import (
    CosetPartition,
    CyclicCode,
    DefiningSet,
    all_cosets,
    apply_multiplier,
    cyclotomic_coset,
    dual_defining_set,
)
from .distance import (
    DistanceBound,
    compose_bounds,
    duadic_distances,
    fixed_subcode,
    fixed_subcode_lower_bound,
    min_distance_exact,
)
from .duadic import (
    DuadicPair,
    Splitting,
    duadic_from_splitting,
    find_splittings,
    qr_splitting,
)
from .errors import (
    BudgetExceededError,
    DuadiqError,
    InputError,
    InvariantError,
    NotApplicableError,
)
from .extfield import ExtField, ext_build, minimal_poly
from .quantum import (
    Annotation,
    QuantumParams,
    SelfDualCode,
    cyclic_zero_dim,
    dual_containing_to_zero_dim,
    extended_duadic_quantum,
    general_zero_dim,
    load_annotations,
    secondary_chain,
    secondary_constructions,
    zero_dim_from_classical_annotation,
)

__version__ = "0.1.0"

__all__ = [
    "active_backend",
    "all_cosets",
    "apply_multiplier",
    "compose_bounds",
    "cyclic_zero_dim",
    "cyclotomic_coset",
    "duadic_distances",
    "duadic_from_splitting",
    "dual_containing_to_zero_dim",
    "dual_defining_set",
    "ext_build",
    "extended_duadic_quantum",
    "find_splittings",
    "fixed_subcode",
    "fixed_subcode_lower_bound",
    "general_zero_dim",
    "load_annotations",
    "min_distance_exact",
    "minimal_poly",
    "qr_splitting",
    "secondary_chain",
    "secondary_constructions",
    "zero_dim_from_classical_annotation",
    "Annotation",
    "BudgetExceededError",
    "CosetPartition",
    "CyclicCode",
    "DefiningSet",
    "DistanceBound",
    "DuadicPair",
    "DuadiqError",
    "ExtField",
    "InputError",
    "InvariantError",
    "NotApplicableError",
    "QuantumParams",
    "SelfDualCode",
    "Splitting",
]
