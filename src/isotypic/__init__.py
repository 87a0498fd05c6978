"""Exact isotypic decompositions of finite-group representations over F_p,
with graded and univariate Galois-cover verification models."""

from .arith import (
    Poly,
    RatFunc,
    choose_prime,
    limit_at_one,
    poly_gcd,
    primitive_root,
    root_of_unity,
    series_prefix,
)
from .characters import (
    CharacterTable,
    central_idempotents,
    character_table,
    class_matrix,
    restrict_invariant_dim,
    splitting_element,
    tensor_multiplicities,
)
from .cover import (
    LinearCoverAction,
    generic_multiplicity,
    invariants_series_check,
    molien_multiplicity_series,
    perm_action,
    product_structure_check,
    pushforward_report,
    reflection_action,
    scalar_action,
    validate_action,
)
from .cyclic import (
    CyclicCoverModel,
    build_cyclic,
    decompose_pushforward,
    normal_basis_certificate,
    phi_det,
    phi_equivariance_check,
    phi_matrix,
)
from .groups import (
    ConjugacyClasses,
    Group,
    Permutation,
    Subgroup,
    build_group,
    conjugacy_classes,
    cyclic_subgroup,
    exponent,
    group_from_name,
    group_from_text,
    parse_cycles,
    parse_generator_text,
    power_class_map,
)
from .reps import (
    IsotypicDecomposition,
    MatrixRep,
    character_of,
    decompose,
    dual_rep,
    evaluation_iso_check,
    fixed_dim,
    hom_dim,
    irreducible_models,
    isotypic_projector,
    multiplicity_space,
    permutation_rep,
    regular_rep,
    rep_from_matrices,
    trivial_rep,
)

__version__ = "0.1.0"
