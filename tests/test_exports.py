"""The package's public names."""

import duadiq

# every public name, so that a removal or an addition is a deliberate edit here
PUBLIC = """
    Annotation BudgetExceededError CosetPartition CyclicCode DefiningSet DistanceBound
    DuadicPair DuadiqError ExtField InputError InvariantError NotApplicableError QuantumParams
    SelfDualCode Splitting active_backend all_cosets apply_multiplier apply_multiplier_set
    compose_bounds cyclic_zero_dim cyclotomic_coset duadic_distances duadic_from_splitting
    dual_containing_to_zero_dim dual_defining_set ext_build extend_nearly_self_orthogonal
    extended_duadic_quantum find_splittings fixed_subcode fixed_subcode_lower_bound
    general_zero_dim is_dual_containing load_annotations min_distance_exact minimal_poly
    params_from_annotation qr_splitting secondary_chain secondary_constructions
    zero_dim_from_classical_annotation
""".split()


def test_every_exported_name_resolves():
    # a name deleted from the package must leave __all__ too
    assert [name for name in duadiq.__all__ if not hasattr(duadiq, name)] == []
    assert len(set(duadiq.__all__)) == len(duadiq.__all__)


def test_public_names_are_pinned():
    assert sorted(duadiq.__all__) == PUBLIC
