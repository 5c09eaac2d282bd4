"""Level matrices of rooted trees: construction, exact and numerical spectral
data, eigenvalue bounds, and exhaustive verification at small orders.

Importing the package loads no submodule and not numpy: each public name is
imported from its submodule on first access (PEP 562). The command line
relies on this to set its BLAS thread count before numpy starts.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> submodule that defines it.
_SUBMODULE_OF = {
    **dict.fromkeys([
        "BoundReport",
        "evaluate_checks",
        "leafstar_cubic_roots",
        "path_rho_closed_form",
    ], "bounds"),
    **dict.fromkeys([
        "LevelMatrix",
        "build_level_matrix",
        "distance_matrix",
        "matrix_text",
        "row_sum_difference",
    ], "levelmatrix"),
    **dict.fromkeys([
        "CharPoly",
        "SpectralData",
        "Spectrum",
        "characteristic_polynomial",
        "charpoly_roots",
        "clustered_multiplicity",
        "exact_zero_multiplicity",
        "level_profile",
        "perron_vector",
        "quotient_matrix",
        "solve_profiles",
        "symmetric_eigenvalues",
    ], "spectra"),
    **dict.fromkeys([
        "RootedTree",
        "canonical_level_sequence",
        "canonicalize",
        "complete_dary",
        "delete_leaf",
        "enumerate_rooted_trees",
        "format_tree",
        "from_parent_list",
        "is_rooted_path",
        "is_rooted_star",
        "level_sequences",
        "levels",
        "profile_index",
        "profile_stacks",
        "parse_tree",
        "rooted_path",
        "rooted_star",
        "rooted_tree_count",
        "star_rooted_at_leaf",
        "to_dot",
    ], "trees"),
    **dict.fromkeys([
        "VerificationLedger",
        "extremal_sweep",
        "verify_order",
    ], "verify"),
}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
