"""Level matrices of rooted trees: construction, exact and numerical spectral
data, eigenvalue bounds, and exhaustive verification at small orders.

The package exports its entry points:

- the profile engine: ``solve_profiles`` solves level profiles into a
  ``SpectralData`` stack, and ``profile_stacks`` yields every profile of an
  order (from ``levelspectra.spectra`` and ``levelspectra.trees``);
- the exhaustive runs: ``verify_order`` and ``extremal_sweep``
  (``levelspectra.verify``);
- trees: ``parse_tree`` reads the tree file format, ``from_parent_list``
  takes its 1-based parent array, and ``rooted_star``, ``rooted_path``,
  ``star_rooted_at_leaf`` and ``complete_dary`` build the special families
  (``levelspectra.trees``).

Every other name is imported from the module that defines it: the bound
checks and closed forms from ``bounds``, the n x n level matrix and its
oracles from ``levelmatrix``, the exact polynomial and the dense oracles
from ``spectra``, the dense QL solver from ``eigen``, the tree enumeration,
canonical forms and leaf deletion from ``trees``, and the analysis report
and the subcommands from ``commands``.

Importing the package loads no submodule and not numpy: each entry point is
imported from its submodule on first access (PEP 562). The command line
relies on this: ``levelspectra.cli`` parses with the standard library alone,
so ``--help`` and usage errors never load numpy, and it sets the BLAS thread
count before a command loads numpy and the engine.
"""

import importlib

__version__ = "0.1.0"

#: Entry point -> submodule that defines it.
_SUBMODULE_OF = {
    **dict.fromkeys(["SpectralData", "solve_profiles"], "spectra"),
    **dict.fromkeys(["complete_dary", "from_parent_list", "parse_tree", "profile_stacks",
                     "rooted_path", "rooted_star", "star_rooted_at_leaf"], "trees"),
    **dict.fromkeys(["extremal_sweep", "verify_order"], "verify"),
}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
