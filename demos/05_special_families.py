#!/usr/bin/env python3
"""Closed forms for the special families, checked against the solver.

Stars, paths, stars rooted at a leaf, and complete d-ary trees all have
structure the spectrum reflects: exact radicals, a transcendental equation,
a cubic, and heavy zero multiplicities.
"""

import math

import numpy as np

from levelspectra.bounds import path_rho_closed_form
from levelspectra.levelmatrix import build_level_matrix
from levelspectra.spectra import (
    CharPoly,
    charpoly_roots,
    exact_zero_multiplicity,
    profile_charpoly,
    symmetric_eigenvalues,
)
from levelspectra.trees import complete_dary, rooted_path, rooted_star, star_rooted_at_leaf

# Rooted star: the level matrix IS the adjacency matrix, so rho = sqrt(n-1)
# and zero fills the rest of the spectrum (multiplicity n-2).
print("rooted stars:")
for n in (3, 10, 50):
    sp = symmetric_eigenvalues(build_level_matrix(rooted_star(n)))
    print(f"  n={n:3d}  rho={sp.rho:.12f}  sqrt(n-1)={math.sqrt(n - 1):.12f}  "
          f"mul(0)={exact_zero_multiplicity(build_level_matrix(rooted_star(n)))}")

# Rooted path: rho solves tanh(t/2)*tanh(n t/2) = 1/n via rho = 1/(cosh t - 1).
print("\nrooted paths:")
for n in (3, 10, 50):
    sp = symmetric_eigenvalues(build_level_matrix(rooted_path(n)))
    closed = path_rho_closed_form(n)
    print(f"  n={n:3d}  solver={sp.rho:.12f}  closed form={closed:.12f}  "
          f"|diff|={abs(sp.rho - closed):.2e}")

# Star rooted at a leaf: levels (1, 1, n-2), and the characteristic
# polynomial is exactly x^(n-3) (x^3 + (9-5n)x + (8-4n)), so there are three
# nonzero eigenvalues, the cubic's roots; everything else is zero.
print("\nstars rooted at a leaf:")
for n in (3, 6, 20):
    cubic = CharPoly((1, 0, 9 - 5 * n, 8 - 4 * n))
    exact = profile_charpoly((1, 1, n - 2)).coeffs == cubic.coeffs + (0,) * (n - 3)
    sp = symmetric_eigenvalues(build_level_matrix(star_rooted_at_leaf(n)))
    nonzero = np.sort(sp.values[np.abs(sp.values) > 1e-8 * max(1, sp.rho)])[::-1]
    roots = charpoly_roots(cubic)
    print(f"  n={n:3d}  x^(n-3) times the cubic: {exact}  cubic roots {np.round(roots, 6)}  "
          f"max residual {np.abs(roots - nonzero).max():.2e}")

# Complete d-ary trees: many vertices share levels, so the zero eigenvalue
# dominates; its multiplicity is n - 1 - height.
print("\ncomplete d-ary trees:")
for d, h in ((2, 3), (3, 3), (4, 2)):
    tree = complete_dary(d, h)
    m = build_level_matrix(tree)
    print(f"  d={d} height={h}: n={tree.n:3d}  mul(0)={exact_zero_multiplicity(m):3d}  "
          f"n-1-height={tree.n - 1 - h}")
