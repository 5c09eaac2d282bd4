#!/usr/bin/env python3
"""Numerical spectra next to exact integer arithmetic.

Two independent pipelines look at the same matrix: the in-repo dense
symmetric eigensolver (Householder + implicit-shift QL), and the exact
characteristic polynomial whose roots come from a companion eigenproblem.
The polynomial comes from the level profile alone, and the n x n route
checks it. A fully exact route (fraction-free elimination) pins down the
multiplicity of the zero eigenvalue.
"""

import numpy as np

from levelspectra.commands import polynomial_text
from levelspectra.levelmatrix import build_level_matrix
from levelspectra.spectra import (
    characteristic_polynomial,
    charpoly_roots,
    exact_zero_multiplicity,
    level_profile,
    perron_vector,
    profile_charpoly,
    symmetric_eigenvalues,
)
from levelspectra.trees import from_parent_list, levels

tree = from_parent_list([0, 1, 2, 7, 6, 1, 6, 3, 3])
m = build_level_matrix(tree)

spectrum = symmetric_eigenvalues(m)
print("eigenvalues (descending):")
for v in spectrum.values:
    print(f"  {v: .9f}")
print("clusters:", [(round(v, 6), k) for v, k in spectrum.clusters])
print("spectral radius rho:", spectrum.rho)
print("energy (sum |eigenvalue|):", spectrum.energy)
print("energy equals 2*rho:", abs(spectrum.energy - 2 * spectrum.rho) < 1e-10)

# The Perron vector: strictly positive unit eigenvector of the top eigenvalue.
rho, v = perron_vector(m)
print("\nPerron residual |Lv - rho v|:", float(np.linalg.norm(m.entries @ v - rho * v)))
print("all entries positive:", bool(np.all(v > 0)))

# Exact integer characteristic polynomial: that of the (h+1)x(h+1) profile
# matrix B_ab = |a - b| n_b, by a three-term recurrence, times x^(n-h-1).
profile = level_profile(levels(tree))
poly = profile_charpoly(profile)
print("\nlevel profile:", profile)
print("characteristic polynomial:", polynomial_text(poly))
print("equals the n x n Faddeev-LeVerrier:", poly == characteristic_polynomial(m))
print("coefficient of x^(n-2) is -H/2:", poly.coeffs[2] == -m.h_value // 2)

# Its roots, found through the companion problem, replay the spectrum.
roots = charpoly_roots(poly)
print("max |root - eigenvalue|:", float(np.abs(roots - spectrum.values).max()))

# Exact rank arithmetic: the zero eigenvalue has multiplicity n - 1 - l_max.
nullity = exact_zero_multiplicity(m)
print("\nexact multiplicity of 0:", nullity)
print("matches n - 1 - l_max:", nullity == m.n - 1 - m.l_max)
