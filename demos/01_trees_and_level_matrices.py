#!/usr/bin/env python3
"""Build rooted trees and inspect their level matrices.

The level matrix records, for every vertex pair, how far apart their levels
(root distances) are. This walk-through constructs a 9-vertex tree, reads off
the matrix and its aggregates, and compares against the distance matrix.
"""

import numpy as np

from levelspectra.levelmatrix import build_level_matrix, distance_matrix, matrix_text
from levelspectra.trees import (
    from_parent_list,
    levels,
    parse_tree,
    rooted_path,
    rooted_star,
    to_dot,
)

# A tree is a parent array: 1-based vertex labels, 0 marks the root.
# Vertex 4 hangs under vertex 7, which hangs under vertex 6, and so on.
tree = from_parent_list([0, 1, 2, 7, 6, 1, 6, 3, 3])
print("levels per vertex:", levels(tree).tolist())

m = build_level_matrix(tree)
print("\nlevel matrix (entry = |level_i - level_j|):")
print(matrix_text(m))

print("row sums L_i:   ", m.row_sums.tolist())
print("level index LI: ", m.level_index, " (half the sum of all entries)")
print("H = tr(L^2):    ", m.h_value)
print("l_max:          ", m.l_max)

# The level matrix never exceeds the distance matrix entrywise, and the two
# coincide exactly when the tree is a path rooted at an endvertex.
d = distance_matrix(tree)
print("\nentrywise level <= distance:", bool(np.all(m.entries <= d)))
print("matrices equal here:", bool(np.array_equal(m.entries, d)))

path = rooted_path(6)
print("equal on a rooted path:",
      bool(np.array_equal(build_level_matrix(path).entries, distance_matrix(path))))

# The rooted star's level matrix is exactly the star's adjacency matrix.
star = build_level_matrix(rooted_star(5))
print("\nrooted star level matrix:")
print(matrix_text(star))

# Trees round-trip through the text format and export to GraphViz.
round_tripped = parse_tree("3\n0 1 1\n")
print("parsed 3-vertex star, levels:", levels(round_tripped).tolist())
print("\nDOT export of the sample tree:")
print(to_dot(round_tripped))
