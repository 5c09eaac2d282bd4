"""The n x n oracles: the level matrix of a rooted tree, and its path distances.

Entry (i, j) is the absolute difference of the levels of vertices i and j.
The matrix is symmetric with zero diagonal, so its eigenvalues are real and
sum to zero. Cached alongside: the row sums L_i, the level index
LI = (1/2) * sum of all entries, and H = trace of the squared matrix.

No command builds an n x n matrix: the bounds and the verifier take these
aggregates from the level profile (``spectra.SpectralData``), the
characteristic polynomial comes from the profile matrix
(``spectra.profile_charpoly``), and ``verify`` reads distance-domination and
row-sum-difference off consecutive pairs. This module holds the independent
oracles they are tested against: :class:`LevelMatrix` with its aggregates,
the path distances of :func:`distance_matrix`, and the scalar closed form
:func:`row_sum_difference`; and :func:`matrix_text`, the text export the
first demo prints with.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import Frozen
from .trees import RootedTree, levels


class LevelMatrix(Frozen):
    """Symmetric integer matrix of pairwise level differences.

    Its cached aggregates are computed from the entries, independently of
    the profile formulas in ``spectra.SpectralData``: the oracle for them.
    """

    def __init__(self, entries: np.ndarray):
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_levels(cls, vertex_levels) -> "LevelMatrix":
        lev = np.asarray(vertex_levels)
        return cls(np.abs(lev[:, None] - lev[None, :]))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1)

    @cached_property
    def level_index(self) -> int:
        """LI = half the sum of all entries; exact by symmetry."""
        total = int(self.entries.sum())
        assert total % 2 == 0
        return total // 2

    @cached_property
    def h_value(self) -> int:
        """H = trace of the squared matrix = 2 * sum of squared entries above
        the diagonal."""
        return int((self.entries.astype(np.int64) ** 2).sum())

    @cached_property
    def l_max(self) -> int:
        return int(self.entries.max())

    def __eq__(self, other) -> bool:
        return isinstance(other, LevelMatrix) and np.array_equal(self.entries, other.entries)


def build_level_matrix(tree: RootedTree) -> LevelMatrix:
    return LevelMatrix.from_levels(levels(tree))


def distance_matrix(tree: RootedTree) -> np.ndarray:
    """Path distances d_ij = levels[i] + levels[j] - 2*levels[lca(i, j)].

    The lowest common ancestor comes from a naive parent walk; quadratic in n
    per pair but plenty at desk scale.
    """
    n = tree.n
    lev = levels(tree)
    parent = tree.parent
    dist = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = i, j
            while a != b:
                if lev[a] >= lev[b]:
                    a = parent[a]
                else:
                    b = parent[b]
            d = lev[i] + lev[j] - 2 * lev[a]
            dist[i, j] = dist[j, i] = d
    return dist


def row_sum_difference(sorted_levels, i: int, k: int) -> int:
    """Closed form for L_i - L_k when levels are sorted non-increasing.

    ``sorted_levels`` lists the vertex levels in non-increasing order; i and k
    are 1-based positions with 1 <= i < k <= n. The ``row-sum-difference``
    check of ``verify`` applies it on consecutive pairs, where it telescopes
    to all pairs; this is the scalar oracle it is tested against.
    """
    lev = list(sorted_levels)
    n = len(lev)
    if not 1 <= i < k <= n:
        raise IndexError(f"need 1 <= i < k <= n, got i={i}, k={k}, n={n}")
    if any(lev[a] < lev[a + 1] for a in range(n - 1)):
        raise IndexError("levels must be sorted non-increasing")
    middle = sum(lev[j - 1] for j in range(i + 1, k))
    return (n - 2 * i) * lev[i - 1] - 2 * middle - (n - 2 * k + 2) * lev[k - 1]


def matrix_text(matrix: LevelMatrix) -> str:
    """Text export: n on the first line, then one whitespace-separated row
    per line. A library entry point (the first demo prints with it); no
    command or check uses it."""
    lines = [str(matrix.n)]
    for row in matrix.entries:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"
