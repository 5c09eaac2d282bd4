import numpy as np
import pytest
from hypothesis import strategies as st

from levelspectra.trees import RootedTree, from_parent_list

# A 9-vertex tree whose level matrix, characteristic polynomial and spectrum
# are known exactly; used as the golden example throughout the suite.
SAMPLE9_PARENTS = [0, 1, 2, 7, 6, 1, 6, 3, 3]
SAMPLE9_LEVELS = [0, 1, 2, 3, 2, 1, 2, 3, 3]
SAMPLE9_MATRIX = np.array([
    [0, 1, 2, 3, 2, 1, 2, 3, 3],
    [1, 0, 1, 2, 1, 0, 1, 2, 2],
    [2, 1, 0, 1, 0, 1, 0, 1, 1],
    [3, 2, 1, 0, 1, 2, 1, 0, 0],
    [2, 1, 0, 1, 0, 1, 0, 1, 1],
    [1, 0, 1, 2, 1, 0, 1, 2, 2],
    [2, 1, 0, 1, 0, 1, 0, 1, 1],
    [3, 2, 1, 0, 1, 2, 1, 0, 0],
    [3, 2, 1, 0, 1, 2, 1, 0, 0],
], dtype=np.int64)
SAMPLE9_CHARPOLY = (1, 0, -80, -276, -216, 0, 0, 0, 0, 0)
SAMPLE9_SPECTRUM = [10.415812724, 0.0, 0.0, 0.0, 0.0, 0.0,
                    -1.1775860608, -2.6888645876, -6.5493620755]
SAMPLE9_RHO = 10.415812724
SAMPLE9_LI = 44
SAMPLE9_H = 160
SAMPLE9_ROW_SUMS = [17, 10, 7, 10, 7, 10, 7, 10, 10]


@pytest.fixture
def sample9():
    return from_parent_list(SAMPLE9_PARENTS)


@st.composite
def parent_arrays(draw):
    """Random labelled rooted trees of up to 40 vertices: a random attachment
    order, relabelled by a random permutation so the root need not be
    vertex 0."""
    n = draw(st.integers(min_value=1, max_value=40))
    attach = [-1] + [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    perm = draw(st.permutations(range(n)))
    parent = [0] * n
    for i, p in enumerate(attach):
        parent[perm[i]] = -1 if p == -1 else perm[p]
    return RootedTree(parent)


def profiles_by_index(n: int) -> list[tuple[int, ...]]:
    """Every level profile of order ``n`` as a tuple at its profile index,
    one bit at a time, the oracle of ``trees.profile_stacks``: bit i of the
    index cuts the composition of n - 1 after its (i+1)-th unit."""
    if n == 1:
        return [(1,)]
    out = []
    for cuts in range(1 << (n - 2)):
        parts, run = [1], 1
        for bit in range(n - 2):
            if cuts >> bit & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        out.append((*parts, run))
    return out


def leaf_levels(seq) -> set[int]:
    """The levels that hold a leaf of the tree with canonical level sequence
    ``seq``, from the walk's leaf-level bits."""
    from levelspectra.verify import _leaf_bits

    bits = int(_leaf_bits(np.array([seq]), np.dtype(np.uint64))[0])
    return {level for level in range(len(seq)) if bits >> level & 1}
