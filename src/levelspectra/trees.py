"""Rooted trees: parent arrays that keep their levels, special families,
the canonical form in O(n log n), canonical enumeration, leaf deletion.

Vertices are indexed 0..n-1 internally; the root's parent is ``NO_PARENT``.
The external text format is 1-based with 0 marking the root, so a file
containing ``3`` / ``0 1 1`` is the 3-vertex star rooted at its centre.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import (
    CannotDeleteRoot,
    CycleDetected,
    IndexOutOfRange,
    InvalidCap,
    InvalidOrder,
    MultipleRoots,
    NoRoot,
    NotALeaf,
    ParseError,
    ResourceLimit,
)

NO_PARENT = -1

#: Enumerating beyond this order is refused unless ``LEVEL_SPECTRA_CAP`` raises
#: the cap.
DEFAULT_ENUMERATION_CAP = 16
CAP_ENV_VAR = "LEVEL_SPECTRA_CAP"


def enumeration_cap() -> int:
    """Current enumeration cap (``LEVEL_SPECTRA_CAP`` overrides the default)."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise InvalidCap(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise InvalidCap(f"{CAP_ENV_VAR} must be positive, got {cap}")
    return cap


class RootedTree:
    """Immutable rooted tree stored as a parent array.

    ``parent[i]`` is the parent index of vertex ``i``; exactly one vertex,
    the root, carries ``NO_PARENT``. Construction validates the whole
    structure, so every instance is a genuine rooted tree, and keeps its levels.
    """

    __slots__ = ("_parent", "_root", "_level")

    def __init__(self, parent):
        self._build(tuple(int(p) for p in parent))

    def _build(self, parent: tuple[int, ...]) -> None:
        """Validate and keep a parent tuple of Python ints."""
        n = len(parent)
        if n == 0:
            raise NoRoot("empty parent array")
        roots = [i for i, p in enumerate(parent) if p == NO_PARENT]
        if not roots:
            raise NoRoot("no root sentinel in parent array")
        if len(roots) > 1:
            raise MultipleRoots(f"vertices {roots} all have no parent", roots)
        root = roots[0]
        kids: list[list[int]] = [[] for _ in range(n)]
        for i, p in enumerate(parent):
            if i == root:
                continue
            if not 0 <= p < n:
                raise IndexOutOfRange(f"parent[{i}] = {p} is not a vertex index", i)
            kids[p].append(i)
        # With one root and in-range parents, the array is a tree iff every
        # vertex is reachable from the root.
        reached = [root]
        for v in reached:
            reached.extend(kids[v])
        if len(reached) < n:
            # The parent of an unreached vertex is unreached too, so parent
            # pointers from one lead around a cycle within n steps.
            seen = set(reached)
            v = next(i for i in range(n) if i not in seen)
            for _ in range(n):
                v = parent[v]
            raise CycleDetected(f"parent pointers cycle through vertex {v}", v)
        level = [0] * n
        for v in reached[1:]:  # parent before child
            level[v] = level[parent[v]] + 1
        self._parent = parent
        self._root = root
        self._level = np.array(level, dtype=np.int64)

    @property
    def n(self) -> int:
        return len(self._parent)

    @property
    def parent(self) -> tuple[int, ...]:
        return self._parent

    @property
    def root(self) -> int:
        return self._root

    def children(self) -> list[list[int]]:
        """Child lists per vertex, in increasing index order."""
        kids: list[list[int]] = [[] for _ in range(self.n)]
        for i, p in enumerate(self._parent):
            if p != NO_PARENT:
                kids[p].append(i)
        return kids

    def leaves(self) -> list[int]:
        has_child = [False] * self.n
        for p in self._parent:
            if p != NO_PARENT:
                has_child[p] = True
        return [i for i in range(self.n) if not has_child[i]]

    def __eq__(self, other) -> bool:
        return isinstance(other, RootedTree) and self._parent == other._parent

    def __hash__(self) -> int:
        return hash(self._parent)

    def __repr__(self) -> str:
        return f"RootedTree(parent={list(self._parent)})"


def from_parent_list(parents) -> RootedTree:
    """Build a validated tree from an external parent array, numbered as in
    the file format: vertices 1..n, and 0 for the root's entry. (A 0-based
    array with ``NO_PARENT`` at the root is ``RootedTree(parents)``.)"""
    tree = RootedTree.__new__(RootedTree)
    tree._build(tuple(int(p) - 1 for p in parents))  # each entry converted once
    return tree


def levels(tree: RootedTree) -> np.ndarray:
    """Distance from the root to each vertex, recorded when the tree was built."""
    return tree._level.copy()


# ---------------------------------------------------------------------------
# special families
# ---------------------------------------------------------------------------

def rooted_path(n: int) -> RootedTree:
    """Path on n vertices rooted at an endvertex."""
    if n < 1:
        raise InvalidOrder(f"need n >= 1, got {n}")
    return RootedTree([NO_PARENT] + list(range(n - 1)))


def rooted_star(n: int) -> RootedTree:
    """Star on n vertices rooted at its centre (all non-roots at level 1)."""
    if n < 1:
        raise InvalidOrder(f"need n >= 1, got {n}")
    return RootedTree([NO_PARENT] + [0] * (n - 1))


def star_rooted_at_leaf(n: int) -> RootedTree:
    """Star on n vertices rooted at a non-central vertex.

    Levels are 0 (root), 1 (centre), and 2 for the remaining n-2 leaves.
    """
    if n < 3:
        raise InvalidOrder(f"need n >= 3, got {n}")
    return RootedTree([NO_PARENT, 0] + [1] * (n - 2))


def complete_dary(d: int, height: int) -> RootedTree:
    """Rooted tree where every vertex above the last level has d children."""
    if d < 1:
        raise InvalidOrder(f"need d >= 1, got {d}")
    if height < 0:
        raise InvalidOrder(f"need height >= 0, got {height}")
    n = sum(d ** k for k in range(height + 1))
    return RootedTree([NO_PARENT] + [(i - 1) // d for i in range(1, n)])  # breadth-first labels


# ---------------------------------------------------------------------------
# canonical form and enumeration
# ---------------------------------------------------------------------------

def canonical_level_sequence(tree: RootedTree) -> tuple[int, ...]:
    """Canonical encoding: the lexicographically largest DFS level sequence,
    every vertex's subtrees visited in non-increasing order of their own
    canonical sequences, so invariant under root-preserving isomorphism.

    In O(n log n), as in Aho, Hopcroft and Ullman (*The Design and Analysis
    of Computer Algorithms*, 1974, section 3.2): each level, deepest first,
    ranks its vertices by key, the tuple of their children's ranks in
    descending order (a vertex alone on its level keeps rank 0, with no
    key); one DFS then emits the levels, children in descending rank. Keys
    order sequences: by induction the ranks of level d + 1 do, and a
    level-d vertex's sequence is d, then its children's in descending
    order. At the first child where two keys differ, with sequences s < t,
    either s and t differ within, or s is a proper prefix of t and is
    followed by d + 1 (the next sibling) or by nothing, where t goes on with
    at least d + 2. A key that is a proper prefix of another is likewise a
    proper prefix of the other's sequence, and lower.
    """
    lev = tree._level
    kids = tree.children()
    by_level = np.argsort(lev, kind="stable")
    starts = np.concatenate([[0], np.cumsum(np.bincount(lev))])
    rank = [0] * tree.n
    for d in np.flatnonzero(np.diff(starts) > 1)[::-1].tolist():
        here = by_level[starts[d]:starts[d + 1]].tolist()
        keys = [tuple(sorted(map(rank.__getitem__, kids[v]), reverse=True)) for v in here]
        index = {key: i for i, key in enumerate(sorted(set(keys)))}
        for v, key in zip(here, keys):
            rank[v] = index[key]
    order, stack = [], [tree.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(sorted(kids[v], key=rank.__getitem__))  # the highest rank pops first
    return tuple(lev[order].tolist())


def level_sequence_parents(seq) -> list[int]:
    """Parent array of the tree whose DFS level sequence is ``seq``: the
    parent of each vertex is the nearest shallower vertex to its left."""
    seq = list(seq)
    if not seq or seq[0] != 0:
        raise InvalidOrder("level sequence must start at level 0")
    parent = [NO_PARENT]
    last_at_level = {0: 0}
    for i, lev in enumerate(seq[1:], start=1):
        if lev < 1 or lev > seq[i - 1] + 1:
            raise InvalidOrder(f"invalid level {lev} at position {i}")
        parent.append(last_at_level[lev - 1])
        last_at_level[lev] = i
    return parent


def tree_from_level_sequence(seq) -> RootedTree:
    """Tree whose DFS level sequence is ``seq``."""
    return RootedTree(level_sequence_parents(seq))


def canonicalize(tree: RootedTree) -> RootedTree:
    """Canonical representative of the tree's isomorphism class."""
    return tree_from_level_sequence(canonical_level_sequence(tree))


def level_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the canonical level sequence of every isomorphism class of
    rooted trees on ``n`` unlabeled vertices.

    The sequences come in decreasing lexicographic order, starting from the
    rooted path and ending at the rooted star. The successor rule (T. Beyer
    and S. M. Hedetniemi, "Constant time generation of rooted trees", SIAM
    J. Comput. 9, 1980) cuts at the last vertex p below level 1 and tiles
    the tail from p with copies of the block from p's parent q up to p. Both
    are found by scanning back from the end, which mostly stops at once.
    """
    check_enumeration_cap(n)
    seq = list(range(n))  # the rooted path
    while True:
        yield tuple(seq)
        p = n - 1
        while p > 0 and seq[p] <= 1:
            p -= 1
        if p == 0:
            return
        q = p - 1
        while seq[q] != seq[p] - 1:
            q -= 1
        seq[p:] = (seq[q:p] * ((n - p) // (p - q) + 1))[:n - p]


def check_enumeration_cap(n: int) -> None:
    """Refuse an order below 1, or above the :func:`enumeration_cap`,
    before any tree of it is enumerated."""
    if n < 1:
        raise InvalidOrder(f"need n >= 1, got {n}")
    cap = enumeration_cap()
    if n > cap:
        raise ResourceLimit(
            f"enumeration of order {n} exceeds the cap of {cap}; "
            f"raise it via {CAP_ENV_VAR}"
        )


#: Level profiles of one order per stack: at most this many, whatever their
#: heights, which bounds a stack's working arrays in the profile engine to a
#: few (STACK_SIZE, h+1, h+1) blocks. ``verify`` walks the trees in batches
#: of the same size.
STACK_SIZE = 1024


def profile_stacks(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield every level profile (n_0, ..., n_h) of a rooted tree on ``n``
    vertices: n_0 = 1 followed by a composition of n - 1, which some tree
    realises for any positive counts. Its profile index has bit i set where
    the composition is cut after its (i+1)-th unit, so there are 2**(n - 2)
    for n >= 2. They come in index order, in (index, counts) stacks of
    STACK_SIZE consecutive indices (the last may be shorter): the (k,) int64
    indices and their counts by :func:`profile_counts`, whatever their
    heights. :func:`profile_index` is the inverse."""
    if n < 1:
        raise InvalidOrder(f"need n >= 1, got {n}")
    size = 1 << max(n - 2, 0)
    for start in range(0, size, STACK_SIZE):
        index = np.arange(start, min(start + STACK_SIZE, size), dtype=np.int64)
        yield index, profile_counts(n, index)


def profile_index(counts) -> np.ndarray:
    """The profile index of each row of a (k, h+1) array of level counts,
    the inverse of :func:`profile_counts`, trailing zeros ignored: bit c - 1
    is set for each cumulative count c = n_1 + ... + n_a where level a + 1
    is not empty."""
    counts = np.asarray(counts, dtype=np.int64)
    cuts = np.cumsum(counts[:, 1:-1], axis=1)
    bits = np.where(counts[:, 2:] > 0, np.left_shift(1, cuts - 1), 0)
    return bits.sum(axis=1, dtype=np.int64)


def profile_counts(n: int, index) -> np.ndarray:
    """The one decoder of the profile index: the (k, H+1) int64 level counts
    of the profiles of order ``n`` at a (k,) array of indices, H their
    greatest height, each row zero after its deepest level. In level order,
    vertex j >= 1 lies on level 1 plus the number of bits 0..j-2 of its
    index set, the sum of bits 0..j of 4 * index + 2. :func:`profile_index`
    is the inverse."""
    index = np.asarray(index, dtype=np.int64)[:, None]
    level = np.cumsum((4 * index + 2) >> np.arange(n) & 1, axis=1)  # (k, n)
    width = int(level[:, -1].max()) + 1
    rows = width * np.arange(len(index))[:, None]
    counts = np.bincount((level + rows).ravel(), minlength=rows.size * width)
    return counts.reshape(-1, width).astype(np.int64, copy=False)


def first_level_sequence(counts: np.ndarray) -> np.ndarray:
    """The first tree of the level counts in :func:`level_sequences`,
    trailing zeros ignored: the path 0..h, then each level k's other n_k - 1
    vertices, deepest first. It is the largest valid sequence with these
    counts: entry j is at most j, as on the path, and the rest, fixed by the
    counts, is largest and valid non-increasing. So it is its tree's
    canonical sequence, that tree's largest."""
    h = np.count_nonzero(counts) - 1
    return np.concatenate([np.arange(h + 1), np.repeat(np.arange(h, 0, -1), counts[h:0:-1] - 1)])


def has_one_tree(counts: np.ndarray) -> bool:
    """Whether one rooted tree alone has the level counts, trailing zeros
    ignored: iff no levels k, k + 1 with k >= 1 both hold two or more
    vertices. Else level k + 1 under one level-k vertex, or split over two,
    leaves one or two of them with a child: two trees. If not, a level of
    two or more hangs from the one vertex above, and at most one of them has
    a child, the one below."""
    return not np.any((counts[1:-1] >= 2) & (counts[2:] >= 2))


def profile_ids(seqs: np.ndarray) -> np.ndarray:
    """(B, n) canonical level sequences -> each tree's profile index (see
    :func:`profile_stacks`). Below the root, the sorted levels spell the
    composition of n - 1, and bit i of the index is set where the (i+2)-th
    of them is deeper than the (i+1)-th."""
    below = np.sort(seqs[:, 1:], axis=1)
    rises = below[:, 1:] > below[:, :-1]
    return rises @ (1 << np.arange(rises.shape[1], dtype=np.int64))


def enumerate_rooted_trees(n: int) -> Iterator[RootedTree]:
    """Yield one canonical representative per isomorphism class of rooted
    trees on ``n`` unlabeled vertices: the trees of :func:`level_sequences`,
    in its order."""
    for seq in level_sequences(n):
        yield tree_from_level_sequence(seq)


@lru_cache(maxsize=None)
def rooted_tree_count(n: int) -> int:
    """Number of non-isomorphic rooted trees on n unlabeled vertices.

    Independent of the enumerator: uses the divisor-sum recurrence
    a(n+1) = (1/n) * sum_{k=1..n} (sum_{d|k} d*a(d)) * a(n-k+1).
    """
    if n < 1:
        raise InvalidOrder(f"need n >= 1, got {n}")
    if n == 1:
        return 1
    m = n - 1
    total = 0
    for k in range(1, m + 1):
        divsum = sum(d * rooted_tree_count(d) for d in range(1, k + 1) if k % d == 0)
        total += divsum * rooted_tree_count(m - k + 1)
    count, remainder = divmod(total, m)
    assert remainder == 0
    return count


# ---------------------------------------------------------------------------
# surgery
# ---------------------------------------------------------------------------

def delete_leaf(tree: RootedTree, v: int) -> RootedTree:
    """Remove leaf ``v``; surviving vertices keep their levels exactly."""
    if not 0 <= v < tree.n:
        raise IndexOutOfRange(f"vertex {v} out of range for n={tree.n}", v)
    if v == tree.root:
        raise CannotDeleteRoot("refusing to delete the root")
    if any(p == v for p in tree.parent):
        raise NotALeaf(f"vertex {v} has children")
    parent = []
    for i, p in enumerate(tree.parent):
        if i == v:
            continue
        parent.append(p - 1 if p > v else p)
    return RootedTree(parent)


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

def is_rooted_path(tree: RootedTree) -> bool:
    return int(tree._level.max()) == tree.n - 1


def is_rooted_star(tree: RootedTree) -> bool:
    return tree.n == 1 or int(tree._level.max()) == 1


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def _decimal(field: str) -> int:
    """``field`` as an ASCII decimal integer, "-" the only sign: not "+3",
    "1_0" or other scripts' digits, which ``int`` also takes."""
    digits = field.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        return int(field)
    raise ValueError(f"not a decimal integer: {field!r}")


def parse_tree(text: str) -> RootedTree:
    """Parse the tree file format: line 1 is n, line 2 the 1-based parent
    array with 0 marking the root, each entry an ASCII decimal integer;
    only blank lines may follow. Lines break only at "\\n", "\\r\\n" or
    "\\r", and fields are separated by spaces and tabs, which are all a
    blank line may hold: ``str.splitlines`` and ``str.split`` would also
    take form feeds and Unicode spaces. Errors name vertices 1..n, as the
    file does, quote entries as written, and give the column of an entry
    that is at fault by itself."""
    lines = [line.strip(" \t") for line in
             text.replace("\r\n", "\n").replace("\r", "\n").split("\n")]
    if not lines[0]:
        raise ParseError("empty input, expected vertex count", line=1)
    try:
        n = _decimal(lines[0])
    except ValueError:
        raise ParseError(f"expected vertex count, got {lines[0]!r}", line=1) from None
    if n < 1:
        raise ParseError(f"vertex count must be positive, got {n}", line=1)
    if len(lines) < 2 or not lines[1]:
        raise ParseError("missing parent array", line=2)
    after = next((i for i in range(2, len(lines)) if lines[i]), None)
    if after is not None:
        raise ParseError("unexpected content after the parent array", line=after + 1)
    line = lines[1].replace("\t", " ")
    fields = [field for field in line.split(" ") if field]
    if len(fields) != n:
        raise ParseError(f"expected {n} parent entries, got {len(fields)}", line=2)
    # All entries are checked at once, and one by one only to find the first
    # bad one: each is ASCII digits after at most one "-", so taking one "-"
    # off the front of each leaves digits alone, and none is a bare "-".
    digits = (" " + line).replace(" -", " ").replace(" ", "")
    if not (digits.isascii() and digits.isdigit()) or "-" in fields:
        for col, field in enumerate(fields, start=1):
            try:
                _decimal(field)
            except ValueError:
                raise ParseError(f"bad parent entry {field!r}", line=2, column=col) from None
    try:
        return from_parent_list(fields)  # each entry converted once, there
    except NoRoot as exc:
        raise ParseError("no vertex has parent 0; a tree has one root", line=2) from exc
    except MultipleRoots as exc:
        roots = ", ".join(str(v + 1) for v in exc.vertices)
        raise ParseError(f"vertices {roots} all have parent 0; a tree has one root",
                         line=2) from exc
    except IndexOutOfRange as exc:
        v = exc.vertex
        raise ParseError(f"parent entry {fields[v]!r} of vertex {v + 1} is not a vertex 1..{n}",
                         line=2, column=v + 1) from exc
    except CycleDetected as exc:
        cycle = [exc.vertex + 1]
        while (v := int(fields[cycle[-1] - 1])) != cycle[0]:
            cycle.append(v)
        raise ParseError("parent entries form a cycle: "
                         + " -> ".join(map(str, [*cycle, cycle[0]])),
                         line=2, column=cycle[0] if len(cycle) == 1 else None) from exc


def format_parents(parent) -> str:
    """The tree file of a 0-based parent array, ``NO_PARENT`` at the root,
    unchecked: ``format_parents(level_sequence_parents(seq))`` prints the
    tree of a level sequence without building it."""
    # 1-based, and the root's NO_PARENT (-1) becomes 0
    return f"{len(parent)}\n{' '.join(str(p + 1) for p in parent)}\n"


def format_tree(tree: RootedTree) -> str:
    """Inverse of :func:`parse_tree`."""
    return format_parents(tree.parent)


def to_dot(tree: RootedTree) -> str:
    """GraphViz digraph with edges parent -> child; the root is annotated."""
    lines = ["digraph rooted_tree {"]
    lines.append(f'  v{tree.root + 1} [label="v{tree.root + 1} (root)", shape=doublecircle];')
    for i in range(tree.n):
        if i != tree.root:
            lines.append(f'  v{i + 1} [label="v{i + 1}"];')
    for i, p in enumerate(tree.parent):
        if p != NO_PARENT:
            lines.append(f"  v{p + 1} -> v{i + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"
