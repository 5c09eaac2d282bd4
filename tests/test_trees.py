import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from levelspectra.trees import (
    RootedTree,
    canonical_level_sequence,
    canonicalize,
    complete_dary,
    delete_leaf,
    enumerate_rooted_trees,
    first_level_sequence,
    format_tree,
    from_parent_list,
    has_one_tree,
    is_rooted_path,
    is_rooted_star,
    level_sequences,
    levels,
    parse_tree,
    profile_counts,
    profile_index,
    profile_stacks,
    rooted_path,
    rooted_star,
    rooted_tree_count,
    star_rooted_at_leaf,
    to_dot,
)
from levelspectra.errors import (
    CannotDeleteRoot,
    CycleDetected,
    IndexOutOfRange,
    InvalidOrder,
    MultipleRoots,
    NoRoot,
    NotALeaf,
    ParseError,
    ResourceLimit,
)
from levelspectra import trees as trees_mod
from levelspectra.trees import tree_from_level_sequence

from conftest import parent_arrays, profiles_by_index

# counts of non-isomorphic rooted trees per order, frozen from the
# divisor-sum recurrence (independently implemented in rooted_tree_count)
ROOTED_TREE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20, 7: 48, 8: 115,
                      9: 286, 10: 719}


class TestConstruction:
    def test_single_vertex(self):
        t = from_parent_list([0])
        assert t.n == 1
        assert t.root == 0

    def test_two_children(self):
        t = from_parent_list([0, 1, 1])
        assert levels(t).tolist() == [0, 1, 1]

    def test_self_loop_is_cycle(self):
        with pytest.raises(CycleDetected):
            from_parent_list([0, 1, 3, 2, 1])

    def test_longer_cycle(self):
        with pytest.raises(CycleDetected):
            from_parent_list([0, 3, 2, 4, 3])

    def test_cycle_error_names_a_vertex_on_the_cycle(self):
        # vertex 1 hangs off the cycle 2 -> 3 -> 2 without being on it
        with pytest.raises(CycleDetected, match=r"vertex [23]$"):
            RootedTree([-1, 2, 3, 2])

    def test_deep_path_builds(self):
        n = 100_000
        tree = RootedTree([-1] + list(range(n - 1)))
        assert tree.n == n and tree.leaves() == [n - 1]

    def test_multiple_roots(self):
        with pytest.raises(MultipleRoots) as exc:
            from_parent_list([0, 0, 1])
        assert exc.value.vertices == [0, 1]

    def test_no_root(self):
        with pytest.raises(NoRoot):
            from_parent_list([2, 1])
        with pytest.raises(NoRoot):
            from_parent_list([])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange) as exc:
            from_parent_list([0, 5, 1])
        assert exc.value.vertex == 1

    def test_zero_based_input(self):
        t = RootedTree([-1, 0, 0])
        assert levels(t).tolist() == [0, 1, 1]

    @pytest.mark.parametrize("build, parents", [
        (RootedTree, [-1, 0, 0]), (RootedTree, np.array([-1, 0, 0])),
        (RootedTree, ("-1", "0", "0")), (RootedTree, [-1.0, 0.0, 0.0]),
        (from_parent_list, [0, 1, 1]), (from_parent_list, np.array([0, 1, 1], np.int16)),
        (from_parent_list, ["0", " 1", "1"]), (from_parent_list, iter([0, 1, 1])),
    ])
    def test_parent_entries_become_python_ints(self, build, parents):
        """Both constructors take any entries ``int`` takes, and keep
        Python ints."""
        tree = build(parents)
        assert tree == RootedTree([-1, 0, 0])
        assert all(type(p) is int for p in tree.parent)

    @pytest.mark.parametrize("parents, error, message", [
        ([], NoRoot, "empty parent array"),
        ([2, 1], NoRoot, "no root sentinel in parent array"),
        ([0, 0, 1], MultipleRoots, r"vertices \[0, 1\] all have no parent"),
        ([0, 5, 1], IndexOutOfRange, r"parent\[1\] = 4 is not a vertex index"),
        ([0, 3, 2], CycleDetected, "parent pointers cycle through vertex [12]"),
    ])
    def test_construction_error_messages(self, parents, error, message):
        """The same messages from the 1-based and the 0-based constructor."""
        for build, entries in ((from_parent_list, parents),
                               (RootedTree, [p - 1 for p in parents])):
            with pytest.raises(error, match=f"^{message}$"):
                build(entries)


class TestLevels:
    def test_sample9(self, sample9):
        assert levels(sample9).tolist() == [0, 1, 2, 3, 2, 1, 2, 3, 3]

    def test_path(self):
        assert levels(rooted_path(4)).tolist() == [0, 1, 2, 3]

    def test_star(self):
        assert levels(rooted_star(5)).tolist() == [0, 1, 1, 1, 1]

    def test_levels_follow_parents(self):
        for tree in enumerate_rooted_trees(7):
            lev = levels(tree)
            for i, p in enumerate(tree.parent):
                if i != tree.root:
                    assert lev[i] == lev[p] + 1


class TestFamilies:
    def test_star_rooted_at_leaf(self):
        assert levels(star_rooted_at_leaf(4)).tolist() == [0, 1, 2, 2]
        # order 3 degenerates to the path on 3 vertices
        assert is_rooted_path(star_rooted_at_leaf(3))

    def test_star_rooted_at_leaf_too_small(self):
        with pytest.raises(InvalidOrder):
            star_rooted_at_leaf(2)

    def test_complete_binary_height2(self):
        t = complete_dary(2, 2)
        assert t.n == 7
        assert sorted(levels(t).tolist()) == [0, 1, 1, 2, 2, 2, 2]

    def test_complete_dary_sizes(self):
        for d, h in [(1, 4), (2, 3), (3, 2)]:
            t = complete_dary(d, h)
            expected = h + 1 if d == 1 else (d ** (h + 1) - 1) // (d - 1)
            assert t.n == expected

    def test_unary_is_path(self):
        assert canonical_level_sequence(complete_dary(1, 5)) == \
            canonical_level_sequence(rooted_path(6))

    def test_invalid_orders(self):
        with pytest.raises(InvalidOrder):
            rooted_path(0)
        with pytest.raises(InvalidOrder):
            rooted_star(-1)
        with pytest.raises(InvalidOrder):
            complete_dary(0, 2)
        with pytest.raises(InvalidOrder):
            complete_dary(2, -1)


def _labeled_tree_classes(n):
    """Brute-force oracle: distinct canonical forms over all labeled rooted
    trees with root 0 (acyclic parent arrays)."""
    seen = set()
    for parents in itertools.product(range(n), repeat=n - 1):
        arr = [-1] + list(parents)
        try:
            tree = RootedTree(arr)
        except CycleDetected:
            continue
        seen.add(canonical_level_sequence(tree))
    return seen


class TestEnumeration:
    @pytest.mark.parametrize("n,count", sorted(ROOTED_TREE_COUNTS.items()))
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_rooted_trees(n)) == count

    @pytest.mark.parametrize("n", range(1, 11))
    def test_counting_recurrence_agrees(self, n):
        assert rooted_tree_count(n) == ROOTED_TREE_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_labeled_oracle(self, n):
        enumerated = {canonical_level_sequence(t) for t in enumerate_rooted_trees(n)}
        assert enumerated == _labeled_tree_classes(n)

    def test_labeled_oracle_order7(self):
        enumerated = {canonical_level_sequence(t) for t in enumerate_rooted_trees(7)}
        assert enumerated == _labeled_tree_classes(7)

    def test_canonical_idempotence(self):
        for n in range(1, 9):
            for tree in enumerate_rooted_trees(n):
                assert canonicalize(tree) == tree

    def test_invariants(self):
        for tree in enumerate_rooted_trees(8):
            assert tree.n == 8
            assert sum(1 for p in tree.parent if p == -1) == 1
            assert sum(1 for p in tree.parent if p != -1) == 7

    def test_extremal_level_sequences(self):
        for n in range(2, 9):
            seqs = [canonical_level_sequence(t) for t in enumerate_rooted_trees(n)]
            # the enumerator runs from the path down to the star
            assert seqs[0] == tuple(range(n))
            assert seqs[-1] == (0,) + (1,) * (n - 1)
            assert seqs == sorted(seqs, reverse=True)

    def test_cap(self, monkeypatch):
        monkeypatch.delenv("LEVEL_SPECTRA_CAP", raising=False)
        with pytest.raises(ResourceLimit):
            list(enumerate_rooted_trees(17))
        # LEVEL_SPECTRA_CAP raises the default
        monkeypatch.setenv("LEVEL_SPECTRA_CAP", "17")
        gen = enumerate_rooted_trees(17)
        assert next(gen) is not None

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("LEVEL_SPECTRA_CAP", "4")
        with pytest.raises(ResourceLimit):
            list(enumerate_rooted_trees(5))
        assert sum(1 for _ in enumerate_rooted_trees(4)) == 4

    def test_bad_level_sequences(self):
        with pytest.raises(InvalidOrder):
            tree_from_level_sequence([1, 2])
        with pytest.raises(InvalidOrder):
            tree_from_level_sequence([0, 2])


def _relabelled(parent, rng) -> RootedTree:
    """The tree of a 0-based parent array with its vertices renamed by a
    random permutation, so the root may be any vertex."""
    perm = list(range(len(parent)))
    rng.shuffle(perm)
    out = [0] * len(parent)
    for i, p in enumerate(parent):
        out[perm[i]] = -1 if p == -1 else perm[p]
    return RootedTree(out)


def _random_parent_array(n, rng) -> list[int]:
    """Each vertex attached to an earlier one: anywhere (shallow trees) or
    among the last few (deep ones)."""
    reach = rng.choice([None, 3])
    return [-1] + [rng.randrange(i) if reach is None else max(0, i - rng.randint(1, reach))
                   for i in range(1, n)]


def _bfs_levels(tree) -> list[int]:
    """Levels from a breadth-first search over child lists built here."""
    kids = [[] for _ in range(tree.n)]
    for v, p in enumerate(tree.parent):
        if p != -1:
            kids[p].append(v)
    lev = [0] * tree.n
    queue = [tree.root]
    for v in queue:
        for c in kids[v]:
            lev[c] = lev[v] + 1
            queue.append(c)
    return lev


class TestCanonicalForm:
    """The canonical form of relabelled and large trees; the labelled
    oracle above reaches order 7 only."""

    def test_relabelled_trees_give_their_sequence_back(self):
        rng = random.Random(29)
        for n in range(1, 12):
            for seq in level_sequences(n):
                tree = _relabelled(tree_from_level_sequence(seq).parent, rng)
                assert canonical_level_sequence(tree) == seq

    def test_random_trees(self):
        rng = random.Random(2000)
        for _ in range(60):
            parent = _random_parent_array(rng.randint(1, 2000), rng)
            tree, twin = _relabelled(parent, rng), _relabelled(parent, rng)
            assert canonical_level_sequence(tree) == canonical_level_sequence(twin)
            canon = canonicalize(tree)
            assert canonicalize(canon) == canon == canonicalize(twin)
            assert levels(tree).tolist() == _bfs_levels(tree)
            assert levels(twin).tolist() == _bfs_levels(twin)

    def test_large_path_and_star(self):
        n = 200_000
        assert canonical_level_sequence(rooted_path(n)) == tuple(range(n))
        assert canonical_level_sequence(rooted_star(n)) == (0,) + (1,) * (n - 1)


class TestProfileStacks:
    @pytest.mark.parametrize("stack_size", [3, trees_mod.STACK_SIZE])
    def test_stacks_enumerate_the_bit_loop(self, monkeypatch, stack_size):
        """Each profile of the bit loop once, at its index, in index order:
        each stack's indices are one arange, the stacks follow on, and
        every stack is full but the last, whatever the heights. Each row is
        zero-padded to its stack's tallest, and profile_index takes each
        stack back to its indices."""
        monkeypatch.setattr(trees_mod, "STACK_SIZE", stack_size)
        for n in range(1, 15):
            rows, sizes = [], []
            for index, counts in profile_stacks(n):
                assert index.dtype == counts.dtype == np.int64
                assert index.tolist() == list(range(len(rows), len(rows) + len(index)))
                assert counts.shape[0] == len(index)
                heights = (counts > 0).sum(axis=1) - 1
                assert counts.shape[1] == heights.max() + 1
                assert (counts[np.arange(counts.shape[1]) > heights[:, None]] == 0).all()
                assert profile_index(counts).tolist() == index.tolist()
                sizes.append(len(index))
                rows += [tuple(row[:h + 1]) for row, h in zip(counts.tolist(), heights)]
            assert sizes[:-1] == [stack_size] * (len(sizes) - 1)
            assert 1 <= sizes[-1] <= stack_size
            assert rows == profiles_by_index(n), n

    def test_first_stack_allocates_no_table_of_every_profile(self):
        """A stack is decoded from its own indices: the first of order 24's
        2**22 profiles allocates well under one (P,) int64 table (32 MiB)."""
        tracemalloc.start()
        try:
            next(profile_stacks(24))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, peak

    def test_stack_counts(self):
        """Order 9's 128 profiles and order 12's 2**10 come in one stack
        each, and order 16's 2**14 in 16."""
        assert [sum(1 for _ in profile_stacks(n)) for n in (9, 12, 16)] == [1, 1, 16]

    def test_order_below_one(self):
        with pytest.raises(InvalidOrder):
            next(profile_stacks(0))


def _trees_by_profile(n):
    """Each level profile of order ``n``, as a tuple, with its trees'
    level sequences in walk order."""
    trees = {}
    for seq in level_sequences(n):
        trees.setdefault(tuple(np.bincount(seq).tolist()), []).append(seq)
    return trees


class TestProfileClosedForms:
    """What ``extremal`` reads off a profile instead of walking its trees."""

    def test_decoder_inverts_profile_index(self):
        """profile_counts decodes any array of indices, in any order, each
        row zero-padded to the tallest; profile_index takes it back."""
        rng = np.random.default_rng(7)
        for n in range(1, 17):
            profiles = profiles_by_index(n)
            for index in (np.arange(len(profiles)), rng.permutation(len(profiles))[:50],
                          np.array([len(profiles) - 1])):
                counts = profile_counts(n, index)
                assert counts.dtype == np.int64
                assert counts.shape == (len(index), max(len(profiles[i]) for i in index))
                assert [tuple(c for c in row if c) for row in counts.tolist()] == \
                    [profiles[i] for i in index.tolist()], (n, index)
                assert profile_index(counts).tolist() == index.tolist()

    @pytest.mark.parametrize("n", range(1, 15))
    def test_first_sequence_is_the_walks_first_tree(self, n):
        trees = _trees_by_profile(n)
        assert len(trees) == 2 ** max(n - 2, 0)
        for profile, seqs in trees.items():
            for padded in (profile, profile + (0, 0)):  # trailing zeros ignored
                assert tuple(first_level_sequence(np.array(padded)).tolist()) == seqs[0], padded

    @pytest.mark.parametrize("n", range(1, 15))
    def test_one_tree_test_counts_the_walk(self, n):
        trees = _trees_by_profile(n)
        for padded in ((), (0, 0)):  # trailing zeros ignored
            assert [has_one_tree(np.array(profile + padded)) for profile in trees] == \
                [len(seqs) == 1 for seqs in trees.values()]


class TestStructuralPredicates:
    def test_lmax_characterisations(self):
        for n in range(2, 8):
            for tree in enumerate_rooted_trees(n):
                lmax = int(levels(tree).max())
                assert (lmax == n - 1) == is_rooted_path(tree)
                assert (lmax == 1) == is_rooted_star(tree)

    def test_single_vertex_is_both(self):
        t = rooted_path(1)
        assert is_rooted_path(t)
        assert is_rooted_star(t)


class TestDeleteLeaf:
    def test_path_minus_deep_leaf(self):
        t = delete_leaf(rooted_path(3), 2)
        assert canonical_level_sequence(t) == (0, 1)

    def test_star_minus_any_leaf(self):
        for leaf in range(1, 5):
            t = delete_leaf(rooted_star(5), leaf)
            assert canonical_level_sequence(t) == (0, 1, 1, 1)

    def test_sample9_minus_v4(self, sample9):
        t = delete_leaf(sample9, 3)
        assert sorted(levels(t).tolist()) == [0, 1, 1, 2, 2, 2, 3, 3]

    def test_levels_preserved(self):
        for tree in enumerate_rooted_trees(7):
            lev = levels(tree)
            for leaf in tree.leaves():
                sub = delete_leaf(tree, leaf)
                survivors = [lev[i] for i in range(tree.n) if i != leaf]
                assert levels(sub).tolist() == survivors

    def test_rejects_root(self):
        with pytest.raises(CannotDeleteRoot):
            delete_leaf(rooted_path(3), 0)

    def test_rejects_internal(self):
        with pytest.raises(NotALeaf):
            delete_leaf(rooted_path(3), 1)

    def test_rejects_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            delete_leaf(rooted_path(3), 7)


class TestTextFormats:
    def test_roundtrip(self, sample9):
        assert parse_tree(format_tree(sample9)) == sample9

    @settings(max_examples=60, deadline=None)
    @given(parent_arrays())
    def test_random_parent_arrays_roundtrip(self, tree):
        text = format_tree(tree)
        parsed = parse_tree(text)
        assert parsed == tree
        assert format_tree(parsed) == text

    @settings(max_examples=60, deadline=None)
    @given(parent_arrays())
    def test_canonical_form_survives_the_file_format(self, tree):
        canon = canonicalize(tree)
        parsed = parse_tree(format_tree(canon))
        assert parsed == canon
        assert canonical_level_sequence(parsed) == canonical_level_sequence(tree)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_tree("")
        with pytest.raises(ParseError):
            parse_tree("x\n0\n")
        with pytest.raises(ParseError):
            parse_tree("2\n0\n")
        err = None
        try:
            parse_tree("3\n0 1 zz\n")
        except ParseError as exc:
            err = exc
        assert err is not None and err.line == 2 and err.column == 3

    def test_lines_break_at_newlines_and_fields_part_at_blanks(self):
        """"\\r\\n" and "\\r" end a line as "\\n" does; the other breaks of
        ``str.splitlines`` and the other blanks of ``str.split`` are no
        separators, so they leave line 2 one entry short."""
        star = parse_tree("3\n0 1 1\n")
        for text in ("3\r\n0 1 1\r\n", "3\r0 1 1\r", "3\n\t0 1\t1 \n \n\n"):
            assert parse_tree(text) == star
        for blank in ("\f", "\v", "\x1c", "\x85", "\u2028", "\xa0", "\u2003"):
            with pytest.raises(ParseError) as caught:
                parse_tree(f"3\n0 1{blank}1\n")
            assert caught.value.line == 2

    def test_parse_rejects_cycles(self):
        with pytest.raises(ParseError):
            parse_tree("3\n0 3 2\n")

    def test_dot_export(self, sample9):
        dot = to_dot(sample9)
        assert dot.startswith("digraph")
        assert "(root)" in dot
        assert dot.count("->") == sample9.n - 1
