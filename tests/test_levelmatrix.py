import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from levelspectra.levelmatrix import (
    build_level_matrix,
    distance_matrix,
    matrix_text,
    row_sum_difference,
)
from levelspectra.spectra import SpectralData, solve_profiles
from levelspectra.trees import (
    enumerate_rooted_trees,
    is_rooted_path,
    level_sequences,
    levels,
    profile_stacks,
    rooted_path,
    rooted_star,
    tree_from_level_sequence,
)
from levelspectra.verify import _distance_domination, _row_sum_difference

from conftest import SAMPLE9_H, SAMPLE9_LI, SAMPLE9_MATRIX, SAMPLE9_ROW_SUMS


class TestBuild:
    def test_sample9_matrix(self, sample9):
        m = build_level_matrix(sample9)
        assert np.array_equal(m.entries, SAMPLE9_MATRIX)

    def test_single_vertex(self):
        m = build_level_matrix(rooted_path(1))
        assert m.entries.shape == (1, 1)
        assert m.entries[0, 0] == 0

    def test_star_is_adjacency_pattern(self):
        m = build_level_matrix(rooted_star(6))
        expected = np.zeros((6, 6), dtype=np.int64)
        expected[0, 1:] = 1
        expected[1:, 0] = 1
        assert np.array_equal(m.entries, expected)

    def test_symmetry_zero_diagonal(self):
        for tree in enumerate_rooted_trees(7):
            m = build_level_matrix(tree)
            assert np.array_equal(m.entries, m.entries.T)
            assert np.all(np.diag(m.entries) == 0)
            assert m.entries.max() == int(levels(tree).max())

    def test_entries_read_only(self, sample9):
        m = build_level_matrix(sample9)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5


class TestAggregates:
    def test_level_index_sample9(self, sample9):
        assert build_level_matrix(sample9).level_index == SAMPLE9_LI

    def test_level_index_star(self):
        for n in (2, 5, 9):
            assert build_level_matrix(rooted_star(n)).level_index == n - 1

    def test_level_index_p3(self):
        # |0-1| + |0-2| + |1-2| = 4
        assert build_level_matrix(rooted_path(3)).level_index == 4

    def test_h_sample9(self, sample9):
        assert build_level_matrix(sample9).h_value == SAMPLE9_H

    def test_h_star(self):
        for n in (2, 5, 9):
            assert build_level_matrix(rooted_star(n)).h_value == 2 * (n - 1)

    def test_h_p2(self):
        assert build_level_matrix(rooted_path(2)).h_value == 2

    def test_row_sums_sample9(self, sample9):
        m = build_level_matrix(sample9)
        assert m.row_sums.tolist() == SAMPLE9_ROW_SUMS

    def test_row_sums_basics(self):
        assert build_level_matrix(rooted_star(7)).row_sums[0] == 6
        assert build_level_matrix(rooted_path(3)).row_sums[0] == 3

    def test_row_sums_vs_level_index(self):
        for n in range(1, 8):
            for tree in enumerate_rooted_trees(n):
                m = build_level_matrix(tree)
                assert int(m.row_sums.sum()) == 2 * m.level_index

    def test_second_order_identity(self):
        for n in range(1, 8):
            for tree in enumerate_rooted_trees(n):
                m = build_level_matrix(tree)
                q = m.entries @ m.row_sums  # row sums of the squared matrix
                assert int(q.sum()) == int((m.row_sums.astype(np.int64) ** 2).sum())


class TestDistanceMatrix:
    def test_path_distance_equals_level(self):
        for n in (2, 5, 9):
            t = rooted_path(n)
            d = distance_matrix(t)
            idx = np.arange(n)
            assert np.array_equal(d, np.abs(idx[:, None] - idx[None, :]))
            assert np.array_equal(d, build_level_matrix(t).entries)

    def test_star_leaves(self):
        t = rooted_star(3)
        d = distance_matrix(t)
        m = build_level_matrix(t)
        assert d[1, 2] == 2
        assert m.entries[1, 2] == 0

    def test_sample9_pair(self, sample9):
        d = distance_matrix(sample9)
        m = build_level_matrix(sample9)
        assert d[3, 4] == 3
        assert m.entries[3, 4] == 1

    def test_domination_and_path_equality(self):
        for n in range(1, 8):
            for tree in enumerate_rooted_trees(n):
                m = build_level_matrix(tree)
                d = distance_matrix(tree)
                assert np.all(m.entries <= d)
                assert np.array_equal(m.entries, d) == is_rooted_path(tree)


class TestRowSumDifference:
    def test_p3_hand_values(self):
        # levels sorted non-increasing: (2, 1, 0)
        assert row_sum_difference([2, 1, 0], 1, 3) == 0

    def test_adjacent_indices(self):
        # empty middle sum: L_{k-1} - L_k = (n-2k+2)(l_{k-1} - l_k)
        lev = [3, 2, 2, 1, 0]
        n = len(lev)
        for k in range(2, n + 1):
            expected = (n - 2 * k + 2) * (lev[k - 2] - lev[k - 1])
            assert row_sum_difference(lev, k - 1, k) == expected

    def test_equal_levels_give_zero(self):
        assert row_sum_difference([2, 2, 2, 2], 1, 4) == 0

    def test_matches_direct_row_sums(self):
        for n in range(2, 8):
            for tree in enumerate_rooted_trees(n):
                lev = sorted((int(v) for v in levels(tree)), reverse=True)
                arr = np.array(lev, dtype=np.int64)
                sums = np.abs(arr[:, None] - arr[None, :]).sum(axis=1)
                for i in range(1, n + 1):
                    for k in range(i + 1, n + 1):
                        assert row_sum_difference(lev, i, k) == int(sums[i - 1] - sums[k - 1])

    def test_index_errors(self):
        with pytest.raises(IndexError):
            row_sum_difference([2, 1, 0], 2, 2)
        with pytest.raises(IndexError):
            row_sum_difference([2, 1, 0], 0, 2)
        with pytest.raises(IndexError):
            row_sum_difference([0, 1, 2], 1, 2)  # not sorted non-increasing


class TestIrreducibility:
    def test_all_small_trees(self):
        # every other vertex lies below the root, so the weighted graph on
        # the nonzero entries is connected through the root
        for n in range(2, 8):
            for tree in enumerate_rooted_trees(n):
                m = build_level_matrix(tree)
                assert np.all(m.entries[tree.root, np.arange(n) != tree.root] > 0)


class TestExport:
    def test_matrix_text_sample9(self, sample9):
        text = matrix_text(build_level_matrix(sample9))
        lines = text.strip().splitlines()
        assert lines[0] == "9"
        assert lines[1] == "0 1 2 3 2 1 2 3 3"
        assert len(lines) == 10
        parsed = np.array([[int(x) for x in row.split()] for row in lines[1:]])
        assert np.array_equal(parsed, SAMPLE9_MATRIX)


def _all_pairs_verdicts(data: SpectralData) -> list[bool]:
    """Each member's ``row-sum-difference`` verdict by the scalar closed
    form on every pair i < k of its non-increasing levels, against the
    stack's ``level_row_sums``."""
    verdicts = []
    for counts, row_sums in zip(data.counts.tolist(), data.level_row_sums.tolist()):
        lev = [a for a in reversed(range(len(counts))) for _ in range(counts[a])]
        sums = [row_sums[a] for a in lev]
        verdicts.append(all(row_sum_difference(lev, i, k) == sums[i - 1] - sums[k - 1]
                            for i in range(1, len(lev) + 1) for k in range(i + 1, len(lev) + 1)))
    return verdicts


def _consecutive_pairs_verdicts(data: SpectralData) -> np.ndarray:
    """Each member's ``row-sum-difference`` verdict by the closed form on
    its n - 1 consecutive pairs, (k, n - 1) arrays: the oracle of the
    check's reduction from these pairs to the level boundaries."""
    k, n = len(data.counts), data.n
    ascending = np.repeat(np.tile(np.arange(data.counts.shape[1]), k), data.counts.ravel())
    lev = ascending.reshape(k, n)[:, ::-1]
    sums = np.take_along_axis(data.level_row_sums, lev, axis=1)
    closed = (n - 2 * np.arange(1, n)) * (lev[:, :-1] - lev[:, 1:])
    return (closed == sums[:, :-1] - sums[:, 1:]).all(axis=1)


class TestRowSumDifferences:
    """The ``row-sum-difference`` check reads only the level boundaries,
    where the closed form telescopes to all pairs: its verdicts must be
    those of the consecutive pairs and of the scalar closed form on every
    pair."""

    @pytest.mark.parametrize("order", range(1, 14))
    def test_matches_scalar_closed_form(self, order):
        """Every profile of the order (order 1 has no pair), as solved and
        with its row sums perturbed: one level's shifted in some members,
        every level's by the same amount, which keeps every difference, in
        others."""
        rng = np.random.default_rng(order)
        failing = 0
        for _, counts in profile_stacks(order):
            data = solve_profiles(counts)
            ok, _ = _row_sum_difference(data, 1e-8)
            assert ok.tolist() == _all_pairs_verdicts(data) == [True] * len(counts)
            assert ok.tolist() == _consecutive_pairs_verdicts(data).tolist()

            sums = data.level_row_sums.copy()
            k, width = sums.shape
            shift = rng.choice([-2, -1, 1, 2], k)
            one_level = rng.random(k) < 0.6
            level = rng.integers(0, data.heights + 1)
            sums[one_level, level[one_level]] += shift[one_level]
            every_level = ~one_level & (rng.random(k) < 0.5)
            sums[every_level] += shift[every_level, None]
            perturbed = SpectralData(data.counts, data.values, data.rho, data.energy,
                                     data.nullity)
            perturbed.__dict__["level_row_sums"] = sums  # seed the cached property
            ok, _ = _row_sum_difference(perturbed, 1e-8)
            assert ok.tolist() == _all_pairs_verdicts(perturbed)
            assert ok.tolist() == _consecutive_pairs_verdicts(perturbed).tolist()
            failing += int((~ok).sum())
        assert failing > 0 if order >= 2 else failing == 0


def _lca_rule_distances(row) -> list[list[int]]:
    """The path distances that the lca rule gives any integer row: for
    u < v, d(u, v) = l_u + l_v - 2 * (low - 1), low the least of
    l_(u+1), ..., l_v (lca(u, v) is one level above it in preorder)."""
    n = len(row)
    dist = [[0] * n for _ in range(n)]
    for u in range(n):
        low = math.inf
        for v in range(u + 1, n):
            low = min(low, row[v])
            dist[u][v] = dist[v][u] = row[u] + row[v] - 2 * (low - 1)
    return dist


def _all_pairs_domination(levels) -> list[bool]:
    """Each row's ``distance-domination`` verdict on every pair, with the
    distances of the lca rule: |l_u - l_v| <= d(u, v) everywhere, and
    equality everywhere iff the row's largest level is n - 1."""
    verdicts = []
    for row in np.asarray(levels).tolist():
        n = len(row)
        pairs = [(abs(row[u] - row[v]), d) for u, dists in enumerate(_lca_rule_distances(row))
                 for v, d in enumerate(dists)]
        verdicts.append(all(entry <= d for entry, d in pairs)
                        and all(entry == d for entry, d in pairs) == (max(row) == n - 1))
    return verdicts


def _per_tree_verdict(seq) -> bool:
    """The verdict on the tree's own distance matrix from the LCA walk."""
    tree = tree_from_level_sequence(seq)
    entries = build_level_matrix(tree).entries
    dist = distance_matrix(tree)
    return bool((entries <= dist).all()) and np.array_equal(entries, dist) == is_rooted_path(tree)


class TestOrderedDistanceMatrix:
    """``distance-domination`` reads only the consecutive pairs of a level
    sequence: its verdicts must be those of every pair, with the distances
    of the lca rule on any integer rows and of the LCA walk on trees."""

    @pytest.mark.parametrize("order", range(1, 10))
    def test_matches_lca_walk(self, order):
        """The lca rule, the reference of the all-pairs verdict, gives every
        tree of the order its distance matrix."""
        for tree in enumerate_rooted_trees(order):
            assert np.array_equal(_lca_rule_distances(levels(tree).tolist()),
                                  distance_matrix(tree))

    @pytest.mark.parametrize("order", range(1, 11))
    def test_batch_matches_lca_walk(self, order):
        """Every tree of the order as one (B, n) batch, and every sequence
        with one level moved up or down by one, most of which are no tree."""
        seqs = np.array(list(level_sequences(order)))
        moved = [seqs]
        for position in range(order):
            for shift in (-1, 1):
                rows = seqs.copy()
                rows[:, position] += shift
                moved.append(rows)
        batch = np.concatenate(moved)
        ok = _distance_domination(batch)
        assert ok.tolist() == _all_pairs_domination(batch)
        assert ok[:len(seqs)].all() and not ok.all()

    @given(st.data())
    def test_batch_of_random_sequences(self, data):
        """DFS level sequences of one length up to 30, canonical or not:
        each tree's verdict on its own distance matrix."""
        n = data.draw(st.integers(min_value=1, max_value=30))
        seqs = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
            seq = [0]
            for _ in range(n - 1):
                seq.append(data.draw(st.integers(min_value=1, max_value=seq[-1] + 1)))
            seqs.append(seq)
        assert _distance_domination(np.array(seqs)).tolist() == list(map(_per_tree_verdict, seqs))

    @example(np.array([[0, 2]]))  # fails on its last pair only
    @example(np.array([[3, 1, 2, 3]]))  # dominated, largest level n - 1, not a path
    @example(np.array([[5, 6, 7], [0, 1, 2]]))  # steps of +1: only the second is a path
    @given(arrays(np.int64, array_shapes(min_dims=2, max_dims=2, max_side=12),
                  elements=st.integers(-4, 14)))
    def test_any_integer_rows(self, rows):
        """Any integer (B, n) array, level sequence or not."""
        assert _distance_domination(rows).tolist() == _all_pairs_domination(rows)
