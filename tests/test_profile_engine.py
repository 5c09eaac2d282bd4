"""The profile engine against the oracle paths.

The engine solves the (h+1)x(h+1) quotients of many level profiles at once
with LAPACK, and takes their nullity from one exact rank certificate per
height, on the path's distance matrix D_s. The in-repo QL solver and the
n x n Bareiss elimination stay as independent oracles: every tree of
orders 1..9 (plus random larger trees) and every profile of orders 1..12
must agree with them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelspectra import spectra as spectra_mod
from levelspectra import verify as verify_mod
from levelspectra.bounds import CHECKS
from levelspectra.eigen import symmetric_eigh
from levelspectra.errors import ResourceLimit
from levelspectra.levelmatrix import LevelMatrix, build_level_matrix
from levelspectra.spectra import (
    DEFAULT_CLUSTER_TOL,
    MAX_LEVELS,
    SpectralData,
    _cluster,
    _rank_certificate,
    clustered_multiplicity,
    exact_zero_multiplicity,
    level_profile,
    quotient_matrix,
    solve_profiles,
    symmetric_eigenvalues,
)
from levelspectra.trees import (
    STACK_SIZE,
    RootedTree,
    delete_leaf,
    enumerate_rooted_trees,
    level_sequences,
    levels,
    profile_counts,
    profile_index,
    profile_stacks,
    rooted_path,
    rooted_star,
)
from levelspectra.verify import _leaf_pairs, extremal_sweep, verify_order

from conftest import SAMPLE9_LEVELS, SAMPLE9_SPECTRUM, parent_arrays, profiles_by_index


def height_stacks(profiles):
    """The profiles grouped into stacks of one order and one height."""
    stacks = {}
    for profile in profiles:
        stacks.setdefault((sum(profile), len(profile)), []).append(profile)
    return list(stacks.values())


def solved_rows(profiles) -> list[tuple[SpectralData, int]]:
    """(stack, row) of each profile, in the order given: the engine's solve
    of its stack of one order and one height, and its row there."""
    out = {}
    for stack in height_stacks(profiles):
        data = solve_profiles(stack)
        out.update((profile, (data, i)) for i, profile in enumerate(stack))
    return [out[profile] for profile in profiles]


def assert_matches_oracle(tree: RootedTree) -> None:
    matrix = build_level_matrix(tree)
    dense = symmetric_eigenvalues(matrix)
    data = SpectralData.from_tree(tree)
    engine = data.spectrum()
    scale = max(1.0, dense.rho)
    assert engine.n == tree.n
    assert np.abs(engine.values - dense.values).max() <= 1e-12 * scale
    assert abs(engine.rho - dense.rho) <= 1e-12 * scale
    assert abs(engine.energy - dense.energy) <= 1e-12 * scale * tree.n
    assert [m for _, m in engine.clusters] == [m for _, m in dense.clusters]
    assert data.nullity.tolist() == [exact_zero_multiplicity(matrix)]


@pytest.mark.parametrize("order", range(1, 10))
def test_every_tree_matches_dense_oracle(order):
    for tree in enumerate_rooted_trees(order):
        assert_matches_oracle(tree)


@settings(max_examples=40, deadline=None)
@given(parent_arrays())
def test_random_trees_match_dense_oracle(tree):
    assert_matches_oracle(tree)


class TestProfiles:
    def test_sample9(self):
        assert level_profile(SAMPLE9_LEVELS) == (1, 2, 3, 3)
        data = solve_profiles([(1, 2, 3, 3)])
        assert np.allclose(data.values[0], SAMPLE9_SPECTRUM, atol=1e-6)
        assert data.nullity.tolist() == [5]

    def test_zeros_are_exact(self):
        values = solve_profiles([(1, 2, 3, 3)]).values[0]
        assert np.count_nonzero(values == 0.0) == 9 - 4

    def test_quotient_is_symmetric_blowup(self):
        s = quotient_matrix((1, 4))
        assert np.array_equal(s, [[0.0, 2.0], [2.0, 0.0]])

    def test_single_vertex(self):
        data = SpectralData.from_tree(rooted_path(1))
        assert data.values.tolist() == [[0.0]]
        assert data.nullity.tolist() == [1]

    def test_cached_once_per_profile(self):
        # Nothing is cached: a profile solved twice gives equal frozen values.
        first = solve_profiles([(1, 3, 2)])
        assert np.array_equal(solve_profiles([(1, 3, 2)]).values, first.values)
        assert not first.values.flags.writeable

    def test_trees_sharing_a_profile_share_values(self):
        a = SpectralData.from_tree(RootedTree([-1, 0, 1, 0, 3]))  # levels 0 1 2 1 2
        b = SpectralData.from_tree(RootedTree([-1, 0, 0, 1, 2]))  # levels 0 1 1 2 2
        assert a.counts.tolist() == b.counts.tolist() == [[1, 2, 2]]
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("bad", [(), (1, 0, 2), (0,), (1, 2.7), ("1", "2"),
                                     np.array([1.0, 2.0])])
    def test_rejects_bad_profiles(self, bad):
        with pytest.raises(ValueError):
            solve_profiles([bad])

    def test_rejects_gapped_levels(self):
        with pytest.raises(ValueError):
            solve_profiles([level_profile([0, 2])])

    def test_rejects_mixed_orders_and_shapes(self):
        with pytest.raises(ValueError, match="one order"):
            solve_profiles([(1, 2), (1, 3)])
        for bad in ([], (1, 2), [[[1, 2]]], [(1, 2), (1, 1, 1)]):
            with pytest.raises(ValueError):
                solve_profiles(bad)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-8])
def test_non_finite_or_nonpositive_tol_rejected(tol):
    matrix = build_level_matrix(rooted_star(3))
    with pytest.raises(ValueError):
        symmetric_eigenvalues(matrix, tol=tol)
    with pytest.raises(ValueError):
        clustered_multiplicity(symmetric_eigenvalues(matrix), 0.0, tol=tol)
    with pytest.raises(ValueError):
        solve_profiles([(1, 2)]).spectrum(0, tol=tol)


def test_spectral_data_uses_engine():
    data = SpectralData.from_tree(rooted_path(6))
    assert data.counts.tolist() == [[1] * 6]
    assert data.nullity.tolist() == [0]
    assert np.array_equal(data.values, solve_profiles([(1,) * 6]).values)


@pytest.mark.parametrize("order", range(2, 11))
def test_leaf_profiles_match_deleted_trees(order):
    """The leaf-deleted counts read off a profile's counts: at each leaf
    level of a tree, the profile of the tree less a leaf there, whose
    profile index is its position among the profiles of order - 1."""
    below = {profile: i for i, profile in enumerate(profiles_by_index(order - 1))}
    for tree in enumerate_rooted_trees(order):
        deleted = {level_profile(levels(delete_leaf(tree, leaf))) for leaf in tree.leaves()}
        lev = levels(tree)
        leaf_levels = {int(lev[leaf]) for leaf in tree.leaves()}
        _, ks, counts = _leaf_pairs(np.array([level_profile(lev)]))
        assert leaf_levels <= set(ks.tolist())
        subs = [tuple(c for c in row if c) for row, k in zip(counts.tolist(), ks.tolist())
                if k in leaf_levels]
        assert len(subs) == len(set(subs)) and set(subs) == deleted
        for row in counts.tolist():
            sub = [c for c in row if c]
            assert profile_index([sub]).tolist() == [below[tuple(sub)]]


def record_lapack_calls(monkeypatch) -> list[tuple[str, tuple[int, ...]]]:
    """Record (name, shape) of every numpy eigensolver call, and fail on
    any call of the in-repo solver."""
    calls = []

    def recording(name):
        real = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return real(a, *args, **kwargs)
        return call

    def in_repo_solver(*args, **kwargs):
        raise AssertionError("the engine called the in-repo solver")

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, recording(name))
    monkeypatch.setattr(spectra_mod, "symmetric_eigh", in_repo_solver)
    return calls


def test_extremal_sweep_solves_once_per_profile(monkeypatch):
    calls = record_lapack_calls(monkeypatch)
    sweep = extremal_sweep(8, "rho")
    assert sweep.min_seq == (0,) + (1,) * 7 and sweep.max_seq == tuple(range(8))
    # 115 trees but 2**6 profiles (compositions of 7 below the root), in one
    # stack per height h = 1..7
    assert {name for name, _ in calls} == {"eigvalsh"}
    assert sorted(shape[1] for _, shape in calls) == list(range(2, 9))
    assert sum(shape[0] for _, shape in calls) == 2 ** 6


@pytest.mark.parametrize("selection, solved", [
    (None, 2 ** 6 + 2 ** 5),  # leaf checks add every profile of order 7
    (["trace-identity"], 2 ** 6),
])
def test_verify_solves_the_profile_space_once(monkeypatch, selection, solved):
    calls = record_lapack_calls(monkeypatch)
    verify_order(8, selection=selection, jobs=1)
    assert {name for name, _ in calls} == {"eigvalsh"}
    assert sum(shape[0] for _, shape in calls) == solved


ALL_PROFILES = [p for order in range(1, 13) for p in profiles_by_index(order)]

#: The engine's stack of each stack of orders 1..12 (one each: at most
#: 2**10 profiles), with its profile indices.
ALL_STACKS = [(order, index, solve_profiles(counts))
              for order in range(1, 13) for index, counts in profile_stacks(order)]


def test_profile_enumeration_is_complete():
    assert len(ALL_PROFILES) == len(set(ALL_PROFILES)) == 2048
    assert all(sum(p) <= 12 and p[0] == 1 for p in ALL_PROFILES)


def test_all_profiles_enumerated():
    assert {level_profile(seq) for seq in level_sequences(9)} == set(profiles_by_index(9))


class TestValuesOnlySolve:
    """The engine solves for values only, once per stack."""

    def test_engine_solves_without_vectors(self, monkeypatch):
        calls = record_lapack_calls(monkeypatch)
        SpectralData.from_tree(rooted_path(5))
        assert calls == [("eigvalsh", (1, 5, 5))]


def unpadded(profile) -> tuple[int, ...]:
    """A row of a stack without the zeros after its deepest level."""
    return tuple(int(c) for c in profile if c)


def oracle_stack(profiles) -> SpectralData:
    """The stack of profiles of one order, each zero after its deepest
    level, from the in-repo solve of each unpadded quotient (padded with
    exact zeros) and from Bareiss elimination of each unpadded B."""
    values = []
    counts, profiles = np.array(profiles, dtype=np.int64), list(map(unpadded, profiles))
    for profile in profiles:
        quotient_values, _ = symmetric_eigh(quotient_matrix(profile))
        zeros = np.zeros(sum(profile) - len(profile))
        values.append(np.sort(np.concatenate([quotient_values, zeros]))[::-1])
    values = np.array(values)
    nullity = [exact_zero_multiplicity(np.array(profile_b(profile), dtype=object))
               + sum(profile) - len(profile) for profile in profiles]
    return SpectralData(counts, values, np.abs(values).max(axis=1),
                        np.abs(values).sum(axis=1), np.array(nullity, dtype=np.int64))


def test_every_profile_solved_once_in_its_stack():
    """The stacks cover the profiles of each order exactly once, at most
    STACK_SIZE each and all heights together (one stack per order up to
    12), and the engine's stack has their counts, zero-padded to its
    tallest, its heights, and a row of values, rho, energy and nullity per
    member."""
    profiles = {order: profiles_by_index(order) for order in range(1, 13)}
    seen = {order: [] for order in profiles}
    for order, index, data in ALL_STACKS:
        assert 1 <= len(index) <= STACK_SIZE
        assert len(index) == len(profiles[order])
        want = [profiles[order][i] for i in index.tolist()]
        assert [unpadded(row) for row in data.counts.tolist()] == want
        assert data.counts.shape[1] == max(map(len, want))
        assert data.heights.tolist() == [len(p) - 1 for p in want]
        assert data.is_path.tolist() == [len(p) == order for p in want]
        assert (data.counts.sum(axis=1) == data.n).all() and data.n == order
        assert data.values.shape == (len(index), data.n)
        assert data.rho.shape == data.energy.shape == data.nullity.shape == (len(index),)
        seen[order] += index.tolist()
    assert {order: sorted(ids) for order, ids in seen.items()} == {
        order: list(range(len(p))) for order, p in profiles.items()}


def test_engine_matches_in_repo_solvers():
    for _, _, got in ALL_STACKS:
        stack = [tuple(row) for row in got.counts.tolist()]
        want = oracle_stack(stack)
        scale = np.maximum(1.0, want.rho)[:, None]
        assert (np.abs(got.values - want.values) <= 1e-12 * scale).all(), stack
        for i, profile in enumerate(stack):
            assert ([m for _, m in got.spectrum(i).clusters]
                    == [m for _, m in want.spectrum(i).clusters]), profile
        assert got.nullity.tolist() == want.nullity.tolist(), stack
        # every bound check on the stack
        for name, (check, _) in CHECKS.items():
            got_comparisons, want_comparisons = check(got), check(want)
            assert [c.name for c in got_comparisons] == [c.name for c in want_comparisons]
            for g, w in zip(got_comparisons, want_comparisons):
                assert np.array_equal(g.ok, w.ok), (stack, w.name)
                rhs = w.rhs if w.relation == "in" else (w.rhs,)
                bound = 1e-12 * np.maximum(np.maximum(1.0, np.abs(w.lhs)),
                                           np.max(np.abs(rhs), axis=0))
                assert (np.abs(g.slack - w.slack) <= bound).all(), (stack, w.name)


def test_batch_equals_batches_of_one():
    for _, _, data in ALL_STACKS:
        for i, profile in enumerate(data.counts):
            one = solve_profiles([profile])
            assert np.array_equal(data.values[i], one.values[0])
            assert (data.rho[i], data.energy[i]) == (one.rho[0], one.energy[0])
            assert data.spectrum(i).clusters == one.spectrum().clusters
            assert data.nullity[i] == one.nullity[0]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: 0.0 and -0.0 differ, nan equals nan."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", range(1, 17))
def test_solved_space_equals_height_classes_solved_apart(n):
    """The profile space, solved in stacks across heights, equals bit for
    bit each height class solved as its own unpadded stack."""
    space = verify_mod._solved_space(n)
    profiles = profiles_by_index(n)
    classes = {}
    for i, profile in enumerate(profiles):
        classes.setdefault(len(profile), []).append(i)
    for levels_, rows in classes.items():
        data = solve_profiles([profiles[i] for i in rows])
        assert data.counts.shape[1] == levels_
        for got, want in zip(space, (data.values, data.rho, data.energy, data.nullity)):
            assert same_bits(got[rows], want), (n, levels_)


class TestPaddedRows:
    """A stack's rows are zero after their deepest level; the padding
    changes no bit of a member's solve or aggregates."""

    FIELDS = ("values", "rho", "energy", "nullity", "heights", "is_path", "level_index",
              "h_value", "row_square_sum", "second_order_sum", "q_square_sum")

    @pytest.mark.parametrize("padded, plain", [
        ([(1, 2, 0)], [(1, 2)]),
        ([(1, 0, 0, 0)], [(1,)]),
        ([(1, 1, 1, 1, 1, 0, 0)], [(1,) * 5]),
    ])
    def test_padded_row_solves_as_unpadded(self, padded, plain):
        got, want = solve_profiles(padded), solve_profiles(plain)
        for field in self.FIELDS:
            assert same_bits(getattr(got, field), getattr(want, field)), field
        width = want.counts.shape[1]
        assert same_bits(got.level_row_sums[:, :width], want.level_row_sums)
        assert same_bits(got.level_second_order_sums[:, :width], want.level_second_order_sums)

    def test_mixed_heights_in_any_row_order(self):
        # the rows of each height are solved together, on their own columns
        rows = [(1, 1, 1, 1, 1, 1), (1, 5, 0, 0, 0, 0), (1, 1, 4, 0, 0, 0), (1, 1, 1, 1, 2, 0)]
        stack = solve_profiles(rows)
        assert stack.heights.tolist() == [5, 1, 2, 4]
        assert stack.is_path.tolist() == [True, False, False, False]
        for i, row in enumerate(rows):
            alone = solve_profiles([unpadded(row)])
            for field in ("values", "rho", "energy", "nullity", "level_index", "h_value"):
                assert same_bits(getattr(stack, field)[i:i + 1], getattr(alone, field)), field

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_permuted_stack_solves_bit_for_bit(self, data):
        """The engine groups a stack's rows by height itself: the rows of a
        stack in a random order, heights interleaved and every row padded,
        solve bit for bit as the same rows in index order."""
        n = data.draw(st.integers(1, 10), label="order")
        index = sorted(data.draw(st.sets(st.integers(0, 2 ** max(n - 2, 0) - 1),
                                         min_size=1, max_size=40), label="indices"))
        pad = data.draw(st.integers(0, 2), label="padding")
        order = data.draw(st.permutations(range(len(index))), label="row order")
        counts = np.pad(profile_counts(n, index), ((0, 0), (0, pad)))
        plain, permuted = solve_profiles(counts), solve_profiles(counts[order])
        for field in ("values", "rho", "energy", "nullity"):
            assert same_bits(getattr(permuted, field), getattr(plain, field)[order]), field

    @pytest.mark.parametrize("bad", [(1, 0, 2), (0, 1, 2), (0, 0, 3), (1, 2, 0, 1),
                                     (1, 3, -1)])
    def test_interior_or_root_zero_rejected(self, bad):
        with pytest.raises(ValueError):
            solve_profiles([bad])
        with pytest.raises(ValueError):
            solve_profiles([(1, 2, 0), bad])

    def test_profile_index_ignores_trailing_zeros(self):
        for n in range(1, 10):
            for i, profile in enumerate(profiles_by_index(n)):
                for pad in range(3):
                    assert profile_index([profile + (0,) * pad]).tolist() == [i]


@pytest.mark.parametrize("n", [300, 500])
def test_clusters_of_long_paths_do_not_chain(n):
    """The rooted path's eigenvalues are all simple but crowd near -1/2,
    closer to each other than the threshold. A value joins a cluster only
    within the threshold of the cluster's first value, so no cluster spans
    more than the threshold."""
    spectrum = solve_profiles([(1,) * n]).spectrum()
    threshold = DEFAULT_CLUSTER_TOL * max(1.0, spectrum.rho)
    sizes = [m for _, m in spectrum.clusters]
    assert sum(sizes) == n
    edges = np.cumsum([0] + sizes)
    for lo, hi in zip(edges, edges[1:]):
        assert spectrum.values[lo] - spectrum.values[hi - 1] <= threshold
    # and each cluster starts at the first value beyond the threshold of the
    # previous cluster's first value
    for prev, lo in zip(edges, edges[1:-1]):
        assert spectrum.values[prev] - spectrum.values[lo] > threshold


@pytest.mark.parametrize("n, tol", [(500, 1e-8), (300, 1e-6), (300, 1e-3)])
def test_cluster_means_are_summed_by_reduceat(n, tol):
    """The last bits of ``analyze``'s cluster means depend on the order of
    summation. Each mean is ``np.add.reduceat`` over the cluster starts,
    divided by the size; ``block.mean()`` differs from it in the last bits
    on some cluster of each of these paths."""
    spectrum = solve_profiles([(1,) * n]).spectrum(tol=tol)
    values = spectrum.values
    sizes = np.array([size for _, size in spectrum.clusters])
    starts = np.cumsum(sizes) - sizes
    means = [mean for mean, _ in spectrum.clusters]
    assert means == (np.add.reduceat(values, starts) / sizes).tolist()
    assert means != [float(values[lo:lo + size].mean()) for lo, size in zip(starts, sizes)]


def scalar_clusters(values: np.ndarray, threshold: float) -> tuple[tuple[float, int], ...]:
    """The clustering rule one value at a time, the oracle of the stacked
    :func:`_cluster`: a value joins the current cluster iff it lies within
    the threshold of the cluster's first (largest) value, and the first
    value starts one. Each mean is the cluster's ``np.add.reduceat`` sum
    over its size."""
    listed = values.tolist()
    starts, top = [], math.inf
    for i, value in enumerate(listed):
        if not starts or top - value > threshold:
            starts.append(i)
            top = value
    if not starts:
        return ()
    sizes = [stop - start for start, stop in zip(starts, starts[1:] + [len(listed)])]
    sums = np.add.reduceat(values, starts).tolist()
    return tuple((total / size, size) for total, size in zip(sums, sizes))


def scalar_starts(values: np.ndarray, threshold: float) -> list[bool]:
    """Where each cluster of :func:`scalar_clusters` starts."""
    starts = [False] * len(values)
    first = 0
    for _, size in scalar_clusters(values, threshold):
        starts[first] = True
        first += size
    return starts


#: Tolerance and rhos whose thresholds tol * max(1, rho), 1/8 to 1/2, and
#: the values below, multiples of 1/16, are exact in binary64: differences
#: land exactly on a threshold.
DYADIC_TOL = 0.125
DYADIC_RHOS = [0.25, 1.0, 2.0, 4.0]


@st.composite
def dyadic_stacks(draw):
    """(values, rho): k descending rows of n multiples of 1/16, many of
    them exactly one threshold apart, with a rho per row."""
    k = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=12))
    rows = [sorted(draw(st.lists(st.integers(min_value=-24, max_value=24),
                                 min_size=n, max_size=n)), reverse=True)
            for _ in range(k)]
    rho = draw(st.lists(st.sampled_from(DYADIC_RHOS), min_size=k, max_size=k))
    return np.array(rows) / 16.0, np.array(rho)


@st.composite
def repeated_stacks(draw):
    """(values, threshold): a stack of :func:`dyadic_stacks` with each
    column repeated one to four times in every row."""
    values, rho = draw(dyadic_stacks())
    repeats = draw(st.lists(st.integers(min_value=1, max_value=4),
                            min_size=values.shape[1], max_size=values.shape[1]))
    return np.repeat(values, repeats, axis=1), DYADIC_TOL * np.maximum(1.0, rho)


def column_loop_starts(values: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """The clustering rule column by column over every column, the oracle
    of :func:`_cluster`, which skips a column equal in every row to the one
    on its left."""
    starts = np.zeros(values.shape, dtype=bool)
    top = np.full(len(values), math.inf)
    for j in range(values.shape[1]):
        column = values[:, j]
        starts[:, j] = new = (top - column > threshold) | (j == 0)
        top = np.where(new, column, top)
    return starts


class TestStackedClusters:
    def test_infinite_threshold_is_one_cluster(self):
        """A threshold that overflowed to +inf still starts a cluster at
        the first value, and only there."""
        values = np.array([[3.0, 1.0, 0.0, 0.0, -4.0], [0.0] * 5])
        threshold = np.full(2, math.inf)
        for starts in (_cluster(values, threshold), column_loop_starts(values, threshold)):
            assert starts.tolist() == [[True] + [False] * 4] * 2
        assert scalar_clusters(values[0], math.inf) == ((0.0, 5),)
        spectrum = SpectralData(np.ones((1, 1), dtype=np.int64), values[:1], np.array([4.0]),
                                np.zeros(1), np.zeros(1, dtype=np.int64)).spectrum(tol=1e308)
        assert spectrum.clusters == ((0.0, 5),)

    @settings(max_examples=300, deadline=None)
    @given(repeated_stacks())
    def test_repeated_columns_start_as_in_the_column_loop(self, stack):
        values, threshold = stack
        assert _cluster(values, threshold).tolist() == \
            column_loop_starts(values, threshold).tolist()

    def test_long_row_of_zeros(self):
        """A star's spectrum, sqrt(n - 1), n - 2 zeros and -sqrt(n - 1), and
        a row of zeros alone, as the column loop groups them."""
        n = 20_000
        top = math.sqrt(n - 1)
        values = np.array([[top, *[0.0] * (n - 2), -top], [0.0] * n])
        threshold = DEFAULT_CLUSTER_TOL * np.array([top, 1.0])
        starts = _cluster(values, threshold)
        assert starts.tolist() == column_loop_starts(values, threshold).tolist()
        assert [np.flatnonzero(row).tolist() for row in starts] == [[0, 1, n - 1], [0]]

    @settings(max_examples=300, deadline=None)
    @given(dyadic_stacks())
    def test_stacked_rule_equals_scalar_loop(self, stack):
        values, rho = stack
        threshold = DYADIC_TOL * np.maximum(1.0, rho)
        starts = _cluster(values, threshold)
        assert starts.tolist() == [scalar_starts(row, t)
                                   for row, t in zip(values, threshold.tolist())]
        for row, r in zip(values, rho.tolist()):
            view = SpectralData(np.ones((1, 1), dtype=np.int64), row[None], np.array([r]),
                                np.zeros(1), np.zeros(1, dtype=np.int64)).spectrum(tol=DYADIC_TOL)
            assert view.clusters == scalar_clusters(row, DYADIC_TOL * max(1.0, r))

    def test_values_exactly_at_the_threshold_join(self):
        # 1/8 apart joins at threshold 1/8 (rho <= 1) but a value 3/16 below
        # the first starts a cluster; at threshold 1/4 (rho = 2) all join
        values = np.array([[1.0, 0.875, 0.8125], [1.0, 0.875, 0.8125]])
        starts = _cluster(values, DYADIC_TOL * np.maximum(1.0, np.array([1.0, 2.0])))
        assert starts.tolist() == [[True, False, True], [True, False, False]]

    def test_empty_rows(self):
        assert _cluster(np.zeros((3, 0)), np.ones(3)).shape == (3, 0)


class TestLazyClusters:
    @pytest.fixture
    def counted(self, monkeypatch):
        """The rows every call of the clustering rule groups."""
        calls = []

        def counting(values, threshold):
            calls.append(len(values))
            return _cluster(values, threshold)

        monkeypatch.setattr(spectra_mod, "_cluster", counting)
        monkeypatch.setattr(verify_mod, "_cluster", counting)
        return calls

    def test_formed_once_on_first_read(self, counted):
        spectrum = solve_profiles([level_profile(SAMPLE9_LEVELS)]).spectrum()
        first = spectrum.clusters
        assert spectrum.clusters is first
        assert counted == [1]
        assert [m for _, m in first] == [1, 5, 1, 1, 1]

    @pytest.mark.parametrize("tol", [1e-8, 1e-1])
    def test_uses_the_tolerance_solved_at(self, tol):
        spectrum = solve_profiles([(1,) * 300]).spectrum(tol=tol)
        assert spectrum.tol == tol
        threshold = tol * max(1.0, spectrum.rho)
        assert spectrum.clusters == scalar_clusters(spectrum.values, threshold)

    def test_oracle_clusters_by_the_same_rule(self, sample9):
        dense = symmetric_eigenvalues(build_level_matrix(sample9), tol=1e-6)
        assert dense.tol == 1e-6
        assert dense.clusters == scalar_clusters(dense.values, 1e-6 * max(1.0, dense.rho))

    @pytest.mark.parametrize("run, formed", [
        (lambda: extremal_sweep(10, "rho"), 0),
        (lambda: verify_order(9, selection=["trace-identity"], jobs=1), 0),
        # leaf-deletion-multiplicity groups each realisable (profile, leaf
        # level) pair of order 9 once
        (lambda: verify_order(9, jobs=1),
         sum(len(_leaf_pairs(counts)[0]) for _, counts in profile_stacks(9))),
    ], ids=["extremal", "verify-no-cluster-check", "verify-all"])
    def test_walks_cluster_only_what_they_read(self, counted, run, formed):
        run()
        assert sum(counted) == formed


class TestHeightLimit:
    def test_taller_profile_refused_before_any_solve(self, monkeypatch):
        def eigvalsh(stack):
            raise AssertionError("a stack was solved")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        with pytest.raises(ResourceLimit, match="1025 levels"):
            solve_profiles([(1,) * (MAX_LEVELS + 1)])

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(spectra_mod, "MAX_LEVELS", 5)
        assert solve_profiles([(1,) * 5]).nullity.tolist() == [0]
        with pytest.raises(ResourceLimit):
            solve_profiles([(1,) * 6])


def profile_b(profile):
    h1 = len(profile)
    return [[abs(a - c) * profile[c] for c in range(h1)] for a in range(h1)]


def stacked_full_rank(matrices) -> list[bool]:
    """The certificate on a stack of square integer matrices of one size."""
    return _rank_certificate(np.array(matrices, dtype=np.int64)).all(axis=1).tolist()


def assert_certificate_sound(rows) -> None:
    """A certified matrix has full rank: its exact nullity is 0. Below
    order 3 the certificate is the determinant, so it is also complete
    there."""
    nullity = exact_zero_multiplicity(np.array(rows, dtype=object))
    if stacked_full_rank([rows]) == [True]:
        assert nullity == 0
    elif len(rows) <= 2:
        assert nullity > 0


def deep_profiles(seed: int = 0) -> list[tuple[int, ...]]:
    """Seeded random profiles of 2 to 400 levels, counts up to 50."""
    rng = np.random.default_rng(seed)
    return [tuple(rng.integers(1, 50, size=s, endpoint=True).tolist())
            for s in (2, 3, 5, 17, 64, 129, 400)]


def changed(rows, entry):
    """``rows`` with ``entry`` = (row, column, value) written in, if any."""
    if entry is not None:
        rows[entry[0]][entry[1]] = entry[2]
    return rows


def small_or_near_distances(n: int, bound: int):
    """n x n matrices of entries in [-bound, bound], or the distance matrix
    D_n of a path, some with one entry changed to such a value: certified
    matrices and near misses."""
    entries = st.integers(min_value=-bound, max_value=bound)
    return (st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
            | (st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), entries)
               ).map(lambda entry: changed(profile_b((1,) * n), entry)))


class TestRankCertificate:
    def test_profile_nullity_equals_bareiss_on_b(self):
        for profile, (data, row) in zip(ALL_PROFILES, solved_rows(ALL_PROFILES)):
            b = profile_b(profile)
            expected = exact_zero_multiplicity(np.array(b)) + sum(profile) - len(profile)
            assert data.nullity[row] == expected, profile

    def test_certificate_decides_every_deep_profile(self, monkeypatch):
        calls = []
        real = spectra_mod.exact_zero_multiplicity

        def counting(matrix):
            calls.append(matrix)
            return real(matrix)

        monkeypatch.setattr(spectra_mod, "exact_zero_multiplicity", counting)
        solved_rows(ALL_PROFILES)
        # only the one-level profile (1,), whose D_1 = [[0]], falls back
        assert [m.tolist() for m in calls] == [[[0]]]
        solved_rows([(1,) * 200, (1,) * MAX_LEVELS, *deep_profiles()])
        assert len(calls) == 1

    def test_pivots_and_minor_give_the_graham_pollak_determinant(self):
        """The certificate's entries on D_s multiply, in Python integers, to
        det(T D_s) = det D_s up to the sign of the permutation that takes
        each row to its column: the pivot rows a < s - 2 to columns a + 1
        and the last two rows to columns 0 and s - 1, a cycle of length
        s - 1 = h. The distance matrix of a path on h + 1 vertices has
        determinant (-1)^h h 2^(h-1) (R. L. Graham and H. O. Pollak, Bell
        Syst. Tech. J. 50, 1971)."""
        for s in range(2, MAX_LEVELS + 1):
            h = s - 1
            idx = np.arange(s)
            entries = _rank_certificate(np.abs(np.subtract.outer(idx, idx))).tolist()
            assert (-1) ** (h - 1) * math.prod(entries) == (-1) ** h * h * 2 ** (h - 1), s

    def test_stacked_certificate_on_the_fixed_inputs(self):
        # 2x2 matrices in one stack: each is certified iff it has full rank
        square = [
            [[3, 0], [0, 1]],
            [[1, 2], [2, 4]],
            [[0, 0], [0, 0]],
            [[1023, -1023], [1023, 1022]],
            [[-4, 4], [4, -4]],
            [[0, 1], [1, 0]],
        ]
        full = stacked_full_rank(square)
        assert full == [exact_zero_multiplicity(np.array(m)) == 0 for m in square]
        assert full == [True, False, False, True, False, True]
        assert stacked_full_rank([[[0]]]) == [False]
        assert stacked_full_rank([[[0] * 3] * 3]) == [False]

    def test_singular(self):
        assert stacked_full_rank([[[1, 2], [2, 4]]]) == [False]
        assert exact_zero_multiplicity(np.array([[1, 2], [2, 4]])) == 1

    def test_zero_matrices(self):
        assert stacked_full_rank([[[0]]]) == [False]
        assert exact_zero_multiplicity(np.array([[0]])) == 1
        assert stacked_full_rank([[[0] * 3] * 3]) == [False]
        assert exact_zero_multiplicity(np.array([[0] * 3] * 3)) == 3

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=6).flatmap(
        lambda n: small_or_near_distances(n, 4)))
    def test_random_integer_matrices(self, rows):
        # the certificate is sound on every matrix, and complete below
        # order 3
        assert_certificate_sound(rows)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(small_or_near_distances(n, 3), min_size=1, max_size=8)))
    def test_random_stacks(self, matrices):
        # members of one stack are certified independently
        assert stacked_full_rank(matrices) == [
            stacked_full_rank([rows])[0] for rows in matrices]
        for rows in matrices:
            assert_certificate_sound(rows)


# ---------------------------------------------------------------------------
# SpectralData's stacked aggregates against the n x n LevelMatrix oracle
# ---------------------------------------------------------------------------

def counts_only(profiles) -> SpectralData:
    """A stack with its aggregates and no solve: they read the counts alone."""
    k = len(profiles)
    return SpectralData(np.array(profiles, dtype=np.int64), np.zeros((k, 0)), np.zeros(k),
                        np.zeros(k), np.zeros(k, dtype=np.int64))


AGGREGATES = ("level_index", "h_value", "row_square_sum", "second_order_sum",
              "q_square_sum", "level_row_sums", "level_second_order_sums")


def aggregate_dtypes(data: SpectralData, python_ints=()) -> tuple[dict, dict]:
    """Each aggregate's dtype, and the dtypes expected when the aggregates
    named in ``python_ints`` are Python integers and the others int64."""
    return ({name: getattr(data, name).dtype for name in AGGREGATES},
            {name: np.dtype(object if name in python_ints else np.int64)
             for name in AGGREGATES})


def assert_aggregates_match_matrices(profiles, python_ints=()) -> None:
    """Every aggregate of a stack equals each member's dense matrix's, in
    Python integers for those named in ``python_ints`` and int64 for the
    rest. Each aggregate takes int64 when its own bound is below 2**63:
    with N = n h, N**2 for L_a, q_a, LI and H, n N**2 for the sums of L_a**2
    and of q_a, and n N**4 for the sum of q_a**2."""
    data = counts_only(profiles)
    exact = tuple(getattr(data, name) for name in AGGREGATES)
    actual, expected = aggregate_dtypes(data, python_ints)
    assert actual == expected
    for i, profile in enumerate(profiles):
        lev = np.repeat(np.arange(len(profile)), profile)
        matrix = LevelMatrix.from_levels(lev)
        q = matrix.entries @ matrix.row_sums
        assert (data.n, int(data.heights[i])) == (matrix.n, matrix.l_max)
        assert [int(a[i]) for a in exact[:5]] == [
            matrix.level_index, matrix.h_value, sum(int(x) ** 2 for x in matrix.row_sums),
            sum(int(x) for x in q), sum(int(x) ** 2 for x in q)]
        assert data.level_row_sums[i][lev].tolist() == matrix.row_sums.tolist()
        assert data.level_second_order_sums[i][lev].tolist() == q.tolist()


@pytest.mark.parametrize("order", range(1, 13))
def test_profile_aggregates_equal_matrix_aggregates(order):
    for _, counts in profile_stacks(order):
        assert_aggregates_match_matrices(counts.tolist())


@settings(max_examples=60, deadline=None)
@given(parent_arrays())
def test_profile_aggregates_of_random_trees(tree):
    assert_aggregates_match_matrices([level_profile(levels(tree))])


#: The aggregates of the rooted path of n vertices in Python integers: none
#: up to n = 128, where 128 * (128 * 127)**4 < 2**63, then the sum of q_a**2.
#: The 1,024-vertex path is the longest that is solved (spectra.MAX_LEVELS).
PATH_PYTHON_INTS = {50: (), 127: (), 128: (), 129: ("q_square_sum",),
                    250: ("q_square_sum",), 1024: ("q_square_sum",)}


@pytest.mark.parametrize("n", list(PATH_PYTHON_INTS))
def test_profile_aggregates_of_rooted_paths(n):
    assert_aggregates_match_matrices([(1,) * n], PATH_PYTHON_INTS[n])


def test_aggregates_exact_beyond_int64():
    """H of this profile is 18,253,705,502,996,480,000, beyond int64, whose
    sum of products wrapped to a negative number; every aggregate equals a
    Python-integer sum over the levels."""
    profile = (1,) + (10_000,) * 1023  # 10,230,001 vertices
    data = counts_only([profile])
    actual, expected = aggregate_dtypes(data, AGGREGATES)
    assert actual == expected
    h1 = range(len(profile))
    row = [sum(profile[b] * abs(a - b) for b in h1) for a in h1]
    q = [sum(profile[b] * abs(a - b) * row[b] for b in h1) for a in h1]
    h_value = sum(profile[a] * profile[b] * (a - b) ** 2 for a in h1 for b in h1)
    assert h_value == 18_253_705_502_996_480_000
    assert int(data.h_value[0]) == h_value
    assert data.level_row_sums[0].tolist() == row
    assert data.level_second_order_sums[0].tolist() == q
    assert int(data.level_index[0]) == sum(c * x for c, x in zip(profile, row)) // 2
    assert int(data.row_square_sum[0]) == sum(c * x * x for c, x in zip(profile, row))
    assert int(data.second_order_sum[0]) == sum(c * x for c, x in zip(profile, q))
    assert int(data.q_square_sum[0]) == sum(c * x * x for c, x in zip(profile, q))


def test_spectra_compare_by_identity():
    """Two views of one member are equal only if they are one object, and
    hash without error."""
    data = solve_profiles([(1, 2)])
    first, second = data.spectrum(), data.spectrum()
    assert first == first and first != second
    assert len({first, second}) == 2
