"""The profile engine against the dense oracle paths.

The engine solves the (h+1)x(h+1) quotient of each level profile once; the
dense n x n solve and the n x n Bareiss elimination stay as independent
oracles, and every tree of orders 1..9 (plus random larger trees) must agree
with them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelspectra import (
    LevelMatrix,
    RootedTree,
    SpectralData,
    build_level_matrix,
    clustered_multiplicity,
    delete_leaf,
    enumerate_rooted_trees,
    exact_zero_multiplicity,
    level_profile,
    level_sequences,
    level_spectrum,
    levels,
    profile_nullity,
    profile_spectrum,
    quotient_matrix,
    rooted_path,
    rooted_star,
    symmetric_eigenvalues,
)
from levelspectra import spectra as spectra_mod
from levelspectra.eigen import symmetric_eigh
from levelspectra.spectra import RANK_PRIME, _certified_nullity, _rank_mod_p
from levelspectra.verify import _leaf_profiles, extremal_sweep

from conftest import SAMPLE9_LEVELS, SAMPLE9_SPECTRUM, parent_arrays


def assert_matches_oracle(tree: RootedTree) -> None:
    matrix = build_level_matrix(tree)
    dense = symmetric_eigenvalues(matrix)
    engine = level_spectrum(levels(tree))
    scale = max(1.0, dense.rho)
    assert engine.n == tree.n
    assert np.abs(engine.values - dense.values).max() <= 1e-12 * scale
    assert abs(engine.rho - dense.rho) <= 1e-12 * scale
    assert abs(engine.energy - dense.energy) <= 1e-12 * scale * tree.n
    assert [m for _, m in engine.clusters] == [m for _, m in dense.clusters]
    assert profile_nullity(level_profile(levels(tree))) == exact_zero_multiplicity(matrix)
    if tree.n == 1:
        assert engine.perron is None
    else:
        assert np.abs(engine.perron - dense.perron).max() <= 1e-10
        assert abs(np.linalg.norm(engine.perron) - 1.0) <= 1e-12


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
        spectrum = profile_spectrum((1, 2, 3, 3))
        assert np.allclose(spectrum.values, SAMPLE9_SPECTRUM, atol=1e-6)
        assert profile_nullity((1, 2, 3, 3)) == 5

    def test_zeros_are_exact(self):
        spectrum = profile_spectrum((1, 2, 3, 3))
        assert np.count_nonzero(spectrum.values == 0.0) == 9 - 4

    def test_quotient_is_symmetric_blowup(self):
        s = quotient_matrix((1, 4))
        assert np.array_equal(s, [[0.0, 2.0], [2.0, 0.0]])

    def test_single_vertex(self):
        spectrum = level_spectrum([0])
        assert spectrum.values.tolist() == [0.0] and spectrum.perron is None
        assert profile_nullity((1,)) == 1

    def test_cached_once_per_profile(self):
        first = profile_spectrum((1, 3, 2))
        assert profile_spectrum((1, 3, 2)) is first
        assert not first.values.flags.writeable
        assert first.perron is None

    def test_trees_sharing_a_profile_share_values(self):
        a = level_spectrum([0, 1, 2, 1, 2])
        b = level_spectrum([0, 1, 1, 2, 2])
        assert a.values is b.values
        assert np.allclose(a.perron[[0, 1, 3, 2, 4]], b.perron)

    @pytest.mark.parametrize("bad", [(), (1, 0, 2), (0,)])
    def test_rejects_bad_profiles(self, bad):
        with pytest.raises(ValueError):
            profile_spectrum(bad)
        with pytest.raises(ValueError):
            profile_nullity(bad)

    def test_rejects_gapped_levels(self):
        with pytest.raises(ValueError):
            level_spectrum([0, 2])


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-8])
def test_non_finite_or_nonpositive_tol_rejected(tol):
    matrix = build_level_matrix(rooted_star(3))
    with pytest.raises(ValueError):
        symmetric_eigenvalues(matrix, tol=tol)
    with pytest.raises(ValueError):
        clustered_multiplicity(symmetric_eigenvalues(matrix), 0.0, tol=tol)
    with pytest.raises(ValueError):
        profile_spectrum((1, 2), tol=tol)
    with pytest.raises(ValueError):
        level_spectrum([0, 1, 1], tol=tol)


def test_spectral_data_uses_engine():
    data = SpectralData.from_tree(rooted_path(6))
    assert data.profile == (1,) * 6
    assert data.nullity == 0
    assert data.spectrum.values is profile_spectrum((1,) * 6).values


@pytest.mark.parametrize("order", range(2, 9))
def test_leaf_profiles_match_deleted_trees(order):
    for tree in enumerate_rooted_trees(order):
        data = SpectralData.from_tree(tree)
        deleted = {level_profile(levels(delete_leaf(tree, leaf))) for leaf in tree.leaves()}
        lev = levels(tree)
        subs = _leaf_profiles(data.profile, {int(lev[leaf]) for leaf in tree.leaves()})
        assert len(subs) == len(set(subs)) and set(subs) == deleted


def test_extremal_sweep_solves_once_per_profile(monkeypatch):
    calls = []
    real = spectra_mod.symmetric_eigh

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(spectra_mod, "symmetric_eigh", counting)
    spectra_mod.clear_profile_cache()
    sweep = extremal_sweep(8, "rho")
    assert sweep.min_is_star and sweep.max_is_path
    # 115 trees but 2**6 profiles (compositions of 7 below the root)
    assert len(calls) == 2 ** 6


def tree_profiles(order):
    """Every level profile of a rooted tree of this order: n_0 = 1 followed
    by a composition of order - 1 (2**(order - 2) of them for order >= 2)."""
    if order == 1:
        yield (1,)
        return
    rest = order - 1
    for cuts in range(1 << (rest - 1)):
        parts, run = [1], 1
        for bit in range(rest - 1):
            if cuts >> bit & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        yield tuple(parts)


ALL_PROFILES = [p for order in range(1, 13) for p in tree_profiles(order)]


def test_profile_enumeration_is_complete():
    assert len(ALL_PROFILES) == len(set(ALL_PROFILES)) == 2048
    assert all(sum(p) <= 12 and p[0] == 1 for p in ALL_PROFILES)


class TestValuesOnlySolve:
    def test_bit_identical_on_every_quotient(self):
        for profile in ALL_PROFILES:
            s = quotient_matrix(profile)
            values, vectors = symmetric_eigh(s, vectors=False)
            assert vectors is None
            assert np.array_equal(values, symmetric_eigh(s)[0]), profile

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=30).flatmap(
        lambda n: st.lists(st.floats(min_value=-1e3, max_value=1e3),
                           min_size=n * n, max_size=n * n)))
    def test_bit_identical_on_random_symmetric(self, entries):
        n = math.isqrt(len(entries))
        a = np.array(entries).reshape(n, n)
        a = a + a.T
        values, vectors = symmetric_eigh(a, vectors=False)
        assert vectors is None
        assert np.array_equal(values, symmetric_eigh(a)[0])

    def test_jacobi_values_only(self):
        s = quotient_matrix((1, 2, 3))
        values, vectors = symmetric_eigh(s, method="jacobi", vectors=False)
        assert vectors is None
        assert np.array_equal(values, symmetric_eigh(s, method="jacobi")[0])

    @pytest.mark.parametrize("order", range(1, 9))
    def test_level_spectrum_values_equal_profile_values(self, order):
        for tree in enumerate_rooted_trees(order):
            lev = levels(tree)
            assert np.array_equal(level_spectrum(lev).values,
                                  profile_spectrum(level_profile(lev)).values)

    def test_engine_solves_without_vectors(self, monkeypatch):
        flags = []
        real = spectra_mod.symmetric_eigh

        def recording(a, *args, vectors=True, **kwargs):
            flags.append(vectors)
            return real(a, *args, vectors=vectors, **kwargs)

        monkeypatch.setattr(spectra_mod, "symmetric_eigh", recording)
        spectra_mod.clear_profile_cache()
        SpectralData.from_tree(rooted_path(5))
        assert flags == [False]
        level_spectrum(levels(rooted_path(5)))
        assert flags == [False, True]


def profile_b(profile):
    h1 = len(profile)
    return [[abs(a - c) * profile[c] for c in range(h1)] for a in range(h1)]


class TestRankCertificate:
    def test_profile_nullity_equals_bareiss_on_b(self):
        spectra_mod.clear_profile_cache()
        for profile in ALL_PROFILES:
            b = profile_b(profile)
            expected = exact_zero_multiplicity(np.array(b)) + sum(profile) - len(profile)
            assert profile_nullity(profile) == expected, profile

    def test_certificate_decides_every_deep_profile(self, monkeypatch):
        calls = []
        real = spectra_mod.exact_zero_multiplicity

        def counting(matrix):
            calls.append(matrix)
            return real(matrix)

        monkeypatch.setattr(spectra_mod, "exact_zero_multiplicity", counting)
        spectra_mod.clear_profile_cache()
        for profile in ALL_PROFILES:
            profile_nullity(profile)
        # only the one-level profile (1,), whose B = [[0]], falls back
        assert len(calls) == 1
        assert profile_nullity((1,) * 200) == 0
        assert len(calls) == 1

    def test_rank_lost_modulo_p_falls_back(self):
        m = [[RANK_PRIME, 0], [0, 1]]
        assert _rank_mod_p(m) == 1
        assert _certified_nullity(m) == exact_zero_multiplicity(np.array(m)) == 0

    def test_singular(self):
        assert _rank_mod_p([[1, 2], [2, 4]]) == 1
        assert _certified_nullity([[1, 2], [2, 4]]) == 1

    def test_zero_matrices(self):
        assert _rank_mod_p([[0]]) == 0
        assert _certified_nullity([[0]]) == 1
        assert _rank_mod_p([[0] * 3] * 3) == 0
        assert _certified_nullity([[0] * 3] * 3) == 3

    def test_entries_beyond_int32(self):
        big = [[2**31, 2**40 + 1], [-(2**62), 2**70 + 3]]
        assert _rank_mod_p(big) == 2
        assert _certified_nullity(big) == exact_zero_multiplicity(
            np.array(big, dtype=object)) == 0
        dependent = [[2**40, 2**41], [2**45, 2**46]]
        assert _certified_nullity(dependent) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-4, max_value=4)
                     | st.sampled_from([RANK_PRIME, -RANK_PRIME, 2 * RANK_PRIME]),
                     min_size=n, max_size=n),
            min_size=n, max_size=n)))
    def test_random_integer_matrices(self, rows):
        exact = exact_zero_multiplicity(np.array(rows, dtype=object))
        assert _rank_mod_p(rows) <= len(rows) - exact
        assert _certified_nullity(rows) == exact


# ---------------------------------------------------------------------------
# SpectralData's profile aggregates against the n x n LevelMatrix oracle
# ---------------------------------------------------------------------------

def all_profiles(order: int):
    """Every level profile of a rooted tree of this order: n_0 = 1, then a
    composition of order - 1 (any positive counts are realised by a tree)."""
    if order == 1:
        yield (1,)
        return
    for cuts in range(2 ** (order - 2)):
        parts, run = [1], 1
        for bit in range(order - 2):
            if cuts >> bit & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        yield tuple(parts + [run])


def assert_aggregates_match_matrix(lev: np.ndarray) -> None:
    """Every profile aggregate equals the dense matrix's, as Python ints."""
    matrix = LevelMatrix.from_levels(lev)
    data = SpectralData.from_profile(level_profile(lev))
    q = matrix.entries @ matrix.row_sums
    exact = (data.n, data.l_max, data.level_index, data.h_value,
             data.row_square_sum, data.q_square_sum)
    assert all(type(v) is int for v in exact)
    assert exact == (matrix.n, matrix.l_max, matrix.level_index, matrix.h_value,
                     sum(int(x) ** 2 for x in matrix.row_sums),
                     sum(int(x) ** 2 for x in q))
    assert data.level_row_sums[lev].tolist() == matrix.row_sums.tolist()
    assert data.level_second_order_sums[lev].tolist() == q.tolist()


def test_all_profiles_enumerated():
    profiles = [p for order in range(1, 13) for p in all_profiles(order)]
    assert len(profiles) == len(set(profiles)) == 2048
    assert {level_profile(seq) for seq in level_sequences(9)} == set(all_profiles(9))


@pytest.mark.parametrize("order", range(1, 13))
def test_profile_aggregates_equal_matrix_aggregates(order):
    for profile in all_profiles(order):
        assert_aggregates_match_matrix(np.repeat(np.arange(len(profile)), profile))


@settings(max_examples=60, deadline=None)
@given(parent_arrays())
def test_profile_aggregates_of_random_trees(tree):
    assert_aggregates_match_matrix(levels(tree))


@pytest.mark.parametrize("n", [50, 250])
def test_profile_aggregates_of_rooted_paths(n):
    assert_aggregates_match_matrix(np.arange(n))
