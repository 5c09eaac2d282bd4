import copy
import json
import math
import pickle

import numpy as np
import pytest

from levelspectra import spectra as spectra_mod
from levelspectra.bounds import Comparison, SpectralData
from levelspectra.errors import AmbiguousCluster, LevelSpectraError, ResourceLimit, TooSmall
from levelspectra.levelmatrix import LevelMatrix, build_level_matrix
from levelspectra.spectra import (
    DEFAULT_CLUSTER_TOL,
    MAX_LEVELS,
    CharPoly,
    Spectrum,
    characteristic_polynomial,
    charpoly_roots,
    clustered_multiplicity,
    exact_zero_multiplicity,
    level_profile,
    perron_vector,
    profile_charpoly,
    quotient_matrix,
    solve_profiles,
    symmetric_eigenvalues,
)
from levelspectra.trees import (
    delete_leaf,
    enumerate_rooted_trees,
    levels,
    profile_stacks,
    rooted_path,
    rooted_star,
    star_rooted_at_leaf,
)
from levelspectra.verify import INTERLACING_TOL, _interlacing, _leaf_stack, _solved_space

from conftest import SAMPLE9_CHARPOLY, SAMPLE9_RHO, SAMPLE9_SPECTRUM, profiles_by_index


class TestSpectrum:
    def test_sample9_eigenvalues(self, sample9):
        sp = symmetric_eigenvalues(build_level_matrix(sample9))
        assert np.allclose(sp.values, SAMPLE9_SPECTRUM, atol=1e-6)
        assert abs(sp.rho - SAMPLE9_RHO) < 1e-6

    def test_sample9_clusters(self, sample9):
        sp = symmetric_eigenvalues(build_level_matrix(sample9))
        assert [m for _, m in sp.clusters] == [1, 5, 1, 1, 1]

    def test_star_closed_form(self):
        for n in (2, 5, 12):
            sp = symmetric_eigenvalues(build_level_matrix(rooted_star(n)))
            expected = [math.sqrt(n - 1)] + [0.0] * (n - 2) + [-math.sqrt(n - 1)]
            assert np.allclose(sp.values, expected, atol=1e-10)

    def test_single_vertex(self):
        sp = symmetric_eigenvalues(build_level_matrix(rooted_path(1)))
        assert sp.values.tolist() == [0.0]
        assert sp.rho == 0.0
        assert sp.energy == 0.0

    def test_trace_invariants(self):
        for n in range(1, 8):
            for tree in enumerate_rooted_trees(n):
                m = build_level_matrix(tree)
                sp = symmetric_eigenvalues(m)
                assert abs(sp.values.sum()) <= n * 1e-10 * max(1.0, sp.rho)
                assert abs((sp.values**2).sum() - m.h_value) <= 1e-8 * max(1, m.h_value)
                if n >= 2:
                    assert sp.rho == pytest.approx(sp.values[0])

    def test_bad_tol(self, sample9):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(build_level_matrix(sample9), tol=0.0)

    def test_json_payload(self, sample9):
        payload = symmetric_eigenvalues(build_level_matrix(sample9)).to_dict()
        parsed = json.loads(json.dumps(payload))
        assert len(parsed["values"]) == 9
        assert parsed["clusters"][1]["multiplicity"] == 5


class TestPerron:
    def test_star3_hand_computed(self):
        rho, v = perron_vector(build_level_matrix(rooted_star(3)))
        assert rho == pytest.approx(math.sqrt(2), abs=1e-12)
        expected = np.array([math.sqrt(2), 1.0, 1.0]) / 2.0
        assert np.allclose(v, expected, atol=1e-10)

    def test_p2(self):
        rho, v = perron_vector(build_level_matrix(rooted_path(2)))
        assert rho == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(v, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_sample9_residual(self, sample9):
        m = build_level_matrix(sample9)
        rho, v = perron_vector(m)
        assert rho == pytest.approx(SAMPLE9_RHO, abs=1e-6)
        assert np.linalg.norm(m.entries @ v - rho * v) < 1e-8

    def test_strictly_positive_everywhere(self):
        for n in range(2, 8):
            for tree in enumerate_rooted_trees(n):
                m = build_level_matrix(tree)
                rho, v = perron_vector(m)
                assert np.all(v > 0)
                assert abs(np.linalg.norm(v) - 1.0) < 1e-12
                assert np.linalg.norm(m.entries @ v - rho * v) <= 1e-10 * max(1.0, rho)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            perron_vector(build_level_matrix(rooted_path(1)))

    def test_rejects_sign_indefinite_top_vector(self):
        # top eigenvector of this matrix has a zero entry: not Perron
        with pytest.raises(LevelSpectraError):
            perron_vector(np.diag([2.0, 1.0, 0.5]))


class TestEnergy:
    def test_sample9(self, sample9):
        sp = symmetric_eigenvalues(build_level_matrix(sample9))
        assert sp.energy == pytest.approx(20.831625448, abs=1e-5)

    def test_star(self):
        for n in (2, 7, 20):
            sp = symmetric_eigenvalues(build_level_matrix(rooted_star(n)))
            assert sp.energy == pytest.approx(2 * math.sqrt(n - 1), abs=1e-10)

    def test_single_vertex(self):
        sp = symmetric_eigenvalues(build_level_matrix(rooted_path(1)))
        assert sp.energy == 0.0

    def test_twice_rho_for_all_trees(self):
        for n in range(2, 8):
            for tree in enumerate_rooted_trees(n):
                sp = symmetric_eigenvalues(build_level_matrix(tree))
                assert sp.energy == pytest.approx(2 * sp.rho, rel=1e-8)


def random_profiles(count: int) -> list[tuple[int, ...]]:
    """Seeded level profiles of a tree (one root) of 2 to 100 levels, with
    1 to 9 vertices on each level below the root."""
    rng = np.random.default_rng(26)
    return [(1, *rng.integers(1, 10, size).tolist()) for size in rng.integers(1, 100, count)]


def continuant_charpoly(profile) -> tuple[int, ...]:
    """det(xI - L) of a level profile by the continuant form, the oracle of
    the chain form of ``profile_charpoly``. With D the distance matrix of
    the path on s = h + 1 levels, D^-1 = -L_P / 2 + t t^T / (2h) (Graham
    and Lovasz), L_P the path's Laplacian and t = (1, 0, ..., 0, 1), so the
    matrix determinant lemma gives

        det(xI - B) = -[h D_s - x (D_(s-1) + E_(s-1) + 2 x^h)] / 4,

    with D_k the leading k x k minors of the tridiagonal A(x) = x L_P +
    2 diag(n), by the three-term recurrence D_k = (x deg_(k-1) +
    2 n_(k-1)) D_(k-1) - x^2 D_(k-2), and E_(s-1) the trailing one, the
    same recurrence on the reversed profile."""
    counts = [c for c in profile if c]
    s, n = len(counts), sum(counts)

    def minors(counts):  # D_(s-1) and D_s, ascending coefficients
        before, last = [], [1]
        for k, count in enumerate(counts):
            degree = 1 if k in (0, s - 1) else 2
            before, last = last, [2 * count * d + degree * e - f for d, e, f in
                                  zip([*last, 0], [0, *last], [0, 0, *before])]
        return before, last

    before, last = minors(counts)
    trailing, _ = minors(counts[::-1])
    bracket = [(s - 1) * d - e - f for d, e, f in zip(last, [0, *before], [0, *trailing])]
    bracket[s] -= 2  # x times 2 x^h
    quarters = [divmod(-c, 4) for c in reversed(bracket)]
    assert all(r == 0 for _, r in quarters)
    return tuple(q for q, _ in quarters) + (0,) * (n - s)


class TestCharPoly:
    def test_sample9_exact(self, sample9):
        cp = characteristic_polynomial(build_level_matrix(sample9))
        assert cp.coeffs == SAMPLE9_CHARPOLY

    def test_star_closed_form(self):
        for n in (2, 3, 6, 10):
            cp = characteristic_polynomial(build_level_matrix(rooted_star(n)))
            expected = [0] * (n + 1)
            expected[0] = 1
            expected[2] = -(n - 1)
            assert list(cp.coeffs) == expected

    def test_p2(self):
        assert characteristic_polynomial(build_level_matrix(rooted_path(2))).coeffs == (1, 0, -1)

    def test_structure_invariants(self):
        for n in range(1, 8):
            for tree in enumerate_rooted_trees(n):
                m = build_level_matrix(tree)
                cp = characteristic_polynomial(m)
                assert cp.coeffs[0] == 1
                assert cp.degree == n
                if n >= 2:
                    assert cp.coeffs[1] == 0
                    assert cp.coeffs[2] == -m.h_value // 2
                    # constant term vanishes exactly off the path family
                    lmax = int(levels(tree).max())
                    assert (cp.coeffs[-1] == 0) == (lmax != n - 1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_profile_charpoly_is_the_dense_one(self, n):
        """det(xI - L) = x^(n-h-1) det(xI - B) by Sylvester's identity: on
        every level profile of the order, against Faddeev-LeVerrier on its
        n x n level matrix. The trees of one profile have that level matrix
        up to a relabelling of their vertices; through order 10 each tree's
        own matrix is checked as well, and Faddeev-LeVerrier on the s x s
        profile matrix B_ab = |a - b| n_b, times x^(n-s)."""
        for profile in profiles_by_index(n):
            sorted_levels = np.repeat(np.arange(len(profile)), profile)
            dense = characteristic_polynomial(LevelMatrix.from_levels(sorted_levels))
            assert profile_charpoly(profile) == dense
            if n <= 10:
                s = len(profile)
                b = [[abs(a - c) * profile[c] for c in range(s)] for a in range(s)]
                assert dense.coeffs == characteristic_polynomial(b).coeffs + (0,) * (n - s)
        if n <= 10:
            for tree in enumerate_rooted_trees(n):
                assert (profile_charpoly(level_profile(levels(tree)))
                        == characteristic_polynomial(build_level_matrix(tree)))

    @pytest.mark.parametrize("n", range(1, 25))
    def test_profile_charpoly_of_stars_and_paths(self, n):
        for tree in (rooted_star(n), rooted_path(n)):
            assert (profile_charpoly(level_profile(levels(tree)))
                    == characteristic_polynomial(build_level_matrix(tree)))

    def test_profile_charpoly_cap(self, monkeypatch):
        """The one size limit is MAX_LEVELS, on B's h + 1 rows, not on the
        order n; a taller profile is refused before any work, as by the
        engine and the quotient."""
        assert profile_charpoly((1, 23)).coeffs[:3] == (1, 0, -23)
        assert profile_charpoly((1, 23, 1)).degree == 25

        def work(*args):
            raise AssertionError("work done on a profile past the limit")

        too_tall = (1,) * (MAX_LEVELS + 1)
        monkeypatch.setattr(spectra_mod, "accumulate", work)
        monkeypatch.setattr(np.linalg, "eigvalsh", work)
        for refuses in (profile_charpoly, quotient_matrix, lambda p: solve_profiles([p])):
            with pytest.raises(ResourceLimit, match="^a level profile of 1025 levels "
                                                    "exceeds the limit of 1024$"):
                refuses(too_tall)
        monkeypatch.undo()
        monkeypatch.setattr(spectra_mod, "MAX_LEVELS", 5)
        assert profile_charpoly((1,) * 5).degree == 5
        with pytest.raises(ResourceLimit, match="6 levels exceeds the limit of 5"):
            profile_charpoly((1,) * 6)

    @pytest.mark.parametrize("s", range(25, 41))
    def test_profile_charpoly_of_paths_is_faddeev_leverrier_on_b(self, s):
        """The paths of up to 24 levels, whose B is their level matrix, are
        in the test above."""
        b = [[abs(a - c) for c in range(s)] for a in range(s)]
        assert profile_charpoly((1,) * s) == characteristic_polynomial(b)

    @pytest.mark.parametrize("profile", [(1,) * s for s in range(1, 61)]
                             + [(1,) * 200, (1,) * MAX_LEVELS] + random_profiles(40),
                             ids=lambda p: f"{len(p)}-levels-{sum(p)}")
    def test_profile_charpoly_invariants(self, profile):
        """Where Faddeev-LeVerrier is too slow: c_1 = 0, c_2 = -H/2, and the
        constant term of det(xI - B) is det(-B) = -h 2^(h-1) prod n_b, by the
        Graham-Pollak determinant of the path's distance matrix (0 at h = 0)."""
        coeffs = profile_charpoly(profile).coeffs
        s, n = len(profile), sum(profile)
        assert len(coeffs) == n + 1 and coeffs[:2] == (1, 0)
        if n >= 2:
            assert 2 * coeffs[2] == -int(solve_profiles([profile]).h_value[0])
        h = s - 1
        assert coeffs[s] == (-h * 2 ** (h - 1) * math.prod(profile) if h else 0)
        assert not any(coeffs[s + 1:])

    def test_profile_charpoly_of_the_leaf_rooted_star(self):
        """x^(n-3) (x^3 + (9 - 5n) x + (8 - 4n)), the cubic that
        ``special leafstar`` states."""
        for n in range(3, 201):
            assert profile_charpoly((1, 1, n - 2)).coeffs == (
                1, 0, 9 - 5 * n, 8 - 4 * n, *[0] * (n - 3))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_chain_form_is_the_continuant(self, n):
        """Every profile of the order, against the continuant form."""
        for profile in profiles_by_index(n):
            assert profile_charpoly(profile).coeffs == continuant_charpoly(profile)

    @pytest.mark.parametrize("s", [*range(1, 65), 200, MAX_LEVELS])
    def test_chain_form_of_paths_is_the_continuant(self, s):
        assert profile_charpoly((1,) * s).coeffs == continuant_charpoly((1,) * s)

    def test_chain_form_of_dense_profiles_is_the_continuant(self):
        for profile in ((1,) + (3,) * 700, (1, 2, 1000, 1, 5, 7)):
            assert profile_charpoly(profile).coeffs == continuant_charpoly(profile)

    def test_chain_form_signs(self):
        """The coefficient signs that ``profile_charpoly`` proves its
        theorems from, on all 32,768 profiles of orders 1..16: c_1 = 0,
        c_m < 0 for 2 <= m <= s, and c_s = -2^(h-1) h prod n_j."""
        for n in range(1, 17):
            for profile in profiles_by_index(n):
                s = len(profile)
                h = s - 1
                coeffs = profile_charpoly(profile).coeffs
                assert coeffs[1] == 0 and all(c < 0 for c in coeffs[2:s + 1])
                if h:
                    assert coeffs[s] == -2 ** (h - 1) * h * math.prod(profile)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_padded_rows_give_the_unpadded_polynomial(self, n):
        """A row of ``profile_stacks``, zero after its deepest level, has the
        polynomial of its unpadded profile, of degree n."""
        for _, counts in profile_stacks(n):
            for row in counts.tolist():
                profile = tuple(c for c in row if c)
                assert profile_charpoly(row) == profile_charpoly(profile)
                assert profile_charpoly(row).degree == n
        assert profile_charpoly((1, 2, 0, 0)).coeffs == (1, 0, -2, 0)
        assert profile_charpoly((1, 0)).coeffs == (1, 0)

    def test_evaluation_and_json(self):
        cp = CharPoly((1, 0, -1))
        assert cp(3) == 8
        assert json.loads(cp.to_json()) == ["1", "0", "-1"]

    def test_roots_match_solver(self, sample9):
        m = build_level_matrix(sample9)
        roots = charpoly_roots(characteristic_polynomial(m))
        sp = symmetric_eigenvalues(m)
        assert np.allclose(roots, sp.values, atol=1e-7 * max(1.0, sp.rho))

    def test_roots_reject_complex(self):
        with pytest.raises(LevelSpectraError):
            charpoly_roots(CharPoly((1, 0, 1)))  # x^2 + 1

    @pytest.mark.parametrize("n", range(1, 11))
    def test_pipelines_agree_up_to_order_10(self, n):
        for tree in enumerate_rooted_trees(n):
            m = build_level_matrix(tree)
            roots = charpoly_roots(characteristic_polynomial(m))
            sp = symmetric_eigenvalues(m)
            assert np.abs(roots - sp.values).max() <= 1e-7


class TestZeroMultiplicity:
    def test_sample9(self, sample9):
        assert exact_zero_multiplicity(build_level_matrix(sample9)) == 5

    def test_star(self):
        for n in (3, 4, 10, 25):
            assert exact_zero_multiplicity(build_level_matrix(rooted_star(n))) == n - 2

    def test_path(self):
        for n in (2, 5, 12):
            assert exact_zero_multiplicity(build_level_matrix(rooted_path(n))) == 0

    def test_leafstar(self):
        for n in (3, 6, 11):
            m = build_level_matrix(star_rooted_at_leaf(n))
            assert exact_zero_multiplicity(m) == n - 3

    def test_formula_exhaustive(self):
        for n in range(3, 8):
            for tree in enumerate_rooted_trees(n):
                m = build_level_matrix(tree)
                lmax = int(levels(tree).max())
                assert exact_zero_multiplicity(m) == n - 1 - lmax

    def test_single_vertex(self):
        assert exact_zero_multiplicity(build_level_matrix(rooted_path(1))) == 1


class TestClusteredMultiplicity:
    def test_sample9_zero(self, sample9):
        sp = symmetric_eigenvalues(build_level_matrix(sample9))
        assert clustered_multiplicity(sp, 0.0) == 5

    def test_star6_top(self):
        sp = symmetric_eigenvalues(build_level_matrix(rooted_star(6)))
        assert clustered_multiplicity(sp, math.sqrt(5)) == 1

    def test_far_value(self, sample9):
        sp = symmetric_eigenvalues(build_level_matrix(sample9))
        assert clustered_multiplicity(sp, 123.456) == 0

    def test_matches_exact_nullity(self):
        for n in range(1, 8):
            for tree in enumerate_rooted_trees(n):
                m = build_level_matrix(tree)
                sp = symmetric_eigenvalues(m)
                assert clustered_multiplicity(sp, 0.0) == exact_zero_multiplicity(m)

    def test_ambiguous_cluster(self):
        sp = symmetric_eigenvalues(np.diag([0.0, 5e-9, 1.4e-8]))
        with pytest.raises(AmbiguousCluster):
            clustered_multiplicity(sp, -6e-9, tol=1e-8)

    def test_bad_tol(self, sample9):
        sp = symmetric_eigenvalues(build_level_matrix(sample9))
        with pytest.raises(ValueError):
            clustered_multiplicity(sp, 0.0, tol=-1.0)


def positive_eigenvalue_count(spectrum) -> int:
    """Eigenvalues above the cluster threshold ``tol * max(1, rho)``."""
    return int((spectrum.values > DEFAULT_CLUSTER_TOL * max(1.0, spectrum.rho)).sum())


class TestPositiveCount:
    def test_exactly_one_for_trees(self):
        for n in range(2, 8):
            for tree in enumerate_rooted_trees(n):
                sp = symmetric_eigenvalues(build_level_matrix(tree))
                assert positive_eigenvalue_count(sp) == 1

    def test_single_vertex_has_none(self):
        sp = symmetric_eigenvalues(build_level_matrix(rooted_path(1)))
        assert positive_eigenvalue_count(sp) == 0


def _interlace(outer, inner, slack) -> bool:
    """Cauchy interlacing: inner[k] within [outer[k+1], outer[k]] up to
    ``slack``, both descending."""
    return bool(np.all(inner <= outer[:-1] + slack) and np.all(inner >= outer[1:] - slack))


class TestInterlacing:
    """The dense oracle spectra interlace under leaf deletion, and the
    ledger's ``interlacing`` check, which reads profile spectra, tells
    interlacing from its failure."""

    def test_p3_to_p2(self):
        outer = symmetric_eigenvalues(build_level_matrix(rooted_path(3))).values
        inner = symmetric_eigenvalues(build_level_matrix(rooted_path(2))).values
        assert _interlace(outer, inner, slack=1e-8)
        ok, _ = _interlacing(solve_profiles([(1, 1, 1)]), solve_profiles([(1, 1)]), 1e-8)
        assert ok.tolist() == [True]

    def test_s4_to_s3(self):
        outer = symmetric_eigenvalues(build_level_matrix(rooted_star(4))).values
        inner = symmetric_eigenvalues(build_level_matrix(rooted_star(3))).values
        assert _interlace(outer, inner, slack=1e-8)
        ok, _ = _interlacing(solve_profiles([(1, 3)]), solve_profiles([(1, 2)]), 1e-8)
        assert ok.tolist() == [True]

    def test_violation_detected(self):
        # the star's top eigenvalue sqrt(3) lies below the path's 1 + sqrt(3)
        ok, worst = _interlacing(solve_profiles([(1, 3)]), solve_profiles([(1, 1, 1)]), 1e-8)
        assert ok.tolist() == [False]
        assert worst[0] == pytest.approx(math.sqrt(3) - (1 + math.sqrt(3)))

    def test_stack_member_by_member(self):
        # both members lose a leaf to the path (1, 1, 1); a member of a
        # stack gets the verdict and slack it gets alone
        data, sub = solve_profiles([(1, 1, 2), (1, 2, 1)]), solve_profiles([(1, 1, 1), (1, 1, 1)])
        ok, worst = _interlacing(data, sub, 1e-8)
        assert ok.tolist() == [True, True]
        for i, profile in enumerate([(1, 1, 2), (1, 2, 1)]):
            alone = _interlacing(solve_profiles([profile]), solve_profiles([(1, 1, 1)]), 1e-8)
            assert (alone[0][0], alone[1][0]) == (ok[i], worst[i])

    def test_shape_check(self):
        # the check compares n values with n - 1: every leaf-deleted stack
        # it is handed has one vertex fewer, and each row is the engine's
        # solution of that profile
        for n in range(2, 9):
            below = _solved_space(n - 1)
            for _, counts in profile_stacks(n):
                data = solve_profiles(counts)
                members, _, parent, sub = _leaf_stack(data, below)
                assert np.array_equal(parent.values, data.values[members])
                assert sub.n == n - 1 and (sub.counts.sum(axis=1) == n - 1).all()
                assert sub.values.shape == (len(members), n - 1)
                for i, counts in enumerate(sub.counts):
                    alone = solve_profiles([counts])
                    assert np.array_equal(sub.values[i], alone.values[0])
                    assert sub.nullity[i] == alone.nullity[0]

    def test_every_leaf_deletion(self):
        for n in range(2, 7):
            for tree in enumerate_rooted_trees(n):
                sp = symmetric_eigenvalues(build_level_matrix(tree))
                eps = INTERLACING_TOL * max(1.0, sp.rho)
                for leaf in tree.leaves():
                    sub = symmetric_eigenvalues(build_level_matrix(delete_leaf(tree, leaf)))
                    assert _interlace(sp.values, sub.values, slack=eps)


# ---------------------------------------------------------------------------
# immutable records
# ---------------------------------------------------------------------------

_FROZEN_RECORDS = {
    Comparison: lambda: Comparison("cap", np.ones(2), np.full(2, 2.0), "<=", np.ones(2),
                                   np.ones(2, bool), None),
    LevelMatrix: lambda: build_level_matrix(rooted_star(4)),
    Spectrum: lambda: symmetric_eigenvalues(build_level_matrix(rooted_star(4))),
    CharPoly: lambda: characteristic_polynomial(build_level_matrix(rooted_star(4))),
    SpectralData: lambda: solve_profiles([(1, 2, 1)]),
}


@pytest.mark.parametrize("record_type", _FROZEN_RECORDS, ids=lambda t: t.__name__)
def test_records_are_frozen(record_type):
    """Assigning or deleting a field raises AttributeError and changes
    nothing; so does adding an attribute. A pickled or copied record is
    rebuilt with the same fields, and is frozen too."""
    record = _FROZEN_RECORDS[record_type]()
    assert type(record) is record_type
    field = {Comparison: "ok", LevelMatrix: "entries",
             Spectrum: "values", CharPoly: "coeffs", SpectralData: "nullity"}[record_type]
    before = getattr(record, field)
    for change in (lambda r: setattr(r, field, None), lambda r: delattr(r, field),
                   lambda r: setattr(r, "extra", 1)):
        with pytest.raises(AttributeError):
            change(record)
    assert getattr(record, field) is before
    for rebuilt in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
        assert type(rebuilt) is record_type
        assert np.array_equal(getattr(rebuilt, field), before)
        with pytest.raises(AttributeError):
            setattr(rebuilt, field, None)


def test_value_records_compare_and_hash_by_fields():
    assert CharPoly((1, 0, -1)) == CharPoly((1, 0, -1)) != CharPoly((1, 0, 1))
    assert len({CharPoly((1, 0, -1)), CharPoly((1, 0, -1))}) == 1
