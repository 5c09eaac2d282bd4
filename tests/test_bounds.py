import json
import math
from collections import namedtuple

import numpy as np
import pytest

from levelspectra.bounds import (
    CHECKS,
    ROW_FIELDS,
    _compare,
    _ratio,
    check_eigenvalue_cap,
    check_eigenvalue_intervals,
    check_eigenvalue_square,
    check_energy_bounds,
    check_quotient_bound,
    check_rho_mean_square,
    check_rho_row_square,
    check_rho_row_sum_bounds,
    check_rho_second_order,
    check_second_order_identity,
    check_trace_identity,
    evaluate_checks,
    path_rho_closed_form,
)
from levelspectra.cli import main
from levelspectra.errors import InvalidOrder
from levelspectra.levelmatrix import build_level_matrix
from levelspectra.spectra import (
    CharPoly,
    SpectralData,
    charpoly_roots,
    level_profile,
    profile_charpoly,
    solve_profiles,
    symmetric_eigenvalues,
)
from levelspectra.trees import (
    enumerate_rooted_trees,
    format_tree,
    levels,
    profile_stacks,
    rooted_path,
    rooted_star,
    star_rooted_at_leaf,
)

from conftest import profiles_by_index


def data_for(tree):
    return SpectralData.from_tree(tree)


Row = namedtuple("Row", ROW_FIELDS)


def named(rows):
    """Bound rows with their fields named, for the tests to read."""
    return [Row(*row) for row in rows]


def every(check, data):
    """The rows of a check on a stack of one, none of a comparison that does
    not cover the member."""
    return named(row for comparison in check(data) for row in comparison.rows())


def one(check, data):
    """The one row of a single-relation check on a stack of one."""
    [row] = every(check, data)
    return row


@pytest.fixture
def d9(sample9):
    return data_for(sample9)


class TestEigenvalueCap:
    def test_p2_equality(self):
        r = one(check_eigenvalue_cap, data_for(rooted_path(2)))
        assert r.satisfied and r.equality_expected
        assert r.lhs == pytest.approx(1.0) and r.rhs == 1.0

    def test_sample9(self, d9):
        r = one(check_eigenvalue_cap, d9)
        assert r.rhs == 24.0 and r.satisfied
        assert r.lhs == pytest.approx(10.4158127, abs=1e-6)

    def test_star10(self):
        r = one(check_eigenvalue_cap, data_for(rooted_star(10)))
        assert r.lhs == pytest.approx(3.0, abs=1e-10) and r.rhs == 9.0


class TestTraceIdentity:
    def test_sample9(self, d9):
        r = one(check_trace_identity, d9)
        assert r.satisfied and r.rhs == 160.0
        assert r.lhs == pytest.approx(160.0, rel=1e-8)

    def test_star(self):
        r = one(check_trace_identity, data_for(rooted_star(6)))
        assert r.satisfied and r.rhs == 10.0

    def test_single_vertex(self):
        r = one(check_trace_identity, data_for(rooted_path(1)))
        assert r.satisfied and r.lhs == 0.0 and r.rhs == 0.0


class TestRhoMeanSquare:
    def test_p2_equality(self):
        r = one(check_rho_mean_square, data_for(rooted_path(2)))
        assert r.satisfied and r.equality_expected
        assert r.lhs == pytest.approx(1.0) and r.rhs == pytest.approx(1.0)

    def test_sample9(self, d9):
        r = one(check_rho_mean_square, d9)
        assert r.rhs == pytest.approx(160 / 9)
        assert r.lhs == pytest.approx(10.4158127**2, rel=1e-6)

    def test_star5(self):
        r = one(check_rho_mean_square, data_for(rooted_star(5)))
        assert r.lhs == pytest.approx(4.0, abs=1e-10) and r.rhs == pytest.approx(8 / 5)


class TestRowSumBounds:
    def test_sample9(self, d9):
        lower, upper = every(check_rho_row_sum_bounds, d9)
        assert lower.lhs == pytest.approx(2 * 44 / 9)
        assert upper.rhs == 17.0
        assert lower.satisfied and upper.satisfied

    def test_p2_all_equal(self):
        lower, upper = every(check_rho_row_sum_bounds, data_for(rooted_path(2)))
        assert lower.equality_expected
        assert lower.lhs == pytest.approx(1.0) and upper.lhs == pytest.approx(1.0)
        assert upper.rhs == 1.0

    def test_star_strict_for_larger_orders(self):
        for n in (3, 6, 9):
            lower, upper = every(check_rho_row_sum_bounds, data_for(rooted_star(n)))
            assert lower.lhs == pytest.approx(2 * (n - 1) / n)
            assert lower.rhs == pytest.approx(math.sqrt(n - 1), abs=1e-10)
            assert lower.slack > 1e-9
            assert upper.rhs == n - 1


class TestRhoRowSquare:
    def test_sample9(self, d9):
        r = one(check_rho_row_square, d9)
        assert r.rhs == pytest.approx(math.sqrt(936 / 9))
        assert r.satisfied

    def test_p2_equality(self):
        r = one(check_rho_row_square, data_for(rooted_path(2)))
        assert r.lhs == pytest.approx(1.0) and r.rhs == pytest.approx(1.0)

    def test_star3_equality(self):
        r = one(check_rho_row_square, data_for(rooted_star(3)))
        assert r.lhs == pytest.approx(math.sqrt(2), abs=1e-12)
        assert r.rhs == pytest.approx(math.sqrt(2), abs=1e-12)


class TestRhoSecondOrder:
    def test_p2(self):
        r = one(check_rho_second_order, data_for(rooted_path(2)))
        assert r.rhs == pytest.approx(1.0)

    def test_star3_hand_computed(self):
        d = data_for(rooted_star(3))
        assert d.level_second_order_sums[0][levels(rooted_star(3))].tolist() == [2, 2, 2]
        r = one(check_rho_second_order, d)
        assert r.rhs == pytest.approx(math.sqrt(2))

    def test_sample9_positive_slack(self, d9):
        r = one(check_rho_second_order, d9)
        assert r.satisfied and r.lhs > r.rhs

    def test_single_vertex_degenerate(self):
        """Every row sum of a single vertex vanishes: no comparison."""
        assert check_rho_second_order(data_for(rooted_path(1))) == []


class TestSecondOrderIdentity:
    def test_star3(self):
        r = one(check_second_order_identity, data_for(rooted_star(3)))
        assert r.satisfied and r.lhs == 6 and r.rhs == 6

    def test_exhaustive(self):
        for n in range(1, 8):
            for tree in enumerate_rooted_trees(n):
                assert one(check_second_order_identity, data_for(tree)).satisfied


class TestQuotientBound:
    def test_p2_equality(self):
        r = one(check_quotient_bound, data_for(rooted_path(2)))
        assert r.rhs == pytest.approx(1.0) and r.lhs == pytest.approx(1.0)

    def test_star_below_rho(self):
        for n in (3, 5, 10):
            r = one(check_quotient_bound, data_for(rooted_star(n)))
            assert r.satisfied
            assert r.rhs <= math.sqrt(n - 1) + 1e-9

    def test_sample9(self, d9):
        r = one(check_quotient_bound, d9)
        assert r.satisfied and r.rhs <= r.lhs

    def test_single_vertex(self):
        assert check_quotient_bound(data_for(rooted_path(1))) == []


class TestEigenvalueSquare:
    def test_sample9(self, d9):
        r = one(check_eigenvalue_square, d9)
        assert r.rhs == pytest.approx(8 * 160 / 9)
        assert r.lhs == pytest.approx(10.4158127**2, rel=1e-6)

    def test_p2_equality(self):
        r = one(check_eigenvalue_square, data_for(rooted_path(2)))
        assert r.lhs == pytest.approx(1.0) and r.rhs == pytest.approx(1.0)

    def test_star5(self):
        r = one(check_eigenvalue_square, data_for(rooted_star(5)))
        assert r.lhs == pytest.approx(4.0, abs=1e-9) and r.rhs == pytest.approx(6.4)


class TestEigenvalueIntervals:
    def test_sample9_extreme_indices(self, d9):
        reports = {r.name: r for r in every(check_eigenvalue_intervals, d9)}
        top = reports["eigenvalue-interval-1"]
        assert top.rhs[0] == pytest.approx(math.sqrt(160 / 72))
        assert top.rhs[1] == pytest.approx(math.sqrt(8 * 160 / 9))
        bottom = reports["eigenvalue-interval-9"]
        assert bottom.lhs == pytest.approx(-6.5493620755, abs=1e-6)
        assert bottom.rhs == (-top.rhs[1], -top.rhs[0])
        assert all(r.satisfied for r in reports.values())

    def test_star4(self):
        star4 = data_for(rooted_star(4))
        reports = {r.name: r for r in every(check_eigenvalue_intervals, star4)}
        top = reports["eigenvalue-interval-1"]
        assert top.lhs == pytest.approx(math.sqrt(3), abs=1e-10)
        assert top.rhs[0] == pytest.approx(math.sqrt(6 / 12))
        assert top.rhs[1] == pytest.approx(math.sqrt(18 / 4))

    def test_needs_three_vertices(self):
        assert check_eigenvalue_intervals(data_for(rooted_path(2))) == []

    def test_gated_out_by_evaluate(self):
        names = {r.name for r in named(evaluate_checks(data_for(rooted_path(2))))}
        assert not any(n.startswith("eigenvalue-interval") for n in names)


class TestEnergyBounds:
    def test_sample9(self, d9):
        reports = {r.name: r for r in every(check_energy_bounds, d9)}
        assert reports["energy-upper"].rhs == pytest.approx(math.sqrt(9 * 160))
        assert reports["energy-upper-improved"].rhs == pytest.approx(math.sqrt(8 * 160))
        assert reports["energy-identity"].satisfied

    def test_star(self):
        for n in (3, 8):
            reports = {r.name: r for r in every(check_energy_bounds, data_for(rooted_star(n)))}
            assert reports["energy-upper-improved"].lhs == pytest.approx(
                2 * math.sqrt(n - 1), abs=1e-9)
            assert reports["energy-upper-improved"].rhs == pytest.approx(
                math.sqrt((n - 1) * 2 * (n - 1)))

    def test_path_excluded_from_improved(self):
        names = {r.name for r in every(check_energy_bounds, data_for(rooted_path(6)))}
        assert "energy-upper-improved" not in names
        assert "energy-upper" in names

    def test_improved_never_exceeds_original(self):
        for n in range(2, 8):
            for tree in enumerate_rooted_trees(n):
                reports = {r.name: r for r in every(check_energy_bounds, data_for(tree))}
                if "energy-upper-improved" in reports:
                    assert reports["energy-upper-improved"].rhs <= reports["energy-upper"].rhs


class TestPathClosedForm:
    def test_p2(self):
        assert path_rho_closed_form(2) == pytest.approx(1.0, abs=1e-10)

    def test_p3_exact_value(self):
        assert path_rho_closed_form(3) == pytest.approx(1 + math.sqrt(3), abs=1e-10)

    def test_matches_solver(self):
        for n in (2, 3, 4, 10, 17):
            sp = symmetric_eigenvalues(build_level_matrix(rooted_path(n)))
            assert path_rho_closed_form(n) == pytest.approx(sp.rho, rel=1e-8)

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            path_rho_closed_form(1)


def leafstar_cubic(n: int) -> CharPoly:
    """x^3 + (9 - 5n) x + (8 - 4n): the level polynomial of the star of n
    vertices rooted at a leaf, less its factor x^(n-3)."""
    return CharPoly((1, 0, 9 - 5 * n, 8 - 4 * n))


class TestLeafstarCubic:
    """The leaf-rooted star's nonzero level spectrum: its polynomial is
    exactly x^(n-3) times the cubic, and the cubic's roots, by numpy's
    companion-matrix solve, are the dense oracle's nonzero eigenvalues."""

    def test_n3_exact_roots(self):
        assert profile_charpoly((1, 1, 1)) == leafstar_cubic(3)
        roots = charpoly_roots(leafstar_cubic(3))
        assert roots[0] == pytest.approx(1 + math.sqrt(3), abs=1e-10)
        assert roots[1] == pytest.approx(1 - math.sqrt(3), abs=1e-10)
        assert roots[2] == pytest.approx(-2.0, abs=1e-10)

    def test_vieta_sum(self):
        for n in (3, 4, 9, 30):
            assert profile_charpoly((1, 1, n - 2)).coeffs[1] == 0  # exact: the trace
            assert abs(charpoly_roots(leafstar_cubic(n)).sum()) < 1e-9

    def test_matches_nonzero_spectrum(self):
        for n in (3, 4, 6, 12):
            assert profile_charpoly((1, 1, n - 2)).coeffs == (
                leafstar_cubic(n).coeffs + (0,) * (n - 3))
            sp = symmetric_eigenvalues(build_level_matrix(star_rooted_at_leaf(n)))
            nonzero = np.sort(sp.values[np.abs(sp.values) > 1e-8 * max(1, sp.rho)])[::-1]
            assert len(nonzero) == 3
            assert np.allclose(charpoly_roots(leafstar_cubic(n)), nonzero, atol=1e-8)

    def test_invalid_order(self):
        """The family, and so the cubic, starts at n = 3, the first order
        with a vertex on level 2."""
        with pytest.raises(InvalidOrder):
            star_rooted_at_leaf(2)


class TestEvaluateChecks:
    def test_all_pass_small_orders(self):
        for n in range(1, 7):
            for tree in enumerate_rooted_trees(n):
                assert all(r.satisfied for r in named(evaluate_checks(data_for(tree))))

    def test_tree_and_profile_give_same_reports(self, sample9, d9):
        of_profile = solve_profiles([level_profile(levels(sample9))])
        assert evaluate_checks(d9) == evaluate_checks(of_profile)
        assert evaluate_checks(d9)

    def test_selection(self, d9):
        rows = named(evaluate_checks(d9, ["trace-identity"]))
        assert [r.name for r in rows] == ["trace-identity"]

    def test_unknown_name(self, d9):
        with pytest.raises(KeyError):
            evaluate_checks(d9, ["nonsense"])

    @pytest.mark.parametrize("order", [3, 9])
    def test_stack_rows_equal_stacks_of_one(self, order):
        """Each member of a stack of every height gets, bit for bit, the
        rows of the comparisons that cover it that its unpadded profile gets
        in a stack of its own."""
        for _, counts in profile_stacks(order):
            stack = solve_profiles(counts)
            assert stack.values.shape == (len(counts), order)
            for name, (check, _) in CHECKS.items():
                comparisons = check(stack)
                for i, profile in enumerate(counts):
                    alone = solve_profiles([profile[profile > 0]])
                    got = [row for c in comparisons for row in c.rows(i)]
                    assert got == evaluate_checks(alone, [name]), (profile, name)

    def test_special_families_to_order_50(self):
        from levelspectra.trees import complete_dary

        members = [rooted_star(50), rooted_path(50), star_rooted_at_leaf(50),
                   complete_dary(2, 5), complete_dary(3, 3)]
        for tree in members:
            rows = named(evaluate_checks(data_for(tree)))
            bad = [r.name for r in rows if not r.satisfied]
            assert bad == []


@pytest.mark.parametrize("profiles", [
    [p for p in profiles_by_index(9) if len(p) == 4],
    [(1,) * 200],
    *[pytest.param(counts, id=f"order-{order}")
      for order in range(3, 13) for _, counts in profile_stacks(order)],
])
def test_stacked_intervals_equal_per_index_comparisons(profiles):
    """The per-index intervals, compared in one relation with an index axis,
    give every member's rows bit for bit as the intervals compared one index
    at a time: the moment bounds at 1 < j < n, and at j = 1 and j = n the
    sharper ones of a zero trace."""
    d = solve_profiles(profiles)
    n, h = d.n, d.h_value.astype(float)
    [stacked, spectrum] = check_eigenvalue_intervals(d)
    assert (stacked.name, spectrum.name) == ("eigenvalue-interval", "spectrum-interval")
    outer, inner = np.sqrt((n - 1) * h / n), np.sqrt(h / (n * (n - 1)))
    rows = [stacked.rows(i) for i in range(len(d.values))]
    for j in range(1, n + 1):
        lo = -np.sqrt((j - 1) * h / (n * (n - j + 1)))
        hi = np.sqrt((n - j) * h / (j * n))
        lo, hi = {1: (inner, outer), n: (-outer, -inner)}.get(j, (lo, hi))
        alone = _compare(f"eigenvalue-interval-{j}", d.values[:, j - 1], (lo, hi), "in")
        for i, member in enumerate(rows):
            assert member[j - 1] == alone.rows(i)[0], (j, i)


def test_analyze_lists_interval_rows_in_index_order(sample9, tmp_path, capsys):
    path = tmp_path / "sample9.tree"
    path.write_text(format_tree(sample9))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    names = [r["name"] for r in json.loads(capsys.readouterr().out)["bounds"]]
    first = names.index("eigenvalue-interval-1")
    assert names[first:first + 10] == [
        *(f"eigenvalue-interval-{j}" for j in range(1, 10)), "spectrum-interval"]


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_ratio_rounds_like_python_integers(dtype):
    """factor * x / n is the correctly rounded quotient of the integers, also
    where x or the product is beyond 2**53 and the product beyond int64."""
    xs = [0, 5, 2**53 - 1, 2**53 + 1, 2**62 + 12_345, 3 * 2**61 + 7]
    for factor, n in [(1, 3), (6, 7), (10**6, 10**6 + 1)]:
        got = _ratio(np.array(xs, dtype=dtype), factor, n)
        assert got.tolist() == [factor * x / n for x in xs]
