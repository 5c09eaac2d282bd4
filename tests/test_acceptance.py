"""Acceptance suite: every shipped claim at its stated tolerance.

Each test prints one PASS line when its criterion holds; pytest -v (or -rA)
shows the per-criterion outcome. The expensive full enumeration at orders
1..10 runs once and is shared by the criteria that need it.
"""

import math
import time

import numpy as np
import pytest

from levelspectra.bounds import path_rho_closed_form
from levelspectra.levelmatrix import build_level_matrix
from levelspectra.spectra import (
    CharPoly,
    characteristic_polynomial,
    charpoly_roots,
    exact_zero_multiplicity,
    level_profile,
    profile_charpoly,
    symmetric_eigenvalues,
)
from levelspectra.trees import (
    enumerate_rooted_trees,
    levels,
    rooted_path,
    rooted_star,
    rooted_tree_count,
    star_rooted_at_leaf,
)
from levelspectra.verify import verify_order

from conftest import (
    SAMPLE9_CHARPOLY,
    SAMPLE9_MATRIX,
    SAMPLE9_PARENTS,
    SAMPLE9_SPECTRUM,
)

EXPECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20, 7: 48, 8: 115, 9: 286, 10: 719}


def announce(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def full_sweep():
    """Verification ledgers for every order up to 10, all checks, default
    parallelism; shared across criteria 4, 5 and 8."""
    start = time.perf_counter()
    ledgers = {n: verify_order(n) for n in range(1, 11)}
    elapsed = time.perf_counter() - start
    return ledgers, elapsed


def test_criterion_1_worked_example_goldens(sample9):
    start = time.perf_counter()
    matrix = build_level_matrix(sample9)
    poly = characteristic_polynomial(matrix)
    spectrum = symmetric_eigenvalues(matrix)
    elapsed = time.perf_counter() - start

    assert np.array_equal(matrix.entries, SAMPLE9_MATRIX), "level matrix must be bit-exact"
    assert poly.coeffs == SAMPLE9_CHARPOLY, "characteristic polynomial must be exact"
    assert np.abs(spectrum.values - np.array(SAMPLE9_SPECTRUM)).max() < 1e-6
    assert elapsed < 0.1, f"analysis took {elapsed:.3f}s, budget is 0.1s"
    announce("1 (worked example)",
             f"matrix, polynomial and spectrum reproduced in {elapsed * 1e3:.1f} ms")


def test_criterion_2_star_closed_form():
    start = time.perf_counter()
    for n in range(2, 51):
        matrix = build_level_matrix(rooted_star(n))
        spectrum = symmetric_eigenvalues(matrix)
        expected = math.sqrt(n - 1)
        assert abs(spectrum.rho - expected) <= 1e-10 * expected, f"rho mismatch at n={n}"
        if n > 2:
            assert exact_zero_multiplicity(matrix) == n - 2, f"nullity mismatch at n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"star sweep took {elapsed:.2f}s, budget is 5s"
    announce("2 (star closed form)",
             f"rho = sqrt(n-1) within 1e-10 and nullity n-2 for n in 2..50 ({elapsed:.2f}s)")


def test_criterion_3_path_closed_form():
    start = time.perf_counter()
    for n in range(2, 51):
        matrix = build_level_matrix(rooted_path(n))
        spectrum = symmetric_eigenvalues(matrix)
        closed = path_rho_closed_form(n)
        assert abs(closed - spectrum.rho) <= 1e-8 * spectrum.rho, f"rho mismatch at n={n}"
        assert exact_zero_multiplicity(matrix) == 0, f"path nullity must be 0 at n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"path sweep took {elapsed:.2f}s, budget is 10s"
    announce("3 (path closed form)",
             f"tanh-equation rho matches the solver within 1e-8 for n in 2..50 ({elapsed:.2f}s)")


def test_criterion_4_exhaustive_verification(full_sweep):
    ledgers, elapsed = full_sweep
    required_rows = {
        "eigenvalue-cap", "trace-identity", "rho-mean-square",
        "rho-row-sum-lower", "rho-row-sum-upper", "strict-row-sum-lower",
        "rho-row-square", "rho-second-order", "quotient-bound",
        "eigenvalue-square", "eigenvalue-intervals", "energy-upper",
        "energy-upper-improved", "energy-identity", "zero-multiplicity",
        "one-positive-eigenvalue", "star-characterisation",
        "leaf-deletion-multiplicity", "zero-deletion-multiplicity",
        "interlacing",
    }
    for n, ledger in ledgers.items():
        assert ledger.tree_count == EXPECTED_COUNTS[n] == rooted_tree_count(n)
        assert ledger.violations == 0, f"violations at order {n}: {ledger.to_text()}"
    rows_at_10 = {c.name for c in ledgers[10].checks}
    missing = required_rows - rows_at_10
    assert not missing, f"checks missing from the sweep: {missing}"
    assert elapsed < 60.0, f"full sweep took {elapsed:.1f}s, budget is 60s"
    total = sum(l.tree_count for l in ledgers.values())
    announce("4 (exhaustive verification)",
             f"{total} trees across orders 1..10, zero violations ({elapsed:.1f}s)")


def test_criterion_5_extremal_structures(full_sweep):
    ledgers, _ = full_sweep
    for n in range(3, 11):
        star_seq = (0,) + (1,) * (n - 1)
        path_seq = tuple(range(n))
        rho = ledgers[n].extremal["rho"]
        energy = ledgers[n].extremal["energy"]
        assert rho.min_seq == star_seq, f"rho argmin at n={n} is not the star"
        assert rho.min_gap > 1e-9, f"rho argmin not unique at n={n}"
        assert rho.max_seq == path_seq, f"rho argmax at n={n} is not the path"
        assert rho.max_gap > 1e-9, f"rho argmax not unique at n={n}"
        assert energy.max_seq == path_seq, f"energy argmax at n={n} is not the path"
        assert energy.max_gap > 1e-9, f"energy argmax not unique at n={n}"
        assert rho.min_value == pytest.approx(math.sqrt(n - 1), rel=1e-10)
        assert rho.max_value == pytest.approx(path_rho_closed_form(n), rel=1e-8)
    announce("5 (extremal structures)",
             "star uniquely minimises rho, path uniquely maximises rho and "
             "energy for n in 3..10")


def test_criterion_6_leaf_rooted_star_cubic():
    for n in range(3, 31):
        tree = star_rooted_at_leaf(n)
        cubic = CharPoly((1, 0, 9 - 5 * n, 8 - 4 * n))
        exact = profile_charpoly(level_profile(levels(tree))).coeffs
        assert exact == cubic.coeffs + (0,) * (n - 3), \
            f"polynomial is not x^(n-3) times the cubic at n={n}"
        matrix = build_level_matrix(tree)
        spectrum = symmetric_eigenvalues(matrix)
        threshold = 1e-8 * max(1.0, spectrum.rho)
        nonzero = np.sort(spectrum.values[np.abs(spectrum.values) > threshold])[::-1]
        zeros = spectrum.values[np.abs(spectrum.values) <= threshold]
        assert len(nonzero) == 3 and len(zeros) == n - 3, f"wrong split at n={n}"
        assert np.abs(zeros).max(initial=0.0) <= threshold
        roots = charpoly_roots(cubic)
        assert np.abs(roots - nonzero).max() <= 1e-8, f"cubic mismatch at n={n}"
    assert abs(charpoly_roots(CharPoly((1, 0, -6, -4)))[0] - (1 + math.sqrt(3))) <= 1e-10
    announce("6 (leaf-rooted star cubic)",
             "the polynomial is exactly x^(n-3) times the cubic, and the cubic's roots "
             "match the nonzero spectrum within 1e-8, for n in 3..30")


def test_criterion_7_dual_pipeline_consistency():
    checked = 0
    for n in range(1, 9):
        for tree in enumerate_rooted_trees(n):
            matrix = build_level_matrix(tree)
            spectrum = symmetric_eigenvalues(matrix)
            roots = charpoly_roots(characteristic_polynomial(matrix))
            assert np.abs(roots - spectrum.values).max() <= 1e-7, \
                f"pipelines disagree on {tree.parent}"
            checked += 1
    assert checked == sum(EXPECTED_COUNTS[n] for n in range(1, 9))
    announce("7 (dual pipelines)",
             f"exact-polynomial roots match the dense solver within 1e-7 on "
             f"{checked} trees")


def test_criterion_8_lemma_suites(full_sweep):
    ledgers, _ = full_sweep
    lemma_rows = {
        "distance-domination": 1,   # level <= distance, equality iff path
        "row-sum-difference": 2,    # closed form == direct row-sum difference
        "second-order-identity": 1, # sum q_i == sum L_j^2, exact integers
    }
    for n, ledger in ledgers.items():
        by_name = {c.name: c for c in ledger.checks}
        for name, min_order in lemma_rows.items():
            if n < min_order:
                continue
            row = by_name[name]
            assert row.trees_checked == EXPECTED_COUNTS[n], f"{name} skipped trees at n={n}"
            assert row.violations == 0, f"{name} violated at order {n}"
    announce("8 (lemma suites)",
             "entrywise domination, row-sum-difference identity and "
             "second-order identity hold exactly across orders 1..10")
