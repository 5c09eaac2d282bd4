import numpy as np
import pytest

from levelspectra import eigen
from levelspectra.eigen import symmetric_eigh
from levelspectra.errors import ConvergenceFailure
from levelspectra.levelmatrix import build_level_matrix
from levelspectra.trees import enumerate_rooted_trees


def random_symmetric(n, rng):
    a = rng.normal(size=(n, n))
    return a + a.T


def random_with_spectrum(eigenvalues, rng):
    """Symmetric matrix with a prescribed spectrum (random orthogonal basis)."""
    n = len(eigenvalues)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(eigenvalues) @ q.T


def assert_valid_decomposition(a, values, vectors, tol=1e-10):
    n = a.shape[0]
    scale = max(1.0, np.linalg.norm(a))
    assert list(values) == sorted(values, reverse=True)
    assert np.allclose(a @ vectors, vectors * values, atol=tol * scale)
    assert np.allclose(vectors.T @ vectors, np.eye(n), atol=1e-10)


class TestAgainstNumpy:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 21, 40])
    def test_random_matrices(self, n):
        rng = np.random.default_rng(n)
        for trial in range(3):
            a = random_symmetric(n, rng)
            values, vectors = symmetric_eigh(a)
            expected = np.linalg.eigvalsh(a)[::-1]
            assert np.allclose(values, expected, atol=1e-10 * max(1, np.abs(expected).max()))
            assert_valid_decomposition(a, values, vectors)

    def test_repeated_eigenvalues(self):
        rng = np.random.default_rng(7)
        spec = [5.0, 5.0, 5.0, 1.0, 1.0, 0.0, 0.0, 0.0, -3.0]
        a = random_with_spectrum(spec, rng)
        values, vectors = symmetric_eigh(a)
        assert np.allclose(values, sorted(spec, reverse=True), atol=1e-9)
        assert_valid_decomposition(a, values, vectors)

    def test_level_matrices(self):
        for n in range(1, 7):
            for tree in enumerate_rooted_trees(n):
                a = build_level_matrix(tree).entries.astype(float)
                values, vectors = symmetric_eigh(a)
                expected = np.linalg.eigvalsh(a)[::-1]
                assert np.allclose(values, expected, atol=1e-10 * max(1.0, expected[0]))
                assert_valid_decomposition(a, values, vectors)

    def test_zero_matrix(self):
        values, vectors = symmetric_eigh(np.zeros((4, 4)))
        assert np.allclose(values, 0)
        assert np.allclose(vectors @ vectors.T, np.eye(4))

    def test_diagonal_matrix(self):
        values, _ = symmetric_eigh(np.diag([3.0, -1.0, 4.0, 0.0]))
        assert values.tolist() == [4.0, 3.0, 0.0, -1.0]

    def test_1x1(self):
        values, vectors = symmetric_eigh(np.array([[2.5]]))
        assert values.tolist() == [2.5]
        assert vectors.tolist() == [[1.0]]


class TestFailureModes:
    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(eigen, "ITERATION_FACTOR", 0)
        a = random_symmetric(6, np.random.default_rng(0))
        with pytest.raises(ConvergenceFailure):
            symmetric_eigh(a)

    def test_non_square(self):
        with pytest.raises(ValueError):
            symmetric_eigh(np.zeros((2, 3)))
