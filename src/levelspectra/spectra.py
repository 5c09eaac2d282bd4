"""Spectral data of level matrices: numerical eigenvalues, exact integer
characteristic polynomial, exact nullity, and eigenvalue-cluster
multiplicities.

The level matrix depends only on the level profile (n_0, ..., n_h), the
number of vertices at each level. Its nonzero spectrum is the spectrum of
the (h+1)x(h+1) equitable-partition quotient S_ab = sqrt(n_a n_b)|a - b|,
and its other n-h-1 eigenvalues are exactly zero. The profile engine
(:func:`level_spectrum`, :func:`profile_spectrum`, :func:`profile_nullity`)
solves S once per profile, for its values only, and caches the result, so a
sweep over many trees does one small solve per distinct profile instead of
one dense n x n solve per tree. Only :func:`level_spectrum` also solves for
the eigenvectors, to lift the Perron vector to the vertices. The exact
nullity is n - rank(B) with the integer matrix B_ab = |a - b| n_b, which has
the rank of S. Its rank is certified by elimination modulo a prime, which
can only under-count the rank; when that count is short of full rank, the
exact rank comes from Bareiss elimination of B.

:func:`symmetric_eigenvalues` and :func:`exact_zero_multiplicity` on the
full n x n matrix are kept as the independent oracle paths the engine is
tested against.

Floating point (binary64) everywhere except the characteristic polynomial
and the rank computations, which are exact: arbitrary-precision integers,
or residues modulo a prime.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .eigen import symmetric_eigh
from .errors import AmbiguousCluster, LevelSpectraError, ResourceLimit, TooSmall
from .levelmatrix import LevelMatrix

#: Eigenvalues closer than ``DEFAULT_CLUSTER_TOL * max(1, rho)`` are treated
#: as one cluster. Integer matrices at desk scale separate far better than
#: this; exact rank is the authority for the zero cluster.
DEFAULT_CLUSTER_TOL = 1e-8

#: Distinct profiles whose quotient solves, spectra and nullities are kept.
#: Order 16 has 2**14 profiles; an entry is a few arrays of order n.
PROFILE_CACHE_SIZE = 1 << 16

#: Characteristic polynomials beyond this order are refused by default; the
#: coefficients grow combinatorially.
DEFAULT_CHARPOLY_CAP = 24


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")


def _as_array(matrix) -> np.ndarray:
    if isinstance(matrix, LevelMatrix):
        return matrix.entries
    return np.asarray(matrix)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending, with clusters and Perron data.

    ``perron`` is the sign-normalised eigenvector of the top eigenvalue
    (``None`` for 1x1 input, where no Perron vector exists, and for a
    :func:`profile_spectrum`, which fixes no vertex order).
    """

    values: np.ndarray
    clusters: tuple[tuple[float, int], ...]
    rho: float
    energy: float
    perron: np.ndarray | None

    @property
    def n(self) -> int:
        return len(self.values)

    def to_dict(self) -> dict:
        return {
            "values": [float(v) for v in self.values],
            "clusters": [{"value": float(v), "multiplicity": m} for v, m in self.clusters],
            "rho": float(self.rho),
            "energy": float(self.energy),
        }


def _cluster(values: np.ndarray, threshold: float) -> tuple[tuple[float, int], ...]:
    """Group the (descending) values whenever adjacent gaps stay within the
    threshold."""
    clusters = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i - 1] - values[i] > threshold:
            block = values[start:i]
            clusters.append((float(block.mean()), len(block)))
            start = i
    return tuple(clusters)


def symmetric_eigenvalues(matrix, tol: float = DEFAULT_CLUSTER_TOL,
                          method: str = "ql") -> Spectrum:
    """Full spectrum of a symmetric matrix by a dense in-repo solve.

    ``tol`` controls the cluster grouping (scaled by ``max(1, rho)``), not
    the solver itself, which iterates to machine precision.

    Oracle path: level matrices go through :func:`level_spectrum`; this
    dense n x n solve is the independent check it is tested against.
    """
    _check_tol(tol)
    a = _as_array(matrix)
    values, vectors = symmetric_eigh(a, method=method)
    rho = float(np.abs(values).max()) if len(values) else 0.0
    energy = float(np.abs(values).sum())
    perron = None
    if len(values) >= 2:
        top = vectors[:, 0].copy()
        top /= np.linalg.norm(top)
        if top[np.argmax(np.abs(top))] < 0:
            top = -top
        perron = top
    return Spectrum(
        values=values,
        clusters=_cluster(values, tol * max(1.0, rho)),
        rho=rho,
        energy=energy,
        perron=perron,
    )


def perron_vector(matrix, tol: float = DEFAULT_CLUSTER_TOL,
                  method: str = "ql") -> tuple[float, np.ndarray]:
    """Spectral radius and its strictly positive unit eigenvector.

    Valid for irreducible non-negative matrices of order >= 2, where the top
    eigenvalue is simple and its eigenvector can be taken entrywise positive.
    """
    a = _as_array(matrix)
    if a.shape[0] < 2:
        raise TooSmall("Perron vector needs a matrix of order >= 2")
    spectrum = symmetric_eigenvalues(a, tol=tol, method=method)
    v = spectrum.perron
    if np.any(v <= 0.0):
        raise LevelSpectraError(
            "top eigenvector is not strictly positive; input is not an "
            "irreducible non-negative matrix"
        )
    return spectrum.rho, v


@dataclass(frozen=True)
class CharPoly:
    """Exact monic characteristic polynomial det(xI - M), degree-descending
    integer coefficients."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in self.coeffs:
            acc = acc * x + c
        return acc

    def to_json(self) -> str:
        return json.dumps([str(c) for c in self.coeffs])


def characteristic_polynomial(matrix, cap: int = DEFAULT_CHARPOLY_CAP) -> CharPoly:
    """Exact integer coefficients via the Faddeev-LeVerrier recurrence.

    M_1 = I, c_k = -tr(A M_k)/k, M_{k+1} = A M_k + c_k I; every division is
    exact for integer input.
    """
    a = _as_array(matrix)
    n = a.shape[0]
    if n > cap:
        raise ResourceLimit(
            f"characteristic polynomial of order {n} exceeds the cap of {cap}"
        )
    A = [[int(a[i, j]) for j in range(n)] for i in range(n)]
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [1]
    for k in range(1, n + 1):
        AM = [
            [sum(A[i][t] * M[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        trace = sum(AM[i][i] for i in range(n))
        c, r = divmod(-trace, k)
        assert r == 0, "Faddeev-LeVerrier division must be exact on integers"
        coeffs.append(c)
        if k < n:
            M = AM
            for i in range(n):
                M[i][i] += c
    return CharPoly(tuple(coeffs))


def charpoly_roots(charpoly: CharPoly) -> np.ndarray:
    """Roots of the characteristic polynomial, descending.

    Uses the companion-matrix eigenproblem (numpy.roots) as a pipeline fully
    independent of the dense symmetric solver. All roots of a symmetric
    matrix's polynomial are real; a noticeable imaginary part flags a bug.
    """
    roots = np.roots([float(c) for c in charpoly.coeffs])
    scale = max(1.0, float(np.abs(roots).max())) if len(roots) else 1.0
    if len(roots) and float(np.abs(roots.imag).max()) > 1e-7 * scale:
        raise LevelSpectraError("complex roots from a symmetric matrix polynomial")
    return np.sort(roots.real)[::-1]


def exact_zero_multiplicity(matrix) -> int:
    """Exact nullity via Bareiss fraction-free integer elimination.

    Oracle path for level matrices, whose nullity :func:`profile_nullity`
    takes from the (h+1)x(h+1) profile matrix by a rank modulo a prime; this
    elimination is its fallback when that rank is not full.
    """
    a = _as_array(matrix)
    n = a.shape[0]
    M = [[int(a[i, j]) for j in range(n)] for i in range(n)]
    rank = 0
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(rank, n) if M[r][col] != 0), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        p = M[rank][col]
        top = M[rank]
        for r in range(rank + 1, n):
            row = M[r]
            head = row[col]
            for c in range(col + 1, n):
                q, rem = divmod(row[c] * p - head * top[c], prev)
                assert rem == 0, "Bareiss division must be exact"
                row[c] = q
            row[col] = 0
        prev = p
        rank += 1
        if rank == n:
            break
    return n - rank


def clustered_multiplicity(spectrum: Spectrum, value: float,
                           tol: float = DEFAULT_CLUSTER_TOL) -> int:
    """Number of eigenvalues within ``tol * max(1, rho)`` of ``value``.

    Raises :class:`AmbiguousCluster` when the selected group is not separated
    from the remaining eigenvalues by more than the same threshold.
    """
    _check_tol(tol)
    threshold = tol * max(1.0, spectrum.rho)
    dist = np.abs(spectrum.values - value)
    inside = dist <= threshold
    count = int(inside.sum())
    if count and count < len(spectrum.values):
        gap = float(np.abs(spectrum.values[inside][:, None]
                           - spectrum.values[~inside][None, :]).min())
        if gap <= threshold:
            raise AmbiguousCluster(
                f"clusters around {value} overlap at tolerance {threshold:.3e}"
            )
    return count


def positive_eigenvalue_count(spectrum: Spectrum,
                              tol: float = DEFAULT_CLUSTER_TOL) -> int:
    """Eigenvalues exceeding ``tol * max(1, rho)``; one for every level
    matrix of order >= 2."""
    return int((spectrum.values > tol * max(1.0, spectrum.rho)).sum())


# ---------------------------------------------------------------------------
# profile engine
# ---------------------------------------------------------------------------

def level_profile(vertex_levels) -> tuple[int, ...]:
    """(n_0, ..., n_h): the number of vertices at each level."""
    return tuple(int(c) for c in np.bincount(np.asarray(vertex_levels, dtype=np.int64)))


def _profile_key(profile) -> tuple[int, ...]:
    key = tuple(int(c) for c in profile)
    if not key or min(key) < 1:
        raise ValueError(f"a level profile needs positive counts, got {key}")
    return key


def quotient_matrix(profile) -> np.ndarray:
    """The symmetric quotient S_ab = sqrt(n_a n_b)|a - b| of a level profile.

    Each entry takes one rounding (the square root of the exact product),
    and is exact where n_a n_b is a square.
    """
    counts = np.asarray(_profile_key(profile), dtype=float)
    idx = np.arange(len(counts))
    return np.abs(idx[:, None] - idx[None, :]) * np.sqrt(np.outer(counts, counts))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=PROFILE_CACHE_SIZE)
def _profile_spectrum(profile: tuple[int, ...], tol: float, method: str) -> Spectrum:
    values, _ = symmetric_eigh(quotient_matrix(profile), method=method, vectors=False)
    zeros = np.zeros(sum(profile) - len(profile))
    values = _frozen(np.sort(np.concatenate([values, zeros]))[::-1].copy())
    rho = float(np.abs(values).max())
    return Spectrum(
        values=values,
        clusters=_cluster(values, tol * max(1.0, rho)),
        rho=rho,
        energy=float(np.abs(values).sum()),
        perron=None,
    )


def profile_spectrum(profile, tol: float = DEFAULT_CLUSTER_TOL,
                     method: str = "ql") -> Spectrum:
    """Spectrum of every level matrix with this profile, from one cached
    values-only solve of the quotient; ``perron`` is ``None``."""
    _check_tol(tol)
    return _profile_spectrum(_profile_key(profile), float(tol), method)


@lru_cache(maxsize=PROFILE_CACHE_SIZE)
def _perron_levels(profile: tuple[int, ...], method: str) -> np.ndarray:
    """The Perron vector per level, w_a = y_a / sqrt(n_a) for the unit top
    eigenvector y of S (n >= 2)."""
    _, vectors = symmetric_eigh(quotient_matrix(profile), method=method)
    w = vectors[:, 0] / np.linalg.norm(vectors[:, 0]) / np.sqrt(profile)
    if w[np.argmax(np.abs(w))] < 0:
        w = -w
    return _frozen(w)


def level_spectrum(vertex_levels, tol: float = DEFAULT_CLUSTER_TOL,
                   method: str = "ql") -> Spectrum:
    """Spectrum of the level matrix of a tree with these vertex levels.

    Values and clusters come from :func:`profile_spectrum`; the Perron
    vector is lifted to the vertices as x_i = y_l / sqrt(n_l) at l = level
    of i, which has unit norm. The vector solve behind it is cached per
    profile too.
    """
    lev = np.asarray(vertex_levels, dtype=np.int64)
    profile = level_profile(lev)
    spectrum = profile_spectrum(profile, tol=tol, method=method)
    if len(lev) < 2:
        return spectrum
    return dataclasses.replace(spectrum, perron=_perron_levels(profile, method)[lev])


#: Modulus of the rank certificate, the prime 2**31 - 1. Residues are below
#: 2**31, so a product of two stays below 2**62 and fits in int64.
RANK_PRIME = (1 << 31) - 1


def _rank_mod_p(rows) -> int:
    """Rank over GF(RANK_PRIME) of an integer matrix, a lower bound on its
    rank over the rationals.

    The entries are reduced on Python integers, so any input size is safe;
    the elimination then runs in int64 on the active submatrix.
    """
    m = np.array([[int(x) % RANK_PRIME for x in row] for row in rows], dtype=np.int64)
    n_rows, n_cols = m.shape
    rank = 0
    for col in range(n_cols):
        nonzero = np.flatnonzero(m[rank:, col])
        if not len(nonzero):
            continue
        pivot = rank + int(nonzero[0])
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        inverse = pow(int(m[rank, col]), RANK_PRIME - 2, RANK_PRIME)
        top = m[rank, col:] * inverse % RANK_PRIME
        below = m[rank + 1:, col:]
        below -= below[:, :1] * top
        below %= RANK_PRIME
        rank += 1
        if rank == n_rows:
            break
    return rank


def _certified_nullity(rows) -> int:
    """Exact nullity of a square integer matrix: a full rank modulo
    RANK_PRIME proves full rank over the rationals; any other outcome is
    decided by Bareiss elimination."""
    if _rank_mod_p(rows) == len(rows):
        return 0
    return exact_zero_multiplicity(np.array(rows, dtype=object))


@lru_cache(maxsize=PROFILE_CACHE_SIZE)
def _profile_nullity(profile: tuple[int, ...]) -> int:
    # B = D diag(n) with D_ab = |a - b| the distance matrix of the path on
    # h + 1 vertices, det D = (-1)^h h 2^(h-1). So for h >= 1, B is singular
    # modulo the prime only if the prime divides h or some n_b, and the
    # certificate decides for every profile below 2**31 - 1 vertices; the
    # one-level profile (h = 0, B = [[0]]) goes to the fallback.
    h1 = len(profile)
    b = [[abs(a - c) * profile[c] for c in range(h1)] for a in range(h1)]
    return _certified_nullity(b) + sum(profile) - h1


def profile_nullity(profile) -> int:
    """Exact multiplicity of the eigenvalue 0 of every level matrix with
    this profile: n - rank(B), B_ab = |a - b| n_b, with the rank of the
    (h+1)x(h+1) integer matrix B certified modulo the prime RANK_PRIME, and
    taken from Bareiss elimination of B where that rank is not full."""
    return _profile_nullity(_profile_key(profile))


def clear_profile_cache() -> None:
    """Forget every cached quotient solve, spectrum and nullity."""
    _profile_spectrum.cache_clear()
    _perron_levels.cache_clear()
    _profile_nullity.cache_clear()
