"""Spectral data of level matrices: numerical eigenvalues, exact integer
characteristic polynomial, exact nullity, and eigenvalue-cluster
multiplicities.

The level matrix depends only on the level profile (n_0, ..., n_h), the
number of vertices at each level. Its nonzero spectrum is the spectrum of
the (h+1)x(h+1) equitable-partition quotient S_ab = sqrt(n_a n_b)|a - b|,
and its other n-h-1 eigenvalues are exactly zero. The profile engine,
:func:`solve_profiles`, solves a (k, H+1) array of profiles of one order,
each row zero after its deepest level and the rows in any order, such as
each stack ``trees.profile_stacks`` yields, with one LAPACK ``eigvalsh``
call and one O(h^2) rank certificate per height h present, and returns
the stack: a :class:`SpectralData` of (k, n) values and (k,) rho,
energy and nullity arrays, which every check reads. It takes the counts
alone, no tolerance; it is the only way a profile is solved, it keeps no
state, and it refuses counts that are not positive integers up to a
row's deepest level and zero after it, an array of more than one order,
and a profile of more than MAX_LEVELS levels. The
exact nullity is n - rank(D_s), with D_s the distance matrix of a path on
s = h + 1 vertices, which has the rank of the level matrix. Its full rank
is certified once per height, on D_s itself in exact int64, from the
second differences of its rows, which are single entries; a height the
certificate does not decide (in practice only the one-level profile,
D_1 = [[0]]) takes its exact rank from Bareiss elimination of D_s. The
exact characteristic polynomial, :func:`profile_charpoly`, is x^(n-h-1)
times that of B = D_s diag(n_b), by Sylvester's determinant identity, and
each coefficient of B's is a sum over chains of levels whose terms share
one sign, taken by prefix sums in O(h^2) integer operations, under the
same MAX_LEVELS; its docstring proves what the signs imply.
:func:`_cluster`, the one clustering rule, groups a whole stack's values
at once, at the tolerance a check passes. A
:class:`Spectrum` is the one-spectrum view that ``analyze`` and
``special`` print and that the dense oracle returns;
:meth:`SpectralData.spectrum` is where a member meets a tolerance.

Oracle paths, kept to test the engine against:
:func:`symmetric_eigenvalues` runs the one dense oracle, the in-repo QL
solver (:mod:`levelspectra.eigen`), on the full n x n matrix or on a
quotient (:func:`quotient_matrix`), against the engine's ``eigvalsh``
values; :func:`exact_zero_multiplicity` is the n x n Bareiss elimination
(also the engine's fallback), against its nullity;
:func:`characteristic_polynomial`, Faddeev-LeVerrier on the n x n matrix
or on B, against :func:`profile_charpoly`; :func:`charpoly_roots` takes
the spectrum from the exact characteristic polynomial.

Floating point (binary64) everywhere except the characteristic polynomial
and the rank computations, which are exact: arbitrary-precision integers,
or int64 in the rank certificate, whose entries are at most 1,023 and
need no modulus.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from itertools import accumulate
from operator import mul

import numpy as np

from .eigen import symmetric_eigh
from .errors import AmbiguousCluster, Frozen, LevelSpectraError, ResourceLimit, TooSmall
from .levelmatrix import LevelMatrix
from .trees import RootedTree, levels

#: Eigenvalues closer than ``DEFAULT_CLUSTER_TOL * max(1, rho)`` are treated
#: as one cluster. Integer matrices at desk scale separate far better than
#: this; exact rank is the authority for the zero cluster.
DEFAULT_CLUSTER_TOL = 1e-8


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")


def _as_array(matrix) -> np.ndarray:
    if isinstance(matrix, LevelMatrix):
        return matrix.entries
    return np.asarray(matrix)


class Spectrum(Frozen):
    """One spectrum, from the dense oracle or of one member of a stack
    (:meth:`SpectralData.spectrum`): eigenvalues sorted descending, with
    rho, energy and the cluster tolerance ``tol`` they are grouped at.
    """

    def __init__(self, values: np.ndarray, tol: float, rho: float, energy: float):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "energy", energy)

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def clusters(self) -> tuple[tuple[float, int], ...]:
        """(mean, multiplicity) per cluster at ``tol * max(1, rho)``, by
        :func:`_cluster`. Each mean is the ``np.add.reduceat`` sum over the
        size: the last bits of a mean depend on the order of summation, and
        ``block.mean()`` sums in another order."""
        threshold = np.array([self.tol * max(1.0, self.rho)])
        starts = np.flatnonzero(_cluster(self.values[None], threshold)[0])
        sizes = np.diff(starts, append=self.n).tolist()
        sums = np.add.reduceat(self.values, starts).tolist()
        return tuple((total / size, size) for total, size in zip(sums, sizes))

    def to_dict(self) -> dict:
        return {
            "values": self.values.tolist(),
            "clusters": [{"value": float(v), "multiplicity": m} for v, m in self.clusters],
            "rho": float(self.rho),
            "energy": float(self.energy),
        }


def _cluster(values: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """The one clustering rule, on a (k, n) stack of descending rows with
    one threshold per row: (k, n), true where a value starts a cluster. A
    value joins the current cluster iff it lies within the threshold of the
    cluster's first (largest) value, so no cluster spans more than the
    threshold; the first value starts one whatever the threshold, +inf
    included. The rule runs column by column, over every row at once.

    A column equal to the one on its left in every row is skipped: with a
    threshold >= 0, its values join the cluster of their left neighbours
    and leave each row's first value as it was, so it starts nothing. The
    1,000,000-vertex star, two nonzero values around 999,998 zeros, runs
    three columns."""
    starts = np.zeros(values.shape, dtype=bool)
    top = np.full(len(values), math.inf)
    repeats = np.zeros(values.shape[1], dtype=bool)
    repeats[1:] = (values[:, 1:] == values[:, :-1]).all(axis=0)
    for j in np.flatnonzero(~repeats).tolist():
        column = values[:, j]
        starts[:, j] = new = (top - column > threshold) | (j == 0)
        top = np.where(new, column, top)
    return starts


def symmetric_eigenvalues(matrix, tol: float = DEFAULT_CLUSTER_TOL) -> Spectrum:
    """Full spectrum of a symmetric matrix by the dense in-repo QL solve.

    ``tol`` controls the cluster grouping (scaled by ``max(1, rho)``), not
    the solver itself, which iterates to machine precision.

    Oracle path: level matrices go through the LAPACK profile engine
    (:func:`solve_profiles`); this in-repo solve, of the n x n matrix or of
    a quotient, is the independent check it is tested against.
    """
    _check_tol(tol)
    values, _ = symmetric_eigh(_as_array(matrix))
    rho = float(np.abs(values).max()) if len(values) else 0.0
    return Spectrum(values, tol, rho, float(np.abs(values).sum()))


def perron_vector(matrix) -> tuple[float, np.ndarray]:
    """Spectral radius and its strictly positive unit eigenvector.

    Valid for irreducible non-negative matrices of order >= 2, where the top
    eigenvalue is simple and its eigenvector can be taken entrywise positive.
    A library entry point (the spectra demo calls it), on the dense oracle
    solve; no command or check uses it.
    """
    a = _as_array(matrix)
    if a.shape[0] < 2:
        raise TooSmall("Perron vector needs a matrix of order >= 2")
    values, vectors = symmetric_eigh(a)
    v = vectors[:, 0] / np.linalg.norm(vectors[:, 0])
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    if np.any(v <= 0.0):
        raise LevelSpectraError(
            "top eigenvector is not strictly positive; input is not an "
            "irreducible non-negative matrix"
        )
    return float(np.abs(values).max()), v


class CharPoly(Frozen):
    """Exact monic characteristic polynomial det(xI - M), degree-descending
    integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, CharPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

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


def characteristic_polynomial(matrix) -> CharPoly:
    """Exact integer coefficients via the Faddeev-LeVerrier recurrence.

    M_1 = I, c_k = -tr(A M_k)/k, M_{k+1} = A M_k + c_k I; every division is
    exact for integer input. O(n^4) integer operations and no size limit.

    Oracle path: no command calls it. On a tree's n x n level matrix or on
    the profile matrix B, it is the check of :func:`profile_charpoly`.
    """
    a = _as_array(matrix)
    n = a.shape[0]
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


def profile_charpoly(profile) -> CharPoly:
    """Exact characteristic polynomial det(xI - L) of the level matrix of a
    level profile (n_0, ..., n_h) of order n, its trailing zero counts
    ignored, in O(h^2) integer operations.

    L = E D E^T, with E the n x s level indicator (s = h + 1) and D_ab =
    |a - b| the distance matrix of a path on s vertices; E^T E = diag(n_b),
    so det(xI - L) = x^(n-s) q(x), q(x) = det(xI - B), B = D diag(n_b)
    (Sylvester). D's principal submatrix on a set S of m levels is the
    distance matrix of a path whose edge lengths are gaps(S), the
    differences of neighbours in S, so its determinant is (-1)^(m-1)
    2^(m-2) span(S) prod gaps(S) for m >= 2, span(S) = max S - min S, and 0
    for m = 1 (Bapat, Kirkland and Neumann, Linear Algebra Appl. 401,
    2005). Summing the principal minors of B, each that of D times n_S,
    the product of the counts over S,

        q(x) = x^s + sum_{m=2..s} c_m x^(s-m),
        c_m = -2^(m-2) sum_{|S|=m} span(S) prod gaps(S) n_S.

    Read upwards, S is a chain, and extending one that ends at level u to
    t > u multiplies prod gaps(S) n_S by (t - u) n_t. So with f_t (g_t) the
    sum of prod gaps(S) n_S (times min S) over the chains of m levels
    ending at t, those of m + 1 levels have f'_t = n_t sum_{u<t} (t - u)
    f_u, the second prefix sum of f at t - 1, and g' likewise, and the sum
    in c_m is sum_t (t f_t - g_t) = s F - FF - G: F and G the sums of f and
    g, FF = sum_t (s - t) f_t the last second prefix sum. Step m runs over
    the levels m - 1..h, where the chains of m levels end.

    Every term of c_m is positive and s levels hold a set of each size
    m <= s, so c_1 = 0, c_m < 0 for 2 <= m <= s, and c_s = -2^(h-1) h
    prod n_j. For h >= 1 it follows that:

    - q has one positive root, rho, and it is simple: q is real-rooted (B
      is similar to the symmetric diag(n)^(1/2) D diag(n)^(1/2)) and its
      coefficients change sign once, so by Descartes' rule of signs it has
      at most one positive root counted with multiplicity, and
      q(0) = c_s < 0 gives one (``one-positive-eigenvalue``);
    - the eigenvalues sum to -c_1 = 0, so the energy is 2 rho
      (``energy-identity``);
    - q(0) != 0, so 0 has multiplicity n - h - 1 in L: n - 2 iff h = 1,
      the star, and 0 iff h = n - 1, the path (``zero-multiplicity``,
      ``star-characterisation``, ``path-characterisation``);
    - a tree (n_0 = 1) with h >= 2 has rho > r = sqrt(n - 1): the pairs
      {0, j} of -c_2 = sum_{a<b} (b - a)^2 n_a n_b give sum_j j^2 n_j >
      n - 1, so q(r) <= r^(h-1) (r^2 + c_2) < 0. The star has rho = r.

    Those ledger lines check the engine against theorems. At h = 0,
    q(x) = x. Refused, as by :func:`solve_profiles`, above MAX_LEVELS
    levels.
    """
    counts = _profile_counts([profile])[0]
    counts = counts[counts > 0].tolist()
    s = len(counts)
    f, g = counts, list(map(mul, counts, range(s)))
    spans = []
    for m in range(1, s + 1):  # f and g over the levels m - 1 .. h
        a, b = list(accumulate(f)), list(accumulate(g))
        aa, bb = list(accumulate(a)), list(accumulate(b))
        spans.append(s * a[-1] - aa[-1] - b[-1])
        f, g = list(map(mul, counts[m:], aa)), list(map(mul, counts[m:], bb))
    return CharPoly((1, 0, *(-(x << k) for k, x in enumerate(spans[1:])))
                    + (0,) * (sum(counts) - s))


def charpoly_roots(charpoly: CharPoly) -> np.ndarray:
    """Roots of the characteristic polynomial, descending.

    Uses the companion-matrix eigenproblem (numpy.roots) as a pipeline fully
    independent of the dense symmetric solver. All roots of a symmetric
    matrix's polynomial are real; a noticeable imaginary part flags a bug.
    Oracle path: the acceptance tests replay spectra through it.
    """
    roots = np.roots([float(c) for c in charpoly.coeffs])
    scale = max(1.0, float(np.abs(roots).max())) if len(roots) else 1.0
    if len(roots) and float(np.abs(roots.imag).max()) > 1e-7 * scale:
        raise LevelSpectraError("complex roots from a symmetric matrix polynomial")
    return np.sort(roots.real)[::-1]


def exact_zero_multiplicity(matrix) -> int:
    """Exact nullity via Bareiss fraction-free integer elimination.

    Oracle path for level matrices, whose nullity the profile engine takes
    from the rank of the path's (h+1)x(h+1) distance matrix D_s, certified
    once per height in exact int64; this elimination of D_s is its fallback
    where the certificate does not decide.
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


# ---------------------------------------------------------------------------
# profile engine
# ---------------------------------------------------------------------------

def level_profile(vertex_levels) -> tuple[int, ...]:
    """(n_0, ..., n_h): the number of vertices at each level."""
    return tuple(int(c) for c in np.bincount(np.asarray(vertex_levels, dtype=np.int64)))


#: Most levels (h + 1) of a profile that is solved or whose polynomial is
#: taken. A deep profile costs O(h^3) in LAPACK's ``eigvalsh``, and O(h^2)
#: in the rank certificate (once per height, on D_s in int64, whose entries
#: are at most 1,023) and in the chain sums of :func:`profile_charpoly`
#: (integer operations on coefficients of 1,948 bits for the 1,024-level
#: path, 14,296 for the profile (1, 8000 x 1,023)). On a 2-vCPU host,
#: medians of 7 runs: ``analyze`` of rooted paths of 500 and 1,000 vertices
#: takes 0.23 and 0.37 s, of which ``solve_profiles`` takes 0.03 and 0.10 s;
#: ``profile_charpoly`` takes 0.2-0.3 s on the 1,024-level path and
#: 1.2-1.5 s on (1, 8000 x 1,023).
MAX_LEVELS = 1024


def _profile_counts(counts) -> np.ndarray:
    """``counts`` as a (k, h+1) int64 array of level profiles, the one check
    of a profile: ``ValueError`` unless every count is an integer, positive
    up to the row's deepest level and zero after it, and every row of one
    order, then ``ResourceLimit`` for more than MAX_LEVELS levels. So a row
    may be padded with zeros to the stack's width."""
    array = np.asarray(counts)
    if array.dtype.kind not in "iu" or array.ndim != 2 or not array.size:
        raise ValueError(f"level profiles need a (k, h+1) array of integers, got {counts!r}")
    array = array.astype(np.int64)
    orders = array.sum(axis=1)
    level = array > 0
    bad = np.flatnonzero((array < 0).any(axis=1) | ~level[:, 0]
                         | (level[:, 1:] & ~level[:, :-1]).any(axis=1) | (orders != orders[0]))
    if len(bad):
        raise ValueError("level profiles need positive counts, zero only after the deepest "
                         f"level, of one order, got {array[bad[0]].tolist()} in row {bad[0]}")
    if array.shape[1] > MAX_LEVELS:
        raise ResourceLimit(f"a level profile of {array.shape[1]} levels "
                            f"exceeds the limit of {MAX_LEVELS}")
    return array


def _path_distances(s: int) -> np.ndarray:
    """D_s, the distance matrix D_ab = |a - b| of a path on s vertices, in
    int64."""
    idx = np.arange(s, dtype=np.int64)
    return np.abs(idx[:, None] - idx[None, :])


def _quotient_stack(counts: np.ndarray) -> np.ndarray:
    """The quotients of a (k, h+1) array of level counts, as a (k, h+1, h+1)
    stack."""
    c = counts.astype(float)
    return _path_distances(counts.shape[1]) * np.sqrt(c[:, :, None] * c[:, None, :])


def quotient_matrix(profile) -> np.ndarray:
    """The symmetric quotient S_ab = sqrt(n_a n_b)|a - b| of a level profile.

    Each entry takes one rounding (the square root of the exact product),
    and is exact where n_a n_b is a square. Oracle path: the tests solve it
    with the in-repo solvers to check the engine, which builds its stacks
    of quotients itself. Refused, as by :func:`solve_profiles`, above
    MAX_LEVELS levels.
    """
    return _quotient_stack(_profile_counts([profile]))[0]


class SpectralData(Frozen):
    """A stack, as the profile engine returns it: level profiles
    (n_0, ..., n_h) of one order n, one row per member, each zero after its
    own deepest level up to the stack's width, with their spectra and exact
    nullities, and no tolerance. Its exact aggregates need no n x n matrix:
    a vertex on level a has row sum L_a = sum_b n_b |a - b| and second-order
    row sum q_a = sum_b n_b |a - b| L_b. A padded level has n_a = 0, so the
    sums over levels stay exact; a per-level array also holds values at the
    padded levels, which no vertex has, and :meth:`level_max` skips them.
    """

    def __init__(self, counts: np.ndarray,  # (k, H+1): one level profile per row
                 values: np.ndarray,  # (k, n): each member's eigenvalues, descending
                 rho: np.ndarray, energy: np.ndarray,  # (k,) each
                 nullity: np.ndarray):  # (k,): exact multiplicity of the eigenvalue 0
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "nullity", nullity)

    @classmethod
    def from_tree(cls, tree: RootedTree) -> "SpectralData":
        """The stack of one tree's level profile."""
        return solve_profiles([level_profile(levels(tree))])

    def take(self, rows) -> "SpectralData":
        """The stack of the members at ``rows``, in that order."""
        return SpectralData(self.counts[rows], self.values[rows], self.rho[rows],
                            self.energy[rows], self.nullity[rows])

    def spectrum(self, row: int = 0, tol: float = DEFAULT_CLUSTER_TOL) -> Spectrum:
        """One member's spectrum, clustered at ``tol``."""
        _check_tol(tol)
        return Spectrum(self.values[row], tol, float(self.rho[row]), float(self.energy[row]))

    @cached_property
    def n(self) -> int:
        return int(self.counts[0].sum())

    @cached_property
    def heights(self) -> np.ndarray:
        """(k,): each member's height h, the largest entry |a - b| of its
        matrix."""
        return (self.counts > 0).sum(axis=1) - 1

    @property
    def is_path(self) -> np.ndarray:
        """(k,): the rooted path is the one tree with a vertex on every
        level."""
        return self.heights + 1 == self.n

    def level_max(self, per_level: np.ndarray) -> np.ndarray:
        """(k,): the maximum of a (k, H+1) per-level array over each
        member's own levels, the padded ones skipped."""
        return np.where(self.counts > 0, per_level, per_level[:, :1]).max(axis=1)

    def _exact(self, array: np.ndarray, bound: int) -> np.ndarray:
        """``array`` in int64 when ``bound``, a bound on every value computed
        from it, is below 2**63, else in Python integers, so that no
        aggregate wraps. Each aggregate passes its own bound, with N = n h:
        N**2 for L_a, q_a, LI and H, n N**2 for sum_a n_a L_a**2 and
        sum_a n_a q_a, and n N**4 for sum_a n_a q_a**2. Every stack of
        n <= 128 computes in int64; the 200-vertex path takes Python
        integers only for its O(h) sum of q_a**2."""
        return array.astype(np.int64 if bound < 2 ** 63 else object)

    @cached_property
    def _nh_squared(self) -> int:
        """(n H)**2, H the stack's width less one, the bound of L_a, q_a, LI
        and H at every level, padded ones included."""
        return (self.n * (self.counts.shape[1] - 1)) ** 2

    def _weighted(self, per_level: np.ndarray, bound: int, power: int = 1) -> np.ndarray:
        """sum_a n_a * per_level[a]**power for every member, exact up to
        ``bound``."""
        return (self._exact(self.counts, bound) * self._exact(per_level, bound)**power).sum(axis=1)

    def _level_sums(self, per_level=1, power: int = 1) -> np.ndarray:
        """(k, h+1): sum_b n_b |a - b|**power per_level[b] at every level a,
        exact up to (n h)**2."""
        distances = _path_distances(self.counts.shape[1]) ** power
        return (self._exact(self.counts * per_level, self._nh_squared)
                @ self._exact(distances, self._nh_squared))

    @cached_property
    def level_row_sums(self) -> np.ndarray:
        """(k, h+1): L_a = sum_b n_b |a - b|, the row sum of every vertex on
        level a."""
        return self._level_sums()

    @cached_property
    def level_second_order_sums(self) -> np.ndarray:
        """(k, h+1): q_a = sum_b n_b |a - b| L_b, the row sum of the squared
        matrix at every vertex on level a."""
        return self._level_sums(self.level_row_sums)

    @cached_property
    def level_index(self) -> np.ndarray:
        """LI = half the sum of all entries = (1/2) sum_a n_a L_a."""
        return self._weighted(self.level_row_sums, self._nh_squared) // 2

    @cached_property
    def h_value(self) -> np.ndarray:
        """H = trace of the squared matrix = sum_{a,b} n_a n_b (a - b)^2."""
        return self._weighted(self._level_sums(power=2), self._nh_squared)

    @cached_property
    def row_square_sum(self) -> np.ndarray:
        """sum_i L_i^2 = sum_a n_a L_a^2."""
        return self._weighted(self.level_row_sums, self.n * self._nh_squared, 2)

    @cached_property
    def second_order_sum(self) -> np.ndarray:
        """sum_i q_i = sum_a n_a q_a, which equals sum_i L_i^2."""
        return self._weighted(self.level_second_order_sums, self.n * self._nh_squared)

    @cached_property
    def q_square_sum(self) -> np.ndarray:
        """sum_i q_i^2 = sum_a n_a q_a^2."""
        return self._weighted(self.level_second_order_sums, self.n * self._nh_squared**2, 2)


def _rank_certificate(matrix) -> np.ndarray:
    """The rank certificate of an (s, s) integer matrix, or of a (..., s, s)
    stack of them, in O(s^2) each: max(s - 1, 1) integers per matrix. A
    matrix is certified of full rank iff none of them is zero, and then
    their product is +-det.

    The unimodular second-difference matrix T replaces row a < s - 2 by
    M_a - 2 M_{a+1} + M_{a+2} and keeps the last two rows. Each of those
    first s - 2 rows of TM gives its entry in column a + 1, its pivot, or
    0 when any other entry of the row is nonzero. The last entry is the
    2x2 minor of M's last two rows on columns 0 and s - 1 (the 1x1 entry
    when s = 1): eliminating the single-entry pivot rows from the last two
    rows leaves only that minor. Both are read off the computed entries,
    so a certified matrix has full rank whatever its entries. The distance
    matrix D_s of a path passes from s = 2: the second difference of
    |a - b| is 2 at b = a + 1 and 0 elsewhere, and the minor is -h. Every
    value is exact in int64 while the entries stay below 2**31 in absolute
    value; D_s's are at most MAX_LEVELS - 1.
    """
    m = np.asarray(matrix, dtype=np.int64)
    rows = m[..., :-2, :] - 2 * m[..., 1:-1, :] + m[..., 2:, :]
    a = np.arange(rows.shape[-2])
    pivots = rows[..., a, a + 1]
    rows[..., a, a + 1] = 0
    pivots[rows.any(axis=-1)] = 0
    if m.shape[-1] == 1:
        minor = m[..., 0, 0]
    else:
        minor = m[..., -2, 0] * m[..., -1, -1] - m[..., -2, -1] * m[..., -1, 0]
    return np.concatenate([pivots, minor[..., None]], axis=-1)


def solve_profiles(counts) -> SpectralData:
    """The profile engine: the stack of a (k, H+1) array of level profiles
    of one order, each row zero after its deepest level, in any order, such
    as ``trees.profile_stacks`` yields.

    The rows of each height h present are solved together, on their first
    s = h + 1 columns, so a padded row solves exactly as the unpadded one,
    and each row's results do not depend on the other rows or their order.
    Their values come from one LAPACK ``eigvalsh`` call on the s x s
    quotients, padded with n - s exact zeros. Their nullity is
    n - rank(D_s), with D_s the distance matrix of a path on s vertices:
    the level matrix is E D_s E^T, with E the n x s level indicator, and
    E^T E = diag(n_b) is invertible, since the counts are checked positive,
    so E has full column rank and the level matrix, like the profile matrix
    B = D_s diag(n_b), has the rank of D_s. That rank depends on the height
    alone: :func:`_rank_certificate` certifies it full once per height, on
    D_s's computed entries, and a height it does not decide is taken by
    Bareiss elimination of D_s. Counts that are negative or not integers, a
    zero root count or a zero before a row's deepest level, or rows of more
    than one order, raise ``ValueError``, and more than MAX_LEVELS levels
    ``ResourceLimit``, before anything is solved.
    """
    counts = _profile_counts(counts)
    k = len(counts)
    n = int(counts[0].sum())
    sizes = (counts > 0).sum(axis=1)  # levels, h + 1
    values = np.zeros((k, n))
    rho, energy = np.empty(k), np.empty(k)
    nullity = np.empty(k, dtype=np.int64)
    for s in np.flatnonzero(np.bincount(sizes)).tolist():  # np.unique: 16 ms first call
        rows = np.flatnonzero(sizes == s)
        group = counts[rows, :s]
        quotient_values = np.linalg.eigvalsh(_quotient_stack(group))  # ascending
        rho[rows] = np.abs(quotient_values).max(axis=1)
        energy[rows] = np.abs(quotient_values).sum(axis=1)

        # Each member's n values, descending, in a row of a (k, n) array: the
        # positive quotient values, then n - h - 1 exact zeros, then the rest.
        desc = quotient_values[:, ::-1]
        positive = (desc > 0).sum(axis=1)
        j = np.arange(s)
        cols = j + np.where(j < positive[:, None], 0, n - s)
        values[rows[:, None], cols] = desc

        distances = _path_distances(s)
        full = _rank_certificate(distances).all()
        nullity[rows] = n - s + (0 if full else exact_zero_multiplicity(distances))
    values.setflags(write=False)
    return SpectralData(counts, values, rho, energy, nullity)
