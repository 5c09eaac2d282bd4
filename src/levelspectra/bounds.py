"""Machine-checkable bound reports for level spectra.

Every inequality, identity and closed form gets a named evaluator returning
one or more :class:`BoundReport` records. Evaluators read cached aggregates
(row sums, level index, H, second-order row sums) from a shared
:class:`SpectralData` carrier so the verification harness never recomputes
them per bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateDenominator, InvalidOrder, NoBracket, TooSmall
from .levelmatrix import LevelMatrix, second_order_row_sums
from .spectra import (
    DEFAULT_CLUSTER_TOL,
    Spectrum,
    level_profile,
    profile_nullity,
    profile_spectrum,
)
from .trees import RootedTree, levels

#: Uniform comparison tolerance scale: a relation is satisfied within
#: ``COMPARISON_TOL * max(1, |lhs|, |rhs|)``.
COMPARISON_TOL = 1e-9

#: Identities tied to the eigensolver (trace, energy) use a looser scale.
IDENTITY_TOL = 1e-8


@dataclass(frozen=True)
class BoundReport:
    """One evaluated relation: lhs <relation> rhs, with signed slack.

    ``slack`` is ``rhs - lhs`` for one-sided relations and the distance to
    the nearest endpoint for interval membership (negative when violated).
    ``equality_expected`` is set when the source theorem states an equality
    condition that applies to this input.
    """

    name: str
    lhs: float
    rhs: float | tuple[float, float]
    relation: str  # "<=", ">=", "==", "in"
    slack: float
    satisfied: bool
    equality_expected: bool | None = None

    def to_dict(self) -> dict:
        rhs = list(self.rhs) if isinstance(self.rhs, tuple) else self.rhs
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": rhs,
            "relation": self.relation,
            "slack": self.slack,
            "satisfied": self.satisfied,
            "equality_expected": self.equality_expected,
        }


def _report(name: str, lhs: float, rhs, relation: str,
            tol_scale: float = COMPARISON_TOL,
            equality_expected: bool | None = None) -> BoundReport:
    lhs = float(lhs)
    if relation == "in":
        lo, hi = float(rhs[0]), float(rhs[1])
        tol = tol_scale * max(1.0, abs(lhs), abs(lo), abs(hi))
        slack = min(lhs - lo, hi - lhs)
        satisfied = slack >= -tol
        rhs = (lo, hi)
    else:
        rhs = float(rhs)
        tol = tol_scale * max(1.0, abs(lhs), abs(rhs))
        slack = rhs - lhs
        if relation == "<=":
            satisfied = lhs <= rhs + tol
        elif relation == ">=":
            satisfied = lhs >= rhs - tol
        elif relation == "==":
            satisfied = abs(lhs - rhs) <= tol
        else:
            raise ValueError(f"unknown relation {relation!r}")
    return BoundReport(name, lhs, rhs, relation, slack, satisfied, equality_expected)


@dataclass(frozen=True)
class SpectralData:
    """Vertex levels + level matrix + spectrum, with the aggregates every
    bound needs.

    The matrix and the profile come from the vertex levels, which are all a
    level matrix depends on. The spectrum and the exact nullity come from the
    profile engine, so trees sharing a level profile share one quotient
    solve. The spectrum carries no Perron vector.
    """

    vertex_levels: np.ndarray
    profile: tuple[int, ...]
    matrix: LevelMatrix
    spectrum: Spectrum

    @classmethod
    def from_levels(cls, vertex_levels, tol: float = DEFAULT_CLUSTER_TOL,
                    method: str = "ql") -> "SpectralData":
        lev = np.asarray(vertex_levels, dtype=np.int64)
        profile = level_profile(lev)
        spectrum = profile_spectrum(profile, tol=tol, method=method)
        return cls(lev, profile, LevelMatrix.from_levels(lev), spectrum)

    @classmethod
    def from_tree(cls, tree: RootedTree, tol: float = DEFAULT_CLUSTER_TOL,
                  method: str = "ql") -> "SpectralData":
        return cls.from_levels(levels(tree), tol=tol, method=method)

    @property
    def n(self) -> int:
        return len(self.vertex_levels)

    @cached_property
    def nullity(self) -> int:
        """Exact multiplicity of the eigenvalue 0."""
        return profile_nullity(self.profile)

    @cached_property
    def q_vector(self) -> np.ndarray:
        """q_i = sum_j l_ij * L_j (row sums of the squared matrix)."""
        return second_order_row_sums(self.matrix)

    @cached_property
    def q_square_sum(self) -> int:
        """sum_i q_i^2 as an exact integer; in int64 it wraps from the
        rooted path of 206 vertices on."""
        return sum(q * q for q in self.q_vector.tolist())

    @property
    def is_path(self) -> bool:
        """The rooted path is the one tree with a vertex on every level."""
        return len(self.profile) == self.n


def _data(tree_or_data) -> SpectralData:
    if isinstance(tree_or_data, SpectralData):
        return tree_or_data
    return SpectralData.from_tree(tree_or_data)


# ---------------------------------------------------------------------------
# single-relation checks
# ---------------------------------------------------------------------------

def check_eigenvalue_cap(tree_or_data) -> BoundReport:
    """Every |eigenvalue| is at most (n-1) * l_max; equality only for n <= 2."""
    d = _data(tree_or_data)
    lhs = float(np.abs(d.spectrum.values).max())
    return _report("eigenvalue-cap", lhs, (d.n - 1) * d.matrix.l_max, "<=",
                   equality_expected=d.n <= 2)


def check_trace_identity(tree_or_data) -> BoundReport:
    """Sum of squared eigenvalues equals H, the trace of the squared matrix."""
    d = _data(tree_or_data)
    lhs = float((d.spectrum.values**2).sum())
    return _report("trace-identity", lhs, d.matrix.h_value, "==",
                   tol_scale=IDENTITY_TOL)


def check_rho_mean_square(tree_or_data) -> BoundReport:
    """rho^2 is at least the mean squared row of the matrix, H/n."""
    d = _data(tree_or_data)
    return _report("rho-mean-square", d.spectrum.rho**2, d.matrix.h_value / d.n,
                   ">=", equality_expected=d.n <= 2)


def check_rho_row_sum_bounds(tree_or_data) -> list[BoundReport]:
    """Average row sum (= 2*LI/n) <= rho <= maximum row sum; the lower bound
    is an equality only for n <= 2."""
    d = _data(tree_or_data)
    rho = d.spectrum.rho
    return [
        _report("rho-row-sum-lower", 2.0 * d.matrix.level_index / d.n, rho, "<=",
                equality_expected=d.n <= 2),
        _report("rho-row-sum-upper", rho, int(d.matrix.row_sums.max()), "<="),
    ]


def check_rho_row_square(tree_or_data) -> BoundReport:
    """rho >= sqrt(mean of squared row sums)."""
    d = _data(tree_or_data)
    sum_sq = float((d.matrix.row_sums.astype(np.int64) ** 2).sum())
    return _report("rho-row-square", d.spectrum.rho, math.sqrt(sum_sq / d.n), ">=")


def check_rho_second_order(tree_or_data) -> BoundReport:
    """rho >= sqrt(sum q_i^2 / sum L_j^2), the Rayleigh quotient of the
    row-sum vector."""
    d = _data(tree_or_data)
    denom = int((d.matrix.row_sums.astype(np.int64) ** 2).sum())
    if denom == 0:
        raise DegenerateDenominator("all row sums vanish (single vertex)")
    return _report("rho-second-order", d.spectrum.rho,
                   math.sqrt(float(d.q_square_sum) / denom), ">=")


def check_second_order_identity(tree_or_data) -> BoundReport:
    """sum_i q_i equals sum_j L_j^2 exactly (integers)."""
    d = _data(tree_or_data)
    lhs = int(d.q_vector.sum())
    rhs = int((d.matrix.row_sums.astype(np.int64) ** 2).sum())
    report = _report("second-order-identity", lhs, rhs, "==", tol_scale=0.0)
    # integers: demand exact equality regardless of scale
    return BoundReport(report.name, report.lhs, report.rhs, report.relation,
                       report.slack, lhs == rhs, report.equality_expected)


def check_quotient_bound(tree_or_data) -> BoundReport:
    """rho >= the largest eigenvalue of any 2x2 row-sum quotient matrix:
    max_i (LI - L_i + sqrt((LI - L_i)^2 + (n-1) L_i^2)) / (n-1)."""
    d = _data(tree_or_data)
    if d.n <= 1:
        raise TooSmall("quotient bound needs n > 1")
    li = d.matrix.level_index
    L = d.matrix.row_sums.astype(float)
    best = float(((li - L) + np.sqrt((li - L) ** 2 + (d.n - 1) * L**2)).max()) / (d.n - 1)
    return _report("quotient-bound", d.spectrum.rho, best, ">=")


def check_eigenvalue_square(tree_or_data) -> BoundReport:
    """Every eigenvalue satisfies lambda^2 <= (n-1)/n * H."""
    d = _data(tree_or_data)
    lhs = float((d.spectrum.values**2).max())
    return _report("eigenvalue-square", lhs, (d.n - 1) * d.matrix.h_value / d.n, "<=")


def check_eigenvalue_intervals(tree_or_data) -> list[BoundReport]:
    """Per-index eigenvalue intervals from the first two spectral moments
    (zero trace, squared sum H), valid for n > 2; plus the global interval
    that contains the whole spectrum."""
    d = _data(tree_or_data)
    n, h = d.n, float(d.matrix.h_value)
    if n <= 2:
        raise TooSmall("interval bounds need n > 2")
    lam = d.spectrum.values
    outer = math.sqrt((n - 1) * h / n)
    inner = math.sqrt(h / (n * (n - 1)))
    reports = [
        _report("eigenvalue-interval-1", float(lam[0]), (inner, outer), "in"),
        _report(f"eigenvalue-interval-{n}", float(lam[-1]), (-outer, -inner), "in"),
    ]
    for j in range(2, n):
        lo = -math.sqrt((j - 1) * h / (n * (n - j + 1)))
        hi = math.sqrt((n - j) * h / (j * n))
        reports.append(
            _report(f"eigenvalue-interval-{j}", float(lam[j - 1]), (lo, hi), "in")
        )
    reports.append(
        _report("spectrum-interval", float(np.abs(lam).max()), outer, "<=")
    )
    return reports


def check_energy_bounds(tree_or_data) -> list[BoundReport]:
    """Energy bounds: E <= sqrt(n*H) always, E <= sqrt((n-1)*H) for every
    tree other than the rooted path, and the identity E = 2*rho."""
    d = _data(tree_or_data)
    energy = d.spectrum.energy
    h = float(d.matrix.h_value)
    reports = [
        _report("energy-upper", energy, math.sqrt(d.n * h), "<="),
        _report("energy-identity", energy, 2.0 * d.spectrum.rho, "==",
                tol_scale=IDENTITY_TOL),
    ]
    if not d.is_path:
        reports.insert(1, _report("energy-upper-improved", energy,
                                  math.sqrt((d.n - 1) * h), "<="))
    return reports


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _bisect(f, lo: float, hi: float, xtol: float, max_iter: int = 200) -> float:
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise NoBracket(f"no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol or mid in (lo, hi):
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def path_rho_closed_form(n: int) -> float:
    """Spectral radius of the rooted path: 1/(cosh t - 1) where t > 0 solves
    tanh(t/2) * tanh(n*t/2) = 1/n.

    The left side increases from 0 towards 1, so the root is unique and the
    bracket [1e-9, 50] always contains it for n >= 2.
    """
    if n < 2:
        raise InvalidOrder(f"need n >= 2, got {n}")

    def f(t: float) -> float:
        return math.tanh(t / 2.0) * math.tanh(n * t / 2.0) - 1.0 / n

    t = _bisect(f, 1e-9, 50.0, xtol=1e-14)
    return 1.0 / (math.cosh(t) - 1.0)


def leafstar_cubic_roots(n: int) -> np.ndarray:
    """The three real roots (descending) of x^3 + (9-5n)x + (8-4n): the
    nonzero level eigenvalues of the star rooted at a non-central vertex."""
    if n < 3:
        raise InvalidOrder(f"need n >= 3, got {n}")
    b = 9 - 5 * n
    c = 8 - 4 * n

    def f(x: float) -> float:
        return (x * x + b) * x + c

    s = math.sqrt(-b / 3.0)  # critical points at +-s; three real roots
    bound = 1.0 + max(abs(b), abs(c))
    xtol = 1e-13 * bound
    roots = [
        _bisect(f, s, bound, xtol),
        _bisect(f, -s, s, xtol),
        _bisect(f, -bound, -s, xtol),
    ]
    return np.array(roots)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: name -> (evaluator, minimum order). Evaluators return a BoundReport or a
#: list of them; the minimum order gates trees the relation does not cover.
CHECKS: dict[str, tuple] = {
    "eigenvalue-cap": (check_eigenvalue_cap, 1),
    "trace-identity": (check_trace_identity, 1),
    "rho-mean-square": (check_rho_mean_square, 1),
    "rho-row-sums": (check_rho_row_sum_bounds, 1),
    "rho-row-square": (check_rho_row_square, 1),
    "rho-second-order": (check_rho_second_order, 2),
    "second-order-identity": (check_second_order_identity, 1),
    "quotient-bound": (check_quotient_bound, 2),
    "eigenvalue-square": (check_eigenvalue_square, 1),
    "eigenvalue-intervals": (check_eigenvalue_intervals, 3),
    "energy-bounds": (check_energy_bounds, 1),
}


def evaluate_checks(tree_or_data, names=None) -> list[BoundReport]:
    """Run the named bound checks (all by default) that apply at this order."""
    d = _data(tree_or_data)
    if names is None:
        names = list(CHECKS)
    reports: list[BoundReport] = []
    for name in names:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}; known: {sorted(CHECKS)}")
        func, min_order = CHECKS[name]
        if d.n < min_order:
            continue
        result = func(d)
        reports.extend(result if isinstance(result, list) else [result])
    return reports
