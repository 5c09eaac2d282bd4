"""Machine-checkable bound reports for level spectra.

Every inequality, identity and closed form gets a named evaluator returning
one or more :class:`BoundReport` records. Evaluators read cached aggregates
(row sums, level index, H, second-order row sums) from a shared
:class:`SpectralData` carrier, built from the level profile alone, so the
verification harness never recomputes them per bound or per tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateDenominator, InvalidOrder, NoBracket, TooSmall
from .spectra import (
    DEFAULT_CLUSTER_TOL,
    Spectrum,
    level_profile,
    solve_profiles,
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
    """A level profile and its spectrum, with the aggregates every bound
    needs.

    A level matrix depends only on its profile (n_0, ..., n_h), so every
    aggregate is an exact integer function of the profile, found without the
    n x n matrix: a vertex on level a has row sum L_a = sum_b n_b |a - b| and
    second-order row sum q_a = sum_b n_b |a - b| L_b. The spectrum and the
    exact nullity come from one solve of the profile engine
    (``spectra.solve_profiles``), which ``verify`` shares between the trees
    of a profile. The spectrum carries no Perron vector.
    """

    profile: tuple[int, ...]
    spectrum: Spectrum
    nullity: int  # exact multiplicity of the eigenvalue 0

    @classmethod
    def from_profile(cls, profile, tol: float = DEFAULT_CLUSTER_TOL) -> "SpectralData":
        key = tuple(int(c) for c in profile)
        return cls(key, *solve_profiles([key], tol)[key])

    @classmethod
    def from_tree(cls, tree: RootedTree, tol: float = DEFAULT_CLUSTER_TOL) -> "SpectralData":
        return cls.from_profile(level_profile(levels(tree)), tol=tol)

    @cached_property
    def n(self) -> int:
        return sum(self.profile)

    @property
    def l_max(self) -> int:
        """The largest entry |a - b| of the matrix: the height h."""
        return len(self.profile) - 1

    @property
    def is_path(self) -> bool:
        """The rooted path is the one tree with a vertex on every level."""
        return len(self.profile) == self.n

    @cached_property
    def _level_distances(self) -> np.ndarray:
        """|a - b| over the levels a, b = 0..h, in int64."""
        idx = np.arange(len(self.profile), dtype=np.int64)
        return np.abs(idx[:, None] - idx[None, :])

    def _level_sum(self, values: np.ndarray, power: int = 1) -> int:
        """sum_a n_a * values[a]**power over the levels, in Python integers."""
        return sum(c * v**power for c, v in zip(self.profile, values.tolist()))

    @cached_property
    def level_row_sums(self) -> np.ndarray:
        """L_a = sum_b n_b |a - b|: the row sum of every vertex on level a."""
        return self._level_distances @ np.array(self.profile)

    @cached_property
    def level_second_order_sums(self) -> np.ndarray:
        """q_a = sum_b n_b |a - b| L_b: the row sum of the squared matrix at
        every vertex on level a."""
        return self._level_distances @ (np.array(self.profile) * self.level_row_sums)

    @cached_property
    def level_index(self) -> int:
        """LI = half the sum of all entries = (1/2) sum_a n_a L_a."""
        return self._level_sum(self.level_row_sums) // 2

    @cached_property
    def h_value(self) -> int:
        """H = trace of the squared matrix = sum_{a,b} n_a n_b (a - b)^2."""
        counts = np.array(self.profile)
        return int(counts @ self._level_distances**2 @ counts)

    @cached_property
    def row_square_sum(self) -> int:
        """sum_i L_i^2 = sum_a n_a L_a^2, exactly."""
        return self._level_sum(self.level_row_sums, 2)

    @cached_property
    def q_square_sum(self) -> int:
        """sum_i q_i^2 = sum_a n_a q_a^2, exactly; in int64 it would wrap
        from the rooted path of 206 vertices on."""
        return self._level_sum(self.level_second_order_sums, 2)


# ---------------------------------------------------------------------------
# single-relation checks
# ---------------------------------------------------------------------------

def check_eigenvalue_cap(d: SpectralData) -> BoundReport:
    """Every |eigenvalue| is at most (n-1) * l_max; equality only for n <= 2."""
    lhs = float(np.abs(d.spectrum.values).max())
    return _report("eigenvalue-cap", lhs, (d.n - 1) * d.l_max, "<=",
                   equality_expected=d.n <= 2)


def check_trace_identity(d: SpectralData) -> BoundReport:
    """Sum of squared eigenvalues equals H, the trace of the squared matrix."""
    lhs = float((d.spectrum.values**2).sum())
    return _report("trace-identity", lhs, d.h_value, "==",
                   tol_scale=IDENTITY_TOL)


def check_rho_mean_square(d: SpectralData) -> BoundReport:
    """rho^2 is at least the mean squared row of the matrix, H/n."""
    return _report("rho-mean-square", d.spectrum.rho**2, d.h_value / d.n,
                   ">=", equality_expected=d.n <= 2)


def check_rho_row_sum_bounds(d: SpectralData) -> list[BoundReport]:
    """Average row sum (= 2*LI/n) <= rho <= maximum row sum; the lower bound
    is an equality only for n <= 2."""
    rho = d.spectrum.rho
    return [
        _report("rho-row-sum-lower", 2.0 * d.level_index / d.n, rho, "<=",
                equality_expected=d.n <= 2),
        _report("rho-row-sum-upper", rho, int(d.level_row_sums.max()), "<="),
    ]


def check_rho_row_square(d: SpectralData) -> BoundReport:
    """rho >= sqrt(mean of squared row sums)."""
    return _report("rho-row-square", d.spectrum.rho,
                   math.sqrt(float(d.row_square_sum) / d.n), ">=")


def check_rho_second_order(d: SpectralData) -> BoundReport:
    """rho >= sqrt(sum q_i^2 / sum L_j^2), the Rayleigh quotient of the
    row-sum vector."""
    denom = d.row_square_sum
    if denom == 0:
        raise DegenerateDenominator("all row sums vanish (single vertex)")
    return _report("rho-second-order", d.spectrum.rho,
                   math.sqrt(float(d.q_square_sum) / denom), ">=")


def check_second_order_identity(d: SpectralData) -> BoundReport:
    """sum_i q_i equals sum_j L_j^2 exactly (integers)."""
    lhs = d._level_sum(d.level_second_order_sums)
    rhs = d.row_square_sum
    report = _report("second-order-identity", lhs, rhs, "==", tol_scale=0.0)
    # integers: demand exact equality regardless of scale
    return BoundReport(report.name, report.lhs, report.rhs, report.relation,
                       report.slack, lhs == rhs, report.equality_expected)


def check_quotient_bound(d: SpectralData) -> BoundReport:
    """rho >= the largest eigenvalue of any 2x2 row-sum quotient matrix:
    max_i (LI - L_i + sqrt((LI - L_i)^2 + (n-1) L_i^2)) / (n-1)."""
    if d.n <= 1:
        raise TooSmall("quotient bound needs n > 1")
    li = d.level_index
    L = d.level_row_sums.astype(float)  # one entry per level: the same maximum
    best = float(((li - L) + np.sqrt((li - L) ** 2 + (d.n - 1) * L**2)).max()) / (d.n - 1)
    return _report("quotient-bound", d.spectrum.rho, best, ">=")


def check_eigenvalue_square(d: SpectralData) -> BoundReport:
    """Every eigenvalue satisfies lambda^2 <= (n-1)/n * H."""
    lhs = float((d.spectrum.values**2).max())
    return _report("eigenvalue-square", lhs, (d.n - 1) * d.h_value / d.n, "<=")


def check_eigenvalue_intervals(d: SpectralData) -> list[BoundReport]:
    """Per-index eigenvalue intervals from the first two spectral moments
    (zero trace, squared sum H), valid for n > 2; plus the global interval
    that contains the whole spectrum."""
    n, h = d.n, float(d.h_value)
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


def check_energy_bounds(d: SpectralData) -> list[BoundReport]:
    """Energy bounds: E <= sqrt(n*H) always, E <= sqrt((n-1)*H) for every
    tree other than the rooted path, and the identity E = 2*rho."""
    energy = d.spectrum.energy
    h = float(d.h_value)
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

#: name -> (evaluator, minimum order, ledger lines). Evaluators return a
#: BoundReport or a list of them; the minimum order gates trees the relation
#: does not cover. A verification ledger records each report under its own
#: name when that is one of the check's lines and under the check's name
#: otherwise, so the per-index eigenvalue intervals share one line.
CHECKS: dict[str, tuple] = {
    "eigenvalue-cap": (check_eigenvalue_cap, 1, ("eigenvalue-cap",)),
    "trace-identity": (check_trace_identity, 1, ("trace-identity",)),
    "rho-mean-square": (check_rho_mean_square, 1, ("rho-mean-square",)),
    "rho-row-sums": (check_rho_row_sum_bounds, 1,
                     ("rho-row-sum-lower", "rho-row-sum-upper")),
    "rho-row-square": (check_rho_row_square, 1, ("rho-row-square",)),
    "rho-second-order": (check_rho_second_order, 2, ("rho-second-order",)),
    "second-order-identity": (check_second_order_identity, 1,
                              ("second-order-identity",)),
    "quotient-bound": (check_quotient_bound, 2, ("quotient-bound",)),
    "eigenvalue-square": (check_eigenvalue_square, 1, ("eigenvalue-square",)),
    "eigenvalue-intervals": (check_eigenvalue_intervals, 3,
                             ("eigenvalue-intervals", "spectrum-interval")),
    "energy-bounds": (check_energy_bounds, 1,
                      ("energy-upper", "energy-upper-improved", "energy-identity")),
}


def evaluate_checks(d: SpectralData, names=None) -> list[BoundReport]:
    """Run the named bound checks (all by default) that apply at this order."""
    if names is None:
        names = list(CHECKS)
    reports: list[BoundReport] = []
    for name in names:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}; known: {sorted(CHECKS)}")
        func, min_order, _ = CHECKS[name]
        if d.n < min_order:
            continue
        result = func(d)
        reports.extend(result if isinstance(result, list) else [result])
    return reports
