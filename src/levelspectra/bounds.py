"""Machine-checkable bound relations for level spectra, on stacks of profiles.

Every inequality, identity and closed form has one evaluator: it takes a
:class:`~levelspectra.spectra.SpectralData` stack, as the profile engine
returns it, and returns :class:`Comparison` records, every member's verdict
and slack from one stacked comparator. The relations stay arrays until
:meth:`Comparison.rows` turns one member's into Python values as they are
read; :func:`evaluate_checks` yields those rows of a stack of one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import Frozen, InvalidOrder, NoBracket, UnknownCheck
from .spectra import SpectralData

#: Uniform comparison tolerance scale: a relation is satisfied within
#: ``COMPARISON_TOL * max(1, |lhs|, |rhs|)``.
COMPARISON_TOL = 1e-9

#: Identities tied to the eigensolver (trace, energy) use a looser scale.
IDENTITY_TOL = 1e-8

#: The fields of a row of :meth:`Comparison.rows`, in order.
ROW_FIELDS = ("name", "lhs", "rhs", "relation", "slack", "satisfied", "equality_expected")


class Comparison(Frozen):
    """One relation, lhs <relation> rhs, evaluated over a stack.

    ``lhs``, ``slack`` and the verdicts ``ok`` have one entry per member,
    or one row per member when the relation has an index axis: a (k, m)
    relation stands for m relations named ``name-1`` .. ``name-m``. ``rhs``
    is an array of the same shape, or a (lo, hi) pair of them for "in".
    ``slack`` is ``rhs - lhs`` for "<=", ">=" and "==", and for "in" the
    distance ``min(lhs - lo, hi - lhs)`` to the nearer endpoint. Up to the
    comparison tolerance, a "<=" or "in" relation holds when its slack is
    >= 0, a ">=" relation when its slack is <= 0, and an "==" identity when
    its slack is 0: a violated ">=" has a positive slack.
    ``equality_expected`` is set when the source theorem states an equality
    condition that applies to the stack's order. ``covered`` is the (k,)
    mask of the members the relation applies to (``None``: every member).
    """

    __slots__ = ("name", "lhs", "rhs", "relation", "slack", "ok", "equality_expected",
                 "covered")

    def __init__(self, name: str, lhs: np.ndarray,
                 rhs: np.ndarray | tuple[np.ndarray, np.ndarray], relation: str,
                 slack: np.ndarray, ok: np.ndarray, equality_expected: bool | None,
                 covered: np.ndarray | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "relation", relation)  # "<=", ">=", "==", "in"
        object.__setattr__(self, "slack", slack)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "equality_expected", equality_expected)
        object.__setattr__(self, "covered", covered)

    def rows(self, member: int = 0):
        """One member's relations as tuples of Python values, one field each
        of :data:`ROW_FIELDS`, ``rhs`` a (lo, hi) tuple for "in" and
        ``satisfied`` the verdict; none where the relation does not cover
        the member. A generator: the arrays are converted 65,536 relations
        at a time, so no list of a member's relations is built."""
        if self.covered is not None and not self.covered[member]:
            return
        ends = self.rhs if self.relation == "in" else (self.rhs,)
        columns = [np.atleast_1d(a[member]) for a in (self.lhs, self.slack, self.ok, *ends)]
        for start in range(0, len(columns[0]), 65_536):
            lhs, slack, ok, *ends = (c[start:start + 65_536].tolist() for c in columns)
            rhs = zip(*ends) if self.relation == "in" else ends[0]
            names = ([self.name] if self.lhs.ndim == 1
                     else [f"{self.name}-{j}" for j in range(start + 1, start + len(lhs) + 1)])
            yield from ((name, left, right, self.relation, gap, holds, self.equality_expected)
                        for name, left, right, gap, holds in zip(names, lhs, rhs, slack, ok))


def _compare(name: str, lhs, rhs, relation: str, tol_scale: float = COMPARISON_TOL,
             equality_expected: bool | None = None, ok=None, covered=None) -> Comparison:
    """The stacked comparator: lhs <relation> rhs within
    ``tol_scale * max(1, |lhs|, |rhs|)``, member by member. ``ok``, when
    given, holds verdicts an exact test decided instead; ``covered``, when
    given, masks the members the relation applies to."""
    lhs = np.asarray(lhs, dtype=float)
    ends = [np.broadcast_to(np.asarray(x, dtype=float), lhs.shape)
            for x in (rhs if relation == "in" else [rhs])]
    tol = tol_scale * np.maximum.reduce([np.maximum(1.0, np.abs(lhs)), *map(np.abs, ends)])
    if relation == "in":
        lo, hi = rhs = tuple(ends)
        slack = np.minimum(lhs - lo, hi - lhs)
        test = slack >= -tol
    else:
        [rhs] = ends
        slack = rhs - lhs
        test = {"<=": lambda: lhs <= rhs + tol, ">=": lambda: lhs >= rhs - tol,
                "==": lambda: np.abs(lhs - rhs) <= tol}[relation]()
    test = test if ok is None else np.asarray(ok, dtype=bool)
    return Comparison(name, lhs, rhs, relation, slack, test, equality_expected, covered)


def _ratio(numerators: np.ndarray, factor: int, n: int) -> np.ndarray:
    """factor * x / n for every exact integer x >= 0 of ``numerators``, each
    the correctly rounded quotient, as Python's int / int gives it. numpy's
    float division rounds the same while the products are below 2**53,
    where they convert to binary64 exactly."""
    if numerators.dtype != object and int(numerators.max(initial=0)) * factor < 2 ** 53:
        return factor * numerators / n
    return np.array([factor * int(x) / n for x in numerators.tolist()])


# ---------------------------------------------------------------------------
# single-relation checks
# ---------------------------------------------------------------------------

def check_eigenvalue_cap(d: SpectralData) -> list[Comparison]:
    """Every |eigenvalue| is at most (n-1) * h, h the height (the largest
    entry); equality only for n <= 2."""
    return [_compare("eigenvalue-cap", np.abs(d.values).max(axis=1),
                     (d.n - 1) * d.heights, "<=", equality_expected=d.n <= 2)]


def check_trace_identity(d: SpectralData) -> list[Comparison]:
    """Sum of squared eigenvalues equals H, the trace of the squared matrix."""
    return [_compare("trace-identity", (d.values**2).sum(axis=1), d.h_value, "==",
                     tol_scale=IDENTITY_TOL)]


def check_rho_mean_square(d: SpectralData) -> list[Comparison]:
    """rho^2 is at least the mean squared row of the matrix, H/n."""
    return [_compare("rho-mean-square", d.rho**2, _ratio(d.h_value, 1, d.n), ">=",
                     equality_expected=d.n <= 2)]


def check_rho_row_sum_bounds(d: SpectralData) -> list[Comparison]:
    """Average row sum (= 2*LI/n) <= rho <= maximum row sum; the lower bound
    is an equality only for n <= 2."""
    return [
        _compare("rho-row-sum-lower", 2.0 * d.level_index.astype(float) / d.n, d.rho,
                 "<=", equality_expected=d.n <= 2),
        _compare("rho-row-sum-upper", d.rho, d.level_max(d.level_row_sums), "<="),
    ]


def check_rho_row_square(d: SpectralData) -> list[Comparison]:
    """rho >= sqrt(mean of squared row sums)."""
    return [_compare("rho-row-square", d.rho,
                     np.sqrt(d.row_square_sum.astype(float) / d.n), ">=")]


def check_rho_second_order(d: SpectralData) -> list[Comparison]:
    """rho >= sqrt(sum q_i^2 / sum L_j^2), the Rayleigh quotient of the
    row-sum vector; none below order 2, where every row sum vanishes."""
    if d.n < 2:
        return []
    return [_compare("rho-second-order", d.rho,
                     np.sqrt(d.q_square_sum.astype(float) / d.row_square_sum.astype(float)),
                     ">=")]


def check_second_order_identity(d: SpectralData) -> list[Comparison]:
    """sum_i q_i equals sum_j L_j^2 exactly (integers)."""
    lhs, rhs = d.second_order_sum, d.row_square_sum
    return [_compare("second-order-identity", lhs, rhs, "==", tol_scale=0.0,
                     ok=lhs == rhs)]


def check_quotient_bound(d: SpectralData) -> list[Comparison]:
    """rho >= the largest eigenvalue of any 2x2 row-sum quotient matrix:
    max_i (LI - L_i + sqrt((LI - L_i)^2 + (n-1) L_i^2)) / (n-1); none below
    order 2."""
    if d.n < 2:
        return []
    li = d.level_index.astype(float)[:, None]
    L = d.level_row_sums.astype(float)  # one entry per level: the same maximum
    best = d.level_max((li - L) + np.sqrt((li - L) ** 2 + (d.n - 1) * L**2)) / (d.n - 1)
    return [_compare("quotient-bound", d.rho, best, ">=")]


def check_eigenvalue_square(d: SpectralData) -> list[Comparison]:
    """Every eigenvalue satisfies lambda^2 <= (n-1)/n * H."""
    return [_compare("eigenvalue-square", (d.values**2).max(axis=1),
                     _ratio(d.h_value, d.n - 1, d.n), "<=")]


def check_eigenvalue_intervals(d: SpectralData) -> list[Comparison]:
    """The interval of each eigenvalue lambda_j, j = 1..n, from the first two
    spectral moments (zero trace, squared sum H; Wolkowicz and Styan), one
    relation with an index axis, valid for n > 2; plus the global interval
    that contains the whole spectrum. None below order 3."""
    n, h = d.n, d.h_value.astype(float)
    if n < 3:
        return []
    lam = d.values
    outer = np.sqrt((n - 1) * h / n)
    inner = np.sqrt(h / (n * (n - 1)))
    j, h = np.arange(1, n + 1), h[:, None]
    lo = -np.sqrt((j - 1) * h / (n * (n - j + 1)))
    hi = np.sqrt((n - j) * h / (j * n))  # outer at j = 1, and -lo at j = n
    # the trace is zero, so lambda_1 > 0 > lambda_n, each at least inner away
    lo[:, 0], hi[:, -1] = inner, -inner
    return [_compare("eigenvalue-interval", lam, (lo, hi), "in"),
            _compare("spectrum-interval", np.abs(lam).max(axis=1), outer, "<=")]


def check_energy_bounds(d: SpectralData) -> list[Comparison]:
    """Energy bounds: E <= sqrt(n*H) always, E <= sqrt((n-1)*H) for every
    tree other than the rooted path, and the identity E = 2*rho."""
    h = d.h_value.astype(float)
    return [
        _compare("energy-upper", d.energy, np.sqrt(d.n * h), "<="),
        _compare("energy-upper-improved", d.energy, np.sqrt((d.n - 1) * h), "<=",
                 covered=~d.is_path),
        _compare("energy-identity", d.energy, 2.0 * d.rho, "==", tol_scale=IDENTITY_TOL),
    ]


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _bisect(f, lo: float, hi: float, xtol: float) -> float:
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise NoBracket(f"no sign change on [{lo}, {hi}]")
    for _ in range(200):  # the path closed form's bracket reaches xtol in under 60 halvings
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


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: name -> (evaluator, ledger lines). An evaluator takes a stack and
#: returns a list of comparisons, none below the order its relations start
#: at. A verification ledger records each
#: comparison under its own name when that is one of the check's lines and
#: under the check's name otherwise, so the per-index eigenvalue intervals,
#: one comparison with an index axis, share one line.
CHECKS: dict[str, tuple] = {
    "eigenvalue-cap": (check_eigenvalue_cap, ("eigenvalue-cap",)),
    "trace-identity": (check_trace_identity, ("trace-identity",)),
    "rho-mean-square": (check_rho_mean_square, ("rho-mean-square",)),
    "rho-row-sums": (check_rho_row_sum_bounds, ("rho-row-sum-lower", "rho-row-sum-upper")),
    "rho-row-square": (check_rho_row_square, ("rho-row-square",)),
    "rho-second-order": (check_rho_second_order, ("rho-second-order",)),
    "second-order-identity": (check_second_order_identity, ("second-order-identity",)),
    "quotient-bound": (check_quotient_bound, ("quotient-bound",)),
    "eigenvalue-square": (check_eigenvalue_square, ("eigenvalue-square",)),
    "eigenvalue-intervals": (check_eigenvalue_intervals,
                             ("eigenvalue-intervals", "spectrum-interval")),
    "energy-bounds": (check_energy_bounds,
                      ("energy-upper", "energy-upper-improved", "energy-identity")),
}


def check_names(names) -> list[str]:
    """``names`` as a list (``None``: every check, in registry order), each
    one checked against :data:`CHECKS` before anything is evaluated; an
    unknown name raises :class:`~levelspectra.errors.UnknownCheck`."""
    names = list(CHECKS) if names is None else list(names)
    for name in names:
        if name not in CHECKS:
            raise UnknownCheck(f"unknown bound check {name!r}; known: {sorted(CHECKS)}")
    return names


def evaluate_checks(d: SpectralData, names=None):
    """The rows (see :meth:`Comparison.rows`) of the named bound checks (all
    by default) that apply at this order and to this tree, on a stack of one
    profile. The names are checked at the call (:func:`check_names`); the
    rows are then made as they are read, one check's comparisons at a
    time."""
    names = check_names(names)
    return (row for name in names for comparison in CHECKS[name][0](d)
            for row in comparison.rows())
