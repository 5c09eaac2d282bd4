"""Enumeration-driven theorem harness.

Runs every bound, identity, and structural claim over all rooted trees of a
given order and produces a pass/fail ledger with extremal statistics.
Every verdict but ``distance-domination`` depends only on a tree's level
profile or on a (profile, leaf level) pair, so the calling process computes
it once, on each stack of ``trees.profile_stacks`` (up to STACK_SIZE
profiles, whatever their heights), into tables by profile index, and the
walk over the trees looks it up tree by tree; each such line's worst slack
is folded there, stack by stack. The extremal statistics come from the
tables alone. Violations are collected rather than fail-fast, so a bad run
reports every offending tree.
"""

from __future__ import annotations

import math
import os
from itertools import chain, islice
from typing import Callable, NamedTuple

import numpy as np

from . import bounds
from .bounds import COMPARISON_TOL
from .errors import InvalidOrder, ResourceLimit
from .spectra import DEFAULT_CLUSTER_TOL, SpectralData, _check_tol, _cluster, solve_profiles
from .trees import (STACK_SIZE, check_enumeration_cap, first_level_sequence, has_one_tree,
                    level_sequences, profile_counts, profile_ids, profile_index,
                    profile_stacks, rooted_tree_count)

#: Interlacing slack scale: eigenvalues of a leaf-deleted tree may leave the
#: bracketing interval by at most ``1e-8 * max(1, rho)``.
INTERLACING_TOL = 1e-8

#: How many offending trees to record per check before truncating.
MAX_OFFENDERS = 10

#: Lowest order at which ``verify_order`` starts a worker pool. CLI wall
#: time of ``verify --order N --format json``, ``--jobs 1`` against
#: ``--jobs 2`` with the pool started at each order, 12 interleaved runs per
#: order on a 2-vCPU host (medians; ``LEVEL_SPECTRA_CAP=18``):
#:
#:   order      trees   --jobs 1  --jobs 2  --jobs 2 faster
#:      17    634,847    2.564 s   2.475 s   8 of 12
#:      18  1,721,159    6.103 s   5.281 s  12 of 12
#:
#: Order 18 is the first at which two workers win at least 10 of 12 runs (a
#: second series gave 8 and 9 of 12 at orders 17 and 18). The calling
#: process builds the verdict tables before any pool starts, so a pool only
#: splits the walk, and below that it costs more to start and to hand each
#: worker the tables than it saves.
POOL_MIN_ORDER = 18

#: The statistics whose arg-extreme trees a ledger names.
EXTREMAL_STATS = ("rho", "energy")


def _bound_check_of_line() -> dict[str, str]:
    """Ledger line -> the bound check that reports under it."""
    return {line: name for name, (_, lines) in bounds.CHECKS.items() for line in lines}


def available_checks() -> list[str]:
    """Every name accepted by the ``selection`` arguments: each bound check,
    each ledger line of one, and each structural check."""
    return sorted(set(bounds.CHECKS) | set(_bound_check_of_line()) | set(STRUCTURAL_CHECKS))


def _resolve_selection(selection) -> tuple[dict[str, set[str]], list[str]]:
    """Split a selection into the bound checks to run, each with the ledger
    lines to record, and the structural checks. A bound check's name selects
    all its lines; a line's name selects that line of its check."""
    if selection is None:
        return ({name: set(lines) for name, (_, lines) in bounds.CHECKS.items()},
                list(STRUCTURAL_CHECKS))
    if not selection:
        raise ValueError("selection names no check; pass None to run them all")
    check_of_line = _bound_check_of_line()
    bound_lines: dict[str, set[str]] = {}
    structural: list[str] = []
    for name in selection:
        if name in bounds.CHECKS:
            bound_lines.setdefault(name, set()).update(bounds.CHECKS[name][1])
        elif name in check_of_line:
            bound_lines.setdefault(check_of_line[name], set()).add(name)
        elif name in STRUCTURAL_CHECKS:
            if name not in structural:
                structural.append(name)
        else:
            raise KeyError(f"unknown check {name!r}; known: {available_checks()}")
    return bound_lines, structural


def _label(seq: tuple[int, ...]) -> str:
    """A level sequence as the ledger prints it."""
    return " ".join(map(str, seq))


class CheckStat:
    """Aggregate of one named check over many trees."""

    __slots__ = ("name", "trees_checked", "violations", "worst_slack", "offenders")

    def __init__(self, name: str, trees_checked: int = 0, violations: int = 0,
                 worst_slack: float = math.inf, offenders=()):
        self.name = name
        self.trees_checked = trees_checked
        self.violations = violations
        self.worst_slack = worst_slack
        self.offenders: list[tuple[int, ...]] = list(offenders)

    def _fields(self) -> tuple:
        return self.name, self.trees_checked, self.violations, self.worst_slack, self.offenders

    def __eq__(self, other) -> bool:
        return isinstance(other, CheckStat) and self._fields() == other._fields()

    def record(self, ok: bool, slack: float) -> None:
        """Count one tree, verdict and slack: the fold of the tests'
        tree-by-tree oracle. ``verify_order`` builds each line whole from
        the walk's counts instead."""
        self.trees_checked += 1
        if not math.isnan(slack):
            self.worst_slack = min(self.worst_slack, slack)
        if not ok:
            self.violations += 1

    def offend(self, seq: tuple[int, ...]) -> None:
        """Name an offending tree by its level sequence; the first
        MAX_OFFENDERS named are kept. Like ``record``, only the tests'
        tree-by-tree oracle calls it."""
        if len(self.offenders) < MAX_OFFENDERS:
            self.offenders.append(seq)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trees_checked": self.trees_checked,
            "violations": self.violations,
            "worst_slack": None if math.isinf(self.worst_slack) else self.worst_slack,
            "offenders": [_label(seq) for seq in self.offenders],
        }


class ExtremalStat:
    """Best/worst trees for one statistic, each the first in walk order,
    kept as its level sequence, with runner-up values (the second from that
    end over all trees) for uniqueness gaps."""

    __slots__ = ("stat", "min_value", "min_seq", "runner_min", "max_value", "max_seq",
                 "runner_max")

    def __init__(self, stat: str, min_value: float = math.inf, min_seq: tuple[int, ...] = (),
                 runner_min: float = math.inf, max_value: float = -math.inf,
                 max_seq: tuple[int, ...] = (), runner_max: float = -math.inf):
        self.stat = stat
        self.min_value = min_value
        self.min_seq = min_seq
        self.runner_min = runner_min
        self.max_value = max_value
        self.max_seq = max_seq
        self.runner_max = runner_max

    def record(self, value: float, seq: tuple[int, ...]) -> None:
        """Fold in the next tree in walk order: only the tests' tree-by-tree oracle calls it."""
        if value < self.min_value:
            self.runner_min = self.min_value
            self.min_value, self.min_seq = value, seq
        elif value < self.runner_min:
            self.runner_min = value
        if value > self.max_value:
            self.runner_max = self.max_value
            self.max_value, self.max_seq = value, seq
        elif value > self.runner_max:
            self.runner_max = value

    @property
    def min_gap(self) -> float:
        return self.runner_min - self.min_value

    @property
    def max_gap(self) -> float:
        return self.max_value - self.runner_max

    def to_dict(self) -> dict:
        return {
            "stat": self.stat,
            "min": {"value": self.min_value, "tree": _label(self.min_seq),
                    "gap": None if math.isinf(self.runner_min) else self.min_gap},
            "max": {"value": self.max_value, "tree": _label(self.max_seq),
                    "gap": None if math.isinf(self.runner_max) else self.max_gap},
        }


class VerificationLedger:
    __slots__ = ("order", "tree_count", "checks", "extremal")

    def __init__(self, order: int, tree_count: int, checks: list[CheckStat],
                 extremal: dict[str, ExtremalStat]):
        self.order = order
        self.tree_count = tree_count
        self.checks = checks
        self.extremal = extremal

    @property
    def violations(self) -> int:
        return sum(c.violations for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "tree_count": self.tree_count,
            "violations": self.violations,
            "checks": [c.to_dict() for c in self.checks],
            "extremal": {k: v.to_dict() for k, v in sorted(self.extremal.items())},
        }

    def to_text(self) -> str:
        lines = [
            f"order {self.order}: {self.tree_count} trees, "
            f"{self.violations} violation(s)",
            f"{'check':32s} {'trees':>6s} {'violations':>10s} {'worst slack':>17s}",
        ]
        for c in self.checks:
            worst = "-" if math.isinf(c.worst_slack) else f"{c.worst_slack:.12g}"
            lines.append(f"{c.name:32s} {c.trees_checked:6d} {c.violations:10d} {worst:>17s}")
            for seq in c.offenders:
                lines.append(f"    offender: {_label(seq)}")
        for stat in sorted(self.extremal):
            ex = self.extremal[stat]
            lines.append(
                f"extremal {stat}: min {ex.min_value:.12g} at {_label(ex.min_seq)}; "
                f"max {ex.max_value:.12g} at {_label(ex.max_seq)}"
            )
        return "\n".join(lines) + "\n"


def _leaf_bits(levels: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """(B, n) canonical level sequences -> (B,) integers of ``dtype`` whose
    bit a is set where level a holds a leaf of the tree: vertex i is a leaf
    iff it is last or the next vertex is no deeper."""
    bits = dtype.type(1) << levels.astype(dtype)
    bits[:, :-1] *= levels[:, 1:] <= levels[:, :-1]
    return np.bitwise_or.reduce(bits, axis=1)


def _leaf_pairs(counts: np.ndarray):
    """The realisable (member, leaf level) pairs of a (k, H+1) stack of
    level counts, each row zero after its deepest level: that level, and
    each other with two or more vertices (one has a child). With each, the
    counts of the tree less a leaf there (a deepest level it empties is
    left as a trailing zero)."""
    deepest = (counts > 0).sum(axis=1, keepdims=True) - 1
    members, levels = np.nonzero((counts >= 2) | (np.arange(counts.shape[1]) == deepest))
    sub = counts[members]
    sub[np.arange(len(members)), levels] -= 1
    return members, levels, sub


def _leaf_stack(data: SpectralData, below: tuple[np.ndarray, ...]):
    """(members, leaf levels, parent stack, leaf-deleted stack) of a stack's
    realisable pairs, gathered from ``data`` and, by profile index, from
    ``below`` (order n - 1's values, rho, energy and nullity)."""
    members, levels, sub = _leaf_pairs(data.counts)
    at = profile_index(sub)
    return members, levels, data.take(members), SpectralData(sub, *(c[at] for c in below))


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def _threshold(data: SpectralData, tol: float) -> np.ndarray:
    """(k,): each member's cluster threshold tol * max(1, rho), as a
    ``Spectrum`` takes it; +inf, with no warning, where that overflows."""
    with np.errstate(over="ignore"):
        return tol * np.maximum(1.0, data.rho)


def _strict_row_sum_lower(data: SpectralData, tol: float):
    rho = data.rho
    slack = rho - 2.0 * data.level_index.astype(float) / data.n
    return slack > COMPARISON_TOL * np.maximum(1.0, rho), slack


def _bound_chain(data: SpectralData, tol: float):
    sum_l2 = data.row_square_sum
    a = np.sqrt(data.q_square_sum.astype(float) / sum_l2.astype(float))
    b = np.sqrt((sum_l2 / data.n).astype(float))
    c = 2.0 * data.level_index.astype(float) / data.n
    tol_abs = COMPARISON_TOL * np.maximum(1.0, a)
    return (a >= b - tol_abs) & (b >= c - tol_abs), np.minimum(a - b, b - c)


def _zero_multiplicity(data: SpectralData, tol: float):
    return data.nullity == data.n - 1 - data.heights, math.nan


def _one_positive_eigenvalue(data: SpectralData, tol: float):
    return (data.values > _threshold(data, tol)[:, None]).sum(axis=1) == 1, math.nan


def _star_characterisation(data: SpectralData, tol: float):
    star = data.heights <= 1  # no vertex below level 1
    return (data.nullity == data.n - 2) == star, math.nan


def _path_characterisation(data: SpectralData, tol: float):
    return (data.nullity == 0) == data.is_path, math.nan


def _zero_cluster_consistency(data: SpectralData, tol: float):
    """``spectra.clustered_multiplicity`` of 0 equals the nullity; where it
    would raise, the zero cluster is ambiguous and the member fails.

    It is ambiguous when a value outside the threshold lies within the
    threshold of one inside. In a descending row the inside values are one
    contiguous run, and float subtraction is monotone, so the closest such
    pair is the two neighbours at an end of the run: only the gaps where
    ``inside`` changes need comparing."""
    values = data.values
    threshold = _threshold(data, tol)[:, None]
    inside = np.abs(values) <= threshold
    edge = inside[:, 1:] != inside[:, :-1]
    ambiguous = (edge & (values[:, :-1] - values[:, 1:] <= threshold)).any(axis=1)
    return (inside.sum(axis=1) == data.nullity) & ~ambiguous, math.nan


def _row_sum_difference(data: SpectralData, tol: float):
    """The closed form f(i, k) of ``levelmatrix.row_sum_difference`` equals
    L_i - L_k for every pair i < k of the levels l_1 >= ... >= l_n, checked
    on the level boundaries alone, (k, H) arrays, in integers: L_(a+1) - L_a
    = n - 2 N_(>=a+1) for each level a + 1 that is not empty, N_(>=a+1) the
    vertices on level a + 1 or below. That is the all-pairs verdict. f
    telescopes, f(i, k) = sum over i <= j < k of f(j, j+1) = (n - 2j)(l_j -
    l_(j+1)) (each l_j strictly between i and k gets (n - 2j) - (n - 2j + 2)
    = -2, as in f), and so does L_i - L_k, the sum of L_j - L_(j+1), so all
    pairs agree iff the consecutive ones do. A consecutive pair within level
    a compares 0 with L_a - L_a and cannot fail; the levels 0..H of a
    profile are none empty, so the others are j = N_(>=a+1), the last vertex
    on level a + 1, and j + 1, the first on level a: f = (n - 2j) * 1."""
    counts, sums = data.counts, data.level_row_sums
    below = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1]  # N_(>=a) at column a
    holds = (sums[:, 1:] - sums[:, :-1] == data.n - 2 * below[:, 1:]) | (counts[:, 1:] == 0)
    return holds.all(axis=1), math.nan


def _interlacing(data: SpectralData, sub: SpectralData, tol: float):
    eps = INTERLACING_TOL * np.maximum(1.0, data.rho)
    outer, inner = data.values, sub.values
    worst = np.minimum((outer[:, :-1] - inner).min(axis=1),
                       (inner - outer[:, 1:]).min(axis=1))
    return worst >= -eps, worst


def _leaf_deletion_multiplicity(data: SpectralData, sub: SpectralData, tol: float):
    """Each cluster of m eigenvalues holds m - 1 to m + 1 leaf-deleted values
    within its own span [last - eps, first + eps], eps the interlacing
    slack. Cauchy interlacing gives this for any run of consecutive values,
    so it does not depend on how the tolerance groups them."""
    values = data.values
    k, n = values.shape
    starts = _cluster(values, _threshold(data, tol))
    ends = np.concatenate([starts[:, 1:], np.ones((k, 1), dtype=bool)], axis=1)
    # each eigenvalue's cluster: the column of its first and of its last value
    col = np.arange(n)
    first = np.maximum.accumulate(np.where(starts, col, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends, col, n)[:, ::-1], axis=1)[:, ::-1]
    top = np.take_along_axis(values, first, axis=1)[:, :, None]
    bottom = np.take_along_axis(values, last, axis=1)[:, :, None]
    eps = (INTERLACING_TOL * np.maximum(1.0, data.rho))[:, None, None]
    inner = sub.values[:, None, :]
    near = ((inner >= bottom - eps) & (inner <= top + eps)).sum(axis=2)
    return (np.abs(last - first + 1 - near) <= 1).all(axis=1), math.nan


def _zero_deletion_multiplicity(data: SpectralData, sub: SpectralData, tol: float):
    drop = data.nullity - sub.nullity
    return (drop == 0) | (drop == 1), math.nan


def _distance_domination(levels: np.ndarray):
    """Level difference <= path distance for every pair, with equality
    everywhere iff the tree is the rooted path, checked on the n - 1
    consecutive pairs of the preorder alone, (B, n - 1) arrays. That is the
    all-pairs verdict, for any integer array. For u < v, lca(u, v) is one
    level above the shallowest of the vertices u+1..v, on level low - 1 with
    low = min(l_(u+1), ..., l_v), so d(u, v) = l_u + l_v - 2(low - 1):
    domination at (u, v) means low - 1 <= min(l_u, l_v), and equality
    low - 1 = min(l_u, l_v). For v = u + 1, low = l_(u+1) and
    d = l_u - l_(u+1) + 2: domination means l_(u+1) <= l_u + 1, and equality
    l_(u+1) = l_u + 1. If every consecutive pair is dominated, then
    low <= l_(u+1) <= l_u + 1 and low <= l_v for every pair; if every step
    is +1, then low = l_u + 1 for every pair, so equality holds everywhere.
    The diagonal and the mirrored pairs agree trivially."""
    step = levels[:, :-1] - levels[:, 1:]
    entries, dist = np.abs(step), step + 2
    dominated = (entries <= dist).all(axis=1)
    equal = (entries == dist).all(axis=1)
    is_path = levels.max(axis=1) == levels.shape[1] - 1
    return dominated & (equal == is_path)


#: What a structural verdict depends on. It fixes where the check is
#: evaluated and what the evaluator is given (``data`` is a SpectralData
#: stack, ``sub`` the stack of its members' profiles less a leaf at one
#: level, ``levels`` a (B, n) int array of canonical level sequences, B at
#: most STACK_SIZE):
#:   PROFILE     once per level profile, into the tables   check(data, tol)
#:   LEAF_LEVEL  once per (profile, leaf level), likewise  check(data, sub, tol)
#:   TREE        once per batch of trees walked            check(levels)
#: A tree's LEAF_LEVEL verdict is the AND of the verdicts at its leaf
#: levels, and each line's worst slack is folded where its verdicts are
#: made, into the tables; the walk folds no slack.
PROFILE, LEAF_LEVEL, TREE = "profile", "leaf level", "tree"

#: Structural checks (beyond the bound reports): name -> (minimum order,
#: dependency, evaluator). A PROFILE or LEAF_LEVEL evaluator returns (ok,
#: slack), arrays over the members; a nan slack means the check has none. A
#: TREE evaluator returns the trees' verdicts only.
STRUCTURAL_CHECKS: dict[str, tuple[int, str, Callable]] = {
    "strict-row-sum-lower": (3, PROFILE, _strict_row_sum_lower),
    "bound-chain": (2, PROFILE, _bound_chain),
    "zero-multiplicity": (3, PROFILE, _zero_multiplicity),
    "one-positive-eigenvalue": (2, PROFILE, _one_positive_eigenvalue),
    "star-characterisation": (3, PROFILE, _star_characterisation),
    "path-characterisation": (3, PROFILE, _path_characterisation),
    "zero-cluster-consistency": (1, PROFILE, _zero_cluster_consistency),
    "distance-domination": (1, TREE, _distance_domination),
    "row-sum-difference": (2, PROFILE, _row_sum_difference),
    "interlacing": (2, LEAF_LEVEL, _interlacing),
    "leaf-deletion-multiplicity": (2, LEAF_LEVEL, _leaf_deletion_multiplicity),
    "zero-deletion-multiplicity": (3, LEAF_LEVEL, _zero_deletion_multiplicity),
}


def _bound_verdicts(data: SpectralData, bound_lines: dict[str, set[str]]):
    """(line, ok, slack, covered) of each selected bound line on a stack:
    the AND of the verdicts and the minimum of the slacks of the line's
    comparisons, each comparison's index axis, if it has one, folded first;
    a slack nan where a comparison does not cover the member, and the
    covered members' mask (True: all). A line that covers no member of the
    stack is left out."""
    folded: dict[str, tuple] = {}
    for check, keep in bound_lines.items():
        func, lines = bounds.CHECKS[check]
        for c in func(data):
            name = c.name if c.name in lines else check
            covered = True if c.covered is None else c.covered
            if name in keep and np.any(covered):
                ok, slack = c.ok, c.slack
                if slack.ndim == 2:
                    ok, slack = ok.all(axis=1), slack.min(axis=1)
                slack = slack if c.covered is None else np.where(covered, slack, math.nan)
                ok_before, worst, _ = folded.get(name, (True, math.inf, True))
                folded[name] = (ok & ok_before, np.minimum(slack, worst), covered)
    return [(name, *verdicts) for name, verdicts in folded.items()]


class VerdictTables(NamedTuple):
    """Every verdict of one order, for the walk to look up by a tree's
    profile index (see ``trees.profile_stacks``; P of them).

    ``names`` lists the L bound lines and PROFILE checks, then the M
    LEAF_LEVEL checks, then the TREE checks. ``verdict`` holds the L lines'
    (L, P) int8 verdicts: 1 holds, 0 fails, -1 does not cover the profile
    (``energy-upper-improved`` skips the rooted path, and at orders 1 and 2
    some bound lines cover none). ``leaf_bad`` holds the M checks' (M, P)
    failing levels, bit a set where deleting a leaf at level a fails, in
    the least unsigned type of n bits or more. ``worst`` holds each line's
    least slack over the stacks (inf if none), the walk's minimum, as every
    profile and realisable pair is some tree's; ``extremal`` each of
    EXTREMAL_STATS's ``ExtremalStat`` over every tree.
    """

    names: list[str]
    verdict: np.ndarray
    leaf_bad: np.ndarray
    worst: np.ndarray
    extremal: dict[str, ExtremalStat]


def _profile_count(order: int) -> int:
    """P, the number of profiles of the order: 2**(order - 2), or 1 below
    order 2. An order whose (P, order) table of values numpy could not
    address raises ``ResourceLimit`` before anything is allocated; this
    also keeps every profile index within int64."""
    size = 1 << max(order - 2, 0)
    if size * order * np.dtype(float).itemsize > np.iinfo(np.intp).max:
        raise ResourceLimit(f"order {order} has 2**{order - 2} level profiles, "
                            f"more than numpy can address")
    return size


def _extreme(order: int, values: np.ndarray, sign: int) -> tuple[float, tuple[int, ...], float]:
    """(value, tree, runner-up) at one end of the (P,) values by profile
    index (sign 1: min, -1: max), as ``ExtremalStat.record`` folds them over
    the walk, which runs in decreasing order: the largest first tree of the
    profiles at the extreme; the extreme again if two profiles, or two trees
    of one, are there, else the best other profile's value, or inf."""
    signed = sign * values
    best = signed.min()
    at = profile_counts(order, np.flatnonzero(signed == best))
    runner = (best if len(at) > 1 or not has_one_tree(at[0])
              else signed[signed != best].min(initial=math.inf))
    seq = max(tuple(first_level_sequence(counts).tolist()) for counts in at)
    return sign * float(best), seq, sign * float(runner)


def _solved_space(order: int) -> tuple[np.ndarray, ...]:
    """The values (P, order) and the rho, energy and nullity (P,) of every
    profile of the order, at its profile index."""
    size = _profile_count(order)
    space = (np.empty((size, order)), np.empty(size), np.empty(size),
             np.empty(size, dtype=np.int64))
    for rows, counts in profile_stacks(order):
        data = solve_profiles(counts)
        for table, column in zip(space, (data.values, data.rho, data.energy, data.nullity)):
            table[rows] = column
    return space


def _verdict_tables(order: int, bound_lines: dict[str, set[str]], structural: list[str],
                    tol: float) -> VerdictTables:
    """Check the order's profile space once. The profile engine solves each
    stack of ``profile_stacks``, which is checked as it comes: the bound
    lines and PROFILE checks on the stack, the LEAF_LEVEL checks on its
    realisable (profile, leaf level) pairs, each written at the members'
    profile indices, and each line's slacks folded into its worst, nan
    ignored as ``CheckStat.record`` does.
    When a leaf check runs, the profiles one order down, which hold every
    leaf-deleted profile, are solved first into arrays by profile index.
    Last, ``_extreme`` reads each extremal statistic off its (P,) values."""
    size = _profile_count(order)
    checks: dict[str, list] = {PROFILE: [], LEAF_LEVEL: [], TREE: []}
    for name in structural:
        min_order, depends_on, check = STRUCTURAL_CHECKS[name]
        if order >= min_order:
            checks[depends_on].append((name, check))
    leaf_checks = checks[LEAF_LEVEL]
    below = _solved_space(order - 1) if leaf_checks else ()
    names = [line for lines in bound_lines.values() for line in sorted(lines)]
    names += [name for name, _ in checks[PROFILE] + leaf_checks + checks[TREE]]
    row = {name: i for i, name in enumerate(names)}
    lines = len(names) - len(leaf_checks) - len(checks[TREE])
    verdict = np.full((lines, size), -1, np.int8)
    leaf_bad = np.zeros((len(leaf_checks), size), np.min_scalar_type((1 << order) - 1))
    worst = np.full(len(names), math.inf)
    values = np.empty((len(EXTREMAL_STATS), size))
    for rows, counts in profile_stacks(order):
        data = solve_profiles(counts)
        values[:, rows] = [getattr(data, stat) for stat in EXTREMAL_STATS]
        for name, line_ok, slack, member in (
                _bound_verdicts(data, bound_lines)
                + [(name, *check(data, tol), True) for name, check in checks[PROFILE]]):
            i = row[name]
            verdict[i, rows] = np.where(member, line_ok, -1)
            worst[i] = np.fmin.reduce(np.ravel(slack), initial=worst[i])
        if leaf_checks:
            members, levels, parent, sub = _leaf_stack(data, below)
            at = np.flatnonzero(np.diff(members, prepend=-1))  # each member's first pair
            for i, (_, check) in enumerate(leaf_checks):
                line_ok, slack = check(parent, sub, tol)
                leaf_bad[i, rows] = np.bitwise_or.reduceat(np.where(line_ok, 0, 1 << levels), at)
                worst[lines + i] = np.fmin.reduce(np.ravel(slack), initial=worst[lines + i])
    return VerdictTables(names, verdict, leaf_bad, worst,
                         {stat: ExtremalStat(stat, *_extreme(order, table, 1),
                                             *_extreme(order, table, -1))
                          for stat, table in zip(EXTREMAL_STATS, values)})


def _evaluate_batch(order: int, start: int, stop: int | None, tables: VerdictTables):
    """Worker: walk the canonical level sequences of one order from index
    ``start`` up to ``stop`` (``None``: to the end) once, checking every
    line of ``tables`` tree by tree; returns each line's count of trees
    checked and of violations, as arrays in the order of ``tables.names``,
    its first MAX_OFFENDERS offenders in walk order, and the number of
    trees walked.

    The walk takes the sequences STACK_SIZE at a time as a (B, n) array.
    numpy gives each tree's profile index and its leaf levels as the bits
    of one integer, and the batch one (lines, B) failing matrix: the bound
    lines' and PROFILE checks' rows are one lookup of ``verdict`` by
    profile index, a LEAF_LEVEL check's row fails where its failing levels
    share a bit with the tree's leaf levels, and each TREE check runs on
    the whole batch. The first failing trees of each line with room are
    then named.
    """
    lines, leaf = len(tables.verdict), len(tables.leaf_bad)
    tree_checks = [STRUCTURAL_CHECKS[name][2] for name in tables.names[lines + leaf:]]
    checked = np.zeros(len(tables.names), np.int64)
    violations = np.zeros(len(tables.names), np.int64)
    offenders: list[list[tuple[int, ...]]] = [[] for _ in tables.names]
    dtype = np.promote_types(np.int16, np.min_scalar_type(order))  # holds levels
    flat = chain.from_iterable(islice(level_sequences(order), start, stop))
    walked = 0
    while (levels := np.fromiter(islice(flat, STACK_SIZE * order), dtype)).size:
        levels = levels.reshape(-1, order)
        ids = profile_ids(levels)
        verdict = tables.verdict[:, ids]
        leaf_bits = _leaf_bits(levels, tables.leaf_bad.dtype)
        failing = np.vstack([verdict == 0, (tables.leaf_bad[:, ids] & leaf_bits) != 0,
                             *(~check(levels) for check in tree_checks)])
        checked[:lines] += (verdict >= 0).sum(axis=1)
        checked[lines:] += len(levels)
        room = MAX_OFFENDERS - np.minimum(violations, MAX_OFFENDERS)  # offenders still to name
        violations += failing.sum(axis=1)
        named = failing & (np.cumsum(failing, axis=1) <= room[:, None])
        for line, pos in zip(*np.nonzero(named)):
            offenders[line].append(tuple(levels[pos].tolist()))
        walked += len(levels)
    return checked, violations, offenders, walked


def verify_order(order: int, selection=None, jobs: int | None = None,
                 tol: float = DEFAULT_CLUSTER_TOL) -> VerificationLedger:
    """Run the selected checks over every rooted tree of the given order.

    ``selection`` lists names from :func:`available_checks` (``None``: all
    of them); an unknown name raises ``KeyError`` and an empty list
    ``ValueError``. An order above the enumeration cap raises
    ``ResourceLimit`` before any work. The verdict tables are built here,
    once, before any pool starts; the trees are then walked as canonical
    level sequences, and no tree object is built. ``jobs`` sets the
    worker-pool width (default: available parallelism); it must be at least
    1 and is clamped to the CPUs this process may run on. A ``tol`` (the
    checks' cluster tolerance) that is not positive and finite raises
    ``ValueError`` before the cap or any solve. Below order POOL_MIN_ORDER
    no pool is started. Each batch walks its own contiguous range of the
    enumeration, the last one to its end: the counts add up and each
    line's offenders are joined in batch order, so the ledger equals the
    sequential one. A bound line that covers no profile of the order, and
    so checks no tree, is left out.
    """
    if order < 1:
        raise InvalidOrder(f"need order >= 1, got {order}")
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    _check_tol(tol)
    bound_lines, structural = _resolve_selection(selection)
    check_enumeration_cap(order)
    expected = rooted_tree_count(order)
    cpus = available_cpus()
    jobs = max(1, min(cpus if jobs is None else jobs, cpus, expected))
    tables = _verdict_tables(order, bound_lines, structural, tol)
    if jobs == 1 or order < POOL_MIN_ORDER:
        partials = [_evaluate_batch(order, 0, None, tables)]
    else:
        cuts = [expected * i // jobs for i in range(jobs)] + [None]
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays its import

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            partials = list(pool.map(_evaluate_batch, [order] * jobs, cuts[:-1], cuts[1:],
                                     [tables] * jobs))
    checked, violations, named, walked = zip(*partials)
    count = sum(walked)
    if count != expected:
        raise AssertionError(
            f"enumerator produced {count} trees at order {order}, "
            f"counting recurrence says {expected}"
        )
    offenders = [list(chain.from_iterable(parts))[:MAX_OFFENDERS] for parts in zip(*named)]
    lines = zip(tables.names, sum(checked).tolist(), sum(violations).tolist(),
                tables.worst.tolist(), offenders)
    return VerificationLedger(
        order=order,
        tree_count=count,
        checks=[CheckStat(*line) for line in sorted(lines) if line[1]],
        extremal=tables.extremal,
    )


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def extremal_sweep(order: int, stat: str = "rho") -> ExtremalStat:
    """Arg-extreme trees of one statistic (one of EXTREMAL_STATS) over every
    rooted tree of the order: the tables step of :func:`verify_order` with
    no check, which walks no tree. The statistic depends on the level
    profile alone, so each profile is solved once (see ``_extreme``)."""
    if stat not in EXTREMAL_STATS:
        raise KeyError(f"unknown statistic {stat!r}; use 'rho' or 'energy'")
    if order < 2:
        raise InvalidOrder(f"extremal sweep needs order >= 2, got {order}")
    check_enumeration_cap(order)
    return _verdict_tables(order, {}, [], DEFAULT_CLUSTER_TOL).extremal[stat]
