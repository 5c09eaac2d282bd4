"""Enumeration-driven theorem harness.

Runs every bound, identity, and structural claim over all rooted trees of a
given order and produces a pass/fail ledger with extremal statistics.
Every verdict but ``distance-domination`` depends only on a tree's level
profile or on a (profile, leaf level) pair, so the calling process computes
it once, on each stack of ``trees.profile_stacks`` (up to STACK_SIZE
profiles, whatever their heights), into tables by profile index, and the
walk over the trees looks it up tree by tree; each such line's worst slack
is folded there, stack by stack. Violations are collected rather than
fail-fast, so a bad run reports every offending tree.
"""

from __future__ import annotations

import math
import os
from itertools import chain, islice
from typing import Callable

import numpy as np

from . import bounds
from .bounds import COMPARISON_TOL
from .errors import InvalidOrder, ResourceLimit
from .spectra import DEFAULT_CLUSTER_TOL, SpectralData, _check_tol, _cluster, solve_profiles
from .trees import (STACK_SIZE, check_enumeration_cap, level_sequences, profile_ids,
                    profile_index, profile_stacks, rooted_tree_count)

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

    def __init__(self, name: str):
        self.name = name
        self.trees_checked = 0
        self.violations = 0
        self.worst_slack = math.inf
        self.offenders: list[tuple[int, ...]] = []

    def _fields(self) -> tuple:
        return self.name, self.trees_checked, self.violations, self.worst_slack, self.offenders

    def __eq__(self, other) -> bool:
        return isinstance(other, CheckStat) and self._fields() == other._fields()

    def record(self, ok: bool, slack: float) -> None:
        """Count one tree with its verdict and slack."""
        self.trees_checked += 1
        if not math.isnan(slack):
            self.worst_slack = min(self.worst_slack, slack)
        if not ok:
            self.violations += 1

    def record_each(self, ok: np.ndarray, seqs: np.ndarray) -> None:
        """Count the trees of ``seqs``, a (B, n) array of level sequences in
        walk order, each with its verdict in ``ok``, and name the failing
        trees until the check holds MAX_OFFENDERS. The worst slack is not
        the walk's: ``verify_order`` sets it from the verdict tables."""
        self.trees_checked += len(ok)
        failing = np.flatnonzero(~ok)
        self.violations += len(failing)
        for pos in failing[:MAX_OFFENDERS - len(self.offenders)].tolist():
            self.offend(tuple(seqs[pos].tolist()))

    def offend(self, seq: tuple[int, ...]) -> None:
        """Name an offending tree by its level sequence; the first
        MAX_OFFENDERS named are kept."""
        if len(self.offenders) < MAX_OFFENDERS:
            self.offenders.append(seq)

    def merge(self, other: "CheckStat") -> None:
        """Fold in the aggregate of the trees enumerated after this one's."""
        self.trees_checked += other.trees_checked
        self.violations += other.violations
        self.worst_slack = min(self.worst_slack, other.worst_slack)
        self.offenders = (self.offenders + other.offenders)[:MAX_OFFENDERS]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trees_checked": self.trees_checked,
            "violations": self.violations,
            "worst_slack": None if math.isinf(self.worst_slack) else self.worst_slack,
            "offenders": [_label(seq) for seq in self.offenders],
        }


class ExtremalStat:
    """Best/worst trees for one statistic, each kept as its level sequence,
    with runner-up values for uniqueness gaps."""

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

    def _fields(self) -> tuple:
        return (self.stat, self.min_value, self.min_seq, self.runner_min, self.max_value,
                self.max_seq, self.runner_max)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExtremalStat) and self._fields() == other._fields()

    def record(self, value: float, seq: tuple[int, ...]) -> None:
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

    @classmethod
    def of_batch(cls, stat: str, values: np.ndarray, seqs: np.ndarray) -> "ExtremalStat":
        """The statistic over a batch of trees: ``values[i]`` of the level
        sequence ``seqs[i]``, in walk order. Ties keep the earlier tree, as
        :meth:`record` does, and each runner-up is the second value of the
        batch from that end, a tie with the extreme included."""
        lo, hi = int(values.argmin()), int(values.argmax())
        out = cls(stat, float(values[lo]), tuple(seqs[lo].tolist()), math.inf,
                  float(values[hi]), tuple(seqs[hi].tolist()), -math.inf)
        if len(values) > 1:
            out.runner_min = float(np.partition(values, 1)[1])
            out.runner_max = float(np.partition(values, -2)[-2])
        return out

    def merge(self, other: "ExtremalStat") -> None:
        """Fold in the aggregate of the trees enumerated after this one's;
        ties keep the earlier tree, as :meth:`record` does."""
        if other.min_value < self.min_value:
            self.runner_min = min(self.min_value, other.runner_min)
            self.min_value, self.min_seq = other.min_value, other.min_seq
        else:
            self.runner_min = min(self.runner_min, other.min_value)
        if other.max_value > self.max_value:
            self.runner_max = max(self.max_value, other.runner_max)
            self.max_value, self.max_seq = other.max_value, other.max_seq
        else:
            self.runner_max = max(self.runner_max, other.max_value)

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


def _leaf_level_mask(levels: np.ndarray) -> np.ndarray:
    """(B, n) canonical level sequences -> (B, n) table whose [b, k] is
    true where level k holds a leaf of tree b: vertex i is a leaf iff it is
    last or the next vertex is no deeper."""
    b, n = levels.shape
    leaf = np.ones((b, n), dtype=bool)
    leaf[:, :-1] = levels[:, 1:] <= levels[:, :-1]
    mask = np.zeros((b, n), dtype=bool)
    tree, vertex = np.nonzero(leaf)
    mask[tree, levels[tree, vertex]] = True
    return mask


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
    return (members, levels, data.take(members),
            SpectralData(sub, *(column[profile_index(sub)] for column in below)))


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

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
    threshold = tol * np.maximum(1.0, data.rho)
    return (data.values > threshold[:, None]).sum(axis=1) == 1, math.nan


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
    threshold = (tol * np.maximum(1.0, data.rho))[:, None]
    inside = np.abs(values) <= threshold
    edge = inside[:, 1:] != inside[:, :-1]
    ambiguous = (edge & (values[:, :-1] - values[:, 1:] <= threshold)).any(axis=1)
    return (inside.sum(axis=1) == data.nullity) & ~ambiguous, math.nan


def _row_sum_difference(data: SpectralData, tol: float):
    """The closed form f(i, k) of ``levelmatrix.row_sum_difference`` equals
    L_i - L_k for every pair i < k of the levels l_1 >= ... >= l_n, checked
    on the consecutive pairs alone, (k, n - 1) arrays, in integers. That is
    the all-pairs verdict: f telescopes, f(i, k) = sum over i <= j < k of
    f(j, j+1) = (n - 2j)(l_j - l_(j+1)) (each l_j strictly between i and k
    gets (n - 2j) - (n - 2j + 2) = -2, as in f), and so does L_i - L_k, the
    sum of L_j - L_(j+1). So all pairs agree iff the consecutive ones do."""
    k, n = len(data.counts), data.n
    ascending = np.repeat(np.tile(np.arange(data.counts.shape[1]), k), data.counts.ravel())
    lev = ascending.reshape(k, n)[:, ::-1]
    sums = np.take_along_axis(data.level_row_sums, lev, axis=1)
    closed = (n - 2 * np.arange(1, n)) * (lev[:, :-1] - lev[:, 1:])
    return (closed == sums[:, :-1] - sums[:, 1:]).all(axis=1), math.nan


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
    starts = _cluster(values, tol * np.maximum(1.0, data.rho))
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


class VerdictTables:
    """Every verdict of one order, for the walk to look up by a tree's
    profile index (see ``trees.profile_stacks``; P of them).

    ``lines`` maps each bound line and PROFILE check to its (P,) verdicts,
    and ``leaf_lines`` each LEAF_LEVEL check to its (P, n) verdicts by
    (profile, leaf level). ``covered`` holds the (P,) mask of each line
    that skips some profiles (``energy-upper-improved`` skips the rooted
    path). ``worst`` maps each line to its least slack over the stacks (inf
    if none), the walk's minimum, as every profile and realisable pair is
    some tree's. ``tree_checks`` names the TREE checks, and ``values`` maps
    each extremal statistic to its (P,) values.
    """

    __slots__ = ("lines", "leaf_lines", "covered", "worst", "tree_checks", "values")

    def __init__(self, lines: dict[str, np.ndarray], leaf_lines: dict[str, np.ndarray],
                 covered: dict[str, np.ndarray], worst: dict[str, float],
                 tree_checks: list[str], values: dict[str, np.ndarray]):
        self.lines = lines
        self.leaf_lines = leaf_lines
        self.covered = covered
        self.worst = worst
        self.tree_checks = tree_checks
        self.values = values


def _store(tables: dict, worst: dict, name: str, shape: tuple[int, ...], at, ok, slack) -> None:
    """Write one stack's verdicts at ``at`` of the named line's table, made
    on first use, and fold its slacks, nan ignored as ``CheckStat`` does,
    into the line's worst."""
    if name not in tables:
        tables[name] = np.ones(shape, bool)
    tables[name][at] = ok
    worst[name] = min(worst.get(name, math.inf),
                      float(np.fmin.reduce(np.ravel(slack), initial=math.inf)))


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
                    tol: float, stats: tuple[str, ...]) -> VerdictTables:
    """Check the order's profile space once. The profile engine solves each
    stack of ``profile_stacks``, which is checked as it comes: the bound
    lines and PROFILE checks on the stack, the LEAF_LEVEL checks on its
    realisable (profile, leaf level) pairs, each written at the members'
    profile indices. When a leaf check runs, the profiles one
    order down, which hold every leaf-deleted profile, are solved first
    into arrays by profile index."""
    size = _profile_count(order)
    checks: dict[str, list] = {PROFILE: [], LEAF_LEVEL: [], TREE: []}
    for name in structural:
        min_order, depends_on, check = STRUCTURAL_CHECKS[name]
        if order >= min_order:
            checks[depends_on].append((name, check))
    leaf_checks = checks[LEAF_LEVEL]
    below = _solved_space(order - 1) if leaf_checks else ()
    lines: dict[str, np.ndarray] = {}
    leaf_lines: dict[str, np.ndarray] = {}
    covered: dict[str, np.ndarray] = {}
    worst: dict[str, float] = {}
    values = {stat: np.empty(size) for stat in stats}
    for rows, counts in profile_stacks(order):
        data = solve_profiles(counts)
        for stat, table in values.items():
            table[rows] = getattr(data, stat)
        for name, ok, slack, member in (
                _bound_verdicts(data, bound_lines)
                + [(name, *check(data, tol), True) for name, check in checks[PROFILE]]):
            _store(lines, worst, name, (size,), rows, ok, slack)
            if name not in covered:
                covered[name] = np.zeros(size, bool)
            covered[name][rows] = member
        if leaf_checks:
            members, levels, parent, sub = _leaf_stack(data, below)
            for name, check in leaf_checks:
                _store(leaf_lines, worst, name, (size, order), (rows[members], levels),
                       *check(parent, sub, tol))
    return VerdictTables(lines, leaf_lines,
                         {name: mask for name, mask in covered.items() if not mask.all()},
                         worst, [name for name, _ in checks[TREE]], values)


def _evaluate_batch(order: int, start: int, stop: int | None, tables: VerdictTables):
    """Worker: walk the canonical level sequences of one order from index
    ``start`` up to ``stop`` (``None``: to the end) once, recording every
    line of ``tables`` tree by tree; returns mergeable partial aggregates
    and the number of trees walked.

    The walk takes the sequences STACK_SIZE at a time as a (B, n) array.
    numpy gives each tree's profile index and leaf-level mask and looks
    every verdict up per tree: a LEAF_LEVEL check's is the AND of its table
    over the tree's leaf levels. Each TREE check runs on the whole batch.
    Each line then counts the batch's trees and violations at once and
    names its failing trees in walk order until it holds MAX_OFFENDERS,
    and each extremal statistic folds in the batch's.
    """
    check_stats = {name: CheckStat(name)
                   for name in chain(tables.lines, tables.leaf_lines, tables.tree_checks)}
    extremal = {stat: ExtremalStat(stat) for stat in tables.values}
    dtype = np.promote_types(np.int16, np.min_scalar_type(order))  # holds levels
    flat = chain.from_iterable(islice(level_sequences(order), start, stop))
    walked = 0
    while (levels := np.fromiter(islice(flat, STACK_SIZE * order), dtype)).size:
        levels = levels.reshape(-1, order)
        ids = profile_ids(levels)
        for name, ok in tables.lines.items():
            trees = tables.covered[name][ids] if name in tables.covered else slice(None)
            check_stats[name].record_each(ok[ids][trees], levels[trees])
        off_leaf = ~_leaf_level_mask(levels)
        for name, ok in tables.leaf_lines.items():
            check_stats[name].record_each((ok[ids] | off_leaf).all(axis=1), levels)
        for name in tables.tree_checks:
            check_stats[name].record_each(STRUCTURAL_CHECKS[name][2](levels), levels)
        for stat, values in tables.values.items():
            extremal[stat].merge(ExtremalStat.of_batch(stat, values[ids], levels))
        walked += len(levels)
    return check_stats, extremal, walked


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
    enumeration, the last one to its end, and the batches are merged in
    order, so the ledger equals the sequential one.
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
    tables = _verdict_tables(order, bound_lines, structural, tol, EXTREMAL_STATS)
    if jobs == 1 or order < POOL_MIN_ORDER:
        partials = [_evaluate_batch(order, 0, None, tables)]
    else:
        cuts = [expected * i // jobs for i in range(jobs)] + [None]
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays its import

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            partials = list(pool.map(_evaluate_batch, [order] * jobs, cuts[:-1], cuts[1:],
                                     [tables] * jobs))
    (merged_checks, merged_extremal, count), *rest = partials
    for check_stats, extremal, trees in rest:
        for name, stat in check_stats.items():
            merged_checks[name].merge(stat)
        for name, ex in extremal.items():
            merged_extremal[name].merge(ex)
        count += trees
    for name, slack in tables.worst.items():
        merged_checks[name].worst_slack = slack
    if count != expected:
        raise AssertionError(
            f"enumerator produced {count} trees at order {order}, "
            f"counting recurrence says {expected}"
        )
    return VerificationLedger(
        order=order,
        tree_count=count,
        checks=[merged_checks[k] for k in sorted(merged_checks)],
        extremal=merged_extremal,
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
    rooted tree of the order: the walk of :func:`verify_order` with no
    check. The statistic depends on the level profile alone, so each
    profile is solved once and the walk looks its value up."""
    if stat not in EXTREMAL_STATS:
        raise KeyError(f"unknown statistic {stat!r}; use 'rho' or 'energy'")
    if order < 2:
        raise InvalidOrder(f"extremal sweep needs order >= 2, got {order}")
    check_enumeration_cap(order)
    tables = _verdict_tables(order, {}, [], DEFAULT_CLUSTER_TOL, (stat,))
    _, extremal, _ = _evaluate_batch(order, 0, None, tables)
    return extremal[stat]
