"""Enumeration-driven theorem harness.

Runs every bound, identity, and structural claim over all rooted trees of a
given order and produces a pass/fail ledger with extremal statistics.
Every verdict but ``distance-domination`` depends only on a tree's level
profile or on a (profile, leaf level) pair, so it is computed once, on
stacks of those, and the walk over the trees looks it up. Violations are
collected rather than fail-fast, so a bad run reports every offending tree.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable

import numpy as np

from . import bounds
from .bounds import COMPARISON_TOL, SpectralData
from .errors import InvalidOrder
from .levelmatrix import ordered_distance_matrix, row_sum_differences, sequence_parents
from .spectra import (
    DEFAULT_CLUSTER_TOL,
    STACK_SIZE,
    height_stacks,
    solve_profiles,
)
from .trees import (
    check_enumeration_cap,
    level_profiles,
    level_sequences,
    rooted_tree_count,
)

#: Interlacing slack scale: eigenvalues of a leaf-deleted tree may leave the
#: bracketing interval by at most ``1e-8 * max(1, rho)``.
INTERLACING_TOL = 1e-8

#: How many offending trees to record per check before truncating.
MAX_OFFENDERS = 10

#: Fewest trees for which ``verify_order`` starts a worker pool. CLI wall
#: time of ``verify --order N --format json``, ``--jobs 1`` against
#: ``--jobs 2`` with the pool started at every order, 12 interleaved runs per
#: order on a 2-vCPU host (medians):
#:
#:   order    trees   --jobs 1  --jobs 2  --jobs 2 faster
#:       8      115    0.251 s   0.327 s   1 of 12
#:       9      286    0.256 s   0.329 s   0 of 12
#:      10      719    0.279 s   0.323 s   2 of 12
#:      11    1,842    0.315 s   0.373 s   0 of 12
#:      12    4,766    0.426 s   0.467 s   3 of 12
#:      13   12,486    0.720 s   0.714 s   7 of 12
#:      14   32,973    1.183 s   1.157 s   8 of 12
#:      15   87,811    2.519 s   2.261 s  12 of 12
#:      16  235,381    5.683 s   4.833 s  12 of 12
#:
#: Order 15 is the first at which two workers win at least 10 of 12 runs (a
#: second series gave 4 and 9 of 12 at orders 13 and 14). Each worker solves
#: and checks the order's whole profile space before it walks its range, so
#: below that the pool only adds that work a second time.
POOL_MIN_TREES = 87811

#: The statistics whose arg-extreme trees a ledger names.
EXTREMAL_STATS = ("rho", "energy")


def _bound_check_of_line() -> dict[str, str]:
    """Ledger line -> the bound check that reports under it."""
    return {line: name for name, (_, _, lines) in bounds.CHECKS.items() for line in lines}


def available_checks() -> list[str]:
    """Every name accepted by the ``selection`` arguments: each bound check,
    each ledger line of one, and each structural check."""
    return sorted(set(bounds.CHECKS) | set(_bound_check_of_line()) | set(STRUCTURAL_CHECKS))


def _resolve_selection(selection) -> tuple[dict[str, set[str]], list[str]]:
    """Split a selection into the bound checks to run, each with the ledger
    lines to record, and the structural checks. A bound check's name selects
    all its lines; a line's name selects that line of its check."""
    if selection is None:
        return ({name: set(lines) for name, (_, _, lines) in bounds.CHECKS.items()},
                list(STRUCTURAL_CHECKS))
    if not selection:
        raise ValueError("selection names no check; pass None to run them all")
    check_of_line = _bound_check_of_line()
    bound_lines: dict[str, set[str]] = {}
    structural: list[str] = []
    for name in selection:
        if name in bounds.CHECKS:
            bound_lines.setdefault(name, set()).update(bounds.CHECKS[name][2])
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


@dataclass
class CheckStat:
    """Aggregate of one named check over many trees."""

    name: str
    trees_checked: int = 0
    violations: int = 0
    worst_slack: float = math.inf
    offenders: list[tuple[int, ...]] = field(default_factory=list)

    def record(self, ok: bool, slack: float, trees: int = 1) -> None:
        """Count ``trees`` trees that share one verdict and slack."""
        self.trees_checked += trees
        if not math.isnan(slack):
            self.worst_slack = min(self.worst_slack, slack)
        if not ok:
            self.violations += trees

    def record_each(self, ok: np.ndarray, slack) -> None:
        """Count one tree per entry of ``ok``, each with its own verdict and
        slack (an array like ``ok``, or a nan for a check without one)."""
        self.trees_checked += len(ok)
        self.violations += int(np.count_nonzero(~ok))
        slack = np.asarray(slack, dtype=float)
        slack = slack[~np.isnan(slack)]
        if slack.size:
            self.worst_slack = min(self.worst_slack, float(slack.min()))

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


@dataclass
class ExtremalStat:
    """Best/worst trees for one statistic, each kept as its level sequence,
    with runner-up values for uniqueness gaps."""

    stat: str
    min_value: float = math.inf
    min_seq: tuple[int, ...] = ()
    runner_min: float = math.inf
    max_value: float = -math.inf
    max_seq: tuple[int, ...] = ()
    runner_max: float = -math.inf

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


@dataclass
class VerificationLedger:
    order: int
    tree_count: int
    checks: list[CheckStat]
    extremal: dict[str, ExtremalStat]

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


def _level_counts(levels: np.ndarray) -> np.ndarray:
    """(B, n) canonical level sequences -> (B, n) table whose row b is tree
    b's level profile, padded with zeros past its height."""
    b, n = levels.shape
    offsets = (np.arange(b) * n)[:, None]
    return np.bincount((levels + offsets).ravel(), minlength=b * n).reshape(b, n)


def _leaf_level_mask(levels: np.ndarray) -> np.ndarray:
    """(B, n) canonical level sequences -> (B, n) table whose [b, k] is 1
    where level k holds a leaf of tree b: vertex i is a leaf iff it is last
    or the next vertex is no deeper."""
    b, n = levels.shape
    leaf = np.ones((b, n), dtype=bool)
    leaf[:, :-1] = levels[:, 1:] <= levels[:, :-1]
    mask = np.zeros((b, n), dtype=levels.dtype)
    tree, vertex = np.nonzero(leaf)
    mask[tree, levels[tree, vertex]] = 1
    return mask


def _leaf_profile(profile: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Profile of the tree left by deleting a leaf at level k: one vertex
    fewer on level k, and the deepest level dropped when it empties. All
    leaves on one level leave this one profile."""
    sub = list(profile)
    sub[k] -= 1
    if sub[-1] == 0:
        sub.pop()
    return tuple(sub)


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
    return data.nullity == data.n - 1 - data.l_max, math.nan


def _one_positive_eigenvalue(data: SpectralData, tol: float):
    threshold = tol * np.maximum(1.0, data.rho)
    return (data.values > threshold[:, None]).sum(axis=1) == 1, math.nan


def _star_characterisation(data: SpectralData, tol: float):
    star = data.l_max <= 1  # no vertex below level 1
    return (data.nullity == data.n - 2) == star, math.nan


def _path_characterisation(data: SpectralData, tol: float):
    return (data.nullity == 0) == data.is_path, math.nan


def _zero_cluster_consistency(data: SpectralData, tol: float):
    """``spectra.clustered_multiplicity`` of 0 equals the nullity; where it
    would raise, the zero cluster is ambiguous and the member fails."""
    values = data.values
    threshold = (tol * np.maximum(1.0, data.rho))[:, None, None]
    inside = np.abs(values) <= threshold[:, 0]
    pairs = inside[:, :, None] & ~inside[:, None, :]
    gaps = np.abs(values[:, :, None] - values[:, None, :])
    ambiguous = (pairs & (gaps <= threshold)).any(axis=(1, 2))
    return (inside.sum(axis=1) == data.nullity) & ~ambiguous, math.nan


def _row_sum_difference(data: SpectralData, tol: float):
    k, n = len(data.counts), data.n
    ascending = np.repeat(np.tile(np.arange(data.l_max + 1), k), data.counts.ravel())
    lev = ascending.reshape(k, n)[:, ::-1]
    sums = np.take_along_axis(data.level_row_sums, lev, axis=1)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    agree = row_sum_differences(lev) == sums[:, :, None] - sums[:, None, :]
    return (agree | ~upper).all(axis=(1, 2)), math.nan


def _interlacing(data: SpectralData, sub: SpectralData, tol: float):
    eps = INTERLACING_TOL * np.maximum(1.0, data.rho)
    outer, inner = data.values, sub.values
    worst = np.minimum((outer[:, :-1] - inner).min(axis=1),
                       (inner - outer[:, 1:]).min(axis=1))
    return worst >= -eps, worst


def _leaf_deletion_multiplicity(data: SpectralData, sub: SpectralData, tol: float):
    clusters = np.array([c for spectrum in data.spectra for c in spectrum.clusters])
    # each eigenvalue's cluster mean and multiplicity, as (k, n) tables
    mults = clusters[:, 1].astype(np.int64)
    means = np.repeat(clusters[:, 0], mults).reshape(len(data.spectra), -1)
    mults = np.repeat(mults, mults).reshape(len(data.spectra), -1)
    threshold = (tol * np.maximum(1.0, data.rho))[:, None, None]
    near = (np.abs(sub.values[:, None, :] - means[:, :, None]) <= threshold).sum(axis=2)
    return (np.abs(mults - near) <= 1).all(axis=1), math.nan


def _zero_deletion_multiplicity(data: SpectralData, sub: SpectralData, tol: float):
    drop = data.nullity - sub.nullity
    return (drop == 0) | (drop == 1), math.nan


def _distance_domination(levels: np.ndarray):
    """Level difference <= path distance for every pair, with equality
    everywhere iff the tree is the rooted path."""
    entries = np.abs(levels[:, :, None] - levels[:, None, :])
    dist = ordered_distance_matrix(sequence_parents(levels))
    dominated = (entries <= dist).all(axis=(1, 2))
    equal = (entries == dist).all(axis=(1, 2))
    is_path = levels.max(axis=1) == levels.shape[1] - 1
    return dominated & (equal == is_path), math.nan


#: What a structural verdict depends on. It fixes how often a batch
#: evaluates the check and what the evaluator is given (``data`` is a
#: SpectralData stack, ``sub`` the stack of its members' profiles less a
#: leaf at one level, ``levels`` a (B, n) int array of canonical level
#: sequences, B at most STACK_SIZE):
#:   PROFILE     once per level profile            check(data, tol)
#:   LEAF_LEVEL  once per (profile, leaf level)    check(data, sub, tol)
#:   TREE        once per batch of trees walked    check(levels)
#: A tree's LEAF_LEVEL verdict is the AND of the verdicts at its leaf
#: levels, and its slack their minimum.
PROFILE, LEAF_LEVEL, TREE = "profile", "leaf level", "tree"

#: Structural checks (beyond the bound reports): name -> (minimum order,
#: dependency, evaluator). An evaluator returns (ok, slack), arrays over the
#: members or trees; a nan slack means the check has none.
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


def _realisable_leaf_levels(profile: tuple[int, ...]) -> list[int]:
    """The levels of a profile that hold a leaf in some tree of it: the
    deepest, and each other with two or more vertices (one has a child)."""
    h = len(profile) - 1
    return [k for k in range(h + 1) if k == h or profile[k] >= 2]


def _bound_verdicts(data: SpectralData, bound_lines: dict[str, set[str]]):
    """(line, ok, slack) of each selected bound line on a stack: the AND of
    the verdicts and the minimum of the slacks of the line's comparisons."""
    folded: dict[str, tuple] = {}
    for check, keep in bound_lines.items():
        func, min_order, lines = bounds.CHECKS[check]
        if data.n < min_order:
            continue
        for c in func(data):
            name = c.name if c.name in lines else check
            if name in keep:
                ok, slack = folded.get(name, (True, math.inf))
                folded[name] = (c.ok & ok, np.minimum(c.slack, slack))
    return [(name, ok, slack) for name, (ok, slack) in folded.items()]


def _evaluate_batch(order: int, start: int, stop: int | None,
                    bound_lines: dict[str, set[str]], structural: list[str],
                    tol: float, stats: tuple[str, ...]):
    """Worker: walk the canonical level sequences of one order from index
    ``start`` up to ``stop`` (``None``: to the end) once, evaluating the
    selected checks; returns mergeable partial aggregates and the number of
    trees walked.

    One call of the profile engine first solves every profile of the order,
    and of order - 1 (which holds each leaf-deleted profile) when a leaf
    check runs. Every verdict but a TREE check's is then evaluated once, on
    stacks of the order's profiles and of its realisable (profile, leaf
    level) pairs. A tree's key is its profile and, when a leaf check runs,
    its leaf levels.

    The walk takes the sequences STACK_SIZE at a time as a (B, n) array;
    numpy gives each tree's key row (level counts, then leaf-level mask)
    and groups the batch by key, and each TREE check runs on the whole
    batch. Python then visits each distinct key of the batch once: it looks
    a new key's verdicts up, adds the key's trees to its count, and names
    the trees of a failed verdict as offenders in walk order until the
    check holds MAX_OFFENDERS. At the end the profile verdicts are recorded
    once per profile and the leaf verdicts once per key, each with its tree
    count. The extremal statistics see the first two trees of each key, in
    walk order, which give the arg-extreme tree and runner-up.
    """
    checks: dict[str, list] = {PROFILE: [], LEAF_LEVEL: [], TREE: []}
    for name in structural:
        min_order, depends_on, check = STRUCTURAL_CHECKS[name]
        if order >= min_order:
            checks[depends_on].append((name, check))
    leaf_checks = checks[LEAF_LEVEL]
    profiles = list(level_profiles(order))
    solutions = solve_profiles(chain(profiles, level_profiles(order - 1) if leaf_checks else ()),
                               tol)
    verdicts_of: dict[tuple, list] = {}  # profile or (profile, leaf level) -> [(name, ok, slack)]

    def tabulate(stack, results):
        columns = [(name, ok.tolist(), np.broadcast_to(slack, ok.shape).tolist())
                   for name, ok, slack in results]
        verdicts_of.update((unit, [(name, ok[i], slack[i]) for name, ok, slack in columns])
                           for i, unit in enumerate(stack))

    for stack in height_stacks(profiles):
        data = SpectralData.from_solutions(stack, solutions)
        tabulate(stack, _bound_verdicts(data, bound_lines)
                + [(name, *check(data, tol)) for name, check in checks[PROFILE]])
    pairs = [(p, k) for p in profiles for k in _realisable_leaf_levels(p)] if leaf_checks else []
    for stack in height_stacks(pairs, lambda pair: (len(pair[0]), len(_leaf_profile(*pair)))):
        data = SpectralData.from_solutions([p for p, _ in stack], solutions)
        sub = SpectralData.from_solutions([_leaf_profile(*pair) for pair in stack], solutions)
        tabulate(stack, [(name, *check(data, sub, tol)) for name, check in leaf_checks])
    # key -> (profile, [(name, ok, slack)] of its leaf checks, names of its failed verdicts)
    verdicts: dict[bytes, tuple] = {}
    trees_of: dict[bytes, int] = {}  # key -> trees walked
    check_stats = {name: CheckStat(name) for name, _ in checks[TREE]}
    extremal = {name: ExtremalStat(name) for name in stats}

    def wanted(name):
        return len(check_stats[name].offenders) < MAX_OFFENDERS

    dtype = np.promote_types(np.int16, np.min_scalar_type(order))  # holds levels and counts
    sequences = islice(level_sequences(order), start, stop)
    while batch := list(islice(sequences, STACK_SIZE)):
        levels = np.fromiter(chain.from_iterable(batch), dtype,
                             len(batch) * order).reshape(-1, order)
        # a tree's key row: its level counts, then its leaf-level mask
        rows = np.zeros((len(batch), 2 * order), dtype)
        rows[:, :order] = _level_counts(levels)
        if leaf_checks:
            rows[:, order:] = _leaf_level_mask(levels)
        # np.unique of the rows, each viewed as one opaque item: the same
        # grouping as axis=0, several times faster, and a 1-D inverse on
        # every numpy (axis=0 gives a 2-D one under numpy 2.0.x)
        items = rows.view(np.dtype((np.void, rows.itemsize * 2 * order))).ravel()
        _, first, inverse, tally = np.unique(items, return_index=True,
                                             return_inverse=True, return_counts=True)
        by_key = np.argsort(inverse, kind="stable")  # each key's trees in walk order
        group = np.cumsum(tally) - tally  # where each key's trees start in by_key
        failing: dict[str, list[int]] = {}  # name -> keys of the batch that fail it
        seen: list[tuple[int, tuple]] = []  # (position, profile) of trees the statistics see
        by_first = np.argsort(first)  # the batch's keys in walk order
        for u, key, count in zip(by_first.tolist(), items[first[by_first]].tolist(),
                                 tally[by_first].tolist()):
            earlier = trees_of.get(key, 0)
            if not earlier:
                row = rows[first[u]]
                profile = tuple(c for c in row[:order].tolist() if c)
                at_leaves = [verdicts_of[profile, k] for k in np.flatnonzero(row[order:]).tolist()]
                results = [(name, all(v[j][1] for v in at_leaves), min(v[j][2] for v in at_leaves))
                           for j, (name, _) in enumerate(leaf_checks)]
                verdicts[key] = profile, results, [
                    name for name, ok, _ in chain(verdicts_of[profile], results) if not ok]
                for name, _, _ in chain(verdicts_of[profile], results):
                    if name not in check_stats:
                        check_stats[name] = CheckStat(name)
            if earlier < 2:
                seen.extend((pos, verdicts[key][0]) for pos in
                            by_key[group[u]:group[u] + min(2 - earlier, count)].tolist())
            trees_of[key] = earlier + count
            for name in verdicts[key][2]:
                if wanted(name):
                    failing.setdefault(name, []).append(u)
        offending = [(name, np.isin(inverse, keys)) for name, keys in failing.items()]
        for name, check in checks[TREE]:
            ok, slack = check(levels)
            check_stats[name].record_each(ok, slack)
            if wanted(name):
                offending.append((name, ~ok))
        for name, mask in offending:
            stat = check_stats[name]
            for pos in np.flatnonzero(mask)[:MAX_OFFENDERS - len(stat.offenders)].tolist():
                stat.offend(batch[pos])
        for pos, profile in sorted(seen):
            for name in stats:
                extremal[name].record(getattr(solutions[profile].spectrum, name), batch[pos])
    # profile verdicts once per profile, leaf verdicts once per key
    trees_of_profile: dict[tuple, int] = {}
    for key, (profile, results, _) in verdicts.items():
        trees_of_profile[profile] = trees_of_profile.get(profile, 0) + trees_of[key]
        for name, ok, slack in results:
            check_stats[name].record(ok, slack, trees_of[key])
    for profile, trees in trees_of_profile.items():
        for name, ok, slack in verdicts_of[profile]:
            check_stats[name].record(ok, slack, trees)
    return check_stats, extremal, sum(trees_of.values())


def verify_order(order: int, selection=None, jobs: int | None = None,
                 tol: float = DEFAULT_CLUSTER_TOL) -> VerificationLedger:
    """Run the selected checks over every rooted tree of the given order.

    ``selection`` lists names from :func:`available_checks` (``None``: all
    of them); an unknown name raises ``KeyError`` and an empty list
    ``ValueError``. An order above the enumeration cap raises
    ``ResourceLimit`` before any work. The trees are walked as canonical
    level sequences; no tree object is built. ``jobs`` sets the worker-pool
    width (default: available parallelism); it must be at least 1 and is
    clamped to the CPUs this process may run on. Below POOL_MIN_TREES trees
    no pool is started. Each batch walks its own contiguous range of the
    enumeration, the last one to its end, and the batches are merged in
    order, so the ledger equals the sequential one.
    """
    if order < 1:
        raise InvalidOrder(f"need order >= 1, got {order}")
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    bound_lines, structural = _resolve_selection(selection)
    check_enumeration_cap(order)
    expected = rooted_tree_count(order)
    cpus = available_cpus()
    jobs = max(1, min(cpus if jobs is None else jobs, cpus, expected))
    args = (bound_lines, structural, tol, EXTREMAL_STATS)
    if jobs == 1 or expected < POOL_MIN_TREES:
        partials = [_evaluate_batch(order, 0, None, *args)]
    else:
        cuts = [expected * i // jobs for i in range(jobs)] + [None]
        batches = [(order, start, stop, *args) for start, stop in zip(cuts, cuts[1:])]
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays its import

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            partials = list(pool.map(_batch_entry, batches))
    merged_checks: dict[str, CheckStat] = {}
    merged_extremal = {stat: ExtremalStat(stat) for stat in EXTREMAL_STATS}
    count = sum(trees for _, _, trees in partials)
    for check_stats, extremal, _ in partials:
        for name, stat in check_stats.items():
            if name in merged_checks:
                merged_checks[name].merge(stat)
            else:
                merged_checks[name] = stat
        for name, ex in extremal.items():
            merged_extremal[name].merge(ex)
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


def _batch_entry(args):
    return _evaluate_batch(*args)


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def extremal_sweep(order: int, stat: str = "rho",
                   tol: float = DEFAULT_CLUSTER_TOL) -> ExtremalStat:
    """Arg-extreme trees of one statistic (one of EXTREMAL_STATS) over every
    rooted tree of the order: the walk of :func:`verify_order` with no
    check. The statistic depends on the level profile alone, so the walk
    solves each profile once."""
    if stat not in EXTREMAL_STATS:
        raise KeyError(f"unknown statistic {stat!r}; use 'rho' or 'energy'")
    if order < 2:
        raise InvalidOrder(f"extremal sweep needs order >= 2, got {order}")
    check_enumeration_cap(order)
    _, extremal, _ = _evaluate_batch(order, 0, None, {}, [], tol, (stat,))
    return extremal[stat]
