"""Enumeration-driven theorem harness.

Runs every bound, identity, and structural claim over all rooted trees of a
given order (plus special families) and produces a pass/fail ledger with
extremal statistics. Violations are collected rather than fail-fast, so a
bad run reports every offending tree.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .bounds import COMPARISON_TOL, SpectralData
from .errors import InvalidOrder
from .levelmatrix import distance_matrix, row_sum_difference
from .spectra import (
    DEFAULT_CLUSTER_TOL,
    clustered_multiplicity,
    level_profile,
    positive_eigenvalue_count,
    profile_nullity,
    profile_spectrum,
)
from .trees import (
    RootedTree,
    canonical_level_sequence,
    enumerate_rooted_trees,
    is_rooted_path,
    is_rooted_star,
    levels,
    rooted_tree_count,
    tree_from_level_sequence,
)

#: Interlacing slack scale: eigenvalues of a leaf-deleted tree may leave the
#: bracketing interval by at most ``1e-8 * max(1, rho)``.
INTERLACING_TOL = 1e-8

#: How many offending trees to record per check before truncating.
MAX_OFFENDERS = 10

#: Structural checks (beyond the bound reports) with their minimum orders.
STRUCTURAL_CHECKS: dict[str, int] = {
    "strict-row-sum-lower": 3,
    "bound-chain": 2,
    "zero-multiplicity": 3,
    "one-positive-eigenvalue": 2,
    "star-characterisation": 3,
    "path-characterisation": 3,
    "zero-cluster-consistency": 1,
    "distance-domination": 1,
    "row-sum-difference": 2,
    "interlacing": 2,
    "leaf-deletion-multiplicity": 2,
    "zero-deletion-multiplicity": 3,
}

#: Report-level names produced by multi-report bound evaluators, mapped back
#: to their evaluator for selection purposes.
_REPORT_ALIASES: dict[str, str] = {
    "rho-row-sum-lower": "rho-row-sums",
    "rho-row-sum-upper": "rho-row-sums",
    "energy-upper": "energy-bounds",
    "energy-upper-improved": "energy-bounds",
    "energy-identity": "energy-bounds",
    "spectrum-interval": "eigenvalue-intervals",
}


def available_checks() -> list[str]:
    """Every name accepted by the ``selection`` arguments."""
    return sorted(set(bounds.CHECKS) | set(STRUCTURAL_CHECKS) | set(_REPORT_ALIASES))


def _resolve_selection(selection) -> tuple[list[str], list[str], set[str] | None]:
    """Split a selection into bound evaluators, structural checks, and an
    optional report-name filter."""
    if selection is None:
        return list(bounds.CHECKS), list(STRUCTURAL_CHECKS), None
    bound_names: list[str] = []
    structural: list[str] = []
    report_filter: set[str] = set()
    filtered = False
    for name in selection:
        if name in bounds.CHECKS:
            bound_names.append(name)
        elif name in STRUCTURAL_CHECKS:
            structural.append(name)
        elif name in _REPORT_ALIASES:
            evaluator = _REPORT_ALIASES[name]
            if evaluator not in bound_names:
                bound_names.append(evaluator)
            report_filter.add(name)
            filtered = True
        else:
            raise KeyError(f"unknown check {name!r}; known: {available_checks()}")
    return bound_names, structural, (report_filter if filtered else None)


@dataclass
class CheckStat:
    """Aggregate of one named check over many trees."""

    name: str
    trees_checked: int = 0
    violations: int = 0
    worst_slack: float = math.inf
    offenders: list[str] = field(default_factory=list)

    def record(self, ok: bool, slack: float, seq: str) -> None:
        self.trees_checked += 1
        if not math.isnan(slack):
            self.worst_slack = min(self.worst_slack, slack)
        if not ok:
            self.violations += 1
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
            "offenders": list(self.offenders),
        }


@dataclass
class ExtremalStat:
    """Best/worst trees for one statistic, with runner-up values for
    uniqueness gaps."""

    stat: str
    min_value: float = math.inf
    min_seq: str = ""
    runner_min: float = math.inf
    max_value: float = -math.inf
    max_seq: str = ""
    runner_max: float = -math.inf

    def record(self, value: float, seq: str) -> None:
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
            "min": {"value": self.min_value, "tree": self.min_seq,
                    "gap": None if math.isinf(self.runner_min) else self.min_gap},
            "max": {"value": self.max_value, "tree": self.max_seq,
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
                lines.append(f"    offender: {seq}")
        for stat in sorted(self.extremal):
            ex = self.extremal[stat]
            lines.append(
                f"extremal {stat}: min {ex.min_value:.12g} at {ex.min_seq}; "
                f"max {ex.max_value:.12g} at {ex.max_seq}"
            )
        return "\n".join(lines) + "\n"


def _seq_label(tree: RootedTree) -> str:
    return " ".join(str(v) for v in canonical_level_sequence(tree))


def _leaf_profiles(data: SpectralData) -> list[tuple[int, ...]]:
    """Distinct profiles of the leaf-deleted subtrees.

    Deleting a leaf at level k takes one vertex from n_k, and the deepest
    level drops when it empties; leaves on one level leave one profile.
    """
    out = []
    for k in sorted({int(data.vertex_levels[leaf]) for leaf in data.tree.leaves()}):
        sub = list(data.profile)
        sub[k] -= 1
        if sub[-1] == 0:
            sub.pop()
        out.append(tuple(sub))
    return out


def _structural_results(data: SpectralData, names: list[str], tol: float):
    """Evaluate structural checks; yields (name, ok, slack)."""
    n = data.n
    matrix, spectrum = data.matrix, data.spectrum
    leaf_profiles = None

    def need_leaves():
        nonlocal leaf_profiles
        if leaf_profiles is None:
            leaf_profiles = _leaf_profiles(data)
        return leaf_profiles

    for name in names:
        if n < STRUCTURAL_CHECKS[name]:
            continue
        if name == "strict-row-sum-lower":
            slack = spectrum.rho - 2.0 * matrix.level_index / n
            yield name, slack > COMPARISON_TOL * max(1.0, spectrum.rho), slack
        elif name == "bound-chain":
            sum_l2 = int((matrix.row_sums.astype(np.int64) ** 2).sum())
            a = math.sqrt(float((data.q_vector.astype(np.int64) ** 2).sum()) / sum_l2)
            b = math.sqrt(sum_l2 / n)
            c = 2.0 * matrix.level_index / n
            tol_abs = COMPARISON_TOL * max(1.0, a)
            yield name, a >= b - tol_abs and b >= c - tol_abs, min(a - b, b - c)
        elif name == "zero-multiplicity":
            yield name, data.nullity == n - 1 - matrix.l_max, math.nan
        elif name == "one-positive-eigenvalue":
            yield name, positive_eigenvalue_count(spectrum, tol) == 1, math.nan
        elif name == "star-characterisation":
            star = is_rooted_star(data.tree)
            yield name, (data.nullity == n - 2) == star, math.nan
        elif name == "path-characterisation":
            yield name, (data.nullity == 0) == data.is_path, math.nan
        elif name == "zero-cluster-consistency":
            yield name, clustered_multiplicity(spectrum, 0.0, tol) == data.nullity, math.nan
        elif name == "distance-domination":
            dist = distance_matrix(data.tree)
            dominated = bool(np.all(matrix.entries <= dist))
            equal = bool(np.array_equal(matrix.entries, dist))
            yield name, dominated and equal == data.is_path, math.nan
        elif name == "row-sum-difference":
            lev = sorted((int(v) for v in data.vertex_levels), reverse=True)
            arr = np.array(lev, dtype=np.int64)
            sums = np.abs(arr[:, None] - arr[None, :]).sum(axis=1)
            ok = all(
                row_sum_difference(lev, i, k) == int(sums[i - 1] - sums[k - 1])
                for i in range(1, n + 1)
                for k in range(i + 1, n + 1)
            )
            yield name, ok, math.nan
        elif name == "interlacing":
            eps = INTERLACING_TOL * max(1.0, spectrum.rho)
            worst = math.inf
            for sub in need_leaves():
                outer, inner = spectrum.values, profile_spectrum(sub, tol).values
                worst = min(
                    worst,
                    float((outer[:-1] - inner).min()),
                    float((inner - outer[1:]).min()),
                )
            yield name, worst >= -eps, worst
        elif name == "leaf-deletion-multiplicity":
            threshold = tol * max(1.0, spectrum.rho)
            ok = True
            for sub in need_leaves():
                sub_spectrum = profile_spectrum(sub, tol)
                for value, mult in spectrum.clusters:
                    sub_mult = int((np.abs(sub_spectrum.values - value) <= threshold).sum())
                    if abs(mult - sub_mult) > 1:
                        ok = False
            yield name, ok, math.nan
        elif name == "zero-deletion-multiplicity":
            yield name, all(data.nullity - profile_nullity(sub) in (0, 1)
                            for sub in need_leaves()), math.nan


def _evaluate_batch(order: int, seqs: list[tuple[int, ...]], bound_names: list[str],
                    structural: list[str], report_filter: set[str] | None,
                    tol: float, stats: tuple[str, ...]):
    """Worker: evaluate all selected checks on a batch of canonical level
    sequences; returns mergeable partial aggregates."""
    check_stats: dict[str, CheckStat] = {}
    extremal = {stat: ExtremalStat(stat) for stat in stats}
    for seq in seqs:
        tree = tree_from_level_sequence(seq)
        data = SpectralData.from_tree(tree, tol=tol)
        label = " ".join(str(v) for v in seq)
        per_tree: dict[str, tuple[bool, float]] = {}
        for report in bounds.evaluate_checks(data, bound_names):
            name = report.name
            if name.startswith("eigenvalue-interval-"):
                name = "eigenvalue-intervals"
            if report_filter is not None and report.name not in report_filter:
                continue
            ok, slack = per_tree.get(name, (True, math.inf))
            per_tree[name] = (ok and report.satisfied, min(slack, report.slack))
        for name, (ok, slack) in per_tree.items():
            check_stats.setdefault(name, CheckStat(name)).record(ok, slack, label)
        for name, ok, slack in _structural_results(data, structural, tol):
            check_stats.setdefault(name, CheckStat(name)).record(ok, slack, label)
        values = {"rho": data.spectrum.rho, "energy": data.spectrum.energy}
        for stat in stats:
            extremal[stat].record(values[stat], label)
    return check_stats, extremal


def verify_order(order: int, selection=None, jobs: int | None = None,
                 tol: float = DEFAULT_CLUSTER_TOL, cap: int | None = None,
                 stats: tuple[str, ...] = ("rho", "energy")) -> VerificationLedger:
    """Run the selected checks over every rooted tree of the given order.

    ``jobs`` sets the worker-pool width (default: available parallelism, with
    a sequential fast path for small orders); it is clamped to the CPUs this
    process may run on. Batches are contiguous runs of the enumeration merged
    in order, so the ledger equals the sequential one.
    """
    if order < 1:
        raise InvalidOrder(f"need order >= 1, got {order}")
    bound_names, structural, report_filter = _resolve_selection(selection)
    seqs = [canonical_level_sequence(t) for t in enumerate_rooted_trees(order, cap=cap)]
    expected = rooted_tree_count(order)
    if len(seqs) != expected:
        raise AssertionError(
            f"enumerator produced {len(seqs)} trees at order {order}, "
            f"counting recurrence says {expected}"
        )
    cpus = available_cpus()
    jobs = max(1, min(cpus if jobs is None else jobs, cpus, len(seqs)))
    if jobs == 1 or len(seqs) < 64:
        partials = [_evaluate_batch(order, seqs, bound_names, structural,
                                    report_filter, tol, stats)]
    else:
        chunk = (len(seqs) + jobs - 1) // jobs
        batches = [seqs[i:i + chunk] for i in range(0, len(seqs), chunk)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            partials = list(pool.map(
                _batch_entry,
                [(order, batch, bound_names, structural, report_filter, tol, stats)
                 for batch in batches],
            ))
    merged_checks: dict[str, CheckStat] = {}
    merged_extremal = {stat: ExtremalStat(stat) for stat in stats}
    for check_stats, extremal in partials:
        for name, stat in check_stats.items():
            if name in merged_checks:
                merged_checks[name].merge(stat)
            else:
                merged_checks[name] = stat
        for name, ex in extremal.items():
            merged_extremal[name].merge(ex)
    return VerificationLedger(
        order=order,
        tree_count=len(seqs),
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


# ---------------------------------------------------------------------------
# extremal sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalSweep:
    """Arg-extreme trees of one statistic over a full enumeration."""

    order: int
    stat: str
    tree_count: int
    min_tree: RootedTree
    min_value: float
    min_gap: float
    max_tree: RootedTree
    max_value: float
    max_gap: float

    @property
    def min_is_star(self) -> bool:
        return is_rooted_star(self.min_tree)

    @property
    def max_is_path(self) -> bool:
        return is_rooted_path(self.max_tree)


def extremal_sweep(order: int, stat: str = "rho", tol: float = DEFAULT_CLUSTER_TOL,
                   cap: int | None = None) -> ExtremalSweep:
    if stat not in ("rho", "energy"):
        raise KeyError(f"unknown statistic {stat!r}; use 'rho' or 'energy'")
    if order < 2:
        raise InvalidOrder(f"extremal sweep needs order >= 2, got {order}")
    tracker = ExtremalStat(stat)
    count = 0
    best: dict[str, RootedTree] = {}
    for tree in enumerate_rooted_trees(order, cap=cap):
        count += 1
        spectrum = profile_spectrum(level_profile(levels(tree)), tol=tol)
        value = spectrum.rho if stat == "rho" else spectrum.energy
        before_min, before_max = tracker.min_value, tracker.max_value
        tracker.record(value, _seq_label(tree))
        if value < before_min:
            best["min"] = tree
        if value > before_max:
            best["max"] = tree
    return ExtremalSweep(
        order=order,
        stat=stat,
        tree_count=count,
        min_tree=best["min"],
        min_value=tracker.min_value,
        min_gap=tracker.min_gap,
        max_tree=best["max"],
        max_value=tracker.max_value,
        max_gap=tracker.max_gap,
    )


def verify_extremal_rho(order: int, **kwargs) -> ExtremalSweep:
    """Sweep confirming the star minimises and the path maximises rho."""
    return extremal_sweep(order, "rho", **kwargs)


def verify_extremal_energy(order: int, **kwargs) -> ExtremalSweep:
    """Sweep confirming the path maximises the energy."""
    return extremal_sweep(order, "energy", **kwargs)


# ---------------------------------------------------------------------------
# focused harnesses
# ---------------------------------------------------------------------------

MULTIPLICITY_CHECKS = (
    "zero-multiplicity",
    "one-positive-eigenvalue",
    "star-characterisation",
    "path-characterisation",
    "leaf-deletion-multiplicity",
    "zero-deletion-multiplicity",
)


def verify_multiplicity_theorems(order: int, **kwargs) -> VerificationLedger:
    """Exact-nullity and leaf-deletion multiplicity claims at one order."""
    return verify_order(order, selection=list(MULTIPLICITY_CHECKS), **kwargs)


def verify_interlacing(order: int, **kwargs) -> VerificationLedger:
    """Cauchy interlacing of every leaf-deleted subtree at one order."""
    return verify_order(order, selection=["interlacing"], **kwargs)
