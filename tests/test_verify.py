import concurrent.futures
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelspectra import bounds as bounds_mod
from levelspectra import cli as cli_mod
from levelspectra import levelmatrix as levelmatrix_mod
from levelspectra import spectra as spectra_mod
from levelspectra import trees as trees_mod
from levelspectra import verify as verify_mod
from levelspectra.bounds import path_rho_closed_form
from levelspectra.errors import AmbiguousCluster, InvalidOrder, ResourceLimit
from levelspectra.spectra import level_profile
from levelspectra.trees import rooted_tree_count
from levelspectra.verify import (
    MAX_OFFENDERS,
    CheckStat,
    ExtremalStat,
    available_checks,
    extremal_sweep,
    verify_order,
)

from conftest import leaf_levels, profiles_by_index


class TestVerifyOrder:
    def test_levels_never_computed(self, monkeypatch):
        """verify walks level sequences and builds no tree, so no tree's
        levels are ever computed."""
        calls = []
        real = trees_mod.levels

        def counting(tree):
            calls.append(tree.n)
            return real(tree)

        for module in (trees_mod, levelmatrix_mod, bounds_mod, verify_mod):
            if hasattr(module, "levels"):
                monkeypatch.setattr(module, "levels", counting)
        ledger = verify_order(7, jobs=1)
        assert ledger.violations == 0
        assert calls == []

    @pytest.mark.parametrize("n", range(1, 8))
    def test_zero_violations(self, n):
        ledger = verify_order(n, jobs=1)
        assert ledger.violations == 0
        assert ledger.tree_count == rooted_tree_count(n)

    def test_every_check_covers_every_tree(self):
        ledger = verify_order(6, jobs=1)
        by_name = {c.name: c for c in ledger.checks}
        # checks valid at every order count all 20 trees
        for name in ("eigenvalue-cap", "trace-identity", "energy-identity",
                     "zero-multiplicity", "interlacing"):
            assert by_name[name].trees_checked == 20
        # the improved energy bound excludes the one path
        assert by_name["energy-upper-improved"].trees_checked == 19

    def test_selection_single_check(self):
        ledger = verify_order(5, selection=["energy-identity"], jobs=1)
        assert [c.name for c in ledger.checks] == ["energy-identity"]
        assert ledger.checks[0].trees_checked == 9

    @pytest.mark.parametrize("selection, lines", [
        (["energy-identity", "rho-row-sums"],
         ["energy-identity", "rho-row-sum-lower", "rho-row-sum-upper"]),
        (["spectrum-interval", "eigenvalue-intervals"],
         ["eigenvalue-intervals", "spectrum-interval"]),
        (["rho-row-sum-upper", "energy-upper", "energy-identity"],
         ["energy-identity", "energy-upper", "rho-row-sum-upper"]),
    ])
    def test_selection_mixes_lines_and_checks(self, selection, lines):
        """A ledger line selects itself, a check all of its lines; each
        evaluator keeps what was asked of it."""
        ledger = verify_order(5, selection=selection, jobs=1)
        assert [c.name for c in ledger.checks] == lines
        full = {c.name: c.to_dict() for c in verify_order(5, jobs=1).checks}
        assert [c.to_dict() for c in ledger.checks] == [full[name] for name in lines]

    def test_selection_repeated_name_counts_once(self):
        ledger = verify_order(5, selection=["interlacing", "interlacing",
                                            "trace-identity", "trace-identity"], jobs=1)
        assert [c.trees_checked for c in ledger.checks] == [9, 9]

    def test_selection_structural(self):
        ledger = verify_order(5, selection=["zero-multiplicity", "interlacing"], jobs=1)
        assert sorted(c.name for c in ledger.checks) == ["interlacing", "zero-multiplicity"]

    def test_unknown_selection(self):
        with pytest.raises(KeyError):
            verify_order(4, selection=["made-up-check"])

    @pytest.mark.parametrize("selection", [[], ()])
    def test_empty_selection_rejected(self, selection):
        with pytest.raises(ValueError):
            verify_order(5, selection=selection, jobs=1)

    def test_bad_order(self):
        with pytest.raises(InvalidOrder):
            verify_order(0)

    def test_parallel_matches_sequential(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "POOL_MIN_ORDER", 1)  # a pool at every order
        seq = verify_order(8, jobs=1)
        par = verify_order(8, jobs=2)
        assert json.dumps(seq.to_dict(), sort_keys=True) == \
            json.dumps(par.to_dict(), sort_keys=True)

    def test_ledger_serialisation(self):
        ledger = verify_order(4, jobs=1)
        payload = json.loads(json.dumps(ledger.to_dict()))
        assert payload["order"] == 4
        assert payload["tree_count"] == 4
        assert payload["violations"] == 0
        text = ledger.to_text()
        assert "4 trees" in text and "violation" in text

    def test_order_one_runs_structural_only_where_defined(self):
        ledger = verify_order(1, jobs=1)
        names = {c.name for c in ledger.checks}
        assert "zero-cluster-consistency" in names
        assert "interlacing" not in names  # needs n >= 2
        assert ledger.violations == 0

    def test_extremal_values_recorded(self):
        ledger = verify_order(5, jobs=1)
        rho = ledger.extremal["rho"]
        assert rho.min_value == pytest.approx(2.0, abs=1e-10)  # star
        assert rho.max_value == pytest.approx(path_rho_closed_form(5), rel=1e-8)
        assert rho.min_seq == (0, 1, 1, 1, 1)
        assert rho.max_seq == (0, 1, 2, 3, 4)
        assert ledger.to_dict()["extremal"]["rho"]["min"]["tree"] == "0 1 1 1 1"


class TestExtremalSweeps:
    def test_order3(self):
        sweep = extremal_sweep(3, "rho")
        assert sweep.min_seq == (0, 1, 1)  # the star
        assert sweep.min_value == pytest.approx(math.sqrt(2), abs=1e-10)
        assert sweep.max_seq == (0, 1, 2)  # the path
        assert sweep.max_value == pytest.approx(1 + math.sqrt(3), abs=1e-9)

    def test_order5_values(self):
        sweep = extremal_sweep(5, "rho")
        assert sweep.min_value == pytest.approx(2.0, abs=1e-10)
        assert sweep.max_value == pytest.approx(path_rho_closed_form(5), rel=1e-8)
        assert sweep.min_gap > 1e-9 and sweep.max_gap > 1e-9

    def test_energy_matches_rho_argmax(self):
        rho_sweep = extremal_sweep(6, "rho")
        energy_sweep = extremal_sweep(6, "energy")
        assert energy_sweep.max_seq == tuple(range(6))  # the path
        assert energy_sweep.max_value == pytest.approx(2 * rho_sweep.max_value, rel=1e-8)

    def test_order2_degenerate(self):
        sweep = extremal_sweep(2, "rho")
        assert sweep.min_seq == sweep.max_seq == (0, 1)  # the one tree
        assert sweep.min_value == sweep.max_value == pytest.approx(1.0)
        # no other tree, so no runner-up: an infinite gap, printed as null
        assert sweep.min_gap == sweep.max_gap == math.inf
        assert sweep.to_dict()["min"]["gap"] is sweep.to_dict()["max"]["gap"] is None

    def test_bad_stat(self):
        with pytest.raises(KeyError):
            extremal_sweep(4, "girth")

    def test_bad_order(self):
        with pytest.raises(InvalidOrder):
            extremal_sweep(1, "rho")


class TestFocusedHarnesses:
    def test_multiplicity(self):
        ledger = verify_order(6, selection=[
            "zero-multiplicity", "one-positive-eigenvalue", "star-characterisation",
            "path-characterisation", "leaf-deletion-multiplicity",
            "zero-deletion-multiplicity"], jobs=1)
        assert ledger.violations == 0
        names = {c.name for c in ledger.checks}
        assert "zero-multiplicity" in names
        assert "leaf-deletion-multiplicity" in names
        assert "eigenvalue-cap" not in names

    def test_interlacing(self):
        ledger = verify_order(6, selection=["interlacing"], jobs=1)
        assert ledger.violations == 0
        assert [c.name for c in ledger.checks] == ["interlacing"]

    def test_available_checks_sorted(self):
        names = available_checks()
        assert names == sorted(names)
        assert "energy-identity" in names
        assert "strict-row-sum-lower" in names


class TestAggregates:
    def test_check_stat_records_offenders(self):
        stat = CheckStat("demo")
        stat.record(True, 0.5)
        stat.record(False, -0.25)
        stat.offend((0, 1, 1))
        assert stat.trees_checked == 2
        assert stat.violations == 1
        assert stat.worst_slack == -0.25
        assert stat.offenders == [(0, 1, 1)]
        assert stat.to_dict()["offenders"] == ["0 1 1"]

    def test_check_stat_records_many_trees(self):
        """A worker counts each line's trees and violations a batch at a
        time: a line looked up by profile counts only the trees it covers
        (the improved energy bound skips the path), and a line names its
        first failing trees in walk order, across batches of 3, and no more
        than MAX_OFFENDERS of its 12."""
        bound_lines, _ = verify_mod._resolve_selection(["energy-upper-improved"])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify_mod, "STRUCTURAL_CHECKS",
                       {"made-up": (1, _TREE_KIND, _tree_check(_EVERY_FOURTH_FAILS))})
            mp.setattr(verify_mod, "STACK_SIZE", 3)
            tables = verify_mod._verdict_tables(7, bound_lines, ["made-up"],
                                                spectra_mod.DEFAULT_CLUSTER_TOL)
            checked, violations, offenders, walked = verify_mod._evaluate_batch(7, 0, None,
                                                                                tables)
        assert tables.names == ["energy-upper-improved", "made-up"]
        assert (checked.tolist(), violations.tolist(), walked) == ([47, 48], [0, 12], 48)
        assert offenders == [[], _ORDER_7[::4][:MAX_OFFENDERS]]

    def test_check_stats_do_not_share_offenders(self):
        a, b = CheckStat("x"), CheckStat("x")
        a.offend((0, 1))
        assert a.offenders == [(0, 1)] and b.offenders == []

    def test_extremal_stat_tracks_runner_up(self):
        stat = ExtremalStat("rho")
        for value, seq in [(3.0, "a"), (1.0, "b"), (2.0, "c")]:
            stat.record(value, seq)
        assert stat.min_value == 1.0 and stat.min_seq == "b"
        assert stat.max_value == 3.0 and stat.max_seq == "a"
        assert stat.min_gap == pytest.approx(1.0)
        assert stat.max_gap == pytest.approx(1.0)


#: The trees of order 7 in walk order.
_ORDER_7 = list(trees_mod.level_sequences(7))


def _tree_check(verdicts):
    """A TREE check that gives the i-th tree of order 7 the i-th verdict."""
    by_seq = dict(zip(_ORDER_7, verdicts))
    return lambda levels: np.array([by_seq[tuple(row)] for row in levels.tolist()], dtype=bool)


#: Fails on the trees 0, 4, 8, ... of order 7's walk: 12 of its 48.
_EVERY_FOURTH_FAILS = [i % 4 != 0 for i in range(len(_ORDER_7))]


def _walked_line(verdicts, walk_size, jobs):
    """The ledger line of ``_tree_check(verdicts)`` at order 7, walked
    ``walk_size`` trees at a time by ``jobs`` in-process pool workers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify_mod, "STRUCTURAL_CHECKS",
                   {"made-up": (1, _TREE_KIND, _tree_check(verdicts))})
        mp.setattr(verify_mod, "STACK_SIZE", walk_size)
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        mp.setattr(verify_mod, "POOL_MIN_ORDER", 1)  # a pool at every order
        mp.setattr(verify_mod, "available_cpus", lambda: 3)
        _RecordingPool.widths = []
        [line] = verify_order(7, selection=["made-up"], jobs=jobs).checks
    assert _RecordingPool.widths == ([] if jobs == 1 else [jobs])
    return line


def _one_pass(verdicts):
    """The line folded tree by tree with ``CheckStat.record`` and ``offend``."""
    line = CheckStat("made-up")
    for seq, ok in zip(_ORDER_7, verdicts):
        line.record(ok, math.nan)  # a TREE check has no slack
        if not ok:
            line.offend(seq)
    return line


_verdicts = st.lists(st.booleans(), min_size=len(_ORDER_7), max_size=len(_ORDER_7))


class TestMergeEqualsOnePass:
    @given(_verdicts, st.integers(min_value=1, max_value=50), st.integers(min_value=2, max_value=3))
    def test_check_stat(self, verdicts, walk_size, jobs):
        """The workers' partials, added up and their offenders joined in
        batch order, equal one pass over the trees."""
        line = _walked_line(verdicts, walk_size, jobs)
        assert line == _one_pass(verdicts)
        assert len(line.offenders) <= MAX_OFFENDERS

    @given(_verdicts, st.integers(min_value=1, max_value=50))
    def test_batch_forms_equal_one_pass(self, verdicts, walk_size):
        """One worker's walk, batch by batch, equals one pass over the trees."""
        assert _walked_line(verdicts, walk_size, 1) == _one_pass(verdicts)

    def test_offenders_keep_enumeration_order(self):
        """Every fourth tree fails: 4 in each of three workers' 16 trees, so
        the ten named come from all three, and across walk batches of 3."""
        for walk_size, jobs in [(3, 1), (3, 3), (48, 3)]:
            line = _walked_line(_EVERY_FOURTH_FAILS, walk_size, jobs)
            assert (line.trees_checked, line.violations) == (48, 12)
            assert line.offenders == _ORDER_7[::4][:MAX_OFFENDERS]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the width, runs in-process."""

    widths: list = []

    def __init__(self, max_workers):
        self.widths.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, *iterables):
        return list(map(func, *iterables))


class TestPoolWidth:
    @pytest.fixture
    def pool(self, monkeypatch):
        _RecordingPool.widths = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(verify_mod, "POOL_MIN_ORDER", 1)  # a pool at every order
        return _RecordingPool

    def test_no_pool_below_the_cut_off(self, pool, monkeypatch):
        monkeypatch.setattr(verify_mod, "POOL_MIN_ORDER", 9)
        verify_order(8, jobs=2)
        assert pool.widths == []
        monkeypatch.setattr(verify_mod, "POOL_MIN_ORDER", 8)
        verify_order(8, jobs=2)
        assert pool.widths == [2]

    def test_cut_off_in_orders_is_one_in_trees(self, capsys):
        """Tree counts rise strictly from order 2, so an order cut-off is
        the tree-count cut-off of its order, which the --jobs help names.
        The command line writes both numbers out, as it parses without the
        engine: this binds them to the engine's."""
        order = verify_mod.POOL_MIN_ORDER
        counts = [rooted_tree_count(n) for n in range(2, order + 3)]
        assert counts == sorted(set(counts))
        assert order > trees_mod.DEFAULT_ENUMERATION_CAP
        with pytest.raises(SystemExit):
            cli_mod.main(["verify", "--help"])
        assert (f"a pool starts only from {rooted_tree_count(order):,} trees "
                f"(order {order}, above the default cap)"
                in " ".join(capsys.readouterr().out.split()))

    @pytest.mark.parametrize("jobs", [None, 1000])
    def test_clamped_to_affinity(self, pool, monkeypatch, jobs):
        monkeypatch.setattr(verify_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        ledger = verify_order(8, jobs=jobs)
        assert pool.widths == [3]
        assert ledger.to_dict() == verify_order(8, jobs=1).to_dict()

    def test_falls_back_to_cpu_count(self, pool, monkeypatch):
        monkeypatch.delattr(verify_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 2)
        verify_order(8, jobs=64)
        assert pool.widths == [2]


class TestBatchRanges:
    @pytest.fixture
    def ranges(self, monkeypatch):
        """The (start, stop) of every batch run, through the pool stand-in."""
        seen = []
        evaluate = verify_mod._evaluate_batch

        def recording(order, start, stop, *args):
            seen.append((start, stop))
            return evaluate(order, start, stop, *args)

        monkeypatch.setattr(verify_mod, "_evaluate_batch", recording)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(verify_mod, "POOL_MIN_ORDER", 1)  # a pool at every order
        monkeypatch.setattr(verify_mod, "available_cpus", lambda: 3)
        return seen

    @pytest.mark.parametrize("jobs, cut", [
        (1, [(0, None)]),
        (2, [(0, 57), (57, None)]),
        (3, [(0, 38), (38, 76), (76, None)]),
    ])
    def test_cut_from_the_tree_count(self, ranges, jobs, cut):
        ledger = verify_order(8, jobs=jobs)  # 115 trees
        assert ranges == cut
        assert ledger.tree_count == 115

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_extra_tree_is_caught(self, ranges, monkeypatch, jobs):
        """The last batch runs to the end of the enumeration, so one tree
        too many is counted."""
        real = verify_mod.level_sequences

        def one_too_many(order):
            yield from real(order)
            yield tuple(range(order))

        monkeypatch.setattr(verify_mod, "level_sequences", one_too_many)
        with pytest.raises(AssertionError, match="116 trees"):
            verify_order(8, jobs=jobs)
        assert ranges[-1][1] is None


class TestJobsValidation:
    @pytest.mark.parametrize("jobs", [0, -5])
    def test_below_one_rejected(self, jobs):
        with pytest.raises(ValueError):
            verify_order(3, jobs=jobs)


@pytest.mark.parametrize("run", [lambda: verify_order(30), lambda: extremal_sweep(30, "rho")],
                         ids=["verify", "extremal"])
def test_cap_refused_before_any_solve(monkeypatch, run):
    """Both walks solve the whole profile space first (2**28 profiles at
    order 30), so the enumeration cap must be checked before that."""
    def solve_profiles(*args, **kwargs):
        raise AssertionError("profiles solved before the cap was checked")

    monkeypatch.setattr(verify_mod, "solve_profiles", solve_profiles)
    with pytest.raises(ResourceLimit):
        run()


@pytest.mark.parametrize("order", [5, 30])
@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8])
def test_bad_tol_refused_before_any_solve(monkeypatch, tol, order):
    """verify_order checks its tolerance at entry, before the enumeration
    cap (order 30 is above it) and before any profile is solved."""
    def solve_profiles(*args, **kwargs):
        raise AssertionError("profiles solved before the tolerance was checked")

    monkeypatch.setattr(verify_mod, "solve_profiles", solve_profiles)
    with pytest.raises(ValueError, match="tol"):
        verify_order(order, tol=tol)


@pytest.mark.parametrize("order", range(1, 11))
def test_sequence_facts_match_tree(order):
    """Profile, leaf levels and parents read off a canonical level sequence
    equal those of the tree built from it."""
    seqs = list(trees_mod.level_sequences(order))
    assert seqs == [trees_mod.canonical_level_sequence(t)
                    for t in trees_mod.enumerate_rooted_trees(order)]
    for seq in seqs:
        tree = trees_mod.tree_from_level_sequence(seq)
        lev = trees_mod.levels(tree)
        assert lev.tolist() == list(seq)
        assert level_profile(seq) == level_profile(lev)
        assert leaf_levels(seq) == {int(lev[leaf]) for leaf in tree.leaves()}
        assert trees_mod.level_sequence_parents(seq) == list(tree.parent)
    profiles = profiles_by_index(order)
    assert [profiles[i] for i in trees_mod.profile_ids(np.array(seqs)).tolist()] == \
        [level_profile(seq) for seq in seqs]


@pytest.mark.parametrize("order", range(1, 13))
def test_profile_ids_index_level_profiles(order):
    """The walk's profile index of every tree, from its sorted levels, is
    ``trees.profile_index`` of its level profile."""
    seqs = list(trees_mod.level_sequences(order))
    assert trees_mod.profile_ids(np.array(seqs)).tolist() == \
        [int(trees_mod.profile_index([level_profile(seq)])[0]) for seq in seqs]


# ---------------------------------------------------------------------------
# the ledger rebuilt tree by tree, with no profile memo, as an oracle
# ---------------------------------------------------------------------------

def _solve_tree(tree):
    """The engine's stack of one tree's profile."""
    return bounds_mod.SpectralData.from_tree(tree)


def _oracle_structural(tree, spectrum, nullity, tol):
    """(name, ok, slack) of every structural check on one tree, from the
    tree itself: leaf deletion, the LCA-walk distance matrix and the scalar
    row-sum closed form."""
    n = tree.n
    matrix = levelmatrix_mod.LevelMatrix.from_levels(trees_mod.levels(tree))
    sub_data = [_solve_tree(trees_mod.delete_leaf(tree, leaf))
                for leaf in tree.leaves()] if n >= 2 else []
    out = []
    if n >= 3:
        slack = spectrum.rho - 2.0 * matrix.level_index / n
        out.append(("strict-row-sum-lower",
                    slack > bounds_mod.COMPARISON_TOL * max(1.0, spectrum.rho), slack))
    if n >= 2:
        sum_l2 = sum(int(v) ** 2 for v in matrix.row_sums)
        q = matrix.entries @ matrix.row_sums
        a = math.sqrt(float(sum(int(x) ** 2 for x in q)) / sum_l2)
        b = math.sqrt(sum_l2 / n)
        c = 2.0 * matrix.level_index / n
        tol_abs = bounds_mod.COMPARISON_TOL * max(1.0, a)
        out.append(("bound-chain", a >= b - tol_abs and b >= c - tol_abs, min(a - b, b - c)))
    if n >= 3:
        out.append(("zero-multiplicity", nullity == n - 1 - matrix.l_max, math.nan))
    if n >= 2:
        out.append(("one-positive-eigenvalue",
                    int((spectrum.values > tol * max(1.0, spectrum.rho)).sum()) == 1, math.nan))
    if n >= 3:
        out.append(("star-characterisation",
                    (nullity == n - 2) == trees_mod.is_rooted_star(tree), math.nan))
        out.append(("path-characterisation",
                    (nullity == 0) == trees_mod.is_rooted_path(tree), math.nan))
    try:  # an ambiguous zero cluster fails the check, as verify reports it
        zero_ok = spectra_mod.clustered_multiplicity(spectrum, 0.0, tol) == nullity
    except AmbiguousCluster:
        zero_ok = False
    out.append(("zero-cluster-consistency", zero_ok, math.nan))
    dist = levelmatrix_mod.distance_matrix(tree)
    out.append(("distance-domination",
                bool(np.all(matrix.entries <= dist))
                and bool(np.array_equal(matrix.entries, dist)) == trees_mod.is_rooted_path(tree),
                math.nan))
    if n >= 2:
        lev = sorted(trees_mod.levels(tree).tolist(), reverse=True)
        sums = [sum(abs(x - y) for y in lev) for x in lev]
        ok = all(levelmatrix_mod.row_sum_difference(lev, i, k) == sums[i - 1] - sums[k - 1]
                 for i in range(1, n + 1) for k in range(i + 1, n + 1))
        out.append(("row-sum-difference", ok, math.nan))
        eps = verify_mod.INTERLACING_TOL * max(1.0, spectrum.rho)
        worst = min(min(float((spectrum.values[:-1] - sub.values[0]).min()),
                        float((sub.values[0] - spectrum.values[1:]).min()))
                    for sub in sub_data)
        out.append(("interlacing", worst >= -eps, worst))
        spans, first = [], 0  # each cluster's [last - eps, first + eps]
        for _, mult in spectrum.clusters:
            spans.append((spectrum.values[first + mult - 1] - eps,
                          spectrum.values[first] + eps, mult))
            first += mult
        ok = all(abs(mult - int(((sub.values[0] >= lo) & (sub.values[0] <= hi)).sum())) <= 1
                 for sub in sub_data for lo, hi, mult in spans)
        out.append(("leaf-deletion-multiplicity", ok, math.nan))
    if n >= 3:
        out.append(("zero-deletion-multiplicity",
                    all(nullity - int(sub.nullity[0]) in (0, 1) for sub in sub_data), math.nan))
    return out


def _oracle_ledger(order, tol=spectra_mod.DEFAULT_CLUSTER_TOL):
    checks: dict[str, CheckStat] = {}
    extremal = {stat: ExtremalStat(stat) for stat in ("rho", "energy")}
    for tree in trees_mod.enumerate_rooted_trees(order):
        data = bounds_mod.SpectralData.from_tree(tree)
        spectrum, nullity = data.spectrum(tol=tol), int(data.nullity[0])
        label = trees_mod.canonical_level_sequence(tree)
        folded: dict[str, tuple[bool, float]] = {}
        for name, _, _, _, row_slack, satisfied, _ in bounds_mod.evaluate_checks(data):
            if name.startswith("eigenvalue-interval-"):
                name = "eigenvalue-intervals"
            ok, slack = folded.get(name, (True, math.inf))
            folded[name] = (ok and satisfied, min(slack, row_slack))
        results = [(name, ok, slack) for name, (ok, slack) in folded.items()]
        for name, ok, slack in results + _oracle_structural(tree, spectrum, nullity, tol):
            checks.setdefault(name, CheckStat(name)).record(ok, slack)
            if not ok:
                checks[name].offend(label)
        extremal["rho"].record(spectrum.rho, label)
        extremal["energy"].record(spectrum.energy, label)
    return verify_mod.VerificationLedger(
        order=order, tree_count=rooted_tree_count(order),
        checks=[checks[k] for k in sorted(checks)], extremal=extremal)


@pytest.mark.parametrize("order, tol", [
    *(pytest.param(n, spectra_mod.DEFAULT_CLUSTER_TOL, id=str(n)) for n in range(1, 9)),
    # coarse: orders 6-9 name offenders (1, 7, 33 and 108 violations)
    *(pytest.param(n, 0.05, id=f"{n}-tol0.05") for n in range(1, 10)),
])
def test_ledger_equals_tree_by_tree_oracle(order, tol):
    assert verify_order(order, jobs=1, tol=tol).to_dict() == _oracle_ledger(order, tol).to_dict()


# ---------------------------------------------------------------------------
# a ledger with failures: one failing check of each dependency
# ---------------------------------------------------------------------------

_REAL_CHECKS = dict(verify_mod.STRUCTURAL_CHECKS)

# The dependency kinds, read off real checks.
_PROFILE_KIND = _REAL_CHECKS["bound-chain"][1]
_LEAF_KIND = _REAL_CHECKS["interlacing"][1]
_TREE_KIND = _REAL_CHECKS["distance-domination"][1]


def _fails_short_and_narrow(data, tol):
    """Fails where the height is at most 4 and the root has at most two
    children; the slack is rho - 5."""
    return ~((data.heights <= 4) & (data.counts[:, 1] <= 2)), data.rho - 5.0


def _fails_on_lone_deepest_leaf(data, sub, tol):
    """Fails where the root has at least three children and a leaf is
    deleted that is alone on the deepest level. It runs the real
    zero-deletion check on the tree's data with the nullity lowered by one,
    so that deleting a leaf must lower the nullity, which only deleting
    such a leaf does not. The slack is interlacing's."""
    _, _, zero_deletion = _REAL_CHECKS["zero-deletion-multiplicity"]
    _, _, interlacing = _REAL_CHECKS["interlacing"]
    lowered = spectra_mod.SpectralData(data.counts, data.values, data.rho, data.energy,
                                       data.nullity - 1)
    ok, _ = zero_deletion(lowered, sub, tol)
    _, slack = interlacing(data, sub, tol)
    return ok | (data.counts[:, 1] < 3), slack


def _fails_on_last_leaf_at_level_one(levels):
    """Fails where the last vertex of the level sequence is on level 1."""
    return levels[:, -1] >= 2


_FAILING_CHECKS = {
    "fails-profile": (2, _PROFILE_KIND, _fails_short_and_narrow),
    "fails-leaf-level": (2, _LEAF_KIND, _fails_on_lone_deepest_leaf),
    "fails-tree": (2, _TREE_KIND, _fails_on_last_leaf_at_level_one),
}


def _failing_oracle(order):
    """The ledger lines of _FAILING_CHECKS, tree by tree from each tree's
    own leaf deletions, with every offender in enumeration order."""
    lines = {name: {"name": name, "trees_checked": 0, "violations": 0,
                    "worst_slack": math.inf, "offenders": []} for name in _FAILING_CHECKS}
    for seq in trees_mod.level_sequences(order):
        tree = trees_mod.tree_from_level_sequence(seq)
        profile = level_profile(seq)
        data = _solve_tree(tree)
        subs = [_solve_tree(trees_mod.delete_leaf(tree, leaf)) for leaf in tree.leaves()]
        values = data.values[0]
        interlacing = min(min(float((values[:-1] - sub.values[0]).min()),
                              float((sub.values[0] - values[1:]).min()))
                          for sub in subs)
        results = {
            "fails-profile": (not (len(profile) <= 5 and profile[1] <= 2),
                              float(data.rho[0]) - 5.0),
            "fails-leaf-level": (profile[1] < 3 or all(data.nullity[0] - 1 - sub.nullity[0]
                                                       in (0, 1) for sub in subs),
                                 interlacing),
            "fails-tree": (seq[-1] >= 2, math.inf),  # a TREE check has no slack
        }
        for name, (ok, slack) in results.items():
            line = lines[name]
            line["trees_checked"] += 1
            line["worst_slack"] = min(line["worst_slack"], slack)
            if not ok:
                line["violations"] += 1
                line["offenders"].append(seq)
    for line in lines.values():  # as the ledger prints a line without a slack
        line["worst_slack"] = None if math.isinf(line["worst_slack"]) else line["worst_slack"]
    return lines


def _recurs(keys) -> bool:
    """Whether some key comes back after a different one."""
    runs = [key for i, key in enumerate(keys) if i == 0 or key != keys[i - 1]]
    return len(runs) > len(set(keys))


@pytest.mark.parametrize("jobs", [1, 2])
def test_ledger_with_failures_equals_tree_by_tree_oracle(monkeypatch, jobs):
    monkeypatch.setattr(verify_mod, "STRUCTURAL_CHECKS", _FAILING_CHECKS)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(verify_mod, "POOL_MIN_ORDER", 1)  # a pool at every order
    monkeypatch.setattr(verify_mod, "available_cpus", lambda: 2)
    _RecordingPool.widths = []
    oracle = _failing_oracle(8)
    named = {name: line["offenders"][:MAX_OFFENDERS] for name, line in oracle.items()}
    assert all(line["violations"] > MAX_OFFENDERS for line in oracle.values())
    # verdicts are shared by the trees of a profile, or of a profile and
    # leaf levels, yet the offenders named come in enumeration order
    assert _recurs([level_profile(seq) for seq in named["fails-profile"]])
    assert _recurs([(level_profile(seq), frozenset(leaf_levels(seq)))
                    for seq in named["fails-leaf-level"]])
    for name, line in oracle.items():
        line["offenders"] = [" ".join(map(str, seq)) for seq in named[name]]
    ledger = verify_order(8, selection=sorted(_FAILING_CHECKS), jobs=jobs)
    assert _RecordingPool.widths == ([] if jobs == 1 else [2])
    assert ledger.to_dict()["checks"] == [oracle[name] for name in sorted(oracle)]
    assert ledger.violations == sum(line["violations"] for line in oracle.values())


def _inner_leaf_pairs(order):
    """The realisable (profile index, leaf level) pairs of the order whose
    level is not the profile's deepest: some trees of the profile have a
    leaf there and some need not."""
    pairs = []
    for index, profile in enumerate(profiles_by_index(order)):
        pairs += [(index, level)
                  for level in verify_mod._leaf_pairs(np.array([profile]))[1].tolist()
                  if level < len(profile) - 1]
    return pairs


@st.composite
def _failing_leaf_pairs(draw):
    order = draw(st.integers(min_value=5, max_value=8))
    return order, draw(st.frozensets(st.sampled_from(_inner_leaf_pairs(order)), min_size=1))


@settings(deadline=None)  # each example solves two orders' profiles
@given(_failing_leaf_pairs(), st.sampled_from([1, 2]))
def test_leaf_failures_split_a_profile_by_leaf_levels(failing, jobs):
    """A LEAF_LEVEL check that fails at drawn (profile, level) pairs off the
    deepest level fails only the trees of the profile with a leaf at one of
    those levels, as a tree-by-tree oracle from each tree's own leaves
    says, whether one process walks or a pool."""
    order, pairs = failing

    def fails_at_drawn_pairs(data, sub, tol):
        level = np.argmax(data.counts != sub.counts, axis=1)
        drawn = zip(trees_mod.profile_index(data.counts).tolist(), level.tolist())
        return np.array([pair not in pairs for pair in drawn]), math.nan

    oracle = CheckStat("made-up")
    for seq in trees_mod.level_sequences(order):
        tree = trees_mod.tree_from_level_sequence(seq)
        index = int(trees_mod.profile_index([level_profile(seq)])[0])
        ok = not any((index, seq[leaf]) in pairs for leaf in tree.leaves())
        oracle.record(ok, math.nan)
        if not ok:
            oracle.offend(seq)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify_mod, "STRUCTURAL_CHECKS",
                   {"made-up": (1, _LEAF_KIND, fails_at_drawn_pairs)})
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        mp.setattr(verify_mod, "POOL_MIN_ORDER", 1)  # a pool at every order
        mp.setattr(verify_mod, "available_cpus", lambda: 2)
        _RecordingPool.widths = []
        [line] = verify_order(order, selection=["made-up"], jobs=jobs).checks
    assert _RecordingPool.widths == ([] if jobs == 1 else [2])
    assert line == oracle


@pytest.mark.parametrize("walk_size", [1, 7])
def test_ledger_does_not_depend_on_the_walk_batches(monkeypatch, walk_size):
    """Keys recur across batches, the offenders named straddle batch
    boundaries, and naming stops at the cap in mid-batch."""
    monkeypatch.setattr(verify_mod, "STRUCTURAL_CHECKS", _REAL_CHECKS | _FAILING_CHECKS)
    runs = [lambda: verify_order(9, jobs=1),
            lambda: verify_order(8, selection=sorted(_FAILING_CHECKS), jobs=1)]
    default = [run().to_dict() for run in runs]
    monkeypatch.setattr(verify_mod, "STACK_SIZE", walk_size)
    assert [run().to_dict() for run in runs] == default


# ---------------------------------------------------------------------------
# extremal statistics from the values by profile, against the walk
# ---------------------------------------------------------------------------

def _walked_extremal(order, table, stat="rho"):
    """``ExtremalStat.record`` folded over every tree in walk order, each
    tree's value looked up in the (P,) ``table`` by its profile index."""
    seqs = list(trees_mod.level_sequences(order))
    oracle = ExtremalStat(stat)
    for seq, index in zip(seqs, trees_mod.profile_ids(np.array(seqs)).tolist()):
        oracle.record(float(table[index]), seq)
    return oracle


def _fields(stat):
    return tuple(getattr(stat, name) for name in ExtremalStat.__slots__)


def _crafted(order, case):
    """A (P,) table of distinct values but at its ends. ``multi`` puts the
    maximum, and the minimum, each on a profile of two or more trees (order
    5 has one such profile, which takes the maximum); ``tie`` puts each on
    two profiles of one tree."""
    seqs = np.array(list(trees_mod.level_sequences(order)))
    trees = np.bincount(trees_mod.profile_ids(seqs), minlength=2 ** (order - 2))
    table = np.random.default_rng(order).permutation(len(trees)).astype(float)
    if case == "multi":
        table[np.flatnonzero(trees >= 2)[-1]] = -1.0
        table[np.flatnonzero(trees >= 2)[0]] = len(trees)
    else:
        table[np.flatnonzero(trees == 1)[:2]] = len(trees)
        table[np.flatnonzero(trees == 1)[-2:]] = -1.0
    return table


@pytest.mark.parametrize("case", ["multi", "tie"])
@pytest.mark.parametrize("order", [5, 6, 7])
def test_extremal_ties_equal_the_walk(monkeypatch, order, case):
    """With crafted values by profile in place of rho and energy: an
    extreme on a profile of two or more trees has a runner-up equal to it
    (gap 0), and so does one that two profiles share, which names the
    larger of their first trees, as the walk's fold does."""
    table = _crafted(order, case)
    solve = verify_mod.solve_profiles

    def crafted_solve(counts):
        data = solve(counts)
        at = table[trees_mod.profile_index(counts)]
        return spectra_mod.SpectralData(data.counts, data.values, at, at, data.nullity)

    monkeypatch.setattr(verify_mod, "solve_profiles", crafted_solve)
    oracle = _walked_extremal(order, table)
    assert oracle.max_gap == 0.0 and (oracle.min_gap == 0.0) == (case == "tie" or order > 5)
    if case == "tie":
        seqs = list(trees_mod.level_sequences(order))
        ids = trees_mod.profile_ids(np.array(seqs)).tolist()
        firsts = [seqs[ids.index(i)] for i in np.flatnonzero(table == table.max()).tolist()]
        assert len(firsts) == 2 and oracle.max_seq == max(firsts) != min(firsts)
    for stat in verify_mod.EXTREMAL_STATS:
        assert _fields(extremal_sweep(order, stat)) == (stat, *_fields(oracle)[1:])


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=32, max_size=32))
def test_extreme_of_any_table_equals_the_walk(values):
    """Order 7's 32 profiles with values from a small set, so ties of
    profiles and of trees are common, at both ends."""
    table = np.array(values, dtype=float)
    oracle = _walked_extremal(7, table)
    got = ExtremalStat("rho", *verify_mod._extreme(7, table, 1),
                       *verify_mod._extreme(7, table, -1))
    assert _fields(got) == _fields(oracle)


def test_extremal_walks_no_tree(monkeypatch):
    """extremal reads its trees and gaps off the values by profile: with
    the enumerator and the walk made to raise, order 10 gives the walked
    result for both statistics."""
    _, rho, energy, _ = verify_mod._solved_space(10)
    want = {stat: _fields(_walked_extremal(10, table, stat))
            for stat, table in (("rho", rho), ("energy", energy))}

    def no_walk(*args, **kwargs):
        raise AssertionError("extremal walked the trees")

    for module in (trees_mod, verify_mod):
        monkeypatch.setattr(module, "level_sequences", no_walk)
    monkeypatch.setattr(verify_mod, "_evaluate_batch", no_walk)
    for stat, fields in want.items():
        assert _fields(extremal_sweep(10, stat)) == fields


@pytest.mark.parametrize("jobs", [1, 2])
def test_profile_space_checked_once_whatever_jobs(monkeypatch, jobs):
    """verify solves and checks the order's profile space once, in the
    calling process, however many workers walk the trees: the 2**5
    profiles of order 7 solved once, then the 2**6 of order 8, each bound
    and PROFILE check on every profile once, and each LEAF_LEVEL check on
    every realisable (profile, leaf level) pair once."""
    solved, members = {}, {}
    solve = verify_mod.solve_profiles

    def counting_solve(counts):
        order = int(counts[0].sum())
        solved[order] = solved.get(order, 0) + len(counts)
        return solve(counts)

    def counting(name, check):
        def evaluate(data, *rest):
            members[name] = members.get(name, 0) + len(data.counts)
            return check(data, *rest)
        return evaluate

    monkeypatch.setattr(verify_mod, "solve_profiles", counting_solve)
    monkeypatch.setattr(verify_mod, "_bound_verdicts",
                        counting("bounds", verify_mod._bound_verdicts))
    monkeypatch.setattr(verify_mod, "STRUCTURAL_CHECKS", {
        name: (min_order, kind, check if kind == _TREE_KIND else counting(name, check))
        for name, (min_order, kind, check) in _REAL_CHECKS.items()})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(verify_mod, "POOL_MIN_ORDER", 1)  # a pool at every order
    monkeypatch.setattr(verify_mod, "available_cpus", lambda: 2)
    _RecordingPool.widths = []
    ledger = verify_order(8, jobs=jobs)
    assert _RecordingPool.widths == ([] if jobs == 1 else [2])
    assert ledger.violations == 0
    assert list(solved.items()) == [(7, 2 ** 5), (8, 2 ** 6)]
    pairs = sum(len(verify_mod._leaf_pairs(counts)[0])
                for _, counts in trees_mod.profile_stacks(8))
    assert members == {"bounds": 2 ** 6} | {
        name: 2 ** 6 if kind == _PROFILE_KIND else pairs
        for name, (_, kind, _) in _REAL_CHECKS.items() if kind != _TREE_KIND}


def test_verdict_tables_check_each_stack_once(monkeypatch):
    """Order 9's 128 profiles, and order 8's 64 below them, are one stack
    each across heights: one solve of each order, each PROFILE evaluator
    and the bound lines called once, and one leaf stack."""
    calls = []

    def counting(name, func):
        def call(*args):
            calls.append(name if name != "solve" else int(args[0][0].sum()))
            return func(*args)
        return call

    monkeypatch.setattr(verify_mod, "solve_profiles", counting("solve", verify_mod.solve_profiles))
    monkeypatch.setattr(verify_mod, "_bound_verdicts",
                        counting("bounds", verify_mod._bound_verdicts))
    monkeypatch.setattr(verify_mod, "_leaf_stack", counting("leaf stack", verify_mod._leaf_stack))
    monkeypatch.setattr(verify_mod, "STRUCTURAL_CHECKS", {
        name: (min_order, kind, counting(name, check) if kind == _PROFILE_KIND else check)
        for name, (min_order, kind, check) in _REAL_CHECKS.items()})
    bound_lines, structural = verify_mod._resolve_selection(None)
    verify_mod._verdict_tables(9, bound_lines, structural, spectra_mod.DEFAULT_CLUSTER_TOL)
    profile_checks = [name for name, (_, kind, _) in _REAL_CHECKS.items()
                      if kind == _PROFILE_KIND]
    assert sorted(map(str, calls)) == sorted(["8", "9", "bounds", "leaf stack", *profile_checks])


@pytest.mark.parametrize("order", [3, 6, 12])
def test_padded_levels_never_reach_a_line(order):
    """A stack of the rooted star, zero-padded to the height of the rooted
    path, and the path: each member gets, for every bound line, the verdict
    and slack of its own stack of one, and the path no energy-upper-improved.
    The star's padded levels hold row sums above its real ones, so a
    maximum over the padding would loosen rho-row-sum-upper and
    quotient-bound."""
    star, path = (1, order - 1) + (0,) * (order - 2), (1,) * order
    stack = spectra_mod.solve_profiles([star, path])
    assert stack.level_row_sums[0].max() > stack.level_max(stack.level_row_sums)[0]
    bound_lines, _ = verify_mod._resolve_selection(None)
    lines = {name: (ok, slack, np.broadcast_to(covered, ok.shape))
             for name, ok, slack, covered in verify_mod._bound_verdicts(stack, bound_lines)}
    for i, profile in enumerate([star[:2], path]):
        alone = {name: (ok[0], slack[0]) for name, ok, slack, _ in
                 verify_mod._bound_verdicts(spectra_mod.solve_profiles([profile]), bound_lines)}
        assert {name for name, (_, _, covered) in lines.items() if covered[i]} == set(alone)
        for name, (ok, slack) in alone.items():
            assert (lines[name][0][i], lines[name][1][i]) == (ok, slack), (profile, name)
    assert lines["energy-upper-improved"][2].tolist() == [True, False]


#: The checks whose evaluators return no slack.
_NO_SLACK = {"leaf-deletion-multiplicity", "zero-deletion-multiplicity", "zero-multiplicity",
             "one-positive-eigenvalue", "star-characterisation", "path-characterisation",
             "zero-cluster-consistency", "row-sum-difference"}


@pytest.mark.parametrize("order", [3, 8, 9, 16, 17])
def test_tables_hold_only_what_carries_information(order):
    """The tables hold one entry per (line, profile): a (lines, P) int8
    verdict table for the bound lines and PROFILE checks (1 holds, 0 fails,
    -1 not covered), and a (checks, P) table of failing-level bits for the
    LEAF_LEVEL checks, in the least unsigned type of n bits or more, named
    in that order before the TREE check, beside one worst slack per line
    (inf for a check without a slack). Only energy-upper-improved skips a
    profile, the rooted path, and no entry fails."""
    size = 2 ** (order - 2)
    # above order 9, the one line that skips a profile: the types of n bits
    bound_lines, structural = verify_mod._resolve_selection(
        None if order <= 9 else ["energy-upper-improved"])
    tables = verify_mod._verdict_tables(order, bound_lines, structural,
                                        spectra_mod.DEFAULT_CLUSTER_TOL)
    bits = {3: np.uint8, 8: np.uint8, 9: np.uint16, 16: np.uint16, 17: np.uint32}[order]
    lines = len(tables.verdict)
    assert tables.verdict.dtype == np.int8 and tables.leaf_bad.dtype == bits
    assert tables.verdict.shape == (lines, size)
    assert tables.leaf_bad.shape == (len(tables.leaf_bad), size)
    assert not (tables.verdict == 0).any() and not tables.leaf_bad.any()
    assert tables.worst.shape == (len(tables.names),)
    [(name, verdict)] = [(name, verdict) for name, verdict in zip(tables.names, tables.verdict)
                         if (verdict < 0).any()]
    assert name == "energy-upper-improved"
    assert np.flatnonzero(verdict < 0).tolist() == [size - 1]  # (1,) * order, the last profile
    assert set(np.unique(tables.verdict).tolist()) == {-1, 1}
    if order <= 9:
        assert tables.names[lines:] == ["interlacing", "leaf-deletion-multiplicity",
                                        "zero-deletion-multiplicity", "distance-domination"]
        assert {name for name, slack in zip(tables.names, tables.worst.tolist())
                if math.isinf(slack)} == _NO_SLACK | {"distance-domination"}


@functools.lru_cache(maxsize=None)
def _oracle_lines(order):
    return {line["name"]: line for line in _oracle_ledger(order).to_dict()["checks"]}


@pytest.mark.parametrize("line, uncovered", [("distance-domination", 0),
                                             ("energy-upper-improved", 1)])
def test_one_line_equals_the_oracle_line(line, uncovered):
    """A selection of one line, with no profile line (its tables empty) or
    with one that skips the path, gives the tree-by-tree oracle's line."""
    [got] = verify_order(8, [line], jobs=1).to_dict()["checks"]
    assert got == _oracle_lines(8)[line]
    assert got["trees_checked"] == rooted_tree_count(8) - uncovered


def test_tables_without_a_profile_line_are_empty_and_bool():
    """With no profile line, both tables have no row, in their own types."""
    tables = verify_mod._verdict_tables(8, {}, ["distance-domination"],
                                        spectra_mod.DEFAULT_CLUSTER_TOL)
    assert tables.names == ["distance-domination"]
    assert (tables.verdict.shape, tables.leaf_bad.shape) == ((0, 64), (0, 64))
    assert (tables.verdict.dtype, tables.leaf_bad.dtype) == (np.int8, np.uint8)


def test_profile_count_stops_where_numpy_cannot_address_the_values():
    """Order 56's (2**54, 56) float table is the largest numpy can address;
    order 57 is refused before anything is allocated."""
    assert verify_mod._profile_count(1) == verify_mod._profile_count(2) == 1
    assert verify_mod._profile_count(56) == 2 ** 54
    with pytest.raises(ResourceLimit, match="order 57 has 2\\*\\*55 level profiles"):
        verify_mod._profile_count(57)


def test_profile_space_holds_no_per_profile_objects():
    """The solved profile space of order 18 keeps 10.5 MiB of arrays for
    its 65,536 profiles. Beside them only one stack's working arrays are
    held: 9.1 MiB more at the tracemalloc peak, against 19.1 MiB when each
    profile passed through a Python tuple, a key and a dict on its way to
    the engine."""
    verify_mod._solved_space(6)  # numpy's lazy set-up is not the space's
    tracemalloc.start()
    try:
        space = verify_mod._solved_space(18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - sum(table.nbytes for table in space) < 14 * 2 ** 20


@pytest.mark.parametrize("order", range(1, 13))
def test_batched_distance_domination_equals_per_tree_form(order):
    """The batched check gives each tree the verdict that the per-tree form,
    on the tree's own distance matrix from the LCA walk, gives it."""
    _, _, check = _REAL_CHECKS["distance-domination"]
    seqs = list(trees_mod.level_sequences(order))
    ok = check(np.array(seqs))
    per_tree = []
    for seq in seqs:
        lev = np.array(seq)
        entries = np.abs(lev[:, None] - lev[None, :])
        dist = levelmatrix_mod.distance_matrix(trees_mod.tree_from_level_sequence(seq))
        per_tree.append(bool(np.all(entries <= dist))
                        and np.array_equal(entries, dist) == (max(seq) == order - 1))
    assert ok.tolist() == per_tree
    assert all(per_tree)


@pytest.mark.parametrize("n", [127, 128, 206, 600, 800])
def test_second_order_sums_are_exact(n):
    """rho-second-order and bound-chain on rooted paths on both sides of
    the int64 limit of the aggregates (n = 127) and long enough for
    sum q_i^2 to leave int64, against exact Python integers."""
    lev = range(n)
    row = [sum(abs(i - j) for j in lev) for i in lev]
    q = [sum(abs(i - j) * row[j] for j in lev) for i in lev]
    sum_l2 = sum(x * x for x in row)
    a = math.sqrt(sum(x * x for x in q) / sum_l2)
    b = math.sqrt(sum_l2 / n)
    c = sum(row) / n
    data = spectra_mod.solve_profiles([(1,) * n])
    [comparison] = bounds_mod.check_rho_second_order(data)
    [(_, _, rhs, _, _, satisfied, _)] = comparison.rows()
    assert satisfied
    assert rhs == pytest.approx(a, rel=1e-12)
    _, _, bound_chain = verify_mod.STRUCTURAL_CHECKS["bound-chain"]
    ok, slack = bound_chain(data, spectra_mod.DEFAULT_CLUSTER_TOL)
    assert ok.tolist() == [True]
    assert slack[0] == pytest.approx(min(a - b, b - c), rel=1e-12)


@pytest.mark.parametrize("order", range(1, 11))
def test_realisable_leaf_levels_are_those_walked(order):
    """The (profile, leaf level) pairs the leaf checks are evaluated on are
    exactly those of the trees walked."""
    walked = {(level_profile(seq), k) for seq in trees_mod.level_sequences(order)
              for k in leaf_levels(seq)}
    assert walked == {(profile, k) for profile in profiles_by_index(order)
                      for k in verify_mod._leaf_pairs(np.array([profile]))[1].tolist()}


@pytest.mark.parametrize("order", [7, 10])
def test_leaf_multiplicity_holds_at_a_coarse_tol(order):
    """At tolerance 0.05 the clusters are wide. A window of the whole
    threshold around each cluster's mean also counted leaf-deleted values of
    neighbouring clusters (1 and 151 false violations at orders 7 and 10);
    counted within each cluster's own span, the claim holds for every
    tree."""
    ledger = verify_order(order, selection=["leaf-deletion-multiplicity"], jobs=1, tol=0.05)
    [line] = ledger.checks
    assert (line.trees_checked, line.violations) == (rooted_tree_count(order), 0)


def test_ambiguous_zero_cluster_is_a_violation():
    """At tolerance 0.05 the zero cluster of some order-7 spectra is not
    apart from a nonzero eigenvalue: each such tree fails
    zero-cluster-consistency and is named, where the library call raises."""
    ledger = verify_order(7, selection=["zero-cluster-consistency"], jobs=1, tol=0.05)
    [line] = ledger.checks
    ambiguous = []
    for seq in trees_mod.level_sequences(7):
        spectrum = _solve_tree(trees_mod.tree_from_level_sequence(seq)).spectrum(tol=0.05)
        try:
            spectra_mod.clustered_multiplicity(spectrum, 0.0, 0.05)
        except AmbiguousCluster:
            ambiguous.append(seq)
    assert (line.trees_checked, line.violations) == (48, 7)
    assert line.offenders == ambiguous
