import concurrent.futures
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
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
        stat = CheckStat("demo")
        seqs = np.array([(0, 1, 1), (0, 1, 2), (0, 1, 1), (0, 1, 2)])
        stat.record_each(np.array([True, False, True, False]), seqs)
        stat.record_each(np.array([False]), seqs[:1])
        # the walk folds no slack: verify_order sets it from the tables
        assert (stat.trees_checked, stat.violations, stat.worst_slack) == (5, 3, math.inf)
        assert stat.offenders == [(0, 1, 2), (0, 1, 2), (0, 1, 1)]

    def test_check_stat_merge(self):
        a = CheckStat("demo")
        a.record(True, 1.0)
        b = CheckStat("demo")
        b.record(False, -1.0)
        b.offend((0, 1))
        a.merge(b)
        assert a.trees_checked == 2 and a.violations == 1
        assert a.worst_slack == -1.0 and a.offenders == [(0, 1)]

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

    def test_extremal_stat_merge(self):
        a = ExtremalStat("rho")
        a.record(5.0, "a")
        a.record(4.0, "b")
        b = ExtremalStat("rho")
        b.record(1.0, "c")
        b.record(2.0, "d")
        a.merge(b)
        assert a.min_value == 1.0 and a.min_seq == "c"
        assert a.max_value == 5.0 and a.max_seq == "a"
        assert a.min_gap == pytest.approx(1.0)
        assert a.max_gap == pytest.approx(1.0)

    def test_extremal_merge_of_single_tree_batches(self):
        a, b = ExtremalStat("rho"), ExtremalStat("rho")
        a.record(1.0, "a")
        b.record(3.0, "b")
        a.merge(b)
        assert (a.min_value, a.min_seq, a.min_gap) == (1.0, "a", 2.0)
        assert (a.max_value, a.max_seq, a.max_gap) == (3.0, "b", 2.0)

    def test_extremal_merge_into_empty_has_no_runner_up(self):
        merged, batch = ExtremalStat("rho"), ExtremalStat("rho")
        batch.record(2.0, "only")
        merged.merge(batch)
        assert merged.to_dict()["min"]["gap"] is None
        assert merged.to_dict()["max"]["gap"] is None


# Values from a small set, so ties (which keep the earlier tree) are common.
_values = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0])
_entries = st.lists(st.tuples(st.booleans(), _values), max_size=30)


def _split(items, cuts):
    bounds = sorted({min(c, len(items)) for c in cuts})
    edges = [0] + bounds + [len(items)]
    return [items[lo:hi] for lo, hi in zip(edges, edges[1:])]


class TestMergeEqualsOnePass:
    @given(_entries, st.lists(st.integers(min_value=0, max_value=30), max_size=5))
    def test_extremal_stat(self, entries, cuts):
        labelled = [(value, f"t{i}") for i, (_, value) in enumerate(entries)]
        one_pass = ExtremalStat("rho")
        for value, label in labelled:
            one_pass.record(value, label)
        merged = ExtremalStat("rho")
        for part in _split(labelled, cuts):
            batch = ExtremalStat("rho")
            for value, label in part:
                batch.record(value, label)
            merged.merge(batch)
        assert merged == one_pass

    @given(_entries, st.lists(st.integers(min_value=0, max_value=30), max_size=5))
    def test_check_stat(self, entries, cuts):
        labelled = [(ok, slack, (i,)) for i, (ok, slack) in enumerate(entries)]

        def record(stat, ok, slack, label):
            stat.record(ok, slack)
            if not ok:
                stat.offend(label)

        one_pass = CheckStat("demo")
        for ok, slack, label in labelled:
            record(one_pass, ok, slack, label)
        merged = CheckStat("demo")
        for part in _split(labelled, cuts):
            batch = CheckStat("demo")
            for ok, slack, label in part:
                record(batch, ok, slack, label)
            merged.merge(batch)
        assert merged == one_pass
        assert len(merged.offenders) <= MAX_OFFENDERS

    @given(_entries, st.lists(st.integers(min_value=0, max_value=30), max_size=5))
    def test_batch_forms_equal_one_pass(self, entries, cuts):
        """record_each and ExtremalStat.of_batch, batch by batch, equal
        record of one tree at a time, which for the check is given no slack
        (a nan), as the walk folds none."""
        one_check, one_extremal = CheckStat("demo"), ExtremalStat("rho")
        for i, (ok, value) in enumerate(entries):
            one_check.record(ok, math.nan)
            if not ok:
                one_check.offend((i,))
            one_extremal.record(value, (i,))
        check, extremal = CheckStat("demo"), ExtremalStat("rho")
        for part in _split(list(enumerate(entries)), cuts):
            if not part:
                continue
            seqs = np.array([(i,) for i, _ in part])
            ok = np.array([ok for _, (ok, _) in part])
            values = np.array([value for _, (_, value) in part])
            check.record_each(ok, seqs)
            extremal.merge(ExtremalStat.of_batch("rho", values, seqs))
        assert check == one_check
        assert extremal == one_extremal

    def test_offenders_keep_enumeration_order(self):
        first, second = CheckStat("demo"), CheckStat("demo")
        for i in range(MAX_OFFENDERS):
            first.record(False, -1.0)
            first.offend((1, i))
        second.record(False, -1.0)
        second.offend((0,))
        first.merge(second)
        assert first.offenders == [(1, i) for i in range(MAX_OFFENDERS)]


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
        the tree-count cut-off of its order, which the --jobs help names."""
        counts = [rooted_tree_count(n) for n in range(2, verify_mod.POOL_MIN_ORDER + 3)]
        assert counts == sorted(set(counts))
        with pytest.raises(SystemExit):
            cli_mod.main(["verify", "--help"])
        assert ("a pool starts only from 1,721,159 trees (order 18, above the default cap)"
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


@pytest.mark.parametrize("walk_size", [1, 7])
def test_ledger_does_not_depend_on_the_walk_batches(monkeypatch, walk_size):
    """Keys recur across batches, a key's first two trees (which the
    extremal statistics see) and the offenders named straddle batch
    boundaries, and naming stops at the cap in mid-batch."""
    monkeypatch.setattr(verify_mod, "STRUCTURAL_CHECKS", _REAL_CHECKS | _FAILING_CHECKS)
    runs = [lambda: verify_order(9, jobs=1),
            lambda: verify_order(8, selection=sorted(_FAILING_CHECKS), jobs=1)]
    default = [run().to_dict() for run in runs]
    monkeypatch.setattr(verify_mod, "STACK_SIZE", walk_size)
    assert [run().to_dict() for run in runs] == default


@pytest.mark.parametrize("walk_size", [1, verify_mod.STACK_SIZE])
@pytest.mark.parametrize("order, start", [(5, 5), (7, 38)])
def test_extremal_sees_two_trees_of_the_extreme_key(monkeypatch, order, start, walk_size):
    """From ``start`` to the end of the walk, the largest rho belongs to a
    profile with two or more trees, so the runner-up is that profile's
    second tree (a gap of 0), which a walk that records one tree per
    profile misses. One tree per batch puts the second tree in a later
    batch."""
    sequences = list(trees_mod.level_sequences(order))[start:]
    profiles = [level_profile(seq) for seq in sequences]
    oracle = ExtremalStat("rho")
    for seq, profile in zip(sequences, profiles):
        oracle.record(float(spectra_mod.solve_profiles([profile]).rho[0]), seq)
    assert profiles.count(level_profile(oracle.max_seq)) >= 2
    assert oracle.max_gap == 0.0
    monkeypatch.setattr(verify_mod, "STACK_SIZE", walk_size)
    tables = verify_mod._verdict_tables(order, {}, [], spectra_mod.DEFAULT_CLUSTER_TOL, ("rho",))
    _, extremal, trees = verify_mod._evaluate_batch(order, start, None, tables)
    assert trees == len(sequences)
    assert extremal["rho"] == oracle


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
    verify_mod._verdict_tables(9, bound_lines, structural, spectra_mod.DEFAULT_CLUSTER_TOL,
                               ("rho",))
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


@pytest.mark.parametrize("order", [3, 8])
def test_tables_hold_only_what_carries_information(order):
    """The tables hold verdicts only, beside one worst slack per line (inf
    for a check without a slack), and only a line that skips some profiles
    (energy-upper-improved skips the rooted path) gets a covered mask;
    every other table has a row per profile."""
    bound_lines, structural = verify_mod._resolve_selection(None)
    tables = verify_mod._verdict_tables(order, bound_lines, structural,
                                        spectra_mod.DEFAULT_CLUSTER_TOL, verify_mod.EXTREMAL_STATS)
    size = 2 ** (order - 2)
    assert set(tables.worst) == set(tables.lines) | set(tables.leaf_lines)
    assert {name for name, slack in tables.worst.items() if math.isinf(slack)} == _NO_SLACK
    assert set(tables.leaf_lines) == {"interlacing", "leaf-deletion-multiplicity",
                                      "zero-deletion-multiplicity"}
    for ok in tables.lines.values():
        assert ok.dtype == bool and ok.shape == (size,)
    for ok in tables.leaf_lines.values():
        assert ok.dtype == bool and ok.shape == (size, order)
    [(name, covered)] = tables.covered.items()
    assert name == "energy-upper-improved"
    assert np.flatnonzero(~covered).tolist() == [size - 1]  # (1,) * order, the last profile


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
