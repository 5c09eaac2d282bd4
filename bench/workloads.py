"""Benchmark workloads and the correctness check applied to every run.

Every workload is an exhaustive enumeration or a fixed tree, so its input is
fully determined by its definition. The benchmark's ``--seed`` is recorded
with each result, and these workloads ignore it.

Each workload also carries the wall and CPU time of the reference program
(the seed commit's source, ``reference/levelspectra-5d1e8b7.zip``) on the
baseline host. The end-to-end run times the program relative to that
reference and scales the ratio by these figures, so the reported seconds are
seconds of the baseline host, whatever the speed of the host at the moment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Ledger slacks and extremal values must match the reference this closely
#: (relative to max(1, |reference|)).
LEDGER_TOL = 1e-12

#: Relative tolerance for a spectral radius against its closed form.
RHO_TOL = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Median wall time of ``level-spectra --help`` of the reference program on
#: the baseline host (see README.md).
REFERENCE_SETUP_S = 0.26


@dataclass(frozen=True)
class Workload:
    """One CLI invocation, the number of trees it processes, and a check of
    its exit code and standard output (``None`` when correct, otherwise a
    one-line reason)."""

    name: str
    argv: tuple[str, ...]
    trees: int
    check: Callable[[int, str], "str | None"]
    #: Median wall and CPU seconds of the reference program on the baseline host.
    ref_wall_s: float
    ref_cpu_s: float
    #: Extra arguments for the in-process traced run.
    traced_argv: tuple[str, ...] = ()
    #: Input files (path, text) written before anything is timed.
    inputs: tuple[tuple[Path, str], ...] = ()


def _close(got, want, tol: float) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= tol * max(1.0, abs(want))


def ledger_differences(got: dict, ref: dict, tol: float = LEDGER_TOL) -> list[str]:
    """Ways a verification ledger differs from the reference: counts,
    offenders and extremal trees exactly, slacks and values within ``tol``."""
    diffs = []
    for key in ("order", "tree_count", "violations"):
        if got.get(key) != ref[key]:
            diffs.append(f"{key}: {got.get(key)!r} != {ref[key]!r}")
    got_checks = {c["name"]: c for c in got.get("checks", [])}
    ref_checks = {c["name"]: c for c in ref["checks"]}
    if set(got_checks) != set(ref_checks):
        diffs.append(f"check names differ: {sorted(set(got_checks) ^ set(ref_checks))}")
    for name in sorted(set(got_checks) & set(ref_checks)):
        g, r = got_checks[name], ref_checks[name]
        for key in ("trees_checked", "violations", "offenders"):
            if g.get(key) != r[key]:
                diffs.append(f"{name}.{key}: {g.get(key)!r} != {r[key]!r}")
        if not _close(g.get("worst_slack"), r["worst_slack"], tol):
            diffs.append(f"{name}.worst_slack: {g.get('worst_slack')!r} != {r['worst_slack']!r}")
    for stat, r_stat in ref["extremal"].items():
        g_stat = got.get("extremal", {}).get(stat, {})
        for side in ("min", "max"):
            g, r = g_stat.get(side, {}), r_stat[side]
            if g.get("tree") != r["tree"]:
                diffs.append(f"extremal {stat} {side} tree: {g.get('tree')!r} != {r['tree']!r}")
            for key in ("value", "gap"):
                if not _close(g.get(key), r[key], tol):
                    diffs.append(f"extremal {stat} {side} {key}: {g.get(key)!r} != {r[key]!r}")
    return diffs


def _json_output(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def verify_workload(name: str, order: int, reference: Path, trees: int,
                    ref_wall_s: float, ref_cpu_s: float) -> Workload:
    """``verify --order N`` with all checks and the default worker count;
    the ledger must match ``reference``."""

    def check(code: int, stdout: str):
        if code != 0:
            return f"exit code {code}"
        ledger, err = _json_output(stdout)
        if err:
            return err
        if ledger.get("violations") != 0:
            return f"{ledger.get('violations')} violation(s)"
        ref = json.loads(reference.read_text(encoding="utf-8"))
        diffs = ledger_differences(ledger, ref)
        return f"ledger differs from {reference.name}: {diffs[0]}" if diffs else None

    return Workload(
        name=name,
        argv=("verify", "--order", str(order), "--format", "json"),
        trees=trees,
        check=check,
        ref_wall_s=ref_wall_s,
        ref_cpu_s=ref_cpu_s,
        traced_argv=("--jobs", "1"),
    )


def extremal_workload(name: str, order: int, trees: int,
                      ref_wall_s: float, ref_cpu_s: float) -> Workload:
    """``extremal --stat rho --min --expect star``: one eigensolve per tree in
    one process; the minimiser must be the rooted star, rho = sqrt(n - 1)."""
    star = " ".join(["0"] + ["1"] * (order - 1))

    def check(code: int, stdout: str):
        if code != 0:
            return f"exit code {code}"
        if "expectation holds: extreme tree is the star" not in stdout:
            return "expectation not reported as holding"
        if f"tree (level sequence): {star}\n" not in stdout:
            return "minimiser is not the rooted star"
        head = stdout.split("\n", 1)[0]
        value = float(head.rsplit(":", 1)[1])
        if not _close(value, math.sqrt(order - 1), RHO_TOL):
            return f"min rho {value!r} != sqrt({order - 1})"
        return None

    return Workload(
        name=name,
        argv=("extremal", "--order", str(order), "--stat", "rho", "--min", "--expect", "star"),
        trees=trees,
        check=check,
        ref_wall_s=ref_wall_s,
        ref_cpu_s=ref_cpu_s,
    )


def analyze_path_workload(name: str, n: int, work_dir: Path,
                          closed_form: Callable[[int], float],
                          ref_wall_s: float, ref_cpu_s: float) -> Workload:
    """``analyze`` on the rooted path of ``n`` vertices: one n x n level
    matrix with nullity 0 and a closed-form spectral radius."""
    input_path = work_dir / f"path{n}.txt"
    tree_file = f"{n}\n" + " ".join(str(i) for i in range(n)) + "\n"

    def check(code: int, stdout: str):
        if code != 0:
            return f"exit code {code}"
        report, err = _json_output(stdout)
        if err:
            return err
        if report.get("mul_zero_exact") != 0:
            return f"mul(0) exact is {report.get('mul_zero_exact')!r}, expected 0"
        want = closed_form(n)
        if not _close(report.get("rho"), want, RHO_TOL):
            return f"rho {report.get('rho')!r} != closed form {want!r}"
        return None

    return Workload(
        name=name,
        argv=("analyze", str(input_path), "--format", "json"),
        trees=1,
        check=check,
        ref_wall_s=ref_wall_s,
        ref_cpu_s=ref_cpu_s,
        inputs=((input_path, tree_file),),
    )


def benchmark_workloads(work_dir: Path, closed_form) -> dict[str, Workload]:
    """The three workloads listed in BENCHMARK.json. The last two figures of
    each are the reference program's median wall and CPU seconds on the
    baseline host. The sizes keep one invocation near 1.5-2 s, so that a run
    holds ten or more program/reference pairs."""
    loads = [
        verify_workload("verify-o9", 9, REFERENCE_DIR / "verify-o9.json", 286, 1.52, 2.63),
        extremal_workload("extremal-o10", 10, 719, 1.36, 1.44),
        analyze_path_workload("analyze-path200", 200, work_dir, closed_form, 2.01, 2.14),
    ]
    return {w.name: w for w in loads}


def toy_workloads(work_dir: Path, closed_form, reference: Path | None = None) -> dict[str, Workload]:
    """Small versions of the three workloads, for the benchmark's self-test
    (whose checks do not depend on the rough reference times given here)."""
    loads = [
        verify_workload("verify-o6", 6, reference or REFERENCE_DIR / "verify-o6.json", 20,
                        0.5, 0.8),
        extremal_workload("extremal-o7", 7, 48, 0.3, 0.4),
        analyze_path_workload("analyze-path30", 30, work_dir, closed_form, 0.3, 0.4),
    ]
    return {w.name: w for w in loads}
