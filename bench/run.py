"""Benchmark of the ``level-spectra`` command line, end to end and by layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload verify-o9 --seed 1 --seconds 38 --trace 0

``--trace 0`` times whole CLI invocations in child processes and reports the
end-to-end metrics. The host this runs on changes speed by up to half over
tens of seconds, so every invocation of the program is paired with one of the
reference program (the seed commit's source, unpacked from
``reference/levelspectra-5d1e8b7.zip``), run right before or after it in
alternating order. Times are reported as the median program/reference ratio
over the pairs, scaled by the reference's time on the baseline host (see
``workloads.py``). Pairs are run until the next one would end past
``--seconds`` (at least MIN_PAIRS). ``--trace 1`` runs the workload in this
process through ``levelspectra.cli.main``, once untraced and once with the
layer tracer installed, and reports the per-layer metrics. Every invocation's
exit code and output are checked; see ``workloads.py``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Results, raw times, run context and spans are
also written to ``.bench_out/`` in the checkout.

The program is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with code 2 when that source tree is missing, and with code 3
when the reference program exits with an error.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
import zipfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE_ZIP = HERE / "reference" / "levelspectra-5d1e8b7.zip"
REFERENCE_ROOT = OUT / "reference-program"

sys.path.insert(0, str(HERE))
import workloads as workloads_mod  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Set-up (``level-spectra --help``: interpreter start, imports, parser
#: build) is timed in this many program/reference pairs per run, after one
#: untimed warm-up of each.
SETUP_PAIRS = 5

#: Fewest timed program/reference pairs per end-to-end run, whatever
#: ``--seconds`` is.
MIN_PAIRS = 3

#: No invocation starts, and none may run on, past this many seconds from
#: the start of the benchmark process.
RUN_BUDGET_S = 165.0

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "trees_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics taken from the tracer summary: (traced name, field, unit).
TRACED_METRICS = [
    ("eigen.symmetric_eigh", "calls", "count"),
    ("eigen.symmetric_eigh", "s", "s"),
    ("eigen.symmetric_eigh", "n3_sum", "count"),
    ("spectra.exact_zero_multiplicity", "calls", "count"),
    ("spectra.exact_zero_multiplicity", "s", "s"),
    ("spectra.exact_zero_multiplicity", "n3_sum", "count"),
    ("spectra.symmetric_eigenvalues", "self_s", "s"),
    ("trees.enumerate_rooted_trees", "count", "count"),
    ("trees.enumerate_rooted_trees", "s", "s"),
    ("trees.tree_from_level_sequence", "calls", "count"),
    ("trees.tree_from_level_sequence", "s", "s"),
    ("trees.canonical_level_sequence", "s", "s"),
    ("trees.delete_leaf", "calls", "count"),
    ("trees.delete_leaf", "s", "s"),
    ("levelmatrix.build_level_matrix", "calls", "count"),
    ("levelmatrix.build_level_matrix", "s", "s"),
    ("levelmatrix.distance_matrix", "s", "s"),
    ("levelmatrix.row_sum_difference", "calls", "count"),
    ("levelmatrix.row_sum_difference", "s", "s"),
    ("bounds.evaluate_checks", "calls", "count"),
    ("bounds.evaluate_checks", "s", "s"),
    ("verify.verify_order", "self_s", "s"),
    ("verify.extremal_sweep", "self_s", "s"),
    ("cli.main", "self_s", "s"),
]

#: Per-layer metrics derived from several measurements: name -> unit.
DERIVED_METRICS = {
    "eigen.solves_per_tree": "1/tree",
    "verify.cpu_over_wall": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}

ROOT_SPAN = "cli.main"


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{field}": unit for name, field, unit in TRACED_METRICS}
    units.update(DERIVED_METRICS)
    return units


@dataclass
class Outcome:
    """Correctness tally over every checked invocation of a run."""

    attempted: int = 0
    failed: int = 0

    def record(self, load, code: int, stdout: str, stderr: str) -> None:
        self.attempted += 1
        try:
            reason = load.check(code, stdout)
        except Exception:  # a malformed output must count, not end the run
            reason = "check raised:\n" + traceback.format_exc()
        if reason is not None:
            self.failed += 1
            print(f"check failed on {load.name}: {reason}", file=sys.stderr)
            if stderr.strip():
                print(stderr.strip().splitlines()[-1], file=sys.stderr)


@dataclass
class Invocation:
    wall: float
    cpu: float
    peak_rss_mb: float
    code: int
    stdout: str
    stderr: str


class Budget:
    """Wall-clock allowance of the whole benchmark process."""

    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class ReferenceFailure(Exception):
    """The reference program exited with an error."""


def unpack_reference() -> Path:
    """Unpack the reference program under ``.bench_out/`` and compile it, so
    that neither side of a pair compiles sources while it is timed; returns
    its source root."""
    shutil.rmtree(REFERENCE_ROOT, ignore_errors=True)
    with zipfile.ZipFile(REFERENCE_ZIP) as archive:
        archive.extractall(REFERENCE_ROOT)
    src = REFERENCE_ROOT / "src"
    for root in (SRC, src):
        compileall.compile_dir(root / "levelspectra", quiet=1)
    return src


def run_cli(args, budget: Budget, src: Path = SRC) -> Invocation:
    """Run ``python -m levelspectra.cli ARGS`` with the package from ``src``
    in its own process group and measure wall time, CPU time and peak RSS of
    it and its workers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "levelspectra.cli", *args],
                                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=ROOT, env=env, start_new_session=True)
        killer = threading.Timer(max(budget.left(), 0.0), _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    # wait4 reports the child together with the workers it reaped; ru_maxrss
    # is the largest single resident set among them, in KiB on Linux.
    return Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                      proc.returncode, stdout, stderr)


def run_pair(argv, index: int, budget: Budget, reference: Path) -> tuple[Invocation, Invocation]:
    """One invocation of the program and one of the reference, the program
    first when ``index`` is even; returns (program, reference)."""
    order = (SRC, reference) if index % 2 == 0 else (reference, SRC)
    done = {src: run_cli(argv, budget, src) for src in order}
    return done[SRC], done[reference]


def measure_end_to_end(load, seconds: float, budget: Budget, outcome: Outcome, reference: Path):
    """Median program/reference ratio of set-up time over SETUP_PAIRS pairs,
    then of the workload's wall and CPU time over pairs run for ``seconds``
    (at least MIN_PAIRS), each scaled by the reference's baseline time."""
    for src in (SRC, reference):
        run_cli(["--help"], budget, src)
    setup = [run_pair(["--help"], i, budget, reference) for i in range(SETUP_PAIRS)]
    pairs: list[tuple[Invocation, Invocation]] = []
    last = 0.0
    start = time.perf_counter()
    while len(pairs) < MIN_PAIRS or time.perf_counter() - start + last <= seconds:
        if pairs and budget.left() < 1.5 * last:
            break
        pair_start = time.perf_counter()
        prog, ref = run_pair(load.argv, len(pairs), budget, reference)
        last = time.perf_counter() - pair_start
        if ref.code != 0:
            raise ReferenceFailure(f"reference program exited with code {ref.code} on "
                                   f"{load.name}: {ref.stderr.strip()[-500:]}")
        outcome.record(load, prog.code, prog.stdout, prog.stderr)
        pairs.append((prog, ref))

    def ratio(runs, field):
        return statistics.median(getattr(p, field) / getattr(r, field) for p, r in runs)

    wall = ratio(pairs, "wall") * load.ref_wall_s
    metrics = {
        "wall_s": wall,
        "trees_per_s": load.trees / wall,
        "cpu_s": ratio(pairs, "cpu") * load.ref_cpu_s,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p, _ in pairs),
        "setup_s": ratio(setup, "wall") * workloads_mod.REFERENCE_SETUP_S,
    }

    def times(runs):
        return [{"program": {"wall_s": p.wall, "cpu_s": p.cpu, "peak_rss_mb": p.peak_rss_mb,
                             "exit_code": p.code},
                 "reference": {"wall_s": r.wall, "cpu_s": r.cpu, "exit_code": r.code}}
                for p, r in runs]

    raw = {"setup_pairs": times(setup), "pairs": times(pairs),
           "program_median_wall_s": statistics.median(p.wall for p, _ in pairs),
           "reference_median_wall_s": statistics.median(r.wall for _, r in pairs)}
    return metrics, raw


def call_in_process(cli, argv) -> tuple[float, int, str, str]:
    """Time one ``cli.main(argv)`` call with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(list(argv))
        wall = time.perf_counter() - start
    return wall, code, out.getvalue(), err.getvalue()


def measure_layers(load, seconds: float, budget: Budget, outcome: Outcome, spans_path: Path):
    """One untraced CLI process for cpu/wall, then (untraced, traced)
    in-process pairs, as many as fit in ``seconds`` (at least one)."""
    import levelspectra.cli as cli

    inv = run_cli(load.argv, budget)
    outcome.record(load, inv.code, inv.stdout, inv.stderr)
    cpu_over_wall = inv.cpu / inv.wall

    argv = load.argv + load.traced_argv
    pairs = []
    last_pair = 0.0
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start + last_pair < seconds:
        if pairs and budget.left() < 1.5 * last_pair:
            break
        pair_start = time.perf_counter()
        plain_wall, code, stdout, stderr = call_in_process(cli, argv)
        outcome.record(load, code, stdout, stderr)
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, code, stdout, stderr = call_in_process(cli, argv)
        finally:
            tracer.uninstall()
        outcome.record(load, code, stdout, stderr)
        summary = tracer.summary()
        own = tracer.self_times()
        covered = sum(t for t, name in zip(own, tracer.names) if name != ROOT_SPAN)
        pairs.append({"untraced": plain_wall, "traced": traced_wall,
                      "coverage": covered / traced_wall, "summary": summary})
        last_pair = time.perf_counter() - pair_start
    tracer.dump(spans_path)

    counts = [{name: (entry["calls"], entry["count"], entry["n3_sum"])
               for name, entry in pair["summary"].items()} for pair in pairs]
    if any(c != counts[0] for c in counts[1:]):
        outcome.attempted += 1
        outcome.failed += 1
        print("layer counts differ between traced runs", file=sys.stderr)

    def median_of(fn):
        return statistics.median(fn(pair) for pair in pairs)

    metrics = {}
    for name, field, _unit in TRACED_METRICS:
        if field == "s" or field == "self_s":
            metrics[f"{name}.{field}"] = median_of(lambda p: p["summary"][name][field])
        else:  # a count, equal in every pair
            metrics[f"{name}.{field}"] = pairs[0]["summary"][name][field]
    metrics["eigen.solves_per_tree"] = metrics["eigen.symmetric_eigh.calls"] / load.trees
    metrics["verify.cpu_over_wall"] = cpu_over_wall
    metrics["trace.overhead_frac"] = median_of(lambda p: p["traced"] / p["untraced"] - 1.0)
    metrics["trace.coverage"] = median_of(lambda p: p["coverage"])
    raw = {"pairs": [{k: v for k, v in p.items() if k != "summary"} for p in pairs],
           "subprocess": {"wall_s": inv.wall, "cpu_s": inv.cpu},
           "spans": str(spans_path.relative_to(ROOT)), "span_count": len(tracer.names)}
    return metrics, raw


def git_commit() -> str | None:
    """Commit of the checkout, when it is a git repository."""
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def run_context(seed: int) -> dict:
    import numpy

    nproc = None
    if shutil.which("nproc"):
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   check=True).stdout)
    return {
        "seed": seed,
        "nproc": nproc,
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, make_workloads=workloads_mod.benchmark_workloads) -> int:
    budget = Budget(RUN_BUDGET_S)
    args = parse_args(argv)
    if not (SRC / "levelspectra" / "cli.py").is_file():
        print(f"no levelspectra source tree at {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import levelspectra
    from levelspectra.bounds import path_rho_closed_form

    if Path(levelspectra.__file__).resolve().parent != SRC / "levelspectra":
        print(f"levelspectra imported from {levelspectra.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    loads = make_workloads(OUT, path_rho_closed_form)
    if args.workload not in loads:
        print(f"unknown workload {args.workload!r}; known: {sorted(loads)}", file=sys.stderr)
        return 2
    load = loads[args.workload]
    for path, text in load.inputs:
        path.write_text(text, encoding="utf-8")

    outcome = Outcome()
    tag = f"{load.name}-trace{args.trace}-seed{args.seed}"
    if args.trace:
        metrics, raw = measure_layers(load, args.seconds, budget, outcome,
                                      OUT / f"spans-{tag}.json")
        units = per_layer_units()
    else:
        try:
            metrics, raw = measure_end_to_end(load, args.seconds, budget, outcome,
                                              unpack_reference())
        except ReferenceFailure as exc:
            print(exc, file=sys.stderr)
            return 3
        units = END_TO_END
    context = run_context(args.seed)
    failed_frac = outcome.failed / outcome.attempted
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": load.name, "argv": list(load.argv),
                   "trace": args.trace, "seconds": args.seconds,
                   "failed_frac": failed_frac, "context": context, "raw": raw}, fh, indent=2)

    print(f"workload {load.name}: level-spectra {' '.join(load.argv)}")
    print(f"seed {args.seed} recorded; the workload is deterministic and ignores it")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"unscaled median wall: program {raw['program_median_wall_s']:.4g} s, "
              f"reference {raw['reference_median_wall_s']:.4g} s, {len(raw['pairs'])} pairs")
    print(f"failed_frac = {failed_frac:.6g} ratio ({outcome.failed} of {outcome.attempted} runs)")
    print("context: " + json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
