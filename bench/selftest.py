"""Self-test of the benchmark at toy sizes (verify at order 6, extremal at
order 7, analyze on the rooted path of 30 vertices).

Run from the root of a checkout:

    python3 bench/selftest.py

It checks that every metric BENCHMARK.json names is printed with its unit,
that a corrupted reference ledger is reported as a failure, that traced spans
nest, and that layer counts repeat exactly across two traced runs. Exits 0
when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import NO_PARENT  # noqa: E402

COUNT_FIELDS = ("calls", "count", "n3_sum")
TOY = ("verify-o6", "extremal-o7", "analyze-path30")


class SelfTest:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            self.failures.append(what)


def bench_run(name: str, trace: int, make=workloads.toy_workloads):
    """One benchmark run in this process; returns (exit code, stdout lines,
    parsed last line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "0", "--seconds", "0",
                         "--trace", str(trace)], make_workloads=make)
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def check_metric_names(t: SelfTest, spec: dict) -> None:
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    t.expect(declared[0] == run.END_TO_END, "BENCHMARK.json end_to_end matches the runner")
    t.expect(declared[1] == run.per_layer_units(), "BENCHMARK.json per_layer matches the runner")
    for name in TOY:
        for trace in (0, 1):
            code, lines, result = bench_run(name, trace)
            t.expect(code == 0 and result["correct"] and result["failed"] == 0
                     and result["attempted"] >= 1, f"{name} trace {trace}: correct run")
            t.expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                     f"{name} trace {trace}: result keys")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            t.expect(got == declared[trace], f"{name} trace {trace}: every metric with its unit")
            printed = all(any(line.startswith(f"{metric} = ") and line.split()[3] == unit
                              for line in lines)
                          for metric, unit in declared[trace].items())
            t.expect(printed, f"{name} trace {trace}: every metric printed by name and unit")
            if trace == 0:
                t.expect(any(line.startswith("failed_frac = 0 ") for line in lines),
                         f"{name}: failed_frac printed")


def check_corrupted_reference(t: SelfTest) -> None:
    ref = json.loads((workloads.REFERENCE_DIR / "verify-o6.json").read_text())
    t.expect(workloads.ledger_differences(ref, ref) == [], "reference matches itself")

    def check(ledger, name):
        return next(c for c in ledger["checks"] if c["name"] == name)

    def shift_slack(ledger, by):
        check(ledger, "eigenvalue-cap")["worst_slack"] += by

    near = json.loads(json.dumps(ref))
    shift_slack(near, 1e-14)
    t.expect(workloads.ledger_differences(near, ref) == [], "slack within 1e-12 accepted")

    corruptions = {
        "offender": lambda d: check(d, "interlacing")["offenders"].append("0 1 2 3 4 5"),
        "count": lambda d: check(d, "bound-chain").__setitem__("trees_checked", 19),
        "slack": lambda d: shift_slack(d, 1e-9),
        "extremal tree": lambda d: d["extremal"]["rho"]["max"].__setitem__("tree", "0 1 1 1 1 1"),
    }
    for what, corrupt in corruptions.items():
        bad = json.loads(json.dumps(ref))
        corrupt(bad)
        t.expect(workloads.ledger_differences(ref, bad) != [], f"corrupted {what} detected")

    bad = json.loads(json.dumps(ref))
    corruptions["offender"](bad)
    bad_path = run.OUT / "corrupted-verify-o6.json"
    run.OUT.mkdir(exist_ok=True)
    bad_path.write_text(json.dumps(bad))

    def make(work_dir, closed_form):
        return workloads.toy_workloads(work_dir, closed_form, reference=bad_path)

    for trace in (0, 1):
        code, _, result = bench_run("verify-o6", trace, make)
        t.expect(code == 0 and not result["correct"]
                 and result["failed"] == result["attempted"] >= 1,
                 f"corrupted reference reported as failure (trace {trace})")


def check_spans_and_counts(t: SelfTest) -> None:
    for name in TOY:
        firsts = []
        for _ in range(2):
            _, _, result = bench_run(name, 1)
            firsts.append({k: v["value"] for k, v in result["metrics"].items()
                           if k.rsplit(".", 1)[1] in COUNT_FIELDS})
        t.expect(bool(firsts[0]) and firsts[0] == firsts[1], f"{name}: counts repeat across traced runs")
        spans = json.loads((run.OUT / f"spans-{name}-trace1-seed0.json").read_text())["spans"]
        roots = [s for s in spans if s[3] == NO_PARENT]
        nested = all(
            spans[parent][1] <= start <= end <= spans[parent][2]
            for _, start, end, parent in spans if parent != NO_PARENT
        )
        t.expect(len(roots) == 1 and roots[0][0] == run.ROOT_SPAN and nested,
                 f"{name}: spans nest under one {run.ROOT_SPAN} span ({len(spans)} spans)")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    t = SelfTest()
    check_metric_names(t, spec)
    check_corrupted_reference(t)
    check_spans_and_counts(t)
    print(f"{len(t.failures)} failure(s)")
    return 1 if t.failures else 0


if __name__ == "__main__":
    sys.exit(main())
