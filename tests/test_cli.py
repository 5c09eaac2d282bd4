import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

from levelspectra import bounds as bounds_mod
from levelspectra import cli as cli_mod
from levelspectra import commands as commands_mod
from levelspectra import spectra as spectra_mod
from levelspectra import trees as trees_mod
from levelspectra import verify as verify_mod
from levelspectra.cli import main
from levelspectra.commands import ANALYSIS_REPORT_SCHEMA, polynomial_text
from levelspectra.levelmatrix import LevelMatrix
from levelspectra.spectra import CharPoly
from levelspectra.trees import canonicalize, parse_tree

from conftest import SAMPLE9_PARENTS

SAMPLE9_FILE = "9\n" + " ".join(str(p) for p in SAMPLE9_PARENTS) + "\n"


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "sample9.tree"
    path.write_text(SAMPLE9_FILE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_text_report(self, tree_file, capsys):
        code, out, _ = run(capsys, "analyze", tree_file, "--charpoly")
        assert code == 0
        assert "rho:           10.415812724" in out
        assert "mul(0) exact:  5" in out
        assert "x^9 - 80*x^7 - 276*x^6 - 216*x^5" in out

    def test_json_report_validates(self, tree_file, capsys):
        code, out, _ = run(capsys, "analyze", tree_file, "--format", "json", "--charpoly")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, ANALYSIS_REPORT_SCHEMA)
        assert payload["level_index"] == 44
        assert payload["h_value"] == 160
        assert payload["charpoly"] == ["1", "0", "-80", "-276", "-216",
                                       "0", "0", "0", "0", "0"]
        assert all(math.isfinite(v) for v in payload["spectrum"]["values"])
        assert payload["mul_zero_exact"] == 5

    def test_csv_bounds(self, tree_file, capsys):
        code, out, _ = run(capsys, "analyze", tree_file, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,relation,lhs,rhs,slack,satisfied,equality_expected"
        assert any(line.startswith("trace-identity,==,160,160,") for line in lines)
        assert all(",true," in line or ",false," in line for line in lines[1:])

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_levels_taken_once(self, fmt, tree_file, monkeypatch, capsys):
        """The report keeps the vertex levels that building it computed:
        one ``levels`` pass per run, whatever the format prints."""
        calls = []

        def counted(tree):
            calls.append(tree)
            return trees_mod.levels(tree)

        monkeypatch.setattr(commands_mod, "levels", counted)
        code, out, _ = run(capsys, "analyze", tree_file, "--charpoly", "--format", fmt)
        assert code == 0 and out
        assert len(calls) == 1

    def test_dot(self, tree_file, capsys):
        code, out, _ = run(capsys, "analyze", tree_file, "--format", "dot")
        assert code == 0
        assert out.startswith("digraph") and "(root)" in out

    def test_treefile_roundtrip(self, tree_file, capsys):
        code, out, _ = run(capsys, "analyze", tree_file, "--format", "treefile")
        assert code == 0
        original = canonicalize(parse_tree(SAMPLE9_FILE))
        assert canonicalize(parse_tree(out)) == original

    def test_treefile_of_a_deep_path(self, tmp_path, capsys):
        # one level per vertex: the canonical encoding must not recurse
        n = 5000
        text = f"{n}\n" + " ".join(str(p) for p in range(n)) + "\n"
        path = tmp_path / "path.tree"
        path.write_text(text)
        code, out, _ = run(capsys, "analyze", str(path), "--format", "treefile")
        assert code == 0
        assert out == text

    def test_tall_tree_is_a_resource_limit(self, tmp_path, capsys):
        # 2,000 levels, past spectra.MAX_LEVELS: refused before the profile
        # is solved, whose O(h^3) eigensolve is LAPACK's eigvalsh
        n = 2000
        path = tmp_path / "path.tree"
        path.write_text(f"{n}\n" + " ".join(str(p) for p in range(n)) + "\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", str(path))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (4, "")
        assert err == "resource limit: a level profile of 2000 levels exceeds the limit of 1024\n"
        for fmt in ("dot", "treefile"):
            code, out, _ = run(capsys, "analyze", str(path), "--format", fmt)
            assert code == 0 and out

    def test_bounds_selection(self, tree_file, capsys):
        code, out, _ = run(capsys, "analyze", tree_file, "--format", "csv",
                           "--bounds", "trace-identity")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_bound_named_twice_is_evaluated_once(self, tree_file, capsys):
        """A name given twice is kept where it first appears, as ``verify
        --only`` keeps it."""
        code, out, _ = run(capsys, "analyze", tree_file, "--format", "csv",
                           "--bounds", "trace-identity,rho-row-square,trace-identity")
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == [
            "trace-identity", "rho-row-square"]

    def test_bounds_none(self, tree_file, capsys):
        code, out, _ = run(capsys, "analyze", tree_file, "--bounds", "none")
        assert code == 0
        assert "bound" not in out

    def test_method_option_removed(self, tree_file, capsys):
        # the quotient is solved by LAPACK; the in-repo QL solver is the
        # one dense test oracle (it checks the engine's values per profile
        # and per tree), and no option selects a solver
        code, out, err = run(capsys, "analyze", tree_file, "--method", "jacobi")
        assert code == 64
        assert out == "" and "--method" in err

    def test_deterministic_output(self, tree_file, capsys):
        _, first, _ = run(capsys, "analyze", tree_file, "--charpoly")
        _, second, _ = run(capsys, "analyze", tree_file, "--charpoly")
        assert first == second

    def test_report_internally_consistent(self, tree_file, capsys):
        _, out, _ = run(capsys, "analyze", tree_file, "--format", "json")
        payload = json.loads(out)
        assert payload["energy"] == pytest.approx(2 * payload["rho"], rel=1e-8)
        zero_cluster = sum(
            c["multiplicity"] for c in payload["spectrum"]["clusters"]
            if abs(c["value"]) <= 1e-8 * max(1.0, payload["rho"]))
        assert zero_cluster == payload["mul_zero_exact"]


class TestExitCodes:
    def test_internal_fault_is_70_not_a_violation(self, monkeypatch, capsys):
        """A fault of the program itself, here an enumerator that yields a
        tree too many, exits 70 with its traceback: exit 1 would read as a
        refuted claim."""
        real = verify_mod.level_sequences
        monkeypatch.setattr(verify_mod, "level_sequences", lambda order: itertools.chain(
            real(order), itertools.islice(real(order), 1)))
        code, out, err = run(capsys, "verify", "--order", "5")
        assert (code, out) == (cli_mod.EXIT_INTERNAL, "") and cli_mod.EXIT_INTERNAL == 70
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("\ninternal error: AssertionError: enumerator produced 10 trees at "
                            "order 5, counting recurrence says 9\n")

    def test_parse_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tree"
        bad.write_text("3\n0 1 zz\n")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("text, message", [
        ("3\n0 1 5\n", "parent entry '5' of vertex 3 is not a vertex 1..3 (line 2, column 3)"),
        ("3\n0 -1 1\n", "parent entry '-1' of vertex 2 is not a vertex 1..3 (line 2, column 2)"),
        ("3\n0 1 +4\n", "bad parent entry '+4' (line 2, column 3)"),
        ("2\n0 0\n", "vertices 1, 2 all have parent 0; a tree has one root (line 2)"),
        ("2\n2 1\n", "no vertex has parent 0; a tree has one root (line 2)"),
        ("3\n0 3 2\n", "parent entries form a cycle: 3 -> 2 -> 3 (line 2)"),
        ("5\n0 4 2 3 1\n", "parent entries form a cycle: 3 -> 2 -> 4 -> 3 (line 2)"),
        ("2\n0 2\n", "parent entries form a cycle: 2 -> 2 (line 2, column 2)"),
        ("3\n0 1 1\ngarbage\n", "unexpected content after the parent array (line 3)"),
        ("", "empty input, expected vertex count (line 1)"),
        (" \n\t\n", "empty input, expected vertex count (line 1)"),
        ("\n3\n0 1 1\n", "blank line where the vertex count belongs (line 1)"),
        ("1_0\n0 1 1 1 1 1 1 1 1 1\n", "expected vertex count, got '1_0' (line 1)"),
        ("\uff13\n0 1 1\n", "expected vertex count, got '\uff13' (line 1)"),
        ("+3\n0 1 1\n", "expected vertex count, got '+3' (line 1)"),
        ("3\n0 \uff11 1\n", "bad parent entry '\uff11' (line 2, column 2)"),
        ("3\n0 +1 1\n", "bad parent entry '+1' (line 2, column 2)"),
        ("3\n0 1\f1\n", "expected 3 parent entries, got 2 (line 2)"),
        ("3\n0\u20031 1\n", "expected 3 parent entries, got 2 (line 2)"),
        ("3\n0 - 1\n", "bad parent entry '-' (line 2, column 2)"),
        ("3\n0 1 --1\n", "bad parent entry '--1' (line 2, column 3)"),
        ("3\n0 1-1 -\n", "bad parent entry '1-1' (line 2, column 2)"),
        ("3\n-0 1 1-\n", "bad parent entry '1-' (line 2, column 3)"),
    ], ids=["past-n", "negative", "signed", "two-roots", "no-root", "cycle", "long-cycle",
            "own-parent", "trailing-content", "empty", "blank", "blank-first-line",
            "underscore", "fullwidth", "plus", "fullwidth-entry", "plus-entry", "form-feed", "em-space", "bare-minus",
            "double-minus", "inner-minus", "trailing-minus"])
    def test_parse_errors_number_vertices_as_the_file_does(self, text, message, tmp_path,
                                                          capsys):
        """The file numbers vertices 1..n, so its errors do too; an entry is
        quoted as written, with its column where it alone is at fault. Every
        number is an ASCII decimal integer, "-" the only sign, and only blank
        lines follow the parent array: the other spellings Python's int()
        takes are parse errors, not trees. Lines break at newlines alone and
        fields part at spaces and tabs alone: a form feed or an em space
        inside the parent array leaves it one entry short."""
        bad = tmp_path / "bad.tree"
        bad.write_text(text, encoding="utf-8")
        assert run(capsys, "analyze", str(bad)) == (2, "", f"parse error: {message}\n")

    @pytest.mark.parametrize("text", ["3\n0 1 1\n\n  \n\t\n", "3\n0 1 1", "3\r\n0 1 1\r\n"],
                             ids=["blank-lines", "no-final-newline", "crlf"])
    def test_blank_trailing_lines_and_no_final_newline_are_valid(self, text, tmp_path, capsys):
        good = tmp_path / "good.tree"
        good.write_text(text)
        plain = tmp_path / "plain.tree"
        plain.write_text("3\n0 1 1\n")
        assert run(capsys, "analyze", str(good)) == run(capsys, "analyze", str(plain))

    @pytest.mark.parametrize("command", ["analyze", "charpoly"])
    def test_file_not_utf8_is_parse_error(self, tmp_path, capsys, command):
        bad = tmp_path / "bom.tree"
        bad.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, command, str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ") and "UTF-8" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["analyze", "charpoly"])
    def test_utf8_byte_order_mark_is_skipped(self, tree_file, tmp_path, capsys, command):
        """A tree file saved with a UTF-8 byte-order mark is the same tree:
        the command prints what it prints for the file without the mark."""
        marked = tmp_path / "marked.tree"
        marked.write_bytes(b"\xef\xbb\xbf" + SAMPLE9_FILE.encode())
        code, out, err = run(capsys, command, str(marked))
        assert (code, out, err) == run(capsys, command, tree_file)
        assert (code, err) == (0, "") and out

    def test_cycle_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "cycle.tree"
        bad.write_text("5\n0 1 3 3 1\n")
        code, _, _ = run(capsys, "analyze", str(bad))
        assert code == 2

    def test_missing_file_is_3(self, tmp_path, capsys):
        code, _, _ = run(capsys, "analyze", str(tmp_path / "absent.tree"))
        assert code == 3

    @staticmethod
    def run_into_closed_pipe(*argv, out_to_pipe=False) -> subprocess.CompletedProcess:
        """Run the command line in a new interpreter with the pipe's read end
        closed before it starts: on stdout, or with ``out_to_pipe`` as the
        ``--out`` file."""
        read, write = os.pipe()
        os.close(read)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        if out_to_pipe:
            argv = (*argv, "--out", f"/dev/fd/{write}")
        try:
            return subprocess.run([sys.executable, "-m", "levelspectra.cli", *argv],
                                  stdout=subprocess.DEVNULL if out_to_pipe else write,
                                  stderr=subprocess.PIPE, pass_fds=(write,), env=env,
                                  timeout=120)
        finally:
            os.close(write)

    @pytest.mark.parametrize("argv, code", [
        (("verify", "--order", "10", "--format", "json"), 0),
        (("verify", "--order", "7", "--tol", "0.05"), 1),
        (("extremal", "--order", "6", "--stat", "rho", "--max", "--expect", "path"), 0),
        # JSON of more than one block of encoder chunks
        (("special", "star", "--order", "50000", "--format", "json"), 0),
    ])
    def test_closed_stdout_ends_quietly(self, argv, code):
        """A reader that closed the pipe (``| head -c 0``) ends the output,
        not the command: the command's own exit code, and nothing on stderr,
        not even at interpreter exit."""
        done = self.run_into_closed_pipe(*argv)
        assert (done.returncode, done.stderr) == (code, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="needs /dev/fd")
    def test_out_file_into_a_closed_pipe_is_3(self):
        done = self.run_into_closed_pipe("verify", "--order", "5", out_to_pipe=True)
        assert done.returncode == 3
        assert done.stderr.decode().startswith("i/o error: ")

    def test_resource_limit_is_4(self, capsys):
        code, _, err = run(capsys, "verify", "--order", "30")
        assert code == 4
        assert "cap" in err

    def test_extremal_resource_limit_is_4(self, capsys):
        code, _, err = run(capsys, "extremal", "--order", "30", "--stat", "rho", "--min")
        assert code == 4
        assert "cap" in err

    @pytest.mark.parametrize("argv, target", [
        (["verify", "--order", "9"], "verify_order"),
        (["extremal", "--order", "9", "--stat", "rho", "--min"], "extremal_sweep"),
    ])
    def test_memory_error_is_4(self, monkeypatch, capsys, argv, target):
        """Running out of memory is a resource limit, not a violation (1)
        or a traceback. The error is raised in place of the allocation: a
        host that overcommits memory may grant even a 39 TiB array."""
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 39.0 TiB for an array")

        monkeypatch.setattr(verify_mod, target, exhausted)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err == "resource limit: Unable to allocate 39.0 TiB for an array\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "--order", "{order}"],
        ["extremal", "--order", "{order}", "--stat", "rho", "--min"],
    ])
    @pytest.mark.parametrize("order", [64, 100])
    def test_profile_space_numpy_cannot_address_is_4(self, monkeypatch, capsys, argv, order):
        """Under a raised cap, an order with more profiles than numpy can
        hold in one table is refused before any of them is allocated."""
        monkeypatch.setenv("LEVEL_SPECTRA_CAP", "200")
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code, out, err = run(capsys, *[arg.format(order=order) for arg in argv])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (4, "")
        assert err == (f"resource limit: order {order} has 2**{order - 2} level profiles, "
                       f"more than numpy can address\n")
        assert peak < 2 ** 20

    def test_usage_error_is_64(self, capsys):
        code, _, _ = run(capsys, "extremal", "--order", "7", "--stat", "unknown", "--min")
        assert code == 64

    def test_extremal_tol_is_64(self, capsys):
        """The extreme rho and energy depend on the level profile alone, so
        ``extremal`` has no tolerance to set."""
        code, out, err = run(capsys, "extremal", "--order", "7", "--stat", "energy", "--max",
                             "--tol", "0.05")
        assert (code, out) == (64, "")
        assert "--tol" in err

    def test_missing_required_flag_is_64(self, capsys):
        code, _, _ = run(capsys, "verify")
        assert code == 64

    def test_unknown_bound_name_is_64(self, tree_file, capsys):
        code, _, _ = run(capsys, "analyze", tree_file, "--bounds", "bogus")
        assert code == 64

    @pytest.mark.parametrize("argv", [
        ["verify", "--order", "0", "--only", "bogus"],
        ["verify", "--order", "17", "--only", "trace-identity,bogus"],
        ["analyze", "{tree_file}", "--bounds", "trace-identity,bogus"],
        ["special", "star", "--order", "5", "--bounds", "bogus"],
    ], ids=["verify-order-0", "verify-past-cap", "analyze", "special"])
    def test_unknown_name_refused_before_any_solve(self, argv, tree_file, monkeypatch,
                                                   capsys):
        """The engine refuses an unknown check name before it checks the
        order or solves anything, with the usage error's exit code."""
        def refuse(counts):
            raise AssertionError("a profile was solved")

        monkeypatch.setattr(commands_mod, "solve_profiles", refuse)
        monkeypatch.setattr(verify_mod, "solve_profiles", refuse)
        if argv[0] == "verify":
            kind, known = "check", verify_mod.available_checks()
        else:
            kind, known = "bound check", sorted(bounds_mod.CHECKS)
        argv = [arg.format(tree_file=tree_file) for arg in argv]
        assert run(capsys, *argv) == (
            64, "", f"usage error: unknown {kind} 'bogus'; known: {known}\n")

    @pytest.mark.parametrize("command", ["analyze", "special"])
    @pytest.mark.parametrize("spec", [",", "", " , "])
    def test_bounds_naming_no_check_is_64(self, tree_file, capsys, command, spec):
        target = [tree_file] if command == "analyze" else ["star", "--order", "5"]
        code, out, err = run(capsys, command, *target, "--bounds", spec)
        assert code == 64 and out == ""
        assert err == f"usage error: --bounds names no check: {spec!r}\n"

    def test_nonpositive_tol_is_64(self, tree_file, capsys):
        code, _, err = run(capsys, "analyze", tree_file, "--tol", "-1e-8")
        assert code == 64
        assert "tol" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_is_64(self, tree_file, capsys, tol):
        code, out, err = run(capsys, "analyze", tree_file, "--tol", tol)
        assert code == 64 and out == ""
        assert "tol" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_tol_is_one_cluster(self, capsys):
        """A tolerance whose threshold tol * max(1, rho) overflows clusters
        at +inf: the first value starts the one cluster of the star's
        spectrum, and verify warns of no overflow; every verdict is as at
        any threshold that holds the whole spectrum."""
        code, out, err = run(capsys, "special", "star", "--order", "5", "--tol", "1e308",
                             "--format", "json")
        assert (code, err) == (0, "")
        assert [c["multiplicity"] for c in json.loads(out)["spectrum"]["clusters"]] == [5]
        code, out, err = run(capsys, "verify", "--order", "3", "--tol", "1e308")
        assert (code, err) == (1, "")
        assert run(capsys, "verify", "--order", "3", "--tol", "1e300")[1] == out

    def test_bad_cap_variable_is_64(self, monkeypatch, capsys):
        monkeypatch.setenv("LEVEL_SPECTRA_CAP", "abc")
        code, out, err = run(capsys, "verify", "--order", "3")
        assert code == 64 and out == ""
        assert "LEVEL_SPECTRA_CAP" in err and len(err.strip().splitlines()) == 1


class TestVerifyCommand:
    def test_order8_clean(self, capsys):
        code, out, _ = run(capsys, "verify", "--order", "8", "--jobs", "1")
        assert code == 0
        assert "115 trees, 0 violation(s)" in out

    def test_only_selection(self, capsys):
        code, out, _ = run(capsys, "verify", "--order", "5", "--only",
                           "energy-identity", "--jobs", "1")
        assert code == 0
        assert "energy-identity" in out
        assert "eigenvalue-cap" not in out

    def test_ambiguous_zero_cluster_is_a_violation(self, capsys):
        """A coarse tolerance merges the zero cluster with a nonzero value:
        a failed verdict in the ledger (exit 1), not an abort (exit 64)."""
        code, out, err = run(capsys, "verify", "--order", "7", "--tol", "0.05",
                             "--jobs", "1", "--format", "json")
        assert code == 1 and err == ""
        lines = {c["name"]: c for c in json.loads(out)["checks"]}
        assert lines["zero-cluster-consistency"]["violations"] == 7
        assert len(lines["zero-cluster-consistency"]["offenders"]) == 7

    def test_unknown_only_is_64(self, capsys):
        code, _, _ = run(capsys, "verify", "--order", "5", "--only", "bogus")
        assert code == 64

    @pytest.mark.parametrize("only", [",", "", " , "])
    def test_only_naming_no_check_is_64(self, capsys, only):
        code, out, err = run(capsys, "verify", "--order", "3", "--only", only)
        assert code == 64 and out == ""
        assert "--only" in err

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_is_64(self, capsys, jobs):
        code, out, err = run(capsys, "verify", "--order", "3", "--jobs", jobs)
        assert code == 64 and out == ""
        assert "--jobs" in err

    def test_json_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "ledger.json"
        code, out, _ = run(capsys, "verify", "--order", "4", "--jobs", "1",
                           "--format", "json", "--out", str(out_file))
        assert code == 0
        assert out == ""
        payload = json.loads(out_file.read_text())
        assert payload["tree_count"] == 4 and payload["violations"] == 0


class TestExtremalCommand:
    def test_min_rho_star(self, capsys):
        code, out, _ = run(capsys, "extremal", "--order", "7", "--stat", "rho",
                           "--min", "--expect", "star")
        assert code == 0
        assert "expectation holds" in out
        assert f"{math.sqrt(6):.10f}"[:8] in out

    def test_max_energy_path(self, capsys):
        code, out, _ = run(capsys, "extremal", "--order", "7", "--stat", "energy",
                           "--max", "--expect", "path")
        assert code == 0
        assert "0 1 2 3 4 5 6" in out

    def test_failed_expectation_is_1(self, capsys):
        code, out, _ = run(capsys, "extremal", "--order", "7", "--stat", "rho",
                           "--min", "--expect", "path")
        assert code == 1
        assert "FAILED" in out


class TestSpecialCommand:
    def test_path_closed_form(self, capsys):
        code, out, _ = run(capsys, "special", "path", "--order", "20")
        assert code == 0
        line = next(l for l in out.splitlines() if "closed_form_residual" in l)
        assert float(line.split(":")[1]) < 1e-8

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_one_vertex_path(self, fmt, capsys):
        """The path of order 1 is the one-vertex star: the same report and
        exit 0, with no closed form, which needs n >= 2."""
        code, out, err = run(capsys, "special", "path", "--order", "1", "--bounds", "all",
                             "--charpoly", "--format", fmt)
        assert code == 0 and err == ""
        _, star, _ = run(capsys, "special", "star", "--order", "1", "--bounds", "all",
                         "--charpoly", "--format", fmt)
        assert out == star.replace("star of order 1", "path of order 1")
        assert "closed_form" not in out

    def test_extras_labels_are_apart_from_their_values(self, capsys):
        """A label too long for the 15-column field still gets a space; a
        shorter one keeps its value in column 16, as the fixed lines do."""
        _, path, _ = run(capsys, "special", "path", "--order", "2")
        assert ("\nfamily:        path of order 2\nclosed_form_rho: 1\n"
                "closed_form_residual: 2.22044604925e-15\n") in path
        _, leafstar, _ = run(capsys, "special", "leafstar", "--order", "6")
        assert "\ncubic_roots:   " in leafstar and "\ncubic_residual: " in leafstar

    def test_leafstar_cubic(self, capsys):
        code, out, _ = run(capsys, "special", "leafstar", "--order", "6", "--charpoly")
        assert code == 0
        assert "x^6 - 21*x^4 - 16*x^3" in out
        assert "\ncubic:         x^3 - 21*x - 16\ncubic_exact:   True\n" in out
        line = next(l for l in out.splitlines() if "cubic_residual" in l)
        assert float(line.split(":")[1]) < 1e-8

    def test_leafstar_cubic_json(self, capsys):
        code, out, _ = run(capsys, "special", "leafstar", "--order", "200", "--format", "json")
        extras = json.loads(out)["extras"]
        assert code == 0
        assert extras["cubic"] == "x^3 - 991*x - 792" and extras["cubic_exact"] is True
        roots = [float(r) for r in extras["cubic_roots"].split()]
        assert roots == sorted(roots, reverse=True) and abs(sum(roots)) < 1e-9
        assert float(extras["cubic_residual"]) < 1e-8

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_leafstar_identity_failure_is_1(self, fmt, monkeypatch, capsys):
        """A polynomial that is not x^(n-3) times the cubic is a violation:
        the report says so and the exit code is 1."""
        def off_by_one(profile):
            coeffs = spectra_mod.profile_charpoly(profile).coeffs
            return CharPoly(coeffs[:-1] + (coeffs[-1] + 1,))

        monkeypatch.setattr(commands_mod, "profile_charpoly", off_by_one)
        code, out, err = run(capsys, "special", "leafstar", "--order", "6", "--format", fmt)
        assert (code, err) == (1, "")
        if fmt == "json":
            assert json.loads(out)["extras"]["cubic_exact"] is False
        else:
            assert "\ncubic_exact:   False\n" in out

    @pytest.mark.parametrize("argv, message", [
        (["dary", "--arity", "3", "--height", "5", "--order", "4"], "dary takes no --order"),
        (["star", "--order", "4", "--arity", "2"], "star takes no --arity"),
        (["leafstar", "--order", "5", "--height", "2"], "leafstar takes no --height"),
        (["path", "--order", "5", "--arity", "2", "--height", "1"],
         "path takes no --arity or --height"),
    ], ids=["dary-order", "star-arity", "leafstar-height", "path-both"])
    def test_option_of_another_family_is_64(self, argv, message, capsys):
        assert run(capsys, "special", *argv) == (64, "", f"usage error: {message}\n")

    def test_dary(self, capsys):
        code, out, _ = run(capsys, "special", "dary", "--arity", "2", "--height", "3")
        assert code == 0
        assert "vertices:      15" in out

    def test_dary_needs_arity(self, capsys):
        code, _, _ = run(capsys, "special", "dary", "--order", "5")
        assert code == 64

    def test_star_json(self, capsys):
        code, out, _ = run(capsys, "special", "star", "--order", "9",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, ANALYSIS_REPORT_SCHEMA)
        assert payload["rho"] == pytest.approx(math.sqrt(8), abs=1e-10)

    def test_json_in_blocks_is_the_dumps_text(self, capsys):
        """JSON is written in blocks of 65,536 encoder chunks, which join to
        the one ``json.dumps`` string: a 50,000-vertex star takes several."""
        report = commands_mod.AnalysisReport.build(trees_mod.rooted_star(50_000), bound_names=[],
                                                   extras={"family": "star of order 50000"})
        blocks = list(commands_mod._json_blocks(report.to_dict()))
        assert len(blocks) > 1
        assert "".join(blocks) == json.dumps(report.to_dict(), indent=2) + "\n"
        code, out, _ = run(capsys, "special", "star", "--order", "50000", "--format", "json")
        assert code == 0 and out == "".join(blocks)

    def test_bound_rows_made_as_the_text_is_written(self):
        """The report keeps its bound checks by name, and the text writer
        makes their rows 65,536 relations at a time: the text report of the
        40,000-vertex star with its per-index eigenvalue intervals peaks at
        16.4 MiB under tracemalloc, and at 23.4 MiB with every row built
        first. Its relations are one block; the CI run of the
        1,000,000-vertex star caps the peak across blocks."""
        tree = trees_mod.rooted_star(40_000)
        tracemalloc.start()
        try:
            report = commands_mod.AnalysisReport.build(
                tree, bound_names=["eigenvalue-intervals"])
            lines = sum(block.count("\n") for block in commands_mod._blocks(report.text_lines()))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lines == 11 + 2 + 40_001
        assert peak < 20 * 2 ** 20

    def test_missing_order_is_64(self, capsys):
        code, _, _ = run(capsys, "special", "star")
        assert code == 64

    @pytest.mark.parametrize("argv", [
        ["star", "--order", "100000000"],
        ["dary", "--arity", "10", "--height", "9"],  # 1,111,111,111 vertices
        ["dary", "--arity", "1", "--height", "1000000"],  # a path of 1,000,001
    ])
    def test_too_large_refused_before_any_tree_is_built(self, argv, monkeypatch, capsys):
        def build(*args):
            raise AssertionError("a family member was built")

        for name in ("complete_dary", "rooted_star", "rooted_path", "star_rooted_at_leaf"):
            monkeypatch.setattr(commands_mod, name, build)
        start = time.perf_counter()
        code, out, err = run(capsys, "special", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 4 and out == ""
        assert err == f"resource limit: the {argv[0]} asked for has more than 1000000 vertices\n"

    def test_size_limit_is_inclusive(self):
        """A member of exactly SPECIAL_MAX_VERTICES is counted, not refused."""
        parser = cli_mod._build_parser()
        for argv in (["star", "--order", "1000000"],
                     ["dary", "--arity", "1", "--height", "999999"],
                     ["dary", "--arity", "999999", "--height", "1"]):
            size = commands_mod._family_size(parser.parse_args(["special", *argv]))
            assert size == commands_mod.SPECIAL_MAX_VERTICES == 1_000_000


class TestCharpolyCommand:
    def test_text(self, tree_file, capsys):
        code, out, _ = run(capsys, "charpoly", tree_file)
        assert code == 0
        assert "x^9 - 80*x^7 - 276*x^6 - 216*x^5" in out
        assert "coefficients: 1 0 -80 -276 -216 0 0 0 0 0" in out

    def test_json(self, tree_file, capsys):
        code, out, _ = run(capsys, "charpoly", tree_file, "--format", "json")
        assert code == 0
        assert json.loads(out) == ["1", "0", "-80", "-276", "-216",
                                   "0", "0", "0", "0", "0"]

    def test_cap_is_4(self, tree_file, capsys):
        # there is no --cap: the polynomial's one size limit is MAX_LEVELS
        code, out, err = run(capsys, "charpoly", tree_file, "--cap", "5")
        assert code == 64 and out == ""
        assert "unrecognized arguments: --cap 5" in err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_is_64(self, tree_file, capsys, cap):
        code, out, err = run(capsys, "charpoly", tree_file, "--cap", cap)
        assert code == 64 and out == ""
        assert f"unrecognized arguments: --cap {cap}" in err

    @pytest.mark.parametrize("argv", [["charpoly"], ["analyze", "--charpoly"]])
    def test_cap_checked_before_the_matrix_is_built(self, argv, tmp_path,
                                                    monkeypatch, capsys):
        # the 30-vertex star's polynomial comes from the recurrence: no n x n
        # level matrix is built, and no distance matrix D_s of a path but the
        # ones analyze's solve reads
        star = tmp_path / "star.tree"
        star.write_text("30\n0" + " 1" * 29 + "\n")
        built = []
        if argv[0] == "charpoly":
            monkeypatch.setattr(spectra_mod, "_path_distances", built.append)
        monkeypatch.setattr(LevelMatrix, "from_levels", built.append)
        code, out, err = run(capsys, argv[0], str(star), *argv[1:])
        assert (code, err) == (0, "") and "x^30 - 29*x^28\n" in out
        assert built == []

    @pytest.mark.parametrize("command", ["analyze", "special", "charpoly"])
    def test_cap_checked_before_the_profile_is_solved(self, command, tmp_path,
                                                      monkeypatch, capsys):
        # a 1,025-vertex path: the level limit refuses it before any
        # polynomial or solve work
        n = 1025
        path = tmp_path / "path.tree"
        path.write_text(f"{n}\n" + " ".join(str(p) for p in range(n)) + "\n")

        def work(*args):
            raise AssertionError("a profile was solved or its polynomial taken")

        for name in ("accumulate", "_quotient_stack", "_path_distances"):
            monkeypatch.setattr(spectra_mod, name, work)
        monkeypatch.setattr(commands_mod, "solve_profiles", work)
        argv = {"analyze": [str(path), "--charpoly"], "charpoly": [str(path)],
                "special": ["path", "--order", str(n), "--charpoly"]}[command]
        code, out, err = run(capsys, command, *argv)
        assert code == 4 and out == ""
        assert err == ("resource limit: a level profile of 1025 levels "
                       "exceeds the limit of 1024\n")


def test_exact_coefficients_print_at_any_size(tmp_path):
    """The profile (1, 3 x 1,023) of 3,070 vertices has a coefficient of 919
    digits. Under an int-to-str limit below that, each command still prints
    every coefficient exactly."""
    profile = (1,) + (3,) * 1023
    parents = [0] + [1] * 3 + [p for level in range(1, 1023)
                               for p in [3 * level - 1] * 3]
    tree = tmp_path / "deep.tree"
    tree.write_text(f"{len(parents)}\n" + " ".join(map(str, parents)) + "\n")
    expected = [str(c) for c in spectra_mod.profile_charpoly(profile).coeffs]
    assert max(map(len, expected)) == 920  # 919 digits and a sign
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, read in (
            (["charpoly"], lambda out: out.splitlines()[1].split()[1:]),
            (["charpoly", "--format", "json"], json.loads),
            (["analyze", "--charpoly", "--bounds", "none", "--format", "json"],
             lambda out: json.loads(out)["charpoly"])):
        done = subprocess.run([sys.executable, "-m", "levelspectra.cli", argv[0], str(tree),
                               *argv[1:]], env=env, capture_output=True, text=True,
                              timeout=120)
        assert (done.returncode, done.stderr) == (0, ""), argv
        assert read(done.stdout) == expected, argv


def test_no_command_builds_a_level_matrix(tree_file, monkeypatch, capsys):
    """Every command runs on the level profile: with the n x n level matrix
    made unbuildable, each one still succeeds."""
    def refuse(vertex_levels):
        raise AssertionError("an n x n level matrix was built")

    monkeypatch.setattr(LevelMatrix, "from_levels", refuse)
    argvs = [["analyze", tree_file, "--charpoly", "--format", fmt]
             for fmt in ("text", "json", "csv")]
    argvs += [["charpoly", tree_file], ["charpoly", tree_file, "--format", "json"]]
    argvs += [["special", family, "--order", "7", "--charpoly", "--bounds", "all"]
              for family in ("star", "path", "leafstar")]
    argvs += [["special", "dary", "--arity", "2", "--height", "2", "--charpoly",
               "--format", "json"],
              ["verify", "--order", "7"],
              ["extremal", "--order", "7", "--stat", "energy", "--max"]]
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out, argv


class TestPolynomialText:
    def test_examples(self):
        assert polynomial_text(CharPoly((1, 0, -1))) == "x^2 - 1"
        assert polynomial_text(CharPoly((1, 2, 1))) == "x^2 + 2*x + 1"
        assert polynomial_text(CharPoly((1, 0))) == "x"
        assert polynomial_text(CharPoly((1,))) == "1"
