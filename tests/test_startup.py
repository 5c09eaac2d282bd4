"""Start-up policy of the package and the command line.

Each check runs in a fresh interpreter: in this process pytest and the other
test modules have long since imported numpy and the package, which would
hide a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from levelspectra.verify import available_cpus

SRC = Path(__file__).resolve().parents[1] / "src"
BENCH = SRC.parent / "bench"

#: What ``levelspectra`` exports: the engine, the exhaustive runs, the tree
#: parser and the special families.
ENTRY_POINTS = sorted(["solve_profiles", "SpectralData", "profile_stacks", "verify_order",
                       "extremal_sweep", "parse_tree", "from_parent_list", "rooted_star",
                       "rooted_path", "star_rooted_at_leaf", "complete_dary"])


def run_python(code: str, **env_overrides) -> dict:
    """Run ``code`` in a new interpreter with this checkout's package first
    on the path; it prints one JSON object, which is returned. An override
    of None removes that variable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for key, value in env_overrides.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_package_import_loads_no_numpy_and_every_name_resolves():
    out = run_python(
        "import json, sys\n"
        "import levelspectra\n"
        "numpy_loaded = 'numpy' in sys.modules\n"
        "missing = [n for n in levelspectra.__all__ if not hasattr(levelspectra, n)]\n"
        "print(json.dumps({'numpy_loaded': numpy_loaded, 'missing': missing,\n"
        "                  'names': levelspectra.__all__}))\n"
    )
    assert not out["numpy_loaded"]
    assert out["missing"] == []
    assert out["names"] == ENTRY_POINTS


def test_star_import_and_unknown_name():
    out = run_python(
        "import json\n"
        "import levelspectra\n"
        "ns = {}\n"
        "exec('from levelspectra import *', ns)\n"
        "raised = []\n"
        "for name in ('no_such_name', 'build_level_matrix'):\n"
        "    try:\n"
        "        getattr(levelspectra, name)\n"
        "    except AttributeError:\n"
        "        raised.append(name)\n"
        "print(json.dumps({'star': sorted(k for k in ns if k != '__builtins__'),\n"
        "                  'all': sorted(levelspectra.__all__), 'raised': raised}))\n"
    )
    assert out["star"] == out["all"] == ENTRY_POINTS
    # a name that is not an entry point is imported from its module
    assert out["raised"] == ["no_such_name", "build_level_matrix"]


#: Runs one command through the command line, as ``bench/run.py`` does
#: before it traces: the command line loads numpy and the engine only then.
_RUN_A_COMMAND = (
    "import contextlib, io\n"
    "from levelspectra.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert main(['verify', '--order', '5']) == 0\n"
)

_BLAS_PROBE = (
    "import json, os\n"
    "{load}"
    "threads = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
    "print(json.dumps({{'var': os.environ.get('OPENBLAS_NUM_THREADS'), 'threads': threads}}))\n"
)


def test_tracer_names_resolve_after_the_cli_import():
    """``bench/run.py --trace 1`` wraps every function ``bench/tracer.py``
    names in ``LAYERS``, looked up in the modules the command line imported
    by the time its first command ran, and sums the n**3 work of each
    ``N3_WORK`` name among them; a rename that would break the traced run
    fails here."""
    out = run_python(
        "import json, sys\n"
        + _RUN_A_COMMAND +
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "from tracer import LAYERS, N3_WORK\n"
        "traced = [f'{layer}.{name}' for layer, names in LAYERS.items() for name in names]\n"
        "def resolves(dotted):\n"
        "    layer, name = dotted.split('.')\n"
        "    return callable(getattr(sys.modules.get('levelspectra.' + layer), name, None))\n"
        "print(json.dumps({'traced': len(traced),\n"
        "                  'missing': [n for n in traced + list(N3_WORK) if not resolves(n)],\n"
        "                  'untraced_n3': sorted(set(N3_WORK) - set(traced))}))\n"
    )
    assert out["traced"] > 0
    assert out["missing"] == [] and out["untraced_n3"] == []


def test_cli_defaults_to_one_blas_thread():
    out = run_python(_BLAS_PROBE.format(load=_RUN_A_COMMAND), OPENBLAS_NUM_THREADS=None)
    assert out["var"] == "1"
    if out["threads"] is not None:
        # set before numpy loaded OpenBLAS: no BLAS worker threads started
        assert out["threads"] == 1


def test_cli_keeps_the_callers_blas_setting():
    out = run_python(_BLAS_PROBE.format(load="import levelspectra.cli\n"),
                     OPENBLAS_NUM_THREADS="3")
    assert out["var"] == "3"


def test_library_import_leaves_blas_setting_alone():
    out = run_python(_BLAS_PROBE.format(load="import levelspectra.verify\n"),
                     OPENBLAS_NUM_THREADS=None)
    assert out["var"] is None


@pytest.mark.parametrize("module, frozen", [("levelspectra.cli", True),
                                            ("levelspectra", False),
                                            ("levelspectra.verify", False)])
def test_only_the_cli_freezes_the_import_heap(module, frozen):
    """The command line freezes its import heap once a command has loaded
    the engine, and gives the collector back on; importing the library
    leaves the collector alone."""
    run = _RUN_A_COMMAND if module == "levelspectra.cli" else ""
    out = run_python(f"import gc, json\nimport {module}\n{run}"
                     "print(json.dumps({'frozen': gc.get_freeze_count(),\n"
                     "                  'enabled': gc.isenabled()}))\n")
    assert (out["frozen"] > 0) == frozen
    assert out["enabled"]


def test_cli_imports_without_a_collection(tmp_path):
    """No collection runs while the command line loads numpy and the
    package. Collections are counted from the start of the load, once
    parsing is done, and the command probed fails on a missing file right
    after the load. Compiling a source may collect, so the probe runs twice
    over a bytecode cache of its own and the second run, which compiles
    nothing, counts."""
    probe = ("import gc, json, sys\n"
             "from levelspectra.cli import main\n"
             "starts = []\n"
             "gc.callbacks.append(lambda phase, info: starts.append(\n"
             "    phase == 'start' and 'levelspectra.commands' in sys.modules))\n"
             f"code = main(['charpoly', {str(tmp_path / 'missing.tree')!r}])\n"
             "print(json.dumps({'code': code, 'collections': sum(starts)}))\n")
    for _ in range(2):
        out = run_python(probe, PYTHONPYCACHEPREFIX=str(tmp_path), PYTHONDONTWRITEBYTECODE=None)
    assert out == {"code": 3, "collections": 0}


def test_cli_keeps_the_callers_collector_off():
    """A caller's collector stays off, and its heap is frozen on the first
    command alone: a later freeze would set aside the caller's garbage."""
    out = run_python("import gc, json\n"
                     "gc.disable()\n"
                     "freezes = []\n"
                     "freeze = gc.freeze\n"
                     "gc.freeze = lambda: freezes.append(freeze())\n"
                     + _RUN_A_COMMAND + _RUN_A_COMMAND.split("\n", 2)[2] +
                     "print(json.dumps({'frozen': gc.get_freeze_count() > 0,\n"
                     "                  'freezes': len(freezes),\n"
                     "                  'enabled': gc.isenabled()}))\n")
    assert out == {"frozen": True, "freezes": 1, "enabled": False}


#: Usage errors the command line decides without the engine, run from the
#: root of a checkout: (argv, exit code, start of stdout, stderr).
_WITHOUT_THE_ENGINE = [
    (["--help"], 0, "usage: level-spectra [-h]", ""),
    *(([command, "--help"], 0, f"usage: level-spectra {command} [-h]", "")
      for command in ("analyze", "charpoly", "verify", "extremal", "special")),
    (["verify", "--order", "8", "--bogus"], 64, "",
     "usage error: unrecognized arguments: --bogus\n"),
    (["verify"], 64, "", "usage error: the following arguments are required: --order\n"),
    (["verify", "--order", "8", "--tol", "0"], 64, "",
     "usage error: --tol must be positive and finite, got 0.0\n"),
    (["verify", "--order", "8", "--jobs", "0"], 64, "",
     "usage error: --jobs must be at least 1, got 0\n"),
    (["verify", "--order", "8", "--only", ",,"], 64, "",
     "usage error: --only names no check: ',,'\n"),
    (["analyze", "missing.tree", "--bounds", ","], 64, "",
     "usage error: --bounds names no check: ','\n"),
    (["special", "star"], 64, "", "usage error: star needs --order\n"),
]


@pytest.mark.parametrize("argv, code, stdout, stderr", _WITHOUT_THE_ENGINE,
                         ids=[" ".join(case[0]) for case in _WITHOUT_THE_ENGINE])
def test_help_and_usage_errors_load_no_numpy(argv, code, stdout, stderr):
    """``--help`` and each usage error the command line can decide exit
    before numpy and the engine load; so does importing the command line."""
    out = run_python(
        "import contextlib, io, json, sys\n"
        "import levelspectra.cli\n"
        "imported = sorted(m for m in sys.modules if m.split('.')[0] in ('levelspectra', 'numpy'))\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "    try:\n"
        f"        code = levelspectra.cli.main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(json.dumps({'imported': imported, 'code': code, 'stdout': out.getvalue(),\n"
        "                  'stderr': err.getvalue(), 'numpy': 'numpy' in sys.modules}))\n",
        COLUMNS="80")
    assert out["imported"] == ["levelspectra", "levelspectra.cli", "levelspectra.errors"]
    assert (out["code"], out["stderr"]) == (code, stderr)
    assert out["stdout"].startswith(stdout)
    assert not out["numpy"]


_POOL_PROBE = (
    "import json, sys\n"
    "from levelspectra.cli import main\n"
    "codes = [main(argv) for argv in {argvs!r}]\n"
    "print(json.dumps({{'codes': codes,\n"
    "                  'pool': 'concurrent.futures.process' in sys.modules}}))\n"
)


def test_cli_counts_trees_without_fractions(tmp_path):
    """The tree count is summed in integers, so no command loads
    ``fractions``, nor the ``decimal`` that it imports. The records are
    plain classes, so no command loads ``dataclasses`` either, unless
    importing numpy alone does."""
    tree = tmp_path / "path.tree"
    tree.write_text("5\n0 1 2 3 4\n")
    argvs = [["verify", "--order", "8", "--jobs", "1", "--format", "json"],
             ["extremal", "--order", "7", "--stat", "rho", "--min", "--expect", "star"],
             ["analyze", str(tree), "--format", "json"]]
    out = run_python(
        "import json, sys\n"
        "from levelspectra.cli import main\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        "print(json.dumps({'codes': codes, 'loaded': sorted(\n"
        "    {'fractions', 'decimal', 'dataclasses'} & set(sys.modules))}))\n"
    )
    numpy_loads_it = run_python("import json, sys\nimport numpy\n"
                                "print(json.dumps('dataclasses' in sys.modules))\n")
    assert out == {"codes": [0, 0, 0], "loaded": ["dataclasses"] if numpy_loads_it else []}


def test_extremal_and_analyze_do_not_import_the_pool(tmp_path):
    tree = tmp_path / "path.tree"
    tree.write_text("5\n0 1 2 3 4\n")
    argvs = [["extremal", "--order", "7", "--stat", "rho", "--min", "--expect", "star"],
             ["analyze", str(tree), "--format", "json"],
             ["verify", "--order", "8", "--jobs", "1", "--format", "json"]]
    out = run_python(_POOL_PROBE.format(argvs=argvs))
    assert out == {"codes": [0, 0, 0], "pool": False}


@pytest.mark.skipif(available_cpus() < 2, reason="a pool needs two CPUs")
def test_verify_with_a_pool_imports_it():
    # order 8 is below the pool's cut-off, which the probe lowers to start one
    probe = _POOL_PROBE.replace(
        "from levelspectra.cli import main\n",
        "from levelspectra.cli import main\n"
        "import levelspectra.verify\n"
        "levelspectra.verify.POOL_MIN_ORDER = 1\n")
    out = run_python(probe.format(argvs=[["verify", "--order", "8", "--jobs", "2",
                                          "--format", "json"]]))
    assert out == {"codes": [0], "pool": True}
