"""Command-line surface: per-tree analysis, enumeration verification,
extremal search, special families, and exact characteristic polynomials.

Exit codes: 0 ok, 1 violations or a failed expectation or exact identity,
2 parse error, 3 I/O error, 4 resource limit, 64 usage error.

This module imports the standard library and ``errors`` alone: it parses the
command line and refuses what it can tell is wrong without the engine, and
only then imports numpy and the engine, with the subcommands in
:mod:`levelspectra.commands`. So ``--help`` and a usage error do not wait
for numpy.
"""

from __future__ import annotations

import os

# One BLAS thread unless the caller set a count. The program's BLAS calls are
# small matrix-vector products and `verify` runs its own process pool, so an
# OpenBLAS thread pool only costs start-up time. OpenBLAS reads the variable
# when numpy loads, hence before the engine is imported; it is set here and
# not at package import, so a program that imports the library keeps its
# threading.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import gc
import math
import sys

from .errors import LevelSpectraError, ParseError, ResourceLimit, UsageError

# Exact coefficients print in full, past the 4,300 digits to which Python
# 3.10.7 and later limit int-to-str conversion: a profile of 1,024 levels and
# 8,184,001 vertices has one of 4,304 digits. As with the BLAS default, this
# is done here and not at package import, so a program that imports the
# library keeps its own limit.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_RESOURCE = 4
EXIT_USAGE = 64

# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 64
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="level-spectra",
                     description="Spectral analysis of rooted-tree level matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        # None: the engine's default, spectra.DEFAULT_CLUSTER_TOL
        p.add_argument("--tol", type=float, default=None,
                       help="clustering/comparison tolerance override")

    p_analyze = sub.add_parser("analyze", help="analyze one tree file")
    p_analyze.add_argument("path")
    p_analyze.add_argument("--format", choices=["text", "json", "csv", "dot", "treefile"],
                           default="text")
    p_analyze.add_argument("--charpoly", action="store_true",
                           help="include the exact characteristic polynomial")
    p_analyze.add_argument("--bounds", default="all", metavar="all|none|NAMES",
                           help="comma-separated bound checks to evaluate")
    add_tol(p_analyze)

    p_charpoly = sub.add_parser("charpoly", help="exact characteristic polynomial")
    p_charpoly.add_argument("path")
    p_charpoly.add_argument("--format", choices=["text", "json"], default="text")

    p_verify = sub.add_parser("verify", help="verify all claims at one order")
    p_verify.add_argument("--order", type=int, required=True)
    p_verify.add_argument("--only", default=None, metavar="NAMES",
                          help="comma-separated subset of checks")
    p_verify.add_argument("--jobs", type=int, default=None,
                          help="worker processes (default: available parallelism); "
                               # verify.POOL_MIN_ORDER and its tree count, which
                               # a test of the cut-off computes from the engine
                               "a pool starts only from 1,721,159 trees "
                               "(order 18, above the default cap)")
    p_verify.add_argument("--out", default=None, help="write the ledger to a file")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    add_tol(p_verify)

    p_extremal = sub.add_parser("extremal", help="arg-extreme tree of a statistic")
    p_extremal.add_argument("--order", type=int, required=True)
    p_extremal.add_argument("--stat", choices=["rho", "energy"], required=True)
    direction = p_extremal.add_mutually_exclusive_group(required=True)
    direction.add_argument("--min", action="store_true")
    direction.add_argument("--max", action="store_true")
    p_extremal.add_argument("--expect", choices=["star", "path"], default=None,
                            help="assert the extreme tree is this family")

    p_special = sub.add_parser("special", help="analyze a named family member")
    p_special.add_argument("family", choices=["star", "path", "leafstar", "dary"])
    p_special.add_argument("--order", type=int, default=None, help="star, path, leafstar only")
    p_special.add_argument("--arity", type=int, default=None, help="dary only")
    p_special.add_argument("--height", type=int, default=None, help="dary only")
    p_special.add_argument("--format", choices=["text", "json"], default="text")
    p_special.add_argument("--charpoly", action="store_true")
    p_special.add_argument("--bounds", default="none", metavar="all|none|NAMES")
    add_tol(p_special)

    return parser


def _names(spec: str) -> list[str]:
    """The comma-separated names in ``spec``, blanks dropped."""
    return [s.strip() for s in spec.split(",") if s.strip()]


def _check_usage(args) -> None:
    """Refuse what the command line alone shows to be wrong, before the
    engine loads, and split ``--only`` and ``--bounds`` into their names
    (``--bounds all`` into None, ``none`` into no names). The names are
    checked against the engine's by the commands."""
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"--tol must be positive and finite, got {tol}")
    if args.command == "verify":
        if args.jobs is not None and args.jobs < 1:
            raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
        spec = args.only
        if spec is not None:
            args.only = _names(spec)
            if not args.only:
                raise UsageError(f"--only names no check: {spec!r}")
    if args.command == "special":
        own = ("--arity", "--height") if args.family == "dary" else ("--order",)
        given = {"--order": args.order, "--arity": args.arity, "--height": args.height}
        if any(given[option] is None for option in own):
            raise UsageError(f"{args.family} needs {' and '.join(own)}")
        stray = [option for option, value in given.items()
                 if value is not None and option not in own]
        if stray:
            raise UsageError(f"{args.family} takes no {' or '.join(stray)}")
    if args.command in ("analyze", "special"):
        spec = args.bounds
        args.bounds = None if spec == "all" else [] if spec == "none" else _names(spec)
        if args.bounds == [] and spec != "none":
            raise UsageError(f"--bounds names no check: {spec!r}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _commands():
    """The engine side, :mod:`levelspectra.commands`, imported on first use.

    No collection runs while it loads numpy and the engine: what they
    allocate is kept for the life of the process. Then it is moved out of
    the collector's reach and the caller gets the collector back as it was.
    None of it is garbage, yet collections would walk numpy's whole import
    heap, about 32,600 objects: with the collector on through the imports,
    loading them runs 34 collections (4-10 ms in all), and a full
    collection, as at exit, takes 6.8 ms before the freeze and 0.03 ms after
    it (Python 3.11, 2-vCPU host). The freeze happens on the first load
    alone, as a later one would also set aside a long-running caller's
    garbage; and it is done here and not at package import, so a program
    that imports the library keeps its collector."""
    loaded = sys.modules.get(f"{__package__}.commands")
    if loaded is not None:
        return loaded
    collecting = gc.isenabled()
    gc.disable()
    try:
        from . import commands
    finally:
        gc.freeze()
        if collecting:
            gc.enable()
    return commands


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_usage(args)
        held = _commands()._DISPATCH[args.command](args)
        return EXIT_OK if held else EXIT_VIOLATIONS
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ResourceLimit, MemoryError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except LevelSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
