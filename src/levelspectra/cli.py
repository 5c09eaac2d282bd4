"""Command-line surface: per-tree analysis, enumeration verification,
extremal search, special families, and exact characteristic polynomials.

Exit codes: 0 ok, 1 violations or a failed expectation or exact identity,
2 parse error, 3 I/O error, 4 resource limit, 64 usage error.
"""

from __future__ import annotations

import os

# One BLAS thread unless the caller set a count. The program's BLAS calls are
# small matrix-vector products and `verify` runs its own process pool, so an
# OpenBLAS thread pool only costs start-up time. OpenBLAS reads the variable
# when numpy loads, hence before any import below; it is set here and not at
# package import, so a program that imports the library keeps its threading.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import gc
import sys

# Exact coefficients print in full, past the 4,300 digits to which Python
# 3.10.7 and later limit int-to-str conversion: a profile of 1,024 levels and
# 8,184,001 vertices has one of 4,304 digits. As with the BLAS default, this
# is done here and not at package import, so a program that imports the
# library keeps its own limit.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

# No collection while the modules below load: what they allocate is kept for
# the life of the process, and gc.freeze() sets it aside after the last import.
_COLLECTING = gc.isenabled()
gc.disable()

import argparse
import json
import math

import numpy as np

from . import bounds as bounds_mod
from . import verify as verify_mod
from .bounds import BoundReport, path_rho_closed_form
from .errors import LevelSpectraError, ParseError, ResourceLimit
from .spectra import (
    DEFAULT_CLUSTER_TOL,
    CharPoly,
    SpectralData,
    Spectrum,
    charpoly_roots,
    level_profile,
    profile_charpoly,
    solve_profiles,
)
from .trees import (
    RootedTree,
    canonicalize,
    complete_dary,
    format_tree,
    levels,
    parse_tree,
    rooted_path,
    rooted_star,
    rooted_tree_count,
    star_rooted_at_leaf,
    to_dot,
)

# Move everything imported so far out of the collector's reach, then give the
# caller back the collector as it was. None of it is garbage, yet collections
# would walk numpy's whole import heap, about 32,600 objects: with the
# collector on through the imports, `import levelspectra.cli` runs 34
# collections (4-10 ms in all), and a full collection, as at exit, takes
# 6.8 ms before the freeze and 0.03 ms after it (Python 3.11, 2-vCPU host).
# As with the BLAS default above, this is done here and not at package
# import, so a program that imports the library keeps its collector.
gc.freeze()
if _COLLECTING:
    gc.enable()

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_RESOURCE = 4
EXIT_USAGE = 64

#: Most vertices of a ``special`` family member, refused before it is built:
#: the tree and its report cost about 350 B and 7.7 us per vertex (a star of
#: 1,000,000 vertices: 7.7 s and 354 MB on a 2-vCPU host).
SPECIAL_MAX_VERTICES = 1_000_000


def _fmt(x: float) -> str:
    """Deterministic float rendering: 12 significant digits."""
    return f"{float(x):.12g}"


def polynomial_text(charpoly: CharPoly) -> str:
    """Human form of a monic integer polynomial, highest degree first."""
    parts = []
    n = charpoly.degree
    for k, c in enumerate(charpoly.coeffs):
        if c == 0:
            continue
        power = n - k
        mag = abs(c)
        if power == 0:
            term = str(mag)
        else:
            x = "x" if power == 1 else f"x^{power}"
            term = x if mag == 1 else f"{mag}*{x}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# analysis report
# ---------------------------------------------------------------------------

ANALYSIS_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "levelspectra analysis report",
    "type": "object",
    "required": ["n", "levels", "l_max", "level_index", "h_value", "row_sums",
                 "spectrum", "rho", "energy", "mul_zero_exact", "bounds"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "levels": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "l_max": {"type": "integer", "minimum": 0},
        "level_index": {"type": "integer", "minimum": 0},
        "h_value": {"type": "integer", "minimum": 0},
        "row_sums": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "spectrum": {
            "type": "object",
            "required": ["values", "clusters", "rho", "energy"],
            "properties": {
                "values": {"type": "array", "items": {"type": "number"}},
                "clusters": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["value", "multiplicity"],
                        "properties": {
                            "value": {"type": "number"},
                            "multiplicity": {"type": "integer", "minimum": 1},
                        },
                    },
                },
                "rho": {"type": "number"},
                "energy": {"type": "number"},
            },
        },
        "rho": {"type": "number"},
        "energy": {"type": "number"},
        "mul_zero_exact": {"type": "integer", "minimum": 0},
        "charpoly": {
            "type": ["array", "null"],
            "items": {"type": "string", "pattern": "^-?[0-9]+$"},
        },
        "bounds": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "lhs", "rhs", "relation", "slack", "satisfied"],
                "properties": {
                    "name": {"type": "string"},
                    "lhs": {"type": "number"},
                    "rhs": {
                        "oneOf": [
                            {"type": "number"},
                            {"type": "array", "items": {"type": "number"},
                             "minItems": 2, "maxItems": 2},
                        ]
                    },
                    "relation": {"enum": ["<=", ">=", "==", "in"]},
                    "slack": {"type": "number"},
                    "satisfied": {"type": "boolean"},
                    "equality_expected": {"type": ["boolean", "null"]},
                },
            },
        },
        "extras": {"type": "object"},
    },
}


class AnalysisReport:
    """Everything the analyzer knows about one tree."""

    __slots__ = ("vertex_levels", "data", "spectrum", "charpoly", "bounds", "extras")

    def __init__(self, vertex_levels: np.ndarray, data: SpectralData,
                 spectrum: Spectrum,  # of ``data``, clustered at the report's tolerance
                 charpoly: CharPoly | None, bounds: list[BoundReport], extras: dict):
        self.vertex_levels = vertex_levels
        self.data = data
        self.spectrum = spectrum
        self.charpoly = charpoly
        self.bounds = bounds
        self.extras = extras

    @classmethod
    def build(cls, tree: RootedTree, include_charpoly: bool = False,
              bound_names=None, tol: float = DEFAULT_CLUSTER_TOL,
              extras: dict | None = None) -> "AnalysisReport":
        vertex_levels = levels(tree)
        profile = level_profile(vertex_levels)
        charpoly = profile_charpoly(profile) if include_charpoly else None
        data = solve_profiles([profile])
        reports = [] if bound_names == [] else bounds_mod.evaluate_checks(data, bound_names)
        return cls(
            vertex_levels=vertex_levels,
            data=data,
            spectrum=data.spectrum(tol=tol),
            charpoly=charpoly,
            bounds=reports,
            extras=extras or {},
        )

    def _row_sums(self) -> list[int]:
        """L_i per vertex: the row sum of the vertex's level."""
        return self.data.level_row_sums[0][self.vertex_levels].tolist()

    def to_dict(self) -> dict:
        d, sp = self.data, self.spectrum
        return {
            "n": len(self.vertex_levels),
            "levels": self.vertex_levels.tolist(),
            "l_max": int(d.heights[0]),
            "level_index": int(d.level_index[0]),
            "h_value": int(d.h_value[0]),
            "row_sums": self._row_sums(),
            "spectrum": sp.to_dict(),
            "rho": float(sp.rho),
            "energy": float(sp.energy),
            "mul_zero_exact": int(d.nullity[0]),
            "charpoly": [str(c) for c in self.charpoly.coeffs] if self.charpoly else None,
            "bounds": [r.to_dict() for r in self.bounds],
            "extras": self.extras,
        }

    def to_text(self) -> str:
        d, sp = self.data, self.spectrum
        lines = [
            f"vertices:      {len(self.vertex_levels)}",
            f"levels:        {' '.join(str(v) for v in self.vertex_levels.tolist())}",
            f"l_max:         {d.heights[0]}",
            f"level index:   {d.level_index[0]}",
            f"H:             {d.h_value[0]}",
            f"row sums:      {' '.join(str(v) for v in self._row_sums())}",
            f"rho:           {_fmt(sp.rho)}",
            f"energy:        {_fmt(sp.energy)}",
            f"mul(0) exact:  {d.nullity[0]}",
            "eigenvalues:   " + " ".join(_fmt(v) for v in sp.values),
            "clusters:      " + ", ".join(f"{_fmt(v)} (x{m})" for v, m in sp.clusters),
        ]
        if self.charpoly is not None:
            lines.append(f"charpoly:      {polynomial_text(self.charpoly)}")
        for key, value in self.extras.items():
            shown = _fmt(value) if isinstance(value, float) else str(value)
            lines.append(f"{key + ':':14s} {shown}")
        if self.bounds:
            lines.append("")
            lines.append(f"{'bound':26s} {'rel':3s} {'lhs':>15s} "
                         f"{'rhs':>28s} {'slack':>12s}  ok")
            for r in self.bounds:
                rhs = (f"[{_fmt(r.rhs[0])}, {_fmt(r.rhs[1])}]"
                       if isinstance(r.rhs, tuple) else _fmt(r.rhs))
                flag = "yes" if r.satisfied else "NO"
                if r.equality_expected:
                    flag += " (=)"
                lines.append(f"{r.name:26s} {r.relation:3s} {_fmt(r.lhs):>15s} "
                             f"{rhs:>28s} {_fmt(r.slack):>12s}  {flag}")
        return "\n".join(lines) + "\n"

    def bounds_csv(self) -> str:
        lines = ["name,relation,lhs,rhs,slack,satisfied,equality_expected"]
        for r in self.bounds:
            rhs = (f"{_fmt(r.rhs[0])}..{_fmt(r.rhs[1])}"
                   if isinstance(r.rhs, tuple) else _fmt(r.rhs))
            eq = "" if r.equality_expected is None else str(r.equality_expected).lower()
            lines.append(f"{r.name},{r.relation},{_fmt(r.lhs)},{rhs},"
                         f"{_fmt(r.slack)},{str(r.satisfied).lower()},{eq}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 64
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="level-spectra",
                     description="Spectral analysis of rooted-tree level matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument("--tol", type=float, default=DEFAULT_CLUSTER_TOL,
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
                               "a pool starts only from "
                               f"{rooted_tree_count(verify_mod.POOL_MIN_ORDER):,} trees "
                               f"(order {verify_mod.POOL_MIN_ORDER}, above the default cap)")
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


def _parse_bound_selection(spec: str):
    if spec == "all":
        return None
    if spec == "none":
        return []
    names = [s.strip() for s in spec.split(",") if s.strip()]
    if not names:
        raise _UsageError(f"--bounds names no check: {spec!r}")
    for name in names:
        if name not in bounds_mod.CHECKS:
            raise _UsageError(
                f"unknown bound check {name!r}; known: {sorted(bounds_mod.CHECKS)}")
    return names


def _write(text: str) -> None:
    """Write to stdout. A reader that closed the pipe ends the output, not
    the command: stdout then goes to the null device, so the command still
    returns its own exit code and nothing is reported, at exit either."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _read_tree(path: str) -> RootedTree:
    with open(path, "r", encoding="utf-8-sig") as fh:  # a UTF-8 byte-order mark is skipped
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text ({exc.reason})") from exc
    return parse_tree(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    tree = _read_tree(args.path)
    if args.format == "dot":
        _write(to_dot(tree))
        return EXIT_OK
    if args.format == "treefile":
        _write(format_tree(canonicalize(tree)))
        return EXIT_OK
    report = AnalysisReport.build(
        tree,
        include_charpoly=args.charpoly,
        bound_names=_parse_bound_selection(args.bounds),
        tol=args.tol,
    )
    if args.format == "json":
        _write(json.dumps(report.to_dict(), indent=2) + "\n")
    elif args.format == "csv":
        _write(report.bounds_csv())
    else:
        _write(report.to_text())
    return EXIT_OK


def _cmd_charpoly(args) -> int:
    tree = _read_tree(args.path)
    poly = profile_charpoly(level_profile(levels(tree)))
    if args.format == "json":
        _write(poly.to_json() + "\n")
    else:
        _write(polynomial_text(poly) + "\n")
        _write("coefficients: " + " ".join(str(c) for c in poly.coeffs) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    selection = None
    if args.only is not None:
        selection = [s.strip() for s in args.only.split(",") if s.strip()]
        if not selection:
            raise _UsageError(f"--only names no check: {args.only!r}")
        known = set(verify_mod.available_checks())
        for name in selection:
            if name not in known:
                raise _UsageError(f"unknown check {name!r}; known: {sorted(known)}")
    ledger = verify_mod.verify_order(args.order, selection=selection,
                                     jobs=args.jobs, tol=args.tol)
    payload = (json.dumps(ledger.to_dict(), indent=2) + "\n"
               if args.format == "json" else ledger.to_text())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        _write(payload)
    return EXIT_OK if ledger.violations == 0 else EXIT_VIOLATIONS


def _cmd_extremal(args) -> int:
    extreme = verify_mod.extremal_sweep(args.order, args.stat)
    if args.min:
        seq, value, gap = extreme.min_seq, extreme.min_value, extreme.min_gap
    else:
        seq, value, gap = extreme.max_seq, extreme.max_value, extreme.max_gap
    # a canonical level sequence is the star iff no vertex lies below level
    # 1, and the path iff its last vertex is on level n - 1
    matches = {"star": max(seq) <= 1, "path": seq[-1] == args.order - 1}
    direction = "min" if args.min else "max"
    _write(
        f"{direction} {args.stat} at order {args.order}: {_fmt(value)}\n"
        f"tree (level sequence): {' '.join(map(str, seq))}\n"
        f"uniqueness gap: {_fmt(gap)}\n"
    )
    if args.expect is not None:
        if not matches[args.expect]:
            _write(f"expectation FAILED: extreme tree is not the {args.expect}\n")
            return EXIT_VIOLATIONS
        _write(f"expectation holds: extreme tree is the {args.expect}\n")
    return EXIT_OK


def _family_size(args) -> int:
    """Vertices of the requested family member, counted without building it
    until past SPECIAL_MAX_VERTICES (0 where the builder refuses the input)."""
    if args.family != "dary":
        return args.order
    if args.arity < 1:
        return 0
    n, level = 0, 1
    for _ in range(args.height + 1):
        n += level
        if n > SPECIAL_MAX_VERTICES:
            break
        level *= args.arity
    return n


def _cmd_special(args) -> int:
    own = ("--arity", "--height") if args.family == "dary" else ("--order",)
    given = {"--order": args.order, "--arity": args.arity, "--height": args.height}
    if any(given[option] is None for option in own):
        raise _UsageError(f"{args.family} needs {' and '.join(own)}")
    stray = [option for option, value in given.items() if value is not None and option not in own]
    if stray:
        raise _UsageError(f"{args.family} takes no {' or '.join(stray)}")
    if _family_size(args) > SPECIAL_MAX_VERTICES:
        raise ResourceLimit(f"the {args.family} asked for has more than "
                            f"{SPECIAL_MAX_VERTICES} vertices")
    if args.family == "dary":
        tree = complete_dary(args.arity, args.height)
        extras = {"family": f"complete {args.arity}-ary, height {args.height}"}
    else:
        maker = {"star": rooted_star, "path": rooted_path,
                 "leafstar": star_rooted_at_leaf}[args.family]
        tree = maker(args.order)
        extras = {"family": f"{args.family} of order {args.order}"}
    report = AnalysisReport.build(
        tree,
        include_charpoly=args.charpoly,
        bound_names=_parse_bound_selection(args.bounds),
        tol=args.tol,
        extras=extras,
    )
    if args.family == "path" and tree.n >= 2:  # the closed form needs n >= 2
        closed = path_rho_closed_form(tree.n)
        report.extras["closed_form_rho"] = _fmt(closed)
        report.extras["closed_form_residual"] = _fmt(abs(closed - report.data.rho[0]))
    elif args.family == "leafstar":
        n = tree.n
        cubic = CharPoly((1, 0, 9 - 5 * n, 8 - 4 * n))
        exact = profile_charpoly((1, 1, n - 2)).coeffs == cubic.coeffs + (0,) * (n - 3)
        roots = charpoly_roots(cubic)  # numpy's companion matrix, not the engine's eigvalsh
        values = report.data.values[0]
        nonzero = values[np.argsort(-np.abs(values))][:3]
        residual = float(np.abs(np.sort(roots) - np.sort(nonzero)).max())
        report.extras.update(cubic=polynomial_text(cubic), cubic_exact=exact,
                             cubic_roots=" ".join(_fmt(r) for r in roots),
                             cubic_residual=_fmt(residual))
    if args.format == "json":
        _write(json.dumps(report.to_dict(), indent=2) + "\n")
    else:
        _write(report.to_text())
    return EXIT_OK if report.extras.get("cubic_exact", True) else EXIT_VIOLATIONS


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_DISPATCH = {
    "analyze": _cmd_analyze,
    "charpoly": _cmd_charpoly,
    "verify": _cmd_verify,
    "extremal": _cmd_extremal,
    "special": _cmd_special,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        tol = getattr(args, "tol", 1.0)
        if not (math.isfinite(tol) and tol > 0):
            raise _UsageError(f"--tol must be positive and finite, got {tol}")
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
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
