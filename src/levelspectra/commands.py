"""The engine side of the command line: the analysis report and the
subcommands, which :mod:`levelspectra.cli` imports once it has parsed and
checked a command line.

Each ``_cmd_*`` takes the parsed arguments and returns whether every check,
expectation and exact identity it reports held; the command line turns that
into the exit code. This module never imports :mod:`levelspectra.cli`: run
as ``python -m levelspectra.cli``, that module is ``__main__``, and a second
copy would not share its state.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import chain, islice

import numpy as np

from . import bounds as bounds_mod
from . import verify as verify_mod
from .bounds import path_rho_closed_form
from .errors import ParseError, ResourceLimit, UsageError
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
    canonical_level_sequence,
    complete_dary,
    format_parents,
    level_sequence_parents,
    levels,
    parse_tree,
    rooted_path,
    rooted_star,
    star_rooted_at_leaf,
    to_dot,
)

#: Most vertices of a ``special`` family member, refused before it is built:
#: the tree and its report cost about 175 B and 1.5-2.1 us per vertex (a star
#: of 1,000,000 vertices: 1.5 s as text and 2.1 s as JSON, with a peak RSS of
#: 175 MB, 3 runs each on a 2-vCPU host).
SPECIAL_MAX_VERTICES = 1_000_000


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
                 charpoly: CharPoly | None, bounds: list[tuple], extras: dict):
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
            "bounds": [dict(zip(bounds_mod.ROW_FIELDS, row)) for row in self.bounds],
            "extras": self.extras,
        }

    def text_lines(self):
        """The text report, line by line, each line with its newline."""
        d, sp = self.data, self.spectrum
        lines = [
            f"vertices:      {len(self.vertex_levels)}",
            f"levels:        {' '.join(str(v) for v in self.vertex_levels.tolist())}",
            f"l_max:         {d.heights[0]}",
            f"level index:   {d.level_index[0]}",
            f"H:             {d.h_value[0]}",
            f"row sums:      {' '.join(str(v) for v in self._row_sums())}",
            f"rho:           {sp.rho:.12g}",
            f"energy:        {sp.energy:.12g}",
            f"mul(0) exact:  {d.nullity[0]}",
            "eigenvalues:   " + " ".join(map("{:.12g}".format, sp.values.tolist())),
            "clusters:      " + ", ".join(f"{v:.12g} (x{m})" for v, m in sp.clusters),
        ]
        if self.charpoly is not None:
            lines.append(f"charpoly:      {polynomial_text(self.charpoly)}")
        for key, value in self.extras.items():
            shown = f"{value:.12g}" if isinstance(value, float) else str(value)
            lines.append(f"{key + ':':14s} {shown}")
        yield from (line + "\n" for line in lines)
        if self.bounds:
            yield "\n"
            yield (f"{'bound':26s} {'rel':3s} {'lhs':>15s} "
                   f"{'rhs':>28s} {'slack':>12s}  ok\n")
            for name, lhs, rhs, relation, slack, satisfied, eq in self.bounds:
                rhs = (f"[{rhs[0]:.12g}, {rhs[1]:.12g}]" if isinstance(rhs, tuple)
                       else f"{rhs:.12g}")
                flag = ("yes" if satisfied else "NO") + (" (=)" if eq else "")
                yield (f"{name:26s} {relation:3s} {lhs:>15.12g} "
                       f"{rhs:>28s} {slack:>12.12g}  {flag}\n")

    def csv_lines(self):
        """The bounds as CSV, line by line, each line with its newline."""
        yield "name,relation,lhs,rhs,slack,satisfied,equality_expected\n"
        for name, lhs, rhs, relation, slack, satisfied, eq in self.bounds:
            rhs = f"{rhs[0]:.12g}..{rhs[1]:.12g}" if isinstance(rhs, tuple) else f"{rhs:.12g}"
            eq = "" if eq is None else str(eq).lower()
            yield (f"{name},{relation},{lhs:.12g},{rhs},"
                   f"{slack:.12g},{str(satisfied).lower()},{eq}\n")


# ---------------------------------------------------------------------------
# arguments the engine resolves
# ---------------------------------------------------------------------------

def _tol(args) -> float:
    """``--tol``, or the engine's default where none was given."""
    return DEFAULT_CLUSTER_TOL if args.tol is None else args.tol


def _bound_names(names):
    """``--bounds`` as the command line split it, each name checked."""
    for name in names or ():
        if name not in bounds_mod.CHECKS:
            raise UsageError(
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


def _blocks(pieces):
    """The strings of ``pieces`` joined 65,536 at a time: no report is one string."""
    while block := "".join(islice(pieces, 65_536)):
        yield block


def _json_blocks(obj):
    """``json.dumps(obj, indent=2)`` and a newline, in blocks of 65,536
    encoder chunks: ``analyze`` of the 1,000,000-vertex star peaks at 0.8 GB,
    and at 2.7 GB joined into one string (``json.dump`` writes each chunk)."""
    return _blocks(chain(json.JSONEncoder(indent=2).iterencode(obj), ["\n"]))


def _write_report(report: AnalysisReport, fmt: str) -> None:
    """Write an analysis report as JSON, CSV or text, block by block."""
    lines = report.csv_lines() if fmt == "csv" else report.text_lines()
    for block in _json_blocks(report.to_dict()) if fmt == "json" else _blocks(lines):
        _write(block)


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

def _cmd_analyze(args) -> bool:
    tree = _read_tree(args.path)
    if args.format == "dot":
        _write(to_dot(tree))
        return True
    if args.format == "treefile":
        _write(format_parents(level_sequence_parents(canonical_level_sequence(tree))))
        return True
    report = AnalysisReport.build(
        tree,
        include_charpoly=args.charpoly,
        bound_names=_bound_names(args.bounds),
        tol=_tol(args),
    )
    _write_report(report, args.format)
    return True


def _cmd_charpoly(args) -> bool:
    tree = _read_tree(args.path)
    poly = profile_charpoly(level_profile(levels(tree)))
    if args.format == "json":
        _write(poly.to_json() + "\n")
    else:
        _write(polynomial_text(poly) + "\n")
        _write("coefficients: " + " ".join(str(c) for c in poly.coeffs) + "\n")
    return True


def _cmd_verify(args) -> bool:
    if args.only is not None:
        known = set(verify_mod.available_checks())
        for name in args.only:
            if name not in known:
                raise UsageError(f"unknown check {name!r}; known: {sorted(known)}")
    ledger = verify_mod.verify_order(args.order, selection=args.only,
                                     jobs=args.jobs, tol=_tol(args))
    blocks = _json_blocks(ledger.to_dict()) if args.format == "json" else [ledger.to_text()]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(blocks)
    else:
        for block in blocks:
            _write(block)
    return ledger.violations == 0


def _cmd_extremal(args) -> bool:
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
        f"{direction} {args.stat} at order {args.order}: {value:.12g}\n"
        f"tree (level sequence): {' '.join(map(str, seq))}\n"
        f"uniqueness gap: {gap:.12g}\n"
    )
    if args.expect is not None:
        if not matches[args.expect]:
            _write(f"expectation FAILED: extreme tree is not the {args.expect}\n")
            return False
        _write(f"expectation holds: extreme tree is the {args.expect}\n")
    return True


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


def _cmd_special(args) -> bool:
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
        bound_names=_bound_names(args.bounds),
        tol=_tol(args),
        extras=extras,
    )
    if args.family == "path" and tree.n >= 2:  # the closed form needs n >= 2
        closed = path_rho_closed_form(tree.n)
        report.extras["closed_form_rho"] = f"{closed:.12g}"
        report.extras["closed_form_residual"] = f"{abs(closed - report.data.rho[0]):.12g}"
    elif args.family == "leafstar":
        n = tree.n
        cubic = CharPoly((1, 0, 9 - 5 * n, 8 - 4 * n))
        exact = profile_charpoly((1, 1, n - 2)).coeffs == cubic.coeffs + (0,) * (n - 3)
        roots = charpoly_roots(cubic)  # numpy's companion matrix, not the engine's eigvalsh
        values = report.data.values[0]
        nonzero = values[np.argsort(-np.abs(values))][:3]
        residual = float(np.abs(np.sort(roots) - np.sort(nonzero)).max())
        report.extras.update(cubic=polynomial_text(cubic), cubic_exact=exact,
                             cubic_roots=" ".join(map("{:.12g}".format, roots.tolist())),
                             cubic_residual=f"{residual:.12g}")
    _write_report(report, args.format)
    return report.extras.get("cubic_exact", True)


_DISPATCH = {
    "analyze": _cmd_analyze,
    "charpoly": _cmd_charpoly,
    "verify": _cmd_verify,
    "extremal": _cmd_extremal,
    "special": _cmd_special,
}
