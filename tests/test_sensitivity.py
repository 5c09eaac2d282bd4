"""Every ledger line can fail: mutation testing of the verification ledger.

Each line of ``verify.available_checks()`` has one mutant, a monkeypatch
that makes one engine output or aggregate wrong, and the line must report a
violation under it at some order <= 10, while the engine as it is reports
none there. A line that no mutant makes fail would be evidence of nothing;
a line added without a row fails ``test_every_line_has_a_mutant``.
"""

import numpy as np
import pytest

from levelspectra import bounds as bounds_mod
from levelspectra import verify as verify_mod
from levelspectra.spectra import SpectralData
from levelspectra.verify import available_checks, verify_order

#: The highest order at which a mutant is looked for.
MAX_ORDER = 10


def _solved(**fields):
    """A mutant of the engine's stacks: each keyword maps a stack to a wrong
    value of that field (values, rho, energy or nullity). It reaches the
    stacks of order n - 1 that the leaf checks read, too."""
    def apply(monkeypatch):
        solve = verify_mod.solve_profiles

        def mutated(counts):
            data = solve(counts)
            return _replaced(data, fields)

        monkeypatch.setattr(verify_mod, "solve_profiles", mutated)
    return apply


def _replaced(data: SpectralData, fields: dict) -> SpectralData:
    new = {name: change(data) for name, change in fields.items()}
    return SpectralData(data.counts, *(new.get(name, getattr(data, name))
                                       for name in ("values", "rho", "energy", "nullity")))


def _deleted(**fields):
    """A mutant of the leaf-deleted stacks alone, as ``_solved``."""
    def apply(monkeypatch):
        stack = verify_mod._leaf_stack

        def mutated(data, below):
            members, levels, parent, sub = stack(data, below)
            return members, levels, parent, _replaced(sub, fields)

        monkeypatch.setattr(verify_mod, "_leaf_stack", mutated)
    return apply


def _aggregate(name, change):
    """A mutant of one exact aggregate of ``SpectralData``."""
    def apply(monkeypatch):
        exact = vars(SpectralData)[name].func
        monkeypatch.setattr(SpectralData, name, property(lambda data: change(exact(data))))
    return apply


def _two_step(monkeypatch):
    """The walk's first level sequence with its last step rising by two."""
    sequences = verify_mod.level_sequences

    def mutated(order):
        walk = sequences(order)
        first = next(walk)
        yield first[:-1] + (first[-2] + 2,) if order > 1 else first
        yield from walk

    monkeypatch.setattr(verify_mod, "level_sequences", mutated)


def _top(values, shift):
    """``values`` with each row's first (largest) value moved by ``shift``."""
    values = values.copy()
    values[:, 0] += shift
    return values


#: The top eigenvalue and rho off by one part in a million.
TOP_RAISED = _solved(values=lambda d: _top(d.values, 1e-6 * d.rho))
RHO_LOWERED = _solved(rho=lambda d: d.rho * (1 - 1e-6))
RHO_RAISED = _solved(rho=lambda d: d.rho * (1 + 1e-6))
ENERGY_RAISED = _solved(energy=lambda d: d.energy * (1 + 1e-6))
#: The nullity one too large.
NULLITY_UP = _solved(nullity=lambda d: d.nullity + 1)
#: The level index LI off by one.
LEVEL_INDEX_UP = _aggregate("level_index", lambda li: li + 1)
#: The leaf-deleted values raised by one part in a million.
DELETED_RAISED = _deleted(values=lambda d: d.values + 1e-6 * d.rho[:, None])

#: Ledger line -> (what the mutant does, the mutant).
MUTANTS = {
    "eigenvalue-cap": ("top eigenvalue raised by 1e-6 rho", TOP_RAISED),
    "trace-identity": ("top eigenvalue raised by 1e-6 rho", TOP_RAISED),
    "rho-mean-square": ("rho lowered by 1e-6 rho", RHO_LOWERED),
    "rho-row-sum-lower": ("rho lowered by 1e-6 rho", RHO_LOWERED),
    "rho-row-sum-upper": ("rho raised by 1e-6 rho", RHO_RAISED),
    "rho-row-square": ("rho lowered by 1e-6 rho", RHO_LOWERED),
    "rho-second-order": ("rho lowered by 1e-6 rho", RHO_LOWERED),
    "second-order-identity": ("sum of q_i off by one",
                              _aggregate("second_order_sum", lambda q: q + 1)),
    "quotient-bound": ("rho lowered by 1e-6 rho", RHO_LOWERED),
    "eigenvalue-square": ("top eigenvalue raised by 1e-6 rho", TOP_RAISED),
    "eigenvalue-intervals": ("values in ascending order",
                             _solved(values=lambda d: d.values[:, ::-1])),
    "spectrum-interval": ("H summed over unordered pairs (halved)",
                          _aggregate("h_value", lambda h: h // 2)),
    "energy-upper": ("energy raised by 1e-6 energy", ENERGY_RAISED),
    "energy-upper-improved": ("energy raised by 1e-6 energy", ENERGY_RAISED),
    "energy-identity": ("energy raised by 1e-6 energy", ENERGY_RAISED),
    "strict-row-sum-lower": ("level index off by one", LEVEL_INDEX_UP),
    "bound-chain": ("level index off by one", LEVEL_INDEX_UP),
    "zero-multiplicity": ("nullity off by one", NULLITY_UP),
    "one-positive-eigenvalue": ("values negated", _solved(values=lambda d: -d.values[:, ::-1])),
    "star-characterisation": ("nullity off by one", NULLITY_UP),
    "path-characterisation": ("nullity off by one", NULLITY_UP),
    "zero-cluster-consistency": (
        "zero eigenvalues moved by 1e-6 rho",
        _solved(values=lambda d: d.values + np.where(d.values == 0, 1e-6 * d.rho[:, None], 0))),
    "distance-domination": ("a level sequence with a +2 step", _two_step),
    "row-sum-difference": ("the root's row sum off by one",
                           _aggregate("level_row_sums",
                                      lambda sums: sums + (np.arange(sums.shape[1]) == 0))),
    "interlacing": ("leaf-deleted values raised by 1e-6 rho", DELETED_RAISED),
    "leaf-deletion-multiplicity": ("leaf-deleted values raised by 1e-6 rho", DELETED_RAISED),
    "zero-deletion-multiplicity": ("leaf-deleted nullity off by one",
                                   _deleted(nullity=lambda d: d.nullity + 1)),
}


def _ledger_lines() -> set[str]:
    """The names of ``available_checks()`` that are ledger lines: all but
    the bound checks whose lines carry other names."""
    groups = {name for name, (_, lines) in bounds_mod.CHECKS.items() if name not in lines}
    return set(available_checks()) - groups


def _violations(order: int, line: str) -> int:
    ledger = verify_order(order, selection=[line], jobs=1)
    return sum(check.violations for check in ledger.checks if check.name == line)


def test_every_line_has_a_mutant():
    assert set(MUTANTS) == _ledger_lines()


@pytest.mark.parametrize("line", sorted(MUTANTS))
def test_mutant_makes_its_line_fail(line, monkeypatch):
    """The line's mutant makes it report a violation at the lowest order
    where it does, at most MAX_ORDER; unmutated, the line reports none
    there."""
    _, mutate = MUTANTS[line]
    mutate(monkeypatch)
    order = next((n for n in range(1, MAX_ORDER + 1) if _violations(n, line)), None)
    monkeypatch.undo()
    assert order is not None, f"{line}: no violation at orders 1..{MAX_ORDER}"
    assert _violations(order, line) == 0


def test_unmutated_ledgers_are_clean():
    """The engine as it is violates no line at any order the mutants use."""
    for order in range(1, MAX_ORDER + 1):
        assert verify_order(order, jobs=1).violations == 0, order
