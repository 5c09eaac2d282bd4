#!/usr/bin/env python3
"""Verify every claim over all rooted trees of small orders.

The enumerator yields exactly one representative per isomorphism class
(counts cross-checked against an independent recurrence), every check runs
on every tree, and the ledger reports violations with offending trees.
"""

from levelspectra.trees import rooted_tree_count
from levelspectra.verify import verify_order

print("rooted trees per order:",
      {n: rooted_tree_count(n) for n in range(1, 11)})

for order in (6, 8):
    ledger = verify_order(order, jobs=1)
    print(f"\n{ledger.to_text()}")

# A selection narrows the run to specific checks; the ledger is JSON-friendly.
ledger = verify_order(9, selection=["energy-identity", "zero-multiplicity"], jobs=1)
print("targeted run at order 9:")
for row in ledger.to_dict()["checks"]:
    print(" ", row)

# The extremal block of a full ledger records the arg-extreme trees: the
# star minimises the spectral radius, the path maximises it (and the energy).
ledger = verify_order(8, jobs=1)
for stat, ex in sorted(ledger.extremal.items()):
    info = ex.to_dict()
    print(f"\nextremal {stat}:")
    print("  min", info["min"])
    print("  max", info["max"])
