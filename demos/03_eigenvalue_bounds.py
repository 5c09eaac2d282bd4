#!/usr/bin/env python3
"""Evaluate every eigenvalue bound as a machine-checkable report.

Each relation comes back as a named record with lhs, rhs, signed slack and a
satisfied flag, so a harness (or a reader) can scan for the tight ones.
"""

from levelspectra.bounds import evaluate_checks
from levelspectra.spectra import SpectralData
from levelspectra.trees import from_parent_list, rooted_star

tree = from_parent_list([0, 1, 2, 7, 6, 1, 6, 3, 3])
data = SpectralData.from_tree(tree)  # a stack of one level profile

print(f"{'bound':26s} {'rel':3s} {'lhs':>12s} {'rhs':>26s} {'slack':>10s}  ok")
for r in evaluate_checks(data):
    rhs = (f"[{r.rhs[0]:.4g}, {r.rhs[1]:.4g}]" if isinstance(r.rhs, tuple)
           else f"{r.rhs:.6g}")
    print(f"{r.name:26s} {r.relation:3s} {r.lhs:12.6g} {rhs:>26s} "
          f"{r.slack:10.4g}  {'yes' if r.satisfied else 'NO'}")

# Several bounds collapse to equalities on the 2-vertex tree; the reports
# carry an equality_expected flag when the theorem says so.
print("\nreports on the 2-vertex tree (equality cases):")
for r in evaluate_checks(SpectralData.from_tree(rooted_star(2))):
    marker = "  <- equality expected" if r.equality_expected else ""
    print(f"  {r.name:26s} slack {r.slack: .3g}{marker}")

# The three lower bounds on rho form a chain, tightest first. Their
# aggregates come from the level profile: a vertex on level a has row sum
# L_a and second-order row sum q_a. Every aggregate has one row per member
# of the stack; this stack has one.
import math

print("\nlevel profile:", data.counts[0].tolist())
print("row sum per level L_a:        ", data.level_row_sums[0].tolist())
print("second-order sum per level q_a:", data.level_second_order_sums[0].tolist())
sum_l2 = int(data.row_square_sum[0])
chain = [
    ("second-order", math.sqrt(int(data.q_square_sum[0]) / sum_l2)),
    ("row-square", math.sqrt(sum_l2 / data.n)),
    ("mean row sum", 2 * int(data.level_index[0]) / data.n),
]
print(f"\nrho = {data.rho[0]:.9f}; lower bounds, strongest first:")
for name, value in chain:
    print(f"  {name:14s} {value:.9f}")
assert chain[0][1] >= chain[1][1] >= chain[2][1]
