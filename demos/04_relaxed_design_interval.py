"""End-to-end sensor design on an interval: SQP relaxation + rounding.

Pick n0 of n candidate observation points to minimize the A-optimal
criterion.  The binary program is relaxed to weights in [0, 1]; an SQP
loop with surrogate derivatives solves the relaxation, and sum-up
rounding recovers a binary design whose prefix deviation from the
relaxed weights never exceeds one half.
"""

import numpy as np

import sensorplace as sp

n, budget = 120, 24
mesh = sp.build_mesh(sp.RectDomain((-1.0,), (1.0,)), n)
kernel = sp.gaussian_difference_kernel()
lowrank = sp.build_lowrank(kernel, mesh, mesh, sp.node_budget(4.0, n))
setup = sp.BayesSetup(alpha=0.1)

result = sp.solve_relaxed(lowrank, setup, float(budget), sp.SqpConfig(epsilon=1e-8))
print(f"SQP: {result.status} after {result.iterations} iterations")
print("objective trace:", np.array2string(result.objective_trace, precision=6))
print(f"sum of relaxed weights: {result.weights.w.sum():.6f} (budget {budget})")

rounded = sp.sum_up_round(result.weights)
gap = sp.integrality_gap(lowrank, setup, result.weights, rounded)
dense = sp.dense_kernel_matrix(kernel, mesh, mesh)
gap_dense = (sp.dense_objective_value(dense, rounded, setup)
             - sp.dense_objective_value(dense, result.weights, setup))
print(f"\nselected {int(rounded.w.sum())} points; "
      f"prefix deviation {sp.prefix_deviation(result.weights.w, rounded.w):.3f} (<= 0.5)")
print(f"integrality gap: surrogate {gap.surrogate:.3e}, dense {gap_dense:.3e}")

# a crude picture of where the sensors land
marks = np.full(n, ".")
marks[rounded.w > 0.5] = "#"
print("\ndesign along the interval (# = selected):")
print("".join(marks))
