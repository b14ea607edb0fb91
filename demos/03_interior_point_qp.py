"""The structured interior-point solver on a box-plus-budget QP.

The SQP subproblem minimizes g^T p + 1/2 p^T H p over the box
[-w, 1 - w] with one budget row.  H comes as r rows W with H = W^T W,
cut from a factored coef^T core coef by ``hessian_rows``.  Each
iteration forms the r x r Woodbury core I + W D^{-1} W^T once, each
Newton solve solves that core directly and adds a rank-one
Sherman-Morrison update for the budget row, so iterations cost O(n r^2)
rather than O(n^3).
"""

import time

import numpy as np

import sensorplace as sp

rng = np.random.default_rng(4)
n, n_nodes = 2000, 12
coef = rng.normal(size=(n_nodes, n))
root = rng.normal(size=(n_nodes, n_nodes))
rows = sp.hessian_rows(root.T @ root, coef)
g = rng.normal(size=n)
low, high = -rng.uniform(0.2, 1.0, n), rng.uniform(0.2, 1.0, n)
rhs = 0.25 * (low.sum() + high.sum())
problem = sp.QpProblem(g, rows, low, high, rhs)

t0 = time.perf_counter()
sol = sp.solve_qp(problem, tol=1e-8)
t_struct = time.perf_counter() - t0
print(f"structured solve: n={n}, {sol.iterations} iterations, {t_struct:.2f} s")
print(f"  KKT residuals: dual {sol.residual_dual:.2e}, primal {sol.residual_primal:.2e}, "
      f"complementarity {sol.mu:.2e}")
print(f"  active at lower bound: {(np.abs(sol.p - low) < 1e-7).sum()}, "
      f"upper: {(np.abs(sol.p - high) < 1e-7).sum()}, "
      f"budget slack: {rhs - sol.p.sum():.4f}")

n_small = 300
small_coef = coef[:, :n_small]
dense_h = small_coef.T @ root.T @ root @ small_coef
t0 = time.perf_counter()
rows_factor = sp.hessian_rows(root.T @ root, small_coef)
t1 = time.perf_counter()
rows_dense = sp.hessian_rows(dense_h)
t2 = time.perf_counter()
s_factor, s_dense = (
    sp.solve_qp(sp.QpProblem(g[:n_small], r, low[:n_small], high[:n_small], rhs * n_small / n),
                tol=1e-8)
    for r in (rows_factor, rows_dense)
)
print(f"\nrows from the factor vs rows cut from the dense H on n={n_small}: "
      f"{rows_factor.shape[0]} vs {rows_dense.shape[0]} rows "
      f"({t1 - t0:.4f} s vs {t2 - t1:.3f} s), "
      f"max |p - p_dense| = {np.abs(s_factor.p - s_dense.p).max():.2e}")
