"""Low-rank kernel compression with Chebyshev interpolation.

A smooth kernel f(x, y) sampled on an n x n mesh gives a dense matrix F.
Interpolating f from a small grid of Chebyshev nodes replaces F by
F_s = C_out^T Ftilde C_in whose rank is the node count: storage and
matvecs drop from O(n^2) to O(n log n) while the entrywise error decays
geometrically in the number of nodes for analytic kernels.
"""

import numpy as np

import sensorplace as sp

mesh = sp.build_mesh(sp.RectDomain((-1.0,), (1.0,)), 200)
kernel = sp.gaussian_difference_kernel()
dense = sp.dense_kernel_matrix(kernel, mesh, mesh)

print("kernel: exp(-(x - y)^2) on [-1, 1], mesh n = 200")
print(f"{'nodes':>6} {'rank':>5} {'max entry error':>16}")
for n_nodes in (4, 6, 8, 12, 16):
    lowrank = sp.build_lowrank(kernel, mesh, mesh, budget=n_nodes)  # 1-D: cap on nodes per axis
    err = np.abs(lowrank.dense() - dense).max()
    rank = np.linalg.matrix_rank(lowrank.dense(), tol=1e-12)
    print(f"{n_nodes:>6} {rank:>5} {err:>16.3e}")

print()
print("barycentric Lagrange coefficients are a partition of unity and exact at nodes:")
grid = sp.chebyshev_nodes(7)
x = 0.33
coef = sp.lagrange_coefficients(grid, x)
print(f"  sum of coefficients at x={x}: {coef.sum():.15f}")
print(f"  coefficients at node 3: {np.round(sp.lagrange_coefficients(grid, grid.nodes[3]), 12)}")

print()
print("sampled Lebesgue constant (interpolation operator norm) grows like log N:")
for n_nodes in (5, 10, 20, 40):
    est = sp.lebesgue_constant(sp.chebyshev_nodes(n_nodes), 20001)
    bound = 2.0 / np.pi * np.log(n_nodes) + 1.0
    print(f"  N={n_nodes:>3}: estimate {est:.4f}  (upper bound {bound:.4f})")
