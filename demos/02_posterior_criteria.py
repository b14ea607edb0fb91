"""Fast evaluation of A/D design criteria through the posterior spectrum.

The posterior covariance of the linear inverse problem is
sigma2 * (F^T W F + alpha I)^(-1).  With the low-rank surrogate, its
nonzero spectrum comes from a small node-space eigenproblem, so criterion
values, gradients, and the node-space Hessian cost O(n log^2 n) instead
of O(n^3).  The Hessian reaches the QP as a few rows W with H = W^T W.
"""

import time

import numpy as np

import sensorplace as sp

n = 1500
mesh = sp.build_mesh(sp.RectDomain((-1.0,), (1.0,)), n)
kernel = sp.gaussian_difference_kernel()
lowrank = sp.build_lowrank(kernel, mesh, mesh, sp.node_budget(4.0, n))

rng = np.random.default_rng(0)
w = rng.uniform(0, 1, n)
w *= 0.3 * n / w.sum()
weights = sp.DesignWeights(w, budget=0.3 * n)

for criterion in ("A", "D"):
    setup = sp.BayesSetup(alpha=0.1, sigma2_noise=1.0, criterion=criterion)
    t0 = time.perf_counter()
    value = sp.PosteriorEngine(lowrank, setup).value(weights.w)
    t_fast = time.perf_counter() - t0

    t0 = time.perf_counter()
    value_dense = sp.dense_objective_value(lowrank.dense(), weights, setup)
    t_dense = time.perf_counter() - t0
    print(
        f"{criterion}-criterion: spectral {value:.6f} in {t_fast*1e3:.1f} ms, "
        f"dense {value_dense:.6f} in {t_dense*1e3:.1f} ms, "
        f"rel diff {abs(value - value_dense) / abs(value_dense):.1e}"
    )

setup = sp.BayesSetup(alpha=0.1)
engine = sp.PosteriorEngine(lowrank, setup)
lam = engine.eigenvalues(weights.w)
print(f"\nposterior spectrum: rank {lam.size}, largest eigenvalue {lam[0]:.4f}")

_, deriv = engine.derivatives(weights.w)
print(f"gradient entries (first 4): {np.round(deriv.gradient[:4], 8)}")
print(f"Hessian rows W (H = W^T W, cut from the node-space core): {deriv.hessian_rows.shape} "
      "(the full Hessian is never materialized)")
