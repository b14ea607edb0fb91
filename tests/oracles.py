"""Independent brute-force oracles shared by module and acceptance tests.

Everything here deliberately avoids the library's fast paths: dense
linear algebra, exhaustive enumeration, and finite differences only.
The dense derivative oracle, the scalar kernel wrapper and the
space-time reference F live here because only tests call them.  Three
exceptions share library code.  ``solve_relaxed_dense`` runs the library's
SQP on a dense F, entered as the exact factorization I F I, because
``solve_relaxed`` takes factors only.  ``stacked_solve_qp``, the reference
for the block form of the interior-point loop, shares the library's Newton
operator so that both loops can be compared step for step.
``advdiff_solution`` builds the advection-diffusion solution field from
the library's public mode table, Dirichlet basis and Fourier projection,
so it checks the propagation in time and the source term, not the basis.
"""

import itertools
from typing import Callable

import numpy as np

from sensorplace import (
    BayesSetup,
    DesignWeights,
    Kernel,
    LowRankKernel,
    SqpConfig,
    dense_objective_value,
    fourier_coefficients_u0,
    qp_solver,
    solve_relaxed,
)
from sensorplace.lidar import dirichlet_basis, mode_table

# Gauss-Legendre order of the Duhamel time integral in ``advdiff_solution``.
SOURCE_QUAD_ORDER = 40


def dense_hessian(rows):
    """The dense H = W^T W of a QP's Hessian rows, for the enumeration oracle."""
    return rows.T @ rows


def enumerate_box_budget_qp(g, hess, box_low, box_high, budget_rhs):
    """Global minimizer of the box-plus-budget QP by active-set enumeration.

    Solves the equality-constrained problem for every assignment of each
    variable to {free, at lower, at upper} crossed with the budget being
    active or not, keeps the feasible candidates, and returns the best.
    Requires a positive-definite Hessian so each restricted problem has a
    unique solution.
    """
    n = len(g)
    hess = np.asarray(hess, dtype=float)
    best, best_val = None, np.inf
    for assign in itertools.product((0, 1, 2), repeat=n):
        fixed = {i: (box_low[i] if a == 1 else box_high[i]) for i, a in enumerate(assign) if a}
        free = [i for i, a in enumerate(assign) if a == 0]
        for budget_active in (False, True):
            p = np.zeros(n)
            for i, v in fixed.items():
                p[i] = v
            if free:
                hff = hess[np.ix_(free, free)]
                gf = g[np.asarray(free)].copy()
                if fixed:
                    gf += hess[np.ix_(free, list(fixed))] @ np.array(list(fixed.values()))
                if budget_active:
                    nf = len(free)
                    kkt = np.zeros((nf + 1, nf + 1))
                    kkt[:nf, :nf] = hff
                    kkt[:nf, nf] = 1.0
                    kkt[nf, :nf] = 1.0
                    rhs = np.concatenate([-gf, [budget_rhs - sum(fixed.values())]])
                    try:
                        sol = np.linalg.solve(kkt, rhs)
                    except np.linalg.LinAlgError:
                        continue
                    p[np.asarray(free)] = sol[: len(free)]
                else:
                    try:
                        p[np.asarray(free)] = np.linalg.solve(hff, -gf)
                    except np.linalg.LinAlgError:
                        continue
            elif budget_active and abs(p.sum() - budget_rhs) > 1e-12:
                continue
            if (
                np.any(p < box_low - 1e-9)
                or np.any(p > box_high + 1e-9)
                or p.sum() > budget_rhs + 1e-9
            ):
                continue
            val = g @ p + 0.5 * p @ hess @ p
            if val < best_val - 1e-14:
                best_val, val_p = val, p.copy()
                best = val_p
    return best, best_val


def sum_up_round_scan(w, order):
    """Sum-up rounding by the scan itself: walk ``order``, keep running
    relaxed and integer sums, and set an entry to 1 whenever their
    difference reaches 0.5."""
    w = np.asarray(w, dtype=float)
    w_int = np.zeros_like(w)
    cum_rel = 0.0
    cum_int = 0.0
    for idx in order:
        cum_rel += w[idx]
        if cum_rel - cum_int >= 0.5:
            w_int[idx] = 1.0
            cum_int += 1.0
    return w_int


def lagrange_product(nodes, xs):
    """Lagrange basis values l_p(x) = prod_{k!=p} (x - x_k)/(x_p - x_k).

    The direct product formula, O(N^2) per point; returns (N, len(xs)).
    """
    nodes = np.asarray(nodes, dtype=float)
    xs = np.asarray(xs, dtype=float)
    n = nodes.size
    diff = xs[None, :] - nodes[:, None]
    coef = np.empty((n, xs.size))
    for p in range(n):
        num = np.ones(xs.size)
        den = 1.0
        for q in range(n):
            if q == p:
                continue
            num *= diff[q]
            den *= nodes[p] - nodes[q]
        coef[p] = num / den
    return coef


def finite_difference_gradient(value_fn, w, indices=None, base_step=1e-6):
    """Central differences of a scalar function of the weights."""
    w = np.asarray(w, dtype=float)
    indices = range(w.size) if indices is None else indices
    grad = {}
    for i in indices:
        step = base_step * (1.0 + abs(w[i]))
        e = np.zeros_like(w)
        e[i] = step
        grad[i] = (value_fn(w + e) - value_fn(w - e)) / (2.0 * step)
    return grad


def uncut_input_r(lowrank):
    """A factor R (r1 x N_out) with R^T R = B^T B for B = coef_in^T
    node_values^T, not cut to B's numerical rank: R = diag(sqrt(lam)) V^T
    node_values^T from the eigendecomposition of coef_in coef_in^T, less
    the eigenvalues at or below N_in * eps of the largest."""
    lam, vec = np.linalg.eigh(lowrank.coef_in @ lowrank.coef_in.T)
    keep = lam > lam.size * np.finfo(float).eps * lam.max()
    return np.sqrt(lam[keep])[:, None] * vec[:, keep].T @ lowrank.node_values.T


def dense_value_direct(f_matrix, w, setup: BayesSetup):
    """Criterion value via an explicit inverse; no shared code with the
    library's eigenvalue route beyond numpy."""
    f = np.asarray(f_matrix, dtype=float)
    m = f.shape[1]
    a = f.T @ (np.asarray(w)[:, None] * f) + setup.alpha * np.eye(m)
    inv = np.linalg.inv(a)
    if setup.criterion == "A":
        return setup.sigma2_noise * float(np.trace(inv))
    sign, logdet = np.linalg.slogdet(inv)
    assert sign > 0
    return float(m * np.log(setup.sigma2_noise) + logdet)


def dense_objective_and_derivatives(f_matrix, weights: DesignWeights, setup: BayesSetup):
    """Exact value, gradient, and Hessian by dense factorization.

    It forms n x n matrices for an n-row F.  Per-row formulas (A-criterion)

        g_i = -sigma2 * || (F^T W F + alpha I)^(-1) f_i ||^2,
        H_ij = 2 sigma2 * (f_i^T (.)^(-1) f_j) (f_i^T (.)^(-2) f_j),

    with f_i the i-th row of F; the D-criterion uses
    g_i = -f_i^T (.)^(-1) f_i and H_ij = (f_i^T (.)^(-1) f_j)^2.
    Group entries sum their rows (and row pairs).
    """
    f = np.asarray(f_matrix, dtype=float)
    v = np.clip(weights.row_weights(), 0.0, None)
    if v.size != f.shape[0]:
        raise ValueError("weights do not match the row count")
    m = f.shape[1]
    a = f.T @ (v[:, None] * f) + setup.alpha * np.eye(m)
    lam = np.clip(np.linalg.eigvalsh(a) - setup.alpha, 0.0, None)
    s = np.linalg.solve(a, f.T)  # columns: (.)^(-1) f_i
    m1 = f @ s
    m1 = 0.5 * (m1 + m1.T)
    m2 = s.T @ s
    sigma2 = setup.sigma2_noise
    if setup.criterion == "A":
        value = float(sigma2 * np.sum(1.0 / (setup.alpha + lam)))
        g_rows = -sigma2 * np.diag(m2)
        h_rows = 2.0 * sigma2 * (m1 * m2)
    else:
        value = float(np.sum(np.log(sigma2 / (setup.alpha + lam))))
        g_rows = -np.diag(m1)
        h_rows = m1 * m1
    if weights.row_group is None:
        return value, g_rows, h_rows
    # DesignWeights has checked that the groups are contiguous runs of rows
    starts = np.flatnonzero(np.diff(weights.row_group, prepend=-1))
    gradient = np.add.reduceat(g_rows, starts)
    hessian = np.add.reduceat(np.add.reduceat(h_rows, starts, axis=0), starts, axis=1)
    return value, gradient, hessian


def scalar_kernel(func: Callable) -> Kernel:
    """Wrap a scalar f(x, y) of coordinate tuples into a Kernel, one call per pair."""

    def evaluator(x, y):
        xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        out = np.empty(xb.shape[:-1])
        for idx in np.ndindex(out.shape):
            out[idx] = func(tuple(xb[idx]), tuple(yb[idx]))
        return out

    return Kernel(evaluator)


def spacetime_kernel_matrix(kernel: Kernel, out_mesh, in_mesh) -> np.ndarray:
    """The space-time reference F[i, j] = f(x_i, y_j, t_i) * cell_measure(in)
    on a ``spacetime_mesh``, whose last coordinate is the time; its rows
    are that mesh's location-major, time-minor rows."""
    d = out_mesh.dim - 1
    x = out_mesh.points
    return kernel(x[:, None, :d], in_mesh.points[None, :, :], x[:, None, d]) * in_mesh.cell_measure


def transformed_initial_coefficients(cfg, u0) -> np.ndarray:
    """Coefficients of v0 = exp(-a x - b y) u0, the heat-equation initial state."""
    a, b, _ = cfg.drift

    def v0(x, y):
        return np.exp(-a * x - b * y) * np.asarray(u0(x, y), dtype=float)

    return fourier_coefficients_u0(v0, cfg.p)


def advdiff_solution(cfg, v0_coeffs, points, t: float, source_modes=None) -> np.ndarray:
    """Solution field u(x, t) of the LIDAR problem from heat-variable coefficients.

    ``source_modes(s)`` (optional) returns the (p, p) Fourier coefficients
    of the transformed source at time s; its Duhamel integral is added to
    the initial-condition part.  The source changes the solution but not
    the propagation kernel, which is the point of the independence check.
    """
    table = mode_table(cfg.p, cfg.mu)
    a, b, g = cfg.drift
    coeffs = np.asarray(v0_coeffs, dtype=float).reshape(-1)
    amp = np.exp(-table.decay * t) * coeffs
    if source_modes is not None and t > 0:
        nodes, wts = np.polynomial.legendre.leggauss(SOURCE_QUAD_ORDER)
        s_nodes = 0.5 * t * (nodes + 1.0)
        s_wts = 0.5 * t * wts
        for s, ws in zip(s_nodes, s_wts):
            src = np.asarray(source_modes(s), dtype=float).reshape(-1)
            amp = amp + ws * np.exp(-table.decay * (t - s)) * src
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    modes = dirichlet_basis(table.k1, pts[:, 0:1]) * dirichlet_basis(table.k2, pts[:, 1:2])
    drift = np.exp(g * t + a * pts[:, 0] + b * pts[:, 1])
    return drift * (modes @ amp)


def loose_weights(w, row_group=None):
    """DesignWeights wrapper with a non-binding budget, for pure objective
    evaluations in property tests."""
    w = np.asarray(w, dtype=float)
    n_w = w.size
    return DesignWeights(w, budget=float(n_w), row_group=row_group)


def surrogate_value_fn(engine, setup=None):
    def fn(w):
        return engine.value(np.clip(w, 0.0, 1.0))

    return fn


def dense_value_fn(f_matrix, setup, row_group=None):
    def fn(w):
        return dense_objective_value(
            f_matrix, loose_weights(np.clip(w, 0.0, 1.0), row_group), setup
        )

    return fn


def solve_relaxed_dense(f_matrix, setup, budget, config=SqpConfig(), row_group=None):
    """``solve_relaxed`` on a dense F as the exact factorization
    ``LowRankKernel(I, F, I)``: the SQP oracle on an explicit matrix."""
    f = np.asarray(f_matrix, dtype=float)
    identity_f = LowRankKernel(np.eye(f.shape[0]), f, np.eye(f.shape[1]))
    return solve_relaxed(identity_f, setup, budget, config, row_group=row_group)


def stacked_solve_qp(problem, tol=1e-8, max_iter=100):
    """The interior-point loop of ``qp_solver.solve_qp`` on stacked
    (2n+1)-vectors, as the reference for its block form.

    The constraints are A p >= b with A = (I; -I; -1^T) and
    b = (box_low; -box_high; -budget_rhs); slacks s and multipliers lam
    are (2n+1)-vectors and every Newton right-hand side is assembled as
    -r_d - A^T (d r_p) + A^T q.  It shares the library's starting point,
    the problem's Hessian rows, normal-matrix operator and constants, so both
    loops take the same Newton steps up to round-off.  Returns
    (p, lam, iterations).
    """
    n = problem.n

    def apply_a(p):
        return np.concatenate([p, -p, [-p.sum()]])

    def apply_at(y):
        return y[:n] - y[n : 2 * n] - y[2 * n]

    def step_to_boundary(s, ds, lam, dlam, factor):
        worst = min(float(np.min(ds / s)), float(np.min(dlam / lam)))
        return 1.0 if worst >= 0.0 else min(1.0, -factor / worst)

    def max_abs(x):
        return float(np.abs(x).max())

    wrows = problem.rows
    p, s, lam = qp_solver.starting_point(problem)
    b = np.concatenate([problem.box_low, -problem.box_high, [-problem.budget_rhs]])
    target_floor = qp_solver.CENTERING_FLOOR * tol
    m = s.size
    for k in range(max_iter):
        r_d = wrows.T @ (wrows @ p) + problem.g - apply_at(lam)
        r_p = apply_a(p) - s - b
        mu = float(s @ lam) / m
        if max(max_abs(r_d), max_abs(r_p), mu) <= tol:
            return p, lam, k
        d = lam / s
        work = np.empty((qp_solver.NormalMatrixAction.ROWS, n))
        action = qp_solver.NormalMatrixAction(problem, d[:n] + d[n : 2 * n], d[2 * n], work)
        base = -r_d - apply_at(d * r_p)

        def direction(q):
            # lam * ds + s * dlam = s * q
            dp = action.solve(base + apply_at(q), np.empty(n))
            ds = apply_a(dp) + r_p
            return dp, ds, q - d * ds

        dp, ds, dlam = direction(-lam)
        alpha = step_to_boundary(s, ds, lam, dlam, 1.0)
        mu_aff = (1.0 - alpha) * mu + alpha * alpha * float(ds @ dlam) / m
        target = max((mu_aff / mu) ** 3 * mu, target_floor)
        dp, ds, dlam = direction((target - ds * dlam) / s - lam)
        alpha = step_to_boundary(s, ds, lam, dlam, qp_solver.BOUNDARY_FACTOR)
        p = p + alpha * dp
        s = s + alpha * ds
        lam = lam + alpha * dlam
    raise AssertionError(f"stacked reference did not converge in {max_iter} iterations")
