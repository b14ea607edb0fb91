"""Independent brute-force oracles shared by module and acceptance tests.

Everything here deliberately avoids the library's fast paths: dense
linear algebra, exhaustive enumeration, and finite differences only.
The one exception is ``stacked_solve_qp``, the reference for the block
form of the interior-point loop, which shares the library's Newton
operator so that both loops can be compared step for step.
"""

import itertools

import numpy as np

from sensorplace import BayesSetup, DesignWeights, dense_objective_value, qp_solver


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
