"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to stream the
per-criterion lines.  Tolerances are fixed here, not configurable.
"""

import time

import numpy as np


import sensorplace as sp
from sensorplace import (
    BayesSetup,
    DesignWeights,
    LidarConfig,
    PosteriorEngine,
    QpProblem,
    SqpConfig,
    build_lidar_problem,
    build_lowrank,
    build_mesh,
    dense_kernel_matrix,
    dense_objective_and_derivatives,
    dense_objective_value,
    gaussian_difference_kernel,

    integrality_gap,
    product_exponential_kernel,
    solve_qp,
    solve_relaxed,
    sum_up_round,
)
from oracles import dense_value_direct, enumerate_box_budget_qp

RNG_SEED = 987654321


def report(number, name, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {tag}  {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def interval_mesh(n):
    return build_mesh(sp.RectDomain((-1.0,), (1.0,)), n)


def feasible(rng, n, fraction=0.3):
    w = rng.uniform(0.0, 1.0, n)
    budget = fraction * n
    if w.sum() > budget:
        w *= budget / w.sum()
    return w, budget


KERNELS = {"gauss": gaussian_difference_kernel, "expxy": product_exponential_kernel}


def test_criterion_1_derivative_correctness():
    rng = np.random.default_rng(RNG_SEED)
    worst_interp, worst_dense_g, worst_dense_h = 0.0, 0.0, 0.0
    for trial in range(20):
        n = int(rng.integers(25, 401))
        kern = KERNELS["gauss" if trial % 2 == 0 else "expxy"]()
        criterion = "A" if trial % 4 < 2 else "D"
        setup = BayesSetup(
            alpha=float(rng.uniform(0.2, 1.5)),
            sigma2_noise=float(rng.uniform(0.5, 2.0)),
            criterion=criterion,
        )
        mesh = interval_mesh(n)
        lowrank = build_lowrank(kern, mesh, mesh, int(rng.integers(8, 15)))
        w, budget = feasible(rng, n)
        weights = DesignWeights(w, budget)

        engine = PosteriorEngine(lowrank, setup)
        _, deriv = engine.derivatives(w)
        coords = rng.choice(n, size=min(n, 30), replace=False)
        fd = np.empty(coords.size)
        for j, i in enumerate(coords):
            step = 1e-6 * (1.0 + abs(w[i]))
            e = np.zeros(n)
            e[i] = step
            fd[j] = (engine.value(np.clip(w + e, 0, 1)) - engine.value(np.clip(w - e, 0, 1))) / (
                2 * step
            )
        rel = np.linalg.norm(deriv.gradient[coords] - fd) / np.linalg.norm(fd)
        worst_interp = max(worst_interp, rel)

        if n <= 70:
            f = dense_kernel_matrix(kern, mesh, mesh)
            _, grad, hess = dense_objective_and_derivatives(f, weights, setup)
            fd_g = np.empty(n)
            for i in range(n):
                step = 1e-6 * (1.0 + abs(w[i]))
                e = np.zeros(n)
                e[i] = step
                up = dense_objective_value(f, DesignWeights(np.clip(w + e, 0, 1), n), setup)
                dn = dense_objective_value(f, DesignWeights(np.clip(w - e, 0, 1), n), setup)
                fd_g[i] = (up - dn) / (2 * step)
            rel_g = np.linalg.norm(grad - fd_g) / np.linalg.norm(fd_g)
            worst_dense_g = max(worst_dense_g, rel_g)

            fd_h = np.empty((n, n))
            for i in range(n):
                step = 1e-5 * (1.0 + abs(w[i]))
                e = np.zeros(n)
                e[i] = step
                _, gp, _ = dense_objective_and_derivatives(
                    f, DesignWeights(np.clip(w + e, 0, 1), n), setup
                )
                _, gm, _ = dense_objective_and_derivatives(
                    f, DesignWeights(np.clip(w - e, 0, 1), n), setup
                )
                fd_h[i] = (gp - gm) / (2 * step)
            rel_h = np.linalg.norm(hess - 0.5 * (fd_h + fd_h.T)) / np.linalg.norm(fd_h)
            worst_dense_h = max(worst_dense_h, rel_h)

    ok = worst_interp <= 1e-5 and worst_dense_g <= 1e-6 and worst_dense_h <= 1e-6
    report(
        1,
        "derivative correctness",
        ok,
        f"interp {worst_interp:.2e} (<=1e-5), dense grad {worst_dense_g:.2e} "
        f"(<=1e-6), dense hess {worst_dense_h:.2e} (<=1e-6)",
    )


def test_criterion_2_surrogate_convergence():
    rng = np.random.default_rng(RNG_SEED + 1)
    n = 200
    mesh = interval_mesh(n)
    kern = gaussian_difference_kernel()
    f = dense_kernel_matrix(kern, mesh, mesh)
    setup = BayesSetup(alpha=1.0)
    surrogates = {m: build_lowrank(kern, mesh, mesh, m) for m in (4, 8, 16)}
    engines = {m: PosteriorEngine(lr, setup) for m, lr in surrogates.items()}
    ratios_ok = True
    worst = (np.inf, np.inf)
    for _ in range(10):
        w, budget = feasible(rng, n)
        dense_phi = dense_objective_value(f, DesignWeights(w, budget), setup)
        err = {m: abs(dense_phi - engines[m].value(w)) for m in (4, 8, 16)}
        r1 = err[4] / max(err[8], 1e-300)
        r2 = err[8] / max(err[16], 1e-300)
        worst = (min(worst[0], r1), min(worst[1], r2))
        if r1 < 10.0 or r2 < 10.0:
            ratios_ok = False
    report(
        2,
        "surrogate convergence",
        ratios_ok,
        f"min error ratios 4->8 {worst[0]:.1f}, 8->16 {worst[1]:.1f} (>=10)",
    )


def test_criterion_3_spectrum_route():
    rng = np.random.default_rng(RNG_SEED + 2)
    n = 500
    mesh = interval_mesh(n)
    lowrank = build_lowrank(gaussian_difference_kernel(), mesh, mesh, 10)
    fs = lowrank.dense()
    w, budget = feasible(rng, n)
    weights = DesignWeights(w, budget)
    worst = 0.0
    for criterion in ("A", "D"):
        setup = BayesSetup(alpha=0.05, sigma2_noise=1.7, criterion=criterion)
        via_spectrum = PosteriorEngine(lowrank, setup).value(weights.w)
        via_dense = dense_objective_value(fs, weights, setup)
        worst = max(worst, abs(via_spectrum - via_dense) / abs(via_dense))
    # cross-check against a plain inverse at a smaller size
    n2 = 200
    mesh2 = interval_mesh(n2)
    lr2 = build_lowrank(gaussian_difference_kernel(), mesh2, mesh2, 9)
    w2, b2 = feasible(rng, n2)
    setup2 = BayesSetup(alpha=0.3, criterion="A")
    value2 = PosteriorEngine(lr2, setup2).value(DesignWeights(w2, b2).w)
    direct = dense_value_direct(lr2.dense(), w2, setup2)
    worst = max(worst, abs(value2 - direct) / abs(direct))
    report(3, "spectrum route equals dense", worst <= 1e-8, f"max rel diff {worst:.2e} (<=1e-8)")


def test_criterion_4_qp_solver():
    rng = np.random.default_rng(RNG_SEED + 3)
    worst_match, worst_resid = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        root = rng.normal(size=(n, n))
        hess = root.T @ root + 0.1 * np.eye(n)
        g = rng.normal(size=n)
        low = rng.uniform(-1.0, 0.0, n)
        high = low + rng.uniform(0.5, 1.5, n)
        rhs = rng.uniform(low.sum() + 0.3, high.sum())
        p_star, _ = enumerate_box_budget_qp(g, hess, low, high, rhs)
        sol = solve_qp(QpProblem(g, sp.hessian_rows(hess), low, high, rhs), tol=1e-10)
        worst_match = max(worst_match, float(np.abs(sol.p - p_star).max()))
        worst_resid = max(worst_resid, sol.residual_dual, sol.residual_primal, sol.mu)

    worst_paths = 0.0
    for n in (60, 200):
        coef = rng.normal(size=(8, n))
        root = rng.normal(size=(8, 8))
        rows = root @ coef
        g = rng.normal(size=n)
        low = -rng.uniform(0.2, 1.0, n)
        high = rng.uniform(0.2, 1.0, n)
        rhs = rng.uniform(low.sum() + 0.5, high.sum())
        s1 = solve_qp(QpProblem(g, rows, low, high, rhs))
        s2 = solve_qp(QpProblem(g, sp.hessian_rows(rows.T @ rows), low, high, rhs))
        worst_paths = max(worst_paths, float(np.abs(s1.p - s2.p).max()))

    ok = worst_match <= 1e-6 and worst_resid <= 1e-8 and worst_paths <= 1e-6
    report(
        4,
        "qp vs enumeration oracle",
        ok,
        f"oracle match {worst_match:.2e} (<=1e-6), kkt {worst_resid:.2e} (<=1e-8), "
        f"paths {worst_paths:.2e} (<=1e-6)",
    )


def test_criterion_5_sqp_reaches_oracle():
    from scipy.optimize import Bounds, LinearConstraint, minimize

    rng = np.random.default_rng(RNG_SEED + 4)
    worst = 0.0
    monotone = True
    feasible_ok = True
    for n, kern_name, alpha in ((20, "gauss", 1.0), (40, "expxy", 0.5), (60, "gauss", 0.2)):
        mesh = interval_mesh(n)
        f = dense_kernel_matrix(KERNELS[kern_name](), mesh, mesh)
        setup = BayesSetup(alpha=alpha)
        budget = round(0.25 * n)
        res = solve_relaxed(f, setup, float(budget), SqpConfig(epsilon=1e-9, max_outer=300))
        monotone &= bool(np.all(np.diff(res.objective_trace) <= 1e-12))
        w = res.weights.w
        feasible_ok &= w.min() >= 0 and w.max() <= 1 and w.sum() <= budget + 1e-9

        def fun(x):
            return dense_objective_value(f, DesignWeights(np.clip(x, 0, 1), n), setup)

        def grad(x):
            _, g, _ = dense_objective_and_derivatives(f, DesignWeights(np.clip(x, 0, 1), n), setup)
            return g

        oracle = minimize(
            fun,
            np.full(n, budget / n),
            jac=grad,
            method="trust-constr",
            bounds=Bounds(np.zeros(n), np.ones(n)),
            constraints=[LinearConstraint(np.ones((1, n)), -np.inf, budget)],
            options={"gtol": 1e-12, "xtol": 1e-16, "maxiter": 3000},
        )
        worst = max(worst, abs(res.objective_trace[-1] - oracle.fun))
    ok = worst <= 1e-5 and monotone and feasible_ok
    report(
        5,
        "sqp reaches oracle point",
        ok,
        f"max |phi - phi_oracle| {worst:.2e} (<=1e-5), monotone={monotone}, "
        f"feasible={feasible_ok}",
    )


def test_criterion_6_sum_up_rounding():
    rng = np.random.default_rng(RNG_SEED + 5)
    worst_prefix, worst_drift = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(5, 1001))
        w = rng.uniform(0, 1, n)
        rounded = sum_up_round(DesignWeights(w, float(n)))
        worst_prefix = max(worst_prefix, sp.prefix_deviation(w, rounded.w))
        worst_drift = max(worst_drift, abs(rounded.w.sum() - w.sum()))
    ok = worst_prefix <= 0.5 + 1e-9 and worst_drift <= 0.5 + 1e-9
    report(
        6,
        "sum-up rounding bounds",
        ok,
        f"prefix {worst_prefix:.6f} (<=0.5), drift {worst_drift:.6f} (<=0.5)",
    )


def test_criterion_7_structural_properties():
    rng = np.random.default_rng(RNG_SEED + 6)
    n = 80
    mesh = interval_mesh(n)
    lowrank = build_lowrank(gaussian_difference_kernel(), mesh, mesh, 9)

    psd_ok = True
    for criterion in ("A", "D"):
        setup = BayesSetup(alpha=1.0, criterion=criterion)
        w, budget = feasible(rng, n)
        weights = DesignWeights(w, budget)
        _, deriv = PosteriorEngine(lowrank, setup).derivatives(weights.w)
        # H = coef_out^T core coef_out is PSD when its node-space core is;
        # W^T W is PSD by construction, so check the core, up to its scale
        core = deriv.m1 * (deriv.m2 if criterion == "A" else deriv.m1)
        eigs = np.linalg.eigvalsh(0.5 * (core + core.T))
        psd_ok &= eigs.min() >= -1e-10 * max(eigs.max(), 1e-30)

    engine_a = PosteriorEngine(lowrank, BayesSetup(alpha=1.0, criterion="A"))
    mono_ok = True
    for _ in range(50):
        w = rng.uniform(0, 1, n)
        bump = rng.uniform(0, 1, n) * (1.0 - w)
        mono_ok &= engine_a.value(w + bump) <= engine_a.value(w) + 1e-12

    convex_ok = True
    for criterion in ("A", "D"):
        engine = PosteriorEngine(lowrank, BayesSetup(alpha=1.0, criterion=criterion))
        for _ in range(50):
            w1 = rng.uniform(0, 1, n)
            w2 = rng.uniform(0, 1, n)
            mid = engine.value(0.5 * (w1 + w2))
            convex_ok &= mid <= 0.5 * (engine.value(w1) + engine.value(w2)) + 1e-12

    ok = psd_ok and mono_ok and convex_ok
    report(
        7,
        "structural matrix properties",
        ok,
        f"H_s psd={psd_ok}, monotone={mono_ok}, midpoint convex={convex_ok}",
    )


def test_criterion_8_lidar_physics():
    # eigenmode decay, exact to 1e-12 at the evaluator level
    cfg0 = LidarConfig(c1=0.0, c2=0.0, mu=1.0, p=3)
    table = sp.lidar.mode_table(3, 1.0)
    pts = np.array([[0.3, -0.2], [0.55, 0.4], [-0.15, 0.7]])
    decay_err = 0.0
    for mode_index, (k1, k2) in enumerate(zip(table.k1, table.k2)):
        coeffs = np.zeros(9)
        coeffs[mode_index] = 1.0
        for t in (0.2, 0.7):
            u = sp.advdiff_solution(cfg0, coeffs, pts, t)
            expected = (
                np.exp(-table.decay[mode_index] * t)
                * sp.lidar.dirichlet_basis(k1, pts[:, 0])
                * sp.lidar.dirichlet_basis(k2, pts[:, 1])
            )
            decay_err = max(decay_err, float(np.abs(u - expected).max()))

    cfg = LidarConfig()
    disk = sp.build_disk_mesh(sp.DiskSensorDomain(cfg.n_d, cfg.n_r))
    grid = build_mesh(sp.RectDomain((-1.0, -1.0), (1.0, 1.0)), (cfg.n_x, cfg.n_x))
    f1 = sp.exact_factor(cfg, disk, grid).dense()
    f2 = sp.exact_factor(cfg, disk, grid).dense()
    source_free = np.array_equal(f1, f2)

    prob = build_lidar_problem(cfg, node_constant=8.0)
    res = solve_relaxed(
        prob.lowrank,
        prob.setup,
        float(prob.budget),
        SqpConfig(epsilon=1e-3),
        row_group=prob.row_group,
    )
    w = res.weights.w
    symmetry_err = float(np.abs(w - w[::-1]).max())

    ok = decay_err <= 1e-12 and source_free and symmetry_err <= 1e-3
    report(
        8,
        "lidar physics",
        ok,
        f"decay err {decay_err:.2e} (<=1e-12), F source-free={source_free}, "
        f"design symmetry {symmetry_err:.2e} (<=1e-3)",
    )


def test_criterion_9_sanity_reconstruction():
    def u0(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    xs = np.linspace(-1, 1, 81)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    norm = np.linalg.norm(u0(gx, gy))
    errs = {}
    for p in (2, 3, 5):
        coeffs = sp.fourier_coefficients_u0(u0, p)
        errs[p] = float(np.linalg.norm(sp.reconstruct_u0(coeffs, gx, gy) - u0(gx, gy)) / norm)
    ok = errs[2] < 1e-8 and errs[3] < 1e-8 and abs(errs[3] - errs[5]) < 1e-6
    report(
        9,
        "sanity reconstruction",
        ok,
        f"err(p=2) {errs[2]:.2e} (<1e-8), |err3-err5| {abs(errs[3]-errs[5]):.2e} (<1e-6)",
    )


def test_criterion_10_integrality_gap_trend():
    gaps_dense = {}
    for nd in (20, 40, 60):
        cfg = LidarConfig(n_d=nd, n_r=nd, n_x=nd)
        prob = build_lidar_problem(cfg, node_constant=8.0)
        res = solve_relaxed(
            prob.lowrank,
            prob.setup,
            float(prob.budget),
            SqpConfig(epsilon=1e-3),
            row_group=prob.row_group,
        )
        w_int = sum_up_round(res.weights, sp.angular_plan(prob.sector_angles))
        gap = integrality_gap(
            prob.lowrank, prob.setup, res.weights, w_int, dense_f=prob.exact.dense()
        )
        gaps_dense[nd] = gap.dense

    cfg1 = LidarConfig()
    prob1 = build_lidar_problem(cfg1, node_constant=1.0)
    res1 = solve_relaxed(
        prob1.lowrank,
        prob1.setup,
        float(prob1.budget),
        SqpConfig(epsilon=1e-3),
        row_group=prob1.row_group,
    )
    w_int1 = sum_up_round(res1.weights, sp.angular_plan(prob1.sector_angles))
    gap1 = integrality_gap(prob1.lowrank, prob1.setup, res1.weights, w_int1)

    trend_ok = gaps_dense[60] < gaps_dense[20]
    zero_ok = gap1.surrogate == 0.0
    ok = trend_ok and zero_ok
    report(
        10,
        "integrality gap trend",
        ok,
        f"gap_dense 20/40/60 = {gaps_dense[20]:.3e}/{gaps_dense[40]:.3e}/"
        f"{gaps_dense[60]:.3e} (60<20: {trend_ok}), c=1 surrogate gap "
        f"{gap1.surrogate!r} (==0.0: {zero_ok})",
    )


def test_criterion_11_scaling():
    def pipeline(n):
        mesh = interval_mesh(n)
        kern = gaussian_difference_kernel()
        lowrank = build_lowrank(kern, mesh, mesh, sp.node_budget(4.0, n))
        setup = BayesSetup(alpha=0.1)
        res = solve_relaxed(lowrank, setup, float(round(0.2 * n)), SqpConfig(epsilon=1e-3))
        sum_up_round(res.weights)

    sizes = (400, 800, 1600, 3200)
    medians = []
    for n in sizes:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            pipeline(n)
            times.append(time.perf_counter() - t0)
        medians.append(float(np.median(times)))
    ratios = [medians[i + 1] / medians[i] for i in range(len(sizes) - 1)]
    ratios_ok = all(r <= 3.0 for r in ratios)

    t0 = time.perf_counter()
    prob = build_lidar_problem(LidarConfig(), node_constant=8.0)
    res = solve_relaxed(
        prob.lowrank,
        prob.setup,
        float(prob.budget),
        SqpConfig(epsilon=1e-3),
        row_group=prob.row_group,
    )
    sum_up_round(res.weights, sp.angular_plan(prob.sector_angles))
    lidar_seconds = time.perf_counter() - t0

    ok = ratios_ok and lidar_seconds < 60.0
    report(
        11,
        "scaling and wall time",
        ok,
        f"doubling ratios {[f'{r:.2f}' for r in ratios]} (<=3), default lidar "
        f"design {lidar_seconds:.1f}s (<60)",
    )
