import numpy as np
import pytest
from numpy.testing import assert_allclose

import sensorplace.sqp as sqp_module
from sensorplace import (
    BayesSetup,
    LidarConfig,
    LowRankKernel,
    NumericalFailure,
    PosteriorEngine,
    RectDomain,
    SqpConfig,
    build_lidar_problem,
    build_lowrank,
    build_mesh,
    dense_kernel_matrix,
    dense_objective_value,
    gaussian_difference_kernel,
    initial_point,
    node_budget,
    qp_solver,
    solve_relaxed,
)

from oracles import dense_objective_and_derivatives, scalar_kernel, solve_relaxed_dense


def interval_problem(n, kernel=None):
    mesh = build_mesh(RectDomain((-1.0,), (1.0,)), n)
    kern = kernel or gaussian_difference_kernel()
    return mesh, dense_kernel_matrix(kern, mesh, mesh), kern


class TestInitialPoint:
    def test_uniform_fifth(self):
        assert_allclose(initial_point(10, 2.0).w, np.full(10, 0.2))

    def test_full_budget(self):
        assert_allclose(initial_point(4, 4.0).w, np.ones(4))

    def test_default_budget_fraction(self):
        w = initial_point(30, round(0.2 * 30)).w
        assert_allclose(w, np.full(30, 0.2))
        assert w.sum() == pytest.approx(6.0)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            initial_point(5, 6.0)
        with pytest.raises(ValueError):
            initial_point(5, 0.0)


class TestSolveRelaxed:
    def test_scalar_problem_saturates(self):
        f = np.array([[0.9]])
        setup = BayesSetup(alpha=1.0)
        res = solve_relaxed_dense(f, setup, 0.7, SqpConfig(epsilon=1e-10))
        assert res.weights.w[0] == pytest.approx(0.7, abs=1e-7)

    def test_symmetric_kernel_gives_symmetric_design(self):
        # f(x, y) = exp(-(x - y)^2) + exp(-(x + y)^2) is invariant under
        # simultaneous reflection of both axes
        kern = scalar_kernel(
            lambda x, y: np.exp(-((x[0] - y[0]) ** 2)) + np.exp(-((x[0] + y[0]) ** 2))
        )
        mesh, f, _ = interval_problem(24, kern)
        setup = BayesSetup(alpha=0.5)
        res = solve_relaxed_dense(f, setup, 6.0, SqpConfig(epsilon=1e-9))
        assert np.abs(res.weights.w - res.weights.w[::-1]).max() < 1e-6

    def test_dense_matches_scipy_oracle(self):
        from scipy.optimize import Bounds, LinearConstraint, minimize

        n = 30
        mesh, f, _ = interval_problem(n)
        setup = BayesSetup(alpha=1.0)
        budget = 7.0
        res = solve_relaxed_dense(f, setup, budget, SqpConfig(epsilon=1e-9))

        from sensorplace import DesignWeights

        def fun(w):
            return dense_objective_value(f, DesignWeights(np.clip(w, 0, 1), n), setup)

        def grad(w):
            _, g, _ = dense_objective_and_derivatives(
                f, DesignWeights(np.clip(w, 0, 1), n), setup
            )
            return g

        oracle = minimize(
            fun,
            np.full(n, budget / n),
            jac=grad,
            method="trust-constr",
            bounds=Bounds(np.zeros(n), np.ones(n)),
            constraints=[LinearConstraint(np.ones((1, n)), -np.inf, budget)],
            options={"gtol": 1e-12, "xtol": 1e-14, "maxiter": 2000},
        )
        assert abs(res.objective_trace[-1] - oracle.fun) < 1e-4

    def test_trace_monotone_and_feasible(self):
        mesh, f, _ = interval_problem(25)
        setup = BayesSetup(alpha=0.3, criterion="D")
        res = solve_relaxed_dense(f, setup, 5.0, SqpConfig(epsilon=1e-8))
        trace = res.objective_trace
        assert np.all(np.diff(trace) <= 1e-12)
        w = res.weights.w
        assert w.min() >= 0.0 and w.max() <= 1.0
        assert w.sum() <= 5.0 + 1e-9

    def test_surrogate_mode_with_groups(self):
        mesh = build_mesh(RectDomain((-1.0,), (1.0,)), 20)
        lowrank = build_lowrank(gaussian_difference_kernel(), mesh, mesh, 6)
        row_group = np.repeat(np.arange(10), 2)
        setup = BayesSetup(alpha=1.0)
        res = solve_relaxed(lowrank, setup, 3.0, SqpConfig(epsilon=1e-8), row_group=row_group)
        assert res.weights.n_weights == 10
        assert res.weights.w.sum() <= 3.0 + 1e-9

    def test_dual_length_and_status(self):
        mesh, f, _ = interval_problem(12)
        res = solve_relaxed_dense(f, BayesSetup(alpha=1.0), 3.0, SqpConfig(epsilon=1e-6))
        assert res.status in ("converged", "max_outer")

    def test_iteration_log(self, monkeypatch):
        real_solve_qp = sqp_module.solve_qp
        recorded = []

        def recording_solve_qp(qp, *args, **kwargs):
            sol = real_solve_qp(qp, *args, **kwargs)
            recorded.append(float(qp.g @ sol.p))
            return sol

        monkeypatch.setattr(sqp_module, "solve_qp", recording_solve_qp)
        mesh, f, _ = interval_problem(15)
        res = solve_relaxed_dense(f, BayesSetup(alpha=1.0), 4.0, SqpConfig(epsilon=1e-8))
        slopes = np.array(recorded[: res.iterations])
        assert np.all(slopes < 0.0)  # every accepted step is a descent step

    def test_max_outer_reports_status(self):
        mesh, f, _ = interval_problem(25)
        res = solve_relaxed_dense(f, BayesSetup(alpha=0.05), 6.0,
                                  SqpConfig(epsilon=1e-14, max_outer=1))
        assert res.status == "max_outer"
        assert res.iterations == 1

    def test_failed_line_search_reports_status(self, monkeypatch):
        real_value = PosteriorEngine.value
        start = []

        def every_trial_worse(*args, **kwargs):
            # the first call scores the start; every later one is a trial point
            if not start:
                start.append(real_value(*args, **kwargs))
                return start[0]
            return start[0] + 1.0

        monkeypatch.setattr(PosteriorEngine, "value", every_trial_worse)
        mesh, f, _ = interval_problem(15)
        res = solve_relaxed_dense(f, BayesSetup(alpha=1.0), 4.0, SqpConfig(epsilon=1e-8))
        assert res.status == "line_search_failed"
        assert res.iterations == 1
        assert res.objective_trace.size == 1

    def test_qp_numerical_failure_names_outer_iteration(self, monkeypatch):
        real_solve_qp = sqp_module.solve_qp
        calls = []
        diagnostics = {"iteration": 16, "mu": 2.5e-3, "r_dual": 1e-2, "r_primal": 3e-4}

        def fail_on_second_call(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise NumericalFailure("interior-point iterate is not finite at iteration 16",
                                       diagnostics)
            return real_solve_qp(*args, **kwargs)

        monkeypatch.setattr(sqp_module, "solve_qp", fail_on_second_call)
        mesh, f, _ = interval_problem(15)
        with pytest.raises(NumericalFailure) as info:
            solve_relaxed_dense(f, BayesSetup(alpha=1.0), 4.0, SqpConfig(epsilon=1e-12))
        message = str(info.value)
        assert "outer iteration 1" in message
        assert "not finite at iteration 16" in message
        assert info.value.diagnostics == diagnostics

    def test_non_finite_hessian_names_outer_iteration(self, monkeypatch):
        real = qp_solver.truncated_core

        def nan_hessian(core):
            core = core.copy()
            core[0, 1] = core[1, 0] = np.nan
            return real(core)

        monkeypatch.setattr(qp_solver, "truncated_core", nan_hessian)
        mesh, f, _ = interval_problem(15)
        with pytest.raises(NumericalFailure) as info:
            solve_relaxed_dense(f, BayesSetup(alpha=1.0), 4.0)
        assert "outer iteration 0" in str(info.value)
        assert "Hessian core is not finite" in str(info.value)

    def test_dense_array_rejected(self):
        # a dense F enters only as a factor, LowRankKernel(I, F, I)
        _, f, _ = interval_problem(6)
        with pytest.raises(TypeError, match="LowRankKernel"):
            solve_relaxed(f, BayesSetup(alpha=1.0), 2.0)

    def test_config_validation(self):
        for epsilon in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                SqpConfig(epsilon=epsilon)
        # no outer iteration would run and the start would be reported as max_outer
        for max_outer in (0, -3):
            with pytest.raises(ValueError, match="max_outer"):
                SqpConfig(max_outer=max_outer)


class TestOneHessianCutPerQp:
    """Every QP's Hessian rows come from one ``qp_solver.truncated_core``
    call, looked up on the module, where the benchmark's tracer counts
    the QP core rank."""

    @staticmethod
    def cases():
        """(kernel, setup, budget, row_group): an ungrouped surrogate, a
        LIDAR problem (X X^T side) and two-row groups on more weights than
        rho^2 (X^T X side)."""
        mesh = build_mesh(RectDomain((-1.0,), (1.0,)), 30)
        lowrank = build_lowrank(gaussian_difference_kernel(), mesh, mesh, 9)
        yield lowrank, BayesSetup(alpha=0.1), 6.0, None
        prob = build_lidar_problem(LidarConfig(n_d=8, n_r=3, n_x=6, n_t=2), 4.0)
        yield prob.lowrank, prob.setup, float(prob.budget), prob.row_group
        rng = np.random.default_rng(3)
        wide = LowRankKernel(rng.normal(size=(3, 60)), rng.normal(size=(3, 3)),
                             rng.normal(size=(3, 60)))
        yield wide, BayesSetup(alpha=0.4), 8.0, np.repeat(np.arange(30), 2)

    def test_one_truncated_core_call_per_qp(self, monkeypatch):
        cores, qps = [], []
        real_core, real_solve = qp_solver.truncated_core, sqp_module.solve_qp

        def counting_core(*args, **kwargs):
            cores.append(None)
            return real_core(*args, **kwargs)

        def counting_solve(*args, **kwargs):
            qps.append(None)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(qp_solver, "truncated_core", counting_core)
        monkeypatch.setattr(sqp_module, "solve_qp", counting_solve)
        for kernel, setup, budget, row_group in self.cases():
            cores.clear()
            qps.clear()
            solve_relaxed(kernel, setup, budget, SqpConfig(epsilon=1e-8), row_group=row_group)
            assert len(qps) >= 1
            assert len(cores) == len(qps)


class TestThinBudgetSlack:
    def test_lidar_design_with_thin_budget_slack_converges(self):
        # Its QP subproblems keep a budget slack as thin as 1e-10.  With
        # neither the centering floor nor the common step length, the
        # interior-point corrector loses the Woodbury solve's digits on
        # such a subproblem and its iterates turn NaN.
        cfg = LidarConfig(
            n_d=360, n_r=60, n_x=90, n_t=5, p=3,
            c1=0.7422522315684428, c2=0.34225132624438126,
            alpha=0.001801387447868909, r=0.2958487310819663,
        )
        prob = build_lidar_problem(cfg, 8.0, criterion="A")
        res = solve_relaxed(
            prob.lowrank, prob.setup, float(prob.budget), SqpConfig(), row_group=prob.row_group
        )
        assert res.status == "converged"


class TestGroupedSurrogateMatchesDense:
    @pytest.mark.parametrize("epsilon", [1e-3, 1e-8])
    def test_lidar_surrogate_sqp_matches_dense_sqp(self, epsilon):
        # The grouped surrogate route carries the exact Hessian of F_s, so
        # SQP on the surrogate takes the same steps as the dense oracle run
        # on the materialized F_s.
        cfg = LidarConfig(n_d=24, n_r=6, n_x=10, n_t=3, c1=0.5, c2=-0.2, alpha=0.01, r=0.2)
        prob = build_lidar_problem(cfg, 8.0, criterion="A")
        args = (prob.setup, float(prob.budget), SqpConfig(epsilon=epsilon), prob.row_group)
        surrogate = solve_relaxed(prob.lowrank, *args)
        dense = solve_relaxed_dense(prob.lowrank.dense(), *args)
        assert surrogate.status == dense.status
        assert surrogate.iterations == dense.iterations
        assert surrogate.step_lengths == dense.step_lengths
        assert np.abs(surrogate.weights.w - dense.weights.w).max() <= 1e-10


class TestNoiseScale:
    """A design should not depend on the noise variance: sigma2 scales
    the A-criterion by a constant and shifts the D-criterion by one.  On
    the 1-D Gaussian problem (n = 400, node constant 8, alpha = 0.1,
    budget 80, epsilon = 1e-3), the A-design at sigma2 = 1 takes 3 steps,
    while at sigma2 = 1e-6 it stops after 1 step as ``converged``, with
    weights 0.85 away; the absolute QP tolerance and epsilon do not scale
    with sigma2 (ROADMAP item 1, scale-free stopping)."""

    @staticmethod
    def design(criterion, sigma2):
        mesh = build_mesh(RectDomain((-1.0,), (1.0,)), 400)
        lowrank = build_lowrank(gaussian_difference_kernel(), mesh, mesh, node_budget(8.0, 400))
        setup = BayesSetup(alpha=0.1, sigma2_noise=sigma2, criterion=criterion)
        return solve_relaxed(lowrank, setup, 80.0, SqpConfig(epsilon=1e-3)).weights.w

    @pytest.mark.parametrize("criterion", [
        pytest.param("A", marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 1: the stopping tests are absolute")),
        "D",
    ])
    def test_design_ignores_noise_scale(self, criterion):
        gap = np.abs(self.design(criterion, 1e-6) - self.design(criterion, 1.0)).max()
        assert gap <= 1e-8
