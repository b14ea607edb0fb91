import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from sensorplace import (
    NonconvergenceError,
    NumericalFailure,
    QpProblem,
    hessian_rows,
    qp_solver,
    solve_qp,
    starting_point,
)
from sensorplace.gram import COLUMN_BLOCK
from sensorplace.qp_solver import NormalMatrixAction
from oracles import dense_hessian, enumerate_box_budget_qp, stacked_solve_qp


def random_problem(rng, n, factored=False, n_nodes=4):
    if factored:
        coef = rng.normal(size=(n_nodes, n))
        root = rng.normal(size=(n_nodes, n_nodes))
        rows = hessian_rows(root.T @ root, coef)
    else:
        root = rng.normal(size=(n, n))
        rows = hessian_rows(root.T @ root + 0.1 * np.eye(n))
    g = rng.normal(size=n)
    low = rng.uniform(-1.0, 0.0, n)
    high = low + rng.uniform(0.5, 1.5, n)
    rhs = rng.uniform(low.sum() + 0.3, high.sum())
    return QpProblem(g, rows, low, high, rhs)


def action_at(prob, s, lam):
    """The normal-matrix operator at a stacked iterate, on its own buffers."""
    n = prob.n
    d = lam / s
    work = np.empty((NormalMatrixAction.ROWS, n))
    return NormalMatrixAction(prob, d[:n] + d[n : 2 * n], d[2 * n], work)


class TestExamples:
    def test_gradient_pushes_to_lower_box(self):
        n = 5
        prob = QpProblem(np.ones(n), np.eye(n), np.zeros(n), np.ones(n), 100.0)
        sol = solve_qp(prob)
        assert np.abs(sol.p).max() < 1e-7

    def test_symmetric_budget_active(self):
        n = 6
        prob = QpProblem(-np.ones(n), np.eye(n), np.zeros(n), np.ones(n), n / 2.0)
        sol = solve_qp(prob)
        assert_allclose(sol.p, np.full(n, 0.5), atol=1e-7)
        # budget multiplier closes the stationarity gap: p - 1 + lam_b = 0
        assert sol.lam[-1] == pytest.approx(0.5, abs=1e-6)

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 7))
            prob = random_problem(rng, n)
            p_star, _ = enumerate_box_budget_qp(
                prob.g, dense_hessian(prob.rows), prob.box_low, prob.box_high, prob.budget_rhs
            )
            sol = solve_qp(prob, tol=1e-10)
            assert np.abs(sol.p - p_star).max() < 1e-6


class TestKktContract:
    def test_residuals_and_complementarity(self, rng):
        for factored in (False, True):
            prob = random_problem(rng, 30, factored=factored)
            tol = 1e-8
            sol = solve_qp(prob, tol=tol)
            assert sol.residual_dual <= tol
            assert sol.residual_primal <= tol
            assert sol.mu <= tol
            # feasibility within tolerance
            assert np.all(sol.p >= prob.box_low - tol)
            assert np.all(sol.p <= prob.box_high + tol)
            assert sol.p.sum() <= prob.budget_rhs + tol

    def test_complementarity_products_bounded(self, rng):
        prob = random_problem(rng, 12)
        tol = 1e-8
        sol = solve_qp(prob, tol=tol)
        slack = np.concatenate(
            [sol.p - prob.box_low, prob.box_high - sol.p, [prob.budget_rhs - sol.p.sum()]]
        )
        assert np.abs(slack * sol.lam).max() <= 10.0 * tol

    def test_mu_decreases_on_well_conditioned_instance(self):
        n = 10
        prob = QpProblem(np.linspace(-1, 1, n), np.eye(n), np.zeros(n), np.ones(n), 4.0)
        its = solve_qp(prob).iterations
        # mu of iterate k - 1 is the one the NonconvergenceError of
        # max_iter = k carries: every iterate that did not stop
        recorded = []
        for k in range(1, its + 1):
            with pytest.raises(NonconvergenceError) as err:
                solve_qp(prob, max_iter=k)
            recorded.append(err.value.residuals["mu"])
        mu = np.array(recorded)
        assert np.all(mu[1:] <= 0.99 * mu[:-1])


class TestStructuredPath:
    def test_structured_matches_dense(self, rng):
        for n in (40, 120, 200):
            coef = rng.normal(size=(7, n))
            root = rng.normal(size=(7, 7))
            g = rng.normal(size=n)
            low = -rng.uniform(0.2, 1.0, n)
            high = rng.uniform(0.2, 1.0, n)
            rhs = rng.uniform(low.sum() + 0.5, high.sum())
            core = root.T @ root
            s_struct = solve_qp(QpProblem(g, hessian_rows(core, coef), low, high, rhs))
            s_dense = solve_qp(QpProblem(g, hessian_rows(coef.T @ core @ coef), low, high, rhs))
            assert np.abs(s_struct.p - s_dense.p).max() < 1e-6

    def test_zero_core_is_diagonal_plus_rank_one(self, rng):
        n = 25
        prob = random_problem(rng, n)
        prob.rows = hessian_rows(np.zeros((3, 3)), rng.normal(size=(3, n)))
        assert prob.rows.shape == (0, n)
        _, s, lam = starting_point(prob)
        action = action_at(prob, s, lam)
        v = rng.normal(size=n)
        # against the explicit matrix
        d = lam / s
        x = np.diag(np.maximum(d[:n] + d[n : 2 * n], 1e-14)) + d[2 * n] * np.ones((n, n))
        assert_allclose(action.solve(v, np.empty(n)), np.linalg.solve(x, v), atol=1e-9)

    def test_rank_one_core_matches_dense_inverse(self, rng):
        n = 15
        coef = rng.normal(size=(1, n))
        prob = random_problem(rng, n)
        prob.rows = hessian_rows(np.array([[2.0]]), coef)
        _, s, lam = starting_point(prob)
        action = action_at(prob, s, lam)
        d = lam / s
        x = (
            2.0 * coef.T @ coef
            + np.diag(np.maximum(d[:n] + d[n : 2 * n], 1e-14))
            + d[2 * n] * np.ones((n, n))
        )
        v = rng.normal(size=n)
        assert_allclose(action.solve(v, np.empty(n)), np.linalg.solve(x, v), atol=1e-9)

    def test_dense_zero_hessian_is_diagonal_plus_rank_one(self):
        # A dense H = 0 truncates to an empty Woodbury core: the linear
        # program picks the two steepest coordinates.
        n = 6
        g = -np.array([3.0, 2.5, 1.0, 0.5, 0.25, 0.1])
        rows = hessian_rows(np.zeros((n, n)))
        sol = solve_qp(QpProblem(g, rows, np.zeros(n), np.ones(n), 2.0), tol=1e-10)
        assert_allclose(sol.p, [1.0, 1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-8)

    def test_apply_solve_roundtrip(self, rng):
        prob = random_problem(rng, 50, factored=True, n_nodes=9)
        _, s, lam = starting_point(prob)
        action = action_at(prob, s, lam)
        # against the explicit operator H + D + d_b 1 1^T
        d = lam / s
        x = (
            dense_hessian(prob.rows)
            + np.diag(np.maximum(d[:50] + d[50:100], 1e-14))
            + d[100] * np.ones((50, 50))
        )
        for _ in range(3):
            v = rng.normal(size=50)
            assert np.abs(x @ action.solve(v, np.empty(50)) - v).max() < 1e-8


def equivalence_problem(hess_kind, budget, n, seed):
    rng = np.random.default_rng(seed)
    if hess_kind == "dense":
        root = rng.normal(size=(n, n))
        rows = hessian_rows(root.T @ root / n + 0.1 * np.eye(n))
    else:
        coef = rng.normal(size=(6, n))
        root = rng.normal(size=(6, 6))
        core = np.zeros((6, 6)) if hess_kind == "zero" else root.T @ root / n
        rows = hessian_rows(core, coef)
    low = -rng.uniform(0.0, 1.0, n)
    high = low + rng.uniform(0.5, 1.5, n)
    if budget == "active":
        g = -rng.uniform(0.5, 1.5, n)  # every coordinate wants to rise
        rhs = low.sum() + 0.3 * (high - low).sum()
    else:
        g = rng.normal(size=n)
        rhs = high.sum() + 1.0
    return QpProblem(g, rows, low, high, rhs)


class TestBlockFormMatchesStackedLoop:
    """The block-form loop against the stacked (2n+1)-vector reference:
    the same Newton steps, so the same iteration count and p to 1e-9."""

    @pytest.mark.parametrize("budget", ["active", "slack"])
    @pytest.mark.parametrize(
        "hess_kind, n",
        [("dense", 12), ("dense", 40), ("factored", 60), ("factored", 2 * COLUMN_BLOCK + 17),
         ("zero", 60), ("zero", 2 * COLUMN_BLOCK + 17),
         # one block short of, exactly at and one column past the block edge
         ("factored", COLUMN_BLOCK - 1), ("factored", COLUMN_BLOCK), ("factored", COLUMN_BLOCK + 1)],
    )
    def test_same_iterations_and_step(self, hess_kind, n, budget):
        prob = equivalence_problem(hess_kind, budget, n, seed=n)
        sol = solve_qp(prob)
        p_ref, lam_ref, iterations = stacked_solve_qp(prob)
        assert sol.iterations == iterations
        assert np.abs(sol.p - p_ref).max() <= 1e-9
        assert sol.lam.shape == lam_ref.shape == (2 * n + 1,)
        if budget == "active":
            assert sol.lam[-1] > 1e-3
        else:
            assert prob.budget_rhs - sol.p.sum() > 0.5


class TestReportedResiduals:
    """The residuals and mu a solve reports are those of the iterate it
    returns, recomputed afresh: H p from W, every column of a
    ragged last block, and 1^T p in the budget row."""

    @pytest.mark.parametrize("budget", ["active", "slack"])
    def test_match_recomputed_at_returned_iterate(self, budget):
        n = 3 * COLUMN_BLOCK + 5
        prob = equivalence_problem("factored", budget, n, seed=n)
        sol = solve_qp(prob)
        p, rows = sol.p, prob.rows
        lam_l, lam_u, lam_b = sol.lam[:n], sol.lam[n : 2 * n], sol.lam[-1]
        s_l, s_u, s_b = sol.s[:n], sol.s[n : 2 * n], sol.s[-1]
        r_dual = rows.T @ (rows @ p) + prob.g - lam_l + lam_u + lam_b
        r_primal = max(
            np.abs(p - s_l - prob.box_low).max(),
            np.abs(prob.box_high - p - s_u).max(),
            abs(prob.budget_rhs - p.sum() - s_b),
        )
        mu = float(sol.s @ sol.lam) / (2 * n + 1)
        bound = 1e-11 * max(1.0, np.abs(prob.g).max())
        assert abs(np.abs(r_dual).max() - sol.residual_dual) <= bound
        assert abs(r_primal - sol.residual_primal) <= bound
        assert abs(mu - sol.mu) <= bound
        assert sol.iterations > 0
        if budget == "active":
            assert lam_b > 1e-3
        else:
            assert prob.budget_rhs - p.sum() > 0.5


@st.composite
def box_budget_qps(draw):
    """Box-plus-budget QP with n in [2, 8] and a positive-definite H,
    drawn like the criterion-4 instances."""
    n = draw(st.integers(2, 8))

    def array(shape, lo, hi):
        return draw(hnp.arrays(float, shape, elements=st.floats(lo, hi)))

    root = array((n, n), -1.0, 1.0)
    low = array(n, -1.0, 0.0)
    high = low + array(n, 0.5, 1.5)
    spare = high.sum() - low.sum() - 0.3
    rhs = low.sum() + 0.3 + draw(st.floats(0.0, 1.0)) * spare
    rows = hessian_rows(root.T @ root + 0.1 * np.eye(n))
    return QpProblem(array(n, -2.0, 2.0), rows, low, high, rhs)


def strict_complementarity_margin(prob, p):
    """Smallest slack of an inactive constraint or multiplier of an active
    one at the optimum p; 0 when the multipliers are not unique."""
    grad = dense_hessian(prob.rows) @ p + prob.g
    at_low = np.abs(p - prob.box_low) <= 1e-9
    at_high = np.abs(p - prob.box_high) <= 1e-9
    free = ~(at_low | at_high)
    budget_slack = prob.budget_rhs - p.sum()
    if budget_slack > 1e-9:
        lam_b, gaps = 0.0, [budget_slack]
    elif free.any():
        lam_b = float(-grad[free].mean())
        gaps = [lam_b]
    else:
        return 0.0
    gaps += list(grad[at_low] + lam_b) + list(-(grad[at_high] + lam_b))
    gaps += list(np.minimum(p - prob.box_low, prob.box_high - p)[free])
    return min(gaps)


class TestProperties:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(box_budget_qps())
    def test_kkt_and_enumeration_oracle(self, prob):
        # The criterion-4 tolerances: KKT residuals <= 1e-8 at tol=1e-10
        # everywhere, and the oracle match <= 1e-6 where the optimum is
        # strictly complementary (at a degenerate optimum the primal error
        # of an interior-point stop scales like sqrt(mu)).
        sol = solve_qp(prob, tol=1e-10)
        assert max(sol.residual_dual, sol.residual_primal, sol.mu) <= 1e-8
        p_star, _ = enumerate_box_budget_qp(
            prob.g, dense_hessian(prob.rows), prob.box_low, prob.box_high, prob.budget_rhs
        )
        assume(strict_complementarity_margin(prob, p_star) >= 1e-3)
        assert np.abs(sol.p - p_star).max() <= 1e-6

    def test_one_factorization_per_iteration(self, rng, monkeypatch):
        built = []

        class CountingAction(NormalMatrixAction):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(qp_solver, "NormalMatrixAction", CountingAction)
        for factored in (False, True):
            built.clear()
            sol = solve_qp(random_problem(rng, 40, factored=factored))
            assert sol.iterations > 0
            assert len(built) == sol.iterations

    def test_one_core_solve_per_newton_solve(self, rng, monkeypatch):
        calls = {"solve": 0, "cholesky": 0, "solve_once": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        prob = random_problem(rng, 40, factored=True)
        monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        monkeypatch.setattr(NormalMatrixAction, "_solve_once",
                            counted("solve_once", NormalMatrixAction._solve_once))
        sol = solve_qp(prob)
        assert sol.iterations > 0
        assert calls["solve_once"] >= 2 * sol.iterations
        assert calls["solve"] == calls["solve_once"]
        assert calls["cholesky"] == 0


class TestStartingPoint:
    def test_center_with_generous_budget(self):
        prob = QpProblem(np.zeros(4), np.eye(4), np.zeros(4), np.ones(4), 100.0)
        p, s, lam = starting_point(prob)
        assert_allclose(p, np.full(4, 0.5))
        assert np.all(s >= 1.0)
        assert_allclose(lam, np.ones(9))

    def test_budget_pushes_inside(self):
        prob = QpProblem(np.zeros(4), np.eye(4), np.zeros(4), np.ones(4), 1.0)
        p, _, _ = starting_point(prob)
        assert p.sum() < 1.0
        assert np.all(p > 0.0)

    def test_infeasible_budget_rejected(self):
        prob = QpProblem(np.zeros(3), np.eye(3), np.zeros(3), np.ones(3), -0.5)
        with pytest.raises(ValueError):
            starting_point(prob)

    def test_slacks_floored(self):
        prob = QpProblem(np.zeros(3), np.eye(3), np.zeros(3), np.ones(3), 5.0)
        _, s, _ = starting_point(prob)
        assert np.all(s >= 1.0)


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [{"max_iter": 0}, {"max_iter": -1}, {"tol": 0.0}, {"tol": -1.0}, {"tol": np.nan},
         {"tol": np.inf}],
    )
    def test_invalid_settings_rejected(self, rng, bad):
        prob = random_problem(rng, 5)
        with pytest.raises(ValueError, match="tol|max_iter"):
            solve_qp(prob, **bad)

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError, match="positive semi-definite"):
            hessian_rows(-np.eye(4))

    # eigh may return NaN eigenvalues, which the cut would drop and leave
    # H = 0, or raise a bare LinAlgError
    @pytest.mark.parametrize("core", [[[1.0, np.nan], [np.nan, 1.0]], np.full((3, 3), np.nan)])
    def test_non_finite_core_rejected(self, core):
        with pytest.raises(NumericalFailure, match="Hessian core is not finite"):
            hessian_rows(np.array(core))

    @pytest.mark.parametrize("rows", [np.ones(4), np.ones((2, 3)), np.ones((1, 2, 4))])
    def test_rows_of_wrong_shape_rejected(self, rows):
        with pytest.raises(ValueError, match="Hessian rows"):
            QpProblem(np.ones(4), rows, np.zeros(4), np.ones(4), 2.0)

    def test_non_finite_woodbury_core_rejected(self, rng):
        prob = random_problem(rng, 8, factored=True)
        diag = np.ones(8)
        diag[2] = np.nan
        with pytest.raises(NumericalFailure, match="Woodbury system is not finite"):
            NormalMatrixAction(prob, diag, 1.0, np.empty((NormalMatrixAction.ROWS, 8)))

    def test_nonconvergence_carries_residuals(self, rng):
        prob = random_problem(rng, 8)
        with pytest.raises(NonconvergenceError) as err:
            solve_qp(prob, tol=1e-12, max_iter=2)
        assert "mu" in err.value.residuals

    def test_non_finite_gradient_fails_at_once(self, rng):
        prob = random_problem(rng, 8, factored=True)
        prob.g[3] = np.nan
        with pytest.raises(NumericalFailure) as err:
            solve_qp(prob)
        assert err.value.diagnostics["iteration"] == 0
        # no finite iterate came before the failure
        assert err.value.diagnostics["r_dual"] is None

    def test_non_finite_rows_fail_at_once(self, rng):
        prob = random_problem(rng, 8, factored=True)
        prob.rows[0, 3] = np.nan
        with pytest.raises(NumericalFailure) as err:
            solve_qp(prob)
        assert err.value.diagnostics["iteration"] == 0
        assert err.value.diagnostics["r_dual"] is None
