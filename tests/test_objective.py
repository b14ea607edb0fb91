import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sensorplace import (
    BayesSetup,
    DesignWeights,
    LidarConfig,
    LowRankKernel,
    NumericalFailure,
    PosteriorEngine,
    RectDomain,
    build_lidar_problem,
    build_lowrank,
    build_mesh,
    cubic_distance_kernel,
    dense_objective_and_derivatives,
    dense_objective_value,
    gaussian_difference_kernel,
    integrality_gap,
    objective,
    product_exponential_kernel,
    shared_engine,
    solve_relaxed,
    sum_up_round,
)
from sensorplace.gram import COLUMN_BLOCK
from oracles import (
    dense_value_direct,
    dense_value_fn,
    finite_difference_gradient,
    uncut_input_r,
)


def random_lowrank(rng, n=50, n_nodes=9):
    coef_out = rng.normal(size=(n_nodes, n))
    node_values = rng.normal(size=(n_nodes, n_nodes))
    coef_in = rng.normal(size=(n_nodes, n))
    return LowRankKernel(coef_out, node_values, coef_in)


def feasible_weights(rng, n, budget_fraction=0.4):
    w = rng.uniform(0.0, 1.0, n)
    budget = budget_fraction * n
    if w.sum() > budget:
        w *= budget / w.sum()
    return DesignWeights(w, budget)


class TestBayesSetup:
    @pytest.mark.parametrize("bad", [{"alpha": 0.0}, {"alpha": np.nan}, {"alpha": np.inf},
                                     {"sigma2_noise": np.nan}, {"criterion": "E"}])
    def test_rejects_invalid_settings(self, bad):
        with pytest.raises(ValueError):
            BayesSetup(**{"alpha": 1.0, **bad})


class TestDesignWeights:
    def test_clamps_roundoff(self):
        w = DesignWeights(np.array([0.5, -1e-13, 1.0 + 1e-13]), 3.0)
        assert w.w.min() == 0.0
        assert w.w.max() == 1.0

    def test_rejects_violations(self):
        with pytest.raises(ValueError):
            DesignWeights(np.array([0.5, -0.1]), 2.0)
        with pytest.raises(ValueError):
            DesignWeights(np.array([0.9, 0.9]), 1.0)
        with pytest.raises(ValueError):
            DesignWeights(np.array([0.5, 0.5]), 2.0, binary=True)

    def test_group_views(self):
        w = DesignWeights(np.array([0.2, 0.7]), 2.0, row_group=np.array([0, 0, 1, 1]))
        assert_allclose(w.row_weights(), [0.2, 0.2, 0.7, 0.7])


class TestPosteriorSpectrum:
    def test_zero_weights(self, rng):
        lowrank = random_lowrank(rng)
        weights = DesignWeights(np.zeros(50), 10.0)
        lam = PosteriorEngine(lowrank, BayesSetup(alpha=1.0)).eigenvalues(weights.w)
        assert lam.size == 0

    def test_rank_one(self):
        u = np.array([[1.0, 2.0, 2.0]])  # coef_out with one node
        v = np.array([[3.0, 0.0, 4.0]])
        lowrank = LowRankKernel(u, np.eye(1), v)
        weights = DesignWeights(np.ones(3), 3.0)
        lam = PosteriorEngine(lowrank, BayesSetup(alpha=1.0)).eigenvalues(weights.w)
        assert lam.size == 1
        assert lam[0] == pytest.approx(9.0 * 25.0)

    def test_matches_dense_eigensolve(self, rng):
        lowrank = random_lowrank(rng, n=50, n_nodes=9)
        weights = feasible_weights(rng, 50)
        lam = PosteriorEngine(lowrank, BayesSetup(alpha=0.3)).eigenvalues(weights.w)
        fs = lowrank.dense()
        gram = fs.T @ (weights.row_weights()[:, None] * fs)
        lam_dense = np.linalg.eigvalsh(gram)[::-1][: lam.size]
        assert_allclose(lam, lam_dense, rtol=1e-8, atol=1e-10)

    def test_non_finite_input_factor_fails_at_construction(self, rng):
        lowrank = random_lowrank(rng, n=20, n_nodes=5)
        lowrank.node_values[2, 3] = np.nan
        with pytest.raises(NumericalFailure):
            PosteriorEngine(lowrank, BayesSetup(alpha=1.0))

    def test_engines_share_one_input_factor(self, rng, monkeypatch):
        n = 40
        lowrank = random_lowrank(rng, n=n, n_nodes=6)
        first = PosteriorEngine(lowrank, BayesSetup(alpha=1.0))
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(a) or eigh(*a, **k))
        second = PosteriorEngine(lowrank, BayesSetup(alpha=0.5, criterion="D"))
        assert calls == []
        assert second.r_factor is first.r_factor
        # the n x N input factor B is not kept on the surrogate
        kept = [v for v in vars(lowrank).values() if isinstance(v, np.ndarray)]
        assert kept and all(v.shape[0] != n for v in kept)


class TestObjectiveValue:
    def test_identity_posterior(self):
        # the engine takes n from the kernel's 7 columns
        lowrank = random_lowrank(np.random.default_rng(0), n=7)
        engine = PosteriorEngine(lowrank, BayesSetup(alpha=1.0))
        assert engine.value(DesignWeights(np.zeros(7), 1.0).w) == pytest.approx(7.0)

    def test_single_eigenvalue(self):
        # one row, two columns: n = 2 comes from coef_in
        lowrank = LowRankKernel(np.array([[1.0]]), np.eye(1), np.array([[1.0, 0.0]]))
        engine = PosteriorEngine(lowrank, BayesSetup(alpha=1.0))
        assert engine.value(DesignWeights(np.ones(1), 1.0).w) == pytest.approx(1.5)

    @pytest.mark.parametrize("criterion", ["A", "D"])
    def test_matches_dense_inverse_oracle(self, rng, criterion):
        lowrank = random_lowrank(rng, n=30, n_nodes=6)
        weights = feasible_weights(rng, 30)
        setup = BayesSetup(alpha=0.7, sigma2_noise=1.9, criterion=criterion)
        value = PosteriorEngine(lowrank, setup).value(weights.w)
        direct = dense_value_direct(lowrank.dense(), weights.row_weights(), setup)
        assert value == pytest.approx(direct, rel=1e-9)


class TestInterpolatedDerivatives:
    def surrogate_problem(self, rng, n=40, n_nodes=10):
        mesh = build_mesh(RectDomain((-1.0,), (1.0,)), n)
        kern = gaussian_difference_kernel()
        lowrank = build_lowrank(kern, mesh, mesh, n_nodes)
        return lowrank

    @pytest.mark.parametrize("criterion", ["A", "D"])
    def test_gradient_matches_finite_differences(self, rng, criterion):
        lowrank = self.surrogate_problem(rng)
        n = lowrank.n_rows
        weights = feasible_weights(rng, n)
        setup = BayesSetup(alpha=0.4, sigma2_noise=1.2, criterion=criterion)
        engine = PosteriorEngine(lowrank, setup)
        _, deriv = engine.derivatives(weights.w)
        fd = finite_difference_gradient(lambda w: engine.value(np.clip(w, 0, 1)), weights.w)
        fd_vec = np.array([fd[i] for i in range(n)])
        rel = np.linalg.norm(deriv.gradient - fd_vec) / np.linalg.norm(fd_vec)
        assert rel < 1e-5

    @pytest.mark.parametrize("criterion", ["A", "D"])
    @pytest.mark.parametrize("active", [None, 4])
    def test_node_matrices_match_dense_solve(self, rng, criterion, active):
        # M_k = B^T (F_s^T W F_s + alpha I)^(-k) B against a dense solve;
        # with 4 active rows the core keeps 4 of its 10 eigenvalues
        lowrank = self.surrogate_problem(rng, n=40, n_nodes=10)
        n = lowrank.n_rows
        w = feasible_weights(rng, n).w
        if active is not None:
            w[active:] = 0.0
        setup = BayesSetup(alpha=0.3, sigma2_noise=1.7, criterion=criterion)
        engine = PosteriorEngine(lowrank, setup)
        _, deriv = engine.derivatives(w)
        if active is not None:
            assert engine.eigenvalues(w).size == active < engine.r_factor.shape[0]
        fs = lowrank.dense()
        a = fs.T @ (w[:, None] * fs) + 0.3 * np.eye(n)
        b = lowrank.coef_in.T @ lowrank.node_values.T
        s = np.linalg.solve(a, b)
        for got, want in ((deriv.m1, b.T @ s), (deriv.m2, s.T @ s)):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_zero_weights_reduce_to_gram(self, rng):
        lowrank = self.surrogate_problem(rng, n=15, n_nodes=5)
        weights = DesignWeights(np.zeros(15), 5.0)
        setup = BayesSetup(alpha=1.0, sigma2_noise=1.0, criterion="A")
        _, deriv = PosteriorEngine(lowrank, setup).derivatives(weights.w)
        b = lowrank.coef_in.T @ lowrank.node_values.T
        assert_allclose(deriv.m1, b.T @ b, rtol=1e-12, atol=1e-14)
        assert_allclose(deriv.m2, b.T @ b, rtol=1e-12, atol=1e-14)
        # gradient reduces to minus the interpolated squared row norms
        c = lowrank.coef_out
        assert_allclose(deriv.gradient, -np.sum(c * ((b.T @ b) @ c), axis=0), rtol=1e-12)

    def test_hessian_matches_dense_formula_at_generous_nodes(self, rng):
        # entries of the interpolated coef^T htilde coef vs the dense
        # Hessian of the surrogate matrix; agreement is limited by
        # interpolating the product of the two smooth factors
        lowrank = self.surrogate_problem(rng, n=36, n_nodes=14)
        n = lowrank.n_rows
        weights = feasible_weights(rng, n)
        setup = BayesSetup(alpha=1.0, criterion="A")
        _, deriv = PosteriorEngine(lowrank, setup).derivatives(weights.w)
        h_interp = deriv.hessian_rows.T @ deriv.hessian_rows
        _, _, h_dense = dense_objective_and_derivatives(lowrank.dense(), weights, setup)
        assert np.abs(h_interp - h_dense).max() <= 1e-4 * max(1.0, np.abs(h_dense).max())

    def test_htilde_positive_semidefinite(self, rng):
        lowrank = self.surrogate_problem(rng)
        weights = feasible_weights(rng, lowrank.n_rows)
        for criterion in ("A", "D"):
            setup = BayesSetup(alpha=0.2, criterion=criterion)
            _, deriv = PosteriorEngine(lowrank, setup).derivatives(weights.w)
            # the node-space core, up to its positive scale
            core = deriv.m1 * (deriv.m2 if criterion == "A" else deriv.m1)
            eigs = np.linalg.eigvalsh(core)
            assert eigs.min() >= -1e-10 * max(eigs.max(), 1e-30)


class TestDenseObjectiveAndDerivatives:
    def test_scalar_closed_form(self):
        f = np.array([[0.8]])
        setup = BayesSetup(alpha=1.0, sigma2_noise=1.0, criterion="A")
        weights = DesignWeights(np.array([1.0]), 1.0)
        value, grad, hess = dense_objective_and_derivatives(f, weights, setup)
        phi2 = 0.8**2
        assert value == pytest.approx(1.0 / (phi2 + 1.0))
        assert grad[0] == pytest.approx(-phi2 / (phi2 + 1.0) ** 2)
        assert hess[0, 0] == pytest.approx(2.0 * phi2**2 / (phi2 + 1.0) ** 3)

    @pytest.mark.parametrize("criterion", ["A", "D"])
    def test_gradient_matches_finite_differences(self, rng, criterion):
        n = 20
        mesh = build_mesh(RectDomain((-1.0,), (1.0,)), n)
        f = np.exp(-np.subtract.outer(mesh.points[:, 0], mesh.points[:, 0]) ** 2) * mesh.cell_measure
        weights = feasible_weights(rng, n)
        setup = BayesSetup(alpha=0.6, sigma2_noise=1.4, criterion=criterion)
        value, grad, hess = dense_objective_and_derivatives(f, weights, setup)
        fd = finite_difference_gradient(dense_value_fn(f, setup), weights.w)
        fd_vec = np.array([fd[i] for i in range(n)])
        assert np.linalg.norm(grad - fd_vec) / np.linalg.norm(fd_vec) < 1e-6

    def test_hessian_symmetric_psd(self, rng):
        n = 20
        f = np.random.default_rng(3).normal(size=(n, n)) / n
        weights = feasible_weights(rng, n)
        setup = BayesSetup(alpha=0.5, criterion="A")
        _, _, hess = dense_objective_and_derivatives(f, weights, setup)
        assert_allclose(hess, hess.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(hess)
        assert eigs.min() >= -1e-10 * max(eigs.max(), 1e-30)

    def test_group_gradient_sums_time_rows(self, rng):
        # two locations x three times sharing per-location weights
        n_loc, n_t, m = 2, 3, 8
        f = rng.normal(size=(n_loc * n_t, m))
        row_group = np.repeat(np.arange(n_loc), n_t)
        w = np.array([0.3, 0.8])
        setup = BayesSetup(alpha=1.0, criterion="A")
        grouped = DesignWeights(w, 2.0, row_group=row_group)
        _, grad_grouped, _ = dense_objective_and_derivatives(f, grouped, setup)
        perrow = DesignWeights(w[row_group], float(n_loc * n_t))
        _, grad_rows, _ = dense_objective_and_derivatives(f, perrow, setup)
        assert_allclose(grad_grouped, [grad_rows[:3].sum(), grad_rows[3:].sum()], rtol=1e-12)


class TestSharedEngine:
    def interval_problem(self, kernel=None):
        mesh = build_mesh(RectDomain((-1.0,), (1.0,)), 30)
        return build_lowrank(kernel or gaussian_difference_kernel(), mesh, mesh, 8)

    def test_one_engine_and_one_gram_per_weight_vector(self, monkeypatch):
        # a problem whose line search backtracks
        lowrank = self.interval_problem(cubic_distance_kernel())
        setup = BayesSetup(alpha=0.001)
        inits, grams = [], []
        init, gram = PosteriorEngine.__init__, PosteriorEngine.weighted_gram
        monkeypatch.setattr(PosteriorEngine, "__init__",
                            lambda self, *a, **k: inits.append(1) or init(self, *a, **k))
        monkeypatch.setattr(PosteriorEngine, "weighted_gram",
                            lambda self, w: grams.append(w.copy()) or gram(self, w))
        res = solve_relaxed(lowrank, setup, 6.0)
        rounded = sum_up_round(res.weights)
        assert res.status == "converged" and min(res.step_lengths) < 1.0
        assert not np.array_equal(rounded.w, res.weights.w)
        integrality_gap(lowrank, setup, res.weights, rounded)
        assert len(inits) == 1
        # the start, every line-search trial (accepted at step 2^-j after
        # j backtracks), then w_int; derivatives and w_rel hit the cache
        trials = sum(1 + round(-np.log2(a)) for a in res.step_lengths)
        assert len(grams) == 1 + trials + 1
        assert all(not np.array_equal(a, b) for a, b in zip(grams, grams[1:]))

    def test_changed_setup_gets_a_fresh_engine(self, rng):
        lowrank = LowRankKernel(rng.normal(size=(5, 24)), rng.normal(size=(5, 5)),
                                rng.normal(size=(5, 24)))
        base = BayesSetup(alpha=1.0)
        variants = [
            (BayesSetup(alpha=0.5), None),
            (BayesSetup(alpha=1.0, criterion="D"), None),
            (BayesSetup(alpha=1.0, sigma2_noise=2.0), None),
            (base, np.repeat(np.arange(12), 2)),
        ]
        w = rng.uniform(0.1, 0.9, 24)
        for setup, row_group in variants:
            first = shared_engine(lowrank, base)
            assert shared_engine(lowrank, BayesSetup(alpha=1.0)) is first
            first.value(w)
            engine = shared_engine(lowrank, setup, row_group)
            assert engine is not first
            same_groups = None if row_group is None else row_group.copy()
            assert shared_engine(lowrank, BayesSetup(**vars(setup)), same_groups) is engine
            x = w if row_group is None else w[::2]
            assert engine.value(x) == PosteriorEngine(lowrank, setup, row_group).value(x)

    def test_gap_after_solve_with_another_setup(self):
        lowrank = self.interval_problem()
        res = solve_relaxed(lowrank, BayesSetup(alpha=0.1), 6.0)
        rounded = sum_up_round(res.weights)
        setup = BayesSetup(alpha=0.3, criterion="D")
        gap = integrality_gap(lowrank, setup, res.weights, rounded)
        fresh = PosteriorEngine(lowrank, setup)
        assert gap.surrogate == fresh.value(rounded.w) - fresh.value(res.weights.w)

    @pytest.mark.parametrize("criterion", ["A", "D"])
    def test_blocked_gram_and_gradient_match_unblocked(self, rng, criterion):
        n = 2 * COLUMN_BLOCK + 17  # a ragged last block
        lowrank = random_lowrank(rng, n=n, n_nodes=9)
        setup = BayesSetup(alpha=0.4, sigma2_noise=1.7, criterion=criterion)
        engine = PosteriorEngine(lowrank, setup)
        w = rng.uniform(0.0, 1.0, n)
        c = lowrank.coef_out
        r = engine.r_factor
        core = r @ ((c * w) @ c.T) @ r.T  # R~ G R~^T
        assert np.abs(engine.weighted_gram(w) - core).max() <= 1e-13 * np.abs(core).max()
        _, deriv = engine.derivatives(w)
        # g_i = -sigma2 c_i^T M2 c_i (A), -c_i^T M1 c_i (D)
        m, scale = (deriv.m2, 1.7) if criterion == "A" else (deriv.m1, 1.0)
        grad = -scale * np.einsum("ij,ij->j", c, m @ c)
        assert np.abs(deriv.gradient - grad).max() <= 1e-13 * np.abs(grad).max()

    def test_ungrouped_core_is_formed_on_rho_rows(self, rng, monkeypatch):
        # an input factor of rank 4 < N_out = 9: the core is formed as the
        # rho x rho Gram of R~ coef_out, and no N_out x N_out Gram is formed
        n_nodes, n = 9, COLUMN_BLOCK + 5
        node_values = rng.normal(size=(n_nodes, 4)) @ rng.normal(size=(4, n_nodes))
        lowrank = LowRankKernel(rng.normal(size=(n_nodes, n)), node_values,
                                rng.normal(size=(n_nodes, n)))
        engine = PosteriorEngine(lowrank, BayesSetup(alpha=0.3))
        rho = engine.r_factor.shape[0]
        assert rho == 4
        shapes = []
        gram = objective.column_gram

        def recording(*args, **kwargs):
            out = gram(*args, **kwargs)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(objective, "column_gram", recording)
        engine.value(rng.uniform(0.0, 1.0, n))
        assert shapes == [(rho, rho)]


class TestGroupReduce:
    def test_matrix_blocks(self, rng):
        # the grouped oracle's gradient and Hessian are the block sums of
        # the per-row ones at the same row weights: singleton groups, one
        # group, and unequal runs
        f = rng.normal(size=(7, 5))
        setup = BayesSetup(alpha=0.6, sigma2_noise=1.3)
        for row_group in (np.arange(7), np.zeros(7, dtype=int), np.repeat(np.arange(3), [3, 1, 3])):
            n_w = row_group.max() + 1
            w = rng.uniform(0.1, 0.9, n_w)
            grouped = DesignWeights(w, float(n_w), row_group=row_group)
            _, grad, hess = dense_objective_and_derivatives(f, grouped, setup)
            per_row = DesignWeights(w[row_group], 7.0)
            _, grad_rows, hess_rows = dense_objective_and_derivatives(f, per_row, setup)
            blocks = (row_group == np.arange(n_w)[:, None]).astype(float)
            assert_allclose(grad, blocks @ grad_rows, rtol=1e-12)
            assert_allclose(hess, blocks @ hess_rows @ blocks.T, rtol=1e-12)

    # interleaved, numbered out of row order, skipping group 1, negative
    @pytest.mark.parametrize(
        "row_group", [[0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 2, 2], [-1, -1, 0, 0]]
    )
    def test_noncontiguous_maps_rejected(self, rng, row_group):
        row_group = np.array(row_group)
        n_w = row_group.max() + 1
        with pytest.raises(ValueError):
            DesignWeights(np.full(n_w, 0.5), float(n_w), row_group=row_group)
        with pytest.raises(ValueError):
            PosteriorEngine(random_lowrank(rng, n=4, n_nodes=3), BayesSetup(alpha=1.0), row_group)

    def test_map_ending_before_the_last_weight_rejected(self):
        with pytest.raises(ValueError):
            DesignWeights(np.full(3, 0.5), 3.0, row_group=np.array([0, 0, 1, 1]))

    def test_one_row_map_accepted(self, rng):
        weights = DesignWeights(np.array([0.5]), 1.0, row_group=np.array([0]))
        assert weights.n_rows == 1
        engine = PosteriorEngine(random_lowrank(rng, n=1, n_nodes=3), BayesSetup(alpha=1.0), [0])
        assert engine.n_weights == 1 and engine.group_grams.shape[0] == 1


class TestGroupedEngine:
    # contiguous groups of unequal sizes, including singletons
    ROW_GROUP = np.repeat(np.arange(6), [3, 1, 2, 5, 1, 4])

    @pytest.mark.parametrize("criterion", ["A", "D"])
    def test_gradient_matches_dense_oracle(self, rng, criterion):
        lowrank = random_lowrank(rng, n=self.ROW_GROUP.size, n_nodes=7)
        setup = BayesSetup(alpha=0.4, sigma2_noise=1.3, criterion=criterion)
        w = rng.uniform(0.1, 0.9, 6)
        engine = PosteriorEngine(lowrank, setup, self.ROW_GROUP)
        _, deriv = engine.derivatives(w)
        weights = DesignWeights(w, 6.0, row_group=self.ROW_GROUP)
        _, grad, _ = dense_objective_and_derivatives(lowrank.dense(), weights, setup)
        assert_allclose(deriv.gradient, grad, rtol=1e-10)

    # two-time groups on more weights (200) than a 7-node surrogate's
    # rho^2 <= 49: the Hessian rows come from the rho^2 x rho^2 Gram side
    WIDE_GROUP = np.repeat(np.arange(200), 2)

    @staticmethod
    def grouped_cases(rng):
        """(lowrank, row_group): unequal groups, a tiny LIDAR problem,
        two-time groups, and two-time groups with n_w > rho^2."""
        row_group = TestGroupedEngine.ROW_GROUP
        yield random_lowrank(rng, n=row_group.size, n_nodes=7), row_group
        prob = build_lidar_problem(LidarConfig(n_d=8, n_r=3, n_x=6, n_t=2), 4.0)
        yield prob.lowrank, prob.row_group
        pair_group = np.repeat(np.arange(6), 2)
        yield random_lowrank(rng, n=pair_group.size, n_nodes=7), pair_group
        wide_group = TestGroupedEngine.WIDE_GROUP
        yield random_lowrank(rng, n=wide_group.size, n_nodes=7), wide_group

    @pytest.mark.parametrize("criterion", ["A", "D"])
    def test_exact_derivatives_match_dense_oracle(self, rng, criterion):
        for lowrank, row_group in self.grouped_cases(rng):
            n_w = int(row_group.max()) + 1
            setup = BayesSetup(alpha=0.4, sigma2_noise=1.3, criterion=criterion)
            w = rng.uniform(0.1, 0.9, n_w)
            _, deriv = PosteriorEngine(lowrank, setup, row_group).derivatives(w)
            weights = DesignWeights(w, float(n_w), row_group=row_group)
            _, grad, hess = dense_objective_and_derivatives(lowrank.dense(), weights, setup)
            h = deriv.hessian_rows.T @ deriv.hessian_rows
            assert h.shape == (n_w, n_w)
            assert np.abs(deriv.gradient - grad).max() <= 1e-10 * np.abs(grad).max()
            assert np.abs(h - hess).max() <= 1e-10 * np.abs(hess).max()
            eigs = np.linalg.eigvalsh(h)
            assert eigs.min() >= -1e-12 * eigs.max()

    def test_hessian_is_rank_sized_factor(self, rng):
        # k rows W with H = W^T W, k <= min(n_w, rho^2)
        for lowrank, row_group in self.grouped_cases(rng):
            n_w = int(row_group.max()) + 1
            rho = lowrank.input_r.shape[0]
            engine = PosteriorEngine(lowrank, BayesSetup(alpha=0.4), row_group)
            _, deriv = engine.derivatives(rng.uniform(0.1, 0.9, n_w))
            k = deriv.hessian_rows.shape[0]
            assert 0 < k <= min(n_w, rho**2)
            assert deriv.hessian_rows.shape == (k, n_w)

    def test_solve_never_decomposes_an_n_w_matrix(self, rng, monkeypatch):
        row_group = self.WIDE_GROUP
        n_w = int(row_group.max()) + 1
        lowrank = random_lowrank(rng, n=row_group.size, n_nodes=7)
        shapes = []
        eigh = np.linalg.eigh

        def recording_eigh(mat, *args, **kwargs):
            shapes.append(np.shape(mat))
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        result = solve_relaxed(lowrank, BayesSetup(alpha=0.4), 20.0, row_group=row_group)
        assert result.iterations >= 1
        assert shapes and all(shape[0] < n_w for shape in shapes)

    def test_grams_are_group_sums(self, rng):
        lowrank = random_lowrank(rng, n=self.ROW_GROUP.size, n_nodes=7)
        engine = PosteriorEngine(lowrank, BayesSetup(alpha=1.0), self.ROW_GROUP)
        rc = lowrank.input_r @ lowrank.coef_out
        cols = [rc[:, self.ROW_GROUP == k] for k in range(6)]
        grams = np.stack([ck @ ck.T for ck in cols])  # R~ G_k R~^T
        assert_allclose(engine.group_grams, grams, rtol=1e-13, atol=1e-13)

    def test_lidar_group_grams_are_rank_sized(self):
        # the p = 3 advection-diffusion kernel has rank p^2 = 9
        cfg = LidarConfig(n_d=8, n_r=3, n_x=6, n_t=2, p=3)
        prob = build_lidar_problem(cfg, 8.0)
        engine = PosteriorEngine(prob.lowrank, prob.setup, prob.row_group)
        rho = prob.lowrank.input_r.shape[0]
        assert rho <= cfg.p ** 2 < prob.lowrank.node_values.shape[1]
        assert engine.group_grams.shape == (cfg.n_d, rho, rho)

    def test_row_count_mismatch_rejected(self, rng):
        lowrank = random_lowrank(rng, n=self.ROW_GROUP.size, n_nodes=7)
        with pytest.raises(ValueError):
            PosteriorEngine(lowrank, BayesSetup(alpha=1.0), self.ROW_GROUP[:-1])


class TestCutInputFactor:
    """The engine on the cut factor R~ against one on the uncut R."""

    @staticmethod
    def cases():
        """(lowrank, row_group): Chebyshev surrogates of a Gaussian and a
        product-exponential kernel, ungrouped and in pairs of rows, and a
        grouped LIDAR problem."""
        mesh = build_mesh(RectDomain((-1.0,), (1.0,)), 40)
        for kern in (gaussian_difference_kernel(), product_exponential_kernel()):
            lowrank = build_lowrank(kern, mesh, mesh, 16)
            yield lowrank, None
            yield lowrank, np.repeat(np.arange(20), 2)
        prob = build_lidar_problem(LidarConfig(n_d=8, n_r=3, n_x=6, n_t=2), 8.0)
        yield prob.lowrank, prob.row_group

    @staticmethod
    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("criterion", ["A", "D"])
    def test_matches_uncut_factor(self, rng, criterion):
        for lowrank, row_group in self.cases():
            uncut = LowRankKernel(lowrank.coef_out, lowrank.node_values, lowrank.coef_in)
            vars(uncut)["input_r"] = uncut_input_r(lowrank)
            # every surrogate here is rank deficient: the cut drops rows
            assert lowrank.input_r.shape[0] < uncut.input_r.shape[0]
            setup = BayesSetup(alpha=0.4, sigma2_noise=1.3, criterion=criterion)
            engine = PosteriorEngine(lowrank, setup, row_group)
            reference = PosteriorEngine(uncut, setup, row_group)
            w = rng.uniform(0.1, 0.9, engine.n_weights)
            value, deriv = engine.derivatives(w)
            ref_value, ref_deriv = reference.derivatives(w)
            assert value == pytest.approx(ref_value, rel=1e-12)
            assert self.close(deriv.gradient, ref_deriv.gradient)
            h, ref_h = (d.hessian_rows.T @ d.hessian_rows for d in (deriv, ref_deriv))
            assert self.close(h, ref_h)


class TestStructuralProperties:
    def test_monotonicity(self, rng):
        lowrank = random_lowrank(rng, n=30, n_nodes=6)
        setup = BayesSetup(alpha=1.0, criterion="A")
        engine = PosteriorEngine(lowrank, setup)
        for _ in range(10):
            w = rng.uniform(0, 1, 30)
            bump = rng.uniform(0, 1, 30) * (1 - w)
            assert engine.value(w + bump) <= engine.value(w) + 1e-12

    @pytest.mark.parametrize("criterion", ["A", "D"])
    def test_midpoint_convexity(self, rng, criterion):
        lowrank = random_lowrank(rng, n=25, n_nodes=5)
        setup = BayesSetup(alpha=1.0, criterion=criterion)
        engine = PosteriorEngine(lowrank, setup)
        for _ in range(10):
            w1 = rng.uniform(0, 1, 25)
            w2 = rng.uniform(0, 1, 25)
            mid = engine.value(0.5 * (w1 + w2))
            assert mid <= 0.5 * (engine.value(w1) + engine.value(w2)) + 1e-12

    def test_spectrum_and_dense_routes_agree(self, rng):
        mesh = build_mesh(RectDomain((-1.0,), (1.0,)), 60)
        lowrank = build_lowrank(gaussian_difference_kernel(), mesh, mesh, 9)
        weights = feasible_weights(rng, 60)
        for criterion in ("A", "D"):
            setup = BayesSetup(alpha=0.05, sigma2_noise=2.0, criterion=criterion)
            via_spectrum = PosteriorEngine(lowrank, setup).value(weights.w)
            via_dense = dense_objective_value(lowrank.dense(), weights, setup)
            assert via_spectrum == pytest.approx(via_dense, rel=1e-8)


class TestIdentityFactorization:
    """A dense F runs through the engine as the exact factorization I F I;
    its value, gradient and Hessian rows match the dense oracle."""

    @staticmethod
    def draw(seed):
        """F (wide or tall, full rank or rank deficient), weights in [0, 1],
        a setup, and contiguous row groups or none."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        m = int(rng.integers(n + 1, 60)) if rng.random() < 0.5 else int(rng.integers(1, n))
        if min(n, m) > 1 and rng.random() < 0.5:
            k = int(rng.integers(1, min(n, m)))
            f = rng.normal(size=(n, k)) @ rng.normal(size=(k, m))
        else:
            f = rng.normal(size=(n, m))
        setup = BayesSetup(
            alpha=10.0 ** rng.uniform(-3.0, 0.0),
            sigma2_noise=10.0 ** rng.uniform(-6.0, 0.0),
            criterion=str(rng.choice(["A", "D"])),
        )
        row_group = None
        if rng.random() < 0.5:
            n_groups = int(rng.integers(1, n + 1))
            cuts = np.sort(rng.choice(np.arange(1, n), n_groups - 1, replace=False))
            row_group = np.repeat(np.arange(n_groups), np.diff(np.concatenate(([0], cuts, [n]))))
        n_w = n if row_group is None else n_groups
        return f, rng.uniform(0.0, 1.0, n_w), setup, row_group

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_dense_oracle(self, seed):
        f, w, setup, row_group = self.draw(seed)
        n, m = f.shape
        engine = PosteriorEngine(LowRankKernel(np.eye(n), f, np.eye(m)), setup, row_group)
        value, deriv = engine.derivatives(w)
        weights = DesignWeights(w, float(w.size), row_group=row_group)
        dense_value, dense_grad, dense_hess = dense_objective_and_derivatives(f, weights, setup)
        assert abs(value - dense_value) <= 1e-8 * abs(dense_value)
        assert engine.value(w) == value
        grad_err = np.abs(deriv.gradient - dense_grad).max()
        assert grad_err <= 1e-10 * np.abs(dense_grad).max()
        rows = deriv.hessian_rows
        hess_err = np.abs(rows.T @ rows - dense_hess).max()
        assert hess_err <= 1e-10 * np.abs(dense_hess).max()
