import numpy as np
import pytest
from numpy.testing import assert_allclose

from sensorplace import (
    DiskSensorDomain,
    LidarConfig,
    RectDomain,
    advdiff_kernel,
    advdiff_solution,
    build_disk_mesh,
    build_lidar_problem,
    build_lowrank,
    build_mesh,
    dense_kernel_matrix,
    exact_factor,
    fourier_coefficients_u0,
    reconstruct_u0,
    spacetime_mesh,
    transformed_initial_coefficients,
)
from sensorplace.lidar import dirichlet_basis, mode_table
from sensorplace.objective import BayesSetup, DesignWeights, dense_objective_and_derivatives


def sin_sin(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


class TestConfig:
    def test_defaults_match_application_constants(self):
        cfg = LidarConfig()
        assert cfg.budget == 6  # round(0.2 * 30)
        assert_allclose(cfg.times, [0.2, 0.4, 0.6, 0.8, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            LidarConfig(mu=0.0)
        with pytest.raises(ValueError):
            LidarConfig(r=0.0)
        with pytest.raises(ValueError):
            LidarConfig(p=0)
        # nan passes a plain `x <= 0` rejection test
        for bad in ({"mu": np.nan}, {"alpha": np.nan}, {"horizon": np.nan}, {"alpha": np.inf},
                    {"c1": np.nan}):
            with pytest.raises(ValueError):
                LidarConfig(**bad)


class TestModeTable:
    def test_decay_rates(self):
        table = mode_table(2, mu=3.0)
        k1sq_k2sq = table.k1**2 + table.k2**2
        assert_allclose(table.decay, 3.0 * k1sq_k2sq * np.pi**2 / 4.0)

    def test_parity_assignment_vanishes_on_boundary(self):
        # even k -> sin, odd k -> cos; both vanish at z = +-1
        ks = np.arange(1, 8)
        vals = dirichlet_basis(ks, np.array([[1.0], [-1.0]]))
        assert np.abs(vals).max() < 1e-15

    def test_orthonormal_family(self):
        nodes, wts = np.polynomial.legendre.leggauss(40)
        ks = np.arange(1, 6)
        basis = dirichlet_basis(ks[:, None], nodes[None, :])
        gram = (basis * wts[None, :]) @ basis.T
        assert_allclose(gram, np.eye(5), atol=1e-12)


class TestKernel:
    def test_eigenmode_decay_exact(self):
        cfg = LidarConfig(c1=0.0, c2=0.0, mu=1.3, p=3)
        coeffs = np.zeros((3, 3))
        coeffs[1, 1] = 1.0  # mode (2, 2): sin(pi x) sin(pi y)
        pts = np.array([[0.3, -0.4], [0.05, 0.6], [-0.7, 0.1]])
        t = 0.45
        u = advdiff_solution(cfg, coeffs, pts, t)
        rate = 1.3 * (4 + 4) * np.pi**2 / 4.0
        assert_allclose(u, np.exp(-rate * t) * sin_sin(pts[:, 0], pts[:, 1]), rtol=0, atol=1e-15)

    def test_truncated_delta_at_time_zero(self):
        # applying the t=0, c=0 kernel to a field made of retained modes
        # reproduces the field (Gauss-Legendre quadrature in y)
        cfg = LidarConfig(c1=0.0, c2=0.0, p=4)
        kern = advdiff_kernel(cfg)
        nodes, wts = np.polynomial.legendre.leggauss(40)
        yg1, yg2 = np.meshgrid(nodes, nodes, indexing="ij")
        y_pts = np.column_stack([yg1.ravel(), yg2.ravel()])
        wq = np.outer(wts, wts).ravel()

        def u0(x, y):
            return sin_sin(x, y) + 0.5 * np.cos(np.pi * x / 2.0) * np.cos(np.pi * y / 2.0)

        x_pts = np.array([[0.25, -0.35], [0.6, 0.1]])
        vals = kern(x_pts[:, None, :], y_pts[None, :, :], np.zeros((2, 1)))
        integral = vals @ (wq * u0(y_pts[:, 0], y_pts[:, 1]))
        assert_allclose(integral, u0(x_pts[:, 0], x_pts[:, 1]), atol=1e-12)

    def test_axis_symmetry_when_c2_zero(self, rng):
        cfg = LidarConfig(c1=0.4, c2=0.0, p=3)
        kern = advdiff_kernel(cfg)
        x = rng.uniform(-1, 1, (20, 2))
        y = rng.uniform(-1, 1, (20, 2))
        t = rng.uniform(0.1, 1.0, 20)
        flip = np.array([1.0, -1.0])
        assert_allclose(kern(x, y, t), kern(x * flip, y * flip, t), rtol=1e-13)

    def test_boundary_compliance(self):
        cfg = LidarConfig()
        kern = advdiff_kernel(cfg)
        edge = np.array([[1.0, 0.3], [-1.0, 0.2], [0.4, 1.0], [0.9, -1.0]])
        inner = np.tile([[0.2, 0.1]], (4, 1))
        vals = kern(edge, inner, np.full(4, 0.5))
        assert np.abs(vals).max() < 1e-14


class TestSpacetimeF:
    def test_single_time_reduces_to_spatial_matrix(self):
        cfg = LidarConfig(n_t=1, horizon=0.7, n_d=4, n_r=2, n_x=3)
        disk = build_disk_mesh(DiskSensorDomain(4, 2))
        grid = build_mesh(RectDomain((-1.0, -1.0), (1.0, 1.0)), (3, 3))
        f = exact_factor(cfg, disk, grid).dense()
        spatial = dense_kernel_matrix(advdiff_kernel(cfg), spacetime_mesh(disk, [0.7]), grid)
        assert_allclose(f, spatial, rtol=1e-12, atol=1e-15)
        assert f.shape[0] == 8

    def test_row_layout_and_groups(self):
        cfg = LidarConfig(n_d=2, n_r=1, n_t=2, n_x=2)
        disk = build_disk_mesh(DiskSensorDomain(2, 1))
        grid = build_mesh(RectDomain((-1.0, -1.0), (1.0, 1.0)), (2, 2))
        f = exact_factor(cfg, disk, grid).dense()
        assert f.shape == (4, 4)
        assert_allclose(spacetime_mesh(disk, cfg.times).sector, [0, 0, 1, 1])
        kern = advdiff_kernel(cfg)
        dy = grid.cell_measure
        for loc in range(2):
            for s, t in enumerate(cfg.times):
                expected = kern(disk.points[loc][None, :], grid.points, np.full(4, t)) * dy
                assert_allclose(f[loc * 2 + s], expected, rtol=1e-12)

    def test_matches_generic_evaluator_path(self):
        cfg = LidarConfig(n_d=5, n_r=3, n_t=2, n_x=4)
        disk = build_disk_mesh(DiskSensorDomain(5, 3))
        grid = build_mesh(RectDomain((-1.0, -1.0), (1.0, 1.0)), (4, 4))
        fast = exact_factor(cfg, disk, grid).dense()
        generic = dense_kernel_matrix(advdiff_kernel(cfg), spacetime_mesh(disk, cfg.times), grid)
        assert_allclose(fast, generic, rtol=1e-12, atol=1e-16)

    def test_source_independence_bit_identical(self):
        cfg = LidarConfig(n_d=6, n_r=2, n_t=3, n_x=4)
        disk = build_disk_mesh(DiskSensorDomain(6, 2))
        grid = build_mesh(RectDomain((-1.0, -1.0), (1.0, 1.0)), (4, 4))
        f1 = exact_factor(cfg, disk, grid).dense()
        f2 = exact_factor(cfg, disk, grid).dense()
        assert np.array_equal(f1, f2)
        # the source changes the observable field but never enters F
        coeffs = transformed_initial_coefficients(cfg, sin_sin)
        pts = np.array([[0.3, 0.2]])
        with_source = advdiff_solution(
            cfg, coeffs, pts, 0.5, source_modes=lambda s: np.full((cfg.p, cfg.p), 2.0)
        )
        without = advdiff_solution(cfg, coeffs, pts, 0.5)
        assert np.abs(with_source - without).max() > 1e-8

    def test_group_gradient_matches_replicated_dense_oracle(self, rng):
        cfg = LidarConfig(n_d=4, n_r=2, n_t=5, n_x=3)
        disk = build_disk_mesh(DiskSensorDomain(4, 2))
        grid = build_mesh(RectDomain((-1.0, -1.0), (1.0, 1.0)), (3, 3))
        f = exact_factor(cfg, disk, grid).dense()
        row_group = spacetime_mesh(disk, cfg.times).sector
        setup = BayesSetup(alpha=0.1)
        w = rng.uniform(0.2, 0.9, 4)
        _, grad, _ = dense_objective_and_derivatives(
            f, DesignWeights(w, 4.0, row_group=row_group), setup
        )
        _, grad_rows, _ = dense_objective_and_derivatives(
            f, DesignWeights(w[row_group], float(row_group.size)), setup
        )
        expected = np.array([grad_rows[row_group == k].sum() for k in range(4)])
        assert_allclose(grad, expected, rtol=1e-12)


class TestExactFactor:
    def test_factor_shapes(self):
        cfg = LidarConfig(n_d=5, n_r=3, n_t=2, n_x=4, p=2)
        disk = build_disk_mesh(DiskSensorDomain(5, 3))
        grid = build_mesh(RectDomain((-1.0, -1.0), (1.0, 1.0)), (4, 4))
        factor = exact_factor(cfg, disk, grid)
        np.testing.assert_array_equal(factor.node_values, np.eye(4))
        assert factor.coef_space.shape == (4, 5 * 3 * 2)
        assert factor.coef_in.shape == (4, 16)
        assert factor.n_times == 1

    @pytest.mark.parametrize("criterion, changes", [
        ("A", {}),
        ("D", {"c1": 0.5, "c2": -0.3, "alpha": 0.05}),
    ])
    def test_engine_input_matches_identity_route(self, criterion, changes):
        # the factor runs through the grouped engine as it is; its dense()
        # runs as the exact factorization I F I
        from sensorplace import SqpConfig, solve_relaxed

        cfg = LidarConfig(n_d=8, n_r=4, n_x=6, n_t=3, **changes)
        prob = build_lidar_problem(cfg, node_constant=4.0, criterion=criterion)
        np.testing.assert_array_equal(prob.exact.node_values, np.eye(cfg.p**2))
        config = SqpConfig(epsilon=1e-8)
        budget = float(prob.budget)
        factor = solve_relaxed(prob.exact, prob.setup, budget, config, row_group=prob.row_group)
        dense = solve_relaxed(prob.exact.dense(), prob.setup, budget, config,
                              row_group=prob.row_group)
        assert factor.status == dense.status
        assert factor.iterations == dense.iterations
        assert_allclose(factor.weights.w, dense.weights.w, rtol=0, atol=1e-10)
        assert_allclose(factor.objective_trace[-1], dense.objective_trace[-1], rtol=1e-12)

    def test_exact_check_beyond_dense_limit(self):
        # the default design's F (4,500 x 900) exceeds the CLI's dense limit;
        # on the factor the surrogate design still gets an exact score
        from sensorplace import SqpConfig, initial_point, shared_engine, solve_relaxed
        from sensorplace.cli import DENSE_MAX_N

        prob = build_lidar_problem(LidarConfig(), node_constant=8.0)
        assert prob.exact.n_rows > DENSE_MAX_N
        budget = float(prob.budget)
        cheb = solve_relaxed(prob.lowrank, prob.setup, budget, row_group=prob.row_group)
        exact = solve_relaxed(prob.exact, prob.setup, budget,
                              SqpConfig(epsilon=1e-9, max_outer=300), row_group=prob.row_group)
        phi = shared_engine(prob.exact, prob.setup, prob.row_group).value
        start = initial_point(cheb.weights.n_weights, budget).w
        best = phi(exact.weights.w)
        loss = (phi(cheb.weights.w) - best) / (phi(start) - best)
        assert loss <= 1e-3


class TestFourierCoefficients:
    def test_single_mode_projection(self):
        coeffs = fourier_coefficients_u0(sin_sin, 3)
        expected = np.zeros((3, 3))
        expected[1, 1] = 1.0
        assert_allclose(coeffs, expected, atol=1e-14)

    def test_zero_field(self):
        coeffs = fourier_coefficients_u0(lambda x, y: np.zeros_like(x), 4)
        assert_allclose(coeffs, np.zeros((4, 4)))

    def test_two_mode_field(self):
        def u0(x, y):
            return sin_sin(x, y) + 0.3 * np.cos(np.pi * x / 2.0) * np.cos(np.pi * y / 2.0)

        coeffs = fourier_coefficients_u0(u0, 2)
        expected = np.array([[0.3, 0.0], [0.0, 1.0]])
        assert_allclose(coeffs, expected, atol=1e-14)


class TestReconstruction:
    def grid(self):
        xs = np.linspace(-1.0, 1.0, 61)
        return np.meshgrid(xs, xs, indexing="ij")

    def test_exact_above_cutoff(self):
        gx, gy = self.grid()
        for p in (2, 3):
            coeffs = fourier_coefficients_u0(sin_sin, p)
            rec = reconstruct_u0(coeffs, gx, gy)
            rel = np.linalg.norm(rec - sin_sin(gx, gy)) / np.linalg.norm(sin_sin(gx, gy))
            assert rel < 1e-8

    def test_truncated_to_zero_below_cutoff(self):
        gx, gy = self.grid()
        coeffs = fourier_coefficients_u0(sin_sin, 1)
        assert np.abs(reconstruct_u0(coeffs, gx, gy)).max() < 1e-14

    def test_stable_between_p3_and_p5(self):
        gx, gy = self.grid()
        norm = np.linalg.norm(sin_sin(gx, gy))
        errs = {}
        for p in (3, 5):
            coeffs = fourier_coefficients_u0(sin_sin, p)
            errs[p] = np.linalg.norm(reconstruct_u0(coeffs, gx, gy) - sin_sin(gx, gy)) / norm
        assert abs(errs[3] - errs[5]) < 1e-6


class TestSolutionWithSource:
    def test_constant_source_closed_form(self):
        cfg = LidarConfig(c1=0.0, c2=0.0, mu=0.8, p=2)
        table = mode_table(2, 0.8)
        coeffs = np.zeros((2, 2))
        amp = 1.7

        def source(s):
            out = np.zeros((2, 2))
            out[1, 1] = amp
            return out

        pts = np.array([[0.2, 0.3], [0.5, -0.5]])
        t = 0.6
        u = advdiff_solution(cfg, coeffs, pts, t, source_modes=source)
        k_idx = np.where((table.k1 == 2) & (table.k2 == 2))[0][0]
        rate = table.decay[k_idx]
        duhamel = amp * (1.0 - np.exp(-rate * t)) / rate
        assert_allclose(u, duhamel * sin_sin(pts[:, 0], pts[:, 1]), rtol=1e-10)


class TestBuildLidarProblem:
    def test_assembly_shapes(self):
        cfg = LidarConfig(n_d=8, n_r=4, n_x=6, n_t=3)
        prob = build_lidar_problem(cfg, node_constant=4.0)
        assert prob.lowrank.n_rows == 8 * 4 * 3
        assert prob.lowrank.n_cols == 36
        assert prob.row_group.size == prob.lowrank.n_rows
        assert prob.sector_angles.size == 8
        assert prob.setup.alpha == cfg.alpha
        # the exact factor is built on first access, never by the assembly
        assert "exact" not in vars(prob)
        assert prob.exact.dense().shape == (96, 36)
        # the row map is the dense F's location-major, time-minor layout, and
        # the angles are the beam midlines 2 pi (k + 1/2) / n_d, to the bit
        np.testing.assert_array_equal(prob.row_group, np.repeat(np.arange(8), 4 * 3))
        np.testing.assert_array_equal(prob.row_group,
                                      spacetime_mesh(prob.disk_mesh, cfg.times).sector)
        np.testing.assert_array_equal(prob.sector_angles, 2.0 * np.pi * (np.arange(8) + 0.5) / 8)

    def test_builds_no_spacetime_mesh(self, monkeypatch):
        # the surrogate is built from the disk mesh and the times; no
        # space-time mesh is built, under either name it is looked up by
        import sensorplace.domains as domains_module
        import sensorplace.lidar as lidar_module

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return spacetime_mesh(*args, **kwargs)

        monkeypatch.setattr(domains_module, "spacetime_mesh", counting)
        monkeypatch.setattr(lidar_module, "spacetime_mesh", counting)
        build_lidar_problem(LidarConfig(n_d=6, n_r=3, n_x=4, n_t=4), node_constant=4.0)
        assert calls == []

    def test_empty_times_rejected(self):
        cfg = LidarConfig(n_d=6, n_r=3, n_x=4)
        disk = build_disk_mesh(DiskSensorDomain(6, 3))
        grid = build_mesh(RectDomain((-1.0, -1.0), (1.0, 1.0)), (4, 4))
        with pytest.raises(ValueError, match="measurement time"):
            build_lowrank(advdiff_kernel(cfg), disk, grid, 30, times=[])

    def test_design_path_never_forms_coef_out(self):
        # grouped designs read the output coefficients only through
        # coef_space; the N_out x n_rows matrix stays unformed
        from sensorplace import SqpConfig, angular_plan, integrality_gap, solve_relaxed, sum_up_round

        prob = build_lidar_problem(LidarConfig(n_d=12, n_r=6, n_x=8, n_t=3), node_constant=8.0)
        lowrank = prob.lowrank
        res = solve_relaxed(lowrank, prob.setup, float(prob.budget), SqpConfig(epsilon=1e-6),
                            row_group=prob.row_group)
        w_int = sum_up_round(res.weights, angular_plan(prob.sector_angles))
        integrality_gap(lowrank, prob.setup, res.weights, w_int)
        assert res.iterations >= 1
        assert "coef_out" not in vars(lowrank)

    def test_surrogate_design_near_dense_oracle(self):
        # the exact-derivative dense solve can do no worse than 1e-3 below
        # the surrogate design when both are scored with the full matrix
        from sensorplace import SqpConfig, dense_objective_value, solve_relaxed

        cfg = LidarConfig(n_d=12, n_r=12, n_x=12)
        prob = build_lidar_problem(cfg, node_constant=8.0)
        surro = solve_relaxed(
            prob.lowrank, prob.setup, float(prob.budget),
            SqpConfig(epsilon=1e-3), row_group=prob.row_group,
        )
        f = prob.exact.dense()
        oracle = solve_relaxed(
            f, prob.setup, float(prob.budget),
            SqpConfig(epsilon=1e-8), row_group=prob.row_group,
        )
        surro_dense_value = dense_objective_value(f, surro.weights, prob.setup)
        assert oracle.objective_trace[-1] <= surro_dense_value + 1e-3
