import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sensorplace import (
    DiskSensorDomain,
    Kernel,
    LidarConfig,
    RectDomain,
    advdiff_kernel,
    build_disk_mesh,
    build_lidar_problem,
    build_lowrank,
    build_mesh,
    chebyshev_nodes,
    dense_kernel_matrix,
    gaussian_difference_kernel,
    lagrange_coefficients,
    lebesgue_constant,
    node_budget,
    nodes_per_axis,
    spacetime_mesh,
)
from sensorplace import chebyshev
from sensorplace.chebyshev import Grid1D, coefficient_matrix
from sensorplace.gram import FACTOR_CUT
from oracles import lagrange_product, spacetime_kernel_matrix

intervals = st.tuples(st.floats(-10.0, 10.0), st.floats(0.1, 10.0))
fractions = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30)


def assert_matches_product(grid, xs, rtol):
    got = lagrange_coefficients(grid, xs)
    want = lagrange_product(grid.nodes, xs)
    assert np.abs(got - want).max() <= rtol * max(1.0, np.abs(want).max())
    # exact unit vectors at the nodes
    assert np.array_equal(lagrange_coefficients(grid, grid.nodes), np.eye(grid.nodes.size))


class TestNodes:
    def test_two_nodes(self):
        assert_allclose(chebyshev_nodes(2).nodes, [1.0, -1.0])

    def test_three_nodes(self):
        assert_allclose(chebyshev_nodes(3).nodes, [1.0, 0.0, -1.0], atol=1e-16)

    def test_five_nodes(self):
        s = np.sqrt(2.0) / 2.0
        assert_allclose(chebyshev_nodes(5).nodes, [1.0, s, 0.0, -s, -1.0], atol=1e-16)

    def test_descending(self):
        nodes = chebyshev_nodes(17).nodes
        assert np.all(np.diff(nodes) < 0)

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            chebyshev_nodes(1)


class TestLagrangeCoefficients:
    def test_cardinality_at_nodes(self):
        grid = chebyshev_nodes(7)
        for p, node in enumerate(grid.nodes):
            coef = lagrange_coefficients(grid, node)
            expected = np.zeros(7)
            expected[p] = 1.0
            assert_allclose(coef, expected, atol=0)

    def test_linear_midpoint(self):
        assert_allclose(lagrange_coefficients(chebyshev_nodes(2), 0.0), [0.5, 0.5])

    def test_quadratic_hand_values(self):
        # nodes (1, 0, -1); basis evaluated at x = 0.5 by hand
        coef = lagrange_coefficients(chebyshev_nodes(3), 0.5)
        assert_allclose(coef, [0.375, 0.75, -0.125])

    def test_partition_of_unity(self, rng):
        grid = chebyshev_nodes(11)
        xs = rng.uniform(-1, 1, 64)
        coef = lagrange_coefficients(grid, xs)
        assert_allclose(coef.sum(axis=0), np.ones(64), atol=1e-12)

    def test_sample_grid_exact_at_samples(self):
        grid = Grid1D(np.array([0.2, 0.4, 0.9]))
        assert_allclose(lagrange_coefficients(grid, 0.4), [0.0, 1.0, 0.0], atol=0)


class TestBarycentricAgainstProduct:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 60), intervals, fractions)
    def test_chebyshev_grids(self, n, interval, fracs):
        lo, width = interval
        grid = chebyshev_nodes(n, lo, lo + width)
        xs = np.concatenate([lo + width * np.asarray(fracs), grid.nodes])
        assert_matches_product(grid, xs, 1e-13)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
                st.permutations(range(n)),
            )
        ),
        intervals,
        fractions,
    )
    def test_sample_grids(self, layout, interval, fracs):
        # node i sits in cell i of N equal cells, at most 3/4 of a cell in,
        # so neighbouring nodes are at least (hi - lo)/(4N) apart
        offsets, order = layout
        lo, width = interval
        n = len(offsets)
        cell = width / n
        nodes = lo + cell * (np.arange(n) + 0.75 * np.asarray(offsets))
        grid = Grid1D(nodes[list(order)])
        xs = np.concatenate([lo + width * np.asarray(fracs), grid.nodes])
        assert_matches_product(grid, xs, 1e-11)


class TestTensorCoefficients:
    def test_unit_vector_at_tensor_node(self):
        grids = (chebyshev_nodes(3), chebyshev_nodes(4))
        point = (grids[0].nodes[1], grids[1].nodes[2])
        coef = coefficient_matrix(grids, [point])[:, 0]
        expected = np.zeros(12)
        expected[1 * 4 + 2] = 1.0
        assert_allclose(coef, expected, atol=0)

    def test_center_of_two_by_two(self):
        grids = (chebyshev_nodes(2), chebyshev_nodes(2))
        assert_allclose(coefficient_matrix(grids, [(0.0, 0.0)])[:, 0], np.full(4, 0.25))

    def test_outer_product_composition(self, rng):
        grids = (chebyshev_nodes(3), chebyshev_nodes(3))
        point = (0.5, -0.5)
        c0 = lagrange_coefficients(grids[0], 0.5)
        c1 = lagrange_coefficients(grids[1], -0.5)
        assert_allclose(coefficient_matrix(grids, [point])[:, 0], np.outer(c0, c1).ravel())

    def test_sum_to_one(self, rng):
        grids = (chebyshev_nodes(4), chebyshev_nodes(5))
        pts = rng.uniform(-1, 1, (10, 2))
        mat = coefficient_matrix(grids, pts)
        assert_allclose(mat.sum(axis=0), np.ones(10), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            coefficient_matrix((chebyshev_nodes(3),), [(0.1, 0.2)])


class TestBuildLowRank:
    def test_polynomial_exactness(self):
        mesh = build_mesh(RectDomain((-1.0,), (1.0,)), 20)
        kern = Kernel(lambda x, y: (x[..., 0] ** 3 - x[..., 0]) * (2.0 * y[..., 0] ** 2 + 1.0))
        dense = dense_kernel_matrix(kern, mesh, mesh)
        lowrank = build_lowrank(kern, mesh, mesh, 4)
        assert_allclose(lowrank.dense(), dense, rtol=1e-10, atol=1e-14)

    def test_constant_kernel_partition_of_unity(self):
        mesh = build_mesh(RectDomain((-1.0,), (1.0,)), 9)
        kern = Kernel(lambda x, y: np.ones(np.broadcast(x, y).shape[:-1]))
        lowrank = build_lowrank(kern, mesh, mesh, 5)
        assert_allclose(lowrank.dense(), np.full((9, 9), mesh.cell_measure), atol=1e-12)

    def test_geometric_decay_for_analytic_kernel(self):
        mesh = build_mesh(RectDomain((-1.0,), (1.0,)), 40)
        kern = Kernel(lambda x, y: np.exp(x[..., 0] + y[..., 0]))
        dense = dense_kernel_matrix(kern, mesh, mesh)
        errs = []
        for n_each in (4, 8):
            lowrank = build_lowrank(kern, mesh, mesh, n_each)
            errs.append(np.abs(lowrank.dense() - dense).max())
        assert errs[1] < errs[0] / 2.0

    def test_input_r_is_sized_by_input_rank(self):
        # R^T R = B^T B for B = coef_in^T node_values^T, with R's row count
        # the numerical rank of B at FACTOR_CUT: fewer points than nodes,
        # more points than nodes, and a space-time LIDAR surrogate with
        # N_in < N_out
        kern = gaussian_difference_kernel()
        cases = [build_lowrank(kern, mesh, mesh, 9)
                 for mesh in (build_mesh(RectDomain((-1.0,), (1.0,)), n) for n in (6, 40))]
        cases.append(build_lidar_problem(LidarConfig(n_d=8, n_r=4, n_x=6, n_t=3), 4.0).lowrank)
        for lowrank in cases:
            b = lowrank.coef_in.T @ lowrank.node_values.T
            s = np.linalg.svd(b, compute_uv=False)
            rank = int(np.count_nonzero(s > FACTOR_CUT * s[0]))
            assert lowrank.input_r.shape == (rank, lowrank.node_values.shape[0])
            btb = b.T @ b
            gram = lowrank.input_r.T @ lowrank.input_r
            assert np.abs(gram - btb).max() <= 1e-12 * np.abs(btb).max()

    def test_affine_mapping_offcenter_domain(self):
        out_mesh = build_mesh(RectDomain((2.0,), (5.0,)), 15)
        in_mesh = build_mesh(RectDomain((-3.0,), (-1.0,)), 12)
        kern = Kernel(lambda x, y: np.exp(-0.3 * (x[..., 0] - y[..., 0]) ** 2))
        dense = dense_kernel_matrix(kern, out_mesh, in_mesh)
        lowrank = build_lowrank(kern, out_mesh, in_mesh, 14)
        assert np.abs(lowrank.dense() - dense).max() < 1e-9

    def test_rank_within_node_count(self):
        mesh = build_mesh(RectDomain((-1.0,), (1.0,)), 30)
        lowrank = build_lowrank(gaussian_difference_kernel(), mesh, mesh, 6)
        fs = lowrank.dense()
        assert np.linalg.matrix_rank(fs, tol=1e-10) <= min(lowrank.node_values.shape) == 6

    def test_same_mesh_builds_coefficients_once(self, monkeypatch):
        calls = []

        def counting(grids, points):
            calls.append(len(points))
            return coefficient_matrix(grids, points)

        monkeypatch.setattr(chebyshev, "coefficient_matrix", counting)
        mesh = build_mesh(RectDomain((-1.0,), (1.0,)), 30)
        lowrank = build_lowrank(gaussian_difference_kernel(), mesh, mesh, 6)
        assert lowrank.coef_in is lowrank.coef_out
        assert calls == [30]
        # a LIDAR problem's disk and its input grid still get one each; the
        # output call sees the n_s = n_d * n_r locations, not n_s * n_t rows
        calls.clear()
        prob = build_lidar_problem(LidarConfig(n_d=4, n_r=2, n_t=2, n_x=3), 2.0)
        assert calls == [4 * 2, 3 * 3]
        assert prob.lowrank.coef_in is not prob.lowrank.coef_out


def _disk_times(n_t):
    return build_disk_mesh(DiskSensorDomain(6, 3)), np.linspace(0.5, 2.0, n_t)


class TestSpaceTimeFactors:
    """coef_out = coef_space kron I_{n_t} over the location-major rows of
    ``spacetime_mesh``, the reference layout."""

    @pytest.mark.parametrize("n_t", [1, 5])
    def test_coef_out_equals_full_coefficient_matrix(self, n_t):
        disk, times = _disk_times(n_t)
        grid = build_mesh(RectDomain((-1.0, -1.0), (1.0, 1.0)), 4)
        budget = 30
        lowrank = build_lowrank(advdiff_kernel(LidarConfig(n_t=n_t)), disk, grid, budget, times)
        # the grids of the dense route: the spatial Chebyshev grids, with
        # the budget split as if several times were one more axis, and the
        # measurement times themselves as the time axis's nodes, over the
        # rows of the space-time mesh
        stm = spacetime_mesh(disk, times)
        each = nodes_per_axis(budget, 2 + (n_t > 1))
        grids = [chebyshev_nodes(each, lo, hi) for lo, hi in disk.bounds]
        grids.append(Grid1D(times))
        assert "coef_out" not in vars(lowrank)
        assert lowrank.n_rows == stm.n_points
        assert lowrank.node_values.shape[0] == each**2 * n_t
        assert np.array_equal(lowrank.coef_out, coefficient_matrix(grids, stm.points))
        with pytest.raises(AttributeError):
            lowrank.coef_out = lowrank.coef_space

    @pytest.mark.parametrize("n_t", [1, 2, 5, 7])
    def test_exact_in_time(self, n_t):
        # a kernel that is constant in x and linear in y is reproduced by
        # the spatial grids; exp(-40 t) is reproduced only by sampling time
        # at the measurement times, not by interpolating it between them
        disk, times = _disk_times(n_t)
        grid = build_mesh(RectDomain((-1.0, -1.0), (1.0, 1.0)), 4)
        kern = Kernel(lambda x, y, t: np.exp(-40.0 * t) * (1.0 + y[..., 0]))
        want = spacetime_kernel_matrix(kern, spacetime_mesh(disk, times), grid)
        got = build_lowrank(kern, disk, grid, 30, times).dense()
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_row_count_must_be_a_multiple(self):
        # n_t is node_values' rows over coef_space's; a remainder is no n_t
        with pytest.raises(ValueError, match="multiple"):
            chebyshev.LowRankKernel(np.ones((4, 6)), np.ones((6, 3)), np.ones((3, 5)))
        assert chebyshev.LowRankKernel(np.ones((2, 6)), np.ones((6, 3)), np.ones((3, 5))).n_rows == 18

    def test_factor_product_matches_coef_out(self, rng):
        disk, times = _disk_times(5)
        grid = build_mesh(RectDomain((-1.0, -1.0), (1.0, 1.0)), 4)
        line = build_mesh(RectDomain((-1.0,), (1.0,)), 40)
        cases = [build_lowrank(advdiff_kernel(LidarConfig(n_t=5)), disk, grid, 30, times),
                 build_lowrank(gaussian_difference_kernel(), line, line, 8)]
        for lowrank in cases:
            m = rng.normal(size=(7, lowrank.node_values.shape[0]))
            got = lowrank.mul_coef_out(m)
            want = m @ lowrank.coef_out
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestNodeBudget:
    def test_budget_formula(self):
        assert node_budget(8.0, 900) == int(np.ceil(8.0 * np.log(900.0)))
        assert node_budget(1.0, 2) == 2

    def test_nodes_per_axis(self):
        assert nodes_per_axis(9, 2) == 3
        assert nodes_per_axis(7, 3) == 2
        assert nodes_per_axis(2, 1) == 2
        assert nodes_per_axis(1, 2) == 2  # floor of 2 per axis


class TestLebesgueConstant:
    def test_two_nodes_is_one(self):
        assert lebesgue_constant(chebyshev_nodes(2), 2001) == pytest.approx(1.0)

    def test_upper_bound(self):
        # The classical upper bound (2/pi) log N + 1 holds for these nodes;
        # the matching lower bracket belongs to the other node family and
        # does not (see the decisions ledger).
        for n in (5, 10, 20, 50, 100):
            est = lebesgue_constant(chebyshev_nodes(n), 20001)
            assert est <= 2.0 / np.pi * np.log(n) + 1.0 + 1e-6

    def test_growth(self):
        vals = [lebesgue_constant(chebyshev_nodes(n), 5001) for n in (3, 6, 12, 24)]
        assert np.all(np.diff(vals) > 0)

    def test_sample_count_floor(self):
        with pytest.raises(ValueError):
            lebesgue_constant(chebyshev_nodes(4), 10)
