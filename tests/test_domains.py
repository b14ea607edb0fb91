import numpy as np
import pytest
from numpy.testing import assert_allclose

from sensorplace import (
    DiskSensorDomain,
    RectDomain,
    build_disk_mesh,
    build_mesh,
    dense_kernel_matrix,
    gaussian_difference_kernel,
    spacetime_mesh,
)
from sensorplace.domains import Kernel

from oracles import scalar_kernel, spacetime_kernel_matrix


class TestRectDomain:
    def test_bounds_and_measure(self):
        dom = RectDomain((-1.0, 0.0), (1.0, 3.0))
        assert dom.dim == 2
        assert dom.measure == pytest.approx(6.0)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            RectDomain((1.0,), (-1.0,))
        with pytest.raises(ValueError):
            RectDomain((0.0, 0.0), (1.0,))


class TestBuildMesh:
    def test_interval_two_cells(self):
        mesh = build_mesh(RectDomain((-1.0,), (1.0,)), 2)
        assert_allclose(mesh.points[:, 0], [-0.5, 0.5])
        assert mesh.cell_measure == pytest.approx(1.0)

    def test_square_two_by_two(self):
        mesh = build_mesh(RectDomain((-1.0, -1.0), (1.0, 1.0)), (2, 2))
        assert mesh.n_points == 4
        assert mesh.cell_measure == pytest.approx(1.0)

    def test_cell_measure_30(self):
        mesh = build_mesh(RectDomain((-1.0,), (1.0,)), 30)
        assert mesh.cell_measure == pytest.approx(1.0 / 15.0)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            build_mesh(RectDomain((-1.0,), (1.0,)), 0)

    def test_row_major_linearization_roundtrip(self):
        counts = (3, 4)
        mesh = build_mesh(RectDomain((0.0, 0.0), (3.0, 4.0)), counts)
        assert mesh.n_points == 12
        # flat index k = i * n1 + j must map to (axis0[i], axis1[j])
        axis0 = 0.5 + np.arange(3)
        axis1 = 0.5 + np.arange(4)
        for i in range(3):
            for j in range(4):
                k = i * 4 + j
                assert_allclose(mesh.points[k], [axis0[i], axis1[j]])


class TestDiskMesh:
    def test_single_point(self):
        mesh = build_disk_mesh(DiskSensorDomain(1, 1))
        assert mesh.n_points == 1
        assert mesh.angle[0] == pytest.approx(np.pi)
        assert np.hypot(*mesh.points[0]) == pytest.approx(0.5)

    def test_four_sector_angles(self):
        mesh = build_disk_mesh(DiskSensorDomain(4, 1))
        assert_allclose(mesh.angle, [np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4])

    def test_default_application_grouping(self):
        mesh = build_disk_mesh(DiskSensorDomain(30, 30))
        assert mesh.n_points == 900
        counts = np.bincount(mesh.sector)
        assert counts.size == 30
        assert np.all(counts == 30)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            DiskSensorDomain(0, 3)

    def test_spacetime_mesh_keeps_spatial_box(self):
        # time is sampled, not interpolated, so the box stays spatial; the
        # sector repeats per row and nothing reads a per-row angle
        disk = build_disk_mesh(DiskSensorDomain(4, 2))
        st = spacetime_mesh(disk, [0.5, 1.0, 2.0])
        assert st.angle is None
        assert np.array_equal(st.bounds, disk.bounds)
        assert np.array_equal(st.sector, np.repeat(disk.sector, 3))


class TestDenseKernelMatrix:
    def test_constant_kernel(self):
        mesh = build_mesh(RectDomain((-1.0,), (1.0,)), 2)
        kern = Kernel(lambda x, y: np.ones(np.broadcast(x, y).shape[:-1]))
        f = dense_kernel_matrix(kern, mesh, mesh)
        assert_allclose(f, np.full((2, 2), mesh.cell_measure))

    def test_product_kernel_row(self):
        out_mesh = build_mesh(RectDomain((0.5,), (1.5,)), 1)  # single point at 1.0
        in_mesh = build_mesh(RectDomain((-1.0,), (1.0,)), 2)  # -0.5, 0.5
        kern = Kernel(lambda x, y: x[..., 0] * y[..., 0])
        f = dense_kernel_matrix(kern, out_mesh, in_mesh)
        assert_allclose(f, [[-0.5, 0.5]])

    def test_matches_scalar_reevaluation(self):
        mesh = build_mesh(RectDomain((-1.0,), (1.0,)), 4)
        fast = dense_kernel_matrix(gaussian_difference_kernel(), mesh, mesh)
        slow_kernel = scalar_kernel(lambda x, y: np.exp(-((x[0] - y[0]) ** 2)))
        slow = dense_kernel_matrix(slow_kernel, mesh, mesh)
        assert_allclose(fast, slow, rtol=0, atol=1e-15)

    def test_permutation_consistency(self, rng):
        mesh = build_mesh(RectDomain((-1.0,), (1.0,)), 6)
        kern = gaussian_difference_kernel()
        f = dense_kernel_matrix(kern, mesh, mesh)
        perm = rng.permutation(6)
        permuted_mesh = type(mesh)(mesh.points[perm], mesh.cell_measure, mesh.bounds)
        f_perm = dense_kernel_matrix(kern, permuted_mesh, mesh)
        assert_allclose(f_perm, f[perm], rtol=0, atol=0)

    def test_spacetime_row_layout(self):
        spatial = build_mesh(RectDomain((-1.0,), (1.0,)), 3)
        times = np.array([0.5, 1.0])
        st = spacetime_mesh(spatial, times)
        assert st.n_points == 6
        # row i decomposes as i = i1 * n_t + i2
        for i1 in range(3):
            for i2 in range(2):
                row = st.points[i1 * 2 + i2]
                assert row[0] == spatial.points[i1, 0]
                assert row[1] == times[i2]
        kern = Kernel(lambda x, y, t: x[..., 0] + 10.0 * t)
        f = spacetime_kernel_matrix(kern, st, spatial)
        expected_col = np.array(
            [spatial.points[i1, 0] + 10.0 * times[i2] for i1 in range(3) for i2 in range(2)]
        )
        assert_allclose(f[:, 0] / spatial.cell_measure, expected_col)
        # the library's dense F is spatial only
        with pytest.raises(ValueError, match="space-time"):
            dense_kernel_matrix(kern, st, spatial)
