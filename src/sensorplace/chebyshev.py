"""Chebyshev nodes, Lagrange coefficients, and the low-rank kernel surrogate.

The surrogate replaces a kernel matrix F (n x m, F[i, j] = f(x_i, y_j) * dy)
by F_s = C_out^T Ftilde C_in, where Ftilde holds kernel values at
interpolation-node pairs and the coefficient matrices hold the Lagrange
basis values of every mesh point.  Nodes per axis scale like O(log n), so
F_s has rank O(log n) and storage O(n log n).

Space-time output meshes treat time as one more tensor axis: Chebyshev
nodes span the measurement window, and the per-row coefficient vector is
the product of spatial and temporal Lagrange coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domains import Kernel, MeshedDomain

__all__ = [
    "ChebyshevGrid1D",
    "SampleGrid1D",
    "LowRankKernel",
    "chebyshev_nodes",
    "lagrange_coefficients",
    "tensor_coefficients",
    "coefficient_matrix",
    "build_lowrank",
    "node_budget",
    "nodes_per_axis",
    "lebesgue_constant",
]


@dataclass(frozen=True)
class ChebyshevGrid1D:
    """Chebyshev interpolation nodes cos(pi*(i-1)/(N-1)) on [-1, 1]."""

    n_nodes: int
    nodes: np.ndarray

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError("need at least 2 Chebyshev nodes")


@dataclass(frozen=True)
class SampleGrid1D:
    """Interpolation on an arbitrary set of distinct nodes.

    Used for the time axis of space-time kernels: taking the measurement
    times as nodes makes interpolation exact there (coefficients reduce to
    unit vectors).  Nodes live in physical coordinates, no affine map.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "nodes", nodes)
        if nodes.size < 1:
            raise ValueError("need at least one node")
        if np.unique(nodes).size != nodes.size:
            raise ValueError("nodes must be distinct")

    @property
    def n_nodes(self) -> int:
        return self.nodes.size


def chebyshev_nodes(n_nodes: int) -> ChebyshevGrid1D:
    """Nodes x_i = cos(pi*(i-1)/(N-1)), i = 1..N, descending from 1 to -1."""
    if n_nodes < 2:
        raise ValueError("n_nodes must be >= 2 (formula divides by N - 1)")
    i = np.arange(n_nodes)
    return ChebyshevGrid1D(n_nodes, np.cos(np.pi * i / (n_nodes - 1)))


def lagrange_coefficients(grid, x) -> np.ndarray:
    """Lagrange basis values l_p(x) = prod_{k!=p} (x - x_k)/(x_p - x_k).

    ``x`` may be a scalar or 1-D array; the result has shape (N,) or
    (N, len(x)).  Columns sum to 1 (partition of unity) and evaluation at
    a node returns the exact unit vector.
    """
    nodes = grid.nodes
    n = nodes.size
    xs = np.atleast_1d(np.asarray(x, dtype=float))
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
    if np.ndim(x) == 0:
        return coef[:, 0]
    return coef


def _to_reference(x, lo, hi):
    x = np.asarray(x, dtype=float)
    if lo == -1.0 and hi == 1.0:  # float identity; keeps node cardinality exact
        return x
    return 2.0 * (x - lo) / (hi - lo) - 1.0


def _axis_coefficients(grid, x, interval) -> np.ndarray:
    # Chebyshev grids live on [-1, 1] and need the affine map; sample grids
    # hold physical nodes.
    if isinstance(grid, ChebyshevGrid1D):
        return lagrange_coefficients(grid, _to_reference(x, *interval))
    return lagrange_coefficients(grid, x)


def coefficient_matrix(grids, points, bounds) -> np.ndarray:
    """Tensor-product coefficient matrix, one column per mesh point.

    ``grids`` is one grid per axis, ``points`` is (n, d), and ``bounds``
    (d, 2) gives the axis intervals mapped onto [-1, 1] for Chebyshev
    axes.  The row for the multi-index (k_0, ..., k_{d-1}) sits at the
    row-major flat index, matching the mesh linearization.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    if d != len(grids):
        raise ValueError("point dimension must match the number of grids")
    mat = _axis_coefficients(grids[0], points[:, 0], bounds[0])
    for ax in range(1, d):
        nxt = _axis_coefficients(grids[ax], points[:, ax], bounds[ax])
        mat = (mat[:, None, :] * nxt[None, :, :]).reshape(-1, n)
    return mat


def tensor_coefficients(grids, point) -> np.ndarray:
    """Coefficient vector of one point in reference coordinates.

    Entry at the row-major flat index (k_0, ..., k_{d-1}) is the product
    of the per-axis Lagrange coefficients; entries sum to 1.
    """
    point = np.atleast_1d(np.asarray(point, dtype=float))
    if point.size != len(grids):
        raise ValueError("point dimension must match the number of grids")
    ref = np.repeat([[-1.0, 1.0]], point.size, axis=0)
    return coefficient_matrix(grids, point[None, :], ref)[:, 0]


def node_budget(constant: float, n: int) -> int:
    """Target node count N = ceil(c * log(n)), at least 2."""
    if n < 2:
        return 2
    return max(2, math.ceil(constant * math.log(n)))


def nodes_per_axis(total: int, dim: int) -> int:
    """Per-axis count from a total budget: max(2, ceil(total**(1/dim)))."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    per = math.ceil(total ** (1.0 / dim) - 1e-12)
    return max(2, per)


@dataclass(frozen=True, eq=False)
class LowRankKernel:
    """Low-rank surrogate F_s = coef_out^T node_values coef_in.

    ``node_values[p, q]`` is the kernel at output node p and input node q
    times the input cell measure; ``coef_out``/``coef_in`` hold tensor
    Lagrange coefficients of the output/input mesh points, so
    F_s[i, j] interpolates f at (x_i, y_j) times dy.
    """

    coef_out: np.ndarray
    node_values: np.ndarray
    coef_in: np.ndarray
    out_grids: tuple = ()
    in_grids: tuple = ()

    @property
    def n_rows(self) -> int:
        return self.coef_out.shape[1]

    @property
    def n_cols(self) -> int:
        return self.coef_in.shape[1]

    @property
    def rank_bound(self) -> int:
        return min(self.node_values.shape)

    @cached_property
    def input_factor(self) -> np.ndarray:
        """coef_in^T node_values^T, the (n_cols, N_out) weight-free factor."""
        return self.coef_in.T @ self.node_values.T

    def dense(self) -> np.ndarray:
        """Materialize F_s (for oracles and small problems only)."""
        return self.coef_out.T @ (self.node_values @ self.coef_in)


def _node_tuples(grids, bounds):
    axes = []
    for grid, (lo, hi) in zip(grids, bounds):
        if isinstance(grid, ChebyshevGrid1D):
            axes.append(lo + (hi - lo) * (grid.nodes + 1.0) / 2.0)
        else:
            axes.append(grid.nodes)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.ravel(order="C") for g in mesh])


def build_lowrank(
    kernel: Kernel,
    out_mesh: MeshedDomain,
    in_mesh: MeshedDomain,
    budget: int | None = None,
    out_nodes_each: int | None = None,
) -> LowRankKernel:
    """Build the Chebyshev surrogate of the kernel matrix.

    Per-axis node counts default to max(2, ceil(budget**(1/d))) with d the
    dimension of each domain; without a budget the input axes take
    ``out_nodes_each`` too.  For a space-time output mesh time counts as
    one axis of the output domain and is interpolated like the spatial
    ones (a single-time mesh keeps that time as an exact sample node).
    A disk output mesh is interpolated on its bounding square.
    """
    if budget is None and out_nodes_each is None:
        raise ValueError("either budget or explicit per-axis counts required")
    has_time = out_mesh.times is not None
    single_time = has_time and out_mesh.times.size == 1
    d_out = out_mesh.dim - (1 if single_time else 0)
    d_in = in_mesh.dim
    if out_nodes_each is None:
        out_nodes_each = nodes_per_axis(budget, d_out)
    in_nodes_each = out_nodes_each if budget is None else nodes_per_axis(budget, d_in)
    if out_nodes_each < 2 or in_nodes_each < 2:
        raise ValueError("need at least 2 nodes per axis")

    out_grids = [chebyshev_nodes(out_nodes_each) for _ in range(d_out)]
    if single_time:
        out_grids.append(SampleGrid1D(out_mesh.times))
    in_grids = [chebyshev_nodes(in_nodes_each) for _ in range(d_in)]

    coef_out = coefficient_matrix(out_grids, out_mesh.points, out_mesh.bounds)
    coef_in = coefficient_matrix(in_grids, in_mesh.points, in_mesh.bounds)

    xt = _node_tuples(out_grids, out_mesh.bounds)
    yt = _node_tuples(in_grids, in_mesh.bounds)
    spatial = out_mesh.dim - (1 if has_time else 0)
    yb = yt[None, :, :]
    if has_time:
        values = kernel(xt[:, None, :spatial], yb, xt[:, None, spatial])
    else:
        values = kernel(xt[:, None, :], yb)
    values = values * in_mesh.cell_measure
    return LowRankKernel(coef_out, values, coef_in, tuple(out_grids), tuple(in_grids))


def lebesgue_constant(grid, sample_count: int = 5001) -> float:
    """Sampled lower estimate of the Lebesgue constant max_x sum_p |l_p(x)|."""
    if sample_count < 1000:
        raise ValueError("sample_count must be >= 1000")
    xs = np.linspace(-1.0, 1.0, sample_count)
    coef = lagrange_coefficients(grid, xs)
    return float(np.abs(coef).sum(axis=0).max())

