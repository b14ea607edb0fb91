"""Interpolation grids, Lagrange coefficients, and the low-rank kernel surrogate.

The surrogate replaces a kernel matrix F (n x m, F[i, j] = f(x_i, y_j) * dy)
by F_s = C_out^T Ftilde C_in, where Ftilde holds kernel values at
interpolation-node pairs and the coefficient matrices hold the Lagrange
basis values of every mesh point.  Nodes per axis scale like O(log n), so
F_s has rank O(log n) and storage O(n log n).

Every interpolated axis is one ``Grid1D``: the Chebyshev points mapped
onto the axis interval.  The Lagrange basis of a grid comes from the
barycentric formula, at O(N) per point, and is the exact unit vector at a
node.  Time is sampled, not interpolated: ``build_lowrank`` takes the
spatial output mesh and the measurement times, and evaluates the kernel
at every (spatial node, time) pair.  The output rows are location-major,
time-minor, so the output coefficients are C_space kron I_{n_t}, with
C_space (N_s x n_s) holding one column per location.  The surrogate keeps
only C_space and forms the N_s n_t x n_s n_t product on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domains import Kernel, MeshedDomain
from .gram import FACTOR_CUT, GRAM_CUT_PER_ROW, column_gram, cut_mask, sym_eigh, thin_svd

__all__ = [
    "Grid1D",
    "LowRankKernel",
    "chebyshev_nodes",
    "lagrange_coefficients",
    "coefficient_matrix",
    "build_lowrank",
    "node_budget",
    "nodes_per_axis",
    "lebesgue_constant",
]


@dataclass(frozen=True)
class Grid1D:
    """Distinct nodes of one axis, in the axis's coordinates; the library
    builds Chebyshev axes only (``chebyshev_nodes``)."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "nodes", nodes)
        if nodes.size < 1:
            raise ValueError("need at least one node")
        if np.unique(nodes).size != nodes.size:
            raise ValueError("nodes must be distinct")


def chebyshev_nodes(n_nodes: int, lo: float = -1.0, hi: float = 1.0) -> Grid1D:
    """Nodes lo + (hi - lo)(x_i + 1)/2 with x_i = cos(pi*(i-1)/(N-1)), i = 1..N.

    They descend from hi to lo.
    """
    if n_nodes < 2:
        raise ValueError("n_nodes must be >= 2 (formula divides by N - 1)")
    x = np.cos(np.pi * np.arange(n_nodes) / (n_nodes - 1))
    return Grid1D(lo + (hi - lo) * (x + 1.0) / 2.0)


def lagrange_coefficients(grid: Grid1D, x) -> np.ndarray:
    """Lagrange basis values l_p(x) by the barycentric formula.

    With weights w_p = 1/prod_{k!=p} (x_p - x_k),

        l_p(x) = (w_p / (x - x_p)) / sum_k (w_k / (x - x_k)).

    ``x`` may be a scalar or 1-D array; the result has shape (N,) or
    (N, len(x)).  Columns sum to 1 (partition of unity) and evaluation at
    a node returns the exact unit vector.
    """
    nodes = grid.nodes
    gaps = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(gaps, 1.0)
    weights = 1.0 / gaps.prod(axis=1)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    coef = xs[None, :] - nodes[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(weights[:, None], coef, out=coef)
        total = coef.sum(axis=0)
        coef /= total
    # x on a node, or so close to one that its term overflows: the basis
    # is that node's unit vector to working precision
    at_node = np.flatnonzero(np.isinf(total))
    near = np.abs(xs[at_node] - nodes[:, None]).argmin(axis=0)
    coef[:, at_node] = 0.0
    coef[near, at_node] = 1.0
    if np.ndim(x) == 0:
        return coef[:, 0]
    return coef


def coefficient_matrix(grids, points) -> np.ndarray:
    """Tensor-product coefficient matrix, one column per mesh point.

    ``grids`` is one grid per axis and ``points`` is (n, d).  The row for
    the multi-index (k_0, ..., k_{d-1}) sits at the row-major flat index,
    matching the mesh linearization.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    if d != len(grids):
        raise ValueError("point dimension must match the number of grids")
    mat = lagrange_coefficients(grids[0], points[:, 0])
    for ax in range(1, d):
        nxt = lagrange_coefficients(grids[ax], points[:, ax])
        mat = (mat[:, None, :] * nxt[None, :, :]).reshape(-1, n)
    return mat


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
    """Low-rank factorization F_s = coef_out^T node_values coef_in.

    In the Chebyshev surrogate ``node_values[p, q]`` is the kernel at
    output node p and input node q times dy, and ``coef_out``/``coef_in``
    hold tensor Lagrange coefficients of the mesh points.  Exact
    factorizations carry other middles: a dense F as I F I, the LIDAR
    modes as U^T I V^T (``lidar.exact_factor``).

    ``coef_out`` is kept as ``coef_space`` (N_s x n_s).  With n_t
    measurement times the output rows are n_s locations x n_t times,
    location-major, and time is sampled at those times, so node_values has
    N_s n_t rows (spatial node major, time minor) and coef_out is
    coef_space kron I_{n_t}; n_t is the ratio of the two row counts, 1
    without times.
    ``mul_coef_out`` applies coef_out from coef_space, and ``coef_out``
    forms the N_s n_t x n_s n_t matrix only on first access (ungrouped
    engines, ``dense`` and oracles).
    """

    coef_space: np.ndarray
    node_values: np.ndarray
    coef_in: np.ndarray

    def __post_init__(self):
        if self.node_values.shape[0] % self.coef_space.shape[0]:
            raise ValueError(
                f"node_values has {self.node_values.shape[0]} rows, not a multiple of "
                f"coef_space's {self.coef_space.shape[0]}"
            )

    @property
    def n_times(self) -> int:
        """Measurement times per location: 1 without a time axis."""
        return self.node_values.shape[0] // self.coef_space.shape[0]

    @property
    def n_rows(self) -> int:
        return self.coef_space.shape[1] * self.n_times

    @property
    def n_cols(self) -> int:
        return self.coef_in.shape[1]

    @cached_property
    def coef_out(self) -> np.ndarray:
        """Output coefficients, one column per output mesh row (read-only)."""
        n_t = self.n_times
        return self.coef_space if n_t == 1 else np.kron(self.coef_space, np.eye(n_t))

    def mul_coef_out(self, m: np.ndarray) -> np.ndarray:
        """m @ coef_out for m of N_out columns, without forming coef_out.

        m is viewed as (k, N_s, n_t), and coef_space^T applied to each of
        its k (N_s, n_t) slices writes the location-major, time-minor
        (k, n_s, n_t) product directly.
        """
        k = m.shape[0]
        return np.matmul(self.coef_space.T, m.reshape(k, -1, self.n_times)).reshape(k, -1)

    @cached_property
    def input_r(self) -> np.ndarray:
        """A factor R~ with R~^T R~ = B^T B for the input factor
        B = coef_in^T node_values^T, cut to its numerical rank.

        R = R1 node_values^T with R1 = diag(sqrt(lam)) V^T from the
        eigendecomposition V diag(lam) V^T of the N_in x N_in Gram
        coef_in coef_in^T, formed over column blocks, so neither B nor a
        copy of coef_in is made; eigenvalues at or below N_in * eps *
        lam_max are round-off of a rank-deficient Gram and are dropped.
        With the thin SVD R = U diag(s) W^T, R~ = diag(s) W^T keeps the
        rho singular values above FACTOR_CUT * s_max, so R~ is
        (rho, N_out) and R~^T R~ = R^T R up to s_(rho+1)^2.
        """
        lam, vec = sym_eigh(column_gram(self.coef_in), "Gram of the input coefficients")
        keep = cut_mask(lam, lam.size * GRAM_CUT_PER_ROW)
        r1 = np.sqrt(lam[keep])[:, None] * vec[:, keep].T
        s, wt = thin_svd(r1 @ self.node_values.T, "factor R of the input factor")
        keep = cut_mask(s, FACTOR_CUT)
        return s[keep, None] * wt[keep]

    def dense(self) -> np.ndarray:
        """Materialize F_s (for oracles and small problems only)."""
        return self.coef_out.T @ (self.node_values @ self.coef_in)


def _node_tuples(grids):
    mesh = np.meshgrid(*(grid.nodes for grid in grids), indexing="ij")
    return np.column_stack([g.ravel(order="C") for g in mesh])


def build_lowrank(
    kernel: Kernel, out_mesh: MeshedDomain, in_mesh: MeshedDomain, budget: int, times=None
) -> LowRankKernel:
    """Build the Chebyshev surrogate of the kernel matrix.

    Each domain of dimension d gets max(2, ceil(budget**(1/d))) Chebyshev
    nodes per axis on its interpolation box.  With measurement ``times``
    the output rows are every location of ``out_mesh`` at every time,
    location-major and time-minor, and time is sampled at those times, not
    interpolated: node_values holds the kernel at every (spatial node,
    time) pair and only coef_space is kept.  With several times the output
    budget is still split as if time were one more axis.  A disk output
    mesh is interpolated on its bounding square.  One mesh without times
    on both sides shares one coefficient matrix.
    """
    if times is not None:
        times = np.atleast_1d(np.asarray(times, dtype=float))[:, None]
        if times.size < 1:
            raise ValueError("need at least one measurement time")
    n_t = 1 if times is None else times.size
    out_each = nodes_per_axis(budget, out_mesh.dim + (n_t > 1))
    grids_out = [chebyshev_nodes(out_each, lo, hi) for lo, hi in out_mesh.bounds]
    coef_space = coefficient_matrix(grids_out, out_mesh.points)
    if in_mesh is out_mesh and times is None:
        grids_in, coef_in = grids_out, coef_space
    else:
        in_each = nodes_per_axis(budget, in_mesh.dim)
        grids_in = [chebyshev_nodes(in_each, lo, hi) for lo, hi in in_mesh.bounds]
        coef_in = coefficient_matrix(grids_in, in_mesh.points)

    # the kernel at every (spatial node, time, input node), spread where it
    # is constant along one; rows spatial-node-major, time-minor
    xt = _node_tuples(grids_out)
    yt = _node_tuples(grids_in)
    values = kernel(xt[:, None, None, :], yt[None, None, :, :], times)
    shape = (xt.shape[0], n_t, yt.shape[0])
    values = np.broadcast_to(values, shape).reshape(-1, shape[2]) * in_mesh.cell_measure
    return LowRankKernel(coef_space, values, coef_in)


def lebesgue_constant(grid: Grid1D, sample_count: int = 5001) -> float:
    """Sampled lower estimate of the Lebesgue constant max_x sum_p |l_p(x)|.

    Samples span the grid's own nodes.
    """
    if sample_count < 1000:
        raise ValueError("sample_count must be >= 1000")
    xs = np.linspace(grid.nodes.min(), grid.nodes.max(), sample_count)
    coef = lagrange_coefficients(grid, xs)
    return float(np.abs(coef).sum(axis=0).max())
