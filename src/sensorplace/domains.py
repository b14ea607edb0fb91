"""Input/output domains, meshes, quadrature weights, and dense kernel matrices.

Meshes use cell-midpoint points with a row-major linearization: the flat
index of the grid point (i_0, i_1, ...) is ``i_0 * n_1 * n_2 * ... + i_1 * n_2
* ... + ...`` (0-based), the same convention used for tensor interpolation
nodes.  Space-time meshes, the reference layout, are location-major,
time-minor; ``dense_kernel_matrix`` takes spatial meshes only, and the
tests build their space-time reference F themselves (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "RectDomain",
    "DiskSensorDomain",
    "MeshedDomain",
    "Kernel",
    "build_mesh",
    "build_disk_mesh",
    "spacetime_mesh",
    "dense_kernel_matrix",
    "gaussian_difference_kernel",
    "product_exponential_kernel",
    "cubic_distance_kernel",
]

# Rows of F evaluated per block by ``dense_kernel_matrix``, bounding the
# (rows, n_in, d) coordinate temporaries.
DENSE_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class RectDomain:
    """Axis-aligned box with per-axis bounds."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        low = tuple(float(a) for a in np.atleast_1d(self.lower))
        high = tuple(float(b) for b in np.atleast_1d(self.upper))
        object.__setattr__(self, "lower", low)
        object.__setattr__(self, "upper", high)
        if len(low) != len(high):
            raise ValueError("lower and upper must have the same length")
        if any(a >= b for a, b in zip(low, high)):
            raise ValueError("each axis needs lower < upper")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def bounds(self) -> np.ndarray:
        """(dim, 2) array of [lower, upper] per axis."""
        return np.column_stack([self.lower, self.upper])

    @property
    def measure(self) -> float:
        return float(np.prod(np.subtract(self.upper, self.lower)))


@dataclass(frozen=True)
class DiskSensorDomain:
    """Unit disk sensed along radial beams, one beam per equal-angle sector:
    ``n_d`` sectors, ``n_r`` points per beam."""

    n_d: int
    n_r: int

    def __post_init__(self):
        if self.n_d < 1 or self.n_r < 1:
            raise ValueError("n_d and n_r must be >= 1")


@dataclass(frozen=True)
class MeshedDomain:
    """Discretized domain: ordered points plus the quadrature cell measure.

    ``bounds`` is the axis-aligned box of the spatial axes used for
    interpolation (for a disk this is the bounding square).  Disk meshes
    carry per-point ``sector`` and ``angle`` arrays; space-time product
    meshes carry the per-row ``sector`` and the measurement ``times``, and
    append time as the last point coordinate.
    """

    points: np.ndarray
    cell_measure: float
    bounds: np.ndarray
    sector: np.ndarray | None = None
    angle: np.ndarray | None = None
    times: np.ndarray | None = None

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Kernel:
    """Deterministic kernel f(x, y) or f(x, y, t).

    ``evaluator(x, y, t=None)`` takes coordinate arrays with a trailing
    axis of length equal to the domain dimension (``x[..., k]`` is the
    k-th coordinate) and broadcasts; it returns the kernel values without
    any quadrature weight.  Determinism is required so results may be
    memoized or rebuilt bit-identically.
    """

    evaluator: Callable[..., np.ndarray]

    def __call__(self, x, y, t=None):
        if t is None:
            return self.evaluator(x, y)
        return self.evaluator(x, y, t)


def build_mesh(domain: RectDomain, counts) -> MeshedDomain:
    """Equally spaced cell-midpoint mesh with ``counts`` cells per axis."""
    counts = np.atleast_1d(np.asarray(counts, dtype=int))
    if counts.size == 1 and domain.dim > 1:
        counts = np.full(domain.dim, counts[0])
    if counts.size != domain.dim:
        raise ValueError("counts must match the domain dimension")
    if np.any(counts < 1):
        raise ValueError("counts must be >= 1 on every axis")
    axes = []
    for (a, b), m in zip(zip(domain.lower, domain.upper), counts):
        h = (b - a) / m
        axes.append(a + h * (np.arange(m) + 0.5))
    grids = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([g.ravel(order="C") for g in grids])
    cell = domain.measure / float(np.prod(counts))
    return MeshedDomain(points, cell, domain.bounds.copy())


def build_disk_mesh(cfg: DiskSensorDomain) -> MeshedDomain:
    """Mesh the unit disk along beams through sector midlines.

    Point (k, j) sits at angle 2*pi*(k - 1/2)/n_d and radius
    (j - 1/2) / n_r; ordering is sector-major, radius-minor, and
    points carry their sector index (the weight group) and beam angle.
    """
    angles = 2.0 * np.pi * (np.arange(cfg.n_d) + 0.5) / cfg.n_d
    radii = (np.arange(cfg.n_r) + 0.5) / cfg.n_r
    ang = np.repeat(angles, cfg.n_r)
    rad = np.tile(radii, cfg.n_d)
    points = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    sector = np.repeat(np.arange(cfg.n_d), cfg.n_r)
    # The library never reads an output mesh's cell measure; this one is
    # the equal-area split of the disk.
    cell = np.pi / (cfg.n_d * cfg.n_r)
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    return MeshedDomain(points, cell, box, sector=sector, angle=ang)


def spacetime_mesh(spatial: MeshedDomain, times) -> MeshedDomain:
    """Product of a spatial mesh with measurement times.

    Rows are location-major, time-minor: row i * n_t + j holds spatial
    point i at time t_j (both 0-based).  Time is appended as the last
    coordinate; ``bounds`` stays the spatial box.  Surrogates take the
    spatial mesh and the times instead (``build_lowrank``); this is the
    reference layout that the tests and the benchmark read.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size < 1:
        raise ValueError("need at least one measurement time")
    n, n_t = spatial.n_points, times.size
    pts = np.empty((n * n_t, spatial.dim + 1))
    pts[:, : spatial.dim] = np.repeat(spatial.points, n_t, axis=0)
    pts[:, spatial.dim] = np.tile(times, n)
    sector = None if spatial.sector is None else np.repeat(spatial.sector, n_t)
    return MeshedDomain(pts, spatial.cell_measure, spatial.bounds, sector=sector, times=times)


def dense_kernel_matrix(
    kernel: Kernel, out_mesh: MeshedDomain, in_mesh: MeshedDomain
) -> np.ndarray:
    """Full matrix F with F[i, j] = f(x_i, y_j) * cell_measure(in).

    Both meshes are spatial; a space-time output mesh raises.  Rows are
    evaluated in blocks to bound peak memory.
    """
    if out_mesh.n_points == 0 or in_mesh.n_points == 0:
        raise ValueError("meshes must be nonempty")
    if out_mesh.times is not None:
        raise ValueError("dense_kernel_matrix takes a spatial output mesh, not a space-time one")
    X = out_mesh.points
    Y = in_mesh.points[None, :, :]
    F = np.empty((X.shape[0], in_mesh.n_points))
    for start in range(0, X.shape[0], DENSE_BLOCK_ROWS):
        stop = min(start + DENSE_BLOCK_ROWS, X.shape[0])
        F[start:stop] = kernel(X[start:stop, None, :], Y)
    F *= in_mesh.cell_measure
    return F


def gaussian_difference_kernel() -> Kernel:
    """f(x, y) = exp(-|x - y|^2); analytic, fast interpolation decay."""

    def evaluator(x, y, t=None):
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return np.exp(-np.sum(d * d, axis=-1))

    return Kernel(evaluator)


def product_exponential_kernel() -> Kernel:
    """f(x, y) = exp(x . y); analytic."""

    def evaluator(x, y, t=None):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.exp(np.sum(x * y, axis=-1))

    return Kernel(evaluator)


def cubic_distance_kernel() -> Kernel:
    """f(x, y) = |x - y|^3; C^2 with third derivative of bounded variation.

    Exercises the slow algebraic interpolation-decay regime, in contrast
    to the analytic built-ins.
    """

    def evaluator(x, y, t=None):
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return np.sum(d * d, axis=-1) ** 1.5

    return Kernel(evaluator)
