"""Advection-diffusion forward model and LIDAR sensing geometry.

The PDE on the square [-1, 1]^2 with homogeneous Dirichlet boundaries,

    u_t + c1 u_x + c2 u_y - mu (u_xx + u_yy) = f(x, y, t),

is solved by the substitution u = v * exp(a x + b y + g t) with
a = c1/(2 mu), b = c2/(2 mu), g = -(c1^2 + c2^2)/(4 mu), which turns it
into a heat equation for v.  Expanding v in the Dirichlet Fourier family
phi_k(z) = sin(k pi z / 2) for even k and cos(k pi z / 2) for odd k
(k >= 1; both vanish at z = +-1) gives the propagation kernel

    f(x, y, t) = exp(g t + a x1 + b x2 - a y1 - b y2)
                 * sum_{k1,k2<=p} exp(-mu (k1^2 + k2^2) pi^2 t / 4)
                   phi_k1(x1) phi_k2(x2) phi_k1(y1) phi_k2(y2).

The basis functions have unit L2 norm on [-1, 1], so unnormalized
projections are the expansion coefficients.  Over the K = p^2 modes the
exact kernel matrix is the rank-K product U V^T (``exact_factor``).  An
external source adds an independent term to the solution and never
enters this kernel, so it has no effect on the design.

The sensing geometry is a LIDAR at the origin of the unit disk: beams
through sector midlines, measurements along each beam at a fixed set of
times, one design weight per sector.
"""

from __future__ import annotations


import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chebyshev import LowRankKernel, build_lowrank, node_budget
from .domains import (
    DiskSensorDomain,
    Kernel,
    MeshedDomain,
    RectDomain,
    build_disk_mesh,
    build_mesh,
    spacetime_mesh,  # not called here: perfbench/spans.py patches the name in lidar
)
from .objective import BayesSetup

__all__ = [
    "LidarConfig",
    "ModeTable",
    "mode_table",
    "dirichlet_basis",
    "advdiff_kernel",
    "exact_factor",
    "fourier_coefficients_u0",
    "reconstruct_u0",
    "transformed_initial_coefficients",
    "advdiff_solution",
    "LidarProblem",
    "build_lidar_problem",
]

# Gauss-Legendre order of the Duhamel time integral in ``advdiff_solution``.
SOURCE_QUAD_ORDER = 40


@dataclass(frozen=True)
class LidarConfig:
    """Constants of the advection-diffusion design problem.

    ``r`` is the fraction of sectors to select (budget round(r * n_d));
    ``alpha`` the noise-to-prior variance ratio; ``p`` the Fourier
    truncation order (modes k1, k2 <= p).
    """

    c1: float = 0.1
    c2: float = 0.0
    mu: float = 1.0
    horizon: float = 1.0
    n_t: int = 5
    p: int = 3
    n_d: int = 30
    n_r: int = 30
    n_x: int = 30
    r: float = 0.2
    alpha: float = 0.01
    sigma2_noise: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.mu < math.inf:
            raise ValueError("mu must be positive and finite")
        if min(self.n_t, self.p, self.n_d, self.n_r, self.n_x) < 1:
            raise ValueError("all counts must be >= 1")
        if not (0.0 < self.r <= 1.0):
            raise ValueError("r must lie in (0, 1]")
        if not (0.0 < self.alpha < math.inf and 0.0 < self.horizon < math.inf):
            raise ValueError("alpha and horizon must be positive and finite")
        if not (math.isfinite(self.c1) and math.isfinite(self.c2)):
            raise ValueError("c1 and c2 must be finite")

    @property
    def budget(self) -> int:
        return max(1, round(self.r * self.n_d))

    @property
    def times(self) -> np.ndarray:
        """Measurement times s * T / n_t, s = 1..n_t (none at t = 0)."""
        return self.horizon * np.arange(1, self.n_t + 1) / self.n_t

    @property
    def drift(self) -> tuple[float, float, float]:
        """(a, b, g) of the change of variables u = v exp(ax + by + gt)."""
        a = self.c1 / (2.0 * self.mu)
        b = self.c2 / (2.0 * self.mu)
        g = -(self.c1**2 + self.c2**2) / (4.0 * self.mu)
        return a, b, g


@dataclass(frozen=True)
class ModeTable:
    """Flattened (k1, k2) mode list with heat-decay rates.

    The basis assignment is fixed by the Dirichlet boundary: even k uses
    sin(k pi z / 2), odd k uses cos(k pi z / 2); mode 0 is excluded.
    ``decay[k]`` is mu (k1^2 + k2^2) pi^2 / 4.
    """

    k1: np.ndarray
    k2: np.ndarray
    decay: np.ndarray


def mode_table(p: int, mu: float) -> ModeTable:
    ks = np.arange(1, p + 1)
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    k1 = k1.ravel()
    k2 = k2.ravel()
    decay = mu * (k1.astype(float) ** 2 + k2.astype(float) ** 2) * np.pi**2 / 4.0
    return ModeTable(k1, k2, decay)


def dirichlet_basis(k, z):
    """phi_k(z): sin(k pi z / 2) for even k, cos(k pi z / 2) for odd k.

    Broadcasts over both arguments; vanishes at z = +-1 for every k >= 1.
    """
    k = np.asarray(k)
    z = np.asarray(z, dtype=float)
    arg = k * (np.pi / 2.0) * z
    return np.where(k % 2 == 0, np.sin(arg), np.cos(arg))


def _mode_product(table: ModeTable, pts: np.ndarray) -> np.ndarray:
    """phi_k1(x1) phi_k2(x2) for every point/mode pair: (..., K)."""
    x1 = pts[..., 0:1]
    x2 = pts[..., 1:2]
    return dirichlet_basis(table.k1, x1) * dirichlet_basis(table.k2, x2)


def advdiff_kernel(cfg: LidarConfig) -> Kernel:
    """Propagation kernel of the initial condition, truncated at order p.

    The evaluator takes output points x (..., 2), input points y (..., 2)
    and times t, broadcasting; source terms are excluded by construction.
    """
    table = mode_table(cfg.p, cfg.mu)
    a, b, g = cfg.drift

    def evaluator(x, y, t):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        t = np.asarray(t, dtype=float)
        phases = np.exp(-table.decay * t[..., None])  # (..., K)
        acc = np.einsum(
            "...k,...k,...k->...", phases, _mode_product(table, x), _mode_product(table, y)
        )
        drift = np.exp(g * t + a * x[..., 0] + b * x[..., 1] - a * y[..., 0] - b * y[..., 1])
        return drift * acc

    return Kernel(evaluator)


def exact_factor(cfg: LidarConfig, disk_mesh: MeshedDomain, input_mesh: MeshedDomain):
    """The exact F of a LIDAR problem as ``LowRankKernel(U^T, I_K, V^T)``.

    Over the rows of ``spacetime_mesh(disk_mesh, cfg.times)`` (location-major,
    time-minor: each sector owns a contiguous block of n_r * n_t rows),

        U[(i, s), k] = exp(a x_i1 + b x_i2 + (g - decay_k) t_s) phi_k(x_i),
        V[j, k] = exp(-a y_j1 - b y_j2) phi_k(y_j) dy.
    """
    table = mode_table(cfg.p, cfg.mu)
    a, b, g = cfg.drift
    x = disk_mesh.points
    y = input_mesh.points
    out_drift = np.exp(a * x[:, 0] + b * x[:, 1])
    in_drift = np.exp(-a * y[:, 0] - b * y[:, 1]) * input_mesh.cell_measure
    time_factor = np.exp((g - table.decay[:, None]) * cfg.times)  # (K, n_t)
    space = (_mode_product(table, x) * out_drift[:, None]).T  # (K, n_loc)
    u_t = (space[:, :, None] * time_factor[:, None, :]).reshape(space.shape[0], -1)
    v_t = (_mode_product(table, y) * in_drift[:, None]).T
    return LowRankKernel(u_t, np.eye(space.shape[0]), v_t)


def fourier_coefficients_u0(u0, p: int) -> np.ndarray:
    """Projection of a field onto the Dirichlet modes by tensor quadrature.

    Returns coeffs[k1-1, k2-1] = integral of u0(x, y) phi_k1(x) phi_k2(y);
    the basis is L2-normalized on [-1, 1]^2 so these are the expansion
    coefficients directly.  The Gauss-Legendre order max(2p + 4, 24)
    integrates smooth test fields to near machine precision.
    """
    nodes, wts = np.polynomial.legendre.leggauss(max(2 * p + 4, 24))
    xg, yg = np.meshgrid(nodes, nodes, indexing="ij")
    values = np.asarray(u0(xg, yg), dtype=float)
    ks = np.arange(1, p + 1)
    basis = dirichlet_basis(ks[:, None], nodes[None, :])  # (p, q)
    weighted = basis * wts[None, :]
    return weighted @ values @ weighted.T


def reconstruct_u0(coeffs: np.ndarray, x, y) -> np.ndarray:
    """Evaluate the truncated series sum c_{k1,k2} phi_k1(x) phi_k2(y)."""
    coeffs = np.asarray(coeffs, dtype=float)
    p = coeffs.shape[0]
    ks = np.arange(1, p + 1)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    bx = dirichlet_basis(ks, x[..., None])  # (..., p)
    by = dirichlet_basis(ks, y[..., None])
    return np.einsum("...i,ij,...j->...", bx, coeffs, by)


def transformed_initial_coefficients(cfg: LidarConfig, u0) -> np.ndarray:
    """Coefficients of v0 = exp(-a x - b y) u0, the heat-equation initial state."""
    a, b, _ = cfg.drift

    def v0(x, y):
        return np.exp(-a * x - b * y) * np.asarray(u0(x, y), dtype=float)

    return fourier_coefficients_u0(v0, cfg.p)


def advdiff_solution(
    cfg: LidarConfig,
    v0_coeffs: np.ndarray,
    points: np.ndarray,
    t: float,
    source_modes=None,
) -> np.ndarray:
    """Solution field u(x, t) from heat-variable coefficients.

    ``source_modes(s)`` (optional) returns the (p, p) Fourier coefficients
    of the transformed source at time s; its Duhamel integral is added to
    the initial-condition part.  The source changes the solution but not
    the propagation kernel, which is the point of the independence check.
    """
    table = mode_table(cfg.p, cfg.mu)
    a, b, g = cfg.drift
    coeffs = np.asarray(v0_coeffs, dtype=float).reshape(-1)
    amp = np.exp(-table.decay * t) * coeffs
    if source_modes is not None and t > 0:
        nodes, wts = np.polynomial.legendre.leggauss(SOURCE_QUAD_ORDER)
        s_nodes = 0.5 * t * (nodes + 1.0)
        s_wts = 0.5 * t * wts
        for s, ws in zip(s_nodes, s_wts):
            src = np.asarray(source_modes(s), dtype=float).reshape(-1)
            amp = amp + ws * np.exp(-table.decay * (t - s)) * src
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    modes = _mode_product(table, pts)  # (n, K)
    drift = np.exp(g * t + a * pts[:, 0] + b * pts[:, 1])
    return drift * (modes @ amp)


@dataclass(frozen=True, eq=False)
class LidarProblem:
    """Assembled design problem: surrogate, geometry, and Bayes setup."""

    config: LidarConfig
    lowrank: LowRankKernel
    row_group: np.ndarray
    setup: BayesSetup
    disk_mesh: MeshedDomain
    input_mesh: MeshedDomain
    kernel: Kernel

    @property
    def budget(self) -> int:
        return self.config.budget

    @property
    def sector_angles(self) -> np.ndarray:
        return self.disk_mesh.angle[:: self.config.n_r]

    @cached_property
    def exact(self) -> LowRankKernel:
        return exact_factor(self.config, self.disk_mesh, self.input_mesh)


def build_lidar_problem(
    cfg: LidarConfig, node_constant: float, criterion: str = "A"
) -> LidarProblem:
    """Meshes, kernel, and Chebyshev surrogate for one LIDAR configuration.

    The interpolation budget is ceil(node_constant * log(n)) with n the
    input-grid size n_x^2.  The disk's bounding square and the input
    square each get max(2, ceil(budget**(1/d))) Chebyshev nodes per axis,
    with d = 3 on the output side when there are several times; time is
    sampled at the n_t measurement times (``build_lowrank``).  Rows are
    location-major, so sector k owns n_r n_t consecutive rows.
    """
    disk = build_disk_mesh(DiskSensorDomain(cfg.n_d, cfg.n_r))
    square = RectDomain((-1.0, -1.0), (1.0, 1.0))
    grid = build_mesh(square, (cfg.n_x, cfg.n_x))
    kern = advdiff_kernel(cfg)
    budget_nodes = node_budget(node_constant, grid.n_points)
    lowrank = build_lowrank(kern, disk, grid, budget_nodes, cfg.times)
    setup = BayesSetup(alpha=cfg.alpha, sigma2_noise=cfg.sigma2_noise, criterion=criterion)
    row_group = np.repeat(disk.sector, cfg.n_t)
    return LidarProblem(cfg, lowrank, row_group, setup, disk, grid, kern)
