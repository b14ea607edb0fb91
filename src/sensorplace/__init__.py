"""Optimal sensor placement for Bayesian linear inverse problems.

Pipeline: discretize the integral-kernel forward map (``domains``),
compress it with a Chebyshev low-rank surrogate (``chebyshev``), minimize
the A- or D-optimal design criterion with an SQP outer loop (``sqp``,
``objective``) whose subproblems go to a structured interior-point solver
(``qp_solver``), and round the relaxed weights to a binary design
(``rounding``).  ``lidar`` supplies the advection-diffusion space-time
application; ``cli`` drives end-to-end runs.
"""

from .chebyshev import (
    Grid1D,
    LowRankKernel,
    build_lowrank,
    chebyshev_nodes,
    coefficient_matrix,
    lagrange_coefficients,
    lebesgue_constant,
    node_budget,
    nodes_per_axis,
)
from .domains import (
    DiskSensorDomain,
    Kernel,
    MeshedDomain,
    RectDomain,
    build_disk_mesh,
    build_mesh,
    cubic_distance_kernel,
    dense_kernel_matrix,
    gaussian_difference_kernel,
    product_exponential_kernel,
    spacetime_mesh,
)
from .exceptions import NonconvergenceError, NumericalFailure
from .lidar import (
    LidarConfig,
    LidarProblem,
    advdiff_kernel,
    build_lidar_problem,
    exact_factor,
    fourier_coefficients_u0,
    reconstruct_u0,
)
from .objective import (
    BayesSetup,
    DesignWeights,
    InterpolatedDerivatives,
    PosteriorEngine,
    dense_objective_value,
    shared_engine,
)
from .qp_solver import (
    QpProblem,
    QpSolution,
    hessian_rows,
    solve_qp,
    starting_point,
)
from .rounding import (
    GapReport,
    RoundingPlan,
    angular_plan,
    integrality_gap,
    natural_plan,
    prefix_deviation,
    sum_up_round,
)
from .sqp import SqpConfig, SqpResult, initial_point, solve_relaxed

__version__ = "0.1.0"
