"""Sequential quadratic programming outer loop with backtracking line search.

Each iteration builds the quadratic model of the design criterion at the
current weights (value, gradient and Hessian rows from the surrogate's
``PosteriorEngine``), solves the box-plus-budget QP for a step p, and
backtracks on the same objective until the sufficient-decrease condition

    phi(w + a p) <= phi(w) + xi * a * g^T p

holds.  The loop stops once the objective decrease falls below
``epsilon``.  The kernel is a ``LowRankKernel``: a Chebyshev surrogate or
an exact factor (``LidarProblem.exact``, or a dense F as I F I), so every
design runs through one engine, Hessian-row cut and loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chebyshev import LowRankKernel
from .exceptions import NonconvergenceError, NumericalFailure
from .objective import BayesSetup, DesignWeights, shared_engine
from .qp_solver import QpProblem, solve_qp

__all__ = ["SqpConfig", "SqpResult", "initial_point", "solve_relaxed"]

# Line-search recipe: shrink the step by BACKTRACK_FACTOR until the
# sufficient-decrease test with coefficient SUFFICIENT_DECREASE holds, at
# most MAX_BACKTRACKS times.
BACKTRACK_FACTOR = 0.5
SUFFICIENT_DECREASE = 1e-3
MAX_BACKTRACKS = 40

# KKT tolerance and iteration cap of each QP subproblem.
QP_TOL = 1e-8
QP_MAX_ITER = 100


@dataclass(frozen=True)
class SqpConfig:
    """Outer-loop stopping threshold and iteration cap."""

    epsilon: float = 1e-3
    max_outer: int = 200

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")


@dataclass
class SqpResult:
    weights: DesignWeights
    objective_trace: np.ndarray
    iterations: int
    status: str
    step_lengths: list = field(default_factory=list)


def initial_point(n_weights: int, budget: float, row_group=None) -> DesignWeights:
    """Uniform strictly feasible start w_i = budget / n_weights."""
    if not (0.0 < budget <= n_weights):
        raise ValueError("budget must lie in (0, n_weights]")
    w = np.full(n_weights, budget / n_weights)
    return DesignWeights(w, budget, row_group=row_group)


def solve_relaxed(
    lowrank: LowRankKernel,
    setup: BayesSetup,
    budget: float,
    config: SqpConfig = SqpConfig(),
    row_group=None,
) -> SqpResult:
    """Minimize the relaxed design criterion over 0 <= w <= 1, sum w <= n0.

    ``lowrank`` is a surrogate or an exact factor such as
    ``LidarProblem.exact`` (a dense array raises ``TypeError``); it runs
    through ``shared_engine``, which ``integrality_gap`` then reuses.
    Line-search objective values use the same engine as the derivatives,
    so the Armijo test sees the function the model describes.  Failures
    of the derivatives or the QP propagate with the outer-iteration context.
    ``row_group`` (None: one weight per row) gives each row's weight;
    each weight owns one contiguous run of rows, numbered in row order.

    ``status`` is ``converged`` when a stopping test holds, ``max_outer``
    when ``config.max_outer`` outer iterations ran out first, and
    ``line_search_failed`` when no step length in MAX_BACKTRACKS
    backtracks met the sufficient-decrease test (``iterations`` counts
    that failed iteration; the weights stay at the last accepted point).
    """
    if not isinstance(lowrank, LowRankKernel):
        raise TypeError(f"solve_relaxed takes a LowRankKernel, got {type(lowrank).__name__}")
    engine = shared_engine(lowrank, setup, row_group)
    start = initial_point(engine.n_weights, budget, row_group=row_group)
    w = start.w.copy()
    current = engine.value(w)
    trace = [current]
    steps: list[float] = []
    status = "max_outer"
    iterations = 0

    for k in range(config.max_outer):
        try:
            current, deriv = engine.derivatives(w)
            g = deriv.gradient
            qp = QpProblem(
                g=g,
                rows=deriv.hessian_rows,
                box_low=-w,
                box_high=1.0 - w,
                budget_rhs=budget - w.sum(),
            )
            sol = solve_qp(qp, tol=QP_TOL, max_iter=QP_MAX_ITER)
        except NonconvergenceError as err:
            raise NonconvergenceError(
                f"QP subproblem failed at outer iteration {k}: {err}",
                err.residuals,
            ) from err
        except NumericalFailure as err:
            raise NumericalFailure(
                f"QP model or subproblem failed at outer iteration {k}: {err}",
                err.diagnostics,
            ) from err
        # the r x n Hessian rows are spent: free them before the line search
        del deriv, qp
        p = sol.p
        slope = float(g @ p)
        # Convexity bounds any decrease along p by |g^T p|; once that is
        # below round-off the epsilon stopping test cannot fail.
        if slope >= -1e-13 * (1.0 + abs(current)):
            status = "converged"
            iterations = k
            break

        alpha = 1.0
        accepted = False
        candidate_value = current
        for _ in range(MAX_BACKTRACKS):
            candidate = np.clip(w + alpha * p, 0.0, 1.0)
            candidate_value = engine.value(candidate)
            if candidate_value <= current + SUFFICIENT_DECREASE * alpha * slope:
                accepted = True
                break
            alpha *= BACKTRACK_FACTOR
        iterations = k + 1
        if not accepted:
            status = "line_search_failed"
            break

        w = candidate
        trace.append(candidate_value)
        steps.append(alpha)
        if current - candidate_value < config.epsilon:
            status = "converged"
            break

    weights = DesignWeights(w, budget, row_group=row_group)
    return SqpResult(
        weights=weights,
        objective_trace=np.asarray(trace),
        iterations=iterations,
        status=status,
        step_lengths=steps,
    )
