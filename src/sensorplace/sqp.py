"""Sequential quadratic programming outer loop with backtracking line search.

Each iteration builds the quadratic model of the design criterion at the
current weights (gradient and Hessian rows from the surrogate, or exact
dense ones cut to rows in oracle mode), solves the box-plus-budget QP for
a step p, and backtracks on the true objective until the
sufficient-decrease condition

    phi(w + a p) <= phi(w) + xi * a * g^T p

holds.  Duals follow the convex-combination update
lam <- lam + a (lam_qp - lam).  The loop stops once the objective decrease
falls below ``epsilon``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chebyshev import LowRankKernel
from .exceptions import NonconvergenceError, NumericalFailure
from .objective import (
    BayesSetup,
    DesignWeights,
    dense_objective_and_derivatives,
    dense_objective_value,
    shared_engine,
)
from .qp_solver import QpProblem, hessian_rows, solve_qp

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
    dual: np.ndarray
    iterations: int
    status: str
    step_lengths: list = field(default_factory=list)


def initial_point(n_weights: int, budget: float, row_group=None) -> DesignWeights:
    """Uniform strictly feasible start w_i = budget / n_weights."""
    if not (0.0 < budget <= n_weights):
        raise ValueError("budget must lie in (0, n_weights]")
    w = np.full(n_weights, budget / n_weights)
    return DesignWeights(w, budget, row_group=row_group)


class _SurrogateObjective:
    def __init__(self, lowrank: LowRankKernel, setup: BayesSetup, row_group=None):
        self.engine = shared_engine(lowrank, setup, row_group)
        self.n_weights = self.engine.n_weights

    def value(self, w):
        return self.engine.value(w)

    def derivatives(self, w):
        value, deriv = self.engine.derivatives(w)
        return value, deriv.gradient, deriv.hessian_rows


class _DenseObjective:
    def __init__(self, f_matrix: np.ndarray, setup: BayesSetup, row_group=None):
        self.f = np.asarray(f_matrix, dtype=float)
        self.setup = setup
        self.row_group = row_group
        self.n_weights = (
            self.f.shape[0] if row_group is None else int(np.max(row_group)) + 1
        )

    def _weights(self, w):
        return DesignWeights(w, budget=float(self.n_weights), row_group=self.row_group)

    def value(self, w):
        return dense_objective_value(self.f, self._weights(w), self.setup)

    def derivatives(self, w):
        value, gradient, hessian = dense_objective_and_derivatives(
            self.f, self._weights(w), self.setup
        )
        return value, gradient, hessian_rows(hessian)


def _make_model(kernel_matrix, setup, row_group):
    if isinstance(kernel_matrix, LowRankKernel):
        return _SurrogateObjective(kernel_matrix, setup, row_group)
    return _DenseObjective(kernel_matrix, setup, row_group)


def solve_relaxed(
    kernel_matrix,
    setup: BayesSetup,
    budget: float,
    config: SqpConfig = SqpConfig(),
    row_group=None,
) -> SqpResult:
    """Minimize the relaxed design criterion over 0 <= w <= 1, sum w <= n0.

    ``kernel_matrix`` is a LowRankKernel (surrogate mode) or a dense array
    (exact oracle mode).  Line-search objective values use the same route
    as the derivatives, so the Armijo test sees the function the model
    describes.  Failures of the derivatives or the QP propagate with the
    outer-iteration context.
    ``row_group`` (None: one weight per row) gives each row's weight;
    each weight owns one contiguous run of rows, numbered in row order.

    ``status`` is ``converged`` when a stopping test holds, ``max_outer``
    when ``config.max_outer`` outer iterations ran out first, and
    ``line_search_failed`` when no step length in MAX_BACKTRACKS
    backtracks met the sufficient-decrease test (``iterations`` counts
    that failed iteration; the weights stay at the last accepted point).
    """
    model = _make_model(kernel_matrix, setup, row_group)
    n_w = model.n_weights
    start = initial_point(n_w, budget, row_group=row_group)
    w = start.w.copy()
    dual = np.zeros(2 * n_w + 1)
    current = model.value(w)
    trace = [current]
    steps: list[float] = []
    status = "max_outer"
    iterations = 0

    for k in range(config.max_outer):
        try:
            current, g, rows = model.derivatives(w)
            qp = QpProblem(
                g=g,
                rows=rows,
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
        del rows, qp
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
            candidate_value = model.value(candidate)
            if candidate_value <= current + SUFFICIENT_DECREASE * alpha * slope:
                accepted = True
                break
            alpha *= BACKTRACK_FACTOR
        iterations = k + 1
        if not accepted:
            status = "line_search_failed"
            break

        w = candidate
        dual = dual + alpha * (sol.lam - dual)
        trace.append(candidate_value)
        steps.append(alpha)
        if current - candidate_value < config.epsilon:
            status = "converged"
            break

    weights = DesignWeights(w, budget, row_group=row_group)
    return SqpResult(
        weights=weights,
        objective_trace=np.asarray(trace),
        dual=dual,
        iterations=iterations,
        status=status,
        step_lengths=steps,
    )
