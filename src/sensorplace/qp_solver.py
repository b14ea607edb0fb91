"""Interior-point solver for box-plus-budget quadratic programs.

Solves

    min  g^T p + 1/2 p^T H p
    s.t. box_low <= p <= box_high,  sum(p) <= budget_rhs,

the subproblem shape produced by the SQP outer loop.  In constraint form
A p >= b with A = (I; -I; -1^T) the primal-dual Newton step reduces to the
normal equation

    (H + D + d_b 1 1^T) dp = rhs,

where D is diagonal and d_b is a scalar, both from the slack/multiplier
ratios.  Each iteration is a Mehrotra predictor-corrector step: an affine
predictor, the adaptive centering sigma = (mu_aff / mu)^3 with the target
sigma * mu floored at 0.1 tol, and a corrector carrying the second-order
term ds_aff * dlam_aff, followed by one step length common to primal and
dual.  Both solves use the one normal-matrix operator built per iteration.

H comes in factored form C^T Htilde C (rank N << n); the design
criteria always pass this form, and a dense H, its own core, is an input
of the dense oracle and of tests only.  The truncated eigendecomposition
of the core gives rows W (r x n, r <= N) with H = W^T W; W is formed
once per solve.
The operator factors the small Woodbury core I + W D^{-1} W^T once per
iteration, in O(n r^2), and adds a rank-one Sherman-Morrison update for
the budget term; each solve then costs O(n r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NonconvergenceError, NumericalFailure
from .gram import HESSIAN_CUT, column_gram, cut_mask, sym_eigh

__all__ = [
    "LowRankHessian",
    "QpProblem",
    "QpIterate",
    "QpSolution",
    "NormalMatrixAction",
    "starting_point",
    "solve_qp",
]

# Slack/multiplier ratios are floored here before inversion; the
# fraction-to-boundary rule keeps iterates away from this in practice.
DIAGONAL_FLOOR = 1e-14

# PSD acceptance slack for the supplied Hessian, relative to its largest
# eigenvalue.
PSD_SLACK = 1e-10

# The centering target sigma * mu never drops below this fraction of the
# tolerance: pushing mu far past tol leaves the Woodbury solve too few
# digits to close the dual residual.
CENTERING_FLOOR = 0.1

# Fraction of the largest step to the boundary that an iterate takes.
BOUNDARY_FACTOR = 0.995

# Iterative-refinement steps of each normal-matrix solve.
REFINE_STEPS = 2


@dataclass(frozen=True)
class LowRankHessian:
    """Factored PSD Hessian H = coef^T core coef with core N x N."""

    coef: np.ndarray
    core: np.ndarray

    def dense(self) -> np.ndarray:
        return self.coef.T @ self.core @ self.coef


@dataclass
class QpProblem:
    """Data of one box-plus-budget QP."""

    g: np.ndarray
    hess: np.ndarray | LowRankHessian
    box_low: np.ndarray
    box_high: np.ndarray
    budget_rhs: float

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        self.box_low = np.asarray(self.box_low, dtype=float)
        self.box_high = np.asarray(self.box_high, dtype=float)
        n = self.g.size
        if self.box_low.size != n or self.box_high.size != n:
            raise ValueError("box bounds must match the gradient length")
        if np.any(self.box_low > self.box_high):
            raise ValueError("box_low must not exceed box_high")

    @property
    def n(self) -> int:
        return self.g.size


@dataclass
class QpIterate:
    """Interior-point state: primal p, slacks s > 0, multipliers lam > 0."""

    p: np.ndarray
    s: np.ndarray
    lam: np.ndarray

    @property
    def mu(self) -> float:
        return float(self.s @ self.lam / self.s.size)


@dataclass
class QpSolution:
    p: np.ndarray
    lam: np.ndarray
    iterations: int
    mu: float
    residual_dual: float
    residual_primal: float


def _constraint_apply(p: np.ndarray) -> np.ndarray:
    return np.concatenate([p, -p, [-p.sum()]])


def _constraint_apply_t(y: np.ndarray, n: int) -> np.ndarray:
    return y[:n] - y[n : 2 * n] - y[2 * n]


def _rhs_vector(problem: QpProblem) -> np.ndarray:
    return np.concatenate([problem.box_low, -problem.box_high, [-problem.budget_rhs]])


def _max_abs(x: np.ndarray) -> float:
    return float(max(x.max(), -x.min()))


def _woodbury_rows(problem: QpProblem) -> np.ndarray:
    """Rows W with H = W^T W for the truncated factored Hessian.

    W = sqrt(theta) basis^T coef from the kept eigenpairs of the core, and
    W = sqrt(theta) basis^T for a dense H, its own core; scaling
    sqrt(theta) into the rows makes the Woodbury core I + W D^{-1} W^T,
    far better conditioned than the raw form with theta^{-1} when theta
    spans many decades.
    """
    hess = problem.hess
    factored = isinstance(hess, LowRankHessian)
    theta, basis = truncated_core(hess.core if factored else np.asarray(hess, dtype=float))
    wrows = np.sqrt(theta)[:, None] * basis.T
    return wrows @ hess.coef if factored else wrows


class NormalMatrixAction:
    """Operator v -> (H + D + d_b 1 1^T) v and its inverse action.

    The inverse uses the Woodbury identity against the rows W of the
    truncated Hessian (pass ``wrows`` to reuse them across iterations),
    then a Sherman-Morrison update for the rank-one budget term.
    """

    def __init__(self, problem: QpProblem, iterate: QpIterate, wrows=None):
        n = problem.n
        d = iterate.lam / iterate.s
        self.diag = np.maximum(d[:n] + d[n : 2 * n], DIAGONAL_FLOOR)
        self.budget_coeff = float(d[2 * n])
        self._wrows = _woodbury_rows(problem) if wrows is None else wrows
        self._dinv = 1.0 / self.diag
        self._small_chol = None
        if self._wrows.shape[0]:
            # the Woodbury core I + W D^{-1} W^T
            core = np.eye(self._wrows.shape[0]) + column_gram(self._wrows, np.sqrt(self._dinv))
            try:
                self._small_chol = np.linalg.cholesky(core)
            except np.linalg.LinAlgError as err:
                raise NumericalFailure(
                    "inner Woodbury system is singular",
                    {"size": self._wrows.shape[0]},
                ) from err
        # X^{-1} 1 and the denominator of the Sherman-Morrison update.
        self._xinv_ones = self._solve_no_budget(np.ones(n))
        self._sm_denom = float(self._xinv_ones.sum()) + 1.0 / self.budget_coeff

    def apply(self, v: np.ndarray) -> np.ndarray:
        base = self._wrows.T @ (self._wrows @ v) + self.diag * v
        return base + self.budget_coeff * v.sum()

    def _solve_no_budget(self, y: np.ndarray) -> np.ndarray:
        dinv_y = y * self._dinv
        if self._small_chol is None:
            return dinv_y
        t = self._wrows @ dinv_y
        z = np.linalg.solve(self._small_chol, t)
        z = np.linalg.solve(self._small_chol.T, z)
        return dinv_y - (self._wrows.T @ z) * self._dinv

    def _solve_once(self, y: np.ndarray) -> np.ndarray:
        z = self._solve_no_budget(y)
        return z - self._xinv_ones * (z.sum() / self._sm_denom)

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Inverse action with iterative refinement against the exact
        operator; the Woodbury path loses digits when the interior-point
        diagonal spans many orders of magnitude."""
        x = self._solve_once(y)
        for _ in range(REFINE_STEPS):
            residual = y - self.apply(x)
            if _max_abs(residual) <= 1e-14 * max(1.0, _max_abs(y)):
                break
            x = x + self._solve_once(residual)
        return x


def truncated_core(core: np.ndarray):
    """Eigendecomposition of the PSD core, keeping values above the
    HESSIAN_CUT; ValueError if it is not PSD, NumericalFailure if it is
    not finite."""
    lam, vec = sym_eigh(core, "Hessian core")
    if lam.size and lam[-1] < -PSD_SLACK * max(lam[0], 1e-30):
        raise ValueError("Hessian is not positive semi-definite")
    keep = cut_mask(lam, HESSIAN_CUT)
    return lam[keep], vec[:, keep]


def starting_point(problem: QpProblem) -> QpIterate:
    """Strictly interior cold start.

    p sits at the box center, blended toward the lower corner when the
    budget cuts through the center; slacks are the constraint slacks
    floored at 1 and multipliers start at 1.
    """
    low, high = problem.box_low, problem.box_high
    if np.any(low >= high):
        raise ValueError("box interior is empty")
    low_sum = low.sum()
    if problem.budget_rhs <= low_sum:
        raise ValueError("budget leaves no interior above the lower bounds")
    p = 0.5 * (low + high)
    margin = 0.1 * (problem.budget_rhs - low_sum)
    target = problem.budget_rhs - margin
    if p.sum() > target:
        theta = min(0.99, (p.sum() - target) / (p.sum() - low_sum))
        p = p + theta * (low - p)
    s = np.maximum(_constraint_apply(p) - _rhs_vector(problem), 1.0)
    lam = np.ones(2 * problem.n + 1)
    return QpIterate(p, s, lam)


def solve_qp(
    problem: QpProblem,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> QpSolution:
    """Primal-dual interior-point solve to KKT tolerance ``tol``.

    Each iteration builds one ``NormalMatrixAction`` and solves with it
    twice: an affine predictor (complementarity target 0), then a
    corrector with the centering target max(sigma mu, 0.1 tol),
    sigma = (mu_aff / mu)^3, and the second-order term ds_aff * dlam_aff.
    The floor keeps mu from racing past tol while the dual residual still
    needs accurate solves.  Primal and dual take one common step length,
    the fraction-to-boundary rule applied to slacks and multipliers
    together; separate lengths would add (alpha_p - alpha_d) H dp back
    into the dual residual.

    Stops when max(||r_d||_inf, ||r_p||_inf, mu) <= tol; raises
    NumericalFailure as soon as mu, r_d or r_p is not finite, and
    NonconvergenceError past ``max_iter``.
    """
    n = problem.n
    wrows = _woodbury_rows(problem)  # rejects a non-PSD Hessian
    it = starting_point(problem)
    b = _rhs_vector(problem)
    target_floor = CENTERING_FLOOR * tol

    p, s, lam = it.p, it.s, it.lam
    m = s.size
    last = {"mu": None, "r_dual": None, "r_primal": None}
    for k in range(max_iter):
        # The truncated H = W^T W throughout, so the Newton model and the
        # residuals describe the same (PSD-perturbed) problem.
        r_d = wrows.T @ (wrows @ p) + problem.g - _constraint_apply_t(lam, n)
        r_p = _constraint_apply(p) - s - b
        mu = float(s @ lam) / m
        err_d = _max_abs(r_d)
        err_p = _max_abs(r_p)
        if not (math.isfinite(mu) and math.isfinite(err_d) and math.isfinite(err_p)):
            raise NumericalFailure(
                f"interior-point iterate is not finite at iteration {k}",
                {"iteration": k, **last},
            )
        if max(err_d, err_p, mu) <= tol:
            return QpSolution(p, lam, k, mu, err_d, err_p)
        last = {"mu": mu, "r_dual": err_d, "r_primal": err_p}

        d = lam / s
        action = NormalMatrixAction(problem, QpIterate(p, s, lam), wrows)
        base = -r_d - _constraint_apply_t(d * r_p, n)

        def direction(q):
            # Newton step whose complementarity rows read
            # lam * ds + s * dlam = s * q.
            dp = action.solve(base + _constraint_apply_t(q, n))
            ds = _constraint_apply(dp) + r_p
            return dp, ds, q - d * ds

        dp, ds, dlam = direction(-lam)
        alpha = _step_to_boundary(s, ds, lam, dlam, 1.0)
        mu_aff = (1.0 - alpha) * mu + alpha * alpha * float(ds @ dlam) / m
        target = max((mu_aff / mu) ** 3 * mu, target_floor)
        dp, ds, dlam = direction((target - ds * dlam) / s - lam)

        alpha = _step_to_boundary(s, ds, lam, dlam, BOUNDARY_FACTOR)
        p = p + alpha * dp
        s = s + alpha * ds
        lam = lam + alpha * dlam

    raise NonconvergenceError(
        f"interior-point solve did not reach tol={tol} in {max_iter} iterations",
        {"mu": mu, "r_dual": err_d, "r_primal": err_p},
    )


def _step_to_boundary(s, ds, lam, dlam, factor: float) -> float:
    """Common step length: ``factor`` times the largest step keeping
    s and lam nonnegative, capped at 1."""
    worst = min(float(np.min(ds / s)), float(np.min(dlam / lam)))
    if worst >= 0.0:
        return 1.0
    return min(1.0, -factor / worst)
