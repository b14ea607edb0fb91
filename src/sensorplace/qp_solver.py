"""Interior-point solver for box-plus-budget quadratic programs.

Solves

    min  g^T p + 1/2 p^T H p
    s.t. box_low <= p <= box_high,  sum(p) <= budget_rhs,

the subproblem shape produced by the SQP outer loop.  The iterate works
on the constraints' three blocks, never on stacked (2n+1)-vectors: p and
the slacks and multipliers of the lower and upper bounds are n-vectors,
updated in place, and those of the budget are scalars.  The primal-dual
Newton step reduces to the normal equation

    (H + D + d_b 1 1^T) dp = y,

where D = lam_low/s_low + lam_up/s_up is diagonal and d_b = lam_bud/s_bud
a scalar, and y is assembled from the blocks' residuals.  Each iteration
is a Mehrotra predictor-corrector step: an affine predictor, the adaptive
centering sigma = (mu_aff / mu)^3 with the target sigma * mu floored at
0.1 tol, and a corrector carrying the second-order term
ds_aff * dlam_aff, followed by one step length common to primal and
dual.  Both solves use the one normal-matrix operator built per iteration.

H comes as its rows W (r x n), H = W^T W, which the caller cuts once
from its PSD Hessian with ``hessian_rows``; the residuals and the Newton
model then describe the same truncated H.
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
    "QpProblem",
    "QpIterate",
    "QpSolution",
    "NormalMatrixAction",
    "starting_point",
    "solve_qp",
    "hessian_rows",
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


@dataclass
class QpProblem:
    """Data of one box-plus-budget QP; ``rows`` is W (r x n), H = W^T W."""

    g: np.ndarray
    rows: np.ndarray
    box_low: np.ndarray
    box_high: np.ndarray
    budget_rhs: float

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        self.box_low = np.asarray(self.box_low, dtype=float)
        self.box_high = np.asarray(self.box_high, dtype=float)
        self.rows = np.asarray(self.rows, dtype=float)
        n = self.g.size
        if self.box_low.size != n or self.box_high.size != n:
            raise ValueError("box bounds must match the gradient length")
        if self.rows.ndim != 2 or self.rows.shape[1] != n:
            raise ValueError("Hessian rows must be a matrix with one column per weight")
        if np.any(self.box_low > self.box_high):
            raise ValueError("box_low must not exceed box_high")

    @property
    def n(self) -> int:
        return self.g.size


@dataclass
class QpIterate:
    """Interior-point state: primal p, slacks s > 0, multipliers lam > 0.

    s and lam stack the (lower, upper, budget) blocks as (2n+1)-vectors;
    ``solve_qp`` takes its start in this form and splits it into blocks.
    """

    p: np.ndarray
    s: np.ndarray
    lam: np.ndarray


@dataclass
class QpSolution:
    p: np.ndarray
    lam: np.ndarray
    iterations: int
    mu: float
    residual_dual: float
    residual_primal: float


def _max_abs(x: np.ndarray, shift: float = 0.0) -> float:
    """max |x + shift|, without forming x + shift: rounding is monotone,
    so fl(max x + shift) is the largest fl(x_i + shift)."""
    return float(max(x.max() + shift, -(x.min() + shift)))


class NormalMatrixAction:
    """Operator v -> (H + D + d_b 1 1^T) v and its inverse action.

    D is ``diag`` floored at DIAGONAL_FLOOR and d_b is ``budget_coeff``;
    in the interior-point loop D = lam_low/s_low + lam_up/s_up and
    d_b = lam_bud/s_bud.  The inverse uses the Woodbury identity against
    the problem's rows W, then a Sherman-Morrison update for the rank-one
    budget term.
    """

    def __init__(self, problem: QpProblem, diag: np.ndarray, budget_coeff: float):
        self.diag = np.maximum(diag, DIAGONAL_FLOOR)
        self.budget_coeff = float(budget_coeff)
        self._wrows = problem.rows
        self._dinv = 1.0 / self.diag
        self._small_chol = None
        if self._wrows.shape[0]:
            # the Woodbury core I + W D^{-1} W^T
            core = np.eye(self._wrows.shape[0]) + column_gram(self._wrows, self._dinv)
            try:
                self._small_chol = np.linalg.cholesky(core)
            except np.linalg.LinAlgError as err:
                raise NumericalFailure(
                    "inner Woodbury system is singular",
                    {"size": self._wrows.shape[0]},
                ) from err
        # X^{-1} 1 (D^{-1} 1 = dinv) and the denominator of the
        # Sherman-Morrison update.
        self._xinv_ones = self._woodbury(self._dinv)
        self._sm_denom = float(self._xinv_ones.sum()) + 1.0 / self.budget_coeff

    def apply(self, v: np.ndarray) -> np.ndarray:
        base = self._wrows.T @ (self._wrows @ v) + self.diag * v
        return base + self.budget_coeff * v.sum()

    def _woodbury(self, dinv_y: np.ndarray) -> np.ndarray:
        """(W^T W + D)^{-1} y from dinv_y = D^{-1} y."""
        if self._small_chol is None:
            return dinv_y
        t = self._wrows @ dinv_y
        z = np.linalg.solve(self._small_chol, t)
        z = np.linalg.solve(self._small_chol.T, z)
        return dinv_y - (self._wrows.T @ z) * self._dinv

    def _solve_once(self, y: np.ndarray) -> np.ndarray:
        z = self._woodbury(y * self._dinv)
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


# Reached only through this module's globals, never imported by name: the
# benchmark's tracer counts the Hessian rank by replacing it here.
def truncated_core(core: np.ndarray):
    """Eigendecomposition of the PSD core, keeping values above the
    HESSIAN_CUT; ValueError if it is not PSD, NumericalFailure if it is
    not finite."""
    lam, vec = sym_eigh(core, "Hessian core")
    if lam.size and lam[-1] < -PSD_SLACK * max(lam[0], 1e-30):
        raise ValueError("Hessian is not positive semi-definite")
    keep = cut_mask(lam, HESSIAN_CUT)
    return lam[keep], vec[:, keep]


def hessian_rows(core: np.ndarray, coef: np.ndarray | None = None) -> np.ndarray:
    """Rows W (r x n) with W^T W = coef^T core coef cut at HESSIAN_CUT
    (coef = I when omitted): W = sqrt(theta) V^T coef from the kept
    eigenpairs (theta, V) of the core.

    Scaling sqrt(theta) into the rows makes the QP's Woodbury core
    I + W D^{-1} W^T, far better conditioned than the raw form with
    theta^{-1} when theta spans many decades.  ValueError if the core is
    not PSD, NumericalFailure if it is not finite.
    """
    theta, basis = truncated_core(core)
    rows = np.sqrt(theta)[:, None] * basis.T
    return rows if coef is None else rows @ coef


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
    s = np.maximum(np.concatenate([p - low, high - p, [problem.budget_rhs - p.sum()]]), 1.0)
    lam = np.ones(2 * problem.n + 1)
    return QpIterate(p, s, lam)


def solve_qp(
    problem: QpProblem,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> QpSolution:
    """Primal-dual interior-point solve to KKT tolerance ``tol``.

    The iterate is p with the slacks and multipliers of the lower, upper
    and budget constraints as three blocks, s_l, s_u, lam_l, lam_u
    (n-vectors, updated in place) and s_b, lam_b (scalars); with
    d = lam / s and the primal residuals r_l = p - s_l - box_low,
    r_u = box_high - p - s_u, r_b = budget_rhs - 1^T p - s_b, every
    Newton step solves (H + D + d_b 1 1^T) dp = y with D = d_l + d_u.

    Each iteration builds one ``NormalMatrixAction`` and solves with it
    twice: an affine predictor (complementarity target 0), whose reduced
    right-hand side is

        y_aff = -(H p + g) - d_l r_l + d_u r_u + d_b r_b,

    then a corrector with the centering target max(sigma mu, 0.1 tol),
    sigma = (mu_aff / mu)^3, and the second-order term ds_aff * dlam_aff:
    with e = (target - ds_aff * dlam_aff) / s per block,
    y_cor = y_aff + e_l - e_u - e_b.
    The floor keeps mu from racing past tol while the dual residual still
    needs accurate solves.  Primal and dual take one common step length,
    the fraction-to-boundary rule applied to slacks and multipliers
    together; separate lengths would add (alpha_p - alpha_d) H dp back
    into the dual residual.

    Stops when max(||r_d||_inf, ||r_p||_inf, mu) <= tol; raises
    NumericalFailure as soon as mu, r_d or r_p is not finite, and
    NonconvergenceError past ``max_iter``.  ValueError unless tol is
    positive and finite and max_iter >= 1.  ``QpSolution.lam`` stacks
    (lam_l, lam_u, lam_b).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if not max_iter >= 1:
        raise ValueError("max_iter must be at least 1")
    n = problem.n
    wrows = problem.rows
    it = starting_point(problem)
    target_floor = CENTERING_FLOOR * tol
    m = 2 * n + 1

    # (lower, upper, budget) blocks; the vector blocks are updated in place
    p = it.p
    s = [it.s[:n], it.s[n : 2 * n], float(it.s[2 * n])]
    lam = [it.lam[:n], it.lam[n : 2 * n], float(it.lam[2 * n])]
    last = {"mu": None, "r_dual": None, "r_primal": None}
    for k in range(max_iter):
        grad = wrows.T @ (wrows @ p)
        grad += problem.g
        r_d = grad - lam[0]  # the dual residual less its scalar lam_b
        r_d += lam[1]
        r_l = p - s[0]
        r_l -= problem.box_low
        r_u = problem.box_high - p
        r_u -= s[1]
        r_b = problem.budget_rhs - float(p.sum()) - s[2]
        mu = _dot(s, lam) / m
        err_d = _max_abs(r_d, lam[2])
        err_p = max(_max_abs(r_l), _max_abs(r_u), abs(r_b))
        if not (math.isfinite(mu) and math.isfinite(err_d) and math.isfinite(err_p)):
            raise NumericalFailure(
                f"interior-point iterate is not finite at iteration {k}",
                {"iteration": k, **last},
            )
        if max(err_d, err_p, mu) <= tol:
            return QpSolution(p, np.concatenate([lam[0], lam[1], [lam[2]]]), k, mu, err_d, err_p)
        last = {"mu": mu, "r_dual": err_d, "r_primal": err_p}

        d = [lam[j] / s[j] for j in range(3)]
        action = NormalMatrixAction(problem, d[0] + d[1], d[2])

        def direction(y, q):
            # Newton step whose complementarity rows read
            # lam * ds + s * dlam = s * q; q (fresh blocks) becomes dlam.
            dp = action.solve(y)
            ds = [dp + r_l, r_u - dp, r_b - float(dp.sum())]
            for j in range(3):
                q[j] -= d[j] * ds[j]
            return dp, ds, q

        y = d[1] * r_u
        y -= d[0] * r_l
        y -= grad
        y += d[2] * r_b
        dp, ds, dlam = direction(y, [-lam[j] for j in range(3)])
        alpha = _step_to_boundary(s, ds, lam, dlam, 1.0)
        mu_aff = (1.0 - alpha) * mu + alpha * alpha * _dot(ds, dlam) / m
        target = max((mu_aff / mu) ** 3 * mu, target_floor)
        e = [(target - ds[j] * dlam[j]) / s[j] for j in range(3)]
        y += e[0]
        y -= e[1]
        y -= e[2]
        dp, ds, dlam = direction(y, [e[j] - lam[j] for j in range(3)])

        alpha = _step_to_boundary(s, ds, lam, dlam, BOUNDARY_FACTOR)
        dp *= alpha
        p += dp
        for j in range(3):
            s[j] += alpha * ds[j]
            lam[j] += alpha * dlam[j]

    raise NonconvergenceError(
        f"interior-point solve did not reach tol={tol} in {max_iter} iterations",
        {"mu": mu, "r_dual": err_d, "r_primal": err_p},
    )


def _dot(a, b) -> float:
    """Inner product of two (lower, upper, budget) block triples."""
    return float(a[0] @ b[0]) + float(a[1] @ b[1]) + a[2] * b[2]


def _step_to_boundary(s, ds, lam, dlam, factor: float) -> float:
    """Common step length: ``factor`` times the largest step keeping the
    slack and multiplier blocks nonnegative, capped at 1."""
    worst = min(
        float((ds[0] / s[0]).min()), float((ds[1] / s[1]).min()), ds[2] / s[2],
        float((dlam[0] / lam[0]).min()), float((dlam[1] / lam[1]).min()), dlam[2] / lam[2],
    )
    if worst >= 0.0:
        return 1.0
    return min(1.0, -factor / worst)
