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
The operator forms the small Woodbury core I + W D^{-1} W^T once per
iteration, in O(n r^2), and keeps no factor of it: each solve solves
the r x r core directly and finishes with a rank-one Sherman-Morrison
update for the budget term, in O(n r + r^3).

At large n an iteration is bound by memory traffic, so it is laid out to
stream each n-wide array as few times as it can.  The iterate is updated
in place in the starting point's arrays, which the solution returns, and
every other n-wide array of the loop and of its operator is a row of one
workspace allocated once per ``solve_qp`` call, so an iteration
allocates nothing wider than a column block.  The elementwise work runs
in phases, each one loop over ``gram.COLUMN_BLOCK``-column slices:
residuals with D and the predictor's right-hand side; the predictor's ds
and dlam with the step ratios and ds^T dlam; the corrector's right-hand
side; the corrector's ds and dlam with the step ratios; the update.  Products with W and W^T run over the
full width, where BLAS threads them.  An iteration reads W 9 times: the
pass that forms the Woodbury core with W D^{-1} 1, then per solve W x and
W^T z, and the refinement check's W x and W^T (W x).  The first solve's
W^T product also carries X^{-1} 1, and H p is carried from the
corrector's check, H p + alpha H dp; a refinement step after that check
costs 4 more passes and leaves H p to be formed afresh (2 passes) at the
next iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .exceptions import NonconvergenceError, NumericalFailure
from .gram import COLUMN_BLOCK, HESSIAN_CUT, cut_mask, sym_eigh

__all__ = [
    "QpProblem",
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
class QpSolution:
    """The stopping iterate: p, and the multipliers ``lam`` and slacks
    ``s`` stacked as (lower, upper, budget); ``mu``, ``residual_dual``
    and ``residual_primal`` are the residuals of that iterate."""

    p: np.ndarray
    lam: np.ndarray
    s: np.ndarray
    iterations: int
    mu: float
    residual_dual: float
    residual_primal: float


def _max_abs(top: float, bottom: float, shift: float = 0.0) -> float:
    """max |x + shift| from max x and min x, without forming x + shift:
    rounding is monotone, so fl(max x + shift) is the largest fl(x_i + shift)."""
    return float(max(top + shift, -(bottom + shift)))


def _blocks(n: int) -> list:
    """COLUMN_BLOCK-column slices covering n columns."""
    return [slice(j, j + COLUMN_BLOCK) for j in range(0, n, COLUMN_BLOCK)]


class NormalMatrixAction:
    """Inverse action of the operator H + D + d_b 1 1^T.

    D is ``diag`` floored at DIAGONAL_FLOOR and d_b is ``budget_coeff``;
    in the interior-point loop D = lam_low/s_low + lam_up/s_up and
    d_b = lam_bud/s_bud.  The inverse uses the Woodbury identity against
    the problem's rows W, then a Sherman-Morrison update for the rank-one
    budget term.  The r x r Woodbury core I + W D^{-1} W^T is formed once
    and solved directly on each call, with no factor kept.

    The operator's n-wide arrays are the ROWS rows of ``work``, a
    (ROWS, n) buffer that ``solve_qp`` hands in from its workspace.
    Products with W and W^T run over the full width, where BLAS threads
    them; the elementwise work between them runs in COLUMN_BLOCK-blocked
    passes.  After ``solve``, ``x_sum`` is 1^T x of the returned x, and
    ``hx`` is H x when the last refinement check formed it for that x
    (None when a refinement step followed the check).
    """

    ROWS = 5

    def __init__(self, problem: QpProblem, diag: np.ndarray, budget_coeff: float,
                 work: np.ndarray):
        self.diag, self._dinv, self._xinv_ones = work[:3]
        # The refinement residual and H x.  The W^T products of the first
        # solve (two vectors) and of a refinement step, and that step,
        # also go to these rows, each used up before the rows are reused.
        self._back = work[3:5]
        self._residual, self._hx = self._back
        self.budget_coeff = float(budget_coeff)
        self._wrows = wrows = problem.rows
        self._blocks = _blocks(problem.n)
        r = wrows.shape[0]
        # One pass: floor D, invert it, and sum the Woodbury core
        # I + W D^{-1} W^T and W D^{-1} 1, the forward product of X^{-1} 1.
        self._core = np.eye(r)
        self._w_dinv = np.zeros(r)
        for b in self._blocks:
            block = wrows[:, b]
            dinv = np.maximum(diag[b], DIAGONAL_FLOOR, out=self.diag[b])
            dinv = np.divide(1.0, dinv, out=self._dinv[b])
            self._core += (block * dinv) @ block.T
            self._w_dinv += block @ dinv
        if not np.isfinite(self._core).all():
            raise NumericalFailure("inner Woodbury system is not finite", {"size": r})
        # X^{-1} 1 and the Sherman-Morrison denominator 1^T X^{-1} 1 + 1/d_b
        # come with the first solve, which shares its back product over W.
        self._sm_denom = None
        self.x_sum = None
        self.hx = None

    def _solve_once(self, y: np.ndarray, z: np.ndarray, x: np.ndarray) -> float:
        """Solve (H + D + d_b 1 1^T) z = y into ``z``, add z into ``x``
        and return 1^T x; z is x itself on the first call and a
        refinement step after.  The first call also forms
        X^{-1} 1 = (W^T W + D)^{-1} 1, its W^T product sharing the call's
        back product."""
        wrows, dinv, blocks = self._wrows, self._dinv, self._blocks
        forward = wrows @ np.multiply(y, dinv, out=z)
        first = self._sm_denom is None
        rhs = np.column_stack([forward, self._w_dinv]) if first else forward[:, None]
        coef = np.linalg.solve(self._core, rhs).T
        back = np.matmul(coef, wrows, out=self._back[2 - coef.shape[0]:])
        z_sum = ones_sum = 0.0
        for b in blocks:
            zb = z[b]
            zb -= back[0, b] * dinv[b]
            z_sum += zb.sum()
            if first:
                ones = np.subtract(dinv[b], back[1, b] * dinv[b], out=self._xinv_ones[b])
                ones_sum += ones.sum()
        if first:
            self._sm_denom = float(ones_sum) + 1.0 / self.budget_coeff
        # Sherman-Morrison: z -= c X^{-1} 1.  Folding the budget row into
        # W instead (core diag(I, 1/d_b) + U D^{-1} U^T with U = [W; 1^T],
        # or I + U D^{-1} U^T with a sqrt(d_b)-scaled row) breaks down as
        # d_b grows: on a 5-weight QP at tol 1e-10, d_b reached 1e39 and
        # the operator's residual 1e101, or the scaled form raised
        # NumericalFailure.  Here the denominator sums the same X^{-1} 1
        # that the update subtracts, which likely keeps 1^T x consistent
        # however large d_b is.
        c = float(z_sum) / self._sm_denom
        x_sum = 0.0
        for b in blocks:
            zb = z[b]
            zb -= self._xinv_ones[b] * c
            xb = x[b]
            if z is not x:
                xb += zb
            x_sum += xb.sum()
        return float(x_sum)

    def solve(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Inverse action into ``out``, with iterative refinement against
        the exact operator; the Woodbury path loses digits when the
        interior-point diagonal spans many orders of magnitude.

        Each refinement check forms H x = W^T (W x), then the residual
        y - (H + D + d_b 1 1^T) x and its extremes in one pass."""
        x = out
        self.x_sum = self._solve_once(y, x, x)
        for _ in range(REFINE_STEPS):
            hx = np.matmul(self._wrows @ x, self._wrows, out=self._hx)
            shift = self.budget_coeff * self.x_sum
            worst = 0.0
            for b in self._blocks:
                res = np.multiply(self.diag[b], x[b], out=self._residual[b])
                res += hx[b]
                res += shift
                np.subtract(y[b], res, out=res)
                worst = np.maximum(worst, _max_abs(res.max(), res.min()))  # keeps a NaN
            # max|res| <= 1e-14 max(1, max|y|), reading y only when the
            # residual is above 1e-14
            if worst <= 1e-14 or worst <= 1e-14 * _max_abs(y.max(), y.min()):
                self.hx = hx
                return x
            self.x_sum = self._solve_once(self._residual, self._residual, x)
        self.hx = None
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


def starting_point(problem: QpProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strictly interior cold start (p, s, lam), with s and lam stacked
    as (lower, upper, budget) (2n+1)-vectors.

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
    return p, s, lam


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
    positive and finite and max_iter >= 1.  ``QpSolution.lam`` and
    ``.s`` stack (lam_l, lam_u, lam_b) and (s_l, s_u, s_b).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if not max_iter >= 1:
        raise ValueError("max_iter must be at least 1")
    n = problem.n
    wrows, g, low, high = problem.rows, problem.g, problem.box_low, problem.box_high
    p, s_stack, lam_stack = starting_point(problem)
    target_floor = CENTERING_FLOOR * tol
    m = 2 * n + 1
    blocks = _blocks(n)

    # The iterate is updated in the starting point's arrays, which the
    # solution returns; the lower and upper blocks of s and lam are row
    # pairs of their stacked vectors, so one call covers both.  Every
    # other n-wide array is a row of one workspace, r and dlam again as
    # row pairs; the last NormalMatrixAction.ROWS rows are the
    # operator's, its diag first.  ds = (dp + r_l, r_u - dp) is formed
    # per block in one (2, COLUMN_BLOCK) buffer.
    s, s_b = s_stack[: 2 * n].reshape(2, n), float(s_stack[2 * n])
    lam, lam_b = lam_stack[: 2 * n].reshape(2, n), float(lam_stack[2 * n])
    work = np.empty((7 + NormalMatrixAction.ROWS, n))
    hp, y, dp = work[0], work[1], work[2]
    r, dlam = work[3:5], work[5:7]
    action_work = work[7:]
    ds_buffer = np.empty((2, min(n, COLUMN_BLOCK)))
    arrays = {"p": p, "hp": hp, "y": y, "dp": dp, "diag": action_work[0], "g": g,
              "low": low, "high": high, "s": s, "lam": lam, "r": r, "dlam": dlam}
    for name in ("s", "lam", "r", "dlam"):
        arrays[name + "_l"], arrays[name + "_u"] = arrays[name]
    # each block's views of every array, made once
    cols = []
    for b in blocks:
        c = SimpleNamespace(**{name: a[..., b] for name, a in arrays.items()})
        c.ds = ds_buffer[:, : c.p.size]
        c.ds_l, c.ds_u = c.ds
        cols.append(c)
    p_sum = float(p.sum())
    hp_carried = False  # whether hp holds H p, carried from the last corrector
    last = {"mu": None, "r_dual": None, "r_primal": None}
    for k in range(max_iter):
        # Residuals, D and the predictor's right-hand side, one pass.
        if not hp_carried:
            np.matmul(wrows @ p, wrows, out=hp)
        r_b = problem.budget_rhs - p_sum - s_b
        d_b = lam_b / s_b
        stats = []
        for c in cols:
            grad = c.hp + c.g
            r_d = grad - c.lam_l  # the dual residual less its scalar lam_b
            r_d += c.lam_u
            np.subtract(c.p, c.s_l, out=c.r_l)
            np.subtract(c.r_l, c.low, out=c.r_l)
            np.subtract(c.high, c.p, out=c.r_u)
            np.subtract(c.r_u, c.s_u, out=c.r_u)
            d = c.lam / c.s
            np.add(d[0], d[1], out=c.diag)
            d *= c.r
            np.subtract(d[1], d[0], out=c.y)
            np.subtract(c.y, grad, out=c.y)
            np.add(c.y, d_b * r_b, out=c.y)
            stats.append((r_d.max(), r_d.min(), c.r.max(), c.r.min(),
                          c.s_l @ c.lam_l + c.s_u @ c.lam_u))
        top_d, bottom_d, top_p, bottom_p, dots = zip(*stats)
        mu = (float(sum(dots)) + s_b * lam_b) / m
        err_d = _max_abs(max(top_d), min(bottom_d), lam_b)
        err_p = max(_max_abs(max(top_p), min(bottom_p)), abs(r_b))
        # every block's extremes, as max and min may pass over a NaN
        if not (math.isfinite(mu) and np.isfinite(stats).all() and math.isfinite(err_p)):
            raise NumericalFailure(
                f"interior-point iterate is not finite at iteration {k}",
                {"iteration": k, **last},
            )
        if max(err_d, err_p, mu) <= tol:
            s_stack[2 * n], lam_stack[2 * n] = s_b, lam_b
            return QpSolution(p, lam_stack, s_stack, k, mu, err_d, err_p)
        last = {"mu": mu, "r_dual": err_d, "r_primal": err_p}

        action = NormalMatrixAction(problem, arrays["diag"], d_b, action_work)

        # Affine predictor: ds = (dp + r_l, r_u - dp) and
        # dlam = -lam - d ds = lam (-1 - ds/s), whose ratio to lam is
        # -1 - ds/s, with the product ds * dlam (kept in dlam's rows) and
        # its sum, one pass.
        action.solve(y, dp)
        ds_b = r_b - action.x_sum
        dlam_b = -lam_b - d_b * ds_b
        worst, dots = [ds_b / s_b, dlam_b / lam_b], 0.0
        for c in cols:
            np.add(c.dp, c.r_l, out=c.ds_l)
            np.subtract(c.r_u, c.dp, out=c.ds_u)
            ratio = c.ds / c.s
            worst += ratio.min(), -1.0 - ratio.max()
            np.subtract(-1.0, ratio, out=ratio)
            np.multiply(c.lam, ratio, out=c.dlam)
            np.multiply(c.ds, c.dlam, out=c.dlam)
            dots += c.dlam.sum()
        alpha = _step_length(worst, 1.0)
        mu_aff = (1.0 - alpha) * mu + alpha * alpha * (float(dots) + ds_b * dlam_b) / m
        target = max((mu_aff / mu) ** 3 * mu, target_floor)

        # Corrector right-hand side y + e_l - e_u - e_b with
        # e = (target - ds * dlam) / s, one pass; e replaces ds * dlam.
        e_b = (target - ds_b * dlam_b) / s_b
        for c in cols:
            e = np.subtract(target, c.dlam, out=c.dlam)
            np.divide(e, c.s, out=e)
            np.add(c.y, c.dlam_l, out=c.y)
            np.subtract(c.y, c.dlam_u, out=c.y)
            np.subtract(c.y, e_b, out=c.y)

        # Corrector: ds and dlam = (e - lam) - lam ds/s with the step
        # ratios, one pass.
        action.solve(y, dp)
        ds_b = r_b - action.x_sum
        dlam_b = (e_b - lam_b) - d_b * ds_b
        worst = [ds_b / s_b, dlam_b / lam_b]
        for c in cols:
            np.add(c.dp, c.r_l, out=c.ds_l)
            np.subtract(c.r_u, c.dp, out=c.ds_u)
            ratio = c.ds / c.s
            worst.append(ratio.min())
            ratio *= c.lam
            np.subtract(c.dlam, c.lam, out=c.dlam)
            np.subtract(c.dlam, ratio, out=c.dlam)
            worst.append((c.dlam / c.lam).min())
        alpha = _step_length(worst, BOUNDARY_FACTOR)

        # Update, one pass, with ds formed again from dp; H p moves by
        # alpha H dp when the corrector's last refinement check formed
        # H dp, and is formed afresh at the next iteration otherwise.
        hdp = action.hx
        p_sum = 0.0
        for c, b in zip(cols, blocks):
            np.add(c.dp, c.r_l, out=c.ds_l)
            np.subtract(c.r_u, c.dp, out=c.ds_u)
            np.multiply(c.dp, alpha, out=c.dp)
            np.add(c.p, c.dp, out=c.p)
            np.add(c.s, alpha * c.ds, out=c.s)
            np.add(c.lam, alpha * c.dlam, out=c.lam)
            if hdp is not None:
                np.add(c.hp, alpha * hdp[b], out=c.hp)
            p_sum += c.p.sum()
        s_b += alpha * ds_b
        lam_b += alpha * dlam_b
        p_sum = float(p_sum)
        hp_carried = hdp is not None

    raise NonconvergenceError(
        f"interior-point solve did not reach tol={tol} in {max_iter} iterations",
        {"mu": mu, "r_dual": err_d, "r_primal": err_p},
    )


def _step_length(worst_ratios: list, factor: float) -> float:
    """Common step length: ``factor`` times the largest step keeping the
    slack and multiplier blocks nonnegative, capped at 1, from each
    block's smallest ratio ds/s and dlam/lam."""
    worst = min(worst_ratios)
    if worst >= 0.0:
        return 1.0
    return min(1.0, -factor / worst)
