"""Posterior-covariance design criteria and their derivatives.

For a kernel matrix F, weights w, and noise/prior ratio alpha, the
posterior covariance of the Bayesian linear inverse problem is

    Gamma_post = sigma2_noise * (F^T W F + alpha I)^(-1),

with W = diag of the per-row weights.  The A-criterion is its trace, the
D-criterion its log-determinant.  Each quantity has one route:
``PosteriorEngine`` evaluates the eigenvalues, value, gradient and
Hessian through the low-rank surrogate F_s.  With R~^T R~ = B^T B for
the input factor B, R~ (rho x N_out) cut to B's numerical rank rho, and
F_s^T W F_s = B G B^T, all of them come from one eigendecomposition of
the rho x rho core R~ G R~^T.  Both design shapes form that core on rho
rows: ungrouped designs sum it over column blocks of coef_out as
(R~ C_b W_b)(R~ C_b)^T, grouped ones weight precomputed rho x rho group
Grams.  Each design shape has one derivative
route: ungrouped designs interpolate the gradient and Hessian from the
node-space matrices M1, M2 (the paper's O(n log^2 n) route); grouped
designs get the exact gradient of the surrogate and its exact Hessian
from the rho x rho per-group Gram matrices, at
O(n_w rho^2 min(n_w, rho^2)) per call.  Both hand the Hessian on as the
rows W of ``QpProblem.rows``, H = W^T W cut at ``HESSIAN_CUT`` by
``qp_solver.hessian_rows``.  ``dense_objective_value`` scores a design
on an explicit F by one dense eigendecomposition; it is the dense check
of design and gap-sweep on small problems, and the tests' oracles build
on it (the oracle command scores on its exact factor's engine).

Space-time designs attach one weight to a group of rows (all measurement
times along one beam).  Groups are contiguous runs of rows, numbered
0..n_groups-1 in row order, so every group sum is a sum over a slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import LowRankKernel
from . import qp_solver
from .gram import SPECTRUM_CUT, column_gram, column_sq_norms, cut_mask, sym_eigh

__all__ = [
    "DesignWeights",
    "BayesSetup",
    "InterpolatedDerivatives",
    "PosteriorEngine",
    "shared_engine",
    "dense_objective_value",
]

# Solver round-off can push weights slightly negative; anything beyond
# this is a real constraint violation.
WEIGHT_CLAMP = 1e-12


@dataclass
class DesignWeights:
    """Relaxed or binary design weights with a total budget.

    ``row_group`` maps each row of F to its weight index for space-time
    designs (None means one weight per row); each weight owns one
    contiguous run of rows, in order.  Weights are clamped into
    [0, 1] within round-off; true violations raise.
    """

    w: np.ndarray
    budget: float
    row_group: np.ndarray | None = None
    binary: bool = False

    def __post_init__(self):
        w = np.array(self.w, dtype=float, copy=True)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if w.min() < -WEIGHT_CLAMP or w.max() > 1.0 + WEIGHT_CLAMP:
            raise ValueError("weights must lie in [0, 1]")
        np.clip(w, 0.0, 1.0, out=w)
        if self.binary and not np.all((w == 0.0) | (w == 1.0)):
            raise ValueError("binary weights must be exactly 0 or 1")
        if w.sum() > self.budget + 1e-9 * max(1.0, self.budget):
            raise ValueError("weights exceed the budget")
        self.w = w
        if self.row_group is not None:
            rg = np.asarray(self.row_group, dtype=int)
            _check_groups(rg, w.size)
            self.row_group = rg

    @property
    def n_weights(self) -> int:
        return self.w.size

    def row_weights(self) -> np.ndarray:
        if self.row_group is None:
            return self.w
        return self.w[self.row_group]


@dataclass(frozen=True)
class BayesSetup:
    """Noise/prior constants and criterion choice.

    ``alpha`` is sigma2_noise / sigma2_prior.
    """

    alpha: float
    sigma2_noise: float = 1.0
    criterion: str = "A"

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0.0 < self.sigma2_noise < math.inf:
            raise ValueError("sigma2_noise must be positive and finite")
        if self.criterion not in ("A", "D"):
            raise ValueError("criterion must be 'A' or 'D'")


@dataclass(frozen=True)
class InterpolatedDerivatives:
    """Derivative data of the surrogate objective.

    ``m1[i, j] = ftil_i^T (F_s^T W F_s + alpha I)^(-1) ftil_j`` and ``m2``
    the same with the squared inverse, where ftil_i are the columns of
    coef_in^T node_values^T.  ``hessian_rows`` are the rows W (k x n_w)
    that ``QpProblem.rows`` takes, with W^T W the weight Hessian cut at
    ``HESSIAN_CUT``: for ungrouped designs the interpolated
    coef_out^T htilde coef_out with node-space core htilde
    (2 sigma2 * m1 o m2 for the A-criterion, m1 o m1 for D); for grouped
    designs the exact Hessian.  ``gradient`` has one entry per weight.
    """

    m1: np.ndarray
    m2: np.ndarray
    hessian_rows: np.ndarray
    gradient: np.ndarray


def _check_groups(row_group: np.ndarray, n_groups: int) -> np.ndarray:
    """First row of each group; raises unless the groups are contiguous
    runs of rows numbered 0..n_groups-1 in row order."""
    if row_group.ndim != 1 or row_group.size == 0:
        raise ValueError("row_group must be a nonempty vector")
    steps = row_group[1:] - row_group[:-1]  # steps[j] = 1 where row j + 1 starts a group
    if (
        row_group[0] != 0
        or row_group[-1] != n_groups - 1
        or (steps.size and (steps.min() < 0 or steps.max() > 1))
    ):
        raise ValueError("row_group must number contiguous runs of rows 0..n_groups-1 in order")
    return np.concatenate(([0], np.flatnonzero(steps) + 1))


class PosteriorEngine:
    """Repeated-evaluation workhorse for one surrogate kernel.

    Keeps only a factor R~ (rho x N_out, rho the numerical rank of B)
    with R~^T R~ = B^T B for the weight-independent input factor
    B = coef_in^T node_values^T, which the surrogate computes once
    (``LowRankKernel.input_r``) for every engine built on it.  With
    G = coef_out W coef_out^T, B G B^T = Q (R~ G R~^T) Q^T for some Q with
    orthonormal columns, so the nonzero spectrum of F_s^T W F_s is that of
    the core K = R~ G R~^T and each evaluation costs one rho x rho
    eigendecomposition.  With K = V diag(lam) V^T and T = V^T R~,

        M_k = B^T (F_s^T W F_s + alpha I)^(-k) B = T^T diag((alpha + lam)^(-k)) T,

    where a truncated eigenvalue counts as 0.  With row groups, the
    rho x rho group Grams R~ G_k R~^T are precomputed from R~ coef_out,
    applied from the surrogate's spatial coefficients
    (``LowRankKernel.mul_coef_out``) so coef_out itself is never formed,
    K is their weighted sum, and the gradient and a rank-k factor of the
    exact Hessian, cut at ``HESSIAN_CUT``, come from V^T (R~ G_k R~^T) V,
    at O(n_w rho^2 min(n_w, rho^2)); without groups G is summed over
    column blocks C_b of coef_out, which the engine forms and keeps,
    straight into K as the sum of (R~ C_b W_b)(R~ C_b)^T, so neither the
    N_out x N_out G nor R~ coef_out (rho x n) is formed, and the
    derivatives are interpolated in node space from M1 and M2.

    The engine keeps the last weight vector with its core
    eigendecomposition, so ``value`` then ``derivatives`` at one point
    (an accepted line-search step) form one Gram.  ``shared_engine``
    gives each surrogate one engine per setup and grouping.
    """

    def __init__(self, lowrank: LowRankKernel, setup: BayesSetup, row_group=None):
        self.setup = setup
        self._last = None  # (w, lam, vec) of the last core eigendecomposition
        self.n_ambient = lowrank.n_cols
        self.r_factor = lowrank.input_r  # (rho, N_out)
        if row_group is not None:
            row_group = np.array(row_group, dtype=int)  # a key of shared_engine
            if row_group.size != lowrank.n_rows:
                raise ValueError("row_group does not match the row count")
            self.n_weights = int(row_group.max()) + 1
            starts = _check_groups(row_group, self.n_weights)
            # R~ coef_out, (rho, n_rows), from the surrogate's factors and not kept
            rc = np.split(lowrank.mul_coef_out(self.r_factor), starts[1:], axis=1)
            self.group_grams = np.stack([c @ c.T for c in rc])
            self.coef_rows = None
        else:
            self.coef_rows = lowrank.coef_out
            self.n_weights = self.coef_rows.shape[1]
            self.group_grams = None
        self.row_group = row_group

    def weighted_gram(self, w: np.ndarray) -> np.ndarray:
        """The rho x rho core R~ G R~^T, G = coef_out W coef_out^T: with
        groups the weighted sum of the group Grams, without groups summed
        over column blocks C_b of coef_out as (R~ C_b W_b)(R~ C_b)^T, so
        neither G nor R~ coef_out is formed."""
        w = np.clip(np.asarray(w, dtype=float), 0.0, None)
        if self.group_grams is not None:
            return np.tensordot(w, self.group_grams, axes=1)
        return column_gram(self.coef_rows, w, left=self.r_factor)

    def _core_eigh(self, w):
        w = np.asarray(w, dtype=float)
        if self._last is not None and np.array_equal(self._last[0], w):
            return self._last[1], self._last[2]
        lam, vec = sym_eigh(self.weighted_gram(w), "posterior core")
        self._last = (w.copy(), lam, vec)
        return lam, vec

    def eigenvalues(self, w) -> np.ndarray:
        lam, _ = self._core_eigh(w)
        return _truncate(lam)

    def value(self, w) -> float:
        return _value_from_eigs(self.eigenvalues(w), self.setup, self.n_ambient)

    def derivatives(self, w):
        """Objective value, per-weight gradient, and the weight Hessian's rows.

        With d1 = (alpha + lam)^(-1/2), d = (alpha + lam)^(-1) for the
        A-criterion (d = d1 for D) and a row's projection t_i = T c_i,
        the gradient entry is -sigma2 * sum_a d_a^2 t_i[a]^2 (D: no sigma2)
        and the Hessian core is 2 sigma2 * M1 o Md (D: M1 o M1).
        Ungrouped: the Hessian coef_out^T core coef_out is interpolated in
        node space, and its rows are cut from the core
        (``qp_solver.hessian_rows``).  Grouped: with G^_k = T G_k T^T
        = V^T (R~ G_k R~^T) V,
        g_k = -sigma2 * sum_a d_a^2 G^_k[a, a] and the exact H = 2 sigma2 * X X^T,
        X_k = vec(d1_a d_b G^_k[a, b]), reaches the QP as rank-k rows
        (``_grouped_rows``).  Both cut at ``HESSIAN_CUT``.
        """
        setup = self.setup
        lam, vec = self._core_eigh(w)
        kept = _truncate(lam)
        value = _value_from_eigs(kept, setup, self.n_ambient)
        inv = np.full(lam.size, 1.0 / setup.alpha)
        inv[: kept.size] = 1.0 / (setup.alpha + kept)
        t = vec.T @ self.r_factor
        d1 = np.sqrt(inv)
        s1 = d1[:, None] * t
        s2 = inv[:, None] * t
        m1 = s1.T @ s1
        m2 = s2.T @ s2
        if setup.criterion == "A":
            d, md, g_scale, h_scale = inv, m2, setup.sigma2_noise, 2.0 * setup.sigma2_noise
        else:
            d, md, g_scale, h_scale = d1, m1, 1.0, 1.0
        if self.group_grams is None:
            gradient = -g_scale * column_sq_norms(d[:, None] * t, self.coef_rows)
            rows = qp_solver.hessian_rows(h_scale * (m1 * md), self.coef_rows)
        else:
            ghat = vec.T @ self.group_grams @ vec  # (n_weights, rho, rho)
            gradient = -g_scale * np.einsum("kaa,a->k", ghat, d * d)
            x = (ghat * np.outer(d1, d)).reshape(self.n_weights, -1)
            rows = _grouped_rows(x, h_scale)
        return value, InterpolatedDerivatives(m1, m2, rows, gradient)


def _grouped_rows(x: np.ndarray, scale: float) -> np.ndarray:
    """Rows W with W^T W = scale * X X^T cut at ``HESSIAN_CUT``.

    Only the smaller of scale * X^T X and scale * X X^T, which share their
    nonzero eigenvalues theta, is decomposed (``qp_solver.truncated_core``):
    with X^T X = V theta V^T the rows are W = sqrt(scale) V_k^T X^T, with
    X X^T = U theta U^T they are W = sqrt(theta_k) U_k^T.
    """
    n_w, m = x.shape
    if m <= n_w:
        _, v = qp_solver.truncated_core(scale * (x.T @ x))
        return math.sqrt(scale) * (v.T @ x.T)
    return qp_solver.hessian_rows(scale * (x @ x.T))


def shared_engine(lowrank: LowRankKernel, setup: BayesSetup, row_group=None) -> PosteriorEngine:
    """The surrogate's engine for this setup and grouping.

    The last engine built is kept on the surrogate, next to its cached
    ``input_r``, and reused while the setup and the grouping are equal;
    otherwise a new engine replaces it.  SQP and the integrality gap of
    one design thus share one engine and its last-point cache.
    """
    engine = vars(lowrank).get("_engine")
    # array_equal takes None as equal to None only
    if engine is None or engine.setup != setup or not np.array_equal(engine.row_group, row_group):
        engine = PosteriorEngine(lowrank, setup, row_group)
        vars(lowrank)["_engine"] = engine
    return engine


def _truncate(lam: np.ndarray) -> np.ndarray:
    lam = np.clip(lam, 0.0, None)
    return lam[cut_mask(lam, SPECTRUM_CUT)]


def _value_from_eigs(lam: np.ndarray, setup: BayesSetup, n: int) -> float:
    """Design criterion from the r kept eigenvalues of F^T W F.

    A: sigma2 * ((n - r)/alpha + sum 1/(alpha + lam_i));
    D: sum log(sigma2/(alpha + lam_i)) + (n - r) log(sigma2/alpha).
    """
    alpha, s2 = setup.alpha, setup.sigma2_noise
    r = lam.size
    if setup.criterion == "A":
        return float(s2 * ((n - r) / alpha + np.sum(1.0 / (alpha + lam))))
    return float(np.sum(np.log(s2 / (alpha + lam))) + (n - r) * np.log(s2 / alpha))


def dense_objective_value(f_matrix: np.ndarray, weights: DesignWeights, setup: BayesSetup) -> float:
    """Exact criterion value from a dense kernel matrix."""
    f = np.asarray(f_matrix, dtype=float)
    v = np.clip(weights.row_weights(), 0.0, None)
    root = np.sqrt(v)[:, None] * f
    gram = root.T @ root
    lam = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    return _value_from_eigs(lam, setup, f.shape[1])

