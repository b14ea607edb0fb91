"""Sum-up rounding of relaxed designs and integrality-gap reporting.

The rounding rule scans the weights in a fixed order and sets

    w_int[i] = 1  iff  sum_{k<=i} w_rel[k] - sum_{k<=i-1} w_int[k] >= 0.5,

which keeps every prefix deviation |sum_{k<=i} (w_rel - w_int)| within
0.5, and hence the budget drift within 0.5 as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import LowRankKernel
from .objective import BayesSetup, DesignWeights, shared_engine

__all__ = [
    "RoundingPlan",
    "natural_plan",
    "angular_plan",
    "sum_up_round",
    "prefix_deviation",
    "GapReport",
    "integrality_gap",
]


@dataclass(frozen=True)
class RoundingPlan:
    """Scan order for the rounding rule; ``order`` is a permutation."""

    order: np.ndarray

    def __post_init__(self):
        order = np.asarray(self.order, dtype=int)
        object.__setattr__(self, "order", order)
        n = order.size
        if order.ndim != 1 or n == 0 or order.min() < 0 or order.max() >= n:
            raise ValueError("order must be a permutation of 0..n-1")
        # n entries in 0..n-1 are a permutation iff every index is hit
        seen = np.zeros(n, dtype=bool)
        seen[order] = True
        if not seen.all():
            raise ValueError("order must be a permutation of 0..n-1")


def natural_plan(n: int) -> RoundingPlan:
    return RoundingPlan(np.arange(n))


def angular_plan(angles) -> RoundingPlan:
    """Round sector weights in increasing beam angle."""
    angles = np.asarray(angles, dtype=float)
    return RoundingPlan(np.argsort(angles, kind="stable"))


def sum_up_round(weights: DesignWeights, plan: RoundingPlan | None = None) -> DesignWeights:
    """Binary design from relaxed weights by the prefix rule.

    Ties at exactly 0.5 round up.  A binary input is a fixed point.  The
    rule keeps sum(w_int) <= sum(w_rel) + 0.5, so the binary design gets
    the integer budget floor(budget + 0.5), which a fractional budget can
    exceed.

    Vectorized and exact at ties: with c_i the running sum along the
    order (summed left to right, as a scan would) and k_i its rounding
    half up, the scan's integer sum after i entries (i from 1) is
    cum_i = min(cum_{i-1} + 1, k_i), since cum_{i-1} <= k_i; unrolled,
    cum_i = i + min(0, min_{j<=i} (k_j - j)).  A naive floor(c + 0.5)
    is not the scan's rule once a float sum jumps past a half, e.g.
    15.499999999999998 + 1.0 = 16.5.
    """
    w = weights.w
    if plan is None:
        plan = natural_plan(w.size)
    if plan.order.size != w.size:
        raise ValueError("plan order length must match the weights")
    cum_rel = np.cumsum(w[plan.order])
    whole = np.floor(cum_rel)
    # c - floor(c) is exact, so this is the scan's test c - cum >= 0.5
    k = whole + (cum_rel - whole >= 0.5)
    i = np.arange(1.0, w.size + 1.0)
    cum_int = i + np.minimum(np.minimum.accumulate(k - i), 0.0)
    w_int = np.empty_like(w)
    w_int[plan.order] = np.diff(cum_int, prepend=0.0)
    budget = float(math.floor(weights.budget + 0.5))
    return DesignWeights(w_int, budget, row_group=weights.row_group, binary=True)


def prefix_deviation(w_rel: np.ndarray, w_int: np.ndarray, order: np.ndarray | None = None) -> float:
    """max_i |sum_{k<=i} (w_rel[k] - w_int[k])| along the scan order."""
    w_rel = np.asarray(w_rel, dtype=float)
    w_int = np.asarray(w_int, dtype=float)
    if order is None:
        order = np.arange(w_rel.size)
    diff = np.cumsum(w_rel[order] - w_int[order])
    return float(np.abs(diff).max())


@dataclass(frozen=True)
class GapReport:
    surrogate: float


def integrality_gap(
    lowrank: LowRankKernel,
    setup: BayesSetup,
    w_rel: DesignWeights,
    w_int: DesignWeights,
) -> GapReport:
    """Objective increase of the rounded design over the relaxed one.

    The gap phi(w_int) - phi(w_rel) is taken on ``lowrank``'s engine: a
    Chebyshev surrogate, or an exact factor such as ``LidarProblem.exact``.
    It is nonnegative when w_rel minimizes the relaxation.  The SQP's
    stopping test does not certify that, so a stopped w_rel can sit
    slightly above the minimum and the gap read slightly negative.  A
    dense F's gap is two ``dense_objective_value`` calls; the CLI's
    ``design`` and ``gap-sweep`` report it that way.
    """
    if w_rel.n_weights != w_int.n_weights:
        raise ValueError("weight vectors must have the same length")
    # the engine SQP used; w_rel first, as its last point is cached
    engine = shared_engine(lowrank, setup, w_rel.row_group)
    value_rel = engine.value(w_rel.w)
    return GapReport(float(engine.value(w_int.w) - value_rel))
