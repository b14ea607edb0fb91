import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from sensorplace import (
    BayesSetup,
    DesignWeights,
    RectDomain,
    RoundingPlan,
    angular_plan,
    build_lowrank,
    build_mesh,
    gaussian_difference_kernel,
    integrality_gap,
    natural_plan,
    prefix_deviation,
    sum_up_round,
)
from oracles import sum_up_round_scan

# Relaxed values whose running sums land on or next to halves.
TIE_VALUES = [0.0, 0.1, 0.2, 0.25, 0.3, 1 / 3, 0.5, 2 / 3, 0.7, 0.75, 0.9, 1.0]


def weights(w, budget=None):
    w = np.asarray(w, dtype=float)
    return DesignWeights(w, budget if budget is not None else float(w.size))


class TestSumUpRound:
    def test_hand_example(self):
        rounded = sum_up_round(weights([0.4, 0.4, 0.4]))
        assert_allclose(rounded.w, [0.0, 1.0, 0.0])

    def test_binary_fixed_point(self):
        w = weights([1.0, 0.0, 1.0, 0.0])
        rounded = sum_up_round(w)
        assert np.array_equal(rounded.w, w.w)

    def test_tie_rounds_up(self):
        rounded = sum_up_round(weights([0.5, 0.5]))
        assert_allclose(rounded.w, [1.0, 0.0])

    def test_prefix_bound_random(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 200))
            w = rng.uniform(0, 1, n)
            rounded = sum_up_round(weights(w))
            assert prefix_deviation(w, rounded.w) <= 0.5 + 1e-12
            assert abs(rounded.w.sum() - w.sum()) <= 0.5 + 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 200).flatmap(lambda n: st.tuples(
        hnp.arrays(float, n, elements=st.floats(0.0, 1.0)),
        st.permutations(range(n)),
    )))
    def test_prefix_bound_any_order(self, case):
        w, order = case
        plan = RoundingPlan(np.array(order))
        # the tight budget sum(w) is fractional in general
        rounded = sum_up_round(weights(w, budget=float(w.sum())), plan)
        assert np.all((rounded.w == 0.0) | (rounded.w == 1.0))
        # the 0.5 bound, plus round-off of sums as large as sum(w)
        bound = 0.5 + 1e-12 * max(1.0, float(w.sum()))
        assert prefix_deviation(w, rounded.w, plan.order) <= bound

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 80).flatmap(lambda n: st.tuples(
        st.lists(st.sampled_from(TIE_VALUES), min_size=n, max_size=n),
        st.permutations(range(n)),
    )))
    # the running sum goes 3.4999999999999996 -> 4.5 at the last entry,
    # where floor(cumsum + 0.5) would step by 2
    @example(([0.75, 0.9, 0.2, 0.75, 0.9, 1.0], list(range(6))))
    # just below a half, where c + 0.5 rounds up to 1.0
    @example(([np.nextafter(0.5, 0.0)], [0]))
    def test_matches_scan_at_ties(self, case):
        w, order = np.array(case[0]), np.array(case[1])
        rounded = sum_up_round(weights(w), RoundingPlan(order))
        assert np.array_equal(rounded.w, sum_up_round_scan(w, order))

    def test_fractional_budget(self):
        rounded = sum_up_round(DesignWeights(np.array([0.7]), 0.7))
        assert_allclose(rounded.w, [1.0])
        assert rounded.budget == 1.0

    def test_angular_order(self):
        angles = np.array([3.0, 1.0, 2.0])
        plan = angular_plan(angles)
        assert_allclose(plan.order, [1, 2, 0])
        w = np.array([0.4, 0.4, 0.4])
        rounded = sum_up_round(weights(w), plan)
        # scan order 1, 2, 0: cumulative 0.4, 0.8 -> index 2 selected
        assert_allclose(rounded.w, [0.0, 0.0, 1.0])

    def test_result_is_binary_flagged(self):
        rounded = sum_up_round(weights([0.3, 0.9]))
        assert rounded.binary

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            RoundingPlan(np.array([0, 0, 1]))
        with pytest.raises(ValueError):
            RoundingPlan(np.array([0, -1, 1]))
        with pytest.raises(ValueError):
            RoundingPlan(np.array([0, 3, 1]))
        with pytest.raises(ValueError):
            sum_up_round(weights([0.5, 0.5]), natural_plan(3))


class TestIntegralityGap:
    def setup_problem(self):
        mesh = build_mesh(RectDomain((-1.0,), (1.0,)), 20)
        lowrank = build_lowrank(gaussian_difference_kernel(), mesh, mesh, 6)
        setup = BayesSetup(alpha=1.0)
        return lowrank, setup

    def test_identical_weights_zero_gap(self):
        lowrank, setup = self.setup_problem()
        w = weights([1.0, 0.0] * 10, budget=20.0)
        report = integrality_gap(lowrank, setup, w, w)
        assert report.surrogate == 0.0

    def test_gap_nonnegative_at_relaxed_minimum(self):
        from sensorplace import SqpConfig, solve_relaxed

        lowrank, setup = self.setup_problem()
        res = solve_relaxed(lowrank, setup, 5.0, SqpConfig(epsilon=1e-9))
        rounded = sum_up_round(res.weights)
        report = integrality_gap(lowrank, setup, res.weights, rounded)
        assert report.surrogate >= -1e-9

    def test_length_mismatch(self):
        lowrank, setup = self.setup_problem()
        with pytest.raises(ValueError):
            integrality_gap(lowrank, setup, weights([0.5] * 20), weights([1.0] * 19))
