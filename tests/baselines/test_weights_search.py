"""Tests for classical weight rules, Pareto utilities, and search."""

import numpy as np
import pytest

from repro.baselines import (
    RandomSearch,
    equal_weights,
    exhaustive_best,
    pareto_front,
    pseudo_weights,
    rank_sum_weights,
    roc_weights,
)
from repro.baselines.search import orient_minimize
from repro.core import ConfigSpace, EVAProblem, make_preference


class TestWeightRules:
    def test_equal(self):
        np.testing.assert_allclose(equal_weights(5), 0.2)

    def test_roc_sums_to_one(self):
        w = roc_weights([1, 2, 3, 4, 5])
        assert w.sum() == pytest.approx(1.0)
        assert np.all(np.diff(w) < 0)  # rank 1 heaviest

    def test_roc_known_values_k3(self):
        w = roc_weights([1, 2, 3])
        np.testing.assert_allclose(w, [11 / 18, 5 / 18, 2 / 18], atol=1e-12)

    def test_roc_permutation_respected(self):
        w = roc_weights([3, 1, 2])
        assert w[1] > w[2] > w[0]

    def test_rank_sum_k4(self):
        w = rank_sum_weights([1, 2, 3, 4])
        np.testing.assert_allclose(w, [0.4, 0.3, 0.2, 0.1])
        assert w.sum() == pytest.approx(1.0)

    def test_bad_ranks_raise(self):
        with pytest.raises(ValueError):
            roc_weights([1, 1, 2])
        with pytest.raises(ValueError):
            rank_sum_weights([0, 1, 2])

    def test_pseudo_weights_sum_to_one(self):
        front = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        for i in range(3):
            w = pseudo_weights(front, i)
            assert w.sum() == pytest.approx(1.0)

    def test_pseudo_weights_extreme_points(self):
        front = np.array([[0.0, 1.0], [1.0, 0.0]])
        w = pseudo_weights(front, 0)
        # point 0 is best on obj0, worst on obj1 -> all weight on obj0
        np.testing.assert_allclose(w, [1.0, 0.0])

    def test_pseudo_weights_bad_index(self):
        with pytest.raises(ValueError):
            pseudo_weights(np.zeros((2, 2)), 5)


class TestParetoFront:
    def test_single_point(self):
        assert pareto_front([[1.0, 2.0]]).tolist() == [0]

    def test_dominated_removed(self):
        y = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 3.0]])
        idx = pareto_front(y)
        assert 1 not in idx
        assert set(idx) == {0, 2}

    def test_duplicates_both_kept(self):
        y = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert len(pareto_front(y)) == 2

    def test_nondominated_chain(self):
        # classic anti-chain: all kept
        y = np.array([[1, 4], [2, 3], [3, 2], [4, 1]], dtype=float)
        assert len(pareto_front(y)) == 4

    def test_orient_minimize_flips_accuracy(self):
        y = np.array([[0.1, 0.8, 1.0, 2.0, 3.0]])
        out = orient_minimize(y)
        assert out[0, 1] == -0.8
        assert out[0, 0] == 0.1

    def test_real_problem_front_nontrivial(self):
        """§2.3: the EVA problem's outcome space has >1 Pareto point."""
        problem = EVAProblem(n_streams=2, bandwidths_mbps=[10.0, 20.0])
        ys = np.stack(
            [problem.evaluate(*problem.sample_decision(rng=i)) for i in range(25)]
        )
        idx = pareto_front(orient_minimize(ys))
        assert len(idx) >= 2


class TestRandomSearch:
    def test_improves_with_more_samples(self):
        problem = EVAProblem(n_streams=3, bandwidths_mbps=[10.0, 20.0])
        pref = make_preference(problem)
        z5 = RandomSearch(problem, benefit_fn=pref.value, n_iterations=5, rng=0).optimize()
        z50 = RandomSearch(problem, benefit_fn=pref.value, n_iterations=50, rng=0).optimize()
        assert z50.true_benefit >= z5.true_benefit

    def test_history_monotone(self):
        problem = EVAProblem(n_streams=2, bandwidths_mbps=[10.0])
        pref = make_preference(problem)
        out = RandomSearch(problem, benefit_fn=pref.value, n_iterations=20, rng=1).optimize()
        assert all(a <= b for a, b in zip(out.history, out.history[1:]))

    def test_invalid_n(self):
        problem = EVAProblem(n_streams=2, bandwidths_mbps=[10.0])
        with pytest.raises(ValueError):
            RandomSearch(problem, benefit_fn=lambda y: 0.0, n_iterations=0)


class TestExhaustiveBest:
    def test_oracle_beats_random_search(self):
        space = ConfigSpace(resolutions=(300.0, 900.0), fps_values=(5.0, 15.0))
        problem = EVAProblem(
            n_streams=2, bandwidths_mbps=[10.0, 20.0], config_space=space
        )
        pref = make_preference(problem)
        oracle = exhaustive_best(problem, pref.value)
        rs = RandomSearch(problem, benefit_fn=pref.value, n_iterations=10, rng=0).optimize()
        assert oracle.benefit >= rs.true_benefit - 1e-12

    def test_space_too_large_raises(self):
        problem = EVAProblem(n_streams=8, bandwidths_mbps=[10.0] * 5)
        with pytest.raises(ValueError):
            exhaustive_best(problem, lambda y: 0.0, max_decisions=1000)
