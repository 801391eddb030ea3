"""Tests for the fixed-weight classical schedulers."""

import numpy as np
import pytest

from repro.baselines import WeightedSumScheduler
from repro.core import EVAProblem, make_preference


@pytest.fixture(scope="module")
def problem():
    return EVAProblem(n_streams=3, bandwidths_mbps=[10.0, 20.0])


class TestWeightedSumScheduler:
    @pytest.mark.parametrize("rule", ["equal", "roc", "rs", "pseudo"])
    def test_rules_produce_decisions(self, problem, rule):
        out = WeightedSumScheduler(problem, rule=rule, n_candidates=20, rng=0).optimize()
        d = out.decision
        assert d.resolutions.shape == (3,)
        assert np.all(np.isfinite(d.outcome))
        w = out.extras["weights"]
        assert w.shape == (5,)
        assert w.sum() == pytest.approx(1.0)

    def test_explicit_weights(self, problem):
        out = WeightedSumScheduler(
            problem, rule=[0.2, 0.2, 0.2, 0.2, 0.2], n_candidates=20, rng=0
        ).optimize()
        np.testing.assert_allclose(out.extras["weights"], 0.2)

    def test_chebyshev_variant(self, problem):
        out = WeightedSumScheduler(
            problem, rule="equal", scalarization="chebyshev", n_candidates=20, rng=0
        ).optimize()
        assert np.isfinite(out.decision.benefit)

    def test_rank_emphasis_shifts_decision(self, problem):
        # rank accuracy most important vs energy most important
        acc_first = WeightedSumScheduler(
            problem, rule="roc", ranks=[5, 1, 4, 3, 2], n_candidates=40, rng=0
        ).optimize()
        eng_first = WeightedSumScheduler(
            problem, rule="roc", ranks=[2, 5, 4, 3, 1], n_candidates=40, rng=0
        ).optimize()
        assert acc_first.decision.outcome[1] >= eng_first.decision.outcome[1]
        assert eng_first.decision.outcome[4] <= acc_first.decision.outcome[4]

    def test_invalid_inputs(self, problem):
        with pytest.raises(ValueError):
            WeightedSumScheduler(problem, rule="equal", scalarization="nope")
        with pytest.raises(ValueError):
            WeightedSumScheduler(problem, rule=[1.0, 2.0], rng=0).optimize()
        with pytest.raises(ValueError):
            WeightedSumScheduler(problem, rule="bogus", rng=0).optimize()

    def test_fixed_weights_trail_true_preference_optimum(self, problem):
        """§1's claim: a fixed rule misses a skewed true preference."""
        skewed = make_preference(problem, weights=[0.2, 5.0, 0.2, 0.2, 0.2])
        out = WeightedSumScheduler(problem, rule="equal", n_candidates=60, rng=0).optimize()
        z_equal = skewed.value(out.decision.outcome)
        # oracle pick from the same candidate family under the true pref
        best = max(
            skewed.value(problem.evaluate(*problem.sample_decision(rng=i)))
            for i in range(60)
        )
        assert z_equal <= best + 1e-9
