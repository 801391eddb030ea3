"""Tests for the experiment harness."""

import numpy as np
import pytest

from repro.bench.harness import (
    BANDWIDTH_CHOICES,
    MethodResult,
    make_problem,
    normalize_against_plus,
    run_method,
)
from repro.core import make_preference

SMALL_PAMO = dict(
    n_profile=25,
    n_outcome_space=15,
    n_pref_queries=5,
    batch_size=2,
    n_iterations=3,
    n_pool=10,
    n_mc_samples=16,
)


class TestMakeProblem:
    def test_bandwidths_from_choices(self):
        p = make_problem(4, 3, rng=0)
        assert p.n_servers == 3
        assert all(b in BANDWIDTH_CHOICES for b in p.bandwidths_mbps)

    def test_fixed_bandwidth(self):
        p = make_problem(4, 3, fixed_bandwidth=50.0)
        np.testing.assert_array_equal(p.bandwidths_mbps, 50.0)

    def test_deterministic_by_seed(self):
        a = make_problem(4, 5, rng=7)
        b = make_problem(4, 5, rng=7)
        np.testing.assert_array_equal(a.bandwidths_mbps, b.bandwidths_mbps)


class TestRunMethod:
    @pytest.fixture(scope="class")
    def setting(self):
        problem = make_problem(4, 3, rng=0)
        return problem, make_preference(problem)

    @pytest.mark.parametrize("name", ["JCAB", "FACT"])
    def test_baselines_run(self, setting, name):
        problem, pref = setting
        res = run_method(name, problem, pref, seed=0)
        assert res.method == name
        assert np.isfinite(res.true_benefit)
        assert res.outcome.shape == (5,)

    def test_pamo_runs(self, setting):
        problem, pref = setting
        res = run_method("PaMO", problem, pref, seed=0, pamo_kwargs=SMALL_PAMO)
        assert res.extras["n_dm_queries"] > 0

    def test_pamo_plus_runs(self, setting):
        problem, pref = setting
        res = run_method("PaMO+", problem, pref, seed=0, pamo_kwargs=SMALL_PAMO)
        assert res.extras["n_dm_queries"] == 0

    def test_acquisition_variant(self, setting):
        problem, pref = setting
        res = run_method("PaMO_qSR", problem, pref, seed=0, pamo_kwargs=SMALL_PAMO)
        assert np.isfinite(res.true_benefit)

    def test_unknown_method_raises(self, setting):
        problem, pref = setting
        with pytest.raises(ValueError):
            run_method("SkyNet", problem, pref)

    def test_measured_vs_analytic_scoring(self, setting):
        problem, pref = setting
        a = run_method("FACT", problem, pref, measured=False)
        m = run_method("FACT", problem, pref, measured=True)
        # measured latency >= analytic latency (queueing can only add)
        assert m.outcome[0] >= a.outcome[0] - 1e-6


class TestNormalization:
    def test_requires_plus(self):
        with pytest.raises(ValueError):
            normalize_against_plus(
                {"JCAB": MethodResult("JCAB", -1.0, np.zeros(5))}, None
            )

    def test_normalizes_to_unit(self):
        problem = make_problem(3, 2, rng=0)
        pref = make_preference(problem)
        results = {
            "PaMO+": MethodResult("PaMO+", -0.5, np.zeros(5)),
            "JCAB": MethodResult("JCAB", -1.5, np.zeros(5)),
        }
        normalize_against_plus(results, pref)
        assert results["PaMO+"].normalized == pytest.approx(1.0)
        assert 0.0 <= results["JCAB"].normalized < 1.0
