"""Fast sanity tests of every figure experiment (tiny parameters).

The benchmarks run the figures at paper scale; these tests check that
each experiment produces structurally valid data with the paper's
qualitative shape at miniature sizes.
"""

import numpy as np
import pytest

from repro.bench import (
    fig2_profiling_surfaces,
    fig3a_contention,
    fig3b_pareto,
    fig4_jitter,
    fig6_preference_sweep,
    fig7_scaling,
    fig8_outcome_r2,
    fig9_preference_accuracy,
    fig10a_weight_sensitivity,
    fig10b_threshold_sensitivity,
    format_series,
    format_table,
)

TINY_PAMO = dict(
    n_profile=25,
    n_outcome_space=15,
    n_pref_queries=6,
    batch_size=2,
    n_iterations=3,
    n_pool=10,
    n_mc_samples=16,
)


class TestFig2:
    @pytest.fixture(scope="class")
    def data(self):
        return fig2_profiling_surfaces(
            resolutions=(400, 1200, 2000),
            fps_values=(2, 15, 30),
            clip_names=("mot16-02-like", "mot16-05-like"),
            n_frames=30,
            rng=0,
        )

    def test_structure(self, data):
        assert "mot16-02-like" in data
        surf = data["mot16-02-like"]
        assert surf["accuracy"].shape == (3, 3)

    def test_accuracy_rises_with_resolution(self, data):
        for clip in ("mot16-02-like", "mot16-05-like"):
            acc = data[clip]["accuracy"]
            assert acc[-1, -1] > acc[0, 0]

    def test_bandwidth_rises_with_both(self, data):
        net = data["mot16-02-like"]["network_mbps"]
        assert net[-1, -1] > net[0, 0]
        assert net[-1, -1] > 5.0  # Mbps at high config

    def test_consistent_pattern_across_clips(self, data):
        """Fig. 2's key claim: different clips share the surface shape."""
        a = data["mot16-02-like"]["accuracy"].ravel()
        b = data["mot16-05-like"]["accuracy"].ravel()
        assert np.corrcoef(a, b)[0, 1] > 0.6

    def test_latency_flat_in_fps(self, data):
        lat = data["mot16-02-like"]["latency"]
        assert np.allclose(lat[1, :], lat[1, 0])


class TestFig3:
    def test_contention_delays_accumulate(self):
        d = fig3a_contention(horizon=2.0)
        v2 = d["video2_delays"]
        assert v2[-1] > v2[0]
        assert d["max_jitter"] > 0

    def test_pareto_front_nontrivial(self):
        d = fig3b_pareto(n_decisions=20, rng=0)
        assert 2 <= len(d["pareto_indices"]) <= 20
        assert d["normalized"].min() >= 0 and d["normalized"].max() <= 1
        assert len(d["representatives"]) >= 1


class TestFig4:
    def test_algorithm1_removes_jitter(self):
        d = fig4_jitter(horizon=6.0)
        assert d["bad_assignment_jitter"] > 0.01
        assert d["algorithm1_jitter"] < 1e-9


class TestFig6:
    @pytest.fixture(scope="class")
    def records(self):
        return fig6_preference_sweep(
            weight_values=(0.4,),
            objectives=("acc",),
            n_streams=4,
            n_servers=3,
            seeds=(0,),
            pamo_kwargs=TINY_PAMO,
        )

    def test_record_structure(self, records):
        assert len(records) == 1
        rec = records[0]
        assert set(rec["normalized"]) == {"JCAB", "FACT", "PaMO", "PaMO+"}
        assert all(0 <= v <= 1 for v in rec["normalized"].values())

    def test_benefit_ratio_shares(self, records):
        shares = records[0]["benefit_ratio"]["PaMO"]
        assert len(shares) == 5
        assert sum(shares) == pytest.approx(1.0)


class TestFig7:
    def test_structure(self):
        d = fig7_scaling(
            node_counts=(3,),
            video_counts=(4,),
            fixed_videos=4,
            fixed_nodes=3,
            seeds=(0,),
            methods=("FACT", "PaMO+"),
            pamo_kwargs=TINY_PAMO,
        )
        assert len(d["by_nodes"]) == 1
        assert len(d["by_videos"]) == 1
        assert "FACT" in d["by_nodes"][0]["normalized"]


class TestFig8:
    def test_r2_improves_with_data(self):
        d = fig8_outcome_r2(
            train_sizes=(25, 120),
            n_test=12,
            n_reps=2,
            n_frames=24,
            rng=0,
        )
        assert set(d["r2"]) == {"ltc", "acc", "net", "com", "eng"}
        # deterministic objectives should be modelled near-perfectly
        assert d["r2"]["net"][-1] > 0.9
        assert d["r2"]["com"][-1] > 0.9
        # accuracy is the noisy one: more data should not hurt
        assert d["r2"]["acc"][-1] >= d["r2"]["acc"][0] - 0.1


class TestFig9:
    def test_accuracy_grows_with_pairs(self):
        d = fig9_preference_accuracy(
            pair_counts=(3, 18),
            n_test_pairs=100,
            n_reps=2,
            n_outcome_space=20,
            rng=0,
        )
        assert len(d["accuracy"]) == 2
        assert d["accuracy"][1] > d["accuracy"][0]
        assert d["accuracy"][1] > 0.75


class TestFig10:
    def test_weight_sensitivity_structure(self):
        recs = fig10a_weight_sensitivity(
            weight_values=(0.1, 5.0),
            configs=((3, 4),),
            seeds=(0,),
            pamo_kwargs=TINY_PAMO,
        )
        assert len(recs) == 2
        for r in recs:
            assert {"JCAB", "FACT", "PaMO", "PaMO+"} <= set(r)

    def test_threshold_sensitivity_structure(self):
        recs = fig10b_threshold_sensitivity(
            deltas=(0.05, 0.2),
            configs=((3, 4),),
            seeds=(0,),
            pamo_kwargs=TINY_PAMO,
        )
        assert len(recs) == 2
        for r in recs:
            assert np.isfinite(r["PaMO"]) and np.isfinite(r["JCAB"])


class TestReporting:
    def test_format_table(self):
        out = format_table(["a", "b"], [[1, 0.52341], ["x", 2.0]], title="T")
        assert "T" in out and "0.523" in out and "x" in out

    def test_format_series(self):
        out = format_series("n", [1, 2], {"m": [0.1, 0.2]})
        assert "0.100" in out and "0.200" in out

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert "a" in out
