"""Tests for repro.obs.metrics: instruments, windows, registry."""

import math
import threading

import pytest

from repro.obs import Ewma, MetricsRegistry, RollingWindow
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    DEFAULT_WINDOW_SAMPLES,
    percentile,
    sanitize_metric_name,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestNames:
    def test_valid_name_unchanged(self):
        assert sanitize_metric_name("serve_epochs_total") == "serve_epochs_total"

    def test_dots_become_underscores(self):
        assert sanitize_metric_name("serve.cache_hits") == "serve_cache_hits"

    def test_leading_digit_prefixed(self):
        name = sanitize_metric_name("3d.render")
        assert name.startswith("_")

    def test_idempotent(self):
        once = sanitize_metric_name("a.b-c d")
        assert sanitize_metric_name(once) == once


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.95) == 0.0

    def test_single_value(self):
        assert percentile([4.0], 0.5) == 4.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 0.5) == 5.0

    def test_extremes(self):
        vals = sorted(float(i) for i in range(100))
        assert percentile(vals, 0.0) == 0.0
        assert percentile(vals, 1.0) == 99.0


class TestRollingWindow:
    def test_sample_bound(self):
        w = RollingWindow(max_samples=3, clock=FakeClock())
        for v in range(5):
            w.observe(float(v))
        assert w.values() == [2.0, 3.0, 4.0]

    def test_time_bound_prunes_old(self):
        clock = FakeClock()
        w = RollingWindow(horizon_s=10.0, max_samples=100, clock=clock)
        w.observe(1.0)
        clock.advance(5.0)
        w.observe(2.0)
        clock.advance(6.0)  # first sample now 11s old
        assert w.values() == [2.0]

    def test_percentiles_track_recent_samples_only(self):
        # The stale-reservoir regression: after a latency regime change,
        # windowed p95 must reflect the new regime, not run history.
        w = RollingWindow(max_samples=100, clock=FakeClock())
        for _ in range(1000):
            w.observe(0.001)
        for _ in range(100):
            w.observe(1.0)
        assert w.percentile(0.95) == pytest.approx(1.0)
        assert w.percentile(0.50) == pytest.approx(1.0)

    def test_rate_per_s(self):
        clock = FakeClock()
        w = RollingWindow(horizon_s=100.0, max_samples=1000, clock=clock)
        for _ in range(10):
            w.observe(1.0)
            clock.advance(1.0)
        assert w.rate_per_s() == pytest.approx(1.0)

    def test_snapshot_keys_and_empty(self):
        w = RollingWindow(clock=FakeClock())
        snap = w.snapshot()
        assert snap == {
            "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
            "p99": 0.0, "max": 0.0, "rate_per_s": 0.0,
        }
        w.observe(2.0)
        w.observe(4.0)
        snap = w.snapshot()
        assert snap["count"] == 2
        assert snap["mean"] == 3.0
        assert snap["max"] == 4.0

    def test_validates_args(self):
        with pytest.raises(ValueError, match="horizon_s"):
            RollingWindow(horizon_s=0.0)
        with pytest.raises(ValueError, match="max_samples"):
            RollingWindow(max_samples=0)


class TestEwma:
    def test_first_sample_is_value(self):
        e = Ewma(halflife_s=10.0, clock=FakeClock())
        assert e.update(5.0) == 5.0

    def test_halflife_semantics(self):
        clock = FakeClock()
        e = Ewma(halflife_s=10.0, clock=clock)
        e.update(0.0)
        clock.advance(10.0)
        # One half-life later, a new sample closes half the gap.
        assert e.update(1.0) == pytest.approx(0.5)

    def test_zero_dt_no_decay(self):
        clock = FakeClock()
        e = Ewma(halflife_s=10.0, clock=clock)
        e.update(1.0)
        assert e.update(100.0) == pytest.approx(1.0)

    def test_validates(self):
        with pytest.raises(ValueError, match="halflife_s"):
            Ewma(halflife_s=0.0)


class TestCounterGauge:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == 4.0


class TestHistogram:
    def test_cumulative_buckets_end_at_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 2.0):
            h.observe(v)
        assert h.cumulative_buckets() == [(0.1, 1), (1.0, 2), (math.inf, 3)]
        assert h.count == 3
        assert h.sum == pytest.approx(2.55)

    def test_boundary_value_lands_in_bucket(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.1)  # le is inclusive
        assert h.cumulative_buckets()[0] == (0.1, 1)

    def test_snapshot_has_window_stats(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(0.002)
        snap = h.snapshot()
        assert snap["type"] == "histogram"
        assert snap["count"] == 1
        assert snap["window"]["count"] == 1
        assert snap["buckets"][-1][0] == "+Inf"

    def test_rejects_empty_buckets(self):
        with pytest.raises(ValueError, match="bucket"):
            MetricsRegistry().histogram("lat", buckets=())


class TestRegistry:
    def test_namespace_prefix(self):
        reg = MetricsRegistry(namespace="repro")
        c = reg.counter("epochs_total")
        assert c.name == "repro_epochs_total"
        # Already-prefixed names are not double-prefixed.
        assert reg.counter("repro_epochs_total") is c

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_contains_and_len(self):
        reg = MetricsRegistry()
        reg.counter("a")
        assert "a" in reg
        assert len(reg) == 1

    def test_collect_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zz")
        reg.counter("aa")
        assert [n for n, _ in reg.collect()] == ["repro_aa", "repro_zz"]

    def test_to_dict_json_safe(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(0.01)
        json.dumps(reg.to_dict())  # must not raise

    def test_default_window_shape(self):
        h = MetricsRegistry().histogram("h")
        assert h.window.max_samples == DEFAULT_WINDOW_SAMPLES
        assert h.buckets == tuple(sorted(DEFAULT_BUCKETS))


class TestOneSubstrate:
    def test_telemetry_adds_no_serve_families(self, tmp_path, monkeypatch):
        """With --telemetry and --metrics-port both on, /metrics holds
        only the families the service registers itself."""
        import repro.obs
        from repro.cli import main
        from repro.obs import telemetry
        from repro.serve.service import _METRIC_COUNTERS, _METRIC_GAUGES

        made = []

        def registry(*args, **kwargs):
            made.append(MetricsRegistry(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(repro.obs, "MetricsRegistry", registry)
        try:
            rc = main(
                [
                    "serve", "run", "--streams", "4", "--servers", "3",
                    "--hours", "0.02", "--arrivals-per-hour", "300",
                    "--departures-per-hour", "200", "--seed", "1",
                    "--metrics-port", "0",
                    "--telemetry", str(tmp_path / "serve.jsonl"),
                ]
            )
        finally:
            telemetry.disable()
            telemetry.reset()
        assert rc == 0
        (reg,) = made
        families = {n for n in reg.to_dict() if n.startswith("repro_serve_")}
        expected = {
            f"repro_{name}" for name, _, _ in _METRIC_COUNTERS + _METRIC_GAUGES
        } | {"repro_serve_decision_latency_seconds", "repro_serve_health"}
        assert families == expected


class TestThreadSafety:
    def test_concurrent_updates_sum_exactly(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        h = reg.histogram("lat", window_samples=10_000)
        n_threads, n_iter = 8, 500

        def work():
            for _ in range(n_iter):
                c.inc()
                h.observe(0.001)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert c.value == n_threads * n_iter
        assert h.count == n_threads * n_iter
