"""Serve-loop observability: registry wiring, health, top, CLI e2e."""

import json
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.core.problem import EVAProblem
from repro.obs import (
    HealthMonitor,
    JsonlSink,
    MetricsRegistry,
    MetricsServer,
    SloRule,
    render_prometheus,
    telemetry,
)
from repro.resilience import CircuitBreaker
from repro.serve import (
    DECISION_WINDOW,
    AdmissionController,
    ChurnProfile,
    SchedulerService,
    ServeEvent,
    approx_preference,
    generate_load,
    render_top,
    run_top,
    summarize_serve_run,
)


def _problem(n_streams=6, n_servers=4, seed=0):
    rng = np.random.default_rng(seed)
    return EVAProblem(
        n_streams,
        rng.choice([10.0, 15.0, 20.0, 25.0], size=n_servers),
        textures=rng.uniform(0.7, 1.3, size=n_streams),
    )


def _service(problem=None, **kw):
    problem = problem or _problem()
    return SchedulerService(
        problem, preference=approx_preference(problem), **kw
    )


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    telemetry.disable()
    telemetry.reset()


def _churn(n=6):
    events = []
    for i in range(n):
        events.append(ServeEvent(time=float(i + 1), kind="stream_leave", target=i % 3))
        events.append(ServeEvent(time=float(i + 1) + 0.4, kind="stream_join", target=i % 3))
    return events


class TestServiceWiring:
    def test_registry_populated_by_run(self):
        svc = _service()
        reg = MetricsRegistry()
        svc.attach_observability(metrics=reg)
        svc.submit(_churn())
        svc.run()
        d = reg.to_dict()
        assert d["repro_serve_epochs_total"]["value"] == len(svc.decisions)
        assert d["repro_serve_streams"]["value"] == len(svc.planner.entries)
        hist = d["repro_serve_decision_latency_seconds"]
        assert hist["count"] == len(svc.decisions)
        assert hist["window"]["p95"] >= hist["window"]["p50"] >= 0.0
        assert d["repro_serve_cache_hit_ratio"]["value"] == pytest.approx(
            svc.health_snapshot()["cache_hit_ratio"]
        )

    def test_metrics_match_prometheus_text(self):
        svc = _service()
        reg = MetricsRegistry()
        svc.attach_observability(metrics=reg)
        svc.submit(_churn())
        svc.run()
        text = render_prometheus(reg)
        assert (
            f"repro_serve_epochs_total {len(svc.decisions)}" in text
        )
        assert 'repro_serve_decision_latency_seconds_bucket{le="+Inf"}' in text

    def test_health_snapshot_matches_summary_window(self):
        svc = _service()
        svc.submit(_churn())
        svc.run()
        snap = svc.health_snapshot()
        s = svc.summary()
        assert snap["window"] == s["decision_window"]
        assert snap["decision_p50_s"] == s["decision_p50_s"]
        assert snap["decision_p95_s"] == s["decision_p95_s"]
        assert snap["decision_p99_s"] == s["decision_p99_s"]

    def test_checkpoint_roundtrip_drops_registry_keeps_monitor(self, tmp_path):
        import pickle

        svc = _service()
        svc.attach_observability(
            metrics=MetricsRegistry(),
            monitor=HealthMonitor([SloRule.parse("decision_p95_s < 10")]),
        )
        svc.submit(_churn())
        svc.run()
        clone = pickle.loads(pickle.dumps(svc))
        assert clone.metrics is None
        assert clone.monitor is not None
        assert clone.summary()["decision_window"] == svc.summary()["decision_window"]


#: ``/metrics`` counter -> the summary() total it must equal.
_COUNTER_TOTALS = {
    "repro_serve_epochs_total": "epochs",
    "repro_serve_full_solves_total": "full_solves",
    "repro_serve_cache_hits_total": "cache_hits",
    "repro_serve_solved_total": "solved",
    "repro_serve_admission_rejects_total": "rejected",
    "repro_serve_evictions_total": "evicted",
    "repro_serve_sheds_total": "shed",
}


def _assert_metrics_match_summary(reg, svc):
    d = reg.to_dict()
    s = svc.summary()
    for name, key in _COUNTER_TOTALS.items():
        assert d[name]["value"] == s[key], name
    assert d["repro_serve_decision_latency_seconds"]["count"] == s["epochs"]


def _overloaded_service():
    """Tight fleet, flash crowd, rate-limited joins, a breaker that
    always trips: every summary() count ends up non-zero."""
    rng = np.random.default_rng(0)
    problem = EVAProblem(
        12,
        rng.choice([5.0, 10.0], size=3),
        textures=rng.uniform(0.7, 1.3, size=12),
    )
    svc = SchedulerService(
        problem,
        preference=approx_preference(problem),
        reoptimize_every=5,
        admission=AdmissionController(
            priority_map={0: 2, 1: 2, 2: 2},
            default_priority=1,
            join_rate_per_epoch=1.0,
            protect_priority=2,
        ),
        breaker=CircuitBreaker(
            failure_threshold=1, cooldown_epochs=4, deadline_s=1e-9
        ),
    )
    svc.submit(
        generate_load(
            12,
            3,
            profile=ChurnProfile(
                hours=0.1,
                arrivals_per_hour=1500,
                departures_per_hour=300,
                drifts_per_hour=60,
                flaps_per_hour=60,
                burst_start_s=60,
                burst_duration_s=120,
                burst_multiplier=6,
            ),
            seed=0,
        )
    )
    return svc


class TestLifetimeTally:
    def test_resumed_registry_reports_lifetime_totals(self, tmp_path):
        problem = _problem(40, 10)
        svc = _service(problem)
        svc.submit(
            generate_load(
                40,
                10,
                profile=ChurnProfile(
                    hours=0.2,
                    arrivals_per_hour=600,
                    departures_per_hour=400,
                    drifts_per_hour=60,
                    flaps_per_hour=30,
                ),
                seed=0,
            )
        )
        svc.run(max_epochs=50)
        ckpt = tmp_path / "serve.ckpt"
        svc.save_checkpoint(ckpt)
        resumed = SchedulerService.resume(ckpt)
        reg = MetricsRegistry()
        resumed.attach_observability(metrics=reg)
        resumed.run(max_epochs=20)
        assert resumed.summary()["epochs"] == 71
        _assert_metrics_match_summary(reg, resumed)
        # Re-attaching the same registry counts nothing a second time.
        resumed.attach_observability(metrics=reg)
        _assert_metrics_match_summary(reg, resumed)
        resumed.run(max_epochs=5)
        _assert_metrics_match_summary(reg, resumed)

    def test_summary_equals_rescan_of_decisions(self):
        svc = _overloaded_service()
        reg = MetricsRegistry()
        svc.attach_observability(metrics=reg)
        svc.run(max_epochs=40)
        reg.to_dict()  # a mid-run scrape
        svc.run()
        ds = svc.decisions
        benefits = [d.benefit for d in ds if d.benefit is not None]
        oracle = {
            "epochs": len(ds),
            "full_solves": sum(1 for d in ds if d.full_solve),
            "cache_hits": sum(d.cache_hits for d in ds),
            "solved": sum(d.solved for d in ds),
            "rejected": sum(len(d.rejected) for d in ds),
            "evicted": sum(len(d.evicted) for d in ds),
            "shed": sum(len(d.shed) for d in ds),
            "brownout_epochs": sum(1 for d in ds if d.mode == "brownout"),
            "benefit_first": benefits[0] if benefits else None,
            "benefit_last": benefits[-1] if benefits else None,
        }
        s = svc.summary()
        assert {k: s[k] for k in oracle} == oracle
        for key in ("rejected", "evicted", "shed", "brownout_epochs"):
            assert oracle[key] > 0, key
        _assert_metrics_match_summary(reg, svc)

    def test_concurrent_scrapes_stay_monotone_and_exact(self):
        # The serve thread writes the tally and the decision list while
        # two scrapers race the collect hook; a lost cursor update
        # would double-feed (or skip) histogram samples.
        import sys
        import threading

        svc = _overloaded_service()
        reg = MetricsRegistry()
        svc.attach_observability(metrics=reg)
        seen: list[list[float]] = [[], []]
        done = threading.Event()

        def scrape(out):
            while not done.is_set():
                # collect() runs the hook without holding the lock
                # throughout, so the two scrapers' hooks can interleave.
                metrics = dict(reg.collect())
                out.append(metrics["repro_serve_epochs_total"].value)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            scrapers = [
                threading.Thread(target=scrape, args=(out,)) for out in seen
            ]
            for t in scrapers:
                t.start()
            svc.run()
            done.set()
            for t in scrapers:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            done.set()
            sys.setswitchinterval(old)
        for out in seen:
            assert out, "scraper never ran"
            assert out == sorted(out)
        _assert_metrics_match_summary(reg, svc)

    def test_slo_probe_equals_health_snapshot_every_epoch(self):
        # One rule per snapshot key, so the compiled probe covers them
        # all.  With every stream gone no epoch is scored: once
        # DECISION_WINDOW such epochs push the last score out of the
        # window, the baseline is None and so is the drop ratio.
        svc = _service()
        keys = list(svc.health_snapshot())
        svc.attach_observability(
            monitor=HealthMonitor(
                [SloRule(metric=k, op="<", threshold=1e18) for k in keys]
            )
        )
        events = [
            ServeEvent(time=1.0, kind="stream_leave", target=sid)
            for sid in range(svc.problem.n_streams)
        ]
        events += [
            ServeEvent(time=float(t), kind="stream_leave", target=999)
            for t in range(2, DECISION_WINDOW + 8)
        ]
        svc.submit(events)
        svc.start()
        stale = 0
        while svc.queue:
            svc.run(max_epochs=1)
            probe = svc._slo_probe()
            snap = svc.health_snapshot()
            assert set(probe) == set(keys)
            assert probe == {k: snap[k] for k in probe}
            if snap["benefit"] is not None and snap["benefit_baseline"] is None:
                stale += 1
                assert snap["benefit_drop_ratio"] is None
        assert stale > 0


class TestHealthAndAlerts:
    def test_fault_plan_trips_alert_and_degraded_healthz(self):
        # An impossible cache-hit SLO fires deterministically; the
        # /healthz surface and the alert edge must both reflect it.
        svc = _service()
        reg = MetricsRegistry()
        monitor = HealthMonitor(
            [SloRule(metric="cache_hit_ratio", op=">", threshold=2.0)]
        )
        svc.attach_observability(metrics=reg, monitor=monitor)
        svc.submit(
            [
                ServeEvent(time=1.0, kind="server_down", target=0),
                ServeEvent(time=2.0, kind="stream_leave", target=1),
            ]
        )
        svc.run()
        assert any(a["event"] == "alert.fired" for a in svc.alerts)
        doc = svc.health_status()
        assert doc["status"] == "degraded"
        assert doc["alerts"][0]["metric"] == "cache_hit_ratio"
        assert svc.summary()["health"] == "degraded"
        assert reg.gauge("serve_health").value == 1.0

    def test_alert_events_reach_telemetry(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        telemetry.enable(JsonlSink(path))
        svc = _service()
        svc.attach_observability(
            monitor=HealthMonitor(
                [SloRule(metric="decision_p95_s", op="<", threshold=-1.0)]
            )
        )
        svc.submit(_churn())
        svc.run()
        telemetry.disable()
        kinds = [
            rec["event"]
            for rec in (json.loads(l) for l in path.read_text().splitlines() if l)
        ]
        assert "alert.fired" in kinds

    def test_healthy_run_stays_ok(self):
        svc = _service()
        svc.attach_observability(
            monitor=HealthMonitor([SloRule.parse("decision_p95_s < 60")])
        )
        svc.submit(_churn())
        svc.run()
        assert svc.alerts == []
        assert svc.health_status()["status"] == "ok"


class TestSummaryReportAgreement:
    def test_summary_and_report_share_percentile_definition(self, tmp_path):
        # Both read the same record — each decision's latency_s and
        # fields — so a single-process run reports identical numbers.
        path = tmp_path / "serve.jsonl"
        telemetry.enable(JsonlSink(path))
        svc = _overloaded_service()
        svc.run()
        s = svc.summary()
        telemetry.disable()
        rep = summarize_serve_run(path)
        assert s["rejected"] > 0 and s["shed"] > 0
        assert rep.decision_window == s["decision_window"] <= DECISION_WINDOW
        assert rep.decision_count == rep.epochs == s["epochs"]
        for key in ("p50", "p95", "p99", "max"):
            assert rep.to_dict()[f"decision_{key}_s"] == s[f"decision_{key}_s"]
        assert rep.full_solves == s["full_solves"]
        assert rep.cache_hits == s["cache_hits"]
        assert rep.solved == s["solved"]
        assert rep.admission_rejects == s["rejected"]
        assert rep.shed == s["shed"]
        assert rep.brownout_epochs == s["brownout_epochs"]
        assert rep.benefit_first == s["benefit_first"]
        assert rep.benefit_last == s["benefit_last"]

    def test_latency_covers_whole_epoch(self, monkeypatch):
        # Outcome accounting runs after the epoch's events are applied;
        # a slow outcome() must show up in latency_s (lower bound only,
        # so scheduler timing cannot flake it).
        import time

        from repro.serve.engine import IncrementalPlanner

        real = IncrementalPlanner.outcome

        def slow_outcome(self):
            time.sleep(0.02)
            return real(self)

        monkeypatch.setattr(IncrementalPlanner, "outcome", slow_outcome)
        svc = _service()
        svc.submit(_churn())
        svc.run()
        assert len(svc.decisions) > 1
        assert all(d.latency_s >= 0.02 for d in svc.decisions[1:])


class TestVarzAndTop:
    def _varz(self):
        svc = _service()
        reg = MetricsRegistry()
        svc.attach_observability(
            metrics=reg,
            monitor=HealthMonitor([SloRule.parse("decision_p95_s < 60")]),
        )
        svc.submit(_churn())
        svc.run()
        return {
            "metrics": reg.to_dict(),
            "health": svc.health_status(),
            "service": svc.varz(),
        }

    def test_render_top_shows_live_numbers(self):
        varz = self._varz()
        frame = render_top(varz, color=False)
        snap = varz["service"]["snapshot"]
        assert "health OK" in frame
        assert f"epoch {snap['epoch']}" in frame
        assert f"{snap['cache_hit_ratio']:8.1%}" in frame
        assert "no alerts firing" in frame

    def test_render_top_alert_section(self):
        varz = self._varz()
        varz["health"]["status"] = "degraded"
        varz["health"]["alerts"] = [
            {
                "rule": "latency", "metric": "decision_p95_s",
                "severity": "degraded", "threshold": 0.1,
                "value": 0.5, "since_epoch": 2,
            }
        ]
        frame = render_top(varz, color=True)
        assert "ALERTS (1 firing)" in frame
        assert "decision_p95_s=0.5" in frame
        assert "\x1b[33m" in frame  # degraded renders yellow

    def test_run_top_against_live_server(self):
        import io

        svc = _service()
        reg = MetricsRegistry()
        svc.attach_observability(metrics=reg)
        svc.submit(_churn())
        svc.run()
        out = io.StringIO()
        with MetricsServer(
            reg, health=svc.health_status, varz=svc.varz
        ) as server:
            rc = run_top(
                server.url, interval_s=0.01, iterations=2,
                color=False, clear=False, stream=out,
            )
        assert rc == 0
        assert out.getvalue().count("repro serve top") == 2

    def test_epoch_rate_from_summary_delta_between_frames(self, monkeypatch):
        import io
        from types import SimpleNamespace

        from repro.serve import top

        frames = iter(
            [
                {"service": {"summary": {"epochs": 100}}},
                {"service": {"summary": {"epochs": 142}}},
            ]
        )
        clock = iter([10.0, 10.5])
        monkeypatch.setattr(top, "fetch_varz", lambda url: next(frames))
        monkeypatch.setattr(
            top,
            "time",
            SimpleNamespace(monotonic=lambda: next(clock), sleep=lambda s: None),
        )
        out = io.StringIO()
        rc = run_top(
            "http://varz.invalid", iterations=2,
            color=False, clear=False, stream=out,
        )
        assert rc == 0
        rates = [
            line.split()[-1]
            for line in out.getvalue().splitlines()
            if line.startswith("epoch rate")
        ]
        assert rates == ["-", "84.00/s"]

    def test_run_top_unreachable_exits_1(self):
        import io

        out = io.StringIO()
        rc = run_top(
            "http://127.0.0.1:1", interval_s=0.01, iterations=1,
            color=False, clear=False, stream=out,
        )
        assert rc == 1
        assert "cannot reach" in out.getvalue()


class TestCliEndToEnd:
    def test_metrics_port_serves_during_run(self, tmp_path, capsys):
        # An in-process CLI run with --pace long enough to scrape would
        # race; instead run to completion with port=0 and assert the
        # printed URL, then e2e-scrape via the service objects directly
        # (subprocess coverage lives in the metrics-smoke CI job).
        rc = main(
            [
                "serve", "run", "--streams", "4", "--servers", "3",
                "--hours", "0.02", "--arrivals-per-hour", "300",
                "--departures-per-hour", "200", "--seed", "1",
                "--metrics-port", "0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "/metrics" in out
        assert "health" in out

    def test_bad_slo_rule_exits_2(self, capsys):
        rc = main(
            [
                "serve", "run", "--streams", "4", "--servers", "3",
                "--hours", "0.01", "--metrics-port", "0",
                "--slo", "not a rule at all",
            ]
        )
        assert rc == 2
        assert "slo" in capsys.readouterr().err.lower()

    def test_custom_slo_rule_applied(self, tmp_path, capsys):
        trace = tmp_path / "serve.jsonl"
        rc = main(
            [
                "serve", "run", "--streams", "4", "--servers", "3",
                "--hours", "0.02", "--arrivals-per-hour", "300",
                "--departures-per-hour", "200", "--seed", "1",
                "--metrics-port", "0",
                "--slo", "impossible: cache_hit_ratio > 2",
                "--telemetry", str(trace),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "health" in out
        rep = summarize_serve_run(trace)
        assert rep.alerts_fired >= 1

    def test_telemetry_rotation_flags(self, tmp_path, capsys):
        trace = tmp_path / "serve.jsonl"
        rc = main(
            [
                "serve", "run", "--streams", "4", "--servers", "3",
                "--hours", "0.05", "--arrivals-per-hour", "600",
                "--departures-per-hour", "400", "--seed", "2",
                "--telemetry", str(trace),
                "--telemetry-max-mb", "0.002", "--telemetry-backups", "8",
            ]
        )
        assert rc == 0
        assert (tmp_path / "serve.jsonl.1").exists()
        # The report stitches rotated segments back together.
        rep = summarize_serve_run(trace)
        assert rep.epochs > 0
