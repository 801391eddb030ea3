"""Tests for trace reconstruction and Chrome trace export."""

import json
import multiprocessing

import pytest

from repro.bench import run_parallel
from repro.obs import MemorySink, Telemetry, telemetry
from repro.obs.trace import (
    build_span_forest,
    load_events,
    orphan_parent_ids,
    to_chrome_trace,
    trace_ids,
    write_chrome_trace,
)


def _traced_arm(x, barrier=None):
    if barrier is not None:
        # arms sharing a barrier block until each has its own worker
        barrier.wait(timeout=60)
    with telemetry.span("arm"):
        with telemetry.span("inner"):
            telemetry.counter("arm.calls")
    return x


@pytest.fixture
def log(tmp_path):
    return tmp_path / "run.jsonl"


def _record_simple_run(path):
    t = Telemetry()
    t.enable(path)
    with t.span("root"):
        with t.span("child"):
            pass
        with t.span("child"):
            pass
        t.event("bo.iteration", iteration=1, incumbent_benefit=0.5)
    t.emit_summary()
    t.disable()
    return t


class TestLoadEvents:
    def test_parses_jsonl(self, log):
        _record_simple_run(log)
        events = load_events(log)
        kinds = {e["event"] for e in events}
        assert {"trace.start", "span", "bo.iteration", "run.summary"} <= kinds

    def test_skips_blank_and_torn_lines(self, log):
        log.write_text('{"event": "a", "ts": 1.0}\n\n{"event": "b", "ts"')
        events = load_events(log)
        assert [e["event"] for e in events] == ["a"]


class TestSpanForest:
    def test_single_process_tree(self, log):
        _record_simple_run(log)
        events = load_events(log)
        roots = build_span_forest(events)
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "root"
        assert root.parent_id is None
        assert [c.name for c in root.children] == ["child", "child"]
        assert orphan_parent_ids(events) == set()

    def test_walk_visits_all(self, log):
        _record_simple_run(log)
        roots = build_span_forest(load_events(log))
        names = [n.name for n in roots[0].walk()]
        assert names == ["root", "child", "child"]

    def test_root_carries_trace_id(self, log):
        t = _record_simple_run(log)
        events = load_events(log)
        roots = build_span_forest(events)
        assert roots[0].trace_id == t.trace_id
        assert trace_ids(events) == [t.trace_id]


class TestCrossProcessTrace:
    def test_merged_log_reconstructs_one_tree(self, log):
        """run_parallel workers join the parent trace: merged JSONL has a
        single trace ID, no orphaned parent IDs, and worker spans hang
        under the span enclosing the run_parallel call."""
        telemetry.reset()
        telemetry.enable(log)
        try:
            with multiprocessing.Manager() as manager:
                # arms 0 and 1 rendezvous, so two workers must run them
                barrier = manager.Barrier(2)
                args = [(0, barrier), (1, barrier), (2, None)]
                with telemetry.span("sweep"):
                    out = run_parallel(_traced_arm, args, n_workers=2)
            telemetry.emit_summary()
            parent_trace = telemetry.trace_id
        finally:
            telemetry.disable()
            telemetry.reset()
        assert out == [0, 1, 2]

        events = load_events(log)
        assert trace_ids(events) == [parent_trace]
        assert orphan_parent_ids(events) == set()

        roots = build_span_forest(events)
        assert len(roots) == 1
        sweep = roots[0]
        assert sweep.name == "sweep"
        arms = [c for c in sweep.children if c.name == "arm"]
        assert len(arms) == 3
        for arm in arms:
            assert arm.trace_id == parent_trace
            assert [g.name for g in arm.children] == ["inner"]
        # at least two distinct worker processes contributed spans
        pids = {a.pid for a in arms}
        assert len(pids) >= 2

    def test_worker_events_report_their_own_pid(self, log):
        telemetry.reset()
        telemetry.enable(log)
        try:
            with telemetry.span("sweep"):
                run_parallel(_traced_arm, [(i,) for i in range(3)], n_workers=2)
        finally:
            telemetry.disable()
            telemetry.reset()
        events = load_events(log)
        arm_pids = {
            e["pid"] for e in events if e.get("event") == "span" and e["name"] == "arm"
        }
        sweep_pids = {
            e["pid"]
            for e in events
            if e.get("event") == "span" and e["name"] == "sweep"
        }
        assert arm_pids.isdisjoint(sweep_pids)


class TestChromeExport:
    def test_round_trips_json_loads(self, log, tmp_path):
        _record_simple_run(log)
        out = tmp_path / "trace.json"
        write_chrome_trace(load_events(log), out)
        doc = json.loads(out.read_text())
        assert "traceEvents" in doc

    def test_span_events_are_complete_phases(self, log):
        _record_simple_run(log)
        doc = to_chrome_trace(load_events(log))
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 3  # root + 2 children
        for e in xs:
            assert e["ts"] >= 0
            assert e["dur"] >= 0
            assert "span_id" in e["args"]

    def test_instant_events_carry_kind(self, log):
        _record_simple_run(log)
        doc = to_chrome_trace(load_events(log))
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "i"}
        assert "bo.iteration" in names

    def test_process_metadata_present(self, log):
        _record_simple_run(log)
        doc = to_chrome_trace(load_events(log))
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert metas and metas[0]["name"] == "process_name"
