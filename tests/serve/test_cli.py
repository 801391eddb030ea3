"""CLI serve family: loadgen -> run -> report, gates, trace compat."""

import json

import pytest

from repro.cli import main
from repro.obs import telemetry


LOADGEN = [
    "serve", "loadgen",
    "--streams", "5", "--servers", "3",
    "--hours", "0.05",
    "--arrivals-per-hour", "300",
    "--departures-per-hour", "200",
    "--drifts-per-hour", "40",
    "--flaps-per-hour", "20",
    "--seed", "0",
]


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    telemetry.disable()
    telemetry.reset()


@pytest.fixture
def event_log(tmp_path):
    path = tmp_path / "events.json"
    assert main(LOADGEN + ["-o", str(path)]) == 0
    return path


class TestLoadgen:
    def test_writes_replayable_log(self, event_log, capsys):
        from repro.serve import EventLog

        log = EventLog.load(event_log)
        assert len(log) > 5
        assert log.n_streams == 5 and log.n_servers == 3

    def test_unwritable_output_errors(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        rc = main(LOADGEN + ["-o", str(blocker / "e.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestServeRun:
    def test_replay_prints_summary(self, event_log, capsys):
        rc = main(["serve", "run", "--events", str(event_log), "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serve run:" in out
        assert "full solves" in out
        assert "decision latency" in out

    def test_inline_loadgen_when_no_events(self, capsys):
        rc = main(
            [
                "serve", "run", "--streams", "4", "--servers", "3",
                "--hours", "0.02", "--arrivals-per-hour", "300",
                "--departures-per-hour", "200", "--seed", "1",
            ]
        )
        assert rc == 0
        assert "serve run:" in capsys.readouterr().out

    def test_method_flag_uses_registry(self, event_log, capsys):
        rc = main(
            [
                "serve", "run", "--events", str(event_log),
                "--method", "greedy", "--seed", "0",
            ]
        )
        assert rc == 0
        assert "method greedy" in capsys.readouterr().out

    def test_checkpoint_then_resume(self, event_log, tmp_path, capsys):
        ckpt = tmp_path / "serve.ckpt"
        rc = main(
            [
                "serve", "run", "--events", str(event_log),
                "--max-epochs", "2", "--checkpoint", str(ckpt), "--seed", "0",
            ]
        )
        assert rc == 0
        assert ckpt.exists()
        rc = main(["serve", "run", "--resume", str(ckpt)])
        assert rc == 0
        assert "resuming serve run" in capsys.readouterr().out

    def test_resume_missing_checkpoint_errors(self, tmp_path, capsys):
        rc = main(["serve", "run", "--resume", str(tmp_path / "nope.ckpt")])
        assert rc == 2
        assert "cannot resume" in capsys.readouterr().err

    def test_bandwidth_mismatch_errors(self, capsys):
        rc = main(
            ["serve", "run", "--streams", "3", "--servers", "2",
             "--bandwidths", "10", "--hours", "0.01"]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestServeReport:
    @pytest.fixture
    def trace(self, event_log, tmp_path):
        path = tmp_path / "serve.jsonl"
        assert main(
            [
                "serve", "run", "--events", str(event_log),
                "--telemetry", str(path), "--seed", "0",
            ]
        ) == 0
        return path

    def test_report_renders_summary(self, trace, capsys):
        capsys.readouterr()
        assert main(["serve", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "decision latency" in out
        assert "full solves" in out

    def test_json_format(self, trace, capsys):
        capsys.readouterr()
        assert main(["serve", "report", str(trace), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["epochs"] > 0
        assert data["decision_count"] == data["epochs"]
        assert data["full_solves"] >= 1

    def test_p95_gate_passes_with_slack(self, trace, capsys):
        assert main(["serve", "report", str(trace), "--max-p95", "60"]) == 0
        assert "within" in capsys.readouterr().out

    def test_p95_gate_fails_when_over_budget(self, trace, capsys):
        rc = main(["serve", "report", str(trace), "--max-p95", "1e-12"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().err

    def test_empty_log_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(["serve", "report", str(empty)])
        assert rc == 2
        assert "no serve events" in capsys.readouterr().err

    def test_generic_report_and_trace_understand_serve_logs(self, trace, capsys):
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "serve.decision" in out
        assert "sched.assign_cache_hits" in out
        assert main(["trace", str(trace)]) == 0
