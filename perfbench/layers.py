"""The layers the traced run wraps, and what each one should move.

Each entry names a public call of the library, the span name the
traced run records around it, and the end-to-end metric (and workload)
that a change to that layer is predicted to move.  Later performance
work cites these predictions, and the workload on which the prediction
is "no change".
"""

from __future__ import annotations

from importlib import import_module

#: (span name, "module:Owner.attr" or "module:attr", predicted mover)
SERVE_LAYERS = (
    ("admission.request_join",
     "repro.serve.admission:AdmissionController.request_join",
     "epoch_p50_ms, epochs_per_s on churn_flash; less on churn_steady"),
    ("engine.outcome",
     "repro.serve.engine:IncrementalPlanner.outcome",
     "epoch_p50_ms, epochs_per_s on churn_steady"),
    ("engine.stream_assignment",
     "repro.serve.engine:IncrementalPlanner.stream_assignment",
     "epoch_p50_ms, epochs_per_s on churn_steady"),
    ("engine.decision_arrays",
     "repro.serve.engine:IncrementalPlanner.decision_arrays",
     "epoch_p50_ms, epochs_per_s on churn_steady"),
    ("decision.sig_hash",
     "repro.serve.service:ServeDecision.sig_hash",
     "epoch_p50_ms, epochs_per_s on churn_steady"),
    ("engine.solve_all",
     "repro.serve.engine:IncrementalPlanner.solve_all",
     "epoch_p99_ms on churn_flash; solve_s on both serve workloads; "
     "setup_s on both through the warm-up"),
    ("engine.remove_stream",
     "repro.serve.engine:IncrementalPlanner.remove_stream",
     "epoch_p99_ms on the serve workloads"),
    ("engine.server_down",
     "repro.serve.engine:IncrementalPlanner.server_down",
     "epoch_p99_ms on the serve workloads (repair)"),
    ("wal.append_event",
     "repro.serve.wal:WriteAheadLog.append_event",
     "epoch_p50_ms on churn_steady"),
    ("wal.append_epoch",
     "repro.serve.wal:WriteAheadLog.append_epoch",
     "epoch_p50_ms on churn_steady"),
    ("wal.sync",
     "repro.serve.wal:WriteAheadLog.sync",
     "epoch_p50_ms on churn_steady"),
    ("service.submit",
     "repro.serve.service:SchedulerService.submit",
     "epoch_p50_ms on the serve workloads"),
    ("service.run",
     "repro.serve.service:SchedulerService.run",
     "epoch_p50_ms on the serve workloads"),
    ("service.process_epoch",
     "repro.serve.service:SchedulerService.process_epoch",
     "every serve metric; its self time is the epoch work no wrapped "
     "child covers"),
)

PAMO_LAYERS = (
    ("benefit.make_preference",
     "repro.core.benefit:make_preference",
     "setup_s on pamo_solve"),
    # Wrapped at the name its callers look up, not where it is defined.
    ("sched.group_streams",
     "repro.core.problem:group_streams",
     "solve_s and setup_s on pamo_solve"),
    ("problem.is_feasible",
     "repro.core.problem:EVAProblem.is_feasible",
     "solve_s on pamo_solve"),
    ("problem.evaluate",
     "repro.core.problem:EVAProblem.evaluate",
     "solve_s on pamo_solve"),
    ("pamo.fit_outcome_models",
     "repro.core.pamo:PaMO.fit_outcome_models",
     "solve_s on pamo_solve"),
    ("pamo.build_outcome_space",
     "repro.core.pamo:PaMO.build_outcome_space",
     "solve_s on pamo_solve"),
    ("pamo.fit_preference_model",
     "repro.core.pamo:PaMO.fit_preference_model",
     "solve_s on pamo_solve"),
    ("bo.loop.run",
     "repro.bo.loop:BOLoop.run",
     "solve_s on pamo_solve"),
    ("outcomes.update",
     "repro.outcomes.surrogate:OutcomeSurrogateBank.update",
     "solve_s on pamo_solve"),
    ("outcomes.sample_per_stream",
     "repro.outcomes.surrogate:OutcomeSurrogateBank.sample_per_stream",
     "solve_s on pamo_solve"),
    ("acq.select_batch",
     "repro.bo.acquisition:AcquisitionFunction.select_batch",
     "solve_s on pamo_solve"),
)

ALL_LAYERS = SERVE_LAYERS + PAMO_LAYERS

#: Layers whose latency percentiles the benchmark reports: each makes
#: at least 1000 calls over a traced run of churn_steady or churn_flash.
PERCENTILE_LAYERS = (
    "admission.request_join",
    "engine.outcome",
    "engine.stream_assignment",
    "engine.decision_arrays",
    "decision.sig_hash",
    "engine.remove_stream",
    "wal.append_event",
    "wal.append_epoch",
    "wal.sync",
    "service.process_epoch",
)

#: Other per-layer metrics, with the end-to-end metric each should move.
STATE_METRICS = (
    ("wal.mb", "epoch_p50_ms on churn_steady"),
    ("state.decisions", "peak_rss_mb on churn_steady"),
    ("state.checkpoint_mb", "peak_rss_mb on churn_steady"),
    ("state.checkpoint_s", "peak_rss_mb on churn_steady"),
    ("serve.cache_hit_ratio", "join_admit_ratio, epochs_per_s on churn_flash"),
    ("admit.rejected", "join_admit_ratio, epochs_per_s on churn_flash"),
    ("admit.evicted", "join_admit_ratio, epochs_per_s on churn_flash"),
    ("admit.shed", "join_admit_ratio, epochs_per_s on churn_flash"),
    ("serve.latency_reported_share",
     "none: the share of the caller-measured epoch the service's own "
     "latency_s covers"),
    ("setup.import_s", "setup_s on every workload"),
)

#: The program's own counters, read from a telemetry snapshot.
TELEMETRY_COUNTERS = (
    "gp.chol_cache_hits",
    "gp.chol_cache_misses",
    "gp.rank1_updates",
    "sched.assign_cache_hits",
    "sched.assign_cache_misses",
    "acq.vectorized_batches",
)


def resolve(target: str) -> tuple[object, str]:
    """Resolve ``"module:Owner.attr"`` or ``"module:attr"`` to (owner, attr)."""
    module_name, _, path = target.partition(":")
    owner: object = import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr
