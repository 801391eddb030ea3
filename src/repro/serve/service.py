"""The long-lived scheduler service: epoch clock, event loop, decisions.

:class:`SchedulerService` turns "a scheduler run" into "a scheduler
process".  It holds the live schedule in an
:class:`~repro.serve.engine.IncrementalPlanner`, consumes
:class:`~repro.serve.events.ServeEvent` batches grouped by an epoch
clock, and emits one :class:`ServeDecision` per epoch:

* **warm-up** (epoch 0) is the only full solve on the happy path: a
  batch scheduler's :meth:`~repro.core.scheduler.Scheduler.optimize`
  (or the engine's greedy admission) seeds the per-stream decision
  cache;
* **steady state** replans incrementally — each event touches only the
  streams it names, every untouched stream's cached config is reused
  (``serve.cache_hits``), and the decision latency is the engine's own
  delta cost, measured per epoch under the ``serve.decision`` span;
* **full solves** after warm-up happen only on explicit ``drift``
  events or a ``reoptimize_every`` schedule, via the scheduler's
  :meth:`~repro.core.scheduler.Scheduler.replan` (PaMO warm-starts).

Overload hardening layers on top of that loop: joins route through an
:class:`~repro.serve.admission.AdmissionController` (priority classes,
benefit-aware eviction, token-bucket and queue-depth shedding), a
:class:`~repro.resilience.breaker.CircuitBreaker` guards the full-solve
path and drops the service into **brownout** (incremental-only deltas,
min-config admissions) when solves breach their deadline or raise, and
a :class:`RemediationPolicy` turns the attached
:class:`~repro.obs.health.HealthMonitor`'s ``alert.fired`` edges into
the same actions (enter brownout / shed joins / force a checkpoint)
instead of only reporting them.

Counters: ``serve.replans`` (epoch decisions), ``serve.full_solves``,
``serve.cache_hits``, ``serve.events``, ``serve.solved``,
``serve.repairs``, ``serve.evictions``, ``serve.admission_rejects``,
plus the hardening families ``admit.rejected``/``admit.shed``/
``admit.evicted_for``, ``breaker.*``, ``serve.brownout_*``, and
``serve.suppressed_full_solves``.

The service pickles whole (planner, queue, scheduler, counters), so
:func:`repro.resilience.checkpoint.save_checkpoint` gives mid-run
checkpoint/resume with a bit-identical continuation — the determinism
tests replay the same event log straight and split across a resume and
require identical decision signatures.  With a
:class:`~repro.serve.wal.WriteAheadLog` attached, every submitted
event and every epoch decision fingerprint also lands in an
append-only journal, so a SIGKILL loses nothing the checkpoint missed
(``repro serve recover`` = checkpoint + WAL suffix replay).
"""

from __future__ import annotations

import hashlib
import struct
import time
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.core.problem import EVAProblem
from repro.core.result import ScheduleDecision
from repro.obs import telemetry
from repro.pref.decision_maker import LinearL1Preference
from repro.sched.grouping import InfeasibleScheduleError
from repro.serve.admission import AdmissionController
from repro.serve.engine import IncrementalPlanner
from repro.serve.events import EventQueue, ServeEvent

__all__ = [
    "DECISION_WINDOW",
    "RemediationPolicy",
    "SchedulerService",
    "ServeDecision",
    "ServeEpochTick",
    "RegistryFactory",
]

#: Samples in the rolling decision window — THE definition of the
#: serve loop's "current" latency percentiles and benefit baseline.
#: :meth:`SchedulerService.summary`, :meth:`SchedulerService.
#: health_snapshot`, and :func:`repro.serve.report.summarize_serve_run`
#: all compute p50/p95/p99 over the most recent ``DECISION_WINDOW``
#: epochs, so a scrape mid-run and a post-hoc report agree.
DECISION_WINDOW = 512

#: Instrument keys mirrored as monotone counters, and how many latency
#: samples may sit in the scrape-time flush buffer before the serve
#: thread flushes inline (bounds memory on scraper-less runs).
_COUNTER_KEYS = (
    "epochs", "full_solves", "cache_hits", "solved", "rejects", "evictions",
    "shed",
)
_FLUSH_EVERY = 4096


def _pct(ordered: list[float], q: float) -> float:
    """Linear-interpolated percentile of a pre-sorted list (0 if empty)."""
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] * (1 - (pos - lo)) + ordered[hi] * (pos - lo)


class _WindowStats:
    """Incrementally-maintained rolling window of per-epoch stats.

    The serve loop pushes one entry per epoch and the observability
    path reads percentiles/sums per epoch, so everything here is
    amortized O(log n): the latency order statistic lives in a
    bisect-maintained sorted list and the cache-hit/benefit aggregates
    are running sums updated on push/evict — a full O(n) pass per
    epoch would blow the <2% metrics-overhead budget.
    """

    def __init__(self, maxlen: int = DECISION_WINDOW) -> None:
        self.maxlen = int(maxlen)
        self.entries: deque[tuple] = deque()
        self.lat_sorted: list[float] = []
        self.hits = 0
        self.solved = 0
        self.benefit_sum = 0.0
        self.benefit_n = 0
        self.last_benefit: float | None = None

    def push(
        self,
        latency_s: float,
        benefit: float | None,
        cache_hits: int,
        solved: int,
        full_solve: bool,
    ) -> None:
        if len(self.entries) >= self.maxlen:
            old = self.entries.popleft()
            self.lat_sorted.pop(bisect_left(self.lat_sorted, old[0]))
            self.hits -= old[2]
            self.solved -= old[3]
            if old[1] is not None:
                self.benefit_sum -= old[1]
                self.benefit_n -= 1
        entry = (
            float(latency_s),
            None if benefit is None else float(benefit),
            int(cache_hits),
            int(solved),
            bool(full_solve),
        )
        self.entries.append(entry)
        insort(self.lat_sorted, entry[0])
        self.hits += entry[2]
        self.solved += entry[3]
        if entry[1] is not None:
            self.benefit_sum += entry[1]
            self.benefit_n += 1
            self.last_benefit = entry[1]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def baseline(self) -> float | None:
        """Rolling mean benefit over the window (None before any score)."""
        return self.benefit_sum / self.benefit_n if self.benefit_n else None


def _get_cache_hit_ratio(svc, w: _WindowStats) -> float:
    total = w.hits + w.solved
    return w.hits / total if total else 0.0


def _get_benefit_drop(svc, w: _WindowStats) -> float | None:
    benefit, baseline = w.last_benefit, w.baseline
    if benefit is None or baseline is None:
        return None
    return max(0.0, (baseline - benefit) / max(abs(baseline), 1e-12))


#: ``metric name -> getter(service, window)`` for every documented
#: :meth:`SchedulerService.health_snapshot` key.  The compiled SLO
#: probe (:meth:`SchedulerService._build_slo_probe`) evaluates only the
#: getters the attached rules reference — flat single-call functions,
#: since this runs every epoch on the hot path.
_SLO_GETTERS: dict[str, Callable] = {
    "epoch": lambda svc, w: svc.epoch,
    "window": lambda svc, w: len(w.entries),
    "decision_p50_s": lambda svc, w: _pct(w.lat_sorted, 0.50),
    "decision_p95_s": lambda svc, w: _pct(w.lat_sorted, 0.95),
    "decision_p99_s": lambda svc, w: _pct(w.lat_sorted, 0.99),
    "decision_max_s": lambda svc, w: w.lat_sorted[-1] if w.lat_sorted else 0.0,
    "cache_hit_ratio": _get_cache_hit_ratio,
    "queue_depth": lambda svc, w: len(svc.queue),
    "n_streams": lambda svc, w: len(svc.planner.entries),
    "n_alive_servers": lambda svc, w: svc.planner.n_alive,
    "benefit": lambda svc, w: w.last_benefit,
    "benefit_baseline": lambda svc, w: w.baseline,
    "benefit_drop_ratio": _get_benefit_drop,
    "mode_brownout": lambda svc, w: 1 if svc.mode == "brownout" else 0,
    "breaker_state": lambda svc, w: (
        0 if svc.breaker is None else svc.breaker.rank
    ),
}


@dataclass(frozen=True)
class RemediationPolicy:
    """How ``alert.fired``/``alert.resolved`` edges steer the service.

    An alert whose severity reaches ``brownout_severity`` puts the
    service into brownout (and the matching ``alert.resolved`` edge
    lifts it, once no other reason holds); one reaching
    ``shed_severity`` additionally turns on join shedding; one
    reaching ``checkpoint_severity`` forces an immediate checkpoint to
    the run's checkpoint path (crash insurance while unhealthy).
    ``None`` disables that action.  Severities are the
    :data:`repro.obs.health.SEVERITIES` names.
    """

    brownout_severity: str | None = "unhealthy"
    shed_severity: str | None = None
    checkpoint_severity: str | None = None

    def __post_init__(self) -> None:
        from repro.obs.health import SEVERITIES

        for name in ("brownout_severity", "shed_severity", "checkpoint_severity"):
            value = getattr(self, name)
            if value is not None and value not in SEVERITIES[1:]:
                raise ValueError(
                    f"{name} must be one of {SEVERITIES[1:]} or None, "
                    f"got {value!r}"
                )

    def to_dict(self) -> dict:
        return {
            "brownout_severity": self.brownout_severity,
            "shed_severity": self.shed_severity,
            "checkpoint_severity": self.checkpoint_severity,
        }


@dataclass
class ServeDecision:
    """One epoch's scheduling decision and its bookkeeping.

    ``signature()`` is the determinism fingerprint: everything that
    must replay bit-identically (configs, placement, outcome, benefit)
    and nothing that legitimately varies (wall-clock latency).
    """

    epoch: int
    time: float
    events: list[str]
    stream_ids: list[int]
    resolutions: np.ndarray
    fps: np.ndarray
    assignment: dict[int, tuple[int, ...]]
    outcome: np.ndarray | None
    benefit: float | None
    full_solve: bool
    cache_hits: int
    solved: int
    rejected: list[int]
    evicted: list[int]
    latency_s: float = 0.0
    shed: list[int] = field(default_factory=list)
    mode: str = "normal"

    def signature(self) -> tuple:
        """Bit-exact replay fingerprint (excludes wall-clock latency)."""
        return (
            self.epoch,
            tuple(self.events),
            tuple(self.stream_ids),
            tuple(float(v) for v in self.resolutions),
            tuple(float(v) for v in self.fps),
            tuple(sorted(self.assignment.items())),
            None if self.outcome is None else tuple(float(v) for v in self.outcome),
            None if self.benefit is None else float(self.benefit),
            self.full_solve,
            self.cache_hits,
            self.solved,
            tuple(self.rejected),
            tuple(self.evicted),
            tuple(self.shed),
            self.mode,
        )

    def sig_hash(self) -> str:
        """Short stable hash of the decision (the WAL fingerprint).

        Covers the same content as :meth:`signature`, but the float
        arrays go into the digest as raw little-endian IEEE-754 bytes
        instead of ``repr`` text — identical determinism (bit-equal
        floats hash bit-identically across processes), an order of
        magnitude cheaper on the journaled per-epoch hot path.
        """
        h = hashlib.sha256()
        h.update(f"{self.mode}#{len(self.events)}|".encode("utf-8"))
        h.update("|".join(self.events).encode("utf-8"))
        # One length-prefixed int vector covers every discrete field —
        # length prefixes keep adjacent sequences from aliasing.
        ints = [self.epoch, int(self.full_solve), self.cache_hits, self.solved]
        for seq in (self.stream_ids, self.rejected, self.evicted, self.shed):
            ints.append(len(seq))
            ints.extend(seq)
        ints.extend(
            x
            for sid, servers in sorted(self.assignment.items())
            for x in (sid, len(servers), *servers)
        )
        h.update(struct.pack(f"<{len(ints)}q", *ints))
        h.update(np.asarray(self.resolutions, dtype="<f8").tobytes())
        h.update(np.asarray(self.fps, dtype="<f8").tobytes())
        if self.outcome is not None:
            h.update(np.asarray(self.outcome, dtype="<f8").tobytes())
        if self.benefit is not None:
            h.update(np.float64(self.benefit).tobytes())
        return h.hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "epoch": int(self.epoch),
            "time": float(self.time),
            "events": list(self.events),
            "n_streams": len(self.stream_ids),
            "stream_ids": [int(s) for s in self.stream_ids],
            "resolutions": [float(v) for v in self.resolutions],
            "fps": [float(v) for v in self.fps],
            "assignment": {
                str(k): [int(q) for q in v] for k, v in self.assignment.items()
            },
            "outcome": None if self.outcome is None else [
                float(v) for v in self.outcome
            ],
            "benefit": None if self.benefit is None else float(self.benefit),
            "full_solve": bool(self.full_solve),
            "cache_hits": int(self.cache_hits),
            "solved": int(self.solved),
            "rejected": [int(s) for s in self.rejected],
            "evicted": [int(s) for s in self.evicted],
            "shed": [int(s) for s in self.shed],
            "mode": self.mode,
            "latency_s": float(self.latency_s),
        }


@dataclass
class ServeEpochTick:
    """One monitoring epoch of :meth:`SchedulerService.run_epochs`.

    ``expected`` is the deployed decision's predicted outcome,
    ``observed`` what the environment reported, ``deviation`` the
    detector's max relative gap between them, and ``reoptimized``
    whether this epoch's drift triggered a full solve.
    """

    epoch: int
    expected: np.ndarray
    observed: np.ndarray
    deviation: float
    reoptimized: bool


class RegistryFactory:
    """Picklable ``factory(problem, epoch) -> Scheduler`` over the registry.

    The serve checkpoint pickles the whole service, factory included,
    so CLI runs use this named class instead of a closure.
    """

    def __init__(self, method: str, preference, seed: int = 0, **kwargs) -> None:
        self.method = method
        self.preference = preference
        self.seed = seed
        self.kwargs = dict(kwargs)

    def __call__(self, problem: EVAProblem, epoch: int = 0):
        from repro.baselines import make_scheduler

        return make_scheduler(
            self.method,
            problem,
            preference=self.preference,
            rng=self.seed + epoch,
            **self.kwargs,
        )


class SchedulerService:
    """Event-driven online scheduler (see module docstring).

    Parameters
    ----------
    problem:
        Initial topology: its streams are the warm-up population, its
        servers/knobs/outcome functions the substrate for the whole run.
    preference:
        System benefit function scoring every epoch decision.
    scheduler_factory:
        Optional ``factory(problem, epoch) -> Scheduler`` for full
        solves (warm-up and drift).  ``None`` uses the engine's greedy
        admission as the full solve — the fast path for large fleets.
    epoch_s:
        Epoch clock granularity; same-epoch events batch into one
        decision.
    reoptimize_every:
        Force a full solve every N epochs (0 = never; incremental only).
    reuse_scheduler:
        Keep one scheduler across full solves and :meth:`~repro.core.
        scheduler.Scheduler.replan` it (warm starts).  ``False``
        builds a fresh scheduler from ``scheduler_factory`` for every
        solve.
    admission:
        :class:`~repro.serve.admission.AdmissionController` deciding
        joins.  The default controller admits exactly what the bare
        planner admits (no priorities, no shedding) — prior behavior.
    breaker:
        Optional :class:`~repro.resilience.breaker.CircuitBreaker`
        guarding full solves; open = brownout.
    remediation:
        Optional :class:`RemediationPolicy` mapping health-monitor
        alert edges to brownout/shed/checkpoint actions.
    """

    def __init__(
        self,
        problem: EVAProblem,
        *,
        preference: LinearL1Preference,
        scheduler_factory: Callable[..., object] | None = None,
        epoch_s: float = 1.0,
        reoptimize_every: int = 0,
        reuse_scheduler: bool = True,
        admission: AdmissionController | None = None,
        breaker=None,
        remediation: RemediationPolicy | None = None,
    ) -> None:
        if epoch_s <= 0:
            raise ValueError(f"epoch_s must be > 0, got {epoch_s}")
        if reoptimize_every < 0:
            raise ValueError(
                f"reoptimize_every must be >= 0, got {reoptimize_every}"
            )
        self.problem = problem
        self.preference = preference
        self.scheduler_factory = scheduler_factory
        self.epoch_s = float(epoch_s)
        self.reoptimize_every = int(reoptimize_every)
        self.reuse_scheduler = bool(reuse_scheduler)
        self.admission = admission if admission is not None else AdmissionController()
        self.breaker = breaker
        self.remediation = remediation
        # Operating mode: "normal", or "brownout" (incremental-only
        # deltas, min-config admissions).  The reason sets track *why*
        # — brownout lifts only when every reason has cleared.
        self.mode = "normal"
        self._brownout_reasons: set[str] = set()
        self._shed_reasons: set[str] = set()
        # Write-ahead log: transient handle + the persisted high-water
        # sequence number (how recovery knows which WAL suffix to replay).
        self.wal = None
        self.wal_seq = 0
        # epoch -> (mode, full_solve) pins during WAL replay; empty on
        # live runs.
        self._forced_modes: dict[int, tuple[str, bool]] = {}
        self._stop = False
        self._ckpt_path = None
        self.scheduler = None
        self.planner = IncrementalPlanner.for_problem(problem, preference=preference)
        self.queue = EventQueue()
        self.decisions: list[ServeDecision] = []
        self.textures: dict[int, float] = {
            i: float(problem.textures[i]) for i in range(problem.n_streams)
        }
        self._next_sid = problem.n_streams
        self.epoch = 0
        self.started = False
        self.last_decision: ScheduleDecision | None = None
        # Becomes True once churn events mutate the topology, after
        # which full solves rebuild the problem from live state instead
        # of reusing the constructor's problem object.
        self._topology_dirty = False
        # Rolling per-epoch stats (latency, benefit, hits, solved,
        # full) — the bounded window behind summary()/health_snapshot().
        self._window = _WindowStats(DECISION_WINDOW)
        # Live observability (attach_observability): a MetricsRegistry
        # mirror and a HealthMonitor driving /healthz + alert events.
        self.metrics = None
        self.monitor = None
        self.alerts: list[dict] = []
        self._mhandles: dict | None = None
        self._slo_probe: Callable[[], dict] | None = None
        # Counter deltas accumulate in plain ints per epoch and flush
        # into the registry at scrape time (or every _FLUSH_EVERY
        # epochs) — the per-epoch path stays lock- and registry-free.
        self._mcounts: dict[str, int] | None = None
        self._mflushed: dict[str, int] = {}
        self._mpending: list[float] = []
        self._mpending_done = 0

    # -- topology ----------------------------------------------------------
    def current_problem(self) -> EVAProblem | None:
        """Degraded problem over active streams and alive servers.

        ``None`` when nothing survives (no stream or no server) — the
        same contract as :func:`repro.resilience.chaos.degraded_problem`.
        """
        bw = self.planner.effective_bw()
        sids = sorted(self.textures)
        if bw.size == 0 or not sids:
            return None
        return EVAProblem(
            n_streams=len(sids),
            bandwidths_mbps=bw,
            config_space=self.problem.config_space,
            textures=[self.textures[s] for s in sids],
            profile=self.problem.profile,
            encoder=self.problem.encoder,
            outcomes=self.problem.outcomes,
        )

    def epoch_of(self, t: float) -> int:
        """Epoch index for an event time (epoch 0 is the warm-up)."""
        return int(t / self.epoch_s + 1e-9) + 1

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> ServeDecision:
        """Warm-up full solve over the initial stream population."""
        if self.started:
            raise RuntimeError("service already started")
        self.started = True
        t0 = time.perf_counter()
        with telemetry.span("serve.decision"):
            stats = self._full_solve(reason="warmup", epoch=0)
            decision = self._emit_decision(
                epoch=0,
                t=0.0,
                events=[],
                full_solve=True,
                solved=len(self.planner.entries),
                cache_hits=0,
                rejected=stats.get("rejected", []),
                evicted=stats.get("evicted", []),
                latency_s=time.perf_counter() - t0,
            )
        return decision

    def submit(self, events: Iterable[ServeEvent]) -> int:
        """Queue events for :meth:`run`; returns how many were queued.

        With a WAL attached every event is journaled (with its
        sequence number) *before* it enters the queue — write-ahead —
        so a crash after ``submit`` returns can always replay it.
        """
        n = 0
        wal = self.wal
        for e in events:
            if wal is not None:
                self.wal_seq += 1
                wal.append_event(self.wal_seq, e)
            self.queue.push(e)
            n += 1
        return n

    def attach_wal(self, wal) -> None:
        """Attach a :class:`~repro.serve.wal.WriteAheadLog`.

        Transient like the metrics registry (checkpoints drop the file
        handle but keep :attr:`wal_seq`); attach before :meth:`start`
        so the warm-up decision is journaled too.
        """
        self.wal = wal

    def request_stop(self) -> None:
        """Ask :meth:`run` to stop after the epoch in flight (graceful).

        Signal-handler safe: sets a flag the run loop checks between
        epochs — the current epoch drains, the final checkpoint and
        WAL sync still happen, and :meth:`run` returns normally.
        """
        self._stop = True

    def run(
        self,
        *,
        max_epochs: int | None = None,
        checkpoint_path=None,
        checkpoint_every: int = 0,
        pace_s: float = 0.0,
    ) -> list[ServeDecision]:
        """Drain the event queue epoch by epoch; returns new decisions.

        ``max_epochs`` bounds this call (the queue keeps the rest —
        how the mid-run checkpoint tests split a run).  With
        ``checkpoint_path`` the whole service pickles every
        ``checkpoint_every`` epochs (and at the end of the call).
        ``pace_s`` sleeps between epochs — replayed logs drain in
        milliseconds otherwise, too fast for a live scraper to watch.
        :meth:`request_stop` (the CLI's SIGTERM/SIGINT handler) ends
        the loop after the epoch in flight; the final checkpoint and
        WAL sync still run.
        """
        if not self.started:
            self.start()
        self._stop = False
        self._ckpt_path = checkpoint_path or None
        made: list[ServeDecision] = []
        try:
            while self.queue and (max_epochs is None or len(made) < max_epochs):
                first = self.queue.peek()
                epoch = self.epoch_of(first.time)
                batch = [self.queue.pop()]
                while self.queue and self.epoch_of(self.queue.peek().time) == epoch:
                    batch.append(self.queue.pop())
                made.append(self.process_epoch(epoch, batch))
                if (
                    checkpoint_path
                    and checkpoint_every > 0
                    and len(made) % checkpoint_every == 0
                ):
                    self.save_checkpoint(checkpoint_path)
                if self._stop:
                    telemetry.counter("serve.graceful_stops")
                    telemetry.event("serve.graceful_stop", epoch=int(self.epoch))
                    break
                if pace_s > 0 and self.queue:
                    time.sleep(pace_s)
            if checkpoint_path and made:
                self.save_checkpoint(checkpoint_path)
        finally:
            if self.wal is not None:
                self.wal.sync()
        return made

    # -- the per-epoch decision -------------------------------------------
    def process_epoch(self, epoch: int, batch: list[ServeEvent]) -> ServeDecision:
        """Apply one epoch's events and produce its decision.

        ``mode`` for the epoch (what admissions and the decision
        record see) is the operating mode at epoch start — or, during
        WAL replay, the mode the original run journaled for this
        epoch, which pins recovered decisions to the recorded ones
        even when a transition was triggered by wall-clock latency.
        """
        self.epoch = epoch
        forced = self._forced_modes.pop(epoch, None) if self._forced_modes else None
        mode = forced[0] if forced is not None else self.mode
        shed_mode = bool(self._shed_reasons)
        t = batch[-1].time if batch else epoch * self.epoch_s
        t0 = time.perf_counter()
        with telemetry.span("serve.decision"):
            touched: set[int] = set()
            solved = 0
            rejected: list[int] = []
            evicted: list[int] = []
            shed: list[int] = []
            want_full = False
            if any(ev.kind != "drift" for ev in batch):
                self._topology_dirty = True
            for ev in batch:
                if ev.kind == "stream_join":
                    sid = ev.target if ev.target >= 0 else self._next_sid
                    if sid in self.planner.entries:
                        sid = self._next_sid
                    self._next_sid = max(self._next_sid, sid + 1)
                    texture = float(ev.value) if ev.value is not None else 1.0
                    out = self.admission.request_join(
                        self.planner,
                        sid,
                        texture,
                        epoch=epoch,
                        queue_depth=len(self.queue),
                        min_config=mode == "brownout",
                        shed_mode=shed_mode,
                    )
                    if out.admitted:
                        self.textures[sid] = texture
                        touched.add(sid)
                        solved += 1
                        if out.evicted:
                            for vid in out.evicted:
                                self.textures.pop(vid, None)
                                touched.add(vid)
                            evicted.extend(out.evicted)
                            telemetry.counter(
                                "admit.evicted_for", len(out.evicted)
                            )
                            telemetry.counter(
                                "serve.evictions", len(out.evicted)
                            )
                    elif out.action == "shed":
                        shed.append(sid)
                        telemetry.counter("admit.shed")
                    else:
                        rejected.append(sid)
                        telemetry.counter("admit.rejected")
                        telemetry.counter("serve.admission_rejects")
                    for vid in out.dropped:  # failed rollback (pathological)
                        self.textures.pop(vid, None)
                        touched.add(vid)
                        evicted.append(vid)
                elif ev.kind == "stream_leave":
                    if self.planner.remove_stream(ev.target):
                        self.textures.pop(ev.target, None)
                        touched.add(ev.target)
                elif ev.kind == "bandwidth_drift":
                    if 0 <= ev.target < self.planner.n_servers:
                        self.planner.set_bandwidth_factor(
                            ev.target, float(ev.value)
                        )
                elif ev.kind == "server_down":
                    stats = self.planner.server_down(
                        ev.target, priority_of=self.admission.priority_of
                    )
                    repaired = stats["migrated"] + stats["degraded"]
                    solved += stats["degraded"]
                    touched.update(stats["evicted"])
                    for sid in stats["evicted"]:
                        self.textures.pop(sid, None)
                    evicted.extend(stats["evicted"])
                    if repaired:
                        telemetry.counter("serve.repairs", repaired)
                elif ev.kind == "server_up":
                    self.planner.server_up(ev.target)
                elif ev.kind == "drift":
                    want_full = True
            if self.reoptimize_every and epoch % self.reoptimize_every == 0:
                want_full = True
            # The breaker sees every *wanted* full solve, replay or
            # not, so its state marches identically on deterministic
            # failures; only the run/skip choice is pinned by `forced`.
            probe = False
            if want_full and self.breaker is not None:
                allowed = self.breaker.allow(epoch)
                probe = allowed and self.breaker.state == "half_open"
                if not allowed and forced is None:
                    want_full = False
                    telemetry.counter("breaker.short_circuits")
            if forced is not None:
                want_full = forced[1]
            elif want_full and mode == "brownout" and not probe:
                # Brownout: incremental-only.  Breaker probes bypass
                # this (the breaker can only close by trying).
                want_full = False
                telemetry.counter("serve.suppressed_full_solves")
            full_stats: dict = {}
            if want_full:
                t_solve = time.perf_counter()
                failed = False
                try:
                    full_stats = self._full_solve(reason="drift", epoch=epoch)
                except InfeasibleScheduleError:
                    raise
                except Exception as exc:
                    if self.breaker is None:
                        raise
                    # Batch-scheduler failures raise before the engine
                    # re-embeds, so the live schedule is intact; count
                    # the failure and carry on incrementally.
                    failed = True
                    full_stats = {}
                    telemetry.counter("serve.full_solve_errors")
                    telemetry.event(
                        "serve.full_solve_error",
                        epoch=int(epoch),
                        error=repr(exc),
                    )
                if not failed:
                    solved = len(self.planner.entries)
                    touched.update(self.planner.entries)
                if self.breaker is not None:
                    label = self.breaker.record(
                        epoch=epoch,
                        duration_s=time.perf_counter() - t_solve,
                        failed=failed,
                    )
                    if label is not None:
                        self._on_breaker(label, epoch)
                if failed:
                    want_full = False  # the decision records an incremental epoch
            cache_hits = max(0, len(self.planner.entries) - len(
                touched & set(self.planner.entries)
            )) if not want_full else 0
            decision = self._emit_decision(
                epoch=epoch,
                t=t,
                events=[self._event_label(e) for e in batch],
                full_solve=want_full,
                solved=solved,
                cache_hits=cache_hits,
                rejected=rejected + full_stats.get("rejected", []),
                evicted=evicted + full_stats.get("evicted", []),
                shed=shed,
                mode=mode,
                latency_s=time.perf_counter() - t0,
            )
        telemetry.counter("serve.events", len(batch))
        return decision

    # -- brownout / remediation --------------------------------------------
    def _on_breaker(self, label: str, epoch: int) -> None:
        if label == "open":
            self._enter_brownout("breaker", epoch=epoch)
        elif label == "close":
            self._exit_brownout("breaker", epoch=epoch)

    def _enter_brownout(self, reason: str, *, epoch: int) -> None:
        self._brownout_reasons.add(reason)
        if self.mode != "brownout":
            self.mode = "brownout"
            telemetry.counter("serve.brownout_enters")
            telemetry.event(
                "serve.brownout_enter", epoch=int(epoch), reason=reason
            )

    def _exit_brownout(self, reason: str, *, epoch: int) -> None:
        self._brownout_reasons.discard(reason)
        if not self._brownout_reasons and self.mode == "brownout":
            self.mode = "normal"
            telemetry.counter("serve.brownout_exits")
            telemetry.event(
                "serve.brownout_exit", epoch=int(epoch), reason=reason
            )

    def _remediate(self, edge: dict, *, epoch: int) -> None:
        """Close the loop on one health-alert edge (see RemediationPolicy)."""
        from repro.obs.health import severity_rank

        policy = self.remediation
        if policy is None:
            return
        rank = severity_rank(edge.get("severity", "degraded"))
        reason = f"alert:{edge.get('rule')}"
        if edge.get("event") == "alert.fired":
            if (
                policy.shed_severity is not None
                and rank >= severity_rank(policy.shed_severity)
            ):
                self._shed_reasons.add(reason)
                telemetry.counter("serve.shed_mode_enters")
            if (
                policy.brownout_severity is not None
                and rank >= severity_rank(policy.brownout_severity)
            ):
                self._enter_brownout(reason, epoch=epoch)
            if (
                policy.checkpoint_severity is not None
                and rank >= severity_rank(policy.checkpoint_severity)
                and self._ckpt_path
                and not self._forced_modes  # not mid-replay
            ):
                self.save_checkpoint(self._ckpt_path)
                telemetry.counter("serve.remediation_checkpoints")
        else:  # alert.resolved
            self._shed_reasons.discard(reason)
            self._exit_brownout(reason, epoch=epoch)

    @staticmethod
    def _event_label(e: ServeEvent) -> str:
        label = f"{e.kind}:{e.target}"
        if e.value is not None:
            label += f"x{e.value:g}"
        return label

    def _deploy_batch(self, *, reason: str, epoch: int) -> dict | None:
        """Solve the full problem and deploy; no engine re-embedding.

        Returns engine stats on the factory-less path (the greedy solve
        IS the engine state); ``None`` on the batch-scheduler path,
        where only ``last_decision`` is updated.
        """
        telemetry.counter("serve.full_solves")
        if self.scheduler_factory is None:
            stats = self.planner.solve_all(dict(self.textures))
            for sid in stats.get("rejected", []):
                self.textures.pop(sid, None)
            self.last_decision = None
            return stats
        prob = self.current_problem() if self._topology_dirty else self.problem
        if prob is None:
            raise InfeasibleScheduleError(
                "no surviving stream/server to solve for"
            )
        if self.scheduler is None or not self.reuse_scheduler:
            self.scheduler = self.scheduler_factory(prob, epoch)
            out = self.scheduler.optimize()
        else:
            out = self.scheduler.replan(prob, reason=reason)
        self.last_decision = out.decision
        return None

    def _full_solve(self, *, reason: str, epoch: int) -> dict:
        """Re-solve and re-embed into the engine (event-loop full solve)."""
        stats = self._deploy_batch(reason=reason, epoch=epoch)
        if stats is not None:
            return stats
        decision = self.last_decision
        sids = sorted(self.textures)
        configs = {
            sid: (float(decision.resolutions[i]), float(decision.fps[i]))
            for i, sid in enumerate(sids)
        }
        stats = self.planner.rebuild(configs, self.textures)
        for sid in stats.get("evicted", []):
            self.textures.pop(sid, None)
        return stats

    def _emit_decision(
        self,
        *,
        epoch: int,
        t: float,
        events: list[str],
        full_solve: bool,
        solved: int,
        cache_hits: int,
        rejected: list[int],
        evicted: list[int],
        latency_s: float,
        shed: list[int] | None = None,
        mode: str = "normal",
    ) -> ServeDecision:
        sids, r, s = self.planner.decision_arrays()
        outcome = benefit = None
        assignment: dict[int, tuple[int, ...]] = {}
        if sids and self.planner.n_alive:
            outcome = self.planner.outcome()
            benefit = float(self.preference.value(outcome))
            assignment = self.planner.stream_assignment()
        decision = ServeDecision(
            epoch=epoch,
            time=t,
            events=events,
            stream_ids=sids,
            resolutions=r,
            fps=s,
            assignment=assignment,
            outcome=outcome,
            benefit=benefit,
            full_solve=full_solve,
            cache_hits=cache_hits,
            solved=solved,
            rejected=rejected,
            evicted=evicted,
            latency_s=latency_s,
            shed=list(shed) if shed else [],
            mode=mode,
        )
        self.decisions.append(decision)
        self._window.push(
            latency_s, benefit, cache_hits, solved, bool(full_solve)
        )
        if self.wal is not None:
            self.wal.append_epoch(
                epoch=epoch,
                mode=mode,
                full=bool(full_solve),
                sig=decision.sig_hash(),
            )
        telemetry.counter("serve.replans")
        if not full_solve:  # serve.full_solves counted in _full_solve
            telemetry.counter("serve.cache_hits", cache_hits)
        telemetry.counter("serve.solved", solved)
        if telemetry.enabled:
            telemetry.event(
                "serve.decision",
                epoch=int(epoch),
                time=float(t),
                events=events,
                n_streams=len(sids),
                n_alive_servers=int(self.planner.n_alive),
                benefit=benefit,
                outcome=None if outcome is None else [float(v) for v in outcome],
                full_solve=bool(full_solve),
                cache_hits=int(cache_hits),
                solved=int(solved),
                rejected=[int(x) for x in rejected],
                evicted=[int(x) for x in evicted],
                shed=[int(x) for x in decision.shed],
                mode=mode,
                latency_s=float(latency_s),
            )
        self._observe(decision)
        return decision

    # -- live observability ------------------------------------------------
    def attach_observability(self, *, metrics=None, monitor=None) -> None:
        """Attach a live metrics mirror and/or a health monitor.

        ``metrics`` is a :class:`repro.obs.metrics.MetricsRegistry`:
        event-driven instruments (counters, the latency histogram) are
        updated after every epoch decision, while derived gauges
        (streams, queue depth, hit ratio, benefit) refresh lazily at
        scrape time via a registry collect hook — the gauge-function
        idiom, which keeps the per-epoch cost inside the <2% budget.
        ``monitor`` is a :class:`repro.obs.health.HealthMonitor`
        evaluated against :meth:`health_snapshot` each epoch, its edge
        events appended to :attr:`alerts` and emitted as
        ``alert.fired``/``alert.resolved`` telemetry.  Both are
        transient: checkpoints drop the registry (it owns locks), so
        re-attach after :meth:`resume`.
        """
        if self.metrics is not None:
            self.metrics.remove_collect_hook(self._refresh_gauges)
        self.metrics = metrics
        self.monitor = monitor
        self._mhandles = None if metrics is None else {
            "epochs": metrics.counter(
                "serve_epochs_total", "epoch decisions made"
            ),
            "full_solves": metrics.counter(
                "serve_full_solves_total", "full re-solves"
            ),
            "cache_hits": metrics.counter(
                "serve_cache_hits_total", "cached stream decisions"
            ),
            "solved": metrics.counter(
                "serve_solved_total", "re-solved stream decisions"
            ),
            "rejects": metrics.counter(
                "serve_admission_rejects_total", "rejected joins"
            ),
            "evictions": metrics.counter(
                "serve_evictions_total", "evicted streams"
            ),
            "shed": metrics.counter(
                "serve_sheds_total", "joins shed by admission control"
            ),
            "latency": metrics.histogram(
                "serve_decision_latency_seconds",
                "per-epoch decision latency",
                window_samples=DECISION_WINDOW,
            ),
            "streams": metrics.gauge("serve_streams", "admitted streams"),
            "alive": metrics.gauge("serve_alive_servers", "servers up"),
            "queue": metrics.gauge(
                "serve_queue_depth", "events waiting in the queue"
            ),
            "hit_ratio": metrics.gauge(
                "serve_cache_hit_ratio", "windowed cached/(cached+solved)"
            ),
            "benefit": metrics.gauge(
                "serve_benefit", "current total system benefit"
            ),
            "baseline": metrics.gauge(
                "serve_benefit_baseline", "rolling mean benefit (window)"
            ),
            "drop": metrics.gauge(
                "serve_benefit_drop_ratio",
                "relative drop of current benefit vs rolling baseline",
            ),
            "health": metrics.gauge(
                "serve_health", "health state (0=ok, 1=degraded, 2=unhealthy)"
            ),
            "mode": metrics.gauge(
                "serve_mode", "operating mode (0=normal, 1=brownout)"
            ),
            "breaker": metrics.gauge(
                "serve_breaker_state",
                "circuit breaker (0=closed, 1=half_open, 2=open)",
            ),
        }
        self._slo_probe = (
            None if monitor is None else self._build_slo_probe(monitor)
        )
        self._mcounts = (
            None
            if metrics is None
            else {key: 0 for key in _COUNTER_KEYS}
        )
        self._mflushed = {key: 0 for key in _COUNTER_KEYS}
        self._mpending = []
        self._mpending_done = 0
        if metrics is not None:
            metrics.add_collect_hook(self._refresh_gauges)
            self._observe(self.decisions[-1] if self.decisions else None)

    def _build_slo_probe(self, monitor) -> Callable[[], dict]:
        """Compile a minimal per-epoch snapshot for ``monitor``'s rules.

        :meth:`health_snapshot` builds all 13 documented keys; the
        attached rules typically read two.  This binds one getter per
        *referenced* key (unknown metrics stay absent, so such rules
        abstain — the same semantics as the full snapshot) and returns
        a zero-arg callable the per-epoch path evaluates instead.
        Closures don't pickle; checkpoints drop the probe and
        :meth:`__setstate__` recompiles it from the monitor's rules.
        """
        needed = {rule.metric for rule in monitor.rules}
        probes = [(k, g) for k, g in _SLO_GETTERS.items() if k in needed]

        def probe() -> dict:
            window = self._window
            return {k: g(self, window) for k, g in probes}

        return probe

    def _observe(self, decision: ServeDecision | None) -> None:
        """Per-epoch observability: event counters, histogram, SLO rules.

        Hot path — one call per epoch; the ``test_metrics_overhead``
        bench holds it under 2% of the serve loop.  Counter deltas and
        latency samples land in plain Python state (no locks, no
        registry calls) and flush on scrape; derived gauges refresh at
        scrape time too (:meth:`_refresh_gauges`, a registry collect
        hook).  ``serve_health`` is additionally bumped on alert edges
        so the gauge moves with the event, and SLO rules run against
        the compiled minimal probe, not the full snapshot.
        """
        if decision is None:
            return
        c = self._mcounts
        if c is not None:
            c["epochs"] += 1
            if decision.full_solve:
                c["full_solves"] += 1
            c["cache_hits"] += decision.cache_hits
            c["solved"] += decision.solved
            if decision.rejected:
                c["rejects"] += len(decision.rejected)
            if decision.evicted:
                c["evictions"] += len(decision.evicted)
            if decision.shed:
                c["shed"] += len(decision.shed)
            self._mpending.append(decision.latency_s)
            if len(self._mpending) >= _FLUSH_EVERY:
                with self.metrics.lock:
                    self._flush_metrics_locked(trim=True)
        if self.monitor is not None:
            snap_fn = self._slo_probe or self.health_snapshot
            edges = self.monitor.evaluate(snap_fn(), epoch=decision.epoch)
            for edge in edges:
                self.alerts.append(dict(edge))
                if self.remediation is not None:
                    self._remediate(edge, epoch=decision.epoch)
                kind = edge.pop("event")
                telemetry.counter(f"serve.{kind.replace('.', '_')}")
                telemetry.event(kind, epoch=decision.epoch, **edge)
            if self._mhandles is not None and edges:
                from repro.obs.health import severity_rank

                self._mhandles["health"].set(severity_rank(self.monitor.state))

    def _flush_metrics_locked(self, *, trim: bool = False) -> None:
        """Push accumulated counter deltas and latency samples.

        Caller must hold the registry lock.  Counter totals are
        monotone, so a delta missed by one flush (a racing increment)
        is picked up by the next — nothing is lost or double-counted.
        ``trim`` drops already-flushed samples from the pending list;
        only the serve thread (the list's sole writer) may pass it.
        """
        h = self._mhandles
        c = self._mcounts
        if h is None or c is None:
            return
        flushed = self._mflushed
        for key in _COUNTER_KEYS:
            delta = c[key] - flushed[key]
            if delta:
                h[key].inc_locked(delta)
                flushed[key] = c[key]
        pending = self._mpending
        done = self._mpending_done
        n = len(pending)
        if done < n:
            observe = h["latency"].observe_locked
            for value in pending[done:n]:
                observe(value)
            self._mpending_done = n
        if trim:
            del pending[: self._mpending_done]
            self._mpending_done = 0

    def _refresh_gauges(self) -> None:
        """Scrape-time refresh (registry collect hook).

        Runs on the scraper's thread whenever the registry is collected
        (``/metrics``, ``/varz``, ``to_dict``): flushes the counter
        accumulator, then recomputes derived gauges — so all of this
        costs the serve loop nothing between scrapes.
        """
        h = self._mhandles
        if h is None:
            return
        snap = self.health_snapshot()
        with self.metrics.lock:
            self._flush_metrics_locked()
            h["streams"].set_locked(snap["n_streams"])
            h["alive"].set_locked(snap["n_alive_servers"])
            h["queue"].set_locked(snap["queue_depth"])
            h["hit_ratio"].set_locked(snap["cache_hit_ratio"])
            if snap["benefit"] is not None:
                h["benefit"].set_locked(snap["benefit"])
                h["baseline"].set_locked(snap["benefit_baseline"])
                h["drop"].set_locked(snap["benefit_drop_ratio"])
            if self.monitor is not None:
                from repro.obs.health import severity_rank

                h["health"].set_locked(severity_rank(self.monitor.state))
            h["mode"].set_locked(1 if self.mode == "brownout" else 0)
            h["breaker"].set_locked(
                0 if self.breaker is None else self.breaker.rank
            )

    def health_snapshot(self) -> dict:
        """Windowed SLO inputs: the dict :class:`HealthMonitor` rules see.

        Percentiles and the benefit baseline come from the rolling
        :data:`DECISION_WINDOW` — the same definition :meth:`summary`
        and ``repro serve report`` use — so an alert threshold means
        the same thing everywhere.
        """
        w = self._window
        lat = w.lat_sorted
        hits, solved = w.hits, w.solved
        benefit = w.last_benefit
        baseline = w.baseline
        drop = 0.0
        if benefit is not None and baseline is not None:
            drop = max(0.0, (baseline - benefit) / max(abs(baseline), 1e-12))
        snap: dict = {
            "epoch": self.epoch,
            "window": len(self._window),
            "decision_p50_s": _pct(lat, 0.50),
            "decision_p95_s": _pct(lat, 0.95),
            "decision_p99_s": _pct(lat, 0.99),
            "decision_max_s": lat[-1] if lat else 0.0,
            "cache_hit_ratio": hits / (hits + solved) if hits + solved else 0.0,
            "queue_depth": len(self.queue),
            "n_streams": len(self.planner.entries),
            "n_alive_servers": self.planner.n_alive,
            "benefit": benefit,
            "benefit_baseline": baseline,
            "benefit_drop_ratio": drop if benefit is not None else None,
            "mode_brownout": 1 if self.mode == "brownout" else 0,
            "breaker_state": 0 if self.breaker is None else self.breaker.rank,
        }
        return snap

    def health_status(self) -> dict:
        """``/healthz`` document: monitor verdict plus the snapshot."""
        doc = (
            self.monitor.status()
            if self.monitor is not None
            else {"status": "ok", "alerts": [], "rules": []}
        )
        doc["snapshot"] = self.health_snapshot()
        return doc

    def varz(self) -> dict:
        """``/varz`` service section: summary + snapshot + alert history."""
        return {
            "summary": self.summary(),
            "snapshot": self.health_snapshot(),
            "alerts_fired": sum(
                1 for a in self.alerts if a.get("event") == "alert.fired"
            ),
            "recent_alerts": self.alerts[-10:],
        }

    # -- fixed-epoch monitoring loop ---------------------------------------
    def run_epochs(
        self,
        n_epochs: int,
        *,
        environment: Callable[[ScheduleDecision, int], np.ndarray],
        detector=None,
    ) -> list[ServeEpochTick]:
        """Fixed-epoch monitoring: observe, detect drift, full-solve.

        The environment maps the deployed decision to an observed
        outcome vector; the detector flags sustained deviation; a drift
        triggers a full solve (with a fresh scheduler when
        ``reuse_scheduler=False``).  Epochs are numbered 0..n-1 per
        call.  The first call deploys a warm-up solve.

        Deploys here go through :meth:`_deploy_batch`, not the
        incremental planner: the monitoring loop redeploys the batch
        decision verbatim, keeping every stream even when the engine's
        first-fit embedding would degrade some.
        """
        if n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
        if detector is None:
            from repro.core.online import DriftDetector

            detector = DriftDetector()
        if not self.started:
            self.started = True
            self._deploy_batch(reason="warmup", epoch=0)
        ticks: list[ServeEpochTick] = []
        for epoch in range(n_epochs):
            decision = self.deployed_decision()
            expected = decision.outcome
            observed = environment(decision, epoch)
            dev = detector.deviation(expected, observed)
            drifted = detector.update(expected, observed)
            if drifted:
                self._deploy_batch(reason="drift", epoch=epoch)
                detector.reset()
                telemetry.counter("serve.drift_reoptimizations")
            ticks.append(
                ServeEpochTick(
                    epoch=epoch,
                    expected=np.asarray(expected, dtype=float),
                    observed=np.asarray(observed, dtype=float),
                    deviation=dev,
                    reoptimized=drifted,
                )
            )
        return ticks

    def deployed_decision(self) -> ScheduleDecision:
        """The live decision as a :class:`ScheduleDecision`.

        From the last batch solve when one exists; synthesized from the
        engine state otherwise (greedy/incremental mode).
        """
        if self.last_decision is not None:
            return self.last_decision
        sids, r, s = self.planner.decision_arrays()
        if not sids:
            raise RuntimeError("no streams admitted; nothing deployed")
        outcome = self.planner.outcome()
        per_stream = self.planner.stream_assignment()
        return ScheduleDecision(
            resolutions=r,
            fps=s,
            assignment=[int(per_stream[sid][0]) for sid in sids],
            outcome=outcome,
            benefit=float(self.preference.value(outcome)),
            method="Serve",
        )

    # -- checkpoint / resume ----------------------------------------------
    def save_checkpoint(self, path):
        """Atomically pickle the whole service (engine, queue, scheduler).

        Syncs the WAL first: a checkpoint's ``wal_seq`` high-water mark
        must never run ahead of the durable journal, or recovery would
        skip events the checkpoint claims to have absorbed.
        """
        from repro.resilience.checkpoint import save_checkpoint

        if self.wal is not None:
            self.wal.sync()
        return save_checkpoint(
            path,
            scheduler=self,
            bo_state=None,
            kind="serve",
            epoch=self.epoch,
            n_streams=len(self.planner.entries),
        )

    @classmethod
    def resume(cls, path) -> "SchedulerService":
        """Load a serve checkpoint written by :meth:`save_checkpoint`."""
        from repro.resilience.checkpoint import load_checkpoint

        ckpt = load_checkpoint(path)
        if ckpt.meta.get("kind") != "serve":
            raise ValueError(
                f"{path} is not a serve checkpoint "
                f"(kind={ckpt.meta.get('kind')!r})"
            )
        service = ckpt.scheduler
        if not isinstance(service, cls):
            raise ValueError(f"{path} does not hold a {cls.__name__}")
        return service

    # -- pickling ----------------------------------------------------------
    def __getstate__(self) -> dict:
        """Checkpoint state: drop the live metrics registry.

        The registry owns locks and feeds an HTTP thread — neither
        belongs in a checkpoint.  The :class:`HealthMonitor` (pure
        state) and the alert history *do* pickle, so a resumed run
        keeps its firing alerts; re-attach a registry with
        :meth:`attach_observability` after :meth:`resume`.
        """
        state = self.__dict__.copy()
        state["metrics"] = None
        state["wal"] = None  # file handle; wal_seq (the high-water mark) stays
        state["_stop"] = False
        state["_mhandles"] = None
        state["_slo_probe"] = None  # compiled closures don't pickle
        state["_mcounts"] = None  # accumulator belongs to the registry
        state["_mflushed"] = {}
        state["_mpending"] = []
        state["_mpending_done"] = 0
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._slo_probe = (
            None if self.monitor is None else self._build_slo_probe(self.monitor)
        )

    # -- summary -----------------------------------------------------------
    def summary(self) -> dict:
        """Aggregate run statistics over all decisions so far.

        Counts are lifetime totals; the latency percentiles are the
        *rolling-window* definition (last :data:`DECISION_WINDOW`
        epochs) shared with :meth:`health_snapshot` and ``repro serve
        report`` — lifetime percentiles go stale on hours-long runs,
        reporting warm-up latencies forever.
        """
        lat = self._window.lat_sorted
        benefits = [d.benefit for d in self.decisions if d.benefit is not None]
        return {
            "epochs": len(self.decisions),
            "full_solves": sum(1 for d in self.decisions if d.full_solve),
            "cache_hits": sum(d.cache_hits for d in self.decisions),
            "solved": sum(d.solved for d in self.decisions),
            "rejected": sum(len(d.rejected) for d in self.decisions),
            "evicted": sum(len(d.evicted) for d in self.decisions),
            "shed": sum(len(d.shed) for d in self.decisions),
            "brownout_epochs": sum(
                1 for d in self.decisions if d.mode == "brownout"
            ),
            "mode": self.mode,
            "breaker_state": (
                None if self.breaker is None else self.breaker.state
            ),
            "breaker_opens": 0 if self.breaker is None else self.breaker.opens,
            "n_streams": len(self.planner.entries),
            "n_alive_servers": self.planner.n_alive,
            "benefit_first": benefits[0] if benefits else None,
            "benefit_last": benefits[-1] if benefits else None,
            "decision_window": len(lat),
            "decision_p50_s": _pct(lat, 0.50),
            "decision_p95_s": _pct(lat, 0.95),
            "decision_p99_s": _pct(lat, 0.99),
            "decision_max_s": lat[-1] if lat else 0.0,
            "alerts_fired": sum(
                1 for a in self.alerts if a.get("event") == "alert.fired"
            ),
            "health": self.monitor.state if self.monitor is not None else "ok",
        }
