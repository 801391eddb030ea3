"""Live metrics: a thread-safe registry of counters, gauges, histograms.

Where :mod:`repro.obs.telemetry` answers "what happened over the whole
run" (JSONL events, post-hoc ``repro report``), this module answers
"what is happening *right now*": every instrument is cheap to update
from the serve loop and cheap to snapshot from a scraper thread, and
the snapshot carries *windowed* statistics — exact percentiles and
rates over the most recent samples — rather than lifetime aggregates
that go stale on hours-long runs.

Instruments
-----------
* :class:`Counter` — monotonic total (``..._total`` in Prometheus).
* :class:`Gauge` — last-value-wins instantaneous reading.
* :class:`Histogram` — fixed cumulative buckets plus an attached
  :class:`RollingWindow`, so one ``observe`` feeds both the Prometheus
  histogram series and the exact windowed p50/p95/p99.

Aggregators
-----------
* :class:`RollingWindow` — bounded (time horizon *and* sample count)
  buffer of recent observations with exact linear-interpolated
  percentiles and an observations-per-second rate.
* :class:`Ewma` — time-decayed exponentially weighted moving average
  (half-life semantics), for smooth rates like epochs/s.

The :class:`MetricsRegistry` is the scrape surface: ``collect()``
returns an ordered snapshot that :mod:`repro.obs.exposition` renders as
Prometheus text format, and ``to_dict()`` is the JSON twin served at
``/varz`` and consumed by ``repro serve top``.  All mutation goes
through one registry lock, so a scraper thread can render mid-epoch
without torn reads (pinned by the concurrent-scrape test).

The registry is fed by its owners, not by telemetry: the serve loop
registers its instruments and fills them from its own decision record
in a collect hook (:meth:`MetricsRegistry.add_collect_hook`), so the
JSONL event log and ``/metrics`` never count the same fact twice.
"""

from __future__ import annotations

import math
import re
import threading
import time
from bisect import bisect_left
from collections import deque
from typing import Any, Callable, Iterable

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Ewma",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RollingWindow",
    "sanitize_metric_name",
]

#: Default histogram bucket upper bounds, in seconds — tuned for
#: scheduler decision latencies (sub-ms to tens of seconds).
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default rolling-window shape shared by histograms and the serve loop:
#: keep at most this many samples...
DEFAULT_WINDOW_SAMPLES = 512
#: ...and drop anything older than this many seconds.
DEFAULT_WINDOW_S = 300.0

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Coerce an arbitrary dotted name into a valid Prometheus name.

    ``serve.cache_hits`` -> ``serve_cache_hits``; a leading digit gets
    an underscore prefix.  Idempotent on already-valid names.
    """
    if _NAME_OK.match(name):
        return name
    fixed = _NAME_FIX.sub("_", name)
    if not fixed or not _NAME_OK.match(fixed):
        fixed = "_" + fixed
    return fixed


def percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolated percentile of a pre-sorted list (0 if empty)."""
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class RollingWindow:
    """Recent observations, bounded by sample count and age.

    Percentiles are *exact* over the retained window (sorted on query,
    not on insert — queries are scrape-rate, inserts are epoch-rate),
    which is what fixes the stale-reservoir problem of lifetime
    percentile estimates on long runs.
    """

    def __init__(
        self,
        *,
        horizon_s: float = DEFAULT_WINDOW_S,
        max_samples: int = DEFAULT_WINDOW_SAMPLES,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if horizon_s <= 0:
            raise ValueError(f"horizon_s must be > 0, got {horizon_s}")
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.horizon_s = float(horizon_s)
        self.max_samples = int(max_samples)
        self._clock = clock
        self._buf: deque[tuple[float, float]] = deque(maxlen=self.max_samples)

    def observe(self, value: float, *, t: float | None = None) -> None:
        now = self._clock() if t is None else t
        self._buf.append((now, float(value)))
        self._prune(now)

    def _prune(self, now: float) -> None:
        cutoff = now - self.horizon_s
        buf = self._buf
        while buf and buf[0][0] < cutoff:
            buf.popleft()

    def values(self) -> list[float]:
        """Retained values, oldest first (pruning expired entries)."""
        self._prune(self._clock())
        return [v for _, v in self._buf]

    def __len__(self) -> int:
        self._prune(self._clock())
        return len(self._buf)

    def count(self) -> int:
        return len(self)

    def sum(self) -> float:
        return sum(self.values())

    def mean(self) -> float:
        vals = self.values()
        return sum(vals) / len(vals) if vals else 0.0

    def max(self) -> float:
        vals = self.values()
        return max(vals) if vals else 0.0

    def percentile(self, q: float) -> float:
        """Exact percentile (linear interpolation) over the window."""
        return percentile(sorted(self.values()), q)

    def rate_per_s(self) -> float:
        """Observations per second over the retained span.

        Uses the actual span covered by retained samples (clamped to
        the horizon), so a freshly started window does not under-report.
        """
        now = self._clock()
        self._prune(now)
        if not self._buf:
            return 0.0
        span = min(self.horizon_s, now - self._buf[0][0])
        if span <= 0:
            return float(len(self._buf))
        return len(self._buf) / span

    def snapshot(self) -> dict[str, float]:
        """JSON-safe windowed stats (count, mean, p50/p95/p99, max, rate)."""
        vals = sorted(self.values())
        return {
            "count": len(vals),
            "mean": (sum(vals) / len(vals)) if vals else 0.0,
            "p50": percentile(vals, 0.50),
            "p95": percentile(vals, 0.95),
            "p99": percentile(vals, 0.99),
            "max": vals[-1] if vals else 0.0,
            "rate_per_s": self.rate_per_s(),
        }


class Ewma:
    """Time-decayed exponentially weighted moving average.

    Decay follows a half-life: an observation ``halflife_s`` old has
    half the weight of a fresh one, independent of the update cadence
    (the classic irregular-interval EWMA).
    """

    def __init__(
        self,
        *,
        halflife_s: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if halflife_s <= 0:
            raise ValueError(f"halflife_s must be > 0, got {halflife_s}")
        self.halflife_s = float(halflife_s)
        self._clock = clock
        self._value: float | None = None
        self._t: float | None = None

    @property
    def value(self) -> float:
        return 0.0 if self._value is None else self._value

    def update(self, value: float, *, t: float | None = None) -> float:
        now = self._clock() if t is None else t
        value = float(value)
        if self._value is None or self._t is None:
            self._value = value
        else:
            dt = max(0.0, now - self._t)
            alpha = 1.0 - math.exp(-math.log(2.0) * dt / self.halflife_s)
            self._value += alpha * (value - self._value)
        self._t = now
        return self._value


class Counter:
    """Monotonic counter.  Mutate via the owning registry's lock."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", *, lock: threading.Lock) -> None:
        self.name = name
        self.help = help
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        with self._lock:
            self._value += amount

    def inc_locked(self, amount: float = 1.0) -> None:
        """Unlocked fast path: caller must hold the registry lock."""
        self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict[str, Any]:
        return {"type": self.kind, "help": self.help, "value": self.value}


class Gauge:
    """Last-value-wins instantaneous reading."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", *, lock: threading.Lock) -> None:
        self.name = name
        self.help = help
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def set_locked(self, value: float) -> None:
        """Unlocked fast path: caller must hold the registry lock."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict[str, Any]:
        return {"type": self.kind, "help": self.help, "value": self.value}


class Histogram:
    """Fixed-bucket cumulative histogram plus a rolling window.

    One ``observe`` updates both views: the Prometheus-style cumulative
    bucket counts (lifetime, cheap, mergeable) and the
    :class:`RollingWindow` that backs the exact windowed percentiles in
    :meth:`snapshot` — the numbers ``/healthz`` SLO rules and
    ``repro serve top`` read.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        *,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        window_s: float = DEFAULT_WINDOW_S,
        window_samples: int = DEFAULT_WINDOW_SAMPLES,
        lock: threading.Lock,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.name = name
        self.help = help
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = tuple(bounds)
        self._lock = lock
        self._counts = [0] * (len(self.buckets) + 1)  # +Inf is last
        self._count = 0
        self._sum = 0.0
        self.window = RollingWindow(
            horizon_s=window_s, max_samples=window_samples, clock=clock
        )

    def observe(self, value: float) -> None:
        with self._lock:
            self.observe_locked(value)

    def observe_locked(self, value: float) -> None:
        """Unlocked fast path: caller must hold the registry lock."""
        value = float(value)
        # First bucket whose bound >= value, i.e. the "value <= le"
        # Prometheus bucket; one past the end means +Inf.
        self._counts[bisect_left(self.buckets, value)] += 1
        self._count += 1
        self._sum += value
        self.window.observe(value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending at +Inf."""
        with self._lock:
            return self._cumulative_locked()

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            window = self.window.snapshot()
            return {
                "type": self.kind,
                "help": self.help,
                "count": self._count,
                "sum": self._sum,
                "buckets": [
                    ["+Inf" if math.isinf(b) else b, c]
                    for b, c in self._cumulative_locked()
                ],
                "window": window,
            }

    def _cumulative_locked(self) -> list[tuple[float, int]]:
        out = []
        running = 0
        for bound, c in zip(self.buckets, self._counts):
            running += c
            out.append((bound, running))
        out.append((math.inf, self._count))
        return out


class MetricsRegistry:
    """Get-or-create home for all live instruments.

    One :class:`threading.RLock` guards every instrument it creates, so
    a ``collect()`` from the exposition thread serializes against
    serve-loop updates — scrapes see a consistent point-in-time view.
    """

    def __init__(
        self,
        *,
        namespace: str = "repro",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.namespace = sanitize_metric_name(namespace) if namespace else ""
        self._clock = clock
        self._lock = threading.RLock()
        self._metrics: dict[str, Any] = {}
        self._collect_hooks: list[Callable[[], None]] = []

    def _full_name(self, name: str) -> str:
        name = sanitize_metric_name(name)
        if self.namespace and not name.startswith(self.namespace + "_"):
            name = f"{self.namespace}_{name}"
        return name

    def _get_or_create(self, name: str, factory: Callable[[str], Any], kind: str):
        full = self._full_name(name)
        with self._lock:
            existing = self._metrics.get(full)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        f"metric {full!r} already registered as "
                        f"{existing.kind}, not {kind}"
                    )
                return existing
            metric = factory(full)
            self._metrics[full] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(
            name, lambda n: Counter(n, help, lock=self._lock), "counter"
        )

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(
            name, lambda n: Gauge(n, help, lock=self._lock), "gauge"
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        window_s: float = DEFAULT_WINDOW_S,
        window_samples: int = DEFAULT_WINDOW_SAMPLES,
    ) -> Histogram:
        return self._get_or_create(
            name,
            lambda n: Histogram(
                n,
                help,
                buckets=buckets,
                window_s=window_s,
                window_samples=window_samples,
                lock=self._lock,
                clock=self._clock,
            ),
            "histogram",
        )

    # -- snapshots --------------------------------------------------------
    @property
    def lock(self) -> threading.RLock:
        """The registry-wide RLock (reentrant).

        Renderers hold it across a whole multi-instrument read so a
        scrape sees one point-in-time view — per-instrument accessors
        each reacquire it, which lets writers interleave between reads.
        """
        return self._lock

    def add_collect_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook()`` at the start of every :meth:`collect`.

        The Prometheus *gauge function* idiom: derived gauges (queue
        depth, hit ratio, current benefit) are refreshed lazily when a
        scrape happens instead of on every producer event — scrapes
        arrive ~1/s while the serve loop emits thousands of epochs per
        second on replayed logs, so this keeps the per-epoch
        observability cost under its <2% budget.
        """
        with self._lock:
            if hook not in self._collect_hooks:
                self._collect_hooks.append(hook)

    def remove_collect_hook(self, hook: Callable[[], None]) -> None:
        """Unregister a :meth:`add_collect_hook` callback (idempotent)."""
        with self._lock:
            try:
                self._collect_hooks.remove(hook)
            except ValueError:
                pass

    def collect(self) -> list[tuple[str, Any]]:
        """``(name, instrument)`` pairs in sorted-name order.

        Collect hooks run first (outside per-instrument reads, lock
        reentrant) so lazily-refreshed gauges are current in the result.
        """
        with self._lock:
            hooks = tuple(self._collect_hooks)
        for hook in hooks:
            hook()
        with self._lock:
            return sorted(self._metrics.items())

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot of every instrument (the ``/varz`` body)."""
        with self._lock:
            return {name: metric.snapshot() for name, metric in self.collect()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return self._full_name(name) in self._metrics
