"""In-memory span tracing of library calls, wrapped from outside.

:class:`Tracer` replaces a named function on a class or module with a
wrapper that records one span per call: name, start, end, parent span
and request id (the serve epoch, or the solve number).  Nothing in the
library changes; :meth:`Tracer.unwrap_all` restores every original.

A layer's *self time* is its span's duration minus the durations of its
direct child spans.  Every span descends from a root span opened with
:meth:`Tracer.root` (set-up, one serve epoch, one solve), so the self
times of all wrapped layers plus the roots' own self time (the part no
wrapped call covers: the *unattributed* time) add up exactly to the
roots' total duration.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Span recorder; spans stay in memory until :meth:`write`."""

    def __init__(self) -> None:
        # One list per span: [name, start, end, parent index, request id].
        self.spans: list[list] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.request])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    @contextmanager
    def root(self, name: str, request: int | None = None):
        """Open a root span (the unit the unattributed time belongs to)."""
        if self._stack:
            raise RuntimeError(f"root span {name!r} opened inside another span")
        self.request = request
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``owner`` is the class or module that defines ``attr`` itself,
        so that restoring it puts back exactly what was there.
        """
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {attr!r}")
        original = vars(owner)[attr]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(idx)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per-span self time: duration minus direct children's durations."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _req in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def layer_stats(
        self, roots: set[str], sampled: tuple[str, ...] = ()
    ) -> tuple[dict[str, dict], dict]:
        """Aggregate spans into per-layer stats plus the accounting totals.

        Returns ``(layers, totals)``: ``layers[name]`` holds ``calls``,
        ``busy_s``, ``self_s`` and, for the layers named in ``sampled``,
        every call's duration in microseconds (``durations_us``);
        ``totals`` holds the roots' total duration (``traced_s``), their
        own self time (``unattributed_s``) and the sum of every layer's
        self time (``attributed_s``).
        """
        selfs = self.self_times()
        durations: dict[str, list[float]] = {}
        self_sum: dict[str, float] = {}
        traced = unattributed = 0.0
        for span, own in zip(self.spans, selfs):
            name, start, end = span[0], span[1], span[2]
            if name in roots:
                traced += end - start
                unattributed += own
                continue
            durations.setdefault(name, []).append(end - start)
            self_sum[name] = self_sum.get(name, 0.0) + own
        layers: dict[str, dict] = {}
        for name, ds in durations.items():
            stats = {"calls": len(ds), "busy_s": sum(ds), "self_s": self_sum[name]}
            if name in sampled:
                stats["durations_us"] = [d * 1e6 for d in ds]
            layers[name] = stats
        totals = {
            "traced_s": traced,
            "unattributed_s": unattributed,
            "attributed_s": sum(self_sum.values()),
        }
        return layers, totals

    def write(self, path) -> None:
        """Write the spans as JSON lines (one object per span)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": req,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
