"""Executable statements of §3's constraints and theorems.

* ``Const1`` (Eq. 6): per-server utilization Σ p_i s_i ≤ 1.
* ``Const2`` (Eq. 7): per-server Σ p_i ≤ gcd of the group's periods.
* Theorem 1: Const2 is sufficient for zero delay jitter with staggered
  start times o(τ_k) = Σ_{i<k} p_i.
* Theorem 2: Const2 ⇒ Const1 (tested, not re-proved).
* Theorem 3: harmonic periods (T_i = t · T_min) plus Σ p_i ≤ T_min are
  sufficient for Const2 — the condition Algorithm 1 maintains.

These predicates are what the simulator-backed property tests check:
every schedule passing ``const2_satisfied`` must measure zero queueing
delay in :mod:`repro.sim`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from repro.sched.streams import PeriodicStream
from repro.utils import gcd_many, is_harmonic

#: Absolute slack when comparing sums of float durations.
_EPS = 1e-9


def _groups(
    streams: Sequence[PeriodicStream], assignment: Sequence[int]
) -> dict[int, list[PeriodicStream]]:
    if len(streams) != len(assignment):
        raise ValueError(
            f"{len(streams)} streams but {len(assignment)} assignment entries"
        )
    by_server: dict[int, list[PeriodicStream]] = defaultdict(list)
    for s, q in zip(streams, assignment):
        if q != -1:
            by_server[int(q)].append(s)
    return by_server


def utilization(streams: Sequence[PeriodicStream], assignment: Sequence[int]) -> dict[int, float]:
    """Per-server utilization Σ p_i · s_i."""
    return {
        j: sum(s.load for s in grp) for j, grp in _groups(streams, assignment).items()
    }


def const1_satisfied(
    streams: Sequence[PeriodicStream], assignment: Sequence[int]
) -> bool:
    """Eq. 6: every server's total utilization is at most 1."""
    return all(u <= 1.0 + _EPS for u in utilization(streams, assignment).values())


def const2_satisfied(
    streams: Sequence[PeriodicStream], assignment: Sequence[int]
) -> bool:
    """Eq. 7: on each server, Σ p_i ≤ gcd({T_i})."""
    return all(map(theorem1_zero_jitter, _groups(streams, assignment).values()))


def theorem1_zero_jitter(group: Sequence[PeriodicStream]) -> bool:
    """Theorem 1 premise for one server group: Σ p_i ≤ gcd(T_1..T_K).

    When true, the staggered start times o(τ_k) = Σ_{i<k} p_i yield zero
    delay jitter for every stream in the group.
    """
    if not group:
        return True
    total_p = sum(s.processing_time for s in group)
    return total_p <= gcd_many([s.period for s in group]) + _EPS


def theorem3_conditions(group: Sequence[PeriodicStream]) -> bool:
    """Theorem 3: harmonic periods and Σ p_i ≤ T_min ⇒ Const2.

    This is the (stronger, easily checkable) condition Algorithm 1
    maintains per group.
    """
    if not group:
        return True
    periods = [s.period for s in group]
    if not is_harmonic(periods):
        return False
    total_p = sum(s.processing_time for s in group)
    return total_p <= min(periods) + _EPS


def diagnose_infeasibility(
    streams: Sequence[PeriodicStream], n_servers: int
) -> list[str]:
    """Human-readable reasons a stream set may not be schedulable.

    Checks, in order of severity: per-stream self-contention (needs
    splitting), aggregate utilization exceeding N (no schedule exists
    at all), and harmonic-packing pressure (more period classes than
    servers, which defeats Theorem 3's grouping).  An empty list means
    no structural red flag — Algorithm 1 may still fail on packing, but
    a feasible grouping is plausible.
    """
    if n_servers < 1:
        raise ValueError(f"n_servers must be >= 1, got {n_servers}")
    reasons: list[str] = []
    for s in streams:
        if s.is_high_rate:
            reasons.append(
                f"stream {s.stream_id}: processing time {s.processing_time:.3f}s "
                f"exceeds its period {s.period:.3f}s — split it first "
                "(split_high_rate_streams)"
            )
    total_load = sum(s.load for s in streams)
    if total_load > n_servers + _EPS:
        reasons.append(
            f"aggregate utilization {total_load:.2f} exceeds server count "
            f"{n_servers} — no assignment can satisfy Const1"
        )
    # period classes: streams whose periods are mutually non-harmonic
    # can never share a server under Theorem 3
    classes: list[list[PeriodicStream]] = []
    for s in sorted(streams, key=lambda t: t.period):
        for cls in classes:
            if is_harmonic([c.period for c in cls] + [s.period]):
                cls.append(s)
                break
        else:
            classes.append([s])
    if len(classes) > n_servers:
        reasons.append(
            f"{len(classes)} mutually non-harmonic period classes but only "
            f"{n_servers} servers — zero-jitter grouping is impossible; "
            "align frame rates to a harmonic ladder"
        )
    return reasons


def stagger_offsets(group: Sequence[PeriodicStream]) -> list[float]:
    """Start times o(τ_k) = Σ_{i<k} p_i from the proof of Theorem 1."""
    offsets: list[float] = []
    acc = 0.0
    for s in group:
        offsets.append(acc)
        acc += s.processing_time
    return offsets
