"""Algorithm 1: group-based heuristic zero-jitter grouping.

Implements the paper's Algorithm 1 lines 1–19:

1. sort streams by period ascending;
2. compute each stream's priority ``I_i = Σ_{j<i} 1(T_i mod T_j == 0)``
   (how many earlier, shorter periods divide it — streams that are easy
   to co-schedule get high counts);
3. re-sort ascending by priority (stable, so period order breaks ties);
4. greedily place each stream into the first of N groups where the
   Theorem-3 conditions still hold after insertion: all periods remain
   integer multiples of the group minimum, and total processing time
   stays within that minimum.

Feasible groupings satisfy Const2 (hence Const1 and zero jitter).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from repro.sched.streams import PeriodicStream
from repro.sched.theory import _EPS, theorem3_conditions
from repro.utils.mathx import _to_fraction


@lru_cache(maxsize=4096)
def exact_period(period: float) -> tuple[int, int]:
    """A period as a reduced (numerator, denominator), by ``is_harmonic``'s rule."""
    f = _to_fraction(period)
    return f.numerator, f.denominator


class InfeasibleScheduleError(RuntimeError):
    """Raised when no grouping satisfying Const2 exists for N servers."""


@dataclass
class GroupingResult:
    """Outcome of Algorithm 1's grouping phase.

    ``groups[j]`` lists the streams co-scheduled on (logical) group j;
    ``group_of[stream_id]`` inverts the mapping.  Logical groups are
    mapped to physical servers afterwards by the assignment step.
    """

    groups: list[list[PeriodicStream]]
    group_of: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.group_of:
            self.group_of = {
                s.stream_id: j for j, grp in enumerate(self.groups) for s in grp
            }

    @property
    def n_nonempty(self) -> int:
        return sum(1 for g in self.groups if g)

    def validate(self) -> bool:
        """Check the Theorem-3 invariant on every group."""
        return all(theorem3_conditions(g) for g in self.groups)


def divisor_priorities(streams: Sequence[PeriodicStream]) -> list[int]:
    """Priorities I_i over period-sorted streams (Algorithm 1, line 2).

    ``I_i = Σ_{j<i} 1(T_i / T_j ∈ ℤ)``, exact, in O(M + U²): divisor
    counts are taken over the U distinct periods and broadcast back;
    equal earlier periods count too.  Input must be sorted by period.
    """
    exact = [exact_period(s.period) for s in streams]
    counts = Counter(exact)
    below = {
        (a, b): sum(
            n for (c, d), n in counts.items()
            if c * b < a * d and (a * d) % (b * c) == 0
        )
        for a, b in counts
    }
    # equal periods are adjacent: count the earlier ones from the first
    first: dict[tuple[int, int], int] = {}
    return [below[u] + i - first.setdefault(u, i) for i, u in enumerate(exact)]


class HarmonicGroup:
    """One server group under Theorem 3: the library's one placement check.

    Algorithm 1, ``exact_grouping`` and the serve planner all place
    through it.  It holds its members (anything with ``period`` and
    ``processing_time``), a count per distinct exact period, the running
    Σp ``total_p`` and the minimum period ``pmin``.  :meth:`fits` tests
    ``total_p + p <= pmin + ε`` on floats, then exact divisibility of
    every distinct period by the new minimum.  :meth:`remove` subtracts
    from the running sum, so after removals ``total_p`` may differ from a
    fresh sum in the last bits.
    """

    __slots__ = ("members", "counts", "total_p", "pmin")

    def __init__(self) -> None:
        self.members: list = []
        self.counts: dict[tuple[int, int], int] = {}  # exact period -> members
        self.total_p = 0.0
        self.pmin = math.inf

    def fits(self, period: float, ptime: float) -> bool:
        """Would Theorem 3 still hold with a member of this shape added?"""
        pmin = min(self.pmin, period)
        if self.total_p + ptime > pmin + _EPS:
            return False
        c, d = exact_period(pmin)
        a, b = exact_period(period)
        if (a * d) % (b * c):
            return False
        for a, b in self.counts:
            if (a * d) % (b * c):
                return False
        return True

    def add(self, member) -> None:
        key = exact_period(member.period)
        self.members.append(member)
        self.counts[key] = self.counts.get(key, 0) + 1
        self.total_p += member.processing_time
        self.pmin = min(self.pmin, member.period)

    def remove(self, member) -> None:
        key = exact_period(member.period)
        self.members.remove(member)
        count = self.counts.pop(key) - 1
        if count:
            self.counts[key] = count
        self.total_p -= member.processing_time
        if not self.members:
            self.total_p, self.pmin = 0.0, math.inf
        elif member.period == self.pmin:
            self.pmin = min(m.period for m in self.members)


def group_streams(
    streams: Sequence[PeriodicStream],
    n_servers: int,
    *,
    strict: bool = True,
) -> GroupingResult:
    """Run Algorithm 1's grouping (lines 1–19).

    Parameters
    ----------
    streams:
        The (already split) periodic stream set T.
    n_servers:
        Number of groups N available.
    strict:
        When True (default), raise :class:`InfeasibleScheduleError` if a
        stream fits in no group — the paper's "No feasible grouping
        scheme".  When False, overflow streams are placed in the group
        with the lowest resulting utilization (best effort; the caller
        must then expect jitter), which is what baseline schedulers that
        ignore Const2 effectively do.
    """
    if n_servers < 1:
        raise ValueError(f"n_servers must be >= 1, got {n_servers}")

    # Line 1: sort by period ascending (stable on stream_id for determinism).
    by_period = sorted(streams, key=lambda s: (s.period, s.stream_id))
    # Line 2: divisor-count priorities.
    prios = divisor_priorities(by_period)
    # Line 3: ascending priority, stable.
    order = sorted(range(len(by_period)), key=lambda i: prios[i])
    final = [by_period[i] for i in order]

    groups = [HarmonicGroup() for _ in range(n_servers)]
    for s in final:
        for grp in groups:
            if not grp.members or grp.fits(s.period, s.processing_time):
                break
        else:
            if strict:
                raise InfeasibleScheduleError(
                    f"stream {s.stream_id} (T={s.period:.4f}s, p={s.processing_time:.4f}s) "
                    f"fits in none of {n_servers} groups"
                )
            # Best effort: least-loaded group.
            grp = min(groups, key=lambda g: sum(x.load for x in g.members))
        grp.add(s)

    return GroupingResult(groups=[grp.members for grp in groups])
