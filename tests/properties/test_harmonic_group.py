"""Property tests: the shared Theorem-3 group core and divisor priorities.

:class:`repro.sched.grouping.HarmonicGroup` is the one placement check
behind Algorithm 1, ``exact_grouping`` and the serve planner.  Its
verdict must equal the reference predicate
:func:`repro.sched.theory.theorem3_conditions` on the same members,
including split periods ``k/s`` and capacity sums that land within
±1e-9 of ``T_min`` (the ε boundary).  :func:`divisor_priorities` must
equal the brute-force definition ``I_i = Σ_{j<i} 1(T_i / T_j ∈ ℤ)``.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import (
    PeriodicStream,
    divisor_priorities,
    split_high_rate_streams,
    theorem3_conditions,
)
from repro.sched.grouping import HarmonicGroup

#: Frame rates mixing harmonic ladders (1/2/5/10, 15/30) with rates that
#: are harmonic with few others (3, 7, 24, 25).
FPS = [1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 24.0, 25.0, 30.0]


def _stream(sid: int, fps: float, k: int, ptime: float) -> PeriodicStream:
    """A sub-stream of a rate-``fps`` stream split ``k`` ways (T = k/s)."""
    return PeriodicStream(
        stream_id=sid, fps=fps / k, resolution=960.0, processing_time=ptime
    )


#: (fps, split factor) pairs; a harmonic ladder is drawn often enough
#: that fitting groups are common.
shapes = st.one_of(
    st.tuples(st.sampled_from([5.0, 10.0]), st.sampled_from([1, 2, 4])),
    st.tuples(st.sampled_from(FPS), st.integers(1, 4)),
)

#: Member ptimes on a 2⁻²⁴ s grid: their running sums are exact in
#: floating point, so adds and removes commute bit for bit.
dyadic_ptimes = st.integers(1, 2**17).map(lambda n: n * 2.0**-24)


def _near_boundary_ptime(draw, members, period):
    """A candidate ptime putting Σp within ±1e-9 of T_min, or a free one."""
    t_min = min([period, *(s.period for s in members)])
    total = 0.0
    for s in members:
        total += s.processing_time
    p = t_min - total + draw(st.floats(-1e-9, 1e-9))
    if p <= 0 or draw(st.booleans()):
        p = draw(st.floats(1e-4, 0.5))
    return p


def _built(members) -> HarmonicGroup:
    group = HarmonicGroup()
    for s in members:
        group.add(s)
    return group


@st.composite
def fit_cases(draw):
    """Members (built by adds) plus one candidate stream.

    Member ptimes are scaled to a drawn share of ``T_min``, so the
    candidate can usually land its sum on the ε boundary.
    """
    n = draw(st.integers(0, 6))
    shaped = [draw(shapes) for _ in range(n + 1)]
    t_min = min(k / fps for fps, k in shaped)
    weights = [draw(st.floats(0.05, 1.0)) for _ in range(n)]
    scale = draw(st.floats(0.05, 1.2)) * t_min / max(sum(weights), 1e-9)
    members = [
        _stream(i, fps, k, w * scale)
        for i, ((fps, k), w) in enumerate(zip(shaped, weights))
    ]
    fps, k = shaped[n]
    cand = _stream(n, fps, k, _near_boundary_ptime(draw, members, k / fps))
    return members, cand


@st.composite
def churn_cases(draw):
    """A random add/remove sequence, its survivors and a candidate."""
    pool = []
    for i in range(draw(st.integers(1, 8))):
        fps, k = draw(shapes)
        pool.append(_stream(i, fps, k, draw(dyadic_ptimes)))
    ops = draw(st.lists(st.integers(0, len(pool) - 1), max_size=20))
    fps, k = draw(shapes)
    return pool, ops, (fps, k)


class TestSharedFit:
    @given(fit_cases())
    @settings(max_examples=300, deadline=None)
    def test_fits_equals_theorem3_reference(self, case):
        members, cand = case
        group = _built(members)
        assert group.fits(cand.period, cand.processing_time) == (
            theorem3_conditions([*members, cand])
        )

    @given(churn_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_add_remove_matches_fresh_group(self, case, data):
        pool, ops, (fps, k) = case
        group = HarmonicGroup()
        members = []
        # each op toggles one pool stream in or out of the group
        for i in ops:
            s = pool[i]
            if s in members:
                members.remove(s)
                group.remove(s)
            else:
                members.append(s)
                group.add(s)
        fresh = _built(members)
        assert group.members == fresh.members
        assert group.counts == fresh.counts
        assert group.pmin == fresh.pmin
        assert group.total_p == fresh.total_p
        ptime = _near_boundary_ptime(data.draw, members, k / fps)
        cand = _stream(len(pool), fps, k, ptime)
        verdict = group.fits(cand.period, cand.processing_time)
        assert verdict == fresh.fits(cand.period, cand.processing_time)
        assert verdict == theorem3_conditions([*members, cand])


@st.composite
def sorted_stream_sets(draw):
    """Period-sorted streams with repeated periods and split sub-streams."""
    base = []
    for i in range(draw(st.integers(0, 24))):
        fps = draw(st.sampled_from(FPS))
        # ptimes past 1/fps make high-rate streams that split k ways
        base.append(
            PeriodicStream(
                stream_id=i, fps=fps, resolution=960.0,
                processing_time=draw(st.floats(0.005, 1.2)),
            )
        )
    streams = split_high_rate_streams(base)
    return sorted(streams, key=lambda s: (s.period, s.stream_id))


class TestDivisorPriorities:
    @given(sorted_stream_sets())
    @settings(max_examples=200, deadline=None)
    def test_equals_brute_force_definition(self, streams):
        periods = [Fraction(s.period).limit_denominator(1_000_000) for s in streams]
        expected = [
            sum((periods[i] / periods[j]).denominator == 1 for j in range(i))
            for i in range(len(periods))
        ]
        assert divisor_priorities(streams) == expected
