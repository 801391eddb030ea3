"""Tests for the scheduler registry and Scheduler protocol."""

import numpy as np
import pytest

from repro.baselines import (
    FACT,
    JCAB,
    RandomSearch,
    WeightedSumScheduler,
    available_schedulers,
    make_scheduler,
    register_scheduler,
)
from repro.baselines.registry import _REGISTRY
from repro.core import PaMO, PaMOPlus, Scheduler, make_preference
from repro.bench.harness import make_problem
from repro.bo.loop import BOLoop
from repro.pref import DecisionMaker, PreferenceLearner


@pytest.fixture(scope="module")
def problem():
    return make_problem(3, 2, rng=0)


@pytest.fixture(scope="module")
def pref(problem):
    return make_preference(problem)


class TestRegistryContents:
    def test_paper_names_registered(self):
        names = available_schedulers()
        for want in ("pamo", "pamo+", "jcab", "fact", "weighted", "random"):
            assert want in names

    def test_names_sorted_lowercase(self):
        names = available_schedulers()
        assert list(names) == sorted(names)
        assert all(n == n.lower() for n in names)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheduler("pamo")(lambda problem, **kw: None)

    def test_needs_at_least_one_name(self):
        with pytest.raises(ValueError):
            register_scheduler()


class TestMakeScheduler:
    def test_unknown_name_raises(self, problem):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("skynet", problem)

    def test_case_insensitive(self, problem, pref):
        s = make_scheduler("PaMO+", problem, preference=pref, rng=0)
        assert isinstance(s, PaMOPlus)

    def test_jcab_fact_construction(self, problem):
        assert isinstance(make_scheduler("jcab", problem, rng=0), JCAB)
        assert isinstance(make_scheduler("fact", problem), FACT)

    def test_weighted_and_random(self, problem, pref):
        w = make_scheduler("weighted", problem, rng=0, rule="equal")
        assert isinstance(w, WeightedSumScheduler)
        r = make_scheduler("random", problem, preference=pref, rng=0)
        assert isinstance(r, RandomSearch)

    def test_random_needs_benefit_source(self, problem):
        with pytest.raises(ValueError, match="benefit_fn"):
            make_scheduler("random", problem)

    def test_pamo_needs_decision_maker_or_preference(self, problem):
        with pytest.raises(ValueError, match="decision_maker"):
            make_scheduler("pamo", problem)

    def test_pamo_accepts_explicit_decision_maker(self, problem, pref):
        dm = DecisionMaker(pref, rng=0)
        s = make_scheduler("pamo", problem, decision_maker=dm)
        assert isinstance(s, PaMO)
        assert s.decision_maker is dm

    def test_acquisition_variants_preset(self, problem, pref):
        for name, acq_cls in (
            ("pamo_qei", "QEI"),
            ("pamo_qucb", "QUCB"),
            ("pamo_qsr", "QSR"),
        ):
            s = make_scheduler(name, problem, preference=pref, rng=0)
            assert isinstance(s, PaMO)
            assert type(s.acquisition).__name__ == acq_cls

    def test_kwargs_forwarded(self, problem):
        s = make_scheduler("jcab", problem, rng=0, n_iterations=7)
        assert s.n_iterations == 7


class TestSchedulerProtocol:
    def test_every_factory_yields_protocol_instance(self, problem, pref):
        for name in available_schedulers():
            s = make_scheduler(name, problem, preference=pref, rng=0)
            assert isinstance(s, Scheduler), name
            assert isinstance(s.name, str) and s.name, name
            assert callable(s.optimize), name

    def test_name_reflects_method(self, problem, pref):
        assert make_scheduler("jcab", problem, rng=0).name == "JCAB"
        assert make_scheduler("fact", problem).name == "FACT"
        assert make_scheduler(
            "pamo", problem, preference=pref, rng=0
        ).name == "PaMO"


def _loop(**kw):
    return BOLoop(None, observe=None, benefit_of=None, candidates=None, **kw)


#: Every constructor spelling dropped in v2.0: positional required
#: arguments and the renamed iteration-budget keywords.
REMOVED_SPELLINGS = {
    "PaMO positional decision_maker": lambda p, dm: PaMO(p, dm),
    "PaMOPlus positional decision_maker": lambda p, dm: PaMOPlus(p, dm),
    "PaMO max_iters": lambda p, dm: PaMO(p, decision_maker=dm, max_iters=3),
    "PreferenceLearner positional decision_maker": lambda p, dm: (
        PreferenceLearner(np.eye(5), dm)
    ),
    "RandomSearch positional benefit_fn": lambda p, dm: RandomSearch(
        p, dm.preference.value
    ),
    "RandomSearch n_samples": lambda p, dm: RandomSearch(
        p, benefit_fn=dm.preference.value, n_samples=5
    ),
    "WeightedSumScheduler positional rule": lambda p, dm: WeightedSumScheduler(
        p, "equal"
    ),
    "BOLoop max_iters": lambda p, dm: _loop(max_iters=3),
    "JCAB n_slots": lambda p, dm: JCAB(p, n_slots=7),
    "FACT max_sweeps": lambda p, dm: FACT(p, max_sweeps=3),
}


@pytest.mark.parametrize("spelling", sorted(REMOVED_SPELLINGS))
def test_removed_spelling_raises_type_error(problem, pref, spelling):
    dm = DecisionMaker(pref, rng=0)
    with pytest.raises(TypeError):
        REMOVED_SPELLINGS[spelling](problem, dm)
