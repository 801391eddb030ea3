"""repro — a reproduction of PaMO (ICPP '24).

"The Blind and the Elephant: A Preference-aware Edge Video Analytics
Scheduler for Maximizing System Benefit."

The top level re-exports the pieces a downstream user needs first: the
EVA problem definition and the PaMO scheduler, the decision-maker /
preference layer, and the benefit utilities.  Substrates (simulator,
scheduling theory, GP library, video/detection workloads, baselines,
scalarization rules) live in their subpackages:

>>> from repro import EVAProblem, PaMO, make_preference, DecisionMaker
>>> problem = EVAProblem(n_streams=4, bandwidths_mbps=[10, 20])
>>> pref = make_preference(problem)
>>> result = PaMO(problem, decision_maker=DecisionMaker(pref, rng=0), rng=0).optimize()
"""

from repro._version import __version__
from repro.core import (
    ConfigSpace,
    DriftDetector,
    EVAProblem,
    OptimizationOutcome,
    PaMO,
    PaMOPlus,
    ScheduleDecision,
    make_preference,
    normalized_benefit,
)
from repro.pref import DecisionMaker, LinearL1Preference, PreferenceLearner, PricingPreference

__all__ = [
    "__version__",
    "ConfigSpace",
    "DriftDetector",
    "EVAProblem",
    "OptimizationOutcome",
    "PaMO",
    "PaMOPlus",
    "ScheduleDecision",
    "make_preference",
    "normalized_benefit",
    "DecisionMaker",
    "LinearL1Preference",
    "PreferenceLearner",
    "PricingPreference",
]
