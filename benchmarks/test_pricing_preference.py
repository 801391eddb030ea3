"""Extension experiment: scheduling under *real* pricing rules.

The paper's §1 motivates preference learning with tiered tariffs and
QoS-based revenue, but §5 evaluates only the weighted-L1 stand-in.
This bench closes that loop: the true benefit is a currency-valued
PricingPreference (tiered energy + tiered traffic + SLO revenue — the
non-linear, non-separable case), and PaMO must learn it from pairwise
comparisons alone.  Expected shape: PaMO tracks PaMO+ closely and both
beat the fixed-formulation baselines, *more* decisively than under the
linear benefit, because no static weight vector expresses a tier
crossing.
"""

import numpy as np

from conftest import run_once
from repro.baselines import FACT, JCAB, WeightedSumScheduler
from repro.bench.harness import FAST_PAMO_KWARGS, make_problem
from repro.bench.reporting import format_table
from repro.core import PaMO, PaMOPlus
from repro.pref import DecisionMaker, PricingPreference


def test_pricing_rule_scheduling(benchmark):
    def run():
        pref = PricingPreference()
        results = {}
        for seed in range(2):
            problem = make_problem(6, 4, rng=seed)

            def score(decision):
                y = problem.evaluate_measured(decision.resolutions, decision.fps)
                return float(pref.value(y))

            def score_explicit(decision):
                y = problem.evaluate_decision(
                    decision.resolutions,
                    decision.fps,
                    decision.assignment,
                    measured=True,
                )
                return float(pref.value(y))

            pamo = PaMO(
                problem, decision_maker=DecisionMaker(pref, rng=seed), rng=seed, **FAST_PAMO_KWARGS
            ).optimize()
            plus = PaMOPlus(
                problem, decision_maker=DecisionMaker(pref, rng=seed), rng=seed, **FAST_PAMO_KWARGS
            ).optimize()
            jcab = JCAB(problem, rng=seed).optimize()
            fact = FACT(problem).optimize()
            weighted = WeightedSumScheduler(problem, rule="equal", rng=seed).optimize()

            for name, val in (
                ("PaMO", score(pamo.decision)),
                ("PaMO+", score(plus.decision)),
                ("JCAB", score_explicit(jcab.decision)),
                ("FACT", score_explicit(fact.decision)),
                ("Weighted[equal]", score_explicit(weighted.decision)),
            ):
                results.setdefault(name, []).append(val)
        return {k: float(np.mean(v)) for k, v in results.items()}

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["method", "mean profit (currency/s)"],
            sorted(rows.items(), key=lambda kv: -kv[1]),
            title="Extension: tiered-tariff + QoS-revenue scheduling",
        )
    )
    # PaMO learns the nonlinear rule well enough to stay near PaMO+ ...
    assert rows["PaMO"] > rows["PaMO+"] - 25.0
    # ... and both beat every fixed-formulation baseline
    best_baseline = max(rows["JCAB"], rows["FACT"], rows["Weighted[equal]"])
    assert rows["PaMO+"] > best_baseline
    assert rows["PaMO"] > best_baseline - 5.0
