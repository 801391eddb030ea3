"""Ablation: qNEI batch size b and MC sample count (Algorithm 2 knobs).

The paper's qNEI "simultaneously recommends b candidate points in each
iteration to facilitate the system to observe benefit values
parallelly".  This bench sweeps b at a fixed total observation budget
and the Monte-Carlo sample count at fixed b — the two cost/quality
dials a deployment must set.
"""

import numpy as np

from conftest import run_once
from repro.bench.harness import FAST_PAMO_KWARGS, make_problem
from repro.bench.reporting import format_table
from repro.core import PaMOPlus, make_preference
from repro.pref import DecisionMaker


def test_ablation_batch_size(benchmark):
    def run():
        problem = make_problem(6, 4, rng=0)
        pref = make_preference(problem)
        total_budget = 24  # observations per run
        rows = []
        for b in (1, 2, 4, 8):
            vals = []
            for seed in range(2):
                kw = dict(FAST_PAMO_KWARGS)
                kw.update(batch_size=b, n_iterations=total_budget // b, delta=1e-9)
                out = PaMOPlus(
                    problem, decision_maker=DecisionMaker(pref, rng=seed), rng=seed, **kw
                ).optimize()
                vals.append(float(pref.value(out.decision.outcome)))
            rows.append((b, float(np.mean(vals))))
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["batch size b", "mean true benefit (24-obs budget)"],
            rows,
            title="Ablation: qNEI batch size",
        )
    )
    by_b = dict(rows)
    # Every batch size must land in a sane band; huge batches trade
    # model updates for parallel observation and may degrade slightly.
    spread = max(by_b.values()) - min(by_b.values())
    assert spread < 0.8, f"batch size swings benefit by {spread:.2f}"
    # the paper's b≈4 regime should not be the worst choice
    assert by_b[4] >= min(by_b.values())


def test_ablation_mc_samples(benchmark):
    def run():
        problem = make_problem(6, 4, rng=1)
        pref = make_preference(problem)
        rows = []
        for n_mc in (8, 32, 128):
            vals = []
            for seed in range(2):
                kw = dict(FAST_PAMO_KWARGS)
                kw.update(n_mc_samples=n_mc)
                out = PaMOPlus(
                    problem, decision_maker=DecisionMaker(pref, rng=seed), rng=seed, **kw
                ).optimize()
                vals.append(float(pref.value(out.decision.outcome)))
            rows.append((n_mc, float(np.mean(vals))))
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["MC samples", "mean true benefit"],
            rows,
            title="Ablation: qNEI Monte-Carlo sample count",
        )
    )
    vals = [v for _, v in rows]
    # more samples should not make things catastrophically worse
    assert vals[-1] >= vals[0] - 0.3
