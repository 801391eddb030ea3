"""Extension experiment: online drift detection and recovery.

§2.1's monitoring loop made quantitative: a deployment runs 12 epochs;
at epoch 4 every uplink degrades to a fifth of its bandwidth.  Compare
cumulative true benefit of (a) a fire-and-forget scheduler that never
re-plans, and (b) the serve monitoring loop with drift detection.  The
adaptive system must recover most of the benefit lost to the incident.
"""

import numpy as np

from conftest import run_once
from repro.baselines import RandomSearch
from repro.bench.reporting import format_table
from repro.core import DriftDetector, EVAProblem, make_preference
from repro.serve import SchedulerService, approx_preference


def test_online_drift_recovery(benchmark):
    def run():
        normal = EVAProblem(n_streams=5, bandwidths_mbps=[10.0, 20.0, 30.0])
        degraded = EVAProblem(n_streams=5, bandwidths_mbps=[1.0, 1.5, 2.0])
        # accuracy-leaning preference: the chosen configs use big frames,
        # so an uplink incident visibly moves latency
        pref = make_preference(normal, weights=[1.0, 3.0, 0.3, 0.3, 0.3])
        n_epochs = 12
        incident = range(4, n_epochs)  # degradation persists to the end

        def env_problem(epoch):
            return degraded if epoch in incident else normal

        def environment(decision, epoch):
            return env_problem(epoch).evaluate(decision.resolutions, decision.fps)

        # (a) static: optimize once at epoch 0, never re-plan
        static_dec = RandomSearch(normal, benefit_fn=pref.value, n_iterations=80, rng=0).optimize().decision
        static_benefit = [
            float(pref.value(environment(static_dec, e))) for e in range(n_epochs)
        ]

        # (b) adaptive: the monitoring loop with the same search budget per plan
        def factory(prob, epoch):
            return RandomSearch(env_problem(epoch), benefit_fn=pref.value, n_iterations=80, rng=epoch)

        online = SchedulerService(
            normal,
            preference=approx_preference(normal),
            scheduler_factory=factory,
            reuse_scheduler=False,
        )
        log = online.run_epochs(
            n_epochs,
            environment=environment,
            detector=DriftDetector(rel_threshold=0.4, patience=2),
        )
        adaptive_benefit = [float(pref.value(r.observed)) for r in log]
        return static_benefit, adaptive_benefit, sum(r.reoptimized for r in log)

    static_b, adaptive_b, n_replans = run_once(benchmark, run)
    rows = [
        [e, static_b[e], adaptive_b[e]] for e in range(len(static_b))
    ]
    print()
    print(
        format_table(
            ["epoch", "static benefit", "adaptive benefit"],
            rows,
            title="Extension: online drift recovery (degradation from epoch 4)",
        )
    )
    print(f"re-optimizations: {n_replans}")

    assert n_replans >= 1, "drift must trigger at least one re-plan"
    # pre-incident: identical behavior
    np.testing.assert_allclose(static_b[:4], adaptive_b[:4], atol=1e-9)
    # post-recovery (after detection latency): adaptive strictly better
    post = slice(7, None)
    assert np.mean(adaptive_b[post]) > np.mean(static_b[post]) + 1e-6
    # cumulative benefit higher for the adaptive system
    assert np.sum(adaptive_b) > np.sum(static_b)
