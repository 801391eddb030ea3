"""Scenario: day-to-night operation with drift-triggered rescheduling.

§2.1's scheduler "periodically collects performance and resource
information" and re-decides.  Here a chemical-plant deployment (the
paper's §1 motivating example) runs through three operating phases:

1. normal daytime traffic — the deployed decision matches expectations;
2. an uplink degradation (weather) triples transmission latency;
3. recovery.

:meth:`~repro.serve.SchedulerService.run_epochs` detects the sustained
deviation and re-optimizes, while a fire-and-forget scheduler would keep paying
the degraded latency.

Run:  python examples/online_adaptation.py
"""

import numpy as np

from repro.baselines import RandomSearch
from repro.bench.reporting import format_table
from repro.core import DriftDetector, EVAProblem, make_preference
from repro.serve import SchedulerService, approx_preference


def main() -> None:
    problem = EVAProblem(n_streams=5, bandwidths_mbps=[10.0, 20.0, 30.0])
    pref = make_preference(problem, weights=[2.0, 1.5, 1.0, 0.5, 1.0])

    # Environment: epochs 3..6 suffer a degraded uplink (3x transmission
    # latency); before/after, the world matches the analytic outcome.
    degraded_problem = EVAProblem(
        n_streams=5, bandwidths_mbps=[1.0, 2.0, 3.0]  # a tenth of the uplink
    )

    def environment(decision, epoch):
        prob = degraded_problem if 3 <= epoch <= 6 else problem
        return prob.evaluate(decision.resolutions, decision.fps)

    # Scheduler factory: after drift, re-optimize against the *current*
    # conditions (a production system would re-profile; here the factory
    # peeks at the phase for brevity).

    def factory(prob, epoch):
        active = degraded_problem if 3 <= epoch <= 6 else problem
        return RandomSearch(active, benefit_fn=pref.value, n_iterations=60, rng=epoch)

    online = SchedulerService(
        problem,
        preference=approx_preference(problem),
        scheduler_factory=factory,
        reuse_scheduler=False,
    )
    log = online.run_epochs(
        10,
        environment=environment,
        detector=DriftDetector(rel_threshold=0.5, patience=2),
    )

    rows = [
        [
            r.epoch,
            f"{r.expected[0]:.3f}",
            f"{r.observed[0]:.3f}",
            f"{r.deviation * 100:.0f}%",
            "RE-OPTIMIZED" if r.reoptimized else "",
        ]
        for r in log
    ]
    print(
        format_table(
            ["epoch", "expected ltc (s)", "observed ltc (s)", "max deviation", "action"],
            rows,
            title="Online monitoring log (uplink degraded during epochs 3-6)",
        )
    )
    print(f"\nre-optimizations triggered: {sum(r.reoptimized for r in log)}")
    print(
        "The drift detector waits out single-epoch noise (patience=2) and "
        "re-plans only on sustained deviation; the post-recovery deviation "
        "stays under the threshold, so the adapted plan is kept."
    )


if __name__ == "__main__":
    main()
