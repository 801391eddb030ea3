"""Shared experiment plumbing: problems, method dispatch, seeding.

Every experiment builds problems and runs methods through these
helpers so seeds, bandwidth draws (§5.2's {5..30} Mbps set), and PaMO
budget knobs stay consistent across figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.baselines import make_scheduler
from repro.core import EVAProblem, make_preference
from repro.obs import telemetry
from repro.pref.decision_maker import DecisionMaker, LinearL1Preference
from repro.utils import as_generator
from repro.utils.rng import RngLike

#: §5.2: "We randomly select bandwidth values for servers from
#: (5, 10, 15, 20, 25, 30) Mbps to simulate diverse real-world scenarios."
BANDWIDTH_CHOICES = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)

#: Reduced-size PaMO budgets so full figure sweeps run in CI time.
#: 3 seed pairs + 15 EUBO queries = 18 comparisons — the count at which
#: Fig. 9 shows the preference model crossing 90% pairwise accuracy.
FAST_PAMO_KWARGS = dict(
    n_profile=40,
    n_outcome_space=24,
    n_init_comparisons=3,
    n_pref_queries=15,
    batch_size=3,
    n_iterations=6,
    n_pool=16,
    n_mc_samples=24,
)


@dataclass
class MethodResult:
    """One (method, setting, seed) evaluation record."""

    method: str
    true_benefit: float
    outcome: np.ndarray
    normalized: float = float("nan")
    extras: dict = field(default_factory=dict)


def make_problem(
    n_streams: int,
    n_servers: int,
    *,
    rng: RngLike = 0,
    fixed_bandwidth: float | None = None,
) -> EVAProblem:
    """Problem instance with §5.2 bandwidth draws (or a fixed value)."""
    gen = as_generator(rng)
    if fixed_bandwidth is not None:
        bw = np.full(n_servers, float(fixed_bandwidth))
    else:
        bw = gen.choice(BANDWIDTH_CHOICES, size=n_servers)
    return EVAProblem(n_streams=n_streams, bandwidths_mbps=bw)


def run_method(
    name: str,
    problem: EVAProblem,
    preference: LinearL1Preference,
    *,
    seed: int = 0,
    pamo_kwargs: dict | None = None,
    jcab_weights: tuple[float, float] = (1.0, 1.0),
    fact_weights: tuple[float, float] = (1.0, 1.0),
    dm_noise: float = 0.0,
    measured: bool = True,
    horizon: float = 4.0,
) -> MethodResult:
    """Run one scheduler and score its decision with the TRUE preference.

    ``name`` ∈ {'JCAB', 'FACT', 'PaMO', 'PaMO+'} (plus 'PaMO_qEI' /
    'PaMO_qUCB' / 'PaMO_qSR' acquisition variants).  Baseline weight
    pairs follow the paper's "the weights of the corresponding metrics
    ... are adjusted accordingly".

    With ``measured=True`` (default) the final decision of every method
    is re-run on the discrete-event testbed: PaMO's Algorithm-1
    schedule runs split + staggered (zero jitter by construction),
    while JCAB/FACT run their own assignments as-is — so any queueing
    delay their Const2-violating placements cause shows up in the
    latency objective, exactly as on the paper's real testbed.

    Construction goes through :func:`repro.baselines.make_scheduler`;
    with telemetry enabled, the arm's own counter/span deltas land in
    ``extras['telemetry']`` so parallel sweeps can merge them.
    """
    kw = {**FAST_PAMO_KWARGS, **(pamo_kwargs or {})}

    key = name.lower()
    if key == "jcab":
        method_kw: dict = dict(w_acc=jcab_weights[0], w_eng=jcab_weights[1])
    elif key == "fact":
        method_kw = dict(w_ltc=fact_weights[0], w_acc=fact_weights[1])
    elif key.startswith("pamo"):
        method_kw = dict(preference=preference, dm_noise=dm_noise, **kw)
    else:
        # weighted / random / any future registry entry: no PaMO budgets
        method_kw = dict(preference=preference)

    before = telemetry.snapshot() if telemetry.enabled else None
    with telemetry.span(f"bench.run_method.{name}"):
        out = make_scheduler(key, problem, rng=seed, **method_kw).optimize()

    d = out.decision
    outcome = d.outcome
    if measured:
        if name in ("JCAB", "FACT"):
            outcome = problem.evaluate_decision(
                d.resolutions, d.fps, d.assignment, measured=True, horizon=horizon
            )
        else:
            outcome = problem.evaluate_measured(d.resolutions, d.fps, horizon=horizon)
    extras = {
        "n_iterations": out.n_iterations,
        "n_dm_queries": out.n_dm_queries,
        "resolutions": d.resolutions,
        "fps": d.fps,
    }
    if before is not None:
        extras["telemetry"] = telemetry.report(since=before)
    return MethodResult(
        method=name,
        true_benefit=float(preference.value(outcome)),
        outcome=outcome,
        extras=extras,
    )


def normalize_against_plus(
    results: dict[str, MethodResult], preference: LinearL1Preference
) -> dict[str, MethodResult]:
    """Apply footnote-2 normalization using PaMO+ as max, −½Σw as min."""
    from repro.core.benefit import normalized_benefit

    if "PaMO+" not in results:
        raise ValueError("normalization requires a PaMO+ run")
    u_max = max(r.true_benefit for r in results.values())
    # By definition PaMO+ should be the max; if another method edged it
    # out on this seed, use the observed max so everything stays <= 1.
    u_min = preference.worst_value
    for r in results.values():
        r.normalized = float(normalized_benefit(r.true_benefit, u_max, u_min))
    return results
