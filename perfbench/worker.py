"""One benchmark pass, in a fresh interpreter.

``run.py`` starts this script once per pass and times it from the
spawn to the ``READY`` line the script prints once set-up is done
(imports, problem and preference construction, and for the serve
workloads the service's warm-up solve).  The script then runs the
workload, checks its outputs outside the timed region, and prints one
JSON object as its last line.

Usage (normally only through ``run.py``)::

    python3 perfbench/worker.py --workload churn_steady --seed 0 --tmp DIR \
        [--trace] [--spans PATH] [--recover] [--setup-only]
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from itertools import groupby  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from repro.baselines import make_scheduler  # noqa: E402
from repro.bench.harness import FAST_PAMO_KWARGS, make_problem  # noqa: E402
from repro.core import benefit as benefit_mod  # noqa: E402
from repro.obs import telemetry  # noqa: E402
from repro.sched.theory import const1_satisfied, const2_satisfied  # noqa: E402
from repro.serve import (  # noqa: E402
    AdmissionController,
    ChurnProfile,
    IncrementalPlanner,
    SchedulerService,
    WriteAheadLog,
    approx_preference,
    generate_load,
    recover_service,
    service_spec,
)

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402

T_IMPORTED = time.perf_counter()

#: Serve topology: 1000 streams on 48 servers.  The §5.2 bandwidth draw
#: is made once, with this seed; the run's seed drives the churn log.
#: A draw per seed moves fleet capacity, and with it the set-up and solve
#: times: the warm-up solve's spread over five seeds fell from 30% to 16%
#: with the draw fixed.
SERVE_STREAMS, SERVE_SERVERS = 1000, 48
SERVE_TOPOLOGY_SEED = 0
#: Simulated hours of the churn log one pass replays: about 1200 epochs
#: for churn_steady, 800 for churn_flash, whose burst epochs cost ~10x.
#: Every pass of a run replays the same log from a fresh service, so all
#: passes must make bit-identical decisions.
SERVE_HOURS = 0.5
FLASH_HOURS = 0.3
CHURN_RATE_PER_HOUR = 2000.0
#: churn_flash: 8x arrivals over the middle fifth of the log, and a
#: greedy full re-solve every FLASH_REOPTIMIZE_EVERY epochs.
FLASH_MULTIPLIER = 8.0
FLASH_REOPTIMIZE_EVERY = 256
#: Output checks (Const1/Const2) run on this many evenly spaced epochs
#: plus the last one, outside the timed region.
CHECKED_EPOCHS = 16
#: Timed greedy full solves of the initial population per pass, right
#: after set-up, where every seed leaves the process in the same state.
#: The one warm-up solve inside start() varied by up to 60% between runs
#: of identical work; the best of several repeats varies less.
FULL_SOLVE_REPEATS = 2

#: PaMO batch solve: M=64 streams on N=8 servers.
PAMO_STREAMS, PAMO_SERVERS = 64, 8
#: pamo_solve solves one fixed instance whatever the run's seed: this §5.2
#: bandwidth draw, solved with this PaMO seed.  Over sixteen solves with
#: other draws and PaMO seeds, solve time ranged from 9 s to 31 s on a
#: 2-core x86 VM, a spread no regression bound could hold.
PAMO_INSTANCE_SEED = 0
#: Simulated seconds of the discrete-event run that scores the decision.
MEASURE_HORIZON_S = 4.0


def normalized_benefit(preference, value: float) -> float:
    """Eq. 13 value U ∈ [−Σw, 0] rescaled to 1 + U/Σw ∈ [0, 1]."""
    return 1.0 + float(value) / float(np.sum(preference.weights))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ready() -> None:
    print("READY", flush=True)


# -- serve workloads --------------------------------------------------------
def serve_config(workload: str):
    """(churn profile, admission controller, reoptimize_every)."""
    rates = dict(
        arrivals_per_hour=CHURN_RATE_PER_HOUR,
        departures_per_hour=CHURN_RATE_PER_HOUR,
    )
    if workload == "churn_steady":
        return ChurnProfile(hours=SERVE_HOURS, **rates), None, 0
    profile = ChurnProfile(
        hours=FLASH_HOURS,
        burst_start_s=0.4 * FLASH_HOURS * 3600.0,
        burst_duration_s=0.2 * FLASH_HOURS * 3600.0,
        burst_multiplier=FLASH_MULTIPLIER,
        **rates,
    )
    # New joins (ids >= SERVE_STREAMS) outrank the initial population,
    # so a full fleet admits them by evicting (and rolling back).
    admission = AdmissionController(
        priority_map={sid: 0 for sid in range(SERVE_STREAMS)},
        default_priority=1,
    )
    return profile, admission, FLASH_REOPTIMIZE_EVERY


def const_ok(service) -> bool:
    streams, assignment = service.planner.as_periodic_streams()
    return const1_satisfied(streams, assignment) and const2_satisfied(
        streams, assignment
    )


def full_solve_s(problem, preference) -> float:
    """Best wall time of a greedy full solve of the initial population."""
    planner = IncrementalPlanner.for_problem(problem, preference=preference)
    textures = {sid: float(t) for sid, t in enumerate(problem.textures)}
    best = math.inf
    for _ in range(FULL_SOLVE_REPEATS):
        t0 = time.perf_counter()
        planner.solve_all(textures)
        best = min(best, time.perf_counter() - t0)
    return best


def serve_pass(args, tracer: Tracer | None, tmp: Path) -> dict:
    profile, admission, reoptimize_every = serve_config(args.workload)
    setup = tracer.root("setup") if tracer else nullcontext()
    with setup:
        problem = make_problem(
            SERVE_STREAMS, SERVE_SERVERS, rng=SERVE_TOPOLOGY_SEED
        )
        preference = approx_preference(problem)
        service = SchedulerService(
            problem,
            preference=preference,
            reoptimize_every=reoptimize_every,
            admission=admission,
        )
        wal = WriteAheadLog.create(
            tmp / "serve.wal",
            service_spec(
                n_streams=SERVE_STREAMS,
                bandwidths_mbps=problem.bandwidths_mbps,
                seed=SERVE_TOPOLOGY_SEED,
                reoptimize_every=reoptimize_every,
                admission=None if admission is None else admission.snapshot(),
            ),
        )
        service.attach_wal(wal)
        service.start()
    ready()
    if args.setup_only:
        wal.close()
        return {}
    with tracer.root("solve") if tracer else nullcontext():
        solve_s = full_solve_s(problem, preference)

    log = generate_load(
        SERVE_STREAMS, SERVE_SERVERS, profile=profile, seed=args.seed
    )
    batches = [
        list(batch)
        for _, batch in groupby(log.events, key=lambda e: service.epoch_of(e.time))
    ]
    stride = max(1, len(batches) // CHECKED_EPOCHS)
    checked = set(range(stride - 1, len(batches), stride)) | {len(batches) - 1}
    latencies: list[float] = []
    failed = const_checked = 0
    errors: list[str] = []
    joins = joins_admitted = 0
    for i, batch in enumerate(batches):
        epoch = service.epoch_of(batch[0].time)
        span = tracer.root("epoch", epoch) if tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                service.submit(batch)
                made = service.run(max_epochs=1)
        except Exception as exc:  # counted as a failed attempt
            failed += 1
            errors.append(f"epoch {epoch}: {exc!r}")
            continue
        finally:
            latencies.append(time.perf_counter() - t0)
        ok = (
            len(made) == 1
            and made[0].epoch == epoch
            and made[0].benefit is not None
            and math.isfinite(made[0].benefit)
            and len(made[0].stream_ids) == len(service.planner.entries)
        )
        if ok and i in checked:
            const_checked += 1
            ok = const_ok(service)
        if not ok:
            failed += 1
            errors.append(f"epoch {epoch}: output check failed")
        joined = {e.target for e in batch if e.kind == "stream_join"}
        if joined and made:
            refused = joined & (set(made[0].rejected) | set(made[0].shed))
            joins += len(joined)
            joins_admitted += len(joined) - len(refused)
    rss = peak_rss_mb()
    if tracer:
        tracer.unwrap_all()
    wal.close()

    decisions = service.decisions[1:]
    scored = [d.benefit for d in decisions if d.benefit is not None]
    digest = hashlib.sha256()
    for d in service.decisions:
        digest.update(d.sig_hash().encode())
    hits = sum(d.cache_hits for d in decisions)
    solved = sum(d.solved for d in decisions)
    result = {
        "attempted": len(batches),
        "failed": failed,
        "errors": errors[:5],
        "latencies_s": latencies,
        "solve_s": solve_s,
        "benefit": normalized_benefit(preference, float(np.mean(scored))),
        "benefit_eq13": float(np.mean(scored)),
        "joins": joins,
        "joins_admitted": joins_admitted,
        "peak_rss_mb": rss,
        "digest": digest.hexdigest(),
        "const_checked": const_checked,
        "state": {
            "wal.mb": (tmp / "serve.wal").stat().st_size / 2**20,
            "state.decisions": len(service.decisions),
            "serve.cache_hit_ratio": hits / (hits + solved) if hits + solved else 0.0,
            "admit.rejected": sum(len(d.rejected) for d in decisions),
            "admit.evicted": sum(len(d.evicted) for d in decisions),
            "admit.shed": sum(len(d.shed) for d in decisions),
            "serve.latency_reported_share": (
                sum(d.latency_s for d in decisions) / sum(latencies)
                if latencies
                else 0.0
            ),
        },
    }
    if tracer:
        t0 = time.perf_counter()
        service.save_checkpoint(tmp / "serve.ckpt")
        result["state"]["state.checkpoint_s"] = time.perf_counter() - t0
        result["state"]["state.checkpoint_mb"] = (
            (tmp / "serve.ckpt").stat().st_size / 2**20
        )
    if args.recover:
        recovered, info = recover_service(tmp / "serve.wal")
        recovered.run()
        mismatches = info.verify(recovered)
        result["recovery"] = {
            "replayed_events": info.replayed_events,
            "verified_epochs": len(info.recorded) - len(mismatches),
            "mismatches": mismatches[:5],
        }
    return result


# -- PaMO batch solve -------------------------------------------------------
def pamo_pass(args, tracer: Tracer | None, tmp: Path) -> dict:
    setup = tracer.root("setup") if tracer else nullcontext()
    with setup:
        problem = make_problem(PAMO_STREAMS, PAMO_SERVERS, rng=PAMO_INSTANCE_SEED)
        preference = benefit_mod.make_preference(problem)
    ready()
    if args.setup_only:
        return {}

    scheduler = make_scheduler(
        "pamo",
        problem,
        preference=preference,
        rng=PAMO_INSTANCE_SEED,
        **FAST_PAMO_KWARGS,
    )
    solve = tracer.root("solve", 0) if tracer else nullcontext()
    t0 = time.perf_counter()
    with solve:
        out = scheduler.optimize()
    solve_s = time.perf_counter() - t0
    rss = peak_rss_mb()
    if tracer:
        tracer.unwrap_all()

    d = out.decision
    assignment, streams = problem.schedule(d.resolutions, d.fps)
    feasible = (
        problem.is_feasible(d.resolutions, d.fps)
        and const1_satisfied(streams, assignment)
        and const2_satisfied(streams, assignment)
    )
    admitted = {st.parent_id for st, q in zip(streams, assignment) if q != -1}
    measured = problem.evaluate_measured(
        d.resolutions, d.fps, horizon=MEASURE_HORIZON_S
    )
    value = float(preference.value(measured))
    ok = feasible and math.isfinite(value)
    digest = hashlib.sha256()
    for arr in (d.resolutions, d.fps, np.asarray(d.assignment), d.outcome):
        digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return {
        "attempted": 1,
        "failed": 0 if ok else 1,
        "errors": [] if ok else ["PaMO decision fails Const1/Const2 or its score"],
        "latencies_s": [solve_s],
        "solve_s": solve_s,
        "benefit": normalized_benefit(preference, value),
        "benefit_eq13": value,
        "joins": PAMO_STREAMS,
        "joins_admitted": len(admitted),
        "peak_rss_mb": rss,
        "digest": digest.hexdigest(),
        "feasible": bool(feasible),
        "state": {},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("churn_steady", "churn_flash", "pamo_solve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true",
                    help="wrap the layer calls and record spans")
    ap.add_argument("--spans", default="",
                    help="write the recorded spans here (JSON lines)")
    ap.add_argument("--recover", action="store_true",
                    help="after the pass, recover a service from its WAL "
                         "and verify it (serve workloads)")
    ap.add_argument("--setup-only", action="store_true",
                    help="exit right after set-up (a set-up time probe)")
    ap.add_argument("--tmp", required=True,
                    help="scratch directory for the WAL and checkpoint")
    args = ap.parse_args(argv)

    tracer = None
    serve = args.workload != "pamo_solve"
    if args.trace:
        tracer = Tracer()
        for name, target, _moves in (
            layers.SERVE_LAYERS if serve else layers.PAMO_LAYERS
        ):
            tracer.wrap(*layers.resolve(target), name)
        telemetry.enable()
    tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=args.tmp))
    try:
        result = serve_pass(args, tracer, tmp) if serve else pamo_pass(
            args, tracer, tmp
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["import_s"] = T_IMPORTED - T_START
    if tracer:
        layer_stats, totals = tracer.layer_stats(
            {"setup", "epoch", "solve"}, layers.PERCENTILE_LAYERS
        )
        result["layers"] = layer_stats
        result["totals"] = totals
        counters = telemetry.snapshot()["counters"]
        result["counters"] = {
            name: counters.get(name, 0) for name in layers.TELEMETRY_COUNTERS
        }
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
