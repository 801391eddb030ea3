"""The revised Bayesian-optimization driver (Algorithm 2, phase 3).

``BOLoop`` is model-agnostic: it needs a *surrogate adapter* exposing a
joint benefit sampler and an update hook, an *observe* callable that
runs a configuration batch through the real system (profiling +
Algorithm 1, line 16), and a *candidate* callable producing the pool
the acquisition searches over each iteration.  Convergence follows the
paper: stop when the best benefit of an iteration moves less than δ,
or after ``n_iterations`` iterations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.bo.acquisition import AcquisitionFunction, QNEI
from repro.obs import telemetry
from repro.utils import as_generator, check_positive
from repro.utils.rng import RngLike


class SurrogateAdapter(Protocol):
    """What BOLoop needs from the model stack."""

    def sample_benefit(
        self, x: np.ndarray, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Joint posterior benefit samples, shape (n_samples, len(x))."""
        ...

    def benefit_mean(self, x: np.ndarray) -> np.ndarray:
        """Posterior-mean benefit at configurations ``x``."""
        ...

    def update(self, x: np.ndarray, observations) -> None:
        """Condition the models on newly observed configurations."""
        ...


@dataclass
class BOResult:
    """Outcome of one BO run."""

    best_x: np.ndarray
    best_z: float
    n_iterations: int
    converged: bool
    history_z: list[float] = field(default_factory=list)  # best-per-iteration
    observed_x: np.ndarray | None = None
    observed_z: np.ndarray | None = None


@dataclass
class BOLoopState:
    """Resumable snapshot of an in-flight BO run.

    Captured at the end of a completed iteration (see
    ``checkpoint_every``); feeding it back through ``run(resume=...)``
    continues from ``next_iteration`` exactly where the interrupted
    run left off.  The model and RNG state live *outside* this object
    — callers (:mod:`repro.resilience.checkpoint`) serialize the whole
    scheduler alongside it so the continuation is bit-identical.
    """

    observed_x: np.ndarray | None
    observed_z: np.ndarray | None
    history: list[float]
    z_prev: float | None
    next_iteration: int


class BOLoop:
    """Iterate: acquire batch → observe → update → check convergence.

    Parameters
    ----------
    adapter:
        Surrogate stack (outcome GPs composed with the preference GP).
    observe:
        ``observe(x_batch) -> observations`` — runs the real system;
        whatever it returns is passed to ``adapter.update`` and must
        also be convertible to benefit values via ``benefit_of``.
    benefit_of:
        ``benefit_of(observations) -> (b,) array`` of benefit values z
        (Algorithm 2 line 17 computes z = ĝ(y) because the true
        benefit is never observable).
    candidates:
        ``candidates(rng) -> (n, d)`` pool for the acquisition search.
    acquisition:
        Batch acquisition (default qNEI).
    batch_size:
        b — candidates recommended per iteration.
    delta:
        Convergence threshold δ on the change of the iteration-best z.
    n_iterations:
        Hard iteration cap (MaxIterNum).
    on_iteration:
        Optional diagnostics hook ``on_iteration(n_iter)`` invoked after
        each model update — but only while telemetry is enabled, so
        callers can emit model-health events (GP hyperparameters,
        preference fidelity, …) without adding disabled-path cost.
    checkpoint_every, on_checkpoint:
        Every ``checkpoint_every`` completed iterations (0 disables)
        the loop calls ``on_checkpoint(state)`` with a
        :class:`BOLoopState` snapshot; pass the state back through
        ``run(resume=...)`` to continue an interrupted run.
    """

    def __init__(
        self,
        adapter: SurrogateAdapter,
        observe: Callable[[np.ndarray], object],
        benefit_of: Callable[[object], np.ndarray],
        candidates: Callable[[np.random.Generator], np.ndarray],
        *,
        acquisition: AcquisitionFunction | None = None,
        batch_size: int = 4,
        delta: float = 0.02,
        n_iterations: int = 20,
        on_iteration: Callable[[int], None] | None = None,
        checkpoint_every: int = 0,
        on_checkpoint: Callable[["BOLoopState"], None] | None = None,
        rng: RngLike = None,
    ) -> None:
        self.adapter = adapter
        self.observe = observe
        self.benefit_of = benefit_of
        self.candidates = candidates
        self.acquisition = acquisition or QNEI()
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = int(batch_size)
        self.delta = check_positive("delta", delta)
        if n_iterations < 1:
            raise ValueError(f"n_iterations must be >= 1, got {n_iterations}")
        self.n_iterations = int(n_iterations)
        self.on_iteration = on_iteration
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        self.checkpoint_every = int(checkpoint_every)
        self.on_checkpoint = on_checkpoint
        self._rng = as_generator(rng)

    def run(
        self,
        *,
        initial_x: np.ndarray | None = None,
        initial_z: np.ndarray | None = None,
        resume: BOLoopState | None = None,
    ) -> BOResult:
        """Run to convergence; optional warm-start observations.

        ``resume`` continues an interrupted run from a
        :class:`BOLoopState` checkpoint (mutually exclusive with
        ``initial_x``/``initial_z`` — the state already carries the
        observations).
        """
        if resume is not None:
            if initial_x is not None or initial_z is not None:
                raise ValueError("pass either resume or initial_x/initial_z, not both")
            observed_x = (
                None if resume.observed_x is None
                else np.atleast_2d(np.asarray(resume.observed_x, dtype=float))
            )
            observed_z = (
                None if resume.observed_z is None
                else np.asarray(resume.observed_z, dtype=float)
            )
            history = list(resume.history)
            z_prev = resume.z_prev
            start_iteration = max(1, int(resume.next_iteration))
            telemetry.event(
                "bo.resume",
                next_iteration=start_iteration,
                n_observed=0 if observed_x is None else int(observed_x.shape[0]),
            )
        else:
            observed_x = (
                np.atleast_2d(np.asarray(initial_x, dtype=float))
                if initial_x is not None and len(initial_x) > 0
                else None
            )
            observed_z = (
                np.asarray(initial_z, dtype=float)
                if initial_z is not None and len(initial_z) > 0
                else None
            )
            if (observed_x is None) != (observed_z is None):
                raise ValueError("initial_x and initial_z must be given together")
            if observed_x is not None and observed_x.shape[0] != observed_z.shape[0]:
                raise ValueError("initial_x and initial_z lengths differ")
            history = []
            z_prev = None
            start_iteration = 1

        converged = False
        n_iter = start_iteration - 1

        for n_iter in range(start_iteration, self.n_iterations + 1):
            t_iter = time.perf_counter()
            with telemetry.span("bo.candidates"):
                pool = np.atleast_2d(self.candidates(self._rng))
            t0 = time.perf_counter()
            with telemetry.span("bo.select_batch"):
                idx = self.acquisition.select_batch(
                    self.adapter.sample_benefit,
                    pool,
                    min(self.batch_size, pool.shape[0]),
                    observed_x=observed_x,
                    observed_z=observed_z,
                    rng=self._rng,
                )
            t_select = time.perf_counter() - t0
            x_batch = pool[idx]
            t0 = time.perf_counter()
            with telemetry.span("bo.observe"):
                obs = self.observe(x_batch)
                z_batch = np.asarray(self.benefit_of(obs), dtype=float)
            t_observe = time.perf_counter() - t0
            if z_batch.shape[0] != x_batch.shape[0]:
                raise ValueError(
                    f"benefit_of returned {z_batch.shape[0]} values for "
                    f"{x_batch.shape[0]} configurations"
                )
            t0 = time.perf_counter()
            with telemetry.span("bo.model_update"):
                self.adapter.update(x_batch, obs)
            t_update = time.perf_counter() - t0

            observed_x = (
                x_batch if observed_x is None else np.vstack([observed_x, x_batch])
            )
            observed_z = (
                z_batch if observed_z is None else np.concatenate([observed_z, z_batch])
            )

            z_best = float(np.max(z_batch))
            history.append(z_best)
            if self.on_iteration is not None and telemetry.enabled:
                with telemetry.span("bo.diagnostics"):
                    self.on_iteration(n_iter)
            if telemetry.enabled:
                telemetry.event(
                    "bo.iteration",
                    iteration=n_iter,
                    pool_size=int(pool.shape[0]),
                    batch_size=int(x_batch.shape[0]),
                    batch_benefit=z_best,
                    batch_benefits=[float(z) for z in z_batch],
                    incumbent_benefit=float(np.max(observed_z)),
                    acquisition_value=getattr(
                        self.acquisition, "last_batch_value", None
                    ),
                    t_select_s=t_select,
                    t_observe_s=t_observe,
                    t_model_update_s=t_update,
                    t_iteration_s=time.perf_counter() - t_iter,
                    counters=telemetry.report()["counters"],
                )
            if z_prev is not None and abs(z_best - z_prev) < self.delta:
                converged = True
                break
            z_prev = z_best
            if (
                self.on_checkpoint is not None
                and self.checkpoint_every > 0
                and n_iter % self.checkpoint_every == 0
                and n_iter < self.n_iterations
            ):
                with telemetry.span("bo.checkpoint"):
                    self.on_checkpoint(
                        BOLoopState(
                            observed_x=observed_x,
                            observed_z=observed_z,
                            history=list(history),
                            z_prev=z_prev,
                            next_iteration=n_iter + 1,
                        )
                    )

        assert observed_x is not None and observed_z is not None
        best = int(np.argmax(observed_z))
        return BOResult(
            best_x=observed_x[best].copy(),
            best_z=float(observed_z[best]),
            n_iterations=n_iter,
            converged=converged,
            history_z=history,
            observed_x=observed_x,
            observed_z=observed_z,
        )
