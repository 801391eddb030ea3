"""Fixed-weight schedulers built on the classical rules of §1.

The paper's introduction argues that Equal / ROC / Rank-sum / Pseudo
weights "are not flexible enough to adapt to diverse and dynamic EVA
system environments".  This module makes that argument executable: a
scheduler that scalarizes the five (normalized, minimization-oriented)
objectives with a classical weight rule and picks the best decision
from the same candidate families PaMO searches — so any benefit gap to
PaMO is attributable to the *weights*, not the search.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.weights import (
    equal_weights,
    pseudo_weights,
    rank_sum_weights,
    roc_weights,
)
from repro.core.benefit import compute_bounds
from repro.core.problem import EVAProblem
from repro.core.result import OptimizationOutcome, ScheduleDecision
from repro.core.scheduler import SchedulerMixin
from repro.obs import telemetry
from repro.outcomes.functions import OBJECTIVES
from repro.moo.scalarize import weighted_chebyshev, weighted_sum
from repro.utils import as_generator
from repro.utils.rng import RngLike

#: objective orientation: flip accuracy so everything is minimized
_FLIP = np.array([1.0, -1.0, 1.0, 1.0, 1.0])


class WeightedSumScheduler(SchedulerMixin):
    """Best-of-pool scheduler under a fixed classical weighting.

    Keyword-only after ``problem``.

    Parameters
    ----------
    problem:
        EVA problem instance.
    rule:
        'equal' | 'roc' | 'rs' | 'pseudo', or an explicit weight vector.
        ROC/RS need ``ranks`` (objective importance permutation,
        1 = most important, default canonical order).  'pseudo' derives
        weights from a random Pareto front sample (Deb's pseudo-weights
        of its knee point).
    scalarization:
        'sum' (linear) or 'chebyshev'.
    n_candidates:
        Random decisions scored in addition to the uniform-knob family.
    """

    method_name = "WeightedSum"

    def __init__(
        self,
        problem: EVAProblem,
        *,
        rule: str | Sequence[float] = "equal",
        ranks: Sequence[int] | None = None,
        scalarization: str = "sum",
        n_candidates: int = 60,
        rng: RngLike = None,
    ) -> None:
        self.problem = problem
        self._rng = as_generator(rng)
        self.n_candidates = int(n_candidates)
        if scalarization not in ("sum", "chebyshev"):
            raise ValueError(f"unknown scalarization {scalarization!r}")
        self.scalarization = scalarization
        self.rule = rule
        self.ranks = list(ranks) if ranks is not None else list(
            range(1, len(OBJECTIVES) + 1)
        )
        self._lo, self._hi = compute_bounds(problem)

    # ------------------------------------------------------------------
    def _oriented(self, y: np.ndarray) -> np.ndarray:
        """Normalize outcomes to [0,1] and orient for minimization."""
        span = np.where(self._hi > self._lo, self._hi - self._lo, 1.0)
        yn = (np.asarray(y, dtype=float) - self._lo) / span
        # accuracy: higher is better -> minimize (1 - acc_norm)
        out = yn.copy()
        out[..., 1] = 1.0 - out[..., 1]
        return out

    def _resolve_weights(self, oriented_pool: np.ndarray) -> np.ndarray:
        k = len(OBJECTIVES)
        if not isinstance(self.rule, str):
            w = np.asarray(self.rule, dtype=float)
            if w.size != k:
                raise ValueError(f"weights must have {k} entries, got {w.size}")
            return w
        if self.rule == "equal":
            return equal_weights(k)
        if self.rule == "roc":
            return roc_weights(self.ranks)
        if self.rule == "rs":
            return rank_sum_weights(self.ranks)
        if self.rule == "pseudo":
            from repro.baselines.search import pareto_front

            idx = pareto_front(oriented_pool)
            front = oriented_pool[idx]
            # knee point: smallest L2 norm in normalized space
            knee = int(np.argmin(np.linalg.norm(front, axis=1)))
            return pseudo_weights(front, knee)
        raise ValueError(f"unknown weight rule {self.rule!r}")

    def _candidate_decisions(self) -> list[tuple[np.ndarray, np.ndarray]]:
        space = self.problem.config_space
        m = self.problem.n_streams
        decisions = [
            (np.full(m, r), np.full(m, s)) for r, s in space.all_configs()
        ]
        for _ in range(self.n_candidates):
            decisions.append(self.problem.sample_decision(self._rng))
        return decisions

    @property
    def name(self) -> str:
        return f"Weighted[{self.rule}/{self.scalarization}]"

    def optimize(self) -> OptimizationOutcome:
        """Score the candidate family and return the best scalarized."""
        with telemetry.span("weighted.optimize"):
            return self._optimize()

    def _optimize(self) -> OptimizationOutcome:
        decisions = self._candidate_decisions()
        outcomes = np.stack([self.problem.evaluate(r, s) for r, s in decisions])
        oriented = self._oriented(outcomes)
        w = self._resolve_weights(oriented)
        if self.scalarization == "sum":
            scores = weighted_sum(oriented, w)
        else:
            scores = weighted_chebyshev(oriented, w)
        best = int(np.argmin(scores))
        r, s = decisions[best]
        assignment, _ = self.problem.schedule(r, s)
        return OptimizationOutcome(
            decision=ScheduleDecision(
                resolutions=r,
                fps=s,
                assignment=assignment,
                outcome=outcomes[best],
                benefit=-float(scores[best]),
                method=self.name,
            ),
            n_iterations=len(decisions),
            converged=True,
            extras={"weights": w},
        )
