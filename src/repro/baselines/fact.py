"""FACT baseline: block coordinate descent on latency + accuracy ([19]).

FACT (Liu et al., INFOCOM '18, the mobile-AR edge orchestrator)
minimizes a weighted sum of end-to-end **latency** and **accuracy
loss** by adjusting per-stream *resolution* and *server allocation*
with block coordinate descent.  Faithful to the paper's description in
§5.1:

* frame rate is NOT a knob (held at the maximum configured rate);
* energy and network consumption are NOT in its objective;
* the two blocks alternate — (a) per-stream resolution by exhaustive
  knob search given the allocation; (b) allocation by utilization-aware
  greedy (least resulting cost, capacity-capped) given resolutions —
  until a sweep changes nothing.

Like JCAB it reasons about average utilization only, never about
periods, so its placements routinely violate Const2.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import EVAProblem
from repro.core.result import OptimizationOutcome, ScheduleDecision
from repro.core.scheduler import SchedulerMixin
from repro.obs import telemetry
from repro.utils import check_positive
from repro.utils.rng import RngLike


class FACT(SchedulerMixin):
    """BCD over (resolution, allocation) for weighted latency+accuracy.

    Parameters
    ----------
    w_ltc, w_acc:
        Objective weights: minimize ``w_ltc·ltc̄ + w_acc·(1 − acc)``
        with latency max-normalized across the knob range.
    n_iterations:
        BCD sweep budget (typically converges in 2–4).
    rng:
        Accepted for cross-scheduler API consistency; FACT itself is
        deterministic and never draws from it.
    """

    method_name = "FACT"

    def __init__(
        self,
        problem: EVAProblem,
        *,
        w_ltc: float = 1.0,
        w_acc: float = 1.0,
        n_iterations: int = 10,
        tol: float = 0.0,
        rng: RngLike = None,
    ) -> None:
        self.problem = problem
        self.w_ltc = check_positive("w_ltc", w_ltc, strict=False)
        self.w_acc = check_positive("w_acc", w_acc, strict=False)
        self.n_iterations = int(check_positive("n_iterations", n_iterations))
        self.tol = check_positive("tol", tol, strict=False)

        self._res = np.asarray(problem.config_space.resolutions, dtype=float)
        self._fps = float(max(problem.config_space.fps_values))
        prof = problem.profile
        enc = problem.encoder
        self._proc = np.array([prof.processing_time(r) for r in self._res])
        self._bits = np.array([enc.bits_per_frame(r) for r in self._res])
        self._acc = np.array(
            [problem.outcomes.accuracy([r], [self._fps]) for r in self._res]
        )
        # normalization for the latency term: worst case = biggest frame
        # on the slowest uplink
        slow_bw = float(np.min(problem.bandwidths_mbps)) * 1e6
        self._ltc_max = float(self._proc.max() + self._bits.max() / slow_bw)

    def _stream_cost(self, res_idx: int, server: int) -> float:
        bw = self.problem.bandwidths_mbps[server] * 1e6
        ltc = self._proc[res_idx] + self._bits[res_idx] / bw
        return self.w_ltc * (ltc / self._ltc_max) + self.w_acc * (
            1.0 - self._acc[res_idx]
        )

    def _best_resolution(self, server: int, budget: float) -> int:
        """Cheapest knob whose load fits the remaining server budget."""
        best, best_cost = 0, np.inf
        for k in range(self._res.size):
            if self._proc[k] * self._fps > budget + 1e-9:
                continue
            c = self._stream_cost(k, server)
            if c < best_cost:
                best, best_cost = k, c
        return best

    def _reallocate(self, res_idx: np.ndarray) -> list[int]:
        """Greedy allocation: per stream (heaviest first), pick the
        server minimizing its cost among those with spare capacity."""
        n = self.problem.n_servers
        util = np.zeros(n)
        order = np.argsort(-self._proc[res_idx])  # heavy streams first
        assignment = [0] * len(res_idx)
        for i in order:
            load = self._proc[res_idx[i]] * self._fps
            candidates = [j for j in range(n) if util[j] + load <= 1.0 + 1e-9]
            if not candidates:
                candidates = [int(np.argmin(util))]
            j_best = min(candidates, key=lambda j: self._stream_cost(res_idx[i], j))
            assignment[i] = j_best
            util[j_best] += load
        return assignment

    def optimize(self) -> OptimizationOutcome:
        """Run BCD sweeps to quiescence; returns the final decision."""
        with telemetry.span("fact.optimize"):
            return self._optimize()

    def _optimize(self) -> OptimizationOutcome:
        m = self.problem.n_streams
        res_idx = np.full(m, self._res.size - 1, dtype=int)  # start at max res
        assignment = self._reallocate(res_idx)
        history: list[float] = []

        for sweep in range(self.n_iterations):
            changed = False
            # Block 1: resolutions given allocation (respect capacity).
            util = np.zeros(self.problem.n_servers)
            for i, srv in enumerate(assignment):
                util[srv] += self._proc[res_idx[i]] * self._fps
            for i, srv in enumerate(assignment):
                budget = 1.0 - (util[srv] - self._proc[res_idx[i]] * self._fps)
                new_k = self._best_resolution(srv, budget)
                if new_k != res_idx[i]:
                    util[srv] += (self._proc[new_k] - self._proc[res_idx[i]]) * self._fps
                    res_idx[i] = new_k
                    changed = True
            # Block 2: allocation given resolutions.
            new_assignment = self._reallocate(res_idx)
            if new_assignment != assignment:
                assignment = new_assignment
                changed = True
            total = sum(
                self._stream_cost(res_idx[i], assignment[i]) for i in range(m)
            )
            history.append(-total)  # higher is better, for symmetry
            if not changed:
                break
            if (
                self.tol > 0
                and len(history) >= 2
                and abs(history[-1] - history[-2]) < self.tol
            ):
                break

        r = self._res[res_idx]
        s = np.full(m, self._fps)
        outcome = self.problem.evaluate_decision(r, s, assignment)
        return OptimizationOutcome(
            decision=ScheduleDecision(
                resolutions=r,
                fps=s,
                assignment=assignment,
                outcome=outcome,
                benefit=history[-1] if history else float("nan"),
                method=self.method_name,
            ),
            n_iterations=len(history),
            converged=len(history) < self.n_iterations,
            history=history,
        )
