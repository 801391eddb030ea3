"""JCAB baseline: Lyapunov drift-plus-penalty + First-Fit ([34], §5.1).

JCAB (Zhang et al., IEEE/ACM ToN '21) adapts per-stream configuration
to maximize a linear weighting of **accuracy and energy** while keeping
per-server compute and uplink virtual queues stable:

* each slot, every stream greedily picks the knob pair (r, s) that
  maximizes ``V·(w_acc·acc − w_eng·ēng) − Q_q·load − Z_q·b̄w`` where
  Q_q / Z_q are the assigned server's compute/bandwidth virtual queues
  (the drift terms) and ēng/b̄w are max-normalized energy/bitrate;
* placement is **First-Fit** by utilization — no harmonic-period
  reasoning, so the resulting schedules generally violate Const2 and
  pay queueing delay on the real testbed (the paper's core criticism);
* virtual queues integrate overload: Q ← max(0, Q + load − 1),
  Z ← max(0, Z + used − capacity).

The knobs it does NOT consider — latency, network, computation in the
benefit — are exactly why it trails PaMO under general preferences.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import EVAProblem
from repro.core.result import OptimizationOutcome, ScheduleDecision
from repro.core.scheduler import SchedulerMixin
from repro.obs import telemetry
from repro.utils import as_generator, check_positive
from repro.utils.rng import RngLike


class JCAB(SchedulerMixin):
    """Lyapunov configuration adaptation with First-Fit placement.

    Parameters
    ----------
    problem:
        EVA problem instance.
    w_acc, w_eng:
        Weights of JCAB's two-objective linear benefit.
    v:
        Lyapunov trade-off parameter V (penalty vs queue drift).
    n_iterations:
        Time slots to iterate (the online algorithm run to quiescence).
    """

    method_name = "JCAB"

    def __init__(
        self,
        problem: EVAProblem,
        *,
        w_acc: float = 1.0,
        w_eng: float = 1.0,
        v: float = 1.0,
        n_iterations: int = 40,
        tol: float = 0.0,
        rng: RngLike = None,
    ) -> None:
        self.problem = problem
        self.w_acc = check_positive("w_acc", w_acc, strict=False)
        self.w_eng = check_positive("w_eng", w_eng, strict=False)
        self.v = check_positive("v", v)
        self.n_iterations = int(check_positive("n_iterations", n_iterations))
        self.tol = check_positive("tol", tol, strict=False)
        self._rng = as_generator(rng)

        space = problem.config_space
        self._knobs = space.all_configs()  # (K, 2) of (r, s)
        fns = problem.outcomes
        # Per-knob per-stream primitives (streams share knob economics;
        # texture only scales bits, handled via stream index where needed).
        self._acc = np.array([fns.accuracy([r], [s]) for r, s in self._knobs])
        self._eng = np.array([fns.energy_watts([r], [s]) for r, s in self._knobs])
        self._load = np.array(
            [problem.profile.processing_time(r) * s for r, s in self._knobs]
        )
        self._bw = np.array(
            [fns.network_mbps([r], [s]) for r, s in self._knobs]
        )
        self._eng_n = self._eng / self._eng.max()
        self._bw_n = self._bw / self._bw.max()

    def _first_fit(self, loads: np.ndarray) -> list[int]:
        """First-Fit by utilization: first server whose load stays ≤ 1."""
        n = self.problem.n_servers
        util = np.zeros(n)
        assignment: list[int] = []
        for ld in loads:
            placed = False
            for j in range(n):
                if util[j] + ld <= 1.0 + 1e-9:
                    util[j] += ld
                    assignment.append(j)
                    placed = True
                    break
            if not placed:
                j = int(np.argmin(util))  # overload the least-loaded server
                util[j] += ld
                assignment.append(j)
        return assignment

    def optimize(self) -> OptimizationOutcome:
        """Run the Lyapunov slot loop; returns the final decision."""
        with telemetry.span("jcab.optimize"):
            return self._optimize()

    def _optimize(self) -> OptimizationOutcome:
        m = self.problem.n_streams
        n = self.problem.n_servers
        q = np.zeros(n)  # compute virtual queues
        z = np.zeros(n)  # bandwidth virtual queues
        # start every stream at the middle knob
        knob_idx = np.full(m, len(self._knobs) // 2, dtype=int)
        assignment = self._first_fit(self._load[knob_idx])
        history: list[float] = []

        for _ in range(self.n_iterations):
            # (1) per-stream config: maximize penalty-minus-drift greedily
            for i in range(m):
                srv = assignment[i]
                score = (
                    self.v * (self.w_acc * self._acc - self.w_eng * self._eng_n)
                    - q[srv] * self._load
                    - z[srv] * self._bw_n
                )
                knob_idx[i] = int(np.argmax(score))
            # (2) placement: First-Fit on the new loads
            assignment = self._first_fit(self._load[knob_idx])
            # (3) queue updates from realized usage
            load_per_srv = np.zeros(n)
            bw_per_srv = np.zeros(n)
            for i, srv in enumerate(assignment):
                load_per_srv[srv] += self._load[knob_idx[i]]
                bw_per_srv[srv] += self._bw[knob_idx[i]]
            q = np.maximum(0.0, q + load_per_srv - 1.0)
            z = np.maximum(0.0, z + bw_per_srv - self.problem.bandwidths_mbps)
            history.append(
                float(np.sum(self.w_acc * self._acc[knob_idx]))
                - float(np.sum(self.w_eng * self._eng_n[knob_idx]))
            )
            # Early termination on objective quiescence (the paper's
            # Fig. 10(b) termination-threshold knob).
            if (
                self.tol > 0
                and len(history) >= 2
                and abs(history[-1] - history[-2]) < self.tol
            ):
                break

        r = self._knobs[knob_idx, 0]
        s = self._knobs[knob_idx, 1]
        outcome = self.problem.evaluate_decision(r, s, assignment)
        internal = history[-1] if history else float("nan")
        return OptimizationOutcome(
            decision=ScheduleDecision(
                resolutions=r,
                fps=s,
                assignment=assignment,
                outcome=outcome,
                benefit=internal,
                method=self.method_name,
            ),
            n_iterations=len(history),
            converged=True,
            history=history,
        )
