"""Drift detection for the periodic monitoring loop.

§2.1: "The scheduler periodically collects performance and resource
information ... According to these real-time data, the scheduler
adjusts configuration and scheduling decisions."

:class:`DriftDetector` decides when observed outcomes have strayed far
enough from the deployed decision's predictions to warrant a full
re-solve.  The loop that feeds it is
:meth:`repro.serve.service.SchedulerService.run_epochs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils import check_positive

__all__ = ["DriftDetector"]


@dataclass
class DriftDetector:
    """Flags sustained relative deviation of observed vs expected outcomes.

    Tracks, per epoch, the max relative deviation across objectives;
    drift fires after ``patience`` consecutive epochs above
    ``rel_threshold``.
    """

    rel_threshold: float = 0.25
    patience: int = 2
    _strikes: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        check_positive("rel_threshold", self.rel_threshold)
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")

    def deviation(self, expected: np.ndarray, observed: np.ndarray) -> float:
        """Max relative per-objective deviation of observed vs expected."""
        expected = np.asarray(expected, dtype=float)
        observed = np.asarray(observed, dtype=float)
        denom = np.maximum(np.abs(expected), 1e-9)
        return float(np.max(np.abs(observed - expected) / denom))

    def update(self, expected: np.ndarray, observed: np.ndarray) -> bool:
        """Feed one epoch's observation; returns True when drift fires."""
        if self.deviation(expected, observed) > self.rel_threshold:
            self._strikes += 1
        else:
            self._strikes = 0
        if self._strikes >= self.patience:
            self._strikes = 0
            return True
        return False

    def reset(self) -> None:
        """Clear accumulated strikes (after a redeploy)."""
        self._strikes = 0
