"""Active preference learning: the loop of Algorithm 2 lines 5–11.

``PreferenceLearner`` owns an outcome space Y (the candidate outcome
vectors the decision maker can be asked about), a
:class:`~repro.gp.preference.PreferenceGP`, and a decision maker.  Each
query selects the comparison pair maximizing the closed-form EUBO
criterion, asks the decision maker, appends the answer to the
preference set 𝒫, and refits the Laplace posterior.

Items are min-max normalized over the outcome space before entering
the GP so the kernel sees a unit cube regardless of raw outcome units.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.bo.eubo import select_eubo_pair
from repro.gp.kernels import RBFKernel
from repro.gp.preference import ComparisonData, PreferenceGP
from repro.obs import telemetry
from repro.pref.decision_maker import DecisionMaker
from repro.utils import as_generator, check_array_2d, normalize_minmax
from repro.utils.rng import RngLike


class PreferenceLearner:
    """EUBO-driven comparison collection + preference-GP fitting.

    Parameters
    ----------
    outcome_space:
        (n, k) candidate outcome vectors Y (raw scale).
    decision_maker:
        Oracle answering comparisons.
    noise_scale:
        λ of the preference GP's probit likelihood.
    lengthscale:
        RBF lengthscale over the normalized (unit-cube) outcome space.
    n_eubo_candidates:
        Random candidate pairs scored per EUBO selection.
    """

    def __init__(
        self,
        outcome_space,
        *,
        decision_maker: DecisionMaker,
        noise_scale: float = 0.05,
        lengthscale: float = 1.5,
        n_eubo_candidates: int = 150,
        rng: RngLike = None,
    ) -> None:
        self.outcome_space = check_array_2d("outcome_space", outcome_space)
        if self.outcome_space.shape[0] < 2:
            raise ValueError("outcome space needs at least two vectors")
        self.decision_maker = decision_maker
        self.n_eubo_candidates = int(n_eubo_candidates)
        self._rng = as_generator(rng)
        self._lo = self.outcome_space.min(axis=0)
        self._hi = self.outcome_space.max(axis=0)
        self._data = ComparisonData(items=self._normalize(self.outcome_space))
        # Benefit functions over normalized outcomes are smooth and
        # near-monotone per objective; a long fixed lengthscale on the
        # unit cube beats the median heuristic by a wide margin here.
        kernel = RBFKernel(
            np.full(self.outcome_space.shape[1], float(lengthscale)), outputscale=1.0
        )
        self.model = PreferenceGP(kernel=kernel, noise_scale=noise_scale)
        self._asked: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    def _normalize(self, y) -> np.ndarray:
        # No clipping: outcomes observed later in the optimization loop
        # may fall outside the initial space's envelope, and clipping
        # them would alias distinct outcomes onto the cube boundary.
        return normalize_minmax(
            np.asarray(y, dtype=float), self._lo, self._hi, clip=False
        )

    @property
    def n_comparisons(self) -> int:
        return self._data.n_pairs

    @property
    def n_items(self) -> int:
        """Items in the comparison set (outcome space + BO-observed)."""
        return self._data.n_items

    @property
    def is_fitted(self) -> bool:
        return self.model.is_fitted

    # ------------------------------------------------------------------
    def _ask(self, i: int, j: int) -> None:
        y1 = self.outcome_space[i]
        y2 = self.outcome_space[j]
        telemetry.counter("pref.dm_queries")
        if self.decision_maker.compare(y1, y2):
            self._data.add_comparison(i, j)
        else:
            self._data.add_comparison(j, i)
        self._asked.add((min(i, j), max(i, j)))

    def _fit(self) -> None:
        """Refit the Laplace posterior, keeping the old one on failure.

        The MAP search can fail to converge (or the kernel matrix can
        lose positive-definiteness) once the comparison set grows
        adversarial; a stale-but-sane posterior beats a broken one, so
        the refit happens in a *candidate* model that only replaces
        ``self.model`` on a clean, converged fit.  Kept-previous refits
        are counted as ``pref.laplace_nonconverged``.  The very first
        fit has no previous posterior to keep and is accepted (or
        raised) as-is.
        """
        candidate = PreferenceGP(
            kernel=self.model.kernel,
            noise_scale=self.model.noise_scale,
            max_newton_iter=self.model.max_newton_iter,
            tol=self.model.tol,
        )
        had_previous = self.model.is_fitted
        with telemetry.span("pref.gp_fit"):
            try:
                candidate.fit(self._data)
            except np.linalg.LinAlgError as exc:
                if not had_previous:
                    raise
                telemetry.counter("pref.laplace_nonconverged")
                telemetry.event(
                    "pref.laplace_nonconverged",
                    n_comparisons=self._data.n_pairs,
                    error=f"{type(exc).__name__}: {exc}",
                )
                warnings.warn(
                    f"preference-GP refit failed ({exc}); keeping the "
                    f"previous posterior ({self.model._data.n_pairs} "
                    "comparisons)",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return
        if had_previous and not candidate.converged:
            telemetry.counter("pref.laplace_nonconverged")
            telemetry.event(
                "pref.laplace_nonconverged",
                n_comparisons=self._data.n_pairs,
                error="newton_iteration_cap",
            )
            warnings.warn(
                "preference-GP Laplace MAP hit its Newton iteration cap "
                f"({candidate.max_newton_iter}); keeping the previous "
                "posterior",
                RuntimeWarning,
                stacklevel=3,
            )
            return
        self.model = candidate
        telemetry.counter("pref.gp_refits")

    def initialize(self, n_pairs: int = 3) -> "PreferenceLearner":
        """Seed the preference set with random comparisons and fit."""
        if n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
        n = self.outcome_space.shape[0]
        with telemetry.span("pref.initialize"):
            for _ in range(n_pairs):
                i, j = self._rng.choice(n, 2, replace=False)
                self._ask(int(i), int(j))
            self._fit()
        return self

    def query_step(self) -> tuple[int, int]:
        """One EUBO-selected query; returns the asked (i, j) indices."""
        if not self.model.is_fitted:
            raise RuntimeError("call initialize() before query_step()")
        with telemetry.span("pref.query_step"):
            i, j, eubo = select_eubo_pair(
                self.model,
                self._data.items,
                n_candidates=self.n_eubo_candidates,
                rng=self._rng,
                exclude=self._asked,
                return_value=True,
            )
            telemetry.counter("pref.eubo_queries")
            telemetry.event(
                "pref.query",
                i=int(i),
                j=int(j),
                eubo=eubo,
                n_comparisons=self.n_comparisons,
            )
            telemetry.gauge("pref.last_eubo", eubo)
            self._ask(i, j)
            self._fit()
        return i, j

    def run(self, n_queries: int) -> "PreferenceLearner":
        """Run ``n_queries`` EUBO query steps (after initialization)."""
        for _ in range(int(n_queries)):
            self.query_step()
        return self

    def compare_against(self, y_new, y_ref) -> "PreferenceLearner":
        """Fold new outcome vectors into the preference set (Alg. 2 l.19).

        Each row of ``y_new`` is added to the comparison item set and
        compared against ``y_ref`` by the decision maker; the model is
        refit once at the end.  This is how the BO loop keeps refining
        ĝ in the region the search actually visits.
        """
        if not self.model.is_fitted:
            raise RuntimeError("call initialize() before compare_against()")
        y_new = np.atleast_2d(np.asarray(y_new, dtype=float))
        y_ref = np.asarray(y_ref, dtype=float).reshape(-1)
        ref_idx = int(self._data.add_items(self._normalize(y_ref)[None, :])[0])
        new_idx = self._data.add_items(self._normalize(y_new))
        for i, y in zip(new_idx, y_new):
            telemetry.counter("pref.dm_queries")
            if self.decision_maker.compare(y, y_ref):
                self._data.add_comparison(int(i), ref_idx)
            else:
                self._data.add_comparison(ref_idx, int(i))
        self._fit()
        return self

    # ------------------------------------------------------------------
    def utility(self, y) -> np.ndarray:
        """Posterior-mean utility ĝ(y) at raw outcome vectors ``y``."""
        if not self.model.is_fitted:
            raise RuntimeError("learner is not fitted")
        mean, _ = self.model.predict(self._normalize(np.atleast_2d(y)))
        return mean

    def utility_with_uncertainty(self, y) -> tuple[np.ndarray, np.ndarray]:
        """(mean, variance) of ĝ at raw outcome vectors."""
        if not self.model.is_fitted:
            raise RuntimeError("learner is not fitted")
        return self.model.predict(self._normalize(np.atleast_2d(y)))

    def sample_utility(self, y, n_samples: int, *, rng: RngLike = None) -> np.ndarray:
        """Joint posterior samples of ĝ at raw outcome vectors."""
        if not self.model.is_fitted:
            raise RuntimeError("learner is not fitted")
        return self.model.sample_posterior(
            self._normalize(np.atleast_2d(y)), n_samples, rng=rng
        )
