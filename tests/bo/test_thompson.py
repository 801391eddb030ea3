"""Tests for the Thompson-sampling batch acquisition."""

import numpy as np
import pytest

from repro.bo import ThompsonSampling, make_acquisition


def _gaussian_sampler(means, stds):
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)

    def sampler(x, n_samples, rng):
        idx = np.asarray(x, dtype=float).reshape(len(x), -1)[:, 0].astype(int)
        return means[idx] + stds[idx] * rng.standard_normal((n_samples, len(idx)))

    return sampler


MEANS = np.array([0.0, 1.0, 3.0, 0.5])
STDS = np.array([0.05, 0.05, 0.05, 0.05])
POOL = np.arange(4, dtype=float).reshape(-1, 1)


class TestThompsonSampling:
    def test_factory(self):
        assert isinstance(make_acquisition("ts"), ThompsonSampling)

    def test_selects_clear_winner(self):
        s = _gaussian_sampler(MEANS, STDS)
        idx = ThompsonSampling(n_samples=16).select_batch(s, POOL, 1, rng=0)
        assert idx.tolist() == [2]

    def test_batch_slots_distinct(self):
        s = _gaussian_sampler(MEANS, STDS)
        idx = ThompsonSampling(n_samples=16).select_batch(s, POOL, 3, rng=0)
        assert len(set(idx.tolist())) == 3

    def test_exploration_under_uncertainty(self):
        """High-variance arms get picked sometimes across seeds."""
        means = np.array([1.0, 0.9])
        stds = np.array([0.01, 2.0])
        s = _gaussian_sampler(means, stds)
        pool = np.arange(2, dtype=float).reshape(-1, 1)
        picks = [
            ThompsonSampling(n_samples=4).select_batch(s, pool, 1, rng=k)[0]
            for k in range(40)
        ]
        assert 0 < sum(p == 1 for p in picks) < 40

    def test_evaluate_is_expected_max(self):
        s = _gaussian_sampler(MEANS, STDS)
        v = ThompsonSampling(n_samples=2048).evaluate(s, POOL[2:3], rng=0)
        assert v == pytest.approx(3.0, abs=0.05)

    def test_batch_size_validation(self):
        s = _gaussian_sampler(MEANS, STDS)
        with pytest.raises(ValueError):
            ThompsonSampling().select_batch(s, POOL, 0, rng=0)
        with pytest.raises(ValueError):
            ThompsonSampling().select_batch(s, POOL, 9, rng=0)

    def test_works_inside_bo_loop(self):
        from repro.bo import BOLoop
        from repro.gp import GPRegressor

        def truth(x):
            x = np.asarray(x, dtype=float).reshape(-1)
            return np.exp(-20 * (x - 0.6) ** 2)

        gen = np.random.default_rng(0)
        x0 = gen.uniform(0, 1, (5, 1))
        z0 = truth(x0)

        class Adapter:
            def __init__(self):
                self.x, self.z = x0, z0
                self.gp = GPRegressor().fit(self.x, self.z)

            def sample_benefit(self, x, n, rng):
                return self.gp.sample_posterior(np.atleast_2d(x), n, rng=rng)

            def benefit_mean(self, x):
                return self.gp.predict(np.atleast_2d(x))[0]

            def update(self, x, obs):
                self.x = np.vstack([self.x, np.atleast_2d(x)])
                self.z = np.concatenate([self.z, np.asarray(obs)])
                self.gp = GPRegressor().fit(self.x, self.z)

        loop = BOLoop(
            Adapter(),
            observe=lambda xb: truth(xb),
            benefit_of=lambda o: np.asarray(o),
            candidates=lambda rng: rng.uniform(0, 1, (20, 1)),
            acquisition=ThompsonSampling(n_samples=8),
            batch_size=2,
            n_iterations=6,
            delta=1e-6,
            rng=0,
        )
        res = loop.run(initial_x=x0, initial_z=z0)
        assert res.best_z > 0.8
