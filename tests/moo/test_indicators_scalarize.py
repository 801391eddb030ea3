"""Tests for the scalarization rules."""

import numpy as np
import pytest

from repro.moo import (
    achievement,
    weighted_chebyshev,
    weighted_sum,
)


class TestScalarization:
    def test_weighted_sum(self):
        assert weighted_sum([1.0, 2.0], [0.5, 1.0]) == pytest.approx(2.5)

    def test_weighted_sum_batched(self):
        out = weighted_sum(np.array([[1.0, 0.0], [0.0, 1.0]]), [2.0, 3.0])
        np.testing.assert_allclose(out, [2.0, 3.0])

    def test_chebyshev(self):
        assert weighted_chebyshev([1.0, 3.0], [1.0, 1.0]) == pytest.approx(3.0)

    def test_chebyshev_with_reference(self):
        out = weighted_chebyshev([2.0, 2.0], [1.0, 1.0], reference=[2.0, 0.0])
        assert out == pytest.approx(2.0)

    def test_achievement_breaks_ties(self):
        a = achievement([1.0, 0.0], [1.0, 1.0])
        b = achievement([1.0, 0.9], [1.0, 1.0])
        assert b > a  # same max, augmentation differs

    def test_negative_weights_raise(self):
        with pytest.raises(ValueError):
            weighted_sum([1.0], [-1.0])

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            weighted_sum([1.0, 2.0], [1.0])
