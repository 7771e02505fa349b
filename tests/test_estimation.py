"""Tests for sampling simulation and estimation guarantees."""

import math

import numpy as np
import pytest

from thermoflux.estimation import (
    EmpiricalDistribution,
    classical_relative_entropy,
    hoeffding_radius,
    hoeffding_sample_size,
    sample_types,
)


class TestSamplingOracle:
    """sample_types: the seeded i.i.d. source behind the type measurement."""

    def test_same_seed_reproduces_counts(self):
        a = sample_types(np.array([0.6, 0.4]), 100, seed=42)
        b = sample_types(np.array([0.6, 0.4]), 100, seed=42)
        assert a.counts == b.counts
        assert a.m == sum(a.counts) == 100

    def test_different_call_seeds_differ(self):
        draws = {sample_types(np.array([0.6, 0.4]), 1000, seed=s).counts for s in range(5)}
        assert len(draws) > 1


class TestEmpiricalDistribution:
    def test_counts_must_sum_to_m(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(counts=(3, 3), m=5)

    def test_p_hat(self):
        emp = EmpiricalDistribution(counts=(30, 70), m=100)
        assert np.allclose(emp.p_hat, [0.3, 0.7])


class TestHoeffdingSampleSize:
    def test_reference_value(self):
        assert hoeffding_sample_size(2, 0.1, 0.05) == 220

    @pytest.mark.parametrize("d, eta, delta", [(2, 0.1, 0.05), (16, 0.05, 1e-6), (81, 0.2, 1e-9)])
    def test_radius_inverts_the_sample_size(self, d, eta, delta):
        """At the sample size for eta, the radius is at most eta, one sample
        fewer reaches beyond it, and 2 m r^2 is the bound up to rounding."""
        m = hoeffding_sample_size(d, eta, delta)
        r = hoeffding_radius(d, m, delta)
        assert r <= eta < hoeffding_radius(d, m - 1, delta)
        assert 2 * m * r * r == pytest.approx(d * math.log(2) + math.log(1 / delta), rel=1e-15)

    def test_monotone_in_eta(self):
        sizes = [hoeffding_sample_size(2, eta, 0.05) for eta in (0.2, 0.1, 0.05)]
        assert sizes[0] < sizes[1] < sizes[2]

    def test_monotone_in_alphabet(self):
        assert hoeffding_sample_size(4, 0.1, 0.05) > hoeffding_sample_size(2, 0.1, 0.05)

    def test_empirical_coverage(self):
        """The bound must hold empirically: deviations beyond eta occur with
        frequency at most delta (plus 3-sigma binomial slack)."""
        m = hoeffding_sample_size(2, 0.1, 0.05)
        rng = np.random.default_rng(17)
        p = np.array([0.9, 0.1])
        counts = rng.multinomial(m, p, size=1000)
        frac = float((np.abs(counts / m - p).sum(axis=1) > 0.1).mean())
        assert frac <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / 1000)


class TestRelativeEntropyEstimation:
    def test_classical_relative_entropy_examples(self):
        t = np.array([0.5, 0.5])
        assert classical_relative_entropy(np.array([1.0, 0.0]), t) == pytest.approx(
            math.log(2.0)
        )
        assert classical_relative_entropy(t, t) == pytest.approx(0.0)

    def test_support_violation_raises(self):
        with pytest.raises(ValueError):
            classical_relative_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
