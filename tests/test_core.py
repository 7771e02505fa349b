"""Tests for states, thermal contexts, and entropy functionals."""

import math
from fractions import Fraction

import numpy as np
import pytest

from thermoflux.core import (
    DensityMatrix,
    DimensionCapError,
    HamiltonianOperator,
    SupportViolationError,
    ThermalContext,
    dim_cap,
    relative_entropy,
    tensor_power,
    thermal_state,
    trace_distance,
)

QUBIT = ThermalContext(levels=(0, 1), beta=1.0)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_pure_state_from_unnormalized_vector(self):
        rho = DensityMatrix.pure(np.array([3.0, 4.0]))
        assert rho.entries[0, 0].real == pytest.approx(9.0 / 25.0)

    def test_from_diagonal(self):
        rho = DensityMatrix.from_diagonal([0.25, 0.75])
        assert np.allclose(rho.diagonal(), [0.25, 0.75])

    def test_entries_read_only(self):
        rho = DensityMatrix.from_diagonal([0.5, 0.5])
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 1.0


class TestThermalContext:
    def test_partition_function(self):
        assert QUBIT.partition_function == pytest.approx(1.0 + math.exp(-1.0))

    def test_levels_are_exact_fractions(self):
        ctx = ThermalContext(levels=(0, Fraction(1, 2), 1), beta=2.0)
        assert ctx.levels == (Fraction(0), Fraction(1, 2), Fraction(1))

    def test_non_integer_float_level_rejected(self):
        with pytest.raises(ValueError):
            ThermalContext(levels=(0.0, 0.3), beta=1.0)

    def test_gibbs_probabilities_sum_to_one(self):
        ctx = ThermalContext(levels=(0, 1, 2), beta=0.7)
        assert ctx.gibbs_probabilities().sum() == pytest.approx(1.0)

    def test_continuity_constant_qubit(self):
        # 1 + (beta E_max + ln Z)/sqrt(2) at one copy
        expected = 1.0 + (1.0 + math.log(1.0 + math.exp(-1.0))) / math.sqrt(2.0)
        assert QUBIT.continuity_constant(1) == pytest.approx(expected, abs=1e-12)
        assert QUBIT.continuity_constant(1) == pytest.approx(1.92869, abs=1e-4)

    def test_continuity_constant_scales_linearly_in_k(self):
        a1 = QUBIT.continuity_constant(1) - 1.0
        a3 = QUBIT.continuity_constant(3) - 1.0
        assert a3 == pytest.approx(3 * a1)


class TestHamiltonianOperator:
    def test_exact_levels_two_copies(self):
        ham = HamiltonianOperator(QUBIT, 2)
        assert tuple(ham.exact_levels()) == (
            Fraction(0), Fraction(1), Fraction(1), Fraction(2)
        )

    def test_energy_groups_partition_all_indices(self):
        ham = HamiltonianOperator(QUBIT, 3)
        idx = sorted(i for g in ham.energy_groups().values() for i in g)
        assert idx == list(range(8))

    def test_matrix_is_diagonal(self):
        m = HamiltonianOperator(QUBIT, 2).matrix()
        assert np.allclose(m, np.diag(np.diag(m)))


class TestRelativeEntropy:
    def test_identical_states_zero(self):
        tau = thermal_state(QUBIT)
        assert relative_entropy(tau, tau) == pytest.approx(0.0, abs=1e-12)

    def test_ground_state_value(self):
        rho = DensityMatrix.from_diagonal([1.0, 0.0])
        tau = thermal_state(QUBIT)
        assert relative_entropy(rho, tau) == pytest.approx(
            math.log(1.0 + math.exp(-1.0)), abs=1e-12
        )

    def test_excited_state_value(self):
        rho = DensityMatrix.from_diagonal([0.0, 1.0])
        tau = thermal_state(QUBIT)
        expected = 1.0 + math.log(1.0 + math.exp(-1.0))
        assert relative_entropy(rho, tau) == pytest.approx(expected, abs=1e-12)

    def test_plus_state_value(self):
        plus = DensityMatrix.pure(np.array([1.0, 1.0]) / math.sqrt(2))
        tau = thermal_state(QUBIT)
        # pure state: D = -Tr[rho ln tau] = beta <E> + ln Z
        expected = 0.5 + math.log(1.0 + math.exp(-1.0))
        assert relative_entropy(plus, tau) == pytest.approx(expected, abs=1e-12)

    def test_support_violation_raises(self):
        rho = DensityMatrix.from_diagonal([0.5, 0.5])
        sigma = DensityMatrix.from_diagonal([1.0, 0.0])
        with pytest.raises(SupportViolationError):
            relative_entropy(rho, sigma)

    def test_joint_convexity_spot_check(self):
        rng = np.random.default_rng(3)
        tau = thermal_state(QUBIT)
        for _ in range(5):
            a = rng.dirichlet([1, 1])
            r1 = DensityMatrix.from_diagonal(rng.dirichlet([1, 1]))
            r2 = DensityMatrix.from_diagonal(rng.dirichlet([1, 1]))
            mix = DensityMatrix(a[0] * r1.entries + a[1] * r2.entries)
            assert relative_entropy(mix, tau) <= (
                a[0] * relative_entropy(r1, tau)
                + a[1] * relative_entropy(r2, tau)
                + 1e-12
            )


class TestTensorAlgebra:
    def test_tensor_power_dimensions(self):
        tau = thermal_state(QUBIT)
        assert tensor_power(tau, 3).dim == 8

    def test_tensor_power_of_thermal_is_thermal(self):
        tau3 = tensor_power(thermal_state(QUBIT), 3)
        ham = HamiltonianOperator(QUBIT, 3)
        z = sum(math.exp(-float(e)) for e in ham.exact_levels())
        diag = np.array([math.exp(-float(e)) / z for e in ham.exact_levels()])
        assert np.allclose(tau3.diagonal(), diag, atol=1e-12)

    def test_dim_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("THERMOFLUX_DIM_CAP", "8")
        assert dim_cap() == 8
        tau = thermal_state(QUBIT)
        with pytest.raises(DimensionCapError):
            tensor_power(tau, 4)

    def test_trace_distance_orthogonal_pure_states(self):
        a = DensityMatrix.from_diagonal([1.0, 0.0])
        b = DensityMatrix.from_diagonal([0.0, 1.0])
        assert trace_distance(a, b) == pytest.approx(2.0)

