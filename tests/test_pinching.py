"""Tests for pinching channels and their quantitative guarantees."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoflux.core import (
    DensityMatrix,
    ThermalContext,
    relative_entropy,
    tensor_power,
    thermal_state,
)
from thermoflux.pinching import (
    PROJ_TOL,
    BasisFamily,
    PinchingChannel,
    ProjectorFamily,
    apply,
    energy_pinching,
    mixture_realization,
    pinching_inequality_check,
    relative_entropy_loss,
    schur_pinched_distribution,
    schur_pinching,
)

QUBIT = ThermalContext(levels=(0, 1), beta=1.0)
PLUS = DensityMatrix.pure(np.array([1.0, 1.0]) / math.sqrt(2))


class TestProjectorFamily:
    def test_incomplete_family_rejected(self):
        p = np.diag([1.0, 0.0])
        with pytest.raises(ValueError):
            ProjectorFamily(dim=2, projectors=(p,))

    def test_non_idempotent_rejected(self):
        with pytest.raises(ValueError):
            ProjectorFamily(dim=2, projectors=(0.5 * np.eye(2), 0.5 * np.eye(2)))

    def test_non_orthogonal_rejected(self):
        v = np.array([1.0, 1.0]) / math.sqrt(2)
        p1 = np.outer(v, v)
        p2 = np.eye(2) - np.diag([1.0, 0.0])
        with pytest.raises(ValueError):
            ProjectorFamily(dim=2, projectors=(p1, np.diag([1.0, 0.0]), -p2 + p2))

    def test_commutes_with_diagonal_hamiltonian(self):
        fam = energy_pinching(QUBIT, 2).family
        h = np.diag([0.0, 1.0, 1.0, 2.0])
        assert all(np.max(np.abs(p @ h - h @ p)) <= PROJ_TOL for p in fam.projectors)


class TestEnergyPinching:
    def test_projector_count_matches_distinct_energies(self):
        channel = energy_pinching(QUBIT, 3)
        assert len(channel.family) == 4  # total energies 0..3

    def test_kills_cross_energy_coherence(self):
        channel = energy_pinching(QUBIT, 1)
        out = apply(channel, PLUS.entries)
        assert abs(out[0, 1]) < 1e-14
        assert out[0, 0] == pytest.approx(0.5)

    def test_preserves_diagonal_states(self):
        channel = energy_pinching(QUBIT, 2)
        tau2 = tensor_power(thermal_state(QUBIT), 2).entries
        assert np.allclose(apply(channel, tau2), tau2, atol=1e-14)

    def test_trace_preserving(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho = rho / rho.trace().real
        out = apply(energy_pinching(QUBIT, 2), rho)
        assert out.trace().real == pytest.approx(1.0, abs=1e-12)


class TestSchurPinching:
    def test_three_qubit_projector_ranks(self):
        channel = schur_pinching(QUBIT, 3)
        ranks = sorted(
            int(round(p.trace().real)) for p in channel.family.projectors
        )
        assert ranks == [1, 1, 1, 1, 2, 2]

    def test_projector_count_within_polynomial_bound(self):
        for n in (2, 3, 4, 5):
            channel = schur_pinching(QUBIT, n)
            assert len(channel.family) <= (n + 1) ** 2

    def test_finer_than_energy_pinching_on_invariant_states(self):
        """Schur pinching refines energy pinching, so applying energy pinching
        afterwards changes nothing."""
        rho3 = tensor_power(PLUS, 3).entries
        fine = apply(schur_pinching(QUBIT, 3), rho3)
        assert np.allclose(apply(energy_pinching(QUBIT, 3), fine), fine, atol=1e-12)

    def test_thermal_state_is_fixed_point(self):
        tau3 = tensor_power(thermal_state(QUBIT), 3).entries
        assert np.allclose(apply(schur_pinching(QUBIT, 3), tau3), tau3, atol=1e-12)


class TestMixtureRealization:
    def test_uniform_mixture_equals_pinching(self):
        channel = schur_pinching(QUBIT, 2)
        us = mixture_realization(channel)
        rng = np.random.default_rng(7)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho = rho / rho.trace().real
        mix = sum(u @ rho @ u.conj().T for u in us) / len(us)
        assert np.allclose(mix, apply(channel, rho), atol=1e-12)

    def test_members_are_unitary(self):
        for u in mixture_realization(energy_pinching(QUBIT, 2)):
            assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


class TestQuantitativeBounds:
    def test_pinching_inequality_qubit(self):
        k = 3
        channel = schur_pinching(QUBIT, k)
        rk = tensor_power(PLUS, k).entries
        mineig, ok = pinching_inequality_check(channel, rk, (k + 1) ** 2)
        assert ok

    def test_loss_bound_qubit(self):
        for k in (1, 2, 3, 4):
            channel = schur_pinching(QUBIT, k)
            rk = tensor_power(PLUS, k).entries
            loss = relative_entropy_loss(channel, rk, k)
            assert loss <= (2.0 / k) * math.log(k + 1) + 1e-10

    def test_free_energy_recovery_monotone(self):
        tau = thermal_state(QUBIT)
        target = relative_entropy(PLUS, tau)
        prev = -1.0
        for k in (1, 2, 3):
            channel = schur_pinching(QUBIT, k)
            rk = tensor_power(PLUS, k).entries
            tk = tensor_power(tau, k).entries
            val = relative_entropy(apply(channel, rk), tk) / k
            assert val >= prev - 1e-12
            assert val <= target + 1e-12
            prev = val


class TestPinchedDistribution:
    def test_ground_state_point_mass_on_zero_energy_letter(self):
        ground = DensityMatrix.pure(np.array([1.0, 0.0]))
        probs, energies = schur_pinched_distribution(QUBIT, 2, ground)
        assert probs.sum() == pytest.approx(1.0)
        top = int(np.argmax(probs))
        assert probs[top] == pytest.approx(1.0, abs=1e-12)
        assert float(energies[top]) == 0.0

    def test_thermal_matches_gibbs_weights(self):
        tau = thermal_state(QUBIT)
        probs, energies = schur_pinched_distribution(QUBIT, 2, tau)
        z = QUBIT.partition_function
        for p, e in zip(probs, energies):
            assert p == pytest.approx(math.exp(-float(e)) / z ** 2, abs=1e-12)


def _random_state(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace().real


QUTRIT = ThermalContext(levels=(0, 1, 2), beta=1.0)


class TestBasisFamily:
    @pytest.mark.parametrize("channel", [
        energy_pinching(QUBIT, 3),
        energy_pinching(QUTRIT, 2),
        schur_pinching(QUBIT, 4),
        schur_pinching(QUTRIT, 3),
        PinchingChannel(BasisFamily(unitary=np.eye(8), groups=[0] * 3 + [1] * 5)),
    ], ids=["energy-qubit", "energy-qutrit", "schur-qubit", "schur-qutrit", "coarse"])
    def test_apply_equals_sum_over_materialised_projectors(self, channel):
        rho = _random_state(np.random.default_rng(11), channel.dim)
        direct = sum(p @ rho @ p for p in channel.family.projectors)
        assert len(channel.family.projectors) == len(channel.family)
        assert np.max(np.abs(apply(channel, rho) - direct)) <= 1e-12

    def test_materialised_projectors_form_a_family(self):
        fam = schur_pinching(QUTRIT, 3).family
        ProjectorFamily(dim=fam.dim, projectors=fam.projectors)  # validating constructor

    def test_labels_name_each_projector(self):
        fam = schur_pinching(QUBIT, 3).family
        assert [(rows, int(e)) for rows, e in fam.labels] == [
            ((3,), 0), ((3,), 1), ((3,), 2), ((3,), 3), ((2, 1), 1), ((2, 1), 2)
        ]

    def test_non_unitary_basis_rejected(self):
        u = np.eye(4)
        u[0, 1] = PROJ_TOL  # ||U^T U - I||_F = sqrt(2) PROJ_TOL > PROJ_TOL / 2
        with pytest.raises(ValueError):
            BasisFamily(unitary=u, groups=[0, 0, 1, 1])

    def test_groups_must_number_every_projector(self):
        with pytest.raises(ValueError):
            BasisFamily(unitary=np.eye(3), groups=[0, 2, 2])


class TestRandomStateBounds:
    @settings(max_examples=30)
    @given(case=st.sampled_from([(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_pinching_inequality_and_loss_bound(self, case, seed):
        """P(rho^k) >= rho^k / (k+1)^{2(d-1)} and (1/k) D(rho^k || P(rho^k))
        <= 2(d-1) ln(k+1)/k on random mixed states."""
        d, k = case
        ctx = QUBIT if d == 2 else QUTRIT
        channel = schur_pinching(ctx, k)
        rk = tensor_power(_random_state(np.random.default_rng(seed), d), k)
        _, ok = pinching_inequality_check(channel, rk, (k + 1) ** (2 * (d - 1)))
        assert ok
        assert relative_entropy_loss(channel, rk, k) <= 2 * (d - 1) / k * math.log(k + 1) + 1e-10
