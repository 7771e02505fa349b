"""Tests for pinching channels and their quantitative guarantees."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoflux import pinching, schur
from thermoflux.core import (
    DensityMatrix,
    _entries,
    DimensionMismatchError,
    ThermalContext,
    relative_entropy,
    tensor_power,
    thermal_state,
)
from thermoflux.pinching import (
    PROJ_TOL,
    BasisFamily,
    PinchingChannel,
    apply,
    energy_pinching,
    mixture_realization,
    pinching_inequality_check,
    relative_entropy_loss,
    schur_pinched_distribution,
    schur_pinched_letters,
    schur_pinching,
)
from thermoflux.estimation import classical_relative_entropy
from thermoflux.extraction import WorkAlphabet
from thermoflux.schur import build_schur_basis

from oracles import ProjectorFamily, product_energies

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

    def test_one_channel_per_levels_and_k(self):
        """Kept per (levels, k), beta not read; read-only, its members the
        energy groups of H^{x k} in increasing energy."""
        channel = energy_pinching(QUBIT, 3)
        assert energy_pinching(ThermalContext(levels=(0, 1), beta=0.2), 3) is channel
        assert energy_pinching(QUBIT, 2) is not channel
        assert energy_pinching(ThermalContext(levels=(0, 2), beta=1.0), 3) is not channel
        fam = channel.family
        groups: dict = {}
        for idx, e in enumerate(product_energies(QUBIT.levels, 3)):
            groups.setdefault(e, []).append(idx)
        assert [e for _, e in fam.labels] == sorted(groups)
        assert [m.tolist() for m in fam.members] == [groups[e] for e in sorted(groups)]
        assert [(r.tolist(), c.tolist()) for r, c in fam.sectors] == [(m.tolist(), m.tolist()) for m in fam.members]
        for arr in (fam.unitary, fam.groups, *fam.members, *(a for sector in fam.sectors for a in sector)):
            assert not arr.flags.writeable

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


def _random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return np.outer(v, v.conj()) / np.vdot(v, v).real


def _dense_pinched(basis, rho, k):
    """diag(U^T rho^{x k} U): the Schur-basis diagonal through the d^k x d^k power."""
    u = basis.change_of_basis
    return np.einsum("ij,ij->j", u, tensor_power(rho, k) @ u).real


DENSE_CASES = [(2, k) for k in range(1, 9)] + [(3, k) for k in range(1, 6)]


class TestCopyZeroLetters:
    @settings(max_examples=60)
    @given(case=st.sampled_from(DENSE_CASES), seed=st.integers(0, 2 ** 32 - 1), pure=st.booleans())
    def test_matches_dense_route_with_bitwise_equal_copies(self, case, seed, pure):
        d, k = case
        rng = np.random.default_rng(seed)
        rho = _random_pure(rng, d) if pure else _random_state(rng, d)
        basis = build_schur_basis(k, d)
        probs, _ = schur_pinched_distribution(QUBIT if d == 2 else QUTRIT, k, DensityMatrix(rho), basis)
        dense = _dense_pinched(basis, rho, k)
        assert np.max(np.abs(probs - dense)) <= 1e-12
        assert np.all(probs[dense >= 1e-10] > 0.0)  # the zero floor snaps no real letter
        offset = 0
        for b in basis.blocks:
            copies = probs[offset:offset + b.weyl_dim * b.sym_dim].reshape(b.weyl_dim, b.sym_dim)
            assert np.array_equal(copies, np.repeat(copies[:, :1], b.sym_dim, axis=1))
            offset += b.weyl_dim * b.sym_dim

    @settings(max_examples=40)
    @given(case=st.sampled_from([(2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_pure_state_letters_outside_symmetric_block_are_exact_zeros(self, case, seed):
        """rho^{x k} of a pure state lives in the symmetric block (k,), the
        first block; every other letter is snapped to exactly 0.0."""
        d, k = case
        rho = _random_pure(np.random.default_rng(seed), d)
        basis = build_schur_basis(k, d)
        probs, _ = schur_pinched_distribution(QUBIT if d == 2 else QUTRIT, k, DensityMatrix(rho), basis)
        assert basis.blocks[0].diagram.rows == (k,)
        assert np.all(probs[basis.blocks[0].weyl_dim:] == 0.0)
        assert np.all(probs[_dense_pinched(basis, rho, k) >= 1e-10] > 0.0)


class TestWeylLetters:
    """The sum n_lambda Weyl letters with multiplicities lose nothing against
    the d^k Schur basis letters."""

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(DENSE_CASES), seed=st.integers(0, 2 ** 32 - 1), pure=st.booleans())
    def test_relative_entropy_and_expansion_match_the_schur_letters(self, case, seed, pure):
        d, k = case
        ctx = QUBIT if d == 2 else QUTRIT
        rng = np.random.default_rng(seed)
        rho = DensityMatrix(_random_pure(rng, d) if pure else _random_state(rng, d))
        probs, energies, mult = schur_pinched_letters(ctx, k, rho)
        full, full_energies = schur_pinched_distribution(ctx, k, rho)
        basis = build_schur_basis(k, d)
        assert len(probs) == len(energies) == sum(b.weyl_dim for b in basis.blocks)
        assert mult.tolist() == [b.sym_dim for b in basis.blocks for _ in range(b.weyl_dim)]
        assert np.max(np.abs(np.repeat(probs / mult, mult) - full)) <= 1e-15
        assert full_energies == tuple(np.repeat(np.array(energies, dtype=object), mult))
        grouped = classical_relative_entropy(
            probs, WorkAlphabet(energies=energies, beta=1.0, multiplicities=mult).thermal)
        flat = classical_relative_entropy(full, WorkAlphabet(energies=full_energies, beta=1.0).thermal)
        assert abs(grouped - flat) <= 1e-12

    def test_letters_are_kept_once_per_basis(self):
        _, energies, mult = schur_pinched_letters(QUTRIT, 3, PLUS_QUTRIT)
        assert schur_pinched_letters(QUTRIT, 3, thermal_state(QUTRIT))[1] is energies
        assert not mult.flags.writeable and mult.tolist() == [1] * 10 + [2] * 8 + [1]


def _letter_and_pinched_entropies(ctx, k, rho):
    """(D(p_k||t_k) of the Weyl letters, D(P(rho^{x k})||tau^{x k}) of the Schur pinching)."""
    probs, energies, mult = schur_pinched_letters(ctx, k, rho)
    letters = classical_relative_entropy(
        probs, WorkAlphabet(energies=energies, beta=ctx.beta, multiplicities=mult).thermal)
    pinched = relative_entropy(apply(schur_pinching(ctx, k), tensor_power(rho, k)), thermal_state(ctx, k))
    return letters, pinched


class TestLettersAgainstThePinchedState:
    """The letters are the Schur-pinched spectrum when each (lambda, E) block
    holds one Weyl vector (always, for qubits); for d >= 3 they dephase it further."""

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1), pure=st.booleans())
    def test_qubit_letters_give_the_pinched_relative_entropy(self, k, seed, pure):
        rng = np.random.default_rng(seed)
        rho = DensityMatrix(_random_pure(rng, 2) if pure else _random_state(rng, 2))
        letters, pinched = _letter_and_pinched_entropies(QUBIT, k, rho)
        assert abs(letters - pinched) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(levels=st.sampled_from([(0, 1, 2), (0, 1, 3)]), k=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1), pure=st.booleans())
    def test_qutrit_letters_never_exceed_the_pinched_relative_entropy(self, levels, k, seed, pure):
        rng = np.random.default_rng(seed)
        rho = DensityMatrix(_random_pure(rng, 3) if pure else _random_state(rng, 3))
        letters, pinched = _letter_and_pinched_entropies(ThermalContext(levels, beta=1.0), k, rho)
        assert letters <= pinched + 1e-12

    def test_qutrit_plus_letters_lie_strictly_below(self):
        """Levels (0, 1, 2), k = 2: the (2,) block holds two Weyl vectors of energy 2."""
        letters, pinched = _letter_and_pinched_entropies(QUTRIT, 2, PLUS_QUTRIT)
        kd = 2 * relative_entropy(PLUS_QUTRIT, thermal_state(QUTRIT))
        assert letters / kd == pytest.approx(0.384, abs=1e-3)
        assert pinched / kd == pytest.approx(0.459, abs=1e-3)


class TestSchurCaches:
    def test_one_pinching_per_context_and_k(self):
        channel = schur_pinching(QUTRIT, 3)
        assert schur_pinching(QUTRIT, 3) is channel
        assert schur_pinching(QUTRIT, 3, build_schur_basis(3, 3)) is channel
        assert schur_pinching(ThermalContext(levels=(0, 1, 2), beta=2.5), 3) is channel
        assert schur_pinching(ThermalContext(levels=(0, 1, 3), beta=1.0), 3) is not channel
        fam = channel.family
        for arr in (fam.unitary, fam.groups, *fam.projectors, *(a for sector in fam.sectors for a in sector)):
            assert not arr.flags.writeable
        assert "projectors" not in vars(fam)  # the dense projectors are not kept

    def test_one_letter_table_per_context_and_k(self):
        rho = DensityMatrix(_random_state(np.random.default_rng(4), 3))
        _, energies = schur_pinched_distribution(QUTRIT, 3, rho)
        assert schur_pinched_distribution(QUTRIT, 3, rho, build_schur_basis(3, 3))[1] is energies
        assert schur_pinched_distribution(QUTRIT, 3, PLUS_QUTRIT)[1] is energies
        hot = ThermalContext(levels=(0, 1, 2), beta=0.1)
        assert schur_pinched_distribution(hot, 3, rho)[1] is energies
        assert pinching._weyl_letters(build_schur_basis(3, 3)) is pinching._weyl_letters(build_schur_basis(3, 3))

    def test_tables_are_keyed_by_levels_not_beta(self):
        basis = build_schur_basis(3, 3)
        weyl, mult = pinching._weyl_letters(basis)
        assert not weyl.flags.writeable and not mult.flags.writeable
        tables = [(schur_pinching(ThermalContext(levels=(0, 1, 2), beta=beta), 3, basis),
                   schur_pinched_letters(ThermalContext(levels=(0, 1, 2), beta=beta), 3, PLUS_QUTRIT)[1],
                   schur_pinched_distribution(ThermalContext(levels=(0, 1, 2), beta=beta), 3, PLUS_QUTRIT)[1])
                  for beta in (0.0, 0.1, 1.0, 7.0)]
        assert all(a is b for row in tables[1:] for a, b in zip(row, tables[0]))
        other = (schur_pinching(ThermalContext(levels=(0, 1, 3), beta=1.0), 3, basis),
                 schur_pinched_letters(ThermalContext(levels=(0, 1, 3), beta=1.0), 3, PLUS_QUTRIT)[1])
        assert other[0] is not tables[0][0] and other[1] != tables[0][1]

    def test_equal_but_distinct_basis_gives_the_same_values(self):
        fresh = schur._schur_basis.__wrapped__(4, 2)
        assert fresh is not build_schur_basis(4, 2)
        rho = DensityMatrix(_random_state(np.random.default_rng(5), 2))
        probs, energies = schur_pinched_distribution(QUBIT, 4, rho)
        fresh_probs, fresh_energies = schur_pinched_distribution(QUBIT, 4, rho, fresh)
        assert fresh_energies is not energies and fresh_energies == energies
        assert np.array_equal(fresh_probs, probs)
        cached, own = schur_pinching(QUBIT, 4), schur_pinching(QUBIT, 4, fresh)
        assert own is not cached
        assert own.family.labels == cached.family.labels
        assert np.array_equal(own.family.groups, cached.family.groups)
        rk = tensor_power(rho, 4).entries
        assert np.array_equal(apply(own, rk), apply(cached, rk))

    def test_kept_values_stay_out_of_the_basis_pickle(self):
        """Outputs that carry a basis pickle the same before and after its
        letters and pinchings are computed and kept."""
        basis = schur._schur_basis.__wrapped__(3, 2)
        before = pickle.dumps(basis)
        schur_pinched_distribution(QUBIT, 3, PLUS, basis)
        apply(schur_pinching(QUBIT, 3, basis), np.eye(8) / 8)
        assert set(vars(basis)) == {"n", "d", "blocks", "change_of_basis"}
        assert pickle.dumps(basis) == before
        assert np.array_equal(pinching._weyl_letters(pickle.loads(before))[0], pinching._weyl_letters(basis)[0])

    def test_mismatched_basis_rejected(self):
        basis = build_schur_basis(3, 2)
        with pytest.raises(DimensionMismatchError):
            schur_pinching(QUBIT, 4, basis)
        with pytest.raises(DimensionMismatchError):
            schur_pinched_distribution(QUBIT, 4, PLUS, basis)


QUTRIT = ThermalContext(levels=(0, 1, 2), beta=1.0)
PLUS_QUTRIT = DensityMatrix.pure(np.ones(3))


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

    def test_real_basis_on_complex_state_matches_complex_products(self):
        channel = schur_pinching(QUTRIT, 3)
        rho = _random_state(np.random.default_rng(12), 27)
        u = channel.family.unitary.astype(complex)
        mask = channel.family.groups[:, None] == channel.family.groups[None, :]
        want = u @ ((u.conj().T @ rho @ u) * mask) @ u.conj().T
        assert np.max(np.abs(apply(channel, rho) - want)) <= 1e-13
        assert isinstance(apply(channel, DensityMatrix(rho)), DensityMatrix)

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

    def test_complex_unitary_rejected(self):
        with pytest.raises(ValueError):
            BasisFamily(unitary=np.diag([1.0, 1j]), groups=[0, 1])
        fam = BasisFamily(unitary=np.eye(2, dtype=complex), groups=[0, 1])
        assert not np.iscomplexobj(fam.unitary)

    def test_callers_groups_stay_writeable(self):
        groups = np.array([0, 0, 1], dtype=np.intp)
        fam = BasisFamily(unitary=np.eye(3), groups=groups)
        assert groups.flags.writeable and not fam.groups.flags.writeable


SPECTRUM_CASES = ([("schur", 2, k) for k in range(1, 8)] + [("schur", 3, k) for k in range(1, 6)]
                  + [("energy", 2, k) for k in range(1, 8)] + [("energy", 3, k) for k in range(1, 5)])


class TestBlockSpectrum:
    @settings(max_examples=80)
    @given(case=st.sampled_from(SPECTRUM_CASES), seed=st.integers(0, 2 ** 32 - 1),
           rank=st.sampled_from((1, 2, None)))
    def test_matches_the_eigensolver_on_the_output(self, case, seed, rank):
        """The spectrum apply takes from the diagonal blocks of U^T rho U is that
        of the pinched d^k x d^k output.  The states are random on the d^k
        space, not product states, so the blocks are not diagonal."""
        kind, d, k = case
        channel = (schur_pinching if kind == "schur" else energy_pinching)(QUBIT if d == 2 else QUTRIT, k)
        g = np.random.default_rng(seed).normal(size=(d ** k, rank or d ** k, 2)) @ [1.0, 1j]
        rho = DensityMatrix(g @ g.conj().T / np.vdot(g, g).real)
        out = apply(channel, rho)
        assert np.max(np.abs(out.spectrum - np.linalg.eigvalsh(out.entries))) <= 1e-12
        assert np.all(np.diff(out.spectrum) >= 0) and not out.spectrum.flags.writeable
        raw = apply(channel, rho.entries)
        assert isinstance(raw, np.ndarray) and np.array_equal(raw, out.entries)

    def test_psd_check_runs_on_the_block_spectrum(self):
        """A Hermitian, trace-1 input whose pinched blocks have a negative
        eigenvalue raises, although the spectrum it carries is valid."""
        bad = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        bad[1, 2] = bad[2, 1] = 0.5  # the energy-1 block [[0, .5], [.5, 0]]
        rho = DensityMatrix(bad, spectrum=np.array([0.0, 0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="PSD"):
            apply(energy_pinching(QUBIT, 2), rho)

    def test_sectors_hold_every_row_and_column_once(self):
        """The sectors partition the rows and the columns into square blocks
        of U, each projector's columns in one sector, and U is zero off them."""
        fam = schur_pinching(QUTRIT, 3).family
        rows = np.concatenate([r for r, _ in fam.sectors])
        cols = np.concatenate([c for _, c in fam.sectors])
        assert sorted(rows.tolist()) == sorted(cols.tolist()) == list(range(fam.dim))
        assert all(len(r) == len(c) for r, c in fam.sectors)
        sector_of = np.empty(fam.dim, dtype=int)
        for s, (r, c) in enumerate(fam.sectors):
            sector_of[c] = s
            assert np.count_nonzero(fam.unitary[np.ix_(r, c)]) == np.count_nonzero(fam.unitary[:, c])
        assert all(len(set(sector_of[m])) == 1 for m in fam.members)


def _dense_pinching(fam, r):
    """The dense oracle U((U^T rho U) o mask)U^T, the mask built from the groups,
    in real products on Re rho and Im rho."""
    u = fam.unitary
    mask = fam.groups[:, None] == fam.groups[None, :]
    return u @ ((u.T @ r.real @ u) * mask) @ u.T + 1j * (u @ ((u.T @ r.imag @ u) * mask) @ u.T)


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _dense_family():
    """A dense orthogonal U: one sector."""
    rng = np.random.default_rng(21)
    return BasisFamily(unitary=_random_orthogonal(rng, 12), groups=rng.permutation(np.arange(12) % 5))


def _permuted_block_family():
    """Orthogonal blocks of sizes 3, 1, 4, 2 with rows and columns permuted, so
    the sectors are not index ranges; the size-4 block holds two projectors."""
    rng = np.random.default_rng(22)
    u = np.zeros((10, 10))
    for lo, hi in ((0, 3), (3, 4), (4, 8), (8, 10)):
        u[lo:hi, lo:hi] = _random_orthogonal(rng, hi - lo)
    rows, cols = rng.permutation(10), rng.permutation(10)
    groups = np.array([0, 0, 0, 1, 2, 2, 3, 3, 4, 4])[cols]
    return BasisFamily(unitary=u[np.ix_(rows, cols)], groups=groups), [
        (np.sort(np.flatnonzero(np.isin(rows, range(lo, hi)))), np.sort(np.flatnonzero(np.isin(cols, range(lo, hi)))))
        for lo, hi in ((0, 3), (3, 4), (4, 8), (8, 10))]


SECTOR_CONTEXTS = ([(ThermalContext((0, 1), beta=1.0), k) for k in range(1, 7)]
                   + [(ThermalContext(levels, beta=1.0), k) for levels in ((0, 1, 2), (0, 1, 3)) for k in range(1, 5)])
SECTOR_FAMILIES = ([schur_pinching(ctx, k).family for ctx, k in SECTOR_CONTEXTS]
                   + [energy_pinching(ctx, k).family for ctx, k in SECTOR_CONTEXTS]
                   + [_dense_family(), _permuted_block_family()[0]])


class TestSectorPath:
    """apply forms the pinching sector by sector; it agrees with the dense products."""

    @settings(max_examples=80)
    @given(index=st.integers(0, len(SECTOR_FAMILIES) - 1), seed=st.integers(0, 2 ** 32 - 1),
           state=st.booleans())
    def test_matches_the_dense_oracle(self, index, seed, state):
        fam = SECTOR_FAMILIES[index]
        g = np.random.default_rng(seed).normal(size=(fam.dim, fam.dim, 2)) @ [1.0, 1j]
        rho = g @ g.conj().T if state else g + g.conj().T
        rho = rho / np.linalg.norm(rho)
        if state:
            rho = DensityMatrix(rho / rho.trace().real)
        want = _dense_pinching(fam, _entries(rho))
        out = apply(PinchingChannel(fam), rho)
        assert np.max(np.abs(_entries(out) - want)) <= 1e-14
        if state:
            assert np.max(np.abs(out.spectrum - np.linalg.eigvalsh(want))) <= 1e-14
        if np.array_equal(fam.unitary, np.eye(fam.dim)):  # energy pinching
            assert _entries(out).tobytes() == want.tobytes()

    @pytest.mark.parametrize("d, k", [(2, 1), (2, 5), (3, 3), (3, 4)])
    def test_energy_pinching_bytes_equal_the_mask_product(self, d, k):
        """U = I: the output is the real and imaginary mask products, byte for
        byte, on random and on real states (signed zeros included)."""
        ctx = ThermalContext(tuple(range(d)), beta=1.0)
        channel = energy_pinching(ctx, k)
        rng = np.random.default_rng(d * 10 + k)
        real = rng.normal(size=(d, d))
        for rho in (_random_state(rng, d ** k), tensor_power(DensityMatrix(real @ real.T / np.trace(real @ real.T)), k).entries):
            assert apply(channel, rho).tobytes() == _dense_pinching(channel.family, rho).tobytes()

    @pytest.mark.parametrize("ctx, k", SECTOR_CONTEXTS[1:], ids=[f"{c.levels}-k{k}" for c, k in SECTOR_CONTEXTS[1:]])
    def test_schur_sectors_are_the_energy_classes(self, ctx, k):
        """Each sector's rows are all the strings of one total energy, its
        columns all the Schur columns of that energy."""
        fam = schur_pinching(ctx, k).family
        energies = np.array(product_energies(ctx.levels, k), dtype=object)
        classes = {e: np.flatnonzero(energies == e).tolist() for e in set(energies)}
        column_energy = [fam.labels[j][1] for j in fam.groups]
        assert len(fam.sectors) == len(classes)
        for rows, cols in fam.sectors:
            (e,) = set(energies[rows])
            assert rows.tolist() == classes[e]
            assert {column_energy[c] for c in cols} == {e} and len(cols) == len(rows)

    def test_permuted_blocks_are_found(self):
        fam, want = _permuted_block_family()
        assert sorted((r.tolist(), c.tolist()) for r, c in fam.sectors) == sorted((r.tolist(), c.tolist()) for r, c in want)
        assert len(_dense_family().sectors) == 1

    @pytest.mark.parametrize("d, k", [(2, 4), (2, 6), (3, 3)])
    def test_padded_slots_never_reach_the_output(self, d, k):
        """The smaller sectors ride in a bucket padded to its largest size; the
        output off the sectors' row blocks stays exactly zero, and on them
        matches the dense oracle, with the last entry of rho (where padded
        slots read) set large."""
        ctx = ThermalContext(tuple(range(d)), beta=1.0)
        fam = schur_pinching(ctx, k).family
        assert any(np.any(take == 2 * fam.dim ** 2) for take, _, _ in fam._plan[0])  # some bucket pads
        rho = _random_state(np.random.default_rng(k), fam.dim)
        rho[-1, -1] += 1e3
        out = apply(PinchingChannel(fam), rho)
        inside = np.zeros((fam.dim, fam.dim), dtype=bool)
        for rows, _ in fam.sectors:
            inside[np.ix_(rows, rows)] = True
        assert np.all(out[~inside] == 0)
        assert np.max(np.abs(out - _dense_pinching(fam, rho))) <= 1e-11


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
