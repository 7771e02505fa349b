"""Tests for states, thermal contexts, and entropy functionals."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoflux.core import (
    DensityMatrix,
    DimensionCapError,
    SupportViolationError,
    ThermalContext,
    _kron_power,
    dim_cap,
    relative_entropy,
    string_energies,
    tensor_power,
    thermal_state,
    trace_distance,
)

from oracles import product_energies

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

    def test_diagonal_with_small_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(np.diag([0.5 + 1e-6, 0.5, -1e-6]))

    def test_diagonal_with_imaginary_part_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.diag([0.5 + 1e-6j, 0.5]))

    def test_off_diagonal_state_with_nonnegative_diagonal_still_decomposed(self):
        """The diagonal fast path must not take a matrix with off-diagonal
        entries: this one has diagonal (0.5, 0.5) and eigenvalues 1.1, -0.1."""
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(np.array([[0.5, 0.6], [0.6, 0.5]]))

    @pytest.mark.parametrize("entries", [
        np.diag([np.nan, 1.0]),
        np.array([[0.5, np.inf], [np.inf, 0.5]]),
        np.array([[0.5, 0.1], [0.1, -np.inf]]),
    ], ids=["nan-diagonal", "inf-off-diagonal", "inf-diagonal"])
    def test_non_finite_entry_rejected(self, entries):
        with pytest.raises(ValueError, match="NaN or infinite"):
            DensityMatrix(entries)

    @pytest.mark.parametrize("entries", [
        np.diag([0.1, 0.6, 0.0, 0.3]),
        np.array([[0.7, 0.2j], [-0.2j, 0.3]]),
    ], ids=["diagonal", "dense"])
    def test_spectrum_is_the_ascending_eigenvalues(self, entries):
        rho = DensityMatrix(entries)
        assert np.allclose(rho.spectrum, np.linalg.eigvalsh(entries), atol=1e-15)
        assert not rho.spectrum.flags.writeable


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


class TestStringEnergies:
    def test_exact_levels_two_copies(self):
        assert tuple(string_energies(QUBIT.levels, 2)) == (
            Fraction(0), Fraction(1), Fraction(1), Fraction(2)
        )

    def test_energy_groups_partition_all_indices(self):
        """The basis indices grouped by their exact level: every index once,
        C(3, e) of them at total energy e."""
        groups: dict = {}
        for idx, e in enumerate(string_energies(QUBIT.levels, 3)):
            groups.setdefault(e, []).append(idx)
        assert sorted(i for g in groups.values() for i in g) == list(range(8))
        assert {e: len(g) for e, g in groups.items()} == {Fraction(e): math.comb(3, e) for e in range(4)}

    @pytest.mark.parametrize("levels, n", [((0, 1), n) for n in range(1, 7)]
                             + [(levels, n) for levels in ((0, 1, 3), (Fraction(1, 3), Fraction(1, 2), 2))
                                for n in range(1, 5)])
    def test_equals_the_product_oracle(self, levels, n):
        """Value, order and type: every energy a Fraction equal to the
        digit-by-digit sum over itertools.product."""
        levels = ThermalContext(levels, beta=1.0).levels
        got = string_energies(levels, n)
        assert got == product_energies(levels, n)
        assert all(type(e) is Fraction for e in got)

    def test_zero_copies_and_oversize_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="copies must be >= 1"):
            string_energies(QUBIT.levels, 0)
        monkeypatch.setenv("THERMOFLUX_DIM_CAP", "8")
        assert len(string_energies(QUBIT.levels, 3)) == 8
        with pytest.raises(DimensionCapError):
            string_energies(QUBIT.levels, 4)


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


def _random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestDiagonalSigma:
    """A diagonal sigma skips eigh; rotating both states by one unitary gives
    the same D through the dense route, which decomposes the rotated sigma."""

    @settings(max_examples=40)
    @given(d=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1), pure=st.booleans())
    def test_matches_the_eigh_route(self, d, seed, pure):
        rng = np.random.default_rng(seed)
        if pure:
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            r = np.outer(v, v.conj()) / np.vdot(v, v).real
        else:
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            r = g @ g.conj().T / np.trace(g @ g.conj().T).real
        s = np.diag(rng.dirichlet(np.ones(d)))
        u = _random_unitary(rng, d)
        fast = relative_entropy(DensityMatrix(r), DensityMatrix(s))
        dense = relative_entropy(u @ r @ u.conj().T, u @ s @ u.conj().T)
        assert fast == pytest.approx(dense, abs=1e-12)
        assert relative_entropy(r, s) == pytest.approx(fast, abs=1e-12)

    @pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
    def test_kernel_mass_raises_on_both_routes(self, rotate):
        u = _random_unitary(np.random.default_rng(2), 3) if rotate else np.eye(3)
        s = u @ np.diag([0.5, 0.5, 0.0]) @ u.conj().T
        # the rotated route reads the kernel mass to within ~1e-16
        edge = 1.001e-9 if rotate else 1e-9
        for mass, raises in ((edge, True), (1e-6, True), (1e-11, False)):
            r = u @ np.diag([0.5, 0.5 - mass, mass]) @ u.conj().T
            if raises:
                with pytest.raises(SupportViolationError):
                    relative_entropy(r, s)
            else:
                assert math.isfinite(relative_entropy(r, s))


class TestTensorAlgebra:
    def test_tensor_power_dimensions(self):
        tau = thermal_state(QUBIT)
        assert tensor_power(tau, 3).entries.shape == (8, 8)

    def test_tensor_power_of_thermal_is_thermal(self):
        tau3 = tensor_power(thermal_state(QUBIT), 3)
        energies = product_energies(QUBIT.levels, 3)
        z = sum(math.exp(-float(e)) for e in energies)
        diag = np.array([math.exp(-float(e)) / z for e in energies])
        assert np.allclose(tau3.diagonal(), diag, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from((2, 3)), k=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
           rank=st.integers(1, 3))
    def test_tensor_power_spectrum_is_the_kronecker_power(self, d, k, seed, rank):
        """The spectrum tensor_power takes from rho.spectrum matches eigvalsh of
        the d^k x d^k power; rank-deficient states put zeros among the products."""
        g = np.random.default_rng(seed).normal(size=(d, min(rank, d), 2)) @ [1.0, 1j]
        rho = DensityMatrix(g @ g.conj().T / np.vdot(g, g).real)
        power = tensor_power(rho, k)
        assert np.max(np.abs(power.spectrum - np.linalg.eigvalsh(power.entries))) <= 1e-12
        assert np.all(np.diff(power.spectrum) >= 0) and not power.spectrum.flags.writeable

    def test_tensor_power_keeps_the_state_checks(self):
        """A power is still checked: a Hermitian, trace-1 matrix with a negative
        eigenvalue raises on its Kronecker spectrum."""
        bad = np.array([[1.2, 0.0], [0.0, -0.2]])
        with pytest.raises(ValueError, match="PSD"):
            tensor_power(DensityMatrix(np.eye(2) / 2, spectrum=np.linalg.eigvalsh(bad)), 3)

    def test_dim_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("THERMOFLUX_DIM_CAP", "8")
        assert dim_cap() == 8
        tau = thermal_state(QUBIT)
        with pytest.raises(DimensionCapError):
            tensor_power(tau, 4)

    def test_dim_cap_holds_for_a_kept_thermal_state(self, monkeypatch):
        thermal_state(QUBIT, 4)
        monkeypatch.setenv("THERMOFLUX_DIM_CAP", "8")
        with pytest.raises(DimensionCapError):
            thermal_state(QUBIT, 4)

    @settings(max_examples=80)
    @given(d=st.integers(1, 3), n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(("vector", "real", "complex")))
    def test_kron_power_is_bitwise_repeated_np_kron(self, d, n, seed, kind):
        rng = np.random.default_rng(seed)
        a = {"vector": rng.random(d), "real": rng.normal(size=(d, d)),
             "complex": rng.normal(size=(d, d, 2)) @ [1.0, 1j]}[kind]
        want = a
        for _ in range(n - 1):
            want = np.kron(want, a)
        got = _kron_power(a, n)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("copies", (1, 2, 3, 5))
    def test_thermal_state_is_built_once_shared_and_read_only(self, copies):
        """One object per (ctx, copies), equal contexts included, with the entries
        of a diagonal built by repeated np.kron of the Gibbs weights."""
        ctx = ThermalContext(levels=(0, 1, 3), beta=0.7)
        tau = thermal_state(ctx, copies)
        assert thermal_state(ThermalContext(levels=(0, 1, 3), beta=0.7), copies) is tau
        assert not tau.entries.flags.writeable and not tau.spectrum.flags.writeable
        p = pk = ctx.gibbs_probabilities()
        for _ in range(copies - 1):
            pk = np.kron(pk, p)
        assert tau.entries.tobytes() == DensityMatrix.from_diagonal(pk).entries.tobytes()
        assert thermal_state(ctx) is thermal_state(ctx, 1)

    def test_trace_distance_orthogonal_pure_states(self):
        a = DensityMatrix.from_diagonal([1.0, 0.0])
        b = DensityMatrix.from_diagonal([0.0, 1.0])
        assert trace_distance(a, b) == pytest.approx(2.0)

