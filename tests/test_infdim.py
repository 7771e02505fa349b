"""Tests for truncated infinite-dimensional systems."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from thermoflux import infdim
from thermoflux.infdim import (
    CandidateSet,
    CutoffSchedule,
    InfiniteContext,
    NormalizationError,
    TailState,
    distinguishing_dimension,
    log_success_probability,
    renormalized_free_energy,
    renormalized_free_energy_limit,
    schedule_success_curve,
    semiuniversal_protocol,
)

LADDER = InfiniteContext(beta=1.0)


def geometric_state(beta_prime, terms=400):
    x = math.exp(-beta_prime)
    return TailState(coefficients=tuple((1 - x) * x ** (i - 1) for i in range(1, terms)))


class TestTailState:
    def test_requires_exactly_one_form(self):
        with pytest.raises(ValueError):
            TailState()
        with pytest.raises(ValueError):
            TailState(epsilon=2.0, coefficients=(1.0,))

    def test_unnormalized_coefficients_rejected(self):
        with pytest.raises(NormalizationError):
            TailState(coefficients=(0.5, 0.4))

    def test_power_law_head_mass(self):
        """Partial sums of i^{-4}/zeta(4)."""
        rho = TailState(epsilon=2.0)
        assert rho.head_mass(1) == pytest.approx(1.0 / 1.0823232337, rel=1e-6)
        assert rho.head_mass(10) == pytest.approx(0.999735, abs=1e-5)

    def test_certified_bound_is_a_lower_bound(self):
        rho = TailState(epsilon=2.0)
        for d in (5, 10, 100, 1000):
            assert rho.certified_head_bound(d) <= rho.head_mass(d)
            assert rho.certified_head_bound(d) > 0.9

    def test_certified_bound_reference_value(self):
        rho = TailState(epsilon=2.0)
        assert rho.certified_head_bound(10) == pytest.approx(0.99969, abs=1e-5)
        assert rho.certified_head_bound(10) ** 100 == pytest.approx(0.9697, abs=1e-4)

    def test_coherent_block_trace_must_match(self):
        with pytest.raises(ValueError):
            TailState(coefficients=(0.5, 0.5), coherent_block=0.4 * np.eye(2))


class TestTruncation:
    def test_finite_support_full_mass(self):
        rho = TailState(coefficients=(0.7, 0.3))
        assert rho.head_mass(5) == pytest.approx(1.0)

    def test_d1_on_mixed_state(self):
        rho = TailState(coefficients=(0.7, 0.3))
        assert rho.head_mass(1) == pytest.approx(0.7)

    def test_log_domain_matches_direct_power(self):
        rho = TailState(epsilon=2.0)
        direct = rho.head_mass(10) ** 7
        assert math.exp(log_success_probability(rho, 10, 7)) == pytest.approx(direct)


class TestCutoffSchedule:
    def test_default_rule(self):
        sched = CutoffSchedule(epsilon=2.0)
        assert sched(10 ** 6) == 1000
        assert sched(100) == 10

    def test_success_curve_approaches_one(self):
        rho = TailState(epsilon=2.0)
        sched = CutoffSchedule(epsilon=2.0)
        rows = schedule_success_curve(rho, sched, [10 ** k for k in range(1, 7)])
        success = [r[2] for r in rows]
        assert success[-1] >= 0.999
        assert all(success[i + 1] >= success[i] for i in range(2, 5))

    def test_constant_schedule_decays_geometrically(self):
        rho = TailState(epsilon=2.0)
        success = [math.exp(log_success_probability(rho, 3, n)) for n in (10, 100, 1000, 10000)]
        assert success[-1] < 1e-6
        assert success[1] == pytest.approx(rho.head_mass(3) ** 100)

    def test_finite_support_state_constant_one(self):
        rho = TailState(coefficients=(0.6, 0.4))
        rows = schedule_success_curve(rho, CutoffSchedule(epsilon=2.0), [100, 10 ** 6])
        assert all(r[2] == pytest.approx(1.0) for r in rows)


class TestRenormalizedFreeEnergy:
    def test_truncated_thermal_is_zero(self):
        tau_like = geometric_state(1.0)
        for d in (5, 50, 200):
            assert renormalized_free_energy(tau_like, LADDER, d) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_converges_to_closed_form(self):
        """Two geometric series give a closed-form limit."""
        geo = geometric_state(0.5)
        x, y = math.exp(-0.5), math.exp(-1.0)
        closed = math.log((1 - x) / (1 - y)) + (x / (1 - x)) * (math.log(x) - math.log(y))
        assert abs(renormalized_free_energy(geo, LADDER, 200) - closed) <= 1e-3
        assert renormalized_free_energy_limit(geo, LADDER) == pytest.approx(closed, abs=1e-9)

    def test_dual_path_identity_holds(self):
        """The direct normalized relative entropy must match the subnormalized
        decomposition at every truncation (asserted internally at 1e-10)."""
        geo = geometric_state(0.5)
        for d in (10, 50, 200):
            renormalized_free_energy(geo, LADDER, d)  # raises on disagreement


class TestDistinguishingDimension:
    def test_ground_versus_thermal_single_copy(self):
        ground = TailState(coefficients=(1.0,))
        assert distinguishing_dimension(CandidateSet(states=(ground, geometric_state(1.0)))) == 1

    def test_coherent_pair_flagged_equivalent(self):
        """States differing only by the sign of an off-diagonal coherence have
        identical pinched statistics at every copy count, so they need not
        separate."""
        blk_plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
        blk_minus = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        plus = TailState(coefficients=(0.5, 0.5), coherent_block=blk_plus)
        minus = TailState(coefficients=(0.5, 0.5), coherent_block=blk_minus)
        assert distinguishing_dimension(CandidateSet(states=(plus, minus))) == 1
        assert distinguishing_dimension(CandidateSet(states=(plus, minus, EPS[1]))) == 1

    def test_three_diagonal_states_separate_at_one(self):
        s = CandidateSet(states=(
            TailState(coefficients=(1.0,)),
            TailState(coefficients=(0.5, 0.5)),
            TailState(coefficients=(0.2, 0.3, 0.5)),
        ))
        assert distinguishing_dimension(s) == 1

    def test_pair_that_never_separates_is_inconclusive(self):
        near = CandidateSet(states=(
            TailState(coefficients=(0.5, 0.5)), TailState(coefficients=(0.5001, 0.4999)),
        ))
        assert distinguishing_dimension(near) is None
        with pytest.raises(ValueError, match="not distinguishable"):
            semiuniversal_protocol(near, 0, LADDER, 10_000, seed=1)


def _dense_pinched_power(rho, d, n):
    """rho_d^{otimes n} built densely with np.kron and pinched onto the type
    subspaces one type at a time (the reference for the per-type blocks)."""
    m = rho.matrix(d)
    full = m
    for _ in range(n - 1):
        full = np.kron(full, m)
    types = [tuple(sorted(s)) for s in itertools.product(range(d), repeat=n)]
    out = np.zeros_like(full)
    for t in set(types):
        idx = [i for i, ti in enumerate(types) if ti == t]
        out[np.ix_(idx, idx)] = full[np.ix_(idx, idx)]
    return out


def _dense_l1(a, b):
    return float(np.abs(np.linalg.eigvalsh(a - b)).sum())


EPS = [TailState(epsilon=e) for e in (1.0, 2.0, 3.0)]
GEO_WARM, GEO_COLD = geometric_state(0.5), geometric_state(2.0)
COHERENT = TailState(
    coefficients=(0.4, 0.3, 0.2, 0.1),
    coherent_block=[[0.4, 0.05 + 0.02j, 0.01], [0.05 - 0.02j, 0.3, -0.03j], [0.01, 0.03j, 0.2]],
)


class TestTypeBlocks:
    """The per-type blocks against the dense np.kron power and its type pinch."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_diagonal_spectra_and_distances_equal_the_dense_route(self, d):
        states = EPS + [GEO_WARM, GEO_COLD]
        dense = [_dense_pinched_power(st, d, d) for st in states]
        blocks = [infdim._type_blocks(st, d, d) for st in states]
        for mat, blk in zip(dense, blocks):
            assert np.array_equal(infdim._spectrum(blk), np.linalg.eigvalsh(mat))
        for a, b in itertools.combinations(range(len(states)), 2):
            assert infdim._l1_distance(blocks[a], blocks[b]) == _dense_l1(dense[a], dense[b])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_coherent_block_agrees_with_the_dense_route(self, d):
        dense, blocks = _dense_pinched_power(COHERENT, d, d), infdim._type_blocks(COHERENT, d, d)
        assert np.allclose(infdim._spectrum(blocks), np.linalg.eigvalsh(dense), rtol=0, atol=1e-12)
        other = EPS[1]
        got = infdim._l1_distance(blocks, infdim._type_blocks(other, d, d))
        assert got == pytest.approx(_dense_l1(dense, _dense_pinched_power(other, d, d)), rel=0, abs=1e-12)

    @pytest.mark.parametrize("pair", [(EPS[0], EPS[1]), (EPS[1], GEO_WARM), (EPS[0], GEO_WARM)])
    def test_distinguishing_report_equals_the_dense_route(self, pair, monkeypatch):
        S = CandidateSet(states=pair)
        d_tilde = distinguishing_dimension(S)
        monkeypatch.setattr(infdim, "_type_blocks", _dense_pinched_power)
        monkeypatch.setattr(infdim, "_l1_distance", _dense_l1)
        assert d_tilde is not None
        assert d_tilde == distinguishing_dimension(S)

    def test_singleton_builds_no_matrices(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a matrix was built for a one-candidate set")

        monkeypatch.setattr(infdim, "_type_blocks", forbidden)
        assert distinguishing_dimension(CandidateSet(states=(EPS[2],))) == 1


class TestSemiuniversalProtocol:
    def test_singleton_skips_identification(self):
        ground = TailState(coefficients=(1.0,))
        out = semiuniversal_protocol(CandidateSet(states=(ground,)), 0, LADDER, 500, seed=1)
        assert out.copies_consumed["identification"] == 0
        assert out.rate_nats > 0

    def test_ground_state_run(self):
        ground = TailState(coefficients=(1.0,))
        tau_like = geometric_state(1.0)
        cands = CandidateSet(states=(ground, tau_like))
        out = semiuniversal_protocol(cands, 0, LADDER, 1000, seed=5)
        assert not out.details["misidentified"]
        assert 0.0 < out.rate_nats <= out.target_rate + 1e-8
        assert out.fidelity > 0.99

    def test_thermal_truth_extracts_nothing(self):
        ground = TailState(coefficients=(1.0,))
        tau_like = geometric_state(1.0)
        cands = CandidateSet(states=(ground, tau_like))
        out = semiuniversal_protocol(cands, 1, LADDER, 1000, seed=5)
        assert out.extracted_work == 0.0
        assert out.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_misidentified_overdraw_is_reported_not_raised(self):
        """Identification picks the colder candidate, whose shift overdraws the
        true state: an estimation failure, seen as low fidelity and negative
        converse slack, not a converse violation."""
        warm = TailState(coefficients=tuple(0.7 * 0.3 ** (i - 1) for i in range(1, 400)))
        cands = CandidateSet(states=(TailState(epsilon=2.0), warm))
        out = semiuniversal_protocol(cands, 1, LADDER, 150, seed=15, id_samples=15)
        assert out.details["misidentified"]
        assert out.rate_nats > out.target_rate
        assert out.fidelity < 0.05
        assert out.details["converse_slack"] < 0

    def test_budget_cap_enforced(self):
        ground = TailState(coefficients=(1.0,))
        tau_like = geometric_state(1.0)
        cands = CandidateSet(states=(ground, tau_like))
        with pytest.raises(ValueError):
            semiuniversal_protocol(cands, 0, LADDER, 50, seed=1)


class TestInfiniteContext:
    def test_ladder_partition_function_closed_form(self):
        assert LADDER.partition_function() == pytest.approx(
            1.0 / (1.0 - math.exp(-1.0)), abs=1e-12
        )

    @pytest.mark.parametrize("delta_e", [1.0, 0.5, 0.1, 1 / 3, 2.75])
    @pytest.mark.parametrize("d", [1, 2, 17, 1000, 10_000])
    def test_vectorised_ladder_equals_per_level_energies(self, delta_e, d):
        """E_i = (i - 1) delta_e, bit for bit, for i = 1..d."""
        ctx = InfiniteContext(beta=1.0, delta_e=delta_e)
        assert np.array_equal(ctx.energies(d), np.array([(i - 1) * delta_e for i in range(1, d + 1)]))

    @pytest.mark.parametrize("delta_e, d, levels", [
        (1 / 3, 6, ("0", "1/3", "2/3", "1", "4/3", "5/3")),
        (0.1, 5, ("0", "1/10", "1/5", "3/10", "2/5")),
    ])
    def test_truncated_levels_are_pinned(self, delta_e, d, levels):
        """The ladder's float energies rounded to denominators <= 1e9."""
        ctx = InfiniteContext(beta=1.0, delta_e=delta_e).truncated_context(d)
        assert ctx.levels == tuple(Fraction(x) for x in levels)


class TestCachedLayers:
    @pytest.mark.parametrize("func, args", [
        (distinguishing_dimension, (CandidateSet(states=(EPS[0], GEO_WARM)),)),
        (renormalized_free_energy_limit, (EPS[0], LADDER)),
        (renormalized_free_energy_limit, (GEO_COLD, LADDER)),
    ], ids=["d_tilde eps1|geo0.5", "limit eps1", "limit geo2"])
    def test_cache_hit_equals_a_fresh_computation(self, func, args):
        """Both are cached by their frozen arguments: an equal, separately built
        argument hits the cache and returns bit for bit the uncached value."""
        func(*args)
        hits = func.cache_info().hits
        cached = func(*[dataclasses.replace(a) for a in args])
        assert func.cache_info().hits == hits + 1
        assert repr(cached) == repr(func.__wrapped__(*args))
