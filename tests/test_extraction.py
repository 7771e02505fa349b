"""Tests for work-extraction plan synthesis and protocol simulation."""

import dataclasses
import itertools
import math
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from thermoflux import extraction
from thermoflux.core import (
    DensityMatrix,
    ThermalContext,
    relative_entropy,
    thermal_state,
)
from thermoflux.estimation import classical_relative_entropy
from thermoflux.extraction import (
    XI_TAIL,
    BlockPartition,
    ConverseViolationError,
    UniversalParams,
    WorkAlphabet,
    _checkpoint_blocks,
    _mass_core,
    _round_counts,
    _sanov_exponent,
    build_classical_plan,
    choose_shift,
    measure_and_prepare_protocol,
    protocol_description_hash,
    run_classical_plan,
    run_pipeline,
    simulate_plan_stringwise,
    state_aware_protocol,
    tomographic_universal_protocol,
    universal_protocol,
)
from thermoflux.infdim import InfiniteContext, TailState
from thermoflux.pinching import schur_pinched_distribution, schur_pinched_letters
from thermoflux.schur import build_schur_basis
from thermoflux.typeclass import (
    ShiftFunction,
    TransferProbe,
    compositions,
    exact_freq_count,
    feasible_grid,
    feasible_rows,
    log_multinomial_rows,
    log_type_prob_rows,
)

QUBIT = ThermalContext(levels=(0, 1), beta=1.0)
ALPHABET = WorkAlphabet.from_context(QUBIT)
GROUND = np.array([1.0, 0.0])
LN_LIMIT = math.log(1.0 + math.exp(-1.0))


class TestWorkAlphabet:
    def test_thermal_distribution(self):
        t = ALPHABET.thermal
        assert t[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))

    def test_energies_are_exact(self):
        from fractions import Fraction

        assert ALPHABET.energies == (Fraction(0), Fraction(1))


class TestChooseShift:
    def test_thermal_input_yields_zero_shift(self):
        h = choose_shift(ALPHABET.thermal, ALPHABET, 100, margin_nats=0.0, l=1000)
        assert h.shifts == (0, 0)

    def test_margin_exhausting_budget_yields_zero_shift(self):
        h = choose_shift(GROUND, ALPHABET, 100, margin_nats=1.0, l=1000)
        assert h.shifts == (0, 0)

    def test_ground_state_extracts_positive_work(self):
        h = choose_shift(GROUND, ALPHABET, 200, margin_nats=0.0, l=math.ceil(200 ** 1.5))
        w = float(h.work(ALPHABET.energies))
        assert 0.0 < w / 200 <= LN_LIMIT

    def test_budget_respected(self):
        p = np.array([0.95, 0.05])
        n = 150
        h = choose_shift(p, ALPHABET, n, margin_nats=0.0, l=math.ceil(n ** 1.5))
        rate = float(h.work(ALPHABET.energies)) / n
        assert rate <= classical_relative_entropy(p, ALPHABET.thermal) + 1e-12

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            choose_shift(GROUND, ALPHABET, 100, margin_nats=-0.1, l=1000)


def _pinched_alphabet(ctx, k, mat):
    p, energies = schur_pinched_distribution(ctx, k, DensityMatrix(np.array(mat, dtype=complex)),
                                             build_schur_basis(k, ctx.dim))
    return p, WorkAlphabet(energies=energies, beta=ctx.beta)


def test_round_counts_ties_go_to_the_lowest_index():
    """0.1 + 0.2 and 0.3 differ only in the last bit; their remainders at
    total 5 tie, and the lower index takes the one spare count."""
    assert _round_counts(5, [0.3, 0.1 + 0.2, 0.4]) == (2, 1, 2)


class TestPinnedShifts:
    """Exact shifts and outcomes: a change to the shift search, its checkpoint
    gate or the feasibility predicate must keep choosing exactly these."""

    def test_qubit_k4_alphabet(self):
        p, alph = _pinched_alphabet(QUBIT, 4, [[0.8, 0.25], [0.25, 0.2]])
        h = choose_shift(p, alph, 2500, margin_nats=0.01, l=125_000)
        assert h.shifts == (-96, 0, 1, 1, 95, -1) + (0,) * 10

    def test_qutrit_k3_alphabet(self):
        qutrit = ThermalContext(levels=(0, 1, 2), beta=1.0)
        p, alph = _pinched_alphabet(
            qutrit, 3, [[0.6, 0.1, 0.05], [0.1, 0.3, 0.02], [0.05, 0.02, 0.1]]
        )
        h = choose_shift(p, alph, 2000, margin_nats=0.0, l=math.ceil(2000 ** 1.5))
        assert h.shifts == (-11, 1) + (0,) * 7 + (10,) + (0,) * 17

    def test_wide_truncated_ladder(self):
        ladder = InfiniteContext(beta=1.0, delta_e=0.5)
        alph = WorkAlphabet(energies=ladder.truncated_context(20).levels, beta=1.0)
        p = TailState(epsilon=1.0).diagonal(20)
        h = choose_shift(p / p.sum(), alph, 150, margin_nats=0.0, l=math.ceil(150 ** 1.5))
        assert h.shifts == (-14, 0, 0, 0, 0, 0, 4, 8, 2) + (0,) * 11

    @pytest.mark.parametrize("mode, h, xi, rate", [
        ("exact", (-599, -1, 1, 22, 577) + (0,) * 4, 0.0, 0.2375),
        ("sampled", (-52, 1, 0, 0, 51) + (0,) * 4, 0.0, 0.0205),
    ])
    def test_universal_qubit_outcome(self, mode, h, xi, rate):
        params = UniversalParams.from_schedule(10_000, QUBIT)
        out = universal_protocol(DensityMatrix.pure(np.array([1.0, 0.0])), QUBIT, params,
                                 seed=3, mode=mode)
        assert (out.details["h"], out.xi, out.rate_nats) == (h, xi, rate)
        assert out.details["protocol_hash"] == (
            "f1b4f88c240b12451cbf6e84fe5cbb6e81368d40b9488def049449f4e62e21d1"
        )

    def test_universal_sampled_type_stream(self):
        """A mixed pinched distribution, so the type draw consumes the seeded
        stream on every letter (the ground state draws from one letter)."""
        params = UniversalParams.from_schedule(10_000, QUBIT)
        rho = DensityMatrix(np.array([[0.8, 0.25], [0.25, 0.2]]))
        out = universal_protocol(rho, QUBIT, params, seed=3, mode="sampled")
        assert repr(out.details["d_hat"]) == "0.1862655785984911"


def _oracle_checkpoint_blocks(n_eff, p_est, l, t):
    """The typical-shell corner blocks as (f, g) tuple pairs, built one letter
    pair (i, j) at a time."""
    def corners(total, w):
        c0, w = np.array(_round_counts(total, w)), np.asarray(w, dtype=float)
        width = np.ceil(3.0 * np.sqrt(total * w * (1.0 - w))).astype(int)  # multinomial 3-sigma widths
        out = [tuple(c0)]
        for i in range(len(t)):
            for j in range(len(t)):
                move = min(int(width[i]), int(c0[i]))
                if i != j and move > 0:
                    c = c0.copy()
                    c[i] -= move
                    c[j] += move
                    out.append(tuple(c))
        return out

    fc, gc = corners(n_eff, p_est), corners(l, t)
    return [(f, gc[0]) for f in fc] + [(fc[0], g) for g in gc[1:]]


def _center_log_freq(c, c0) -> float:
    """ln|Freq(c)| for a row c of the typical shell of c0: c0's ln|Freq|, plus,
    for a corner, ln c0_i! + ln c0_j! - ln c_i! - ln c_j! over the letter i it
    moves counts from and the letter j it moves them to."""
    lf = gammaln(np.array(c0) + 1.0)
    out = gammaln(sum(c0) + 1.0) - lf.sum()
    if c != c0:
        (i,), (j,) = np.flatnonzero(np.less(c, c0)), np.flatnonzero(np.greater(c, c0))
        out = out + lf[i] + lf[j] - gammaln(c[i] + 1.0) - gammaln(c[j] + 1.0)
    return out


def _oracle_choose_shift(p_est, alphabet, n_eff, margin_nats, l) -> tuple:
    """choose_shift as a full-row search: every probe re-decides every
    checkpoint row with feasible_rows, over amounts capped by budget and n_eff
    only."""
    t, d = alphabet.thermal, alphabet.d
    budget_nats = classical_relative_entropy(p_est, t) - margin_nats
    budget_w = budget_nats * n_eff / alphabet.beta
    if budget_nats <= 1e-12 or budget_w <= 0:
        return (0,) * d
    F, G = (np.array(rows) for rows in zip(*_oracle_checkpoint_blocks(n_eff, p_est, l, t)))
    energies = [float(e) for e in alphabet.energies]
    pairs = sorted(
        ((energies[j] - energies[i], i, j) for i in range(d) for j in range(d)
         if energies[j] > energies[i]),
        key=lambda x: (-x[0], x[1], x[2]),
    )
    h, spent = [0] * d, 0.0
    for gap, i, j in pairs:
        amax = min(int((budget_w - spent) / gap + 1e-12), n_eff)

        def with_amount(a):
            cand = list(h)
            cand[i] -= a
            cand[j] += a
            return cand

        def feasible(a):
            return bool(feasible_rows(F, G, with_amount(a), alphabet.multiplicities).all())

        if amax <= 0:
            continue
        if feasible(amax):
            best = amax
        else:
            lo, hi = 0, amax
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
            best = lo
        if best > 0:
            h = with_amount(best)
            spent += best * gap
    return tuple(h)


@st.composite
def _shift_searches(draw):
    """choose_shift inputs: up to 12 letters on a ladder or at random energies,
    with multiplicities 1 or from {1, 2, 3, 5}, p with zero letters,
    n_eff <= 500, l and margin at random.  One draw in four puts all of p on a
    highest letter: moving all of it down to a lowest letter is then an exact
    tie at the cap min T[:, j] when the multiplicities are 1."""
    d = draw(st.integers(2, 12))
    if draw(st.booleans()):
        energies = [Fraction(i, 2) for i in range(d)]
    else:
        energies = [Fraction(e, 8) for e in draw(st.lists(st.integers(0, 40), min_size=d, max_size=d))]
    if draw(st.integers(0, 3)) == 0:
        weights = [0] * d
        weights[max(range(d), key=lambda i: (energies[i], -i))] = 1
    else:
        weights = draw(st.lists(st.integers(0, 5), min_size=d, max_size=d).filter(any))
    p = np.array(weights, dtype=float) / sum(weights)
    n_eff = draw(st.integers(1, 500))
    l = draw(st.integers(1, max(1, math.ceil(n_eff ** 1.5))))
    margin = draw(st.sampled_from((0.0, 0.0, 0.01, 0.1)))
    mult = draw(st.one_of(st.none(), st.lists(st.sampled_from((1, 2, 3, 5)), min_size=d, max_size=d)))
    beta = draw(st.sampled_from((0.5, 1.0, 2.0)))
    return WorkAlphabet(energies=energies, beta=beta, multiplicities=mult), p, n_eff, l, margin


def _ladder_search(state, d_n, n_eff) -> tuple:
    """choose_shift inputs of a semiuniversal op: the state's head on the first
    d_n levels of the unit ladder, l = ceil(n_eff^1.5), margin 0."""
    head = state.diagonal(d_n)
    ladder = InfiniteContext(beta=1.0, delta_e=1.0)
    return (WorkAlphabet.from_context(ladder.truncated_context(d_n)), head / head.sum(), n_eff,
            math.ceil(n_eff ** 1.5), 0.0)


def _weyl_search(k, n_eff, margin) -> tuple:
    """choose_shift inputs of the universal protocol: the Weyl letters of a
    mixed qubit at k copies, with their multiplicities."""
    rho = DensityMatrix(np.array([[0.8, 0.25], [0.25, 0.2]], dtype=complex))
    p, energies, mult = schur_pinched_letters(QUBIT, k, rho, build_schur_basis(k, 2))
    return WorkAlphabet(energies=energies, beta=1.0, multiplicities=mult), p, n_eff, math.ceil(n_eff ** 1.5), margin


def _pinched_search(k, n_eff, margin) -> tuple:
    """choose_shift inputs on the d^k Schur-pinched letters of a mixed qubit
    at k copies, each of multiplicity 1."""
    p, alphabet = _pinched_alphabet(QUBIT, k, [[0.8, 0.25], [0.25, 0.2]])
    return alphabet, p, n_eff, math.ceil(n_eff ** 1.5), margin


GEOMETRIC_E2 = TailState(coefficients=tuple((1 - math.exp(-2.0)) * math.exp(-2.0) ** (i - 1) for i in range(1, 400)))


class TestShiftSearchOracle:
    """choose_shift caps each transfer at min T[:, j] and probes two columns
    per step; it must pick the same h as the full-row search."""

    def test_checkpoint_rows_match_the_pair_loop(self):
        """The rows against the pair loop, each differing from the center row
        in the two columns it names only, and lhs from the center's ln|Freq|
        plus the two moved entries of each row; then the search's probe on
        them against a direct evaluation at each h of a chain of commits: T,
        ln T!, S and cap bitwise, and lhs_h as lhs + h ln m; and a probe past
        cap[j] raises ValueError."""
        p, alph = _pinched_alphabet(QUBIT, 4, [[0.8, 0.25], [0.25, 0.2]])
        F, G, moved, lhs = _checkpoint_blocks(2500, p, 125_000, alph.thermal)
        rows = _oracle_checkpoint_blocks(2500, p, 125_000, alph.thermal)
        assert F.dtype == G.dtype == np.int64
        assert [tuple(f) for f in F] == [f for f, _ in rows]
        assert [tuple(g) for g in G] == [g for _, g in rows]
        differs = np.zeros(F.shape, dtype=bool)
        differs[moved] = True
        assert np.array_equal(differs, F + G != F[0] + G[0]) and np.bincount(moved[0]).max() == 2
        assert lhs.tolist() == [_center_log_freq(f, rows[0][0]) + _center_log_freq(g, rows[0][1]) for f, g in rows]
        want = log_multinomial_rows(F) + log_multinomial_rows(G)
        assert np.abs(lhs - want).max() <= 1e-12 * np.abs(want).max()
        probe = TransferProbe(F, G, alph.multiplicities, moved, lhs)
        for _, i, j in ((0, 0, 1),) + alph.pairs[:4]:
            probe.commit(probe.moved(i, j, min(int(probe.cap[j]), 7)))
            T = F + G - probe.h
            assert np.array_equal(probe.T, T) and np.array_equal(probe.cap, T.min(axis=0))
            assert np.array_equal(probe.log_fact, gammaln(T + 1.0))
            assert np.array_equal(probe.S, gammaln(T + 1.0).sum(axis=1))
            assert np.array_equal(probe.lhs_h, lhs + probe.h @ np.log(probe.m))
            with pytest.raises(ValueError):
                probe.feasible(i, j, int(probe.cap[j]) + 1)

    @settings(max_examples=80, deadline=None)
    @given(_shift_searches())
    # f = (0, 5), g = (3, 0): moving all 5 down gives the target (8, 0), a tie
    # 1 * 1 = 1 that the two-column rhs puts on the infeasible side in floats
    @example((WorkAlphabet(energies=(0, Fraction(1, 2)), beta=0.5), np.array([0.0, 1.0]), 5, 3, 0.0))
    # the sizes the benchmark runs: the eps = 1 ladder head (l = 1569), the
    # geometric e^-2 head, and the qubit Weyl letters at k = 6
    @example(_ladder_search(TailState(epsilon=1.0), 27, 135))
    @example(_ladder_search(GEOMETRIC_E2, 32, 1000))
    @example(_weyl_search(6, 2500, 0.01))
    # the eps = 3 ladder head (l = 31,623), and the qubit k = 4 Schur-pinched
    # alphabet of d^k = 16 letters, where most probes fail (the witness rejects)
    @example(_ladder_search(TailState(epsilon=3.0), 16, 1000))
    @example(_pinched_search(4, 2500, 0.01))
    def test_matches_full_row_search(self, search):
        alphabet, p, n_eff, l, margin = search
        got = choose_shift(p, alphabet, n_eff, margin_nats=margin, l=l)
        assert got.shifts == _oracle_choose_shift(p, alphabet, n_eff, margin, l)


class TestClassicalPlan:
    def test_zero_shift_zero_infidelity(self):
        h = ShiftFunction((0, 0))
        plan = build_classical_plan(np.array([0.6, 0.4]), ALPHABET, 10, 20, h, mode="exact")
        assert plan.xi == pytest.approx(0.0, abs=1e-12)
        assert float(plan.work) == 0.0

    def test_infidelity_decreases_with_n(self):
        xis = []
        for n in (50, 100, 200):
            l = math.ceil(n ** 1.5)
            h = choose_shift(GROUND, ALPHABET, n, margin_nats=0.0, l=l)
            plan = build_classical_plan(GROUND, ALPHABET, n, l, h, mode="exact")
            assert plan.xi < 0.2
            xis.append(plan.xi)

    def test_overdraw_fails_loudly(self):
        """Demanding more work than the relative-entropy budget must push the
        atypical mass above one half."""
        p = np.array([0.9, 0.1])
        n, l = 30, 50
        h = ShiftFunction((-10, 10))  # rate 1/3 nats >> D(p||t) ~ 0.088
        plan = build_classical_plan(p, ALPHABET, n, l, h, mode="exact")
        assert plan.xi >= 0.5
        with pytest.raises(ConverseViolationError):
            run_classical_plan(plan)

    def test_sampled_mode_requires_seed(self):
        h = ShiftFunction((0, 0))
        with pytest.raises(ValueError):
            build_classical_plan(GROUND, ALPHABET, 10, 20, h, mode="sampled")

    def test_sampled_agrees_with_exact(self):
        n = 100
        l = 1000
        h = choose_shift(GROUND, ALPHABET, n, margin_nats=0.0, l=l)
        exact = build_classical_plan(GROUND, ALPHABET, n, l, h, mode="exact")
        sampled = build_classical_plan(
            GROUND, ALPHABET, n, l, h, mode="sampled", seed=3, samples=400
        )
        assert abs(sampled.xi - exact.xi) <= 3 * sampled.xi_stderr + 0.01

    @pytest.mark.parametrize("p, alphabet, n, l, seed, samples", [
        (np.array([0.6, 0.4]), ALPHABET, 10, 20, 3, 400),
        (np.array([0.9, 0.1]), ALPHABET, 400, 8000, 7, 100),
        (np.array([0.2, 0.5, 0.3]), WorkAlphabet(energies=(0, 1, 2), beta=0.5, multiplicities=(1, 3, 2)),
         60, 465, 11, 250),
    ])
    def test_zero_shift_sampled_plan_equals_the_drawn_one(self, p, alphabet, n, l, seed, samples):
        """An h = 0 plan reports, without drawing, the xi and xi_stderr the
        draws of its seed give."""
        h = ShiftFunction((0,) * alphabet.d)
        plan = build_classical_plan(p, alphabet, n, l, h, mode="sampled", seed=seed, samples=samples)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 977]))
        fs = rng.multinomial(n, p, size=samples)
        gs = rng.multinomial(l, alphabet.thermal, size=samples)
        xi = int((~feasible_rows(fs, gs, h.shifts, alphabet.multiplicities)).sum()) / samples
        stderr = math.sqrt(max(xi * (1 - xi), 1.0 / samples) / samples)
        assert (plan.xi, plan.xi_stderr) == (xi, stderr)

    def test_run_reports_exact_fidelity(self):
        h = ShiftFunction((0, 0))
        plan = build_classical_plan(ALPHABET.thermal, ALPHABET, 10, 20, h, mode="exact")
        out = run_classical_plan(plan)
        assert out.fidelity == pytest.approx(1.0)
        assert out.rate_nats == 0.0


def _count(c) -> int:
    out = math.factorial(sum(c))
    for x in c:
        out //= math.factorial(x)
    return out


def _rows(n, d):
    return [c + (n - sum(c),) for c in itertools.product(range(n + 1), repeat=d - 1) if sum(c) <= n]


def _xi_oracle(p, t, n, l, h) -> float:
    """1 - the summed P_p(f) P_t(g) of every (f, g) pair that big-integer type
    counting calls feasible, one pair at a time."""
    def prob(c, q):
        return _count(c) * math.prod(qi ** ci for qi, ci in zip(q, c))

    success = []
    for f in _rows(n, len(p)):
        for g in _rows(l, len(p)):
            target = tuple(a + b - c for a, b, c in zip(f, g, h))
            if min(target) >= 0 and _count(f) * _count(g) <= _count(target):
                success.append(prob(f, p) * prob(g, t))
    return min(max(1.0 - math.fsum(success), 0.0), 1.0)


@st.composite
def _exact_plans(draw):
    """A source p on d in {2, 3} letters (zero entries allowed), sizes n <= 8 and
    l <= 20, and a random zero-sum shift h, overdrawing ones included."""
    d = draw(st.sampled_from((2, 3)))
    weights = draw(st.lists(st.integers(0, 4), min_size=d, max_size=d).filter(any))
    free = draw(st.lists(st.integers(-8, 8), min_size=d - 1, max_size=d - 1))
    p = tuple(w / sum(weights) for w in weights)
    return p, draw(st.integers(1, 8)), draw(st.integers(0, 20)), tuple(free) + (-sum(free),)


class TestExactXiGrid:
    @settings(max_examples=200)
    @given(_exact_plans())
    # C(6,3) C(14,0) = 20 = C(20,19): f = (3, 3), g = (14, 0) is an exact tie that
    # float log-gamma puts on the infeasible side
    @example(((0.5, 0.5), 6, 14, (-2, 2)))
    def test_agrees_with_bigint_pair_oracle(self, plan_input):
        p, n, l, h = plan_input
        alphabet = WorkAlphabet(energies=range(len(p)), beta=1.0)
        plan = build_classical_plan(np.array(p), alphabet, n, l, ShiftFunction(h), mode="exact")
        assert plan.xi == pytest.approx(_xi_oracle(p, alphabet.thermal, n, l, h), abs=1e-12)

    @pytest.mark.parametrize("levels, n, diag, xi", [
        ((0, 1), 200, [0.9, 0.1], "0.0014418342493293101"),
        ((0, 1), 300, [0.95, 0.05], "0.00312946665530478"),
        ((0, 1, 2), 18, [0.9, 0.05, 0.05], "0.0018097928746449998"),
    ])
    def test_pinned_state_aware_xi(self, levels, n, diag, xi):
        """Exact xi of three state-aware plans, to the last bit."""
        ctx = ThermalContext(levels=levels, beta=1.0)
        out = state_aware_protocol(DensityMatrix.from_diagonal(diag), ctx, n, k=1, plan_mode="exact")
        assert repr(out.xi) == xi

    def test_bath_side_is_kept_per_l_and_letter_weights(self):
        """Plans at one l on alphabets of one Gibbs weight vector share one
        read-only mass core of the bath types."""
        hot = WorkAlphabet(energies=(0, 2), beta=0.5)  # the Gibbs weights of ALPHABET
        assert np.array_equal(hot.thermal, ALPHABET.thermal)
        extraction._thermal_core.cache_clear()
        build_classical_plan(np.array([0.9, 0.1]), ALPHABET, 20, 90, ShiftFunction((-1, 1)), mode="exact")
        build_classical_plan(np.array([0.7, 0.3]), hot, 20, 90, ShiftFunction((-1, 1)), mode="exact")
        build_classical_plan(np.array([0.9, 0.1]), ALPHABET, 20, 91, ShiftFunction((-1, 1)), mode="exact")
        info = extraction._thermal_core.cache_info()
        assert (info.hits, info.misses) == (1, 2)
        for arr in extraction._thermal_core(90, tuple(ALPHABET.thermal)):
            assert not arr.flags.writeable

    def test_system_side_is_kept_per_n_letters_and_support(self):
        """Plans at one (n, d, support) share one read-only set of system
        types with their ln|Freq|, whatever the source on that support and
        the bath size, and give the same xi when it is built anew."""
        h = ShiftFunction((-1, 1))
        extraction._system_types.cache_clear()
        first = build_classical_plan(np.array([0.9, 0.1]), ALPHABET, 20, 90, h, mode="exact")
        build_classical_plan(np.array([0.7, 0.3]), ALPHABET, 20, 91, h, mode="exact")
        build_classical_plan(np.array([1.0, 0.0]), ALPHABET, 20, 90, h, mode="exact")
        build_classical_plan(np.array([0.9, 0.1]), ALPHABET, 21, 90, h, mode="exact")
        again = build_classical_plan(np.array([0.9, 0.1]), ALPHABET, 20, 90, h, mode="exact")
        info = extraction._system_types.cache_info()
        assert (info.hits, info.misses) == (2, 3)
        F, log_freq = extraction._system_types(20, 2, (0, 1))
        assert not F.flags.writeable and not log_freq.flags.writeable
        assert np.array_equal(F, compositions(20, 2))
        assert log_freq.tobytes() == log_multinomial_rows(compositions(20, 2)).tobytes()
        extraction._system_types.cache_clear()
        fresh = build_classical_plan(np.array([0.9, 0.1]), ALPHABET, 20, 90, h, mode="exact")
        assert repr(first.xi) == repr(again.xi) == repr(fresh.xi)

    def test_nine_letter_plan_stays_small(self):
        """9 letters at n = 3, l = 6: 165 x 3003 (f, g) pairs.  A table of
        ln|Freq(s)| over all 8 free target coordinates would hold 10^8 entries
        (800 MB); the kernel's spans only the prefix that fits a block."""
        alphabet = WorkAlphabet(energies=range(9), beta=1.0)
        extraction._thermal_core.cache_clear()
        tracemalloc.start()
        try:
            plan = build_classical_plan(np.full(9, 1 / 9), alphabet, 3, 6, ShiftFunction((1, -1) + (0,) * 7),
                                        mode="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < plan.xi < 1.0
        assert peak < 16 * 2 ** 20


@st.composite
def _mass_core_plans(draw):
    """A full-support source whose rarest letter has p^n < XI_TAIL: a qubit at
    n in {50, 100, 200} or a qutrit at n in {10, 11, 12}, letters in drawn
    order, and a second distribution q the shift is chosen on, so that xi
    ranges over [0, 1]."""
    if draw(st.booleans()):
        n, rare = draw(st.sampled_from((50, 100, 200))), draw(st.floats(0.01, 0.3))
        p = [1.0 - rare, rare]
    else:
        n, rare = draw(st.sampled_from((10, 11, 12))), draw(st.floats(0.001, 0.012))
        mid = draw(st.floats(0.05, 0.6))
        p = [1.0 - rare - mid, mid, rare]
    p = draw(st.permutations(p))
    q = draw(st.lists(st.floats(0.01, 1.0), min_size=len(p), max_size=len(p)))
    return tuple(p), n, tuple(x / sum(q) for x in q)


class TestMassCore:
    @settings(max_examples=30)
    @given(_mass_core_plans())
    def test_dropped_rows_bound_xi(self, plan_input):
        """Each side drops at least one row, of summed mass <= XI_TAIL, and the
        exact xi lies within [xi_full, xi_full + 2 XI_TAIL] up to rounding, with
        xi_full summed with math.fsum over the feasible pairs of the full grid."""
        p, n, q = plan_input
        alphabet = WorkAlphabet(energies=range(len(p)), beta=1.0)
        l = math.ceil(n ** 1.5)
        h = choose_shift(np.array(q), alphabet, n, margin_nats=0.0, l=l)
        F, G = compositions(n, len(p)), compositions(l, len(p))
        log_pf, log_pg = log_type_prob_rows(F, p), log_type_prob_rows(G, alphabet.thermal)
        for log_w in (log_pf, log_pg):
            dropped = np.delete(np.exp(log_w), _mass_core(log_w))
            assert len(dropped) >= 1
            assert math.fsum(dropped) <= XI_TAIL
        success = []
        for lo, feas in feasible_grid(F, G, log_multinomial_rows(F), log_multinomial_rows(G), h.shifts):
            fi, gi = np.nonzero(feas)
            success.append(np.exp(log_pf[lo + fi] + log_pg[gi]))
        xi_full = min(max(1.0 - math.fsum(np.concatenate(success)), 0.0), 1.0)
        xi = build_classical_plan(np.array(p), alphabet, n, l, h, mode="exact").xi
        assert xi_full - 1e-15 <= xi <= xi_full + 2 * XI_TAIL + 1e-15


class TestStringwiseOracle:
    def test_grouped_letters_rejected(self):
        alphabet = WorkAlphabet(energies=(0, 1), beta=1.0, multiplicities=(1, 2))
        plan = build_classical_plan(np.array([0.8, 0.2]), alphabet, 2, 2, ShiftFunction((0, 0)), mode="exact")
        with pytest.raises(ValueError, match="multiplicity 1"):
            simulate_plan_stringwise(plan)

    def test_matches_distribution_level(self):
        plan = build_classical_plan(
            np.array([0.8, 0.2]), ALPHABET, 4, 2, ShiftFunction((-1, 1)), mode="exact"
        )
        out = run_classical_plan(plan, enforce_converse=False)
        oracle = simulate_plan_stringwise(plan)
        assert oracle["xi"] == pytest.approx(plan.xi, abs=1e-9)
        assert oracle["work"] == pytest.approx(out.extracted_work, abs=1e-12)
        assert oracle["fidelity"] == pytest.approx(out.fidelity, abs=1e-9)


class TestStateAwareProtocol:
    def test_diagonal_state_k1_reduces_to_classical(self):
        rho = DensityMatrix.from_diagonal([1.0, 0.0])
        n = 60
        out = state_aware_protocol(rho, QUBIT, n, k=1)
        l = out.copies_consumed["bath"]
        h = choose_shift(GROUND, ALPHABET, n, margin_nats=0.0, l=l)
        plan = build_classical_plan(GROUND, ALPHABET, n, l, h, mode="exact")
        ref = run_classical_plan(plan)
        assert out.extracted_work == pytest.approx(ref.extracted_work)
        assert out.xi == pytest.approx(plan.xi, abs=1e-12)

    def test_plus_state_k1_pinched_target_is_maximally_mixed(self):
        """Single-copy pinching dephases |+><+| to I/2, so the accessible
        budget collapses to D(I/2 || tau) ~ 0.1201 nats."""
        plus = DensityMatrix.pure(np.array([1.0, 1.0]) / math.sqrt(2))
        out = state_aware_protocol(plus, QUBIT, 40, k=1)
        mixed = DensityMatrix.from_diagonal([0.5, 0.5])
        expected = relative_entropy(mixed, thermal_state(QUBIT))
        assert out.details["pinned_target"] == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(0.120114, abs=1e-6)

    def test_plus_state_pinched_target_grows_with_k(self):
        plus = DensityMatrix.pure(np.array([1.0, 1.0]) / math.sqrt(2))
        t1 = state_aware_protocol(plus, QUBIT, 12, k=1).details["pinned_target"]
        t3 = state_aware_protocol(plus, QUBIT, 12, k=3).details["pinned_target"]
        assert t3 > t1

    def test_converse_reported_against_true_state(self):
        rho = DensityMatrix.from_diagonal([1.0, 0.0])
        out = state_aware_protocol(rho, QUBIT, 50, k=1)
        assert out.rate_nats <= out.target_rate + 1e-8

    def test_overdrawing_plan_raises(self, monkeypatch):
        """The shift comes from the true statistics, so a plan that overdraws
        is a converse violation, not an estimation failure."""
        from thermoflux import extraction

        monkeypatch.setattr(
            extraction, "choose_shift", lambda *a, **kw: ShiftFunction((-20, 20))
        )
        rho = DensityMatrix.from_diagonal([0.9, 0.1])
        with pytest.raises(ConverseViolationError):
            state_aware_protocol(rho, QUBIT, 30, k=1)


class TestUniversalParams:
    def test_schedule_at_ten_thousand(self):
        params = UniversalParams.from_schedule(10000, QUBIT)
        assert params.k == 4
        assert params.q == 2500
        assert params.m == 1250  # Hoeffding m capped at q/2
        assert params.eps == pytest.approx(math.exp(-10000 ** (1.0 / 3.0)))

    def test_capped_m_keeps_hoeffding_guarantee(self):
        """When m is capped the radius is recomputed so that
        2 m r^2 >= d^k ln 2 + ln(2/eps) still holds."""
        params = UniversalParams.from_schedule(10000, QUBIT)
        lhs = 2 * params.m * params.r ** 2
        rhs = 2 ** params.k * math.log(2) + math.log(2.0 / params.eps)
        assert lhs >= rhs - 1e-9

    @pytest.mark.parametrize("d, n, r, digest", [
        (2, 10_000, 0.11546055425094391, "f1b4f88c240b12451cbf6e84fe5cbb6e81368d40b9488def049449f4e62e21d1"),
        (2, 30_000, 0.07559173422983728, "0dd82d57b5af3fb14f684cb4b5da7d2f35856eee5465bd74db4fe4244ff2f17a"),
        (2, 100_000, 0.05885989521508086, "00dddd82517f827e3fe8c3c8b4dd54f2ca21336fe2d6d7d8e6acba0ad7f2a7e9"),
        (3, 20_000, 0.08356759502066506, "22d341ece33427dbb844b322d7569b653436e4497cf266badf947661497be31a"),
    ], ids=["qubit-1e4", "qubit-3e4", "qubit-1e5", "qutrit-2e4"])
    def test_capped_radius_and_hash_are_pinned(self, d, n, r, digest):
        """The capped schedules of the perfbench universal cells (levels 0..d-1, beta = 1)."""
        ctx = ThermalContext(levels=tuple(range(d)), beta=1.0)
        params = UniversalParams.from_schedule(n, ctx)
        assert params.m == math.ceil(params.q / 2)
        assert params.r == r and protocol_description_hash(ctx, params) == digest

    def test_k_grows_with_n(self):
        ks = [UniversalParams.from_schedule(n, QUBIT).k for n in (100, 1000, 10000)]
        assert ks == sorted(ks)
        assert ks[0] >= 1

    def test_largest_n_whose_eps_is_representable(self):
        assert UniversalParams.from_schedule(350_000_000, QUBIT).m == 19_444_444
        for n in (360_000_000, 420_000_000):  # 2/eps overflows; from ~4.13e8 eps is 0
            with pytest.raises(ValueError, match=f"n = {n}:"):
                UniversalParams.from_schedule(n, QUBIT)


def _certified_rows(F, G, h, m):
    """(decision, uncertain) per row of the grouped predicate from full
    log-multinomials; a row is uncertain when its gap is within 2^-40 of the
    summed magnitude of its terms, far above the rounding of those terms."""
    T = F + G - h
    ok = (T >= 0).all(axis=1)
    terms = [gammaln(F.sum(axis=1) + 1), -gammaln(F + 1).sum(axis=1), gammaln(G.sum(axis=1) + 1),
             -gammaln(G + 1).sum(axis=1), np.full(len(F), h @ np.log(m)),
             -gammaln(T.sum(axis=1) + 1), gammaln(np.maximum(T, 0) + 1).sum(axis=1)]
    gap = sum(terms)
    uncertain = ok & (np.abs(gap) <= 2.0 ** -40 * (1.0 + sum(np.abs(t) for t in terms)))
    return ok & (gap <= 0), uncertain


def _cancelled_count_inequality(f, g, h, m) -> bool:
    """The grouped predicate in big integers with the bath-size factorials
    cancelled: n! l! prod m^h prod T_c! <= (n+l)! prod f_c! prod g_c! (T = f+g-h)
    is prod m^h prod T_c!/g_c! <= C(n+l, n) prod f_c!, each T_c!/g_c! a falling
    factorial of at most n + |h_c| factors on one side."""
    lhs, rhs = 1, math.comb(int(sum(f)) + int(sum(g)), int(sum(f)))
    for fc, gc, hc, mc in zip(*(np.asarray(x).tolist() for x in (f, g, h, m))):
        tc = fc + gc - hc
        if tc < 0:
            return False
        rhs *= math.factorial(fc)
        lhs, rhs = (lhs * math.perm(tc, tc - gc), rhs) if tc >= gc else (lhs, rhs * math.perm(gc, gc - tc))
        lhs, rhs = (lhs * mc ** hc, rhs) if hc > 0 else (lhs, rhs * mc ** -hc)
    return lhs <= rhs


class TestUniversalProtocol:
    def test_thermal_input_extracts_nothing(self):
        params = UniversalParams.from_schedule(1000, QUBIT)
        out = universal_protocol(thermal_state(QUBIT), QUBIT, params, seed=0, mode="exact")
        assert out.extracted_work == 0.0
        assert out.fidelity == pytest.approx(1.0)

    def test_ground_state_positive_rate_at_large_n(self):
        ground = DensityMatrix.pure(np.array([1.0, 0.0]))
        params = UniversalParams.from_schedule(10000, QUBIT)
        out = universal_protocol(ground, QUBIT, params, seed=0, mode="sampled")
        assert 0.0 < out.rate_nats < LN_LIMIT

    def test_protocol_hash_is_state_independent(self):
        params = UniversalParams.from_schedule(1000, QUBIT)
        states = [
            DensityMatrix.pure(np.array([1.0, 0.0])),
            DensityMatrix.pure(np.array([1.0, 1.0])),
            DensityMatrix(np.array([[0.8, 0.25], [0.25, 0.2]])),
            thermal_state(QUBIT),
        ]
        hashes = {universal_protocol(rho, QUBIT, params, seed=2, mode=mode).details["protocol_hash"]
                  for rho in states for mode in ("sampled", "exact")}
        assert hashes == {protocol_description_hash(QUBIT, params)}
        assert protocol_description_hash.__wrapped__(QUBIT, params) == protocol_description_hash(QUBIT, params)

    def test_equal_arguments_hash_alike_in_either_call_order(self):
        """beta = 1 and beta = 1.0 (likewise -0.0 and 0.0, and c = 1 and
        c = 1.0) are equal arguments and share a cache entry: the hash must not
        depend on which of them reached the cache first."""
        levels, params = QUBIT.levels, UniversalParams.from_schedule(1000, QUBIT)
        pairs = [(ThermalContext(levels=levels, beta=1), ThermalContext(levels=levels, beta=1.0)),
                 (ThermalContext(levels=levels, beta=-0.0), ThermalContext(levels=levels, beta=0.0))]
        for a, b in pairs:
            for first, second in ((a, b), (b, a)):
                protocol_description_hash.cache_clear()
                assert protocol_description_hash(first, params) == protocol_description_hash(second, params)
            assert protocol_description_hash.__wrapped__(a, params) == protocol_description_hash.__wrapped__(b, params)
        p_int, p_float = dataclasses.replace(params, c=1), dataclasses.replace(params, c=1.0)
        for first, second in ((p_int, p_float), (p_float, p_int)):
            protocol_description_hash.cache_clear()
            assert protocol_description_hash(QUBIT, first) == protocol_description_hash(QUBIT, second)

    @pytest.mark.parametrize("ctx, k", [(QUBIT, 4), (QUBIT, 6), (ThermalContext(levels=(0, 1, 3), beta=0.7), 3)])
    def test_one_weyl_alphabet_per_context_and_k(self, ctx, k):
        """The alphabet universal_protocol runs on is built once per (ctx, k)
        and has the energies and multiplicities schur_pinched_letters gives
        for any state, with the letter pairs in the shift search's order."""
        alphabet = extraction._weyl_alphabet(ctx, k)
        assert extraction._weyl_alphabet(ctx, k) is alphabet and alphabet.beta == ctx.beta
        rng = np.random.default_rng(k)
        for _ in range(3):
            a = rng.normal(size=(ctx.dim, ctx.dim)) + 1j * rng.normal(size=(ctx.dim, ctx.dim))
            rho = DensityMatrix(a @ a.conj().T / np.trace(a @ a.conj().T).real)
            _, energies, mult = schur_pinched_letters(ctx, k, rho, build_schur_basis(k, ctx.dim))
            assert alphabet.energies == tuple(energies) and alphabet.multiplicities == tuple(mult.tolist())
        e = [float(x) for x in alphabet.energies]
        want = sorted((e[j] - e[i], i, j) for i in range(len(e)) for j in range(len(e)) if e[j] > e[i])
        assert list(alphabet.pairs) == sorted(want, key=lambda x: (-x[0], x[1], x[2]))

    def test_exact_plus_state_at_1e5_is_fast_and_decided_exactly(self, monkeypatch):
        """Exact mode, qubit |+> and a full-rank mixed state, n = 1e5 (k = 5, 12
        Weyl letters): each run takes under 5 s, and every row of every full
        shift probe the two make, and every decision of the search (a witness
        rejection included), agrees with an oracle that decides in floats only
        where the gap exceeds a generous error bound, and in big integers
        elsewhere."""
        params = UniversalParams.from_schedule(100_000, QUBIT)
        states = (DensityMatrix.pure(np.array([1.0, 1.0])), DensityMatrix(np.array([[0.8, 0.25], [0.25, 0.2]])))
        shifts = []
        for rho in states:
            start = time.perf_counter()
            shifts.append(universal_protocol(rho, QUBIT, params, mode="exact").details["h"])
            assert time.perf_counter() - start < 5.0
        probes, decisions, feasible, admits = [], [], TransferProbe.feasible, TransferProbe.admits

        def recorded(probe, i, j, a):
            probes.append((probe, probe.moved(i, j, a), feasible(probe, i, j, a)))
            return probes[-1][2]

        def decided(probe, i, j, a):
            decisions.append((probe, probe.moved(i, j, a), admits(probe, i, j, a)))
            return decisions[-1][2]

        monkeypatch.setattr(TransferProbe, "feasible", recorded)
        monkeypatch.setattr(TransferProbe, "admits", decided)
        for rho, h in zip(states, shifts):
            assert universal_protocol(rho, QUBIT, params, mode="exact").details["h"] == h
            assert any(h)
        assert len(decisions) > 100 and 0 < len(probes) <= len(decisions)
        for rows, whole in ((probes, False), (decisions, True)):
            for probe, shift, got in rows:
                want, uncertain = _certified_rows(probe.F, probe.G, shift, probe.m)
                for r in np.flatnonzero(uncertain):
                    want[r] = _cancelled_count_inequality(probe.F[r], probe.G[r], shift, probe.m)
                assert got == want.all() if whole else np.array_equal(got, want)

    def test_cancelled_count_inequality_is_the_predicate(self):
        m = (1, 2, 3)
        for n, l in [(1, 1), (3, 2), (4, 4)]:
            for f, g in itertools.product(compositions(n, 3), compositions(l, 3)):
                for h in [(0, 0, 0), (1, -1, 0), (-1, 0, 1), (2, 0, -2), (0, 3, -3)]:
                    target = np.add(f, g) - h
                    want = min(target) >= 0 and (
                        exact_freq_count(f) * exact_freq_count(g) * math.prod(Fraction(b) ** c for b, c in zip(m, h))
                        <= exact_freq_count(target))
                    assert _cancelled_count_inequality(f, g, h, m) == want

    def test_fidelity_bound(self):
        ground = DensityMatrix.pure(np.array([1.0, 0.0]))
        params = UniversalParams.from_schedule(1000, QUBIT)
        out = universal_protocol(ground, QUBIT, params, seed=1, mode="sampled")
        assert out.fidelity >= 1.0 - 2.0 * params.eps - out.xi - 1e-12

    def test_exact_mode_isolates_structural_losses(self):
        ground = DensityMatrix.pure(np.array([1.0, 0.0]))
        params = UniversalParams.from_schedule(2000, QUBIT)
        out = universal_protocol(ground, QUBIT, params, seed=0, mode="exact")
        assert out.details["m"] == 0
        assert out.details["margin"] == 0.0


@pytest.mark.parametrize("run", [
    lambda: state_aware_protocol(DensityMatrix.from_diagonal([0.9, 0.1]), QUBIT, 30),
    lambda: tomographic_universal_protocol(
        DensityMatrix.pure(np.array([1.0, 1.0]) / math.sqrt(2)), QUBIT, 20, k=2, eta=0.1, seed=1
    ),
    lambda: universal_protocol(
        DensityMatrix.pure(np.array([1.0, 0.0])), QUBIT,
        UniversalParams.from_schedule(1000, QUBIT), mode="exact",
    ),
], ids=["aware", "tomo", "universal"])
def test_outcome_reports_converse_slack_and_bath(run):
    out = run()
    assert out.details["converse_slack"] == out.target_rate - out.rate_nats
    assert out.details["bath"] == out.copies_consumed["bath"]


@pytest.mark.parametrize("run", [
    lambda: run_pipeline(ALPHABET, GROUND, 0, 0, 0, 0.0, {}, {}),
    lambda: run_classical_plan(build_classical_plan(GROUND, ALPHABET, 0, 0, ShiftFunction((0, 0)), mode="exact")),
], ids=["pipeline", "plan"])
def test_zero_input_copies_rejected(run):
    """The rate is per input copy: n = 0 is refused, not divided by."""
    with pytest.raises(ValueError, match="n >= 1"):
        run()


class TestMeasureAndPrepare:
    def test_block_assignment_example(self):
        summary, out = measure_and_prepare_protocol(4, QUBIT, 30, np.array([0.9, 0.1]))
        assert out.details["dominant_block"] == (4, 0)

    def test_thermal_input_low_rate(self):
        t = QUBIT.gibbs_probabilities()
        summary, out = measure_and_prepare_protocol(4, QUBIT, 200, t)
        assert out.rate_nats < 0.02

    def test_battery_is_gibbs_preserving(self):
        summary, _ = measure_and_prepare_protocol(4, QUBIT, 100, np.array([1.0, 0.0]))
        assert summary["gibbs_deviation"] <= 1e-12

    def test_boundary_input_flagged(self):
        summary, _ = measure_and_prepare_protocol(4, QUBIT, 20, np.array([0.875, 0.125]))
        assert summary["boundary"]

    def test_interior_input_not_flagged(self):
        summary, _ = measure_and_prepare_protocol(4, QUBIT, 20, np.array([0.9, 0.1]))
        assert not summary["boundary"]

    def test_zero_beta_rejected(self):
        """W_l divides by beta: beta = 0 is refused before the description is built."""
        extraction._measure_and_prepare_description.cache_clear()
        with pytest.raises(ValueError, match="beta > 0"):
            measure_and_prepare_protocol(4, ThermalContext(levels=(0, 1), beta=0.0), 40, np.array([0.5, 0.5]))
        assert extraction._measure_and_prepare_description.cache_info().misses == 0

    @pytest.mark.parametrize("M, n", [(0, 40), (4, 0), (-1, 40)])
    def test_bad_sizes_rejected(self, M, n):
        with pytest.raises(ValueError, match="M >= 1 and n >= 1"):
            measure_and_prepare_protocol(M, QUBIT, n, np.array([0.5, 0.5]))

    def test_description_is_kept_per_size(self):
        """Two sources at one (M, ctx, n) share one read-only description: the
        battery levels and thermal block masses are equal, the block masses
        of the sources are not."""
        extraction._measure_and_prepare_description.cache_clear()
        a, _ = measure_and_prepare_protocol(4, QUBIT, 30, np.array([0.9, 0.1]))
        b, _ = measure_and_prepare_protocol(4, QUBIT, 30, np.array([0.3, 0.7]))
        info = extraction._measure_and_prepare_description.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert a["battery"].levels == b["battery"].levels
        assert a["block_mass_t"] == b["block_mass_t"]
        assert a["block_mass_p"] != b["block_mass_p"]
        partition, F, block, _, log_freq, mass_t, levels, _ = extraction._measure_and_prepare_description(4, QUBIT, 30)
        for arr in (partition.grid, F, block, log_freq):
            assert not arr.flags.writeable
        for kept in (mass_t, levels):
            with pytest.raises(TypeError):
                kept[(4, 0)] = 0.0

    def test_returned_dicts_are_fresh(self):
        """Mutating one call's dicts leaves the next call's output, pickled,
        as the first call's."""
        p = np.array([0.9, 0.1])
        summary, out = measure_and_prepare_protocol(4, QUBIT, 30, p)
        want = pickle.dumps((summary, out))
        summary["battery"].levels[(4, 0)] = 0.0
        summary["battery"].levels[(9, 9)] = 1.0
        summary["block_mass_t"].clear()
        summary["block_mass_p"].clear()
        out.details.clear()
        assert pickle.dumps(measure_and_prepare_protocol(4, QUBIT, 30, p)) == want


class TestSanovExponent:
    @settings(max_examples=100)
    @given(M=st.integers(1, 40), data=st.data(), beta=st.sampled_from((0.1, 0.5, 1.0, 2.0, 5.0)))
    def test_equals_the_minimum_over_a_dense_grid(self, M, data, beta):
        """The closed form is the least D((x, 1 - x) || t) over a dense grid of
        the block's interval, ends (and t_0, when inside) included."""
        partition = BlockPartition(M=M, d=2)
        i = data.draw(st.integers(0, M))
        t = ThermalContext(levels=(0, 1), beta=beta).gibbs_probabilities()
        centers = partition.grid[:, 0] / M
        lo = 0.0 if i == 0 else (centers[i - 1] + centers[i]) / 2.0
        hi = 1.0 if i == M else (centers[i] + centers[i + 1]) / 2.0
        xs = np.linspace(lo, hi, 2001)
        xs = np.append(xs, t[0]) if lo <= t[0] <= hi else xs
        grid = [classical_relative_entropy(np.array([x, 1.0 - x]), t) for x in xs]
        got = _sanov_exponent(partition, tuple(int(c) for c in partition.grid[i]), t)
        assert got == pytest.approx(min(grid), rel=0, abs=1e-15)

    def test_library_imports_leave_scipy_optimize_out(self):
        """Importing every thermoflux module, in a fresh interpreter, loads no scipy.optimize."""
        code = ("import importlib, pkgutil, sys, thermoflux\n"
                "for m in pkgutil.iter_modules(thermoflux.__path__):\n"
                "    importlib.import_module('thermoflux.' + m.name)\n"
                "print('scipy.optimize' in sys.modules)")
        src = str(Path(extraction.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def _sequential_nearest(M, d, p, tol=1e-12):
    """The nearest-block rule as one loop over the grid in colexicographic order,
    ties within tol to the lexicographically smallest point: the oracle for the
    vectorised BlockPartition."""
    p = np.asarray(p, dtype=float)
    best, best_d, second = None, None, None
    for vec in (tuple(int(c) for c in f) for f in compositions(M, d)[:, ::-1]):
        dist = 0.5 * float(np.abs(np.array(vec) / M - p).sum())
        if best_d is None or dist < best_d - tol:
            best, best_d, second = vec, dist, None
        elif abs(dist - best_d) <= tol and vec != best:
            second = vec
            if vec < best:
                best = vec
    return tuple(best), second is not None


class TestBlockPartition:
    @pytest.mark.parametrize("d", (2, 3))
    @pytest.mark.parametrize("M", (1, 2, 3, 5, 8, 16))
    def test_points_match_sequential_rule(self, d, M):
        partition = BlockPartition(M=M, d=d)
        rng = np.random.default_rng(100 * d + M)
        grid = partition.grid
        pairs = rng.integers(len(grid), size=(15, 2))
        points = list(rng.dirichlet(np.ones(d), size=15))
        points += [(grid[a] + grid[b]) / (2 * M) for a, b in pairs]  # exact midpoints
        for p in points:
            assert partition.nearest(p) == _sequential_nearest(M, d, p)

    @pytest.mark.parametrize("d", (2, 3))
    @pytest.mark.parametrize("M", (1, 2, 3, 5, 8, 16))
    def test_types_match_sequential_rule(self, d, M):
        partition = BlockPartition(M=M, d=d)
        for n in (7, 16):
            F = compositions(n, d)[:, ::-1]
            blocks = [tuple(int(c) for c in partition.grid[i]) for i in partition.assign_types(F, n)]
            assert blocks == [_sequential_nearest(M, d, f / n)[0] for f in F]
            assert blocks == [partition.nearest(f / n)[0] for f in F]


class TestTomographicProtocol:
    @pytest.mark.parametrize("protocol", [tomographic_universal_protocol, state_aware_protocol])
    def test_bad_block_size_rejected(self, protocol):
        plus = DensityMatrix.pure(np.array([1.0, 1.0]) / math.sqrt(2))
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be >= 1"):
                protocol(plus, QUBIT, 10, k=k)
        with pytest.raises(ValueError, match="need n >= k"):
            protocol(plus, QUBIT, 10, k=11)

    def test_zero_error_matches_state_aware(self):
        plus = DensityMatrix.pure(np.array([1.0, 1.0]) / math.sqrt(2))
        a = state_aware_protocol(plus, QUBIT, 40, k=2)
        b = tomographic_universal_protocol(plus, QUBIT, 40, k=2, eta=0.0)
        assert b.extracted_work == a.extracted_work
        assert b.rate_nats == a.rate_nats
        assert b.xi == a.xi
        assert b.fidelity == a.fidelity
        assert b.details["h"] == a.details["h"]

    def test_pinned_noisy_outcome(self):
        """A noisy estimate at k = 2, where the energy subspace of one
        excitation is two-dimensional: the plan runs on the true state
        dephased in the estimate's eigenvectors, so its exact xi reads their
        bits.  Pinned to the last bit."""
        rho = DensityMatrix(np.array([[0.2, 0.35], [0.35, 0.8]]))
        out = tomographic_universal_protocol(rho, QUBIT, 20, k=2, eta=0.1, seed=1)
        assert out.details["h"] == (-2, -1, 1, 2) and out.details["xi_mode"] == "exact"
        assert (repr(out.xi), repr(out.fidelity), repr(out.details["budget_nats"])) == (
            "0.00012017789035967397", "0.9998798221096403", "1.221870337690188")

    def test_diagonal_state_immune_to_dephasing(self):
        rho = DensityMatrix.from_diagonal([1.0, 0.0])
        a = tomographic_universal_protocol(rho, QUBIT, 40, k=1, eta=0.0)
        b = tomographic_universal_protocol(rho, QUBIT, 40, k=1, eta=0.05, seed=3)
        assert b.rate_nats <= a.rate_nats + 1e-12

    def test_estimation_error_costs_bounded_rate(self):
        plus = DensityMatrix.pure(np.array([1.0, 1.0]) / math.sqrt(2))
        eta = 0.1
        perfect = tomographic_universal_protocol(plus, QUBIT, 40, k=2, eta=0.0)
        noisy = tomographic_universal_protocol(plus, QUBIT, 40, k=2, eta=eta, seed=5)
        allowance = 2.0 * QUBIT.continuity_constant(2) * eta
        assert noisy.rate_nats >= perfect.rate_nats - allowance - 1e-9
