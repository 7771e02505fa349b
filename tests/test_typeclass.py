"""Tests for type-class counting and the injection-feasibility predicate."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from thermoflux import typeclass
from thermoflux.pinching import _weyl_letters
from thermoflux.schur import build_schur_basis
from thermoflux.typeclass import (
    FEASIBILITY_SLACK,
    GRID_CHUNK,
    ShiftFunction,
    TransferProbe,
    compositions,
    exact_freq_count,
    feasible_grid,
    feasible_rows,
    injection_feasible,
    log_multinomial_rows,
    log_type_prob_rows,
    strings_of_type,
)


class TestShiftFunction:
    @settings(max_examples=200)
    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=9), st.sampled_from(("fraction", "float", "int")),
           st.data())
    def test_work_over_the_nonzero_shifts_is_the_full_sum(self, head, kind, data):
        """Value, type and (for floats) bits of the full sum over every letter,
        h = 0 included (0 of the levels' type: Fraction(0) on Fraction levels)."""
        shifts = head + [-sum(head)]
        level = {"fraction": st.fractions(-10, 10, max_denominator=12), "int": st.integers(-10, 10),
                 "float": st.floats(-10, 10, allow_nan=False)}[kind]
        levels = data.draw(st.lists(level, min_size=len(shifts), max_size=len(shifts)))
        for h in (shifts, [0] * len(shifts)):
            want, got = sum(hc * e for hc, e in zip(h, levels)), ShiftFunction(h).work(levels)
            assert type(got) is type(want) and got == want and repr(got) == repr(want)

    def test_zero_sum_enforced(self):
        with pytest.raises(ValueError):
            ShiftFunction(shifts=(1, 0))

    def test_work_is_exact_with_fraction_levels(self):
        from fractions import Fraction

        h = ShiftFunction(shifts=(-3, 3))
        assert h.work((Fraction(0), Fraction(1, 2))) == Fraction(3, 2)


class TestCounting:
    def test_log_count_matches_exact_small(self):
        for counts in [(3, 2), (5, 0), (2, 2, 2), (10, 1, 1)]:
            assert log_multinomial_rows(np.array(counts)) == pytest.approx(
                math.log(exact_freq_count(counts)), abs=1e-10
            )

    def test_table_and_gammaln_agree_bitwise(self):
        """log_multinomial_rows reads ln x! from LOG_FACT for rows of fewer than
        len(LOG_FACT) letters and calls gammaln for longer ones: the same bits."""
        rng = np.random.default_rng(7)
        limit = len(typeclass.LOG_FACT)
        for n in (0, 1, 17, limit - 1, limit, 3 * limit):
            rows = rng.multinomial(n, [0.5, 0.3, 0.2], size=20)
            want = gammaln(rows.sum(axis=1) + 1) - gammaln(rows + 1).sum(axis=1)
            assert np.array_equal(log_multinomial_rows(rows), want)
        assert not typeclass.LOG_FACT.flags.writeable
        # _log_fact on arrays inside the table, straddling its end and past it,
        # and on scalars on both sides of it: gammaln's bits and x's shape
        for x in (np.arange(limit - 3, limit + 3), np.array([[0, 3 * limit], [limit - 1, limit]]),
                  np.arange(limit - 3, limit), np.int64(limit - 1), np.int64(limit), 0, limit - 1, limit, 3 * limit):
            got, want = typeclass._log_fact(x), gammaln(np.asarray(x) + 1.0)
            assert np.shape(got) == np.shape(x) and np.asarray(got).tobytes() == want.tobytes()

    def test_exact_count_binomial(self):
        assert exact_freq_count((3, 2)) == 10
        assert exact_freq_count((2, 2, 2)) == 90

    def test_enumeration_size(self):
        rows = compositions(5, 3)
        assert len(rows) == math.comb(5 + 2, 2)
        assert (rows.sum(axis=1) == 5).all()

    @pytest.mark.parametrize("n, d", [(0, 1), (5, 1), (0, 3), (4, 2), (5, 3), (3, 4)])
    def test_compositions_are_every_row_in_lexicographic_order(self, n, d):
        rows = compositions(n, d)
        assert rows.dtype == np.int64 and rows.shape == (math.comb(n + d - 1, d - 1), d)
        expected = sorted(c for c in itertools.product(range(n + 1), repeat=d) if sum(c) == n)
        assert [tuple(r) for r in rows] == expected

    def test_enumeration_cap_counts_rows(self):
        assert len(compositions(9, 9)) == math.comb(17, 8)  # though (n+1)^(d-1) = 1e8
        with pytest.raises(ValueError):
            compositions(2, 5000)  # C(5001, 2) = 1.25e7 rows

    def test_enumeration_is_colexicographic(self):
        freqs = [tuple(f) for f in compositions(4, 3)[:, ::-1]]
        assert freqs == sorted(freqs, key=lambda c: c[::-1])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_strings_of_type_match_the_permutation_walk(self, d):
        """Every type with n <= 6 letters: the sorted indices that walking all
        n! orderings of the type's letters and deduplicating gives."""
        for n in range(7):
            for f in compositions(n, d):
                letters = [s for s, c in enumerate(f) for _ in range(c)]
                walked = sorted({
                    sum(s * d ** (n - 1 - pos) for pos, s in enumerate(perm))
                    for perm in itertools.permutations(letters)
                })
                got = strings_of_type(f)
                assert got.dtype == np.int64
                assert got.tolist() == walked

    def test_vectorized_rows_agree_with_scalar(self):
        rows = np.array([[3, 2], [5, 0], [1, 4], [400, 17]])
        vec = log_multinomial_rows(rows)
        for r, v in zip(rows, vec):
            scalar = math.lgamma(sum(r) + 1) - sum(math.lgamma(c + 1) for c in r)
            assert v == pytest.approx(scalar, rel=1e-13, abs=1e-12)


class TestInjectionFeasibility:
    def test_zero_shift_always_feasible(self):
        h = ShiftFunction((0, 0))
        assert injection_feasible((5, 0), (3, 2), h)

    def test_negative_target_infeasible(self):
        h = ShiftFunction((-3, 3))
        # f+g-h = (5+0+3, 0+0-3) has a negative coordinate
        assert not injection_feasible((5, 0), (0, 0), h)

    def test_counting_inequality_direction(self):
        """A balanced bath type has enough room to absorb a peaked system type
        with a small shift, while a peaked bath type does not."""
        h = ShiftFunction((-1, 1))
        assert injection_feasible((10, 0), (50, 50), h)
        assert not injection_feasible((10, 0), (9, 1), h)

    def test_exact_recheck_against_bigint_oracle(self):
        """Every predicate decision at small sizes matches the exact integers."""
        h = ShiftFunction((-1, 1))
        for f1 in range(7):
            for g1 in range(7):
                f = (f1, 6 - f1)
                g = (g1, 6 - g1)
                target = tuple(a + b - c for a, b, c in zip(f, g, h.shifts))
                if any(t < 0 for t in target):
                    expected = False
                else:
                    expected = (
                        exact_freq_count(f) * exact_freq_count(g)
                        <= exact_freq_count(target)
                    )
                assert injection_feasible(f, g, h) == expected


def _oracle(f, g, h) -> bool:
    target = tuple(a + b - c for a, b, c in zip(f, g, h))
    if any(t < 0 for t in target):
        return False
    return exact_freq_count(f) * exact_freq_count(g) <= exact_freq_count(target)


@st.composite
def _blocks(draw):
    """A d-letter shift h and a few (f, g) rows, some of them exact ties."""
    d = draw(st.integers(1, 4))
    counts = st.lists(st.integers(0, 12), min_size=d, max_size=d)
    free = draw(st.lists(st.integers(-6, 6), min_size=d - 1, max_size=d - 1))
    h = tuple(free) + (-sum(free),)
    rows = draw(st.lists(st.tuples(counts, counts), min_size=1, max_size=6))
    ties = []
    if d >= 2:
        # |Freq(f)| = |Freq(g)| = |Freq(f+g-h)| = 1: a one-letter f and g moved
        # wholly onto one letter, the tie the recheck must decide as feasible
        a, b = draw(st.integers(0, 12)), draw(st.integers(0, 12))
        f, g, hh = [0] * d, [0] * d, [0] * d
        f[0], g[1] = a, b
        hh[0], hh[1] = a, -a
        ties.append((f, g, tuple(hh)))
    ties.append((rows[0][0], [0] * d, (0,) * d))  # g = 0 with h = 0: target = f
    return h, rows, ties


class TestFeasibleRows:
    @settings(max_examples=200)
    @given(_blocks())
    def test_agrees_with_bigint_oracle(self, block):
        h, rows, ties = block
        F = np.array([f for f, _ in rows])
        G = np.array([g for _, g in rows])
        got = feasible_rows(F, G, h)
        assert got.dtype == bool
        for f, g, ok in zip(F, G, got):
            assert ok == _oracle(tuple(f), tuple(g), h)
            assert injection_feasible(f, g, h) == ok
        for f, g, hh in ties:
            assert feasible_rows([f], [g], hh)[0] == _oracle(f, g, hh) == injection_feasible(f, g, hh)

    def test_exact_tie_is_feasible(self):
        assert feasible_rows([(1, 0)], [(0, 1)], (1, -1)).tolist() == [True]

    def test_negative_target_is_infeasible(self):
        assert feasible_rows([(5, 0), (5, 0)], [(0, 0), (0, 3)], (-3, 3)).tolist() == [False, True]


class TestZeroShift:
    @settings(max_examples=100)
    @given(d=st.integers(2, 4), n=st.integers(1, 80), l=st.integers(0, 400),
           seed=st.integers(0, 2 ** 32 - 1),
           mult=st.one_of(st.none(), st.lists(st.sampled_from((1, 2, 3, 5)), min_size=4, max_size=4)))
    def test_every_pair_is_feasible(self, d, n, l, seed, mult):
        """h = 0: concatenation injects every (f, g) into f + g, so every row is
        feasible, the point-mass tie rows f = n e_c, g = l e_c included."""
        rng = np.random.default_rng(seed)
        ties = np.eye(d, dtype=np.int64)
        F = np.vstack([rng.multinomial(n, rng.dirichlet(np.ones(d)), size=30), n * ties])
        G = np.vstack([rng.multinomial(l, rng.dirichlet(np.ones(d)), size=30), l * ties])
        m = None if mult is None else mult[:d]
        assert feasible_rows(F, G, (0,) * d, m).all()
        assert feasible_rows(F, G[::-1], (0,) * d, m).all()


def _probe(F, G, m=None) -> TransferProbe:
    """A probe on rows F, G whose every row F + G has row 0's total, built as
    the shift search builds one: moved marks every entry where F + G differs
    from row 0, lhs is ln|Freq(f)| + ln|Freq(g)| per row, and m defaults to 1."""
    F, G = np.array(F, dtype=np.int64, ndmin=2), np.array(G, dtype=np.int64, ndmin=2)
    T = F + G
    assert (T.sum(axis=1) == T[0].sum()).all()
    m = np.ones(F.shape[1], dtype=np.int64) if m is None else m
    return TransferProbe(F, G, m, np.nonzero(T != T[0]), log_multinomial_rows(F) + log_multinomial_rows(G))


def _grid(F, G, h, m=None):
    """feasible_grid on rows F, G with each side's ln|Freq| per row from
    log_multinomial_rows, as its caller keeps them."""
    return feasible_grid(F, G, log_multinomial_rows(F), log_multinomial_rows(G), h, m)


def _search_rows(rows, h) -> tuple:
    """(F, G) of (f, g) rows with each row's last bath count raised so that
    every row F + G has one total, kept where the target F + G - h is >= 0:
    rows and a committed h in the shift search's domain."""
    F, G = (np.array(side, dtype=np.int64) for side in zip(*rows))
    G[:, -1] += (F + G).sum(axis=1).max() - (F + G).sum(axis=1)
    keep = (F + G - np.asarray(h) >= 0).all(axis=1)
    return F[keep], G[keep]


def _assert_direct_state(probe, F, G) -> None:
    """The probe's T, ln T!, S and cap bitwise against a direct evaluation at
    its committed h, and lhs_h against ln|Freq(f)| + ln|Freq(g)| + h ln m."""
    T = F + G - probe.h
    log_fact = gammaln(T + 1.0)
    assert np.array_equal(probe.T, T) and np.array_equal(probe.cap, T.min(axis=0))
    assert np.array_equal(probe.log_fact, log_fact) and np.array_equal(probe.S, log_fact.sum(axis=1))
    assert np.array_equal(probe.lhs_h, log_multinomial_rows(F) + log_multinomial_rows(G) + probe.h @ np.log(probe.m))


class TestTransferProbe:
    @settings(max_examples=200)
    @given(_blocks(), st.data())
    def test_agrees_with_bigint_oracle(self, block, data):
        """Probes from a committed h over rows of one total with every target
        of h >= 0, at every 0 <= a <= cap[j], and the injected ties probed as
        transfers from h = 0."""
        h, rows, ties = block
        if len(h) < 2:
            return
        F, G = _search_rows(rows, h)
        if len(F):
            probe = _probe(F, G)
            probe.commit(h)
            i, j = data.draw(st.permutations(range(len(h))))[:2]
            a = data.draw(st.integers(0, int(probe.cap[j])))
            moved = probe.moved(i, j, a)
            assert probe.feasible(i, j, a).tolist() == [_oracle(f, g, moved) for f, g in zip(F, G)]
        for f, g, hh in ties:  # hh moves hh[0] from letter 0 to letter 1
            probe = _probe([f], [g])
            assert probe.moved(1, 0, hh[0]).tolist() == list(hh)
            assert probe.feasible(1, 0, hh[0])[0] == _oracle(f, g, hh)

    def test_exact_ties_are_feasible(self):
        """C(6,3) C(14,0) = 20 = C(20,1), and a zero transfer with g = 0: ties
        that the two-column rhs puts on the infeasible side in floats."""
        assert _probe([(3, 3)], [(14, 0)]).feasible(0, 1, 2).tolist() == [True]
        assert _probe([(11, 12, 0, 10)], [(0, 0, 0, 0)]).feasible(1, 0, 0).tolist() == [True]

    @pytest.mark.parametrize("F, G, m, i, j, a", [
        # row 0: C(10, 4) C(11, 0) = 210 = C(21, 2), an exact tie whose
        # difference rhs - lhs comes out below 0 in floats
        ([(6, 4), (10, 0), (0, 5)], [(11, 0), (0, 11), (5, 11)], None, 0, 1, 2),
        # row 0: |Freq((1, 1))| |Freq((2, 0))| m_0 / m_1 = 6 + 2e-17 against
        # |Freq((2, 2))| = 6, infeasible by a relative 3e-18, which floats
        # (where m_0 / m_1 is 3) do not see
        ([(1, 1), (3, 0), (0, 1)], [(2, 0), (0, 1), (3, 0)], (3 * 10 ** 17 + 1, 10 ** 17), 1, 0, 1),
    ], ids=["tie", "infeasible-in-window"])
    def test_prefilter_hands_the_close_row_to_the_recheck(self, monkeypatch, F, G, m, i, j, a):
        """Rows of one total.  Rows 1 and 2 clear the prefilter by a wide
        margin and row 0 lies inside its window, so the row minimum is row
        0's and does not clear the bound: the probe decides as the big-integer
        oracle and re-decides row 0, and only row 0, in big integers."""
        calls, exact = [], typeclass._exact_feasible

        def recorded(f, g, h, mm):
            calls.append(tuple(np.asarray(f).tolist()))
            return exact(f, g, h, mm)

        monkeypatch.setattr(typeclass, "_exact_feasible", recorded)
        probe = _probe(F, G, m)
        assert 0 <= a <= probe.cap[j]
        h = probe.moved(i, j, a)
        want = [_grouped_oracle(f, g, h, probe.m) for f, g in zip(F, G)]
        assert want == ([False, True, True] if m else [True] * 3)
        assert probe.feasible(i, j, a).tolist() == want and calls == [F[0]]

    def test_witness_inside_the_window_falls_through_to_the_full_probe(self, monkeypatch):
        """The rows of the tie case above.  Moving 3 off letter 1 fails at row 0
        only (C(21, 1) = 21 < C(10, 4) C(11, 0) = 210), which makes row 0 the
        witness.  Moving 4 fails there far outside _decide's window, so admits
        rejects it with no row pass; moving 2 is the exact tie at row 0, inside
        the window, so admits falls through to the full probe, which re-decides
        row 0 in big integers.  With the slack patched wide, row 0 of a = 4
        lies inside the window too, and takes the same way."""
        F, G = [(6, 4), (10, 0), (0, 5)], [(11, 0), (0, 11), (5, 11)]
        probes, calls, feasible, exact = [], [], TransferProbe.feasible, typeclass._exact_feasible
        monkeypatch.setattr(TransferProbe, "feasible", lambda p, i, j, a: probes.append(a) or feasible(p, i, j, a))
        monkeypatch.setattr(typeclass, "_exact_feasible",
                            lambda f, g, h, m: calls.append(tuple(f)) or exact(f, g, h, m))
        probe = _probe(F, G)
        want = {a: [_grouped_oracle(f, g, probe.moved(0, 1, a), probe.m) for f, g in zip(F, G)] for a in (2, 3, 4)}
        assert want == {2: [True] * 3, 3: [False, True, True], 4: [False, True, True]}
        assert not probe.admits(0, 1, 3) and probe.witness == 0 and probes == [3]
        assert not probe.admits(0, 1, 4) and probes == [3] and calls == []
        assert probe.admits(0, 1, 2) and probes == [3, 2] and calls == [(6, 4)]
        monkeypatch.setattr(typeclass, "FEASIBILITY_SLACK", 1.0)
        probes.clear(), calls.clear()
        assert not probe.admits(0, 1, 4) and probes == [4] and (6, 4) in calls and probe.witness == 0

    def test_commit_rebuilds_the_row_state(self):
        F, G = np.array([(6, 2, 0), (3, 3, 2)]), np.array([(10, 5, 5), (12, 4, 4)])
        probe = _probe(F, G)
        for i, j, a in [(0, 1, 3), (1, 2, 2), (0, 2, 1)]:
            probe.commit(probe.moved(i, j, a))
        assert probe.h.tolist() == [-4, 1, 3]
        _assert_direct_state(probe, F, G)
        assert probe.feasible(0, 1, 2).tolist() == feasible_rows(F, G, probe.moved(0, 1, 2)).tolist()

    @settings(max_examples=150)
    @given(st.data())
    def test_commit_chain_matches_feasible_rows_and_direct_state(self, data):
        """Rows of one total, of unequal n and l, with or without letter
        multiplicities: after each commit of a chain within the domain, the
        probe's state is bitwise that of a direct evaluation at h, and a probe
        at any 0 <= a <= cap[j] decides every row as the big-integer oracle and
        feasible_rows do."""
        d = data.draw(st.integers(2, 5))
        counts = st.lists(st.integers(0, 15), min_size=d, max_size=d)
        F, G = _search_rows(data.draw(st.lists(st.tuples(counts, counts), min_size=1, max_size=8)), 0)
        m = data.draw(st.one_of(st.none(), st.lists(st.sampled_from((1, 2, 3)), min_size=d, max_size=d)))
        probe = _probe(F, G, m)
        for _ in range(data.draw(st.integers(0, 5))):
            i, j = data.draw(st.permutations(range(d)))[:2]
            probe.commit(probe.moved(i, j, data.draw(st.integers(0, int(probe.cap[j])))))
            _assert_direct_state(probe, F, G)
        i, j = data.draw(st.permutations(range(d)))[:2]
        a = data.draw(st.integers(0, int(probe.cap[j])))
        want = [_grouped_oracle(f, g, probe.moved(i, j, a), probe.m) for f, g in zip(F, G)]
        assert probe.feasible(i, j, a).tolist() == want == feasible_rows(F, G, probe.moved(i, j, a), probe.m).tolist()

    def test_outside_the_search_domain_raises(self):
        """A commit that leaves a target negative raises ValueError and leaves
        the state as it was; so does a probe at a < 0 or a > cap[j], from
        feasible and from admits, with or without a witness."""
        F, G = np.array([(6, 2, 0), (3, 3, 2)]), np.array([(10, 5, 5), (12, 4, 4)])
        probe = _probe(F, G)
        probe.commit(probe.moved(0, 1, 3))
        names = ("h", "T", "log_fact", "S", "cap", "lhs_h", "room")
        before = {name: np.copy(getattr(probe, name)) for name in names}
        for h in (probe.moved(0, 2, int(probe.cap[2]) + 1), probe.moved(2, 1, 5), (-30, 15, 15)):
            with pytest.raises(ValueError):
                probe.commit(h)
            assert all(np.array_equal(getattr(probe, name), before[name]) for name in names)
        _assert_direct_state(probe, F, G)
        assert not probe.admits(1, 0, int(probe.cap[0]))  # every row fails: row 0 is the witness
        assert probe.witness == 0
        for a in (-1, int(probe.cap[2]) + 1):
            for method in (probe.feasible, probe.admits):
                with pytest.raises(ValueError):
                    method(0, 2, a)
        assert probe.feasible(0, 2, int(probe.cap[2])).shape == (2,)


def _grouped_oracle(f, g, h, m) -> bool:
    """|Freq(f)| |Freq(g)| prod_c m_c^{h_c} <= |Freq(f+g-h)| in exact rationals."""
    target = [a + b - c for a, b, c in zip(f, g, h)]
    if min(target) < 0:
        return False
    weight = math.prod(Fraction(int(mc)) ** int(hc) for mc, hc in zip(m, h))
    return exact_freq_count(f) * exact_freq_count(g) * weight <= exact_freq_count(target)


@st.composite
def _grouped_blocks(draw):
    """_blocks with letter multiplicities from {1, 2, 3, 5}, and one more tie:
    f = (a, 0, ..), g = (s - a, 0, ..) and h = (1, -1, 0, ..) give
    |Freq(f+g-h)| = s against (m_0 / m_1)^1, equal for s = m_0 / m_1."""
    h, rows, ties = draw(_blocks())
    d = len(h)
    m = draw(st.lists(st.sampled_from((1, 2, 3, 5)), min_size=d, max_size=d))
    if d >= 2:
        s = m[0] // m[1] if m[0] % m[1] == 0 else m[0]
        a = draw(st.integers(0, s))
        f, g, hh = [0] * d, [0] * d, [0] * d
        f[0], g[0], hh[0], hh[1] = a, s - a, 1, -1
        ties.append((f, g, tuple(hh)))
    return h, rows, ties, m


def _class_sizes(m, n: int) -> np.ndarray:
    """The number of strings of n letters of the expanded alphabet (letter g
    written out as m_g distinct letters) in each grouped type class, found by
    enumerating every string; indexed by the grouped type's base-(n + 1) code."""
    code = (n + 1) ** np.repeat(np.arange(len(m)), m)
    tails = np.zeros(1, dtype=np.int64)
    for _ in range(n - 1):
        tails = (tails[:, None] + code).ravel()
    return sum(np.bincount(first + tails, minlength=(n + 1) ** len(m)) for first in code)


class TestGroupedPredicate:
    """Letters of multiplicity m_g: a grouped class holds |Freq(f)| prod m_g^{f_g}
    strings, and all three kernel forms decide the grouped predicate."""

    def test_class_sizes_and_predicate_match_string_enumeration(self):
        """The qubit k = 3 Weyl letters (m = 1, 1, 1, 1, 2, 2; 8 expanded
        letters): every grouped class of n <= 8 strings, and every (f, g) pair
        of n, l <= 4 letters under each one-count transfer h, against the
        union-level inequality |class f| |class g| <= |class f+g-h|."""
        m = _weyl_letters(build_schur_basis(3, 2))[1]
        d = len(m)
        sizes, size_of = {}, {}
        for n in range(1, 9):
            sizes[n] = _class_sizes(m, n)
            assert sizes[n].sum() == 8 ** n
            F = compositions(n, d)
            size_of[n] = lambda rows, n=n: sizes[n][rows @ (n + 1) ** np.arange(d)]
            assert size_of[n](F).tolist() == [exact_freq_count(f) * math.prod(m ** f) for f in F]
        shifts = [np.eye(d, dtype=np.int64)[i] - np.eye(d, dtype=np.int64)[j]
                  for i in range(d) for j in range(d) if i != j]
        for n, l in itertools.product(range(1, 5), repeat=2):
            F, G = compositions(n, d), compositions(l, d)
            pf, pg = np.repeat(F, len(G), axis=0), np.tile(G, (len(F), 1))
            for h in shifts:
                target = pf + pg - h
                ok = (target >= 0).all(axis=1)
                want = np.zeros(len(pf), dtype=bool)
                want[ok] = size_of[n](pf[ok]) * size_of[l](pg[ok]) <= size_of[n + l](target[ok])
                grid = np.vstack([feas for _, feas in _grid(F, G, h, m)]).ravel()
                i, j = int(np.flatnonzero(h == -1)[0]), int(np.flatnonzero(h == 1)[0])
                assert np.array_equal(feasible_rows(pf, pg, h, m), want)
                assert np.array_equal(grid, want)
                assert np.array_equal(_probe(pf[ok], pg[ok], m).feasible(i, j, 1), want[ok])  # targets >= 0

    @settings(max_examples=200)
    @given(_grouped_blocks(), st.data())
    def test_three_forms_agree_with_bigint_oracle(self, block, data):
        h, rows, ties, m = block
        F = np.array([f for f, _ in rows])
        G = np.array([g for _, g in rows])
        want = [_grouped_oracle(f, g, h, m) for f, g in zip(F, G)]
        assert feasible_rows(F, G, h, m).tolist() == want
        Fn, Gl = F[F.sum(axis=1) == F[0].sum()], G[G.sum(axis=1) == G[0].sum()]  # one n, one l
        grid = np.vstack([feas for _, feas in _grid(Fn, Gl, h, m)])
        assert grid.tolist() == [[_grouped_oracle(f, g, h, m) for g in Gl] for f in Fn]
        for f, g, hh in ties:
            assert feasible_rows([f], [g], hh, m)[0] == _grouped_oracle(f, g, hh, m)
            assert next(_grid(np.array([f]), np.array([g]), hh, m))[1][0, 0] == (
                _grouped_oracle(f, g, hh, m))
        if len(h) < 2:
            return
        F, G = _search_rows(rows, h)
        if len(F):
            probe = _probe(F, G, m)
            probe.commit(h)
            i, j = data.draw(st.permutations(range(len(h))))[:2]
            a = data.draw(st.integers(0, int(probe.cap[j])))
            moved = probe.moved(i, j, a)
            assert probe.feasible(i, j, a).tolist() == [_grouped_oracle(f, g, moved, m) for f, g in zip(F, G)]
        for f, g, hh in ties:  # each tie's hh is a transfer from h = 0
            i, j = (int(np.argmin(hh)), int(np.argmax(hh))) if any(hh) else (1, 0)
            probe = _probe([f], [g], m)
            assert probe.moved(i, j, max(hh)).tolist() == list(hh)
            assert probe.feasible(i, j, max(hh))[0] == _grouped_oracle(f, g, hh, m)

    def test_exact_ties_are_feasible(self):
        """|Freq((1, 1))| = 2 = 2^1 and |Freq((4, 1))| = 5 = 5^1: one count moved
        off a letter of multiplicity 2 or 5.  With no bath, the same move off a
        letter of multiplicity 3 is a tie only for m = 1."""
        assert feasible_rows([(1, 0)], [(1, 0)], (1, -1), (2, 1)).tolist() == [True]
        assert _probe([(1, 0)], [(1, 0)], (2, 1)).feasible(1, 0, 1).tolist() == [True]
        grid = next(_grid(np.array([(1, 0)]), np.array([(4, 0)]), (1, -1), (5, 1)))[1]
        assert grid.tolist() == [[True]]
        assert feasible_rows([(1, 0)] * 2, [(0, 0)] * 2, (1, -1)).tolist() == [True, True]
        assert feasible_rows([(1, 0)], [(0, 0)], (1, -1), (3, 1)).tolist() == [False]


    @pytest.mark.parametrize("m, want", [((100_001, 1, 1), False), ((200_000, 2, 1), True),
                                         ((200_001, 2, 1), False)])
    def test_near_ties_are_decided_exactly(self, m, want):
        """f = (1, 0, 0), g = (49999, 0, 50000), h = (1, -1, 0): |Freq(f+g-h)| /
        |Freq(g)| = 100000, so the predicate reads m_0 / m_1 <= 100000.  The
        float gap, at most 1e-5 nats, lies inside the slack window (about 1.4e-4
        at |lhs| ~ 7e4), so each form decides in big integers, with the power of
        m_0 on the left and of m_1 on the right."""
        F, G, h = np.array([(1, 0, 0)]), np.array([(49_999, 0, 50_000)]), (1, -1, 0)
        assert feasible_rows(F, G, h, m).tolist() == [want]
        assert next(_grid(F, G, h, m))[1].tolist() == [[want]]
        assert _probe(F, G, m).feasible(1, 0, 1).tolist() == [want]


@st.composite
def _grids(draw):
    """(F, G, h, m, chunk): every type of n letters on a support of the d
    letters (0 in the other columns), every type of l letters, a zero-sum
    shift that may leave every target negative, letter multiplicities, and the
    GRID_CHUNK to decide the grid in."""
    d = draw(st.integers(1, 5))
    n, l = (draw(st.integers(0, 6 if d < 5 else 4)) for _ in range(2))
    support = sorted(draw(st.sets(st.integers(0, d - 1), min_size=1)))
    head = draw(st.lists(st.integers(-(n + l + 2), n + l + 2), min_size=d - 1, max_size=d - 1))
    m = draw(st.lists(st.integers(1, 5), min_size=d, max_size=d))
    chunk = draw(st.sampled_from([1, 7, GRID_CHUNK]))
    return _in_support(n, d, support), compositions(l, d), tuple(head) + (-sum(head),), tuple(m), chunk


def _in_support(n, d, support):
    """Every type of n letters on the letters in support, 0 in the other columns."""
    F = np.zeros((math.comb(n + len(support) - 1, len(support) - 1), d), dtype=np.int64)
    F[:, support] = compositions(n, len(support))
    return F


class TestFeasibleGrid:
    @settings(max_examples=200, deadline=None)
    @given(_grids())
    # one letter: no free target coordinate
    @example((compositions(3, 1), compositions(2, 1), (0,), (1,), GRID_CHUNK))
    @example((compositions(3, 1), compositions(0, 1), (0,), (4,), 1))
    # three letters, l = 0, letter 2 outside the support
    @example((_in_support(3, 3, [0, 1]), compositions(0, 3), (1, -1, 0), (1, 1, 1), GRID_CHUNK))
    @example((_in_support(3, 3, [0, 1]), compositions(0, 3), (-1, 0, 1), (1, 2, 1), GRID_CHUNK))
    # every target negative
    @example((compositions(2, 2), compositions(1, 2), (5, -5), (1, 1), GRID_CHUNK))
    # five letters, the table over one coordinate and four columns left out
    @example((compositions(4, 5), compositions(4, 5), (1, -1, 2, 0, -2), (2, 1, 3, 1, 5), 7))
    def test_matches_feasible_rows_on_the_flattened_grid(self, grid):
        """Blocks of max(1, GRID_CHUNK // Ng) F rows, in order, that together
        decide every (f, g) pair as feasible_rows does, for tables over every
        prefix of the free target coordinates (small chunks leave columns out)."""
        F, G, h, m, chunk = grid
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(typeclass, "GRID_CHUNK", chunk)
            blocks = list(_grid(F, G, h, m))
        assert [lo for lo, _ in blocks] == list(range(0, len(F), max(1, chunk // len(G))))
        grid = np.vstack([feas for _, feas in blocks])
        assert grid.shape == (len(F), len(G))
        pairs = np.repeat(F, len(G), axis=0), np.tile(G, (len(F), 1))
        assert grid.ravel().tolist() == feasible_rows(*pairs, h, m).tolist()

    @pytest.mark.parametrize("chunk", [1, GRID_CHUNK, 1 << 22])
    def test_rechecks_exactly_the_pairs_inside_their_window(self, monkeypatch, chunk):
        """f = (1, 0, 0), g = (g_0, 0, l - g_0), h = (1, -1, 0), m = (M, 1, 1):
        |Freq(f+g-h)| / |Freq(g)| = l + 1 for every g_0, so each such pair is a
        near tie at the gap ln((l + 1) / M), while its window
        FEASIBILITY_SLACK (1 + |lhs| + |rhs|) grows with |Freq(g)|.  M puts the
        gap inside the windows of the central g rows and outside those of the
        outer ones.  Both forms hand to the big-integer check exactly the pairs
        inside their window, computed here as the kernel orders its sums, each
        once; the chunks decide the grid from a table of none or all of the
        free target coordinates."""
        l, h = 10 ** 6 - 1, (1, -1, 0)
        F = np.array([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        g0 = np.linspace(0.3 * l, 0.5 * l, 41).astype(np.int64)
        G = np.vstack([np.column_stack([g0, 0 * g0, l - g0]), [(l // 2, 1, l - l // 2 - 1)]])
        T = F[:, None, :] + G[None, :, :] - h
        rhs = np.full(T.shape[:2], gammaln(l + 2.0))
        for c in range(3):
            rhs = rhs - gammaln(np.maximum(T[..., c], 0) + 1.0)
        ok = (T >= 0).all(axis=2)

        def window(m):
            lhs = log_multinomial_rows(F)[:, None] + (log_multinomial_rows(G) + np.asarray(h) @ np.log(m))
            return ok & (np.abs(lhs - rhs) <= FEASIBILITY_SLACK * (1.0 + np.abs(lhs) + np.abs(rhs)))

        w = FEASIBILITY_SLACK * (1.0 + 2.0 * log_multinomial_rows(G[:41]))  # about the ties' windows
        m = (round((l + 1) * math.exp(-float(np.median(w)))), 1, 1)
        inside = window(m)
        assert 0 < inside[0, :41].sum() < 41  # the gap splits the ties
        want = sorted((tuple(F[i]), tuple(G[j])) for i, j in zip(*np.nonzero(inside)))
        calls, exact = [], typeclass._exact_feasible

        def recorded(f, g, hh, mm):
            calls.append((tuple(np.asarray(f).tolist()), tuple(np.asarray(g).tolist())))
            return exact(f, g, hh, mm)

        monkeypatch.setattr(typeclass, "_exact_feasible", recorded)
        monkeypatch.setattr(typeclass, "GRID_CHUNK", chunk)
        grid = np.vstack([feas for _, feas in _grid(F, G, h, m)])
        assert sorted(calls) == want
        calls.clear()
        rows = feasible_rows(np.repeat(F, len(G), axis=0), np.tile(G, (len(F), 1)), h, m)
        assert sorted(calls) == want
        assert grid.ravel().tolist() == rows.tolist()
        assert grid[0, :41].all()  # M < l + 1: every tie is feasible


class TestTypeProbability:
    def test_distribution_normalizes(self):
        p = (0.5, 0.3, 0.2)
        logs = log_type_prob_rows(compositions(50, 3), p)
        total = sum(math.exp(x) for x in logs)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_support_violation_is_minus_infinity(self):
        assert log_type_prob_rows([(1, 1)], (1.0, 0.0))[0] == -math.inf

    def test_peak_at_expected_type(self):
        p = (0.8, 0.2)
        F = compositions(10, 2)
        assert tuple(F[np.argmax(log_type_prob_rows(F, p))]) == (8, 2)

