"""Tests for the symmetric-group/unitary-group joint block decomposition."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoflux.core import ThermalContext, thermal_state, tensor_power
from thermoflux.schur import (
    YoungDiagram,
    _copy_steps,
    _fix_phase,
    _schur_basis,
    build_schur_basis,
    decompose_permutation_invariant,
    enumerate_young_diagrams,
    hook_length_dimension,
    irrep_dimensions,
    standard_tableaux,
    weyl_dimension,
)
from thermoflux.typeclass import compositions, strings_of_type

from oracles import perm_index_map, permutation_operator, row_words, yor_matrix

QUBIT = ThermalContext(levels=(0, 1), beta=1.0)


class TestYoungDiagrams:
    def test_rows_must_be_non_increasing(self):
        with pytest.raises(ValueError):
            YoungDiagram(rows=(1, 2))

    def test_enumeration_depth_bound(self):
        """Diagrams with at most d rows partition n."""
        for n, d in [(3, 2), (4, 2), (4, 3), (5, 3)]:
            diags = enumerate_young_diagrams(n, d)
            assert all(dg.depth <= d and dg.total == n for dg in diags)

    def test_three_boxes_two_rows(self):
        rows = [dg.rows for dg in enumerate_young_diagrams(3, 2)]
        assert rows == [(3,), (2, 1)]

    def test_dimension_identity(self):
        """sum over diagrams of n_lambda * m_lambda = d^n."""
        for n, d in [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3)]:
            total = 0
            for dg in enumerate_young_diagrams(n, d):
                nl, ml = irrep_dimensions(dg, d)
                total += nl * ml
            assert total == d ** n

    def test_weyl_dimension_examples(self):
        assert weyl_dimension(YoungDiagram((3,)), 2) == 4
        assert weyl_dimension(YoungDiagram((2, 1)), 2) == 2
        assert weyl_dimension(YoungDiagram((2, 1)), 3) == 8

    def test_hook_length_examples(self):
        assert hook_length_dimension(YoungDiagram((3,))) == 1
        assert hook_length_dimension(YoungDiagram((2, 1))) == 2
        assert hook_length_dimension(YoungDiagram((2, 2))) == 2
        assert hook_length_dimension(YoungDiagram((3, 2))) == 5

    def test_standard_tableaux_count_matches_hook_formula(self):
        for rows in [(2, 1), (2, 2), (3, 1), (3, 2), (2, 1, 1)]:
            dg = YoungDiagram(rows)
            assert len(standard_tableaux(dg)) == hook_length_dimension(dg)


def _diagrams(max_n, max_rows):
    return [dg for n in range(1, max_n + 1) for dg in enumerate_young_diagrams(n, max_rows)]


def _partitions(n, max_parts):
    """The partitions of n into at most max_parts parts, brute force: every
    multiset of parts summing to n, its parts sorted in decreasing order."""
    return {tuple(sorted(parts, reverse=True))
            for r in range(1, max_parts + 1)
            for parts in itertools.combinations_with_replacement(range(1, n + 1), r)
            if sum(parts) == n}


class TestTableauxAndCopySteps:
    def test_enumeration_matches_sorted_partitions(self):
        for n in range(1, 13):
            partitions = _partitions(n, 6)
            for d in range(1, 7):
                want = sorted((p for p in partitions if len(p) <= d), reverse=True)
                assert [dg.rows for dg in enumerate_young_diagrams(n, d)] == want

    @pytest.mark.parametrize("diagram", _diagrams(8, 4), ids=lambda dg: str(dg.rows))
    def test_words_are_increasing_standard_and_counted(self, diagram):
        words = standard_tableaux(diagram)
        assert len(words) == hook_length_dimension(diagram)
        assert all(a < b for a, b in zip(words, words[1:]))
        for word in words:
            assert tuple(word.count(r) for r in range(diagram.depth)) == diagram.rows
            for i, r in enumerate(word):  # each prefix fills no row past the one above
                assert r == 0 or word[:i + 1].count(r) <= word[:i].count(r - 1)
        if diagram.total <= 7:
            assert words == row_words(diagram)

    @pytest.mark.parametrize("diagram", _diagrams(8, 4), ids=lambda dg: str(dg.rows))
    def test_copy_steps_reach_every_tableau_once(self, diagram):
        words = standard_tableaux(diagram)
        reached = [0]
        for new, old, j, g_old, g_new in _copy_steps(diagram.rows):
            assert old in reached and new not in reached
            reached.append(new)
            assert words[new] == words[old][:j] + (words[old][j + 1], words[old][j]) + words[old][j + 2:]
            pos = [(r, words[old][:e].count(r)) for e, r in enumerate(words[old])]
            axial = (pos[j + 1][1] - pos[j + 1][0]) - (pos[j][1] - pos[j][0])
            assert abs(axial) >= 2 and g_old == 1.0 / axial
            assert abs(g_old ** 2 + g_new ** 2 - 1.0) <= 1e-15 and g_new > 0
        assert sorted(reached) == list(range(len(words)))


class TestSymmetricGroupRepresentation:
    def test_yor_is_homomorphism(self):
        dg = YoungDiagram((2, 1))
        perms = list(itertools.permutations(range(3)))
        for p in perms:
            for q in perms:
                pq = tuple(p[q[j]] for j in range(3))
                assert np.allclose(
                    yor_matrix(dg, pq), yor_matrix(dg, p) @ yor_matrix(dg, q), atol=1e-12
                )

    def test_yor_is_orthogonal(self):
        dg = YoungDiagram((3, 2))
        for p in [(1, 0, 2, 3, 4), (4, 3, 2, 1, 0), (1, 2, 3, 4, 0)]:
            u = yor_matrix(dg, p)
            assert np.allclose(u @ u.T, np.eye(u.shape[0]), atol=1e-12)

    def test_permutation_operator_is_homomorphism(self):
        perms = list(itertools.permutations(range(3)))
        for p in perms[:4]:
            for q in perms[:4]:
                pq = tuple(p[q[j]] for j in range(3))
                assert np.allclose(
                    permutation_operator(pq, 3, 2),
                    permutation_operator(p, 3, 2) @ permutation_operator(q, 3, 2),
                    atol=1e-12,
                )

    def test_permutation_operator_moves_slots(self):
        """The operator for perm sends the basis string s to the string whose
        slot perm[j] holds s's slot-j letter."""
        perm = (1, 2, 0)
        v = np.zeros(8)
        v[0b100] = 1.0  # letter 1 in slot 0 (most-significant digit)
        out = permutation_operator(perm, 3, 2) @ v
        assert out[0b010] == pytest.approx(1.0)


class TestSchurBasisConstruction:
    def test_change_of_basis_is_unitary(self):
        for n, d in [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (2, 4)]:
            u = build_schur_basis(n, d).change_of_basis
            assert np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-10)

    def test_block_dimensions_three_qubits(self):
        basis = build_schur_basis(3, 2)
        dims = [(b.diagram.rows, b.weyl_dim, b.sym_dim) for b in basis.blocks]
        assert dims == [((3,), 4, 1), ((2, 1), 2, 2)]

    def test_permutations_act_block_diagonally(self):
        """Conjugated permutation operators decompose as I (x) u_lambda, for
        every adjacent transposition and a few random permutations, u_lambda
        from the oracle's own Young's orthogonal form."""
        from scipy.linalg import block_diag

        rng = np.random.default_rng(7)
        for n, d in [(3, 2), (4, 2), (5, 2), (3, 3)]:
            basis = build_schur_basis(n, d)
            u = basis.change_of_basis
            adjacent = [tuple(range(j)) + (j + 1, j) + tuple(range(j + 2, n)) for j in range(n - 1)]
            for perm in adjacent + [tuple(int(x) for x in rng.permutation(n)) for _ in range(3)]:
                v = u.conj().T @ permutation_operator(perm, n, d) @ u
                expected = [np.kron(np.eye(b.weyl_dim), yor_matrix(b.diagram, perm)) for b in basis.blocks]
                assert np.allclose(v, block_diag(*expected), atol=1e-9)

    def test_symmetric_block_vectors_are_type_sums(self):
        """The multiplicity-free symmetric block consists of the normalized
        sums over each type class."""
        basis = build_schur_basis(3, 2)
        sym = basis.blocks[0]
        for i in range(sym.weyl_dim):
            v = sym.copies[:, i, 0]
            weight = sum(bin(s).count("1") for s in np.flatnonzero(np.abs(v) > 1e-12))
            support = np.flatnonzero(np.abs(v) > 1e-12)
            assert np.allclose(
                np.abs(v[support]), 1.0 / math.sqrt(len(support)), atol=1e-12
            )

    def test_energy_labels_exact(self):
        basis = build_schur_basis(3, 2)
        labels = basis.blocks[0].energy_labels(QUBIT.levels)
        assert sorted(float(e) for e in labels) == [0.0, 1.0, 2.0, 3.0]


class TestInvariantDecomposition:
    def test_thermal_tensor_power_decomposes(self):
        basis = build_schur_basis(3, 2)
        tau3 = tensor_power(thermal_state(QUBIT), 3).entries
        parts = decompose_permutation_invariant(tau3, basis)
        assert [dg.rows for dg, _ in parts] == [(3,), (2, 1)]
        total = sum(
            float(np.trace(a).real) * b.sym_dim
            for (_, a), b in zip(parts, basis.blocks)
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_non_invariant_input_rejected(self):
        basis = build_schur_basis(2, 2)
        a = np.diag([0.0, 1.0, 0.0, 0.0])  # weight on |01> only: breaks swap symmetry
        with pytest.raises(ValueError):
            decompose_permutation_invariant(a, basis)

    def test_invariant_under_one_swap_only_rejected(self):
        """Weight on the strings whose slot 2 is 1: invariant under (0 1), not under (1 2)."""
        basis = build_schur_basis(3, 2)
        a = np.diag(np.arange(8.0) % 2)
        src = perm_index_map((1, 0, 2), 3, 2)
        assert np.array_equal(a[np.ix_(src, src)], a)
        with pytest.raises(ValueError, match="not permutation invariant"):
            decompose_permutation_invariant(a, basis)


def _oracle(n, d):
    """The construction by sums over all n! permutations: matrix units
    E_ts = (m/n!) sum_pi u(pi)_ts V_pi in Young's orthogonal form, copy 0 read
    off the range of E_00 type class by type class by an SVD, copy t = E_t0
    copy 0.  Returns per diagram (copies, {type: E_00 image of the type's
    strings in increasing index order})."""
    dim = d ** n
    perms = list(itertools.permutations(range(n)))
    maps = {p: perm_index_map(p, n, d) for p in perms}
    types = [tuple(int(c) for c in f) for f in compositions(n, d)[::-1]]
    out = []
    for diagram in enumerate_young_diagrams(n, d):
        n_lam, m_lam = irrep_dimensions(diagram, d)
        yor = {p: yor_matrix(diagram, p) for p in perms}

        def unit(t_out, t_in, vecs):
            acc = np.zeros_like(vecs)
            for p in perms:
                acc += yor[p][t_out, t_in] * vecs[maps[p], :]
            return (m_lam / math.factorial(n)) * acc

        cols, images = [], {}
        for f in types:
            strings = strings_of_type(f)
            seeds = np.zeros((dim, len(strings)))
            seeds[strings, np.arange(len(strings))] = 1.0
            images[f] = unit(0, 0, seeds)
            q, sv, _ = np.linalg.svd(images[f], full_matrices=False)
            cols += [_fix_phase(q[:, r]) for r in range(int(np.sum(sv > 1e-8)))]
        copies = np.zeros((dim, n_lam, m_lam))
        copies[:, :, 0] = np.column_stack(cols)
        for t in range(1, m_lam):
            copies[:, :, t] = unit(t, 0, copies[:, :, 0])
        out.append((copies, images))
    return out


def _gram_schmidt_rule(image):
    """The canonical rule, stated apart from the library: Gram-Schmidt with one
    reorthogonalisation over the columns in order, residuals below 1e-6
    skipped, first nonzero amplitude made positive."""
    vecs = []
    for col in image.T:
        v = col.copy()
        for _ in range(2):
            for w in vecs:
                v = v - (w @ v) * w
        if np.linalg.norm(v) >= 1e-6:
            v = v / np.linalg.norm(v)
            vecs.append(v * np.sign(v[np.flatnonzero(np.abs(v) > 1e-9)[0]]))
    return np.array(vecs).T.reshape(len(image), len(vecs))


class TestAgainstPermutationSumOracle:
    @pytest.mark.parametrize("n, d", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (2, 3), (3, 3)])
    def test_basis_matches_oracle(self, n, d):
        basis = build_schur_basis(n, d)
        for block, (copies, _) in zip(basis.blocks, _oracle(n, d)):
            assert np.max(np.abs(block.copies - copies)) <= 1e-10

    def test_qutrit_four_copies_subspaces_match_and_vectors_follow_the_rule(self):
        """Where a (lambda, type) subspace has dimension above 1 the oracle's
        vectors are set by the SVD's rounding; the subspaces must still agree,
        and copy 0 must be the canonical rule applied to the oracle's image."""
        basis = build_schur_basis(4, 3)
        for block, (copies, images) in zip(basis.blocks, _oracle(4, 3)):
            for f, image in images.items():
                sel = [i for i, g in enumerate(block.types) if g == f]
                if not sel:
                    assert _gram_schmidt_rule(image).shape[1] == 0
                    continue
                for t in range(block.sym_dim):
                    ours, theirs = block.copies[:, sel, t], copies[:, sel, t]
                    assert np.max(np.abs(ours @ ours.T - theirs @ theirs.T)) <= 1e-10
                assert np.max(np.abs(block.weyl_basis[:, sel] - _gram_schmidt_rule(image))) <= 1e-10


class TestCachedBasis:
    def test_built_once_per_size(self):
        assert build_schur_basis(4, 2) is build_schur_basis(4, 2)

    def test_bases_compare_and_hash_by_identity(self):
        basis, fresh = build_schur_basis(3, 2), _schur_basis.__wrapped__(3, 2)
        assert basis == basis and basis != fresh
        assert len({basis, fresh, build_schur_basis(3, 2)}) == 2

    def test_arrays_are_read_only(self):
        basis = build_schur_basis(3, 2)
        block = basis.blocks[1]
        for arr in (basis.change_of_basis, block.copies, block.weyl_basis):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        assert np.shares_memory(block.copies, basis.change_of_basis)

    def test_qubit_eight_copies(self):
        basis = build_schur_basis(8, 2)
        u = basis.change_of_basis
        assert np.linalg.norm(u.T @ u - np.eye(256)) <= 1e-11
        assert [b.weyl_dim * b.sym_dim for b in basis.blocks] == [9, 49, 100, 84, 14]


SIZES = st.sampled_from([(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (2, 4)])


class TestSchurProperties:
    @settings(max_examples=25)
    @given(size=SIZES, seed=st.integers(0, 2 ** 32 - 1))
    def test_invariant_operators_block_diagonalise(self, size, seed):
        """U is unitary, and sum_i c_i X_i^{x n} for random complex X_i (such
        operators span the permutation-invariant ones) becomes
        (+) A_lambda (x) I_m."""
        n, d = size
        rng = np.random.default_rng(seed)
        a = sum(
            rng.normal() * tensor_power(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), n)
            for _ in range(3)
        )
        basis = build_schur_basis(n, d)
        u = basis.change_of_basis
        assert np.linalg.norm(u.conj().T @ u - np.eye(len(u))) <= 5e-11
        got = u.conj().T @ a @ u
        want = np.zeros_like(got)
        offset = 0
        for b in basis.blocks:
            size_b = b.weyl_dim * b.sym_dim
            sub = got[offset:offset + size_b, offset:offset + size_b]
            a_lam = sub.reshape(b.weyl_dim, b.sym_dim, b.weyl_dim, b.sym_dim)[:, 0, :, 0]
            want[offset:offset + size_b, offset:offset + size_b] = np.kron(a_lam, np.eye(b.sym_dim))
            offset += size_b
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(a)))
