"""Schur-Weyl decomposition of (C^d)^{x n}.

Enumerates Young diagrams, computes irrep dimensions (Weyl / hook-length
formulas), and constructs an orthonormal Schur basis in which every
permutation-invariant operator is block diagonal as A_lambda (x) I_{m_lambda}.

Construction: for each diagram we build the symmetric-group irrep in Young's
orthogonal form (the orthonormalized Young-symmetrizer basis indexed by
standard tableaux), turn its matrix elements into isotypic matrix units
E_{ts} = (m/n!) sum_pi u(pi)_{ts} V_pi, and read one copy of the Weyl space
off the range of E_{11}, type class by type class.  Convention: type classes
in decreasing lexicographic count order; first nonzero amplitude of each
basis vector real positive; standard tableaux sorted by their row word.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from thermoflux.core import ThermalContext, _check_cap
from thermoflux.typeclass import compositions


@dataclass(frozen=True)
class YoungDiagram:
    rows: tuple

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        if not rows or any(r <= 0 for r in rows):
            raise ValueError(f"rows must be positive: {rows}")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError(f"rows must be non-increasing: {rows}")
        object.__setattr__(self, "rows", rows)

    @property
    def total(self) -> int:
        return sum(self.rows)

    @property
    def depth(self) -> int:
        return len(self.rows)


def enumerate_young_diagrams(n: int, d: int) -> list:
    """All partitions of n with at most d parts, in decreasing lexicographic order."""
    if n < 1 or d < 1:
        raise ValueError("n >= 1 and d >= 1 required")
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(YoungDiagram(tuple(prefix)))
            return
        if len(prefix) == d:
            return
        for part in range(min(maxpart, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(n, n, [])
    # recursion with descending first parts already yields decreasing lex order
    return out


def weyl_dimension(diagram: YoungDiagram, d: int) -> int:
    """dim W_lambda = prod_{i<j} (l_i - l_j + j - i)/(j - i), rows padded to d."""
    lam = list(diagram.rows) + [0] * (d - diagram.depth)
    num = 1
    den = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


def hook_length_dimension(diagram: YoungDiagram) -> int:
    """dim U_lambda = n! / prod(hook lengths)."""
    rows = diagram.rows
    cols = [0] * rows[0]
    for r in rows:
        for c in range(r):
            cols[c] += 1
    hooks = 1
    for i, r in enumerate(rows):
        for j in range(r):
            hooks *= (r - j) + (cols[j] - i) - 1
    return math.factorial(diagram.total) // hooks


def irrep_dimensions(diagram: YoungDiagram, d: int) -> tuple:
    if diagram.depth > d:
        raise ValueError(f"diagram depth {diagram.depth} exceeds d={d}")
    return weyl_dimension(diagram, d), hook_length_dimension(diagram)


def standard_tableaux(diagram: YoungDiagram) -> list:
    """Standard tableaux as tuples of row-tuples, sorted by row word.

    The row word of a tableau is (row of entry 1, row of entry 2, ...).
    """
    rows = diagram.rows
    n = diagram.total

    results = []

    def rec(filled_counts, placement):
        k = len(placement) + 1
        if k > n:
            results.append(tuple(placement))
            return
        for r in range(len(rows)):
            if filled_counts[r] < rows[r] and (r == 0 or filled_counts[r] < filled_counts[r - 1]):
                filled_counts[r] += 1
                placement.append(r)
                rec(filled_counts, placement)
                placement.pop()
                filled_counts[r] -= 1

    rec([0] * len(rows), [])
    results.sort()

    tableaux = []
    for word in results:
        t = [[] for _ in rows]
        for entry, r in enumerate(word, start=1):
            t[r].append(entry)
        tableaux.append(tuple(tuple(r) for r in t))
    return tableaux


def _tableau_positions(tableau):
    """entry -> (row, col)."""
    pos = {}
    for i, row in enumerate(tableau):
        for j, entry in enumerate(row):
            pos[entry] = (i, j)
    return pos


@lru_cache(maxsize=None)
def _yor_generators(rows: tuple):
    """Young's orthogonal representation matrices for adjacent transpositions (k,k+1)."""
    diagram = YoungDiagram(rows)
    tableaux = standard_tableaux(diagram)
    index = {t: i for i, t in enumerate(tableaux)}
    m = len(tableaux)
    n = diagram.total
    gens = []
    for k in range(1, n):
        g = np.zeros((m, m))
        for t, i in index.items():
            pos = _tableau_positions(t)
            (r1, c1), (r2, c2) = pos[k], pos[k + 1]
            axial = (c2 - r2) - (c1 - r1)
            inv = 1.0 / axial
            g[i, i] = inv
            # swap k and k+1 in the tableau; if still standard, couple the pair
            swapped = tuple(
                tuple(k + 1 if e == k else k if e == k + 1 else e for e in row) for row in t
            )
            if swapped in index:
                j = index[swapped]
                g[j, i] = math.sqrt(1.0 - inv * inv)
        gens.append(g)
    return gens


def _adjacent_decomposition(perm: tuple) -> list:
    """Factor perm into adjacent transpositions: perm = a_{ops[0]} o a_{ops[1]} o ...

    (a_k swaps 0-based slots k and k+1; composition is (p o q)(j) = p[q[j]].)
    """
    p = list(perm)
    ops = []
    # bubble-sort to the identity; each swap is a right-multiplication by a_k
    changed = True
    while changed:
        changed = False
        for j in range(len(p) - 1):
            if p[j] > p[j + 1]:
                p[j], p[j + 1] = p[j + 1], p[j]
                ops.append(j)
                changed = True
    ops.reverse()
    return ops


def yor_matrix(diagram: YoungDiagram, perm: tuple) -> np.ndarray:
    """u_lambda(pi) in Young's orthogonal form; perm is 0-based one-line notation."""
    gens = _yor_generators(diagram.rows)
    m = gens[0].shape[0] if gens else 1
    u = np.eye(m)
    for k in _adjacent_decomposition(perm):
        u = u @ gens[k]
    return u


def _perm_index_map(perm: tuple, n: int, d: int) -> np.ndarray:
    """V_pi as an index permutation: V_pi |i_1..i_n> = |i_{pi^{-1}(1)}..i_{pi^{-1}(n)}>.

    Equivalently V_pi moves the content of tensor slot j to slot perm[j].
    Returns array `src` with (V_pi psi)[a] = psi[src[a]].
    """
    dims = (d,) * n
    idx = np.arange(d ** n).reshape(dims)
    # output axis perm[j] takes input axis j  ->  transpose with axes[out] = in
    axes = [0] * n
    for j in range(n):
        axes[perm[j]] = j
    return np.transpose(idx, axes=axes).ravel()


def permutation_operator(perm, n: int, d: int) -> np.ndarray:
    """Unitary matrix of the permutation action on (C^d)^{x n}.

    perm: sequence with perm[j] = image of tensor slot j (0-based).
    """
    perm = tuple(int(x) for x in perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n-1}: {perm}")
    _check_cap(d ** n)
    src = _perm_index_map(perm, n, d)
    op = np.zeros((d ** n, d ** n))
    op[np.arange(d ** n), src] = 1.0
    return op


def _strings_of_type(f: tuple, n: int, d: int) -> list:
    """Computational-basis indices of all strings with occupation f."""
    symbols = []
    for s, c in enumerate(f):
        symbols.extend([s] * c)
    seen = set()
    for p in itertools.permutations(symbols):
        idx = 0
        for s in p:
            idx = idx * d + s
        seen.add(idx)
    return sorted(seen)


@dataclass(frozen=True)
class SchurBlock:
    diagram: YoungDiagram
    weyl_dim: int
    sym_dim: int
    weyl_basis: np.ndarray  # (dim, n_lambda) columns: one representative copy (t=0)
    types: tuple  # occupation vector of each Weyl basis vector
    copies: np.ndarray  # (dim, n_lambda, m_lambda); copies[:, i, t] = e_{i,t}

    def energy_labels(self, ctx: ThermalContext) -> tuple:
        """Exact total energy of each Weyl basis vector under H^{x n}."""
        return tuple(
            sum((c * ctx.levels[s] for s, c in enumerate(f)), Fraction(0)) for f in self.types
        )


@dataclass(frozen=True)
class SchurBasis:
    n: int
    d: int
    blocks: tuple

    @property
    def dim(self) -> int:
        return self.d ** self.n

    @property
    def change_of_basis(self) -> np.ndarray:
        """Unitary whose columns are the Schur basis vectors.

        Column order: blocks in diagram order; within a block, Weyl index major,
        multiplicity copy minor — so invariant operators become A_lambda (x) I_m.
        """
        cols = []
        for b in self.blocks:
            for i in range(b.weyl_dim):
                for t in range(b.sym_dim):
                    cols.append(b.copies[:, i, t])
        return np.column_stack(cols)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(np.abs(v) > 1e-9)
    if nz.size:
        phase = v[nz[0]] / abs(v[nz[0]])
        v = v / phase
    return v


def build_schur_basis(n: int, d: int) -> SchurBasis:
    """Construct the full Schur basis of (C^d)^{x n}."""
    _check_cap(d ** n)
    dim = d ** n
    nfact = math.factorial(n)
    perms = list(itertools.permutations(range(n)))
    perm_maps = {p: _perm_index_map(p, n, d) for p in perms}
    types = [tuple(int(c) for c in f) for f in compositions(n, d)[::-1]]  # decreasing lex order
    type_strings = {f: _strings_of_type(f, n, d) for f in types}

    blocks = []
    for diagram in enumerate_young_diagrams(n, d):
        n_lam, m_lam = irrep_dimensions(diagram, d)
        yor = {p: yor_matrix(diagram, p) for p in perms}

        def matrix_unit_apply(t_out: int, t_in: int, vecs: np.ndarray) -> np.ndarray:
            """Apply E_{t_out, t_in} = (m/n!) sum_pi u(pi)_{t_out,t_in} V_pi to columns."""
            acc = np.zeros_like(vecs)
            for p in perms:
                c = yor[p][t_out, t_in]
                if c != 0.0:
                    acc += c * vecs[perm_maps[p], :]
            return (m_lam / nfact) * acc

        weyl_cols = []
        weyl_types = []
        for f in types:
            idxs = type_strings[f]
            seeds = np.zeros((dim, len(idxs)))
            seeds[idxs, np.arange(len(idxs))] = 1.0
            image = matrix_unit_apply(0, 0, seeds)
            # orthonormal basis of the image (Kostka-number rank)
            q, s, _ = np.linalg.svd(image, full_matrices=False)
            rank = int(np.sum(s > 1e-8))
            for r in range(rank):
                weyl_cols.append(_fix_phase(q[:, r]))
                weyl_types.append(f)
        if len(weyl_cols) != n_lam:
            raise RuntimeError(
                f"Weyl space of {diagram.rows}: got {len(weyl_cols)} vectors, expected {n_lam}"
            )
        rep = np.column_stack(weyl_cols)
        copies = np.zeros((dim, n_lam, m_lam))
        copies[:, :, 0] = rep
        for t in range(1, m_lam):
            copies[:, :, t] = matrix_unit_apply(t, 0, rep)
        blocks.append(
            SchurBlock(
                diagram=diagram,
                weyl_dim=n_lam,
                sym_dim=m_lam,
                weyl_basis=rep,
                types=tuple(weyl_types),
                copies=copies,
            )
        )
    basis = SchurBasis(n=n, d=d, blocks=tuple(blocks))
    u = basis.change_of_basis
    if np.max(np.abs(u.conj().T @ u - np.eye(dim))) > 1e-10:
        raise RuntimeError("Schur change of basis failed unitarity check")
    return basis


def decompose_permutation_invariant(a: np.ndarray, basis: SchurBasis) -> list:
    """Block-decompose a permutation-invariant operator: returns [(diagram, A_lambda)].

    Requires invariance under generating permutations within 1e-9; verifies that
    reassembling (+) A_lambda (x) I_m reproduces the input within 1e-9.
    """
    a = np.asarray(a, dtype=complex)
    n, d = basis.n, basis.d
    generators = []
    if n >= 2:
        generators.append(tuple([1, 0] + list(range(2, n))))
        generators.append(tuple(list(range(1, n)) + [0]))
    for p in generators:
        src = _perm_index_map(p, n, d)
        conj = a[np.ix_(src, src)]
        if np.max(np.abs(conj - a)) > 1e-9:
            raise ValueError("operator is not permutation invariant")

    u = basis.change_of_basis
    transformed = u.conj().T @ a @ u
    out = []
    offset = 0
    reassembled = np.zeros_like(transformed)
    for b in basis.blocks:
        size = b.weyl_dim * b.sym_dim
        sub = transformed[offset : offset + size, offset : offset + size]
        sub4 = sub.reshape(b.weyl_dim, b.sym_dim, b.weyl_dim, b.sym_dim)
        # average over multiplicity copies (they agree within tolerance)
        a_lam = np.einsum("itjt->ij", sub4) / b.sym_dim
        out.append((b.diagram, a_lam))
        reassembled[offset : offset + size, offset : offset + size] = np.kron(
            a_lam, np.eye(b.sym_dim)
        )
        offset += size
    if np.max(np.abs(reassembled - transformed)) > 1e-9:
        raise ValueError("block reassembly mismatch: operator not invariant enough")
    return out
