"""Schur-Weyl decomposition of (C^d)^{x n}.

Enumerates Young diagrams, computes irrep dimensions (Weyl / hook-length
formulas), and constructs an orthonormal Schur basis in which every
permutation-invariant operator is block diagonal as A_lambda (x) I_{m_lambda}.

Construction, with no sum over the n! permutations.  The symmetric-group
irreps are taken in Young's orthogonal form (YOR), indexed by standard
tableaux, each held as its row word (the row of entry 1, 2, ...).  For each
diagram lambda:

* Copy 0 of the Weyl space is the range of E_00, the projector onto the
  joint eigenspace of the Jucys-Murphy elements X_j = sum_{i<j} (i j) whose
  eigenvalues are the contents of tableau 0 (Okounkov-Vershik).  Permutations
  keep the occupation type of a string, so E_00 is applied type class by type
  class, as a product of Lagrange factors (X_j - c')/(c_j - c') on the
  |S| x |S| block of the type's strings S; each X_j is j - 1 index gathers.
* Canonical rule: the Weyl vectors of a type are the Gram-Schmidt
  orthonormalisation, with one reorthogonalisation, of E_00 e_s over the
  type's strings s in increasing index order; residuals below GS_SKIP are
  skipped and the first nonzero amplitude of each vector is made positive.
  The basis is thus fixed even where a (lambda, type) subspace has dimension
  (Kostka number) above 1.
* Copy t' >= 1 follows from an earlier copy t through YOR, read off the
  contents c of tableau t: for the adjacent transposition a_j with axial
  distance a = c_{j+1} - c_j, |a| >= 2, V_{a_j} e_t = e_t / a +
  sqrt(1 - 1/a^2) e_t', t' being t with entries j + 1 and j + 2 swapped, so
  e_t' is one index gather and no YOR matrix is formed.

Conventions: type classes in decreasing lexicographic count order; Young
diagrams in decreasing lexicographic order; standard tableaux as row words in
increasing order.  build_schur_basis caches the basis by (n, d); its arrays
are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from thermoflux.core import _check_cap
from thermoflux.typeclass import compositions, strings_of_type

GS_SKIP = 1e-6  # Gram-Schmidt residual norm below which an image vector adds nothing
UNITARY_TOL = 5e-11  # bound on ||U^T U - I||_F for a built basis


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
    """All partitions of n with at most d parts, in decreasing lexicographic order:
    the non-increasing rows of compositions(n, d) in reverse, zeros dropped."""
    if n < 1 or d < 1:
        raise ValueError("n >= 1 and d >= 1 required")
    rows = compositions(n, d)[::-1]
    rows = rows[np.all(rows[:, :-1] >= rows[:, 1:], axis=1)]
    return [YoungDiagram(tuple(int(c) for c in f if c)) for f in rows]


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
    """Standard tableaux as row words, in increasing order: word[i] is the
    0-based row of entry i + 1."""
    rows = diagram.rows
    words = [()]
    for _ in range(diagram.total):  # extending sorted prefixes in row order keeps them sorted
        words = [w + (r,) for w in words for r in range(len(rows))
                 if w.count(r) < rows[r] and (r == 0 or w.count(r) < w.count(r - 1))]
    return words


def _contents(word: tuple) -> list:
    """Content col - row of entries 1..n of the tableau with row word `word`."""
    return [word[:i].count(r) - r for i, r in enumerate(word)]


@dataclass(frozen=True)
class SchurBlock:
    diagram: YoungDiagram
    weyl_dim: int
    sym_dim: int
    weyl_basis: np.ndarray  # (dim, n_lambda) columns: one representative copy (t=0)
    types: tuple  # occupation vector of each Weyl basis vector
    copies: np.ndarray  # (dim, n_lambda, m_lambda); copies[:, i, t] = e_{i,t}

    def energy_labels(self, levels: tuple) -> tuple:
        """Exact total energy of each Weyl basis vector under H^{x n} of the levels."""
        return tuple(sum((c * levels[s] for s, c in enumerate(f)), Fraction(0)) for f in self.types)


@dataclass(frozen=True, eq=False)
class SchurBasis:
    """change_of_basis is the unitary whose columns are the Schur basis vectors.

    Column order: blocks in diagram order; within a block, Weyl index major,
    multiplicity copy minor — so invariant operators become A_lambda (x) I_m.
    Each block's weyl_basis and copies are read-only views of its columns.
    Bases compare and hash by identity.
    """

    n: int
    d: int
    blocks: tuple
    change_of_basis: np.ndarray


def _fix_phase(v: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(np.abs(v) > 1e-9)
    if nz.size:
        phase = v[nz[0]] / abs(v[nz[0]])
        v = v / phase
    return v


def _canonical_span(image: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning image: Gram-Schmidt with one
    reorthogonalisation over the columns in order, skipping residuals below
    GS_SKIP, each result phase-fixed by _fix_phase."""
    q = np.zeros((image.shape[0], 0))
    for col in image.T:
        v = col - q @ (q.T @ col)
        v = v - q @ (q.T @ v)
        norm = np.linalg.norm(v)
        if norm >= GS_SKIP:
            q = np.column_stack([q, _fix_phase(v / norm)])
    return q


def _transposition_maps(strings: np.ndarray, n: int, d: int) -> dict:
    """(i, j) -> positions in `strings` of the strings with slots i and j swapped."""
    digits = (strings[:, None] // d ** np.arange(n - 1, -1, -1)) % d
    place = d ** np.arange(n - 1, -1, -1)
    out = {}
    for j in range(n):
        for i in range(j):
            swapped = strings + (digits[:, i] - digits[:, j]) * (place[j] - place[i])
            out[i, j] = np.searchsorted(strings, swapped)
    return out


def _jm_projector(swaps: dict, contents: list, n: int, d: int, size: int) -> np.ndarray:
    """The joint eigenprojector of X_2..X_n with eigenvalues `contents` on one
    type class, as a product of Lagrange factors (X_j - c)/(c_j - c) over every
    other eigenvalue c that X_j can have on (C^d)^{x n}: -min(j, d-1) .. j for
    0-based slot j.  Each X_j is killed off its whole spectrum, so rounding
    residue from earlier factors is not amplified later; the nodes farthest
    from c_j go first, which keeps every intermediate factor small."""
    p = np.eye(size)
    for j in range(1, n):
        target = contents[j]
        nodes = sorted(range(-min(j, d - 1), j + 1), key=lambda c: -abs(c - target))
        for c in nodes[:-1]:  # the last, nearest node is target itself
            xp = sum(p[swaps[i, j]] for i in range(j))
            p = (xp - c * p) / (target - c)
    return p


@lru_cache(maxsize=None)
def _copy_steps(rows: tuple) -> tuple:
    """(new, old, j, g_old, g_new) in breadth-first order from tableau 0: copy
    `new`, old's word with letters j and j + 1 swapped, follows from copy `old`
    through a_j, whose YOR sends e_old to g_old e_old + g_new e_new: g_old = 1/a
    and g_new = sqrt(1 - 1/a^2) for the axial distance a = c[j+1] - c[j] of
    old's contents, and the swapped word is standard exactly when |a| >= 2."""
    words = standard_tableaux(YoungDiagram(rows))
    index = {w: i for i, w in enumerate(words)}
    steps, seen, queue = [], {0}, [0]
    for old in queue:
        word, c = words[old], _contents(words[old])
        for j in range(len(word) - 1):
            axial = c[j + 1] - c[j]
            if abs(axial) < 2:
                continue
            new = index[word[:j] + (word[j + 1], word[j]) + word[j + 2:]]
            if new not in seen:
                seen.add(new)
                queue.append(new)
                g_old = 1.0 / axial
                steps.append((new, old, j, g_old, math.sqrt(1.0 - g_old * g_old)))
    return tuple(steps)


def build_schur_basis(n: int, d: int) -> SchurBasis:
    """The Schur basis of (C^d)^{x n}, built once per (n, d); its arrays are read-only."""
    _check_cap(d ** n)
    return _schur_basis(n, d)


@lru_cache(maxsize=16)
def _schur_basis(n: int, d: int) -> SchurBasis:
    dim = d ** n
    slot_swaps = _transposition_maps(np.arange(dim), n, d)
    classes = []
    for f in compositions(n, d)[::-1]:  # decreasing lex order
        strings = strings_of_type(f)
        classes.append((tuple(int(c) for c in f), strings, _transposition_maps(strings, n, d)))

    u = np.zeros((dim, dim))
    layout = []
    offset = 0
    for diagram in enumerate_young_diagrams(n, d):
        n_lam, m_lam = irrep_dimensions(diagram, d)
        contents = _contents(standard_tableaux(diagram)[0])
        rep = np.zeros((dim, 0))
        types = []
        for f, strings, swaps in classes:
            q = _canonical_span(_jm_projector(swaps, contents, n, d, len(strings)))
            cols = np.zeros((dim, q.shape[1]))
            cols[strings] = q
            rep = np.column_stack([rep, cols])
            types += [f] * q.shape[1]
        if len(types) != n_lam:
            raise RuntimeError(
                f"Weyl space of {diagram.rows}: got {len(types)} vectors, expected {n_lam}"
            )
        copies = u[:, offset:offset + n_lam * m_lam].reshape(dim, n_lam, m_lam)
        copies[:, :, 0] = rep
        for new, old, j, g_old, g_new in _copy_steps(diagram.rows):
            copies[:, :, new] = (copies[slot_swaps[j, j + 1], :, old] - g_old * copies[:, :, old]) / g_new
        layout.append((diagram, n_lam, m_lam, tuple(types), offset))
        offset += n_lam * m_lam

    dev = float(np.linalg.norm(u.T @ u - np.eye(dim)))
    if dev > UNITARY_TOL:
        raise RuntimeError(f"Schur change of basis failed unitarity check: {dev:g}")
    u.flags.writeable = False
    blocks = []
    for diagram, n_lam, m_lam, types, offset in layout:
        copies = u[:, offset:offset + n_lam * m_lam].reshape(dim, n_lam, m_lam)
        blocks.append(SchurBlock(diagram=diagram, weyl_dim=n_lam, sym_dim=m_lam,
                                 weyl_basis=copies[:, :, 0], types=types, copies=copies))
    return SchurBasis(n=n, d=d, blocks=tuple(blocks), change_of_basis=u)


def decompose_permutation_invariant(a: np.ndarray, basis: SchurBasis) -> list:
    """Block-decompose a permutation-invariant operator: returns [(diagram, A_lambda)].

    Requires invariance within 1e-9 under the n - 1 adjacent transpositions,
    which generate S_n; verifies that reassembling (+) A_lambda (x) I_m
    reproduces the input within 1e-9.
    """
    a = np.asarray(a, dtype=complex)
    n, d = basis.n, basis.d
    swaps = _transposition_maps(np.arange(d ** n), n, d)
    for j in range(n - 1):
        src = swaps[j, j + 1]
        if np.max(np.abs(a[np.ix_(src, src)] - a)) > 1e-9:
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
