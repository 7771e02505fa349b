"""Reference implementations that tests compare the library's fast paths
against: a validating constructor for projector families, Young's orthogonal
form of any permutation (dense generator matrices built here from tableau
positions, apart from the library's copy walk), the action of any
permutation on string indices and as a dense operator on the tensor power,
and the energies of the strings of H^{x n} read off one digit string at a
time."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from thermoflux.core import DimensionMismatchError, _check_cap
from thermoflux.pinching import PROJ_TOL
from thermoflux.schur import YoungDiagram


@dataclass(frozen=True)
class ProjectorFamily:
    """A complete family of mutually orthogonal Hermitian projectors."""

    dim: int
    projectors: tuple

    def __post_init__(self):
        projs = tuple(np.asarray(p, dtype=complex) for p in self.projectors)
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for p in projs:
            if p.shape != (self.dim, self.dim):
                raise DimensionMismatchError("projector shape mismatch")
            if np.max(np.abs(p - p.conj().T)) > PROJ_TOL:
                raise ValueError("projector not Hermitian")
            if np.max(np.abs(p @ p - p)) > PROJ_TOL:
                raise ValueError("projector not idempotent")
            total += p
        if np.max(np.abs(total - np.eye(self.dim))) > PROJ_TOL:
            raise ValueError("projector family incomplete")
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                if np.max(np.abs(projs[i] @ projs[j])) > PROJ_TOL:
                    raise ValueError("projectors not mutually orthogonal")
        object.__setattr__(self, "projectors", projs)

    def __len__(self) -> int:
        return len(self.projectors)


def product_energies(levels, n: int) -> list:
    """Exact energy of each of the d^n strings, summed digit by digit over
    itertools.product, in computational-basis order."""
    return [sum((levels[i] for i in digits), Fraction(0))
            for digits in itertools.product(range(len(levels)), repeat=n)]


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


def row_words(diagram: YoungDiagram) -> list:
    """Standard tableaux of the diagram as row words (word[e] = 0-based row of
    entry e + 1), sorted: every word with the diagram's row counts whose
    prefixes never fill a row past the one above it."""
    rows = diagram.rows
    words = []
    for word in itertools.product(range(len(rows)), repeat=diagram.total):
        counts = [0] * len(rows)
        for r in word:
            counts[r] += 1
            if r and counts[r] > counts[r - 1]:
                break
        else:
            if tuple(counts) == rows:
                words.append(word)
    return words


def yor_generators(diagram: YoungDiagram) -> list:
    """Dense Young's orthogonal form of a_e = (e + 1, e + 2), e = 0..n-2: with
    r, c the row and column of each entry and axial distance
    a = (c_{e+1} - r_{e+1}) - (c_e - r_e), tableau T goes to T / a plus
    sqrt(1 - 1/a^2) times T with the two entries swapped, if they lie in
    different rows and the swap is standard."""
    words = row_words(diagram)
    index = {w: i for i, w in enumerate(words)}
    gens = [np.zeros((len(words), len(words))) for _ in range(diagram.total - 1)]
    for i, w in enumerate(words):
        pos = [(r, w[:e].count(r)) for e, r in enumerate(w)]
        for e, g in enumerate(gens):
            (r1, c1), (r2, c2) = pos[e], pos[e + 1]
            axial = (c2 - r2) - (c1 - r1)
            g[i, i] = 1.0 / axial
            swapped = w[:e] + (w[e + 1], w[e]) + w[e + 2:]
            if r1 != r2 and swapped in index:
                g[index[swapped], i] = math.sqrt(1.0 - 1.0 / axial ** 2)
    return gens


def yor_matrix(diagram: YoungDiagram, perm: tuple) -> np.ndarray:
    """u_lambda(pi) in Young's orthogonal form; perm is 0-based one-line notation."""
    u = np.eye(len(row_words(diagram)))
    gens = yor_generators(diagram)
    for k in _adjacent_decomposition(perm):
        u = u @ gens[k]
    return u


def perm_index_map(perm: tuple, n: int, d: int) -> np.ndarray:
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
    src = perm_index_map(perm, n, d)
    op = np.zeros((d ** n, d ** n))
    op[np.arange(d ** n), src] = 1.0
    return op
