"""Reference implementations that tests compare the library's fast paths
against: a validating constructor for projector families, Young's orthogonal
form of any permutation, and the dense action of a permutation on the tensor
power."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from thermoflux.core import DimensionMismatchError, _check_cap
from thermoflux.pinching import PROJ_TOL
from thermoflux.schur import YoungDiagram, _perm_index_map, _yor_generators


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
