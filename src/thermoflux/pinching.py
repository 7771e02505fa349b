"""Pinching channels: energy pinching and joint Schur/energy pinching.

Includes the mixture-of-energy-conserving-unitaries realization and the
quantitative pinching inequality / relative-entropy loss checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from thermoflux.core import (
    DensityMatrix,
    DimensionMismatchError,
    HamiltonianOperator,
    ThermalContext,
    _entries,
    relative_entropy,
)
from thermoflux.schur import SchurBasis, build_schur_basis

PROJ_TOL = 1e-10


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


@dataclass(frozen=True, eq=False)
class BasisFamily:
    """The projectors Pi_j = sum_{c : groups[c] = j} |u_c><u_c| onto groups of
    the columns u_c of a unitary U, with labels[j] naming Pi_j.

    One bound is checked in place of the pairwise projector checks:
    ||U^dag U - I||_F <= eps = PROJ_TOL/2.  It implies that every Pi_j is
    Hermitian, idempotent, orthogonal to the others and that they sum to the
    identity, each within PROJ_TOL entrywise: with U_j the columns of group j
    and E = U^dag U - I, Pi_j^2 - Pi_j = U_j E_jj U_j^dag and
    Pi_i Pi_j = U_i E_ij U_j^dag have norm <= ||U_j||^2 eps <= (1 + eps) eps,
    and sum_j Pi_j - I = U U^dag - I has the spectrum of E.  Pi_j is Hermitian
    by construction.  The dense projectors are materialised only when read.
    """

    unitary: np.ndarray
    groups: np.ndarray  # projector index of each column of unitary
    labels: tuple = None  # optional (diagram rows or None, energy Fraction) per projector

    def __post_init__(self):
        u = np.asarray(self.unitary)
        groups = np.asarray(self.groups, dtype=np.intp)
        if u.ndim != 2 or u.shape[0] != u.shape[1] or groups.shape != (u.shape[0],):
            raise DimensionMismatchError(f"unitary {u.shape} and groups {groups.shape} mismatch")
        count = int(groups.max()) + 1
        if groups.min() < 0 or np.bincount(groups).min() == 0:
            raise ValueError("groups must number the projectors 0..J-1, each non-empty")
        if self.labels is not None and len(self.labels) != count:
            raise ValueError(f"{len(self.labels)} labels for {count} projectors")
        dev = float(np.linalg.norm(u.conj().T @ u - np.eye(len(u))))
        if dev > PROJ_TOL / 2:
            raise ValueError(f"basis not unitary: ||U^dag U - I||_F = {dev:g}")
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "groups", groups)

    @property
    def dim(self) -> int:
        return len(self.groups)

    def __len__(self) -> int:
        return int(self.groups.max()) + 1

    @cached_property
    def mask(self) -> np.ndarray:
        """mask[a, b]: columns a and b belong to the same projector."""
        return self.groups[:, None] == self.groups[None, :]

    @cached_property
    def projectors(self) -> tuple:
        u = self.unitary
        return tuple(
            (u[:, cols] @ u[:, cols].conj().T).astype(complex)
            for cols in (np.flatnonzero(self.groups == j) for j in range(len(self)))
        )


@dataclass(frozen=True)
class PinchingChannel:
    family: BasisFamily

    @property
    def dim(self) -> int:
        return self.family.dim

    def __call__(self, rho):
        return apply(self, rho)


def apply(channel: PinchingChannel, rho):
    """sum_j Pi_j rho Pi_j = U (mask o U^dag rho U) U^dag; trace preserving."""
    r = _entries(rho)
    if r.shape[0] != channel.dim:
        raise DimensionMismatchError(f"state dim {r.shape[0]} vs channel dim {channel.dim}")
    u = channel.family.unitary
    out = u @ ((u.conj().T @ r @ u) * channel.family.mask) @ u.conj().T
    if isinstance(rho, DensityMatrix):
        return DensityMatrix(out)
    return out


def energy_pinching(ctx: ThermalContext, n: int) -> PinchingChannel:
    """One diagonal projector per distinct total energy of H^{x n} (exact grouping)."""
    levels = HamiltonianOperator(ctx, n).exact_levels()
    energies = sorted(set(levels))
    index = {e: j for j, e in enumerate(energies)}
    return PinchingChannel(family=BasisFamily(
        unitary=np.eye(len(levels)),
        groups=[index[e] for e in levels],
        labels=tuple((None, e) for e in energies),
    ))


def schur_pinching(ctx: ThermalContext, n: int, basis: SchurBasis = None) -> PinchingChannel:
    """Pinching onto the energy eigenspaces of H_lambda (x) I within each Schur
    block: the Schur change of basis, each column labelled by its block and the
    energy of its Weyl vector."""
    if basis is None:
        basis = build_schur_basis(n, ctx.dim)
    if basis.n != n or basis.d != ctx.dim:
        raise DimensionMismatchError("basis does not match (n, d)")
    groups = []
    labels = []
    for b in basis.blocks:
        energies = b.energy_labels(ctx)
        levels = sorted(set(energies))
        index = {e: len(labels) + j for j, e in enumerate(levels)}
        labels += [(b.diagram.rows, e) for e in levels]
        groups += [index[e] for e in energies for _ in range(b.sym_dim)]
    bound = (n + 1) ** (2 * (ctx.dim - 1))
    if len(labels) > bound:
        raise RuntimeError(f"projector count {len(labels)} exceeds bound {bound}")
    return PinchingChannel(
        family=BasisFamily(unitary=basis.change_of_basis, groups=groups, labels=tuple(labels))
    )


def mixture_realization(channel: PinchingChannel) -> list:
    """Unitaries U_k = sum_j exp(2 pi i j k / J) Pi_j whose uniform mixture is the pinching."""
    projs = channel.family.projectors
    J = len(projs)
    out = []
    for k in range(1, J + 1):
        u = np.zeros((channel.dim, channel.dim), dtype=complex)
        for j, p in enumerate(projs, start=1):
            u += np.exp(2j * np.pi * j * k / J) * p
        out.append(u)
    return out


def pinching_inequality_check(channel: PinchingChannel, rho_tensor_k, multiplier: float):
    """min eigenvalue of P(rho^k) - rho^k / multiplier; passes iff >= -1e-9."""
    r = _entries(rho_tensor_k)
    pinched = apply(channel, r)
    mineig = float(np.linalg.eigvalsh(pinched - r / multiplier).min())
    return mineig, mineig >= -1e-9


def relative_entropy_loss(channel: PinchingChannel, rho_tensor_k, k: int) -> float:
    """(1/k) D(rho^k || P(rho^k)) — the per-copy pinching loss."""
    r = _entries(rho_tensor_k)
    return relative_entropy(r, apply(channel, r)) / k


def schur_pinched_distribution(ctx: ThermalContext, k: int, rho, basis: SchurBasis = None):
    """Diagonal of rho^{x k} in the Schur eigenbasis, with per-letter exact energies.

    Returns (probs, energies): the classical super-letter statistics that the
    Schur-pinched k-copy block presents to the downstream type machinery.
    Letter order: blocks in diagram order, Weyl index major, multiplicity minor.
    """
    if basis is None:
        basis = build_schur_basis(k, ctx.dim)
    from thermoflux.core import tensor_power

    u = basis.change_of_basis
    rk = _entries(tensor_power(rho, k))
    probs = np.clip(np.einsum("ij,ij->j", u.conj(), rk @ u).real, 0.0, None)
    energies = tuple(
        e for b in basis.blocks for e in b.energy_labels(ctx) for _ in range(b.sym_dim)
    )
    return probs / probs.sum(), energies
