"""Pinching channels: energy pinching and joint Schur/energy pinching.

Includes the mixture-of-energy-conserving-unitaries realization and the
quantitative pinching inequality / relative-entropy loss checks.  The values
derived from a Schur basis (its Weyl letters, their energies, the Schur
pinchings) are kept per basis object, 16 of each, and keep that basis alive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from thermoflux.core import (
    DensityMatrix,
    DimensionMismatchError,
    ThermalContext,
    _block_spectrum,
    _check_cap,
    _entries,
    _frozen,
    relative_entropy,
    string_energies,
)
from thermoflux.schur import SchurBasis, build_schur_basis

PROJ_TOL = 1e-10
PAD_BUDGET = 16 ** 3  # multiply-adds: about numpy's fixed cost of one batched product


@dataclass(frozen=True, eq=False)
class BasisFamily:
    """The projectors Pi_j = sum_{c : groups[c] = j} |u_c><u_c| onto groups of
    the columns u_c of a unitary U, with labels[j] naming Pi_j.

    Its sectors are the connected components of the rows and columns of U, a
    row and a column linked where U has a nonzero entry and two columns where
    they share a projector; they are found once per family.  U is exactly
    block diagonal on them, with blocks U_s = U[rows_s, cols_s], and each Pi_j
    lies in one sector.  For the Schur change of basis they are the energy
    classes of the strings (each column lives on one type class's strings and
    each (lambda, E) group has one energy); for energy pinching (U = I) they
    are the energy classes too; a dense U gives one sector.

    One bound is checked in place of the pairwise projector checks:
    ||U^dag U - I||_F <= eps = PROJ_TOL/2, summed over the sectors, as the
    off-sector blocks of U^T U are exact zeros.  It implies that every Pi_j is
    Hermitian, idempotent, orthogonal to the others and that they sum to the
    identity, each within PROJ_TOL entrywise: with U_j the columns of group j
    and E = U^dag U - I, Pi_j^2 - Pi_j = U_j E_jj U_j^dag and
    Pi_i Pi_j = U_i E_ij U_j^dag have norm <= ||U_j||^2 eps <= (1 + eps) eps,
    and sum_j Pi_j - I = U U^dag - I has the spectrum of E.  It also makes
    every U_s square.  Pi_j is Hermitian by construction.  U is real (the
    Schur basis, the identity), so apply maps Re rho and Im rho apart in real
    products.  The dense projectors are built on each read and not kept.
    """

    unitary: np.ndarray
    groups: np.ndarray  # projector index of each column of unitary
    labels: tuple = None  # optional (diagram rows or None, energy Fraction) per projector

    def __post_init__(self):
        u = np.asarray(self.unitary)
        if np.any(np.imag(u)):
            raise ValueError("unitary must be real")
        u, groups = u.real, np.array(self.groups, dtype=np.intp)
        if u.ndim != 2 or u.shape[0] != u.shape[1] or groups.shape != (u.shape[0],):
            raise DimensionMismatchError(f"unitary {u.shape} and groups {groups.shape} mismatch")
        count = int(groups.max()) + 1
        if groups.min() < 0 or np.bincount(groups).min() == 0:
            raise ValueError("groups must number the projectors 0..J-1, each non-empty")
        if self.labels is not None and len(self.labels) != count:
            raise ValueError(f"{len(self.labels)} labels for {count} projectors")
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "groups", _frozen(groups))
        dev = 0.0
        for rows, cols in self.sectors:
            block = u[np.ix_(rows, cols)]
            dev += float(np.sum(np.square(block.T @ block - np.eye(len(cols)))))
        if np.sqrt(dev) > PROJ_TOL / 2:
            raise ValueError(f"basis not unitary: ||U^dag U - I||_F = {np.sqrt(dev):g}")

    @property
    def dim(self) -> int:
        return len(self.groups)

    def __len__(self) -> int:
        return int(self.groups.max()) + 1

    @cached_property
    def members(self) -> tuple:
        """The columns of each projector, in increasing order; read-only."""
        return tuple(_frozen(np.flatnonzero(self.groups == j)) for j in range(len(self)))

    @cached_property
    def sectors(self) -> tuple:
        """(rows, cols) of each sector, both in increasing order, the sectors in
        increasing order of their least column; read-only.  A row that no
        column reaches (U is then not unitary) is in none."""
        u, d = self.unitary, self.dim
        r, c = np.nonzero(u)
        a = np.concatenate([c, np.arange(d)])  # nodes: columns 0..d-1, rows d..2d-1
        b = np.concatenate([r + d, np.unique(self.groups, return_index=True)[1][self.groups]])
        label = np.arange(2 * d)
        while True:  # each node takes its neighbours' least label, then its label's label
            new = label.copy()
            np.minimum.at(new, a, label[b])
            np.minimum.at(new, b, label[a])
            new = new[new]
            if np.array_equal(new, label):
                break
            label = new
        # each component is now labelled by its least node, a column if it has one
        return tuple((_frozen(np.flatnonzero(label[d:] == key)), _frozen(np.flatnonzero(label[:d] == key)))
                     for key in np.unique(label[:d]))

    @cached_property
    def _plan(self) -> tuple:
        """apply's gathers, (buckets, blocks); read-only.  The largest sector
        left opens a bucket of size n, and every sector whose padding to n
        costs under PAD_BUDGET multiply-adds per product joins it.  A bucket
        of S sectors is (take, u, mask): take (2, S, n, n) the positions of
        Re and Im of rho[rows_s, rows_s] in the float view of a C-ordered
        dim x dim complex array, padded slots one entry past its end; u[s] =
        U_s, its padding zero, which zeroes the padding of M_s = U_s^T rho U_s;
        mask[s] the in-projector pattern of M_s.  apply concatenates the Re and
        Im parts of the M_s, bucket after bucket, in one array; blocks holds,
        per projector rank r, the (count, 2, r, r) positions there of the
        blocks U_j^T rho U_j, in increasing rank."""
        d, rest = self.dim, sorted(self.sectors, key=lambda sector: -len(sector[1]))
        buckets, blocks, offset = [], {}, 0
        while rest:
            n = len(rest[0][1])
            cut = sum(n ** 3 - len(cols) ** 3 < PAD_BUDGET for _, cols in rest)
            sel, rest = rest[:cut], rest[cut:]
            rows, g, u = np.full((cut, n), d), np.full((cut, n), -1), np.zeros((cut, n, n))
            for s, (r, c) in enumerate(sel):
                rows[s, :len(r)], g[s, :len(c)] = r, self.groups[c]
                u[s, :len(r), :len(c)] = self.unitary[np.ix_(r, c)]
            pad = rows == d
            at = np.where(pad[:, :, None] | pad[:, None, :], d * d, rows[:, :, None] * d + rows[:, None, :])
            buckets.append((_frozen(np.stack([2 * at, 2 * at + 1])), _frozen(u),
                            _frozen(g[:, :, None] == g[:, None, :])))
            for s, gs in enumerate(g):
                for j in np.unique(gs[gs >= 0]):
                    loc = np.flatnonzero(gs == j)
                    at = offset + (s * n + loc[:, None]) * n + loc
                    blocks.setdefault(len(loc), []).append((at, at + g.size * n))
            offset += 2 * g.size * n
        return tuple(buckets), tuple(_frozen(np.array(blocks[r])) for r in sorted(blocks))

    @property
    def projectors(self) -> tuple:
        u = self.unitary
        return tuple(_frozen((u[:, cols] @ u[:, cols].T).astype(complex)) for cols in self.members)


@dataclass(frozen=True)
class PinchingChannel:
    family: BasisFamily

    @property
    def dim(self) -> int:
        return self.family.dim


def apply(channel: PinchingChannel, rho):
    """sum_j Pi_j rho Pi_j = U (mask o M) U^T for M = U^T rho U; trace preserving.

    Formed sector by sector: an entry of M within a projector reads only the
    block rho_s = rho[rows_s, rows_s] of its sector, M_s = U_s^T rho_s U_s, and
    the output is U_s (mask_s o M_s) U_s^T on each rows_s x rows_s block and
    exactly zero elsewhere, as U is zero off the sectors.  So the result is
    that of the dense products up to rounding (for energy pinching, U = I,
    byte for byte).  Each bucket of sectors (BasisFamily._plan) goes through
    one batched product, padded with zero rows and columns of U_s, which keep
    the padding out of the output; the real U maps Re rho and Im rho apart, in
    real products.  A DensityMatrix comes back with the spectrum of the blocks
    M_j = U_j^T rho U_j, read off the M_s, one eigvalsh per stack of equal-rank
    blocks, and no solve of the output; the state checks still run.  The
    output is still U B U^T, B = mask o M holding the blocks M_j up to a
    permutation.  For eps = PROJ_TOL/2, U U^T has its spectrum in [1 - eps,
    1 + eps], so by Ostrowski's theorem the i-th eigenvalue of U B U^T is theta_i
    lambda_i(B) with theta_i in [1 - eps, 1 + eps]; as |lambda_i(B)| <= ||M|| <=
    1 + eps, the sorted spectra differ by at most eps (1 + eps), beyond rounding."""
    r, d = _entries(rho), channel.dim
    if r.shape != (d, d):
        raise DimensionMismatchError(f"state shape {r.shape} vs channel dim {d}")
    buckets, blocks = channel.family._plan
    flat = np.ascontiguousarray(r).view(float).ravel()
    out, ms = np.zeros(2 * d * d + 2), []  # the entry past the end takes the padded slots
    for take, u, mask in buckets:
        # padded slots read rho's last entry (clipped), which U_s's zero padding drops
        ms.append(u.swapaxes(1, 2) @ flat.take(take, mode="clip") @ u)
        out[take] = u @ (ms[-1] * mask) @ u.swapaxes(1, 2)
    out = out[:-2].view(complex).reshape(d, d)
    if not isinstance(rho, DensityMatrix):
        return out
    m = np.concatenate([m_s.ravel() for m_s in ms])
    return DensityMatrix(out, _block_spectrum(m[at[:, 0]] + 1j * m[at[:, 1]] for at in blocks))


def energy_pinching(ctx: ThermalContext, n: int) -> PinchingChannel:
    """One diagonal projector per distinct total energy of H^{x n} (exact
    grouping), in increasing energy order, labelled (None, energy).  Built once
    per (ctx.levels, n) and kept; its arrays are read-only."""
    _check_cap(ctx.dim ** n)
    return _energy_pinching(ctx.levels, n)


@lru_cache(maxsize=8)
def _energy_pinching(levels: tuple, n: int) -> PinchingChannel:
    strings = string_energies(levels, n)
    energies = sorted(set(strings))
    index = {e: j for j, e in enumerate(energies)}
    return PinchingChannel(family=BasisFamily(
        unitary=_frozen(np.eye(len(strings))),
        groups=[index[e] for e in strings],
        labels=tuple((None, e) for e in energies),
    ))


def _schur_basis(ctx: ThermalContext, k: int, basis: SchurBasis) -> SchurBasis:
    """basis, checked against (k, d), or by default the cached build_schur_basis(k, d)."""
    _check_cap(ctx.dim ** k)
    if basis is None:
        return build_schur_basis(k, ctx.dim)
    if basis.n != k or basis.d != ctx.dim:
        raise DimensionMismatchError("basis does not match (n, d)")
    return basis


@lru_cache(maxsize=16)
def _weyl_letters(basis: SchurBasis) -> tuple:
    """Copy 0 of the blocks as one read-only (d^n, sum n_lambda) array; m_lambda per column."""
    blocks = basis.blocks
    return (
        _frozen(np.hstack([b.weyl_basis for b in blocks])),
        _frozen(np.repeat([b.sym_dim for b in blocks], [b.weyl_dim for b in blocks])),
    )


@lru_cache(maxsize=16)
def _letter_energies(levels: tuple, basis: SchurBasis) -> tuple:
    """Exact energies of the Weyl vectors and of the Schur basis columns (their Weyl vector's)."""
    weyl = tuple(e for b in basis.blocks for e in b.energy_labels(levels))
    return weyl, tuple(e for e, m in zip(weyl, _weyl_letters(basis)[1]) for _ in range(m))


@lru_cache(maxsize=16)
def _schur_pinching(levels: tuple, basis: SchurBasis) -> PinchingChannel:
    groups = []
    labels = []
    for b in basis.blocks:
        energies = b.energy_labels(levels)
        distinct = sorted(set(energies))
        index = {e: len(labels) + j for j, e in enumerate(distinct)}
        labels += [(b.diagram.rows, e) for e in distinct]
        groups += [index[e] for e in energies for _ in range(b.sym_dim)]
    bound = (basis.n + 1) ** (2 * (basis.d - 1))
    if len(labels) > bound:
        raise RuntimeError(f"projector count {len(labels)} exceeds bound {bound}")
    return PinchingChannel(
        family=BasisFamily(unitary=basis.change_of_basis, groups=groups, labels=tuple(labels))
    )


def schur_pinching(ctx: ThermalContext, n: int, basis: SchurBasis = None) -> PinchingChannel:
    """Pinching onto the energy eigenspaces of H_lambda (x) I within each Schur
    block: the Schur change of basis, each column labelled by its block and the
    energy of its Weyl vector.  Built once per basis and ctx.levels (on the
    cached basis by default) and kept; its arrays are read-only."""
    return _schur_pinching(ctx.levels, _schur_basis(ctx, n, basis))


def mixture_realization(channel: PinchingChannel) -> list:
    """Unitaries U_k = sum_j exp(2 pi i j k / J) Pi_j whose uniform mixture is the pinching."""
    projs = channel.family.projectors
    J = len(projs)
    return [sum(np.exp(2j * np.pi * j * k / J) * p for j, p in enumerate(projs, start=1))
            for k in range(1, J + 1)]


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


def _copy0_masses(ctx: ThermalContext, k: int, rho, basis: SchurBasis):
    """(basis, q, m): q_w = <w|rho^{x k}|w> for the sum n_lambda Weyl vectors w of
    copy 0 (unnormalised, snapped to the floor) and m_lambda per w.

    rho is applied to one tensor axis at a time (no d^k x d^k power).  Rounding
    moves q_w by at most (k (d + 2) + d^k) 2^-53 (|w| = 1 and ||rho||_F <= 1),
    which is below the floor k d^k 2^-52 for d >= 2.  Values below the floor
    (2.7e-13 for a qutrit at k = 5) are set to exactly 0: a letter of zero mass
    always is, and a snapped letter's true mass is below twice the floor.
    """
    basis = _schur_basis(ctx, k, basis)
    weyl, repeats = _weyl_letters(basis)
    r, d = _entries(rho), ctx.dim
    if r.shape != (d, d):
        raise DimensionMismatchError(f"state shape {r.shape} vs single-system dim {d}")
    x = weyl.reshape((d,) * k + (-1,))
    for _ in range(k):  # rho on the last tensor axis, which then moves to the front
        x = np.tensordot(r, x, axes=([1], [k - 1]))
    q = np.einsum("ac,ac->c", weyl, x.reshape(weyl.shape)).real
    q[q < k * d ** k * 2.0 ** -52] = 0.0
    return basis, q, repeats


def schur_pinched_letters(ctx: ThermalContext, k: int, rho, basis: SchurBasis = None):
    """The k-copy block as sum n_lambda Weyl letters: (probs, energies,
    multiplicities), letter w of block lambda carrying the mass m_lambda q_w of
    its m_lambda equiprobable, equal-energy copies.  Letter order: blocks in
    diagram order, Weyl index within.  They are the spectrum of the Schur-pinched
    block when each (lambda, E) block holds one Weyl vector, as it always does for
    qubits; for d >= 3 they are a further dephasing of it, so D(p_k||t_k) can lie
    below D(P(rho^{x k})||tau^{x k})."""
    basis, q, repeats = _copy0_masses(ctx, k, rho, basis)
    probs = q * repeats
    return probs / probs.sum(), _letter_energies(ctx.levels, basis)[0], repeats


def schur_pinched_distribution(ctx: ThermalContext, k: int, rho, basis: SchurBasis = None):
    """Diagonal of rho^{x k} in the Schur eigenbasis with per-letter exact energies: each
    Weyl letter's q_w repeated, bitwise, for its m_lambda copies.  Letter order:
    blocks in diagram order, Weyl index major, multiplicity minor."""
    basis, q, repeats = _copy0_masses(ctx, k, rho, basis)
    probs = np.repeat(q, repeats)
    return probs / probs.sum(), _letter_energies(ctx.levels, basis)[1]
