"""Seeded input states.

Random states are drawn in Latin-hypercube strata: each parameter that sets
a state's statistics in the energy basis (Bloch radius and polar angle for a
qubit, populations or spectrum for a qutrit) is split into as many equal-mass
strata as there are states in the cell, and every stratum is used exactly
once, at a position inside it drawn from the generator.  The states follow
the named measure and nothing is rejected; even a small cell covers the
whole state space, from near-thermal states to pure ones.
"""

from __future__ import annotations

import numpy as np


def latin_hypercube(rng: np.random.Generator, count: int, dims: int) -> np.ndarray:
    """count points in [0, 1)^dims with one point in each of count strata per axis."""
    u = np.empty((count, dims))
    for j in range(dims):
        u[:, j] = (rng.permutation(count) + rng.random(count)) / count
    return u


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def simplex_point(u: np.ndarray) -> np.ndarray:
    """Map a point of [0,1)^(d-1) to the uniform (Dirichlet(1,...,1)) simplex
    by inverting the stick-breaking marginals: the share taken at step i of
    the remaining d-i pieces is Beta(1, d-1-i)."""
    d = len(u) + 1
    out = np.empty(d)
    rest = 1.0
    for i, ui in enumerate(u):
        share = 1.0 - (1.0 - ui) ** (1.0 / (d - 1 - i))
        out[i] = rest * share
        rest -= out[i]
    out[-1] = rest
    return out


def qubit_states(rng: np.random.Generator, count: int, pure: bool) -> list:
    """Pure states from the Haar measure (uniform on the Bloch sphere) or
    mixed states from the Hilbert-Schmidt measure (uniform in the Bloch ball)."""
    u = latin_hypercube(rng, count, 2)
    out = []
    for radius_u, z_u in u:
        r = 1.0 if pure else radius_u ** (1.0 / 3.0)
        z = 2.0 * z_u - 1.0
        phi = 2.0 * np.pi * rng.random()
        s = np.sqrt(max(1.0 - z * z, 0.0))
        x, y = s * np.cos(phi), s * np.sin(phi)
        rho = 0.5 * np.array([[1 + r * z, r * (x - 1j * y)], [r * (x + 1j * y), 1 - r * z]])
        if pure:
            # rank one exactly, so eigenvalue clipping never enters the reference
            w, v = np.linalg.eigh(rho)
            psi = v[:, -1]
            rho = np.outer(psi, psi.conj())
        out.append(rho)
    return out


def qudit_states(rng: np.random.Generator, d: int, count: int, pure: bool) -> list:
    """Pure states from the Haar measure: uniform populations on the simplex,
    uniform phases.  Mixed states: a uniform spectrum on the simplex in a Haar
    eigenbasis.  Only the populations or the spectrum are stratified."""
    u = latin_hypercube(rng, count, d - 1)
    out = []
    for row in u:
        weights = simplex_point(row)
        if pure:
            phases = np.exp(2j * np.pi * rng.random(d))
            psi = np.sqrt(weights) * phases
            out.append(np.outer(psi, psi.conj()))
        else:
            v = haar_unitary(rng, d)
            rho = (v * weights) @ v.conj().T
            out.append(0.5 * (rho + rho.conj().T))
    return out
