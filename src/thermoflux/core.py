"""Dense complex linear algebra and entropic functionals for small multi-qudit systems.

States are immutable dense matrices, energies are exact rationals (so degeneracy
grouping is never tolerance-based), and every entropic quantity is in nats.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-9
TRACE_TOL = 1e-10
KERNEL_TOL = 1e-12
SUPPORT_TOL = 1e-9
DEFAULT_DIM_CAP = 4096


class DimensionMismatchError(ValueError):
    pass


class DimensionCapError(ValueError):
    pass


class SupportViolationError(ValueError):
    """Raised when D(rho||sigma) = +inf: rho has mass outside supp(sigma)."""


def dim_cap() -> int:
    """Dense-dimension cap; override with THERMOFLUX_DIM_CAP."""
    return int(os.environ.get("THERMOFLUX_DIM_CAP", DEFAULT_DIM_CAP))


def _check_cap(dim: int) -> None:
    cap = dim_cap()
    if dim > cap:
        raise DimensionCapError(f"dimension {dim} exceeds cap {cap}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _is_diagonal(a: np.ndarray) -> bool:
    """Every nonzero entry of a lies on its diagonal."""
    return np.count_nonzero(a) == np.count_nonzero(a.diagonal())


def _validate_state(entries: np.ndarray, evals=None) -> tuple:
    """The frozen state and its ascending spectrum (evals when given), or
    ValueError.  A diagonal matrix that passes the Hermitian check has the real
    part of its diagonal as its spectrum (eigvalsh reads only that), so it
    skips the eigensolver."""
    entries = np.asarray(entries, dtype=complex)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {entries.shape}")
    with np.errstate(invalid="ignore"):  # a non-finite entry leaves A - A^dag non-finite there
        herm_dev = np.max(np.abs(entries - entries.conj().T))
    if not np.isfinite(herm_dev):
        raise ValueError("matrix has a NaN or infinite entry")
    if herm_dev > HERMITIAN_TOL:
        raise ValueError(f"matrix not Hermitian: max |A - A^dag| = {herm_dev:g}")
    if evals is not None:
        evals = np.asarray(evals, dtype=float)
    elif _is_diagonal(entries):
        evals = np.sort(entries.diagonal().real)
    else:
        evals = np.linalg.eigvalsh(entries)
    if evals.min() < -PSD_TOL:
        raise ValueError(f"matrix not PSD: min eigenvalue {evals.min():g}")
    tr = float(entries.trace().real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace must be 1, got {tr:.12g}")
    return _frozen(entries), _frozen(evals)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD trace-1 complex matrix.  spectrum holds the ascending
    eigenvalues the validation computed, so entropies need no second solve; a
    caller that knows them exactly (tensor_power) passes them instead."""

    entries: np.ndarray
    spectrum: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        entries, spectrum = _validate_state(self.entries, self.spectrum)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "spectrum", spectrum)

    @classmethod
    def from_diagonal(cls, probs) -> "DensityMatrix":
        return cls(np.diag(np.asarray(probs, dtype=complex)))

    @classmethod
    def pure(cls, psi) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex).ravel()
        psi = psi / np.linalg.norm(psi)
        return cls(np.outer(psi, psi.conj()))

    def diagonal(self) -> np.ndarray:
        return self.entries.diagonal().real.copy()


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not x.is_integer():
            raise ValueError(
                f"energy {x!r} is not an exact rational; pass Fraction or int "
                "(exact energies keep degeneracy grouping exact)"
            )
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as exact rational energy")


@dataclass(frozen=True)
class ThermalContext:
    """Single-system Hamiltonian spectrum (exact rationals, sorted) plus beta.

    Derived quantities: partition function Z, E_max, Gibbs probabilities.
    """

    levels: tuple
    beta: float

    def __post_init__(self):
        levels = tuple(_as_fraction(e) for e in self.levels)
        if not levels:
            raise ValueError("at least one energy level required")
        if any(levels[i] > levels[i + 1] for i in range(len(levels) - 1)):
            raise ValueError("levels must be sorted non-decreasing")
        if not (self.beta >= 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be a finite non-negative real, got {self.beta}")
        object.__setattr__(self, "levels", levels)

    @property
    def dim(self) -> int:
        return len(self.levels)

    @property
    def e_max(self) -> Fraction:
        return self.levels[-1]

    @property
    def partition_function(self) -> float:
        return float(np.sum(np.exp(-self.beta * np.array([float(e) for e in self.levels]))))

    def gibbs_probabilities(self) -> np.ndarray:
        w = np.exp(-self.beta * np.array([float(e) for e in self.levels]))
        return w / w.sum()

    def continuity_constant(self, k: int = 1) -> float:
        """Lipschitz constant of D(.||tau^k) in trace distance: 1 + k(beta*E_max + ln Z)/sqrt(2)."""
        return 1.0 + k * (self.beta * float(self.e_max) + math.log(self.partition_function)) / math.sqrt(2.0)


def string_energies(levels, n: int) -> list:
    """Exact energy of each of the d^n strings of H^{x n}, as Fractions, in
    computational-basis order (the first copy's level most significant)."""
    if n < 1:
        raise ValueError("copies must be >= 1")
    _check_cap(len(levels) ** n)
    out = [Fraction(0)]
    for _ in range(n):
        out = [e + level for e in out for level in levels]
    return out


def _kron_power(a: np.ndarray, n: int) -> np.ndarray:
    """a (x) a (x) ... (x) a, n factors, of a vector or square matrix, multiplied
    left to right as repeated np.kron: one broadcast multiply and reshape per
    factor, the same products as np.kron, so bit for bit its result."""
    ax, out = (slice(None), None) * a.ndim, a  # out[ax] * a[ax[1:]]: (m, d) or (m, d, m, d)
    for _ in range(n - 1):
        out = (out[ax] * a[ax[1:]]).reshape(np.multiply(out.shape, a.shape))
    return out


def thermal_state(ctx: ThermalContext, copies: int = 1) -> DensityMatrix:
    """Gibbs state e^{-beta H}/Z of n non-interacting copies, built once per (ctx, copies), shared."""
    _check_cap(ctx.dim ** copies)
    return _thermal_state(ctx, copies)


@functools.lru_cache(maxsize=8)
def _thermal_state(ctx: ThermalContext, copies: int) -> DensityMatrix:
    return DensityMatrix.from_diagonal(_kron_power(ctx.gibbs_probabilities(), copies))


def _entries(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.entries
    return np.asarray(rho, dtype=complex)


def _xlogx(vals: np.ndarray) -> np.ndarray:
    out = np.zeros_like(vals)
    pos = vals > KERNEL_TOL
    out[pos] = vals[pos] * np.log(vals[pos])
    return out


def relative_entropy(rho, sigma) -> float:
    """Umegaki relative entropy D(rho||sigma) = Tr[rho ln rho - rho ln sigma], in nats.

    Raises SupportViolationError when rho has mass >= 1e-9 outside supp(sigma)
    (the D = +inf case).  A DensityMatrix rho brings its spectrum; a diagonal
    sigma has eigenvalues diag(sigma), eigenvectors the standard basis, and
    weights <v_i|rho|v_i> = rho_ii, so neither is decomposed again.
    """
    r = _entries(rho)
    s = _entries(sigma)
    if r.shape != s.shape:
        raise DimensionMismatchError(f"shape mismatch {r.shape} vs {s.shape}")
    rvals = rho.spectrum if isinstance(rho, DensityMatrix) else np.linalg.eigvalsh(r)
    if _is_diagonal(s):
        svals = s.diagonal().real
        weights = r.diagonal().real
    else:
        svals, svecs = np.linalg.eigh(s)
        weights = np.einsum("ij,ij->j", svecs.conj(), r @ svecs).real  # <v_i|rho|v_i>
    # mass of rho in the kernel of sigma
    kernel = svals <= KERNEL_TOL
    mass = float(weights[kernel].sum())
    if mass >= SUPPORT_TOL:
        raise SupportViolationError(
            f"rho has mass {mass:g} outside supp(sigma); D = +inf"
        )
    term1 = float(np.sum(_xlogx(np.clip(rvals, 0.0, None))))
    # Tr[rho ln sigma] over the support of sigma
    supp = ~kernel
    term2 = float(np.dot(weights[supp], np.log(svals[supp])))
    return term1 - term2


def tensor_power(rho, n: int):
    """n-fold Kronecker power.  A DensityMatrix power takes its spectrum from the
    sorted n-fold Kronecker power of rho.spectrum, with no eigensolver."""
    r = _entries(rho)
    _check_cap(r.shape[0] ** n)
    out = _kron_power(r, n)
    if isinstance(rho, DensityMatrix):
        return DensityMatrix(out, np.sort(_kron_power(rho.spectrum, n)))
    return out


def _block_spectrum(blocks) -> np.ndarray:
    """Ascending eigenvalues of a block-diagonal Hermitian matrix, one batched
    eigvalsh per block size."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(b).ravel() for b in blocks]))


def trace_distance(rho, sigma) -> float:
    """The unhalved trace norm ||rho - sigma||_1 (twice the trace distance),
    the quantity the relative-entropy continuity bound is stated in."""
    diff = _entries(rho) - _entries(sigma)
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
