"""Sampling simulation and statistical guarantees for the learning step.

Hoeffding sample sizing, seeded type sampling with a documented stream-splitting
rule, and the classical relative entropy of the estimated statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SamplingOracle:
    """i.i.d. source over a finite alphabet.

    mode "exact" is the infinite-sample idealization (p_hat = p); mode "sampled"
    draws multinomial counts from a PCG64 generator seeded with
    SeedSequence([oracle_seed, call_seed]) — the stream-splitting rule that keeps
    parallel sweeps reproducible regardless of scheduling.
    """

    distribution: tuple
    seed: int = 0
    mode: str = "sampled"

    def __post_init__(self):
        p = tuple(float(x) for x in self.distribution)
        if any(x < 0 for x in p) or abs(sum(p) - 1.0) > 1e-9:
            raise ValueError("distribution must be a probability vector")
        if self.mode not in ("sampled", "exact"):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "distribution", p)


@dataclass(frozen=True)
class EmpiricalDistribution:
    counts: tuple
    m: int

    def __post_init__(self):
        if sum(self.counts) != self.m and self.m > 0:
            raise ValueError("counts must sum to m")

    @property
    def p_hat(self) -> np.ndarray:
        if self.m == 0:
            return np.array(self.counts, dtype=float)
        return np.array(self.counts, dtype=float) / self.m


def hoeffding_sample_size(d_alphabet: int, eta: float, delta: float) -> int:
    """Samples sufficient for Pr[||p - p_hat||_1 > eta] <= delta over a d-letter alphabet."""
    if not (0 < eta <= 1) or not (0 < delta < 1):
        raise ValueError("need eta in (0,1], delta in (0,1)")
    return math.ceil((d_alphabet * math.log(2) + math.log(1.0 / delta)) / (2 * eta * eta))


def sample_types(oracle: SamplingOracle, m: int, seed: int = 0) -> EmpiricalDistribution:
    """Type measurement on m blocks; exact mode returns p_hat = p (scaled counts)."""
    if m < 1:
        raise ValueError("m >= 1 required")
    p = np.array(oracle.distribution)
    if oracle.mode == "exact":
        # infinite-sample idealization: fractional counts proportional to p
        return EmpiricalDistribution(counts=tuple(float(x) * m for x in p), m=m)
    rng = np.random.default_rng(np.random.SeedSequence([oracle.seed, seed]))
    counts = rng.multinomial(m, p)
    return EmpiricalDistribution(counts=tuple(int(c) for c in counts), m=m)


def classical_relative_entropy(p, q) -> float:
    """D(p||q) in nats for distributions; +inf guarded by support check."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    if np.any(q[mask] <= 0):
        raise ValueError("p has support outside q")
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))
