"""Sampling simulation and statistical guarantees for the learning step.

The seeded type measurement, Hoeffding sample sizing, and the classical
relative entropy of the estimated statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Type counts of m measured blocks."""

    counts: tuple
    m: int

    def __post_init__(self):
        if sum(self.counts) != self.m:
            raise ValueError("counts must sum to m")

    @property
    def p_hat(self) -> np.ndarray:
        return np.array(self.counts, dtype=float) / self.m


def sample_types(p, m: int, seed: int) -> EmpiricalDistribution:
    """Type measurement of m blocks of the i.i.d. source p: multinomial counts
    drawn from a PCG64 generator seeded with SeedSequence([seed, 1]), a stream
    of its own among those the protocol derives from one seed."""
    if m < 1:
        raise ValueError("m >= 1 required")
    counts = np.random.default_rng(np.random.SeedSequence([seed, 1])).multinomial(m, p)
    return EmpiricalDistribution(counts=tuple(int(c) for c in counts), m=m)


def hoeffding_sample_size(d_alphabet: int, eta: float, delta: float) -> int:
    """Samples sufficient for Pr[||p - p_hat||_1 > eta] <= delta over a d-letter alphabet."""
    if not (0 < eta <= 1) or not (0 < delta < 1):
        raise ValueError("need eta in (0,1], delta in (0,1)")
    return math.ceil((d_alphabet * math.log(2) + math.log(1.0 / delta)) / (2 * eta * eta))


def hoeffding_radius(d_alphabet: int, m: int, delta: float) -> float:
    """The eta at which hoeffding_sample_size's bound, before rounding up, is m:
    the L1 radius of m samples over a d-letter alphabet at confidence 1 - delta."""
    return math.sqrt((d_alphabet * math.log(2) + math.log(1.0 / delta)) / (2 * m))


def classical_relative_entropy(p, q) -> float:
    """D(p||q) in nats for distributions; +inf guarded by support check."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    if np.any(q[mask] <= 0):
        raise ValueError("p has support outside q")
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))
