"""Method-of-types combinatorics in log domain.

Multinomial type counts, colexicographic enumeration, the injection-feasibility
counting inequality, and typical sets.  Feasibility decisions within the
floating-point slack are re-checked in exact big-integer arithmetic so the
predicate never flips due to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

FEASIBILITY_SLACK = 1e-9
ENUM_CAP = 10 ** 7


@dataclass(frozen=True)
class FreqVector:
    counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValueError(f"negative count in {counts}")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def d(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class ShiftFunction:
    shifts: tuple

    def __post_init__(self):
        shifts = tuple(int(s) for s in self.shifts)
        if sum(shifts) != 0:
            raise ValueError(f"shift must be zero-sum: {shifts}")
        object.__setattr__(self, "shifts", shifts)

    @property
    def d(self) -> int:
        return len(self.shifts)

    def work(self, levels) -> object:
        """Extracted work sum h(i) E_i (exact when levels are Fractions)."""
        return sum(h * e for h, e in zip(self.shifts, levels))


def _counts(f) -> tuple:
    if isinstance(f, FreqVector):
        return f.counts
    return tuple(int(c) for c in f)


def log_freq_count(f) -> float:
    """ln |Freq(n, f)| = ln( n! / prod f(i)! ) via log-gamma."""
    return float(log_multinomial_rows(np.array(_counts(f))))


def exact_freq_count(f) -> int:
    counts = _counts(f)
    n = sum(counts)
    out = math.factorial(n)
    for c in counts:
        out //= math.factorial(c)
    return out


def enumerate_freqs(n: int, d: int):
    """All occupation vectors of n items into d bins, colexicographic order."""
    if (n + 1) ** (d - 1) > ENUM_CAP:
        raise ValueError(f"enumeration of (n={n}, d={d}) exceeds cap {ENUM_CAP}")

    def rec(remaining, slots):
        if slots == 1:
            yield (remaining,)
            return
        for last in range(remaining + 1):
            for rest in rec(remaining - last, slots - 1):
                yield rest + (last,)

    for counts in rec(n, d):
        yield FreqVector(counts)


def feasible_rows(F, G, h, lhs=None) -> np.ndarray:
    """Row-wise |Freq(n,f)| |Freq(l,g)| <= |Freq(n+l, f+g-h)| for (N, d) rows F, G
    and one shift h; False where f+g-h has a negative entry.

    lhs, when given, is the precomputed ln|Freq(F)| + ln|Freq(G)| per row.  Rows
    within FEASIBILITY_SLACK (1 + |lhs| + |rhs|) of a tie are re-decided in
    exact big-integer arithmetic, so rounding never flips the predicate.
    """
    F, G = np.atleast_2d(F), np.atleast_2d(G)
    target = F + G - np.asarray(h)
    if lhs is None:
        lhs = log_multinomial_rows(F) + log_multinomial_rows(G)
    ok = (target >= 0).all(axis=1)
    rhs = np.full(len(target), -np.inf)
    rhs[ok] = log_multinomial_rows(target[ok])
    scale = 1.0 + np.abs(lhs) + np.abs(np.where(ok, rhs, 0.0))
    feas = ok & (lhs <= rhs)
    for i in np.flatnonzero(ok & (np.abs(lhs - rhs) <= FEASIBILITY_SLACK * scale)):
        feas[i] = exact_freq_count(F[i]) * exact_freq_count(G[i]) <= exact_freq_count(target[i])
    return feas


def injection_feasible(f, g, h) -> bool:
    """Whether |Freq(n,f)| |Freq(l,g)| <= |Freq(n+l, f+g-h)| with f+g-h well-defined."""
    fc, gc = _counts(f), _counts(g)
    hc = h.shifts if isinstance(h, ShiftFunction) else tuple(int(x) for x in h)
    if not (len(fc) == len(gc) == len(hc)):
        raise ValueError("dimension mismatch between f, g, h")
    return bool(feasible_rows([fc], [gc], hc)[0])


def log_multinomial_rows(counts: np.ndarray) -> np.ndarray:
    """Vectorized ln multinomial for an (N, d) integer array of occupation rows."""
    counts = np.asarray(counts)
    n = counts.sum(axis=-1)
    return gammaln(n + 1) - gammaln(counts + 1).sum(axis=-1)


def type_log_probability(f, p) -> float:
    """ln[ |Freq(n,f)| prod_i p_i^{f(i)} ]; -inf when p_i = 0 with f(i) > 0."""
    counts = _counts(f)
    p = np.asarray(p, dtype=float)
    total = log_freq_count(counts)
    for c, pi in zip(counts, p):
        if c == 0:
            continue
        if pi <= 0.0:
            return -math.inf
        total += c * math.log(pi)
    return total


@dataclass(frozen=True)
class TypicalSet:
    """Strongly delta-typical occupation vectors for base distribution p."""

    p: tuple
    n: int
    delta: float

    def contains(self, f) -> bool:
        counts = _counts(f)
        for c, pi in zip(counts, self.p):
            if pi == 0.0:
                if c != 0:
                    return False
            elif abs(c / self.n - pi) > self.delta:
                return False
        return True


def typical_mass(p, n: int, delta: float) -> float:
    """Exact probability that the empirical type is delta-typical."""
    p = tuple(float(x) for x in p)
    ts = TypicalSet(p=p, n=n, delta=delta)
    logs = [
        type_log_probability(f, p)
        for f in enumerate_freqs(n, len(p))
        if ts.contains(f)
    ]
    logs = [x for x in logs if x > -math.inf]
    if not logs:
        return 0.0
    m = max(logs)
    return float(math.exp(m) * sum(math.exp(x - m) for x in logs))
