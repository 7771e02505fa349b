"""Method-of-types combinatorics in log domain.

Multinomial type counts and log-probabilities, composition enumeration, and the
injection-feasibility counting inequality (row-wise, over a whole (f, g) grid,
or per two-letter transfer from a committed shift).  A type is an int row of
occupation counts; a letter of multiplicity m_c stands for m_c equivalent
letters, so a class of type f holds |Freq(f)| prod_c m_c^{f_c} strings
(multiplicities default to 1).  Feasibility decisions within the floating-point
slack are re-checked in exact big-integer arithmetic so the predicate never
flips due to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

FEASIBILITY_SLACK = 1e-9
ENUM_CAP = 10 ** 7
GRID_CHUNK = 1 << 14  # (f, g) pairs decided per block by feasible_grid


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
    return tuple(int(c) for c in f)


def exact_freq_count(f) -> int:
    counts = _counts(f)
    n = sum(counts)
    out = math.factorial(n)
    for c in counts:
        out //= math.factorial(c)
    return out


def compositions(n: int, d: int) -> np.ndarray:
    """(N, d) int64 array of all occupation vectors of n items into d bins, in
    lexicographic order."""
    if math.comb(n + d - 1, d - 1) > ENUM_CAP:
        raise ValueError(f"enumeration of (n={n}, d={d}) exceeds cap {ENUM_CAP}")
    rows, rest = np.zeros((1, 0), dtype=np.int64), np.array([n], dtype=np.int64)
    for _ in range(d - 1):  # fix one more leading coordinate c = 0..rest per row
        reps = rest + 1
        c = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        rows = np.column_stack([np.repeat(rows, reps, axis=0), c])
        rest = np.repeat(rest, reps) - c
    return np.column_stack([rows, rest])


def strings_of_type(f) -> np.ndarray:
    """Sorted int64 array of the base-d indices of all strings of occupation f
    (d = len(f), most significant digit first).

    Built one position at a time: every prefix is extended by each symbol it
    still has left, so the rows stay in increasing index order.
    """
    left = np.array([_counts(f)], dtype=np.int64)
    idx = np.zeros(1, dtype=np.int64)
    for _ in range(int(left.sum())):
        rows, sym = np.nonzero(left)
        idx = idx[rows] * left.shape[1] + sym
        left = left[rows]
        left[np.arange(len(rows)), sym] -= 1
    return idx


def _exact_feasible(f, g, h, m) -> bool:
    """The predicate in big integers for zero-sum h and T = f+g-h >= 0, divided by
    n! l! prod g_c!: prod T_c!/g_c! prod m^h <= C(n+l, n) prod f_c!, each T_c!/g_c! a
    falling factorial and each m_c^{h_c} an integer on one side; no l!-sized integer is divided."""
    f, g, h, m = (np.asarray(x).tolist() for x in (f, g, h, m))
    n, l = sum(f), sum(g)
    lhs = math.prod(mc ** hc for mc, hc in zip(m, h) if hc > 0)
    rhs = math.comb(n + l, n) * math.prod(map(math.factorial, f)) * math.prod(
        mc ** -hc for mc, hc in zip(m, h) if hc < 0)
    for x, y in ((a + b - c, b) for a, b, c in zip(f, g, h)):
        lhs, rhs = (lhs * math.perm(x, x - y), rhs) if x >= y else (lhs, rhs * math.perm(y, y - x))
    return lhs <= rhs


def _multiplicities(m, d: int) -> np.ndarray:
    return np.ones(d, dtype=np.int64) if m is None else np.asarray(m, dtype=np.int64)


def _decide(lhs, rhs, ok, exact) -> np.ndarray:
    """ok & (lhs <= rhs), elementwise.  Entries within FEASIBILITY_SLACK
    (1 + |lhs| + |rhs|) of a tie are re-decided by exact(*index) in big-integer
    arithmetic, so rounding never flips the predicate."""
    rhs = np.where(ok, rhs, 0.0)
    feas = ok & (lhs <= rhs)
    near = ok & (np.abs(lhs - rhs) <= FEASIBILITY_SLACK * (1.0 + np.abs(lhs) + np.abs(rhs)))
    for idx in zip(*np.nonzero(near)):
        feas[idx] = exact(*idx)
    return feas


def feasible_rows(F, G, h, m=None) -> np.ndarray:
    """Row-wise |Freq(n,f)| |Freq(l,g)| prod_c m_c^{h_c} <= |Freq(n+l, f+g-h)| for
    (N, d) rows F, G, one zero-sum shift h and letter multiplicities m (default
    1); False where f+g-h has a negative entry."""
    F, G = np.atleast_2d(F), np.atleast_2d(G)
    m = _multiplicities(m, F.shape[1])
    target = F + G - np.asarray(h)
    lhs = log_multinomial_rows(F) + log_multinomial_rows(G) + np.asarray(h) @ np.log(m)
    ok = (target >= 0).all(axis=1)
    rhs = np.zeros(len(target))
    rhs[ok] = log_multinomial_rows(target[ok])
    return _decide(lhs, rhs, ok, lambda i: _exact_feasible(F[i], G[i], h, m))


def feasible_grid(F, G, h, m=None):
    """The predicate of feasible_rows over the whole grid F x G of (Nf, d) rows
    of n letters and (Ng, d) rows of l letters.  Yields (lo, feas) for blocks of
    about GRID_CHUNK pairs, feas[i, j] deciding (F[lo + i], G[j]).

    ln|Freq(f+g-h)| = ln(n+l-sum h)! - sum_i ln (f_i+g_i-h_i)!, read from one
    table of ln x!, one coordinate column at a time.
    """
    h, m = np.asarray(h), _multiplicities(m, F.shape[1])
    top = F.max(axis=0) + G.max(axis=0) - h
    total = int(F[0].sum() + G[0].sum() - h.sum())
    log_fact = gammaln(np.arange(max(total, int(top.max()), 0) + 1) + 1.0)
    log_mf, log_mg = log_multinomial_rows(F), log_multinomial_rows(G) + h @ np.log(m)
    step = max(1, GRID_CHUNK // len(G))
    for lo in range(0, len(F), step):
        f = F[lo:lo + step]
        ok = np.ones((len(f), len(G)), dtype=bool)
        rhs = np.full(ok.shape, log_fact[total])
        for i in range(F.shape[1]):
            target = f[:, i, None] + (G[:, i] - h[i])
            ok &= target >= 0
            rhs -= log_fact[np.maximum(target, 0)]
        lhs = log_mf[lo:lo + step, None] + log_mg
        yield lo, _decide(lhs, rhs, ok, lambda a, b: _exact_feasible(f[a], G[b], h, m))


def _log_fact(x) -> np.ndarray:
    """ln x! elementwise, with negative x read as 0."""
    return gammaln(np.maximum(x, 0) + 1.0)


def _log_fact_by_row0(X) -> np.ndarray:
    """ln X! for an (N, d) array of counts, evaluated at row 0 and at the
    entries that differ from it only (a checkpoint row differs from row 0 in two)."""
    idx = np.flatnonzero(X != X[0])
    out = np.tile(gammaln(X[0] + 1.0), len(X))
    out[idx] = gammaln(X.ravel()[idx] + 1.0)
    return out.reshape(X.shape)


class TransferProbe:
    """The predicate of feasible_rows for (N, d) rows F, G, letter
    multiplicities m and the shifts that move a target counts from letter j to
    letter i, away from a committed zero-sum h.

    Keeps T = F + G - h, its count of negative entries, the column minima cap
    (a transfer of more than cap[j] off letter j makes some target negative),
    the matrix of ln T_c!, its row sum S and the left side with h ln m, so a
    probe reads only columns i and j:
    ln|Freq(T')| = ln(sum T)! - (S - ln T_i! - ln T_j! + ln(T_i+a)! + ln(T_j-a)!).

    For a committed h that every row passes, the amounts a at which a row
    passes moved(i, j, a) form an interval 0 <= a <= a* within cap[j]: each
    row's right side is concave in a (ln x! is convex) and its left side is
    linear in a.  Every decision goes through _decide, so the interval is that
    of the exact predicate.
    """

    def __init__(self, F, G, m=None):
        self.F, self.G = np.atleast_2d(F), np.atleast_2d(G)
        N, d = self.F.shape
        self.m = _multiplicities(m, d)
        self.log_m = np.log(self.m)
        self.h = np.zeros(d, dtype=np.int64)
        self.T = self.F + self.G
        X = np.hstack([self.F, self.G, self.T])
        log_fact = _log_fact_by_row0(X).reshape(N, 3, d)
        log_total = gammaln(X.reshape(N, 3, d).sum(axis=2) + 1.0)  # sum T is fixed by zero-sum h
        log_freq = log_total - log_fact.sum(axis=2)  # ln|Freq| of the rows of F, G and T
        self.lhs = self.lhs_h = log_freq[:, 0] + log_freq[:, 1]
        self.log_total, self.log_fact = log_total[:, 2].copy(), log_fact[:, 2].copy()
        self.S = self.log_fact.sum(axis=1)
        self.neg = (self.T < 0).sum(axis=1)
        self.cap = self.T.min(axis=0)

    def commit(self, h) -> None:
        """Make the zero-sum h the committed shift.  T, ln T! and cap are
        recomputed in the columns where h changes only (two, for a transfer);
        S is the row sum of the updated ln T!, bitwise what a probe committed
        straight to h holds."""
        h = np.asarray(h)
        cols = np.flatnonzero(h != self.h)
        T = self.T[:, cols] + (self.h[cols] - h[cols])
        self.T[:, cols] = T
        self.log_fact[:, cols] = _log_fact(T)
        self.cap[cols] = T.min(axis=0)
        self.h = h
        self.neg = (self.T < 0).sum(axis=1)
        self.S = self.log_fact.sum(axis=1)
        self.lhs_h = self.lhs + h @ self.log_m

    def moved(self, i: int, j: int, a: int) -> np.ndarray:
        """The committed h with h_i - a and h_j + a."""
        h = self.h.copy()
        h[i] -= a
        h[j] += a
        return h

    def feasible(self, i: int, j: int, a: int) -> np.ndarray:
        """Row-wise feasibility of the shift moved(i, j, a), for letters i != j."""
        ti, tj = self.T[:, i], self.T[:, j]
        neg = self.neg - (ti < 0) - (tj < 0) + (ti + a < 0) + (tj - a < 0)
        rest = self.S - self.log_fact[:, i] - self.log_fact[:, j]
        rhs = self.log_total - (rest + _log_fact(ti + a) + _log_fact(tj - a))
        h, m = self.moved(i, j, a), self.m
        step = a * (self.log_m[j] - self.log_m[i])  # 0.0 between letters of one multiplicity
        lhs = self.lhs_h + step if step else self.lhs_h
        return _decide(lhs, rhs, neg == 0, lambda r: _exact_feasible(self.F[r], self.G[r], h, m))


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


def log_type_prob_rows(counts, p) -> np.ndarray:
    """Row-wise ln P[type = counts] = ln[ |Freq(n,f)| prod_i p_i^{f(i)} ] under
    i.i.d. p, for an (N, d) array of occupation rows; -inf outside the support."""
    counts, p = np.atleast_2d(counts), np.asarray(p, dtype=float)
    pos = p > 0
    out = log_multinomial_rows(counts) + counts[:, pos] @ np.log(p[pos])
    out[(counts[:, ~pos] > 0).any(axis=1)] = -np.inf
    return out
