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
LOG_FACT = gammaln(np.arange(1 << 16) + 1.0)  # ln x! for x < 2^16, read by _log_fact
LOG_FACT.flags.writeable = False


@dataclass(frozen=True)
class ShiftFunction:
    shifts: tuple

    def __post_init__(self):
        shifts = tuple(int(s) for s in self.shifts)
        if sum(shifts) != 0:
            raise ValueError(f"shift must be zero-sum: {shifts}")
        object.__setattr__(self, "shifts", shifts)

    def work(self, levels) -> object:
        """Extracted work sum h(i) E_i (exact when levels are Fractions), over
        the nonzero shifts; for h = 0, over every letter (0 of the levels' type)."""
        terms = [h * e for h, e in zip(self.shifts, levels) if h]
        return sum(terms) if terms else sum(h * e for h, e in zip(self.shifts, levels))


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


def _decide(diff, sides, scale, exact) -> np.ndarray:
    """rhs - lhs >= 0 elementwise, for diff = rhs - lhs (-inf where the target
    f+g-h has a negative entry) and sides(near) = (lhs, rhs) at the entries of
    an index tuple near.  Entries within FEASIBILITY_SLACK (1 + |lhs| + |rhs|)
    of a tie are re-decided by exact(*index) in big-integer arithmetic, so
    rounding never flips the predicate.

    scale bounds 1 + |lhs| + |rhs| over the entries with a finite diff, up to
    rounding, so the prefilter |diff| <= 2 FEASIBILITY_SLACK scale holds at
    every entry inside its own window (the factor 2 covers the rounding of
    scale).  Only the entries it passes are read through sides and put to the
    window test: the set re-decided is exactly the set inside its window, and
    every other entry is decided by the sign of diff, which is that of lhs <= rhs.
    """
    feas = diff >= 0
    near = np.abs(diff) <= 2.0 * FEASIBILITY_SLACK * scale
    if near.any():
        near = np.nonzero(near)
        a, b = sides(near)
        window = np.abs(diff[near]) <= FEASIBILITY_SLACK * (1.0 + np.abs(a) + np.abs(b))
        for idx in zip(*(i[window] for i in near)):
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
    rhs = np.full(len(target), -np.inf)
    rhs[ok] = log_multinomial_rows(target[ok])
    scale = 1.0 + np.abs(lhs).max(initial=0.0) + np.abs(rhs[ok]).max(initial=0.0)
    return _decide(rhs - lhs, lambda i: (lhs[i], rhs[i]), scale, lambda i: _exact_feasible(F[i], G[i], h, m))


def feasible_grid(F, G, log_freq_f, log_freq_g, h, m=None):
    """The predicate of feasible_rows over the whole grid F x G of (Nf, d) rows
    of n letters and (Ng, d) rows of l letters, with their ln|Freq| per row
    as the caller keeps them (log_freq_f, log_freq_g).  Yields (lo, feas) for
    blocks of about GRID_CHUNK pairs, feas[i, j] deciding (F[lo + i], G[j]).

    ln|Freq(s)| for the target s = f + g - h is read from one table R, built
    once: R[s] = ln(n+l)! - ln s_0! - ln s_1! - ..., subtracted in column order
    and -inf where a coordinate is negative.  R spans the longest prefix of the
    d - 1 free coordinates whose range product is at most a block's pair
    count, so it never outgrows a block; with all d - 1 in it, the last
    coordinate follows from sum s = n + l.  A row-major index into R is
    u_f + v_g, so a block is one gather; the columns left out are subtracted
    per pair, and rhs keeps the bits of a column-by-column sum.

    Every |lhs| is at most max|ln|Freq(f)|| + max|ln|Freq(g)| + h ln m|, and
    every rhs at most max R (a column left out subtracts ln x! >= 0): that is
    the one scale _decide prefilters the whole grid with.
    """
    h, m = np.asarray(h), _multiplicities(m, F.shape[1])
    d, step = F.shape[1], max(1, GRID_CHUNK // len(G))
    total = int(F[0].sum() + G[0].sum() - h.sum())
    low_f, low_g = F.min(axis=0), G.min(axis=0)
    low = low_f + low_g - h  # least target per coordinate
    span = (F.max(axis=0) - low_f + G.max(axis=0) - low_g + 1).tolist()
    c = 0  # coordinates in the table
    while c < d - 1 and math.prod(span[:c + 1]) <= step * len(G):
        c += 1
    smin, smax = min(int(low.min()), 0), max(total, int((low + span).max()) - 1)
    s = np.arange(smin, smax + 1)
    log_fact = np.full(len(s), np.inf)  # ln (smin + i)! at i, +inf below 0
    log_fact[-smin:] = _log_fact(s[-smin:])
    R, s_sum = np.full(span[:c], log_fact[total - smin]), 0
    for i in range(c):
        axis = (low[i] + np.arange(span[i])).reshape((-1,) + (1,) * (c - 1 - i))
        R -= log_fact[axis - smin]
        s_sum = s_sum + axis
    if c == d - 1:
        R -= log_fact[np.clip(total - s_sum, smin, smax) - smin]
    R = R.ravel()
    strides = np.array([math.prod(span[i + 1:c]) for i in range(c)], dtype=np.int64)
    u, v = (F[:, :c] - low_f[:c]) @ strides, (G[:, :c] - low_g[:c]) @ strides
    rest = [(i, G[:, i] - h[i] - smin) for i in range(c, d)] if c < d - 1 else []
    log_mf, log_mg = log_freq_f, log_freq_g + h @ np.log(m)
    scale = 1.0 + (np.abs(log_mf).max() + np.abs(log_mg).max()) + max(R.max(), 0.0)
    for lo in range(0, len(F), step):
        f = F[lo:lo + step]
        rhs = R[u[lo:lo + step, None] + v]
        for i, g_i in rest:
            rhs -= log_fact[f[:, i, None] + g_i]
        lhs = log_mf[lo:lo + step, None] + log_mg
        yield lo, _decide(rhs - lhs, lambda ab: (lhs[ab], rhs[ab]), scale,
                          lambda a, b: _exact_feasible(f[a], G[b], h, m))


def _log_fact(x) -> np.ndarray:
    """ln x! for an integer array or scalar x >= 0: gathered from LOG_FACT when
    every entry is below its length, else gammaln(x + 1.0), whose bits the
    table holds."""
    try:
        return LOG_FACT[x]
    except IndexError:  # an entry at or beyond len(LOG_FACT)
        return gammaln(x + 1.0)


class TransferProbe:
    """The predicate of feasible_rows on the shift search's checkpoint rows
    (_checkpoint_blocks), for the shifts that move a target counts from letter
    j to letter i, away from a committed zero-sum h.  Every row of F + G has
    row 0's total and differs from row 0 only at the entries moved = (rows,
    columns); lhs = ln|Freq(f)| + ln|Freq(g)| per row; m holds the letter
    multiplicities.  The domain is the search's, every committed target >= 0
    and 0 <= a <= cap[j]: outside it commit and feasible raise ValueError.

    Keeps T = F + G - h, its column minima cap, ln T_c! (read at row 0 and at
    the moved entries only), its row sum S, the left side lhs_h with h ln m
    and room = ln(sum T)! - lhs_h - S, so a probe reads only columns i and j:
    rhs - lhs of moved(i, j, a) is the pair's slack base room + ln T_i! + ln
    T_j!, less ln(T_i+a)!, ln(T_j-a)! and a ln(m_j/m_i).  The search asks
    admits, which re-checks one witness row before a full probe.

    For a committed h that every row passes, the amounts a at which a row
    passes moved(i, j, a) form an interval 0 <= a <= a* within cap[j]: each
    row's right side is concave in a (ln x! is convex) and its left side is
    linear in a.  Every decision is _decide's, so the interval is that of the
    exact predicate.
    """

    def __init__(self, F, G, m, moved, lhs):
        self.F, self.G, self.m, self.lhs = F, G, np.asarray(m, dtype=np.int64), lhs
        self.log_m, self.lhs_range, self.witness = np.log(self.m), (lhs.min(), lhs.max()), None  # witness: see admits
        self.h, self.T = np.zeros(F.shape[1], dtype=np.int64), F + G
        self.cap, self.log_total = self.T[0].copy(), _log_fact(self.T[0].sum())  # ln|Freq(T)| <= ln(sum T)!
        self.log_fact = np.repeat(_log_fact(self.T[0])[None], len(F), axis=0)
        self.log_fact[moved] = _log_fact(T := self.T[moved])
        np.minimum.at(self.cap, moved[1], T)
        self.commit(self.h)

    def commit(self, h) -> None:
        """Make the zero-sum h the committed shift.  T, ln T! and cap are
        updated in the columns where h changes only (two, for a transfer); S
        is the row sum of the updated ln T!, bitwise that of a direct
        evaluation at h."""
        h = np.asarray(h)
        if (self.cap + self.h - h).min() < 0:
            raise ValueError(f"shift {h.tolist()} leaves a checkpoint target negative")
        cols = np.flatnonzero(h != self.h)  # the columns h changes, all of whose targets move by one amount
        self.T[:, cols] += self.h[cols] - h[cols]
        self.log_fact[:, cols] = _log_fact(self.T[:, cols])
        self.cap += self.h - h
        self.h, c = h, h @ self.log_m
        self.S, self.lhs_h = self.log_fact.sum(axis=1), self.lhs + c
        self.room = self.log_total - self.lhs_h - self.S
        self.lhs_max = max(abs(self.lhs_range[0] + c), abs(self.lhs_range[1] + c))  # max |lhs_h|: x + c grows with x
        self._pair = ()  # (i, j, slack base) of the last pair probed

    def moved(self, i: int, j: int, a: int) -> np.ndarray:
        """The committed h with h_i - a and h_j + a."""
        h = self.h.copy()
        h[i] -= a
        h[j] += a
        return h

    def admits(self, i: int, j: int, a: int) -> bool:
        """Whether every row passes moved(i, j, a): feasible(i, j, a).all(),
        with the witness (the first row that rejected the last failing probe)
        re-checked first.  Its rhs - lhs is one scalar, with the bits
        feasible's row pass gives it; below -2 FEASIBILITY_SLACK scale it lies
        outside _decide's prefilter, so _decide would decide that row
        infeasible by sign, and the probe is rejected without its row pass.
        Otherwise the full probe decides and names the next witness."""
        r = self.witness
        if r is not None and 0 <= a <= self.cap[j]:
            step = a * (self.log_m[j] - self.log_m[i])
            diff = (self.room[r] + self.log_fact[r, i] + self.log_fact[r, j] - _log_fact(self.T[r, i] + a)
                    - _log_fact(self.T[r, j] - a))
            if step:
                diff -= step
            if diff < -2.0 * FEASIBILITY_SLACK * (1.0 + (self.lhs_max + abs(step)) + self.log_total):
                return False
        feas = self.feasible(i, j, a)
        if feas.all():
            return True
        self.witness = int(feas.argmin())
        return False

    def feasible(self, i: int, j: int, a: int) -> np.ndarray:
        """Row-wise feasibility of moved(i, j, a), for letters i != j and 0 <= a
        <= cap[j]: rhs - lhs is the pair's slack base room + ln T_i! + ln T_j!,
        formed once per pair and commit, less ln(T_i+a)! and ln(T_j-a)!
        (_log_fact) and a ln(m_j/m_i).  When its row minimum clears _decide's
        prefilter bound every row passes by sign; otherwise _decide decides."""
        if not 0 <= a <= self.cap[j]:
            raise ValueError(f"transfer of {a} off letter {j} outside 0..{self.cap[j]}")
        if self._pair[:2] != (i, j):
            self._pair = (i, j, self.room + self.log_fact[:, i] + self.log_fact[:, j])
        step = a * (self.log_m[j] - self.log_m[i])  # 0.0 between letters of one multiplicity
        diff = self._pair[2] - _log_fact(self.T[:, i] + a) - _log_fact(self.T[:, j] - a)
        if step:
            diff -= step
        scale = 1.0 + (self.lhs_max + abs(step)) + self.log_total
        if diff.min() > 2.0 * FEASIBILITY_SLACK * scale:
            return np.ones(len(diff), dtype=bool)
        return _decide(diff, lambda r: (self.lhs_h[r] + step, self.lhs_h[r] + step + diff[r]), scale,
                       lambda r: _exact_feasible(self.F[r], self.G[r], self.moved(i, j, a), self.m))


def injection_feasible(f, g, h) -> bool:
    """Whether |Freq(n,f)| |Freq(l,g)| <= |Freq(n+l, f+g-h)| with f+g-h well-defined."""
    fc, gc = _counts(f), _counts(g)
    hc = h.shifts if isinstance(h, ShiftFunction) else tuple(int(x) for x in h)
    if not (len(fc) == len(gc) == len(hc)):
        raise ValueError("dimension mismatch between f, g, h")
    return bool(feasible_rows([fc], [gc], hc)[0])


def log_multinomial_rows(counts: np.ndarray) -> np.ndarray:
    """Vectorized ln multinomial for an (N, d) integer array of occupation rows
    (ln x! by _log_fact)."""
    counts = np.asarray(counts)
    n = counts.sum(axis=-1)
    if counts.dtype.kind in "iu" and counts.min(initial=0) >= 0:
        return _log_fact(n) - _log_fact(counts).sum(axis=-1)
    return gammaln(n + 1) - gammaln(counts + 1).sum(axis=-1)


def log_type_prob_rows(counts, p, log_freq=None) -> np.ndarray:
    """Row-wise ln P[type = counts] = ln[ |Freq(n,f)| prod_i p_i^{f(i)} ] under
    i.i.d. p, for an (N, d) array of occupation rows; -inf outside the support.
    log_freq, when given, is the rows' kept ln|Freq(n,f)| (log_multinomial_rows)."""
    counts, p = np.atleast_2d(counts), np.asarray(p, dtype=float)
    pos = p > 0
    out = (log_multinomial_rows(counts) if log_freq is None else log_freq) + counts[:, pos] @ np.log(p[pos])
    out[(counts[:, ~pos] > 0).any(axis=1)] = -np.inf
    return out
