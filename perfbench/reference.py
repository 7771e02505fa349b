"""Reference values computed apart from thermoflux.

Every check in the benchmark compares a program output against one of these
functions or against a property the method must have.  Nothing here imports
thermoflux: the formulas are re-derived from the paper's definitions with
numpy, scipy.special and mpmath, so a fault in the library cannot hide in
its own reference.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.special import gammaln, logsumexp


def gibbs(levels, beta: float) -> np.ndarray:
    w = np.exp(-beta * np.asarray(levels, dtype=float))
    return w / w.sum()


def quantum_free_energy(rho: np.ndarray, levels, beta: float) -> float:
    """D(rho || tau) for a diagonal Hamiltonian, from rho's own eigenvalues:
    sum lam ln lam + beta Tr[rho H] + ln Z."""
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    lam = lam[lam > 1e-300]
    e = np.asarray(levels, dtype=float)
    log_z = math.log(float(np.exp(-beta * e).sum()))
    energy = float(np.real(np.diagonal(rho)) @ e)
    return float(lam @ np.log(lam)) + beta * energy + log_z


def classical_free_energy(p, t) -> float:
    """D(p || t) for distributions with supp p inside supp t."""
    p = np.asarray(p, dtype=float)
    t = np.asarray(t, dtype=float)
    m = p > 0
    return float(np.sum(p[m] * np.log(p[m] / t[m])))


# --- Schur-Weyl dimensions --------------------------------------------------


def partitions(k: int, max_rows: int):
    """Partitions of k into at most max_rows parts, as tuples."""
    out = []
    stack = [((), k, k)]
    while stack:
        parts, left, cap = stack.pop()
        if left == 0:
            out.append(parts)
            continue
        if len(parts) == max_rows:
            continue
        for part in range(min(cap, left), 0, -1):
            stack.append((parts + (part,), left - part, part))
    return sorted(out, reverse=True)


def weyl_dim(lam, d: int) -> int:
    """Dimension of the U(d) irrep: prod_{i<j} (l_i - l_j + j - i) / (j - i)."""
    rows = list(lam) + [0] * (d - len(lam))
    num, den = 1, 1
    for i, j in itertools.combinations(range(d), 2):
        num *= rows[i] - rows[j] + j - i
        den *= j - i
    return num // den


def hook_dim(lam) -> int:
    """Dimension of the S_k irrep by the hook-length formula."""
    k = sum(lam)
    conj = [sum(1 for r in lam if r > c) for c in range(lam[0])] if lam else []
    hooks = 1
    for i, r in enumerate(lam):
        for j in range(r):
            hooks *= (r - j - 1) + (conj[j] - i - 1) + 1
    return math.factorial(k) // hooks


def energy_marginal_of_product(p, levels, k: int) -> dict:
    """Distribution of the total integer energy of k i.i.d. letters drawn from p."""
    dist = {0: 1.0}
    for _ in range(k):
        nxt: dict = {}
        for e0, w0 in dist.items():
            for pi, e in zip(p, levels):
                key = e0 + int(e)
                nxt[key] = nxt.get(key, 0.0) + w0 * float(pi)
        dist = nxt
    return dist


# --- classical atypical mass xi ------------------------------------------------


def _compositions(total: int, parts: int) -> np.ndarray:
    """All non-negative integer vectors of the given length summing to total."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    # stars and bars: choose parts-1 bar positions among total+parts-1 slots
    rows = []
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1,) + bars + (total + parts - 1,)
        rows.append([edges[i + 1] - edges[i] - 1 for i in range(parts)])
    return np.array(rows, dtype=np.int64)


def _log_count(rows: np.ndarray) -> np.ndarray:
    return gammaln(rows.sum(axis=1) + 1.0) - gammaln(rows + 1.0).sum(axis=1)


def _exact_count(row) -> int:
    out = math.factorial(int(sum(row)))
    for c in row:
        out //= math.factorial(int(c))
    return out


# Relative distance from a tie below which a log-domain comparison of type
# class sizes is decided again with exact integers.
REL_TIE = 1e-9
# (f, g) pairs per block of the xi grid: few enough that this check never sets
# the peak memory that the benchmark reports for the library.
CHUNK = 1 << 16


def atypical_mass(p, t, n: int, l: int, h) -> float:
    """xi = 1 - sum over feasible (f, g) of P_p(f) P_t(g).

    (f, g) is feasible when f + g - h >= 0 and |T_f| |T_g| <= |T_{f+g-h}|,
    the counting condition for an injective relabelling of type classes.  The
    comparison runs in the log domain over blocks of CHUNK pairs of the
    (f, g) grid; pairs within REL_TIE of a tie are decided again with exact
    integers.
    """
    p = np.asarray(p, dtype=float)
    t = np.asarray(t, dtype=float)
    h = np.asarray(h, dtype=np.int64)
    d = len(p)
    support = np.flatnonzero(p > 0)
    f_sub = _compositions(n, len(support))
    f_rows = np.zeros((len(f_sub), d), dtype=np.int64)
    f_rows[:, support] = f_sub
    g_rows = _compositions(l, d)
    log_cf = _log_count(f_rows)
    log_cg = _log_count(g_rows)
    log_pf = log_cf + f_rows[:, support] @ np.log(p[support])
    log_pg = log_cg + g_rows @ np.log(t)
    step = max(1, CHUNK // len(g_rows))
    success = 0.0
    for lo in range(0, len(f_rows), step):
        f = f_rows[lo:lo + step]
        target = f[:, None, :] + g_rows[None, :, :] - h
        ok = (target >= 0).all(axis=2)
        safe = np.where(target >= 0, target, 0)
        rhs = gammaln(n + l - h.sum() + 1.0) - gammaln(safe + 1.0).sum(axis=2)
        lhs = log_cf[lo:lo + step, None] + log_cg[None, :]
        feasible = ok & (lhs <= rhs)
        tie = ok & (np.abs(lhs - rhs) <= REL_TIE * (1.0 + np.abs(lhs) + np.abs(rhs)))
        for i, j in zip(*np.nonzero(tie)):
            fi, g = f[i], g_rows[j]
            feasible[i, j] = _exact_count(fi) * _exact_count(g) <= _exact_count(fi + g - h)
        mass = np.exp(log_pf[lo:lo + step, None] + log_pg[None, :])
        success += float(mass[feasible].sum())
    return min(max(1.0 - success, 0.0), 1.0)


# --- measure-and-prepare simplex blocks ------------------------------------------


def _sorted_grid(M: int, d: int) -> np.ndarray:
    """Grid points g / M of the simplex as count rows g, in lexicographic order."""
    g = _compositions(M, d)
    return g[np.lexsort(g.T[::-1])]


def nearest_block(p, M: int) -> tuple:
    """The grid point g / M nearest to p in total variation, ties going to the
    lexicographically smallest g; distances are compared as exact fractions."""
    x = [Fraction(float(v)) for v in p]
    grid = _sorted_grid(M, len(x))
    return tuple(int(c) for c in min(grid, key=lambda g: sum(abs(xi * M - gi) for xi, gi in zip(x, g))))


def _types_by_block(n: int, M: int, d: int):
    """(types f of n letters, grid rows g, index of each type's block).  A type
    belongs to its nearest grid point in total variation, by the exact integer
    distance sum |f_i M - g_i n|, ties going to the lexicographically smallest."""
    f = _compositions(n, d)
    grid = _sorted_grid(M, d)
    dist = np.abs(f[:, None, :] * M - grid[None, :, :] * n).sum(axis=2)
    return f, grid, dist.argmin(axis=1)  # argmin takes the first minimum


def block_log_masses(p, n: int, M: int) -> dict:
    """ln P[type of n i.i.d. letters from p lies in B] for every block B that
    holds a type."""
    p = np.asarray(p, dtype=float)
    f, grid, block = _types_by_block(n, M, len(p))
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    log_prob = _log_count(f) + np.where(f > 0, f * log_p, 0.0).sum(axis=1)
    return {
        tuple(int(c) for c in grid[b]): float(logsumexp(log_prob[block == b]))
        for b in np.unique(block)
    }


def block_rate_bound(block, t, n: int, M: int) -> float:
    """Upper bound on -ln P_t(B) / n: P_t(B) >= P_t(T_f) >= (n+1)^-d e^{-n D(f/n||t)}
    for every type f in B, so -ln P_t(B) / n <= min_f D(f/n||t) + d ln(n+1) / n."""
    t = np.asarray(t, dtype=float)
    f, grid, idx = _types_by_block(n, M, len(t))
    q = f[(grid[idx] == np.asarray(block)).all(axis=1)] / n
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0, q * np.log(q / t), 0.0)
    return float(terms.sum(axis=1).min()) + len(t) * math.log(n + 1) / n


# --- power-law tail states on the linear ladder --------------------------------


def power_law_free_energy(epsilon: float, beta: float, delta_e: float) -> float:
    """D(rho || tau) for rho_ii = i^{-s} / zeta(s), s = 2 + epsilon, against the
    Gibbs state of E_i = (i - 1) delta_e, in closed form:
    s zeta'(s)/zeta(s) - ln zeta(s) + beta delta_e (zeta(s-1)/zeta(s) - 1) + ln Z."""
    s = mpmath.mpf(2) + mpmath.mpf(epsilon)
    z = mpmath.zeta(s)
    x = beta * delta_e
    log_partition = -mpmath.log(1 - mpmath.exp(-x))
    value = s * mpmath.zeta(s, 1, 1) / z - mpmath.log(z) + x * (mpmath.zeta(s - 1) / z - 1) + log_partition
    return float(value)


def power_law_head_mass(epsilon: float, d: int) -> float:
    """Tr rho_d = 1 - zeta(s, d + 1) / zeta(s)."""
    s = mpmath.mpf(2) + mpmath.mpf(epsilon)
    return float(1 - mpmath.zeta(s, d + 1) / mpmath.zeta(s))


def ladder_free_energy(coefficients, beta: float, delta_e: float) -> float:
    """D(rho || tau) for an explicit finite diagonal, as a direct sum."""
    p = np.asarray(coefficients, dtype=float)
    x = beta * delta_e
    log_t = -x * np.arange(len(p)) + math.log1p(-math.exp(-x))
    m = p > 0
    return float(np.sum(p[m] * (np.log(p[m]) - log_t[m])))
