"""Truncated infinite-dimensional systems.

Tail-decay diagonal states with certified series tails, cutoff schedules,
truncation success probabilities, renormalized free-energy convergence, and the
semiuniversal protocol over a finite candidate set.  Tail masses are exact
(Hurwitz zeta) or integral-test bounds; the free-energy limit is a partial sum
taken to convergence under doubling, without a remainder bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import zeta

from thermoflux.core import ThermalContext, _block_spectrum as _spectrum, _kron_power
from thermoflux.estimation import classical_relative_entropy
from thermoflux.extraction import ProtocolOutcome, WorkAlphabet, bath_size, run_pipeline
from thermoflux.typeclass import compositions, strings_of_type

TAIL_SLACK = 1e-9
D_CAP = 4  # largest copy count tried for identification
XI_MIN = 0.05  # l1 separation the identification statistics must reach


class NormalizationError(ValueError):
    """Diagonal coefficients do not certify to unit trace within slack."""


@dataclass(frozen=True)
class TailState:
    """Diagonal state on levels i = 1, 2, ... with certified power-law tail.

    Either a closed-form rule rho_ii = C i^{-(2+epsilon)} with C = 1/zeta(2+eps)
    (pass epsilon only), or an explicit finite coefficient list summing to 1
    within slack.  An optional coherent block (square matrix on the first
    levels) may replace the leading diagonal entries; its trace must equal the
    diagonal mass it replaces.
    """

    epsilon: float = None
    coefficients: tuple = None
    coherent_block: tuple = None  # optional square matrix over levels 1..b

    def __post_init__(self):
        if (self.epsilon is None) == (self.coefficients is None):
            raise ValueError("give exactly one of epsilon (rule) or coefficients")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("tail exponent epsilon must be > 0")
        if self.coefficients is not None:
            coeffs = tuple(float(c) for c in self.coefficients)
            if any(c < -1e-15 for c in coeffs):
                raise ValueError("negative diagonal coefficient")
            if abs(sum(coeffs) - 1.0) > TAIL_SLACK:
                raise NormalizationError(f"coefficients sum to {sum(coeffs)}")
            object.__setattr__(self, "coefficients", coeffs)
        if self.coherent_block is not None:
            blk = np.asarray(self.coherent_block, dtype=complex)
            if blk.ndim != 2 or blk.shape[0] != blk.shape[1]:
                raise ValueError("coherent block must be square")
            if np.max(np.abs(blk - blk.conj().T)) > 1e-12:
                raise ValueError("coherent block must be Hermitian")
            b = blk.shape[0]
            head = sum(self.diagonal(b))
            if abs(float(blk.trace().real) - head) > 1e-9:
                raise ValueError("coherent block trace must match replaced diagonal mass")
            object.__setattr__(
                self, "coherent_block", tuple(tuple(x) for x in blk)
            )

    @property
    def s(self) -> float:
        return 2.0 + self.epsilon if self.epsilon is not None else None

    def diagonal(self, d: int) -> np.ndarray:
        """First d diagonal coefficients."""
        if self.coefficients is not None:
            out = np.zeros(d)
            k = min(d, len(self.coefficients))
            out[:k] = self.coefficients[:k]
            return out
        i = np.arange(1, d + 1, dtype=float)
        return i ** (-self.s) / zeta(self.s, 1)

    def head_mass(self, d: int) -> float:
        """Tr[rho_d] = 1 - tail, with the tail via the Hurwitz zeta (exact for
        the power-law rule, zero beyond the list for explicit coefficients)."""
        if self.coefficients is not None:
            return float(self.diagonal(d).sum())
        return 1.0 - float(zeta(self.s, d + 1) / zeta(self.s, 1))

    def certified_head_bound(self, d: int) -> float:
        """Certified lower bound on Tr[rho_d] using only the integral test:
        tail mass beyond d is <= d^{1-s} / ((s-1) zeta(s)).  Looser than the
        Hurwitz-zeta value but independent of special-function evaluation of
        the tail itself."""
        if self.coefficients is not None:
            return self.head_mass(d)
        s = self.s
        return 1.0 - d ** (1.0 - s) / ((s - 1.0) * float(zeta(s, 1)))

    def matrix(self, d: int) -> np.ndarray:
        """Truncated (subnormalized) matrix on the first d levels."""
        out = np.diag(self.diagonal(d)).astype(complex)
        if self.coherent_block is not None:
            blk = np.asarray(self.coherent_block)
            b = min(blk.shape[0], d)
            out[:b, :b] = blk[:b, :b]
        return out


@dataclass(frozen=True)
class CutoffSchedule:
    """Rule n -> d_n = ceil(n^{1/(1+eps/2)}), which makes Tr[rho_{d_n}]^n -> 1
    for any tail exponent 2+eps.  ValueError unless n >= 1."""

    epsilon: float

    def __call__(self, n: int) -> int:
        if n < 1:
            raise ValueError(f"cutoff schedule needs n >= 1, got n = {n}")
        return max(1, math.ceil(n ** (1.0 / (1.0 + self.epsilon / 2.0))))


@dataclass(frozen=True)
class InfiniteContext:
    """beta and the ladder E_i = (i-1) delta_e, i = 1, 2, ..., whose partition
    function has the closed form Z = 1/(1 - e^{-beta delta_e})."""

    beta: float
    delta_e: float = 1.0

    def energies(self, d: int) -> np.ndarray:
        return np.arange(d) * self.delta_e

    def partition_function(self) -> float:
        x = math.exp(-self.beta * self.delta_e)
        if x >= 1.0:
            raise ValueError("beta * delta_e must be > 0 for finite Z")
        return 1.0 / (1.0 - x)

    def gibbs_head(self, d: int) -> np.ndarray:
        """First d Gibbs weights e^{-beta E_i} / Z (subnormalized)."""
        z = self.partition_function()
        return np.exp(-self.beta * self.energies(d)) / z

    def log_gibbs_head(self, d: int) -> np.ndarray:
        """ln of the first d Gibbs weights, safe against underflow at deep levels."""
        z = self.partition_function()
        return -self.beta * self.energies(d) - math.log(z)

    @functools.lru_cache(maxsize=64)
    def truncated_context(self, d: int) -> ThermalContext:
        """The first d ladder levels as exact rationals; cached by (self, d)."""
        levels = tuple(Fraction(e).limit_denominator(10 ** 9) for e in self.energies(d))
        return ThermalContext(levels=levels, beta=self.beta)

    @functools.lru_cache(maxsize=64)
    def work_alphabet(self, d: int) -> WorkAlphabet:
        """truncated_context(d) as a work alphabet; cached by (self, d)."""
        return WorkAlphabet.from_context(self.truncated_context(d))


def log_success_probability(rho: TailState, d: int, n: int) -> float:
    """ln Tr[rho_d]^n, stable in log domain."""
    return n * math.log(rho.head_mass(d))


def schedule_success_curve(rho: TailState, schedule: CutoffSchedule, n_grid):
    """Rows (n, d_n, Tr[rho_{d_n}]^n) over the grid."""
    rows = []
    for n in n_grid:
        d = schedule(int(n))
        rows.append((int(n), d, math.exp(log_success_probability(rho, d, int(n)))))
    return rows


def renormalized_free_energy(rho: TailState, ctx_inf: InfiniteContext, d: int) -> float:
    """D(rho_d / Tr[rho_d] || tau_d / Tr[tau_d]) for diagonal rho, evaluated
    both directly and through the subnormalized-relative-entropy decomposition
    D_L(rho_d || tau_d)/Tr[rho_d] + (Tr rho_d - Tr tau_d)/Tr[rho_d]
    + ln(Tr tau_d / Tr rho_d); the two paths must agree within 1e-10."""
    p = rho.diagonal(d)
    t = ctx_inf.gibbs_head(d)
    tp, tt = float(p.sum()), float(t.sum())
    direct = classical_relative_entropy(p / tp, t / tt)
    mask = p > 0
    d_l = float(np.sum(p[mask] * (np.log(p[mask]) - np.log(t[mask])))) + (tt - tp)
    decomposed = d_l / tp + (tp - tt) / tp + math.log(tt / tp)
    if abs(direct - decomposed) > 1e-10:
        raise AssertionError(
            f"dual-path disagreement: {direct} vs {decomposed}"
        )
    return direct


@functools.lru_cache(maxsize=64)
def renormalized_free_energy_limit(
    rho: TailState, ctx_inf: InfiniteContext, tol: float = 1e-10, d_max: int = 200_000
) -> float:
    """D(rho||tau) as the partial sum of p_i ln(p_i/t_i) over the first d
    levels, d = 1000, 2000, ..., returned once doubling d moves it by <= tol;
    past d_max, the last partial sum.  For a finite coefficient list that is
    the finite sum, to within tol.  For a power law it is an estimate from
    doubling d, with no remainder bound.  Cached by its arguments (all frozen)."""
    d = 1000
    prev = None
    while d <= d_max:
        p = rho.diagonal(d)
        log_t = ctx_inf.log_gibbs_head(d)
        mask = p > 0
        head = float(np.sum(p[mask] * (np.log(p[mask]) - log_t[mask])))
        if prev is not None and abs(head - prev) <= tol:
            return head
        prev = head
        d *= 2
    return prev


@dataclass(frozen=True)
class CandidateSet:
    """Finite set S of TailState values for the semiuniversal protocol."""

    states: tuple

    def __post_init__(self):
        if not self.states:
            raise ValueError("candidate set must be non-empty")
        object.__setattr__(self, "states", tuple(self.states))


@functools.lru_cache(maxsize=16)
def _type_strings(d: int, n: int) -> tuple:
    """The strings of every n-letter type over d letters: one read-only
    (types, strings) array per string count."""
    groups = {}
    for f in compositions(n, d):
        strings = strings_of_type(f)
        groups.setdefault(len(strings), []).append(strings)
    out = tuple(np.array(g) for g in groups.values())
    for strings in out:
        strings.flags.writeable = False
    return out


def _type_blocks(rho: TailState, d: int, n: int) -> list:
    """The n-copy truncation rho_d^{otimes n} pinched onto the type subspaces
    (permutation coherences inside each type kept, everything across types
    killed), as one stack of diagonal blocks per block size, gathered from
    the Kronecker power (at most D_CAP^D_CAP square)."""
    power = _kron_power(rho.matrix(d), n)
    return [power[s[:, :, None], s[:, None, :]] for s in _type_strings(d, n)]


def _l1_distance(a, b) -> float:
    return float(np.abs(_spectrum([x - y for x, y in zip(a, b)])).sum())


@functools.lru_cache(maxsize=64)
def distinguishing_dimension(S: CandidateSet) -> int | None:
    """d-tilde: the smallest d <= D_CAP at which every distinguishable pair of
    candidates is l1-separated by >= XI_MIN on the type-pinched d-copy
    truncation, or None when some pair never is.  Cached by the (frozen) set.

    Pairs whose pinched statistics coincide (within 1e-12) at every d <= D_CAP
    are protocol-equivalent (identical extractable-work target) and are not
    required to separate.
    """
    k = len(S.states)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    dist = np.zeros((D_CAP, len(pairs)))
    for d in range(1, D_CAP + 1):
        blocks = [_type_blocks(st, d, d) for st in S.states] if pairs else []
        dist[d - 1] = [_l1_distance(blocks[i], blocks[j]) for i, j in pairs]
    active = ~(dist <= 1e-12).all(axis=0)
    for d in range(1, D_CAP + 1):
        if (dist[d - 1, active] >= XI_MIN).all():
            return d
    return None


@functools.lru_cache(maxsize=64)
def _pinched_letter_distribution(rho: TailState, d: int) -> np.ndarray:
    """Outcome distribution of the identification measurement: the d-copy
    type-pinched truncated eigendecomposition probabilities plus an explicit
    'outside the truncation' letter.  Cached by (rho, d) and read-only."""
    vals = np.clip(_spectrum(_type_blocks(rho, d, d)), 0.0, None)
    out = np.concatenate([vals[::-1], [max(1.0 - vals.sum(), 0.0)]])
    out = out / out.sum()
    out.flags.writeable = False
    return out


def semiuniversal_protocol(
    S: CandidateSet,
    true_index: int,
    ctx_inf: InfiniteContext,
    n: int,
    seed: int = 0,
    schedule: CutoffSchedule = None,
    id_samples: int = 100,
) -> ProtocolOutcome:
    """Identify the source among the finite candidate set with a constant
    sampling budget, then run the state-aware truncated classical protocol for
    the identified candidate on the remaining copies.

    The identification measures the type-pinched d-tilde-copy truncated
    statistics and picks the l1-nearest candidate; ties and failures follow the
    drawn data honestly (a misidentified run extracts the wrong candidate's
    shift and is evaluated against the true state).  The shift always comes
    from a candidate, never from the true state, so the converse is not
    enforced: a colder candidate's shift that overdraws the true state shows
    up as low fidelity and a negative details["converse_slack"].
    """
    rho_true = S.states[true_index]
    if len(S.states) == 1:
        d_tilde, budget, identified, misid_bound = 0, 0, 0, None
    else:
        d_tilde = distinguishing_dimension(S)
        if d_tilde is None:
            raise ValueError(f"candidate set not distinguishable within {D_CAP} copies")
        budget = id_samples * d_tilde
        if budget > n / 10:
            raise ValueError("identification budget exceeds n/10")
        rng = np.random.default_rng(np.random.SeedSequence([seed, 733]))
        letters = [_pinched_letter_distribution(st, d_tilde) for st in S.states]  # d~^d~ + 1 letters each
        counts = rng.multinomial(id_samples, letters[true_index])
        p_hat = counts / id_samples
        dists = [float(np.abs(p_hat - p).sum()) for p in letters]
        identified = int(np.argmin(dists))
        misid_bound = min(1.0, (len(S.states) - 1) * 2.0 ** min(len(letters[0]), 60)
                          * math.exp(-id_samples * (XI_MIN / 2.0) ** 2 / 2.0))

    n_run = n - budget
    rho_id = S.states[identified]
    if schedule is None:
        eps = rho_true.epsilon if rho_true.epsilon is not None else 2.0
        schedule = CutoffSchedule(epsilon=eps)
    d_n = schedule(n_run)
    head_true = rho_true.diagonal(d_n)
    success_mass = rho_true.head_mass(d_n)
    p_id = rho_id.diagonal(d_n)
    p_id = p_id / p_id.sum()
    alphabet = ctx_inf.work_alphabet(d_n)
    l = bath_size(n_run)
    return run_pipeline(
        alphabet, head_true / success_mass, n_run, l, n,
        renormalized_free_energy_limit(rho_true, ctx_inf),
        {"identification": budget, "executed": n_run, "bath": l},
        {
            "identified": identified,
            "true_index": true_index,
            "misidentified": identified != true_index,
            "misid_bound": misid_bound,
            "d_tilde": d_tilde,
            "d_n": d_n,
            "success_mass": success_mass,
        },
        p_est=p_id,
        plan_mode="sampled",
        seed=seed,
        success=math.exp(log_success_probability(rho_true, d_n, n_run)),
    )
