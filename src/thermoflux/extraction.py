"""Work-extraction protocol synthesis and simulation.

Classical state-aware plans (shift search + type-block feasibility), quantum
state-aware (pinch-then-classical), the fully state-agnostic protocol
(Schur pinch / type measurement / budgeted shift choice), measure-and-prepare,
and the tomography-based variant.  Work storage is a classical ledger: the
extracted work W = sum h(i) E_i plus the success mass 1 - xi.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from thermoflux.core import (
    DensityMatrix,
    ThermalContext,
    _check_cap,
    _entries,
    _frozen,
    relative_entropy,
    tensor_power,
    thermal_state,
)
from thermoflux.estimation import classical_relative_entropy, hoeffding_radius, hoeffding_sample_size, sample_types
from thermoflux.pinching import apply as pinch_apply
from thermoflux.pinching import _letter_energies, _weyl_letters, energy_pinching, schur_pinched_letters
from thermoflux.schur import build_schur_basis
from thermoflux.typeclass import (
    GRID_CHUNK,
    ShiftFunction,
    TransferProbe,
    _log_fact,
    compositions,
    exact_freq_count,
    feasible_grid,
    feasible_rows,
    injection_feasible,  # noqa: F401  (kept importable here: perfbench traces every binding)
    log_multinomial_rows,
    log_type_prob_rows,
    strings_of_type,
)

PROTOCOL_VERSION = "2"
CONVERSE_TOL = 1e-8
GRID_CAP = 4_000_000
DEFAULT_SAMPLES = 400
XI_TAIL = 2.0 ** -60  # mass per side of the (f, g) grid that exact xi may count as failure


def bath_size(n: int, c: float = 1.0) -> int:
    """Bath letters l = ceil(c n^{3/2}) for n system letters."""
    return math.ceil(c * n ** 1.5)


class ConverseViolationError(AssertionError):
    """A simulated outcome exceeded the free-energy converse bound."""


@dataclass(frozen=True)
class WorkAlphabet:
    """Classical letters with exact energies: the alphabet the type machinery runs on.

    For a k-copy Schur-pinched block the letters are the Weyl vectors, each
    standing for its m_lambda multiplicity copies; for plain classical
    protocols they are the d energy eigenstates, each of multiplicity 1.
    """

    energies: tuple  # Fractions
    beta: float
    multiplicities: tuple = None  # equal-energy copies per letter; default all 1

    def __post_init__(self):
        object.__setattr__(self, "energies", tuple(Fraction(e) for e in self.energies))
        mult = (1,) * self.d if self.multiplicities is None else self.multiplicities
        object.__setattr__(self, "multiplicities", tuple(int(m) for m in mult))

    @property
    def d(self) -> int:
        return len(self.energies)

    @cached_property
    def thermal(self) -> np.ndarray:
        """Gibbs weights of the letters, m_c e^{-beta E_c} normalised; computed
        once per alphabet and read-only."""
        w = np.exp(-self.beta * np.array([float(e) for e in self.energies])) * self.multiplicities
        out = w / w.sum()
        out.flags.writeable = False
        return out

    @cached_property
    def pairs(self) -> tuple:
        """(gap, i, j) for every letter pair with E_j - E_i = gap > 0, by
        decreasing gap, ties by lexicographic (i, j): the shift search's order."""
        e = [float(x) for x in self.energies]
        return tuple(sorted(((e[j] - e[i], i, j) for i in range(self.d) for j in range(self.d) if e[j] > e[i]),
                            key=lambda x: (-x[0], x[1], x[2])))

    @classmethod
    def from_context(cls, ctx: ThermalContext) -> "WorkAlphabet":
        return cls(energies=ctx.levels, beta=ctx.beta)


@dataclass(frozen=True)
class ExtractionPlan:
    alphabet: WorkAlphabet
    n: int  # system letters entering the plan
    l: int  # bath letters
    h: ShiftFunction
    p: tuple  # source distribution the plan is evaluated against
    xi: float
    xi_mode: str  # exact | sampled
    xi_stderr: float = 0.0

    @property
    def work(self) -> Fraction:
        return self.h.work(self.alphabet.energies)


@dataclass(frozen=True)
class ProtocolOutcome:
    extracted_work: float
    rate_nats: float
    fidelity: float
    target_rate: float
    xi: float
    copies_consumed: dict
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (-1e-12 <= self.fidelity <= 1 + 1e-12):
            raise ValueError(f"fidelity out of range: {self.fidelity}")


def _round_counts(total: int, weights: np.ndarray) -> tuple:
    """Deterministic largest-remainder rounding of total*weights to integer counts.

    Remainders are compared to 9 decimals, so weights that are equal in exact
    arithmetic (degenerate eigenvalues of one energy subspace, say) tie and
    the lowest index wins, whatever their last bits.
    """
    raw = total * np.asarray(weights, dtype=float)
    base = np.floor(raw).astype(int)
    short = total - int(base.sum())
    if short > 0:
        order = np.argsort(-np.round(raw - base, 9), kind="stable")
        base[order[:short]] += 1
    return tuple(base.tolist())


@lru_cache(maxsize=64)
def _shell(total: int, weights: tuple) -> tuple:
    """The typical shell of c0 = _round_counts(total, weights) as (rows, i, j,
    ln|Freq| per row): c0, then c0 with min(w[i], c0[i]) counts moved from
    letter i to letter j, for every i != j (row-major) that moves a positive
    amount, w the per-letter multinomial 3-sigma widths.  A corner's ln|Freq|
    is the center's, plus its two moved entries.  Built once per (total,
    weights) and kept; read-only."""
    w = np.array(weights, dtype=float)
    c0 = np.array(_round_counts(total, w), dtype=np.int64)
    move = np.minimum(np.ceil(3.0 * np.sqrt(total * w * (1.0 - w))).astype(int), c0)
    i, j = np.nonzero(~np.eye(len(c0), dtype=bool) & (move[:, None] > 0))
    rows, k, x, y = np.repeat(c0[None], len(i) + 1, axis=0), np.arange(1, len(i) + 1), c0[i] - move[i], c0[j] + move[i]
    rows[k, i], rows[k, j], lf = x, y, _log_fact(c0)
    center = _log_fact(c0.sum()) - lf.sum()
    log_freq = np.concatenate([[center], center + lf[i] + lf[j] - _log_fact(x) - _log_fact(y)])
    return tuple(map(_frozen, (rows, i, j, log_freq)))


def _checkpoint_blocks(n_eff: int, p_est: np.ndarray, l: int, t: np.ndarray) -> tuple:
    """Deterministic typical-shell corner blocks used to gate the shift search:
    (F, G) rows pairing each f corner with g0, then f0 with each other g
    corner.  Each row is the center (f0, g0) with one two-letter move, so with
    them come the (rows, columns) of the moved entries and lhs = ln|Freq(f)| +
    ln|Freq(g)| per row, from the center's and the moved entries (TransferProbe)."""
    fc, fi, fj, f_freq = _shell(n_eff, tuple(p_est))
    gc, gi, gj, g_freq = _shell(l, tuple(t))
    k, N = len(fc), len(fc) + len(gi)
    F, G, lhs = np.empty((N, len(t)), dtype=np.int64), np.empty((N, len(t)), dtype=np.int64), np.empty(N)
    F[:k], F[k:], G[:k], G[k:], lhs[:k], lhs[k:] = fc, fc[0], gc[0], gc[1:], f_freq + g_freq[0], f_freq[0] + g_freq[1:]
    rows = np.concatenate([fr := np.arange(1, k), fr, gr := np.arange(k, N), gr])
    return F, G, (rows, np.concatenate([fi, fj, gi, gj])), lhs


def choose_shift(
    p_est,
    alphabet: WorkAlphabet,
    n_eff: int,
    margin_nats: float,
    l: int,
) -> ShiftFunction:
    """Pick the zero-sum shift h maximizing W = sum h(i) E_i under the budget
    beta W / n_eff <= D(p_est || t) - margin_nats, gated by exact injection
    feasibility on deterministic typical-shell checkpoint blocks.

    Search: greedy level transfers over letter pairs in decreasing energy-gap
    order (ties by lexicographic pair index; alphabet.pairs), committing the
    largest feasible transfer amount for each pair.  A transfer of a from
    letter j is capped at the smallest checkpoint target count of j (the
    probe's cap[j]), beyond which a target goes negative; a pair with cap[j] =
    0 is skipped, so every probe and every commit (a probed amount) lies on
    the probe's one domain.  Below the cap each row's right side
    ln|Freq(target)| is concave in a and its left side linear in a, so the
    feasible amounts form an interval from 0 (see TransferProbe), and any
    order of probes finds the same largest one.  After a pair that admitted no transfer, the next is
    probed at a = 1 first, so each pair of a run of rejected pairs costs one
    probe, and then at the cap; otherwise the cap is probed first, so each
    pair of a run of pairs that take their whole cap costs one.  Amounts
    between the largest known to pass and the least known to fail are
    bisected.  Each checkpoint row is the center (f0, g0) with one two-letter
    move; each half is kept per (total, weights) (_shell).
    A probe re-checks first, as one scalar, the row that rejected the last
    failing probe (TransferProbe.admits), where most probes of a run of
    rejected pairs fail; it rejects only outside _decide's window, so every
    decision is the exact predicate's.  Returns h = 0 when the budget is
    exhausted or no positive-work transfer is feasible.
    """
    p_est = np.asarray(p_est, dtype=float)
    t = alphabet.thermal
    if margin_nats < 0:
        raise ValueError("margin_nats must be >= 0")
    budget_nats = classical_relative_entropy(p_est, t) - margin_nats
    budget_w = budget_nats * n_eff / alphabet.beta if alphabet.beta > 0 else 0.0
    if budget_nats <= 1e-12 or budget_w <= 0:
        return ShiftFunction((0,) * alphabet.d)

    F, G, moved, lhs = _checkpoint_blocks(n_eff, p_est, l, t)
    probe = TransferProbe(F, G, alphabet.multiplicities, moved, lhs)
    spent, rejecting, cap = 0.0, False, probe.cap.tolist()
    for gap, i, j in alphabet.pairs:
        if not cap[j] or (amax := min(int((budget_w - spent) / gap + 1e-12), n_eff, cap[j])) <= 0:
            continue
        lo, hi = 0, amax + 1  # feasible(lo) holds; hi is the least amount known to fail, or amax + 1
        for a in (1, amax) if rejecting else (amax,):
            if lo < a < hi:
                lo, hi = (a, hi) if probe.admits(i, j, a) else (lo, a)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if probe.admits(i, j, mid) else (lo, mid)
        rejecting = lo == 0
        if lo:
            probe.commit(probe.moved(i, j, lo))
            spent, cap = spent + lo * gap, probe.cap.tolist()
    return ShiftFunction(probe.h.tolist())


def _grid_size(n: int, d: int) -> int:
    return math.comb(n + d - 1, d - 1)


def build_classical_plan(
    p,
    alphabet: WorkAlphabet,
    n: int,
    l: int,
    h: ShiftFunction,
    mode: str = "auto",
    seed: int = None,
    samples: int = DEFAULT_SAMPLES,
) -> ExtractionPlan:
    """Evaluate the atypical mass xi = 1 - sum_{feasible (f,g)} P_p(f) P_t(g).

    mode "exact" decides exactly every (f, g) pair that carries mass (f
    restricted to the support of p): the lightest rows of each side, of summed
    mass at most XI_TAIL, are counted as failures undecided, so the reported xi
    is an upper bound on the full-grid xi, above it by at most 2 XI_TAIL.
    "sampled" draws blocks i.i.d. and reports the infeasible fraction with a
    standard error; "auto" picks exact when the full grid fits under GRID_CAP.
    """
    p = np.asarray(p, dtype=float)
    d = alphabet.d
    if len(p) != d:
        raise ValueError("distribution length does not match alphabet")
    support = np.flatnonzero(p > 0)
    ds = len(support)
    grid = _grid_size(n, ds) * _grid_size(l, d)
    if mode == "auto":
        mode = "exact" if grid <= GRID_CAP else "sampled"
    if mode == "exact":
        if grid > GRID_CAP:
            raise ValueError(
                f"(f,g) grid has {grid} blocks > cap {GRID_CAP}; use sampled mode (pass seed)"
            )
        xi, stderr = _xi_exact(p, alphabet, n, l, h, support), 0.0
    elif mode == "sampled":
        if seed is None:
            raise ValueError("sampled mode requires a seed")
        xi, stderr = _xi_sampled(p, alphabet, n, l, h, seed, samples)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return ExtractionPlan(alphabet=alphabet, n=n, l=l, h=h, p=tuple(p), xi=xi, xi_mode=mode,
                          xi_stderr=stderr)


def _mass_core(log_w) -> np.ndarray:
    """Indices, in increasing order, of the rows left once the lightest rows
    are dropped for as long as their summed mass stays <= XI_TAIL.  The budget
    is shrunk by the relative error bound of the running sum (len * 2^-52),
    so the exact sum of the dropped masses stays within XI_TAIL."""
    order = np.argsort(log_w, kind="stable")
    running = np.cumsum(np.exp(log_w[order]))
    dropped = np.searchsorted(running, XI_TAIL * (1.0 - len(log_w) * 2.0 ** -52), side="right")
    return np.sort(order[dropped:])


@lru_cache(maxsize=16)
def _thermal_core(l: int, t: tuple) -> tuple:
    """(G, ln|Freq(G)|, P_t(G)): the mass core of the types of l letters under
    the letter weights t, ln|Freq| of its rows and their probabilities.  Built
    once per (l, t) and kept; read-only."""
    g_rows = compositions(l, len(t))
    log_pg = log_type_prob_rows(g_rows, np.array(t))
    kg = _mass_core(log_pg)
    g_rows = g_rows[kg]
    return _frozen(g_rows), _frozen(log_multinomial_rows(g_rows)), _frozen(np.exp(log_pg[kg]))


@lru_cache(maxsize=16)
def _system_types(n: int, d: int, support: tuple) -> tuple:
    """(F, ln|Freq(F)|): the types of n letters on the support, embedded into d
    coordinates, in the lexicographic order of the support's counts.  Built
    once per (n, d, support) and kept; read-only."""
    f_rows = np.zeros((_grid_size(n, len(support)), d), dtype=np.int64)
    f_rows[:, support] = compositions(n, len(support))
    return _frozen(f_rows), _frozen(log_multinomial_rows(f_rows))


def _xi_exact(p, alphabet, n, l, h, support) -> float:
    """1 - the P_p x P_t mass of the feasible (f, g) pairs.  Every pair that
    carries mass is decided exactly; the rows outside each side's mass core
    (summed mass <= XI_TAIL per side) count as failures, so the result is an
    upper bound on the full-grid xi, above it by at most 2 XI_TAIL.  Kept per
    size: the system types and their ln|Freq| per (n, d, support)
    (_system_types), the bath's mass core per (l, alphabet.thermal)
    (_thermal_core).  A call adds F ln p to the kept ln|Freq(f)| and decides
    the grid block by block, in a fixed order, by feasible_grid."""
    f_rows, log_freq_f = _system_types(n, alphabet.d, tuple(support.tolist()))
    log_pf = log_type_prob_rows(f_rows, p, log_freq_f)
    kf = _mass_core(log_pf)
    pf = np.exp(log_pf[kf])
    g_rows, log_freq_g, pg = _thermal_core(l, tuple(alphabet.thermal))
    success = 0.0
    for lo, feas in feasible_grid(f_rows[kf], g_rows, log_freq_f[kf], log_freq_g, h.shifts,
                                  alphabet.multiplicities):
        success += pf[lo:lo + len(feas)] @ (feas @ pg)
    return float(min(max(1.0 - success, 0.0), 1.0))


def _xi_sampled(p, alphabet, n, l, h, seed, samples):
    if not any(h.shifts):  # concatenation injects every (f, g) into f + g: all feasible
        return 0.0, math.sqrt(1.0 / samples / samples)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 977]))
    fs = rng.multinomial(n, p, size=samples)
    gs = rng.multinomial(l, alphabet.thermal, size=samples)
    xi = int((~feasible_rows(fs, gs, h.shifts, alphabet.multiplicities)).sum()) / samples
    stderr = math.sqrt(max(xi * (1 - xi), 1.0 / samples) / samples)
    return xi, stderr


def _plan_outcome(
    plan: ExtractionPlan,
    n: int,
    target: float,
    copies: dict,
    details: dict,
    success: float = 1.0,
    enforce_converse: bool = True,
) -> ProtocolOutcome:
    """Outcome of a plan run on n input copies: rate = beta W / n, fidelity =
    success (1 - xi), converse_slack = target - rate.  ValueError unless n >= 1."""
    if n < 1:
        raise ValueError(f"need n >= 1 input copies, got n = {n}")
    w = float(plan.work)
    rate = plan.alphabet.beta * w / n
    if enforce_converse and rate > target + CONVERSE_TOL:
        raise ConverseViolationError(
            f"rate {rate:.6g} exceeds target D = {target:.6g}"
        )
    return ProtocolOutcome(
        extracted_work=w,
        rate_nats=rate,
        fidelity=success * (1.0 - plan.xi),
        target_rate=target,
        xi=plan.xi,
        copies_consumed=copies,
        details={
            **details,
            "bath": plan.l,
            "h": plan.h.shifts,
            "xi_mode": plan.xi_mode,
            "xi_stderr": plan.xi_stderr,
            "converse_slack": target - rate,
        },
    )


def run_classical_plan(plan: ExtractionPlan, enforce_converse: bool = True) -> ProtocolOutcome:
    """Distribution-level outcome: fidelity = 1 - xi, rate = beta W / n."""
    target = classical_relative_entropy(np.asarray(plan.p), plan.alphabet.thermal)
    return _plan_outcome(
        plan, plan.n, target, {"system": plan.n, "bath": plan.l}, {},
        enforce_converse=enforce_converse,
    )


def run_pipeline(
    alphabet: WorkAlphabet,
    p_true,
    n_eff: int,
    l: int,
    n: int,
    target: float,
    copies: dict,
    details: dict,
    p_est=None,
    margin: float = 0.0,
    plan_mode: str = "auto",
    seed: int = 0,
    success: float = 1.0,
) -> ProtocolOutcome:
    """The step every protocol shares: choose the shift on p_est (on p_true
    when p_est is None) under the budget D(p_est || t) - margin, build the plan
    for n_eff letters and l bath letters on the true statistics p_true, and
    report it per input copy (rate = beta W / n, fidelity = success (1 - xi)).

    The converse rate <= target binds only as the fidelity tends to 1.  It is
    enforced (ConverseViolationError) only when the shift was chosen from the
    true statistics; a shift chosen from an estimate that overdraws shows up
    as low fidelity and a negative details["converse_slack"].
    """
    h = choose_shift(p_true if p_est is None else p_est, alphabet, n_eff, margin_nats=margin, l=l)
    plan = build_classical_plan(p_true, alphabet, n_eff, l, h, mode=plan_mode, seed=seed)
    return _plan_outcome(
        plan, n, target, copies, details, success, enforce_converse=p_est is None
    )


def _incoherent_spectrum(sigma: np.ndarray, family):
    """Eigen-spectrum of an energy-incoherent k-copy state, per energy subspace
    (the projectors of family, the energy pinching of the k copies).

    Returns (probs, energies, vectors): probabilities, the exact subspace energy
    of each eigenvector, and the eigenvectors as columns.
    """
    probs, energies = [], []
    vecs = np.zeros((sigma.shape[0], sum(map(len, family.members))), dtype=complex)
    for (_, e), idx in zip(family.labels, family.members):
        vals, v = np.linalg.eigh(sigma[np.ix_(idx, idx)])
        vecs[idx, len(probs):len(probs) + len(idx)] = v  # the subspace's columns, in eigh's order
        probs += [max(float(x), 0.0) for x in vals]
        energies += [e] * len(idx)
    probs = np.array(probs)
    probs = probs / probs.sum()
    return probs, tuple(energies), vecs


def state_aware_protocol(
    rho: DensityMatrix,
    ctx: ThermalContext,
    n: int,
    k: int = 1,
    seed: int = 0,
    plan_mode: str = "auto",
) -> ProtocolOutcome:
    """Energy-pinch k-copy blocks, diagonalize in the known eigenbasis, then run
    the classical plan on q = n // k super-letters (remainder discarded): the
    tomographic protocol with a perfect estimate (eta = 0)."""
    out = tomographic_universal_protocol(rho, ctx, n, k=k, seed=seed, plan_mode=plan_mode)
    cc = out.copies_consumed
    return replace(out, copies_consumed={
        "pinched": cc["pinched"], "measured": 0, "discarded": cc["discarded"], "bath": cc["bath"],
    })


@dataclass(frozen=True)
class UniversalParams:
    """Parameter schedule of the state-agnostic protocol."""

    n: int
    k: int
    m: int
    eps: float
    r: float
    c: float = 1.0
    margin_factor: float = 2.0

    @property
    def q(self) -> int:
        return self.n // self.k

    @classmethod
    def from_schedule(cls, n: int, ctx: ThermalContext, c: float = 1.0,
                      margin_factor: float = 2.0) -> "UniversalParams":
        """Default schedule: k = floor(ln n / 3 ln d), eps = e^{-n^{1/3}},
        delta' = n^{-1/6}, m from the Hoeffding bound with the factor-3 margin
        split.  When the Hoeffding m exceeds q/2 the protocol cannot afford it;
        m is capped at ceil(q/2) and the confidence radius r is recomputed from
        the actual m (honest degradation: larger error bar, smaller budget).
        Raises ValueError unless n >= 1, and from n ~ 3.57e8 on, where 2/eps
        overflows a float.
        """
        if n < 1:
            raise ValueError(f"universal schedule needs n >= 1, got n = {n}")
        d = ctx.dim
        k = max(1, int(math.log(n) / (3 * math.log(d))))
        q = n // k
        eps = math.exp(-n ** (1.0 / 3.0))
        if not eps or not math.isfinite(2.0 / eps):
            raise ValueError(f"schedule at n = {n}: 2/eps = 2 e^(n^(1/3)) is not a finite float")
        delta_prime = n ** (-1.0 / 6.0)
        alpha_k = ctx.continuity_constant(k)
        r_sched = delta_prime / (3.0 * alpha_k)
        m_hoeffding = hoeffding_sample_size(d ** k, r_sched, eps / 2.0)
        m_cap = max(1, math.ceil(q / 2))
        if m_hoeffding <= m_cap:
            m, r = m_hoeffding, r_sched
        else:
            m = m_cap
            r = hoeffding_radius(d ** k, m, eps / 2.0)
        return cls(n=n, k=k, m=m, eps=eps, r=r, c=c, margin_factor=margin_factor)


@lru_cache(maxsize=64)
def protocol_description_hash(ctx: ThermalContext, params: UniversalParams) -> str:
    """Hash of the full synthesized protocol description; computed once per
    (ctx, params).

    Depends only on (context, parameters) — never on the input state — which is
    what makes the protocol state-agnostic: the measurement family and the
    branch rule (shift table as a function of measured type) are fixed here.
    Fields are written as int and float values (+ 0.0 folds -0.0 into 0.0), so
    equal arguments, such as beta = 1 and beta = 1.0, hash alike.
    """
    desc = {
        "version": PROTOCOL_VERSION,
        "levels": [str(e) for e in ctx.levels],
        "beta": float(ctx.beta) + 0.0,
        "n": int(params.n),
        "k": int(params.k),
        "m": int(params.m),
        "eps": float(params.eps) + 0.0,
        "r": float(params.r) + 0.0,
        "c": float(params.c) + 0.0,
        "margin_factor": float(params.margin_factor) + 0.0,
        "branch_rule": "greedy-pair-transfer/shell-checkpoints/exact-counting",
    }
    return hashlib.sha256(json.dumps(desc, sort_keys=True).encode()).hexdigest()


@lru_cache(maxsize=16)
def _weyl_alphabet(ctx: ThermalContext, k: int) -> WorkAlphabet:
    """The sum n_lambda Weyl letters of k copies, with their exact energies and
    multiplicities, as one alphabet per (ctx, k), read off the Schur basis alone."""
    basis = build_schur_basis(k, ctx.dim)
    return WorkAlphabet(energies=_letter_energies(ctx.levels, basis)[0], beta=ctx.beta,
                        multiplicities=_weyl_letters(basis)[1])


def universal_protocol(
    source,
    ctx: ThermalContext,
    params: UniversalParams,
    seed: int = 0,
    mode: str = "sampled",
) -> ProtocolOutcome:
    """State-agnostic pipeline: Schur-pinch k-copy blocks, type-measure m of
    them, estimate the letters' relative entropy (the pinched one for qubits, at
    most it for d >= 3; see schur_pinched_letters), choose the shift with the
    continuity-bound margin, and run the classical plan on the q - m remaining
    blocks, all on the sum n_lambda Weyl letters with their multiplicities
    m_lambda (the copies of a Weyl vector are equiprobable and of equal energy).

    source: DensityMatrix.  With mode="sampled" its description is used only to
    produce measurement statistics and to evaluate the realized performance —
    the protocol itself is fixed by (ctx, params); see protocol_description_hash.
    mode="exact" is the oracle reference, not a state-agnostic protocol: it
    chooses the shift on the true letters p_k, with no measurement and no margin.
    """
    proto_hash = protocol_description_hash(ctx, params)
    k, m, q = params.k, params.m, params.q
    if m >= q:
        raise ValueError("schedule leaves no execution blocks (m >= q)")
    p_k = schur_pinched_letters(ctx, k, source, build_schur_basis(k, ctx.dim))[0]
    alphabet = _weyl_alphabet(ctx, k)

    if mode == "exact":
        p_hat = p_k
        m_used = 0
        margin = 0.0
        eps_meas = 0.0
        n_eff = q
    elif mode == "sampled":
        p_hat = sample_types(p_k, m, seed).p_hat
        m_used = m
        margin = params.margin_factor * ctx.continuity_constant(k) * params.r
        eps_meas = params.eps / 2.0
        n_eff = q - m
    else:
        raise ValueError(f"unknown mode {mode!r}")

    d_hat = classical_relative_entropy(p_hat, alphabet.thermal)
    l = bath_size(n_eff, params.c)
    return run_pipeline(
        alphabet, p_k, n_eff, l, params.n,
        relative_entropy(source, thermal_state(ctx)),
        {
            "pinched": k * q,
            "measured": k * m_used,
            "executed": k * n_eff,
            "discarded": params.n - k * q,
            "bath": l,
        },
        {
            "k": k,
            "m": m_used,
            "l": l,
            "r": params.r,
            "eps": params.eps,
            "margin": margin,
            "d_hat": d_hat,
            "eps_meas": eps_meas,
            "protocol_hash": proto_hash,
            "mode": mode,
            "seed": seed,
        },
        p_est=None if mode == "exact" else p_hat,
        margin=max(margin, 0.0),
        plan_mode="auto" if mode == "exact" else "sampled",
        seed=seed,
        success=1.0 - eps_meas,
    )


# ---------------------------------------------------------------------------
# measure-and-prepare (block measurement + battery)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockPartition:
    """Simplex grid of resolution M; each distribution is assigned the nearest
    grid point l/M in total variation (ties broken lexicographically)."""

    M: int
    d: int

    @cached_property
    def grid(self) -> np.ndarray:
        """(N, d) count rows l of the grid points l/M, in lexicographic order."""
        return _frozen(compositions(self.M, self.d))

    def nearest(self, p) -> tuple:
        """(point, boundary): the first grid point within 1e-12 of the nearest,
        and whether another grid point is."""
        dist = 0.5 * np.abs(self.grid / self.M - np.asarray(p, dtype=float)).sum(axis=1)
        near = np.flatnonzero(dist <= dist.min() + 1e-12)
        return tuple(int(c) for c in self.grid[near[0]]), len(near) > 1

    def assign_types(self, F: np.ndarray, n: int) -> np.ndarray:
        """Grid index of the block of each type row f of n letters, by the exact
        distance sum_i |f_i M - l_i n|, ties to the first (lexicographic) point."""
        step = max(1, GRID_CHUNK // len(self.grid))
        return np.concatenate([
            np.abs(F[lo:lo + step, None, :] * self.M - self.grid * n).sum(axis=2).argmin(axis=1)
            for lo in range(0, len(F), step)
        ])


@dataclass(frozen=True)
class BatterySpec:
    levels: dict  # block grid point -> W_l (float, energy units)
    beta: float

    def gibbs_weight_sum(self) -> float:
        return float(sum(math.exp(-self.beta * w) for w in self.levels.values()))


@lru_cache(maxsize=16)
def _measure_and_prepare_description(M: int, ctx: ThermalContext, n: int) -> tuple:
    """(partition, F, block, keys, ln|Freq(F)|, thermal block masses, battery
    levels, Gibbs deviation): F the types of n letters in colexicographic
    order (each block's mass is summed in it), keys[block[i]] the block of
    F[i].  Kept per (M, ctx, n), read-only; callers return copies of the
    mappings."""
    partition = BlockPartition(M=M, d=ctx.dim)
    F = compositions(n, ctx.dim)[:, ::-1]
    F.flags.writeable = False
    block = _frozen(partition.assign_types(F, n))
    keys = tuple(tuple(int(c) for c in g) for g in partition.grid)
    log_freq = _frozen(log_multinomial_rows(F))
    mass_t = _block_masses(block, keys, log_type_prob_rows(F, ctx.gibbs_probabilities(), log_freq), slice(None))
    levels = {blk: -math.log(mt) / ctx.beta for blk, mt in mass_t.items() if mt > 0}
    gibbs_dev = abs(BatterySpec(levels=levels, beta=ctx.beta).gibbs_weight_sum() - 1.0)
    return partition, F, block, keys, log_freq, MappingProxyType(mass_t), MappingProxyType(levels), gibbs_dev


def _block_masses(block, keys, log_prob, hit) -> dict:
    """{block key: summed probability of the type rows hit in it}, in the
    order the blocks are first hit."""
    sums = np.bincount(block[hit], weights=np.exp(log_prob[hit]), minlength=len(keys))
    blocks, first = np.unique(block[hit], return_index=True)
    return {keys[b]: float(sums[b]) for b in blocks[np.argsort(first)]}


def measure_and_prepare_protocol(M: int, ctx: ThermalContext, n: int, p):
    """Type measurement coarse-grained into simplex blocks, then battery charge
    W_l = (1/beta) ln(1 / Tr[P_B tau^n]).  Returns (summary, ProtocolOutcome).
    The description (partition, types and their blocks, thermal block masses,
    battery, Gibbs deviation) is kept per (M, ctx, n); a call computes p's
    block masses, the nearest block and the Sanov exponent, in fresh dicts.
    Raises ValueError unless beta > 0 (W_l divides by it), M >= 1 and n >= 1."""
    if not ctx.beta > 0:
        raise ValueError(f"measure-and-prepare needs beta > 0, got beta = {ctx.beta}")
    if M < 1 or n < 1:
        raise ValueError(f"measure-and-prepare needs M >= 1 and n >= 1, got M = {M}, n = {n}")
    p, t, beta = np.asarray(p, dtype=float), ctx.gibbs_probabilities(), ctx.beta
    partition, F, block, keys, log_freq, mass_t, levels, gibbs_dev = _measure_and_prepare_description(M, ctx, n)
    dominant, boundary = partition.nearest(p)
    lp = log_type_prob_rows(F, p, log_freq)
    mass_p = _block_masses(block, keys, lp, lp > -np.inf)
    w_dom = levels.get(dominant, 0.0)
    mean_w = sum(mass_p.get(blk, 0.0) * w for blk, w in levels.items())
    sanov = _sanov_exponent(partition, dominant, t) if ctx.dim == 2 else None

    outcome = ProtocolOutcome(
        extracted_work=w_dom,
        rate_nats=beta * w_dom / n,
        fidelity=mass_p.get(dominant, 0.0),
        target_rate=classical_relative_entropy(p, t),
        xi=1.0 - mass_p.get(dominant, 0.0),
        copies_consumed={"measured": n},
        details={
            "M": M,
            "dominant_block": dominant,
            "mean_rate": beta * mean_w / n,
            "sanov_exponent": sanov,
            "boundary": boundary,
        },
    )
    summary = {
        "partition": partition,
        "battery": BatterySpec(levels=dict(levels), beta=beta),
        "gibbs_deviation": gibbs_dev,
        "block_mass_p": mass_p,
        "block_mass_t": dict(mass_t),
        "boundary": boundary,
    }
    return summary, outcome


def _sanov_exponent(partition: BlockPartition, block: tuple, t: np.ndarray) -> float:
    """min_{p in block} D(p || t) over the block's interval of the 1-simplex (d=2):
    D((x, 1 - x) || t) is convex in x and 0 at x = t_0, so least at the end nearer t_0."""
    centers = partition.grid[:, 0] / partition.M  # increasing: the grid is lexicographic
    c = block[0] / partition.M
    idx = int(np.searchsorted(centers, c))
    lo = 0.0 if idx == 0 else (centers[idx - 1] + c) / 2.0
    hi = 1.0 if idx == len(centers) - 1 else (c + centers[idx + 1]) / 2.0
    if lo <= t[0] <= hi:
        return 0.0
    x = lo if t[0] < lo else hi
    return classical_relative_entropy(np.array([x, 1.0 - x]), t)


# ---------------------------------------------------------------------------
# tomography-based variant
# ---------------------------------------------------------------------------


def tomographic_universal_protocol(
    rho: DensityMatrix,
    ctx: ThermalContext,
    n: int,
    k: int = 1,
    eta: float = 0.0,
    seed: int = 0,
    plan_mode: str = "auto",
) -> ProtocolOutcome:
    """Energy-pinch k copies and run the budgeted classical plan on
    q = n // k super-letters (remainder discarded).  With eta > 0 the shift is
    chosen from a simulated per-energy-subspace tomography estimate with error
    magnitude eta, and the plan runs on the true pinched state dephased in the
    estimate's eigenbasis.  eta = 0 skips that step and is the state-aware
    protocol exactly.  Raises ValueError unless 1 <= k <= n."""
    if k < 1:
        raise ValueError(f"block size k must be >= 1, got k = {k}")
    q = n // k
    if q < 1:
        raise ValueError("need n >= k")
    channel = energy_pinching(ctx, k)
    sigma = pinch_apply(channel, _entries(tensor_power(rho, k)))
    est_probs = None
    if eta > 0:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 41]))
        pert = np.zeros_like(sigma)
        for idx in channel.family.members:
            block = rng.normal(size=(len(idx), len(idx)))
            block = block + block.T
            pert[np.ix_(idx, idx)] = block
        pert = pert / np.abs(np.linalg.eigvalsh(pert)).sum() * eta
        est = sigma + pert
        vals, vecs = np.linalg.eigh(est)
        vals = np.clip(vals, 0.0, None)
        estimate = (vecs * vals) @ vecs.conj().T
        estimate = estimate / estimate.trace().real
        # eigenbasis of the estimate, refined within each energy subspace
        est_probs, energies, vecs = _incoherent_spectrum(estimate, channel.family)
        # dephasing the true pinched state in that basis
        probs = np.clip(
            np.einsum("ij,jk,ki->i", vecs.conj().T, sigma, vecs).real, 0.0, None
        )
        probs = probs / probs.sum()
    else:
        probs, energies, _ = _incoherent_spectrum(sigma, channel.family)
    alphabet = WorkAlphabet(energies=energies, beta=ctx.beta)
    l = bath_size(q)
    budget = classical_relative_entropy(probs if est_probs is None else est_probs, alphabet.thermal)
    return run_pipeline(
        alphabet, probs, q, l, n,
        relative_entropy(rho, thermal_state(ctx)),
        {"pinched": k * q, "discarded": n - k * q, "bath": l},
        {
            "k": k,
            "q": q,
            "l": l,
            "eta": eta,
            "pinned_target": relative_entropy(sigma, thermal_state(ctx, k)) / k,
            "budget_nats": budget,
        },
        p_est=est_probs,
        plan_mode=plan_mode,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# string-level oracle (full diagonal simulation at tiny n)
# ---------------------------------------------------------------------------


def simulate_plan_stringwise(plan: ExtractionPlan) -> dict:
    """Full string-level simulation of a classical plan.

    Enumerates every basis string of the system (x) bath diagonal state, groups
    strings into (f, g) blocks, builds the per-block injection explicitly
    (verifying injectivity and exact energy bookkeeping), and accumulates the
    work-storage masses.  Agrees with the distribution-level xi by construction;
    used as the oracle for the type-level accounting.
    """
    d = plan.alphabet.d
    n, l = plan.n, plan.l
    if set(plan.alphabet.multiplicities) != {1}:
        raise ValueError("the string-level simulation reads letters of multiplicity 1 only")
    _check_cap(d ** (n + l))
    p = np.asarray(plan.p, dtype=float)
    t = plan.alphabet.thermal
    energies = plan.alphabet.energies
    h = plan.h

    import itertools

    # group strings by type
    sys_types: dict = {}
    for s in itertools.product(range(d), repeat=n):
        counts = tuple(s.count(i) for i in range(d))
        sys_types.setdefault(counts, []).append(s)
    bath_types: dict = {}
    for s in itertools.product(range(d), repeat=l):
        counts = tuple(s.count(i) for i in range(d))
        bath_types.setdefault(counts, []).append(s)

    def string_prob(s, dist):
        out = 1.0
        for sym in s:
            out *= dist[sym]
        return out

    def string_energy(s):
        return sum((energies[sym] for sym in s), Fraction(0))

    success_mass = 0.0
    total_mass = 0.0
    work = plan.work
    for f, sys_strings in sys_types.items():
        pf = sum(string_prob(s, p) for s in sys_strings)
        if pf == 0.0:
            continue
        for g, bath_strings in bath_types.items():
            pg = sum(string_prob(s, t) for s in bath_strings)
            mass = pf * pg
            total_mass += mass
            target = tuple(a + b - c for a, b, c in zip(f, g, h.shifts))
            if any(x < 0 for x in target):
                continue
            if exact_freq_count(f) * exact_freq_count(g) > exact_freq_count(target):
                continue
            # explicit injection: i-th source pair -> i-th target string
            sources = [s1 + s2 for s1 in sys_strings for s2 in bath_strings]
            targets = np.array(np.unravel_index(strings_of_type(target), (d,) * (n + l))).T
            assert len(set(sources)) == len(sources)
            assert len(sources) <= len(targets)
            for src, dst in zip(sorted(sources), targets):
                # energy conservation: source energy = target energy + W
                assert string_energy(src) == string_energy(dst) + work
            success_mass += mass
    xi = 1.0 - success_mass / total_mass
    return {
        "work": float(work),
        "xi": xi,
        "fidelity": 1.0 - xi,
    }

