"""Acceptance criteria: the quantitative checks the package promises to pass.

Each criterion is a zero-argument callable returning a dict with keys
(name, passed, detail, seconds); run_all executes every criterion (optionally
filtered by substring) and returns a machine-readable verdict.  The pytest
acceptance suite and the ``acceptance`` CLI subcommand both call into here.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from thermoflux.core import (
    DensityMatrix,
    ThermalContext,
    relative_entropy,
    string_energies,
    tensor_power,
    thermal_state,
    trace_distance,
    _entries,
)
from thermoflux.estimation import hoeffding_sample_size
from thermoflux.extraction import (
    UniversalParams,
    WorkAlphabet,
    bath_size,
    build_classical_plan,
    choose_shift,
    measure_and_prepare_protocol,
    run_classical_plan,
    simulate_plan_stringwise,
    universal_protocol,
)
from thermoflux.infdim import (
    CutoffSchedule,
    InfiniteContext,
    TailState,
    renormalized_free_energy,
    renormalized_free_energy_limit,
    log_success_probability,
)
from thermoflux.pinching import (
    mixture_realization,
    pinching_inequality_check,
    relative_entropy_loss,
    schur_pinching,
    apply as pinch_apply,
)
from thermoflux.schur import build_schur_basis

QUBIT_CTX = ThermalContext(levels=(0, 1), beta=1.0)
QUTRIT_CTX = ThermalContext(levels=(0, 1, 2), beta=1.0)
GROUND = DensityMatrix.pure(np.array([1.0, 0.0]))
PLUS = DensityMatrix.pure(np.array([1.0, 1.0]) / math.sqrt(2))
LN_LIMIT = math.log(1.0 + math.exp(-1.0))  # D(|0><0| || tau) for the qubit


def _random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real)


def _golden_three_qubit_projectors():
    """Closed-form fine-grained projectors for three qubits with E = (0, 1).

    Fully symmetric sector: rank-1 projectors onto the normalized sums of the
    weight-m computational strings.  Mixed sector: the remainder of each
    weight-1 and weight-2 subspace.
    """

    def weight_vec(m):
        v = np.zeros(8)
        for s in range(8):
            if bin(s).count("1") == m:
                v[s] = 1.0
        return v / np.linalg.norm(v)

    def weight_proj(m):
        p = np.zeros((8, 8))
        for s in range(8):
            if bin(s).count("1") == m:
                p[s, s] = 1.0
        return p

    sym = {m: np.outer(weight_vec(m), weight_vec(m)) for m in range(4)}
    golden = {((3,), m): sym[m] for m in range(4)}
    golden[((2, 1), 1)] = weight_proj(1) - sym[1]
    golden[((2, 1), 2)] = weight_proj(2) - sym[2]
    return golden


def criterion_schur_golden():
    """Three-qubit Schur pinching projectors match the closed-form golden set
    entrywise within 1e-12; block dimension table is (4,1,2,2)."""
    basis = build_schur_basis(3, 2)
    dims = []
    for b in basis.blocks:
        dims.extend([b.weyl_dim, b.sym_dim])
    if tuple(dims) != (4, 1, 2, 2):
        return False, f"dimension table {tuple(dims)} != (4,1,2,2)"
    channel = schur_pinching(QUBIT_CTX, 3, basis)
    golden = _golden_three_qubit_projectors()
    fam = channel.family
    if len(fam) != len(golden):
        return False, f"{len(fam)} projectors, expected {len(golden)}"
    worst = 0.0
    for proj, (rows, e) in zip(fam.projectors, fam.labels):
        key = (rows, int(e))
        if key not in golden:
            return False, f"unexpected projector label {key}"
        worst = max(worst, float(np.max(np.abs(proj - golden[key]))))
    return worst <= 1e-12, f"max entrywise deviation {worst:.3e}"


def criterion_mixture_realization():
    """The J=6 uniform unitary mixture reproduces the 3-qubit Schur pinching on
    20 seeded random states within 1e-10, with every unitary commuting with the
    total Hamiltonian within 1e-10."""
    channel = schur_pinching(QUBIT_CTX, 3)
    unitaries = mixture_realization(channel)
    h3 = np.diag([float(e) for e in string_energies(QUBIT_CTX.levels, 3)])
    worst_comm = max(
        float(np.max(np.abs(u @ h3 - h3 @ u))) for u in unitaries
    )
    rng = np.random.default_rng(20)
    worst_dev = 0.0
    for _ in range(20):
        rho = _entries(_random_density(rng, 8))
        mix = sum(u @ rho @ u.conj().T for u in unitaries) / len(unitaries)
        worst_dev = max(worst_dev, float(np.max(np.abs(mix - pinch_apply(channel, rho)))))
    ok = worst_dev <= 1e-10 and worst_comm <= 1e-10
    return ok, f"mixture dev {worst_dev:.3e}, commutator {worst_comm:.3e}"


def criterion_pinching_inequality():
    """Operator pinching inequality and per-copy loss bound on random states:
    50 qubit states at k in {2,3,4} and 20 qutrit states at k=2."""
    rng = np.random.default_rng(30)
    worst_eig, worst_gap = 0.0, -math.inf
    cases = [(2, k, 50) for k in (2, 3, 4)] + [(3, 2, 20)]
    for d, k, count in cases:
        ctx = QUBIT_CTX if d == 2 else QUTRIT_CTX
        channel = schur_pinching(ctx, k)
        mult = (k + 1) ** (2 * (d - 1))
        bound = (2 * (d - 1) / k) * math.log(k + 1)
        for _ in range(count):
            rho = _random_density(rng, d)
            rk = _entries(tensor_power(rho, k))
            mineig, ok = pinching_inequality_check(channel, rk, mult)
            worst_eig = min(worst_eig, mineig) if ok else worst_eig
            if not ok:
                return False, f"pinching inequality failed (d={d}, k={k}): {mineig:.3e}"
            loss = relative_entropy_loss(channel, rk, k)
            worst_gap = max(worst_gap, loss - bound)
    ok = worst_eig >= -1e-9 and worst_gap <= 1e-8
    return ok, f"min eig {worst_eig:.3e}, worst loss-bound gap {worst_gap:.3e}"


def criterion_free_energy_recovery():
    """Per-copy pinched free energy of |+><+| is non-decreasing over k=1..6 and
    its deficit from D(rho||tau) stays below (2/k) ln(k+1)."""
    target = relative_entropy(PLUS, thermal_state(QUBIT_CTX))
    values = []
    for k in range(1, 7):
        channel = schur_pinching(QUBIT_CTX, k)
        rk = _entries(tensor_power(PLUS, k))
        values.append(relative_entropy(pinch_apply(channel, rk), thermal_state(QUBIT_CTX, k)) / k)
    monotone = all(values[i + 1] >= values[i] - 1e-12 for i in range(5))
    deficits_ok = all(
        target - v <= (2.0 / k) * math.log(k + 1) + 1e-12
        for k, v in enumerate(values, start=1)
    )
    return monotone and deficits_ok, f"recovered per-copy values {[round(v, 5) for v in values]}"


def criterion_classical_convergence():
    """Exact distribution-level classical protocol for the ground-state qubit:
    rate non-decreasing over n in {50,100,200,400}, xi <= 0.05 and rate deficit
    <= 0.15 nats at n=400, converse respected everywhere."""
    alph = WorkAlphabet.from_context(QUBIT_CTX)
    p = np.array([1.0, 0.0])
    rates, xis = [], []
    for n in (50, 100, 200, 400):
        l = bath_size(n)
        h = choose_shift(p, alph, n, margin_nats=0.0, l=l)
        plan = build_classical_plan(p, alph, n, l, h, mode="exact")
        out = run_classical_plan(plan)
        if out.rate_nats > LN_LIMIT + 1e-8:
            return False, f"converse violated at n={n}: {out.rate_nats}"
        rates.append(out.rate_nats)
        xis.append(plan.xi)
    monotone = all(rates[i + 1] >= rates[i] - 1e-12 for i in range(3))
    deficit = LN_LIMIT - rates[-1]
    ok = monotone and xis[-1] <= 0.05 and deficit <= 0.15
    return ok, f"rates {[round(r, 4) for r in rates]}, xi(400)={xis[-1]:.4f}, deficit {deficit:.4f}"


def criterion_universal_end_to_end():
    """Sampled-mode state-agnostic protocol over 20 seeds at n in {1e3, 1e4}:
    converse on every run, strictly better median at the larger n, realized
    fidelity >= 1 - 2 eps_n - xi, and a state-independent protocol hash."""
    target = relative_entropy(GROUND, thermal_state(QUBIT_CTX))
    medians = {}
    for n in (1000, 10000):
        params = UniversalParams.from_schedule(n, QUBIT_CTX)
        rates = []
        for seed in range(20):
            out = universal_protocol(GROUND, QUBIT_CTX, params, seed=seed, mode="sampled")
            if out.rate_nats > target + 1e-8:
                return False, f"converse violated (n={n}, seed={seed})"
            if out.fidelity < 1.0 - 2.0 * params.eps - out.xi - 1e-12:
                return False, f"fidelity bound violated (n={n}, seed={seed})"
            rates.append(out.rate_nats)
        medians[n] = statistics.median(rates)
    if not medians[10000] > medians[1000]:
        return False, f"median rate did not improve: {medians}"
    params = UniversalParams.from_schedule(1000, QUBIT_CTX)
    h_ground = universal_protocol(GROUND, QUBIT_CTX, params, seed=0).details["protocol_hash"]
    tau = thermal_state(QUBIT_CTX)
    h_tau = universal_protocol(tau, QUBIT_CTX, params, seed=0).details["protocol_hash"]
    if h_ground != h_tau:
        return False, "protocol hash depends on the input state"
    return True, f"medians {{1e3: {medians[1000]:.4f}, 1e4: {medians[10000]:.4f}}}"


def criterion_hoeffding_coverage():
    """m=220 samples guarantee P[||p - p_hat||_1 > 0.1] <= 0.05 for a two-letter
    alphabet; the empirical exceedance over 1000 trials stays within the bound
    plus binomial 3-sigma slack."""
    m = hoeffding_sample_size(2, 0.1, 0.05)
    if m != 220:
        return False, f"sample size {m} != 220"
    p = np.array([0.9, 0.1])
    rng = np.random.default_rng(70)
    counts = rng.multinomial(m, p, size=1000)
    exceed = np.abs(counts / m - p).sum(axis=1) > 0.1
    frac = float(exceed.mean())
    slack = 3.0 * math.sqrt(0.05 * 0.95 / 1000)
    return frac <= 0.05 + slack, f"exceedance fraction {frac:.4f} (cap {0.05 + slack:.4f})"


def criterion_continuity_bound():
    """Relative-entropy continuity: |D(r1||t) - D(r2||t)| bounded by the
    (1 + (beta E_max + ln Z)/sqrt 2) constant times the trace-norm distance on
    200 random pairs; the qubit constant evaluates to 1.92869 within 1e-4."""
    const = QUBIT_CTX.continuity_constant(1)
    if abs(const - 1.92869) > 1e-4:
        return False, f"qubit constant {const:.6f}"
    rng = np.random.default_rng(80)
    worst = -math.inf
    for ctx in (QUBIT_CTX, QUTRIT_CTX):
        tau = thermal_state(ctx)
        alpha = ctx.continuity_constant(1)
        for _ in range(100):
            r1 = _random_density(rng, ctx.dim)
            r2 = _random_density(rng, ctx.dim)
            gap = abs(relative_entropy(r1, tau) - relative_entropy(r2, tau))
            worst = max(worst, gap - alpha * trace_distance(r1, r2))
    return worst <= 1e-8, f"qubit constant {const:.6f}, worst slack {worst:.3e}"


def criterion_measure_and_prepare():
    """Block-measurement battery: Gibbs weights of the induced classical map sum
    to 1 within 1e-12; the ground-state dominant-block rate rises toward the
    free-energy limit (grid resolution sqrt(n)) without ever exceeding it;
    boundary inputs are flagged."""
    p = np.array([1.0, 0.0])
    rates = []
    for n in (50, 100, 200, 400, 800):
        M = math.ceil(math.sqrt(n))
        summary, out = measure_and_prepare_protocol(M, QUBIT_CTX, n, p)
        if summary["gibbs_deviation"] > 1e-12:
            return False, f"Gibbs deviation {summary['gibbs_deviation']:.3e} at n={n}"
        if out.rate_nats > LN_LIMIT + 1e-12:
            return False, f"rate {out.rate_nats} exceeds limit at n={n}"
        rates.append(out.rate_nats)
    if not all(rates[i + 1] >= rates[i] - 1e-12 for i in range(len(rates) - 1)):
        return False, f"rates not non-decreasing: {rates}"
    # exact tie between two grid cells must be flagged, not silently assigned
    summary, _ = measure_and_prepare_protocol(4, QUBIT_CTX, 20, np.array([0.875, 0.125]))
    if not summary["boundary"]:
        return False, "boundary input not flagged"
    return True, f"rates {[round(r, 4) for r in rates]}"


def criterion_infinite_dimensional():
    """Power-law tail state: certified success probability >= 0.999 at n=1e6
    under d_n = ceil(sqrt(n)); renormalized free energy of the geometric test
    state within 1e-3 of its certified limit by d=200; dual-path subnormalized
    relative-entropy identity agreement <= 1e-10."""
    rho = TailState(epsilon=2.0)
    sched = CutoffSchedule(epsilon=2.0)
    n = 10 ** 6
    d_n = sched(n)
    if d_n != math.ceil(math.sqrt(n)):
        return False, f"schedule gave d_n={d_n}"
    success_cert = rho.certified_head_bound(d_n) ** n
    success_exact = math.exp(log_success_probability(rho, d_n, n))
    if success_cert < 0.999:
        return False, f"certified success {success_cert:.6f} < 0.999"
    ctx = InfiniteContext(beta=1.0)
    x = math.exp(-0.5)
    geo = TailState(coefficients=tuple((1 - x) * x ** (i - 1) for i in range(1, 400)))
    limit = renormalized_free_energy_limit(geo, ctx)
    # the dual-path identity is asserted inside renormalized_free_energy
    vals = {d: renormalized_free_energy(geo, ctx, d) for d in (10, 50, 200)}
    if abs(vals[200] - limit) > 1e-3:
        return False, f"d=200 value {vals[200]:.6f} vs limit {limit:.6f}"
    return True, (
        f"success {success_exact:.6f} (certified {success_cert:.6f}), "
        f"free energy at 200: {vals[200]:.6f} vs limit {limit:.6f}"
    )


def criterion_haar_average():
    """Mean energy of 2000 Haar-random 3-qubit states is within 3 standard
    errors of the exact value Tr[H]/8 = 1.5."""
    from thermoflux.cli import haar_experiment

    report = haar_experiment(3, 2000, seed=11)
    if abs(report["target"] - 1.5) > 1e-12:
        return False, f"exact target {report['target']} != 1.5"
    return report["passed"], (
        f"mean {report['mean']:.4f} vs 1.5, stderr {report['stderr']:.4f}"
    )


def criterion_stringwise_oracle():
    """Full string-level density simulation of a classical plan at <= 6 qubit
    copies matches the distribution-level accounting on (W, xi, fidelity)
    within 1e-9."""
    alph = WorkAlphabet.from_context(QUBIT_CTX)
    worst = 0.0
    for p, n, l, shifts in [
        ((0.8, 0.2), 4, 2, (-1, 1)),
        ((1.0, 0.0), 4, 2, (-1, 1)),
        ((0.6, 0.4), 3, 3, (0, 0)),
        ((0.9, 0.1), 2, 4, (-2, 2)),
    ]:
        from thermoflux.typeclass import ShiftFunction

        plan = build_classical_plan(
            np.array(p), alph, n, l, ShiftFunction(shifts), mode="exact"
        )
        out = run_classical_plan(plan, enforce_converse=False)
        oracle = simulate_plan_stringwise(plan)
        worst = max(
            worst,
            abs(oracle["work"] - out.extracted_work),
            abs(oracle["xi"] - plan.xi),
            abs(oracle["fidelity"] - out.fidelity),
        )
    return worst <= 1e-9, f"max (W, xi, fidelity) disagreement {worst:.3e}"


CRITERIA = [
    ("schur-golden", criterion_schur_golden),
    ("mixture-realization", criterion_mixture_realization),
    ("pinching-inequality", criterion_pinching_inequality),
    ("free-energy-recovery", criterion_free_energy_recovery),
    ("classical-convergence", criterion_classical_convergence),
    ("universal-end-to-end", criterion_universal_end_to_end),
    ("hoeffding-coverage", criterion_hoeffding_coverage),
    ("continuity-bound", criterion_continuity_bound),
    ("measure-and-prepare", criterion_measure_and_prepare),
    ("infinite-dimensional", criterion_infinite_dimensional),
    ("haar-average", criterion_haar_average),
    ("stringwise-oracle", criterion_stringwise_oracle),
]


def run_criterion(name):
    func = dict(CRITERIA)[name]
    t0 = time.time()
    try:
        passed, detail = func()
    except Exception as exc:  # a crash is a failure, not an error state
        passed, detail = False, f"exception: {exc!r}"
    return {"name": name, "passed": bool(passed), "detail": detail,
            "seconds": round(time.time() - t0, 2)}


def run_all(only: str = None):
    results = [
        run_criterion(name)
        for name, _ in CRITERIA
        if only is None or only in name
    ]
    return {
        "passed": all(r["passed"] for r in results),
        "criteria": results,
    }
