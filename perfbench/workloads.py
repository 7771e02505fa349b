"""The four workloads: seeded, fixed lists of operations with their checks.

Each workload turns a seed into a list of Op.  An Op's `run` is the timed
call into the library; its `check` compares the output against perfbench's
own reference computations (see reference.py) and returns the list of
failed checks.  Library functions are looked up on their module at call
time, so the tracer's wrappers are seen when tracing is on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from thermoflux import core, extraction, infdim, pinching, schur

import reference as ref
import states

BETA = 1.0


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    # Set when the op fails on every run because of a known library fault:
    # the one problem its check then reports.  Any other problem, or this one
    # together with others, is an unexpected failure.
    known_fault: Optional[str] = None


def _ctx(d: int) -> core.ThermalContext:
    return core.ThermalContext(levels=tuple(range(d)), beta=BETA)


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = sum(ord(c) * 31 ** i for i, c in enumerate(workload)) % (2 ** 32)
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _close(name: str, got: float, want: float, tol: float) -> list:
    if not abs(got - want) <= tol:
        return [f"{name}: {got!r} vs {want!r} (tol {tol:g})"]
    return []


def _at_most(name: str, got: float, bound: float, tol: float = 1e-12) -> list:
    if not got <= bound + tol:
        return [f"{name}: {got!r} > {bound!r}"]
    return []


# --- universal ---------------------------------------------------------------

# (d, n, pure states, mixed states, protocol seeds from --seed).  n puts the
# schedule at k = 4, 4, 5 for qubits and k = 3 for qutrits.  The k = 5 and
# qutrit ops run with a fixed protocol seed (the op's index in its cell, 0
# for each of them): one such op's cost moves by up to 4x between protocol
# seeds (0.5-2.1 s for one qutrit state at n = 2e4), and these few ops alone
# moved ops_per_s by +-12% between seeds.  The many k = 4 qubit ops take
# their protocol seeds from --seed.
UNIVERSAL_CELLS = (
    (2, 10_000, 8, 8, True),
    (2, 30_000, 12, 12, True),
    (2, 100_000, 1, 0, False),
    (3, 20_000, 1, 1, False),
)


def universal(seed: int, cells=UNIVERSAL_CELLS) -> list:
    """The states are one fixed panel; the seed drives the protocol's own
    randomness (type-measurement draws and the sampled xi) in the seeded
    cells.  Per-op cost depends on the state by up to 50x at one (d, n), so
    a panel drawn anew for each seed moved a round's total time by about a
    third between seeds, while the protocol seed moves a fixed k = 4 qubit
    state's cost by 10-20%."""
    rng = _rng(seed, "universal")
    hashes: dict = {}
    ops = []
    for d, n, n_pure, n_mixed, seeded in cells:
        ctx = _ctx(d)
        params = extraction.UniversalParams.from_schedule(n, ctx)
        for pure, count in ((True, n_pure), (False, n_mixed)):
            panel = _rng(0, f"universal-panel d={d} n={n} pure={pure}")
            if d == 2:
                mats = states.qubit_states(panel, count, pure)
            else:
                mats = states.qudit_states(panel, d, count, pure)
            for i, mat in enumerate(mats):
                proto_seed = int(rng.integers(2 ** 31)) if seeded else i
                rho = core.DensityMatrix(mat)
                label = f"d={d} n={n} {'pure' if pure else 'mixed'} #{i}"

                def run(rho=rho, ctx=ctx, params=params, proto_seed=proto_seed):
                    return extraction.universal_protocol(rho, ctx, params, seed=proto_seed, mode="sampled")

                def check(out, mat=mat, d=d, n=n):
                    target = ref.quantum_free_energy(mat, range(d), BETA)
                    cc = out.copies_consumed
                    bad = _close("target D(rho||tau)", out.target_rate, target, 1e-9)
                    bad += _at_most("rate vs D(rho||tau)", out.rate_nats, target, 1e-9)
                    if not 0.0 <= out.fidelity <= 1.0:
                        bad.append(f"fidelity {out.fidelity!r} outside [0, 1]")
                    if cc["measured"] + cc["executed"] != cc["pinched"]:
                        bad.append(f"ledger: measured + executed != pinched ({cc})")
                    if cc["pinched"] + cc["discarded"] != n:
                        bad.append(f"ledger: pinched + discarded != n ({cc})")
                    first = hashes.setdefault((d, n), out.details["protocol_hash"])
                    if out.details["protocol_hash"] != first:
                        bad.append("protocol_hash differs between states of one (ctx, n)")
                    return bad

                ops.append(Op(label, run, check))
    return ops


# --- schur-recovery ----------------------------------------------------------

# (d, k, states).  The largest k the dense basis reaches in seconds; the
# op count per cell keeps the costly k = 7 and qutrit k = 5 builds few.
SCHUR_CELLS = ((2, 5, 12), (2, 6, 5), (2, 7, 1), (3, 3, 13), (3, 4, 8), (3, 5, 1))


def _schur_check(out, mat, d: int, k: int) -> list:
    basis, probs, energies, d_k = out
    bad = []
    u = basis.change_of_basis
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(d ** k))))
    if dev > 1e-10:
        bad.append(f"change of basis not unitary: {dev:g}")
    diagrams = ref.partitions(k, d)
    dims = [(ref.weyl_dim(lam, d), ref.hook_dim(lam)) for lam in diagrams]
    if sum(a * b for a, b in dims) != d ** k:
        bad.append("sum n_lambda m_lambda != d^k")
    got = [(tuple(b.diagram.rows), b.weyl_dim, b.sym_dim) for b in basis.blocks]
    want = [(lam, a, b) for lam, (a, b) in zip(diagrams, dims)]
    if sorted(got) != sorted(want):
        bad.append(f"blocks {got} differ from Weyl/hook-length dims {want}")
    marginal = ref.energy_marginal_of_product(np.real(np.diagonal(mat)), range(d), k)
    pinched: dict = {}
    for p, e in zip(probs, energies):
        key = int(Fraction(e))
        pinched[key] = pinched.get(key, 0.0) + float(p)
    for e in set(marginal) | set(pinched):
        bad += _close(f"energy marginal at E={e}", pinched.get(e, 0.0), marginal.get(e, 0.0), 1e-12)
    letters = np.array([float(e) for e in energies])
    t_k = np.exp(-BETA * letters) / float(np.exp(-BETA * np.arange(d)).sum()) ** k
    # Dephasing in the Schur basis refines the (lambda, energy) pinching, so the
    # distribution path can only lose relative entropy; for qubits each
    # (lambda, energy) block holds one Weyl vector and the two paths agree.
    d_dist = ref.classical_free_energy(probs, t_k)
    if d == 2:
        bad += _close("D_k distribution path vs channel path", d_dist, d_k, 1e-9)
    else:
        bad += _at_most("D_k distribution path vs channel path", d_dist, d_k, 1e-9)
    gap = ref.quantum_free_energy(mat, range(d), BETA) - d_k / k
    if not -1e-12 <= gap <= 2.0 * (d - 1) / k * math.log(k + 1):
        bad.append(f"D - D_k/k = {gap!r} outside [0, 2(d-1) ln(k+1)/k]")
    return bad


def schur_recovery(seed: int, cells=SCHUR_CELLS) -> list:
    rng = _rng(seed, "schur-recovery")
    ops = []
    for d, k, count in cells:
        ctx = _ctx(d)
        n_pure = (count + 1) // 2
        for pure, c in ((True, n_pure), (False, count - n_pure)):
            mats = states.qubit_states(rng, c, pure) if d == 2 else states.qudit_states(rng, d, c, pure)
            for i, mat in enumerate(mats):
                rho = core.DensityMatrix(mat)

                def run(rho=rho, ctx=ctx, d=d, k=k):
                    basis = schur.build_schur_basis(k, d)
                    probs, energies = pinching.schur_pinched_distribution(ctx, k, rho, basis)
                    channel = pinching.schur_pinching(ctx, k)
                    pinched = pinching.apply(channel, core.tensor_power(rho, k))
                    d_k = core.relative_entropy(pinched, core.thermal_state(ctx, k))
                    return basis, probs, energies, d_k

                ops.append(Op(
                    f"d={d} k={k} {'pure' if pure else 'mixed'} #{i}",
                    run,
                    lambda out, mat=mat, d=d, k=k: _schur_check(out, mat, d, k),
                ))
    return ops


# --- semiuniversal -----------------------------------------------------------

LADDER_DELTA = 1.0
EPS1_FAULT = (
    "infdim.renormalized_free_energy_limit stops at d_max and returns its last "
    "partial sum, about 6.5e-6 below the epsilon=1 closed form"
)
EPS1_SHORTFALL = (6.0e-6, 7.0e-6)  # closed form - reported target, as the fault leaves it


GEO_TERMS = 400  # geometric states keep levels 1 .. GEO_TERMS - 1


def _geometric(x: float) -> infdim.TailState:
    return infdim.TailState(coefficients=tuple((1 - x) * x ** (i - 1) for i in range(1, GEO_TERMS)))


def _semi_reference(state: infdim.TailState, d_n: int):
    """(free energy, head mass at d_n) computed apart from the library."""
    if state.epsilon is not None:
        return (
            ref.power_law_free_energy(state.epsilon, BETA, LADDER_DELTA),
            ref.power_law_head_mass(state.epsilon, d_n),
        )
    coeffs = np.asarray(state.coefficients)
    return ref.ladder_free_energy(coeffs, BETA, LADDER_DELTA), float(coeffs[:d_n].sum())


EPS1, EPS2, EPS3 = (infdim.TailState(epsilon=e) for e in (1.0, 2.0, 3.0))
GEO_WARM, GEO_COLD = _geometric(math.exp(-0.5)), _geometric(math.exp(-2.0))

# (name, candidates, n, identification samples, protocol seeds per seeded op).
# Misidentification within these pairs never pushes the rate past the true
# target, so no op's outcome depends on the seed (at n = 150, 480 seeded ops
# of the three pairs all passed, a fifth of them misidentified).  The n = 150
# sets give many cheap ops of about one cost, so that the median op is one of
# them and the seed moves it little; the n = 1000 sets and the epsilon=1 ops
# keep the wider alphabets (d_n = 16-32).
SEMI_CASES = (
    ("eps1|eps2", (EPS1, EPS2), 150, 15, 6),
    ("eps2|geo0.5", (EPS2, GEO_WARM), 150, 15, 6),
    ("eps1|geo0.5", (EPS1, GEO_WARM), 150, 15, 6),
    ("eps3", (EPS3,), 1000, 100, 1),
    ("geo2", (GEO_COLD,), 1000, 100, 1),
)


def semiuniversal(seed: int, cases=SEMI_CASES) -> list:
    """Fixed candidate sets, each candidate in turn as the true state.  The
    seed drives the identification draws and the sampled plan.  Ops whose
    true state is the epsilon=1 power law fail on every run (EPS1_FAULT);
    they run with a fixed protocol seed so their work never depends on the
    seed."""
    rng = _rng(seed, "semiuniversal")
    ladder = infdim.InfiniteContext(beta=BETA, delta_e=LADDER_DELTA)
    ops = []
    for set_name, states_, n, id_samples, repeats in cases:
        cands = infdim.CandidateSet(states=states_)
        for true_index, state in enumerate(states_):
            fault = EPS1_FAULT if state.epsilon == 1.0 else None
            seeds = [0] if fault else [int(rng.integers(2 ** 31)) for _ in range(repeats)]
            for proto_seed in seeds:

                def run(cands=cands, true_index=true_index, n=n, id_samples=id_samples, proto_seed=proto_seed):
                    return infdim.semiuniversal_protocol(
                        cands, true_index, ladder, n, seed=proto_seed, id_samples=id_samples
                    )

                def check(out, state=state, n=n, fault=fault):
                    d_n = out.details["d_n"]
                    target, head = _semi_reference(state, d_n)
                    cc = out.copies_consumed
                    lo, hi = EPS1_SHORTFALL
                    if fault and lo <= target - out.target_rate <= hi:
                        bad = [fault]
                    else:
                        bad = _close("target vs closed form", out.target_rate, target, 1e-9)
                    bad += _at_most("rate vs closed form", out.rate_nats, target)
                    if cc["identification"] + cc["executed"] != n:
                        bad.append(f"ledger: identification + executed != n ({cc})")
                    bad += _close("success mass", out.details["success_mass"], head, 1e-12)
                    bad += _at_most("fidelity vs success mass", out.fidelity, head)
                    return bad

                label = f"S={{{set_name}}} true={true_index} n={n} seed={proto_seed}"
                ops.append(Op(label, run, check, known_fault=fault))
    return ops


# --- classical-exact ---------------------------------------------------------

# state-aware: (d, n, sources); measure-and-prepare: (d, M, n, sources).
# Sizes keep the exact (f, g) grid under the library's 4e6-block cap.  The
# counts put the median op in the middle of the eight qubit n = 200 ops and
# the tail op in the middle of the seven qubit n = 300 ops: an order
# statistic that falls between two groups of different cost jumps with the
# seed.
AWARE_CELLS = ((2, 100, 4), (2, 200, 8), (2, 300, 7), (2, 400, 3), (3, 12, 4), (3, 18, 4), (3, 24, 3))
MNP_CELLS = ((2, 8, 200, 4), (2, 16, 400, 4), (3, 4, 24, 4), (3, 6, 30, 3))


def classical_exact(seed: int, aware=AWARE_CELLS, mnp=MNP_CELLS) -> list:
    rng = _rng(seed, "classical-exact")
    ops = []
    for d, n, count in aware:
        ctx = _ctx(d)
        t = ref.gibbs(range(d), BETA)
        mats = states.qubit_states(rng, count, False) if d == 2 else states.qudit_states(rng, d, count, False)
        for i, mat in enumerate(mats):
            rho = core.DensityMatrix(mat)

            def run(rho=rho, ctx=ctx, n=n):
                return extraction.state_aware_protocol(rho, ctx, n, k=1, plan_mode="exact")

            def check(out, mat=mat, n=n, t=t, d=d):
                p = np.real(np.diagonal(mat))
                det = out.details
                bad = [] if det["xi_mode"] == "exact" else [f"xi_mode {det['xi_mode']}"]
                xi = ref.atypical_mass(p, t, n, det["l"], det["h"])
                bad += _close("xi vs own grid enumeration", out.xi, xi, 1e-9)
                work = sum(h * e for h, e in zip(det["h"], range(d)))
                bad += _close("rate vs beta W / n", out.rate_nats, BETA * work / n, 1e-12)
                bad += _at_most("rate vs D(p||t)", out.rate_nats, ref.classical_free_energy(p, t))
                return bad

            ops.append(Op(f"aware d={d} n={n} #{i}", run, check))
    for d, M, n, count in mnp:
        ctx = _ctx(d)
        t = ref.gibbs(range(d), BETA)
        for i in range(count):
            p = states.simplex_point(rng.random(d - 1))

            def run(M=M, ctx=ctx, n=n, p=p):
                return extraction.measure_and_prepare_protocol(M, ctx, n, p)

            def check(out, M=M, n=n, p=p, t=t):
                summary, outcome = out
                levels = summary["battery"].levels
                weights = [math.exp(-BETA * w) for w in levels.values()]
                bad = _close("sum exp(-beta W)", math.fsum(weights), 1.0, 1e-12)
                # W_B = -ln P_t(B) / beta, from perfbench's own type enumeration
                own_w = {b: -lm / BETA for b, lm in ref.block_log_masses(t, n, M).items()}
                if set(levels) != set(own_w):
                    return bad + [f"battery blocks {sorted(levels)} vs own {sorted(own_w)}"]
                for b, w in own_w.items():
                    bad += _close(f"battery level of block {b}", levels[b], w, 1e-9)
                dominant = ref.nearest_block(p, M)
                mass = math.exp(ref.block_log_masses(p, n, M).get(dominant, -math.inf))
                bad += _close("fidelity vs own block mass of p", outcome.fidelity, mass, 1e-12)
                bad += _close("rate vs beta W_dom / n", outcome.rate_nats, BETA * own_w[dominant] / n, 1e-12)
                bound = ref.block_rate_bound(dominant, t, n, M)
                bad += _at_most("rate vs finite-n type bound", outcome.rate_nats, bound)
                return bad

            ops.append(Op(f"mnp d={d} M={M} n={n} #{i}", run, check))
    return ops




WORKLOADS = {
    "universal": universal,
    "schur-recovery": schur_recovery,
    "semiuniversal": semiuniversal,
    "classical-exact": classical_exact,
}


# --- warm-up -------------------------------------------------------------------

# Tiny sizes of each workload, run with their checks before timing so that
# lazy set-up (first calls into LAPACK, scipy.special and mpmath, imports
# inside the library) is done.  No timed op uses these inputs.
WARM_SIZES = {
    "universal": {"cells": ((2, 600, 1, 1, True), (3, 3000, 1, 0, False))},
    "schur-recovery": {"cells": ((2, 3, 2), (3, 2, 1))},
    "semiuniversal": {"cases": (("eps1", (EPS1,), 100, 100, 1), ("eps3", (EPS3,), 100, 100, 2))},
    "classical-exact": {"aware": ((2, 20, 1), (3, 6, 1)), "mnp": ((2, 4, 20, 1), (3, 2, 6, 1))},
}


def warm_up(name: str) -> None:
    for op in WORKLOADS[name](0, **WARM_SIZES[name]):
        op.check(op.run())
