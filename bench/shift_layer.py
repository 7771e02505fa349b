"""Shift search, candidate identification and exact universal runs at the sizes
of the perfbench workloads: `extraction.choose_shift` on a qubit k = 4
Schur-pinched alphabet of d^k letters (n_eff = 2500), on truncated ladders
(d_n = 12, 27, 16, 32, the cutoffs of the semiuniversal ops) and on the
Weyl-letter alphabets (with multiplicities) that `universal_protocol` runs on
for the same state at k = 4..10; `infdim.distinguishing_dimension` on the three
two-candidate sets of the semiuniversal workload (d <= 4 copies), uncached;
and exact-mode `universal_protocol` for the qubit |+> and ground states at
n = 1e5.

    python bench/shift_layer.py [--out BENCH_shift.json] [--repeats R] [--max-k K]
                                [--baseline DIR]

Each entry is the median wall time of R >= 5 repeats.  A choose_shift entry
also counts, in its untimed call, the search's full probes (row passes),
witness rejections (probes rejected at the row that rejected the last
failing probe, with no row pass) and transfer commits, by wrapping
`TransferProbe`'s methods in the child.  The file also records
the commit (with "+dirty" when the working tree differs from it), the machine
and the line count of src/thermoflux/*.py.  The choose_shift and
universal_protocol rows run in one child process per tree, with one BLAS
thread, after one untimed call per cell; a child still running after TREE_TIMEOUT seconds is stopped and
the run fails.  With --baseline DIR, a checkout of another commit, those rows
are measured on DIR/src as well, each entry then naming its commit and line
count: a before/after pair, the baseline's entry first.  The two trees'
children run in lock-step, one timed call at a time: each repeat of a cell
times both trees back to back, in turns that alternate which goes first, so a
drift in the host's speed reaches both sides of a pair alike.  Each timed call
follows an untimed call of the same cell in its child (see TREE_CHILD).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from schur_layer import MIN_REPEATS, commit, machine, median_seconds, src_lines  # noqa: E402
from thermoflux import core, extraction, infdim, pinching, schur  # noqa: E402

LADDER = infdim.InfiniteContext(beta=1.0, delta_e=1.0)
EPS1, EPS2, EPS3 = (infdim.TailState(epsilon=e) for e in (1.0, 2.0, 3.0))


def _geometric(x: float) -> infdim.TailState:
    return infdim.TailState(coefficients=tuple((1 - x) * x ** (i - 1) for i in range(1, 400)))


GEO_WARM, GEO_COLD = _geometric(math.exp(-0.5)), _geometric(math.exp(-2.0))
# (name, state, n_eff, d_n): the truncated ladders of the semiuniversal ops
LADDER_CELLS = (
    ("eps2", EPS2, 135, 12),
    ("eps1", EPS1, 135, 27),
    ("eps3", EPS3, 1000, 16),
    ("geo2", GEO_COLD, 1000, 32),
)
ID_SETS = (("eps1|eps2", (EPS1, EPS2)), ("eps2|geo0.5", (EPS2, GEO_WARM)), ("eps1|geo0.5", (EPS1, GEO_WARM)))
QUBIT = core.ThermalContext(levels=(0, 1), beta=1.0)
MIXED = core.DensityMatrix(np.array([[0.8, 0.25], [0.25, 0.2]], dtype=complex))
WEYL_KS = (4, 5, 6, 7, 8, 9, 10)
# (name, state vector, n): exact-mode universal_protocol rows
UNIVERSAL_CELLS = (("qubit |+> exact", (1.0, 1.0), 100_000), ("qubit ground exact", (1.0, 0.0), 100_000))
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")  # 1 in each child, as in perfbench
TREE_TIMEOUT = 900.0  # seconds a tree's child may run, its untimed first calls included
# Child process for one tree's rows of a bench script: thermoflux is imported
# from that tree's src/ before the script's directory is put on the path.  It
# builds the cells of script.tree_cells(arg) and prints their rows (without
# times) and the names of their timed calls as one JSON line; then, for each
# line "c name" it reads, it makes one untimed call of cell c's call of that
# name, times the next one and prints the seconds.  The untimed call is the
# warm step: a call made right after the child wakes from its blocking read
# runs two to four times slower for its first few hundred microseconds.
TREE_CHILD = """
import importlib, json, sys, time
sys.path.insert(0, sys.argv[1])
import thermoflux
sys.path.insert(0, sys.argv[2])
cells = importlib.import_module(sys.argv[3]).tree_cells(int(sys.argv[4]))
print(json.dumps([[row, list(calls)] for row, calls in cells]), flush=True)
for line in sys.stdin:
    c, name = line.split()
    call = cells[int(c)][1][name]
    call()
    start = time.perf_counter()
    call()
    print(time.perf_counter() - start, flush=True)
"""


def _qubit_k4():
    p, energies = pinching.schur_pinched_distribution(QUBIT, 4, MIXED, schur.build_schur_basis(4, 2))
    return p, extraction.WorkAlphabet(energies=energies, beta=1.0)


def _weyl_letters(k: int):
    p, energies, mult = pinching.schur_pinched_letters(QUBIT, k, MIXED, schur.build_schur_basis(k, 2))
    return p, extraction.WorkAlphabet(energies=energies, beta=1.0, multiplicities=mult)


def _search_counts(call) -> tuple:
    """call() and the counts of its shift search: full probes (row passes of
    TransferProbe.feasible), witness rejections (TransferProbe.admits calls
    decided without one; none in a tree without admits) and commits of a
    transfer.  Counted by wrapping the methods for this one call."""
    probe, counts = extraction.TransferProbe, dict.fromkeys(("full_probes", "witness_rejections", "commits"), 0)
    saved = {name: getattr(probe, name) for name in ("feasible", "admits", "commit") if hasattr(probe, name)}

    def feasible(self, i, j, a):
        counts["full_probes"] += 1
        return saved["feasible"](self, i, j, a)

    def admits(self, i, j, a):
        before = counts["full_probes"]
        ok = saved["admits"](self, i, j, a)
        counts["witness_rejections"] += counts["full_probes"] == before
        return ok

    def commit(self, h):
        counts["commits"] += bool(np.any(np.asarray(h) != self.h))  # not a constructor's commit of h = 0
        return saved["commit"](self, h)

    wrappers = {"feasible": feasible, "admits": admits, "commit": commit}
    try:
        for name in saved:
            setattr(probe, name, wrappers[name])
        return call(), counts
    finally:
        for name, method in saved.items():
            setattr(probe, name, method)


def _shift_cell(name, p, alphabet, n_eff, margin) -> tuple:
    l = math.ceil(n_eff ** 1.5)

    def call():
        return extraction.choose_shift(p, alphabet, n_eff, margin_nats=margin, l=l)

    h, counts = _search_counts(call)  # untimed first call
    entry = {"layer": "choose_shift", "cell": name, "d": alphabet.d, "n_eff": n_eff, "l": l,
             "work": float(h.work(alphabet.energies)), **counts}
    return entry, {"seconds": call}


def _universal_cell(name, psi, n) -> tuple:
    rho = core.DensityMatrix.pure(np.array(psi))
    params = extraction.UniversalParams.from_schedule(n, QUBIT)

    def call():
        return extraction.universal_protocol(rho, QUBIT, params, mode="exact")

    out = call()  # untimed first call: the Schur basis build
    h = list(out.details["h"])
    row = {"layer": "universal_protocol", "cell": name, "n": n, "d": len(h),
           "rate_over_target": out.rate_nats / out.target_rate, "h": h}
    return row, {"seconds": call}


def tree_cells(max_k: int) -> list:
    """(row, {"seconds": timed call}) per choose_shift and universal cell, on
    the thermoflux this process imported, each call made once untimed."""
    p, alphabet = _qubit_k4()
    cells = [_shift_cell("qubit k=4", p, alphabet, 2500, 0.01)]
    for name, state, n_eff, d_n in LADDER_CELLS:
        head = state.diagonal(d_n)
        alphabet = extraction.WorkAlphabet.from_context(LADDER.truncated_context(d_n))
        cells.append(_shift_cell(f"ladder {name}", head / head.sum(), alphabet, n_eff, 0.0))
    for k in (k for k in WEYL_KS if k <= max_k):
        cells.append(_shift_cell(f"qubit k={k} Weyl letters", *_weyl_letters(k), 2500, 0.01))
    return cells + [_universal_cell(*cell) for cell in UNIVERSAL_CELLS]


def tree_entries(roots, repeats: int, script: str, arg: int) -> list:
    """The rows of script.tree_cells(arg) on every tree, one child per tree,
    each row with the median of its timed calls under their names, the trees'
    entries of one cell adjacent."""
    env = {**os.environ, **{var: "1" for var in BLAS_THREADS}}
    children = [
        subprocess.Popen([sys.executable, "-c", TREE_CHILD, str(root / "src"), str(ROOT / "bench"), script,
                          str(arg)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        for root in roots
    ]
    watchdogs = [threading.Timer(TREE_TIMEOUT, child.kill) for child in children]

    def read(child) -> str:
        line = child.stdout.readline()
        if not line:
            raise RuntimeError(f"bench child exited with status {child.wait()}")
        return line

    try:
        for watchdog in watchdogs:
            watchdog.start()
        cells = [json.loads(read(child)) for child in children]
        rows, names = [[row for row, _ in tree] for tree in cells], [calls for _, calls in cells[0]]
        times = [[{name: [] for name in cell} for cell in names] for _ in children]
        for r in range(repeats):
            for c, cell in enumerate(names):
                for k, name in enumerate(cell):
                    for t in range(len(children))[:: 1 if (r + c + k) % 2 == 0 else -1]:
                        children[t].stdin.write(f"{c} {name}\n")
                        children[t].stdin.flush()
                        times[t][c][name].append(float(read(children[t])))
    finally:
        for child, watchdog in zip(children, watchdogs):
            child.stdin.close()
            child.wait()
            watchdog.cancel()
    trees = [
        [{**row, **{name: statistics.median(ts) for name, ts in cell_times.items()}, "repeats": repeats,
          "commit": commit(root), "src_lines": src_lines(root)} for row, cell_times in zip(tree_rows, tree_times)]
        for root, tree_rows, tree_times in zip(roots, rows, times)
    ]
    return [entry for cell in zip(*trees) for entry in cell]


def measure(repeats: int, max_k: int, baseline: Path = None) -> list:
    roots = (baseline, ROOT) if baseline else (ROOT,)
    timed = tree_entries(roots, repeats, "shift_layer", max_k)
    entries = [e for e in timed if e["layer"] == "choose_shift"]
    for name, states in ID_SETS:
        S = infdim.CandidateSet(states=states)
        entries.append({
            "layer": "distinguishing_dimension",
            "cell": name,
            "d_cap": infdim.D_CAP,
            "d_tilde": infdim.distinguishing_dimension(S),
            "seconds": median_seconds(lambda: infdim.distinguishing_dimension.__wrapped__(S), repeats),
            "repeats": repeats,
        })
    return entries + [e for e in timed if e["layer"] == "universal_protocol"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_shift.json"))
    parser.add_argument("--repeats", type=int, default=MIN_REPEATS)
    parser.add_argument("--max-k", type=int, default=10, help="leave out Weyl-letter rows with more copies")
    parser.add_argument("--baseline", type=Path,
                        help="checkout whose src/ the choose_shift and universal rows also run on")
    args = parser.parse_args(argv)
    if args.repeats < MIN_REPEATS:
        parser.error(f"--repeats must be at least {MIN_REPEATS}")
    report = {
        "topic": "shift",
        "commit": commit(),
        "machine": machine(),
        "src_lines": src_lines(),
        "timing": f"wall-clock median of {args.repeats} repeats, seconds",
        "entries": measure(args.repeats, args.max_k, args.baseline),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
