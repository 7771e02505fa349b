"""Shift search, candidate identification and exact universal runs at the sizes
of the perfbench workloads: `extraction.choose_shift` on a qubit k = 4
Schur-pinched alphabet of d^k letters (n_eff = 2500), on the Weyl-letter
alphabets (with multiplicities) that `universal_protocol` runs on for the same
state at k = 4..8, and on truncated ladders (d_n = 12, 27, 16, 32, the cutoffs
of the semiuniversal ops); `infdim.distinguishing_dimension` on the three
two-candidate sets of the semiuniversal workload (d <= 4 copies), uncached;
and exact-mode `universal_protocol` for the qubit |+> and ground states at
n = 1e5, each in a child process stopped after UNIVERSAL_TIMEOUT seconds.

    python bench/shift_layer.py [--out BENCH_shift.json] [--repeats R] [--max-k K]
                                [--baseline DIR]

Each entry is the median wall time of R >= 5 repeats.  The file also records
the commit (with "+dirty" when the working tree differs from it), the machine
and the line count of src/thermoflux/*.py.  With --baseline DIR, a checkout
of another commit, the universal_protocol rows are measured on DIR/src as
well, each entry then naming its commit and line count: a before/after pair.
A run that does not finish in time is recorded with seconds null.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
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
WEYL_KS = (4, 5, 6, 7, 8)
# (name, state vector, n): exact-mode universal_protocol rows
UNIVERSAL_CELLS = (("qubit |+> exact", "1,1", 100_000), ("qubit ground exact", "1,0", 100_000))
UNIVERSAL_TIMEOUT = 300.0  # seconds per child, its untimed first call included
# Child process for one universal row: one untimed call (the Schur basis build),
# then the median of R timed calls, printed as JSON.
UNIVERSAL_CHILD = """
import json, statistics, sys, time
import numpy as np
sys.path.insert(0, sys.argv[1])
from thermoflux import core, extraction
ctx = core.ThermalContext(levels=(0, 1), beta=1.0)
rho = core.DensityMatrix.pure(np.array([float(x) for x in sys.argv[2].split(",")]))
params = extraction.UniversalParams.from_schedule(int(sys.argv[3]), ctx)
out = extraction.universal_protocol(rho, ctx, params, mode="exact")
times = []
for _ in range(int(sys.argv[4])):
    start = time.perf_counter()
    extraction.universal_protocol(rho, ctx, params, mode="exact")
    times.append(time.perf_counter() - start)
print(json.dumps({"seconds": statistics.median(times), "d": len(out.details["h"]),
                  "rate_over_target": out.rate_nats / out.target_rate, "h": list(out.details["h"])}))
"""


def _qubit_k4():
    p, energies = pinching.schur_pinched_distribution(QUBIT, 4, MIXED, schur.build_schur_basis(4, 2))
    return p, extraction.WorkAlphabet(energies=energies, beta=1.0)


def _weyl_letters(k: int):
    p, energies, mult = pinching.schur_pinched_letters(QUBIT, k, MIXED, schur.build_schur_basis(k, 2))
    return p, extraction.WorkAlphabet(energies=energies, beta=1.0, multiplicities=mult)


def _shift_entry(name, p, alphabet, n_eff, margin, repeats) -> dict:
    l = math.ceil(n_eff ** 1.5)
    h = extraction.choose_shift(p, alphabet, n_eff, margin_nats=margin, l=l)
    return {
        "layer": "choose_shift",
        "cell": name,
        "d": alphabet.d,
        "n_eff": n_eff,
        "l": l,
        "work": float(h.work(alphabet.energies)),
        "seconds": median_seconds(
            lambda: extraction.choose_shift(p, alphabet, n_eff, margin_nats=margin, l=l), repeats
        ),
        "repeats": repeats,
    }


def _universal_entry(root: Path, cell, repeats: int) -> dict:
    name, psi, n = cell
    entry = {"layer": "universal_protocol", "cell": name, "n": n, "commit": commit(root),
             "src_lines": src_lines(root), "repeats": repeats}
    args = [sys.executable, "-c", UNIVERSAL_CHILD, str(root / "src"), psi, str(n), str(repeats)]
    try:
        run = subprocess.run(args, capture_output=True, text=True, timeout=UNIVERSAL_TIMEOUT, check=True)
    except subprocess.TimeoutExpired:
        return {**entry, "seconds": None, "status": f"not finished in {UNIVERSAL_TIMEOUT:g} s"}
    return {**entry, **json.loads(run.stdout), "status": "finished"}


def measure(repeats: int, max_k: int, baseline: Path = None) -> list:
    p, alphabet = _qubit_k4()
    entries = [_shift_entry("qubit k=4", p, alphabet, 2500, 0.01, repeats)]
    for name, state, n_eff, d_n in LADDER_CELLS:
        head = state.diagonal(d_n)
        alphabet = extraction.WorkAlphabet.from_context(LADDER.truncated_context(d_n))
        entries.append(_shift_entry(f"ladder {name}", head / head.sum(), alphabet, n_eff, 0.0, repeats))
    for k in (k for k in WEYL_KS if k <= max_k):
        entries.append(_shift_entry(f"qubit k={k} Weyl letters", *_weyl_letters(k), 2500, 0.01, repeats))
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
    for cell in UNIVERSAL_CELLS:
        for root in (baseline, ROOT) if baseline else (ROOT,):
            entries.append(_universal_entry(root, cell, repeats))
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_shift.json"))
    parser.add_argument("--repeats", type=int, default=MIN_REPEATS)
    parser.add_argument("--max-k", type=int, default=8, help="leave out Weyl-letter rows with more copies")
    parser.add_argument("--baseline", type=Path, help="checkout whose src/ the universal rows also run on")
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
