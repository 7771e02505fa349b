"""Atypical-mass (xi) evaluation timings at the sizes of the perfbench
workloads: exact xi (`build_classical_plan(mode="exact")`) at the n of the
state-aware cells of `classical-exact` (qubit n = 200, 300, 400; qutrit
n = 18, 24), and sampled xi at a qubit k = 4 cell of `universal`
(Schur-pinched alphabet, n_eff = 2500).  Every plan has l = ceil(n^1.5) and
the shift `choose_shift` picks on the source itself.

    python bench/xi_layer.py [--out BENCH_xi.json] [--max-n N] [--repeats R]
                             [--baseline DIR]

Each entry records the rows of each side of the (f, g) grid that are decided
out of all rows (for the exact route the mass core, for the sampled route
the draws) and the number of (f, g) pairs decided.  Each time is the median
wall time of R >= 5 repeats.  The file also records the commit (with
"+dirty" when the working tree differs from it), the machine and the line
count of src/thermoflux/*.py.

The exact rows run in one child process per tree (see shift_layer.py), after
one untimed plan per cell, and carry two times: `seconds`, a plan with the
library's caches as that first plan left them, and `cold_seconds`, a plan
right after the functools caches of `thermoflux.extraction` are emptied (the
first plan at that l).  With --baseline DIR, a checkout of another commit,
the exact rows are measured on DIR/src as well, in lock-step turns with this
tree: a before/after pair per cell, the baseline's entry first, each naming
its commit and line count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from schur_layer import MIN_REPEATS, commit, machine, median_seconds, src_lines  # noqa: E402
from shift_layer import _qubit_k4, tree_entries  # noqa: E402
from thermoflux import extraction, typeclass  # noqa: E402

QUBIT, QUTRIT = (0.85, 0.15), (0.85, 0.1, 0.05)
# (cell, source p, n): the n of the state-aware cells of the classical-exact workload
EXACT_CELLS = (
    ("qubit n=200", QUBIT, 200),
    ("qubit n=300", QUBIT, 300),
    ("qubit n=400", QUBIT, 400),
    ("qutrit n=18", QUTRIT, 18),
    ("qutrit n=24", QUTRIT, 24),
)
SAMPLED_N_EFF = 2500


def _rows(n: int, p) -> list:
    """[rows in the mass core, rows in all] of one side of the exact grid:
    types of n letters under p (p has full support here)."""
    log_w = typeclass.log_type_prob_rows(typeclass.compositions(n, len(p)), p)
    return [len(extraction._mass_core(log_w)), len(log_w)]


def _empty_caches() -> None:
    for value in vars(extraction).values():
        if hasattr(value, "cache_clear") and value.__module__ == extraction.__name__:
            value.cache_clear()


def _exact_cell(cell, p, n) -> tuple:
    p = np.array(p)
    alphabet = extraction.WorkAlphabet(energies=range(len(p)), beta=1.0)
    l = math.ceil(n ** 1.5)
    h = extraction.choose_shift(p, alphabet, n, margin_nats=0.0, l=l)

    def warm():
        return extraction.build_classical_plan(p, alphabet, n, l, h, mode="exact")

    def cold():
        _empty_caches()
        return warm()

    plan = warm()  # untimed first call
    f_rows, g_rows = _rows(n, p), _rows(l, alphabet.thermal)
    row = {"layer": "xi_exact", "cell": cell, "d": len(p), "n": n, "l": l, "h": list(h.shifts), "xi": plan.xi,
           "f_rows": f_rows, "g_rows": g_rows, "pairs": f_rows[0] * g_rows[0]}
    return row, {"cold_seconds": cold, "seconds": warm}


def tree_cells(max_n: int) -> list:
    """(row, {"cold_seconds": call, "seconds": call}) per exact cell with
    n <= max_n, on the thermoflux this process imported."""
    return [_exact_cell(cell, p, n) for cell, p, n in EXACT_CELLS if n <= max_n]


def _sampled_entry(repeats) -> dict:
    p, alphabet = _qubit_k4()
    n, samples = SAMPLED_N_EFF, extraction.DEFAULT_SAMPLES
    l = math.ceil(n ** 1.5)
    h = extraction.choose_shift(p, alphabet, n, margin_nats=0.01, l=l)
    plan = extraction.build_classical_plan(p, alphabet, n, l, h, mode="sampled", seed=0)
    d, ds = alphabet.d, int((p > 0).sum())
    return {
        "layer": "xi_sampled",
        "cell": f"qubit k=4 n_eff={n}",
        "d": d,
        "n": n,
        "l": l,
        "h": list(h.shifts),
        "xi": plan.xi,
        "f_rows": [samples, math.comb(n + ds - 1, ds - 1)],
        "g_rows": [samples, math.comb(l + d - 1, d - 1)],
        "pairs": samples,
        "seconds": median_seconds(
            lambda: extraction.build_classical_plan(p, alphabet, n, l, h, mode="sampled", seed=0),
            repeats,
        ),
        "repeats": repeats,
    }


def measure(max_n: int, repeats: int, baseline: Path = None) -> list:
    roots = (baseline, ROOT) if baseline else (ROOT,)
    return tree_entries(roots, repeats, "xi_layer", max_n) + [_sampled_entry(repeats)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_xi.json"))
    parser.add_argument("--max-n", type=int, default=max(n for _, _, n in EXACT_CELLS))
    parser.add_argument("--repeats", type=int, default=MIN_REPEATS)
    parser.add_argument("--baseline", type=Path, help="checkout whose src/ the exact rows also run on")
    args = parser.parse_args(argv)
    if args.repeats < MIN_REPEATS:
        parser.error(f"--repeats must be at least {MIN_REPEATS}")
    report = {
        "topic": "xi",
        "commit": commit(),
        "machine": machine(),
        "src_lines": src_lines(),
        "timing": f"wall-clock median of {args.repeats} repeats, seconds",
        "entries": measure(args.max_n, args.repeats, args.baseline),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
