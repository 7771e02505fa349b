"""Schur layer timings for qubits k = 4..10 and qutrits k = 3..5: the cold
basis build (no cached basis, and the tableau steps schur._copy_steps cleared
inside the timed call); schur_pinching + apply on the cached basis; the
Schur-pinched distribution on the cached basis; and D(apply(channel, rho^k) ||
tau^k) with its pinching and thermal state, on a validated rho^k.

    python bench/schur_layer.py [--out BENCH_schur.json] [--max-k K] [--repeats R]
                                [--baseline DIR]

Each entry is the median wall time of R >= 5 repeats, taken in one child
process per tree after one untimed call of each timed call (see
shift_layer.py).  The file also records the commit (with "+dirty" when the
working tree differs from it), the machine and the line count of
src/thermoflux/*.py, and each entry its tree's commit and line count.  With
--baseline DIR, a checkout of another commit, every cell is measured on
DIR/src as well, in lock-step turns with this tree: a before/after pair per
cell, the baseline's entry first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from thermoflux import core, pinching, schur  # noqa: E402

CELLS = tuple((2, k) for k in range(4, 11)) + tuple((3, k) for k in range(3, 6))
MIN_REPEATS = 5


def median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def commit(root: Path = ROOT) -> str:
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True).stdout.strip()

    head = git("rev-parse", "--short", "HEAD") or "unknown"
    return head + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "system": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def src_lines(root: Path = ROOT) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src" / "thermoflux").glob("*.py")))


def _cell(d: int, k: int) -> tuple:
    ctx = core.ThermalContext(levels=tuple(range(d)), beta=1.0)
    g = np.random.default_rng(d * 100 + k).normal(size=(d, d, 2)) @ [1.0, 1j]
    rho = g @ g.conj().T
    rho = core.DensityMatrix(rho / rho.trace().real)
    rho_k = core.tensor_power(rho, k)
    basis = schur.build_schur_basis(k, d)
    channel = pinching.schur_pinching(ctx, k, basis)

    def cold_build():
        schur._copy_steps.cache_clear()
        return schur._schur_basis.__wrapped__(k, d)

    calls = {
        "build_s": cold_build,
        "pinch_apply_s": lambda: pinching.apply(pinching.schur_pinching(ctx, k, basis), rho_k.entries),
        "pinched_dist_s": lambda: pinching.schur_pinched_distribution(ctx, k, rho, basis),
        "rel_entropy_s": lambda: core.relative_entropy(pinching.apply(channel, rho_k), core.thermal_state(ctx, k)),
    }
    for call in calls.values():  # untimed first calls
        call()
    return {"d": d, "k": k, "dim": d ** k}, calls


def tree_cells(max_k: int) -> list:
    """(row, {name: timed call}) per cell with k <= max_k, on the thermoflux
    this process imported."""
    return [_cell(d, k) for d, k in CELLS if k <= max_k]


def measure(max_k: int, repeats: int, baseline: Path = None) -> list:
    from shift_layer import tree_entries

    return tree_entries((baseline, ROOT) if baseline else (ROOT,), repeats, "schur_layer", max_k)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_schur.json"))
    parser.add_argument("--max-k", type=int, default=10, help="leave out cells with more copies")
    parser.add_argument("--repeats", type=int, default=MIN_REPEATS)
    parser.add_argument("--baseline", type=Path, help="checkout whose src/ every cell also runs on")
    args = parser.parse_args(argv)
    if args.repeats < MIN_REPEATS:
        parser.error(f"--repeats must be at least {MIN_REPEATS}")
    report = {
        "topic": "schur",
        "commit": commit(),
        "machine": machine(),
        "src_lines": src_lines(),
        "timing": f"wall-clock median of {args.repeats} repeats, seconds",
        "entries": measure(args.max_k, args.repeats, args.baseline),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
