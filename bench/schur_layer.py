"""Schur layer timings for qubits k = 4..8 and qutrits k = 3..5: the uncached
basis build; schur_pinching + apply on the cached basis; the Schur-pinched
distribution on the cached basis; and D(apply(channel, rho^k) || tau^k) with
its pinching and thermal state, on a validated rho^k.

    python bench/schur_layer.py [--out BENCH_schur.json] [--max-k K] [--repeats R]

Each entry is the median wall time of R >= 5 repeats.  The file also records
the commit (with "+dirty" when the working tree differs from it), the machine
and the line count of src/thermoflux/*.py.
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
sys.path.insert(0, str(ROOT / "src"))

from thermoflux import core, pinching, schur  # noqa: E402

CELLS = tuple((2, k) for k in range(4, 9)) + tuple((3, k) for k in range(3, 6))
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


def measure(cells, repeats: int) -> list:
    entries = []
    for d, k in cells:
        ctx = core.ThermalContext(levels=tuple(range(d)), beta=1.0)
        g = np.random.default_rng(d * 100 + k).normal(size=(d, d, 2)) @ [1.0, 1j]
        rho = g @ g.conj().T
        rho = core.DensityMatrix(rho / rho.trace().real)
        rho_k = core.tensor_power(rho, k)
        basis = schur.build_schur_basis(k, d)
        channel = pinching.schur_pinching(ctx, k, basis)
        entries.append({
            "d": d,
            "k": k,
            "dim": d ** k,
            "build_s": median_seconds(lambda: schur._schur_basis.__wrapped__(k, d), repeats),
            "pinch_apply_s": median_seconds(
                lambda: pinching.apply(pinching.schur_pinching(ctx, k, basis), rho_k.entries), repeats
            ),
            "pinched_dist_s": median_seconds(
                lambda: pinching.schur_pinched_distribution(ctx, k, rho, basis), repeats
            ),
            "rel_entropy_s": median_seconds(
                lambda: core.relative_entropy(pinching.apply(channel, rho_k), core.thermal_state(ctx, k)),
                repeats,
            ),
            "repeats": repeats,
        })
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_schur.json"))
    parser.add_argument("--max-k", type=int, default=8, help="leave out cells with more copies")
    parser.add_argument("--repeats", type=int, default=MIN_REPEATS)
    args = parser.parse_args(argv)
    if args.repeats < MIN_REPEATS:
        parser.error(f"--repeats must be at least {MIN_REPEATS}")
    report = {
        "topic": "schur",
        "commit": commit(),
        "machine": machine(),
        "src_lines": src_lines(),
        "timing": f"wall-clock median of {args.repeats} repeats, seconds",
        "entries": measure([c for c in CELLS if c[1] <= args.max_k], args.repeats),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
