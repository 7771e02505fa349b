"""thermoflux benchmark: seeded, self-checking workloads and a per-layer trace.

    python3 perfbench/run.py --workload universal --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one process each

Run from the repository root: the library is imported from ./src.  One run
builds the workload's fixed op list from the seed, warms up, then times
whole rounds of that list until the next round would end past --seconds
(at least two rounds).  Every output is checked against perfbench's own
reference computations.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the exit status is 1
when an op fails that is not a known library fault.  --trace 0 reports
the end-to-end metrics; --trace 1 wraps the library's public functions and
reports per-layer metrics instead, and writes the spans to perfbench/out/.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import os

# One BLAS thread: the benchmark's load is one process on one core, and a
# thread pool's scheduling would add run-to-run noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import pickle
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import hostcal

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ("universal", "schur-recovery", "semiuniversal", "classical-exact")
SETUP_REPEATS = 3  # set-ups measured per run; setup_s is their median
MIN_ROUNDS = 2  # rounds timed even when they run past --seconds
UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_library():
    sys.path[:0] = [str(SRC), str(HERE)]
    import thermoflux

    if Path(thermoflux.__file__).resolve().parent != (SRC / "thermoflux").resolve():
        raise SystemExit(f"perfbench: imported thermoflux from {thermoflux.__file__}, not {SRC}")


def _child_setup(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _fingerprint(out) -> str:
    return hashlib.sha256(pickle.dumps(out)).hexdigest()


def _measure(ops, seconds: float, tracer):
    """Time whole rounds of ops; return per-op times, failures and rounds.

    A calibration unit (hostcal.py) is timed before the first op of a round
    and after every op.  Each op's time is kept twice: in wall seconds, and
    in reference seconds, scaled by the median of the (up to eight)
    calibration samples nearest to it.

    Outputs are checked in the first round.  Later rounds repeat the same
    inputs, so their outputs must be bit-identical to the first round's; that
    comparison replaces the (sometimes costly) reference computation.
    """
    wall = [[] for _ in ops]
    scaled = [[] for _ in ops]
    first = [None] * len(ops)  # (fingerprint, problems) from round one
    attempted = failed = rounds = 0
    slowest = 0.0
    unexpected = []
    wall0 = time.perf_counter()
    while True:
        cals = [hostcal.sample()]  # cals[i] just before op i, cals[i + 1] just after
        for i, op in enumerate(ops):
            err = None
            t = time.perf_counter()
            try:
                out = tracer.run_op(i, op.run) if tracer else op.run()
            except Exception as exc:  # a raising op is a failed op, not a crash
                err = exc
            wall[i].append(time.perf_counter() - t)
            cals.append(hostcal.sample())
            if err is not None:
                problems = [f"raised {err!r}"]
            elif first[i] is None:
                try:
                    problems = op.check(out)
                except Exception as exc:
                    problems = [f"check raised {exc!r}"]
                first[i] = (_fingerprint(out), problems)
            elif _fingerprint(out) != first[i][0]:
                problems = ["output differs from the first round's on the same input"]
            else:
                problems = first[i][1]
            attempted += 1
            if problems:
                failed += 1
                if problems != [op.known_fault]:
                    unexpected.append((op.label, problems))
        for i, ts in enumerate(wall):
            scaled[i].append(ts[-1] * hostcal.factor(cals[max(0, i - 3):i + 5]))
        rounds += 1
        # the next round repeats a round's ops and calibrations, minus the
        # first round's checks; expect it to take as long as the slowest so far
        slowest = max(slowest, sum(ts[-1] for ts in wall) + sum(cals))
        if rounds >= MIN_ROUNDS and time.perf_counter() - wall0 + slowest > seconds:
            return wall, scaled, attempted, failed, rounds, unexpected


def run_workload(args) -> int:
    _import_library()
    import layers
    import stats
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    # Run the ops in a seeded random order, so that each kind of op is spread
    # over the whole round: a shared host's speed can drift by tens of percent
    # within seconds, and ops of one kind run back to back would all see the
    # same moment of it.
    order = random.Random(args.seed).sample(range(len(ops)), len(ops))
    ops = [ops[i] for i in order]
    workloads.warm_up(args.workload)
    setup_wall = time.perf_counter() - T0
    # set-up in reference seconds: scaled by calibration samples taken after it
    setup_s = setup_wall * hostcal.factor([hostcal.sample() for _ in range(hostcal.SETUP_SAMPLES)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        wrapped = tracer.install(layers.SPECS)
    try:
        wall, scaled, attempted, failed, rounds, unexpected = _measure(ops, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for label, problems in unexpected[:10]:
        print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    # an op's time is its mean over rounds: with two or three rounds a median
    # would be the mean of two or the middle of three, and runs with three
    # rounds read faster than runs with two
    op_times = [statistics.fmean(ts) for ts in scaled]
    op_wall = [statistics.fmean(ts) for ts in wall]
    print(f"{args.workload}: seed {args.seed}, {len(ops)} ops x {rounds} round(s), "
          f"{attempted} attempted, {failed} failed")

    if tracer:
        units = {name: unit for name, unit, _ in layers.catalogue()}
        values = layers.layer_metrics(tracer, wrapped, rounds)
        for layer, share in sorted(layers.layer_shares(tracer).items(), key=lambda kv: -kv[1]):
            print(f"  share of op time  {layer:12s} {share:8.2%}")
        print(f"  traced op time per round: {sum(op_times):.4f} s ({sum(op_wall):.4f} s wall)")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.npz")
    else:
        tail_s, tail_label = stats.tail(op_times)
        children = [_child_setup(args) for _ in range(SETUP_REPEATS - 1)]
        setups = [setup_s] + [c["setup_s"] for c in children]
        setups_wall = [setup_wall] + [c["setup_wall_s"] for c in children]
        passed_per_round = (attempted - failed) / rounds
        values = {
            "ops_per_s": passed_per_round / sum(op_times),
            "op_p50_s": statistics.median(op_times),
            "op_tail_s": tail_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = UNITS
        print(f"  op_tail_s is the {tail_label}")
        print(f"  in wall seconds: ops_per_s = {passed_per_round / sum(op_wall):.6g} 1/s, "
              f"op_p50_s = {statistics.median(op_wall):.6g} s, op_tail_s = {stats.tail(op_wall)[0]:.6g} s, "
              f"setup_s = {statistics.median(setups_wall):.6g} s")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 1 if unexpected else 0


def run_all(args) -> int:
    """Every workload in its own process, one at a time."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print("\n".join(lines), flush=True)
            print(f"perfbench: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "thermoflux" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no thermoflux sources under {SRC}; run from a repository checkout")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
