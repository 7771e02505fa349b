"""Command-line front end: experiment configuration, seeded sweeps, CSV/JSON
emission, and the acceptance-suite driver.

Subcommands: schur, pinch, extract, sweep, infdim, haar, acceptance.
Exit codes: 0 success, 2 validation error, 3 acceptance failure.
The THERMOFLUX_DIM_CAP environment variable overrides the dense-dimension cap.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from thermoflux.core import (
    DensityMatrix,
    ThermalContext,
    string_energies,
    thermal_state,
)
from thermoflux.estimation import classical_relative_entropy


class ConfigError(ValueError):
    """Invalid experiment configuration (unknown key, bad value)."""


STATE_PRESETS = ("ground", "plus", "thermal", "maximally-mixed")

_CONFIG_KEYS = {
    "mode", "state", "levels", "beta", "n_grid", "seeds", "params", "output",
}
# the params keys each mode reads; any other key is rejected
_PARAM_KEYS = {
    "classical": {"l", "c"},
    "aware": {"k"},
    "universal": {"c", "margin_factor"},
    "mnp": {"M"},
    "tomo": {"k", "eta"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    state: object
    levels: tuple
    beta: float
    n_grid: tuple
    seeds: tuple
    params: dict = field(default_factory=dict)
    output: str = "sweep"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("mode", "state", "levels", "beta", "n_grid", "seeds"):
            if key not in raw:
                raise ConfigError(f"missing config key: {key}")
        mode = raw["mode"]
        if mode not in _PARAM_KEYS:
            raise ConfigError(f"unknown mode {mode!r}")
        params = dict(raw.get("params", {}))
        bad = set(params) - _PARAM_KEYS[mode]
        if bad:
            raise ConfigError(f"params keys {sorted(bad)} are not read by mode {mode!r}")
        if not raw["n_grid"] or not raw["seeds"]:
            raise ConfigError("n_grid and seeds must be non-empty")
        return cls(
            mode=mode,
            state=raw["state"],
            levels=tuple(raw["levels"]),
            beta=float(raw["beta"]),
            n_grid=tuple(int(n) for n in raw["n_grid"]),
            seeds=tuple(int(s) for s in raw["seeds"]),
            params=params,
            output=str(raw.get("output", "sweep")),
        )

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


def _matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "dim": m.shape[0],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def _matrix_from_json(obj: dict) -> np.ndarray:
    dim = int(obj["dim"])
    re = np.array(obj["re"], dtype=float)
    im = np.array(obj["im"], dtype=float)
    m = re + 1j * im
    if m.shape != (dim, dim):
        raise ConfigError("matrix shape does not match declared dim")
    return m


def resolve_state(spec, ctx: ThermalContext) -> DensityMatrix:
    """Preset name, diagonal list, or a JSON matrix file path."""
    d = ctx.dim
    if isinstance(spec, str):
        if spec == "ground":
            v = np.zeros(d)
            v[0] = 1.0
            return DensityMatrix.pure(v)
        if spec == "plus":
            return DensityMatrix.pure(np.ones(d) / math.sqrt(d))
        if spec == "thermal":
            return thermal_state(ctx)
        if spec == "maximally-mixed":
            return DensityMatrix(np.eye(d) / d)
        try:
            with open(spec) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"state {spec!r}: not a preset and not readable ({exc})")
        return DensityMatrix(_matrix_from_json(obj))
    if isinstance(spec, (list, tuple)):
        return DensityMatrix.from_diagonal(np.asarray(spec, dtype=float))
    raise ConfigError(f"cannot interpret state spec {spec!r}")


SWEEP_COLUMNS = (
    "mode", "n", "k", "m", "l", "rate_nats", "target_nats",
    "xi", "fidelity", "seed",
)


def _run_row(config: ExperimentConfig, ctx: ThermalContext, rho, n: int, seed: int,
             exact: bool = False):
    """One CSV row; exact runs the universal protocol without its measurement stage."""
    from thermoflux import extraction as ex

    mode = config.mode
    params = config.params
    if mode == "classical":
        p = np.clip(rho.diagonal(), 0.0, None)
        p = p / p.sum()
        alph = ex.WorkAlphabet.from_context(ctx)
        l = int(params.get("l", ex.bath_size(n, params.get("c", 1.0))))
        target = classical_relative_entropy(p, alph.thermal)
        out = ex.run_pipeline(alph, p, n, l, n, target, {"system": n, "bath": l}, {}, seed=seed)
        k, m = 1, 0
    elif mode == "aware":
        k = int(params.get("k", 1))
        out = ex.state_aware_protocol(rho, ctx, n, k=k, seed=seed, plan_mode="auto")
        m = 0
    elif mode == "universal":
        up = ex.UniversalParams.from_schedule(
            n, ctx,
            c=float(params.get("c", 1.0)),
            margin_factor=float(params.get("margin_factor", 2.0)),
        )
        out = ex.universal_protocol(rho, ctx, up, seed=seed, mode="exact" if exact else "sampled")
        k, m = up.k, out.details["m"]
    elif mode == "mnp":
        M = int(params.get("M", max(2, math.ceil(math.sqrt(n)))))
        p = np.clip(rho.diagonal(), 0.0, None)
        p = p / p.sum()
        _, out = ex.measure_and_prepare_protocol(M, ctx, n, p)
        k, m = 1, n
    elif mode == "tomo":
        k = int(params.get("k", 1))
        out = ex.tomographic_universal_protocol(
            rho, ctx, n, k=k, eta=float(params.get("eta", 0.0)), seed=seed
        )
        m = 0
    else:  # pragma: no cover - rejected at config validation
        raise ConfigError(f"unknown mode {mode!r}")
    l_used = out.copies_consumed.get("bath", 0)
    return {
        "mode": mode,
        "n": n,
        "k": k,
        "m": m,
        "l": l_used,
        "rate_nats": f"{out.rate_nats:.12g}",
        "target_nats": f"{out.target_rate:.12g}",
        "xi": f"{out.xi:.12g}",
        "fidelity": f"{out.fidelity:.12g}",
        "seed": seed,
    }


@dataclass(frozen=True)
class SweepResult:
    config: ExperimentConfig
    rows: tuple
    failures: tuple

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# config_hash={self.config.config_hash()}\n")
        from thermoflux import __version__

        buf.write(f"# code_version={__version__}\n")
        writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        return buf.getvalue()

    def summary(self) -> dict:
        per_n = {}
        for row in self.rows:
            per_n.setdefault(row["n"], []).append(float(row["rate_nats"]))
        return {
            "config_hash": self.config.config_hash(),
            "rows": len(self.rows),
            "failures": list(self.failures),
            "per_n": {
                str(n): {
                    "mean_rate": sum(v) / len(v),
                    "min_rate": min(v),
                    "max_rate": max(v),
                }
                for n, v in sorted(per_n.items())
            },
        }


def run_sweep(config: ExperimentConfig) -> SweepResult:
    ctx = ThermalContext(levels=config.levels, beta=config.beta)
    rho = resolve_state(config.state, ctx)
    rows, failures = [], []
    for n in config.n_grid:
        for seed in config.seeds:
            try:
                rows.append(_run_row(config, ctx, rho, n, seed))
            except Exception as exc:
                failures.append({"n": n, "seed": seed, "reason": repr(exc)})
    return SweepResult(config=config, rows=tuple(rows), failures=tuple(failures))


def haar_experiment(n_qubits: int, samples: int, seed: int = 0) -> dict:
    """Sampled vs exact mean energy of Haar-random n-qubit pure states.

    The Haar average of <psi|H|psi> equals Tr[H] / 2^n; sampling draws complex
    Gaussian vectors and normalizes.  Pure states have zero entropy, so the
    mean free energy is beta times the mean energy.
    """
    if not (1 <= n_qubits <= 6):
        raise ConfigError("n_qubits must be in 1..6")
    if samples < 2:
        raise ConfigError(f"samples must be >= 2 for a standard error, got {samples}")
    ctx = ThermalContext(levels=(0, 1), beta=1.0)
    diag = np.array([float(e) for e in string_energies(ctx.levels, n_qubits)])
    dim = len(diag)
    target = float(diag.sum()) / dim
    rng = np.random.default_rng(np.random.SeedSequence([seed, 577]))
    energies = np.empty(samples)
    for i in range(samples):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        energies[i] = float(np.sum(np.abs(v) ** 2 * diag))
    mean = float(energies.mean())
    stderr = float(energies.std(ddof=1) / math.sqrt(samples))
    passed = abs(mean - target) <= 3.0 * stderr
    return {
        "n_qubits": n_qubits,
        "samples": samples,
        "seed": seed,
        "mean": mean,
        "target": target,
        "stderr": stderr,
        "passed": bool(passed),
        "mean_free_energy_beta": ctx.beta * mean,
    }


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _ctx_from_args(args) -> ThermalContext:
    levels = tuple(Fraction(x) for x in args.levels.split(","))
    return ThermalContext(levels=levels, beta=getattr(args, "beta", 0.0))  # schur reads no beta


def _cmd_schur(args) -> int:
    from thermoflux.schur import build_schur_basis

    ctx = _ctx_from_args(args)
    basis = build_schur_basis(args.n, ctx.dim)
    blocks = []
    for b in basis.blocks:
        energies = b.energy_labels(ctx.levels)
        vectors = []
        for i in range(b.weyl_dim):
            for t in range(b.sym_dim):
                v = b.copies[:, i, t]
                vectors.append({
                    "amplitudes": [[float(x.real), float(x.imag)] for x in v],
                    "energy": float(energies[i]),
                })
        blocks.append({
            "lambda": list(b.diagram.rows),
            "n_lambda": b.weyl_dim,
            "m_lambda": b.sym_dim,
            "vectors": vectors,
        })
    _emit(args, {"n": args.n, "d": ctx.dim, "blocks": blocks})
    return 0


def _cmd_pinch(args) -> int:
    from thermoflux import pinching

    ctx = _ctx_from_args(args)
    from thermoflux.core import tensor_power, _entries

    rho = resolve_state(args.state, ctx)
    k = args.copies
    if args.kind == "energy":
        channel = pinching.energy_pinching(ctx, k)
    else:
        channel = pinching.schur_pinching(ctx, k)
    rk = _entries(tensor_power(rho, k))
    out = pinching.apply(channel, rk)
    loss = pinching.relative_entropy_loss(channel, rk, k)
    bound = (2.0 * (ctx.dim - 1) / k) * math.log(k + 1)
    _emit(args, {
        "state": _matrix_to_json(out),
        "projector_count": len(channel.family),
        "loss_nats": loss,
        "bound_nats": bound,
    })
    return 0


def _cmd_extract(args) -> int:
    if args.exact and args.mode != "universal":
        raise ConfigError(f"--exact applies only to --mode universal, not {args.mode!r}")
    config = ExperimentConfig.from_dict({
        "mode": args.mode,
        "state": args.state,
        "levels": [str(x) for x in args.levels.split(",")],
        "beta": args.beta,
        "n_grid": [args.n],
        "seeds": [args.seed],
        "params": {} if args.k is None else {"k": args.k},
    })
    ctx = _ctx_from_args(args)
    rho = resolve_state(config.state, ctx)
    row = _run_row(config, ctx, rho, args.n, args.seed, exact=args.exact)
    _emit(args, row)
    if args.csv:
        new = not os.path.exists(args.csv)
        with open(args.csv, "a", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
            if new:
                writer.writeheader()
            writer.writerow(row)
    return 0


def _cmd_sweep(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    config = ExperimentConfig.from_dict(raw)
    result = run_sweep(config)
    csv_path = f"{config.output}.csv"
    json_path = f"{config.output}.json"
    with open(csv_path, "w") as fh:
        fh.write(result.to_csv())
    with open(json_path, "w") as fh:
        json.dump(result.summary(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_infdim(args) -> int:
    from thermoflux import infdim

    if args.state == "power-law":
        rho = infdim.TailState(epsilon=args.epsilon)
    else:
        with open(args.state) as fh:
            coeffs = json.load(fh)
        rho = infdim.TailState(coefficients=tuple(coeffs))
    schedule = infdim.CutoffSchedule(epsilon=args.epsilon)
    ctx = infdim.InfiniteContext(beta=args.beta)
    target = infdim.renormalized_free_energy_limit(rho, ctx)
    curve = infdim.schedule_success_curve(rho, schedule, [int(x) for x in args.n_grid.split(",")])
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n", "d_n", "success", "rate", "target"])
    for n, d_n, success in curve:
        rate = ""
        if n <= args.protocol_n_cap:
            out = infdim.semiuniversal_protocol(
                infdim.CandidateSet(states=(rho,)), 0, ctx, n, seed=args.seed,
                schedule=schedule,
            )
            rate = f"{out.rate_nats:.12g}"
        writer.writerow([n, d_n, f"{success:.12g}", rate, f"{target:.12g}"])
    return 0


def _cmd_haar(args) -> int:
    report = haar_experiment(args.qubits, args.samples, seed=args.seed)
    _emit(args, report)
    return 0


def _cmd_acceptance(args) -> int:
    from thermoflux.acceptance import run_all

    verdict = run_all(only=args.only)
    text = json.dumps(verdict, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if verdict["passed"] else 3


def _emit(args, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoflux",
        description="Work-extraction protocol simulator (thermal operations).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def levels_and_out(p):
        p.add_argument("--levels", default="0,1", help="comma-separated energies")
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    def common(p):
        levels_and_out(p)
        p.add_argument("--beta", type=float, default=1.0)

    p = sub.add_parser("schur", help="emit the Schur basis as JSON")
    p.add_argument("--n", type=int, required=True)
    levels_and_out(p)
    p.set_defaults(func=_cmd_schur)

    p = sub.add_parser("pinch", help="apply a pinching channel")
    p.add_argument("--state", required=True)
    p.add_argument("--kind", choices=("energy", "schur"), default="schur")
    p.add_argument("--copies", type=int, default=1)
    common(p)
    p.set_defaults(func=_cmd_pinch)

    p = sub.add_parser("extract", help="run one protocol instance")
    p.add_argument("--mode", choices=tuple(_PARAM_KEYS), required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=None, help="block size (aware and tomo modes)")
    p.add_argument("--exact", action="store_true",
                   help="universal mode: the oracle reference, which chooses the shift "
                        "on the true Weyl letters with no measurement stage")
    p.add_argument("--csv", default=None, help="append the result row here")
    common(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("sweep", help="run a configured sweep")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("infdim", help="truncation success curve")
    p.add_argument("--state", default="power-law",
                   help='"power-law" or a JSON coefficient file')
    p.add_argument("--epsilon", type=float, default=2.0)
    p.add_argument("--n-grid", default="10,100,1000,10000,100000,1000000")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--protocol-n-cap", type=int, default=1000)
    p.set_defaults(func=_cmd_infdim)

    p = sub.add_parser("haar", help="Haar mean-energy experiment")
    p.add_argument("--qubits", type=int, default=3)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_haar)

    p = sub.add_parser("acceptance", help="run the acceptance-criteria suite")
    p.add_argument("--only", default=None, help="substring filter on criteria names")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_acceptance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
