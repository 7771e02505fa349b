"""Which library functions the traced run wraps, and the per-layer metrics
computed from their spans.

Layers are thermoflux's modules.  `cli` and `acceptance` are front ends that
add no work of their own and are not traced.  Times and counts are per
round (one pass through the workload's op list), so runs that fit a
different number of rounds report comparable figures.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from spans import ROOT, Traced, self_times


def _dim(args, kwargs, result):
    entries = getattr(result, "entries", result)
    return {"dim": int(np.shape(entries)[0])}


def _plan_probe(args, kwargs, result):
    # imported lazily: the spec table must load without the library
    from thermoflux import extraction

    bound = inspect.signature(extraction.build_classical_plan).bind(*args, **kwargs)
    bound.apply_defaults()
    if result.xi_mode == "exact":
        support = int((np.asarray(result.p) > 0).sum())
        d = len(result.p)
        blocks = math.comb(result.n + support - 1, support - 1) * math.comb(result.l + d - 1, d - 1)
        return {"exact_blocks": blocks}
    return {"sampled_draws": int(bound.arguments["samples"])}


SPECS = (
    Traced("core", "thermoflux.core", "relative_entropy"),
    Traced("core", "thermoflux.core", "tensor_power", probe=_dim),
    Traced("schur", "thermoflux.schur", "build_schur_basis", probe=lambda a, k, r: {"nd": (r.n, r.d)}),
    Traced("pinching", "thermoflux.pinching", "schur_pinched_distribution"),
    Traced("pinching", "thermoflux.pinching", "schur_pinching",
           probe=lambda a, k, r: {"projectors": len(r.family.projectors)}),
    Traced("pinching", "thermoflux.pinching", "energy_pinching"),
    Traced("pinching", "thermoflux.pinching", "apply"),
    Traced("typeclass", "thermoflux.typeclass", "injection_feasible"),
    Traced("typeclass", "thermoflux.typeclass", "exact_freq_count"),
    Traced("estimation", "thermoflux.estimation", "sample_types", probe=lambda a, k, r: {"draws": r.m}),
    Traced("extraction", "thermoflux.extraction", "choose_shift"),
    Traced("extraction", "thermoflux.extraction", "build_classical_plan",
           probe=_plan_probe, tag=lambda a, k, r: r.xi_mode),
    Traced("extraction", "thermoflux.extraction", "universal_protocol"),
    Traced("extraction", "thermoflux.extraction", "state_aware_protocol"),
    Traced("extraction", "thermoflux.extraction", "measure_and_prepare_protocol"),
    Traced("infdim", "thermoflux.infdim", "distinguishing_dimension"),
    Traced("infdim", "thermoflux.infdim", "renormalized_free_energy_limit"),
    Traced("infdim", "thermoflux.infdim", "semiuniversal_protocol",
           probe=lambda a, k, r: {"levels": r.details["d_n"]}),
)

# Metrics beyond .calls, .self_s and .errors: (function key, suffix, unit, better).
EXTRA = (
    ("core.tensor_power", "max_dim", "count", "lower"),
    ("schur.build_schur_basis", "distinct", "count", "lower"),
    ("schur.build_schur_basis", "useful_frac", "ratio", "higher"),
    ("pinching.schur_pinching", "projectors", "count", "lower"),
    ("estimation.sample_types", "draws", "count", "lower"),
    ("extraction.choose_shift", "checks_per_call", "count", "lower"),
    ("extraction.build_classical_plan", "exact_s", "s", "lower"),
    ("extraction.build_classical_plan", "sampled_s", "s", "lower"),
    ("extraction.build_classical_plan", "exact_blocks", "count", "lower"),
    ("extraction.build_classical_plan", "sampled_draws", "count", "lower"),
    ("infdim.semiuniversal_protocol", "levels", "count", "lower"),
)


def catalogue() -> list:
    """(name, unit, better) of every per-layer metric, in a fixed order."""
    out = []
    for spec in SPECS:
        out += [
            (f"{spec.key}.calls", "count", "lower"),
            (f"{spec.key}.self_s", "s", "lower"),
            (f"{spec.key}.errors", "count", "lower"),
        ]
        out += [(f"{key}.{suffix}", unit, better) for key, suffix, unit, better in EXTRA if key == spec.key]
    return out


def layer_metrics(tracer, wrapped, rounds: int) -> dict:
    """Per-layer metric values from a finished traced run.  Metrics of a
    function that was not wrapped (it no longer exists) are left out."""
    arr = tracer.arrays()
    own = self_times(arr["start"], arr["end"], arr["parent"])
    ids = {name: i for i, name in enumerate(tracer.names)}
    values: dict = {}
    for spec in SPECS:
        key = spec.key
        if key not in wrapped:
            continue
        mask = arr["name_id"] == ids[key]
        calls = int(mask.sum())
        values[f"{key}.calls"] = calls / rounds
        values[f"{key}.self_s"] = float(own[mask].sum()) / rounds
        values[f"{key}.errors"] = int(arr["raised"][mask].sum()) / rounds
        counts = {c: v for (k, c), v in tracer.counts.items() if k == key}
        if key == "core.tensor_power":
            values[f"{key}.max_dim"] = max(counts.get("dim", [0]))
        elif key == "schur.build_schur_basis":
            distinct = len(set(counts.get("nd", [])))
            values[f"{key}.distinct"] = distinct
            values[f"{key}.useful_frac"] = distinct / (calls / rounds) if calls else 0.0
        elif key == "pinching.schur_pinching":
            values[f"{key}.projectors"] = sum(counts.get("projectors", [])) / rounds
        elif key == "estimation.sample_types":
            values[f"{key}.draws"] = sum(counts.get("draws", [])) / rounds
        elif key == "extraction.choose_shift":
            checks = 0
            if "typeclass.injection_feasible" in ids:
                feasible = np.flatnonzero(arr["name_id"] == ids["typeclass.injection_feasible"])
                parents = arr["parent"][feasible]
                checks = int((arr["name_id"][parents[parents >= 0]] == ids[key]).sum())
            values[f"{key}.checks_per_call"] = checks / calls if calls else 0.0
        elif key == "extraction.build_classical_plan":
            idx = np.flatnonzero(mask)
            tags = [tracer.tags.get(int(i)) for i in idx]
            for mode in ("exact", "sampled"):
                sel = idx[[t == mode for t in tags]] if len(idx) else idx
                values[f"{key}.{mode}_s"] = float(own[sel].sum()) / rounds
            values[f"{key}.exact_blocks"] = sum(counts.get("exact_blocks", [])) / rounds
            values[f"{key}.sampled_draws"] = sum(counts.get("sampled_draws", [])) / rounds
        elif key == "infdim.semiuniversal_protocol":
            values[f"{key}.levels"] = sum(counts.get("levels", [])) / rounds
    return values


def layer_shares(tracer) -> dict:
    """Each layer's share of total op time (self time over op-span time), plus
    the share no traced function covers ("untraced")."""
    arr = tracer.arrays()
    own = self_times(arr["start"], arr["end"], arr["parent"])
    is_op = arr["name_id"] == 0
    total = float((arr["end"] - arr["start"])[is_op].sum())
    shares: dict = {}
    for i, name in enumerate(tracer.names):
        layer = "untraced" if name == ROOT else name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + float(own[arr["name_id"] == i].sum()) / total
    return shares
