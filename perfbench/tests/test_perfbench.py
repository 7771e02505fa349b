"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import functools
import itertools
import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostcal  # noqa: E402
import layers  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


# --- spans and self time -----------------------------------------------------


def test_self_time_on_synthetic_tree():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 8]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 8.0]
    parent = [-1, 0, 0, 2]
    assert spans.self_times(start, end, parent).tolist() == [3.0, 3.0, 2.0, 2.0]


def test_tracer_wraps_every_binding_and_skips_missing_names():
    from thermoflux import extraction, typeclass

    original = typeclass.injection_feasible
    tracer = spans.Tracer()
    specs = (
        spans.Traced("typeclass", "thermoflux.typeclass", "injection_feasible"),
        spans.Traced("typeclass", "thermoflux.typeclass", "no_such_function"),
    )
    wrapped = tracer.install(specs)
    try:
        assert wrapped == ["typeclass.injection_feasible"]
        assert extraction.injection_feasible is typeclass.injection_feasible is not original
        tracer.run_op(0, lambda: extraction.injection_feasible((2, 1), (1, 1), (0, 0)))
        with pytest.raises(ValueError):
            tracer.run_op(1, lambda: typeclass.injection_feasible((1,), (1, 1), (0, 0)))
    finally:
        tracer.uninstall()
    assert extraction.injection_feasible is original is typeclass.injection_feasible
    arr = tracer.arrays()
    assert arr["parent"].tolist() == [-1, 0, -1, 2]
    assert arr["op_id"].tolist() == [0, 0, 1, 1]
    assert arr["raised"].tolist() == [0, 0, 1, 1]
    values = layers.layer_metrics(tracer, wrapped, rounds=1)
    assert values["typeclass.injection_feasible.calls"] == 2
    assert values["typeclass.injection_feasible.errors"] == 1
    assert not any(name.startswith("typeclass.no_such_function") for name in values)


# --- percentile rule ---------------------------------------------------------


def test_tail_is_median_below_forty_samples():
    values = list(range(39))
    assert stats.tail(values)[0] == 19


@pytest.mark.parametrize("n, rank", [(40, 30), (41, 31), (100, 90)])
def test_tail_leaves_ten_samples_beyond(n, rank):
    values = list(np.random.default_rng(n).permutation(np.arange(1, n + 1)))
    value, label = stats.tail(values)
    assert value == rank
    assert sum(v > value for v in values) == 10
    assert label.startswith(f"p{100 * rank // n} of {n}")


# --- independent references against textbook values ----------------------------


def test_qubit_ground_state_free_energy():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert ref.quantum_free_energy(rho, (0, 1), 1.0) == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)
    assert math.log(1 + math.exp(-1)) == pytest.approx(0.313262, abs=5e-7)


def test_xi_is_zero_without_shift():
    t = ref.gibbs((0, 1), 1.0)
    assert ref.atypical_mass([0.7, 0.3], t, 30, 165, (0, 0)) == pytest.approx(0.0, abs=1e-12)
    assert ref.atypical_mass([0.5, 0.3, 0.2], ref.gibbs((0, 1, 2), 1.0), 6, 15, (0, 0, 0)) == pytest.approx(0.0, abs=1e-12)


def test_xi_matches_brute_force_on_a_small_grid():
    p, t, n, l, h = np.array([0.8, 0.2]), ref.gibbs((0, 1), 1.0), 6, 15, (-2, 2)
    success = 0.0
    for f0 in range(n + 1):
        for g0 in range(l + 1):
            f, g = (f0, n - f0), (g0, l - g0)
            target = tuple(a + b - c for a, b, c in zip(f, g, h))
            if min(target) < 0:
                continue
            if math.comb(n, f0) * math.comb(l, g0) <= math.comb(n + l, target[0]):
                success += math.comb(n, f0) * p[0] ** f0 * p[1] ** f[1] * math.comb(l, g0) * t[0] ** g0 * t[1] ** g[1]
    assert ref.atypical_mass(p, t, n, l, h) == pytest.approx(1.0 - success, abs=1e-12)


def test_power_law_closed_form_against_partial_sum_plus_hurwitz_remainder():
    eps, beta, delta = 2.0, 1.0, 1.0
    s = 2 + eps
    zeta = float(mpmath.zeta(s))
    log_z = -math.log1p(-math.exp(-beta * delta))
    cut = 1000
    i = np.arange(1, cut + 1, dtype=float)
    p = i ** -s / zeta
    head = float(np.sum(p * (np.log(p) + beta * delta * (i - 1) + log_z)))
    # sum_{i > cut} p_i (-s ln i - ln zeta + beta delta (i - 1) + ln Z)
    a = cut + 1
    tail = (
        s * float(mpmath.zeta(s, a, 1))
        + (log_z - math.log(zeta) - beta * delta) * float(mpmath.zeta(s, a))
        + beta * delta * float(mpmath.zeta(s - 1, a))
    ) / zeta
    assert ref.power_law_free_energy(eps, beta, delta) == pytest.approx(head + tail, abs=1e-12)
    assert ref.power_law_head_mass(eps, cut) == pytest.approx(float(p.sum()), abs=1e-12)


@pytest.mark.parametrize("d, k", [(2, 5), (3, 4), (4, 3)])
def test_schur_weyl_dimensions_fill_the_tensor_power(d, k):
    assert sum(ref.weyl_dim(lam, d) * ref.hook_dim(lam) for lam in ref.partitions(k, d)) == d ** k


def test_hook_length_values():
    assert [ref.hook_dim(lam) for lam in ((3,), (2, 1), (1, 1, 1), (3, 2), (2, 2, 1))] == [1, 2, 1, 5, 5]


def test_block_masses_by_hand_with_ties():
    # n = 4, M = 2: the types f0/4 = 1/4 and 3/4 lie halfway between grid
    # points and go to the lexicographically smaller one, (0, 2) and (1, 1).
    p0, p1 = 0.3, 0.7
    masses = {b: math.exp(lm) for b, lm in ref.block_log_masses([p0, p1], 4, 2).items()}
    assert masses == pytest.approx({
        (0, 2): p1 ** 4 + 4 * p0 * p1 ** 3,
        (1, 1): 6 * p0 ** 2 * p1 ** 2 + 4 * p0 ** 3 * p1,
        (2, 0): p0 ** 4,
    }, abs=1e-15)
    assert ref.nearest_block([0.25, 0.75], 2) == (0, 2)
    assert ref.nearest_block([0.5, 0.3, 0.2], 4) == (2, 1, 1)


@pytest.mark.parametrize("d, n, M", [(2, 40, 4), (3, 12, 3)])
def test_block_rate_bound_holds_for_every_block(d, n, M):
    t = ref.gibbs(range(d), 1.0)
    for block, log_mass in ref.block_log_masses(t, n, M).items():
        assert -log_mass / n <= ref.block_rate_bound(block, t, n, M)


# --- host-speed calibration ------------------------------------------------------


def test_op_times_scale_by_the_calibration_samples_around_them(monkeypatch):
    # samples 0..10 around ops 0..9: the host is twice as slow from sample 5 on
    samples = itertools.chain([2.0] * 5, itertools.repeat(4.0))
    monkeypatch.setattr(hostcal, "sample", lambda: hostcal.REF_S * next(samples))
    ops = [workloads.Op(f"op {i}", lambda: i, lambda out: []) for i in range(10)]
    wall, scaled, *_ = run._measure(ops, 0.0, None)
    # op i of the first round is scaled by the median of samples i-3 .. i+4
    medians = [2.0, 2.0, 2.0, 2.0, 3.0, 4.0, 4.0, 4.0, 4.0, 4.0]
    for w, s, m in zip(wall, scaled, medians):
        assert s[0] == pytest.approx(w[0] / m)


# --- known faults and exit status ------------------------------------------------


def test_known_fault_excuses_only_its_own_problem():
    fault = "known fault"

    def boom():
        raise RuntimeError("boom")

    ops = [
        workloads.Op("fault only", lambda: 1, lambda out: [fault], known_fault=fault),
        workloads.Op("fault and more", lambda: 2, lambda out: [fault, "ledger"], known_fault=fault),
        workloads.Op("raises", boom, lambda out: [], known_fault=fault),
        workloads.Op("other problem", lambda: 3, lambda out: ["wrong"]),
        workloads.Op("passes", lambda: 4, lambda out: []),
    ]
    _, _, attempted, failed, rounds, unexpected = run._measure(ops, 0.0, None)
    assert rounds == run.MIN_ROUNDS
    assert (attempted, failed) == (5 * rounds, 4 * rounds)
    assert [label for label, _ in unexpected] == ["fault and more", "raises", "other problem"] * rounds


def test_unexpected_failure_sets_exit_status(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "universal", lambda seed, **sizes: [
        workloads.Op("wrong", lambda: 0, lambda out: ["wrong output"]),
    ])
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    args = run._parse(["--workload", "universal", "--seed", "3", "--seconds", "0", "--trace", "0"])
    assert run.run_workload(args) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, run.MIN_ROUNDS, run.MIN_ROUNDS)


# --- smoke runs at tiny sizes --------------------------------------------------

@pytest.fixture
def tiny(monkeypatch):
    """Every workload at its warm-up sizes, with one set-up per run."""
    for name, sizes in workloads.WARM_SIZES.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, functools.partial(workloads.WORKLOADS[name], **sizes))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("name", run.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(tiny, capsys, name, trace):
    args = run._parse(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert run.run_workload(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected_failures = 1 if name == "semiuniversal" else 0  # the epsilon=1 op, in each round
    assert result["failed"] == expected_failures * run.MIN_ROUNDS
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    section = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for metric in section:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

