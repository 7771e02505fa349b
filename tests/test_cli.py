"""Tests for configuration validation, sweeps, and the command-line interface."""

import hashlib
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from thermoflux.cli import (
    ConfigError,
    ExperimentConfig,
    SweepResult,
    haar_experiment,
    main,
    resolve_state,
    run_sweep,
)
from thermoflux.core import ThermalContext, thermal_state

QUBIT = ThermalContext(levels=(0, 1), beta=1.0)


def base_config(**overrides):
    raw = {
        "mode": "classical",
        "state": "ground",
        "levels": [0, 1],
        "beta": 1.0,
        "n_grid": [20, 40],
        "seeds": [0],
    }
    raw.update(overrides)
    return raw


class TestExperimentConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(bogus=1))

    def test_unknown_param_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(params={"warp": 9}))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(mode="psychic"))

    def test_missing_key_rejected(self):
        raw = base_config()
        del raw["beta"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_hash_is_stable(self):
        a = ExperimentConfig.from_dict(base_config())
        b = ExperimentConfig.from_dict(base_config())
        assert a.config_hash() == b.config_hash()

    def test_hash_changes_with_content(self):
        a = ExperimentConfig.from_dict(base_config())
        b = ExperimentConfig.from_dict(base_config(beta=2.0))
        assert a.config_hash() != b.config_hash()

    @pytest.mark.parametrize("overrides, digest", [
        ({}, "5ff8c83bb4428a6f"),
        ({"mode": "universal", "state": [0.7, 0.2, 0.1], "levels": [0, 1, 2], "beta": 0.5, "n_grid": [1000],
          "seeds": [0, 1], "params": {"c": 1.0, "margin_factor": 2.0}, "output": "out/u"}, "58bca54bb9cb1d8a"),
    ], ids=["preset-state", "diagonal-list-state"])
    def test_hash_is_pinned(self, overrides, digest):
        """Sweep CSV headers carry the hash: a preset and a diagonal-list state."""
        assert ExperimentConfig.from_dict(base_config(**overrides)).config_hash() == digest


class TestStateResolution:
    def test_presets(self):
        assert resolve_state("ground", QUBIT).diagonal()[0] == pytest.approx(1.0)
        assert np.allclose(
            resolve_state("thermal", QUBIT).entries, thermal_state(QUBIT).entries
        )
        assert resolve_state("maximally-mixed", QUBIT).diagonal()[0] == pytest.approx(0.5)

    def test_diagonal_list(self):
        rho = resolve_state([0.25, 0.75], QUBIT)
        assert rho.diagonal()[1] == pytest.approx(0.75)

    def test_matrix_file(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({
            "dim": 2,
            "re": [[0.5, 0.0], [0.0, 0.5]],
            "im": [[0.0, 0.0], [0.0, 0.0]],
        }))
        rho = resolve_state(str(path), QUBIT)
        assert rho.diagonal()[0] == pytest.approx(0.5)

    def test_unreadable_spec_rejected(self):
        with pytest.raises(ConfigError):
            resolve_state("no-such-preset-or-file", QUBIT)


class TestSweep:
    def test_row_count(self):
        config = ExperimentConfig.from_dict(base_config(seeds=[0, 1]))
        result = run_sweep(config)
        assert len(result.rows) == 4
        assert not result.failures

    def test_thermal_sweep_all_zero_rate(self):
        config = ExperimentConfig.from_dict(base_config(state="thermal"))
        result = run_sweep(config)
        assert all(float(r["rate_nats"]) == 0.0 for r in result.rows)
        assert all(float(r["fidelity"]) == pytest.approx(1.0) for r in result.rows)

    def test_deterministic_csv(self):
        config = ExperimentConfig.from_dict(base_config())
        a = run_sweep(config).to_csv()
        b = run_sweep(config).to_csv()
        assert a == b

    def test_mnp_at_zero_beta_is_a_recorded_failure(self):
        config = ExperimentConfig.from_dict(base_config(mode="mnp", beta=0.0, params={"M": 4}))
        result = run_sweep(config)
        assert not result.rows and len(result.failures) == 2
        assert all(f["reason"].startswith("ValueError(") and "beta > 0" in f["reason"] for f in result.failures)

    @pytest.mark.parametrize("overrides, word, bad_n", [
        ({"mode": "mnp", "params": {"M": 0}}, "M >= 1", {20, 40}),
        ({"mode": "mnp", "n_grid": [0, 20]}, "n >= 1", {0}),
        ({"mode": "classical", "n_grid": [0, 20]}, "n >= 1", {0}),
        ({"mode": "aware", "params": {"k": 0}}, "k must be >= 1", {20, 40}),
        ({"mode": "tomo", "params": {"k": 0}}, "k must be >= 1", {20, 40}),
        ({"mode": "universal", "n_grid": [0, 20]}, "n >= 1", {0}),
    ], ids=["mnp-M0", "mnp-n0", "classical-n0", "aware-k0", "tomo-k0", "universal-n0"])
    def test_bad_size_is_a_recorded_failure(self, overrides, word, bad_n):
        """Each bad (n, seed) records the ValueError that names the size; the
        good ones still give rows."""
        config = ExperimentConfig.from_dict(base_config(**overrides))
        result = run_sweep(config)
        assert {f["n"] for f in result.failures} == bad_n
        assert all(f["reason"].startswith("ValueError(") and word in f["reason"] for f in result.failures)
        assert [r["n"] for r in result.rows] == [n for n in config.n_grid if n not in bad_n]

    def test_csv_carries_config_hash(self):
        config = ExperimentConfig.from_dict(base_config())
        csv_text = run_sweep(config).to_csv()
        assert f"config_hash={config.config_hash()}" in csv_text

    def test_summary_structure(self):
        config = ExperimentConfig.from_dict(base_config())
        summary = run_sweep(config).summary()
        assert summary["rows"] == 2
        assert set(summary["per_n"]) == {"20", "40"}


class TestHaarExperiment:
    def test_exact_target_three_qubits(self):
        report = haar_experiment(3, 50, seed=0)
        assert report["target"] == pytest.approx(1.5, abs=1e-14)

    def test_exact_target_one_qubit(self):
        report = haar_experiment(1, 10, seed=0)
        assert report["target"] == pytest.approx(0.5, abs=1e-14)

    def test_sample_mean_consistent(self):
        report = haar_experiment(3, 2000, seed=4)
        assert report["passed"]
        assert abs(report["mean"] - 1.5) <= 3 * report["stderr"]

    def test_two_samples_in_range(self):
        report = haar_experiment(3, 2, seed=9)
        assert 0.0 <= report["mean"] <= 3.0 and report["stderr"] > 0.0

    def test_too_many_qubits_rejected(self):
        with pytest.raises(ConfigError):
            haar_experiment(7, 10)


class TestCommandLine:
    def test_schur_emits_block_structure(self, capsys):
        rc = main(["schur", "--n", "2", "--levels", "0,1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert [b["lambda"] for b in out["blocks"]] == [[2], [1, 1]]
        assert sum(b["n_lambda"] * b["m_lambda"] for b in out["blocks"]) == 4

    def test_schur_takes_no_beta(self):
        with pytest.raises(SystemExit) as exc:
            main(["schur", "--n", "2", "--beta", "2"])
        assert exc.value.code == 2

    def test_schur_output_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "schur.json"
        assert main(["schur", "--n", "2", "--levels", "0,1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "21215aca88d3b3566f2ce5765f5c0bc1dbf5dacb0595942ab01359462c93eb0f")

    def test_pinch_reports_loss_and_bound(self, capsys):
        rc = main(["pinch", "--state", "plus", "--kind", "schur", "--copies", "2"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["projector_count"] == 4
        assert 0.0 <= out["loss_nats"] <= out["bound_nats"]

    def test_extract_classical(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        rc = main([
            "extract", "--mode", "classical", "--state", "ground",
            "--n", "30", "--csv", str(csv_path),
        ])
        assert rc == 0
        row = json.loads(capsys.readouterr().out)
        assert 0.0 < float(row["rate_nats"]) < math.log(1 + math.exp(-1))
        text = csv_path.read_text()
        assert "rate_nats" in text.splitlines()[0]

    def test_sweep_writes_artifacts(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(base_config(output=str(tmp_path / "out"))))
        rc = main(["sweep", "--config", str(config)])
        assert rc == 0
        csv_text = (tmp_path / "out.csv").read_text()
        assert csv_text.count("\n") >= 4  # 2 header comments + column row + 2 rows
        summary = json.loads((tmp_path / "out.json").read_text())
        assert summary["rows"] == 2

    def test_mnp_at_zero_beta_exits_2(self, capsys):
        assert main(["extract", "--mode", "mnp", "--state", "plus", "--n", "40", "--beta", "0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "beta > 0" in err[0]

    @pytest.mark.parametrize("argv", [
        ["extract", "--mode", "tomo", "--state", "plus", "--n", "10", "--k", "0"],
        ["extract", "--mode", "aware", "--state", "plus", "--n", "10", "--k", "0"],
        ["extract", "--mode", "mnp", "--state", "plus", "--n", "0"],
        ["extract", "--mode", "classical", "--state", "ground", "--n", "0"],
        ["extract", "--mode", "universal", "--state", "ground", "--n", "0"],
        ["infdim", "--epsilon", "2", "--n-grid", "0,5"],
        ["infdim", "--n-grid", "-3"], ["infdim", "--n-grid", "10,-3"],
        ["haar", "--samples", "0"], ["haar", "--samples", "1"], ["haar", "--samples", "-1"],
        ["pinch", "--state", "plus", "--kind", "energy", "--copies", "0"],
    ], ids=["tomo-k0", "aware-k0", "mnp-n0", "classical-n0", "universal-n0", "infdim-n0", "infdim-neg",
            "infdim-good-then-neg", "haar-0", "haar-1", "haar-neg", "pinch-energy-0"])
    def test_bad_size_exits_2(self, capsys, argv):
        """One error line, exit 2 and nothing on stdout: no traceback, no warning, no partial output."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_validation_error_exit_code(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(base_config(bogus=True)))
        rc = main(["sweep", "--config", str(config)])
        assert rc == 2

    @pytest.mark.parametrize("params", [
        ("universal", {"m": 3}), ("universal", {"run_mode": "exact"}), ("universal", {"k": 3}),
        ("universal", {"l": 100}), ("universal", {"M": 4}), ("universal", {"eta": 0.1}),
        ("classical", {"k": 2}), ("classical", {"M": 4}), ("aware", {"c": 1.0}),
        ("aware", {"eta": 0.1}), ("mnp", {"k": 5}), ("mnp", {"l": 100}),
        ("tomo", {"M": 4}), ("tomo", {"margin_factor": 1.0}),
    ])
    def test_unread_param_rejected(self, tmp_path, capsys, params):
        """A params key the mode does not read exits 2 (params: (mode, keys))."""
        mode, keys = params
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(base_config(mode=mode, params=keys)))
        assert main(["sweep", "--config", str(config)]) == 2
        assert "not read by mode" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, params", [
        ("classical", {"l": 100, "c": 1.0}), ("aware", {"k": 2}),
        ("universal", {"c": 1.0, "margin_factor": 2.0}), ("mnp", {"M": 4}),
        ("tomo", {"k": 2, "eta": 0.1}),
    ])
    def test_params_read_by_the_mode_accepted(self, mode, params):
        assert ExperimentConfig.from_dict(base_config(mode=mode, params=params)).params == params

    @pytest.mark.parametrize("mode, rc", [
        ("universal", 2), ("mnp", 2), ("classical", 2), ("aware", 0), ("tomo", 0),
    ])
    def test_extract_k_only_where_read(self, capsys, mode, rc):
        assert main(["extract", "--mode", mode, "--state", "ground", "--n", "12", "--k", "2"]) == rc

    @pytest.mark.parametrize("mode", ["classical", "aware", "mnp", "tomo"])
    def test_exact_flag_outside_universal_rejected(self, capsys, mode):
        rc = main(["extract", "--mode", mode, "--state", "ground", "--n", "10", "--exact"])
        assert rc == 2
        assert "--exact applies only to --mode universal" in capsys.readouterr().err

    def test_removed_sampled_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--mode", "classical", "--state", "ground", "--n", "10", "--sampled"])
        assert exc.value.code == 2

    def test_haar_subcommand(self, capsys):
        rc = main(["haar", "--qubits", "3", "--samples", "50", "--seed", "1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["target"] == pytest.approx(1.5)

    def test_infdim_subcommand(self, capsys):
        rc = main(["infdim", "--n-grid", "10,100", "--protocol-n-cap", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,d_n,success,rate,target"
        assert len(lines) == 3

    def test_acceptance_filter(self, capsys):
        rc = main(["acceptance", "--only", "haar"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in out["criteria"]] == ["haar-average"]
        assert out["passed"]

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "thermoflux.cli", "haar", "--samples", "5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
