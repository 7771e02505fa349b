"""Smoke test of the xi layer bench script on its cells with n <= 18."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "xi_layer.py"


def test_xi_layer_bench_writes_its_report(tmp_path):
    spec = importlib.util.spec_from_file_location("xi_layer", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path / "BENCH_xi.json"
    assert bench.main(["--out", str(out), "--max-n", "18"]) == 0
    report = json.loads(out.read_text())
    assert report["topic"] == "xi" and report["commit"] and report["src_lines"] > 0
    assert report["machine"]["cores"] >= 1
    assert [(e["layer"], e["cell"]) for e in report["entries"]] == [
        ("xi_exact", "qutrit n=18"), ("xi_sampled", "qubit k=4 n_eff=2500")
    ]
    exact, sampled = report["entries"]
    assert 0 < exact["g_rows"][0] < exact["g_rows"][1] == 3081
    assert 0 < exact["f_rows"][0] <= exact["f_rows"][1] == 190
    assert exact["pairs"] == exact["f_rows"][0] * exact["g_rows"][0]
    assert sampled["pairs"] == sampled["f_rows"][0] == sampled["g_rows"][0] == 400
    for entry in report["entries"]:
        assert entry["repeats"] >= 5 and entry["seconds"] > 0
        assert 0.0 <= entry["xi"] <= 1.0
