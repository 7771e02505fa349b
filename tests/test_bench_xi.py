"""Smoke test of the xi layer bench script on its cells with n <= 18, as a
before/after pair against a baseline checkout."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "bench" / "xi_layer.py"


def test_xi_layer_bench_writes_its_report(tmp_path):
    """A copy of this tree's src/, one comment line longer, stands for the
    baseline: the exact row is measured on both, the baseline's first, with
    the same result, each with a cold and a warm time."""
    baseline = tmp_path / "baseline"
    shutil.copytree(ROOT / "src", baseline / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(baseline / "src" / "thermoflux" / "__init__.py", "a") as fh:
        fh.write("# baseline copy\n")
    spec = importlib.util.spec_from_file_location("xi_layer", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path / "BENCH_xi.json"
    assert bench.main(["--out", str(out), "--max-n", "18", "--baseline", str(baseline)]) == 0
    report = json.loads(out.read_text())
    assert report["topic"] == "xi" and report["commit"] and report["src_lines"] > 0
    assert report["machine"]["cores"] >= 1
    assert [(e["layer"], e["cell"]) for e in report["entries"]] == [
        ("xi_exact", "qutrit n=18"), ("xi_exact", "qutrit n=18"), ("xi_sampled", "qubit k=4 n_eff=2500")
    ]
    before, after, sampled = report["entries"]
    for exact in (before, after):
        assert 0 < exact["g_rows"][0] < exact["g_rows"][1] == 3081
        assert 0 < exact["f_rows"][0] <= exact["f_rows"][1] == 190
        assert exact["pairs"] == exact["f_rows"][0] * exact["g_rows"][0]
        assert exact["cold_seconds"] > 0
    assert after["commit"] == report["commit"] and after["src_lines"] == report["src_lines"]
    assert before["src_lines"] == report["src_lines"] + 1
    for key in ("h", "xi", "f_rows", "g_rows", "pairs"):
        assert before[key] == after[key]
    assert sampled["pairs"] == sampled["f_rows"][0] == sampled["g_rows"][0] == 400
    for entry in report["entries"]:
        assert entry["repeats"] >= 5 and entry["seconds"] > 0
        assert 0.0 <= entry["xi"] <= 1.0
