"""Smoke test of the Schur layer bench script on its cells with k <= 4, as a
before/after pair against a baseline checkout."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "bench" / "schur_layer.py"
TIMES = ("build_s", "pinch_apply_s", "pinched_dist_s", "rel_entropy_s")


def _bench():
    spec = importlib.util.spec_from_file_location("schur_layer", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_schur_layer_bench_writes_its_report(tmp_path):
    out = tmp_path / "BENCH_schur.json"
    assert _bench().main(["--out", str(out), "--max-k", "4"]) == 0
    report = json.loads(out.read_text())
    assert report["topic"] == "schur" and report["commit"] and report["src_lines"] > 0
    assert report["machine"]["cores"] >= 1
    assert [(e["d"], e["k"]) for e in report["entries"]] == [(2, 4), (3, 3), (3, 4)]
    for entry in report["entries"]:
        assert entry["repeats"] >= 5
        assert entry["dim"] == entry["d"] ** entry["k"]
        assert all(entry[name] > 0 for name in TIMES)
        assert entry["commit"] == report["commit"] and entry["src_lines"] == report["src_lines"]


def test_schur_layer_bench_measures_a_baseline_pair(tmp_path):
    """A copy of this tree's src/, one comment line longer, stands for the
    baseline: every cell is measured on both, the baseline's entry first."""
    baseline = tmp_path / "baseline"
    shutil.copytree(ROOT / "src", baseline / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(baseline / "src" / "thermoflux" / "__init__.py", "a") as fh:
        fh.write("# baseline copy\n")
    out = tmp_path / "BENCH_schur.json"
    assert _bench().main(["--out", str(out), "--max-k", "3", "--baseline", str(baseline)]) == 0
    report = json.loads(out.read_text())
    assert [(e["d"], e["k"]) for e in report["entries"]] == [(3, 3), (3, 3)]
    before, after = report["entries"]
    assert after["commit"] == report["commit"] and after["src_lines"] == report["src_lines"]
    assert before["src_lines"] == report["src_lines"] + 1
    assert all(before[name] > 0 and after[name] > 0 for name in TIMES)
