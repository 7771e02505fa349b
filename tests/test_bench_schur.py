"""Smoke test of the Schur layer bench script on its cells with k <= 4."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "schur_layer.py"


def test_schur_layer_bench_writes_its_report(tmp_path):
    spec = importlib.util.spec_from_file_location("schur_layer", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path / "BENCH_schur.json"
    assert bench.main(["--out", str(out), "--max-k", "4"]) == 0
    report = json.loads(out.read_text())
    assert report["topic"] == "schur" and report["commit"] and report["src_lines"] > 0
    assert report["machine"]["cores"] >= 1
    assert [(e["d"], e["k"]) for e in report["entries"]] == [(2, 4), (3, 3), (3, 4)]
    for entry in report["entries"]:
        assert entry["repeats"] >= 5
        assert entry["dim"] == entry["d"] ** entry["k"]
        assert entry["build_s"] > 0 and entry["pinch_apply_s"] > 0
        assert entry["pinched_dist_s"] > 0 and entry["rel_entropy_s"] > 0
