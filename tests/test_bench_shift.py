"""Smoke test of the shift-search and identification bench script."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "shift_layer.py"


def test_shift_layer_bench_writes_its_report(tmp_path):
    spec = importlib.util.spec_from_file_location("shift_layer", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path / "BENCH_shift.json"
    assert bench.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["topic"] == "shift" and report["commit"] and report["src_lines"] > 0
    assert report["machine"]["cores"] >= 1
    layers = [e["layer"] for e in report["entries"]]
    assert layers == ["choose_shift"] * 5 + ["distinguishing_dimension"] * 3
    assert [e["d"] for e in report["entries"][:5]] == [16, 12, 27, 16, 32]
    for entry in report["entries"]:
        assert entry["repeats"] >= 5 and entry["seconds"] > 0
    assert all(e["work"] > 0 for e in report["entries"][:5])
    assert all(e["d_tilde"] == 1 for e in report["entries"][5:])
