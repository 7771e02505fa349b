"""Smoke test of the shift-search, identification and exact universal bench
script on its Weyl-letter cells with k <= 5."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "shift_layer.py"


def test_shift_layer_bench_writes_its_report(tmp_path):
    spec = importlib.util.spec_from_file_location("shift_layer", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path / "BENCH_shift.json"
    assert bench.main(["--out", str(out), "--max-k", "5"]) == 0
    report = json.loads(out.read_text())
    assert report["topic"] == "shift" and report["commit"] and report["src_lines"] > 0
    assert report["machine"]["cores"] >= 1
    layers = [e["layer"] for e in report["entries"]]
    assert layers == ["choose_shift"] * 7 + ["distinguishing_dimension"] * 3 + ["universal_protocol"] * 2
    # d^k = 16 letters at k = 4, the ladders, then sum n_lambda Weyl letters at k = 4, 5
    assert [e["d"] for e in report["entries"][:7]] == [16, 12, 27, 16, 32, 9, 12]
    for entry in report["entries"]:
        assert entry["repeats"] >= 5 and entry["seconds"] > 0
    assert all(e["work"] > 0 for e in report["entries"][:7])
    assert all(e["d_tilde"] == 1 for e in report["entries"][7:10])
    for entry in report["entries"][10:]:  # this tree only: no --baseline
        assert entry["status"] == "finished" and entry["commit"] == report["commit"]
        assert entry["d"] == 12 and 0 < entry["rate_over_target"] <= 1
