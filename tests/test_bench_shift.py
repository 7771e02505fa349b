"""Smoke test of the shift-search, identification and exact universal bench
script on its Weyl-letter cells with k <= 4, as a before/after pair against a
baseline checkout."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "bench" / "shift_layer.py"


def test_shift_layer_bench_writes_its_report(tmp_path):
    """A copy of this tree's src/, one comment line longer, stands for the
    baseline: every choose_shift and universal row is measured on both, the
    baseline's first, with the same result."""
    baseline = tmp_path / "baseline"
    shutil.copytree(ROOT / "src", baseline / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(baseline / "src" / "thermoflux" / "__init__.py", "a") as fh:
        fh.write("# baseline copy\n")
    spec = importlib.util.spec_from_file_location("shift_layer", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path / "BENCH_shift.json"
    assert bench.main(["--out", str(out), "--max-k", "4", "--baseline", str(baseline)]) == 0
    report = json.loads(out.read_text())
    assert report["topic"] == "shift" and report["commit"] and report["src_lines"] > 0
    assert report["machine"]["cores"] >= 1
    entries = report["entries"]
    for entry in entries:
        assert entry["repeats"] >= 5 and entry["seconds"] > 0
    layers = [e["layer"] for e in entries]
    assert layers == ["choose_shift"] * 12 + ["distinguishing_dimension"] * 3 + ["universal_protocol"] * 4
    shifts, universal = entries[:12], entries[15:]
    # d^k = 16 letters at k = 4, the ladders, then sum n_lambda Weyl letters at k = 4
    assert [e["d"] for e in shifts[::2]] == [16, 12, 27, 16, 32, 9]
    assert all(e["work"] > 0 for e in shifts)
    for entry in shifts:  # the search counts of one call
        assert entry["commits"] > 0 and entry["full_probes"] > 0 and entry["witness_rejections"] >= 0
    assert shifts[0]["witness_rejections"] > shifts[0]["full_probes"]  # the qubit k = 4 cell: most probes fail
    assert all(e["d_tilde"] == 1 for e in entries[12:15])
    for entry in universal:
        assert entry["d"] == 12 and 0 < entry["rate_over_target"] <= 1
    paired = shifts + universal
    for before, after in zip(paired[::2], paired[1::2]):
        assert after["commit"] == report["commit"] and after["src_lines"] == report["src_lines"]
        assert before["src_lines"] == report["src_lines"] + 1
        assert before["cell"] == after["cell"]
        for key in ("work", "h", "full_probes", "witness_rejections", "commits"):
            assert before.get(key) == after.get(key)
