"""tools/layer_times.py: every layer timed on both sides and written as JSON."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "layer_times.py"
sys.path.insert(0, str(TOOL.parent))  # for layer_times' own import of tools/paired.py
_spec = importlib.util.spec_from_file_location("layer_times", TOOL)
layer_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_times)
LAYERS = {
    f"validate_density.{state}.n{n}" for state in ("ghz_werner", "accelerated", "dense") for n in range(1, 8)
} | {f"accelerate.{state}.n{n}" for state in ("ghz_werner", "dense") for n in range(1, 8)} | {
    f"evaluate.{state}.n{n}" for state in ("ghz_werner", "accelerated", "dense") for n in range(1, 8)
} | {f"ghz_werner.n{n}" for n in range(1, 8)} | {
    f"grid_values.{state}.n{n}" for state in ("ghz_werner", "dense") for n in range(1, 8)
} | {f"grid_values.ghz_werner.n{n}" for n in range(8, 11)} | {
    f"{layer}.n{n}" for layer in ("ghz_werner", "accelerate.ghz_werner", "evaluate.ghz_werner") for n in (10, 16)
} | {f"normalization_check.ghz_werner.n{n}" for n in (3, 7, 16)} | {
    f"normalization_check.dense.n{n}" for n in (3, 5, 7)
} | {"grid_scan.split.n2", "grid_scan.split.n3", "kernel_grid.91x181", "cli._csv_text.91x181", "probe_sweep.51x51.k3",
    "probe_sweep.51x51.n7k7", "probe_sweep.5x5.n16k16", "probe_sweep.fig5"}


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300)


def test_one_repeat_writes_every_layer_of_both_sides(tmp_path):
    out = tmp_path / "LAYERS.json"
    proc = run_tool("--parent", "HEAD", "--repeats", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text(encoding="utf-8"))
    assert set(record) == {"method", "numpy", "platform", "python", "sides"}
    assert set(record["sides"]) == {"parent", "change"}
    timings = {"min_s", "median_s", "quartiles_s", "samples"}
    assert set(record["sides"]["parent"]) == {"revision", "commit"} | timings
    assert set(record["sides"]["change"]) == {"commit", "uncommitted"} | timings
    for side in record["sides"].values():
        assert set(side["min_s"]) == set(side["median_s"]) == set(side["quartiles_s"]) == LAYERS
        assert all(isinstance(t, float) and t > 0.0 for t in side["median_s"].values())
        for name, (q1, q3) in side["quartiles_s"].items():
            assert 0.0 < side["min_s"][name] <= q1 <= side["median_s"][name] <= q3
        assert side["samples"] == dict.fromkeys(LAYERS, layer_times.ROUNDS)


def test_rejects_zero_repeats(tmp_path):
    proc = run_tool("--parent", "HEAD", "--repeats", "0", "--out", str(tmp_path / "LAYERS.json"))
    assert proc.returncode == 2
    assert not (tmp_path / "LAYERS.json").exists()


def test_requires_a_parent(tmp_path):
    proc = run_tool("--out", str(tmp_path / "LAYERS.json"))
    assert proc.returncode == 2
    assert "--parent and --out are required" in proc.stderr
    assert not (tmp_path / "LAYERS.json").exists()
