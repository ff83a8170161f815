"""tools/layer_times.py: every layer timed on both sides and written as JSON."""

import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "layer_times.py"
sys.path.insert(0, str(TOOL.parent))  # for layer_times' own import of tools/paired.py
_spec = importlib.util.spec_from_file_location("layer_times", TOOL)
layer_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_times)
import paired  # noqa: E402
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
} | {"evaluate.ghz_werner.n3.distinct", "evaluate.ghz_werner.n7.distinct", "evaluate.dense.n7.distinct"} | {
    "accelerate.ghz_werner.n7.cold", "evaluate.ghz_werner.n7.cold", "grid_values.ghz_werner.n7.cold",
    "normalization_check.ghz_werner.n7.cold"} | {
    "grid_scan.split.n2", "grid_scan.split.n3", "kernel_grid.91x181", "cli._csv_chunks.fig1a", "probe_sweep.51x51.k3",
    "probe_sweep.51x51.n7k7", "probe_sweep.51x51.n10k10", "probe_sweep.5x5.n16k16", "probe_sweep.fig5"}


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300)


def test_the_worker_times_every_layer():
    # one real worker subprocess, on the parent's extracted sources
    with paired.checkouts("HEAD") as dirs:
        samples = layer_times.run_worker(dirs["parent"], 1)
    assert set(samples) == LAYERS
    for values in samples.values():
        assert len(values) == 1 and all(isinstance(t, float) and t > 0.0 for t in values)


def test_one_repeat_writes_every_layer_of_both_sides(monkeypatch, tmp_path):
    # the rounds, the side order, the pooling and the JSON, with each worker
    # call returning one sample per layer: 1, 2, 3, ... ms in call order
    calls = []

    def run_worker(checkout, repeats):
        calls.append((checkout, repeats, (checkout / "src" / "spinwigner").is_dir()))
        return {name: [1e-3 * len(calls)] for name in LAYERS}

    monkeypatch.setattr(layer_times, "run_worker", run_worker)
    out = tmp_path / "LAYERS.json"
    assert layer_times.main(["--parent", "HEAD", "--repeats", "1", "--out", str(out)]) == 0
    # round 0 runs the parent first; both sides are extracted copies
    sides = {"parent": calls[0][0], "change": calls[1][0]}
    assert sides["parent"] != sides["change"]
    assert {path.parent.parent for path in sides.values()} == {paired.EXTRACT_ROOT}
    order = [side for i in range(layer_times.ROUNDS) for side in paired.side_order(i)]
    assert calls == [(sides[side], 1, True) for side in order]
    record = json.loads(out.read_text(encoding="utf-8"))
    assert set(record) == {"method", "numpy", "platform", "python", "sides"}
    assert set(record["sides"]) == {"parent", "change"}
    timings = {"min_s", "median_s", "quartiles_s", "samples"}
    assert set(record["sides"]["parent"]) == {"revision", "commit"} | timings
    assert set(record["sides"]["change"]) == {"commit", "uncommitted"} | timings
    for name, side in record["sides"].items():
        assert set(side["min_s"]) == set(side["median_s"]) == set(side["quartiles_s"]) == LAYERS
        assert all(isinstance(t, float) and t > 0.0 for t in side["median_s"].values())
        for layer, (q1, q3) in side["quartiles_s"].items():
            assert 0.0 < side["min_s"][layer] <= q1 <= side["median_s"][layer] <= q3
        assert side["samples"] == dict.fromkeys(LAYERS, layer_times.ROUNDS)
        # the samples of the calls of this side, pooled over the rounds
        pooled = sorted(1e-3 * (i + 1) for i, s in enumerate(order) if s == name)
        assert set(side["min_s"].values()) == {pooled[0]}
        assert set(side["median_s"].values()) == {statistics.median(pooled)}


def test_rejects_zero_repeats(tmp_path):
    proc = run_tool("--parent", "HEAD", "--repeats", "0", "--out", str(tmp_path / "LAYERS.json"))
    assert proc.returncode == 2
    assert not (tmp_path / "LAYERS.json").exists()


def test_requires_a_parent(tmp_path):
    proc = run_tool("--out", str(tmp_path / "LAYERS.json"))
    assert proc.returncode == 2
    assert "--parent and --out are required" in proc.stderr
    assert not (tmp_path / "LAYERS.json").exists()
