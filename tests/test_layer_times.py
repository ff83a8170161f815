"""tools/layer_times.py: every layer timed on both sides and written as JSON."""

import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

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
    "grid_scan.split.n2", "grid_scan.split.n3", "kernel_grid.91x181", "cli._csv_chunks.fig1a",
    "cli._csv_chunks.figures", "probe_sweep.51x51.k3",
    "probe_sweep.51x51.n7k7", "probe_sweep.51x51.n10k10", "probe_sweep.5x5.n16k16", "probe_sweep.fig5"}


REPEATS = 3
ALIASES = ("spinwigner_parent", "spinwigner_change", "spinwigner_loader_test")


@pytest.fixture(autouse=True)
def drop_loaded_packages():
    # a loaded side outlives its extracted copy in sys.modules; drop it
    yield
    for alias in ALIASES:
        for name in layer_times._alias_modules(alias):
            del sys.modules[name]


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300)


def run_stubbed(monkeypatch, tmp_path, missing=None):
    """``main`` on HEAD against the scratch repository's working tree, in
    ``REPEATS`` rounds, with each ``time_per_call`` logging its (side,
    layer) and returning 1, 2, 3, ... ms in call order.  With ``missing``, that
    name is deleted from the parent's package before its layers are read.
    Returns the log, each side's package file and the JSON record."""
    log, owners, files = [], {}, {}
    real_layer_calls = layer_times.layer_calls

    def layer_calls(sw):
        side = sw.__name__.removeprefix("spinwigner_")
        files[side] = Path(sw.__file__)
        if missing and side == "parent":
            monkeypatch.delattr(sw, missing)
        calls = real_layer_calls(sw)
        owners.update({call: (side, name) for name, call in calls.items()})
        return calls

    def time_per_call(fn):
        log.append(owners[fn])
        return 1e-3 * len(log)

    monkeypatch.setattr(layer_times, "layer_calls", layer_calls)
    monkeypatch.setattr(layer_times, "time_per_call", time_per_call)
    out = tmp_path / "LAYERS.json"
    assert layer_times.main(["--parent", "HEAD", "--repeats", str(REPEATS), "--out", str(out)]) == 0
    return log, files, json.loads(out.read_text(encoding="utf-8"))


def test_layer_calls_of_both_sides_time_every_layer(scratch_repo):
    # one real sample of every layer, on both sides' extracted sources
    with paired.checkouts("HEAD") as dirs:
        for side in paired.SIDES:
            calls = layer_times.layer_calls(layer_times.load_package(f"spinwigner_{side}", dirs[side] / "src"))
            assert set(calls) == LAYERS
            for call in calls.values():
                t = layer_times.time_per_call(call)
                assert isinstance(t, float) and t > 0.0


def test_layers_run_one_by_one_with_the_sides_alternating_per_round(monkeypatch, tmp_path, scratch_repo):
    log, files, record = run_stubbed(monkeypatch, tmp_path)
    # both sides are loaded from their own extracted copies
    assert files["parent"] != files["change"]
    assert {path.parents[3].parent for path in files.values()} == {paired.EXTRACT_ROOT.resolve()}
    assert {path.parents[2].name for path in files.values()} == {"parent", "change"}
    # every round of one layer runs before the next layer; round i runs
    # its sides in side_order(i)
    layers = list(dict.fromkeys(layer for _, layer in log))
    assert set(layers) == LAYERS
    order = [side for i in range(REPEATS) for side in paired.side_order(i)]
    assert log == [(side, layer) for layer in layers for side in order]
    assert set(record) == {"method", "numpy", "platform", "python", "sides"}
    assert set(record["sides"]) == {"parent", "change"}
    timings = {"min_s", "median_s", "quartiles_s", "samples"}
    assert set(record["sides"]["parent"]) == {"revision", "commit"} | timings
    assert set(record["sides"]["change"]) == {"commit", "uncommitted"} | timings
    for name, side in record["sides"].items():
        assert set(side["min_s"]) == set(side["median_s"]) == set(side["quartiles_s"]) == LAYERS
        assert all(isinstance(t, float) and t > 0.0 for t in side["median_s"].values())
        assert side["samples"] == dict.fromkeys(LAYERS, REPEATS)
        for layer, (q1, q3) in side["quartiles_s"].items():
            assert 0.0 < side["min_s"][layer] <= q1 <= side["median_s"][layer] <= q3
            # the samples of this side's calls of this layer, pooled over the rounds
            pooled = [1e-3 * (i + 1) for i, entry in enumerate(log) if entry == (name, layer)]
            assert side["min_s"][layer] == min(pooled)
            assert side["median_s"][layer] == statistics.median(pooled)
            assert [q1, q3] == statistics.quantiles(pooled, n=4, method="inclusive")[::2]


def test_a_layer_missing_on_one_side_is_timed_on_the_other_only(monkeypatch, tmp_path, scratch_repo):
    log, _, record = run_stubbed(monkeypatch, tmp_path, missing="kernel_grid")
    assert [entry for entry in log if entry[1] == "kernel_grid.91x181"] == (
        [("change", "kernel_grid.91x181")] * REPEATS)
    parent, change = record["sides"]["parent"], record["sides"]["change"]
    assert set(parent["min_s"]) == set(parent["samples"]) == LAYERS - {"kernel_grid.91x181"}
    assert set(change["min_s"]) == set(change["samples"]) == LAYERS


def test_main_leaves_the_affinity_and_the_environment_alone(monkeypatch, tmp_path, scratch_repo):
    affinity, environ = os.sched_getaffinity(0), dict(os.environ)
    run_stubbed(monkeypatch, tmp_path)
    assert os.sched_getaffinity(0) == affinity
    assert dict(os.environ) == environ


def test_the_script_refuses_numpy_imported_before_it(tmp_path):
    # BLAS takes its thread count when numpy is imported, too early to pin
    code = "import numpy, runpy, sys; sys.path.insert(0, sys.argv[1]); runpy.run_path(sys.argv[2], run_name='__main__')"
    proc = subprocess.run([sys.executable, "-c", code, str(TOOL.parent), str(TOOL)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 1
    assert "numpy was imported before" in proc.stderr


def test_a_second_load_under_one_alias_reads_the_second_tree(tmp_path):
    for tree, value in (("one", 1), ("two", 2)):
        pkg = tmp_path / tree / "spinwigner"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("from .value import VALUE\n", encoding="utf-8")
        (pkg / "value.py").write_text(f"VALUE = {value}\n", encoding="utf-8")
    first = layer_times.load_package("spinwigner_loader_test", tmp_path / "one")
    shutil.rmtree(tmp_path / "one")  # as the checkouts block removes a side's copy
    second = layer_times.load_package("spinwigner_loader_test", tmp_path / "two")
    assert (first.VALUE, second.VALUE) == (1, 2)
    assert sys.modules["spinwigner_loader_test.value"].VALUE == 2
    assert Path(second.__file__).parent == (tmp_path / "two" / "spinwigner").resolve()


@pytest.mark.parametrize("repeats", ["0", "1"])
def test_rejects_fewer_than_two_repeats(tmp_path, repeats):
    proc = run_tool("--parent", "HEAD", "--repeats", repeats, "--out", str(tmp_path / "LAYERS.json"))
    assert proc.returncode == 2
    assert not (tmp_path / "LAYERS.json").exists()


def test_requires_a_parent(tmp_path):
    proc = run_tool("--out", str(tmp_path / "LAYERS.json"))
    assert proc.returncode == 2
    assert "the following arguments are required: --parent" in proc.stderr
    assert not (tmp_path / "LAYERS.json").exists()
