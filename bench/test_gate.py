"""The correctness gate bites: every reference check fails an op whose
output is perturbed, and the run's ledger counts that op as failed."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import run
import spinwigner as sw
import workloads
from speedclock import CAL_REF_S, SpeedClock
from tracing import Tracer
from workloads import Op, PassResult

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def failed_count(workload, ops) -> int:
    ledger = run.Ledger()
    ledger.check(workload, PassResult(0.0, 1.0, ops))
    assert ledger.attempted == len(ops)
    return ledger.failed


# ---------------------------------------------------------- channel_sweep


@pytest.fixture(scope="module")
def sweep():
    return workloads.ChannelSweep(SEED)


def test_point_law_matches_pipeline_and_sign_flip_fails(sweep):
    probe = sw.SphericalPoint(*workloads.PROBE)
    ops = []
    for n, k, r in [(3, 1, 0.3), (4, 2, 0.6), (5, 5, ref.R_MAX)]:
        rho = sw.accelerate(
            sw.ghz_werner(sw.GhzWernerParams(nu=sweep.nus[n], n_qubits=n)),
            sw.AccelerationConfig(r=r, accelerated=tuple(range(k))),
        )
        value = sw.evaluate(rho, sw.DistributionKind.WIGNER, (probe,) * n).value
        ops.append(Op(f"n{n}", 0.0, 0.0, (n, k, r, value)))
    assert failed_count(sweep, ops) == 0

    flipped = []
    for op in ops:
        n, k, r, _ = op.output
        wrong = (1.0 - (-1.0) ** n * 3.0 ** (n / 2.0) * sweep.nus[n] * math.cos(r) ** k) / 2.0 ** n
        flipped.append(Op(op.name, 0.0, 0.0, (n, k, r, wrong)))
    assert failed_count(sweep, flipped) == len(flipped)


def test_channel_op_off_by_1e_9_or_raised_fails(sweep):
    n, k, r = 3, 2, 0.5
    exact = ref.point_law(n, sweep.nus[n], k, r)
    assert failed_count(sweep, [Op("ok", 0.0, 0.0, (n, k, r, exact))]) == 0
    assert failed_count(sweep, [Op("off", 0.0, 0.0, (n, k, r, exact + 1e-9))]) == 1
    assert failed_count(sweep, [Op("raised", 0.0, 0.0, (n, k, r), "ValueError: boom")]) == 1


# ---------------------------------------------------------- register_grid


@pytest.fixture(scope="module")
def grid():
    return workloads.RegisterGrid(SEED)


def _grid_output(grid, label, kind, **changes):
    state = next(s for s in grid.states if s.label == label)
    out = {
        "shape": state.scan_shape,
        "min": 0.01,
        "norm": 1.0,
        "cells": grid.cells[(label, kind)].expected.copy(),
    }
    out.update(changes)
    return Op(f"{label}/{kind.name}", 0.0, 0.0, out)


def test_register_grid_real_scans_pass(grid):
    for label, kind in (("ghz3", sw.DistributionKind.Q), ("ginibre2-split", sw.DistributionKind.Q)):
        state = next(s for s in grid.states if s.label == label)
        rho = state.build()
        report = sw.grid_scan(rho, kind, *state.grid, equal_angles=state.equal_angles)
        out = {
            "shape": report.values.shape,
            "min": report.min_value,
            "norm": sw.normalization_check(rho, kind),
            "cells": report.values[grid.cells[(label, kind)].index],
        }
        assert failed_count(grid, [Op(f"{label}/{kind.name}", 0.0, 0.0, out)]) == 0


@pytest.mark.parametrize("label", ["ginibre6", "ghz7", "ginibre3-split"])
def test_register_grid_cell_off_by_1e_9_fails(grid, label):
    state = next(s for s in grid.states if s.label == label)
    kind = state.kinds[-1]
    assert failed_count(grid, [_grid_output(grid, label, kind)]) == 0
    cells = grid.cells[(label, kind)].expected.copy()
    cells[3] += 1e-9
    assert failed_count(grid, [_grid_output(grid, label, kind, cells=cells)]) == 1


def test_register_grid_normalization_and_husimi_floor_fail(grid):
    q, w = sw.DistributionKind.Q, sw.DistributionKind.WIGNER
    assert failed_count(grid, [_grid_output(grid, "ginibre4", w, norm=1.0 + 2e-8)]) == 1
    assert failed_count(grid, [_grid_output(grid, "ghz5", q, min=-1e-9)]) == 1
    # negative values are legitimate for the Wigner function
    assert failed_count(grid, [_grid_output(grid, "ghz5", w, min=-0.3)]) == 0
    assert failed_count(grid, [_grid_output(grid, "ghz5", w, shape=(91, 180))]) == 1


# ------------------------------------------------------------------ paper


@pytest.fixture(scope="module")
def paper():
    return workloads.Paper(SEED)


def _write_figure(path, spec, w):
    lines = [workloads.CSV_HEADER]
    lines += [",".join(f"{v:.12g}" for v in (*row, wv)) for row, wv in zip(spec.rows, w)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "name",
    ["fig1a.csv", "fig1c.csv", "fig2b.csv", "fig3a.csv", "fig4b.csv", "fig4c.csv", "fig5d.csv"],
)
def test_figure_cell_off_by_1e_9_fails(paper, tmp_path, name):
    spec = paper.specs[name]
    w = np.zeros(len(spec.rows))
    w[spec.checked] = spec.expected
    path = tmp_path / name
    _write_figure(path, spec, w)
    assert failed_count(paper, [Op(name, 0.0, 0.0, path)]) == 0
    w[spec.checked[len(spec.checked) // 2]] += 1e-9
    _write_figure(path, spec, w)
    assert failed_count(paper, [Op(name, 0.0, 0.0, path)]) == 1


def test_figure_sign_flipped_point_law_fails(paper, tmp_path):
    name = "fig2c.csv"
    spec = paper.specs[name]
    nu, r, k = spec.rows[:, 2], spec.rows[:, 3], spec.rows[:, 4]
    path = tmp_path / name
    _write_figure(path, spec, (1.0 + 3.0 * ref.SQRT3 * nu * np.cos(r) ** k) / 8.0)
    assert failed_count(paper, [Op(name, 0.0, 0.0, path)]) == 1


def test_figure_wrong_grid_header_or_missing_fails(paper, tmp_path):
    name = "fig1b.csv"
    spec = paper.specs[name]
    path = tmp_path / name
    shifted = workloads.FigureSpec(spec.rows + [0, 1e-6, 0, 0, 0, 0], spec.checked, spec.expected)
    _write_figure(path, shifted, spec.expected)
    assert failed_count(paper, [Op(name, 0.0, 0.0, path)]) == 1
    _write_figure(path, spec, spec.expected)
    path.write_text(path.read_text().replace("theta,", "theta ,", 1))
    assert failed_count(paper, [Op(name, 0.0, 0.0, path)]) == 1
    assert failed_count(paper, [Op(name, 0.0, 0.0, tmp_path / "absent.csv")]) == 1


def test_verify_status_flip_fails(paper, tmp_path):
    def report(variants, coefficients):
        payload = {
            "variants": [{"tag": t, "nu": nu, "r": r, "status": s} for t, nu, r, s in variants],
            "coefficients": [
                {"variant": v, "nu": nu, "r": r, "status": s} for v, nu, r, s in coefficients
            ],
        }
        path = tmp_path / "verify.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return Op("verify", 0.0, 0.0, path)

    good_v, good_c = list(workloads.VERIFY_VARIANTS), list(workloads.VERIFY_COEFFICIENTS)
    assert failed_count(paper, [report(good_v, good_c)]) == 0
    bad_v = good_v.copy()
    bad_v[8] = (*bad_v[8][:3], "MATCH")  # ACC2 silently "fixed"
    assert failed_count(paper, [report(bad_v, good_c)]) == 1
    bad_c = good_c.copy()
    bad_c[0] = (*bad_c[0][:3], "DISCREPANT")
    assert failed_count(paper, [report(good_v, bad_c)]) == 1
    assert failed_count(paper, [report(good_v[:-1], good_c)]) == 1


def test_one_bad_op_among_good_counts_once(sweep):
    ops = [Op(f"n3/k1/{r}", 0.0, 0.0, (3, 1, r, ref.point_law(3, sweep.nus[3], 1, r))) for r in sweep.rs]
    n, k, r, value = ops[5].output
    ops[5] = Op(ops[5].name, 0.0, 0.0, (n, k, r, -value))
    assert failed_count(sweep, ops) == 1


# ------------------------------------------------------- tracing, config


def test_tracer_nests_spans_and_restores_bindings():
    original = sw.quasiprob.kernel_n
    original_evaluate = sw.evaluate
    tracer = Tracer(sw)
    tracer.install()
    try:
        assert sw.evaluate is sw.quasiprob.evaluate
        assert sw.evaluate.__wrapped__ is original_evaluate
        assert sw.cli.evaluate is sw.evaluate
        probe = sw.SphericalPoint(0.4, 1.1)
        rho = sw.ghz_werner(sw.GhzWernerParams(nu=0.5))
        tracer.begin()
        sw.evaluate(rho, sw.DistributionKind.P, (probe,) * 3)
        tracer.stop()
        sw.evaluate(rho, sw.DistributionKind.P, (probe,) * 3)  # not recorded
    finally:
        tracer.uninstall()
    assert sw.quasiprob.kernel_n is original
    assert sw.evaluate is original_evaluate and sw.cli.evaluate is original_evaluate
    per_function, library_s = tracer.summary()
    assert per_function["quasiprob.evaluate"][0] == 1
    assert per_function["su2kernel.kernel_n"][0] == 1
    assert per_function["su2kernel.kernel"][0] == 3
    assert per_function["su2kernel.kernel_grid"][0] == 3
    assert per_function["linalg.kron"][0] == 2
    assert per_function["states.ghz_werner"][0] == 0
    calls, total, own = per_function["quasiprob.evaluate"]
    assert 0.0 < own < total == pytest.approx(library_s)
    names = [tracer.names[i] for i in tracer.span_name]
    assert names[0] == "quasiprob.evaluate" and tracer.parent[0] == -1
    assert all(p < i for i, p in enumerate(tracer.parent) if p >= 0)


def test_speed_clock_scales_by_kernel_cost_and_skips_kernels():
    clock = SpeedClock()
    # kernels at 0, 1, 2, 3 s; the host is twice as slow from the second
    # on, and the second kernel was also interrupted: the median of three
    # neighbours gives costs 1, 2, 2, 2 (in CAL_REF_S)
    clock.begin = [0.0, 1.0, 2.0, 3.0]
    costs = [CAL_REF_S, 5 * CAL_REF_S, 2 * CAL_REF_S, 2 * CAL_REF_S]
    clock.end = [b + c for b, c in zip(clock.begin, costs)]
    norm = clock.normalizer()
    # a stretch between kernels is scaled by the mean of its two ends
    assert norm(clock.begin[1]) - norm(clock.end[0]) == pytest.approx((1.0 - CAL_REF_S) / 1.5)
    inside = clock.begin[2] - 0.5
    assert norm(inside) - norm(clock.end[1]) == pytest.approx((inside - clock.end[1]) / 2.0)
    # time inside a kernel does not count, and the last stretch is open
    assert norm(clock.end[1]) == pytest.approx(norm(clock.begin[1]))
    assert norm(3.5) - norm(clock.end[2]) == pytest.approx((3.5 - clock.end[2] - costs[3]) / 2.0)


def test_speed_clock_samples_from_the_timer():
    clock = SpeedClock(interval=0.01)
    clock.start()
    deadline = time.perf_counter() + 0.2
    while time.perf_counter() < deadline:
        pass
    clock.stop()
    assert clock.samples() >= 5
    norm = clock.normalizer()
    assert 0.0 < norm(clock.end[-1]) - norm(clock.begin[0])


def test_benchmark_json_names_what_run_reports():
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in config["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    e2e = {m["name"]: m["unit"] for m in config["end_to_end"]}
    metrics, _ = run.end_to_end_metrics(
        workloads.ChannelSweep(SEED),
        [run.TimedPass(1.0, {"a": 0.1, "b": 0.2}, 1.2, 11)],
        1024,
        [(0.1, 0.12)],
    )
    assert e2e == {name: unit for name, (_, unit) in metrics.items()}
    per_layer = {m["name"]: m["unit"] for m in config["per_layer"]}
    untraced = [run.TimedPass(1.0, {}, 1.2, 11)]
    traced = [(1.5, {f: (1, 0.1, 0.1) for f in run.REPORTED_FUNCTIONS}, 0.1)]
    metrics, _ = run.per_layer_metrics(untraced, traced)
    assert per_layer == {name: unit for name, (_, unit) in metrics.items()}
