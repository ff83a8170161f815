"""Per-layer timings that the benchmark's workloads do not report.

Run from the repository root:

    python3 tools/layer_times.py --parent HEAD --repeats 15 --out LAYERS_12.json

Each layer is timed in seconds per call: the minimum, the median and the
inclusive quartiles over ``--repeats`` samples, each sample the mean of a
batch of calls lasting at least ``BATCH_S``, after one warm-up call.  The minimum tells apart
sub-millisecond rows whose quartiles overlap on a noisy host.  The
layers are

- ``ghz_werner`` at n = 1..7, 10 and 16 and nu = 0.5, its validation
  included;
- ``validate_density`` at n = 1..7 on the matrices of three states:
  the GHZ-Werner state at nu = 0.5 from ``ghz_werner``, the same state
  with every qubit accelerated at r = 0.5 from ``accelerated_ghz``, and
  a dense (Ginibre) state.  Validation certifies every matrix densely,
  through ``eigvalsh``, so all three rows time the dense certificate;
- ``accelerate`` at n = 1..7 with every qubit accelerated at r = 0.5,
  on the GHZ-Werner state (the X-shaped layout) and on the dense state
  (the dense per-qubit transfer), and at n = 10 and 16 on the GHZ-Werner
  state alone;
- ``accelerate.ghz_werner.n7.cold``, ``evaluate.ghz_werner.n7.cold``,
  ``grid_values.ghz_werner.n7.cold`` and
  ``normalization_check.ghz_werner.n7.cold``: the same calls at n = 7,
  but each at a fresh r (0.5 minus 1e-9 per call, its
  ``AccelerationConfig`` built in the call), a fresh probe point (phi =
  pi plus 1e-9 per call, its ``SphericalPoint`` built in the call),
  fresh axes (every theta minus and every phi plus 1e-9 per call) or
  with every memo cache of the side emptied first by
  ``_memo.clear_caches()`` (a side without ``_memo`` has no such row),
  so they time the build that the memoized transfer maps, point
  weights, surface factors and quadrature weights skip on the other
  rows, which repeat one key;
- ``evaluate`` of the Wigner kernel at n = 1..7 with every qubit at the
  probe point (pi/2, pi), on the same three states as built (the first
  two X states, the last dense), and at n = 10 and 16 on the GHZ-Werner
  state; and at n = 3 (GHZ-Werner) and 7 (GHZ-Werner and dense) with each
  qubit at its own point (``.distinct``), which builds n kernels;
- ``normalization_check`` of the Wigner kernel on the GHZ-Werner state
  at n = 3, 7 and 16, and on the dense state at n = 3, 5 and 7;
- ``grid_values`` of the Wigner kernel at n = 1..7 on the 91 x 181
  equal-angle grid, on the GHZ-Werner and the dense state, and at
  n = 8..10 on the GHZ-Werner state alone (an X state built from its
  stack, with no dense matrix);
- ``grid_scan`` with independent angles: of the Wigner kernel on a
  7 x 12 grid per qubit, on the dense 3-qubit state, and of the Husimi
  kernel on a 13 x 25 grid per qubit, on the dense 2-qubit state;
- ``kernel_grid`` of the Wigner kernel on the 91 x 181 equal-angle grid;
- ``cli._csv_chunks`` of the fig1a table (one 91 x 181 Wigner surface),
  each side's table from its own ``cli._figure_specs`` builder, joined
  into one string, and (``cli._csv_chunks.figures``) of all 16 figure
  tables, 144,812 rows, one string per table;
- ``probe_sweep`` of the 51 x 51 nu x r Wigner map at the probe point
  with three accelerated qubits (the fig4c data), the same map of a
  7-qubit and of a 10-qubit register with every qubit accelerated, a
  5 x 5 map of a 16-qubit register with all sixteen accelerated
  (51 x 51 would stack about 200 MB), and the three sweeps of the fig5
  r curves (4 nu x 50 r, one per k = 1, 2, 3).

A row is left out on a side whose package lacks the row's function, the
leading dotted part of its name (``grid_values``, ``cli._csv_chunks``).

The ``--parent`` revision and the working tree are extracted as
``paired.py`` describes, and both sides' ``src/spinwigner`` are loaded
into this one process, as the packages ``spinwigner_parent`` and
``spinwigner_change``.  Layer by layer, the sides alternate over
``--repeats`` rounds in ``paired.side_order``, one sample per side and
round, so both sides of a layer meet the same spells of a noisy host.
Run as a script, the process is pinned to one CPU with BLAS on one
thread.  This script imports nothing from
``bench/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import math
import os
import platform
import statistics
import sys
import time
import types
from collections.abc import Callable
from pathlib import Path

from paired import SIDES, checkouts, side_order, side_records

BATCH_S = 0.005
REGISTER_SIZES = range(1, 8)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def time_per_call(fn) -> float:
    """One sample of the seconds one call of ``fn`` takes."""
    fn()  # warm caches
    start = time.perf_counter()
    fn()
    single = time.perf_counter() - start
    number = math.ceil(BATCH_S / max(single, 1e-9))
    if number <= 1:  # a call that lasts a whole batch was already timed as one
        return single
    start = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - start) / number


def _alias_modules(alias: str) -> dict[str, types.ModuleType]:
    return {name: module for name, module in sys.modules.items() if name == alias or name.startswith(alias + ".")}


def load_package(alias: str, src: Path) -> types.ModuleType:
    """Import the ``spinwigner`` package under ``src`` as ``alias``, its
    submodules as ``alias.*``.  Modules left under ``alias`` by an earlier
    load are dropped first, so none of them is reused."""
    for name in _alias_modules(alias):
        del sys.modules[name]
    pkg = (src / "spinwigner").resolve()
    spec = importlib.util.spec_from_file_location(alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    sw = importlib.util.module_from_spec(spec)
    sys.modules[alias] = sw
    spec.loader.exec_module(sw)
    for module in _alias_modules(alias).values():
        if not Path(module.__file__).resolve().is_relative_to(pkg):
            raise RuntimeError(f"{alias} loaded {module.__file__}, outside {pkg}")
    return sw


def _has_function(sw: types.ModuleType, layer: str) -> bool:
    target = sw
    for part in layer.split("."):
        target = getattr(target, part, None)
        if not isinstance(target, types.ModuleType):
            return target is not None
    return False


def layer_calls(sw: types.ModuleType) -> dict[str, Callable[[], object]]:
    """A zero-argument call of every layer of the ``spinwigner`` package
    ``sw``, by row name, each name read from ``sw``; a row whose function
    ``sw`` lacks is left out."""
    import numpy as np

    cli = importlib.import_module(f"{sw.__name__}.cli")
    wigner = sw.DistributionKind.WIGNER
    rng = np.random.default_rng(6)
    probe = sw.SphericalPoint(math.pi / 2.0, math.pi)
    thetas, phis = sw.sphere_grid(cli.SURFACE_THETA_STEPS, cli.SURFACE_PHI_STEPS)
    calls = {}
    for n in REGISTER_SIZES:
        dim = 2**n
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        dense = g @ g.conj().T
        validated = {
            "ghz_werner": sw.ghz_werner(sw.GhzWernerParams(nu=0.5, n_qubits=n)),
            "accelerated": sw.accelerated_ghz(0.5, n, 0.5, n_qubits=n),
            "dense": sw.validate_density(dense / np.trace(dense).real, n),
        }
        for name, rho in validated.items():
            calls[f"validate_density.{name}.n{n}"] = lambda m=np.array(rho.matrix), n=n: sw.validate_density(m, n)
        config = sw.AccelerationConfig(r=0.5, accelerated=tuple(range(n)))
        for name in ("ghz_werner", "dense"):
            calls[f"accelerate.{name}.n{n}"] = lambda rho=validated[name], config=config: sw.accelerate(rho, config)
        calls[f"ghz_werner.n{n}"] = lambda n=n: sw.ghz_werner(sw.GhzWernerParams(nu=0.5, n_qubits=n))
        for name, rho in validated.items():
            calls[f"evaluate.{name}.n{n}"] = lambda rho=rho, points=(probe,) * n: sw.evaluate(rho, wigner, points)
        distinct = tuple(sw.SphericalPoint(math.pi * (q + 1) / (n + 1), 2.0 * math.pi * q / n) for q in range(n))
        for name in {3: ("ghz_werner",), 7: ("ghz_werner", "dense")}.get(n, ()):
            calls[f"evaluate.{name}.n{n}.distinct"] = (
                lambda rho=validated[name], points=distinct: sw.evaluate(rho, wigner, points))
        for name in ("ghz_werner", "dense"):
            calls[f"grid_values.{name}.n{n}"] = lambda rho=validated[name]: sw.grid_values(rho, wigner, thetas, phis)
        if n == 2:
            calls["grid_scan.split.n2"] = lambda rho=validated["dense"]: sw.grid_scan(
                rho, sw.DistributionKind.Q, 13, 25, equal_angles=False)
        if n == 3:
            calls["grid_scan.split.n3"] = lambda rho=validated["dense"]: sw.grid_scan(
                rho, wigner, 7, 12, equal_angles=False)
        if n in (3, 5, 7):
            calls[f"normalization_check.dense.n{n}"] = lambda rho=validated["dense"]: sw.normalization_check(
                rho, wigner)
        if n == 7:
            fresh = itertools.count(1)
            calls["accelerate.ghz_werner.n7.cold"] = lambda rho=validated["ghz_werner"], qubits=config.accelerated: (
                sw.accelerate(rho, sw.AccelerationConfig(r=0.5 - 1e-9 * next(fresh), accelerated=qubits)))
            calls["evaluate.ghz_werner.n7.cold"] = lambda rho=validated["ghz_werner"]: sw.evaluate(
                rho, wigner, (sw.SphericalPoint(math.pi / 2.0, math.pi + 1e-9 * next(fresh)),) * 7)

            def cold_grid_values(rho=validated["ghz_werner"]):
                shift = 1e-9 * next(fresh)
                return sw.grid_values(rho, wigner, thetas - shift, phis + shift)

            calls["grid_values.ghz_werner.n7.cold"] = cold_grid_values
            if hasattr(sw, "_memo"):
                calls["normalization_check.ghz_werner.n7.cold"] = lambda rho=validated["ghz_werner"]: (
                    sw._memo.clear_caches(), sw.normalization_check(rho, wigner))
    for n in range(8, 11):
        calls[f"grid_values.ghz_werner.n{n}"] = lambda rho=sw.ghz_werner(sw.GhzWernerParams(nu=0.5, n_qubits=n)): (
            sw.grid_values(rho, wigner, thetas, phis))
    for n in (10, 16):
        rho = sw.ghz_werner(sw.GhzWernerParams(nu=0.5, n_qubits=n))
        config = sw.AccelerationConfig(r=0.5, accelerated=tuple(range(n)))
        calls[f"ghz_werner.n{n}"] = lambda n=n: sw.ghz_werner(sw.GhzWernerParams(nu=0.5, n_qubits=n))
        calls[f"accelerate.ghz_werner.n{n}"] = lambda rho=rho, config=config: sw.accelerate(rho, config)
        calls[f"evaluate.ghz_werner.n{n}"] = lambda rho=rho, points=(probe,) * n: sw.evaluate(rho, wigner, points)
    for n in (3, 7, 16):
        calls[f"normalization_check.ghz_werner.n{n}"] = (
            lambda rho=sw.ghz_werner(sw.GhzWernerParams(nu=0.5, n_qubits=n)): sw.normalization_check(rho, wigner))
    calls["kernel_grid.91x181"] = lambda: sw.kernel_grid(wigner, thetas[:, None], phis)
    figures = {name: build() for name, build in cli._figure_specs()}
    calls["cli._csv_chunks.fig1a"] = lambda: "".join(cli._csv_chunks(figures["fig1a.csv"]))
    calls["cli._csv_chunks.figures"] = lambda: ["".join(cli._csv_chunks(table)) for table in figures.values()]
    nus = np.linspace(0.0, 1.0, cli.MAP_STEPS)
    rs = np.linspace(0.0, sw.R_MAX, cli.MAP_STEPS)
    calls["probe_sweep.51x51.k3"] = lambda: sw.probe_sweep(nus, rs, 3, wigner, probe)
    calls["probe_sweep.51x51.n7k7"] = lambda: sw.probe_sweep(nus, rs, 7, wigner, probe, n_qubits=7)
    calls["probe_sweep.51x51.n10k10"] = lambda: sw.probe_sweep(nus, rs, 10, wigner, probe, n_qubits=10)
    calls["probe_sweep.5x5.n16k16"] = lambda: sw.probe_sweep(
        np.linspace(0.0, 1.0, 5), np.linspace(0.0, sw.R_MAX, 5), 16, wigner, probe, n_qubits=16)
    curve_nus = (0.2, 0.5, 0.7, 1.0)
    r_curve = np.linspace(0.0, sw.R_MAX, cli.R_CURVE_STEPS)
    calls["probe_sweep.fig5"] = lambda: [sw.probe_sweep(curve_nus, r_curve, k, wigner, probe) for k in (1, 2, 3)]
    return {name: call for name, call in calls.items() if _has_function(sw, name)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="per-layer timings of spinwigner, parent against change")
    parser.add_argument("--parent", required=True, help="git revision to time against the working tree, e.g. HEAD")
    parser.add_argument("--repeats", type=int, default=15, help="rounds per layer, one sample per side and round")
    parser.add_argument("--out", type=Path, required=True, help="output JSON, e.g. LAYERS_6.json")
    args = parser.parse_args(argv)
    if args.repeats < 2:  # the quartiles need two samples
        parser.error("--repeats must be at least 2")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import numpy as np

    sides = side_records(args.parent)
    pooled: dict[str, dict[str, list[float]]] = {side: {} for side in SIDES}
    with checkouts(sides["parent"]["commit"]) as dirs:
        calls = {side: layer_calls(load_package(f"spinwigner_{side}", dirs[side] / "src")) for side in SIDES}
        names = list({**calls["parent"], **calls["change"]})
        for k, name in enumerate(names, 1):
            for i in range(args.repeats):
                for side in side_order(i):
                    if name in calls[side]:
                        pooled[side].setdefault(name, []).append(time_per_call(calls[side][name]))
            print(f"[{k}/{len(names)}] {name}", file=sys.stderr)
    for side, layers in pooled.items():
        sides[side]["min_s"] = {name: min(v) for name, v in sorted(layers.items())}
        sides[side]["median_s"] = {name: statistics.median(v) for name, v in sorted(layers.items())}
        sides[side]["quartiles_s"] = {
            name: statistics.quantiles(v, n=4, method="inclusive")[::2] for name, v in sorted(layers.items())}
        sides[side]["samples"] = {name: len(v) for name, v in sorted(layers.items())}
    record = {
        "method": (f"seconds per call, minimum, median and inclusive quartiles [q1, q3] over {args.repeats} samples "
                   f"per side, each a batch of calls lasting at least {BATCH_S:g} s after a warm-up call; both sides "
                   "loaded in one process, pinned to one CPU with BLAS on one thread, timed layer by layer with the "
                   "sides alternating, one sample each per round"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "sides": sides,
    }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    # BLAS reads its thread count once, when numpy is first imported
    if "numpy" in sys.modules:
        sys.exit("error: numpy was imported before BLAS could be set to one thread")
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.exit(main())
