"""Per-layer timings that the benchmark's workloads do not report.

Run from the repository root:

    python3 tools/layer_times.py --parent HEAD --repeats 15 --out LAYERS_12.json

Each layer is timed in seconds per call: the minimum, the median and the
inclusive quartiles over ``--repeats`` samples, each sample the mean of a
batch of calls lasting at least ``BATCH_S``.  The minimum tells apart
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
  with the quadrature weights' cache emptied first (on a side that has
  one), so they time the build that the memoized transfer maps, point
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
  into one string;
- ``probe_sweep`` of the 51 x 51 nu x r Wigner map at the probe point
  with three accelerated qubits (the fig4c data), the same map of a
  7-qubit and of a 10-qubit register with every qubit accelerated, a
  5 x 5 map of a 16-qubit register with all sixteen accelerated
  (51 x 51 would stack about 200 MB), and the three sweeps of the fig5
  r curves (4 nu x 50 r, one per k = 1, 2, 3).

The ``--parent`` revision and the working tree are extracted and the
sides alternate as ``paired.py`` describes, over ``ROUNDS`` rounds; each
layer's samples are pooled over the rounds.  Every side and round runs in its own subprocess,
pinned to one CPU with BLAS on one thread, that imports ``spinwigner``
from that side's ``src/``.  This script imports nothing from ``bench/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from paired import SIDES, checkouts, side_order, side_records

BATCH_S = 0.005
ROUNDS = 3
REGISTER_SIZES = range(1, 8)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def time_per_call(fn, repeats: int) -> list[float]:
    """``repeats`` samples of the seconds one call of ``fn`` takes."""
    fn()  # warm caches
    start = time.perf_counter()
    fn()
    single = time.perf_counter() - start
    number = max(1, math.ceil(BATCH_S / max(single, 1e-9)))
    # a call that lasts a whole batch was already timed as one
    samples = [single] if number == 1 else []
    while len(samples) < repeats:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return samples


def layer_samples(repeats: int) -> dict[str, list[float]]:
    """Time every layer of the ``spinwigner`` on ``sys.path``."""
    import numpy as np

    from spinwigner import (
        R_MAX,
        AccelerationConfig,
        DistributionKind,
        GhzWernerParams,
        SphericalPoint,
        accelerate,
        accelerated_ghz,
        evaluate,
        ghz_werner,
        grid_scan,
        grid_values,
        kernel_grid,
        normalization_check,
        probe_sweep,
        sphere_grid,
        validate_density,
    )
    from spinwigner import cli, quasiprob

    rng = np.random.default_rng(6)
    probe = SphericalPoint(math.pi / 2.0, math.pi)
    thetas, phis = sphere_grid(cli.SURFACE_THETA_STEPS, cli.SURFACE_PHI_STEPS)
    samples = {}
    for n in REGISTER_SIZES:
        dim = 2**n
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        dense = g @ g.conj().T
        validated = {
            "ghz_werner": ghz_werner(GhzWernerParams(nu=0.5, n_qubits=n)),
            "accelerated": accelerated_ghz(0.5, n, 0.5, n_qubits=n),
            "dense": validate_density(dense / np.trace(dense).real, n),
        }
        for name, rho in validated.items():
            samples[f"validate_density.{name}.n{n}"] = time_per_call(
                lambda m=np.array(rho.matrix), n=n: validate_density(m, n), repeats)
        config = AccelerationConfig(r=0.5, accelerated=tuple(range(n)))
        for name in ("ghz_werner", "dense"):
            samples[f"accelerate.{name}.n{n}"] = time_per_call(
                lambda rho=validated[name], config=config: accelerate(rho, config), repeats)
        samples[f"ghz_werner.n{n}"] = time_per_call(
            lambda n=n: ghz_werner(GhzWernerParams(nu=0.5, n_qubits=n)), repeats)
        for name, rho in validated.items():
            samples[f"evaluate.{name}.n{n}"] = time_per_call(
                lambda rho=rho, points=(probe,) * n: evaluate(rho, DistributionKind.WIGNER, points), repeats)
        distinct = tuple(SphericalPoint(math.pi * (q + 1) / (n + 1), 2.0 * math.pi * q / n) for q in range(n))
        for name in {3: ("ghz_werner",), 7: ("ghz_werner", "dense")}.get(n, ()):
            samples[f"evaluate.{name}.n{n}.distinct"] = time_per_call(
                lambda rho=validated[name], points=distinct: evaluate(rho, DistributionKind.WIGNER, points), repeats)
        for name in ("ghz_werner", "dense"):
            samples[f"grid_values.{name}.n{n}"] = time_per_call(
                lambda rho=validated[name]: grid_values(rho, DistributionKind.WIGNER, thetas, phis), repeats)
        if n == 2:
            samples["grid_scan.split.n2"] = time_per_call(
                lambda rho=validated["dense"]: grid_scan(rho, DistributionKind.Q, 13, 25, equal_angles=False),
                repeats)
        if n == 3:
            samples["grid_scan.split.n3"] = time_per_call(
                lambda rho=validated["dense"]: grid_scan(rho, DistributionKind.WIGNER, 7, 12, equal_angles=False),
                repeats)
        if n in (3, 5, 7):
            samples[f"normalization_check.dense.n{n}"] = time_per_call(
                lambda rho=validated["dense"]: normalization_check(rho, DistributionKind.WIGNER), repeats)
        if n == 7:
            fresh = itertools.count(1)
            samples["accelerate.ghz_werner.n7.cold"] = time_per_call(
                lambda rho=validated["ghz_werner"], qubits=config.accelerated: accelerate(
                    rho, AccelerationConfig(r=0.5 - 1e-9 * next(fresh), accelerated=qubits)), repeats)
            samples["evaluate.ghz_werner.n7.cold"] = time_per_call(
                lambda rho=validated["ghz_werner"]: evaluate(
                    rho, DistributionKind.WIGNER, (SphericalPoint(math.pi / 2.0, math.pi + 1e-9 * next(fresh)),) * 7),
                repeats)

            def cold_grid_values(rho=validated["ghz_werner"]):
                shift = 1e-9 * next(fresh)
                return grid_values(rho, DistributionKind.WIGNER, thetas - shift, phis + shift)

            def cold_normalization_check(rho=validated["ghz_werner"],
                                         cache=getattr(quasiprob, "_quadrature_weights", None)):
                if cache is not None:
                    cache.cache_clear()
                return normalization_check(rho, DistributionKind.WIGNER)

            samples["grid_values.ghz_werner.n7.cold"] = time_per_call(cold_grid_values, repeats)
            samples["normalization_check.ghz_werner.n7.cold"] = time_per_call(cold_normalization_check, repeats)
    for n in range(8, 11):
        rho = ghz_werner(GhzWernerParams(nu=0.5, n_qubits=n))
        samples[f"grid_values.ghz_werner.n{n}"] = time_per_call(
            lambda rho=rho: grid_values(rho, DistributionKind.WIGNER, thetas, phis), repeats)
    for n in (10, 16):
        rho = ghz_werner(GhzWernerParams(nu=0.5, n_qubits=n))
        config = AccelerationConfig(r=0.5, accelerated=tuple(range(n)))
        samples[f"ghz_werner.n{n}"] = time_per_call(
            lambda n=n: ghz_werner(GhzWernerParams(nu=0.5, n_qubits=n)), repeats)
        samples[f"accelerate.ghz_werner.n{n}"] = time_per_call(
            lambda rho=rho, config=config: accelerate(rho, config), repeats)
        samples[f"evaluate.ghz_werner.n{n}"] = time_per_call(
            lambda rho=rho, points=(probe,) * n: evaluate(rho, DistributionKind.WIGNER, points), repeats)
    for n in (3, 7, 16):
        samples[f"normalization_check.ghz_werner.n{n}"] = time_per_call(
            lambda rho=ghz_werner(GhzWernerParams(nu=0.5, n_qubits=n)): normalization_check(
                rho, DistributionKind.WIGNER), repeats)
    samples["kernel_grid.91x181"] = time_per_call(
        lambda: kernel_grid(DistributionKind.WIGNER, thetas[:, None], phis), repeats)
    fig1a = dict(cli._figure_specs())["fig1a.csv"]()
    samples["cli._csv_chunks.fig1a"] = time_per_call(lambda: "".join(cli._csv_chunks(fig1a)), repeats)
    nus = np.linspace(0.0, 1.0, cli.MAP_STEPS)
    rs = np.linspace(0.0, R_MAX, cli.MAP_STEPS)
    samples["probe_sweep.51x51.k3"] = time_per_call(
        lambda: probe_sweep(nus, rs, 3, DistributionKind.WIGNER, probe), repeats)
    samples["probe_sweep.51x51.n7k7"] = time_per_call(
        lambda: probe_sweep(nus, rs, 7, DistributionKind.WIGNER, probe, n_qubits=7), repeats)
    samples["probe_sweep.51x51.n10k10"] = time_per_call(
        lambda: probe_sweep(nus, rs, 10, DistributionKind.WIGNER, probe, n_qubits=10), repeats)
    samples["probe_sweep.5x5.n16k16"] = time_per_call(
        lambda: probe_sweep(np.linspace(0.0, 1.0, 5), np.linspace(0.0, R_MAX, 5), 16, DistributionKind.WIGNER,
                            probe, n_qubits=16), repeats)
    curve_nus = (0.2, 0.5, 0.7, 1.0)
    r_curve = np.linspace(0.0, R_MAX, cli.R_CURVE_STEPS)
    samples["probe_sweep.fig5"] = time_per_call(
        lambda: [probe_sweep(curve_nus, r_curve, k, DistributionKind.WIGNER, probe) for k in (1, 2, 3)], repeats)
    return samples


def run_worker(checkout: Path, repeats: int) -> dict[str, list[float]]:
    """Layer samples of the checkout's sources, timed in a fresh process."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(checkout / "src"),
           "--repeats", str(repeats)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"timing {checkout} failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout)


def worker(src: Path, repeats: int) -> int:
    """Print the layer samples of the package under ``src`` as JSON."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    import spinwigner

    if Path(spinwigner.__file__).resolve().parent != (src / "spinwigner").resolve():
        print(f"error: imported spinwigner from {spinwigner.__file__}, not {src}", file=sys.stderr)
        return 2
    print(json.dumps(layer_samples(repeats)))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description="per-layer timings of spinwigner, parent against change")
    parser.add_argument("--parent", help="git revision to time against the working tree, e.g. HEAD")
    parser.add_argument("--repeats", type=int, default=15, help="samples per layer, side and round")
    parser.add_argument("--out", type=Path, help="output JSON, e.g. LAYERS_6.json")
    parser.add_argument("--worker", type=Path, metavar="SRC",
                        help="time the package under SRC in this process and print the samples")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.worker is None and (args.parent is None or args.out is None):
        parser.error("--parent and --out are required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker is not None:
        return worker(args.worker, args.repeats)
    import numpy as np

    sides = side_records(args.parent)
    pooled: dict[str, dict[str, list[float]]] = {side: {} for side in SIDES}
    with checkouts(sides["parent"]["commit"]) as dirs:
        for i in range(ROUNDS):
            for side in side_order(i):
                for name, values in run_worker(dirs[side], args.repeats).items():
                    pooled[side].setdefault(name, []).extend(values)
                print(f"round {i + 1}/{ROUNDS} {side} done", file=sys.stderr)
    for side, layers in pooled.items():
        sides[side]["min_s"] = {name: min(v) for name, v in sorted(layers.items())}
        sides[side]["median_s"] = {name: statistics.median(v) for name, v in sorted(layers.items())}
        sides[side]["quartiles_s"] = {
            name: statistics.quantiles(v, n=4, method="inclusive")[::2] for name, v in sorted(layers.items())}
        sides[side]["samples"] = {name: len(v) for name, v in sorted(layers.items())}
    record = {
        "method": (f"seconds per call, minimum, median and inclusive quartiles [q1, q3] over {args.repeats} samples "
                   f"x {ROUNDS} rounds per side, "
                   f"each sample a batch of calls lasting at least {BATCH_S:g} s; one subprocess per side "
                   "and round, pinned to one CPU with BLAS on one thread, sides alternating"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "sides": sides,
    }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
