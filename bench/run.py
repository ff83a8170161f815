"""Benchmark of spinwigner: three seeded workloads with a correctness gate.

Run from the repository root:

    python3 bench/run.py --workload paper --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py`` for what one pass does and why):
``paper``, ``register_grid``, ``channel_sweep``.  The benchmark imports
the package from ``src/`` next to this directory and exits with code 2
when that source is missing.

Times are host-speed-normalised (see ``speedclock.py``): seconds on a
host where the fixed calibration kernel takes ``CAL_REF_S``, so that
runs of the same code agree while the shared host's speed drifts.  The
report keeps the raw wall-clock pass times and kernel costs beside them.
The process pins itself to one CPU, which the set-up processes inherit.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes and reports, per
wrapped library function, ``<module>.<function>.calls/.total_s/.self_s``,
plus ``cli.self_s`` (pass wall time outside every library span) and
``tracing_overhead_s`` (traced minus untraced pass wall time).

Every op of every pass is checked against an independent reference; an op
that raises or fails its check counts as failed.  Human-readable lines and
a JSON report (seed, why, machine block, sample counts, failures) come
first; the last line of standard output is the result object.  The report
and, for traced runs, the spans of the last traced pass (overwritten by
the next traced run of the workload) are written to ``.bench_out/`` in the
repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Pinned before numpy loads, identically on both sides of any comparison;
# one thread keeps runs steady on a small shared machine.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# one fresh process varies by ~12 % from the next; the median of 15 is steady
SETUP_SAMPLES = 15

# Fresh process: import the package and make the first call, which also
# fills the tensor-operator cache.  Prints the elapsed seconds.
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import math
import spinwigner as sw
probe = sw.SphericalPoint(math.pi / 2.0, math.pi)
rho = sw.ghz_werner(sw.GhzWernerParams(nu=1.0))
w = sw.evaluate(rho, sw.DistributionKind.WIGNER, (probe,) * 3).value
elapsed = time.perf_counter() - t0
if abs(w - (1.0 - 3.0 * math.sqrt(3.0)) / 8.0) > 1e-12:
    sys.exit("first call returned %r" % w)
print(repr(elapsed))
"""

# Functions reported per layer: every public one at least one workload calls.
REPORTED_FUNCTIONS = (
    "linalg.kron",
    "linalg.validate_density",
    "su2kernel.kernel_grid",
    "su2kernel.kernel",
    "su2kernel.kernel_n",
    "states.ghz_pure",
    "states.ghz_werner",
    "rindler.unruh_isometry",
    "rindler.accelerate",
    "rindler.coefficient_table",
    "rindler.coefficient_report",
    "quasiprob.evaluate",
    "quasiprob.grid_values",
    "quasiprob.grid_scan",
    "quasiprob.normalization_check",
    "quasiprob.accelerated_ghz",
    "quasiprob.compare_closed_form",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="spinwigner benchmark")
    parser.add_argument("--workload", required=True, choices=("paper", "register_grid", "channel_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_block(np, available: list[int]) -> dict:
    from speedclock import CAL_REF_S, INTERVAL_S

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
            cpu = next(models, "")
    except OSError:
        pass
    return {
        "nproc": len(available),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "calibration": {"cal_ref_s": CAL_REF_S, "interval_s": INTERVAL_S},
    }


def measure_setup() -> tuple[float, float]:
    """Normalised and raw seconds a fresh process takes to import the
    package and make its first call.  The kernel is timed just before and
    after it; the alarm timer is off, so the child runs alone on the CPU."""
    from speedclock import CAL_REF_S, kernel_cost

    cost_before = kernel_cost()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        check=False,
    )
    cost_after = kernel_cost()
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
    raw = float(done.stdout.strip())
    return raw * CAL_REF_S / ((cost_before + cost_after) / 2.0), raw


@dataclass
class TimedPass:
    """One pass in normalised seconds: its wall time and, per op timed,
    the op's latency; with the raw wall time and kernel count beside."""

    wall_s: float
    latency_s: dict[str, float]
    raw_wall_s: float
    kernels: int


def timed_pass(result, clock) -> TimedPass:
    norm = clock.normalizer()
    latency = {
        op.name: float(norm(op.end) - norm(op.start))
        for op in result.ops
        if not op.error and math.isfinite(op.start) and math.isfinite(op.end)
    }
    wall = float(norm(result.end) - norm(result.start))
    return TimedPass(wall, latency, result.end - result.start, clock.samples())


class Ledger:
    """Outcome of every op checked in a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, workload, result) -> None:
        for op in result.ops:
            self.attempted += 1
            try:
                problems = workload.check(op)
            except Exception as exc:
                problems = [f"{op.name}: check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                self.problems.extend(problems)


def run_passes(workload, workdir: Path, seconds: float, ledger: Ledger, tracer=None, setup=None):
    """Passes, each timed on its own ``SpeedClock`` and checked right
    after it ran, while the next one is expected to end within ``seconds``
    (at least one pass, or one of each kind when tracing), so that a run's
    length does not depend on how far its last pass overshoots.

    With a ``setup`` list, ``SETUP_SAMPLES`` set-up samples are taken
    between passes, as many after each pass as keep them in step with the
    time used, so that they spread over the run like the passes do.

    Returns (untraced ``TimedPass``es, traced per-pass summaries, peak RSS
    in KiB after the first pass and before any check).
    """
    from speedclock import SpeedClock

    untraced, traced = [], []
    peak_kib = None
    begun = time.perf_counter()
    deadline = begun + seconds
    index = 0
    while True:
        started = time.perf_counter()
        with_trace = tracer is not None and index % 2 == 1
        pass_dir = workdir / f"pass{index}"
        pass_dir.mkdir(parents=True)
        clock = SpeedClock()
        clock.start()
        if with_trace:
            tracer.begin()
        try:
            result = workload.run_pass(pass_dir)
        finally:
            if with_trace:
                tracer.stop()
            clock.stop()
        timed = timed_pass(result, clock)
        if with_trace:
            per_function, library_s = tracer.summary(clock.normalizer())
            traced.append((timed.wall_s, per_function, library_s))
        else:
            untraced.append(timed)
        if peak_kib is None:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ledger.check(workload, result)
        shutil.rmtree(pass_dir)
        if setup is not None:
            while len(setup) < SETUP_SAMPLES * (time.perf_counter() - begun) / seconds:
                setup.append(measure_setup())
        index += 1
        now = time.perf_counter()
        if now + (now - started) > deadline and (tracer is None or traced):
            while setup is not None and len(setup) < SETUP_SAMPLES:
                setup.append(measure_setup())
            return untraced, traced, peak_kib


def end_to_end_metrics(workload, passes, peak_kib, setup) -> tuple[dict, int]:
    """Medians over the run.  Each op's latency is its median over the
    passes; the percentiles are taken over the workload's fixed set of
    ops, so they do not depend on how many passes fitted in the run."""
    walls = [p.wall_s for p in passes]
    names = sorted({name for p in passes for name in p.latency_s})
    per_op = [
        statistics.median(p.latency_s[name] for p in passes if name in p.latency_s)
        for name in names
    ]
    cuts = (
        statistics.quantiles(per_op, n=100, method="inclusive")
        if len(per_op) > 1
        else [math.nan] * 99
    )
    wall = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.median(normalised for normalised, _ in setup), "s"),
        "wall_s": (wall, "s"),
        "values_per_s": (workload.values_per_pass / wall, "1/s"),
        "op_p50_ms": (cuts[49] * 1e3, "ms"),
        "op_p90_ms": (cuts[89] * 1e3, "ms"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }
    return metrics, sum(len(p.latency_s) for p in passes)


def per_layer_metrics(untraced, traced) -> tuple[dict, dict]:
    """Medians over traced passes; also the full table of every wrapped
    function for the report.  ``untraced[i]`` ran just before ``traced[i]``."""
    table = {}
    for name in traced[0][1]:
        rows = [per_function[name] for _, per_function, _ in traced]
        table[name] = {
            "calls": statistics.median_low(r[0] for r in rows),
            "total_s": statistics.median(r[1] for r in rows),
            "self_s": statistics.median(r[2] for r in rows),
        }
    metrics = {}
    for name in REPORTED_FUNCTIONS:
        row = table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.total_s"] = (row["total_s"], "s")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    metrics["cli.self_s"] = (statistics.median(wall - lib for wall, _, lib in traced), "s")
    # passes alternate untraced, traced: pair each traced pass with the
    # untraced one just before it, so slow drifts of the machine cancel
    overhead = statistics.median(t[0] - u.wall_s for u, t in zip(untraced, traced))
    metrics["tracing_overhead_s"] = (overhead, "s")
    return metrics, table


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinwigner" / "__init__.py").is_file():
        print(f"error: spinwigner sources not found under {SRC}", file=sys.stderr)
        return 2
    # one CPU for the work, the calibration kernel and the set-up processes
    available = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {available[0]})
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    import numpy as np

    import spinwigner
    if Path(spinwigner.__file__).resolve().parent != (SRC / "spinwigner").resolve():
        print(f"error: imported spinwigner from {spinwigner.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    ledger = Ledger()
    machine = machine_block(np, available)
    extra = {}
    try:
        # in-process warm-up: the first call the set-up samples time
        probe = spinwigner.SphericalPoint(math.pi / 2.0, math.pi)
        rho = spinwigner.ghz_werner(spinwigner.GhzWernerParams(nu=1.0))
        spinwigner.evaluate(rho, spinwigner.DistributionKind.WIGNER, (probe,) * 3)
        if args.trace:
            tracer = Tracer(spinwigner)
            tracer.install()
            try:
                untraced, traced, _ = run_passes(workload, workdir, args.seconds, ledger, tracer)
            finally:
                tracer.uninstall()
            metrics, table = per_layer_metrics(untraced, traced)
            spans_path = OUT / f"spans-{args.workload}.csv"  # latest traced run only
            tracer.write_spans(spans_path)
            extra = {"traced_passes": len(traced), "untraced_passes": len(untraced),
                     "all_functions": table, "spans": spans_path.name}
        else:
            setup = []
            passes, _, peak_kib = run_passes(workload, workdir, args.seconds, ledger, setup=setup)
            metrics, samples = end_to_end_metrics(workload, passes, peak_kib, setup)
            extra = {
                "passes": len(passes),
                "ops_timed": len({name for p in passes for name in p.latency_s}),
                "op_latency_samples": samples,
                "setup_samples_s": [normalised for normalised, _ in setup],
                "raw_setup_samples_s": [raw for _, raw in setup],
                "pass_walls_s": [p.wall_s for p in passes],
                "raw_pass_walls_s": [p.raw_wall_s for p in passes],
                "kernels_per_pass": [p.kernels for p in passes],
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_frac": ledger.failed / ledger.attempted,
        "problems": ledger.problems[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    report_path = OUT / f"report-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload {workload.name}, seed {args.seed}: {workload.why}")
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {report['failed_frac']:.6g} ({ledger.failed} of {ledger.attempted} ops)")
    for name, value in extra.items():
        if isinstance(value, (int, str)):
            print(f"  {name}: {value}")
    for problem in ledger.problems[:10]:
        print(f"  FAILED {problem}")
    print(f"report: {report_path.relative_to(ROOT)}")
    correct = ledger.failed == 0 and ledger.attempted > 0 and all(
        isinstance(v, (int, float)) and math.isfinite(v) for v, _ in metrics.values()
    )
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
