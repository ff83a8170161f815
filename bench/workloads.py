"""The three benchmark workloads: seeded inputs, one timed pass, checks.

Every workload is a closed loop with a single caller: one Python thread
calls the library, waits for the result and only then makes the next
call.  A pass returns when it started and ended and a list of ops; checks run after
the pass, outside its timing, against ``reference`` only.  A pass keeps
just what its checks need, so the peak memory after a pass is the
library's own working set.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref
import spinwigner as sw
from spinwigner import cli

KINDS = (sw.DistributionKind.Q, sw.DistributionKind.WIGNER, sw.DistributionKind.P)
PROBE = (math.pi / 2.0, math.pi)


@dataclass
class Op:
    """One unit of work in a pass: when it ran (``time.perf_counter``
    stamps, nan if unknown) and what its check reads."""

    name: str
    start: float
    end: float
    output: object = None
    error: str | None = None


@dataclass
class PassResult:
    start: float
    end: float
    ops: list[Op]


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# ---------------------------------------------------------------- paper

FIGURE_NAMES = tuple(
    [f"fig{i}{letter}.csv" for i in (1, 2, 3, 4) for letter in "abc"]
    + [f"fig5{letter}.csv" for letter in "abcd"]
)
CSV_HEADER = "theta,phi,nu,r,k,s,W"
SURFACE = (91, 181)
MAP_STEPS = 51
R_CURVE_STEPS = 50
DENSE_SAMPLES = 32

# `spinwigner verify` statuses of the seed: (tag, nu, r, status)
VERIFY_VARIANTS = (
    ("GHZ", 0.0, 0.0, "MATCH"),
    ("GHZ", 0.3, 0.0, "MATCH"),
    ("GHZ", 1.0, 0.0, "MATCH"),
    ("ACC1", 0.0, 0.0, "MATCH"),
    ("ACC1", 0.3, 0.3, "MATCH"),
    ("ACC1", 0.7, 0.6, "MATCH"),
    ("ACC1", 1.0, ref.R_MAX, "MATCH"),
    ("ACC2", 1.0, 0.0, "DISCREPANT"),
    ("ACC2", 0.3, 0.6, "DISCREPANT"),
    ("ACC2", 1.0, 0.6, "DISCREPANT"),
    ("ACC3", 1.0, 0.0, "DISCREPANT"),
    ("ACC3", 0.3, 0.6, "DISCREPANT"),
    ("ACC3", 1.0, 0.6, "DISCREPANT"),
)
VERIFY_COEFFICIENTS = (
    ("A", 0.3, 0.6, "MATCH"),
    ("A", 1.0, 0.6, "MATCH"),
    ("A", 1.0, 0.0, "MATCH"),
    ("B", 0.3, 0.6, "DISCREPANT"),
    ("B", 1.0, 0.6, "DISCREPANT"),
    ("B", 1.0, 0.0, "DISCREPANT"),
    ("C", 0.3, 0.6, "DISCREPANT"),
    ("C", 1.0, 0.6, "DISCREPANT"),
    # at r = 0 the printed three-qubit table reduces to the unaccelerated one
    ("C", 1.0, 0.0, "MATCH"),
)
VERIFY_VALUES = 13 * 50 * 50


@dataclass
class FigureSpec:
    """Expected rows of one figure file and the reference for its W column.

    ``rows`` holds the six input columns; ``checked`` the row indices whose
    W is compared, against ``expected`` in the same order.
    """

    rows: np.ndarray
    checked: np.ndarray
    expected: np.ndarray


def _columns(theta, phi, nu, r, k) -> np.ndarray:
    cols = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (theta, phi, nu, r, k, 0.0)))
    return np.stack([c.ravel() for c in cols], axis=1)


def figure_specs(rng: np.random.Generator) -> dict[str, FigureSpec]:
    """Expected content of the 16 figure files, with seeded sample cells
    for the surfaces that are checked by dense trace."""
    thetas, phis = ref.sphere_grid(*SURFACE)
    nus = np.linspace(0.0, 1.0, MAP_STEPS)
    rs = np.linspace(0.0, ref.R_MAX, MAP_STEPS)
    r_curve = np.linspace(0.0, ref.R_MAX, R_CURVE_STEPS)
    probe_theta, probe_phi = PROBE
    t_grid, p_grid = np.meshgrid(thetas, phis, indexing="ij")
    specs: dict[str, FigureSpec] = {}

    def full(rows, expected):
        return FigureSpec(rows, np.arange(len(rows)), np.asarray(expected, dtype=float))

    for fig, nu in (("fig1a", 1.0), ("fig1b", 0.3)):
        rows = _columns(t_grid, p_grid, nu, 0.0, 0)
        specs[fig + ".csv"] = full(rows, ref.ghz_closed_form(rows[:, 0], rows[:, 1], nu))
    nu_grid, th_grid = np.meshgrid(nus, thetas, indexing="ij")
    rows = _columns(th_grid, probe_phi, nu_grid, 0.0, 0)
    specs["fig1c.csv"] = full(rows, ref.ghz_closed_form(rows[:, 0], rows[:, 1], rows[:, 2]))
    for fig, nu in (("fig2a", 1.0), ("fig2b", 0.3)):
        rows = _columns(t_grid, p_grid, nu, 0.6, 1)
        specs[fig + ".csv"] = full(rows, ref.acc1_closed_form(rows[:, 0], rows[:, 1], nu, 0.6))
    for k in (2, 3):
        for letter, nu in (("a", 1.0), ("b", 0.3)):
            rows = _columns(t_grid, p_grid, nu, 0.6, k)
            rho = ref.kraus_accelerate(ref.ghz_werner_matrix(3, nu), 3, range(k), 0.6)
            picked = np.sort(rng.choice(len(rows), size=DENSE_SAMPLES, replace=False))
            expected = [
                ref.dense_value(rho, sw.DistributionKind.WIGNER, [(rows[i, 0], rows[i, 1])] * 3)
                for i in picked
            ]
            specs[f"fig{k + 1}{letter}.csv"] = FigureSpec(rows, picked, np.array(expected))
    nu_grid, r_grid = np.meshgrid(nus, rs, indexing="ij")
    for k in (1, 2, 3):
        rows = _columns(probe_theta, probe_phi, nu_grid, r_grid, k)
        specs[f"fig{k + 1}c.csv"] = full(rows, ref.point_law(3, rows[:, 2], k, rows[:, 3]))
    k_grid, rc_grid = np.meshgrid([1, 2, 3], r_curve, indexing="ij")
    for letter, nu in zip("abcd", (1.0, 0.7, 0.5, 0.2)):
        rows = _columns(probe_theta, probe_phi, nu, rc_grid, k_grid)
        specs[f"fig5{letter}.csv"] = full(rows, ref.point_law(3, nu, rows[:, 4], rows[:, 3]))
    return specs


def check_figure(path: Path, spec: FigureSpec) -> list[str]:
    """Header, row design and W column of one figure file."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    if header != CSV_HEADER:
        return [f"{path.name}: header {header!r}"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (len(spec.rows), 7):
        return [f"{path.name}: shape {data.shape}, expected {(len(spec.rows), 7)}"]
    problems = []
    bad_inputs = ~ref.csv_close(data[:, :6], spec.rows)
    if bad_inputs.any():
        problems.append(f"{path.name}: {int(bad_inputs.any(axis=1).sum())} rows off the expected grid")
    got = data[spec.checked, 6]
    bad = ~ref.csv_close(got, spec.expected)
    if bad.any():
        i = int(np.argmax(bad))
        problems.append(
            f"{path.name}: {int(bad.sum())} W values off the reference, "
            f"first at row {int(spec.checked[i])}: {float(got[i])!r} vs {float(spec.expected[i])!r}"
        )
    return problems


def check_verify(path: Path) -> list[str]:
    """`verify` statuses must equal the seed's, case by case."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    got_v = [(v["tag"], v["nu"], v["r"], v["status"]) for v in report["variants"]]
    got_c = [(c["variant"], c["nu"], c["r"], c["status"]) for c in report["coefficients"]]
    problems = []
    for label, got, want in (
        ("variants", got_v, VERIFY_VARIANTS),
        ("coefficients", got_c, VERIFY_COEFFICIENTS),
    ):
        if len(got) != len(want):
            problems.append(f"verify {label}: {len(got)} cases, expected {len(want)}")
            continue
        for g, w in zip(got, want):
            same_case = math.isclose(g[1], w[1]) and math.isclose(g[2], w[2])
            if g[0] != w[0] or g[3] != w[3] or not same_case:
                problems.append(f"verify {label}: {g} where the seed gives {w}")
    return problems


class _LineClock(io.TextIOBase):
    """Stdout stand-in that notes when each `wrote <path>` line arrives."""

    def __init__(self):
        self.stamps: list[tuple[float, str]] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        now = time.perf_counter()
        for line in text.splitlines():
            if line.startswith("wrote "):
                self.stamps.append((now, line[len("wrote "):]))
        return len(text)


class Paper:
    name = "paper"
    why = (
        "the figure reproduction users run: 8,403 point values each on its own "
        "validated state, plus .12g CSV formatting; verify rides along"
    )
    values_per_pass = 144_812 + VERIFY_VALUES

    def __init__(self, seed: int):
        self.specs = figure_specs(np.random.default_rng(seed))

    def run_pass(self, workdir: Path) -> PassResult:
        """`spinwigner figures` then `spinwigner verify`; one op per file.

        A figure op's latency runs from the previous file's progress line
        (or the start) to its own, i.e. what a user watching the progress
        sees; the verify op is the whole `verify` call.
        """
        fig_dir = workdir / "figures"
        verify_path = workdir / "verify.json"
        clock = _LineClock()
        fig_error = verify_error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(clock):
                code = cli.main(["figures", "--output-dir", str(fig_dir)])
            if code != 0:
                fig_error = f"figures exited with {code}"
        except Exception as exc:
            fig_error = _failure(exc)
        t1 = time.perf_counter()
        try:
            code = cli.main(["verify", "-o", str(verify_path)])
            if code != 0:
                verify_error = f"verify exited with {code}"
        except Exception as exc:
            verify_error = _failure(exc)
        t2 = time.perf_counter()

        written = {}
        previous = t0
        for stamp, path in clock.stamps:
            written[Path(path).name] = (previous, stamp, Path(path))
            previous = stamp
        ops = []
        for name in FIGURE_NAMES:
            if name in written:
                ops.append(Op(name, *written[name]))
            elif (fig_dir / name).is_file():  # written, but no progress line to time it by
                ops.append(Op(name, math.nan, math.nan, fig_dir / name))
            else:
                ops.append(Op(name, math.nan, math.nan, error=fig_error or "file not written"))
        ops.append(Op("verify", t1, t2, verify_path, verify_error))
        return PassResult(t0, t2, ops)

    def check(self, op: Op) -> list[str]:
        if op.error:
            return [f"{op.name}: {op.error}"]
        if op.name == "verify":
            return check_verify(op.output)
        return check_figure(op.output, self.specs[op.name])


# -------------------------------------------------------- register_grid


@dataclass
class GridState:
    """One input state: a raw matrix to validate, or GHZ-Werner (n, nu)."""

    label: str
    n: int
    matrix: np.ndarray  # reference matrix, built by the benchmark
    nu: float | None = None  # set for GHZ-Werner: the library builds it
    grid: tuple[int, int] = SURFACE
    equal_angles: bool = True
    kinds: tuple = KINDS

    @property
    def scan_shape(self) -> tuple[int, ...]:
        """Shape of ``grid_scan(...).values``: the grid, once per qubit unless equal-angle."""
        return self.grid * (1 if self.equal_angles else self.n)

    def build(self) -> sw.DensityMatrix:
        if self.nu is not None:
            return sw.ghz_werner(sw.GhzWernerParams(nu=self.nu, n_qubits=self.n))
        return sw.validate_density(self.matrix, self.n)


@dataclass
class GridCells:
    """Seeded sample cells of one scan and their dense-trace references."""

    index: tuple[np.ndarray, ...]
    expected: np.ndarray


GRID_SAMPLES = 8


class RegisterGrid:
    name = "register_grid"
    why = (
        "contraction-heavy and channel-free: equal-angle scans of dense and "
        "X-sparse GHZ states at n=3..7, plus two small non-equal-angle scans"
    )

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        states = [
            GridState(f"ginibre{n}", n, ref.ginibre_density(n, rng)) for n in (3, 4, 5, 6)
        ]
        for n in (3, 4, 5, 6, 7):
            nu = float(rng.uniform(0.05, 0.95))
            states.append(GridState(f"ghz{n}", n, ref.ghz_werner_matrix(n, nu), nu=nu))
        states.append(
            GridState("ginibre2-split", 2, ref.ginibre_density(2, rng), grid=(13, 25),
                      equal_angles=False, kinds=(sw.DistributionKind.Q,))
        )
        states.append(
            GridState("ginibre3-split", 3, ref.ginibre_density(3, rng), grid=(7, 12),
                      equal_angles=False, kinds=(sw.DistributionKind.WIGNER,))
        )
        self.states = states
        self.cells = {
            (s.label, kind): self._sample_cells(s, kind, rng) for s in states for kind in s.kinds
        }
        self.values_per_pass = sum(
            (s.grid[0] * s.grid[1]) ** (1 if s.equal_angles else s.n) * len(s.kinds) for s in states
        )

    @staticmethod
    def _sample_cells(state: GridState, kind, rng) -> GridCells:
        thetas, phis = ref.sphere_grid(*state.grid)
        flat = rng.choice(math.prod(state.scan_shape), size=GRID_SAMPLES, replace=False)
        index = np.unravel_index(flat, state.scan_shape)
        expected = []
        for c in range(GRID_SAMPLES):
            # axes 2q and 2q+1 hold qubit q's theta and phi
            pts = [(thetas[index[2 * q][c]], phis[index[2 * q + 1][c]]) for q in range(len(index) // 2)]
            if state.equal_angles:
                pts = pts * state.n
            expected.append(ref.dense_value(state.matrix, kind, pts))
        return GridCells(index, np.array(expected))

    def run_pass(self, workdir: Path) -> PassResult:
        """Per state: build and validate it, then one op per kind, each a
        `grid_scan` plus `normalization_check`."""
        ops = []
        t0 = time.perf_counter()
        for state in self.states:
            try:
                rho = state.build()
            except Exception as exc:
                error = _failure(exc)
                ops.extend(
                    Op(f"{state.label}/{k.name}", math.nan, math.nan, error=error) for k in state.kinds
                )
                continue
            for kind in state.kinds:
                name = f"{state.label}/{kind.name}"
                t = time.perf_counter()
                try:
                    report = sw.grid_scan(rho, kind, *state.grid, equal_angles=state.equal_angles)
                    norm = sw.normalization_check(rho, kind)
                except Exception as exc:
                    ops.append(Op(name, t, time.perf_counter(), error=_failure(exc)))
                    continue
                done = time.perf_counter()
                cells = self.cells[(state.label, kind)]
                output = {
                    "shape": report.values.shape,
                    "min": report.min_value,
                    "norm": norm,
                    "cells": report.values[cells.index],
                }
                ops.append(Op(name, t, done, output))
        return PassResult(t0, time.perf_counter(), ops)

    def check(self, op: Op) -> list[str]:
        if op.error:
            return [f"{op.name}: {op.error}"]
        label, kind_name = op.name.split("/")
        kind = sw.DistributionKind[kind_name]
        state = next(s for s in self.states if s.label == label)
        out = op.output
        problems = []
        if tuple(out["shape"]) != state.scan_shape:
            return [f"{op.name}: values shape {out['shape']}, expected {state.scan_shape}"]
        if not abs(out["norm"] - 1.0) <= ref.NORMALIZATION_TOL:
            problems.append(f"{op.name}: normalization {out['norm']!r}")
        if kind is sw.DistributionKind.Q and not out["min"] >= ref.HUSIMI_FLOOR:
            problems.append(f"{op.name}: Husimi minimum {out['min']!r}")
        cells = self.cells[(label, kind)]
        bad = ~ref.array_close(out["cells"], cells.expected)
        if bad.any():
            problems.append(f"{op.name}: {int(bad.sum())} sampled cells off the dense trace")
        return problems


# -------------------------------------------------------- channel_sweep

SWEEP_QUBITS = (3, 4, 5, 6, 7)
SWEEP_R_STEPS = 20


class ChannelSweep:
    name = "channel_sweep"
    why = (
        "channel-dominated: GHZ-Werner at n=3..7, first k of n qubits "
        "accelerated for every k over 20 r values, one point value each"
    )

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.nus = {n: float(rng.uniform(0.05, 0.95)) for n in SWEEP_QUBITS}
        self.rs = [float(r) for r in np.linspace(0.0, ref.R_MAX, SWEEP_R_STEPS)]
        self.cases = [(n, k, r) for n in SWEEP_QUBITS for k in range(1, n + 1) for r in self.rs]
        self.values_per_pass = len(self.cases)

    def run_pass(self, workdir: Path) -> PassResult:
        """One op per (n, k, r): build the state, accelerate, evaluate."""
        probe = sw.SphericalPoint(*PROBE)
        ops = []
        t0 = time.perf_counter()
        for n, k, r in self.cases:
            name = f"n{n}/k{k}/r{r!r}"
            t = time.perf_counter()
            try:
                rho = sw.ghz_werner(sw.GhzWernerParams(nu=self.nus[n], n_qubits=n))
                rho = sw.accelerate(rho, sw.AccelerationConfig(r=r, accelerated=tuple(range(k))))
                value = sw.evaluate(rho, sw.DistributionKind.WIGNER, (probe,) * n).value
            except Exception as exc:
                ops.append(Op(name, t, time.perf_counter(), (n, k, r), _failure(exc)))
                continue
            ops.append(Op(name, t, time.perf_counter(), (n, k, r, value)))
        return PassResult(t0, time.perf_counter(), ops)

    def check(self, op: Op) -> list[str]:
        if op.error:
            return [f"{op.name}: {op.error}"]
        n, k, r, value = op.output
        expected = ref.point_law(n, self.nus[n], k, r)
        if not ref.array_close(value, expected):
            return [f"{op.name}: W={value!r}, point law gives {float(expected)!r}"]
        return []


WORKLOADS = {w.name: w for w in (Paper, RegisterGrid, ChannelSweep)}
