"""Command-line interface: point evaluation, grid exports, parameter
sweeps, closed-form verification, and figure-data generation.

All tabular output uses one schema (theta,phi,nu,r,k,s,W), 12
significant digits, LF newlines.  Exit codes: 0 success, 2 argument
error, 3 I/O error, 1 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .errors import (
    DimensionError,
    IndexOutOfRange,
    MixingOutOfRange,
    ROutOfRange,
    SpinWignerError,
)
from .quasiprob import (
    ClosedFormVariant,
    accelerated_ghz,
    compare_closed_form,
    evaluate,
    grid_values,
    probe_sweep,
    sphere_grid,
)
from .rindler import R_MAX, _accelerated_qubits, coefficient_report
from .su2kernel import DistributionKind, SphericalPoint

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_IO = 3

CSV_HEADER = "theta,phi,nu,r,k,s,W"
# k and s sit in the float table too: '%.12g' prints 3.0 as 3, as for an int
_CELL = "%.12g"
# rows per piece of CSV text: a piece holds 7 Python strings per row
_CHUNK_ROWS = 4096
_KIND_BY_LETTER = {
    "q": DistributionKind.Q,
    "w": DistributionKind.WIGNER,
    "p": DistributionKind.P,
}
_BOUNDARY_SLACK = 1e-6
# every command works on the library's default three-qubit register
_N_QUBITS = 3

SURFACE_THETA_STEPS = 91
SURFACE_PHI_STEPS = 181
MAP_STEPS = 51
R_CURVE_STEPS = 50


class UsageError(Exception):
    """Invalid argument values detected after parsing."""


def _clamp(value: float, lo: float, hi: float, name: str) -> float:
    """Snap values within a hair of the boundary onto it; reject the rest."""
    if lo - _BOUNDARY_SLACK <= value < lo:
        return lo
    if hi < value <= hi + _BOUNDARY_SLACK:
        return hi
    if not (lo <= value <= hi):
        raise UsageError(f"{name}={value} outside [{lo:g}, {hi:g}]")
    return value


def _parse_accelerated(text: str) -> int | tuple[int, ...]:
    """Count form ("2" means qubits 0,1) or explicit comma-separated indices.

    Only parses: the count and the index set are checked by the library
    when the state is built.
    """
    text = text.strip()
    try:
        if "," in text:
            return tuple(int(t) for t in text.split(",") if t.strip() != "")
        return int(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse --accelerated {text!r}") from exc


def _table(theta, phi, nu, r, k, kind, w) -> np.ndarray:
    """The seven columns broadcast against each other as one (rows, 7)
    float array, one row per element in row-major order."""
    return np.stack(np.broadcast_arrays(theta, phi, nu, r, k, kind, w), axis=-1).reshape(-1, 7)


def _csv_chunks(table: np.ndarray) -> Iterator[str]:
    """CSV text of a (rows, 7) table: the header, then ``_CHUNK_ROWS`` rows
    per piece.

    Each column is deduplicated on its float64 bit pattern (-0.0 and 0.0
    print as -0 and 0), so every distinct cell is formatted once; a piece
    then only gathers the formatted cells.  Only one piece's cells exist
    as Python strings at a time.
    """
    yield CSV_HEADER + "\n"
    columns = []
    for j, col in enumerate(table.T):
        bits, rows = np.unique(col.view(np.int64), return_inverse=True)
        end = "\n" if j == table.shape[1] - 1 else ","
        cells = [_CELL % v + end for v in bits.view(np.float64).tolist()]
        columns.append((np.array(cells, dtype=object), rows))
    for start in range(0, len(table), _CHUNK_ROWS):
        piece = np.stack([cells[rows[start:start + _CHUNK_ROWS]] for cells, rows in columns], axis=1)
        yield "".join(piece.ravel().tolist())


def _csv_text(table: np.ndarray) -> str:
    return "".join(_csv_chunks(table))


def _write_chunks(path: str | Path, chunks: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)


def _emit(args, chunks: Iterable[str]) -> None:
    if getattr(args, "output", None):
        _write_chunks(args.output, chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_rows(args, table: np.ndarray, meta: dict) -> None:
    """A table as CSV, or as JSON samples (k and s as integers) under
    ``meta`` plus the column names."""
    if args.format == "csv":
        _emit(args, _csv_chunks(table))
    else:
        samples = []
        for row in table:
            theta, phi, nu, r, k, s, w = row.tolist()
            samples.append([theta, phi, nu, r, int(k), int(s), w])
        meta = {**meta, "columns": CSV_HEADER.split(",")}
        payload = {"meta": meta, "samples": samples}
        _emit(args, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])


def _grid_table(nu, r, accelerated, kind, thetas, phis) -> np.ndarray:
    """Equal-angle surface over thetas x phis (theta-major)."""
    values = grid_values(accelerated_ghz(nu, accelerated, r), kind, thetas, phis)
    k = len(_accelerated_qubits(accelerated, _N_QUBITS))
    return _table(thetas[:, None], phis, nu, r, k, kind, values)


def _cmd_eval(args) -> int:
    accelerated = _parse_accelerated(args.accelerated)
    point = SphericalPoint(args.theta, args.phi)
    rho = accelerated_ghz(args.nu, accelerated, args.r)
    sample = evaluate(rho, args.kind, (point,) * rho.n_qubits)
    sys.stdout.write(_CELL % sample.value + "\n")
    return EXIT_OK


def _cmd_grid(args) -> int:
    accelerated = _parse_accelerated(args.accelerated)
    thetas, phis = sphere_grid(args.theta_steps, args.phi_steps)
    table = _grid_table(args.nu, args.r, accelerated, args.kind, thetas, phis)
    indices = _accelerated_qubits(accelerated, _N_QUBITS)
    meta = {
        "command": "grid",
        "nu": args.nu,
        "r": args.r,
        "accelerated": list(indices),
        "k": len(indices),
        "s": int(args.kind),
        "theta_steps": args.theta_steps,
        "phi_steps": args.phi_steps,
    }
    _emit_rows(args, table, meta)
    return EXIT_OK


def _probe_table(nus, rs, accelerated, kind, theta, phi) -> np.ndarray:
    """Point values over nus x rs (nu-major), every qubit at (theta, phi)."""
    values = probe_sweep(nus, rs, accelerated, kind, SphericalPoint(theta, phi))
    nu_col = np.asarray(nus, dtype=float)[:, None]
    k = len(_accelerated_qubits(accelerated, _N_QUBITS))
    return _table(theta, phi, nu_col, rs, k, kind, values)


def _cmd_scan(args) -> int:
    """scan-r (r over [0, pi/4] at fixed nu) and scan-nu (nu over [0, 1] at fixed r)."""
    accelerated = _parse_accelerated(args.accelerated)
    if args.command == "scan-r":
        if not accelerated:
            raise UsageError("scan-r needs at least one accelerated qubit")
        if args.r_steps < 2:
            raise UsageError("r-steps must be at least 2")
        nus, rs = [args.nu], np.linspace(0.0, R_MAX, args.r_steps)
    else:
        if args.nu_steps < 2:
            raise UsageError("nu-steps must be at least 2")
        nus, rs = np.linspace(0.0, 1.0, args.nu_steps), [args.r]
    table = _probe_table(nus, rs, accelerated, args.kind, args.theta, args.phi)
    _emit_rows(args, table, {"command": args.command})
    return EXIT_OK


_VERIFY_VARIANT_CASES = [
    (ClosedFormVariant.GHZ, 0.0, 0.0),
    (ClosedFormVariant.GHZ, 0.3, 0.0),
    (ClosedFormVariant.GHZ, 1.0, 0.0),
    (ClosedFormVariant.ACC1, 0.0, 0.0),
    (ClosedFormVariant.ACC1, 0.3, 0.3),
    (ClosedFormVariant.ACC1, 0.7, 0.6),
    (ClosedFormVariant.ACC1, 1.0, R_MAX),
    (ClosedFormVariant.ACC2, 1.0, 0.0),
    (ClosedFormVariant.ACC2, 0.3, 0.6),
    (ClosedFormVariant.ACC2, 1.0, 0.6),
    (ClosedFormVariant.ACC3, 1.0, 0.0),
    (ClosedFormVariant.ACC3, 0.3, 0.6),
    (ClosedFormVariant.ACC3, 1.0, 0.6),
]

_VERIFY_COEFFICIENT_CASES = [
    (variant, nu, r)
    for variant in ("A", "B", "C")
    for (nu, r) in ((0.3, 0.6), (1.0, 0.6), (1.0, 0.0))
]


def _cmd_verify(args) -> int:
    variants = []
    for variant, nu, r in _VERIFY_VARIANT_CASES:
        comparison = compare_closed_form(variant, nu, r, args.theta_steps, args.phi_steps)
        variants.append(
            {
                "tag": variant.value,
                "nu": nu,
                "r": r,
                "max_abs_diff": comparison.max_abs_diff,
                "argmax": {
                    "theta": comparison.argmax.theta,
                    "phi": comparison.argmax.phi,
                },
                "status": comparison.status,
            }
        )
    coefficients = []
    for variant, nu, r in _VERIFY_COEFFICIENT_CASES:
        report = coefficient_report(variant, nu, r)
        coefficients.append(
            {
                "variant": variant,
                "nu": nu,
                "r": r,
                "max_abs_diff": report.max_abs_diff,
                "printed_trace": report.printed_diagonal_sum,
                "status": report.status,
            }
        )
    payload = {"variants": variants, "coefficients": coefficients}
    _emit(args, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])
    return EXIT_OK


def _figure_specs():
    """(filename, table builder) pairs for the canonical figure exports."""
    thetas, phis = sphere_grid(SURFACE_THETA_STEPS, SURFACE_PHI_STEPS)
    nus = np.linspace(0.0, 1.0, MAP_STEPS)
    rs = np.linspace(0.0, R_MAX, MAP_STEPS)
    r_curve = np.linspace(0.0, R_MAX, R_CURVE_STEPS)
    curve_nus = (0.2, 0.5, 0.7, 1.0)  # the nu of fig5d, c, b and a
    probe_theta, probe_phi = math.pi / 2.0, math.pi
    wigner = DistributionKind.WIGNER

    def surface(nu, r, k):
        return _grid_table(nu, r, k, wigner, thetas, phis)

    def nu_theta_map():
        # W is affine in nu: interpolate the theta column between the nu = 0
        # and nu = 1 states, in the form probe_sweep uses
        w_0, w_1 = (
            grid_values(accelerated_ghz(nu, 0, 0.0), wigner, thetas, np.array([probe_phi]))[:, 0]
            for nu in (0.0, 1.0)
        )
        nu_col = nus[:, None]
        values = (1.0 - nu_col) * w_0 + nu_col * w_1
        return _table(thetas, probe_phi, nu_col, 0.0, 0, wigner, values)

    def nu_r_map(k):
        return _probe_table(nus, rs, k, wigner, probe_theta, probe_phi)

    @functools.cache
    def r_sweeps():
        # one sweep per k for all four curves: 2 states per (k, r)
        point = SphericalPoint(probe_theta, probe_phi)
        return {k: probe_sweep(curve_nus, r_curve, k, wigner, point) for k in (1, 2, 3)}

    def r_curves(nu):
        i = curve_nus.index(nu)
        return np.concatenate(
            [_table(probe_theta, probe_phi, nu, r_curve, k, wigner, w[i]) for k, w in r_sweeps().items()]
        )

    specs = [
        ("fig1a.csv", lambda: surface(1.0, 0.0, 0)),
        ("fig1b.csv", lambda: surface(0.3, 0.0, 0)),
        ("fig1c.csv", nu_theta_map),
        ("fig2a.csv", lambda: surface(1.0, 0.6, 1)),
        ("fig2b.csv", lambda: surface(0.3, 0.6, 1)),
        ("fig2c.csv", lambda: nu_r_map(1)),
        ("fig3a.csv", lambda: surface(1.0, 0.6, 2)),
        ("fig3b.csv", lambda: surface(0.3, 0.6, 2)),
        ("fig3c.csv", lambda: nu_r_map(2)),
        ("fig4a.csv", lambda: surface(1.0, 0.6, 3)),
        ("fig4b.csv", lambda: surface(0.3, 0.6, 3)),
        ("fig4c.csv", lambda: nu_r_map(3)),
        ("fig5a.csv", lambda: r_curves(1.0)),
        ("fig5b.csv", lambda: r_curves(0.7)),
        ("fig5c.csv", lambda: r_curves(0.5)),
        ("fig5d.csv", lambda: r_curves(0.2)),
    ]
    return specs


def _cmd_figures(args) -> int:
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, build in _figure_specs():
        path = out_dir / name
        _write_chunks(path, _csv_chunks(build()))
        sys.stdout.write(f"wrote {path}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinwigner",
        description="Quasi-probability distributions of three-qubit GHZ-Werner "
        "states on the SU(2) sphere, with acceleration-induced decoherence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, point_defaults=(None, None)):
        p.add_argument("--nu", type=float, required=True, help="GHZ weight in [0, 1]")
        p.add_argument("--r", type=float, default=0.0, help="acceleration parameter in [0, pi/4]")
        p.add_argument(
            "--accelerated",
            default="0",
            help="count (1/2/3 = first k qubits) or comma-separated indices",
        )
        p.add_argument("--s", choices=("q", "w", "p"), default="w", help="distribution (default w)")
        theta_default, phi_default = point_defaults
        p.add_argument("--theta", type=float, default=theta_default, required=theta_default is None)
        p.add_argument("--phi", type=float, default=phi_default, required=phi_default is None)

    p_eval = sub.add_parser("eval", help="print one distribution value")
    add_common(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_grid = sub.add_parser("grid", help="equal-angle grid over the sphere")
    add_common(p_grid, point_defaults=(0.0, 0.0))
    p_grid.add_argument("--theta-steps", type=int, default=SURFACE_THETA_STEPS)
    p_grid.add_argument("--phi-steps", type=int, default=SURFACE_PHI_STEPS)
    p_grid.add_argument("--format", choices=("csv", "json"), default="csv")
    p_grid.add_argument("-o", "--output", help="output file (stdout if omitted)")
    p_grid.set_defaults(func=_cmd_grid)

    for swept, default_steps in (("r", R_CURVE_STEPS), ("nu", MAP_STEPS)):
        p_scan = sub.add_parser(f"scan-{swept}", help=f"sweep {swept} at a fixed probe point")
        add_common(p_scan, point_defaults=(math.pi / 2.0, math.pi))
        p_scan.add_argument(f"--{swept}-steps", type=int, default=default_steps)
        p_scan.add_argument("--format", choices=("csv", "json"), default="csv")
        p_scan.add_argument("-o", "--output")
        p_scan.set_defaults(func=_cmd_scan)

    p_verify = sub.add_parser(
        "verify", help="compare closed forms and coefficient tables to the numeric pipeline"
    )
    p_verify.add_argument("--theta-steps", type=int, default=50)
    p_verify.add_argument("--phi-steps", type=int, default=50)
    p_verify.add_argument("-o", "--output")
    p_verify.set_defaults(func=_cmd_verify)

    p_fig = sub.add_parser("figures", help="emit the canonical figure-data CSV files")
    p_fig.add_argument("--output-dir", default="figures")
    p_fig.set_defaults(func=_cmd_figures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "nu"):
            args.nu = _clamp(args.nu, 0.0, 1.0, "nu")
        if hasattr(args, "r"):
            args.r = _clamp(args.r, 0.0, R_MAX, "r")
        if hasattr(args, "s"):
            args.kind = _KIND_BY_LETTER[args.s]
        return args.func(args)
    except (UsageError, ValueError, MixingOutOfRange, ROutOfRange, IndexOutOfRange, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SpinWignerError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
