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
from typing import NamedTuple

import numpy as np

from ._memo import memo
from .errors import (
    DimensionError,
    IndexOutOfRange,
    MixingOutOfRange,
    ROutOfRange,
    SpinWignerError,
)
from .quasiprob import (
    ClosedFormVariant,
    _check_cells,
    _sweep,
    accelerated_ghz,
    compare_closed_form,
    evaluate,
    sphere_grid,
)
from .rindler import R_MAX, _accelerated_qubits, coefficient_report
from .su2kernel import DistributionKind, SphericalPoint

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_IO = 3

CSV_HEADER = "theta,phi,nu,r,k,s,W"
_CELL = "%.12g"
_CELL_BYTES = _CELL.encode()
# rows per piece of CSV text: one piece's text is held at a time
_CHUNK_ROWS = 4096
# 10^(11 - e) and 10^(4 + e) for the decimal exponents e = -4..0 that
# _format_cells writes itself; every one is an exact float
_MANTISSA_SCALES = np.array([1e15, 1e14, 1e13, 1e12, 1e11])
_DIGIT_SHIFTS = np.array([1e0, 1e1, 1e2, 1e3, 1e4])
# how close to a rounding tie, or to 10^11 or 10^12, the scaled value y of
# a cell may come before '%' formats it; y carries at most 2^-14 of error
_TIE_MARGIN = 1e-3
_WORD = np.dtype("<u4")
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


def _snap(value: float, lo: float, hi: float) -> float:
    """Snap values within a hair outside [lo, hi] onto it; the library refuses the rest."""
    if lo - _BOUNDARY_SLACK <= value < lo:
        return lo
    if hi < value <= hi + _BOUNDARY_SLACK:
        return hi
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


class _Sweep(NamedTuple):
    """One equal-angle sweep: ``values[i, j, a, b]`` at (nus[i], rs[j],
    thetas[a], phis[b]), with k accelerated qubits and distribution s.  A
    table is a list of sweeps: its rows run through the sweeps in turn,
    each in the C order of (nu, r, theta, phi)."""

    nus: np.ndarray
    rs: np.ndarray
    thetas: np.ndarray
    phis: np.ndarray
    k: int
    s: int
    values: np.ndarray


def _float_rows(table: list[_Sweep]) -> np.ndarray:
    """The table as (rows, 7) floats, in the CSV's column and row order."""
    rows = []
    for sweep in table:
        nu, r, theta, phi = np.ix_(sweep.nus, sweep.rs, sweep.thetas, sweep.phis)
        columns = np.broadcast_arrays(theta, phi, nu, r, sweep.k, sweep.s, sweep.values)
        rows.append(np.stack(columns, axis=-1).reshape(-1, 7))
    return np.concatenate(rows)


@memo
def _digit_words() -> np.ndarray:
    """The four ASCII digits of 0..9999 as little-endian words, then the
    same with trailing '0's as NUL (so 0 is four NULs): 20,000 words."""
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    kept = np.logical_or.accumulate(digits[:, ::-1] != ord("0"), axis=1)[:, ::-1]
    return np.concatenate([digits, digits * kept]).astype(np.uint8).view(_WORD).ravel()


def _fast_cells(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``%.12g`` of the cells of a 1-D float64 array that take the fast
    path, as ``S20`` (NUL-padded), and the mask of those cells.

    A finite, nonzero cell whose decimal exponent e = floor(log10 |v|) is
    in -4..0 takes it: y = |v| 10^(11 - e) takes one rounding, as the power
    is exact, so it is off by at most half an ulp, 2^-14, and unless y is
    within ``_TIE_MARGIN`` of a tie or of 10^11 or 10^12, ``rint(y)`` is
    the correctly rounded mantissa that '%' prints.  Its 16 digits of
    units and fraction, 10^(4 + e) rint(y), go through a table of 4-digit
    words whose trailing zeros, and a bare '.', become NUL; a row of six
    words [NUL, '-', units, '.'], four digit words and NUL is read from its
    second byte (negative) or its third.  A mantissa that rounds to 10^12
    carries into the next exponent, except at e = 0, where '%' prints
    "10".  The other cells' text is garbage.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = np.abs(v)
        e = np.floor(np.log10(a))  # -inf, NaN or inf for 0, NaN or inf
        fast = (e >= -4.0) & (e <= 0.0)
        i = np.where(fast, e + 4.0, 0.0).astype(np.intp)
        y = a * _MANTISSA_SCALES[i]
        m = np.rint(y)
        fast &= (np.abs(y - m) < 0.5 - _TIE_MARGIN) & (y > 1e11 + _TIE_MARGIN) & (y < 1e12 - _TIE_MARGIN)
        # exact: m 5^i < 2^53; a carry at e = 0 gives 10^16
        d = m * _DIGIT_SHIFTS[i]
        fast &= d < 1e16
        d = np.where(fast, d, 0.0).astype(np.int64)
    units = d // 10**15
    frac = (d - units * 10**15) * 10  # the 15 fraction digits and a 0
    groups = np.empty((4, v.size), np.int64)
    groups[0] = frac // 10**12
    low = frac - groups[0] * 10**12
    groups[1] = low // 10**8
    low -= groups[1] * 10**8
    groups[2] = low // 10**4
    groups[3] = low - groups[2] * 10**4
    zero = groups == 0
    # a group behind which every group is 0 loses its trailing zeros
    bare = np.empty_like(zero)
    bare[3] = True
    bare[2] = zero[3]
    np.logical_and(bare[2], zero[2], out=bare[1])
    np.logical_and(bare[1], zero[1], out=bare[0])
    groups += 10_000 * bare
    words = np.zeros((6, v.size), _WORD)
    words[1:5] = _digit_words()[groups]
    point = ~(bare[0] & zero[0])
    words[0] = (units.astype(_WORD) + ord("0")) << 16 | point.astype(_WORD) * (ord(".") << 24) | ord("-") << 8
    shift = np.where(np.signbit(v), _WORD.type(8), _WORD.type(16))
    text = np.empty((v.size, 5), _WORD)
    np.bitwise_or(words[:5] >> shift, words[1:] << (32 - shift), out=text.T)
    return text.view("S20").ravel(), fast


def _format_cells(values: np.ndarray) -> list[bytes]:
    """``b"%.12g" % v`` for every cell of a float64 array, in C order.

    The cells of :func:`_fast_cells` come from its array, whose ``tolist``
    drops the NULs at the end; zero, NaN, infinities, every exponent
    outside -4..0 and the cells near a tie or an edge take '%', one cell
    at a time.
    """
    v = values.ravel()
    text, fast = _fast_cells(v)
    cells = text.tolist()
    slow = np.flatnonzero(~fast)
    for j, value in zip(slow.tolist(), v[slow].tolist()):
        cells[j] = _CELL_BYTES % value
    return cells


def _csv_chunks(table: list[_Sweep]) -> Iterator[str]:
    """CSV text of a table: the header, then ``_CHUNK_ROWS`` rows per piece.

    Each axis value is formatted once.  For each (nu, r) the row tails
    ``phi,nu,r,k,s,%s`` are built once, and each theta line joins them
    behind ``theta,``.  A piece's row templates then take, in one ``%``,
    its W cells from :func:`_format_cells` (the piece's cells only, so
    only one piece's text and temporaries exist at a time): byte for byte
    ``%.12g`` of each cell.
    """
    yield CSV_HEADER + "\n"
    values = np.concatenate([sweep.values.ravel() for sweep in table])
    parts, room, done = [], _CHUNK_ROWS, 0
    for sweep in table:
        thetas = [_CELL_BYTES % v + b"," for v in sweep.thetas.tolist()]
        phis = [_CELL_BYTES % v + b"," for v in sweep.phis.tolist()]
        rs = [_CELL_BYTES % v + b"," for v in sweep.rs.tolist()]
        # every prefix cell is '%.12g' output, which never holds a '%', so
        # W's is the only conversion in a row template
        ksw = b"%s,%s,%%s\n" % (_CELL_BYTES % sweep.k, _CELL_BYTES % sweep.s)
        for nu in sweep.nus.tolist():
            nu = _CELL_BYTES % nu + b","
            for r in rs:
                tails = [phi + nu + r + ksw for phi in phis]
                for theta in thetas:
                    line = tails
                    while len(line) >= room:
                        parts.append(theta + theta.join(line[:room]))
                        line = line[room:]
                        cells = _format_cells(values[done:done + _CHUNK_ROWS])
                        yield (b"".join(parts) % tuple(cells)).decode("ascii")
                        parts, room, done = [], _CHUNK_ROWS, done + _CHUNK_ROWS
                    if line:
                        parts.append(theta + theta.join(line))
                        room -= len(line)
    if parts:
        yield (b"".join(parts) % tuple(_format_cells(values[done:]))).decode("ascii")


def _write_chunks(path: str | Path, chunks: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)


def _emit(args, chunks: Iterable[str]) -> None:
    if getattr(args, "output", None):
        _write_chunks(args.output, chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_rows(args, table: list[_Sweep], meta: dict) -> None:
    """A table as CSV, or as JSON samples (k and s as integers) under
    ``meta`` plus the column names."""
    if args.format == "csv":
        _emit(args, _csv_chunks(table))
    else:
        samples = []
        for theta, phi, nu, r, k, s, w in _float_rows(table).tolist():
            samples.append([theta, phi, nu, r, int(k), int(s), w])
        meta = {**meta, "columns": CSV_HEADER.split(",")}
        payload = {"meta": meta, "samples": samples}
        _emit(args, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])


def _sweep_table(nus, rs, accelerated, kind, thetas, phis) -> _Sweep:
    """The equal-angle values over nus x rs x thetas x phis, with the axes
    and the k and s of the CSV columns."""
    values = _sweep(nus, rs, accelerated, kind, thetas, phis, _N_QUBITS)
    k = len(_accelerated_qubits(accelerated, _N_QUBITS))
    axes = [np.asarray(axis, dtype=float) for axis in (nus, rs, thetas, phis)]
    return _Sweep(*axes, k, int(kind), values)


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
    table = [_sweep_table([args.nu], [args.r], accelerated, args.kind, thetas, phis)]
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


def _cmd_scan(args) -> int:
    """scan-r (r over [0, pi/4] at fixed nu) and scan-nu (nu over [0, 1] at fixed r)."""
    accelerated = _parse_accelerated(args.accelerated)
    if args.steps < 2:
        raise UsageError(f"{args.command.removeprefix('scan-')}-steps must be at least 2")
    _check_cells(args.steps, "{} of {} steps", args.command, args.steps)
    if args.command == "scan-r":
        if not accelerated:
            raise UsageError("scan-r needs at least one accelerated qubit")
        nus, rs = [args.nu], np.linspace(0.0, R_MAX, args.steps)
    else:
        nus, rs = np.linspace(0.0, 1.0, args.steps), [args.r]
    table = [_sweep_table(nus, rs, accelerated, args.kind, [args.theta], [args.phi])]
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
    """(filename, table builder) pairs for the canonical figure exports; a
    builder returns a list of :class:`_Sweep`."""
    thetas, phis = sphere_grid(SURFACE_THETA_STEPS, SURFACE_PHI_STEPS)
    nus = np.linspace(0.0, 1.0, MAP_STEPS)
    rs = np.linspace(0.0, R_MAX, MAP_STEPS)
    r_curve = np.linspace(0.0, R_MAX, R_CURVE_STEPS)
    curve_nus = (0.2, 0.5, 0.7, 1.0)  # the nu of fig5d, c, b and a
    probe_theta, probe_phi = [math.pi / 2.0], [math.pi]
    wigner = DistributionKind.WIGNER

    def surface(nu, r, k):
        return [_sweep_table([nu], [r], k, wigner, thetas, phis)]

    @functools.cache
    def r_sweeps():
        # one sweep per k for all four curves: 2 states per (k, r)
        return [_sweep_table(curve_nus, r_curve, k, wigner, probe_theta, probe_phi) for k in (1, 2, 3)]

    def r_curves(nu):
        i = curve_nus.index(nu)
        return [sweep._replace(nus=sweep.nus[i:i + 1], values=sweep.values[i:i + 1]) for sweep in r_sweeps()]

    specs = [
        ("fig1a.csv", lambda: surface(1.0, 0.0, 0)),
        ("fig1b.csv", lambda: surface(0.3, 0.0, 0)),
        ("fig1c.csv", lambda: [_sweep_table(nus, [0.0], 0, wigner, thetas, probe_phi)]),
        ("fig2a.csv", lambda: surface(1.0, 0.6, 1)),
        ("fig2b.csv", lambda: surface(0.3, 0.6, 1)),
        ("fig2c.csv", lambda: [_sweep_table(nus, rs, 1, wigner, probe_theta, probe_phi)]),
        ("fig3a.csv", lambda: surface(1.0, 0.6, 2)),
        ("fig3b.csv", lambda: surface(0.3, 0.6, 2)),
        ("fig3c.csv", lambda: [_sweep_table(nus, rs, 2, wigner, probe_theta, probe_phi)]),
        ("fig4a.csv", lambda: surface(1.0, 0.6, 3)),
        ("fig4b.csv", lambda: surface(0.3, 0.6, 3)),
        ("fig4c.csv", lambda: [_sweep_table(nus, rs, 3, wigner, probe_theta, probe_phi)]),
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
        allow_abbrev=False,
    )
    # no prefix matching: an option a subcommand lacks (scan-nu --nu) must
    # not bind to a longer one it has (--nu-steps)
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    def add_common(p, swept=None):
        """The state options of a value or table, less the swept one."""
        if swept != "nu":
            p.add_argument("--nu", type=float, required=True, help="GHZ weight in [0, 1]")
        if swept != "r":
            p.add_argument("--r", type=float, default=0.0, help="acceleration parameter in [0, pi/4]")
        p.add_argument(
            "--accelerated",
            default="0",
            help="count (1/2/3 = first k qubits) or comma-separated indices",
        )
        p.add_argument("--s", choices=("q", "w", "p"), default="w", help="distribution (default w)")

    p_eval = sub.add_parser("eval", help="print one distribution value")
    add_common(p_eval)
    p_eval.add_argument("--theta", type=float, required=True)
    p_eval.add_argument("--phi", type=float, required=True)
    p_eval.set_defaults(func=_cmd_eval)

    p_grid = sub.add_parser("grid", help="equal-angle grid over the sphere")
    add_common(p_grid)
    p_grid.add_argument("--theta-steps", type=int, default=SURFACE_THETA_STEPS)
    p_grid.add_argument("--phi-steps", type=int, default=SURFACE_PHI_STEPS)
    p_grid.add_argument("--format", choices=("csv", "json"), default="csv")
    p_grid.add_argument("-o", "--output", help="output file (stdout if omitted)")
    p_grid.set_defaults(func=_cmd_grid)

    for swept, default_steps in (("r", R_CURVE_STEPS), ("nu", MAP_STEPS)):
        p_scan = sub.add_parser(f"scan-{swept}", help=f"sweep {swept} at a fixed probe point")
        add_common(p_scan, swept)
        p_scan.add_argument("--theta", type=float, default=math.pi / 2.0)
        p_scan.add_argument("--phi", type=float, default=math.pi)
        p_scan.add_argument(f"--{swept}-steps", dest="steps", type=int, default=default_steps)
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
            args.nu = _snap(args.nu, 0.0, 1.0)
        if hasattr(args, "r"):
            args.r = _snap(args.r, 0.0, R_MAX)
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
