"""Command-line interface: output formats, exit codes, determinism."""

import itertools
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwigner import (
    R_MAX,
    AccelerationConfig,
    GhzWernerParams,
    MixingOutOfRange,
    ROutOfRange,
    cli,
    sphere_grid,
)
from spinwigner.cli import CSV_HEADER, main

from conftest import assert_same_bytes

SQRT3 = math.sqrt(3.0)


class TestSameBytes:
    """The whole-file comparison of the tests below: exact, and quick to fail."""

    BLOB = b"".join(b"%d,0.5\n" % i for i in range(200_000))

    def test_equal_bytes_pass(self):
        assert_same_bytes(self.BLOB, bytes(self.BLOB), "blob")

    @pytest.mark.parametrize(
        "got, message",
        [
            (BLOB.replace(b"3,0.5", b"3,0.4", 1), r"line 4: b'3,0\.4', want b'3,0\.5'"),
            (BLOB.replace(b"\n", b"\r\n", 1), r"line 1: b'0,0\.5\\r', want b'0,0\.5'"),
            (BLOB + b"x", r"line 200001: b'x', want b''"),
            (BLOB[:-1], r"line 200001: <end of file>, want b''"),
        ],
        ids=["changed", "carriage_return", "longer", "shorter"],
    )
    def test_names_the_first_differing_line(self, got, message):
        with pytest.raises(pytest.fail.Exception, match=message):
            assert_same_bytes(got, self.BLOB, "blob")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip("\n").split("\n")
    assert lines[0] == CSV_HEADER
    return [[float(tok) for tok in line.split(",")] for line in lines[1:]]


class TestEval:
    def test_deepest_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--nu", "1", "--theta", "1.5707963", "--phi", "3.1415927", "--s", "w"
        )
        assert code == 0
        assert out.strip() == "-0.524519052838"

    def test_fully_mixed(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--nu", "0", "--theta", "0.3", "--phi", "1.1", "--s", "w")
        assert code == 0
        assert out.strip() == "0.125"

    def test_accelerated_pole(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--nu", "1", "--r", "0.7853982", "--accelerated", "1",
            "--theta", "0", "--phi", "0", "--s", "w",
        )
        assert code == 0
        assert out.strip() == "1.30801270189"

    def test_husimi_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--nu", "0", "--theta", "0.4", "--phi", "0.0", "--s", "q"
        )
        assert code == 0
        assert float(out) == pytest.approx(0.125)

    def test_explicit_index_list(self, capsys):
        code_list, out_list, _ = run_cli(
            capsys,
            "eval", "--nu", "0.8", "--r", "0.5", "--accelerated", "1,2",
            "--theta", "1.0", "--phi", "2.0", "--s", "w",
        )
        code_count, out_count, _ = run_cli(
            capsys,
            "eval", "--nu", "0.8", "--r", "0.5", "--accelerated", "2",
            "--theta", "1.0", "--phi", "2.0", "--s", "w",
        )
        assert code_list == code_count == 0
        # accelerating {1,2} versus {0,1} gives the same value at equal angles
        assert out_list == out_count

    def test_nu_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--nu", "1.5", "--theta", "0", "--phi", "0")
        assert code == 2
        assert "nu" in err

    def test_r_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--nu", "0.5", "--r", "0.9", "--theta", "0", "--phi", "0"
        )
        assert code == 2

    def test_non_finite_angle(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--nu", "0.5", "--theta", "nan", "--phi", "0")
        assert code == 2

    def test_bad_accelerated_value(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--nu", "0.5", "--accelerated", "5", "--theta", "0", "--phi", "0"
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["eval", "scan-r"])
    @pytest.mark.parametrize("accelerated", ["-1", "4", "1,1", "0,3", "a"])
    def test_rejected_accelerated_sets_exit_2(self, capsys, command, accelerated):
        # a negative count must not read as "no qubit accelerated"
        code, out, err = run_cli(
            capsys, command, "--nu", "0.5", f"--accelerated={accelerated}", "--theta", "0", "--phi", "0"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_duplicate_accelerated_indices(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--nu", "0.5", "--accelerated", "1,1", "--theta", "0", "--phi", "0"
        )
        assert code == 2


class TestGrid:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run_cli(capsys, "grid", "--nu", "1", "--theta-steps", "91", "--phi-steps", "181")
        assert code == 0
        lines = out.strip("\n").split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 91 * 181

    def test_theta_major_order_and_columns(self, capsys):
        code, out, _ = run_cli(capsys, "grid", "--nu", "0.5", "--theta-steps", "3", "--phi-steps", "4")
        rows = parse_csv(out)
        assert len(rows) == 12
        thetas = [row[0] for row in rows]
        assert thetas == sorted(thetas)
        # columns: theta, phi, nu, r, k, s, W
        assert rows[0][2:6] == [0.5, 0.0, 0.0, 0.0]
        first_block_phis = [row[1] for row in rows[:4]]
        assert first_block_phis == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_empty_grid_exits_2_without_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, _, err = run_cli(
            capsys,
            "grid", "--nu", "1", "--theta-steps", "1", "--phi-steps", "4", "-o", str(target),
        )
        assert code == 2
        assert not target.exists()

    def test_write_roundtrip_idempotent(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            capsys,
            "grid", "--nu", "0.7", "--r", "0.4", "--accelerated", "1",
            "--theta-steps", "7", "--phi-steps", "9", "-o", str(target),
        )
        assert code == 0
        text = target.read_text(encoding="utf-8")
        assert text.endswith("\n") and "\r" not in text
        reformatted = [CSV_HEADER]
        for row in parse_csv(text):
            reformatted.append(",".join(f"{v:.12g}" for v in row))
        assert "\n".join(reformatted) + "\n" == text

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code, _, _ = run_cli(
                capsys,
                "grid", "--nu", "0.3", "--r", "0.2", "--accelerated", "2",
                "--theta-steps", "11", "--phi-steps", "13", "-o", str(target),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "grid", "--nu", "0.5", "--theta-steps", "3", "--phi-steps", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["columns"] == CSV_HEADER.split(",")
        assert payload["meta"]["theta_steps"] == 3
        assert len(payload["samples"]) == 9
        assert all(len(row) == 7 for row in payload["samples"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["grid", "--nu", "1", "--theta-steps", "1000000", "--phi-steps", "1000000"],
             "a 1000000 x 1000000 sphere grid needs 1,000,000,000,000 cells"),
            (["scan-r", "--nu", "1", "--accelerated", "1", "--r-steps", str(10**12)],
             "scan-r of 1000000000000 steps needs 1,000,000,000,000 cells"),
            (["scan-nu", "--nu-steps", "4000001"], "scan-nu of 4000001 steps needs 4,000,001 cells"),
            (["verify", "--theta-steps", "100000", "--phi-steps", "100000"],
             "a 100000 x 100000 sphere grid needs 10,000,000,000 cells"),
        ],
        ids=["grid", "scan-r", "scan-nu", "verify"],
    )
    def test_oversized_table_exits_2_before_allocating(self, capsys, tmp_path, argv, message):
        target = tmp_path / "out"
        code, out, err = run_cli(capsys, *argv, "-o", str(target))
        assert (code, out, target.exists()) == (2, "", False)
        assert err == f"error: {message}, more than the 4,000,000 allowed\n"

    def test_unwritable_path_exits_3(self, capsys, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        code, _, err = run_cli(
            capsys, "grid", "--nu", "1", "--theta-steps", "3", "--phi-steps", "3", "-o", str(missing)
        )
        assert code == 3


class TestScanCommands:
    def test_scan_r_row_count_and_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan-r", "--nu", "1", "--accelerated", "1", "--r-steps", "6"
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 6
        assert rows[0][3] == 0.0
        assert rows[-1][3] == pytest.approx(math.pi / 4)
        for row in rows:
            r, w = row[3], row[6]
            assert w == pytest.approx((1 - 3 * SQRT3 * math.cos(r)) / 8, abs=1e-12)

    def test_scan_r_needs_accelerated_qubits(self, capsys):
        code, _, err = run_cli(capsys, "scan-r", "--nu", "1", "--accelerated", "0")
        assert code == 2

    def test_scan_nu_endpoints(self, capsys):
        code, out, _ = run_cli(capsys, "scan-nu", "--nu-steps", "5")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 5
        assert rows[0][2] == 0.0 and rows[-1][2] == 1.0
        assert rows[0][6] == pytest.approx(0.125)
        assert rows[-1][6] == pytest.approx((1 - 3 * SQRT3) / 8, abs=1e-12)

    @pytest.mark.parametrize("angle", [["--theta", "nan"], ["--phi", "inf"]], ids=["theta-nan", "phi-inf"])
    @pytest.mark.parametrize(
        "argv", [["scan-r", "--nu", "0.5", "--accelerated", "1"], ["scan-nu", "--r", "0.5"]], ids=["scan-r", "scan-nu"]
    )
    def test_non_finite_angle_exits_2(self, capsys, argv, angle):
        code, out, err = run_cli(capsys, *argv, *angle)
        assert code == 2
        assert out == ""
        assert err == "error: theta and phi must be finite\n"


# options the subcommand does not read, each a prefix of one it does, and
# an abbreviation of an option it reads; the refused pair comes last
REFUSED_OPTIONS = {
    "grid --theta": ["grid", "--nu", "1", "--theta", "3"],
    "grid --phi": ["grid", "--nu", "1", "--phi", "3"],
    "scan-r --r": ["scan-r", "--nu", "1", "--accelerated", "1", "--r", "5"],
    "scan-nu --nu": ["scan-nu", "--nu", "5"],
    "eval --acc": ["eval", "--nu", "1", "--theta", "0", "--phi", "0", "--acc", "1"],
}


class TestOptions:
    @pytest.mark.parametrize("argv", REFUSED_OPTIONS.values(), ids=REFUSED_OPTIONS.keys())
    def test_unread_or_abbreviated_option_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err

    @pytest.mark.parametrize("nu", ["-0.1", "1.5", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [["eval", "--theta", "0", "--phi", "0"], ["grid"], ["scan-r", "--accelerated", "1"]],
        ids=["eval", "grid", "scan-r"],
    )
    def test_nu_error_is_the_library_message(self, capsys, argv, nu):
        with pytest.raises(MixingOutOfRange) as expected:
            GhzWernerParams(nu=float(nu))
        assert run_cli(capsys, *argv, f"--nu={nu}") == (2, "", f"error: {expected.value}\n")

    @pytest.mark.parametrize("r", ["2", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [["eval", "--nu", "0.5", "--theta", "0", "--phi", "0"], ["grid", "--nu", "0.5"], ["scan-nu"]],
        ids=["eval", "grid", "scan-nu"],
    )
    def test_r_error_is_the_library_message(self, capsys, argv, r):
        with pytest.raises(ROutOfRange) as expected:
            AccelerationConfig(r=float(r))
        assert run_cli(capsys, *argv, f"--r={r}") == (2, "", f"error: {expected.value}\n")

    @pytest.mark.parametrize(
        "option, edge, outside",
        [("--r", R_MAX, R_MAX + 1e-7), ("--nu", 1.0, 1.0 + 1e-7), ("--nu", 0.0, -1e-7)],
    )
    def test_value_within_the_slack_snaps_onto_the_edge(self, capsys, option, edge, outside):
        def output(value):
            values = {"--nu": 0.5, "--r": 0.3, option: value}
            others = ["--accelerated", "2", "--theta", "0.7", "--phi", "0.2"]
            return run_cli(capsys, "eval", *others, *(f"{name}={v!r}" for name, v in values.items()))

        at_edge = output(edge)
        assert at_edge[0] == 0 and at_edge[1] != ""
        assert output(outside) == at_edge


GRID_THETAS, GRID_PHIS = sphere_grid(5, 7)
# argv of each table command, with the theta and phi columns it must write
TABLE_COMMANDS = {
    "grid": (
        ["grid", "--nu", "0.3", "--r", "0.6", "--accelerated", "0,2", "--s", "p",
         "--theta-steps", "5", "--phi-steps", "7"],
        np.repeat(GRID_THETAS, 7).tolist(),
        np.tile(GRID_PHIS, 5).tolist(),
    ),
    "scan-r": (
        ["scan-r", "--nu", "0.4", "--accelerated", "2", "--s", "q", "--r-steps", "6",
         "--theta", "0.3", "--phi", "1.2"],
        [0.3] * 6,
        [1.2] * 6,
    ),
    "scan-nu": (
        ["scan-nu", "--r", "0.5", "--accelerated", "3", "--nu-steps", "5"],
        [math.pi / 2] * 5,
        [math.pi] * 5,
    ),
}


class TestTableFormat:
    @pytest.mark.parametrize("command", sorted(TABLE_COMMANDS))
    def test_csv_is_the_json_table_at_12_digits(self, capsys, command):
        argv, thetas, phis = TABLE_COMMANDS[command]
        code_csv, csv_text, _ = run_cli(capsys, *argv)
        code_json, json_text, _ = run_cli(capsys, *argv, "--format", "json")
        assert code_csv == code_json == 0
        samples = json.loads(json_text)["samples"]
        lines = csv_text.strip("\n").split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(samples)
        for line, sample in zip(lines[1:], samples):
            assert [type(v) for v in sample] == [float] * 4 + [int, int, float]
            assert line.split(",") == [format(v, ".12g") for v in sample]
        assert [row[0] for row in samples] == thetas
        assert [row[1] for row in samples] == phis


CHUNK_ROWS = cli._CHUNK_ROWS
# cells whose bit patterns differ but values compare equal or unordered,
# the extremes of the range, and a subnormal; then an exact tie at the 12th
# digit (4097 / 2^12), the double nearest to one, cells whose 12-digit
# rounding carries into the next digit or exponent, the smallest exponent
# of the fast path of _format_cells and the one below it
SPECIAL_CELLS = (
    -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300,
    1.000244140625, 0.1234567890125, 9.9999999999995, -0.99999999999995, 9.9999999999995e-5, 1e-4, -1e-5,
)


def reference_csv(table):
    """The table at '%.12g', one row at a time."""
    lines = [CSV_HEADER] + [",".join("%.12g" % v for v in row) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def loop_rows(table):
    """The (rows, 7) floats of a list of sweeps, one row per loop step."""
    rows = [
        [theta, phi, nu, r, sweep.k, sweep.s, sweep.values[i, j, a, b]]
        for sweep in table
        for (i, nu), (j, r), (a, theta), (b, phi) in itertools.product(
            *map(enumerate, (sweep.nus, sweep.rs, sweep.thetas, sweep.phis)))
    ]
    return np.array(rows, dtype=float).reshape(-1, 7)


def random_shape(size, rng):
    """A random (nu, r, theta, phi) shape holding ``size`` values."""
    if size == 0:
        shape = rng.integers(0, 4, size=4)
        shape[rng.integers(4)] = 0
        return shape.tolist()
    shape = []
    for _ in range(3):
        shape.append(int(rng.choice([d for d in range(1, size + 1) if size % d == 0])))
        size //= shape[-1]
    return shape + [size]


class TestCsvWriter:
    @settings(max_examples=30, deadline=None)
    @given(
        pool=st.lists(st.one_of(st.sampled_from(SPECIAL_CELLS), st.floats()), min_size=1, max_size=6),
        rows=st.sampled_from([0, 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 17]),
        sweeps=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_few_distinct_cells_match_the_per_row_reference(self, pool, rows, sweeps, seed):
        pool = np.array([-0.0, 0.0] + pool)  # equal values with different bit patterns on every axis
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.integers(0, rows + 1, size=sweeps - 1))
        table = []
        for size in np.diff([0, *cuts, rows]).tolist():
            shape = random_shape(size, rng)
            axes = [rng.choice(pool, n) for n in shape]
            table.append(cli._Sweep(*axes, int(rng.integers(4)), int(rng.integers(-1, 2)), rng.choice(pool, shape)))
        want = loop_rows(table)
        assert np.array_equal(cli._float_rows(table).view(np.int64), want.view(np.int64))
        chunks = list(cli._csv_chunks(table))
        assert len(chunks) == 1 + math.ceil(rows / CHUNK_ROWS)
        # lines, not one string: pytest's diff of two long texts takes minutes
        assert "".join(chunks).split("\n") == reference_csv(want).split("\n")

    def test_signed_zeros_stay_apart(self):
        zeros = np.array([-0.0, 0.0])
        values = np.array([[-0.0, 0.0], [0.0, -0.0]]).reshape(1, 1, 2, 2)
        table = [cli._Sweep(zeros[:1], zeros[1:], zeros, zeros[::-1], 0, 0, values)]
        rows = ["-0,0,-0,0,0,0,-0", "-0,-0,-0,0,0,0,0", "0,0,-0,0,0,0,0", "0,-0,-0,0,0,0,-0"]
        assert "".join(cli._csv_chunks(table)) == "\n".join([CSV_HEADER] + rows) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            # the default 91 x 181 grid spans five CSV pieces
            ["grid", "--nu", "0.3", "--r", "0.6", "--accelerated", "2"],
            ["scan-r", "--nu", "0.4", "--accelerated", "1,2", "--r-steps", "40"],
        ],
        ids=["grid", "scan-r"],
    )
    def test_stdout_equals_output_file(self, capsys, tmp_path, argv, fmt):
        target = tmp_path / "table.out"
        code_out, out, _ = run_cli(capsys, *argv, "--format", fmt)
        code_file, printed, _ = run_cli(capsys, *argv, "--format", fmt, "-o", str(target))
        assert code_out == code_file == 0 and printed == ""
        assert_same_bytes(target.read_bytes(), out.encode("utf-8"), str(target))


def exact_ties():
    """The doubles q / 2^(12 - e), for every 7th odd q, of decimal exponent
    e = -4..0: 13 significant digits ending in 5, an exact tie at the 12th."""
    ties = []
    for e in range(-4, 1):
        j = 12 - e
        q = np.arange(math.ceil(10.0**e * 2**j) | 1, 10 ** (e + 1) * 2**j, 14)
        ties.append(np.ldexp(q.astype(float), -j))
    return np.concatenate(ties)


def fuzz_cells(seed, size=20_000):
    """Seeded cells for _format_cells: random bit patterns, uniform in
    (-10, 10), those rounded to 0..12 decimals, exact ties of both signs,
    the doubles nearest to 12th-digit ties at exponents -5..0, a scale
    sweep over exponents -7..1, a few ulps either side of 10^k, carries,
    subnormals, signed zeros, NaN and infinities."""
    rng = np.random.default_rng(seed)
    uniform = rng.uniform(-10.0, 10.0, size)
    decimals = rng.integers(0, 13, size)
    mantissas = rng.integers(10**11, 10**12, size) * 10 + 5
    exponents = rng.integers(12, 18, size)
    powers = np.array([float(f"1e{k}") for k in range(-7, 4)])
    steps = np.arange(-3, 4)[:, None]
    near_powers = powers + steps * np.spacing(powers)
    carries = np.array([9.9999999999995, 0.99999999999995, 9.9999999999995e-5, 9.99999999999949, 0.999999999999949])
    subnormals = rng.integers(1, 2**52, 200, dtype=np.uint64).view(float)
    ties = exact_ties()
    cells = np.concatenate([
        rng.integers(0, 2**64, size, dtype=np.uint64).view(float),
        uniform,
        np.array([round(x, int(d)) for x, d in zip(rng.uniform(-10.0, 10.0, size).tolist(), decimals)]),
        ties * rng.choice([-1.0, 1.0], ties.size),
        np.array([float(f"{m}e-{k}") for m, k in zip(mantissas.tolist(), exponents.tolist())]),
        rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.integers(-6, 3, size),
        near_powers.ravel(), -near_powers.ravel(),
        carries, -carries, subnormals, -subnormals,
        [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308],
    ])
    return cells[rng.permutation(cells.size)]


def format_loop(cells):
    """The reference: ``b"%.12g" % v`` one cell at a time."""
    return [b"%.12g" % v for v in cells.tolist()]


class TestFormatCells:
    """cli._format_cells, the W cells of the CSV writer, bitwise against '%'."""

    def test_every_figure_cell(self):
        cells = np.concatenate([
            sweep.values.ravel() for _, build in cli._figure_specs() for sweep in build()
        ])
        assert cells.size == 144_812
        assert cli._format_cells(cells) == format_loop(cells)
        # the fast path writes all but 348: 19 below 1e-4, 329 near a tie or an edge
        _, fast = cli._fast_cells(cells)
        assert np.count_nonzero(~fast) == 348

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fuzz(self, seed):
        cells = fuzz_cells(seed)
        want = format_loop(cells)
        assert cli._format_cells(cells) == want
        # and the fast path alone, wherever it claims a cell
        text, fast = cli._fast_cells(cells)
        assert fast.any() and not fast.all()
        for got, reference, claimed in zip(text.tolist(), want, fast.tolist()):
            if claimed:
                assert got == reference

    def test_exact_ties_round_half_even(self):
        ties = exact_ties()
        assert ties.size > 1000
        assert cli._format_cells(ties) == format_loop(ties)
        assert cli._format_cells(np.array([1.000244140625, 1.000732421875])) == [b"1.00024414062", b"1.00073242188"]
        assert not cli._fast_cells(ties)[1].any()

    @pytest.mark.parametrize(
        "value, text, fast",
        [
            (1.5, b"1.5", True),
            (-0.25, b"-0.25", True),
            (2.0, b"2", True),
            (-7.12345678901234, b"-7.12345678901", True),
            (0.000123456789012345, b"0.000123456789012", True),
            (1e-4, b"0.0001", False),  # y = 10^11, an edge
            (0.99999999999995, b"1", True),
            (9.9999999999949e-5, b"9.99999999999e-05", False),
            (9.9999999999995e-5, b"0.0001", False),
            (9.99999999999951, b"10", False),
            (12.5, b"12.5", False),
            (1.23e-5, b"1.23e-05", False),
            (0.0, b"0", False),
            (-0.0, b"-0", False),
            (math.nan, b"nan", False),
            (-math.inf, b"-inf", False),
        ],
    )
    def test_which_cells_take_the_fast_path(self, value, text, fast):
        assert b"%.12g" % value == text
        assert cli._format_cells(np.array([value])) == [text]
        assert cli._fast_cells(np.array([value]))[1].tolist() == [fast]

    def test_shapes(self):
        values = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
        assert cli._format_cells(values) == format_loop(values.ravel())
        assert cli._format_cells(values[:, ::2].T) == format_loop(values[:, ::2].T.ravel())
        assert cli._format_cells(np.empty(0)) == []


class TestVerify:
    def test_report_schema_and_statuses(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--theta-steps", "12", "--phi-steps", "12")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"variants", "coefficients"}

        by_tag = {}
        for entry in payload["variants"]:
            assert set(entry) == {"tag", "nu", "r", "max_abs_diff", "argmax", "status"}
            assert set(entry["argmax"]) == {"theta", "phi"}
            by_tag.setdefault(entry["tag"], []).append(entry)
        assert all(e["status"] == "MATCH" for e in by_tag["GHZ"])
        assert all(e["status"] == "MATCH" for e in by_tag["ACC1"])
        assert all(e["max_abs_diff"] <= 1e-12 for e in by_tag["GHZ"] + by_tag["ACC1"])
        assert all(e["status"] == "DISCREPANT" for e in by_tag["ACC2"])
        assert all(e["status"] == "DISCREPANT" for e in by_tag["ACC3"])

        by_variant = {}
        for entry in payload["coefficients"]:
            assert set(entry) == {"variant", "nu", "r", "max_abs_diff", "printed_trace", "status"}
            by_variant.setdefault(entry["variant"], []).append(entry)
        assert all(e["status"] == "MATCH" for e in by_variant["A"])
        assert all(e["printed_trace"] == pytest.approx(1.0) for e in by_variant["A"])
        assert all(e["status"] == "DISCREPANT" for e in by_variant["B"])
        for entry in by_variant["B"]:
            assert entry["printed_trace"] == pytest.approx(1.0 - entry["nu"] / 2.0)

    def test_degenerate_grid_exits_2_without_file(self, capsys, tmp_path):
        target = tmp_path / "verify.json"
        code, out, err = run_cli(capsys, "verify", "--theta-steps", "1", "-o", str(target))
        assert code == 2
        assert out == "" and "at least 2" in err
        assert not target.exists()

    def test_json_keys_sorted(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--theta-steps", "8", "--phi-steps", "8")
        payload = json.loads(out)
        assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out


EXPECTED_FIGURES = [f"fig{i}{letter}.csv" for i in (1, 2, 3, 4) for letter in "abc"] + [
    f"fig5{letter}.csv" for letter in "abcd"
]


@pytest.fixture(scope="module")
def fig_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("figs")
    assert main(["figures", "--output-dir", str(out)]) == 0
    return out


class TestFigures:
    EXPECTED = EXPECTED_FIGURES

    def test_inventory(self, fig_dir, capsys):
        names = sorted(p.name for p in fig_dir.iterdir())
        assert names == sorted(self.EXPECTED)

    def test_surface_row_counts(self, fig_dir):
        for name in ("fig1a.csv", "fig2a.csv", "fig3b.csv", "fig4a.csv"):
            lines = (fig_dir / name).read_text().strip("\n").split("\n")
            assert len(lines) == 1 + 91 * 181

    def test_curve_files_have_three_curves(self, fig_dir):
        rows = parse_csv((fig_dir / "fig5a.csv").read_text())
        assert len(rows) == 3 * 50
        ks = sorted({row[4] for row in rows})
        assert ks == [1.0, 2.0, 3.0]

    def test_curves_agree_at_r_zero(self, fig_dir):
        rows = parse_csv((fig_dir / "fig5a.csv").read_text())
        at_zero = [row[6] for row in rows if row[3] == 0.0]
        assert len(at_zero) == 3
        for w in at_zero:
            assert w == pytest.approx((1 - 3 * SQRT3) / 8, abs=1e-12)

    def test_low_mixing_stays_positive(self, fig_dir):
        rows = parse_csv((fig_dir / "fig1c.csv").read_text())
        hits = [
            row[6]
            for row in rows
            if abs(row[2] - 0.1) < 1e-9 and abs(row[0] - math.pi / 2) < 1e-9
        ]
        assert len(hits) == 1
        assert hits[0] > 0.0

    def test_rerun_is_byte_identical(self, fig_dir, tmp_path, capsys):
        again = tmp_path / "figs2"
        assert main(["figures", "--output-dir", str(again)]) == 0
        capsys.readouterr()
        for name in self.EXPECTED:
            assert_same_bytes((again / name).read_bytes(), (fig_dir / name).read_bytes(), name)

    def test_each_file_is_its_table_row_by_row(self, fig_dir):
        for name, build in cli._figure_specs():
            want = reference_csv(cli._float_rows(build()))
            assert_same_bytes((fig_dir / name).read_bytes(), want.encode("utf-8"), name)

    def test_blocked_directory_exits_3(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code, _, err = run_cli(capsys, "figures", "--output-dir", str(blocker / "sub"))
        assert code == 3


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "spinwigner", "eval", "--nu", "0", "--theta", "1", "--phi", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.125"

    def test_missing_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "spinwigner"], capture_output=True, text=True
        )
        assert proc.returncode == 2


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_commands():
    """The ``spinwigner`` lines of README's command-line block as argv, each
    with the value a ``# value`` comment right after it promises, or None."""
    section = README.read_text(encoding="utf-8").split("## Command-line interface", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("spinwigner "):
            commands.append((shlex.split(line)[1:], None))
        elif re.fullmatch(r"# -?[0-9.]+", line) and commands:
            commands[-1] = (commands[-1][0], line[2:])
    return commands


class TestReadme:
    def test_cli_block_runs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        commands = readme_cli_commands()
        assert [value for _, value in commands if value is not None] == ["-0.524519052838", "1.30801270189"]
        for argv, value in commands:
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, (argv, err)
            if value is not None:
                assert out == value + "\n"
