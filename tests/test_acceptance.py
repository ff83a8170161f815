"""Acceptance gate: ten end-to-end checks covering the full pipeline.

Each test is one criterion; the conftest terminal hook prints a
[PASS]/[FAIL] line per criterion at the end of the run.
"""

import math

import numpy as np

from spinwigner import (
    ClosedFormVariant,
    DistributionKind,
    GhzWernerParams,
    SphericalPoint,
    accelerated_ghz,
    closed_form,
    coefficient_report,
    coefficient_table,
    compare_closed_form,
    evaluate,
    ghz_werner,
    grid_scan,
    grid_values,
    negativity_threshold,
    normalization_check,
    scan_min_vs_r,
)
from spinwigner.cli import CSV_HEADER, main

from conftest import assert_same_bytes

SQRT3 = math.sqrt(3.0)
NU_R_SET = [(nu, r) for nu in (0.0, 0.3, 0.7, 1.0) for r in (0.0, 0.3, 0.6, math.pi / 4)]
TEN_STATES = [
    (0.0, 0, 0.0),
    (0.5, 0, 0.0),
    (1.0, 0, 0.0),
    (0.5, 1, 0.0),
    (1.0, 1, 0.6),
    (0.0, 2, 0.6),
    (0.5, 2, 0.6),
    (1.0, 2, 0.6),
    (0.5, 3, 0.6),
    (1.0, 3, 0.6),
]


def test_criterion_01_ghz_closed_form_equivalence():
    for nu in (0.0, 0.2, 0.3, 0.5, 1.0):
        comparison = compare_closed_form(ClosedFormVariant.GHZ, nu, 0.0, 50, 50)
        assert comparison.max_abs_diff <= 1e-12, (nu, comparison.max_abs_diff)
        assert comparison.status == "MATCH"


def test_criterion_02_point_value():
    rho = ghz_werner(GhzWernerParams(nu=1.0))
    probe = SphericalPoint(math.pi / 2.0, math.pi)
    value = evaluate(rho, DistributionKind.WIGNER, (probe,) * 3).value
    assert abs(value - (1.0 - 3.0 * SQRT3) / 8.0) <= 1e-12
    assert abs(value - (-0.5245190528)) <= 1e-9


def test_criterion_03_one_accelerated_closed_form_equivalence():
    for nu, r in NU_R_SET:
        comparison = compare_closed_form(ClosedFormVariant.ACC1, nu, r, 50, 50)
        assert comparison.max_abs_diff <= 1e-12, (nu, r, comparison.max_abs_diff)
        assert comparison.status == "MATCH"
    pole = SphericalPoint(0.0, 0.0)
    rho = accelerated_ghz(1.0, 1, math.pi / 4.0)
    spot = evaluate(rho, DistributionKind.WIGNER, (pole,) * 3).value
    assert abs(spot - 1.3080127019) <= 1e-9


def test_criterion_04_coefficient_table_matches_channel():
    for nu, r in NU_R_SET:
        report = coefficient_report("A", nu, r)
        assert report.max_abs_diff <= 1e-12, (nu, r, report.max_abs_diff)
        assert report.status == "MATCH"
        table = coefficient_table("A", nu, r)
        assert abs(table.diagonal_sum - 1.0) <= 1e-12


def test_criterion_05_documented_discrepancies():
    # printed two-accelerated-qubit table: diagonal deficit nu/2, flagged
    for nu, r in ((0.3, 0.6), (1.0, 0.6), (1.0, 0.0)):
        report = coefficient_report("B", nu, r)
        assert report.status == "DISCREPANT", (nu, r)
        assert abs(report.printed_diagonal_sum - (1.0 - nu / 2.0)) <= 1e-12

    # printed two-accelerated closed form evaluates to 110/128 where the
    # r=0 limit requires 1.25
    printed = closed_form(ClosedFormVariant.ACC2, 0.0, 0.0, 1.0, 0.0)
    assert abs(printed - 110.0 / 128.0) <= 1e-12
    assert abs(printed - 1.25) > 0.1
    assert compare_closed_form(ClosedFormVariant.ACC2, 1.0, 0.0, 50, 50).status == "DISCREPANT"

    # printed three-accelerated closed form fails its r=0 reduction
    assert compare_closed_form(ClosedFormVariant.ACC3, 1.0, 0.0, 50, 50).status == "DISCREPANT"

    # ... while the numeric pipeline itself reduces exactly at r=0
    thetas = np.linspace(0.0, math.pi, 91)
    phis = np.arange(181) * (2.0 * math.pi / 181)
    for nu in (0.3, 1.0):
        base = grid_values(
            ghz_werner(GhzWernerParams(nu=nu)), DistributionKind.WIGNER, thetas, phis
        )
        for k in (1, 2, 3):
            accel = grid_values(
                accelerated_ghz(nu, k, 0.0), DistributionKind.WIGNER, thetas, phis
            )
            assert float(np.abs(accel - base).max()) <= 1e-14, (nu, k)


def test_criterion_06_normalization():
    for nu, k, r in TEN_STATES:
        rho = accelerated_ghz(nu, k, r)
        value = normalization_check(rho, DistributionKind.WIGNER)
        assert abs(value - 1.0) <= 1e-8, (nu, k, r, value)


def test_criterion_07_husimi_positivity():
    for nu, k, r in TEN_STATES:
        rho = accelerated_ghz(nu, k, r)
        report = grid_scan(rho, DistributionKind.Q, 91, 181)
        assert report.min_value >= -1e-12, (nu, k, r, report.min_value)


def test_criterion_08_negativity_threshold():
    result = negativity_threshold(0, 0.0)
    assert result.sign_change
    assert abs(result.nu_star - 0.1924500897) <= 1e-8
    assert abs(result.nu_star - 1.0 / (3.0 * SQRT3)) <= 1e-8


def test_criterion_09_decoherence_curves():
    rs = np.linspace(0.0, math.pi / 4.0, 20)
    for nu in (1.0, 0.7, 0.5, 0.2):
        per_k = {}
        for k in (1, 2, 3):
            pairs = scan_min_vs_r(nu, k, rs)
            values = [w for _, w in pairs]
            per_k[k] = values
            for (r, w) in pairs:
                expected = (1.0 - 3.0 * SQRT3 * nu * math.cos(r) ** k) / 8.0
                assert abs(w - expected) <= 1e-12, (nu, k, r)
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:])), (nu, k)
        for i in range(1, len(rs)):
            assert per_k[1][i] <= per_k[2][i] <= per_k[3][i], (nu, i)


def test_criterion_10_figure_determinism(tmp_path, capsys):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["figures", "--output-dir", str(dir_a)]) == 0
    assert main(["figures", "--output-dir", str(dir_b)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in dir_a.iterdir())
    expected = sorted(
        [f"fig{i}{letter}.csv" for i in (1, 2, 3, 4) for letter in "abc"]
        + [f"fig5{letter}.csv" for letter in "abcd"]
    )
    assert names == expected
    for name in names:
        blob_a = (dir_a / name).read_bytes()
        blob_b = (dir_b / name).read_bytes()
        assert_same_bytes(blob_a, blob_b, name)
        first_line = blob_a.split(b"\n", 1)[0].decode("utf-8")
        assert first_line == CSV_HEADER, name
