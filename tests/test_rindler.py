"""Acceleration channel: mode isometry, per-qubit decoherence map, and the
printed coefficient tables checked against the numeric channel output.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest

from spinwigner import (
    AccelerationConfig,
    DensityMatrix,
    GhzWernerParams,
    IndexOutOfRange,
    NegativityViolation,
    ROutOfRange,
    TraceViolation,
    accelerate,
    coefficient_report,
    coefficient_table,
    ghz_werner,
    unruh_isometry,
    validate_density,
)

from spinwigner import linalg

from conftest import random_density
from dense_oracle import partial_trace

R_VALUES = [0.0, 0.3, 0.6, math.pi / 4]
NU_VALUES = [0.0, 0.2, 0.5, 1.0]


class TestUnruhIsometry:
    def test_columns(self):
        r = 0.37
        v = unruh_isometry(r)
        assert v.shape == (4, 2)
        expected = np.zeros((4, 2))
        expected[0, 0] = math.cos(r)
        expected[3, 0] = math.sin(r)
        expected[2, 1] = 1.0
        assert np.allclose(v, expected)

    def test_is_isometry(self):
        for r in R_VALUES:
            v = unruh_isometry(r)
            assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, math.pi / 4 + 0.01, math.nan])
    def test_out_of_range(self, bad):
        with pytest.raises(ROutOfRange):
            unruh_isometry(bad)


class TestAccelerationConfig:
    def test_rejects_bad_r(self):
        with pytest.raises(ROutOfRange):
            AccelerationConfig(r=1.0, accelerated=(0,))

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError):
            AccelerationConfig(r=0.1, accelerated=(0, 0))

    def test_rejects_negative_index(self):
        with pytest.raises(IndexOutOfRange):
            AccelerationConfig(r=0.1, accelerated=(-1,))

    def test_check_register(self):
        config = AccelerationConfig(r=0.1, accelerated=(0, 2))
        config.check_register(3)
        with pytest.raises(IndexOutOfRange, match="qubit 2 outside register of 2"):
            config.check_register(2)
        # the first qubit outside, in the order given
        with pytest.raises(IndexOutOfRange, match="qubit 3 outside register of 2"):
            AccelerationConfig(r=0.1, accelerated=(3, 0, 4)).check_register(2)


class TestAccelerate:
    def test_r_zero_is_identity(self, rng):
        rho = random_density(3, rng)
        out = accelerate(rho, AccelerationConfig(r=0.0, accelerated=(0, 1, 2)))
        assert np.allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_index_outside_register(self, rng):
        rho = random_density(2, rng)
        with pytest.raises(IndexOutOfRange):
            accelerate(rho, AccelerationConfig(r=0.1, accelerated=(2,)))

    def test_pure_ghz_corner_entries(self):
        r = 0.52
        rho = ghz_werner(GhzWernerParams(nu=1.0))
        out = accelerate(rho, AccelerationConfig(r=r, accelerated=(0,))).matrix
        assert out[0, 0].real == pytest.approx(math.cos(r) ** 2 / 2, abs=1e-14)
        assert out[7, 7].real == pytest.approx(0.5, abs=1e-14)
        assert out[0, 7].real == pytest.approx(math.cos(r) / 2, abs=1e-14)
        assert out[1, 1].real == pytest.approx(math.sin(r) ** 2 / 2, abs=1e-14)

    def test_mixed_state_maximal_r_alternating_diagonal(self):
        # the channel sends I/2 on the accelerated qubit to
        # diag(cos^2 r, sin^2 r + 1)/2, giving 1/4 vs 3/4 at r = pi/4
        rho = ghz_werner(GhzWernerParams(nu=0.0))
        out = accelerate(rho, AccelerationConfig(r=math.pi / 4, accelerated=(0,))).matrix
        expected = np.diag([1, 3, 1, 3, 1, 3, 1, 3]) / 16.0
        assert np.allclose(out, expected, atol=1e-15)

    @pytest.mark.parametrize("nu", NU_VALUES)
    @pytest.mark.parametrize("r", R_VALUES)
    def test_channel_preserves_state_validity(self, nu, r):
        rho = ghz_werner(GhzWernerParams(nu=nu))
        for size in (1, 2, 3):
            for subset in itertools.combinations(range(3), size):
                out = accelerate(rho, AccelerationConfig(r=r, accelerated=subset))
                # validate_density re-checks trace/hermiticity/PSD
                validate_density(out.matrix, 3)

    def test_single_qubit_channels_compose(self, rng):
        rho = random_density(3, rng)
        r = 0.44
        seq = accelerate(
            accelerate(rho, AccelerationConfig(r=r, accelerated=(0,))),
            AccelerationConfig(r=r, accelerated=(1,)),
        )
        joint = accelerate(rho, AccelerationConfig(r=r, accelerated=(0, 1)))
        assert np.allclose(seq.matrix, joint.matrix, atol=1e-14)

    def test_order_irrelevant(self, rng):
        rho = random_density(3, rng)
        r = 0.3
        a = accelerate(rho, AccelerationConfig(r=r, accelerated=(2, 0)))
        b = accelerate(rho, AccelerationConfig(r=r, accelerated=(0, 2)))
        assert np.allclose(a.matrix, b.matrix, atol=1e-15)

    def test_no_qubit_named_returns_an_x_state_as_it_is(self):
        rho = ghz_werner(GhzWernerParams(nu=0.4, n_qubits=4))
        assert accelerate(rho, AccelerationConfig(r=0.5)) is rho

    def test_no_qubit_named_validates_any_other_state(self, rng):
        rho = random_density(2, rng)
        out = accelerate(rho, AccelerationConfig(r=0.5))
        assert out is not rho and not out.x_shaped
        assert out.matrix.tobytes() == rho.matrix.tobytes()
        with pytest.raises(TraceViolation):
            accelerate(DensityMatrix(matrix=np.eye(2, dtype=complex), n_qubits=1), AccelerationConfig(r=0.5))
        with pytest.raises(NegativityViolation):
            # X-shaped, but built directly: not certified, so validated
            accelerate(DensityMatrix(matrix=np.diag([1.5, -0.5]).astype(complex), n_qubits=1), AccelerationConfig(r=0.5))

    def test_untouched_qubit_marginal_preserved(self, rng):
        rho = random_density(3, rng)
        out = accelerate(rho, AccelerationConfig(r=0.6, accelerated=(0,)))
        before = partial_trace(rho.matrix, [2, 2, 2], [0, 1])
        after = partial_trace(out.matrix, [2, 2, 2], [0, 1])
        # tensor slots 0,1 are qubits 2,1; qubit 0 sits in the last slot
        assert np.allclose(before, after, atol=1e-14)


class TestCoefficientTables:
    @pytest.mark.parametrize("nu", NU_VALUES)
    @pytest.mark.parametrize("r", R_VALUES)
    def test_one_accelerated_matches_channel(self, nu, r):
        report = coefficient_report("A", nu, r)
        assert report.status == "MATCH"
        assert report.max_abs_diff <= 1e-12

    @pytest.mark.parametrize("nu", NU_VALUES)
    @pytest.mark.parametrize("r", R_VALUES)
    def test_one_accelerated_diagonal_sums_to_one(self, nu, r):
        table = coefficient_table("A", nu, r)
        assert table.diagonal_sum == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("nu", [0.3, 1.0])
    def test_two_accelerated_printed_diagonal_deficit(self, nu):
        # printed two-qubit table sums to 1 - nu/2, not 1
        for r in (0.0, 0.6):
            table = coefficient_table("B", nu, r)
            assert table.diagonal_sum == pytest.approx(1.0 - nu / 2.0, abs=1e-12)

    def test_two_accelerated_flagged_discrepant(self):
        report = coefficient_report("B", 1.0, 0.6)
        assert report.status == "DISCREPANT"
        assert report.max_abs_diff == pytest.approx(0.5, abs=1e-12)

    def test_three_accelerated_matches_at_r_zero(self):
        report = coefficient_report("C", 1.0, 0.0)
        assert report.status == "MATCH"

    def test_three_accelerated_discrepant_at_finite_r(self):
        report = coefficient_report("C", 0.3, 0.6)
        assert report.status == "DISCREPANT"
        assert 0.01 < report.max_abs_diff < 0.1

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            coefficient_table("D", 0.5, 0.1)

    @pytest.mark.parametrize("variant", ["A", "B", "C"])
    def test_report_reads_entries_without_the_dense_matrix(self, monkeypatch, variant):
        want = coefficient_report(variant, 0.4, 0.5)
        monkeypatch.setattr(linalg, "_scatter", mock.Mock(side_effect=AssertionError("scattered")))
        assert coefficient_report(variant, 0.4, 0.5).numeric == want.numeric

    def test_report_carries_both_value_sets(self):
        report = coefficient_report("A", 0.7, 0.3)
        assert set(report.printed) == set(report.numeric)
        for key, printed in report.printed.items():
            assert abs(printed - report.numeric[key]) <= 1e-12
