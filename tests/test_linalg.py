"""Density-matrix validation."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwigner import (
    R_MAX,
    DensityMatrix,
    GhzWernerParams,
    HermiticityViolation,
    NegativityViolation,
    NotPowerOfTwoError,
    NotSquareError,
    TraceViolation,
    ValidationError,
    accelerated_ghz,
    ghz_werner,
    validate_density,
)

from conftest import random_density

class TestValidateDensity:
    def test_accepts_maximally_mixed(self):
        dm = validate_density(np.eye(8) / 8.0, 3)
        assert dm.n_qubits == 3
        assert dm.dim == 8

    def test_result_is_read_only(self):
        dm = validate_density(np.eye(2) / 2.0, 1)
        with pytest.raises(ValueError):
            dm.matrix[0, 0] = 5.0

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            validate_density(np.ones((2, 3)), 1)

    def test_rejects_wrong_power(self):
        with pytest.raises(NotPowerOfTwoError):
            validate_density(np.eye(3) / 3.0, 1)

    def test_rejects_trace_violation(self):
        with pytest.raises(TraceViolation) as exc:
            validate_density(np.eye(2), 1)
        assert exc.value.magnitude == pytest.approx(1.0)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(HermiticityViolation):
            validate_density(m, 1)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(NegativityViolation) as exc:
            validate_density(m, 1)
        assert exc.value.magnitude == pytest.approx(0.2)

    def test_random_states_pass(self, rng):
        for n in (1, 2, 3):
            dm = random_density(n, rng)
            assert np.trace(dm.matrix).real == pytest.approx(1.0)


CERTIFICATE_TOL = 1e-14


def eigvalsh_min(m):
    """Reference: eigvalsh's smallest eigenvalue of the Hermitian part."""
    m = np.asarray(m)
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])


def counted_eigvalsh():
    """Patch np.linalg.eigvalsh with a spy that counts calls and still
    returns the real result."""
    return mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh)


NON_FINITE_BASES = {
    "ghz_werner": lambda: ghz_werner(GhzWernerParams(nu=0.5)).matrix,
    "maximally_mixed": lambda: np.eye(8) / 8.0,
    "dense": lambda: random_density(3, np.random.default_rng(7)).matrix,
}


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "base, index, value",
        [
            ("ghz_werner", (0, 7), np.nan),  # the |0...0><1...1| corner
            ("maximally_mixed", (5, 5), np.inf),  # the diagonal
            ("dense", (2, 3), complex(0.0, np.nan)),  # off the X support
        ],
    )
    def test_refused_before_any_arithmetic(self, base, index, value):
        m = np.array(NON_FINITE_BASES[base](), dtype=complex)
        m[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's RuntimeWarnings would raise here
            with counted_eigvalsh() as spy, pytest.raises(ValidationError) as exc:
                validate_density(m, 3)
        assert type(exc.value) is ValidationError
        assert exc.value.magnitude == 0.0
        assert f"index {index}" in str(exc.value)
        assert spy.call_count == 0

    def test_first_bad_index_is_named(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[3, 0] = np.nan
        m[1, 2] = -np.inf
        with pytest.raises(ValidationError, match=r"index \(1, 2\)"):
            validate_density(m, 2)


class TestPositivityCertificate:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 7),
        nu=st.floats(0.0, 1.0),
        r=st.floats(0.0, R_MAX),
        data=st.data(),
    )
    def test_accelerated_family_matches_eigvalsh(self, n, nu, r, data):
        accelerated = tuple(data.draw(st.lists(st.integers(0, n - 1), unique=True), label="accelerated"))
        with counted_eigvalsh() as spy:
            rho = accelerated_ghz(nu, accelerated, r, n_qubits=n)
        assert spy.call_count == 0
        assert abs(rho.min_eigenvalue - eigvalsh_min(rho.matrix)) <= CERTIFICATE_TOL

    @pytest.mark.parametrize("k", [0, 1, 4, 7])
    def test_seven_qubits_need_no_eigensolver(self, k):
        with counted_eigvalsh() as spy:
            accelerated_ghz(0.8, k, 0.5, n_qubits=7)
        assert spy.call_count == 0

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("corner", [0.3, 0.2 - 0.25j])
    def test_x_matrix_beyond_coherence_bound_is_negative(self, n, corner):
        dim = 2**n
        m = np.eye(dim, dtype=complex) / dim
        m[0, 0], m[-1, -1] = 1.9 / dim, 0.1 / dim  # sqrt(a*b) < 0.22 < |c| in block 0
        m[0, -1], m[-1, 0] = corner, np.conj(corner)
        with counted_eigvalsh() as spy, pytest.raises(NegativityViolation) as exc:
            validate_density(m, n)
        assert spy.call_count == 0
        assert abs(exc.value.magnitude - (-eigvalsh_min(m))) <= CERTIFICATE_TOL

    @pytest.mark.parametrize(
        "edits",
        [
            {(2, 2): 0.125 + 1e-6j, (3, 3): 0.125 - 1e-6j},  # the trace stays 1
            {(7, 0): 0.1 + 1e-6j},
            {(1, 6): 0.05},
        ],
    )
    def test_non_hermitian_x_matrix_measured_on_the_blocks(self, edits):
        m = np.eye(8, dtype=complex) / 8.0
        m[0, 7] = m[7, 0] = m[1, 6] = m[6, 1] = 0.1
        for index, value in edits.items():
            m[index] = value
        with counted_eigvalsh() as spy, pytest.raises(HermiticityViolation) as exc:
            validate_density(m, 3)
        assert spy.call_count == 0
        assert exc.value.magnitude == float(np.abs(m - m.conj().T).max())

    def test_dense_state_takes_eigvalsh(self, rng):
        m = random_density(4, rng).matrix
        with counted_eigvalsh() as spy:
            rho = validate_density(m, 4)
        assert spy.call_count == 1
        assert abs(rho.min_eigenvalue - eigvalsh_min(m)) <= CERTIFICATE_TOL

    @pytest.mark.parametrize("extra", [1e-3, 1e-3j])
    def test_one_entry_off_x_takes_eigvalsh(self, extra):
        m = np.array(accelerated_ghz(0.6, 2, 0.4).matrix)
        m[1, 2] = extra
        m[2, 1] = np.conj(extra)
        with counted_eigvalsh() as spy:
            rho = validate_density(m, 3)
        assert spy.call_count == 1
        assert abs(rho.min_eigenvalue - eigvalsh_min(m)) <= CERTIFICATE_TOL

    def test_direct_construction_has_no_margin(self):
        rho = DensityMatrix(matrix=np.eye(2) / 2.0, n_qubits=1)
        assert math.isnan(rho.min_eigenvalue)
