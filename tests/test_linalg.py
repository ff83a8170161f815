"""Density-matrix validation."""

import math
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwigner import (
    R_MAX,
    AccelerationConfig,
    DensityMatrix,
    DimensionError,
    DistributionKind,
    GhzWernerParams,
    HermiticityViolation,
    NegativityViolation,
    NotPowerOfTwoError,
    NotSquareError,
    TraceViolation,
    SphericalPoint,
    ValidationError,
    accelerate,
    accelerated_ghz,
    evaluate,
    ghz_werner,
    validate_density,
)
from spinwigner import linalg, quasiprob, rindler, states

from conftest import off_x, random_density, random_x_density, x_stack

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

    @pytest.mark.parametrize("n", [0, -1, 2.0, "2"])
    def test_register_size_checked_before_the_matrix(self, n):
        with pytest.raises(ValueError, match=f"n_qubits={n} must be an integer of at least 1"):
            validate_density(np.eye(1), n)

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


class TestXFlag:
    """``x_shaped`` records the one X-support test that validation makes."""

    def test_validated_states(self, rng):
        assert validate_density(random_x_density(4, rng), 4).x_shaped
        assert ghz_werner(GhzWernerParams(nu=0.0, n_qubits=2)).x_shaped  # diagonal only
        assert accelerated_ghz(0.6, 2, 0.4).x_shaped
        assert not random_density(3, rng).x_shaped
        m = np.array(accelerated_ghz(0.6, 2, 0.4).matrix)
        m[1, 2] = m[2, 1] = 1e-3
        assert not validate_density(m, 3).x_shaped

    def test_direct_construction_is_not_flagged(self):
        assert not DensityMatrix(matrix=np.eye(2) / 2.0, n_qubits=1).x_shaped

    def test_the_flag_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            DensityMatrix(matrix=np.eye(2) / 2.0, n_qubits=1, x_shaped=True)

    def test_dense_channel_output(self, rng):
        rho = accelerate(random_density(3, rng), AccelerationConfig(r=0.5, accelerated=(0, 2)))
        assert not rho.x_shaped

    @pytest.mark.parametrize("n, k", [(3, 1), (3, 3), (5, 2), (7, 4), (7, 7)])
    def test_one_certificate_and_no_dense_scan_per_state(self, monkeypatch, n, k):
        # a channel_sweep op: build, accelerate, evaluate.  Each of the two
        # states is certified once, from its stack; nothing tests the support
        # of a dense matrix or scans its 4^n entries for non-finite ones
        certified, dense, scanned = [], [], []
        real_certify, real_isfinite = linalg._certify_x, np.isfinite

        def certify(stack):
            certified.append(sys._getframe(1).f_code.co_name)
            return real_certify(stack)

        def isfinite(x, *args, **kwargs):
            scanned.append(np.size(x))
            return real_isfinite(x, *args, **kwargs)

        monkeypatch.setattr(linalg, "_certify_x", certify)
        monkeypatch.setattr(linalg, "_hermiticity_and_min_eigenvalue", lambda arr: dense.append(arr))
        monkeypatch.setattr(np, "count_nonzero", lambda *args, **kwargs: dense.append(args))
        monkeypatch.setattr(np, "isfinite", isfinite)
        rho = ghz_werner(GhzWernerParams(nu=0.4, n_qubits=n))
        assert len(certified) == 1
        rho = accelerate(rho, AccelerationConfig(r=0.5, accelerated=tuple(range(k))))
        assert len(certified) == 2
        evaluate(rho, DistributionKind.WIGNER, (SphericalPoint(math.pi / 2.0, math.pi),) * n)
        assert certified == ["_x_state"] * 2
        assert dense == []
        assert scanned and max(scanned) == 2 * 2**n
        assert rho.x_shaped

    @pytest.mark.parametrize("n, k", [(1, 1), (3, 2), (7, 7)])
    def test_flagged_states_are_read_on_the_two_diagonals_only(self, n, k):
        # NaN on every entry off the X of a certified state: a support test
        # would see them (and send the state to a dense path), a dense read
        # would carry them into the value
        clean = accelerated_ghz(0.6, 1, 0.3, n_qubits=n)
        m = np.array(clean.matrix)
        m[off_x(m)] = np.nan
        poisoned = linalg._certified(m, n, clean.min_eigenvalue, x_stack(m))
        config = AccelerationConfig(r=0.5, accelerated=tuple(range(k)))
        assert np.array_equal(accelerate(poisoned, config).matrix, accelerate(clean, config).matrix)
        points = tuple(SphericalPoint(1.0 + 0.2 * q, 0.5 * q) for q in range(n))
        for kind in DistributionKind:
            assert evaluate(poisoned, kind, points).value == evaluate(clean, kind, points).value


def scatter(stack):
    """The X matrix whose diagonal and anti-diagonal by row are the rows of stack."""
    dim = stack.shape[1]
    m = np.zeros((dim, dim), dtype=complex)
    x = np.arange(dim)
    m[x, x], m[x, dim - 1 - x] = stack
    return m


DEFECTS = ["nan", "inf", "trace", "anti_pair", "negative_block"]


def break_stack(stack, defect, rng):
    """Make the X stack of a valid state fail its certificate, in place."""
    dim = stack.shape[1]
    x = int(rng.integers(dim))
    if defect in ("nan", "inf"):  # up to three entries: the first in row-major order is named
        where = rng.integers(2, size=3), rng.integers(dim, size=3)
        stack[where] = complex(np.nan, rng.standard_normal()) if defect == "nan" else complex(0.1, -np.inf)
    elif defect == "trace":
        stack[0] *= 1.0 + 10.0 ** rng.uniform(-11.0, -1.0)
    elif defect == "anti_pair":  # anti[x] no longer faces conj(anti[dim-1-x])
        stack[1, x] += 10.0 ** rng.uniform(-11.0, -1.0) * np.exp(2j * np.pi * rng.random())
    else:  # |c| beyond sqrt(a b) in the block on rows (x, dim-1-x)
        a, b = stack[0, x].real, stack[0, dim - 1 - x].real
        stack[1, x] = (math.sqrt(a * b) + 10.0 ** rng.uniform(-4.0, -1.0)) * np.exp(2j * np.pi * rng.random())
        stack[1, dim - 1 - x] = np.conj(stack[1, x])


class TestXState:
    """``linalg._x_state`` of a stack agrees with ``validate_density`` of the
    matrix it scatters into: the same state, or the same refusal."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
    def test_valid_stacks(self, n, seed):
        m = random_x_density(n, np.random.default_rng(seed))
        want = validate_density(m, n)
        got = linalg._x_state(x_stack(m), n)
        assert got.matrix.dtype == want.matrix.dtype and got.matrix.shape == want.matrix.shape
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.min_eigenvalue == want.min_eigenvalue
        assert got.x_shaped and want.x_shaped
        assert np.array_equal(got._x_stack, want._x_stack)
        assert not got.matrix.flags.writeable and not got._x_stack.flags.writeable

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
        defect=st.sampled_from(DEFECTS),
    )
    def test_invalid_stacks(self, n, seed, defect):
        rng = np.random.default_rng(seed)
        stack = x_stack(random_x_density(n, rng))
        break_stack(stack, defect, rng)
        with pytest.raises(ValidationError) as want:
            validate_density(scatter(stack), n)
        with pytest.raises(ValidationError) as got:
            linalg._x_state(stack, n)
        assert type(got.value) is type(want.value)
        assert abs(got.value.magnitude - want.value.magnitude) <= 1e-15
        assert str(got.value) == str(want.value)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        batch=st.sampled_from([(1,), (5,), (4, 2), (2, 3, 1)]),
        defects=st.lists(st.sampled_from(DEFECTS), max_size=3),
    )
    def test_batches_certify_state_by_state(self, n, seed, batch, defects):
        # the batched certificate against a loop of one-state certificates
        # in row-major order: the same minimum eigenvalues, or the first
        # failing state's error
        rng = np.random.default_rng(seed)
        states = [x_stack(random_x_density(n, rng)) for _ in range(math.prod(batch))]
        for i, defect in zip(rng.permutation(len(states)), defects):
            break_stack(states[i], defect, rng)
        want, error = [], None
        for stack in states:
            try:
                want.append(linalg._x_state(stack.copy(), n).min_eigenvalue)
            except ValidationError as exc:
                error = exc
                break
        stacks = np.stack(states).reshape(batch + (2, 2**n))
        if error is None:
            got = linalg._certify_x(stacks)
            assert got.shape == batch and got.ravel().tolist() == want
            assert not stacks.flags.writeable
            return
        with pytest.raises(ValidationError) as got:
            linalg._certify_x(stacks)
        assert type(got.value) is type(error)
        assert got.value.magnitude == error.magnitude
        assert str(got.value) == str(error)


class TestLazyMatrix:
    """A certified X state built from its stack has no dense matrix until
    ``.matrix`` is read, and never one above ``DENSE_MAX_QUBITS``."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matrix_is_the_scatter_of_the_stack(self, n):
        states = [ghz_werner(GhzWernerParams(nu=0.3, n_qubits=n))]
        states += [accelerated_ghz(0.3, k, 0.5, n_qubits=n) for k in range(1, n + 1)]
        for rho in states:
            m = rho.matrix
            want = scatter(rho._x_stack)
            assert m.dtype == want.dtype and m.shape == want.shape and m.tobytes() == want.tobytes()
            assert rho.matrix is m and not m.flags.writeable
            assert rho.dim == 2**n

    def test_direct_construction_keeps_its_matrix(self):
        m = np.eye(2) / 2.0
        assert DensityMatrix(matrix=m, n_qubits=1).matrix is m
        assert DensityMatrix(matrix=None, n_qubits=1).matrix is None

    def test_entry_reads_the_stack(self, rng):
        for rho in (accelerated_ghz(0.6, 2, 0.4), random_density(3, rng)):
            got = np.array([[rho.entry(i, j) for j in range(8)] for i in range(8)])
            assert got.tobytes() == rho.matrix.tobytes()
            # both layouts refuse what numpy would wrap around or overrun
            for row, col in ((-1, 0), (0, -1), (8, 0), (0, 8), (-8, 7)):
                with pytest.raises(IndexError, match=f"entry \\({row}, {col}\\) outside a 8 x 8 matrix"):
                    rho.entry(row, col)

    def test_matrix_refused_above_the_limit(self):
        n = linalg.DENSE_MAX_QUBITS + 1
        rho = ghz_werner(GhzWernerParams(nu=0.5, n_qubits=n))
        with pytest.raises(DimensionError, match=f"4\\*\\*{n} entries"):
            rho.matrix
        assert rho.entry(0, 2**n - 1) == pytest.approx(0.25) and rho.entry(0, 1) == 0.0

    def test_build_accelerate_evaluate_never_allocates_the_dense_matrix(self):
        # at n = 16 the dense matrix alone would be 4^16 x 16 B = 64 GiB;
        # the stack is 2 x 2^16 x 16 B = 2 MiB
        n = 16
        stack_bytes = 2 * 2**n * 16
        tracemalloc.start()
        try:
            rho = ghz_werner(GhzWernerParams(nu=0.4, n_qubits=n))
            rho = accelerate(rho, AccelerationConfig(r=0.5, accelerated=tuple(range(n))))
            value = evaluate(rho, DistributionKind.WIGNER, (SphericalPoint(math.pi / 2.0, math.pi),) * n).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * stack_bytes
        assert math.isfinite(value)


class TestValidationOwnership:
    def test_public_validation_copies(self):
        m = np.eye(4, dtype=complex) / 4.0
        rho = validate_density(m, 2)
        assert m.flags.writeable
        assert not np.shares_memory(m, rho.matrix)
        m[0, 0], m[1, 1] = 0.5, 0.0
        assert rho.matrix[0, 0] == 0.25 and rho.matrix[1, 1] == 0.25
        assert not rho.matrix.flags.writeable

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ghz_werner(GhzWernerParams(nu=0.3, n_qubits=4)),
            lambda: accelerated_ghz(0.3, 2, 0.5, n_qubits=4),
            lambda: accelerated_ghz(0.3, (), 0.5, n_qubits=4),
            lambda: accelerate(ghz_werner(GhzWernerParams(nu=0.3)), AccelerationConfig(r=0.5)),
            lambda: accelerate(random_density(3, np.random.default_rng(3)), AccelerationConfig(r=0.5, accelerated=(1,))),
        ],
        ids=["ghz_werner", "accelerated", "no_qubit_named", "x_channel_on_no_qubit", "dense_channel"],
    )
    def test_library_built_states_are_read_only(self, build):
        rho = build()
        assert not rho.matrix.flags.writeable
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

