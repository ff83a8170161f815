"""The acceleration channel against the dense isometry-plus-partial-trace
construction, on general and on X-shaped states, its Kraus pair, and
complete positivity and trace preservation of the single-qubit map."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwigner import (
    R_MAX,
    AccelerationConfig,
    GhzWernerParams,
    ROutOfRange,
    _memo,
    accelerate,
    ghz_werner,
    rindler,
    unruh_isometry,
    validate_density,
)
from spinwigner.linalg import _entries, _x_state
from spinwigner.rindler import _kraus_pair, _x_channel

from conftest import off_x, random_density, random_x_density, x_stack

CHANNEL_TOL = 1e-14
R_VALUES = [0.0, 0.3, 0.6, R_MAX]


def dense_channel(m, n, accelerated, r):
    """Embed each accelerated qubit with the 2^(n+1) x 2^n isometry and
    trace out the hidden wedge, the factor right after the qubit's slot."""
    v = unruh_isometry(r)
    for q in sorted(accelerated):
        pos = n - 1 - q
        embed = np.kron(np.kron(np.eye(2 ** pos), v), np.eye(2 ** (n - 1 - pos)))
        big = (embed @ m @ embed.conj().T).reshape((2,) * (2 * n + 2))
        m = np.trace(big, axis1=pos + 1, axis2=n + 2 + pos).reshape(2 ** n, 2 ** n)
    return m


def one_qubit_choi(r):
    """Choi matrix sum_ij |i><j| (x) Phi(|i><j|) of the channel on one qubit,
    from its action on four pure states (Phi is linear, accelerate only
    takes states)."""

    def phi(psi):
        rho = validate_density(np.outer(psi, np.conj(psi)), 1)
        return accelerate(rho, AccelerationConfig(r=r, accelerated=(0,))).matrix

    s = 1.0 / math.sqrt(2.0)
    p0, p1 = phi(np.array([1.0, 0.0])), phi(np.array([0.0, 1.0]))
    x = 2.0 * phi(np.array([s, s])) - p0 - p1  # Phi(sigma_x)
    y = 2.0 * phi(np.array([s, 1j * s])) - p0 - p1  # Phi(sigma_y)
    blocks = [[p0, 0.5 * (x + 1j * y)], [0.5 * (x - 1j * y), p1]]
    return np.block(blocks)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 2 ** 32 - 1),
    r=st.floats(0.0, R_MAX),
    data=st.data(),
)
def test_matches_dense_isometry_and_partial_trace(n, seed, r, data):
    rho = random_density(n, np.random.default_rng(seed))
    accelerated = tuple(data.draw(st.lists(st.integers(0, n - 1), unique=True), label="accelerated"))
    got = accelerate(rho, AccelerationConfig(r=r, accelerated=accelerated)).matrix
    want = dense_channel(rho.matrix, n, accelerated, r)
    assert np.abs(got - want).max() <= CHANNEL_TOL


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 7),
    seed=st.integers(0, 2 ** 32 - 1),
    r=st.floats(0.0, R_MAX),
    data=st.data(),
)
def test_x_state_matches_dense_isometry_and_partial_trace(n, seed, r, data):
    rho = _x_state(x_stack(random_x_density(n, np.random.default_rng(seed))), n)
    accelerated = tuple(data.draw(st.lists(st.integers(0, n - 1), unique=True), label="accelerated"))
    out = accelerate(rho, AccelerationConfig(r=r, accelerated=accelerated))
    assert out.x_shaped
    got = out.matrix
    want = dense_channel(rho.matrix, n, accelerated, r)
    assert np.abs(got - want).max() <= CHANNEL_TOL
    assert not got[off_x(got)].any()


@pytest.mark.parametrize("n", range(2, 8))
def test_one_entry_off_the_x_takes_the_dense_path(n):
    rng = np.random.default_rng(n)
    m = 0.5 * random_x_density(n, rng) + 0.5 * np.eye(2**n) / 2**n  # smallest eigenvalue >= 2^-(n+1)
    i, j = (int(x) for x in np.argwhere(off_x(m))[rng.integers(off_x(m).sum())])
    # a Hermitian pair of modulus 2^-(n+2) moves no eigenvalue by more than that
    eps = 2.0 ** -(n + 2) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    m[i, j], m[j, i] = eps, np.conj(eps)
    rho = validate_density(m, n)
    accelerated = tuple(range(n))
    got = accelerate(rho, AccelerationConfig(r=0.5, accelerated=accelerated)).matrix
    assert np.abs(got - dense_channel(rho.matrix, n, accelerated, 0.5)).max() <= CHANNEL_TOL
    assert got[off_x(got)].any()  # the X layout would have dropped the off-X entry


@pytest.mark.parametrize("r", R_VALUES)
def test_kraus_pair_of_the_isometry(r):
    k0, k1 = _kraus_pair(r)
    np.testing.assert_allclose(k0, np.diag([math.cos(r), 1.0]), rtol=0, atol=1e-16)
    np.testing.assert_allclose(k1, [[0.0, 0.0], [math.sin(r), 0.0]], rtol=0, atol=1e-16)
    # completeness: K0^dag K0 + K1^dag K1 = I
    np.testing.assert_allclose(k0.conj().T @ k0 + k1.conj().T @ k1, np.eye(2), rtol=0, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(r=st.floats(0.0, R_MAX))
def test_choi_matrix_is_positive(r):
    choi = one_qubit_choi(r)
    assert np.abs(choi - choi.conj().T).max() <= CHANNEL_TOL
    assert np.linalg.eigvalsh(choi)[0] >= -CHANNEL_TOL


@settings(max_examples=30, deadline=None)
@given(r=st.floats(0.0, R_MAX))
def test_choi_output_trace_is_identity(r):
    choi = one_qubit_choi(r).reshape(2, 2, 2, 2)
    np.testing.assert_allclose(np.trace(choi, axis1=1, axis2=3), np.eye(2), rtol=0, atol=CHANNEL_TOL)



@pytest.mark.parametrize("n, qubits", [(1, (0,)), (3, (0, 2)), (5, (4, 1, 2)), (7, tuple(range(7)))])
def test_x_channel_of_a_batch_is_each_state_alone(rng, n, qubits):
    stack = rng.standard_normal((3, 2, 2**n)) + 1j * rng.standard_normal((3, 2, 2**n))
    got = _x_channel(stack, R_VALUES, qubits)
    assert got.shape == (len(R_VALUES), 3, 2, 2**n) and got.flags.c_contiguous
    for j, e in np.ndindex(len(R_VALUES), 3):
        alone = _x_channel(stack[e], (R_VALUES[j],), qubits)
        assert alone.shape == (1, 2, 2**n)
        np.testing.assert_array_equal(got[j, e], alone[0])


def transfer_info():
    return rindler._transfer.cache_info()


class TestTransferCache:
    """The transfer map is memoized per tuple of float rs; states are not."""

    def test_repeated_calls_are_bitwise_the_uncached_outputs(self, monkeypatch, rng):
        states = (ghz_werner(GhzWernerParams(nu=0.6, n_qubits=4)), random_density(4, rng))
        repeated_and_distinct = ((0.3, (0, 2)), (0.6, (1,)), (0.3, (0, 2)), (0.3, (3,)))
        configs = [AccelerationConfig(r=r, accelerated=q) for r, q in repeated_and_distinct]
        stack = x_stack(random_x_density(4, rng))
        rs = [0.1, 0.3, 0.1]

        def outputs():
            channelled = [_entries(accelerate(rho, config))[0].tobytes() for rho in states for config in configs]
            return channelled + [_x_channel(stack, rs, (0, 3)).tobytes()]

        cached = [outputs(), outputs()]
        monkeypatch.setattr(rindler, "_transfer", rindler._transfer.__wrapped__)
        assert cached == [outputs(), outputs()]

    def test_cached_transfer_is_read_only_and_bitwise_a_fresh_build(self):
        rs = (0.2, 0.5, 0.2)
        transfer = rindler._transfer(rs)
        assert rindler._transfer(rs) is transfer
        assert transfer.shape == (3, 4, 4)
        assert transfer.tobytes() == rindler._transfer.__wrapped__(rs).tobytes()
        assert not transfer.flags.writeable
        with pytest.raises(ValueError):
            transfer[0, 0, 0] = 0.0

    @pytest.mark.parametrize("rs", [(0.1, 1.0), (-0.1,), (math.nan,), (0.2, R_MAX + 1e-12)])
    def test_refused_r_raises_on_every_call_and_stores_nothing(self, rng, rs):
        stack = x_stack(random_x_density(2, rng))
        _memo.clear_caches()
        for _ in range(3):
            with pytest.raises(ROutOfRange):
                rindler._transfer(rs)
            with pytest.raises(ROutOfRange):
                _x_channel(stack, rs, (0,))
            assert transfer_info().currsize == 0

    def test_filling_past_maxsize_keeps_maxsize_keys(self):
        size = _memo.MEMO_KEYS
        _memo.clear_caches()
        for i in range(size + 10):
            rindler._transfer((R_MAX * i / (size + 10),))
            assert transfer_info().currsize == min(i + 1, size)
        assert transfer_info().maxsize == size
