"""The dense references themselves: the partial trace and the Kronecker
kernel of ``dense_oracle``, which the library no longer carries."""

import math

import numpy as np
import pytest

from spinwigner import DistributionKind, SphericalPoint, kernel

from conftest import random_density
from dense_oracle import kernel_n, partial_trace


class TestPartialTrace:
    def test_bell_state_reduces_to_maximally_mixed(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1.0 / np.sqrt(2.0)
        rho = np.outer(v, v.conj())
        for keep in ([0], [1]):
            assert np.allclose(partial_trace(rho, [2, 2], keep), np.eye(2) / 2.0)

    def test_product_state_factor_recovery(self, rng):
        a = random_density(1, rng).matrix
        b = random_density(1, rng).matrix
        joint = np.kron(a, b)
        assert np.allclose(partial_trace(joint, [2, 2], [0]), a, atol=1e-14)
        assert np.allclose(partial_trace(joint, [2, 2], [1]), b, atol=1e-14)

    def test_three_party_keep_two(self, rng):
        parts = [random_density(1, rng).matrix for _ in range(3)]
        joint = np.kron(np.kron(parts[0], parts[1]), parts[2])
        reduced = partial_trace(joint, [2, 2, 2], [0, 2])
        assert np.allclose(reduced, np.kron(parts[0], parts[2]), atol=1e-14)

    def test_full_keep_is_identity_map(self, rng):
        rho = random_density(2, rng).matrix
        assert np.allclose(partial_trace(rho, [2, 2], [0, 1]), rho)


class TestKernelN:
    def test_shape(self):
        pts = [SphericalPoint(0.1 * i, 0.2 * i) for i in range(3)]
        assert kernel_n(DistributionKind.WIGNER, pts).shape == (8, 8)

    def test_single_qubit_reduces_to_kernel(self):
        p = SphericalPoint(0.4, 1.1)
        got = kernel_n(DistributionKind.P, [p])
        assert np.allclose(got, kernel(DistributionKind.P, p).matrix, rtol=0, atol=1e-15)

    def test_trace_is_one_for_any_kind(self, rng):
        pts = [
            SphericalPoint(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            for _ in range(3)
        ]
        for kind in DistributionKind:
            big = kernel_n(kind, pts)
            assert np.trace(big).real == pytest.approx(1.0, abs=1e-13)
