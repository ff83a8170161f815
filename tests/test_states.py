"""GHZ-Werner state family."""

import math

import numpy as np
import pytest

from spinwigner import (
    DistributionKind,
    GhzWernerParams,
    MixingOutOfRange,
    SphericalPoint,
    evaluate,
    ghz_werner,
)

SQRT3 = math.sqrt(3.0)


class TestGhzWerner:
    def test_fully_mixed_limit(self):
        rho = ghz_werner(GhzWernerParams(nu=0.0))
        assert np.allclose(rho.matrix, np.eye(8) / 8.0)

    def test_pure_limit_corners(self):
        rho = ghz_werner(GhzWernerParams(nu=1.0))
        m = rho.matrix
        for i, j in ((0, 0), (0, 7), (7, 0), (7, 7)):
            assert m[i, j] == pytest.approx(0.5)
        assert np.abs(m).sum() == pytest.approx(2.0)

    def test_intermediate_eigenvalues(self):
        rho = ghz_werner(GhzWernerParams(nu=0.5))
        eigs = np.sort(np.linalg.eigvalsh(rho.matrix))
        assert np.allclose(eigs[:-1], 0.0625)
        assert eigs[-1] == pytest.approx(0.5625)

    def test_linearity_in_nu(self):
        lo = ghz_werner(GhzWernerParams(nu=0.2)).matrix
        hi = ghz_werner(GhzWernerParams(nu=0.8)).matrix
        mid = ghz_werner(GhzWernerParams(nu=0.5)).matrix
        assert np.allclose(0.5 * (lo + hi), mid, atol=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_mixing_out_of_range(self, bad):
        with pytest.raises(MixingOutOfRange):
            GhzWernerParams(nu=bad)

    def test_bad_qubit_count(self):
        with pytest.raises(ValueError):
            GhzWernerParams(nu=0.5, n_qubits=0)

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("nu", [0.0, 0.3, 3.0 ** -1.5, 1.0])
    def test_bitwise_the_dense_mixture(self, n, nu):
        dim = 2**n
        v = np.zeros(dim, dtype=complex)
        v[0] = v[-1] = 1.0 / math.sqrt(2.0)  # (|0...0> + |1...1>)/sqrt(2)
        want = nu * np.outer(v, v.conj()) + (1.0 - nu) / dim * np.eye(dim)
        rho = ghz_werner(GhzWernerParams(nu=nu, n_qubits=n))
        assert rho.matrix.dtype == want.dtype and rho.matrix.shape == want.shape
        assert rho.matrix.tobytes() == want.tobytes()
        assert rho.x_shaped

    def test_single_qubit_distribution(self):
        # one-qubit family has the closed form 1/2 + (sqrt3/2) nu sin(theta) cos(phi)
        for nu in (0.0, 0.4, 1.0):
            rho = ghz_werner(GhzWernerParams(nu=nu, n_qubits=1))
            for theta, phi in ((0.3, 0.0), (math.pi / 2, 1.0), (2.0, 4.5)):
                got = evaluate(
                    rho, DistributionKind.WIGNER, (SphericalPoint(theta, phi),)
                ).value
                expected = 0.5 + 0.5 * SQRT3 * nu * math.sin(theta) * math.cos(phi)
                assert got == pytest.approx(expected, abs=1e-14)
