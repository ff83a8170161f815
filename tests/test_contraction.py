"""The per-qubit contraction under every evaluator, in its dense and its
X-shaped layout, against the dense references in ``dense_oracle``, and the
realness check on its results."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwigner import (
    DensityMatrix,
    DistributionKind,
    GhzWernerParams,
    NonRealResult,
    SphericalPoint,
    accelerated_ghz,
    evaluate,
    ghz_werner,
    grid_scan,
    grid_values,
    normalization_check,
    sphere_grid,
    validate_density,
)
from spinwigner.linalg import _X_PAIRS, _certified, _entries, _x_state
from spinwigner.quasiprob import _each_qubit, _pair_sums, _trace, _weights
from spinwigner.su2kernel import _PAULIS

import dense_oracle
from conftest import random_density, random_x_density, x_stack

ORACLE_TOL = 1e-12
# the figure surfaces' grid
THETAS = np.linspace(0.0, math.pi, 91)
PHIS = np.arange(181) * (2.0 * math.pi / 181)


def assert_surface_matches(rho, thetas, phis):
    for kind in DistributionKind:
        want = dense_oracle.equal_angle_surface(rho.matrix, kind, thetas, phis)
        got = grid_values(rho, kind, thetas, phis)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= ORACLE_TOL, kind


angles = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(DistributionKind), data=st.data())
def test_evaluate_matches_kronecker_kernel(n, seed, kind, data):
    rho = random_density(n, np.random.default_rng(seed))
    points = [SphericalPoint(t, p) for t, p in data.draw(st.lists(angles, min_size=n, max_size=n), label="points")]
    want = dense_oracle.point_value(rho.matrix, kind, points)
    assert evaluate(rho, kind, points).value == pytest.approx(want.real, abs=ORACLE_TOL)


def assert_every_evaluator_matches(rho, points, thetas, phis, split_steps=None):
    """evaluate, grid_values, normalization_check and (with ``split_steps``)
    the split grid_scan of every kind, against the dense oracle."""
    m = rho.matrix
    for kind in DistributionKind:
        want = dense_oracle.point_value(m, kind, points[kind])
        assert evaluate(rho, kind, points[kind]).value == pytest.approx(want.real, abs=ORACLE_TOL), kind
        surface = grid_values(rho, kind, thetas, phis)
        assert np.abs(surface - dense_oracle.equal_angle_surface(m, kind, thetas, phis)).max() <= ORACLE_TOL, kind
        want = dense_oracle.normalization(m, kind)
        assert normalization_check(rho, kind) == pytest.approx(want.real, abs=ORACLE_TOL), kind
        if split_steps is not None:
            report = grid_scan(rho, kind, *split_steps, equal_angles=False)
            want = dense_oracle.split_surface(m, kind, report.thetas, report.phis)
            assert np.abs(report.values - want).max() <= ORACLE_TOL, kind


class TestXLayout:
    """States built from an X stack take the (diagonal, anti-diagonal) layout."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_random_x_states_match_the_oracle(self, n, seed, data):
        rng = np.random.default_rng(seed)
        rho = _x_state(x_stack(random_x_density(n, rng)), n)
        assert rho.x_shaped
        points = {
            kind: [SphericalPoint(t, p) for t, p in data.draw(st.lists(angles, min_size=n, max_size=n), label=kind.name)]
            for kind in DistributionKind
        }
        thetas, phis = np.sort(rng.uniform(0.0, math.pi, 7)), rng.uniform(0.0, 2.0 * math.pi, 9)
        assert_every_evaluator_matches(rho, points, thetas, phis, split_steps=(3, 4) if n <= 3 else None)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_one_off_x_pair_takes_the_dense_layout(self, n):
        rng = np.random.default_rng(n)
        m = 0.5 * random_x_density(n, rng) + 0.5 * np.eye(2**n) / 2**n  # smallest eigenvalue >= 2^-(n+1)
        # (0, 1) is off the X for 2^n >= 4; a Hermitian pair of modulus 2^-(n+2)
        # moves no eigenvalue by more than that
        m[0, 1] = 2.0 ** -(n + 2) * (0.6 + 0.8j)
        m[1, 0] = np.conj(m[0, 1])
        rho = validate_density(m, n)
        assert not rho.x_shaped
        points = {kind: [SphericalPoint(0.4 + 0.3 * q, 1.1 * q) for q in range(n)] for kind in DistributionKind}
        assert_every_evaluator_matches(rho, points, THETAS[::15], PHIS[::20], split_steps=(3, 4) if n <= 3 else None)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_direct_instance_takes_the_dense_layout(self, rng, n):
        # a dense matrix wrapped without validation: the X layout would drop
        # every entry off the two diagonals
        rho = DensityMatrix(matrix=np.array(random_density(n, rng).matrix), n_qubits=n)
        assert not rho.x_shaped
        points = {kind: [SphericalPoint(2.5 - 0.3 * q, 0.7 * q) for q in range(n)] for kind in DistributionKind}
        assert_every_evaluator_matches(rho, points, THETAS[::15], PHIS[::20], split_steps=(3, 4) if n <= 3 else None)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_both_layouts_agree_on_ghz_werner(self, n):
        rho = accelerated_ghz(0.7, n // 2, 0.6, n_qubits=n)
        dense = validate_density(rho.matrix, n)
        assert rho.x_shaped and not dense.x_shaped
        ops = [np.arange(4.0).reshape(2, 2) + 1j] * n
        x, dense_rows = (_trace(e, _weights(ops, digits)) for e, digits in (_entries(rho), _entries(dense)))
        np.testing.assert_allclose(x, dense_rows, rtol=1e-14, atol=1e-14)
        # the stack and the matrix land every entry in the same slot
        np.testing.assert_allclose(_pair_sums(*_entries(rho), n), _pair_sums(*_entries(dense), n), rtol=0, atol=1e-15)


def test_split_scan_of_an_x_state_reads_its_stack():
    # the correlation tensor comes from the stack, so no dense matrix is scattered
    rho = accelerated_ghz(0.7, 3, 0.5)
    assert rho.x_shaped and rho._matrix is None
    report = grid_scan(rho, DistributionKind.WIGNER, 3, 4, equal_angles=False)
    assert rho._matrix is None
    want = dense_oracle.split_surface(rho.matrix, DistributionKind.WIGNER, report.thetas, report.phis)
    assert np.abs(report.values - want).max() <= ORACLE_TOL


@pytest.mark.parametrize("n", [1, 3, 7])
def test_x_trace_of_a_batch_is_each_state_traced_alone(rng, n):
    stack = rng.standard_normal((4, 3, 2, 2**n)) + 1j * rng.standard_normal((4, 3, 2, 2**n))
    ops = list(rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2)))
    weights = _weights(ops, _X_PAIRS)
    got = _trace(stack, weights)
    assert got.shape == (4, 3)
    for i, j in np.ndindex(4, 3):
        assert got[i, j] == _trace(stack[i, j], weights)


@pytest.mark.parametrize("n", [1, 3, 7])
def test_pair_sums_of_a_batch_are_each_state_alone(rng, n):
    stack = rng.standard_normal((4, 3, 2, 2**n)) + 1j * rng.standard_normal((4, 3, 2, 2**n))
    got = _pair_sums(stack, _X_PAIRS, n)
    assert got.shape == (4, 3, n + 1, n + 1, 2 * n + 1)
    for i, j in np.ndindex(4, 3):
        np.testing.assert_array_equal(got[i, j], _pair_sums(stack[i, j], _X_PAIRS, n))


class TestEqualAngleSurface:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_dense_states(self, rng, n):
        # n = 6 on a coarser grid: the reference loop makes 4^6 surface products per kind
        thetas, phis = (THETAS, PHIS) if n <= 5 else (THETAS[::3], PHIS[::3])
        assert_surface_matches(random_density(n, rng), thetas, phis)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_ghz_werner(self, n):
        assert_surface_matches(ghz_werner(GhzWernerParams(nu=0.63, n_qubits=n)), THETAS, PHIS)

    @pytest.mark.parametrize(
        "accelerated, n", [(1, 3), (2, 3), (3, 3), ((0, 2), 3), ((1, 3), 4), (5, 5)]
    )
    def test_accelerated_states(self, accelerated, n):
        assert_surface_matches(accelerated_ghz(0.8, accelerated, 0.55, n_qubits=n), THETAS, PHIS)

    @pytest.mark.parametrize("kind", list(DistributionKind))
    @pytest.mark.parametrize("layout", ["dense", "x"])
    def test_north_pole_row_is_constant(self, rng, kind, layout):
        # at theta = 0 every monomial with a sin theta factor is 0, so the row
        # is one theta-factor entry times cos^0 phi sin^0 phi = 1, bit for bit
        for n in (2, 3, 5):
            if layout == "dense":
                rho = random_density(n, rng)
            else:
                rho = _x_state(x_stack(random_x_density(n, rng)), n)
            assert rho.x_shaped == (layout == "x")
            row = grid_values(rho, kind, THETAS[:3], PHIS)[0]
            assert np.array_equal(row, np.full_like(row, row[0])), n

    @pytest.mark.parametrize("n", [8, 9])
    def test_large_x_states_match_evaluate(self, rng, n):
        # evaluate is an O(2^n) path of its own: one 2x2 kernel per qubit
        rho = _x_state(x_stack(random_x_density(n, rng)), n)
        assert rho.x_shaped
        thetas, phis = np.sort(rng.uniform(0.0, math.pi, 7)), rng.uniform(0.0, 2.0 * math.pi, 9)
        for kind in DistributionKind:
            surface = grid_values(rho, kind, thetas, phis)
            for i, theta in enumerate(thetas):
                for j, phi in enumerate(phis):
                    want = evaluate(rho, kind, [SphericalPoint(theta, phi)] * n).value
                    assert abs(surface[i, j] - want) <= 1e-12 * max(1.0, abs(want)), (kind, i, j)

    def test_sixteen_qubit_x_state_never_forms_the_matrix(self):
        # the state's dense matrix would be 4^16 x 16 B = 64 GiB, its Pauli
        # correlation tensor as much; the stack is 2 x 2^16 x 16 B = 2 MiB
        rho = accelerated_ghz(0.7, 16, 0.5, n_qubits=16)
        tracemalloc.start()
        try:
            surface = grid_values(rho, DistributionKind.WIGNER, THETAS, PHIS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert rho._matrix is None
        assert surface.shape == (91, 181) and np.isfinite(surface).all()


@pytest.mark.parametrize("n, theta_steps, phi_steps", [(2, 9, 14), (3, 5, 6)])
def test_split_scan_matches_dense_loop(rng, n, theta_steps, phi_steps):
    rho = random_density(n, rng)
    for kind in DistributionKind:
        report = grid_scan(rho, kind, theta_steps, phi_steps, equal_angles=False)
        want = dense_oracle.split_surface(rho.matrix, kind, report.thetas, report.phis)
        assert report.values.shape == (theta_steps, phi_steps) * n
        assert np.abs(report.values - want).max() <= ORACLE_TOL
        assert report.min_value == pytest.approx(want.real.min(), abs=ORACLE_TOL)
        assert report.max_value == pytest.approx(want.real.max(), abs=ORACLE_TOL)
        # the reported argmin is a point where the reference takes its minimum
        value = dense_oracle.point_value(rho.matrix, kind, report.argmin)
        assert value.real == pytest.approx(want.real.min(), abs=ORACLE_TOL)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_normalization_matches_kronecker_quadrature(rng, n):
    rho = random_density(n, rng)
    for kind in DistributionKind:
        want = dense_oracle.normalization(rho.matrix, kind)
        assert normalization_check(rho, kind) == pytest.approx(want.real, abs=ORACLE_TOL)


def test_pauli_correlation_tensor(rng):
    # T as the split scan takes it: the dense entries, lowest qubit leading
    rho = random_density(3, rng)
    entries, _ = _entries(rho)
    corr = _each_qubit(entries.reshape(4, 4, 4).T, _PAULIS.reshape(4, 4)).reshape(4, 4, 4)
    assert corr.shape == (4, 4, 4)
    for mu in [(0, 0, 0), (3, 0, 0), (1, 2, 3), (2, 2, 1), (0, 3, 1)]:
        # qubit 0 is the last Kronecker factor
        sigma = np.kron(np.kron(_PAULIS[..., mu[2]], _PAULIS[..., mu[1]]), _PAULIS[..., mu[0]])
        assert corr[mu] == pytest.approx(np.trace(rho.matrix @ sigma), abs=1e-15)
    assert corr[0, 0, 0] == pytest.approx(1.0, abs=1e-15)


class TestRealnessCheck:
    """A non-Hermitian matrix wrapped without validation: every evaluator refuses it."""

    @pytest.fixture
    def skewed(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 0] += 1e-3j
        return DensityMatrix(matrix=m, n_qubits=2)

    POINTS = (SphericalPoint(0.7, 0.3), SphericalPoint(2.0, 4.0))

    @pytest.mark.parametrize("kind", list(DistributionKind))
    def test_evaluate(self, skewed, kind):
        with pytest.raises(NonRealResult, match="evaluate: imaginary residue"):
            evaluate(skewed, kind, self.POINTS)

    @pytest.mark.parametrize("kind", list(DistributionKind))
    def test_grid_values(self, skewed, kind):
        with pytest.raises(NonRealResult, match="grid values: imaginary residue"):
            grid_values(skewed, kind, THETAS[::10], PHIS[::10])

    @pytest.mark.parametrize("equal_angles", [True, False])
    def test_grid_scan(self, skewed, equal_angles):
        with pytest.raises(NonRealResult, match="imaginary residue"):
            grid_scan(skewed, DistributionKind.WIGNER, 5, 6, equal_angles=equal_angles)

    @pytest.mark.parametrize("kind", list(DistributionKind))
    def test_normalization_check(self, skewed, kind):
        with pytest.raises(NonRealResult, match="normalization_check: imaginary residue"):
            normalization_check(skewed, kind)

    @pytest.mark.parametrize("evaluator", ["evaluate", "grid_values", "grid_scan", "split_scan", "normalization_check"])
    def test_flagged_x_instance_is_checked_too(self, skewed, evaluator):
        # the same diagonal residue, on the X layout: validation would refuse
        # this matrix, so the stack is set through its private setter
        rho = _certified(skewed.matrix, 2, math.nan, x_stack(skewed.matrix))
        run = {
            "evaluate": lambda: evaluate(rho, DistributionKind.WIGNER, self.POINTS),
            "grid_values": lambda: grid_values(rho, DistributionKind.WIGNER, THETAS[::10], PHIS[::10]),
            "grid_scan": lambda: grid_scan(rho, DistributionKind.WIGNER, 5, 6),
            "split_scan": lambda: grid_scan(rho, DistributionKind.WIGNER, 5, 6, equal_angles=False),
            "normalization_check": lambda: normalization_check(rho, DistributionKind.WIGNER),
        }[evaluator]
        with pytest.raises(NonRealResult, match="imaginary residue"):
            run()

    def test_residue_below_tolerance_passes(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 0] += 1e-13j
        rho = DensityMatrix(matrix=m, n_qubits=2)
        assert evaluate(rho, DistributionKind.WIGNER, self.POINTS).value == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("residue, raises", [(0.9e-10, False), (1.1e-10, True)])
    def test_grid_values_checks_the_pair_sums(self, residue, raises):
        # grid_values checks the pair sums S (imaginary parts 0 or residue
        # here), not W: at theta = pi the P surface's own residue is 4 times larger
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 0] += residue * 1j
        thetas, phis = np.array([1.0, math.pi]), np.array([0.0, 2.0])
        w = dense_oracle.equal_angle_surface(m, DistributionKind.P, thetas, phis)
        assert np.abs(w.imag).max() == pytest.approx(4.0 * residue, rel=1e-6)
        self.assert_grid_values_check(m, thetas, phis, w, raises)

    @pytest.mark.parametrize("residue, raises", [(0.9e-10, False), (1.1e-10, True)])
    def test_grid_values_checks_off_diagonal_pair_sums(self, residue, raises):
        # m[0, 1] - conj(m[1, 0]) = 2 residue: the skew sits in the slots of
        # the harmonics -1 and +1, S[0, 1, n - 1] - conj(S[0, 1, n + 1]), and
        # reaches W through sin phi
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1], m[1, 0] = 0.1 + residue, 0.1 - residue
        thetas, phis = np.array([1.0, 2.0]), np.array([0.0, 2.0])
        w = dense_oracle.equal_angle_surface(m, DistributionKind.P, thetas, phis)
        assert np.abs(w.imag).max() > 0.0
        self.assert_grid_values_check(m, thetas, phis, w, raises)

    @staticmethod
    def assert_grid_values_check(m, thetas, phis, w, raises):
        """grid_values of the P kernel on ``m`` refuses it, or returns the
        real part of the oracle's surface ``w``."""
        rho = DensityMatrix(matrix=m, n_qubits=2)
        if raises:
            with pytest.raises(NonRealResult, match="grid values: imaginary residue"):
                grid_values(rho, DistributionKind.P, thetas, phis)
        else:
            out = grid_values(rho, DistributionKind.P, thetas, phis)
            np.testing.assert_allclose(out, w.real, rtol=0, atol=ORACLE_TOL)

    @pytest.mark.parametrize("residue, raises", [(0.9e-10, False), (1.1e-10, True)])
    def test_split_scan_checks_the_correlation_tensor(self, residue, raises):
        # T is checked, and W's residue, 4 times larger where both qubits
        # sit at theta = pi, is never formed
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 0] += residue * 1j
        rho = DensityMatrix(matrix=m, n_qubits=2)
        thetas, phis = sphere_grid(3, 4)
        w = dense_oracle.split_surface(m, DistributionKind.P, thetas, phis)
        assert np.abs(w.imag).max() == pytest.approx(4.0 * residue, rel=1e-6)
        if raises:
            with pytest.raises(NonRealResult, match="grid scan: imaginary residue"):
                grid_scan(rho, DistributionKind.P, 3, 4, equal_angles=False)
        else:
            out = grid_scan(rho, DistributionKind.P, 3, 4, equal_angles=False).values
            np.testing.assert_allclose(out, w.real, rtol=0, atol=ORACLE_TOL)
