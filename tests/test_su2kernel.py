"""Kernel construction chain: Clebsch-Gordan couplings, tensor operators,
low-order spherical harmonics, and the s-parametrized phase-point kernels.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwigner import (
    DistributionKind,
    InvalidQuantumNumbers,
    NonRealResult,
    SphericalPoint,
    UnsupportedOrder,
    clebsch_gordan,
    evaluate,
    ito,
    kernel,
    kernel_grid,
    spherical_harmonic,
    su2kernel,
    validate_density,
)
from spinwigner.su2kernel import _PAULIS, _pauli_coefficients, _pauli_table, _point_kernels

from dense_oracle import closed_form_kernel

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
ALL_KINDS = list(DistributionKind)


class TestClebschGordan:
    # hand-checked values in the Condon-Shortley convention
    CASES = [
        ((0.5, 0.5, 0.5, -0.5, 0.0, 0.0), 1.0 / SQRT2),
        ((0.5, -0.5, 0.5, 0.5, 0.0, 0.0), -1.0 / SQRT2),
        ((0.5, 0.5, 0.5, -0.5, 1.0, 0.0), 1.0 / SQRT2),
        ((0.5, 0.5, 0.5, 0.5, 1.0, 1.0), 1.0),
        ((1.0, 0.0, 0.5, 0.5, 0.5, 0.5), -1.0 / SQRT3),
        ((1.0, 1.0, 0.5, -0.5, 0.5, 0.5), math.sqrt(2.0 / 3.0)),
        ((1.0, 0.0, 0.5, 0.5, 1.5, 0.5), math.sqrt(2.0 / 3.0)),
        ((0.5, 0.5, 1.0, 0.0, 0.5, 0.5), 1.0 / SQRT3),
        ((0.5, 0.5, 1.0, -1.0, 0.5, -0.5), math.sqrt(2.0 / 3.0)),
    ]

    @pytest.mark.parametrize("args, expected", CASES)
    def test_reference_values(self, args, expected):
        assert clebsch_gordan(*args) == pytest.approx(expected, abs=1e-15)

    def test_m_selection_rule(self):
        assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 1.0, 0.0) == 0.0

    def test_triangle_rule(self):
        assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 2.0, 0.0) == 0.0

    def test_rejects_m_exceeding_j(self):
        with pytest.raises(InvalidQuantumNumbers):
            clebsch_gordan(0.5, 1.5, 0.5, -0.5, 1.0, 1.0)

    def test_rejects_non_half_integral(self):
        with pytest.raises(InvalidQuantumNumbers):
            clebsch_gordan(0.3, 0.3, 0.5, 0.5, 1.0, 0.8)

    def test_rejects_integer_j_with_half_integer_m(self):
        with pytest.raises(InvalidQuantumNumbers):
            clebsch_gordan(1.0, 0.5, 0.5, 0.0, 1.5, 0.5)

    @pytest.mark.parametrize("j1, j2", [(0.5, 0.5), (1.0, 0.5)])
    def test_orthogonality(self, j1, j2):
        # rows of the coupling matrix (fixed M sector) are orthonormal
        m1s = np.arange(-j1, j1 + 1)
        m2s = np.arange(-j2, j2 + 1)
        js = np.arange(abs(j1 - j2), j1 + j2 + 1)
        for ja in js:
            for jb in js:
                for ma in np.arange(-min(ja, jb), min(ja, jb) + 1):
                    acc = sum(
                        clebsch_gordan(j1, m1, j2, m2, ja, ma)
                        * clebsch_gordan(j1, m1, j2, m2, jb, ma)
                        for m1 in m1s
                        for m2 in m2s
                    )
                    expected = 1.0 if ja == jb else 0.0
                    assert acc == pytest.approx(expected, abs=1e-14)

    def test_against_symbolic_reference(self):
        sympy = pytest.importorskip("sympy")
        from sympy.physics.quantum.cg import CG

        half = sympy.Rational(1, 2)
        for j1 in (half, 1, sympy.Rational(3, 2)):
            for j2 in (half, 1):
                for m1 in np.arange(-float(j1), float(j1) + 1):
                    for m2 in np.arange(-float(j2), float(j2) + 1):
                        for J in np.arange(abs(float(j1) - float(j2)), float(j1) + float(j2) + 1):
                            M = m1 + m2
                            if abs(M) > J:
                                continue
                            ref = float(
                                CG(
                                    j1,
                                    sympy.Rational(m1).limit_denominator(2),
                                    j2,
                                    sympy.Rational(m2).limit_denominator(2),
                                    sympy.Rational(J).limit_denominator(2),
                                    sympy.Rational(M).limit_denominator(2),
                                )
                                .doit()
                                .evalf(20)
                            )
                            got = clebsch_gordan(float(j1), m1, float(j2), m2, J, M)
                            assert got == pytest.approx(ref, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        jj1=st.integers(0, 4),
        jj2=st.integers(0, 4),
        data=st.data(),
    )
    def test_property_matches_symbolic(self, jj1, jj2, data):
        sympy = pytest.importorskip("sympy")
        from sympy.physics.quantum.cg import CG

        mm1 = data.draw(st.integers(-jj1, jj1).filter(lambda m: (m + jj1) % 2 == 0))
        mm2 = data.draw(st.integers(-jj2, jj2).filter(lambda m: (m + jj2) % 2 == 0))
        JJ = data.draw(
            st.integers(abs(jj1 - jj2), jj1 + jj2).filter(
                lambda j: (j + jj1 + jj2) % 2 == 0
            )
        )
        MM = mm1 + mm2
        if abs(MM) > JJ:
            return
        got = clebsch_gordan(jj1 / 2, mm1 / 2, jj2 / 2, mm2 / 2, JJ / 2, MM / 2)
        ref = float(
            CG(
                sympy.Rational(jj1, 2),
                sympy.Rational(mm1, 2),
                sympy.Rational(jj2, 2),
                sympy.Rational(mm2, 2),
                sympy.Rational(JJ, 2),
                sympy.Rational(MM, 2),
            )
            .doit()
            .evalf(20)
        )
        assert got == pytest.approx(ref, abs=1e-13)


class TestSphericalHarmonic:
    def test_monopole_is_constant(self):
        value = spherical_harmonic(0, 0, SphericalPoint(1.234, 5.0))
        assert value == pytest.approx(0.5 / math.sqrt(math.pi))

    def test_axial_dipole(self):
        theta = 0.77
        value = spherical_harmonic(1, 0, SphericalPoint(theta, 2.0))
        assert value == pytest.approx(math.sqrt(3.0 / (4 * math.pi)) * math.cos(theta))

    def test_raising_component_sign(self):
        theta, phi = math.pi / 2, 0.3
        value = spherical_harmonic(1, 1, SphericalPoint(theta, phi))
        expected = -math.sqrt(3.0 / (8 * math.pi)) * complex(math.cos(phi), math.sin(phi))
        assert value == pytest.approx(expected)

    def test_conjugation_symmetry(self):
        p = SphericalPoint(0.9, 1.7)
        y_plus = spherical_harmonic(1, 1, p)
        y_minus = spherical_harmonic(1, -1, p)
        assert y_minus == pytest.approx(-np.conj(y_plus))

    def test_high_order_rejected(self):
        with pytest.raises(UnsupportedOrder):
            spherical_harmonic(2, 0, SphericalPoint(0.1, 0.1))

    def test_bad_component_rejected(self):
        with pytest.raises(InvalidQuantumNumbers):
            spherical_harmonic(1, 2, SphericalPoint(0.1, 0.1))

    def test_non_finite_point_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            for theta, phi in ((bad, 0.0), (0.0, bad)):
                with pytest.raises(ValueError, match="^theta and phi must be finite$"):
                    SphericalPoint(theta, phi)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("form", [float, np.float64, lambda x: np.array([0.5, x])],
                             ids=["float", "float64", "array"])
    def test_angle_rule_has_one_message_for_every_form(self, bad, form):
        # scalars are read by math.isfinite and arrays by np.isfinite: one rule
        for theta, phi in ((form(bad), form(0.5)), (form(0.5), form(bad))):
            with pytest.raises(ValueError, match="^theta and phi must be finite$"):
                su2kernel._check_angles(theta, phi)
            with pytest.raises(ValueError, match="^theta and phi must be finite$"):
                if isinstance(theta, np.ndarray):
                    kernel_grid(DistributionKind.WIGNER, theta, phi)
                else:
                    SphericalPoint(theta, phi)
        su2kernel._check_angles(form(0.5), form(1.5))

    @pytest.mark.parametrize("theta, phi", [(np.array([0.1, 0.2]), 0.0), (0.1, [0.0])])
    def test_point_of_arrays_rejected(self, theta, phi):
        # the kernels take angle arrays; a point holds one pair
        with pytest.raises(TypeError):
            SphericalPoint(theta, phi)


class TestIto:
    def test_table(self):
        expected = {
            (0, 0): np.eye(2) / SQRT2,
            (1, 0): np.diag([-1.0, 1.0]) / SQRT2,
            (1, -1): np.array([[0.0, 0.0], [1.0, 0.0]]),
            (1, 1): np.array([[0.0, -1.0], [0.0, 0.0]]),
        }
        for (L, M), ref in expected.items():
            assert np.allclose(ito(L, M), ref, atol=1e-15), (L, M)

    def test_orthonormal_under_trace(self):
        labels = [(0, 0), (1, -1), (1, 0), (1, 1)]
        for a in labels:
            for b in labels:
                t_a, t_b = ito(*a), ito(*b)
                inner = np.trace(t_a.conj().T @ t_b)
                assert inner == pytest.approx(1.0 if a == b else 0.0, abs=1e-15)

    def test_rank_out_of_range(self):
        with pytest.raises(UnsupportedOrder):
            ito(2, 0)

    def test_component_out_of_range(self):
        with pytest.raises(InvalidQuantumNumbers):
            ito(1, 2)

    def test_returned_copy_is_writable(self):
        t = ito(1, 0)
        t[0, 0] = 99.0  # must not poison the cache
        assert np.allclose(ito(1, 0), np.diag([-1.0, 1.0]) / SQRT2)


class TestKernel:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_closed_form(self, kind, rng):
        for _ in range(25):
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(0.0, 2 * math.pi)
            k = kernel(kind, SphericalPoint(theta, phi)).matrix
            assert np.allclose(k, closed_form_kernel(kind, theta, phi), atol=1e-14)

    def test_wigner_north_pole(self):
        k = kernel(DistributionKind.WIGNER, SphericalPoint(0.0, 0.0)).matrix
        assert np.allclose(k, np.diag([(1 - SQRT3) / 2, (1 + SQRT3) / 2]), atol=1e-15)

    def test_husimi_north_pole_is_projector(self):
        k = kernel(DistributionKind.Q, SphericalPoint(0.0, 0.0)).matrix
        assert np.allclose(k, np.diag([0.0, 1.0]), atol=1e-15)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_hermitian_on_grid(self, kind):
        thetas = np.linspace(0.0, math.pi, 20)
        phis = np.linspace(0.0, 2 * math.pi, 20)
        worst = 0.0
        for theta in thetas:
            for phi in phis:
                k = kernel(kind, SphericalPoint(theta, phi)).matrix
                worst = max(worst, np.abs(k - k.conj().T).max())
        assert worst <= 1e-13

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_unit_trace_everywhere(self, kind, rng):
        for _ in range(50):
            point = SphericalPoint(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            k = kernel(kind, point).matrix
            assert np.trace(k).real == pytest.approx(1.0, abs=1e-14)
            assert abs(np.trace(k).imag) <= 1e-15

    def test_husimi_kernel_is_rank_one_projector(self, rng):
        for _ in range(25):
            point = SphericalPoint(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            k = kernel(DistributionKind.Q, point).matrix
            eigs = np.linalg.eigvalsh(k)
            assert np.allclose(eigs, [0.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_angle_average_is_identity(self, kind):
        # (2pi)^{-1} * integral of the kernel over the sphere equals 1
        order = 32
        nodes, weights = np.polynomial.legendre.leggauss(order)
        thetas = np.arccos(nodes)
        n_phi = 2 * order
        phis = np.arange(n_phi) * (2 * math.pi / n_phi)
        acc = np.zeros((2, 2), dtype=complex)
        for theta, w in zip(thetas, weights):
            for phi in phis:
                acc += w * kernel(kind, SphericalPoint(theta, phi)).matrix
        acc *= 2 * math.pi / n_phi
        assert np.allclose(acc / (2 * math.pi), np.eye(2), atol=1e-8)

    def test_grid_matches_pointwise(self):
        thetas = np.linspace(0.0, math.pi, 7)
        phis = np.arange(5) * (2 * math.pi / 5)
        grid = kernel_grid(DistributionKind.WIGNER, thetas[:, None], phis[None, :])
        assert grid.shape == (2, 2, 7, 5)
        for i, theta in enumerate(thetas):
            for j, phi in enumerate(phis):
                single = kernel(DistributionKind.WIGNER, SphericalPoint(theta, phi)).matrix
                assert np.array_equal(grid[:, :, i, j], single)

    def test_qubit_point_pairing(self):
        # |001> means qubit 0 excited: the theta=0 kernel diagonal picks out
        # (1+sqrt3)/2 on that qubit only when pairing is index-faithful
        rho = np.zeros((8, 8), dtype=complex)
        rho[1, 1] = 1.0
        state = validate_density(rho, 3)
        pole = SphericalPoint(0.0, 0.0)
        equator = SphericalPoint(math.pi / 2, 0.0)
        value = evaluate(state, DistributionKind.WIGNER, (pole, equator, equator)).value
        assert value == pytest.approx((1 + SQRT3) / 8, abs=1e-14)
        # same pole on qubit 2 (which is in |0>) sees the other diagonal entry
        flipped = evaluate(state, DistributionKind.WIGNER, (equator, equator, pole)).value
        assert flipped == pytest.approx((1 - SQRT3) / 8, abs=1e-14)

    @pytest.mark.parametrize("kind", [7, 2, -2])
    def test_grid_rejects_unknown_kind(self, kind):
        # s = 7 would otherwise read as a dipole gain of sqrt(3)^7
        with pytest.raises(ValueError):
            kernel_grid(kind, [0.1], [0.0])

    @pytest.mark.parametrize(
        "theta, phi", [([0.1, math.nan], 0.0), (0.1, [0.0, math.inf]), (-math.inf, 0.0)]
    )
    def test_grid_rejects_non_finite_angles(self, theta, phi):
        with pytest.raises(ValueError, match="theta and phi must be finite"):
            kernel_grid(DistributionKind.WIGNER, theta, phi)


class TestPauliCoefficients:
    """The real table under every kernel, pinned to the CG -> ITO -> Y_lm chain."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_reproduced_chain(self, kind, rng):
        thetas = rng.uniform(0.0, math.pi, 8)
        phis = rng.uniform(0.0, 2 * math.pi, 9)
        v = _pauli_coefficients(kind, thetas[:, None], phis[None, :])
        gain = SQRT3 ** int(kind)
        for i, theta in enumerate(thetas):
            for j, phi in enumerate(phis):
                p = SphericalPoint(theta, phi)
                chain = ito(0, 0) * spherical_harmonic(0, 0, p)
                chain = chain + gain * sum(ito(1, m) * spherical_harmonic(1, m, p) for m in (-1, 0, 1))
                chain *= math.sqrt(2 * math.pi)
                got = np.tensordot(_PAULIS, v[:, i, j], axes=1)
                assert np.abs(got - chain).max() <= 1e-15, (theta, phi)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_real_stack_with_identity_half(self, kind, rng):
        thetas = rng.uniform(0.0, math.pi, 7)
        phis = rng.uniform(0.0, 2 * math.pi, 5)
        v = _pauli_coefficients(kind, thetas[:, None], phis[None, :])
        assert v.shape == (4, 7, 5) and v.dtype == np.float64
        assert np.all(v[0] == 0.5)
        table = _pauli_table(kind)
        assert table.shape == (4, 4) and table.dtype == np.float64
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_equal_angle_form(self, kind):
        # what grid_values needs: sin theta cos phi feeds only v_X and sin
        # theta sin phi only v_Y, with opposite signs, and nothing else feeds
        # either, so K[0, 1] = v_X - i v_Y is proportional to e^(i phi)
        table = _pauli_table(kind)
        assert np.count_nonzero(table[:, 2:]) == np.count_nonzero(table[1:3]) == 2
        assert table[1, 2] == -table[2, 3] != 0.0

    def test_imaginary_table_refused(self, monkeypatch):
        # a Y_11 with the wrong sign of its sin(phi) part leaves i*v_X terms
        bad = dict(su2kernel._YLM_ON_BASIS)
        bad[(1, 1)] = (0.0, 0.0, -su2kernel._N11, 1j * su2kernel._N11)
        monkeypatch.setattr(su2kernel, "_YLM_ON_BASIS", bad)
        with pytest.raises(NonRealResult, match="imaginary residue"):
            _pauli_table.__wrapped__(DistributionKind.WIGNER)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_kernel_shapes_and_dtypes(self, kind):
        single = kernel_grid(kind, 0.3, 1.2)
        assert single.shape == (2, 2) and single.dtype == np.complex128
        op = kernel(kind, SphericalPoint(0.3, 1.2))
        assert np.array_equal(op.matrix, single) and not op.matrix.flags.writeable
        grid = kernel_grid(kind, np.zeros((3, 1)), np.zeros((1, 4)))
        assert grid.shape == (2, 2, 3, 4) and grid.dtype == np.complex128


class TestPointKernels:
    """The kernels of point values, one per distinct point, against kernel_grid."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_kernel_grid(self, kind, rng):
        angles = [(float(t), float(p)) for t, p in zip(rng.uniform(0.0, math.pi, 20), rng.uniform(0.0, 2 * math.pi, 20))]
        angles += [(0.0, 0.0), (math.pi, 0.0), (0.0, 1.3), (math.pi, 4.0)]  # the poles
        angles += [(0.7, np.nextafter(2 * math.pi, 0.0)), (2.1, 2 * math.pi - 1e-9), (1.0, 2 * math.pi)]
        for (theta, phi), got in zip(angles, _point_kernels(kind, angles), strict=True):
            assert got.shape == (2, 2) and got.dtype == np.complex128
            assert np.abs(got - kernel_grid(kind, theta, phi)).max() <= 1e-15, (theta, phi)

    def test_repeated_points_share_one_read_only_matrix(self):
        a, b = (0.3, 1.2), (0.3, 1.3)
        ks = _point_kernels(DistributionKind.WIGNER, [a, b, a, a])
        assert ks[0] is ks[2] is ks[3] and ks[1] is not ks[0]
        assert not any(k.flags.writeable for k in ks)

    @pytest.mark.parametrize("theta, phi", [(math.nan, 0.0), (0.1, math.inf), (np.float64(-math.inf), 0.0)])
    def test_rejects_a_non_finite_distinct_point(self, theta, phi):
        with pytest.raises(ValueError, match="theta and phi must be finite"):
            _point_kernels(DistributionKind.WIGNER, [(0.1, 0.2), (theta, phi), (0.1, 0.2)])

    @pytest.mark.parametrize("kind", [7, 2, -2])
    def test_rejects_unknown_kind(self, kind):
        with pytest.raises(ValueError):
            _point_kernels(kind, [(0.1, 0.2)])
