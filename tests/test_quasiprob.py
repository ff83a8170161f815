"""Distribution evaluation, scans, normalization, and closed-form checks."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwigner import (
    ClosedFormVariant,
    DimensionError,
    DistributionKind,
    GhzWernerParams,
    SphericalPoint,
    accelerated_ghz,
    closed_form,
    compare_closed_form,
    evaluate,
    ghz_werner,
    grid_scan,
    grid_values,
    negativity_threshold,
    normalization_check,
    quasiprob,
    scan_min_vs_r,
    sphere_grid,
    su2kernel,
    validate_density,
)

from conftest import random_density

SQRT3 = math.sqrt(3.0)
PROBE = SphericalPoint(math.pi / 2.0, math.pi)
POINT_LAW_MIN = (1.0 - 3.0 * SQRT3) / 8.0
NU_STAR = 1.0 / (3.0 * SQRT3)

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


class TestEvaluate:
    def test_fully_mixed_is_constant(self, rng):
        rho = ghz_werner(GhzWernerParams(nu=0.0))
        for kind in DistributionKind:
            for _ in range(5):
                pts = tuple(
                    SphericalPoint(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                    for _ in range(3)
                )
                assert evaluate(rho, kind, pts).value == pytest.approx(0.125, abs=1e-14)

    def test_pure_ghz_deepest_point(self):
        rho = ghz_werner(GhzWernerParams(nu=1.0))
        got = evaluate(rho, DistributionKind.WIGNER, (PROBE,) * 3).value
        assert got == pytest.approx(POINT_LAW_MIN, abs=1e-12)

    def test_accelerated_pole_value(self):
        rho = accelerated_ghz(1.0, 1, math.pi / 4.0)
        pole = SphericalPoint(0.0, 0.0)
        got = evaluate(rho, DistributionKind.WIGNER, (pole,) * 3).value
        assert got == pytest.approx(1.3080127019, abs=1e-9)
        assert got == pytest.approx((7.0 + 2.0 * SQRT3) / 8.0, abs=1e-12)

    def test_linear_in_state(self, rng):
        a = random_density(2, rng).matrix
        b = random_density(2, rng).matrix
        mix = validate_density(0.3 * a + 0.7 * b, 2)
        pts = (SphericalPoint(0.7, 0.2), SphericalPoint(2.1, 5.9))
        va = evaluate(validate_density(a, 2), DistributionKind.WIGNER, pts).value
        vb = evaluate(validate_density(b, 2), DistributionKind.WIGNER, pts).value
        vm = evaluate(mix, DistributionKind.WIGNER, pts).value
        assert vm == pytest.approx(0.3 * va + 0.7 * vb, abs=1e-13)

    def test_wrong_point_count(self, rng):
        rho = random_density(2, rng)
        with pytest.raises(DimensionError):
            evaluate(rho, DistributionKind.WIGNER, (PROBE,))

    @settings(max_examples=25, deadline=None)
    @given(
        nu=st.floats(0.0, 1.0),
        theta=st.floats(0.0, math.pi),
        phi=st.floats(0.0, 2.0 * math.pi),
    )
    def test_ghz_matches_closed_form_property(self, nu, theta, phi):
        rho = ghz_werner(GhzWernerParams(nu=nu))
        pt = SphericalPoint(theta, phi)
        got = evaluate(rho, DistributionKind.WIGNER, (pt,) * 3).value
        want = closed_form(ClosedFormVariant.GHZ, theta, phi, nu)
        assert got == pytest.approx(want, abs=1e-12)


class TestGridValues:
    def test_matches_pointwise_evaluation(self, rng):
        rho = random_density(3, rng)
        thetas = np.linspace(0.0, math.pi, 6)
        phis = np.arange(5) * (2.0 * math.pi / 5)
        for kind in DistributionKind:
            grid = grid_values(rho, kind, thetas, phis)
            for i in (0, 3, 5):
                for j in (0, 2, 4):
                    pt = SphericalPoint(float(thetas[i]), float(phis[j]))
                    single = evaluate(rho, kind, (pt,) * 3).value
                    assert grid[i, j] == pytest.approx(single, abs=1e-13)

    def test_rejects_unknown_kind(self):
        rho = ghz_werner(GhzWernerParams(nu=1.0))
        with pytest.raises(ValueError):
            grid_values(rho, 7, [0.1], [0.0])

    def test_rejects_nan_theta(self):
        rho = ghz_werner(GhzWernerParams(nu=1.0))
        with pytest.raises(ValueError, match="theta and phi must be finite"):
            grid_values(rho, DistributionKind.WIGNER, [0.1, math.nan], [0.0, 1.0])

    @pytest.mark.parametrize("thetas, phis", [([], [0.0, 1.0]), ([0.1, 0.2], [])])
    def test_rejects_empty_axis(self, thetas, phis):
        rho = ghz_werner(GhzWernerParams(nu=1.0))
        with pytest.raises(DimensionError, match="non-empty 1-D"):
            grid_values(rho, DistributionKind.WIGNER, thetas, phis)

    @pytest.mark.parametrize("thetas, phis", [([[0.1, 0.2]], [0.0]), ([0.1], [[0.0, 1.0]]), (0.1, [0.0])])
    def test_rejects_axes_that_are_not_1d(self, thetas, phis):
        rho = ghz_werner(GhzWernerParams(nu=1.0))
        with pytest.raises(DimensionError, match="non-empty 1-D"):
            grid_values(rho, DistributionKind.WIGNER, thetas, phis)


class TestSphereGrid:
    def test_axes(self):
        thetas, phis = sphere_grid(91, 181)
        assert np.array_equal(thetas, np.linspace(0.0, math.pi, 91))
        assert np.array_equal(phis, np.arange(181) * (2.0 * math.pi / 181))

    @pytest.mark.parametrize("theta_steps, phi_steps", [(1, 10), (10, 1), (0, 0)])
    def test_rejects_fewer_than_two_steps(self, theta_steps, phi_steps):
        with pytest.raises(DimensionError, match="theta_steps and phi_steps must both be at least 2"):
            sphere_grid(theta_steps, phi_steps)

    def test_grid_scan_and_compare_closed_form_share_it(self):
        thetas, phis = sphere_grid(7, 9)
        report = grid_scan(ghz_werner(GhzWernerParams(nu=0.5)), DistributionKind.WIGNER, 7, 9)
        assert np.array_equal(report.thetas, thetas) and np.array_equal(report.phis, phis)
        with pytest.raises(DimensionError, match="at least 2"):
            compare_closed_form(ClosedFormVariant.GHZ, 0.5, 0.0, 1, 9)


class TestGridScan:
    def test_rejects_degenerate_grid(self):
        rho = ghz_werner(GhzWernerParams(nu=0.5))
        with pytest.raises(DimensionError):
            grid_scan(rho, DistributionKind.WIGNER, 1, 10)
        with pytest.raises(DimensionError):
            grid_scan(rho, DistributionKind.WIGNER, 10, 1)

    def test_fully_mixed_scan_is_flat(self):
        rho = ghz_werner(GhzWernerParams(nu=0.0))
        report = grid_scan(rho, DistributionKind.WIGNER, 11, 12)
        assert report.min_value == pytest.approx(0.125, abs=1e-14)
        assert report.max_value == pytest.approx(0.125, abs=1e-14)
        assert report.negative_fraction == 0.0
        assert report.negative_volume == 0.0

    def test_pure_ghz_minimum_location(self):
        # theta = pi/2 and phi in {pi/3, pi, 5pi/3} lie on this grid exactly
        rho = ghz_werner(GhzWernerParams(nu=1.0))
        report = grid_scan(rho, DistributionKind.WIGNER, 181, 180)
        assert report.min_value == pytest.approx(POINT_LAW_MIN, abs=1e-12)
        pt = report.argmin[0]
        assert pt.theta == pytest.approx(math.pi / 2.0, abs=1e-12)
        candidates = (math.pi / 3.0, math.pi, 5.0 * math.pi / 3.0)
        assert min(abs(pt.phi - c) for c in candidates) < 1e-12
        assert 0.0 < report.negative_fraction < 0.5
        assert report.negative_volume > 0.0

    def test_independent_angles_contain_equal_diagonal(self):
        rho = ghz_werner(GhzWernerParams(nu=0.7))
        eq = grid_scan(rho, DistributionKind.WIGNER, 5, 4, equal_angles=True)
        full = grid_scan(rho, DistributionKind.WIGNER, 5, 4, equal_angles=False)
        assert full.values.shape == (5, 4) * 3
        for i in range(5):
            for j in range(4):
                assert full.values[i, j, i, j, i, j] == pytest.approx(
                    eq.values[i, j], abs=1e-13
                )
        assert full.min_value <= eq.min_value + 1e-15

    def test_independent_angles_fully_mixed_flat(self):
        rho = ghz_werner(GhzWernerParams(nu=0.0))
        report = grid_scan(rho, DistributionKind.WIGNER, 4, 3, equal_angles=False)
        assert np.allclose(report.values, 0.125, atol=1e-14)

    @pytest.mark.parametrize(
        "n, theta_steps, phi_steps, cells",
        [(3, 91, 181, "4,468,480,855,111"), (2, 45, 45, "4,100,625")],
    )
    def test_oversized_independent_scan_refused_before_allocating(
        self, monkeypatch, n, theta_steps, phi_steps, cells
    ):
        def no_kernels(*args, **kwargs):
            raise AssertionError("kernel built for a refused scan")

        # the one builder under every kernel, bound in both modules
        monkeypatch.setattr(su2kernel, "_pauli_coefficients", no_kernels)
        monkeypatch.setattr(quasiprob, "_pauli_coefficients", no_kernels)
        rho = ghz_werner(GhzWernerParams(nu=0.7, n_qubits=n))
        with pytest.raises(DimensionError, match=f"needs {cells} cells, more than the 4,000,000 allowed"):
            grid_scan(rho, DistributionKind.WIGNER, theta_steps, phi_steps, equal_angles=False)

    @pytest.mark.parametrize("nu, k, r", TEN_STATES)
    def test_husimi_never_negative(self, nu, k, r):
        rho = accelerated_ghz(nu, k, r)
        report = grid_scan(rho, DistributionKind.Q, 91, 181)
        assert report.min_value >= -1e-12


class TestNormalization:
    @pytest.mark.parametrize("nu, k, r", TEN_STATES)
    def test_unit_total_mass(self, nu, k, r):
        rho = accelerated_ghz(nu, k, r)
        for kind in DistributionKind:
            assert normalization_check(rho, kind) == pytest.approx(1.0, abs=1e-8)

    def test_random_states(self, rng):
        for n in (1, 2, 3):
            rho = random_density(n, rng)
            got = normalization_check(rho, DistributionKind.WIGNER)
            assert got == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_cached_mean_equals_a_fresh_quadrature(self, rng, n):
        rho = random_density(n, rng)
        nodes, weights = np.polynomial.legendre.leggauss(quasiprob.QUAD_ORDER)
        n_phi = 2 * quasiprob.QUAD_ORDER
        phis = np.arange(n_phi) * (2.0 * math.pi / n_phi)
        for kind in DistributionKind:
            v = su2kernel._pauli_coefficients(kind, np.arccos(nodes)[:, None], phis[None, :])
            op = su2kernel._PAULIS @ ((v * weights[:, None]).sum(axis=(1, 2)) / n_phi)
            want = float(quasiprob._contract(rho, [op] * n).real)
            for _ in range(2):  # the first call may fill the cache, the second reads it
                assert normalization_check(rho, kind) == want
            cached = quasiprob._quadrature_mean(kind)
            np.testing.assert_array_equal(cached, op)
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0, 0] = 0.0


class TestClosedForms:
    def test_ghz_north_pole(self):
        assert closed_form(ClosedFormVariant.GHZ, 0.0, 0.0, 1.0) == pytest.approx(1.25)

    def test_ghz_matches_numeric(self):
        for nu in (0.0, 0.2, 0.3, 0.5, 1.0):
            c = compare_closed_form(ClosedFormVariant.GHZ, nu)
            assert c.status == "MATCH"
            assert c.max_abs_diff <= 1e-12

    def test_one_accelerated_reduces_to_ghz_at_r_zero(self):
        thetas = np.linspace(0.0, math.pi, 40)
        phis = np.arange(40) * (2.0 * math.pi / 40)
        a = closed_form
        worst = 0.0
        for theta in thetas[::7]:
            for phi in phis[::7]:
                diff = abs(
                    a(ClosedFormVariant.ACC1, theta, phi, 0.6, 0.0)
                    - a(ClosedFormVariant.GHZ, theta, phi, 0.6)
                )
                worst = max(worst, diff)
        assert worst <= 1e-14

    def test_one_accelerated_matches_numeric(self):
        for nu in (0.0, 0.3, 0.7, 1.0):
            for r in (0.0, 0.3, 0.6, math.pi / 4.0):
                c = compare_closed_form(ClosedFormVariant.ACC1, nu, r)
                assert c.status == "MATCH", (nu, r)
                assert c.max_abs_diff <= 1e-12

    @staticmethod
    def _grid_diff(variant, nu, r, theta_steps, phi_steps):
        thetas, phis = sphere_grid(theta_steps, phi_steps)
        k = {ClosedFormVariant.GHZ: 0, ClosedFormVariant.ACC1: 1, ClosedFormVariant.ACC2: 2}[variant]
        numeric = grid_values(accelerated_ghz(nu, k, r), DistributionKind.WIGNER, thetas, phis)
        reference = quasiprob._CLOSED_FORMS[variant](thetas[:, None], phis[None, :], nu, r)
        return numeric, np.broadcast_to(reference, numeric.shape), thetas, phis

    @pytest.mark.parametrize(
        "variant, nu, r", [(ClosedFormVariant.GHZ, 0.3, 0.0), (ClosedFormVariant.ACC1, 0.7, 0.6)]
    )
    def test_match_reports_the_first_grid_point(self, variant, nu, r):
        # round-off peaks anywhere on the sphere; a MATCH places nothing there
        numeric, reference, _, _ = self._grid_diff(variant, nu, r, 12, 16)
        c = compare_closed_form(variant, nu, r, 12, 16)
        assert c.status == "MATCH"
        assert c.argmax == SphericalPoint(0.0, 0.0)
        assert (c.numeric_value, c.closed_form_value) == (numeric[0, 0], reference[0, 0])
        assert c.max_abs_diff == np.abs(numeric - reference).max()

    def test_discrepant_reports_the_largest_difference(self):
        numeric, reference, thetas, phis = self._grid_diff(ClosedFormVariant.ACC2, 1.0, 0.6, 12, 16)
        diff = np.abs(numeric - reference)
        it, ip = np.unravel_index(diff.argmax(), diff.shape)
        c = compare_closed_form(ClosedFormVariant.ACC2, 1.0, 0.6, 12, 16)
        assert c.status == "DISCREPANT"
        assert c.argmax == SphericalPoint(float(thetas[it]), float(phis[ip]))
        assert c.argmax != SphericalPoint(0.0, 0.0)
        assert (c.numeric_value, c.closed_form_value) == (numeric[it, ip], reference[it, ip])
        assert c.max_abs_diff == diff.max()

    def test_two_accelerated_printed_value(self):
        # substituting theta=0, nu=1, r=0 into the printed expression gives
        # 110/128, not the 160/128 the r=0 limit requires
        got = closed_form(ClosedFormVariant.ACC2, 0.0, 0.0, 1.0, 0.0)
        assert got == pytest.approx(110.0 / 128.0, abs=1e-12)
        assert abs(got - 1.25) > 0.39

    def test_two_accelerated_flagged_discrepant(self):
        c = compare_closed_form(ClosedFormVariant.ACC2, 1.0, 0.0)
        assert c.status == "DISCREPANT"
        assert c.max_abs_diff > 0.1

    def test_three_accelerated_fails_r_zero_reduction(self):
        got = closed_form(ClosedFormVariant.ACC3, 0.0, 0.0, 1.0, 0.0)
        assert abs(got - 1.25) > 10.0  # printed prefactor inflates the value

    def test_three_accelerated_flagged_discrepant(self):
        c = compare_closed_form(ClosedFormVariant.ACC3, 1.0, 0.0)
        assert c.status == "DISCREPANT"

    def test_numeric_pipeline_r_zero_reduction(self):
        # acceleration with r=0 must leave the distribution untouched;
        # this is the pipeline-level reduction the printed forms fail
        thetas = np.linspace(0.0, math.pi, 91)
        phis = np.arange(181) * (2.0 * math.pi / 181)
        base = grid_values(
            ghz_werner(GhzWernerParams(nu=0.8)), DistributionKind.WIGNER, thetas, phis
        )
        for k in (1, 2, 3):
            accel = grid_values(
                accelerated_ghz(0.8, k, 0.0), DistributionKind.WIGNER, thetas, phis
            )
            assert np.abs(accel - base).max() <= 1e-14


class TestScans:
    def test_point_law_along_r(self):
        rs = np.linspace(0.0, math.pi / 4.0, 12)
        for nu in (1.0, 0.5):
            for k in (1, 2, 3):
                pairs = scan_min_vs_r(nu, k, rs)
                for r, w in pairs:
                    expected = (1.0 - 3.0 * SQRT3 * nu * math.cos(r) ** k) / 8.0
                    assert w == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_r_and_ordered_in_k(self):
        rs = np.linspace(0.0, math.pi / 4.0, 10)
        per_k = {k: [w for _, w in scan_min_vs_r(1.0, k, rs)] for k in (1, 2, 3)}
        for k, ws in per_k.items():
            assert all(b >= a - 1e-15 for a, b in zip(ws, ws[1:])), k
        for i in range(1, len(rs)):  # strictly positive r
            assert per_k[1][i] <= per_k[2][i] <= per_k[3][i]

    @pytest.mark.parametrize("none", [0, ()])
    def test_bad_k_rejected(self, none):
        with pytest.raises(ValueError, match=re.escape(f"k_accelerated={none} accelerates no qubit")):
            scan_min_vs_r(0.5, none, [0.1])


class TestNegativityThreshold:
    def test_unaccelerated_root(self):
        result = negativity_threshold(0, 0.0)
        assert result.sign_change
        assert result.nu_star == pytest.approx(NU_STAR, abs=1e-8)

    def test_accelerated_root_scales_with_cosine(self):
        r = 0.5
        result = negativity_threshold(2, r)
        assert result.sign_change
        assert result.nu_star == pytest.approx(NU_STAR / math.cos(r) ** 2, abs=1e-7)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("r", [0.0, 0.3, math.pi / 4.0])
    def test_root_is_exact_to_rounding(self, k, r):
        # the root of the affine value, not a bracket around it
        result = negativity_threshold(k, r)
        assert result.sign_change
        assert abs(result.nu_star - NU_STAR / math.cos(r) ** k) <= 1e-14

    def test_no_sign_change_at_positive_point(self):
        result = negativity_threshold(0, 0.0, theta=0.0, phi=0.0)
        assert not result.sign_change
        assert math.isnan(result.nu_star)
