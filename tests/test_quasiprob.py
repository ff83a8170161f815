"""Distribution evaluation, scans, normalization, and closed-form checks."""

import math
import re
from types import SimpleNamespace

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
    kernel_grid,
    linalg,
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

    @pytest.mark.parametrize("kind", list(DistributionKind))
    def test_repeated_and_distinct_points_match_the_kernel_grid_trace(self, rng, kind):
        a, b, c = (SphericalPoint(*rng.uniform(0.0, math.pi, 2)) for _ in range(3))
        for rho in (random_density(5, rng), accelerated_ghz(0.4, (0, 3), 0.5, n_qubits=5)):
            for pts in ((a, b, a, c, a), (b,) * 5, (a, b, c, PROBE, SphericalPoint(0.0, 0.0))):
                ops = [kernel_grid(kind, p.theta, p.phi) for p in pts]
                entries, digits = linalg._entries(rho)
                want = quasiprob._trace(entries, quasiprob._weights(ops, digits)).real
                assert abs(evaluate(rho, kind, pts).value - want) <= 1e-15, pts

    @pytest.mark.parametrize("theta, phi", [(math.nan, 1.0), (1.0, np.array(math.nan))])
    def test_duck_typed_point_with_a_nan_angle_is_refused(self, theta, phi):
        rho = ghz_werner(GhzWernerParams(nu=0.5))
        pts = (PROBE, SimpleNamespace(theta=theta, phi=phi), PROBE)
        with pytest.raises(ValueError, match="theta and phi must be finite"):
            evaluate(rho, DistributionKind.WIGNER, pts)

    @pytest.mark.parametrize("kind", [7, 2, -2, "wigner"])
    def test_unknown_kind_is_refused(self, kind):
        with pytest.raises(ValueError):
            evaluate(ghz_werner(GhzWernerParams(nu=0.5)), kind, (PROBE,) * 3)

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


def weights_info():
    return quasiprob._point_weights.cache_info()


class TestPointWeightsCache:
    """evaluate memoizes the trace weights of its kernels per (kind,
    per-qubit angles, layout), never the state."""

    @pytest.mark.parametrize("kind", list(DistributionKind))
    def test_repeated_calls_are_bitwise_the_uncached_values(self, monkeypatch, rng, kind):
        a, b, c = (SphericalPoint(*rng.uniform(0.0, math.pi, 2)) for _ in range(3))
        cases = [
            (rho, pts)
            for rho in (random_density(4, rng), accelerated_ghz(0.4, (0, 2), 0.5, n_qubits=4))
            for pts in ((a, b, a, c), (b,) * 4, (a, b, a, c), (c, a, b, a), (b,) * 4)
        ]
        cached = [[evaluate(rho, kind, pts).value for rho, pts in cases] for _ in range(2)]
        monkeypatch.setattr(quasiprob, "_point_weights", quasiprob._point_weights.__wrapped__)
        fresh = [evaluate(rho, kind, pts).value for rho, pts in cases]
        assert np.array(cached).tobytes() == np.array([fresh, fresh]).tobytes()

    @pytest.mark.parametrize("angles", [((0.3, 1.2),), ((0.3, 1.2), (0.3, 1.2), (2.0, 4.0))])
    @pytest.mark.parametrize("x_shaped", [True, False])
    def test_cached_weights_are_read_only_and_bitwise_a_fresh_build(self, angles, x_shaped):
        key = (DistributionKind.WIGNER, angles, x_shaped)
        weights = quasiprob._point_weights(*key)
        assert quasiprob._point_weights(*key) is weights
        assert (weights[0] is None) == (len(angles) == 1)
        for half, fresh in zip(weights, quasiprob._point_weights.__wrapped__(*key)):
            if half is None:
                continue
            assert half.tobytes() == fresh.tobytes()
            assert not half.flags.writeable
            with pytest.raises(ValueError):
                half[0, 0] = 0.0

    @pytest.mark.parametrize("kind, theta", [(DistributionKind.WIGNER, math.nan), (7, 1.0), ("wigner", 1.0)])
    def test_refused_input_raises_on_every_call_and_stores_nothing(self, kind, theta):
        rho = ghz_werner(GhzWernerParams(nu=0.5))
        pts = (PROBE, SimpleNamespace(theta=theta, phi=0.5), PROBE)
        quasiprob._point_weights.cache_clear()
        for _ in range(3):
            with pytest.raises(ValueError):
                evaluate(rho, kind, pts)
            assert weights_info().currsize == 0

    def test_x_and_dense_layouts_are_separate_keys(self):
        rho = accelerated_ghz(0.7, 2, 0.4, n_qubits=5)
        dense = validate_density(rho.matrix, 5)
        pts = [SphericalPoint(0.4 + 0.3 * q, 1.1 * q) for q in range(5)]
        quasiprob._point_weights.cache_clear()
        x_value = evaluate(rho, DistributionKind.WIGNER, pts).value
        dense_value = evaluate(dense, DistributionKind.WIGNER, pts).value
        assert weights_info().currsize == 2
        assert abs(x_value - dense_value) <= 1e-15

    def test_filling_past_maxsize_keeps_maxsize_keys(self):
        rho = ghz_werner(GhzWernerParams(nu=0.5, n_qubits=1))
        size = quasiprob.POINT_WEIGHTS_CACHE_SIZE
        quasiprob._point_weights.cache_clear()
        for i in range(size + 10):
            evaluate(rho, DistributionKind.WIGNER, (SphericalPoint(1.0, 0.01 * i),))
            assert weights_info().currsize == min(i + 1, size)
        assert weights_info().maxsize == size

    @pytest.mark.parametrize("kind", list(DistributionKind))
    def test_signed_zero_angles_share_one_key(self, kind):
        # -0.0 == 0.0 with one hash, so (theta, -0.0) and (theta, 0.0) are one
        # key here and one kernel in _point_kernels: the kernels agree bitwise
        rho = ghz_werner(GhzWernerParams(nu=0.5, n_qubits=2))
        for (theta, phi), signed in (
            ((1.1, 0.0), [(1.1, -0.0)]),
            ((0.0, 2.3), [(-0.0, 2.3)]),
            ((0.0, 0.0), [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]),
        ):
            want = kernel_grid(kind, theta, phi).tobytes()
            value = evaluate(rho, kind, (SphericalPoint(theta, phi),) * 2).value
            misses = weights_info().misses
            for t, p in signed:
                assert kernel_grid(kind, t, p).tobytes() == want, (t, p)
                assert evaluate(rho, kind, (SphericalPoint(t, p),) * 2).value == value
            assert weights_info().misses == misses


FACTOR_CACHES = ("_theta_factor", "_harmonics", "_quadrature_weights")


def clear_factor_caches():
    for name in FACTOR_CACHES:
        getattr(quasiprob, name).cache_clear()


def factor_sizes():
    return [getattr(quasiprob, name).cache_info().currsize for name in FACTOR_CACHES]


AXES = {
    "one point": ([0.7], [2.1]),
    "full": sphere_grid(91, 181),
    "signed zeros": ([-0.0, 0.0, math.pi / 2.0, -math.pi], [0.0, -0.0, math.pi, -0.0]),
}


class TestFactorCaches:
    """Equal-angle surfaces memoize their theta factor per (kind, theta
    axis, n) and their phi harmonics per (phi axis, n), and
    normalization_check its trace weights per (kind, n, layout); never the
    state."""

    @pytest.mark.parametrize("kind", list(DistributionKind))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_results_are_bitwise_the_unmemoized_builds(self, monkeypatch, rng, kind, n):
        states = (random_density(n, rng), accelerated_ghz(0.6, (0,), 0.4, n_qubits=n))
        assert [rho.x_shaped for rho in states] == [False, True]
        nus, rs = (0.2, 0.9), (0.0, 0.5)

        def run():
            out = [normalization_check(rho, kind) for rho in states]
            for thetas, phis in AXES.values():
                out += [grid_values(rho, kind, thetas, phis).tobytes() for rho in states]
                out.append(quasiprob._sweep(nus, rs, n, kind, thetas, phis, n).tobytes())
            return out

        clear_factor_caches()
        cached = [run(), run()]  # the first run fills the caches, the second reads them
        for name in FACTOR_CACHES:
            monkeypatch.setattr(quasiprob, name, getattr(quasiprob, name).__wrapped__)
        fresh = run()
        assert cached == [fresh, fresh]

    def test_signed_zero_axes_are_separate_keys(self):
        rho = ghz_werner(GhzWernerParams(nu=0.5, n_qubits=2))
        clear_factor_caches()
        for zero in (0.0, -0.0):
            grid_values(rho, DistributionKind.WIGNER, [zero, 1.0], [zero, 2.0])
        assert factor_sizes()[:2] == [2, 2]

    @pytest.mark.parametrize("kind", list(DistributionKind))
    def test_hits_share_read_only_arrays(self, kind):
        thetas, phis = sphere_grid(7, 9)

        def lookup():
            return [
                quasiprob._theta_factor(kind, thetas.tobytes(), 3),
                quasiprob._harmonics(phis.tobytes(), 3),
                *quasiprob._quadrature_weights(kind, 3, True),
                *quasiprob._quadrature_weights(kind, 3, False),
            ]

        arrays = lookup()
        assert all(a is b for a, b in zip(arrays, lookup(), strict=True))
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0.0

    @pytest.mark.parametrize("kind, thetas, phis", [
        (DistributionKind.WIGNER, [0.1, math.nan], [0.0]),
        (DistributionKind.Q, [0.1], [0.0, math.inf]),
        (DistributionKind.P, [-math.inf], [0.0]),
        (7, [0.1], [0.0]),
        ("wigner", [0.1], [0.0]),
    ])
    def test_refused_input_raises_on_every_call_and_stores_nothing(self, kind, thetas, phis):
        rho = ghz_werner(GhzWernerParams(nu=0.5))
        clear_factor_caches()
        for _ in range(3):
            with pytest.raises(ValueError):
                grid_values(rho, kind, thetas, phis)
            with pytest.raises(ValueError):
                quasiprob._sweep((0.5,), (0.3,), 1, kind, thetas, phis)
            if not isinstance(kind, DistributionKind):
                with pytest.raises(ValueError):
                    normalization_check(rho, kind)
            assert factor_sizes() == [0, 0, 0]

    def test_filling_past_maxsize_keeps_at_most_maxsize_keys(self):
        size = quasiprob.FACTOR_CACHE_SIZE
        rho = ghz_werner(GhzWernerParams(nu=0.5, n_qubits=1))
        clear_factor_caches()
        for i in range(size + 5):
            grid_values(rho, DistributionKind.WIGNER, [0.01 * i], [0.02 * i])
            assert factor_sizes()[:2] == [min(i + 1, size)] * 2
        for i, (n, kind) in enumerate((n, kind) for n in range(1, 13) for kind in DistributionKind):
            normalization_check(ghz_werner(GhzWernerParams(nu=0.5, n_qubits=n)), kind)
            assert factor_sizes()[2] == min(i + 1, size)
        assert factor_sizes()[2] == size
        for name in FACTOR_CACHES:
            assert getattr(quasiprob, name).cache_info().maxsize == size


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

    def test_rejects_infinite_phi(self):
        # the phi harmonics are taken outside the kernel, behind the same gate
        rho = ghz_werner(GhzWernerParams(nu=1.0))
        with pytest.raises(ValueError, match="theta and phi must be finite"):
            grid_values(rho, DistributionKind.WIGNER, [0.1, 0.2], [0.0, math.inf])

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

    @pytest.mark.parametrize("equal_angles, steps", [(True, (31, 40)), (False, (5, 6))])
    def test_negative_volume_weighs_each_negative_cell(self, equal_angles, steps):
        # the weight of a cell is sin(theta) dtheta dphi per qubit point
        rho = accelerated_ghz(1.0, 1, 0.3)
        report = grid_scan(rho, DistributionKind.WIGNER, *steps, equal_angles=equal_angles)
        point = np.sin(report.thetas)[:, None] * (math.pi / (steps[0] - 1)) * (2.0 * math.pi / steps[1])
        weight = np.broadcast_to(point, steps)
        for _ in range(0 if equal_angles else 2):
            weight = np.multiply.outer(weight, np.broadcast_to(point, steps))
        negative = report.values < 0.0
        assert negative.any()
        want = float((-report.values[negative] * weight[negative]).sum())
        assert report.negative_volume == pytest.approx(want, rel=1e-12)
        mixed = ghz_werner(GhzWernerParams(nu=0.0))
        flat = grid_scan(mixed, DistributionKind.WIGNER, *steps, equal_angles=equal_angles)
        assert math.copysign(1.0, flat.negative_volume) == 1.0 and flat.negative_volume == 0.0

    def test_negative_fraction_counts_cells_below_zero(self, monkeypatch):
        # -0.0 < 0.0 is false: a signed-zero cell is not negative
        real = quasiprob.grid_values
        zeros = []

        def with_signed_zeros(*args):
            values = real(*args)
            negative = np.flatnonzero(values < 0.0)
            positive = np.flatnonzero(values > 0.0)
            zeros.extend([negative[:5], positive[:3]])
            values.flat[np.concatenate(zeros)] = -0.0
            return values

        monkeypatch.setattr(quasiprob, "grid_values", with_signed_zeros)
        report = grid_scan(ghz_werner(GhzWernerParams(nu=1.0)), DistributionKind.WIGNER, 31, 40)
        assert all(len(z) for z in zeros)
        assert np.signbit(report.values.flat[np.concatenate(zeros)]).all()
        count = sum(1 for v in report.values.flat if v < 0.0)
        assert 0 < count < report.values.size
        assert report.negative_fraction == count / report.values.size

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
            entries, digits = linalg._entries(rho)
            want = float(quasiprob._trace(entries, quasiprob._weights([op] * n, digits)).real)
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
