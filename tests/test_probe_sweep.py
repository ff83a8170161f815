"""probe_sweep against a per-point oracle, its state budget, and the
range checks of the sweep callers."""

import math

import numpy as np
import pytest

from spinwigner import (
    R_MAX,
    AccelerationConfig,
    ClosedFormVariant,
    DistributionKind,
    GhzWernerParams,
    IndexOutOfRange,
    MixingOutOfRange,
    ROutOfRange,
    SphericalPoint,
    ValidationError,
    accelerate,
    accelerated_ghz,
    closed_form,
    coefficient_table,
    evaluate,
    ghz_werner,
    negativity_threshold,
    probe_sweep,
    quasiprob,
    scan_min_vs_r,
    unruh_isometry,
    validate_density,
)
from spinwigner import cli, linalg, rindler
from spinwigner.cli import main

SWEEP_TOL = 1e-12
PROBE = SphericalPoint(math.pi / 2.0, math.pi)


def oracle(nus, rs, accelerated, kind, point, n_qubits=3):
    """One validated state and one evaluate per (nu, r) point."""
    out = np.empty((len(nus), len(rs)))
    for i, nu in enumerate(nus):
        for j, r in enumerate(rs):
            rho = accelerated_ghz(float(nu), accelerated, float(r), n_qubits)
            out[i, j] = evaluate(rho, kind, (point,) * n_qubits).value
    return out


@pytest.fixture
def sweep_axes(rng):
    """Unsorted interior nus between the two endpoints, and rs with both ends."""
    nus = np.concatenate([[0.15], rng.uniform(0.15, 0.9, 7), [0.9]])
    rng.shuffle(nus)
    rs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, R_MAX, 5)), [R_MAX]])
    return nus, rs


@pytest.fixture
def count_states(monkeypatch):
    """Count the GHZ-Werner states built through the quasiprob layer."""
    built = []
    original = quasiprob.ghz_werner

    def counting(params):
        built.append(params.nu)
        return original(params)

    monkeypatch.setattr(quasiprob, "ghz_werner", counting)
    return built


@pytest.fixture
def count_channels(monkeypatch):
    """Record the rs of every batched channel call made through the quasiprob layer."""
    applied = []
    original = quasiprob._x_channel

    def counting(stack, rs, qubits):
        applied.append(list(rs))
        return original(stack, rs, qubits)

    monkeypatch.setattr(quasiprob, "_x_channel", counting)
    return applied


@pytest.fixture
def count_certificates(monkeypatch):
    """Record the batch shape of every X certificate, made in linalg or
    through the quasiprob layer: () for one state, (R, E) for a sweep."""
    shapes = []
    original = linalg._certify_x

    def counting(stack):
        shapes.append(stack.shape[:-2])
        return original(stack)

    monkeypatch.setattr(linalg, "_certify_x", counting)
    monkeypatch.setattr(quasiprob, "_certify_x", counting)
    return shapes


class TestAgainstOracle:
    @pytest.mark.parametrize("kind", list(DistributionKind))
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_nu_r_grid(self, sweep_axes, kind, k):
        nus, rs = sweep_axes
        point = SphericalPoint(1.1, 2.3)
        got = probe_sweep(nus, rs, k, kind, point)
        assert got.shape == (len(nus), len(rs))
        assert np.abs(got - oracle(nus, rs, k, kind, point)).max() <= SWEEP_TOL

    def test_full_unit_interval_at_the_probe(self):
        nus = np.linspace(0.0, 1.0, 51)
        rs = np.linspace(0.0, R_MAX, 6)
        got = probe_sweep(nus, rs, 2, DistributionKind.WIGNER, PROBE)
        assert np.abs(got - oracle(nus, rs, 2, DistributionKind.WIGNER, PROBE)).max() <= SWEEP_TOL

    @pytest.mark.parametrize("kind", list(DistributionKind))
    def test_explicit_index_tuple(self, sweep_axes, kind):
        nus, rs = sweep_axes
        point = SphericalPoint(0.7, 4.0)
        got = probe_sweep(nus, rs, (0, 2), kind, point)
        assert np.abs(got - oracle(nus, rs, (0, 2), kind, point)).max() <= SWEEP_TOL

    @pytest.mark.parametrize("accelerated", [2, (1, 3), 4])
    def test_four_qubits(self, sweep_axes, accelerated):
        nus, rs = sweep_axes
        point = SphericalPoint(2.0, 0.4)
        kind = DistributionKind.WIGNER
        got = probe_sweep(nus, rs, accelerated, kind, point, n_qubits=4)
        want = oracle(nus, rs, accelerated, kind, point, n_qubits=4)
        assert np.abs(got - want).max() <= SWEEP_TOL

    def test_single_nu_is_evaluated_not_interpolated(self):
        rs = np.linspace(0.0, R_MAX, 5)
        got = probe_sweep([0.6], rs, 3, DistributionKind.Q, PROBE)
        want = oracle([0.6], rs, 3, DistributionKind.Q, PROBE)
        np.testing.assert_array_equal(got, want)

    def test_endpoints_are_exact(self, sweep_axes):
        nus, rs = sweep_axes
        got = probe_sweep(nus, rs, 1, DistributionKind.WIGNER, PROBE)
        ends = [int(np.argmin(nus)), int(np.argmax(nus))]
        np.testing.assert_array_equal(got[ends], oracle(nus[ends], rs, 1, DistributionKind.WIGNER, PROBE))

    def test_empty_axes(self):
        assert probe_sweep([], [0.1, 0.2], 1, DistributionKind.WIGNER, PROBE).shape == (0, 2)
        assert probe_sweep([0.1, 0.2], [], 1, DistributionKind.WIGNER, PROBE).shape == (2, 0)


class TestStateBudget:
    def test_nu_r_map_builds_two_states(self, count_states, count_channels, count_certificates):
        nus = np.linspace(0.0, 1.0, 51)
        rs = np.linspace(0.0, R_MAX, 51)
        probe_sweep(nus, rs, 2, DistributionKind.WIGNER, PROBE)
        assert sorted(count_states) == [0.0, 1.0]
        # one channel call over every r; each (r, endpoint) state certified once
        assert count_channels == [list(rs)]
        assert count_certificates == [(), (), (len(rs), 2)]

    def test_single_nu_builds_one_state_and_one_batched_channel(self, count_states, count_channels,
                                                               count_certificates):
        rs = np.linspace(0.0, R_MAX, 50)
        probe_sweep([0.7], rs, 1, DistributionKind.WIGNER, PROBE)
        assert count_states == [0.7]
        assert count_channels == [list(rs)]
        assert count_certificates == [(), (len(rs), 1)]

    def test_no_accelerated_qubit_applies_no_channel(self, count_states, count_channels):
        rs = np.linspace(0.0, R_MAX, 7)
        got = probe_sweep([0.0, 0.4, 1.0], rs, 0, DistributionKind.P, PROBE)
        assert sorted(count_states) == [0.0, 1.0]
        assert count_channels == []
        assert np.abs(got - oracle([0.0, 0.4, 1.0], rs, 0, DistributionKind.P, PROBE)).max() <= SWEEP_TOL

    def test_scan_min_vs_r(self, count_states, count_channels, count_certificates):
        rs = np.linspace(0.0, R_MAX, 20)
        scan_min_vs_r(0.5, 3, rs)
        assert count_states == [0.5]
        assert count_channels == [list(rs)]
        assert count_certificates == [(), (len(rs), 1)]

    def test_negativity_threshold_builds_two_states(self, count_states):
        result = negativity_threshold(1, 0.3)
        assert result.sign_change
        assert len(count_states) == 2

    def test_cli_scan_r(self, count_states, count_channels, count_certificates, capsys):
        assert main(["scan-r", "--nu", "0.4", "--accelerated", "2", "--r-steps", "30"]) == 0
        assert count_states == [0.4]
        assert [len(rs) for rs in count_channels] == [30]
        assert count_certificates == [(), (30, 1)]

    def test_cli_scan_nu(self, count_states, capsys):
        assert main(["scan-nu", "--nu", "0", "--r", "0.5", "--accelerated", "0,2", "--nu-steps", "40"]) == 0
        assert len(count_states) == 2

    def test_figure_nu_theta_map_builds_two_states(self, count_states):
        rows = dict(cli._figure_specs())["fig1c.csv"]()
        assert len(rows) == cli.MAP_STEPS * cli.SURFACE_THETA_STEPS
        assert count_states == [0.0, 1.0]

    def test_figures_fig5_shares_one_sweep_per_k(self, count_states, count_channels, count_certificates):
        builders = dict(cli._figure_specs())
        tables = [builders[f"fig5{letter}.csv"]() for letter in "abcd"]
        # per k = 1, 2, 3: the nu = 0.2 and nu = 1 states, both through one channel call at every r
        assert sorted(count_states) == [0.2] * 3 + [1.0] * 3
        r_curve = np.linspace(0.0, R_MAX, cli.R_CURVE_STEPS)
        assert count_channels == [list(r_curve)] * 3
        assert count_certificates == [(), (), (cli.R_CURVE_STEPS, 2)] * 3
        for table, nu in zip(tables, (1.0, 0.7, 0.5, 0.2)):
            assert len(table) == 3 * cli.R_CURVE_STEPS
            np.testing.assert_array_equal(table[:, 2], nu)
            for k in (1, 2, 3):
                rows = table[table[:, 4] == k]
                np.testing.assert_array_equal(rows[:, 3], r_curve)
                want = oracle([nu], r_curve, k, DistributionKind.WIGNER, PROBE)[0]
                assert np.abs(rows[:, 6] - want).max() <= SWEEP_TOL


def broken_kraus_pair(defects):
    """``rindler._kraus_pair`` with a defect from ``defects``, a list of
    (lowest r, defect) in ascending r, applied from that r on: "trace"
    scales K0[0, 0] by 1.05, so the pair is not trace-preserving, and
    "nan" sets K1[1, 0] to NaN."""
    original = rindler._kraus_pair

    def kraus_pair(r):
        kraus = original(r).copy()
        defect = next((d for start, d in reversed(defects) if r >= start), None)
        if defect == "trace":
            kraus[0, 0, 0] *= 1.05
        elif defect == "nan":
            kraus[1, 1, 0] = math.nan
        return kraus

    return kraus_pair


class TestErrorEquivalence:
    """probe_sweep raises what the per-(r, endpoint) loop of accelerate
    that it replaces would raise first: the same class, message and
    magnitude."""

    @pytest.mark.parametrize(
        "defects",
        [[(0.3, "trace")], [(0.3, "nan")], [(0.2, "trace"), (0.5, "nan")], [(0.2, "nan"), (0.5, "trace")]],
        ids=["trace", "nan", "trace_then_nan", "nan_then_trace"],
    )
    @pytest.mark.parametrize("accelerated", [1, (0, 2), 3])
    def test_first_failing_state(self, monkeypatch, defects, accelerated):
        monkeypatch.setattr(rindler, "_kraus_pair", broken_kraus_pair(defects))
        nus = [0.5, 0.1, 0.95]
        rs = np.linspace(0.0, R_MAX, 9)
        indices = rindler._accelerated_qubits(accelerated, 3)
        with pytest.raises(ValidationError) as want:
            for r in rs:
                for nu in (min(nus), max(nus)):
                    accelerate(ghz_werner(GhzWernerParams(nu=nu)), AccelerationConfig(r=float(r), accelerated=indices))
        with pytest.raises(ValidationError) as got:
            probe_sweep(nus, rs, accelerated, DistributionKind.WIGNER, PROBE)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert got.value.magnitude == want.value.magnitude


def _accelerate(r=0.1, accelerated=(0,)):
    """AccelerationConfig, then accelerate on the three-qubit GHZ-Werner state."""
    config = AccelerationConfig(r=r, accelerated=accelerated)
    return accelerate(ghz_werner(GhzWernerParams(nu=0.5)), config)


W = DistributionKind.WIGNER
# Every entry point that takes an input, by the rule that checks it, called
# with that input and otherwise valid arguments on the three-qubit register.
ENTRY_POINTS = {
    "nu": {
        "GhzWernerParams": lambda nu: GhzWernerParams(nu=nu),
        "accelerated_ghz": lambda nu: accelerated_ghz(nu, 1, 0.1),
        "probe_sweep": lambda nu: probe_sweep([0.5, nu], [0.1], 1, W, PROBE),
        "scan_min_vs_r": lambda nu: scan_min_vs_r(nu, 1, [0.1]),
        "coefficient_table": lambda nu: coefficient_table("A", nu, 0.1),
        "closed_form": lambda nu: closed_form(ClosedFormVariant.GHZ, 0.0, 0.0, nu),
    },
    "r": {
        "AccelerationConfig": lambda r: _accelerate(r=r),
        "accelerated_ghz": lambda r: accelerated_ghz(0.5, 1, r),
        "probe_sweep": lambda r: probe_sweep([0.5], [0.1, r], 1, W, PROBE),
        "scan_min_vs_r": lambda r: scan_min_vs_r(0.5, 1, [0.1, r]),
        "negativity_threshold": lambda r: negativity_threshold(1, r),
        "unruh_isometry": unruh_isometry,
        "coefficient_table": lambda r: coefficient_table("A", 0.5, r),
        "closed_form": lambda r: closed_form(ClosedFormVariant.ACC1, 0.0, 0.0, 0.5, r),
    },
    "accelerated": {
        "accelerated_ghz": lambda a: accelerated_ghz(0.5, a, 0.1),
        "probe_sweep": lambda a: probe_sweep([0.5], [0.1], a, W, PROBE),
        "scan_min_vs_r": lambda a: scan_min_vs_r(0.5, a, [0.1]),
        "negativity_threshold": lambda a: negativity_threshold(a, 0.1),
    },
    "n_qubits": {
        "GhzWernerParams": lambda n: GhzWernerParams(nu=0.5, n_qubits=n),
        "validate_density": lambda n: validate_density(np.eye(4) / 4.0, n),
        "accelerated_ghz": lambda n: accelerated_ghz(0.5, 0, 0.1, n_qubits=n),
        "probe_sweep": lambda n: probe_sweep([0.5], [0.1], 0, W, PROBE, n_qubits=n),
    },
}
# (rule, bad input, class, message); a named set also goes to AccelerationConfig
BAD_INPUTS = [
    ("nu", -0.1, MixingOutOfRange, "nu=-0.1 outside [0, 1]"),
    ("nu", math.nan, MixingOutOfRange, "nu=nan outside [0, 1]"),
    ("r", R_MAX + 0.01, ROutOfRange, f"r={R_MAX + 0.01} outside [0, {R_MAX}]"),
    ("r", math.nan, ROutOfRange, f"r=nan outside [0, {R_MAX}]"),
    ("accelerated", -1, ValueError, "k_accelerated=-1 outside 0..3"),
    ("accelerated", 4, ValueError, "k_accelerated=4 outside 0..3"),
    ("accelerated", 2.0, TypeError, "'float' object is not iterable"),
    ("accelerated", (0, 0), ValueError, "duplicate qubit indices in (0, 0)"),
    ("accelerated", (-1,), IndexOutOfRange, "negative qubit index in (-1,)"),
    ("accelerated", (3,), IndexOutOfRange, "qubit 3 outside register of 3"),
    ("accelerated", (1.5,), TypeError, "'float' object cannot be interpreted as an integer"),
    ("n_qubits", 0, ValueError, "n_qubits=0 must be an integer of at least 1"),
    ("n_qubits", 2.0, ValueError, "n_qubits=2.0 must be an integer of at least 1"),
]


class TestRangeChecks:
    @pytest.mark.parametrize("rule, bad, cls, message", BAD_INPUTS, ids=[f"{b[0]}={b[1]!r}" for b in BAD_INPUTS])
    def test_every_entry_point_refuses_alike(self, count_states, rule, bad, cls, message):
        calls = dict(ENTRY_POINTS[rule])
        if isinstance(bad, tuple):
            calls["AccelerationConfig"] = lambda a: _accelerate(accelerated=a)
        for name, call in calls.items():
            with pytest.raises(Exception) as exc:
                call(bad)
            assert type(exc.value) is cls, name
            assert str(exc.value) == message, name
            assert getattr(exc.value, "magnitude", None) is None, name
        assert count_states == []

    @pytest.mark.parametrize("r", [0.0, 0.4, R_MAX])
    def test_threshold_and_scan_take_a_set(self, r):
        w = probe_sweep((0.0, 1.0), (r,), (0, 2), W, PROBE)
        w_0, w_1 = float(w[0, 0]), float(w[1, 0])
        result = negativity_threshold((0, 2), r)
        assert result.sign_change and result.nu_star == w_0 / (w_0 - w_1)
        rs = [0.0, r]
        want = probe_sweep((0.5,), rs, (0, 2), W, PROBE)[0]
        assert scan_min_vs_r(0.5, (0, 2), rs) == [(x, float(v)) for x, v in zip(rs, want)]

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    def test_any_nu_out_of_range_builds_nothing(self, count_states, bad):
        with pytest.raises(MixingOutOfRange):
            probe_sweep([0.2, bad, 0.8], [0.1, 0.3], 1, DistributionKind.WIGNER, PROBE)
        assert count_states == []

    @pytest.mark.parametrize("bad", [-0.1, R_MAX + 0.01, math.nan])
    def test_any_r_out_of_range_builds_nothing(self, count_states, bad):
        with pytest.raises(ROutOfRange):
            probe_sweep([0.2, 0.8], [0.1, bad, 0.3], 1, DistributionKind.WIGNER, PROBE)
        assert count_states == []

    @pytest.mark.parametrize("none", [0, ()])
    def test_r_checked_without_accelerated_qubits(self, none):
        with pytest.raises(ROutOfRange):
            probe_sweep([0.5], [1.0], none, DistributionKind.WIGNER, PROBE)
        with pytest.raises(ROutOfRange):
            accelerated_ghz(0.5, none, 5.0)

    def test_empty_nu_axis_still_checks_r_and_the_set(self, count_states):
        with pytest.raises(ROutOfRange):
            probe_sweep([], [5.0], 7, DistributionKind.WIGNER, PROBE)
        with pytest.raises(ValueError, match="outside 0..3"):
            probe_sweep([], [0.1], 7, DistributionKind.WIGNER, PROBE)
        with pytest.raises(IndexOutOfRange):
            probe_sweep([], [0.1], (0, 3), DistributionKind.WIGNER, PROBE)
        assert count_states == []

    def test_empty_r_axis_still_checks_nu_and_the_set(self, count_states):
        with pytest.raises(MixingOutOfRange):
            probe_sweep([3.0], [], 1, DistributionKind.WIGNER, PROBE)
        with pytest.raises(ValueError, match="duplicate"):
            probe_sweep([0.5], [], (1, 1), DistributionKind.WIGNER, PROBE)
        assert count_states == []

    @pytest.mark.parametrize("accelerated", [0, 3, (0, 2)])
    def test_valid_empty_axes_return_empty(self, count_states, accelerated):
        assert probe_sweep([], [], accelerated, DistributionKind.WIGNER, PROBE).shape == (0, 0)
        assert probe_sweep([], [0.0, R_MAX], accelerated, DistributionKind.Q, PROBE).shape == (0, 2)
        assert probe_sweep([0.0, 1.0], [], accelerated, DistributionKind.P, PROBE).shape == (2, 0)
        assert count_states == []

    def test_scan_min_vs_r_rejects_r(self):
        with pytest.raises(ROutOfRange):
            scan_min_vs_r(0.5, 1, [0.1, 2.0])

    def test_bad_qubit_sets(self):
        with pytest.raises(ValueError):
            probe_sweep([0.5], [0.1], 4, DistributionKind.WIGNER, PROBE)
        with pytest.raises(ValueError):
            probe_sweep([0.5], [0.1], (0, 0), DistributionKind.WIGNER, PROBE)
        with pytest.raises(IndexOutOfRange):
            probe_sweep([0.5], [0.1], (0, 3), DistributionKind.WIGNER, PROBE)


class TestAcceleratedGhzIndices:
    def test_index_tuple_matches_channel(self):
        rho = accelerated_ghz(0.4, (0, 2), 0.5)
        want = accelerate(ghz_werner(GhzWernerParams(nu=0.4)), AccelerationConfig(r=0.5, accelerated=(0, 2)))
        np.testing.assert_array_equal(rho.matrix, want.matrix)

    def test_count_equals_leading_indices(self):
        a = accelerated_ghz(0.7, 2, 0.3, n_qubits=4)
        b = accelerated_ghz(0.7, (0, 1), 0.3, n_qubits=4)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_keyword_count_form(self):
        rho = accelerated_ghz(nu=1.0, k_accelerated=1, r=0.6)
        assert rho.n_qubits == 3


class TestClosedFormRanges:
    def test_rejects_nu(self):
        with pytest.raises(MixingOutOfRange):
            closed_form(ClosedFormVariant.GHZ, 0.0, 0.0, 5.0)

    def test_rejects_r(self):
        with pytest.raises(ROutOfRange):
            closed_form(ClosedFormVariant.ACC1, 0.0, 0.0, 0.5, 3.0)

    @pytest.mark.parametrize("theta, phi", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)])
    def test_rejects_non_finite_angles(self, theta, phi):
        with pytest.raises(ValueError, match="theta and phi must be finite"):
            closed_form(ClosedFormVariant.GHZ, theta, phi, 1.0)

    def test_boundaries_accepted(self):
        assert math.isfinite(closed_form(ClosedFormVariant.ACC3, 0.3, 1.0, 1.0, R_MAX))
        assert math.isfinite(closed_form(ClosedFormVariant.ACC2, 0.3, 1.0, 0.0, 0.0))
