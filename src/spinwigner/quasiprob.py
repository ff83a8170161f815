"""Evaluation of the s-parametrized distributions for multi-qubit states.

Point evaluation against the kernel product, vectorized grid scans with
negativity diagnostics, a quadrature normalization functional, and
comparisons against the published closed-form expressions for the
(accelerated) GHZ-Werner family.

Every evaluator is one contraction, :func:`_contract`: the trace of the
state against a tensor product of per-qubit operator stacks, taken one
qubit axis pair at a time.  Equal-angle surfaces contract the state with
the Pauli basis once and sum the resulting correlation tensor by weight
class, since with every qubit at the same point the value depends on a
Pauli string only through how many I, X, Y and Z it holds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NonRealResult
from .linalg import DensityMatrix, _certify_x
from .rindler import MATCH_TOL, AccelerationConfig, _accelerated_qubits, _check_r, _x_channel, accelerate
from .states import GhzWernerParams, ghz_werner
from .su2kernel import (
    _PAULIS,
    SQRT3,
    DistributionKind,
    SphericalPoint,
    _pauli_coefficients,
    kernel_grid,
)

IMAG_TOL = 1e-10
# Most cells, (theta_steps * phi_steps) ** n, of one independent-angle scan.
# A two-qubit scan of 3,992,004 cells (37 x 54 per qubit) peaks at 0.096 GB
# of numpy allocations (tracemalloc): the complex contraction and its real
# copy, side by side.
SPLIT_SCAN_MAX_CELLS = 4_000_000
# Gauss-Legendre nodes in cos(theta) of normalization_check; twice as many
# trapezoid points in phi.
QUAD_ORDER = 32
# Flat (y, x) positions of op[b, b] and op[1 - b, b] in a 2x2 operator, by
# column bit b: what a diagonal and an anti-diagonal entry of an X state meet.
_X_PAIRS = np.array([[0, 3], [2, 1]])


@dataclass(frozen=True)
class QuasiProbSample:
    """One distribution value, with the per-qubit points it was taken at.

    The dataclass itself checks nothing: the evaluators that build it pass
    the trace through ``_real``, which raises NonRealResult for an
    imaginary residue above IMAG_TOL (1e-10).
    """

    points: tuple[SphericalPoint, ...]
    kind: DistributionKind
    value: float


def _real(values: np.ndarray, context: str) -> np.ndarray:
    """Real part of a contraction; an imaginary residue above IMAG_TOL
    raises NonRealResult."""
    residue = float(max(values.imag.max(), -values.imag.min()))
    if residue > IMAG_TOL:
        raise NonRealResult(f"{context}: imaginary residue {residue:.3e}")
    return values.real.copy()


def _contract(rho: DensityMatrix, ops: Sequence[np.ndarray]) -> np.ndarray:
    """Tr[rho ops[0] x ... x ops[n-1]], complex, of shape g_0 + ... + g_{n-1}.

    ``ops[q]`` has shape (2, 2) + g_q and belongs to qubit q, the basis
    bit of weight 2^q.  The qubits are contracted one at a time, lowest
    first, each appending g_q to the trailing axes, in one of two layouts:

    - a state that validation certified as an X matrix is contracted from
      its (2, 2^n) stack by :func:`_contract_x`, as a batch of one;
    - any other state is viewed as a (2,)*2n tensor whose row and column
      factors run msb-first, and each qubit is one tensordot of its row
      and column axes with its operator.
    """
    if rho.x_shaped:
        return _contract_x(rho._x_stack, ops)
    n = rho.n_qubits
    t = rho.matrix.reshape((2,) * (2 * n))
    for q, op in enumerate(ops):
        m = n - q  # qubits left; the lowest one's axes end each half
        # sum_{x, y} rho[.., x, .., y, ..] op[y, x, g]
        t = np.tensordot(t, op, axes=([m - 1, 2 * m - 1], [1, 0]))
    return t


def _contract_x(stack: np.ndarray, ops: Sequence[np.ndarray]) -> np.ndarray:
    """:func:`_contract` of every X state in ``stack``, of shape
    (..., 2, 2^n): per state its diagonal entries rho[x, x] and
    anti-diagonal entries rho[x, x~], x~ = 2^n - 1 - x, by row x.  The
    result has shape stack.shape[:-2] + g_0 + ... + g_{n-1}.

    A diagonal entry with row bit b meets op[b, b] and an anti-diagonal
    one op[1 - b, b], so each qubit is one matmul batched over the states
    and the two rows of each stack, which are summed at the last qubit:
    O(2^n) work per state for point kernels.  Every state goes through
    the same matrix products as it would alone.
    """
    batch = stack.shape[:-2]
    states = math.prod(batch)
    n = len(ops)
    t = stack  # t[state, row of the stack, x]
    size, shape = 1, ()  # of the g axes so far
    for q, op in enumerate(ops):
        pair = op.reshape(4, -1)[_X_PAIRS]  # pair[row of the stack, b, g]
        t = t.reshape(states, 2, -1, 2)  # (state, stack, g so far x higher bits, bit q)
        if q < n - 1:
            # move g_q ahead of the higher bits, so that bit q + 1 comes last
            t = (t @ pair).reshape(states, 2, size, 2 ** (n - 1 - q), -1).swapaxes(3, 4)
        else:
            # the stack's two rows are summed in this last product
            t = t.transpose(0, 2, 1, 3).reshape(states, size, 4) @ pair.reshape(4, -1)
        size *= pair.shape[2]
        shape += op.shape[2:]
    return t.reshape(batch + shape)


@lru_cache(maxsize=None)
def _weight_classes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pauli strings of n qubits grouped by how many I, X, Y and Z they hold.

    Returns the (C, 4) table of counts, C = binom(n + 3, 3), and the class
    index of every string in the row-major order of the (4,)*n tensor.
    """
    # Plain Python: built once per n, and numpy's unique/sort paths would
    # page ~0.5 MiB more of the library into every process that scans.
    classes: dict[tuple[int, ...], int] = {}
    index = [classes.setdefault(tuple(mu.count(m) for m in range(4)), len(classes))
             for mu in itertools.product(range(4), repeat=n)]
    table, index = np.array(list(classes)), np.array(index)
    table.setflags(write=False)
    index.setflags(write=False)
    return table, index


def evaluate(rho: DensityMatrix, kind: DistributionKind, points: Sequence[SphericalPoint]) -> QuasiProbSample:
    """Distribution value Tr[rho K(p_0) x ... x K(p_{n-1})], one point per qubit."""
    pts = tuple(points)
    if len(pts) != rho.n_qubits:
        raise DimensionError(f"expected {rho.n_qubits} points, got {len(pts)}")
    k = kernel_grid(kind, [p.theta for p in pts], [p.phi for p in pts])
    value = float(_real(_contract(rho, [k[..., q] for q in range(len(pts))]), "evaluate"))
    return QuasiProbSample(points=pts, kind=DistributionKind(kind), value=value)


def sphere_grid(theta_steps: int, phi_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform equal-angle axes: theta over [0, pi] inclusive, phi over
    [0, 2*pi) exclusive.  Fewer than 2 steps on either raises DimensionError."""
    if theta_steps < 2 or phi_steps < 2:
        raise DimensionError("theta_steps and phi_steps must both be at least 2")
    return np.linspace(0.0, math.pi, theta_steps), np.arange(phi_steps) * (2.0 * math.pi / phi_steps)


def grid_values(rho: DensityMatrix, kind: DistributionKind, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Equal-angle values W(theta_i, phi_j) as a (len(thetas), len(phis)) array.

    Same kernel as :func:`evaluate`, taken in its real Pauli coefficients:
    K = sum_m v_m sigma_m with v_m = Tr[K sigma_m] / 2.  With the
    correlation tensor T_mu = Tr[rho sigma_mu_0 x ... x sigma_mu_{n-1}],
    W = sum_mu T_mu prod_q v_{mu_q}, and the product only depends on the
    weight class of mu, so T is summed per class first.

    The realness check (IMAG_TOL) is made on T, not on W: the v surfaces
    are real, so W's imaginary residue is sum_mu Im(T_mu) prod_q v_{mu_q},
    up to 2^n times T's for the P kernel, and is never formed.

    ``thetas`` and ``phis`` must be non-empty 1-D axes (DimensionError).
    """
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    if thetas.ndim != 1 or phis.ndim != 1 or thetas.size == 0 or phis.size == 0:
        raise DimensionError(
            f"thetas and phis must be non-empty 1-D axes, got shapes {thetas.shape} and {phis.shape}"
        )
    n = rho.n_qubits
    corr = _real(_contract(rho, [_PAULIS] * n), "grid values")
    classes, index = _weight_classes(n)
    sums = np.bincount(index, weights=corr.reshape(-1), minlength=len(classes))
    v = _pauli_coefficients(kind, thetas[:, None], phis[None, :])
    acc = np.zeros(v.shape[1:])
    term = np.empty_like(acc)
    for counts, s in zip(classes, sums):
        if s == 0.0:
            continue
        term.fill(s)
        for m, c in enumerate(counts):
            for _ in range(c):
                term *= v[m]
        acc += term
    return acc


@dataclass(frozen=True, eq=False)
class ScanReport:
    """Extrema and negativity diagnostics of a grid scan.

    ``values`` has shape (theta_steps, phi_steps) for an equal-angle scan
    and (theta_steps, phi_steps) repeated per qubit otherwise; argmin and
    argmax carry one point per qubit (all equal in the equal-angle case).
    Ties resolve to the first grid point in row-major order.
    """

    kind: DistributionKind
    theta_steps: int
    phi_steps: int
    equal_angles: bool
    thetas: np.ndarray
    phis: np.ndarray
    values: np.ndarray
    min_value: float
    argmin: tuple[SphericalPoint, ...]
    max_value: float
    argmax: tuple[SphericalPoint, ...]
    negative_fraction: float
    negative_volume: float


def grid_scan(
    rho: DensityMatrix,
    kind: DistributionKind,
    theta_steps: int,
    phi_steps: int,
    equal_angles: bool = True,
) -> ScanReport:
    """Scan theta in [0, pi] (inclusive) x phi in [0, 2*pi) on uniform grids.

    With ``equal_angles`` every qubit sits at the same point (the usual
    convention for the figures).  Otherwise each qubit runs over its own
    copy of the grid, which multiplies the sample count by itself n times;
    a scan of more than ``SPLIT_SCAN_MAX_CELLS`` cells is refused with
    :class:`DimensionError` before anything is allocated.
    """
    thetas, phis = sphere_grid(theta_steps, phi_steps)
    n = rho.n_qubits
    if not equal_angles:
        cells = (theta_steps * phi_steps) ** n
        if cells > SPLIT_SCAN_MAX_CELLS:
            raise DimensionError(
                f"independent-angle scan of {n} qubits needs {cells:,} cells, "
                f"more than the {SPLIT_SCAN_MAX_CELLS:,} allowed"
            )
    d_theta = math.pi / (theta_steps - 1)
    d_phi = 2.0 * math.pi / phi_steps
    point_weight = np.sin(thetas)[:, None] * d_theta * d_phi * np.ones_like(phis)[None, :]

    if equal_angles:
        values = grid_values(rho, kind, thetas, phis)
        weight = point_weight
    else:
        e = kernel_grid(kind, thetas[:, None], phis[None, :])
        values = _real(_contract(rho, [e] * n), "grid scan")
        weight = point_weight
        for _ in range(n - 1):
            weight = np.multiply.outer(weight, point_weight)

    flat_min = int(values.argmin())
    flat_max = int(values.argmax())

    def _points_at(flat_index: int) -> tuple[SphericalPoint, ...]:
        idx = np.unravel_index(flat_index, values.shape)
        if equal_angles:
            pt = SphericalPoint(float(thetas[idx[0]]), float(phis[idx[1]]))
            return (pt,) * n
        return tuple(
            SphericalPoint(float(thetas[idx[2 * i]]), float(phis[idx[2 * i + 1]]))
            for i in range(n)
        )

    negative = values < 0.0
    return ScanReport(
        kind=DistributionKind(kind),
        theta_steps=theta_steps,
        phi_steps=phi_steps,
        equal_angles=equal_angles,
        thetas=thetas,
        phis=phis,
        values=values,
        min_value=float(values.flat[flat_min]),
        argmin=_points_at(flat_min),
        max_value=float(values.flat[flat_max]),
        argmax=_points_at(flat_max),
        negative_fraction=float(negative.sum()) / values.size,
        negative_volume=float((-values[negative] * weight[negative]).sum()),
    )


def normalization_check(rho: DensityMatrix, kind: DistributionKind) -> float:
    """Quadrature of (2*pi)^-n * Int W dOmega_1 ... dOmega_n; should be 1.

    Gauss-Legendre nodes in cos(theta) (QUAD_ORDER of them) and a uniform
    trapezoid with 2*QUAD_ORDER points in phi, per qubit.  The integrand
    is multilinear in the per-qubit kernels and the grid is a tensor
    product, so the full n-fold quadrature sum factorizes exactly into one
    quadrature of the four Pauli coefficients per qubit; their 2x2
    operator is contracted with the state.
    """
    op = _quadrature_mean(DistributionKind(kind))
    return float(_real(_contract(rho, [op] * rho.n_qubits), "normalization_check"))


@lru_cache(maxsize=None)
def _quadrature_mean(kind: DistributionKind) -> np.ndarray:
    """The 2x2 kernel of ``kind`` averaged by normalization_check's
    quadrature.  Built on first use, not at import; read-only, since the
    cache shares it."""
    nodes, weights = np.polynomial.legendre.leggauss(QUAD_ORDER)
    n_phi = 2 * QUAD_ORDER
    phis = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    v = _pauli_coefficients(kind, np.arccos(nodes)[:, None], phis[None, :])
    # the phi step 2*pi/n_phi times the (2*pi)^-1 of the functional
    mean = (v * weights[:, None]).sum(axis=(1, 2)) / n_phi
    op = _PAULIS @ mean
    op.setflags(write=False)
    return op


class ClosedFormVariant(Enum):
    """Published closed-form expressions for the three-qubit family."""

    GHZ = "GHZ"
    ACC1 = "ACC1"
    ACC2 = "ACC2"
    ACC3 = "ACC3"


_K_ACCELERATED = {
    ClosedFormVariant.GHZ: 0,
    ClosedFormVariant.ACC1: 1,
    ClosedFormVariant.ACC2: 2,
    ClosedFormVariant.ACC3: 3,
}


def _cf_ghz(theta, phi, nu, r):
    return (
        3.0 * SQRT3 * nu * np.sin(theta) ** 3 * np.cos(3.0 * phi)
        + 9.0 * nu * np.cos(theta) ** 2
        + 1.0
    ) / 8.0


def _cf_acc1(theta, phi, nu, r):
    return (
        SQRT3
        * (
            6.0 * nu * np.sin(theta) ** 3 * np.cos(r) * np.cos(3.0 * phi)
            + np.cos(theta) * np.sin(r) ** 2 * (3.0 * nu * np.cos(2.0 * theta) + 3.0 * nu + 2.0)
        )
        + 6.0 * nu * (np.cos(theta) ** 2 * np.cos(2.0 * r) + np.cos(2.0 * theta) + 1.0)
        + 2.0
    ) / 16.0


def _cf_acc2(theta, phi, nu, r):
    # transcribed as printed; the source drops a closing parenthesis after
    # "cos 2theta + 1", restored here in the minimal way
    return (
        25.0
        + 48.0 * SQRT3 * nu * np.sin(theta) ** 3 * np.cos(r) ** 2 * np.cos(3.0 * phi)
        + 9.0 * np.cos(2.0 * theta)
        + 33.0 * nu * (np.cos(2.0 * theta) + 1.0)
        + 4.0
        * SQRT3
        * np.cos(theta)
        * (
            3.0 * nu * np.cos(2.0 * theta) * np.sin(2.0 * r) ** 2
            + np.sin(r) ** 2 * (6.0 * nu * np.cos(2.0 * r) + 6.0 * nu + 8.0)
        )
        + np.cos(theta) ** 2 * (4.0 * (3.0 * nu - 1.0) * np.cos(2.0 * r) + (nu + 1.0) * np.cos(4.0 * r))
    ) / 128.0


def _cf_acc3(theta, phi, nu, r):
    # transcribed as printed (one unclosed parenthesis in the second helper,
    # restored at the end of the expression)
    eta_p = SQRT3 * np.cos(theta) + 1.0
    eta_m = SQRT3 * np.cos(theta) - 1.0
    mu_p = 1.0 + 3.0 * nu
    mu_m = 1.0 - 3.0 * nu
    k1 = (3.0 * np.cos(2.0 * theta) + 1.0) * (mu_p * np.cos(2.0 * r) - nu - 3.0)
    k2 = mu_p * np.sin(r) ** 4 + 2.0 * (1.0 - nu) * (np.sin(r) ** 2 + 1.0)
    k3 = mu_p * np.sin(r) ** 4 + 2.0 * mu_m * np.sin(r) ** 2 + mu_p
    return (48.0 / 128.0) * (
        SQRT3 * nu * np.sin(theta) ** 3 * np.cos(r) ** 3 * np.cos(3.0 * phi)
        - 1.5 * eta_p * np.cos(r) ** 4 * k1
        - 6.0 * eta_m * eta_p ** 2 * np.cos(r) ** 2 * k2
        + 2.0 * eta_p ** 3 * (np.sin(r) ** 2 + 1.0) * k3
        - 2.0 * mu_p * eta_m ** 3 * np.cos(r) ** 6
    )


_CLOSED_FORMS: dict[ClosedFormVariant, Callable] = {
    ClosedFormVariant.GHZ: _cf_ghz,
    ClosedFormVariant.ACC1: _cf_acc1,
    ClosedFormVariant.ACC2: _cf_acc2,
    ClosedFormVariant.ACC3: _cf_acc3,
}


def closed_form(variant: ClosedFormVariant, theta: float, phi: float, nu: float, r: float = 0.0) -> float:
    """Published closed-form value at one point, transcribed verbatim.

    GHZ and ACC1 agree with the numeric pipeline; ACC2 and ACC3 carry
    misprints in the source and are kept as printed so comparisons can
    quantify the deviation.  ``theta`` and ``phi`` are checked as a
    :class:`SphericalPoint`, ``nu`` and ``r`` like the states they describe.
    """
    variant = ClosedFormVariant(variant)
    SphericalPoint(theta, phi)
    GhzWernerParams(nu=nu)
    _check_r(r)
    return float(_CLOSED_FORMS[variant](theta, phi, nu, r))


def accelerated_ghz(nu: float, k_accelerated: int | Sequence[int], r: float, n_qubits: int = 3) -> DensityMatrix:
    """GHZ-Werner state with its first ``k_accelerated`` qubits accelerated,
    or exactly the qubits named when ``k_accelerated`` is a sequence."""
    config = AccelerationConfig(r=r, accelerated=_accelerated_qubits(k_accelerated, n_qubits))
    return accelerate(ghz_werner(GhzWernerParams(nu=nu, n_qubits=n_qubits)), config)


def probe_sweep(
    nus: Sequence[float],
    rs: Sequence[float],
    accelerated: int | Sequence[int],
    kind: DistributionKind,
    point: SphericalPoint,
    n_qubits: int = 3,
) -> np.ndarray:
    """Point values W[i, j] of ``accelerated_ghz(nus[i], accelerated, rs[j],
    n_qubits)`` with every qubit at ``point``.

    W is affine in nu (so is the state; the channel and the trace are
    linear), so only the validated states at min(nus) and max(nus) are
    built, one when they are equal, and the rest is interpolated.  Their
    X stacks go through the channel at every r at once
    (:func:`~spinwigner.rindler._x_channel`), the (R, endpoints, 2, 2^n)
    output is certified state by state in one call of
    :func:`~spinwigner.linalg._certify_x`, which raises for the first
    failing (r, endpoint) state, and one :func:`_contract_x` takes every
    point value: each state goes through the same arithmetic as
    ``accelerate`` then ``evaluate`` would give it alone.  Every nu and r,
    then the register size and the accelerated set, is checked before the
    first state is built, also when an axis is empty.
    """
    nus = np.asarray(nus, dtype=float)
    rs = np.asarray(rs, dtype=float)
    for nu in nus:
        GhzWernerParams(nu=float(nu), n_qubits=n_qubits)
    for r in rs:
        _check_r(float(r))
    indices = _accelerated_qubits(accelerated, n_qubits)
    if nus.size == 0 or rs.size == 0:
        return np.empty((nus.size, rs.size))
    lo, hi = float(nus.min()), float(nus.max())
    t = ((nus - lo) / (hi - lo) if hi > lo else np.zeros_like(nus))[:, None]
    ends = [ghz_werner(GhzWernerParams(nu=nu, n_qubits=n_qubits)) for nu in ((lo, hi) if hi > lo else (lo,))]
    stack = np.stack([rho._x_stack for rho in ends])  # (endpoint, 2, 2^n)
    if indices:
        stack = _x_channel(stack, rs, indices)  # (r, endpoint, 2, 2^n)
        _certify_x(stack)
    k = kernel_grid(kind, [point.theta] * n_qubits, [point.phi] * n_qubits)
    w = _real(_contract_x(stack, [k[..., q] for q in range(n_qubits)]), "probe_sweep")
    w = np.broadcast_to(w, (rs.size, len(ends)))
    return (1.0 - t) * w[:, 0] + t * w[:, -1]


@dataclass(frozen=True)
class ClosedFormComparison:
    """Grid comparison of the numeric pipeline against one closed form."""

    variant: ClosedFormVariant
    nu: float
    r: float
    theta_steps: int
    phi_steps: int
    max_abs_diff: float
    argmax: SphericalPoint
    numeric_value: float
    closed_form_value: float
    status: str


def compare_closed_form(
    variant: ClosedFormVariant,
    nu: float,
    r: float = 0.0,
    theta_steps: int = 50,
    phi_steps: int = 50,
) -> ClosedFormComparison:
    """Max |numeric - closed form| over the equal-angle grid; MATCH at 1e-12.

    ``argmax``, ``numeric_value`` and ``closed_form_value`` are taken at
    the largest difference above the match tolerance, so a DISCREPANT
    comparison reports where it fails.  Differences within the tolerance
    are round-off and place nothing: a MATCH reports the first grid
    point in row-major order, the tie rule of :class:`ScanReport`.
    ``max_abs_diff`` is the largest difference either way.
    """
    variant = ClosedFormVariant(variant)
    thetas, phis = sphere_grid(theta_steps, phi_steps)
    rho = accelerated_ghz(nu, _K_ACCELERATED[variant], r)
    numeric = grid_values(rho, DistributionKind.WIGNER, thetas, phis)
    reference = _CLOSED_FORMS[variant](thetas[:, None], phis[None, :], nu, r)
    reference = np.broadcast_to(reference, numeric.shape)
    diff = np.abs(numeric - reference)
    max_diff = float(diff.max())
    it, ip = np.unravel_index(int(np.where(diff > MATCH_TOL, diff, 0.0).argmax()), diff.shape)
    return ClosedFormComparison(
        variant=variant,
        nu=nu,
        r=r,
        theta_steps=theta_steps,
        phi_steps=phi_steps,
        max_abs_diff=max_diff,
        argmax=SphericalPoint(float(thetas[it]), float(phis[ip])),
        numeric_value=float(numeric[it, ip]),
        closed_form_value=float(reference[it, ip]),
        status="MATCH" if max_diff <= MATCH_TOL else "DISCREPANT",
    )


def scan_min_vs_r(
    nu: float,
    k_accelerated: int | Sequence[int],
    r_samples: Sequence[float],
    theta: float = math.pi / 2.0,
    phi: float = math.pi,
) -> list[tuple[float, float]]:
    """Point value of the Wigner distribution along an r sweep.

    Returns (r, W) pairs at the fixed probe point (default theta = pi/2,
    phi = pi, the sphere minimum only at r = 0) of three qubits, with
    ``k_accelerated`` a count 1..3 or a non-empty set of qubits 0..2.
    """
    if not _accelerated_qubits(k_accelerated, 3):
        raise ValueError(f"k_accelerated={k_accelerated} accelerates no qubit")
    rs = [float(r) for r in r_samples]
    values = probe_sweep((nu,), rs, k_accelerated, DistributionKind.WIGNER, SphericalPoint(theta, phi))
    return [(r, float(w)) for r, w in zip(rs, values[0])]


@dataclass(frozen=True)
class ThresholdResult:
    """Mixing weight where the point value changes sign, if it does.

    ``nu_star`` is NaN and ``sign_change`` False when the value keeps one
    sign on all of [0, 1] (reported in-band, not as an error).
    """

    nu_star: float
    sign_change: bool


def negativity_threshold(
    k_accelerated: int | Sequence[int],
    r: float,
    theta: float = math.pi / 2.0,
    phi: float = math.pi,
) -> ThresholdResult:
    """The nu in [0, 1] where the point Wigner value changes sign.

    The value is affine in nu, W(nu) = (1 - nu) w0 + nu w1, so its root
    is nu* = w0 / (w0 - w1), from the two endpoint values of three qubits
    in :func:`probe_sweep`; ``k_accelerated`` is a count 0..3 or a set.
    """
    ends = probe_sweep((0.0, 1.0), (r,), k_accelerated, DistributionKind.WIGNER, SphericalPoint(theta, phi))
    w_0, w_1 = float(ends[0, 0]), float(ends[1, 0])
    if w_0 == 0.0:
        return ThresholdResult(nu_star=0.0, sign_change=True)
    if w_1 == 0.0:
        return ThresholdResult(nu_star=1.0, sign_change=True)
    if (w_0 > 0.0) == (w_1 > 0.0):
        return ThresholdResult(nu_star=math.nan, sign_change=False)
    return ThresholdResult(nu_star=w_0 / (w_0 - w_1), sign_change=True)
