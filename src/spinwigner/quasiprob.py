"""Evaluation of the s-parametrized distributions for multi-qubit states.

Point evaluation against the kernel product, vectorized grid scans with
negativity diagnostics, a quadrature normalization functional, sweeps of
the (accelerated) GHZ-Werner family, and comparisons against its
published closed-form expressions.

A point value or quadrature is the trace of the state against a tensor
product of 2x2 operators.  Every state is read as its entries indexed by
per-qubit pair digits (:func:`~spinwigner.linalg._entries`): an X
state's stack or any other state's matrix, each entry meeting one
operator entry per qubit.  So one trace sums the entries against the
products of those operator entries (:func:`_weights`, :func:`_trace`),
whatever the layout.  An independent-angle scan
contracts the entries with the Pauli basis once and the real correlation
tensor with the kernel's Pauli coefficients on each qubit's grid.  An
equal-angle surface needs no tensor: with every qubit at one point, an
entry meets a monomial fixed by its per-qubit digits, so the entries of
a stack of states are summed by that monomial (:func:`_pair_sums`) and
each surface is one matrix product of a theta factor and the 2n + 1
harmonics of phi (:func:`_surfaces`): also in every sweep over nu, r,
theta and phi (:func:`_sweep`).

What depends only on scalars and axes is memoized by
:func:`~spinwigner._memo.memo`, at most MEMO_KEYS keys of read-only
arrays per cache: a point value's weights per kind, points and layout,
a surface's theta factor per kind, theta axis and register size and its
harmonics per phi axis and register size, and the quadrature's weights
per kind, register size and layout.  States are never cached, and the
checks of the kind, the angles and the realness run on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from ._memo import memo
from .errors import DimensionError, NonRealResult
from .linalg import _DENSE_PAIRS, _X_PAIRS, DensityMatrix, _certify_x, _entries
from .rindler import MATCH_TOL, AccelerationConfig, _accelerated_qubits, _check_r, _x_channel, accelerate
from .states import GhzWernerParams, ghz_werner
from .su2kernel import (
    _PAULIS,
    SQRT3,
    DistributionKind,
    SphericalPoint,
    _check_angles,
    _pauli_coefficients,
    _point_kernels,
    kernel_grid,
)

IMAG_TOL = 1e-10
# Most cells of one table of values, refused before anything is allocated
# (_check_cells): (theta_steps * phi_steps) ** n of a scan (1 for equal
# angles in place of n), len(thetas) * len(phis) of a surface or sphere
# grid, and len(nus) * len(rs) * len(thetas) * len(phis) of a sweep.  A
# two-qubit independent-angle scan of 3,992,004 cells (37 x 54 per qubit)
# peaks at 0.068 GB of numpy allocations (tracemalloc): the values, their
# negative part for the negative volume and the sign mask, side by side.
MAX_CELLS = 4_000_000
# Gauss-Legendre nodes in cos(theta) of normalization_check; twice as many
# trapezoid points in phi.
QUAD_ORDER = 32


@dataclass(frozen=True)
class QuasiProbSample:
    """One distribution value, with the per-qubit points it was taken at.

    The dataclass itself checks nothing: :func:`evaluate`, which builds it,
    passes the trace's imaginary part to ``_check_residue``, which raises
    NonRealResult for a residue above IMAG_TOL (1e-10).
    """

    points: tuple[SphericalPoint, ...]
    kind: DistributionKind
    value: float


def _check_residue(residue: float, context: str) -> None:
    """NonRealResult for an imaginary residue above IMAG_TOL."""
    if residue > IMAG_TOL:
        raise NonRealResult(f"{context}: imaginary residue {residue:.3e}")


def _real(values: np.ndarray, context: str) -> np.ndarray:
    """Real part of a contraction; an imaginary residue above IMAG_TOL
    raises NonRealResult."""
    _check_residue(float(max(values.imag.max(), -values.imag.min())), context)
    return values.real.copy()


def _per_entry(per_qubit: Sequence[np.ndarray], digits: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """``ufunc`` over the qubits of per_qubit[q].flat[d_q], for every entry
    of the layout of ``digits`` (:func:`~spinwigner.linalg._entries`), as
    one Kronecker factor per qubit of m >= 1: shape (rows, b^m)."""
    out = per_qubit[0].reshape(-1)[digits]
    for values in per_qubit[1:]:
        out = ufunc(values.reshape(-1)[digits][:, :, None], out[:, None, :]).reshape(len(digits), -1)
    return out


def _weights(ops: Sequence[np.ndarray], digits: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """The weights of :func:`_trace` for the 2x2 ``ops``, one per qubit, in
    the layout of ``digits``: the products of the operator entries that
    each entry meets (:func:`_per_entry`), as the Kronecker factors of the
    low and the high half of the qubits.  The low half is None for one
    qubit."""
    half = len(ops) // 2
    low = _per_entry(ops[:half], digits, np.multiply) if half else None
    return low, _per_entry(ops[half:], digits, np.multiply)


def _trace(entries: np.ndarray, weights: tuple[np.ndarray | None, np.ndarray]) -> np.ndarray:
    """Tr[rho ops[0] x ... x ops[n-1]] of every state in ``entries``, of
    shape (..., rows, b^n) in the layout that ``weights``, from
    :func:`_weights` of the ops, were built in.  The result has shape
    entries.shape[:-2].

    Each state is summed against the low half's weights, then the high
    half's: O(b^n) work, each state as alone.  ``entries`` must be
    contiguous, or the sums may differ in the last bit.
    """
    low, high = weights
    if low is not None:
        t = entries.reshape(entries.shape[:-1] + (high.shape[1], low.shape[1]))
        entries = np.einsum("...shl,sl->...sh", t, low)
    return np.einsum("...sh,sh->...", entries, high)


def _each_qubit(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Sum each axis of the (b,)*n tensor ``t``, one per qubit, against
    the first axis of the (b, k) matrix ``m``, lowest qubit first.  Each
    step drops the leading axis and appends a k-long one, so the result,
    of shape (k^(n-1), k), holds the new axes in qubit order."""
    for _ in range(t.ndim):
        t = t.reshape(len(m), -1).T @ m
    return t


def _pair_sums(entries: np.ndarray, digits: np.ndarray, n: int) -> np.ndarray:
    """The entries of each n-qubit state in ``entries``, (..., rows, b^n) in
    the layout of ``digits``, summed by the monomial they meet when every
    qubit sits at one point: complex, of shape (..., n + 1, n + 1, 2n + 1).

    An entry whose qubits hold k bit pairs (x_q, y_q) = (1, 1), u pairs
    (1, 0) and d pairs (0, 1) lands in S[k, u + d, n + u - d], at the flat
    slot n plus one step per qubit, by its digit: 0 for (0, 0), H + 1 for
    u, H - 1 for d and (n + 1) H for k, with H = 2n + 1.  Each state's
    slots are offset by its place in the batch, so one bincount sums
    every state as if alone.
    """
    harmonics = 2 * n + 1
    steps = np.array([0, harmonics + 1, harmonics - 1, (n + 1) * harmonics])
    size = (n + 1) ** 2 * harmonics
    batch = entries.shape[:-2]
    count = math.prod(batch)
    slots = (_per_entry([steps] * n, digits, np.add) + n + size * np.arange(count)[:, None, None]).ravel()
    total = count * size
    sums = np.bincount(slots, entries.real.ravel(), total) + 1j * np.bincount(slots, entries.imag.ravel(), total)
    return sums.reshape(batch + (n + 1, n + 1, harmonics))


@memo
def _point_weights(
    kind: DistributionKind, angles: tuple[tuple[float, float], ...], x_shaped: bool
) -> tuple[np.ndarray | None, np.ndarray]:
    """The :func:`_weights` of the kernels of ``kind`` at the per-qubit
    (theta, phi) ``angles``, in the X layout or the dense one
    (:func:`~spinwigner.linalg._entries`), built by
    :func:`~spinwigner.su2kernel._point_kernels` and its checks on a miss.

    Memoized on (kind, angles, x_shaped), read-only.  A refused key
    raises and stores nothing.
    """
    return _weights(_point_kernels(kind, angles), _X_PAIRS if x_shaped else _DENSE_PAIRS)


def evaluate(rho: DensityMatrix, kind: DistributionKind, points: Sequence[SphericalPoint]) -> QuasiProbSample:
    """Distribution value Tr[rho K(p_0) x ... x K(p_{n-1})], one point per qubit.

    The kernels come from :func:`~spinwigner.su2kernel._point_kernels`, one
    per distinct point (the same as :func:`kernel_grid` gives), and their
    :func:`_trace` weights from :func:`_point_weights`, memoized on
    (kind, the per-qubit (theta, phi) floats, the state's layout); the
    shared weights are read-only.  The state is never cached: its
    entries meet the weights on every call.  A wrong number of points
    raises DimensionError, an unknown ``kind`` or a non-finite angle
    ValueError, on every call, and an imaginary residue above IMAG_TOL
    NonRealResult.
    """
    pts = tuple(points)
    if len(pts) != rho.n_qubits:
        raise DimensionError(f"expected {rho.n_qubits} points, got {len(pts)}")
    kind = DistributionKind(kind)
    angles = tuple((float(p.theta), float(p.phi)) for p in pts)
    value = _trace(_entries(rho)[0], _point_weights(kind, angles, rho.x_shaped))
    _check_residue(abs(float(value.imag)), "evaluate")
    return QuasiProbSample(points=pts, kind=kind, value=float(value.real))


def _check_cells(cells: int, what: str, *args) -> None:
    """DimensionError for a table of more than ``MAX_CELLS`` cells, named
    ``what.format(*args)`` (formatted only then)."""
    if cells > MAX_CELLS:
        raise DimensionError(f"{what.format(*args)} needs {cells:,} cells, more than the {MAX_CELLS:,} allowed")


def sphere_grid(theta_steps: int, phi_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform equal-angle axes: theta over [0, pi] inclusive, phi over
    [0, 2*pi) exclusive.  Fewer than 2 steps on either, or a grid of more
    than ``MAX_CELLS`` points, raises DimensionError."""
    if theta_steps < 2 or phi_steps < 2:
        raise DimensionError("theta_steps and phi_steps must both be at least 2")
    _check_cells(theta_steps * phi_steps, "a {} x {} sphere grid", theta_steps, phi_steps)
    return np.linspace(0.0, math.pi, theta_steps), np.arange(phi_steps) * (2.0 * math.pi / phi_steps)


def _check_axes(thetas, phis) -> tuple[np.ndarray, np.ndarray]:
    """``thetas`` and ``phis`` as float axes: non-empty and 1-D (DimensionError), finite (ValueError)."""
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    if thetas.ndim != 1 or phis.ndim != 1 or thetas.size == 0 or phis.size == 0:
        raise DimensionError(
            f"thetas and phis must be non-empty 1-D axes, got shapes {thetas.shape} and {phis.shape}"
        )
    _check_angles(thetas, phis)
    return thetas, phis


@memo
def _theta_factor(kind: DistributionKind, thetas: bytes, n: int) -> np.ndarray:
    """The monomials a^(n-k-m) b^k c^m of :func:`_surfaces` at each angle of
    the float64 theta axis whose bytes are ``thetas``, for ``kind`` and n
    qubits: shape (len(thetas), (n + 1)^2), flat in (k, m).

    Memoized on (kind, the axis bytes, n), read-only.  The bytes tell
    -0.0 from 0.0, so each axis gets the factor an unmemoized build gives
    it, bitwise.  The caller checks the kind and the angles first.
    """
    thetas = np.frombuffer(thetas)
    # The one condition on the kind's table: it maps sin theta cos phi only
    # to v_X and sin theta sin phi only to v_Y, with opposite signs, and
    # nothing else to either.  Then K[0, 1] = v_X - i v_Y is proportional to
    # e^(i phi), K[0, 0] and K[1, 1] do not depend on phi, and a, b and c
    # are the kernel's entries at phi = 0.
    kernels = kernel_grid(kind, thetas, 0.0).real
    powers = np.arange(n + 1)
    a, b, c = (kernels[row, col][:, None] ** powers for row, col in ((0, 0), (1, 1), (0, 1)))
    # slots with k + m > n hold no entry: their exponent of a is clipped to 0
    exponents = np.maximum(n - powers[:, None] - powers, 0)
    return (a[:, exponents] * b[:, :, None] * c[:, None, :]).reshape(thetas.size, -1)


@memo
def _harmonics(phis: bytes, n: int) -> np.ndarray:
    """E of :func:`_surfaces` at each angle of the float64 phi axis whose
    bytes are ``phis``: (cos D phi, -sin D phi) interleaved by harmonic
    D = -n..n, of shape (2 (2n + 1), len(phis)).

    Memoized on (the axis bytes, n), read-only.
    """
    phis = np.frombuffer(phis)
    angles = phis[:, None] * (np.arange(2 * n + 1) - n)
    return np.stack([np.cos(angles), -np.sin(angles)], axis=-1).reshape(phis.size, -1).T


def _surfaces(sums: np.ndarray, kind: DistributionKind, thetas, phis, context: str) -> np.ndarray:
    """Equal-angle values W(theta_i, phi_j) of the pair sums ``sums``: shape (..., len(thetas), len(phis)).

    At one point (theta, phi) the kernel has K[0, 0] = a, K[1, 1] = b and
    K[0, 1] = conj(K[1, 0]) = c e^(i phi) with a, b and c real functions
    of theta, so an entry in the slot S[k, m, n + D] meets
    a^(n-k-m) b^k c^m e^(i D phi) and W is the real part of one matrix
    product over the 2n + 1 harmonics D = -n..n: with F[i] the pair sums
    contracted with the monomials at theta_i (:func:`_theta_factor`),
    W[i, j] = sum_D Re F[i, D] cos D phi_j - Im F[i, D] sin D phi_j
    (:func:`_harmonics`).  Both factors depend only on the kind, the axes
    and n, so they are memoized; the axes must come from
    :func:`_check_axes`.  On every call, the realness check is made on the
    pair sums (half the largest |S[k, m, D] - conj(S[k, m, -D])| is the
    imaginary residue), then ``kind`` is checked.
    """
    n = sums.shape[-1] // 2
    _check_residue(0.5 * float(np.abs(sums - sums[..., ::-1].conj()).max()), context)
    monomials = _theta_factor(DistributionKind(kind), thetas.tobytes(), n)
    # F's real and imaginary parts interleaved by harmonic, as E's (cos, -sin)
    f = monomials @ sums.reshape(sums.shape[:-3] + ((n + 1) ** 2, -1)).view(float)
    return f @ _harmonics(phis.tobytes(), n)


def grid_values(rho: DensityMatrix, kind: DistributionKind, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Equal-angle values W(theta_i, phi_j) as a (len(thetas), len(phis)) array.

    Same kernel as :func:`evaluate`, read from the state's pair sums
    (:func:`_surfaces`), whose theta factor and phi harmonics are memoized
    per (kind, axis, register size); the state is never cached.
    ``thetas`` and ``phis`` must be non-empty 1-D axes (DimensionError) of
    finite angles (ValueError), and ``kind`` a DistributionKind value
    (ValueError), on every call; a surface of more than ``MAX_CELLS`` cells
    is refused with DimensionError before anything is allocated.
    """
    thetas, phis = _check_axes(thetas, phis)
    _check_cells(thetas.size * phis.size, "a surface of {} x {} angles", thetas.size, phis.size)
    return _surfaces(_pair_sums(*_entries(rho), rho.n_qubits), kind, thetas, phis, "grid values")


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
    convention for the figures), and the values are the separable product
    of :func:`grid_values`.  Otherwise each qubit runs over its own copy
    of the grid, which multiplies the sample count by itself n times: the
    real Pauli correlation tensor T_mu = Tr[rho sigma_mu_0 x ... x
    sigma_mu_{n-1}] is taken from the state's entries, one matrix product
    per qubit and row of the layout, and contracted with the kernel's
    Pauli coefficients on each qubit's grid, one matrix product per
    qubit.  An X state's T comes from its stack: no dense matrix is
    built.  A scan of more than ``MAX_CELLS`` cells is refused with
    :class:`DimensionError` before anything is allocated.  The
    equal-angle scan checks the pair sums for realness and the
    independent-angle scan checks T, not W.  An equal-angle scan reads the
    memoized surface factors of :func:`grid_values`.  ``negative_fraction``
    counts the cells below 0.0, so a -0.0 cell is not negative.
    """
    n = rho.n_qubits
    if not equal_angles:
        _check_cells((theta_steps * phi_steps) ** n, "independent-angle scan of {} qubits", n)
    thetas, phis = sphere_grid(theta_steps, phi_steps)
    d_theta = math.pi / (theta_steps - 1)
    d_phi = 2.0 * math.pi / phi_steps
    point_weight = np.repeat(np.sin(thetas) * d_theta * d_phi, phi_steps)  # by (theta, phi), row-major

    if equal_angles:
        values = grid_values(rho, kind, thetas, phis)
    else:
        entries, digits = _entries(rho)
        paulis = _PAULIS.reshape(4, 4)  # sigma_mu[y, x] by the digit 2 y + x
        # each row of the layout meets the Pauli basis through its own digits
        corr = sum(_each_qubit(row.reshape((len(d),) * n).T, paulis[d]) for row, d in zip(entries, digits))
        corr = _real(corr, "grid scan").reshape((4,) * n)
        v = _pauli_coefficients(kind, thetas[:, None], phis[None, :]).reshape(4, -1)
        values = _each_qubit(corr, v).reshape((theta_steps, phi_steps) * n)

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

    # a cell's weight is the product of its point weights, one per (theta,
    # phi) axis pair, so the volume is summed one pair at a time, last first
    volume = np.minimum(values, 0.0)
    for _ in range(values.ndim // 2):
        volume = volume.reshape(-1, point_weight.size) @ point_weight
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
        negative_fraction=np.count_nonzero(values < 0.0) / values.size,
        negative_volume=abs(float(volume[0])),  # a sum of terms <= 0
    )


def normalization_check(rho: DensityMatrix, kind: DistributionKind) -> float:
    """Quadrature of (2*pi)^-n * Int W dOmega_1 ... dOmega_n; should be 1.

    Gauss-Legendre nodes in cos(theta) (QUAD_ORDER of them) and a uniform
    trapezoid with 2*QUAD_ORDER points in phi, per qubit.  The integrand
    is multilinear in the per-qubit kernels and the grid is a tensor
    product, so the full n-fold quadrature sum factorizes exactly into one
    quadrature of the four Pauli coefficients per qubit; their 2x2
    operator is contracted with the state.  Its trace weights are memoized
    per (kind, register size, layout) (:func:`_quadrature_weights`); the
    state is never cached, and ``kind`` (ValueError) and the realness of
    the trace (NonRealResult) are checked on every call.
    """
    weights = _quadrature_weights(DistributionKind(kind), rho.n_qubits, rho.x_shaped)
    return float(_real(_trace(_entries(rho)[0], weights), "normalization_check"))


@memo
def _quadrature_weights(
    kind: DistributionKind, n: int, x_shaped: bool
) -> tuple[np.ndarray | None, np.ndarray]:
    """The :func:`_weights` of n copies of :func:`_quadrature_mean`'s
    operator of ``kind``, in the X layout or the dense one: memoized on
    (kind, n, x_shaped), read-only."""
    return _weights([_quadrature_mean(kind)] * n, _X_PAIRS if x_shaped else _DENSE_PAIRS)


@memo
def _quadrature_mean(kind: DistributionKind) -> np.ndarray:
    """The 2x2 kernel of ``kind`` averaged by normalization_check's
    quadrature.  Built on first use, not at import; memoized per kind,
    read-only, apart from :func:`_quadrature_weights`: a build takes about
    0.4 ms, some thirty weight builds, which a weights miss would repeat."""
    nodes, weights = np.polynomial.legendre.leggauss(QUAD_ORDER)
    n_phi = 2 * QUAD_ORDER
    phis = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    v = _pauli_coefficients(kind, np.arccos(nodes)[:, None], phis[None, :])
    # the phi step 2*pi/n_phi times the (2*pi)^-1 of the functional
    mean = (v * weights[:, None]).sum(axis=(1, 2)) / n_phi
    return _PAULIS @ mean


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


def _sweep(
    nus: Sequence[float],
    rs: Sequence[float],
    accelerated: int | Sequence[int],
    kind: DistributionKind,
    thetas: Sequence[float],
    phis: Sequence[float],
    n_qubits: int = 3,
) -> np.ndarray:
    """Equal-angle values W[i, j, a, b] of ``accelerated_ghz(nus[i],
    accelerated, rs[j], n_qubits)`` with every qubit at (thetas[a], phis[b]).

    W is affine in nu, so only the validated states at min(nus) and
    max(nus) are built and the rest is interpolated; when they are equal,
    the one state's values are every nu's, with no interpolation.  One
    :func:`~spinwigner.rindler._x_channel` takes them to every r, one
    :func:`~spinwigner.linalg._certify_x` certifies the (R, endpoints)
    batch, and one :func:`_pair_sums` feeds :func:`_surfaces`: each state
    gets the values :func:`grid_values` gives it alone, bitwise.  The
    angles, the number of cells (at most ``MAX_CELLS``), then every nu and
    r, the register size and the accelerated set are checked before the
    first state is built, also for an empty axis.
    """
    thetas, phis = _check_axes(thetas, phis)
    nus = np.asarray(nus, dtype=float)
    rs = np.asarray(rs, dtype=float)
    _check_cells(
        nus.size * rs.size * thetas.size * phis.size,
        "a sweep of {} nu x {} r x {} theta x {} phi", nus.size, rs.size, thetas.size, phis.size,
    )
    for nu in nus:
        GhzWernerParams(nu=float(nu), n_qubits=n_qubits)
    for r in rs:
        _check_r(float(r))
    indices = _accelerated_qubits(accelerated, n_qubits)
    if nus.size == 0 or rs.size == 0:
        return np.empty((nus.size, rs.size, thetas.size, phis.size))
    lo, hi = float(nus.min()), float(nus.max())
    ends = [ghz_werner(GhzWernerParams(nu=nu, n_qubits=n_qubits)) for nu in ((lo, hi) if hi > lo else (lo,))]
    stack = np.stack([rho._x_stack for rho in ends])  # (endpoint, 2, 2^n)
    if indices:
        stack = _x_channel(stack, rs, indices)  # (r, endpoint, 2, 2^n)
        _certify_x(stack)
    w = _surfaces(_pair_sums(stack, _X_PAIRS, n_qubits), kind, thetas, phis, "sweep")
    w = np.broadcast_to(w, (rs.size, len(ends), thetas.size, phis.size))
    if hi == lo:
        return np.broadcast_to(w[:, 0], (nus.size, *w[:, 0].shape)).copy()
    t = ((nus - lo) / (hi - lo))[:, None, None, None]
    return (1.0 - t) * w[:, 0] + t * w[:, -1]


def probe_sweep(
    nus: Sequence[float],
    rs: Sequence[float],
    accelerated: int | Sequence[int],
    kind: DistributionKind,
    point: SphericalPoint,
    n_qubits: int = 3,
) -> np.ndarray:
    """Point values W[i, j] of ``accelerated_ghz(nus[i], accelerated, rs[j],
    n_qubits)`` with every qubit at ``point``: :func:`_sweep` at one point."""
    return _sweep(nus, rs, accelerated, kind, [point.theta], [point.phi], n_qubits)[..., 0, 0]


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
