"""Phase-point kernels on the SU(2) sphere for spin-1/2 constituents.

The s-parametrized kernel family (s = -1, 0, +1 selecting the Husimi Q,
Wigner, and Glauber P distributions) is assembled from Clebsch-Gordan
coefficients, irreducible tensor operators, and the L <= 1 spherical
harmonics.  Every kernel is real in the Pauli basis, K = sum_m v_m sigma_m,
so that chain is regrouped once per kind into a real 4x4 table from the
angular basis (1, cos theta, sin theta cos phi, sin theta sin phi) to the
coefficients (v_I, v_X, v_Y, v_Z), and every kernel is built from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

import numpy as np

from ._memo import memo
from .errors import InvalidQuantumNumbers, NonRealResult, UnsupportedOrder

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT3 = math.sqrt(3.0)
_Y00 = 0.5 / math.sqrt(math.pi)
_N10 = math.sqrt(3.0 / (4.0 * math.pi))
_N11 = math.sqrt(3.0 / (8.0 * math.pi))
# Y_LK on the real angular basis (1, cos theta, sin theta cos phi,
# sin theta sin phi): _ylm with exp(+-i phi) = cos phi +- i sin phi.
_YLM_ON_BASIS = {
    (0, 0): (_Y00, 0.0, 0.0, 0.0),
    (1, 0): (0.0, _N10, 0.0, 0.0),
    (1, 1): (0.0, 0.0, -_N11, -1j * _N11),
    (1, -1): (0.0, 0.0, _N11, -1j * _N11),
}
# Largest imaginary part of a Pauli table entry taken as round-off.
_TABLE_IMAG_TOL = 1e-15

# I, X, Y, Z stacked on the last axis: _PAULIS[:, :, m] is sigma_m.
_PAULIS = np.stack(
    [np.eye(2), [[0.0, 1.0], [1.0, 0.0]], [[0.0, -1j], [1j, 0.0]], np.diag([1.0, -1.0])],
    axis=-1,
).astype(complex)
_PAULIS.setflags(write=False)


class DistributionKind(IntEnum):
    """s parameter selecting one member of the quasi-probability family."""

    Q = -1
    WIGNER = 0
    P = 1


def _check_angles(theta, phi) -> None:
    """The angle rule of every point and kernel: theta and phi (scalars or
    arrays) finite, else ValueError.  Scalars, Python or numpy, are read
    by math.isfinite: numpy's reduction costs microseconds a point."""
    if isinstance(theta, np.ndarray) or isinstance(phi, np.ndarray):
        finite = np.isfinite(theta).all() and np.isfinite(phi).all()
    else:
        finite = math.isfinite(theta) and math.isfinite(phi)
    if not finite:
        raise ValueError("theta and phi must be finite")


@dataclass(frozen=True)
class SphericalPoint:
    """Point on the unit sphere: colatitude theta, azimuth phi (radians)."""

    theta: float
    phi: float

    def __post_init__(self):
        if np.ndim(self.theta) or np.ndim(self.phi):
            raise TypeError("theta and phi of a point must be scalars")
        _check_angles(self.theta, self.phi)


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """Single-qubit phase-point operator evaluated at one sphere point."""

    kind: DistributionKind
    point: SphericalPoint
    matrix: np.ndarray


def _as_doubled(x: float, name: str) -> int:
    """Return 2*x as an exact integer; reject non-half-integral input."""
    d = 2.0 * float(x)
    r = round(d)
    if abs(d - r) > 1e-9:
        raise InvalidQuantumNumbers(f"{name}={x} is not half-integral")
    return int(r)


def clebsch_gordan(j1: float, m1: float, j2: float, m2: float, J: float, M: float) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M>, Condon-Shortley phase.

    Half-integral arguments are handled exactly (internally doubled to
    integers); the Racah closed-form sum is evaluated with exact rational
    arithmetic under the square root, so results are correct to one ulp.
    Selection-rule failures return 0.0; malformed labels raise
    InvalidQuantumNumbers.
    """
    jj1, mm1 = _as_doubled(j1, "j1"), _as_doubled(m1, "m1")
    jj2, mm2 = _as_doubled(j2, "j2"), _as_doubled(m2, "m2")
    JJ, MM = _as_doubled(J, "J"), _as_doubled(M, "M")
    for jj, mm, nm in ((jj1, mm1, "1"), (jj2, mm2, "2"), (JJ, MM, "tot")):
        if jj < 0:
            raise InvalidQuantumNumbers(f"j{nm} must be non-negative")
        if abs(mm) > jj:
            raise InvalidQuantumNumbers(f"|m{nm}| exceeds j{nm}")
        if (jj + mm) % 2:
            raise InvalidQuantumNumbers(f"j{nm} and m{nm} differ by a non-integer")

    if mm1 + mm2 != MM:
        return 0.0
    if JJ < abs(jj1 - jj2) or JJ > jj1 + jj2 or (jj1 + jj2 + JJ) % 2:
        return 0.0

    def f(doubled: int) -> int:
        # argument arrives as a doubled even integer; factorial of half
        if doubled % 2 or doubled < 0:
            raise InvalidQuantumNumbers("internal: non-integral factorial argument")
        return math.factorial(doubled // 2)

    pref2 = Fraction(JJ + 1, 1)
    pref2 *= Fraction(
        f(jj1 + jj2 - JJ) * f(jj1 - jj2 + JJ) * f(-jj1 + jj2 + JJ),
        f(jj1 + jj2 + JJ + 2),
    )
    pref2 *= Fraction(
        f(JJ + MM) * f(JJ - MM) * f(jj1 + mm1) * f(jj1 - mm1) * f(jj2 + mm2) * f(jj2 - mm2)
    )

    # summation index k (true integer); bounds keep every factorial argument >= 0
    k_min = max(0, (jj2 - JJ - mm1) // 2, (jj1 + mm2 - JJ) // 2)
    k_max = min(
        (jj1 + jj2 - JJ) // 2,
        (jj1 - mm1) // 2,
        (jj2 + mm2) // 2,
    )
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        kk = 2 * k
        denom = (
            math.factorial(k)
            * f(jj1 + jj2 - JJ - kk)
            * f(jj1 - mm1 - kk)
            * f(jj2 + mm2 - kk)
            * f(JJ - jj2 + mm1 + kk)
            * f(JJ - jj1 - mm2 + kk)
        )
        total += Fraction(-1 if k % 2 else 1, denom)
    if total == 0:
        return 0.0
    value2 = pref2 * total * total
    return math.copysign(math.sqrt(float(value2)), float(total))


def _ylm(L: int, K: int, theta, phi):
    """L <= 1 spherical harmonics, Condon-Shortley phase; array-capable."""
    if (L, K) == (0, 0):
        return _Y00 * np.ones_like(np.asarray(theta, dtype=float))
    if (L, K) == (1, 0):
        return _N10 * np.cos(theta)
    if (L, K) == (1, 1):
        return -_N11 * np.sin(theta) * np.exp(1j * np.asarray(phi, dtype=float))
    if (L, K) == (1, -1):
        return _N11 * np.sin(theta) * np.exp(-1j * np.asarray(phi, dtype=float))
    raise UnsupportedOrder(f"(L, K) = ({L}, {K}) not implemented")


def spherical_harmonic(L: int, K: int, point: SphericalPoint) -> complex:
    """Y_{L,K}(theta, phi) for L in {0, 1}; larger L raises UnsupportedOrder."""
    if L not in (0, 1):
        raise UnsupportedOrder(f"order L={L} outside the implemented range {{0, 1}}")
    if abs(K) > L:
        raise InvalidQuantumNumbers(f"|K|={abs(K)} exceeds L={L}")
    return complex(_ylm(L, K, point.theta, point.phi))


def ito(L: int, M: int) -> np.ndarray:
    """Adjoint irreducible tensor operator for spin 1/2, as a 2x2 matrix.

    Built from Clebsch-Gordan couplings of the spin with a rank-L
    multipole; only L in {0, 1} exists for a single qubit.
    """
    if L not in (0, 1):
        raise UnsupportedOrder(f"rank L={L} outside the implemented range {{0, 1}}")
    if abs(M) > L:
        raise InvalidQuantumNumbers(f"|M|={abs(M)} exceeds L={L}")
    t = np.zeros((2, 2), dtype=complex)
    # basis index 0 holds m = -1/2, index 1 holds m = +1/2
    for ki, k in ((0, -0.5), (1, 0.5)):
        for kpi, kp in ((0, -0.5), (1, 0.5)):
            c = clebsch_gordan(0.5, k, L, -M, 0.5, kp)
            if c != 0.0:
                t[kpi, ki] = c
    t *= (-1) ** M * math.sqrt((2 * L + 1) / 2.0)
    return t


@memo
def _pauli_table(kind: DistributionKind) -> np.ndarray:
    """Real 4x4 table: row m maps the angular basis to v_m = Tr[K sigma_m] / 2.

    Regroups K = sqrt(2 pi) [T_00 Y_00 + 3^(s/2) sum_M T_1M Y_1M] (tensor
    operators from :func:`ito`) onto the basis of _YLM_ON_BASIS.
    An imaginary part above _TABLE_IMAG_TOL raises NonRealResult.
    Memoized per kind, read-only.
    """
    gain = SQRT3 ** int(kind)
    table = np.zeros((4, 4), dtype=complex)
    for (L, M), on_basis in _YLM_ON_BASIS.items():
        half_traces = 0.5 * np.einsum("ij,jim->m", ito(L, M), _PAULIS)
        table += gain ** L * np.outer(half_traces, on_basis)
    table *= SQRT_2PI
    residue = float(np.abs(table.imag).max())
    if residue > _TABLE_IMAG_TOL:
        raise NonRealResult(f"Pauli table of s={int(kind)}: imaginary residue {residue:.3e}")
    return table.real.copy()


def _pauli_coefficients(kind: DistributionKind, theta, phi) -> np.ndarray:
    """Real Pauli coefficients of the kernel, K = sum_m v_m sigma_m.

    Returns the stack (v_I, v_X, v_Y, v_Z) of shape (4,) +
    broadcast(theta, phi).shape: the table of ``kind``, which must be a
    DistributionKind value, applied to the angular basis (1, cos theta,
    sin theta cos phi, sin theta sin phi).  The builder under every kernel
    on angle arrays, and so their angle gate: every angle finite
    (ValueError).  Point values take their kernels from
    :func:`_point_kernels`, which applies the same table to the same basis.
    """
    table = _pauli_table(DistributionKind(kind))
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    _check_angles(theta, phi)
    sin_theta = np.sin(theta)
    basis = np.empty((4,) + np.broadcast(theta, phi).shape)
    basis[0] = 1.0
    basis[1] = np.cos(theta)
    basis[2] = sin_theta * np.cos(phi)
    basis[3] = sin_theta * np.sin(phi)
    # matmul on the flattened grid: tensordot's set-up dominates a
    # point evaluation's few angles
    return (table @ basis.reshape(4, -1)).reshape(basis.shape)


def _point_kernels(kind: DistributionKind, angles) -> list[np.ndarray]:
    """The 2x2 kernel of ``kind`` at each scalar (theta, phi) of ``angles``.

    A point value puts each qubit at one point, and often every qubit at
    the same one, so each distinct pair is built once: its angular basis
    is taken with ``math``, not numpy's set-up for arrays, and goes
    through the table and the Pauli matrices as in
    :func:`_pauli_coefficients` and :func:`kernel_grid`: the kernels are
    theirs, bitwise where ``math`` and numpy agree on sin and cos.
    ``kind`` must be a DistributionKind value, and each distinct pair
    passes the angle gate (ValueError).  Repeated pairs share one
    read-only matrix.
    """
    table = _pauli_table(DistributionKind(kind))
    angles = [(float(theta), float(phi)) for theta, phi in angles]
    distinct = dict.fromkeys(angles)
    basis = np.empty((4, len(distinct)))
    for i, (theta, phi) in enumerate(distinct):
        _check_angles(theta, phi)
        sin_theta = math.sin(theta)
        basis[:, i] = 1.0, math.cos(theta), sin_theta * math.cos(phi), sin_theta * math.sin(phi)
        distinct[theta, phi] = i
    kernels = (_PAULIS.reshape(4, 4) @ (table @ basis)).T.reshape(-1, 2, 2)
    kernels.setflags(write=False)
    views = list(kernels)
    return [views[distinct[pair]] for pair in angles]


def kernel_grid(kind: DistributionKind, theta, phi) -> np.ndarray:
    """Kernel matrix elements over broadcastable angle arrays.

    Returns sum_m v_m sigma_m over :func:`_pauli_coefficients`, a complex
    array of shape (2, 2) + broadcast(theta, phi).shape; the scalar case
    yields a plain 2x2 matrix.  ``kind`` must be a DistributionKind value
    and every angle finite (ValueError).
    """
    v = _pauli_coefficients(kind, theta, phi)
    return (_PAULIS.reshape(4, 4) @ v.reshape(4, -1)).reshape((2, 2) + v.shape[1:])


def kernel(kind: DistributionKind, point: SphericalPoint) -> KernelOperator:
    """Single-qubit phase-point operator at ``point`` for distribution ``kind``."""
    m = kernel_grid(kind, point.theta, point.phi)
    m.setflags(write=False)
    return KernelOperator(kind=DistributionKind(kind), point=point, matrix=m)
