"""Independent references for the benchmark's correctness gate.

None of these goes through the library's contraction, state or channel
code: the closed forms are transcribed again here, GHZ-Werner states are
built directly, the acceleration channel is applied as its Kraus pair,
and distribution values are dense traces Tr[rho K_{n-1} x ... x K_0]
against explicit Kronecker products of the single-qubit ``kernel()``
matrices.
"""

from __future__ import annotations

import math

import numpy as np

import spinwigner as sw

SQRT3 = math.sqrt(3.0)
R_MAX = math.pi / 4.0

# "%.12g" CSV cells round to a relative 5e-12; the pipeline itself is
# good to ~1e-15, so a 1e-9 error in any cell of magnitude < 100 fails.
CSV_ABS_TOL = 1e-12
CSV_REL_TOL = 1e-11
# full-precision arrays: criterion-level tolerance, scaled for |W| > 1
ARRAY_TOL = 1e-12
NORMALIZATION_TOL = 1e-8
HUSIMI_FLOOR = -1e-12


def csv_close(got, ref) -> np.ndarray:
    """Elementwise: does a 12-significant-digit CSV cell match ``ref``?"""
    ref = np.asarray(ref, dtype=float)
    return np.abs(np.asarray(got, dtype=float) - ref) <= CSV_ABS_TOL + CSV_REL_TOL * np.abs(ref)


def array_close(got, ref) -> np.ndarray:
    """Elementwise: does a full-precision value match ``ref`` to 1e-12?"""
    ref = np.asarray(ref, dtype=float)
    return np.abs(np.asarray(got, dtype=float) - ref) <= ARRAY_TOL * np.maximum(1.0, np.abs(ref))


def ghz_closed_form(theta, phi, nu):
    """Wigner function of the three-qubit GHZ-Werner state, equal angles."""
    return (
        3.0 * SQRT3 * nu * np.sin(theta) ** 3 * np.cos(3.0 * phi)
        + 9.0 * nu * np.cos(theta) ** 2
        + 1.0
    ) / 8.0


def acc1_closed_form(theta, phi, nu, r):
    """Wigner function with the first of three qubits accelerated."""
    return (
        SQRT3
        * (
            6.0 * nu * np.sin(theta) ** 3 * np.cos(r) * np.cos(3.0 * phi)
            + np.cos(theta) * np.sin(r) ** 2 * (3.0 * nu * np.cos(2.0 * theta) + 3.0 * nu + 2.0)
        )
        + 6.0 * nu * (np.cos(theta) ** 2 * np.cos(2.0 * r) + np.cos(2.0 * theta) + 1.0)
        + 2.0
    ) / 16.0


def point_law(n, nu, k, r):
    """Wigner value at theta = pi/2, phi = pi of an n-qubit GHZ-Werner
    state with k qubits accelerated: (1 + (-1)^n 3^(n/2) nu cos^k r) / 2^n.

    At n = 3 this is criterion 9's (1 - 3 sqrt3 nu cos^k r) / 8.
    """
    return (1.0 + (-1.0) ** n * 3.0 ** (n / 2.0) * nu * np.cos(r) ** k) / 2.0 ** n


def ghz_werner_matrix(n: int, nu: float) -> np.ndarray:
    """nu |GHZ><GHZ| + (1 - nu) I / 2^n as a plain complex array."""
    dim = 2 ** n
    m = (1.0 - nu) / dim * np.eye(dim, dtype=complex)
    for i in (0, dim - 1):
        for j in (0, dim - 1):
            m[i, j] += nu / 2.0
    return m


def kraus_accelerate(m: np.ndarray, n: int, qubits, r: float) -> np.ndarray:
    """Acceleration channel as the amplitude-damping Kraus pair
    K0 = diag(cos r, 1), K1 = sin r |1><0| on each named qubit.

    Qubit q is basis bit q, i.e. Kronecker slot n - 1 - q.
    """
    k0 = np.array([[math.cos(r), 0.0], [0.0, 1.0]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [math.sin(r), 0.0]], dtype=complex)
    for q in qubits:
        slot = n - 1 - q
        left = np.eye(2 ** slot)
        right = np.eye(2 ** (n - 1 - slot))
        m = sum(
            big @ m @ big.conj().T
            for big in (np.kron(np.kron(left, k), right) for k in (k0, k1))
        )
    return m


def dense_value(rho: np.ndarray, kind, points) -> float:
    """Tr[rho K(p_{n-1}) x ... x K(p_0)]; ``points[i]`` is qubit i's (theta, phi)."""
    full = np.ones((1, 1), dtype=complex)
    for theta, phi in reversed(list(points)):
        k = sw.kernel(kind, sw.SphericalPoint(float(theta), float(phi))).matrix
        full = np.kron(full, k)
    return float(np.einsum("ij,ji->", rho, full).real)


def ginibre_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix G G^dagger / Tr, as a plain array."""
    dim = 2 ** n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def sphere_grid(theta_steps: int, phi_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The documented scan grid: theta in [0, pi] inclusive, phi in [0, 2 pi)."""
    thetas = np.linspace(0.0, math.pi, theta_steps)
    phis = np.arange(phi_steps) * (2.0 * math.pi / phi_steps)
    return thetas, phis
