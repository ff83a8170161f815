"""Dense references for the distribution evaluators.

Each walks the state's matrix entries one by one, or builds the full
Kronecker product of the per-qubit kernels, the way the evaluators did
before they shared one per-qubit contraction.  Qubit i reads basis bit i
of the state indices; values are Tr[rho K_0 x ... x K_{n-1}] with the
kernel of qubit 0 as the last Kronecker factor.
"""

import math

import numpy as np

from spinwigner import kernel_grid, kernel_n


def point_value(m, kind, points):
    """Tr[rho K(p_0) x ... x K(p_{n-1})] through the 2^n x 2^n kernel."""
    n = len(points)
    return complex(np.einsum("ij,ji->", m, kernel_n(kind, points, n)))


def equal_angle_surface(m, kind, thetas, phis):
    """Every qubit at the same (theta, phi): a loop over the 4^n entries."""
    n = m.shape[0].bit_length() - 1
    e = kernel_grid(kind, np.asarray(thetas)[:, None], np.asarray(phis)[None, :])
    acc = np.zeros(e.shape[2:], dtype=complex)
    for x in range(2 ** n):
        for y in range(2 ** n):
            w = m[x, y]
            if w == 0:
                continue
            prod = e[y & 1, x & 1]
            for i in range(1, n):
                prod = prod * e[(y >> i) & 1, (x >> i) & 1]
            acc += w * prod
    return acc


def split_surface(m, kind, thetas, phis):
    """Each qubit on its own copy of the grid: shape (theta, phi) * n, qubit 0 first."""
    n = m.shape[0].bit_length() - 1
    e = kernel_grid(kind, np.asarray(thetas)[:, None], np.asarray(phis)[None, :])
    acc = np.zeros((len(thetas), len(phis)) * n, dtype=complex)
    for x in range(2 ** n):
        for y in range(2 ** n):
            w = m[x, y]
            if w == 0:
                continue
            block = e[y & 1, x & 1]
            for i in range(1, n):
                block = np.multiply.outer(block, e[(y >> i) & 1, (x >> i) & 1])
            acc += w * block
    return acc


def normalization(m, kind, quad_order=32):
    """Gauss-Legendre x trapezoid quadrature per qubit, combined by Kronecker products."""
    n = m.shape[0].bit_length() - 1
    nodes, weights = np.polynomial.legendre.leggauss(quad_order)
    thetas = np.arccos(nodes)
    n_phi = 2 * quad_order
    phis = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    e = kernel_grid(kind, thetas[:, None], phis[None, :])
    factor = (e * weights[:, None]).sum(axis=(2, 3)) / n_phi
    total = factor
    for _ in range(n - 1):
        total = np.kron(total, factor)
    return complex(np.einsum("ij,ji->", m, total))
