"""Dense references for the distribution evaluators.

They share no code with the library's kernel construction: each qubit's
kernel is the closed form (I + lam n.sigma)/2 of :func:`closed_form_kernel`,
and n-qubit kernels are plain ``np.kron`` products.  The references walk
the state's matrix entries one by one, or build the full Kronecker product
of the per-qubit kernels.  Qubit i reads basis bit i of the state indices;
values are Tr[rho K_0 x ... x K_{n-1}] with the kernel of qubit 0 as the
last Kronecker factor.
"""

import math

import numpy as np


def closed_form_kernel(kind, theta, phi):
    """Kernel of distribution ``kind`` (s) over broadcastable angles, shape
    (2, 2) + broadcast shape: (I + lam n.sigma)/2 with lam = 3^((1+s)/2).

    The basis lists m = -1/2 first, so the matrix is that of the usual
    m = +1/2-first form with both indices flipped: n_z -> -n_z, n_y -> -n_y.
    """
    lam = math.sqrt(3.0) ** (int(kind) + 1)
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    off = lam / 2 * np.sin(theta) * np.exp(1j * phi)
    return np.array(
        [
            [(1 - lam * np.cos(theta)) / 2, off],
            [off.conj(), (1 + lam * np.cos(theta)) / 2],
        ]
    )


def kernel_n(kind, points):
    """2^n x 2^n kernel of n qubits, ``points[i]`` on qubit i (the last factor for i = 0)."""
    out = np.ones((1, 1), dtype=complex)
    for p in reversed(list(points)):
        out = np.kron(out, closed_form_kernel(kind, p.theta, p.phi))
    return out


def partial_trace(m, dims, keep):
    """Trace out every subsystem not in ``keep`` (sorted, unique) of a square array.

    ``dims`` lists the subsystem dimensions in Kronecker-factor order, the
    first factor most significant.
    """
    n = len(dims)
    t = np.asarray(m).reshape(tuple(dims) * 2)
    # row and column axis i share a label iff subsystem i is traced out
    col_labels = [i + n if i in keep else i for i in range(n)]
    reduced = np.einsum(t, list(range(n)) + col_labels, list(keep) + [i + n for i in keep])
    d = math.prod(dims[i] for i in keep)
    return reduced.reshape(d, d)


def point_value(m, kind, points):
    """Tr[rho K(p_0) x ... x K(p_{n-1})] through the 2^n x 2^n kernel."""
    return complex(np.einsum("ij,ji->", m, kernel_n(kind, points)))


def equal_angle_surface(m, kind, thetas, phis):
    """Every qubit at the same (theta, phi): a loop over the 4^n entries."""
    n = m.shape[0].bit_length() - 1
    e = closed_form_kernel(kind, np.asarray(thetas)[:, None], np.asarray(phis)[None, :])
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
    e = closed_form_kernel(kind, np.asarray(thetas)[:, None], np.asarray(phis)[None, :])
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


def normalization(m, kind):
    """Gauss-Legendre (32 nodes in cos theta) x trapezoid (64 in phi)
    quadrature per qubit, combined by Kronecker products."""
    n = m.shape[0].bit_length() - 1
    order = 32
    nodes, weights = np.polynomial.legendre.leggauss(order)
    thetas = np.arccos(nodes)
    n_phi = 2 * order
    phis = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    e = closed_form_kernel(kind, thetas[:, None], phis[None, :])
    factor = (e * weights[:, None]).sum(axis=(2, 3)) / n_phi
    total = factor
    for _ in range(n - 1):
        total = np.kron(total, factor)
    return complex(np.einsum("ij,ji->", m, total))
