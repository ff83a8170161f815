"""GHZ states and their white-noise (Werner-type) mixtures."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MixingOutOfRange
from .linalg import DensityMatrix, _validate_owned


@dataclass(frozen=True)
class GhzWernerParams:
    """Mixing weight nu in [0, 1] and register size (default three qubits)."""

    nu: float
    n_qubits: int = 3

    def __post_init__(self):
        if not (0.0 <= self.nu <= 1.0):
            raise MixingOutOfRange(f"nu={self.nu} outside [0, 1]")
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits={self.n_qubits} must be at least 1")


def ghz_pure(n_qubits: int) -> np.ndarray:
    """State vector (|0...0> + |1...1>)/sqrt(2) of length 2**n_qubits."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits={n_qubits} must be at least 1")
    v = np.zeros(2 ** n_qubits, dtype=complex)
    amp = 1.0 / math.sqrt(2.0)
    v[0] = amp
    v[-1] = amp
    return v


def ghz_werner(params: GhzWernerParams) -> DensityMatrix:
    """nu * |GHZ><GHZ| + (1 - nu) * I / 2**n, validated.

    The state is an X matrix: the noise on the diagonal, and nu * amp^2
    (amp = 1/sqrt 2, the amplitudes of :func:`ghz_pure`) on the four
    corners.  Those entries are written into one zeroed array with the
    same float operations as the dense sum above, so the matrix is
    bitwise that sum, and the array goes to validation without a copy.
    """
    dim = 2 ** params.n_qubits
    amp = 1.0 / math.sqrt(2.0)
    coherence = params.nu * (amp * amp)
    noise = (1.0 - params.nu) / dim
    m = np.zeros((dim, dim), dtype=complex)
    np.fill_diagonal(m, noise)
    m[0, 0] = m[-1, -1] = coherence + noise
    m[0, -1] = m[-1, 0] = coherence
    return _validate_owned(m, params.n_qubits)
