"""GHZ states and their white-noise (Werner-type) mixtures."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MixingOutOfRange
from .linalg import DensityMatrix, _check_n_qubits, _x_state


@dataclass(frozen=True)
class GhzWernerParams:
    """Mixing weight nu in [0, 1] and register size (default three qubits)."""

    nu: float
    n_qubits: int = 3

    def __post_init__(self):
        if not (0.0 <= self.nu <= 1.0):
            raise MixingOutOfRange(f"nu={self.nu} outside [0, 1]")
        _check_n_qubits(self.n_qubits)


def ghz_werner(params: GhzWernerParams) -> DensityMatrix:
    """nu * |GHZ><GHZ| + (1 - nu) * I / 2**n, validated, with
    |GHZ> = (|0...0> + |1...1>)/sqrt(2).

    The state is an X matrix: the noise on the diagonal, and nu * amp^2
    (amp = 1/sqrt 2) on the four corners.  Only its diagonal and
    anti-diagonal are built, with the same float operations as the dense
    sum above, so the matrix is bitwise that sum.
    """
    dim = 2 ** params.n_qubits
    amp = 1.0 / math.sqrt(2.0)
    coherence = params.nu * (amp * amp)
    noise = (1.0 - params.nu) / dim
    stack = np.zeros((2, dim), dtype=complex)  # diagonal and anti-diagonal by row
    stack[0] = noise
    stack[0, [0, -1]] = coherence + noise
    stack[1, [0, -1]] = coherence
    return _x_state(stack, params.n_qubits)
