"""Density-matrix validation for small multi-qubit registers.

Matrices are plain complex128 numpy arrays of dimension 2^n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    HermiticityViolation,
    NegativityViolation,
    NotPowerOfTwoError,
    NotSquareError,
    TraceViolation,
    ValidationError,
)

TRACE_TOL = 1e-12
HERMITICITY_TOL = 1e-12
PSD_FLOOR = -1e-10


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated quantum state: unit trace, Hermitian, positive semidefinite.

    Instances come out of :func:`validate_density`; the wrapped array is
    frozen (non-writeable) so values can be shared freely.
    ``min_eigenvalue`` is the smallest eigenvalue of the Hermitian part
    that validation certified (NaN for an instance built directly).
    """

    matrix: np.ndarray
    n_qubits: int
    min_eigenvalue: float = math.nan

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@functools.cache
def _x_blocks(dim: int) -> np.ndarray:
    """Flat indices of the 2x2 blocks of a dim x dim X matrix, shape (4, dim/2).

    Block i pairs rows i and j = dim-1-i; its rows hold the flat indices
    of (i, i), (j, j), (i, j) and (j, i), which together cover the
    diagonal and the anti-diagonal.  Read-only, since the cache shares it.
    """
    i = np.arange(dim // 2)
    j = dim - 1 - i
    blocks = np.stack([i * (dim + 1), j * (dim + 1), i * dim + j, j * dim + i])
    blocks.setflags(write=False)
    return blocks


def _x_entries(arr: np.ndarray) -> np.ndarray | None:
    """The entries of :func:`_x_blocks` of a square matrix of even
    dimension if its exact support lies on the diagonal and the
    anti-diagonal (an X matrix), None otherwise.

    The test is exact: the X entries must hold every nonzero real and
    imaginary part of ``arr``.
    """
    flat = arr.ravel()
    blocks = flat[_x_blocks(arr.shape[0])]
    if np.count_nonzero(flat.view(float)) == np.count_nonzero(blocks.view(float)):
        return blocks
    return None


def _hermiticity_and_min_eigenvalue(arr: np.ndarray) -> tuple[float, float]:
    """Largest entry of |arr - arr^H| and smallest eigenvalue of the
    Hermitian part (arr + arr^H)/2, for a square matrix of even dimension.

    When every entry of ``arr`` outside the diagonal and the anti-diagonal
    is exactly zero (an X matrix, such as every GHZ-Werner state,
    accelerated or not), the same holds for arr - arr^H and for the
    Hermitian part, whose spectrum is then the union of its 2x2 blocks
    [[a, c], [c*, b]] on rows (i, dim-1-i).  Both numbers then come from
    the blocks alone, exactly and in O(dim): the smaller eigenvalue of a
    block is (a+b)/2 - hypot((a-b)/2, |c|).  Any other matrix goes
    through the dense difference and ``eigvalsh``; :func:`_x_entries`
    makes the choice.
    """
    blocks = _x_entries(arr)
    if blocks is not None:
        adjoint = blocks[[0, 1, 3, 2]].conj()  # arr^H at the same positions
        herm_err = float(np.abs(blocks - adjoint).max())
        h = 0.5 * (blocks + adjoint)
        a = h[0].real
        b = h[1].real
        return herm_err, float((0.5 * (a + b) - np.hypot(0.5 * (a - b), np.abs(h[2]))).min())
    adjoint = arr.conj().T
    herm_err = float(np.abs(arr - adjoint).max())
    return herm_err, float(np.linalg.eigvalsh(0.5 * (arr + adjoint))[0])


def validate_density(m: np.ndarray, n_qubits: int) -> DensityMatrix:
    """Check trace, Hermiticity and positivity; return the frozen state.

    A matrix with a NaN or infinite entry is refused first, with a
    structural ValidationError naming the first such index.  Otherwise
    all violated invariants are reported together in the message of the
    first failure, each with its measured magnitude.  Hermiticity and
    positivity are measured by :func:`_hermiticity_and_min_eigenvalue`;
    the returned state keeps the certified minimum eigenvalue as
    ``min_eigenvalue``.
    """
    arr = np.array(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {arr.shape}")
    dim = arr.shape[0]
    if n_qubits < 1 or dim != 2 ** n_qubits:
        raise NotPowerOfTwoError(f"dimension {dim} is not 2**{n_qubits}")
    finite = np.isfinite(arr)
    if not finite.all():
        i, j = (int(x) for x in np.argwhere(~finite)[0])
        raise ValidationError(f"non-finite entry {arr[i, j]} at index ({i}, {j})")

    problems: list[tuple[type, str, float]] = []
    trace_err = abs(complex(arr.trace()) - 1.0)
    if trace_err > TRACE_TOL:
        problems.append((TraceViolation, f"trace deviates from 1 by {trace_err:.3e}", trace_err))
    herm_err, min_eig = _hermiticity_and_min_eigenvalue(arr)
    if herm_err > HERMITICITY_TOL:
        problems.append(
            (HermiticityViolation, f"non-Hermitian by {herm_err:.3e}", herm_err)
        )
    if min_eig < PSD_FLOOR:
        problems.append(
            (NegativityViolation, f"minimum eigenvalue {min_eig:.3e} below floor", -min_eig)
        )
    if problems:
        cls, msg, magnitude = problems[0]
        if len(problems) > 1:
            msg += "; also: " + "; ".join(p[1] for p in problems[1:])
        raise cls(msg, magnitude)

    arr.setflags(write=False)
    return DensityMatrix(matrix=arr, n_qubits=n_qubits, min_eigenvalue=min_eig)
