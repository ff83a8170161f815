"""Density-matrix validation for small multi-qubit registers.

Matrices are plain complex128 numpy arrays of dimension 2^n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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
    frozen (non-writeable) so values can be shared freely.  Validation
    leaves two facts on the state:

    - ``min_eigenvalue``, the smallest eigenvalue of the Hermitian part
      that it certified (NaN for an instance built directly);
    - ``x_shaped``, True when the exact support of ``matrix`` lies on the
      diagonal and the anti-diagonal (an X matrix, such as every
      GHZ-Werner state, accelerated or not).  The channel and the
      contraction then work on those 2 * 2^n entries alone.  It is not a
      constructor argument: only validation sets it, so an instance built
      directly keeps False and takes the dense paths.
    """

    matrix: np.ndarray
    n_qubits: int
    min_eigenvalue: float = math.nan
    x_shaped: bool = field(default=False, init=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@functools.cache
def _x_diagonals(dim: int) -> np.ndarray:
    """Flat indices of the diagonal and the anti-diagonal of a dim x dim
    matrix by row, shape (2, dim): (x, x) and (x, dim-1-x) for x = 0..dim-1.
    For even dim the two never meet.  Read-only, since the cache shares it.
    """
    x = np.arange(dim)
    diagonals = np.stack([x * (dim + 1), (x + 1) * (dim - 1)])
    diagonals.setflags(write=False)
    return diagonals


def _hermiticity_and_min_eigenvalue(arr: np.ndarray) -> tuple[float, float, bool]:
    """Largest entry of |arr - arr^H|, smallest eigenvalue of the
    Hermitian part (arr + arr^H)/2, and whether ``arr`` is an X matrix,
    for a square matrix of even dimension.

    When every entry of ``arr`` outside the diagonal and the anti-diagonal
    is exactly zero (an X matrix, such as every GHZ-Werner state,
    accelerated or not), the same holds for arr - arr^H and for the
    Hermitian part, whose spectrum is then the union of its 2x2 blocks
    [[a, c], [c*, b]] on rows (x, dim-1-x).  Both numbers then come from
    the two diagonals alone, exactly and in O(dim): the smaller eigenvalue
    of a block is (a+b)/2 - hypot((a-b)/2, |c|), taken here once from
    each of its two rows.  Any other matrix goes through the dense
    difference and ``eigvalsh``.  The support test is exact: the entries
    of :func:`_x_diagonals` must hold every nonzero real and imaginary
    part of ``arr``.
    """
    flat = arr.ravel()
    entries = flat[_x_diagonals(arr.shape[0])]
    if np.count_nonzero(flat.view(float)) == np.count_nonzero(entries.view(float)):
        diag, anti = entries
        facing = anti[::-1].conj()  # arr^H on the anti-diagonal: conj(arr[dim-1-x, x])
        # on the diagonal |arr - arr^H| is 2 |Im arr[x, x]|
        herm_err = float(max(2.0 * np.abs(diag.imag).max(), np.abs(anti - facing).max()))
        a = diag.real  # the Hermitian part's diagonal
        b = a[::-1]
        c = np.abs(0.5 * (anti + facing))
        return herm_err, float((0.5 * (a + b) - np.hypot(0.5 * (a - b), c)).min()), True
    adjoint = arr.conj().T
    herm_err = float(np.abs(arr - adjoint).max())
    return herm_err, float(np.linalg.eigvalsh(0.5 * (arr + adjoint))[0]), False


def validate_density(m: np.ndarray, n_qubits: int) -> DensityMatrix:
    """Check trace, Hermiticity and positivity; return the frozen state.

    A matrix with a NaN or infinite entry is refused first, with a
    structural ValidationError naming the first such index.  Otherwise
    all violated invariants are reported together in the message of the
    first failure, each with its measured magnitude.  Hermiticity and
    positivity are measured by :func:`_hermiticity_and_min_eigenvalue`;
    the returned state keeps the certified minimum eigenvalue as
    ``min_eigenvalue`` and the outcome of its X-support test as
    ``x_shaped``.  The state holds a copy of ``m``: the caller's array
    stays writeable and later edits to it do not reach the state.
    """
    return _validate_owned(np.array(m, dtype=complex), n_qubits)


def _validate_owned(arr: np.ndarray, n_qubits: int) -> DensityMatrix:
    """:func:`validate_density` of a complex array that nothing else
    holds, such as one the library has just built: every check runs, and
    on success ``arr`` itself is frozen into the state, without a copy.
    """
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
    herm_err, min_eig, x_shaped = _hermiticity_and_min_eigenvalue(arr)
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
    return _certified(arr, n_qubits, min_eig, x_shaped)


def _certified(arr: np.ndarray, n_qubits: int, min_eigenvalue: float, x_shaped: bool) -> DensityMatrix:
    """The state that validation of ``arr`` certified, with both of its
    facts; the one place that sets ``DensityMatrix.x_shaped``."""
    rho = DensityMatrix(matrix=arr, n_qubits=n_qubits, min_eigenvalue=min_eigenvalue)
    object.__setattr__(rho, "x_shaped", x_shaped)
    return rho
