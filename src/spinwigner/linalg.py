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
    - for an X matrix, whose exact support lies on the diagonal and the
      anti-diagonal (such as every GHZ-Werner state, accelerated or not),
      the read-only (2, 2^n) stack of its entries rho[x, x] and
      rho[x, 2^n-1-x], by row x, on which the channel and the contraction
      work.  It is not a constructor argument: only validation sets it,
      so an instance built directly has none and takes the dense paths.
    """

    matrix: np.ndarray
    n_qubits: int
    min_eigenvalue: float = math.nan
    _x_stack: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def x_shaped(self) -> bool:
        """True when validation certified ``matrix`` as an X matrix."""
        return self._x_stack is not None


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


def _hermiticity_and_min_eigenvalue(arr: np.ndarray) -> tuple[float, float]:
    """Largest entry of |arr - arr^H| and smallest eigenvalue of the
    Hermitian part (arr + arr^H)/2 of a dense square matrix, through the
    dense difference and ``eigvalsh``."""
    adjoint = arr.conj().T
    herm_err = float(np.abs(arr - adjoint).max())
    return herm_err, float(np.linalg.eigvalsh(0.5 * (arr + adjoint))[0])


def _raise_problems(trace: complex, herm_err: float, min_eig: float) -> None:
    """Raise for every violated invariant, in the class of the first and
    with its measured magnitude; the message lists them all."""
    problems: list[tuple[type, str, float]] = []
    trace_err = abs(complex(trace) - 1.0)
    if trace_err > TRACE_TOL:
        problems.append((TraceViolation, f"trace deviates from 1 by {trace_err:.3e}", trace_err))
    if herm_err > HERMITICITY_TOL:
        problems.append((HermiticityViolation, f"non-Hermitian by {herm_err:.3e}", herm_err))
    if min_eig < PSD_FLOOR:
        problems.append((NegativityViolation, f"minimum eigenvalue {min_eig:.3e} below floor", -min_eig))
    if problems:
        cls, msg, magnitude = problems[0]
        if len(problems) > 1:
            msg += "; also: " + "; ".join(p[1] for p in problems[1:])
        raise cls(msg, magnitude)


def validate_density(m: np.ndarray, n_qubits: int) -> DensityMatrix:
    """Check trace, Hermiticity and positivity; return the frozen state.

    A matrix with a NaN or infinite entry is refused first, with a
    structural ValidationError naming the first such index.  Otherwise
    all violated invariants are reported together in the message of the
    first failure, each with its measured magnitude.  An X matrix (the
    exact support test: every nonzero real and imaginary part lies on the
    diagonal or the anti-diagonal) is certified from those two, as by
    :func:`_x_state`, and keeps them as its stack; any other matrix goes
    through :func:`_hermiticity_and_min_eigenvalue`.  The state holds a
    copy of ``m``: the caller's array stays writeable and later edits to
    it do not reach the state.
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
    flat = arr.ravel()
    stack = flat[_x_diagonals(dim)]
    if np.count_nonzero(flat.view(float)) == np.count_nonzero(stack.view(float)):
        return _certify_x(arr, stack, n_qubits)
    herm_err, min_eig = _hermiticity_and_min_eigenvalue(arr)
    _raise_problems(arr.trace(), herm_err, min_eig)
    arr.setflags(write=False)
    return _certified(arr, n_qubits, min_eig, None)


def _x_state(stack: np.ndarray, n_qubits: int) -> DensityMatrix:
    """The validated X state with ``stack``, a complex (2, 2^n) array that
    nothing else holds, as its diagonal and anti-diagonal by row.

    Every check of :func:`validate_density` runs on the stack, with the
    same errors and magnitudes, but no support test: the support holds by
    construction.  The dense matrix is scattered once.
    """
    dim = 2 ** n_qubits
    diagonals = _x_diagonals(dim)
    arr = np.zeros((dim, dim), dtype=complex)
    arr.ravel()[diagonals] = stack
    bad = diagonals[~np.isfinite(stack)]
    if bad.size:
        i, j = divmod(int(bad.min()), dim)  # the first in row-major order
        raise ValidationError(f"non-finite entry {arr[i, j]} at index ({i}, {j})")
    return _certify_x(arr, stack, n_qubits)


def _certify_x(arr: np.ndarray, stack: np.ndarray, n_qubits: int) -> DensityMatrix:
    """Certify the finite X matrix ``arr`` from ``stack``, its diagonal and
    anti-diagonal by row, in O(2^n); on success freeze both into the state.

    Off the X both arr - arr^H and the Hermitian part are zero, so the
    latter's spectrum is the union of its 2x2 blocks [[a, c], [c*, b]] on
    rows (x, dim-1-x).  The smaller eigenvalue of a block is
    (a+b)/2 - hypot((a-b)/2, |c|), taken here once from each of its rows.
    """
    diag, anti = stack
    facing = anti[::-1].conj()  # arr^H on the anti-diagonal: conj(arr[dim-1-x, x])
    # on the diagonal |arr - arr^H| is 2 |Im arr[x, x]|
    herm_err = float(max(2.0 * np.abs(diag.imag).max(), np.abs(anti - facing).max()))
    a = diag.real  # the Hermitian part's diagonal
    b = a[::-1]
    c = np.abs(0.5 * (anti + facing))
    min_eig = float((0.5 * (a + b) - np.hypot(0.5 * (a - b), c)).min())
    _raise_problems(diag.sum(), herm_err, min_eig)
    arr.setflags(write=False)
    stack.setflags(write=False)
    return _certified(arr, n_qubits, min_eig, stack)


def _certified(arr: np.ndarray, n_qubits: int, min_eigenvalue: float, stack: np.ndarray | None) -> DensityMatrix:
    """The state that validation of ``arr`` certified, with both of its
    facts; the one place that sets ``DensityMatrix._x_stack``."""
    rho = DensityMatrix(matrix=arr, n_qubits=n_qubits, min_eigenvalue=min_eigenvalue)
    object.__setattr__(rho, "_x_stack", stack)
    return rho
