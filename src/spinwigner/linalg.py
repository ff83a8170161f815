"""Density-matrix validation for small multi-qubit registers.

Matrices are plain complex128 numpy arrays of dimension 2^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
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
# Most qubits whose dense matrix an X state builds from its stack on
# request: at n = 12 the 4^n complex entries alone take 256 MiB.
DENSE_MAX_QUBITS = 12
# Digit tables of the layouts of _entries.  Qubit q of rho[x, y] holds the
# digit 2 y_q + x_q, the flat position of the op[y_q, x_q] it meets in a 2x2
# operator: by row bit for an X state's two rows, by itself for a dense row.
_X_PAIRS = np.array([[0, 3], [2, 1]])
_DENSE_PAIRS = np.array([[0, 1, 2, 3]])


@dataclass(frozen=True, eq=False, init=False)
class DensityMatrix:
    """Validated quantum state: unit trace, Hermitian, positive semidefinite.

    Instances come out of :func:`validate_density`, which certifies a
    dense matrix, or of :func:`_x_state`, which certifies an X state from
    its two diagonals; the wrapped array is frozen (non-writeable) so
    values can be shared freely.  The builder fixes the layout, and
    leaves two facts on the state:

    - ``min_eigenvalue``, the smallest eigenvalue of the Hermitian part
      that it certified (NaN for an instance built directly);
    - for an X state (every GHZ-Werner state, accelerated or not), the
      read-only (2, 2^n) stack of its entries rho[x, x] and
      rho[x, 2^n-1-x], by row x.  The channel works on it, and
      :func:`_entries` hands it to every evaluator.  It is not a
      constructor argument: only :func:`_x_state` sets it, so a
      validated matrix, even one with X support, and an instance built
      directly have none and take the dense paths.

    An X state has no dense array until ``matrix`` is first read: then
    the 4^n matrix is scattered from the stack, frozen and kept.  Above
    ``DENSE_MAX_QUBITS`` qubits that read raises :class:`DimensionError`
    before allocating; the single entries of :meth:`entry` stay available
    at any size.
    """

    n_qubits: int
    min_eigenvalue: float
    _matrix: np.ndarray | None = field(repr=False)
    _x_stack: np.ndarray | None = field(repr=False)

    def __init__(self, matrix: np.ndarray, n_qubits: int, min_eigenvalue: float = math.nan):
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "min_eigenvalue", min_eigenvalue)
        object.__setattr__(self, "_x_stack", None)

    @property
    def matrix(self) -> np.ndarray:
        """The 2^n x 2^n matrix; an X state's is scattered on first read."""
        if self._matrix is None and self._x_stack is not None:
            object.__setattr__(self, "_matrix", _scatter(self._x_stack, self.n_qubits))
        return self._matrix

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    @property
    def x_shaped(self) -> bool:
        """True when the library built the state from an X stack."""
        return self._x_stack is not None

    def entry(self, row: int, col: int) -> complex:
        """rho[row, col], IndexError outside the matrix; an X state's is read from its stack."""
        if not (0 <= row < self.dim and 0 <= col < self.dim):
            raise IndexError(f"entry ({row}, {col}) outside a {self.dim} x {self.dim} matrix")
        if self._x_stack is None:
            return complex(self.matrix[row, col])
        if col == row:
            return complex(self._x_stack[0, row])
        if col == self.dim - 1 - row:
            return complex(self._x_stack[1, row])
        return 0j


def _x_diagonals(dim: int) -> np.ndarray:
    """Flat indices of the diagonal and the anti-diagonal of a dim x dim
    matrix by row, shape (2, dim): (x, x) and (x, dim-1-x) for x = 0..dim-1.
    For even dim the two never meet."""
    x = np.arange(dim)
    return np.stack([x * (dim + 1), (x + 1) * (dim - 1)])


def _hermiticity_and_min_eigenvalue(arr: np.ndarray) -> tuple[float, float]:
    """Largest entry of |arr - arr^H| and smallest eigenvalue of the
    Hermitian part (arr + arr^H)/2 of a dense square matrix, through the
    dense difference and ``eigvalsh``."""
    adjoint = arr.conj().T
    herm_err = float(np.abs(arr - adjoint).max())
    return herm_err, float(np.linalg.eigvalsh(0.5 * (arr + adjoint))[0])


def _raise_problems(trace_err: float, herm_err: float, min_eig: float) -> None:
    """Raise for every violated invariant, in the class of the first and
    with its measured magnitude; the message lists them all."""
    problems: list[tuple[type, str, float]] = []
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


def _check_n_qubits(n_qubits: int) -> None:
    """Refuse a register size that is not an integer of at least 1."""
    if not isinstance(n_qubits, (int, np.integer)) or n_qubits < 1:
        raise ValueError(f"n_qubits={n_qubits} must be an integer of at least 1")


def validate_density(m: np.ndarray, n_qubits: int) -> DensityMatrix:
    """Check trace, Hermiticity and positivity; return the frozen state.

    After the register size and the shape, a matrix with a NaN or infinite
    entry is refused, with a ValidationError naming the first such index.
    Otherwise all violated invariants are reported together in the message
    of the first failure, each with its measured magnitude.  Every matrix
    is certified densely, through :func:`_hermiticity_and_min_eigenvalue`,
    and the state keeps the dense layout whatever its support: this is
    the independent reference that :func:`_certify_x` is tested against.
    The state holds a copy of ``m``: the caller's array stays writeable
    and later edits to it do not reach the state.
    """
    _check_n_qubits(n_qubits)
    return _dense_state(np.array(m, dtype=complex), n_qubits)


def _dense_state(arr: np.ndarray, n_qubits: int) -> DensityMatrix:
    """The checks of :func:`validate_density` on ``arr``, a complex array
    that nothing else holds: the state takes it over, frozen, uncopied.
    ``n_qubits`` must already be checked."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {arr.shape}")
    dim = arr.shape[0]
    if dim != 2 ** n_qubits:
        raise NotPowerOfTwoError(f"dimension {dim} is not 2**{n_qubits}")
    finite = np.isfinite(arr)
    if not finite.all():
        i, j = (int(x) for x in np.argwhere(~finite)[0])
        raise ValidationError(f"non-finite entry {arr[i, j]} at index ({i}, {j})")
    herm_err, min_eig = _hermiticity_and_min_eigenvalue(arr)
    _raise_problems(abs(complex(arr.trace()) - 1.0), herm_err, min_eig)
    arr.setflags(write=False)
    return DensityMatrix(matrix=arr, n_qubits=n_qubits, min_eigenvalue=min_eig)


def _x_state(stack: np.ndarray, n_qubits: int) -> DensityMatrix:
    """The validated X state with ``stack``, a complex (2, 2^n) array that
    nothing else holds, as its diagonal and anti-diagonal by row.

    The one builder of X states.  Every check of :func:`validate_density`
    runs on the stack, through :func:`_certify_x`, with the same errors
    and magnitudes in O(2^n): the support holds by construction.  No
    dense matrix is built; ``.matrix`` scatters it on first read.
    """
    return _certified(None, n_qubits, float(_certify_x(stack)), stack)


def _certify_x(stack: np.ndarray) -> np.ndarray:
    """Certify every X state in ``stack``, of shape (..., 2, 2^n): per
    state its diagonal and anti-diagonal by row.  Returns the minimum
    eigenvalue of each, of shape ``stack.shape[:-2]``, and freezes
    ``stack``; all in O(2^n) per state, with no dense matrix.

    Each state gets the checks of :func:`validate_density`: a non-finite
    entry is refused first, naming the first one in the row-major order
    of its dense matrix, then trace, Hermiticity and positivity.  Off the
    X both rho - rho^H and the Hermitian part are zero, so the latter's
    spectrum is the union of its 2x2 blocks [[a, c], [c*, b]] on rows
    (x, dim-1-x), whose smaller eigenvalue is (a+b)/2 - hypot((a-b)/2, |c|),
    taken here once from each of its rows.  Of several failing states,
    the first in the row-major order of the leading axes raises.
    """
    dim = stack.shape[-1]
    if not np.isfinite(stack).all():
        states = stack.reshape(-1, 2, dim)
        first = int(np.isfinite(states).all(axis=(1, 2)).argmin())
        _certify_x(states[:first])  # a failing state before it raises first
        bad = _x_diagonals(dim)[~np.isfinite(states[first])]
        i, j = divmod(int(bad.min()), dim)  # the first in row-major order
        raise ValidationError(f"non-finite entry {states[first, 0 if j == i else 1, i]} at index ({i}, {j})")
    diag, anti = stack[..., 0, :], stack[..., 1, :]
    facing = anti[..., ::-1].conj()  # rho^H on the anti-diagonal: conj(rho[dim-1-x, x])
    # on the diagonal |rho - rho^H| is 2 |Im rho[x, x]|
    herm_err = np.maximum(2.0 * np.abs(diag.imag), np.abs(anti - facing)).max(axis=-1)
    a = diag.real  # the Hermitian part's diagonal
    b = a[..., ::-1]
    c = np.abs(0.5 * (anti + facing))
    min_eig = (0.5 * (a + b) - np.hypot(0.5 * (a - b), c)).min(axis=-1)
    trace_err = np.abs(diag.sum(axis=-1) - 1.0)
    failed = (trace_err > TRACE_TOL) | (herm_err > HERMITICITY_TOL) | (min_eig < PSD_FLOOR)
    if failed.any():
        first = np.unravel_index(int(failed.argmax()), failed.shape)
        _raise_problems(float(trace_err[first]), float(herm_err[first]), float(min_eig[first]))
    stack.setflags(write=False)
    return min_eig


def _scatter(stack: np.ndarray, n_qubits: int) -> np.ndarray:
    """The read-only dense matrix of the X state with ``stack``; refused
    with DimensionError above ``DENSE_MAX_QUBITS`` qubits."""
    if n_qubits > DENSE_MAX_QUBITS:
        raise DimensionError(
            f"the dense matrix of {n_qubits} qubits has 4**{n_qubits} entries, "
            f"more than the 4**{DENSE_MAX_QUBITS} allowed"
        )
    dim = 2 ** n_qubits
    arr = np.zeros((dim, dim), dtype=complex)
    arr.ravel()[_x_diagonals(dim)] = stack
    arr.setflags(write=False)
    return arr


def _entries(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The entries of ``rho`` and their digit table: the one choice of
    layout under every evaluator.  The entry at index sum_q j_q b^q of
    row s, b the table's width, has the digit ``digits[s, j_q]`` on qubit
    q.  An X state gives its (2, 2^n) stack with ``_X_PAIRS``, any other
    state its matrix as one contiguous (1, 4^n) row with ``_DENSE_PAIRS``,
    rho[x, y] at sum_q (2 y_q + x_q) 4^q."""
    if rho.x_shaped:
        return rho._x_stack, _X_PAIRS
    n = rho.n_qubits
    # the (2,)*2n view runs x_{n-1}..x_0 then y_{n-1}..y_0; pair y_q with x_q
    bits = rho.matrix.reshape((2,) * (2 * n)).transpose([axis for i in range(n) for axis in (n + i, i)])
    return bits.reshape(1, -1), _DENSE_PAIRS


def _certified(
    arr: np.ndarray | None, n_qubits: int, min_eigenvalue: float, stack: np.ndarray | None
) -> DensityMatrix:
    """The state that validation certified, with both of its facts; the
    one place that sets ``DensityMatrix._x_stack``.  ``arr`` is its dense
    matrix, or None for an X state built from ``stack`` alone."""
    rho = DensityMatrix(matrix=arr, n_qubits=n_qubits, min_eigenvalue=min_eigenvalue)
    object.__setattr__(rho, "_x_stack", stack)
    return rho
