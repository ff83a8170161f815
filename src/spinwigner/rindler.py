"""Uniform-acceleration decoherence of selected qubits.

Each accelerated qubit is carried from its inertial mode into a pair of
Rindler-wedge modes by an isometry parametrized by r in [0, pi/4]; the
causally hidden wedge is traced out immediately, leaving a completely
positive trace-preserving channel on the original register.  The module
also evaluates reference coefficient tables for the accelerated
GHZ-Werner family, kept verbatim from the published closed forms
(including their misprints) so reports can measure the deviation instead
of silently correcting it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from ._memo import memo
from .errors import IndexOutOfRange, ROutOfRange
from .linalg import DensityMatrix, _check_n_qubits, _dense_state, _x_state, validate_density
from .states import GhzWernerParams, ghz_werner

R_MAX = math.pi / 4.0
MATCH_TOL = 1e-12

COEFFICIENT_VARIANTS = ("A", "B", "C")
_K_FOR_VARIANT = {"A": 1, "B": 2, "C": 3}
_DIAG_KEYS = ("11", "22", "33", "44", "55", "66", "77", "88")


def _check_r(r: float) -> None:
    """Refuse an acceleration parameter outside [0, R_MAX], or NaN."""
    if not (0.0 <= r <= R_MAX):
        raise ROutOfRange(f"r={r} outside [0, {R_MAX}]")


def _accelerated_qubits(accelerated, n_qubits: int | None = None) -> tuple[int, ...]:
    """The checked accelerated set as ints: qubits 0..k-1 for a count k, else
    the integer qubits named, once each, none negative or past ``n_qubits``."""
    if n_qubits is not None:
        _check_n_qubits(n_qubits)
        if isinstance(accelerated, (int, np.integer)):
            if not 0 <= accelerated <= n_qubits:
                raise ValueError(f"k_accelerated={accelerated} outside 0..{n_qubits}")
            return tuple(range(accelerated))
    idx = tuple(map(operator.index, accelerated))  # TypeError for a non-integer count or index
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate qubit indices in {idx}")
    if idx and min(idx) < 0:
        raise IndexOutOfRange(f"negative qubit index in {idx}")
    if idx and n_qubits is not None and max(idx) >= n_qubits:
        raise IndexOutOfRange(f"qubit {next(q for q in idx if q >= n_qubits)} outside register of {n_qubits}")
    return idx


@dataclass(frozen=True)
class AccelerationConfig:
    """Acceleration parameter and the qubit indices it applies to.

    Qubit indices refer to basis bits (qubit 0 = least significant), checked
    by :func:`_accelerated_qubits`, against the register in :meth:`check_register`.
    ``accelerated`` takes named qubit indices only: a count k needs the
    register size, which the config does not know, so an integer raises
    TypeError.
    """

    r: float
    accelerated: tuple[int, ...] = ()

    def __post_init__(self):
        _check_r(self.r)
        object.__setattr__(self, "accelerated", _accelerated_qubits(self.accelerated))

    def check_register(self, n_qubits: int) -> None:
        """Raise IndexOutOfRange if an accelerated qubit is not in an n-qubit register."""
        _accelerated_qubits(self.accelerated, n_qubits)


def unruh_isometry(r: float) -> np.ndarray:
    """4x2 isometry mapping one qubit into the two-wedge mode pair.

    |0> -> cos r |00> + sin r |11> and |1> -> |10>, with the first wedge
    factor most significant; columns are orthonormal for every r.
    """
    _check_r(r)
    v = np.zeros((4, 2), dtype=complex)
    v[0, 0] = math.cos(r)
    v[3, 0] = math.sin(r)
    v[2, 1] = 1.0
    return v


def _kraus_pair(r: float) -> np.ndarray:
    """Kraus operators K_j[a, b] = V[2a + j, b] of the isometry V, shape (2, 2, 2).

    Tracing out the hidden wedge j, the less significant factor of the
    pair, leaves K0 = diag(cos r, 1) and K1 = sin r |1><0|: amplitude
    damping with gamma = sin^2 r.
    """
    return unruh_isometry(r).reshape(2, 2, 2).transpose(1, 0, 2)


@memo
def _transfer(rs: tuple[float, ...]) -> np.ndarray:
    """The channel on one qubit at each r of ``rs``, shape (R, 4, 4): the
    map of the Kraus pair of :func:`_kraus_pair` on the qubit's (row bit,
    column bit) pair, (a, c) by (b, d) with the row bit first.

    A pure function of r, so it is memoized on the tuple of float rs,
    read-only.  Each r passes :func:`_check_r` on a miss; a refused r
    raises and stores nothing.  No state is cached.
    """
    kraus = np.array([_kraus_pair(r) for r in rs])
    # rho'[a, c] = sum_j K_j[a, b] rho[b, d] conj(K_j[c, d])
    return np.einsum("rjab,rjcd->racbd", kraus, kraus.conj()).reshape(-1, 4, 4)


def _x_channel(stack: np.ndarray, rs, qubits: tuple[int, ...]) -> np.ndarray:
    """The channel at each r of ``rs`` on the (non-empty) ``qubits`` of
    the X states in ``stack``, of shape (..., 2, 2^n): per state its
    diagonal and anti-diagonal by row.  Returns the uncertified output
    stacks, of shape (R,) + stack.shape, in O(k 2^n) per state and r.

    The transfer maps populations (00, 11) only among themselves and each
    coherence (01, 10) only onto itself, so the output is an X state
    again.  For qubit q the 2^n diagonal entries take the transfer's 2x2
    population block, broadcast over the (2^(n-1-q), 2, 2^q) view of
    qubit q's bit; the 2^n anti-diagonal entries, whose row bit b faces
    column bit 1 - b, are scaled by the transfer's (b, 1-b) coherence
    entry.  The qubits run in ascending order; the steps commute.
    """
    transfer = _transfer(tuple(map(float, rs)))
    transfer = transfer.reshape((-1,) + (1,) * (stack.ndim - 1) + (4, 4))  # r ahead of the batch and high bits
    populations = transfer[..., ::3, ::3]  # among (0, 0) and (1, 1)
    coherences = transfer.diagonal(axis1=-2, axis2=-1)[..., 1:3, None]  # (0, 1) and (1, 0), by row bit
    n = stack.shape[-1].bit_length() - 1
    lead = stack.shape[:-2]  # then (R,) + that
    diag, anti = stack[..., 0, :], stack[..., 1, :]
    for q in sorted(qubits):
        view = lead + (2 ** (n - 1 - q), 2, 2 ** q)
        diag = populations @ diag.reshape(view)
        anti = anti.reshape(view) * coherences
        lead = diag.shape[:-3]
    out = np.empty(lead + stack.shape[-2:], dtype=complex)
    out[..., 0, :] = diag.reshape(lead + (-1,))
    out[..., 1, :] = anti.reshape(lead + (-1,))
    return out


def accelerate(rho: DensityMatrix, config: AccelerationConfig) -> DensityMatrix:
    """Apply the acceleration channel to every qubit named in ``config``.

    The Kraus pair of :func:`unruh_isometry` gives one 4x4 transfer map
    on the (row bit, column bit) pair of a qubit, applied in the layout
    the input was built in, which the output keeps:

    - an X state (``x_shaped``: built by the library from its stack, as
      every GHZ-Werner state is, accelerated or not) has its (2, 2^n)
      stack go through :func:`_x_channel` as a batch of one state at one
      r, the code that runs a whole r sweep of ``probe_sweep`` at once,
      and the output is certified from its stack by :func:`_x_state`:
      O(k 2^n) work for k qubits, and no dense matrix;
    - any other state, a validated matrix or an instance built without
      validation, gets the transfer on its dense (row bit, column bit)
      axes of each accelerated qubit, O(k 4^n), and its output is
      validated densely, in place, by :func:`~spinwigner.linalg._dense_state`.

    The steps commute, so they run in ascending index order for
    determinism.  With no qubit named, an X state is returned as it is,
    and any other is validated.

    The transfer map at r is memoized by :func:`_transfer` (key: the
    tuple of float rs; the shared map is read-only).  States are never
    cached: every output is computed and certified on every call.
    """
    n = rho.n_qubits
    config.check_register(n)
    if not config.accelerated:
        return rho if rho.x_shaped else validate_density(rho.matrix, n)
    if rho.x_shaped:
        return _x_state(_x_channel(rho._x_stack, (config.r,), config.accelerated)[0], n)
    transfer = _transfer((float(config.r),))[0]
    shape = (2,) * (2 * n)
    t = rho.matrix.reshape(shape)
    for q in sorted(config.accelerated):
        axes = (n - 1 - q, 2 * n - 1 - q)  # row and column bit of qubit q; factors run msb-first
        front = np.moveaxis(t, axes, (0, 1)).reshape(4, -1)
        t = np.moveaxis((transfer @ front).reshape(shape), (0, 1), axes)
    return _dense_state(t.reshape(2 ** n, 2 ** n), n)


@dataclass(frozen=True)
class CoefficientTable:
    """Named entries of a published coefficient table at one (nu, r)."""

    variant: str
    nu: float
    r: float
    entries: dict[str, float]
    note: str | None = None

    @property
    def diagonal_sum(self) -> float:
        return float(sum(self.entries[k] for k in _DIAG_KEYS))


def coefficient_table(variant: str, nu: float, r: float) -> CoefficientTable:
    """Evaluate the published per-entry formulas for one, two, or three
    accelerated qubits (variants "A", "B", "C").

    The formulas are transcribed verbatim, so known misprints are
    reproduced: the B diagonal sums to 1 - nu/2, and parts of C drift
    from the channel output as r grows.  Comparison against the numeric
    channel belongs to :func:`coefficient_report`.
    """
    if variant not in COEFFICIENT_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {COEFFICIENT_VARIANTS}")
    GhzWernerParams(nu=nu)
    _check_r(r)
    c = math.cos(r)
    s = math.sin(r)
    c2, s2 = c * c, s * s
    p = (1.0 + 3.0 * nu) / 8.0
    q = (1.0 - nu) / 8.0

    a = {
        "11": p * c2,
        "22": p * s2 + q,
        "33": q * c2,
        "44": q * (s2 + 1.0),
        "55": q * c2,
        "66": q * (s2 + 1.0),
        "77": q * c2,
        "88": p + q * s2,
        "18": 0.5 * nu * c,
    }
    a["81"] = a["18"]
    if variant == "A":
        return CoefficientTable("A", nu, r, a)

    if variant == "B":
        b = {
            "11": a["11"] * c2,
            "22": a["22"] * c2,
            "33": a["22"] * c2,
            "44": math.tan(r) ** 4 * (a["11"] * c2) + a["44"],
            "55": a["33"] * c2,
            "66": a["44"] * c2,
            "77": a["44"] * c2 + q * s2,
            "88": a["44"] * (s2 + 1.0),
            "18": a["18"] * c,
        }
        b["81"] = b["18"]
        return CoefficientTable("B", nu, r, b)

    cc = {
        "11": a["11"] * c2 * c2,
        "22": a["22"] * c2 * c2,
        "33": a["22"] * c2 * c2,
        "44": a["22"] * c2 + 2.0 * a["33"] * s2,
        "55": a["22"] * c2 * c2,
        "66": a["22"] * c2 + 2.0 * a["33"] * s2,
        "77": a["22"] * c2 + 2.0 * a["33"] * s2,
        "88": 3.0 * a["44"] * s2 + p * (s2 ** 3 + 1.0),
        "18": a["18"] * c2,
    }
    cc["81"] = cc["18"]
    return CoefficientTable(
        "C", nu, r, cc, note="the |111><111| weight is labelled 12 in the source table"
    )


@dataclass(frozen=True)
class CoefficientComparison:
    """Entrywise comparison of a published table against the channel output."""

    variant: str
    nu: float
    r: float
    printed: dict[str, float]
    numeric: dict[str, float]
    abs_diff: dict[str, float]
    max_abs_diff: float
    printed_diagonal_sum: float
    status: str
    note: str | None = None


def coefficient_report(variant: str, nu: float, r: float) -> CoefficientComparison:
    """Compare a published coefficient table against the numeric channel.

    The numeric column is the ground truth: the GHZ-Werner state pushed
    through the acceleration channel on the first one, two, or three
    qubits.  Status is MATCH when every named entry agrees within 1e-12,
    DISCREPANT otherwise.
    """
    table = coefficient_table(variant, nu, r)
    k = _K_FOR_VARIANT[variant]
    rho = accelerate(
        ghz_werner(GhzWernerParams(nu=nu)),
        AccelerationConfig(r=r, accelerated=tuple(range(k))),
    )
    numeric: dict[str, float] = {}
    for key in _DIAG_KEYS:
        i = int(key[0]) - 1
        numeric[key] = rho.entry(i, i).real
    numeric["18"] = rho.entry(0, 7).real
    numeric["81"] = rho.entry(7, 0).real
    diff = {key: abs(table.entries[key] - numeric[key]) for key in table.entries}
    max_diff = max(diff.values())
    return CoefficientComparison(
        variant=variant,
        nu=nu,
        r=r,
        printed=dict(table.entries),
        numeric=numeric,
        abs_diff=diff,
        max_abs_diff=max_diff,
        printed_diagonal_sum=table.diagonal_sum,
        status="MATCH" if max_diff <= MATCH_TOL else "DISCREPANT",
        note=table.note,
    )
