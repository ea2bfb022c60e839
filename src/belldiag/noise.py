"""Kraus channels and the composite amplitude plus phase damping model.

The composite channel is zero temperature: amplitude decay toward |0> with
rate ``a`` combined with pure dephasing with rate ``p``. Its three Kraus
operators satisfy the completeness relation algebraically, since
``p(1-a) + a + (1-p)(1-a) = 1``.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError, OutOfRangeError
from .measures import ResourceReport, _reports
from .states import DensityMatrix, _shown, strict_array, strict_index, strict_real, werner

COMPLETENESS_ATOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving single-qubit map given by Kraus operators."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not np.iterable(self.operators):
            raise OutOfRangeError(f"Kraus operators must be a sequence, got {_shown(self.operators)}")
        ops = tuple(
            strict_array(k, complex, (2, 2), DimensionMismatchError, "a one-qubit Kraus operator")
            for k in self.operators
        )
        if not ops:
            raise OutOfRangeError("a channel needs at least one Kraus operator")
        # K†K <= I bounds each entry of a trace-preserving K by 1, which also keeps NaN,
        # the infinities and overflow out of the completeness sum.
        if not all(np.all(np.abs(k.view(float)) <= 1 + COMPLETENESS_ATOL) for k in ops):
            raise OutOfRangeError("Kraus operators must have finite entries of modulus at most 1")
        total = sum(k.conj().T @ k for k in ops)
        defect = float(np.max(np.abs(total - np.eye(2))))
        if defect > COMPLETENESS_ATOL:
            raise OutOfRangeError(f"channel is not trace preserving: |sum K†K - I| = {defect:.3e}")
        object.__setattr__(self, "operators", ops)


def composite_damping(a: float, p: float) -> KrausChannel:
    """Single-qubit composition of amplitude damping ``a`` and phase damping ``p``."""
    a = strict_real(a, OutOfRangeError, "damping rate a", 0, 1)
    p = strict_real(p, OutOfRangeError, "damping rate p", 0, 1)
    k0 = np.array([[0, 0], [0, np.sqrt(p * (1 - a))]], dtype=complex)
    k1 = np.array([[0, np.sqrt(a)], [0, 0]], dtype=complex)
    k2 = np.array([[1, 0], [0, np.sqrt((1 - p) * (1 - a))]], dtype=complex)
    return KrausChannel(operators=(k0, k1, k2))


def apply_channel(channel: KrausChannel, rho: DensityMatrix, qubit: int = 0) -> DensityMatrix:
    """Apply a single-qubit channel to qubit 0 (a) or 1 (b) of a two-qubit state."""
    qubit = strict_index(qubit, DimensionMismatchError, "qubit", 0, 1)
    return DensityMatrix(_channel_applied(channel, rho.matrix, qubit), validate=False)


def _channel_applied(channel: KrausChannel, m: np.ndarray, qubit: int) -> np.ndarray:
    """``apply_channel`` on each two-qubit matrix of a stack (..., 4, 4), with the bits of its own call."""
    split = (2**qubit, 2, 2 ** (1 - qubit))  # row and column index: (qubits before, qubit, qubits after)
    t = m.reshape(m.shape[:-2] + split + split)
    ops = np.array(channel.operators)
    return np.einsum("kai,...xiyzjw,kbj->...xayzbw", ops, t, ops.conj()).reshape(m.shape)


def decohered_werner_sweep(
    a: float, p: float, w_grid: Sequence[float]
) -> list[tuple[float, ResourceReport]]:
    """Measures of Werner states after damping qubit a, for each weight.

    The Werner matrices are damped and measured as one stack, with the bits of the per-state calls.
    """
    if not (np.iterable(w_grid) and hasattr(w_grid, "__len__")) or len(w_grid) == 0:
        raise OutOfRangeError(f"w_grid must be a nonempty sequence, got {type(w_grid).__name__}")
    channel = composite_damping(a, p)
    weights = [strict_real(w, OutOfRangeError, "Werner weight") for w in w_grid]
    return list(zip(weights, _reports(_channel_applied(channel, np.array([werner(w).matrix for w in weights]), 0))))
