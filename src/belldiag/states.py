"""Bell-diagonal and Werner state constructors, fidelity, and state I/O.

Conventions used everywhere in the package:

* the leftmost tensor factor is the most significant bit of the
  computational-basis index;
* the Bell basis is indexed (j, k) in the fixed order 00, 01, 10, 11, with
  ``|b_jk> = (|0>|k> + (-1)^j |1>|k xor 1>) / sqrt(2)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import qmath
from .exceptions import (
    DimensionMismatchError,
    InvalidProbabilitiesError,
    NotAStateError,
    OutOfRangeError,
)

PROBABILITY_ATOL = 1e-12
STATE_MIN_EIGENVALUE = -1e-8

BELL_INDICES = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class BdsSpec:
    """The four Bell-basis probabilities of a Bell-diagonal state."""

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self):
        p = self.probabilities
        if not np.all(np.isfinite(p)):
            raise InvalidProbabilitiesError(f"probabilities must be finite: {p.tolist()}")
        if np.any(p < -PROBABILITY_ATOL) or np.any(p > 1 + PROBABILITY_ATOL):
            raise InvalidProbabilitiesError(f"probabilities out of [0, 1]: {p.tolist()}")
        total = float(np.sum(p))
        if abs(total - 1.0) > PROBABILITY_ATOL:
            raise InvalidProbabilitiesError(f"probabilities sum to {total!r}, expected 1")

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([self.p00, self.p01, self.p10, self.p11], dtype=float)


class DensityMatrix:
    """A validated trace-one Hermitian PSD matrix on ``n_qubits`` qubits."""

    __slots__ = ("n_qubits", "matrix")

    def __init__(self, matrix: np.ndarray, validate: bool = True):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NotAStateError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 2:
            raise NotAStateError(f"dimension {m.shape[0]} holds no qubit")
        n = int(np.log2(m.shape[0]))
        if 2**n != m.shape[0]:
            raise NotAStateError(f"dimension {m.shape[0]} is not a power of two")
        if validate:
            if not np.all(np.isfinite(m)):
                raise NotAStateError("matrix has non-finite entries")
            defect = qmath.hermiticity_defect(m)
            if defect > qmath.HERMITICITY_ATOL:
                raise NotAStateError(f"not Hermitian: max |m - m†| = {defect:.3e}")
            tr = float(np.trace(m).real)
            if abs(tr - 1.0) > qmath.HERMITICITY_ATOL:
                raise NotAStateError(f"trace is {tr!r}, expected 1")
            min_eig = float(np.linalg.eigvalsh(m)[0])
            if min_eig < STATE_MIN_EIGENVALUE:
                raise NotAStateError(f"min eigenvalue {min_eig:.3e} below {STATE_MIN_EIGENVALUE}")
        m.setflags(write=False)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    def __repr__(self):
        return f"DensityMatrix(n_qubits={self.n_qubits})"

    def reduced(self, keep: tuple[int, ...]) -> "DensityMatrix":
        """Reduced state on the kept qubits (in their original order)."""
        sub = qmath.partial_trace(self.matrix, [2] * self.n_qubits, keep)
        return DensityMatrix(sub, validate=False)


def bell_state_vector(j: int, k: int) -> np.ndarray:
    """Amplitude vector of the Bell state ``|b_jk>``."""
    if j not in (0, 1) or k not in (0, 1):
        raise OutOfRangeError(f"Bell indices must be bits, got ({j}, {k})")
    v = np.zeros(4, dtype=complex)
    v[k] = 1 / np.sqrt(2)
    v[2 + (k ^ 1)] = (-1) ** j / np.sqrt(2)
    return v


def bell_state(j: int, k: int) -> DensityMatrix:
    """Pure two-qubit Bell state ``|b_jk><b_jk|``."""
    v = bell_state_vector(j, k)
    return DensityMatrix(np.outer(v, v.conj()), validate=False)


def bds_from_spec(spec: BdsSpec) -> DensityMatrix:
    """Bell-diagonal state with the given Bell-basis probabilities."""
    rho = np.zeros((4, 4), dtype=complex)
    for (j, k), p in zip(BELL_INDICES, spec.probabilities):
        v = bell_state_vector(j, k)
        rho += p * np.outer(v, v.conj())
    return DensityMatrix(rho, validate=False)


def werner_spec(w: float) -> BdsSpec:
    """Bell-basis probabilities of the Werner state of weight ``w``."""
    if not 0.0 <= w <= 1.0:
        raise OutOfRangeError(f"Werner weight must be in [0, 1], got {w}")
    q = (1.0 - w) / 4.0
    return BdsSpec(q, q, q, (1.0 + 3.0 * w) / 4.0)


def werner(w: float) -> DensityMatrix:
    """Werner state ``(1-w) I/4 + w |b11><b11|``."""
    return bds_from_spec(werner_spec(w))


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity ``Tr sqrt(sqrt(rho) sigma sqrt(rho))``, clamped to [0, 1]."""
    if rho.n_qubits != sigma.n_qubits:
        raise DimensionMismatchError(
            f"qubit counts differ: {rho.n_qubits} vs {sigma.n_qubits}"
        )
    root = qmath.matrix_sqrt_psd(rho.matrix)
    inner = root @ sigma.matrix @ root
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    f = float(np.sum(np.sqrt(np.clip(w, 0.0, None))))
    return min(1.0, max(0.0, f))


def density_matrix_to_json(rho: DensityMatrix) -> str:
    """Serialize a state as ``{"n_qubits": n, "re": [[..]], "im": [[..]]}``."""
    payload = {
        "n_qubits": rho.n_qubits,
        "re": [[float(x) for x in row] for row in rho.matrix.real],
        "im": [[float(x) for x in row] for row in rho.matrix.imag],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def density_matrix_from_json(text: str, validate: bool = True) -> DensityMatrix:
    """Parse the density-matrix JSON format, validating state invariants."""
    try:
        payload = json.loads(text)
        n = int(payload["n_qubits"])
        re = np.array(payload["re"], dtype=float)
        im = np.array(payload["im"], dtype=float)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise NotAStateError(f"malformed density-matrix JSON: {exc}") from exc
    if re.shape != (2**n, 2**n) or im.shape != (2**n, 2**n):
        raise NotAStateError(
            f"matrix shape {re.shape} does not match n_qubits={n}"
        )
    return DensityMatrix(re + 1j * im, validate=validate)
