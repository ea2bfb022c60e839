"""Bell-diagonal and Werner state constructors, fidelity, and state I/O.

Conventions used everywhere in the package:

* the leftmost tensor factor is the most significant bit of the
  computational-basis index;
* the Bell basis is indexed (j, k) in the fixed order 00, 01, 10, 11, with
  ``|b_jk> = (|0>|k> + (-1)^j |1>|k xor 1>) / sqrt(2)``.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from . import qmath
from .exceptions import BellDiagError, InvalidProbabilitiesError, NotAStateError, OutOfRangeError

PROBABILITY_ATOL = 1e-12

BELL_INDICES = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class BdsSpec:
    """The four Bell-basis probabilities of a Bell-diagonal state."""

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self):
        for name in ("p00", "p01", "p10", "p11"):
            object.__setattr__(self, name, strict_real(getattr(self, name), InvalidProbabilitiesError, name))
        p = self.probabilities
        if np.any(p < -PROBABILITY_ATOL) or np.any(p > 1 + PROBABILITY_ATOL):
            raise InvalidProbabilitiesError(f"probabilities out of [0, 1]: {p.tolist()}")
        total = float(np.sum(p))
        if abs(total - 1.0) > PROBABILITY_ATOL:
            raise InvalidProbabilitiesError(f"probabilities sum to {total!r}, expected 1")

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([self.p00, self.p01, self.p10, self.p11], dtype=float)


class DensityMatrix:
    """A trace-one Hermitian PSD matrix on two qubits; any other shape is rejected.

    Even with ``validate=False`` the matrix must be Hermitian, with finite entries within 2 in
    modulus; that skips only the trace and the spectrum floor, which a raw linear inversion may fail.
    """

    __slots__ = ("matrix", "_pauli", "_spectrum")
    n_qubits = 2

    def __init__(self, matrix: np.ndarray, validate: bool = True):
        m = strict_array(matrix, complex, (4, 4), NotAStateError, "a two-qubit density matrix")
        # No entry of a state exceeds 1 in modulus. Twice that refuses no state, and keeps NaN
        # (max propagates it, and it fails <=), the infinities and overflow out of the checks below.
        if not np.abs(m.view(float)).max() <= 2.0:
            raise NotAStateError("matrix has non-finite or out-of-range entries")
        defect = qmath.hermiticity_defect(m)
        if defect > qmath.HERMITICITY_ATOL:
            raise NotAStateError(f"not Hermitian: max |m - m†| = {defect:.3e}")
        object.__setattr__(self, "matrix", m)
        if validate:
            tr = float(np.trace(m).real)
            if abs(tr - 1.0) > qmath.HERMITICITY_ATOL:
                raise NotAStateError(f"trace is {tr!r}, expected 1")
            if self.spectrum[0] < qmath.STATE_MIN_EIGENVALUE:
                raise NotAStateError(f"min eigenvalue {self.spectrum[0]:.3e} below {qmath.STATE_MIN_EIGENVALUE}")

    @property
    def pauli(self) -> np.ndarray:
        """Read-only Pauli coefficients ``c_jk = Tr(rho sigma_j x sigma_k)``, computed on first read and kept."""
        if not hasattr(self, "_pauli"):
            object.__setattr__(self, "_pauli", qmath.pauli_coefficients(self.matrix))
            self._pauli.setflags(write=False)
        return self._pauli

    @property
    def spectrum(self) -> np.ndarray:
        """Read-only ascending eigenvalues, computed on first read (validation's floor check) and kept."""
        if not hasattr(self, "_spectrum"):
            object.__setattr__(self, "_spectrum", np.linalg.eigvalsh(self.matrix))
            self._spectrum.setflags(write=False)
        return self._spectrum

    def as_dict(self) -> dict:
        """The JSON form ``{"im": [[..]], "n_qubits": 2, "re": [[..]]}``, keys in that order."""
        return {"im": self.matrix.imag.tolist(), "n_qubits": self.n_qubits, "re": self.matrix.real.tolist()}

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    def __repr__(self):
        return f"DensityMatrix(n_qubits={self.n_qubits})"


def bell_state_vector(j: int, k: int) -> np.ndarray:
    """Amplitude vector of the Bell state ``|b_jk>``."""
    j = strict_index(j, OutOfRangeError, "Bell index j", 0, 1)
    k = strict_index(k, OutOfRangeError, "Bell index k", 0, 1)
    v = np.zeros(4, dtype=complex)
    v[k] = 1 / np.sqrt(2)
    v[2 + (k ^ 1)] = (-1) ** j / np.sqrt(2)
    return v


def bell_state(j: int, k: int) -> DensityMatrix:
    """Pure two-qubit Bell state ``|b_jk><b_jk|``."""
    v = bell_state_vector(j, k)
    return DensityMatrix(np.outer(v, v.conj()), validate=False)


def _shown(value) -> str:
    """``repr(value)``; where that fails, an integer's bit length (over 4,300 digits) or a container's type."""
    try:
        return repr(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits" if isinstance(value, int) else f"a {type(value).__name__}"


def _within(x, error: type[BellDiagError], name: str, lo, hi):
    if lo <= x <= hi:
        return x
    raise error(f"{name} must be in [{lo}, {hi}], got {_shown(x)}")


def strict_index(value, error: type[BellDiagError], name: str, lo=-math.inf, hi=math.inf) -> int:
    """``operator.index(value)``, raising ``error``, whose message names ``name``, unless in [``lo``, ``hi``].

    ``bool`` and every float are refused: a JSON ``true`` is not 1, nor ``1.0``. The range is open by default.
    """
    if not isinstance(value, bool):
        try:
            return _within(operator.index(value), error, name, lo, hi)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {_shown(value)}")


def strict_real(value, error: type[BellDiagError], name: str, lo=-math.inf, hi=math.inf) -> float:
    """``float(value)``, raising ``error``, whose message names ``name``, unless finite and in [``lo``, ``hi``].

    ``bool``, ``str``, ``bytes`` and integers too large for a float are refused. The range is open by default.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(x := float(value)):
                return _within(x, error, name, lo, hi)
        except OverflowError:
            pass
    raise error(f"{name} takes only finite real numbers, got {_shown(value)}")


def strict_array(value, dtype, shape: tuple, error: type[BellDiagError], name: str) -> np.ndarray:
    """A new read-only ``dtype`` array of ``value``, raising ``error``, naming ``name``, unless of ``shape``.

    Elements must be int, uint, float or complex (complex only into a complex ``dtype``). The copy is
    in C order whatever the input's, so that the bound checks can read a complex array as floats.
    """
    try:
        a = np.asarray(value)
    except ValueError as exc:  # a ragged nested sequence
        raise error(f"{name} is not an array of numbers: {exc}") from None
    if a.shape != shape or a.dtype.kind not in "iuf" + np.dtype(dtype).kind:
        size = "x".join(map(str, shape))
        raise error(f"{name} must be a {size} array of {np.dtype(dtype)}, got {a.dtype} of shape {a.shape}")
    a = np.array(a, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


_BELL_PROJECTORS = tuple(bell_state(j, k).matrix for j, k in BELL_INDICES)


def bds_from_spec(spec: BdsSpec) -> DensityMatrix:
    """Bell-diagonal state with the given Bell-basis probabilities."""
    return DensityMatrix(sum(p * proj for p, proj in zip(spec.probabilities, _BELL_PROJECTORS)), validate=False)


def werner_spec(w: float) -> BdsSpec:
    """Bell-basis probabilities of the Werner state of weight ``w``."""
    w = strict_real(w, OutOfRangeError, "Werner weight", 0, 1)
    q = (1.0 - w) / 4.0
    return BdsSpec(q, q, q, (1.0 + 3.0 * w) / 4.0)


def werner(w: float) -> DensityMatrix:
    """Werner state ``(1-w) I/4 + w |b11><b11|``."""
    return bds_from_spec(werner_spec(w))


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity ``Tr sqrt(sqrt(rho) sigma sqrt(rho))``, clamped to [0, 1]."""
    return float(_fidelities(rho.matrix, sigma.matrix))


def _fidelities(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``fidelity`` of each pair of matrices of two stacks ``(..., 4, 4)``, with the bits of its own call."""
    root = qmath.matrix_sqrt_psd(rho)
    inner = root @ sigma @ root
    w = np.linalg.eigvalsh((inner + inner.conj().swapaxes(-1, -2)) / 2)
    return np.minimum(np.maximum(np.sqrt(np.clip(w, 0.0, None)).sum(axis=-1), 0.0), 1.0)


def density_matrix_to_json(rho: DensityMatrix) -> str:
    """Serialize a state as ``{"n_qubits": 2, "re": [[..]], "im": [[..]]}``."""
    return json.dumps(rho.as_dict(), indent=2, sort_keys=True)


def density_matrix_from_json(text: str | bytes) -> DensityMatrix:
    """Parse the density-matrix JSON format, validating state invariants; bytes must be UTF-8."""
    try:
        payload = json.loads(text.decode("utf-8-sig") if isinstance(text, bytes) else text)
        n = strict_index(payload["n_qubits"], NotAStateError, "n_qubits")
        # np.asarray would read [true, 0.5] as [1.0, 0.5].
        if any(type(x) not in (int, float) for k in ("re", "im") for row in payload[k] for x in row):
            raise TypeError("matrix entries must be JSON numbers")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise NotAStateError(f"malformed density-matrix JSON: {exc}") from exc
    if n != 2:
        raise NotAStateError(f"n_qubits={n} does not match two qubits")
    parts = (payload["re"], payload["im"])
    re, im = strict_array(parts, float, (2, 4, 4), NotAStateError, "malformed density-matrix JSON: re and im")
    return DensityMatrix(re + 1j * im)
