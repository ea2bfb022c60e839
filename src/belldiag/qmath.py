"""Dense complex linear algebra primitives for small multi-qubit operators.

Callers pass shapes that ``DensityMatrix`` or ``tomography.reconstruct`` have
already fixed, and ``DensityMatrix`` decides a state's Hermiticity, so this
module checks only the spectrum floor. Every function is pure: inputs are
never mutated.

This module also owns the Pauli convention of the package. A two-qubit
operator is written ``m = (1/4) sum_jk c_jk sigma_j x sigma_k`` with the real
coefficients ``c_jk = Tr(m sigma_j x sigma_k)``; ``pauli_coefficients`` and
``from_pauli_coefficients`` convert. ``DensityMatrix.pauli`` computes a state's
``c``, ``cli._sweep_rows`` the sweep's stacked table, ``measures._reports`` each chunk's.

``STATE_MIN_EIGENVALUE`` is the one physical-spectrum floor, read by
``DensityMatrix``, ``tomography.reconstruct`` and ``matrix_sqrt_psd``.
"""

from collections.abc import Iterable, Sequence

import numpy as np

from .exceptions import NegativeSpectrumError

# Tolerances sized to absorb round-off from 16-dimensional simulations.
HERMITICITY_ATOL = 1e-9
STATE_MIN_EIGENVALUE = -1e-8
ENTROPY_EIGENVALUE_CUTOFF = 1e-12

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3)

# PAULI_PRODUCTS[j, k] = sigma_j x sigma_k, the two-qubit Pauli basis.
PAULI_PRODUCTS = np.array([[np.kron(sj, sk) for sk in PAULIS] for sj in PAULIS])
PAULI_PRODUCTS.setflags(write=False)


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entry-wise modulus of ``m - m†``."""
    return float(np.abs(m - m.conj().T).max())


def trace_norm(m: np.ndarray) -> np.ndarray:
    """Trace norm, the sum of absolute eigenvalues, of a Hermitian matrix or of each of a stack ``(..., d, d)``."""
    return np.abs(np.linalg.eigvalsh(m)).sum(-1)


def matrix_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix, or of each of a stack ``(..., d, d)``.

    Eigenvalues in ``[STATE_MIN_EIGENVALUE, 0)`` are treated as round-off and
    clipped to zero; anything lower raises ``NegativeSpectrumError``.
    """
    w, v = np.linalg.eigh(m)
    if (low := w[..., 0].min()) < STATE_MIN_EIGENVALUE:
        raise NegativeSpectrumError(f"matrix is not PSD: min eigenvalue = {low:.3e}")
    s = np.sqrt(np.clip(w, 0.0, None))
    return (v * s[..., None, :]) @ v.conj().swapaxes(-1, -2)


def partial_trace(
    m: np.ndarray, dims: Sequence[int], keep: Iterable[int]
) -> np.ndarray:
    """Partial trace over the subsystems *not* listed in ``keep``.

    ``dims`` gives the dimension of each tensor factor, leftmost factor
    first; kept subsystems preserve their original relative order.
    """
    dims = list(dims)
    keep = set(keep)
    n = len(dims)
    t = m.reshape(dims + dims)
    for traced, idx in enumerate(sorted(set(range(n)) - keep, reverse=True)):
        t = np.trace(t, axis1=idx, axis2=idx + (n - traced))
    d_keep = int(np.prod([dims[i] for i in keep]))
    return t.reshape(d_keep, d_keep)


def pauli_coefficients(m: np.ndarray) -> np.ndarray:
    """Real 4x4 Pauli coefficients ``c_jk = Tr(m sigma_j x sigma_k)`` of a two-qubit operator.

    ``c[0, 0]`` is the trace, ``c[1:, 0]`` and ``c[0, 1:]`` are the Bloch
    vectors of qubits a and b, and ``c[1:, 1:]`` is the correlation matrix.
    Only the real part is kept, which is exact for Hermitian ``m``; a stack (..., 4, 4) gives a stack.
    """
    return np.einsum("jkab,...ba->...jk", PAULI_PRODUCTS, m).real


def from_pauli_coefficients(c: np.ndarray) -> np.ndarray:
    """Two-qubit operator ``(1/4) sum_jk c_jk sigma_j x sigma_k``.

    The inverse of ``pauli_coefficients``, also on a stack ``(..., 4, 4)``.
    """
    return np.einsum("...jk,jkab->...ab", c, PAULI_PRODUCTS) / 4.0


def _xlog2x(probabilities: np.ndarray) -> np.ndarray:
    """``x log2 x`` of each entry, with 0 log 0 = 0: round-off negatives clip to 0, and entries up to
    ``ENTROPY_EIGENVALUE_CUTOFF`` count as 0. A NaN entry gives NaN.
    """
    w = np.maximum(probabilities, 0.0, dtype=float)
    log = np.log2(w, out=np.zeros(w.shape), where=w > ENTROPY_EIGENVALUE_CUTOFF)
    return np.multiply(w, log, out=log)  # into the log's buffer: no third array


def entropy_bits(probabilities: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits over the last axis, ``-sum _xlog2x``; of a spectrum, the von Neumann entropy."""
    return -_xlog2x(probabilities).sum(axis=-1)
