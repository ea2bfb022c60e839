"""Dense complex linear algebra primitives for small multi-qubit operators.

All functions operate on square ``numpy`` arrays of ``complex`` dtype and are
pure: inputs are never mutated. Dimensions in this package never exceed 16,
so everything is done densely with LAPACK-backed eigendecompositions.

This module also owns the Pauli convention of the package. A two-qubit
operator is written ``m = (1/4) sum_jk c_jk sigma_j x sigma_k`` with the real
coefficients ``c_jk = Tr(m sigma_j x sigma_k)``; ``pauli_coefficients`` and
``from_pauli_coefficients`` convert between the two forms.

``STATE_MIN_EIGENVALUE`` is the one physical-spectrum floor, read by
``DensityMatrix``, ``tomography.reconstruct`` and ``matrix_sqrt_psd``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .exceptions import DimensionMismatchError, NegativeSpectrumError, NotHermitianError

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


def _as_square(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entry-wise modulus of ``m - m†``."""
    a = _as_square(m)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def require_hermitian(m: np.ndarray) -> np.ndarray:
    a = _as_square(m)
    defect = hermiticity_defect(a)
    if defect > HERMITICITY_ATOL:
        raise NotHermitianError(f"matrix is not Hermitian: max |m - m†| = {defect:.3e}")
    return a


def trace_norm(m: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix: sum of absolute eigenvalues."""
    a = require_hermitian(m)
    return float(np.sum(np.abs(np.linalg.eigvalsh(a))))


def matrix_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in ``[STATE_MIN_EIGENVALUE, 0)`` are treated as round-off and
    clipped to zero; anything lower raises ``NegativeSpectrumError``.
    """
    w, v = np.linalg.eigh(require_hermitian(m))
    if w[0] < STATE_MIN_EIGENVALUE:
        raise NegativeSpectrumError(f"matrix is not PSD: min eigenvalue = {w[0]:.3e}")
    s = np.sqrt(np.clip(w, 0.0, None))
    return (v * s) @ v.conj().T


def partial_trace(
    m: np.ndarray, dims: Sequence[int], keep: Iterable[int]
) -> np.ndarray:
    """Partial trace over the subsystems *not* listed in ``keep``.

    ``dims`` gives the dimension of each tensor factor, leftmost factor
    first; kept subsystems preserve their original relative order.
    """
    a = _as_square(m)
    dims = [int(d) for d in dims]
    if int(np.prod(dims)) != a.shape[0]:
        raise DimensionMismatchError(
            f"product of dims {dims} does not match matrix dim {a.shape[0]}"
        )
    keep_set = set(int(k) for k in keep)
    if not keep_set or not keep_set.issubset(range(len(dims))):
        raise DimensionMismatchError(f"keep={sorted(keep_set)} is not a valid subsystem subset")

    n = len(dims)
    t = a.reshape(dims + dims)
    traced = 0
    for idx in sorted(set(range(n)) - keep_set, reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + (n - traced))
        traced += 1
    d_keep = int(np.prod([dims[i] for i in sorted(keep_set)]))
    return t.reshape(d_keep, d_keep)


def pauli_coefficients(m: np.ndarray) -> np.ndarray:
    """Real 4x4 Pauli coefficients ``c_jk = Tr(m sigma_j x sigma_k)`` of a two-qubit operator.

    ``c[0, 0]`` is the trace, ``c[1:, 0]`` and ``c[0, 1:]`` are the Bloch
    vectors of qubits a and b, and ``c[1:, 1:]`` is the correlation matrix.
    Only the real part is kept, which is exact for Hermitian ``m``.
    """
    a = _as_square(m)
    if a.shape != (4, 4):
        raise DimensionMismatchError(f"expected a two-qubit 4x4 operator, got shape {a.shape}")
    return np.einsum("jkab,ba->jk", PAULI_PRODUCTS, a).real


def from_pauli_coefficients(c: np.ndarray) -> np.ndarray:
    """Two-qubit operator ``(1/4) sum_jk c_jk sigma_j x sigma_k``.

    The inverse of ``pauli_coefficients``.
    """
    c = np.asarray(c)
    if c.shape != (4, 4):
        raise DimensionMismatchError(f"expected 4x4 Pauli coefficients, got shape {c.shape}")
    return np.einsum("jk,jkab->ab", c, PAULI_PRODUCTS) / 4.0


def entropy_bits(probabilities: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits over the last axis, with 0 log 0 = 0.

    Applied to a spectrum it is the von Neumann entropy. Round-off negatives
    are clipped and entries below ``ENTROPY_EIGENVALUE_CUTOFF`` count as 0.
    """
    w = np.clip(np.asarray(probabilities, dtype=float), 0.0, None)
    kept = w > ENTROPY_EIGENVALUE_CUTOFF
    return -np.sum(np.where(kept, w * np.log2(np.where(kept, w, 1.0)), 0.0), axis=-1)
