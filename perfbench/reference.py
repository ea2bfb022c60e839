"""Independent reference computations for the benchmark's output checks.

Nothing here imports belldiag. Every quantity is computed from its
definition with plain numpy: Pauli traces, explicit partial traces,
eigenvalues and closed forms from the literature. Agreement between these
routes and the package is what the benchmark's checks certify.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, SX, SY, SZ)
BASIS_INDEX = {"X": 1, "Y": 2, "Z": 3}

# Counts files list the nine settings XX..ZZ, each with outcomes in this order.
SETTING_KEYS = tuple(a + b for a in "XYZ" for b in "XYZ")
OUTCOMES = ("pp", "pm", "mp", "mm")

# Raw linear-inversion states with an eigenvalue below this are projected.
PROJECTION_TRIGGER = -1e-8


def singlet_vector() -> np.ndarray:
    """|b11> = (|01> - |10>)/sqrt(2), the Werner states' pure component."""
    return np.array([0, 1, -1, 0], dtype=complex) / SQRT2


def werner_matrix(w: float) -> np.ndarray:
    """(1 - w) I/4 + w |b11><b11|."""
    v = singlet_vector()
    return (1.0 - w) * np.eye(4, dtype=complex) / 4.0 + w * np.outer(v, v.conj())


def werner_probabilities(w: float) -> np.ndarray:
    """Bell-basis probabilities (p00, p01, p10, p11) of the Werner state."""
    q = (1.0 - w) / 4.0
    return np.array([q, q, q, (1.0 + 3.0 * w) / 4.0])


def werner_closed_forms(w: float) -> dict[str, float]:
    """Non-local coherence, negativity, steering and nonlocality of a Werner state."""
    return {
        "C": w,
        "E": max(0.0, (3.0 * w - 1.0) / 2.0),
        "S": max(0.0, (SQRT3 * w - 1.0) / (SQRT3 - 1.0)),
        "N": max(0.0, (SQRT2 * w - 1.0) / (SQRT2 - 1.0)),
    }


def damping_kraus(a: float, p: float) -> tuple[np.ndarray, ...]:
    """Kraus operators of amplitude damping ``a`` composed with phase damping ``p``."""
    return (
        np.array([[0, 0], [0, math.sqrt(p * (1 - a))]], dtype=complex),
        np.array([[0, math.sqrt(a)], [0, 0]], dtype=complex),
        np.array([[1, 0], [0, math.sqrt((1 - p) * (1 - a))]], dtype=complex),
    )


def ginibre_matrix(rng: np.random.Generator, rank: int) -> np.ndarray:
    """Random two-qubit density matrix of the given rank, exactly Hermitian."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    return (m + m.conj().T) / 2


def reduced_a(rho: np.ndarray) -> np.ndarray:
    return np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2))


def reduced_b(rho: np.ndarray) -> np.ndarray:
    return np.einsum("kikj->ij", rho.reshape(2, 2, 2, 2))


def pauli_coefficients(rho: np.ndarray) -> np.ndarray:
    """c[j, k] = Tr(rho sigma_j x sigma_k), so rho = 1/4 sum c_jk sigma_j x sigma_k."""
    return np.array(
        [[np.trace(rho @ np.kron(pj, pk)).real for pk in PAULIS] for pj in PAULIS]
    )


def from_pauli_coefficients(c: np.ndarray) -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    for j in range(4):
        for k in range(4):
            rho += c[j, k] * np.kron(PAULIS[j], PAULIS[k])
    return rho / 4.0


def entropy_bits(eigenvalues) -> float:
    w = np.asarray(eigenvalues, dtype=float)
    w = w[w > 1e-12]
    return float(-np.sum(w * np.log2(w)))


def l1_coherence(m: np.ndarray) -> float:
    return float(np.sum(np.abs(m)) - np.sum(np.abs(np.diag(m))))


def nonlocal_coherence(rho: np.ndarray) -> float:
    """Global l1 coherence minus the l1 coherences of both marginals."""
    return l1_coherence(rho) - l1_coherence(reduced_a(rho)) - l1_coherence(reduced_b(rho))


def steering_and_nonlocality(rho: np.ndarray) -> tuple[float, float]:
    """Steering from the Frobenius norm of T, nonlocality from Horodecki's M(rho).

    T is the 3x3 correlation block of the Pauli coefficients. M(rho) is the
    sum of the two largest eigenvalues of T^T T (Horodecki, PLA 200, 340
    (1995)); its square root is the best CHSH value over two.
    """
    t = pauli_coefficients(rho)[1:, 1:]
    eig = np.sort(np.linalg.eigvalsh(t.T @ t))[::-1]
    s = max(0.0, (math.sqrt(max(0.0, float(np.sum(eig)))) - 1.0) / (SQRT3 - 1.0))
    m = max(0.0, float(eig[0] + eig[1]))
    n = max(0.0, (math.sqrt(m) - 1.0) / (SQRT2 - 1.0))
    return s, n


def luo_discord(rho: np.ndarray, atol: float = 1e-9) -> float:
    """Discord of a Bell-diagonal state in closed form (S. Luo, PRA 77, 042303 (2008)).

    With rho = 1/4 (I + sum_j c_j sigma_j x sigma_j), the marginals are
    maximally mixed, so I(rho) = 2 - S(rho), and the classical correlation
    is ((1 - c)/2) log2(1 - c) + ((1 + c)/2) log2(1 + c) with c = max |c_j|.
    Raises ``ValueError`` for a state outside that family.
    """
    c = pauli_coefficients(rho)
    off_diagonal = c[1:, 1:] - np.diag(np.diag(c[1:, 1:]))
    if np.max(np.abs(c[0, 1:])) > atol or np.max(np.abs(c[1:, 0])) > atol:
        raise ValueError("Luo's closed form needs zero local Bloch vectors")
    if np.max(np.abs(off_diagonal)) > atol:
        raise ValueError("Luo's closed form needs a diagonal correlation matrix")
    mutual = 2.0 - entropy_bits(np.linalg.eigvalsh(rho))
    cmax = float(np.max(np.abs(np.diag(c[1:, 1:]))))
    classical = sum(
        x / 2 * math.log2(x) for x in (1.0 - cmax, 1.0 + cmax) if x > 1e-15
    )
    return max(0.0, mutual - classical)


def _projector(basis: str, sign: int) -> np.ndarray:
    return (I2 + sign * PAULIS[BASIS_INDEX[basis]]) / 2


def born_probabilities(rho: np.ndarray, key: str) -> np.ndarray:
    """Outcome probabilities (++, +-, -+, --) of the setting ``key``, e.g. ``"XZ"``."""
    probs = np.array(
        [
            np.trace(rho @ np.kron(_projector(key[0], sa), _projector(key[1], sb))).real
            for sa in (1, -1)
            for sb in (1, -1)
        ]
    )
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def sample_counts(rho: np.ndarray, shots: int, rng: np.random.Generator) -> dict:
    """Multinomial counts for all nine settings, keyed like the counts JSON."""
    return {
        key: [int(x) for x in rng.multinomial(shots, born_probabilities(rho, key))]
        for key in SETTING_KEYS
    }


def counts_document(counts: dict, shots: int) -> dict:
    return {
        "shots": shots,
        "settings": {key: dict(zip(OUTCOMES, counts[key])) for key in SETTING_KEYS},
    }


def linear_inversion(counts: dict, shots: int) -> np.ndarray:
    """Raw linear-inversion matrix from counts keyed by setting.

    Each local Bloch component is measured by three compatible settings; the
    estimate is their mean.
    """
    c = np.zeros((4, 4))
    c[0, 0] = 1.0
    local_a = {b: [] for b in "XYZ"}
    local_b = {b: [] for b in "XYZ"}
    for key in SETTING_KEYS:
        pp, pm, mp, mm = (x / shots for x in counts[key])
        c[BASIS_INDEX[key[0]], BASIS_INDEX[key[1]]] = pp + mm - pm - mp
        local_a[key[0]].append(pp + pm - mp - mm)
        local_b[key[1]].append(pp + mp - pm - mm)
    for basis in "XYZ":
        c[BASIS_INDEX[basis], 0] = np.mean(local_a[basis])
        c[0, BASIS_INDEX[basis]] = np.mean(local_b[basis])
    return from_pauli_coefficients(c)


def project_physical(raw: np.ndarray) -> tuple[np.ndarray, bool]:
    """Clip negative eigenvalues and renormalise, when one is below the trigger."""
    w, v = np.linalg.eigh(raw)
    if w[0] >= PROJECTION_TRIGGER:
        return raw, False
    w = np.clip(w, 0.0, None)
    return (v * (w / w.sum())) @ v.conj().T, True
