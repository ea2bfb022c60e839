"""Independent brute-force oracles used by the test suite.

These deliberately avoid the package's reduced formulas: entropies come from
full post-measurement matrices, partial traces are written out locally, and
channels are applied through an explicit superoperator matrix, and exported
QASM is run by a small interpreter of its own. Agreement between these routes
and the package is what the tests certify.
"""

from __future__ import annotations

import re

import numpy as np

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _entropy(matrix: np.ndarray) -> float:
    w = np.linalg.eigvalsh(matrix)
    w = w[w > 1e-12]
    return float(-np.sum(w * np.log2(w)))


def _entropy_batched(matrices: np.ndarray) -> np.ndarray:
    w = np.clip(np.linalg.eigvalsh(matrices), 0.0, None)
    safe = np.where(w > 1e-12, w, 1.0)
    return -np.sum(np.where(w > 1e-12, w * np.log2(safe), 0.0), axis=-1)


def mutual_information_definitional(rho: np.ndarray) -> float:
    t = rho.reshape(2, 2, 2, 2)
    rho_a = np.einsum("ikjk->ij", t)
    rho_b = np.einsum("kikj->ij", t)
    return _entropy(rho_a) + _entropy(rho_b) - _entropy(rho)


def discord_grid_oracle(
    rho: np.ndarray, n_theta: int = 721, n_phi: int = 1441, chunk: int = 131072
) -> float:
    """Discord by dense-grid maximization over measurement axes on qubit b.

    Builds every 4x4 post-measurement state explicitly and evaluates the
    mutual information from its eigenvalues and partial traces; no local
    refinement, no conditional-entropy shortcut.
    """
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2 * np.pi, n_phi)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()

    best = -np.inf
    for start in range(0, tt.size, chunk):
        th = tt[start : start + chunk]
        ph = pp[start : start + chunk]
        st = np.sin(th)
        n_vec = np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)], axis=1)
        n_dot = (
            n_vec[:, 0, None, None] * _SX
            + n_vec[:, 1, None, None] * _SY
            + n_vec[:, 2, None, None] * _SZ
        )
        post = np.zeros((th.size, 4, 4), dtype=complex)
        for sign in (+1, -1):
            proj = (_I2 + sign * n_dot) / 2
            big = np.einsum("ij,gkl->gikjl", _I2, proj).reshape(-1, 4, 4)
            post += big @ rho @ big
        t = post.reshape(-1, 2, 2, 2, 2)
        s_a = _entropy_batched(np.einsum("gikjk->gij", t))
        s_b = _entropy_batched(np.einsum("gkikj->gij", t))
        s_ab = _entropy_batched(post)
        best = max(best, float(np.max(s_a + s_b - s_ab)))

    return max(0.0, mutual_information_definitional(rho) - best)


def discord_zero_marginal_oracle(rho: np.ndarray) -> float:
    """Discord of a state whose two local Bloch vectors vanish (S. Luo, PRA 77, 042303 (2008)).

    The best measurement axis n then maximizes |T n|, so the classical
    correlation is ``1 - h((1 + s_max)/2)`` with ``s_max`` the largest
    singular value of ``T_jk = Tr(rho sigma_j x sigma_k)``, read here from
    explicit Pauli traces. The formula assumes the zero marginals; it is not
    checked.
    """
    paulis = (_SX, _SY, _SZ)
    t = np.array([[np.trace(rho @ np.kron(sj, sk)).real for sk in paulis] for sj in paulis])
    s_max = np.linalg.svd(t, compute_uv=False)[0]
    p = np.array([1 + s_max, 1 - s_max]) / 2
    p = p[p > 1e-12]
    classical = 1.0 + float(np.sum(p * np.log2(p)))
    return max(0.0, mutual_information_definitional(rho) - classical)


def apply_channel_superoperator(
    kraus_ops, rho: np.ndarray, qubit: int, n_qubits: int
) -> np.ndarray:
    """Channel application through the explicit superoperator matrix.

    Uses the row-major vectorization identity vec(K rho K†) = (K kron K*) vec(rho).
    """
    dim = 2**n_qubits
    before = np.eye(2**qubit, dtype=complex)
    after = np.eye(2 ** (n_qubits - qubit - 1), dtype=complex)
    superop = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in kraus_ops:
        full = np.kron(np.kron(before, np.asarray(k, dtype=complex)), after)
        superop += np.kron(full, full.conj())
    return (superop @ rho.reshape(-1)).reshape(dim, dim)


def negativity_bruteforce(rho: np.ndarray) -> float:
    """Negativity from an element-wise partial transpose and an eigensolve."""
    pt = np.empty_like(rho)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    pt[2 * i + j, 2 * k + l] = rho[2 * i + l, 2 * k + j]
    return max(0.0, float(np.sum(np.abs(np.linalg.eigvalsh(pt)))) - 1.0)


def _qasm_angle(text: str) -> float:
    """Value of a QASM angle: a float literal or ``[-][n*]pi[/d]``."""
    if "pi" not in text:
        return float(text)
    sign = -1.0 if text.startswith("-") else 1.0
    head, _, den = text.lstrip("-").partition("/")
    num = head.replace("pi", "").rstrip("*") or "1"
    return sign * float(num) * np.pi / float(den or 1)


def qasm_reduced_state(text: str, keep: tuple[int, int]) -> np.ndarray:
    """Run an OpenQASM 2.0 program of u3, h and cx gates from |0...0> and
    return the reduced density matrix of the physical qubits ``keep``.

    Each gate is applied as a full register operator: a Kronecker product
    with identities for u3 and h, a basis permutation for cx. ``q[0]`` is the
    most significant bit of the basis index.
    """
    n, psi = 0, None
    for line in text.splitlines():
        line = line.strip().rstrip(";")
        if line.startswith(("OPENQASM", "include", "creg")):
            continue
        if line.startswith("qreg"):
            n = int(re.fullmatch(r"qreg q\[(\d+)\]", line).group(1))
            psi = np.zeros(2**n, dtype=complex)
            psi[0] = 1.0
            continue
        name, params, args = re.fullmatch(r"(\w+)(?:\((.*)\))? (.*)", line).groups()
        qubits = [int(q) for q in re.findall(r"q\[(\d+)\]", args)]
        if name == "cx":
            idx = np.arange(2**n)
            control, target = (1 << (n - 1 - q) for q in qubits)
            out = np.empty_like(psi)
            out[np.where(idx & control, idx ^ target, idx)] = psi
            psi = out
            continue
        if name == "h":
            u = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        elif name == "u3":
            theta, phi, lam = (_qasm_angle(x) for x in params.split(","))
            c, s = np.cos(theta / 2), np.sin(theta / 2)
            u = np.array(
                [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
            )
        else:
            raise ValueError(f"unsupported QASM statement {line!r}")
        (q,) = qubits
        full = np.kron(np.kron(np.eye(2**q), u), np.eye(2 ** (n - 1 - q)))
        psi = full @ psi
    amps = np.moveaxis(psi.reshape((2,) * n), keep, (0, 1)).reshape(4, -1)
    return amps @ amps.conj().T
