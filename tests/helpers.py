"""Shared random-object generators for the test suite."""

import math

import numpy as np

import belldiag as bd


def ginibre_state(rng: np.random.Generator, rank: int = 4) -> bd.DensityMatrix:
    """Random two-qubit density matrix of the given rank."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    return bd.DensityMatrix(m / np.trace(m).real, validate=False)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g @ g.conj().T


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_spec(rng: np.random.Generator) -> bd.BdsSpec:
    """Uniform draw from the full probability simplex."""
    return bd.BdsSpec(*rng.dirichlet(np.ones(4)))


def rotated_bell_diagonal(rng: np.random.Generator) -> np.ndarray:
    """Bell-diagonal matrix under a random local unitary: both Bloch vectors vanish."""
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    return u @ bd.bds_from_spec(random_spec(rng)).matrix @ u.conj().T


def product_spec(theta: float, alpha: float) -> bd.BdsSpec:
    """Product-form spec with j-marginal cos^2(theta/2) and k-marginal cos^2(alpha/2)."""
    ct2 = math.cos(theta / 2) ** 2
    ca2 = math.cos(alpha / 2) ** 2
    p = np.array([ct2 * ca2, ct2 * (1 - ca2), (1 - ct2) * ca2, (1 - ct2) * (1 - ca2)])
    p = np.clip(p, 0.0, None)
    return bd.BdsSpec(*(p / np.sum(p)))


def random_product_spec(rng: np.random.Generator) -> bd.BdsSpec:
    """Spec whose probability table factorizes over the two Bell indices."""
    return product_spec(rng.uniform(0, np.pi), rng.uniform(0, np.pi))


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that appends to the returned list on each call."""
    calls, inner = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls
