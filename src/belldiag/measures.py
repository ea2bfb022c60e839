"""Quantumness measures: coherence, discord, negativity, steering, nonlocality.

The measures read the Pauli coefficients ``c`` from ``rho.pauli``, computed
once per state. ``bloch_decompose`` returns its blocks: the Bloch vectors a, b
and the correlation matrix T. Steering and nonlocality read the singular values
of T. Discord follows the measured-mutual-information definition: the maximum
is taken over rank-one projective measurements on qubit b. Measuring qubit b
along the unit axis n leaves qubit a in the conditional states
``(1/4)[(1 +- b.n) I + (a +- T n).sigma]`` with probabilities
``(1 +- b.n)/2`` and eigenvalues ``(1 +- b.n +- |a +- T n|)/4``. One real
objective, vectorized over axes, gives the measured mutual information from
these closed forms, less ``S(rho_a)``, which no axis changes.

When both Bloch vectors vanish, as on every Bell-diagonal state, the best
axis maximizes ``|T n|`` (S. Luo, PRA 77, 042303 (2008)): the objective is
evaluated once, on the top right singular vector of T. Otherwise one stencil
loop searches three fixed charts. Chart k is centred on the unit vector e_k
with tangents e_{k+1} and e_{k+2}; n and -n are the same measurement, so every
axis lies in the cell |u|, |v| <= 1 of the chart of its largest component.
Each round evaluates a 5x5 stencil on all three charts at once, re-centres
each chart on its best point and halves the step.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import qmath
from .states import DensityMatrix

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

# Negativity below this is round-off and reads 0; discord takes its closed
# form when both Bloch vectors are shorter than this.
ROUNDOFF_CLAMP = 1e-9

# A chart centre moves at most 2 steps a round, so in all rounds less than
# 2 * DISCORD_FIRST_STEP * (1 + 1/2 + ...) = pi/2 in each coordinate. That
# exceeds 1, so it can reach any point of the cell |u|, |v| <= 1.
DISCORD_FIRST_STEP = math.pi / 8
DISCORD_REFINE_ROUNDS = 16
# Chart k maps (u, v) to the axis e_k + u e_{k+1} + v e_{k+2}, indices mod 3;
# _CHARTS[k] holds e_k, e_{k+1} and e_{k+2} as rows.
_CHARTS = np.eye(3)[(np.arange(3)[:, None] + np.arange(3)) % 3]
# Stencil offsets in units of the current step.
_STENCIL = np.array([(i, j) for i in range(-2, 3) for j in range(-2, 3)], dtype=float)
# Outcome signs of a measurement on qubit b.
_SIGNS = np.array([1.0, -1.0])


@dataclass(frozen=True)
class ResourceReport:
    """The five quantumness measures plus the raw l1 coherence."""

    coherence_l1: float
    nonlocal_coherence: float
    discord: float
    negativity: float
    steering: float
    nonlocality: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def coherence_l1(rho: DensityMatrix) -> float:
    """Sum of moduli of off-diagonal entries in the computational basis."""
    off = np.abs(rho.matrix.copy())
    np.fill_diagonal(off, 0.0)
    return float(np.sum(off))


def nonlocal_coherence(rho: DensityMatrix) -> float:
    """Global l1 coherence minus the sum of the marginal coherences.

    A qubit with Bloch vector r has l1 coherence ``|r_x - i r_y|``, so the
    marginal coherences are read off the Pauli coefficients.
    """
    c = rho.pauli
    return coherence_l1(rho) - math.hypot(c[1, 0], c[2, 0]) - math.hypot(c[0, 1], c[0, 2])


def bloch_decompose(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bloch vectors ``a``, ``b`` and correlation matrix ``T`` of a two-qubit state."""
    c = rho.pauli
    return c[1:, 0], c[0, 1:], c[1:, 1:]


def negativity(rho: DensityMatrix) -> float:
    """Trace norm of the partial transpose on qubit b minus one.

    A value below ``ROUNDOFF_CLAMP``, round-off on a separable state, reads 0.
    """
    pt = rho.matrix.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    excess = qmath.trace_norm(pt) - 1.0
    return excess if excess >= ROUNDOFF_CLAMP else 0.0


def steering(rho: DensityMatrix) -> float:
    """Steering degree for three measurements per qubit."""
    # Singular values, not absolute eigenvalues: tomography can return a non-symmetric T.
    c = np.linalg.svd(bloch_decompose(rho)[2], compute_uv=False)
    return max(0.0, (float(np.linalg.norm(c)) - 1.0) / (SQRT3 - 1.0))


def nonlocality(rho: DensityMatrix) -> float:
    """Bell-inequality violation degree for two measurements per qubit."""
    c = np.linalg.svd(bloch_decompose(rho)[2], compute_uv=False)
    c_min_sq = float(np.min(c) ** 2)
    norm_sq = float(np.dot(c, c))
    return max(0.0, (math.sqrt(max(0.0, norm_sq - c_min_sq)) - 1.0) / (SQRT2 - 1.0))


def _qubit_entropy(bloch: np.ndarray) -> np.ndarray:
    """Von Neumann entropy of qubit states with Bloch vectors along the last axis."""
    r = np.linalg.norm(bloch, axis=-1)
    return qmath.entropy_bits(np.stack([(1 + r) / 2, (1 - r) / 2], axis=-1))


def mutual_information(rho: DensityMatrix) -> float:
    """Quantum mutual information S(rho_a) + S(rho_b) - S(rho)."""
    c = rho.pauli
    joint = qmath.entropy_bits(np.linalg.eigvalsh(rho.matrix))
    return float(_qubit_entropy(c[1:, 0]) + _qubit_entropy(c[0, 1:]) - joint)


def _measured_mi(c: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Measured mutual information less ``S(rho_a)``, along each unit axis in ``n`` (..., 3).

    ``H(outcomes) - S(post-measurement state)``. With ``p = 1 +- b.n`` and
    ``r = |a +- T n|``, the outcome probabilities are ``p/2`` and the
    post-measurement spectrum is ``(p +- r)/4``.
    """
    p = 1 + (n @ c[0, 1:])[..., None] * _SIGNS
    r = np.linalg.norm(c[1:, 0] + (n @ c[1:, 1:].T)[..., None, :] * _SIGNS[:, None], axis=-1)
    return qmath.entropy_bits(p / 2) - qmath.entropy_bits(np.concatenate([p + r, p - r], axis=-1) / 4)


def discord_oz(rho: DensityMatrix, refine: bool = True) -> float:
    """Discord of a two-qubit state under projective measurements on qubit b.

    Mutual information minus the best measured mutual information. When both
    Bloch vectors vanish to ``ROUNDOFF_CLAMP``, the best axis maximizes
    ``|T n|`` (S. Luo, PRA 77, 042303 (2008)): the top right singular vector
    of T, where the measured mutual information is ``1 - h((1 + s_max)/2)``.
    Otherwise a 5x5 stencil runs on three fixed charts, centred on the
    coordinate axes, from a step of ``DISCORD_FIRST_STEP``; with ``refine``
    it runs ``DISCORD_REFINE_ROUNDS`` more rounds, each re-centred on the best
    point of its chart at half the step. ``refine`` does not change the
    closed form.
    """
    c = rho.pauli
    if max(np.linalg.norm(c[1:, 0]), np.linalg.norm(c[0, 1:])) <= ROUNDOFF_CLAMP:
        best = _measured_mi(c, np.linalg.svd(c[1:, 1:])[2][0])
    else:
        best = -np.inf
        rows = np.arange(3)
        centres = np.zeros((3, 1, 2))
        step = DISCORD_FIRST_STEP
        for _ in range(1 + DISCORD_REFINE_ROUNDS if refine else 1):
            uv = centres + _STENCIL * step
            n = _CHARTS[:, :1] + uv @ _CHARTS[:, 1:]
            trial = _measured_mi(c, n / np.linalg.norm(n, axis=-1, keepdims=True))
            best = np.max(trial, initial=best)
            centres = uv[rows, np.argmax(trial, axis=1)][:, None, :]
            step /= 2
    return max(0.0, mutual_information(rho) - float(_qubit_entropy(c[1:, 0])) - float(best))


def full_report(rho: DensityMatrix) -> ResourceReport:
    """All measures of a two-qubit state in one record."""
    return ResourceReport(
        coherence_l1=coherence_l1(rho),
        nonlocal_coherence=nonlocal_coherence(rho),
        discord=discord_oz(rho),
        negativity=negativity(rho),
        steering=steering(rho),
        nonlocality=nonlocality(rho),
    )
