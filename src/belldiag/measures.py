"""Quantumness measures: coherence, discord, negativity, steering, nonlocality.

The measures read the Pauli coefficients ``c`` from ``rho.pauli``, computed
once per state. ``bloch_decompose`` returns its blocks: the Bloch vectors a, b
and the correlation matrix T. Steering reads the norm of T's singular values,
which is T's Frobenius norm also when T is not symmetric (Costa and Angelo,
PRA 93, 020103 (2016)); nonlocality reads the singular values. Discord is
D = I - J (Ollivier and Zurek, PRL 88, 017901 (2001)), with J the measured
mutual information maximized over rank-one projective measurements on qubit b.
Measuring qubit b along the unit axis n leaves qubit a in the conditional states
``(1/4)[(1 +- b.n) I + (a +- T n).sigma]`` with probabilities
``(1 +- b.n)/2`` and eigenvalues ``(1 +- b.n +- |a +- T n|)/4``. One real
objective, vectorized over axes, gives J - S(rho_a) from these closed forms.
Since I - S(rho_a) = S(rho_b) - S(rho), discord is S(rho_b) - S(rho) less the
best objective value, and S(rho_a) is never computed.

When both Bloch vectors vanish, as on every Bell-diagonal state, the best
axis maximizes ``|T n|`` (S. Luo, PRA 77, 042303 (2008)): the objective is
evaluated once, on the top right singular vector of T. Otherwise one stencil
loop searches three fixed charts. Chart k is centred on the unit vector e_k
with tangents e_{k+1} and e_{k+2}; n and -n are the same measurement, so every
axis lies in the cell |u|, |v| <= 1 of the chart of its largest component.
Each round evaluates a 5x5 stencil on all three charts at once. The first
``DISCORD_HALVING_ROUNDS`` re-centre each chart on its best point and halve its
step. In the basin they find, the objective is smooth, so the next
``DISCORD_NEWTON_ROUNDS`` converge quadratically by the Newton step of a
quadratic fitted to each chart's 25 values (Absil, Mahony and Sepulchre,
*Optimization Algorithms on Matrix Manifolds*, 2008). A last call evaluates the
Newton points; the search keeps the best value it evaluated.

The objective and the stencil loop run on a stack of states; a mask sends each
state to the closed form or to the stencil. ``full_reports`` searches discord
on stacks of up to ``REPORT_CHUNK`` states, and ``full_report`` takes it from
``discord_oz``, the stack of one, so every state takes the same formula.
"""

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from . import qmath
from .states import DensityMatrix

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

# Negativity below this is round-off and reads 0; discord takes its closed
# form when both Bloch vectors are shorter than this.
ROUNDOFF_CLAMP = 1e-9

# A chart centre moves at most 2 steps a halving round, in all of them 2 * DISCORD_FIRST_STEP *
# (1 + 1/2 + ... + 1/16) ~ 1.52 > 1 in each coordinate: it can reach any point of the cell |u|, |v| <= 1.
DISCORD_FIRST_STEP = math.pi / 8
DISCORD_HALVING_ROUNDS = 5
DISCORD_NEWTON_ROUNDS = 3
# States per discord search in ``full_reports``. A stack shares the per-call cost of the
# stencil's small array operations; chunking bounds the search's memory for any number of states.
REPORT_CHUNK = 32
# Chart k maps (u, v) to the axis e_k + u e_{k+1} + v e_{k+2}, indices mod 3;
# _CHARTS[k] holds e_k, e_{k+1} and e_{k+2} as rows.
_CHARTS = np.eye(3)[(np.arange(3)[:, None] + np.arange(3)) % 3]
# Stencil offsets in units of the current step, in (u, v) and as chart k's displacements of e_k.
_STENCIL = np.array([(i, j) for i in range(-2, 3) for j in range(-2, 3)], dtype=float)
_OFFSETS = _STENCIL @ _CHARTS[:, 1:]
# Rows g_i, g_j, H_ii, H_jj, H_ij of the least-squares fit f ~ k0 + g.s + s.H s / 2 over the offsets s = (i, j). On the
# stencil 1, i, j, i^2 - 2, j^2 - 2, ij are orthogonal, squared norms 25, 50, 50, 70, 70, 100; H_ii is 2x the i^2 term.
_FIT = np.array([*(_STENCIL.T / 50), *((_STENCIL.T**2 - 2) / 35), _STENCIL.prod(axis=1) / 100])
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
    off = np.abs(rho.matrix)
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
    """Steering degree for three measurements per qubit: the norm of T's singular values, ``sqrt(sum T_ij^2)``."""
    t = bloch_decompose(rho)[2]
    return max(0.0, (math.sqrt(float((t * t).sum())) - 1.0) / (SQRT3 - 1.0))


def nonlocality(rho: DensityMatrix) -> float:
    """Bell-inequality violation degree for two measurements per qubit."""
    # Singular values, not absolute eigenvalues: tomography can return a non-symmetric T.
    c = np.linalg.svd(bloch_decompose(rho)[2], compute_uv=False)
    c_min_sq = float(np.min(c) ** 2)
    norm_sq = float(np.dot(c, c))
    return max(0.0, (math.sqrt(max(0.0, norm_sq - c_min_sq)) - 1.0) / (SQRT2 - 1.0))


def _qubit_entropy(bloch: np.ndarray) -> np.ndarray:
    """Von Neumann entropy of qubit states with Bloch vectors along the last axis."""
    r = np.sqrt((bloch * bloch).sum(-1))
    return qmath.entropy_bits((1 + r[..., None] * _SIGNS) / 2)


def mutual_information(rho: DensityMatrix) -> float:
    """Quantum mutual information S(rho_a) + S(rho_b) - S(rho)."""
    c = rho.pauli
    joint = qmath.entropy_bits(rho.spectrum)
    return float(_qubit_entropy(c[1:, 0]) + _qubit_entropy(c[0, 1:]) - joint)


def _measured_mi(c: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Measured mutual information less ``S(rho_a)``, for states ``c`` (N, 4, 4) along axes ``n`` (N, K, 3).

    ``H(outcomes) - S(post-measurement state)``. With ``p = 1 +- b.n`` and
    ``r = |a +- T n|``, the outcome probabilities are ``p/2`` and the
    post-measurement spectrum is ``(p +- r)/4``.
    """
    p = 1 + (n @ c[:, 0, 1:, None]) * _SIGNS
    tn = n @ c[:, 1:, 1:].transpose(0, 2, 1)
    m = c[:, None, None, 1:, 0] + tn[..., None, :] * _SIGNS[:, None]
    r = np.sqrt((m * m).sum(-1))
    return qmath.entropy_bits(p / 2) - qmath.entropy_bits(np.concatenate([p + r, p - r], axis=-1) / 4)


def _stencil_search(c: np.ndarray, refine: bool) -> np.ndarray:
    """Best ``_measured_mi`` of each state ``c`` (N, 4, 4) on the charts; the first round alone without ``refine``."""
    rounds = DISCORD_HALVING_ROUNDS + DISCORD_NEWTON_ROUNDS if refine else 1
    # Row 3i + k of each array belongs to chart k of state i; its points are held as unnormalised axes.
    centres, tangents, offsets = (np.tile(x, (len(c), 1, 1)) for x in (_CHARTS[:, :1], _CHARTS[:, 1:], _OFFSETS))
    cells = np.arange(len(centres))[:, None]
    steps = np.full((len(centres), 1, 1), DISCORD_FIRST_STEP)
    found = []
    for i in range(rounds + refine):  # with refine, a last call on the points the rounds reached
        n = centres + offsets * steps if i < rounds else centres
        trial = _measured_mi(c, (n / np.sqrt((n * n).sum(-1, keepdims=True))).reshape(len(c), -1, 3))
        found.append(trial)
        values = trial.reshape(len(cells), -1)
        best = n[cells, values.argmax(axis=1, keepdims=True)]
        if i < DISCORD_HALVING_ROUNDS:
            centres, steps = best, steps / 2
        elif i < rounds:
            # The Newton step -H^-1 g = adj(H) g / det(H), in stencil units, is taken only where h_ii < 0 and
            # the step is within 2 units. That bound implies det > 0, so H is negative definite and the step finite.
            g_i, g_j, h_ii, h_jj, h_ij = (values @ _FIT.T).T[..., None, None]
            det = h_ii * h_jj - h_ij * h_ij
            adj_g = np.concatenate([h_ij * g_j - h_jj * g_i, h_ij * g_i - h_ii * g_j], axis=-1)
            newton = (h_ii < 0) & (abs(adj_g).max(axis=-1, keepdims=True) < 2 * det)
            centres = np.where(newton, centres + adj_g / np.where(newton, det, 1.0) @ tangents * steps, best)
            steps = steps / np.where(newton, 8.0, 2.0)
    return np.concatenate(found, axis=1).max(axis=1)


def _discords(states: list[DensityMatrix], refine: bool = True) -> list[float]:
    """``discord_oz`` of each state: ``S(rho_b) - S(rho)`` less the best objective value, searched on the stack."""
    c = np.stack([rho.pauli for rho in states])
    best = np.empty(len(c))
    luo = np.sqrt(np.maximum((c[:, 1:, 0] ** 2).sum(-1), (c[:, 0, 1:] ** 2).sum(-1))) <= ROUNDOFF_CLAMP
    if luo.any():
        best[luo] = _measured_mi(c[luo], np.linalg.svd(c[luo, 1:, 1:])[2][:, :1])[:, 0]
    if not luo.all():
        best[~luo] = _stencil_search(c[~luo], refine)
    joint = qmath.entropy_bits(np.stack([rho.spectrum for rho in states]))
    return np.maximum(_qubit_entropy(c[:, 0, 1:]) - joint - best, 0.0).tolist()


def discord_oz(rho: DensityMatrix, refine: bool = True) -> float:
    """Discord of a two-qubit state under projective measurements on qubit b.

    Mutual information minus the best measured mutual information, searched
    as the module docstring says: 9 objective calls on the general path, or 1
    without ``refine`` (the first round; refining never raises discord), and 1
    on the closed form. This is the stack of one, and ``full_report``'s discord.
    """
    return _discords([rho], refine)[0]


def _report(rho: DensityMatrix, discord: float) -> ResourceReport:
    return ResourceReport(
        coherence_l1=coherence_l1(rho),
        nonlocal_coherence=nonlocal_coherence(rho),
        discord=discord,
        negativity=negativity(rho),
        steering=steering(rho),
        nonlocality=nonlocality(rho),
    )


def full_reports(states: Sequence[DensityMatrix]) -> list[ResourceReport]:
    """``full_report`` of each state; discord is searched on stacks of up to ``REPORT_CHUNK`` states."""
    states = list(states)
    discords = [d for i in range(0, len(states), REPORT_CHUNK) for d in _discords(states[i : i + REPORT_CHUNK])]
    return [_report(rho, discord) for rho, discord in zip(states, discords)]


def full_report(rho: DensityMatrix) -> ResourceReport:
    """All measures of a two-qubit state in one record, its discord from ``discord_oz``."""
    return _report(rho, discord_oz(rho))
