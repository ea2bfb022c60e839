"""Quantumness measures: coherence, discord, negativity, steering, nonlocality.

The measures read the matrix and its Pauli coefficients ``c``.
``bloch_decompose`` returns the blocks of ``c``: the Bloch vectors a, b and the
correlation matrix T. Steering reads the norm of T's singular values,
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
Newton points; the search keeps the best value it evaluated. Each call holds
two things constant: the state's operands b, T transposed and a, sliced once
per search by ``_objective_operands``, and on the first call the 75 axes of the
first round, the same for every state and normalised at import. The charts'
arrays broadcast over the states, so no array is copied per state.

Every measure is a kernel on a stack of states, and each public measure is its
kernel on a stack of one. ``_reports``, the one report kernel, walks a matrix
stack (N, 4, 4) in ``REPORT_CHUNK`` slices, each in one pass: one Pauli table,
one ``eigvalsh`` of the states and one of their partial transposes, one SVD; a
mask sends each state's discord to the closed form or to the stencil. Each reads
a masked copy, which is C-contiguous; numpy picks matmul's loop by strides.
Records wrap only public inputs and outputs. ``full_report`` calls the public
measures, which read the state's kept ``rho.pauli`` and ``rho.spectrum``, so
each measure keeps its own caller and timing. The objective puts its sign and
vector-component axes first, so its elementwise loops run over all N K axes;
numpy adds a trailing axis of 2 to 4 terms left to right, as a sum over a
leading axis does, so every value has the bits of the per-state formula.
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
# States per chunk of ``_reports``. A stack shares the per-call cost of the
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
# Chart k's centre and tangents, each broadcast over the states of a search; its index, to pick a stencil offset.
_CENTRES, _TANGENTS, _CHART_INDEX = _CHARTS[:, :1], _CHARTS[:, 1:], np.arange(3)[:, None]
# Outcome signs of a measurement on qubit b; the objective holds them on its leading axis.
_SIGNS = np.array([1.0, -1.0])
_OUTCOME_SIGNS = _SIGNS[:, None, None]
# Outcome probabilities p/2, then post-measurement spectrum (p + r)/4 and (p - r)/4: powers of two, so exact.
_SCALES = np.array([0.5, 0.5, 0.25, 0.25, 0.25, 0.25])[:, None, None]
_OFF_DIAGONAL = 1.0 - np.eye(4)


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


def _coherences(m: np.ndarray) -> np.ndarray:
    return (np.abs(m) * _OFF_DIAGONAL).sum((-2, -1))


def coherence_l1(rho: DensityMatrix) -> float:
    """Sum of moduli of off-diagonal entries in the computational basis."""
    return float(_coherences(rho.matrix[None])[0])


def _nonlocal_coherences(coherences: list[float], c: np.ndarray) -> list[float]:
    # math.hypot per state: a batched np.hypot differs from it in the last bit.
    a, b = c[:, 1:3, 0].tolist(), c[:, 0, 1:3].tolist()
    return [x - math.hypot(*u) - math.hypot(*v) for x, u, v in zip(coherences, a, b)]


def nonlocal_coherence(rho: DensityMatrix) -> float:
    """Global l1 coherence minus the sum of the marginal coherences.

    A qubit with Bloch vector r has l1 coherence ``|r_x - i r_y|``, so the
    marginal coherences are read off the Pauli coefficients.
    """
    return _nonlocal_coherences(_coherences(rho.matrix[None]).tolist(), rho.pauli[None])[0]


def bloch_decompose(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bloch vectors ``a``, ``b`` and correlation matrix ``T`` of a two-qubit state."""
    c = rho.pauli
    return c[1:, 0], c[0, 1:], c[1:, 1:]


def _negativities(m: np.ndarray) -> np.ndarray:
    excess = qmath.trace_norm(m.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)) - 1.0
    return np.where(excess >= ROUNDOFF_CLAMP, excess, 0.0)


def negativity(rho: DensityMatrix) -> float:
    """Trace norm of the partial transpose on qubit b minus one.

    A value below ``ROUNDOFF_CLAMP``, round-off on a separable state, reads 0.
    """
    return float(_negativities(rho.matrix[None])[0])


def _steerings(t: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, (np.sqrt((t * t).sum((-2, -1))) - 1.0) / (SQRT3 - 1.0))


def steering(rho: DensityMatrix) -> float:
    """Steering degree for three measurements per qubit: the norm of T's singular values, ``sqrt(sum T_ij^2)``."""
    return float(_steerings(bloch_decompose(rho)[2][None])[0])


def _nonlocalities(t: np.ndarray) -> np.ndarray:
    # Singular values, not |eigenvalues|: T can be non-symmetric. The squared norm is one dot product per state:
    # a stacked 1x3 @ 3x1 matmul runs np.dot's routine, where a batched sum changes bits.
    s = np.linalg.svd(t, compute_uv=False)
    norm_sq = (s[:, None] @ s[..., None])[:, 0, 0]
    return np.maximum(0.0, (np.sqrt(np.maximum(0.0, norm_sq - s.min(-1) ** 2)) - 1.0) / (SQRT2 - 1.0))


def nonlocality(rho: DensityMatrix) -> float:
    """Bell-inequality violation degree for two measurements per qubit."""
    return float(_nonlocalities(bloch_decompose(rho)[2][None])[0])


def _qubit_entropy(bloch: np.ndarray) -> np.ndarray:
    """Von Neumann entropy of qubit states with Bloch vectors along the last axis."""
    r = np.sqrt((bloch * bloch).sum(-1))
    return qmath.entropy_bits((1 + r[..., None] * _SIGNS) / 2)


def mutual_information(rho: DensityMatrix) -> float:
    """Quantum mutual information S(rho_a) + S(rho_b) - S(rho)."""
    c = rho.pauli
    joint = qmath.entropy_bits(rho.spectrum)
    return float(_qubit_entropy(c[1:, 0]) + _qubit_entropy(c[0, 1:]) - joint)


def _objective_operands(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_measured_mi``'s operands of states ``c`` (N, 4, 4): b as columns (N, 3, 1), T transposed, a (3, 1, N, 1)."""
    return c[:, 0, 1:, None], c[:, 1:, 1:].transpose(0, 2, 1), c[:, 1:, 0].T[:, None, :, None]


def _measured_mi(operands: tuple[np.ndarray, np.ndarray, np.ndarray], n: np.ndarray) -> np.ndarray:
    """Measured mutual information less ``S(rho_a)``, of states' ``_objective_operands`` along axes ``n`` (N, K, 3).

    ``H(outcomes) - S(post-measurement state)``. With ``p = 1 +- b.n`` and
    ``r = |a +- T n|``, the outcome probabilities are ``p/2`` and the
    post-measurement spectrum is ``(p +- r)/4``. Axes ``(K, 3)`` are shared by all the states.
    """
    b, t_transposed, a = operands
    p = 1 + _OUTCOME_SIGNS * (n @ b)[..., 0]
    tn = (n @ t_transposed).transpose(2, 0, 1)
    m = a + tn[:, None] * _OUTCOME_SIGNS
    sq = m * m
    r = np.sqrt(sq[0] + sq[1] + sq[2])
    # x log2 x of the outcome probabilities, then of the post-measurement spectrum, in one pass.
    t = qmath._xlog2x(np.concatenate([p, p + r, p - r]) * _SCALES)
    return np.add.reduce(t[2:]) - np.add.reduce(t[:2])


def _normalised(n: np.ndarray) -> np.ndarray:
    sq = n * n  # summed component by component: numpy's loop over a trailing axis of 3 is slow
    return n / np.sqrt(sq[..., :1] + sq[..., 1:2] + sq[..., 2:])


# Every search starts on the same stencils, so its first-round axes are constants, chart by chart.
_FIRST_AXES = _normalised(_CENTRES + _OFFSETS * DISCORD_FIRST_STEP).reshape(-1, 3)


def _stencil_search(c: np.ndarray, refine: bool) -> np.ndarray:
    """Best ``_measured_mi`` of each state ``c`` (N, 4, 4) on the charts; the first round alone without ``refine``."""
    rounds = DISCORD_HALVING_ROUNDS + DISCORD_NEWTON_ROUNDS if refine else 0
    operands = _objective_operands(c)
    # Row (i, k) of each array belongs to chart k of state i, or to chart k of every state in the first round.
    # The points are held as unnormalised axes.
    centres, steps = _CENTRES, DISCORD_FIRST_STEP
    found = [_measured_mi(operands, _FIRST_AXES).reshape(len(c), 3, -1)]
    for i in range(rounds):  # each round's values set the next call: a stencil, or after the last round its centres
        values = found[-1]
        best = centres + _OFFSETS[_CHART_INDEX, values.argmax(axis=2)[..., None]] * steps
        if i < DISCORD_HALVING_ROUNDS:
            centres, steps = best, steps / 2
        else:
            # The Newton step -H^-1 g = adj(H) g / det(H), in stencil units, is taken only where h_ii < 0 and
            # the step is within 2 units. That bound implies det > 0, so H is negative definite and the step finite.
            # The fit's columns are g_i, g_j, h_ii, h_jj, h_ij; adj(H) g = (h_ij g_j - h_jj g_i, h_ij g_i - h_ii g_j).
            fit = (values.reshape(-1, len(_STENCIL)) @ _FIT.T).reshape(len(c), 3, 1, 5)
            g, h_ii, h_ij = fit[..., :2], fit[..., 2:3], fit[..., 4:]
            det = h_ii * fit[..., 3:4] - h_ij * h_ij
            adj_g = h_ij * fit[..., 1::-1] - fit[..., 3:1:-1] * g
            newton = (h_ii < 0) & (np.maximum.reduce(abs(adj_g), axis=-1, keepdims=True) < 2 * det)
            centres = np.where(newton, centres + adj_g / np.where(newton, det, 1.0) @ _TANGENTS * steps, best)
            steps = steps / np.where(newton, 8.0, 2.0)
        n = centres + _OFFSETS * steps if i < rounds - 1 else centres
        found.append(_measured_mi(operands, _normalised(n).reshape(len(c), -1, 3)).reshape(len(c), 3, -1))
    return np.maximum.reduce(np.concatenate(found, axis=2), axis=(1, 2))


def _discords(c: np.ndarray, spectra: np.ndarray, refine: bool = True) -> np.ndarray:
    """``discord_oz`` of states with Pauli tables ``c`` (N, 4, 4) and ``spectra`` (N, 4), searched on the stack."""
    luo = np.sqrt(np.maximum((c[:, 1:, 0] ** 2).sum(-1), (c[:, 0, 1:] ** 2).sum(-1))) <= ROUNDOFF_CLAMP
    best = np.empty(len(c))
    if luo.any():
        best[luo] = _measured_mi(_objective_operands(c[luo]), np.linalg.svd(c[luo, 1:, 1:])[2][:, :1])[:, 0]
    if not luo.all():
        best[~luo] = _stencil_search(c[~luo], refine)
    return np.maximum(_qubit_entropy(c[:, 0, 1:]) - qmath.entropy_bits(spectra) - best, 0.0)


def discord_oz(rho: DensityMatrix, refine: bool = True) -> float:
    """Discord of a two-qubit state under projective measurements on qubit b.

    Mutual information minus the best measured mutual information, searched
    as the module docstring says: 9 objective calls on the general path, or 1
    without ``refine`` (the first round; refining never raises discord), and 1
    on the closed form. This is the stack of one, and ``full_report``'s discord.
    """
    return float(_discords(rho.pauli[None], rho.spectrum[None], refine)[0])


def _reports(matrices: np.ndarray) -> list[ResourceReport]:
    """``full_report`` of each matrix of a stack (N, 4, 4), all fields computed on chunks of up to ``REPORT_CHUNK``."""
    reports = []
    for m in (matrices[i : i + REPORT_CHUNK] for i in range(0, len(matrices), REPORT_CHUNK)):
        c = qmath.pauli_coefficients(m)
        l1, t = _coherences(m).tolist(), c[:, 1:, 1:]
        fields = _discords(c, np.linalg.eigvalsh(m)), _negativities(m), _steerings(t), _nonlocalities(t)
        reports += map(ResourceReport, l1, _nonlocal_coherences(l1, c), *(f.tolist() for f in fields))
    return reports


def full_reports(states: Sequence[DensityMatrix]) -> list[ResourceReport]:
    """``full_report`` of each state: ``_reports`` on the stack of their matrices."""
    return _reports(np.array([rho.matrix for rho in states]))


def full_report(rho: DensityMatrix) -> ResourceReport:
    """All measures of a two-qubit state in one record, each from its public function, a stack of one."""
    return ResourceReport(
        coherence_l1(rho), nonlocal_coherence(rho), discord_oz(rho), negativity(rho), steering(rho), nonlocality(rho)
    )
