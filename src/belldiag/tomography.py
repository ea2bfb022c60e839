"""Simulated Pauli tomography: sampling, correlation estimation, inversion.

The nine two-qubit measurement settings pair one of X, Y, Z on each side.
Counts are recorded per setting in the outcome order ++, +-, -+, -- (the
signs are the local Pauli eigenvalues). The outcome probabilities of all nine
settings are one table read off the Pauli coefficients. Both correlation
functions return that table ``c``, laid out as ``DensityMatrix.pauli``; linear
inversion checks it, reconstructs ``rho = (1/4) sum_jk c_jk sigma_j x sigma_k``
and projects onto the physical set below ``qmath.STATE_MIN_EIGENVALUE``.
"""

import json
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import qmath
from .exceptions import DimensionMismatchError, OutOfRangeError
from .states import DensityMatrix, _shown, strict_array, strict_index

BASES = ("X", "Y", "Z")
MAX_SHOTS = np.iinfo(np.int64).max  # the most trials numpy's multinomial takes

# Outcome order for the four counts of one setting.
OUTCOMES = ("pp", "pm", "mp", "mm")
# Local eigenvalue signs (s_a, s_b) of each outcome, in OUTCOMES order.
_SIGNS_A = np.array([1, 1, -1, -1])
_SIGNS_B = np.array([1, -1, 1, -1])


@dataclass(frozen=True)
class MeasurementSetting:
    """Local measurement bases for the two qubits, each one of X, Y, Z."""

    basis_a: str
    basis_b: str

    def __post_init__(self):
        if not all(isinstance(b, str) and b in BASES for b in (self.basis_a, self.basis_b)):
            raise OutOfRangeError(f"bases must be among {BASES}, got {_shown(self.basis_a)}, {_shown(self.basis_b)}")

    @property
    def key(self) -> str:
        return self.basis_a + self.basis_b


SETTINGS = tuple(
    MeasurementSetting(a, b) for a in BASES for b in BASES
)


@dataclass(frozen=True)
class TomographyCounts:
    """Outcome counts for all nine settings at a fixed number of shots."""

    shots_per_setting: int
    counts: Mapping[MeasurementSetting, tuple[int, int, int, int]]

    def __post_init__(self):
        shots = strict_index(self.shots_per_setting, OutOfRangeError, "shots_per_setting")
        if not 1 <= shots <= MAX_SHOTS:  # by hand, so that a counts file is told "2**63 - 1"
            raise OutOfRangeError("shots_per_setting must be in [1, 2**63 - 1]")
        if not isinstance(self.counts, Mapping):
            raise OutOfRangeError(f"counts must map each setting to its four counts, got {type(self.counts).__name__}")
        if set(self.counts) != set(SETTINGS):
            missing = sorted(s.key for s in set(SETTINGS) - set(self.counts))
            extra = ", ".join(_shown(s) for s in self.counts if s not in SETTINGS)
            raise OutOfRangeError(f"settings must be exactly SETTINGS: missing {missing}, extra [{extra}]")
        rows = {}  # an owned copy: the caller's mapping and rows may change after this check
        for s, row in self.counts.items():
            name = f"{s.key} count"
            row = rows[s] = tuple([strict_index(v, OutOfRangeError, name, 0) for v in row]) if np.iterable(row) else ()
            if len(row) != 4:
                raise OutOfRangeError(f"setting {s.key} needs 4 counts")
            if sum(row) != shots:
                raise OutOfRangeError(f"setting {s.key} counts sum to {_shown(sum(row))}, expected {shots}")
        object.__setattr__(self, "counts", MappingProxyType(rows))


@dataclass(frozen=True)
class ReconstructionResult:
    """Linear-inversion output: physical state, projection flag, raw matrix."""

    state: DensityMatrix
    projected: bool
    raw_matrix: np.ndarray


def _born_table(c: np.ndarray) -> np.ndarray:
    """Outcome probabilities of all settings, shape (..., 3, 3, 4), in ``SETTINGS`` order.

    ``p(s_a, s_b) = (1 + s_a c_j0 + s_b c_0k + s_a s_b c_jk) / 4`` for (sigma_j, sigma_k).
    """
    a, b, t = c[..., 1:, 0, None, None], c[..., None, 0, 1:, None], c[..., 1:, 1:, None]
    return np.clip((1 + a * _SIGNS_A + b * _SIGNS_B + t * (_SIGNS_A * _SIGNS_B)) / 4, 0.0, None)


def born_probabilities(rho: DensityMatrix, setting: MeasurementSetting) -> np.ndarray:
    """Joint outcome probabilities (++, +-, -+, --) for one setting."""
    return _born_table(rho.pauli).reshape(9, 4)[SETTINGS.index(setting)]


def sample_counts(rho: DensityMatrix, shots: int, seed: int) -> TomographyCounts:
    """Multinomial outcome counts for all nine settings: ``_sampled_counts`` on a stack of one."""
    shots = strict_index(shots, OutOfRangeError, "shots", 1, MAX_SHOTS)
    counts = _sampled_counts(rho.pauli[None], shots, [seed])[0]
    return TomographyCounts(shots_per_setting=shots, counts=dict(zip(SETTINGS, counts)))


def _sampled_counts(c: np.ndarray, shots: int, seeds) -> np.ndarray:
    """Counts (N, 9, 4) of a stack of Pauli tables (N, 4, 4), row i drawn with ``seeds[i]``.

    Each setting draws from its own counter-based generator keyed by (seed, setting index), so
    results are reproducible and independent of evaluation order and of the row's place in the stack.
    """
    seeds = [strict_index(seed, OutOfRangeError, "seed") & 0xFFFFFFFFFFFFFFFF for seed in seeds]
    table = _born_table(c).reshape(-1, 9, 4)
    table = table / table.sum(axis=-1, keepdims=True)
    counts = np.array([
        [np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, idx]))).multinomial(shots, probs)
         for idx, probs in enumerate(row)]
        for seed, row in zip(seeds, table)
    ])
    if not ((counts >= 0).all() and (counts.sum(axis=-1) == shots).all()):  # TomographyCounts' checks, once
        raise OutOfRangeError(f"sampled counts must be non-negative and sum to {shots} in every setting")
    return counts


def estimate_correlations(counts: TomographyCounts) -> np.ndarray:
    """Estimated Pauli coefficients ``c``, laid out as ``DensityMatrix.pauli``, from measured counts."""
    return _estimated(np.array([counts.counts[s] for s in SETTINGS], dtype=float), counts.shots_per_setting)


def _estimated(n: np.ndarray, shots: int) -> np.ndarray:
    """``estimate_correlations`` of counts of shape (..., 9, 4), as Pauli tables of shape (..., 4, 4)."""
    # n[..., j - 1, k - 1, :] holds the outcome counts of setting (sigma_j, sigma_k). Signed
    # sums of counts are exact integers, so each estimate is rounded once, at the division.
    n = np.asarray(n, dtype=float).reshape(n.shape[:-2] + (3, 3, 4))
    c = np.zeros(n.shape[:-3] + (4, 4), dtype=float)
    c[..., 0, 0] = 1.0
    c[..., 1:, 1:] = (n @ (_SIGNS_A * _SIGNS_B)) / shots
    # Each single-qubit average is measured by three compatible settings;
    # use their mean to reduce variance.
    c[..., 1:, 0] = np.sum(n @ _SIGNS_A, axis=-1) / (3 * shots)
    c[..., 0, 1:] = np.sum(n @ _SIGNS_B, axis=-2) / (3 * shots)
    return np.clip(c, -1.0, 1.0)


def exact_correlations(rho: DensityMatrix) -> np.ndarray:
    """Infinite-shot estimate: the state's Pauli coefficients ``rho.pauli``, clipped, with c[0][0] = 1."""
    return _exact(rho.pauli)


def _exact(c: np.ndarray) -> np.ndarray:
    """``exact_correlations`` of Pauli tables of shape (..., 4, 4)."""
    c = np.clip(c, -1.0, 1.0)
    c[..., 0, 0] = 1.0
    return c


def reconstruct(c: np.ndarray) -> ReconstructionResult:
    """Linear inversion of the Pauli coefficients ``c``, with spectral projection if unphysical.

    ``c`` is a real 4x4 table laid out as ``DensityMatrix.pauli``, with c[0][0] = 1 and every
    entry in [-1, 1]. Projection clips negative eigenvalues to zero and renormalizes the
    trace; the unmodified linear-inversion matrix is kept for inspection.
    """
    c = strict_array(c, float, (4, 4), DimensionMismatchError, "a correlation matrix")
    physical, projected, raw = _reconstructed(c[None])
    return ReconstructionResult(DensityMatrix(physical[0], validate=False), bool(projected[0]), raw[0])


def _reconstructed(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``reconstruct`` of a stack of tables (N, 4, 4), checked as one: physical, projected and raw stacks."""
    if not (c[:, 0, 0] == 1.0).all():
        raise OutOfRangeError(f"c[0][0] must be exactly 1, got {c[c[:, 0, 0] != 1.0][0, 0, 0]!r}")
    # Written as "not within" so that NaN, which fails every comparison, is rejected.
    if not (np.abs(c) <= 1.0 + 1e-12).all():
        raise OutOfRangeError("correlation entries must be finite and lie in [-1, 1]")
    raw = qmath.from_pauli_coefficients(c)
    w, v = np.linalg.eigh(raw)
    projected = w[:, 0] < qmath.STATE_MIN_EIGENVALUE
    physical = raw.copy()
    if projected.any():
        w, v = np.clip(w[projected], 0.0, None), v[projected]
        physical[projected] = (v * (w / np.sum(w, axis=-1, keepdims=True))[:, None, :]) @ v.conj().swapaxes(-1, -2)
    return physical, projected, raw


def tomograph(rho: DensityMatrix, shots: int, seed: int = 0) -> ReconstructionResult:
    """Full pipeline: sample counts, estimate correlations, reconstruct.

    ``shots=0`` is the exact mode: the correlations are the state's Pauli
    coefficients (``exact_correlations``), with no sampling, so the round
    trip is exact up to round-off. Returns the whole ``ReconstructionResult``:
    the physical ``state``, whether it was ``projected`` and the ``raw_matrix``.
    """
    physical, projected, raw = _tomographs(rho.pauli[None], shots, [seed])
    return ReconstructionResult(DensityMatrix(physical[0], validate=False), bool(projected[0]), raw[0])


def _tomographs(c: np.ndarray, shots: int, seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``tomograph`` of a stack of Pauli tables (N, 4, 4), row i sampled with ``seeds[i]``; see ``_reconstructed``."""
    shots = strict_index(shots, OutOfRangeError, "shots", 0, MAX_SHOTS)
    return _reconstructed(_estimated(_sampled_counts(c, shots, seeds), shots) if shots else _exact(c))


def counts_to_json(counts: TomographyCounts) -> str:
    """Serialize counts as ``{"shots": n, "settings": {"XX": {...}, ...}}``."""
    payload = {
        "shots": counts.shots_per_setting,
        "settings": {
            s.key: dict(zip(OUTCOMES, counts.counts[s]))
            for s in SETTINGS
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def counts_from_json(text: str | bytes) -> TomographyCounts:
    """Parse the counts JSON format, validating its invariants; bytes must be UTF-8."""
    try:
        payload = json.loads(text.decode("utf-8-sig") if isinstance(text, bytes) else text)
        shots = payload["shots"]
        settings = payload["settings"]
        counts = {s: tuple(settings[s.key][o] for o in OUTCOMES) for s in SETTINGS}
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise OutOfRangeError(f"malformed counts JSON: {exc}") from exc
    return TomographyCounts(shots_per_setting=shots, counts=counts)
