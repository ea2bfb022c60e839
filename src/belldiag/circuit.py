"""Gate set, the preparation circuit, state-vector simulation, and QASM export.

``_GATES`` is the one description of each gate kind. ``purification_circuit``
prepares any Bell-diagonal state as the reduced state of a four-qubit pure
state. The rotation on qubit ``b`` is conditioned on qubit ``a`` through a
CNOT-conjugated rotation pair; when the two conditionals of k given j agree,
which includes every product-form spec, that pair collapses to one rotation
and the circuit has six gates.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    InvalidLayoutError,
    OutOfRangeError,
)
from .states import BdsSpec, DensityMatrix, _shown, strict_index, strict_real

_GATES = {
    "r": (1, 1, None),
    "h": (0, 1, np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)),
    "cx": (0, 2, np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)),
}

# The largest register: 2**16 amplitudes make a 1 MiB state vector.
MAX_QUBITS = 16
# The largest OpenQASM register to_qasm writes, so physical indices run below it.
MAX_PHYSICAL_QUBITS = 2**16
# 4-qubit register of the preparation circuit.
PREP_QUBIT_NAMES = ("a", "b", "c", "d")
# Hardware encoding used for QASM export: a->Q1, b->Q3, c->Q2, d->Q4.
DEFAULT_PREP_LAYOUT = {0: 1, 1: 3, 2: 2, 3: 4}
# A row of the (j, k) probability table with no more mass than this is empty,
# and a conditional-angle difference no larger than this is zero.
PREP_ATOL = 1e-14


@dataclass(frozen=True)
class Gate:
    """One gate application: kind, real parameters, target qubit indices.

    Each kind's (parameter count, target count, fixed unitary) is described once, in ``_GATES``.
    ``cx`` lists its control first; ``r``'s one angle x gives [[cos x, -sin x], [sin x, cos x]].
    """

    kind: str
    params: tuple[float, ...] = ()
    targets: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _GATES:
            raise OutOfRangeError(f"unknown gate kind {_shown(self.kind)}")
        if not (np.iterable(self.params) and np.iterable(self.targets)):
            kinds = f"{type(self.params).__name__} and {type(self.targets).__name__}"
            raise OutOfRangeError(f"gate params and targets must be sequences, got {kinds}")
        params = tuple(strict_real(p, OutOfRangeError, "a gate angle") for p in self.params)
        targets = tuple(strict_index(t, OutOfRangeError, "a gate target") for t in self.targets)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "targets", targets)
        n_params, n_targets, _ = _GATES[self.kind]
        if len(self.params) != n_params:
            raise OutOfRangeError(f"{self.kind} takes {n_params} parameter(s)")
        if len(self.targets) != n_targets or len(set(self.targets)) != n_targets:
            raise OutOfRangeError(f"{self.kind} takes {n_targets} distinct target(s)")

    def matrix(self) -> np.ndarray:
        """Unitary matrix of the gate (4x4 for cx, ordered control then target)."""
        if self.kind == "r":
            x = self.params[0]
            return np.array(
                [[math.cos(x), -math.sin(x)], [math.sin(x), math.cos(x)]], dtype=complex
            )
        return _GATES[self.kind][2].copy()


@dataclass(frozen=True)
class Circuit:
    """An ordered list of gates on a register of ``n_qubits`` qubits."""

    n_qubits: int
    gates: tuple[Gate, ...]
    qubit_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        n = strict_index(self.n_qubits, DimensionMismatchError, "n_qubits", 1, MAX_QUBITS)
        if not (np.iterable(self.gates) and np.iterable(self.qubit_names)):
            kinds = f"{type(self.gates).__name__} and {type(self.qubit_names).__name__}"
            raise OutOfRangeError(f"gates and qubit_names must be sequences, got {kinds}")
        gates, names = tuple(self.gates), tuple(self.qubit_names)
        if not all(isinstance(g, Gate) for g in gates):
            raise OutOfRangeError(f"gates must be Gate instances, got {[type(g).__name__ for g in gates]}")
        if not all(isinstance(q, str) for q in names):
            raise InvalidLayoutError(f"qubit names must be strings, got {[type(q).__name__ for q in names]}")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "qubit_names", names or tuple(f"q{i}" for i in range(n)))
        if len(self.qubit_names) != self.n_qubits:
            raise DimensionMismatchError("qubit_names length must equal n_qubits")
        if len(set(self.qubit_names)) != self.n_qubits:
            raise InvalidLayoutError(f"qubit_names must be distinct, got {self.qubit_names}")
        for g in self.gates:
            for t in g.targets:
                strict_index(t, DimensionMismatchError, f"gate {g.kind}'s target", 0, n - 1)


_CX_AB = Gate("cx", (), (0, 1))
_COPY_AND_ROTATE = (Gate("cx", (), (0, 2)), Gate("cx", (), (1, 3)), Gate("h", (), (2,)), Gate("cx", (), (2, 3)))


def purification_circuit(spec: BdsSpec) -> Circuit:
    """Circuit preparing the exact four-qubit purification of any spec.

    Every rotation angle x solves cos^2 x = num/den: qubit a's for the
    j-marginal p00+p01, and gamma_j, qubit b's conditioned on a = j, for
    p_j0 over the row's mass. When the two conditionals differ, b's rotation
    is a CNOT-conjugated pair. The copy CNOTs then imprint
    (j, k) on qubits c, d, and the closing pair, H on c then CNOT c->d,
    rotates c, d into the Bell basis. The partial trace over a, b leaves
    the target state.
    """
    p = spec.probabilities

    def half_angle(num: float, den: float) -> float | None:
        if den <= PREP_ATOL:
            return None  # an empty row
        return math.acos(math.sqrt(min(1.0, max(0.0, num / den))))

    gamma0 = half_angle(p[0], p[0] + p[1])
    gamma1 = half_angle(p[2], p[2] + p[3])
    # An empty row takes the other row's angle; a normalised spec has a non-empty row.
    if gamma0 is None:
        gamma0 = gamma1
    if gamma1 is None:
        gamma1 = gamma0

    half_diff = (gamma1 - gamma0) / 2
    if abs(half_diff) <= PREP_ATOL:
        rotate_b = (Gate("r", (gamma0,), (1,)),)
    else:
        rotate_b = (Gate("r", ((gamma0 + gamma1) / 2,), (1,)), _CX_AB, Gate("r", (-half_diff,), (1,)), _CX_AB)
    gates = (Gate("r", (half_angle(p[0] + p[1], 1.0),), (0,)), *rotate_b, *_COPY_AND_ROTATE)
    return Circuit(n_qubits=4, gates=gates, qubit_names=PREP_QUBIT_NAMES)


def simulate_statevector(circ: Circuit) -> np.ndarray:
    """Apply the circuit's gates in order to the all-zero computational basis state."""
    return _simulated(circ.n_qubits, [circ.gates])[0]


@functools.lru_cache(maxsize=64)
def _index_rows(n_qubits: int, targets: tuple[int, ...]) -> np.ndarray:
    """Row r holds the amplitudes whose target bits, in the gate matrix's order, spell r; cached, so read-only."""
    index = np.arange(2**n_qubits).reshape((2,) * n_qubits)
    rows = np.moveaxis(index, targets, range(len(targets))).reshape(2 ** len(targets), -1)
    rows.setflags(write=False)
    return rows


def _simulated(n_qubits: int, circuits: Sequence[tuple[Gate, ...]]) -> np.ndarray:
    """State vectors (N, 2**n) of N gate sequences of the same kinds and targets, each with its own angles."""
    psi = np.zeros((len(circuits), 2**n_qubits), dtype=complex)
    psi[:, 0] = 1.0
    for gates in zip(*circuits):  # the i-th gate of every sequence
        m = np.array([g.matrix() for g in gates]) if gates[0].params else gates[0].matrix()
        rows = _index_rows(n_qubits, gates[0].targets)
        psi[:, rows] = m @ psi[:, rows]
    return psi


def prepared_state(spec: BdsSpec) -> DensityMatrix:
    """Simulate the preparation circuit and trace out a, b: as a 4x4 table, psi's rows are a, b."""
    psi = simulate_statevector(purification_circuit(spec)).reshape(4, 4)
    return DensityMatrix(np.einsum("ai,aj->ij", psi, psi.conj()), validate=False)


def _prepared_states(specs: Sequence[BdsSpec]) -> np.ndarray:
    """``prepared_state`` of each spec, bit for bit, as one (N, 4, 4) stack: one simulation per gate sequence."""
    circuits = [purification_circuit(spec).gates for spec in specs]
    kinds = [tuple((g.kind, g.targets) for g in gates) for gates in circuits]
    psi = np.empty((len(circuits), 16), dtype=complex)
    for kind in dict.fromkeys(kinds):
        rows = [i for i, k in enumerate(kinds) if k == kind]
        psi[rows] = _simulated(4, [circuits[i] for i in rows])
    psi = psi.reshape(-1, 4, 4)
    return np.einsum("nai,naj->nij", psi, psi.conj())


_PI_FRACTIONS = [1, 2, 3, 4, 6, 8]
# The largest |num| written as a pi fraction. Float spacing there is 2**-42, so above it the
# 1e-12 test spans a few ulps and round-off decides it; above 2**53 every float passes.
_MAX_PI_MULTIPLE = 1024


def _format_angle(x: float) -> str:
    """Format an angle for QASM, using pi fractions when exact."""
    if abs(x) < 1e-12:
        return "0"
    for den in _PI_FRACTIONS:
        num = x * den / math.pi
        if abs(num) <= _MAX_PI_MULTIPLE and abs(num - round(num)) < 1e-12 and round(num) != 0:
            num = int(round(num))
            sign = "-" if num < 0 else ""
            num = abs(num)
            head = "pi" if num == 1 else f"{num}*pi"
            return f"{sign}{head}" if den == 1 else f"{sign}{head}/{den}"
    return repr(float(x))


_MEASUREMENT_PREFIX = {"Z": (), "X": ("h",), "Y": ("sdg", "h")}


def to_qasm(
    circ: Circuit,
    layout: Mapping[int | str, int] | None = None,
    measure_basis: Mapping[int | str, str] | None = None,
) -> str:
    """Emit OpenQASM 2.0 for the circuit.

    ``layout`` maps logical qubits (index or register name) to physical
    indices; the 4-qubit preparation circuit defaults to the hardware
    encoding a->1, b->3, c->2, d->4, other circuits to the identity.
    ``measure_basis`` maps logical qubits to "X", "Y" or "Z"; X-basis
    measurements are prefixed by h, Y-basis by sdg then h.
    """

    def logical_index(key: int | str) -> int:
        if isinstance(key, str):
            if key not in circ.qubit_names:
                raise InvalidLayoutError(f"unknown qubit name {key!r}")
            return circ.qubit_names.index(key)
        return strict_index(key, InvalidLayoutError, "a logical qubit", 0, circ.n_qubits - 1)

    def by_logical_index(mapping: Mapping, read) -> dict:
        if not isinstance(mapping, Mapping):
            raise InvalidLayoutError(f"expected a mapping of logical qubits, got {type(mapping).__name__}")
        out = {}
        for key, value in mapping.items():
            index = logical_index(key)
            if index in out:
                raise InvalidLayoutError(f"logical qubit {index} is given twice (last as {key!r})")
            out[index] = read(value)
        return out

    def read_basis(basis) -> str:
        b = basis.upper() if isinstance(basis, str) else None
        if b not in _MEASUREMENT_PREFIX:
            raise InvalidLayoutError(f"unknown measurement basis {_shown(basis)}")
        return b

    if layout is None:
        if circ.n_qubits == 4 and circ.qubit_names == PREP_QUBIT_NAMES:
            phys = dict(DEFAULT_PREP_LAYOUT)
        else:
            phys = {i: i for i in range(circ.n_qubits)}
    else:
        phys = by_logical_index(
            layout, lambda v: strict_index(v, InvalidLayoutError, "a physical qubit", 0, MAX_PHYSICAL_QUBITS - 1)
        )
    missing = [name for i, name in enumerate(circ.qubit_names) if i not in phys]
    if missing:
        raise InvalidLayoutError(f"layout is missing qubits {missing}")
    for i, j in itertools.combinations(sorted(phys), 2):
        if phys[i] == phys[j]:
            names = circ.qubit_names
            raise InvalidLayoutError(f"qubits {names[i]!r} and {names[j]!r} both on physical {phys[i]}")

    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{max(phys.values()) + 1}];"]

    bases = by_logical_index({} if measure_basis is None else measure_basis, read_basis)
    measured = sorted(bases.items())
    if measured:
        lines.append(f"creg c[{len(measured)}];")

    for g in circ.gates:
        name = g.kind
        if g.kind == "r":
            # R(x/2) is the native u3(x, 0, 0); 2x overflows to inf above about 9e307.
            x = strict_real(2 * g.params[0], OutOfRangeError, "a u3 angle")
            name = f"u3({_format_angle(x)},0,0)"
        lines.append(f"{name} " + ",".join(f"q[{phys[t]}]" for t in g.targets) + ";")

    for slot, (logical, basis) in enumerate(measured):
        for prefix in _MEASUREMENT_PREFIX[basis]:
            lines.append(f"{prefix} q[{phys[logical]}];")
        lines.append(f"measure q[{phys[logical]}] -> c[{slot}];")

    return "\n".join(lines) + "\n"
