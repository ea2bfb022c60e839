"""Gate set, the preparation circuit, state-vector simulation, and QASM export.

``purification_circuit`` prepares any Bell-diagonal state as the reduced
state of a four-qubit pure state. The rotation on qubit ``b`` is conditioned
on qubit ``a`` through a CNOT-conjugated rotation pair; when the two
conditionals of k given j agree, which includes every product-form spec, that
pair collapses to one rotation and the circuit has six gates.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import qmath
from .exceptions import (
    DimensionMismatchError,
    InvalidLayoutError,
    OutOfRangeError,
)
from .states import BdsSpec, DensityMatrix

GATE_KINDS = ("r", "h", "cx")

_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_CX_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

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

    For ``cx`` the control is listed first. ``r`` carries one angle x and
    acts as the real rotation [[cos x, -sin x], [sin x, cos x]].
    """

    kind: str
    params: tuple[float, ...] = ()
    targets: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise OutOfRangeError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        n_params = 1 if self.kind == "r" else 0
        if len(self.params) != n_params:
            raise OutOfRangeError(f"{self.kind} takes {n_params} parameter(s)")
        n_targets = 2 if self.kind == "cx" else 1
        if len(self.targets) != n_targets or len(set(self.targets)) != n_targets:
            raise OutOfRangeError(f"{self.kind} takes {n_targets} distinct target(s)")

    def matrix(self) -> np.ndarray:
        """Unitary matrix of the gate (4x4 for cx, ordered control then target)."""
        if self.kind == "r":
            x = self.params[0]
            return np.array(
                [[math.cos(x), -math.sin(x)], [math.sin(x), math.cos(x)]], dtype=complex
            )
        if self.kind == "h":
            return _H_MATRIX.copy()
        return _CX_MATRIX.copy()


@dataclass(frozen=True)
class Circuit:
    """An ordered list of gates on a register of ``n_qubits`` qubits."""

    n_qubits: int
    gates: tuple[Gate, ...]
    qubit_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if not self.qubit_names:
            object.__setattr__(
                self, "qubit_names", tuple(f"q{i}" for i in range(self.n_qubits))
            )
        if len(self.qubit_names) != self.n_qubits:
            raise DimensionMismatchError("qubit_names length must equal n_qubits")
        for g in self.gates:
            if any(not 0 <= t < self.n_qubits for t in g.targets):
                raise DimensionMismatchError(
                    f"gate {g.kind} targets {g.targets} outside a {self.n_qubits}-qubit register"
                )


def purification_circuit(spec: BdsSpec) -> Circuit:
    """Circuit preparing the exact four-qubit purification of any spec.

    Qubit a is rotated by half the angle whose cosine squared is the
    j-marginal p00+p01; qubit b gets the rotation matching the conditional
    distribution of k given j, implemented with a CNOT-conjugated rotation
    pair when the two conditionals differ. The copy CNOTs then imprint
    (j, k) on qubits c, d, and the closing pair, H on c then CNOT c->d,
    rotates c, d into the Bell basis. The partial trace over a, b leaves
    the target state.
    """
    p = spec.probabilities
    theta = 2.0 * math.acos(math.sqrt(min(1.0, max(0.0, p[0] + p[1]))))

    # gamma_j: half-angle of the b rotation conditioned on a = j; None for an empty row.
    def conditional_angle(num: float, den: float) -> float | None:
        if den <= PREP_ATOL:
            return None
        return math.acos(math.sqrt(min(1.0, max(0.0, num / den))))

    gamma0 = conditional_angle(p[0], p[0] + p[1])
    gamma1 = conditional_angle(p[2], p[2] + p[3])
    # An empty row takes the other row's angle; a normalised spec has a non-empty row.
    if gamma0 is None:
        gamma0 = gamma1
    if gamma1 is None:
        gamma1 = gamma0

    gates: list[Gate] = [Gate("r", (theta / 2,), (0,))]
    half_diff = (gamma1 - gamma0) / 2
    if abs(half_diff) <= PREP_ATOL:
        gates.append(Gate("r", (gamma0,), (1,)))
    else:
        gates.append(Gate("r", ((gamma0 + gamma1) / 2,), (1,)))
        gates.append(Gate("cx", (), (0, 1)))
        gates.append(Gate("r", (-half_diff,), (1,)))
        gates.append(Gate("cx", (), (0, 1)))
    gates.append(Gate("cx", (), (0, 2)))
    gates.append(Gate("cx", (), (1, 3)))
    gates.append(Gate("h", (), (2,)))
    gates.append(Gate("cx", (), (2, 3)))
    return Circuit(n_qubits=4, gates=tuple(gates), qubit_names=PREP_QUBIT_NAMES)


# _FRONT_AXES[m]: the leading m axes, where _apply moves a gate's m targets.
_FRONT_AXES = ((), (0,), (0, 1))


def _apply(psi: np.ndarray, u: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Apply ``u`` to the qubits ``targets``, the first of them most significant in ``u``."""
    front = _FRONT_AXES[len(targets)]
    t = np.moveaxis(psi.reshape((2,) * n), targets, front)
    shape = t.shape
    t = (u @ t.reshape(u.shape[0], -1)).reshape(shape)
    return np.moveaxis(t, front, targets).reshape(-1)


def simulate_statevector(circ: Circuit, basis: int = 0) -> np.ndarray:
    """Apply the circuit's gates in order to the computational basis state ``basis``."""
    dim = 2**circ.n_qubits
    basis = operator.index(basis)
    if not 0 <= basis < dim:
        raise DimensionMismatchError(f"basis index {basis} out of range for dim {dim}")
    psi = np.zeros(dim, dtype=complex)
    psi[basis] = 1.0
    for g in circ.gates:
        psi = _apply(psi, g.matrix(), g.targets, circ.n_qubits)
    return psi


def prepared_state(spec: BdsSpec) -> DensityMatrix:
    """Simulate the preparation circuit and trace out the ancilla pair a, b."""
    circ = purification_circuit(spec)
    psi = simulate_statevector(circ)
    rho_full = np.outer(psi, psi.conj())
    rho_cd = qmath.partial_trace(rho_full, [2, 2, 2, 2], keep=(2, 3))
    return DensityMatrix(rho_cd, validate=False)


_PI_FRACTIONS = [1, 2, 3, 4, 6, 8]


def _format_angle(x: float) -> str:
    """Format an angle for QASM, using pi fractions when exact."""
    if abs(x) < 1e-12:
        return "0"
    for den in _PI_FRACTIONS:
        num = x * den / math.pi
        if abs(num - round(num)) < 1e-12 and round(num) != 0:
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
        index = int(key)
        if not 0 <= index < circ.n_qubits:
            raise InvalidLayoutError(f"logical qubit {index} is not in the register")
        return index

    if layout is None:
        if circ.n_qubits == 4 and circ.qubit_names == PREP_QUBIT_NAMES:
            phys = dict(DEFAULT_PREP_LAYOUT)
        else:
            phys = {i: i for i in range(circ.n_qubits)}
    else:
        phys = {logical_index(k): int(v) for k, v in layout.items()}
    missing = set(range(circ.n_qubits)) - set(phys)
    if missing:
        raise InvalidLayoutError(f"layout is missing logical qubits {sorted(missing)}")
    if len(set(phys.values())) != len(phys) or any(v < 0 for v in phys.values()):
        raise InvalidLayoutError(f"layout is not injective into physical indices: {phys}")

    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    lines.append(f"qreg q[{max(phys.values()) + 1}];")

    measured: list[tuple[int, str]] = []
    if measure_basis:
        for key, basis in measure_basis.items():
            b = basis.upper()
            if b not in _MEASUREMENT_PREFIX:
                raise InvalidLayoutError(f"unknown measurement basis {basis!r}")
            measured.append((logical_index(key), b))
        measured.sort()
        lines.append(f"creg c[{len(measured)}];")

    for g in circ.gates:
        q = [phys[t] for t in g.targets]
        if g.kind == "r":
            # R(x/2) is the native u3(x, 0, 0).
            lines.append(f"u3({_format_angle(2 * g.params[0])},0,0) q[{q[0]}];")
        elif g.kind == "h":
            lines.append(f"h q[{q[0]}];")
        else:
            lines.append(f"cx q[{q[0]}],q[{q[1]}];")

    for slot, (logical, basis) in enumerate(measured):
        for prefix in _MEASUREMENT_PREFIX[basis]:
            lines.append(f"{prefix} q[{phys[logical]}];")
        lines.append(f"measure q[{phys[logical]}] -> c[{slot}];")

    return "\n".join(lines) + "\n"


def circuit_to_json(circ: Circuit) -> str:
    """Serialize a circuit as ``{"n_qubits": n, "gates": [...]}``."""
    payload = {
        "n_qubits": circ.n_qubits,
        "gates": [
            {"kind": g.kind, "params": list(g.params), "targets": list(g.targets)}
            for g in circ.gates
        ],
    }
    return json.dumps(payload, indent=2)

