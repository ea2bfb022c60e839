"""Checks of the program's outputs against references computed apart from it.

Every check returns a list of problems; an empty list means the output
passed. The references are the closed forms and definitions in
``reference`` and the brute-force oracles in ``tests/oracles.py``, which
the caller puts on ``sys.path``.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
from oracles import (
    apply_channel_superoperator,
    discord_grid_oracle,
    mutual_information_definitional,
    negativity_bruteforce,
)

import reference as ref

CSV_HEADER = "w,F,C,D,E,S,N,C_th,D_th,E_th,S_th,N_th"
COLUMN = {name: i for i, name in enumerate(CSV_HEADER.split(","))}
MEASURED = ("C", "D", "E", "S", "N")

# CSV values carry six decimals, so a printed value is within 5e-7 of the true one.
CSV_ATOL = 1e-6
# Criterion 2 bounds the sweep's discord error by 1e-4.
DISCORD_THEORY_ATOL = 1e-4
# Reported measures against brute-force recomputation in double precision.
MEASURE_ATOL = 1e-9
# Round trips and preparation against their exact targets (criterion 1).
STATE_ATOL = 1e-10

# The dense-grid discord oracle runs at 2 degree spacing. Its maximum of the
# measured mutual information can only fall short of the true maximum, by at
# most ~1e-4 at this spacing; the package's grid plus refinement may not
# exceed the oracle's discord by more than round-off.
ORACLE_GRID = (91, 181)
ORACLE_BELOW_ATOL = 5e-4
ORACLE_ABOVE_ATOL = 1e-6

# Criterion 4: 8192-shot fidelities.
FIDELITY_MEDIAN_MIN = 0.99
FIDELITY_MIN = 0.97

# Criterion 6 counts a measure as positive above this floor.
CHAIN_FLOOR = 1e-9
# In the six-decimal CSV a measure counts as positive from 1e-5 on, so that
# a true value just above zero that prints as 0.000000 cannot break the chain.
CSV_CHAIN_FLOOR = 1e-5


def _close(label: str, got: float, want: float, atol: float) -> list[str]:
    if not math.isfinite(got) or abs(got - want) > atol:
        return [f"{label}: got {got!r}, expected {want!r} (atol {atol:g})"]
    return []


def _matrix_close(label: str, got: np.ndarray, want: np.ndarray, atol: float) -> list[str]:
    err = float(np.max(np.abs(got - want)))
    if not err <= atol:
        return [f"{label}: max entry error {err:.3e} exceeds {atol:g}"]
    return []


def chain_problems(label: str, chain, floor: float) -> list[str]:
    """N > 0 => S > 0 => E > 0 => D > 0 => C > 0, for chain = (N, S, E, D, C)."""
    names = ("N", "S", "E", "D", "C")
    return [
        f"{label}: {names[i]} = {upper!r} > 0 but {names[i + 1]} = {lower!r}"
        for i, (upper, lower) in enumerate(zip(chain, chain[1:]))
        if upper > floor and not lower > 0.0
    ]


def state_problems(label: str, m: np.ndarray) -> list[str]:
    """Unit trace, Hermitian and positive semidefinite."""
    problems = _close(f"{label} trace", float(np.trace(m).real), 1.0, STATE_ATOL)
    problems += _close(f"{label} trace imaginary part", float(np.trace(m).imag), 0.0, STATE_ATOL)
    defect = float(np.max(np.abs(m - m.conj().T)))
    if not defect <= STATE_ATOL:
        return problems + [f"{label}: not Hermitian, max |m - m+| = {defect:.3e}"]
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if not min_eig >= -STATE_ATOL:
        problems.append(f"{label}: not PSD, min eigenvalue {min_eig:.3e}")
    return problems


def discord_oracle(rho: np.ndarray) -> float:
    return discord_grid_oracle(rho, *ORACLE_GRID)


def discord_oracle_problems(label: str, discord: float, oracle: float) -> list[str]:
    if not oracle - ORACLE_BELOW_ATOL <= discord <= oracle + ORACLE_ABOVE_ATOL:
        return [f"{label}: discord {discord!r} does not match the dense-grid oracle {oracle!r}"]
    return []


def report_problems(label: str, values: dict, rho: np.ndarray) -> list[str]:
    """Check a ``full_report`` dict against brute-force values for ``rho``."""
    s_ref, n_ref = ref.steering_and_nonlocality(rho)
    problems = _close(f"{label} coherence_l1", values["coherence_l1"], ref.l1_coherence(rho), MEASURE_ATOL)
    problems += _close(
        f"{label} nonlocal_coherence", values["nonlocal_coherence"], ref.nonlocal_coherence(rho), MEASURE_ATOL
    )
    problems += _close(f"{label} negativity", values["negativity"], negativity_bruteforce(rho), MEASURE_ATOL)
    problems += _close(f"{label} steering", values["steering"], s_ref, MEASURE_ATOL)
    problems += _close(f"{label} nonlocality", values["nonlocality"], n_ref, MEASURE_ATOL)
    discord = values["discord"]
    mutual = mutual_information_definitional(rho)
    if not -MEASURE_ATOL <= discord <= mutual + MEASURE_ATOL:
        problems.append(f"{label}: discord {discord!r} outside [0, I = {mutual!r}]")
    chain = (
        values["nonlocality"],
        values["steering"],
        values["negativity"],
        discord,
        max(0.0, values["nonlocal_coherence"]),
    )
    return problems + chain_problems(label, chain, CHAIN_FLOOR)


def _state_from_doc(doc: dict) -> np.ndarray:
    return np.array(doc["re"], dtype=float) + 1j * np.array(doc["im"], dtype=float)


# ---------------------------------------------------------------- prepare


_ANGLE = re.compile(r"^(-?)(?:(\d+)\*)?pi(?:/(\d+))?$")


def _qasm_angle(text: str) -> float:
    m = _ANGLE.match(text)
    if m is None:
        return float(text)
    sign, num, den = m.groups()
    value = int(num or 1) * math.pi / int(den or 1)
    return -value if sign else value


def simulate_qasm(qasm: str) -> tuple[np.ndarray, int]:
    """State vector of the u3(theta,0,0)/h/cx program, and its register size."""
    n = int(re.search(r"qreg q\[(\d+)\];", qasm).group(1))
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    h = np.array([[1, 1], [1, -1]], dtype=complex) / ref.SQRT2
    for line in qasm.splitlines():
        m = re.match(r"^u3\(([^,]+),0,0\) q\[(\d+)\];$", line)
        if m:
            x = _qasm_angle(m.group(1)) / 2
            ry = np.array([[math.cos(x), -math.sin(x)], [math.sin(x), math.cos(x)]], dtype=complex)
            psi = _apply(psi, ry, (int(m.group(2)),), n)
            continue
        m = re.match(r"^h q\[(\d+)\];$", line)
        if m:
            psi = _apply(psi, h, (int(m.group(1)),), n)
            continue
        m = re.match(r"^cx q\[(\d+)\],q\[(\d+)\];$", line)
        if m:
            cx = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
            psi = _apply(psi, cx, (int(m.group(1)), int(m.group(2))), n)
            continue
        if line and not line.startswith(("OPENQASM", "include", "qreg")):
            raise ValueError(f"unexpected QASM line {line!r}")
    return psi, n


def _apply(psi: np.ndarray, u: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    t = np.moveaxis(psi.reshape([2] * n), targets, range(len(targets)))
    shape = t.shape
    t = (u @ t.reshape(2 ** len(targets), -1)).reshape(shape)
    return np.moveaxis(t, range(len(targets)), targets).reshape(-1)


def prepare_problems(text: str, w: float) -> list[str]:
    """``prepare --werner w --qasm``: the JSON state and the QASM both give the Werner state."""
    doc_text, _, qasm = text.partition("\n\n")
    doc = json.loads(doc_text)
    probs = np.array(doc["probabilities"], dtype=float)
    problems = _matrix_close("prepare probabilities", probs, ref.werner_probabilities(w), 1e-12)
    problems += _close(
        "prepare cos^2(theta/2)", math.cos(doc["theta"] / 2) ** 2, probs[0] + probs[1], 1e-12
    )
    problems += _matrix_close("prepare state", _state_from_doc(doc["state"]), ref.werner_matrix(w), STATE_ATOL)
    if not qasm.startswith("OPENQASM 2.0;"):
        return problems + ["prepare: no OpenQASM 2.0 program after the JSON document"]
    # Default hardware layout a:1, b:3, c:2, d:4; the Bell pair is (c, d) = (q2, q4).
    psi, n = simulate_qasm(qasm)
    t = np.moveaxis(psi.reshape([2] * n), (2, 4), (0, 1)).reshape(4, -1)
    return problems + _matrix_close("prepare QASM state", t @ t.conj().T, ref.werner_matrix(w), STATE_ATOL)


# ---------------------------------------------------------------- measure / tomograph


def measure_problems(text: str, rho: np.ndarray, discord_ref: float) -> list[str]:
    """``measure STATE``: diagnostics and measures of the stored state."""
    doc = json.loads(text)
    diag = doc["diagnostics"]
    problems = [] if doc["n_qubits"] == 2 else [f"measure: n_qubits {doc['n_qubits']}"]
    problems += _close("measure trace", diag["trace"], float(np.trace(rho).real), MEASURE_ATOL)
    problems += _close("measure hermiticity_defect", diag["hermiticity_defect"], 0.0, MEASURE_ATOL)
    problems += _close(
        "measure min_eigenvalue", diag["min_eigenvalue"], float(np.linalg.eigvalsh(rho)[0]), MEASURE_ATOL
    )
    problems += report_problems("measure", doc["measures"], rho)
    return problems + discord_oracle_problems("measure", doc["measures"]["discord"], discord_ref)


def expected_reconstruction(counts: dict, shots: int) -> tuple[np.ndarray, bool]:
    return ref.project_physical(ref.linear_inversion(counts, shots))


def tomograph_problems(text: str, expected: np.ndarray, projected: bool, discord_ref: float) -> list[str]:
    """``tomograph COUNTS``: the state is the benchmark's own linear inversion."""
    doc = json.loads(text)
    state = _state_from_doc(doc["state"])
    problems = state_problems("tomograph state", state)
    problems += _matrix_close("tomograph state vs linear inversion", state, expected, STATE_ATOL)
    if doc["projected"] != projected:
        problems.append(f"tomograph: projected = {doc['projected']}, expected {projected}")
    problems += report_problems("tomograph", doc["measures"], state)
    return problems + discord_oracle_problems("tomograph", doc["measures"]["discord"], discord_ref)


# ---------------------------------------------------------------- sweeps


def parse_sweep(text: str, points: int) -> tuple[np.ndarray, list[str]]:
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "" or len(lines) != points + 2:
        return np.zeros((0, len(COLUMN))), [f"sweep: expected header and {points} rows"]
    data = np.array([[float(x) for x in row.split(",")] for row in lines[1:-1]])
    grid = np.linspace(0.0, 1.0, points)
    return data, _matrix_close("sweep w column", data[:, COLUMN["w"]], grid, CSV_ATOL)


def _theory_problems(data: np.ndarray) -> list[str]:
    problems = []
    for row in data:
        w = row[COLUMN["w"]]
        for name, value in ref.werner_closed_forms(w).items():
            problems += _close(f"sweep w={w:.2f} {name}_th", row[COLUMN[name + "_th"]], value, CSV_ATOL)
        luo = ref.luo_discord(ref.werner_matrix(w))
        problems += _close(f"sweep w={w:.2f} D_th", row[COLUMN["D_th"]], luo, DISCORD_THEORY_ATOL)
    return problems


def _chain_of(row: np.ndarray, suffix: str = "") -> list[float]:
    return [row[COLUMN[name + suffix]] for name in ("N", "S", "E", "D", "C")]


def sweep_problems(text: str, points: int) -> list[str]:
    """Sampled Werner sweep: closed-form theory, hierarchy on every row, F >= 0.97."""
    data, problems = parse_sweep(text, points)
    if problems:
        return problems
    problems += _theory_problems(data)
    for row in data:
        label = f"sweep w={row[COLUMN['w']]:.2f}"
        problems += chain_problems(label, _chain_of(row), CSV_CHAIN_FLOOR)
        problems += chain_problems(label + " theory", _chain_of(row, "_th"), CSV_CHAIN_FLOOR)
        if not FIDELITY_MIN <= row[COLUMN["F"]] <= 1.0:
            problems.append(f"{label}: fidelity {row[COLUMN['F']]} below {FIDELITY_MIN}")
    return problems


def steering_after_damping(a: float, p: float) -> float:
    """Steering of the damped singlet: T = diag(r, r, 1 - a), r = sqrt((1 - p)(1 - a))."""
    norm = math.sqrt(2 * (1 - p) * (1 - a) + (1 - a) ** 2)
    return max(0.0, (norm - 1.0) / (ref.SQRT3 - 1.0))


def _fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = np.linalg.eigvalsh(root @ sigma @ root)
    return float(np.sum(np.sqrt(np.clip(inner, 0.0, None))))


def noisy_sweep_problems(text: str, points: int, a: float, p: float) -> list[str]:
    """Exact sweep after damping qubit a: N = 0, S(1) closed form, measures fall, brute force agrees."""
    data, problems = parse_sweep(text, points)
    if problems:
        return problems
    problems += _theory_problems(data)
    kraus = ref.damping_kraus(a, p)
    for row in data:
        w = row[COLUMN["w"]]
        label = f"noisy sweep w={w:.2f}"
        if row[COLUMN["N"]] != 0.0:
            problems.append(f"{label}: N = {row[COLUMN['N']]}, expected 0")
        for name in MEASURED:
            if row[COLUMN[name]] > row[COLUMN[name + "_th"]] + CSV_ATOL:
                problems.append(f"{label}: {name} exceeds its noiseless value")
        damped = apply_channel_superoperator(kraus, ref.werner_matrix(w), 0, 2)
        s_ref, n_ref = ref.steering_and_nonlocality(damped)
        problems += _close(f"{label} F", row[COLUMN["F"]], _fidelity(damped, ref.werner_matrix(w)), CSV_ATOL)
        problems += _close(f"{label} C", row[COLUMN["C"]], ref.nonlocal_coherence(damped), CSV_ATOL)
        problems += _close(f"{label} E", row[COLUMN["E"]], negativity_bruteforce(damped), CSV_ATOL)
        problems += _close(f"{label} S", row[COLUMN["S"]], s_ref, CSV_ATOL)
        problems += _close(f"{label} N", row[COLUMN["N"]], n_ref, CSV_ATOL)
    last = data[-1]
    if last[COLUMN["w"]] == 1.0:
        problems += _close("noisy sweep S(1)", last[COLUMN["S"]], steering_after_damping(a, p), CSV_ATOL)
    return problems


# ---------------------------------------------------------------- tomography round trips


def roundtrip_problems(
    label: str,
    recon: np.ndarray,
    projected: bool,
    fidelity: float,
    target: np.ndarray,
    state: np.ndarray,
    counts: dict | None,
    shots: int,
) -> list[str]:
    """One round trip; ``counts`` is None in exact mode."""
    problems = state_problems(label, recon)
    problems += _matrix_close(f"{label} input vs target", state, target, STATE_ATOL)
    if not 0.0 <= fidelity <= 1.0:
        problems.append(f"{label}: fidelity {fidelity!r} outside [0, 1]")
    if counts is None:
        problems += _matrix_close(f"{label} exact round trip", recon, state, STATE_ATOL)
        return problems + _close(f"{label} exact fidelity", fidelity, 1.0, 1e-6)
    expected, want_projected = expected_reconstruction(counts, shots)
    problems += _matrix_close(f"{label} vs linear inversion", recon, expected, STATE_ATOL)
    if projected != want_projected:
        problems.append(f"{label}: projected = {projected}, expected {want_projected}")
    return problems


def fidelity_stats_problems(label: str, fidelities) -> list[str]:
    f = np.asarray(fidelities, dtype=float)
    if f.size and (np.median(f) < FIDELITY_MEDIAN_MIN or np.min(f) < FIDELITY_MIN):
        return [f"{label}: median fidelity {np.median(f):.4f}, min {np.min(f):.4f}"]
    return []
