"""The input contract: public constructors and readers raise only ``BellDiagError``.

Every argument that comes from outside the package is drawn from one junk
strategy. A call may return, or raise a ``BellDiagError``; any other exception
escapes the contract. The functions that take a state get matrices held with
``validate=False``, junk included. The command line has its own twin: it exits
with 0, 2 or 3, and argparse's own usage errors count as exit 2.
"""

import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import belldiag as bd
from belldiag.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from belldiag.exceptions import BellDiagError
from belldiag.measures import bloch_decompose, mutual_information
from belldiag.tomography import SETTINGS, born_probabilities

SCALARS = st.one_of(
    st.text(max_size=6),
    st.binary(max_size=6),
    st.booleans(),
    st.none(),
    st.integers(),
    st.sampled_from([2**63, 2**64, 10**400, -(10**400), 1e308, -1e308]),
    st.floats(),
    st.complex_numbers(),
    # Valid names and bases, so that a call can get past its first check.
    st.sampled_from(["r", "h", "cx", "X", "Y", "Z", "a", "q0"]),
)
KEYS = st.one_of(st.sampled_from(["a", "b", "X", 0, 1, 3, None, True]), st.sampled_from(SETTINGS))
ARRAYS = st.one_of(
    hnp.arrays(
        st.sampled_from([np.bool_, np.int64, np.uint64, np.float64, np.complex128, np.dtype("U2"), np.dtype("S2")]),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    ),
    hnp.arrays(object, hnp.array_shapes(min_dims=0, max_dims=2, max_side=2), elements=SCALARS),
)
JUNK = st.recursive(
    SCALARS | ARRAYS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=8,
)

RHO = bd.werner(0.5)
CHANNEL = bd.composite_damping(0.3, 0.3)
PREP = bd.purification_circuit(bd.werner_spec(0.5))
# The preparation circuit, or one rotation by a finite angle; its u3 angle 2x overflows above about 9e307.
ANGLES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([1e308, -1e308])
CIRCUITS = st.just(PREP) | ANGLES.map(lambda x: bd.Circuit(1, (bd.Gate("r", (x,), (0,)),)))

# Each public callable and the strategies of its outside arguments. Where an
# argument is typed as one of the package's own records, it is fixed to a valid one.
FUZZED = {
    "BdsSpec": (bd.BdsSpec, JUNK, JUNK, JUNK, JUNK),
    "werner_spec": (bd.werner_spec, JUNK),
    "werner": (bd.werner, JUNK),
    "bell_state": (bd.bell_state, JUNK, JUNK),
    "DensityMatrix": (bd.DensityMatrix, JUNK, st.booleans()),
    "density_matrix_from_json": (bd.density_matrix_from_json, JUNK),
    "Gate": (bd.Gate, JUNK, JUNK, JUNK),
    "Circuit": (bd.Circuit, JUNK, JUNK, JUNK),
    "to_qasm": (bd.to_qasm, CIRCUITS, st.none() | JUNK, st.none() | JUNK),
    "composite_damping": (bd.composite_damping, JUNK, JUNK),
    "KrausChannel": (bd.KrausChannel, JUNK),
    "apply_channel": (lambda qubit: bd.apply_channel(CHANNEL, RHO, qubit), JUNK),
    "decohered_werner_sweep": (bd.decohered_werner_sweep, JUNK, JUNK, JUNK),
    "MeasurementSetting": (bd.MeasurementSetting, JUNK, JUNK),
    "TomographyCounts": (bd.TomographyCounts, JUNK, JUNK),
    "counts_from_json": (bd.counts_from_json, JUNK),
    "reconstruct": (bd.reconstruct, JUNK),
    "tomograph": (lambda shots, seed: bd.tomograph(RHO, shots, seed), JUNK, JUNK),
    "sample_counts": (lambda shots, seed: bd.sample_counts(RHO, shots, seed), JUNK, JUNK),
}
# Fuzzed apart, in ON_A_STATE below: these take only a DensityMatrix, the measures
# and fidelity among them, or a list of them (full_reports). sample_counts, tomograph
# and apply_channel, which take one as rho, are fuzzed above with a fixed state and
# below with a drawn one.
TAKES_A_DENSITY_MATRIX = (
    "full_report",
    "full_reports",
    "coherence_l1",
    "nonlocal_coherence",
    "discord_oz",
    "negativity",
    "steering",
    "nonlocality",
    "fidelity",
    "exact_correlations",
    "density_matrix_to_json",
)
# Not fuzzed either: these take another validated record (a BdsSpec, Circuit or
# TomographyCounts), or are an output record.
TAKES_ANOTHER_RECORD = (
    "bds_from_spec",
    "purification_circuit",
    "prepared_state",
    "simulate_statevector",
    "counts_to_json",
    "estimate_correlations",
    "ResourceReport",
    "ReconstructionResult",
)


@settings(derandomize=True, deadline=None, max_examples=600)
@given(name=st.sampled_from(sorted(FUZZED)), data=st.data())
def test_public_readers_raise_only_bell_diag_errors(name, data):
    # A new public callable is either fuzzed or named above as not fuzzed.
    public = {attr for attr in dir(bd) if not attr.startswith("_") and callable(getattr(bd, attr))}
    assert public == set(FUZZED) | set(TAKES_A_DENSITY_MATRIX) | set(TAKES_ANOTHER_RECORD)
    call, *strategies = FUZZED[name]
    args = data.draw(st.tuples(*strategies), label="args")
    try:
        call(*args)
    except BellDiagError:
        pass


# Each call that reads a state, on a drawn one; the other arguments are fixed and valid.
ON_A_STATE = {
    **{
        name: getattr(bd, name)
        for name in TAKES_A_DENSITY_MATRIX
        if name not in ("fidelity", "full_reports")
    },
    "full_reports": lambda rho: bd.full_reports([RHO, rho]),
    "mutual_information": mutual_information,
    "bloch_decompose": bloch_decompose,
    "fidelity": lambda rho: bd.fidelity(rho, RHO),
    "fidelity-reversed": lambda rho: bd.fidelity(RHO, rho),
    "born_probabilities": lambda rho: born_probabilities(rho, SETTINGS[4]),
    "sample_counts": lambda rho: bd.sample_counts(rho, 64, 1),
    "tomograph": lambda rho: bd.tomograph(rho, 0),
    "apply_channel": lambda rho: bd.apply_channel(CHANNEL, rho),
}
ENTRIES = st.complex_numbers(max_magnitude=3, allow_nan=False) | st.sampled_from([np.nan, np.inf, -np.inf, 1e308])


def hermitized(drawn: tuple[np.ndarray, bool]) -> np.ndarray:
    a, hermitize = drawn
    with np.errstate(all="ignore"):  # inf - inf and the like are part of the draw
        return a / 2 + a.conj().T / 2 if hermitize else a


STATE_MATRICES = st.tuples(hnp.arrays(complex, (4, 4), elements=ENTRIES), st.booleans()).map(hermitized)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(matrix=STATE_MATRICES)
def test_functions_of_a_state_raise_only_bell_diag_errors(matrix):
    # An unvalidated state is still finite, bounded and Hermitian, so every function of one
    # returns or refuses it; a NaN or a non-Hermitian matrix is refused when it is held.
    try:
        rho = bd.DensityMatrix(matrix, validate=False)
    except BellDiagError:
        return
    for call in ON_A_STATE.values():
        try:
            call(rho)
        except BellDiagError:
            pass


H = 10**5000  # over 4,300 digits, so that repr(H) raises ValueError
BITS = "an integer of 16610 bits"


# A message names such an integer by its bit length, and an outside container by its type.
@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: bd.TomographyCounts(4, {s: (H, 0, 0, 0) for s in SETTINGS}), f"sum to {BITS}"),
        (lambda: bd.TomographyCounts(4, H), "got int"),
        (lambda: bd.TomographyCounts(4, {(H,): (4, 0, 0, 0)}), "extra [a tuple]"),
        (lambda: bd.Gate(H), f"kind {BITS}"),
        (lambda: bd.Gate("r", H, (0,)), "got int and tuple"),
        (lambda: bd.Circuit(2, H), "got int and tuple"),
        (lambda: bd.Circuit(2, (H,)), "got ['int']"),
        (lambda: bd.Circuit(2, (), H), "got tuple and int"),
        (lambda: bd.Circuit(2, (), (H, 1)), "got ['int', 'int']"),
        (lambda: bd.Circuit(2, (bd.Gate("h", (), (H,)),)), f"got {BITS}"),
        (lambda: bd.KrausChannel(H), f"got {BITS}"),
        (lambda: bd.decohered_werner_sweep(0.1, 0.1, H), "got int"),
        (lambda: bd.MeasurementSetting(H, "X"), f"got {BITS}, 'X'"),
        (lambda: bd.MeasurementSetting([H], "X"), "got a list, 'X'"),
        (lambda: bd.to_qasm(PREP, layout=H), "got int"),
        (lambda: bd.to_qasm(PREP, measure_basis={0: H}), f"basis {BITS}"),
        # Each index is bounded as it is read, so a huge one never reaches the injectivity check.
        (lambda: bd.to_qasm(PREP, layout={"a": H, "b": H, "c": 1, "d": 2}), f"a physical qubit must be in [0, 65535], got {BITS}"),
        (lambda: bd.to_qasm(PREP, layout={"a": H, "b": 0, "c": 1, "d": 2}), f"a physical qubit must be in [0, 65535], got {BITS}"),
    ],
    ids=[
        "counts-row",
        "counts-not-a-mapping",
        "counts-extra-setting",
        "gate-kind",
        "gate-params",
        "circuit-gates",
        "circuit-gate-item",
        "circuit-names",
        "circuit-name-item",
        "circuit-gate-target",
        "kraus-operators",
        "sweep-grid",
        "setting-basis",
        "setting-basis-list",
        "qasm-layout",
        "qasm-measure-basis",
        "qasm-layout-not-injective",
        "qasm-register-size",
    ],
)
def test_messages_name_huge_integers_without_repr(call, shown):
    with pytest.raises(BellDiagError, match=re.escape(shown)):
        call()


NUMBER_TEXT = st.one_of(st.floats().map(repr), st.integers().map(str), st.text(max_size=4))
NUMBER_LISTS = st.one_of(
    st.lists(NUMBER_TEXT, min_size=1, max_size=5).map(",".join),
    st.sampled_from(["0.1,0.2,0.3,0.4", "0.3,0.3", "1e400,0,0,0"]),
)
LAYOUTS = st.one_of(
    st.text(max_size=12),
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "d", "x", ""]), NUMBER_TEXT).map(":".join),
        min_size=1,
        max_size=5,
    ).map(",".join),
)
ARGV = st.one_of(
    st.tuples(st.sampled_from(["measure", "tomograph"]), st.binary(max_size=64)),
    st.tuples(st.just("prepare"), NUMBER_LISTS.map("--p={}".format), LAYOUTS.map("--layout={}".format)),
    st.tuples(st.just("prepare"), NUMBER_TEXT.map("--werner={}".format), LAYOUTS.map("--layout={}".format)),
    st.tuples(
        st.just("sweep"),
        st.integers(-1, 3).map("--points={}".format),
        st.integers(-1, 64).map("--shots={}".format),
        st.one_of(NUMBER_LISTS.map("--p={}".format), NUMBER_LISTS.map("--noise={}".format)),
    ),
)


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "input.json"


@settings(derandomize=True, deadline=None, max_examples=150)
@given(argv=ARGV)
def test_cli_exits_0_2_or_3(input_file, argv):
    command, *rest = argv
    if command in ("measure", "tomograph"):
        input_file.write_bytes(rest[0])
        rest = [str(input_file)]
    elif command == "prepare":
        rest.append("--qasm")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([command, *rest])
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_IO), err.getvalue()
