from functools import reduce

import numpy as np
import pytest
from helpers import counting, product_spec, random_product_spec, random_spec
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import qasm_reduced_state

import belldiag as bd
from belldiag import qmath
from belldiag.circuit import (
    MAX_PHYSICAL_QUBITS,
    MAX_QUBITS,
    Circuit,
    Gate,
    _format_angle,
    purification_circuit,
    to_qasm,
)
from belldiag.exceptions import (
    DimensionMismatchError,
    InvalidLayoutError,
    OutOfRangeError,
)
from belldiag.states import bell_state_vector


class TestGates:
    @pytest.mark.parametrize(
        "gate",
        [
            Gate("r", (0.37,), (0,)),
            Gate("h", (), (0,)),
            Gate("r", (-2.1,), (1,)),
            Gate("cx", (), (1, 0)),
            Gate("cx", (), (0, 1)),
        ],
    )
    def test_unitarity(self, gate):
        u = gate.matrix()
        np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-12)

    def test_r_matches_u3(self):
        # R(x/2) equals the hardware gate u3(x, 0, 0) that to_qasm emits for it.
        def u3(theta, phi, lam):
            c, s = np.cos(theta / 2), np.sin(theta / 2)
            return np.array(
                [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (lam + phi)) * c]]
            )

        for x in (0.3, 1.9, np.pi):
            gate = Gate("r", (x / 2,), (0,))
            assert f"u3({_format_angle(x)},0,0) q[0];" in to_qasm(Circuit(1, (gate,)))
            np.testing.assert_allclose(gate.matrix(), u3(x, 0.0, 0.0), atol=1e-12)

    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            Gate("swap", (), (0, 1))
        for kind in (np.array(["r", "h"]), np.array(["h"]), None):
            with pytest.raises(OutOfRangeError):
                Gate(kind, (), (0,))
        with pytest.raises(OutOfRangeError):
            Gate("r", (), (0,))
        with pytest.raises(OutOfRangeError):
            Gate("cx", (), (1, 1))
        # Each kind's parameter and target counts, named in the message.
        for kind, params, targets, message in (
            ("h", (0.1,), (0,), r"h takes 0 parameter\(s\)"),
            ("r", (0.1, 0.2), (0,), r"r takes 1 parameter\(s\)"),
            ("cx", (), (0,), r"cx takes 2 distinct target\(s\)"),
            ("h", (), (0, 1), r"h takes 1 distinct target\(s\)"),
        ):
            with pytest.raises(OutOfRangeError, match=message):
                Gate(kind, params, targets)
        with pytest.raises(DimensionMismatchError):
            Circuit(n_qubits=1, gates=(Gate("h", (), (3,)),))
        for gate in (Gate("h", (), (-1,)), Gate("cx", (), (-1, 1))):
            with pytest.raises(DimensionMismatchError):
                Circuit(n_qubits=2, gates=(gate,))
        # A non-finite or non-numeric angle and a non-integer target are rejected, not simulated.
        for bad in (np.nan, np.inf, -np.inf, "x", None, "0.5", True, b"1", 10**400, 1j):
            with pytest.raises(OutOfRangeError):
                Gate("r", (bad,), (0,))
        for targets in ((1.7,), (1.0,), ("1",), (True,), 1):
            with pytest.raises(OutOfRangeError):
                Gate("h", (), targets)
        assert Gate("cx", (), (np.int64(1), 0)).targets == (1, 0)
        # The register size is an integer of at least 1: 2.0 would fail in simulate_statevector,
        # True would be one qubit, and 0 would fail in to_qasm.
        for n, names in ((1.5, ()), (2.0, ("a", "b")), (True, ()), (0, ()), (-1, ()), ("2", ())):
            with pytest.raises(DimensionMismatchError):
                Circuit(n, (), names)
        assert Circuit(np.int64(2), ()).qubit_names == ("q0", "q1")
        # At most MAX_QUBITS qubits, checked before a default name is built.
        with pytest.raises(DimensionMismatchError):
            Circuit(MAX_QUBITS + 1, ())
        assert len(Circuit(MAX_QUBITS, ()).qubit_names) == MAX_QUBITS
        # Gates and qubit names are collections of Gate and of str.
        for gates, names in ((5, ()), ((), 5), ((5,), ()), (None, ())):
            with pytest.raises(OutOfRangeError):
                Circuit(4, gates, names)
        with pytest.raises(InvalidLayoutError):
            Circuit(2, (), (1, 2))
        with pytest.raises(DimensionMismatchError, match="qubit_names length"):
            Circuit(2, (), ("a",))


def rotation_angles(spec: bd.BdsSpec) -> tuple[float, float]:
    """Twice the angles of the first two gates: theta on qubit a, then the first rotation of b."""
    gates = purification_circuit(spec).gates
    return 2 * gates[0].params[0], 2 * gates[1].params[0]


class TestAngles:
    """The rotation angles that the preparation circuit puts on qubits a and b."""

    def test_examples(self):
        assert rotation_angles(bd.BdsSpec(1, 0, 0, 0)) == pytest.approx((0.0, 0.0))
        assert rotation_angles(bd.BdsSpec(0, 0, 0, 1)) == pytest.approx((np.pi, np.pi))
        assert rotation_angles(bd.BdsSpec(0.25, 0.25, 0.25, 0.25)) == pytest.approx(
            (np.pi / 2, np.pi / 2)
        )

    def test_probs_from_angles_examples(self):
        # Six gates with R(theta/2) on a and R(alpha/2) on b prepare product_spec(theta, alpha).
        for (theta, alpha), want in [
            ((0, 0), [1, 0, 0, 0]),
            ((np.pi / 2, 0), [0.5, 0, 0.5, 0]),
            ((np.pi / 2, np.pi / 2), [0.25] * 4),
        ]:
            spec = product_spec(theta, alpha)
            np.testing.assert_allclose(spec.probabilities, want, atol=1e-15)
            gates = (
                Gate("r", (theta / 2,), (0,)),
                Gate("r", (alpha / 2,), (1,)),
                Gate("cx", (), (0, 2)),
                Gate("cx", (), (1, 3)),
                Gate("h", (), (2,)),
                Gate("cx", (), (2, 3)),
            )
            psi = bd.simulate_statevector(Circuit(4, gates))
            rho_cd = qmath.partial_trace(np.outer(psi, psi.conj()), [2] * 4, keep=(2, 3))
            np.testing.assert_allclose(rho_cd, bd.bds_from_spec(spec).matrix, atol=1e-15)

    def test_angles_round_trip_from_angles(self, rng):
        for _ in range(100):
            theta, alpha = rng.uniform(0, np.pi), rng.uniform(0, np.pi)
            back = rotation_angles(product_spec(theta, alpha))
            assert back == pytest.approx((theta, alpha), abs=1e-9)

    def test_angles_stay_in_range(self, rng):
        for _ in range(100):
            gates = purification_circuit(random_spec(rng)).gates
            assert 0.0 <= 2 * gates[0].params[0] <= np.pi
            assert all(abs(g.params[0]) <= np.pi / 2 for g in gates if g.kind == "r")

    def test_probs_round_trip_on_product_specs(self, rng):
        # The two rotations parametrize exactly the product-form specs, so the
        # angles read off the circuit give back the spec.
        for _ in range(100):
            spec = random_product_spec(rng)
            back = product_spec(*rotation_angles(spec))
            np.testing.assert_allclose(back.probabilities, spec.probabilities, atol=1e-12)


class TestBuildBdsCircuit:
    """The preparation circuit on the product-form specs that an angle pair names."""

    def test_six_gates_in_order(self):
        circ = purification_circuit(product_spec(0.8, 0.4))
        assert [g.kind for g in circ.gates] == ["r", "r", "cx", "cx", "h", "cx"]
        assert [g.targets for g in circ.gates] == [(0,), (1,), (0, 2), (1, 3), (2,), (2, 3)]
        assert circ.gates[0].params[0] == pytest.approx(0.4, abs=1e-12)
        assert circ.gates[1].params[0] == pytest.approx(0.2, abs=1e-12)

    def test_zero_angles_yield_bell_00(self):
        spec = product_spec(0, 0)
        psi = bd.simulate_statevector(purification_circuit(spec))
        expected = np.kron(np.eye(4)[0], bell_state_vector(0, 0))
        assert abs(np.vdot(expected, psi)) == pytest.approx(1.0, abs=1e-12)

    def test_pi_angles_yield_bell_11(self):
        spec = product_spec(np.pi, np.pi)
        psi = bd.simulate_statevector(purification_circuit(spec))
        expected = np.kron(np.eye(4)[3], bell_state_vector(1, 1))
        assert abs(np.vdot(expected, psi)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "spec, built", [(product_spec(0.8, 0.4), 2), (bd.werner_spec(0.5), 3)], ids=["product", "general"]
    )
    def test_only_rotations_are_built_per_spec(self, monkeypatch, spec, built):
        # The CNOTs and the H are module constants, checked once; a spec adds only its R gates.
        calls = counting(monkeypatch, Gate, "__post_init__")
        circ = purification_circuit(spec)
        assert len(calls) == built == sum(g.kind == "r" for g in circ.gates)


class TestSimulator:
    def test_empty_circuit(self):
        circ = Circuit(n_qubits=2, gates=())
        np.testing.assert_array_equal(bd.simulate_statevector(circ), np.eye(4)[0])

    def test_hadamard(self):
        circ = Circuit(n_qubits=1, gates=(Gate("h", (), (0,)),))
        np.testing.assert_allclose(
            bd.simulate_statevector(circ), np.array([1, 1]) / np.sqrt(2), atol=1e-15
        )

    def test_norm_preserved(self, rng):
        spec = random_spec(rng)
        psi = bd.simulate_statevector(purification_circuit(spec))
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_reference(self, rng):
        # Each gate as a full 2**n matrix of one-qubit factors, qubit 0 leftmost; cx from projectors on its control.
        p0, p1, x = np.diag([1, 0]), np.diag([0, 1]), np.array([[0, 1], [1, 0]])

        def dense(n, factors):
            return reduce(np.kron, [factors.get(q, np.eye(2)) for q in range(n)])

        control_first = set()
        for _ in range(300):
            n = int(rng.integers(1, 7))
            gates, want = [], np.eye(2**n, dtype=complex)[0]
            for _ in range(int(rng.integers(1, 16))):
                kind = str(rng.choice(("r", "h", "cx") if n > 1 else ("r", "h")))
                if kind == "cx":
                    c, t = (int(q) for q in rng.choice(n, 2, replace=False))
                    control_first.add(c < t)
                    gate = Gate("cx", (), (c, t))
                    u = dense(n, {c: p0}) + dense(n, {c: p1, t: x})
                else:
                    q = int(rng.integers(n))
                    gate = Gate(kind, (float(rng.uniform(-np.pi, np.pi)),) if kind == "r" else (), (q,))
                    u = dense(n, {q: gate.matrix()})
                gates.append(gate)
                want = u @ want
            got = bd.simulate_statevector(Circuit(n, tuple(gates)))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert control_first == {True, False}

    def test_cnot_control_first_convention(self):
        # control on the higher index still acts as control; r(pi/2) on
        # qubit 1 first gives |01>, so control qubit 1 is set
        gates = (Gate("r", (np.pi / 2,), (1,)), Gate("cx", (), (1, 0)))
        psi = bd.simulate_statevector(Circuit(n_qubits=2, gates=gates))
        expected = np.zeros(4)
        expected[3] = 1.0  # target qubit 0 flips -> |11>
        np.testing.assert_allclose(psi, expected, atol=1e-15)


@st.composite
def boundary_specs(draw) -> bd.BdsSpec:
    """Specs on a face, edge or vertex of the simplex: one, two or three exact zeros."""
    zeros = draw(st.sets(st.integers(0, 3), min_size=1, max_size=3))
    weights = [0.0 if i in zeros else draw(st.floats(1e-3, 1.0)) for i in range(4)]
    return bd.BdsSpec(*(w / sum(weights) for w in weights))


class TestPreparedState:
    def test_pure_and_mixed_anchors(self):
        for spec, want in [
            (bd.BdsSpec(1, 0, 0, 0), bd.bell_state(0, 0).matrix),
            (bd.BdsSpec(0, 0, 0, 1), bd.bell_state(1, 1).matrix),
            (bd.BdsSpec(0.25, 0.25, 0.25, 0.25), np.eye(4) / 4),
        ]:
            np.testing.assert_allclose(bd.prepared_state(spec).matrix, want, atol=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(spec=boundary_specs())
    def test_matches_constructor_on_simplex_boundary(self, spec):
        got = bd.prepared_state(spec)
        assert np.max(np.abs(got.matrix - bd.bds_from_spec(spec).matrix)) < 1e-10
        p = spec.probabilities
        if p[0] + p[1] == 0 or p[2] + p[3] == 0:
            # An empty row takes the other row's angle, so b's rotation stays unconditional.
            assert len(purification_circuit(spec).gates) == 6

    def test_werner_grid(self):
        for w in np.linspace(0, 1, 11):
            got = bd.prepared_state(bd.werner_spec(float(w)))
            np.testing.assert_allclose(got.matrix, bd.werner(float(w)).matrix, atol=1e-10)

    def test_matches_constructor_on_random_specs(self, rng):
        for i in range(200):
            spec = random_spec(rng)
            if i % 4 == 0:  # every fourth spec empties row j = 0 or j = 1
                p = spec.probabilities.copy()
                p.reshape(2, 2)[i // 4 % 2] = 0.0
                spec = bd.BdsSpec(*(p / p.sum()))
            got = bd.prepared_state(spec)
            want = bd.bds_from_spec(spec)
            assert np.max(np.abs(got.matrix - want.matrix)) < 1e-10
            # The generic partial trace of |psi><psi| checks the contraction from outside.
            psi = bd.simulate_statevector(purification_circuit(spec))
            reference = qmath.partial_trace(np.outer(psi, psi.conj()), [2] * 4, keep=(2, 3))
            assert np.max(np.abs(got.matrix - reference)) <= 1e-15

    def test_no_generic_partial_trace(self, monkeypatch):
        # rho_cd is one contraction of psi over a, b; the 16x16 |psi><psi| is never built.
        calls = counting(monkeypatch, qmath, "partial_trace")
        outer = counting(monkeypatch, np, "outer")
        for spec in (bd.werner_spec(0.5), bd.BdsSpec(0, 0, 0.3, 0.7), random_product_spec(np.random.default_rng(1))):
            bd.prepared_state(spec)
        assert calls == [] and outer == []

    def test_bell_diagonal_structure(self, rng):
        basis = np.column_stack(
            [bell_state_vector(j, k) for j in (0, 1) for k in (0, 1)]
        )
        for _ in range(200):
            spec = random_spec(rng)
            in_bell = basis.conj().T @ bd.prepared_state(spec).matrix @ basis
            off = in_bell - np.diag(np.diag(in_bell))
            assert np.max(np.abs(off)) < 1e-10
            np.testing.assert_allclose(np.diag(in_bell).real, spec.probabilities, atol=1e-10)

    def test_purification_marginal_is_diagonal(self, rng):
        for _ in range(50):
            spec = random_spec(rng)
            psi = bd.simulate_statevector(purification_circuit(spec))
            rho_ab = qmath.partial_trace(np.outer(psi, psi.conj()), [2] * 4, keep=(0, 1))
            off = rho_ab - np.diag(np.diag(rho_ab))
            assert np.max(np.abs(off)) < 1e-12
            np.testing.assert_allclose(np.diag(rho_ab).real, spec.probabilities, atol=1e-12)

    def test_product_specs_use_six_gates(self, rng):
        for _ in range(20):
            circ = purification_circuit(random_product_spec(rng))
            assert [g.kind for g in circ.gates] == ["r", "r", "cx", "cx", "h", "cx"]
            assert [g.targets for g in circ.gates] == [(0,), (1,), (0, 2), (1, 3), (2,), (2, 3)]
        assert len(purification_circuit(bd.werner_spec(0.5)).gates) == 9


class TestQasm:
    def test_exported_qasm_prepares_the_spec(self, rng):
        # p01 != p10 in each named spec: two product-form ones, one that is not,
        # and three with an empty row of the (j, k) table.
        specs = [
            bd.BdsSpec(0.42, 0.18, 0.28, 0.12),
            bd.BdsSpec(0.6, 0.0, 0.4, 0.0),
            bd.BdsSpec(0.1, 0.2, 0.3, 0.4),
            bd.BdsSpec(0.0, 0.0, 0.3, 0.7),
            bd.BdsSpec(0.0, 0.0, 1.0, 0.0),
            bd.BdsSpec(0.5, 0.5, 0.0, 0.0),
        ]
        specs += [random_product_spec(rng) for _ in range(20)]
        specs += [random_spec(rng) for _ in range(20)]
        for spec in specs:
            rho_cd = qasm_reduced_state(to_qasm(purification_circuit(spec)), keep=(2, 4))
            assert np.max(np.abs(rho_cd - bd.bds_from_spec(spec).matrix)) < 1e-10

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(spec=boundary_specs())
    def test_exported_qasm_prepares_boundary_specs(self, spec):
        rho_cd = qasm_reduced_state(to_qasm(purification_circuit(spec)), keep=(2, 4))
        assert np.max(np.abs(rho_cd - bd.bds_from_spec(spec).matrix)) < 1e-10

    def test_header_and_u3(self):
        circ = purification_circuit(bd.BdsSpec(0, 0, 0, 1))
        text = to_qasm(circ)
        assert text.startswith('OPENQASM 2.0;\ninclude "qelib1.inc";')
        # R(pi/2) is emitted as the hardware u3(pi,0,0)
        assert "u3(pi,0,0) q[1];" in text

    def test_every_kind_is_one_statement_on_its_physical_qubits(self):
        circ = Circuit(3, (Gate("h", (), (2,)), Gate("cx", (), (2, 0)), Gate("r", (np.pi / 4,), (1,))))
        lines = to_qasm(circ, layout={0: 4, 1: 0, 2: 7}).splitlines()
        assert lines[2:] == ["qreg q[8];", "h q[7];", "cx q[7],q[4];", "u3(pi/2,0,0) q[0];"]

    def test_default_layout(self):
        circ = purification_circuit(bd.BdsSpec(0.42, 0.18, 0.28, 0.12))
        text = to_qasm(circ)
        assert "qreg q[5];" in text
        assert "cx q[1],q[2];" in text  # a->c under a:1, c:2
        assert "cx q[3],q[4];" in text  # b->d under b:3, d:4

    def test_z_measurements_bare(self):
        circ = Circuit(n_qubits=2, gates=(Gate("h", (), (0,)),))
        text = to_qasm(circ, measure_basis={0: "Z", 1: "Z"})
        assert "measure q[0] -> c[0];" in text
        assert "sdg" not in text
        assert text.count("h q[") == 1  # only the circuit's own H

    def test_y_measurement_prefix(self):
        circ = purification_circuit(bd.BdsSpec(0.42, 0.18, 0.28, 0.12))
        text = to_qasm(circ, measure_basis={"c": "Y"})
        lines = text.splitlines()
        idx = lines.index("measure q[2] -> c[0];")
        assert lines[idx - 2] == "sdg q[2];"
        assert lines[idx - 1] == "h q[2];"

    def test_x_measurement_prefix(self):
        circ = Circuit(n_qubits=1, gates=())
        lines = to_qasm(circ, measure_basis={0: "X"}).splitlines()
        assert lines[-2:] == ["h q[0];", "measure q[0] -> c[0];"]

    def test_register_size_is_bounded(self):
        circ = purification_circuit(bd.BdsSpec(0.42, 0.18, 0.28, 0.12))
        top = MAX_PHYSICAL_QUBITS - 1
        assert f"qreg q[{MAX_PHYSICAL_QUBITS}];" in to_qasm(circ, layout={"a": 1, "b": 3, "c": 2, "d": top})
        with pytest.raises(InvalidLayoutError, match=r"register size must be in \[1, 65536\], got 65537"):
            to_qasm(circ, layout={"a": 1, "b": 3, "c": 2, "d": MAX_PHYSICAL_QUBITS})

    def test_custom_layout_and_errors(self):
        circ = purification_circuit(bd.BdsSpec(0.42, 0.18, 0.28, 0.12))
        text = to_qasm(circ, layout={"a": 0, "b": 1, "c": 2, "d": 3})
        assert "qreg q[4];" in text
        with pytest.raises(InvalidLayoutError):
            to_qasm(circ, layout={"a": 0, "b": 0, "c": 2, "d": 3})
        with pytest.raises(InvalidLayoutError):
            to_qasm(circ, layout={"a": 0})
        with pytest.raises(InvalidLayoutError):
            to_qasm(circ, layout={"z": 0, "b": 1, "c": 2, "d": 3})
        # Integer keys must name a qubit of the register.
        with pytest.raises(InvalidLayoutError):
            to_qasm(circ, layout={0: 1, 1: 3, 2: 2, 3: 4, 9: 0})
        for key in (9, -1):
            with pytest.raises(InvalidLayoutError):
                to_qasm(circ, measure_basis={key: "Z"})
        # Layout and measurement keys and values are integers, as Gate targets are:
        # int() would read 1.7 and 0.9 as qubits 1 and 0, and True as 1.
        for layout in ({0: 1.7, 1: 3, 2: 2, 3: 4}, {0.9: 1, 1: 3, 2: 2, 3: 4},
                       {True: 1, 0: 3, 2: 2, 3: 4}):
            with pytest.raises(InvalidLayoutError, match="integer"):
                to_qasm(circ, layout=layout)
        for key in (0.5, True):
            with pytest.raises(InvalidLayoutError, match="integer"):
                to_qasm(circ, measure_basis={key: "Z"})
        for basis in (1, None, ["Z"], "W"):
            with pytest.raises(InvalidLayoutError, match="basis"):
                to_qasm(circ, measure_basis={0: basis})
        assert to_qasm(circ, layout={np.int64(0): 1, 1: np.int64(3), 2: 2, 3: 4}) == to_qasm(circ)
        # Physical qubits are nonnegative, logical ones lie in the register; each reader says so.
        with pytest.raises(InvalidLayoutError, match=r"physical qubit must be in \[0, inf\], got -1"):
            to_qasm(circ, layout={"a": 1, "b": 3, "c": 2, "d": -1})
        with pytest.raises(InvalidLayoutError, match=r"logical qubit must be in \[0, 3\], got 9"):
            to_qasm(circ, measure_basis={9: "Z"})
        # 2 * 1e308 overflows to inf: the u3 angle is refused, with no bare OverflowError.
        with pytest.raises(OutOfRangeError, match="u3 angle"):
            to_qasm(Circuit(1, (Gate("r", (1e308,), (0,)),)))
        assert "u3(" in to_qasm(Circuit(1, (Gate("r", (8e307,), (0,)),)))

    @pytest.mark.parametrize(
        "mappings",
        [
            {"layout": {"a": 1, 0: 5, "b": 3, "c": 2, "d": 4}},
            {"layout": {"a": 1, "b": 3, "c": 2, "d": 4, 3: 5}},
            {"measure_basis": {0: "X", "a": "Z"}},
            {"measure_basis": {"d": "Y", 3: "Y"}},
        ],
        ids=["layout-name-and-index", "layout-index-after-name", "measure-index-and-name", "measure-name-and-index"],
    )
    def test_logical_qubit_given_twice_rejected(self, mappings):
        # Without the check, one entry silently wins or the qubit is measured twice.
        circ = purification_circuit(bd.werner_spec(0.5))
        with pytest.raises(InvalidLayoutError, match="twice"):
            to_qasm(circ, **mappings)

    def test_repeated_qubit_names_rejected(self):
        # With a repeated name, no name reaches the second of the two qubits.
        with pytest.raises(InvalidLayoutError, match="distinct"):
            Circuit(n_qubits=4, gates=(), qubit_names=("a", "a", "c", "d"))

    def test_angle_formatting(self):
        assert _format_angle(np.pi) == "pi"
        assert _format_angle(2 * np.pi / 3) == "2*pi/3"
        assert _format_angle(-np.pi / 2) == "-pi/2"
        assert _format_angle(0.0) == "0"
        assert float(_format_angle(0.123456)) == pytest.approx(0.123456)
        assert _format_angle(1024 * np.pi) == "1024*pi"
        assert _format_angle(1e20) == "1e+20"  # not 31830988618379067392*pi
        assert _format_angle(5e307) == "5e+307"

