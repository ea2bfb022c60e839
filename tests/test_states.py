import json
import re

import numpy as np
import pytest
from helpers import counting, ginibre_state, random_spec

import belldiag as bd
from belldiag import qmath, states
from belldiag.exceptions import BellDiagError, InvalidProbabilitiesError, NotAStateError, OutOfRangeError
from belldiag.states import (
    BELL_INDICES,
    bell_state_vector,
    density_matrix_from_json,
    density_matrix_to_json,
    strict_index,
    strict_real,
)


class TestBellStates:
    def test_beta_00(self):
        expected = np.zeros(4, dtype=complex)
        expected[[0, 3]] = 1 / np.sqrt(2)
        np.testing.assert_allclose(bell_state_vector(0, 0), expected)

    def test_beta_11(self):
        expected = np.zeros(4, dtype=complex)
        expected[1] = 1 / np.sqrt(2)
        expected[2] = -1 / np.sqrt(2)
        np.testing.assert_allclose(bell_state_vector(1, 1), expected)

    @pytest.mark.parametrize("j,k", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_maximally_mixed_marginals(self, j, k):
        rho = bd.bell_state(j, k)
        for qubit in (0, 1):
            np.testing.assert_allclose(
                qmath.partial_trace(rho.matrix, [2, 2], keep=(qubit,)), np.eye(2) / 2, atol=1e-12
            )

    def test_orthonormal(self):
        basis = [bell_state_vector(j, k) for j in (0, 1) for k in (0, 1)]
        gram = np.array([[np.vdot(u, v) for v in basis] for u in basis])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize(
        "j,k",
        [(True, False), (False, True), (0, 1.0), (1.0, 0), (np.float64(1), 1), ("0", 0), (None, 1)],
        ids=["true-false", "false-true", "int-float", "float-int", "numpy-float", "string", "None"],
    )
    def test_indices_must_be_integers(self, j, k):
        # (True, False) read as (1, 0) would give a state of trace 0.5, unchecked under validate=False.
        with pytest.raises(OutOfRangeError, match="integer"):
            bell_state_vector(j, k)
        with pytest.raises(OutOfRangeError, match="integer"):
            bd.bell_state(j, k)


class TestReaderRanges:
    """Each reader checks its closed range after the type, and raises the caller's class."""

    @pytest.mark.parametrize("error", [OutOfRangeError, NotAStateError])
    def test_index_range(self, error):
        assert strict_index(0, error, "n", 0, 1) == 0
        assert strict_index(np.int64(1), error, "n", 0, 1) == 1
        for value in (-1, 2, 10**400):
            with pytest.raises(error, match=re.escape(f"n must be in [0, 1], got {value}")):
                strict_index(value, error, "n", 0, 1)
        assert strict_index(-(10**400), error, "n") == -(10**400)  # open by default
        assert strict_index(5, error, "n", 0) == 5

    @pytest.mark.parametrize("error", [OutOfRangeError, InvalidProbabilitiesError])
    def test_real_range(self, error):
        assert strict_real(1, error, "x", 0, 1) == 1.0
        assert strict_real(np.float32(0.0), error, "x", 0, 1) == 0.0
        for value, shown in ((-1e-300, "-1e-300"), (1.5, "1.5"), (np.float32(2), "2.0"), (10**300, "1e+300")):
            with pytest.raises(error, match=re.escape(f"x must be in [0, 1], got {shown}")):
                strict_real(value, error, "x", 0, 1)
        # The type check comes first: NaN and True are not read as out-of-range numbers.
        for value in (np.nan, np.inf, True):
            with pytest.raises(error, match="finite real"):
                strict_real(value, error, "x", 0, 1)
        assert strict_real(-1e300, error, "x") == -1e300  # open by default

    def test_bell_index_range_names_the_index(self):
        for j, k, name in ((2, 0, "j"), (0, -1, "k")):
            with pytest.raises(OutOfRangeError, match=f"Bell index {name} must be in"):
                bell_state_vector(j, k)

    # Python refuses repr of an integer over 4,300 digits; the message gives its bit length instead.
    @pytest.mark.parametrize(
        "call",
        [
            lambda: bd.sample_counts(bd.werner(0.5), 10**5000, 1),
            lambda: bd.Circuit(10**5000, ()),
            lambda: bd.apply_channel(bd.composite_damping(0.1, 0.2), bd.werner(0.5), 10**5000),
            lambda: bd.werner(10**5000),
        ],
        ids=["shots", "n_qubits", "qubit", "werner"],
    )
    def test_huge_integer_named_by_its_bit_length(self, call):
        with pytest.raises(BellDiagError, match="got an integer of 16610 bits"):
            call()


class TestBdsSpec:
    def test_pure_bell(self):
        rho = bd.bds_from_spec(bd.BdsSpec(1, 0, 0, 0))
        np.testing.assert_allclose(rho.matrix, bd.bell_state(0, 0).matrix, atol=1e-12)

    def test_uniform_is_maximally_mixed(self):
        rho = bd.bds_from_spec(bd.BdsSpec(0.25, 0.25, 0.25, 0.25))
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4, atol=1e-12)

    def test_werner_equality(self):
        for w in (0.0, 0.3, 0.5, 1.0):
            np.testing.assert_allclose(
                bd.bds_from_spec(bd.werner_spec(w)).matrix, bd.werner(w).matrix, atol=1e-12
            )

    def test_eigenvalues_are_probabilities(self, rng):
        for _ in range(50):
            spec = random_spec(rng)
            w = np.linalg.eigvalsh(bd.bds_from_spec(spec).matrix)
            np.testing.assert_allclose(np.sort(w), np.sort(spec.probabilities), atol=1e-12)

    def test_invalid_probabilities(self):
        with pytest.raises(InvalidProbabilitiesError):
            bd.BdsSpec(0.5, 0.5, 0.5, -0.5)
        with pytest.raises(InvalidProbabilitiesError):
            bd.BdsSpec(0.3, 0.3, 0.3, 0.3)
        # np.array(..., dtype=float) would raise a bare ValueError for "a" and read "0.25" as 0.25;
        # True is not 1.0, and 10**400 overflows a float.
        for bad in ("a", "0.25", 1j, True, b"1", 10**400):
            with pytest.raises(InvalidProbabilitiesError, match="real numbers"):
                bd.BdsSpec(bad, 0.25, 0.25, 0.25)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidProbabilitiesError, match="finite"):
                bd.BdsSpec(bad, 0, 0, 1)

    def test_projectors_are_built_once(self, monkeypatch):
        # The four Bell projectors are module constants; a state is only their weighted sum.
        built = counting(monkeypatch, states, "bell_state_vector")
        bd.bds_from_spec(bd.BdsSpec(0.1, 0.2, 0.3, 0.4))
        assert built == []


def correlation_diagonal(rho: bd.DensityMatrix) -> np.ndarray:
    """Diagonal of the Pauli coefficients, checking that the off-diagonal ones vanish."""
    c = qmath.pauli_coefficients(rho.matrix)
    np.testing.assert_allclose(c - np.diag(np.diag(c)), 0, atol=1e-14)
    return np.diag(c)


class TestCorrelations:
    """The correlation triple ``(c_11, c_22, c_33)`` of a spec, read off the Pauli core."""

    def test_zero_triple_is_uniform(self):
        c = correlation_diagonal(bd.bds_from_spec(bd.BdsSpec(0.25, 0.25, 0.25, 0.25)))
        np.testing.assert_allclose(c, [1, 0, 0, 0], atol=1e-14)

    def test_werner_triple(self):
        for w in (0.2, 0.7):
            c = correlation_diagonal(bd.bds_from_spec(bd.werner_spec(w)))
            np.testing.assert_allclose(c, [1, -w, -w, -w], atol=1e-14)

    def test_pure_triple(self):
        # The four Bell states are the vertices of the tetrahedron of triples.
        triples = [(1, -1, 1), (1, 1, -1), (-1, 1, 1), (-1, -1, -1)]
        for (j, k), triple in zip(BELL_INDICES, triples):
            c = correlation_diagonal(bd.bell_state(j, k))
            np.testing.assert_allclose(c, (1, *triple), atol=1e-14)

    def test_unphysical_triple(self):
        # (1, 1, 1) lies outside the tetrahedron: its Pauli expansion is not a state.
        with pytest.raises(NotAStateError, match="eigenvalue"):
            bd.DensityMatrix(qmath.from_pauli_coefficients(np.diag([1.0, 1.0, 1.0, 1.0])))

    def test_round_trip(self, rng):
        for _ in range(50):
            rho = bd.bds_from_spec(random_spec(rng))
            c = correlation_diagonal(rho)
            back = bd.DensityMatrix(qmath.from_pauli_coefficients(np.diag(c)))
            np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-14)

    def test_matches_pauli_expectations(self, rng):
        for _ in range(20):
            spec = random_spec(rng)
            p00, p01, p10, p11 = spec.probabilities
            rho = bd.bds_from_spec(spec)
            c = correlation_diagonal(rho)
            want = (1, p00 + p01 - p10 - p11, -p00 + p01 + p10 - p11, p00 - p01 + p10 - p11)
            np.testing.assert_allclose(c, want, atol=1e-14)
            for value, sigma in zip(c[1:], qmath.PAULIS[1:]):
                direct = float(np.trace(rho.matrix @ np.kron(sigma, sigma)).real)
                assert value == pytest.approx(direct, abs=1e-12)


class TestWerner:
    def test_endpoints(self):
        np.testing.assert_allclose(bd.werner(0.0).matrix, np.eye(4) / 4, atol=1e-14)
        np.testing.assert_allclose(bd.werner(1.0).matrix, bd.bell_state(1, 1).matrix, atol=1e-14)

    def test_half_correlations(self):
        c = correlation_diagonal(bd.werner(0.5))
        np.testing.assert_allclose(c, [1, -0.5, -0.5, -0.5], atol=1e-14)

    def test_rejects_out_of_range(self):
        # A string, None or a complex weight is refused before the range comparison,
        # which would raise a bare TypeError; True is not the weight 1.
        for w in (-0.1, 1.1, "0.5", None, 0.5j, True, b"1", 10**400, np.nan, np.inf):
            with pytest.raises(OutOfRangeError):
                bd.werner(w)

    def test_marginals_maximally_mixed(self):
        for w in np.linspace(0, 1, 11):
            rho = bd.werner(float(w))
            for qubit in (0, 1):
                np.testing.assert_allclose(
                    qmath.partial_trace(rho.matrix, [2, 2], keep=(qubit,)),
                    np.eye(2) / 2,
                    atol=1e-12,
                )


def maximally_mixed(n_qubits: int) -> np.ndarray:
    return np.eye(2**n_qubits, dtype=complex) / 2**n_qubits


# Two ways to hand over an array that is not C-ordered. The transpose of a state is a state.
MEMORY_ORDERS = {"transposed": np.transpose, "fortran-order": np.asfortranarray}
COMPLEX_STATE = ginibre_state(np.random.default_rng(3), rank=2).matrix


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = maximally_mixed(2)
        m[0, 1] = 0.25
        for validate in (True, False):
            with pytest.raises(NotAStateError, match="Hermitian"):
                bd.DensityMatrix(m, validate=validate)

    def test_rejects_wrong_trace(self):
        with pytest.raises(NotAStateError, match="trace"):
            bd.DensityMatrix(np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotAStateError, match="eigenvalue"):
            bd.DensityMatrix(np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex))

    def test_rejects_non_finite(self):
        for validate in (True, False):
            with pytest.raises(NotAStateError, match="non-finite"):
                bd.DensityMatrix(np.full((4, 4), np.nan), validate=validate)
            # Finite, but large enough to overflow the Hermiticity and trace checks.
            for huge in (np.full((4, 4), 1e308), np.diag([1e308, 1e308, -1e308, 0.0])):
                with pytest.raises(NotAStateError, match="out-of-range"):
                    bd.DensityMatrix(huge, validate=validate)
            for bad in (np.nan, np.inf):
                m = np.eye(4, dtype=complex) / 4
                m[1, 2] = m[2, 1] = bad
                with pytest.raises(NotAStateError, match="non-finite"):
                    bd.DensityMatrix(m, validate=validate)

    def test_rejects_fewer_than_one_qubit(self):
        for m in (np.ones((1, 1)), np.zeros((0, 0))):
            for validate in (True, False):
                with pytest.raises(NotAStateError, match="4x4"):
                    bd.DensityMatrix(m, validate=validate)

    @pytest.mark.parametrize("n_qubits", [1, 3])
    @pytest.mark.parametrize("validate", [True, False])
    def test_rejects_valid_states_of_other_qubit_counts(self, n_qubits, validate):
        with pytest.raises(NotAStateError, match="4x4"):
            bd.DensityMatrix(maximally_mixed(n_qubits), validate=validate)

    @pytest.mark.parametrize(
        "shape", [(4,), (2, 8), (4, 4, 1), (1, 4, 4)], ids=["vector", "2x8", "4x4x1", "1x4x4"]
    )
    def test_rejects_non_square_shapes(self, shape):
        for validate in (True, False):
            with pytest.raises(NotAStateError, match="4x4"):
                bd.DensityMatrix(np.full(shape, 0.25), validate=validate)

    @pytest.mark.parametrize(
        "matrix",
        [
            object(),
            np.full((4, 4), "0.25"),
            np.eye(4, dtype=bool),
            [[0.25] * 4] * 3 + [[0.25] * 3],
            [[10**400] * 4] * 4,
            np.eye(4, dtype=object) / 4,
        ],
        ids=["object", "text", "bool", "ragged", "huge-int", "object-array"],
    )
    def test_rejects_non_numeric_entries(self, matrix):
        # np.array(..., dtype=complex) would read text and booleans as numbers.
        for validate in (True, False):
            with pytest.raises(NotAStateError):
                bd.DensityMatrix(matrix, validate=validate)

    @pytest.mark.parametrize("validate", [True, False], ids=["validated", "unvalidated"])
    @pytest.mark.parametrize("order", sorted(MEMORY_ORDERS))
    def test_takes_any_memory_order(self, order, validate):
        # The entry bound reads the complex matrix as floats, which needs a C-ordered copy.
        given = MEMORY_ORDERS[order](COMPLEX_STATE)
        held = bd.DensityMatrix(given, validate=validate).matrix
        np.testing.assert_array_equal(held, given)
        assert held.flags.c_contiguous

    def test_immutable(self):
        rho = bd.werner(0.5)
        with pytest.raises(AttributeError):
            rho.n_qubits = 3
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


class TestPauliCoefficients:
    def test_read_only_and_kept(self, rng):
        for rho in (ginibre_state(rng, rank=2), bd.werner(0.5)):
            c = rho.pauli
            np.testing.assert_array_equal(c, qmath.pauli_coefficients(rho.matrix))
            assert rho.pauli is c
            with pytest.raises(ValueError):
                c[1, 1] = 0.0
            with pytest.raises(AttributeError):
                rho.pauli = np.eye(4)

    def test_one_conversion_per_state(self, rng, monkeypatch):
        calls = []
        convert = qmath.pauli_coefficients
        monkeypatch.setattr(qmath, "pauli_coefficients", lambda m: calls.append(m) or convert(m))
        for rho in (ginibre_state(rng), bd.werner(0.5)):
            assert not calls  # building a state converts nothing
            bd.full_report(rho)
            assert len(calls) == 1
            calls.clear()
        bd.sample_counts(bd.werner(0.5), 64, seed=1)
        assert len(calls) == 1


class TestSpectrum:
    def test_read_only_and_kept(self, rng):
        for rho in (ginibre_state(rng, rank=2), bd.werner(0.5), bd.DensityMatrix(ginibre_state(rng).matrix)):
            w = rho.spectrum
            np.testing.assert_array_equal(w, np.linalg.eigvalsh(rho.matrix))
            assert rho.spectrum is w
            with pytest.raises(ValueError):
                w[0] = 0.0
            with pytest.raises(AttributeError):
                rho.spectrum = np.zeros(4)

    def test_validation_keeps_its_eigensolve(self, rng, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        held = bd.DensityMatrix(ginibre_state(rng).matrix, validate=False)
        assert not calls  # an unvalidated record computes it on first read
        held.spectrum
        assert len(calls) == 1
        validated = bd.DensityMatrix(held.matrix)
        validated.spectrum
        assert len(calls) == 2


class TestFidelity:
    def test_self(self, rng):
        rho = ginibre_state(rng)
        assert bd.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure(self):
        zero = bd.DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), validate=False)
        one = bd.DensityMatrix(np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex), validate=False)
        assert bd.fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)
        assert bd.fidelity(bd.bell_state(0, 0), bd.bell_state(1, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_mixed_versus_bell(self):
        mixed = bd.bds_from_spec(bd.BdsSpec(0.25, 0.25, 0.25, 0.25))
        assert bd.fidelity(mixed, bd.bell_state(1, 1)) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric(self, rng):
        for _ in range(10):
            a, b = ginibre_state(rng), ginibre_state(rng)
            assert bd.fidelity(a, b) == pytest.approx(bd.fidelity(b, a), abs=1e-8)

    def test_one_only_for_equal_states(self, rng):
        for _ in range(10):
            a, b = ginibre_state(rng), ginibre_state(rng)
            assert bd.fidelity(a, b) < 1.0 - 1e-6

    def test_takes_every_state_density_matrix_accepts(self):
        # -5e-9 is round-off to DensityMatrix and to reconstruct, so fidelity
        # must take it in either slot.
        rho = bd.DensityMatrix(np.diag([0.5 + 5e-9, 0.5, 0.0, -5e-9]).astype(complex))
        assert not bd.reconstruct(bd.exact_correlations(rho)).projected
        target = bd.werner(0.5)
        assert bd.fidelity(rho, target) == pytest.approx(bd.fidelity(target, rho), abs=1e-12)


class TestJsonFormat:
    def test_round_trip(self, rng):
        rho = ginibre_state(rng)
        back = density_matrix_from_json(density_matrix_to_json(rho))
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-15)
        assert back.n_qubits == rho.n_qubits

    def test_malformed(self):
        with pytest.raises(NotAStateError):
            density_matrix_from_json("{not json")
        with pytest.raises(NotAStateError):
            density_matrix_from_json('{"n_qubits": 1, "re": [[1, 0]], "im": [[0, 0]]}')
        with pytest.raises(NotAStateError):
            density_matrix_from_json('{"n_qubits": 0, "re": 1, "im": 0}')

    def test_non_integer_qubit_count_rejected(self, rng):
        payload = json.loads(density_matrix_to_json(ginibre_state(rng)))
        payload["n_qubits"] = 2.9
        with pytest.raises(NotAStateError):
            density_matrix_from_json(json.dumps(payload))

    def test_boolean_qubit_count_rejected(self):
        # true is not the integer 1: the error names the type before any shape is read.
        payload = json.loads(density_matrix_to_json(bd.werner(0.0)))
        payload["n_qubits"] = True
        with pytest.raises(NotAStateError, match="integer"):
            density_matrix_from_json(json.dumps(payload))

    @pytest.mark.parametrize("entry", ["0.25", True, 10**400], ids=["string", "bool", "huge-int"])
    def test_matrix_entries_must_be_json_numbers(self, entry):
        # np.array(..., dtype=float) would read "0.25" as 0.25 and true as 1.0.
        payload = json.loads(density_matrix_to_json(bd.werner(0.0)))
        payload["re"][0][0] = entry
        with pytest.raises(NotAStateError, match="malformed"):
            density_matrix_from_json(json.dumps(payload))

    @pytest.mark.parametrize("n", [10**18, 3, 1, 0, -1])
    def test_qubit_count_checked_against_the_shape_first(self, rng, n):
        # Every n but 2 is rejected, in constant time even for 10**18.
        payload = json.loads(density_matrix_to_json(ginibre_state(rng)))
        payload["n_qubits"] = n
        with pytest.raises(NotAStateError, match="does not match"):
            density_matrix_from_json(json.dumps(payload))

    @pytest.mark.parametrize("n_qubits", [1, 3])
    def test_valid_state_of_other_qubit_count_rejected(self, n_qubits):
        m = maximally_mixed(n_qubits)
        text = json.dumps({"n_qubits": n_qubits, "re": m.real.tolist(), "im": m.imag.tolist()})
        with pytest.raises(NotAStateError, match="does not match"):
            density_matrix_from_json(text)
