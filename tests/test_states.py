import numpy as np
import pytest
from helpers import ginibre_state, random_spec

import belldiag as bd
from belldiag import qmath
from belldiag.exceptions import (
    DimensionMismatchError,
    InvalidProbabilitiesError,
    NotAStateError,
    OutOfRangeError,
)
from belldiag.states import (
    BELL_INDICES,
    bell_state_vector,
    density_matrix_from_json,
    density_matrix_to_json,
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
                rho.reduced((qubit,)).matrix, np.eye(2) / 2, atol=1e-12
            )

    def test_orthonormal(self):
        basis = [bell_state_vector(j, k) for j in (0, 1) for k in (0, 1)]
        gram = np.array([[np.vdot(u, v) for v in basis] for u in basis])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


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

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidProbabilitiesError, match="finite"):
                bd.BdsSpec(bad, 0, 0, 1)


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
        for w in (-0.1, 1.1):
            with pytest.raises(OutOfRangeError):
                bd.werner(w)

    def test_marginals_maximally_mixed(self):
        for w in np.linspace(0, 1, 11):
            rho = bd.werner(float(w))
            for qubit in (0, 1):
                np.testing.assert_allclose(
                    rho.reduced((qubit,)).matrix, np.eye(2) / 2, atol=1e-12
                )


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotAStateError, match="Hermitian"):
            bd.DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(NotAStateError, match="trace"):
            bd.DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotAStateError, match="eigenvalue"):
            bd.DensityMatrix(np.diag([1.2, -0.2]).astype(complex))

    def test_rejects_non_finite(self):
        with pytest.raises(NotAStateError, match="non-finite"):
            bd.DensityMatrix(np.full((4, 4), np.nan))
        for bad in (np.nan, np.inf):
            m = np.eye(4, dtype=complex) / 4
            m[1, 2] = m[2, 1] = bad
            with pytest.raises(NotAStateError, match="non-finite"):
                bd.DensityMatrix(m)

    def test_rejects_fewer_than_one_qubit(self):
        for m in (np.ones((1, 1)), np.zeros((0, 0))):
            for validate in (True, False):
                with pytest.raises(NotAStateError, match="no qubit"):
                    bd.DensityMatrix(m, validate=validate)

    def test_immutable(self):
        rho = bd.werner(0.5)
        with pytest.raises(AttributeError):
            rho.n_qubits = 3
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


class TestFidelity:
    def test_self(self, rng):
        rho = ginibre_state(rng)
        assert bd.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure(self):
        zero = bd.DensityMatrix(np.diag([1.0, 0.0]).astype(complex), validate=False)
        one = bd.DensityMatrix(np.diag([0.0, 1.0]).astype(complex), validate=False)
        assert bd.fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)

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

    def test_dimension_mismatch(self):
        one_qubit = bd.DensityMatrix(np.eye(2, dtype=complex) / 2)
        with pytest.raises(DimensionMismatchError):
            bd.fidelity(one_qubit, bd.werner(0.5))


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
