import numpy as np
import pytest
from helpers import ginibre_state, random_hermitian, random_psd

from belldiag import qmath
from belldiag.exceptions import (
    DimensionMismatchError,
    NegativeSpectrumError,
    NotHermitianError,
)
from belldiag.states import bell_state_vector

I2 = np.eye(2, dtype=complex)


class TestKron:
    def test_identity(self):
        np.testing.assert_allclose(qmath.kron_all([I2, I2]), np.eye(4))

    def test_sigma1_sigma1(self):
        expected = np.fliplr(np.eye(4))
        np.testing.assert_allclose(qmath.kron_all([qmath.SIGMA_1, qmath.SIGMA_1]), expected)

    def test_projector_sigma3(self):
        proj = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(
            qmath.kron_all([proj, qmath.SIGMA_3]), np.diag([1.0, -1.0, 0.0, 0.0])
        )

    def test_associative_and_bilinear(self, rng):
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            abc = qmath.kron_all([a, b, c])
            np.testing.assert_allclose(qmath.kron_all([qmath.kron_all([a, b]), c]), abc, atol=1e-12)
            np.testing.assert_allclose(qmath.kron_all([a, qmath.kron_all([b, c])]), abc, atol=1e-12)
            s, t = rng.normal(), rng.normal()
            np.testing.assert_allclose(
                qmath.kron_all([s * a + t * c, b]),
                s * qmath.kron_all([a, b]) + t * qmath.kron_all([c, b]),
                atol=1e-12,
            )

    def test_kron_all(self):
        np.testing.assert_allclose(
            qmath.kron_all([I2, qmath.SIGMA_1]), np.kron(I2, qmath.SIGMA_1)
        )


class TestPauliCoefficients:
    def test_round_trip_on_ginibre_states(self, rng):
        for rank in (1, 2, 3, 4):
            for _ in range(25):
                rho = ginibre_state(rng, rank=rank).matrix
                c = qmath.pauli_coefficients(rho)
                assert c.dtype == float
                assert c[0, 0] == pytest.approx(1.0, abs=1e-12)
                np.testing.assert_allclose(qmath.from_pauli_coefficients(c), rho, atol=1e-12)

    def test_matches_trace_definition(self, rng):
        m = random_hermitian(rng, 4)
        c = qmath.pauli_coefficients(m)
        for j, sj in enumerate(qmath.PAULIS):
            for k, sk in enumerate(qmath.PAULIS):
                assert c[j, k] == pytest.approx(np.trace(m @ np.kron(sj, sk)).real, abs=1e-12)

    def test_bell_state(self):
        v = bell_state_vector(1, 1)
        c = qmath.pauli_coefficients(np.outer(v, v.conj()))
        np.testing.assert_allclose(c, np.diag([1.0, -1.0, -1.0, -1.0]), atol=1e-15)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            qmath.pauli_coefficients(np.eye(2, dtype=complex))
        with pytest.raises(DimensionMismatchError):
            qmath.from_pauli_coefficients(np.eye(3))


class TestHermitianEigen:
    """The Hermitian eigensolve behind ``trace_norm`` and ``matrix_sqrt_psd``."""

    def test_diagonal(self):
        m = np.diag([3.0, 1.0]).astype(complex)
        assert qmath.trace_norm(m) == pytest.approx(4.0)
        np.testing.assert_allclose(qmath.matrix_sqrt_psd(m), np.diag([np.sqrt(3.0), 1.0]), atol=1e-14)

    @pytest.mark.parametrize("sigma", [qmath.SIGMA_1, qmath.SIGMA_2])
    def test_pauli_spectrum(self, sigma):
        # Spectrum {-1, 1}: trace norm 2, and -1 is far below the clip floor.
        assert qmath.trace_norm(sigma) == pytest.approx(2.0, abs=1e-14)
        with pytest.raises(NegativeSpectrumError):
            qmath.matrix_sqrt_psd(sigma)

    def test_reconstruction_and_unitarity(self, rng):
        # sqrt(h^2) = V |w| V† for h = V w V†, so its trace is the trace norm of h.
        for _ in range(1000):
            dim = int(rng.integers(2, 17))
            h = random_hermitian(rng, dim)
            root = qmath.matrix_sqrt_psd(h @ h)
            np.testing.assert_allclose(root @ root, h @ h, atol=1e-9)
            assert qmath.hermiticity_defect(root) < 1e-10
            assert np.trace(root).real == pytest.approx(qmath.trace_norm(h), rel=1e-10)

    def test_rejects_non_hermitian(self):
        for f in (qmath.matrix_sqrt_psd, qmath.trace_norm):
            with pytest.raises(NotHermitianError):
                f(np.array([[0, 1], [0, 0]], dtype=complex))


class TestTraceNorm:
    def test_identity(self):
        assert qmath.trace_norm(np.eye(4, dtype=complex)) == pytest.approx(4.0)

    def test_absolute_sum(self):
        assert qmath.trace_norm(np.diag([0.5, -0.5]).astype(complex)) == pytest.approx(1.0)

    def test_partial_transpose_of_bell(self):
        v = bell_state_vector(1, 1)
        pt = qmath.partial_transpose(np.outer(v, v.conj()), (2, 2), "b")
        assert qmath.trace_norm(pt) == pytest.approx(2.0, abs=1e-12)

    def test_lower_bound_by_trace(self, rng):
        for _ in range(50):
            m = random_hermitian(rng, int(rng.integers(2, 9)))
            assert qmath.trace_norm(m) >= abs(np.trace(m).real) - 1e-10


class TestMatrixSqrtPsd:
    def test_diagonal(self):
        np.testing.assert_allclose(
            qmath.matrix_sqrt_psd(np.diag([4.0, 9.0]).astype(complex)),
            np.diag([2.0, 3.0]),
            atol=1e-12,
        )

    def test_identity_and_projector(self):
        np.testing.assert_allclose(qmath.matrix_sqrt_psd(np.eye(3, dtype=complex)), np.eye(3), atol=1e-12)
        proj = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(qmath.matrix_sqrt_psd(proj), proj, atol=1e-12)

    def test_square_recovers_input(self, rng):
        for _ in range(50):
            m = random_psd(rng, int(rng.integers(2, 9)))
            s = qmath.matrix_sqrt_psd(m)
            np.testing.assert_allclose(s @ s, m, atol=1e-8)
            assert qmath.hermiticity_defect(s) < 1e-10

    def test_rejects_negative_spectrum(self):
        with pytest.raises(NegativeSpectrumError):
            qmath.matrix_sqrt_psd(np.diag([1.0, -0.1]).astype(complex))


class TestPartialTrace:
    def test_product_factorization(self, rng):
        a = random_psd(rng, 2)
        b = random_psd(rng, 2)
        out = qmath.partial_trace(np.kron(a, b), [2, 2], keep=(0,))
        np.testing.assert_allclose(out, a * np.trace(b), atol=1e-12)

    def test_purification_of_uniform_mixture(self):
        # |tau> = sum_jk sqrt(1/4) |jk> x |b_jk> traced over the first pair.
        tau = np.zeros(16, dtype=complex)
        for idx, (j, k) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            tau += 0.5 * np.kron(np.eye(4)[idx], bell_state_vector(j, k))
        out = qmath.partial_trace(np.outer(tau, tau.conj()), [2, 2, 2, 2], keep=(2, 3))
        np.testing.assert_allclose(out, np.eye(4) / 4, atol=1e-12)

    def test_bell_marginals(self):
        v = bell_state_vector(1, 1)
        rho = np.outer(v, v.conj())
        for keep in ((0,), (1,)):
            np.testing.assert_allclose(
                qmath.partial_trace(rho, [2, 2], keep=keep), np.eye(2) / 2, atol=1e-12
            )

    def test_trace_preserved(self, rng):
        m = random_psd(rng, 8)
        out = qmath.partial_trace(m, [2, 2, 2], keep=(1,))
        assert np.trace(out) == pytest.approx(np.trace(m), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            qmath.partial_trace(np.eye(4, dtype=complex), [2, 3], keep=(0,))
        with pytest.raises(DimensionMismatchError):
            qmath.partial_trace(np.eye(4, dtype=complex), [2, 2], keep=())


class TestPartialTranspose:
    def test_diagonal_unchanged(self):
        d = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        np.testing.assert_allclose(qmath.partial_transpose(d, (2, 2), "b"), d)

    def test_bell_spectrum(self):
        v = bell_state_vector(1, 1)
        pt = qmath.partial_transpose(np.outer(v, v.conj()), (2, 2), "b")
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(pt)), [-0.5, 0.5, 0.5, 0.5], atol=1e-12
        )

    def test_involution(self, rng):
        m = random_hermitian(rng, 4)
        for sub in ("a", "b"):
            np.testing.assert_array_equal(
                qmath.partial_transpose(qmath.partial_transpose(m, (2, 2), sub), (2, 2), sub), m
            )

    def test_product_state_stays_psd(self, rng):
        a = random_psd(rng, 2)
        b = random_psd(rng, 2)
        pt = qmath.partial_transpose(np.kron(a, b), (2, 2), "b")
        assert np.linalg.eigvalsh(pt)[0] > -1e-12


class TestVnEntropy:
    def test_pure_state(self):
        v = bell_state_vector(0, 0)
        spectrum = np.linalg.eigvalsh(np.outer(v, v.conj()))
        assert qmath.entropy_bits(spectrum) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert qmath.entropy_bits(np.linalg.eigvalsh(np.eye(2) / 2)) == pytest.approx(1.0)
        assert qmath.entropy_bits(np.linalg.eigvalsh(np.eye(4) / 4)) == pytest.approx(2.0)

    def test_vectorized_over_last_axis(self, rng):
        rows = rng.dirichlet(np.ones(4), size=(3, 5))
        rows[0, 0] = [0.5, 0.5, 0.0, -1e-17]
        batched = qmath.entropy_bits(rows)
        assert batched.shape == (3, 5)
        for idx in np.ndindex(3, 5):
            assert batched[idx] == qmath.entropy_bits(rows[idx])
        assert batched[0, 0] == pytest.approx(1.0, abs=1e-15)
