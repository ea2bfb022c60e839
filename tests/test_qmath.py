import numpy as np
import pytest
from helpers import ginibre_state, random_hermitian, random_psd
from oracles import apply_channel_superoperator

import belldiag as bd
from belldiag import qmath
from belldiag.exceptions import NegativeSpectrumError
from belldiag.noise import KrausChannel, apply_channel
from belldiag.states import BELL_INDICES, bell_state_vector

I2 = np.eye(2, dtype=complex)


def mixed_state(rng, n_qubits: int) -> bd.DensityMatrix:
    m = random_psd(rng, 2**n_qubits)
    return bd.DensityMatrix(m / np.trace(m).real, validate=False)


# (n_qubits, qubit) for both qubit positions of a two-qubit state.
POSITIONS = [(2, 0), (2, 1)]


class TestKron:
    """``noise.apply_channel``: one qubit's Kraus operators applied across the
    (qubits before, qubit, qubits after) split of the state's indices."""

    def test_identity(self, rng):
        channel = KrausChannel(operators=(I2,))
        for n, q in POSITIONS:
            rho = mixed_state(rng, n)
            np.testing.assert_array_equal(apply_channel(channel, rho, q).matrix, rho.matrix)

    def test_sigma1_sigma1(self):
        # A bit flip on qubit q maps |i><i| to |i'><i'|, with i' = i with bit q flipped.
        channel = KrausChannel(operators=(qmath.SIGMA_1,))
        for n, q in POSITIONS:
            dim = 2**n
            for i in range(dim):
                basis = np.zeros((dim, dim), dtype=complex)
                basis[i, i] = 1.0
                out = apply_channel(channel, bd.DensityMatrix(basis), q).matrix
                flipped = i ^ (1 << (n - 1 - q))
                np.testing.assert_array_equal(np.nonzero(out), ([flipped], [flipped]))

    def test_projector_sigma3(self, rng):
        # Kraus operators (I +- sigma_3)/2 delete every entry whose row and column
        # differ in bit q, and keep the rest.
        projectors = ((I2 + qmath.SIGMA_3) / 2, (I2 - qmath.SIGMA_3) / 2)
        channel = KrausChannel(operators=projectors)
        for n, q in POSITIONS:
            rho = mixed_state(rng, n)
            bit = (np.arange(2**n) >> (n - 1 - q)) & 1
            keep = bit[:, None] == bit[None, :]
            out = apply_channel(channel, rho, q).matrix
            np.testing.assert_allclose(out, np.where(keep, rho.matrix, 0), atol=1e-15)

    def test_associative_and_bilinear(self, rng):
        # Linear in rho, and channels on two different qubits commute.
        first, second = bd.composite_damping(0.35, 0.15), bd.composite_damping(0.6, 0.8)
        for n, q in POSITIONS:
            r1, r2 = mixed_state(rng, n), mixed_state(rng, n)
            s, t = rng.normal(size=2)
            mix = bd.DensityMatrix(s * r1.matrix + t * r2.matrix, validate=False)
            np.testing.assert_allclose(
                apply_channel(first, mix, q).matrix,
                s * apply_channel(first, r1, q).matrix + t * apply_channel(first, r2, q).matrix,
                atol=1e-12,
            )
            for other in set(range(n)) - {q}:
                one_way = apply_channel(second, apply_channel(first, r1, q), other)
                other_way = apply_channel(first, apply_channel(second, r1, other), q)
                np.testing.assert_allclose(one_way.matrix, other_way.matrix, atol=1e-12)

    def test_kron_all(self, rng):
        for a, p in ((0.35, 0.15), (1.0, 0.0), (0.0, 1.0)):
            channel = bd.composite_damping(a, p)
            for n, q in POSITIONS:
                for _ in range(5):
                    rho = mixed_state(rng, n)
                    want = apply_channel_superoperator(channel.operators, rho.matrix, q, n)
                    got = apply_channel(channel, rho, q).matrix
                    assert np.max(np.abs(got - want)) < 1e-12


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


class TestTraceNorm:
    def test_identity(self):
        assert qmath.trace_norm(np.eye(4, dtype=complex)) == pytest.approx(4.0)

    def test_absolute_sum(self):
        assert qmath.trace_norm(np.diag([0.5, -0.5]).astype(complex)) == pytest.approx(1.0)

    def test_partial_transpose_of_bell(self):
        # |b11><b11| has 1/2 on |01><01| and |10><10| and -1/2 on |01><10| and
        # |10><01|; transposing qubit b moves the last two to |00><11| and |11><00|.
        pt = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
        pt[0, 3] = pt[3, 0] = -0.5
        assert qmath.trace_norm(pt) == pytest.approx(2.0, abs=1e-12)
        assert bd.negativity(bd.bell_state(1, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_lower_bound_by_trace(self, rng):
        for _ in range(50):
            m = random_hermitian(rng, int(rng.integers(2, 9)))
            assert qmath.trace_norm(m) >= abs(np.trace(m).real) - 1e-10

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_stack_has_each_matrix_bits(self, rng, dim):
        # One eigvalsh for a stack; each value is the one the matrix alone gets. Partial transposes
        # of Ginibre states, as negativity passes them, ride along in the 4x4 stack.
        stack = np.array([random_hermitian(rng, dim) for _ in range(40)])
        if dim == 4:
            pt = [ginibre_state(rng).matrix.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4) for _ in range(40)]
            stack = np.concatenate([stack, pt])
        single = [float(qmath.trace_norm(m)).hex() for m in stack]
        assert [x.hex() for x in qmath.trace_norm(stack).tolist()] == single
        nested = qmath.trace_norm(stack.reshape(-1, 2, dim, dim))
        assert nested.shape == (len(stack) // 2, 2) and [x.hex() for x in nested.ravel().tolist()] == single


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


class TestPartialTranspose:
    """``measures.negativity``, through the partial transpose on qubit b."""

    def test_diagonal_unchanged(self, rng):
        for _ in range(20):
            d = rng.dirichlet(np.ones(4))
            rho = bd.DensityMatrix(np.diag(d).astype(complex))
            assert bd.negativity(rho) == pytest.approx(0.0, abs=1e-12)

    def test_bell_spectrum(self):
        # The partial transpose of every Bell state has spectrum (-1/2, 1/2, 1/2, 1/2).
        for j, k in BELL_INDICES:
            assert bd.negativity(bd.bell_state(j, k)) == pytest.approx(1.0, abs=1e-12)

    def test_involution(self, rng):
        # rho and its transpose have partial transposes that are transposes of each other.
        for rank in (1, 2, 3, 4):
            for _ in range(10):
                rho = ginibre_state(rng, rank=rank)
                transposed = bd.DensityMatrix(rho.matrix.T, validate=False)
                assert bd.negativity(transposed) == pytest.approx(bd.negativity(rho), abs=1e-12)

    def test_product_state_stays_psd(self, rng):
        for _ in range(20):
            a, b = random_psd(rng, 2), random_psd(rng, 2)
            rho = bd.DensityMatrix(np.kron(a / np.trace(a), b / np.trace(b)), validate=False)
            assert bd.negativity(rho) == pytest.approx(0.0, abs=1e-12)


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

    @staticmethod
    def _masked(probabilities):
        # The same entropy through clip, two masks and a sum, written apart from the helper.
        w = np.clip(np.asarray(probabilities, dtype=float), 0.0, None)
        kept = w > qmath.ENTROPY_EIGENVALUE_CUTOFF
        return -np.sum(np.where(kept, w * np.log2(np.where(kept, w, 1.0)), 0.0), axis=-1)

    @pytest.mark.parametrize("shape", [(50, 4), (7, 75, 2)])
    def test_same_bits_as_the_masked_formula(self, rng, shape):
        # Negatives, as round-off leaves them in a spectrum, are clipped to 0.
        w = rng.uniform(-0.05, 1.0, size=shape)
        w[..., 0] = -rng.uniform(0, 1e-15, size=shape[:-1])
        assert np.array_equal(qmath.entropy_bits(w), self._masked(w))

    def test_same_bits_at_zero_and_at_the_cutoff(self):
        cutoff = qmath.ENTROPY_EIGENVALUE_CUTOFF
        near = [np.nextafter(cutoff, 0.0), cutoff, np.nextafter(cutoff, 1.0)]
        rows = np.array([[0.0, 0.0, 1.0, 0.0], [0.5, 0.5, -0.0, 0.0], [*near, 0.5], [1.0, *near]])
        assert np.array_equal(qmath.entropy_bits(rows), self._masked(rows))
        assert qmath.entropy_bits([0.0, cutoff]) == 0.0
        assert qmath.entropy_bits([0.0, np.nextafter(cutoff, 1.0)]) > 0.0

    def test_same_bits_on_a_list_and_on_integers(self):
        for probabilities in ([0.25, 0.75, 0.0], [1, 0], np.array([[1, 0], [0, 1], [2, -1]])):
            got = qmath.entropy_bits(probabilities)
            assert got.dtype == np.float64
            assert np.array_equal(got, self._masked(probabilities))

    @pytest.mark.parametrize("terms", [2, 3, 4])
    def test_terms_summed_over_a_leading_axis(self, rng, terms):
        # The discord objective holds its terms on a leading axis and sums them there: numpy adds a
        # trailing axis of 2 to 4 terms left to right, as it adds a leading one, so the bits agree.
        w = rng.dirichlet(np.ones(terms), size=(3, 500)) * 10.0 ** rng.integers(-14, 1, size=(3, 500, 1))
        w[0, :10, 0] = [0.0, -1e-17, qmath.ENTROPY_EIGENVALUE_CUTOFF, 1.0, 0.5, 0.25, 1e-300, 2e-12, 1e-12, 3e-12]
        leading = qmath._xlog2x(np.moveaxis(w, -1, 0))
        assert np.array_equal(-leading.sum(0), qmath.entropy_bits(w))
        total = leading[0]
        for term in leading[1:]:
            total = total + term
        assert np.array_equal(total, leading.sum(0))

    def test_xlog2x_stack_has_each_row_bits(self, rng):
        rows = rng.uniform(-0.05, 1.0, size=(6, 40, 75))
        batched = qmath._xlog2x(rows)
        assert all(np.array_equal(batched[i, j], qmath._xlog2x(rows[i, j])) for i, j in np.ndindex(6, 40))
        assert np.array_equal(-batched.sum(-1), qmath.entropy_bits(rows))

    def test_nan_entry_gives_nan(self):
        # The masked formula counted NaN as 0; the helper lets it through, and only its own row.
        rows = np.array([[np.nan, 0.5, 0.5], [0.25, 0.25, 0.5]])
        got = qmath.entropy_bits(rows)
        assert np.isnan(got[0]) and got[1] == self._masked(rows[1])
