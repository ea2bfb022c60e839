import functools
import math

import numpy as np
import pytest
from helpers import counting, ginibre_state, random_psd, random_unitary, rotated_bell_diagonal
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import discord_grid_oracle, discord_zero_marginal_oracle, negativity_bruteforce

import belldiag as bd
from belldiag import measures, qmath
from belldiag.exceptions import BellDiagError, NotAStateError
from belldiag.measures import ROUNDOFF_CLAMP, mutual_information

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

# Frozen reference: discord of the w = 0.5 Werner state,
# cross-checked against the dense-grid oracle in test_discord_matches_oracle.
WERNER_HALF_DISCORD = 0.26248318


def product_state(rng):
    a = random_psd(rng, 2)
    b = random_psd(rng, 2)
    m = np.kron(a / np.trace(a).real, b / np.trace(b).real)
    return bd.DensityMatrix(m, validate=False)


def with_marginals(rng, rho, size):
    """``rho`` plus Bloch vectors of length ``size``, in random directions, on both qubits."""
    a, b = (size * v / np.linalg.norm(v) for v in rng.normal(size=(2, 3)))
    shift = sum(
        x * np.kron(p, np.eye(2)) + y * np.kron(np.eye(2), p)
        for x, y, p in zip(a, b, (qmath.SIGMA_1, qmath.SIGMA_2, qmath.SIGMA_3))
    )
    return bd.DensityMatrix(rho + shift / 4, validate=False)


def random_channel(rng, kraus):
    """Kraus operators of a random qubit channel: the blocks of a random isometry into C^2 x C^kraus."""
    g = rng.normal(size=(2 * kraus, 2)) + 1j * rng.normal(size=(2 * kraus, 2))
    return np.linalg.qr(g)[0].reshape(kraus, 2, 2)


class TestCoherence:
    def test_diagonal_state(self):
        rho = bd.DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), validate=False)
        assert bd.coherence_l1(rho) == 0.0

    def test_bell_state(self):
        assert bd.coherence_l1(bd.bell_state(1, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_werner_linear(self):
        for w in np.linspace(0, 1, 11):
            assert bd.coherence_l1(bd.werner(float(w))) == pytest.approx(w, abs=1e-12)


class TestNonlocalCoherence:
    def test_incoherent_product(self):
        rho = bd.DensityMatrix(np.diag([0.5, 0, 0.5, 0]).astype(complex), validate=False)
        assert bd.nonlocal_coherence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_werner(self):
        for w in (0.0, 0.4, 1.0):
            assert bd.nonlocal_coherence(bd.werner(w)) == pytest.approx(w, abs=1e-12)

    def test_matches_marginal_route(self, rng):
        # The l1 coherence of each one-qubit marginal, summed over its off-diagonal entries.
        for _ in range(50):
            rho = ginibre_state(rng)
            local = sum(
                2 * abs(qmath.partial_trace(rho.matrix, [2, 2], keep=(q,))[0, 1]) for q in (0, 1)
            )
            want = bd.coherence_l1(rho) - local
            assert bd.nonlocal_coherence(rho) == pytest.approx(want, abs=1e-14)

    def test_coherent_product_cancels(self):
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        zero = np.diag([1.0, 0.0]).astype(complex)
        rho = bd.DensityMatrix(np.kron(plus, zero), validate=False)
        assert bd.nonlocal_coherence(rho) == pytest.approx(0.0, abs=1e-12)


class TestDiscord:
    def test_product_state_is_classical(self, rng):
        for _ in range(5):
            assert bd.discord_oz(product_state(rng)) == pytest.approx(0.0, abs=1e-7)

    def test_bell_state(self):
        assert bd.discord_oz(bd.bell_state(1, 1)) == pytest.approx(1.0, abs=1e-10)

    def test_werner_half_frozen_value(self):
        assert bd.discord_oz(bd.werner(0.5)) == pytest.approx(WERNER_HALF_DISCORD, abs=1e-7)

    def test_discord_matches_oracle(self):
        for w in (0.3, 0.5, 0.9):
            main = bd.discord_oz(bd.werner(w))
            oracle = discord_grid_oracle(bd.werner(w).matrix, n_theta=181, n_phi=361)
            assert main == pytest.approx(oracle, abs=1e-4)

    def test_bounded_by_mutual_information(self, rng):
        for _ in range(10):
            rho = ginibre_state(rng)
            assert bd.discord_oz(rho) <= mutual_information(rho) + 1e-12

    def test_classical_classical_state(self):
        rho = bd.DensityMatrix(np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex), validate=False)
        assert bd.discord_oz(rho) == pytest.approx(0.0, abs=1e-9)

    def test_non_finite_input_raises(self):
        # The state record refuses NaN even unvalidated, so discord never sees one.
        bad = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        bad[0, 0] = np.nan
        with pytest.raises(NotAStateError, match="non-finite"):
            bd.discord_oz(bd.DensityMatrix(bad, validate=False))

    def test_optimizer_failure_is_a_validation_error(self):
        bad = np.full((4, 4), np.inf, dtype=complex)
        with pytest.raises(BellDiagError):
            bd.discord_oz(bd.DensityMatrix(bad, validate=False))

    @pytest.mark.parametrize(
        "axis", [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (1, 1, 0), (0.2, 1, -0.1), (1, 0.3, 0.05)]
    )
    def test_classical_quantum_state_anywhere_on_the_sphere(self, rng, axis):
        # q+ rho_a+ x Pi_n + q- rho_a- x Pi_-n has discord exactly 0 at axis n
        # and non-zero Bloch vectors, so the general path must find n wherever
        # it lies: on a chart diagonal, near the equator or off every chart centre.
        n = np.array(axis) / np.linalg.norm(axis)
        n_sigma = n[0] * qmath.SIGMA_1 + n[1] * qmath.SIGMA_2 + n[2] * qmath.SIGMA_3
        rho = sum(
            q * np.kron(a / np.trace(a).real, (np.eye(2) + sign * n_sigma) / 2)
            for q, sign, a in zip((0.7, 0.3), (1, -1), (random_psd(rng, 2) for _ in range(2)))
        )
        assert bd.discord_oz(bd.DensityMatrix(rho, validate=False)) <= 1e-10

    @pytest.mark.parametrize(
        "state, objective_calls, entropy_calls",
        [("ginibre", 9, 2), ("werner", 1, 2)],
    )
    def test_calls_per_full_report(self, rng, monkeypatch, state, objective_calls, entropy_calls):
        # The general path: 5 halving rounds, 3 Newton rounds and one last call; the closed form makes one
        # call. Each call takes its two entropies from one _xlog2x pass. Two entropies lie outside the search,
        # S(rho) and S(rho_b), each one _xlog2x pass too.
        objective = counting(monkeypatch, measures, "_measured_mi")
        entropy = counting(monkeypatch, qmath, "entropy_bits")
        passes = counting(monkeypatch, qmath, "_xlog2x")
        bd.full_report(ginibre_state(rng) if state == "ginibre" else bd.werner(0.5))
        assert (len(objective), len(entropy)) == (objective_calls, entropy_calls)
        assert len(passes) == objective_calls + entropy_calls

    def test_newton_fit_is_the_least_squares_solution(self):
        s = measures._STENCIL
        design = np.column_stack([np.ones(len(s)), s, s**2 / 2, s.prod(axis=1)])
        np.testing.assert_allclose(measures._FIT, np.linalg.pinv(design)[1:], rtol=0, atol=1e-15)

    def test_newton_needs_a_concave_fit(self, monkeypatch):
        # A synthetic objective of chart 0's (u, v), in units r of the first Newton round's step: 1 at the centre,
        # 0.2 for 0 < r < 1.5, 0.9 beyond, 1.5 on a thin band at r = 0.5 on the +u axis, 0 off chart 0. The
        # halving rounds stay at the centre; the first Newton round's fit is then convex with g = 0. Only a
        # search that refuses that Newton step halves its step, reaches r = 0.5 and finds 1.5; taking it
        # divides the step by 8, and the search never leaves the centre's value 1.
        step = measures.DISCORD_FIRST_STEP / 2**measures.DISCORD_HALVING_ROUNDS

        def objective(c, n):
            on_chart = n[..., 0] > 0.9
            u, v = (np.divide(n[..., k], n[..., 0] * step, out=np.zeros(n.shape[:-1]), where=on_chart) for k in (1, 2))
            r = np.hypot(u, v)
            band = (abs(u - 0.5) < 0.01) & (abs(v) < 0.01)
            value = np.select([band, r == 0, r < 1.5], [1.5, 1.0, 0.2], 0.9)
            return np.where(on_chart, value, 0.0)

        monkeypatch.setattr(measures, "_measured_mi", objective)
        assert measures._stencil_search(np.zeros((1, 4, 4)), refine=True).tolist() == [1.5]

    def test_first_round_alone_is_one_objective_call(self, rng, monkeypatch):
        objective = counting(monkeypatch, measures, "_measured_mi")
        bd.discord_oz(ginibre_state(rng), refine=False)
        assert len(objective) == 1

    def test_refinement_never_lowers_the_grid_value(self, rng):
        for _ in range(20):
            rho = ginibre_state(rng)
            assert bd.discord_oz(rho) <= bd.discord_oz(rho, refine=False)

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
    @example(seed=1648652, rank=2)
    def test_never_above_the_grid_oracle(self, seed, rank):
        # Never above the grid's best axis, and never below it by more than the
        # grid's error. That error can pass 1e-4 at 181x361 (1.1e-4 on the
        # example), so such a state is checked again on a grid of half the step.
        rho = ginibre_state(np.random.default_rng(seed), rank=rank)
        discord = bd.discord_oz(rho)
        gap = discord - discord_grid_oracle(rho.matrix, n_theta=181, n_phi=361)
        assert gap <= 1e-12
        if gap < -1e-4:
            assert discord - discord_grid_oracle(rho.matrix, n_theta=361, n_phi=721) >= -1e-4

    @pytest.mark.parametrize(
        "a, p, w",
        [(0.3, 0.3, 0.5), (0.3, 0.3, 1.0), (0.6, 0, 0.8), (0.1, 0.7, 0.3), (0.9, 0.3, 0.9), (0.25, 0.25, 0.7)],
    )
    def test_damped_werner_never_above_the_grid_oracle(self, a, p, w):
        # The paper's damped Werner states: amplitude damping gives qubit a a Bloch
        # vector, so discord takes the stencil search, not the closed form.
        rho = bd.apply_channel(bd.composite_damping(a, p), bd.werner(w))
        assert np.linalg.norm(rho.pauli[1:, 0]) > ROUNDOFF_CLAMP
        discord = bd.discord_oz(rho)
        gap = discord - discord_grid_oracle(rho.matrix, n_theta=181, n_phi=361)
        assert gap <= 1e-12
        if gap < -1e-4:
            assert discord - discord_grid_oracle(rho.matrix, n_theta=361, n_phi=721) >= -1e-4


class TestZeroMarginalDiscord:
    def test_oracle_agrees_with_grid_oracle(self, rng):
        # The closed form is the exact maximum, so the grid can only fall short of it.
        for _ in range(8):
            rho = rotated_bell_diagonal(rng)
            gap = discord_grid_oracle(rho, n_theta=181, n_phi=361) - discord_zero_marginal_oracle(rho)
            assert -1e-12 <= gap <= 1e-4

    def test_matches_oracle(self, rng):
        for _ in range(40):
            rho = rotated_bell_diagonal(rng)
            expected = discord_zero_marginal_oracle(rho)
            assert bd.discord_oz(bd.DensityMatrix(rho, validate=False)) == pytest.approx(
                expected, abs=1e-12
            )

    @pytest.mark.parametrize("size", [1e-10, 1e-9, 2e-9, 1e-8])
    def test_no_jump_at_the_switch(self, rng, size):
        # Marginals below ROUNDOFF_CLAMP take the closed form, above it the first
        # stencil round and the refine rounds.
        for _ in range(10):
            rho = rotated_bell_diagonal(rng)
            moved = with_marginals(rng, rho, size)
            assert bd.discord_oz(moved) == pytest.approx(discord_zero_marginal_oracle(rho), abs=1e-10)


class TestNegativity:
    def test_separable_werner(self):
        for w in (0.0, 0.2, 1 / 3):
            assert bd.negativity(bd.werner(w)) == 0.0

    def test_entangled_werner(self):
        for w in (0.5, 0.8, 1.0):
            assert bd.negativity(bd.werner(w)) == pytest.approx((3 * w - 1) / 2, abs=1e-12)

    def test_product_state(self, rng):
        # Round-off puts the trace norm of a product state's partial transpose
        # a few ulps above 1; none of that may read as entanglement.
        for _ in range(200):
            assert bd.negativity(product_state(rng)) == 0.0

    def test_matches_bruteforce(self, rng):
        for _ in range(50):
            rho = ginibre_state(rng)
            assert bd.negativity(rho) == pytest.approx(
                negativity_bruteforce(rho.matrix), abs=1e-10
            )

    def test_rejects_other_qubit_counts(self):
        # DensityMatrix is the one place that checks the size: negativity never sees it.
        for dim in (2, 8):
            with pytest.raises(NotAStateError):
                bd.negativity(bd.DensityMatrix(np.eye(dim, dtype=complex) / dim))


class TestBlochDecomposition:
    def test_maximally_mixed(self):
        a, b, t = bd.bloch_decompose(bd.werner(0.0))
        np.testing.assert_allclose(a, 0, atol=1e-12)
        np.testing.assert_allclose(b, 0, atol=1e-12)
        np.testing.assert_allclose(t, 0, atol=1e-12)

    def test_werner(self):
        _, _, t = bd.bloch_decompose(bd.werner(0.7))
        np.testing.assert_allclose(t, -0.7 * np.eye(3), atol=1e-12)

    def test_computational_product(self):
        rho = bd.DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex), validate=False)
        a, b, t = bd.bloch_decompose(rho)
        np.testing.assert_allclose(a, [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(b, [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(t, np.diag([0, 0, 1.0]), atol=1e-12)

    def test_reconstruction(self, rng):
        for _ in range(20):
            rho = ginibre_state(rng)
            a, b, t = bd.bloch_decompose(rho)
            rebuilt = np.eye(4, dtype=complex)
            for j in range(3):
                rebuilt += a[j] * np.kron(qmath.PAULIS[j + 1], qmath.SIGMA_0)
                rebuilt += b[j] * np.kron(qmath.SIGMA_0, qmath.PAULIS[j + 1])
                for k in range(3):
                    rebuilt += t[j, k] * np.kron(qmath.PAULIS[j + 1], qmath.PAULIS[k + 1])
            np.testing.assert_allclose(rebuilt / 4, rho.matrix, atol=1e-10)


def state_from_blocks(a, b, t):
    """The operator with Pauli blocks (a, b, T), unvalidated: some (a, b, T) are not states."""
    c = np.zeros((4, 4))
    c[0, 0], c[1:, 0], c[0, 1:], c[1:, 1:] = 1.0, a, b, t
    return bd.DensityMatrix(qmath.from_pauli_coefficients(c), validate=False)


class TestCorrelationVector:
    """Steering and nonlocality read only the singular values of T."""

    def test_diagonal(self):
        # Singular values 0.9, 0.8, 0.7, whatever the signs and the order on the diagonal.
        steering = (math.sqrt(0.81 + 0.64 + 0.49) - 1) / (SQRT3 - 1)
        nonlocality = (math.sqrt(0.81 + 0.64) - 1) / (SQRT2 - 1)
        for diag in ([0.9, -0.8, 0.7], [-0.7, -0.9, -0.8], [0.8, 0.7, -0.9]):
            rho = state_from_blocks(np.zeros(3), np.zeros(3), np.diag(diag))
            assert bd.steering(rho) == pytest.approx(steering, abs=1e-12)
            assert bd.nonlocality(rho) == pytest.approx(nonlocality, abs=1e-12)

    def test_zero(self):
        # Non-zero Bloch vectors do not count: |0><0| x I/2 has T = 0.
        for a in (np.zeros(3), np.array([0.0, 0.0, 1.0])):
            rho = state_from_blocks(a, np.zeros(3), np.zeros((3, 3)))
            assert bd.steering(rho) == 0.0
            assert bd.nonlocality(rho) == 0.0

    def test_orthogonal_invariance(self, rng):
        # q1 @ T @ q2 is not symmetric, and with det q = -1 no local unitary reaches it.
        base = state_from_blocks(np.zeros(3), np.zeros(3), np.diag([0.9, 0.5, 0.1]))
        assert bd.steering(base) > 0 and bd.nonlocality(base) > 0
        for _ in range(20):
            q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            rho = state_from_blocks(np.zeros(3), np.zeros(3), q1 @ np.diag([0.9, 0.5, 0.1]) @ q2)
            assert bd.steering(rho) == pytest.approx(bd.steering(base), abs=1e-12)
            assert bd.nonlocality(rho) == pytest.approx(bd.nonlocality(base), abs=1e-12)


class TestSteeringAndNonlocality:
    @pytest.mark.parametrize("state, svd_calls", [("ginibre", 1), ("werner", 2)])
    def test_svd_calls_per_full_report(self, rng, monkeypatch, state, svd_calls):
        # Nonlocality takes the one SVD of T; the closed form of discord takes a second.
        svd = counting(monkeypatch, np.linalg, "svd")
        bd.full_report(ginibre_state(rng) if state == "ginibre" else bd.werner(0.5))
        assert len(svd) == svd_calls

    def test_steering_is_the_norm_of_the_singular_values(self, rng):
        # Raw 64-shot reconstructions are held unvalidated, and their T is not symmetric.
        ginibre = [ginibre_state(rng, rank=1 + i % 4) for i in range(40)]
        raw = [
            bd.DensityMatrix(bd.tomograph(bd.werner(w), 64, seed).raw_matrix, validate=False)
            for seed, w in enumerate(np.linspace(0.5, 1.0, 40))
        ]
        assert all(np.any(rho.pauli[1:, 1:] != rho.pauli[1:, 1:].T) for rho in raw)
        for rho in ginibre + raw:
            norm = np.linalg.norm(np.linalg.svd(rho.pauli[1:, 1:], compute_uv=False))
            assert bd.steering(rho) == pytest.approx(max(0.0, (norm - 1) / (SQRT3 - 1)), rel=0, abs=1e-14)
        assert sum(bd.steering(rho) > 0 for rho in raw) > 10

    def test_anchors(self):
        assert bd.steering(bd.werner(1.0)) == pytest.approx(1.0, abs=1e-12)
        assert bd.nonlocality(bd.werner(1.0)) == pytest.approx(1.0, abs=1e-12)
        assert bd.steering(bd.werner(0.0)) == 0.0
        assert bd.nonlocality(bd.werner(0.0)) == 0.0

    def test_thresholds(self):
        assert bd.steering(bd.werner(1 / SQRT3 - 1e-6)) == 0.0
        assert bd.steering(bd.werner(1 / SQRT3 + 1e-3)) > 0.0
        assert bd.nonlocality(bd.werner(1 / SQRT2 - 1e-6)) == 0.0
        assert bd.nonlocality(bd.werner(1 / SQRT2 + 1e-3)) > 0.0

    def test_closed_forms_on_werner_sweep(self):
        for w in np.linspace(0, 1, 21):
            s_expect = max(0.0, (SQRT3 * w - 1) / (SQRT3 - 1))
            n_expect = max(0.0, (SQRT2 * w - 1) / (SQRT2 - 1))
            assert bd.steering(bd.werner(float(w))) == pytest.approx(s_expect, abs=1e-10)
            assert bd.nonlocality(bd.werner(float(w))) == pytest.approx(n_expect, abs=1e-10)


class TestFullReport:
    def test_maximally_mixed_all_zero(self):
        report = bd.full_report(bd.werner(0.0))
        assert all(v == pytest.approx(0.0, abs=1e-9) for v in report.as_dict().values())

    def test_bell_all_one(self):
        report = bd.full_report(bd.werner(1.0))
        for name, value in report.as_dict().items():
            tol = 1e-4 if name == "discord" else 1e-6
            assert value == pytest.approx(1.0, abs=tol), name

    def test_werner_06(self):
        report = bd.full_report(bd.werner(0.6))
        assert report.negativity == pytest.approx(0.4, abs=1e-10)
        assert report.steering == pytest.approx((SQRT3 * 0.6 - 1) / (SQRT3 - 1), abs=1e-10)
        assert report.nonlocality == 0.0


def report_bits(reports):
    return [[value.hex() for value in report.as_dict().values()] for report in reports]


@functools.cache
def report_pool():
    """3 x REPORT_CHUNK states of the kinds ``test_stack_matches_one_state_at_a_time`` mixes, and their reports."""
    rng = np.random.default_rng(35)
    channels = (bd.composite_damping(0.3, 0.3), bd.composite_damping(0.25, 0.25))
    kinds = (
        lambda i: ginibre_state(rng, rank=1 + i % 4),
        lambda i: bd.werner(i / 95),
        lambda i: with_marginals(rng, rotated_bell_diagonal(rng), ROUNDOFF_CLAMP / 2),
        lambda i: with_marginals(rng, rotated_bell_diagonal(rng), ROUNDOFF_CLAMP * 2),
        lambda i: bd.apply_channel(channels[i % 2], bd.werner(i / 95), qubit=0),
        lambda i: bd.tomograph(bd.werner(i / 95), (64, 8192)[i % 2], seed=i).state,
        lambda i: bd.DensityMatrix(bd.tomograph(bd.werner(i / 95), 64, seed=i).raw_matrix, validate=False),
    )
    pool = [kinds[i % len(kinds)](i) for i in range(3 * measures.REPORT_CHUNK)]
    return pool, report_bits(bd.full_reports(pool))


class TestFullReports:
    def test_stack_matches_one_state_at_a_time(self, rng):
        # Interleaved, so that every chunk holds states of both sides of the mask: marginals
        # below ROUNDOFF_CLAMP and Werner states take the closed form, the others the stencil.
        # The sweep's own states ride along: Werner states damped on qubit a at the paper's rates,
        # and sampled reconstructions, physical and raw (held unvalidated), projected or not.
        channels = (bd.composite_damping(0.3, 0.3), bd.composite_damping(0.25, 0.25))
        stack, projected = [], set()
        for i in range(24):
            stack += [
                ginibre_state(rng, rank=1 + i % 4),
                bd.werner(i / 23),
                with_marginals(rng, rotated_bell_diagonal(rng), ROUNDOFF_CLAMP / 2),
                with_marginals(rng, rotated_bell_diagonal(rng), ROUNDOFF_CLAMP * 2),
                *(bd.apply_channel(channel, bd.werner(i / 23), qubit=0) for channel in channels),
            ]
            for shots in (64, 8192):
                result = bd.tomograph(bd.werner(i / 23), shots, seed=i)
                projected.add(result.projected)
                stack += [result.state, bd.DensityMatrix(result.raw_matrix, validate=False)]
        assert len(stack) > measures.REPORT_CHUNK and projected == {False, True}
        assert report_bits(bd.full_reports(stack)) == report_bits([bd.full_report(rho) for rho in stack])

    def test_no_states(self):
        assert bd.full_reports([]) == []

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(
        order=st.permutations(range(3 * measures.REPORT_CHUNK)),
        size=st.integers(1, 3 * measures.REPORT_CHUNK),
    )
    def test_reports_follow_the_states_through_any_chunking(self, order, size):
        # A state's report depends on that state alone: neither its chunk mates nor its place in a chunk.
        pool, reports = report_pool()
        picked = order[:size]
        assert report_bits(bd.full_reports([pool[i] for i in picked])) == [reports[i] for i in picked]

    def test_work_outside_the_search(self, rng, monkeypatch):
        # Each chunk takes S(rho) and S(rho_b) once for the stack, and the mutual information is never
        # computed. One pass over the chunk: one Pauli table, one eigvalsh of the states and one of their
        # partial transposes, one SVD for nonlocality; each chunk here holds Werner states, whose closed-form
        # discord takes one more SVD. The chunk reads no state's cached table or spectrum.
        stack = [ginibre_state(rng, rank=1 + i % 4) for i in range(20)] + [bd.werner(i / 19) for i in range(20)]
        chunks = -(-len(stack) // measures.REPORT_CHUNK)
        assert chunks > 1
        mutual = counting(monkeypatch, measures, "mutual_information")
        entropy = counting(monkeypatch, qmath, "entropy_bits")
        pauli = counting(monkeypatch, qmath, "pauli_coefficients")
        eigvalsh = counting(monkeypatch, np.linalg, "eigvalsh")
        svd = counting(monkeypatch, np.linalg, "svd")
        bd.full_reports(stack)
        assert (len(mutual), len(entropy)) == (0, 2 * chunks)
        assert (len(pauli), len(eigvalsh), len(svd)) == (chunks, 2 * chunks, 2 * chunks)


class TestLocalChannelMonotonicity:
    # E is an LOCC monotone (Vidal and Werner, PRA 65, 032314 (2002)). A local channel's
    # dual maps each +-1 observable to an operator of norm at most 1, so the CHSH and
    # steering maxima cannot grow. Discord, measured on b, does not grow under a channel
    # on a (Modi et al., Rev. Mod. Phys. 84, 1655 (2012)).
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4), kraus=st.integers(1, 4))
    def test_local_channels_never_raise_the_measures(self, seed, rank, kraus):
        rng = np.random.default_rng(seed)
        rho = ginibre_state(rng, rank=rank)
        outputs = []
        for lift in (lambda k: np.kron(k, np.eye(2)), lambda k: np.kron(np.eye(2), k)):
            ops = [lift(k) for k in random_channel(rng, kraus)]
            outputs.append(bd.DensityMatrix(sum(k @ rho.matrix @ k.conj().T for k in ops), validate=False))
        before, on_a, on_b = bd.full_reports([rho, *outputs])
        for after in (on_a, on_b):
            assert after.negativity <= before.negativity + 1e-12
            assert after.steering <= before.steering + 1e-12
            assert after.nonlocality <= before.nonlocality + 1e-12
        assert on_a.discord <= before.discord + 1e-10


class TestLocalUnitaryInvariance:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
    def test_measures_invariant(self, seed, rank):
        rng = np.random.default_rng(seed)
        rho = ginibre_state(rng, rank=rank)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = bd.DensityMatrix(u @ rho.matrix @ u.conj().T, validate=False)
        assert bd.negativity(rotated) == pytest.approx(bd.negativity(rho), abs=1e-9)
        assert bd.steering(rotated) == pytest.approx(bd.steering(rho), abs=1e-9)
        assert bd.nonlocality(rotated) == pytest.approx(bd.nonlocality(rho), abs=1e-9)
        assert bd.discord_oz(rotated) == pytest.approx(bd.discord_oz(rho), abs=1e-7)


class TestSwapSymmetry:
    # Discord measures qubit b only, so it is not symmetric and is left out.
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
    def test_symmetric_measures_ignore_the_qubit_order(self, seed, rank):
        rho = ginibre_state(np.random.default_rng(seed), rank=rank)
        swapped = bd.DensityMatrix(rho.matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4))
        for measure in (bd.negativity, bd.steering, bd.nonlocality, bd.coherence_l1, bd.nonlocal_coherence):
            assert measure(swapped) == pytest.approx(measure(rho), abs=1e-12), measure.__name__


class TestHierarchy:
    def test_implication_chain_on_random_states(self, rng):
        floor = 1e-9
        for i in range(200):
            rho = ginibre_state(rng, rank=1 + i % 4)
            r = bd.full_report(rho)
            chain = [
                r.nonlocality,
                r.steering,
                r.negativity,
                r.discord,
                max(0.0, r.nonlocal_coherence),
            ]
            for upper, lower in zip(chain, chain[1:]):
                assert not (upper > floor and lower <= floor), (chain, i)
