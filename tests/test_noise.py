import math
import re

import numpy as np
import pytest
from helpers import ginibre_state
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import apply_channel_superoperator

import belldiag as bd
from belldiag.exceptions import DimensionMismatchError, OutOfRangeError
from belldiag.measures import REPORT_CHUNK, bloch_decompose
from belldiag.noise import COMPLETENESS_ATOL, KrausChannel

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def single_qubit(diag0, diag1, off):
    return np.array([[diag0, off], [np.conj(off), diag1]], dtype=complex)


def product(m_a, m_b):
    """Two-qubit product state ``m_a x m_b``."""
    return bd.DensityMatrix(np.kron(m_a, m_b), validate=False)


# The partner qubit, which a channel on the other qubit leaves alone.
PARTNER = single_qubit(0.6, 0.4, 0.3 - 0.1j)


class TestCompositeDamping:
    def test_three_operators_complete(self):
        for a in (0.0, 0.3, 0.7, 1.0):
            for p in (0.0, 0.3, 1.0):
                channel = bd.composite_damping(a, p)
                assert len(channel.operators) == 3
                total = sum(k.conj().T @ k for k in channel.operators)
                assert np.max(np.abs(total - np.eye(2))) < COMPLETENESS_ATOL

    def test_zero_rates_identity_action(self, rng):
        channel = bd.composite_damping(0.0, 0.0)
        rho = ginibre_state(rng, rank=2)
        out = bd.apply_channel(channel, rho, qubit=0)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_full_amplitude_decay(self):
        damped = single_qubit(0.2, 0.8, 0.1 + 0.2j)
        ground = np.diag([1.0, 0.0])
        for p in (0.0, 0.5, 1.0):
            channel = bd.composite_damping(1.0, p)
            out = bd.apply_channel(channel, product(damped, PARTNER), qubit=0)
            np.testing.assert_allclose(out.matrix, np.kron(ground, PARTNER), atol=1e-12)
            out = bd.apply_channel(channel, product(PARTNER, damped), qubit=1)
            np.testing.assert_allclose(out.matrix, np.kron(PARTNER, ground), atol=1e-12)

    def test_off_diagonal_scale(self):
        channel = bd.composite_damping(0.3, 0.3)
        plus = single_qubit(0.5, 0.5, 0.5)
        out = bd.apply_channel(channel, product(plus, PARTNER), qubit=0)
        # Decay moves a = 0.3 of the |1> population to |0>; coherence scales by
        # sqrt((1 - a)(1 - p)) = 0.7.
        expected = single_qubit(0.5 + 0.3 * 0.5, 0.5 * 0.7, 0.5 * 0.7)
        np.testing.assert_allclose(out.matrix, np.kron(expected, PARTNER), atol=1e-12)

    def test_out_of_range(self):
        # None, a string or a complex rate is refused before the range comparison,
        # which would raise a bare TypeError.
        for a, p in ((-0.1, 0.5), (0.5, 1.2), (None, 0), (0, "0.5"), (0.1, 0.5j), (True, 0), (0, 10**400)):
            with pytest.raises(OutOfRangeError):
                bd.composite_damping(a, p)

    @pytest.mark.parametrize(
        "a, p, message",
        [(1.5, 0, "rate a must be in [0, 1], got 1.5"), (0, -0.5, "rate p must be in [0, 1], got -0.5")],
        ids=["a", "p"],
    )
    def test_out_of_range_message_names_the_rate(self, a, p, message):
        with pytest.raises(OutOfRangeError, match=re.escape(message)):
            bd.composite_damping(a, p)

    def test_channels_compare_and_hash_by_identity(self):
        # Comparing the operators by value would ask numpy for the truth value of an array.
        channel, twin = bd.composite_damping(0.3, 0.3), bd.composite_damping(0.3, 0.3)
        assert channel != twin and channel not in [twin]
        assert channel == channel and channel in {channel}

    def test_incomplete_channel_rejected(self):
        with pytest.raises(OutOfRangeError):
            KrausChannel(operators=(np.eye(2, dtype=complex) * 0.5,))
        for operators in ((), 5, None):
            with pytest.raises(OutOfRangeError):
                KrausChannel(operators=operators)

    @pytest.mark.parametrize("op", [np.eye(4), np.eye(1), np.ones((2, 3))], ids=["4x4", "1x1", "2x3"])
    def test_operators_act_on_one_qubit(self, op):
        # The 4x4 and 1x1 identities are complete channels, but not on one qubit.
        with pytest.raises(DimensionMismatchError):
            KrausChannel(operators=(op,))

    @pytest.mark.parametrize(
        "op",
        [np.full((2, 2), "1"), np.eye(2, dtype=bool), np.array([[1, 0], [0, 10**400]], dtype=object)],
        ids=["text", "bool", "huge-int"],
    )
    def test_operators_must_hold_numbers(self, op):
        # The boolean identity would be read as the identity channel.
        with pytest.raises(DimensionMismatchError):
            KrausChannel(operators=(op,))

    @pytest.mark.parametrize("order", ["transposed", "fortran-order"])
    def test_operators_in_any_memory_order(self, order):
        # The entry bound reads each operator as floats, which needs a C-ordered copy. The
        # Pauli matrices over 2 make the depolarizing channel, and so do their transposes.
        ops = tuple(p / 2 for p in bd.qmath.PAULIS)
        given = tuple(k.T for k in ops) if order == "transposed" else tuple(map(np.asfortranarray, ops))
        for k, held in zip(given, KrausChannel(operators=given).operators):
            np.testing.assert_array_equal(held, k)
            assert held.flags.c_contiguous

    # 1e300 is finite, but its square overflows the completeness sum.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
    def test_non_finite_operator_rejected(self, bad):
        k = np.eye(2, dtype=complex)
        k[1, 1] = bad
        with pytest.raises(OutOfRangeError):
            bd.apply_channel(KrausChannel(operators=(k,)), bd.werner(0.5), qubit=0)


class TestApplyChannel:
    def test_werner_correlation_scaling(self):
        channel = bd.composite_damping(0.3, 0.3)
        for w in (0.25, 0.5, 1.0):
            out = bd.apply_channel(channel, bd.werner(w), qubit=0)
            _, _, t = bloch_decompose(out)
            np.testing.assert_allclose(t, -0.7 * w * np.eye(3), atol=1e-12)

    def test_quarter_noise_keeps_nonlocality(self):
        out = bd.apply_channel(bd.composite_damping(0.25, 0.25), bd.werner(1.0), qubit=0)
        expected = (0.75 * SQRT2 - 1) / (SQRT2 - 1)
        assert bd.nonlocality(out) == pytest.approx(expected, abs=1e-12)

    def test_preserves_state_invariants(self, rng):
        channel = bd.composite_damping(0.4, 0.2)
        for _ in range(20):
            rho = ginibre_state(rng)
            out = bd.apply_channel(channel, rho, qubit=0)
            assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-10)
            assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(out.matrix)[0] > -1e-10

    def test_matches_superoperator(self, rng):
        channel = bd.composite_damping(0.35, 0.15)
        for qubit in (0, 1):
            for _ in range(10):
                rho = ginibre_state(rng)
                kraus_path = bd.apply_channel(channel, rho, qubit=qubit).matrix
                superop_path = apply_channel_superoperator(
                    channel.operators, rho.matrix, qubit, 2
                )
                assert np.max(np.abs(kraus_path - superop_path)) < 1e-10

    def test_dimension_checks(self):
        channel = bd.composite_damping(0.1, 0.1)
        for qubit in (2, -1):
            with pytest.raises(DimensionMismatchError, match=re.escape(f"qubit must be in [0, 1], got {qubit}")):
                bd.apply_channel(channel, bd.werner(0.5), qubit=qubit)

    @pytest.mark.parametrize("qubit", [True, False, 1.0, 0.0])
    def test_qubit_must_be_an_integer(self, qubit):
        # True would damp qubit 1; the floats would fail inside the reshape.
        with pytest.raises(DimensionMismatchError, match="integer"):
            bd.apply_channel(bd.composite_damping(0.3, 0.3), bd.werner(0.5), qubit=qubit)


class TestDecoheredSweep:
    def test_zero_noise_reproduces_theory(self):
        grid = np.linspace(0, 1, 5)
        for (w, noisy), clean in zip(
            bd.decohered_werner_sweep(0.0, 0.0, grid),
            (bd.full_report(bd.werner(float(w))) for w in grid),
        ):
            for a, b in zip(noisy.as_dict().values(), clean.as_dict().values()):
                assert a == pytest.approx(b, abs=1e-9)

    def test_thirty_percent_noise_kills_nonlocality(self):
        grid = np.linspace(0, 1, 11)
        results = bd.decohered_werner_sweep(0.3, 0.3, grid)
        assert all(report.nonlocality == 0.0 for _, report in results)
        s_final = results[-1][1].steering
        assert s_final == pytest.approx((0.7 * SQRT3 - 1) / (SQRT3 - 1), abs=1e-9)

    def test_monotone_under_noise(self):
        grid = np.linspace(0, 1, 6)
        noisy = bd.decohered_werner_sweep(0.3, 0.3, grid)
        for (w, nrep) in noisy:
            crep = bd.full_report(bd.werner(w))
            for key in ("nonlocal_coherence", "discord", "negativity", "steering", "nonlocality"):
                assert nrep.as_dict()[key] <= crep.as_dict()[key] + 1e-9

    def test_reports_match_one_state_at_a_time(self):
        # The sweep damps and measures its states as one stack; each report keeps the bits of full_report.
        # The grid spans three report chunks, so the chunk loop is compared too.
        grid = np.linspace(0, 1, 2 * REPORT_CHUNK + 7)
        channel = bd.composite_damping(0.3, 0.3)
        swept = bd.decohered_werner_sweep(0.3, 0.3, grid)
        assert [w for w, _ in swept] == [float(w) for w in grid]
        for w, report in swept:
            single = bd.full_report(bd.apply_channel(channel, bd.werner(w)))
            assert [float(v).hex() for v in report.as_dict().values()] == [
                float(v).hex() for v in single.as_dict().values()
            ]

    def test_empty_grid_rejected(self):
        with pytest.raises(OutOfRangeError):
            bd.decohered_werner_sweep(0.1, 0.1, [])
        # A grid that is not a sized collection, and weights that are not real numbers.
        for grid in (5, (w for w in (0.5,)), np.float64(0.5), ["0.5"], [True], [b"1"]):
            with pytest.raises(OutOfRangeError):
                bd.decohered_werner_sweep(0.1, 0.1, grid)

    def test_target_qubit_flag(self):
        out_b = bd.apply_channel(bd.composite_damping(0.3, 0.3), bd.werner(0.6), qubit=1)
        a, b, t = bloch_decompose(out_b)
        # damping the second qubit scales correlations identically but moves
        # the local Bloch shift to b instead of a
        np.testing.assert_allclose(t, -0.7 * 0.6 * np.eye(3), atol=1e-12)
        assert b[2] == pytest.approx(0.3, abs=1e-12)
        assert abs(a[2]) < 1e-12


rates = st.floats(0.0, 1.0, allow_nan=False)


class TestDampingMonotonicity:
    """Damping one qubit never raises a measure that is a monotone under local channels."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4), a=rates, p=rates)
    def test_entanglement_measures_on_either_qubit(self, seed, rank, a, p):
        rho = ginibre_state(np.random.default_rng(seed), rank=rank)
        channel = bd.composite_damping(a, p)
        for qubit in (0, 1):
            out = bd.apply_channel(channel, rho, qubit)
            for measure in (bd.negativity, bd.steering, bd.nonlocality):
                assert measure(out) <= measure(rho) + 1e-12, (measure.__name__, qubit)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4), a=rates, p=rates)
    def test_discord_on_unmeasured_qubit(self, seed, rank, a, p):
        # Discord measures qubit b; a channel on qubit a cannot raise it.
        rho = ginibre_state(np.random.default_rng(seed), rank=rank)
        out = bd.apply_channel(bd.composite_damping(a, p), rho, qubit=0)
        assert bd.discord_oz(out) <= bd.discord_oz(rho) + 1e-7

    def test_damping_measured_qubit_can_create_discord(self):
        # (|0><0| x |+><+| + |1><1| x |-><-|) / 2 has zero discord. Amplitude damping
        # on qubit b, the measured side, makes the two states of b non-orthogonal.
        plus = np.full((2, 2), 0.5, dtype=complex)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        m = (np.kron(np.diag([1.0, 0.0]), plus) + np.kron(np.diag([0.0, 1.0]), minus)) / 2
        rho = bd.DensityMatrix(m)
        assert bd.discord_oz(rho) == pytest.approx(0.0, abs=1e-9)
        out = bd.apply_channel(bd.composite_damping(0.5, 0.0), rho, qubit=1)
        assert bd.discord_oz(out) == pytest.approx(0.0576, abs=1e-4)
