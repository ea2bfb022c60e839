import hashlib
from fractions import Fraction

import numpy as np
import pytest
from helpers import ginibre_state
from hypothesis import given, settings
from hypothesis import strategies as st

import belldiag as bd
from belldiag import qmath, states, tomography
from belldiag.exceptions import DimensionMismatchError, OutOfRangeError
from belldiag.tomography import (
    SETTINGS,
    MeasurementSetting,
    TomographyCounts,
    counts_from_json,
    counts_to_json,
    exact_correlations,
)


def make_counts(shots, fill):
    """Counts with the same 4-tuple for every setting."""
    return TomographyCounts(
        shots_per_setting=shots, counts={s: tuple(fill) for s in SETTINGS}
    )


class TestBornProbabilities:
    def test_bell_zz_anticorrelated(self):
        probs = tomography.born_probabilities(bd.bell_state(1, 1), MeasurementSetting("Z", "Z"))
        np.testing.assert_allclose(probs, [0, 0.5, 0.5, 0], atol=1e-12)

    def test_maximally_mixed_uniform(self):
        rho = bd.bds_from_spec(bd.BdsSpec(0.25, 0.25, 0.25, 0.25))
        for setting in SETTINGS:
            np.testing.assert_allclose(tomography.born_probabilities(rho, setting), [0.25] * 4, atol=1e-12)

    def test_werner_half_xx(self):
        probs = tomography.born_probabilities(bd.werner(0.5), MeasurementSetting("X", "X"))
        np.testing.assert_allclose(probs, [0.125, 0.375, 0.375, 0.125], atol=1e-12)

    def test_normalized_and_nonnegative(self, rng):
        for _ in range(100):
            rho = ginibre_state(rng)
            for setting in SETTINGS:
                probs = tomography.born_probabilities(rho, setting)
                assert np.all(probs >= 0)
                assert np.sum(probs) == pytest.approx(1.0, abs=1e-12)


class TestSampleCounts:
    def test_deterministic_outcome(self):
        zero = bd.DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex), validate=False)
        counts = bd.sample_counts(zero, shots=8192, seed=11)
        assert counts.counts[MeasurementSetting("Z", "Z")] == (8192, 0, 0, 0)

    def test_same_seed_identical(self):
        a = bd.sample_counts(bd.werner(0.5), 2048, seed=3)
        b = bd.sample_counts(bd.werner(0.5), 2048, seed=3)
        assert a.counts == b.counts

    def test_different_seeds_differ(self):
        a = bd.sample_counts(bd.werner(0.5), 2048, seed=3)
        b = bd.sample_counts(bd.werner(0.5), 2048, seed=4)
        assert a.counts != b.counts

    def test_large_sample_concentration(self):
        rho = bd.bds_from_spec(bd.BdsSpec(0.25, 0.25, 0.25, 0.25))
        counts = bd.sample_counts(rho, shots=10**6, seed=0)
        for setting in SETTINGS:
            freqs = np.asarray(counts.counts[setting]) / 10**6
            assert np.max(np.abs(freqs - 0.25)) < 0.005

    @pytest.mark.parametrize("shots", [1, 8192, np.iinfo(np.int64).max])
    def test_counts_are_python_ints(self, shots):
        counts = bd.sample_counts(bd.werner(0.5), shots, seed=7)
        assert all(type(row) is tuple and len(row) == 4 for row in counts.counts.values())
        assert all(type(v) is int for row in counts.counts.values() for v in row)

    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            bd.sample_counts(bd.werner(0.5), shots=0, seed=1)
        for shots in (2**63, 2**64, 100.5, 100.0, "100", True):
            with pytest.raises(OutOfRangeError):
                bd.sample_counts(bd.werner(0.5), shots=shots, seed=1)
        # int(seed) would read 1.9, 1.0 and True as the seed 1.
        for seed in (1.9, 1.0, True, None, "1"):
            with pytest.raises(OutOfRangeError, match="integer"):
                bd.sample_counts(bd.werner(0.5), shots=100, seed=seed)
        with pytest.raises(OutOfRangeError):
            make_counts(10, (5, 5, 5, 5))  # sums to 20
        with pytest.raises(OutOfRangeError):
            TomographyCounts(4, {s: 4 for s in SETTINGS})  # a count that is not a row of four
        for counts in (5, None, list(SETTINGS)):  # not a mapping of settings to rows
            with pytest.raises(OutOfRangeError):
                TomographyCounts(8, counts)

    def test_largest_shot_count(self):
        shots = np.iinfo(np.int64).max
        counts = bd.sample_counts(bd.werner(0.5), shots=np.int64(shots), seed=1)
        assert counts.shots_per_setting == shots


class TestStackedKernels:
    """Each row of a stacked kernel has the bits of the per-state call on that row alone."""

    # T = I is unphysical (its singlet eigenvalue is -1/2), so every stack has a projected row.
    UNPHYSICAL = np.eye(4)

    @staticmethod
    def states(seed, size):
        rng = np.random.default_rng(seed)
        return [ginibre_state(rng, rank=int(rng.integers(1, 5))) for _ in range(size)]

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        state_seed=st.integers(0, 2**32 - 1),
        shots=st.sampled_from([1, 8192, 2**63 - 1]),
        seeds=st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=6),
    )
    def test_sampler_rows_are_sample_counts(self, state_seed, shots, seeds):
        # A negative seed and one of at least 2**64 reach the generator through the 64-bit mask.
        seeds = seeds + [-1, 2**64 + 3]
        rhos = self.states(state_seed, len(seeds))
        counts = tomography._sampled_counts(np.array([rho.pauli for rho in rhos]), shots, seeds)
        assert counts.shape == (len(seeds), 9, 4)
        for rho, seed, row in zip(rhos, seeds, counts):
            expected = bd.sample_counts(rho, shots, seed).counts
            assert row.tolist() == [list(expected[s]) for s in SETTINGS]

    def test_sampler_keeps_the_counts_checks(self, monkeypatch):
        # The record's checks run once on the stack: counts that miss the shot count are refused.
        class Miscounting(np.random.Generator):
            def multinomial(self, n, pvals):
                return super().multinomial(n, pvals) + np.array([1, 0, 0, 0])

        monkeypatch.setattr(np.random, "Generator", Miscounting)
        with pytest.raises(OutOfRangeError, match="non-negative and sum to 8"):
            tomography._sampled_counts(np.array([bd.bell_state(0, 0).pauli]), 8, [1])

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(state_seed=st.integers(0, 2**32 - 1), shots=st.sampled_from([16, 64, 256]), size=st.integers(1, 8))
    def test_reconstruct_and_fidelity_rows_are_per_state_calls(self, state_seed, shots, size):
        rhos = self.states(state_seed, size)
        counts = tomography._sampled_counts(np.array([rho.pauli for rho in rhos]), shots, range(size))
        c = np.concatenate([tomography._estimated(counts, shots), [self.UNPHYSICAL]])
        physical, projected, raw = tomography._reconstructed(c)
        assert projected[-1]
        targets = np.array([rho.matrix for rho in rhos] + [bd.werner(0.5).matrix])
        fidelities = states._fidelities(physical, targets)
        for i, row in enumerate(c):
            expected = bd.reconstruct(row)
            assert bool(projected[i]) is expected.projected
            assert physical[i].tobytes() == expected.state.matrix.tobytes()
            assert raw[i].tobytes() == expected.raw_matrix.tobytes()
            fidelity = bd.fidelity(expected.state, bd.DensityMatrix(targets[i], validate=False))
            assert fidelities[i].tobytes() == np.float64(fidelity).tobytes()

    def test_stacked_checks_name_the_first_bad_table(self):
        bad = np.stack([np.eye(4), np.diag([0.5, 0, 0, 0]), np.diag([2.0, 0, 0, 0])])
        with pytest.raises(OutOfRangeError, match=r"c\[0\]\[0\] must be exactly 1, got np.float64\(0.5\)"):
            tomography._reconstructed(bad)
        bad[1:, 0, 0] = 1.0
        bad[2, 1, 2] = np.nan
        with pytest.raises(OutOfRangeError, match="finite and lie in"):
            tomography._reconstructed(bad)


class TestTomographyCounts:
    def test_holds_its_own_copy_of_the_counts(self):
        # Changing the caller's mapping or rows after validation changes nothing.
        d = {s: [4, 0, 0, 0] for s in SETTINGS}
        tc = TomographyCounts(4, d)
        before = bd.estimate_correlations(tc)
        d[SETTINGS[0]] = (400, 0, 0, 0)
        d[SETTINGS[4]][0] = 400
        np.testing.assert_array_equal(bd.estimate_correlations(tc), before)
        assert tc.counts[SETTINGS[0]] == (4, 0, 0, 0) and tc.counts[SETTINGS[4]] == (4, 0, 0, 0)
        with pytest.raises(TypeError):
            tc.counts[SETTINGS[0]] = (0, 4, 0, 0)
        assert dict(make_counts(4, (np.int64(4), 0, 0, 0)).counts) == {s: (4, 0, 0, 0) for s in SETTINGS}

    def test_numpy_integer_rows_are_held_as_int(self):
        rows = {s: bd.sample_counts(bd.werner(0.5), 64, seed=2).counts[s] for s in SETTINGS}
        as_numpy = TomographyCounts(64, {s: np.array(row, dtype=np.int64) for s, row in rows.items()})
        as_int = TomographyCounts(64, rows)
        assert all(type(v) is int for row in as_numpy.counts.values() for v in row)
        assert as_numpy == as_int
        assert counts_to_json(as_numpy).encode() == counts_to_json(as_int).encode()

    def test_negative_count_named_by_setting(self):
        with pytest.raises(OutOfRangeError, match=r"XX count must be in \[0, inf\], got -1"):
            make_counts(4, (5, -1, 0, 0))

    def test_non_integer_counts_rejected(self):
        with pytest.raises(OutOfRangeError, match="integer"):
            TomographyCounts(4, {s: (2.5, 1.5, 0, 0) for s in SETTINGS})

    def test_non_integer_shots_rejected(self):
        for shots, fill in ((4.0, (4, 0, 0, 0)), (4.5, (4.5, 0, 0, 0)), (True, (1, 0, 0, 0))):
            with pytest.raises(OutOfRangeError, match="integer"):
                make_counts(shots, fill)

    @pytest.mark.parametrize("extra", ["XX", ("X", "X")], ids=["string", "tuple"])
    def test_settings_are_exactly_the_nine(self, extra):
        counts = {s: (4, 0, 0, 0) for s in SETTINGS}
        counts[extra] = (4, 0, 0, 0)
        with pytest.raises(OutOfRangeError, match="exactly"):
            TomographyCounts(4, counts)

    @pytest.mark.parametrize(
        "bases",
        [("W", "Q"), ("W", "X"), ("X", "x"), ("X", None), (np.array(["X", "Y"]), "X"), ("X", np.array(["Z"]))],
        ids=["WQ", "WX", "Xx", "XNone", "array-XY", "array-Z"],
    )
    def test_unknown_basis_rejected(self, bases):
        with pytest.raises(OutOfRangeError, match="bases"):
            tomography.born_probabilities(bd.werner(0.5), MeasurementSetting(*bases))


class TestEstimateCorrelations:
    def test_exact_werner(self):
        for w in (0.2, 0.5, 1.0):
            c = exact_correlations(bd.werner(w))
            np.testing.assert_allclose(np.diag(c)[1:], [-w] * 3, atol=1e-12)
            off = c - np.diag(np.diag(c))
            assert np.max(np.abs(off)) < 1e-12
            assert c[0, 0] == 1.0

    def test_all_plus_plus(self):
        counts = make_counts(100, (100, 0, 0, 0))
        np.testing.assert_allclose(bd.estimate_correlations(counts), np.ones((4, 4)))

    def test_uniform(self):
        counts = make_counts(100, (25, 25, 25, 25))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(bd.estimate_correlations(counts), expected)

    def test_clip_holds_above_2_53_shots(self):
        # The counts fit no float: n = 2**53 + 3 rounds to 2**53 + 4 and the shots 2**54 + 2
        # to 2**54, so each c_jk comes out 1 + 2**-52, which the 1e-12 tolerance of
        # reconstruct would accept. Only the clip keeps it at 1.
        shots, row = 2**54 + 2, (2**53 + 3, 0, 0, 2**53 - 1)
        assert np.array(row, dtype=float) @ [1, -1, -1, 1] / shots == 1 + 2**-52
        c = bd.estimate_correlations(make_counts(shots, row))
        assert np.abs(c).max() == 1.0

    def test_matches_per_setting_sums(self, rng):
        # Per-setting sums in exact rationals, rounded once: the estimate is the
        # correctly rounded value for any shot count, not only powers of two.
        for shots in (3, 777, 1000, 8192, 12345):
            counts = bd.sample_counts(ginibre_state(rng), shots, seed=shots)
            want = [[Fraction(0)] * 4 for _ in range(4)]
            want[0][0] = Fraction(1)
            for setting in SETTINGS:
                pp, pm, mp, mm = counts.counts[setting]
                j, k = "XYZ".index(setting.basis_a) + 1, "XYZ".index(setting.basis_b) + 1
                want[j][k] = Fraction(pp + mm - pm - mp, shots)
                want[j][0] += Fraction(pp + pm - mp - mm, 3 * shots)
                want[0][k] += Fraction(pp + mp - pm - mm, 3 * shots)
            np.testing.assert_array_equal(
                bd.estimate_correlations(counts), np.array(want, dtype=float)
            )

    def test_matches_pauli_expectations(self, rng):
        for _ in range(100):
            rho = ginibre_state(rng)
            c = exact_correlations(rho)
            for j in range(4):
                for k in range(4):
                    direct = float(
                        np.trace(rho.matrix @ np.kron(qmath.PAULIS[j], qmath.PAULIS[k])).real
                    )
                    assert c[j, k] == pytest.approx(direct, abs=1e-12)


class TestReconstruct:
    def test_exact_werner_not_projected(self):
        result = bd.reconstruct(exact_correlations(bd.werner(0.5)))
        assert not result.projected
        np.testing.assert_allclose(result.state.matrix, bd.werner(0.5).matrix, atol=1e-12)

    def test_identity_correlations(self):
        c = np.zeros((4, 4))
        c[0, 0] = 1.0
        result = bd.reconstruct(c)
        np.testing.assert_allclose(result.state.matrix, np.eye(4) / 4, atol=1e-14)

    def test_results_compare_and_hash_by_identity(self):
        # The raw matrix is an array, which has no hash and no one truth value to compare by.
        result, twin = (bd.reconstruct(exact_correlations(bd.werner(0.5))) for _ in range(2))
        assert result != twin and result not in [twin]
        assert result == result and result in {result}

    def test_unphysical_projected(self):
        # In-range correlations can still be unphysical: this one has a
        # linear-inversion eigenvalue of -1/2.
        c = np.zeros((4, 4))
        c[0, 0] = c[1, 1] = c[2, 2] = c[3, 3] = 1.0
        result = bd.reconstruct(c)
        assert result.projected
        w = np.linalg.eigvalsh(result.state.matrix)
        assert w[0] > -1e-12
        assert np.trace(result.state.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(result.raw_matrix)[0] < -0.4

    def test_out_of_range_entries_rejected(self):
        c = np.zeros((4, 4))
        c[0, 0] = 1.0
        c[3, 3] = 1.2
        with pytest.raises(OutOfRangeError):
            bd.reconstruct(c)
        for c00 in (0.5, np.nan):
            with pytest.raises(OutOfRangeError, match="must be exactly 1"):
                bd.reconstruct(np.diag([c00, 1.0, 1.0, 1.0]))

    @pytest.mark.parametrize(
        "values",
        [1j, np.eye(4, dtype=complex), np.eye(4, dtype=bool), np.full((4, 4), "0")],
        ids=["complex", "complex-array", "bool", "text"],
    )
    def test_non_real_entries_rejected(self, values):
        # np.array(..., dtype=float) would drop an imaginary part and read booleans and text.
        with pytest.raises(DimensionMismatchError):
            bd.reconstruct(values)

    @pytest.mark.parametrize(
        "values", [np.eye(3), np.eye(4).ravel(), np.eye(4)[:, :, None]], ids=["3x3", "16", "4x4x1"]
    )
    def test_wrong_shape_rejected(self, values):
        # The one size check between reconstruct and qmath, which checks no sizes.
        with pytest.raises(DimensionMismatchError, match="must be a 4x4 array"):
            bd.reconstruct(values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        c = np.eye(4)
        c[1, 2] = bad
        with pytest.raises(OutOfRangeError):
            bd.reconstruct(c)

    def test_any_array_form_gives_the_same_bits(self, rng):
        # reconstruct reads c into its own C-ordered copy, so the caller's layout cannot matter.
        c = bd.estimate_correlations(bd.sample_counts(ginibre_state(rng), 300, seed=5))
        read_only = c.copy()
        read_only.setflags(write=False)
        expected = bd.reconstruct(np.ascontiguousarray(c))
        for form in (c.tolist(), read_only, np.asfortranarray(c)):
            result = bd.reconstruct(form)
            assert result.projected is expected.projected
            assert np.array_equal(result.state.matrix, expected.state.matrix)
            assert np.array_equal(result.raw_matrix, expected.raw_matrix)

    def test_round_trip_on_random_states(self, rng):
        for _ in range(100):
            rho = ginibre_state(rng)
            result = bd.reconstruct(exact_correlations(rho))
            assert np.max(np.abs(result.state.matrix - rho.matrix)) < 1e-10


class TestTomograph:
    def test_exact_mode_round_trip(self, rng):
        for _ in range(10):
            rho = ginibre_state(rng)
            out = bd.tomograph(rho, shots=0).state
            assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-10
        # 0 is the lowest shot count accepted, and the message says so.
        with pytest.raises(OutOfRangeError, match=r"shots must be in \[0, "):
            bd.tomograph(rho, shots=-1)

    def test_shot_noise_fidelity(self):
        target = bd.werner(1.0)
        for seed in range(5):
            out = bd.tomograph(target, shots=8192, seed=seed).state
            assert bd.fidelity(out, target) >= 0.98

    def test_seed_changes_output(self):
        a = bd.tomograph(bd.werner(0.5), shots=512, seed=0).state
        b = bd.tomograph(bd.werner(0.5), shots=512, seed=1).state
        assert np.max(np.abs(a.matrix - b.matrix)) > 1e-6

    @pytest.mark.parametrize(
        "rho, shots, seed, projected",
        [
            (bd.werner(0.5), 0, 0, False),
            (bd.werner(0.5), 512, 3, False),
            # A pure state at a few hundred shots reconstructs with a negative eigenvalue.
            (bd.bell_state(1, 1), 300, 3, True),
        ],
        ids=["exact", "sampled", "sampled-projected"],
    )
    def test_returns_the_reconstruction_of_the_explicit_chain(self, rho, shots, seed, projected):
        if shots == 0:
            c = exact_correlations(rho)
        else:
            c = bd.estimate_correlations(bd.sample_counts(rho, shots, seed))
        expected = bd.reconstruct(c)
        result = bd.tomograph(rho, shots, seed)
        assert result.projected is expected.projected is projected
        assert np.array_equal(result.state.matrix, expected.state.matrix)
        assert np.array_equal(result.raw_matrix, expected.raw_matrix)

    @pytest.mark.parametrize("shots", [False, 0.0])
    def test_shots_must_be_an_integer(self, shots):
        # Read as 0 they would select exact mode, which sample_counts refuses to be asked for.
        with pytest.raises(OutOfRangeError, match="integer"):
            bd.tomograph(bd.werner(0.5), shots)

    @pytest.mark.parametrize("shots", [0, 16])
    @pytest.mark.parametrize("seed", [True, 1.5, "x", None])
    def test_seed_must_be_an_integer(self, shots, seed):
        # Exact mode draws nothing, but its seed is read all the same.
        with pytest.raises(OutOfRangeError, match="seed must be an integer"):
            bd.tomograph(bd.werner(0.5), shots, seed)

    def test_convergence_at_default_shot_count(self):
        rho = bd.werner(0.5)
        exact = exact_correlations(rho)
        for seed in range(30):
            counts = bd.sample_counts(rho, shots=8192, seed=seed)
            estimated = bd.estimate_correlations(counts)
            assert np.max(np.abs(estimated - exact)) < 0.05

    def test_round_trip_keeps_its_bytes(self):
        # sha-256 over round trips shaped like the benchmark's: 11 Werner weights, clean and damped at
        # (0.3, 0.3), 8192 shots and exact. It covers the counts, the table, the reconstructed state,
        # the projection flag, the raw matrix and the fidelity. A change that moves these bytes on
        # purpose records it and updates the digest.
        channel = bd.composite_damping(0.3, 0.3)
        digest, projected = hashlib.sha256(), 0
        for i in range(11):
            for damped in (False, True):
                target = bd.apply_channel(channel, bd.werner(i / 10)) if damped else bd.werner(i / 10)
                for shots in (8192, 0):
                    state = bd.prepared_state(bd.werner_spec(i / 10))
                    if damped:
                        state = bd.apply_channel(channel, state, qubit=0)
                    if shots:
                        counts = bd.sample_counts(state, shots, seed=4 * i + 2 * damped + 1)
                        digest.update(np.array([counts.counts[s] for s in SETTINGS], dtype=np.int64).tobytes())
                        c = bd.estimate_correlations(counts)
                    else:
                        c = exact_correlations(state)
                    result = bd.reconstruct(c)
                    fid = bd.fidelity(result.state, target)
                    parts = (c, result.state.matrix, np.bool_(result.projected), result.raw_matrix, np.float64(fid))
                    for part in parts:
                        digest.update(part.tobytes())
                    projected += result.projected
        assert projected >= 1
        assert digest.hexdigest() == "b74b79fdf50912ec3116eb9a918ed08ce08da6b3cf2ad0c01106a33f723e78ff"


class TestCountsJson:
    def test_round_trip(self):
        counts = bd.sample_counts(bd.werner(0.5), 999, seed=5)
        back = counts_from_json(counts_to_json(counts))
        assert back == counts

    def test_deterministic_serialization(self):
        a = counts_to_json(bd.sample_counts(bd.werner(0.5), 512, seed=9))
        b = counts_to_json(bd.sample_counts(bd.werner(0.5), 512, seed=9))
        assert a == b

    def test_missing_setting_rejected(self):
        text = counts_to_json(bd.sample_counts(bd.werner(0.5), 100, seed=1))
        import json

        payload = json.loads(text)
        del payload["settings"]["XY"]
        with pytest.raises(OutOfRangeError):
            counts_from_json(json.dumps(payload))

    def test_bad_sums_rejected(self):
        text = counts_to_json(bd.sample_counts(bd.werner(0.5), 100, seed=1))
        import json

        payload = json.loads(text)
        payload["settings"]["XX"]["pp"] += 1
        with pytest.raises(OutOfRangeError):
            counts_from_json(json.dumps(payload))

    def test_non_integer_numbers_rejected(self):
        text = counts_to_json(bd.sample_counts(bd.werner(0.5), 8192, seed=1))
        import json

        payload = json.loads(text)
        payload["settings"]["XX"] = {"pp": 4096.5, "pm": 4096.5, "mp": 0, "mm": 0}
        with pytest.raises(OutOfRangeError):
            counts_from_json(json.dumps(payload))
        payload = json.loads(text)
        payload["shots"] = 8192.9
        with pytest.raises(OutOfRangeError):
            counts_from_json(json.dumps(payload))

    @pytest.mark.parametrize("shots", [True, 1])
    def test_boolean_numbers_rejected(self, shots):
        # With true read as 1, every setting sums to the shot count and reconstructs.
        import json

        settings = {s.key: {"pp": True, "pm": 0, "mp": 0, "mm": 0} for s in SETTINGS}
        with pytest.raises(OutOfRangeError, match="integer"):
            counts_from_json(json.dumps({"shots": shots, "settings": settings}))
