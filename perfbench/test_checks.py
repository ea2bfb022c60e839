"""Self-tests of the benchmark's references and checks.

Run with ``python3 -m pytest perfbench``. The references are tested against
brute force on their own; every check is shown to pass on a real output of
the program and to fail on a deliberately corrupted copy of it.
"""

import json
import math

import numpy as np
import pytest
from oracles import apply_channel_superoperator, discord_grid_oracle, negativity_bruteforce

import belldiag as bd
import checks
import reference as ref
from belldiag.cli import main as cli_main


@pytest.fixture
def rng():
    return np.random.default_rng(4242)


def run_cli(capsys, *argv) -> str:
    assert cli_main(list(argv)) == 0
    return capsys.readouterr().out


def bell_diagonal(p) -> np.ndarray:
    """sum_jk p_jk |b_jk><b_jk| with |b_jk> = (|0 k> + (-1)^j |1 k^1>)/sqrt(2)."""
    rho = np.zeros((4, 4), dtype=complex)
    for (j, k), weight in zip(((0, 0), (0, 1), (1, 0), (1, 1)), p):
        v = np.zeros(4, dtype=complex)
        v[k] = 1 / math.sqrt(2)
        v[2 + (k ^ 1)] = (-1) ** j / math.sqrt(2)
        rho += weight * np.outer(v, v.conj())
    return rho


def corrupt_csv(text: str, row: int, column: str, value: float) -> str:
    lines = text.split("\n")
    cells = lines[1 + row].split(",")
    cells[checks.COLUMN[column]] = f"{value:.6f}"
    lines[1 + row] = ",".join(cells)
    return "\n".join(lines)


# ---------------------------------------------------------------- references


def test_luo_closed_form_matches_dense_grid_oracle(rng):
    for p in rng.dirichlet(np.ones(4), size=4):
        rho = bell_diagonal(p)
        luo = ref.luo_discord(rho)
        oracle = discord_grid_oracle(rho, *checks.ORACLE_GRID)
        assert luo - 1e-9 <= oracle <= luo + checks.ORACLE_BELOW_ATOL


def test_luo_closed_form_anchors_and_domain(rng):
    assert ref.luo_discord(ref.werner_matrix(0.0)) == pytest.approx(0.0, abs=1e-12)
    assert ref.luo_discord(ref.werner_matrix(1.0)) == pytest.approx(1.0, abs=1e-12)
    assert ref.luo_discord(bell_diagonal(ref.werner_probabilities(0.4))) == pytest.approx(
        ref.luo_discord(ref.werner_matrix(0.4)), abs=1e-12
    )
    with pytest.raises(ValueError):
        ref.luo_discord(ref.ginibre_matrix(rng, 4))


def test_werner_closed_forms_match_brute_force():
    for w in np.linspace(0.0, 1.0, 21):
        rho = ref.werner_matrix(w)
        closed = ref.werner_closed_forms(w)
        s, n = ref.steering_and_nonlocality(rho)
        assert ref.nonlocal_coherence(rho) == pytest.approx(closed["C"], abs=1e-12)
        assert negativity_bruteforce(rho) == pytest.approx(closed["E"], abs=1e-12)
        assert s == pytest.approx(closed["S"], abs=1e-12)
        assert n == pytest.approx(closed["N"], abs=1e-12)


def test_werner_matrix_is_the_weighted_singlet_mixture():
    rho = ref.werner_matrix(0.3)
    assert np.allclose(rho, bell_diagonal(ref.werner_probabilities(0.3)), atol=1e-15)
    assert np.allclose(ref.reduced_a(rho), np.eye(2) / 2, atol=1e-15)


def test_steering_after_damping_closed_form():
    damped = apply_channel_superoperator(ref.damping_kraus(0.3, 0.3), ref.werner_matrix(1.0), 0, 2)
    s, _ = ref.steering_and_nonlocality(damped)
    expected = (0.7 * ref.SQRT3 - 1) / (ref.SQRT3 - 1)
    assert checks.steering_after_damping(0.3, 0.3) == pytest.approx(expected, abs=1e-12)
    assert s == pytest.approx(expected, abs=1e-12)


def test_damping_kraus_is_trace_preserving():
    for a, p in ((0.0, 0.0), (0.3, 0.3), (1.0, 0.5)):
        total = sum(k.conj().T @ k for k in ref.damping_kraus(a, p))
        assert np.allclose(total, np.eye(2), atol=1e-15)


def test_linear_inversion_is_exact_on_exact_frequencies(rng):
    for rank in (1, 2, 4):
        rho = ref.ginibre_matrix(rng, rank)
        exact = {key: ref.born_probabilities(rho, key) * 1000 for key in ref.SETTING_KEYS}
        assert np.allclose(ref.linear_inversion(exact, 1000), rho, atol=1e-12)


def test_projection_only_when_an_eigenvalue_is_negative(rng):
    rho = ref.ginibre_matrix(rng, 4)
    same, projected = ref.project_physical(rho)
    assert not projected and same is rho
    # A negative diagonal entry forces a negative eigenvalue; the trace stays 1.
    shift = rho[0, 0].real + 0.05
    bent = rho + np.diag([-shift, shift, 0.0, 0.0])
    fixed, projected = ref.project_physical(bent)
    assert projected
    assert np.linalg.eigvalsh(fixed)[0] >= -1e-12
    assert np.trace(fixed).real == pytest.approx(1.0, abs=1e-12)


def test_sampled_counts_follow_the_seed(rng):
    rho = ref.werner_matrix(0.5)
    a = ref.sample_counts(rho, 8192, np.random.default_rng(7))
    b = ref.sample_counts(rho, 8192, np.random.default_rng(7))
    assert a == b
    assert all(sum(a[key]) == 8192 for key in ref.SETTING_KEYS)


# ---------------------------------------------------------------- checks


def test_prepare_check(capsys):
    out = run_cli(capsys, "prepare", "--werner", "0.5", "--qasm")
    assert checks.prepare_problems(out, 0.5) == []
    assert checks.prepare_problems(out, 0.6)

    doc_text, _, qasm = out.partition("\n\n")
    doc = json.loads(doc_text)
    doc["state"]["re"][1][2] += 1e-6
    assert checks.prepare_problems(json.dumps(doc) + "\n\n" + qasm, 0.5)
    doc = json.loads(doc_text)
    doc["theta"] += 1e-3
    assert checks.prepare_problems(json.dumps(doc) + "\n\n" + qasm, 0.5)
    assert checks.prepare_problems(doc_text + "\n", 0.5)
    assert checks.prepare_problems(out.replace("h q[2];", "h q[4];"), 0.5)


def test_measure_check(capsys, tmp_path, rng):
    rho = ref.ginibre_matrix(rng, 3)
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"n_qubits": 2, "re": rho.real.tolist(), "im": rho.imag.tolist()}))
    out = run_cli(capsys, "measure", str(path))
    oracle = checks.discord_oracle(rho)
    assert checks.measure_problems(out, rho, oracle) == []

    for key, delta in (("negativity", 1e-6), ("coherence_l1", 1e-6), ("steering", 1e-6), ("discord", 1e-3)):
        doc = json.loads(out)
        doc["measures"][key] += delta
        assert checks.measure_problems(json.dumps(doc), rho, oracle), key
    doc = json.loads(out)
    doc["diagnostics"]["trace"] = 0.99
    assert checks.measure_problems(json.dumps(doc), rho, oracle)


def test_tomograph_check(capsys, tmp_path, rng):
    counts = ref.sample_counts(ref.werner_matrix(0.9), 8192, rng)
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(ref.counts_document(counts, 8192)))
    out = run_cli(capsys, "tomograph", str(path))
    expected, projected = checks.expected_reconstruction(counts, 8192)
    oracle = checks.discord_oracle(expected)
    assert checks.tomograph_problems(out, expected, projected, oracle) == []

    doc = json.loads(out)
    doc["state"]["re"][0][0] += 1e-6
    doc["state"]["re"][3][3] -= 1e-6
    assert checks.tomograph_problems(json.dumps(doc), expected, projected, oracle)
    doc = json.loads(out)
    doc["projected"] = not doc["projected"]
    assert checks.tomograph_problems(json.dumps(doc), expected, projected, oracle)
    doc = json.loads(out)
    doc["measures"]["nonlocality"] += 1e-6
    assert checks.tomograph_problems(json.dumps(doc), expected, projected, oracle)


def test_sweep_check(capsys):
    out = run_cli(capsys, "sweep", "--points", "11", "--shots", "8192", "--seed", "3")
    assert checks.sweep_problems(out, 11) == []
    assert checks.sweep_problems(out, 12)
    assert checks.sweep_problems(corrupt_csv(out, 5, "D_th", 0.27), 11)
    assert checks.sweep_problems(corrupt_csv(out, 5, "C_th", 0.6), 11)
    assert checks.sweep_problems(corrupt_csv(out, 5, "F", 0.96), 11)
    # w = 1: every measure is positive, so a zero negativity breaks the chain.
    assert checks.sweep_problems(corrupt_csv(out, 10, "E", 0.0), 11)


def test_noisy_sweep_check(capsys):
    out = run_cli(capsys, "sweep", "--points", "11", "--shots", "0", "--noise", "0.3,0.3")
    assert checks.noisy_sweep_problems(out, 11, 0.3, 0.3) == []
    assert checks.noisy_sweep_problems(out, 11, 0.25, 0.25)
    assert checks.noisy_sweep_problems(corrupt_csv(out, 10, "N", 0.01), 11, 0.3, 0.3)
    assert checks.noisy_sweep_problems(corrupt_csv(out, 10, "S", 0.5), 11, 0.3, 0.3)
    assert checks.noisy_sweep_problems(corrupt_csv(out, 4, "E", 0.2), 11, 0.3, 0.3)
    assert checks.noisy_sweep_problems(corrupt_csv(out, 4, "F", 0.5), 11, 0.3, 0.3)


def test_roundtrip_check(rng):
    w = 0.7
    target = ref.werner_matrix(w)
    state = bd.prepared_state(bd.werner_spec(w))
    counts = bd.sample_counts(state, 8192, 5)
    result = bd.reconstruct(bd.estimate_correlations(counts))
    fid = bd.fidelity(result.state, bd.DensityMatrix(target))
    keyed = {s.key: list(v) for s, v in counts.counts.items()}
    args = (result.state.matrix, result.projected, fid, target, state.matrix, keyed, 8192)
    assert checks.roundtrip_problems("rt", *args) == []

    bent = result.state.matrix.copy()
    bent[0, 1] += 1e-6
    bent[1, 0] += 1e-6
    assert checks.roundtrip_problems("rt", bent, *args[1:])
    assert checks.roundtrip_problems("rt", result.state.matrix, not result.projected, *args[2:])
    assert checks.roundtrip_problems("rt", *args[:3], ref.werner_matrix(0.69), *args[4:])

    exact = bd.reconstruct(bd.exact_correlations(state))
    assert checks.roundtrip_problems("rt", exact.state.matrix, False, 1.0, target, state.matrix, None, 0) == []
    assert checks.roundtrip_problems("rt", result.state.matrix, False, 1.0, target, state.matrix, None, 0)


def test_report_check(rng):
    rho = ref.ginibre_matrix(rng, 2)
    values = bd.full_report(bd.DensityMatrix(rho)).as_dict()
    assert checks.report_problems("r", values, rho) == []
    for key in ("coherence_l1", "nonlocal_coherence", "negativity", "steering", "nonlocality"):
        assert checks.report_problems("r", dict(values, **{key: values[key] + 1e-6}), rho), key
    mutual = ref.entropy_bits(np.linalg.eigvalsh(ref.reduced_a(rho))) + ref.entropy_bits(
        np.linalg.eigvalsh(ref.reduced_b(rho))
    ) - ref.entropy_bits(np.linalg.eigvalsh(rho))
    assert checks.report_problems("r", dict(values, discord=mutual + 1e-3), rho)
    assert checks.report_problems("r", dict(values, discord=-1e-3), rho)


def test_chain_check():
    assert checks.chain_problems("c", (0.0, 0.1, 0.2, 0.3, 0.4), checks.CHAIN_FLOOR) == []
    assert checks.chain_problems("c", (0.1, 0.0, 0.2, 0.3, 0.4), checks.CHAIN_FLOOR)
    assert checks.chain_problems("c", (0.0, 0.0, 0.0, 0.3, 0.0), checks.CHAIN_FLOOR)


def test_discord_oracle_check():
    assert checks.discord_oracle_problems("d", 0.5, 0.5) == []
    assert checks.discord_oracle_problems("d", 0.5 - 1e-3, 0.5)
    assert checks.discord_oracle_problems("d", 0.5 + 1e-5, 0.5)


def test_fidelity_statistics_check():
    assert checks.fidelity_stats_problems("f", [0.995] * 9 + [0.975]) == []
    assert checks.fidelity_stats_problems("f", [0.995] * 9 + [0.965])
    assert checks.fidelity_stats_problems("f", [0.985] * 10)


def test_state_check():
    good = ref.werner_matrix(0.5)
    assert checks.state_problems("s", good) == []
    assert checks.state_problems("s", good * 1.01)
    assert checks.state_problems("s", good + np.diag([-0.2, 0.2, 0, 0]))
