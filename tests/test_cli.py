import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import belldiag as bd
from belldiag.cli import CSV_HEADER, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from belldiag.states import density_matrix_to_json
from belldiag.tomography import counts_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv):
    """Run a fresh interpreter that imports belldiag from the tested source tree."""
    src = str(Path(bd.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def run_cli(*argv):
    return run_python("-c", "import sys; from belldiag.cli import main; sys.exit(main())", *argv)


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


class TestPrepare:
    def test_werner_one_angles(self, capsys):
        code, out, _ = run(capsys, "prepare", "--werner", "1.0")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["theta"] == pytest.approx(math.pi)
        assert "alpha" not in doc

    def test_uniform_probabilities(self, capsys):
        code, out, _ = run(capsys, "prepare", "--p", "0.25,0.25,0.25,0.25")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["theta"] == pytest.approx(math.pi / 2)
        assert "alpha" not in doc
        np.testing.assert_allclose(np.array(doc["state"]["re"]), np.eye(4) / 4, atol=1e-12)
        np.testing.assert_allclose(np.array(doc["state"]["im"]), 0, atol=1e-12)

    def test_qasm_emission(self, capsys):
        code, out, _ = run(capsys, "prepare", "--werner", "0.5", "--qasm")
        assert code == EXIT_OK
        assert "OPENQASM 2.0;" in out
        # first rotation angle is 2*arccos(sqrt(1/4)) = 2*pi/3
        assert "u3(2*pi/3,0,0)" in out

    def test_qasm_layout_flag(self, capsys):
        code, out, _ = run(
            capsys, "prepare", "--werner", "0.0", "--qasm", "--layout", "a:0,b:1,c:2,d:3"
        )
        assert code == EXIT_OK
        assert "qreg q[4];" in out

    def test_invalid_probabilities_exit_2(self, capsys):
        code, _, err = run(capsys, "prepare", "--p", "0.9,0.9,0,0")
        assert code == EXIT_VALIDATION
        assert "error" in err

    def test_invalid_werner_exit_2(self, capsys):
        code, _, err = run(capsys, "prepare", "--werner", "1.5")
        assert code == EXIT_VALIDATION


class TestSweep:
    def test_exact_mode_matches_theory(self, capsys):
        code, out, _ = run(capsys, "sweep", "--points", "5", "--shots", "0")
        assert code == EXIT_OK
        data = parse_csv(out)
        np.testing.assert_allclose(data[:, 1], 1.0, atol=5e-7)  # F column
        # measured columns equal theory columns
        np.testing.assert_allclose(data[:, 2:7], data[:, 7:12], atol=1e-9)

    def test_exact_mode_closed_forms(self, capsys):
        _, out, _ = run(capsys, "sweep", "--points", "11", "--shots", "0")
        data = parse_csv(out)
        w = data[:, 0]
        np.testing.assert_allclose(data[:, 2], w, atol=1e-6)  # C = w
        np.testing.assert_allclose(data[:, 4], np.maximum(0, (3 * w - 1) / 2), atol=1e-6)
        np.testing.assert_allclose(
            data[:, 5], np.maximum(0, (np.sqrt(3) * w - 1) / (np.sqrt(3) - 1)), atol=1e-6
        )
        np.testing.assert_allclose(
            data[:, 6], np.maximum(0, (np.sqrt(2) * w - 1) / (np.sqrt(2) - 1)), atol=1e-6
        )

    def test_noise_kills_nonlocality(self, capsys):
        _, out, _ = run(
            capsys, "sweep", "--points", "11", "--shots", "0", "--noise", "0.3,0.3"
        )
        data = parse_csv(out)
        np.testing.assert_array_equal(data[:, 6], 0.0)

    def test_byte_identical_runs(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code = main(
                ["sweep", "--points", "3", "--shots", "256", "--seed", "42", "--out", str(path)]
            )
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_shot_mode_fidelity_column(self, capsys):
        _, out, _ = run(capsys, "sweep", "--points", "3", "--shots", "8192", "--seed", "1")
        data = parse_csv(out)
        assert np.all(data[:, 1] >= 0.97)

    def test_no_project_flag_runs(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--points", "3", "--shots", "256", "--seed", "7", "--no-project"
        )
        assert code == EXIT_OK
        parse_csv(out)

    def test_custom_spec_family(self, capsys):
        # sweeping toward the (1,1) Bell spec reproduces the Werner family
        code, out, _ = run(
            capsys, "sweep", "--points", "3", "--shots", "0", "--p", "0,0,0,1"
        )
        assert code == EXIT_OK
        custom = parse_csv(out)
        _, werner_out, _ = run(capsys, "sweep", "--points", "3", "--shots", "0")
        np.testing.assert_allclose(custom, parse_csv(werner_out), atol=1e-9)

    def test_custom_spec_family_other_target(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--points", "3", "--shots", "0", "--p", "1,0,0,0"
        )
        assert code == EXIT_OK
        data = parse_csv(out)
        np.testing.assert_allclose(data[:, 1], 1.0, atol=5e-7)
        assert data[-1, 4] == pytest.approx(1.0, abs=1e-6)  # pure Bell endpoint

    def test_unwritable_output_exit_3(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--points", "2", "--shots", "0", "--out", "/nonexistent/x.csv"
        )
        assert code == EXIT_IO


class TestMeasure:
    def test_bell_state_file(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        path.write_text(density_matrix_to_json(bd.werner(1.0)))
        code, out, _ = run(capsys, "measure", str(path))
        assert code == EXIT_OK
        doc = json.loads(out)
        for name, value in doc["measures"].items():
            assert value == pytest.approx(1.0, abs=1e-4), name

    def test_maximally_mixed_file(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        path.write_text(density_matrix_to_json(bd.werner(0.0)))
        code, out, _ = run(capsys, "measure", str(path))
        doc = json.loads(out)
        assert all(v == pytest.approx(0.0, abs=1e-9) for v in doc["measures"].values())

    def test_non_psd_file_exit_2(self, tmp_path, capsys):
        bad = {
            "n_qubits": 1,
            "re": [[1.2, 0.0], [0.0, -0.2]],
            "im": [[0.0, 0.0], [0.0, 0.0]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "measure", str(path))
        assert code == EXIT_VALIDATION
        assert "eigenvalue" in err

    def test_missing_file_exit_3(self, capsys):
        code, _, _ = run(capsys, "measure", "/does/not/exist.json")
        assert code == EXIT_IO


class TestTomograph:
    def test_round_trip(self, tmp_path, capsys):
        counts = bd.sample_counts(bd.werner(0.5), 8192, seed=21)
        path = tmp_path / "counts.json"
        path.write_text(counts_to_json(counts))
        code, out, _ = run(capsys, "tomograph", str(path))
        assert code == EXIT_OK
        doc = json.loads(out)
        rho = bd.DensityMatrix(
            np.array(doc["state"]["re"]) + 1j * np.array(doc["state"]["im"])
        )
        assert bd.fidelity(rho, bd.werner(0.5)) >= 0.98
        assert isinstance(doc["projected"], bool)

    def test_missing_setting_exit_2(self, tmp_path, capsys):
        counts = bd.sample_counts(bd.werner(0.5), 128, seed=1)
        payload = json.loads(counts_to_json(counts))
        del payload["settings"]["ZZ"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "tomograph", str(path))
        assert code == EXIT_VALIDATION

    def test_bad_sum_exit_2(self, tmp_path, capsys):
        counts = bd.sample_counts(bd.werner(0.5), 128, seed=1)
        payload = json.loads(counts_to_json(counts))
        payload["settings"]["XY"]["mm"] += 5
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(payload))
        code, _, _ = run(capsys, "tomograph", str(path))
        assert code == EXIT_VALIDATION


class TestErrorPath:
    @pytest.mark.parametrize(
        "argv",
        [
            ("prepare", "--p", "abc,0,0,1"),
            ("prepare", "--werner", "0.5", "--layout", "a:x"),
            ("sweep", "--noise", "x,0"),
            ("prepare", "--p", "nan,0,0,1"),
            ("sweep", "--p", "nan,0,0,1", "--points", "2", "--shots", "0"),
        ],
        ids=["text-probs", "text-layout", "text-noise", "nan-prepare", "nan-sweep"],
    )
    def test_bad_input_exits_2_without_traceback(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error" in proc.stderr

    def test_non_finite_state_file_exits_2(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            json.dumps({"n_qubits": 2, "re": [[float("nan")] * 4] * 4, "im": [[0.0] * 4] * 4})
        )
        proc = run_cli("measure", str(path))
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "non-finite" in proc.stderr


def test_import_loads_no_scipy():
    proc = run_python(
        "-c", "import sys, belldiag; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
