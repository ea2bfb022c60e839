import hashlib
import json
import math
import os
import re
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


def valid_input(command):
    """A valid input document for ``measure`` (a state) or ``tomograph`` (counts)."""
    if command == "measure":
        return density_matrix_to_json(bd.werner(0.5))
    return counts_to_json(bd.sample_counts(bd.werner(0.5), 64, seed=1))


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

    @pytest.mark.parametrize(
        "flags",
        [
            "--points 101 --shots 8192 --seed 7",
            "--points 101 --shots 0 --noise 0.3,0.3",
            "--points 11 --shots 8192 --seed 1",
        ],
        ids=["sampled", "exact-noisy", "sampled-11"],
    )
    def test_default_target_is_the_bell_state_b11(self, capsys, flags):
        _, default, _ = run(capsys, "sweep", *flags.split())
        _, explicit, _ = run(capsys, "sweep", *flags.split(), "--p", "0,0,0,1")
        assert default == explicit

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
            "n_qubits": 2,
            "re": np.diag([1.2, -0.2, 0.0, 0.0]).tolist(),
            "im": [[0.0] * 4] * 4,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "measure", str(path))
        assert code == EXIT_VALIDATION
        assert "eigenvalue" in err

    def test_missing_file_exit_3(self, capsys):
        code, _, _ = run(capsys, "measure", "/does/not/exist.json")
        assert code == EXIT_IO

    def test_spectrum_is_computed_once(self, tmp_path, capsys, monkeypatch):
        # The record keeps the validated constructor's spectrum, for the min_eigenvalue
        # diagnostic and the joint entropy; negativity's partial transpose is the other call.
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        path = tmp_path / "state.json"
        path.write_text(density_matrix_to_json(bd.werner(0.5)))
        code, out, _ = run(capsys, "measure", str(path))
        assert code == EXIT_OK
        assert len(calls) == 2
        assert json.loads(out)["diagnostics"]["min_eigenvalue"] == float(eigvalsh(calls[0])[0])


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
            ("prepare", "--werner", "0.5", "--qasm", "--layout", "a:x"),
            ("sweep", "--noise", "x,0"),
            ("prepare", "--p", "nan,0,0,1"),
            ("sweep", "--p", "nan,0,0,1", "--points", "2", "--shots", "0"),
            ("sweep", "--noise=-0.5,0", "--points", "2", "--shots", "0"),
            ("sweep", "--points", "2", "--shots", "18446744073709551616"),
            ("sweep", "--points", "2", "--shots", "9223372036854775808"),
            ("prepare", "--werner", "0.5", "--layout", "zz:9"),
            ("prepare", "--werner", "0.5", "--qasm", "--layout", "a:1,b:3,c:2,d:4,a:0"),
            ("prepare", "--werner", "0.5", "--qasm", "--layout", "a:1,b:3,c:2,d:70000"),
            ("sweep", "--points", "2", "--p", "0.5,0.5"),
            ("sweep", "--points", "2", "--noise", "0.3"),
            ("sweep", "--points", "2", "--shots", "-1"),
            ("prepare", "--p", "1e400,0,0,0"),
            ("sweep", "--noise", "1.5,0", "--points", "2"),
            ("sweep", "--points", "2", "--p", "0.5,0.5,0.5,0.5"),
            ("prepare", "--werner", "0.5", "--qasm", "--layout", "a:1,b:3,c:2,d:-1"),
            ("prepare", "--werner", "0.5", "--qasm", "--layout", "a:1,b:3,c:2,d:65536"),
        ],
        ids=[
            "text-probs",
            "text-layout",
            "text-noise",
            "nan-prepare",
            "nan-sweep",
            "negative-noise",
            "shots-2**64",
            "shots-2**63",
            "layout-without-qasm",
            "layout-repeated-name",
            "layout-beyond-register",
            "short-probs",
            "short-noise",
            "negative-shots",
            "overflow-probs",
            "noise-above-1",
            "probs-sum-2",
            "layout-negative-index",
            "layout-at-65536",
        ],
    )
    def test_bad_input_exits_2_without_traceback(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error" in proc.stderr

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("sweep", "--points", "2", "--p", "0.5,0.5"), "--p needs 4 comma-separated numbers, got 2"),
            (("prepare", "--p", "0,0,0,0.5,0.5"), "--p needs 4 comma-separated numbers, got 5"),
            (("sweep", "--points", "2", "--noise", "0.3"), "--noise needs 2 comma-separated numbers, got 1"),
            # tomograph owns the whole shot range, so the sweep's negative count gets its message.
            (("sweep", "--points", "2", "--shots", "-1"), "shots must be in [0, "),
            (("sweep", "--points", "0"), "--points must be >= 1"),
            # An empty layout is parsed, not read as no layout.
            (("prepare", "--werner", "0.5", "--qasm", "--layout", ""), "bad layout entry '', expected name:index\n"),
            (
                ("prepare", "--werner", "0.5", "--qasm", "--layout", "a:1,b:3,c:2,d:65536"),
                "a physical qubit must be in [0, 65535], got 65536\n",
            ),
            # Layout refusals name the qubits as the user wrote them, not their logical indices.
            (
                ("prepare", "--werner", "0.5", "--qasm", "--layout", "a:1,b:3,c:2"),
                "layout is missing qubits ['d']\n",
            ),
            (
                ("prepare", "--werner", "0.5", "--qasm", "--layout", "a:1,b:1,c:2,d:3"),
                "qubits 'a' and 'b' both on physical 1\n",
            ),
        ],
        ids=[
            "sweep-short-probs",
            "prepare-long-probs",
            "short-noise",
            "negative-shots",
            "no-points",
            "empty-layout",
            "layout-at-65536",
            "layout-missing-qubit",
            "layout-shared-physical",
        ],
    )
    def test_bad_flag_message(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_lapack_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        # The validated constructor's spectrum check is the first LAPACK call `measure` makes.
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        path = tmp_path / "state.json"
        path.write_text(density_matrix_to_json(bd.werner(0.5)))
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        code, out, err = run(capsys, "measure", str(path))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: ") and "did not converge" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["measure", "tomograph"])
    def test_non_utf8_file_exits_2(self, tmp_path, command):
        # UTF-16 and UTF-32 carry a valid document: json.loads would detect those encodings from the bytes.
        valid = valid_input(command)
        for name, data in [
            ("latin1", b'{"n_qubits": 2, "note": "\xe9"}'),
            ("latin1-counts", b'{"shots": 4, "settings": "\xe9"}\n'),
            ("utf16", valid.encode("utf-16")),
            ("utf32", valid.encode("utf-32")),
        ]:
            path = tmp_path / f"{name}.json"
            path.write_bytes(data)
            proc = run_cli(command, str(path))
            assert proc.returncode == EXIT_VALIDATION, (name, proc.stderr)
            assert "Traceback" not in proc.stderr
            assert "malformed" in proc.stderr

    @pytest.mark.parametrize("command", ["measure", "tomograph"])
    def test_utf8_with_bom_is_read_as_utf8(self, tmp_path, capsys, command):
        plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
        plain.write_bytes(valid_input(command).encode("utf-8"))
        bom.write_bytes(valid_input(command).encode("utf-8-sig"))
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        want = run(capsys, command, str(plain))
        assert want[0] == EXIT_OK and want[1]
        assert run(capsys, command, str(bom)) == want

    @pytest.mark.parametrize(
        "command, document, code",
        [
            ("tomograph", counts_to_json(bd.sample_counts(bd.werner(0.5), 64, 1)), EXIT_OK),
            # A state file of the wrong size is refused before any matrix arithmetic sees it.
            (
                "measure",
                json.dumps({"n_qubits": 2, "re": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0]], "im": [[0] * 3] * 3}),
                EXIT_VALIDATION,
            ),
            (
                "measure",
                json.dumps({"n_qubits": 3, "re": [[(i == j) / 8 for j in range(8)] for i in range(8)], "im": [[0] * 8] * 8}),
                EXIT_VALIDATION,
            ),
            # A rank-2 mixture of |00> and a Bell state: both Bloch vectors are (0, 0, 0.6).
            (
                "measure",
                json.dumps({"n_qubits": 2, "re": [[0.8, 0, 0, 0.2], [0] * 4, [0] * 4, [0.2, 0, 0, 0.2]], "im": [[0] * 4] * 4}),
                EXIT_OK,
            ),
        ],
        ids=["counts", "state-3x3", "state-8x8", "rank-2"],
    )
    def test_input_file_exit_code(self, tmp_path, command, document, code):
        # Each file is one document and a newline, as print() writes it.
        path = tmp_path / "input.json"
        path.write_text(document + "\n")
        proc = run_cli(command, str(path))
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_integer_counts_exit_2(self, tmp_path):
        payload = json.loads(counts_to_json(bd.sample_counts(bd.werner(0.5), 8192, seed=1)))
        payload["settings"]["XX"] = {"pp": 4096.5, "pm": 4096.5, "mp": 0, "mm": 0}
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(payload))
        proc = run_cli("tomograph", str(path))
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            ("tomograph", {"shots": True, "settings": {
                key: {"pp": True, "pm": 0, "mp": 0, "mm": 0}
                for key in ("XX", "XY", "XZ", "YX", "YY", "YZ", "ZX", "ZY", "ZZ")}}, "integer"),
            ("measure", {"n_qubits": True, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
             "integer"),
            ("measure", {"n_qubits": 10**18, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
             "does not match"),
            # Too large for a float: estimate_correlations would overflow.
            ("tomograph", {"shots": 10**400, "settings": {
                key: {"pp": 10**400, "pm": 0, "mp": 0, "mm": 0}
                for key in ("XX", "XY", "XZ", "YX", "YY", "YZ", "ZX", "ZY", "ZZ")}}, "2**63 - 1"),
        ],
        ids=["bool-counts", "bool-qubits", "huge-qubits", "huge-shots"],
    )
    def test_bad_integer_in_file_exits_2(self, tmp_path, command, payload, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        proc = run_cli(command, str(path))
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr

    @pytest.mark.parametrize("entry", ["0.25", True, 10**400], ids=["string", "bool", "huge-int"])
    def test_non_number_matrix_entry_exits_2(self, tmp_path, entry):
        payload = json.loads(density_matrix_to_json(bd.werner(0.0)))
        payload["re"][0][0] = entry
        path = tmp_path / "state.json"
        path.write_text(json.dumps(payload))
        proc = run_cli("measure", str(path))
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "malformed" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("measure", "{missing}"),
            ("tomograph", "{missing}"),
            ("measure", "{directory}"),
            ("tomograph", "{directory}"),
            ("sweep", "--points", "2", "--shots", "0", "--out", "{unwritable}"),
            ("prepare", "--werner", "0.5", "--out", "{directory}"),
            ("measure", "/nonexistent.json"),
        ],
        ids=[
            "measure-missing",
            "tomograph-missing",
            "measure-directory",
            "tomograph-directory",
            "sweep-unwritable",
            "prepare-directory",
            "measure-nonexistent",
        ],
    )
    def test_io_failure_exits_3_without_traceback(self, tmp_path, argv):
        paths = {
            "missing": str(tmp_path / "missing.json"),
            "directory": str(tmp_path),
            "unwritable": str(tmp_path / "no-such-dir" / "out.csv"),
        }
        argv = [arg.format(**paths) for arg in argv]
        proc = run_cli(*argv)
        assert proc.returncode == EXIT_IO, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert argv[-1] in proc.stderr

    def test_non_finite_state_file_exits_2(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            json.dumps({"n_qubits": 2, "re": [[float("nan")] * 4] * 4, "im": [[0.0] * 4] * 4})
        )
        proc = run_cli("measure", str(path))
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "non-finite" in proc.stderr


class TestOutputBytes:
    """sha-256 of stdout for the acceptance commands and other fixed commands; a change
    that moves these bytes on purpose records it and updates the digest."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                "sweep --points 11 --shots 0",
                "7e6fded2567025aeab6ba5d3c7b282b641b72010cba387a43d19df8598fb31b8",
            ),
            (
                "sweep --points 101 --shots 0 --noise 0.3,0.3",
                "4cd251526bbaf67cdbebb85ea8f1ef59fac3ccda43a74d2e2f69371237d2bc97",
            ),
            (
                "sweep --points 11 --shots 0 --p 0.42,0.18,0.28,0.12",
                "02642bee37d377c046dfa848e5c3b70afc7994b890ef6b76cb12d56def966259",
            ),
            (
                "sweep --points 3 --shots 0",
                "10820cc128819608fba083fd11fa5a923eed886850a8a76a0dac254667c99a28",
            ),
            # Measured and theory states are reported as one stack: two states, then more than one chunk.
            (
                "sweep --points 1 --shots 0",
                "7184ede87cac815ceb382dcac6e7c470649edfab0e1585836733ef4bc1d76e1f",
            ),
            (
                "sweep --points 150 --shots 0 --noise 0.3,0.3",
                "e97f2c7236a8c0cc9be69baa9a5ec8e40318ae2a6e6b4a876ad2ad15b3aa596b",
            ),
            (
                "sweep --points 11 --shots 8192 --seed 1",
                "ee892b21446081c592eb72b6210e0d977489ae0ee623bcf75c64f24b8981adbe",
            ),
            (
                "sweep --points 101 --shots 8192 --seed 7",
                "b7bf5051e11597e46e5cbfbf47e52b3ffe2452903b5f6b32273379b21cf1c65f",
            ),
            (
                "sweep --points 3 --shots 512 --seed 12345",
                "506220418acb8e409115300d7ba43d58c1eab966d66275ad84671c5a2c25b2a2",
            ),
            (
                "sweep --points 21 --shots 8192 --seed 3 --noise 0.3,0.3",
                "b3d7a75ab8bae5cedbb087603b751c0abbcb842dd3e98a5932f2dce827ab85e4",
            ),
            (
                "sweep --points 11 --shots 8192 --seed 1 --no-project",
                "bb244c1da9ce6b1a31470b94f56b750faec63d7beae1a5879d2718c727e0f4ac",
            ),
            # Raw linear inversions that are not PSD: held unvalidated, and still measured.
            (
                "sweep --points 3 --shots 64 --no-project",
                "6870ade8b5cc6cb5d400d071f4686f94104fa33222090cb6466d507baad145e8",
            ),
            # Sampled sweeps toward a --p spec: collapsed six-gate rows and an empty row j=1,
            # an empty row j=0, and --p with damping.
            (
                "sweep --points 41 --shots 100 --seed 9 --p 0.5,0.5,0,0",
                "875e95df706b3ce211a11e8beeae0a7b553ac9c3e05501dee2b5c6ddcbe879e2",
            ),
            (
                "sweep --points 41 --shots 1000 --seed 2 --p 0,0,0.3,0.7",
                "e57b74a628109c87654b66714f84ec7e088cf4c6febb6185163e4491537bdb0c",
            ),
            (
                "sweep --points 51 --shots 256 --seed 5 --p 0.1,0.2,0.3,0.4 --noise 0.2,0.5",
                "961933217fa7029375f14c8ea3ec0f850a0ee51380398dd4045fba8fb580c811",
            ),
            (
                "prepare --werner 0.5 --qasm",
                "8170c02c9ce1387c8a95f1f5793601e53e07e616010917e992adb29f0173a147",
            ),
            (
                "prepare --p 0.42,0.18,0.28,0.12 --qasm --layout a:0,b:1,c:2,d:3",
                "4b4857145ef8eeee0db34c07445d726267cc324d33c4f2d806ef13a5dac009df",
            ),
            # One prepare per branch of the circuit: row j=0 empty, row j=1 empty, a product spec
            # collapsed to six gates, pi angles, and a vertex with zero angles.
            (
                "prepare --p 0,0,0.3,0.7 --qasm",
                "fa59630b0e5392522f2e051d62ae9cb05b0cb8f92c4ae68539605920fef797c2",
            ),
            (
                "prepare --p 0,0,0.3,0.7 --qasm --layout a:0,b:1,c:2,d:3",
                "96c1cce918ba0dcc369a03d99301a7cf1e35983e3419788455712f71e2d8ae25",
            ),
            (
                "prepare --p 0.3,0.7,0,0 --qasm",
                "979d50f1478cd5ae510f125b7b3d32b39b898471c1ae4f6a0c4f19a396d52663",
            ),
            (
                "prepare --p 0.24,0.36,0.16,0.24 --qasm",
                "6e0c4190f4427ba9649c55fb49b7a988196024de4bf224fa407f1e68ec4d8a1e",
            ),
            (
                "prepare --werner 1 --qasm",
                "3573f64db2029969efc615b35ab7f45f1559c311315feafb01adda3df5b4528f",
            ),
            # The Werner state of weight 1 is the vertex |b11>: the same bytes.
            (
                "prepare --p 0,0,0,1 --qasm",
                "3573f64db2029969efc615b35ab7f45f1559c311315feafb01adda3df5b4528f",
            ),
            (
                "prepare --p 1,0,0,0",
                "93a05d55a47e42e01105c9fea127a1dd5bf18ecda6e3b2552af39b3786cc5036",
            ),
        ],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv.split())
        assert code == EXIT_OK
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("shots", ["0", "8192"])
    def test_zero_noise_is_no_noise(self, capsys, shots):
        flags = ["sweep", "--points", "11", "--shots", shots, "--seed", "1"]
        _, plain, _ = run(capsys, *flags)
        _, damped, _ = run(capsys, *flags, "--noise", "0,0")
        assert damped == plain


def test_import_loads_no_scipy():
    proc = run_python(
        "-c", "import sys, belldiag; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_python_blocks_run(capsys):
    # A README that still names a deleted or renamed API fails here, not in a reader's hands.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
