"""Command-line driver: preparation, Werner sweeps, measurement, tomography.

Exit codes: 0 success, 2 input validation failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import circuit as circuit_mod
from . import measures, noise, qmath, states, tomography
from .exceptions import BellDiagError

CSV_HEADER = "w,F,C,D,E,S,N,C_th,D_th,E_th,S_th,N_th"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one sweep; defaults follow the 11-point, 8192-shot protocol.

    Without ``custom_spec`` the sweep follows the Werner family. With it, the
    sweep mixes the maximally mixed state toward ``custom_spec`` with weight
    w, which reduces to the Werner family when the target is the (1,1) Bell
    state.
    """

    custom_spec: states.BdsSpec | None = None
    w_points: int = 11
    shots: int = 8192
    seed: int = 0
    noise_a: float = 0.0
    noise_p: float = 0.0
    project_physical: bool = True

    def spec_at(self, w: float) -> states.BdsSpec:
        if self.custom_spec is None:
            return states.werner_spec(w)
        mixed = (1.0 - w) * 0.25 + w * self.custom_spec.probabilities
        return states.BdsSpec(*mixed)


def _fmt(x: float) -> str:
    # round() first so that -1e-9 prints as 0.000000, not -0.000000
    return f"{round(float(x), 6) + 0.0:.6f}"


def _report_row(report: measures.ResourceReport) -> list[float]:
    return [
        report.nonlocal_coherence,
        report.discord,
        report.negativity,
        report.steering,
        report.nonlocality,
    ]


def _parse_numbers(text: str, flag: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise BellDiagError(f"{flag} needs comma-separated numbers, got {text!r}") from None


def _parse_probs(text: str) -> states.BdsSpec:
    parts = _parse_numbers(text, "--p")
    if len(parts) != 4:
        raise BellDiagError(f"--p needs four comma-separated probabilities, got {len(parts)}")
    return states.BdsSpec(*parts)


def _parse_layout(text: str) -> dict[str, int]:
    layout = {}
    for item in text.split(","):
        name, _, phys = item.partition(":")
        try:
            layout[name.strip()] = int(phys)
        except ValueError:
            raise BellDiagError(f"bad layout entry {item!r}, expected name:index") from None
    return layout


def _parse_noise(text: str) -> tuple[float, float]:
    parts = _parse_numbers(text, "--noise")
    if len(parts) != 2:
        raise BellDiagError("--noise needs two comma-separated rates a,p")
    return parts[0], parts[1]


def _write_output(text: str, out_path: str | None) -> int:
    if out_path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_prepare(args) -> int:
    if args.werner is not None:
        spec = states.werner_spec(args.werner)
    else:
        spec = _parse_probs(args.p)
    circ = circuit_mod.purification_circuit(spec)
    rho = circuit_mod.prepared_state(spec)
    layout = _parse_layout(args.layout) if args.layout else None
    qasm = circuit_mod.to_qasm(circ, layout=layout) if args.qasm else None
    doc = {
        # The first gate is R(theta/2) on qubit a.
        "theta": 2 * circ.gates[0].params[0],
        "probabilities": spec.probabilities.tolist(),
        "circuit": json.loads(circuit_mod.circuit_to_json(circ)),
        "state": json.loads(states.density_matrix_to_json(rho)),
    }
    text = json.dumps(doc, indent=2)
    if qasm is not None:
        text += "\n\n" + qasm
    return _write_output(text + "\n", args.out)


def _sweep_rows(config: SweepConfig) -> list[str]:
    channel = None
    if config.noise_a > 0 or config.noise_p > 0:
        channel = noise.composite_damping(config.noise_a, config.noise_p)

    rows = []
    for i in range(config.w_points):
        w = i / (config.w_points - 1) if config.w_points > 1 else 0.0
        spec = config.spec_at(w)
        target = states.bds_from_spec(spec)
        state = circuit_mod.prepared_state(spec)
        if channel is not None:
            state = noise.apply_channel(channel, state, qubit=0)

        if config.shots > 0:
            row_seed = config.seed * 100003 + i
            counts = tomography.sample_counts(state, config.shots, row_seed)
            result = tomography.reconstruct(tomography.estimate_correlations(counts))
        else:
            result = tomography.reconstruct(tomography.exact_correlations(state))

        fid = states.fidelity(result.state, target)
        if config.project_physical:
            measured = result.state
        else:
            measured = states.DensityMatrix(result.raw_matrix, validate=False)
        report = measures.full_report(measured)
        theory = measures.full_report(target)

        values = [w, fid] + _report_row(report) + _report_row(theory)
        rows.append(",".join(_fmt(v) for v in values))
    return rows


def cmd_sweep(args) -> int:
    noise_a, noise_p = _parse_noise(args.noise) if args.noise else (0.0, 0.0)
    config = SweepConfig(
        custom_spec=_parse_probs(args.p) if args.p else None,
        w_points=args.points,
        shots=args.shots,
        seed=args.seed,
        noise_a=noise_a,
        noise_p=noise_p,
        project_physical=not args.no_project,
    )
    if config.w_points < 1 or config.shots < 0:
        raise BellDiagError("--points must be >= 1 and --shots >= 0")
    rows = _sweep_rows(config)
    return _write_output(CSV_HEADER + "\n" + "\n".join(rows) + "\n", args.out)


def cmd_measure(args) -> int:
    try:
        with open(args.state_file) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.state_file}: {exc}", file=sys.stderr)
        return EXIT_IO
    rho = states.density_matrix_from_json(text)

    doc = {
        "n_qubits": rho.n_qubits,
        "diagnostics": {
            "hermiticity_defect": qmath.hermiticity_defect(rho.matrix),
            "trace": float(np.trace(rho.matrix).real),
            "min_eigenvalue": float(np.linalg.eigvalsh(rho.matrix)[0]),
        },
        "measures": measures.full_report(rho).as_dict(),
    }
    return _write_output(json.dumps(doc, indent=2) + "\n", args.out)


def cmd_tomograph(args) -> int:
    try:
        with open(args.counts_file) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.counts_file}: {exc}", file=sys.stderr)
        return EXIT_IO
    counts = tomography.counts_from_json(text)

    result = tomography.reconstruct(tomography.estimate_correlations(counts))
    doc = {
        "projected": result.projected,
        "state": json.loads(states.density_matrix_to_json(result.state)),
        "measures": measures.full_report(result.state).as_dict(),
    }
    return _write_output(json.dumps(doc, indent=2) + "\n", args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belldiag",
        description="Prepare, tomograph, decohere, and measure Bell-diagonal states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prep = sub.add_parser("prepare", help="preparation circuit and exact state for one spec")
    group = prep.add_mutually_exclusive_group(required=True)
    group.add_argument("--werner", type=float, help="Werner weight w in [0, 1]")
    group.add_argument("--p", type=str, help="four Bell probabilities p00,p01,p10,p11")
    prep.add_argument("--qasm", action="store_true", help="also emit OpenQASM 2.0")
    prep.add_argument("--layout", type=str, help="qubit layout, e.g. a:1,b:3,c:2,d:4")
    prep.add_argument("--out", type=str, help="write output to this path")
    prep.set_defaults(func=cmd_prepare)

    swp = sub.add_parser("sweep", help="mixing sweep CSV with measured and theory columns")
    swp.add_argument(
        "--p",
        type=str,
        help="sweep toward this spec p00,p01,p10,p11 instead of the Werner family",
    )
    swp.add_argument("--points", type=int, default=11, help="number of w grid points")
    swp.add_argument("--shots", type=int, default=8192, help="shots per setting; 0 = exact mode")
    swp.add_argument("--seed", type=int, default=0, help="base PRNG seed")
    swp.add_argument("--noise", type=str, help="damping rates a,p applied to qubit a")
    swp.add_argument("--no-project", action="store_true", help="measure raw linear inversion")
    swp.add_argument("--out", type=str, help="write CSV to this path")
    swp.set_defaults(func=cmd_sweep)

    msr = sub.add_parser("measure", help="measures of a density-matrix JSON file")
    msr.add_argument("state_file", type=str)
    msr.add_argument("--out", type=str, help="write JSON to this path")
    msr.set_defaults(func=cmd_measure)

    tom = sub.add_parser("tomograph", help="reconstruct a state from a counts JSON file")
    tom.add_argument("counts_file", type=str)
    tom.add_argument("--out", type=str, help="write JSON to this path")
    tom.set_defaults(func=cmd_tomograph)

    return parser


def main(argv=None) -> int:
    """Run one command; a ``BellDiagError`` from any of them exits with 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BellDiagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
