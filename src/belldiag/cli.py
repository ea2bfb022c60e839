"""Command-line driver: preparation, Werner sweeps, measurement, tomography.

Exit codes: 0 success, 2 invalid input or a LAPACK failure, 3 I/O failure.
Input files are read as bytes, so one that is not UTF-8 is malformed input.
"""

import argparse
import json
import operator
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import circuit as circuit_mod
from . import measures, noise, qmath, states, tomography
from .exceptions import BellDiagError

CSV_HEADER = "w,F,C,D,E,S,N,C_th,D_th,E_th,S_th,N_th"
# The five measures C, D, E, S, N of a report: its fields after coherence_l1, in declared order.
_MEASURED = operator.attrgetter(*(f.name for f in fields(measures.ResourceReport)[1:]))

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


def _fmt(x: float) -> str:
    # round() first so that -1e-9 prints as 0.000000, not -0.000000
    return f"{round(float(x), 6) + 0.0:.6f}"


def _parse_numbers(text: str, flag: str, count: int) -> list[float]:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise BellDiagError(f"{flag} needs comma-separated numbers, got {text!r}") from None
    if len(parts) != count:
        raise BellDiagError(f"{flag} needs {count} comma-separated numbers, got {len(parts)}")
    return parts


def _parse_layout(text: str) -> dict[str, int]:
    layout = {}
    for item in text.split(","):
        name, _, phys = item.partition(":")
        name = name.strip()
        if name in layout:
            raise BellDiagError(f"--layout places qubit {name!r} twice")
        try:
            layout[name] = int(phys)
        except ValueError:
            raise BellDiagError(f"bad layout entry {item!r}, expected name:index") from None
    return layout


def _write_output(text: str, out_path: str | None) -> int:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_prepare(args) -> int:
    if args.layout is not None and not args.qasm:
        raise BellDiagError("--layout places the OpenQASM qubits and needs --qasm")
    if args.werner is not None:
        spec = states.werner_spec(args.werner)
    else:
        spec = states.BdsSpec(*_parse_numbers(args.p, "--p", 4))
    circ = circuit_mod.purification_circuit(spec)
    rho = circuit_mod.prepared_state(spec)
    doc = {
        # The first gate is R(theta/2) on qubit a.
        "theta": 2 * circ.gates[0].params[0],
        "probabilities": spec.probabilities.tolist(),
        "circuit": {"n_qubits": circ.n_qubits, "gates": [asdict(g) for g in circ.gates]},
        "state": rho.as_dict(),
    }
    text = json.dumps(doc, indent=2)
    if args.qasm:
        layout = _parse_layout(args.layout) if args.layout is not None else None
        text += "\n\n" + circuit_mod.to_qasm(circ, layout=layout)
    return _write_output(text + "\n", args.out)


def _sweep_rows(args) -> list[str]:
    """CSV rows of a ``sweep``, one per weight w on an even grid over [0, 1].

    Each row mixes the maximally mixed state toward the ``--p`` spec with
    weight w. The default spec ``0,0,0,1`` is the (1,1) Bell state, so
    without ``--p`` the rows follow the Werner family.
    The sweep runs as one stack: every row is prepared, damped, sampled (row i
    with its own seed ``seed * 100003 + i``), reconstructed and scored against
    its target at once, by the stacked kernels whose stack of one are
    ``apply_channel``, ``tomograph`` and ``fidelity``; each row has the bits of
    those per-state calls and of ``prepared_state``. ``measures._reports`` then
    measures the measured rows and the targets as one stack, with no record per row.
    """
    channel = noise.composite_damping(*_parse_numbers(args.noise, "--noise", 2)) if args.noise else None
    target_p = states.BdsSpec(*_parse_numbers(args.p, "--p", 4)).probabilities
    if args.points < 1:
        raise BellDiagError("--points must be >= 1")

    weights = [i / (args.points - 1) if args.points > 1 else 0.0 for i in range(args.points)]
    specs = [states.BdsSpec(*((1.0 - w) * 0.25 + w * target_p)) for w in weights]
    targets = np.array([states.bds_from_spec(spec).matrix for spec in specs])
    prepared = circuit_mod._prepared_states(specs)
    if channel is not None:
        prepared = noise._channel_applied(channel, prepared, qubit=0)
    seeds = [args.seed * 100003 + i for i in range(args.points)]
    physical, _, raw = tomography._tomographs(qmath.pauli_coefficients(prepared), args.shots, seeds)
    fidelities = states._fidelities(physical, targets)
    reports = measures._reports(np.concatenate([raw if args.no_project else physical, targets]))
    return [
        ",".join(_fmt(v) for v in [w, f, *_MEASURED(report), *_MEASURED(theory)])
        for w, f, report, theory in zip(weights, fidelities, reports, reports[args.points :])
    ]


def cmd_sweep(args) -> int:
    rows = _sweep_rows(args)
    return _write_output(CSV_HEADER + "\n" + "\n".join(rows) + "\n", args.out)


def cmd_measure(args) -> int:
    rho = states.density_matrix_from_json(Path(args.state_file).read_bytes())

    doc = {
        "n_qubits": rho.n_qubits,
        "diagnostics": {
            "hermiticity_defect": qmath.hermiticity_defect(rho.matrix),
            "trace": float(np.trace(rho.matrix).real),
            "min_eigenvalue": float(rho.spectrum[0]),
        },
        "measures": measures.full_report(rho).as_dict(),
    }
    return _write_output(json.dumps(doc, indent=2) + "\n", args.out)


def cmd_tomograph(args) -> int:
    counts = tomography.counts_from_json(Path(args.counts_file).read_bytes())
    result = tomography.reconstruct(tomography.estimate_correlations(counts))
    doc = {
        "projected": result.projected,
        "state": result.state.as_dict(),
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
        default="0,0,0,1",
        help="sweep toward this spec p00,p01,p10,p11 (default 0,0,0,1: the Werner family)",
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
    """Run one command; a ``BellDiagError`` or ``LinAlgError`` exits with 2 and an ``OSError`` with 3."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BellDiagError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
