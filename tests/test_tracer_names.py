"""The benchmark's span tracer finds package functions by name at run time.

``perfbench/tracer.py`` imports only the standard library, so it is loaded
here by file path. A deleted or renamed function would otherwise surface only
when the benchmark runs with ``--trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
from helpers import ginibre_state, rotated_bell_diagonal

import belldiag as bd
from belldiag import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    for layer, names in load_tracer().TRACED.items():
        module = importlib.import_module(f"belldiag.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"belldiag.{layer}.{name}"


def test_discord_grid_stage_runs_alone():
    # The tracer times the first stencil round as discord_oz(rho, refine=False).
    # A Ginibre state has non-zero Bloch vectors, so it runs that round. States
    # with zero Bloch vectors take the closed form, which has no refine stage:
    # off the round's axes, the first stencil round alone would fall short of
    # the refined value.
    rng = np.random.default_rng(7)
    rho = ginibre_state(rng)
    assert bd.discord_oz(rho, refine=False) > bd.discord_oz(rho)
    for rho in (bd.werner(0.5), bd.DensityMatrix(rotated_bell_diagonal(rng), validate=False)):
        assert bd.discord_oz(rho, refine=False) == bd.discord_oz(rho)


def test_only_the_known_traced_names_go_uncalled(tmp_path, capsys):
    # A traced name that the workloads stop calling reads 0 in every metric of its own.
    # These four are known; any other name found here went uncalled through a refactor.
    state_path, counts_path = tmp_path / "state.json", tmp_path / "counts.json"
    state_path.write_text(bd.density_matrix_to_json(ginibre_state(np.random.default_rng(3))))
    counts_path.write_text(bd.counts_to_json(bd.sample_counts(bd.werner(0.5), 8192, seed=1)))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        for argv in (
            ["prepare", "--werner", "0.5", "--qasm"],
            ["measure", str(state_path)],
            ["tomograph", str(counts_path)],
            ["sweep", "--points", "3", "--shots", "8192", "--seed", "1"],
            ["sweep", "--points", "3", "--shots", "0", "--noise", "0.3,0.3"],
        ):
            assert cli.main(argv) == 0
        channel = bd.composite_damping(0.3, 0.3)
        for sampled in (True, False):
            state = bd.apply_channel(channel, bd.prepared_state(bd.werner_spec(0.5)), qubit=0)
            if sampled:
                c = bd.estimate_correlations(bd.sample_counts(state, 8192, seed=2))
            else:
                c = bd.exact_correlations(state)
            bd.fidelity(bd.reconstruct(c).state, bd.werner(0.5))
        bd.full_report(ginibre_state(np.random.default_rng(4)))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    called = {span[0] for span in tracer.spans}
    uncalled = {f"{layer}.{name}" for layer, names in load_tracer().TRACED.items() for name in names} - called
    assert uncalled == {
        "measures.discord_oz",
        "measures.mutual_information",
        "qmath.partial_trace",
        "tomography.born_probabilities",
    }
