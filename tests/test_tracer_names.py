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
