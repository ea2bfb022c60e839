"""Span tracer that times belldiag's public functions from outside the package.

``Tracer.install`` replaces each function in ``TRACED`` at every module
attribute that binds it (``belldiag.full_report``, ``measures.full_report``
and ``noise.full_report`` are one function bound three times), so calls
made inside the package are seen too. Spans (name, start, end, parent,
operation) stay in memory until ``dump``; ``summarize`` turns dumps into the
per-layer metrics.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from contextlib import contextmanager

TRACED = {
    "measures": (
        "full_report",
        "discord_oz",
        "mutual_information",
        "bloch_decompose",
        "steering",
        "nonlocality",
        "negativity",
        "nonlocal_coherence",
    ),
    "tomography": (
        "sample_counts",
        "born_probabilities",
        "estimate_correlations",
        "exact_correlations",
        "reconstruct",
    ),
    "circuit": ("prepared_state", "purification_circuit", "simulate_statevector", "to_qasm"),
    "noise": ("apply_channel",),
    "states": ("fidelity", "bds_from_spec", "density_matrix_from_json"),
    "qmath": ("partial_trace", "trace_norm", "matrix_sqrt_psd", "entropy_bits"),
}

# Reported as call counts only: they are cheap and called many times.
COUNT_ONLY = {"qmath.entropy_bits"}

# Call counts per unit of work: (metric, counted span, unit spans). Only calls
# made inside a unit span count.
CALL_RATIOS = (
    ("measures.bloch_decompose.calls", "measures.bloch_decompose", ("measures.full_report",)),
    (
        "tomography.born_probabilities.calls",
        "tomography.born_probabilities",
        ("tomography.sample_counts", "tomography.exact_correlations"),
    ),
    ("qmath.partial_trace.calls", "qmath.partial_trace", ("measures.full_report",)),
    ("qmath.entropy_bits.calls", "qmath.entropy_bits", ("measures.full_report",)),
)


def timed_names() -> list[str]:
    return [
        f"{layer}.{fn}"
        for layer, fns in TRACED.items()
        for fn in fns
        if f"{layer}.{fn}" not in COUNT_ONLY
    ]


def per_layer_names() -> list[str]:
    """Every metric ``summarize`` reports, in a fixed order."""
    names = []
    for name in timed_names():
        names += [f"{name}.us", f"{name}.self_us"]
    names += ["measures.discord_grid.us", "measures.discord_refine.us"]
    names += [metric for metric, *_ in CALL_RATIOS]
    return names + ["tomography.reconstruct.projected"]


class Tracer:
    """Installs timing wrappers and records one span per wrapped call."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._op = -1
        self._installed: list = []
        self.projected = 0
        self.discord_inputs: list = []
        self.grid_seconds: list[float] = []

    def install(self) -> None:
        bound = [m for name, m in sys.modules.items() if name == "belldiag" or name.startswith("belldiag.")]
        for layer, fns in TRACED.items():
            module = importlib.import_module(f"belldiag.{layer}")
            for fn in fns:
                original = getattr(module, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for mod in bound:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._op)
            if name == "tomography.reconstruct" and result.projected:
                self.projected += 1
            elif name == "measures.discord_oz":
                self.discord_inputs.append(args[0] if args else kwargs["rho"])
            return result

        return traced

    @contextmanager
    def operation(self, name: str):
        """Root span of one unit of work; spans inside it share its operation id."""
        self._op += 1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = (name, start, time.perf_counter(), -1, self._op)

    def time_discord_grid(self) -> None:
        """Time the grid stage alone, ``discord_oz(..., refine=False)``, on every recorded input.

        Call this after ``uninstall`` so that no spans are recorded.
        """
        from belldiag import measures

        for rho in self.discord_inputs:
            start = time.perf_counter()
            measures.discord_oz(rho, refine=False)
            self.grid_seconds.append(time.perf_counter() - start)
        self.discord_inputs.clear()

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "projected": self.projected,
            "grid_seconds": self.grid_seconds,
        }


def summarize(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics from span dumps: mean inclusive and self time, call ratios.

    A dump's optional ``scale`` (and ``grid_scale`` for its grid timings)
    multiplies its durations, to express them in reference seconds.
    """
    incl: dict[str, list[float]] = {}
    self_time: dict[str, float] = {}
    counted = {metric: [0, 0] for metric, *_ in CALL_RATIOS}
    grid: list[float] = []
    projected = 0
    for dump in dumps:
        spans = dump["spans"]
        scale = dump.get("scale", 1.0)
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            incl.setdefault(name, []).append(scale * (end - start))
            self_time[name] = self_time.get(name, 0.0) + scale * (end - start - child[i])
        for metric, numerator, units in CALL_RATIOS:
            for name, _, _, parent, _ in spans:
                if name in units:
                    counted[metric][1] += 1
                elif name == numerator and _has_ancestor(spans, parent, units):
                    counted[metric][0] += 1
        grid += [dump.get("grid_scale", scale) * g for g in dump["grid_seconds"]]
        projected += dump["projected"]

    out = {}
    for name in timed_names():
        durations = incl.get(name, [])
        calls = len(durations)
        out[f"{name}.us"] = 1e6 * sum(durations) / calls if calls else 0.0
        out[f"{name}.self_us"] = 1e6 * self_time.get(name, 0.0) / calls if calls else 0.0
    out["measures.discord_grid.us"] = 1e6 * statistics.fmean(grid) if grid else 0.0
    # Computed, not measured: the refine stage is discord_oz minus its grid stage.
    out["measures.discord_refine.us"] = out["measures.discord_oz.us"] - out["measures.discord_grid.us"]
    for metric, (num, den) in counted.items():
        out[metric] = num / den if den else 0.0
    reconstructs = len(incl.get("tomography.reconstruct", []))
    out["tomography.reconstruct.projected"] = projected / reconstructs if reconstructs else 0.0
    return out


def _has_ancestor(spans, parent: int, names) -> bool:
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False
