"""Benchmark of belldiag: CLI jobs, tomography round trips and the measure hierarchy.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs four sections: ``setup`` (fresh interpreters importing
belldiag), ``cli`` (each job a ``belldiag`` subprocess), ``tomography``
(in-process round trips) and ``hierarchy`` (in-process ``full_report`` on
Ginibre states). The workload's own section loops in whole rounds for
``--seconds``; the others run a fixed number of rounds, so that every
workload reports every end-to-end metric. Load is a closed loop from this
one process, one operation at a time.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics. With ``--trace 1`` the same rounds run once without and
once with the span tracer installed, and the JSON holds the per-layer
metrics and the tracing overhead. Inputs come from ``--seed`` only; every
output is checked against references computed apart from the program.
Results, run metadata and spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = BENCH / "out"

WORKLOADS = {"cli-jobs": "cli", "tomography-scan": "tomography", "hierarchy-scan": "hierarchy"}
SECTIONS = ("cli", "tomography", "hierarchy")
# Rounds of a section in workloads whose own section it is not.
SIDE_ROUNDS = {"cli": 1, "tomography": 10, "hierarchy": 15}

END_TO_END = {
    "setup_s": "s",
    "prepare_s": "s",
    "measure_s": "s",
    "tomograph_s": "s",
    "sweep_s": "s",
    "sweep_noisy_exact_s": "s",
    "tomographs_per_s": "1/s",
    "reports_per_s": "1/s",
}

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
SHORT_JOBS = ("prepare", "measure", "tomograph")
SHORT_JOB_REPEATS = 3
SHOTS = 8192
SWEEP_POINTS = 101
NOISE = (0.3, 0.3)
PREPARE_W = 0.5
TOMOGRAPHY_GRID = tuple(i / 10 for i in range(11))
JOB_TIMEOUT_S = 120
WARM_ALLOCATOR_BYTES = 16 * 2**20
CLI_LAUNCH = "import sys; from belldiag.cli import main; sys.exit(main())"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path[:0] = [str(SRC), str(TESTS)]
import numpy as np  # noqa: E402

try:
    import belldiag as bd
    import checks
    import reference as ref
    import speed
    from oracles import apply_channel_superoperator
    from tracer import Tracer, per_layer_names, summarize
except ImportError as exc:
    sys.exit(f"error: cannot load belldiag and its test oracles from {ROOT}: {exc}")
if not Path(bd.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: belldiag was loaded from {bd.__file__}, not from {SRC}")

PER_LAYER_UNITS = {
    name: "us" if name.endswith("us") else "share" if name.endswith("projected") else "calls/op"
    for name in per_layer_names()
} | {"import.scipy_s": "s", "import.belldiag_s": "s", "trace.overhead_pct": "%"}


class Bench:
    """One benchmark run: generated inputs, operation counters, samples and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.main_section = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []
        # Reference seconds (see speed.py) and the raw wall times they came from.
        self.samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
        self.wall: dict[str, list[float]] = {name: [] for name in END_TO_END}
        self.op_wall = 0.0
        self.op_reference = 0.0
        self.in_process = [0.0, 0.0]  # wall and reference seconds of in-process operations
        self.fidelities: dict[bool, list[float]] = {False: [], True: []}
        self.tracer = None
        self.dumps: list[dict] = []
        # glibc raises its mmap threshold when a large block is freed, after which
        # numpy's temporaries of a few hundred KiB come from the heap instead of
        # fresh pages. Which state the in-process loops see would otherwise
        # depend on the allocations before them, and their speed with it.
        np.ones(WARM_ALLOCATOR_BYTES // 8).sum()
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self._make_inputs()

    # ------------------------------------------------------------ inputs

    def _make_inputs(self) -> None:
        """Stored state and counts files, tomography targets; all from the seed."""
        rng = np.random.default_rng([self.seed, 0])
        self.measure_rho = ref.ginibre_matrix(rng, rank=int(rng.integers(1, 5)))
        state_path = self.work / "state.json"
        state_path.write_text(
            json.dumps(
                {"n_qubits": 2, "re": self.measure_rho.real.tolist(), "im": self.measure_rho.imag.tolist()}
            )
        )
        self.measure_discord = checks.discord_oracle(self.measure_rho)

        kraus = ref.damping_kraus(*NOISE)
        counted = apply_channel_superoperator(kraus, ref.werner_matrix(rng.uniform()), 0, 2)
        counts = ref.sample_counts(counted, SHOTS, rng)
        counts_path = self.work / "counts.json"
        counts_path.write_text(json.dumps(ref.counts_document(counts, SHOTS)))
        expected, projected = checks.expected_reconstruction(counts, SHOTS)
        expected_discord = checks.discord_oracle(expected)

        self.jobs = {
            "prepare": (
                ["prepare", "--werner", str(PREPARE_W), "--qasm"],
                lambda out: checks.prepare_problems(out, PREPARE_W),
            ),
            "measure": (
                ["measure", str(state_path)],
                lambda out: checks.measure_problems(out, self.measure_rho, self.measure_discord),
            ),
            "tomograph": (
                ["tomograph", str(counts_path)],
                lambda out: checks.tomograph_problems(out, expected, projected, expected_discord),
            ),
            "sweep": (
                ["sweep", "--points", str(SWEEP_POINTS), "--shots", str(SHOTS), "--seed", str(self.seed)],
                lambda out: checks.sweep_problems(out, SWEEP_POINTS),
            ),
            "sweep_noisy_exact": (
                ["sweep", "--points", str(SWEEP_POINTS), "--shots", "0", "--noise", ",".join(map(str, NOISE))],
                lambda out: checks.noisy_sweep_problems(out, SWEEP_POINTS, *NOISE),
            ),
        }

        self.channel = bd.composite_damping(*NOISE)
        self.targets = {}
        for w in TOMOGRAPHY_GRID:
            clean = ref.werner_matrix(w)
            self.targets[w, False] = bd.DensityMatrix(clean)
            self.targets[w, True] = bd.DensityMatrix(apply_channel_superoperator(kraus, clean, 0, 2))

    # ------------------------------------------------------------ bookkeeping

    def _operation(self, name: str):
        return self.tracer.operation(name) if self.tracer else contextlib.nullcontext()

    def _fail(self, label: str, detail: str) -> None:
        self.failed += 1
        self.errors.append(f"{label}: {detail.strip()[-500:]}")

    def _check(self, label: str, check, *args) -> None:
        try:
            self.problems += check(*args)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            self.problems.append(f"{label}: output could not be checked: {exc!r}")

    def _python(self, argv: list[str]) -> tuple[int | None, str, str, float, float]:
        """Run the interpreter on ``argv``; return (exit code, stdout, stderr, wall s, reference s)."""
        out, err = self.work / "stdout", self.work / "stderr"
        with open(out, "w") as fout, open(err, "w") as ferr:
            code, wall, reference = speed.run(
                [sys.executable, *argv], JOB_TIMEOUT_S, cwd=ROOT, env=self.env, stdout=fout, stderr=ferr
            )
        return code, out.read_text(), err.read_text() if code is not None else "timed out", wall, reference

    def _add_busy(self, wall: float, reference: float) -> None:
        self.op_wall += wall
        self.op_reference += reference

    # ------------------------------------------------------------ sections

    def setup_section(self) -> None:
        """Fresh interpreters running ``import belldiag``.

        This process has imported belldiag already, so the files it reads are cached.
        """
        for _ in range(SETUP_REPEATS):
            code, out, err, wall, reference = self._python(["-c", "import belldiag; print(belldiag.__file__)"])
            self.attempted += 1
            if code != 0:
                self._fail("import belldiag", err)
                continue
            if not Path(out.strip()).resolve().is_relative_to(SRC):
                self.problems.append(f"import belldiag loaded {out.strip()}, not the checkout")
            self._sample("setup_s", wall, reference)

    def _sample(self, metric: str, wall: float, reference: float) -> None:
        self.wall[metric].append(wall)
        self.samples[metric].append(reference)

    def cli_round(self, index: int) -> None:
        for name in SHORT_JOBS * SHORT_JOB_REPEATS + ("sweep", "sweep_noisy_exact"):
            argv, check = self.jobs[name]
            spans = self.work / "spans.json"
            if self.tracer:
                argv = [str(BENCH / "traced_cli.py"), str(spans), *argv]
            else:
                argv = ["-c", CLI_LAUNCH, *argv]
            code, out, err, wall, reference = self._python(argv)
            self.attempted += 1
            if code != 0:
                self._add_busy(wall, reference)
                self._fail(name, err)
                continue
            if self.tracer:
                dump = json.loads(spans.read_text())
                spans.unlink()
                dump["scale"] = reference / wall
                self.dumps.append(dump)
                # The grid-stage timing runs after the command, inside the same process.
                grid = sum(dump["grid_seconds"])
                reference -= grid * dump["scale"]
                wall -= grid
            self._add_busy(wall, reference)
            self._sample(f"{name}_s", wall, reference)
            self._check(name, check, out)

    def tomography_round(self, index: int) -> None:
        """44 round trips: the Werner grid, clean and damped, sampled and exact."""
        rng = np.random.default_rng([self.seed, 1, index])
        meter = speed.Meter()
        for w in TOMOGRAPHY_GRID:
            for damped in (False, True):
                for sampled in (True, False):
                    target = self.targets[w, damped]
                    sample_seed = int(rng.integers(2**63))
                    label = f"round trip w={w:.1f} damped={damped} sampled={sampled} round={index}"
                    self.attempted += 1
                    start = time.perf_counter()
                    try:
                        with self._operation("op.roundtrip"):
                            state = bd.prepared_state(bd.werner_spec(w))
                            if damped:
                                state = bd.apply_channel(self.channel, state, qubit=0)
                            if sampled:
                                counts = bd.sample_counts(state, SHOTS, sample_seed)
                                corr = bd.estimate_correlations(counts)
                            else:
                                counts = None
                                corr = bd.exact_correlations(state)
                            result = bd.reconstruct(corr)
                            fid = bd.fidelity(result.state, target)
                    except Exception as exc:  # a failed operation is counted; the run goes on
                        self._fail(label, repr(exc))
                        continue
                    meter.add(time.perf_counter() - start)
                    counts_by_key = None
                    if sampled:
                        counts_by_key = {s.key: list(v) for s, v in counts.counts.items()}
                        self.fidelities[damped].append(fid)
                    self._check(
                        label,
                        checks.roundtrip_problems,
                        label,
                        result.state.matrix,
                        result.projected,
                        fid,
                        target.matrix,
                        state.matrix,
                        counts_by_key,
                        SHOTS,
                    )
        self._throughput("tomographs_per_s", meter)

    def _throughput(self, metric: str, meter: speed.Meter) -> None:
        """Completed operations per second over one round."""
        self._add_busy(meter.wall, meter.reference)
        self.in_process[0] += meter.wall
        self.in_process[1] += meter.reference
        if meter.intervals:
            self.wall[metric].append(meter.intervals / meter.wall)
            self.samples[metric].append(meter.intervals / meter.reference)

    def hierarchy_round(self, index: int) -> None:
        """``full_report`` on one Ginibre state of each rank 1 to 4."""
        rng = np.random.default_rng([self.seed, 2, index])
        states = [ref.ginibre_matrix(rng, rank) for rank in (1, 2, 3, 4)]
        meter = speed.Meter()
        for rank, m in enumerate(states, start=1):
            rho = bd.DensityMatrix(m, validate=False)
            label = f"hierarchy rank={rank} round={index}"
            self.attempted += 1
            start = time.perf_counter()
            try:
                with self._operation("op.report"):
                    report = bd.full_report(rho)
            except Exception as exc:  # a failed operation is counted; the run goes on
                self._fail(label, repr(exc))
                continue
            meter.add(time.perf_counter() - start)
            values = report.as_dict()
            self._check(label, checks.report_problems, label, values, m)
            if index == 0:
                # The fixed subsample checked against the dense-grid oracle.
                self._check(
                    label, checks.discord_oracle_problems, label, values["discord"], checks.discord_oracle(m)
                )
        self._throughput("reports_per_s", meter)

    def run_sections(self, rounds: dict[str, int] | None = None) -> dict[str, int]:
        """Run every section; the workload's own one for ``seconds``, unless ``rounds`` is given."""
        step = {"cli": self.cli_round, "tomography": self.tomography_round, "hierarchy": self.hierarchy_round}
        done = {}
        for section in SECTIONS:
            if rounds is not None or section != self.main_section:
                n = rounds[section] if rounds is not None else SIDE_ROUNDS[section]
                for i in range(n):
                    step[section](i)
            else:
                start = time.perf_counter()
                n = 0
                while n == 0 or time.perf_counter() - start < self.seconds:
                    step[section](n)
                    n += 1
            done[section] = n
        problems = checks.fidelity_stats_problems("8192-shot fidelities, clean", self.fidelities[False])
        problems += checks.fidelity_stats_problems("8192-shot fidelities, damped", self.fidelities[True])
        self.problems += problems
        return done

    def import_times(self) -> dict[str, float]:
        """Cumulative import time of belldiag and of scipy, from ``-X importtime``, in reference seconds."""
        scipy_s, belldiag_s = [], []
        for _ in range(IMPORTTIME_REPEATS):
            code, _, err, wall, reference = self._python(["-X", "importtime", "-c", "import belldiag"])
            self.attempted += 1
            if code != 0:
                self._fail("import belldiag -X importtime", err)
                continue
            roots = importtime_tree(err)
            scale = 1e-6 * reference / wall
            scipy_s.append(scale * sum(_outermost(roots, "scipy")))
            belldiag_s.append(scale * sum(_outermost(roots, "belldiag")))
        return {
            "import.scipy_s": statistics.median(scipy_s) if scipy_s else 0.0,
            "import.belldiag_s": statistics.median(belldiag_s) if belldiag_s else 0.0,
        }


def importtime_tree(stderr: str) -> list[dict]:
    """Import tree from ``-X importtime`` output, which lists children before parents."""
    stack: list[dict] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, field = line[len("import time:") :].split("|")
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        node = {"name": field.strip(), "depth": depth, "cumulative_us": int(cumulative), "children": []}
        while stack and stack[-1]["depth"] > depth:
            node["children"].insert(0, stack.pop())
        stack.append(node)
    return stack


def _outermost(nodes: list[dict], package: str):
    """Cumulative times of the outermost imports of ``package`` and its submodules."""
    for node in nodes:
        if node["name"] == package or node["name"].startswith(package + "."):
            yield node["cumulative_us"]
        else:
            yield from _outermost(node["children"], package)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref_name = text[5:]
        ref_file = ROOT / ".git" / ref_name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "platform": platform.platform(),
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def scipy_version() -> str:
    import scipy

    return scipy.__version__


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def traced_metrics(bench: Bench) -> dict[str, float]:
    """Per-layer metrics: the rounds run once untraced, then again with the tracer installed."""
    metrics = bench.import_times()
    rounds = bench.run_sections()
    untraced = bench.op_reference
    bench.op_wall = bench.op_reference = 0.0
    bench.in_process = [0.0, 0.0]
    bench.tracer = Tracer()
    bench.tracer.install()
    try:
        bench.run_sections(rounds)
    finally:
        bench.tracer.uninstall()
    kernel_before = speed.kernel_seconds()
    start = time.perf_counter()
    bench.tracer.time_discord_grid()
    grid_wall = time.perf_counter() - start
    dump = bench.tracer.dump()
    # Spans hold wall times; each dump carries the CPU speed measured while it ran.
    dump["scale"] = bench.in_process[1] / bench.in_process[0] if bench.in_process[0] else 1.0
    if grid_wall > 0:
        dump["grid_scale"] = speed.rescale(grid_wall, kernel_before, speed.kernel_seconds()) / grid_wall
    bench.dumps.append(dump)
    metrics |= summarize(bench.dumps)
    metrics["trace.overhead_pct"] = 100.0 * (bench.op_reference / untraced - 1.0)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    meta = metadata(args)
    # The work and the speed kernel share one CPU; subprocesses inherit this.
    meta["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {meta["pinned_cpu"]})
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        bench = Bench(args.workload, args.seed, args.seconds, work)
        if args.trace:
            metrics = traced_metrics(bench)
            units = PER_LAYER_UNITS
            spans = OUT / f"{args.workload}-seed{args.seed}.spans.json"
            spans.write_text(json.dumps({"metadata": meta, "dumps": bench.dumps}))
        else:
            bench.setup_section()
            bench.run_sections()
            metrics = {name: statistics.median(v) if v else 0.0 for name, v in bench.samples.items()}
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "metadata": meta,
        "result": result,
        "samples_reference_s": bench.samples,
        "samples_wall_s": bench.wall,
        "problems": bench.problems[:100],
        "errors": bench.errors[:100],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for line in bench.problems[:20] + bench.errors[:20]:
        print(line, file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:44s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
