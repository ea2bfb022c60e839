"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line on the real stdout, so the verdicts
appear even under pytest's output capture. The criteria pin the package's
headline guarantees: exact circuit preparation, the Werner theory curves,
shot-noise tomography quality, the damping-noise predictions, the resource
hierarchy, channel correctness, and bytewise determinism.
"""

import math
import sys
import time

import numpy as np
from helpers import ginibre_state, random_spec
from oracles import apply_channel_superoperator, discord_grid_oracle

import belldiag as bd
from belldiag.cli import CSV_HEADER, _sweep_rows, build_parser
from belldiag.noise import COMPLETENESS_ATOL
from belldiag.tomography import counts_to_json

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

W_GRID = np.linspace(0.0, 1.0, 11)


def _check(label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {label} {detail}".rstrip()
    print(f"\n{line}", file=sys.__stdout__)
    assert ok, f"{label}: {detail}"


def _sweep_args(*flags):
    return build_parser().parse_args(["sweep", *flags])


def _sweep_table(args):
    rows = _sweep_rows(args)
    return np.array([[float(x) for x in row.split(",")] for row in rows])


def test_criterion_1_end_to_end_preparation_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        spec = random_spec(rng)
        got = bd.prepared_state(spec).matrix
        want = bd.bds_from_spec(spec).matrix
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    _check(
        "criterion 1: 200 random specs prepare exactly",
        worst < 1e-10 and elapsed < 5.0,
        f"(max error {worst:.2e}, {elapsed:.2f} s)",
    )


def test_criterion_2_werner_theory_curves():
    data = _sweep_table(_sweep_args("--points", "11", "--shots", "0"))
    w = data[:, 0]
    errors = {
        "C": np.max(np.abs(data[:, 2] - w)),
        "E": np.max(np.abs(data[:, 4] - np.maximum(0, (3 * w - 1) / 2))),
        "S": np.max(np.abs(data[:, 5] - np.maximum(0, (SQRT3 * w - 1) / (SQRT3 - 1)))),
        "N": np.max(np.abs(data[:, 6] - np.maximum(0, (SQRT2 * w - 1) / (SQRT2 - 1)))),
    }
    curves_ok = all(err < 1e-6 for err in errors.values())

    # thresholds located by sign change on a 1e-3 grid
    def first_positive(measure, lo, hi):
        for x in np.arange(lo, hi, 1e-3):
            if measure(bd.werner(float(x))) > 0:
                return x
        return np.inf

    thresholds_ok = (
        abs(first_positive(bd.negativity, 1 / 3 - 5e-3, 1 / 3 + 5e-3) - 1 / 3) <= 1.5e-3
        and abs(first_positive(bd.steering, 1 / SQRT3 - 5e-3, 1 / SQRT3 + 5e-3) - 1 / SQRT3)
        <= 1.5e-3
        and abs(first_positive(bd.nonlocality, 1 / SQRT2 - 5e-3, 1 / SQRT2 + 5e-3) - 1 / SQRT2)
        <= 1.5e-3
    )

    discord_err = 0.0
    for wi, d_csv in zip(w, data[:, 3]):
        oracle = discord_grid_oracle(bd.werner(float(wi)).matrix, n_theta=721, n_phi=1441)
        discord_err = max(discord_err, abs(d_csv - oracle))
    discord_ok = discord_err < 1e-4

    _check(
        "criterion 2: exact Werner sweep matches closed forms and discord oracle",
        curves_ok and thresholds_ok and discord_ok,
        f"(curve errors {({k: float(v) for k, v in errors.items()})}, "
        f"discord vs oracle {discord_err:.2e})",
    )


def test_criterion_3_bell_state_anchors():
    report = bd.full_report(bd.werner(1.0))
    values = report.as_dict()
    measures_ok = all(
        abs(values[name] - 1.0) < (1e-4 if name == "discord" else 1e-6)
        for name in ("nonlocal_coherence", "discord", "negativity", "steering", "nonlocality")
    )
    fid = bd.fidelity(bd.prepared_state(bd.werner_spec(1.0)), bd.bell_state(1, 1))
    _check(
        "criterion 3: all measures and the preparation fidelity reach 1 at w=1",
        measures_ok and abs(fid - 1.0) < 1e-9,
        f"(fidelity {fid:.12f})",
    )


def test_criterion_4_shot_noise_tomography():
    start = time.perf_counter()
    stats = {}
    ok = True
    for w in (0.0, 0.5, 1.0):
        target = bd.werner(w)
        prepared = bd.prepared_state(bd.werner_spec(w))
        fids = []
        for seed in range(100):
            reconstructed = bd.tomograph(prepared, shots=8192, seed=seed).state
            fids.append(bd.fidelity(reconstructed, target))
        fids = np.array(fids)
        stats[w] = (float(np.median(fids)), float(np.min(fids)))
        ok = ok and np.median(fids) >= 0.99 and np.min(fids) >= 0.97
    elapsed = time.perf_counter() - start
    _check(
        "criterion 4: 8192-shot tomography fidelities over 100 seeds",
        ok and elapsed < 60.0,
        f"(median/min per w: {stats}, {elapsed:.1f} s)",
    )


def test_criterion_5_damping_noise_predictions():
    sweep_30 = bd.decohered_werner_sweep(0.3, 0.3, W_GRID)
    n_all_zero = all(report.nonlocality == 0.0 for _, report in sweep_30)
    s_at_one = sweep_30[-1][1].steering
    s_expected = (0.7 * SQRT3 - 1) / (SQRT3 - 1)

    n_at_one = bd.nonlocality(
        bd.apply_channel(bd.composite_damping(0.25, 0.25), bd.werner(1.0), qubit=0)
    )
    n_expected = (0.75 * SQRT2 - 1) / (SQRT2 - 1)

    _check(
        "criterion 5: damping noise model reproduces the decohered curves",
        n_all_zero
        and abs(s_at_one - s_expected) < 1e-9
        and abs(n_at_one - n_expected) < 1e-9,
        f"(S(1)@30% = {s_at_one:.9f}, N(1)@25% = {n_at_one:.9f})",
    )


def test_criterion_6_resource_hierarchy():
    floor = 1e-9
    rng = np.random.default_rng(606)

    def chain_of(report):
        return [
            report.nonlocality,
            report.steering,
            report.negativity,
            report.discord,
            max(0.0, report.nonlocal_coherence),
        ]

    def violates(chain):
        return any(
            upper > floor and lower <= floor for upper, lower in zip(chain, chain[1:])
        )

    reports = [bd.full_report(bd.werner(float(w))) for w in W_GRID]
    for rates in (0.3, 0.25):
        reports.extend(r for _, r in bd.decohered_werner_sweep(rates, rates, W_GRID))

    bad = [chain_of(r) for r in reports if violates(chain_of(r))]
    checked = len(reports)
    for i in range(10_000):
        report = bd.full_report(ginibre_state(rng, rank=1 + i % 4))
        chain = chain_of(report)
        checked += 1
        if violates(chain):
            bad.append(chain)
            if len(bad) > 3:
                break
    _check(
        "criterion 6: hierarchy chain holds on 10k random states plus sweeps",
        not bad,
        f"({checked} states checked{'; violations: ' + repr(bad[:3]) if bad else ''})",
    )


def test_criterion_7_channel_correctness():
    rng = np.random.default_rng(707)
    completeness_ok = True
    for a in np.linspace(0, 1, 6):
        for p in np.linspace(0, 1, 6):
            ops = bd.composite_damping(float(a), float(p)).operators
            total = sum(k.conj().T @ k for k in ops)
            completeness_ok &= bool(np.max(np.abs(total - np.eye(2))) < COMPLETENESS_ATOL)

    channel = bd.composite_damping(0.3, 0.3)
    superop_err = 0.0
    for _ in range(100):
        rho = ginibre_state(rng)
        kraus_path = bd.apply_channel(channel, rho, qubit=0).matrix
        superop_path = apply_channel_superoperator(channel.operators, rho.matrix, 0, 2)
        superop_err = max(superop_err, float(np.max(np.abs(kraus_path - superop_path))))

    monotone_ok = True
    for w, noisy in bd.decohered_werner_sweep(0.3, 0.3, W_GRID):
        clean = bd.full_report(bd.werner(w)).as_dict()
        for key, value in noisy.as_dict().items():
            monotone_ok &= value <= clean[key] + 1e-9

    _check(
        "criterion 7: channels complete, Kraus equals superoperator, measures monotone",
        completeness_ok and superop_err < 1e-10 and monotone_ok,
        f"(kraus-vs-superoperator max {superop_err:.2e})",
    )


def test_criterion_8_determinism():
    args = _sweep_args("--points", "3", "--shots", "512", "--seed", "12345")
    csv_a = CSV_HEADER + "\n" + "\n".join(_sweep_rows(args)) + "\n"
    csv_b = CSV_HEADER + "\n" + "\n".join(_sweep_rows(args)) + "\n"

    counts_a = counts_to_json(bd.sample_counts(bd.werner(0.5), 8192, seed=99))
    counts_b = counts_to_json(bd.sample_counts(bd.werner(0.5), 8192, seed=99))

    _check(
        "criterion 8: byte-identical CSV and counts JSON for identical seeds",
        csv_a.encode() == csv_b.encode() and counts_a.encode() == counts_b.encode(),
        f"({len(csv_a)} CSV bytes, {len(counts_a)} JSON bytes)",
    )
