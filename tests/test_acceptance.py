"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Monte Carlo criteria use pinned seeds; the simulation is fully
deterministic, so these are frozen regression points, not lottery draws.
"""

import math
import time

import numpy as np
import pytest

from usdkit import analysis, experiment, states, theory
from usdkit.cli import SweepSpec, run_sweep, main as cli_main

SQRT_HALF = 2.0**-0.5
MESD_AT_SQRT_HALF = 0.1464466094067262
PSUC_6_40 = 0.4958110933998417
PINC_6_40 = 0.5041889066001582

GRID_DIMS = range(2, 15)
GRID_POINTS = 12

_cache: dict = {}


def _grid():
    if "grid" not in _cache:
        grid = {}
        for d in GRID_DIMS:
            tmax = theory.theta_max(d)
            for k in range(1, GRID_POINTS + 1):
                theta = k * tmax / GRID_POINTS
                grid[(d, k)] = (theta, states.build_basis(d, theta))
        _cache["grid"] = grid
    return _cache["grid"]


def _embed(family):
    """The input states beside a zero ancilla component: (d, d+1)."""
    return np.pad(np.asarray(family.vectors), ((0, 0), (0, 1)))


def _report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_construction_oracle():
    start = time.perf_counter()
    worst_completeness, worst_zero_error = 0.0, 0.0
    for d in GRID_DIMS:
        tmax = theory.theta_max(d)
        for k in range(1, GRID_POINTS + 1):
            theta = k * tmax / GRID_POINTS
            basis = states.build_basis(d, theta)
            worst_completeness = max(worst_completeness, states.residuals(basis)["completeness"])
            probs = (_embed(basis.family) @ np.asarray(basis.vectors).T) ** 2
            off = probs[:, :d][~np.eye(d, dtype=bool)]
            worst_zero_error = max(worst_zero_error, float(np.max(off)))
    elapsed = time.perf_counter() - start
    ok = worst_completeness < 1e-10 and worst_zero_error < 1e-20 and elapsed < 5.0
    _report(
        "criterion-1 construction-oracle",
        ok,
        f"completeness {worst_completeness:.2e}, zero-error {worst_zero_error:.2e}, "
        f"{elapsed:.2f}s for d=2..14 x {GRID_POINTS} angles",
    )


def test_criterion_2_closed_form_d3():
    worst = 0.0
    for deg in (15.0, 33.0, 45.0):
        theta = math.radians(deg)
        basis = states.build_basis(3, theta)
        tan, sec = math.tan(theta), 1.0 / math.cos(theta)
        q = 3.0 * math.cos(theta) ** 2 - 1.0
        reference = np.array(
            [
                [math.sqrt(2 / 3), 0.0, tan / math.sqrt(6), math.sqrt(q / 6) * sec],
                [-1 / math.sqrt(6), 1 / math.sqrt(2), tan / math.sqrt(6), math.sqrt(q / 6) * sec],
                [-1 / math.sqrt(6), -1 / math.sqrt(2), tan / math.sqrt(6), math.sqrt(q / 6) * sec],
                [0.0, 0.0, -math.sqrt(q / 2) * sec, tan / math.sqrt(2)],
            ]
        )
        for row, ref in zip(np.asarray(basis.vectors), reference):
            diff = min(np.max(np.abs(row - ref)), np.max(np.abs(row + ref)))
            worst = max(worst, float(diff))
    _report("criterion-2 closed-form-d3", worst < 1e-12, f"worst component diff {worst:.2e}")


def test_criterion_3_probability_formulas():
    worst = 0.0
    for (d, _), (theta, basis) in _grid().items():
        probs = (_embed(basis.family) @ np.asarray(basis.vectors).T) ** 2
        p_suc, p_inc = theory.usd_probabilities(d, theta)
        worst = max(worst, float(np.max(np.abs(np.diag(probs[:, :d]) - p_suc))))
        worst = max(worst, float(np.max(np.abs(probs[:, d] - p_inc))))
    _report("criterion-3 probability-formulas", worst < 1e-12, f"worst deviation {worst:.2e}")


def test_criterion_4_mesd_bound_and_angle():
    direct = 0.5 * (1.0 - math.sqrt(0.5))
    worst = max(
        abs(theory.mesd_bound(d, theory.theta_for_overlap(d, SQRT_HALF)) - direct)
        for d in GRID_DIMS
    )
    angle_err = abs(math.degrees(theory.theta_for_overlap(2, SQRT_HALF)) - 22.5)
    ok = worst < 1e-12 and angle_err < 1e-10 and abs(direct - MESD_AT_SQRT_HALF) < 1e-15
    _report(
        "criterion-4 mesd-bound",
        ok,
        f"bound deviation {worst:.2e} across d, theta(2) off by {angle_err:.2e} deg",
    )


def test_criterion_5_pipeline_fidelity_noiseless():
    start = time.perf_counter()
    theta = math.radians(40.0)
    basis = states.build_basis(6, theta)
    passing = 0
    config = experiment.ExperimentConfig()
    for seed in range(100):
        table = analysis.outcome_table(experiment.run_experiment(basis, config, seed))
        p, s = table.probabilities, table.sigmas
        good = all(
            abs(p[i, i] - PSUC_6_40) <= 3.0 * s[i, i]
            and abs(p[i, 6] - PINC_6_40) <= 3.0 * s[i, 6]
            for i in range(6)
        )
        passing += good
    elapsed = time.perf_counter() - start
    ok = passing >= 95 and elapsed < 60.0
    _report(
        "criterion-5 pipeline-fidelity",
        ok,
        f"{passing}/100 seeds within 3 sigma on every state, {elapsed:.1f}s",
    )


def test_criterion_6_dimension_sweep_classification():
    spec = SweepSpec(
        dims=tuple(GRID_DIMS),
        fixed_overlap=SQRT_HALF,
        repetitions=25,
        seed=3,
        max_coincidence_rate=22.0,
        spiral_bandwidth_sigma=2.4,
        singles_rate_scale=500.0,
        percell_error=0.01,
    )
    rows = run_sweep(spec)
    majorities = {}
    ok = True
    for d in GRID_DIMS:
        votes = [r["verdict"] for r in rows if r["dim"] == d and r["seed"] is not None]
        below = votes.count(analysis.VERDICT_BELOW)
        majorities[d] = below
        if d <= 12 and not below > len(votes) // 2:
            ok = False
        if d >= 13 and not (len(votes) - below) > len(votes) // 2:
            ok = False
    _report(
        "criterion-6 dimension-sweep",
        ok,
        "below-votes/25 per d: " + " ".join(f"{d}:{majorities[d]}" for d in GRID_DIMS),
    )


@pytest.mark.parametrize("d,deg", [(3, 30.0), (6, 40.0)])
def test_criterion_7_error_propagation(d, deg):
    theta = math.radians(deg)
    basis = states.build_basis(d, theta)
    epsilon = 0.2
    config = experiment.ExperimentConfig(crosstalk_epsilon=epsilon)
    expected = np.asarray(experiment.expected_record(basis, config).coincidences)
    assert np.min(expected) >= 100.0, "criterion requires >= 100 expected counts per cell"
    probabilities, sigmas = [], []
    for k in range(1000):
        record = experiment.run_experiment(basis, config, 10_000 + k)
        probabilities.append(analysis.normalize_probabilities(analysis.quantum_contrast(record)))
        sigmas.append(analysis.gaussian_propagation(record))
    ensemble = np.std(probabilities, axis=0, ddof=1)
    propagated = np.mean(sigmas, axis=0)
    mismatch = float(np.max(np.abs(propagated / ensemble - 1.0)))
    _report(
        f"criterion-7 error-propagation d={d}",
        mismatch <= 0.20,
        f"max relative sigma mismatch {mismatch:.3f} over 1000 seeds",
    )


def test_criterion_8_run_determinism(tmp_path):
    argv = [
        "run", "--dim", "6", "--theta-deg", "40", "--seed", "123", "--reps", "5",
        "--epsilon", "0.07",
    ]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert cli_main(argv + ["--out", str(first)]) == 0
    assert cli_main(argv + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    _report(
        "criterion-8 determinism",
        identical,
        f"{len(first.read_bytes())} bytes, identical={identical}",
    )
