"""CLI verbs, sweep output schema, determinism, and error reporting."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usdkit import analysis, cli, errors, experiment, states, theory
from usdkit.cli import CSV_COLUMNS, SweepSpec, run_sweep, theory_rows
from usdkit.errors import UsdError


#: the acceptance sweep's source and noise settings
ACCEPTANCE = dict(
    fixed_overlap=2**-0.5, percell_error=0.01, max_coincidence_rate=22.0, spiral_bandwidth_sigma=2.4
)


def invoke(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _not_strict(constant):
    raise ValueError(f"{constant} is not strict JSON")


def one_error(result):
    """The whole CLI error contract for ``(code, stdout, stderr)``; returns the error object.

    Exit code 1, nothing on stdout, and exactly one stderr line that parses as strict JSON
    (no NaN, Infinity or -Infinity).
    """
    code, out, err = result
    assert (code, out) == (1, ""), result
    line, = err.splitlines()
    return json.loads(line, parse_constant=_not_strict)


#: the address space of a capped child: the interpreter and numpy fit, a large array does not
CHILD_CAP = 2_500_000_000


def run_child(*argv, capped=False):
    """``python -m usdkit.cli *argv`` in a fresh interpreter, as ``(code, stdout, stderr)``.

    The child imports this checkout's package, with BLAS at one thread; ``capped`` limits
    the child's address space alone to ``CHILD_CAP`` bytes.
    """
    limit = None
    if capped:
        resource = pytest.importorskip("resource")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (CHILD_CAP, CHILD_CAP))

    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "usdkit.cli", *argv], capture_output=True, text=True,
        preexec_fn=limit, env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
    )
    return proc.returncode, proc.stdout, proc.stderr


# ------------------------------------------------------------------ build


def test_build_writes_artifacts_and_residuals(tmp_path, capsys):
    code, out, err = invoke(
        capsys, "build", "--dim", "3", "--theta-deg", "33", "--out", str(tmp_path)
    )
    assert code == 0 and err == ""
    assert "orthonormality residual" in out and "zero-error residual" in out
    basis = json.loads((tmp_path / "basis.json").read_text())
    direct = states.build_basis(3, math.radians(33.0))
    assert out.splitlines()[1:] == [
        f"orthonormality residual: {direct.orthonormality_residual:.3e}",
        f"zero-error residual: {states.residuals(direct)['zero_error']:.3e}",
    ]
    assert basis["dim"] == 3 and basis["theta_rad"] == direct.family.theta
    assert np.array_equal(np.array(basis["vectors"]), np.asarray(direct.vectors))
    mapping = json.loads((tmp_path / "oam_map.json").read_text())
    assert mapping == {"dim": 3, "state_ells": [-1, 0, 1], "ancilla_ell": -2}


def test_build_without_out_writes_into_the_output_directory(tmp_path, capsys, monkeypatch):
    # --out defaults to the output directory itself: $USDKIT_OUT_DIR if set, else the working one
    argv = ("build", "--dim", "3", "--theta-deg", "33")
    names = ["basis.json", "family.json", "oam_map.json"]
    invoke(capsys, *argv, "--out", str(tmp_path / "explicit"))
    expected = [(tmp_path / "explicit" / name).read_text() for name in names]
    env_dir, cwd = tmp_path / "env", tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(env_dir))
    code, out, err = invoke(capsys, *argv)
    assert code == 0 and err == ""
    assert out.splitlines()[0] == f"wrote family.json basis.json oam_map.json to {env_dir}{os.sep}"
    assert [(env_dir / name).read_text() for name in names] == expected
    monkeypatch.delenv(cli.OUT_DIR_ENV)
    monkeypatch.chdir(cwd)
    code, out, err = invoke(capsys, *argv)
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "wrote family.json basis.json oam_map.json to ."
    assert sorted(os.listdir(cwd)) == names
    assert [(cwd / name).read_text() for name in names] == expected


def test_build_invalid_dimension_exits_nonzero(capsys):
    payload = one_error(invoke(capsys, "build", "--dim", "1", "--theta-deg", "20"))
    assert payload["error"] == "InvalidDimensionError"


# ----------------------------------------------------------------- theory


def test_theory_csv_schema_and_values(tmp_path, capsys):
    out_file = tmp_path / "theory.csv"
    code, _, err = invoke(
        capsys,
        "theory",
        "--dim",
        "6",
        "--theta-grid",
        "40",
        "--out",
        str(out_file),
    )
    assert code == 0, err
    lines = out_file.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    row = dict(zip(CSV_COLUMNS, cells))
    assert row["dim"] == "6"
    assert float(row["theta_deg"]) == pytest.approx(40.0, abs=1e-12)
    assert float(row["overlap"]) == pytest.approx(0.5041889066001582, abs=1e-12)
    assert float(row["p_suc_theory"]) == pytest.approx(0.4958110933998417, abs=1e-12)
    assert row["mean_total_error"] == "" and row["verdict"] == "" and row["seed"] == ""


def test_theory_sweep_endpoint_reaches_unity(tmp_path, capsys):
    out_file = tmp_path / "t.csv"
    code, _, _ = invoke(
        capsys, "theory", "--dim", "3", "--theta-grid", "5:54.735610317245346:12",
        "--out", str(out_file),
    )
    assert code == 0
    last = out_file.read_text().splitlines()[-1].split(",")
    row = dict(zip(CSV_COLUMNS, last))
    assert float(row["p_suc_theory"]) == pytest.approx(1.0, abs=1e-10)
    assert float(row["mesd_bound"]) == pytest.approx(0.0, abs=1e-10)


def test_theory_rows_fixed_overlap_picks_theta_per_dim():
    spec = SweepSpec(dims=(2, 6), fixed_overlap=2**-0.5)
    rows = theory_rows(spec)
    assert rows[0]["theta_deg"] == pytest.approx(22.5, abs=1e-10)
    assert rows[1]["theta_deg"] == pytest.approx(29.60661086515335, abs=1e-9)
    assert all(r["mesd_bound"] == pytest.approx(0.1464466094067262, abs=1e-12) for r in rows)


@pytest.mark.parametrize(
    "angles", [dict(thetas=(0.2, 0.5)), dict(fixed_overlap=2**-0.5)], ids=["theta-grid", "overlap"]
)
def test_theory_sweep_never_builds_or_draws(monkeypatch, angles):
    spec = SweepSpec(dims=(2, 5, 9), **angles)
    expected = theory_rows(spec)

    def refuse(*args):
        raise AssertionError("a theory sweep built or drew")

    monkeypatch.setattr(states, "build_basis", refuse)
    monkeypatch.setattr(experiment, "run_repetitions", refuse)
    assert theory_rows(spec) == expected


# -------------------------------------------------------------------- run


def test_run_single_point_csv(tmp_path, capsys):
    out_file = tmp_path / "run.csv"
    code, _, err = invoke(
        capsys,
        "run",
        "--dim", "6", "--theta-deg", "40", "--seed", "5", "--reps", "3",
        "--out", str(out_file),
    )
    assert code == 0, err
    lines = out_file.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 3 + 1  # header, three repetitions, aggregate
    rep_rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:4]]
    assert [r["seed"] for r in rep_rows] == ["5", "6", "7"]
    aggregate = dict(zip(CSV_COLUMNS, lines[4].split(",")))
    assert aggregate["seed"] == ""
    means = [float(r["mean_total_error"]) for r in rep_rows]
    assert float(aggregate["mean_total_error"]) == pytest.approx(np.mean(means), abs=1e-12)
    assert all(r["verdict"] == "below_by_one_sigma" for r in rep_rows)


def test_run_byte_identical_outputs(tmp_path, capsys):
    args = ["run", "--dim", "4", "--theta-deg", "30", "--seed", "9", "--reps", "2"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert invoke(capsys, *args, "--out", str(first))[0] == 0
    assert invoke(capsys, *args, "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_run_json_format(tmp_path, capsys):
    out_file = tmp_path / "run.json"
    code, _, _ = invoke(
        capsys,
        "run", "--dim", "3", "--theta-deg", "25", "--seed", "2", "--format", "json",
        "--out", str(out_file),
    )
    assert code == 0
    rows = json.loads(out_file.read_text())
    assert set(rows[0]) == set(CSV_COLUMNS)
    assert rows[0]["verdict"] in ("below_by_one_sigma", "overlapping", "above")


def test_run_domain_error_reports_json(capsys):
    payload = one_error(invoke(capsys, "run", "--dim", "6", "--theta-deg", "80"))
    assert payload["error"] == "DomainError"
    assert "theta" in payload["message"]


def test_run_sweep_percell_calibration():
    spec = SweepSpec(
        dims=(6,),
        thetas=(math.radians(40.0),),
        repetitions=1,
        seed=0,
        percell_error=0.01,
    )
    rows = run_sweep(spec)
    # eleven-ish percent of each conclusive row misidentified: 5 cells at 1%
    assert rows[0]["mean_total_error"] == pytest.approx(0.05, abs=0.02)


def test_run_dimension_sweep_via_flags(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, err = invoke(
        capsys,
        "run", "--dims", "2:3", "--overlap", "0.7071067811865475",
        "--percell-error", "0.01", "--max-rate", "22", "--sigma-spiral", "2.4",
        "--seed", "3", "--reps", "2", "--out", str(out_file),
    )
    assert code == 0, err
    lines = out_file.read_text().splitlines()
    # two dims x (two repetitions + aggregate) plus header
    assert len(lines) == 1 + 2 * 3
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]
    assert {r["dim"] for r in rows} == {"2", "3"}
    for row in rows:
        assert float(row["mesd_bound"]) == pytest.approx(0.1464466094067262, abs=1e-12)
        assert row["verdict"] == "below_by_one_sigma"


def reference_sweep(spec):
    """``run_sweep`` rebuilt from the full per-record chain, one run per repetition."""
    rows = []
    for d in spec.dims:
        for th in spec.thetas or (theory.theta_for_overlap(d, spec.fixed_overlap),):
            basis = states.build_basis(d, th)
            point = theory.theory_point(d, th)
            means = []
            config = cli._config_for(spec, d)
            for seed in range(spec.seed, spec.seed + spec.repetitions):
                record = experiment.run_experiment(basis, config, seed)
                table = analysis.outcome_table(record)
                summary = analysis.summarize_probabilities(table.probabilities)
                mean, sigma = summary.mean_total_error, summary.mean_error_sigma
                means.append(mean)
                verdict = analysis.classify(mean, sigma, theory.mesd_bound(d, th))
                rows.append(
                    {**cli._row(point, seed), "mean_total_error": mean,
                     "mean_error_sigma": sigma, "verdict": verdict}
                )
            mean, sigma = float(np.mean(means)), float(np.std(means, ddof=1))
            verdict = analysis.classify(mean, sigma, point.mesd_bound)
            rows.append(
                {**cli._row(point), "mean_total_error": mean,
                 "mean_error_sigma": sigma, "verdict": verdict}
            )
    return rows


@pytest.mark.parametrize("seed", [1, 1241356630])
def test_run_sweep_matches_per_record_chain(seed):
    spec = SweepSpec(dims=(2, 5, 13), repetitions=3, seed=seed, **ACCEPTANCE)
    assert run_sweep(spec) == reference_sweep(spec)


def test_run_sweep_does_not_propagate_sigmas(monkeypatch):
    spec = SweepSpec(dims=(3, 6), repetitions=2, seed=4, **ACCEPTANCE)
    expected = run_sweep(spec)

    def refuse(record):
        raise AssertionError("the sweep has no column for propagated sigmas")

    monkeypatch.setattr(analysis, "gaussian_propagation", refuse)
    assert run_sweep(spec) == expected


def test_run_sweep_computes_expected_means_once_per_point(monkeypatch):
    calls = []
    original = experiment._expected_means

    def counted(basis, config):
        calls.append(basis.family.dim)
        return original(basis, config)

    monkeypatch.setattr(experiment, "_expected_means", counted)
    rows = run_sweep(SweepSpec(dims=(2, 4), repetitions=5, seed=0, **ACCEPTANCE))
    assert len(rows) == 2 * (5 + 1)
    assert calls == [2, 4]


def test_run_sweep_classifies_each_row_once(monkeypatch):
    calls, original = [], analysis.classify

    def counted(mean, sigma, bound):
        calls.append(mean)
        return original(mean, sigma, bound)

    monkeypatch.setattr(analysis, "classify", counted)
    rows = run_sweep(SweepSpec(dims=(2, 4), repetitions=3, seed=0, **ACCEPTANCE))
    assert len(rows) == 2 * (3 + 1)
    assert calls == [row["mean_total_error"] for row in rows]


def test_a_sweep_resolves_each_point_once(monkeypatch):
    calls, original = [], theory.theory_point

    def counted(d, theta):
        calls.append(d)
        return original(d, theta)

    monkeypatch.setattr(theory, "theory_point", counted)
    spec = SweepSpec(dims=(2, 4, 5), repetitions=2, seed=0, **ACCEPTANCE)
    for sweep in (cli._plan, theory_rows, run_sweep):
        calls.clear()
        sweep(spec)
        assert calls == [2, 4, 5], sweep.__name__
    grid = SweepSpec(dims=(3, 4), thetas=(0.3, 0.5))
    assert [(p.dim, p.theta) for p in cli._plan(grid)] == [(3, 0.3), (3, 0.5), (4, 0.3), (4, 0.5)]


@pytest.mark.parametrize(
    "sweep, spec, kind",
    [(run_sweep, None, "NoneType"), (theory_rows, "x", "str"), (cli._plan, 3, "int")],
    ids=["run-none", "theory-str", "plan-int"],
)
def test_a_sweep_of_no_spec_is_one_usd_error_naming_its_type(sweep, spec, kind):
    with pytest.raises(UsdError, match=f"^spec must be of type SweepSpec, got {kind}$"):
        sweep(spec)


def test_repetition_and_aggregate_sigmas_answer_different_questions():
    # criterion 6's settings and seed; a point's rows depend only on it, its seeds and its config.
    # A repetition row's sigma is the spread of its d per-state errors, so the majority of
    # repetitions is not below the bound; the aggregate row's is the SD of the 25 repetition
    # means, about sqrt(d) times smaller, so the aggregate verdict is below it.
    spec = SweepSpec(dims=(13, 14), repetitions=25, seed=3, singles_rate_scale=500.0, **ACCEPTANCE)
    rows = run_sweep(spec)
    for d, below, sigma in ((13, 6, 0.0084), (14, 0, 0.0147)):
        *repetitions, aggregate = [row for row in rows if row["dim"] == d]
        votes = [row["verdict"] for row in repetitions]
        assert (len(votes), votes.count(analysis.VERDICT_BELOW)) == (25, below)
        assert aggregate["seed"] is None and aggregate["verdict"] == analysis.VERDICT_BELOW
        assert aggregate["mean_error_sigma"] == pytest.approx(sigma, abs=5e-5)


@st.composite
def small_specs(draw):
    """Small sweeps with theta from a grid or from a fixed overlap."""
    dims = tuple(draw(st.lists(st.integers(2, 8), min_size=1, max_size=3)))
    common = dict(dims=dims, repetitions=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**40)))
    if draw(st.booleans()):
        degrees = draw(st.lists(st.floats(10.0, 40.0), min_size=1, max_size=2))
        return SweepSpec(thetas=tuple(map(math.radians, degrees)), **common)
    return SweepSpec(fixed_overlap=draw(st.floats(0.1, 0.9)), **common)


@settings(max_examples=25, deadline=None)
@given(small_specs())
def test_run_rows_extend_the_theory_row_of_their_point(spec):
    # per point, in spec order: one row per seed, then an aggregate row when reps > 1
    points = theory_rows(spec)
    assert [(r["dim"], r["theta_deg"]) for r in points] == [
        (d, math.degrees(th)) for d in spec.dims
        for th in spec.thetas or (theory.theta_for_overlap(d, spec.fixed_overlap),)
    ]
    seeds = [*range(spec.seed, spec.seed + spec.repetitions)] + [None] * (spec.repetitions > 1)
    rows = run_sweep(spec)
    assert len(rows) == len(seeds) * len(points)
    for k, point in enumerate(points):
        group = rows[k * len(seeds) : (k + 1) * len(seeds)]
        assert [r["seed"] for r in group] == seeds
        for row in group:
            assert [row[c] for c in CSV_COLUMNS[:6]] == [point[c] for c in CSV_COLUMNS[:6]]


def test_seed_independent_error_names_first_seed(capsys):
    code, out, err = invoke(
        capsys,
        "run", "--dim", "3", "--theta-deg", "30", "--singles-rate", "1", "--reps", "3",
        "--seed", "5",
    )
    assert code == 1 and out == ""
    assert err == (
        '{"error": "ConfigurationError", "message": "singles_rate_scale is too low for the '
        "coincidence rates: expected singles 30.0 must dominate the largest cell mean "
        '6562.50000075; raise singles_rate_scale or lower the coincidence scale", '
        '"dim": 3, "theta_deg": 29.999999999999996, "seed": 5}\n'
    )


def test_run_rejects_zero_max_rate(capsys):
    # no signal: any verdict would come from noise alone
    payload = one_error(invoke(capsys, "run", "--dim", "2", "--theta-deg", "30", "--max-rate", "0"))
    assert payload["error"] == "ConfigurationError"
    assert "max_coincidence_rate" in payload["message"]


@pytest.mark.parametrize(
    "flag, value, field, message",
    [
        ("--integration-time", "-1", "integration_time", "integration_time must be positive"),
        ("--epsilon", "0.7", "crosstalk_epsilon", "crosstalk_epsilon must lie in [0, 0.5)"),
        ("--sigma-spiral", "-2", "spiral_bandwidth_sigma",
         "spiral_bandwidth_sigma must be positive, with 2 sigma^2 not underflowing to 0"),
        ("--sigma-spiral", "1e-200", "spiral_bandwidth_sigma",  # positive, but 2 sigma^2 == 0
         "spiral_bandwidth_sigma must be positive, with 2 sigma^2 not underflowing to 0"),
        ("--max-rate", "0", "max_coincidence_rate", "max_coincidence_rate must be positive"),
        ("--singles-rate", "-5", "singles_rate_scale", "singles_rate_scale must be nonnegative"),
        # epsilon = per_cell*(d+1) grows with d, so d=2, outside this sweep, judges the spec
        ("--percell-error", "-0.01", "percell_error",
         "per-cell error -0.01 needs epsilon=-0.03 at d=2, outside [0, 0.5)"),
        ("--percell-error", "0.2", "percell_error",
         "per-cell error 0.2 needs epsilon=0.6000000000000001 at d=2, outside [0, 0.5)"),
    ],
    ids=["integration-time", "epsilon", "sigma-spiral", "sigma-spiral-underflow", "max-rate",
         "singles-rate", "percell-negative", "percell-too-large"],
)
def test_setting_valid_at_no_point_is_one_error_before_any_build(
    capsys, monkeypatch, flag, value, field, message
):
    builds = []
    monkeypatch.setattr(cli.states, "build_basis", lambda *args: builds.append(args))
    argv = ("run", "--dims", "3,4", "--theta-deg", "30", f"{flag}={value}")
    assert one_error(invoke(capsys, *argv)) == {"error": "ConfigurationError", "message": message}
    assert builds == []
    with pytest.raises(errors.ConfigurationError, match=re.escape(message)):
        SweepSpec(dims=(3, 4), thetas=(0.5,), **{field: float(value)})  # theory_rows' spec too


@pytest.mark.parametrize(
    "flag, value",
    [("--theta-deg", "-1e-3"), ("--theta-deg", "-inf"), ("--theta-deg", "-NaN"),
     ("--overlap", "-1e-3"), ("--theta-grid", "-10:10:3"), ("--theta-grid", "-.5,10")],
)
def test_negative_value_after_a_space_is_the_flags_value(capsys, flag, value):
    # argparse's own negative-number pattern misses an exponent, -inf and -nan; each is a value
    spaced = one_error(invoke(capsys, "run", "--dim", "3", flag, value))
    assert spaced == one_error(invoke(capsys, "run", "--dim", "3", f"{flag}={value}"))
    assert spaced["error"] == "DomainError", spaced


@pytest.mark.parametrize("verb, value", [("run", "1.5"), ("theory", "-0.5")])
def test_overlap_no_dimension_admits_is_one_error_before_any_build(
    capsys, monkeypatch, verb, value
):
    # the range of an overlap is the same at every d, so the spec judges it once, at d=2
    builds = []
    monkeypatch.setattr(cli.states, "build_basis", lambda *args: builds.append(args))
    message = f"overlap must lie in [0, 1], got {value}"
    payload = one_error(invoke(capsys, verb, "--dims", "3,4", f"--overlap={value}"))
    assert payload == {"error": "DomainError", "message": message}
    assert builds == []
    with pytest.raises(errors.DomainError, match=f"^{re.escape(message)}$"):
        SweepSpec(dims=(3, 4), fixed_overlap=float(value))


def test_percell_error_some_dimension_admits_stays_the_error_of_its_point(capsys):
    # epsilon = 0.04*(d+1) passes at d=2 and fails at d=20, which its point names
    argv = ("run", "--dims", "2,20", "--theta-deg", "20", "--percell-error", "0.04")
    assert one_error(invoke(capsys, *argv)) == {
        "error": "ConfigurationError",
        "message": "per-cell error 0.04 needs epsilon=0.84 at d=20, outside [0, 0.5)",
        "dim": 20, "theta_deg": pytest.approx(20.0, abs=1e-12), "seed": 0,
    }


NO_BUILDABLE_ANGLE = ("every angle of this run lies below 1e-09 rad, where all its states "
                      "coincide; no measurement basis exists")


@pytest.mark.parametrize(
    "argv",
    [("--dims", "3,4", "--overlap", "1"), ("--dims", "3,4", "--theta-deg", "0"),
     ("--dims", "3,4", "--theta-grid", "0,0"),
     # one ulp below 1 the angle rounds to 0 at d = 2, 3 and 5 (not at d = 4)
     ("--dims", "2,3,5", "--overlap", repr(math.nextafter(1.0, 0.0)))],
    ids=["overlap-1", "theta-deg-0", "theta-grid-0-0", "overlap-1-ulp"],
)
def test_run_with_no_buildable_angle_is_one_error_before_any_build(capsys, monkeypatch, argv):
    # theta = arccos(sqrt((1 + (d-1) s)/d)) is 0 at every d when s = 1: no point can be built
    builds = []
    monkeypatch.setattr(cli.states, "build_basis", lambda *args: builds.append(args))
    payload = one_error(invoke(capsys, "run", *argv))
    assert payload == {"error": "DegenerateFamilyError", "message": NO_BUILDABLE_ANGLE}
    assert builds == []
    with pytest.raises(errors.DegenerateFamilyError, match=f"^{re.escape(NO_BUILDABLE_ANGLE)}$"):
        run_sweep(SweepSpec(dims=(3, 4), fixed_overlap=1.0))
    assert builds == []


@pytest.mark.parametrize(
    "argv, point",
    [
        (("--dims", "3,4", "--theta-grid", "0,30"), ("DegenerateFamilyError", 3, 0.0)),
        (("--dims", "3,1", "--overlap", "0.5"), ("InvalidDimensionError", 1, None)),
        # d = 1 resolves no angle, and every point resolves before any is built
        (("--dims", "3,1", "--overlap", "1"), ("InvalidDimensionError", 1, None)),
        # one ulp below 1 the angle is 0 at d = 3 but not at d = 4
        (("--dims", "3,4", "--overlap", repr(math.nextafter(1.0, 0.0))),
         ("DegenerateFamilyError", 3, 0.0)),
    ],
    ids=["theta-grid-0-30", "bad-dim", "bad-dim-overlap-1", "overlap-1-ulp-d4"],
)
def test_run_with_a_buildable_or_unresolved_angle_keeps_its_point_error(capsys, argv, point):
    payload = one_error(invoke(capsys, "run", *argv))
    assert set(payload) == {"error", "message", "dim", "theta_deg", "seed"}
    assert (payload["error"], payload["dim"], payload["theta_deg"]) == point


@pytest.mark.parametrize("overlap", ["0", "1"])
def test_overlap_range_ends_give_rows(capsys, overlap):
    code, out, err = invoke(capsys, "theory", "--dims", "2,3", "--overlap", overlap)
    assert (code, err) == (0, "")
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in out.splitlines()[1:]]
    assert [row["dim"] for row in rows] == ["2", "3"]
    assert [float(row["overlap"]) for row in rows] == pytest.approx([float(overlap)] * 2, abs=1e-15)


def test_point_error_before_its_draw_names_no_seed(capsys):
    # the first angle draws seeds 4 and 5; the second fails to build, so it has drawn none
    argv = ("run", "--dim", "2", "--theta-grid", "10,80", "--seed", "4", "--reps", "2")
    payload = one_error(invoke(capsys, *argv))
    assert payload["error"] == "DomainError"
    assert (payload["dim"], payload["theta_deg"], payload["seed"]) == (2, 80.0, None)


@pytest.mark.parametrize(
    "flag, value", [("--theta-deg", "nan"), ("--theta-deg", "inf"), ("--theta-grid", "nan,10")]
)
def test_nonfinite_theta_error_is_strict_json(capsys, monkeypatch, flag, value):
    # an angle's kind is judged once, when the spec is built: before any point, so no point keys
    builds = []
    monkeypatch.setattr(states, "build_basis", lambda *args: builds.append(args))
    message = f"theta must be finite, got {value.split(',')[0]}"
    for verb in ("run", "theory"):
        payload = one_error(invoke(capsys, verb, "--dim", "3", flag, value))
        assert payload == {"error": "DomainError", "message": message}
    assert builds == []


def test_huge_singles_rate_is_a_config_error(capsys):
    argv = ["run", "--dim", "3", "--theta-deg", "30", "--singles-rate", "1e200"]
    payload = one_error(invoke(capsys, *argv))
    assert payload["error"] == "ConfigurationError"
    assert "finite" in payload["message"]


@pytest.mark.parametrize(
    "flags, error, key",
    [
        pytest.param(flags, error, key, id="-".join(flags))
        for flags, error, key in [
            (("--sigma-spiral", "1e-300"), "ConfigurationError", None),
            (("--singles-rate", "1e200"), "ConfigurationError", None),
            # a non-finite flag meets its config field's number rule, as a --config key does
            (("--sigma-spiral", "inf"), "ConfigurationError", "spiral_bandwidth_sigma"),
            (("--max-rate", "inf", "--sigma-spiral", "1e-160"), "ConfigurationError",
             "max_coincidence_rate"),
            (("--max-rate", "1e300", "--integration-time", "1e300"), "ConfigurationError", None),
        ]
    ],
)
def test_degenerate_config_leaves_one_json_line_on_stderr(flags, error, key):
    # a fresh interpreter, so that numpy warnings reach stderr instead of pytest's recorder
    payload = one_error(run_child("run", "--dim", "3", "--theta-deg", "30", *flags))
    assert payload["error"] == error
    assert key is None or payload["message"].startswith(f"{key} must be finite, got inf")


@pytest.mark.parametrize(
    "argv, keys, named",
    [
        (("check", "--dim", "30000", "--theta-points", "1"), {"error", "message"}, "d=30000 "),
        (("run", "--dim", "20000", "--overlap", "0.5", "--epsilon", "0.1",
          "--sigma-spiral", "9000"), {"error", "message", "dim", "theta_deg", "seed"}, "d=20000 "),
        (("build", "--dim", "30000", "--theta-deg", "10"), {"error", "message"}, "d=30000 "),
        (("theory", "--dims", "2:100000000000", "--theta-deg", "10"), {"error", "message"},
         "--dims 2:100000000000 "),
        (("theory", "--dim", "3", "--theta-grid", "1:2:100000000000"), {"error", "message"},
         "--theta-grid 1:2:100000000000 "),
    ],
    ids=["check", "run", "build", "dims-range", "theta-grid-range"],
)
def test_too_large_dimension_is_one_json_error(argv, keys, named):
    # a 2.5 GB address-space cap on the child alone makes its first large array fail to allocate:
    # the (d, d-1) simplex at these d, or the tuple or grid of a range of 10**11 values
    payload = one_error(run_child(*argv, capped=True))
    assert set(payload) == keys
    assert payload["error"] == "ConfigurationError"
    assert named in payload["message"]
    assert "dim" not in payload or f"d={payload['dim']} " == named


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--dims", "2:100000000000", "--theta-grid", "1:2:3"), "--dims 2:100000000000"),
        (("--dims", "2,3", "--theta-grid", "1:2:100000000000"), "--theta-grid 1:2:100000000000"),
    ],
    ids=["dims", "theta-grid"],
)
def test_too_large_range_names_only_its_own_flag(argv, flag):
    # under the same child-only cap the 10**11-long range fails to allocate while it is parsed,
    # so the other range flag, which sized nothing, is not named; never run these without the cap
    message = f"{flag} needs more memory than this process can allocate"
    payload = one_error(run_child("theory", *argv, capped=True))
    assert payload == {"error": "ConfigurationError", "message": message}


@pytest.mark.parametrize("reps", ["9223372036854775807", "1000000000"])
def test_too_many_repetitions_name_the_count_not_the_dimension(reps):
    # under the same child-only cap the seed list cannot be sized: sys.maxsize items are more
    # than any list holds, 10**9 need 8 GB; never run these without the cap.  No point sizes
    # the list, so it is made before the first point and the error names none
    argv = ("run", "--dim", "3", "--theta-deg", "30", "--reps", reps)
    payload = one_error(run_child(*argv, capped=True))
    message = f"repetitions={reps} needs more memory than this process can allocate"
    assert payload == {"error": "ConfigurationError", "message": message}
    assert "d=" not in payload["message"]


@pytest.mark.parametrize("verb", ["run", "theory"])
def test_overlap_sweep_names_its_failing_dimension(verb):
    # the angle of d = 1 is never resolved, so theta_deg is null; an explicit angle is named
    payloads = [one_error(run_child(verb, "--dims", "2,1", *angle))
                for angle in (("--overlap", "0.5"), ("--theta-deg", "30"))]
    message = "dimension must be an integer >= 2, got 1"
    assert payloads[0] == {"error": "InvalidDimensionError", "message": message,
                           "dim": 1, "theta_deg": None, "seed": None}
    assert payloads[1] == {**payloads[0], "theta_deg": pytest.approx(30.0, abs=1e-12)}


def test_env_var_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    code, _, _ = invoke(
        capsys, "theory", "--dim", "2", "--theta-grid", "10,20", "--out", "grid.csv"
    )
    assert code == 0
    assert (tmp_path / "grid.csv").exists()


def test_config_file_with_flag_override(tmp_path, capsys):
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps({"crosstalk_epsilon": 0.4, "seed": 77}))
    out_file = tmp_path / "o.csv"
    code, _, _ = invoke(
        capsys,
        "run", "--dim", "3", "--theta-deg", "30", "--config", str(config_path),
        "--epsilon", "0.0", "--out", str(out_file),
    )
    assert code == 0
    row = dict(zip(CSV_COLUMNS, out_file.read_text().splitlines()[1].split(",")))
    assert row["seed"] == "77"  # from the config file
    assert float(row["mean_total_error"]) < 0.01  # flag epsilon=0 beat the file's 0.4


def test_spec_validation(monkeypatch):
    with pytest.raises(UsdError):
        SweepSpec(dims=(3,), thetas=(0.5,), fixed_overlap=0.5)
    with pytest.raises(UsdError):
        SweepSpec(dims=())
    # a directly built spec meets the same epsilon / per-cell check as the flags
    with pytest.raises(UsdError, match="--epsilon .*--percell-error"):
        SweepSpec(dims=(3,), thetas=(0.5,), crosstalk_epsilon=0.3, percell_error=0.01)
    # and the same value check, when it is built: a fractional count or a bool seed never runs
    builds = []
    monkeypatch.setattr(states, "build_basis", lambda *args: builds.append(args))
    for key, value in (("repetitions", 2.5), ("seed", True), ("seed", 1.5)):
        with pytest.raises(UsdError, match=f"^sweep parameter {key!r} must be an integer"):
            run_sweep(SweepSpec(dims=(3,), thetas=(0.5,), **{key: value}))
    # and the containers: each bad one is a UsdError naming its field, through both sweeps
    containers = [
        ("dims", dict(dims=3, thetas=(0.5,))),
        ("dims", dict(dims="3", thetas=(0.5,))),
        ("thetas", dict(dims=(3,), thetas=0.5)),
        ("thetas", dict(dims=(3,), thetas=())),
    ]
    for name, given in containers:
        for sweep in (run_sweep, theory_rows):
            with pytest.raises(UsdError, match=f"^sweep parameter {name!r} must be"):
                sweep(SweepSpec(**given))
    # an angle that is no number meets the number rule once, a DomainError naming the value
    for value in ("0.5", True):
        message = f"theta must be a number, got {value!r}"
        for sweep in (run_sweep, theory_rows):
            with pytest.raises(errors.DomainError, match=f"^{re.escape(message)}$"):
                sweep(SweepSpec(dims=(3,), thetas=(value,)))
    # an overlap that is no finite number meets its owner's range check, which names the value
    for value in ("0.5", math.inf, True):
        message = f"overlap must lie in [0, 1], got {value!r}"
        for sweep in (run_sweep, theory_rows):
            with pytest.raises(errors.DomainError, match=f"^{re.escape(message)}$"):
                sweep(SweepSpec(dims=(3,), fixed_overlap=value))
    assert builds == []
    monkeypatch.undo()
    assert len(run_sweep(SweepSpec(dims=[3], thetas=[0.5]))) == 1  # lists stay valid


def test_spec_epsilon_reaches_config():
    def epsilon(**given):
        return cli._config_for(SweepSpec(dims=(3,), thetas=(0.5,), **given), 3).crosstalk_epsilon

    assert epsilon() == experiment.ExperimentConfig.crosstalk_epsilon
    assert epsilon(crosstalk_epsilon=0.3) == 0.3
    assert epsilon(percell_error=0.01) == experiment.epsilon_for_percell_error(3, 0.01)


@pytest.mark.parametrize(
    "key, value, error, named",
    [
        ("repetitions", "3", "UsdError", "'repetitions'"),
        ("repetitions", 2.0, "UsdError", "'repetitions'"),
        ("repetitions", True, "UsdError", "'repetitions'"),
        ("seed", None, "UsdError", "'seed'"),
        ("seed", False, "UsdError", "'seed'"),
        # the values that the config owns meet its number rule, which names the field
        ("integration_time", "30", "ConfigurationError", "integration_time must be a number"),
        ("integration_time", float("nan"), "ConfigurationError", "integration_time must be finite"),
        ("max_coincidence_rate", float("inf"), "ConfigurationError",
         "max_coincidence_rate must be finite"),
        ("crosstalk_epsilon", None, "UsdError", "'crosstalk_epsilon'"),
        ("percell_error", [0.01], "ConfigurationError", "must be a number, got [0.01]"),
        ("integration_time", 10**400, "ConfigurationError", "integration_time must be finite"),
    ],
    ids=["repetitions-3", "repetitions-2.0", "repetitions-True", "seed-None", "seed-False",
         "integration_time-30", "integration_time-nan", "max_coincidence_rate-inf",
         "crosstalk_epsilon-None", "percell_error-value9", "integration_time-10**400"],
)
def test_config_file_rejects_bad_values(tmp_path, capsys, key, value, error, named):
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps({key: value}))
    payload = one_error(
        invoke(capsys, "run", "--dim", "3", "--theta-deg", "30", "--config", str(config_path))
    )
    assert payload["error"] == error
    assert named in payload["message"]
    if (key, value) != ("crosstalk_epsilon", None):  # a file's null stands for percell_error only
        with pytest.raises(UsdError) as direct:
            SweepSpec(dims=(3,), thetas=(0.5,), **{key: value})
        assert str(direct.value) == payload["message"]


def test_config_file_rejects_an_unknown_key(tmp_path, capsys):
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps({"seed": 1, "bogus": 2}))
    payload = one_error(
        invoke(capsys, "run", "--dim", "3", "--theta-deg", "30", "--config", str(config_path))
    )
    assert payload["error"] == "UsdError"
    assert payload["message"].startswith("unknown config keys ['bogus']; accepted: ")


def test_config_file_accepts_null_percell_error_and_integer_floats(tmp_path, capsys):
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps({"percell_error": None, "integration_time": 30}))
    code, _, err = invoke(
        capsys, "run", "--dim", "3", "--theta-deg", "30", "--config", str(config_path)
    )
    assert code == 0, err


def test_config_file_nested_too_deeply_is_one_json_error(tmp_path, capsys):
    config_path = tmp_path / "sweep.json"
    config_path.write_text("[" * 100_000)
    payload = one_error(
        invoke(capsys, "run", "--dim", "3", "--theta-deg", "30", "--config", str(config_path))
    )
    assert payload == {
        "error": "UsdError", "message": f"--config {config_path} is nested too deeply to parse"
    }


def test_config_file_must_be_an_object(tmp_path, capsys):
    config_path = tmp_path / "sweep.json"
    config_path.write_text("3")
    payload = one_error(
        invoke(capsys, "run", "--dim", "3", "--theta-deg", "30", "--config", str(config_path))
    )
    assert payload["error"] == "UsdError"


@pytest.mark.parametrize("flag", ["--integration-time", "--sigma-spiral"])
def test_run_rejects_nan_config_as_json(capsys, flag):
    # flags meet the config's number rule, as --config keys do, before any basis is built
    payload = one_error(invoke(capsys, "run", "--dim", "3", "--theta-deg", "30", flag, "nan"))
    assert payload["error"] == "ConfigurationError"
    assert "must be finite, got nan" in payload["message"]


@pytest.mark.parametrize(
    "argv",
    [("run", "--dim", "nan", "--theta-deg", "30"), ("check", "--theta-points", "x")],
    ids=["--dim-nan", "--theta-points-x"],
)
def test_unconvertible_flag_value_is_one_json_error(capsys, argv):
    payload = one_error(invoke(capsys, *argv))
    assert payload["error"] == "UsdError"
    assert f"argument {argv[1]}: invalid int value" in payload["message"]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "--help"])
    assert exit_info.value.code == 0
    assert "--sigma-spiral" in capsys.readouterr().out


@pytest.mark.parametrize("count", ["0", "-2"])
def test_theory_rejects_empty_theta_grid(capsys, count):
    payload = one_error(invoke(capsys, "theory", "--dim", "3", "--theta-grid", f"5:45:{count}"))
    assert payload["error"] == "UsdError"
    assert "--theta-grid" in payload["message"]


@pytest.mark.parametrize(
    "argv, flags",
    [
        (("theory", "--dim", "3", "--theta-deg", "30", "--overlap", "0.5"),
         {"--theta-deg", "--overlap"}),
        (("theory", "--dim", "3", "--theta-deg", "30", "--theta-grid", "10,20"),
         {"--theta-deg", "--theta-grid"}),
        (("theory", "--dim", "4", "--dims", "3", "--theta-deg", "30"), {"--dim", "--dims"}),
        (("check", "--dim", "4", "--dims", "3"), {"--dim", "--dims"}),
        (("run", "--dim", "3", "--theta-deg", "30", "--epsilon", "0.3", "--percell-error", "0.01"),
         {"--epsilon", "--percell-error"}),
        (("run", "--dim", "3", "--theta-deg", "30", "--config", "{config}",
          "--percell-error", "0.01"), {"--epsilon", "--percell-error"}),
    ],
    ids=["theta-deg+overlap", "theta-deg+theta-grid", "dim+dims", "check-dim+dims",
         "epsilon+percell-error", "config-epsilon+percell-error"],
)
def test_conflicting_flags_are_one_json_error(tmp_path, capsys, argv, flags):
    # each pair sets one quantity twice; neither flag may silently win
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps({"crosstalk_epsilon": 0.3}))
    argv = [str(config_path) if arg == "{config}" else arg for arg in argv]
    payload = one_error(invoke(capsys, *argv))
    assert payload["error"] == "UsdError"
    assert flags <= set(re.findall(r"--[a-z-]+", payload["message"]))


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("theory", "--dim", "3", "--theta-grid", "5:45"), "--theta-grid"),
        (("theory", "--dim", "3", "--theta-grid", "5:45:x"), "--theta-grid"),
        (("theory", "--dim", "3", "--theta-grid", "5,,45"), "--theta-grid"),
        (("theory", "--dims", "2:x", "--theta-deg", "10"), "--dims"),
        (("theory", "--dims", "2:3:4", "--theta-deg", "10"), "--dims"),
        (("theory", "--dims", "2,,3", "--theta-deg", "10"), "--dims"),
        (("check", "--dims", "2:x"), "--dims"),
        (("check", "--dims", ""), "--dims"),
        (("theory", "--dims", "5:2", "--theta-deg", "10"), "--dims"),
        (("run", "--dims", "5:2", "--theta-deg", "10"), "--dims"),
        (("check", "--dims", "5:2"), "--dims"),
        (("theory", "--dim", "3", "--theta-grid", "inf:1:2"), "--theta-grid"),
        (("theory", "--dim", "3", "--theta-grid", "-1e308:1e308:3"), "--theta-grid"),
    ],
)
def test_malformed_or_empty_grid_names_its_flag(capsys, argv, flag):
    payload = one_error(invoke(capsys, *argv))
    assert payload["error"] == "UsdError"
    assert flag in payload["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("run", "--dim", "3", "--theta-deg", "30", "--reps", "0"), "repetitions must be >= 1"),
        (("run", "--theta-deg", "30"), "provide --dim or --dims"),
    ],
    ids=["reps-0", "no-dim"],
)
def test_missing_or_empty_request_is_one_json_error(capsys, argv, message):
    assert one_error(invoke(capsys, *argv)) == {"error": "UsdError", "message": message}


# every numeric flag meets its edge values
NUMBERS = ("nan", "inf", "-inf", "0", "-0.0", "-1", "-1e-3", "5e-324", "1e-320", "1e-300", "1e-9",
           "0.5", "1", "2.4", "45", "90", "1e300")
DIMS = [("--dim", v) for v in ("-1", "0", "1", "2", "3", "14", "30", "2.5", str(10**400),
                               "1000000000000000000000")]
DIM_LISTS = [("--dims", v) for v in ("2:4", "4:2", "2,30", "0:3", "1e3", "x")]
ANGLES = [("--theta-deg", v) for v in NUMBERS]
THETA_GRIDS = [("--theta-grid", v)
               for v in ("5:45:3", "0:90:2", "nan,10", "5:45:0", "10", "inf:1:2")]
OTHER_ANGLES = [("--overlap", v) for v in NUMBERS] + THETA_GRIDS
#: the other flag of each pair that gives one quantity
PARTNERS = {"--dim": DIM_LISTS, "--dims": DIMS, "--theta-deg": THETA_GRIDS, "--theta-grid": ANGLES}
THETA_POINTS = [("--theta-points", v) for v in ("-1", "0", "1", "12")]
RUN_FLAGS = {
    **dict.fromkeys(("--epsilon", "--percell-error", "--sigma-spiral", "--singles-rate",
                     "--max-rate", "--integration-time"), NUMBERS),
    "--seed": ("-1", "0", "1", str(2**40), str(2**64), str(2**70), str(10**400), "1.5"),
    "--reps": ("-1", "0", "1", "3", str(10**400), "x"),
}
#: the columns a row may leave empty: theory rows have no measurement, an aggregate no seed
EMPTY_CELLS = {"theory": {"mean_total_error", "mean_error_sigma", "verdict", "seed"},
               "run": {"seed"}}
ERROR_CLASSES = {name for name, cls in vars(errors).items()
                 if isinstance(cls, type) and issubclass(cls, UsdError)}


@st.composite
def cli_argv(draw, clash=None):
    """A valid spine for one verb (d <= 30), then edge values in its numeric flags.

    With ``clash`` (drawn, one time in four, when None) the argv also gives the partner of
    each flag of its spine that has one in ``PARTNERS``; ``build`` takes no partner, so
    there the partner is a stray flag, and ``clash=True`` draws no ``build``.
    Each flag and its value are drawn as ``--flag=value`` or as ``--flag value``.
    """

    def pick(pairs):
        return draw(st.sampled_from(pairs))

    verb = draw(st.sampled_from(([] if clash else ["build"]) + ["theory", "run", "check"]))
    if verb == "build":
        pairs = [pick(DIMS), pick(ANGLES)]
    elif verb == "check":
        pairs = [pick(DIMS + DIM_LISTS)] + ([pick(THETA_POINTS)] if draw(st.booleans()) else [])
    else:
        pairs = [pick(DIMS + DIM_LISTS), pick(ANGLES + OTHER_ANGLES),
                 pick([("--format", "csv"), ("--format", "json")])]
    if verb == "run":
        flags = draw(st.lists(st.sampled_from(sorted(RUN_FLAGS)), unique=True, max_size=4))
        pairs += [(flag, draw(st.sampled_from(RUN_FLAGS[flag]))) for flag in flags]
    if clash is None:
        clash = draw(st.integers(0, 3)) == 0
    if clash:
        pairs += [pick(PARTNERS[flag]) for flag, _ in pairs[:2] if flag in PARTNERS]
    spelled = ([f"{flag}={value}"] if draw(st.booleans()) else [flag, value] for flag, value in pairs)
    return [verb] + [arg for args in spelled for arg in args]


def _assert_finite_output(verb, out):
    """Every number is finite, and a sweep cell is empty only where the schema leaves it so."""
    if verb == "check":
        *lines, verdict = out.splitlines()
        assert verdict == "all invariants within tolerance"
        values = [cell.split()[1] for line in lines for cell in line.split("  ")[1:]]
    elif verb == "build":
        values = [line.rsplit(": ", 1)[1] for line in out.splitlines()[1:]]
    else:
        if out.startswith("["):
            rows = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in JSON output"))
        else:
            header, *lines = [line.split(",") for line in out.splitlines()]
            assert tuple(header) == CSV_COLUMNS
            rows = [dict(zip(header, line)) for line in lines]
        cells = [(key, value) for row in rows for key, value in row.items()]
        assert all(key in EMPTY_CELLS[verb] for key, value in cells if value in ("", None))
        seeds = [value for key, value in cells if key == "seed" and value not in ("", None)]
        assert all(int(seed) >= 0 for seed in seeds)  # any nonnegative integer, 10**400 too
        values = [value for key, value in cells
                  if value not in ("", None) and key not in ("verdict", "seed")]
    assert values and all(math.isfinite(float(v)) for v in values), out


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_any_argv_ends_in_finite_output_or_one_json_error(argv):
    with tempfile.TemporaryDirectory() as outdir:
        out, err = io.StringIO(), io.StringIO()
        argv = argv + ["--out", outdir] if argv[0] == "build" else argv
        # a fresh interpreter would print a warning on stderr beside the error object
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
    if code == 0:
        assert err.getvalue() == ""
        _assert_finite_output(argv[0], out.getvalue())
        return
    payload = one_error((code, out.getvalue(), err.getvalue()))
    assert payload["error"] in ERROR_CLASSES | {"OSError"}, (argv, payload)
    # a value after a space, a negative one too, is the flag's value and never read as a flag
    assert "expected one argument" not in payload["message"], (argv, payload)


@settings(max_examples=100, deadline=None)
@given(cli_argv(clash=True))
def test_argv_with_both_flags_of_a_pair_ends_in_one_parser_error(argv):
    # --dim/--dims and --theta-deg/--theta-grid each give one quantity: the parser takes one flag
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    payload = one_error((code, out.getvalue(), err.getvalue()))
    assert payload["error"] == "UsdError"
    assert payload["message"].startswith(f"usdkit {argv[0]}: "), payload


# ------------------------------------------------------------------ check


def test_check_default_grid_is_not_vacuous(capsys):
    code, out, _ = invoke(capsys, "check")
    assert code == 0
    *lines, verdict = out.splitlines()
    assert verdict == "all invariants within tolerance"
    assert [line[: line.index("  ")] for line in lines] == [f"d={d:2d}" for d in range(2, 15)]
    gates = {key.replace("_", "-"): gate for key, gate in states.GATES.items()}
    for line in lines:
        cells = dict(cell.split() for cell in line.split("  ")[1:])
        assert cells.keys() == gates.keys()
        assert all(float(cells[key]) < gate for key, gate in gates.items()), line
        assert any(float(value) > 0.0 for value in cells.values()), line


def test_check_passes_for_small_grid(capsys):
    code, out, _ = invoke(capsys, "check", "--dims", "2:5", "--theta-points", "4")
    assert code == 0
    assert "all invariants within tolerance" in out
    assert out.count("d=") == 4


@pytest.mark.parametrize("points", ["0", "-3"])
def test_check_rejects_empty_theta_grid(capsys, points):
    payload = one_error(invoke(capsys, "check", "--dims", "2:3", "--theta-points", points))
    assert payload["error"] == "UsdError"
    assert "--theta-points" in payload["message"]


def _check_line(d, residuals):
    cells = "  ".join(f"{key.replace('_', '-')} {residuals[key]:.2e}" for key in states.GATES)
    return f"d={d:2d}  {cells}"


def _record_builds(monkeypatch):
    """(d, angles) of each states.build_basis call that cmd_check makes."""
    builds, build = [], states.build_basis

    def recording(d, theta):
        builds.append((d, list(theta)))
        return build(d, theta)

    monkeypatch.setattr(cli.states, "build_basis", recording)
    return builds


def test_check_builds_each_dimension_once(capsys, monkeypatch):
    builds = _record_builds(monkeypatch)
    code, _, _ = invoke(capsys, "check", "--dims", "2:14")
    assert code == 0
    assert [(d, len(thetas)) for d, thetas in builds] == [(d, 12) for d in range(2, 15)]


def test_check_evaluates_the_closed_forms_once_per_stacked_build(capsys, monkeypatch):
    calls, closed_form = [], theory._usd_probabilities

    def counted(d, theta):
        calls.append((d, np.size(theta)))
        return closed_form(d, theta)

    monkeypatch.setattr(theory, "_usd_probabilities", counted)
    code, _, _ = invoke(capsys, "check", "--dims", "2:14")
    assert code == 0
    assert calls == [(d, 12) for d in range(2, 15)]  # 13 calls of 12 angles, not 156 of one


def test_check_reads_one_frame_per_dimension(capsys, monkeypatch):
    built, new_frame = [], states._new_frame
    monkeypatch.setattr(states, "_frames", {})  # a cold memo
    monkeypatch.setattr(states, "_new_frame", lambda d: built.append(d) or new_frame(d))
    code, _, _ = invoke(capsys, "check", "--dims", "2:14")
    assert code == 0
    assert built == list(range(2, 15))  # one build per d
    code, _, _ = invoke(capsys, "check", "--dims", "2:14")
    assert code == 0
    assert built == list(range(2, 15))  # the second call builds none


def test_check_splits_a_large_grid_into_bounded_blocks(capsys, monkeypatch):
    # 2**20 // 201**2 = 25 angles per build: 40 angles take a block of 25 and one of 15
    tmax = theory.theta_max(200)
    grid = [k * tmax / 40 for k in range(1, 41)]
    each = [states.residuals(states.build_basis(200, th)) for th in grid]
    worst = {key: max(r[key] for r in each) for key in states.GATES}
    builds = _record_builds(monkeypatch)
    code, out, _ = invoke(capsys, "check", "--dim", "200", "--theta-points", "40")
    assert code == 0
    assert builds == [(200, grid[:25]), (200, grid[25:])]  # the same floats, block by block
    assert out.splitlines() == [_check_line(200, worst), "all invariants within tolerance"]


def test_check_single_dim_is_not_replaced_by_default_grid(capsys):
    assert one_error(invoke(capsys, "check", "--dim", "0"))["error"] == "InvalidDimensionError"


@pytest.mark.parametrize(
    "dims, points",
    [(("--dim", "3"), "100000000000000000000000"), (("--dims", "5,3,40"), "100000000000000000000000"),
     (("--dim", "3"), str(10**400))],
    ids=["dim", "dims-list", "beyond-float"],
)
def test_check_rejects_a_count_whose_first_angle_is_below_min_theta(capsys, dims, points):
    # theta_max grows with d, so d=3 is the one named; nothing is printed before the error
    payload = one_error(invoke(capsys, "check", *dims, "--theta-points", points))
    assert payload["error"] == "UsdError"
    assert f"--theta-points {points} " in payload["message"] and "d=3 " in payload["message"]


def test_theta_points_rejection_fires_exactly_where_the_first_build_fails(capsys, monkeypatch):
    tmax = theory.theta_max(3)
    most = int(tmax / states.MIN_THETA) + 2  # then step down to the last count that builds
    while tmax / most < states.MIN_THETA:
        most -= 1
    states.build_basis(3, [1 * tmax / most])  # the first block's first angle still builds
    with pytest.raises(errors.DegenerateFamilyError):
        states.build_basis(3, [1 * tmax / (most + 1)])
    payload = one_error(invoke(capsys, "check", "--dim", "3", "--theta-points", str(most + 1)))
    assert payload["error"] == "UsdError"

    class Reached(Exception):
        pass

    def stop(d, theta):
        raise Reached(d, theta[0])

    monkeypatch.setattr(cli.states, "build_basis", stop)
    with pytest.raises(Reached) as reached:  # `most` passes the check and reaches the build
        cli.main(["check", "--dim", "3", "--theta-points", str(most)])
    assert reached.value.args == (3, tmax / most)


@pytest.mark.parametrize(
    "dims, error, named",
    [(("--dims", "5,1"), "InvalidDimensionError", "got 1"),
     (("--dim", "1000000000000000000000"), "ConfigurationError", "d=1000000000000000000000 ")],
    ids=["invalid", "too-large"],
)
def test_check_keeps_the_dimension_error_before_the_theta_points_one(capsys, dims, error, named):
    argv = ("check", *dims, "--theta-points", "100000000000000000000000")
    payload = one_error(invoke(capsys, *argv))
    assert payload["error"] == error and named in payload["message"]


def _patch_residuals(monkeypatch, corrupt):
    """Make states.residuals report corrupt(basis, residuals) to cmd_check."""
    real = states.residuals
    monkeypatch.setattr(cli.states, "residuals", lambda basis: corrupt(basis, real(basis)))


@pytest.mark.parametrize("value, shown", [(1e-9, "1.00e-09"), (math.nan, "nan")],
                         ids=["above-gate", "nan"])
def test_check_fails_when_one_dimension_breaks_a_gate(capsys, monkeypatch, value, shown):
    def corrupt(basis, r):
        return {**r, "completeness": value} if basis.family.dim == 3 else r

    _patch_residuals(monkeypatch, corrupt)
    code, out, _ = invoke(capsys, "check", "--dims", "2:4")
    *lines, verdict = out.splitlines()
    assert code == 1 and verdict == "INVARIANT VIOLATION"
    assert [line[:4] for line in lines] == ["d= 2", "d= 3", "d= 4"]
    assert f"  completeness {shown}  " in lines[1]


@pytest.mark.parametrize("block", [0, 1])
def test_check_fails_on_a_nan_in_either_block_of_a_split_grid(capsys, monkeypatch, block):
    # d = 200 at 40 angles builds a block of 25 and one of 15, as in the block-split test
    def corrupt(basis, r):
        return {**r, "closure": math.nan} if np.size(basis.family.theta) == (25, 15)[block] else r

    _patch_residuals(monkeypatch, corrupt)
    code, out, _ = invoke(capsys, "check", "--dim", "200", "--theta-points", "40")
    line, verdict = out.splitlines()
    assert code == 1 and verdict == "INVARIANT VIOLATION"
    assert "  closure nan  " in line


# ----------------------------------------------------------- error context


def test_run_error_names_failing_point(capsys):
    # at sigma = 2.4 most d = 40 states herald with weight ~exp(-30): no contrast
    overlap = 0.5
    payload = one_error(invoke(
        capsys,
        "run", "--dim", "40", "--overlap", str(overlap), "--percell-error", "0.01",
        "--seed", "115", "--reps", "1",
    ))
    assert payload["error"] == "DegenerateRowError"
    assert payload["dim"] == 40
    assert payload["seed"] == 115
    assert payload["theta_deg"] == pytest.approx(
        math.degrees(theory.theta_for_overlap(40, overlap)), abs=1e-12
    )


@pytest.mark.parametrize(
    "argv, named",
    [
        (("--dim", "3", "--theta-deg", "30", "--sigma-spiral", "0.05"),
         ("2 of 3 states at d=3", "(l = -1, 1)", "spiral_bandwidth_sigma 0.05", "rate 350.0")),
        (("--dim", "3", "--theta-deg", "30", "--max-rate", "1e-320"),
         ("3 of 3 states at d=3", "(l = 0, -1, 1)", "spiral_bandwidth_sigma 2.4", "rate 1e-320")),
        (("--dim", "200", "--overlap", "0.5", "--epsilon", "0.1", "--sigma-spiral", "1e-3"),
         ("199 of 200 states at d=200", "(l = -1, 1, -2, 2, ...)", "spiral_bandwidth_sigma 0.001",
          "rate 350.0")),
    ],
    ids=["narrow-envelope", "vanishing-rate", "d200-narrow-envelope"],
)
def test_signal_free_configuration_is_rejected_before_any_draw(capsys, monkeypatch, argv, named):
    # every cell of the named rows expects exactly the accidental floor: their signal underflowed
    def no_draw(*args):
        raise AssertionError("a signal-free configuration reached the draw")

    monkeypatch.setattr(np.random, "SeedSequence", no_draw)
    payload = one_error(invoke(capsys, "run", *argv))
    assert payload["error"] == "ConfigurationError"
    for part in named:
        assert part in payload["message"]


def test_theory_error_names_failing_point(capsys):
    # theta_max(2) is 45 deg, so the grid's third angle fails at the first dimension
    payload = one_error(invoke(capsys, "theory", "--dims", "2:3", "--theta-grid", "5:80:3"))
    assert payload["error"] == "DomainError"
    assert payload["dim"] == 2 and payload["theta_deg"] == 80.0 and payload["seed"] is None


def test_failing_repetition_names_its_own_seed(capsys):
    # seeds 110..119 draw as one stack; only the sixth repetition, seed 115, has no signal
    payload = one_error(invoke(
        capsys,
        "run", "--dims", "14", "--overlap", "0.7071067811865476", "--percell-error", "0.01",
        "--max-rate", "22", "--sigma-spiral", "2.4", "--seed", "110", "--reps", "10",
    ))
    assert payload["error"] == "DegenerateRowError"
    assert payload["dim"] == 14 and payload["seed"] == 115
    # a plain float, not numpy's np.float64(...) repr
    assert "-4.260303108076334" in payload["message"]
    assert "np.float64" not in payload["message"]


def test_failing_point_is_drawn_once(capsys, monkeypatch):
    # the stack names its failing repetition, so no seed is redrawn to find it
    calls, original = [], experiment.run_repetitions

    def counted(basis, config, seeds):
        calls.append(list(seeds))
        return original(basis, config, seeds)

    monkeypatch.setattr(experiment, "run_repetitions", counted)
    payload = one_error(invoke(
        capsys,
        "run", "--dims", "14", "--overlap", "0.7071067811865476", "--percell-error", "0.01",
        "--max-rate", "22", "--sigma-spiral", "2.4", "--seed", "110", "--reps", "10",
    ))
    assert payload["seed"] == 115
    assert calls == [list(range(110, 120))]


def test_lowest_of_several_failing_seeds_is_named(capsys):
    # at d = 16 the l = 8 row often draws no signal; a one-seed run is the oracle
    spec = SweepSpec(dims=(16,), repetitions=10, seed=10, **ACCEPTANCE)
    th = theory.theta_for_overlap(16, spec.fixed_overlap)
    basis = states.build_basis(16, th)
    failures = {}
    config = cli._config_for(spec, 16)
    for seed in range(10, 20):
        record = experiment.run_experiment(basis, config, seed)
        try:
            analysis.normalize_probabilities(analysis.quantum_contrast(record))
        except UsdError as exc:
            failures[seed] = str(exc)
    assert len(failures) >= 2
    payload = one_error(invoke(
        capsys,
        "run", "--dims", "16", "--overlap", repr(spec.fixed_overlap), "--percell-error", "0.01",
        "--max-rate", "22", "--sigma-spiral", "2.4", "--seed", "10", "--reps", "10",
    ))
    assert payload["seed"] == min(failures)
    assert payload["message"] == failures[min(failures)]


def test_run_takes_a_seed_that_no_float_holds(capsys):
    seed = 10**400
    code, out, err = invoke(
        capsys, "run", "--dim", "3", "--theta-deg", "30", "--seed", str(seed), "--reps", "2"
    )
    assert code == 0 and err == ""
    _, *rows = [line.split(",") for line in out.splitlines()]
    assert [row[-1] for row in rows] == [str(seed), str(seed + 1), ""]


@pytest.mark.parametrize(
    "argv, error, message",
    [
        (("theory", "--dim", str(10**400), "--theta-deg", "10"), "InvalidDimensionError",
         f"dimension must fit in a float, got {10**400}"),
        (("run", "--dim", "3", "--theta-deg", "30", "--reps", str(10**400)), "ConfigurationError",
         f"repetitions={10**400} needs more memory than this process can allocate"),
        *[((verb, "--dim", "1000000000000000000000", "--theta-deg", "10"), "ConfigurationError",
           "d=1000000000000000000000 needs more memory than this process can allocate")
          for verb in ("build", "run")],
        (("check", "--dim", "1000000000000000000000"), "ConfigurationError",
         "d=1000000000000000000000 needs more memory than this process can allocate"),
        (("theory", "--dims", f"2:{10**23}", "--theta-deg", "10"), "ConfigurationError",
         f"--dims 2:{10**23} needs more memory than this process can allocate"),
        (("theory", "--dim", "3", "--theta-grid", f"1:2:{10**23}"), "ConfigurationError",
         f"--theta-grid 1:2:{10**23} needs more memory than this process can allocate"),
        (("theory", "--dims", f"2:{10**23}", "--theta-grid", "1:2:3"), "ConfigurationError",
         f"--dims 2:{10**23} needs more memory than this process can allocate"),
        (("theory", "--dims", "2,3", "--theta-grid", f"1:2:{10**23}"), "ConfigurationError",
         f"--theta-grid 1:2:{10**23} needs more memory than this process can allocate"),
    ],
    ids=["theory-dim", "run-reps", "build-dim", "run-dim", "check-dim", "dims", "theta-grid",
         "dims-with-theta-grid", "theta-grid-with-dims"],
)
def test_integer_beyond_every_array_is_one_json_error(tmp_path, capsys, argv, error, message):
    # nothing is allocated for these: the check comes before any array of that size
    argv = argv + ("--out", str(tmp_path)) if argv[0] == "build" else argv
    payload = one_error(invoke(capsys, *argv))
    assert (payload["error"], payload["message"]) == (error, message)


def test_run_negative_seed_is_a_config_error(capsys):
    payload = one_error(invoke(capsys, "run", "--dim", "3", "--theta-deg", "30", "--seed", "-1"))
    assert payload["error"] == "ConfigurationError"
    assert payload["message"] == "seed must be nonnegative, got -1"
    assert payload["dim"] == 3 and payload["seed"] == -1
    assert payload["theta_deg"] == pytest.approx(30.0, abs=1e-12)


# ----------------------------------------------------------------- docs


def test_docstring_theory_example_runs(tmp_path, capsys):
    line = next(
        line.split() for line in cli.__doc__.splitlines() if line.strip().startswith("usdkit theory")
    )
    argv = line[1:]
    argv[argv.index("--out") + 1] = str(tmp_path / "theory.csv")
    code, _, err = invoke(capsys, *argv)
    assert code == 0, err
    lines = (tmp_path / "theory.csv").read_text().splitlines()
    assert len(lines) == 1 + 13 * 9


# ------------------------------------------------------------- golden bytes

#: SHA-256 of the stdout of small runs of each verb, pinned under numpy 2.4.6; the
#: second sweep crosses seed 2**32, where the keys grow from one 32-bit seed word to two,
#: and the last two are the benchmark's sweep-accept and check-grid passes at seed 1
GOLDEN_OUTPUTS = {
    "534a6a81884e2c6bda1e756e7df694fc6f40aaf0ab6b346d39466a12258af7ce": (
        "run", "--dims", "2:6", "--overlap", "0.7071067811865476", "--percell-error", "0.01",
        "--max-rate", "22", "--sigma-spiral", "2.4", "--reps", "3", "--seed", "7",
    ),
    "cd6ca6d0848945898f285b1a6769f443accbb182ebc7434c27e9e5f2a96a2f16": (
        "run", "--dims", "2:4", "--overlap", "0.7071067811865476", "--percell-error", "0.01",
        "--reps", "4", "--seed", "4294967294",
    ),
    "14b498bd0691810c128b42287f394259d9aca704b4c8503046ee0e3a5e1dcd1e": (
        "theory", "--dims", "2:14", "--theta-grid", "5:45:9",
    ),
    "faebe78d4e0e1e5838ad26462e4afe1fa9b7a0ae5bc77e191f64c0f835c7baaa": (
        "check", "--dims", "2:14",
    ),
    "ce206410855464749379304a2467b52d8c5ab8ba0a9f2358f804edb2444afbcb": (
        "check", "--dims", "15:40", "--theta-points", "5",
    ),
    "1acfc4b80dd6befa9fc4132a2e293366cfc8c61a12dfcacc1f933324ec2fe716": (
        "run", "--dim", "6", "--theta-deg", "40", "--reps", "3", "--seed", "11",
        "--epsilon", "0.07", "--format", "json",
    ),
    "50d9a501b9a2e9ae523240ee777e71dff6e5c52e456c1dd1a103523b0d3f294f": (
        "run", "--overlap", "0.7071067811865476", "--percell-error", "0.01", "--max-rate", "22",
        "--sigma-spiral", "2.4", "--singles-rate", "500.0", "--integration-time", "30.0",
        "--dims", "3,13,6,8,5,4,2,12,10,11,7,9", "--reps", "25", "--seed", "1241356630",
    ),
    "be677b44c1072d847fa625272d0004a41e45766288249d64171344fd83b38ace": (
        "check", "--dims", "4,10,8,2,9,6,11,3,14,5,7,12,13", "--theta-points", "12",
    ),
}


@pytest.mark.skipif(
    np.__version__ != "2.4.6", reason=f"hashes pinned under numpy 2.4.6, found {np.__version__}"
)
@pytest.mark.parametrize("digest", GOLDEN_OUTPUTS)
def test_sweep_bytes_match_pinned_hash(capsys, digest):
    code, out, err = invoke(capsys, *GOLDEN_OUTPUTS[digest])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.skipif(
    np.__version__ != "2.4.6", reason=f"hashes pinned under numpy 2.4.6, found {np.__version__}"
)
def test_shared_parser_gives_pinned_bytes_after_a_usage_error(capsys):
    assert cli._parser() is cli._parser()
    assert one_error(invoke(capsys, "check", "--theta-points", "x"))["error"] == "UsdError"
    digest = "ce206410855464749379304a2467b52d8c5ab8ba0a9f2358f804edb2444afbcb"
    code, out, err = invoke(capsys, *GOLDEN_OUTPUTS[digest])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_main_runs_the_cmd_function_the_module_holds_at_call_time(monkeypatch):
    assert cli.main(["check", "--dims", "2", "--theta-points", "1"]) == 0  # parser already built
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.dims) or 7)
    assert cli.main(["check", "--dims", "2:3"]) == 7
    assert seen == ["2:3"]


@pytest.mark.skipif(
    np.__version__ != "2.4.6", reason=f"hash pinned under numpy 2.4.6, found {np.__version__}"
)
def test_build_basis_bytes_match_pinned_hash(tmp_path, capsys):
    # any change to the basis construction shows here, down to the last printed digit
    code, _, err = invoke(capsys, "build", "--dim", "14", "--theta-deg", "20", "--out", str(tmp_path))
    assert code == 0, err
    digest = hashlib.sha256((tmp_path / "basis.json").read_bytes()).hexdigest()
    assert digest == "5a713c2faa7fb2876c2220984e282104c15cbd2aa9e2178502defd928c3fc00c"
