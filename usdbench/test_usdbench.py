"""Tests of the benchmark itself: each output check must reject a corrupted
output, and the tracer's self-time arithmetic must hold.

    python3 -m pytest usdbench -q
"""

import contextlib
import io
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import Workload  # noqa: E402

from usdkit import cli, theory  # noqa: E402

SMALL_SWEEP = Workload(
    "small-sweep",
    "run",
    dims=(3, 2, 5),
    reps=4,
    flags=("--percell-error", "0.01", "--max-rate", "22", "--sigma-spiral", "2.4"),
)
SMALL_CHECK = Workload("small-check", "check", dims=(4, 2, 3))


def _main(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def sweep():
    inputs = SMALL_SWEEP.inputs(7)
    argv = [a for a in inputs.argv if a != "{out}"]
    argv.remove("--out")
    return _main(argv), inputs


@pytest.fixture(scope="module")
def check_text():
    inputs = SMALL_CHECK.inputs(7)
    return _main(inputs.argv), inputs


def _replace_cell(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[checks.CSV_COLUMNS.index(column)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_sweep_output_passes(sweep):
    text, inputs = sweep
    SMALL_SWEEP.check(text, inputs)


def test_wrong_mesd_bound_fails(sweep):
    text, inputs = sweep
    bound = float(text.splitlines()[1].split(",")[5])
    bad = _replace_cell(text, 0, "mesd_bound", repr(bound * (1 + 1e-9)))
    with pytest.raises(checks.CheckError, match="mesd_bound"):
        SMALL_SWEEP.check(bad, inputs)


def test_flipped_verdict_fails(sweep):
    text, inputs = sweep
    rows = checks.parse_csv(text)
    other = "above" if rows[2]["verdict"] != "above" else "below_by_one_sigma"
    with pytest.raises(checks.CheckError, match="verdict"):
        SMALL_SWEEP.check(_replace_cell(text, 2, "verdict", other), inputs)


def test_missing_row_fails(sweep):
    text, inputs = sweep
    lines = text.splitlines()
    with pytest.raises(checks.CheckError, match="rows"):
        SMALL_SWEEP.check("\n".join(lines[:-1]) + "\n", inputs)


def test_wrong_noise_level_fails(sweep):
    text, inputs = sweep
    doubled = Workload(
        "small-sweep", "run", dims=SMALL_SWEEP.dims, reps=SMALL_SWEEP.reps,
        flags=("--percell-error", "0.02", "--max-rate", "22", "--sigma-spiral", "2.4"),
    )
    with pytest.raises(checks.CheckError, match="standard errors"):
        doubled.check(text, inputs)


def test_aggregate_recomputed(sweep):
    text, inputs = sweep
    agg = SMALL_SWEEP.reps  # first aggregate row
    value = float(checks.parse_csv(text)[agg]["mean_error_sigma"])
    with pytest.raises(checks.CheckError, match="aggregate sigma"):
        SMALL_SWEEP.check(_replace_cell(text, agg, "mean_error_sigma", repr(value * 1.01)), inputs)


def test_theta_closed_form_matches_program():
    for d in (2, 7, 100):
        s = 0.3
        forms = checks.closed_forms(d, s)
        point = theory.theory_point(d, theory.theta_for_overlap(d, s))
        assert forms["theta_deg"] == pytest.approx(point.theta * 180 / 3.141592653589793, abs=1e-12)
        assert forms["mesd_bound"] == pytest.approx(point.mesd_bound, abs=1e-15)


def test_check_output_passes(check_text):
    text, inputs = check_text
    SMALL_CHECK.check(text, inputs)


def test_missing_d_line_fails(check_text):
    text, inputs = check_text
    lines = text.splitlines()
    with pytest.raises(checks.CheckError, match="d= lines"):
        SMALL_CHECK.check("\n".join(lines[1:]) + "\n", inputs)


def test_reordered_d_lines_fail(check_text):
    text, inputs = check_text
    lines = text.splitlines()
    swapped = [lines[1], lines[0], *lines[2:]]
    with pytest.raises(checks.CheckError, match="residual line"):
        SMALL_CHECK.check("\n".join(swapped) + "\n", inputs)


def test_vacuous_check_fails():
    dims = [4, 2, 3]
    text = _main(["check", "--dims", "4,2,3", "--theta-points", "0"])
    with pytest.raises(checks.CheckError, match="nothing was checked"):
        checks.check_invariants(text, dims)


def test_residual_over_tolerance_fails(check_text):
    text, inputs = check_text
    first, rest = text.split("\n", 1)
    bad = re.sub(r"zero-error \S+", "zero-error 1.00e-19", first) + "\n" + rest
    with pytest.raises(checks.CheckError, match="zero-error residual"):
        SMALL_CHECK.check(bad, inputs)


def test_violation_verdict_fails(check_text):
    text, inputs = check_text
    with pytest.raises(checks.CheckError, match="last line"):
        SMALL_CHECK.check(text.replace(checks.CHECK_OK_LINE, "INVARIANT VIOLATION"), inputs)


def test_differing_passes_fail():
    checks.check_identical(["a\n", "a\n"])
    with pytest.raises(checks.CheckError, match="different bytes"):
        checks.check_identical(["a\n", "a\n", "b\n"])


def _span(name, parent, start, end):
    return [name, parent, 1, start, end]


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("root", -1, 0.0, 10.0),
        _span("child", 0, 1.0, 3.0),
        _span("child", 0, 2.0, 5.0),  # overlaps the first child
        _span("late", 0, 8.0, 12.0),  # runs past its parent's end
        _span("leaf", 1, 1.5, 2.5),
    ]
    selfs = tracer.self_times(spans)
    assert selfs["root"] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs["child"] == pytest.approx((2.0 - 1.0) + 3.0)
    assert selfs["late"] == pytest.approx(4.0)
    assert selfs["leaf"] == pytest.approx(1.0)


def test_instrument_records_nested_spans_and_restores():
    from usdkit import theory as theory_module

    original = cli.theory_rows
    tr = tracer.Tracer()
    layers = {"cli": cli, "theory": theory_module}
    with tracer.instrument(tr, layers, [cli, theory_module]):
        assert cli.theory_rows is not original
        _main(["theory", "--dims", "2:4", "--overlap", "0.5"])
    assert cli.theory_rows is original
    names = tracer.call_counts(tr.spans)
    assert names["cli.main"] == 1
    assert names["theory.theory_point"] == 3
    by_index = {i: s for i, s in enumerate(tr.spans)}
    for span in tr.spans:
        if span[tracer.NAME] == "theory.theory_point":
            assert by_index[span[tracer.PARENT]][tracer.NAME] == "cli.theory_rows"
    selfs = tracer.self_times(tr.spans)
    root = next(s for s in tr.spans if s[tracer.NAME] == "cli.main")
    assert sum(selfs.values()) == pytest.approx(root[tracer.END] - root[tracer.START])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "check-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_per_layer_metrics_match_the_manifest():
    import json

    import run

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER


def test_speed_factors_use_the_median_kernel_time():
    import speed

    ref = speed.REFERENCE_S
    samples = [(2 * ref, 4 * ref), (2 * ref, 4 * ref), (9 * ref, 1 * ref)]
    assert speed.factors(samples) == pytest.approx((0.5, 0.25))
