"""Correctness checks on usdkit output, computed apart from the program.

Nothing here imports usdkit: the theory columns are compared with the closed
forms written out below, the verdicts with the classification rule recomputed
here, and the simulated errors with the noise model's expectation.  Every
check raises ``CheckError`` with a message that names the offending row or
line.
"""

from __future__ import annotations

import csv
import io
import math
import re
import statistics

CSV_COLUMNS = [
    "dim",
    "theta_deg",
    "overlap",
    "p_suc_theory",
    "p_inc_theory",
    "mesd_bound",
    "mean_total_error",
    "mean_error_sigma",
    "verdict",
    "seed",
]

#: Absolute tolerance for closed-form columns (all are O(1) numbers).
CLOSED_FORM_TOL = 1e-12
#: Relative tolerance for aggregate rows recomputed from the repetition rows.
AGGREGATE_RTOL = 1e-12
#: Standard errors an aggregate error may lie from the noise model's mean.
#: The z-scores of the aggregate rows are close to unit normal (see README),
#: so a false alarm at 6 standard errors is below 1e-8 per row.
EXPECTATION_K = 6.0

#: Tolerances of ``usdkit check``, as the acceptance suite states them.
INVARIANT_TOLS = {
    "completeness": 1e-10,
    "zero-error": 1e-20,
    "closure": 1e-12,
    "theory-match": 1e-12,
}
CHECK_OK_LINE = "all invariants within tolerance"
_CHECK_LINE = re.compile(
    r"^d=\s*(\d+)\s+completeness (\S+)\s+zero-error (\S+)\s+closure (\S+)\s+theory-match (\S+)$"
)


class CheckError(AssertionError):
    """The program's output disagrees with an independent computation."""


def parse_csv(text: str) -> list[dict]:
    """Rows of a sweep CSV; the header must be the fixed schema."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_COLUMNS:
        raise CheckError(f"CSV header {header!r} is not the fixed schema")
    rows = []
    for n, cells in enumerate(reader, start=2):
        if len(cells) != len(CSV_COLUMNS):
            raise CheckError(f"CSV line {n} has {len(cells)} cells")
        rows.append(dict(zip(CSV_COLUMNS, cells)))
    return rows


def closed_forms(d: int, s: float) -> dict:
    """Theory columns at dimension d and pairwise overlap s."""
    return {
        "theta_deg": math.degrees(math.acos(math.sqrt((1.0 + (d - 1.0) * s) / d))),
        "overlap": s,
        "p_suc_theory": 1.0 - s,
        "p_inc_theory": s,
        "mesd_bound": (1.0 - math.sqrt(1.0 - s * s)) / 2.0,
    }


def classify(mean: float, sigma: float, bound: float) -> str:
    """The three-way verdict rule of the mean error against the MESD bound."""
    if mean + sigma < bound:
        return "below_by_one_sigma"
    if mean > bound:
        return "above"
    return "overlapping"


def check_sweep(
    text: str,
    dims: list[int],
    reps: int,
    base_seed: int,
    overlap: float,
    epsilon,
    singles_counts: float,
) -> list[dict]:
    """Check a ``usdkit run --overlap`` sweep CSV; return its parsed rows.

    ``epsilon(d)`` is the depolarizing strength the run was asked for at d and
    ``singles_counts`` the expected singles per setting (rate times time).
    """
    rows = parse_csv(text)
    block = reps + 1 if reps > 1 else reps
    if len(rows) != len(dims) * block:
        raise CheckError(
            f"{len(rows)} rows for {len(dims)} points x {block} rows per point"
        )
    for n, d in enumerate(dims):
        point = rows[n * block : (n + 1) * block]
        for k, row in enumerate(point):
            where = f"d={d} row {k}"
            if int(row["dim"]) != d:
                raise CheckError(f"{where}: dim column reads {row['dim']}")
            _check_closed_forms(row, d, overlap, where)
            mean, sigma, bound = (
                float(row["mean_total_error"]),
                float(row["mean_error_sigma"]),
                float(row["mesd_bound"]),
            )
            if row["verdict"] != classify(mean, sigma, bound):
                raise CheckError(
                    f"{where}: verdict {row['verdict']} but the rule gives "
                    f"{classify(mean, sigma, bound)} for mean {mean!r}, sigma {sigma!r}"
                )
            expected_seed = str(base_seed + k) if k < reps else ""
            if row["seed"] != expected_seed:
                raise CheckError(f"{where}: seed {row['seed']!r}, expected {expected_seed!r}")
        if reps > 1:
            _check_aggregate(point, d, overlap, epsilon(d), singles_counts)
    return rows


def _check_closed_forms(row: dict, d: int, overlap: float, where: str) -> None:
    for column, value in closed_forms(d, overlap).items():
        got = float(row[column])
        scale = max(1.0, abs(value))
        if not abs(got - value) <= CLOSED_FORM_TOL * scale:
            raise CheckError(f"{where}: {column} = {got!r}, closed form gives {value!r}")


def _check_aggregate(point: list[dict], d: int, s: float, eps: float, singles: float) -> None:
    *reps, agg = point
    means = [float(r["mean_total_error"]) for r in reps]
    sigmas = [float(r["mean_error_sigma"]) for r in reps]
    mean = float(agg["mean_total_error"])
    for name, got, want in (
        ("mean", mean, statistics.fmean(means)),
        ("sigma", float(agg["mean_error_sigma"]), statistics.stdev(means)),
    ):
        if not abs(got - want) <= AGGREGATE_RTOL * abs(want):
            raise CheckError(f"d={d} aggregate {name} {got!r}, repetitions give {want!r}")
    expected, se = noise_expectation(d, s, eps, singles, sigmas)
    if not abs(mean - expected) <= EXPECTATION_K * se:
        raise CheckError(
            f"d={d} aggregate mean_total_error {mean!r} is {abs(mean - expected) / se:.1f} "
            f"standard errors from the noise model's {expected!r}"
        )


def noise_expectation(
    d: int, s: float, eps: float, singles: float, sigmas: list[float]
) -> tuple[float, float]:
    """Expected mean total error and the standard error of a repetition mean.

    Depolarization puts eps/(d+1) in each of the d-1 wrong conclusive cells,
    so the expected error per state is eps (d-1)/(d+1).  Each repetition's
    ``mean_error_sigma`` is the spread of its d per-state errors, which gives
    sigma^2/d for the variance of its mean.  All rows share the inconclusive
    column's singles count, which moves every per-state error together by
    the factor P_inc / sqrt(singles); that common term is added on top.
    """
    expected = eps * (d - 1.0) / (d + 1.0)
    p_inc = (1.0 - eps) * s + eps / (d + 1.0)
    common = expected * p_inc / math.sqrt(singles)
    n = len(sigmas)
    variance = sum(x * x for x in sigmas) / (d * n * n) + common * common / n
    return expected, math.sqrt(variance)


def check_invariants(text: str, dims: list[int]) -> None:
    """Check ``usdkit check`` output: one line per requested d, in order.

    Every residual must be below the suite's tolerance, and a line whose
    residuals are all exactly zero is rejected: a floating-point build always
    leaves some roundoff, so all zeros means nothing was built.
    """
    lines = text.splitlines()
    if not lines or lines[-1] != CHECK_OK_LINE:
        raise CheckError(f"last line is {lines[-1:]!r}, expected {CHECK_OK_LINE!r}")
    body = lines[:-1]
    if len(body) != len(dims):
        raise CheckError(f"{len(body)} d= lines for {len(dims)} requested dimensions")
    for line, d in zip(body, dims):
        match = _CHECK_LINE.match(line)
        if match is None or int(match.group(1)) != d:
            raise CheckError(f"line {line!r} is not the d={d} residual line")
        values = [float(v) for v in match.groups()[1:]]
        for (name, tol), value in zip(INVARIANT_TOLS.items(), values):
            if not value < tol:
                raise CheckError(f"d={d}: {name} residual {value!r} is not below {tol!r}")
        if not any(values):
            raise CheckError(f"d={d}: every residual is exactly zero; nothing was checked")


def check_identical(texts: list[str]) -> None:
    """Passes over the same inputs must emit the same bytes."""
    for n, text in enumerate(texts[1:], start=1):
        if text != texts[0]:
            raise CheckError(f"pass {n} and pass 0 of the same inputs gave different bytes")
