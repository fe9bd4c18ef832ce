"""Command-line frontend: build bases, sweep theory and experiments, check invariants.

Verbs:

    usdkit build  --dim 3 --theta-deg 33 --out outdir
    usdkit theory --dims 2:14 --theta-grid 5:45:9 --out theory.csv
    usdkit run    --dim 6 --theta-deg 40 --reps 10 --seed 1 --out run.csv
    usdkit run    --dims 2:14 --overlap 0.7071067811865475 --percell-error 0.01 ...
    usdkit check  --dims 2:14

Angles are degrees at this boundary and radians inside.  Sweep output is CSV
(default) or JSON with the fixed column order

    dim, theta_deg, overlap, p_suc_theory, p_inc_theory, mesd_bound,
    mean_total_error, mean_error_sigma, verdict, seed

where theory-only rows leave the experiment columns empty and the aggregate
row of a repeated point leaves the seed column empty.  Identical spec and
seed give byte-identical output files.  Errors print one JSON object on
stderr and exit nonzero; when a sweep point fails, the object also names its
dim, theta_deg and seed.  The default output directory is $USDKIT_OUT_DIR.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import analysis, experiment, states, theory
from .errors import UsdError

CSV_COLUMNS = (
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
)

OUT_DIR_ENV = "USDKIT_OUT_DIR"


@dataclass(frozen=True)
class SweepSpec:
    """One reproducible sweep request (the serializable CLI contract)."""

    dims: tuple[int, ...]
    thetas: tuple[float, ...] | None = None
    fixed_overlap: float | None = None
    repetitions: int = 1
    seed: int = 0
    integration_time: float = experiment.ExperimentConfig.integration_time
    coincidence_window: float = experiment.ExperimentConfig.coincidence_window
    max_coincidence_rate: float = experiment.ExperimentConfig.max_coincidence_rate
    spiral_bandwidth_sigma: float = experiment.ExperimentConfig.spiral_bandwidth_sigma
    crosstalk_epsilon: float | None = None  # None: ExperimentConfig's default
    percell_error: float | None = None
    singles_rate_scale: float = experiment.ExperimentConfig.singles_rate_scale

    def __post_init__(self):
        if not self.dims:
            raise UsdError("sweep needs at least one dimension")
        if (self.thetas is None) == (self.fixed_overlap is None):
            raise UsdError("give exactly one of --theta-deg, --theta-grid or --overlap")
        if self.repetitions < 1:
            raise UsdError("repetitions must be >= 1")
        if self.crosstalk_epsilon is not None and self.percell_error is not None:
            raise UsdError("give --epsilon (crosstalk_epsilon) or --percell-error, not both")


def _point_thetas(spec: SweepSpec, d: int) -> tuple[float, ...]:
    if spec.thetas is not None:
        return spec.thetas
    return (theory.theta_for_overlap(d, spec.fixed_overlap),)


def _config_for(spec: SweepSpec, d: int) -> experiment.ExperimentConfig:
    """The experiment config at dimension d; every config field has a spec field of its name."""
    settings = {f.name: getattr(spec, f.name) for f in fields(experiment.ExperimentConfig)}
    if spec.percell_error is not None:
        settings["crosstalk_epsilon"] = experiment.epsilon_for_percell_error(d, spec.percell_error)
    elif spec.crosstalk_epsilon is None:
        del settings["crosstalk_epsilon"]  # ExperimentConfig's default applies
    return experiment.ExperimentConfig(**settings)


def _row(
    point: theory.TheoryPoint, seed: int | None = None, mean: float | None = None,
    sigma: float | None = None,
) -> dict:
    """One output row; a measured ``mean`` and ``sigma`` get their verdict."""
    return {
        "dim": point.dim,
        "theta_deg": math.degrees(point.theta),
        "overlap": point.overlap,
        "p_suc_theory": point.p_suc,
        "p_inc_theory": point.overlap,  # ideal USD's inconclusive rate is the overlap
        "mesd_bound": point.mesd_bound,
        "mean_total_error": mean,
        "mean_error_sigma": sigma,
        "verdict": None if mean is None else analysis.classify(mean, sigma, point.mesd_bound),
        "seed": seed,
    }


def theory_rows(spec: SweepSpec) -> list[dict]:
    """Closed-form rows over the requested (d, theta) grid."""
    return [_row(theory.theory_point(d, th)) for d in spec.dims for th in _point_thetas(spec, d)]


def _summarize(
    basis: states.DiscriminationBasis, config: experiment.ExperimentConfig, seeds,
    point: theory.TheoryPoint,
) -> analysis.ErrorSummary:
    record = experiment.run_repetitions(basis, config, seeds)
    p = analysis.normalize_probabilities(analysis.quantum_contrast(record))
    return analysis.summarize_probabilities(p, point.theta, point.mesd_bound)


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Simulate and analyze every sweep point; one row per repetition.

    Repetitions use seeds seed, seed+1, ...; a point draws and analyzes them
    as one stack.  When there is more than one, an aggregate row follows with
    the mean of the repetition means, the sample standard deviation across
    repetitions as its sigma, the verdict recomputed from those, and an empty
    seed column.  An error raised at a point carries that point's dim,
    theta_deg and seed (None before the first repetition starts) in its
    ``point`` attribute; the seed is the lowest one whose run fails alone.
    """
    rows = []
    for d in spec.dims:
        for th in _point_thetas(spec, d):
            seed = None
            try:
                basis = states.build_basis(d, th)
                point = theory.theory_point(d, th)
                seeds = range(spec.seed, spec.seed + spec.repetitions)
                seed = seeds[0]  # seed-independent failures name the first seed
                config = _config_for(spec, d)
                try:
                    summary = _summarize(basis, config, seeds, point)
                except (UsdError, ValueError):
                    for seed in seeds:  # rerun seed by seed to name the lowest failing one
                        _summarize(basis, config, (seed,), point)
                    raise
            except (UsdError, ValueError) as exc:
                exc.point = {"dim": d, "theta_deg": math.degrees(th), "seed": seed}
                raise
            means = summary.mean_total_error
            rows += [_row(point, *rep) for rep in zip(seeds, means, summary.mean_error_sigma)]
            if spec.repetitions > 1:
                rows.append(_row(point, None, float(np.mean(means)), float(np.std(means, ddof=1))))
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_cell(row[col]) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[dict]) -> str:
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def write_rows(rows: list[dict], path: str | None, fmt: str) -> None:
    text = rows_to_csv(rows) if fmt == "csv" else rows_to_json(rows)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _parse_dims(args) -> tuple[int, ...]:
    if args.dims is None:
        if args.dim is None:
            raise UsdError("provide --dim or --dims")
        return (int(args.dim),)
    if args.dim is not None:
        raise UsdError("give --dim or --dims, not both")
    lo, colon, hi = args.dims.partition(":")
    try:
        dims = tuple(range(int(lo), int(hi) + 1) if colon else map(int, args.dims.split(",")))
    except ValueError:
        raise UsdError(f"--dims needs 'lo:hi' or a comma list, got {args.dims!r}") from None
    if not dims:
        raise UsdError(f"--dims {args.dims!r} selects no dimension")
    return dims


def _parse_theta_grid(spec: str) -> tuple[float, ...]:
    try:
        if ":" not in spec:
            return tuple(math.radians(float(part)) for part in spec.split(","))
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise UsdError(f"--theta-grid needs 'start:stop:count' or a list, got {spec!r}") from None
    if count < 1:
        raise UsdError(f"--theta-grid needs a count >= 1, got {count}")
    return tuple(math.radians(x) for x in np.linspace(start, stop, count))


def _resolve_out(args, default_name: str | None = None) -> str | None:
    out = args.out
    base = os.environ.get(OUT_DIR_ENV)
    if out is None:
        if default_name is None or base is None:
            return None
        return os.path.join(base, default_name)
    if base is not None and not os.path.isabs(out):
        return os.path.join(base, out)
    return out


def _check_config_value(key: str, value) -> None:
    """Reject a config-file or flag value that the SweepSpec field cannot take."""
    if key == "percell_error" and value is None:
        return
    integer = key in ("seed", "repetitions")
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise UsdError(f"sweep parameter {key!r} must be {kind}, got {value!r}")
    if not math.isfinite(value):
        raise UsdError(f"sweep parameter {key!r} must be finite, got {value!r}")


def _spec_from_args(args) -> SweepSpec:
    """Resolve the sweep request; flags (dest = SweepSpec field) beat --config keys.

    Two ways of giving the same quantity (d, the angles, or epsilon) are an error.
    """
    dims = _parse_dims(args)
    if args.theta_deg is not None and args.theta_grid is not None:
        raise UsdError("give --theta-deg or --theta-grid, not both")
    thetas = None
    if args.theta_grid is not None:
        thetas = _parse_theta_grid(args.theta_grid)
    elif args.theta_deg is not None:
        thetas = (math.radians(args.theta_deg),)
    known = tuple(
        f.name for f in fields(SweepSpec) if f.name not in ("dims", "thetas", "fixed_overlap")
    )
    merged = {}
    if getattr(args, "config", None):
        with open(args.config) as handle:
            merged = json.load(handle)
        if not isinstance(merged, dict):
            raise UsdError(f"--config must hold a JSON object, got {type(merged).__name__}")
        unknown = sorted(set(merged) - set(known))
        if unknown:
            raise UsdError(f"unknown config keys {unknown}; accepted: {sorted(known)}")
    for key in known:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    for key, value in merged.items():
        _check_config_value(key, value)
    return SweepSpec(dims=dims, thetas=thetas, fixed_overlap=args.overlap, **merged)


#: Bounds of ``usdkit check``: every residual it reports must stay below its bound.
CHECK_GATES = {"completeness": 1e-10, "zero_error": 1e-20, "closure": 1e-12, "theory_match": 1e-12}


def _residuals(basis: states.DiscriminationBasis) -> dict[str, float]:
    """Construction invariants of one built point, each a max absolute deviation.

    orthonormality: basis Gram matrix from the identity, as measured when the
    basis was validated; completeness: sum of the basis projectors from the
    identity; zero_error: largest conclusive probability of a wrong outcome;
    closure: success plus inconclusive probability from one; theory_match:
    detection probabilities from the closed-form p_suc and p_inc.
    """
    d = basis.family.dim
    detection = experiment.ideal_detection_matrix(basis)
    success, inconclusive = np.diag(detection[:, :d]), detection[:, d]
    p_suc, p_inc = theory.usd_probabilities(d, basis.family.theta)
    return {
        "orthonormality": basis.orthonormality_residual,
        "completeness": basis.completeness_residual(),
        "zero_error": float(detection[:, :d][~np.eye(d, dtype=bool)].max()),
        "closure": float(np.abs(success + inconclusive - 1.0).max()),
        "theory_match": max(
            float(np.abs(success - p_suc).max()),
            float(np.abs(inconclusive - p_inc).max()),
        ),
    }


def cmd_build(args) -> int:
    d = int(args.dim)
    basis = states.build_basis(d, math.radians(args.theta_deg))
    mapping = states.oam_map(d)
    outdir = _resolve_out(args, default_name="") or "."
    os.makedirs(outdir, exist_ok=True)
    artifacts = {
        "family.json": states.to_json(basis.family),
        "basis.json": states.to_json(basis),
        "oam_map.json": states.oam_map_to_json(mapping),
    }
    for name, text in artifacts.items():
        with open(os.path.join(outdir, name), "w") as handle:
            handle.write(text + "\n")
    residuals = _residuals(basis)
    print(f"wrote family.json basis.json oam_map.json to {outdir}")
    print(f"orthonormality residual: {residuals['orthonormality']:.3e}")
    print(f"zero-error residual: {residuals['zero_error']:.3e}")
    return 0


def cmd_theory(args) -> int:
    write_rows(theory_rows(_spec_from_args(args)), _resolve_out(args), args.format)
    return 0


def cmd_run(args) -> int:
    write_rows(run_sweep(_spec_from_args(args)), _resolve_out(args), args.format)
    return 0


def cmd_check(args) -> int:
    given = args.dims is not None or args.dim is not None
    dims = _parse_dims(args) if given else tuple(range(2, 15))
    points = args.theta_points
    if points < 1:
        raise UsdError(f"--theta-points must be >= 1, got {points}")
    ok = True
    for d in dims:
        tmax = theory.theta_max(d)
        worst = dict.fromkeys(CHECK_GATES, 0.0)
        for k in range(1, points + 1):
            residuals = _residuals(states.build_basis(d, k * tmax / points))
            for key in CHECK_GATES:
                worst[key] = max(worst[key], residuals[key])
        cells = "  ".join(f"{key.replace('_', '-')} {worst[key]:.2e}" for key in CHECK_GATES)
        print(f"d={d:2d}  {cells}")
        ok = ok and all(worst[key] < gate for key, gate in CHECK_GATES.items())
    print("all invariants within tolerance" if ok else "INVARIANT VIOLATION")
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # subparsers share this class, so every usage error is JSON
        raise UsdError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="usdkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, experiment_flags=True):
        p.add_argument("--dim", type=int, help="single dimension d")
        p.add_argument("--dims", help="comma list '2,3,5' or inclusive range '2:14'")
        p.add_argument("--theta-deg", type=float, dest="theta_deg", help="angle in degrees")
        p.add_argument("--theta-grid", dest="theta_grid", help="'start:stop:count' in degrees or comma list")
        p.add_argument("--overlap", type=float, help="fixed pairwise overlap; theta chosen per dimension")
        p.add_argument("--out", help="output path (files land under $USDKIT_OUT_DIR if relative)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if experiment_flags:
            p.add_argument("--config", help="JSON file of sweep parameters; flags win")
            p.add_argument("--epsilon", type=float, dest="crosstalk_epsilon",
                           metavar="EPSILON", help="depolarizing noise strength")
            p.add_argument("--percell-error", type=float, dest="percell_error",
                           help="calibrate epsilon to this error per wrong conclusive outcome")
            p.add_argument("--sigma-spiral", type=float, dest="spiral_bandwidth_sigma",
                           metavar="SIGMA_SPIRAL", help="spiral bandwidth envelope width")
            p.add_argument("--singles-rate", type=float, dest="singles_rate_scale",
                           metavar="SINGLES_RATE", help="background singles rate per arm (Hz)")
            p.add_argument("--max-rate", type=float, dest="max_coincidence_rate",
                           metavar="MAX_RATE", help="maximal coincidence rate (Hz)")
            p.add_argument("--integration-time", type=float, dest="integration_time",
                           help="integration time per setting (s)")
            p.add_argument("--seed", type=int, help="base RNG seed")
            p.add_argument("--reps", type=int, dest="repetitions", metavar="REPS",
                           help="seeded repetitions per point")

    p_build = sub.add_parser("build", help="construct and serialize states, basis, OAM map")
    p_build.add_argument("--dim", type=int, required=True)
    p_build.add_argument("--theta-deg", type=float, dest="theta_deg", required=True)
    p_build.add_argument("--out", help="output directory")
    p_build.set_defaults(func=cmd_build)

    p_theory = sub.add_parser("theory", help="closed-form sweep to CSV/JSON")
    common(p_theory, experiment_flags=False)
    p_theory.set_defaults(func=cmd_theory)

    p_run = sub.add_parser("run", help="simulate, analyze, and classify sweep points")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run the construction invariant suite")
    p_check.add_argument("--dim", type=int)
    p_check.add_argument("--dims", help="comma list or range; default 2:14")
    p_check.add_argument("--theta-points", type=int, default=12, dest="theta_points")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsdError, ValueError, OSError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        payload.update(getattr(exc, "point", {}))
        # strict JSON has no NaN or Infinity: a non-finite number goes out as its repr
        for key, value in payload.items():
            if isinstance(value, float) and not math.isfinite(value):
                payload[key] = repr(value)
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
