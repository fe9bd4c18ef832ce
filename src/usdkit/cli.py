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
seed give byte-identical output files.  A sweep resolves its points into
``_plan(spec)`` before any build.  Errors print one JSON object on stderr and
exit nonzero; when a sweep point fails, the object also names its dim,
theta_deg and seed.  The default output directory is $USDKIT_OUT_DIR.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from . import analysis, experiment, states, theory
from .errors import ConfigurationError, DegenerateFamilyError, DomainError, UsdError, instance, real

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
    """One reproducible sweep request; flags, ``--config`` and Python callers meet one check."""

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
        for name in ("repetitions", "seed"):  # range() needs integers; owners judge the rest below
            if isinstance(value := getattr(self, name), bool) or not isinstance(value, int):
                raise UsdError(f"sweep parameter {name!r} must be an integer, got {value!r}")
        if isinstance(self.dims, str) or not (isinstance(self.dims, Sequence) and self.dims):
            raise UsdError(f"sweep parameter 'dims' must be a non-empty sequence, got {self.dims!r}")
        if not (self.thetas is None or isinstance(self.thetas, Sequence) and self.thetas
                and not isinstance(self.thetas, str)):
            raise UsdError("sweep parameter 'thetas' must be None or a non-empty sequence of "
                           f"numbers, got {self.thetas!r}")
        for th in self.thetas or ():  # an angle's kind is the same at every d; its range is not
            real(th, DomainError, "theta")
        if (self.thetas is None) == (self.fixed_overlap is None):
            raise UsdError("give exactly one of --theta-deg, --theta-grid or --overlap")
        if self.repetitions < 1:
            raise UsdError("repetitions must be >= 1")
        if self.crosstalk_epsilon is not None and self.percell_error is not None:
            raise UsdError("give --epsilon (crosstalk_epsilon) or --percell-error, not both")
        _config_for(self, 2)  # epsilon = per_cell*(d+1) grows: what fails at d=2 fails at every d
        if self.fixed_overlap is not None:  # the range of an overlap is the same at every d
            theory.theta_for_overlap(2, self.fixed_overlap)


def _config_for(spec: SweepSpec, d: int) -> experiment.ExperimentConfig:
    """The config at d from the same-named spec fields, and --percell-error's epsilon at d."""
    settings = {f.name: getattr(spec, f.name) for f in fields(experiment.ExperimentConfig)
                if f.name != "crosstalk_epsilon" or spec.crosstalk_epsilon is not None}
    if spec.percell_error is not None:
        settings["crosstalk_epsilon"] = experiment.epsilon_for_percell_error(d, spec.percell_error)
    return experiment.ExperimentConfig(**settings)


def _row(point: theory.TheoryPoint, seed: int | None = None, mean: float | None = None,
         sigma: float | None = None) -> dict:
    """One output row; a measured ``mean`` and ``sigma`` get their verdict (only here)."""
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


def _too_large(what: str) -> ConfigurationError:
    return ConfigurationError(f"{what} needs more memory than this process can allocate")


def _at(exc: Exception, d, th: float | None, seeds=()) -> Exception:
    """``exc`` naming its sweep point: dim, theta_deg and seed (None while unresolved or undrawn)."""
    exc = _too_large(f"d={d}") if isinstance(exc, MemoryError) else exc
    exc.point = {"dim": d, "theta_deg": None if th is None else math.degrees(th),
                 "seed": seeds[getattr(exc, "repetition", 0)] if seeds else None}
    return exc


def _plan(spec: SweepSpec) -> list[theory.TheoryPoint]:
    """Each (d, theta) of the sweep in spec order, resolved before any build: the given
    angles, or ``theta_for_overlap(d, fixed_overlap)``; a point that fails names itself."""
    instance(spec, SweepSpec, UsdError, "spec")
    points = []
    for d in spec.dims:
        th = None  # SweepSpec keeps a given thetas non-empty, so `or` picks it
        try:
            for th in spec.thetas or (theory.theta_for_overlap(d, spec.fixed_overlap),):
                points.append(theory.theory_point(d, th))
        except (UsdError, ValueError, MemoryError) as exc:
            raise _at(exc, d, th)
    return points


def theory_rows(spec: SweepSpec) -> list[dict]:
    """Closed-form rows over the requested (d, theta) grid."""
    return [_row(point) for point in _plan(spec)]


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Build, draw and analyze each point of ``_plan(spec)``; one row per repetition.

    A point draws seeds seed, seed+1, ... as one stack; with more than one, an
    aggregate row follows: the mean of the repetition means, their sample standard
    deviation as its sigma, their verdict and an empty seed column.  The first check
    that fails on the stack names its lowest failing repetition, whose seed alone
    raises it.  A run whose every angle is below ``states.MIN_THETA`` fails first.
    """
    points = _plan(spec)
    if all(p.theta < states.MIN_THETA for p in points):
        raise DegenerateFamilyError(f"every angle of this run lies below {states.MIN_THETA!r} rad, "
                                    "where all its states coincide; no measurement basis exists")
    try:  # once, before any point, since no point sizes it
        all_seeds = [*range(spec.seed, spec.seed + spec.repetitions)]
    except (OverflowError, MemoryError):  # a count too large to hold: its error, with no point
        raise _too_large(f"repetitions={spec.repetitions}") from None
    rows = []
    for point in points:
        seeds = ()
        try:
            basis = states.build_basis(point.dim, point.theta)
            seeds = all_seeds  # from here on an error names the point's seeds
            record = experiment.run_repetitions(basis, _config_for(spec, point.dim), seeds)
            p = analysis.normalize_probabilities(analysis.quantum_contrast(record))
            summary = analysis.summarize_probabilities(p)
        except (UsdError, ValueError, MemoryError) as exc:
            raise _at(exc, point.dim, point.theta, seeds)
        means = summary.mean_total_error
        rows += [_row(point, *rep) for rep in zip(seeds, means, summary.mean_error_sigma)]
        if len(seeds) > 1:
            rows.append(_row(point, None, float(np.mean(means)), float(np.std(means, ddof=1))))
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    """The rows as CSV; None is an empty cell and a float prints as its shortest repr."""
    lines = [CSV_COLUMNS, *(["" if r[c] is None else str(r[c]) for c in CSV_COLUMNS] for r in rows)]
    return "".join(",".join(line) + "\n" for line in lines)


def write_rows(rows: list[dict], path: str | None, fmt: str) -> None:
    text = rows_to_csv(rows) if fmt == "csv" else json.dumps(rows, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _parse_dims(args) -> tuple[int, ...]:
    if args.dim is not None:  # first: check's exclusive group still fills the --dims default
        return (args.dim,)
    if args.dims is None:
        raise UsdError("provide --dim or --dims")
    lo, colon, hi = args.dims.partition(":")
    try:
        dims = tuple(range(int(lo), int(hi) + 1) if colon else map(int, args.dims.split(",")))
    except ValueError:
        raise UsdError(f"--dims needs 'lo:hi' or a comma list, got {args.dims!r}") from None
    except (OverflowError, MemoryError):  # more dimensions than a tuple can index or hold
        raise _too_large(f"--dims {args.dims}") from None
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
    if not (count >= 1 and math.isfinite(stop - start)):  # a non-finite step would warn in numpy
        raise UsdError(f"--theta-grid needs finite ends and a count >= 1, got {spec!r}")
    try:
        if count > sys.maxsize // 8:  # more angles than numpy can size
            raise MemoryError
        return tuple(math.radians(x) for x in np.linspace(start, stop, count))
    except MemoryError:
        raise _too_large(f"--theta-grid {spec}") from None


def _resolve_out(args) -> str | None:
    """--out under $USDKIT_OUT_DIR if set (an absolute one wins); None: stdout, "": the dir."""
    base = os.environ.get(OUT_DIR_ENV)
    return args.out if args.out is None or base is None else os.path.join(base, args.out)


def _spec_from_args(args) -> SweepSpec:
    """Resolve the sweep request; flags (dest = SweepSpec field) beat --config keys.

    The parser rejects --dim with --dims and --theta-deg with --theta-grid;
    SweepSpec rejects the angles with --overlap and epsilon with --percell-error.
    """
    dims = _parse_dims(args)
    thetas = None if args.theta_deg is None else (math.radians(args.theta_deg),)
    if args.theta_grid is not None:  # the parser takes at most one of the two
        thetas = _parse_theta_grid(args.theta_grid)
    known = [f.name for f in fields(SweepSpec)[3:]]  # after fixed_overlap: the --config keys
    merged = {}
    if getattr(args, "config", None):
        with open(args.config) as handle:
            try:
                merged = json.load(handle)
            except RecursionError:
                raise UsdError(f"--config {args.config} is nested too deeply to parse") from None
        if not isinstance(merged, dict):
            raise UsdError(f"--config must hold a JSON object, got {type(merged).__name__}")
        unknown = sorted(set(merged) - set(known))
        if unknown:
            raise UsdError(f"unknown config keys {unknown}; accepted: {sorted(known)}")
    for key in known:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if merged.get("crosstalk_epsilon", 0.0) is None:  # a file's null stands for percell_error only
        raise UsdError("sweep parameter 'crosstalk_epsilon' must be a number, got None")
    return SweepSpec(dims=dims, thetas=thetas, fixed_overlap=args.overlap, **merged)


def cmd_build(args) -> int:
    basis = states.build_basis(args.dim, math.radians(args.theta_deg))
    mapping = states.oam_map(args.dim)
    outdir = _resolve_out(args) or "."
    os.makedirs(outdir, exist_ok=True)
    artifacts = {
        "family.json": states.to_json(basis.family),
        "basis.json": states.to_json(basis),
        "oam_map.json": states.oam_map_to_json(mapping),
    }
    for name, text in artifacts.items():
        with open(os.path.join(outdir, name), "w") as handle:
            handle.write(text + "\n")
    print(f"wrote family.json basis.json oam_map.json to {outdir}")
    print(f"orthonormality residual: {basis.orthonormality_residual:.3e}")
    print(f"zero-error residual: {states.residuals(basis)['zero_error']:.3e}")
    return 0


def cmd_theory(args) -> int:
    write_rows(theory_rows(_spec_from_args(args)), _resolve_out(args), args.format)
    return 0


def cmd_run(args) -> int:
    write_rows(run_sweep(_spec_from_args(args)), _resolve_out(args), args.format)
    return 0


def cmd_check(args) -> int:
    dims = _parse_dims(args)
    if (points := args.theta_points) < 1:
        raise UsdError(f"--theta-points must be >= 1, got {points}")
    line = "d={:2d}  " + "  ".join(key.replace("_", "-") + " {:.2e}" for key in states.GATES)
    ok, d = True, min(dims)  # theta_max grows with d: the smallest d has the smallest first angle
    try:  # frame(d) checks d before the count is judged, so a bad d keeps its own error
        if states.frame(d).tmax / min(points, sys.maxsize) < states.MIN_THETA:  # as block 1 builds
            raise UsdError(f"--theta-points {points} puts the first angle of d={d} below "
                           f"{states.MIN_THETA!r} rad, where its states coincide")
        for d in dims:
            tmax, worst = states.frame(d).tmax, -math.inf  # points >= 1: a block makes it an array
            block = max(1, 2**20 // (d + 1) ** 2)  # angles per build: at most 8 MB per array
            for k in range(1, points + 1, block):
                grid = [j * tmax / points for j in range(k, min(k + block, points + 1))]
                part = states.residuals(states.build_basis(d, grid))
                worst = np.maximum(worst, [part[key] for key in states.GATES])  # NaN propagates
            worst = worst.tolist()  # floats format and compare faster than numpy scalars
            print(line.format(d, *worst))
            ok = ok and all(w < gate for w, gate in zip(worst, states.GATES.values()))
    except MemoryError:
        raise _too_large(f"d={d}") from None
    print("all invariants within tolerance" if ok else "INVARIANT VIOLATION")
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # a value such as -1e-3 or -inf is a number, not a flag
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # subparsers share this class, so every usage error is JSON
        raise UsdError(f"{self.prog}: {message}")


@functools.cache  # one parser per process; parsing leaves it unchanged
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="usdkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):  # each exclusive pair gives one quantity, so the parser takes one flag of it
        dims, angles = p.add_mutually_exclusive_group(), p.add_mutually_exclusive_group()
        dims.add_argument("--dim", type=int, help="single dimension d")
        dims.add_argument("--dims", help="comma list '2,3,5' or inclusive range '2:14'")
        angles.add_argument("--theta-deg", type=float, dest="theta_deg", help="angle in degrees")
        angles.add_argument("--theta-grid", dest="theta_grid",
                            help="'start:stop:count' in degrees or comma list")
        p.add_argument("--overlap", type=float, help="fixed pairwise overlap; theta chosen per dimension")
        p.add_argument("--out", help="output path (files land under $USDKIT_OUT_DIR if relative)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_build = sub.add_parser("build", help="construct and serialize states, basis, OAM map")
    p_build.add_argument("--dim", type=int, required=True)
    p_build.add_argument("--theta-deg", type=float, dest="theta_deg", required=True)
    p_build.add_argument("--out", default="", help="output directory; default $USDKIT_OUT_DIR or .")

    common(sub.add_parser("theory", help="closed-form sweep to CSV/JSON"))

    p_run = sub.add_parser("run", help="simulate, analyze, and classify sweep points")
    common(p_run)
    p_run.add_argument("--config", help="JSON file of sweep parameters; flags win")
    p_run.add_argument("--epsilon", type=float, dest="crosstalk_epsilon",
                       metavar="EPSILON", help="depolarizing noise strength")
    p_run.add_argument("--percell-error", type=float, dest="percell_error",
                       help="calibrate epsilon to this error per wrong conclusive outcome")
    p_run.add_argument("--sigma-spiral", type=float, dest="spiral_bandwidth_sigma",
                       metavar="SIGMA_SPIRAL", help="spiral bandwidth envelope width")
    p_run.add_argument("--singles-rate", type=float, dest="singles_rate_scale",
                       metavar="SINGLES_RATE", help="background singles rate per arm (Hz)")
    p_run.add_argument("--max-rate", type=float, dest="max_coincidence_rate",
                       metavar="MAX_RATE", help="maximal coincidence rate (Hz)")
    p_run.add_argument("--integration-time", type=float, dest="integration_time",
                       help="integration time per setting (s)")
    p_run.add_argument("--seed", type=int, help="base RNG seed")
    p_run.add_argument("--reps", type=int, dest="repetitions", metavar="REPS",
                       help="seeded repetitions per point")

    p_check = sub.add_parser("check", help="run the construction invariant suite")
    dims = p_check.add_mutually_exclusive_group()
    dims.add_argument("--dim", type=int)
    dims.add_argument("--dims", default="2:14", help="comma list or range; default 2:14")
    p_check.add_argument("--theta-points", type=int, default=12, dest="theta_points")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return globals()["cmd_" + args.command](args)  # looked up per call: patches apply
    except (UsdError, ValueError, OSError, MemoryError) as exc:
        if isinstance(exc, MemoryError):  # a sweep point, a checked d, a range name themselves;
            ranges = [f"--{k.replace('_', '-')} {getattr(args, k)}"  # after parsing: the inputs
                      for k in ("dims", "theta_grid") if getattr(args, k, None)]
            exc = _too_large(" ".join(ranges) or f"d={args.dim}")
        payload = {"error": type(exc).__name__, "message": str(exc)}
        payload.update(getattr(exc, "point", {}))
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
