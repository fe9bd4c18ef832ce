"""Benchmark of usdkit through its public entry point ``usdkit.cli.main``.

    python3 usdbench/run.py --workload sweep-accept --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the program is imported from ``src/`` of
that checkout and nowhere else.  One process, one thread, BLAS pinned to one
thread.  Each pass is one CLI invocation; a warm-up pass precedes the timed
passes, and every pass's output is checked.  With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics, rescaled to the
reference machine speed of ``speed.py``; with ``--trace 1`` one with the
per-layer metrics of a traced run (see README.md).
"""

import os

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_RUNS = 7
MIN_PASSES = 3
SETUP_TIMEOUT_S = 60
#: Share of each pass's time spent sampling the speed kernel after it.
KERNEL_SHARE = 0.05

# timed in a fresh interpreter: import of the package plus its first call
SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import contextlib, io, json
from usdkit import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(json.loads(sys.argv[2]))
print(json.dumps({"rc": rc, "seconds": time.perf_counter() - t0}))
"""

PER_LAYER = {
    "states.build_state_family.s": "s",
    "states.build_complements.s": "s",
    "states.lift_to_basis.s": "s",
    "states.builds": "count",
    "states.s": "s",
    "theory.theory_point.s": "s",
    "theory.s": "s",
    "experiment.run_experiment.s": "s",
    "experiment.ideal_detection_matrix.s": "s",
    "experiment.rng_generators": "count",
    "experiment.s": "s",
    "analysis.outcome_table.s": "s",
    "analysis.quantum_contrast.s": "s",
    "analysis.quantum_contrast.calls": "count",
    "analysis.normalize_probabilities.s": "s",
    "analysis.gaussian_propagation.s": "s",
    "analysis.error_summary.s": "s",
    "analysis.s": "s",
    "cli.run_sweep.s": "s",
    "cli.cmd_check.s": "s",
    "cli.rows_to_csv.s": "s",
    "cli.emit_bytes": "bytes",
    "cli.s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def import_program():
    init = SRC / "usdkit" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no usdkit package at {init.relative_to(ROOT)}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import usdkit
    from usdkit import analysis, cli, experiment, states, theory

    if Path(usdkit.__file__).resolve() != init.resolve():
        raise BenchError(f"usdkit imported from {usdkit.__file__}, not from the checkout")
    return usdkit, {"states": states, "theory": theory, "experiment": experiment,
                    "analysis": analysis, "cli": cli}


def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def blas_library(numpy) -> str:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def measure_setup(argv: list[str], numpy, marks: list) -> list[float]:
    """Import plus first call, each in a fresh interpreter; one speed
    sample follows each."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(SRC), json.dumps(argv)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, env=os.environ.copy(),
        )
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
        if result is None or result["rc"] != 0:
            raise checks.CheckError(f"set-up call {argv} failed: {proc.stderr.strip()[-500:]}")
        times.append(result["seconds"])
        speed.sample(numpy, marks, 0.0)
    return times


class Pass:
    """One CLI invocation: its timing, exit code and output text."""

    def __init__(self, cli, argv: list[str], out_path: Path | None):
        err = io.StringIO()
        stdout = io.StringIO()
        gc.collect()
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            self.rc = cli.main(argv)
        self.wall = time.perf_counter() - t0
        self.cpu = cpu_seconds() - cpu0
        self.stderr = err.getvalue()
        self.text = out_path.read_text() if out_path is not None else stdout.getvalue()
        self.emitted = len(stdout.getvalue().encode()) + (
            out_path.stat().st_size if out_path is not None else 0
        )


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    inputs = workload.inputs(seed)
    usdkit, layers = import_program()
    import numpy
    import numpy.random as numpy_random

    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{workload.name}-{seed}.csv" if "{out}" in inputs.argv else None
    argv = [str(out_path) if a == "{out}" else a for a in inputs.argv]

    marks: list[tuple[float, float]] = []
    setup = [] if trace else measure_setup(inputs.setup_argv, numpy, marks)
    cli = layers["cli"]
    passes: list[Pass] = []
    traced: list[Pass] = []
    tr = tracer.Tracer()
    rng_fn = numpy_random.default_rng
    namespaces = [usdkit, *layers.values(), numpy_random]

    def traced_pass() -> Pass:
        tr.pass_id += 1
        with tracer.instrument(tr, layers, namespaces), tracer.patched(
            {id(rng_fn): tr.count("experiment.rng_generators", rng_fn)}, [numpy_random]
        ):
            return Pass(cli, argv, out_path)

    warmup = Pass(cli, argv, out_path)
    start = time.perf_counter()
    while True:
        passes.append(Pass(cli, argv, out_path))
        speed.sample(numpy, marks, KERNEL_SHARE * passes[-1].wall)
        if trace:
            traced.append(traced_pass())
        done = len(passes)
        elapsed = time.perf_counter() - start
        per_round = elapsed / done
        if done >= MIN_PASSES and elapsed + per_round > seconds:
            break

    everything = [warmup, *passes, *traced]
    failed_passes = [p for p in everything if p.rc != 0]
    ok = [p for p in everything if p.rc == 0]
    if ok:
        workload.check(ok[0].text, inputs)
        checks.check_identical([p.text for p in ok])
        if out_path is None:
            (OUT / f"{workload.name}-{seed}.txt").write_text(ok[0].text)
    result = {
        "correct": True,
        "attempted": inputs.points * len(everything),
        "failed": inputs.points * len(failed_passes),
    }
    info = {
        "workload": workload.name, "seed": seed, "argv": argv, "passes": len(passes),
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas_library(numpy),
        "nproc": os.cpu_count(), "failures": sorted({p.stderr.strip() for p in failed_passes}),
    }
    if trace:
        result["metrics"] = layer_metrics(tr, passes, traced)
        info["pass_walls"] = [p.wall for p in passes]
        info["traced_pass_walls"] = [p.wall for p in traced]
        write_trace(tr, info, workload, seed)
    else:
        measured = {
            "wall_s": statistics.median(p.wall for p in passes),
            "cpu_s": statistics.median(p.cpu for p in passes),
            "setup_s": statistics.median(setup),
            "kernel_s": statistics.median(w for w, _ in marks),
        }
        to_wall, to_cpu = speed.factors(marks)
        wall = measured["wall_s"] * to_wall
        result["metrics"] = {
            "wall_s": {"value": wall, "unit": "s"},
            "points_per_s": {"value": inputs.points / wall, "unit": "1/s"},
            "cpu_s": {"value": measured["cpu_s"] * to_cpu, "unit": "s"},
            "setup_s": {"value": measured["setup_s"] * to_wall, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        info["measured"] = measured
        info["pass_walls"] = [p.wall for p in passes]
        info["kernel_walls"] = [w for w, _ in marks]
    print("# " + json.dumps(info))
    return result


def layer_metrics(tr: tracer.Tracer, plain: list, traced: list) -> dict:
    n = len(traced)
    selfs = tracer.self_times(tr.spans)
    calls = tracer.call_counts(tr.spans)
    values = {f"{name}.s": t / n for name, t in selfs.items()}
    for layer in ("states", "theory", "experiment", "analysis", "cli"):
        values[f"{layer}.s"] = sum(t for k, t in selfs.items() if k.startswith(layer + ".")) / n
    values["states.builds"] = calls.get("states.build_state_family", 0) / n
    values["analysis.quantum_contrast.calls"] = calls.get("analysis.quantum_contrast", 0) / n
    values["experiment.rng_generators"] = tr.counts["experiment.rng_generators"] / n
    values["cli.emit_bytes"] = statistics.median(p.emitted for p in traced)
    values["trace.overhead_s"] = (
        statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain)
    )
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER.items()}


def write_trace(tr: tracer.Tracer, info: dict, workload, seed: int) -> None:
    """Per-function totals of all traced passes plus the spans of the last one."""
    n = tr.pass_id
    selfs = tracer.self_times(tr.spans)
    calls = tracer.call_counts(tr.spans)
    last = [s for s in tr.spans if s[tracer.PASS] == n]
    first = tr.spans.index(last[0])
    t0 = last[0][tracer.START]
    doc = {
        **info,
        "traced_passes": n,
        "per_pass": {
            name: {"calls": calls[name] / n, "self_s": selfs[name] / n} for name in sorted(calls)
        },
        "last_pass_spans": [
            {"name": s[tracer.NAME], "parent": s[tracer.PARENT] - first if s[tracer.PARENT] >= 0 else None,
             "start_s": s[tracer.START] - t0, "end_s": s[tracer.END] - t0}
            for s in last
        ],
    }
    (OUT / f"trace-{workload.name}-{seed}.json").write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"usdbench: {exc}", file=sys.stderr)
        return 2
    except checks.CheckError as exc:
        print(f"usdbench: output check failed: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
        print(json.dumps(result))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
