"""The benchmark's workloads: usdkit argv built from a seed, and its checks.

Each workload is one ``usdkit.cli.main`` invocation per pass.  The seed picks
the RNG base seed of a sweep and the order of the dimensions; it never
changes how much work a pass does, so runs with different seeds time the
same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import checks

OVERLAP = 2.0**-0.5
SINGLES_RATE = 500.0
INTEGRATION_TIME = 30.0
THETA_POINTS = 12


@dataclass(frozen=True)
class Inputs:
    argv: list[str]  # one pass; "{out}" stands for the output path
    setup_argv: list[str]  # the small first call timed in a fresh process
    points: int  # points per pass
    dims: list[int]
    base_seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    dims: tuple[int, ...]
    reps: int = 0
    flags: tuple[str, ...] = ()

    def inputs(self, seed: int) -> Inputs:
        rng = random.Random(f"{self.name}:{seed}")
        dims = list(self.dims)
        rng.shuffle(dims)
        base_seed = rng.randrange(1, 2**31)
        dim_list = ",".join(map(str, dims))
        if self.verb == "check":
            return Inputs(
                argv=["check", "--dims", dim_list, "--theta-points", str(THETA_POINTS)],
                setup_argv=["check", "--dims", "2", "--theta-points", "1"],
                points=THETA_POINTS * len(dims),
                dims=dims,
                base_seed=base_seed,
            )
        sweep = ["run", "--overlap", repr(OVERLAP), *self.flags,
                 "--singles-rate", repr(SINGLES_RATE),
                 "--integration-time", repr(INTEGRATION_TIME)]
        return Inputs(
            argv=[*sweep, "--dims", dim_list, "--reps", str(self.reps),
                  "--seed", str(base_seed), "--out", "{out}"],
            setup_argv=[*sweep, "--dims", "2", "--reps", "2", "--seed", str(base_seed)],
            points=self.reps * len(dims),
            dims=dims,
            base_seed=base_seed,
        )

    def check(self, text: str, inputs: Inputs) -> None:
        """Raise ``checks.CheckError`` unless ``text`` is a correct pass output."""
        if self.verb == "check":
            checks.check_invariants(text, inputs.dims)
            return
        checks.check_sweep(
            text,
            inputs.dims,
            self.reps,
            inputs.base_seed,
            OVERLAP,
            self.epsilon,
            SINGLES_RATE * INTEGRATION_TIME,
        )

    def epsilon(self, d: int) -> float:
        """Depolarizing strength that ``--percell-error`` asks for at dimension d."""
        flags = dict(zip(self.flags[::2], self.flags[1::2]))
        return float(flags["--percell-error"]) * (d + 1)


WORKLOADS = {
    w.name: w
    for w in (
        # the paper's sweep with the acceptance-suite settings, without d=14:
        # its l=7 state heralds ~9 coincidences per run, and on about 2% of
        # base seeds one repetition has no contrast excess and the sweep fails
        Workload(
            "sweep-accept",
            "run",
            dims=tuple(range(2, 14)),
            reps=25,
            flags=("--percell-error", "0.01", "--max-rate", "22", "--sigma-spiral", "2.4"),
        ),
        # 156 small builds and their invariants, no simulation
        Workload("check-grid", "check", dims=tuple(range(2, 15))),
    )
}
