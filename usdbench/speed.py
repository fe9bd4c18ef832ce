"""Machine-speed calibration for timing on a shared host.

The host's other tenants change how fast this process runs: one pass of
identical code varied by up to 60 % between minutes, with CPU time tracking
wall time.  A fixed kernel, timed between the timed intervals of a run,
measures the speed the machine had during the run.  The run's times are
then rescaled to the reference speed, at which one kernel call takes
``REFERENCE_S`` of wall and CPU time.  The kernel touches nothing of
usdkit, so a change to the program cannot change it.
"""

from __future__ import annotations

import statistics
import time

#: Kernel time at the reference speed: a round figure near its median
#: (44 ms in a quiet minute) on the 2-vCPU host described in README.md.
REFERENCE_S = 0.05


def kernel(numpy) -> tuple[float, float]:
    """Wall and CPU seconds of a fixed mix like usdkit's own work.

    The mix is small-vector numpy arithmetic, as in Gram-Schmidt, seeded
    Generator construction with one Poisson draw, as in the simulation, and
    plain interpreter arithmetic.
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    v = numpy.ones(8)
    for _ in range(6000):
        v = v - (v @ v) * 1e-6 * v
    for i in range(600):
        numpy.random.default_rng([i, 2, 3]).poisson(5.0)
    total = 0
    for i in range(160000):
        total += i % 7
    return time.perf_counter() - wall0, time.process_time() - cpu0


def sample(numpy, samples: list, budget_s: float) -> None:
    """Append kernel timings to ``samples`` for ``budget_s`` seconds, at least one."""
    start = time.perf_counter()
    samples.append(kernel(numpy))
    while time.perf_counter() - start < budget_s:
        samples.append(kernel(numpy))


def factors(samples: list) -> tuple[float, float]:
    """Factors that rescale wall and CPU time of a run to the reference speed.

    The median kernel time of the run estimates its speed.  Interference on
    this host comes in bursts shorter than a second, which single kernel
    calls catch and long passes average out, and in phases of minutes, which
    the median over a run follows.
    """
    wall = statistics.median(w for w, _ in samples)
    cpu = statistics.median(c for _, c in samples)
    return REFERENCE_S / wall, REFERENCE_S / cpu
