"""Stochastic virtual experiment: heralded preparation, projection, counting.

One run mimics the real apparatus: for every preparation/measurement pair
(i, j) a 30 s coincidence count is drawn from a Poisson law whose mean is the
heralding rate of |Psi_i> times the detection probability |<D_j|Psi_i>|^2
(``states.ideal_detection_matrix``), plus an accidental floor, while each arm
accumulates background singles.

Modeling choices (all configurable, none dictated by the measured data):

* Per-state heralding rates follow a Gaussian spiral-bandwidth envelope
  exp(-l^2 / (2 sigma^2)) over the OAM labels, so high-|l| states are slower
  and high-dimensional sweeps grow statistical uncertainty.
* Imperfections are folded into a single depolarizing parameter epsilon that
  mixes each outcome row with the uniform distribution over d+1 outcomes;
  epsilon = 0.01*(d+1) reproduces a 1% misidentification probability per
  incorrect conclusive outcome.
* Singles are background-dominated Poisson streams at ``singles_rate_scale``
  per arm; the accidental coincidence floor is rate_A * rate_B * window, so
  the quantum contrast of uncorrelated settings is 1 in expectation.  The
  configuration is rejected if the background is too small for the
  coincidence counts it must dominate (the per-cell counts bound), or if a
  state expects no signal above the accidental floor (its rate underflowed).

Every count has its own Poisson stream, keyed [seed, 2, i, j] for coincidence
cell (i, j) and [seed, 0, i] / [seed, 1, j] for the singles of arm A / B, so a
run is deterministic and independent of evaluation order.  A key reaches
SeedSequence as uint32 words: the seed's words, then the tail (2, i, j),
(0, i) or (1, j), as SeedSequence splits the int list itself.  Each count
comes from Generator(PCG64(SeedSequence(key))), the generator that
np.random.default_rng(key) builds, so the streams (and every seed recorded
with the int-list keys) stay the same.  ``run_repetitions`` draws the runs of
many seeds into one record stacked along a leading repetition axis.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace
from numbers import Integral

import numpy as np

from .errors import ConfigurationError, InvalidDimensionError, real
from .states import DiscriminationBasis, OamMap, _check_one_angle, ideal_detection_matrix, oam_map

#: Expected counts beyond this overflow the int64 draw.
MAX_EXPECTED_COUNTS = float(2**62)
_RANGES = {"crosstalk_epsilon": (lambda v: 0.0 <= v < 0.5, "lie in [0, 0.5)"),
           "singles_rate_scale": (lambda v: v >= 0.0, "be nonnegative")}


@dataclass(frozen=True)
class ExperimentConfig:
    """Source, noise, and counting parameters for one virtual experiment.

    (d, theta) belong to the basis's ``StateFamily``; the seed is an argument of the draw.
    """

    integration_time: float = 30.0
    coincidence_window: float = 25e-9
    max_coincidence_rate: float = 350.0
    spiral_bandwidth_sigma: float = 2.4
    crosstalk_epsilon: float = 0.0
    singles_rate_scale: float = 500.0

    def __post_init__(self):
        for f in fields(self):  # each value meets the number rule, then its range: _RANGES or > 0
            value = real(getattr(self, f.name), ConfigurationError, f.name)
            in_range, rule = _RANGES.get(f.name, (lambda v: v > 0.0, "be positive"))
            if not in_range(value):
                raise ConfigurationError(f"{f.name} must {rule}")
            object.__setattr__(self, f.name, value)


@dataclass(frozen=True)
class CountsRecord:
    """Raw counts of one run, or of R runs stacked along a leading axis.

    d is the second-to-last axis of ``coincidences``; every check works on the
    trailing (d, d+1), (d,) and (d+1,) axes.
    """

    coincidences: np.ndarray
    singles_a: np.ndarray
    singles_b: np.ndarray
    integration_time: float
    coincidence_window: float = ExperimentConfig.coincidence_window

    def __post_init__(self):
        # integer dtype is preserved for generated records; synthetic records
        # holding expected values may be float; every check fails on NaN
        for name in ("coincidences", "singles_a", "singles_b"):
            arr = np.array(getattr(self, name))
            if not np.issubdtype(arr.dtype, np.number):
                raise ConfigurationError("counts must be numeric")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        c, sa, sb = self.coincidences, self.singles_a, self.singles_b
        lead, d = c.shape[:-2], c.shape[-2] if c.ndim >= 2 else -1  # -1 matches no shape
        if c.shape != (*lead, d, d + 1) or sa.shape != (*lead, d) or sb.shape != (*lead, d + 1):
            raise InvalidDimensionError(
                f"inconsistent count shapes {c.shape}, {sa.shape}, {sb.shape}"
            )
        if not (np.all(c >= 0.0) and np.all(sa >= 0.0) and np.all(sb >= 0.0)):
            raise ConfigurationError("counts must be nonnegative")
        if np.any(c > np.minimum(sa[..., :, None], sb[..., None, :])):
            raise ConfigurationError("coincidences cannot exceed either arm's singles")
        if not (self.integration_time > 0.0 and self.coincidence_window > 0.0):
            raise ConfigurationError("integration time and window must be positive")


def epsilon_for_percell_error(d: int, per_cell: float = 0.01) -> float:
    """Depolarization strength giving ``per_cell`` probability per wrong outcome.

    The uniform mixture puts epsilon/(d+1) in every off-diagonal conclusive
    cell, so epsilon = per_cell * (d + 1).
    """
    eps = real(per_cell, ConfigurationError, "per-cell error") * (d + 1)
    if not 0.0 <= eps < 0.5:
        raise ConfigurationError(f"per-cell error {per_cell!r} needs epsilon={eps!r} at d={d}, "
                                 "outside [0, 0.5)")
    return eps


def apply_noise(ideal: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """Mix each outcome row with the uniform distribution over d+1 outcomes."""
    probs = np.asarray(ideal, dtype=float)
    if not np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9:
        raise ConfigurationError("ideal detection rows must sum to one")
    eps = config.crosstalk_epsilon
    return (1.0 - eps) * probs + eps / probs.shape[1]


def spiral_weights(mapping: OamMap, sigma: float) -> np.ndarray:
    """Gaussian spiral-bandwidth weights exp(-l^2/(2 sigma^2)), max-normalized."""
    if not (sigma := real(sigma, ConfigurationError, "spiral bandwidth sigma")) > 0.0:
        raise ConfigurationError("spiral bandwidth sigma must be positive")
    two_sigma_sq = 2.0 * sigma * sigma
    if not two_sigma_sq > 0.0:
        raise ConfigurationError(f"spiral bandwidth sigma {sigma!r} underflows when squared")
    ells = np.array(mapping.state_ells, dtype=float)
    with np.errstate(over="ignore"):  # an l^2/(2 sigma^2) of inf is a zero weight
        weights = np.exp(-(ells**2) / two_sigma_sq)
    return weights / weights.max()


def _expected_means(
    basis: DiscriminationBasis, config: ExperimentConfig
) -> tuple[np.ndarray, float]:
    """Per-cell expected coincidence counts and the expected singles count, gated."""
    _check_one_angle(basis.family, "a simulated basis")
    d, probs = basis.family.dim, apply_noise(ideal_detection_matrix(basis), config)
    weights = spiral_weights(mapping := oam_map(d), config.spiral_bandwidth_sigma)
    rates = config.max_coincidence_rate * weights
    # a product, not **2, so that a huge rate squares to inf for the overflow gate
    singles_rate = config.singles_rate_scale
    accidental_rate = singles_rate * singles_rate * config.coincidence_window
    with np.errstate(over="ignore"):  # an inf is the overflow gate's to reject, without a warning
        lam = (rates[:, None] * probs + accidental_rate) * config.integration_time
    singles_mean = singles_rate * config.integration_time
    lam_max = float(lam.max())  # the overflow gate first: an infinite floor equals every cell
    if not (lam_max < MAX_EXPECTED_COUNTS and singles_mean < MAX_EXPECTED_COUNTS):  # NaN fails
        raise ConfigurationError(
            f"expected counts not finite or > 2**62: cell {lam_max!r}, singles {singles_mean!r}"
        )
    silent = (lam == accidental_rate * config.integration_time).all(axis=1)
    if silent.any():  # every cell of such a row is the accidental floor: its signal underflowed
        ells = sorted((ell for ell, off in zip(mapping.state_ells, silent) if off), key=abs)
        raise ConfigurationError(
            f"{len(ells)} of {d} states at d={d} expect no signal above the accidental floor "
            f"(l = {', '.join(map(str, ells[:4]))}{', ...' if len(ells) > 4 else ''}) with "
            f"spiral_bandwidth_sigma {config.spiral_bandwidth_sigma!r} and max_coincidence_rate "
            f"{config.max_coincidence_rate!r}; widen the envelope or raise the rate"
        )
    return lam, singles_mean


def run_repetitions(
    basis: DiscriminationBasis, config: ExperimentConfig, seeds: Iterable[int]
) -> CountsRecord:
    """Draw the runs of all ``seeds`` into one record stacked along a leading axis.

    Repetition r is the run of the r-th seed, as ``run_experiment`` draws it.
    The seeds are checked, and the expected means pass their overflow and
    signal gates and the singles-dominance gate of a draw, once for all and
    before any draw.

    A key is the seed's little-endian 32-bit words (seed 0 gives [0]), then
    the tail (2, i, j), (0, i) or (1, j): the words of the int-list key
    [seed, 2, i, j], so the streams match it.  Each seed gets one uint32 key
    table for its cells and one for its singles, drawn in that order.
    """
    seeds = [*seeds]  # at least one, each an integer: 1.5 is none, and True is a flag
    if not seeds or not all(isinstance(s, Integral) and not isinstance(s, bool) for s in seeds):
        raise ConfigurationError(f"seeds must be one or more integers, got {seeds!r}")
    seeds = [operator.index(seed) for seed in seeds]
    if not all(seed >= 0 for seed in seeds):
        raise ConfigurationError(f"seed must be nonnegative, got {min(seeds)!r}")
    lam, singles_mean = _expected_means(basis, config)
    lam_max = float(lam.max())  # > 0: all-zero cells would be rows at a zero floor, gated above
    if singles_mean - lam_max < 10.0 * math.sqrt(singles_mean + lam_max):
        raise ConfigurationError(
            "singles_rate_scale is too low for the coincidence rates: expected "
            f"singles {singles_mean!r} must dominate the largest cell mean {lam_max!r}; "
            "raise singles_rate_scale or lower the coincidence scale"
        )
    d = basis.family.dim
    cell_tails = np.array([(2, i, j) for i in range(d) for j in range(d + 1)], np.uint32)
    single_tails = np.array([(0, i) for i in range(d)] + [(1, j) for j in range(d + 1)], np.uint32)
    tails = ((cell_tails, lam.ravel().tolist()), (single_tails, [singles_mean] * len(single_tails)))
    Generator, PCG64, SeedSequence = np.random.Generator, np.random.PCG64, np.random.SeedSequence
    counts = []
    for seed in seeds:
        words = [(seed >> k) & 0xFFFFFFFF for k in range(0, max(seed.bit_length(), 1), 32)]
        for tail, means in tails:  # a key is the seed's words, then the tail
            keys = np.empty((len(tail), len(words) + tail.shape[1]), np.uint32)
            keys[:, : len(words)], keys[:, len(words) :] = words, tail
            counts += [Generator(PCG64(SeedSequence(k))).poisson(m) for k, m in zip(keys, means)]
    cells = d * (d + 1)
    counts = np.array(counts, dtype=np.int64).reshape(len(seeds), cells + 2 * d + 1)
    return CountsRecord(
        coincidences=counts[:, :cells].reshape(-1, d, d + 1),
        singles_a=counts[:, cells : cells + d],
        singles_b=counts[:, cells + d :],
        integration_time=config.integration_time,
        coincidence_window=config.coincidence_window,
    )


def run_experiment(basis: DiscriminationBasis, config: ExperimentConfig, seed: int) -> CountsRecord:
    """Draw the counts record of ``seed`` for all d*(d+1) preparation/measurement pairs.

    The coincidence count of cell (i, j) is Poisson with mean
    R_i * p_noisy(i, j) * T + accidental floor, where R_i is the heralding
    rate of state i of ``basis.family`` after the spiral envelope.  Singles are
    background Poisson streams; the background must dominate the coincidence
    counts so that every generated record satisfies C_ij <= min(S_Ai, S_Bj).
    It is repetition 0 of ``run_repetitions`` over ``(seed,)``.
    """
    stack = run_repetitions(basis, config, (seed,))
    counts = ("coincidences", "singles_a", "singles_b")
    return replace(stack, **{name: getattr(stack, name)[0] for name in counts})


def expected_record(basis: DiscriminationBasis, config: ExperimentConfig) -> CountsRecord:
    """Noiseless record holding the exact expected values instead of draws.

    Coincidence cells carry the Poisson means (signal plus accidental floor),
    past the overflow and signal gates of ``run_repetitions``, and the singles
    their background means; feeding this record through the analysis chain
    reproduces the noisy detection matrix exactly.
    """
    lam, singles_mean = _expected_means(basis, config)
    return CountsRecord(
        coincidences=lam,
        singles_a=np.full(len(lam), singles_mean),
        singles_b=np.full(len(lam) + 1, singles_mean),
        integration_time=config.integration_time,
        coincidence_window=config.coincidence_window,
    )
