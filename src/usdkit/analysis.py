"""Convert raw counts into probabilities, uncertainties, and error rates.

The chain follows the experimental normalization: the quantum contrast
Q_ij = (C_ij / T) / (s_Ai * s_Bj * t) compares the coincidence rate of a cell
against the accidental rate of two independent streams (s are singles rates,
t the coincidence window), so uncorrelated settings sit at Q = 1.  The
contrast is converted to probabilities by P_ij = (Q_ij - 1)/sum_j(Q_ij - 1);
negative (Q_ij - 1) values from noise are kept, not clipped.  Uncertainties
come from first-order Gaussian propagation of sqrt(N) count deviations; only
``outcome_table`` computes them.  The sweep's ``mean_error_sigma`` is instead
the sample spread of the per-state errors (``summarize_probabilities``);
``classify`` weighs a mean error against a bound that the caller supplies.
Every step but ``classify`` takes one run or a stack of runs along leading
axes, and each repetition of a stack gets the numbers of its run alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TABLE, DegenerateRowError, DomainError, InsufficientDataError
from .errors import InvalidDimensionError, UsdError, instance, real, rows
from .experiment import CountsRecord

VERDICT_BELOW = "below_by_one_sigma"
VERDICT_OVERLAPPING = "overlapping"
VERDICT_ABOVE = "above"


@dataclass(frozen=True)
class OutcomeTable:
    """Normalized outcome probabilities with propagated uncertainties, each (..., d, d+1)."""

    probabilities: np.ndarray
    sigmas: np.ndarray
    quantum_contrast: np.ndarray

    def __post_init__(self):
        shape = TABLE  # the probabilities' shape, which the other two must share
        for name in ("probabilities", "sigmas", "quantum_contrast"):
            object.__setattr__(self, name, rows(getattr(self, name), name, shape))
            shape = self.probabilities.shape
        _check_row_sums(self.probabilities)
        if np.any(self.sigmas < 0.0) or not np.all(np.isfinite(self.sigmas)):
            raise DegenerateRowError("sigmas must be nonnegative and finite")


@dataclass(frozen=True)
class ErrorSummary:
    """Per-state and mean total error rates of a run; a stack's leading axes nest as lists."""

    per_state_error: tuple
    mean_total_error: float | list
    mean_error_sigma: float | list


def quantum_contrast(record: CountsRecord) -> np.ndarray:
    """Coincidence rates normalized by the singles rates and the window.

    Q_ij = C_ij * T / (S_Ai * S_Bj * t) with S the singles totals over the
    integration time T and t the coincidence window; two uncorrelated
    streams give Q = 1 in expectation.  A stacked record gives one Q per
    repetition; a zero singles count is an error naming its lowest repetition.
    """
    record = instance(record, CountsRecord, InvalidDimensionError, "record")
    sa = np.asarray(record.singles_a, dtype=float)
    sb = np.asarray(record.singles_b, dtype=float)
    for name, arr in (("S_A", sa), ("S_B", sb)):
        zeros = np.argwhere(arr <= 0.0)
        if zeros.size:
            raise _at(InsufficientDataError(
                f"{name} has zero singles at setting index {zeros[0][-1]}; "
                "quantum contrast is undefined"
            ), zeros[0])
    c = np.asarray(record.coincidences, dtype=float)
    window = record.coincidence_window
    return c * record.integration_time / (sa[..., :, None] * sb[..., None, :] * window)


def _at(error: UsdError, where: np.ndarray) -> UsdError:
    """Return ``error``; if ``where`` indexes a stack (repetition, row), tag it ``.repetition``."""
    if len(where) > 1:
        error.repetition = int(where[0])
    return error


def _check_row_sums(p: np.ndarray) -> None:
    ok = np.abs(p.sum(axis=-1) - 1.0) <= 1e-12  # NaN fails
    if not ok.all():
        raise _at(DegenerateRowError("probability rows must sum to one"), np.argwhere(~ok)[0])


def normalize_probabilities(contrast: np.ndarray) -> np.ndarray:
    """Row-normalize (Q - 1) into probabilities; keeps negative entries.

    Raises:
        DegenerateRowError: if a row of Q - 1 sums to a nonpositive value,
            meaning that preparation shows no correlated signal, or if a
            nearly cancelling row fails to sum to one within 1e-12.  On a
            stack, the first check that fails names the first failing row of
            its lowest failing repetition r, which alone raises exactly this.
    """
    excess = rows(contrast, "contrast") - 1.0
    denominators = excess.sum(axis=-1)
    bad = np.argwhere(denominators <= 0.0)
    if bad.size:
        raise _at(DegenerateRowError(
            f"row {bad[0][-1]} has nonpositive contrast excess "
            f"{float(denominators[tuple(bad[0])])!r}; no correlated signal in that preparation"
        ), bad[0])
    p = excess / denominators[..., None]
    _check_row_sums(p)
    return p


def gaussian_propagation(record: CountsRecord) -> np.ndarray:
    """First-order sigma of every P_ij from sqrt(N) count deviations (see ``outcome_table``)."""
    return outcome_table(record).sigmas


def outcome_table(record: CountsRecord) -> OutcomeTable:
    """Full analysis of a counts record: contrast, probabilities, sigmas.

    The sigmas propagate sqrt(N) count deviations to first order: every count
    N (coincidences and singles) is an independent variable with variance
    max(N, 1); the floor keeps zero-count cells from claiming zero
    uncertainty.  The partial derivatives of
    P_ij = (Q_ij - 1)/sum_k(Q_ik - 1) are evaluated at the measured values,
    including the common S_Ai factor and the per-column S_Bk factors.  A
    stack gives one table per repetition, bit-equal to its run's table.
    """
    q = quantum_contrast(record)
    p = normalize_probabilities(q)
    denominators = (q - 1.0).sum(axis=-1, keepdims=True)
    sa = np.asarray(record.singles_a, dtype=float)[..., :, None]
    sb = np.asarray(record.singles_b, dtype=float)[..., None, :]
    var_c = np.maximum(np.asarray(record.coincidences, dtype=float), 1.0)

    def spread(w):
        # sum_k (delta_jk - P_ij)^2 w_ik for every (i, j); the k != j part comes from
        # exclusive prefix and suffix sums, so unlike row_sum - w_ij nothing cancels
        pad = np.zeros((*w.shape[:-1], 1))
        others = np.cumsum(np.concatenate([pad, w[..., :-1]], axis=-1), axis=-1)
        others += np.cumsum(np.concatenate([pad, w[..., :0:-1]], axis=-1), axis=-1)[..., ::-1]
        return (1.0 - p) ** 2 * w + p**2 * others

    dq_dc = record.integration_time / (sa * sb * record.coincidence_window)
    coincidence_terms = spread((dq_dc / denominators) ** 2 * var_c)
    column_terms = spread((q / (denominators * sb)) ** 2 * np.maximum(sb, 1.0))
    row_term = (q - p * q.sum(axis=-1, keepdims=True)) / (denominators * sa)
    sigmas = np.sqrt(coincidence_terms + column_terms + row_term**2 * np.maximum(sa, 1.0))
    return OutcomeTable(probabilities=p, sigmas=sigmas, quantum_contrast=q)


def classify(mean_total_error: float, mean_error_sigma: float, mesd_bound: float) -> str:
    """Three-way verdict of the mean error against the MESD bound; each must be a real number."""
    mean = real(mean_total_error, DomainError, "mean_total_error")
    sigma = real(mean_error_sigma, DomainError, "mean_error_sigma")
    bound = real(mesd_bound, DomainError, "mesd_bound")
    if mean + sigma < bound:
        return VERDICT_BELOW
    if mean > bound:
        return VERDICT_ABOVE
    return VERDICT_OVERLAPPING


def summarize_probabilities(probabilities: np.ndarray) -> ErrorSummary:
    """Per-state and mean error rates of a probability matrix.

    The per-state error sums the conclusive off-diagonal probabilities of a
    row; the mean averages over input states.  ``mean_error_sigma`` is the
    sample standard deviation of the per-state errors, i.e. the spread
    attached to the mean point when ``classify`` weighs it against a bound.
    An (R, d, d+1) stack gives lists over the repetitions.
    """
    p = rows(probabilities, "probabilities", TABLE)
    d = p.shape[-2]
    per_state = np.where(~np.eye(d, dtype=bool), p[..., :d], 0.0).sum(axis=-1)
    mean_error = per_state.mean(axis=-1).tolist()
    sigma = (per_state.std(axis=-1, ddof=1) if d > 1 else np.zeros(p.shape[:-2])).tolist()
    return ErrorSummary(tuple(per_state.tolist()), mean_error, sigma)
