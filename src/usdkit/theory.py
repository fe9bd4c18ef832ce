"""Closed-form theory for unambiguous discrimination of d symmetric states.

The d input states live in d dimensions, have only real amplitudes, and share
a common pairwise overlap controlled by a single angle theta:

    <Psi_i|Psi_j> = (d cos^2(theta) - 1) / (d - 1),   i != j.

The MESD bound is a pairwise lower bound on the minimum-error-discrimination
error, exact only for d = 2.  All angles are radians; the CLI converts from
degrees at the boundary.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidDimensionError, real

#: Absolute slack applied when comparing an angle against theta_max.
THETA_TOL = 1e-12


def _check_dim(d: int) -> int:
    try:
        valid = int(d) == d and d >= 2
    except (TypeError, ValueError, OverflowError):  # None, NaN, inf, other non-numbers
        valid = False
    if valid and d <= sys.float_info.max:  # every closed form takes d as a float
        return int(d)
    need = "fit in a float" if valid else "be an integer >= 2"
    raise InvalidDimensionError(f"dimension must {need}, got {d!r}")


def theta_max(d: int) -> float:
    """Largest admissible angle, arccos(sqrt(1/d)); the states are orthogonal there."""
    d = _check_dim(d)
    return math.acos(math.sqrt(1.0 / d))


def _check_theta(d: int, theta: float, tmax: float | None = None) -> float:
    tmax = theta_max(d) if tmax is None else tmax  # a caller checking many angles passes it
    if -THETA_TOL <= (value := real(theta)) <= tmax + THETA_TOL:  # what real() rejects is NaN
        return 0.0 if value < 0.0 else tmax if value > tmax else value
    raise DomainError(f"theta must lie in [0, {tmax!r}] rad (theta_max for d={d}); got {theta!r}")


def _check_overlap(s: float) -> float:
    if 0.0 <= (value := real(s)) <= 1.0:  # judged as an angle is: a non-number is out of range
        return value
    raise DomainError(f"overlap must lie in [0, 1], got {s!r}")


def overlap(d: int, theta: float) -> float:
    """Pairwise overlap (d cos^2(theta) - 1)/(d - 1), clipped to [0, 1]."""
    return usd_probabilities(d, theta)[1]


def usd_probabilities(d: int, theta: float) -> tuple[float, float]:
    """Success and inconclusive probabilities of ideal USD.

    p_suc = d sin^2(theta)/(d-1), p_inc = overlap(d, theta).  The two sum to
    one; the error probability is zero by construction.
    """
    d = _check_dim(d)
    return tuple(float(p) for p in _usd_probabilities(d, _check_theta(d, theta)))


def _usd_probabilities(d: int, theta):  # d and theta checked; theta one angle or an array
    # float_power is libm's pow, as Python's float ** is: each value has the scalar formula's bits
    p_suc = np.minimum(d * np.float_power(np.sin(theta), 2) / (d - 1.0), 1.0)
    p_inc = (d * np.float_power(np.cos(theta), 2) - 1.0) / (d - 1.0)
    return p_suc, np.minimum(np.maximum(p_inc, 0.0), 1.0)


def theta_for_overlap(d: int, target: float) -> float:
    """Angle that produces a given pairwise overlap.

    Inverts the overlap formula: theta = arccos(sqrt((1 + (d-1)*target)/d)).
    Used to hold the MESD bound constant while sweeping the dimension.
    """
    d = _check_dim(d)
    return math.acos(math.sqrt((1.0 + (d - 1.0) * _check_overlap(target)) / d))


def mesd_bound_from_overlap(s: float) -> float:
    """Minimum-error bound (1 - sqrt(1 - s^2))/2 for pairwise overlap s."""
    s = _check_overlap(s)
    return 0.5 * (1.0 - math.sqrt(max(1.0 - s * s, 0.0)))


def mesd_bound(d: int, theta: float) -> float:
    """Pairwise lower bound on the error of minimum-error discrimination.

    The pairwise trace-distance bound (D. Qiu, Phys. Rev. A 77, 012328
    (2008)) reads P_E >= (1 - sum_{i<j} ||rho_i/d - rho_j/d||_1 / (d-1))/2
    for equal priors 1/d.  Each of the (d^2 - d)/2 pairs of pure states with
    overlap s = |<Psi_i|Psi_j>| contributes (2/d) sqrt(1 - s^2), so the pair
    count cancels the 1/(d-1) and 2/d factors and the bound collapses to
    (1 - sqrt(1 - s^2))/2, which depends on (d, theta) only through the
    overlap.  It is the exact minimum error only for d = 2; for d > 2 the
    minimum error is larger.
    """
    return mesd_bound_from_overlap(overlap(d, theta))


@dataclass(frozen=True)
class TheoryPoint:
    """Closed-form quantities at one (d, theta) point; ``overlap`` is also p_inc."""

    dim: int
    theta: float
    overlap: float
    p_suc: float
    mesd_bound: float


def theory_point(d: int, theta: float) -> TheoryPoint:
    """Evaluate all closed-form quantities at (d, theta); p_inc is the overlap."""
    p_suc, p_inc = usd_probabilities(d, theta)
    return TheoryPoint(dim=int(d), theta=float(theta), overlap=p_inc, p_suc=p_suc,
                       mesd_bound=mesd_bound_from_overlap(p_inc))
