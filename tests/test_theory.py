"""Closed-form overlap, probabilities, angle inversion, and MESD bound."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import usdkit
from usdkit import theory
from usdkit.errors import DomainError, InvalidDimensionError

SQRT_HALF = 2.0**-0.5
# (1 - sqrt(1/2))/2, evaluated directly
MESD_AT_SQRT_HALF = 0.1464466094067262
# direct evaluation of the overlap / success formulas at d=6, theta=40deg
OVERLAP_6_40 = 0.5041889066001582
PSUC_6_40 = 0.4958110933998417

ALL_DIMS = list(range(2, 15))


def theta_grid(d, n=12):
    tmax = theory.theta_max(d)
    return [k * tmax / n for k in range(1, n + 1)]


def test_theta_max_values():
    assert theory.theta_max(2) == pytest.approx(math.pi / 4, abs=1e-15)
    assert math.degrees(theory.theta_max(6)) == pytest.approx(65.90515744788931, abs=1e-10)


@pytest.mark.parametrize("d", ALL_DIMS)
def test_overlap_limits(d):
    assert theory.overlap(d, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert theory.overlap(d, theory.theta_max(d)) == pytest.approx(0.0, abs=1e-15)


def test_overlap_frozen_value():
    assert theory.overlap(6, math.radians(40.0)) == pytest.approx(OVERLAP_6_40, abs=1e-12)


def test_overlap_rejects_theta_beyond_max():
    with pytest.raises(DomainError) as err:
        theory.overlap(6, theory.theta_max(6) + 1e-6)
    assert "theta_max" in str(err.value)


@pytest.mark.parametrize("d", ALL_DIMS)
def test_usd_probabilities_limits(d):
    assert theory.usd_probabilities(d, theory.theta_max(d)) == pytest.approx((1.0, 0.0), abs=1e-14)
    assert theory.usd_probabilities(d, 0.0) == pytest.approx((0.0, 1.0), abs=1e-15)


def test_usd_probabilities_frozen_value():
    p_suc, p_inc = theory.usd_probabilities(6, math.radians(40.0))
    assert p_suc == pytest.approx(PSUC_6_40, abs=1e-12)
    assert p_inc == pytest.approx(OVERLAP_6_40, abs=1e-12)


def test_usd_probabilities_checks_its_angle_once(monkeypatch):
    calls, check = [], theory._check_theta
    monkeypatch.setattr(theory, "_check_theta", lambda d, th: calls.append(th) or check(d, th))
    assert theory.usd_probabilities(6, 0.4)[1] == theory.overlap(6, 0.4)
    assert calls == [0.4, 0.4]  # one check each for usd_probabilities and overlap


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 300), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
# x ** 2 and x * x round sin^2 of the first angle and cos^2 of the second differently
@example(3, [0.6865644924074132, 0.9705587631326238])
def test_closed_forms_of_an_angle_array_have_the_scalar_formula_bits(d, fractions):
    # one numpy pass over a stack must give each angle the bits of the math formula
    thetas = [f * theory.theta_max(d) for f in fractions]
    p_suc, p_inc = theory._usd_probabilities(d, np.array(thetas))
    for k, th in enumerate(thetas):
        assert p_suc[k] == min(d * math.sin(th) ** 2 / (d - 1.0), 1.0)
        assert p_inc[k] == min(max((d * math.cos(th) ** 2 - 1.0) / (d - 1.0), 0.0), 1.0)
        assert theory.usd_probabilities(d, th) == (p_suc[k], p_inc[k])


@pytest.mark.parametrize("d", ALL_DIMS)
def test_probabilities_sum_to_one(d):
    for th in theta_grid(d):
        p_suc, p_inc = theory.usd_probabilities(d, th)
        assert abs(p_suc + p_inc - 1.0) < 1e-14
        assert 0.0 <= p_suc <= 1.0 and 0.0 <= p_inc <= 1.0


# Optimal USD of d states with equal real pairwise overlap s succeeds with 1 - s
# (Chefles and Barnett, Phys. Lett. A 250, 223 (1998)): certified over the whole domain
@settings(max_examples=300, deadline=None)
@example(d=2, fraction=1.0)
@example(d=10_000, fraction=0.0)
@given(d=st.integers(2, 10_000), fraction=st.floats(0.0, 1.0))
def test_probabilities_sum_to_one_over_the_whole_domain(d, fraction):
    th = fraction * theory.theta_max(d)
    p_suc, p_inc = theory.usd_probabilities(d, th)
    assert abs(p_suc - (1.0 - theory.overlap(d, th))) <= 1e-12
    assert abs(p_suc + p_inc - 1.0) <= 1e-12
    assert 0.0 <= p_suc <= 1.0 and 0.0 <= p_inc <= 1.0


def test_theta_for_overlap_half_angle_identity():
    # cos^2(theta) = (1 + cos 45deg)/2  =>  theta = 22.5deg exactly
    theta = theory.theta_for_overlap(2, SQRT_HALF)
    assert math.degrees(theta) == pytest.approx(22.5, abs=1e-10)


@pytest.mark.parametrize("d", ALL_DIMS)
def test_theta_for_overlap_zero_gives_theta_max(d):
    assert theory.theta_for_overlap(d, 0.0) == pytest.approx(theory.theta_max(d), abs=1e-14)


def test_theta_for_overlap_frozen_value():
    theta = theory.theta_for_overlap(6, SQRT_HALF)
    assert math.degrees(theta) == pytest.approx(29.60661086515335, abs=1e-9)
    assert theory.overlap(6, theta) == pytest.approx(SQRT_HALF, abs=1e-12)


@pytest.mark.parametrize("d", ALL_DIMS)
def test_overlap_round_trip(d):
    for th in theta_grid(d):
        assert theory.theta_for_overlap(d, theory.overlap(d, th)) == pytest.approx(th, abs=1e-12)


def test_theta_for_overlap_domain():
    with pytest.raises(DomainError):
        theory.theta_for_overlap(3, 1.2)
    with pytest.raises(DomainError):
        theory.theta_for_overlap(3, -0.1)


@pytest.mark.parametrize("d", ALL_DIMS)
def test_mesd_bound_at_fixed_overlap(d):
    theta = theory.theta_for_overlap(d, SQRT_HALF)
    assert theory.mesd_bound(d, theta) == pytest.approx(MESD_AT_SQRT_HALF, abs=1e-12)


def test_mesd_bound_limits():
    assert theory.mesd_bound(5, theory.theta_max(5)) == pytest.approx(0.0, abs=1e-14)
    assert theory.mesd_bound(5, 0.0) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("s", [1.5, -0.1])
def test_mesd_bound_from_overlap_domain(s):
    with pytest.raises(DomainError, match=r"^overlap must lie in \[0, 1\], got "):
        theory.mesd_bound_from_overlap(s)


@pytest.mark.parametrize(
    "name, args",
    [("build_basis", (3, "abc")), ("build_basis", (3, None)), ("theory_point", (3, "x")),
     ("usd_probabilities", (3, None)), ("theta_for_overlap", (3, "x")),
     ("mesd_bound_from_overlap", ("x",))],
    ids=["build_basis-str", "build_basis-None", "theory_point", "usd_probabilities",
         "theta_for_overlap", "mesd_bound_from_overlap"],
)
def test_an_angle_or_overlap_that_is_no_number_is_one_domain_error(name, args):
    # converted with float() before the range check, so the value is named, not a TypeError
    with pytest.raises(DomainError, match=f"got {re.escape(repr(args[-1]))}$"):
        getattr(usdkit, name)(*args)


def test_an_angle_or_overlap_no_float_holds_keeps_the_range_message():
    tmax = theory.theta_max(3)
    message = f"theta must lie in [0, {tmax!r}] rad (theta_max for d=3); got {10**400}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        theory.usd_probabilities(3, 10**400)
    with pytest.raises(DomainError, match=re.escape(f"overlap must lie in [0, 1], got {10**400}")):
        theory.theta_for_overlap(3, 10**400)


@pytest.mark.parametrize("target", [0.1, 0.3, SQRT_HALF, 0.9])
def test_mesd_bound_dimension_invariance(target):
    bounds = [theory.mesd_bound(d, theory.theta_for_overlap(d, target)) for d in ALL_DIMS]
    assert max(bounds) - min(bounds) < 1e-14


@pytest.mark.parametrize("d", [2, 6, 14])
def test_monotonicity(d):
    grid = theta_grid(d, 40)
    p_suc = [theory.usd_probabilities(d, th)[0] for th in grid]
    bounds = [theory.mesd_bound(d, th) for th in grid]
    assert all(b > a for a, b in zip(p_suc, p_suc[1:]))
    assert all(b < a for a, b in zip(bounds, bounds[1:]))


def test_theory_point_fields():
    point = theory.theory_point(6, math.radians(40.0))
    assert point.dim == 6
    assert (point.p_suc, point.overlap) == theory.usd_probabilities(6, math.radians(40.0))
    assert point.p_suc + point.overlap == pytest.approx(1.0, abs=1e-14)
    assert point.mesd_bound == pytest.approx(
        0.5 * (1.0 - math.sqrt(1.0 - point.overlap**2)), abs=1e-15
    )


@pytest.mark.parametrize("bad", [1, 0, -3])
def test_invalid_dimension(bad):
    with pytest.raises(InvalidDimensionError):
        theory.theta_max(bad)
    with pytest.raises(InvalidDimensionError):
        theory.overlap(bad, 0.1)
