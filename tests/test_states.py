"""Construction of the symmetric states and their closed-form measurement basis."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usdkit import states, theory
from usdkit.errors import DegenerateFamilyError, DomainError, InvalidDimensionError

CHECK_DIMS = list(range(2, 15))


def closed_form_basis_d3(theta):
    """The four measurement states in d=3, written out in closed form.

    The first component of row 1 is sqrt(2/3): it is pinned by <D_1|D_2> = 0
    together with unit norm, given the shared tan/sec components below.
    """
    tan, sec = math.tan(theta), 1.0 / math.cos(theta)
    q = 3.0 * math.cos(theta) ** 2 - 1.0
    return np.array(
        [
            [math.sqrt(2 / 3), 0.0, tan / math.sqrt(6), math.sqrt(q / 6) * sec],
            [-1 / math.sqrt(6), 1 / math.sqrt(2), tan / math.sqrt(6), math.sqrt(q / 6) * sec],
            [-1 / math.sqrt(6), -1 / math.sqrt(2), tan / math.sqrt(6), math.sqrt(q / 6) * sec],
            [0.0, 0.0, -math.sqrt(q / 2) * sec, tan / math.sqrt(2)],
        ]
    )


# ---------------------------------------------------------------- projected


def test_projected_vectors_d2():
    assert np.allclose(states.build_projected_vectors(2), [[1.0], [-1.0]], atol=1e-15)


def test_projected_vectors_d3_trine():
    expected = [[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]]
    assert np.allclose(states.build_projected_vectors(3), expected, atol=1e-15)


def test_projected_vectors_d5_gram():
    v = states.build_projected_vectors(5)
    gram = v @ v.T
    off = gram[~np.eye(5, dtype=bool)]
    assert np.max(np.abs(np.diag(gram) - 1.0)) < 1e-12
    assert np.max(np.abs(off + 0.25)) < 1e-12


@pytest.mark.parametrize("d", CHECK_DIMS)
def test_projected_vectors_structure(d):
    v = states.build_projected_vectors(d)
    assert v.shape == (d, d - 1)
    assert np.allclose(v[0], np.eye(d - 1)[0], atol=1e-15)
    gram = v @ v.T
    off = gram[~np.eye(d, dtype=bool)]
    assert np.max(np.abs(off + 1.0 / (d - 1))) < 1e-12


def projected_vectors_reference(d):
    """Entry-by-entry construction: every overlap condition solved on its own."""
    target = -1.0 / (d - 1.0)
    v = np.zeros((d, d - 1))
    v[0, 0] = 1.0
    for i in range(1, d):
        for k in range(min(i, d - 1)):
            v[i, k] = (target - v[i, :k] @ v[k, :k]) / v[k, k]
        if i <= d - 2:
            v[i, i] = math.sqrt(1.0 - v[i, :i] @ v[i, :i])
    return v


def test_projected_vectors_match_entrywise_reference():
    # same arithmetic per entry, so the bytes must agree, not just the values
    for d in [*range(2, 41), 64, 100]:
        assert states.build_projected_vectors(d).tobytes() == projected_vectors_reference(d).tobytes()


def test_projected_vectors_invalid_dimension():
    with pytest.raises(InvalidDimensionError):
        states.build_projected_vectors(1)


@pytest.mark.parametrize(
    "build", [theory.theta_max, states.build_projected_vectors, states.oam_map]
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None, "3", 2.5, 3 + 0j])
def test_non_integer_dimension_is_invalid(build, bad):
    with pytest.raises(InvalidDimensionError):
        build(bad)


def test_projected_vectors_memoized_read_only():
    v = states.build_projected_vectors(5)
    # an unhashable d reaches the memo only as its validated int
    assert states.build_projected_vectors(np.array(5)) is v
    with pytest.raises(ValueError):
        v[1, 0] = 0.0
    assert states.build_projected_vectors(5)[1, 0] == -0.25


# ------------------------------------------------------------------ family


def test_family_d3_first_state():
    theta = math.radians(33.0)
    family = states.build_state_family(3, theta)
    expected = [math.sin(theta), 0.0, math.cos(theta)]
    assert np.allclose(family.vectors[0], expected, atol=1e-15)


def test_family_theta_zero_collapses():
    family = states.build_state_family(5, 0.0)
    for row in family.vectors:
        assert np.allclose(row, [0, 0, 0, 0, 1], atol=1e-15)


def test_family_overlap_frozen_value():
    family = states.build_state_family(6, math.radians(40.0))
    gram = family.vectors @ family.vectors.T
    off = gram[~np.eye(6, dtype=bool)]
    assert np.max(np.abs(off - 0.5041889066001582)) < 1e-12


def test_family_admits_theta_max_exactly():
    family = states.build_state_family(7, theory.theta_max(7))
    gram = family.vectors @ family.vectors.T
    assert np.max(np.abs(gram - np.eye(7))) < 1e-12


def test_family_rejects_theta_outside_interval():
    with pytest.raises(DomainError) as err:
        states.build_state_family(3, theory.theta_max(3) + 1e-6)
    assert "[0," in str(err.value)
    with pytest.raises(DomainError):
        states.build_state_family(3, -0.2)


def test_family_validation_catches_bad_vectors():
    good = states.build_state_family(3, 0.5)
    with pytest.raises(DegenerateFamilyError):
        states.StateFamily(dim=3, theta=0.5, vectors=np.asarray(good.vectors) * 1.001)


# ------------------------------------------------------------- complements
# The first d entries of measurement row i are the normalized complement
# |Psi-perp_i>: orthogonal to every |Psi_j>, j != i, with positive overlap
# on |Psi_i>.


def basis_rows(d, theta):
    """Measurement rows and the input states embedded beside the ancilla."""
    basis = states.build_basis(d, theta)
    return np.asarray(basis.vectors), states.embedded_vectors(basis.family)


def test_complements_d3_closed_form_direction():
    theta = math.radians(33.0)
    vectors, embedded = basis_rows(3, theta)
    reference = np.array(
        [math.sqrt(3) * math.cos(theta) * math.sin(theta), 0.0, math.sqrt(3) / 2 * math.sin(theta) ** 2]
    )
    got = vectors[0, :3] / np.linalg.norm(vectors[0, :3])
    assert np.allclose(got, reference / np.linalg.norm(reference), atol=1e-12)
    assert vectors[0] @ embedded[0] > 0.0


def test_complements_d2_perpendicular():
    vectors, embedded = basis_rows(2, math.radians(45.0))
    assert abs(vectors[0] @ embedded[1]) < 1e-14
    assert vectors[0] @ embedded[0] > 0.0


def test_complements_d4_orthogonality():
    vectors, embedded = basis_rows(4, math.radians(30.0))
    for i in range(4):
        for j in range(4):
            inner = vectors[i] @ embedded[j]
            if i == j:
                assert inner > 0.0
            else:
                assert abs(inner) < 1e-12


@pytest.mark.parametrize("d", [2, 5, 9, 14])
def test_complements_mutual_overlaps_equal_and_nonpositive(d):
    vectors, _ = basis_rows(d, 0.6 * theory.theta_max(d))
    comp = vectors[:d, :d]
    gram = comp @ comp.T
    off = gram[~np.eye(d, dtype=bool)]
    assert np.max(np.abs(off - off[0])) < 1e-10
    assert np.all(off <= 1e-12)
    # one shared ancilla weight cancels those equal overlaps
    ancilla = vectors[:d, d]
    assert np.max(np.abs(ancilla - ancilla[0])) < 1e-15
    assert ancilla[0] >= 0.0
    assert abs(off[0] + ancilla[0] ** 2) < 1e-15


def test_complements_reject_degenerate_theta():
    with pytest.raises(DegenerateFamilyError):
        states.build_basis(3, 0.0)
    with pytest.raises(DegenerateFamilyError):
        states.build_basis(3, 1e-10)


# ------------------------------------------------------------------- basis


@pytest.mark.parametrize("deg", [15.0, 33.0, 45.0])
def test_basis_matches_closed_form_d3(deg):
    theta = math.radians(deg)
    basis = states.build_basis(3, theta)
    reference = closed_form_basis_d3(theta)
    for row, ref in zip(np.asarray(basis.vectors), reference):
        diff = min(np.max(np.abs(row - ref)), np.max(np.abs(row + ref)))
        assert diff < 1e-12


def test_basis_at_theta_max_has_no_ancilla_weight():
    for d in (2, 3, 5, 14, 100):
        vectors, embedded = basis_rows(d, theory.theta_max(d))
        assert np.all(vectors[:d, d] == 0.0)
        assert np.array_equal(vectors[d], np.eye(d + 1)[d])
        p_inc = (embedded @ vectors[d]) ** 2
        assert np.max(p_inc) < 1e-20


@pytest.mark.parametrize("d", [2, 3, 5])
def test_basis_stays_orthonormal_just_below_theta_max(d):
    # the ancilla clamp acts in a window about 1e-13 rad wide below theta_max;
    # the random draws of the whole-domain test do not land in it
    tmax = theory.theta_max(d)
    for k in range(200):
        vectors, _ = basis_rows(d, tmax - k * 1e-15)
        assert np.max(np.abs(vectors @ vectors.T - np.eye(d + 1))) < 1e-14


@pytest.mark.parametrize("d, deg", [(2, 20.0), (3, 33.0), (6, 40.0), (14, 10.0), (40, 60.0)])
def test_inconclusive_row_lies_in_lift_and_ancilla_plane(d, deg):
    vectors, _ = basis_rows(d, math.radians(deg))
    assert np.all(vectors[d, : d - 1] == 0.0)


def test_basis_gram_identity_d6():
    basis = states.build_basis(6, math.radians(40.0))
    gram = np.asarray(basis.vectors) @ np.asarray(basis.vectors).T
    assert np.max(np.abs(gram - np.eye(7))) < 1e-10


def test_basis_sign_conventions():
    basis = states.build_basis(4, 0.5)
    vectors = np.asarray(basis.vectors)
    assert np.all(vectors[:4, 4] > 0.0)
    assert vectors[4, 4] > 0.0


@st.composite
def dim_and_theta(draw):
    """A dimension in [2, 100] and an angle in [MIN_THETA, theta_max(d)].

    Half the angles are drawn on a log scale so that tiny angles are common.
    """
    d = draw(st.integers(min_value=2, max_value=100))
    tmax = theory.theta_max(d)
    theta = draw(
        st.floats(min_value=states.MIN_THETA, max_value=tmax)
        | st.floats(min_value=math.log(states.MIN_THETA), max_value=math.log(tmax)).map(
            lambda x: min(max(math.exp(x), states.MIN_THETA), tmax)
        )
    )
    return d, theta


@settings(max_examples=150, deadline=None)
@given(dim_and_theta())
def test_invariants_hold_over_whole_domain(point):
    d, theta = point
    basis = states.build_basis(d, theta)
    vectors = np.asarray(basis.vectors)
    assert np.max(np.abs(vectors @ vectors.T - np.eye(d + 1))) < 1e-14
    assert basis.completeness_residual() < 1e-10
    probs = (states.embedded_vectors(basis.family) @ vectors.T) ** 2
    assert np.max(probs[:, :d][~np.eye(d, dtype=bool)]) < 1e-20
    p_suc, p_inc = theory.usd_probabilities(d, theta)
    assert np.max(np.abs(np.diag(probs[:, :d]) - p_suc)) < 1e-12
    assert np.max(np.abs(probs[:, d] - p_inc)) < 1e-12


def reference_basis(family):
    """Dual rows by a linear solve, lifted by the ancilla, completed by SVD."""
    psi = np.asarray(family.vectors)
    d = family.dim
    dual = np.linalg.solve(psi, np.eye(d)).T  # dual[i] @ psi[j] == delta_ij
    ancilla = math.sqrt(-(dual[0] @ dual[1]))
    lifted = np.hstack([dual, np.full((d, 1), ancilla)])
    lifted /= np.linalg.norm(lifted, axis=1)[:, None]
    null = np.linalg.svd(lifted)[2][-1]
    return np.vstack([lifted, null])


# the fractions stay off both ends of the domain, where the reference itself
# loses digits: its linear solve near theta = 0 and the sqrt of a cancelling
# overlap near theta_max
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 14, 40, 100]), st.floats(min_value=0.05, max_value=0.95))
def test_basis_matches_independent_reference(d, fraction):
    theta = fraction * theory.theta_max(d)
    basis = states.build_basis(d, theta)
    reference = reference_basis(basis.family)
    for row, ref in zip(np.asarray(basis.vectors), reference):
        assert min(np.max(np.abs(row - ref)), np.max(np.abs(row + ref))) < 1e-12


@pytest.mark.parametrize("d", CHECK_DIMS)
def test_grid_invariants(d):
    tmax = theory.theta_max(d)
    for k in range(1, 13):
        theta = k * tmax / 12
        basis = states.build_basis(d, theta)
        assert basis.completeness_residual() < 1e-10
        embedded = states.embedded_vectors(basis.family)
        amplitudes = embedded @ np.asarray(basis.vectors).T
        probs = amplitudes**2
        off = probs[:, :d][~np.eye(d, dtype=bool)]
        assert np.max(off) < 1e-20
        closure = np.abs(np.diag(probs[:, :d]) + probs[:, d] - 1.0)
        assert np.max(closure) < 1e-12
        diag = np.diag(probs[:, :d])
        assert np.max(diag) - np.min(diag) < 1e-12
        p_suc, p_inc = theory.usd_probabilities(d, theta)
        assert np.max(np.abs(diag - p_suc)) < 1e-12
        assert np.max(np.abs(probs[:, d] - p_inc)) < 1e-12


# ----------------------------------------------------------------- OAM map


@pytest.mark.parametrize(
    "d,state_ells,ancilla",
    [
        (2, (0, 1), -1),
        (3, (-1, 0, 1), -2),
        (4, (-1, 0, 1, 2), -2),
        (5, (-2, -1, 0, 1, 2), -3),
    ],
)
def test_oam_map_published_rows(d, state_ells, ancilla):
    mapping = states.oam_map(d)
    assert mapping.state_ells == state_ells
    assert mapping.ancilla_ell == ancilla


@pytest.mark.parametrize("d", CHECK_DIMS)
def test_oam_map_minimality(d):
    mapping = states.oam_map(d)
    labels = set(mapping.state_ells) | {mapping.ancilla_ell}
    assert len(labels) == d + 1
    assert max(abs(ell) for ell in mapping.state_ells) == d // 2
    assert abs(mapping.ancilla_ell) == (d + 1) // 2
    assert mapping.ancilla_ell not in mapping.state_ells


# ----------------------------------------------------------- serialization


def test_family_json_round_trip():
    family = states.build_state_family(6, math.radians(40.0))
    back = json.loads(states.to_json(family))
    assert back["dim"] == family.dim
    assert back["theta_rad"] == family.theta
    assert np.array_equal(np.array(back["vectors"]), np.asarray(family.vectors))


def test_basis_json_round_trip_is_exact():
    basis = states.build_basis(5, 0.7)
    back = json.loads(states.to_json(basis))
    assert (back["dim"], back["theta_rad"]) == (5, basis.family.theta)
    assert np.array_equal(np.array(back["vectors"]), np.asarray(basis.vectors))


def test_json_prints_17_significant_digits():
    family = states.build_state_family(2, math.radians(30.0))
    text = states.to_json(family)
    assert "0.49999999999999994" in text  # sin(30deg) in doubles, all 17 digits


def test_oam_map_json_round_trip():
    mapping = states.oam_map(7)
    assert json.loads(states.oam_map_to_json(mapping)) == {
        "dim": 7,
        "state_ells": list(mapping.state_ells),
        "ancilla_ell": mapping.ancilla_ell,
    }
