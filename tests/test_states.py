"""Construction of the symmetric states and their closed-form measurement basis."""

import json
import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usdkit import cli, states, theory
from usdkit.errors import DegenerateFamilyError, DomainError, InvalidDimensionError

CHECK_DIMS = list(range(2, 15))


def embed(family):
    """The input states beside a zero ancilla component: (..., d, d+1)."""
    v = np.asarray(family.vectors)
    return np.pad(v, [(0, 0)] * (v.ndim - 1) + [(0, 1)])


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
    assert np.allclose(states.frame(2).simplex, [[1.0], [-1.0]], atol=1e-15)


def test_projected_vectors_d3_trine():
    expected = [[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]]
    assert np.allclose(states.frame(3).simplex, expected, atol=1e-15)


def test_projected_vectors_d5_gram():
    v = states.frame(5).simplex
    gram = v @ v.T
    off = gram[~np.eye(5, dtype=bool)]
    assert np.max(np.abs(np.diag(gram) - 1.0)) < 1e-12
    assert np.max(np.abs(off + 0.25)) < 1e-12


@pytest.mark.parametrize("d", CHECK_DIMS)
def test_projected_vectors_structure(d):
    v = states.frame(d).simplex
    assert v.shape == (d, d - 1)
    assert np.allclose(v[0], np.eye(d - 1)[0], atol=1e-15)
    gram = v @ v.T
    off = gram[~np.eye(d, dtype=bool)]
    assert np.max(np.abs(off + 1.0 / (d - 1))) < 1e-12


def projected_vectors_reference(d):
    """Entry by entry from the scaled Helmert columns, one scalar formula per entry."""
    s = math.sqrt(d / (d - 1.0))
    v = np.zeros((d, d - 1))
    for k in range(d - 1):
        m = d - k
        v[k, k] = s * math.sqrt((m - 1.0) / m)
        for i in range(k + 1, d):
            v[i, k] = -s / math.sqrt(m * (m - 1.0))
    return v


def projected_vectors_recurrence(d):
    """Column by column from the overlap conditions, each solved on its own."""
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
    for d in [*range(2, 41), 64, 100]:
        v = states.frame(d).simplex
        # same arithmetic per entry, so the bytes must agree, not just the values
        assert v.tobytes() == projected_vectors_reference(d).tobytes()
        # the same simplex, orientation included, as the overlap conditions give
        assert np.max(np.abs(v - projected_vectors_recurrence(d))) < 1e-14


def test_projected_vectors_invalid_dimension():
    with pytest.raises(InvalidDimensionError):
        states.frame(1)


@pytest.mark.parametrize("build", [theory.theta_max, states.frame, states.oam_map])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None, "3", 2.5, 3 + 0j])
def test_non_integer_dimension_is_invalid(build, bad):
    with pytest.raises(InvalidDimensionError):
        build(bad)


def test_integral_float_dimension_builds_as_its_int():
    basis = states.build_basis(3.0, 0.5)
    assert type(basis.family.dim) is int
    assert np.array_equal(basis.vectors, states.build_basis(3, 0.5).vectors)


def test_projected_vectors_memoized_read_only():
    v = states.frame(5).simplex
    # an unhashable d reaches the memo only as its validated int
    assert states.frame(np.array(5)).simplex is v
    with pytest.raises(ValueError):
        v[1, 0] = 0.0
    assert states.frame(5).simplex[1, 0] == -0.25


@pytest.mark.parametrize("d", [2, 3, 14])
def test_frame_is_one_read_only_memo_per_dimension(d):
    frame = states.frame(d)
    assert states.frame(float(d)) is frame and states.frame(np.array(d)) is frame
    assert frame.nbytes == frame.simplex.nbytes + frame.off.nbytes + frame.eye.nbytes
    assert frame.tmax == theory.theta_max(d)
    assert np.array_equal(frame.off, ~np.eye(d, dtype=bool))
    assert np.array_equal(frame.eye, np.eye(d + 1))
    for arr in (frame.simplex, frame.off, frame.eye):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = arr[0, 0]


def test_frame_memo_stays_within_its_byte_budget_and_keeps_the_newest(monkeypatch):
    monkeypatch.setattr(states, "_frames", {})
    small = [states.frame(d) for d in CHECK_DIMS]  # about 2 KB each at most: all are kept
    assert all(states.frame(d) is f for d, f in zip(CHECK_DIMS, small))
    for d in (600, 601, 602):  # about 3.6 MB each: the budget holds one of them
        newest = states.frame(d)
        assert sum(f.nbytes for f in states._frames.values()) <= states.FRAME_BUDGET
        assert states._frames[d] is newest and states.frame(d) is newest
    big = states.frame(1000)  # about 10 MB, past the budget alone: kept for the reads that follow
    assert big.nbytes > states.FRAME_BUDGET
    assert list(states._frames) == [1000] and states.frame(1000) is big


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=700), min_size=1, max_size=8))
def test_frame_memo_bytes_stay_bounded_after_any_sequence(dims):
    for d in dims:
        newest = states.frame(d)
        held = list(states._frames.values())
        assert sum(f.nbytes for f in held) <= states.FRAME_BUDGET or held == [newest]
        assert states._frames[d] is newest


def test_frame_memo_serves_concurrent_readers(monkeypatch):
    monkeypatch.setattr(states, "_frames", {})
    dims = [*range(2, 15), *range(300, 306)]  # about 0.9 MB apiece: misses cross the budget often
    failures = []

    def reader(seed):
        try:
            for d in random.Random(seed).choices(dims, k=200):
                f = states.frame(d)
                assert f.simplex.shape == (d, d - 1) and f.tmax == theory.theta_max(d)
        except Exception as exc:  # the main thread reports it
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


# ------------------------------------------------------------------ family


def test_family_d3_first_state():
    theta = math.radians(33.0)
    family = states.build_basis(3, theta).family
    expected = [math.sin(theta), 0.0, math.cos(theta)]
    assert np.allclose(family.vectors[0], expected, atol=1e-15)


def test_family_theta_zero_collapses():
    # at theta = 0 every state is |e>; the family validates, though no basis exists for it
    family = states.StateFamily(dim=5, theta=0.0, vectors=np.tile([0.0, 0, 0, 0, 1], (5, 1)))
    for row in family.vectors:
        assert np.allclose(row, [0, 0, 0, 0, 1], atol=1e-15)


def test_family_overlap_frozen_value():
    family = states.build_basis(6, math.radians(40.0)).family
    gram = family.vectors @ family.vectors.T
    off = gram[~np.eye(6, dtype=bool)]
    assert np.max(np.abs(off - 0.5041889066001582)) < 1e-12


def test_family_admits_theta_max_exactly():
    family = states.build_basis(7, theory.theta_max(7)).family
    gram = family.vectors @ family.vectors.T
    assert np.max(np.abs(gram - np.eye(7))) < 1e-12


def test_family_rejects_theta_outside_interval():
    with pytest.raises(DomainError) as err:
        states.build_basis(3, theory.theta_max(3) + 1e-6).family
    assert "[0," in str(err.value)
    with pytest.raises(DomainError):
        states.build_basis(3, -0.2).family


def test_family_validation_catches_bad_vectors():
    good = states.build_basis(3, 0.5).family
    with pytest.raises(DegenerateFamilyError):
        states.StateFamily(dim=3, theta=0.5, vectors=np.asarray(good.vectors) * 1.001)


# ------------------------------------------------------------- complements
# The first d entries of measurement row i are the normalized complement
# |Psi-perp_i>: orthogonal to every |Psi_j>, j != i, with positive overlap
# on |Psi_i>.


def basis_rows(d, theta):
    """Measurement rows and the input states embedded beside the ancilla."""
    basis = states.build_basis(d, theta)
    return np.asarray(basis.vectors), embed(basis.family)


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
    thetas = [tmax - k * 1e-15 for k in range(200)]
    stack = states.build_basis(d, thetas)
    for k, theta in enumerate(thetas):
        vectors, _ = basis_rows(d, theta)
        assert np.max(np.abs(vectors @ vectors.T - np.eye(d + 1))) < 1e-14
        assert np.array_equal(stack.vectors[k], vectors)  # the stack takes the same clamp


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
def dim_and_theta(draw, max_angles=None, max_dim=100):
    """A dimension in [2, max_dim] and an angle in [MIN_THETA, theta_max(d)].

    Half the angles are drawn on a log scale so that tiny angles are common.
    With ``max_angles``, a list of 1 to max_angles such angles at that d.
    """
    d = draw(st.integers(min_value=2, max_value=max_dim))
    tmax = theory.theta_max(d)
    angle = st.floats(min_value=states.MIN_THETA, max_value=tmax) | st.floats(
        min_value=math.log(states.MIN_THETA), max_value=math.log(tmax)
    ).map(lambda x: min(max(math.exp(x), states.MIN_THETA), tmax))
    if max_angles is None:
        return d, draw(angle)
    return d, draw(st.lists(angle, min_size=1, max_size=max_angles))


@settings(max_examples=150, deadline=None)
@given(dim_and_theta(max_dim=300))
def test_invariants_hold_over_whole_domain(point):
    d, theta = point
    basis = states.build_basis(d, theta)
    vectors = np.asarray(basis.vectors)
    assert np.max(np.abs(vectors @ vectors.T - np.eye(d + 1))) < 1e-14
    assert states.residuals(basis)["completeness"] < 1e-10
    probs = (embed(basis.family) @ vectors.T) ** 2
    assert np.max(probs[:, :d][~np.eye(d, dtype=bool)]) < 1e-20
    p_suc, p_inc = theory.usd_probabilities(d, theta)
    assert np.max(np.abs(np.diag(probs[:, :d]) - p_suc)) < 1e-12
    assert np.max(np.abs(probs[:, d] - p_inc)) < 1e-12


# --------------------------------------------------------- stacked angles


@settings(max_examples=100, deadline=None)
@given(dim_and_theta(max_angles=6))
def test_stacked_build_is_each_angle_build_exactly(point):
    d, thetas = point
    stack = states.build_basis(d, thetas)
    singles = [states.build_basis(d, theta) for theta in thetas]
    assert stack.family.vectors.shape == (len(thetas), d, d)
    assert stack.vectors.shape == (len(thetas), d + 1, d + 1)
    for k, single in enumerate(singles):
        assert stack.family.theta[k] == single.family.theta
        assert np.array_equal(stack.family.vectors[k], single.family.vectors)
        assert np.array_equal(stack.vectors[k], single.vectors)
    assert stack.orthonormality_residual == max(b.orthonormality_residual for b in singles)
    assert states.residuals(stack)["completeness"] == max(
        states.residuals(b)["completeness"] for b in singles
    )
    stacked, each = states.residuals(stack), [states.residuals(b) for b in singles]
    assert stacked == {key: max(r[key] for r in each) for key in stacked}


def _corrupt_norm(v):
    v *= 1.001


def _corrupt_lift(v):
    v[:, -1] *= -1.0  # unit norms kept, cos(theta) component flipped


def _corrupt_overlap(v):
    v[0] = v[1]  # unit norms and lift kept, one overlap becomes 1


@pytest.mark.parametrize(
    "corrupt, message",
    [(_corrupt_norm, "unit norm"), (_corrupt_lift, "cos"), (_corrupt_overlap, "overlaps")],
)
def test_family_validation_covers_the_last_slice(corrupt, message):
    good = states.build_basis(4, [0.3, 0.5, 0.7]).family
    vectors = np.array(good.vectors)
    corrupt(vectors[-1])
    with pytest.raises(DegenerateFamilyError, match=message):
        states.StateFamily(dim=4, theta=good.theta, vectors=vectors)
    with pytest.raises(InvalidDimensionError):
        states.StateFamily(dim=4, theta=good.theta, vectors=good.vectors[:-1])


@pytest.mark.parametrize("corrupt", [_corrupt_norm, _corrupt_overlap])
def test_basis_validation_covers_the_last_slice(corrupt):
    good = states.build_basis(4, [0.3, 0.5, 0.7])
    vectors = np.array(good.vectors)
    corrupt(vectors[-1])
    with pytest.raises(DegenerateFamilyError):
        states.DiscriminationBasis(family=good.family, vectors=vectors)
    with pytest.raises(InvalidDimensionError):
        states.DiscriminationBasis(family=good.family, vectors=good.vectors[:-1])


def test_stacked_build_rejects_its_last_angle():
    with pytest.raises(DomainError):
        states.build_basis(4, [0.3, 0.5, theory.theta_max(4) + 1e-6])
    with pytest.raises(DegenerateFamilyError) as err:
        states.build_basis(4, [0.3, 0.5, 1e-10])
    assert "theta=1e-10 " in str(err.value)


@pytest.mark.parametrize(
    "theta", [[], [[0.3, 0.5]], np.zeros((2, 1)), (), np.zeros(0), ((0.3,),), np.zeros((1, 0))]
)
def test_theta_must_be_one_angle_or_a_nonempty_list(theta):
    with pytest.raises(DomainError, match="^theta must be one angle or a nonempty 1-D sequence"):
        states.build_basis(4, theta)


@pytest.mark.parametrize(
    "theta", [0.5, np.float64(0.5), np.array(0.5), [0.3, 0.5], (0.3, 0.5), np.array([0.3, 0.5])]
)
def test_every_form_of_theta_builds_the_same_bits(theta):
    basis, single = states.build_basis(4, theta), states.build_basis(4, 0.5)
    stacked = np.ndim(theta) == 1
    assert type(basis.family.theta) is (np.ndarray if stacked else float)
    assert np.ravel(basis.family.theta).tolist()[-1] == 0.5
    for built, one in ((basis, single), (basis.family, single.family)):
        last = built.vectors[-1] if stacked else built.vectors
        assert last.tobytes() == one.vectors.tobytes()


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


@settings(max_examples=150, deadline=None)
@given(dim_and_theta(max_dim=60))
def test_lifted_basis_realizes_the_optimal_usd_povm(point):
    # an oracle that shares no algebra with build_basis: from the family matrix alone, the
    # reciprocal states |R_i> (<R_i|Psi_j> = delta_ij) give the optimal USD POVM
    # E_i = (1 - s)|R_i><R_i|, E_0 = I - sum_i E_i (Chefles and Barnett 1998)
    d, theta = point
    basis = states.build_basis(d, theta)
    psi = np.asarray(basis.family.vectors)
    gram = psi @ psi.T
    reciprocal = np.linalg.solve(psi, np.eye(d)).T
    povm = (1.0 - gram[0, 1]) * reciprocal[:, :, None] * reciprocal[:, None, :]
    system = np.asarray(basis.vectors)[:, :d]  # P_sys |D_i>
    blocks = system[:, :, None] * system[:, None, :]
    tol = 100 * np.finfo(float).eps * np.linalg.cond(gram)
    assert np.abs(blocks[:d] - povm).max() <= tol
    assert np.abs(blocks[d] - (np.eye(d) - povm.sum(axis=0))).max() <= tol


@pytest.mark.parametrize("d", CHECK_DIMS)
def test_grid_invariants(d):
    tmax = theory.theta_max(d)
    for k in range(1, 13):
        theta = k * tmax / 12
        basis = states.build_basis(d, theta)
        assert states.residuals(basis)["completeness"] < 1e-10
        embedded = embed(basis.family)
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


@pytest.mark.parametrize("d", [500, 1000])
def test_large_dimension_keeps_closure_and_theory_match_at_roundoff(d):
    # the simplex's entries are closed forms, so its roundoff does not grow with d
    tmax = theory.theta_max(d)
    residuals = states.residuals(states.build_basis(d, [tmax / 2, tmax]))
    assert residuals["closure"] <= 1e-14
    assert residuals["theory_match"] <= 1e-14
    assert residuals["zero_error"] < cli.CHECK_GATES["zero_error"]


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


@pytest.mark.parametrize("d", [*CHECK_DIMS, 15, 40, 101, 1000])
def test_oam_map_minimality(d):
    mapping = states.oam_map(d)
    labels = set(mapping.state_ells) | {mapping.ancilla_ell}
    assert len(labels) == d + 1
    assert max(abs(ell) for ell in mapping.state_ells) == d // 2
    # the d labels closest to zero: |l| runs 0, 1, 1, 2, 2, ...
    assert sorted(abs(ell) for ell in mapping.state_ells) == [(k + 1) // 2 for k in range(d)]
    lowest, highest = mapping.state_ells[0], mapping.state_ells[-1]
    assert list(mapping.state_ells) == list(range(lowest, highest + 1))  # contiguous
    assert abs(mapping.ancilla_ell) == (d + 1) // 2
    assert mapping.ancilla_ell not in mapping.state_ells


def test_oam_map_validates_a_directly_built_map():
    with pytest.raises(InvalidDimensionError, match="distinct"):
        states.OamMap(dim=2, state_ells=(0, 1), ancilla_ell=1)


# ----------------------------------------------------------- serialization


def test_family_json_round_trip():
    family = states.build_basis(6, math.radians(40.0)).family
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
    family = states.build_basis(2, math.radians(30.0)).family
    text = states.to_json(family)
    assert "0.49999999999999994" in text  # sin(30deg) in doubles, all 17 digits


@pytest.mark.parametrize("part", ["family", "basis"])
def test_json_rejects_a_stacked_object(part):
    basis = states.build_basis(4, [0.3, 0.5, 0.7])
    with pytest.raises(DomainError, match=r"^to_json takes one angle, got a stack of 3$"):
        states.to_json(basis.family if part == "family" else basis)


def test_oam_map_json_round_trip():
    mapping = states.oam_map(7)
    assert json.loads(states.oam_map_to_json(mapping)) == {
        "dim": 7,
        "state_ells": list(mapping.state_ells),
        "ancilla_ell": mapping.ancilla_ell,
    }
