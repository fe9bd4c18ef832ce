"""Construction of the symmetric input states and their discrimination basis.

``build_basis(d, theta)`` is the one construction call; it runs family ->
basis.  d maximally-separated unit vectors |p_i> in d-1 dimensions are lifted
by an angle theta onto a common axis |e> to form the input states
|Psi_i> = sin(theta) |p_i> + cos(theta) |e> (``build_state_family``).  The
measurement basis then follows in closed form and holds that family, the one
owner of (d, theta).  Its derivation: the complement states |Psi-perp_i>,
orthogonal to every |Psi_j> with j != i, are
(d-1) cos(theta) |p_i> + sin(theta) |e> (Chefles and Barnett, "Optimum
unambiguous discrimination between linearly independent symmetric states",
Phys. Lett. A 250, 223 (1998)).  Appending one ancilla component
sqrt(-<Psi-perp_1|Psi-perp_2>) and normalizing produces d orthonormal
measurement states |D_i>, completed by the inconclusive state |D_{d+1}>,
which is the unit vector orthogonal to all of them.

theta may be one angle or a 1-D sequence of P angles at one d, which stacks
the family (P, d, d) and basis (P, d+1, d+1) along a leading axis; every check
covers the whole stack and residuals are maxima over it.  There is one path:
each angle is checked once, and its sin, cos and tan come from one ``math``
pass shared by family and basis, so slice k of a stack is the one-angle build.

Measuring |D_i> identifies |Psi_i> with certainty; |D_{d+1}> gives no
information.  Basis indices map to orbital-angular-momentum mode labels
through ``oam_map``.

All construction functions are pure and the returned objects hold read-only
arrays, so they are safe to share across concurrent readers.  The projected
simplex depends only on d, so ``build_projected_vectors`` memoizes it per
dimension and every build at that d shares the one read-only array.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import theory
from .errors import DegenerateFamilyError, DomainError, InvalidDimensionError

# Every validating check below is written so that NaN fails it.

#: Tolerance for orthogonality / completeness checks.
ORTHO_TOL = 1e-10
#: Tolerance for closed-form comparisons and unit norms.
EXACT_TOL = 1e-12
#: Angles closer to zero than this leave the family numerically collinear.
MIN_THETA = 1e-9


def _freeze(vectors) -> np.ndarray:
    arr = np.array(vectors, dtype=float)
    arr.setflags(write=False)
    return arr


def _check_one_angle(family: StateFamily, what: str) -> None:
    if np.ndim(family.theta):
        raise DomainError(f"{what} takes one angle, got a stack of {np.size(family.theta)}")


@dataclass(frozen=True)
class StateFamily:
    """The d symmetric input states (rows) in the computational/OAM basis, or a stack of them."""

    dim: int
    theta: float | np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", _freeze(self.vectors))
        d, v = self.dim, self.vectors
        shape = np.shape(self.theta) + (d, d)
        if v.shape != shape:
            raise InvalidDimensionError(f"expected {shape} vectors, got {v.shape}")
        cos = np.cos(self.theta)[..., None]
        norms = np.sqrt((v * v).sum(axis=-1))
        if not np.abs(norms - 1.0).max() <= EXACT_TOL:
            raise DegenerateFamilyError("state vectors must have unit norm")
        if not np.abs(v[..., -1] - cos).max() <= EXACT_TOL:
            raise DegenerateFamilyError("last component of every state must equal cos(theta)")
        gram = v @ np.swapaxes(v, -1, -2)
        target = (d * cos**2 - 1.0) / (d - 1.0)
        off = gram[..., ~np.eye(d, dtype=bool)]
        if not np.abs(off - target).max() <= EXACT_TOL:
            raise DegenerateFamilyError("pairwise overlaps must all equal the symmetric value")


@dataclass(frozen=True)
class DiscriminationBasis:
    """Orthonormal (d+1)-dimensional measurement basis of ``family``; last row is inconclusive."""

    family: StateFamily
    vectors: np.ndarray
    #: max elementwise deviation of the Gram matrices from the identity, set by the validation
    orthonormality_residual: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vectors", _freeze(self.vectors))
        d, v = self.family.dim, self.vectors
        shape = np.shape(self.family.theta) + (d + 1, d + 1)
        if v.shape != shape:
            raise InvalidDimensionError(f"expected {shape} vectors, got {v.shape}")
        residual = float(np.abs(v @ np.swapaxes(v, -1, -2) - np.eye(d + 1)).max())
        if not residual <= ORTHO_TOL:
            raise DegenerateFamilyError("measurement states must be orthonormal")
        object.__setattr__(self, "orthonormality_residual", residual)

    def completeness_residual(self) -> float:
        """Max elementwise deviation of sum_j |D_j><D_j| from the identity, over the stack."""
        resolution = np.swapaxes(self.vectors, -1, -2) @ self.vectors
        return float(np.abs(resolution - np.eye(self.vectors.shape[-1])).max())


@dataclass(frozen=True)
class OamMap:
    """OAM mode labels for the d basis states plus the ancilla dimension."""

    dim: int
    state_ells: tuple[int, ...]
    ancilla_ell: int

    def __post_init__(self):
        labels = set(self.state_ells) | {self.ancilla_ell}
        if len(labels) != self.dim + 1:
            raise InvalidDimensionError("OAM labels must be distinct")


def build_projected_vectors(d: int) -> np.ndarray:
    """The d maximally-separated unit vectors in d-1 dimensions (read-only).

    Pairwise overlaps all equal -1/(d-1).  Vector k is zero beyond column k,
    its diagonal entry follows from normalization, and every later vector
    shares its leading k entries h, so the overlap condition with vector k
    gives all of column k below the diagonal as one value (-1/(d-1) - h.h)/v_kk.
    The array is memoized per dimension and shared by every caller.
    """
    return _simplex(theory._check_dim(d))


# keyed on the validated int; a sweep or check visits dimensions in turn
@functools.lru_cache(maxsize=16)
def _simplex(d: int) -> np.ndarray:
    target = -1.0 / (d - 1.0)
    v = np.zeros((d, d - 1))
    for k in range(d - 1):
        h = v[k, :k]
        v[k, k] = math.sqrt(1.0 - h @ h)
        v[k + 1 :, k] = (target - h @ h) / v[k, k]
    v.setflags(write=False)
    return v


def _lift(d: int, theta) -> tuple[StateFamily, np.ndarray]:
    """The family of (d, theta) and tan of its angles, from one ``math`` pass per checked angle."""
    if np.ndim(theta) > 1 or np.size(theta) == 0:
        raise DomainError(f"theta must be one angle or a nonempty 1-D sequence, got {theta!r}")
    tmax = theory.theta_max(d)  # checks d
    checked = [theory._check_theta(d, th, tmax) for th in np.ravel(theta).tolist()]
    trig = np.array([(math.sin(th), math.cos(th), math.tan(th)) for th in checked])
    sin, cos, tan = trig.T.reshape((3,) + np.shape(theta))
    d, theta = int(d), _freeze(checked) if np.ndim(theta) else checked[0]
    vectors = np.zeros(np.shape(theta) + (d, d))
    vectors[..., : d - 1] = sin[..., None, None] * _simplex(d)
    vectors[..., d - 1] = cos[..., None]
    return StateFamily(dim=d, theta=theta, vectors=vectors), tan


def build_state_family(d: int, theta) -> StateFamily:
    """Lift the projected vectors by theta (one angle or a 1-D sequence) onto the last axis.

    Row i is sin(theta) |Psi'_i> + cos(theta) |d>, so every state carries the
    same cos(theta) component along the lift axis and the pairwise overlap is
    (d cos^2(theta) - 1)/(d - 1).
    """
    return _lift(d, theta)[0]


def build_basis(d: int, theta) -> DiscriminationBasis:
    """The input states of (d, theta) and their measurement basis, in closed form.

    theta is one angle or a 1-D sequence of angles (see the module docstring).
    The family is ``build_state_family``'s, lifted from the same scalar pass;
    the rows are built on the same memoized simplex |p_i>.  With
    t = tan(theta) and a = sqrt(d - 1 - t^2), row i is
    sqrt((d-1)/d) |p_i> + (t |e> + a |d+1>) / sqrt(d (d-1)) and the
    inconclusive row is (-a |e> + t |d+1>) / sqrt(d-1): the normalized
    complements lifted by the ancilla, and the unit vector orthogonal to them.
    Within float roundoff of theta_max, where the states are orthogonal and
    need no ancilla, a is clamped to an exact zero and t to its limit
    sqrt(d - 1) together, so the rows stay orthogonal.  Every row is
    renormalized, which keeps the simplex's roundoff out of the
    orthonormality residual at large d.
    """
    family, t = _lift(d, theta)
    d = family.dim
    low = float(np.min(family.theta))
    if low < MIN_THETA:
        raise DegenerateFamilyError(
            f"theta={low!r} leaves all states coincident; no measurement basis exists"
        )
    slack = d - 1.0 - t * t
    clamped = slack <= 1e-13 * (d - 1.0)
    t, a = np.where(clamped, math.sqrt(d - 1.0), t), np.sqrt(np.where(clamped, 0.0, slack))
    scale = math.sqrt(d * (d - 1.0))
    vectors = np.zeros(np.shape(family.theta) + (d + 1, d + 1))
    vectors[..., :d, : d - 1] = math.sqrt((d - 1.0) / d) * _simplex(d)
    vectors[..., :d, d - 1], vectors[..., :d, d] = (t / scale)[..., None], (a / scale)[..., None]
    vectors[..., d, d - 1], vectors[..., d, d] = -a, t
    vectors /= np.sqrt((vectors * vectors).sum(axis=-1))[..., None]
    return DiscriminationBasis(family=family, vectors=vectors)


def embedded_vectors(family: StateFamily) -> np.ndarray:
    """The input states embedded in d+1 dimensions with zero ancilla component."""
    d = family.dim
    embedded = np.zeros(np.shape(family.theta) + (d, d + 1))
    embedded[..., :d] = family.vectors
    return embedded


def oam_map(d: int) -> OamMap:
    """OAM labels closest to zero for the d states plus one ancilla label.

    State labels break |l| ties toward positive l (d=2 uses {0, 1}); the
    ancilla label breaks ties toward negative l (d=3 ancilla is -2, d=5 is
    -3), matching the published table in both conventions.
    """
    d = theory._check_dim(d)
    pool = range(-(d + 2), d + 3)
    by_state = sorted(pool, key=lambda ell: (abs(ell), 0 if ell > 0 else 1))
    states = tuple(sorted(by_state[:d]))
    by_ancilla = sorted(
        (ell for ell in pool if ell not in states),
        key=lambda ell: (abs(ell), 0 if ell < 0 else 1),
    )
    return OamMap(dim=d, state_ells=states, ancilla_ell=by_ancilla[0])


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def to_json(obj: StateFamily | DiscriminationBasis) -> str:
    """Serialize a vector set to JSON with 17-significant-digit amplitudes.

    A basis's dim and theta header is that of its family.
    """
    family = obj if isinstance(obj, StateFamily) else obj.family
    _check_one_angle(family, "to_json")
    rows = ",\n    ".join(
        "[" + ", ".join(_fmt(x) for x in row) + "]" for row in np.asarray(obj.vectors)
    )
    return (
        "{\n"
        f'  "dim": {family.dim},\n'
        f'  "theta_rad": {_fmt(family.theta)},\n'
        f'  "vectors": [\n    {rows}\n  ]\n'
        "}"
    )


def oam_map_to_json(mapping: OamMap) -> str:
    return json.dumps(asdict(mapping), indent=2)  # fields in order; tuples become lists
