"""Construction of the symmetric input states and their discrimination basis.

``build_basis(d, theta)`` is the one construction call; it runs family ->
basis.  d maximally-separated unit vectors |p_i> in d-1 dimensions (a simplex
whose columns are scaled Helmert columns, in closed form) are lifted by an
angle theta onto a common axis |e> to form the input states
|Psi_i> = sin(theta) |p_i> + cos(theta) |e>.  The measurement basis then
follows in closed form and holds that family, the one owner of (d, theta); a
family alone is ``build_basis(d, theta).family``.  Its derivation: the
complement states |Psi-perp_i>, orthogonal to every |Psi_j> with j != i, are
(d-1) cos(theta) |p_i> + sin(theta) |e> (Chefles and Barnett, "Optimum
unambiguous discrimination between linearly independent symmetric states",
Phys. Lett. A 250, 223 (1998)).  Appending one ancilla component
sqrt(-<Psi-perp_1|Psi-perp_2>) and normalizing produces d orthonormal
measurement states |D_i>, completed by the inconclusive state |D_{d+1}>,
which is the unit vector orthogonal to all of them.

theta may be one angle or a 1-D sequence of P angles at one d, which stacks
the family (P, d, d) and basis (P, d+1, d+1) along a leading axis; every check
covers the whole stack.  There is one path: one scalar ``math`` pass per angle
checks it and gives its sin, cos, tan and clamped (t, a) to family and basis,
so slice k of a stack is the one-angle build.

Measuring |D_i> identifies |Psi_i> with certainty (``ideal_detection_matrix``);
|D_{d+1}> gives no information.  ``residuals(basis)`` and ``GATES`` are the one
statement of what a valid build satisfies: each residual, a maximum over the
stack, stays below its gate.  Basis indices map to OAM mode labels through
``oam_map``, in closed form: the d labels closest to zero and an ancilla beside.

All construction functions are pure and the returned objects hold read-only
arrays, so they are safe to share across concurrent readers.  What depends
only on d (theta_max, the simplex, the off-diagonal mask and the identity) is
one read-only ``Frame``, and ``frame(d)`` is the only way to it: every build,
validation and check at that d reads the same arrays.  Its memo holds frames
within ``FRAME_BUDGET`` bytes and starts over when a new frame would pass it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import theory
from .errors import DegenerateFamilyError, DomainError, InvalidDimensionError, dimension, instance
from .errors import real, rows

# Every validating check below is written so that NaN fails it.

#: Tolerance for orthogonality / completeness checks.
ORTHO_TOL = 1e-10
#: Tolerance for closed-form comparisons and unit norms.
EXACT_TOL = 1e-12
#: Angles closer to zero than this leave the family numerically collinear.
MIN_THETA = 1e-9


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
        d, theta = dimension(self.dim), self.theta
        if not (isinstance(theta, np.ndarray) and theta.dtype.kind == "f"
                and np.isfinite(theta).all()):  # a finite float array needs no per-angle pass
            angles = np.asarray(theta, dtype=object)  # a ragged list is 1-D
            theta = np.reshape([real(t, DomainError, "theta") for t in angles.flat], angles.shape)
        (theta := np.array(theta, dtype=float)).setflags(write=False)
        v = rows(self.vectors, "vectors", theta.shape + (d, d))
        theta = theta if theta.ndim else float(theta)  # a stack stays a read-only copy
        for name, value in (("dim", d), ("theta", theta), ("vectors", v)):
            object.__setattr__(self, name, value)
        cos = np.cos(theta)[..., None]
        gram = v @ v.swapaxes(-1, -2)
        norms2 = gram.diagonal(axis1=-2, axis2=-1)  # |norm - 1| <= EXACT_TOL, squared
        if not ((1.0 - EXACT_TOL) ** 2 <= norms2.min() and norms2.max() <= (1.0 + EXACT_TOL) ** 2):
            raise DegenerateFamilyError("state vectors must have unit norm")
        if not np.abs(v[..., -1] - cos).max() <= EXACT_TOL:
            raise DegenerateFamilyError("last component of every state must equal cos(theta)")
        target = (d * cos**2 - 1.0) / (d - 1.0)
        if not np.abs(gram[..., frame(d).off] - target).max() <= EXACT_TOL:
            raise DegenerateFamilyError("pairwise overlaps must all equal the symmetric value")


@dataclass(frozen=True)
class DiscriminationBasis:
    """Orthonormal (d+1)-dimensional measurement basis of ``family``; last row is inconclusive.

    Its completeness is measured once, when it is built, and ``residuals`` reads it."""

    family: StateFamily
    vectors: np.ndarray
    #: max |V^T V - I|, set by the validation; for a square V, the same as orthonormal rows
    orthonormality_residual: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = instance(self.family, StateFamily, InvalidDimensionError, "family").dim
        v = rows(self.vectors, "vectors", np.shape(self.family.theta) + (d + 1, d + 1))
        object.__setattr__(self, "vectors", v)
        residual = float(np.abs(v.swapaxes(-1, -2) @ v - frame(d).eye).max())
        if not residual <= ORTHO_TOL:
            raise DegenerateFamilyError("measurement states must be orthonormal")
        object.__setattr__(self, "orthonormality_residual", residual)


@dataclass(frozen=True)
class OamMap:
    """The d OAM labels closest to zero for the states plus one ancilla label, derived from d.

    The state labels run from -((d-1)//2) to d//2, so an |l| tie goes to
    positive l (d=2 uses {0, 1}); the ancilla is the next label below them,
    -((d+1)//2), so its tie goes to negative l (d=3 ancilla is -2, d=5 is
    -3), matching the published table in both conventions.
    """

    dim: int
    state_ells: tuple[int, ...] = field(init=False)
    ancilla_ell: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", d := dimension(self.dim))
        object.__setattr__(self, "state_ells", tuple(range(-((d - 1) // 2), d // 2 + 1)))
        object.__setattr__(self, "ancilla_ell", -((d + 1) // 2))


@dataclass(frozen=True)
class Frame:
    """The read-only constants of dimension d that every build and check at d reads via frame."""

    tmax: float  #: theta_max(d)
    simplex: np.ndarray  #: (d, d-1) |p_i>, overlaps -1/(d-1): scaled Helmert columns, closed form
    off: np.ndarray  #: (d, d) bool mask of the off-diagonal entries
    eye: np.ndarray  #: (d+1, d+1) bool identity
    nbytes: int  #: bytes of the three arrays, what the frame costs the memo


#: Bytes of frames the memo may hold; about 2 KB at d = 14 and 10 MB at d = 1,000.
FRAME_BUDGET = 4 * 2**20
_frames: dict[int, Frame] = {}  # keyed on the validated int


def frame(d: int) -> Frame:
    """The frame of dimension d, checked and memoized; a sweep or check visits d in turn."""
    f = _frames.get(d) if type(d) is int else None  # only a checked d is a key: no check again
    if f is None and (f := _frames.get(d := dimension(d))) is None:
        f = _new_frame(d)  # one dict call per step: a race can only build twice or overshoot
        if sum(x.nbytes for x in list(_frames.values())) + f.nbytes > FRAME_BUDGET:
            _frames.clear()  # the newest stays, whatever its size
        _frames[d] = f
    return f


def _new_frame(d: int) -> Frame:
    if (d + 1) ** 2 * 8 > sys.maxsize:  # numpy could not even size a (d+1, d+1) float array
        raise MemoryError(f"d={d} needs arrays larger than any address space")
    rows, cols = np.arange(d)[:, None], np.arange(d - 1)
    m, s = d - cols, math.sqrt(d / (d - 1.0))  # column k spans the last m = d - k rows
    below, diag = -s / np.sqrt(m * (m - 1.0)), s * np.sqrt((m - 1.0) / m)
    v = np.where(rows > cols, below, 0.0)  # +0.0 above the diagonal
    np.fill_diagonal(v, diag)
    off, eye = ~np.eye(d, dtype=bool), np.eye(d + 1, dtype=bool)
    for arr in (v, off, eye):
        arr.setflags(write=False)
    return Frame(theory.theta_max(d), v, off, eye, v.nbytes + off.nbytes + eye.nbytes)


def build_basis(d: int, theta) -> DiscriminationBasis:
    """The input states of (d, theta) and their measurement basis, in closed form.

    theta is one angle or a 1-D sequence.  Family row i is
    sin(theta) |p_i> + cos(theta) |e> on the frame's simplex |p_i>, so the
    pairwise overlap is (d cos^2(theta) - 1)/(d - 1).  With t = tan(theta) and
    a = sqrt(d - 1 - t^2), basis row i is
    sqrt((d-1)/d) |p_i> + (t |e> + a |d+1>) / sqrt(d (d-1)) and the
    inconclusive row is (-a |e> + t |d+1>) / sqrt(d-1): the normalized
    complements lifted by the ancilla, and the unit vector orthogonal to them.
    Within float roundoff of theta_max, where the states are orthogonal and
    need no ancilla, a is clamped to an exact zero and t to its limit
    sqrt(d - 1) together, so the rows stay orthogonal; the checks, this clamp
    and sin, cos, tan are one scalar ``math`` pass per angle, and the first
    angle that fails ends the build.  Every row is renormalized, which keeps
    roundoff out of the orthonormality residual.
    """
    angles = np.asarray(theta, dtype=object)  # the one conversion of theta: a ragged list is 1-D
    if angles.ndim > 1 or angles.size == 0:
        raise DomainError(f"theta must be one angle or a nonempty 1-D sequence, got {theta!r}")
    f = frame(d := dimension(d))
    flat = []  # one scalar pass per angle: checked theta, sin, cos and the clamped t and a
    for th in angles.ravel().tolist():
        if (th := theory._check_theta(d, th, f.tmax)) < MIN_THETA:
            raise DegenerateFamilyError(f"theta={th!r} leaves all states coincident; "
                                        "no measurement basis exists")
        t = math.tan(th)
        if (slack := d - 1.0 - t * t) <= 1e-13 * (d - 1.0):
            t, slack = math.sqrt(d - 1.0), 0.0
        flat += th, math.sin(th), math.cos(th), t, math.sqrt(slack)
    theta, sin, cos, t, a = np.array(flat).reshape(-1, 5).T.reshape((5,) + angles.shape)
    lifted = np.zeros(angles.shape + (d, d))
    lifted[..., : d - 1] = sin[..., None, None] * f.simplex
    lifted[..., d - 1] = cos[..., None]
    family = StateFamily(dim=d, theta=theta, vectors=lifted)
    scale = math.sqrt(d * (d - 1.0))
    vectors = np.zeros(t.shape + (d + 1, d + 1))
    vectors[..., :d, : d - 1] = math.sqrt((d - 1.0) / d) * f.simplex
    vectors[..., :d, d - 1], vectors[..., :d, d] = (t / scale)[..., None], (a / scale)[..., None]
    vectors[..., d, d - 1], vectors[..., d, d] = -a, t
    vectors /= np.sqrt((vectors * vectors).sum(axis=-1))[..., None]
    return DiscriminationBasis(family=family, vectors=vectors)


def ideal_detection_matrix(basis: DiscriminationBasis) -> np.ndarray:
    """|<D_j|Psi_i>|^2 of the basis's own states, which lack the ancilla; rows sum to one."""
    instance(basis, DiscriminationBasis, InvalidDimensionError, "basis")
    return (basis.family.vectors @ basis.vectors[..., : basis.family.dim].swapaxes(-1, -2)) ** 2


#: The bound of each residual that ``check`` reports, one per key of ``residuals``.
GATES = {"completeness": ORTHO_TOL, "zero_error": 1e-20, "closure": EXACT_TOL,
         "theory_match": EXACT_TOL}


def residuals(basis: DiscriminationBasis) -> dict[str, float]:
    """What a valid build satisfies, as max absolute deviations over its angles.

    completeness: sum of the basis projectors from the identity, as measured
    when the basis was validated; zero_error: largest conclusive probability
    of a wrong outcome; closure: success plus inconclusive probability from
    one; theory_match: detection probabilities from the closed-form p_suc and
    p_inc, evaluated once for the whole stack.
    """
    detection, d, f = ideal_detection_matrix(basis), basis.family.dim, frame(basis.family.dim)
    conclusive, inconclusive = detection[..., :d], detection[..., d]
    success = conclusive.diagonal(axis1=-2, axis2=-1)
    p_suc, p_inc = theory._usd_probabilities(d, np.asarray(basis.family.theta)[..., None])
    return {
        "completeness": basis.orthonormality_residual,
        "zero_error": float(conclusive[..., f.off].max()),
        "closure": float(np.abs(success + inconclusive - 1.0).max()),
        "theory_match": max(
            float(np.abs(success - p_suc).max()), float(np.abs(inconclusive - p_inc).max())
        ),
    }


def oam_map(d: int) -> OamMap:
    """``OamMap(d)``: the OAM labels of dimension d."""
    return OamMap(d)


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
