"""Canonical forms of irreducible blocks and the isomorphism test.

Every irreducible block of a rotation pair falls into one of five
families, determined by its dimension, the two angles, and either a
relative orientation sign or a twist angle theta:

  Dim1(r, s)                  pair (r, s) of signs on a line
  Dim2LeftScalar(r, beta)     (r I, R_beta) on a plane
  Dim2RightScalar(alpha, s)   (R_alpha, s I) on a plane
  Dim2Proper(alpha, beta, r)  (R_alpha, R_{r beta}) on a plane
  Dim4(alpha, beta, theta)    (R_alpha + R_alpha, twisted R_beta pair)

Two pairs are isomorphic exactly when their multisets of canonical
forms agree, so classification doubles as the isomorphism test.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .decompose import InvariantBlock, decompose, is_irreducible
from .errors import (
    BadAngle,
    BadParameter,
    NotARotation,
    NotConstant,
    NotIntertwiner,
    NotIrreducible,
    NotProper,
    NumericalFailure,
    ScaleNotConstant,
)
from .linalg import DEFAULT_TOL, Tolerance, block_diag, max_abs
from .orthogonal import Rotation, RotationKind, as_rotation, rho, rot2


@dataclass(frozen=True)
class Dim1:
    r: int
    s: int
    dim = 1


@dataclass(frozen=True)
class Dim2LeftScalar:
    r: int
    beta: float
    dim = 2


@dataclass(frozen=True)
class Dim2RightScalar:
    alpha: float
    s: int
    dim = 2


@dataclass(frozen=True)
class Dim2Proper:
    alpha: float
    beta: float
    r: int
    dim = 2


@dataclass(frozen=True)
class Dim4:
    alpha: float
    beta: float
    theta: float
    dim = 4


_FAMILY_ORDER = (Dim1, Dim2LeftScalar, Dim2RightScalar, Dim2Proper, Dim4)


def _sort_key(form):
    vals = {"r": 0.0, "s": 0.0, "alpha": 0.0, "beta": 0.0, "theta": 0.0}
    for name in vals:
        if hasattr(form, name):
            vals[name] = float(getattr(form, name))
    return (
        _FAMILY_ORDER.index(type(form)),
        vals["r"], vals["s"], vals["alpha"], vals["beta"], vals["theta"],
    )


@dataclass(frozen=True)
class ClassLabel:
    """Multiset of canonical forms, sorted on construction.

    This is the one place the canonical order (family, then signs,
    then angles) is applied; callers pass forms in any order.
    """

    forms: tuple

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(sorted(self.forms, key=_sort_key)))

    @property
    def total_dim(self) -> int:
        return sum(f.dim for f in self.forms)


def _check_sign(value, name: str) -> int:
    # bool is an int subclass, but True is no sign; 1.0 is no integer
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value not in (-1, 1)):
        raise BadParameter(f"{name} must be +1 or -1, got {value!r}")
    return int(value)


def _check_angle(value, name: str) -> float:
    # bool is an int subclass, but True is no angle
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise BadParameter(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not (0.0 < value < math.pi):
        raise BadParameter(f"{name} must lie strictly inside (0, pi), got {value!r}")
    return value


def t_theta(theta: float) -> np.ndarray:
    """Orthogonal 4x4 twist: identity on the outer axes, R_theta inside."""
    out = np.eye(4)
    out[1:3, 1:3] = rot2(theta)
    return out


def orientation_sign(d, e, tol: Tolerance = DEFAULT_TOL) -> int:
    """Relative orientation of two proper rotations of the plane.

    +1 when both turn the same way, -1 otherwise; read off the signs of
    the sine entries.  Conjugating both matrices by a reflection flips
    both signs, so the product is basis-independent.
    """
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    for M in (d, e):
        r = as_rotation(M, tol)
        if r.dim != 2:
            raise BadParameter(f"expected 2x2 matrices, got {M.shape}")
        if r.kind is not RotationKind.PROPER:
            raise NotProper(f"angle {r.angle} is not strictly inside (0, pi)")
    return _sine_sign_product(d, e)


def _sine_sign_product(d: np.ndarray, e: np.ndarray) -> int:
    """Product of the signs of the sine entries of two certified plane rotations."""
    return 1 if (d[1, 0] > 0) == (e[1, 0] > 0) else -1


def theta_invariant(s: Rotation, t: Rotation,
                    tol: Tolerance = DEFAULT_TOL) -> float:
    """Twist angle between two quarter-turns of R^4.

    The inner product of s(v) and t(v) is independent of the unit
    vector v whenever the pair has no mixed-orientation split; its
    arccos is the twist angle.  The eigenvalues of ``sym(s^T t)`` span
    the exact range of that product over the unit sphere.  The angle is
    returned as ``2 atan2(|s - t|_F, |s + t|_F)``, using
    ``|s -+ t|_F^2 = 8 -+ 8 cos(theta)``, which stays accurate next to
    0 and pi where the arccos of the trace loses every digit.
    """
    for r in (s, t):
        if r.dim != 4:
            raise BadParameter(f"expected rotations of R^4, got dimension {r.dim}")
        if abs(r.angle - math.pi / 2) > tol.angle_tol:
            raise BadAngle(f"angle {r.angle!r} is not pi/2")
    G = s.matrix.T @ t.matrix
    spread = float(np.ptp(np.linalg.eigvalsh(G + G.T))) / 2.0
    if spread > 10 * tol.residual_tol:
        raise NotConstant(
            f"inner product varies by {spread:.3e} over the unit sphere"
        )
    return 2.0 * math.atan2(float(np.linalg.norm(s.matrix - t.matrix)),
                            float(np.linalg.norm(s.matrix + t.matrix)))


def _sign_of(r: Rotation) -> int:
    """+1 for the identity, -1 for its negative."""
    return 1 if r.kind is RotationKind.IDENTITY else -1


def classify_block(block: InvariantBlock, tol: Tolerance = DEFAULT_TOL,
                   restricted=None):
    """Canonical form of an irreducible block.

    A block handed in on its own is certified first: both restrictions
    by :func:`as_rotation`, and whether a 2- or 4-block is irreducible
    by :func:`is_irreducible` alone; a reducible block, or one whose
    restrictions are not rotations, raises ``NotIrreducible``.  A
    4-block with twist near 0 or pi is irreducible exactly when that
    verdict says so, and its twist is then read off accurately from the
    two quarter-turns of :func:`rho`, which take no normal form.

    ``restricted`` is internal: :func:`pair_block_form` passes the two
    restrictions of a block of :func:`decompose` as rotations with the
    pair's certified angles.  Such a block is irreducible by
    construction, so neither its restrictions nor the verdict are
    computed again; only the form is read.
    """
    if block.dim not in (1, 2, 4):
        raise NotIrreducible(f"blocks of dimension {block.dim} do not occur")
    try:
        if block.dim == 1:
            r = 1 if block.d_restricted[0, 0] > 0 else -1
            s = 1 if block.e_restricted[0, 0] > 0 else -1
            return Dim1(r=r, s=s)
        if restricted is None:
            restricted = (as_rotation(block.d_restricted, tol),
                          as_rotation(block.e_restricted, tol))
            if not is_irreducible(block, tol, restricted=restricted):
                raise NotIrreducible(
                    f"{block.dim}-dimensional block has a jointly invariant "
                    "proper subspace"
                )
        d_r, e_r = restricted
        if block.dim == 4:
            theta = theta_invariant(rho(d_r, tol), rho(e_r, tol), tol)
            return Dim4(alpha=d_r.angle, beta=e_r.angle, theta=theta)
        if d_r.kind is not RotationKind.PROPER:
            return Dim2LeftScalar(r=_sign_of(d_r), beta=e_r.angle)
        if e_r.kind is not RotationKind.PROPER:
            return Dim2RightScalar(alpha=d_r.angle, s=_sign_of(e_r))
        # both sides are certified proper rotations of the plane
        r = _sine_sign_product(block.d_restricted, block.e_restricted)
        return Dim2Proper(alpha=d_r.angle, beta=e_r.angle, r=r)
    except (NotARotation, NotProper, NotConstant) as exc:
        raise NotIrreducible(str(exc)) from exc


def pair_block_form(block: InvariantBlock, d: Rotation, e: Rotation,
                    tol: Tolerance = DEFAULT_TOL):
    """Canonical form of a block of ``decompose(d, e)``, with the pair's angles.

    The block must come from ``decompose(d, e)``, whose blocks are
    irreducible by construction, so no irreducibility verdict is asked
    here.  A rotation keeps its angle on every invariant subspace, so
    the restrictions are rotations by the angles of ``d`` and ``e``,
    which :func:`decompose` certified once for the whole pair; they are
    not certified again.  Equal forms of one pair are then equal to the
    last bit, and ``ClassLabel`` orders them by their remaining
    parameters, such as theta.
    """
    restricted = (Rotation(matrix=block.d_restricted, angle=d.angle),
                  Rotation(matrix=block.e_restricted, angle=e.angle))
    return classify_block(block, tol, restricted=restricted)


def realize(form) -> tuple:
    """Matrix pair realizing a canonical form, in its standard basis."""
    if isinstance(form, Dim1):
        r = _check_sign(form.r, "r")
        s = _check_sign(form.s, "s")
        return np.array([[float(r)]]), np.array([[float(s)]])
    if isinstance(form, Dim2LeftScalar):
        r = _check_sign(form.r, "r")
        beta = _check_angle(form.beta, "beta")
        return r * np.eye(2), rot2(beta)
    if isinstance(form, Dim2RightScalar):
        alpha = _check_angle(form.alpha, "alpha")
        s = _check_sign(form.s, "s")
        return rot2(alpha), s * np.eye(2)
    if isinstance(form, Dim2Proper):
        alpha = _check_angle(form.alpha, "alpha")
        beta = _check_angle(form.beta, "beta")
        r = _check_sign(form.r, "r")
        return rot2(alpha), rot2(r * beta)
    if isinstance(form, Dim4):
        alpha = _check_angle(form.alpha, "alpha")
        beta = _check_angle(form.beta, "beta")
        theta = _check_angle(form.theta, "theta")
        left = block_diag(rot2(alpha), rot2(alpha))
        twist = t_theta(theta)
        right = twist @ block_diag(rot2(beta), rot2(beta)) @ twist.T
        return left, right
    raise BadParameter(f"unknown canonical form {form!r}")


def classify(d: Rotation, e: Rotation, tol: Tolerance = DEFAULT_TOL) -> ClassLabel:
    """Canonical label of a rotation pair: forms of its irreducible blocks."""
    dec = decompose(d, e, tol)
    return ClassLabel(forms=tuple(pair_block_form(b, d, e, tol) for b in dec.blocks))


def _forms_equal(f1, f2, angle_tol: float) -> bool:
    if type(f1) is not type(f2):
        return False
    for name in ("r", "s"):
        if hasattr(f1, name) and getattr(f1, name) != getattr(f2, name):
            return False
    for name in ("alpha", "beta", "theta"):
        if hasattr(f1, name):
            if abs(getattr(f1, name) - getattr(f2, name)) > angle_tol:
                return False
    return True


def _match_multisets(forms1, forms2, angle_tol: float) -> bool:
    """Backtracking multiset match, tolerant in the angle parameters.

    Angle comparison at a tolerance is not transitive, so near-ties can
    defeat a single sorted pass; sizes here are tiny, so backtracking
    is free.
    """
    if len(forms1) != len(forms2):
        return False
    if not forms1:
        return True
    head, rest = forms1[0], forms1[1:]
    for i, cand in enumerate(forms2):
        if _forms_equal(head, cand, angle_tol):
            if _match_multisets(rest, forms2[:i] + forms2[i + 1:], angle_tol):
                return True
    return False


def labels_match(label1: ClassLabel, label2: ClassLabel,
                 tol: Tolerance = DEFAULT_TOL) -> bool:
    """Multiset equality of labels, angles compared within ``angle_tol``."""
    return _match_multisets(list(label1.forms), list(label2.forms), tol.angle_tol)


def isomorphic(pair1, pair2, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether two rotation pairs have the same canonical label.

    Each argument is a (Rotation, Rotation) tuple.  The spaces need not
    have equal dimension; unequal dimensions simply compare unequal.
    """
    label1 = classify(pair1[0], pair1[1], tol)
    label2 = classify(pair2[0], pair2[1], tol)
    return labels_match(label1, label2, tol)


def orthogonalize_intertwiner(phi, pair1, pair2,
                              tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Strip the scale from an invertible intertwiner of irreducible pairs.

    An invertible phi with ``phi d = d' phi`` and ``phi e = e' phi``
    between irreducible pairs scales every vector by one factor; the
    returned ``phi / mu`` is orthogonal and intertwines the same way.
    The singular values of phi span the exact range of |phi v| on the unit sphere.
    A side that carries its normal form is not certified again.
    """
    phi = np.asarray(phi, dtype=float)
    d, e = pair1
    d2, e2 = pair2
    n = d.dim
    if phi.shape != (n, n) or d2.dim != n:
        raise NotIntertwiner(f"shape mismatch: phi {phi.shape} on R^{n}")
    if n not in (1, 2, 4):
        raise NotIrreducible("pair is reducible")
    for p in (pair1, pair2):
        trivial = InvariantBlock(
            basis=np.eye(n),
            d_restricted=p[0].matrix,
            e_restricted=p[1].matrix,
        )
        restricted = tuple(as_rotation(r.matrix, tol) if r.normal_form is None else r
                           for r in p)
        if not is_irreducible(trivial, tol, restricted=restricted):
            raise NotIrreducible("pair is reducible")
    r1 = max_abs(phi @ d.matrix - d2.matrix @ phi)
    r2 = max_abs(phi @ e.matrix - e2.matrix @ phi)
    if max(r1, r2) > tol.residual_tol * max(1.0, max_abs(phi)):
        raise NotIntertwiner(
            f"intertwining residuals ({r1:.3e}, {r2:.3e}) too large"
        )
    sing = np.linalg.svd(phi, compute_uv=False)
    if sing[-1] <= tol.rank_tol * sing[0]:
        raise NotIntertwiner("map is singular")
    spread = float(sing[0] - sing[-1])
    if spread > 10 * tol.residual_tol:
        raise ScaleNotConstant(
            f"stretch varies by {spread:.3e} over the unit sphere"
        )
    out = phi / float(sing.mean())
    resid = max_abs(out.T @ out - np.eye(n))
    if resid > 10 * tol.residual_tol:
        raise NumericalFailure(f"result orthogonality residual {resid:.3e}")
    return out
