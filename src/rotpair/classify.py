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
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .decompose import (
    InvariantBlock,
    _certified_block,
    _certify_pair,
    decompose,
    is_irreducible,
)
from .errors import (
    BadAngle,
    BadParameter,
    NotARotation,
    NotConstant,
    NotIntertwiner,
    NotIrreducible,
    NotOrthogonal,
    NotProper,
    NumericalFailure,
    RotPairError,
    ScaleNotConstant,
)
from .linalg import (DEFAULT_TOL, RANK_TOL, Tolerance, block_diag, frobenius, is_number,
                     max_abs, max_abs_each, orthonormality_residual, real_array, require)
from .orthogonal import Rotation, RotationKind, _trusted, as_rotation, rho, rot2


# The one declaration of the form schema: each class's ``family`` is its
# JSON name, and every field holds a sign in {-1, 1} or an angle in (0, pi).
SIGN_FIELDS = ("r", "s")
ANGLE_FIELDS = ("alpha", "beta", "theta")


def _check_sign(value, name: str) -> int:
    if type(value) is int and (value == 1 or value == -1):
        return value
    if not is_number(value, integral=True) or value not in (-1, 1):
        raise BadParameter(f"{name} must be +1 or -1, got {value!r}")
    return int(value)


def _check_angle(value, name: str) -> float:
    if type(value) is float and 0.0 < value < math.pi:
        return value
    if not is_number(value):
        raise BadParameter(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError as exc:
        raise BadParameter(f"{name} is an integer too large for a float") from exc
    if not (0.0 < value < math.pi):
        raise BadParameter(f"{name} must lie strictly inside (0, pi), got {value!r}")
    return value


class _Form:
    """The one check of a form's fields, when it is built: each sign an
    integer +1 or -1, stored as ``int``, and each angle a real number
    strictly inside (0, pi), stored as ``float``; a bool is neither.
    Anything else raises ``BadParameter``, so no reader of a form checks
    or casts a field again."""

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            checked = (_check_sign if name in SIGN_FIELDS else _check_angle)(value, name)
            if checked is not value:   # a numpy number, or an integer angle
                object.__setattr__(self, name, checked)


@dataclass(frozen=True)
class Dim1(_Form):
    r: int
    s: int
    dim = 1
    family = "dim1"


@dataclass(frozen=True)
class Dim2LeftScalar(_Form):
    r: int
    beta: float
    dim = 2
    family = "dim2_left_scalar"


@dataclass(frozen=True)
class Dim2RightScalar(_Form):
    alpha: float
    s: int
    dim = 2
    family = "dim2_right_scalar"


@dataclass(frozen=True)
class Dim2Proper(_Form):
    alpha: float
    beta: float
    r: int
    dim = 2
    family = "dim2_proper"


@dataclass(frozen=True)
class Dim4(_Form):
    alpha: float
    beta: float
    theta: float
    dim = 4
    family = "dim4"


FAMILIES = (Dim1, Dim2LeftScalar, Dim2RightScalar, Dim2Proper, Dim4)


def _layout(rank: int, cls) -> tuple:
    """A family's rank, its sign and angle fields, and a getter of both, signs first."""
    signs = tuple(n for n in SIGN_FIELDS if n in cls.__dataclass_fields__)
    angles = tuple(n for n in ANGLE_FIELDS if n in cls.__dataclass_fields__)
    return rank, signs, angles, attrgetter(*signs, *angles)


_LAYOUT = {cls: _layout(rank, cls) for rank, cls in enumerate(FAMILIES)}


def _check_form(form):
    """``form`` itself, if its type is exactly one of the five families."""
    if type(form) not in _LAYOUT:
        raise BadParameter(f"unknown canonical form {form!r}")
    return form


def _sort_key(form) -> tuple:
    """The family's rank, then the form's signs, then its angles."""
    rank, _, _, fields = _LAYOUT[type(_check_form(form))]
    return rank, fields(form)


@dataclass(frozen=True)
class ClassLabel:
    """Multiset of canonical forms, sorted on construction.

    This is the one place the canonical order (family, then signs,
    then angles) is applied; callers pass forms in any order.
    """

    forms: tuple

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(sorted(self.forms, key=_sort_key)))


def t_theta(theta: float) -> np.ndarray:
    """Orthogonal 4x4 twist: identity on the outer axes, R_theta inside."""
    out = np.eye(4)
    out[1:3, 1:3] = rot2(theta)
    return out


def theta_invariant(s: Rotation, t: Rotation,
                    tol: Tolerance = DEFAULT_TOL) -> float:
    """Twist angle between two quarter-turns of R^4.

    The inner product of s(v) and t(v) is independent of the unit
    vector v whenever the pair has no mixed-orientation split; its
    arccos is the twist angle.  The eigenvalues of ``sym(s^T t)`` span
    the exact range of that product over the unit sphere.  The angle is
    returned as ``2 atan2(|s - t|_F, |s + t|_F)``, using
    ``|s -+ t|_F^2 = 8 -+ 8 cos(theta)``, which stays accurate next to
    0 and pi where the arccos of the trace loses every digit.  Each side
    must be orthogonal within ``residual_tol`` (``NotOrthogonal``), and
    skew within it as a quarter-turn is (``BadAngle``).

    Quarter-turns holding stacks of k matrices (README, "Stacks") give an array of k angles, from one
    ``eigvalsh`` of the stacked ``sym(s^T t)``.
    """
    for r in (s, t):
        if r.dim != 4:
            raise BadParameter(f"expected rotations of R^4, got dimension {r.dim}")
        require(abs(r.angle - math.pi / 2), tol.angle_tol, BadAngle,
                "angle distance from pi/2")
        require(orthonormality_residual(r.matrix), tol.residual_tol,
                NotOrthogonal, "orthogonality residual")
        require(max_abs_each(r.matrix + r.matrix.swapaxes(-1, -2)) / 2.0, tol.residual_tol,
                BadAngle, "quarter-turn symmetric part")
    G = s.matrix.swapaxes(-1, -2) @ t.matrix
    w = np.linalg.eigvalsh(G + G.swapaxes(-1, -2))   # ascending
    require((w[..., -1] - w[..., 0]) / 2.0, tol.check_tol, NotConstant,
            "inner product spread over the unit sphere")
    diff, total = frobenius(s.matrix - t.matrix), frobenius(s.matrix + t.matrix)
    if s.matrix.ndim == 2:
        return 2.0 * math.atan2(diff, total)
    return np.array([2.0 * math.atan2(a, b) for a, b in zip(diff.tolist(), total.tolist())])


def _scalar_form(d: Rotation, e: Rotation):
    """Form of every block of a pair with a +-I side, from kinds and angles.

    Both sides +-I give the line ``Dim1(r, s)``; otherwise the block is a
    plane with the scalar side's sign (+1 for the identity, -1 for its
    negative) and the proper side's angle.
    """
    r, s = [1 if side.kind is RotationKind.IDENTITY else -1 for side in (d, e)]
    if d.kind is not RotationKind.PROPER and e.kind is not RotationKind.PROPER:
        return Dim1(r=r, s=s)
    if d.kind is not RotationKind.PROPER:
        return Dim2LeftScalar(r=r, beta=e.angle)
    return Dim2RightScalar(alpha=d.angle, s=s)


def classify_block(block: InvariantBlock, tol: Tolerance = DEFAULT_TOL):
    """Canonical form of an irreducible block.

    A block of :func:`decompose` carries its two restrictions as
    rotations with the pair's certified angles (``block.rotations``) and
    is irreducible by construction, so neither its restrictions nor the
    verdict are computed again; only the form is read, and it equals the
    matching form of :func:`classify` to the last bit.  Any other block,
    including a copy made with ``dataclasses.replace``, is certified
    first: both restrictions by :func:`as_rotation` (a restriction that
    is not orthogonal raises ``NotOrthogonal``, a line's included), and
    whether a 2- or 4-block is irreducible by :func:`is_irreducible`
    alone; a reducible block, or one whose restrictions are not
    rotations, raises ``NotIrreducible``.  A line, or a plane with a +-I
    side, is labelled from the kinds and angles of its restrictions.  A
    4-block's twist is read off accurately from the two quarter-turns of
    :func:`rho`, which take no normal form.

    A block of :func:`decompose` holding a stack of k planes or 4-blocks
    of a proper pair (README, "Stacks") gives a tuple of k forms: the
    signs r of k planes come from one comparison, and k twists take one
    :func:`rho` per side and one :func:`theta_invariant`.
    """
    if block.dim not in (1, 2, 4):
        raise NotIrreducible(f"blocks of dimension {block.dim} do not occur")
    try:
        if block.rotations is None:
            block = _certified_block(block.basis,
                                     as_rotation(block.d_restricted, tol),
                                     as_rotation(block.e_restricted, tol))
            if not is_irreducible(block, tol):
                raise NotIrreducible(
                    f"{block.dim}-dimensional block has a jointly invariant "
                    "proper subspace"
                )
        d_r, e_r = block.rotations
        if block.dim == 4:
            theta = theta_invariant(rho(d_r, tol), rho(e_r, tol), tol)
            if block.d_restricted.ndim == 2:
                return Dim4(alpha=d_r.angle, beta=e_r.angle, theta=theta)
            return tuple(Dim4(alpha=d_r.angle, beta=e_r.angle, theta=t)
                         for t in theta.tolist())
        if not (d_r.kind is RotationKind.PROPER and e_r.kind is RotationKind.PROPER):
            return _scalar_form(d_r, e_r)
        # both sides are proper; r = +1 when their sine entries share a sign
        same = ((block.d_restricted[..., 1, 0] > 0)
                == (block.e_restricted[..., 1, 0] > 0)).tolist()
        if block.d_restricted.ndim == 2:
            return Dim2Proper(alpha=d_r.angle, beta=e_r.angle, r=1 if same else -1)
        forms = {r: Dim2Proper(alpha=d_r.angle, beta=e_r.angle, r=1 if r else -1)
                 for r in set(same)}
        return tuple(forms[r] for r in same)
    except (NotARotation, NotProper, NotConstant) as exc:
        raise NotIrreducible(str(exc)) from exc


def realize(form) -> tuple:
    """Matrix pair realizing a canonical form, in its standard basis."""
    _check_form(form)
    if isinstance(form, Dim1):
        return np.array([[float(form.r)]]), np.array([[float(form.s)]])
    if isinstance(form, Dim2LeftScalar):
        return form.r * np.eye(2), rot2(form.beta)
    if isinstance(form, Dim2RightScalar):
        return rot2(form.alpha), form.s * np.eye(2)
    if isinstance(form, Dim2Proper):
        return rot2(form.alpha), rot2(form.r * form.beta)
    left = block_diag(rot2(form.alpha), rot2(form.alpha))
    twist = t_theta(form.theta)
    return left, twist @ block_diag(rot2(form.beta), rot2(form.beta)) @ twist.T


def _stacked(blocks) -> InvariantBlock:
    """One block holding the certified ``blocks`` of one pair as a stack.

    Their bases and restrictions go on a leading axis, one piece per
    block, and the restrictions keep the pair's angles, which the blocks
    share.
    """
    d_r, e_r = blocks[0].rotations
    return _certified_block(np.array([b.basis for b in blocks]),
                            _trusted(np.array([b.d_restricted for b in blocks]), d_r.angle),
                            _trusted(np.array([b.e_restricted for b in blocks]), e_r.angle))


def _each(fn, blocks: list, tol: Tolerance) -> list:
    """``[fn(b, tol) for b in blocks]`` for certified blocks of one pair,
    from one call of ``fn`` on their stack.

    When the stack raises, the blocks are run one at a time, so the
    error is exactly the one that the first failing block raises alone.
    """
    if len(blocks) < 2:
        return [fn(b, tol) for b in blocks]
    try:
        return list(fn(_stacked(blocks), tol))
    except (RotPairError, np.linalg.LinAlgError):
        return [fn(b, tol) for b in blocks]


def classify(d: Rotation, e: Rotation, tol: Tolerance = DEFAULT_TOL) -> ClassLabel:
    """Canonical label of a rotation pair: forms of its irreducible blocks.

    Only the pair that :func:`_certify_pair` returns is labelled, so a
    hand-built side's label reads its certified angle.  A pair with a
    +-I side is labelled from its kinds and angles alone: n lines
    ``Dim1(r, s)`` when both sides are +-I, else n/2 planes
    ``Dim2LeftScalar(r, beta)`` or ``Dim2RightScalar(alpha, s)``, with
    no basis built.  A pair of two proper rotations is decomposed and
    its blocks labelled by :func:`classify_block`: all its planes in one
    call on their stack, then all its 4-blocks in another.

    The label is an invariant of the certified pair, whose rotations are
    read-only, so the certified first side remembers its last one: a
    second call with the same certified ``e`` (by identity) and an equal
    ``tol`` returns that label and decomposes nothing.  A call that
    raises stores nothing, and a hand-built side is certified into a
    fresh rotation on every call, so it never finds a label.
    """
    d, e = _certify_pair(d, e, tol)
    memo = d._label
    if memo is not None and memo[0] is e and memo[1] == tol:
        return memo[2]
    if d.kind is RotationKind.PROPER and e.kind is RotationKind.PROPER:
        blocks = decompose(d, e, tol).blocks
        planes = [b for b in blocks if b.dim == 2]   # the first blocks
        label = ClassLabel(forms=tuple(_each(classify_block, planes, tol)
                                       + _each(classify_block, blocks[len(planes):], tol)))
    else:
        form = _scalar_form(d, e)
        label = ClassLabel(forms=(form,) * (d.dim // form.dim))
    object.__setattr__(d, "_label", (e, tol, label))
    return label


def _forms_equal(f1, f2, angle_tol: float) -> bool:
    if type(f1) is not type(f2):
        return False
    _, signs, angles, _ = _LAYOUT[type(f1)]
    for name in signs:
        if getattr(f1, name) != getattr(f2, name):
            return False
    for name in angles:
        if abs(getattr(f1, name) - getattr(f2, name)) > angle_tol:
            return False
    return True


def labels_match(label1: ClassLabel, label2: ClassLabel,
                 tol: Tolerance = DEFAULT_TOL) -> bool:
    """Multiset equality of labels, angles compared within ``angle_tol``.

    Angle comparison at a tolerance is not transitive, so near-ties can
    defeat a single sorted pass.  The forms are paired off by bipartite
    matching with augmenting paths (Kuhn's algorithm), at most m^3
    comparisons for m forms.  A form takes a free equal partner before
    it moves a taken one, so labels that match cost about one
    comparison per form.
    """
    forms1, forms2 = label1.forms, label2.forms
    if len(forms1) != len(forms2):
        return False
    partner = {}   # index into forms2 -> index into forms1

    def augment(i, seen):
        for taken in (False, True):
            for j in range(len(forms2)):
                if ((j in partner) is taken and j not in seen
                        and _forms_equal(forms1[i], forms2[j], tol.angle_tol)):
                    seen.add(j)
                    if not taken or augment(partner[j], seen):
                        partner[j] = i
                        return True
        return False

    try:
        return all(augment(i, set()) for i in range(len(forms1)))
    finally:
        del augment   # it refers to itself through its cell, a cycle left to gc


def isomorphic(pair1, pair2, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether two rotation pairs have the same canonical label.

    Each argument is a (Rotation, Rotation) tuple.  The spaces need not
    have equal dimension; unequal dimensions simply compare unequal.
    Both labels come from :func:`classify`, so a pair with a +-I side is
    labelled from its kinds and angles, with no decomposition, and a
    certified pair that ``classify`` has just labelled is not labelled
    again: ``isomorphic`` right after ``classify(d, e)`` costs one
    classification, of the other pair.
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
    Residuals and stretch are judged relative to phi's size, so phi may
    have any scale.  A phi with a NaN or infinite entry raises
    ``NotIntertwiner``, and a phi that holds no real numbers
    ``BadParameter``.  Each pair is certified by :func:`_certify_pair`,
    so sides of unequal dimension raise ``NotOrthogonalPair``.
    """
    phi = real_array(phi, "phi")
    if not np.all(np.isfinite(phi)):
        raise NotIntertwiner("phi has non-finite entries")
    (d, e), (d2, e2) = (_certify_pair(*p, tol) for p in (pair1, pair2))
    n = d.dim
    if phi.shape != (n, n) or d2.dim != n:
        raise NotIntertwiner(f"shape mismatch: phi {phi.shape} on R^{n}")
    for p in ((d, e), (d2, e2)):
        if not is_irreducible(_certified_block(np.eye(n), *p), tol):
            raise NotIrreducible("pair is reducible")
    require(max(max_abs(phi @ d.matrix - d2.matrix @ phi),
                max_abs(phi @ e.matrix - e2.matrix @ phi)),
            tol.residual_tol * max_abs(phi), NotIntertwiner,
            "larger of the intertwining residuals")
    sing = np.linalg.svd(phi, compute_uv=False)
    if sing[-1] <= RANK_TOL * sing[0]:
        raise NotIntertwiner("map is singular")
    require(float(sing[0] - sing[-1]) / sing[0], tol.check_tol, ScaleNotConstant,
            "relative stretch spread over the unit sphere")
    out = phi / float(sing.mean())
    require(orthonormality_residual(out), tol.check_tol, NumericalFailure,
            "result orthogonality residual")
    return out
