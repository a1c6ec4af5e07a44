"""Structure of a single orthogonal operator.

An orthogonal matrix is orthogonally similar to a direct sum of 2x2
rotation blocks, an identity block and a negated identity block.  This
module computes that block form, certifies matrices that rotate every
vector by one fixed angle, and converts between such a rotation and its
quarter-turn part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    BadAngle,
    BadDimension,
    BadParameter,
    NotARotation,
    NotOrthogonal,
    NotProper,
    NumericalFailure,
)
from .linalg import (
    DEFAULT_TOL,
    RANK_TOL,
    Tolerance,
    array_fields_equal,
    frobenius,
    is_number,
    max_abs,
    orthonormality_residual,
    real_array,
    require,
    single_linkage,
    symmetric_eigen,
)


def rot2(alpha: float) -> np.ndarray:
    """The 2x2 rotation matrix by ``alpha`` radians (counterclockwise)."""
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, -s], [s, c]])


class RotationKind(Enum):
    IDENTITY = "identity"
    NEG_IDENTITY = "neg_identity"
    PROPER = "proper"


# A cosine c with c^2 <= 3/4 has a sine of at least 1/2, so arccos amplifies
# its error by at most 2: a one-cluster side whose cosines all lie there is
# read from them and one Frobenius norm, with no skew-part SVD.
FAR_FROM_ENDS_COS2 = 0.75


class _Spectral(NamedTuple):
    """What certified a one-cluster form, and what its blocks are built from."""

    matrix: np.ndarray    # a copy of the certified matrix, the rotation's own
    angles: np.ndarray    # the block angles its read has, whose spread is the
                          # verdict: arccos of each cosine away from 0 and pi,
                          # atan2(sine, cosine) of each paired value near them
    angle: float          # the rotation's angle: atan2(RMS sine, mean cosine)
                          # away from 0 and pi, the mean of the pairs near them
    tol: Tolerance


@dataclass(frozen=True)
class NormalForm:
    """Block form of an orthogonal matrix.

    ``angles`` holds one value per 2x2 rotation block, sorted ascending,
    each strictly inside (0, pi).  ``fix_dim`` and ``neg_dim`` count the
    +1 and -1 one-dimensional blocks.  ``basis`` has orthonormal columns
    ordered to match: rotation-block pairs first, then fixed vectors,
    then negated vectors, so that ``basis.T @ M @ basis`` equals
    ``block_matrix()``.  A matrix within ``check_tol`` of ``+-I``,
    entrywise, has the identity basis.  ``orthogonality_residual`` is
    the input's ``orthonormality_residual`` that
    :func:`orthogonal_normal_form` measured, carried so that no caller
    measures it again; a form built any other way has NaN there, which
    fails every verdict of ``require``.

    A form that :func:`orthogonal_normal_form` certified from the two
    spectra alone (one cluster, all rotation blocks) is a private subclass
    that builds ``angles`` and ``basis`` together on the first read of
    either, checks its normal-form residual then (``NumericalFailure``
    from that read), and keeps them, with the values an eager build
    gives; it equals a form of this class with equal fields.  ``dim``,
    ``fix_dim``, ``neg_dim`` and ``orthogonality_residual`` build nothing,
    nor does a copy or ``hasattr``.  The constructor stores its fields
    unchecked; :func:`orthogonal_normal_form` builds its forms by ``_form``.
    """

    angles: tuple
    fix_dim: int
    neg_dim: int
    basis: np.ndarray
    orthogonality_residual: float = field(default=math.nan, compare=False)

    _spectral = None   # a form certified from its spectra holds its _Spectral

    __eq__ = array_fields_equal
    __array_ufunc__ = None   # so that == with an ndarray answers False

    @property
    def dim(self) -> int:
        return (self.basis if self._spectral is None else self._spectral.matrix).shape[0]

    def block_matrix(self) -> np.ndarray:
        n, k = self.dim, 2 * len(self.angles)
        out = np.zeros((n, n))
        for i, a in enumerate(self.angles):
            out[2 * i:2 * i + 2, 2 * i:2 * i + 2] = rot2(a)
        out.reshape(-1)[k * (n + 1)::n + 1] = [1.0] * self.fix_dim + [-1.0] * self.neg_dim
        return out


class _SpectralForm(NormalForm):
    """A form certified from its spectra, which builds its angles and basis
    on the first read of either.  Only this class has the ``__getattr__``
    hook, which slows every attribute read of its instances."""

    def __getattr__(self, name):
        if name not in ("angles", "basis"):
            raise AttributeError(name)
        M, angles, _, tol = self._spectral
        built = _assemble(M, *_rotation_blocks(M, None, angles), [], [],
                          self.orthogonality_residual, tol)
        self.__dict__.update(angles=built.angles, basis=built.basis)
        return self.__dict__[name]


@dataclass(frozen=True)
class Rotation:
    """An orthogonal matrix that turns every vector by one fixed angle.

    ``angle`` is in [0, pi]; 0 and pi mean the identity and its
    negative.  Instances are normally produced by :func:`as_rotation`,
    which verifies the defining property, keeps the block form that
    certified it in ``normal_form``, and owns a read-only copy of the
    certified matrix, so a certified rotation never changes (nor does a
    copy of it made by ``copy.deepcopy`` or ``pickle``).  Building
    one directly, or with ``dataclasses.replace``, skips that
    verification and leaves ``normal_form`` as None, so a form is never
    carried over to a new matrix; the array passed is stored, not
    copied.  Either way ``matrix`` is stored as a square float array:
    entries that are not real numbers raise ``BadParameter``, and any
    other shape ``BadDimension``; an angle outside [0, pi] ``BadAngle``.

    A certified rotation also remembers the label that ``classify`` last
    gave it as the first side of a certified pair, with that partner and
    tolerance, and a read-only one its last plane-finding eigenplane
    search with a read-only partner.  The memos are no fields, so ``==``,
    ``repr`` and ``dataclasses.replace`` do not see them.

    Inside the package a rotation may also hold a stack of matrices
    (``matrix`` of shape ``(k, m, m)``) that share one angle, such as
    the restrictions of one pair to k blocks; the stack-aware functions
    take it, and ``dim`` is m.  Only ``_trusted`` builds one: the
    constructor refuses anything but a square 2-d matrix.
    """

    matrix: np.ndarray
    angle: float
    normal_form: NormalForm | None = field(default=None, init=False,
                                           repr=False, compare=False)

    _label = None   # classify's memo of its last certified pair: (partner, tol, label)
    _search = None  # two_plane_exists's memo of its last search: (partner, tol, found)

    __eq__ = array_fields_equal
    __array_ufunc__ = None   # so that == with an ndarray answers False

    # A copy (copy.deepcopy, pickle) keeps the matrix as writeable as the
    # original's: a certified rotation's copy is read-only, like the
    # rotation whose remembered label it carries.
    def __getstate__(self):
        return self.__dict__, self.matrix.flags.writeable

    def __setstate__(self, state):
        self.__dict__.update(state[0])
        self.matrix.setflags(write=state[1])

    def __post_init__(self):
        if not is_number(self.angle):
            raise BadParameter(f"angle {self.angle!r} is not a real number")
        if not 0.0 <= self.angle <= math.pi:
            raise BadAngle(f"angle {self.angle!r} is not in [0, pi]")
        M = real_array(self.matrix)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise BadDimension(f"expected a square matrix, got shape {M.shape}")
        object.__setattr__(self, "matrix", M)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def kind(self) -> RotationKind:
        if self.angle == 0.0:
            return RotationKind.IDENTITY
        if self.angle == math.pi:
            return RotationKind.NEG_IDENTITY
        return RotationKind.PROPER


def orthogonal_normal_form(M, tol: Tolerance = DEFAULT_TOL) -> NormalForm:
    """Block form of an orthogonal matrix.

    After the orthogonality verdict, ``+-I`` is decided first, by the
    residual ``|M -+ I|`` alone at ``check_tol``: either passes, and the
    form is ``+-I`` on the identity basis, with no eigensolve and no
    second residual (``I^T M I = M``).  A corner ``|M[0, 0] -+ 1|`` beyond
    ``check_tol``, as a proper rotation's ``cos(a)`` is, fails it unformed;
    else ``M -+ I`` is formed in a copy of M, the identity basis if it passes.

    Otherwise the symmetric part ``(M + M.T)/2`` commutes with ``M``, and
    on each of its eigenspaces ``M`` acts as a rotation with cosine equal
    to the eigenvalue.  The eigenvalues alone are computed first; their
    angles are one cluster when the two ends lie within ``angle_tol``, and
    any wider spread is clustered once in angle space at ``angle_tol``.

    One cluster, as every exact single-angle rotation has, is the whole
    space, and it is certified from its spectra alone, with no
    eigenvectors.  Its dimension must be even, and its block angles and
    angle are read one of two ways, switched on the cosines:

    - Away from 0 and pi, when every cosine has ``c^2 <= 3/4``
      (``FAR_FROM_ENDS_COS2``), each block sine is at least 1/2, so
      ``arccos`` amplifies a cosine's error by at most 2.  The block
      angles are the ``arccos`` values, and the angle is
      ``atan2(s, c)``, with ``c`` the mean cosine and
      ``s = |M - M.T|_F / (2 sqrt(n))`` the RMS block sine; like the
      other read, that is exact for a scaled rotation.
    - Within pi/6 of 0 or pi, the singular values of the skew part
      ``K = (M - M.T)/2``, from one values-only SVD, are the block
      sines, in pairs; the smallest must exceed the sine floor
      ``RANK_TOL``, below which a block is too close to 0 or pi to
      extract.  The cosines, descending, are paired with the sines,
      ascending when the mean cosine is positive and descending
      otherwise, and each pair gives a block angle
      ``atan2(sine, cosine)``; unlike ``arccos`` of a cosine, that keeps
      its relative accuracy next to 0 and pi.  The angle is their mean.

    The form's ``angles`` and ``basis`` are built, by
    :func:`_rotation_blocks` on the identity basis ``E = I``, and checked
    on their first read.

    Several clusters, such as a reflection's, take a full symmetric
    eigensolve for its eigenvectors alone, and each cluster's columns
    give its basis ``E``.  Each is tried as fixed or negated space first,
    and the residual ``|M E -+ E|`` alone decides, at ``check_tol``; a
    cluster that fails is split into rotation blocks by
    :func:`_rotation_blocks`, so near-boundary angles still come out as
    blocks.  Within a repeated-angle cluster the blocks are not unique;
    the ones returned are deterministic for a given input.
    """
    M = real_array(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise BadDimension(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    if n == 0:
        raise BadDimension("zero-dimensional space")
    resid = orthonormality_residual(M)
    require(resid, tol.residual_tol, NotOrthogonal, "orthogonality residual")
    for sign, fix_dim, neg_dim in ((1.0, n, 0), (-1.0, 0, n)):
        if abs(M.item(0) - sign) <= tol.check_tol:
            D = M.copy()   # M -+ I, then the identity basis in its place
            diagonal = D.ravel()[::n + 1]
            diagonal -= sign
            if max_abs(D) <= tol.check_tol:
                D.fill(0.0)
                diagonal.fill(1.0)
                D.setflags(write=False)
                return _form(angles=(), fix_dim=fix_dim, neg_dim=neg_dim, basis=D,
                             orthogonality_residual=resid)

    sym = (M + M.T) / 2.0
    cosines = np.linalg.eigvalsh(sym)  # ascending: only the ends can leave [-1, 1]
    if cosines.item(0) < -1.0 or cosines.item(-1) > 1.0:
        cosines = np.clip(cosines, -1.0, 1.0)
    thetas = np.arccos(cosines)   # descending: ends within angle_tol, every gap too
    if (thetas.item(0) - thetas.item(-1) <= tol.angle_tol
            or len(clusters := single_linkage(thetas, tol.angle_tol)) == 1):
        _require_even(thetas)
        if max(cosines.item(0) ** 2, cosines.item(-1) ** 2) <= FAR_FROM_ENDS_COS2:
            angles = thetas
            angle = math.atan2(frobenius(M - M.T) / (2.0 * math.sqrt(n)), cosines.sum() / n)
        else:
            sines = np.linalg.svd((M - M.T) / 2.0, compute_uv=False)   # descending
            _require_sine_floor(thetas, -sines[-1], sines[-1])
            if cosines.sum() > 0.0:   # the mean cosine: below pi/2 the sines ascend
                sines = sines[::-1]
            angles = np.arctan2(sines, cosines[::-1])
            # the sum and division of np.mean, without its wrappers
            angle = float(np.add.reduce(angles)) / len(angles)
        return _form(fix_dim=0, neg_dim=0, orthogonality_residual=resid,
                     _spectral=_Spectral(M.copy(), angles, angle, tol))

    # eigvalsh ascends and symmetric_eigen descends: index i of the
    # one is column n - 1 - i of the other
    evecs = symmetric_eigen(sym)[1]
    fixed, negated = [], []
    rotations = [(np.empty(0), np.empty((n, 0)), np.empty((n, 0)))]
    for c in clusters:
        E = evecs[:, np.sort(n - 1 - c)]
        ME = M @ E
        if max_abs(ME - E) <= tol.check_tol:
            fixed.append(E)
        elif max_abs(ME + E) <= tol.check_tol:
            negated.append(E)
        else:
            rotations.append(_rotation_blocks(M, E, thetas[c]))
    return _assemble(M, *(np.concatenate(part, axis=-1) for part in zip(*rotations)),
                     fixed, negated, resid, tol)


def _assemble(M: np.ndarray, angles: np.ndarray, U: np.ndarray, W: np.ndarray,
              fixed: list, negated: list, resid: float, tol: Tolerance) -> NormalForm:
    """The form of the blocks (``angles``, ``U``, ``W``) and the +-1 bases,
    its normal-form residual checked at ``check_tol``."""
    # blocks by ascending angle, each as the column pair (u, w)
    n = M.shape[0]
    order = np.argsort(angles, kind="stable")
    k = 2 * order.size
    basis = np.empty((n, n))
    basis[:, 0:k:2], basis[:, 1:k:2] = U[:, order], W[:, order]
    if fixed or negated:
        basis[:, k:] = np.concatenate(fixed + negated, axis=1)
    basis.setflags(write=False)
    nf = _form(angles=tuple(angles[order].tolist()),
               fix_dim=sum(f.shape[1] for f in fixed),
               neg_dim=sum(f.shape[1] for f in negated),
               basis=basis, orthogonality_residual=resid)
    require(max_abs(basis.T @ M @ basis - nf.block_matrix()), tol.check_tol,
            NumericalFailure, "normal-form residual")
    return nf


def _form(**fields) -> NormalForm:
    """A normal form of ``fields``, which :func:`orthogonal_normal_form`
    has checked, built without the constructor's frozen-field writes: a
    ``_SpectralForm`` when ``fields`` hold its ``_spectral``."""
    nf = (object.__new__(_SpectralForm) if "_spectral" in fields
          else object.__new__(NormalForm))
    nf.__dict__.update(fields)
    return nf


def _require_even(thetas: np.ndarray) -> None:
    """``NumericalFailure`` unless the eigenspace of ``thetas`` has even dimension."""
    if thetas.size % 2:
        raise NumericalFailure(f"odd-dimensional eigenspace ({thetas.size}) at angle "
                               f"{thetas.mean():.6f}")


def _require_sine_floor(thetas: np.ndarray, low: float, high: float) -> None:
    """``NumericalFailure`` unless the middle eigenvalues ``low``, ``high`` of
    the skew part ``-i (S - S.T)/2`` of the eigenspace of ``thetas`` lie
    beyond the sine floor, below ``-RANK_TOL`` and above ``RANK_TOL``."""
    if not (low < -RANK_TOL and high > RANK_TOL):
        m = thetas.size // 2
        raise NumericalFailure(
            f"block angle too close to 0 or pi to extract: the skew part "
            f"of the {thetas.size}-dim eigenspace at angle {thetas.mean():.6f} "
            f"does not split {m}/{m} beyond the sine floor {RANK_TOL:g} "
            f"(middle eigenvalues {low:.3e}, {high:.3e})"
        )


def _eigenplane(S: np.ndarray) -> tuple:
    """Ascending eigenvalues of the Hermitian ``H = -i (S - S.T)/2``, and
    orthonormal eigenvectors of the top half of them, from one eigensolve
    (of each matrix of a stack).

    For an orthogonal S, H has eigenvalues ``+-sin`` of its block angles,
    and an eigenvector for ``+sin(a)`` is an ``exp(i a)`` eigenvector of
    S; for a rotation by a, the top half spans its ``exp(i a)`` eigenplane.
    """
    sines, Z = np.linalg.eigh(-0.5j * (S - S.swapaxes(-1, -2)))
    return sines, Z[..., S.shape[-1] // 2:]


def _rotation_blocks(M: np.ndarray, E: np.ndarray | None, thetas: np.ndarray) -> tuple:
    """Angles and column pairs (U, W) of a rotation cluster's blocks.

    ``E`` is the cluster's basis, None for the whole space (``E^T M E``
    is then ``M``); only the errors read its eigen-angles ``thetas``.
    ``S = E.T @ M @ E`` is orthogonal, and one Hermitian eigensolve of
    ``H = -i (S - S.T)/2`` splits it: H has eigenvalues ``+-sin`` of the
    block angles, m of each sign, which must lie beyond the sine floor.
    An eigenvector ``z`` for ``+sin`` is an ``exp(i a)`` eigenvector of
    ``S``, so ``u = sqrt(2) E Re z`` and ``w = -sqrt(2) E Im z`` span one
    block with ``M u = cos(a) u + sin(a) w``; distinct such ``z`` give
    orthogonal blocks.  Each block angle is read off the block's own
    action, ``atan2(|M u - c u|, c)`` with ``c = u . M u``.
    """
    _require_even(thetas)
    m = thetas.size // 2
    S = M if E is None else E.T @ M @ E
    sines, Z = _eigenplane(S)
    _require_sine_floor(thetas, sines[m - 1], sines[m])
    U = math.sqrt(2.0) * (Z.real if E is None else E @ Z.real)
    W = -math.sqrt(2.0) * (Z.imag if E is None else E @ Z.imag)
    MU = M @ U
    cos = np.einsum("ij,ij->j", U, MU)
    sin = np.linalg.norm(MU - cos * U, axis=0)
    return np.arctan2(sin, cos), U, W


def as_rotation(M, tol: Tolerance = DEFAULT_TOL) -> Rotation:
    """Certify that ``M`` turns every vector by one fixed angle.

    Succeeds when the block form is all rotation blocks at one common
    angle, or purely the identity, or purely its negative.  The returned
    angle is 0 for the identity and pi for the negative.  A form of one
    cluster is judged by the block angles of its read (see
    :func:`orthogonal_normal_form`): the ``arccos`` of each cosine away
    from 0 and pi, the paired ``atan2(sine, cosine)`` within pi/6 of
    them.  Their spread must be within ``angle_tol``, the angle is the
    one that read gives, and the form's basis is not built.  Any other
    form with rotation blocks has a fixed or negated space, or blocks of
    distinct angles, and is refused.

    The returned rotation's ``matrix`` is a read-only copy of ``M`` (the
    normal form's own, on a proper rotation), so writing into ``M``
    afterwards changes neither the rotation nor any label of it.
    """
    nf = orthogonal_normal_form(M, tol)
    if (spectral := nf._spectral) is not None:
        spread = max(listed := spectral.angles.tolist()) - min(listed)
    else:
        if not nf.angles:
            if nf.fix_dim and nf.neg_dim:
                raise NotARotation(
                    f"mixed +1 and -1 blocks (fix={nf.fix_dim}, neg={nf.neg_dim})")
            return _trusted(np.array(M, dtype=float), 0.0 if nf.fix_dim else math.pi, nf)
        if nf.fix_dim or nf.neg_dim:
            raise NotARotation("rotation blocks mixed with +-1 blocks "
                               f"(fix={nf.fix_dim}, neg={nf.neg_dim})")
        angles = nf.angles
        spread = angles[-1] - angles[0]
    require(spread, tol.angle_tol, NotARotation, "distinct block angles, spread")
    if spectral is not None:
        return _trusted(spectral.matrix, spectral.angle, nf)
    return _trusted(np.array(M, dtype=float), float(np.add.reduce(angles)) / len(angles), nf)


def _trusted(matrix: np.ndarray, angle: float,
             normal_form: NormalForm | None = None) -> Rotation:
    """A rotation of ``matrix``, one square float matrix or a stack of them,
    by ``angle`` in [0, pi], built without the constructor's checks: they
    are certified by ``normal_form`` (:func:`as_rotation`), or computed from
    a certified rotation.  The matrix is made read-only, as a certified one is."""
    if matrix.flags.writeable:
        matrix.setflags(write=False)
    r = object.__new__(Rotation)
    r.__dict__.update(matrix=matrix, angle=angle, normal_form=normal_form)
    return r


def rho(d: Rotation, tol: Tolerance = DEFAULT_TOL) -> Rotation:
    """Quarter-turn part of a proper rotation.

    For a rotation with matrix M and angle a in (0, pi), the matrix
    ``S = (M - cos(a) I) / sin(a)`` is again a rotation, with angle pi/2.
    It is read off the skew part ``M - M^T = 2 sin(a) S``, scaled to the
    norm ``sqrt(n)`` of S, so the claimed angle does not enter.  S is
    exactly skew, and a skew orthogonal matrix turns every vector by
    exactly pi/2, so S is certified by the orthogonality check alone
    (``NotOrthogonal``, as :func:`as_rotation` raises first) and no
    normal form is computed; the result's ``normal_form`` is None.

    A rotation holding a stack of matrices (README, "Stacks") gives the
    rotation holding the stack of their quarter-turn parts, each matrix
    as it alone gives it.
    """
    K = d.matrix - d.matrix.swapaxes(-1, -2)
    norm = frobenius(K)
    if d.kind is not RotationKind.PROPER or not np.logical_and.reduce(norm, axis=None):
        bad = (norm == 0.0) | (d.kind is not RotationKind.PROPER)
        raise NotProper(f"angle {d.angle} with skew part of norm "
                        f"{norm.reshape(-1)[bad.argmax()]:.3e} is no proper rotation")
    S = K * (math.sqrt(d.dim) / norm)[..., None, None]
    require(orthonormality_residual(S), tol.residual_tol, NotOrthogonal,
            "orthogonality residual")
    return _trusted(S, math.pi / 2)


def unrho(s: Rotation, alpha: float, tol: Tolerance = DEFAULT_TOL) -> Rotation:
    """Proper rotation with angle ``alpha`` whose quarter-turn part is ``s``.

    Inverse of :func:`rho`: returns ``cos(alpha) I + sin(alpha) S``.
    ``alpha`` must be a real number strictly inside (0, pi), not a bool,
    and ``s`` must have angle pi/2 within ``angle_tol``; else ``BadAngle``.
    """
    require(abs(s.angle - math.pi / 2), tol.angle_tol, BadAngle,
            f"input angle {s.angle!r}: distance from pi/2")
    if not is_number(alpha) or not 0.0 < alpha < math.pi:
        raise BadAngle(f"alpha {alpha!r} is not a real number in (0, pi)")
    M = math.cos(alpha) * np.eye(s.dim) + math.sin(alpha) * s.matrix
    return as_rotation(M, tol)
