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

import numpy as np

from .errors import (
    BadAngle,
    BadDimension,
    NotARotation,
    NotOrthogonal,
    NotProper,
    NumericalFailure,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    max_abs,
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


@dataclass(frozen=True)
class NormalForm:
    """Block form of an orthogonal matrix.

    ``angles`` holds one value per 2x2 rotation block, sorted ascending,
    each strictly inside (0, pi).  ``fix_dim`` and ``neg_dim`` count the
    +1 and -1 one-dimensional blocks.  ``basis`` has orthonormal columns
    ordered to match: rotation-block pairs first, then fixed vectors,
    then negated vectors, so that ``basis.T @ M @ basis`` equals
    ``block_matrix()``.
    """

    angles: tuple
    fix_dim: int
    neg_dim: int
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def block_matrix(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        pos = 0
        for a in self.angles:
            out[pos:pos + 2, pos:pos + 2] = rot2(a)
            pos += 2
        for _ in range(self.fix_dim):
            out[pos, pos] = 1.0
            pos += 1
        for _ in range(self.neg_dim):
            out[pos, pos] = -1.0
            pos += 1
        return out


@dataclass(frozen=True)
class Rotation:
    """An orthogonal matrix that turns every vector by one fixed angle.

    ``angle`` is in [0, pi]; 0 and pi mean the identity and its
    negative.  Instances are normally produced by :func:`as_rotation`,
    which verifies the defining property and keeps the block form that
    certified it in ``normal_form``.  Building one directly, or with
    ``dataclasses.replace``, skips that verification and leaves
    ``normal_form`` as None, so a form is never carried over to a new
    matrix.
    """

    matrix: np.ndarray
    angle: float
    normal_form: NormalForm | None = field(default=None, init=False,
                                           repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def kind(self) -> RotationKind:
        if self.angle == 0.0:
            return RotationKind.IDENTITY
        if self.angle == math.pi:
            return RotationKind.NEG_IDENTITY
        return RotationKind.PROPER


def _check_orthogonal(M: np.ndarray, tol: Tolerance) -> None:
    resid = max_abs(M.T @ M - np.eye(M.shape[0]))
    if not resid <= tol.residual_tol:
        raise NotOrthogonal(
            f"orthogonality residual {resid:.3e} exceeds {tol.residual_tol:.3e}"
        )


def orthogonal_normal_form(M, tol: Tolerance = DEFAULT_TOL) -> NormalForm:
    """Block form of an orthogonal matrix.

    The symmetric part ``(M + M.T)/2`` commutes with ``M``, and on each
    of its eigenspaces ``M`` acts as a rotation with cosine equal to the
    eigenvalue.  Eigenvalues are clustered in angle space at
    ``angle_tol``.  Clusters next to 0 or pi are tried as fixed or
    negated space first, certified by a direct residual check; a failed
    certificate falls back to rotation-block extraction, so near-boundary
    angles still come out as blocks.

    A rotation cluster with orthonormal basis ``E`` (n x 2m) is split by
    one Hermitian eigensolve.  ``S = E.T @ M @ E`` is orthogonal, and
    ``H = -i (S - S.T)/2`` has eigenvalues ``+-sin`` of the block angles,
    m of each sign.  An eigenvector ``z`` for ``+sin`` is an ``exp(i a)``
    eigenvector of ``S``, so ``u = sqrt(2) E Re z`` and
    ``w = -sqrt(2) E Im z`` span one block with ``M u = cos(a) u +
    sin(a) w``; distinct such ``z`` give orthogonal blocks.  Each block
    angle is read off the block's own action, ``atan2(|M u - c u|, c)``
    with ``c = u . M u``.  The split must leave m eigenvalues of H below
    ``-1e-9`` and m above ``1e-9`` (the sine floor below which a block
    is too close to 0 or pi to extract).  Within a repeated-angle
    cluster the blocks are not unique; the ones returned are
    deterministic for a given input.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise BadDimension(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    if n == 0:
        raise BadDimension("zero-dimensional space")
    _check_orthogonal(M, tol)

    evals, evecs = symmetric_eigen((M + M.T) / 2.0, tol)
    thetas = np.arccos(np.clip(evals, -1.0, 1.0))

    # arccos amplifies eigenvalue noise of order n*eps into angle noise
    # of order sqrt(n*eps) next to the endpoints, so the snap-to-scalar
    # window must widen to that floor; snaps are certified below and a
    # failed certificate falls back to block extraction.
    snap = max(tol.angle_tol, math.sqrt(1024.0 * n * np.finfo(float).eps))

    blocks = []   # (angle, u, w)
    fixed = []
    negated = []
    for cluster in single_linkage(thetas, tol.angle_tol):
        mean_angle = float(np.mean(thetas[cluster]))
        E = evecs[:, cluster]
        if mean_angle < snap:
            resid = max_abs(M @ E - E)
            if resid <= 10 * tol.residual_tol:
                fixed.extend(E.T)
                continue
            if mean_angle < tol.angle_tol:
                raise NumericalFailure(
                    f"fixed-space residual {resid:.3e}; matrix does not act "
                    "as the identity on its cosine-1 eigenspace"
                )
        elif mean_angle > math.pi - snap:
            resid = max_abs(M @ E + E)
            if resid <= 10 * tol.residual_tol:
                negated.extend(E.T)
                continue
            if mean_angle > math.pi - tol.angle_tol:
                raise NumericalFailure(
                    f"negated-space residual {resid:.3e}; matrix does not act "
                    "as -identity on its cosine -1 eigenspace"
                )
        if E.shape[1] % 2:
            raise NumericalFailure(
                f"odd-dimensional eigenspace ({E.shape[1]}) at angle "
                f"{mean_angle:.6f}"
            )
        m = E.shape[1] // 2
        S = E.T @ M @ E
        sines, Z = np.linalg.eigh(-0.5j * (S - S.T))
        if not (sines[m - 1] < -1e-9 and sines[m] > 1e-9):
            raise NumericalFailure(
                f"block angle too close to 0 or pi to extract: the skew part "
                f"of the {2 * m}-dim eigenspace at angle {mean_angle:.6f} "
                f"does not split {m}/{m} beyond the sine floor 1e-9 "
                f"(middle eigenvalues {sines[m - 1]:.3e}, {sines[m]:.3e})"
            )
        U = math.sqrt(2.0) * (E @ Z[:, m:].real)
        W = -math.sqrt(2.0) * (E @ Z[:, m:].imag)
        MU = M @ U
        cos = np.einsum("ij,ij->j", U, MU)
        sin = np.linalg.norm(MU - cos * U, axis=0)
        for a, u, w in zip(np.arctan2(sin, cos), U.T, W.T):
            blocks.append((float(a), u, w))

    blocks.sort(key=lambda t: t[0])
    cols = []
    for _, u, w in blocks:
        cols.extend([u, w])
    cols.extend(fixed)
    cols.extend(negated)
    basis = np.column_stack(cols)
    nf = NormalForm(
        angles=tuple(a for a, _, _ in blocks),
        fix_dim=len(fixed),
        neg_dim=len(negated),
        basis=basis,
    )
    resid = max_abs(basis.T @ M @ basis - nf.block_matrix())
    if resid > 10 * tol.residual_tol:
        raise NumericalFailure(f"normal-form residual {resid:.3e}")
    return nf


def as_rotation(M, tol: Tolerance = DEFAULT_TOL) -> Rotation:
    """Certify that ``M`` turns every vector by one fixed angle.

    Succeeds when the block form is all rotation blocks at one common
    angle, or purely the identity, or purely its negative.  The returned
    angle is 0 for the identity, pi for the negative, and otherwise the
    mean of the per-block angles (which agree within ``angle_tol``).
    """
    M = np.asarray(M, dtype=float)
    nf = orthogonal_normal_form(M, tol)
    if not nf.angles:
        if nf.fix_dim and nf.neg_dim:
            raise NotARotation(
                f"mixed +1 and -1 blocks (fix={nf.fix_dim}, neg={nf.neg_dim})"
            )
        return _certified(M, 0.0 if nf.fix_dim else math.pi, nf)
    if nf.fix_dim or nf.neg_dim:
        raise NotARotation(
            "rotation blocks mixed with +-1 blocks "
            f"(fix={nf.fix_dim}, neg={nf.neg_dim})"
        )
    spread = nf.angles[-1] - nf.angles[0]
    if spread > tol.angle_tol:
        raise NotARotation(
            f"distinct block angles, spread {spread:.3e} exceeds "
            f"{tol.angle_tol:.3e}"
        )
    return _certified(M, float(np.mean(nf.angles)), nf)


def _certified(M: np.ndarray, angle: float, nf: NormalForm) -> Rotation:
    r = Rotation(matrix=M, angle=angle)
    object.__setattr__(r, "normal_form", nf)
    return r


def normal_form_of(r: Rotation, tol: Tolerance = DEFAULT_TOL) -> NormalForm:
    """The block form that certified ``r``, or a new one if it has none."""
    if r.normal_form is not None:
        return r.normal_form
    return orthogonal_normal_form(r.matrix, tol)


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
    """
    K = d.matrix - d.matrix.T
    norm = float(np.linalg.norm(K))
    if d.kind is not RotationKind.PROPER or norm == 0.0:
        raise NotProper(
            f"angle {d.angle} with skew part of norm {norm:.3e} is no proper rotation"
        )
    S = K * (math.sqrt(d.dim) / norm)
    _check_orthogonal(S, tol)
    return Rotation(matrix=S, angle=math.pi / 2)


def unrho(s: Rotation, alpha: float, tol: Tolerance = DEFAULT_TOL) -> Rotation:
    """Proper rotation with angle ``alpha`` whose quarter-turn part is ``s``.

    Inverse of :func:`rho`: returns ``cos(alpha) I + sin(alpha) S``.
    ``alpha`` must lie strictly inside (0, pi) and ``s`` must have angle
    pi/2 within ``angle_tol``.
    """
    if abs(s.angle - math.pi / 2) > tol.angle_tol:
        raise BadAngle(f"input angle {s.angle!r} is not pi/2")
    if not (0.0 < alpha < math.pi):
        raise BadAngle(f"alpha {alpha!r} outside (0, pi)")
    M = math.cos(alpha) * np.eye(s.dim) + math.sin(alpha) * s.matrix
    return as_rotation(M, tol)
