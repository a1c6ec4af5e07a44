"""Complexified eigenplanes of a rotation pair and the antilinear operator.

A proper rotation, complexified, splits C^n into two conjugate
eigenplanes.  For a pair (d, e) this gives planes A, B from d and C, D
from e.  When A meets neither C nor D, projecting C into A and B and
conjugating back defines a bijective antilinear operator on A whose
square is an ordinary linear map; its spectrum decides whether the pair
admits a small invariant subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, NumericalFailure
from .linalg import (DEFAULT_TOL, RANK_TOL, Tolerance, max_abs_each, numerical_rank,
                     require)
from .orthogonal import Rotation, _eigenplane


@dataclass(frozen=True)
class AntilinearOp:
    """Conjugate-linear operator on an eigenplane, in coordinates.

    Acts on A-coordinate vectors by ``x -> M @ conj(x)``.  ``basis_a``
    maps coordinates back to the ambient space.  Both may hold a stack,
    one operator per piece, as :func:`build_T` builds it for stacked
    planes; ``apply`` is for one operator.
    """

    M: np.ndarray
    basis_a: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.M @ np.conj(x)


def eigenplanes(d: Rotation, e: Rotation,
                tol: Tolerance = DEFAULT_TOL) -> tuple:
    """Eigenplane bases ``(A, C)`` of ``d`` and ``e``.

    Both rotations are proper and act on the same even-dimensional
    space, as :func:`~rotpair.decompose.two_plane_exists` checks.  The
    bases are orthonormal, and ``B = conj(A)``, ``D = conj(C)``.  The plane
    of a rotation M by a is its ``exp(i a)`` eigenspace, the ``+sin(a)``
    half of one Hermitian eigensolve of ``-i (M - M.T)/2``.  Each
    plane P of a matrix M is judged at ``check_tol`` by ``max_abs(M P -
    lam P)`` for the mean eigenvalue ``lam = tr(P^H M P) / m`` that M
    shows on P's m columns: only the matrices are read, no angle.

    For rotations holding stacks of k matrices (README, "Stacks"), A
    and C are stacks of k bases.  Both sides' planes come from one
    ``eigh`` of the two matrices (or stacks) stacked together.
    """
    S = np.array((d.matrix, e.matrix))
    planes = _eigenplane(S)[1]
    SP = S @ planes
    lam = (planes.conj() * SP).sum(axis=(-2, -1)) / planes.shape[-1]
    resid = max_abs_each(SP - lam[..., None, None] * planes)
    # one residual per piece, d's before e's
    require(resid.T, tol.check_tol, NumericalFailure, "eigenplane residual")
    return planes[0], planes[1]


def build_T(A: np.ndarray, C: np.ndarray) -> AntilinearOp:
    """Antilinear operator on A obtained by factoring C through A and B.

    In coordinates the operator is ``x -> M conj(x)`` with
    ``M = conj(G_BC @ inv(G_AC))`` where ``G_AC = A^H C`` and
    ``G_BC = B^H C = A^T C`` are the Gram matrices of the restricted
    projections; their singular values are the cosines and sines of
    the principal angles phi between A and C.  So ``G_BC`` is singular
    exactly when A meets C, and ``G_AC`` when A meets D.  The caller's
    eigenplane meets are the one overlap rule: they take every phi with
    ``tan(phi/2) <= RANK_TOL`` as a meet, which covers either Gram
    matrix falling below full relative rank, so M is invertible here.

    Stacked bases A and C give the operator of each piece, from one
    ``inv`` of the stacked ``G_AC``.
    """
    G_AC = A.conj().swapaxes(-1, -2) @ C
    G_BC = A.swapaxes(-1, -2) @ C
    return AntilinearOp(M=np.conj(G_BC @ np.linalg.inv(G_AC)), basis_a=A)


def t_squared(T: AntilinearOp) -> np.ndarray:
    """Coordinate matrix of the (linear) square of the antilinear operator."""
    return T.M @ np.conj(T.M)


def antilinear_invariant_line(T: AntilinearOp,
                              tol: Tolerance = DEFAULT_TOL):
    """A unit vector spanning an invariant line of ``T``, if one exists.

    The square N of the operator is linear; an invariant line spanned by
    u with ``T u = mu u`` gives ``N u = |mu|^2 u``, and T is bijective,
    so a line needs a real eigenvalue lambda > 0.  Eigenvalues count as
    real when ``|Im| <= RANK_TOL * |lambda|`` and as positive when
    ``Re > RANK_TOL * ||N||``; the small negative eigenvalue
    ``-tan(theta/2)^2`` of a 4-block with twist theta near 0 is not a
    line.  Given N u = lambda u, either T u is already parallel to u,
    or ``T u + sqrt(lambda) u`` is fixed up to the factor sqrt(lambda).
    Returns None when no such eigenvalue exists.  An operator with a NaN
    or infinite entry raises ``BadParameter``.

    An operator holding a stack (README, "Stacks") gives a list with one
    answer per piece, from one values-only ``svd`` and one ``eig`` of
    the stacked squares.
    """
    if not np.isfinite(T.M).all():
        raise BadParameter("operator has non-finite entries")
    N = t_squared(T)
    norm_n = np.linalg.svd(N, compute_uv=False)[..., 0]   # the spectral norm
    if not norm_n.all():
        raise NumericalFailure("operator square vanishes for a bijective operator")
    evals, evecs = np.linalg.eig(N)
    m = N.shape[-1]
    lines = []
    for k, (lams, norm) in enumerate(zip(evals.reshape(-1, m).tolist(),
                                         norm_n.reshape(-1).tolist())):
        best = None
        for i, lam in enumerate(lams):
            if abs(lam.imag) > RANK_TOL * abs(lam):
                continue
            if lam.real <= RANK_TOL * norm:
                continue
            if best is None or lam.real > lams[best].real:
                best = i
        lines.append(None if best is None
                     else _fixed_line(T.M.reshape(-1, m, m)[k],
                                      evecs.reshape(-1, m, m)[k][:, best],
                                      lams[best].real, tol))
    return lines if T.M.ndim > 2 else lines[0]


def _fixed_line(M: np.ndarray, u: np.ndarray, lam: float, tol: Tolerance):
    """Unit vector of an invariant line of ``x -> M conj(x)``, from an
    eigenvector u of its square with eigenvalue lam > 0."""
    u = u / np.linalg.norm(u)
    Tu = M @ np.conj(u)
    s = np.linalg.svd(np.column_stack([u, Tu]), compute_uv=False)
    if numerical_rank(s) < 2:
        v = u
    else:
        v = Tu + math.sqrt(lam) * u
        v = v / np.linalg.norm(v)
    Tv = M @ np.conj(v)
    mu = complex(np.vdot(v, Tv))
    require(float(np.linalg.norm(Tv - mu * v)), tol.check_tol,
            NumericalFailure, "invariant-line residual")
    return v
