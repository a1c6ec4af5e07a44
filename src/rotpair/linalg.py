"""Small dense linear-algebra helpers used by every other module.

Everything operates on plain numpy arrays.  Ambient dimensions run from
a handful to a few hundred, so each routine rests on a dense O(n^3)
factorization (an SVD or a symmetric eigensolve) and makes its rank
decisions against explicit tolerances.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .errors import DimensionMismatch, NotSymmetric


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used throughout the package.

    ``residual_tol`` bounds equation residuals, ``angle_tol`` compares
    angles in radians, ``rank_tol`` drives rank decisions relative to
    the largest singular value.
    """

    residual_tol: float = 1e-9
    angle_tol: float = 1e-7
    rank_tol: float = 1e-9

    def __post_init__(self):
        # NaN or infinity would make every ``resid > tol`` check pass
        if not all(0 < t < np.inf for t in astuple(self)):
            raise ValueError("tolerances must be finite and strictly positive")


DEFAULT_TOL = Tolerance()


def max_abs(a) -> float:
    """Entrywise max-magnitude norm; 0.0 for empty arrays."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def block_diag(*blocks) -> np.ndarray:
    """Direct sum of 2-d blocks; array-likes such as ``[[-1.0]]`` accepted."""
    mats = [np.atleast_2d(b) for b in blocks]
    out = np.zeros(np.sum([m.shape for m in mats], axis=0), np.result_type(*mats))
    r, c = 0, 0
    for m in mats:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


def single_linkage(values, gap: float):
    """Single-linkage clustering of real values at threshold ``gap``.

    Returns a list of index arrays into the (ascending) sort order.
    """
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")
    clusters = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[clusters[-1][-1]] <= gap:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return [np.array(c) for c in clusters]


def orthonormalize(vectors, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) for the span of the given columns.

    ``vectors`` is a 2-d array of columns, real or complex; any other
    input raises ``DimensionMismatch``.  Linearly dependent directions
    are dropped.  An all-zero input yields a matrix with zero columns.
    """
    if not (isinstance(vectors, np.ndarray) and vectors.ndim == 2):
        raise DimensionMismatch("expected a 2-d array of columns")
    if vectors.shape[1] == 0:
        return vectors
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    # Absolute floor on top of the relative cut: inputs here are always
    # unit-scale, and a stack of pure roundoff noise must collapse to
    # rank 0 rather than keep every column.
    if s.size == 0 or s[0] <= tol.rank_tol:
        return vectors[:, :0]
    r = int(np.sum(s > tol.rank_tol * s[0]))
    return u[:, :r]


def symmetric_eigen(S, tol: Tolerance = DEFAULT_TOL):
    """Eigendecomposition of a real symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order and eigenvectors as matching orthonormal columns.

    Raises
    ------
    NotSymmetric
        If ``S`` deviates from its transpose beyond ``residual_tol``.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {S.shape}")
    asym = max_abs(S - S.T)
    if asym > tol.residual_tol:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {tol.residual_tol:.3e}")
    w, V = np.linalg.eigh((S + S.T) / 2.0)
    return w[::-1].copy(), np.ascontiguousarray(V[:, ::-1])


def subspace_meet(basis_u, basis_w, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the intersection of two subspaces.

    Both arguments must be orthonormal column bases over the same
    ambient space (real or complex).  The intersection is read off the
    nullspace of the stacked matrix ``[U | -W]``: a nullspace vector
    ``(x, y)`` has ``U x = W y``, which lies in both spans.  Returns a
    matrix with zero columns when the intersection is trivial.
    """
    U = np.asarray(basis_u)
    W = np.asarray(basis_w)
    if U.ndim != 2 or W.ndim != 2 or U.shape[0] != W.shape[0]:
        raise DimensionMismatch(
            f"ambient dimensions differ: {U.shape} vs {W.shape}"
        )
    if U.shape[1] == 0 or W.shape[1] == 0:
        return U[:, :0]
    stacked = np.hstack([U, -W])
    _, s, vh = np.linalg.svd(stacked, full_matrices=True)
    cols = stacked.shape[1]
    cutoff = tol.rank_tol * (s[0] if s.size else 1.0)
    null_vecs = []
    for i in range(cols):
        sv = s[i] if i < s.size else 0.0
        if sv <= cutoff:
            null_vecs.append(vh[i].conj())
    if not null_vecs:
        return U[:, :0]
    xs = np.column_stack([v[: U.shape[1]] for v in null_vecs])
    return orthonormalize(U @ xs, tol)


def orthonormal_complement(basis, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of ``span(basis)``.

    ``basis`` is a 2-d array of columns; zero columns give the identity.
    """
    B = np.asarray(basis)
    if B.ndim != 2:
        raise DimensionMismatch("expected a 2-d array of columns")
    if B.shape[1] == 0:
        return np.eye(B.shape[0], dtype=B.dtype)
    u, s, _ = np.linalg.svd(B, full_matrices=True)
    if s.size == 0 or s[0] <= tol.rank_tol:
        r = 0
    else:
        r = int(np.sum(s > tol.rank_tol * s[0]))
    return u[:, r:]
