"""Small dense linear-algebra helpers used by every other module.

Everything operates on plain numpy arrays.  Ambient dimensions run from
a handful to a few hundred, so each routine rests on a dense O(n^3)
factorization (an SVD or a symmetric eigensolve) and makes its rank
decisions against explicit tolerances.

A stack is a 3-d array of matrices on a leading axis, one per piece, as
``numpy.linalg`` takes it; :func:`require`,
:func:`orthonormality_residual`, :func:`max_abs_each` and
:func:`frobenius` judge or measure each piece of one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import BadParameter


# Every rank decision cuts singular values at RANK_TOL relative to the
# largest, and the sine floor of the normal form is RANK_TOL absolute.
RANK_TOL = 1e-9


def is_number(x, integral: bool = False) -> bool:
    """Whether ``x`` is a real number (an integer, if ``integral``) and no bool.

    bool is an int subclass, but True is no tolerance, count, sign or angle.
    """
    return (isinstance(x, numbers.Integral if integral else numbers.Real)
            and not isinstance(x, bool))


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used throughout the package.

    ``residual_tol`` bounds equation residuals of the input and
    ``angle_tol`` compares angles in radians.  ``check_tol`` is derived,
    ten times ``residual_tol``: it bounds the residuals of what the
    package computes from a certified input.
    """

    residual_tol: float = 1e-9
    angle_tol: float = 1e-7

    def __post_init__(self):
        # a NaN bound would fail every verdict of ``require``, an infinite one pass it
        if not all(is_number(t) and 0 < t < np.inf for t in astuple(self)):
            raise ValueError("tolerances must be finite and strictly positive")

    @property
    def check_tol(self) -> float:
        return 10 * self.residual_tol

    def eigenvector_gap(self, n: int) -> float:
        """Smallest eigenvalue gap, ``n eps / residual_tol``, at which an n x n
        symmetric eigensolve resolves its eigenvectors to ``residual_tol``."""
        return n * np.finfo(float).eps / self.residual_tol


DEFAULT_TOL = Tolerance()


def require(measured, bound: float, error, what: str) -> None:
    """The one verdict rule: raise ``error`` unless ``measured <= bound``.

    NaN fails.  ``what`` names the measured quantity; the message is
    ``"{what} {measured:.3e} exceeds {bound:.3e}"``.  An array holds one
    measure per piece of a stack, in order, and the first that fails
    raises.
    """
    if type(measured) is np.ndarray:
        passed = measured <= bound
        if passed.all():
            return
        measured = float(measured.reshape(-1)[passed.reshape(-1).argmin()])
    if not measured <= bound:
        raise error(f"{what} {measured:.3e} exceeds {bound:.3e}")


def array_fields_equal(a, b):
    """``==`` for a dataclass with numpy array fields.

    The generated ``__eq__`` compares the fields as one tuple, which asks
    an array for its truth value and raises.  This compares each field
    with ``compare=True`` by ``np.array_equal``: same shape, equal
    entries.  An instance of another class gives ``NotImplemented``.
    """
    if b.__class__ is not a.__class__:
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in fields(a) if f.compare)


def max_abs(a) -> float:
    """Entrywise max-magnitude norm; 0.0 for empty arrays."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.maximum.reduce(np.abs(a), axis=None))


def max_abs_each(a):
    """:func:`max_abs` of each matrix of a stack, over its last two axes;
    one 2-d array gives a numpy scalar.  NaN passes through."""
    return np.maximum.reduce(np.abs(a), axis=(-2, -1), initial=0.0)


def frobenius(X):
    """Frobenius norm of a matrix, or of each matrix of a stack, bit for
    bit as ``np.linalg.norm`` gives it for one matrix: the square root of
    one dot product of the flattened entries with themselves, which
    ``matmul`` takes on a stack as a row times a column."""
    flat = X.reshape(X.shape[:-2] + (-1,))
    if flat.ndim == 1:
        return np.sqrt(flat.dot(flat))
    return np.sqrt((flat[..., None, :] @ flat[..., :, None])[..., 0, 0])


def orthonormality_residual(X):
    """``max_abs(X^T X - I)`` for a real matrix X of columns (with no warning,
    NaN for a non-finite entry and inf for one whose square overflows),
    or one such residual per matrix of a stack."""
    if X.ndim == 2 and not math.isfinite(np.vdot(X, X)):
        return math.inf if np.isfinite(X).all() else math.nan
    G = X.swapaxes(-1, -2) @ X
    if G.dtype != np.float64:   # the subtraction below is done in place
        G = G.astype(np.result_type(G.dtype, np.float64))
    if G.ndim > 2:
        G -= np.eye(G.shape[-1])
        return max_abs_each(G)
    G.reshape(-1)[::G.shape[0] + 1] -= 1.0
    return max_abs(G)


def numerical_rank(s) -> int:
    """Count of the descending singular values ``s`` above ``RANK_TOL s[0]``.

    0 when ``s[0] <= RANK_TOL``: inputs are unit scale, and pure roundoff
    must have rank 0 rather than keep every column.
    """
    if s.size == 0 or s[0] <= RANK_TOL:
        return 0
    return int(np.count_nonzero(s > RANK_TOL * s[0]))


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

    Returns a list of index arrays into the (ascending) sort order, one
    per cluster, and no cluster for no values.  A cluster ends where the
    next sorted value is not within ``gap`` of the last; a NaN ends one.
    """
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")
    s = values[order].tolist()
    ends = [i for i in range(1, len(s)) if not s[i] - s[i - 1] <= gap]
    return [order[a:b] for a, b in zip([0, *ends], [*ends, len(s)])] if s else []


def real_array(a, name: str = "matrix") -> np.ndarray:
    """``a`` as a float array; ``BadParameter`` unless it holds real numbers.

    The dtype is checked before any cast, so complex, boolean, string
    and ragged input is refused rather than coerced.
    """
    try:
        a = np.asarray(a)
    except ValueError as exc:
        raise BadParameter(f"{name} is not a numeric array") from exc
    if a.dtype.kind not in "iuf":
        raise BadParameter(f"{name} must hold real numbers, got dtype {a.dtype}")
    return a.astype(float, copy=False)


def orthonormalize(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as columns) for the span of the given columns.

    ``vectors`` is a 2-d array of columns, real or complex.  Linearly
    dependent directions are dropped; an all-zero input yields a matrix
    with zero columns.
    """
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    return u[:, :numerical_rank(s)]


def symmetric_eigen(S: np.ndarray):
    """Eigendecomposition of a real symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order and eigenvectors as matching orthonormal columns.
    Only the lower triangle of ``S`` is read.
    """
    w, V = np.linalg.eigh(S)
    return w[::-1].copy(), np.ascontiguousarray(V[:, ::-1])


def subspace_meet(U: np.ndarray, W: np.ndarray):
    """Orthonormal basis of the intersection of two subspaces.

    Both arguments are orthonormal column bases over the same ambient
    space (real or complex).  The intersection is read off the
    nullspace of the stacked matrix ``[U | -W]``: a nullspace vector
    ``(x, y)`` has ``U x = W y``, which lies in both spans.  Returns a
    matrix with zero columns when the intersection is trivial.

    Stacks of bases (a leading axis on both) give a list with the meet
    of each pair of pieces, from one ``svd`` of the stacked ``[U | -W]``;
    the pieces of full rank, by :func:`numerical_rank`'s rule, are found
    empty in one array op, and only a non-empty meet is orthonormalized.
    """
    _, s, vh = np.linalg.svd(np.concatenate((U, -W), axis=-1), full_matrices=True)
    if U.ndim == 2:
        return _meet(U, s, vh)
    top = s[:, 0]   # s descends: a meet is empty when every value counts, the last too
    empty = (top > RANK_TOL) & (s[:, -1] > RANK_TOL * top) & (s.shape[1] == vh.shape[1])
    return [U[i, :, :0] if none else _meet(U[i], s[i], vh[i])
            for i, none in enumerate(empty.tolist())]


def _meet(U: np.ndarray, s: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """The meet of ``span(U)`` and ``span(W)`` from the SVD ``(s, vh)`` of ``[U | -W]``."""
    xs = vh[numerical_rank(s):, :U.shape[1]].conj().T
    return orthonormalize(U @ xs) if xs.shape[1] else U[:, :0]


def orthonormal_complement(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of ``span(basis)``.

    ``basis`` is a 2-d array of columns; zero columns give the identity.
    A real square basis of m columns whose :func:`orthonormality_residual`
    is at most 1/(2m) spans the whole space and gets ``basis[:, :0]``
    with no SVD.  That is the SVD's answer: by Gershgorin every
    eigenvalue of its Gram matrix lies within m times the residual of 1,
    so every singular value lies in [sqrt(1/2), sqrt(3/2)] and
    :func:`numerical_rank` counts all m.
    """
    m, k = basis.shape
    if m == k and basis.dtype.kind == "f" and 2 * m * orthonormality_residual(basis) <= 1:
        return basis[:, :0]
    u, s, _ = np.linalg.svd(basis, full_matrices=True)
    return u[:, numerical_rank(s):]
