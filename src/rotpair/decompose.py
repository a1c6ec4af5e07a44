"""Decomposition of a rotation pair into invariant blocks.

Every pair of rotations on a Euclidean space splits into an orthogonal
direct sum of jointly invariant subspaces of dimension 1, 2 or 4.  The
one unit of work is the certified :class:`InvariantBlock`: an
orthonormal basis with both restrictions to its span, as rotations by
the pair's own angles.  A pair with a +-I side takes one search step for
all its lines or planes.  A proper pair is first split into twist
clusters: on every irreducible block the inner product of ``d v`` and
``e v`` is the same for all unit v, so the eigenspaces of ``sym(d^T e)``
are jointly invariant; the clusters of one dimension are certified as
one stack.  :func:`decompose` then works off one list of pieces.  A
4-dimensional piece is one 4-block or two planes, and one
irreducibility verdict decides which, for all 4-dimensional clusters of
a pair in one call on the stack that certified them.  Any other piece
takes one search step through the complexified eigenplanes, and the
clusters of one other size take it together, in one call on their
stack: an overlap between the planes of the two rotations yields one
invariant 2-plane per dimension of the overlap, the overlap that the
piece's twist value names tried first, and otherwise the antilinear
operator on the first plane hands us a 4-dimensional block; its
invariant-line branch serves no input.  What the step leaves goes back
on the list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .antilinear import (
    AntilinearOp,
    antilinear_invariant_line,
    build_T,
    eigenplanes,
    t_squared,
)
from .errors import (BadDimension, BadParameter, NotOrthogonal, NotOrthogonalPair,
                     NotProper, NumericalFailure, RotPairError)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    array_fields_equal,
    max_abs_each,
    numerical_rank,
    orthonormal_complement,
    orthonormality_residual,
    orthonormalize,
    real_array,
    require,
    single_linkage,
    subspace_meet,
    symmetric_eigen,
)
from .orthogonal import Rotation, RotationKind, _trusted, as_rotation


@dataclass(frozen=True)
class InvariantBlock:
    """A jointly invariant subspace with the two restricted operators.

    ``basis`` has orthonormal columns in ambient coordinates, 1, 2 or 4
    of them in a block of :func:`decompose`; ``d_restricted`` and
    ``e_restricted`` are the operators expressed in that basis.  Every
    block the package builds also carries them as rotations by the
    pair's certified angles in ``rotations``, which :func:`is_irreducible`
    and ``classify_block`` read instead of certifying the block again.
    A block built directly, or with ``dataclasses.replace``, has
    ``rotations`` None.  Inside the package a block may hold a stack of
    k blocks of one pair, each array with a leading axis of k and the
    ``rotations`` holding stacks, as :func:`_certified_by_size` forms
    them and ``classify._stacked`` builds them; ``dim`` is a piece's.
    """

    basis: np.ndarray
    d_restricted: np.ndarray
    e_restricted: np.ndarray
    rotations: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)

    __eq__ = array_fields_equal
    __array_ufunc__ = None   # so that == with an ndarray answers False

    @property
    def dim(self) -> int:
        return self.basis.shape[-1]


@dataclass(frozen=True)
class InvariantDecomposition:
    blocks: tuple

    @property
    def dims(self) -> tuple:
        return tuple(b.dim for b in self.blocks)


def _invariance(basis: np.ndarray, d: Rotation, e: Rotation):
    """``(residual, [R_d, R_e])``: the worst invariance residual of
    ``span(basis)`` under both, and ``R = basis^H M basis`` for each,
    which is the restriction when the span is invariant, read-only.

    A stack of bases gives a residual array and stacked restrictions,
    one per piece, each piece's bit for bit as it gives alone.  A NaN
    residual passes through, so it fails ``require``.
    """
    H = basis.swapaxes(-1, -2)
    if H.dtype.kind == "c":
        H = H.conj()
    resid, restricted = [], []
    for M in (d.matrix, e.matrix):
        image = M @ basis
        R = H @ image
        R.setflags(write=False)
        resid.append(max_abs_each(image - basis @ R))
        restricted.append(R)
    return np.maximum(*resid), restricted


def _require_same_dim(d: Rotation, e: Rotation) -> None:
    """Refuse rotations of unequal dimension with ``NotOrthogonalPair``."""
    if d.dim != e.dim:
        raise NotOrthogonalPair(f"ambient dimensions differ: {d.dim} vs {e.dim}")


def invariance_residual(basis: np.ndarray, d: Rotation, e: Rotation) -> float:
    """Worst residual of ``span(basis)`` being invariant under both:
    ``max_abs(M B - B B^H M B)`` over the two matrices M.

    The basis is an array of real numbers, read by ``real_array``, or a
    complex array, such as an eigenplane, which is judged with ``B^H``.
    Other input (a string or ragged array, a complex list) and a NaN or
    infinite entry raise ``BadParameter``, rotations of unequal
    dimension ``NotOrthogonalPair``, and a basis that is not a 2-d
    array with one row per dimension ``BadDimension``.
    """
    _require_same_dim(d, e)
    if not (isinstance(basis, np.ndarray) and basis.dtype.kind == "c"):
        basis = real_array(basis, "basis")
    if basis.ndim != 2 or basis.shape[0] != d.dim:
        raise BadDimension(
            f"expected a basis of {d.dim} rows, got shape {basis.shape}")
    if not np.isfinite(basis).all():
        raise BadParameter("basis has non-finite entries")
    return float(_invariance(basis, d, e)[0])


def _spans(widths) -> list:
    """Slices of consecutive blocks of the given widths."""
    return [slice(j - w, j) for w, j in zip(widths, accumulate(widths))]


def _certified_block(basis: np.ndarray, d_r: Rotation,
                     e_r: Rotation) -> InvariantBlock:
    """The block on ``span(basis)`` whose restrictions are ``d_r`` and ``e_r``.

    Both must be certified rotations of the block's own coordinates;
    they become the block's ``rotations``.  The fields are set as
    ``InvariantBlock(basis, d_r.matrix, e_r.matrix)`` sets them, without
    its frozen-field writes.
    """
    block = object.__new__(InvariantBlock)
    block.__dict__.update(basis=basis, d_restricted=d_r.matrix, e_restricted=e_r.matrix,
                          rotations=(d_r, e_r))
    return block


def _real_plane(v: np.ndarray) -> np.ndarray:
    """Real 2-plane of a unit vector v of an eigenplane A, or the stack
    of the planes of the rows of v, from one array op.

    ``conj(v)`` lies in the conjugate plane B, which is orthogonal to A,
    so ``v^T v = 0``: the real and imaginary parts of v are orthogonal
    and of equal length, and ``sqrt(2) [Re v, Im v]`` is already an
    orthonormal basis.  It is read-only, as a remembered search keeps it.
    """
    plane = np.empty(v.shape + (2,))
    plane[..., 0], plane[..., 1] = v.real, v.imag
    plane *= math.sqrt(2.0)
    plane.setflags(write=False)
    return plane


def _planes_or_operator(d: Rotation, e: Rotation, tol: Tolerance) -> list:
    """Invariant 2-planes of a proper pair, or the antilinear operator.

    Returns, for each piece (one for a single pair), a tuple of plane
    bases, or the piece's :class:`AntilinearOp` when its eigenplanes do
    not meet.  Tries the eigenplane intersections first: a rotation turns
    every vector by its one angle, so each column of the first non-empty
    meet, A with C or A with ``D = conj(C)``, spans a jointly invariant
    plane with its conjugate, and the planes of distinct columns are
    orthogonal.  On a plane of orientation r, ``<d v, e v> = cos a cos b
    + r sin a sin b`` for every unit v, and A meets C when r = +1, D
    when r = -1.  So each piece first tries the meet that its
    ``tr(d^T e) / m`` names, D when that mean lies below ``cos a cos b``
    and C otherwise, and only a piece whose first meet is empty tries
    the other; on a piece with planes of both orientations the first
    planes found are those of the trace's sign.  Each column lies in A,
    so the planes of a meet are read off by one :func:`_real_plane` with
    no factorization; callers check the bases for orthonormality.
    The two meets are the one overlap rule: they count A as meeting C
    (or D) when a principal angle phi between them has ``tan(phi/2) <=
    RANK_TOL``, and :func:`build_T` is reached only when both are
    trivial.  The invariant-line branch serves no input (README, "How
    ``decompose`` works", shows why); it stays until ROADMAP item 1 frees
    ``build_T`` and ``antilinear_invariant_line`` from the tracer of
    ``perfbench``.

    The meets of all pieces are found together: one
    :func:`subspace_meet` of the stacked A with each piece's first
    plane, then one with the other plane for the pieces whose first meet
    is empty.  The pieces with no meet share one :func:`build_T` and one
    :func:`antilinear_invariant_line`.  A lone piece takes the
    single-piece form of each.  A call with the ``d``, ``e`` and ``tol``
    of a search that found a plane in :func:`two_plane_exists` returns it.
    """
    memo = d._search
    if memo is not None and memo[0] is e and memo[1] == tol:
        return memo[2]
    A, C = eigenplanes(d, e, tol)
    trace = (d.matrix * e.matrix).sum(axis=(-2, -1)) / d.dim
    minus = trace < math.cos(d.angle) * math.cos(e.angle)
    D = np.conj(C)
    if A.ndim == 2:
        for W in ((D, C) if minus else (C, D)):
            meet = subspace_meet(A, W)
            if meet.shape[1]:
                return [tuple(_real_plane(meet.T))]
        T = build_T(A, C)
        line = antilinear_invariant_line(T, tol)
        return [T if line is None else (_real_plane(A @ line),)]
    minus = minus[:, None, None]
    meets = subspace_meet(A, np.where(minus, D, C))
    rest = [i for i, meet in enumerate(meets) if not meet.shape[1]]
    if rest:
        other = np.where(minus, C, D)
        for i, meet in zip(rest, subspace_meet(A[rest], other[rest])):
            meets[i] = meet
        rest = [i for i in rest if not meets[i].shape[1]]
    found = [tuple(_real_plane(meet.T)) if meet.shape[1] else None for meet in meets]
    if rest:
        T = build_T(A[rest], C[rest])
        for j, (i, line) in enumerate(zip(rest, antilinear_invariant_line(T, tol))):
            found[i] = (AntilinearOp(T.M[j], T.basis_a[j]) if line is None
                        else (_real_plane(A[i] @ line),))
    return found


def _remember(d: Rotation, e: Rotation, tol: Tolerance, found: list) -> None:
    """Keep ``found`` on d as its search with e at tol if neither matrix can change."""
    if not (d.matrix.flags.writeable or e.matrix.flags.writeable):
        d.__dict__["_search"] = (e, tol, found)


def _piece(i: int, d: Rotation, e: Rotation) -> tuple:
    """Piece i of rotations that hold stacks, as a pair of rotations."""
    return _trusted(d.matrix[i], d.angle), _trusted(e.matrix[i], e.angle)


def _check_blocks(stacked: np.ndarray, d: Rotation, e: Rotation,
                  tol: Tolerance) -> list:
    """Check that the columns are orthonormal and jointly invariant.

    Both residuals are compared at ``check_tol``; a failure raises
    ``NumericalFailure`` with the residual.  Returns
    ``[stacked^T d stacked, stacked^T e stacked]``.  Bases and rotations
    that hold stacks are checked together, one residual per piece.
    """
    require(orthonormality_residual(stacked), tol.check_tol, NumericalFailure,
            "block basis orthonormality residual")
    resid, restricted = _invariance(stacked, d, e)
    require(resid, tol.check_tol, NumericalFailure, "block invariance residual")
    return restricted


def _require_proper_pair(d: Rotation, e: Rotation) -> None:
    """Refuse a side that is not proper, then sides of unequal dimension."""
    for r in (d, e):
        if r.kind is not RotationKind.PROPER:
            raise NotProper(f"angle {r.angle} is not strictly inside (0, pi)")
    _require_same_dim(d, e)


def two_plane_exists(d: Rotation, e: Rotation, tol: Tolerance = DEFAULT_TOL):
    """Whether the proper pair (d, e) leaves some 2-plane invariant.

    Returns ``(True, basis)`` with an orthonormal witness basis, the
    first plane the search step finds, or ``(False, None)``.  On a pair
    with planes of both orientations, which only a direct call gives,
    that plane follows the sign of the trace (see
    :func:`_planes_or_operator`).  The read-only witness is checked
    orthonormal and invariant under both rotations, at ``check_tol``, and
    its search is remembered (:func:`_remember`).  A rotation that is not
    proper raises ``NotProper``, a pair of unequal dimensions
    ``NotOrthogonalPair``, and a NaN or infinite entry ``BadParameter``.

    Rotations holding stacks of k matrices (README, "Stacks") give
    ``(flags, witnesses)``, a bool array of k flags and a tuple of k
    witness bases or None, each what that piece gives alone.
    """
    _require_proper_pair(d, e)
    if not (np.isfinite(d.matrix).all() and np.isfinite(e.matrix).all()):
        raise BadParameter("rotation matrix has non-finite entries")
    stacked = d.matrix.ndim > 2
    witnesses, found = [], _planes_or_operator(d, e, tol)
    for i, planes in enumerate(found):
        witnesses.append(planes[0] if type(planes) is tuple else None)
        if witnesses[-1] is not None:
            _check_blocks(witnesses[-1], *(_piece(i, d, e) if stacked else (d, e)), tol)
            _remember(d, e, tol, found)   # for the step that splits this piece
    if stacked:
        return np.array([w is not None for w in witnesses]), tuple(witnesses)
    return witnesses[0] is not None, witnesses[0]


def _block_from_operator(T: AntilinearOp) -> np.ndarray:
    """Basis of a 4-block from an eigenvector of the operator's square."""
    N = t_squared(T)
    evals, evecs = np.linalg.eig(N)
    u = evecs[:, np.lexsort((evals.imag, evals.real, -abs(evals)))[0]]
    u = u / np.linalg.norm(u)
    v = T.apply(u)
    s = np.linalg.svd(np.column_stack([u, v]), compute_uv=False)
    if numerical_rank(s) < 2:
        raise NumericalFailure(
            "operator eigenvector is parallel to its image; an invariant "
            "line should have been found instead"
        )
    u_amb = T.basis_a @ u
    v_amb = T.basis_a @ v
    basis = orthonormalize(
        np.column_stack([u_amb.real, u_amb.imag, v_amb.real, v_amb.imag])
    )
    if basis.shape[1] != 4:
        raise NumericalFailure(
            f"candidate block spans {basis.shape[1]} dimensions, expected 4"
        )
    return basis


def find_block(d: Rotation, e: Rotation, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """Every jointly invariant block that one search step determines.

    Returns a tuple of certified blocks of dimension 1, 2 or 4 with
    mutually orthogonal bases.  If either operator is the identity or its
    negative, the blocks are the planes of the normal form that certified
    the other operator, or every coordinate line when both are: one step,
    which :func:`decompose` takes directly.  Otherwise the pair is
    proper, and :func:`_planes_or_operator` gives either one plane per
    column of the first non-empty eigenplane meet, which are the blocks,
    or the :class:`AntilinearOp`, from which one 4-block is built.  On a
    piece with planes of both orientations, which only a merged twist
    cluster or a direct call gives, the planes of the orientation that
    the sign of the trace names come first; the rest are found by the
    next step, and the labels do not change.

    Each block is irreducible by construction: a line, a plane on which
    at least one operator is proper, or a 4-block reached only after
    both eigenplane meets came back empty, so that no invariant 2-plane
    exists.  The stacked basis is checked once to be orthonormal and
    invariant, both at ``check_tol``; a failure raises
    ``NumericalFailure``.  Each block's ``rotations`` are the diagonal
    blocks of the two restrictions that check forms, at the angles of
    ``d`` and ``e``.  The pair is one that :func:`_certify_pair` has
    returned, or a restriction of it; a pair that a verdict searched is
    not searched again (:func:`_planes_or_operator`).

    Proper rotations holding stacks of k matrices (README, "Stacks")
    give a tuple of k block tuples from one step; the pieces' bases are
    checked as one stack when they span as many columns, else one by one.
    """
    n = d.dim
    d_proper = d.kind is RotationKind.PROPER
    e_proper = e.kind is RotationKind.PROPER
    if not (d_proper and e_proper):
        if not d_proper and not e_proper:
            pieces = [np.hsplit(np.eye(n), n)]
        else:
            pieces = [np.hsplit((d if d_proper else e).normal_form.basis, n // 2)]
    else:
        pieces = [p if type(p) is tuple else (_block_from_operator(p),)
                  for p in _planes_or_operator(d, e, tol)]
    bases = [np.concatenate(p, axis=1) for p in pieces]
    if d.matrix.ndim == 2:
        checked = [_check_blocks(bases[0], d, e, tol)]
    elif len({b.shape[1] for b in bases}) == 1:
        checked = zip(*_check_blocks(np.array(bases), d, e, tol))
    else:
        checked = [_check_blocks(b, *_piece(i, d, e), tol) for i, b in enumerate(bases)]
    found = tuple(tuple(_certified_block(b, _trusted(R_d[s, s], d.angle),
                                         _trusted(R_e[s, s], e.angle))
                        for b, s in zip(p, _spans([b.shape[1] for b in p])))
                  for p, (R_d, R_e) in zip(pieces, checked))
    return found if d.matrix.ndim > 2 else found[0]


def is_irreducible(block: InvariantBlock, tol: Tolerance = DEFAULT_TOL):
    """Whether the block has no proper nonzero jointly invariant subspace.

    Dimension 1 blocks always are, and blocks of any dimension other
    than 1, 2 or 4 never are: every irreducible block of a rotation pair
    has one of those three.  A 2-block is irreducible unless both
    restrictions are scalar (by the ``kind`` of their rotations), and a
    4-block when both are proper and no invariant 2-plane exists; near a
    twist of 0 or pi that is decided by the eigenplane meets of
    :func:`two_plane_exists`, at ``RANK_TOL``.  This is the one
    irreducibility verdict: :func:`decompose` asks it once for all the
    4-dimensional twist clusters of a pair, as one stack when there are
    several, and once for each 4-dimensional piece that a step which
    found planes leaves, and the step that splits a reducible piece takes
    the verdict's search; :func:`find_block` returns irreducible blocks by
    construction, and ``classify_block`` asks it for a block handed in
    from outside a decomposition.

    The restrictions are read from ``block.rotations`` when the block
    carries them; otherwise both are certified here, and a restriction
    that is no rotation, such as a reflection, raises ``NotARotation``.

    A block holding a stack of k 4-blocks of a proper pair (README,
    "Stacks") gives a bool array of k verdicts.
    """
    if block.dim == 1:
        return True
    if block.dim not in (2, 4):
        return False
    d_r, e_r = block.rotations or (as_rotation(block.d_restricted, tol),
                                   as_rotation(block.e_restricted, tol))
    d_proper = d_r.kind is RotationKind.PROPER
    e_proper = e_r.kind is RotationKind.PROPER
    if block.dim == 2:
        return d_proper or e_proper
    if not (d_proper and e_proper):
        return False
    plane = two_plane_exists(d_r, e_r, tol)[0]
    return ~plane if block.d_restricted.ndim > 2 else not plane


def _stack_answers(clusters: list, stacks: dict, tol: Tolerance) -> list:
    """What one call on each stack of :func:`_twist_clusters` gives each
    cluster in it: the :func:`is_irreducible` verdict of a 4-dimensional
    cluster, the :func:`find_block` step of any other; None for every
    cluster in no stack.  A reducible cluster gets its verdict's search.

    So is every cluster of a stack that raises: the work list takes it
    alone, and the error is the one that a piece-by-piece run raises first.
    """
    answers = [None] * len(clusters)
    for m, stack in stacks.items():
        try:
            found = (is_irreducible(stack, tol).tolist() if m == 4
                     else find_block(*stack.rotations, tol))
        except (RotPairError, np.linalg.LinAlgError):
            continue
        index = [i for i, c in enumerate(clusters) if c.dim == m]
        searched = stack.rotations[0]._search if m == 4 else None
        for j, (i, answer) in enumerate(zip(index, found)):
            answers[i] = answer
            if searched is not None and not answer:
                _remember(*clusters[i].rotations, tol, searched[2][j:j + 1])
    return answers


def _twist_clusters(d: Rotation, e: Rotation, tol: Tolerance) -> tuple:
    """Certified jointly invariant blocks, one per twist cluster, that fill the space.

    Both rotations are proper.  On every irreducible block the inner
    product of ``d v`` and ``e v`` is one value for all unit v,
    ``cos a cos b + r sin a sin b`` on a plane and
    ``cos a cos b + sin a sin b cos(theta)`` on a 4-block of twist
    theta.  So ``sym(d^T e)`` is that value times the identity on each
    block, and its eigenspaces are jointly invariant.  One
    :func:`symmetric_eigen` gives them; the eigenvalues are grouped by
    single linkage at the gap ``tol.eigenvector_gap(n)``.

    Returns ``(clusters, stacks)``: the clusters by descending value, and
    for each cluster size that two or more clusters share, the stack of
    those clusters in that order.  With two or more groups, one pass
    certifies every group by its invariance residual, at ``check_tol``,
    all groups of one size at once (:func:`_certified_by_size`).  Each
    cluster's restrictions are the two products ``V^T M V`` that its
    check forms, and the stacks are those the pass formed.  Input error
    divided by the gap can exceed ``check_tol``; the lowest group by
    ascending value that fails (a NaN residual fails) is then merged with
    its neighbour across the smaller gap, upward on a tie, and the next
    pass certifies every group again, so the groups that passed are
    formed once more per merge.  One group, from the start or after
    merging, is the whole space, which is invariant: the one cluster is
    the pair itself on the identity basis, which keeps the normal forms
    that certified it, and no product is formed for it.  A cluster that
    holds several twists costs only time.
    """
    n = d.dim
    G = d.matrix.T @ e.matrix
    values, vectors = symmetric_eigen((G + G.T) / 2.0)
    groups = single_linkage(values, tol.eigenvector_gap(n))
    while len(groups) > 1:
        formed, stacks = _certified_by_size(groups[::-1], vectors, d, e)
        failed = [i for i, (resid, _) in enumerate(reversed(formed))
                  if not resid <= tol.check_tol]
        if not failed:
            return [cluster for _, cluster in formed], stacks
        i = failed[0]
        below = values[groups[i][0]] - values[groups[i - 1][-1]] if i else np.inf
        above = (values[groups[i + 1][0]] - values[groups[i][-1]]
                 if i + 1 < len(groups) else np.inf)
        i = i - 1 if below < above else i
        groups[i:i + 2] = [np.concatenate(groups[i:i + 2])]
    return [_certified_block(np.eye(n), d, e)], {}


def _formed(basis: np.ndarray, d: Rotation, e: Rotation) -> tuple:
    """``(residual, block)``: the :func:`_invariance` residual of ``basis``
    (a stack of bases gives one per piece) and the block on it whose
    restrictions are the products that residual's check formed."""
    resid, (R_d, R_e) = _invariance(basis, d, e)
    return resid, _certified_block(basis, _trusted(R_d, d.angle), _trusted(R_e, e.angle))


def _certified_by_size(groups: list, vectors: np.ndarray, d: Rotation,
                       e: Rotation) -> tuple:
    """``(formed, stacks)`` for ``groups``, in their order: the
    :func:`_formed` pair of each group on its basis ``vectors[:, g]``,
    and for each size with two or more groups the block of their stack.

    The groups of one size take one :func:`_invariance` of their stacked
    bases, which gives each group's residual and restrictions bit for bit
    as it gives them alone; a size with one group takes the plain call.
    """
    sizes = {}
    for i, g in enumerate(groups):
        sizes.setdefault(len(g), []).append(i)
    formed, stacks = [None] * len(groups), {}
    for m, index in sizes.items():
        if len(index) == 1:
            formed[index[0]] = _formed(vectors[:, groups[index[0]]], d, e)
            continue
        resid, stacks[m] = _formed(np.stack([vectors[:, groups[i]] for i in index]), d, e)
        for j, i in enumerate(index):
            formed[i] = resid[j], _certified_block(stacks[m].basis[j],
                                                   *_piece(j, *stacks[m].rotations))
    return formed, stacks


def _certify_pair(d: Rotation, e: Rotation, tol: Tolerance) -> tuple:
    """The pair as certified rotations; the one place a claimed angle is read.

    Each side's orthogonality residual must be within ``residual_tol``
    (``NotOrthogonalPair``), judged by the residual its normal form
    measured, so no ``M^T M`` is formed here.  A side that carries its
    normal form comes back unchanged.  A side built without
    :func:`as_rotation` is certified first, and only when that refuses
    it as ``NotOrthogonal`` is its residual measured again, to name the
    side.  A claimed angle more than ``angle_tol`` off, or a claimed kind
    (``+-I`` or proper) that differs from the certified one, raises
    ``NumericalFailure`` with the margin; otherwise the certificate comes
    back in the side's place.
    """
    _require_same_dim(d, e)
    pair = []
    sides = ((d, "first", "alpha", "first operator orthogonality residual"),
             (e, "second", "beta", "second operator orthogonality residual"))
    for r, name, angle_name, what in sides:
        certified = r
        if r.normal_form is None:
            try:
                certified = as_rotation(r.matrix, tol)
            except NotOrthogonal:
                require(orthonormality_residual(r.matrix), tol.residual_tol,
                        NotOrthogonalPair, what)
                raise
        require(certified.normal_form.orthogonality_residual, tol.residual_tol,
                NotOrthogonalPair, what)
        if certified is not r:
            gap = abs(certified.angle - r.angle)
            require(gap, tol.angle_tol, NumericalFailure,
                    f"{angle_name} {r.angle!r} claimed for the {name} operator "
                    f"differs from its certified {certified.angle!r} by")
            if certified.kind is not r.kind:
                raise NumericalFailure(
                    f"{r.kind.value} claimed for the {name} operator, which certifies "
                    f"as {certified.kind.value} ({angle_name} gap {gap:.3e})"
                )
        pair.append(certified)
    return tuple(pair)


def decompose(d: Rotation, e: Rotation,
              tol: Tolerance = DEFAULT_TOL) -> InvariantDecomposition:
    """Full decomposition into irreducible invariant blocks.

    A pair with a +-I side goes, before any product, to one
    :func:`find_block` step on itself, which returns all its lines or
    planes.  For a proper pair one work list of certified pieces, each an
    :class:`InvariantBlock` that carries its restrictions, starts as the
    twist clusters of :func:`_twist_clusters`.  Each piece popped off it
    is worked once.  Every irreducible block has dimension 1, 2 or 4, so
    a 4-dimensional piece is either one 4-block or two planes, and the one
    :func:`is_irreducible` verdict on it decides which: an irreducible
    piece is kept as the block.  Any other piece takes one
    :func:`find_block` step on its restrictions, a reducible one from the
    search of its verdict.  Twist clusters of one size that were certified
    as one stack, in the pass of :func:`_twist_clusters` that every group
    passed, take one call on that stack, before the list is worked
    (:func:`_stack_answers`): one verdict for all 4-dimensional clusters,
    one step for all clusters of any other size.  The step's blocks are
    irreducible by construction; one product with the piece's basis moves
    them to ambient coordinates, in place, and they are kept with no
    second verdict.  The orthogonal complement of the step's blocks goes
    back on the list, with the restrictions ``comp^T R comp`` of the
    piece's own: the restriction of a single-angle rotation to an
    invariant subspace keeps its angle, so no re-certification is needed.
    A step that built a 4-block from the operator found no invariant
    plane in its piece, so its remainder has none either, and a
    4-dimensional remainder is kept with no verdict.  A step that takes
    the whole piece, as one on a cluster of planes of one orientation
    does, leaves an empty complement, which :func:`orthonormal_complement`
    returns without a factorization.  A step costs O(m^3) for the piece
    dimension m, and one step takes every plane of an eigenplane meet, so
    a pair whose twists are distinct costs O(n^3) in all.

    Blocks come in extraction order, which is deterministic: lines and
    planes before 4-blocks, each in cluster order and then in the order
    found inside a cluster, since a remainder is worked before the next
    cluster, a stacked step's included.  The canonical order is the
    order of their forms, applied by ``ClassLabel``.

    Only the pair that :func:`_certify_pair` returns is worked, so a
    hand-built side's claim is never used.  Each block carries its
    restrictions as rotations by the pair's certified angles.
    """
    d, e = _certify_pair(d, e, tol)
    if not (d.kind is RotationKind.PROPER and e.kind is RotationKind.PROPER):
        return InvariantDecomposition(blocks=find_block(d, e, tol))
    clusters, stacks = _twist_clusters(d, e, tol)
    work = list(zip(clusters, _stack_answers(clusters, stacks, tol)))[::-1]
    blocks = []
    while work:
        part, known = work.pop()
        if part.dim == 4:
            if known is None:
                known = is_irreducible(part, tol)
            if known:
                blocks.append(part)
                continue
        found = known or find_block(*part.rotations, tol)
        local = np.concatenate([b.basis for b in found], axis=1)
        ambient = part.basis @ local
        for b, s in zip(found, _spans([b.dim for b in found])):
            object.__setattr__(b, "basis", ambient[:, s])   # moved, not built again
        blocks.extend(found)
        comp = orthonormal_complement(local)
        if comp.shape[1]:
            rest = [_trusted(comp.T @ (r.matrix @ comp), r.angle)
                    for r in part.rotations]
            work.append((_certified_block(part.basis @ comp, *rest),
                         True if comp.shape[1] == 4 and found[0].dim == 4 else None))
    blocks.sort(key=lambda b: b.dim)
    return InvariantDecomposition(blocks=tuple(blocks))
