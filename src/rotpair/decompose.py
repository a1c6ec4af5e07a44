"""Decomposition of a rotation pair into invariant blocks.

Every pair of rotations on a Euclidean space splits into an orthogonal
direct sum of jointly invariant subspaces of dimension 1, 2 or 4.  A
proper pair is first split into twist clusters: on every irreducible
block the inner product of ``d v`` and ``e v`` is the same for all unit
v, so the eigenspaces of ``sym(d^T e)`` are jointly invariant.  Inside
each cluster the search works through the complexified eigenplanes: an
overlap between the planes of the two rotations yields an invariant
2-plane directly, and otherwise the antilinear operator on the first
plane either has an invariant line (again a 2-plane) or hands us a
4-dimensional block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .antilinear import (
    AntilinearOp,
    antilinear_invariant_line,
    build_T,
    eigenplanes,
    t_squared,
)
from .errors import DegenerateLine, NotOrthogonalPair, NumericalFailure
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    max_abs,
    orthonormal_complement,
    orthonormalize,
    single_linkage,
    subspace_meet,
)
from .orthogonal import (
    Rotation,
    RotationKind,
    as_rotation,
    orthogonal_normal_form,
)


@dataclass(frozen=True)
class InvariantBlock:
    """A jointly invariant subspace with the two restricted operators.

    ``basis`` has orthonormal columns (1, 2 or 4 of them) in ambient
    coordinates; ``d_restricted`` and ``e_restricted`` are the operators
    expressed in that basis.
    """

    basis: np.ndarray
    d_restricted: np.ndarray
    e_restricted: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class InvariantDecomposition:
    blocks: tuple
    ambient_dim: int

    @property
    def dims(self) -> tuple:
        return tuple(b.dim for b in self.blocks)


def invariance_residual(basis: np.ndarray, d: Rotation, e: Rotation) -> float:
    """Worst residual of ``span(basis)`` being invariant under both."""
    out = 0.0
    for M in (d.matrix, e.matrix):
        image = M @ basis
        out = max(out, max_abs(image - basis @ (basis.T @ image)))
    return out


def real_plane_from_complex_line(v, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Real 2-plane cut out by a complex line and its conjugate.

    For v with v and conj(v) independent, the real points of
    ``span{v, conj(v)}`` form a 2-plane spanned by the real and
    imaginary parts of v; returns an orthonormal basis of it.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    s = np.linalg.svd(np.column_stack([v, np.conj(v)]), compute_uv=False)
    if s[1] <= tol.rank_tol * s[0]:
        raise DegenerateLine(
            "vector is a phase times a real vector; no plane is determined"
        )
    plane = orthonormalize(np.column_stack([v.real, v.imag]), tol)
    if plane.shape[1] != 2:
        raise NumericalFailure("real and imaginary parts did not span a plane")
    return plane


def _restricted(r: Rotation, basis: np.ndarray) -> Rotation:
    """``r`` acting on ``span(basis)``, which must be invariant under it."""
    return Rotation(matrix=basis.T @ r.matrix @ basis, angle=r.angle)


def _restrict(basis: np.ndarray, d: Rotation, e: Rotation) -> InvariantBlock:
    return InvariantBlock(
        basis=basis,
        d_restricted=basis.T @ d.matrix @ basis,
        e_restricted=basis.T @ e.matrix @ basis,
    )


def _plane_or_operator(d: Rotation, e: Rotation, tol: Tolerance):
    """Either an invariant 2-plane of a proper pair, or the antilinear op.

    Returns ``("plane", basis)`` or ``("operator", T)``.  Tries the
    eigenplane intersections first; only when both are trivial does the
    antilinear operator exist, and an invariant line of it still yields
    a plane.  The two meets are the one overlap decision: they count A
    as meeting C (or D) when a principal angle phi between them has
    ``tan(phi/2) <= rank_tol``.  :func:`build_T`'s Gram test fires only
    when ``sin(phi) <= rank_tol``, a smaller set, so it never fires on
    this path.
    """
    planes = eigenplanes(d, e, tol)
    for meet_with in (planes.C, planes.D):
        meet = subspace_meet(planes.A, meet_with, tol)
        if meet.shape[1]:
            return "plane", real_plane_from_complex_line(meet[:, 0], tol)
    T = build_T(planes, tol)
    line = antilinear_invariant_line(T, tol)
    if line is not None:
        ambient = planes.A @ line
        return "plane", real_plane_from_complex_line(ambient, tol)
    return "operator", T


def two_plane_exists(d: Rotation, e: Rotation, tol: Tolerance = DEFAULT_TOL):
    """Whether the proper pair (d, e) leaves some 2-plane invariant.

    Returns ``(True, basis)`` with an orthonormal witness basis, or
    ``(False, None)``.  The witness is verified invariant under both
    rotations before being returned.  A rotation that is not proper
    raises ``NotProper`` from :func:`eigenplanes`.
    """
    kind, payload = _plane_or_operator(d, e, tol)
    if kind != "plane":
        return False, None
    resid = invariance_residual(payload, d, e)
    if resid > 10 * tol.residual_tol:
        raise NumericalFailure(f"witness plane residual {resid:.3e}")
    return True, payload


def _block_from_operator(T: AntilinearOp, d: Rotation, e: Rotation,
                         tol: Tolerance) -> InvariantBlock:
    """4-dimensional block from an eigenvector of the operator's square."""
    N = t_squared(T)
    evals, evecs = np.linalg.eig(N)
    order = sorted(
        range(len(evals)),
        key=lambda i: (-abs(evals[i]), evals[i].real, evals[i].imag),
    )
    u = evecs[:, order[0]]
    u = u / np.linalg.norm(u)
    v = T.apply(u)
    s = np.linalg.svd(np.column_stack([u, v]), compute_uv=False)
    if s[1] <= tol.rank_tol * s[0]:
        raise NumericalFailure(
            "operator eigenvector is parallel to its image; an invariant "
            "line should have been found instead"
        )
    u_amb = T.basis_a @ u
    v_amb = T.basis_a @ v
    basis = orthonormalize(
        np.column_stack([u_amb.real, u_amb.imag, v_amb.real, v_amb.imag]), tol
    )
    if basis.shape[1] != 4:
        raise NumericalFailure(
            f"candidate block spans {basis.shape[1]} dimensions, expected 4"
        )
    return _restrict(basis, d, e)


def find_block(d: Rotation, e: Rotation, tol: Tolerance = DEFAULT_TOL) -> InvariantBlock:
    """One jointly invariant block of dimension 1, 2 or 4.

    If either operator is the identity or its negative, the block comes
    from the other operator's block form.  Otherwise the pair is proper
    and the eigenplane machinery produces a 2-plane or a 4-block.

    The block is irreducible by construction: a line, a plane on which
    at least one operator is proper, or a 4-block reached only after
    both eigenplane meets came back empty and the antilinear operator
    had no invariant line, so that no invariant 2-plane exists.
    """
    if d.dim != e.dim:
        raise NotOrthogonalPair(f"ambient dimensions differ: {d.dim} vs {e.dim}")
    n = d.dim
    d_proper = d.kind is RotationKind.PROPER
    e_proper = e.kind is RotationKind.PROPER
    if not (d_proper and e_proper):
        if not d_proper and not e_proper:
            basis = np.eye(n)[:, :1]
        else:
            other = d if d_proper else e
            nf = orthogonal_normal_form(other.matrix, tol)
            basis = nf.basis[:, :2]
        block = _restrict(basis, d, e)
    else:
        kind, payload = _plane_or_operator(d, e, tol)
        if kind == "plane":
            block = _restrict(payload, d, e)
        else:
            block = _block_from_operator(payload, d, e, tol)
    resid = invariance_residual(block.basis, d, e)
    if resid > 10 * tol.residual_tol:
        raise NumericalFailure(f"block invariance residual {resid:.3e}")
    return block


def is_irreducible(block: InvariantBlock, tol: Tolerance = DEFAULT_TOL,
                   restricted=None) -> bool:
    """Whether the block has no proper nonzero jointly invariant subspace.

    Dimension 1 blocks always are.  A 2-block is irreducible unless both
    restrictions are scalar (by the ``kind`` of their rotations), and a
    4-block when both are proper and no invariant 2-plane exists; near a
    twist of 0 or pi that is decided by the eigenplane meets of
    :func:`two_plane_exists`, at ``rank_tol``.  This is the one
    irreducibility verdict: :func:`find_block` returns irreducible
    blocks by construction, and ``classify_block`` asks this function
    before it reads off a canonical form.

    ``restricted`` is internal: ``classify_block`` passes the rotations
    ``(d_r, e_r)`` of the two restrictions; without it they are
    certified here, and a restriction that is no rotation, such as a
    reflection, raises ``NotARotation``.
    """
    if block.dim == 1:
        return True
    d_r, e_r = restricted or (as_rotation(block.d_restricted, tol),
                              as_rotation(block.e_restricted, tol))
    d_proper = d_r.kind is RotationKind.PROPER
    e_proper = e_r.kind is RotationKind.PROPER
    if block.dim == 2:
        return d_proper or e_proper
    return d_proper and e_proper and not two_plane_exists(d_r, e_r, tol)[0]


def _twist_clusters(d: Rotation, e: Rotation, tol: Tolerance) -> list:
    """Orthonormal bases of jointly invariant subspaces that fill the space.

    When both rotations are proper, on every irreducible block the inner
    product of ``d v`` and ``e v`` is one value for all unit v,
    ``cos a cos b + r sin a sin b`` on a plane and
    ``cos a cos b + sin a sin b cos(theta)`` on a 4-block of twist
    theta.  So ``sym(d^T e)`` is that value times the identity on each
    block, and its eigenspaces are jointly invariant.  One symmetric
    eigensolve gives them; the ascending eigenvalues are grouped by
    single linkage at the gap ``n eps / residual_tol``, the smallest gap
    at which eigenvectors are resolved to ``residual_tol``.  Each
    cluster is certified by its invariance residual, at
    ``10 residual_tol``.  Input error divided by the gap can exceed
    that, so a cluster that fails is merged with its neighbour across
    the smaller gap and certified again; the whole space always passes.
    A cluster that holds several twists costs only time.  Clusters are
    returned by descending value.

    A pair with an identity or negated identity side is one cluster, the
    whole space; :func:`find_block` takes its lines or planes.
    """
    n = d.dim
    if not (d.kind is RotationKind.PROPER and e.kind is RotationKind.PROPER):
        return [np.eye(n)]
    G = d.matrix.T @ e.matrix
    values, vectors = np.linalg.eigh((G + G.T) / 2.0)
    groups = single_linkage(values, n * np.finfo(float).eps / tol.residual_tol)
    i = 0
    while i < len(groups):
        resid = invariance_residual(vectors[:, groups[i]], d, e)
        if resid <= 10 * tol.residual_tol:
            i += 1
            continue
        if len(groups) == 1:
            raise NumericalFailure(f"whole-space invariance residual {resid:.3e}")
        below = values[groups[i][0]] - values[groups[i - 1][-1]] if i else np.inf
        above = (values[groups[i + 1][0]] - values[groups[i][-1]]
                 if i + 1 < len(groups) else np.inf)
        i = i - 1 if below < above else i
        groups[i:i + 2] = [np.concatenate(groups[i:i + 2])]
    return [vectors[:, index] for index in reversed(groups)]


def decompose(d: Rotation, e: Rotation,
              tol: Tolerance = DEFAULT_TOL) -> InvariantDecomposition:
    """Full decomposition into irreducible invariant blocks.

    The space is first split by :func:`_twist_clusters`.  Inside each
    cluster blocks are peeled off one at a time; both operators restrict
    to the orthogonal complement of each extracted block, and the
    restriction of a single-angle rotation to an invariant subspace
    keeps its angle, so no re-certification is needed along the way.
    Each block that :func:`find_block` returns is irreducible, so it is
    kept as it is and the search goes on in its complement.  A cluster
    costs O(m^3) per block for its dimension m, so a pair whose twists
    are distinct costs O(n^3) in all.

    Blocks come in extraction order, which is deterministic: lines and
    planes before 4-blocks, each in cluster order and then in the order
    found inside a cluster.  The canonical order is the order of their
    forms, applied by ``ClassLabel``.

    The pair is certified here, once: a side built without
    :func:`as_rotation` is certified, and a claimed angle more than
    ``angle_tol`` off raises ``NumericalFailure`` with the margin.
    """
    if d.dim != e.dim:
        raise NotOrthogonalPair(f"ambient dimensions differ: {d.dim} vs {e.dim}")
    n = d.dim
    for name, angle_name, r in (("first", "alpha", d), ("second", "beta", e)):
        resid = max_abs(r.matrix.T @ r.matrix - np.eye(n))
        if resid > tol.residual_tol:
            raise NotOrthogonalPair(
                f"{name} operator orthogonality residual {resid:.3e}"
            )
        if r.normal_form is None:
            certified = as_rotation(r.matrix, tol).angle
            gap = abs(certified - r.angle)
            if gap > tol.angle_tol:
                raise NumericalFailure(
                    f"{angle_name} {r.angle!r} claimed for the {name} operator "
                    f"differs from its certified {certified!r} by {gap:.3e}, "
                    f"beyond angle_tol {tol.angle_tol:.3e}"
                )

    blocks = []
    for carrier in _twist_clusters(d, e, tol):
        cur_d, cur_e = _restricted(d, carrier), _restricted(e, carrier)
        while True:
            found = find_block(cur_d, cur_e, tol)
            blocks.append(replace(found, basis=carrier @ found.basis))
            comp = orthonormal_complement(found.basis, tol=tol)
            if comp.shape[1] == 0:
                break
            carrier = carrier @ comp
            cur_d, cur_e = _restricted(cur_d, comp), _restricted(cur_e, comp)
    blocks.sort(key=lambda b: b.dim)

    total = sum(b.dim for b in blocks)
    if total != n:
        raise NumericalFailure(f"block dimensions sum to {total}, expected {n}")
    return InvariantDecomposition(blocks=tuple(blocks), ambient_dim=n)
