"""A stack answers as its pieces do, bit for bit.

The functions on the path of the twist clusters take k pieces of one
pair on a leading axis and give one answer per piece.  Each is
compared here with the same function called on every piece alone:
answers must agree bit for bit.  When some piece raises alone, the
stack raises one of its pieces' own errors, and ``_each``, which makes
the package's stacks, raises exactly the error of the first such piece;
``decompose`` leaves every cluster of a stack that raises to its work
list, one at a time.
"""

import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pair_rotations, polar, rand_orthogonal, record_calls
from rotpair import (
    DEFAULT_TOL,
    AntilinearOp,
    BadDimension,
    ClassLabel,
    Dim2Proper,
    Dim4,
    RotPairError,
    Rotation,
    antilinear_invariant_line,
    as_rotation,
    classify,
    classify_block,
    decompose,
    generate_pair,
    is_irreducible,
    labels_match,
    realize,
    rho,
    theta_invariant,
    two_plane_exists,
)
from rotpair.antilinear import build_T, eigenplanes
from rotpair.classify import _each, _stacked
from rotpair.decompose import _certified_block, _stack_answers, find_block
from rotpair.linalg import block_diag, subspace_meet

# the package namespace binds ``decompose`` and ``classify`` to the functions
DECOMPOSE = importlib.import_module("rotpair.decompose")
CLASSIFY = importlib.import_module("rotpair.classify")
ANGLE = st.floats(0.1, math.pi - 0.1)
# a twist anywhere in (0, pi), or within 1e-6 of either end
TWIST = st.one_of(
    st.floats(1e-6, math.pi - 1e-6),
    st.tuples(st.floats(1e-12, 1e-6), st.booleans()).map(
        lambda g: math.pi - g[0] if g[1] else g[0]),
)


@st.composite
def piece_specs(draw):
    """A 4-dimensional piece: a twist, the sign r of two equal planes, or
    None for two planes of opposite signs, whose search step finds one."""
    kind = draw(st.sampled_from(("dim4", "planes", "mixed")))
    if kind == "dim4":
        return (kind, draw(TWIST))
    return (kind, draw(st.sampled_from((-1, 1))) if kind == "planes" else None)


def plane_pair(alpha, beta, signs):
    """The matrices of planes of the given signs r, as a direct sum."""
    planes = [realize(Dim2Proper(alpha=alpha, beta=beta, r=r)) for r in signs]
    return tuple(block_diag(*side) for side in zip(*planes))


def noisy_piece(draw, rng, alpha, beta, dm, em):
    """The pair (dm, em), conjugated by one random rotation, each side
    with its own noise, up to ``residual_tol`` in its largest entry, so
    the piece may be refused alone."""
    m = dm.shape[0]
    Q = rand_orthogonal(m, rng)
    sides = []
    for M in (dm, em):
        noise = rng.standard_normal((m, m))
        noise *= draw(st.floats(0.0, 1.0)) * DEFAULT_TOL.residual_tol / np.abs(noise).max()
        sides.append(Q @ M @ Q.T + noise)
    return Rotation(sides[0], alpha), Rotation(sides[1], beta)


@st.composite
def stacks(draw):
    """1 to 5 4-dimensional pieces sharing alpha and beta, each
    conjugated and noisy."""
    alpha, beta = draw(ANGLE), draw(ANGLE)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pieces = []
    for kind, value in draw(st.lists(piece_specs(), min_size=1, max_size=5)):
        if kind == "dim4":
            dm, em = realize(Dim4(alpha=alpha, beta=beta, theta=value))
        else:
            dm, em = plane_pair(alpha, beta, (value, value) if value else (1, -1))
        pieces.append(noisy_piece(draw, rng, alpha, beta, dm, em))
    return pieces


@st.composite
def plane_stacks(draw):
    """1 to 5 plane clusters of one dimension 2c, c from 1 to 3, sharing
    alpha and beta: each c planes of one sign r, conjugated and noisy."""
    alpha, beta = draw(ANGLE), draw(ANGLE)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.integers(1, 3))
    return [noisy_piece(draw, rng, alpha, beta, *plane_pair(alpha, beta, (r,) * c))
            for r in draw(st.lists(st.sampled_from((-1, 1)), min_size=1, max_size=5))]


class Raised(tuple):
    """The class name and message of a package error."""


def outcome(fn, *args):
    """``fn(*args)``, or the class and message of the package error it raises."""
    try:
        return fn(*args)
    except RotPairError as exc:
        return Raised((type(exc).__name__, str(exc)))


def bits(x):
    """A value equal for two answers exactly when they agree bit for bit."""
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,
                tuple(bits(getattr(x, f.name)) for f in dataclasses.fields(x)))
    return x


def assert_stack_answers_as_pieces(stacked, pieces, of_stack, first=False):
    """The stack's outcome against each piece's: a raised error of some
    piece (of the first one that raises, if ``first``), or answer i of the
    stack (``of_stack(answer, i)``) for each piece."""
    errors = [p for p in pieces if isinstance(p, Raised)]
    if errors:
        assert isinstance(stacked, Raised), stacked
        assert stacked == errors[0] if first else stacked in errors
        return
    assert not isinstance(stacked, Raised), stacked
    for i, alone in enumerate(pieces):
        assert bits(of_stack(stacked, i)) == bits(alone)


def matrix_and_angle(r):
    """A rotation as its matrix and angle, or an error as it is."""
    return (r.matrix, r.angle) if isinstance(r, Rotation) else r


@settings(max_examples=120, deadline=None)
@given(stacks(), plane_stacks())
def test_a_stack_answers_as_its_pieces(pairs, plane_pairs):
    tol = DEFAULT_TOL
    # a search step on 4-dimensional pieces of planes and of operators, and
    # on plane clusters of one size
    for group in (pairs, plane_pairs):
        m = group[0][0].dim
        assert_stack_answers_as_pieces(
            outcome(find_block, *_stacked([_certified_block(np.eye(m), *p)
                                           for p in group]).rotations, tol),
            [outcome(find_block, *p, tol) for p in group], lambda out, i: out[i])
    if plane_pairs[0][0].dim == 2:
        twos = [_certified_block(np.eye(2), *p) for p in plane_pairs]
        alone = [outcome(classify_block, b, tol) for b in twos]
        assert_stack_answers_as_pieces(outcome(classify_block, _stacked(twos), tol), alone,
                                       lambda out, i: out[i])
        assert_stack_answers_as_pieces(outcome(_each, classify_block, twos, tol), alone,
                                       lambda out, i: out[i], first=True)

    blocks = [_certified_block(np.eye(4), d, e) for d, e in pairs]
    stack = _stacked(blocks)
    d, e = stack.rotations

    for fn in (is_irreducible, classify_block):
        alone = [outcome(fn, b, tol) for b in blocks]
        assert_stack_answers_as_pieces(outcome(fn, stack, tol), alone,
                                       lambda out, i: out[i])
        assert_stack_answers_as_pieces(outcome(_each, fn, blocks, tol), alone,
                                       lambda out, i: out[i], first=True)
    assert_stack_answers_as_pieces(
        outcome(two_plane_exists, d, e, tol),
        [outcome(two_plane_exists, *p, tol) for p in pairs],
        lambda out, i: (out[0][i], out[1][i]))

    planes = outcome(eigenplanes, d, e, tol)
    alone = [outcome(eigenplanes, *p, tol) for p in pairs]
    assert_stack_answers_as_pieces(planes, alone, lambda out, i: (out[0][i], out[1][i]))
    if not isinstance(planes, Raised):
        A, C = planes
        assert_stack_answers_as_pieces(
            subspace_meet(A, C), [subspace_meet(*p) for p in alone],
            lambda out, i: out[i])
        # as the package does, the operator is built only on the pieces
        # whose eigenplanes meet neither C nor D = conj(C)
        rest = [i for i, (c, dc) in enumerate(zip(subspace_meet(A, C),
                                                  subspace_meet(A, np.conj(C))))
                if not c.shape[1] and not dc.shape[1]]
        if rest:
            T = build_T(A[rest], C[rest])
            ops = [build_T(*alone[i]) for i in rest]
            assert_stack_answers_as_pieces(T, ops, lambda out, i: AntilinearOp(out.M[i],
                                                                              out.basis_a[i]))
            assert_stack_answers_as_pieces(
                outcome(antilinear_invariant_line, T, tol),
                [outcome(antilinear_invariant_line, op, tol) for op in ops],
                lambda out, i: out[i])

    turns = [outcome(rho, r, tol) for r in (d, e)]
    alone = [[outcome(rho, p[side], tol) for p in pairs] for side in (0, 1)]
    for side in (0, 1):
        assert_stack_answers_as_pieces(matrix_and_angle(turns[side]),
                                       [matrix_and_angle(r) for r in alone[side]],
                                       lambda out, i: (out[0][i], out[1]))
    if all(isinstance(t, Rotation) for t in turns):
        # the pieces passed rho alone too, so each has its own quarter-turns
        assert_stack_answers_as_pieces(
            outcome(theta_invariant, *turns, tol),
            [outcome(theta_invariant, s, t, tol) for s, t in zip(*alone)],
            lambda out, i: out[i])


def test_a_raising_piece_raises_for_the_stack():
    """A stack raises the error of the piece that fails the earliest
    check; ``_each`` raises that of the first piece that raises alone,
    even when a later piece fails an earlier check."""
    alpha, beta = 0.7, 1.9
    good = [Rotation(M, a) for M, a in zip(realize(Dim4(alpha, beta, 1.1)), (alpha, beta))]
    skew = np.zeros((4, 4))
    skew[0, 1], skew[1, 0] = 5e-9, -5e-9
    skew_off = good[0].matrix + skew    # fails rho's orthogonality check
    zero = np.eye(4)                    # a skew part of norm 0
    blocks = [_certified_block(np.eye(4), Rotation(M, alpha), good[1])
              for M in (good[0].matrix, skew_off, zero)]
    stack = _stacked(blocks)
    errors = [outcome(rho, b.rotations[0]) for b in blocks]
    assert isinstance(errors[0], Rotation) and errors[1][0] == "NotOrthogonal"
    assert errors[2][0] == "NotProper"
    assert outcome(rho, stack.rotations[0]) == errors[2]
    assert outcome(rho, _stacked(blocks[::-1]).rotations[0]) == errors[2]
    alone = [outcome(classify_block, b) for b in blocks]
    assert alone[1] == ("NotOrthogonal", errors[1][1])
    assert alone[2] == ("NotIrreducible", errors[2][1])
    assert outcome(classify_block, stack) == alone[2]
    assert outcome(_each, classify_block, blocks, DEFAULT_TOL) == alone[1]

    # A search step: a noisy piece fails its eigenplane check, alone and in
    # a stack of plane clusters of one size, or in a stack that mixes plane
    # pieces with operator pieces, and decompose then searches every piece
    # of the stack alone.  A stack of 2-blocks is labelled as its pieces are.
    for pairs in ([plane_pair(alpha, beta, (r,)) for r in (1, 1, -1)],
                  [realize(Dim4(alpha, beta, 1.1)), plane_pair(alpha, beta, (1, 1)),
                   realize(Dim4(alpha, beta, 2.3))]):
        m = pairs[0][0].shape[0]
        diagonal = np.zeros((m, m))
        diagonal[0, 0], diagonal[1, 1] = 1e-7, -1e-7   # leaves the skew part, so A
        pairs[1] = (pairs[1][0] + diagonal, pairs[1][1])
        blocks = [_certified_block(np.eye(m), Rotation(dm, alpha), Rotation(em, beta))
                  for dm, em in pairs]
        stack = _stacked(blocks)
        alone = [outcome(find_block, *b.rotations) for b in blocks]
        assert not isinstance(alone[0], Raised) and not isinstance(alone[2], Raised)
        assert alone[1][0] == "NumericalFailure" and "eigenplane residual" in alone[1][1]
        assert outcome(find_block, *stack.rotations) == alone[1]
        assert _stack_answers(blocks, {m: stack}, DEFAULT_TOL) == [None] * 3
        if m == 2:
            forms = [classify_block(b) for b in blocks]
            assert [f.r for f in forms] == [1, 1, -1]
            assert classify_block(stack) == tuple(forms)
            assert _each(classify_block, blocks, DEFAULT_TOL) == forms


def test_public_constructors_refuse_stacks():
    """Only the package builds a rotation of a stack."""
    stack = np.stack([np.eye(4)] * 2)
    with pytest.raises(BadDimension):
        Rotation(stack, 0.0)
    with pytest.raises(BadDimension):
        as_rotation(stack)


def n96_pair(seed):
    """12 Dim4 blocks and 12 Dim2Proper planes of each sign, as the
    benchmark's n = 96 pairs mix them."""
    rng = np.random.default_rng(seed)
    alpha, beta = rng.uniform(0.1, np.pi - 0.1, 2)
    spec = [Dim4(alpha, beta, t) for t in rng.uniform(0.05, np.pi - 0.05, 12)]
    spec += [Dim2Proper(alpha, beta, r) for r in (1, -1) for _ in range(12)]
    return spec, pair_rotations(generate_pair(spec, seed=seed))


def test_an_n96_pair_takes_two_search_steps(monkeypatch):
    """One step on the stack of the 12 Dim4 clusters, for their verdicts,
    and one on the stack of the two 24-dimensional plane clusters; the
    24 planes are labelled in one call, and the 12 Dim4 blocks in one."""
    spec, (d, e) = n96_pair(7)
    steps = record_calls(monkeypatch, DECOMPOSE, "_planes_or_operator")
    searches = record_calls(monkeypatch, DECOMPOSE, "find_block")
    labels = record_calls(monkeypatch, CLASSIFY, "classify_block")
    assert labels_match(classify(d, e), ClassLabel(forms=tuple(spec)))
    assert sorted(args[0].matrix.shape for args in steps) == [(2, 24, 24), (12, 4, 4)]
    assert len(searches) == 1
    assert [args[0].basis.shape for args in labels] == [(24, 96, 2), (12, 96, 4)]


def test_equal_twist_remainder_takes_no_search(monkeypatch):
    """The step on two equal twists builds one 4-block from the operator,
    so the 4-dimensional remainder has no invariant plane: it is kept
    with no verdict and no search."""
    d, e = pair_rotations(generate_pair([Dim4(0.7, 1.9, 1.1)] * 2, seed=49))
    steps = record_calls(monkeypatch, DECOMPOSE, "_planes_or_operator")
    verdicts = record_calls(monkeypatch, DECOMPOSE, "is_irreducible")
    assert decompose(d, e).dims == (4, 4)
    assert [args[0].dim for args in steps] == [8]
    assert verdicts == []


def test_remainder_of_a_step_that_found_planes_is_searched(monkeypatch):
    """A piece with two planes of each sign, taken whole as one cluster,
    gives the planes of one sign in its first step; the 4-dimensional
    remainder holds the other two and is decided and searched again."""
    spec = [Dim2Proper(0.7, 1.9, r) for r in (1, 1, -1, -1)]
    d, e = pair_rotations(generate_pair(spec, seed=50))
    monkeypatch.setattr(DECOMPOSE, "_twist_clusters",
                        lambda d, e, tol: ([_certified_block(np.eye(8), d, e)], {}))
    steps = record_calls(monkeypatch, DECOMPOSE, "find_block")
    assert decompose(d, e).dims == (2, 2, 2, 2)
    assert [args[0].dim for args in steps] == [8, 4]


@pytest.mark.parametrize("extra, products, verdicts", [
    ((), [(3, 12, 4), (12, 8), (12, 4)], [(12, 4)]),
    ((0.4,), [(4, 16, 4), (2, 16, 4), (16, 8)], [(2, 16, 4)]),
])
def test_failed_stack_certifies_every_group_again(monkeypatch, extra, products,
                                                  verdicts):
    """4-dimensional groups are certified as one stack, and the two whose
    twists lie 6e-6 apart fail: they merge, and the next pass certifies
    every group again by size, the merged 8-dimensional one alone.  With
    a fourth group, the two 4-dimensional clusters that merging leaves
    are certified and decided as one stack."""
    spec = [Dim4(1.0, 2.0, t) for t in (1.0, 1.0 + 6e-6, 2.5, *extra)]
    doc = generate_pair(spec, seed=0)
    rng = np.random.default_rng(100)
    d, e = (as_rotation(polar(M + 5e-10 * rng.standard_normal(M.shape)))
            for M in (doc.delta, doc.epsilon))
    formed = record_calls(monkeypatch, DECOMPOSE, "_invariance")
    decided = record_calls(monkeypatch, DECOMPOSE, "is_irreducible")
    assert decompose(d, e).dims == (4,) * len(spec)
    # the products of bases in ambient coordinates; the step on the merged
    # cluster checks its 4-block in the cluster's own
    assert [args[0].shape for args in formed if args[0].shape[-2] == d.dim] == products
    assert [args[0].basis.shape for args in decided] == verdicts
