"""A stack answers as its pieces do, bit for bit.

The functions on the path of the 4-dimensional clusters take k pieces
of one pair on a leading axis and give one answer per piece.  Each is
compared here with the same function called on every piece alone:
answers must agree bit for bit.  When some piece raises alone, the
stack raises one of its pieces' own errors, and ``_each``, which makes
the package's stacks, raises exactly the error of the first such piece.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_orthogonal
from rotpair import (
    DEFAULT_TOL,
    AntilinearOp,
    BadDimension,
    Dim2Proper,
    Dim4,
    RotPairError,
    Rotation,
    antilinear_invariant_line,
    as_rotation,
    classify_block,
    is_irreducible,
    realize,
    rho,
    theta_invariant,
    two_plane_exists,
)
from rotpair.antilinear import build_T, eigenplanes
from rotpair.decompose import _certified_block, _each, _stacked
from rotpair.linalg import block_diag, subspace_meet

ANGLE = st.floats(0.1, math.pi - 0.1)
# a twist anywhere in (0, pi), or within 1e-6 of either end
TWIST = st.one_of(
    st.floats(1e-6, math.pi - 1e-6),
    st.tuples(st.floats(1e-12, 1e-6), st.booleans()).map(
        lambda g: math.pi - g[0] if g[1] else g[0]),
)


@st.composite
def piece_specs(draw):
    """A 4-dimensional piece: a twist, or the sign r of two equal planes."""
    if draw(st.booleans()):
        return ("dim4", draw(TWIST))
    return ("planes", draw(st.sampled_from((-1, 1))))


@st.composite
def stacks(draw):
    """1 to 5 pieces sharing alpha and beta, each conjugated and noisy.

    Each side of each piece gets its own noise, up to ``residual_tol``
    in its largest entry, so a piece may be refused alone.
    """
    alpha, beta = draw(ANGLE), draw(ANGLE)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pieces = []
    for kind, value in draw(st.lists(piece_specs(), min_size=1, max_size=5)):
        if kind == "dim4":
            dm, em = realize(Dim4(alpha=alpha, beta=beta, theta=value))
        else:
            plane = realize(Dim2Proper(alpha=alpha, beta=beta, r=value))
            dm, em = (block_diag(M, M) for M in plane)
        Q = rand_orthogonal(4, rng)
        sides = []
        for M in (dm, em):
            noise = rng.standard_normal((4, 4))
            noise *= draw(st.floats(0.0, 1.0)) * DEFAULT_TOL.residual_tol / np.abs(noise).max()
            sides.append(Q @ M @ Q.T + noise)
        pieces.append((Rotation(sides[0], alpha), Rotation(sides[1], beta)))
    return pieces


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
@given(stacks())
def test_a_stack_answers_as_its_pieces(pairs):
    tol = DEFAULT_TOL
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
        T = build_T(A, C)
        ops = [build_T(*p) for p in alone]
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


def test_public_constructors_refuse_stacks():
    """Only the package builds a rotation of a stack."""
    stack = np.stack([np.eye(4)] * 2)
    with pytest.raises(BadDimension):
        Rotation(stack, 0.0)
    with pytest.raises(BadDimension):
        as_rotation(stack)
