import contextlib
import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import polar, rand_orthogonal
from rotpair import (
    DEFAULT_TOL,
    AntilinearOp,
    BadParameter,
    Dim2Proper,
    Dim4,
    NotOrthogonalPair,
    NotProper,
    NumericalFailure,
    Rotation,
    antilinear_invariant_line,
    as_rotation,
    classify,
    generate_pair,
    max_abs,
    realize,
    rot2,
    two_plane_exists,
)
from rotpair.antilinear import build_T, eigenplanes, t_squared
from rotpair.decompose import find_block, invariance_residual
from rotpair.linalg import RANK_TOL, block_diag, subspace_meet


def proper(M):
    return as_rotation(np.asarray(M, dtype=float))


def dim4_pair(alpha=0.5, beta=1.2, theta=0.8, conjugate_by=None):
    dm, em = realize(Dim4(alpha=alpha, beta=beta, theta=theta))
    if conjugate_by is not None:
        Q = conjugate_by
        dm, em = Q @ dm @ Q.T, Q @ em @ Q.T
    return proper(dm), proper(em)


@st.composite
def single_angle_rotations(draw, half_dim):
    """Conjugated rotation of R^(2*half_dim) with mixed block orientations."""
    angle = draw(st.integers(1, 199)) * math.pi / 200
    signs = draw(st.lists(st.sampled_from((-1, 1)),
                          min_size=half_dim, max_size=half_dim))
    Q = rand_orthogonal(2 * half_dim,
                        np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return proper(Q @ block_diag(*[rot2(s * angle) for s in signs]) @ Q.T)


@st.composite
def rotation_pairs(draw):
    half_dim = draw(st.integers(1, 24))
    return (draw(single_angle_rotations(half_dim)),
            draw(single_angle_rotations(half_dim)))


class TestEigenplanes:
    @settings(max_examples=60, deadline=None)
    @given(pair=rotation_pairs())
    def test_planes_are_orthonormal_conjugate_eigenplanes(self, pair):
        d, e = pair
        A, C = eigenplanes(d, e)
        bound = 10 * DEFAULT_TOL.residual_tol
        for plane, rot in ((A, d), (C, e)):
            k = rot.dim // 2
            assert plane.shape == (rot.dim, k)
            assert max_abs(plane.conj().T @ plane - np.eye(k)) <= bound
            assert max_abs(rot.matrix @ plane
                           - np.exp(1j * rot.angle) * plane) <= bound
            assert max_abs(plane.conj().T @ np.conj(plane)) <= bound

    def test_shapes_and_conjugacy(self):
        d = proper(block_diag(rot2(0.5), rot2(0.5)))
        e = proper(block_diag(rot2(1.1), rot2(1.1)))
        A, C = eigenplanes(d, e)
        B, D = np.conj(A), np.conj(C)
        for basis in (A, B, C, D):
            assert basis.shape == (4, 2)
            assert max_abs(basis.conj().T @ basis - np.eye(2)) <= 1e-10
        assert np.array_equal(B, np.conj(A))
        assert np.array_equal(D, np.conj(C))

    def test_eigen_equation(self):
        rng = np.random.default_rng(5)
        Q = rand_orthogonal(6, rng)
        d = proper(Q @ block_diag(*[rot2(0.7)] * 3) @ Q.T)
        e = proper(Q @ block_diag(*[rot2(2.1)] * 3) @ Q.T)
        A, C = eigenplanes(d, e)
        B, D = np.conj(A), np.conj(C)
        assert max_abs(d.matrix @ A - np.exp(0.7j) * A) <= 1e-9
        assert max_abs(d.matrix @ B - np.exp(-0.7j) * B) <= 1e-9
        assert max_abs(e.matrix @ C - np.exp(2.1j) * C) <= 1e-9
        assert max_abs(e.matrix @ D - np.exp(-2.1j) * D) <= 1e-9

    # Each plane is judged against the mean eigenvalue its matrix shows,
    # so a claim within angle_tol of the certified angle is never read.
    @pytest.mark.parametrize("make_d", [
        lambda: dim4_pair(alpha=1.0)[0].matrix,
        lambda: block_diag(rot2(1.0), rot2(1.0)),
    ], ids=["dim4", "two_planes"])
    def test_claimed_angle_is_not_read(self, make_d):
        M = make_d()
        e = dim4_pair(alpha=1.0, beta=2.0)[1]
        certified = two_plane_exists(proper(M), e)
        claimed = two_plane_exists(Rotation(M, 1.0 + 5e-8), e)
        assert claimed[0] == certified[0]
        assert (claimed[1] is None and certified[1] is None
                or np.array_equal(claimed[1], certified[1]))

    @pytest.mark.parametrize("second", [1.0 + 5e-8, 1.5])
    def test_two_angle_matrix_fails_the_eigenplane_residual(self, second):
        bad = Rotation(block_diag(rot2(1.0), rot2(second)), 1.0)
        good = dim4_pair(alpha=2.0)[0]
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(NumericalFailure, match="^eigenplane residual"):
                two_plane_exists(*pair)

    # The eigenplane search checks its pair at its public entry,
    # two_plane_exists; eigenplanes itself takes what that guarantees.
    def test_rejects_non_proper(self):
        ident = Rotation(matrix=np.eye(4), angle=0.0)
        d = proper(block_diag(rot2(0.5), rot2(0.5)))
        with pytest.raises(NotProper):
            two_plane_exists(ident, d)
        with pytest.raises(NotProper):
            two_plane_exists(d, ident)

    def test_rejects_dimension_mismatch(self):
        d = proper(rot2(0.5))
        e = proper(block_diag(rot2(0.5), rot2(0.5)))
        with pytest.raises(NotOrthogonalPair):
            two_plane_exists(d, e)


def assert_meet_case(d, e, which):
    """The eigenplane meet ``which`` of the pair is where the search stops.

    Overlapping eigenplanes leave the antilinear operator undefined, so
    the meets must catch them before it is built: ``find_block`` returns
    one plane per meet column and ``two_plane_exists`` a checked witness.
    """
    A, C = eigenplanes(d, e)
    meets = {"AC": subspace_meet(A, C),
             "AD": subspace_meet(A, np.conj(C))}
    assert meets[which].shape[1] > 0
    assert which == "AC" or meets["AC"].shape[1] == 0
    blocks = find_block(d, e)
    assert [b.dim for b in blocks] == [2] * meets[which].shape[1]
    exists, witness = two_plane_exists(d, e)
    assert exists
    assert invariance_residual(witness, d, e) <= 1e-8


@contextlib.contextmanager
def gram_conditions():
    """``sigma_min / sigma_max`` of both Gram matrices at every ``build_T`` call,
    for every piece of a stacked call.

    Each call's operator is also checked to be finite.
    """
    module = importlib.import_module("rotpair.decompose")
    original = module.build_T
    seen = []

    def checked(A, C):
        B = np.conj(A)
        for G in (A.conj().swapaxes(-1, -2) @ C, B.conj().swapaxes(-1, -2) @ C):
            s = np.linalg.svd(G, compute_uv=False)
            seen.extend((s[..., -1] / s[..., 0]).reshape(-1).tolist())
        T = original(A, C)
        assert np.all(np.isfinite(T.M))
        return T

    module.build_T = checked
    try:
        yield seen
    finally:
        module.build_T = original


class TestBuildT:
    def test_aligned_same_orientation_overlaps(self):
        d = proper(block_diag(rot2(0.5), rot2(0.5)))
        e = proper(block_diag(rot2(1.1), rot2(1.1)))
        assert_meet_case(d, e, "AC")

    def test_aligned_opposite_orientation_overlaps(self):
        d = proper(block_diag(rot2(0.5), rot2(0.5)))
        e = proper(block_diag(rot2(-1.1), rot2(-1.1)))
        assert_meet_case(d, e, "AD")

    def test_exact_overlap_in_the_plane(self):
        # G_BC is exactly zero here; nothing may divide by it
        d, e = proper(rot2(0.5)), proper(rot2(1.1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_meet_case(d, e, "AC")

    @pytest.mark.parametrize("r,which", [(1, "AC"), (-1, "AD")])
    def test_overlap_beside_four_block(self, r, which):
        # One overlap line next to a twisted 4-block: the Gram matrix keeps
        # a large singular value and only its relative smallest one vanishes.
        Q = rand_orthogonal(6, np.random.default_rng(24))
        d2, e2 = realize(Dim2Proper(alpha=0.5, beta=1.2, r=r))
        d4, e4 = realize(Dim4(alpha=0.5, beta=1.2, theta=0.8))
        d = proper(Q @ block_diag(d2, d4) @ Q.T)
        e = proper(Q @ block_diag(e2, e4) @ Q.T)
        assert_meet_case(d, e, which)

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.1, math.pi - 0.1), beta=st.floats(0.1, math.pi - 0.1),
           log_gap=st.floats(math.log(1e-10), math.log(1e-2)),
           near_pi=st.booleans(), seed=st.integers(0, 2**31 - 1))
    def test_reached_only_with_invertible_gram_matrices(self, alpha, beta, log_gap,
                                                        near_pi, seed):
        # A twist next to 0 or pi nearly overlaps the eigenplanes, beside
        # planes that overlap them exactly in both orientations.
        gap = math.exp(log_gap)
        theta = math.pi - gap if near_pi else gap
        doc = generate_pair([Dim4(alpha, beta, theta), Dim2Proper(alpha, beta, 1),
                             Dim2Proper(alpha, beta, -1)], seed)
        with gram_conditions() as seen:
            classify(as_rotation(doc.delta), as_rotation(doc.epsilon))
        assert all(ratio > RANK_TOL for ratio in seen)
        # the 4-block stays whole, and reaches the operator, from 1e-8 on
        assert seen or gap < 1e-8

    def test_well_defined_on_c(self):
        rng = np.random.default_rng(6)
        d, e = dim4_pair(conjugate_by=rand_orthogonal(4, rng))
        A, C = eigenplanes(d, e)
        B = np.conj(A)
        T = build_T(A, C)
        for _ in range(20):
            y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            c = C @ y
            lhs = T.M @ np.conj(A.conj().T @ c)
            rhs = np.conj(B.conj().T @ c)
            assert max_abs(lhs - rhs) <= 1e-9

    def test_operator_is_bijective(self):
        d, e = dim4_pair()
        T = build_T(*eigenplanes(d, e))
        assert T.M.shape == (2, 2)
        s = np.linalg.svd(T.M, compute_uv=False)
        assert s[-1] > 1e-6


class TestTSquared:
    def test_canonical_four_block_is_negative_scalar(self):
        # The square collapses to -tan(theta/2)^2 times the identity; the
        # canonical triple (0.5, 1.2, 0.8) freezes tan(0.4)^2 below.
        d, e = dim4_pair(alpha=0.5, beta=1.2, theta=0.8)
        N = t_squared(build_T(*eigenplanes(d, e)))
        assert max_abs(N + 0.17875410581097512 * np.eye(2)) <= 1e-10

    @pytest.mark.parametrize("theta", [0.3, 0.8, 1.2])
    def test_spectrum_tracks_twist_angle(self, theta):
        rng = np.random.default_rng(7)
        d, e = dim4_pair(theta=theta, conjugate_by=rand_orthogonal(4, rng))
        N = t_squared(build_T(*eigenplanes(d, e)))
        evals = np.linalg.eigvals(N)
        target = -math.tan(theta / 2.0) ** 2
        assert max_abs(evals - target) <= 1e-9

    def test_matches_double_application(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        T = AntilinearOp(M=M, basis_a=np.eye(3, dtype=complex))
        N = t_squared(T)
        for _ in range(10):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert max_abs(T.apply(T.apply(x)) - N @ x) <= 1e-9


class TestInvariantLine:
    def test_conjugation_fixes_real_vectors(self):
        T = AntilinearOp(M=np.eye(3, dtype=complex), basis_a=np.eye(3, dtype=complex))
        v = antilinear_invariant_line(T)
        assert v is not None
        mu = np.vdot(v, T.apply(v))
        assert max_abs(T.apply(v) - mu * v) <= 1e-10

    def test_real_diagonal_picks_dominant_line(self):
        T = AntilinearOp(
            M=np.diag([2.0, 3.0, 5.0]).astype(complex),
            basis_a=np.eye(3, dtype=complex),
        )
        v = antilinear_invariant_line(T)
        assert v is not None
        assert abs(abs(v[2]) - 1.0) <= 1e-12

    def test_quarter_turn_square_has_no_line(self):
        # M^2 = -I here, so the square has only the eigenvalue -1.
        T = AntilinearOp(
            M=np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex),
            basis_a=np.eye(2, dtype=complex),
        )
        assert antilinear_invariant_line(T) is None

    def test_swap_takes_the_line_of_t_u_plus_u(self):
        # N = I, so the eigenvector u = e0 of the square is not mapped
        # onto its own line: T u = e1, and the line is T u + sqrt(1) u
        T = AntilinearOp(M=np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
                         basis_a=np.eye(2, dtype=complex))
        v = antilinear_invariant_line(T)
        mu = np.vdot(v, T.apply(v))
        assert np.linalg.norm(T.apply(v) - mu * v) <= DEFAULT_TOL.check_tol
        assert max_abs(np.abs(v) - 1 / math.sqrt(2)) <= 1e-15

    def test_four_block_operator_has_no_line(self):
        rng = np.random.default_rng(9)
        for theta in (0.3, 0.8, 1.4):
            d, e = dim4_pair(theta=theta, conjugate_by=rand_orthogonal(4, rng))
            T = build_T(*eigenplanes(d, e))
            assert antilinear_invariant_line(T) is None

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_odd_dimension_always_has_line(self, k):
        rng = np.random.default_rng(10 + k)
        for _ in range(25):
            M = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            T = AntilinearOp(M=M, basis_a=np.eye(k, dtype=complex))
            v = antilinear_invariant_line(T)
            assert v is not None
            mu = np.vdot(v, T.apply(v))
            assert max_abs(T.apply(v) - mu * v) <= 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator_rejected(self, bad):
        T = AntilinearOp(M=np.array([[bad]]), basis_a=np.eye(1))
        with pytest.raises(BadParameter, match="non-finite"):
            antilinear_invariant_line(T)

    def test_zero_operator_rejected(self):
        T = AntilinearOp(M=np.zeros((3, 3), dtype=complex),
                         basis_a=np.eye(3, dtype=complex))
        with pytest.raises(NumericalFailure):
            antilinear_invariant_line(T)


# A twist next to 0 or pi is drawn as its log10 distance from the end.
TWISTS = st.one_of(
    st.floats(0.05, math.pi - 0.05),
    st.floats(-7.0, -1.0).map(lambda x: 10.0 ** x),
    st.floats(-7.0, -1.0).map(lambda x: math.pi - 10.0 ** x),
)


@st.composite
def dim4_only_pairs(draw):
    """Haar-conjugated sum of 1 to 3 Dim4 blocks, equal or distinct twists.

    Half of the pairs get Gaussian noise of size 1e-10 on both sides,
    projected back to the nearest orthogonal matrices.
    """
    alpha = draw(st.floats(0.1, math.pi - 0.1))
    beta = draw(st.floats(0.1, math.pi - 0.1))
    count = draw(st.integers(1, 3))
    if draw(st.booleans()):
        thetas = [draw(TWISTS)] * count
    else:
        thetas = [draw(TWISTS) for _ in range(count)]
    seed = draw(st.integers(0, 2**31 - 1))
    doc = generate_pair([Dim4(alpha, beta, t) for t in thetas], seed)
    d, e = doc.delta, doc.epsilon
    if draw(st.booleans()):
        rng = np.random.default_rng(seed)
        d = polar(d + 1e-10 * rng.standard_normal(d.shape))
        e = polar(e + 1e-10 * rng.standard_normal(e.shape))
    return proper(d), proper(e)


@settings(max_examples=100, deadline=None)
@given(pair=dim4_only_pairs())
def test_pair_without_invariant_plane_gives_no_operator_line(pair):
    """With both eigenplane meets empty, the antilinear operator has no line.

    An invariant plane makes a meet non-empty, and ``T u = mu u`` would
    put ``c = u + conj(mu) conj(u)`` in C with ``c^T c = 2 conj(mu)
    |u|^2 != 0``, although C is orthogonal to conj(C).  So the line
    branch of the eigenplane search serves no input.
    """
    d, e = pair
    A, C = eigenplanes(d, e)
    assert subspace_meet(A, C).shape[1] == 0
    assert subspace_meet(A, np.conj(C)).shape[1] == 0
    assert antilinear_invariant_line(build_T(A, C)) is None
    assert two_plane_exists(d, e) == (False, None)
