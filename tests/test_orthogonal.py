import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import count_normal_forms, rand_orthogonal
from rotpair import (
    DEFAULT_TOL,
    BadAngle,
    BadDimension,
    Dim2Proper,
    Dim4,
    NotARotation,
    NotOrthogonal,
    NotProper,
    Rotation,
    RotationKind,
    as_rotation,
    generate_pair,
    max_abs,
    orthogonal_normal_form,
    rho,
    rot2,
    unrho,
)
from rotpair.linalg import block_diag


# Block angles are drawn from the grid k*pi/ANGLE_GRID, so distinct angles
# sit far more than angle_tol apart and the clustering is unambiguous.
ANGLE_GRID = 200


@st.composite
def block_spectra(draw):
    """(rotation-block angles with repeats, fix_dim, neg_dim), n <= 48."""
    picks = draw(st.lists(
        st.tuples(st.integers(1, ANGLE_GRID - 1), st.integers(1, 8)),
        max_size=3, unique_by=lambda t: t[0],
    ))
    angles = sorted(k * math.pi / ANGLE_GRID for k, mult in picks
                    for _ in range(mult))
    fix_dim = draw(st.integers(0, 4))
    neg_dim = draw(st.integers(0, 4))
    assume(1 <= 2 * len(angles) + fix_dim + neg_dim <= 48)
    return angles, fix_dim, neg_dim


def _polar(M):
    u, _, vh = np.linalg.svd(M)
    return u @ vh


def test_rot2_entries():
    assert np.allclose(rot2(np.pi / 2), [[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(rot2(0.0), np.eye(2))


class TestNormalForm:
    def test_identity(self):
        nf = orthogonal_normal_form(np.eye(3))
        assert nf.angles == ()
        assert (nf.fix_dim, nf.neg_dim) == (3, 0)

    def test_quarter_turn(self):
        nf = orthogonal_normal_form(rot2(np.pi / 2))
        assert (nf.fix_dim, nf.neg_dim) == (0, 0)
        assert len(nf.angles) == 1
        assert abs(nf.angles[0] - np.pi / 2) < 1e-12

    def test_conjugated_mixed_recovery(self):
        rng = np.random.default_rng(0)
        Q = rand_orthogonal(3, rng)
        M = Q @ block_diag(rot2(0.7), [[-1.0]]) @ Q.T
        nf = orthogonal_normal_form(M)
        assert (nf.fix_dim, nf.neg_dim) == (0, 1)
        assert len(nf.angles) == 1
        assert abs(nf.angles[0] - 0.7) <= 1e-9

    def test_similarity_holds(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            Q = rand_orthogonal(7, rng)
            M = Q @ block_diag(rot2(0.4), rot2(1.3), rot2(1.3), [[1.0]]) @ Q.T
            nf = orthogonal_normal_form(M)
            assert nf.angles == tuple(sorted(nf.angles))
            assert max_abs(nf.basis.T @ nf.basis - np.eye(7)) <= 1e-8
            assert max_abs(nf.basis.T @ M @ nf.basis - nf.block_matrix()) <= 1e-8

    def test_repeated_angle_multiplicity(self):
        nf = orthogonal_normal_form(block_diag(rot2(0.7), rot2(0.7)))
        assert len(nf.angles) == 2
        assert max(abs(a - 0.7) for a in nf.angles) <= 1e-9

    def test_reflection_has_mixed_signs(self):
        nf = orthogonal_normal_form(np.diag([1.0, -1.0]))
        assert nf.angles == ()
        assert (nf.fix_dim, nf.neg_dim) == (1, 1)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_conjugated_scalar_despite_rounding_noise(self, sign):
        # Q (+-I) Q^T carries matmul noise of order n*eps, which arccos
        # blows up to ~1e-7 in angle next to the endpoints; the scalar
        # eigenspace must still come back whole.
        rng = np.random.default_rng(5)
        for _ in range(20):
            Q = rand_orthogonal(8, rng)
            nf = orthogonal_normal_form(Q @ (sign * np.eye(8)) @ Q.T)
            assert nf.angles == ()
            want = (8, 0) if sign > 0 else (0, 8)
            assert (nf.fix_dim, nf.neg_dim) == want

    def test_genuine_angle_just_inside_boundary(self):
        # close enough to pi to land in the snap window, but the scalar
        # certificate fails and block extraction must take over
        a = np.pi - 1e-6
        nf = orthogonal_normal_form(rot2(a))
        assert (nf.fix_dim, nf.neg_dim) == (0, 0)
        assert len(nf.angles) == 1
        assert abs(nf.angles[0] - a) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(spectrum=block_spectra(), seed=st.integers(0, 2**32 - 1))
    def test_conjugated_block_spectrum_recovered(self, spectrum, seed):
        angles, fix_dim, neg_dim = spectrum
        blocks = [rot2(a) for a in angles]
        blocks += [np.eye(fix_dim), -np.eye(neg_dim)]
        D = block_diag(*blocks)
        Q = rand_orthogonal(D.shape[0], np.random.default_rng(seed))
        M = Q @ D @ Q.T
        nf = orthogonal_normal_form(M)
        bound = 10 * DEFAULT_TOL.residual_tol
        assert (nf.fix_dim, nf.neg_dim) == (fix_dim, neg_dim)
        assert max_abs(nf.basis.T @ nf.basis - np.eye(M.shape[0])) <= bound
        assert max_abs(nf.basis.T @ M @ nf.basis - nf.block_matrix()) <= bound
        assert len(nf.angles) == len(angles)
        assert max_abs(np.subtract(nf.angles, angles)) <= DEFAULT_TOL.angle_tol

    def test_rejects_non_orthogonal(self):
        with pytest.raises(NotOrthogonal):
            orthogonal_normal_form(np.eye(2) * 1.01)

    def test_rejects_empty(self):
        with pytest.raises(BadDimension):
            orthogonal_normal_form(np.zeros((0, 0)))


class TestAsRotation:
    def test_equal_blocks(self):
        r = as_rotation(block_diag(rot2(0.3), rot2(0.3)))
        assert r.kind is RotationKind.PROPER
        assert abs(r.angle - 0.3) <= 1e-12

    def test_negative_identity(self):
        r = as_rotation(-np.eye(5))
        assert r.kind is RotationKind.NEG_IDENTITY
        assert r.angle == math.pi

    def test_identity(self):
        r = as_rotation(np.eye(2))
        assert r.kind is RotationKind.IDENTITY
        assert r.angle == 0.0

    def test_rejects_two_angles(self):
        with pytest.raises(NotARotation):
            as_rotation(block_diag(rot2(0.3), rot2(0.4)))

    def test_rejects_mixed_signs(self):
        with pytest.raises(NotARotation):
            as_rotation(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_nan(self):
        with pytest.raises(NotOrthogonal):
            as_rotation(np.full((2, 2), np.nan))

    def test_rejects_angle_with_fixed_space(self):
        with pytest.raises(NotARotation):
            as_rotation(block_diag(rot2(0.9), [[1.0]]))

    def test_certifies_matrices_with_noise_at_residual_scale(self):
        # Noise of 1e-9 splits each repeated block angle into nearby
        # distinct angles; certification must still see one angle.
        spec = [Dim2Proper(0.5, 1.2, 1), Dim4(0.5, 1.2, 0.8)]
        rng = np.random.default_rng(0)
        for seed in range(40):
            doc = generate_pair(spec, seed)
            for M, angle in ((doc.delta, 0.5), (doc.epsilon, 1.2)):
                noisy = _polar(M + 1e-9 * rng.standard_normal(M.shape))
                r = as_rotation(noisy)
                assert r.kind is RotationKind.PROPER
                assert abs(r.angle - angle) <= DEFAULT_TOL.angle_tol

    def test_inner_product_is_constant(self):
        rng = np.random.default_rng(2)
        Q = rand_orthogonal(6, rng)
        r = as_rotation(Q @ block_diag(*[rot2(1.1)] * 3) @ Q.T)
        for _ in range(200):
            v = rng.standard_normal(6)
            v /= np.linalg.norm(v)
            assert abs(v @ r.matrix @ v - math.cos(r.angle)) <= 1e-8


class TestRho:
    def test_plane_rotation_becomes_quarter_turn(self):
        out = rho(as_rotation(rot2(0.3)))
        assert max_abs(out.matrix - rot2(np.pi / 2)) <= 1e-12
        assert abs(out.angle - np.pi / 2) <= 1e-12

    def test_blockwise(self):
        out = rho(as_rotation(block_diag(rot2(0.7), rot2(0.7))))
        expected = block_diag(rot2(np.pi / 2), rot2(np.pi / 2))
        assert max_abs(out.matrix - expected) <= 1e-12

    def test_image_is_perpendicular(self):
        rng = np.random.default_rng(3)
        Q = rand_orthogonal(6, rng)
        d = as_rotation(Q @ block_diag(*[rot2(2.2)] * 3) @ Q.T)
        s = rho(d)
        for _ in range(100):
            v = rng.standard_normal(6)
            v /= np.linalg.norm(v)
            assert abs(v @ s.matrix @ v) <= 1e-9

    def test_rejects_identity(self):
        with pytest.raises(NotProper):
            rho(Rotation(matrix=np.eye(2), angle=0.0))

    def test_ignores_claimed_angle(self):
        rng = np.random.default_rng(8)
        Q = rand_orthogonal(8, rng)
        a = 1.1
        M = Q @ block_diag(*[rot2(a)] * 4) @ Q.T
        s = rho(Rotation(matrix=M, angle=a)).matrix
        assert max_abs(rho(Rotation(matrix=M, angle=a + 1e-9)).matrix - s) <= 1e-15
        assert max_abs(s - (M - math.cos(a) * np.eye(8)) / math.sin(a)) <= 1e-14

    def test_rejects_symmetric_matrix_claimed_proper(self):
        with pytest.raises(NotProper):
            rho(Rotation(matrix=np.eye(2), angle=0.5))

    def test_rejects_nan(self):
        with pytest.raises(NotOrthogonal):
            rho(Rotation(matrix=np.full((4, 4), np.nan), angle=0.5))

    def test_rejects_skew_part_that_is_no_quarter_turn(self):
        # two block angles: the scaled skew part is not orthogonal
        M = block_diag(rot2(0.3), rot2(1.2))
        with pytest.raises(NotOrthogonal):
            rho(Rotation(matrix=M, angle=0.3))

    def test_takes_no_normal_form(self, monkeypatch):
        d = as_rotation(block_diag(rot2(0.7), rot2(0.7)))
        sizes = count_normal_forms(monkeypatch)
        s = rho(d)
        assert sizes == []
        assert s.angle == math.pi / 2


class TestUnrho:
    def test_quarter_turn_to_angle(self):
        s = as_rotation(rot2(np.pi / 2))
        out = unrho(s, 0.3)
        assert max_abs(out.matrix - rot2(0.3)) <= 1e-12

    def test_mixed_orientation_blocks(self):
        s = as_rotation(block_diag(rot2(np.pi / 2), rot2(-np.pi / 2)))
        out = unrho(s, np.pi / 3)
        expected = block_diag(rot2(np.pi / 3), rot2(-np.pi / 3))
        assert max_abs(out.matrix - expected) <= 1e-12

    def test_round_trip_both_ways(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            Q = rand_orthogonal(4, rng)
            a = float(rng.uniform(0.1, np.pi - 0.1))
            d = as_rotation(Q @ block_diag(rot2(a), rot2(a)) @ Q.T)
            s = rho(d)
            assert max_abs(unrho(s, d.angle).matrix - d.matrix) <= 1e-8
            again = rho(unrho(s, a))
            assert max_abs(again.matrix - s.matrix) <= 1e-8

    def test_rejects_wrong_input_angle(self):
        with pytest.raises(BadAngle):
            unrho(as_rotation(rot2(0.3)), 0.5)

    @pytest.mark.parametrize("alpha", [0.0, np.pi, -0.2, 4.0])
    def test_rejects_alpha_outside_open_interval(self, alpha):
        s = as_rotation(rot2(np.pi / 2))
        with pytest.raises(BadAngle):
            unrho(s, alpha)
