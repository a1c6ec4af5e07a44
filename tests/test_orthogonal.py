import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import count_normal_forms, rand_orthogonal, record_calls
from rotpair import (
    DEFAULT_TOL,
    BadAngle,
    BadDimension,
    BadParameter,
    ClassLabel,
    Dim1,
    Dim2LeftScalar,
    Dim2Proper,
    Dim2RightScalar,
    Dim4,
    NotARotation,
    NotOrthogonal,
    NotProper,
    NormalForm,
    NumericalFailure,
    RotPairError,
    Rotation,
    RotationKind,
    Tolerance,
    as_rotation,
    classify,
    decompose,
    generate_pair,
    generate_rotation,
    labels_match,
    max_abs,
    orthogonal_normal_form,
    rho,
    rot2,
    unrho,
)
from rotpair.linalg import block_diag, orthonormality_residual, single_linkage


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
    def test_rejects_non_square(self):
        with pytest.raises(BadDimension, match="expected a square matrix"):
            orthogonal_normal_form(np.ones((2, 3)))

    def test_rejects_block_inside_the_sine_floor(self):
        # a residual_tol below the angle keeps the +1 residual from taking it
        with pytest.raises(NumericalFailure, match="too close to 0 or pi"):
            orthogonal_normal_form(rot2(1e-10), Tolerance(residual_tol=1e-12))

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
        # close to pi, but the -I residual fails and block extraction must
        # take over
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


def _block_matrix_by_loop(nf):
    """The block form assembled one block at a time, as a reference."""
    out = np.zeros((nf.dim, nf.dim))
    pos = 0
    for a in nf.angles:
        out[pos:pos + 2, pos:pos + 2] = rot2(a)
        pos += 2
    for sign in [1.0] * nf.fix_dim + [-1.0] * nf.neg_dim:
        out[pos, pos] = sign
        pos += 1
    return out


@pytest.mark.parametrize("angles, fix_dim, neg_dim", [
    ((), 1, 0), ((), 0, 3), ((), 2, 2), ((0.7,), 0, 0), ((0.0, 0.7), 0, 0),
    ((0.3, 0.3, 2.9), 1, 2), ((np.pi - 1e-9,) * 5, 0, 1),
])
def test_block_matrix_matches_the_loop_bit_for_bit(angles, fix_dim, neg_dim):
    n = 2 * len(angles) + fix_dim + neg_dim
    nf = NormalForm(angles=angles, fix_dim=fix_dim, neg_dim=neg_dim, basis=np.eye(n))
    want = _block_matrix_by_loop(nf)
    got = nf.block_matrix()
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# the angle of a rotation lies in [0, pi]: a NaN, or a value outside,
# is refused when the rotation is built, before any entry reads it
@pytest.mark.parametrize("angle", [math.nan, 4.0, -0.1, math.inf, 10**400,
                                   np.float64(-1e-300)],
                         ids=["nan", "above-pi", "negative", "inf", "huge-int",
                              "tiny-negative"])
def test_rotation_angle_outside_zero_to_pi_is_refused(angle):
    with pytest.raises(BadAngle, match=r"is not in \[0, pi\]"):
        Rotation(rot2(1.0), angle)


@pytest.mark.parametrize("angle", [0, 0.0, math.pi, np.float64(1.0)])
def test_rotation_angle_in_zero_to_pi_is_kept(angle):
    assert Rotation(np.eye(2), angle).angle == angle


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
        for M in (np.eye(2), [[1, 0], [0, 1]]):
            r = as_rotation(M)
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

    @pytest.mark.parametrize("M", [
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.array([[-np.inf, 0.0], [0.0, 1.0]]),
        np.array([[np.inf, 1.0], [0.0, 1.0]]),
        np.full((3, 3), -np.inf),
    ], ids=["inf", "minus-inf", "inf-beside-one", "all-minus-inf"])
    def test_rejects_infinite_entry_as_nan(self, M):
        # M^T M would multiply the infinity by a zero and warn, which the
        # suite's filterwarnings turns into an error
        with pytest.raises(NotOrthogonal, match=r"^orthogonality residual nan exceeds "
                           r"1\.000e-09$"):
            as_rotation(M)

    @pytest.mark.parametrize("huge", [1e200, -1e155])
    def test_rejects_huge_finite_entry_as_inf(self, huge):
        # the squares overflow although every entry is finite; M^T M is not
        # formed, so no overflow warning comes before the refusal
        with pytest.raises(NotOrthogonal, match=r"^orthogonality residual inf exceeds "
                           r"1\.000e-09$"):
            as_rotation(np.array([[huge, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("M", [
        np.eye(2) + 0.5j,
        [["1", "0"], ["0", "1"]],
        np.eye(2, dtype=bool),
        "abc",
        [[1.0, 0.0], [0.0]],
        [[10**400]],
    ], ids=["complex", "strings", "booleans", "string", "ragged", "huge-int"])
    def test_rejects_non_real_input(self, M):
        # checked before any cast: a complex identity is no rotation
        with pytest.raises(BadParameter):
            as_rotation(M)
        with pytest.raises(BadParameter):
            orthogonal_normal_form(M)

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

    @pytest.mark.parametrize("n", [2, 4, 8, 24, 96])
    @pytest.mark.parametrize("gap", [5e-8, 1e-7, 2e-7])
    def test_angle_next_to_boundary_is_proper(self, n, gap):
        # Next to 0 or pi but not +-I: the residual alone decides, and
        # block extraction reads the true angle.
        for a in (gap, np.pi - gap):
            for seed in range(3):
                r = generate_rotation(n, a, seed)
                assert r.kind is RotationKind.PROPER
                assert abs(r.angle - a) <= 1e-12

    # The +-I envelope: a matrix within residual_tol/3 of +-I in the
    # spectral norm certifies as +-I, with angle exactly 0 or pi.  That
    # bound keeps the orthogonality residual below residual_tol and each
    # eigenvalue cluster's residual |M E -+ E| below check_tol, however
    # far arccos spreads the clusters' angles.
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 12), sign=st.sampled_from([1, -1]),
           shape=st.sampled_from(["symmetric", "general", "diagonal"]),
           size=st.floats(0.0, 1.0), beta=st.floats(0.1, math.pi - 0.1),
           seed=st.integers(0, 2**32 - 1))
    def test_scalar_with_input_error_is_certified(self, n, sign, shape, size,
                                                   beta, seed):
        rng = np.random.default_rng(seed)
        E = rng.standard_normal((n, n))
        if shape == "symmetric":
            E = (E + E.T) / 2.0
        elif shape == "diagonal":
            E = np.diag(np.eye(n)[rng.integers(n)] * rng.choice([-1.0, 1.0]))
        E *= size * DEFAULT_TOL.residual_tol / 3.0 / np.linalg.norm(E, 2)
        r = as_rotation(sign * np.eye(n) + E)
        if sign > 0:
            assert (r.kind, r.angle) == (RotationKind.IDENTITY, 0.0)
        else:
            assert (r.kind, r.angle) == (RotationKind.NEG_IDENTITY, math.pi)
        if n % 2 == 0:
            forms = classify(r, generate_rotation(n, beta, seed)).forms
            assert len(forms) == n // 2
            for f in forms:
                assert type(f) is Dim2LeftScalar and f.r == sign
                assert abs(f.beta - beta) <= DEFAULT_TOL.angle_tol

    # Near an end the angle is read as atan2(sine, cosine) from the two
    # spectra, which keeps relative accuracy: within 1e-8 of the distance
    # to the nearer end, under symmetric input error up to 1e-10, on every
    # side that certifies.  Such error can still split the spectrum of a
    # side next to an end, which then raises, as it did before.
    @settings(max_examples=120, deadline=None)
    @given(n=st.sampled_from([2, 6, 24]),
           place=st.sampled_from(["near 0", "near pi", "interior"]),
           exponent=st.floats(-6.0, -3.0), noise=st.floats(0.0, 1e-10),
           seed=st.integers(0, 2**32 - 1))
    @example(n=2, place="near pi", exponent=-5.0, noise=1e-12, seed=0)
    @example(n=2, place="near 0", exponent=-3.0, noise=1e-11, seed=2)
    @example(n=2, place="near pi", exponent=-4.0, noise=1e-12, seed=4)
    def test_angle_next_to_an_end_keeps_its_relative_accuracy(self, n, place,
                                                              exponent, noise, seed):
        rng = np.random.default_rng(seed)
        gap = 10.0 ** exponent
        a = {"near 0": gap, "near pi": math.pi - gap,
             "interior": float(rng.uniform(0.1, math.pi - 0.1))}[place]
        G = rng.standard_normal((n, n))
        M = generate_rotation(n, a, seed).matrix + noise * (G + G.T) / 2.0
        try:
            r = as_rotation(M)
        except RotPairError:
            assert place != "interior"
            return
        assert r.kind is RotationKind.PROPER
        assert abs(r.angle - a) <= 1e-8 * min(a, math.pi - a)

    # A certified rotation owns its matrix: writing into the input, or
    # into the rotation's matrix, cannot change what was certified.
    @pytest.mark.parametrize("M", [
        generate_rotation(4, 1.0, 3).matrix,
        np.eye(4),
        -np.eye(4),
        [[0.0, -1.0], [1.0, 0.0]],
    ], ids=["proper", "identity", "negated", "list"])
    def test_certified_matrix_is_a_read_only_copy(self, M):
        M = np.array(M)
        r = as_rotation(M)
        assert r.matrix is not M and not np.shares_memory(r.matrix, M)
        assert np.array_equal(r.matrix, M)
        with pytest.raises(ValueError):
            r.matrix[0, 0] = 0.5
        kept, angle = r.matrix.copy(), r.angle
        M[:] = -M
        assert np.array_equal(r.matrix, kept) and r.angle == angle
        for twin in (copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert twin == r and twin.normal_form is not None
            with pytest.raises(ValueError):
                twin.matrix[0, 0] = 0.5
        assert copy.deepcopy(Rotation(np.eye(2), 0.0)).matrix.flags.writeable

    def test_writing_into_the_input_changes_no_label(self):
        doc = generate_pair([Dim4(1.0, 2.0, 0.8)], seed=5)
        M = doc.delta.copy()
        d, e = as_rotation(M), as_rotation(doc.epsilon)
        kept, angle, label = d.matrix.copy(), d.angle, classify(d, e)
        M[:] = np.eye(4)
        assert np.array_equal(d.matrix, kept) and d.angle == angle
        assert classify(d, e) == label
        assert classify(d, as_rotation(doc.epsilon)) == label   # recomputed

    # Its normal form is read-only too: decompose and the reports read the
    # basis again, so a write into it cannot change what they see.
    @pytest.mark.parametrize("M", [
        generate_rotation(4, 1.0, 3).matrix,
        np.eye(4),
        -np.eye(4),
    ], ids=["proper", "identity", "negated"])
    def test_certified_normal_form_basis_is_read_only(self, M):
        basis = as_rotation(M).normal_form.basis   # a proper one's first read builds it
        with pytest.raises(ValueError):
            basis[0, 0] = 0.5

    def test_split_spectrum_basis_is_read_only(self):
        nf = orthogonal_normal_form(block_diag(rot2(0.4), rot2(2.0), np.eye(1)))
        assert np.allclose(nf.angles, (0.4, 2.0)) and nf.fix_dim == 1
        with pytest.raises(ValueError):
            nf.basis[0, 0] = 0.5

    def test_writing_into_the_basis_changes_no_decomposition(self):
        doc = generate_pair([Dim2LeftScalar(r=1, beta=0.9)] * 2, seed=5)
        d, e = as_rotation(doc.delta), as_rotation(doc.epsilon)
        basis = e.normal_form.basis
        with pytest.raises(ValueError):
            basis[:, [0, 1]] = basis[:, [0, 2]]
        assert decompose(d, e).dims == (2, 2)

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

    # a string, None, a bool or a complex number is no angle
    @pytest.mark.parametrize("alpha", [0.0, np.pi, -0.2, 4.0, float("nan"),
                                       "1", None, True, False, 1j])
    def test_rejects_alpha_outside_open_interval(self, alpha):
        s = as_rotation(rot2(np.pi / 2))
        with pytest.raises(BadAngle, match=r"is not a real number in \(0, pi\)"):
            unrho(s, alpha)

    def test_wrong_input_angle_message_names_its_bound(self):
        with pytest.raises(BadAngle, match=r"input angle 0\.3: distance from pi/2 "
                           r"1\.271e\+00 exceeds 1\.000e-07"):
            unrho(Rotation(rot2(0.3), 0.3), 0.5)


def count_eigensolves(monkeypatch):
    """Counter of ``numpy.linalg`` eigensolves and ``symmetric_eigen`` calls.

    ``eigh`` is counted as ``real_eigh`` or ``hermitian_eigh`` by the
    dtype of its argument.
    """
    from rotpair import orthogonal

    counts = {"eigvalsh": 0, "real_eigh": 0, "hermitian_eigh": 0,
              "symmetric_eigen": 0}
    eigvalsh, eigh = np.linalg.eigvalsh, np.linalg.eigh
    symmetric_eigen = orthogonal.symmetric_eigen

    def counted_eigvalsh(a, *args, **kwargs):
        counts["eigvalsh"] += 1
        return eigvalsh(a, *args, **kwargs)

    def counted_eigh(a, *args, **kwargs):
        counts["hermitian_eigh" if np.iscomplexobj(a) else "real_eigh"] += 1
        return eigh(a, *args, **kwargs)

    def counted_symmetric_eigen(S):
        counts["symmetric_eigen"] += 1
        return symmetric_eigen(S)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(orthogonal, "symmetric_eigen", counted_symmetric_eigen)
    return counts


def count_linalg(monkeypatch):
    """Calls of each public ``numpy.linalg`` function, by name, each
    function wrapped in ``numpy.linalg`` as ``tools/ab.py`` wraps them; a
    values-only ``svd`` counts as ``svd_values``."""
    counts = {}
    for name in dir(np.linalg):
        fn = getattr(np.linalg, name)
        if name.startswith("_") or not callable(fn) or isinstance(fn, type):
            continue

        def counted(*args, _name=name, _fn=fn, **kwargs):
            key = ("svd_values" if _name == "svd" and kwargs.get("compute_uv") is False
                   else _name)
            counts[key] = counts.get(key, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


class TestFactorizationBudget:
    """What certifying a side and labelling a pair with a +-I side factorize."""

    @pytest.mark.parametrize("n", [2, 8, 96])
    def test_proper_side_takes_one_eigvalsh_and_one_values_svd(self, monkeypatch, n):
        from rotpair import orthogonal

        M = generate_rotation(n, 1.3, seed=n).matrix
        counts = count_linalg(monkeypatch)
        clustered = record_calls(monkeypatch, orthogonal, "single_linkage")
        r = as_rotation(M)
        assert r.kind is RotationKind.PROPER
        assert counts == {"eigvalsh": 1, "svd_values": 1}
        assert clustered == []   # one cluster by its two ends alone

    @pytest.mark.parametrize("n", [2, 8, 96])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scalar_side_takes_none(self, monkeypatch, n, sign):
        Q = rand_orthogonal(n, np.random.default_rng(n))
        M = sign * (Q @ Q.T)
        counts = count_linalg(monkeypatch)
        assert as_rotation(M).kind is not RotationKind.PROPER
        assert counts == {}

    @pytest.mark.parametrize("spec", [
        [Dim2LeftScalar(-1, 1.9)] * 4,
        [Dim2RightScalar(0.7, 1)] * 3,
        [Dim1(1, -1)] * 5,
    ], ids=["left-scalar", "right-scalar", "lines"])
    def test_labelling_a_pair_with_a_scalar_side_takes_none(self, monkeypatch, spec):
        doc = generate_pair(spec, seed=3)
        d, e = as_rotation(doc.delta), as_rotation(doc.epsilon)
        counts = count_linalg(monkeypatch)
        label = classify(d, e)
        assert labels_match(label, ClassLabel(forms=tuple(spec)))
        assert counts == {}


class TestEigensolveCount:
    """One eigenvalue-only solve; eigenvectors only where a spectrum splits."""

    @pytest.mark.parametrize("n", [2, 8, 96])
    def test_single_angle_rotation(self, monkeypatch, n):
        # certified from the two spectra: no eigenvectors until a read
        M = generate_rotation(n, 1.3, seed=n).matrix
        counts = count_eigensolves(monkeypatch)
        nf = orthogonal_normal_form(M)
        assert counts == {"eigvalsh": 1, "real_eigh": 0, "hermitian_eigh": 0,
                          "symmetric_eigen": 0}
        assert len(nf.angles) == n // 2
        assert counts == {"eigvalsh": 1, "real_eigh": 0, "hermitian_eigh": 1,
                          "symmetric_eigen": 0}

    @pytest.mark.parametrize("first", ["basis", "angles"])
    def test_blocks_are_built_once_on_first_read(self, monkeypatch, first):
        M = generate_rotation(8, 1.3, seed=8).matrix
        counts = count_eigensolves(monkeypatch)
        nf = orthogonal_normal_form(M)
        built = getattr(nf, first)
        assert counts["hermitian_eigh"] == 1
        basis, angles = nf.basis, nf.angles
        assert getattr(nf, first) is built
        assert nf.basis is basis and nf.angles is angles
        assert counts["hermitian_eigh"] == 1
        _assert_certified_basis(nf, M)

    def test_blocks_are_built_from_the_certified_matrix(self):
        M = generate_rotation(8, 1.3, seed=8).matrix.copy()
        nf = orthogonal_normal_form(M)
        want = orthogonal_normal_form(M.copy())
        M[:] = np.eye(8)
        assert nf == want

    def test_dim_and_counts_build_nothing(self, monkeypatch):
        M = generate_rotation(8, 1.3, seed=8).matrix
        counts = count_eigensolves(monkeypatch)
        nf = orthogonal_normal_form(M)
        assert (nf.dim, nf.fix_dim, nf.neg_dim) == (8, 0, 0)
        assert nf.orthogonality_residual == orthonormality_residual(M)
        # nor do copies, nor probing for a name the form lacks
        twins = copy.deepcopy(nf), pickle.loads(pickle.dumps(nf))
        assert not hasattr(nf, "normal_form")
        assert counts["hermitian_eigh"] == 0
        for form in (nf, *twins):
            assert "basis" not in vars(form) and "angles" not in vars(form)
        assert all(twin == nf for twin in twins)

    def test_certifying_and_classifying_a_proper_pair_builds_no_basis(self, monkeypatch):
        # n/8 Dim4 blocks and n/4 planes of each orientation, as classify_n96
        # draws them: the labels read the matrices, never a normal-form basis
        n = 96
        spec = [Dim4(0.7, 1.9, 0.3 + 0.2 * i) for i in range(n // 8)]
        spec += [Dim2Proper(0.7, 1.9, r) for r in (1, -1) for _ in range(n // 8)]
        doc = generate_pair(spec, seed=96)
        sizes = []
        eigh = np.linalg.eigh

        def recorded(a, *args, **kwargs):
            if np.iscomplexobj(a):
                sizes.append(np.shape(a)[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        d, e = as_rotation(doc.delta), as_rotation(doc.epsilon)
        label = classify(d, e)
        assert len(label.forms) == n // 8 + n // 4
        assert n not in sizes
        assert all("basis" not in vars(r.normal_form) for r in (d, e))

    @pytest.mark.parametrize("n", [2, 8, 96])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scalar(self, monkeypatch, n, sign):
        # +-I is decided by its residual before any eigensolve
        Q = rand_orthogonal(n, np.random.default_rng(n))
        M = sign * (Q @ Q.T)
        counts = count_eigensolves(monkeypatch)
        nf = orthogonal_normal_form(M)
        assert (nf.fix_dim, nf.neg_dim) == ((n, 0) if sign > 0 else (0, n))
        assert counts == {"eigvalsh": 0, "real_eigh": 0, "hermitian_eigh": 0,
                          "symmetric_eigen": 0}

    @pytest.mark.parametrize("n", [4, 8, 24])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scalar_with_split_spectrum(self, monkeypatch, n, sign):
        # symmetric input error of 1e-11 moves the eigenvalues of sym(M)
        # off +-1, and arccos spreads them into several clusters; the
        # residual alone still decides +-I, on the identity basis
        G = np.random.default_rng(n).standard_normal((n, n))
        M = sign * np.eye(n) + 1e-11 * (G + G.T) / 2.0
        thetas = np.arccos(np.clip(np.linalg.eigvalsh((M + M.T) / 2.0), -1.0, 1.0))
        assert len(single_linkage(thetas, DEFAULT_TOL.angle_tol)) > 1
        counts = count_eigensolves(monkeypatch)
        nf = orthogonal_normal_form(M)
        assert counts == {"eigvalsh": 0, "real_eigh": 0, "hermitian_eigh": 0,
                          "symmetric_eigen": 0}
        assert (nf.angles, nf.fix_dim, nf.neg_dim) == (
            (), *((n, 0) if sign > 0 else (0, n)))
        assert np.array_equal(nf.basis, np.eye(n))
        assert (max_abs(nf.basis.T @ M @ nf.basis - nf.block_matrix())
                <= DEFAULT_TOL.check_tol)

    @pytest.mark.parametrize("n", [2, 8, 96])
    def test_reflection_takes_the_general_path(self, monkeypatch, n):
        Q = rand_orthogonal(n, np.random.default_rng(n))
        M = Q @ np.diag([1.0] * (n - 1) + [-1.0]) @ Q.T
        counts = count_eigensolves(monkeypatch)
        nf = orthogonal_normal_form(M)
        assert (nf.fix_dim, nf.neg_dim) == (n - 1, 1)
        assert counts["symmetric_eigen"] == counts["real_eigh"] == 1

    @pytest.mark.parametrize("n", [8, 96])
    def test_two_angles_take_the_general_path(self, monkeypatch, n):
        Q = rand_orthogonal(n, np.random.default_rng(n))
        M = Q @ block_diag(*[rot2(0.4)] * (n // 4), *[rot2(2.0)] * (n // 4)) @ Q.T
        counts = count_eigensolves(monkeypatch)
        nf = orthogonal_normal_form(M)
        assert len(nf.angles) == n // 2
        assert counts["symmetric_eigen"] == counts["real_eigh"] == 1
        assert counts["hermitian_eigh"] == 2


@pytest.mark.parametrize("blocks", [
    [np.eye(7), [[-1.0]]],
    [rot2(0.4), rot2(0.4), rot2(2.0), rot2(2.0)],
], ids=["reflection", "two-angles"])
def test_split_spectrum_is_clustered_once(monkeypatch, blocks):
    from rotpair import orthogonal

    Q = rand_orthogonal(8, np.random.default_rng(8))
    M = Q @ block_diag(*blocks) @ Q.T
    calls = record_calls(monkeypatch, orthogonal, "single_linkage")
    nf = orthogonal_normal_form(M)
    assert len(calls) == 1
    _assert_certified_basis(nf, M)


def _orthogonal_inputs():
    """Orthogonal matrices of every kind, some with input error."""
    rng = np.random.default_rng(5)
    Q = rand_orthogonal(8, rng)
    G = rng.standard_normal((8, 8))
    return {
        "identity": np.eye(8),
        "negated-with-error": -np.eye(8) + 1e-11 * (G + G.T),
        "single-angle": Q @ block_diag(*[rot2(1.1)] * 4) @ Q.T,
        "reflection": Q @ np.diag([1.0] * 7 + [-1.0]) @ Q.T,
        "two-angles-polar": _polar(Q @ block_diag(rot2(0.4), rot2(0.4), rot2(2.0),
                                                  rot2(2.0)) @ Q.T + 1e-10 * G),
    }


@pytest.mark.parametrize("M", [pytest.param(M, id=name)
                               for name, M in _orthogonal_inputs().items()])
def test_normal_form_carries_its_orthogonality_residual(M):
    nf = orthogonal_normal_form(M)
    assert nf.orthogonality_residual == orthonormality_residual(M)


def test_normal_form_built_directly_has_no_residual():
    # NaN fails every verdict, so a form built by hand certifies nothing
    nf = NormalForm(angles=(), fix_dim=2, neg_dim=0, basis=np.eye(2))
    assert math.isnan(nf.orthogonality_residual)


def _assert_certified_basis(nf, M):
    bound = DEFAULT_TOL.check_tol
    assert max_abs(nf.basis.T @ nf.basis - np.eye(M.shape[0])) <= bound
    assert max_abs(nf.basis.T @ M @ nf.basis - nf.block_matrix()) <= bound


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, ANGLE_GRID), other=st.integers(1, ANGLE_GRID - 1),
       m=st.integers(1, 6), mr=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_one_cluster_path_agrees_with_the_general_path(k, other, m, mr, seed):
    # M turns by k pi / ANGLE_GRID (the identity at 0, its negative at
    # ANGLE_GRID); R by a different angle, so M + R has two clusters.
    assume(abs(k - other) >= 2)
    rng = np.random.default_rng(seed)
    a = k * math.pi / ANGLE_GRID
    D = np.cos(a) * np.eye(2 * m) if k in (0, ANGLE_GRID) else block_diag(*[rot2(a)] * m)
    Q = rand_orthogonal(2 * m, rng)
    M = Q @ D @ Q.T
    R = block_diag(*[rot2(other * math.pi / ANGLE_GRID)] * mr)
    P = rand_orthogonal(2 * (m + mr), rng)
    MR = P @ block_diag(M, R) @ P.T
    with pytest.MonkeyPatch.context() as patch:
        counts = count_eigensolves(patch)
        alone = orthogonal_normal_form(M)
        assert counts["symmetric_eigen"] == 0
        joint = orthogonal_normal_form(MR)
        assert counts["symmetric_eigen"] == 1
    mine = [x for x in joint.angles if abs(x - a) <= DEFAULT_TOL.angle_tol]
    assert len(mine) == len(alone.angles)
    assert max_abs(np.subtract(mine, alone.angles)) <= 1e-12
    assert (joint.fix_dim, joint.neg_dim) == (alone.fix_dim, alone.neg_dim)
    _assert_certified_basis(alone, M)
    _assert_certified_basis(joint, MR)


def test_chained_spectrum_takes_the_one_cluster_path(monkeypatch):
    # block angles 0.6 angle_tol apart spread over 1.2 angle_tol, more than
    # angle_tol, yet single linkage chains them into one cluster
    step = 0.6 * DEFAULT_TOL.angle_tol
    Q = rand_orthogonal(6, np.random.default_rng(6))
    M = Q @ block_diag(*[rot2(1.0 + k * step) for k in range(3)]) @ Q.T
    thetas = np.arccos(np.linalg.eigvalsh((M + M.T) / 2.0))
    assert np.ptp(thetas) > DEFAULT_TOL.angle_tol
    assert len(single_linkage(thetas, DEFAULT_TOL.angle_tol)) == 1
    counts = count_eigensolves(monkeypatch)
    nf = orthogonal_normal_form(M)
    assert counts == {"eigvalsh": 1, "real_eigh": 0, "hermitian_eigh": 0,
                      "symmetric_eigen": 0}
    assert max_abs(np.subtract(nf.angles, [1.0, 1.0 + step, 1.0 + 2 * step])) <= 1e-12
    assert counts == {"eigvalsh": 1, "real_eigh": 0, "hermitian_eigh": 1,
                      "symmetric_eigen": 0}
    _assert_certified_basis(nf, M)
    with pytest.raises(NotARotation, match="spread"):
        as_rotation(M)


@pytest.mark.parametrize("end", [1.0, -1.0])
def test_cosine_a_rounding_step_beyond_one_is_clipped(end):
    # arccos of it would be NaN, with a RuntimeWarning that fails the test
    M = block_diag(rot2(1.0), [[np.nextafter(end, 2.0 * end)]])
    assert max_abs(np.linalg.eigvalsh((M + M.T) / 2.0)) > 1.0
    nf = orthogonal_normal_form(M)
    assert (nf.fix_dim, nf.neg_dim) == ((1, 0) if end > 0 else (0, 1))
    assert abs(nf.angles[0] - 1.0) <= 1e-15
    _assert_certified_basis(nf, M)


def _perturbed_scalar(n, sign, where, size):
    """sign I with one perturbation entry of magnitude ``size``.

    On the diagonal it is one entry; off it, an antisymmetric pair, which
    keeps M orthogonal to within size**2.
    """
    M = sign * np.eye(n)
    if where == "corner":
        M[0, 0] += size
    elif where == "diagonal":
        M[n - 1, n - 1] -= size
    else:
        M[n - 1, 0], M[0, n - 1] = size, -size
    return M


CHECK_TOL = DEFAULT_TOL.check_tol
SCALAR_PROBES = [(n, where) for n in (1, 2, 7, 96)
                 for where in ("corner", "diagonal", "off-diagonal")
                 if n > 1 or where != "off-diagonal"]


@pytest.mark.parametrize("size", [CHECK_TOL, np.nextafter(CHECK_TOL, 1.0)],
                         ids=["at", "above"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n, where", SCALAR_PROBES)
def test_scalar_verdict_at_the_check_tolerance(n, where, sign, size):
    # the certified kind is +-I exactly when max_abs(M -+ I) <= check_tol,
    # whatever order or shortcut decides it; a diagonal perturbation that
    # large is never orthogonal within residual_tol, so it is refused first
    M = _perturbed_scalar(n, sign, where, size)
    verdict = max_abs(M - sign * np.eye(n)) <= CHECK_TOL
    if where == "off-diagonal":
        assert verdict == (size == CHECK_TOL)
    try:
        kind = as_rotation(M).kind
    except RotPairError as exc:
        kind = type(exc)
    if orthonormality_residual(M) > DEFAULT_TOL.residual_tol:
        assert kind is NotOrthogonal
        return
    scalar = RotationKind.IDENTITY if sign > 0 else RotationKind.NEG_IDENTITY
    assert (kind is scalar) == verdict
    if verdict:
        nf = orthogonal_normal_form(M)
        assert (nf.fix_dim, nf.neg_dim) == ((n, 0) if sign > 0 else (0, n))
        assert np.array_equal(nf.basis, np.eye(n))


class TestEquality:
    """``==`` compares array fields entry by entry; ``hash`` still refuses."""

    def test_normal_form(self):
        nf = orthogonal_normal_form(generate_rotation(4, 1.1, seed=3).matrix)
        # the carried residual takes no part: a copy built by hand has NaN
        copy = NormalForm(nf.angles, nf.fix_dim, nf.neg_dim, nf.basis.copy())
        assert nf == copy and not nf != copy
        basis = nf.basis.copy()
        basis[1, 2] = np.nextafter(basis[1, 2], 2.0)
        assert nf != dataclasses.replace(nf, basis=basis)
        angles = (nf.angles[0], np.nextafter(nf.angles[1], 0.0))
        assert nf != dataclasses.replace(nf, angles=angles)
        assert nf != NormalForm(nf.angles, nf.fix_dim, nf.neg_dim, nf.basis[:, :3])
        assert nf != Rotation(nf.basis, nf.angles[0]) and nf != "normal form"
        with pytest.raises(TypeError):
            hash(nf)

    def test_rotation(self):
        d = as_rotation(generate_rotation(4, 1.1, seed=3).matrix)
        # the carried normal form takes no part
        copy = Rotation(d.matrix.copy(), d.angle)
        assert d == copy and not d != copy
        assert Rotation(np.eye(2), 0.0) == Rotation(np.eye(2), 0.0)
        M = d.matrix.copy()
        M[3, 0] = np.nextafter(M[3, 0], 2.0)
        assert d != Rotation(M, d.angle)
        assert d != Rotation(d.matrix, np.nextafter(d.angle, 0.0))
        assert Rotation(np.eye(2), 0.0) != Rotation(np.eye(3), 0.0)
        assert d != d.normal_form and d != 1.1
        with pytest.raises(TypeError):
            hash(d)

    # numpy defers to both classes, so either order answers one bool
    def test_against_an_array(self):
        d = as_rotation(generate_rotation(4, 1.1, seed=3).matrix)
        for x, arr in ((d, d.matrix), (Rotation(np.eye(2), 0.0), np.eye(2)),
                       (d.normal_form, d.normal_form.basis)):
            assert (x == arr) is False and (arr == x) is False
            assert (x != arr) is True and (arr != x) is True
