import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_normal_forms, pair_rotations, rand_orthogonal
from rotpair import (
    BadAngle,
    BadParameter,
    ClassLabel,
    Dim1,
    Dim2LeftScalar,
    Dim2Proper,
    Dim2RightScalar,
    Dim4,
    NotConstant,
    NotIntertwiner,
    NotIrreducible,
    NotProper,
    NumericalFailure,
    Rotation,
    as_rotation,
    build_report,
    classify,
    classify_block,
    generate_pair,
    isomorphic,
    labels_match,
    max_abs,
    orientation_sign,
    orthogonalize_intertwiner,
    realize,
    rot2,
    t_theta,
    theta_invariant,
)
from rotpair.decompose import InvariantBlock
from rotpair.linalg import block_diag


def proper(M):
    return as_rotation(np.asarray(M, dtype=float))


def block_of(form):
    dm, em = realize(form)
    return InvariantBlock(basis=np.eye(dm.shape[0]), d_restricted=dm,
                         e_restricted=em)


def test_t_theta_entries():
    expected = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, math.cos(0.8), -math.sin(0.8), 0.0],
        [0.0, math.sin(0.8), math.cos(0.8), 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    assert np.allclose(t_theta(0.8), expected)
    assert np.array_equal(t_theta(0.0), np.eye(4))


class TestOrientationSign:
    def test_same_direction(self):
        assert orientation_sign(rot2(0.5), rot2(1.1)) == 1

    def test_opposite_direction(self):
        assert orientation_sign(rot2(0.5), rot2(-1.1)) == -1

    def test_reflection_conjugation_invariant(self):
        F = np.diag([1.0, -1.0])
        for b in (1.1, -1.1):
            direct = orientation_sign(rot2(0.5), rot2(b))
            flipped = orientation_sign(F @ rot2(0.5) @ F, F @ rot2(b) @ F)
            assert direct == flipped

    def test_rejects_scalar(self):
        with pytest.raises(NotProper):
            orientation_sign(np.eye(2), rot2(0.5))

    def test_rejects_wrong_size(self):
        with pytest.raises(BadParameter):
            orientation_sign(np.eye(4), np.eye(4))


class TestThetaInvariant:
    def quarter_turns(self, theta):
        s = block_diag(rot2(np.pi / 2), rot2(np.pi / 2))
        tw = t_theta(theta)
        t = tw @ s @ tw.T
        return proper(s), proper(t)

    @pytest.mark.parametrize("theta", [0.2, 0.9, 1.7, 2.7])
    def test_recovers_twist(self, theta):
        s, t = self.quarter_turns(theta)
        assert abs(theta_invariant(s, t) - theta) <= 1e-9

    @pytest.mark.parametrize("theta", [1e-8, 3e-8, np.pi - 1e-8])
    def test_recovers_twist_near_boundary(self, theta):
        # the arccos of the trace returned 0 and pi here
        s, t = self.quarter_turns(theta)
        assert abs(theta_invariant(s, t) - theta) <= 1e-15

    def test_invariant_under_conjugation(self):
        rng = np.random.default_rng(21)
        s, t = self.quarter_turns(0.9)
        for _ in range(5):
            Q = rand_orthogonal(4, rng)
            s2 = Rotation(Q @ s.matrix @ Q.T, s.angle)
            t2 = Rotation(Q @ t.matrix @ Q.T, t.angle)
            assert abs(theta_invariant(s2, t2) - 0.9) <= 1e-9

    def test_mixed_orientation_is_not_constant(self):
        # <s v, t v> is 1 at the first coordinate vector but 0 at the
        # average of the first and third, so no twist angle exists.
        s = proper(block_diag(rot2(np.pi / 2), rot2(np.pi / 2)))
        t = proper(block_diag(rot2(np.pi / 2), rot2(-np.pi / 2)))
        with pytest.raises(NotConstant):
            theta_invariant(s, t)

    def test_rejects_wrong_angle(self):
        s = proper(block_diag(rot2(0.5), rot2(0.5)))
        with pytest.raises(BadAngle):
            theta_invariant(s, s)

    def test_rejects_wrong_dimension(self):
        s = proper(rot2(np.pi / 2))
        with pytest.raises(BadParameter):
            theta_invariant(s, s)


class TestRealize:
    def test_dim1(self):
        dm, em = realize(Dim1(r=-1, s=1))
        assert np.array_equal(dm, [[-1.0]])
        assert np.array_equal(em, [[1.0]])

    def test_dim2_families(self):
        dm, em = realize(Dim2LeftScalar(r=1, beta=0.9))
        assert np.array_equal(dm, np.eye(2))
        assert np.allclose(em, rot2(0.9))
        dm, em = realize(Dim2RightScalar(alpha=1.7, s=-1))
        assert np.allclose(dm, rot2(1.7))
        assert np.array_equal(em, -np.eye(2))
        dm, em = realize(Dim2Proper(alpha=0.2, beta=2.7, r=-1))
        assert np.allclose(dm, rot2(0.2))
        assert np.allclose(em, rot2(-2.7))

    def test_dim4_angles(self):
        dm, em = realize(Dim4(alpha=0.5, beta=1.2, theta=0.8))
        assert abs(proper(dm).angle - 0.5) <= 1e-12
        assert abs(proper(em).angle - 1.2) <= 1e-12
        assert max_abs(dm.T @ dm - np.eye(4)) <= 1e-12
        assert max_abs(em.T @ em - np.eye(4)) <= 1e-12

    @pytest.mark.parametrize("form", [
        Dim1(r=0, s=1),
        Dim2LeftScalar(r=2, beta=0.5),
        Dim2Proper(alpha=0.0, beta=0.5, r=1),
        Dim2Proper(alpha=0.5, beta=np.pi, r=1),
        Dim4(alpha=0.5, beta=1.2, theta=-0.1),
        Dim2Proper(alpha="x", beta=1.0, r=1),
        Dim2Proper(alpha=None, beta=1.0, r=1),
        Dim4(alpha=0.5, beta=1.2, theta=[1]),
        Dim2RightScalar(alpha=True, s=1),
        Dim1(r=True, s=1),
        Dim2LeftScalar(r=1.0, beta=0.5),
        Dim2Proper(alpha=0.5, beta=1.0, r=-1.0),
    ])
    def test_rejects_bad_parameters(self, form):
        with pytest.raises(BadParameter):
            realize(form)


class TestClassifyBlock:
    @pytest.mark.parametrize("form", [
        Dim1(r=-1, s=1),
        Dim2LeftScalar(r=1, beta=0.9),
        Dim2RightScalar(alpha=1.7, s=-1),
        Dim2Proper(alpha=0.2, beta=2.7, r=-1),
        Dim2Proper(alpha=0.2, beta=2.7, r=1),
    ])
    def test_exact_round_trip(self, form):
        assert classify_block(block_of(form)) == form

    def test_dim4_round_trip(self):
        form = classify_block(block_of(Dim4(alpha=0.5, beta=1.2, theta=0.8)))
        assert isinstance(form, Dim4)
        assert abs(form.alpha - 0.5) <= 1e-9
        assert abs(form.beta - 1.2) <= 1e-9
        assert abs(form.theta - 0.8) <= 1e-9

    def test_rejects_scalar_scalar_plane(self):
        b = InvariantBlock(basis=np.eye(2), d_restricted=np.eye(2),
                           e_restricted=-np.eye(2))
        with pytest.raises(NotIrreducible):
            classify_block(b)

    def test_rejects_aligned_four_block(self):
        # zero twist: the pair splits, theta sits on the boundary
        s = block_diag(rot2(0.5), rot2(0.5))
        t = block_diag(rot2(1.1), rot2(1.1))
        b = InvariantBlock(basis=np.eye(4), d_restricted=s, e_restricted=t)
        with pytest.raises(NotIrreducible):
            classify_block(b)

    def test_rejects_mixed_orientation_four_block(self):
        s = block_diag(rot2(0.5), rot2(0.5))
        t = block_diag(rot2(1.1), rot2(-1.1))
        b = InvariantBlock(basis=np.eye(4), d_restricted=s, e_restricted=t)
        with pytest.raises(NotIrreducible):
            classify_block(b)

    def test_rejects_two_angle_restriction(self):
        s = block_diag(rot2(0.3), rot2(0.4))
        b = InvariantBlock(basis=np.eye(4), d_restricted=s,
                           e_restricted=block_diag(rot2(1.0), rot2(1.0)))
        with pytest.raises(NotIrreducible):
            classify_block(b)

    def test_rejects_odd_dimension(self):
        b = InvariantBlock(basis=np.eye(3), d_restricted=np.eye(3),
                           e_restricted=np.eye(3))
        with pytest.raises(NotIrreducible):
            classify_block(b)

    def test_four_block_certified_once(self, monkeypatch):
        sizes = count_normal_forms(monkeypatch)
        classify_block(block_of(Dim4(alpha=0.5, beta=1.2, theta=0.8)))
        # each restriction once; the quarter-turn parts take none
        assert len(sizes) == 2


class TestClassify:
    def test_single_block_specs(self):
        rng = np.random.default_rng(22)
        forms = [
            Dim1(r=1, s=-1),
            Dim2LeftScalar(r=-1, beta=1.3),
            Dim2RightScalar(alpha=0.4, s=1),
            Dim2Proper(alpha=0.7, beta=2.0, r=-1),
            Dim4(alpha=0.7, beta=2.0, theta=1.1),
        ]
        for form in forms:
            doc = generate_pair([form], seed=int(rng.integers(1 << 31)))
            label = classify(*pair_rotations(doc))
            assert len(label.forms) == 1
            got = label.forms[0]
            assert type(got) is type(form)
            for name in ("r", "s"):
                if hasattr(form, name):
                    assert getattr(got, name) == getattr(form, name)
            for name in ("alpha", "beta", "theta"):
                if hasattr(form, name):
                    assert abs(getattr(got, name) - getattr(form, name)) <= 1e-7

    def test_repeated_blocks(self):
        spec = [Dim4(alpha=0.5, beta=1.2, theta=0.8)] * 2
        label = classify(*pair_rotations(generate_pair(spec, seed=3)))
        assert len(label.forms) == 2
        assert label.total_dim == 8
        want = ClassLabel(forms=tuple(spec))
        assert labels_match(label, want)

    def test_label_sorted(self):
        spec = [
            Dim4(alpha=0.5, beta=1.2, theta=0.8),
            Dim2Proper(alpha=0.5, beta=1.2, r=1),
            Dim2Proper(alpha=0.5, beta=1.2, r=-1),
        ]
        label = classify(*pair_rotations(generate_pair(spec, seed=4)))
        kinds = [type(f).__name__ for f in label.forms]
        assert kinds == ["Dim2Proper", "Dim2Proper", "Dim4"]
        assert label.forms[0].r < label.forms[1].r

    def test_equal_angle_four_blocks_ordered_by_twist(self):
        spec = [Dim4(alpha=0.5, beta=1.2, theta=0.01),
                Dim4(alpha=0.5, beta=1.2, theta=3.1)]
        for seed in range(20):
            d, e = pair_rotations(generate_pair(spec, seed=seed))
            forms = classify(d, e).forms
            assert [f.theta for f in forms] == pytest.approx([0.01, 3.1], abs=1e-9)
            assert all(f.alpha == d.angle and f.beta == e.angle for f in forms)

    def test_block_angle_far_from_pair_angle_raises(self):
        d, e = pair_rotations(generate_pair([Dim2LeftScalar(r=1, beta=0.8)] * 2,
                                            seed=5))
        off = Rotation(matrix=e.matrix, angle=e.angle + 1e-6)
        with pytest.raises(NumericalFailure, match=r"beta .* by 1\.000e-06"):
            classify(d, off)

    def test_claimed_alpha_far_from_certified_raises(self):
        d, e = pair_rotations(generate_pair(
            [Dim2Proper(alpha=0.5, beta=1.2, r=1),
             Dim4(alpha=0.5, beta=1.2, theta=0.8)], seed=5))
        off = dataclasses.replace(d, angle=d.angle + 1e-6)
        with pytest.raises(NumericalFailure, match=r"alpha .* by 1\.000e-06"):
            classify(off, e)

    def test_pair_certified_once(self, monkeypatch):
        spec = [Dim2Proper(alpha=0.5, beta=1.2, r=1),
                Dim2Proper(alpha=0.5, beta=1.2, r=-1),
                Dim4(alpha=0.5, beta=1.2, theta=0.8),
                Dim4(alpha=0.5, beta=1.2, theta=2.1)]
        d, e = pair_rotations(generate_pair(spec, seed=12))
        sizes = count_normal_forms(monkeypatch)
        label = classify(d, e)
        # the pair is certified and the quarter-turns take no normal form
        assert sizes == []
        report = build_report(d, e)
        assert sizes == []
        assert labels_match(label, ClassLabel(forms=tuple(spec)))
        assert len(report.label) == len(spec)

    def test_label_sorts_on_construction(self):
        canonical = (
            Dim1(r=-1, s=1),
            Dim2Proper(alpha=0.5, beta=1.2, r=-1),
            Dim2Proper(alpha=0.5, beta=1.2, r=1),
            Dim4(alpha=0.5, beta=1.2, theta=0.3),
            Dim4(alpha=0.5, beta=1.2, theta=0.8),
        )
        shuffled = tuple(canonical[i] for i in (4, 2, 0, 3, 1))
        assert ClassLabel(forms=shuffled).forms == canonical
        assert ClassLabel(forms=shuffled) == ClassLabel(forms=canonical)


def dim4_thetas(forms):
    return sorted(f.theta for f in forms if isinstance(f, Dim4))


class TestTwistBoundary:
    """Dim4 twists next to 0 or pi: the block stays Dim4 down to a gap of
    about rank_tol, below which it splits into two Dim2Proper blocks."""

    ALPHA, BETA = 0.7, 1.9

    def classify_spec(self, spec, seed):
        return classify(*pair_rotations(generate_pair(spec, seed=seed)))

    def neighbours(self, beside):
        if not beside:
            return []
        return [Dim4(self.ALPHA, self.BETA, 1.3),
                Dim2Proper(self.ALPHA, self.BETA, -1)]

    @pytest.mark.parametrize("beside", [False, True], ids=["n4", "n10"])
    @pytest.mark.parametrize("theta", [1e-8, 1e-7, np.pi - 1e-7, np.pi - 1e-8])
    def test_keeps_four_block(self, theta, beside):
        spec = [Dim4(self.ALPHA, self.BETA, theta)] + self.neighbours(beside)
        label = self.classify_spec(spec, seed=31)
        assert labels_match(label, ClassLabel(forms=tuple(spec)))
        got, want = dim4_thetas(label.forms), dim4_thetas(spec)
        assert len(got) == len(want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12

    @pytest.mark.parametrize("beside", [False, True], ids=["n4", "n10"])
    @pytest.mark.parametrize("theta,r", [(1e-10, 1), (np.pi - 1e-10, -1)])
    def test_splits_below_rank_tol(self, theta, r, beside):
        rest = self.neighbours(beside)
        label = self.classify_spec([Dim4(self.ALPHA, self.BETA, theta)] + rest,
                                   seed=32)
        halves = [Dim2Proper(self.ALPHA, self.BETA, r)] * 2
        assert labels_match(label, ClassLabel(forms=tuple(halves + rest)))

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.1, np.pi - 0.1),
        beta=st.floats(0.1, np.pi - 0.1),
        log_gap=st.floats(-8.0, -2.0),
        near_pi=st.booleans(),
        rest=st.lists(st.one_of(st.floats(0.1, np.pi - 0.1), st.sampled_from([-1, 1])),
                      max_size=4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_compatible_spec_with_boundary_twist(self, alpha, beta, log_gap,
                                                 near_pi, rest, seed):
        gap = 10.0 ** log_gap
        spec = [Dim4(alpha, beta, np.pi - gap if near_pi else gap)]
        # a float in ``rest`` is another twist, an int a Dim2Proper sign
        spec += [Dim2Proper(alpha, beta, x) if isinstance(x, int)
                 else Dim4(alpha, beta, x) for x in rest]
        label = self.classify_spec(spec, seed)
        assert labels_match(label, ClassLabel(forms=tuple(spec)))
        got, want = dim4_thetas(label.forms), dim4_thetas(spec)
        assert len(got) == len(want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12


class TestLabelsMatch:
    def test_permutation_matches(self):
        a = ClassLabel(forms=(Dim1(r=1, s=1), Dim2LeftScalar(r=1, beta=0.5)))
        b = ClassLabel(forms=(Dim2LeftScalar(r=1, beta=0.5), Dim1(r=1, s=1)))
        assert labels_match(a, b)

    def test_angle_tolerance(self):
        a = ClassLabel(forms=(Dim2LeftScalar(r=1, beta=0.5),))
        b = ClassLabel(forms=(Dim2LeftScalar(r=1, beta=0.5 + 5e-8),))
        c = ClassLabel(forms=(Dim2LeftScalar(r=1, beta=0.5 + 5e-7),))
        assert labels_match(a, b)
        assert not labels_match(a, c)

    def test_near_ties_resolved_by_backtracking(self):
        eps = 4e-8
        a = ClassLabel(forms=(
            Dim2LeftScalar(r=1, beta=0.5),
            Dim2LeftScalar(r=1, beta=0.5 + 2 * eps),
        ))
        b = ClassLabel(forms=(
            Dim2LeftScalar(r=1, beta=0.5 + eps),
            Dim2LeftScalar(r=1, beta=0.5 + 3 * eps),
        ))
        assert labels_match(a, b)

    def test_multiplicity_matters(self):
        one = ClassLabel(forms=(Dim1(r=1, s=1),))
        two = ClassLabel(forms=(Dim1(r=1, s=1), Dim1(r=1, s=1)))
        assert not labels_match(one, two)

    def test_sign_mismatch(self):
        a = ClassLabel(forms=(Dim2Proper(alpha=0.5, beta=1.2, r=1),))
        b = ClassLabel(forms=(Dim2Proper(alpha=0.5, beta=1.2, r=-1),))
        assert not labels_match(a, b)

    def test_family_mismatch(self):
        a = ClassLabel(forms=(Dim2LeftScalar(r=1, beta=0.5),))
        b = ClassLabel(forms=(Dim2RightScalar(alpha=0.5, s=1),))
        assert not labels_match(a, b)


class TestIsomorphic:
    def test_same_spec_different_realizations(self):
        spec = [Dim2Proper(alpha=0.5, beta=1.2, r=1),
                Dim4(alpha=0.5, beta=1.2, theta=0.8)]
        p1 = pair_rotations(generate_pair(spec, seed=10))
        p2 = pair_rotations(generate_pair(spec, seed=11))
        assert isomorphic(p1, p2)

    def test_twist_angle_separates(self):
        p1 = pair_rotations(generate_pair([Dim4(alpha=0.5, beta=1.2, theta=0.8)], seed=12))
        p2 = pair_rotations(generate_pair([Dim4(alpha=0.5, beta=1.2, theta=0.9)], seed=12))
        assert not isomorphic(p1, p2)

    def test_orientation_separates(self):
        p1 = pair_rotations(generate_pair([Dim2Proper(alpha=0.5, beta=1.2, r=1)], seed=13))
        p2 = pair_rotations(generate_pair([Dim2Proper(alpha=0.5, beta=1.2, r=-1)], seed=13))
        assert not isomorphic(p1, p2)

    def test_dimension_separates(self):
        p1 = pair_rotations(generate_pair([Dim1(r=1, s=1)], seed=14))
        p2 = pair_rotations(generate_pair([Dim1(r=1, s=1)] * 2, seed=14))
        assert not isomorphic(p1, p2)


class TestOrthogonalizeIntertwiner:
    def scaled_conjugation(self, form, scale, seed):
        rng = np.random.default_rng(seed)
        dm, em = realize(form)
        n = dm.shape[0]
        Q = rand_orthogonal(n, rng)
        pair1 = (proper_or_scalar(dm), proper_or_scalar(em))
        pair2 = (proper_or_scalar(Q @ dm @ Q.T), proper_or_scalar(Q @ em @ Q.T))
        return scale * Q, Q, pair1, pair2

    @pytest.mark.parametrize("form,scale", [
        (Dim2Proper(alpha=0.5, beta=1.2, r=1), 3.7),
        (Dim2LeftScalar(r=-1, beta=0.9), 0.2),
        (Dim4(alpha=0.5, beta=1.2, theta=0.8), 7.0),
    ])
    def test_recovers_orthogonal_factor(self, form, scale):
        phi, Q, pair1, pair2 = self.scaled_conjugation(form, scale, seed=30)
        out = orthogonalize_intertwiner(phi, pair1, pair2)
        assert max_abs(out - Q) <= 1e-9

    def test_certified_pairs_take_no_normal_form(self, monkeypatch):
        phi, Q, pair1, pair2 = self.scaled_conjugation(
            Dim4(alpha=0.5, beta=1.2, theta=0.8), 2.0, seed=31)
        sizes = count_normal_forms(monkeypatch)
        out = orthogonalize_intertwiner(phi, pair1, pair2)
        assert sizes == []
        assert max_abs(out - Q) <= 1e-9

    def test_scalar_line(self):
        pair = (Rotation(np.eye(1), 0.0), Rotation(-np.eye(1), np.pi))
        out = orthogonalize_intertwiner(np.array([[-2.0]]), pair, pair)
        assert np.allclose(out, [[-1.0]])

    def test_rejects_non_intertwiner(self):
        d = proper(rot2(0.5))
        e = proper(rot2(1.2))
        phi = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(NotIntertwiner):
            orthogonalize_intertwiner(phi, (d, e), (d, e))

    def test_rejects_zero_map(self):
        d = proper(rot2(0.5))
        e = proper(rot2(1.2))
        with pytest.raises(NotIntertwiner):
            orthogonalize_intertwiner(np.zeros((2, 2)), (d, e), (d, e))

    def test_rejects_reducible_pair(self):
        ident = Rotation(np.eye(2), 0.0)
        with pytest.raises(NotIrreducible):
            orthogonalize_intertwiner(np.eye(2), (ident, ident), (ident, ident))

    def test_rejects_wrong_shape(self):
        d = proper(rot2(0.5))
        e = proper(rot2(1.2))
        with pytest.raises(NotIntertwiner):
            orthogonalize_intertwiner(np.eye(3), (d, e), (d, e))


def proper_or_scalar(M):
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if np.allclose(M, np.eye(n)):
        return Rotation(np.eye(n), 0.0)
    if np.allclose(M, -np.eye(n)):
        return Rotation(-np.eye(n), np.pi)
    return as_rotation(M)
