import contextlib
import dataclasses
import gc
import importlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_normal_forms, pair_rotations, rand_orthogonal
from rotpair import (
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
    NotConstant,
    NotIntertwiner,
    NotIrreducible,
    NotOrthogonal,
    NotOrthogonalPair,
    NumericalFailure,
    RotPairError,
    Rotation,
    RotationKind,
    as_rotation,
    build_report,
    classify,
    classify_block,
    decompose,
    form_from_dict,
    form_to_dict,
    generate_pair,
    isomorphic,
    labels_match,
    max_abs,
    oracle_two_plane_search,
    orthogonalize_intertwiner,
    realize,
    rho,
    rot2,
    t_theta,
    theta_invariant,
    two_plane_exists,
    unrho,
)
from rotpair.classify import FAMILIES, SIGN_FIELDS
from rotpair.decompose import InvariantBlock
from rotpair.linalg import DEFAULT_TOL, Tolerance, block_diag
from rotpair.workbench import label_to_list


class SubDim4(Dim4):
    """A subclass of a family, which is no canonical form of its own."""


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

    def test_rejects_sides_that_are_not_orthogonal(self):
        # sym(s^T t) = 4 I is constant, so only the orthogonality check
        # stops this pair from getting the twist 0
        s = Rotation(2.0 * np.eye(4), np.pi / 2)
        with pytest.raises(NotOrthogonal, match=r"exceeds 1\.000e-09$"):
            theta_invariant(s, s)

    # an orthogonal matrix is a quarter-turn exactly when it is skew; each
    # of these is orthogonal and claims pi/2, and sym(side^T q) = 0 would
    # give the twist pi/2 without the skew check
    @pytest.mark.parametrize("side", [np.eye(4), -np.eye(4),
                                      np.diag([1.0, 1.0, -1.0, -1.0])],
                             ids=["identity", "negated", "reflection"])
    @pytest.mark.parametrize("first", [True, False], ids=["left", "right"])
    def test_rejects_sides_that_are_no_quarter_turn(self, side, first):
        q = proper(block_diag(rot2(np.pi / 2), rot2(np.pi / 2)))
        bad = Rotation(side, np.pi / 2)
        with pytest.raises(BadAngle, match=r"^quarter-turn symmetric part "
                           r"1\.000e\+00 exceeds 1\.000e-09$"):
            theta_invariant(*((bad, q) if first else (q, bad)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        s, t = self.quarter_turns(0.9)
        m = t.matrix.copy()
        m[1, 2] = bad
        with pytest.raises(NotOrthogonal):
            theta_invariant(s, Rotation(m, t.angle))

    def test_messages_name_their_bound(self):
        s = proper(block_diag(rot2(0.5), rot2(0.5)))
        with pytest.raises(BadAngle, match=r"^angle distance from pi/2 1\.071e\+00 "
                           r"exceeds 1\.000e-07$"):
            theta_invariant(s, s)
        s = proper(block_diag(rot2(np.pi / 2), rot2(np.pi / 2)))
        t = proper(block_diag(rot2(np.pi / 2), rot2(-np.pi / 2)))
        with pytest.raises(NotConstant, match=r"^inner product spread over the unit "
                           r"sphere 2\.000e\+00 exceeds 1\.000e-08$"):
            theta_invariant(s, t)


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

    # each case is a class and its fields: a form checks its fields when
    # built, so a bad one never reaches realize
    @pytest.mark.parametrize("form", [
        (Dim1, dict(r=0, s=1)),
        (Dim2LeftScalar, dict(r=2, beta=0.5)),
        (Dim2Proper, dict(alpha=0.0, beta=0.5, r=1)),
        (Dim2Proper, dict(alpha=0.5, beta=np.pi, r=1)),
        (Dim4, dict(alpha=0.5, beta=1.2, theta=-0.1)),
        (Dim2Proper, dict(alpha="x", beta=1.0, r=1)),
        (Dim2Proper, dict(alpha=None, beta=1.0, r=1)),
        (Dim4, dict(alpha=0.5, beta=1.2, theta=[1])),
        (Dim2RightScalar, dict(alpha=True, s=1)),
        (Dim1, dict(r=True, s=1)),
        (Dim2LeftScalar, dict(r=1.0, beta=0.5)),
        (Dim2Proper, dict(alpha=0.5, beta=1.0, r=-1.0)),
    ])
    def test_rejects_bad_parameters(self, form):
        cls, fields = form
        with pytest.raises(BadParameter):
            realize(cls(**fields))

    def test_rejects_subclass_of_a_family(self):
        with pytest.raises(BadParameter):
            realize(SubDim4(alpha=0.5, beta=1.2, theta=0.3))


SIGN_VALUES = st.sampled_from([1, -1, np.int64(1), np.int64(-1), np.int8(-1)])
ANGLE_VALUES = st.one_of(
    st.integers(1, 3), st.integers(1, 3).map(np.int64),
    # k/1024 has at most 11 significant digits, so JSON keeps it exactly
    st.integers(1, 3216).map(lambda k: k / 1024),
    st.integers(1, 3216).map(lambda k: np.float64(k / 1024)),
)
# each out-of-schema value with the message that follows the field name
BAD_SIGNS = [(0, "must be +1 or -1, got 0"), (2, "must be +1 or -1, got 2"),
             (True, "must be +1 or -1, got True"), (1.0, "must be +1 or -1, got 1.0"),
             (None, "must be +1 or -1, got None"), ("1", "must be +1 or -1, got '1'")]
OUTSIDE = "must lie strictly inside (0, pi), got"
NOT_REAL = "must be a real number, got"
BAD_ANGLES = [(0, f"{OUTSIDE} 0.0"), (math.pi, f"{OUTSIDE} 3.141592653589793"),
              (-0.1, f"{OUTSIDE} -0.1"), (4.0, f"{OUTSIDE} 4.0"),
              (math.nan, f"{OUTSIDE} nan"), (math.inf, f"{OUTSIDE} inf"),
              (True, f"{NOT_REAL} True"), (None, f"{NOT_REAL} None"),
              ("x", f"{NOT_REAL} 'x'"), ([1.0], f"{NOT_REAL} [1.0]"),
              (1j, f"{NOT_REAL} 1j"), (10**400, "is an integer too large for a float")]
BAD_FIELDS = [pytest.param(cls, sign, bad, message,
                           id=f"{cls.__name__}-{'sign' if sign else 'angle'}{i}")
              for cls in FAMILIES for sign, bads in ((True, BAD_SIGNS), (False, BAD_ANGLES))
              if any((name in SIGN_FIELDS) is sign for name in cls.__dataclass_fields__)
              for i, (bad, message) in enumerate(bads)]


def field_values(cls):
    return st.fixed_dictionaries({name: SIGN_VALUES if name in SIGN_FIELDS else ANGLE_VALUES
                                  for name in cls.__dataclass_fields__})


class TestFormFields:
    """A form checks its fields once, when built; no reader checks them again."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), cls=st.sampled_from(FAMILIES))
    def test_valid_fields_are_stored_as_int_and_float(self, data, cls):
        fields = data.draw(field_values(cls))
        form = cls(**fields)
        for name, value in fields.items():
            assert type(getattr(form, name)) is (int if name in SIGN_FIELDS else float)
            assert getattr(form, name) == value
        assert form_from_dict(form_to_dict(form)) == form
        assert form_from_dict(json.loads(json.dumps(form_to_dict(form)))) == form
        label = ClassLabel(forms=(form, form))
        assert [form_from_dict(f) for f in label_to_list(label)] == [form, form]

    @pytest.mark.parametrize("cls, sign, bad, message", BAD_FIELDS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_out_of_schema_field_raises_when_built(self, data, cls, sign, bad, message):
        fields = data.draw(field_values(cls))
        name = data.draw(st.sampled_from([f for f in fields if (f in SIGN_FIELDS) is sign]))
        fields[name] = bad
        with pytest.raises(BadParameter) as info:
            cls(**fields)
        assert str(info.value) == f"{name} {message}"
        with pytest.raises(BadParameter) as info:
            form_from_dict({"family": cls.family, **fields})
        assert str(info.value) == f"{name} {message}"

    def test_no_reader_sees_a_bad_field(self):
        with pytest.raises(BadParameter, match="r must be"):
            Dim1(r=5, s=1)
        with pytest.raises(BadParameter, match="alpha must lie"):
            form_from_dict({"family": "dim4", "alpha": 5, "beta": 1, "theta": 1})
        with pytest.raises(BadParameter, match="theta must lie"):
            dataclasses.replace(Dim4(alpha=0.5, beta=1.2, theta=0.8), theta=7.0)


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

    def test_reflection_conjugation_invariant(self):
        # conjugating both sides by a reflection reverses both turning senses
        F = np.diag([1.0, -1.0])
        for r in (1, -1):
            form = Dim2Proper(alpha=0.5, beta=1.1, r=r)
            dm, em = realize(form)
            b = InvariantBlock(basis=np.eye(2), d_restricted=F @ dm @ F,
                               e_restricted=F @ em @ F)
            assert classify_block(b) == form

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

    def test_hand_built_line_is_certified(self):
        # a line is certified like a plane: neither 0.3 nor -5 is orthogonal
        for dm, em in (([[0.3]], [[-1.0]]), ([[1.0]], [[-5.0]])):
            b = InvariantBlock(np.eye(1), np.array(dm), np.array(em))
            with pytest.raises(NotOrthogonal):
                classify_block(b)
        plane = InvariantBlock(np.eye(2), 0.3 * np.eye(2), -5.0 * np.eye(2))
        with pytest.raises(NotOrthogonal):
            classify_block(plane)

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

    def test_decompose_blocks_read_their_certificate(self, monkeypatch):
        spec = [Dim2Proper(alpha=0.5, beta=1.2, r=-1),
                Dim4(alpha=0.5, beta=1.2, theta=0.8),
                Dim4(alpha=0.5, beta=1.2, theta=2.1)]
        d, e = pair_rotations(generate_pair(spec, seed=13))
        label = classify(d, e)
        blocks = decompose(d, e).blocks
        sizes = count_normal_forms(monkeypatch)
        forms = [classify_block(b) for b in blocks]
        # the blocks carry the pair's certified rotations: no normal form,
        # and the very forms of classify, to the last bit
        assert sizes == []
        assert ClassLabel(forms=tuple(forms)) == label
        assert all(f.alpha == d.angle and f.beta == e.angle for f in forms)

    def test_certificate_does_not_survive_a_copy(self):
        d, e = pair_rotations(generate_pair(
            [Dim4(alpha=0.5, beta=1.1, theta=0.8)], seed=14))
        (block,) = decompose(d, e).blocks
        assert block.rotations is not None
        # an aligned pair of planes: reducible, so no Dim4 form exists
        copy = dataclasses.replace(
            block, d_restricted=block_diag(rot2(0.5), rot2(0.5)),
            e_restricted=block_diag(rot2(1.1), rot2(1.1)))
        assert copy.rotations is None
        with pytest.raises(NotIrreducible):
            classify_block(copy)


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
        assert sum(f.dim for f in label.forms) == 8
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
        # a claimed kind is certified too, even when the angle is within angle_tol
        doc = generate_pair([Dim2RightScalar(alpha=1.0, s=1)] * 2, seed=3)
        with pytest.raises(NumericalFailure, match=r"proper .* certifies as "
                                                   r"identity \(beta gap 1\.000e-08\)"):
            classify(as_rotation(doc.delta), Rotation(doc.epsilon, 1e-8))
        with pytest.raises(NumericalFailure,
                           match=r"proper .* certifies as neg_identity \(alpha gap"):
            classify(Rotation(-np.eye(4), math.pi - 1e-8), Rotation(np.eye(4), 0.0))

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
        assert len(report["label"]) == len(spec)

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

    @pytest.mark.parametrize("forms", [
        ("x",),
        (Dim1(r=1, s=1), SubDim4(alpha=0.5, beta=1.2, theta=0.3)),
    ], ids=["string", "subclass"])
    def test_label_rejects_unknown_forms(self, forms):
        with pytest.raises(BadParameter):
            ClassLabel(forms=forms)


def scalar_spec(family, sign, other_sign, angle, count):
    """``count`` copies of one form of a pair with a +-I side."""
    if family == "dim1":
        return [Dim1(r=sign, s=other_sign)] * count
    if family == "left":
        return [Dim2LeftScalar(r=sign, beta=angle)] * count
    return [Dim2RightScalar(alpha=angle, s=sign)] * count


def sign_flipped(spec):
    """The same spec with the sign of the first +-I side negated."""
    form = spec[0]
    if isinstance(form, Dim2RightScalar):
        return [Dim2RightScalar(alpha=form.alpha, s=-form.s)] * len(spec)
    return [dataclasses.replace(form, r=-form.r)] * len(spec)


def noisy_rotations(doc, noise, seed):
    """Both sides certified after polar-projected Gaussian noise of size ``noise``."""
    rng = np.random.default_rng(seed)

    def polar(M):
        u, _, vh = np.linalg.svd(M + noise * rng.standard_normal(M.shape))
        return u @ vh

    return as_rotation(polar(doc.delta)), as_rotation(polar(doc.epsilon))


@contextlib.contextmanager
def decompose_calls():
    """List of the pairs ``classify`` hands ``decompose``."""
    module = importlib.import_module("rotpair.classify")
    original = module.decompose
    seen = []

    def counted(d, e, tol=DEFAULT_TOL):
        seen.append((d, e))
        return original(d, e, tol)

    module.decompose = counted
    try:
        yield seen
    finally:
        module.decompose = original


class TestScalarSideLabels:
    """A pair with a +-I side is labelled from its kinds and angles."""

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["dim1", "left", "right"]),
        sign=st.sampled_from([-1, 1]),
        other_sign=st.sampled_from([-1, 1]),
        angle=st.floats(0.1, np.pi - 0.1),
        lines=st.integers(1, 12),
        log_noise=st.one_of(st.none(), st.floats(-14.0, -9.0)),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_label_from_kinds_and_angles(self, family, sign, other_sign, angle,
                                         lines, log_noise, seed):
        count = lines if family == "dim1" else (lines + 1) // 2
        spec = scalar_spec(family, sign, other_sign, angle, count)
        noise = 0.0 if log_noise is None else 10.0 ** log_noise
        d, e = noisy_rotations(generate_pair(spec, seed=seed), noise, seed)
        label = classify(d, e)
        blocks = decompose(d, e).blocks
        assert label == ClassLabel(forms=tuple(classify_block(b) for b in blocks))
        assert labels_match(label, ClassLabel(forms=tuple(spec)))
        same = noisy_rotations(generate_pair(spec, seed=seed + 1), noise, seed + 1)
        flipped = noisy_rotations(generate_pair(sign_flipped(spec), seed=seed + 2),
                                  noise, seed + 2)
        assert isomorphic((d, e), same)
        assert not isomorphic((d, e), flipped)

    @pytest.mark.parametrize("spec,calls", [
        ([Dim1(r=-1, s=1)] * 3, 0),
        ([Dim2LeftScalar(r=1, beta=0.8)] * 3, 0),
        ([Dim2RightScalar(alpha=2.1, s=-1)] * 2, 0),
        ([Dim2Proper(alpha=0.5, beta=1.2, r=1),
          Dim4(alpha=0.5, beta=1.2, theta=0.8)], 1),
    ], ids=["dim1", "left", "right", "proper"])
    def test_decomposes_only_a_proper_pair(self, spec, calls):
        d, e = pair_rotations(generate_pair(spec, seed=21))
        with decompose_calls() as seen:
            label = classify(d, e)
        assert len(seen) == calls
        assert labels_match(label, ClassLabel(forms=tuple(spec)))

    def test_errors_match_decompose(self):
        d, e = pair_rotations(generate_pair([Dim2LeftScalar(r=-1, beta=0.8)] * 2,
                                            seed=22))
        reflection = np.diag([-1.0, 1.0, 1.0, 1.0])
        cases = [
            (NotOrthogonalPair, d, Rotation(np.eye(6), 0.0)),
            (NotOrthogonalPair, d, Rotation(1.001 * e.matrix, e.angle)),
            (NumericalFailure, d, Rotation(e.matrix, e.angle + 2e-7)),
            (NotARotation, Rotation(reflection, 0.0), e),
        ]
        for error, first, second in cases:
            with pytest.raises(error) as by_classify:
                classify(first, second)
            with pytest.raises(error) as by_decompose:
                decompose(first, second)
            assert str(by_classify.value) == str(by_decompose.value)


# Pairs of R^4, one of each kind of route through classify.
MEMO_SPECS = (
    [Dim4(alpha=0.7, beta=1.9, theta=1.1)],
    [Dim2Proper(alpha=0.7, beta=1.9, r=1), Dim2Proper(alpha=0.7, beta=1.9, r=-1)],
    [Dim2LeftScalar(r=-1, beta=1.9)] * 2,
    [Dim1(r=1, s=-1)] * 4,
)


def memo_pool():
    """The certified sides of the ``MEMO_SPECS`` pairs, first sides first."""
    docs = [generate_pair(spec, seed=40 + i) for i, spec in enumerate(MEMO_SPECS)]
    return ([as_rotation(doc.delta) for doc in docs]
            + [as_rotation(doc.epsilon) for doc in docs])


def answer(call):
    """``call()``, or the class and message of the error it raises."""
    try:
        return call()
    except RotPairError as exc:
        return type(exc), str(exc)


class TestLabelMemo:
    """The certified first side remembers the label of its last pair."""

    def test_second_call_decomposes_nothing(self):
        spec = MEMO_SPECS[0] + MEMO_SPECS[1]
        d, e = pair_rotations(generate_pair(spec, seed=41))
        shown = repr(d)
        label = classify(d, e)
        with decompose_calls() as seen:
            again = classify(d, e)
            same = classify(d, e, Tolerance())   # equal, not the same object
        assert seen == []
        assert again is label and same is label
        assert labels_match(label, ClassLabel(forms=tuple(spec)))
        # the memo is no field
        assert repr(d) == shown
        assert dataclasses.replace(d) == d
        assert dataclasses.replace(d)._label is None

    def test_isomorphic_after_classify_labels_the_other_pair_only(self):
        spec = MEMO_SPECS[0] + MEMO_SPECS[1]
        d, e = pair_rotations(generate_pair(spec, seed=42))
        d2, e2 = pair_rotations(generate_pair(spec, seed=43))
        classify(d, e)
        with decompose_calls() as seen:
            assert isomorphic((d, e), (d2, e2))
        assert len(seen) == 1 and seen[0][0] is d2 and seen[0][1] is e2

    @pytest.mark.parametrize("change", [
        "other partner", "equal partner", "other tolerance",
        "hand-built first", "hand-built second",
    ])
    def test_misses(self, change):
        d, e = pair_rotations(generate_pair(MEMO_SPECS[0], seed=44))
        label = classify(d, e)
        first, second, tol = d, e, DEFAULT_TOL
        if change == "other partner":
            second = as_rotation(generate_pair(MEMO_SPECS[0], seed=45).epsilon)
        elif change == "equal partner":
            second = as_rotation(e.matrix)
        elif change == "other tolerance":
            tol = Tolerance(angle_tol=2e-7)
        elif change == "hand-built first":
            first = Rotation(d.matrix, d.angle)
        else:
            second = Rotation(e.matrix, e.angle)
        for _ in range(2 if change.startswith("hand-built") else 1):
            with decompose_calls() as seen:
                other = classify(first, second, tol)
            assert len(seen) == 1
        if change != "other partner":
            assert other == label

    def test_a_raise_stores_nothing(self):
        d, e = pair_rotations(generate_pair(MEMO_SPECS[0], seed=46))
        label = classify(d, e)
        with pytest.raises(NumericalFailure):
            classify(d, Rotation(e.matrix, e.angle + 2e-7))
        with decompose_calls() as seen:
            assert classify(d, e) is label
        assert seen == []

    # Every answer, memo or not, equals the one of freshly certified copies.
    @settings(max_examples=40, deadline=None)
    @given(calls=st.lists(
        st.tuples(st.booleans(), st.lists(st.integers(0, 7), min_size=4, max_size=4),
                  st.sampled_from([DEFAULT_TOL, Tolerance(), Tolerance(angle_tol=2e-7)])),
        min_size=1, max_size=8))
    def test_answers_equal_a_fresh_recomputation(self, calls):
        pool = memo_pool()
        fresh = [lambda r=r: as_rotation(r.matrix) for r in pool]
        for iso, (i, j, k, m), tol in calls:
            if iso:
                got = answer(lambda: isomorphic((pool[i], pool[j]), (pool[k], pool[m]), tol))
                want = answer(lambda: isomorphic((fresh[i](), fresh[j]()),
                                                 (fresh[k](), fresh[m]()), tol))
            else:
                got = answer(lambda: classify(pool[i], pool[j], tol))
                want = answer(lambda: classify(fresh[i](), fresh[j](), tol))
            assert got == want


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
        # a0 first takes b0, its equal partner in sorted order; a1 equals
        # only b0, so a0 must move over to b1
        a = ClassLabel(forms=(Dim2Proper(alpha=0.5, beta=1.0, r=1),
                              Dim2Proper(alpha=0.5 + 3e-8, beta=1.0 + 1.5e-7, r=1)))
        b = ClassLabel(forms=(Dim2Proper(alpha=0.5 + 1e-8, beta=1.0 + 0.9e-7, r=1),
                              Dim2Proper(alpha=0.5 + 2e-8, beta=1.0 - 0.5e-7, r=1)))
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

    def test_leaves_no_garbage(self):
        """Every call frees what it builds without the cyclic collector,
        whether the labels match or not."""
        a = ClassLabel(forms=(Dim1(r=1, s=1), Dim2LeftScalar(r=1, beta=0.5)))
        b = ClassLabel(forms=(Dim2LeftScalar(r=1, beta=0.5), Dim1(r=1, s=1)))
        c = ClassLabel(forms=(Dim2LeftScalar(r=1, beta=0.5), Dim1(r=1, s=-1)))
        gc.collect()
        gc.disable()
        try:
            assert labels_match(a, b) and not labels_match(a, c)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=5),
           st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=5))
    def test_agrees_with_every_pairing(self, steps1, steps2):
        # offsets of 4e-8 against angle_tol 1e-7: two steps tie, three do not
        def label(steps):
            return ClassLabel(forms=tuple(
                Dim2Proper(alpha=0.5 + 4e-8 * i, beta=1.0 + 4e-8 * j, r=1)
                for i, j in steps))
        a, b = label(steps1), label(steps2)
        tol = 1e-7
        brute = len(a.forms) == len(b.forms) and any(
            all(abs(f.alpha - g.alpha) <= tol and abs(f.beta - g.beta) <= tol
                for f, g in zip(a.forms, perm))
            for perm in itertools.permutations(b.forms))
        assert labels_match(a, b) is brute

    def test_repeated_forms_cost_few_comparisons(self, monkeypatch):
        # trying every order of the equal planes before answering False
        # takes factorial time; matching takes at most m^3 comparisons
        module = importlib.import_module("rotpair.classify")
        original = module._forms_equal
        calls = []

        def counted(*args):
            calls.append(args)
            if len(calls) > 10_000:
                raise AssertionError("more than 10 000 form comparisons")
            return original(*args)

        monkeypatch.setattr(module, "_forms_equal", counted)
        planes = (Dim2Proper(alpha=0.5, beta=1.2, r=1),) * 24
        a = ClassLabel(forms=planes + (Dim4(alpha=0.5, beta=1.2, theta=0.8),))
        b = ClassLabel(forms=planes + (Dim4(alpha=0.5, beta=1.2, theta=0.9),))
        assert not labels_match(a, b)
        calls.clear()
        assert labels_match(a, a)
        assert len(calls) == 25


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

    @pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
    def test_any_scale(self, scale):
        phi, Q, pair1, pair2 = self.scaled_conjugation(
            Dim4(alpha=0.5, beta=1.2, theta=0.8), scale, seed=32)
        assert max_abs(orthogonalize_intertwiner(phi, pair1, pair2) - Q) <= 1e-8

    @pytest.mark.parametrize("scale", [1e-10, 1.0])
    def test_rejects_scaled_non_intertwiner(self, scale):
        _, _, pair1, _ = self.scaled_conjugation(
            Dim4(alpha=0.5, beta=1.2, theta=0.8), 1.0, seed=33)
        phi = scale * np.random.default_rng(33).standard_normal((4, 4))
        with pytest.raises(NotIntertwiner, match="intertwining residuals"):
            orthogonalize_intertwiner(phi, pair1, pair1)

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

    def test_rejects_pair_of_a_dimension_with_no_irreducible_block(self):
        pair = (Rotation(np.eye(3), 0.0), Rotation(-np.eye(3), np.pi))
        with pytest.raises(NotIrreducible):
            orthogonalize_intertwiner(np.eye(3), pair, pair)

    def test_rejects_wrong_shape(self):
        d = proper(rot2(0.5))
        e = proper(rot2(1.2))
        with pytest.raises(NotIntertwiner):
            orthogonalize_intertwiner(np.eye(3), (d, e), (d, e))

    @pytest.mark.parametrize("phi", ["x", np.eye(2) + 0.5j, np.eye(2, dtype=bool),
                                     [[1.0, 0.0], [0.0]]],
                             ids=["string", "complex", "booleans", "ragged"])
    def test_rejects_non_real_phi(self, phi):
        d = proper(rot2(0.5))
        e = proper(rot2(1.2))
        with pytest.raises(BadParameter):
            orthogonalize_intertwiner(phi, (d, e), (d, e))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_map(self, value):
        d = proper(rot2(0.5))
        e = proper(rot2(1.2))
        with pytest.raises(NotIntertwiner, match="non-finite"):
            orthogonalize_intertwiner(np.full((2, 2), value), (d, e), (d, e))


def proper_or_scalar(M):
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if np.allclose(M, np.eye(n)):
        return Rotation(np.eye(n), 0.0)
    if np.allclose(M, -np.eye(n)):
        return Rotation(-np.eye(n), np.pi)
    return as_rotation(M)


# a string, a bool, None or a complex number is no angle; each entry that
# reads a hand-built rotation's angle sees the one ValidationError
@pytest.mark.parametrize("angle", ["0.5", True, None, 1j],
                         ids=["string", "bool", "none", "complex"])
@pytest.mark.parametrize("entry", [classify, decompose, two_plane_exists,
                                   theta_invariant])
def test_rotation_with_non_real_angle_is_refused(entry, angle):
    M = block_diag(rot2(math.pi / 2), rot2(math.pi / 2))
    other = as_rotation(M)
    with pytest.raises(BadParameter, match="is not a real number"):
        entry(Rotation(M, angle), other)


WIDE = np.ones((2, 3))
QUARTER = block_diag(rot2(math.pi / 2), rot2(math.pi / 2))


# a hand-built rotation's matrix is checked once, when it is built: a
# matrix that is not square is refused, and a list of lists is taken as
# its array, so no entry ends in an exception of its own
@pytest.mark.parametrize("call, error", [
    (lambda: rho(Rotation(WIDE, 0.5)), BadDimension),
    (lambda: unrho(Rotation(WIDE, math.pi / 2), 0.5), BadDimension),
    (lambda: two_plane_exists(Rotation(WIDE, 0.5), Rotation(WIDE, 0.5)),
     BadDimension),
    (lambda: oracle_two_plane_search(Rotation(WIDE, 0.5), Rotation(WIDE, 0.5)),
     BadDimension),
    (lambda: classify(Rotation([[1.0, 0], [0, 1]], 0.0), Rotation(np.eye(2), 0.0)),
     None),
    (lambda: two_plane_exists(Rotation(QUARTER.tolist(), math.pi / 2),
                              as_rotation(QUARTER)), None),
    (lambda: theta_invariant(Rotation(QUARTER.tolist(), math.pi / 2),
                             as_rotation(QUARTER)), None),
], ids=["rho-wide", "unrho-wide", "two-plane-wide", "oracle-wide",
        "classify-list", "two-plane-list", "theta-list"])
def test_rotation_matrix_is_checked_when_built(call, error):
    if error is None:
        call()
    else:
        with pytest.raises(error, match="expected a square matrix"):
            call()


def test_list_matrix_classifies_like_its_array():
    spec = [Dim4(0.5, 1.2, 0.8), Dim2Proper(0.5, 1.2, -1)]
    d, e = pair_rotations(generate_pair(spec, seed=3))
    listed = Rotation(d.matrix.tolist(), d.angle)
    assert listed.matrix.dtype == np.float64
    assert classify(listed, e) == classify(Rotation(d.matrix, d.angle), e)


def claim_probe_specs(count):
    """Specs cycling through two proper mixes, a +-I mix and one Dim4."""
    rng = np.random.default_rng([21, 0])
    specs = []
    for i in range(count):
        alpha, beta, theta = (float(x) for x in rng.uniform(0.2, 2.9, 3))
        specs.append([
            [Dim4(alpha, beta, theta), Dim2Proper(alpha, beta, 1)],
            [Dim2Proper(alpha, beta, -1)] * 2,
            [Dim2LeftScalar(1, beta)] * 2,
            [Dim4(alpha, beta, theta)],
        ][i % 4])
    return specs


# A claim within angle_tol is replaced by its certificate at the entry:
# claims a few times check_tol off used to fail the eigenplane residual,
# and the label used to carry the claimed angle.
@pytest.mark.parametrize("offset", [0.0, 3e-9, 1e-8, 3e-8, 9e-8])
def test_hand_built_side_is_labelled_by_its_certificate(offset):
    for seed, spec in enumerate(claim_probe_specs(8)):
        d, e = pair_rotations(generate_pair(spec, seed=seed))
        left = d.kind is RotationKind.PROPER
        if left:
            d = Rotation(d.matrix, d.angle + offset)
        else:
            e = Rotation(e.matrix, e.angle + offset)
        label = classify(d, e)
        assert labels_match(label, ClassLabel(forms=tuple(spec)))
        certified = as_rotation((d if left else e).matrix).angle
        assert all((f.alpha if left else f.beta) == certified for f in label.forms)


def test_intertwiner_pair_of_unequal_dimensions_is_refused():
    d = proper(rot2(0.5))
    e = proper(block_diag(rot2(1.2), rot2(1.2)))
    with pytest.raises(NotOrthogonalPair, match="dimensions differ"):
        orthogonalize_intertwiner(np.eye(2), (d, e), (d, e))
    with pytest.raises(NotOrthogonalPair, match="dimensions differ"):
        orthogonalize_intertwiner(np.eye(2), (d, proper(rot2(1.2))), (d, e))


def test_oracle_pair_of_unequal_dimensions_is_refused():
    with pytest.raises(NotOrthogonalPair, match="dimensions differ"):
        oracle_two_plane_search(proper(rot2(0.5)),
                                proper(block_diag(rot2(1.2), rot2(1.2))))


# an angle beyond the float range is refused like any other bad parameter
@pytest.mark.parametrize("call", [
    lambda: realize(Dim4(10**400, 1.0, 1.0)),
    lambda: generate_pair([Dim4(10**400, 1.0, 1.0)], seed=0),
    lambda: ClassLabel(forms=(Dim4(1.0, 10**400, 1.0),)),
    lambda: form_to_dict(Dim4(1.0, 1.0, 10**400)),
], ids=["realize", "generate_pair", "ClassLabel", "form_to_dict"])
def test_angle_too_large_for_a_float_is_bad_parameter(call):
    with pytest.raises(BadParameter, match="too large for a float"):
        call()
