import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import (
    count_normal_forms,
    pair_rotations,
    rand_orthogonal,
    random_compatible_spec,
)
from rotpair import (
    BadAngle,
    BadDimension,
    BadParameter,
    Dim1,
    Dim2LeftScalar,
    Dim2Proper,
    Dim2RightScalar,
    Dim4,
    NotOrthogonal,
    PairDocument,
    Rotation,
    RotationKind,
    as_rotation,
    build_report,
    classify,
    decompose,
    form_from_dict,
    form_to_dict,
    generate_pair,
    generate_rotation,
    labels_match,
    load_pair,
    max_abs,
    oracle_two_plane_search,
    pair_from_json_dict,
    rho,
    rot2,
    unrho,
)
from rotpair.classify import ClassLabel
from rotpair.decompose import invariance_residual
from rotpair.errors import NotProper
from rotpair.workbench import _sig12, haar_orthogonal, label_to_list
from rotpair.linalg import block_diag


class TestFormSerialization:
    @pytest.mark.parametrize("form", [
        Dim1(r=-1, s=1),
        Dim2LeftScalar(r=1, beta=0.9),
        Dim2RightScalar(alpha=1.7, s=-1),
        Dim2Proper(alpha=0.2, beta=2.7, r=-1),
        Dim4(alpha=0.5, beta=1.2, theta=0.8),
    ])
    def test_round_trip(self, form):
        assert form_from_dict(form_to_dict(form)) == form

    def test_significant_digit_rounding(self):
        d = form_to_dict(Dim2LeftScalar(r=1, beta=0.12345678901234567))
        assert d["beta"] == 0.123456789012
        assert _sig12(math.pi) == 3.14159265359

    @pytest.mark.parametrize("gap", [1e-12, 4e-12, 5e-13, 1e-15])
    def test_angle_next_to_pi_reads_back(self, gap):
        """An angle that 12 digits would round up to pi or past it is
        written as the largest 12-digit number below pi, directly and in
        a generated pair's metadata label."""
        form = Dim2LeftScalar(r=1, beta=math.pi - gap)
        written = form_to_dict(form)
        assert written["beta"] == 3.14159265358 < math.pi
        assert form_from_dict(written) == Dim2LeftScalar(r=1, beta=3.14159265358)
        doc = generate_pair([form], seed=1)
        [label] = doc.metadata["label"]
        assert label == written
        assert form_from_dict(json.loads(json.dumps(label))) == form_from_dict(written)

    @pytest.mark.parametrize("angle", [1e-300, 0.1, 1.0, math.pi / 2, 3.14159265358,
                                       math.pi - 6e-12, 3.1415926535])
    def test_angles_inside_print_as_they_round(self, angle):
        """Angles that 12 digits keep below pi print byte for byte as before."""
        written = form_to_dict(Dim4(alpha=angle, beta=angle, theta=angle))
        assert json.dumps(written) == json.dumps(
            {"family": "dim4", "alpha": _sig12(angle), "beta": _sig12(angle),
             "theta": _sig12(angle)})
        assert form_from_dict(written) == Dim4(*(_sig12(angle),) * 3)

    def test_rejects_unknown_family(self):
        with pytest.raises(BadParameter):
            form_from_dict({"family": "dim3"})

    def test_rejects_a_form_that_is_no_object(self):
        with pytest.raises(BadParameter, match="must be an object with a family"):
            form_from_dict([1])

    def test_rejects_missing_field(self):
        with pytest.raises(BadParameter):
            form_from_dict({"family": "dim1", "r": 1})

    def test_rejects_extra_field(self):
        with pytest.raises(BadParameter):
            form_from_dict({"family": "dim1", "r": 1, "s": 1, "theta": 0.3})

    @pytest.mark.parametrize("obj", [
        {"family": "dim1", "r": 1.7, "s": -1},
        {"family": "dim1", "r": 1.0, "s": -1},
        {"family": "dim1", "r": 2, "s": -1},
        {"family": "dim1", "r": True, "s": -1},
        {"family": "dim1", "r": None, "s": -1},
        {"family": "dim1", "r": "1", "s": -1},
        {"family": "dim2_left_scalar", "r": 1, "beta": "x"},
        {"family": "dim2_left_scalar", "r": 1, "beta": None},
        {"family": "dim2_left_scalar", "r": 1, "beta": True},
        {"family": "dim4", "alpha": 0.5, "beta": [1.2], "theta": 0.8},
        pytest.param({"family": "dim2_right_scalar", "alpha": 10**400, "s": 1},
                     id="huge-int"),
    ])
    def test_rejects_mistyped_field(self, obj):
        with pytest.raises(BadParameter):
            form_from_dict(obj)


class TestPairDocument:
    def round_trip_doc(self, tmp_path):
        doc = generate_pair([Dim2Proper(alpha=0.5, beta=1.2, r=1)], seed=5)
        path = tmp_path / "pair.json"
        doc.save(path)
        return doc, path

    def test_save_load_round_trip(self, tmp_path):
        doc, path = self.round_trip_doc(tmp_path)
        loaded = load_pair(path)
        assert loaded.n == doc.n
        assert max_abs(loaded.delta - doc.delta) <= 1e-12
        assert max_abs(loaded.epsilon - doc.epsilon) <= 1e-12
        assert loaded.metadata == doc.metadata

    def test_save_is_deterministic(self, tmp_path):
        doc = generate_pair([Dim1(r=1, s=1)], seed=6)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        doc.save(a)
        doc.save(b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(b"\n")

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(BadParameter):
            load_pair(path)

    @pytest.mark.parametrize("content", [
        b"\x7fELF\xff\xfe\x00", b"[" * 100000 + b"]" * 100000,
        b"[" + b"1" * 5000 + b"]",
    ], ids=["binary", "too-deep", "too-many-digits"])
    def test_rejects_unreadable_file(self, tmp_path, content):
        path = tmp_path / "unreadable.json"
        path.write_bytes(content)
        with pytest.raises(BadParameter, match="not valid JSON"):
            load_pair(path)

    def test_rejects_missing_keys(self):
        with pytest.raises(BadParameter):
            pair_from_json_dict({"n": 2, "delta": [[1, 0], [0, 1]]})

    def test_rejects_bad_dimension(self):
        eye = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(BadDimension):
            pair_from_json_dict({"n": 0, "delta": eye, "epsilon": eye})
        with pytest.raises(BadDimension):
            pair_from_json_dict({"n": 3, "delta": eye, "epsilon": eye})
        with pytest.raises(BadDimension):
            pair_from_json_dict({"n": True, "delta": [[1.0]], "epsilon": [[1.0]]})

    def test_rejects_non_finite(self):
        eye = [[1.0, 0.0], [0.0, 1.0]]
        bad = [[float("nan"), 0.0], [0.0, 1.0]]
        with pytest.raises(BadParameter):
            pair_from_json_dict({"n": 2, "delta": bad, "epsilon": eye})

    def test_rejects_boolean_entries(self):
        with pytest.raises(BadParameter):
            pair_from_json_dict({"n": 1, "delta": [[True]], "epsilon": [[-1]]})
        eye = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(BadParameter):
            pair_from_json_dict(
                {"n": 2, "delta": eye, "epsilon": [[1.0, 0.0], [0.0, True]]}
            )

    @pytest.mark.parametrize("entry", ["1", None, [1.0], {"x": 1}, 10 ** 400],
                             ids=["string", "null", "nested", "object", "huge-int"])
    def test_rejects_entries_that_are_no_json_number(self, entry):
        # numpy reads "1" as 1.0, and 10**400 overflows a float
        eye = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(BadParameter, match="not a numeric matrix"):
            pair_from_json_dict(
                {"n": 2, "delta": eye, "epsilon": [[entry, 0.0], [0.0, 1.0]]}
            )

    def test_rejects_deeply_nested_matrix(self):
        entry = 1.0
        for _ in range(5000):
            entry = [entry]
        with pytest.raises(BadParameter, match="not a numeric matrix"):
            pair_from_json_dict({"n": 1, "delta": entry, "epsilon": [[1.0]]})

    def test_rejects_a_root_that_is_no_object(self):
        with pytest.raises(BadParameter, match="root must be a JSON object"):
            pair_from_json_dict([1])

    def test_rejects_metadata_that_is_no_object(self):
        eye = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(BadParameter, match="metadata must be an object"):
            pair_from_json_dict({"n": 2, "delta": eye, "epsilon": eye,
                                 "metadata": [1]})

    def test_strict_orthogonality(self):
        eye = [[1.0, 0.0], [0.0, 1.0]]
        skew = [[1.0, 1e-4], [0.0, 1.0]]
        with pytest.raises(NotOrthogonal):
            pair_from_json_dict({"n": 2, "delta": skew, "epsilon": eye})


class TestBuildReport:
    def test_report_contents(self):
        spec = [Dim2Proper(alpha=0.5, beta=1.2, r=1),
                Dim4(alpha=0.5, beta=1.2, theta=0.8)]
        doc = generate_pair(spec, seed=7)
        d, e = pair_rotations(doc)
        report = build_report(d, e)
        assert report["n"] == 6
        assert sorted(b["dim"] for b in report["blocks"]) == [2, 4]
        for b in report["blocks"]:
            assert b["invariance_residual"] <= 1e-8
        want = ClassLabel(forms=tuple(spec))
        assert labels_match(
            ClassLabel(forms=tuple(form_from_dict(f) for f in report["label"])),
            want,
        )
        # blocks come in extraction order; their forms are the label
        block_forms = sorted(json.dumps(b["form"], sort_keys=True)
                             for b in report["blocks"])
        assert block_forms == sorted(json.dumps(f, sort_keys=True)
                                     for f in report["label"])
        # round trips through json untouched
        blob = json.dumps(report, sort_keys=True)
        assert json.loads(blob)["n"] == 6

    def test_report_reuses_certifying_normal_forms(self, monkeypatch):
        spec = [Dim2Proper(alpha=0.5, beta=1.2, r=-1),
                Dim4(alpha=0.5, beta=1.2, theta=0.8)]
        d, e = pair_rotations(generate_pair(spec, seed=9))
        fresh = build_report(Rotation(d.matrix, d.angle), Rotation(e.matrix, e.angle))
        sizes = count_normal_forms(monkeypatch)
        report = build_report(d, e)
        assert 6 not in sizes
        assert (json.dumps(report, sort_keys=True)
                == json.dumps(fresh, sort_keys=True))

    def test_replaced_rotation_gets_fresh_normal_form(self):
        spec = [Dim2Proper(alpha=0.5, beta=1.2, r=-1),
                Dim4(alpha=0.5, beta=1.2, theta=0.8)]
        d, e = pair_rotations(generate_pair(spec, seed=9))
        Q = rand_orthogonal(6, np.random.default_rng(10))
        moved_d = dataclasses.replace(d, matrix=Q @ d.matrix @ Q.T)
        moved_e = dataclasses.replace(e, matrix=Q @ e.matrix @ Q.T)
        assert moved_d.normal_form is None and moved_e.normal_form is None
        report = build_report(moved_d, moved_e)
        certified = build_report(as_rotation(moved_d.matrix),
                                 as_rotation(moved_e.matrix))
        stale = build_report(d, e)
        for key in ("delta_normal_form", "epsilon_normal_form"):
            assert report[key] == certified[key]
            assert report[key] != stale[key]
        with pytest.raises(TypeError):
            Rotation(d.matrix, d.angle, normal_form=d.normal_form)

    # the certificate replaces a claim at the entry, so a claim a few
    # times check_tol off changes nothing in the report
    def test_report_of_a_claim_is_the_report_of_its_certificate(self):
        spec = [Dim2Proper(alpha=0.5, beta=1.2, r=-1),
                Dim4(alpha=0.5, beta=1.2, theta=0.8)]
        d, e = pair_rotations(generate_pair(spec, seed=9))
        claimed = build_report(Rotation(d.matrix, d.angle + 5e-8),
                               Rotation(e.matrix, e.angle - 5e-8))
        assert (json.dumps(claimed, sort_keys=True)
                == json.dumps(build_report(d, e), sort_keys=True))

    @pytest.mark.parametrize("spec", [
        [Dim2Proper(alpha=0.5, beta=1.2, r=-1), Dim4(alpha=0.5, beta=1.2, theta=0.8)],
        [Dim2LeftScalar(r=-1, beta=0.9)] * 3,
    ], ids=["proper", "scalar"])
    def test_hand_built_pair_takes_one_normal_form_per_side(self, monkeypatch, spec):
        d, e = pair_rotations(generate_pair(spec, seed=9))
        sizes = count_normal_forms(monkeypatch)
        build_report(Rotation(d.matrix, d.angle), Rotation(e.matrix, e.angle))
        assert sizes == [d.dim, d.dim]

    # Matrices are written by tolist(), which must give the bytes of a
    # float() per entry, -0.0 entries included.
    @pytest.mark.parametrize("spec", [
        [Dim2Proper(alpha=0.5, beta=1.2, r=-1), Dim4(alpha=0.5, beta=1.2, theta=0.8)],
        [Dim2LeftScalar(r=-1, beta=0.9)] * 3,
    ], ids=["proper", "scalar"])
    def test_matrices_are_written_as_per_entry_floats(self, spec):
        def rows(M):
            return [[float(x) for x in row] for row in M]

        doc = generate_pair(spec, seed=9)
        d, e = pair_rotations(doc)
        report = build_report(d, e)
        old = dict(report, blocks=[
            dict(entry, basis=rows(b.basis), d_restricted=rows(b.d_restricted),
                 e_restricted=rows(b.e_restricted))
            for entry, b in zip(report["blocks"], decompose(d, e).blocks)])
        for key, r in (("delta_normal_form", d), ("epsilon_normal_form", e)):
            old[key] = dict(report[key], basis=rows(r.normal_form.basis))
        text = json.dumps(report, indent=2, sort_keys=True)
        assert text == json.dumps(old, indent=2, sort_keys=True)
        doc_dict = dict(doc.to_json_dict(), delta=rows(doc.delta),
                        epsilon=rows(doc.epsilon))
        assert (json.dumps(doc.to_json_dict(), indent=2, sort_keys=True)
                == json.dumps(doc_dict, indent=2, sort_keys=True))
        assert "-0.0" in text

    def test_report_label_matches_metadata(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            spec = random_compatible_spec(rng)
            doc = generate_pair(spec, seed=int(rng.integers(1 << 31)))
            report = build_report(*pair_rotations(doc))
            got = [form_from_dict(f) for f in report["label"]]
            want = [form_from_dict(f) for f in doc.metadata["label"]]
            assert labels_match(ClassLabel(forms=tuple(got)),
                                ClassLabel(forms=tuple(want)))


class TestGenerateRotation:
    def test_identity_and_negation(self):
        assert generate_rotation(5, 0.0, seed=0).kind is RotationKind.IDENTITY
        r = generate_rotation(5, math.pi, seed=0)
        assert r.kind is RotationKind.NEG_IDENTITY
        assert np.array_equal(r.matrix, -np.eye(5))

    # +-I is certified as every other angle is: a read-only matrix and
    # the normal form that certified it
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("alpha, sign", [(0.0, 1.0), (math.pi, -1.0)])
    def test_identity_and_negation_are_certified(self, n, alpha, sign):
        r = generate_rotation(n, alpha, seed=0)
        assert r.normal_form is not None
        assert not r.matrix.flags.writeable
        want = as_rotation(sign * np.eye(n))
        assert r == want and r.normal_form == want.normal_form

    def test_proper_rotation(self):
        r = generate_rotation(6, 1.1, seed=1)
        assert r.kind is RotationKind.PROPER
        assert abs(r.angle - 1.1) <= 1e-9
        assert max_abs(r.matrix.T @ r.matrix - np.eye(6)) <= 1e-9

    def test_seed_determinism(self):
        a = generate_rotation(4, 0.7, seed=42)
        b = generate_rotation(4, 0.7, seed=42)
        c = generate_rotation(4, 0.7, seed=43)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.allclose(a.matrix, c.matrix)

    def test_rejects_odd_dimension_proper(self):
        with pytest.raises(BadDimension):
            generate_rotation(5, 1.0, seed=0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(BadDimension):
            generate_rotation(0, 0.0, seed=0)
        with pytest.raises(BadAngle):
            generate_rotation(4, -0.5, seed=0)
        with pytest.raises(BadAngle):
            generate_rotation(4, 3.5, seed=0)
        for n in (2.0, "2"):
            with pytest.raises(BadDimension):
                generate_rotation(n, 0.5, seed=0)
        for alpha in ("0.5", None, True, False, 1j, float("nan")):
            with pytest.raises(BadAngle, match=r"is not a real number in \[0, pi\]"):
                generate_rotation(4, alpha, seed=0)

    def test_accepts_numpy_and_integer_angles(self):
        assert generate_rotation(4, np.float64(0.5), seed=0).angle == pytest.approx(0.5)
        assert generate_rotation(3, 0, seed=0).kind is RotationKind.IDENTITY


class TestGeneratePair:
    def test_matrices_are_rotations(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            spec = random_compatible_spec(rng)
            doc = generate_pair(spec, seed=int(rng.integers(1 << 31)))
            d, e = pair_rotations(doc)
            assert d.dim == e.dim == doc.n

    def test_metadata_label_equals_classification(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            spec = random_compatible_spec(rng)
            doc = generate_pair(spec, seed=int(rng.integers(1 << 31)))
            label = classify(*pair_rotations(doc))
            want = ClassLabel(
                forms=tuple(form_from_dict(f) for f in doc.metadata["label"])
            )
            assert labels_match(label, want)

    def test_seed_determinism(self):
        spec = [Dim2Proper(alpha=0.5, beta=1.2, r=1)]
        a = generate_pair(spec, seed=9)
        b = generate_pair(spec, seed=9)
        assert np.array_equal(a.delta, b.delta)
        assert np.array_equal(a.epsilon, b.epsilon)

    def test_rejects_empty_spec(self):
        with pytest.raises(BadParameter):
            generate_pair([], seed=0)

    def test_rejects_incompatible_angles(self):
        spec = [Dim2Proper(alpha=0.5, beta=1.2, r=1),
                Dim2Proper(alpha=0.7, beta=1.2, r=1)]
        with pytest.raises(BadParameter):
            generate_pair(spec, seed=0)

    def test_rejects_mixed_signs(self):
        with pytest.raises(BadParameter):
            generate_pair([Dim1(r=1, s=1), Dim1(r=-1, s=1)], seed=0)

    def test_rejects_subclass_of_a_family(self):
        class SubDim4(Dim4):
            pass

        with pytest.raises(BadParameter):
            generate_pair([SubDim4(0.5, 1.2, 0.3)], seed=0)


class TestOracle:
    def test_block_aligned_pair_found_by_probes(self):
        d = as_rotation(block_diag(rot2(0.5), rot2(0.5)))
        e = as_rotation(block_diag(rot2(1.1), rot2(-1.1)))
        v = oracle_two_plane_search(d, e, samples=0)
        assert v is not None
        plane = np.linalg.qr(np.column_stack([v, d.matrix @ v]))[0]
        assert invariance_residual(plane, d, e) <= 1e-8

    def test_rho_aligned_instance_found(self):
        rng = np.random.default_rng(26)
        Q = rand_orthogonal(6, rng)
        d = as_rotation(Q @ block_diag(*[rot2(0.9)] * 3) @ Q.T)
        e = unrho(rho(d), 1.3)
        v = oracle_two_plane_search(d, e, samples=0)
        assert v is not None
        plane = np.linalg.qr(np.column_stack([v, d.matrix @ v]))[0]
        assert invariance_residual(plane, d, e) <= 1e-8

    def test_twisted_block_yields_nothing(self):
        doc = generate_pair([Dim4(alpha=0.5, beta=1.2, theta=0.8)], seed=27)
        d, e = pair_rotations(doc)
        assert oracle_two_plane_search(d, e, samples=2000, seed=1) is None

    def test_rejects_non_proper(self):
        d = generate_rotation(4, 0.0, seed=0)
        e = generate_rotation(4, 1.0, seed=0)
        with pytest.raises(NotProper):
            oracle_two_plane_search(d, e)

    @pytest.mark.parametrize("kwargs", [{"seed": -1}, {"seed": True},
                                        {"samples": -3}, {"samples": 2.0}])
    def test_rejects_bad_seed_or_samples(self, kwargs):
        doc = generate_pair([Dim4(alpha=0.5, beta=1.2, theta=0.8)], seed=27)
        with pytest.raises(BadParameter, match="non-negative integer"):
            oracle_two_plane_search(*pair_rotations(doc), **kwargs)

    def test_label_to_list_shape(self):
        label = ClassLabel(forms=(Dim1(r=1, s=1),))
        out = label_to_list(label)
        assert out == [{"family": "dim1", "r": 1, "s": 1}]


@pytest.mark.parametrize("seed", [-1, True, 1.0, "3"])
def test_generators_reject_bad_seed(seed):
    with pytest.raises(BadParameter, match="seed"):
        generate_pair([Dim2Proper(alpha=0.5, beta=1.2, r=1)], seed)
    with pytest.raises(BadParameter, match="seed"):
        generate_rotation(4, 1.0, seed)
