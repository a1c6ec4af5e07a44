import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from conftest import rand_orthogonal, record_calls
from rotpair import NotOrthogonal, NumericalFailure, Tolerance, max_abs
from rotpair.linalg import (
    RANK_TOL,
    block_diag,
    is_number,
    numerical_rank,
    orthonormal_complement,
    orthonormality_residual,
    orthonormalize,
    require,
    single_linkage,
    subspace_meet,
    symmetric_eigen,
)


class TestRequire:
    @pytest.mark.parametrize("measured", [0.0, -1.0, 1e-9])
    def test_up_to_the_bound_itself_passes(self, measured):
        assert require(measured, 1e-9, NumericalFailure, "residual") is None

    @pytest.mark.parametrize("measured", [float("nan"), np.nan, np.inf])
    def test_nan_and_infinity_fail(self, measured):
        with pytest.raises(NumericalFailure, match=r"^residual (nan|inf) exceeds"):
            require(measured, 1e-9, NumericalFailure, "residual")

    def test_message_names_decision_value_and_bound(self):
        with pytest.raises(NotOrthogonal) as info:
            require(np.float64(2.5e-9), 1e-9, NotOrthogonal, "orthogonality residual")
        assert str(info.value) == "orthogonality residual 2.500e-09 exceeds 1.000e-09"


@pytest.mark.parametrize("x, real, integral", [
    (1, True, True), (np.int64(-3), True, True), (0.5, True, False),
    (np.float32(0.5), True, False), (10**400, True, True),
    (True, False, False), (np.bool_(True), False, False), (1j, False, False),
    (None, False, False), ("1", False, False), ([1.0], False, False),
])
def test_is_number_refuses_bools(x, real, integral):
    assert is_number(x) is real
    assert is_number(x, integral=True) is integral


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.residual_tol == 1e-9
        assert tol.angle_tol == 1e-7
        assert tol.check_tol == 1e-8
        assert RANK_TOL == 1e-9

    @pytest.mark.parametrize("kwargs", [
        {"residual_tol": 0.0},
        {"angle_tol": -1e-9},
        {"residual_tol": -1e-9},
        {"residual_tol": float("nan")},
        {"angle_tol": float("inf")},
        {"angle_tol": float("nan")},
    ])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            Tolerance(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"residual_tol": True},
        {"angle_tol": True},
        {"angle_tol": "x"},
        {"residual_tol": "1e-9"},
        {"residual_tol": None},
    ])
    def test_rejects_non_numbers(self, kwargs):
        with pytest.raises(ValueError):
            Tolerance(**kwargs)

    def test_accepts_numpy_scalars(self):
        assert Tolerance(residual_tol=np.float64(1e-8)).check_tol == 1e-7

    def test_check_tol_is_derived(self):
        tol = Tolerance(residual_tol=2e-9)
        assert tol.check_tol == 2e-8
        with pytest.raises(TypeError):
            Tolerance(check_tol=1e-8)
        with pytest.raises(AttributeError):
            tol.check_tol = 1e-8


class TestBlockDiag:
    def test_mixed_blocks(self):
        out = block_diag([[-1.0]], np.array([[1.0, 2.0], [3.0, 4.0]]),
                         [[5.0, 6.0], [7.0, 8.0]], np.array([[9.0]]))
        want = np.array([
            [-1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 2.0, 0.0, 0.0, 0.0],
            [0.0, 3.0, 4.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 5.0, 6.0, 0.0],
            [0.0, 0.0, 0.0, 7.0, 8.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 9.0],
        ])
        assert out.shape == want.shape
        assert np.array_equal(out, want)


class TestOrthonormalize:
    def test_already_orthonormal(self):
        out = orthonormalize(np.eye(2))
        assert out.shape == (2, 2)
        assert max_abs(out.T @ out - np.eye(2)) < 1e-12

    def test_dependent_pair_collapses(self):
        out = orthonormalize(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert out.shape == (2, 1)
        assert abs(abs(out[:, 0] @ np.array([1.0, 1.0]) / np.sqrt(2)) - 1) < 1e-12

    def test_random_gram_is_identity(self):
        rng = np.random.default_rng(0)
        out = orthonormalize(rng.standard_normal((5, 3)))
        assert out.shape == (5, 3)
        assert max_abs(out.T @ out - np.eye(3)) <= 1e-9

    def test_all_zero_gives_empty(self):
        out = orthonormalize(np.zeros((3, 2)))
        assert out.shape == (3, 0)

    def test_noise_collapses_to_empty(self):
        # Roundoff-scale columns must not survive as a fake basis.
        rng = np.random.default_rng(1)
        out = orthonormalize(1e-16 * rng.standard_normal((4, 3)))
        assert out.shape == (4, 0)

    def test_complex_input(self):
        v = np.array([1.0, -1.0j]) / np.sqrt(2)
        out = orthonormalize(np.column_stack([v, 1.0j * v]))
        assert out.shape == (2, 1)
        assert abs(abs(np.vdot(out[:, 0], v)) - 1) < 1e-12


class TestSymmetricEigen:
    def test_identity(self):
        w, V = symmetric_eigen(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])
        assert max_abs(V.T @ V - np.eye(3)) < 1e-12

    def test_diagonal_descending(self):
        w, V = symmetric_eigen(np.diag([2.0, -1.0]))
        assert np.allclose(w, [2.0, -1.0])
        assert max_abs(np.abs(V) - np.eye(2)) < 1e-12

    def test_rotation_symmetric_part(self):
        a = 0.7
        c, s = np.cos(a), np.sin(a)
        R = np.array([[c, -s], [s, c]])
        w, _ = symmetric_eigen((R + R.T) / 2)
        # both eigenvalues are cos(0.7)
        assert np.allclose(w, [0.7648421872844885, 0.7648421872844885])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(2)
        for n in (2, 5, 12):
            A = rng.standard_normal((n, n))
            S = (A + A.T) / 2
            w, V = symmetric_eigen(S)
            assert np.all(np.diff(w) <= 1e-12)
            assert max_abs(S - V @ np.diag(w) @ V.T) <= 1e-8
            assert max_abs(V.T @ V - np.eye(n)) <= 1e-9


class TestSubspaceMeet:
    def test_contained_line(self):
        U = np.eye(3)[:, :1]
        W = np.eye(3)[:, :2]
        out = subspace_meet(U, W)
        assert out.shape == (3, 1)
        assert abs(abs(out[0, 0]) - 1) < 1e-12

    def test_transverse_lines(self):
        out = subspace_meet(np.eye(2)[:, :1], np.eye(2)[:, 1:])
        assert out.shape == (2, 0)

    def test_random_planes_generically_disjoint(self):
        rng = np.random.default_rng(3)
        U = orthonormalize(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        W = orthonormalize(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        assert subspace_meet(U, W).shape == (4, 0)

    def test_shared_line_recovered(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v /= np.linalg.norm(v)
            U = orthonormalize(np.column_stack([v, rng.standard_normal(4)]))
            W = orthonormalize(np.column_stack([v, rng.standard_normal(4)]))
            out = subspace_meet(U, W)
            assert out.shape == (4, 1)
            assert abs(abs(np.vdot(out[:, 0], v)) - 1) <= 1e-8

    def test_self_meet_spans_input(self):
        rng = np.random.default_rng(5)
        U = orthonormalize(rng.standard_normal((6, 3)))
        out = subspace_meet(U, U)
        assert out.shape == (6, 3)
        assert np.max(subspace_angles(out, U)) <= 1e-9


class TestOrthonormalComplement:
    def test_complement_of_line(self):
        out = orthonormal_complement(np.eye(3)[:, :1])
        assert out.shape == (3, 2)
        assert max_abs(out[0]) < 1e-12
        assert max_abs(out.T @ out - np.eye(2)) < 1e-12

    def test_complement_orthogonal_to_input(self):
        rng = np.random.default_rng(6)
        B = orthonormalize(rng.standard_normal((7, 3)))
        out = orthonormal_complement(B)
        assert out.shape == (7, 4)
        assert max_abs(B.T @ out) <= 1e-9

    def test_full_basis_has_empty_complement(self):
        Q = rand_orthogonal(4, np.random.default_rng(7))
        assert orthonormal_complement(Q).shape == (4, 0)

    def test_empty_input_gives_identity(self):
        out = orthonormal_complement(np.zeros((3, 0)))
        assert out.shape == (3, 3)

    def test_square_orthonormal_basis_takes_no_svd(self, monkeypatch):
        Q = rand_orthogonal(5, np.random.default_rng(8))
        calls = record_calls(monkeypatch, np.linalg, "svd")
        out = orthonormal_complement(Q)
        assert calls == []
        assert out.shape == (5, 0) and out.dtype == np.float64

    def test_square_basis_with_equal_columns_keeps_its_complement(self):
        Q = rand_orthogonal(4, np.random.default_rng(9))
        Q[:, 3] = Q[:, 2]
        out = orthonormal_complement(Q)
        assert out.shape == (4, 1)
        assert max_abs(Q.T @ out) <= 1e-12

    def test_square_basis_beyond_the_gram_bound_takes_the_svd(self, monkeypatch):
        # Gram residual 1.1^2 - 1 = 0.21 exceeds 1/(2m) = 0.125
        Q = 1.1 * rand_orthogonal(4, np.random.default_rng(10))
        assert orthonormality_residual(Q) > 1 / 8
        calls = record_calls(monkeypatch, np.linalg, "svd")
        assert orthonormal_complement(Q).shape == (4, 0)
        assert len(calls) == 1


class TestNumericalRank:
    @pytest.mark.parametrize("s, rank", [
        ([3.0, 2.0, 1.0], 3),
        ([1.0, 1e-9, 0.0], 1),
        ([1.0, 1.1e-9], 2),
        ([2e-9, 1e-9], 2),
        ([1e-9, 1e-9], 0),
        ([0.0, 0.0], 0),
        ([], 0),
    ])
    def test_relative_cut_with_absolute_floor(self, s, rank):
        assert numerical_rank(np.array(s)) == rank


class TestOrthonormalityResidual:
    def test_orthonormal_columns(self):
        Q = rand_orthogonal(5, np.random.default_rng(7))[:, :3]
        assert orthonormality_residual(Q) <= 1e-14

    def test_reads_entrywise_max(self):
        X = np.diag([1.0, 1.5, 1.0])[:, :2]
        assert orthonormality_residual(X) == 1.25


def _old_max_abs(a):
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def _same_bits(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes() or (
        np.isnan(x) and np.isnan(y))


@pytest.mark.parametrize("X", [
    np.random.default_rng(1).standard_normal((6, 4)),
    rand_orthogonal(8, np.random.default_rng(2)),
    np.random.default_rng(3).standard_normal((3, 7)),   # wide: more columns than rows
    np.zeros((4, 0)),
    np.zeros((0, 3)),
    np.array([[np.nan, 1.0], [0.0, 1.0]]),
    np.array([[-0.0, 1.0], [1.0, -0.0]]),
    np.array([[1, 2], [3, 4]]),
    np.random.default_rng(4).standard_normal((5, 5)).astype(np.float32),
], ids=["random", "orthogonal", "wide", "no-columns", "no-rows", "nan",
        "negative-zero", "integer", "float32"])
def test_helpers_match_the_plain_formulas_bit_for_bit(X):
    assert _same_bits(max_abs(X), _old_max_abs(X))
    old = _old_max_abs(X.T @ X - np.eye(X.shape[1]))
    assert _same_bits(orthonormality_residual(X), old)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_a_non_finite_entry_measures_nan_without_a_warning(value, dtype):
    # X^T X would multiply the infinity by the zeros beside it; the suite
    # turns that RuntimeWarning into an error
    X = np.eye(4, dtype=dtype)[:, :3]
    X[1, 1] = value
    assert np.isnan(orthonormality_residual(X))


def test_a_huge_finite_entry_still_measures_its_overflow():
    X = np.eye(2)
    X[0, 0] = 1e200
    with np.errstate(over="ignore"):
        assert orthonormality_residual(X) == np.inf


def _single_linkage_by_loop(values, gap):
    """The reference: walk the sorted values, open a cluster at each gap."""
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")
    clusters = []
    for idx in order:
        if clusters and values[idx] - values[clusters[-1][-1]] <= gap:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return [np.array(c) for c in clusters]


class TestSingleLinkage:
    def test_no_values_no_clusters(self):
        assert single_linkage([], 1.0) == []
        assert single_linkage(np.empty(0), 1e-7) == []

    def test_gap_at_the_threshold_links(self):
        # 0.25 is exact in binary: 0.5 - 0.25 == 0.25 links, 1.0 - 0.5 does not
        groups = single_linkage([1.0, 0.25, 0.5, 0.5], 0.25)
        assert [g.tolist() for g in groups] == [[1, 2, 3], [0]]

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), max_size=12),
           start=st.sampled_from([-1.0, 0.0, 3.0]),
           nans=st.integers(0, 2), perm_seed=st.integers(0, 2**32 - 1),
           gap=st.sampled_from([0.0, 0.25, 0.5]))
    def test_matches_the_loop(self, steps, start, nans, perm_seed, gap):
        # multiples of 0.25 subtract exactly, so some gaps sit exactly at
        # the threshold, and zero steps are ties; NaN sorts last, alone
        values = np.concatenate([start + np.cumsum(steps), [np.nan] * nans])
        values = values[np.random.default_rng(perm_seed).permutation(values.size)]
        got = single_linkage(values, gap)
        want = _single_linkage_by_loop(values, gap)
        assert [g.tolist() for g in got] == [w.tolist() for w in want]
        assert all(g.dtype == np.intp for g in got)

    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), max_size=12),
           start=st.sampled_from([-1.0, 0.0, 3.0]), nans=st.integers(0, 2),
           gap=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    def test_ends_within_the_gap_are_one_cluster(self, steps, start, nans, gap):
        # orthogonal_normal_form's one-cluster test on its descending arccos
        # values: first minus last within the gap, else single_linkage.
        # Multiples of 0.25 subtract exactly, so gaps and spreads sit at the
        # threshold, zero steps are ties, and a NaN, here first, fails the test
        values = np.concatenate([[np.nan] * nans, start + np.cumsum(steps)[::-1]])
        if not values.size:
            return
        one = len(single_linkage(values, gap)) == 1
        ends = bool(values[0] - values[-1] <= gap)
        assert one >= ends
        assert (ends or one) is one
        if one and not ends:   # a chain: every gap within it, the spread beyond
            assert np.all(values[:-1] - values[1:] <= gap)
