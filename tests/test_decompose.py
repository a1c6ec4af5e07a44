import importlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    count_normal_forms,
    pair_rotations,
    polar,
    rand_orthogonal,
    random_compatible_spec,
    record_calls,
)
from rotpair import (
    BadDimension,
    BadParameter,
    ClassLabel,
    Dim1,
    Dim2LeftScalar,
    Dim2Proper,
    Dim2RightScalar,
    Dim4,
    InvariantBlock,
    NotARotation,
    NumericalFailure,
    NotOrthogonalPair,
    NotProper,
    Rotation,
    Tolerance,
    as_rotation,
    classify,
    decompose,
    generate_pair,
    is_irreducible,
    labels_match,
    max_abs,
    realize,
    rho,
    rot2,
    two_plane_exists,
    unrho,
)
from rotpair.antilinear import eigenplanes
from rotpair.decompose import (
    _invariance,
    _planes_or_operator,
    _real_plane,
    _twist_clusters,
    find_block,
    invariance_residual,
)
from rotpair.linalg import (
    DEFAULT_TOL,
    block_diag,
    orthonormality_residual,
    require,
    single_linkage,
    subspace_meet,
    symmetric_eigen,
)

# the package namespace binds ``decompose`` to the function
DECOMPOSE = importlib.import_module("rotpair.decompose")


def proper(M):
    return as_rotation(np.asarray(M, dtype=float))


class TestTwoPlaneExists:
    def test_aligned_blocks_have_plane(self):
        d = proper(block_diag(rot2(0.5), rot2(0.5), rot2(0.5)))
        e = proper(block_diag(rot2(1.1), rot2(1.1), rot2(-1.1)))
        exists, plane = two_plane_exists(d, e)
        assert exists
        assert plane.shape == (6, 2)
        assert invariance_residual(plane, d, e) <= 1e-8

    def test_rho_aligned_pair_has_plane(self):
        rng = np.random.default_rng(12)
        Q = rand_orthogonal(6, rng)
        d = proper(Q @ block_diag(*[rot2(0.9)] * 3) @ Q.T)
        e = unrho(rho(d), 1.3)
        exists, plane = two_plane_exists(d, e)
        assert exists
        assert invariance_residual(plane, d, e) <= 1e-8

    @pytest.mark.parametrize("theta", [0.2, 0.9, 1.5])
    def test_twisted_four_block_has_none(self, theta):
        rng = np.random.default_rng(13)
        Q = rand_orthogonal(4, rng)
        dm, em = realize(Dim4(alpha=0.7, beta=1.9, theta=theta))
        exists, plane = two_plane_exists(proper(Q @ dm @ Q.T), proper(Q @ em @ Q.T))
        assert not exists
        assert plane is None

    def test_rejects_non_proper(self):
        d = Rotation(matrix=np.eye(4), angle=0.0)
        e = proper(block_diag(rot2(0.5), rot2(0.5)))
        with pytest.raises(NotProper):
            two_plane_exists(d, e)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        d = proper(block_diag(rot2(0.5), rot2(0.5)))
        m = d.matrix.copy()
        m[0, 3] = bad
        with pytest.raises(BadParameter, match="non-finite"):
            two_plane_exists(d, Rotation(m, 1.1))
        with pytest.raises(BadParameter, match="non-finite"):
            two_plane_exists(Rotation(m, 1.1), d)

    def test_conjugation_invariant(self):
        rng = np.random.default_rng(14)
        dm, em = realize(Dim4(alpha=0.5, beta=1.2, theta=0.8))
        for _ in range(5):
            Q = rand_orthogonal(4, rng)
            exists, _ = two_plane_exists(proper(Q @ dm @ Q.T), proper(Q @ em @ Q.T))
            assert not exists


class TestFindBlock:
    def test_both_scalar(self):
        blocks = find_block(Rotation(np.eye(3), 0.0), Rotation(-np.eye(3), np.pi))
        assert len(blocks) == 3
        for b in blocks:
            assert b.dim == 1
            assert np.allclose(b.d_restricted, [[1.0]])
            assert np.allclose(b.e_restricted, [[-1.0]])

    def test_one_scalar_follows_other_operator(self):
        rng = np.random.default_rng(15)
        Q = rand_orthogonal(4, rng)
        e = proper(Q @ block_diag(rot2(0.8), rot2(0.8)) @ Q.T)
        blocks = find_block(Rotation(np.eye(4), 0.0), e)
        assert len(blocks) == 2
        for b in blocks:
            assert b.dim == 2
            assert np.allclose(b.d_restricted, np.eye(2))
            assert abs(np.trace(b.e_restricted) / 2.0 - np.cos(0.8)) <= 1e-9

    def test_proper_pair_with_overlap_gives_plane(self):
        d = proper(block_diag(rot2(0.5), rot2(0.5)))
        e = proper(block_diag(rot2(1.1), rot2(-1.1)))
        blocks = find_block(d, e)
        assert len(blocks) == 1
        for b in blocks:
            assert b.dim == 2
            assert invariance_residual(b.basis, d, e) <= 1e-9

    def test_twisted_pair_gives_four_block(self):
        rng = np.random.default_rng(16)
        Q = rand_orthogonal(4, rng)
        d, e = (proper(Q @ M @ Q.T)
                for M in realize(Dim4(alpha=0.5, beta=1.2, theta=0.8)))
        blocks = find_block(d, e)
        assert len(blocks) == 1
        for b in blocks:
            assert b.dim == 4
            assert invariance_residual(b.basis, d, e) <= 1e-8
            assert max_abs(b.basis.T @ b.basis - np.eye(4)) <= 1e-9

    def test_rejects_dimension_mismatch(self, monkeypatch):
        # decompose certifies the pair before any search step runs
        seen = record_calls(monkeypatch, DECOMPOSE, "find_block")
        with pytest.raises(NotOrthogonalPair):
            decompose(Rotation(np.eye(2), 0.0), Rotation(np.eye(3), 0.0))
        assert seen == []

    def test_meet_gives_every_plane(self):
        rng = np.random.default_rng(44)
        Q = rand_orthogonal(16, rng)
        dm, em = realize(Dim2Proper(alpha=0.7, beta=1.9, r=1))
        d = proper(Q @ block_diag(*[dm] * 8) @ Q.T)
        e = proper(Q @ block_diag(*[em] * 8) @ Q.T)
        blocks = find_block(d, e)
        assert len(blocks) == 8
        full = np.column_stack([b.basis for b in blocks])
        assert max_abs(full.T @ full - np.eye(16)) <= 1e-12
        for b in blocks:
            assert b.dim == 2
            assert invariance_residual(b.basis, d, e) <= 1e-9


class TestIrreducibility:
    def test_dim1_always(self):
        blocks = find_block(Rotation(np.eye(1), 0.0), Rotation(-np.eye(1), np.pi))
        assert len(blocks) == 1
        for b in blocks:
            assert is_irreducible(b)

    def test_dim2_scalar_scalar_is_not(self):
        from rotpair.decompose import InvariantBlock

        b = InvariantBlock(basis=np.eye(2), d_restricted=np.eye(2),
                           e_restricted=-np.eye(2))
        assert not is_irreducible(b)

    def test_dim2_reflection_side_raises(self):
        # the reflection has two invariant lines; it is no rotation at all
        from rotpair.decompose import InvariantBlock

        b = InvariantBlock(basis=np.eye(2), d_restricted=np.diag([1.0, -1.0]),
                           e_restricted=np.eye(2))
        with pytest.raises(NotARotation):
            is_irreducible(b)

    def test_dim2_with_proper_side_is_irreducible(self):
        d = proper(block_diag(rot2(0.5), rot2(0.5)))
        e = proper(block_diag(rot2(1.1), rot2(-1.1)))
        blocks = find_block(d, e)
        assert len(blocks) == 1
        for b in blocks:
            assert is_irreducible(b)

    def test_dim4_twisted_is_irreducible(self):
        from rotpair.decompose import InvariantBlock

        dm, em = realize(Dim4(alpha=0.5, beta=1.2, theta=0.8))
        b = InvariantBlock(basis=np.eye(4), d_restricted=dm, e_restricted=em)
        assert is_irreducible(b)

    def test_dim4_unaligned_product_is_not(self):
        from rotpair.decompose import InvariantBlock

        b = InvariantBlock(
            basis=np.eye(4),
            d_restricted=block_diag(rot2(0.5), rot2(0.5)),
            e_restricted=block_diag(rot2(1.1), rot2(-1.1)),
        )
        assert not is_irreducible(b)

    @pytest.mark.parametrize("thetas", [(0.9, 2.0), (0.9, 0.9)])
    def test_dim8_is_not(self, thetas):
        # every irreducible block has dimension 1, 2 or 4
        from rotpair.decompose import InvariantBlock

        d, e = pair_rotations(generate_pair([Dim4(0.7, 1.1, t) for t in thetas],
                                            seed=3))
        b = InvariantBlock(basis=np.eye(8), d_restricted=d.matrix,
                           e_restricted=e.matrix)
        assert not is_irreducible(b)

    def test_dim4_with_scalar_side_is_not(self):
        from rotpair.decompose import InvariantBlock

        b = InvariantBlock(
            basis=np.eye(4),
            d_restricted=np.eye(4),
            e_restricted=block_diag(rot2(0.3), rot2(0.3)),
        )
        assert not is_irreducible(b)


class TestDecompose:
    def test_scalar_pair_splits_into_lines(self):
        dec = decompose(Rotation(np.eye(3), 0.0), Rotation(-np.eye(3), np.pi))
        assert dec.dims == (1, 1, 1)

    def test_single_twisted_block(self):
        rng = np.random.default_rng(17)
        Q = rand_orthogonal(4, rng)
        d, e = (proper(Q @ M @ Q.T)
                for M in realize(Dim4(alpha=0.5, beta=1.2, theta=0.8)))
        dec = decompose(d, e)
        assert dec.dims == (4,)

    def test_mixed_pair_block_structure(self):
        rng = np.random.default_rng(18)
        Q = rand_orthogonal(6, rng)
        d2, e2 = realize(Dim2Proper(alpha=0.5, beta=1.2, r=1))
        d4, e4 = realize(Dim4(alpha=0.5, beta=1.2, theta=0.8))
        d = proper(Q @ block_diag(d2, d4) @ Q.T)
        e = proper(Q @ block_diag(e2, e4) @ Q.T)
        dec = decompose(d, e)
        assert dec.dims == (2, 4)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            spec = random_compatible_spec(rng)
            n = sum(f.dim for f in spec)
            d, e = pair_rotations(generate_pair(spec, seed=int(rng.integers(1 << 31))))
            dec = decompose(d, e)
            assert sum(dec.dims) == n
            full = np.column_stack([b.basis for b in dec.blocks])
            assert max_abs(full.T @ full - np.eye(n)) <= 1e-8
            for M, picker in ((d.matrix, "d_restricted"), (e.matrix, "e_restricted")):
                rebuilt = sum(
                    b.basis @ getattr(b, picker) @ b.basis.T for b in dec.blocks
                )
                assert max_abs(rebuilt - M) <= 1e-8
            for b in dec.blocks:
                assert is_irreducible(b)
                assert invariance_residual(b.basis, d, e) <= 1e-8

    def test_dims_stable_under_conjugation(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            spec = random_compatible_spec(rng)
            d, e = pair_rotations(generate_pair(spec, seed=int(rng.integers(1 << 31))))
            dims = decompose(d, e).dims
            Q = rand_orthogonal(d.dim, rng)
            d2 = Rotation(Q @ d.matrix @ Q.T, d.angle)
            e2 = Rotation(Q @ e.matrix @ Q.T, e.angle)
            assert sorted(decompose(d2, e2).dims) == sorted(dims)

    def test_deterministic(self):
        d, e = pair_rotations(generate_pair(
            [Dim2Proper(alpha=0.5, beta=1.2, r=1),
             Dim4(alpha=0.5, beta=1.2, theta=0.8)],
            seed=7,
        ))
        one = decompose(d, e)
        two = decompose(d, e)
        assert one.dims == two.dims
        for a, b in zip(one.blocks, two.blocks):
            assert np.array_equal(a.basis, b.basis)

    def test_block_restrictions_redecompose_trivially(self):
        d, e = pair_rotations(generate_pair(
            [Dim2Proper(alpha=0.5, beta=1.2, r=1),
             Dim4(alpha=0.5, beta=1.2, theta=0.8)],
            seed=8,
        ))
        for b in decompose(d, e).blocks:
            if b.dim == 1:
                continue
            sub = decompose(proper(b.d_restricted), proper(b.e_restricted))
            assert sub.dims == (b.dim,)

    def test_rejects_non_orthogonal(self):
        M = np.eye(2) * 1.5
        with pytest.raises(NotOrthogonalPair):
            decompose(Rotation(M, 0.0), Rotation(np.eye(2), 0.0))

    def test_rejects_nan(self):
        with pytest.raises(NotOrthogonalPair):
            decompose(Rotation(np.full((2, 2), np.nan), 0.5),
                      Rotation(np.eye(2), 0.0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(NotOrthogonalPair):
            decompose(Rotation(np.eye(2), 0.0), Rotation(np.eye(4), 0.0))


class TestInvarianceResidual:
    def test_rejects_basis_with_wrong_row_count(self):
        d = proper(block_diag(rot2(0.5), rot2(0.5)))
        with pytest.raises(BadDimension, match="4 rows"):
            invariance_residual(np.ones((6, 2)), d, d)

    def test_rejects_one_dimensional_basis(self):
        d = proper(block_diag(rot2(0.5), rot2(0.5)))
        with pytest.raises(BadDimension):
            invariance_residual(np.ones(4), d, d)

    def test_rejects_rotations_of_unequal_dimension(self):
        d = proper(block_diag(rot2(0.5), rot2(0.5)))
        e = proper(block_diag(rot2(0.5), rot2(0.5), rot2(0.5)))
        with pytest.raises(NotOrthogonalPair, match="dimensions differ"):
            invariance_residual(np.eye(4)[:, :2], d, e)

    def test_rejects_a_string_basis(self):
        d = proper(block_diag(rot2(0.5), rot2(0.5)))
        with pytest.raises(BadParameter, match="basis must hold real numbers"):
            invariance_residual(np.full((4, 2), "1.0"), d, d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_basis(self, bad):
        d = proper(block_diag(rot2(0.5), rot2(0.5)))
        with pytest.raises(BadParameter, match="non-finite"):
            invariance_residual(np.full((4, 2), bad), d, d)

    def test_complex_eigenplane_is_invariant(self):
        """An eigenplane A is judged with A^H; A^T read 0.707 here."""
        d, e = pair_rotations(generate_pair([Dim2Proper(0.7, 1.9, 1)] * 2, seed=53))
        A, C = eigenplanes(d, e, DEFAULT_TOL)
        assert invariance_residual(A, d, e) <= 1e-12
        assert invariance_residual(C, d, e) <= 1e-12

    def test_nan_residual_passes_through_and_fails(self):
        d = proper(block_diag(rot2(0.5), rot2(0.5)))
        one = _invariance(np.full((4, 2), np.nan), d, d)[0]
        stack = _invariance(np.full((3, 4, 2), np.nan), d, d)[0]
        assert np.isnan(one) and np.isnan(stack).all()
        for resid in (one, stack):
            with pytest.raises(NumericalFailure, match="nan"):
                require(resid, DEFAULT_TOL.check_tol, NumericalFailure, "residual")


def _record_orthonormality(monkeypatch):
    """Arguments of every ``orthonormality_residual`` call in the package.

    Modules import the function by name, so every rotpair namespace that
    holds it is patched.
    """
    original = orthonormality_residual
    calls = []

    def recorded(X):
        calls.append(X)
        return original(X)

    for name, module in list(sys.modules.items()):
        if (name.startswith("rotpair")
                and getattr(module, "orthonormality_residual", None) is original):
            monkeypatch.setattr(module, "orthonormality_residual", recorded)
    return calls


class TestCarriedOrthogonality:
    """A certified side is judged by the residual its normal form measured."""

    @pytest.mark.parametrize("spec", [
        [Dim4(0.7, 1.9, 1.1), Dim2Proper(0.7, 1.9, 1), Dim2Proper(0.7, 1.9, -1)],
        [Dim2LeftScalar(-1, 1.9)] * 4,
    ], ids=["proper", "scalar"])
    def test_classify_forms_no_full_size_product(self, monkeypatch, spec):
        d, e = pair_rotations(generate_pair(spec, 3))
        calls = _record_orthonormality(monkeypatch)
        classify(d, e)
        assert [X.shape for X in calls if X.shape[0] == d.dim] == []

    def test_hand_built_side_is_measured(self, monkeypatch):
        # once in the whole package: by the as_rotation that certifies it
        d, e = pair_rotations(generate_pair([Dim2Proper(0.7, 1.9, 1)] * 2, 4))
        hand = Rotation(d.matrix.copy(), d.angle)
        calls = _record_orthonormality(monkeypatch)
        classify(hand, e)
        sides = [X for X in calls if X is hand.matrix or X is e.matrix]
        assert len(sides) == 1 and sides[0] is hand.matrix

    @pytest.mark.parametrize("scale", [1.0 + 1e-8, 1.0 - 3e-9], ids=["long", "short"])
    def test_non_orthogonal_hand_built_side_names_the_side(self, scale):
        d, e = pair_rotations(generate_pair([Dim2Proper(0.7, 1.9, 1)] * 2, 6))
        hand = Rotation(d.matrix * scale, d.angle)
        resid = orthonormality_residual(hand.matrix)
        assert resid > DEFAULT_TOL.residual_tol
        for first, second, name in ((hand, e, "first"), (e, hand, "second")):
            with pytest.raises(NotOrthogonalPair) as info:
                classify(first, second)
            assert str(info.value) == (f"{name} operator orthogonality residual "
                                       f"{resid:.3e} exceeds 1.000e-09")

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_hand_built_side_names_the_side(self, value):
        # its residual is NaN, measured with no RuntimeWarning, which the
        # suite's filterwarnings would turn into the error raised instead
        d, e = pair_rotations(generate_pair([Dim2Proper(0.7, 1.9, 1)] * 2, 6))
        M = d.matrix.copy()
        M[0, 0] = value
        hand = Rotation(M, d.angle)
        for first, second, name in ((hand, e, "first"), (e, hand, "second")):
            with pytest.raises(NotOrthogonalPair) as info:
                classify(first, second)
            assert str(info.value) == (f"{name} operator orthogonality residual "
                                       "nan exceeds 1.000e-09")

    def test_loose_certificate_is_judged_at_the_pair_tolerance(self):
        # a side 2.5e-9 too long has orthogonality residual about 5e-9:
        # certified at residual_tol 1e-8, refused at the default 1e-9
        d, e = pair_rotations(generate_pair([Dim2Proper(0.7, 1.9, 1)] * 2, 5))
        M = d.matrix * (1.0 + 2.5e-9)
        loose = as_rotation(M, Tolerance(residual_tol=1e-8))
        resid = orthonormality_residual(M)
        assert 1e-9 < resid <= 1e-8
        for first, second, name in ((loose, e, "first"), (e, loose, "second")):
            with pytest.raises(NotOrthogonalPair) as info:
                classify(first, second)
            assert str(info.value) == (f"{name} operator orthogonality residual "
                                       f"{resid:.3e} exceeds 1.000e-09")


@pytest.mark.parametrize("spec", [
    [Dim2Proper(0.7, 1.9, 1)] * 3 + [Dim2Proper(0.7, 1.9, -1)] * 2 + [Dim4(0.7, 1.9, 1.1)],
    [Dim2Proper(0.7, 1.9, r) for r in (1, -1) for _ in range(4)] + [Dim4(0.7, 1.9, 0.9)] * 2,
], ids=["one-step-each", "stacked-steps"])
def test_a_step_s_blocks_are_moved_not_built_again(monkeypatch, spec):
    # each block a search step finds is the one decompose returns, its basis
    # taken to ambient coordinates; its restrictions are the step's own
    original, built = DECOMPOSE.find_block, []

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        built.extend(b for piece in (out if isinstance(out[0], tuple) else [out])
                     for b in piece)
        return out

    monkeypatch.setattr(DECOMPOSE, "find_block", recorded)
    d, e = pair_rotations(generate_pair(spec, seed=12))
    planes = [b for b in decompose(d, e).blocks if b.dim == 2]
    assert len(planes) == sum(f.dim == 2 for f in spec) and built
    for b in planes:
        assert any(b is found for found in built)
        assert b.basis.shape[0] == d.dim
        for M, R in ((d.matrix, b.d_restricted), (e.matrix, b.e_restricted)):
            assert max_abs(M @ b.basis - b.basis @ R) <= DEFAULT_TOL.check_tol


def test_invariant_blocks_compare_by_their_arrays():
    d, e = pair_rotations(generate_pair([Dim4(0.7, 1.9, 1.1)], 7))
    [block] = decompose(d, e).blocks
    # the carried rotations take no part
    copy = InvariantBlock(block.basis.copy(), block.d_restricted.copy(),
                          block.e_restricted.copy())
    assert block == copy and not block != copy
    assert decompose(d, e) == decompose(d, e)
    R = block.e_restricted.copy()
    R[2, 3] = np.nextafter(R[2, 3], 2.0)
    assert block != InvariantBlock(block.basis, block.d_restricted, R)
    assert block != InvariantBlock(block.basis[:, :2], block.d_restricted,
                                   block.e_restricted)
    assert block != d and block != block.basis.tolist()
    with pytest.raises(TypeError):
        hash(block)


def test_invariant_block_against_an_array_answers_one_bool():
    d, e = pair_rotations(generate_pair([Dim4(0.7, 1.9, 1.1)], 7))
    [block] = decompose(d, e).blocks
    for arr in (block.basis, block.d_restricted):
        assert (block == arr) is False and (arr == block) is False
        assert (block != arr) is True and (arr != block) is True


def dims(calls):
    """Dimension of the first rotation of each recorded call."""
    return [args[0].dim for args in calls]


def n96_spec(rng):
    """12 Dim4 and 24 Dim2Proper blocks (12 of each sign) sharing alpha, beta."""
    alpha, beta = rng.uniform(0.1, np.pi - 0.1, 2)
    spec = [Dim4(alpha, beta, t) for t in rng.uniform(0.05, np.pi - 0.05, 12)]
    spec += [Dim2Proper(alpha, beta, r) for r in (1, -1) for _ in range(12)]
    return spec


class TestTwistClusters:
    def test_one_cluster_per_twist(self):
        rng = np.random.default_rng(41)
        spec = n96_spec(rng)
        d, e = pair_rotations(generate_pair(spec, seed=41))
        clusters = _twist_clusters(d, e, DEFAULT_TOL)[0]
        # descending <d v, e v>: r = +1 planes, twists ascending, r = -1 planes
        assert [c.dim for c in clusters] == [24] + [4] * 12 + [24]
        full = np.column_stack([c.basis for c in clusters])
        assert max_abs(full.T @ full - np.eye(96)) <= 1e-12
        for c in clusters:
            assert invariance_residual(c.basis, d, e) <= 1e-9

    def test_scalar_side_is_one_cluster(self):
        d, e = pair_rotations(generate_pair([Dim2LeftScalar(r=-1, beta=0.8)] * 3,
                                            seed=42))
        clusters = _twist_clusters(d, e, DEFAULT_TOL)[0]
        assert len(clusters) == 1 and np.array_equal(clusters[0].basis, np.eye(6))
        # the pair itself, with the normal forms that certified it
        assert clusters[0].rotations[0] is d and clusters[0].rotations[1] is e
        assert decompose(d, e).dims == (2, 2, 2)
        lines = decompose(Rotation(np.eye(3), 0.0), Rotation(-np.eye(3), np.pi))
        assert lines.dims == (1, 1, 1)

    def test_scalar_side_is_one_step(self, monkeypatch):
        d, e = pair_rotations(generate_pair([Dim2LeftScalar(r=1, beta=0.8)] * 4,
                                            seed=45))
        sizes = count_normal_forms(monkeypatch)
        calls = record_calls(monkeypatch, DECOMPOSE, "find_block")
        assert decompose(d, e).dims == (2, 2, 2, 2)
        assert dims(calls) == [8]
        assert sizes == []

    @pytest.mark.parametrize("spec, dim", [
        ([Dim2LeftScalar(r=-1, beta=0.8)] * 4, 2),
        ([Dim1(r=1, s=-1)] * 3, 1),
    ], ids=["planes", "lines"])
    def test_scalar_side_is_routed_to_one_step(self, monkeypatch, spec, dim):
        """A pair with a +-I side takes one search step on the pair itself."""
        d, e = pair_rotations(generate_pair(spec, seed=50))
        clusters = record_calls(monkeypatch, DECOMPOSE, "_twist_clusters")
        steps = record_calls(monkeypatch, DECOMPOSE, "find_block")
        assert decompose(d, e).dims == (dim,) * len(spec)
        assert clusters == []
        assert len(steps) == 1 and steps[0][0] is d and steps[0][1] is e

    @pytest.mark.parametrize("spec", [
        [Dim2Proper(0.5, 1.2, 1)] * 4,
        [Dim4(0.7, 1.9, 1.1)] * 3,
    ], ids=["planes", "four-blocks"])
    def test_one_group_is_the_pair_itself(self, monkeypatch, spec):
        """One eigenvalue group is the whole space: no product is formed."""
        d, e = pair_rotations(generate_pair(spec, seed=51))
        products = record_calls(monkeypatch, DECOMPOSE, "_invariance")
        [cluster] = _twist_clusters(d, e, DEFAULT_TOL)[0]
        assert products == []
        assert np.array_equal(cluster.basis, np.eye(d.dim))
        assert cluster.rotations[0] is d and cluster.rotations[1] is e

    def test_peel_work_is_cubic(self, monkeypatch):
        """Search steps work on clusters, not on the whole space.

        Peeling 36 blocks off the whole n = 96 space sums m^3 over the
        dimensions m that find_block sees to about 12 n^3; inside twist
        clusters the sum stays below n^3.  Each 4-dimensional cluster is
        one 4-block by a single irreducibility verdict, so only the two
        plane clusters, one per orientation r, are searched, in one
        step on their stack.
        """
        rng = np.random.default_rng(43)
        spec = n96_spec(rng)
        d, e = pair_rotations(generate_pair(spec, seed=43))
        calls = record_calls(monkeypatch, DECOMPOSE, "find_block")
        label = classify(d, e)
        assert labels_match(label, ClassLabel(forms=tuple(spec)))
        assert [args[0].matrix.shape for args in calls] == [(2, 24, 24)]
        # m^3 for each piece of m dimensions
        assert sum(args[0].matrix.size * args[0].dim for args in calls) <= 96 ** 3


    def test_one_verdict_per_four_block(self, monkeypatch):
        """Each 4-dimensional cluster is searched once, labels included.

        One stacked search of the n = 96 pair's two plane clusters, and
        one stacked search of its 12 Dim4 clusters, one piece each, for
        their irreducibility verdicts; labelling the blocks searches
        nothing again.
        """
        rng = np.random.default_rng(46)
        spec = n96_spec(rng)
        d, e = pair_rotations(generate_pair(spec, seed=46))
        calls = record_calls(monkeypatch, DECOMPOSE, "_planes_or_operator")
        label = classify(d, e)
        shapes = sorted(args[0].matrix.shape for args in calls)
        assert labels_match(label, ClassLabel(forms=tuple(spec)))
        assert shapes == [(2, 24, 24), (12, 4, 4)]

    def test_lone_four_block_is_its_cluster(self, monkeypatch):
        d, e = pair_rotations(generate_pair([Dim4(0.5, 1.2, 0.8)], seed=47))
        seen = record_calls(monkeypatch, DECOMPOSE, "find_block")
        dec = decompose(d, e)
        assert seen == []
        assert dec.dims == (4,)
        [cluster] = _twist_clusters(d, e, DEFAULT_TOL)[0]
        basis = dec.blocks[0].basis
        assert max_abs(basis @ basis.T - cluster.basis @ cluster.basis.T) <= 1e-12
        assert invariance_residual(basis, d, e) <= 1e-9

    @pytest.mark.parametrize("k", [2, 3])
    def test_last_equal_twist_remainder_takes_no_step(self, monkeypatch, k):
        """k equal twists are one cluster; each step takes one 4-block.

        The last 4-dimensional remainder is one 4-block, and one
        irreducibility verdict keeps it with no further search step.
        """
        spec = [Dim4(0.7, 1.9, 1.1)] * k
        d, e = pair_rotations(generate_pair(spec, seed=49))
        calls = record_calls(monkeypatch, DECOMPOSE, "find_block")
        dec = decompose(d, e)
        assert dims(calls) == [4 * j for j in range(k, 1, -1)]
        assert [c.dim for c in _twist_clusters(d, e, DEFAULT_TOL)[0]] == [4 * k]
        assert dec.dims == (4,) * k
        _assert_restrictions_match_basis(d, e)
        assert labels_match(classify(d, e), ClassLabel(forms=tuple(spec)))

    def test_reducible_four_dim_cluster_gives_two_planes(self, monkeypatch):
        spec = [Dim2Proper(0.7, 1.9, 1)] * 2 + [Dim4(0.7, 1.9, 1.0)]
        d, e = pair_rotations(generate_pair(spec, seed=48))
        assert [c.dim for c in _twist_clusters(d, e, DEFAULT_TOL)[0]] == [4, 4]
        calls = record_calls(monkeypatch, DECOMPOSE, "find_block")
        dec = decompose(d, e)
        assert dims(calls) == [4]
        assert dec.dims == (2, 2, 4)
        for b in dec.blocks:
            assert invariance_residual(b.basis, d, e) <= 1e-9
        assert labels_match(classify(d, e), ClassLabel(forms=tuple(spec)))

    def test_failed_stack_merges_one_group_at_a_time(self):
        """The stacked check of three 4-dimensional groups fails, and the
        merge loop gives the pinned clusters.

        Two twists 6e-6 apart group apart at n = 12, and noise of 5e-10
        leaves both groups above ``check_tol``.  The groups are then
        certified one at a time by ascending value: the lowest passes, the
        next fails and merges with its nearer neighbour, and the 8-dimensional
        merge passes.  No two clusters of one size are left to stack.
        """
        spec = [Dim4(1.0, 2.0, 1.0), Dim4(1.0, 2.0, 1.0 + 6e-6), Dim4(1.0, 2.0, 2.5)]
        doc = generate_pair(spec, seed=0)
        rng = np.random.default_rng(100)
        d, e = (as_rotation(polar(M + 5e-10 * rng.standard_normal(M.shape)))
                for M in (doc.delta, doc.epsilon))
        G = d.matrix.T @ e.matrix
        values, vectors = symmetric_eigen((G + G.T) / 2.0)
        groups = single_linkage(values, DEFAULT_TOL.eigenvector_gap(12))
        assert [len(g) for g in groups] == [4, 4, 4]
        stacked = _invariance(np.stack([vectors[:, g] for g in groups]), d, e)[0]
        assert (stacked > DEFAULT_TOL.check_tol).tolist() == [False, True, True]
        clusters, stacks = _twist_clusters(d, e, DEFAULT_TOL)
        assert stacks == {}
        assert [c.dim for c in clusters] == [8, 4]
        for c, g in zip(clusters, [np.concatenate(groups[1:]), groups[0]]):
            resid, (R_d, R_e) = _invariance(vectors[:, g], d, e)
            assert resid <= DEFAULT_TOL.check_tol
            assert np.array_equal(c.basis, vectors[:, g])
            assert np.array_equal(c.d_restricted, R_d)
            assert np.array_equal(c.e_restricted, R_e)
        assert decompose(d, e).dims == (4, 4, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_noisy_close_twists_merge(self, seed):
        """Two twists 3e-6 apart group apart, fail invariance, and merge.

        With noise of 5e-10 on both sides the two 4-dimensional groups
        are resolved only to the noise over the gap, which fails
        ``check_tol``; they merge into one group, the pair itself on the
        identity basis, and the work list still finds both twists inside
        it.
        """
        spec = [Dim4(1.0, 2.0, 1.0), Dim4(1.0, 2.0, 1.0 + 3e-6)]
        doc = generate_pair(spec, seed=seed)
        rng = np.random.default_rng(100 + seed)
        d, e = (as_rotation(polar(M + 5e-10 * rng.standard_normal(M.shape)))
                for M in (doc.delta, doc.epsilon))
        G = d.matrix.T @ e.matrix
        groups = single_linkage(np.linalg.eigvalsh((G + G.T) / 2.0),
                                8 * np.finfo(float).eps / DEFAULT_TOL.residual_tol)
        clusters = _twist_clusters(d, e, DEFAULT_TOL)[0]
        assert len(clusters) < len(groups)
        assert np.array_equal(clusters[0].basis, np.eye(8))
        assert clusters[0].rotations[0] is d and clusters[0].rotations[1] is e
        for c in clusters:
            assert invariance_residual(c.basis, d, e) <= DEFAULT_TOL.check_tol
        assert labels_match(classify(d, e), ClassLabel(forms=tuple(spec)))


@st.composite
def proper_specs(draw):
    """Proper specs up to n = 64 with repeated and close twists.

    A repeated twist comes up to 8 times; close twists are 3e-8 to 1e-4
    apart next to 0.003, pi/2 or pi - 0.003; alpha and beta are either
    free or both in [0.1, 0.11], where twists hardly move <d v, e v>.
    """
    angle = (st.floats(0.1, 0.11) if draw(st.booleans())
             else st.floats(0.1, np.pi - 0.1))
    alpha, beta = draw(angle), draw(angle)
    theta = draw(st.floats(0.05, np.pi - 0.05))
    spec = [Dim4(alpha, beta, theta)] * draw(st.integers(0, 8))
    centre = draw(st.sampled_from([0.003, np.pi / 2, np.pi - 0.003]))
    gap = math.exp(draw(st.floats(math.log(3e-8), math.log(1e-4))))
    spec += [Dim4(alpha, beta, centre + k * gap) for k in range(draw(st.integers(0, 3)))]
    spec += [Dim2Proper(alpha, beta, r) for r in (1, -1)
             for _ in range(draw(st.integers(0, 4)))]
    if not spec:
        spec = [Dim4(alpha, beta, theta)]
    return spec


@st.composite
def equal_size_specs(draw):
    """Proper specs with several twist clusters of one dimension.

    Up to four ``Dim4`` blocks at distinct twists (4-dimensional
    clusters), up to two twists each shared by two ``Dim4`` blocks
    (8-dimensional clusters), and up to three planes of each orientation
    (two clusters of one size), at least two clusters in all.  Twists
    lie on a grid of step pi/16, so no two clusters merge.
    """
    alpha, beta = draw(st.floats(0.1, np.pi - 0.1)), draw(st.floats(0.1, np.pi - 0.1))
    singles, doubles = draw(st.integers(0, 4)), draw(st.integers(0, 2))
    steps = draw(st.lists(st.integers(1, 15), min_size=singles + doubles,
                          max_size=singles + doubles, unique=True))
    thetas = [k * np.pi / 16 for k in steps]
    spec = [Dim4(alpha, beta, t) for t in thetas[:singles]]
    spec += [Dim4(alpha, beta, t) for t in thetas[singles:] for _ in range(2)]
    spec += [Dim2Proper(alpha, beta, r) for r in (1, -1)
             for _ in range(draw(st.integers(0, 3)))]
    if len({(type(f), getattr(f, "theta", getattr(f, "r", None))) for f in spec}) < 2:
        spec += [Dim4(alpha, beta, np.pi / 32), Dim2Proper(alpha, beta, 1)]
    return spec


def _assert_clusters_are_groups(d, e, vectors, groups) -> dict:
    """The twist clusters of (d, e) are ``groups``, in their order: each
    is bit for bit what ``_invariance`` gives its group alone, and each
    size with two or more clusters keeps ``np.stack`` of them.  Returns
    the stacks."""
    clusters, stacks = _twist_clusters(d, e, DEFAULT_TOL)
    assert len(clusters) == len(groups)
    for c, g in zip(clusters, groups):
        resid, (R_d, R_e) = _invariance(vectors[:, g], d, e)
        assert resid <= DEFAULT_TOL.check_tol
        assert np.array_equal(c.basis, vectors[:, g])
        assert np.array_equal(c.d_restricted, R_d)
        assert np.array_equal(c.e_restricted, R_e)
    sizes = [c.dim for c in clusters]
    assert sorted(stacks) == sorted(m for m in set(sizes) if sizes.count(m) > 1)
    for m, stack in stacks.items():
        for name in ("basis", "d_restricted", "e_restricted"):
            assert np.array_equal(getattr(stack, name),
                                  np.stack([getattr(c, name) for c in clusters
                                            if c.dim == m]))
    return stacks


@settings(max_examples=40, deadline=None)
@given(spec=equal_size_specs(), seed=st.integers(0, 2**31 - 1))
def test_stacked_certification_matches_each_group(spec, seed):
    """All twist groups of one size are certified as one stack, and each
    cluster is bit for bit what ``_invariance`` gives its group alone.
    Each size with two or more clusters keeps their stack."""
    d, e = pair_rotations(generate_pair(spec, seed=seed))
    G = d.matrix.T @ e.matrix
    values, vectors = symmetric_eigen((G + G.T) / 2.0)
    groups = single_linkage(values, DEFAULT_TOL.eigenvector_gap(d.dim))[::-1]
    assert len(groups) > 1
    _assert_clusters_are_groups(d, e, vectors, groups)
    assert labels_match(classify(d, e), ClassLabel(forms=tuple(spec)))


@pytest.mark.parametrize("twists, stacked", [
    ((1.0, 1.0 + 6e-6, 2.5, 0.4), [4]),
    ((1.0, 1.0 + 6e-6, 2.5, 2.5), [8]),
], ids=["stack-of-passed", "stack-with-merged"])
def test_merged_certification_matches_each_group(twists, stacked):
    """After a merge every group is certified again, so each cluster,
    merged or not, is bit for bit what ``_invariance`` gives its group
    alone, and each stack is ``np.stack`` of its clusters.

    Under noise of 5e-10 the groups of the twists 1.0 and 1.0 + 6e-6,
    the nearest two, fail ``check_tol`` and merge into one 8-dimensional
    group.  The first input leaves two 4-dimensional groups that passed
    to stack, the second stacks the merged group with the group of its
    repeated twist.
    """
    spec = [Dim4(1.0, 2.0, t) for t in twists]
    doc = generate_pair(spec, seed=0)
    rng = np.random.default_rng(100)
    d, e = (as_rotation(polar(M + 5e-10 * rng.standard_normal(M.shape)))
            for M in (doc.delta, doc.epsilon))
    G = d.matrix.T @ e.matrix
    values, vectors = symmetric_eigen((G + G.T) / 2.0)
    groups = single_linkage(values, DEFAULT_TOL.eigenvector_gap(d.dim))
    gaps = [values[b[0]] - values[a[-1]] for a, b in zip(groups, groups[1:])]
    i = int(np.argmin(gaps))
    groups[i:i + 2] = [np.concatenate(groups[i:i + 2])]
    assert sorted(_assert_clusters_are_groups(d, e, vectors, groups[::-1])) == stacked
    assert decompose(d, e).dims == (4,) * len(spec)
    assert labels_match(classify(d, e), ClassLabel(forms=tuple(spec)))


class TestSearchOrder:
    @pytest.mark.parametrize("r", [1, -1])
    def test_plane_piece_makes_one_meet(self, monkeypatch, r):
        """A piece of planes of one orientation r tries the meet that its
        trace names first, A with C for r = +1 and with D for r = -1,
        and finds its planes there."""
        d, e = pair_rotations(generate_pair([Dim2Proper(0.7, 1.9, r)] * 3, seed=52))
        A, C = eigenplanes(d, e, DEFAULT_TOL)
        [meet] = subspace_meet(A[None], (C if r == 1 else np.conj(C))[None])
        calls = record_calls(monkeypatch, DECOMPOSE, "subspace_meet")
        [planes] = _planes_or_operator(d, e, DEFAULT_TOL)
        assert len(calls) == 1 and type(planes) is tuple
        assert len(planes) == 3
        for plane, v in zip(planes, meet.T):
            assert np.array_equal(plane, _real_plane(v))

    def test_reducible_stack_of_both_signs_keeps_labels(self, monkeypatch):
        """Reducible 4-dimensional clusters of both signs, stacked with
        ``Dim4`` clusters on both sides of twist pi/2, are decided in one
        call on the stack that certified them."""
        spec = [Dim2Proper(0.7, 1.9, r) for r in (1, -1) for _ in range(2)]
        spec += [Dim4(0.7, 1.9, t) for t in (0.6, 1.4, 2.3)]
        d, e = pair_rotations(generate_pair(spec, seed=54))
        stacks = record_calls(monkeypatch, DECOMPOSE, "_stack_answers")
        verdicts = record_calls(monkeypatch, DECOMPOSE, "is_irreducible")
        passes = []
        certify = DECOMPOSE._certified_by_size
        monkeypatch.setattr(DECOMPOSE, "_certified_by_size",
                            lambda *args: passes.append(certify(*args)) or passes[-1])
        dec = decompose(d, e)
        assert dec.dims == (2, 2, 2, 2, 4, 4, 4)
        # the stack decided is the one its certification formed, not rebuilt
        assert len(passes) == 1 and passes[0][1][4] is stacks[0][1][4]
        assert len(verdicts) == 1 and verdicts[0][0] is stacks[0][1][4]
        assert verdicts[0][0].basis.shape == (5, 20, 4)
        assert labels_match(classify(d, e), ClassLabel(forms=tuple(spec)))


class TestSearchBudget:
    @pytest.mark.parametrize("spec, clusters, searches", [
        ([Dim2Proper(0.7, 1.9, 1)] * 2, [4], 1),
        ([Dim2Proper(0.7, 1.9, 1)] * 2 + [Dim4(0.7, 1.9, 1.0)], [4, 4], 1),
        ([Dim2Proper(0.7, 1.9, r) for r in (1, 1, -1, -1)], [4, 4], 1),
        ([Dim2Proper(1e-3, 5e-4, r) for r in (1, 1, -1, -1)], [8], 2),
    ], ids=["lone-cluster", "stacked-verdict", "both-signs", "merged-remainder"])
    def test_a_reducible_four_dim_piece_is_searched_once(self, monkeypatch, spec,
                                                         clusters, searches):
        """The step that splits a 4-dimensional piece found reducible takes
        the search of its verdict, decided alone or on a stack.

        The twist values ``cos a cos b +- sin a sin b`` of the last pair lie
        within one gap, so its planes of both signs are one cluster; the
        first step takes the planes of one sign, and the reducible
        remainder is split from the search of its own verdict.
        """
        d, e = pair_rotations(generate_pair(spec, seed=55))
        assert [c.dim for c in _twist_clusters(d, e, DEFAULT_TOL)[0]] == clusters
        verdicts = record_calls(monkeypatch, DECOMPOSE, "is_irreducible")
        steps = record_calls(monkeypatch, DECOMPOSE, "find_block")
        calls = record_calls(monkeypatch, DECOMPOSE, "eigenplanes")
        dec = decompose(d, e)
        assert len(calls) == searches
        assert len(verdicts) == 1 and len(steps) == sum(f.dim == 2 for f in spec) // 2
        assert dec.dims == tuple(sorted(f.dim for f in spec))
        assert labels_match(classify(d, e), ClassLabel(forms=tuple(spec)))

    @pytest.mark.parametrize("changed", [0, 1])
    def test_a_matrix_changed_in_place_is_searched_again(self, changed):
        """A hand-built side stores the caller's writeable array, so no
        search is remembered with it, on either side of the pair."""
        doc = generate_pair([Dim4(0.7, 1.9, 1.0)], seed=56)
        pair = list(pair_rotations(doc))
        irreducible = pair[changed].matrix.copy()
        # a rotation by the changed side's angle on the other side's planes
        W, angle = pair[1 - changed].normal_form.basis, pair[changed].angle
        pair[changed] = Rotation(W @ block_diag(rot2(angle), rot2(angle)) @ W.T, angle)
        found, witness = two_plane_exists(*pair)
        assert found and invariance_residual(witness, *pair) <= DEFAULT_TOL.check_tol
        assert not witness.flags.writeable   # a remembered search hands it out again
        pair[changed].matrix[...] = irreducible
        assert two_plane_exists(*pair) == (False, None)


@settings(max_examples=60, deadline=None)
@given(spec=proper_specs(), seed=st.integers(0, 2**31 - 1))
def test_proper_spec_clusters_and_labels(spec, seed):
    d, e = pair_rotations(generate_pair(spec, seed=seed))
    clusters = _twist_clusters(d, e, DEFAULT_TOL)[0]
    assert sum(c.dim for c in clusters) == d.dim
    for c in clusters:
        assert invariance_residual(c.basis, d, e) <= 10 * DEFAULT_TOL.residual_tol
    assert labels_match(classify(d, e), ClassLabel(forms=tuple(spec)))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_compatible_spec_steps_and_labels(seed):
    """One search step per +-I pair and per size of plane cluster.

    A pair with a +-I side takes all its lines or planes in one step.
    In a proper pair all planes of one orientation r lie in one twist
    cluster and one eigenplane meet, so they come in one step, and the
    two clusters of one size other than 4 in one step on their stack;
    a 4-dimensional plane cluster is reducible and takes its own.  A
    4-block alone in its twist cluster, as every one is at distinct
    twists, takes no step: the cluster is the block.
    """
    rng = np.random.default_rng(seed)
    spec = random_compatible_spec(rng)
    d, e = pair_rotations(generate_pair(spec, seed=int(rng.integers(1 << 31))))
    with pytest.MonkeyPatch.context() as patch:
        seen = record_calls(patch, DECOMPOSE, "find_block")
        dec = decompose(d, e)
    if isinstance(spec[0], (Dim1, Dim2LeftScalar, Dim2RightScalar)):
        steps = 1
    else:
        sizes = [2 * sum(isinstance(f, Dim2Proper) and f.r == r for f in spec)
                 for r in (1, -1)]
        steps = len({m for m in sizes if m not in (0, 4)}) + sizes.count(4)
    assert len(seen) == steps
    full = np.column_stack([b.basis for b in dec.blocks])
    assert max_abs(full.T @ full - np.eye(d.dim)) <= 1e-12
    assert labels_match(classify(d, e), ClassLabel(forms=tuple(spec)))


def _assert_restrictions_match_basis(d, e, bound=1e-13):
    """Blocks and twist clusters carry their restrictions at the pair's angles."""
    clusters = _twist_clusters(d, e, DEFAULT_TOL)[0]
    for b in decompose(d, e).blocks + tuple(clusters):
        assert [r.angle for r in b.rotations] == [d.angle, e.angle]
        assert b.rotations[0].matrix is b.d_restricted
        assert b.rotations[1].matrix is b.e_restricted
        assert max_abs(b.d_restricted - b.basis.T @ d.matrix @ b.basis) <= bound
        assert max_abs(b.e_restricted - b.basis.T @ e.matrix @ b.basis) <= bound


def test_restrictions_match_the_basis_at_n96():
    # the benchmark's n=96 mix: 12 twisted 4-blocks and 12 planes of each
    # orientation, at one pair of angles
    alpha, beta = 0.9, 2.1
    spec = [Dim4(alpha, beta, 0.2 + 0.2 * k) for k in range(12)]
    spec += [Dim2Proper(alpha, beta, r) for r in (1, -1) for _ in range(12)]
    _assert_restrictions_match_basis(*pair_rotations(generate_pair(spec, seed=5)))


def test_restrictions_match_the_basis_on_compatible_specs():
    rng = np.random.default_rng(18)
    for _ in range(50):
        spec = random_compatible_spec(rng)
        doc = generate_pair(spec, seed=int(rng.integers(1 << 31)))
        _assert_restrictions_match_basis(*pair_rotations(doc))
