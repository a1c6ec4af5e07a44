import contextlib
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    count_normal_forms,
    pair_rotations,
    rand_orthogonal,
    random_compatible_spec,
)
from rotpair import (
    ClassLabel,
    DegenerateLine,
    Dim1,
    Dim2LeftScalar,
    Dim2Proper,
    Dim2RightScalar,
    Dim4,
    NotARotation,
    NotOrthogonalPair,
    NotProper,
    Rotation,
    as_rotation,
    classify,
    decompose,
    find_block,
    generate_pair,
    is_irreducible,
    labels_match,
    max_abs,
    real_plane_from_complex_line,
    realize,
    rho,
    rot2,
    two_plane_exists,
    unrho,
)
from rotpair.decompose import _twist_clusters, invariance_residual
from rotpair.linalg import DEFAULT_TOL, block_diag


def proper(M):
    return as_rotation(np.asarray(M, dtype=float))


class TestRealPlaneFromComplexLine:
    def test_standard_line(self):
        v = (np.array([1.0, -1.0j, 0.0, 0.0])) / np.sqrt(2.0)
        plane = real_plane_from_complex_line(v)
        assert plane.shape == (4, 2)
        # span check: e1 and e2 both lie in the plane
        for i in (0, 1):
            x = np.zeros(4)
            x[i] = 1.0
            assert max_abs(x - plane @ (plane.T @ x)) <= 1e-12

    def test_orthonormal_output(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        plane = real_plane_from_complex_line(v)
        assert max_abs(plane.T @ plane - np.eye(2)) <= 1e-12

    def test_rejects_phase_times_real(self):
        v = np.exp(0.4j) * np.array([1.0, 2.0, -1.0])
        with pytest.raises(DegenerateLine):
            real_plane_from_complex_line(v)


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

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(NotOrthogonalPair):
            find_block(Rotation(np.eye(2), 0.0), Rotation(np.eye(3), 0.0))

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
        assert dec.ambient_dim == 3

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


@contextlib.contextmanager
def find_block_dims():
    """List of the dimensions of the spaces ``decompose`` hands ``find_block``."""
    module = importlib.import_module("rotpair.decompose")
    original = module.find_block
    seen = []

    def counted(d, e, tol=DEFAULT_TOL):
        seen.append(d.dim)
        return original(d, e, tol)

    module.find_block = counted
    try:
        yield seen
    finally:
        module.find_block = original


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
        clusters = _twist_clusters(d, e, DEFAULT_TOL)
        # descending <d v, e v>: r = +1 planes, twists ascending, r = -1 planes
        assert [c.shape[1] for c in clusters] == [24] + [4] * 12 + [24]
        full = np.column_stack(clusters)
        assert max_abs(full.T @ full - np.eye(96)) <= 1e-12
        for c in clusters:
            assert invariance_residual(c, d, e) <= 1e-9

    def test_scalar_side_is_one_cluster(self):
        d, e = pair_rotations(generate_pair([Dim2LeftScalar(r=-1, beta=0.8)] * 3,
                                            seed=42))
        clusters = _twist_clusters(d, e, DEFAULT_TOL)
        assert len(clusters) == 1 and np.array_equal(clusters[0], np.eye(6))
        assert decompose(d, e).dims == (2, 2, 2)
        lines = decompose(Rotation(np.eye(3), 0.0), Rotation(-np.eye(3), np.pi))
        assert lines.dims == (1, 1, 1)

    def test_scalar_side_is_one_step(self, monkeypatch):
        d, e = pair_rotations(generate_pair([Dim2LeftScalar(r=1, beta=0.8)] * 4,
                                            seed=45))
        sizes = count_normal_forms(monkeypatch)
        with find_block_dims() as seen:
            assert decompose(d, e).dims == (2, 2, 2, 2)
        assert seen == [8]
        assert sizes == []

    def test_peel_work_is_cubic(self, monkeypatch):
        """The peel loop works on clusters, not on the whole space.

        Peeling 36 blocks off the whole n = 96 space sums m^3 over the
        dimensions m that find_block sees to about 12 n^3; inside twist
        clusters the sum stays below n^3.  Each 4-dimensional cluster is
        one 4-block by a single irreducibility verdict, so only the two
        plane clusters, one per orientation r, take a search step.
        """
        rng = np.random.default_rng(43)
        spec = n96_spec(rng)
        d, e = pair_rotations(generate_pair(spec, seed=43))
        module = importlib.import_module("rotpair.decompose")
        original = module.find_block
        seen = []

        def counted(d, e, tol=DEFAULT_TOL):
            seen.append(d.dim)
            return original(d, e, tol)

        monkeypatch.setattr(module, "find_block", counted)
        label = classify(d, e)
        assert labels_match(label, ClassLabel(forms=tuple(spec)))
        assert len(seen) == 2
        assert sum(m ** 3 for m in seen) <= 96 ** 3


    def test_one_verdict_per_four_block(self, monkeypatch):
        """Each 4-dimensional cluster is searched once, labels included.

        One search of the n = 96 pair's two plane clusters, and one per
        Dim4 cluster for its irreducibility verdict; labelling the blocks
        searches nothing again.
        """
        rng = np.random.default_rng(46)
        spec = n96_spec(rng)
        d, e = pair_rotations(generate_pair(spec, seed=46))
        module = importlib.import_module("rotpair.decompose")
        original = module._planes_or_operator
        seen = []

        def counted(d, e, tol):
            seen.append(d.dim)
            return original(d, e, tol)

        monkeypatch.setattr(module, "_planes_or_operator", counted)
        label = classify(d, e)
        assert labels_match(label, ClassLabel(forms=tuple(spec)))
        assert sorted(seen) == [4] * 12 + [24, 24]

    def test_lone_four_block_is_its_cluster(self):
        d, e = pair_rotations(generate_pair([Dim4(0.5, 1.2, 0.8)], seed=47))
        with find_block_dims() as seen:
            dec = decompose(d, e)
        assert seen == []
        assert dec.dims == (4,)
        [cluster] = _twist_clusters(d, e, DEFAULT_TOL)
        basis = dec.blocks[0].basis
        assert max_abs(basis @ basis.T - cluster @ cluster.T) <= 1e-12
        assert invariance_residual(basis, d, e) <= 1e-9

    def test_reducible_four_dim_cluster_gives_two_planes(self):
        spec = [Dim2Proper(0.7, 1.9, 1)] * 2 + [Dim4(0.7, 1.9, 1.0)]
        d, e = pair_rotations(generate_pair(spec, seed=48))
        assert [c.shape[1] for c in _twist_clusters(d, e, DEFAULT_TOL)] == [4, 4]
        with find_block_dims() as seen:
            dec = decompose(d, e)
        assert seen == [4]
        assert dec.dims == (2, 2, 4)
        for b in dec.blocks:
            assert invariance_residual(b.basis, d, e) <= 1e-9
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


@settings(max_examples=60, deadline=None)
@given(spec=proper_specs(), seed=st.integers(0, 2**31 - 1))
def test_proper_spec_clusters_and_labels(spec, seed):
    d, e = pair_rotations(generate_pair(spec, seed=seed))
    clusters = _twist_clusters(d, e, DEFAULT_TOL)
    assert sum(c.shape[1] for c in clusters) == d.dim
    for c in clusters:
        assert invariance_residual(c, d, e) <= 10 * DEFAULT_TOL.residual_tol
    assert labels_match(classify(d, e), ClassLabel(forms=tuple(spec)))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_compatible_spec_steps_and_labels(seed):
    """One search step per +-I pair and per plane orientation.

    A pair with a +-I side takes all its lines or planes in one step.
    In a proper pair all planes of one orientation r lie in one twist
    cluster and one eigenplane meet, so they come in one step.  A
    4-block alone in its twist cluster, as every one is at distinct
    twists, takes no step: the cluster is the block.
    """
    rng = np.random.default_rng(seed)
    spec = random_compatible_spec(rng)
    d, e = pair_rotations(generate_pair(spec, seed=int(rng.integers(1 << 31))))
    with find_block_dims() as seen:
        dec = decompose(d, e)
    if isinstance(spec[0], (Dim1, Dim2LeftScalar, Dim2RightScalar)):
        steps = 1
    else:
        steps = len({f.r for f in spec if isinstance(f, Dim2Proper)})
    assert len(seen) == steps
    full = np.column_stack([b.basis for b in dec.blocks])
    assert max_abs(full.T @ full - np.eye(d.dim)) <= 1e-12
    assert labels_match(classify(d, e), ClassLabel(forms=tuple(spec)))
