"""Multiplicities and isomorphism against the commutant of a pair.

For two rotation pairs (d1, e1) on V1 and (d2, e2) on V2, Hom(V1, V2)
is the null space of the linear map X -> (d2 X - X d1, e2 X - X e1),
written out with ``np.kron``.  By Schur's lemma and Frobenius's theorem
the endomorphism algebra of an irreducible real representation is R, C
or H (T. Broecker and T. tom Dieck, *Representations of Compact Lie
Groups*, GTM 98, section II.6), and Hom between non-isomorphic
irreducibles is zero.  So:

- dim End(V) = sum of m^2 d over the distinct forms of V's label, with
  multiplicities m and d = dim End of the form's family;
- V1 and V2 are isomorphic exactly when dim Hom(V1, V2) = dim End(V1)
  = dim End(V2): dim Hom(V1, V2) is the sum of m1 m2 d, and by
  Cauchy-Schwarz on the multiplicity vectors, weighted by d, it reaches
  both only when they are equal.

The oracle shares no threshold with the package: it cuts the map's
singular values at ``NULL_CUT`` and groups a label's forms at
``SAME_ANGLE``.  Limits of the draw, within which the null singular
values stay far below the cut and the nonzero ones far above it:

- n <= 12 (the map has n^4 entries);
- input error of spectral norm at most 1e-10 on each side, projected
  back onto the orthogonal matrices;
- rotation angles in [0.1, pi - 0.1];
- Dim4 twists at least ``TWIST_GAP`` = 0.05 from 0, from pi and from
  each other.  Closer twists shrink the gap of the map's spectrum; the
  equivariance test keeps the near-end coverage.

The first property is also checked on the images of each pair under the
equivariance test's maps.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import polar
from test_equivariance import MAPS
from rotpair import (
    Dim1,
    Dim2LeftScalar,
    Dim2Proper,
    Dim2RightScalar,
    Dim4,
    as_rotation,
    classify,
    generate_pair,
    isomorphic,
)

NULL_CUT = 1e-6
SAME_ANGLE = 1e-6
TWIST_GAP = 0.05
MAX_DIM = 12
MAX_NOISE = 1e-10

# dim End of each irreducible family, written out by hand.  Dim1, a
# sign on each side of a line: the reals, 1.  Dim2LeftScalar (+-I,
# rot(beta)), Dim2RightScalar (rot(alpha), +-I) and Dim2Proper
# (rot(alpha), rot(+-beta)): the 2x2 matrices that commute with a plane
# rotation, a I + b J, the complex numbers, 2.  Dim4: S and
# (T - cos(theta) S) / sin(theta) are anticommuting complex structures
# that commute with the pair, the quaternions, 4.
END_DIM = {Dim1: 1, Dim2LeftScalar: 2, Dim2RightScalar: 2, Dim2Proper: 2, Dim4: 4}

ANGLES = st.floats(0.1, math.pi - 0.1)


def hom_dim(pair1, pair2) -> int:
    """dim Hom(V1, V2): the null space of X -> (d2 X - X d1, e2 X - X e1)."""
    (d1, e1), (d2, e2) = pair1, pair2
    I1, I2 = np.eye(len(d1)), np.eye(len(d2))
    # vec(A X B) = (B^T kron A) vec(X), columns stacked
    L = np.vstack([np.kron(I1, d2) - np.kron(d1.T, I2),
                   np.kron(I1, e2) - np.kron(e1.T, I2)])
    s = np.linalg.svd(L, compute_uv=False)
    return int(np.count_nonzero(s <= NULL_CUT))   # L is tall: one value per column


def _same_form(f, g) -> bool:
    if type(f) is not type(g):
        return False
    for name in ("r", "s"):
        if getattr(f, name, 0) != getattr(g, name, 0):
            return False
    return all(abs(getattr(f, name, 0.0) - getattr(g, name, 0.0)) <= SAME_ANGLE
               for name in ("alpha", "beta", "theta"))


def end_dim(forms) -> int:
    """Sum of m^2 d over the distinct forms of a label."""
    classes = []   # [form, multiplicity]
    for f in forms:
        for c in classes:
            if _same_form(f, c[0]):
                c[1] += 1
                break
        else:
            classes.append([f, 1])
    return sum(m * m * END_DIM[type(f)] for f, m in classes)


@st.composite
def form_pools(draw):
    """Distinct irreducible forms of one family, and whether a spec may mix them.

    A pair must turn by one angle on each side, so a scalar family's
    spec repeats one form, while planes of both orientations and Dim4s
    of any twists at common angles mix.
    """
    family = draw(st.sampled_from(["dim1", "left", "right", "proper"]))
    if family == "dim1":
        return [Dim1(r=r, s=s) for r in (1, -1) for s in (1, -1)], False
    if family == "left":
        beta = draw(ANGLES)
        return [Dim2LeftScalar(r=r, beta=beta) for r in (1, -1)], False
    if family == "right":
        alpha = draw(ANGLES)
        return [Dim2RightScalar(alpha=alpha, s=s) for s in (1, -1)], False
    alpha, beta = draw(ANGLES), draw(ANGLES)
    twists = []
    for t in draw(st.lists(st.floats(TWIST_GAP, math.pi - TWIST_GAP), max_size=3)):
        if all(abs(t - u) >= TWIST_GAP for u in twists):
            twists.append(t)
    return ([Dim2Proper(alpha=alpha, beta=beta, r=r) for r in (1, -1)]
            + [Dim4(alpha=alpha, beta=beta, theta=t) for t in twists]), True


@st.composite
def multiplicities(draw, pool, mixes):
    """Multiplicities of the pool's forms in one spec of dimension 1..MAX_DIM."""
    if not mixes:
        i = draw(st.integers(0, len(pool) - 1))
        count = draw(st.integers(1, MAX_DIM // pool[i].dim))
        return [count if j == i else 0 for j in range(len(pool))]
    m = draw(st.lists(st.integers(0, 3), min_size=len(pool), max_size=len(pool)))
    if not any(m):
        m[0] = 1
    while sum(k * f.dim for k, f in zip(m, pool)) > MAX_DIM:
        m[max(range(len(m)), key=lambda j: m[j] * pool[j].dim)] -= 1
    return m


def realized(pool, m, seed, noise):
    """A conjugated pair of the spec with multiplicities m, with input error."""
    doc = generate_pair([f for k, f in zip(m, pool) for _ in range(k)], seed)
    rng = np.random.default_rng(seed)
    out = []
    for M in (doc.delta, doc.epsilon):
        G = rng.standard_normal(M.shape)
        out.append(polar(M + noise * G / np.linalg.norm(G, 2)))
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**31 - 1),
       noise=st.floats(0.0, MAX_NOISE))
def test_label_multiplicities_give_the_commutant_dimension(data, seed, noise):
    pool, mixes = data.draw(form_pools())
    m = data.draw(multiplicities(pool, mixes))
    pair = realized(pool, m, seed, noise)
    label = classify(as_rotation(pair[0]), as_rotation(pair[1]))
    assert end_dim(label.forms) == hom_dim(pair, pair)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**31 - 1),
       noise=st.floats(0.0, MAX_NOISE))
def test_images_under_the_pair_symmetries_give_the_commutant_dimension(data, seed,
                                                                      noise):
    # the maps of the equivariance test: swap, negate, transpose one or both
    pool, mixes = data.draw(form_pools())
    pair = realized(pool, data.draw(multiplicities(pool, mixes)), seed, noise)
    for act, _ in MAPS:
        image = act(*pair)
        label = classify(as_rotation(image[0]), as_rotation(image[1]))
        assert end_dim(label.forms) == hom_dim(image, image)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seeds=st.tuples(st.integers(0, 2**31 - 1),
                                       st.integers(0, 2**31 - 1)),
       noise=st.floats(0.0, MAX_NOISE), same=st.booleans())
def test_isomorphic_agrees_with_the_hom_criterion(data, seeds, noise, same):
    pool, mixes = data.draw(form_pools())
    m1 = data.draw(multiplicities(pool, mixes))
    m2 = m1 if same else data.draw(multiplicities(pool, mixes))
    pair1 = realized(pool, m1, seeds[0], noise)
    pair2 = realized(pool, m2, seeds[1], noise)
    hom = hom_dim(pair1, pair2)
    criterion = hom == hom_dim(pair1, pair1) == hom_dim(pair2, pair2)
    assert criterion == (m1 == m2)
    rotations = [tuple(as_rotation(M) for M in pair) for pair in (pair1, pair2)]
    assert isomorphic(*rotations) == criterion


@pytest.mark.parametrize("spec, want", [
    ([Dim1(1, -1)] * 3, 9),
    ([Dim2LeftScalar(-1, 0.8)] * 2, 8),
    ([Dim2Proper(0.7, 1.9, 1), Dim2Proper(0.7, 1.9, -1)], 4),
    ([Dim4(0.7, 1.9, 1.0)] * 2, 16),
    ([Dim4(0.7, 1.9, 1.0), Dim4(0.7, 1.9, 2.0), Dim2Proper(0.7, 1.9, 1)], 10),
    ([Dim4(0.7, 1.9, 1.0)] * 2 + [Dim2Proper(0.7, 1.9, -1)] * 2, 24),
], ids=["dim1", "left-scalar", "two-orientations", "dim4-twice",
        "two-twists-and-a-plane", "dim4-twice-planes-twice"])
def test_commutant_dimension_of_fixed_specs(spec, want):
    doc = generate_pair(spec, seed=12)
    pair = (doc.delta, doc.epsilon)
    assert hom_dim(pair, pair) == want
    assert end_dim(classify(as_rotation(doc.delta), as_rotation(doc.epsilon)).forms) == want
