"""Labels change by a fixed table under the symmetries of the algebra.

The automorphisms X <-> Y and X -> -X of R<X,Y> act on rotation pairs,
and so does transposing one side or both, since a rotation's transpose
turns every vector by the same angle.  Each map changes a label form by
form, as written out below by hand from the realizations of the five
families; the table shares no threshold with the package.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import polar
from rotpair import (
    ClassLabel,
    Dim1,
    Dim2LeftScalar,
    Dim2Proper,
    Dim2RightScalar,
    Dim4,
    NotOrthogonal,
    RotPairError,
    as_rotation,
    classify,
    generate_pair,
    labels_match,
)


def swapped(f):
    """(delta, epsilon) -> (epsilon, delta): the angles trade places."""
    if isinstance(f, Dim1):
        return Dim1(r=f.s, s=f.r)
    if isinstance(f, Dim2LeftScalar):
        return Dim2RightScalar(alpha=f.beta, s=f.r)
    if isinstance(f, Dim2RightScalar):
        return Dim2LeftScalar(r=f.s, beta=f.alpha)
    if isinstance(f, Dim2Proper):
        return Dim2Proper(alpha=f.beta, beta=f.alpha, r=f.r)
    return Dim4(alpha=f.beta, beta=f.alpha, theta=f.theta)


def negated_first(f):
    """(delta, epsilon) -> (-delta, epsilon): alpha -> pi - alpha, r -> -r."""
    if isinstance(f, Dim1):
        return Dim1(r=-f.r, s=f.s)
    if isinstance(f, Dim2LeftScalar):
        return Dim2LeftScalar(r=-f.r, beta=f.beta)
    if isinstance(f, Dim2RightScalar):
        return Dim2RightScalar(alpha=math.pi - f.alpha, s=f.s)
    if isinstance(f, Dim2Proper):
        return Dim2Proper(alpha=math.pi - f.alpha, beta=f.beta, r=-f.r)
    return Dim4(alpha=math.pi - f.alpha, beta=f.beta, theta=math.pi - f.theta)


def transposed_first(f):
    """(delta, epsilon) -> (delta^T, epsilon): orientation and twist flip."""
    if isinstance(f, Dim2Proper):
        return Dim2Proper(alpha=f.alpha, beta=f.beta, r=-f.r)
    if isinstance(f, Dim4):
        return Dim4(alpha=f.alpha, beta=f.beta, theta=math.pi - f.theta)
    return f


def transposed_both(f):
    """(delta, epsilon) -> (delta^T, epsilon^T): every form is kept."""
    return f


MAPS = [
    (lambda d, e: (e, d), swapped),
    (lambda d, e: (-d, e), negated_first),
    (lambda d, e: (d.T, e), transposed_first),
    (lambda d, e: (d.T, e.T), transposed_both),
]

ANGLES = st.floats(0.1, math.pi - 0.1)
# twists anywhere inside (0, pi), and down to 1e-8 from either end
TWISTS = st.one_of(
    ANGLES,
    st.floats(-8.0, -1.0).map(lambda x: 10.0 ** x),
    st.floats(-8.0, -1.0).map(lambda x: math.pi - 10.0 ** x),
)
SIGNS = st.sampled_from((-1, 1))


@st.composite
def specs(draw):
    """A realizable spec of one of the five families' mixes, n <= 12."""
    kind = draw(st.sampled_from(("dim1", "left", "right", "proper")))
    count = draw(st.integers(1, 3))
    if kind == "dim1":
        return [Dim1(r=draw(SIGNS), s=draw(SIGNS))] * count
    if kind == "left":
        return [Dim2LeftScalar(r=draw(SIGNS), beta=draw(ANGLES))] * count
    if kind == "right":
        return [Dim2RightScalar(alpha=draw(ANGLES), s=draw(SIGNS))] * count
    alpha, beta = draw(ANGLES), draw(ANGLES)
    return [draw(st.one_of(
        st.builds(Dim2Proper, st.just(alpha), st.just(beta), SIGNS),
        st.builds(Dim4, st.just(alpha), st.just(beta), TWISTS),
    )) for _ in range(count)]


def outcome(dm, em):
    """The label of the pair, or the class of the error it raises."""
    try:
        return classify(as_rotation(dm), as_rotation(em))
    except RotPairError as exc:
        return type(exc)


def noisy(M, noise, rng):
    """The orthogonal matrix nearest to M plus Gaussian noise of that scale."""
    return polar(M + noise * rng.standard_normal(M.shape))


def assert_mapped(base, image, table):
    """The image raises as the pair does, or its label is the mapped label."""
    if isinstance(base, type) or isinstance(image, type):
        assert image is base, (table.__name__, base, image)
    else:
        want = ClassLabel(forms=tuple(table(f) for f in base.forms))
        assert labels_match(image, want), (table.__name__, image, want)


@settings(max_examples=80, deadline=None)
@given(spec=specs(), seed=st.integers(0, 2**31 - 1),
       noise=st.one_of(st.just(0.0), st.floats(-14.0, -9.0).map(lambda x: 10.0 ** x)))
def test_labels_map_by_the_table(spec, seed, noise):
    doc = generate_pair(spec, seed)
    rng = np.random.default_rng(seed)
    dm, em = noisy(doc.delta, noise, rng), noisy(doc.epsilon, noise, rng)
    base = outcome(dm, em)
    for move, table in MAPS:
        image = outcome(*move(dm, em))
        # rho's verdict on a noisy 4-block may hold on one side alone;
        # see the pinned pair below
        if noise > 0 and NotOrthogonal in (base, image) and image is not base:
            continue
        assert_mapped(base, image, table)


# rho judges the quarter-turn of a noisy 4-block's restriction at
# residual_tol, and that restriction depends on the basis the search
# found, so the verdict can differ between a pair and its image
@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="rho's orthogonality verdict is basis-dependent")
def test_rho_verdict_on_a_noisy_pair_holds_on_its_transpose():
    alpha, beta, theta = 1.5681314560588429, 2.1527137243634678, 1.9358609091320567
    doc = generate_pair([Dim4(alpha, beta, theta), Dim2Proper(alpha, beta, 1)], 23)
    rng = np.random.default_rng([5, 23])
    rng.uniform(size=3)
    dm, em = noisy(doc.delta, 1e-9, rng), noisy(doc.epsilon, 1e-9, rng)
    assert_mapped(outcome(dm, em), outcome(dm.T, em), transposed_first)
