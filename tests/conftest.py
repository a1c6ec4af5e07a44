"""Shared helpers for the test suite."""

import sys

import numpy as np

from rotpair import (
    Dim1,
    Dim2LeftScalar,
    Dim2Proper,
    Dim2RightScalar,
    Dim4,
)


def rand_orthogonal(n, rng):
    """Random orthogonal matrix, independent of the package's generator."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) >= 0, 1.0, -1.0)


def polar(M):
    """Nearest orthogonal matrix: the polar factor of M."""
    u, _, vt = np.linalg.svd(M)
    return u @ vt


def rand_angle(rng, lo=0.1, hi=np.pi - 0.1):
    return float(rng.uniform(lo, hi))


def grid_forms(angles=(0.2, 0.9, 1.7, 2.7)):
    """Every canonical form over the standard parameter grid."""
    forms = []
    for r in (-1, 1):
        for s in (-1, 1):
            forms.append(Dim1(r=r, s=s))
    for r in (-1, 1):
        for beta in angles:
            forms.append(Dim2LeftScalar(r=r, beta=beta))
    for alpha in angles:
        for s in (-1, 1):
            forms.append(Dim2RightScalar(alpha=alpha, s=s))
    for alpha in angles:
        for beta in angles:
            for r in (-1, 1):
                forms.append(Dim2Proper(alpha=alpha, beta=beta, r=r))
    for alpha in angles:
        for beta in angles:
            for theta in angles:
                forms.append(Dim4(alpha=alpha, beta=beta, theta=theta))
    return forms


def random_compatible_spec(rng, max_blocks=4):
    """Random multiset of canonical forms whose direct sum is again a pair.

    The left components must share one angle (or one sign) and likewise
    the right components, which limits the mixes to: identical sign
    pairs, identical scalar-rotation forms, or a common-angle mix of
    plane and twisted 4-dimensional forms with free orientation and
    twist parameters.
    """
    count = int(rng.integers(1, max_blocks + 1))
    kind = rng.choice(["dim1", "left", "right", "propermix"], p=[0.1, 0.15, 0.15, 0.6])
    if kind == "dim1":
        form = Dim1(r=int(rng.choice([-1, 1])), s=int(rng.choice([-1, 1])))
        return [form] * count
    if kind == "left":
        form = Dim2LeftScalar(r=int(rng.choice([-1, 1])), beta=rand_angle(rng))
        return [form] * count
    if kind == "right":
        form = Dim2RightScalar(alpha=rand_angle(rng), s=int(rng.choice([-1, 1])))
        return [form] * count
    alpha, beta = rand_angle(rng), rand_angle(rng)
    spec = []
    for _ in range(count):
        if rng.random() < 0.5:
            spec.append(Dim2Proper(alpha=alpha, beta=beta, r=int(rng.choice([-1, 1]))))
        else:
            spec.append(Dim4(alpha=alpha, beta=beta, theta=rand_angle(rng)))
    return spec


def pair_rotations(doc):
    """Rotation pair from a generated document."""
    from rotpair import as_rotation

    return as_rotation(doc.delta), as_rotation(doc.epsilon)


def count_normal_forms(monkeypatch):
    """List that records the size of every ``orthogonal_normal_form`` call.

    Modules import the function by name, so every rotpair namespace that
    holds it is patched.
    """
    from rotpair import orthogonal

    original = orthogonal.orthogonal_normal_form
    sizes = []

    def counted(M, *args, **kwargs):
        sizes.append(np.shape(M)[0])
        return original(M, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "rotpair" or name.startswith("rotpair.")) and \
                getattr(module, "orthogonal_normal_form", None) is original:
            monkeypatch.setattr(module, "orthogonal_normal_form", counted)
    return sizes


def record_calls(monkeypatch, module, name):
    """List of the positional arguments of every call to ``module.name``.

    The attribute is replaced, through ``monkeypatch``, by a wrapper that
    appends each call's argument tuple and then calls the original, so
    only callers that look the name up in ``module`` are seen.
    """
    original = getattr(module, name)
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls
