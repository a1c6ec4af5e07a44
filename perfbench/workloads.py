"""Seeded inputs, operations and answer checks for the three workloads.

Every call into the package goes through an attribute lookup on a
module object at call time (``api.classify``, ``cli.main``), never
through a name bound at import, so the tracer's patches are seen.

Each workload has an input maker that draws from a seeded generator
(``n96_input``, ``small_input``, or the ``cli_pool`` documents), an op
that is timed (``op(inp)``), and a check (``check(inp, out)``) that is
True when ``out`` is the right answer.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

api = importlib.import_module("rotpair")
cli = importlib.import_module("rotpair.cli")

# Inputs avoid angles within 0.1 of 0 and pi, where a rotation is
# numerically a scalar.  Twist angles within 0.05 of 0 or pi fail at the
# seed state (at n=96, NumericalFailure already near theta = 2e-3), and
# the timed streams must not fail, so they stay clear of the boundary;
# ``boundary_input`` feeds that defect to a probe of its own.
ANGLE_LO, ANGLE_HI = 0.1, math.pi - 0.1
THETA_MARGIN = 0.05
BOUNDARY_LO, BOUNDARY_HI = 1e-8, 1e-2   # twist distance from 0 or pi
CLASSIFY_N96_DIM4 = 12          # 12 Dim4 blocks = 48 dims
CLASSIFY_N96_DIM2_PER_SIGN = 12  # 24 Dim2Proper blocks = 48 dims
CLI_POOL_SIZE = 8
SMALL_DIMS = (2, 4, 6, 8)
NOISE_LO, NOISE_HI = 1e-14, 1e-9   # up to the default residual_tol


def _angle(rng) -> float:
    return float(rng.uniform(ANGLE_LO, ANGLE_HI))


def _theta(rng) -> float:
    return float(rng.uniform(THETA_MARGIN, math.pi - THETA_MARGIN))


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def truth_label(doc):
    """Ground-truth label from the generator's metadata."""
    forms = tuple(api.form_from_dict(f) for f in doc.metadata["label"])
    return api.ClassLabel(forms=forms)


# classify_n96 ---------------------------------------------------------------

def n96_input(rng):
    """Distinct n=96 pair: Dim4 forms plus Dim2Proper forms of both signs.

    alpha and beta are shared inside an instance and drawn afresh for
    each one; the block mix is fixed so op time varies little between
    instances.
    """
    alpha, beta = _angle(rng), _angle(rng)
    spec = [api.Dim4(alpha, beta, _theta(rng))
            for _ in range(CLASSIFY_N96_DIM4)]
    spec += [api.Dim2Proper(alpha, beta, r)
             for r in (1, -1) for _ in range(CLASSIFY_N96_DIM2_PER_SIGN)]
    return api.generate_pair(spec, _seed(rng))


def classify_op(doc):
    d = api.as_rotation(doc.delta)
    e = api.as_rotation(doc.epsilon)
    return api.classify(d, e)


def classify_check(doc, label) -> bool:
    return api.labels_match(label, truth_label(doc))


# batch_small ----------------------------------------------------------------

def small_spec(rng):
    """Jointly realizable spec at n in {2, 4, 6, 8}, one of four kinds.

    A pair rotates by one angle on each side, so the families that can
    share a pair are: Dim2Proper with Dim4 (both proper), Dim2LeftScalar
    alone, Dim2RightScalar alone, or Dim1 alone.
    """
    n = int(rng.choice(SMALL_DIMS))
    kind = int(rng.integers(4))
    alpha, beta = _angle(rng), _angle(rng)
    sign = int(rng.choice((-1, 1)))
    if kind == 0:
        n4 = int(rng.integers(n // 4 + 1))
        spec = [api.Dim4(alpha, beta, _theta(rng))
                for _ in range(n4)]
        spec += [api.Dim2Proper(alpha, beta, int(rng.choice((-1, 1))))
                 for _ in range((n - 4 * n4) // 2)]
        return spec
    if kind == 1:
        return [api.Dim2LeftScalar(sign, beta)] * (n // 2)
    if kind == 2:
        return [api.Dim2RightScalar(alpha, sign)] * (n // 2)
    return [api.Dim1(sign, int(rng.choice((-1, 1))))] * n


def _shift_theta(theta: float) -> float:
    return theta + 0.3 if theta + 0.3 < math.pi - THETA_MARGIN else theta - 0.3


def non_isomorphic_spec(spec):
    """Same dimension and families, with one invariant changed."""
    first = spec[0]
    if isinstance(first, api.Dim1):
        return [api.Dim1(f.r, -f.s) for f in spec]
    if isinstance(first, api.Dim2LeftScalar):
        return [api.Dim2LeftScalar(-f.r, f.beta) for f in spec]
    if isinstance(first, api.Dim2RightScalar):
        return [api.Dim2RightScalar(f.alpha, -f.s) for f in spec]
    out = list(spec)
    for i, f in enumerate(out):
        if isinstance(f, api.Dim2Proper):
            out[i] = api.Dim2Proper(f.alpha, f.beta, -f.r)
            return out
    out[0] = api.Dim4(first.alpha, first.beta, _shift_theta(first.theta))
    return out


def small_input(rng):
    """(pair, partner, partner is isomorphic to pair)."""
    spec = small_spec(rng)
    same = bool(rng.integers(2))
    doc = api.generate_pair(spec, _seed(rng))
    partner = api.generate_pair(spec if same else non_isomorphic_spec(spec),
                                _seed(rng))
    return doc, partner, same


def small_op(inp):
    doc, partner, _ = inp
    d = api.as_rotation(doc.delta)
    e = api.as_rotation(doc.epsilon)
    label = api.classify(d, e)
    d2 = api.as_rotation(partner.delta)
    e2 = api.as_rotation(partner.epsilon)
    return label, api.isomorphic((d, e), (d2, e2))


def small_check(inp, out) -> bool:
    doc, _, same = inp
    label, answer = out
    return api.labels_match(label, truth_label(doc)) and answer is same


def _polar(M):
    u, _, vh = np.linalg.svd(M)
    return u @ vh


def noisy_input(rng):
    """Small pair whose matrices carry log-uniform noise, then re-orthogonalized."""
    doc = api.generate_pair(small_spec(rng), _seed(rng))
    scale = math.exp(rng.uniform(math.log(NOISE_LO), math.log(NOISE_HI)))
    n = doc.n
    delta = _polar(doc.delta + scale * rng.standard_normal((n, n)))
    epsilon = _polar(doc.epsilon + scale * rng.standard_normal((n, n)))
    return api.PairDocument(n=n, delta=delta, epsilon=epsilon,
                            metadata=doc.metadata)


def boundary_input(rng):
    """n=24 pair with one Dim4 twist log-uniformly close to 0 or pi."""
    alpha, beta = _angle(rng), _angle(rng)
    gap = math.exp(rng.uniform(math.log(BOUNDARY_LO), math.log(BOUNDARY_HI)))
    near = gap if rng.integers(2) else math.pi - gap
    spec = [api.Dim4(alpha, beta, near)]
    spec += [api.Dim4(alpha, beta, _theta(rng)) for _ in range(3)]
    spec += [api.Dim2Proper(alpha, beta, r) for r in (1, -1) for _ in range(2)]
    return api.generate_pair(spec, _seed(rng))


# cli_n6 ---------------------------------------------------------------------

def cli_pool(rng, workdir):
    """Pool of n=6 documents (Dim2Proper + Dim4) saved under ``workdir``.

    Returns ``[(path, truth label)]``.
    """
    pool = []
    for i in range(CLI_POOL_SIZE):
        alpha, beta = _angle(rng), _angle(rng)
        spec = [api.Dim2Proper(alpha, beta, int(rng.choice((-1, 1)))),
                api.Dim4(alpha, beta, _theta(rng))]
        doc = api.generate_pair(spec, _seed(rng))
        path = os.path.join(workdir, f"pair{i}.json")
        doc.save(path)
        pool.append((path, truth_label(doc)))
    return pool


def cli_args(path):
    return ["classify", path, "--format", "json"]


def cli_process_op(entry):
    """One CLI run in a fresh interpreter: (exit code, stdout bytes)."""
    proc = subprocess.run([sys.executable, "-m", "rotpair.cli", *cli_args(entry[0])],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          check=False)
    return proc.returncode, proc.stdout


def cli_inprocess_op(entry):
    """``rotpair.cli.main`` in this process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(cli_args(entry[0]))
    return code, buf.getvalue().encode()


class CliChecker:
    """Exit code 0, the document's label, and byte-identical repeats."""

    def __init__(self):
        self.first_stdout = {}

    def __call__(self, entry, out) -> bool:
        path, truth = entry
        code, stdout = out
        if code != 0:
            return False
        if self.first_stdout.setdefault(path, stdout) != stdout:
            return False
        forms = json.loads(stdout)["label"]
        label = api.ClassLabel(tuple(api.form_from_dict(f) for f in forms))
        return api.labels_match(label, truth)
