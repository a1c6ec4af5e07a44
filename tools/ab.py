"""In-process A/B timing of this checkout's rotpair against a parent revision.

    python3 tools/ab.py --parent HEAD~1 [--seed 1] [--rounds 7]

The parent's ``src/rotpair`` is extracted with ``git archive`` into
``.bench_build/ab/<commit>/`` and imported as a second package,
``rotpair_parent`` (rotpair imports its own modules only relatively, so
the copy needs no renaming).  Both packages then run the same seeded
inputs in one process.  Compared only, untimed:

- ``classify`` of 3000 ``noisy_input`` and 300 ``boundary_input`` pairs
  of ``perfbench/workloads.py``;
- the ``build_report`` JSON, as ``rotpair classify --format json``
  prints it, of the documents of 10 ``cli_pool`` draws, of 200 small
  documents with a +-I side, and of proper documents whose twist
  clusters of one size are searched as one stack: 4 ``n96_input``
  documents, 4 ``equal_size_input`` documents at n = 32 and 100 small
  documents with planes of both signs;
- the labels and ``build_report`` JSON of inputs built to reach the
  merge of twist groups: 400 pairs with two ``Dim4`` twists 1e-7 to
  1e-4 apart, polar-projected after noise of 1e-11 to 1e-9, and 200
  clean pairs of ``Dim2Proper`` planes of both signs at angles 1e-4 to
  1e-2, whose twist values lie close.  ``merged_inputs`` gives how many
  of them this checkout's ``decompose`` merged a group on.
- the normal form of ``Q B Q^T``, as ``orthogonal_normal_form`` gives
  it with its ``block_matrix()``, and ``as_rotation`` of it, at n = 3, 8
  and 24, 10 of each kind of B: a reflection, half +1 and half -1 lines,
  rotation blocks of distinct angles, blocks of one angle, blocks with
  a +1 and a -1 line, and blocks of one angle under entrywise noise of
  1e-11; each but the first two is padded with a +1 line at odd n;
- ``as_rotation`` of 360 sides near 0 and pi: ``generate_rotation(n,
  a)`` and ``(n, pi - a)`` at n = 2, 6 and 24 and a = 1e-6 to 1e-3,
  plus ``s (G + G^T)/2`` for s = 1e-12 to 1e-10 and a standard normal
  G, five draws each.  ``near_end_raises`` gives, for each package,
  how many of them raise: in all, by the error's message up to its
  first number, and by the generator's angle.

Compared, then timed:

- ``batch_small`` and ``classify_n96``: the ops of ``perfbench`` on the
  inputs that ``perfbench/workloads.py`` draws;
- ``as_rotation`` of proper rotations, of ``+-Q Q^T`` (``+-I`` up to
  roundoff) and of split spectra (a conjugated reflection, or two
  angles), which it refuses, at n = 2, 8 and 96;
- ``classify`` of a certified pair at n = 8, 96 and 384, with n/8
  ``Dim4`` blocks and n/4 ``Dim2Proper`` planes, as ``classify_n96``
  draws at n = 96; each package certifies a fresh pair before every
  call, outside the timed call, so no call finds the label that a
  certified pair remembers from the last one;
- the same at n = 8 and 24 for pairs whose 4-dimensional twist
  clusters include reducible ones, two ``Dim2Proper`` planes of one
  sign, beside ``Dim4`` blocks: at n = 8 one such cluster and one
  ``Dim4``, at n = 24 one of each sign and four ``Dim4``s, and at
  n = 16 one of sign -1 and three ``Dim4``s;
- the same at n = 32 for pairs with several twist clusters of one
  dimension other than 4: two twists each shared by two ``Dim4``
  blocks and four ``Dim2Proper`` planes of each sign, four
  8-dimensional clusters.

Every answer is compared bit for bit: angles, normal forms, labels,
isomorphism answers, report bytes, and for an input that raises, the
error class and message.  Each answer is also compared by its verdict:
``differing_verdicts`` counts the inputs whose error class or message,
rotation kind, label (families, signs, multiplicities, or an angle more
than ``ANGLE_SLACK`` apart), isomorphism answer or report bytes differ,
and ``max_angle_difference`` is the largest gap between the angles of
rotations and labels of the inputs whose verdicts otherwise agree.
Then each timed input is run on both sides in alternating order,
``--rounds`` times.  Each input's ratio is the median change time over
the median parent time; the JSON on stdout gives the median ratio of
each case with its quartiles.  Beside it stand the two ratios that the
end-to-end metrics read, over all timings of a case, by the rules of
``perfbench/worker.py``: ``total_ratio`` of the summed op times, which
``ops_per_s`` reads, and ``tail_ratio`` of the tail op (p90 from 100
timings on), which is ``op_tail_ms``.  A median ratio near 1 can hide a
total ratio well below it when a case's slow inputs gain most.

The ``batch_small`` case is also split into its three populations by
the family of the pair's label: ``dim1`` (both sides ``+-I``),
``scalar_side`` (one side ``+-I``) and ``proper``.  ``populations``
gives each one's share of the ops, its median ratio, and the
end-to-end metric of ``perfbench`` that it sets: the ``dim1`` ops are
the fastest quarter and set none, the median op is a scalar-side one
(``op_p50_ms``), and the slowest quarter, which also takes most of the
time, is proper (``op_tail_ms`` and ``ops_per_s``).

Each case also counts, in one untimed run of each side, the calls of
the ``numpy.linalg`` functions in ``LINALG`` per op and their work per
op, given as ``[calls, work]`` under ``linalg_per_op``: the work is the
sum over calls of ``m k min(m, k) / n^3``, where m x k is the shape of
the call's matrix (times the number of stacked matrices) and n the
dimension of the op's input.  Beside it, ``steps_per_op`` gives the
eigenplane searches (``eigenplanes`` calls), the search steps
(``_planes_or_operator`` calls, a remembered search included) and
``find_block`` calls per op of the same run.  Each population of
``batch_small`` gets both counts of its own ops, under ``linalg_per_op``
and ``steps_per_op`` in its entry of ``populations``.

The exit code is 1 when any answer differs bit for bit.  This reports
direction and size of a change; it is no gate, and ``perfbench/run.py``
stays the source of the end-to-end numbers.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import gc
import importlib.util
import io
import itertools
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

# BLAS at one thread, as perfbench/run.py sets it for its children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import rotpair  # noqa: E402
from rotpair.classify import ANGLE_FIELDS  # noqa: E402
from rotpair.linalg import block_diag  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

PARENT_NAME = "rotpair_parent"
SMALL_INPUTS = 200
N96_INPUTS = 12
ROTATION_INPUTS = 40
ROTATION_DIMS = (2, 8, 96)
CLASSIFY_INPUTS = {8: 40, 96: 12, 384: 4}   # dimension -> timed pairs
REDUCIBLE_INPUTS = {8: 40, 24: 20}
MINUS_REDUCIBLE_INPUTS = {16: 20}
EQUAL_SIZE_INPUTS = {32: 20}
NOISY_INPUTS = 3000
BOUNDARY_INPUTS = 300
CLI_POOLS = 10
PM_IDENTITY_DOCS = 200
STACKED_REPORT_DOCS = {"n96": 4, "equal_sizes_n32": 4, "both_signs": 100}
MERGE_DOCS = {"close_twists": 400, "small_planes": 200}
NORMAL_FORM_DIMS = (3, 8, 24)
NORMAL_FORM_INPUTS = 10   # per kind and dimension
NEAR_END = {"dims": (2, 6, 24), "angles": (1e-6, 1e-5, 1e-4, 1e-3),
            "noise": (1e-12, 1e-11, 1e-10), "draws": 5}
ANGLE_SLACK = 1e-12   # the largest angle difference of one verdict
LINALG = ("svd", "eigh", "eigvalsh", "eig", "inv", "solve", "qr", "norm")
STEPS = ("eigenplanes", "_planes_or_operator", "find_block")   # counted in each decompose
# batch_small's populations, by the family of the label, and the metrics each sets
POPULATIONS = {"dim1": (), "scalar_side": ("op_p50_ms",),
               "proper": ("op_tail_ms", "ops_per_s")}
SCALAR_FAMILIES = {"dim1": "dim1", "dim2_left_scalar": "scalar_side",
                   "dim2_right_scalar": "scalar_side"}


def load_parent(rev: str):
    """The package at ``rev``, extracted once and imported as ``rotpair_parent``."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    dest = ROOT / ".bench_build" / "ab" / commit
    package = dest / "src" / "rotpair"
    if not (package / "__init__.py").exists():
        archive = subprocess.run(["git", "archive", commit, "src/rotpair"], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
    spec = importlib.util.spec_from_file_location(
        PARENT_NAME, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[PARENT_NAME] = module
    spec.loader.exec_module(module)
    return commit, module


def canonical(x):
    """A value that compares equal exactly when two answers agree bit for bit.

    Classes are compared by name, so answers of the two packages compare.
    """
    if isinstance(x, BaseException):
        return ("raised", type(x).__name__, str(x))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,
                tuple(canonical(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (tuple, list)):
        return tuple(canonical(v) for v in x)
    if isinstance(x, float):
        return float(x).hex()
    if isinstance(x, enum.Enum):
        return x.value
    return x


def answer(op, inp):
    try:
        return op(inp)
    except rotpair.RotPairError as exc:
        return exc
    except Exception as exc:  # the parent's errors are other classes
        if type(exc).__module__.startswith(PARENT_NAME):
            return exc
        raise


def verdict(x, angles: list):
    """The part of an answer that two verdicts share exactly.

    The angles of rotations, normal forms and label forms are left out
    and appended to ``angles`` in order; a rotation is its kind, a normal
    form its block counts, a label form its family and signs, an array
    its shape, and any other answer (a bool, report bytes) is kept whole.
    """
    if isinstance(x, BaseException):
        return ("raised", type(x).__name__, str(x))
    if isinstance(x, (tuple, list)):
        return tuple(verdict(v, angles) for v in x)
    name = type(x).__name__
    if name == "Rotation":
        angles.append(x.angle)
        return (name, x.kind.value)
    if name == "NormalForm":
        angles.extend(x.angles)
        return (name, len(x.angles), x.fix_dim, x.neg_dim)
    if isinstance(x, np.ndarray):   # a basis or block matrix: the angles decide
        return ("array", x.shape)
    if name == "ClassLabel":
        return (name, verdict(x.forms, angles))
    if dataclasses.is_dataclass(x):   # a canonical form
        fields = [f.name for f in dataclasses.fields(x)]
        angles.extend(getattr(x, f) for f in fields if f in ANGLE_FIELDS)
        return (name, tuple((f, getattr(x, f)) for f in fields if f not in ANGLE_FIELDS))
    return x


# ops, each for either package -------------------------------------------------

def small_op(pkg):
    def op(inp):
        doc, partner, _ = inp
        d, e = pkg.as_rotation(doc.delta), pkg.as_rotation(doc.epsilon)
        label = pkg.classify(d, e)
        d2, e2 = pkg.as_rotation(partner.delta), pkg.as_rotation(partner.epsilon)
        return label, pkg.isomorphic((d, e), (d2, e2))
    return op


def doc_op(pkg):
    def op(doc):
        return pkg.classify(pkg.as_rotation(doc.delta), pkg.as_rotation(doc.epsilon))
    return op


def report_op(pkg):
    def op(doc):
        d, e = pkg.as_rotation(doc.delta), pkg.as_rotation(doc.epsilon)
        return json.dumps(pkg.build_report(d, e), indent=2, sort_keys=True)
    return op


def certified_op(pkg):
    """``classify`` of a document's pair, certified afresh by ``op.prepare``."""
    def op(pair):
        return pkg.classify(*pair)
    op.prepare = lambda doc: (pkg.as_rotation(doc.delta), pkg.as_rotation(doc.epsilon))
    return op


def prepared(op, inp):
    """What ``op`` takes for ``inp``: ``op.prepare(inp)`` where the op has
    one, work that is neither timed nor counted, else ``inp`` itself."""
    prepare = getattr(op, "prepare", None)
    return inp if prepare is None else prepare(inp)


def dimension(inp) -> int:
    """The dimension of an input: a matrix's, a document's, or its first part's."""
    if isinstance(inp, tuple):
        return dimension(inp[0])
    if isinstance(inp, np.ndarray):
        return inp.shape[0]
    return inp.n


def rotation_op(pkg):
    return pkg.as_rotation


def sized_input(n: int, rng):
    """n/8 ``Dim4`` blocks and n/4 ``Dim2Proper`` planes, half of each sign."""
    alpha, beta = rng.uniform(workloads.ANGLE_LO, workloads.ANGLE_HI, size=2)
    spec = [rotpair.Dim4(float(alpha), float(beta),
                         float(rng.uniform(workloads.THETA_MARGIN,
                                           np.pi - workloads.THETA_MARGIN)))
            for _ in range(n // 8)]
    spec += [rotpair.Dim2Proper(float(alpha), float(beta), r)
             for r in (1, -1) for _ in range(n // 8)]
    return rotpair.generate_pair(spec, int(rng.integers(2**31)))


def reducible_input(n: int, rng):
    """Two ``Dim2Proper`` planes of one sign per reducible 4-dimensional
    twist cluster, one sign drawn at n = 8 and both signs above, and
    ``Dim4`` blocks in the rest."""
    alpha, beta = rng.uniform(workloads.ANGLE_LO, workloads.ANGLE_HI, size=2)
    signs = [int(rng.choice((-1, 1)))] if n == 8 else [1, -1]
    spec = [rotpair.Dim2Proper(float(alpha), float(beta), r) for r in signs for _ in range(2)]
    spec += [rotpair.Dim4(float(alpha), float(beta),
                          float(rng.uniform(workloads.THETA_MARGIN,
                                            np.pi - workloads.THETA_MARGIN)))
             for _ in range((n - 4 * len(signs)) // 4)]
    return rotpair.generate_pair(spec, int(rng.integers(2**31)))


def minus_reducible_input(n: int, rng):
    """Two ``Dim2Proper`` planes of sign -1, one reducible 4-dimensional
    twist cluster, and ``Dim4`` blocks in the rest."""
    alpha, beta = rng.uniform(workloads.ANGLE_LO, workloads.ANGLE_HI, size=2)
    spec = [rotpair.Dim2Proper(float(alpha), float(beta), -1)] * 2
    spec += [rotpair.Dim4(float(alpha), float(beta),
                          float(rng.uniform(workloads.THETA_MARGIN,
                                            np.pi - workloads.THETA_MARGIN)))
             for _ in range((n - 4) // 4)]
    return rotpair.generate_pair(spec, int(rng.integers(2**31)))


def equal_size_input(n: int, rng):
    """n/16 twists each shared by two ``Dim4`` blocks and n/8
    ``Dim2Proper`` planes of each sign: two n/4-dimensional plane
    clusters and n/16 8-dimensional ``Dim4`` clusters, four clusters of
    one size at n = 32."""
    alpha, beta = rng.uniform(workloads.ANGLE_LO, workloads.ANGLE_HI, size=2)
    thetas = rng.uniform(workloads.THETA_MARGIN, np.pi - workloads.THETA_MARGIN,
                         size=n // 16)
    spec = [rotpair.Dim4(float(alpha), float(beta), float(t)) for t in thetas for _ in range(2)]
    spec += [rotpair.Dim2Proper(float(alpha), float(beta), r)
             for r in (1, -1) for _ in range(n // 8)]
    return rotpair.generate_pair(spec, int(rng.integers(2**31)))


def pm_identity_doc(rng):
    """A ``small_spec`` document of a kind with a +-I side."""
    spec = workloads.small_spec(rng)
    while isinstance(spec[0], (rotpair.Dim2Proper, rotpair.Dim4)):
        spec = workloads.small_spec(rng)
    return rotpair.generate_pair(spec, int(rng.integers(2**31)))


def both_signs_doc(rng):
    """A ``small_spec`` document of Dim2Proper planes of both signs,
    beside ``Dim4`` blocks or not."""
    spec = workloads.small_spec(rng)
    while len({f.r for f in spec if isinstance(f, rotpair.Dim2Proper)}) < 2:
        spec = workloads.small_spec(rng)
    return rotpair.generate_pair(spec, int(rng.integers(2**31)))


def stacked_report_docs(seed: int) -> list:
    """Proper documents whose plane clusters of one size are searched as one stack."""
    rng = np.random.default_rng([seed, 12])
    counts = STACKED_REPORT_DOCS
    return ([workloads.n96_input(rng) for _ in range(counts["n96"])]
            + [equal_size_input(32, rng) for _ in range(counts["equal_sizes_n32"])]
            + [both_signs_doc(rng) for _ in range(counts["both_signs"])])


def log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def close_twists_doc(rng):
    """Two ``Dim4`` twists 1e-7 to 1e-4 apart, up to two more ``Dim4``
    blocks and up to one ``Dim2Proper`` plane of each sign, polar-projected
    after noise of 1e-11 to 1e-9: the groups of the two close twists can
    fail their invariance check and merge."""
    alpha, beta = rng.uniform(workloads.ANGLE_LO, workloads.ANGLE_HI, size=2)
    theta = rng.uniform(workloads.THETA_MARGIN, np.pi - workloads.THETA_MARGIN - 1e-4)
    thetas = [theta, theta + log_uniform(rng, 1e-7, 1e-4)]
    thetas += rng.uniform(workloads.THETA_MARGIN, np.pi - workloads.THETA_MARGIN,
                          size=rng.integers(0, 3)).tolist()
    spec = [rotpair.Dim4(float(alpha), float(beta), float(t)) for t in thetas]
    spec += [rotpair.Dim2Proper(float(alpha), float(beta), r) for r in (1, -1)
             for _ in range(rng.integers(0, 2))]
    doc = rotpair.generate_pair(spec, int(rng.integers(2**31)))
    scale = log_uniform(rng, 1e-11, 1e-9)
    delta, epsilon = (workloads._polar(M + scale * rng.standard_normal(M.shape))
                      for M in (doc.delta, doc.epsilon))
    return rotpair.PairDocument(n=doc.n, delta=delta, epsilon=epsilon,
                                metadata=doc.metadata)


def small_planes_doc(rng):
    """Clean ``Dim2Proper`` planes of both signs at angles 1e-4 to 1e-2,
    beside a ``Dim4`` block or not: all twist values lie within
    ``2 sin a sin b`` of each other."""
    alpha, beta = log_uniform(rng, 1e-4, 1e-2), log_uniform(rng, 1e-4, 1e-2)
    spec = [rotpair.Dim2Proper(alpha, beta, r) for r in (1, -1)
            for _ in range(rng.integers(1, 3))]
    spec += [rotpair.Dim4(alpha, beta, float(rng.uniform(0.5, 2.5)))
             for _ in range(rng.integers(0, 2))]
    return rotpair.generate_pair(spec, int(rng.integers(2**31)))


def merge_docs(seed: int) -> list:
    """Documents built to reach the merge of twist groups (module docstring)."""
    rng = np.random.default_rng([seed, 13])
    return ([close_twists_doc(rng) for _ in range(MERGE_DOCS["close_twists"])]
            + [small_planes_doc(rng) for _ in range(MERGE_DOCS["small_planes"])])


def label_report_op(pkg):
    """A document's label and its report, each or its error."""
    label, report = doc_op(pkg), report_op(pkg)

    def op(doc):
        return answer(label, doc), answer(report, doc)
    return op


def merged_inputs(op, inputs) -> int:
    """The inputs on which ``op`` runs a ``_twist_clusters`` of this
    checkout that returns fewer clusters than ``single_linkage`` gave
    groups, so at least one group merged."""
    module = sys.modules["rotpair.decompose"]
    link, clusters = module.single_linkage, module._twist_clusters
    groups, merged = [], []

    def grouped(*args):
        found = link(*args)
        groups.append(len(found))
        return found

    def clustered(*args):
        found = clusters(*args)
        merged.append(len(found[0]) < groups[-1])
        return found

    count = 0
    module.single_linkage, module._twist_clusters = grouped, clustered
    try:
        for x in inputs:
            merged.clear()
            answer(op, x)
            count += any(merged)
    finally:
        module.single_linkage, module._twist_clusters = link, clusters
    return count


def normal_form_op(pkg):
    """A matrix's normal form with its block matrix, and its rotation,
    each or its error."""
    def form(M):
        nf = pkg.orthogonal_normal_form(M)
        return nf, nf.block_matrix()

    def op(M):
        return answer(form, M), answer(pkg.as_rotation, M)
    return op


def normal_form_input(kind: str, n: int, rng) -> np.ndarray:
    """``Q B Q^T`` for a random orthogonal Q and a B of ``kind`` (module docstring)."""
    angles = rng.uniform(0.1, np.pi - 0.1, size=n // 2)
    pad = [1.0] * (n % 2)
    blocks, lines = {
        "reflection": ([], [1.0] * (n - 1) + [-1.0]),
        "half_signs": ([], [1.0] * (n // 2) + [-1.0] * (n - n // 2)),
        "distinct_angles": (angles, pad),
        "one_angle": ([angles[0]] * (n // 2), pad),
        "signed_lines": (angles[:(n - 2) // 2], pad + [1.0, -1.0]),
        "noisy_angle": ([angles[0]] * (n // 2), pad),
    }[kind]
    B = np.diag([0.0] * (2 * len(blocks)) + lines)
    for i, a in enumerate(blocks):
        B[2 * i:2 * i + 2, 2 * i:2 * i + 2] = rotpair.rot2(a)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    M = Q @ B @ Q.T
    return M + 1e-11 * rng.standard_normal((n, n)) if kind == "noisy_angle" else M


def normal_form_inputs(seed: int) -> list:
    """``NORMAL_FORM_INPUTS`` matrices of each kind at each dimension."""
    rng = np.random.default_rng([seed, 14])
    kinds = ("reflection", "half_signs", "distinct_angles", "one_angle",
             "signed_lines", "noisy_angle")
    return [normal_form_input(kind, n, rng) for n in NORMAL_FORM_DIMS
            for kind in kinds for _ in range(NORMAL_FORM_INPUTS)]


def near_end_op(pkg):
    """``as_rotation`` of a side that ``near_end_inputs`` drew."""
    def op(side):
        return pkg.as_rotation(side[1])
    return op


def near_end_inputs(seed: int) -> list:
    """Sides near 0 and pi under symmetric noise (module docstring), each
    with the name of its generator's angle."""
    rng = np.random.default_rng([seed, 15])
    out = []
    for n, a, s in itertools.product(NEAR_END["dims"], NEAR_END["angles"],
                                     NEAR_END["noise"]):
        for name, angle in ((f"{a:g}", a), (f"pi-{a:g}", math.pi - a)):
            for _ in range(NEAR_END["draws"]):
                M = rotpair.generate_rotation(n, angle, int(rng.integers(2**31))).matrix
                G = rng.standard_normal((n, n))
                out.append((name, M + s * (G + G.T) / 2))
    return out


def near_end_raises(op, inputs) -> dict:
    """How many sides ``op`` raises on (module docstring)."""
    counts = {"raised": 0, "by_error": {}, "by_angle": {}}
    for side in inputs:
        exc = answer(op, side)
        if isinstance(exc, BaseException):
            counts["raised"] += 1
            for key, value in (("by_error", re.split(r"[\d(]", str(exc))[0].strip()),
                               ("by_angle", side[0])):
                counts[key][value] = counts[key].get(value, 0) + 1
    return counts


def checks(seed: int):
    """(name, op factory, inputs) of every case that is compared, not timed."""
    noisy_rng = np.random.default_rng([seed, 4])
    boundary_rng = np.random.default_rng([seed, 5])
    pool_rng = np.random.default_rng([seed, 6])
    pm_rng = np.random.default_rng([seed, 7])
    with tempfile.TemporaryDirectory() as workdir:
        pool = [rotpair.load_pair(path) for _ in range(CLI_POOLS)
                for path, _ in workloads.cli_pool(pool_rng, workdir)]
    return [("noisy_input", doc_op,
             [workloads.noisy_input(noisy_rng) for _ in range(NOISY_INPUTS)]),
            ("boundary_input", doc_op,
             [workloads.boundary_input(boundary_rng) for _ in range(BOUNDARY_INPUTS)]),
            ("cli_pool_report", report_op, pool),
            ("pm_identity_report", report_op,
             [pm_identity_doc(pm_rng) for _ in range(PM_IDENTITY_DOCS)]),
            ("stacked_report", report_op, stacked_report_docs(seed)),
            ("merge", label_report_op, merge_docs(seed)),
            ("normal_form", normal_form_op, normal_form_inputs(seed)),
            ("near_end", near_end_op, near_end_inputs(seed))]


def cases(seed: int):
    """(name, op factory, inputs) of every timed case."""
    small_rng = np.random.default_rng([seed, 2])
    n96_rng = np.random.default_rng([seed, 1])
    out = [("batch_small", small_op,
            [workloads.small_input(small_rng) for _ in range(SMALL_INPUTS)]),
           ("classify_n96", doc_op,
            [workloads.n96_input(n96_rng) for _ in range(N96_INPUTS)])]
    rng = np.random.default_rng([seed, 3])
    for n in ROTATION_DIMS:
        proper = [rotpair.generate_rotation(n, float(rng.uniform(0.1, np.pi - 0.1)),
                                            int(rng.integers(2**31))).matrix
                  for _ in range(ROTATION_INPUTS)]
        scalar, split = [], []
        for i in range(ROTATION_INPUTS):
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            scalar.append((1.0 if i % 2 else -1.0) * (Q @ Q.T))
            if i % 2 or n == 2:
                D = np.diag([1.0] * (n - 1) + [-1.0])
            else:
                D = block_diag(*[rotpair.rot2(0.4)] * (n // 4),
                               *[rotpair.rot2(2.0)] * (n // 4))
            split.append(Q @ D @ Q.T)
        out += [(f"as_rotation_proper_n{n}", rotation_op, proper),
                (f"as_rotation_pm_identity_n{n}", rotation_op, scalar),
                (f"as_rotation_split_n{n}", rotation_op, split)]
    sized_rng = np.random.default_rng([seed, 8])
    out += [(f"classify_certified_n{n}", certified_op,
             [sized_input(n, sized_rng) for _ in range(count)])
            for n, count in CLASSIFY_INPUTS.items()]
    reducible_rng = np.random.default_rng([seed, 9])
    out += [(f"classify_reducible_n{n}", certified_op,
             [reducible_input(n, reducible_rng) for _ in range(count)])
            for n, count in REDUCIBLE_INPUTS.items()]
    minus_rng = np.random.default_rng([seed, 10])
    out += [(f"classify_reducible_minus_n{n}", certified_op,
             [minus_reducible_input(n, minus_rng) for _ in range(count)])
            for n, count in MINUS_REDUCIBLE_INPUTS.items()]
    equal_rng = np.random.default_rng([seed, 11])
    out += [(f"classify_equal_sizes_n{n}", certified_op,
             [equal_size_input(n, equal_rng) for _ in range(count)])
            for n, count in EQUAL_SIZE_INPUTS.items()]
    return out


def compare(parent_op, child_op, inputs) -> tuple:
    """Counts of inputs whose answers differ bit for bit and by verdict, and
    the largest angle difference of the inputs whose verdicts agree."""
    bits = verdicts = 0
    largest = 0.0
    for x in inputs:
        old = answer(parent_op, prepared(parent_op, x))
        new = answer(child_op, prepared(child_op, x))
        bits += canonical(old) != canonical(new)
        old_angles, new_angles = [], []
        if (verdict(old, old_angles) != verdict(new, new_angles)
                or len(old_angles) != len(new_angles)):
            verdicts += 1
            continue
        gap = max((abs(a - b) for a, b in zip(old_angles, new_angles)), default=0.0)
        verdicts += not gap <= ANGLE_SLACK
        largest = max(largest, gap)
    return bits, verdicts, largest


def timed(op, inp) -> float:
    x = prepared(op, inp)
    start = time.perf_counter()
    answer(op, x)
    return time.perf_counter() - start


def population(inp) -> str:
    """The population of a ``small_input`` draw: that of its label's family."""
    return SCALAR_FAMILIES.get(inp[0].metadata["label"][0]["family"], "proper")


def by_population(inputs, per_input: list) -> dict:
    """Share of the ops, median ratio and the metrics set, per population."""
    groups = {name: [] for name in POPULATIONS}
    for inp, ratio in zip(inputs, per_input):
        groups[population(inp)].append(ratio)
    return {name: {"share": len(r) / len(inputs),
                   "ratio_median": statistics.median(r) if r else None,
                   "sets": list(POPULATIONS[name])}
            for name, r in groups.items()}


def ratios(parent_op, child_op, inputs, rounds: int) -> tuple:
    """Per-input median time ratio (change / parent), alternating the order:
    the summary of the case, and the ratio of each input."""
    times = [([], []) for _ in inputs]
    for r in range(rounds):
        for i, inp in enumerate(inputs):
            parent_t, child_t = times[i]
            if (r + i) % 2:
                parent_t.append(timed(parent_op, inp))
                child_t.append(timed(child_op, inp))
            else:
                child_t.append(timed(child_op, inp))
                parent_t.append(timed(parent_op, inp))
    per_input = [statistics.median(c) / statistics.median(p) for p, c in times]
    q1, median, q3 = statistics.quantiles(per_input, n=4, method="inclusive")
    parent = worker.latency_metrics([t for p, _ in times for t in p])
    change = worker.latency_metrics([t for _, c in times for t in c])
    return {
        "inputs": len(inputs),
        "rounds": rounds,
        "parent_ms_median": parent["op_p50_ms"],
        "change_ms_median": change["op_p50_ms"],
        "ratio_median": median,
        "ratio_q1": q1,
        "ratio_q3": q3,
        "total_ratio": parent["ops_per_s"] / change["ops_per_s"],
        "tail_ratio": change["op_tail_ms"] / parent["op_tail_ms"],
        "tail_pct": parent["op_tail_pct"],
    }, per_input


def linalg_work(op, inputs) -> dict:
    """Calls and work per op of each ``LINALG`` function that ``op`` calls,
    over one run on ``inputs`` (see the module docstring)."""
    calls = dict.fromkeys(LINALG, 0)
    work = dict.fromkeys(LINALG, 0.0)
    per_n3 = 0.0
    originals = {name: getattr(np.linalg, name) for name in LINALG}

    def counted(name):
        def call(a, *args, **kwargs):
            shape = np.shape(a)
            m, k = shape[-2:] if len(shape) >= 2 else (shape[0] if shape else 1, 1)
            calls[name] += 1
            work[name] += int(np.prod(shape[:-2])) * m * k * min(m, k) * per_n3
            return originals[name](a, *args, **kwargs)
        return call

    args = [prepared(op, inp) for inp in inputs]
    for name in LINALG:
        setattr(np.linalg, name, counted(name))
    try:
        for inp, x in zip(inputs, args):
            per_n3 = 1.0 / dimension(inp) ** 3
            answer(op, x)
    finally:
        for name, original in originals.items():
            setattr(np.linalg, name, original)
    return {name: [calls[name] / len(inputs), work[name] / len(inputs)]
            for name in LINALG if calls[name]}


def step_counts(pkg, op, inputs) -> dict:
    """Calls per op of each function in ``STEPS``, over one run on ``inputs``;
    the package's own calls look these names up in its ``decompose`` module."""
    module = sys.modules[f"{pkg.__name__}.decompose"]
    calls = dict.fromkeys(STEPS, 0)
    originals = {name: getattr(module, name) for name in STEPS}

    def counted(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return call

    args = [prepared(op, inp) for inp in inputs]
    for name in STEPS:
        setattr(module, name, counted(name))
    try:
        for x in args:
            answer(op, x)
    finally:
        for name, original in originals.items():
            setattr(module, name, original)
    return {name: calls[name] / len(inputs) for name in STEPS}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--seed", type=int, default=1, help="seed of every input")
    p.add_argument("--rounds", type=int, default=7, help="timings per input and side")
    args = p.parse_args(argv)
    commit, parent = load_parent(args.parent)
    report = {"parent": commit, "seed": args.seed, "numpy": np.__version__,
              "compared_inputs": {}, "differing_answers": {},
              "differing_verdicts": {}, "max_angle_difference": {},
              "merged_inputs": {}, "cases": {},
              "linalg_per_op": {}, "steps_per_op": {}, "populations": {}}

    def compared(name, parent_op, child_op, inputs):
        report["compared_inputs"][name] = len(inputs)
        (report["differing_answers"][name], report["differing_verdicts"][name],
         report["max_angle_difference"][name]) = compare(parent_op, child_op, inputs)

    for name, make_op, inputs in checks(args.seed):
        compared(name, make_op(parent), make_op(rotpair), inputs)
        if name == "merge":
            report["merged_inputs"][name] = merged_inputs(make_op(rotpair), inputs)
        if name == "near_end":
            report["near_end_raises"] = {"parent": near_end_raises(make_op(parent), inputs),
                                         "change": near_end_raises(make_op(rotpair), inputs)}
    for name, make_op, inputs in cases(args.seed):
        parent_op, child_op = make_op(parent), make_op(rotpair)
        compared(name, parent_op, child_op, inputs)
        report["linalg_per_op"][name] = {
            "parent": linalg_work(parent_op, inputs),
            "change": linalg_work(child_op, inputs),
        }
        report["steps_per_op"][name] = {
            "parent": step_counts(parent, parent_op, inputs),
            "change": step_counts(rotpair, child_op, inputs),
        }
        for inp in inputs[:3]:      # warm both sides
            answer(parent_op, prepared(parent_op, inp))
            answer(child_op, prepared(child_op, inp))
        gc.collect()
        gc.disable()
        try:
            report["cases"][name], per_input = ratios(parent_op, child_op, inputs,
                                                      args.rounds)
        finally:
            gc.enable()
        if name == "batch_small":
            report["populations"][name] = by_population(inputs, per_input)
            for pop, entry in report["populations"][name].items():
                members = [inp for inp in inputs if population(inp) == pop]
                entry["linalg_per_op"] = {"parent": linalg_work(parent_op, members),
                                          "change": linalg_work(child_op, members)}
                entry["steps_per_op"] = {"parent": step_counts(parent, parent_op, members),
                                         "change": step_counts(rotpair, child_op, members)}
    print(json.dumps(report, indent=1))
    return 1 if any(report["differing_answers"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
