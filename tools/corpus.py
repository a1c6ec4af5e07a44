"""Named, seeded input sets, each input with its truth, and their scoreboard.

    python3 tools/corpus.py [--sets NAME ...] [--seed 1]

Every input set that ``tools/ab.py`` compares or times, and every set
that a robustness count reads, is defined here once, by its entry in
the table below: a list of ``(input, truth)`` drawn from the makers of
``perfbench/workloads.py`` and of this file.  A document's truth is the
label of its spec, from its metadata, to 12 significant digits; a
``small_input``'s, that label and whether its partner is isomorphic; a
matrix's, the angle it turns every vector by, or ``"NotARotation"`` when
it has none.  The sets of stream k draw in turn from
``default_rng([seed, k])``; the noise sets draw from fixed streams.

The scoreboard answers each input with this checkout's package, by the
op of its kind, and prints for each set ``inputs``, ``right``, ``wrong``
and ``raised``, the raises by error class and by message up to its
first number, and ``max_angle_error``, the largest gap of an answer's
angle to the truth's nearest one.  A label is right when
``labels_match`` takes it for the truth, an angle within ``SIDE_SLACK``
of its distance to 0 or pi, and a raise when its class is the truth.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import rotpair  # noqa: E402
from rotpair import Dim2Proper, Dim4  # noqa: E402
from rotpair.classify import ANGLE_FIELDS  # noqa: E402
from rotpair.linalg import block_diag  # noqa: E402
import workloads  # noqa: E402

TWIST_LO, TWIST_HI = 0.05, math.pi - 0.05
SIDE_SLACK = 1e-9   # an angle's largest error, relative to its distance to 0 or pi
NOISE_LEVELS = ("1e-10", "3e-10", "1e-9", "3e-9")
ROTATION_DIMS = (2, 8, 96)
CERTIFIED = {8: 40, 96: 12, 384: 4}   # dimension -> pairs
NORMAL_FORM_KINDS = ("reflection", "half_signs", "distinct_angles", "one_angle",
                     "signed_lines", "noisy_angle")

SETS = {}   # name -> (stream, kind, builder of the stream's sets)


def register(stream, kind: str, names, build) -> None:
    """Sets ``names``, returned in order by ``build`` from the rng of ``stream``."""
    SETS.update(dict.fromkeys(names, (stream, kind, build)))


def docs(rng, count: int, make, *args, **kwargs) -> list:
    """``count`` documents ``make(rng, ...)``, each with its truth label."""
    return [(doc, workloads.truth_label(doc))
            for doc in (make(rng, *args, **kwargs) for _ in range(count))]


def log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def is_proper(spec) -> bool:
    return isinstance(spec[0], (Dim2Proper, Dim4))


def small_doc(rng, keep=is_proper):
    """A ``small_spec`` document, its spec redrawn until ``keep`` takes it."""
    spec = workloads.small_spec(rng)
    while not keep(spec):
        spec = workloads.small_spec(rng)
    return rotpair.generate_pair(spec, workloads._seed(rng))


def noisy(doc, scale: float, rng):
    """``doc`` under noise: scale N(0, 1) on delta, then on epsilon, each polar-projected."""
    delta, epsilon = (workloads._polar(M + scale * rng.standard_normal(M.shape))
                      for M in (doc.delta, doc.epsilon))
    return rotpair.PairDocument(n=doc.n, delta=delta, epsilon=epsilon, metadata=doc.metadata)


def spec_pair(rng, twists: int, signs, repeat: int = 1, planes_first: bool = False):
    """A pair of ``Dim4`` blocks of ``twists`` drawn twists, each ``repeat``
    times, and ``Dim2Proper`` planes of ``signs`` (None: two planes of one
    drawn sign), all at one drawn alpha and beta."""
    alpha, beta = rng.uniform(workloads.ANGLE_LO, workloads.ANGLE_HI, size=2)
    signs = [int(rng.choice((-1, 1)))] * 2 if signs is None else signs
    fours = [Dim4(float(alpha), float(beta), float(t))
             for t in rng.uniform(TWIST_LO, TWIST_HI, size=twists) for _ in range(repeat)]
    planes = [Dim2Proper(float(alpha), float(beta), r) for r in signs]
    return rotpair.generate_pair(planes + fours if planes_first else fours + planes,
                                 workloads._seed(rng))


def signed(count: int) -> tuple:
    return (1,) * count + (-1,) * count


def close_twists_doc(rng):
    """Two ``Dim4`` twists 1e-7 to 1e-4 apart, up to two more ``Dim4``
    blocks and up to one ``Dim2Proper`` plane of each sign, polar-projected
    after noise of 1e-11 to 1e-9."""
    alpha, beta = rng.uniform(workloads.ANGLE_LO, workloads.ANGLE_HI, size=2)
    theta = rng.uniform(TWIST_LO, TWIST_HI - 1e-4)
    thetas = [theta, theta + log_uniform(rng, 1e-7, 1e-4)]
    thetas += rng.uniform(TWIST_LO, TWIST_HI, size=rng.integers(0, 3)).tolist()
    spec = [Dim4(float(alpha), float(beta), float(t)) for t in thetas]
    spec += [Dim2Proper(float(alpha), float(beta), r) for r in (1, -1)
             for _ in range(rng.integers(0, 2))]
    return noisy(rotpair.generate_pair(spec, workloads._seed(rng)),
                 log_uniform(rng, 1e-11, 1e-9), rng)


def small_planes_doc(rng):
    """Clean ``Dim2Proper`` planes of both signs at angles 1e-4 to 1e-2,
    beside a ``Dim4`` block or not: all twist values lie within
    ``2 sin a sin b`` of each other."""
    alpha, beta = log_uniform(rng, 1e-4, 1e-2), log_uniform(rng, 1e-4, 1e-2)
    spec = [Dim2Proper(alpha, beta, r) for r in (1, -1) for _ in range(rng.integers(1, 3))]
    spec += [Dim4(alpha, beta, float(rng.uniform(0.5, 2.5)))
             for _ in range(rng.integers(0, 2))]
    return rotpair.generate_pair(spec, workloads._seed(rng))


def clean_doc(rng):
    """A pair of one of ``small_spec``'s four kinds at an even n up to 24."""
    n, kind = 2 * int(rng.integers(1, 13)), int(rng.integers(4))
    if kind == 0:
        twists = int(rng.integers(n // 4 + 1))
        return spec_pair(rng, twists, rng.choice((-1, 1), size=n // 2 - 2 * twists).tolist())
    alpha, beta = (float(a) for a in rng.uniform(workloads.ANGLE_LO, workloads.ANGLE_HI, size=2))
    r, s = (int(x) for x in rng.choice((-1, 1), size=2))
    spec = {1: [rotpair.Dim2LeftScalar(r, beta)] * (n // 2),
            2: [rotpair.Dim2RightScalar(alpha, s)] * (n // 2), 3: [rotpair.Dim1(r, s)] * n}
    return rotpair.generate_pair(spec[kind], workloads._seed(rng))


def normal_form_input(kind: str, n: int, rng) -> tuple:
    """``Q B Q^T`` for a random orthogonal Q, with its truth, for a B of
    ``kind``: a reflection, half +1 and half -1 lines, rotation blocks of
    distinct angles, blocks of one angle, blocks beside a +1 and a -1 line,
    or blocks of one angle under entrywise noise of 1e-11; each but the
    first two is padded with a +1 line at odd n."""
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
    if kind == "noisy_angle":
        M = M + 1e-11 * rng.standard_normal((n, n))
    single = kind in ("one_angle", "noisy_angle") and not lines
    return M, float(angles[0]) if single else "NotARotation"


def near_end_sides(rng) -> list:
    """``generate_rotation(n, a)`` and ``(n, pi - a)`` plus ``s (G + G^T)/2``,
    for a standard normal G, five draws of each n, a and s."""
    out = []
    for n, a, s in itertools.product((2, 6, 24), (1e-6, 1e-5, 1e-4, 1e-3),
                                     (1e-12, 1e-11, 1e-10)):
        for angle in (a, math.pi - a):
            for _ in range(5):
                M = rotpair.generate_rotation(n, angle, workloads._seed(rng)).matrix
                G = rng.standard_normal((n, n))
                out.append((M + s * (G + G.T) / 2, angle))
    return [out]


def switch_sides(rng) -> list:
    """``generate_rotation(n, a)`` at each n of ``ROTATION_DIMS``, ten each
    below and above pi/6 and 5 pi/6, where a one-cluster side switches its
    read, by 1e-9 to 1e-3, log-uniform."""
    out = []
    for n, switch, side in itertools.product(ROTATION_DIMS, (math.pi / 6, 5 * math.pi / 6),
                                             (-1.0, 1.0)):
        for _ in range(10):
            angle = switch + side * log_uniform(rng, 1e-9, 1e-3)
            out.append((rotpair.generate_rotation(n, angle, workloads._seed(rng)).matrix,
                        angle))
    return [out]


def rotation_sides(rng):
    """At each dimension of ``ROTATION_DIMS``, proper sides, ``+-Q Q^T``
    (``+-I`` up to roundoff), and split spectra: a conjugated reflection, or
    two angles."""
    for n in ROTATION_DIMS:
        proper = []
        for _ in range(40):
            angle = float(rng.uniform(0.1, np.pi - 0.1))
            proper.append((rotpair.generate_rotation(n, angle, workloads._seed(rng)).matrix,
                           angle))
        Qs = [np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(40)]
        reflection = np.diag([1.0] * (n - 1) + [-1.0])
        two_angles = reflection if n == 2 else block_diag(*[rotpair.rot2(0.4)] * (n // 4),
                                                          *[rotpair.rot2(2.0)] * (n // 4))
        yield proper
        yield [((1.0 if i % 2 else -1.0) * (Q @ Q.T), 0.0 if i % 2 else math.pi)
               for i, Q in enumerate(Qs)]
        yield [(Q @ (reflection if i % 2 else two_angles) @ Q.T, "NotARotation")
               for i, Q in enumerate(Qs)]


def cli_pool_docs(rng) -> list:
    """The documents of 10 ``cli_pool`` draws, saved and loaded."""
    with tempfile.TemporaryDirectory() as workdir:
        return [[(rotpair.load_pair(path), truth) for _ in range(10)
                 for path, truth in workloads.cli_pool(rng, workdir)]]


def noise_set(scale: float, keep):
    return lambda rng: [docs(rng, 300, lambda rng: noisy(small_doc(rng, keep), scale, rng))]


# noise_all@s, noise_proper@s: 300 small_spec pairs of every kind, or redrawn until
# proper, each made noisy at scale s; level i draws from [42, i] or [43, i], whatever the seed
for _base, _which, _keep in ((42, "all", lambda spec: True), (43, "proper", is_proper)):
    for _i, _s in enumerate(NOISE_LEVELS):
        register((_base, _i), "label", [f"noise_{_which}@{_s}"], noise_set(float(_s), _keep))
register(4, "label", ["noisy_input"], lambda rng: [docs(rng, 3000, workloads.noisy_input)])
register(5, "label", ["boundary"], lambda rng: [docs(rng, 300, workloads.boundary_input)])
register(6, "label", ["cli_pool_report"], cli_pool_docs)
register(7, "label", ["pm_identity_report"],   # small_spec pairs with a +-I side
         lambda rng: [docs(rng, 200, small_doc, lambda spec: not is_proper(spec))])
# proper pairs whose twist clusters of one size form stacks
register(12, "label", ["stacked_report"], lambda rng: [
    docs(rng, 4, workloads.n96_input) + docs(rng, 4, spec_pair, 2, signed(4), repeat=2)
    + docs(rng, 100, small_doc,
           lambda spec: {f.r for f in spec if isinstance(f, Dim2Proper)} == {1, -1})])
# pairs that reach the merge of twist groups
register(13, "label", ["merge"],
         lambda rng: [docs(rng, 400, close_twists_doc) + docs(rng, 200, small_planes_doc)])
register(14, "side", ["normal_form"], lambda rng: [[
    normal_form_input(kind, n, rng) for n in (3, 8, 24) for kind in NORMAL_FORM_KINDS
    for _ in range(10)]])
register(15, "side", ["near_end"], near_end_sides)
register(16, "label", ["clean"], lambda rng: [docs(rng, 300, clean_doc)])
register(17, "side", ["as_rotation_switch"], switch_sides)
register(2, "small", ["batch_small"], lambda rng: [[
    (x, (workloads.truth_label(x[0]), x[2]))
    for x in (workloads.small_input(rng) for _ in range(200))]])
register(1, "label", ["n96"], lambda rng: [docs(rng, 12, workloads.n96_input)])
register(3, "side", [f"as_rotation_{kind}_n{n}" for n in ROTATION_DIMS
                     for kind in ("proper", "pm_identity", "split")], rotation_sides)
# n/8 Dim4 blocks and n/4 Dim2Proper planes, half of each sign
register(8, "label", [f"classify_certified_n{n}" for n in CERTIFIED], lambda rng: [
    docs(rng, count, spec_pair, n // 8, signed(n // 8)) for n, count in CERTIFIED.items()])
# two planes of one sign per reducible 4-dimensional twist cluster, of a drawn
# sign at n = 8, of each sign at n = 24, of sign -1 at n = 16, beside Dim4 blocks
register(9, "label", ["classify_reducible_n8", "classify_reducible_n24"], lambda rng: [
    docs(rng, 40, spec_pair, 1, None, planes_first=True),
    docs(rng, 20, spec_pair, 4, signed(2), planes_first=True)])
register(10, "label", ["classify_reducible_minus_n16"],
         lambda rng: [docs(rng, 20, spec_pair, 3, (-1, -1), planes_first=True)])
# two twists each shared by two Dim4 blocks, and four planes of each sign
register(11, "label", ["classify_equal_sizes_n32"],
         lambda rng: [docs(rng, 20, spec_pair, 2, signed(4), repeat=2)])


def build(names, seed: int) -> dict:
    """name -> [(input, truth)] of each set in ``names``, in that order; the
    builder of each stream needed runs once, on a fresh rng of the stream."""
    built = {}
    for stream, _, builder in {SETS[name][2]: SETS[name] for name in names}.values():
        rng = np.random.default_rng(stream if isinstance(stream, tuple) else [seed, stream])
        built.update(zip([n for n, entry in SETS.items() if entry[2] is builder], builder(rng)))
    return {name: built[name] for name in names}


# the ops that answer each kind of set, for either package, and their judges ----

def doc_op(pkg):
    def op(doc):
        return pkg.classify(pkg.as_rotation(doc.delta), pkg.as_rotation(doc.epsilon))
    return op


def small_op(pkg):
    def op(inp):
        doc, partner, _ = inp
        d, e = pkg.as_rotation(doc.delta), pkg.as_rotation(doc.epsilon)
        label = pkg.classify(d, e)
        d2, e2 = pkg.as_rotation(partner.delta), pkg.as_rotation(partner.epsilon)
        return label, pkg.isomorphic((d, e), (d2, e2))
    return op


def rotation_op(pkg):
    return pkg.as_rotation


def form_gap(f, t) -> float:
    """The largest angle gap of two forms of one family and signs, else inf."""
    if type(f) is not type(t):
        return math.inf
    return max(abs(getattr(f, k) - getattr(t, k)) if k in ANGLE_FIELDS
               else 0.0 if getattr(f, k) == getattr(t, k) else math.inf
               for k in f.__dataclass_fields__)


def judge_label(label, truth) -> tuple:
    """Whether ``label`` matches the truth, and the gap of its farthest form
    to the nearest truth form of its family and signs (None if it has none)."""
    gap = max((min(form_gap(f, t) for t in truth.forms) for f in label.forms), default=0.0)
    return rotpair.labels_match(label, truth), gap if gap < math.inf else None


def judge_small(out, truth) -> tuple:
    right, gap = judge_label(out[0], truth[0])
    return right and out[1] is truth[1], gap


def judge_side(rotation, truth) -> tuple:
    if isinstance(truth, str):   # a refusal was due
        return False, None
    gap = abs(rotation.angle - truth)
    return gap <= SIDE_SLACK * min(truth, math.pi - truth), gap


KINDS = {"label": (doc_op, judge_label), "small": (small_op, judge_small),
         "side": (rotation_op, judge_side)}   # kind -> (op of a package, judge)


def score(name: str, items, pkg=rotpair) -> dict:
    """The scoreboard of set ``name``'s ``items``, answered by ``pkg``."""
    make_op, judge = KINDS[SETS[name][1]]
    op = make_op(pkg)
    board = {"inputs": len(items), "right": 0, "wrong": 0, "raised": 0,
             "raised_by_class": collections.Counter(),
             "raised_by_message": collections.Counter(), "max_angle_error": 0.0}
    for x, truth in items:
        try:
            right, gap = judge(op(x), truth)
        except pkg.RotPairError as exc:   # right where a refusal is the truth
            right, gap = type(exc).__name__ == truth, None
            if not right:
                board["raised"] += 1
                board["raised_by_class"][type(exc).__name__] += 1
                board["raised_by_message"][re.split(r"[\d(]", str(exc))[0].strip()] += 1
                continue
        board["right" if right else "wrong"] += 1
        board["max_angle_error"] = max(board["max_angle_error"], gap or 0.0)
    return board


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sets", nargs="+", choices=SETS, default=list(SETS), metavar="NAME",
                   help="sets to score (default: all)")
    p.add_argument("--seed", type=int, default=1, help="seed of every set but noise_*")
    args = p.parse_args(argv)
    built = build(args.sets, args.seed)
    print(json.dumps({name: score(name, items) for name, items in built.items()}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
