"""In-process A/B timing of this checkout's rotpair against a parent revision.

    python3 tools/ab.py --parent HEAD~1 [--seed 1] [--rounds 7]

The parent's ``src/rotpair`` is extracted with ``git archive`` into
``.bench_build/ab/<commit>/`` and imported as a second package,
``rotpair_parent`` (rotpair imports its own modules only relatively, so
the copy needs no renaming).  Both packages then answer the sets of
``tools/corpus.py`` in one process, each set by its op: the sets in
``CHECKED`` are compared only, those in ``TIMED`` compared, then timed.
A certified pair's op certifies it afresh before every call, outside
the timed call, so no call finds the label that a certified pair
remembers from the last one.  ``merged_inputs`` counts the ``merge``
inputs on which this checkout's ``decompose`` merged a twist group, and
``scoreboard`` holds the corpus's tally of each set in ``SCORED`` for
each package: ``near_end``, and ``as_rotation_switch``, the sides on
either side of the angles where a certified side switches its read.

Every answer is compared bit for bit: angles, normal forms, labels,
isomorphism answers, report bytes, and for an input that raises, the
error class and message.  Each answer is also compared by its verdict:
``differing_verdicts`` counts the inputs whose error class or message,
rotation kind, label (families, signs, multiplicities, or an angle more
than ``ANGLE_SLACK`` apart), isomorphism answer or report bytes differ,
and ``max_angle_difference`` is the largest gap between the angles of
rotations and labels of the inputs whose verdicts otherwise agree.

Then each timed input is run on both sides in alternating order,
``--rounds`` times.  Each input's ratio is its median change time over
its median parent time; each case gives the median ratio with its
quartiles, and the two ratios that the end-to-end metrics read, over
all its timings, by the rules of ``perfbench/worker.py``:
``total_ratio`` of the summed op times (``ops_per_s``) and
``tail_ratio`` of the tail op (``op_tail_ms``).  A median ratio near 1
can hide a total ratio well below it when the slow inputs gain most.
``populations`` splits ``batch_small`` by the family of the label, as
``POPULATIONS`` with the metrics that each one's ops set.

Each case, and each population, also counts in one untimed run of each
side, per op, the calls of the ``numpy.linalg`` functions in ``LINALG``
with their work, ``m k min(m, k) / n^3`` summed over calls on an m x k
matrix (times the stacked matrices) for an input of dimension n, under
``linalg_per_op``, and the calls of the ``decompose`` functions in
``STEPS`` under ``steps_per_op``.

The exit code is 1 when any answer differs bit for bit.  This reports
direction and size of a change; it is no gate, and ``perfbench/run.py``
stays the source of the end-to-end numbers.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import enum
import gc
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import time
from unittest import mock

# BLAS at one thread, as perfbench/run.py sets it for its children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import corpus  # noqa: E402  (it puts src/ and perfbench/ on the path)
from corpus import ROOT, doc_op, rotation_op, small_op  # noqa: E402
import rotpair  # noqa: E402
from rotpair.classify import ANGLE_FIELDS  # noqa: E402
import worker  # noqa: E402

PARENT_NAME = "rotpair_parent"
ANGLE_SLACK = 1e-12   # the largest angle difference of one verdict
SCORED = ("near_end", "as_rotation_switch")   # the sets scored against their truth too
LINALG = ("svd", "eigh", "eigvalsh", "eig", "inv", "solve", "qr", "norm")
STEPS = ("eigenplanes", "_planes_or_operator", "find_block")   # counted in each decompose
# batch_small's populations, by the family of the label, and the metrics each sets:
# both sides +-I, the fastest quarter; one side +-I, the median op; proper, the
# slowest quarter and most of the time
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


def class_name(x) -> str:
    """The name of ``x``'s class, or of its first public base for a private one."""
    return next(c.__name__ for c in type(x).__mro__ if not c.__name__.startswith("_"))


def canonical(x):
    """A value that compares equal exactly when two answers agree bit for bit.

    Classes are compared by ``class_name``, so answers of the two packages
    compare, whichever private subclass either builds.
    """
    if isinstance(x, BaseException):
        return ("raised", type(x).__name__, str(x))
    if dataclasses.is_dataclass(x):
        return (class_name(x),
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
    except Exception as exc:  # the parent's errors are other classes
        if isinstance(exc, rotpair.RotPairError) or type(exc).__module__.startswith(PARENT_NAME):
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
    name = class_name(x)
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


# ops, each for either package, beside the corpus's ------------------------------

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
    """``op.prepare(inp)``, work neither timed nor counted, else ``inp``."""
    prepare = getattr(op, "prepare", None)
    return inp if prepare is None else prepare(inp)


def dimension(inp) -> int:
    """The dimension of an input: a matrix's, a document's, or its first part's."""
    if isinstance(inp, tuple):
        return dimension(inp[0])
    if isinstance(inp, np.ndarray):
        return inp.shape[0]
    return inp.n


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
    with mock.patch.multiple(module, single_linkage=grouped, _twist_clusters=clustered):
        for x in inputs:
            merged.clear()
            answer(op, x)
            count += any(merged)
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


# the corpus sets compared only, and those compared then timed, with the op of each
CHECKED = {"noisy_input": doc_op, "boundary": doc_op, "cli_pool_report": report_op,
           "pm_identity_report": report_op, "stacked_report": report_op,
           "merge": label_report_op, "normal_form": normal_form_op, "near_end": rotation_op}
TIMED = {"batch_small": small_op, "n96": doc_op,
         **{name: rotation_op for name in corpus.SETS if name.startswith("as_rotation_")},
         **{name: certified_op for name in corpus.SETS if name.startswith("classify_")}}


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


def call_counts(module, names, op, inputs, weigh=None) -> dict:
    """Calls per op of each of ``module``'s functions ``names`` over one run
    of ``op`` on ``inputs``; with ``weigh``, ``[calls, work]`` per op of each
    one called, its work the sum of ``weigh`` of each call's first argument
    over the cube of the dimension of the op's input."""
    calls, work = dict.fromkeys(names, 0), dict.fromkeys(names, 0.0)
    per_n3 = 0.0
    originals = {name: getattr(module, name) for name in names}

    def counted(name):
        def call(*args, **kwargs):
            calls[name] += 1
            if weigh is not None:
                work[name] += weigh(args[0]) * per_n3
            return originals[name](*args, **kwargs)
        return call

    args = [prepared(op, inp) for inp in inputs]
    with mock.patch.multiple(module, **{name: counted(name) for name in names}):
        for inp, x in zip(inputs, args):
            per_n3 = 1.0 / dimension(inp) ** 3
            answer(op, x)
    if weigh is None:
        return {name: calls[name] / len(inputs) for name in names}
    return {name: [calls[name] / len(inputs), work[name] / len(inputs)]
            for name in names if calls[name]}


def matrix_work(a) -> int:
    """``m k min(m, k)`` of an m x k matrix, times the number of stacked matrices."""
    shape = np.shape(a)
    m, k = shape[-2:] if len(shape) >= 2 else (shape[0] if shape else 1, 1)
    return int(np.prod(shape[:-2])) * m * k * min(m, k)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--seed", type=int, default=1, help="seed of every input")
    p.add_argument("--rounds", type=int, default=7, help="timings per input and side")
    args = p.parse_args(argv)
    commit, parent = load_parent(args.parent)
    report = collections.defaultdict(dict, parent=commit, seed=args.seed,
                                     numpy=np.__version__)

    def counts(parent_op, child_op, inputs) -> dict:
        sides = (("parent", parent, parent_op), ("change", rotpair, child_op))
        return {"linalg_per_op": {side: call_counts(np.linalg, LINALG, op, inputs, matrix_work)
                                  for side, _, op in sides},
                "steps_per_op": {side: call_counts(sys.modules[f"{pkg.__name__}.decompose"],
                                                   STEPS, op, inputs)
                                 for side, pkg, op in sides}}

    def compared(name, parent_op, child_op, items) -> list:
        inputs = [x for x, _ in items]
        report["compared_inputs"][name] = len(inputs)
        (report["differing_answers"][name], report["differing_verdicts"][name],
         report["max_angle_difference"][name]) = compare(parent_op, child_op, inputs)
        if name in SCORED:
            report["scoreboard"][name] = {"parent": corpus.score(name, items, parent),
                                          "change": corpus.score(name, items, rotpair)}
        return inputs

    for name, items in corpus.build(list(CHECKED), args.seed).items():
        make_op = CHECKED[name]
        inputs = compared(name, make_op(parent), make_op(rotpair), items)
        if name == "merge":
            report["merged_inputs"][name] = merged_inputs(make_op(rotpair), inputs)
    for name, items in corpus.build(list(TIMED), args.seed).items():
        parent_op, child_op = TIMED[name](parent), TIMED[name](rotpair)
        inputs = compared(name, parent_op, child_op, items)
        for key, value in counts(parent_op, child_op, inputs).items():
            report[key][name] = value
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
                entry.update(counts(parent_op, child_op,
                                    [inp for inp in inputs if population(inp) == pop]))
    print(json.dumps(report, indent=1))
    return 1 if any(report["differing_answers"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
