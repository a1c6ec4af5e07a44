"""The seeded corpus of ``tools/corpus.py`` and its use by ``tools/ab.py``, on small slices.

No raise count is pinned here: those counts are meant to fall.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from rotpair import ClassLabel

TOOLS = Path(__file__).resolve().parent.parent / "tools"
CHEAP = ["near_end", "normal_form", "classify_reducible_minus_n16", "pm_identity_report",
         "as_rotation_switch"]


@pytest.fixture(scope="module")
def corpus():
    sys.path.insert(0, str(TOOLS))
    try:
        import corpus
        yield corpus
    finally:
        sys.path.remove(str(TOOLS))


def digest(x) -> tuple:
    """The inputs and truths of a set as exact bytes and values."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (tuple, list)):
        return tuple(digest(v) for v in x)
    if hasattr(x, "delta"):
        return x.n, digest(x.delta), digest(x.epsilon), repr(x.metadata)
    return repr(x)


def test_a_set_built_twice_from_one_seed_is_bit_identical(corpus):
    first, second = corpus.build(CHEAP, 3), corpus.build(CHEAP, 3)
    assert list(first) == CHEAP
    for name in CHEAP:
        assert digest(first[name]) == digest(second[name]), name
    assert digest(corpus.build(["near_end"], 4)["near_end"]) != digest(first["near_end"])


def test_the_switch_set_straddles_both_switch_angles(corpus):
    items = corpus.build(["as_rotation_switch"], 1)["as_rotation_switch"]
    assert sorted({M.shape[0] for M, _ in items}) == list(corpus.ROTATION_DIMS)
    offsets = [a - s for _, a in items for s in (math.pi / 6, 5 * math.pi / 6)
               if abs(a - s) <= 1e-3]
    assert len(offsets) == len(items)
    assert sum(o < 0.0 for o in offsets) == sum(o > 0.0 for o in offsets) == len(items) // 2


def test_the_noise_sets_ignore_the_seed(corpus):
    one = corpus.build(["noise_proper@3e-9"], 1)["noise_proper@3e-9"][:20]
    two = corpus.build(["noise_proper@3e-9"], 2)["noise_proper@3e-9"][:20]
    assert digest(one) == digest(two)


def is_truth(kind: str, truth) -> bool:
    if kind == "label":
        return isinstance(truth, ClassLabel) and len(truth.forms) > 0
    if kind == "small":
        return is_truth("label", truth[0]) and isinstance(truth[1], bool)
    return truth == "NotARotation" or 0.0 <= truth <= math.pi


def test_every_input_carries_a_truth(corpus):
    assert {kind for _, kind, _ in corpus.SETS.values()} <= set(corpus.KINDS)
    names = CHEAP + ["batch_small", "as_rotation_split_n8", "noise_all@1e-10"]
    for name, items in corpus.build(names, 1).items():
        kind = corpus.SETS[name][1]
        assert items and all(len(item) == 2 and is_truth(kind, item[1]) for item in items), name


def test_the_scoreboard_counts_every_input_once(corpus):
    built = corpus.build(["near_end", "normal_form", "as_rotation_split_n8", "batch_small"], 1)
    raised = 0
    for name, items in built.items():
        board = corpus.score(name, items[::6])
        assert board["inputs"] == len(items[::6])
        assert board["inputs"] == board["right"] + board["wrong"] + board["raised"], name
        assert sum(board["raised_by_class"].values()) == board["raised"]
        assert sum(board["raised_by_message"].values()) == board["raised"]
        assert 0.0 <= board["max_angle_error"] < 1e-6
        raised += board["raised"]
    assert raised > 0   # the slices reach the count of raises


def test_ab_builds_its_cases_from_the_corpus(corpus):
    spec = importlib.util.spec_from_file_location("ab", TOOLS / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(TOOLS))
    try:
        spec.loader.exec_module(ab)
    finally:
        sys.path.remove(str(TOOLS))
    assert ab.corpus is corpus
    cases = list(ab.CHECKED) + list(ab.TIMED)
    assert len(set(cases)) == len(cases) and set(cases) <= set(corpus.SETS)
    assert set(ab.SCORED) <= set(cases)
    assert "default_rng" not in (TOOLS / "ab.py").read_text()
