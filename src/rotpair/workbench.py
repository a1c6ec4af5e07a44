"""Instance generation, JSON documents, and the sampling oracle.

File format: a pair document is a JSON object with a dimension ``n``
and two row-major ``n`` x ``n`` orthogonal matrices ``delta`` and
``epsilon``, plus free-form ``metadata``.  A report is a JSON-ready
dict that bundles the block form of both operators, the
invariant-block decomposition with recomputed residuals, and the
canonical label.  Seeds, and the oracle's sample count, are
non-negative integers; anything else raises ``BadParameter``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .classify import (
    ANGLE_FIELDS,
    FAMILIES,
    SIGN_FIELDS,
    ClassLabel,
    _check_form,
    classify_block,
    realize,
)
from .decompose import (_certify_pair, _require_proper_pair, decompose,
                        invariance_residual)
from .errors import (BadAngle, BadDimension, BadParameter, NotARotation,
                     NotOrthogonal)
from .linalg import (DEFAULT_TOL, RANK_TOL, Tolerance, block_diag, is_number,
                     orthonormality_residual, require)
from .orthogonal import NormalForm, Rotation, as_rotation, rot2


# The largest number of 12 significant digits below pi; pi itself rounds up.
_BELOW_PI_12 = 3.14159265358


def _sig12(x: float) -> float:
    """Round to 12 significant digits; stable across JSON round trips."""
    return float(f"{float(x):.12g}")


def form_to_dict(form) -> dict:
    """JSON-ready dict for a canonical form; angles at 12 significant digits.

    An angle within about 5e-12 of pi would round up to pi or past it,
    outside the (0, pi) that :func:`form_from_dict` accepts, so it is
    written as the largest 12-digit number below pi; every other angle
    is written as it rounds.
    """
    _check_form(form)
    # key order shows in unsorted JSON: signs before angles, as declared
    return {"family": form.family,
            **{f: getattr(form, f) for f in SIGN_FIELDS if hasattr(form, f)},
            **{f: min(_sig12(getattr(form, f)), _BELOW_PI_12)
               for f in ANGLE_FIELDS if hasattr(form, f)}}


def form_from_dict(obj: dict):
    """Inverse of :func:`form_to_dict`; the form checks its own fields."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise BadParameter(f"canonical form must be an object with a family: {obj!r}")
    cls = next((c for c in FAMILIES if c.family == obj["family"]), None)
    if cls is None:
        raise BadParameter(f"unknown family {obj['family']!r}")
    for f in cls.__dataclass_fields__:
        if f not in obj:
            raise BadParameter(f"family {obj['family']!r} needs field {f!r}")
    extra = set(obj) - set(cls.__dataclass_fields__) - {"family"}
    if extra:
        raise BadParameter(f"unexpected fields {sorted(extra)} for {obj['family']!r}")
    return cls(**{f: obj[f] for f in cls.__dataclass_fields__})


def label_to_list(label: ClassLabel) -> list:
    return [form_to_dict(f) for f in label.forms]


@dataclass(frozen=True)
class PairDocument:
    """A rotation pair as stored on disk."""

    n: int
    delta: np.ndarray
    epsilon: np.ndarray
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "delta": np.asarray(self.delta, dtype=float).tolist(),
            "epsilon": np.asarray(self.epsilon, dtype=float).tolist(),
            "metadata": self.metadata,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _leaves(obj) -> list:
    # a loop, not recursion: a document may nest deeper than the stack
    leaves, todo = [], [obj]
    while todo:
        x = todo.pop()
        if isinstance(x, (list, tuple)):
            todo.extend(x)
        else:
            leaves.append(x)
    return leaves


def _matrix_from_json(obj, name: str, n: int) -> np.ndarray:
    leaves = _leaves(obj)
    if any(isinstance(x, bool) for x in leaves):
        raise BadParameter(f"{name} has a boolean entry")
    if not all(isinstance(x, (int, float)) for x in leaves):
        raise BadParameter(f"{name} is not a numeric matrix")
    try:
        M = np.array(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParameter(f"{name} is not a numeric matrix") from exc
    if M.shape != (n, n):
        raise BadDimension(f"{name} has shape {M.shape}, expected ({n}, {n})")
    if not np.all(np.isfinite(M)):
        raise BadParameter(f"{name} contains non-finite entries")
    return M


def pair_from_json_dict(obj: dict, tol: Tolerance = DEFAULT_TOL) -> PairDocument:
    """Validate and build a :class:`PairDocument` from parsed JSON.

    Matrix entries must be JSON numbers; anything else, a boolean or a
    string such as ``"1"`` included, raises ``BadParameter``.
    Orthogonality of both matrices is checked at load time: a residual
    beyond ``residual_tol`` raises ``NotOrthogonal``.
    """
    if not isinstance(obj, dict):
        raise BadParameter("document root must be a JSON object")
    for key in ("n", "delta", "epsilon"):
        if key not in obj:
            raise BadParameter(f"document is missing {key!r}")
    n = obj["n"]
    if type(n) is not int or n < 1:
        raise BadDimension(f"n must be a positive integer, got {n!r}")
    delta = _matrix_from_json(obj["delta"], "delta", n)
    epsilon = _matrix_from_json(obj["epsilon"], "epsilon", n)
    for name, M in (("delta", delta), ("epsilon", epsilon)):
        require(orthonormality_residual(M), tol.residual_tol, NotOrthogonal,
                f"{name}: orthogonality residual")
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise BadParameter("metadata must be an object")
    return PairDocument(n=n, delta=delta, epsilon=epsilon, metadata=metadata)


def _read_json(source, text=None):
    """Parsed JSON of ``text``, or of the file ``source`` when text is None.

    Text that is not UTF-8, not JSON, nested deeper than the parser's
    stack, or an integer literal too long to convert raises
    ``BadParameter`` naming ``source``; each of these is a ``ValueError``
    or a ``RecursionError``.
    """
    try:
        if text is None:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise BadParameter(f"{source}: not valid JSON ({exc})") from exc


def load_pair(path, tol: Tolerance = DEFAULT_TOL) -> PairDocument:
    return pair_from_json_dict(_read_json(path), tol)


def _normal_form_dict(nf: NormalForm) -> dict:
    return {
        "angles": [_sig12(a) for a in nf.angles],
        "fix_dim": nf.fix_dim,
        "neg_dim": nf.neg_dim,
        "basis": np.asarray(nf.basis, dtype=float).tolist(),
    }


def build_report(d: Rotation, e: Rotation, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Decompose and classify a pair; the report as a JSON-ready dict.

    Residuals in the report are recomputed from the returned bases, not
    read back from intermediate state.  The report is the one of the
    pair :func:`_certify_pair` returns, with the normal forms that
    certified ``d`` and ``e``: a hand-built side's claim is never used.
    """
    d, e = _certify_pair(d, e, tol)
    dec = decompose(d, e, tol)
    forms = [classify_block(b, tol) for b in dec.blocks]
    blocks = [{
        "dim": b.dim,
        "basis": np.asarray(b.basis, dtype=float).tolist(),
        "d_restricted": np.asarray(b.d_restricted, dtype=float).tolist(),
        "e_restricted": np.asarray(b.e_restricted, dtype=float).tolist(),
        "invariance_residual": float(invariance_residual(b.basis, d, e)),
        "form": form_to_dict(form),
    } for b, form in zip(dec.blocks, forms)]
    return {
        "n": d.dim,
        "tolerances": {
            "residual_tol": tol.residual_tol,
            "angle_tol": tol.angle_tol,
            "rank_tol": RANK_TOL,
        },
        "delta_normal_form": _normal_form_dict(d.normal_form),
        "epsilon_normal_form": _normal_form_dict(e.normal_form),
        "blocks": blocks,
        "label": label_to_list(ClassLabel(forms=tuple(forms))),
    }


def _check_count(value, name: str) -> int:
    if not is_number(value, integral=True) or value < 0:
        raise BadParameter(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random orthogonal matrix: QR of a Gaussian with sign-fixed diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.where(np.diag(r) >= 0, 1.0, -1.0)
    return q * signs


def generate_rotation(n: int, alpha: float, seed: int,
                      tol: Tolerance = DEFAULT_TOL) -> Rotation:
    """Seeded random rotation of R^n with the given angle.

    Angle 0 and pi give the identity and its negative in any dimension;
    anything in between needs ``n`` even and conjugates a direct sum of
    equal 2x2 blocks by a random orthogonal matrix.  Either way the
    matrix is certified by :func:`as_rotation`, whose rotation is returned.
    """
    seed = _check_count(seed, "seed")
    if not is_number(n, integral=True) or n < 1:
        raise BadDimension(f"n must be a positive integer, got {n!r}")
    if not is_number(alpha) or not 0.0 <= alpha <= math.pi:
        raise BadAngle(f"alpha {alpha!r} is not a real number in [0, pi]")
    if alpha in (0.0, math.pi):
        return as_rotation(math.cos(alpha) * np.eye(n), tol)
    if n % 2:
        raise BadDimension(f"a proper rotation needs even dimension, got {n}")
    rng = np.random.default_rng(seed)
    Q = haar_orthogonal(n, rng)
    B = block_diag(*[rot2(alpha)] * (n // 2))
    return as_rotation(Q @ B @ Q.T, tol)


def generate_pair(spec, seed: int, tol: Tolerance = DEFAULT_TOL) -> PairDocument:
    """Random pair realizing the given multiset of canonical forms.

    The realized blocks are direct-summed in a seed-shuffled order and
    conjugated by one random orthogonal matrix.  The ground-truth label
    goes into the metadata.  Raises ``BadParameter`` when the forms are
    not jointly realizable (the direct sums must themselves rotate by a
    single angle on each side).
    """
    seed = _check_count(seed, "seed")
    spec = list(spec)
    if not spec:
        raise BadParameter("spec must contain at least one canonical form")
    pieces = [realize(f) for f in spec]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pieces))
    delta = block_diag(*[pieces[i][0] for i in order])
    epsilon = block_diag(*[pieces[i][1] for i in order])
    n = delta.shape[0]
    Q = haar_orthogonal(n, rng)
    delta = Q @ delta @ Q.T
    epsilon = Q @ epsilon @ Q.T
    try:
        as_rotation(delta, tol)
        as_rotation(epsilon, tol)
    except NotARotation as exc:
        raise BadParameter(
            f"forms are not jointly realizable as a rotation pair: {exc}"
        ) from exc
    label = ClassLabel(forms=tuple(spec))
    return PairDocument(
        n=n,
        delta=delta,
        epsilon=epsilon,
        metadata={"seed": seed, "label": label_to_list(label)},
    )


def _probe_candidates(n: int) -> np.ndarray:
    """Structured unit vectors tried before random sampling.

    Coordinate vectors and their normalized sums and differences; these
    hit the invariant planes of block-aligned pairs exactly.
    """
    eye = np.eye(n)
    cols = [eye[:, i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cols.append((eye[:, i] + eye[:, j]) / math.sqrt(2.0))
            cols.append((eye[:, i] - eye[:, j]) / math.sqrt(2.0))
    return np.column_stack(cols)


def oracle_two_plane_search(d: Rotation, e: Rotation, samples: int = 10000,
                            seed: int = 0, tol: Tolerance = DEFAULT_TOL):
    """Search for a unit vector spanning an invariant 2-plane with its image.

    A vector v qualifies when the stack [v, d v, e v, e d v] has rank at
    most 2; the plane spanned by v and d v is then verified invariant
    under both rotations.  Structured probe vectors are tried first,
    then ``samples`` seeded random draws.  Returns the first verified
    witness, or None.  A rotation that is not proper raises
    ``NotProper``, and a pair of unequal dimensions ``NotOrthogonalPair``.

    Absence of a witness is NOT a proof that no invariant 2-plane
    exists: for most reducible pairs the witnesses form a measure-zero
    set that random sampling misses.
    """
    samples, seed = _check_count(samples, "samples"), _check_count(seed, "seed")
    _require_proper_pair(d, e)
    n = d.dim
    dm, em = d.matrix, e.matrix

    def scan(vectors: np.ndarray):
        cols = vectors.shape[1]
        stacks = np.empty((cols, n, 4))
        stacks[:, :, 0] = vectors.T
        stacks[:, :, 1] = (dm @ vectors).T
        stacks[:, :, 2] = (em @ vectors).T
        stacks[:, :, 3] = (em @ (dm @ vectors)).T
        sing = np.linalg.svd(stacks, compute_uv=False)
        padded = np.zeros((cols, 4))
        padded[:, : sing.shape[1]] = sing
        # rank at most 2: the singular values descend, so padded[:, 3] follows
        for i in np.nonzero(padded[:, 2] <= RANK_TOL * padded[:, 0])[0]:
            v = vectors[:, i]
            plane = np.column_stack([v, dm @ v])
            q, _ = np.linalg.qr(plane)
            if invariance_residual(q, d, e) <= tol.check_tol:
                return v
        return None

    hit = scan(_probe_candidates(n))
    if hit is not None:
        return hit
    rng = np.random.default_rng(seed)
    remaining = samples
    while remaining > 0:
        chunk = min(remaining, 2048)
        raw = rng.standard_normal((n, chunk))
        raw /= np.linalg.norm(raw, axis=0)
        hit = scan(raw)
        if hit is not None:
            return hit
        remaining -= chunk
    return None
