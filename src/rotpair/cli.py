"""Command-line interface.

Subcommands: check, normal-form, decompose, classify, isomorphic,
generate, oracle.  Exit codes: 0 success, 1 validation error, 2
numerical failure, 3 "not isomorphic".  JSON output is deterministic:
same inputs, flags and seeds give byte-identical bytes.

Each ``_cmd_*`` returns (exit code, JSON payload or None, text lines);
:func:`main` prints the payload under ``--format json``, else the lines
unless ``--quiet``.  JSON is the product of the run, so ``--quiet`` does
not drop it; ``generate`` has no payload and prints its line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .classify import ANGLE_FIELDS, SIGN_FIELDS, isomorphic
from .errors import BadParameter, RotPairError, ValidationError
from .linalg import DEFAULT_TOL, Tolerance
from .orthogonal import as_rotation, orthogonal_normal_form
from .workbench import (
    _normal_form_dict,
    _read_json,
    _sig12,
    build_report,
    form_from_dict,
    generate_pair,
    load_pair,
    oracle_two_plane_search,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_NOT_ISOMORPHIC = 3


def _ok_mark() -> str:
    """``ok``, green on a terminal unless ``NO_COLOR`` is set."""
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return "ok"
    return "\x1b[32mok\x1b[0m"


def _load_rotations(path, tol: Tolerance):
    doc = load_pair(path, tol)
    return doc, as_rotation(doc.delta, tol), as_rotation(doc.epsilon, tol)


def _cmd_check(args, tol: Tolerance):
    doc, d, e = _load_rotations(args.file, tol)
    payload = {
        "n": doc.n,
        "delta": {"angle": _sig12(d.angle), "kind": d.kind.value},
        "epsilon": {"angle": _sig12(e.angle), "kind": e.kind.value},
    }
    return EXIT_OK, payload, [
        f"{_ok_mark()} delta: {d.kind.value}, angle {d.angle:.12g}",
        f"{_ok_mark()} epsilon: {e.kind.value}, angle {e.angle:.12g}",
    ]


def _cmd_normal_form(args, tol: Tolerance):
    doc = load_pair(args.file, tol)
    forms = {
        "delta": _normal_form_dict(orthogonal_normal_form(doc.delta, tol)),
        "epsilon": _normal_form_dict(orthogonal_normal_form(doc.epsilon, tol)),
    }
    lines = []
    for name, nf in forms.items():
        angles = ", ".join(f"{a:.12g}" for a in nf["angles"]) or "none"
        lines.append(f"{name}: angles [{angles}], fixed {nf['fix_dim']}, "
                     f"negated {nf['neg_dim']}")
    return EXIT_OK, {"n": doc.n, **forms}, lines


def _cmd_decompose(args, tol: Tolerance):
    _, d, e = _load_rotations(args.file, tol)
    payload = build_report(d, e, tol)
    del payload["label"]
    return EXIT_OK, payload, [
        f"block {i + 1}: dim {b['dim']}, residual {b['invariance_residual']:.3e}"
        for i, b in enumerate(payload["blocks"])
    ]


def _cmd_classify(args, tol: Tolerance):
    _, d, e = _load_rotations(args.file, tol)
    payload = build_report(d, e, tol)
    return EXIT_OK, payload, [
        "  ".join([f["family"]] + [f"{k}={f[k]:.12g}"
                                   for k in SIGN_FIELDS + ANGLE_FIELDS if k in f])
        for f in payload["label"]
    ]


def _cmd_isomorphic(args, tol: Tolerance):
    _, d1, e1 = _load_rotations(args.file_a, tol)
    _, d2, e2 = _load_rotations(args.file_b, tol)
    same = isomorphic((d1, e1), (d2, e2), tol)
    return (EXIT_OK if same else EXIT_NOT_ISOMORPHIC, {"isomorphic": same},
            ["isomorphic" if same else "not isomorphic"])


def _cmd_generate(args, tol: Tolerance):
    inline = args.spec.lstrip().startswith("[")
    spec_list = (_read_json("--spec", args.spec) if inline
                 else _read_json(args.spec))
    if not isinstance(spec_list, list):
        raise ValidationError("--spec must be a JSON array of canonical forms")
    forms = [form_from_dict(obj) for obj in spec_list]
    doc = generate_pair(forms, args.seed, tol)
    doc.save(args.output)
    return EXIT_OK, None, [f"wrote {args.output} (n={doc.n})"]


def _cmd_oracle(args, tol: Tolerance):
    _, d, e = _load_rotations(args.file, tol)
    witness = oracle_two_plane_search(d, e, samples=args.samples,
                                      seed=args.seed, tol=tol)
    payload = {
        "samples": args.samples,
        "witness": None if witness is None else [float(x) for x in witness],
    }
    if witness is None:
        line = "no witness found (not a proof that no invariant plane exists)"
    else:
        line = "witness: " + " ".join(f"{x:.12g}" for x in witness)
    return EXIT_OK, payload, [line]


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL.residual_tol,
                     metavar="RESIDUAL", help="residual tolerance (default 1e-9)")
    sub.add_argument("--angle-tol", type=float, default=DEFAULT_TOL.angle_tol,
                     metavar="RADIANS",
                     help="angle comparison tolerance (default 1e-7)")
    sub.add_argument("--format", choices=("json", "text"), default="text",
                     help="output format (default text)")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress informational text output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotpair",
        description="Decompose pairs of rotations into invariant blocks, "
                    "classify the blocks, and decide isomorphism.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="verify both matrices rotate by a "
                        "single angle and report the angles")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("normal-form", help="block form of each matrix")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=_cmd_normal_form)

    p = subs.add_parser("decompose", help="invariant-block decomposition")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=_cmd_decompose)

    p = subs.add_parser("classify", help="canonical label of the pair")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("isomorphic", help="compare two pairs "
                        "(exit 0 yes, exit 3 no)")
    p.add_argument("file_a")
    p.add_argument("file_b")
    _add_common(p)
    p.set_defaults(func=_cmd_isomorphic)

    p = subs.add_parser("generate", help="generate a pair from a JSON list "
                        "of canonical forms")
    p.add_argument("--spec", required=True,
                   help="JSON array of canonical forms, inline or a file path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_generate)

    p = subs.add_parser(
        "oracle",
        help="sample unit vectors for an invariant 2-plane witness",
        description="Samples unit vectors looking for one that spans an "
                    "invariant 2-plane with its image.  One-sided: finding "
                    "a witness proves reducibility, finding none proves "
                    "nothing.",
    )
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            tol = Tolerance(residual_tol=args.tol, angle_tol=args.angle_tol)
        except ValueError as exc:
            raise BadParameter(str(exc)) from exc
        code, payload, lines = args.func(args, tol)
    except (OSError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RotPairError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        if args.format == "json" and payload is not None:
            print(json.dumps(payload, indent=2, sort_keys=True))
        elif not args.quiet:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:   # the reader left, as `| head` does; exit flushes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
