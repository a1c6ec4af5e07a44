"""One workload in one process; prints one JSON object as its last line.

Started by ``run.py``, which passes ``--t0``: the monotonic clock just
before this process was spawned, so set-up time covers interpreter
start, ``import rotpair`` and building the first inputs.  Run as a
script, so the sibling modules import by plain name.

    python perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --t0 T --workdir DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from importlib import metadata

import numpy as np

import workloads as w
from speed import Speedometer, scale_now
from tracer import SPAN_NAMES, Tracer

WORKLOADS = ("cli_n6", "classify_n96", "batch_small")
NOISE_PROBE_PAIRS = 64
BOUNDARY_PROBE_PAIRS = 16
MAX_ERRORS_SHOWN = 3


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _cli_stream(pool, rng):
    """Endless walk over the pool, reshuffled each pass."""
    while True:
        for i in rng.permutation(len(pool)):
            yield pool[int(i)]


def build(name, rng, workdir, in_process):
    """(next_input, op, check) for a workload.

    ``in_process`` selects ``rotpair.cli.main`` in this process over a
    fresh interpreter per CLI op; the traced run needs it to see spans.
    """

    if name == "cli_n6":
        stream = _cli_stream(w.cli_pool(rng, workdir), rng)
        op = w.cli_inprocess_op if in_process else w.cli_process_op
        return lambda: next(stream), op, w.CliChecker()
    if name == "classify_n96":
        return lambda: w.n96_input(rng), w.classify_op, w.classify_check
    return lambda: w.small_input(rng), w.small_op, w.small_check


def _attempt(op, check, inp):
    """(seconds, ok, error text or None) for one op and its answer check."""
    start = time.perf_counter()
    try:
        out = op(inp)
    except Exception as exc:  # a raising op is a counted failure, not a crash
        return time.perf_counter() - start, False, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        ok = bool(check(inp, out))
    except Exception as exc:  # an unreadable answer is a wrong answer
        return elapsed, False, f"check raised {type(exc).__name__}: {exc}"
    return elapsed, ok, None if ok else "wrong answer"


class Outcome:
    def __init__(self):
        self.seconds = []
        self.failed = 0
        self.errors = []

    def add(self, elapsed, ok, error):
        self.seconds.append(elapsed)
        if not ok:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_SHOWN:
                self.errors.append(error)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples above it, within [50, 90]."""
    return max(0.5, min(0.9, (n - 10) / n))


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def latency_metrics(seconds):
    ms = sorted(1e3 * s for s in seconds)
    q = tail_percentile(len(ms))
    return {
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": nearest_rank(ms, q),
        "op_tail_pct": round(100 * q),
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "samples": len(ms),
    }


def run_untraced(inp, next_input, op, check, seconds):
    """The Outcome and the speed-scaled seconds of each op, from ``inp`` on."""

    speed = Speedometer()
    outcome, starts = Outcome(), []
    deadline = time.perf_counter() + seconds
    while True:
        speed.sample_if_due()
        starts.append(time.perf_counter())
        outcome.add(*_attempt(op, check, inp))
        if time.perf_counter() >= deadline:
            break
        inp = next_input()
    speed.sample()
    return outcome, [dt * speed.scale_at(t) for dt, t in zip(outcome.seconds, starts)]


def run_traced(next_input, op, check, seconds, tracer):
    """Each input runs untraced, then traced; only the traced run is checked."""
    plain, traced = Outcome(), Outcome()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        with tracer.installed("input"):
            inp = next_input()
        plain.seconds.append(_attempt(op, lambda i, o: True, inp)[0])
        with tracer.installed("op"):
            traced.add(*_attempt(op, check, inp))
    return plain, traced


def failure_probe(make_input, rng, count):
    """Classify ``count`` inputs from ``make_input``; the Outcome counts failures."""
    outcome = Outcome()
    for _ in range(count):
        outcome.add(*_attempt(w.classify_op, w.classify_check, make_input(rng)))
    return outcome


def cli_probe(rng, workdir, tracer):
    """In-process ``cli.main`` calls, untraced then traced, on an n=6 pool."""

    pool = w.cli_pool(rng, workdir)
    check = w.CliChecker()
    plain, traced = Outcome(), Outcome()
    for entry in pool:
        plain.seconds.append(_attempt(w.cli_inprocess_op, check, entry)[0])
        with tracer.installed("cli"):
            traced.add(*_attempt(w.cli_inprocess_op, check, entry))
    return plain, traced


# Functions a workload's op never calls; every other traced function must
# record at least one span, or the tracer is patching the wrong namespace.
NOT_CALLED = {
    "cli_n6": {"classify.classify", "classify.isomorphic"},
    "classify_n96": {"classify.isomorphic"},
    "batch_small": set(),
}
CLI_SPANS = {"workbench.load_pair", "workbench.build_report"}


def layer_metrics(workload, tracer, ops, cli_calls):
    """Per-op span metrics; CLI-only spans per ``cli.main`` call."""

    cli_region = "op" if workload == "cli_n6" else "cli"
    out = {}
    missing = []
    for name in SPAN_NAMES:
        if name == "workbench.generate_pair":
            region, per = "input", ops
        elif name in CLI_SPANS:
            region, per = cli_region, cli_calls
        else:
            region, per = "op", ops
        s = tracer.stats[region][name]
        if s.calls == 0 and name not in NOT_CALLED[workload]:
            missing.append(name)
        out[f"{name}.calls"] = s.calls / per
        out[f"{name}.ms"] = s.ms / per
        out[f"{name}.self_ms"] = s.self_ms / per
    if missing:
        raise SystemExit(f"tracer self-check: no spans for {', '.join(missing)}")
    ops_stats = tracer.stats["op"]
    build_t = ops_stats["antilinear.build_T"]
    out["antilinear.build_T.raised_ratio"] = (
        build_t.raised["IntersectionNonTrivial"] / build_t.calls)
    out["decompose.split_ratio"] = (
        ops_stats["decompose.is_irreducible"].returned_false
        / ops_stats["decompose.find_block"].calls)
    return out


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
    }


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0   # ru_maxrss is KiB on Linux


def main(argv=None) -> int:
    args = _parse(argv)

    rng = np.random.default_rng([args.seed, WORKLOADS.index(args.workload)])
    os.makedirs(args.workdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.workdir) as workdir:
        if args.trace:
            result = traced_run(args, rng, workdir)
        else:
            result = untraced_run(args, rng, workdir)
    print(json.dumps(result))
    return 0


def untraced_run(args, rng, workdir):
    """Set-up time, then (unless ``--setup-only``) the timed loop.

    The first input is built before ``setup_s`` is read, so set-up ends
    where the first timed op would begin.
    """

    next_input, op, check = build(args.workload, rng, workdir, in_process=False)
    first = next_input()
    setup = {"setup_s_raw": time.monotonic() - args.t0, "setup_scale": scale_now()}
    if args.setup_only:
        return setup
    outcome, scaled = run_untraced(first, next_input, op, check, args.seconds)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_n6" else resource.RUSAGE_SELF
    metrics = latency_metrics(scaled)
    metrics["raw"] = latency_metrics(outcome.seconds)
    metrics.update(setup)
    metrics["peak_rss_mb"] = _peak_rss_mb(who)
    return {"attempted": len(outcome.seconds), "failed": outcome.failed,
            "errors": outcome.errors, "metrics": metrics, "env": environment()}


def traced_run(args, rng, workdir):

    tracer = Tracer()
    with tracer.installed("input"):
        next_input, op, check = build(args.workload, rng, workdir, in_process=True)
    plain, traced = run_traced(next_input, op, check, args.seconds, tracer)
    ops = len(traced.seconds)
    if args.workload == "cli_n6":
        cli_plain, cli_traced = plain, Outcome()
        cli_calls = ops
    else:
        cli_plain, cli_traced = cli_probe(rng, workdir, tracer)
        cli_calls = len(cli_traced.seconds)
    noise = failure_probe(w.noisy_input, rng, NOISE_PROBE_PAIRS)
    boundary = failure_probe(w.boundary_input, rng, BOUNDARY_PROBE_PAIRS)
    metrics = layer_metrics(args.workload, tracer, ops, cli_calls)
    metrics["cli.main_ms"] = 1e3 * statistics.median(cli_plain.seconds)
    metrics["trace.overhead_ratio"] = sum(traced.seconds) / sum(plain.seconds)
    metrics["noise.fail_ratio"] = noise.failed / len(noise.seconds)
    metrics["boundary.fail_ratio"] = boundary.failed / len(boundary.seconds)
    return {"attempted": ops + len(cli_traced.seconds),
            "failed": traced.failed + cli_traced.failed,
            "errors": traced.errors + cli_traced.errors,
            "probe_errors": noise.errors + boundary.errors, "metrics": metrics,
            "env": environment()}


if __name__ == "__main__":
    sys.exit(main())
