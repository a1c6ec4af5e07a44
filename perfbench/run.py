"""rotpair benchmark: one workload (or all three), one seed, one run.

    python3 perfbench/run.py --workload cli_n6|classify_n96|batch_small|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` as it stands, nothing is installed.  Each workload runs closed
loop with one client in a child process (``worker.py``) whose BLAS
libraries are held to one thread; this process and all its children
share one CPU.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``setup_s`` is the median over several fresh set-ups.  ``--trace 1``
prints its per-layer metrics from a separate traced run.  Either way
the last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch files go to ``.bench_build/`` and
are removed at exit.  See ``perfbench/README.md`` for what each metric
means and which layer should move which end-to-end number.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("cli_n6", "classify_n96", "batch_small")
SETUP_RUNS = 4      # set-up-only processes; the timed run adds one more
IMPORT_RUNS = 5     # fresh `python -X importtime` processes
RUN_DEADLINE_S = 170
THREAD_LIMITS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env.update(THREAD_LIMITS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd, deadline):
    """Run ``cmd`` in its own process group; (stdout, stderr) of a clean exit."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}\n{err}")
    return out, err


def run_worker(args, workload, deadline, setup_only=False):
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0), "--workdir", str(WORKDIR)]
    if setup_only:
        cmd.append("--setup-only")
    out, _ = run_child(cmd, deadline)
    return json.loads(out.strip().splitlines()[-1])


def _importtime_entries(stderr):
    """(depth, name, cumulative us) per line of ``-X importtime`` output."""
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue   # the header line
        name = field.strip()
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        yield depth, name, int(cumulative)


def import_breakdown(stderr):
    """(ms to import rotpair.cli, ms of that spent importing scipy).

    Children are printed before their parent, so walking the lines in
    reverse meets every ancestor first.
    """
    def is_scipy(name):
        return name == "scipy" or name.startswith("scipy.")

    total = scipy = 0
    ancestors = []
    for depth, name, cumulative in reversed(list(_importtime_entries(stderr))):
        del ancestors[depth:]
        if depth == 0 and name.split(".")[0] == "rotpair":
            total += cumulative
        if is_scipy(name) and not any(is_scipy(a) for a in ancestors):
            scipy += cumulative
        ancestors.append(name)
    return total / 1e3, scipy / 1e3


def import_metrics(deadline):
    totals, scipys = [], []
    for _ in range(IMPORT_RUNS):
        _, err = run_child([sys.executable, "-X", "importtime", "-c",
                            "import rotpair.cli"], deadline)
        total, scipy = import_breakdown(err)
        totals.append(total)
        scipys.append(scipy)
    return {"cli.import_ms": statistics.median(totals),
            "cli.import_scipy_ms": statistics.median(scipys)}


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report_untraced(workload, result, setups_raw):
    m, raw = result["metrics"], result["metrics"]["raw"]
    print("Times are scaled to the nominal machine speed (see speed.py); "
          "raw wall-clock figures follow each one.")
    print(f"setup_s      {m['setup_s']:.4f} s      raw median {statistics.median(setups_raw):.4f} s"
          f" over {len(setups_raw)} fresh processes")
    print(f"op_p50_ms    {m['op_p50_ms']:.3f} ms   raw {raw['op_p50_ms']:.3f} ms, "
          f"{m['samples']} samples")
    print(f"op_tail_ms   {m['op_tail_ms']:.3f} ms   raw {raw['op_tail_ms']:.3f} ms, "
          f"op_p{m['op_tail_pct']}_ms: the highest percentile up to p90 "
          "with >= 10 samples above")
    print(f"ops_per_s    {m['ops_per_s']:.4f} 1/s   raw {raw['ops_per_s']:.4f} 1/s, "
          "closed loop, 1 client")
    print(f"fail_ratio   {result['failed'] / result['attempted']:.4f}   "
          f"{result['failed']}/{result['attempted']} ops raised or answered wrong")
    print(f"peak_rss_mb  {m['peak_rss_mb']:.1f} MB"
          + ("   peak over CLI child processes" if workload == "cli_n6" else ""))


def report_traced(result):
    for name, value in sorted(result["metrics"].items()):
        print(f"{name:48s} {value:.6g}")
    if result["probe_errors"]:
        print("noise and boundary probe failures, first few: "
              + "; ".join(result["probe_errors"]))


def run_workload(args, workload, declared):
    """Run and report one workload; its result object for the JSON line."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    if args.trace:
        result = run_worker(args, workload, deadline)
        result["metrics"].update(import_metrics(deadline))
        report_traced(result)
    else:
        setups = [run_worker(args, workload, deadline, setup_only=True)
                  for _ in range(SETUP_RUNS)]
        result = run_worker(args, workload, deadline)
        setups.append(result["metrics"])
        result["metrics"]["setup_s"] = statistics.median(
            s["setup_s_raw"] * s["setup_scale"] for s in setups)
        report_untraced(workload, result, [s["setup_s_raw"] for s in setups])
    print("env " + json.dumps(result["env"], sort_keys=True))
    if result["errors"]:
        print("failures, first few: " + "; ".join(result["errors"]))
    missing = sorted(set(declared) - set(result["metrics"]))
    if missing:
        raise BenchError(f"metrics not produced: {', '.join(missing)}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in declared.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    # One CPU for this process and every child: a CLI op then never
    # migrates, which on a 2-vCPU machine made its latency bimodal.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "rotpair" / "__init__.py").is_file():
        raise BenchError(f"no rotpair sources under {ROOT / 'src'}")
    declared = declared_metrics(args.trace)
    if args.workload != "all":
        print(json.dumps(run_workload(args, args.workload, declared)))
        return 0
    # Every workload in turn, each with its own JSON line; the last line
    # sums them, with metric names prefixed by the workload.
    results = {}
    for workload in WORKLOADS:
        results[workload] = run_workload(args, workload, declared)
        print(json.dumps(results[workload]))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
