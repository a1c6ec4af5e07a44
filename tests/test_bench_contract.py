"""The benchmark's tracer self-check, run on a few fixed inputs.

``perfbench/worker.py`` ends a traced run with ``tracer self-check: no
spans for ...`` when a function that ``perfbench/tracer.py`` traces
records no call on a workload, so a change that takes such a function
off a workload's path fails the benchmark.  This runs the same check on
a fixed number of seeded ops per workload, so it does not depend on the
speed of the machine.  Nothing under ``perfbench/`` is changed.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
OPS = {"cli_n6": 2, "classify_n96": 2, "batch_small": 40}


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import tracer
        import worker
        yield worker, tracer.Tracer
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("workload", sorted(OPS))
def test_every_traced_function_records_spans(bench, workload, tmp_path):
    worker, Tracer = bench
    rng = np.random.default_rng([11, worker.WORKLOADS.index(workload)])
    tracer = Tracer()
    with tracer.installed("input"):
        next_input, op, check = worker.build(workload, rng, str(tmp_path),
                                             in_process=True)
    for _ in range(OPS[workload]):
        with tracer.installed("input"):
            inp = next_input()
        with tracer.installed("op"):
            assert check(inp, op(inp))
    cli_calls = OPS[workload]
    if workload != "cli_n6":
        _, cli = worker.cli_probe(rng, str(tmp_path), tracer)
        assert cli.failed == 0, cli.errors
        cli_calls = len(cli.seconds)
    try:
        worker.layer_metrics(workload, tracer, OPS[workload], cli_calls)
    except SystemExit as exc:
        pytest.fail(str(exc))
