"""One round of a workload in-process, in a fresh interpreter, untraced or traced.

Usage, from the repository root:

    python3 perfbench/round_worker.py WORKLOAD SEED ROUND TRACE

Runs the workload's warm-up ops untraced, then the seeded round through
``toricmonoids.cli.main``, traced when TRACE is 1.  Prints one JSON object:
``ops``, a list of ``[exit code, stdout, wall seconds]`` in round order, and
with TRACE 1 the tracer's ``totals``.  ``run.py`` starts one per round of
its in-process pass, and with ``--trace 1`` one per round and mode.  So a
traced op never runs in an interpreter that has run it before, and a memo
in the package cannot make the traced pass look cheap; and no one
process's memory layout or hash seed sets the in-process figures.
"""

from __future__ import annotations

import contextlib
import json
import sys

import bench_inputs
import run
from bench_trace import Tracer


def main(argv: list[str]) -> int:
    workload, seed, index, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    cli = run.load_cli()
    for op in bench_inputs.WARMUP[workload]:
        run.run_inproc(cli.main, op)
    tracer = Tracer()
    entry = (lambda a: tracer.run_root(cli.main, a)) if trace else cli.main
    with tracer if trace else contextlib.nullcontext():
        ops = [run.run_inproc(entry, op) for op in bench_inputs.round_ops(workload, seed, index)]
    result = {"ops": ops}
    if trace:
        result["totals"] = tracer.totals()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
