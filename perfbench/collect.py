"""Run the benchmark over ten seeds and report the run-to-run spread.

Usage, from the repository root:

    python3 perfbench/collect.py [--trace-seed 1] [--write perfbench/baseline.json]

Runs the command of ``BENCHMARK.json`` once per seed (1 to 10) and workload
of ``BENCHMARK.json``, one run at a time.  For each end-to-end metric it prints the median and the
interquartile distance as a share of the median (quartiles as
``statistics.quantiles(values, n=4)`` gives them), next to the metric's
bound; ``!`` marks a spread at or above a third of the bound.  ``--write``
stores every result, the spreads and the trace results as a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    *_, record, result = res.stdout.splitlines()
    return json.loads(record), json.loads(result)


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-seed", type=int, help="also make one traced run with this seed")
    parser.add_argument("--write", type=Path, help="write the baseline JSON here")
    args = parser.parse_args(argv)

    baseline = {"run_seconds": bench["run_seconds"], "workloads": {}}
    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            record, result = run_once(bench, workload, seed, 0)
            runs.append({"seed": seed, "env": record["env"], "stdout_sha256": record["stdout_sha256"],
                         "cli_ops": record["cli_ops"], "op_error_share": record["op_error_share"],
                         "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr)
        summary = {}
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            summary[metric["name"]] = s = spread(values)
            flag = "!" if s["spread"] >= metric["bound"] / 3 else " "
            if metric["name"] != "setup_s":
                worst = max(worst, s["spread"] / metric["bound"])
            print(f"{flag} {workload:9s} {metric['name']:19s} median {s['median']:12.4f} {metric['unit']:4s}"
                  f" spread {s['spread']:.4f} bound {metric['bound']}")
        entry = {"runs": runs, "spread": summary}
        if args.trace_seed is not None:
            record, result = run_once(bench, workload, args.trace_seed, 1)
            entry["trace"] = {"seed": args.trace_seed, "env": record["env"],
                              "stdout_sha256": record["stdout_sha256"], "result": result}
        baseline["workloads"][workload] = entry
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.write:
        args.write.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
