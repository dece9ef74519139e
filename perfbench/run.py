"""Benchmark of the ``toricmonoids`` command-line tool.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Load model: closed loop, one client.  One process issues the seeded CLI
invocations one after another; at most one child process is alive at a time.

``--trace 0`` runs each seeded round twice, first through the CLI and then
in-process, and prints the end-to-end metrics:

* the CLI pass runs each invocation as ``python -m toricmonoids.cli`` would,
  in a subprocess that also reports its own peak RSS (``RUN_CLI``), for ``CLI_SHARE`` of ``--seconds`` of measured time and at
  least ``MIN_CLI_ROUNDS`` rounds, so the 90th percentile has at least ten
  samples beyond it;
* the in-process pass calls ``toricmonoids.cli.main(argv)`` with stdout
  captured, in a fresh interpreter per round (``round_worker.py``), so no
  one process's memory layout or hash seed sets the figure; it takes the
  rest of the time, as it skips interpreter start and import per op.

``--trace 1`` runs a fixed number of rounds in-process twice, untraced and
traced, round by round, each in a fresh interpreter (spans in
``bench_trace``), and prints the per-layer metrics; the difference of the
two is the tracing overhead.

Throughputs are the median over rounds of items per second of op wall
time: the machine's speed drifts, and a median of rounds ignores the rounds
a slow spell hits.  Slower drift, over whole runs, is taken out by a
reference: before each round of either pass, the wall time of one
interpreter start that imports a few standard modules.  Each end-to-end
time is scaled by ``REFERENCE_S`` over the run's median reference time, so
it reads as the time on a machine where the reference takes
``REFERENCE_S``; rates are scaled inversely.  The package never runs in the
reference, so a change to the package moves the scaled figures as it moves
the raw ones; the raw figures are in the run record.

Every output is checked by ``bench_check`` outside the timed region.  The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is the full run record (environment, sample counts, stdout
digest, first failures), also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import bench_check  # noqa: E402
import bench_inputs  # noqa: E402
from bench_trace import Tracer  # noqa: E402

CLI_SHARE = 0.7
MIN_CLI_ROUNDS = 11  # 110 invocations: p90 has 11 samples beyond it
SETUP_REPEATS = 5
TRACE_SECONDS_PER_ROUND = 5  # trace mode runs seconds / 5 rounds, a fixed op list
IMPORT_PAIRS = 5
PREGENERATED_ROUNDS = 12  # generated during set-up; later rounds on demand
MAX_FAILURES_KEPT = 5
# The CLI as ``python -m toricmonoids.cli`` runs it, then its own peak RSS (VmHWM) on stderr.
# The max-RSS that ``wait4`` gives is no use: a child started with vfork, as subprocess does,
# inherits its parent's high-water mark, so it would report the benchmark's own memory.
RUN_CLI = """\
import runpy
try:
    runpy.run_module("toricmonoids.cli", run_name="__main__", alter_sys=True)
finally:
    import sys
    with open("/proc/self/status") as status:
        sys.stderr.write("".join(line for line in status if line.startswith("VmHWM:")))
"""
REFERENCE = [sys.executable, "-c", "import argparse, fractions, json"]
REFERENCE_S = 0.065  # median wall time of REFERENCE on a 2-vCPU Xeon VM, Python 3.11.7


class Run:
    """Counters shared by the passes of one benchmark run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.rounds: list[list[list[str]]] = []
        self.attempted = 0
        self.failures: list[dict] = []
        self.failed = 0
        self.reference_times: list[float] = []

    def ops(self, index: int) -> list[list[str]]:
        while len(self.rounds) <= index:
            self.rounds.append(bench_inputs.round_ops(self.workload, self.seed, len(self.rounds)))
        return self.rounds[index]

    def check(self, argv: list[str], code: int, out: str, where: str) -> int:
        """Items the output verified, or 0 after recording a failure."""
        self.attempted += 1
        try:
            return bench_check.check(argv, code, out)
        except bench_check.CheckError as exc:
            self.fail(argv, where, str(exc))
            return 0

    def time_reference(self, env: dict) -> None:
        """Time one run of ``REFERENCE``, which does not touch the package."""
        start = time.perf_counter()
        # No timeout: waiting with one polls in growing sleeps, which would quantize the time.
        subprocess.run(REFERENCE, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       check=True)
        self.reference_times.append(time.perf_counter() - start)

    def fail(self, argv: list[str], where: str, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append({"where": where, "argv": argv, "reason": reason[:300]})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(argv: list[str], env: dict) -> dict:
    """One CLI invocation as a subprocess: exit code, stdout, wall, first-byte time, peak RSS."""
    cmd = [sys.executable, "-c", RUN_CLI, *argv]
    chunks = []
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, cwd=ROOT, env=env) as proc:
        first = None
        fd = proc.stdout.fileno()
        while chunk := os.read(fd, 1 << 16):
            if first is None:
                first = time.perf_counter()
            chunks.append(chunk)
        err = proc.stderr.read()
        _, status = os.waitpid(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    hwm = re.findall(rb"^VmHWM:\s+(\d+) kB$", err, re.M)
    if not hwm:
        raise RuntimeError(f"the CLI child reported no peak RSS: {err[-300:]!r}")
    return {
        "code": proc.returncode,
        "out": b"".join(chunks).decode("utf-8", "replace"),
        "wall": end - start,
        "ttfo": (first or end) - start,
        "rss_kb": int(hwm[-1]),
    }


def run_inproc(main, argv: list[str]) -> tuple[int | str, str, float]:
    """``main(argv)`` with stdout captured: exit code, stdout, wall time."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - a crash is a failed op, not a failed benchmark
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    return code, out.getvalue(), wall


def load_cli():
    """Import the CLI from this checkout's sources, never from an installed copy."""
    if not (SRC / "toricmonoids" / "cli.py").is_file():
        raise SystemExit(f"error: no package sources at {SRC.relative_to(ROOT)}/toricmonoids")
    sys.path.insert(0, str(SRC))
    from toricmonoids import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported {cli.__file__} instead of the checkout's sources")
    return cli


def setup(run: Run, main, env: dict) -> float:
    """Generate the inputs, warm the bytecode and run one warm-up per subcommand."""
    start = time.perf_counter()
    run.rounds = bench_inputs.rounds(run.workload, run.seed, PREGENERATED_ROUNDS)
    compileall.compile_dir(str(SRC), quiet=1)
    for argv in bench_inputs.WARMUP[run.workload]:
        res = run_cli(argv, env)
        run.check(argv, res["code"], res["out"], "warm-up cli")
        code, out, _ = run_inproc(main, argv)
        run.check(argv, code, out, "warm-up in-process")
    return time.perf_counter() - start


class Tally:
    """What one pass measured, round by round."""

    def __init__(self):
        self.walls: list[float] = []
        self.ttfos: list[float] = []
        self.round_rates: list[float] = []
        self.digests: list[bytes] = []
        self.items = self.out_bytes = self.rss_kb = 0
        self.sha = hashlib.sha256()  # stdout of the first MIN_CLI_ROUNDS rounds

    def add_round(self, index: int, outputs: list[tuple[float, int, str]]) -> None:
        """``outputs`` holds ``(wall, items, stdout)`` per op of round ``index``."""
        for wall, _, out in outputs:
            encoded = out.encode()
            self.walls.append(wall)
            self.digests.append(hashlib.sha256(encoded).digest())
            self.out_bytes += len(encoded)
            if index < MIN_CLI_ROUNDS:
                self.sha.update(encoded)
        items = sum(n for _, n, _ in outputs)
        self.items += items
        self.round_rates.append(items / sum(w for w, _, _ in outputs))


def cli_round(run: Run, index: int, env: dict, tally: Tally) -> None:
    run.time_reference(env)
    outputs = []
    for argv in run.ops(index):
        res = run_cli(argv, env)
        tally.ttfos.append(res["ttfo"])
        tally.rss_kb = max(tally.rss_kb, res["rss_kb"])
        outputs.append((res["wall"], run.check(argv, res["code"], res["out"], "cli"), res["out"]))
    tally.add_round(index, outputs)


def inproc_round(run: Run, index: int, trace: int, env: dict, tally: Tally,
                 reference: Tally | None = None) -> dict:
    """One round through ``cli.main`` in a fresh interpreter, traced or not, checked and added to
    ``tally``; with ``reference``, outputs must equal its outputs byte for byte.  Returns the
    worker's JSON."""
    cmd = [sys.executable, str(HERE / "round_worker.py"), run.workload, str(run.seed), str(index), str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                         text=True, check=True, timeout=150)
    worker = json.loads(res.stdout)
    outputs = [(wall, run.check(argv, code, out, "in-process"), out)
               for argv, (code, out, wall) in zip(run.ops(index), worker["ops"], strict=True)]
    first = len(tally.digests)
    tally.add_round(index, outputs)
    if reference is not None:
        for i, argv in enumerate(run.ops(index)):
            if tally.digests[first + i] != reference.digests[first + i]:
                run.fail(argv, "in-process", "stdout differs from the reference pass")
    return worker


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 10..90, step 10), as ``statistics.quantiles`` cuts it."""
    return statistics.quantiles(values, n=10)[q // 10 - 1]


def end_to_end(run: Run, seconds: float, setup_s: float, env: dict) -> tuple[dict, dict]:
    """CLI and in-process rounds alternate, so both passes see the same spells of machine speed."""
    cli, inproc = Tally(), Tally()
    index = 0
    while index < MIN_CLI_ROUNDS or sum(cli.walls) < CLI_SHARE * seconds:
        cli_round(run, index, env, cli)
        run.time_reference(env)
        inproc_round(run, index, 0, env, inproc, cli)
        index += 1
    raw = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (statistics.median(cli.round_rates), "1/s"),
        "op_p50_ms": (1000 * quantile(cli.walls, 50), "ms"),
        "op_p90_ms": (1000 * quantile(cli.walls, 90), "ms"),
        "ttfo_p50_ms": (1000 * statistics.median(cli.ttfos), "ms"),
        "inproc_items_per_s": (statistics.median(inproc.round_rates), "1/s"),
        "peak_rss_mb": (cli.rss_kb / 1024, "MB"),
    }
    reference_s = statistics.median(run.reference_times)
    scale = {"s": REFERENCE_S / reference_s, "ms": REFERENCE_S / reference_s,
             "1/s": reference_s / REFERENCE_S, "MB": 1.0}
    metrics = {name: (value * scale[unit], unit) for name, (value, unit) in raw.items()}
    detail = {
        "reference_median_s": reference_s,
        "reference_samples": len(run.reference_times),
        "raw_metrics": {name: value for name, (value, _) in raw.items()},
        "rounds": index,
        "cli_ops": len(cli.walls),
        "cli_items": cli.items,
        "cli_measured_s": sum(cli.walls),
        "inproc_items": inproc.items,
        "inproc_measured_s": sum(inproc.walls),
        "stdout_sha256": cli.sha.hexdigest(),
        "stdout_sha256_ops": MIN_CLI_ROUNDS * bench_inputs.OPS_PER_ROUND,
    }
    return metrics, detail


def import_ms(env: dict) -> float:
    """Import time of ``toricmonoids.cli`` in a fresh interpreter, minus a bare start."""

    def timed(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    diffs = [timed("import toricmonoids.cli") - timed("pass") for _ in range(IMPORT_PAIRS)]
    return 1000 * statistics.median(diffs)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: Run, seconds: float, env: dict) -> tuple[dict, dict]:
    """Each round runs untraced and then traced, so both see the same spells of machine speed."""
    rounds = max(1, round(seconds / TRACE_SECONDS_PER_ROUND))
    plain, traced, tracer = Tally(), Tally(), Tracer()
    for index in range(rounds):
        inproc_round(run, index, 0, env, plain)
        tracer.merge(inproc_round(run, index, 1, env, traced, plain)["totals"])

    def self_s(name: str) -> float:
        return tracer.self_ns[name] / 1e9

    def layer_self_s(layer: str) -> float:
        return sum(ns for name, ns in tracer.self_ns.items() if name.startswith(layer + ".")) / 1e9

    counts, calls = tracer.counts, tracer.calls
    mul, init = counts["algebra.tensor_mul"], counts["algebra.tensor_init"]
    box, roots = counts["lattice.box_lattice_points"], counts["demazure.roots_up_to"]
    m = {
        "algebra.self_s": (layer_self_s("algebra"), "s"),
        "algebra.tensor_mul.calls": (calls["algebra.tensor_mul"], "count"),
        "algebra.tensor_mul.self_s": (self_s("algebra.tensor_mul"), "s"),
        "algebra.tensor_mul.pairs_in": (mul["pairs_in"], "count"),
        "algebra.tensor_mul.terms_out": (mul["terms"], "count"),
        "algebra.merge_ratio": (ratio(mul["terms"], mul["pairs_in"]), "ratio"),
        "algebra.tensor_init.calls": (calls["algebra.tensor_init"], "count"),
        "algebra.tensor_init.self_s": (self_s("algebra.tensor_init"), "s"),
        "algebra.tensor_init.terms": (init["terms"], "count"),
        "algebra.to_json.self_s": (self_s("algebra.to_json"), "s"),
        "algebra.integral_coef_share": (
            ratio(mul["integral"] + init["integral"], mul["terms"] + init["terms"]), "ratio"),
        "monoids.self_s": (layer_self_s("monoids"), "s"),
        "monoids.comult.calls": (calls["monoids.comult"], "count"),
        "monoids.comult.self_s": (self_s("monoids.comult"), "s"),
        "monoids.comult.terms": (counts["monoids.comult"]["terms"], "count"),
        "monoids.verify.self_s": (self_s("monoids.verify"), "s"),
        "monoids.verify.box_points": (box["kept"], "count"),
        "monoids.comult_from_root_pair.calls": (calls["monoids.comult_from_root_pair"], "count"),
        "monoids.comult_from_root_pair.self_s": (self_s("monoids.comult_from_root_pair"), "s"),
        "monoids.multiply_points.calls": (calls["monoids.multiply_points"], "count"),
        "monoids.multiply_points.self_s": (self_s("monoids.multiply_points"), "s"),
        "monoids.classify_cone.self_s": (self_s("monoids.classify_cone"), "s"),
        "lattice.self_s": (layer_self_s("lattice"), "s"),
        "lattice.box_lattice_points.calls": (calls["lattice.box_lattice_points"], "count"),
        "lattice.box_lattice_points.self_s": (self_s("lattice.box_lattice_points"), "s"),
        "lattice.box_lattice_points.scanned": (box["scanned"], "count"),
        "lattice.box_lattice_points.kept": (box["kept"], "count"),
        "lattice.box_yield": (ratio(box["kept"], max(box["kept"], box["scanned"])), "ratio"),
        "lattice.hilbert_basis.calls": (calls["lattice.hilbert_basis"], "count"),
        "lattice.hilbert_basis.self_s": (self_s("lattice.hilbert_basis"), "s"),
        "lattice.hilbert_basis.generators": (counts["lattice.hilbert_basis"]["generators"], "count"),
        "demazure.self_s": (layer_self_s("demazure"), "s"),
        "demazure.roots_up_to.calls": (calls["demazure.roots_up_to"], "count"),
        "demazure.roots_up_to.self_s": (self_s("demazure.roots_up_to"), "s"),
        "demazure.roots_up_to.scanned": (roots["scanned"], "count"),
        "demazure.roots_up_to.found": (roots["found"], "count"),
        "demazure.root_yield": (ratio(roots["found"], max(roots["found"], roots["scanned"])), "ratio"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.stdout_bytes": (traced.out_bytes, "count"),
        "cli.import_ms": (import_ms(env), "ms"),
        "trace.ops": (len(traced.walls), "count"),
        "trace.untraced_s": (sum(plain.walls), "s"),
        "trace.overhead_s": (sum(traced.walls) - sum(plain.walls), "s"),
        "trace.overhead_share": (ratio(sum(traced.walls) - sum(plain.walls), sum(plain.walls)), "ratio"),
    }
    detail = {
        "rounds": rounds,
        "traced_root_s": tracer.root_ns / 1e9,
        "min_self_ns": tracer.min_self_ns,
        "stdout_sha256": traced.sha.hexdigest(),
        "stdout_sha256_ops": len(traced.walls),
    }
    return m, detail


def environment(seed: int, load: tuple) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(load),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bench_inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    load = os.getloadavg()
    args = parse_args(argv)
    cli = load_cli()
    env = child_env()
    run = Run(args.workload, args.seed)
    setup_s = statistics.median(setup(run, cli.main, env) for _ in range(SETUP_REPEATS))
    if args.trace:
        metrics, detail = per_layer(run, args.seconds, env)
    else:
        metrics, detail = end_to_end(run, args.seconds, setup_s, env)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed, load),
        "setup_repeats": SETUP_REPEATS,
        "op_error_share": run.failed / run.attempted,
        "failures": run.failures,
        **detail,
        "result": result,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
