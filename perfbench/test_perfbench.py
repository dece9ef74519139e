"""Tests of the benchmark itself: seeded inputs, the output checker and the tracer."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_check  # noqa: E402
import bench_inputs  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from toricmonoids import cli, monoids  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_main(argv, main=cli.main):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def first_op(workload: str, command: str) -> list[str]:
    for index in range(5):
        for argv in bench_inputs.round_ops(workload, 7, index):
            if argv[0] == command:
                return argv
    raise AssertionError(f"no {command} op in {workload}")


@pytest.mark.parametrize("workload", bench_inputs.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = bench_inputs.rounds(workload, 3, 3)
    assert bench_inputs.rounds(workload, 3, 3) == first
    assert bench_inputs.rounds(workload, 4, 3) != first
    assert all(len(r) == bench_inputs.OPS_PER_ROUND for r in first)


@pytest.mark.parametrize("workload", bench_inputs.WORKLOADS)
def test_checker_accepts_real_outputs(workload):
    for argv in bench_inputs.round_ops(workload, 11, 0):
        if argv[0] == "verify" and int(argv[3]) > 8:
            continue  # keep the test fast
        code, out = run_main(argv)
        assert bench_check.check(argv, code, out) >= 1, argv


def test_checker_expects_exit_1_for_a_cone_that_is_not_a_monoid():
    argv = ["classify", '{"rays": [[1, 2], [3, -1]], "ambient": "M"}', "--n", "1"]
    code, out = run_main(argv)
    assert code == 1
    assert bench_check.check(argv, code, out) == 1
    with pytest.raises(bench_check.CheckError):
        bench_check.check(argv, 0, out)


def test_checker_rejects_a_changed_coefficient():
    argv = first_op("expand", "comult")
    code, out = run_main(argv)
    terms = json.loads(out)
    terms[len(terms) // 2]["coef"] = str(int(terms[len(terms) // 2]["coef"]) + 1)
    with pytest.raises(bench_check.CheckError):
        bench_check.check(argv, code, json.dumps(terms) + "\n")


def test_checker_rejects_a_dropped_root():
    argv = first_op("geometry", "roots")
    code, out = run_main(argv)
    roots = json.loads(out)
    assert len(roots) > 1
    with pytest.raises(bench_check.CheckError):
        bench_check.check(argv, code, json.dumps(roots[:-1]) + "\n")


def test_checker_rejects_a_missing_catalog_line():
    argv = ["catalog", "--n-max", "2", "--a-max", "3", "--b-max", "3", "--k-max", "4"]
    code, out = run_main(argv)
    lines = out.splitlines(keepends=True)
    assert bench_check.check(argv, code, out) == len(lines)
    with pytest.raises(bench_check.CheckError):
        bench_check.check(argv, code, "".join(lines[:3] + lines[4:]))


def test_checker_rejects_a_wrong_chart_product_and_a_failed_axiom():
    argv = first_op("expand", "multiply")
    code, out = run_main(argv)
    coords = json.loads(out)
    coords[0] = "0" if coords[0] != "0" else "1"
    with pytest.raises(bench_check.CheckError):
        bench_check.check(argv, code, json.dumps(coords) + "\n")
    argv = ["verify", '{"family": "X", "n": 1, "a": 2, "b": 1}', "--box", "3"]
    code, out = run_main(argv)
    report = json.loads(out)
    report["checks"][3] = {"name": "coassociativity", "status": "fail", "witness": {"monomial": [1, 1]}}
    with pytest.raises(bench_check.CheckError):
        bench_check.check(argv, code, json.dumps(report) + "\n")


def test_traced_self_times_are_nonnegative_and_sum_to_the_root_span():
    ops = [
        ["verify", '{"family": "Group", "n": 2}', "--box", "3"],
        first_op("expand", "comult"),
        ["catalog", "--n-max", "1", "--a-max", "4", "--b-max", "4", "--k-max", "2"],
        ["roots", '{"rays": [[0, 1], [3, -2]], "ambient": "N"}', "--ray", "0", "--bound", "5"],
    ]
    original = monoids.comult
    tracer = Tracer()
    with tracer:
        assert monoids.comult is not original
        outputs = [run_main(argv, lambda a: tracer.run_root(cli.main, a)) for argv in ops]
    assert monoids.comult is original
    assert [run_main(argv) for argv in ops] == outputs
    assert tracer.min_self_ns >= 0
    assert all(ns >= 0 for ns in tracer.self_ns.values())
    assert sum(tracer.self_ns.values()) <= tracer.root_ns
    assert tracer.calls["cli.main"] == len(ops)
    assert tracer.calls["monoids.verify"] == 1
    assert tracer.calls["lattice.hilbert_basis"] == len(outputs[2][1].splitlines())
    # Membership tests are counted as the scans make them: a 7 x 7 box, an 11 x 11 box.
    assert tracer.counts["lattice.box_lattice_points"] == {"scanned": 49, "kept": 28}
    assert tracer.counts["demazure.roots_up_to"]["scanned"] == 121
    assert tracer.counts["demazure.roots_up_to"]["found"] == len(json.loads(outputs[3][1])) > 0


def test_metric_names_match_benchmark_json(monkeypatch):
    import run as bench_run

    monkeypatch.setattr(bench_run, "MIN_CLI_ROUNDS", 1)
    monkeypatch.setattr(bench_run, "IMPORT_PAIRS", 1)
    env = bench_run.child_env()
    run = bench_run.Run("geometry", 5)
    e2e, e2e_detail = bench_run.end_to_end(run, 0.1, 0.5, env)
    layers, detail = bench_run.per_layer(run, 1, env)
    assert list(e2e) == [m["name"] for m in BENCH["end_to_end"]]
    assert list(layers) == [m["name"] for m in BENCH["per_layer"]]
    assert all(e2e[m["name"]][1] == m["unit"] for m in BENCH["end_to_end"])
    assert all(layers[m["name"]][1] == m["unit"] for m in BENCH["per_layer"])
    assert run.failed == 0 and run.attempted == 40
    assert layers["algebra.tensor_init.calls"][0] == 0 and layers["lattice.hilbert_basis.calls"][0] > 0
    # Times are scaled by REFERENCE_S / reference median, rates by its inverse; memory is not scaled.
    raw, factor = e2e_detail["raw_metrics"], bench_run.REFERENCE_S / e2e_detail["reference_median_s"]
    assert e2e_detail["reference_samples"] == 2 * e2e_detail["rounds"]
    assert e2e["op_p50_ms"][0] == pytest.approx(raw["op_p50_ms"] * factor)
    assert e2e["items_per_s"][0] == pytest.approx(raw["items_per_s"] / factor)
    assert e2e["peak_rss_mb"][0] == raw["peak_rss_mb"]


def test_cli_peak_rss_is_the_childs_own():
    import run as bench_run

    ballast = bytearray(64 << 20)
    ballast[::4096] = bytes(len(range(0, len(ballast), 4096)))  # touch every page
    argv = ["classify", '{"halfplane": true}', "--n", "1"]
    res = bench_run.run_cli(argv, bench_run.child_env())
    assert bench_check.check(argv, res["code"], res["out"]) == 1
    assert 0 < res["rss_kb"] < 60 << 10 < len(ballast) >> 10


def test_exits_nonzero_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout == ""
