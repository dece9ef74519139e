import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricmonoids
from toricmonoids import MonoidSpec, boundary, distinguish, image_ideal_codim
from toricmonoids.cli import main


def run_cli(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_x_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", '{"rays":[[0,1],[2,3]],"ambient":"M"}', "--n", "1"
        )
        assert code == 0
        assert json.loads(out) == {"family": "X", "n": 1, "a": 2, "b": 3}

    def test_half_plane_sentinel(self, capsys):
        code, out, _ = run_cli(capsys, "classify", '{"halfplane": true}', "--n", "4")
        assert code == 0
        assert json.loads(out) == {"family": "Group", "n": 4}

    def test_not_a_monoid_exit_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", '{"rays":[[1,1],[1,-1]],"ambient":"M"}', "--n", "1"
        )
        assert code == 1
        data = json.loads(out)
        assert data["error"] == "not-a-monoid"
        assert data["witness"] == [1, -1]
        assert data["missing"] == [0, -1]

    def test_malformed_json_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "{not json", "--n", "1")
        assert code == 2
        assert "JSON" in err

    def test_bad_cone_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", '{"rays":[[1,2],[2,4]]}', "--n", "1")
        assert code == 2

    def test_stdin_payload(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            "classify",
            "--n",
            "2",
            stdin='{"rays":[[0,-1],[1,-3]],"ambient":"M"}',
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out) == {"family": "Y", "n": 2, "a": 1, "b": 1}

    def test_json_in_and_out_files(self, capsys, tmp_path):
        src = tmp_path / "cone.json"
        dst = tmp_path / "spec.json"
        src.write_text('{"rays":[[0,1],[1,0]],"ambient":"M"}')
        code, out, _ = run_cli(
            capsys, "classify", "--n", "3", "--json-in", str(src), "--json-out", str(dst)
        )
        assert code == 0
        assert out == ""
        assert json.loads(dst.read_text()) == {"family": "X", "n": 3, "a": 1, "b": 0}


class TestRoots:
    def test_quadrant(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "roots",
            '{"rays":[[1,0],[0,1]],"ambient":"N"}',
            "--ray",
            "1",
            "--bound",
            "3",
        )
        assert code == 0
        assert json.loads(out) == [
            {"e": [-1, 0], "ray_index": 1},
            {"e": [-1, 1], "ray_index": 1},
            {"e": [-1, 2], "ray_index": 1},
            {"e": [-1, 3], "ray_index": 1},
        ]

    def test_default_bound_documented(self, capsys):
        code, out, _ = run_cli(capsys, "roots", '{"rays":[[1,0],[0,1]],"ambient":"N"}', "--ray", "1")
        assert code == 0
        assert len(json.loads(out)) == 11  # (-1, 0) .. (-1, 10)


class TestComult:
    def test_spec_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "comult",
            '{"family":"X","n":1,"a":1,"b":0}',
            "--monomial",
            "[1,0]",
        )
        assert code == 0
        assert json.loads(out) == [
            {"left": [0, 1], "right": [1, 0], "coef": "1"},
            {"left": [1, 0], "right": [0, 0], "coef": "1"},
        ]

    def test_root_pair_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "comult",
            '{"rays":[[1,0],[0,1]],"ambient":"N"}',
            "--monomial",
            "[1,0]",
            "--pair",
            '[{"e":[-1,0],"ray_index":1},{"e":[-1,1],"ray_index":1}]',
        )
        assert code == 0
        assert json.loads(out) == [
            {"left": [0, 1], "right": [1, 0], "coef": "1"},
            {"left": [1, 0], "right": [0, 0], "coef": "1"},
        ]

    def test_monomial_outside_cone_exit_1(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "comult",
            '{"family":"X","n":1,"a":2,"b":3}',
            "--monomial",
            "[1,1]",
        )
        assert code == 1
        assert "error" in json.loads(out)


class TestSpecCommands:
    def test_invariants(self, capsys):
        code, out, _ = run_cli(
            capsys, "invariants", '{"family":"X","n":2,"a":3,"b":2}', "--k-max", "6"
        )
        assert code == 0
        spec = MonoidSpec.x(2, 3, 2)
        assert json.loads(out) == [image_ideal_codim(spec, k) for k in range(1, 7)]

    def test_invariants_group_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", '{"family":"Group","n":2}')
        assert code == 1

    def test_quotient(self, capsys):
        code, out, _ = run_cli(capsys, "quotient", '{"family":"X","n":2,"a":1,"b":2}', "--m", "2")
        assert code == 0
        assert json.loads(out) == {"family": "X", "n": 1, "a": 1, "b": 1}

    def test_quotient_bad_m_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "quotient", '{"family":"X","n":2,"a":1,"b":2}', "--m", "3")
        assert code == 1

    def test_opposite(self, capsys):
        code, out, _ = run_cli(capsys, "opposite", '{"family":"X","n":3,"a":2,"b":1}')
        assert code == 0
        assert json.loads(out) == {"family": "Y", "n": 3, "a": 2, "b": 1}

    def test_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "boundary", '{"family":"X","n":1,"a":1,"b":1}')
        assert code == 0
        assert json.loads(out) == {
            "left_weight": 2,
            "right_weight": 1,
            "has_zero": True,
            "idempotent_line": False,
        }

    def test_multiply(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "multiply",
            '{"family":"X","n":1,"a":1,"b":1}',
            "--p",
            '["1/2","2"]',
            "--q",
            '["3","4"]',
        )
        assert code == 0
        # (1/2 * 4 + 2^2 * 3, 2 * 4)
        assert json.loads(out) == ["14", "8"]

    def test_multiply_rationals_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "multiply",
            '{"family":"Y","n":2,"a":1,"b":1}',
            "--p",
            '["1/3","1/5"]',
            "--q",
            '["2","7"]',
        )
        assert code == 0
        x1, y1, x2, y2 = map(__import__("fractions").Fraction, ("1/3", "1/5", "2", "7"))
        assert [json.loads(out)[0], json.loads(out)[1]] == [
            str(x1 * y2 ** 3 + y1 * x2),
            str(y1 * y2),
        ]

    def test_verify_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", '{"family":"X","n":2,"a":3,"b":2}', "--box", "4")
        assert code == 0
        report = json.loads(out)
        assert all(c["status"] == "pass" for c in report["checks"])


class TestCatalog:
    def test_count_and_uniqueness(self, capsys):
        code, out, _ = run_cli(
            capsys, "catalog", "--n-max", "2", "--a-max", "2", "--b-max", "2", "--k-max", "4"
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        # coprime (a, b) with a <= 2, b <= 2: (1,0), (1,1), (1,2), (2,1); times 2 weights, 2 families
        assert len(lines) == 16
        keys = [(e["spec"]["family"], e["spec"]["n"], e["spec"]["a"], e["spec"]["b"]) for e in lines]
        assert len(set(keys)) == len(keys)

    def test_entries_consistent(self, capsys):
        code, out, _ = run_cli(
            capsys, "catalog", "--n-max", "2", "--a-max", "3", "--b-max", "2", "--k-max", "5"
        )
        assert code == 0
        entries = [json.loads(line) for line in out.splitlines()]
        specs = []
        for e in entries:
            spec = MonoidSpec.from_json(e["spec"])
            specs.append(spec)
            assert e["invariants"] == [image_ideal_codim(spec, k) for k in range(1, 6)]
            assert e["boundary"] == boundary(spec).to_json()
            assert len(e["invariants"]) == 5
        for s1 in specs:
            for s2 in specs:
                assert distinguish(s1, s2) == (s1 != s2)

    def test_deterministic(self, capsys):
        args = ("catalog", "--n-max", "2", "--a-max", "2", "--b-max", "2", "--k-max", "3")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_lines_round_trip_bit_exactly(self, capsys):
        _, out, _ = run_cli(
            capsys, "catalog", "--n-max", "2", "--a-max", "2", "--b-max", "2", "--k-max", "3"
        )
        for line in out.splitlines():
            assert json.dumps(json.loads(line)) == line

    def test_bad_bounds_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "catalog", "--n-max", "0")
        assert code == 2


QUADRANT_N = '{"rays":[[1,0],[0,1]],"ambient":"N"}'
ROOT_1 = '{"e":[-1,1],"ray_index":1}'


class TestRejectedInput:
    """Malformed input exits 2 with one stderr line, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", '{"family":"X","n":true,"a":1,"b":0}'),
            ("comult", '{"family":"X","n":1,"a":1,"b":0}', "--monomial", "[true,0]"),
            ("multiply", '{"family":"X","n":1,"a":1,"b":1}', "--p", "[true,2]", "--q", "[1,2]"),
            ("multiply", '{"family":"X","n":1,"a":1,"b":1}', "--p", '["1/0",2]', "--q", "[1,2]"),
            ("comult", QUADRANT_N, "--monomial", "[1,0]", "--pair", f'[{{"e":[-1,0]}},{ROOT_1}]'),
            ("comult", QUADRANT_N, "--monomial", "[1,0]", "--pair", f'[{{"ray_index":1}},{ROOT_1}]'),
            ("comult", QUADRANT_N, "--monomial", "[1,0]", "--pair", f'[{{"e":5,"ray_index":1}},{ROOT_1}]'),
            ("comult", QUADRANT_N, "--monomial", "[1,0]", "--pair", f'[{{"e":[-1,0],"ray_index":"1"}},{ROOT_1}]'),
            ("comult", QUADRANT_N, "--monomial", "[1,0]", "--pair", f"[7,{ROOT_1}]"),
            ("roots", '{"rays":[[0,1],[1,0]],"ambient":"M"}', "--ray", "0"),
            ("classify", '{"rays":[[0,1],[1,0]],"ambient":"N"}', "--n", "1"),
            ("catalog", "--n-max", "0"),
            ("catalog", "--b-max", "-1"),
            ("classify", "[1,2]", "--n", "1"),
            ("roots", "5", "--ray", "0"),
            (
                "comult", '{"rays":[[1,0],[0,1]],"ambient":"M"}', "--monomial", "[1,1]",
                "--pair", '[{"e":[-1,0],"ray_index":1},{"e":[-1,1],"ray_index":1}]',
            ),
            ("roots", QUADRANT_N, "--ray", "1", "--bound", "1001"),
            ("roots", QUADRANT_N, "--ray", "1", "--bound", "100000000"),
        ],
        ids=["bool-n", "bool-exponent", "bool-point", "zero-denominator", "root-without-ray-index",
             "root-without-e", "root-e-not-a-pair", "root-ray-index-string", "root-not-an-object",
             "roots-of-m-cone", "classify-n-cone", "catalog-n-max", "catalog-b-max",
             "cone-payload-list", "cone-payload-number", "comult-pair-of-m-cone",
             "roots-bound-1001", "roots-bound-1e8"],
    )
    def test_payload_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", '{"family":"X","n":1,"a":1,"b":0}', "--box", "0"),
            ("roots", QUADRANT_N, "--ray", "1", "--bound", "0"),
            ("classify", '{"rays":[[0,1],[2,3]],"ambient":"M"}', "--n", "0"),
            ("invariants", '{"family":"X","n":2,"a":3,"b":2}', "--k-max", "0"),
            ("quotient", '{"family":"X","n":2,"a":1,"b":2}', "--m", "0"),
            ("catalog", "--k-max", "0"),
            ("verify", '{"family":"X","n":1,"a":1,"b":0}', "--box", "-3"),
        ],
        ids=["box", "bound", "n", "invariants-k-max", "m", "catalog-k-max", "negative-box"],
    )
    def test_size_below_one_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected a positive integer" in err.splitlines()[-1]



class TestErrorContract:
    """Domain failures exit 1 with JSON; unusable files exit 2 with one stderr line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", '{"rays":[[0,1],[-1,0]],"ambient":"M"}', "--n", "1"),
            (
                "comult", QUADRANT_N, "--monomial", "[1,1]",
                "--pair", '[{"e":[-1,0],"ray_index":1},{"e":[-3,0],"ray_index":1}]',
            ),
        ],
        ids=["classify-left-half-plane", "comult-leaves-cone"],
    )
    def test_domain_error_json(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert err == ""
        assert list(json.loads(out)) == ["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", '{"rays":[[0,1],[2,3]],"ambient":"M"}', "--n", "1"),
            ("roots", QUADRANT_N, "--ray", "1"),
            ("comult", '{"family":"X","n":1,"a":1,"b":0}', "--monomial", "[1,0]"),
            ("invariants", '{"family":"X","n":2,"a":3,"b":2}'),
            ("quotient", '{"family":"X","n":6,"a":1,"b":2}', "--m", "3"),
            ("opposite", '{"family":"X","n":3,"a":2,"b":1}'),
            ("boundary", '{"family":"X","n":1,"a":1,"b":1}'),
            ("multiply", '{"family":"X","n":1,"a":1,"b":1}', "--p", "[1,2]", "--q", "[3,4]"),
            ("verify", '{"family":"X","n":1,"a":1,"b":0}', "--box", "1"),
            ("catalog", "--n-max", "1", "--a-max", "1", "--b-max", "1"),
            ("classify", '{"rays":[[1,1],[1,-1]],"ambient":"M"}', "--n", "1"),
        ],
        ids=["classify", "roots", "comult", "invariants", "quotient", "opposite", "boundary",
             "multiply", "verify", "catalog", "domain-failure"],
    )
    def test_unwritable_json_out_exit_2(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, *argv, "--json-out", str(target))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot write ")
        assert not target.parent.exists()

    def test_unreadable_json_in_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "classify", "--n", "1", "--json-in", str(tmp_path / "missing.json")
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot read ")


class TestCatalogStreaming:
    def test_lines_written_as_produced(self, capsys, monkeypatch):
        """A failure at the second entry leaves the first line already written."""
        import toricmonoids.cli as cli

        real = cli.boundary
        calls = []

        def failing_boundary(spec):
            calls.append(spec)
            if len(calls) == 2:
                raise RuntimeError("stop after the first entry")
            return real(spec)

        monkeypatch.setattr(cli, "boundary", failing_boundary)
        with pytest.raises(RuntimeError):
            main(["catalog", "--n-max", "1", "--a-max", "1", "--b-max", "0"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["spec"] == {"family": "X", "n": 1, "a": 1, "b": 0}

    def test_json_out_file_equals_stdout(self, capsys, tmp_path):
        argv = ["catalog", "--n-max", "2", "--a-max", "3", "--b-max", "2", "--k-max", "3"]
        code, out, _ = run_cli(capsys, *argv)
        dst = tmp_path / "catalog.ndjson"
        code_file, out_file, _ = run_cli(capsys, *argv, "--json-out", str(dst))
        assert code == code_file == 0
        assert out_file == ""
        assert dst.read_text() == out

    def test_reader_closing_early_is_quiet(self):
        """``catalog | head -1``: no traceback once the reader is gone."""
        src = str(Path(toricmonoids.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = ["catalog", "--n-max", "3", "--a-max", "12", "--b-max", "12"]
        with subprocess.Popen(
            [sys.executable, "-m", "toricmonoids.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert json.loads(first)["spec"]["a"] == 1
        assert err == b""
        assert code == 1

class TestUsage:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "{}"])
        assert exc.value.code == 2
