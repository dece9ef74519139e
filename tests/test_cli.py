import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import toricmonoids
from toricmonoids import cli, monoids
from toricmonoids import (
    ComultRule,
    Family,
    MonoidSpec,
    boundary,
    box_lattice_points,
    cone_of_spec,
    distinguish,
    image_ideal_codim,
)
from toricmonoids.cli import MAX_POWER_BITS, MAX_VERIFY_BOX, MAX_VERIFY_TERMS, _verify_terms, main


def stdin_of(text):
    """A standard input that holds ``text`` as UTF-8 bytes, which the CLI reads through ``buffer``."""
    return io.TextIOWrapper(io.BytesIO(text.encode()))


def run_cli(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", stdin_of(stdin))
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

    @pytest.mark.parametrize("ambient, code", [('"M"', 0), ('"N"', 2), ('"Q"', 2), ("[1]", 2)])
    def test_half_plane_ambient_read(self, capsys, ambient, code):
        payload = '{"halfplane": true, "ambient": %s}' % ambient
        got, out, err = run_cli(capsys, "classify", payload, "--n", "4")
        assert got == code
        if code == 0:
            assert json.loads(out) == {"family": "Group", "n": 4}
        else:
            assert out == "" and len(err.splitlines()) == 1

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

    def test_stdin_file_and_stdout_file(self, tmp_path):
        # ``< FILE`` and ``> FILE``: the script writes the bytes the payload argument prints.
        payload = '{"rays":[[0,1],[1,0]],"ambient":"M"}'
        src, dst = tmp_path / "cone.json", tmp_path / "spec.json"
        src.write_text(payload)
        with open(src, "rb") as fin, open(dst, "wb") as fout:
            proc = _run_script(["classify", "--n", "3"], stdin=fin, stdout=fout)
        assert (proc.returncode, proc.stderr) == (0, b"")
        given = _run_script(["classify", payload, "--n", "3"], stdout=subprocess.PIPE)
        assert dst.read_bytes() == given.stdout == b'{"family": "X", "n": 3, "a": 1, "b": 0}\n'


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


class _CountingSink(io.TextIOBase):
    """A text stream that keeps only the number of characters written to it."""

    chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


class TestComultStreaming:
    """``comult`` writes its JSON in pieces: it never holds the whole text."""

    def test_peak_memory_is_below_two_and_a_half_times_the_output(self):
        argv = ["comult", '{"family":"X","n":1,"a":1,"b":0}', "--monomial", "[2000,0]"]
        sink = _CountingSink()
        with contextlib.redirect_stdout(_CountingSink()):
            main(argv)  # builds the parser outside the measurement
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars == 975_098
        assert peak < 2.5 * sink.chars, peak / sink.chars

    def test_exponent_past_the_digit_limit_in_the_last_piece_writes_only_the_error(self, capsys):
        # 601 terms at the ray (0, 1), whose left x-exponent steps from 10^4300 - 600 up by one
        # per term: only the last term's passes the limit, in the third piece.  Nothing of the
        # expansion is written.
        pair = '[{"e":[0,-1],"ray_index":0},{"e":[1,-1],"ray_index":0}]'
        argv = ["comult", QUADRANT_N, "--monomial", f"[{10**4300 - 600},600]", "--pair", pair]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (1, "")
        assert list(json.loads(out)) == ["error"] and out.count("\n") == 1
        assert "4300 digits" in out


class TestSpecCommands:
    def test_invariants(self, capsys):
        code, out, _ = run_cli(
            capsys, "invariants", '{"family":"X","n":2,"a":3,"b":2}', "--k-max", "6"
        )
        assert code == 0
        spec = MonoidSpec.x(2, 3, 2)
        assert json.loads(out) == [image_ideal_codim(spec, k) for k in range(1, 7)]

    @pytest.mark.parametrize("family", ["X", "Y"])
    def test_invariants_at_the_k_cap(self, capsys, family):
        payload = f'{{"family":"{family}","n":3,"a":7,"b":5}}'
        code, out, _ = run_cli(capsys, "invariants", payload, "--k-max", "1000")
        assert code == 0
        spec = MonoidSpec.from_json(json.loads(payload))
        assert json.loads(out) == [image_ideal_codim(spec, k) for k in range(1, 1001)]

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


_coprime_ab = st.tuples(st.integers(1, 12), st.integers(0, 12)).filter(lambda ab: gcd(*ab) == 1)


class TestVerifyLimits:
    """``verify --box`` is refused before any scan when the box or its expansions are too large."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["Group", "X", "Y"]), st.integers(1, 5), _coprime_ab, st.integers(1, 25))
    def test_term_count_equals_a_count_over_the_box_scan(self, family, n, ab, box):
        spec = MonoidSpec.group(n) if family == "Group" else MonoidSpec(Family(family), n, *ab)
        scanned = box_lattice_points(cone_of_spec(spec), box)
        assert _verify_terms(spec, box) == sum(x + 1 for x, _ in scanned)

    def test_large_expansion_refused_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", '{"family":"X","n":1,"a":1,"b":0}', "--box", "40")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: the box monomials of --box 40 expand to 35301 terms, at most {MAX_VERIFY_TERMS}"
        ]

    def test_box_above_the_ceiling_refused(self, capsys):
        box = str(MAX_VERIFY_BOX + 1)
        code, out, err = run_cli(capsys, "verify", '{"family":"X","n":1,"a":1,"b":10000}', "--box", box)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: --box is at most {MAX_VERIFY_BOX}, got {box}"]
        code, _, _ = run_cli(
            capsys, "verify", '{"family":"X","n":1,"a":1,"b":10000}', "--box", str(MAX_VERIFY_BOX)
        )
        assert code == 0

    def test_exactly_at_the_term_budget_runs(self, capsys):
        spec = MonoidSpec.y(1, 6, 25)
        assert _verify_terms(spec, 68) == MAX_VERIFY_TERMS < _verify_terms(spec, 69)
        payload = json.dumps(spec.to_json())
        code, out, _ = run_cli(capsys, "verify", payload, "--box", "68")
        assert code == 0
        assert all(c["status"] == "pass" for c in json.loads(out)["checks"])
        code, out, err = run_cli(capsys, "verify", payload, "--box", "69")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1


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
        with pytest.raises(SystemExit) as exc:
            main(["catalog", "--n-max", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", "error: argument --n-max: expected a positive integer, got '0'\n")


QUADRANT_N = '{"rays":[[1,0],[0,1]],"ambient":"N"}'
ROOT_1 = '{"e":[-1,1],"ray_index":1}'
# The most digits CPython converts between int and str by default, and one more.
DIGITS_4300 = "9" * 4300
DIGITS_4301 = "1" + "0" * 4300


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
            ("classify", "[1,2]", "--n", "1"),
            ("roots", "5", "--ray", "0"),
            (
                "comult", '{"rays":[[1,0],[0,1]],"ambient":"M"}', "--monomial", "[1,1]",
                "--pair", '[{"e":[-1,0],"ray_index":1},{"e":[-1,1],"ray_index":1}]',
            ),
            ("roots", QUADRANT_N, "--ray", "1", "--bound", "1001"),
            ("roots", QUADRANT_N, "--ray", "1", "--bound", "100000000"),
            ("comult", '{"family":"X","n":1,"a":1,"b":0}', "--monomial", "[15000,0]"),
            (
                "comult", QUADRANT_N, "--monomial", "[15000,0]",
                "--pair", '[{"e":[-1,0],"ray_index":1},{"e":[-1,1],"ray_index":1}]',
            ),
            ("multiply", '{"family":"X","n":1,"a":1,"b":20000}', "--p", '["2","2"]', "--q", '["1","1"]'),
            ("catalog", "--n-max", "1", "--a-max", "1", "--b-max", "1", "--k-max", "100000000"),
            ("catalog", "--n-max", "101"),
            ("catalog", "--a-max", "101"),
            ("catalog", "--b-max", "101"),
            ("invariants", '{"family":"X","n":2,"a":3,"b":2}', "--k-max", "1001"),
            ("comult", '{"family":"Group","n":1}', "--monomial", f"[1,{DIGITS_4301}]"),
            ("verify", f'{{"family":"X","n":{DIGITS_4301},"a":1,"b":0}}'),
            (
                "comult", '{"rays":[[1,1],[0,1]],"ambient":"N"}',
                "--monomial", f"[{DIGITS_4300},{DIGITS_4300}]",
                "--pair", '[{"e":[-1,0],"ray_index":1},{"e":[-1,1],"ray_index":1}]',
            ),
            (
                "comult", QUADRANT_N, "--monomial", "[1,1]",
                "--pair", '[{"e":[-1,0],"ray_index":1},{"e":[0,-1],"ray_index":0}]',
            ),
            ("classify", '{"halfplane": "false"}', "--n", "1"),
            ("classify", '{"halfplane": 1}', "--n", "1"),
            ("classify", '{"halfplane": "no"}', "--n", "1"),
            ("classify", '{"halfplane": [0]}', "--n", "1"),
            ("classify", '{"halfplane": true, "rays": [[1,0],[0,1]], "ambient": "M"}', "--n", "1"),
            ("comult", '{"family":"X","n":1,"a":1,"b":0}', "--monomial", "[1,2,3]"),
            ("multiply", '{"family":"X","n":1,"a":1,"b":1}', "--p", '{"a":1}', "--q", "[1,2]"),
            ("multiply", '{"family":"X","n":1,"a":1,"b":1}', "--p", '["1e10000","1"]', "--q", '["1","1"]'),
            ("comult", QUADRANT_N, "--monomial", "[1,0]", "--pair", f"[{ROOT_1}]"),
            ("comult", QUADRANT_N, "--monomial", "[1,0]", "--pair", ROOT_1),
        ],
        ids=["bool-n", "bool-exponent", "bool-point", "zero-denominator", "root-without-ray-index",
             "root-without-e", "root-e-not-a-pair", "root-ray-index-string", "root-not-an-object",
             "roots-of-m-cone", "classify-n-cone",
             "cone-payload-list", "cone-payload-number", "comult-pair-of-m-cone",
             "roots-bound-1001", "roots-bound-1e8", "comult-x-exponent-15000",
             "comult-pair-degree-15000", "multiply-b-20000", "catalog-k-max-1e8",
             "catalog-n-max-101", "catalog-a-max-101", "catalog-b-max-101", "invariants-k-max-1001",
             "monomial-over-digit-limit", "payload-over-digit-limit", "pair-degree-over-digit-limit",
             "pair-roots-on-different-rays", "halfplane-string-false", "halfplane-one",
             "halfplane-string-no", "halfplane-list", "halfplane-with-rays", "monomial-triple",
             "point-object", "point-exponent-over-digit-limit", "pair-of-one-root", "pair-not-a-list"],
    )
    def test_payload_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("classify", "{}", "--n", "1"), "not a cone payload: missing key 'rays'"),
            (("classify", '{"rays": 5}', "--n", "1"), "not a cone payload: a cone is given by exactly two rays"),
            (("classify", '{"rays": [[1,0],5]}', "--n", "1"), "not a cone payload: ray 5 is not a pair of integers"),
            (("opposite", "[]"), "not a monoid spec payload: expected a JSON object"),
            (("opposite", '{"n": 1}'), "not a monoid spec payload: missing key 'family'"),
            (
                ("comult", QUADRANT_N, "--monomial", "[1,0]", "--pair", f'[{{"e":[-1,0]}},{ROOT_1}]'),
                "not a root pair: missing key 'ray_index'",
            ),
            (
                ("comult", QUADRANT_N, "--monomial", "[1,0]", "--pair", f"[7,{ROOT_1}]"),
                "not a root pair: expected a JSON object",
            ),
            (
                ("comult", QUADRANT_N, "--monomial", "[1,0]", "--pair", f'[{{"e":5,"ray_index":1}},{ROOT_1}]'),
                "not a root pair: root e 5 is not a pair of integers",
            ),
            (
                ("comult", QUADRANT_N, "--monomial", "[1,0]", "--pair", f'[{{"e":null,"ray_index":1}},{ROOT_1}]'),
                "not a root pair: root e null is not a pair of integers",
            ),
            (
                ("comult", QUADRANT_N, "--monomial", "[1,0]", "--pair", f'[{{"e":{{"x":1}},"ray_index":1}},{ROOT_1}]'),
                'not a root pair: root e {"x": 1} is not a pair of integers',
            ),
            (
                ("opposite", '{"family": null, "n": 1}'),
                'not a monoid spec payload: family must be "Group", "X" or "Y", got null',
            ),
            (
                ("opposite", '{"family": "Group", "n": true}'),
                "not a monoid spec payload: n must be an integer, got true",
            ),
            (
                ("opposite", '{"family": "Group", "n": "1"}'),
                'not a monoid spec payload: n must be an integer, got "1"',
            ),
            (
                ("opposite", '{"family": "X", "n": 1, "a": null, "b": 0}'),
                "not a monoid spec payload: a must be an integer, got null",
            ),
            (
                ("classify", '{"rays": [[1,0],[0,1]], "ambient": null}', "--n", "1"),
                'not a cone payload: ambient must be "M" or "N", got null',
            ),
            (
                ("classify", '{"halfplane": true, "ambient": null}', "--n", "1"),
                'not a cone payload: ambient must be "M" or "N", got null',
            ),
            (
                ("comult", QUADRANT_N, "--monomial", "[1,0]", "--pair", f'[{{"e":[-1,0],"ray_index":"1"}},{ROOT_1}]'),
                'not a root pair: ray_index must be an integer, got "1"',
            ),
            (
                ("classify", '{"rays":[[true,0],[0,1]]}', "--n", "1"),
                "not a cone payload: exact integer required, got true",
            ),
            (
                ("comult", QUADRANT_N, "--monomial", "[1,0]", "--pair", f'[{{"e":[-1,"0"],"ray_index":1}},{ROOT_1}]'),
                'not a root pair: exact integer required, got "0"',
            ),
            (
                ("comult", '{"family":"X","n":1,"a":1,"b":0}', "--monomial", "[true,0]"),
                "monomial: exact integer required, got true",
            ),
            (
                ("multiply", '{"family":"X","n":1,"a":1,"b":1}', "--p", "[true, 2]", "--q", "[1,2]"),
                "point p: exact rational required, got true",
            ),
            (
                ("multiply", '{"family":"X","n":1,"a":1,"b":1}', "--p", '["abc", 2]', "--q", "[1,2]"),
                'point p: exact rational required, got "abc"',
            ),
        ],
        ids=["cone-no-rays", "cone-rays-a-number", "cone-ray-a-number", "spec-a-list", "spec-no-family",
             "root-no-ray-index", "root-a-number", "root-e-a-number", "root-e-null", "root-e-an-object",
             "spec-family-null", "spec-n-true", "spec-n-a-string", "spec-a-null", "cone-ambient-null",
             "halfplane-ambient-null", "root-ray-index-a-string", "ray-coordinate-true",
             "root-e-coordinate-a-string", "monomial-coordinate-true", "point-coordinate-true",
             "point-coordinate-not-a-number"],
    )
    def test_shape_errors_in_the_payload_words(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("roots", QUADRANT_N, "--ray", "1", "--bound", "1001"), "--bound is at most 1000, got 1001"),
            (("catalog", "--a-max", "101"), "--a-max is at most 100, got 101"),
            (("catalog", "--n-max", "101", "--b-max", "200"), "--n-max is at most 100, got 101"),
            (("invariants", '{"family":"X","n":2,"a":3,"b":2}', "--k-max", "1001"), "--k-max is at most 1000, got 1001"),
            (("catalog", "--k-max", "1001"), "--k-max is at most 1000, got 1001"),
            (
                ("comult", '{"family":"X","n":1,"a":1,"b":0}', "--monomial", "[15000,0]"),
                "the monomial x-exponent is at most 10000, got 15000",
            ),
            (
                ("multiply", '{"family":"X","n":1,"a":1,"b":20000}', "--p", '["2","2"]', "--q", '["1","1"]'),
                "b + n is at most 10000, got 20001",
            ),
            (
                ("multiply", '{"family":"Y","n":1,"a":31,"b":2}', "--p", "[1]", "--q", "[1]"),
                "a is at most 30, got 31",
            ),
            (
                (
                    "comult", '{"rays":[[1,1],[0,1]],"ambient":"N"}',
                    "--monomial", f"[{DIGITS_4300},{DIGITS_4300}]",
                    "--pair", '[{"e":[-1,0],"ray_index":1},{"e":[-1,1],"ray_index":1}]',
                ),
                "the root-pair degree <p_i, u> is at most 10000, got a 14286-bit integer",
            ),
        ],
        ids=["roots-bound", "catalog-a-max", "catalog-first-bound-over", "invariants-k-max", "catalog-k-max",
             "comult-x-exponent", "multiply-b-plus-n", "multiply-a", "pair-degree-over-digit-limit"],
    )
    def test_caps_in_one_wording(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "spec, p, q, message",
        [
            ('{"family":"X","n":1,"a":1,"b":1}', "[1,2]", "[1,2,3]",
             "point q: X(1,1,1) chart points have 2 coordinates, got 3"),
            ('{"family":"X","n":1,"a":1,"b":1}', "[1,2,3]", "[1,2]",
             "point p: X(1,1,1) chart points have 2 coordinates, got 3"),
            ('{"family":"X","n":1,"a":2,"b":1}', "[1,1]", "[1,1,1]",
             "point p: X(1,2,1) chart points have 3 coordinates, got 2"),
        ],
        ids=["multiply-triple-on-a-plane-chart", "multiply-triple-p-on-a-plane-chart",
             "multiply-pair-on-the-quadric"],
    )
    def test_point_of_the_wrong_arity(self, capsys, spec, p, q, message):
        assert run_cli(capsys, "multiply", spec, "--p", p, "--q", q) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("spec", ['{"family":"Group","n":1}'], ids=["group"])
    def test_spec_without_a_chart_is_refused_before_the_arity(self, capsys, spec):
        code, out, err = run_cli(capsys, "multiply", spec, "--p", "[1,2,3,4]", "--q", "[1]")
        assert (code, err) == (1, "")
        assert list(json.loads(out)) == ["error"]

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
            ("catalog", "--n-max", "0"),
        ],
        ids=["box", "bound", "n", "invariants-k-max", "m", "catalog-k-max", "negative-box", "catalog-n-max"],
    )
    def test_size_below_one_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected a positive integer" in err.splitlines()[-1]

    @pytest.mark.parametrize(
        "argv, ending",
        [
            (("verify", '{"family":"Group","n":1}', "--box", "x"), "expected a positive integer, got 'x'\n"),
            (("catalog", "--n-max", "1.5"), "\n"),
            (("roots", QUADRANT_N, "--ray", "2"), "\n"),
            (("classify", "{}"), "\n"),
            (("verify", "--bogus"), "\n"),
            (("bogus",), "\n"),
            (("catalog", "--n-max", "1.5"), "expected a positive integer, got '1.5'\n"),
            (("catalog", "--b-max", "-1"), "expected a nonnegative integer, got '-1'\n"),
        ],
        ids=["bad-type", "bad-int", "bad-choice", "missing-option", "unknown-argument", "unknown-command",
             "catalog-bound-not-an-integer", "catalog-b-max"],
    )
    def test_argparse_refusals_in_one_line(self, capsys, argv, ending):
        # Only the package's own words are pinned: argparse words choices
        # differently across Python versions.
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.endswith(ending)
        assert "usage:" not in err



class TestMultiplyPowerSize:
    """``multiply`` refuses a chart product whose largest power term, a
    coordinate's bit length times b + 2n, is estimated over MAX_POWER_BITS."""

    BIG = 10**1000

    def _multiply(self, capsys, b, p, q):
        spec = f'{{"family":"X","n":1,"a":1,"b":{b}}}'
        return run_cli(capsys, "multiply", spec, "--p", json.dumps(p), "--q", json.dumps(q))

    def test_cancelling_terms_still_print(self, capsys):
        # p1*q2^b + p2^(b+1)*q1 = 7*10^1000 - 10^2000 * 7/10^1000 = 0.
        p, q = ["7", str(self.BIG)], [f"-7/{self.BIG}", str(self.BIG)]
        code, out, err = self._multiply(capsys, 1, p, q)
        assert (code, err) == (0, "")
        assert json.loads(out) == ["0", str(self.BIG**2)]

    def test_thousand_digit_coordinate_at_b_9999_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = self._multiply(capsys, 9999, ["7", str(self.BIG)], ["1", "1"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: a 3322-bit coordinate to the power 10001 is over {MAX_POWER_BITS} bits\n"

    def test_budget_is_inclusive(self, capsys):
        # A 1,024-bit coordinate to the power b + 2 = 1,024 is exactly 2**20 bits.
        assert MAX_POWER_BITS == 1024 * 1024
        p = [str(2**1023), "1"]
        code, out, _ = self._multiply(capsys, 1022, p, ["1", "1"])
        assert code == 0 and json.loads(out) == [str(2**1023 + 1), "1"]
        code, out, _ = self._multiply(capsys, 1023, p, ["1", "1"])
        assert (code, out) == (2, "")


def test_exponent_past_the_digit_limit_refused_at_once():
    # Fraction would spend hours on 10**1000000000; _run_script's timeout ends a child that tries.
    spec = '{"family":"X","n":1,"a":1,"b":1}'
    start = time.perf_counter()
    proc = _run_script(["multiply", spec, "--p", '["1e1000000000","1"]', "--q", '["1","1"]'])
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2
    assert proc.stderr.decode() == (
        'error: point p: "1e1000000000" has more than 4300 digits in its numerator or denominator\n'
    )


class TestMultiplyEveryChart:
    """``multiply`` works on every X and Y spec up to the ``a`` cap, on its Hilbert-basis chart."""

    def test_former_spec_without_a_chart_multiplies_and_refuses_a_point_off_the_surface(self, capsys):
        spec = '{"family":"Y","n":1,"a":2,"b":1}'
        code, out, err = run_cli(capsys, "multiply", spec, "--p", '["2","8","32"]', "--q", '["1","1","1"]')
        assert (code, out, err) == (0, '["2", "10", "50"]\n', "")
        code, out, err = run_cli(capsys, "multiply", spec, "--p", '["1","1","2"]', "--q", '["1","1","1"]')
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": "(1, 1, 2) is not a point of the Y(1,2,1) surface"}

    def test_bit_budget_shrinks_with_the_expansion_terms(self, capsys):
        # X(1,30,1) has the chart (0,1), (1,1), ..., (30,1): 31 * 32 / 2 = 496
        # expansion terms, so the budget is 2**20 * 6 // 496 = 12,684 bits.
        spec, zeros = '{"family":"X","n":1,"a":30,"b":1}', ["0"] * 30
        code, out, err = run_cli(capsys, "multiply", spec, "--p", json.dumps([str(2**408)] + zeros), "--q", '["1"]')
        assert (code, out) == (2, "") and "chart points have 31 coordinates" in err  # 409 * 31 bits fit
        code, out, err = run_cli(capsys, "multiply", spec, "--p", json.dumps([str(2**409)] + zeros), "--q", '["1"]')
        assert (code, out, err) == (2, "", "error: a 410-bit coordinate to the power 31 is over 12684 bits\n")

    def test_builds_the_chart_once(self, capsys, monkeypatch):
        # The arity check and the product share one chart: one Hilbert basis per command.
        calls = []
        basis = monoids.hilbert_basis
        monkeypatch.setattr(monoids, "hilbert_basis", lambda cone: calls.append(cone) or basis(cone))
        spec = '{"family":"Y","n":1,"a":2,"b":1}'
        code, out, err = run_cli(capsys, "multiply", spec, "--p", '["2","8","32"]', "--q", '["1","1","1"]')
        assert (code, out, err) == (0, '["2", "10", "50"]\n', "")
        assert len(calls) == 1

    def test_power_estimate_bounds_every_exponent_taken(self, capsys, monkeypatch):
        # With no bit budget the refusal names the estimate for a 1-bit coordinate.  Every
        # accepted a, every b up to 40, both families, n = 1, 2 and one seeded n up to 200.
        monkeypatch.setattr(cli, "MAX_POWER_BITS", 0)
        rng = random.Random(0)
        for a in range(1, cli.MAX_CHART_A + 1):
            for b in range(0, 41):
                if gcd(a, b) != 1:
                    continue
                for make in (MonoidSpec.x, MonoidSpec.y):
                    for n in (1, 2, rng.randint(3, 200)):
                        spec = make(n, a, b)
                        code, _, err = run_cli(
                            capsys, "multiply", json.dumps(spec.to_json()), "--p", "[1]", "--q", "[1]"
                        )
                        assert code == 2
                        estimate = int(err.split("to the power ")[1].split()[0])
                        chart = monoids._chart(spec, "")
                        taken = max(
                            power
                            for g in chart
                            for key in monoids.comult(ComultRule(n), g).support()
                            for leg in key
                            for power in monoids._powers(spec, chart, leg)[1:]
                        )
                        assert taken <= estimate, (spec, taken, estimate)
                        if a <= 2:
                            assert estimate == b + 2 * n


class TestErrorContract:
    """Domain failures exit 1 with JSON; unusable input exits 2 with one stderr line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", '{"rays":[[0,1],[-1,0]],"ambient":"M"}', "--n", "1"),
            (
                "comult", QUADRANT_N, "--monomial", "[1,1]",
                "--pair", '[{"e":[-1,0],"ray_index":1},{"e":[-3,0],"ray_index":1}]',
            ),
            # <(5, 5), (1, 0)> = 5: not a Demazure root at the ray.
            (
                "comult", QUADRANT_N, "--monomial", "[1,1]",
                "--pair", '[{"e":[5,5],"ray_index":1},{"e":[-1,1],"ray_index":1}]',
            ),
            # 10 + 10^10000 has more digits than CPython converts to str.
            ("multiply", '{"family":"X","n":1,"a":1,"b":9999}', "--p", '["10","10"]', "--q", '["1","1"]'),
            # The y-exponents 3n and 10^4300 of the outputs have 4,301 digits.
            ("comult", f'{{"family":"X","n":{DIGITS_4300},"a":1,"b":0}}', "--monomial", "[3,0]"),
            ("comult", '{"family":"Group","n":1}', "--monomial", f"[1,{DIGITS_4300}]"),
        ],
        ids=["classify-left-half-plane", "comult-leaves-cone", "comult-pair-not-a-root",
             "multiply-product-over-digit-limit",
             "comult-spec-n-over-digit-limit", "comult-exponent-over-digit-limit"],
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
        # ``--json-out`` is gone (``> FILE`` replaces it): refused in one line, nothing written.
        target = tmp_path / "missing" / "x.json"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--json-out", str(target)])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: unrecognized arguments: --json-out")
        assert not target.parent.exists()

    def test_unreadable_json_in_exit_2(self, capsys, tmp_path):
        # ``--json-in`` is gone (``< FILE`` replaces it): refused in one line, before any read.
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--n", "1", "--json-in", str(tmp_path / "missing.json")])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: unrecognized arguments: --json-in")


def test_group_spec_with_a_exit_2(capsys):
    code, out, err = run_cli(capsys, "opposite", '{"family":"Group","n":2,"a":"x"}')
    assert code == 2
    assert out == ""
    assert err.startswith("error: not a monoid spec payload: ") and len(err.splitlines()) == 1


def _run_script(argv, **kwargs):
    """The ``toricmonoids`` script's entry point, ``cli.run``, in a child interpreter."""
    src = str(Path(toricmonoids.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "from toricmonoids.cli import run; run()"
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, timeout=60, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestFullDevice:
    """A write that fails (no space left) exits 2 with one stderr line, never a traceback.

    So does ``--json-out /dev/full``, refused as an option that is gone.
    """

    ARGVS = [
        pytest.param(("opposite", '{"family":"X","n":1,"a":1,"b":0}'), id="opposite"),
        pytest.param(("catalog",), id="catalog"),
        pytest.param(("classify", '{"rays":[[1,1],[1,-1]],"ambient":"M"}', "--n", "1"), id="domain-failure"),
    ]

    @pytest.mark.parametrize("argv", ARGVS)
    def test_json_out(self, argv):
        # ``--json-out`` is gone: the script refuses it in one line, before any write.
        proc = _run_script([*argv, "--json-out", "/dev/full"], stdout=subprocess.PIPE)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.decode() == "error: unrecognized arguments: --json-out /dev/full\n"

    @pytest.mark.parametrize("argv", ARGVS)
    def test_stdout(self, argv):
        with open("/dev/full", "w") as full:
            proc = _run_script(argv, stdout=full)
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith("error: cannot write standard output: ")
        assert len(proc.stderr.splitlines()) == 1


class TestStdinRoute:
    """The script decodes standard input as strict UTF-8 whatever the locale; a standard
    input that is closed, not UTF-8 or cannot be read exits 2 in one line."""

    ARGV = ["classify", "--n", "1"]

    def _refusal(self, proc):
        assert (proc.returncode, proc.stdout) == (2, b"")
        return proc.stderr.decode()

    def test_closed(self):
        proc = _run_script(self.ARGV, stdout=subprocess.PIPE, preexec_fn=lambda: os.close(0))
        assert self._refusal(proc) == "error: cannot read standard input: it is closed\n"

    def test_not_utf8(self):
        proc = _run_script(self.ARGV, input=b'{"halfplane": true, "note": "\xe9"}', stdout=subprocess.PIPE)
        assert self._refusal(proc) == "error: cannot read standard input: not UTF-8 text\n"

    def test_open_for_writing_only(self):
        with open(os.devnull, "wb") as write_only:
            proc = _run_script(self.ARGV, stdin=write_only, stdout=subprocess.PIPE)
        assert self._refusal(proc) == "error: cannot read standard input: Bad file descriptor\n"


class TestUnwritableOutput:
    """A closed stdout exits 2 with one stderr line.  A stderr that is closed, open for reading
    only (as when fd 2 was closed and then reused) or full leaves a usage error at exit 2, with
    nothing on stdout and no traceback anywhere."""

    OPPOSITE = ["opposite", '{"family":"X","n":1,"a":1,"b":0}']
    BAD_PAYLOAD = ["classify", "{", "--n", "1"]

    def test_closed_stdout(self):
        proc = _run_script(self.OPPOSITE, stdout=subprocess.PIPE, preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.decode() == "error: cannot write standard output: it is closed\n"

    STDERR_FILES = {"read-only": (os.devnull, "r"), "full": ("/dev/full", "w")}

    def _run_with_stderr(self, kind, argv, stdout):
        if kind == "closed":
            return _run_script(argv, stdout=stdout, preexec_fn=lambda: os.close(2))
        path, mode = self.STDERR_FILES[kind]
        if not os.path.exists(path):
            pytest.skip(f"needs {path}")
        with open(path, mode) as stderr:
            return _run_script(argv, stdout=stdout, stderr=stderr)

    @pytest.mark.parametrize("kind", ["closed", "read-only", "full"])
    def test_usage_error(self, kind):
        proc = self._run_with_stderr(kind, self.BAD_PAYLOAD, subprocess.PIPE)
        assert (proc.returncode, proc.stdout) == (2, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("kind", ["closed", "read-only"])
    def test_full_stdout(self, kind):
        with open("/dev/full", "w") as full:
            assert self._run_with_stderr(kind, self.OPPOSITE, full).returncode == 2


class TestGoldenBytes:
    """Exact stdout of commands whose output the value classes build."""

    def test_catalog(self, capsys):
        code, out, err = run_cli(
            capsys, "catalog", "--n-max", "1", "--a-max", "1", "--b-max", "1", "--k-max", "2"
        )
        assert (code, err) == (0, "")
        assert out == GOLDEN_CATALOG

    @pytest.mark.parametrize(
        "b, line",
        [
            ("0", '{"left_weight": 1, "right_weight": 0, "has_zero": false, "idempotent_line": true}\n'),
            ("1", '{"left_weight": 2, "right_weight": 1, "has_zero": true, "idempotent_line": false}\n'),
        ],
        ids=["X(1,1,0)", "X(1,1,1)"],
    )
    def test_boundary(self, capsys, b, line):
        assert run_cli(capsys, "boundary", f'{{"family":"X","n":1,"a":1,"b":{b}}}') == (0, line, "")

    def test_passing_verify(self, capsys):
        expected = (
            '{"checks": [{"name": "cone-closure", "status": "pass", "witness": null}, '
            '{"name": "counit-left", "status": "pass", "witness": null}, '
            '{"name": "counit-right", "status": "pass", "witness": null}, '
            '{"name": "coassociativity", "status": "pass", "witness": null}, '
            '{"name": "multiplicativity", "status": "pass", "witness": null}]}\n'
        )
        assert run_cli(capsys, "verify", '{"family":"X","n":1,"a":1,"b":0}', "--box", "2") == (0, expected, "")


GOLDEN_CATALOG = (
    '{"spec": {"family": "X", "n": 1, "a": 1, "b": 0}, "cone": {"rays": [[0, 1], [1, 0]], "ambient": "M"}, '
    '"hilbert_basis": [[0, 1], [1, 0]], "invariants": [0, 0], '
    '"boundary": {"left_weight": 1, "right_weight": 0, "has_zero": false, "idempotent_line": true}}\n'
    '{"spec": {"family": "Y", "n": 1, "a": 1, "b": 0}, "cone": {"rays": [[0, -1], [1, -1]], "ambient": "M"}, '
    '"hilbert_basis": [[0, -1], [1, -1]], "invariants": [1, 2], '
    '"boundary": {"left_weight": 0, "right_weight": 1, "has_zero": false, "idempotent_line": true}}\n'
    '{"spec": {"family": "X", "n": 1, "a": 1, "b": 1}, "cone": {"rays": [[0, 1], [1, 1]], "ambient": "M"}, '
    '"hilbert_basis": [[0, 1], [1, 1]], "invariants": [1, 2], '
    '"boundary": {"left_weight": 2, "right_weight": 1, "has_zero": true, "idempotent_line": false}}\n'
    '{"spec": {"family": "Y", "n": 1, "a": 1, "b": 1}, "cone": {"rays": [[0, -1], [1, -2]], "ambient": "M"}, '
    '"hilbert_basis": [[0, -1], [1, -2]], "invariants": [2, 4], '
    '"boundary": {"left_weight": 1, "right_weight": 2, "has_zero": true, "idempotent_line": false}}\n'
)


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


def run_captured(argv, stdin=""):
    """``main(argv)`` in-process: exit code, stdout, stderr, and whether it raised ``SystemExit``."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = stdin_of(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code, exited = main(list(argv)), False
            except SystemExit as exc:
                code, exited = exc.code, True
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue(), exited


class TestSharedParser:
    ARGVS = [
        ("classify", '{"rays":[[0,1],[2,3]],"ambient":"M"}', "--n", "1"),
        ("roots", QUADRANT_N, "--ray", "1", "--bound", "3"),
        ("comult", '{"family":"X","n":1,"a":1,"b":0}', "--monomial", "[2,0]"),
        ("verify", '{"family":"X","n":1,"a":1,"b":0}', "--box", "0"),
        ("comult", QUADRANT_N, "--monomial", "[1,1]", "--pair", f"[{ROOT_1},{ROOT_1}]"),
        ("catalog", "--help"),
        ("no-such-command",),
        ("quotient", '{"family":"X","n":6,"a":1,"b":2}', "--m", "3"),
        ("catalog", "--n-max", "1", "--a-max", "1", "--b-max", "1", "--k-max", "2"),
        ("classify", '{"rays":[[1,1],[1,-1]],"ambient":"M"}', "--n", "1"),
        ("--help",),
        ("opposite", '{"family":"X","n":3,"a":2,"b":1}'),
    ]

    def test_same_results_as_a_fresh_parser_per_call(self, monkeypatch):
        import toricmonoids.cli as cli

        monkeypatch.setattr(cli, "_parser", None)
        shared = [run_captured(argv) for argv in self.ARGVS]
        fresh = []
        for argv in self.ARGVS:
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(run_captured(argv))
        assert [r[:2] for r in shared] == [r[:2] for r in fresh]
        assert [r[0] for r in shared] == [0, 0, 0, 2, 0, 0, 2, 0, 0, 1, 0, 0]
        assert shared[5][1].startswith("usage: toricmonoids catalog")

    def test_built_once_per_process(self, monkeypatch):
        import toricmonoids.cli as cli

        assert cli.build_parser() is not cli.build_parser()
        real, built = cli.build_parser, []

        def counting_build_parser():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        for argv in self.ARGVS[:4]:
            run_captured(argv)
        assert len(built) == 1


def _mostly(common, rare):
    """``common`` nine times in ten, ``rare`` otherwise."""
    return st.integers(0, 9).flatmap(lambda i: rare if i == 9 else common)


_number = _mostly(
    st.integers(-2, 6).map(str),
    st.sampled_from([DIGITS_4300, DIGITS_4301, "-" + DIGITS_4300, "true", "1.5", '"2"', "null"]),
)
_natural = _mostly(st.integers(0, 6).map(str), _number)


def _spec_of(family):
    """A spec payload of ``family``; a Group payload leaves out ``a`` and ``b`` nine times in ten."""
    full = st.builds(
        '{{"family":"{}","n":{},"a":{},"b":{}}}'.format, st.just(family), _natural, _natural, _natural
    )
    if family != "Group":
        return full
    return _mostly(st.builds('{{"family":"Group","n":{}}}'.format, _natural), full)


_spec = _mostly(st.sampled_from(["X", "Y", "Group"]), st.just("Z")).flatmap(_spec_of)


def _cone(ambient):
    return st.builds(
        '{{"rays":[[{}, {}], [{}, {}]],"ambient":"{}"}}'.format,
        _number, _number, _number, _number, _mostly(st.just(ambient), st.sampled_from("MN")),
    )


_junk = st.sampled_from(["", "{", "[1,2]", "null", "7", '{"family":"X"}', '{"rays":[]}'])
_any_payload = st.one_of(_spec, _cone("M"), _cone("N"), st.just('{"halfplane": true}'), _junk)
_size = _mostly(
    st.integers(1, 3).map(str), st.sampled_from(["0", "-1", "x", "1001", "101", DIGITS_4301])
)
_pair = st.builds(
    '[{{"e":[{}, {}],"ray_index":{}}},{{"e":[{}, {}],"ray_index":{}}}]'.format,
    *[_number, _number, _mostly(st.sampled_from(["0", "1"]), st.just('"1"'))] * 2,
)
_monomial = st.builds("[{}, {}]".format, _natural, _number)


def _normal(x, y, ox, oy):
    """The primitive normal to the primitive ``(x, y)`` that pairs positively with ``(ox, oy)``."""
    s = 1 if x * oy - y * ox > 0 else -1
    return (-s * y, s * x)


@st.composite
def _root_pair_parts(draw):
    """``(cone, monomial, pair)`` texts of a root-pair expansion that does the work.

    The cone in N has primitive rays in [-6, 6]^2.  With ``p`` the drawn ray,
    ``q`` the other, ``v`` and ``w`` the normals to ``p`` and to ``q``: both roots
    lie on ``p``'s root half-line ``e0 + j*v``, ``j >= 0``, where ``<e0, p> = -1``
    and ``0 <= <e0, q> < <v, q>``, and the monomial ``a*v + b*w`` lies in the dual cone.
    """
    ray = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(lambda r: gcd(*r) == 1)
    rays = draw(
        st.lists(ray, min_size=2, max_size=2).filter(lambda r: r[0][0] * r[1][1] != r[0][1] * r[1][0])
    )
    rays.sort()
    i = draw(st.integers(0, 1))
    (px, py), (qx, qy) = rays[i], rays[1 - i]
    (vx, vy), (wx, wy) = _normal(px, py, qx, qy), _normal(qx, qy, px, py)
    ex, ey = next((-s, -t) for s in range(-6, 7) for t in range(-6, 7) if s * px + t * py == 1)
    k = -((ex * qx + ey * qy) // (vx * qx + vy * qy))
    ex, ey = ex + k * vx, ey + k * vy
    j1, j2, a, b = (draw(st.integers(0, 3)) for _ in range(4))
    cone = json.dumps({"rays": rays, "ambient": "N"})
    pair = json.dumps([{"e": [ex + j * vx, ey + j * vy], "ray_index": i} for j in (j1, j2)])
    return cone, f"[{a * vx + b * wx}, {a * vy + b * wy}]", pair


# One draw per test case, shared by the payload and both flags; nine times in
# ten a valid cone with two roots at one ray, else independent draws.
_pair_parts = st.shared(
    _mostly(_root_pair_parts(), st.tuples(_cone("N"), _monomial, _pair)), key="comult-pair"
)
_rational = _mostly(_number, st.sampled_from(['"1/2"', '"-3/4"', '"1/0"', '"x"']))
_point = st.builds("[{}, {}]".format, _rational, _rational)
# Per subcommand: the payload it expects, and its flags with their values.
# Sizes stay below the caps, or are refused by them.
_COMMANDS = {
    "classify": (_mostly(_cone("M"), st.just('{"halfplane": true}')), [("--n", _size)]),
    "roots": (_cone("N"), [("--ray", _mostly(st.sampled_from("01"), st.just("2"))), ("--bound", _size)]),
    "comult": (_spec, [("--monomial", _monomial)]),
    "comult-pair": (
        _pair_parts.map(lambda t: t[0]),
        [("--monomial", _pair_parts.map(lambda t: t[1])), ("--pair", _pair_parts.map(lambda t: t[2]))],
    ),
    "invariants": (_spec, [("--k-max", _size)]),
    "quotient": (_spec, [("--m", _size)]),
    "opposite": (_spec, []),
    "boundary": (_spec, []),
    "multiply": (_spec, [("--p", _point), ("--q", _point)]),
    "verify": (_spec, [("--box", _mostly(st.sampled_from(["1", "2"]), st.sampled_from(["0", "x"])))]),
    "catalog": (st.nothing(), [(f, _size) for f in ("--n-max", "--a-max", "--b-max", "--k-max")]),
}


@st.composite
def _argv(draw, names=tuple(sorted(_COMMANDS))):
    name = draw(st.sampled_from(names))
    payload, flags = _COMMANDS[name]
    argv = [name.split("-")[0]]
    if name != "catalog" and draw(st.integers(0, 9)) < 9:
        argv.append(draw(_mostly(payload, _any_payload)))
    for flag, values in flags:
        if draw(st.integers(0, 9)) < 9:
            argv += [flag, draw(values)]
    if draw(st.integers(0, 19)) == 19:
        argv.append(draw(st.sampled_from(["--bogus", "--n", "extra", "--json-in"])))
    return argv, draw(_mostly(payload, _any_payload) if name != "catalog" else _junk)


class TestArgvFuzz:
    """Any argv ends in exit 0, 1 or 2 with JSON or one usage error, never a traceback."""

    @settings(max_examples=400, deadline=2000)
    @given(st.lists(_argv(), min_size=1, max_size=4))
    def test_exit_codes_and_output(self, calls):
        for argv, stdin in calls:
            code, out, err, exited = run_captured(argv, stdin)
            assert code in (0, 1, 2), argv
            assert code == 2 or not exited, argv
            assert "Traceback" not in err
            # The JSON ``true``, ``null``, ``"2"``, ``"1/0"`` and ``"x"`` of the draws are
            # quoted as the user wrote them, never as Python reprs or Python's words.
            for word in ("True", "None", "bool ", "Invalid literal"):
                assert word not in err, (argv, err)
            if code == 2:
                assert out == ""
                assert len(err.splitlines()) == 1, (argv, err)
            lines = out.splitlines() if argv[0] == "catalog" else [out] if out else []
            for line in lines:
                json.loads(line)

    @pytest.mark.parametrize("name", ["comult", "opposite", "verify"])
    def test_group_payloads_reach_the_work(self, name):
        # Fixed draws: a Group payload of each route ends in exit 0 on some of them.
        codes = []

        @settings(max_examples=100, derandomize=True, database=None, deadline=None)
        @given(_argv(names=(name,)))
        def draw(call):
            argv, stdin = call
            payload = argv[1] if len(argv) > 1 and not argv[1].startswith("--") else stdin
            if payload.startswith('{"family":"Group"'):
                codes.append(run_captured(argv, stdin)[0])

        draw()
        assert 0 in codes, codes

    def test_root_pairs_reach_the_work(self):
        # Fixed draws: most comult --pair calls expand a root pair and exit 0.
        codes = []

        @settings(max_examples=100, derandomize=True, database=None, deadline=None)
        @given(_argv(names=("comult-pair",)))
        def draw(call):
            codes.append(run_captured(*call)[0])

        draw()
        assert codes.count(0) * 2 > len(codes), codes
