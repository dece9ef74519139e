"""Output checker, independent of the package under test.

``check(argv, code, stdout)`` recomputes what one CLI invocation must print
from the formulas of the paper and the benchmark's own integer arithmetic,
and returns the number of output items it verified.  Any mismatch raises
:class:`CheckError`.  Nothing here imports ``toricmonoids``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from bench_inputs import box_points, det, dot, roots_in_box

VERIFY_CHECKS = ("cone-closure", "counit-left", "counit-right", "coassociativity", "multiplicativity")


class CheckError(Exception):
    """An output that does not match the recomputed expectation."""


def _flags(argv: list[str]) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(len(argv)) if argv[i].startswith("--")}


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _one_json(stdout: str):
    _expect(stdout.endswith("\n") and stdout.count("\n") == 1, "output is not one JSON line")
    return json.loads(stdout)


def check(argv: list[str], code: int, stdout: str) -> int:
    """Verify one invocation's exit code and output; return its item count."""
    try:
        return _CHECKERS[argv[0]](argv, code, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:  # malformed output
        raise CheckError(f"{type(exc).__name__}: {exc}") from None


def _check_verify(argv, code, stdout) -> int:
    _expect(code == 0, f"exit code {code}")
    checks = _one_json(stdout)["checks"]
    expected = [{"name": name, "status": "pass", "witness": None} for name in VERIFY_CHECKS]
    _expect(checks == expected, "the axiom checks are not all passing, in order")
    return box_points(json.loads(argv[1]), int(_flags(argv)["--box"]))


def _binomials(d: int):
    c = 1
    for i in range(d + 1):
        yield c
        c = c * (d - i) // (i + 1)


def _check_terms(terms, expected) -> int:
    """``expected`` holds ``(left, right, coef)`` triples; output is in key order."""
    expected.sort(key=lambda t: (t[0], t[1]))
    _expect(len(terms) == len(expected), f"{len(terms)} terms, expected {len(expected)}")
    for term, (left, right, coef) in zip(terms, expected):
        _expect(
            term["left"] == left and term["right"] == right and term["coef"] == str(coef),
            f"term {term['left']} (x) {term['right']} differs from the expansion",
        )
    return len(terms)


def _check_comult(argv, code, stdout) -> int:
    _expect(code == 0, f"exit code {code}")
    terms = _one_json(stdout)
    flags = _flags(argv)
    ux, uy = json.loads(flags["--monomial"])
    payload = json.loads(argv[1])
    if "--pair" not in flags:
        # x^a y^b -> sum_i C(a, i) x^(a-i) y^(b+n*i) (x) x^i y^b
        n = payload["n"]
        expected = [
            ([ux - i, uy + n * i], [i, uy], c) for i, c in enumerate(_binomials(ux))
        ]
        return _check_terms(terms, expected)
    # chi^u (x) chi^u (1 (x) chi^e1 + chi^e2 (x) 1)^d with d = <p_i, u>
    pair = json.loads(flags["--pair"])
    (e1x, e1y), (e2x, e2y) = pair[0]["e"], pair[1]["e"]
    p = payload["rays"][pair[0]["ray_index"]]
    d = dot((ux, uy), p)
    expected = [
        ([ux + j * e2x, uy + j * e2y], [ux + (d - j) * e1x, uy + (d - j) * e1y], c)
        for j, c in enumerate(_binomials(d))
    ]
    return _check_terms(terms, expected)


def _chart(spec: dict):
    """Generators of the chart coordinates and the decomposition of a monomial.

    ``X(n, 1, b)``: coordinates ``chi^(1, b), chi^(0, 1)``; ``Y(n, 1, b)``:
    ``chi^(1, -n-b), chi^(0, -1)``; ``X(n, 2, 2k+1)``: ``chi^(0, 1),
    chi^(1, k+1), chi^(2, 2k+1)``.
    """
    n, a, b = spec["n"], spec["a"], spec["b"]
    if a == 1:
        y_step = b if spec["family"] == "X" else -n - b
        sign = 1 if spec["family"] == "X" else -1
        gens = [(1, y_step), (0, sign)]

        def powers(u):
            return [u[0], sign * (u[1] - u[0] * y_step)]

        return gens, powers
    k = (b - 1) // 2
    gens = [(0, 1), (1, k + 1), (2, 2 * k + 1)]

    def powers(u):
        g3, g2 = divmod(u[0], 2)
        return [u[1] - g2 * (k + 1) - g3 * (2 * k + 1), g2, g3]

    return gens, powers


def _check_multiply(argv, code, stdout) -> int:
    _expect(code == 0, f"exit code {code}")
    spec = json.loads(argv[1])
    flags = _flags(argv)
    p = [Fraction(v) for v in json.loads(flags["--p"])]
    q = [Fraction(v) for v in json.loads(flags["--q"])]
    gens, powers = _chart(spec)

    def value(u, point):
        out = Fraction(1)
        for c, e in zip(point, powers(u)):
            _expect(e >= 0, f"monomial {u} is outside the chart")
            out *= c**e
        return out

    # Each product coordinate is the comultiplication of its generator
    # evaluated at (p, q).
    n = spec["n"]
    expected = []
    for gx, gy in gens:
        expected.append(
            sum(
                c * value((gx - i, gy + n * i), p) * value((i, gy), q)
                for i, c in enumerate(_binomials(gx))
            )
        )
    got = _one_json(stdout)
    _expect(got == [str(v) for v in expected], "chart product differs from the comultiplication")
    return len(got)


def _in_cone(rays, u) -> bool:
    r1, r2 = rays
    d = det(r1, r2)
    alpha, beta = det(u, r2), det(r1, u)
    return alpha >= 0 and beta >= 0 if d > 0 else alpha <= 0 and beta <= 0


def _check_catalog(argv, code, stdout) -> int:
    _expect(code == 0, f"exit code {code}")
    flags = _flags(argv)
    n_max, a_max, b_max, k_max = (int(flags[f]) for f in ("--n-max", "--a-max", "--b-max", "--k-max"))
    specs = [
        (family, n, a, b)
        for n in range(1, n_max + 1)
        for a in range(1, a_max + 1)
        for b in range(0, b_max + 1)
        if math.gcd(a, b) == 1
        for family in ("X", "Y")
    ]
    lines = stdout.splitlines()
    _expect(stdout.endswith("\n"), "catalog does not end with a newline")
    _expect(len(lines) == len(specs), f"{len(lines)} catalog lines, expected {len(specs)}")
    for line, (family, n, a, b) in zip(lines, specs):
        entry = json.loads(line)
        _expect(entry["spec"] == {"family": family, "n": n, "a": a, "b": b}, f"entry {entry['spec']} out of order")
        rays = [[0, 1], [a, b]] if family == "X" else [[0, -1], [a, -n * a - b]]
        _expect(entry["cone"] == {"rays": rays, "ambient": "M"}, f"wrong cone for {family}({n},{a},{b})")
        basis = entry["hilbert_basis"]
        _expect(all(r in basis for r in rays), f"a ray is missing from the Hilbert basis of {family}({n},{a},{b})")
        _expect(all(_in_cone(rays, g) for g in basis), "a Hilbert basis element leaves the cone")
        _expect(basis == sorted(basis), "Hilbert basis is not sorted")
        shift = 0 if family == "X" else n
        invariants = [-((-k * b) // a) + shift * k for k in range(1, k_max + 1)]
        _expect(entry["invariants"] == invariants, f"invariants of {family}({n},{a},{b})")
        heavy, light = b + a * n, b
        if family == "Y":
            heavy, light = light, heavy
        boundary = {"left_weight": heavy, "right_weight": light, "has_zero": b > 0, "idempotent_line": b == 0}
        _expect(entry["boundary"] == boundary, f"boundary of {family}({n},{a},{b})")
    return len(lines)


def _check_roots(argv, code, stdout) -> int:
    _expect(code == 0, f"exit code {code}")
    flags = _flags(argv)
    rays = [tuple(r) for r in json.loads(argv[1])["rays"]]
    i, bound = int(flags["--ray"]), int(flags["--bound"])
    got = _one_json(stdout)
    for root in got:
        e = root["e"]
        _expect(root["ray_index"] == i, "root at the wrong ray")
        _expect(dot(e, rays[i]) == -1 and dot(e, rays[1 - i]) >= 0, f"{e} fails the pairing conditions")
    expected = [{"e": list(e), "ray_index": i} for e in roots_in_box(rays, i, bound)]
    _expect(len(got) == len(expected), f"{len(got)} roots, expected {len(expected)}")
    _expect(got == expected, "root list differs from the extended-gcd progression")
    return len(got)


def _expected_classification(payload: dict, n: int) -> tuple[int, dict]:
    if payload.get("halfplane"):
        return 0, {"family": "Group", "n": n}
    rays = sorted(tuple(r) for r in payload["rays"])
    # The weight-n comultiplication restricts iff (0, y) and (0, y + n*x)
    # lie in the cone for both rays (x, y).
    for x, y in rays:
        for target in ((0, y), (0, y + n * x)):
            if not _in_cone(rays, target):
                return 1, {"error": "not-a-monoid", "witness": [x, y], "missing": list(target), "n": n}
    if (0, 1) in rays:
        a, b = rays[1 - rays.index((0, 1))]
        return 0, {"family": "X", "n": n, "a": a, "b": b}
    a, y = rays[1 - rays.index((0, -1))]
    return 0, {"family": "Y", "n": n, "a": a, "b": -n * a - y}


def _check_classify(argv, code, stdout) -> int:
    want_code, want = _expected_classification(json.loads(argv[1]), int(_flags(argv)["--n"]))
    _expect(code == want_code, f"exit code {code}, expected {want_code}")
    _expect(_one_json(stdout) == want, "classification differs")
    return 1


_CHECKERS = {
    "verify": _check_verify,
    "comult": _check_comult,
    "multiply": _check_multiply,
    "catalog": _check_catalog,
    "roots": _check_roots,
    "classify": _check_classify,
}
