"""Command-line front-end: classification, root enumeration, comultiplication
expansion, invariants, quotients, opposites, boundary data, point products,
bialgebra verification, and catalog generation.

All payloads are JSON; the main payload of a subcommand is the positional
argument, or else the bytes of standard input read as UTF-8 (a standard input
that is closed, not UTF-8 or unreadable is a usage error).  Output is JSON on
standard output; the catalog is newline-delimited JSON, one entry per spec, in
a canonical order.

Exit codes: 0 success, 1 domain failure (a cone that is not a monoid, a
failed verification), 2 usage or malformed input.  :func:`main` maps every
domain error to one ``{"error": ...}`` object, and builds its argument
parser once per process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from math import gcd

from .algebra import _expansion_chunks
from .demazure import DemazureRoot, RootPair, roots_up_to
from .lattice import (
    M,
    N,
    Cone2,
    LatticePoint,
    _check_ambient,
    _json_rational,
    _json_xy,
    _quoted,
    hilbert_basis,
)
from .monoids import (
    Family,
    HalfPlane,
    MonoidSpec,
    NotAMonoidError,
    _chart,
    _image_ideal_codims,
    _monomial_progression,
    _multiply_on_chart,
    _root_pair_progression,
    boundary,
    classify_cone,
    cone_of_spec,
    opposite,
    quotient_by_center,
    verify_bialgebra,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

# ``roots`` tests every point of the (2*bound+1)^2 box: about 4 million tests at this
# bound, which take about 1.0 s in-process (CPython 3.11.7).
MAX_ROOT_BOUND = 1000
# The largest expansion degree: the x-exponent in spec mode and ``<p_i, u>`` in
# root-pair mode.  ``multiply`` caps ``b + n`` at it too, a bound on the
# exponents a chart product takes beside ``MAX_POWER_BITS``; its expansions
# have degree at most ``a``, which ``MAX_CHART_A`` caps.  The central binomial
# C(d, d/2) stays under CPython's 4,300-digit int-to-str limit up to
# d = 14,290 or so; the printer reads its base-10 text back with ``int`` for
# that check, and prints the whole row in base 10.  At the cap, ``comult``
# writes 22 MB of JSON, in pieces of 32 terms, in about 0.11 s of wall time,
# and peaks at about 26 MB RSS (Python 3.11.7).
MAX_DEGREE = 10_000
# ``multiply``: the chart is the Hilbert basis of the spec's cone, at most
# a + 1 monomials, whose expansions have T <= (a + 1)(a + 2)/2 terms in all.
MAX_CHART_A = 30
# ``multiply``: a chart product raised a point coordinate to at most the power
# b + max(a, 2)*n on every X and Y spec with a <= 30 and b <= 40, at n = 1, 2
# and at a seeded n up to 200 for each (a, b) and family.  Refused
# when the coordinate's bit length times that power is over this many bits
# (about 315,000 digits, 73 times the 4,300-digit output limit, so a product
# whose terms cancel, such as p2 = q2 = 10^1000, q1 = -p1/10^1000 at small
# b + n, still prints), times 6/T past the quadric's T = 6: each term takes
# such a power and, at rational points, gcds of its size.
MAX_POWER_BITS = 1 << 20
# ``--k-max`` of ``invariants`` and ``catalog``, and each catalog bound on n, a and b.
MAX_K = 1000
MAX_CATALOG_BOUND = 100
# ``verify --box``: the region is scanned point by point, O(box^2) membership
# tests (about 0.028 s at this box), and the checks are decided as the
# ``monoids.verify_comultiplication`` docstring says, holding one expansion at
# a time.  At 2,500 expansion terms a passing run takes about 0.010 s for
# ``Y(1,6,25) --box 68`` (490 monomials) and about 0.035 s for the slowest
# found, ``X(1,2,55) --box 197`` (812 monomials, 75% of it the box scan), with
# tracemalloc peaks of 26 and 27 KB; past the cap, ``Group(1) --box 16`` (5,049
# terms) takes about 0.012 s and ``X(3,5,7) --box 60`` (20,253) about 0.06 s,
# with peaks of 22 KB and 173 KB (in-process, minimum of 36, Python 3.11.7).
MAX_VERIFY_BOX = 200
MAX_VERIFY_TERMS = 2500


class UsageError(Exception):
    """Malformed payloads and other recoverable input problems (exit code 2)."""


# One catalog line with its newline: ``json.dumps`` of the entry that the library's values make,
# ``{"spec": spec.to_json(), "cone": cone.to_json(), "hilbert_basis": [...], "invariants": [...],
# "boundary": boundary(spec).to_json()}``, written out so that no line builds a dict.
_CATALOG_LINE = (
    '{"spec": {"family": "%s", "n": %d, "a": %d, "b": %d}, '
    '"cone": {"rays": [[0, %d], [%d, %d]], "ambient": "M"}, '
    '"hilbert_basis": [%s], "invariants": [%s], '
    '"boundary": {"left_weight": %d, "right_weight": %d, "has_zero": %s, "idempotent_line": %s}}\n'
)


def _catalog(n_max: int, a_max: int, b_max: int, k_max: int):
    """The catalog's lines: each X/Y spec with coprime (a, b) within the bounds, once.

    Canonical order: n, then a, then b, then family (X before Y); the specs
    are pairwise non-isomorphic.  Each line is ``_CATALOG_LINE`` filled from
    closed forms in (n, a, b), as ``cone_of_spec``, ``image_ideal_codim`` and
    ``boundary`` state them: the rays (0, 1) and (a, b) for X and (0, -1) and
    (a, -n*a - b) for Y, primitive and in sorted order; the invariants
    ceil(k*b/a) for X and that plus n*k for Y, k = 1..k_max; the boundary
    weights (b + a*n, b) for X, swapped for Y, with a zero exactly when b > 0.
    Only the Hilbert basis is computed, by ``hilbert_basis`` on the line's
    cone.  ``json.loads`` of a line equals the library's values, and each
    line is made only when the generator reaches it.
    """
    ks = range(1, k_max + 1)
    for n in range(1, n_max + 1):
        for a in range(1, a_max + 1):
            for b in range(0, b_max + 1):
                if gcd(a, b) != 1:
                    continue
                heavy = b + a * n
                ceilings = [-(-k * b // a) for k in ks]  # ceil(k*b/a), exact
                zero = ("true", "false") if b else ("false", "true")  # has_zero, idempotent_line
                for family, y0, y1, invariants, left, right in (
                    ("X", 1, b, ceilings, heavy, b),
                    ("Y", -1, -heavy, [c + n * k for k, c in zip(ks, ceilings)], b, heavy),
                ):
                    cone = Cone2((LatticePoint(0, y0, M), LatticePoint(a, y1, M)), M)
                    basis = ", ".join(["[%d, %d]" % (g.x, g.y) for g in hilbert_basis(cone)])
                    yield _CATALOG_LINE % (
                        family, n, a, b, y0, a, y1, basis, ", ".join(map(str, invariants)), left, right, *zero
                    )


def _payload_text(args) -> str:
    """The positional payload, else standard input decoded as strict UTF-8 whatever the locale."""
    if args.payload is not None:
        return args.payload
    if sys.stdin is None:  # started with fd 0 closed
        raise UsageError("cannot read standard input: it is closed")
    try:
        return sys.stdin.buffer.read().decode("utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read standard input: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError("cannot read standard input: not UTF-8 text") from None


def _read(text: str, name: str, what: str, build):
    """``build`` of the JSON ``text``: invalid JSON, or an integer past CPython's int-to-str digit
    limit, is one :class:`UsageError` after ``name``, a shape error of ``build`` one after ``what``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{name} is not valid JSON: {exc}") from None
    except ValueError as exc:  # the digit limit
        raise UsageError(f"{name}: {exc}") from None
    try:
        return build(data)
    except (KeyError, TypeError, ValueError) as exc:
        shown = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise UsageError(f"{what}: {shown}") from None


def _object(data) -> dict:
    if not isinstance(data, dict):
        raise TypeError("expected a JSON object")
    return data


def _region_of_json(data) -> Cone2 | HalfPlane:
    # Only JSON true selects the half plane; false or no key reads the rays.
    flag = _object(data).get("halfplane", False)
    if type(flag) is not bool:
        raise ValueError(f"halfplane must be true or false, got {json.dumps(flag)}")
    if flag and "rays" in data:
        raise ValueError("a half plane has no rays")
    return HalfPlane(_check_ambient(data.get("ambient", M), _quoted)) if flag else Cone2.from_json(data)


def _payload_cone(args) -> Cone2 | HalfPlane:
    return _read(_payload_text(args), "payload", "not a cone payload", _region_of_json)


def _payload_n_cone(args, what: str) -> Cone2:
    cone = _payload_cone(args)
    if isinstance(cone, HalfPlane) or cone.ambient != N:
        raise UsageError(f"{what} needs a strongly convex cone in N")
    return cone


def _payload_spec(args) -> MonoidSpec:
    spec = lambda data: MonoidSpec.from_json(_object(data))
    return _read(_payload_text(args), "payload", "not a monoid spec payload", spec)


def _root_pair_of_json(data) -> RootPair:
    if not isinstance(data, list) or len(data) != 2:
        raise TypeError("expected a JSON list of two roots")
    return RootPair(*map(DemazureRoot.from_json, [_object(r) for r in data]))


def _point_of_json(data) -> tuple:
    if not isinstance(data, list):
        raise TypeError("expected a JSON list of rationals")
    return tuple(map(_json_rational, data))


def _at_most(what: str, value: int, cap: int) -> None:
    """Refuse ``value`` above ``cap``, naming it as ``what``."""
    if value > cap:
        try:
            shown = str(value)
        except ValueError:  # past CPython's int-to-str digit limit
            shown = f"a {value.bit_length()}-bit integer"
        raise UsageError(f"{what} is at most {cap}, got {shown}")


def _int_at_least(floor: int, text: str) -> int:
    """argparse type for sizes and weights, with ``floor`` (1 or 0) bound by ``partial``."""
    try:
        value = int(text)
    except ValueError:
        value = floor - 1
    if value < floor:
        word = "positive" if floor else "nonnegative"
        raise argparse.ArgumentTypeError(f"expected a {word} integer, got {text!r}")
    return value


_positive_int = partial(_int_at_least, 1)
_nonnegative_int = partial(_int_at_least, 0)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _error(message: str) -> None:
    """One ``error:`` line on stderr.  A stderr that is closed or cannot be written (``2>&-``,
    ``2>/dev/full``) is left silent, since there is nowhere left to report it."""
    if sys.stderr is None:  # started with fd 2 closed
        return
    try:
        sys.stderr.write(f"error: {message}\n")
        sys.stderr.flush()
    except OSError:
        pass


def _domain_error(exc: Exception) -> dict:
    if isinstance(exc, NotAMonoidError):
        return {
            "error": "not-a-monoid",
            "witness": exc.witness.to_json(),
            "missing": exc.missing.to_json(),
            "n": exc.n,
        }
    return {"error": str(exc)}


def _cmd_classify(args) -> int:
    cone = _payload_cone(args)
    if cone.ambient != M:
        raise UsageError("classification needs an exponent cone in M")
    _emit(classify_cone(cone, args.n).to_json())
    return EXIT_OK


def _cmd_roots(args) -> int:
    _at_most("--bound", args.bound, MAX_ROOT_BOUND)
    cone = _payload_n_cone(args, "root enumeration")
    roots = roots_up_to(cone, args.ray, args.bound)
    _emit([r.to_json() for r in roots])
    return EXIT_OK


def _cmd_comult(args) -> int:
    monomial = _read(args.monomial, "monomial", "monomial", lambda data: _json_xy(data, "exponent"))
    if args.pair is not None:
        cone = _payload_n_cone(args, "the root-pair mode")
        pair = _read(args.pair, "root pair", "not a root pair", _root_pair_of_json)
        p = cone.rays[pair.ray_index]
        _at_most("the root-pair degree <p_i, u>", monomial[0] * p.x + monomial[1] * p.y, MAX_DEGREE)
        progression = _root_pair_progression(cone, pair, monomial)
    else:
        spec = _payload_spec(args)
        _at_most("the monomial x-exponent", monomial[0], MAX_DEGREE)
        progression = _monomial_progression(spec, monomial)
    # The checks of comult_from_root_pair or comult_monomial, then their expansion printed from
    # its closed form, never built.  An int past the digit limit raises here, before any output.
    chunks = _expansion_chunks(*progression)
    sys.stdout.writelines(chunks)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_invariants(args) -> int:
    _at_most("--k-max", args.k_max, MAX_K)
    spec = _payload_spec(args)
    _emit(_image_ideal_codims(spec, range(1, args.k_max + 1)))
    return EXIT_OK


def _cmd_quotient(args) -> int:
    spec = _payload_spec(args)
    _emit(quotient_by_center(spec, args.m).to_json())
    return EXIT_OK


def _cmd_opposite(args) -> int:
    spec = _payload_spec(args)
    _emit(opposite(spec).to_json())
    return EXIT_OK


def _cmd_boundary(args) -> int:
    spec = _payload_spec(args)
    _emit(boundary(spec).to_json())
    return EXIT_OK


def _cmd_multiply(args) -> int:
    spec = _payload_spec(args)
    p = _read(args.p, "point p", "point p", _point_of_json)
    q = _read(args.q, "point q", "point q", _point_of_json)
    if spec.family is not Family.GROUP:
        _at_most("a", spec.a, MAX_CHART_A)
        _at_most("b + n", spec.b + spec.n, MAX_DEGREE)
        power = spec.b + max(spec.a, 2) * spec.n
        budget = MAX_POWER_BITS * 6 // max(6, (spec.a + 1) * (spec.a + 2) // 2)
        bits = max((max(abs(c.numerator), c.denominator).bit_length() for c in p + q), default=0)
        if bits * power > budget:
            raise UsageError(f"a {bits}-bit coordinate to the power {power} is over {budget} bits")
    chart = _chart(spec, "point multiplication")
    arity = len(chart)
    for what, point in (("point p", p), ("point q", q)):
        if len(point) != arity:
            raise UsageError(f"{what}: {spec} chart points have {arity} coordinates, got {len(point)}")
    _emit([str(c) for c in _multiply_on_chart(spec, chart, p, q)])
    return EXIT_OK


def _verify_terms(spec: MonoidSpec, box: int) -> int:
    """Total comultiplication terms of the monomials ``verify --box`` checks.

    A monomial ``(x, y)`` expands to ``x + 1`` terms, and every spec region
    lies in ``x >= 0``.  Each stored normal ``(nx, ny)`` asks
    ``nx*x + ny*y >= 0``: a lower end of column ``x``'s interval of ``y`` when
    ``ny > 0``, an upper end when ``ny < 0``, and nothing when ``ny = 0``
    (then ``nx >= 0``).  So the sum costs O(box) steps, with no box scan.
    """
    normals = cone_of_spec(spec)._normals
    total = 0
    for x in range(box + 1):
        lo, hi = -box, box
        for nx, ny in normals:
            if ny > 0:
                lo = max(lo, -(nx * x // ny))
            elif ny < 0:
                hi = min(hi, nx * x // -ny)
        if hi >= lo:
            total += (x + 1) * (hi - lo + 1)
    return total


def _cmd_verify(args) -> int:
    _at_most("--box", args.box, MAX_VERIFY_BOX)
    spec = _payload_spec(args)
    terms = _verify_terms(spec, args.box)
    if terms > MAX_VERIFY_TERMS:
        raise UsageError(
            f"the box monomials of --box {args.box} expand to {terms} terms, "
            f"at most {MAX_VERIFY_TERMS}"
        )
    report = verify_bialgebra(spec, args.box)
    _emit(report.to_json())
    return EXIT_OK if report.passed else EXIT_DOMAIN


def _cmd_catalog(args) -> int:
    _at_most("--k-max", args.k_max, MAX_K)
    for flag, bound in (("--n-max", args.n_max), ("--a-max", args.a_max), ("--b-max", args.b_max)):
        _at_most(flag, bound, MAX_CATALOG_BOUND)
    for line in _catalog(args.n_max, args.a_max, args.b_max, args.k_max):
        sys.stdout.write(line)
        sys.stdout.flush()
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser that refuses bad arguments in one ``error:`` line, with no usage block."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toricmonoids",
        description="Monoid structures on normal affine toric surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, payload: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if payload:
            p.add_argument("payload", nargs="?", help="JSON payload (default: standard input)")
        return p

    p = add("classify", _cmd_classify, "classify an exponent cone as a monoid spec")
    p.add_argument("--n", type=_positive_int, required=True, help="weight of the unit group")

    p = add("roots", _cmd_roots, "enumerate Demazure roots of a cone in N")
    p.add_argument("--ray", type=int, choices=(0, 1), required=True, help="distinguished ray index")
    p.add_argument(
        "--bound",
        type=_positive_int,
        default=10,
        help=f"coordinate bound, at most {MAX_ROOT_BOUND} (default 10)",
    )

    p = add("comult", _cmd_comult, "expand the comultiplication of a monomial")
    p.add_argument(
        "--monomial",
        required=True,
        help=f"JSON pair [a, b] of lattice exponents; its degree is at most {MAX_DEGREE}",
    )
    p.add_argument(
        "--pair",
        help="JSON list of two Demazure roots; the payload is then a cone in N",
    )

    p = add("invariants", _cmd_invariants, "image-ideal codimension invariants of a spec")
    p.add_argument(
        "--k-max",
        type=_positive_int,
        default=8,
        help=f"compute for k = 1..k-max, at most {MAX_K} (default 8)",
    )

    p = add("quotient", _cmd_quotient, "quotient by a central subgroup of order m")
    p.add_argument("--m", type=_positive_int, required=True, help="order of the central subgroup")

    add("opposite", _cmd_opposite, "spec of the opposite monoid")
    add("boundary", _cmd_boundary, "boundary-divisor data of a spec")

    p = add(
        "multiply",
        _cmd_multiply,
        f"multiply two chart points (a at most {MAX_CHART_A}, b + n at most {MAX_DEGREE})",
    )
    p.add_argument("--p", required=True, help="first point, JSON list of rationals")
    p.add_argument("--q", required=True, help="second point, JSON list of rationals")

    p = add("verify", _cmd_verify, "check the bialgebra axioms on a box of monomials")
    p.add_argument(
        "--box",
        type=_positive_int,
        default=4,
        help=f"coordinate box, at most {MAX_VERIFY_BOX}, and the expansions of its "
        f"monomials at most {MAX_VERIFY_TERMS} terms (default 4)",
    )

    p = add("catalog", _cmd_catalog, "newline-delimited catalog of all specs in bounds", payload=False)
    bound_help = f"at most {MAX_CATALOG_BOUND} (default 2)"
    p.add_argument("--n-max", type=_positive_int, default=2, help=bound_help)
    p.add_argument("--a-max", type=_positive_int, default=2, help=bound_help)
    p.add_argument("--b-max", type=_nonnegative_int, default=2, help=bound_help)
    p.add_argument("--k-max", type=_positive_int, default=4, help=f"at most {MAX_K} (default 4)")

    return parser


# The parser ``main`` reuses; built on the first call.
_parser = None


def main(argv=None) -> int:
    """Run one subcommand and return its exit code; output goes to ``sys.stdout`` as it is at the call.

    A :class:`UsageError` is one ``error:`` line on stderr (exit 2).  Domain
    errors, and an output int past CPython's int-to-str digit limit (a
    ``ValueError`` too, raised before anything is written), are one
    ``{"error": ...}`` object on stdout (exit 1).
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        _error(str(exc))
        return EXIT_USAGE
    except ValueError as exc:
        _emit(_domain_error(exc))
        return EXIT_DOMAIN


def run() -> None:
    if sys.stdout is None:  # started with fd 1 closed
        _error("cannot write standard output: it is closed")
        sys.exit(EXIT_USAGE)
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        # Only a write to standard output can fail here, since ``main`` turns
        # a failed read of standard input into a ``UsageError`` and ``_error``
        # drops a failed write to stderr: the reader closed the pipe early
        # (``catalog | head``), or standard output cannot be written
        # (``>/dev/full``).  Point stdout at devnull so the interpreter's
        # final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            code = EXIT_DOMAIN
        else:
            _error(f"cannot write standard output: {exc.strerror}")
            code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    run()
