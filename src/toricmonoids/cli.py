"""Command-line front-end: classification, root enumeration, comultiplication
expansion, invariants, quotients, opposites, boundary data, point products,
bialgebra verification, and catalog generation.

All payloads are JSON; the main payload of a subcommand may be given as a
positional argument, via ``--json-in FILE``, or on standard input.  Output is
JSON on standard output (or ``--json-out FILE``); the catalog is
newline-delimited JSON, one entry per spec, in a canonical order.

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
from contextlib import contextmanager
from math import gcd

from .demazure import DemazureRoot, RootPair, roots_up_to
from .lattice import (
    M,
    N,
    Cone2,
    LatticePoint,
    _Record,
    _setattr,
    as_int,
    hilbert_basis,
    int_xy,
    parse_rational,
)
from .monoids import (
    BoundaryInfo,
    Family,
    HalfPlane,
    MonoidSpec,
    NotAMonoidError,
    boundary,
    classify_cone,
    comult_from_root_pair,
    comult_monomial,
    cone_of_spec,
    image_ideal_codim,
    multiply_points,
    opposite,
    quotient_by_center,
    verify_bialgebra,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

# ``roots`` tests every point of the (2*bound+1)^2 box: about 4 million tests at this bound.
MAX_ROOT_BOUND = 1000
# The largest expansion degree: the x-exponent in spec mode, ``<p_i, u>`` in
# root-pair mode, and ``b + n`` for ``multiply``.  The central binomial
# C(d, d/2) stays under CPython's 4,300-digit int-to-str limit up to
# d = 14,290 or so.
MAX_DEGREE = 10_000
# ``multiply``: a chart product raises a point coordinate to at most the power
# b + 2n.  Refused when that largest power term is estimated above this many
# bits, the coordinate's bit length times b + 2n: about 315,000 digits, 73
# times the 4,300-digit output limit, so a product whose terms cancel (such as
# p2 = q2 = 10^1000, q1 = -p1/10^1000 at small b + n) still prints.  The
# largest product allowed takes about 0.2 s (Python 3.11.7).
MAX_POWER_BITS = 1 << 20
# ``--k-max`` of ``invariants`` and ``catalog``, and each catalog bound on n, a and b.
MAX_K = 1000
MAX_CATALOG_BOUND = 100
# ``verify --box``: the region is scanned point by point, O(box^2) membership
# tests (about 0.07 s at this box), and the checks cost about one big-int
# product per pair of box monomials.  At 2,500 expansion terms that is about
# 0.15 s for ``Y(1,6,25) --box 68`` (490 monomials) and about 0.3 s for the
# slowest found, ``X(1,2,55) --box 197`` (812 monomials; Python 3.11.7).
MAX_VERIFY_BOX = 200
MAX_VERIFY_TERMS = 2500


class UsageError(Exception):
    """Malformed payloads and other recoverable input problems (exit code 2)."""


class CatalogEntry(_Record):
    """One classified monoid with its cone, generators, invariants, and boundary."""

    _fields = ("spec", "cone", "basis", "invariants", "info")

    def __init__(
        self,
        spec: MonoidSpec,
        cone: Cone2,
        basis: list[LatticePoint],
        invariants: list[int],
        info: BoundaryInfo,
    ):
        _setattr(self, "spec", spec)
        _setattr(self, "cone", cone)
        _setattr(self, "basis", basis)
        _setattr(self, "invariants", invariants)
        _setattr(self, "info", info)

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "cone": self.cone.to_json(),
            "hilbert_basis": [g.to_json() for g in self.basis],
            "invariants": self.invariants,
            "boundary": self.info.to_json(),
        }


def iter_catalog(n_max: int, a_max: int, b_max: int, k_max: int):
    """All X/Y specs with coprime (a, b) within the bounds, each exactly once.

    Canonical enumeration order: n, then a, then b, then family (X before Y);
    the entries are pairwise non-isomorphic.  The bounds are checked when this
    is called; the entries are computed lazily, one per step of the iterator.
    """
    if min(n_max, a_max, k_max) < 1 or b_max < 0:
        raise ValueError("catalog bounds must be at least 1 (b may reach 0)")
    return _catalog_entries(n_max, a_max, b_max, k_max)


def _catalog_entries(n_max: int, a_max: int, b_max: int, k_max: int):
    for n in range(1, n_max + 1):
        for a in range(1, a_max + 1):
            for b in range(0, b_max + 1):
                if gcd(a, b) != 1:
                    continue
                for family in (Family.X, Family.Y):
                    spec = MonoidSpec(family, n, a, b)
                    cone = cone_of_spec(spec)
                    yield CatalogEntry(
                        spec=spec,
                        cone=cone,
                        basis=hilbert_basis(cone),
                        invariants=[image_ideal_codim(spec, k) for k in range(1, k_max + 1)],
                        info=boundary(spec),
                    )


def _load_payload(args) -> object:
    if getattr(args, "payload", None) is not None:
        text = args.payload
    elif args.json_in is not None:
        try:
            with open(args.json_in, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.json_in}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise UsageError(f"cannot read {args.json_in}: not UTF-8 text") from None
    else:
        text = sys.stdin.read()
    return _parse_obj(text, "payload")


def _parse_obj(text: str, what: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} is not valid JSON: {exc}") from None
    except ValueError as exc:  # an integer past CPython's int-to-str digit limit
        raise UsageError(f"{what}: {exc}") from None


def _payload_cone(args) -> Cone2 | HalfPlane:
    data = _load_payload(args)
    if not isinstance(data, dict):
        raise UsageError("not a cone payload: expected a JSON object")
    try:
        if data.get("halfplane"):
            return HalfPlane(data.get("ambient", M))
        return Cone2.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"not a cone payload: {exc}") from None


def _payload_n_cone(args, what: str) -> Cone2:
    cone = _payload_cone(args)
    if isinstance(cone, HalfPlane) or cone.ambient != N:
        raise UsageError(f"{what} needs a strongly convex cone in N")
    return cone


def _payload_spec(args) -> MonoidSpec:
    data = _load_payload(args)
    try:
        return MonoidSpec.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"not a monoid spec payload: {exc}") from None


def _parse_monomial(text: str) -> tuple[int, int]:
    data = _parse_obj(text, "monomial")
    if not isinstance(data, list) or len(data) != 2:
        raise UsageError("a monomial is a JSON pair [a, b]")
    try:
        return int_xy(data, M)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

def _parse_point(text: str, what: str) -> tuple:
    data = _parse_obj(text, what)
    if not isinstance(data, list):
        raise UsageError(f"{what} must be a JSON list of rationals")
    try:
        return tuple(parse_rational(v) for v in data)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{what}: {exc}") from None


def _positive_int(text: str) -> int:
    """argparse type for sizes and weights: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


@contextmanager
def _output(args):
    """The output stream: standard output, or the ``--json-out`` file.

    Failing to open, write or close the file is a :class:`UsageError`.
    """
    if args.json_out is None:
        yield sys.stdout
        return
    try:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write {args.json_out}: {exc.strerror}") from None


def _write(args, text: str) -> None:
    with _output(args) as out:
        out.write(text + "\n")


def _emit(args, obj) -> None:
    _write(args, json.dumps(obj))


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
    _emit(args, classify_cone(cone, args.n).to_json())
    return EXIT_OK


def _cmd_roots(args) -> int:
    if args.bound > MAX_ROOT_BOUND:
        raise UsageError(f"--bound is at most {MAX_ROOT_BOUND}, got {args.bound}")
    cone = _payload_n_cone(args, "root enumeration")
    roots = roots_up_to(cone, args.ray, args.bound)
    _emit(args, [r.to_json() for r in roots])
    return EXIT_OK


def _cmd_comult(args) -> int:
    monomial = _parse_monomial(args.monomial)
    if args.pair is not None:
        cone = _payload_n_cone(args, "the root-pair mode")
        pair_data = _parse_obj(args.pair, "root pair")
        if not isinstance(pair_data, list) or len(pair_data) != 2:
            raise UsageError("a root pair is a JSON list of two roots")
        try:
            pair = RootPair(*(DemazureRoot.from_json(item) for item in pair_data))
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"not a root pair: {exc}") from None
        p = cone.rays[pair.ray_index]
        _check_degree("the root-pair degree <p_i, u>", monomial[0] * p.x + monomial[1] * p.y)
        tensor = comult_from_root_pair(cone, pair, monomial)
    else:
        spec = _payload_spec(args)
        _check_degree("the monomial x-exponent", monomial[0])
        tensor = comult_monomial(spec, monomial)
    _write(args, tensor.to_json_text())
    return EXIT_OK


def _check_degree(what: str, d: int) -> None:
    if d > MAX_DEGREE:
        try:
            shown = str(d)
        except ValueError:  # past CPython's int-to-str digit limit
            shown = f"a {d.bit_length()}-bit integer"
        raise UsageError(f"{what} is at most {MAX_DEGREE}, got {shown}")


def _check_k_max(k_max: int) -> None:
    if k_max > MAX_K:
        raise UsageError(f"--k-max is at most {MAX_K}, got {k_max}")


def _cmd_invariants(args) -> int:
    _check_k_max(args.k_max)
    spec = _payload_spec(args)
    _emit(args, [image_ideal_codim(spec, k) for k in range(1, args.k_max + 1)])
    return EXIT_OK


def _cmd_quotient(args) -> int:
    spec = _payload_spec(args)
    _emit(args, quotient_by_center(spec, args.m).to_json())
    return EXIT_OK


def _cmd_opposite(args) -> int:
    spec = _payload_spec(args)
    _emit(args, opposite(spec).to_json())
    return EXIT_OK


def _cmd_boundary(args) -> int:
    spec = _payload_spec(args)
    _emit(args, boundary(spec).to_json())
    return EXIT_OK


def _cmd_multiply(args) -> int:
    spec = _payload_spec(args)
    p = _parse_point(args.p, "point p")
    q = _parse_point(args.q, "point q")
    if spec.family is not Family.GROUP:
        _check_degree("b + n", spec.b + spec.n)
        power = spec.b + 2 * spec.n
        bits = max((max(abs(c.numerator), c.denominator).bit_length() for c in p + q), default=0)
        if bits * power > MAX_POWER_BITS:
            raise UsageError(
                f"a {bits}-bit coordinate to the power {power} is over {MAX_POWER_BITS} bits"
            )
    _emit(args, [str(c) for c in multiply_points(spec, p, q)])
    return EXIT_OK


def _verify_terms(spec: MonoidSpec, box: int) -> int:
    """Total comultiplication terms of the monomials ``verify --box`` checks.

    A monomial ``(x, y)`` expands to ``x + 1`` terms, and every spec region
    lies in ``x >= 0``.  Each stored normal ``(nx, ny)`` asks
    ``nx*x + ny*y >= 0``: a lower end of column ``x``'s interval of ``y`` when
    ``ny > 0``, an upper end when ``ny < 0``, and nothing when ``ny = 0``
    (then ``nx >= 0``).  So the sum costs O(box) steps, with no box scan.
    """
    a, b, c, d = cone_of_spec(spec)._normals
    total = 0
    for x in range(box + 1):
        lo, hi = -box, box
        for nx, ny in ((a, b), (c, d)):
            if ny > 0:
                lo = max(lo, -(nx * x // ny))
            elif ny < 0:
                hi = min(hi, nx * x // -ny)
        if hi >= lo:
            total += (x + 1) * (hi - lo + 1)
    return total


def _cmd_verify(args) -> int:
    if args.box > MAX_VERIFY_BOX:
        raise UsageError(f"--box is at most {MAX_VERIFY_BOX}, got {args.box}")
    spec = _payload_spec(args)
    terms = _verify_terms(spec, args.box)
    if terms > MAX_VERIFY_TERMS:
        raise UsageError(
            f"the box monomials of --box {args.box} expand to {terms} terms, "
            f"at most {MAX_VERIFY_TERMS}"
        )
    report = verify_bialgebra(spec, args.box)
    _emit(args, report.to_json())
    return EXIT_OK if report.passed else EXIT_DOMAIN


def _cmd_catalog(args) -> int:
    _check_k_max(args.k_max)
    bound = max(args.n_max, args.a_max, args.b_max)
    if bound > MAX_CATALOG_BOUND:
        raise UsageError(f"catalog bounds are at most {MAX_CATALOG_BOUND}, got {bound}")
    try:
        entries = iter_catalog(args.n_max, args.a_max, args.b_max, args.k_max)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    with _output(args) as out:
        for entry in entries:
            out.write(json.dumps(entry.to_json()) + "\n")
            out.flush()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricmonoids",
        description="Monoid structures on normal affine toric surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, payload: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if payload:
            p.add_argument("payload", nargs="?", help="JSON payload (default: --json-in or stdin)")
            p.add_argument("--json-in", metavar="FILE", help="read the payload from a file")
        p.add_argument("--json-out", metavar="FILE", help="write the output to a file")
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
        "multiply", _cmd_multiply, f"multiply two chart points (b + n at most {MAX_DEGREE})"
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
    p.add_argument("--n-max", type=int, default=2, help=bound_help)
    p.add_argument("--a-max", type=int, default=2, help=bound_help)
    p.add_argument("--b-max", type=int, default=2, help=bound_help)
    p.add_argument("--k-max", type=_positive_int, default=4, help=f"at most {MAX_K} (default 4)")
    p.set_defaults(json_in=None)

    return parser


# The parser ``main`` reuses; built on the first call.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # The outer ``try`` also covers writing the error object, whose
    # ``--json-out`` file may not open.
    try:
        try:
            return args.handler(args)
        # Domain errors, and an output int past CPython's int-to-str digit
        # limit (a ``ValueError`` too, raised before anything is written).
        except ValueError as exc:
            _emit(args, _domain_error(exc))
            return EXIT_DOMAIN
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        # The reader closed the pipe early (``catalog | head``), or standard
        # output cannot be written (``>/dev/full``).  Point stdout at devnull
        # so the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            code = EXIT_DOMAIN
        else:
            print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr)
            code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    run()
