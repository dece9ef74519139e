"""Command-line front-end: classification, root enumeration, comultiplication
expansion, invariants, quotients, opposites, boundary data, point products,
bialgebra verification, and catalog generation.

All payloads are JSON; the main payload of a subcommand may be given as a
positional argument, via ``--json-in FILE``, or on standard input.  Output is
JSON on standard output (or ``--json-out FILE``); the catalog is
newline-delimited JSON, one entry per spec, in a canonical order.

Exit codes: 0 success, 1 domain failure (a cone that is not a monoid, a
failed verification), 2 usage or malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from math import gcd

from .demazure import DemazureRoot, RootPair, roots_up_to
from .lattice import M, N, Cone2, LatticePoint, as_int, hilbert_basis, parse_rational
from .monoids import (
    BoundaryInfo,
    ConeClosureError,
    Family,
    HalfPlane,
    MonoidSpec,
    NotAMonoidError,
    UnsupportedChartError,
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


class UsageError(Exception):
    """Malformed payloads and other recoverable input problems (exit code 2)."""


@dataclass(frozen=True)
class CatalogEntry:
    """One classified monoid with its cone, generators, invariants, and boundary."""

    spec: MonoidSpec
    cone: Cone2
    basis: list[LatticePoint]
    invariants: list[int]
    info: BoundaryInfo

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
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"payload is not valid JSON: {exc}") from None


def _parse_obj(text: str, what: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} is not valid JSON: {exc}") from None


def _payload_cone(args) -> Cone2 | HalfPlane:
    data = _load_payload(args)
    if not isinstance(data, dict):
        raise UsageError("not a cone payload: expected a JSON object")
    try:
        if data.get("halfplane"):
            return HalfPlane()
        return Cone2.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"not a cone payload: {exc}") from None


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
        return (as_int(data[0]), as_int(data[1]))
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
    """The output stream: standard output, or the ``--json-out`` file."""
    if args.json_out is None:
        yield sys.stdout
        return
    try:
        fh = open(args.json_out, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {args.json_out}: {exc.strerror}") from None
    with fh:
        yield fh


def _emit(args, obj) -> None:
    with _output(args) as out:
        out.write(json.dumps(obj) + "\n")


def _cmd_classify(args) -> int:
    cone = _payload_cone(args)
    if isinstance(cone, Cone2) and cone.ambient != M:
        raise UsageError("classification needs an exponent cone in M")
    try:
        spec = classify_cone(cone, args.n)
    except NotAMonoidError as exc:
        _emit(
            args,
            {
                "error": "not-a-monoid",
                "witness": exc.witness.to_json(),
                "missing": exc.missing.to_json(),
                "n": exc.n,
            },
        )
        return EXIT_DOMAIN
    except ValueError as exc:
        _emit(args, {"error": str(exc)})
        return EXIT_DOMAIN
    _emit(args, spec.to_json())
    return EXIT_OK


def _cmd_roots(args) -> int:
    if args.bound > MAX_ROOT_BOUND:
        raise UsageError(f"--bound is at most {MAX_ROOT_BOUND}, got {args.bound}")
    cone = _payload_cone(args)
    if isinstance(cone, HalfPlane) or cone.ambient != N:
        raise UsageError("root enumeration needs a strongly convex cone in N")
    roots = roots_up_to(cone, args.ray, args.bound)
    _emit(args, [r.to_json() for r in roots])
    return EXIT_OK


def _cmd_comult(args) -> int:
    monomial = _parse_monomial(args.monomial)
    if args.pair is not None:
        cone = _payload_cone(args)
        if isinstance(cone, HalfPlane) or cone.ambient != N:
            raise UsageError("the root-pair mode needs a strongly convex cone in N")
        pair_data = _parse_obj(args.pair, "root pair")
        if not isinstance(pair_data, list) or len(pair_data) != 2:
            raise UsageError("a root pair is a JSON list of two roots")
        try:
            roots = [DemazureRoot.from_json(item) for item in pair_data]
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"not a root pair: {exc}") from None
        try:
            pair = RootPair(roots[0], roots[1])
            tensor = comult_from_root_pair(cone, pair, monomial)
        except (ValueError, ConeClosureError) as exc:
            _emit(args, {"error": str(exc)})
            return EXIT_DOMAIN
    else:
        spec = _payload_spec(args)
        try:
            tensor = comult_monomial(spec, monomial)
        except ValueError as exc:
            _emit(args, {"error": str(exc)})
            return EXIT_DOMAIN
    _emit(args, tensor.to_json())
    return EXIT_OK


def _cmd_invariants(args) -> int:
    spec = _payload_spec(args)
    try:
        values = [image_ideal_codim(spec, k) for k in range(1, args.k_max + 1)]
    except ValueError as exc:
        _emit(args, {"error": str(exc)})
        return EXIT_DOMAIN
    _emit(args, values)
    return EXIT_OK


def _cmd_quotient(args) -> int:
    spec = _payload_spec(args)
    try:
        result = quotient_by_center(spec, args.m)
    except ValueError as exc:
        _emit(args, {"error": str(exc)})
        return EXIT_DOMAIN
    _emit(args, result.to_json())
    return EXIT_OK


def _cmd_opposite(args) -> int:
    spec = _payload_spec(args)
    _emit(args, opposite(spec).to_json())
    return EXIT_OK


def _cmd_boundary(args) -> int:
    spec = _payload_spec(args)
    try:
        info = boundary(spec)
    except ValueError as exc:
        _emit(args, {"error": str(exc)})
        return EXIT_DOMAIN
    _emit(args, info.to_json())
    return EXIT_OK


def _cmd_multiply(args) -> int:
    spec = _payload_spec(args)
    p = _parse_point(args.p, "point p")
    q = _parse_point(args.q, "point q")
    try:
        product = multiply_points(spec, p, q)
    except (UnsupportedChartError, ValueError) as exc:
        _emit(args, {"error": str(exc)})
        return EXIT_DOMAIN
    _emit(args, [str(c) for c in product])
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = _payload_spec(args)
    report = verify_bialgebra(spec, args.box)
    _emit(args, report.to_json())
    return EXIT_OK if report.passed else EXIT_DOMAIN


def _cmd_catalog(args) -> int:
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
    p.add_argument("--monomial", required=True, help="JSON pair [a, b] of lattice exponents")
    p.add_argument(
        "--pair",
        help="JSON list of two Demazure roots; the payload is then a cone in N",
    )

    p = add("invariants", _cmd_invariants, "image-ideal codimension invariants of a spec")
    p.add_argument("--k-max", type=_positive_int, default=8, help="compute for k = 1..k-max (default 8)")

    p = add("quotient", _cmd_quotient, "quotient by a central subgroup of order m")
    p.add_argument("--m", type=_positive_int, required=True, help="order of the central subgroup")

    add("opposite", _cmd_opposite, "spec of the opposite monoid")
    add("boundary", _cmd_boundary, "boundary-divisor data of a spec")

    p = add("multiply", _cmd_multiply, "multiply two chart points")
    p.add_argument("--p", required=True, help="first point, JSON list of rationals")
    p.add_argument("--q", required=True, help="second point, JSON list of rationals")

    p = add("verify", _cmd_verify, "check the bialgebra axioms on a box of monomials")
    p.add_argument("--box", type=_positive_int, default=4, help="coordinate box (default 4)")

    p = add("catalog", _cmd_catalog, "newline-delimited catalog of all specs in bounds", payload=False)
    p.add_argument("--n-max", type=int, default=2)
    p.add_argument("--a-max", type=int, default=2)
    p.add_argument("--b-max", type=int, default=2)
    p.add_argument("--k-max", type=_positive_int, default=4)
    p.set_defaults(json_in=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (``catalog | head``).  Point stdout
        # at devnull so the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_DOMAIN
    sys.exit(code)


if __name__ == "__main__":
    run()
