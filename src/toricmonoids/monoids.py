"""Monoid structures on normal affine toric surfaces.

Three families of rank-1 monoid structures, indexed by a positive integer
``n`` (the weight of the torus action on the additive part of the unit
group) and, for the non-group families, a coprime pair ``(a, b)``:

* ``Group(n)``: the solvable group with product
  ``(alpha1, tau1) * (alpha2, tau2) = (alpha1 + tau1^n * alpha2, tau1*tau2)``;
  its coordinate algebra is ``K[x, y, 1/y]`` and its exponent region is the
  half plane ``{u : u_x >= 0}``.
* ``X(n, a, b)``: the surface of the cone spanned by ``(0, 1)`` and
  ``(a, b)``, with ``a > 0``, ``b >= 0``, ``gcd(a, b) = 1``.
* ``Y(n, a, b)``: the surface of the cone spanned by ``(0, -1)`` and
  ``(a, -n*a - b)``; the opposite monoid of ``X(n, a, b)``.

All three carry the comultiplication determined on monomials by

    x^a y^b  |->  sum_i  C(a, i) * x^(a-i) y^(b+n*i)  (x)  x^i y^b,

equivalently ``x -> x (x) 1 + y^n (x) x`` and ``y -> y (x) y``.  The module
constructs the cones, expands comultiplications (also from pairs of Demazure
roots), classifies admissible cones, computes the image-ideal codimension
invariants that separate the families, and provides quotients by central
subgroups, opposite monoids, boundary-divisor data, chart-level point
multiplication, and a machine check of the bialgebra axioms.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

from .algebra import LaurentElement, TensorElement, _merge
from .demazure import RootPair
from .lattice import (
    Cone2,
    LatticeMap,
    LatticePoint,
    M,
    N,
    RationalPoint,
    _check_ambient,
    _Record,
    _setattr,
    as_int,
    as_xy,
    box_lattice_points,
    parse_rational,
)


class NotAMonoidError(ValueError):
    """A cone admits no monoid structure for the requested torus weight.

    Carries the failing generator point and the axis point whose absence
    breaks the restriction of the comultiplication.
    """

    def __init__(self, witness: LatticePoint, missing: LatticePoint, n: int):
        self.witness = witness
        self.missing = missing
        self.n = n
        super().__init__(
            f"cone point {witness} requires {missing} in the cone "
            f"for the weight-{n} comultiplication to restrict"
        )


class ConeClosureError(RuntimeError):
    """A comultiplication expansion left the cone; the root data is inconsistent."""


class UnsupportedChartError(ValueError):
    """Point-level multiplication is implemented only for the explicit charts."""


class Family(str, enum.Enum):
    GROUP = "Group"
    X = "X"
    Y = "Y"


class MonoidSpec(_Record):
    """A classified monoid structure: ``Group(n)``, ``X(n, a, b)`` or ``Y(n, a, b)``."""

    _fields = ("family", "n", "a", "b")

    def __init__(self, family: Family, n: int, a: int | None = None, b: int | None = None):
        if type(n) is not int or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        if family is Family.GROUP:
            if a is not None or b is not None:
                raise ValueError("the group family carries no (a, b) parameters")
        else:
            if type(a) is not int or a < 1:
                raise ValueError(f"a must be a positive integer, got {a!r}")
            if type(b) is not int or b < 0:
                raise ValueError(f"b must be a nonnegative integer, got {b!r}")
            if gcd(a, b) != 1:
                raise ValueError(f"(a, b) = ({a}, {b}) must be coprime")
        _setattr(self, "family", family)
        _setattr(self, "n", n)
        _setattr(self, "a", a)
        _setattr(self, "b", b)

    @classmethod
    def group(cls, n: int) -> "MonoidSpec":
        return cls(Family.GROUP, n)

    @classmethod
    def x(cls, n: int, a: int, b: int) -> "MonoidSpec":
        return cls(Family.X, n, a, b)

    @classmethod
    def y(cls, n: int, a: int, b: int) -> "MonoidSpec":
        return cls(Family.Y, n, a, b)

    def to_json(self) -> dict:
        data = {"family": self.family.value, "n": self.n}
        if self.family is not Family.GROUP:
            data["a"] = self.a
            data["b"] = self.b
        return data

    @classmethod
    def from_json(cls, data: dict) -> "MonoidSpec":
        family = Family(data["family"])
        if family is Family.GROUP:
            return cls(family, as_int(data["n"]))
        return cls(family, as_int(data["n"]), as_int(data["a"]), as_int(data["b"]))

    def __str__(self) -> str:
        if self.family is Family.GROUP:
            return f"Group({self.n})"
        return f"{self.family.value}({self.n},{self.a},{self.b})"


class HalfPlane(_Record):
    """The exponent region of the group family: ``{u in M_Q : u_x >= 0}``.

    Not a :class:`Cone2` (it is not strongly convex); supports the membership
    test the rest of the package needs, with the same ambient checks.
    """

    _fields = ("ambient",)

    def __init__(self, ambient: str = M):
        _setattr(self, "ambient", _check_ambient(ambient))

    def contains(self, q) -> bool:
        if isinstance(q, (LatticePoint, RationalPoint)) and q.ambient != self.ambient:
            raise ValueError(
                f"point of {q.ambient} tested against a cone in {self.ambient}"
            )
        x, _ = as_xy(q)
        return x >= 0

    def to_json(self) -> dict:
        return {"halfplane": True, "ambient": self.ambient}


def cone_of_spec(spec: MonoidSpec) -> Cone2 | HalfPlane:
    """The exponent cone of a spec (the half plane for the group family)."""
    if spec.family is Family.GROUP:
        return HalfPlane()
    if spec.family is Family.X:
        return Cone2.from_rays((0, 1), (spec.a, spec.b), M)
    return Cone2.from_rays((0, -1), (spec.a, -spec.n * spec.a - spec.b), M)


class Orientation(str, enum.Enum):
    """Chart convention: exponents taken against ``y`` or against ``1/y``."""

    PLUS = "plus"
    MINUS = "minus"


class ComultRule(_Record):
    """The weight-``n`` comultiplication rule, with a chart orientation.

    With the PLUS orientation a monomial ``(a, b)`` is ``x^a y^b``.  With the
    MINUS orientation the input is read in the inverted-torus chart, i.e. the
    second coordinate is the exponent of ``1/y``; the expansion then applies
    to the underlying lattice monomial ``(a, -b)`` and is returned in lattice
    coordinates.  Both orientations share one expansion routine.
    """

    _fields = ("n", "orientation")

    def __init__(self, n: int, orientation: Orientation = Orientation.PLUS):
        if type(n) is not int or n < 1:
            raise ValueError(f"the comultiplication weight must be a positive integer, got {n!r}")
        _setattr(self, "n", n)
        _setattr(self, "orientation", orientation)


def _binomials(d: int) -> list[int]:
    """The binomial row ``[C(d, 0), ..., C(d, d)]``.

    Each entry is one exact big-int step from the one before,
    ``C(d, i+1) = C(d, i) * (d-i) // (i+1)``; the second half mirrors the first.
    """
    row = [1] * (d + 1)
    c = 1
    for i in range(d // 2):
        c = c * (d - i) // (i + 1)
        row[i + 1] = row[d - i - 1] = c
    return row


def comult(rule: ComultRule, u) -> TensorElement:
    """Comultiplication of the monomial ``u``.

    ``x^a y^b  |->  sum_i C(a, i) x^(a-i) y^(b+n*i) (x) x^i y^b`` for the
    PLUS orientation; MINUS first flips the sign of the ``y``-exponent.
    Costs at most one big-int step per term: the binomials come from one
    row recurrence, and the terms are built already sorted (the left
    x-exponent ``a-i`` ascends, so no two keys coincide) and skip the
    checking constructor.
    """
    a, b = (as_int(v) for v in as_xy(u))
    if a < 0:
        raise ValueError(f"monomial ({a}, {b}) has a negative x-exponent")
    if rule.orientation is Orientation.MINUS:
        b = -b
    n = rule.n
    row = _binomials(a)
    return TensorElement._of({((a - i, b + n * i), (i, b)): row[i] for i in range(a, -1, -1)})


def comult_monomial(spec: MonoidSpec, u) -> TensorElement:
    """Comultiplication of a monomial of the spec's coordinate algebra.

    The exponent is in lattice coordinates and must lie in the spec's cone.
    """
    region = cone_of_spec(spec)
    xy = tuple(as_int(v) for v in as_xy(u))
    if not region.contains(xy):
        raise ValueError(f"monomial {xy} is not in the exponent region of {spec}")
    return comult(ComultRule(spec.n), xy)


def comult_from_root_pair(sigma: Cone2, pair: RootPair, u) -> TensorElement:
    """Comultiplication induced by an ordered pair of Demazure roots.

    Expands ``chi^u (x) chi^u (1 (x) chi^e1 + chi^e2 (x) 1)^d`` with
    ``d = <p_i, u>``.  The cone must lie in N.  Every exponent of the result
    must stay in the dual cone; escape signals an invalid root pair and
    raises :class:`ConeClosureError`.  The left exponents ``u + j*e2`` and
    the right exponents ``u + (d-j)*e1`` each run along a segment from ``u``,
    and the dual cone is convex, so closure is decided by the two far ends
    ``u + d*e2`` and ``u + d*e1``; only when one escapes are the terms walked
    (left before right, ``j`` ascending) to name the first escaping exponent.

    The key of term ``j`` moves by the fixed step ``(e2, -e1)`` as ``j``
    grows, so the keys strictly ascend in ``j`` when that step is above
    ``((0, 0), (0, 0))`` in the lexicographic order and strictly descend when
    it is below; the terms are built straight in canonical order, with no
    sort.  Only ``e1 = e2 = (0, 0)`` makes all ``d + 1`` keys coincide; they
    are merged into the one term ``2^d``.  Costs O(d) big-int steps: one
    binomial row recurrence and one dict of the ``d + 1`` terms.
    """
    if sigma.ambient != N:
        raise ValueError("the root-pair comultiplication needs a cone in N")
    dual = sigma.dual()
    ux, uy = (as_int(v) for v in as_xy(u))
    if not dual.contains((ux, uy)):
        raise ValueError(f"monomial ({ux}, {uy}) is not in the dual cone of {sigma}")
    p = sigma.rays[pair.ray_index]
    d = ux * p.x + uy * p.y
    e1 = pair.e1.e.xy
    e2 = pair.e2.e.xy
    lefts = [(ux + j * e2[0], uy + j * e2[1]) for j in range(d + 1)]
    rights = [(ux + (d - j) * e1[0], uy + (d - j) * e1[1]) for j in range(d + 1)]
    if not (dual.contains(lefts[-1]) and dual.contains(rights[0])):
        for left, right in zip(lefts, rights):
            for exponent in (left, right):
                if not dual.contains(exponent):
                    raise ConeClosureError(
                        f"expansion of ({ux}, {uy}) leaves the cone at {exponent}; "
                        f"the root pair is not valid for {sigma}"
                    )
    terms = list(zip(zip(lefts, rights), _binomials(d)))
    step = (e2, (-e1[0], -e1[1]))
    if step == ((0, 0), (0, 0)):
        return TensorElement._of(_merge(terms))
    if step < ((0, 0), (0, 0)):
        terms.reverse()
    return TensorElement._of(dict(terms))


def restriction_failure(
    cone: Cone2, n: int
) -> tuple[LatticePoint, LatticePoint] | None:
    """First witness against the comultiplication restricting to the cone.

    The restriction holds iff for every cone point ``(a, b)`` both ``(0, b)``
    and ``(0, b + n*a)`` lie in the cone.  By convexity it is enough to test
    the two ray generators, which is what this finite certificate does.
    Returns ``(generator, missing axis point)`` or None.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if cone.ambient != M:
        raise ValueError("the restriction condition applies to exponent cones in M")
    if any(r.x < 0 for r in cone.rays):
        raise ValueError(f"{cone} is not contained in the half plane u_x >= 0")
    for r in cone.rays:
        for target in ((0, r.y), (0, r.y + n * r.x)):
            if not cone.contains(target):
                return (r, LatticePoint(target[0], target[1], M))
    return None


def restriction_condition(cone: Cone2, n: int) -> bool:
    """Does the weight-``n`` comultiplication restrict to the cone's algebra?"""
    return restriction_failure(cone, n) is None


def classify_cone(cone: Cone2 | HalfPlane, n: int) -> MonoidSpec:
    """Classify an admissible exponent cone as a monoid spec.

    The half plane is the group; otherwise the cone must contain exactly one
    of ``(0, 1)`` or ``(0, -1)`` as a ray, and the other (primitive) ray
    determines the parameters.  Raises :class:`NotAMonoidError` when the
    comultiplication does not restrict.
    """
    if isinstance(cone, HalfPlane):
        if type(n) is not int or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        return MonoidSpec.group(n)
    failure = restriction_failure(cone, n)
    if failure is not None:
        raise NotAMonoidError(failure[0], failure[1], n)
    up = LatticePoint(0, 1, M)
    down = LatticePoint(0, -1, M)
    if up in cone.rays:
        other = cone.rays[1 - cone.rays.index(up)]
        a, b = other.x, other.y
        assert a > 0 and b >= 0 and gcd(a, b) == 1
        return MonoidSpec.x(n, a, b)
    if down in cone.rays:
        other = cone.rays[1 - cone.rays.index(down)]
        a = other.x
        b = -n * a - other.y
        assert a > 0 and b >= 0 and gcd(a, b) == 1
        return MonoidSpec.y(n, a, b)
    raise AssertionError(f"{cone} passed the restriction test without a vertical ray")


def _require_surface_family(spec: MonoidSpec, what: str) -> None:
    if spec.family is Family.GROUP:
        raise ValueError(f"{what} is not defined for the group family")


def image_ideal_codim(spec: MonoidSpec, k: int) -> int:
    """Codimension of the k-th image ideal of the left additive action.

    Closed form: ``ceil(k*b/a)`` for the X family and ``ceil(k*b/a) + n*k``
    for the Y family.  Independent of the derivation's scale; separates
    non-isomorphic structures.
    """
    _require_surface_family(spec, "the image-ideal codimension")
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    base = -((-k * spec.b) // spec.a)  # exact ceiling of k*b/a
    if spec.family is Family.X:
        return base
    return base + spec.n * k


def image_ideal_codim_search(spec: MonoidSpec, k: int) -> int:
    """Image-ideal codimension by direct cone search, independent of the closed form.

    Scans for the least ``t >= 0`` with ``(k, t)`` (X family) or ``(k, -t)``
    (Y family) in the spec's cone; this is the number of kernel monomials not
    reached by the k-th iterate of the left derivation.
    """
    _require_surface_family(spec, "the image-ideal codimension")
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    cone = cone_of_spec(spec)
    sign = 1 if spec.family is Family.X else -1
    cap = k * (spec.b + spec.n * spec.a) + 1  # (k, sign*cap) is always inside
    for t in range(cap + 1):
        if cone.contains((k, sign * t)):
            return t
    raise AssertionError(f"no axis point found for {spec} at k={k}")


def distinguish(s1: MonoidSpec, s2: MonoidSpec) -> bool:
    """Certify two specs as non-isomorphic monoids; False means equal specs.

    Different unit groups (n), different families (the right derivation is a
    monomial multiple of the left one only in the X family), or a separating
    image-ideal codimension all certify non-isomorphy.
    """
    for s in (s1, s2):
        _require_surface_family(s, "distinguishing")
    if s1.family is not s2.family or s1.n != s2.n:
        return True
    k = s1.a * s2.a
    return image_ideal_codim(s1, k) != image_ideal_codim(s2, k)


def opposite(spec: MonoidSpec) -> MonoidSpec:
    """The opposite monoid's spec: X and Y swap, the group is its own opposite."""
    if spec.family is Family.X:
        return MonoidSpec.y(spec.n, spec.a, spec.b)
    if spec.family is Family.Y:
        return MonoidSpec.x(spec.n, spec.a, spec.b)
    return spec


def opposite_witness(spec: MonoidSpec) -> LatticeMap:
    """The lattice involution realizing the opposite isomorphism.

    Sends ``(1, 0) -> (1, -n)`` and ``(0, 1) -> (0, -1)``; it exchanges the X
    and Y cones and intertwines their comultiplications up to the flip of the
    tensor legs.
    """
    _require_surface_family(spec, "the opposite witness")
    return LatticeMap(1, 0, -spec.n, -1)


def quotient_by_center(spec: MonoidSpec, m: int) -> MonoidSpec:
    """Quotient by the order-``m`` central subgroup of the unit group.

    The center of the unit group is cyclic of order ``n``, so ``m`` must
    divide ``n``.  For ``X(n, a, b)`` the quotient is
    ``X(n/m, a*m/g, b/g)`` with ``g = gcd(m, b)``; the Y family goes through
    the opposite, and the group quotients to the group of weight ``n/m``.
    """
    if type(m) is not int or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if spec.n % m != 0:
        raise ValueError(f"m = {m} does not divide the central order {spec.n}")
    if spec.family is Family.GROUP:
        return MonoidSpec.group(spec.n // m)
    if spec.family is Family.Y:
        return opposite(quotient_by_center(opposite(spec), m))
    g = gcd(m, spec.b)
    return MonoidSpec.x(spec.n // m, (m // g) * spec.a, spec.b // g)


class BoundaryInfo(_Record):
    """Shape of the divisor of non-invertible elements.

    The divisor is an affine line.  When ``b > 0`` it carries an absorbing
    zero and the unit group scales it with the recorded left/right weights
    (weights measured against the chart's own torus coordinate).  When
    ``b = 0`` (which forces ``a = 1``) the line consists of idempotents
    instead; the weights then differ by ``a*n`` but only one side acts by
    scaling.
    """

    _fields = ("left_weight", "right_weight", "has_zero", "idempotent_line")

    def __init__(
        self, left_weight: int, right_weight: int, has_zero: bool, idempotent_line: bool
    ):
        if has_zero == idempotent_line:
            raise ValueError("exactly one of has_zero / idempotent_line must hold")
        _setattr(self, "left_weight", left_weight)
        _setattr(self, "right_weight", right_weight)
        _setattr(self, "has_zero", has_zero)
        _setattr(self, "idempotent_line", idempotent_line)

    def to_json(self) -> dict:
        return {
            "left_weight": self.left_weight,
            "right_weight": self.right_weight,
            "has_zero": self.has_zero,
            "idempotent_line": self.idempotent_line,
        }


def boundary(spec: MonoidSpec) -> BoundaryInfo:
    """Boundary-divisor data of an X or Y spec.

    For ``X(n, a, b)`` the left and right weights are ``b + a*n`` and ``b``;
    the opposite family swaps the sides.
    """
    _require_surface_family(spec, "the boundary divisor")
    heavy = spec.b + spec.a * spec.n
    light = spec.b
    if spec.family is Family.Y:
        heavy, light = light, heavy
    return BoundaryInfo(
        left_weight=heavy,
        right_weight=light,
        has_zero=spec.b > 0,
        idempotent_line=spec.b == 0,
    )


def _chart_point(spec: MonoidSpec, p, arity: int) -> tuple[int | Fraction, ...]:
    coords = tuple(parse_rational(v) for v in p)
    if len(coords) != arity:
        raise ValueError(f"{spec} chart points have {arity} coordinates, got {len(coords)}")
    return coords


def _quadric_k(spec: MonoidSpec) -> int:
    # X(n, 2, b) has odd b by coprimality; write b = 2k + 1.
    return (spec.b - 1) // 2


def multiply_points(spec: MonoidSpec, p, q) -> tuple[int | Fraction, ...]:
    """Exact chart-level product of two points.

    Supported charts: the affine-plane charts ``X(n, 1, b)`` and
    ``Y(n, 1, b)``, and the quadric-cone chart ``X(n, 2, b)`` whose points
    ``(x, y, z)`` satisfy ``x*z = y^2``.  General parameters would require an
    embedding choice and are rejected.
    """
    _require_surface_family(spec, "point multiplication")
    n, a, b = spec.n, spec.a, spec.b
    if a == 1:
        p1, p2 = _chart_point(spec, p, 2)
        q1, q2 = _chart_point(spec, q, 2)
        if spec.family is Family.X:
            return (p1 * q2**b + p2 ** (b + n) * q1, p2 * q2)
        return (p1 * q2 ** (b + n) + p2**b * q1, p2 * q2)
    if spec.family is Family.X and a == 2:
        k = _quadric_k(spec)
        px, py, pz = _chart_point(spec, p, 3)
        qx, qy, qz = _chart_point(spec, q, 3)
        for (cx, cy, cz) in ((px, py, pz), (qx, qy, qz)):
            if cx * cz != cy**2:
                raise ValueError(f"({cx}, {cy}, {cz}) violates the chart relation x*z = y^2")
        out = (
            px * qx,
            py * qx ** (k + 1) + px ** (n + k + 1) * qy,
            pz * qx ** (2 * k + 1)
            + 2 * px ** (n + k) * py * qx**k * qy
            + px ** (2 * n + 2 * k + 1) * qz,
        )
        assert out[0] * out[2] == out[1] ** 2
        return out
    raise UnsupportedChartError(f"no explicit chart multiplication for {spec}")


def chart_unit(spec: MonoidSpec) -> tuple[Fraction, ...]:
    """The unit element of a supported chart."""
    _require_surface_family(spec, "the chart unit")
    if spec.a == 1:
        return (Fraction(0), Fraction(1))
    if spec.family is Family.X and spec.a == 2:
        return (Fraction(1), Fraction(0), Fraction(0))
    raise UnsupportedChartError(f"no explicit chart for {spec}")


def chart_zero(spec: MonoidSpec) -> tuple[Fraction, ...]:
    """The chart origin (the absorbing zero when the boundary carries one)."""
    _require_surface_family(spec, "the chart zero")
    if spec.a == 1:
        return (Fraction(0), Fraction(0))
    if spec.family is Family.X and spec.a == 2:
        return (Fraction(0), Fraction(0), Fraction(0))
    raise UnsupportedChartError(f"no explicit chart for {spec}")


def chart_monomial_value(spec: MonoidSpec, u, point) -> Fraction:
    """Value of the cone monomial ``chi^u`` at a chart point.

    Writes ``u`` as a nonnegative combination of the chart's generating
    monomials and evaluates; on the quadric the decomposition is only unique
    up to the chart relation, which does not affect the value.
    """
    _require_surface_family(spec, "chart evaluation")
    ux, uy = (as_int(v) for v in as_xy(u))
    n, a, b = spec.n, spec.a, spec.b
    if a == 1:
        c1, c2 = _chart_point(spec, point, 2)
        if spec.family is Family.X:
            beta = uy - ux * b
        else:
            beta = -uy - ux * (b + n)
        if ux < 0 or beta < 0:
            raise ValueError(f"monomial ({ux}, {uy}) is not in the cone of {spec}")
        return c1**ux * c2**beta
    if spec.family is Family.X and a == 2:
        k = _quadric_k(spec)
        c1, c2, c3 = _chart_point(spec, point, 3)
        g3, g2 = divmod(ux, 2)
        g1 = uy - g2 * (k + 1) - g3 * (2 * k + 1)
        if ux < 0 or g1 < 0:
            raise ValueError(f"monomial ({ux}, {uy}) is not in the cone of {spec}")
        return c1**g1 * c2**g2 * c3**g3
    raise UnsupportedChartError(f"no explicit chart for {spec}")


def tensor_chart_value(spec: MonoidSpec, t: TensorElement, p, q) -> Fraction:
    """Value of a tensor element at a pair of chart points."""
    total = Fraction(0)
    for (left, right), coef in t.terms():
        total += coef * chart_monomial_value(spec, left, p) * chart_monomial_value(spec, right, q)
    return total


def counit(u) -> Fraction:
    """Counit of a cone monomial: evaluation at the unit element ``(x, y) = (0, 1)``.

    Equals 1 when the x-exponent vanishes and 0 otherwise.
    """
    x, _ = as_xy(u)
    return Fraction(1) if x == 0 else Fraction(0)


class CheckResult(_Record):
    _fields = ("name", "status", "witness")

    def __init__(self, name: str, status: str, witness: dict | None = None):
        _setattr(self, "name", name)
        _setattr(self, "status", status)  # "pass" | "fail"
        _setattr(self, "witness", witness)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "witness": self.witness}


class VerificationReport(_Record):
    """Outcome of the bialgebra axiom checks, with the first counterexample if any."""

    _fields = ("checks",)

    def __init__(self, checks: tuple[CheckResult, ...]):
        _setattr(self, "checks", checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> CheckResult | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def to_json(self) -> dict:
        return {"checks": [c.to_json() for c in self.checks]}


def verify_comultiplication(region, rule: ComultRule, box: int) -> VerificationReport:
    """Machine check of the bialgebra axioms on all cone monomials in a box.

    Checks, in order: closure of every expansion exponent in the region, both
    counit identities, coassociativity, and multiplicativity on all monomial
    pairs.  Failures are reported with the first counterexample, never raised.
    Each distinct exponent is expanded once per call: the box monomials, the
    legs in coassociativity and the sums in multiplicativity share one table.

    Multiplicativity runs on packed keys.  With ``m`` the largest absolute
    key component of the box expansions and ``base = 4*m + 1``, a key
    ``((l0, l1), (r0, r1))`` packs to ``((l0*base + l1)*base + r0)*base + r1``.
    The packing is linear, so adding two keys adds their ints, and it is
    injective on keys with every component in ``[-2*m, 2*m]`` (balanced
    base-``base`` digits), which holds for every product of two box
    expansions.  Each box expansion is packed once and each target
    ``comult(u + v)`` once per distinct sum; a target with a component
    outside that range equals no product and fails the pair.  A pair then
    costs one int add, one multiplication and one dict update per term
    pair, plus one dict comprehension and one dict compare.
    """
    if box < 1:
        raise ValueError("box must be at least 1")
    expanded: dict[tuple[int, int], TensorElement] = {}

    def expand(u: tuple[int, int]) -> TensorElement:
        t = expanded.get(u)
        if t is None:
            t = expanded[u] = comult(rule, u)
        return t

    points = box_lattice_points(region, box)
    expansions = {u: expand(u) for u in points}
    checks = []

    witness = None
    for u, t in expansions.items():
        for (left, right) in t.support():
            if not (region.contains(left) and region.contains(right)):
                escaped = left if not region.contains(left) else right
                witness = {"monomial": list(u), "escaped": list(escaped)}
                break
        if witness:
            break
    checks.append(_result("cone-closure", witness))

    for name, keep in (("counit-left", "right"), ("counit-right", "left")):
        witness = None
        for u, t in expansions.items():
            collapsed = LaurentElement(
                [
                    (right if keep == "right" else left, coef)
                    for (left, right), coef in t.terms()
                    if (left if keep == "right" else right)[0] == 0
                ]
            )
            if collapsed != LaurentElement.monomial(u):
                witness = {"monomial": list(u)}
                break
        checks.append(_result(name, witness))

    witness = None
    for u, t in expansions.items():
        lhs = []
        rhs = []
        for (left, right), coef in t.terms():
            lhs += [((l2, r2, right), coef * c2) for (l2, r2), c2 in expand(left).terms()]
            rhs += [((left, l2, r2), coef * c2) for (l2, r2), c2 in expand(right).terms()]
        if _merge(lhs) != _merge(rhs):
            witness = {"monomial": list(u)}
            break
    checks.append(_result("coassociativity", witness))

    def components(t: TensorElement):
        return (c for (left, right) in t.support() for c in (*left, *right))

    m = max((abs(c) for t in expansions.values() for c in components(t)), default=0)
    base = 4 * m + 1

    def pack(t: TensorElement) -> list[tuple[int, int | Fraction]]:
        return [
            (((l0 * base + l1) * base + r0) * base + r1, c)
            for ((l0, l1), (r0, r1)), c in t.terms()
        ]

    packed = {u: pack(t) for u, t in expansions.items()}
    targets: dict[tuple[int, int], dict | None] = {}
    witness = None
    for u, v in combinations_with_replacement(points, 2):
        s = (u[0] + v[0], u[1] + v[1])
        if s in targets:
            target = targets[s]
        else:
            t = expand(s)
            in_range = all(-2 * m <= c <= 2 * m for c in components(t))
            target = targets[s] = dict(pack(t)) if in_range else None
        if target is None or _packed_product(packed[u], packed[v]) != target:
            witness = {"pair": [list(u), list(v)]}
            break
    checks.append(_result("multiplicativity", witness))

    return VerificationReport(tuple(checks))


def _packed_product(f: list, g: list) -> dict:
    """Product of two packed expansions as ``{packed key: coefficient}``, zero sums dropped."""
    outer, inner = (f, g) if len(f) <= len(g) else (g, f)
    if not outer:
        return {}
    k1, c1 = outer[0]
    acc = {k1 + k2: c1 * c2 for k2, c2 in inner}
    get = acc.get
    for k1, c1 in outer[1:]:
        for k2, c2 in inner:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    if 0 in acc.values():
        acc = {k: c for k, c in acc.items() if c}
    return acc


def _result(name: str, witness: dict | None) -> CheckResult:
    return CheckResult(name, "fail" if witness else "pass", witness)


def verify_bialgebra(spec: MonoidSpec, box: int) -> VerificationReport:
    """Bialgebra axiom suite for a spec's own cone and comultiplication."""
    return verify_comultiplication(cone_of_spec(spec), ComultRule(spec.n), box)
