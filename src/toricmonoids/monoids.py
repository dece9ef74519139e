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

from .algebra import TensorElement, _sum
from .demazure import RootPair, _require_root
from .lattice import (
    Cone2,
    LatticeMap,
    LatticePoint,
    M,
    N,
    _check_ambient,
    _Record,
    _setattr,
    as_int,
    box_lattice_points,
    exact_xy,
    int_xy,
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
    # Its one inward facet normal and a zero one, as in ``Cone2``; not a field.
    _normals = (1, 0, 0, 0)

    def __init__(self, ambient: str = M):
        _setattr(self, "ambient", _check_ambient(ambient))

    def contains(self, q) -> bool:
        """Membership test, with the fast path and the checks of :meth:`Cone2.contains`."""
        if type(q) is tuple and len(q) == 2:
            x, y = q
            if type(x) is int and type(y) is int:
                return x >= 0
        return exact_xy(q, self.ambient)[0] >= 0

    def to_json(self) -> dict:
        return {"halfplane": True, "ambient": self.ambient}


def cone_of_spec(spec: MonoidSpec) -> Cone2 | HalfPlane:
    """The exponent cone of a spec (the half plane for the group family)."""
    if spec.family is Family.GROUP:
        return HalfPlane()
    if spec.family is Family.X:
        return Cone2.from_rays((0, 1), (spec.a, spec.b), M)
    return Cone2.from_rays((0, -1), (spec.a, -spec.n * spec.a - spec.b), M)


class ComultRule(_Record):
    """The weight-``n`` comultiplication rule on monomials ``(a, b) = x^a y^b``.

    A monomial read in the inverted-torus chart, with ``b`` the exponent of
    ``1/y``, is the lattice monomial ``(a, -b)``; pass that.
    """

    _fields = ("n",)

    def __init__(self, n: int):
        if type(n) is not int or n < 1:
            raise ValueError(f"the comultiplication weight must be a positive integer, got {n!r}")
        _setattr(self, "n", n)


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


def _expand(ux: int, uy: int, d: int, e1: tuple, e2: tuple) -> TensorElement:
    """``sum_j C(d, j) chi^(u + j*e2) (x) chi^(u + (d-j)*e1)``: the one expansion of both routes.

    ``e1`` and ``e2`` are not both zero (no Demazure root is), so term ``j``'s
    key moves by the nonzero step ``(e2, -e1)`` and the keys are distinct and
    built in canonical order with no sort: ``j`` ascends when the step is
    above zero (lexicographically), else descends; the row is symmetric.
    Costs O(d) big-int steps: one binomial row, keys stepped by additions.
    """
    (e1x, e1y), (e2x, e2y) = e1, e2
    if (e2x, e2y, -e1x, -e1y) > (0, 0, 0, 0):  # from j = 0, stepping by (e2, -e1)
        lx, ly, rx, ry, sx, sy, tx, ty = ux, uy, ux + d * e1x, uy + d * e1y, e2x, e2y, -e1x, -e1y
    else:  # from j = d, stepping by (-e2, e1)
        lx, ly, rx, ry, sx, sy, tx, ty = ux + d * e2x, uy + d * e2y, ux, uy, -e2x, -e2y, e1x, e1y
    terms = {}
    for c in _binomials(d):
        terms[(lx, ly), (rx, ry)] = c
        lx, ly, rx, ry = lx + sx, ly + sy, rx + tx, ry + ty
    return TensorElement._of(terms)


def comult(rule: ComultRule, u) -> TensorElement:
    """Comultiplication of the monomial ``u``: the root-pair route at the ray ``(1, 0)``.

    ``x^a y^b  |->  sum_i C(a, i) x^(a-i) y^(b+n*i) (x) x^i y^b``:
    :func:`_expand` at ``d = a``, ``e1 = (-1, 0)`` and ``e2 = (-1, n)``.
    """
    a, b = int_xy(u, M)
    if a < 0:
        raise ValueError(f"monomial ({a}, {b}) has a negative x-exponent")
    return _expand(a, b, a, (-1, 0), (-1, rule.n))


def comult_monomial(spec: MonoidSpec, u) -> TensorElement:
    """Comultiplication of a monomial of the spec's coordinate algebra.

    The exponent is in lattice coordinates and must lie in the spec's cone.
    """
    region = cone_of_spec(spec)
    xy = int_xy(u, M)
    if not region.contains(xy):
        raise ValueError(f"monomial {xy} is not in the exponent region of {spec}")
    return comult(ComultRule(spec.n), xy)


def comult_from_root_pair(sigma: Cone2, pair: RootPair, u) -> TensorElement:
    """Comultiplication induced by an ordered pair of Demazure roots.

    Expands ``chi^u (x) chi^u (1 (x) chi^e1 + chi^e2 (x) 1)^d``, ``d = <p_i, u>``,
    by :func:`_expand`, for a cone in N.  Checks, in order: the cone is in N,
    ``e1`` and then ``e2`` are Demazure roots at ``p_i`` (else ``ValueError``),
    and ``u`` pairs nonnegatively with both rays.  No term then leaves the
    cone: ``u + k*e`` pairs to ``d - k >= 0`` with ``p_i`` for ``k <= d`` and
    nonnegatively with the other ray.
    """
    if sigma.ambient != N:
        raise ValueError("the root-pair comultiplication needs a cone in N")
    i, e1, e2 = pair.ray_index, pair.e1.e.xy, pair.e2.e.xy
    _require_root(sigma, i, e1)
    _require_root(sigma, i, e2)
    ux, uy = int_xy(u, M)
    p, q = sigma.rays[i], sigma.rays[1 - i]
    d = ux * p.x + uy * p.y
    if d < 0 or ux * q.x + uy * q.y < 0:
        raise ValueError(f"monomial ({ux}, {uy}) is not in the dual cone of {sigma}")
    return _expand(ux, uy, d, e1, e2)


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
    comultiplication does not restrict.  A region not in M raises ValueError.
    """
    if cone.ambient != M:
        raise ValueError("the restriction condition applies to exponent cones in M")
    if isinstance(cone, HalfPlane):
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
    ux, uy = int_xy(u, M)
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
    x, _ = int_xy(u, M)
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
    The box scan and the closure check take the exact-int fast path of the
    region's ``contains``.  The counit sums are compared as unsorted dicts.
    Coassociativity adds each term of ``(comult (x) id)(comult u)`` to one
    dict and subtracts each term of ``(id (x) comult)(comult u)`` from it,
    and fails exactly when a value is non-zero: the arithmetic is exact, so
    this is the comparison of the two sums.

    Multiplicativity runs by Kronecker substitution.  An expansion is a *run*
    when its keys, flattened to ``(l0, l1, r0, r1)``, are exactly
    ``first + i*step`` for ``i < L`` (``first`` the least key, ``step`` one
    lexicographically positive vector shared by all box expansions) and its
    coefficients ``c_i`` are positive integers; its code is
    ``sum(c_i << bits*i)`` with ``bits = (S*S).bit_length()``, ``S`` the
    largest coefficient sum of a box expansion.  The product of two runs is
    the run at ``first_u + first_v`` whose coefficients, the coefficients of
    the product of the two polynomials ``sum(c_i z^i)``, are all positive and
    at most ``S*S``, so below ``2**bits``: its code is ``code_u * code_v``,
    and no other run with coefficients below ``2**bits`` has that code.  So
    a pair ``(u, v)`` passes exactly when ``comult(u + v)`` is a run with
    coefficients below ``2**bits``, its first key is ``first_u + first_v``
    and its code is ``code_u * code_v``; a target that is no such run equals
    no product and fails.  Each target is checked and encoded once per
    distinct sum (a sum inside the box reuses its box code), by one pass over
    its terms in the order ``comult`` built them (:func:`_code`), and a pair
    costs four int adds and one big-int product.  When some box expansion
    is not a run (only a corrupted ``comult`` gives one), every pair is
    checked by the ``TensorElement`` product instead.
    """
    box = as_int(box)
    if box < 1:
        raise ValueError("box must be at least 1")
    if region.ambient != M:
        raise ValueError("a comultiplication is verified on a region of M")
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

    for name, side in (("counit-left", 0), ("counit-right", 1)):
        witness = None
        for u, t in expansions.items():
            collapsed = _sum((key[1 - side], c) for key, c in t._terms.items() if key[side][0] == 0)
            if collapsed != {u: 1}:
                witness = {"monomial": list(u)}
                break
        checks.append(_result(name, witness))

    witness = None
    for u, t in expansions.items():
        # (comult (x) id - id (x) comult) of t, summed in one dict.
        diff: dict = {}
        get = diff.get
        for (left, right), coef in t._terms.items():
            for (l2, r2), c2 in expand(left)._terms.items():
                key = (l2, r2, right)
                diff[key] = get(key, 0) + coef * c2
            for (l2, r2), c2 in expand(right)._terms.items():
                key = (left, l2, r2)
                diff[key] = get(key, 0) - coef * c2
        if any(diff.values()):
            witness = {"monomial": list(u)}
            break
    checks.append(_result("coassociativity", witness))

    codes = _box_codes(expansions)
    if codes is None:
        witness = next(
            (
                {"pair": [list(u), list(v)]}
                for u, v in combinations_with_replacement(points, 2)
                if expansions[u] * expansions[v] != expand((u[0] + v[0], u[1] + v[1]))
            ),
            None,
        )
    else:
        step, bits, code_of = codes
        # A sum inside the box is a box monomial: its run is already encoded.
        targets: dict[tuple[int, int], tuple | None] = dict(code_of)
        rows = [(*v, *code_of[v]) for v in points]
        witness = None
        for i, (u0, u1, a0, a1, a2, a3, cu) in enumerate(rows):
            for v0, v1, b0, b1, b2, b3, cv in rows[i:]:
                s = (u0 + v0, u1 + v1)
                try:
                    target = targets[s]
                except KeyError:
                    target = targets[s] = _code(expand(s)._terms, step, bits)
                if target != (a0 + b0, a1 + b1, a2 + b2, a3 + b3, cu * cv):
                    witness = {"pair": [[u0, u1], [v0, v1]]}
                    break
            if witness:
                break
    checks.append(_result("multiplicativity", witness))

    return VerificationReport(tuple(checks))


def _code(terms: dict, step, bits: int) -> tuple | None:
    """``(*first, code)`` when ``terms`` is a run along ``step`` with digits below ``2**bits``.

    ``first`` is the least key, flattened, and ``code`` is
    ``sum(c_i << bits*i)`` for the coefficient ``c_i`` at ``first + i*step``,
    which must be a positive integer (an ``int``, or a ``Fraction`` or
    ``bool`` of integral value) below ``2**bits``.  Without a step (``None``)
    only one-term expansions are runs; otherwise ``None`` means no run.  The
    walk starts at the first key, the least one for the terms ``comult``
    builds in order; only when that walk fails is it repeated in sorted key
    order, from ``min(terms)``.
    """
    if not terms or (step is None and len(terms) > 1):
        return None
    code = _walk(terms.items(), step, bits)
    if code is None:
        code = _walk(sorted(terms.items()), step, bits)
    return code


def _walk(items, step, bits: int) -> tuple | None:
    """:func:`_code` of ``(key, coefficient)`` pairs taken in the given order, in one pass.

    Each key must be the one before it plus ``step``, and each coefficient
    is checked, and shifted into the code, where it is read.
    """
    (d0, d1), (d2, d3) = step or ((0, 0), (0, 0))
    first = None
    code = shift = 0
    for ((k0, k1), (k2, k3)), c in items:
        if first is None:
            first = l0, l1, r0, r1 = (k0, k1, k2, k3)
        elif k0 != l0 or k1 != l1 or k2 != r0 or k3 != r1:
            return None
        if type(c) is not int:
            if not (isinstance(c, (int, Fraction)) and c.denominator == 1):
                return None
            c = c.numerator
        if c < 1 or c >> bits:
            return None
        code |= c << shift
        shift += bits
        l0 += d0
        l1 += d1
        r0 += d2
        r1 += d3
    return (*first, code)


def _box_codes(expansions: dict) -> tuple | None:
    """``(step, bits, {u: (*first, code)})`` when every box expansion is a run, else ``None``.

    ``step`` is the difference of the two least keys of the first expansion
    with more than one term (``None`` when there is none).  ``bits`` comes
    from the largest coefficient sum ``S`` before any expansion is walked;
    when every walk succeeds, each coefficient is a positive integer, so
    ``S`` is the largest digit sum.
    """
    step = None
    for t in expansions.values():
        if len(t._terms) > 1:
            ((a0, a1), (a2, a3)), ((b0, b1), (b2, b3)) = sorted(t._terms)[:2]
            step = ((b0 - a0, b1 - a1), (b2 - a2, b3 - a3))
            break
    s_max = max((sum(t._terms.values()) for t in expansions.values()), default=1)
    bits = (s_max * s_max).numerator.bit_length()
    codes = {}
    for u, t in expansions.items():
        code = codes[u] = _code(t._terms, step, bits)
        if code is None:
            return None
    return step, bits, codes


def _result(name: str, witness: dict | None) -> CheckResult:
    return CheckResult(name, "fail" if witness else "pass", witness)


def verify_bialgebra(spec: MonoidSpec, box: int) -> VerificationReport:
    """Bialgebra axiom suite for a spec's own cone and comultiplication."""
    return verify_comultiplication(cone_of_spec(spec), ComultRule(spec.n), box)
