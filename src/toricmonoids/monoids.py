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
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from math import gcd

from .algebra import _SMALL_DEGREES, _SMALL_ROWS, TensorElement, _binomials
from .demazure import RootPair, _require_root
from .lattice import (
    Cone2,
    LatticeMap,
    LatticePoint,
    M,
    _check_ambient,
    _det,
    _json_int,
    _quoted,
    _Record,
    _setattr,
    as_int,
    box_lattice_points,
    hilbert_basis,
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
        try:
            family = Family(data["family"])
        except ValueError:
            shown = _quoted(data["family"])
            raise ValueError(f'family must be "Group", "X" or "Y", got {shown}') from None
        n = _json_int(data["n"], "n")
        if family is Family.GROUP:
            return cls(family, n, data.get("a"), data.get("b"))
        return cls(family, n, _json_int(data["a"], "a"), _json_int(data["b"], "b"))

    def __str__(self) -> str:
        if self.family is Family.GROUP:
            return f"Group({self.n})"
        return f"{self.family.value}({self.n},{self.a},{self.b})"


class HalfPlane(_Record):
    """The exponent region of the group family: ``{u in M_Q : u_x >= 0}``.

    Not a :class:`Cone2` (it is not strongly convex), but it stores normals
    the way a cone does, its one inward facet normal ``(1, 0)`` paired with a
    zero one, so it shares :meth:`Cone2.contains`, reads and checks included.
    """

    _fields = ("ambient",)
    # Not a field, as in ``Cone2``.
    _normals = ((1, 0), (0, 0))

    def __init__(self, ambient: str = M):
        _setattr(self, "ambient", _check_ambient(ambient))

    contains = Cone2.contains

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


def _progression(ux: int, uy: int, d: int, e1: tuple, e2: tuple) -> tuple:
    """The keys of ``sum_j C(d, j) chi^(u + j*e2) (x) chi^(u + (d-j)*e1)`` as ``(start, step, d)``.

    ``e1`` and ``e2`` are not both zero (no Demazure root is), so term ``j``'s
    key moves by the nonzero step ``(e2, -e1)`` and the keys ``start + k*step``,
    ``k = 0..d``, are distinct and in canonical order with no sort: ``j``
    ascends when the step is above zero (lexicographically), else descends; the
    row is symmetric.  :func:`_expand` builds the expansion from it, and the
    CLI's ``comult`` prints it with ``algebra._expansion_chunks``.
    """
    (e1x, e1y), (e2x, e2y) = e1, e2
    if (e2x, e2y, -e1x, -e1y) > (0, 0, 0, 0):  # from j = 0, stepping by (e2, -e1)
        return ((ux, uy), (ux + d * e1x, uy + d * e1y)), ((e2x, e2y), (-e1x, -e1y)), d
    # from j = d, stepping by (-e2, e1)
    return ((ux + d * e2x, uy + d * e2y), (ux, uy)), ((-e2x, -e2y), (e1x, e1y)), d


def _expand(start: tuple, step: tuple, d: int) -> TensorElement:
    """The expansion whose keys are a :func:`_progression`: term ``k`` is ``start + k*step``.

    Costs O(d) big-int steps: one binomial row, keys stepped by additions.  The result
    carries ``d`` in ``_degree``, which nothing else sets: its JSON prints the row in base 10.
    """
    ((lx, ly), (rx, ry)), ((sx, sy), (tx, ty)) = start, step
    terms = {}
    for c in _binomials(d):
        terms[(lx, ly), (rx, ry)] = c
        lx, ly, rx, ry = lx + sx, ly + sy, rx + tx, ry + ty
    out = TensorElement._of(terms)
    out._degree = d
    return out


def comult(rule: ComultRule, u) -> TensorElement:
    """Comultiplication of the monomial ``u``: the root-pair route at the ray ``(1, 0)``.

    ``x^a y^b  |->  sum_i C(a, i) x^(a-i) y^(b+n*i) (x) x^i y^b``: :func:`_progression`
    at ``d = a``, ``e1 = (-1, 0)`` and ``e2 = (-1, n)``.  Its step ``((-1, n), (1, 0))``
    is below zero, so ``i`` descends from ``a``: term ``k = a - i`` has the key
    ``((k, b + n*(a - k)), (a - k, b))``.  The dict is filled here, with the three
    moving exponents stepped by one addition each, not through :func:`_expand`, since
    ``verify`` calls it once per premise point; the keys, their order and ``_degree``
    are those :func:`_expand` would build.  For the same reason a ``tuple`` of two
    ``int`` is read inline (every other ``u`` goes through :func:`int_xy`, with its
    errors), a row of degree below ``algebra._SMALL_DEGREES`` is iterated in the shared
    ``_SMALL_ROWS`` with no copy, and the result is built with no classmethod call.
    """
    if type(u) is tuple and len(u) == 2 and type(u[0]) is int and type(u[1]) is int:
        a, b = u
    else:
        a, b = int_xy(u, M)
    if a < 0:
        raise ValueError(f"monomial ({a}, {b}) has a negative x-exponent")
    n = rule.n
    terms = {}
    k, ly, rx = 0, b + n * a, a
    for c in _SMALL_ROWS[a] if a < _SMALL_DEGREES else _binomials(a):
        terms[(k, ly), (rx, b)] = c
        k, ly, rx = k + 1, ly - n, rx - 1
    out = TensorElement.__new__(TensorElement)
    out._terms = terms
    out._degree = a
    return out


def _monomial_progression(spec: MonoidSpec, u) -> tuple:
    """The checks of :func:`comult_monomial`, then the :func:`_progression` of its keys."""
    region = cone_of_spec(spec)
    xy = int_xy(u, M)
    if not region.contains(xy):
        raise ValueError(f"monomial {xy} is not in the exponent region of {spec}")
    a, b = xy  # a >= 0: every spec region lies in u_x >= 0
    return _progression(a, b, a, (-1, 0), (-1, spec.n))


def comult_monomial(spec: MonoidSpec, u) -> TensorElement:
    """Comultiplication of a monomial of the spec's coordinate algebra.

    The exponent is in lattice coordinates and must lie in the spec's cone.
    """
    return _expand(*_monomial_progression(spec, u))


def _root_pair_progression(sigma: Cone2, pair: RootPair, u) -> tuple:
    """The checks of :func:`comult_from_root_pair`, in order, then its :func:`_progression`."""
    i, e1, e2 = pair.ray_index, pair.e1.e.xy, pair.e2.e.xy
    _require_root(sigma, i, e1)
    _require_root(sigma, i, e2)
    ux, uy = int_xy(u, M)
    p, q = sigma.rays[i], sigma.rays[1 - i]
    d = ux * p.x + uy * p.y
    if d < 0 or ux * q.x + uy * q.y < 0:
        raise ValueError(f"monomial ({ux}, {uy}) is not in the dual cone of {sigma}")
    return _progression(ux, uy, d, e1, e2)


def comult_from_root_pair(sigma: Cone2, pair: RootPair, u) -> TensorElement:
    """Comultiplication induced by an ordered pair of Demazure roots.

    Expands ``chi^u (x) chi^u (1 (x) chi^e1 + chi^e2 (x) 1)^d``, ``d = <p_i, u>``,
    by :func:`_expand`.  Checks, in order: ``e1`` and then ``e2`` are Demazure roots at
    ``p_i`` of a cone in N (else ``ValueError``), and ``u`` pairs nonnegatively with both
    rays.  No term then leaves the cone: ``u + k*e`` pairs to ``d - k >= 0`` with ``p_i``
    for ``k <= d`` and nonnegatively with the other ray.
    """
    return _expand(*_root_pair_progression(sigma, pair, u))


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
    # A cone that passes has the ray (0, 1) or (0, -1), and its other ray has
    # x > 0; rays sort lexicographically, so the axis ray comes first.
    axis, other = cone.rays
    if axis.y > 0:
        return MonoidSpec.x(n, other.x, other.y)
    return MonoidSpec.y(n, other.x, -n * other.x - other.y)


def _require_surface_family(spec: MonoidSpec, what: str) -> None:
    if spec.family is Family.GROUP:
        raise ValueError(f"{what} is not defined for the group family")


def image_ideal_codim(spec: MonoidSpec, k: int) -> int:
    """Codimension of the k-th image ideal of the left additive action.

    Closed form: ``ceil(k*b/a)`` for the X family and ``ceil(k*b/a) + n*k``
    for the Y family.  Separates non-isomorphic structures.
    """
    if type(k) is int and k >= 1:
        return _image_ideal_codims(spec, (k,))[0]
    _require_surface_family(spec, "the image-ideal codimension")
    raise ValueError(f"k must be a positive integer, got {k!r}")


def _image_ideal_codims(spec: MonoidSpec, ks) -> list[int]:
    """:func:`image_ideal_codim` at each of ``ks``, positive ints the caller has
    checked, with one family check: the lists of ``invariants`` and ``catalog``."""
    _require_surface_family(spec, "the image-ideal codimension")
    a, b = spec.a, spec.b
    n = spec.n if spec.family is Family.Y else 0
    return [n * k - (-k * b // a) for k in ks]  # the ceiling of k*b/a, exact


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
    zero and the unit group scales it with the recorded left/right weights:
    a torus point ``(x, y)`` times a point of the divisor, on that side,
    multiplies its coordinate by ``y**weight`` for X and by ``y**-weight``
    for Y, whose chart reads ``1/y``.  When ``b = 0`` (which forces
    ``a = 1``) the line consists of idempotents instead; the weights then
    differ by ``a*n`` but only one side acts by scaling, and the side of
    weight 0 fixes the line.  So ``idempotent_line`` is not stored: it is
    ``not has_zero``.
    """

    _fields = ("left_weight", "right_weight", "has_zero")

    def __init__(self, left_weight: int, right_weight: int, has_zero: bool):
        _setattr(self, "left_weight", left_weight)
        _setattr(self, "right_weight", right_weight)
        _setattr(self, "has_zero", has_zero)

    @property
    def idempotent_line(self) -> bool:
        return not self.has_zero

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
    return BoundaryInfo(heavy, light, has_zero=spec.b > 0)


def _chart(spec: MonoidSpec, what: str) -> tuple[tuple[int, int], ...]:
    """The chart's monomials, one per coordinate: the Hilbert basis of the spec's cone.

    Sorted order is angular: every generator but the axis ray has ``u_x > 0``,
    and two with the same ``u_x`` would differ by a multiple of the axis ray.
    A two-element basis is reversed, so the plane charts ``a = 1`` keep their
    non-axis monomial first.
    """
    _require_surface_family(spec, what)
    chart = tuple(g.xy for g in hilbert_basis(cone_of_spec(spec)))
    return chart[::-1] if len(chart) == 2 else chart


def _chart_point(spec: MonoidSpec, chart: tuple, p) -> tuple[int | Fraction, ...]:
    """The point ``p`` read exactly; ``ValueError`` unless it lies on the surface, in O(s) steps.

    The nonzero coordinates of a surface point form a face: the origin or a
    ray, when every coordinate but the first or but the last is zero, or the
    torus, cut out by the consecutive relations ``z[i-1]*z[i+1] = z[i]^c``,
    ``c = |det(g[i-1], g[i+1])|``, of the chart monomials ``g``
    (Riemenschneider 1974): ``(z[0], z[1])`` fixes a torus point, because
    consecutive monomials form a lattice basis (Cox–Little–Schenck Ch. 10).
    """
    z = tuple(parse_rational(v) for v in p)
    if len(z) != len(chart):
        raise ValueError(f"{spec} chart points have {len(chart)} coordinates, got {len(z)}")
    on_torus = all(z) and all(
        z[i - 1] * z[i + 1] == z[i] ** abs(_det(chart[i - 1], chart[i + 1]))
        for i in range(1, len(z) - 1)
    )
    if not (on_torus or not any(z[1:]) or not any(z[:-1])):
        raise ValueError(f"({', '.join(map(str, z))}) is not a point of the {spec} surface")
    return z


def _powers(spec: MonoidSpec, chart: tuple, u: tuple[int, int]) -> tuple[int, int, int]:
    """``(i, e, f)`` with ``chi^u = g[i]^e * g[i+1]^f`` for the chart monomials ``g``.

    A monomial off the cone raises ``ValueError``.  Bisection on the side of
    ``u`` each monomial lies on finds the cell of ``u`` in O(log s), and that
    cell's lattice basis gives the powers as two determinants.
    """
    sign = _det(chart[0], chart[1])  # +-1, the orientation of every consecutive pair
    i = bisect_right(range(1, len(chart) - 1), 0, key=lambda j: sign * _det(u, chart[j]))
    e, f = sign * _det(u, chart[i + 1]), sign * _det(chart[i], u)
    if e < 0 or f < 0:
        raise ValueError(f"monomial {u} is not in the cone of {spec}")
    return i, e, f


def _value(point: tuple, powers: tuple[int, int, int], factor=1) -> int | Fraction:
    """``factor`` times the chart coordinates to the given powers, an ``int`` when integral."""
    i, e, f = powers
    if e:
        factor *= point[i] ** e
    if f:
        factor *= point[i + 1] ** f
    return factor.numerator if factor.denominator == 1 else factor


def _pair_value(spec: MonoidSpec, chart: tuple, terms, p: tuple, q: tuple) -> int | Fraction:
    """``sum(coef * chi^left(p) * chi^right(q))`` over tensor terms, an ``int`` when integral."""
    total = 0
    for (left, right), coef in terms:
        total += _value(q, _powers(spec, chart, right), _value(p, _powers(spec, chart, left), coef))
    return total.numerator if total.denominator == 1 else total


def multiply_points(spec: MonoidSpec, p, q) -> tuple[int | Fraction, ...]:
    """Exact chart-level product of two surface points, an ``int`` per coordinate when integral.

    Coordinate ``i`` is the comultiplication of the chart's ``i``-th monomial
    evaluated at ``(p, q)``: the sum of ``coef * chi^left(p) * chi^right(q)``.
    Every X and Y spec has a chart (:func:`_chart`); a point off the surface
    raises ``ValueError``.
    """
    return _multiply_on_chart(spec, _chart(spec, "point multiplication"), p, q)


def _multiply_on_chart(spec: MonoidSpec, chart: tuple, p, q) -> tuple[int | Fraction, ...]:
    """:func:`multiply_points` on the spec's ``chart``, for a caller that has built it."""
    p, q = _chart_point(spec, chart, p), _chart_point(spec, chart, q)
    rule = ComultRule(spec.n)
    return tuple(_pair_value(spec, chart, comult(rule, g)._terms.items(), p, q) for g in chart)


def chart_unit(spec: MonoidSpec) -> tuple[int, ...]:
    """The unit element of the chart: each chart monomial at its counit, an ``int``."""
    return tuple(counit(g) for g in _chart(spec, "the chart unit"))


def chart_zero(spec: MonoidSpec) -> tuple[int, ...]:
    """The chart origin, ``int`` 0 per chart monomial (the absorbing zero when the boundary has one)."""
    return tuple(0 for _ in _chart(spec, "the chart zero"))


def chart_monomial_value(spec: MonoidSpec, u, point) -> int | Fraction:
    """Value of the cone monomial ``chi^u`` at a surface point, an ``int`` when integral.

    Writes ``u`` over the two chart monomials of the cell that holds it and
    evaluates; on the surface every decomposition gives this value.
    """
    chart = _chart(spec, "chart evaluation")
    return _value(_chart_point(spec, chart, point), _powers(spec, chart, int_xy(u, M)))


def tensor_chart_value(spec: MonoidSpec, t: TensorElement, p, q) -> int | Fraction:
    """Value of a tensor element at a pair of surface points, an ``int`` when integral.

    A leg off the cone raises ``ValueError``, as in :func:`chart_monomial_value`.
    """
    chart = _chart(spec, "chart evaluation")
    p, q = _chart_point(spec, chart, p), _chart_point(spec, chart, q)
    return _pair_value(spec, chart, t._terms.items(), p, q)


def counit(u) -> int:
    """Counit of a cone monomial: evaluation at the unit element ``(x, y) = (0, 1)``.

    The ``int`` 1 when the x-exponent vanishes and 0 otherwise, in the normal
    form of the other chart values.
    """
    x, _ = int_xy(u, M)
    return 1 if x == 0 else 0


class CheckResult(_Record):
    """One axiom check, failed exactly when it holds a non-empty witness dict.

    ``status`` (``"pass"`` or ``"fail"``) and ``passed`` are read from the
    witness, so no result can contradict itself.  A witness that is neither
    ``None`` nor a ``dict`` raises ``ValueError``.
    """

    _fields = ("name", "witness")

    def __init__(self, name: str, witness: dict | None = None):
        if witness is not None and not isinstance(witness, dict):
            raise ValueError(f"a check's witness is a dict or None, got {witness!r}")
        _setattr(self, "name", name)
        _setattr(self, "witness", witness)

    @property
    def status(self) -> str:
        return "fail" if self.witness else "pass"

    @property
    def passed(self) -> bool:
        return not self.witness

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "witness": self.witness}


class VerificationReport(_Record):
    """Outcome of the bialgebra axiom checks, with a witness for each failed check."""

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
    pairs.  A check passes only when it is proved; failures are reported with
    a witness, never raised.  The region must lie in the half plane
    ``u_x >= 0``, where ``comult`` is defined (as :func:`restriction_failure`
    demands): a box monomial with negative x-exponent raises ``ValueError``
    before any expansion.  The walk holds one expansion at a time: each point
    of ``P`` below is expanded once, compared and let go.

    One premise decides all four algebraic checks: ``expand`` agrees with the
    rule's closed form ``R(u) = (X + Y)^u_x * (y (x) y)^u_y``,
    ``X = x (x) 1`` and ``Y = y^n (x) x``, on the set ``P`` of the legs of
    every box expansion and the sums of two box monomials, enumerated as runs
    (:func:`_premise_runs`) with no pair or term loop.  ``P`` holds the box
    itself: term ``k = 0`` of ``R(u)`` has ``u`` as its right leg.  ``X`` and
    ``Y`` commute, so ``R`` is an algebra map on ``K[x, y, 1/y]``; it is
    counital and coassociative on ``x`` and ``y``, hence on every monomial,
    and ``R(u) * R(v) = R(u + v)``.  So the premise proves both counits,
    coassociativity (both sides are then ``(R (x) id) R`` and
    ``(id (x) R) R`` at ``u``) and multiplicativity.  Closure asks that every
    leg lie in the region.  The sums do, since the region is a convex cone,
    and each column of the region is an interval, so closure holds exactly
    when both ends of every run of ``P`` lie in the region.

    When the premise fails, the four algebraic checks fail with the witness
    ``{"disagrees": [x, y]}``: the least point of ``P`` where ``expand`` is
    not ``R`` (:func:`_first_disagreement`), which may be a leg or a sum, not
    a counterexample to the axiom itself.  When any check fails, closure
    scans the legs of every box expansion and names the first that leaves the
    region, ``{"monomial": u, "escaped": leg}``; so a failing run expands box
    monomials a second time, up to the witness's or, when closure holds, all.
    """
    box = as_int(box)
    if box < 1:
        raise ValueError("box must be at least 1")
    if region.ambient != M:
        raise ValueError("a comultiplication is verified on a region of M")
    points = box_lattice_points(region, box)
    if points and points[0][0] < 0:  # points ascend in x
        raise ValueError(
            f"box monomial {points[0]} has a negative x-exponent: the region must lie in u_x >= 0"
        )
    expand = partial(comult, rule)
    premise = _premise_runs(_runs(points), rule.n)
    disagrees = _first_disagreement(premise, expand, rule.n)

    witness = None
    ends = ((x, y) for x, lo, hi in premise for y in (lo, hi))
    if disagrees or not all(region.contains(end) for end in ends):
        witness = next(
            (
                {"monomial": list(u), "escaped": list(leg)}
                for u in points
                for key in expand(u).support()
                for leg in key
                if not region.contains(leg)
            ),
            None,
        )
    checks = [CheckResult("cone-closure", witness)]
    for name in ("counit-left", "counit-right", "coassociativity", "multiplicativity"):
        checks.append(CheckResult(name, disagrees and {"disagrees": list(disagrees)}))
    return VerificationReport(tuple(checks))


def _runs(points) -> list[list[int]]:
    """``points`` as maximal runs ``[x, lo, hi]``: the points ``(x, y)``, ``lo <= y <= hi``.

    A run grows while the next point is the one above it, so the points of a
    convex region in a box, listed column by column as
    :func:`box_lattice_points` lists them, give one run per column.
    """
    runs: list[list[int]] = []
    for x, y in points:
        if runs and runs[-1][0] == x and runs[-1][2] == y - 1:
            runs[-1][2] = y
        else:
            runs.append([x, y, y])
    return runs


def _premise_runs(runs, n: int) -> list[list[int]]:
    """The premise set ``P`` of :func:`verify_comultiplication`, as disjoint sorted maximal runs.

    ``P`` holds the legs of ``R(u)`` and the sums ``u + v`` (repeats allowed)
    for the points ``u``, ``v`` of ``runs``.  Term ``k`` of ``R(x, y)`` has
    the legs ``(k, y + n*(x - k))`` and ``(x - k, y)``, so for each ``k <= x``
    a run ``[x, lo, hi]`` gives the runs ``[k, lo + n*(x - k), hi + n*(x - k)]``
    and ``[x - k, lo, hi]``; two runs at ``x1`` and ``x2`` sum to the one run
    ``[x1 + x2, lo1 + lo2, hi1 + hi2]``.  Every point of ``P`` has x-exponent
    ``>= 0`` when the runs have.  All these intervals go into one column
    table, merged once where they overlap or touch; no point, pair or term is
    visited.
    """
    columns: dict[int, list[tuple[int, int]]] = {}
    for i, (x, lo, hi) in enumerate(runs):
        for k in range(x + 1):
            shift = n * (x - k)
            columns.setdefault(k, []).append((lo + shift, hi + shift))
            columns.setdefault(x - k, []).append((lo, hi))
        for x2, lo2, hi2 in runs[i:]:
            columns.setdefault(x + x2, []).append((lo + lo2, hi + hi2))
    merged: list[list[int]] = []
    for x in sorted(columns):
        for lo, hi in sorted(columns[x]):
            if merged and merged[-1][0] == x and lo <= merged[-1][2] + 1:
                merged[-1][2] = max(merged[-1][2], hi)
            else:
                merged.append([x, lo, hi])
    return merged


def _first_disagreement(runs, expand, n: int) -> tuple[int, int] | None:
    """The first point of ``runs`` where ``expand`` is not, term for term, the weight-``n`` rule ``R``.

    By the binomial theorem the ``k``-th term of ``R(u)``, in the order
    :func:`comult` builds them, is
    ``C(u_x, k) x^k y^(u_y + n*(u_x - k)) (x) x^(u_x - k) y^u_y``.  Any other
    term count, order, key or coefficient disagrees.  The walk follows the
    runs in order and stops at the first point that disagrees, so for the
    sorted runs of :func:`_premise_runs` it returns the least such point in
    ``(x, y)`` order; ``None`` is the premise of the proofs in
    :func:`verify_comultiplication`.  One binomial row per run, compared with
    each expansion's coefficients in one list comparison; the expected key is
    stepped term by term, ``k`` up by one, ``y + n*(u_x - k)`` down by ``n``
    and ``u_x - k`` down by one, with no product per term.
    """
    for x, lo, hi in runs:
        row = _binomials(x)
        for y in range(lo, hi + 1):
            terms = expand((x, y))._terms
            if list(terms.values()) != row:  # the term count and each coefficient
                return (x, y)
            k, top, rest = 0, y + n * x, x
            for (lx, ly), (rx, ry) in terms:
                if lx != k or ly != top or rx != rest or ry != y:
                    return (x, y)
                k, top, rest = k + 1, top - n, rest - 1
    return None


def verify_bialgebra(spec: MonoidSpec, box: int) -> VerificationReport:
    """Bialgebra axiom suite for a spec's own cone and comultiplication."""
    return verify_comultiplication(cone_of_spec(spec), ComultRule(spec.n), box)
