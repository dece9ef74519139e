"""Exact geometry of rank-2 lattices: points, integer maps, rational strongly
convex cones, duality, and minimal semigroup generators.

Two mutually dual lattices are used throughout the package: ``M`` (character
exponents of the two-torus) and ``N`` (one-parameter subgroups).  Both are
coordinatized over the standard dual bases, so the pairing is the plain dot
product.  Every computation is exact integer or rational arithmetic; floats
are rejected.

Cones here are always full-dimensional and strongly convex, stored by their
two primitive ray generators in a normalized (lexicographic) order so that
structural equality coincides with mathematical equality.  The one degenerate
region the package needs, the half plane ``{u : u_x >= 0}``, is represented by
a dedicated descriptor in :mod:`toricmonoids.monoids`, not by :class:`Cone2`,
though it shares the cone's membership test.
"""

from __future__ import annotations

import json
import operator
import sys
from collections.abc import Sequence
from fractions import Fraction
from itertools import product
from math import gcd

M = "M"
N = "N"
_AMBIENTS = (M, N)


class DegenerateConeError(ValueError):
    """Raised when ray data does not span a strongly convex 2D cone."""


def _check_ambient(ambient: str, show=repr) -> str:
    """``ambient`` if it names a lattice; ``show`` writes the refusal's values."""
    if ambient not in _AMBIENTS:
        raise ValueError(f"ambient must be {show(M)} or {show(N)}, got {show(ambient)}")
    return ambient


def _quoted(value) -> str:
    """A payload value as JSON text, the words the user wrote; its repr when it is no JSON value."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


def _json_int(value, name: str | None = None) -> int:
    """A payload integer read by :func:`as_int`, refused in the payload's words (as ``name`` if given)."""
    try:
        return as_int(value)
    except ValueError:
        what = f"{name} must be an integer" if name else "exact integer required"
        raise ValueError(f"{what}, got {_quoted(value)}") from None


def _json_xy(value, name: str) -> tuple[int, int]:
    """A payload's integer pair (a ray, a root's ``e``, a monomial), each read by :func:`_json_int`."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{name} {_quoted(value)} is not a pair of integers")
    return (_json_int(value[0]), _json_int(value[1]))


def _check_digits(text: str, show=repr) -> None:
    """Refuse ``text`` if the numerator or denominator that ``Fraction(text)`` builds before it
    reduces them would have more digits than CPython's int-to-str limit, the limit ``json`` holds
    a payload integer to: the digits written, moved by the exponent, for which ``Fraction``
    computes a power of 10.  ``Fraction("1e10000000")`` spends seconds on ``10**10000000``, so
    the refusal comes before any power is taken.  ``show`` writes the refused text."""
    mantissa, _, exponent = text.lower().partition("e")
    try:
        e = int(exponent or 0)
    except ValueError:  # no exponent ``Fraction`` reads, so it refuses the text itself
        return
    fraction_digits = sum(map(str.isdigit, mantissa.partition(".")[2]))
    written = max(sum(map(str.isdigit, mantissa)) + e, fraction_digits - e + 1)
    # The limit CPython has set since 3.10.7; its default where it is off or missing.
    limit = getattr(sys, "get_int_max_str_digits", int)() or 4300
    if written > limit:
        raise ValueError(f"{show(text)} has more than {limit} digits in its numerator or denominator")


def _json_rational(value) -> int | Fraction:
    """A payload rational read by :func:`parse_rational`, refused in the payload's words."""
    if isinstance(value, str):
        _check_digits(value, _quoted)
    try:
        return parse_rational(value)
    except (TypeError, ValueError):
        raise ValueError(f"exact rational required, got {_quoted(value)}") from None


def other_ambient(ambient: str) -> str:
    return N if ambient == M else M


def int_xy(p: PointLike, ambient: str | None) -> tuple[int, int]:
    """Integer coordinates of a lattice point argument.

    A ``tuple`` of two ``int`` is returned as it is.  A :class:`LatticePoint`
    must lie in ``ambient`` (``None`` accepts either lattice).  Every other
    coordinate goes through :func:`as_int`, so a ``bool``, ``float``, ``str``
    or non-integral coordinate raises ``ValueError``.
    """
    if type(p) is tuple and len(p) == 2 and type(p[0]) is int and type(p[1]) is int:
        return p
    if isinstance(p, LatticePoint):
        if ambient is not None and p.ambient != ambient:
            raise ValueError(f"expected a point of {ambient}, got one of {p.ambient}")
        x, y = p.x, p.y
    else:
        x, y = p
    return (as_int(x), as_int(y))


def exact_xy(q: PointLike, ambient: str) -> tuple:
    """Coordinates of a point tested against a region of ``ambient``.

    A :class:`LatticePoint` must lie in ``ambient``; a coordinate pair, the
    form of a rational point, must hold exact rationals (``int`` or
    ``Fraction``), so a ``bool``, ``float`` or ``str`` coordinate raises
    ``ValueError``.
    """
    if isinstance(q, LatticePoint):
        if q.ambient != ambient:
            raise ValueError(f"point of {q.ambient} tested against a cone in {ambient}")
        return (q.x, q.y)
    x, y = q
    for v in (x, y):
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise ValueError(f"point coordinates must be exact rationals, got {(x, y)!r}")
    return (x, y)


def as_int(v) -> int:
    """Exact integer coercion; bools and anything with a fractional part are refused."""
    if type(v) is int:
        return v
    try:
        if not isinstance(v, bool):
            return operator.index(v)
    except TypeError:
        pass
    raise ValueError(f"exact integer required, got {v!r}")


def parse_rational(v) -> int | Fraction:
    """Exact rational from an int, string, or Fraction: an int when integral.

    Floats and bools are refused, so no rounding or truth value can sneak in.
    A string whose numerator or denominator as written, its digits moved by an
    exponent, has more digits than CPython's int-to-str limit raises
    ``ValueError`` before any power of 10 is taken.
    """
    if type(v) is int:
        return v
    if isinstance(v, (bool, float)):
        raise TypeError(f"exact rational required, got {type(v).__name__} {v!r}")
    if isinstance(v, str):
        _check_digits(v)
    try:
        q = Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {v!r}") from None
    return q.numerator if q.denominator == 1 else q


# Sets a field of a frozen value from inside its ``__init__``.
_setattr = object.__setattr__


class _Record:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``_fields`` and sets them in its own
    ``__init__`` through ``object.__setattr__``.  The base gives what a
    frozen dataclass would: equality only with an instance of the same class
    (otherwise ``NotImplemented``), the hash of the field tuple, the
    ``Name(field=value, ...)`` repr, ``__match_args__``, and
    ``AttributeError`` on assignment or deletion.  Instances keep a
    ``__dict__``, so ``copy`` and ``pickle`` restore them without calling
    ``__init__`` or ``__setattr__``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields
        get = operator.attrgetter(*fields)
        # The field tuple as a plain function of the instance (never bound).
        cls._key = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))
        cls.__match_args__ = fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _lexicographic(compare):
    """A ``LatticePoint`` order method: ``compare`` on the ``(x, y, ambient)`` tuples."""

    def method(self, other):
        if other.__class__ is self.__class__:
            return compare(self._key(self), self._key(other))
        return NotImplemented

    return method


class LatticePoint(_Record):
    """An integer point of ``M`` or ``N``.

    Ordering is lexicographic on ``(x, y)``, then on the ambient; this is the
    fixed total order used everywhere for normalization.
    """

    _fields = ("x", "y", "ambient")

    def __init__(self, x: int, y: int, ambient: str = M):
        if type(x) is not int or type(y) is not int:
            raise ValueError(f"lattice point coordinates must be integers, got {(x, y)!r}")
        _check_ambient(ambient)
        _setattr(self, "x", x)
        _setattr(self, "y", y)
        _setattr(self, "ambient", ambient)

    __lt__ = _lexicographic(operator.lt)
    __le__ = _lexicographic(operator.le)
    __gt__ = _lexicographic(operator.gt)
    __ge__ = _lexicographic(operator.ge)

    @property
    def xy(self) -> tuple[int, int]:
        return (self.x, self.y)

    def __neg__(self) -> "LatticePoint":
        return LatticePoint(-self.x, -self.y, self.ambient)

    def __add__(self, other: "LatticePoint") -> "LatticePoint":
        if not isinstance(other, LatticePoint) or other.ambient != self.ambient:
            return NotImplemented
        return LatticePoint(self.x + other.x, self.y + other.y, self.ambient)

    def __sub__(self, other: "LatticePoint") -> "LatticePoint":
        if not isinstance(other, LatticePoint) or other.ambient != self.ambient:
            return NotImplemented
        return LatticePoint(self.x - other.x, self.y - other.y, self.ambient)

    def to_json(self) -> list[int]:
        return [self.x, self.y]

    @classmethod
    def from_json(cls, data, ambient: str = M) -> "LatticePoint":
        return cls(*int_xy(data, None), ambient)

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


# A point argument: a lattice point, or a coordinate pair.  A
# ``types.UnionType``, so building it imports nothing.
PointLike = LatticePoint | Sequence


def pairing(u: LatticePoint, p: LatticePoint) -> int:
    """Dual pairing of a character ``u`` in M with ``p`` in N (dot product)."""
    if not (isinstance(u, LatticePoint) and isinstance(p, LatticePoint)):
        raise ValueError(f"pairing takes two LatticePoints, got {u!r} and {p!r}")
    if u.ambient != M or p.ambient != N:
        raise ValueError(
            f"pairing expects an (M, N) argument pair, got ({u.ambient}, {p.ambient})"
        )
    return u.x * p.x + u.y * p.y


def primitive(v: LatticePoint) -> LatticePoint:
    """The primitive lattice point on the ray through ``v``.

    Divides out the gcd of the coordinates; the direction is preserved.
    """
    if not isinstance(v, LatticePoint):
        raise ValueError(f"primitive takes a LatticePoint, got {v!r}")
    if v.x == 0 and v.y == 0:
        raise ValueError("the zero vector spans no ray")
    d = gcd(abs(v.x), abs(v.y))
    return LatticePoint(v.x // d, v.y // d, v.ambient)


class Cone2(_Record):
    """A full-dimensional strongly convex rational cone in a rank-2 lattice.

    Stored by its two primitive ray generators, as a tuple sorted
    lexicographically, so equal cones compare (and hash) equal.  Use
    :meth:`from_rays` to build one from arbitrary ray data.
    """

    _fields = ("rays", "ambient")

    def __init__(self, rays: Sequence[LatticePoint], ambient: str = M):
        rays = tuple(rays)
        _setattr(self, "rays", rays)
        _setattr(self, "ambient", ambient)
        _check_ambient(ambient)
        r1, r2 = rays
        for r in (r1, r2):
            if not isinstance(r, LatticePoint) or r.ambient != ambient:
                raise ValueError("cone rays must be lattice points of the cone's ambient")
            if (r.x, r.y) == (0, 0):
                raise DegenerateConeError("zero vector is not a ray generator")
            if gcd(abs(r.x), abs(r.y)) != 1:
                raise ValueError(f"ray generator {r} is not primitive")
        d = self._det
        if d == 0:
            raise DegenerateConeError(
                f"rays {r1}, {r2} are linearly dependent; the cone is not full-dimensional"
            )
        if not (r1.x, r1.y) < (r2.x, r2.y):
            raise ValueError("cone rays must be sorted in the canonical order")
        # The inward normals, one per ray: ``_normals[i]`` is orthogonal to
        # ``rays[i]`` and pairs positively with the other ray, and ``q`` is in
        # the cone iff it pairs nonnegatively with both.  Not a field, so
        # equality, hash and repr see the rays and the ambient; pickle keeps it.
        s = 1 if d > 0 else -1
        _setattr(self, "_normals", ((-s * r1.y, s * r1.x), (s * r2.y, -s * r2.x)))

    @classmethod
    def from_rays(cls, r1: PointLike, r2: PointLike, ambient: str | None = None) -> "Cone2":
        """Build the cone spanned by two rays, primitivizing and normalizing.

        Each ray is divided by the gcd of its coordinates as ints, so one
        :class:`LatticePoint` is built per ray.
        """
        if ambient is None:
            tagged = [v.ambient for v in (r1, r2) if isinstance(v, LatticePoint)]
            ambient = tagged[0] if tagged else M
        points = []
        for r in (r1, r2):
            x, y = int_xy(r, ambient)
            d = gcd(x, y)
            if d == 0:
                raise DegenerateConeError("zero vector is not a ray generator")
            points.append(LatticePoint(x // d, y // d, ambient))
        lo, hi = sorted(points)
        return cls((lo, hi), ambient)

    @property
    def _det(self) -> int:
        r1, r2 = self.rays
        return r1.x * r2.y - r1.y * r2.x

    @property
    def is_smooth(self) -> bool:
        """True when the ray generators form a lattice basis."""
        return abs(self._det) == 1

    def ray_index(self, p: PointLike) -> int:
        """Index (0 or 1) of a ray generator of this cone."""
        target = int_xy(p, self.ambient)
        for i, r in enumerate(self.rays):
            if r.xy == target:
                return i
        raise ValueError(f"{target} is not a ray generator of {self}")

    def ray_coefficients(self, q: PointLike) -> tuple[Fraction, Fraction]:
        """Exact coefficients (alpha, beta) with q = alpha*r1 + beta*r2."""
        x, y = exact_xy(q, self.ambient)
        r1, r2 = self.rays
        d = self._det
        return (Fraction(x * r2.y - y * r2.x, d), Fraction(r1.x * y - r1.y * x, d))

    def contains(self, q: PointLike) -> bool:
        """Membership test: does ``q`` pair nonnegatively with both stored inward normals?

        A ``tuple`` of two ``int`` (what :func:`box_lattice_points` passes) is
        used as it is; every other ``q`` is read by :func:`exact_xy`, so a point
        of the other ambient and a ``bool``, ``float`` or ``str`` coordinate
        raise ``ValueError``.  :class:`~toricmonoids.monoids.HalfPlane` shares
        this test through its padded normals.
        """
        if type(q) is tuple and len(q) == 2 and type(q[0]) is int and type(q[1]) is int:
            x, y = q
        else:
            x, y = exact_xy(q, self.ambient)
        (a, b), (c, d) = self._normals
        return a * x + b * y >= 0 and c * x + d * y >= 0

    def dual(self) -> "Cone2":
        """The dual cone, spanned by the stored inward normals, in the other ambient.

        For a full-dimensional strongly convex 2D cone the dual is again
        full-dimensional and strongly convex; duality is an involution.
        """
        return Cone2.from_rays(*self._normals, ambient=other_ambient(self.ambient))

    def to_json(self) -> dict:
        return {"rays": [r.to_json() for r in self.rays], "ambient": self.ambient}

    @classmethod
    def from_json(cls, data: dict) -> "Cone2":
        ambient = _check_ambient(data.get("ambient", M), _quoted)
        rays = data["rays"]
        if not isinstance(rays, (list, tuple)) or len(rays) != 2:
            raise ValueError("a cone is given by exactly two rays")
        return cls.from_rays(*(_json_xy(r, "ray") for r in rays), ambient)

    def __str__(self) -> str:
        r1, r2 = self.rays
        return f"cone[{r1}, {r2}; {self.ambient}]"


class LatticeMap(_Record):
    """An integer linear map of a rank-2 lattice.

    The matrix ``[[a, b], [c, d]]`` acts on column vectors:
    ``(x, y) |-> (a*x + b*y, c*x + d*y)``.  Invertible over the integers
    exactly when the determinant is +1 or -1.
    """

    _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        for entry in (a, b, c, d):
            if type(entry) is not int:
                raise ValueError(f"lattice map entries must be integers, got {entry!r}")
        _setattr(self, "a", a)
        _setattr(self, "b", b)
        _setattr(self, "c", c)
        _setattr(self, "d", d)

    @classmethod
    def identity(cls) -> "LatticeMap":
        return cls(1, 0, 0, 1)

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def is_unimodular(self) -> bool:
        return self.det in (1, -1)

    def apply_xy(self, v: PointLike) -> tuple[int, int]:
        x, y = int_xy(v, None)
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def apply(self, v: LatticePoint) -> LatticePoint:
        if not isinstance(v, LatticePoint):
            raise ValueError(f"LatticeMap.apply takes a LatticePoint, got {v!r}")
        x, y = self.apply_xy(v)
        return LatticePoint(x, y, v.ambient)

    def inverse(self) -> "LatticeMap":
        det = self.det
        if det not in (1, -1):
            raise ValueError(f"determinant {det}: no integer inverse")
        return LatticeMap(self.d * det, -self.b * det, -self.c * det, self.a * det)

    def image_cone(self, cone: Cone2) -> Cone2:
        """Image of a cone, re-primitivized and re-normalized."""
        images = [self.apply_xy(r) for r in cone.rays]
        try:
            return Cone2.from_rays(images[0], images[1], cone.ambient)
        except (DegenerateConeError, ValueError) as exc:
            raise DegenerateConeError(f"image cone is degenerate: {exc}") from None

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def box_lattice_points(region, bound: int) -> list[tuple[int, int]]:
    """All integer points of ``region`` with both coordinates in [-bound, bound].

    ``region`` is anything with a ``contains`` method taking a coordinate
    pair (a :class:`Cone2` or the half-plane descriptor).  Every one of the
    ``(2*bound+1)**2`` box points, in row order, is one ``contains`` call on
    an exact-int pair, its fast path, so the cost is O(bound^2) dot products.
    The loop runs in C: ``filter`` walks one ``product`` iterator and keeps
    the points in the same order.  The scan is kept because
    ``perfbench/test_perfbench.py`` pins that count (49 tests at bound 3);
    the column intervals from the two ray inequalities wait on a benchmark
    change.
    """
    bound = as_int(bound)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    side = range(-bound, bound + 1)
    return list(filter(region.contains, product(side, side)))


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, s, t)`` with ``a*s + b*t == g == gcd(a, b) >= 0``."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def _det(u: tuple[int, int], v: tuple[int, int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def hilbert_basis(cone: Cone2) -> list[LatticePoint]:
    """The unique minimal generating set of the semigroup of lattice points of a cone.

    Computed by the Hirzebruch–Jung recurrence (Cox–Little–Schenck, *Toric
    Varieties*, Ch. 10; Oda, *Convex Bodies and Algebraic Geometry*, Ch. 1).
    With the rays ordered so that ``D = det(r1, r2) > 0``, the generators in
    angular order are ``u_0 = r1, u_1, ..., u_s = r2``: consecutive ones form
    a lattice basis, ``u_1 = c*r1 + w`` where ``det(r1, w) = 1`` and
    ``c = ceil(det(r2, w) / D)``, and ``u_{i+1} = b_i*u_i - u_{i-1}`` with
    ``b_i = ceil(det(u_{i-1}, r2) / det(u_i, r2))`` until ``u_i = r2``.
    Cost: one extended gcd and then one integer step per generator, so
    O(s + log max|r1|) for ``s`` generators, with no box scan and no
    ``Fraction``; ``s`` is at most ``D + 1``.  Output is sorted in the fixed
    total order.
    """
    p, q = cone.rays
    r1, r2 = (p.x, p.y), (q.x, q.y)
    d = p.x * q.y - p.y * q.x
    if d < 0:
        r1, r2, d = r2, r1, -d
    _, s, t = _ext_gcd(*r1)
    w = (-t, s)
    c = -(-_det(r2, w) // d)
    prev, cur = r1, (c * r1[0] + w[0], c * r1[1] + w[1])
    d_prev, d_cur = d, _det(cur, r2)
    generators = [prev]
    while d_cur:
        b = -(-d_prev // d_cur)
        prev, cur = cur, (b * cur[0] - prev[0], b * cur[1] - prev[1])
        d_prev, d_cur = d_cur, b * d_cur - d_prev
        generators.append(prev)
    generators.append(cur)
    return [LatticePoint(x, y, cone.ambient) for (x, y) in sorted(generators)]
