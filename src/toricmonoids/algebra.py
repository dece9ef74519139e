"""Sparse Laurent-monomial algebra over exact rationals.

Elements are finite sums of character monomials ``chi^u`` with ``u`` ranging
over the rank-2 exponent lattice; tensor elements are sums of monomial pairs
``chi^u (x) chi^v``.  Both share one sparse core: exponent keys are plain
integer pairs (or pairs of pairs), coefficients are exact rationals stored as
``int`` when integral and :class:`fractions.Fraction` otherwise, and terms are
kept in the fixed lexicographic order so structural equality is semantic
equality.  Homogeneous derivations of monomial type (shift by a fixed degree,
scaled by a pairing) round out the toolbox.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import (
    LatticePoint,
    M,
    N,
    _Record,
    _setattr,
    as_int,
    as_xy,
    box_lattice_points,
    parse_rational,
)


class PoleError(ZeroDivisionError):
    """Evaluation of a Laurent element at a zero of one of its denominators."""


def _exponent(u) -> tuple[int, int]:
    x, y = as_xy(u)
    return (as_int(x), as_int(y))


def _merge(pairs) -> dict:
    """Sum ``(key, coefficient)`` pairs into a sorted dict without zero terms.

    Integral sums are stored as ``int``.
    """
    acc: dict = {}
    for key, coef in pairs:
        c = acc.get(key, 0) + coef
        if c:
            acc[key] = c
        elif key in acc:
            del acc[key]
    return {k: c.numerator if c.denominator == 1 else c for k, c in sorted(acc.items())}


class _Sparse:
    """A finite sum of keyed terms with exact rational coefficients.

    Subclasses fix the key shape: ``_key`` checks a key from outside,
    ``_add`` adds two keys, ``_UNIT`` is the key of the unit element,
    ``_key_json``/``_json_key`` map a key to its JSON fields and back, and
    ``_show`` prints a key.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            terms = terms.items()
        self._terms = _merge((self._key(k), parse_rational(c)) for k, c in terms)

    @classmethod
    def _of(cls, terms: dict):
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls._of({})

    @classmethod
    def one(cls):
        return cls._of({cls._UNIT: 1})

    def terms(self) -> list[tuple[tuple, int | Fraction]]:
        return list(self._terms.items())

    def support(self) -> list[tuple]:
        return list(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._of(_merge([*self._terms.items(), *other._terms.items()]))

    def __neg__(self):
        return self._scaled(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        add, right = self._add, other._terms.items()
        return self._of(
            _merge((add(k1, k2), c1 * c2) for k1, c1 in self._terms.items() for k2, c2 in right)
        )

    __rmul__ = __mul__  # both products are commutative

    def _scaled(self, c):
        c = parse_rational(c)
        return self._of(_merge((k, c * v) for k, v in self._terms.items()))

    def __pow__(self, k: int):
        k = as_int(k)
        if k < 0:
            raise ValueError("powers must be nonnegative integers")
        result = self.one()
        base = self
        while k:  # repeated squaring
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def _coef_texts(self) -> dict:
        # Coefficients repeat (C(d, j) = C(d, d - j)), so each distinct one is printed once.
        return {c: str(c) for c in set(self._terms.values())}

    def to_json(self) -> list[dict]:
        text = self._coef_texts()
        return [{**self._key_json(k), "coef": text[c]} for k, c in self._terms.items()]

    @classmethod
    def from_json(cls, data):
        return cls([(cls._json_key(item), item["coef"]) for item in data])

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(_fmt_coef(c, self._show(k)) for k, c in self._terms.items())

    __repr__ = __str__


class LaurentElement(_Sparse):
    """A sparse exact-rational sum of monomials ``chi^(a,b)``.

    Supports ring arithmetic, exponent substitution, and exact evaluation.
    The coordinate algebra is commutative even when the monoid carried by it
    is not.
    """

    __slots__ = ()
    _UNIT = (0, 0)
    _key = staticmethod(_exponent)

    @staticmethod
    def _add(k1, k2):
        return (k1[0] + k2[0], k1[1] + k2[1])

    @staticmethod
    def _key_json(k) -> dict:
        return {"exp": list(k)}

    @staticmethod
    def _json_key(item):
        return tuple(item["exp"])

    @staticmethod
    def _show(k) -> str:
        return _fmt_monomial(*k)

    @classmethod
    def monomial(cls, exponent, coefficient=1) -> "LaurentElement":
        return cls([(exponent, coefficient)])

    def coefficient(self, exponent) -> int | Fraction:
        return self._terms.get(_exponent(exponent), 0)

    def map_exponents(self, fn) -> "LaurentElement":
        """Apply an exponent substitution ``(a, b) -> (a', b')`` to every term."""
        return LaurentElement([(fn(k), c) for k, c in self._terms.items()])

    def evaluate(self, point) -> Fraction:
        """Exact value at a rational point ``(x, y)``.

        Raises :class:`PoleError` when a negative exponent meets a zero
        coordinate.
        """
        # Fraction before powering: a negative power of an int is a float.
        px, py = (Fraction(parse_rational(v)) for v in as_xy(point))
        total = Fraction(0)
        for (a, b), coef in self._terms.items():
            try:
                total += coef * px**a * py**b
            except ZeroDivisionError:
                raise PoleError(f"monomial x^{a} y^{b} has a pole at ({px}, {py})") from None
        return total


def _fmt_monomial(a: int, b: int) -> str:
    parts = []
    if a:
        parts.append("x" if a == 1 else f"x^{a}")
    if b:
        parts.append("y" if b == 1 else f"y^{b}")
    return "*".join(parts)


def _fmt_coef(c, monomial: str) -> str:
    if not monomial:
        return str(c)
    if c == 1:
        return monomial
    if c == -1:
        return f"-{monomial}"
    return f"{c}*{monomial}"


class TensorElement(_Sparse):
    """A sparse exact-rational sum of monomial pairs ``chi^u (x) chi^v``.

    Carries the componentwise product ring structure of the tensor square of
    the Laurent algebra; houses comultiplication outputs.
    """

    __slots__ = ()
    _UNIT = ((0, 0), (0, 0))

    @staticmethod
    def _key(k):
        return (_exponent(k[0]), _exponent(k[1]))

    @staticmethod
    def _add(k1, k2):
        (l1, r1), (l2, r2) = k1, k2
        return ((l1[0] + l2[0], l1[1] + l2[1]), (r1[0] + r2[0], r1[1] + r2[1]))

    @staticmethod
    def _key_json(k) -> dict:
        return {"left": list(k[0]), "right": list(k[1])}

    @staticmethod
    def _json_key(item):
        return (tuple(item["left"]), tuple(item["right"]))

    @staticmethod
    def _show(k) -> str:
        return " (x) ".join(_fmt_monomial(*e) or "1" for e in k)

    @classmethod
    def monomial(cls, left, right, coefficient=1) -> "TensorElement":
        return cls([((left, right), coefficient)])

    def coefficient(self, left, right) -> int | Fraction:
        return self._terms.get((_exponent(left), _exponent(right)), 0)

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json())``, formatted straight from the terms.

        One ``%``-format per term and one join: no per-term dict, no encoder
        pass.  Like ``str``, it raises ``ValueError`` on an int past CPython's
        int-to-str digit limit.
        """
        text = self._coef_texts()
        row = '{"left": [%d, %d], "right": [%d, %d], "coef": "%s"}'
        return "[" + ", ".join(
            [row % (l0, l1, r0, r1, text[c]) for ((l0, l1), (r0, r1)), c in self._terms.items()]
        ) + "]"

    def flip(self) -> "TensorElement":
        """Swap the two tensor legs."""
        return TensorElement([((r, l), c) for (l, r), c in self._terms.items()])

    def map_exponents(self, fn) -> "TensorElement":
        """Apply an exponent substitution to both legs of every term."""
        return TensorElement([((fn(l), fn(r)), c) for (l, r), c in self._terms.items()])


class DerivationRule(_Record):
    """A homogeneous derivation ``chi^u -> scale * <u, ray> * chi^(u + root)``.

    ``root`` is the degree of the derivation (a point of M), ``ray`` the
    distinguished one-parameter direction it pairs against (a point of N).
    The scale accounts for the choice of parametrization of the additive
    flow; every exported invariant is independent of it.
    """

    _fields = ("root", "ray", "scale")

    def __init__(self, root: LatticePoint, ray: LatticePoint, scale: int | Fraction = 1):
        if root.ambient != M:
            raise ValueError("derivation degree must live in M")
        if ray.ambient != N:
            raise ValueError("derivation ray must live in N")
        scale = parse_rational(scale)
        if scale == 0:
            raise ValueError("derivation scale must be nonzero")
        _setattr(self, "root", root)
        _setattr(self, "ray", ray)
        _setattr(self, "scale", scale)

    def apply(self, f: LaurentElement) -> LaurentElement:
        """Linear extension of the monomial rule; satisfies the Leibniz identity."""
        rx, ry = self.root.xy
        px, py = self.ray.xy
        pairs = []
        for (a, b), coef in f.terms():
            weight = a * px + b * py
            if weight:
                pairs.append(((a + rx, b + ry), coef * self.scale * weight))
        return LaurentElement(pairs)

    def __call__(self, f: LaurentElement) -> LaurentElement:
        return self.apply(f)


def is_locally_nilpotent_on(rule: DerivationRule, region, probe_bound: int) -> bool:
    """Finite local-nilpotency certificate on the monomials of a cone.

    For every lattice point ``u`` of ``region`` with coordinates bounded by
    ``probe_bound``, some iterate of the derivation must kill ``chi^u`` within
    ``<u, ray> + 1`` steps.  The certificate is exact whenever the rule comes
    from a genuine Demazure root of the region's dual cone.
    """
    if probe_bound < 1:
        raise ValueError("probe_bound must be at least 1")
    px, py = rule.ray.xy
    for (x, y) in box_lattice_points(region, probe_bound):
        limit = x * px + y * py + 1
        if limit < 1:
            return False
        f = LaurentElement.monomial((x, y))
        for _ in range(limit):
            f = rule.apply(f)
            if not f:
                break
        if f:
            return False
    return True
