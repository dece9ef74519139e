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

from decimal import (
    MAX_EMAX,
    MAX_PREC,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
)
from fractions import Fraction
from itertools import accumulate, chain, count, islice, repeat

from .lattice import (
    LatticePoint,
    M,
    N,
    _Record,
    _setattr,
    as_int,
    int_xy,
    parse_rational,
    primitive,
)


class PoleError(ZeroDivisionError):
    """Evaluation of a Laurent element at a zero of one of its denominators."""


# Decimal arithmetic that keeps every digit: a step that would round or overflow raises.
_EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    traps=[Inexact, Rounded, InvalidOperation, DivisionByZero, Overflow],
)


def _stepped_binomials(d: int) -> list[int]:
    """The binomial row ``[C(d, 0), ..., C(d, d)]``, stepped.

    Each entry is one exact big-int step from the one before,
    ``C(d, i+1) = C(d, i) * (d-i) // (i+1)``; the second half mirrors the first.
    """
    row = [1] * (d + 1)
    c = 1
    for i in range(d // 2):
        c = c * (d - i) // (i + 1)
        row[i + 1] = row[d - i - 1] = c
    return row


# The rows of degree below 33, built once at import: 561 entries, each below 2**30.
# ``verify`` expands one monomial per premise point, nearly all of small degree:
# ``monoids.comult`` iterates the shared row with no copy, and ``_first_disagreement``
# copies one row per run through :func:`_binomials`.  The rows are tuples, so no
# caller can write to them.
_SMALL_DEGREES = 33
_SMALL_ROWS = tuple(tuple(_stepped_binomials(d)) for d in range(_SMALL_DEGREES))


def _binomials(d: int) -> list[int]:
    """The binomial row ``[C(d, 0), ..., C(d, d)]``, a new list on every call.

    A row of degree below ``_SMALL_DEGREES`` is copied from ``_SMALL_ROWS``; any other
    is :func:`_stepped_binomials`.  ``monoids.comult`` reads a small row from
    ``_SMALL_ROWS`` itself and calls this only from degree ``_SMALL_DEGREES`` on.
    """
    if 0 <= d < _SMALL_DEGREES:
        return list(_SMALL_ROWS[d])
    return _stepped_binomials(d)


def _binomial_texts(d: int) -> list[str]:
    """``[str(c) for c in _binomials(d)]``: the same recurrence run in :mod:`decimal`.

    CPython prints an int in time quadratic in its digits; a ``Decimal`` is
    stored in base-10 limbs and prints in linear time.  With ``L`` about
    ``0.3*d`` digits per entry the row costs O(d*L) digit operations, not
    O(d*L^2).  Each step runs under ``_EXACT``, so a product keeps every digit
    or raises, and each integer quotient is exact, since
    ``C(d, i) * (d-i) = C(d, i+1) * (i+1)``; no float is used.  Unlike ``str``
    of an int, it has no digit limit.
    """
    row = ["1"] * (d + 1)
    c = Decimal(1)
    mul, div = _EXACT.multiply, _EXACT.divide_int
    for i in range(d // 2):
        c = div(mul(c, d - i), i + 1)
        row[i + 1] = row[d - i - 1] = str(c)
    return row


def _sum(pairs) -> dict:
    """Sum ``(key, coefficient)`` pairs into an unsorted dict without zero terms."""
    acc: dict = {}
    get = acc.get
    for key, coef in pairs:
        acc[key] = get(key, 0) + coef
    return {k: c for k, c in acc.items() if c}


def _merge(pairs) -> dict:
    """:func:`_sum` in sorted order, with integral sums stored as ``int``."""
    return {k: c.numerator if c.denominator == 1 else c for k, c in sorted(_sum(pairs).items())}


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

    def _coef_texts(self) -> list[str]:
        """The coefficients printed in term order, for :meth:`to_json` and ``json_chunks``.

        ``json_chunks`` does not call it on a comultiplication built by ``monoids.comult`` or
        ``monoids._expand``.

        Like ``str``, it raises ``ValueError`` on an int past CPython's int-to-str digit limit.
        A comultiplication built by ``monoids.comult`` or ``_expand`` carries its degree ``d``:
        its row is printed by :func:`_binomial_texts` in O(d*L) digit operations, and only its
        largest coefficient, the central one, by ``str`` for the digit limit.  Every other
        element prints each distinct coefficient once with ``str``.
        """
        terms, d = self._terms, getattr(self, "_degree", None)
        if d is not None:
            str(next(islice(terms.values(), d // 2, None)))  # C(d, d // 2), the largest
            return _binomial_texts(d)
        text = {c: str(c) for c in set(terms.values())}
        return [text[c] for c in terms.values()]

    def to_json(self) -> list[dict]:
        return [{**self._key_json(k), "coef": c} for k, c in zip(self._terms, self._coef_texts())]

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

    @staticmethod
    def _key(k):
        return int_xy(k, M)

    @staticmethod
    def _add(k1, k2):
        return (k1[0] + k2[0], k1[1] + k2[1])

    @staticmethod
    def _key_json(k) -> dict:
        return {"exp": list(k)}

    @staticmethod
    def _json_key(item):
        return item["exp"]

    @staticmethod
    def _show(k) -> str:
        return _fmt_monomial(*k)

    @classmethod
    def monomial(cls, exponent, coefficient=1) -> "LaurentElement":
        return cls([(exponent, coefficient)])

    def coefficient(self, exponent) -> int | Fraction:
        return self._terms.get(int_xy(exponent, M), 0)

    def map_exponents(self, fn) -> "LaurentElement":
        """Apply an exponent substitution ``(a, b) -> (a', b')`` to every term."""
        return LaurentElement([(fn(k), c) for k, c in self._terms.items()])

    def evaluate(self, point) -> Fraction:
        """Exact value at a torus point, a pair ``(x, y)`` of exact rationals.

        The point is not a lattice point, so each coordinate is read by
        :func:`parse_rational`: a ``float`` or ``bool`` raises ``TypeError``.
        Raises :class:`PoleError` when a negative exponent meets a zero
        coordinate.
        """
        x, y = point
        # Fraction before powering: a negative power of an int is a float.
        px, py = Fraction(parse_rational(x)), Fraction(parse_rational(y))
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

    # ``_degree``: set only by ``monoids.comult`` and ``monoids._expand``; see
    # ``_Sparse._coef_texts`` and ``json_chunks``.
    __slots__ = ("_degree",)
    _UNIT = ((0, 0), (0, 0))
    _CHUNK_TERMS = 32  # terms per piece of json_chunks

    @staticmethod
    def _key(k):
        return (int_xy(k[0], M), int_xy(k[1], M))

    @staticmethod
    def _add(k1, k2):
        (l1, r1), (l2, r2) = k1, k2
        return ((l1[0] + l2[0], l1[1] + l2[1]), (r1[0] + r2[0], r1[1] + r2[1]))

    @staticmethod
    def _key_json(k) -> dict:
        return {"left": list(k[0]), "right": list(k[1])}

    @staticmethod
    def _json_key(item):
        return (item["left"], item["right"])

    @staticmethod
    def _show(k) -> str:
        return " (x) ".join(_fmt_monomial(*e) or "1" for e in k)

    @classmethod
    def monomial(cls, left, right, coefficient=1) -> "TensorElement":
        return cls([((left, right), coefficient)])

    def coefficient(self, left, right) -> int | Fraction:
        return self._terms.get((int_xy(left, M), int_xy(right, M)), 0)

    def json_chunks(self):
        """``json.dumps(self.to_json())`` in pieces of at most ``_CHUNK_TERMS`` terms.

        Its coefficients are those of :meth:`to_json`, and every exponent is checked at the
        call: like ``str``, it raises ``ValueError`` on an int past CPython's int-to-str digit
        limit before any piece.  A comultiplication built by ``monoids.comult`` or ``_expand``
        is printed by :func:`_expansion_chunks` from its first key, its step and its degree:
        each key is affine in ``j``, so the first two keys give the step.
        """
        terms, d = self._terms, getattr(self, "_degree", None)
        if d is not None:
            keys = iter(terms)
            start = ((lx, ly), (rx, ry)) = next(keys)
            (lx2, ly2), (rx2, ry2) = next(keys, start)
            return _expansion_chunks(start, ((lx2 - lx, ly2 - ly), (rx2 - rx, ry2 - ry)), d)
        coefs = self._coef_texts()
        flat = chain.from_iterable
        str(max(map(abs, flat(flat(terms))), default=0))  # the exponents' digit limit
        seps = _separators()
        rows = ((s, l0, l1, r0, r1, c) for s, ((l0, l1), (r0, r1)), c in zip(seps, terms, coefs))
        return _pieces(map(_ROW.__mod__, rows), len(terms))

    def flip(self) -> "TensorElement":
        """Swap the two tensor legs."""
        return TensorElement([((r, l), c) for (l, r), c in self._terms.items()])

    def map_exponents(self, fn) -> "TensorElement":
        """Apply an exponent substitution to both legs of every term."""
        return TensorElement([((fn(l), fn(r)), c) for (l, r), c in self._terms.items()])


# One term of ``json_chunks`` after its separator: "" for the first term, ", " for the others.
# An exponent is an int or, in a column that ``_column`` steps in :mod:`decimal`, a ``Decimal``
# with exponent 0; ``%s`` prints either as its digits, where ``%d`` would make the ``Decimal`` an int.
_ROW = '%s{"left": [%s, %s], "right": [%s, %s], "coef": "%s"}'

# ``_column`` steps a column as ints while every entry is below this in absolute value: a row
# of 100-digit ints printed faster than the same ``Decimal`` row, one of 200 digits slower
# (about 340 against 400 ns and 700 against 580 ns per entry, Python 3.11.7).
_SMALL_COLUMN = 10**150


def _separators():
    return chain(("",), repeat(", "))


def _pieces(rows, n: int):
    """``"[" + rows + "]"`` for ``n`` ``_ROW`` texts, in pieces of ``TensorElement._CHUNK_TERMS``.

    The first piece also takes the ``"["`` and the last the ``"]"`` (one piece ``"[]"`` when
    ``n`` is 0), so every piece is one ``join`` of its items, with no copy by ``+``.
    """
    step, items = TensorElement._CHUNK_TERMS, chain(("[",), rows, ("]",))
    sizes = (step + (i == 0) + (i + step >= n) for i in range(0, max(n, 1), step))
    return ("".join(islice(items, size)) for size in sizes)


def _expansion_chunks(start, step, d: int):
    """``json_chunks`` of ``sum_j C(d, j) chi^l_j (x) chi^r_j`` with keys ``start + j*step``.

    The expansion is printed from this closed form and never built: the exponents are
    stepped by ``itertools.count`` and the coefficients are :func:`_binomial_texts`.  The
    digit limit is checked at the call, before any piece, as ``json_chunks`` does: on the
    central coefficient, the largest, read back by ``int``, and on the first and last keys,
    since every exponent is affine in ``j``.  ``step`` must be such that the keys ascend.
    """
    texts = _binomial_texts(d)
    int(texts[d // 2])  # past the digit limit, ValueError
    ((l0, l1), (r0, r1)), ((s0, s1), (t0, t1)) = start, step
    str(max(map(abs, (l0, l1, r0, r1, l0 + d * s0, l1 + d * s1, r0 + d * t0, r1 + d * t1))))
    columns = map(_column, (l0, l1, r0, r1), (s0, s1, t0, t1), repeat(d))
    rows = zip(_separators(), *columns, texts)
    return _pieces(map(_ROW.__mod__, rows), d + 1)


def _column(x0: int, s: int, d: int):
    """The exponents ``x0 + j*s``, ``j = 0, 1, ...``, as values printed in time linear in their digits.

    CPython prints an int in time quadratic in its digits, so a column with an entry of
    ``_SMALL_COLUMN`` or more in absolute value among the first ``d + 1`` is stepped as an
    exact ``Decimal`` under ``_EXACT``, which prints in linear time: a 4,000-digit exponent on
    every one of 10,001 rows no longer costs seconds.  Other columns stay ints.
    """
    if max(abs(x0), abs(x0 + d * s)) < _SMALL_COLUMN:
        return count(x0, s)
    return accumulate(repeat(Decimal(s)), _EXACT.add, initial=Decimal(x0))


class DerivationRule(_Record):
    """A homogeneous derivation ``chi^u -> <u, ray> * chi^(u + root)``.

    ``root`` is the degree of the derivation (a point of M), ``ray`` the
    distinguished one-parameter direction it pairs against (a point of N).
    Another parametrization of the additive flow is a rational multiple,
    ``c * rule.apply(f)``; every exported invariant is independent of it.
    """

    _fields = ("root", "ray")

    def __init__(self, root: LatticePoint, ray: LatticePoint):
        if root.ambient != M:
            raise ValueError("derivation degree must live in M")
        if ray.ambient != N:
            raise ValueError("derivation ray must live in N")
        _setattr(self, "root", root)
        _setattr(self, "ray", ray)

    def apply(self, f: LaurentElement) -> LaurentElement:
        """Linear extension of the monomial rule; satisfies the Leibniz identity."""
        rx, ry = self.root.xy
        px, py = self.ray.xy
        pairs = []
        for (a, b), coef in f.terms():
            weight = a * px + b * py
            if weight:
                pairs.append(((a + rx, b + ry), coef * weight))
        return LaurentElement(pairs)


def is_locally_nilpotent_on(rule: DerivationRule, region) -> bool:
    """Demazure's criterion: is ``rule`` a root derivation of the region's algebra?

    ``True`` for a zero ray.  Otherwise, with ``p`` the ray's primitive
    direction up to sign, ``True`` exactly when ``p`` is an inward facet normal
    ``_normals[i]`` of the region, ``<e, p> = -1`` and ``e`` is nonnegative on
    its partner ``_normals[1 - i]`` (the half plane has ``(1, 0)`` and a zero
    normal: every ``e = (-1, k)``).  The rays ``p`` and ``-p`` get one answer:
    their derivations differ in sign only.  O(1) from the stored normals, with
    no search.  A region not in M raises ValueError.
    """
    if region.ambient != M:
        raise ValueError("local nilpotency is decided on a region of M")
    if rule.ray.xy == (0, 0):
        return True
    normals = region._normals
    px, py = primitive(rule.ray).xy
    for i, (a, b) in enumerate(normals):
        if (a, b) in ((px, py), (-px, -py)):
            (c, d), (x, y) = normals[1 - i], rule.root.xy
            return a * x + b * y == -1 and c * x + d * y >= 0
    return False
