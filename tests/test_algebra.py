import json
import random
import sys
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    add_laurent_keys,
    lnd_by_probe,
    add_tensor_keys,
    sparse_json,
    sparse_power,
    sparse_product,
    sparse_sum,
)
from toricmonoids import (
    Cone2,
    ComultRule,
    DemazureRoot,
    DerivationRule,
    HalfPlane,
    LatticePoint,
    LaurentElement,
    M,
    N,
    PoleError,
    RootPair,
    TensorElement,
    comult,
    comult_from_root_pair,
    is_locally_nilpotent_on,
)
from toricmonoids.algebra import _binomial_texts, _binomials

X = LaurentElement.monomial((1, 0))
Y = LaurentElement.monomial((0, 1))
ONE = LaurentElement.one()

exponents = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=9).filter(bool)
laurents = st.lists(st.tuples(exponents, coefficients), max_size=4).map(LaurentElement)
tensor_keys = st.tuples(exponents, exponents)
tensors = st.lists(st.tuples(tensor_keys, coefficients), max_size=3).map(TensorElement)
# Integral and non-integral coefficients mixed, as ints, Fractions and strings.
mixed_coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.fractions(min_value=-6, max_value=6, max_denominator=4).map(str),
)
laurent_terms = st.lists(st.tuples(exponents, mixed_coefficients), max_size=4)
tensor_terms = st.lists(st.tuples(tensor_keys, mixed_coefficients), max_size=3)


class TestLaurent:
    def test_monomial_product(self):
        assert X * Y == LaurentElement.monomial((1, 1))

    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X * X - Y * Y

    def test_unit(self):
        f = 3 * X + Y * Y - LaurentElement.monomial((-2, 1), Fraction(1, 2))
        assert f * ONE == f

    def test_zero_coefficients_dropped(self):
        f = X - X
        assert not f
        assert f == LaurentElement.zero()
        assert f.terms() == []

    def test_power_matches_repeated_product(self):
        f = X + 2 * Y
        acc = ONE
        for k in range(6):
            assert f**k == acc
            acc = acc * f

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            X ** (-1)

    def test_canonical_term_order(self):
        f = Y + X + LaurentElement.monomial((-1, 2))
        assert [e for e, _ in f.terms()] == [(-1, 2), (0, 1), (1, 0)]

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            LaurentElement.monomial((1, 0), 0.5)

    def test_float_exponent_rejected(self):
        with pytest.raises(ValueError):
            LaurentElement.monomial((1.5, 0))

    def test_json_round_trip(self):
        f = 2 * X - LaurentElement.monomial((0, -3), Fraction(5, 7))
        data = f.to_json()
        assert data == [
            {"exp": [0, -3], "coef": "-5/7"},
            {"exp": [1, 0], "coef": "2"},
        ]
        assert LaurentElement.from_json(data) == f
        assert LaurentElement.from_json(data).to_json() == data

    @given(laurents, laurents)
    def test_commutative(self, f, g):
        assert f * g == g * f

    @given(laurents, laurents, laurents)
    @settings(max_examples=60)
    def test_associative(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @given(laurents, laurents, laurents)
    @settings(max_examples=60)
    def test_distributive(self, f, g, h):
        assert f * (g + h) == f * g + f * h


class TestCoreAgainstOracle:
    """The shared sparse core against plain-Fraction double loops."""

    CASES = [
        (LaurentElement, laurent_terms, add_laurent_keys, (0, 0), ("exp",)),
        (TensorElement, tensor_terms, add_tensor_keys, ((0, 0), (0, 0)), ("left", "right")),
    ]

    @pytest.mark.parametrize("cls, terms, add, unit, fields", CASES, ids=["laurent", "tensor"])
    @settings(max_examples=60)
    @given(data=st.data())
    def test_ring_operations(self, cls, terms, add, unit, fields, data):
        f_terms, g_terms = data.draw(terms), data.draw(terms)
        k = data.draw(st.integers(0, 3))
        f, g = sparse_sum(f_terms), sparse_sum(g_terms)
        assert (cls(f_terms) * cls(g_terms)).to_json() == sparse_json(sparse_product(f, g, add), fields)
        assert (cls(f_terms) + cls(g_terms)).to_json() == sparse_json(sparse_sum(f.items(), g.items()), fields)
        assert (cls(f_terms) ** k).to_json() == sparse_json(sparse_power(f, k, unit, add), fields)

    @settings(max_examples=60)
    @given(
        keys=st.lists(tensor_keys, unique=True, max_size=8),
        pool=st.lists(st.one_of(st.integers(-(10**40), 10**40), coefficients), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_json_with_repeated_coefficients(self, keys, pool, data):
        terms = [(k, data.draw(st.sampled_from(pool))) for k in keys]
        assert TensorElement(terms).to_json() == sparse_json(sparse_sum(terms), ("left", "right"))

    def test_json_of_equal_int_and_fraction_coefficients(self):
        t = TensorElement._of({((0, 0), (0, 1)): 3, ((0, 1), (0, 0)): Fraction(3)})
        assert t.to_json() == [
            {"left": [0, 0], "right": [0, 1], "coef": "3"},
            {"left": [0, 1], "right": [0, 0], "coef": "3"},
        ]

    def test_integral_coefficients_are_ints(self):
        f = LaurentElement.monomial((1, 0), Fraction(1, 2)) * LaurentElement.monomial((0, 1), "2")
        assert f.terms() == [((1, 1), 1)]
        assert type(f.coefficient((1, 1))) is int
        assert type((f * Fraction(1, 3)).coefficient((1, 1))) is Fraction

    def test_bool_coefficient_rejected(self):
        with pytest.raises(TypeError):
            LaurentElement.monomial((1, 0), True)


class TestTensorJsonText:
    """The joined ``json_chunks`` of any tensor are ``json.dumps(to_json())``, byte for byte."""

    big = st.integers(-(10**40), 10**40)

    @settings(max_examples=100)
    @given(
        keys=st.lists(
            st.tuples(st.tuples(big, st.integers(-5, 5)), st.tuples(st.integers(-5, 5), big)),
            unique=True,
            max_size=8,
        ),
        pool=st.lists(
            st.one_of(big, coefficients, st.fractions(max_denominator=10**40).filter(bool)),
            min_size=1,
            max_size=3,
        ),
        data=st.data(),
    )
    def test_equals_dumps_of_to_json(self, keys, pool, data):
        t = TensorElement([(k, data.draw(st.sampled_from(pool))) for k in keys])
        assert "".join(t.json_chunks()) == json.dumps(t.to_json())

    def test_empty(self):
        assert "".join(TensorElement.zero().json_chunks()) == "[]" == json.dumps([])

    def test_fractions_and_repeats(self):
        t = TensorElement(
            [(((-1, 2), (0, -3)), Fraction(-7, 3)), (((0, 0), (0, 0)), 5), (((2, 0), (1, 1)), 5)]
        )
        assert "".join(t.json_chunks()) == (
            '[{"left": [-1, 2], "right": [0, -3], "coef": "-7/3"}, '
            '{"left": [0, 0], "right": [0, 0], "coef": "5"}, '
            '{"left": [2, 0], "right": [1, 1], "coef": "5"}]'
        )


def _tensor_of(terms: int, mode: str) -> TensorElement:
    """A comultiplication with ``terms`` terms: of ``x^(terms-1)`` at weight 2 in spec mode, or
    through the roots (0, -1) and (1, -1) at the ray (0, 1) of the quadrant in root-pair mode."""
    if terms == 0:
        return TensorElement.zero()
    if mode == "spec":
        return comult(ComultRule(2), (terms - 1, 3))
    return _quadrant_expansion(1, (2, terms - 1))


def _quadrant_expansion(k: int, u) -> TensorElement:
    """The comultiplication of ``u`` through the roots (0, -1) and (k, -1) at the ray (0, 1) of
    the quadrant: term ``j`` has the left exponent ``(u_x + j*k, u_y - j)``."""
    sigma = Cone2.from_rays((1, 0), (0, 1), N)
    i = sigma.ray_index((0, 1))
    pair = RootPair(DemazureRoot(LatticePoint(0, -1), i), DemazureRoot(LatticePoint(k, -1), i))
    return comult_from_root_pair(sigma, pair, u)


@pytest.fixture
def digit_limit_640():
    """CPython's int-to-str digit limit lowered to 640 for one test, then restored."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


class TestBinomialTexts:
    """The base-10 binomial row prints the big-int row, entry for entry."""

    def test_rows_up_to_300(self):
        for d in range(301):
            assert _binomial_texts(d) == [str(c) for c in _binomials(d)]

    @pytest.mark.parametrize("d", [1999, 2000, 10000])
    def test_long_rows(self, d):
        texts = _binomial_texts(d)
        assert texts == [str(c) for c in _binomials(d)]
        assert texts[d // 2] == str(comb(d, d // 2))


class _Unprintable(int):
    """An int coefficient that refuses to be printed by ``str``."""

    def __str__(self):
        raise AssertionError("an expansion's coefficients are the binomial row")

    __repr__ = __str__


class TestTensorJsonChunks:
    """``json_chunks`` joins to ``json.dumps(to_json())``, a piece holds at most 256 terms, and an
    int past the digit limit raises at the call."""

    @pytest.mark.parametrize("mode", ["spec", "root-pair"])
    @pytest.mark.parametrize("terms", [0, 1, 256, 257, 513, 2001])
    def test_joined_pieces_are_the_json(self, terms, mode):
        t = _tensor_of(terms, mode)
        assert len(t.terms()) == terms
        chunks = list(t.json_chunks())
        assert "".join(chunks) == json.dumps(t.to_json())
        assert max(chunk.count('"left"') for chunk in chunks) <= 256
        assert len(chunks) == max(1, -(-terms // 256))

    @pytest.mark.parametrize(
        "left, right, coef",
        [((0, 0), (1, 0), 10**5000), ((0, 0), (1, 0), Fraction(1, 10**5000)),
         ((1000, -(10**5000)), (1, 0), 1), ((0, 0), (10**5000, 0), 7)],
        ids=["coefficient", "denominator", "left-exponent", "right-exponent"],
    )
    def test_int_past_the_digit_limit_raises_at_the_call(self, left, right, coef):
        # The call, not the first piece, raises: the CLI opens no output before it.  The
        # left-exponent term sorts last, in the third piece.
        t = TensorElement.monomial(left, right, coef) + _tensor_of(600, "spec")
        with pytest.raises(ValueError, match="digits"):
            t.json_chunks()

    @pytest.mark.parametrize(
        "expansion",
        [
            lambda: comult(ComultRule(1), (2200, 0)),
            lambda: comult(ComultRule(1), (3, 10**700)),
            lambda: comult(ComultRule(1), (3, -(10**700))),
            lambda: comult(ComultRule(10**700), (3, 0)),
            lambda: _quadrant_expansion(10**700, (0, 3)),
        ],
        ids=["central-coefficient", "exponent", "negative-exponent", "first-key", "last-key"],
    )
    def test_binomial_row_past_the_digit_limit_raises_at_the_call(self, digit_limit_640, expansion):
        # C(2200, 1100) has 661 digits, and the base-10 row prints it with no limit: only the
        # central coefficient's own ``str`` raises.  In the last two cases only the first key,
        # then only the last, holds an exponent past the limit.
        t = expansion()
        with pytest.raises(ValueError, match="digits"):
            t.json_chunks()

    @pytest.mark.parametrize("mode", ["spec", "root-pair"])
    def test_expansions_print_without_str_of_each_coefficient(self, mode):
        # Every coefficient but the central one refuses ``str``, so the route that prints each
        # distinct coefficient fails: both ``to_json`` and ``json_chunks`` print the binomial row.
        t = _tensor_of(2001, mode)
        expected = json.dumps(t.to_json())
        t._terms = {k: c if j == 1000 else _Unprintable(c) for j, (k, c) in enumerate(t._terms.items())}
        assert json.dumps(t.to_json()) == "".join(t.json_chunks()) == expected

    def test_expansion_to_json_prints_the_binomial_row(self):
        d = 2001
        t = comult(ComultRule(1), (d, 0))
        assert [item["coef"] for item in t.to_json()] == [str(comb(d, j)) for j in range(d + 1)]

    def test_only_expansions_carry_their_degree(self):
        t = _tensor_of(6, "spec")
        assert t._degree == 5 and _tensor_of(6, "root-pair")._degree == 5
        built = [
            TensorElement(t.terms()),
            TensorElement._of(t._terms),
            t + TensorElement.zero(),
            t * TensorElement.one(),
            t * 1,
            -t,
            t**1,
            t.flip(),
            t.map_exponents(lambda e: e),
        ]
        for other in built:
            assert not hasattr(other, "_degree")


class TestTensor:
    def test_square_expansion(self):
        s = TensorElement.monomial((1, 0), (0, 0)) + TensorElement.monomial((0, 1), (1, 0))
        expected = (
            TensorElement.monomial((2, 0), (0, 0))
            + TensorElement.monomial((1, 1), (1, 0), 2)
            + TensorElement.monomial((0, 2), (2, 0))
        )
        assert s**2 == expected

    def test_power_zero_is_unit(self):
        s = TensorElement.monomial((3, -1), (2, 2), Fraction(7, 3))
        assert s**0 == TensorElement.one()

    def test_grouplike_power(self):
        for b in range(4):
            s = TensorElement.monomial((0, 1), (0, 1))
            assert (s**b).terms() == [(((0, b), (0, b)), Fraction(1))]

    def test_flip(self):
        s = TensorElement.monomial((1, 2), (3, 4)) + TensorElement.monomial((0, 0), (1, 1), 5)
        assert s.flip() == TensorElement.monomial((3, 4), (1, 2)) + TensorElement.monomial(
            (1, 1), (0, 0), 5
        )
        assert s.flip().flip() == s

    def test_json_round_trip(self):
        s = TensorElement.monomial((1, 0), (0, 0)) + TensorElement.monomial(
            (0, 1), (1, 0), Fraction(-1, 2)
        )
        data = s.to_json()
        assert data == [
            {"left": [0, 1], "right": [1, 0], "coef": "-1/2"},
            {"left": [1, 0], "right": [0, 0], "coef": "1"},
        ]
        assert TensorElement.from_json(data) == s
        assert TensorElement.from_json(data).to_json() == data

    @given(tensors, tensors, tensors)
    @settings(max_examples=40)
    def test_associative(self, s, t, u):
        assert (s * t) * u == s * (t * u)

    @given(tensors, st.integers(0, 4))
    @settings(max_examples=40)
    def test_power_recursion(self, s, k):
        assert s ** (k + 1) == (s**k) * s


def d_left() -> DerivationRule:
    return DerivationRule(LatticePoint(-1, 0, M), LatticePoint(1, 0, N))


def d_right(n: int) -> DerivationRule:
    return DerivationRule(LatticePoint(-1, n, M), LatticePoint(1, 0, N))


class TestDerivation:
    def test_iterates_to_factorial(self):
        for a, b in [(1, 0), (2, 3), (4, 1)]:
            f = LaurentElement.monomial((a, b))
            for _ in range(a):
                f = d_left().apply(f)
            assert f == LaurentElement.monomial((0, b), factorial(a))

    def test_right_rule_shifts_weight(self):
        for n in (1, 2):
            for a, b in [(1, 0), (3, 2)]:
                f = LaurentElement.monomial((a, b))
                for _ in range(a):
                    f = d_right(n).apply(f)
                assert f == LaurentElement.monomial((0, b + n * a), factorial(a))

    def test_kernel(self):
        assert not d_left().apply(LaurentElement.monomial((0, 5)))

    def test_ambients_enforced(self):
        with pytest.raises(ValueError):
            DerivationRule(LatticePoint(-1, 0, N), LatticePoint(1, 0, N))
        with pytest.raises(ValueError):
            DerivationRule(LatticePoint(-1, 0, M), LatticePoint(1, 0, M))

    @given(laurents, laurents)
    @settings(max_examples=60)
    def test_leibniz(self, f, g):
        d = d_right(2)
        assert d.apply(f * g) == d.apply(f) * g + f * d.apply(g)


class TestLocalNilpotency:
    def test_partial_x_on_quadrant(self):
        cone = Cone2.from_rays((1, 0), (0, 1), M)
        assert is_locally_nilpotent_on(d_left(), cone)

    def test_degree_raising_rule_fails(self):
        cone = Cone2.from_rays((1, 0), (0, 1), M)
        raiser = DerivationRule(LatticePoint(1, 0, M), LatticePoint(1, 0, N))
        assert not is_locally_nilpotent_on(raiser, cone)

    @staticmethod
    def _seeded_cases(n: int = 3000):
        """Regions: duals of N cones with rays in +-3, and the half plane.

        Degrees in +-4; rays a facet normal times 1-3, zero, or random in +-3.
        """
        rng = random.Random(13)
        cases = []
        while len(cases) < n:
            if rng.random() < 0.1:
                region, normals = HalfPlane(), [(1, 0)]
            else:
                r1 = (rng.randint(-3, 3), rng.randint(-3, 3))
                r2 = (rng.randint(-3, 3), rng.randint(-3, 3))
                if r1[0] * r2[1] == r1[1] * r2[0]:
                    continue
                sigma = Cone2.from_rays(r1, r2, N)
                region, normals = sigma.dual(), [r.xy for r in sigma.rays]
            e = (rng.randint(-4, 4), rng.randint(-4, 4))
            kind = rng.randrange(3)
            if kind == 0:
                (nx, ny), k = rng.choice(normals), rng.randint(1, 3)
                p = (k * nx, k * ny)
            elif kind == 1:
                p = (0, 0)
            else:
                p = (rng.randint(-3, 3), rng.randint(-3, 3))
            cases.append((DerivationRule(LatticePoint(*e, M), LatticePoint(*p, N)), region))
        return cases

    def test_demazure_criterion_matches_probe_oracle(self):
        outcomes = set()
        for rule, region in self._seeded_cases():
            got = is_locally_nilpotent_on(rule, region)
            assert got == lnd_by_probe(rule, region, 7), (rule, region)
            outcomes.add((got, rule.ray.xy == (0, 0)))
        # Both answers occur at nonzero rays.
        assert {(True, False), (False, False)} <= outcomes

    @pytest.mark.parametrize("e", [(-1, -1), (-1, -7)])
    def test_non_roots_on_quadrant_refused(self, e):
        # chi^(1, 0) maps to chi^(1 + e_x, e_y), outside the quadrant.
        quadrant = Cone2.from_rays((1, 0), (0, 1), M)
        rule = DerivationRule(LatticePoint(*e, M), LatticePoint(1, 0, N))
        assert not is_locally_nilpotent_on(rule, quadrant)
        assert not lnd_by_probe(rule, quadrant, 3)

    def test_half_plane(self):
        def nilpotent(e, p):
            return is_locally_nilpotent_on(
                DerivationRule(LatticePoint(*e, M), LatticePoint(*p, N)), HalfPlane()
            )

        assert all(nilpotent((-1, k), (1, 0)) for k in range(-9, 10))
        assert nilpotent((-1, 3), (2, 0))
        assert nilpotent((-1, 3), (-1, 0))
        assert nilpotent((5, 5), (0, 0))
        assert not nilpotent((-2, 0), (1, 0)) and not nilpotent((-1, 0), (0, 1))

    def test_opposite_ray_derivation_dies(self):
        # chi^(x, y) -> -x chi^(x - 1, y + 3): minus the root derivation at (1, 0)
        rule = DerivationRule(LatticePoint(-1, 3, M), LatticePoint(-1, 0, N))
        f = LaurentElement.monomial((3, 2))
        iterates = []
        for _ in range(4):
            f = rule.apply(f)
            iterates.append(f)
        assert iterates[2] == LaurentElement([((0, 11), -6)])
        assert not iterates[3]
        assert is_locally_nilpotent_on(rule, HalfPlane())
        assert lnd_by_probe(rule, HalfPlane(), 4)

    def test_region_in_n_refused(self):
        for region in (Cone2.from_rays((1, 0), (0, 1), N), HalfPlane(N)):
            with pytest.raises(ValueError):
                is_locally_nilpotent_on(d_left(), region)


class TestEvaluate:
    def test_laurent_monomial(self):
        f = LaurentElement.monomial((1, -1))
        assert f.evaluate((3, 2)) == Fraction(3, 2)

    def test_fractional_point(self):
        f = LaurentElement.monomial((2, 1))
        assert f.evaluate((Fraction(1, 2), 4)) == 1

    def test_pole(self):
        f = LaurentElement.monomial((0, -1))
        with pytest.raises(PoleError):
            f.evaluate((1, 0))

    def test_negative_exponents_stay_exact(self):
        value = LaurentElement.monomial((-1, -2)).evaluate((2, 3))
        assert value == Fraction(1, 18)
        assert type(value) is Fraction

    def test_float_point_rejected(self):
        with pytest.raises(TypeError):
            ONE.evaluate((0.5, 1))

    @given(laurents, laurents)
    @settings(max_examples=60)
    def test_ring_homomorphism(self, f, g):
        point = (Fraction(2, 3), Fraction(-3, 5))  # both nonzero: no poles
        assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
        assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)


def test_str_smoke():
    f = 2 * X - Y + ONE
    assert str(f)
    t = TensorElement.monomial((1, 0), (0, 0)) + TensorElement.monomial((0, 1), (1, 0))
    assert "(x)" in str(t)


@pytest.mark.parametrize("zero", [LaurentElement.zero(), TensorElement.zero()], ids=["laurent", "tensor"])
def test_str_of_zero(zero):
    assert str(zero) == "0"
