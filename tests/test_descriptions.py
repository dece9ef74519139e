"""The paper's descriptions of opposite monoids, quotient monoids and boundary
divisors, checked on points against the monoid law itself.

``opposite``, ``quotient_by_center`` and ``boundary`` are closed forms on
specs; here each one is tested by multiplying seeded surface points with
``multiply_points``: torus points, whose chart coordinates are the chart
monomials at a point ``(x, y)`` of the two-torus, and points of the two
boundary rays of the chart, where every coordinate but the first, or every
one but the last, is zero.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from toricmonoids import (
    Family,
    MonoidSpec,
    boundary,
    chart_monomial_value,
    cone_of_spec,
    multiply_points,
    opposite,
    opposite_witness,
    quotient_by_center,
)
from toricmonoids.monoids import _chart


def _specs(n_max: int, a_max: int = 7, b_max: int = 11) -> list[MonoidSpec]:
    return [
        MonoidSpec(family, n, a, b)
        for n in range(1, n_max + 1)
        for a in range(1, a_max + 1)
        for b in range(b_max + 1)
        if gcd(a, b) == 1
        for family in (Family.X, Family.Y)
    ]


SPECS = _specs(3)


def chart(spec: MonoidSpec) -> tuple[tuple[int, int], ...]:
    return _chart(spec, "the descriptions")


def _rational(rng: random.Random) -> Fraction:
    """A nonzero rational with small numerator and denominator."""
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def torus_point(spec: MonoidSpec, x, y) -> tuple:
    """The chart coordinates of the torus point ``(x, y)``: each chart monomial ``x^u_x * y^u_y``."""
    return tuple(Fraction(x) ** ux * Fraction(y) ** uy for ux, uy in chart(spec))


def ray_point(spec: MonoidSpec, index: int, value) -> tuple:
    """The point of the chart's boundary ray at coordinate ``index`` (0 or -1) with that value."""
    point = [Fraction(0)] * len(chart(spec))
    point[index] = Fraction(value)
    return tuple(point)


def seeded_pairs(spec: MonoidSpec) -> list[tuple[tuple, tuple]]:
    """Pairs of two torus points ``t``, ``s`` and a nonzero point on each boundary ray, ``r0`` and
    ``r1``, seeded by the spec: ``(t, s)`` and each ray point with a torus point, both ways, and
    the two ray points."""
    rng = random.Random(f"descriptions:{spec}")
    t, s = (torus_point(spec, _rational(rng), _rational(rng)) for _ in range(2))
    r0, r1 = (ray_point(spec, index, _rational(rng)) for index in (0, -1))
    return [(t, s), (s, t), (t, r0), (r0, s), (s, r1), (r1, t), (r0, r1), (r1, r0)]


def boundary_index(spec: MonoidSpec) -> int:
    """The chart coordinate of the boundary divisor: the monomial on the cone's non-axis ray."""
    other = next(r.xy for r in cone_of_spec(spec).rays if r.x)
    return chart(spec).index(other)


def _grouped(specs) -> list:
    """``specs`` as one parameter set per family and weight, so each test ID names a spec group."""
    groups = {}
    for spec in specs:
        groups.setdefault(f"{spec.family.value}-n{spec.n}", []).append(spec)
    return [pytest.param(group, id=key) for key, group in groups.items()]


@pytest.mark.parametrize("specs", _grouped(SPECS))
def test_opposite_is_the_product_with_its_arguments_swapped(specs):
    # w = opposite_witness(s) sends the chart monomials of s onto those of
    # opposite(s), so it permutes chart coordinates; then
    # multiply_points(opposite(s), w·p, w·q) = w·multiply_points(s, q, p).
    for spec in specs:
        op, w = opposite(spec), opposite_witness(spec)
        target = chart(op)
        images = [w.apply_xy(g) for g in chart(spec)]
        assert sorted(images) == sorted(target), spec
        position = [target.index(image) for image in images]

        def moved(point):
            out = [None] * len(point)
            for i, value in enumerate(point):
                out[position[i]] = value
            return tuple(out)

        for p, q in seeded_pairs(spec):
            assert multiply_points(op, moved(p), moved(q)) == moved(multiply_points(spec, q, p)), (spec, p, q)


@pytest.mark.parametrize("specs", _grouped(_specs(6)))
def test_quotient_map_is_multiplicative(specs):
    # pi(z)_j = chi^(h_x, m*h_y)(z) over the chart h of quotient_by_center(s, m):
    # the quotient map, a monoid morphism, so pi(p·q) = pi(p)·pi(q).
    for spec in specs:
        for m in range(2, spec.n + 1):
            if spec.n % m:
                continue
            quotient = quotient_by_center(spec, m)
            monomials = [(hx, m * hy) for hx, hy in chart(quotient)]

            def pi(point):
                return tuple(chart_monomial_value(spec, u, point) for u in monomials)

            for p, q in seeded_pairs(spec):
                product = multiply_points(quotient, pi(p), pi(q))
                assert pi(multiply_points(spec, p, q)) == product, (spec, m, p, q)


@pytest.mark.parametrize("specs", _grouped(s for s in SPECS if s.b > 0))
def test_torus_scales_the_boundary_ray_by_the_boundary_weights(specs):
    # A torus unit g = (x, y) times a point z of the boundary ray, on either
    # side, stays on the ray, and scales its coordinate by y^left (g·z) and
    # y^right (z·g) for X, by y^-left and y^-right for Y, whose chart reads 1/y.
    for spec in specs:
        info = boundary(spec)
        assert info.has_zero
        sign = 1 if spec.family is Family.X else -1
        index = boundary_index(spec)
        rng = random.Random(f"boundary:{spec}")
        for _ in range(3):
            x, y, value = _rational(rng), _rational(rng), _rational(rng)
            g, z = torus_point(spec, x, y), ray_point(spec, index, value)
            left = ray_point(spec, index, value * y ** (sign * info.left_weight))
            right = ray_point(spec, index, value * y ** (sign * info.right_weight))
            assert multiply_points(spec, g, z) == left, (spec, g, z)
            assert multiply_points(spec, z, g) == right, (spec, g, z)


@pytest.mark.parametrize("specs", _grouped(s for s in SPECS if s.b == 0))
def test_boundary_line_of_idempotents_fixed_on_the_side_of_weight_zero(specs):
    # b = 0 forces a = 1: the boundary is a line of idempotents, and a torus
    # unit on the side whose weight is 0 fixes each of its points.
    for spec in specs:
        info = boundary(spec)
        assert info.idempotent_line and 0 in (info.left_weight, info.right_weight)
        index = boundary_index(spec)
        rng = random.Random(f"idempotents:{spec}")
        for value in [0, *(_rational(rng) for _ in range(3))]:
            z = ray_point(spec, index, value)
            assert multiply_points(spec, z, z) == z, (spec, z)
            g = torus_point(spec, _rational(rng), _rational(rng))
            fixed = multiply_points(spec, g, z) if info.left_weight == 0 else multiply_points(spec, z, g)
            assert fixed == z, (spec, g, z)
