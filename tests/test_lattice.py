import pickle
import random
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from toricmonoids import (
    Cone2,
    DegenerateConeError,
    HalfPlane,
    LatticeMap,
    LatticePoint,
    LaurentElement,
    M,
    MonoidSpec,
    N,
    box_lattice_points,
    hilbert_basis,
    multiply_points,
    pairing,
    parse_rational,
    primitive,
)
from toricmonoids.lattice import _json_int, _json_rational, _json_xy, as_int

from oracles import can_represent, cone_from_rays_by_primitive, dual_rays_by_scan, hilbert_basis_by_sieve


def mk(x, y, ambient=M):
    return LatticePoint(x, y, ambient)


class TestExactCoercion:
    def test_parse_rational_normalises(self):
        assert type(parse_rational("6/3")) is int and parse_rational("6/3") == 2
        assert type(parse_rational(Fraction(4))) is int
        assert parse_rational("-1/2") == Fraction(-1, 2)

    def test_zero_denominator_is_value_error(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")

    @pytest.mark.parametrize("value", [0.5, True, False])
    def test_float_and_bool_refused(self, value):
        with pytest.raises(TypeError):
            parse_rational(value)

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ValueError):
            as_int(True)
        with pytest.raises(ValueError):
            LatticePoint(True, 0)
        with pytest.raises(ValueError):
            LatticeMap(1, 0, 0, True)

    def test_payload_readers_quote_json_while_the_api_keeps_reprs(self):
        for call, message in [
            (lambda: as_int(True), "exact integer required, got True"),
            (lambda: _json_int(True), "exact integer required, got true"),
            (lambda: _json_int("1", "n"), 'n must be an integer, got "1"'),
            (lambda: Cone2.from_rays((True, 0), (0, 1)), "exact integer required, got True"),
            (lambda: Cone2.from_json({"rays": [[True, 0], [0, 1]]}), "exact integer required, got true"),
            (lambda: _json_xy([1, None], "ray"), "exact integer required, got null"),
            (lambda: _json_rational(True), "exact rational required, got true"),
            (lambda: _json_rational("abc"), 'exact rational required, got "abc"'),
            (lambda: _json_rational("1/0"), 'exact rational required, got "1/0"'),
        ]:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message
        with pytest.raises(TypeError, match="got bool True"):
            parse_rational(True)
        assert _json_xy([3, -2], "ray") == (3, -2) and _json_rational("6/3") == 2

    def test_payload_rational_past_the_digit_limit_refused_before_fraction(self):
        # As written, 1e4299 has 4,300 digits and 1e-4299 a 4,300-digit denominator.
        for text, value in [("1e3", 1000), ("-2.5e-4", Fraction(-1, 4000)), ("1e4299", 10**4299),
                            ("1e-4299", Fraction(1, 10**4299)), ("0.5", Fraction(1, 2)), ("3/4", Fraction(3, 4))]:
            assert _json_rational(text) == value
        for text in ["1e4300", "1e-4300", "0e1000000000", "1.5e1000000000", "0." + "0" * 4300 + "1"]:
            with pytest.raises(ValueError, match=r"has more than 4300 digits"):
                _json_rational(text)
        with pytest.raises(ValueError, match="exact rational required"):
            _json_rational("1e5/2")

    def test_library_rational_past_the_digit_limit_refused_before_fraction(self):
        # parse_rational applies the payload reader's digit rule, in the API's repr wording.
        assert parse_rational("1e4299") == 10**4299 and parse_rational("-2.5e-4") == Fraction(-1, 4000)
        with pytest.raises(ValueError, match=r"^'1e1000000' has more than 4300 digits"):
            parse_rational("1e1000000")
        with pytest.raises(ValueError, match="digits"):
            multiply_points(MonoidSpec.x(1, 1, 1), ("1e10000", "1"), (1, 1))
        with pytest.raises(ValueError, match="digits"):
            LaurentElement([((1, 0), "1e-10000")])
        with pytest.raises(ValueError, match="Invalid literal"):
            parse_rational("1ex")

    def test_rational_point_coordinates(self):
        # A rational point is a pair of exact rationals, each read by parse_rational.
        p = (parse_rational("3/1"), parse_rational("1/2"))
        assert type(p[0]) is int and p[1] == Fraction(1, 2)
        assert Cone2.from_rays((0, 1), (1, 0), M).ray_coefficients(p) == (Fraction(1, 2), 3)
        with pytest.raises(TypeError):
            parse_rational(0.5)


class TestPairing:
    def test_dual_basis(self):
        assert pairing(mk(1, 0), mk(1, 0, N)) == 1

    def test_root_pairing(self):
        for ell in range(-3, 4):
            assert pairing(mk(-1, ell), mk(1, 0, N)) == -1

    def test_orthogonality(self):
        for a, b in [(2, 3), (1, 0), (-4, 7)]:
            assert pairing(mk(a, b), mk(-b, a, N)) == 0

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            pairing(mk(1, 0, N), mk(1, 0, N))
        with pytest.raises(ValueError):
            pairing(mk(1, 0), mk(1, 0, M))


class TestPrimitive:
    @pytest.mark.parametrize(
        "v,expected",
        [((2, 4), (1, 2)), ((0, -3), (0, -1)), ((-3, 5), (-3, 5)), ((6, -4), (3, -2))],
    )
    def test_examples(self, v, expected):
        assert primitive(mk(*v)).xy == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            primitive(mk(0, 0))

    def test_direction_preserved(self):
        for v in [(2, 6), (-9, 3), (0, 7), (5, 0), (-4, -10)]:
            p = primitive(mk(*v))
            from math import gcd

            assert gcd(abs(p.x), abs(p.y)) == 1
            d = gcd(abs(v[0]), abs(v[1]))
            assert (d * p.x, d * p.y) == v

    def test_floats_rejected(self):
        with pytest.raises(ValueError):
            LatticePoint(1.0, 2, M)


class TestCone2:
    def test_normalization(self):
        c1 = Cone2.from_rays((2, 0), (0, 3), M)
        c2 = Cone2.from_rays((0, 1), (1, 0), M)
        assert c1 == c2
        assert c1.rays == (mk(0, 1), mk(1, 0))

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            Cone2((mk(1, 0), mk(0, 1)), M)  # unsorted
        with pytest.raises(ValueError):
            Cone2((mk(0, 1), mk(2, 2)), M)  # non-primitive

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateConeError):
            Cone2.from_rays((1, 2), (2, 4), M)
        with pytest.raises(DegenerateConeError):
            Cone2.from_rays((1, 1), (-1, -1), M)
        with pytest.raises(DegenerateConeError):
            Cone2.from_rays((0, 0), (1, 0), M)

    def test_json_round_trip(self):
        c = Cone2.from_rays((0, 1), (3, -1), M)
        data = c.to_json()
        assert data == {"rays": [[0, 1], [3, -1]], "ambient": "M"}
        assert Cone2.from_json(data) == c
        assert Cone2.from_json(data).to_json() == data

    def test_smoothness(self):
        assert Cone2.from_rays((1, 0), (0, 1), M).is_smooth
        assert not Cone2.from_rays((0, 1), (2, 3), M).is_smooth

    def test_stored_normals_are_not_fields(self):
        c = Cone2.from_rays((0, 1), (3, -1), M)
        assert repr(c) == f"Cone2(rays={c.rays!r}, ambient='M')"
        assert c == Cone2(c.rays, M) and hash(c) == hash(Cone2(c.rays, M))
        twin = pickle.loads(pickle.dumps(c))
        assert twin == c
        assert [twin.contains(q) for q in ((1, 0), (0, -1), (3, -1))] == [True, False, True]

    @pytest.mark.parametrize("ambient", [M, N])
    def test_normals_stored_one_per_ray(self, ambient):
        # _normals[i] is the primitive dual ray orthogonal to rays[i]: it pairs
        # to 0 with rays[i] and positively with the other ray.
        rng = random.Random(f"normals-{ambient}")
        for _ in range(300):
            u, v = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(2)]
            if u[0] * v[1] == u[1] * v[0]:
                continue
            c = Cone2.from_rays(u, v, ambient)
            assert len(c._normals) == 2
            for i, (nx, ny) in enumerate(c._normals):
                p, q = c.rays[i], c.rays[1 - i]
                assert type(nx) is int and type(ny) is int and gcd(nx, ny) == 1, c
                assert nx * p.x + ny * p.y == 0, c
                assert nx * q.x + ny * q.y > 0, c

    def test_from_rays_matches_the_primitive_route(self):
        # Negative and non-primitive ints, zero vectors, points of either
        # ambient, lists and ``True``: the same cone, or the same refusal.
        rng = random.Random("from-rays")

        def ray():
            g = rng.randint(1, 4)
            x, y = rng.randint(-6, 6) * g, rng.randint(-6, 6) * g
            kind = rng.randrange(6)
            if kind == 0:
                return LatticePoint(x, y, rng.choice((M, N)))
            if kind == 1:
                return [x, y]
            if kind == 2:
                return (True, y) if rng.randrange(2) else (x, True)
            return (x, y)

        def outcome(build, *args):
            try:
                return build(*args)
            except Exception as exc:
                return (type(exc), str(exc))

        kinds = set()
        for _ in range(3000):
            args = (ray(), ray(), rng.choice((None, M, N)))
            got = outcome(Cone2.from_rays, *args)
            assert got == outcome(cone_from_rays_by_primitive, *args), args
            kinds.add(got[0] if isinstance(got, tuple) else Cone2)
        assert kinds == {Cone2, ValueError, DegenerateConeError}

    def test_rays_stored_as_a_tuple(self):
        c = Cone2([mk(0, 1), mk(1, 0)])
        assert c.rays == (mk(0, 1), mk(1, 0))
        assert c == Cone2.from_rays((0, 1), (1, 0))
        assert hash(c) == hash(Cone2.from_rays((0, 1), (1, 0)))


class TestDualCone:
    def test_quadrant_self_dual(self):
        q = Cone2.from_rays((1, 0), (0, 1), N)
        assert q.dual() == Cone2.from_rays((1, 0), (0, 1), M)
        assert q.dual().ambient == M

    def test_frozen_example(self):
        c = Cone2.from_rays((1, 0), (-2, 1), N)
        assert c.dual() == Cone2.from_rays((0, 1), (1, 2), M)

    def test_x_family_duals(self):
        # dual of the cone on (0,1),(a,b) is the cone on (1,0),(-b,a)
        for a, b in [(1, 0), (2, 3), (3, 2), (5, 2), (1, 4)]:
            c = Cone2.from_rays((0, 1), (a, b), M)
            assert c.dual() == Cone2.from_rays((1, 0), (-b, a), N)

    def test_against_box_scan(self):
        cones = [
            Cone2.from_rays((1, 0), (0, 1), N),
            Cone2.from_rays((1, 0), (-2, 1), N),
            Cone2.from_rays((0, 1), (2, 3), N),
            Cone2.from_rays((0, -1), (1, -3), N),
            Cone2.from_rays((1, 2), (3, -1), N),
            Cone2.from_rays((-1, 3), (2, -5), N),
        ]
        for c in cones:
            assert {r.xy for r in c.dual().rays} == dual_rays_by_scan(c)

    def test_involution(self):
        for rays in [((1, 0), (0, 1)), ((0, 1), (5, 2)), ((0, -1), (2, -7)), ((-3, 1), (4, 1))]:
            c = Cone2.from_rays(*rays, ambient=N)
            assert c.dual().dual() == c


class TestContains:
    def test_quadrant(self):
        q = Cone2.from_rays((1, 0), (0, 1), M)
        assert q.contains((1, 1))
        assert not q.contains((-1, 0))
        assert q.contains((0, 0))

    def test_interior_solve(self):
        c = Cone2.from_rays((0, 1), (2, 3), M)
        assert not c.contains((1, 1))
        assert c.contains((1, 2))

    def test_rational_points(self):
        c = Cone2.from_rays((0, 1), (2, 3), M)
        assert c.contains((Fraction(1), Fraction(3, 2)))
        assert not c.contains((Fraction(1), Fraction(1, 2)))

    def test_ambient_mismatch(self):
        c = Cone2.from_rays((1, 0), (0, 1), M)
        with pytest.raises(ValueError):
            c.contains(mk(1, 1, N))

    @pytest.mark.parametrize(
        "q",
        [(0.5, 0.5), (1.0, 0), (True, 0), (0, False), ("1", "2"), (Fraction(1, 2), 0.5), [1, True]],
        ids=["floats", "one-float", "bool-x", "bool-y", "strings", "fraction-and-float", "list-bool"],
    )
    def test_inexact_coordinates_refused(self, q):
        with pytest.raises(ValueError, match="exact rationals"):
            Cone2.from_rays((0, 1), (1, 0), M).contains(q)

    @settings(max_examples=300)
    @given(
        rays=st.lists(st.integers(-9, 9), min_size=4, max_size=4),
        ambient=st.sampled_from([M, N]),
        q=st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
        den=st.integers(1, 6),
    )
    def test_matches_ray_coefficients(self, rays, ambient, q, den):
        # The exact-int fast path, a point and a rational point against the
        # Fraction route: q is inside iff both ray coefficients are >= 0.
        try:
            c = Cone2.from_rays(tuple(rays[:2]), tuple(rays[2:]), ambient)
        except DegenerateConeError:
            assume(False)
        inside = min(c.ray_coefficients(q)) >= 0
        assert c.contains(q) is inside
        assert c.contains(list(q)) is inside
        assert c.contains(LatticePoint(*q, ambient)) is inside
        r = (Fraction(q[0], den), Fraction(q[1], den))
        assert c.contains(r) is (min(c.ray_coefficients(r)) >= 0) is inside

    def test_membership_matches_dual_pairings(self):
        # q in c iff q pairs >= 0 with both rays of the dual cone
        cones = [
            Cone2.from_rays((0, 1), (2, 3), M),
            Cone2.from_rays((0, -1), (1, -3), M),
            Cone2.from_rays((1, 1), (1, -1), M),
        ]
        for c in cones:
            d1, d2 = (r.xy for r in c.dual().rays)
            for x in range(-6, 7):
                for y in range(-6, 7):
                    by_pairing = (
                        x * d1[0] + y * d1[1] >= 0 and x * d2[0] + y * d2[1] >= 0
                    )
                    assert c.contains((x, y)) == by_pairing


class TestLatticeMap:
    def test_identity(self):
        m = LatticeMap.identity()
        for v in [(0, 0), (3, -2), (7, 7)]:
            assert m.apply_xy(v) == v

    def test_opposite_matrix_on_cones(self):
        # rows (1, 0) and (-n, -1) send the cone on (0,1),(a,b) to (0,-1),(a,-n*a-b)
        for n in (1, 2, 3):
            m = LatticeMap(1, 0, -n, -1)
            for a, b in [(1, 0), (2, 3), (3, 1)]:
                c = Cone2.from_rays((0, 1), (a, b), M)
                expected = Cone2.from_rays((0, -1), (a, -n * a - b), M)
                assert m.image_cone(c) == expected

    def test_vertical_stretch(self):
        for mval in (1, 2, 3):
            m = LatticeMap(1, 0, 0, mval)
            assert m.apply_xy((5, 7)) == (5, mval * 7)

    def test_singular_image_degenerate(self):
        m = LatticeMap(1, 1, 1, 1)
        with pytest.raises(DegenerateConeError):
            m.image_cone(Cone2.from_rays((1, 0), (0, 1), M))

    def test_inverse(self):
        m = LatticeMap(1, 0, -2, -1)
        assert m.is_unimodular
        inv = m.inverse()
        for v in [(1, 0), (0, 1), (3, -5)]:
            assert inv.apply_xy(m.apply_xy(v)) == v

    def test_no_integer_inverse(self):
        with pytest.raises(ValueError):
            LatticeMap(2, 0, 0, 1).inverse()

    def test_apply_preserves_ambient(self):
        p = LatticeMap(0, 1, 1, 0).apply(mk(2, 5, N))
        assert p == mk(5, 2, N)

    def test_str(self):
        assert str(LatticeMap(1, 0, -2, -1)) == "[[1, 0], [-2, -1]]"


@pytest.mark.parametrize("op", ["+", "-"])
def test_points_of_two_lattices_do_not_add(op):
    with pytest.raises(TypeError):
        mk(1, 2, M) + mk(3, 4, N) if op == "+" else mk(1, 2, M) - mk(3, 4, N)


class TestHilbertBasis:
    def test_smooth_cone(self):
        c = Cone2.from_rays((1, 0), (0, 1), M)
        assert [g.xy for g in hilbert_basis(c)] == [(0, 1), (1, 0)]

    def test_quadric_cone(self):
        c = Cone2.from_rays((0, 1), (2, 1), M)
        assert [g.xy for g in hilbert_basis(c)] == [(0, 1), (1, 1), (2, 1)]

    def test_frozen_example(self):
        c = Cone2.from_rays((0, 1), (3, 2), M)
        assert [g.xy for g in hilbert_basis(c)] == [(0, 1), (1, 1), (3, 2)]

    @pytest.mark.parametrize(
        "rays",
        [
            ((0, 1), (2, 1)),
            ((0, 1), (3, 2)),
            ((0, 1), (5, 2)),
            ((0, -1), (1, -3)),
            ((0, -1), (3, -7)),
            ((1, 2), (3, -1)),
        ],
    )
    def test_generates_and_minimal(self, rays):
        cone = Cone2.from_rays(*rays, ambient=M)
        gens = [g.xy for g in hilbert_basis(cone)]
        memo = {}
        for pt in box_lattice_points(cone, 10):
            assert can_represent(pt, gens, cone, memo), (pt, gens)
        for g in gens:
            others = [h for h in gens if h != g]
            assert not can_represent(g, others, cone), (g, others)

    def test_rays_always_present(self):
        c = Cone2.from_rays((0, 1), (7, 5), M)
        gens = {g.xy for g in hilbert_basis(c)}
        assert {(0, 1), (7, 5)} <= gens


    @pytest.mark.parametrize("ambient", [M, N])
    def test_matches_sieve_on_random_cones(self, ambient):
        rng = random.Random(11 if ambient == M else 12)
        cones = [Cone2.from_rays((1, 0), (0, 1), ambient), Cone2.from_rays((0, 1), (1, 0), ambient)]
        while len(cones) < 500:
            coords = [rng.randint(-12, 12) for _ in range(4)]
            if coords[:2] == [0, 0] or coords[2:] == [0, 0]:
                continue
            try:
                cones.append(Cone2.from_rays(coords[:2], coords[2:], ambient))
            except DegenerateConeError:
                continue
        dets = [c._det for c in cones]
        assert any(d > 0 for d in dets) and any(d < 0 for d in dets)
        assert any(abs(d) == 1 for d in dets)
        for cone in cones:
            assert hilbert_basis(cone) == hilbert_basis_by_sieve(cone), cone

    @pytest.mark.parametrize(
        "rays, ambient",
        [(((1, 0), (1234567, 1000003)), M), (((-999999, 7), (5, -1000001)), N)],
    )
    def test_huge_determinant(self, rays, ambient):
        cone = Cone2.from_rays(*rays, ambient=ambient)
        assert abs(cone._det) >= 10**6
        gens = hilbert_basis(cone)
        assert set(cone.rays) <= set(gens)
        assert all(g.ambient == ambient and cone.contains(g) for g in gens)
        assert gens == sorted(gens)
        r1, r2 = (r.xy for r in cone.rays)
        sign = 1 if cone._det > 0 else -1

        def det(u, v):
            return u[0] * v[1] - u[1] * v[0]

        angular = sorted((g.xy for g in gens), key=cmp_to_key(lambda u, v: -sign * det(u, v)))
        assert angular[0] == r1 and angular[-1] == r2
        assert all(abs(det(u, v)) == 1 for u, v in zip(angular, angular[1:]))

def test_box_lattice_points():
    q = Cone2.from_rays((1, 0), (0, 1), M)
    pts = box_lattice_points(q, 2)
    assert set(pts) == {(x, y) for x in range(3) for y in range(3)}


@pytest.mark.parametrize("bound", [0, 1, 3, 6])
@pytest.mark.parametrize(
    "region",
    [Cone2.from_rays((0, 1), (2, 1), M), HalfPlane()],
    ids=["cone-in-M", "half-plane"],
)
def test_box_lattice_points_tests_each_box_point_once_in_row_order(monkeypatch, region, bound):
    # perfbench pins the scan at (2*bound + 1)**2 contains calls; this pins it in tier 1.
    original = type(region).contains
    calls = []

    def counting(self, q):
        calls.append(q)
        return original(self, q)

    monkeypatch.setattr(type(region), "contains", counting)
    kept = box_lattice_points(region, bound)
    side = range(-bound, bound + 1)
    assert calls == [(x, y) for x in side for y in side]
    assert kept == [q for q in calls if original(region, q)]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: box_lattice_points(Cone2.from_rays((1, 0), (0, 1), M), -1), "bound must be nonnegative"),
        (lambda: Cone2.from_rays((1, 0), (0, 1), M).ray_index((1, 1)),
         "(1, 1) is not a ray generator of cone[(0, 1), (1, 0); M]"),
        (lambda: Cone2.from_json({"rays": [[0, 1], [1, 0], [1, 1]], "ambient": "M"}),
         "a cone is given by exactly two rays"),
        (lambda: Cone2((mk(0, 1), mk(1, 0, N)), M), "cone rays must be lattice points of the cone's ambient"),
        (lambda: Cone2((mk(0, 0), mk(1, 0)), M), "zero vector is not a ray generator"),
        (lambda: Cone2.from_json({"rays": 5}), "a cone is given by exactly two rays"),
        (lambda: Cone2.from_json({"rays": "ab"}), "a cone is given by exactly two rays"),
        (lambda: Cone2.from_json({"rays": [[1, 0], 5]}), "ray 5 is not a pair of integers"),
        (lambda: Cone2.from_json({"rays": [[1, 0, 2], [0, 1]]}), "ray [1, 0, 2] is not a pair of integers"),
        (lambda: Cone2.from_json({"rays": [[1, 0], None]}), "ray null is not a pair of integers"),
        (lambda: Cone2.from_json({"rays": [[1, 0], {"x": 1}]}), 'ray {"x": 1} is not a pair of integers'),
        # A library caller's value that is no JSON value keeps its repr.
        (lambda: Cone2.from_json({"rays": [[1, 0], {1, 2}]}), "ray {1, 2} is not a pair of integers"),
    ],
    ids=["box-bound-minus-1", "ray-index-of-a-non-ray", "from-json-three-rays", "ray-of-the-other-lattice",
         "zero-ray", "from-json-rays-a-number", "from-json-rays-a-string", "from-json-ray-a-number",
         "from-json-ray-a-triple", "from-json-ray-null", "from-json-ray-an-object", "from-json-ray-a-set"],
)
def test_refused_with_value_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
