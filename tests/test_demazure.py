import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import toricmonoids.demazure as demazure

from toricmonoids import (
    Cone2,
    DegenerateConeError,
    DemazureRoot,
    HalfPlane,
    LatticeMap,
    LatticePoint,
    M,
    MonoidSpec,
    N,
    RootPair,
    comult_from_root_pair,
    cone_of_spec,
    derivation_for,
    is_demazure_root,
    is_locally_nilpotent_on,
    pair_equivalence,
    pairing,
    root_basis,
    roots_up_to,
)

from oracles import (
    dual_ray_swap,
    dual_ray_swap_by_cramer,
    pair_equivalence_by_swap,
    roots_by_double_loop,
)

QUADRANT = Cone2.from_rays((1, 0), (0, 1), N)

TEST_CONES = [
    QUADRANT,
    Cone2.from_rays((1, 0), (-2, 1), N),
    Cone2.from_rays((1, 0), (-1, 1), N),
    Cone2.from_rays((1, 0), (-3, 2), N),
    Cone2.from_rays((0, 1), (5, 2), M).dual(),
    Cone2.from_rays((0, -1), (1, -3), M).dual(),
    Cone2.from_rays((0, 1), (3, 2), M).dual(),
]


class TestIsRoot:
    def test_family_inequality(self):
        # for the cone on (1,0) and (-b,a), the roots at (1,0) are (-1,l) with a*l+b >= 0
        for a, b in [(1, 0), (1, 2), (2, 1), (3, 2)]:
            sigma = Cone2.from_rays((1, 0), (-b, a), N)
            i = sigma.ray_index((1, 0))
            for ell in range(-6, 7):
                assert is_demazure_root(sigma, i, (-1, ell)) == (a * ell + b >= 0)

    def test_pairing_zero_is_not_a_root(self):
        i = QUADRANT.ray_index((1, 0))
        assert not is_demazure_root(QUADRANT, i, (0, 1))

    def test_quadrant_example(self):
        i = QUADRANT.ray_index((1, 0))
        assert is_demazure_root(QUADRANT, i, (-1, 0))

    def test_requires_cone_in_n(self):
        with pytest.raises(ValueError):
            is_demazure_root(Cone2.from_rays((1, 0), (0, 1), M), 0, (-1, 0))

    def test_validated_constructor(self):
        i = QUADRANT.ray_index((1, 0))
        r = DemazureRoot.validated(QUADRANT, i, (-1, 2))
        assert r.e == LatticePoint(-1, 2, M)
        with pytest.raises(ValueError):
            DemazureRoot.validated(QUADRANT, i, (1, 0))


def _random_n_cone(data, coord):
    ray = st.tuples(st.integers(-coord, coord), st.integers(-coord, coord))
    try:
        return Cone2.from_rays(data.draw(ray), data.draw(ray), N)
    except DegenerateConeError:
        assume(False)


class TestIsRootFastPath:
    """The exact-pair fast path against inline dot products; other inputs keep
    the validating route's errors."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_matches_dot_products(self, data):
        sigma = _random_n_cone(data, 12)
        i = data.draw(st.integers(0, 1))
        x, y = data.draw(st.tuples(st.integers(-30, 30), st.integers(-30, 30)))
        (pix, piy), (pjx, pjy) = sigma.rays[i].xy, sigma.rays[1 - i].xy
        expected = x * pix + y * piy == -1 and x * pjx + y * pjy >= 0
        for e in ((x, y), [x, y], LatticePoint(x, y, M)):
            assert is_demazure_root(sigma, i, e) is expected

    @pytest.mark.parametrize(
        "sigma, ray_index, e, message",
        [
            (QUADRANT, 0, (True, 0), "exact integer required, got True"),
            (QUADRANT, 0, (1.0, 2), "exact integer required, got 1.0"),
            (QUADRANT, 0, (Fraction(1, 2), 0), "exact integer required, got Fraction(1, 2)"),
            (QUADRANT, 0, (1, 2, 3), "too many values to unpack (expected 2)"),
            (QUADRANT, 0, LatticePoint(-1, 0, N), "a Demazure root is a character, i.e. a point of M"),
            (Cone2.from_rays((1, 0), (0, 1), M), 0, (-1, 0), "Demazure roots are taken for a cone in N"),
            (QUADRANT, 2, (-1, 0), "ray_index must be 0 or 1"),
        ],
        ids=["bool", "float", "fraction", "triple", "point-in-n", "cone-in-m", "ray-index-2"],
    )
    def test_errors_unchanged(self, sigma, ray_index, e, message):
        with pytest.raises(ValueError) as exc:
            is_demazure_root(sigma, ray_index, e)
        assert type(exc.value) is ValueError and str(exc.value) == message


class TestRootsUpTo:
    def test_quadrant_bound_3(self):
        i = QUADRANT.ray_index((1, 0))
        roots = roots_up_to(QUADRANT, i, 3)
        assert [r.e.xy for r in roots] == [(-1, 0), (-1, 1), (-1, 2), (-1, 3)]

    def test_slanted_cone_bound_3(self):
        sigma = Cone2.from_rays((1, 0), (-2, 1), N)
        i = sigma.ray_index((1, 0))
        roots = roots_up_to(sigma, i, 3)
        # condition at the other ray (-2,1): 2 + l >= 0
        assert [r.e.xy for r in roots] == [
            (-1, -2),
            (-1, -1),
            (-1, 0),
            (-1, 1),
            (-1, 2),
            (-1, 3),
        ]

    def test_bound_validated(self):
        with pytest.raises(ValueError):
            roots_up_to(QUADRANT, 0, 0)

    @pytest.mark.parametrize("sigma", TEST_CONES)
    def test_matches_double_loop(self, sigma):
        for i in (0, 1):
            for bound in (2, 4):
                got = [r.e.xy for r in roots_up_to(sigma, i, bound)]
                assert got == roots_by_double_loop(sigma, i, bound)
                for e in got:
                    assert is_demazure_root(sigma, i, e)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_matches_double_loop_on_random_cones(self, data):
        sigma = _random_n_cone(data, 12)
        bound = data.draw(st.integers(1, 15))
        for i in (0, 1):
            got = [r.e.xy for r in roots_up_to(sigma, i, bound)]
            assert got == roots_by_double_loop(sigma, i, bound)

    def test_tests_every_box_point(self, monkeypatch):
        calls = []
        real = demazure.is_demazure_root

        def counting(sigma, ray_index, e):
            calls.append(e)
            return real(sigma, ray_index, e)

        monkeypatch.setattr(demazure, "is_demazure_root", counting)
        for bound in (1, 5, 12):
            calls.clear()
            roots_up_to(Cone2.from_rays((1, 0), (-3, 2), N), 0, bound)
            assert len(calls) == (2 * bound + 1) ** 2


class TestRootBasis:
    @pytest.mark.parametrize("e", [(5, 5), (-1, -1)])
    def test_non_root_refused(self, e):
        # (5, 5) pairs to 5 with the ray (1, 0); (-1, -1) pairs to -1 with the other ray.
        i = QUADRANT.ray_index((1, 0))
        with pytest.raises(ValueError, match="not a Demazure root"):
            root_basis(QUADRANT, DemazureRoot(LatticePoint(*e, M), i))

    def test_quadrant_examples(self):
        i = QUADRANT.ray_index((1, 0))
        b1 = root_basis(QUADRANT, DemazureRoot.validated(QUADRANT, i, (-1, 0)))
        assert (b1[0].xy, b1[1].xy) == ((1, 0), (0, 1))
        b2 = root_basis(QUADRANT, DemazureRoot.validated(QUADRANT, i, (-1, 2)))
        assert (b2[0].xy, b2[1].xy) == ((1, -2), (0, 1))

    @pytest.mark.parametrize("sigma", TEST_CONES)
    def test_always_unimodular_and_orthogonal(self, sigma):
        for i in (0, 1):
            p = sigma.rays[i]
            for root in roots_up_to(sigma, i, 4):
                minus_e, v = root_basis(sigma, root)
                assert minus_e.x * v.y - minus_e.y * v.x in (1, -1)
                assert pairing(v, p) == 0


class TestDerivations:
    @pytest.mark.parametrize("sigma", TEST_CONES)
    def test_roots_give_locally_nilpotent_derivations(self, sigma):
        dual = sigma.dual()
        for i in (0, 1):
            for root in roots_up_to(sigma, i, 4):
                rule = derivation_for(sigma, root)
                assert is_locally_nilpotent_on(rule, dual)


class TestDualRaySwap:
    def test_quadrant(self):
        assert dual_ray_swap(QUADRANT) == LatticeMap(0, 1, 1, 0)

    def test_integral_swap(self):
        sigma = Cone2.from_rays((0, 1), (3, 2), M).dual()
        assert dual_ray_swap(sigma) == LatticeMap(-2, 3, -1, 2)

    def test_non_integral_swap(self):
        sigma = Cone2.from_rays((0, 1), (5, 2), M).dual()
        assert dual_ray_swap(sigma) is None

    def test_swaps_dual_rays(self):
        for dual_rays in [((0, 1), (3, 2)), ((0, 1), (1, 0)), ((0, 1), (2, 3))]:
            sigma = Cone2.from_rays(*dual_rays, ambient=M).dual()
            swap = dual_ray_swap(sigma)
            assert swap is not None
            w1, w2 = sigma.dual().rays
            assert swap.apply(w1) == w2 and swap.apply(w2) == w1
            assert swap.det == -1


    def test_matches_cramer_oracle_on_seeded_cones(self):
        rng = random.Random(14)
        found = 0
        for _ in range(2000):
            r1 = (rng.randint(-9, 9), rng.randint(-9, 9))
            r2 = (rng.randint(-9, 9), rng.randint(-9, 9))
            if r1[0] * r2[1] == r1[1] * r2[0]:
                continue
            sigma = Cone2.from_rays(r1, r2, N)
            swap = dual_ray_swap(sigma)
            assert swap == dual_ray_swap_by_cramer(sigma), sigma
            found += swap is not None
        # Both answers occur.
        assert 0 < found < 2000


class TestPairEquivalence:
    def test_identity(self):
        i = QUADRANT.ray_index((1, 0))
        p = RootPair(
            DemazureRoot.validated(QUADRANT, i, (-1, 0)),
            DemazureRoot.validated(QUADRANT, i, (-1, 1)),
        )
        assert pair_equivalence(QUADRANT, p, p)

    def test_quadrant_cross_ray(self):
        i1 = QUADRANT.ray_index((1, 0))
        i0 = QUADRANT.ray_index((0, 1))
        p = RootPair(
            DemazureRoot.validated(QUADRANT, i1, (-1, 0)),
            DemazureRoot.validated(QUADRANT, i1, (-1, 1)),
        )
        q = RootPair(
            DemazureRoot.validated(QUADRANT, i0, (0, -1)),
            DemazureRoot.validated(QUADRANT, i0, (1, -1)),
        )
        assert pair_equivalence(QUADRANT, p, q)
        assert pair_equivalence(QUADRANT, q, p)

    def test_non_integral_swap_separates(self):
        sigma = Cone2.from_rays((0, 1), (5, 2), M).dual()
        i = sigma.ray_index((1, 0))
        roots = roots_up_to(sigma, i, 3)
        assert len(roots) >= 2
        p = RootPair(roots[0], roots[0])
        q = RootPair(roots[1], roots[1])
        assert not pair_equivalence(sigma, p, q)

    def test_mismatched_pair_rejected(self):
        i1 = QUADRANT.ray_index((1, 0))
        i0 = QUADRANT.ray_index((0, 1))
        with pytest.raises(ValueError):
            RootPair(
                DemazureRoot.validated(QUADRANT, i1, (-1, 0)),
                DemazureRoot.validated(QUADRANT, i0, (0, -1)),
            )

    def test_reflexive_and_symmetric_on_random_pairs(self):
        rng = random.Random(7)
        for sigma in TEST_CONES:
            pool = [(i, r) for i in (0, 1) for r in roots_up_to(sigma, i, 3)]
            pairs = []
            for i, r in pool:
                same_ray = [s for j, s in pool if j == i]
                for s in same_ray:
                    pairs.append(RootPair(r, s))
            rng.shuffle(pairs)
            pairs = pairs[:12]
            for p in pairs:
                assert pair_equivalence(sigma, p, p)
            for p in pairs:
                for q in pairs:
                    assert pair_equivalence(sigma, p, q) == pair_equivalence(sigma, q, p)


def _seeded_root_pairs(seed: int, cones: int = 150, coord: int = 7):
    """``cones`` random N cones with rays in ``[-coord, coord]``, each with every
    ordered pair of its first five roots per ray (bound 9), commutative pairs included."""
    rng = random.Random(seed)
    out = []
    while len(out) < cones:
        r1, r2 = [(rng.randint(-coord, coord), rng.randint(-coord, coord)) for _ in range(2)]
        if r1[0] * r2[1] == r1[1] * r2[0]:
            continue
        sigma = Cone2.from_rays(r1, r2, N)
        pairs = []
        for i in (0, 1):
            roots = roots_up_to(sigma, i, 9)[:5]
            pairs += [RootPair(r, s) for r in roots for s in roots]
        out.append((sigma, pairs))
    return out


class TestPairKey:
    """``pair_equivalence`` is equality of the classification key ``(family, |k|, a, b)``."""

    def test_matches_swap_oracle_on_seeded_cones(self):
        compared = commutative = cross_ray = equal = 0
        for sigma, pairs in _seeded_root_pairs(16):
            for p in pairs:
                for q in pairs:
                    got = pair_equivalence(sigma, p, q)
                    assert got == pair_equivalence_by_swap(sigma, p, q), (sigma, p, q)
                    compared += 1
                    commutative += p.e1 == p.e2 or q.e1 == q.e2
                    cross_ray += got and p.ray_index != q.ray_index
                    equal += got
        assert compared >= 100_000
        assert commutative > 0 and cross_ray > 0 and compared > equal > 0

    def test_keys_are_coprime_surface_parameters(self):
        for sigma, pairs in _seeded_root_pairs(17, cones=60):
            for pair in pairs:
                family, k, a, b = demazure._pair_key(sigma, pair)
                assert (family == "C") == (k == 0) == (pair.e1 == pair.e2)
                assert a > 0 and b >= 0 and gcd(a, b) == 1, (sigma, pair)

    def test_basis_carries_the_dual_cone_onto_the_x_cone(self):
        # phi: -base -> (1, 0), v -> (0, 1) maps the dual cone onto the exponent cone of
        # X(|k|, a, b); that cone does not depend on n, so C pairs use n = 1.
        for sigma, pairs in _seeded_root_pairs(18, cones=40):
            for pair in pairs:
                family, k, a, b = demazure._pair_key(sigma, pair)
                base = pair.e1 if family != "Y" else pair.e2
                minus_base, v = root_basis(sigma, base)
                phi = LatticeMap(minus_base.x, v.x, minus_base.y, v.y).inverse()
                assert phi.image_cone(sigma.dual()) == cone_of_spec(MonoidSpec.x(max(k, 1), a, b))

    def test_swapping_the_roots_exchanges_x_and_y(self):
        swapped = 0
        for sigma, pairs in _seeded_root_pairs(19, cones=40):
            for pair in pairs:
                family, k, a, b = demazure._pair_key(sigma, pair)
                if k:
                    flipped = demazure._pair_key(sigma, RootPair(pair.e2, pair.e1))
                    assert flipped == ({"X": "Y", "Y": "X"}[family], k, a, b)
                    swapped += 1
        assert swapped > 0

    @pytest.mark.parametrize("e", [(5, 5), (-1, -1), (0, 1)])
    def test_non_root_raises(self, e):
        i = QUADRANT.ray_index((1, 0))
        root = DemazureRoot.validated(QUADRANT, i, (-1, 0))
        bad = RootPair(root, DemazureRoot(LatticePoint(*e, M), i))
        for p, q in ((bad, bad), (bad, RootPair(root, root)), (RootPair(root, root), bad)):
            with pytest.raises(ValueError, match="not a Demazure root"):
                pair_equivalence(QUADRANT, p, q)


@pytest.mark.parametrize("ray_index", [True, False, 1.0, 0.0], ids=["true", "false", "1.0", "0.0"])
def test_ray_index_is_an_int(ray_index):
    e = LatticePoint(-1, 0, M)
    for call in (
        lambda: DemazureRoot(e, ray_index),
        lambda: DemazureRoot.validated(QUADRANT, ray_index, e),
        lambda: is_demazure_root(QUADRANT, ray_index, (-1, 0)),
        lambda: is_demazure_root(QUADRANT, ray_index, e),
        lambda: roots_up_to(QUADRANT, ray_index, 2),
    ):
        with pytest.raises(ValueError, match="ray_index must be 0 or 1"):
            call()


def test_root_in_n_refused():
    with pytest.raises(ValueError, match="^a Demazure root is a character, i.e. a point of M$"):
        DemazureRoot(LatticePoint(1, 0, N), 0)


_ROOT = DemazureRoot(LatticePoint(-1, 0, M), 0)
_PAIR = RootPair(_ROOT, _ROOT)


@pytest.mark.parametrize(
    "call",
    [
        lambda region: is_demazure_root(region, 0, (-1, 0)),
        lambda region: roots_up_to(region, 0, 3),
        lambda region: DemazureRoot.validated(region, 0, (-1, 0)),
        lambda region: root_basis(region, _ROOT),
        lambda region: derivation_for(region, _ROOT),
        lambda region: pair_equivalence(region, _PAIR, _PAIR),
        lambda region: comult_from_root_pair(region, _PAIR, (1, 1)),
    ],
    ids=[
        "is_demazure_root",
        "roots_up_to",
        "validated",
        "root_basis",
        "derivation_for",
        "pair_equivalence",
        "comult_from_root_pair",
    ],
)
def test_only_a_cone_in_n_has_roots(call):
    # A half plane in N has the right ambient but no rays.
    for region in (HalfPlane(N), HalfPlane(M), Cone2.from_rays((1, 0), (0, 1), M)):
        with pytest.raises(ValueError) as exc:
            call(region)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "Demazure roots are taken for a cone in N"


def test_root_json_round_trip():
    r = DemazureRoot(LatticePoint(-1, 2, M), 1)
    assert r.to_json() == {"e": [-1, 2], "ray_index": 1}
    assert DemazureRoot.from_json(r.to_json()) == r


@pytest.mark.parametrize(
    "e, quoted",
    [(None, "null"), ({"x": 1}, '{"x": 1}'), ("ab", '"ab"'), ({1, 2}, "{1, 2}")],
    ids=["null", "object", "string", "set-keeps-its-repr"],
)
def test_root_json_error_quotes_the_value_as_json(e, quoted):
    with pytest.raises(ValueError) as exc:
        DemazureRoot.from_json({"e": e, "ray_index": 0})
    assert str(exc.value) == f"root e {quoted} is not a pair of integers"
