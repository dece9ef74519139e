import json
import random
from collections import Counter
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from toricmonoids import (
    ComultRule,
    Cone2,
    DegenerateConeError,
    DemazureRoot,
    Family,
    HalfPlane,
    LatticePoint,
    LaurentElement,
    M,
    MonoidSpec,
    N,
    NotAMonoidError,
    RationalPoint,
    RootPair,
    TensorElement,
    UnsupportedChartError,
    boundary,
    box_lattice_points,
    chart_monomial_value,
    chart_unit,
    chart_zero,
    classify_cone,
    comult,
    comult_from_root_pair,
    comult_monomial,
    cone_of_spec,
    counit,
    distinguish,
    hilbert_basis,
    image_ideal_codim,
    monoids,
    multiply_points,
    opposite,
    opposite_witness,
    quotient_by_center,
    restriction_condition,
    restriction_failure,
    roots_up_to,
    tensor_chart_value,
    verify_bialgebra,
    verify_comultiplication,
)

from toricmonoids.monoids import _binomials

from oracles import (
    box_codes_by_lookup,
    code_by_lookup,
    comult_by_comb,
    comult_from_root_pair_by_comb,
    image_ideal_codim_search,
    rand_fraction,
    rand_nonzero_fraction,
    restriction_scan,
    verify_by_reexpansion,
)


def small_xy_specs(n_max, ab_max, b_min=0):
    for n in range(1, n_max + 1):
        for a in range(1, ab_max + 1):
            for b in range(b_min, ab_max + 1):
                if gcd(a, b) != 1:
                    continue
                yield MonoidSpec.x(n, a, b)
                yield MonoidSpec.y(n, a, b)


class TestMonoidSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonoidSpec.x(0, 1, 1)
        with pytest.raises(ValueError):
            MonoidSpec.x(1, 0, 1)
        with pytest.raises(ValueError):
            MonoidSpec.x(1, 2, 4)  # not coprime
        with pytest.raises(ValueError):
            MonoidSpec.x(1, 1, -1)
        with pytest.raises(ValueError):
            MonoidSpec(Family.GROUP, 1, 1, 1)

    def test_bool_is_not_an_integer(self):
        for args in [(True, 1, 0), (1, True, 0), (1, 1, False)]:
            with pytest.raises(ValueError):
                MonoidSpec.x(*args)
        with pytest.raises(ValueError):
            MonoidSpec.group(True)
        with pytest.raises(ValueError):
            ComultRule(True)

    def test_json_round_trip(self):
        for s in [MonoidSpec.x(1, 2, 3), MonoidSpec.y(4, 1, 0), MonoidSpec.group(5)]:
            assert MonoidSpec.from_json(s.to_json()) == s
        assert MonoidSpec.group(5).to_json() == {"family": "Group", "n": 5}
        with pytest.raises(ValueError):
            MonoidSpec.from_json({"family": "Z", "n": 1})
        with pytest.raises(ValueError):
            MonoidSpec.from_json({"family": "X", "n": 2.5, "a": 1, "b": 1})


class TestConeOfSpec:
    def test_x_family(self):
        assert cone_of_spec(MonoidSpec.x(1, 2, 3)) == Cone2.from_rays((0, 1), (2, 3), M)

    def test_y_family(self):
        assert cone_of_spec(MonoidSpec.y(2, 1, 1)) == Cone2.from_rays((0, -1), (1, -3), M)

    def test_group_half_plane(self):
        region = cone_of_spec(MonoidSpec.group(5))
        assert isinstance(region, HalfPlane)
        assert region.contains((0, -7)) and region.contains((3, 2))
        assert not region.contains((-1, 0))

    def test_half_plane_checks_ambients_like_a_cone(self):
        with pytest.raises(ValueError, match="ambient must be"):
            HalfPlane(ambient="Q")
        stray = LatticePoint(1, 0, N)
        cone = Cone2.from_rays((0, 1), (1, 0), M)
        with pytest.raises(ValueError) as from_cone:
            cone.contains(stray)
        with pytest.raises(ValueError) as from_half_plane:
            HalfPlane().contains(stray)
        assert str(from_half_plane.value) == str(from_cone.value)
        assert str(from_half_plane.value) == "point of N tested against a cone in M"
        with pytest.raises(ValueError, match="point of M tested against a cone in N"):
            HalfPlane(N).contains(RationalPoint(1, 0, M))
        assert HalfPlane().contains(LatticePoint(1, 0, M))
        assert HalfPlane().contains(RationalPoint("1/2", -3, M))
        assert HalfPlane(N).contains((0, 5)) and not HalfPlane(N).contains((-1, 5))

    @pytest.mark.parametrize(
        "q", [(True, 0), (0.5, 0), (1, 0.5), ("1", "2"), [False, 1]],
        ids=["bool", "float-x", "float-y", "strings", "list-bool"],
    )
    def test_half_plane_refuses_inexact_coordinates(self, q):
        with pytest.raises(ValueError, match="exact rationals"):
            HalfPlane().contains(q)


class TestComult:
    def test_x_generator(self):
        for n in (1, 2, 3):
            t = comult(ComultRule(n), (1, 0))
            assert t == TensorElement.monomial((1, 0), (0, 0)) + TensorElement.monomial(
                (0, n), (1, 0)
            )

    def test_grouplike_vertical(self):
        for n in (1, 3):
            for b in (0, 1, 4):
                assert comult(ComultRule(n), (0, b)) == TensorElement.monomial((0, b), (0, b))

    def test_frozen_weight2_example(self):
        t = comult(ComultRule(2), (2, 1))
        expected = (
            TensorElement.monomial((2, 1), (0, 1))
            + TensorElement.monomial((1, 3), (1, 1), 2)
            + TensorElement.monomial((0, 5), (2, 1))
        )
        assert t == expected

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            comult(ComultRule(1), (-1, 0))

    def test_matches_tensor_expression(self):
        # the expansion equals (x (x) 1 + y^n (x) x)^a * (y (x) y)^b termwise
        for n in (1, 2):
            for a in range(4):
                for b in range(3):
                    lhs = comult(ComultRule(n), (a, b))
                    s = TensorElement.monomial((1, 0), (0, 0)) + TensorElement.monomial(
                        (0, n), (1, 0)
                    )
                    g = TensorElement.monomial((0, 1), (0, 1))
                    assert lhs == s**a * g**b

    def test_minus_orientation_reads_inverted_chart(self):
        # the chart generators of Y(n,1,b) expand to the lattice-coordinate tensors
        for n in (1, 2):
            for b in (0, 1, 2):
                # the 1/y-chart monomial (a, c) is the lattice monomial (a, -c)
                rule = ComultRule(n)
                t = comult(rule, (1, -b - n))
                expected = TensorElement.monomial((1, -b - n), (0, -b - n)) + TensorElement.monomial(
                    (0, -b), (1, -b - n)
                )
                assert t == expected
                assert comult(rule, (0, -1)) == TensorElement.monomial((0, -1), (0, -1))

    def test_monomial_membership_enforced(self):
        s = MonoidSpec.x(1, 2, 3)
        with pytest.raises(ValueError):
            comult_monomial(s, (1, 1))  # outside the cone
        t = comult_monomial(s, (1, 2))
        assert t.coefficient((1, 2), (0, 2)) == 1

    def test_group_spec_allows_negative_y(self):
        t = comult_monomial(MonoidSpec.group(2), (1, -3))
        assert t == TensorElement.monomial((1, -3), (0, -3)) + TensorElement.monomial(
            (0, -1), (1, -3)
        )

    def test_weight_validated(self):
        with pytest.raises(ValueError):
            ComultRule(0)


class TestComultFromRootPair:
    QUADRANT = Cone2.from_rays((1, 0), (0, 1), N)

    def _pair(self, sigma, e1, e2, ray):
        i = sigma.ray_index(ray)
        return RootPair(
            DemazureRoot.validated(sigma, i, e1), DemazureRoot.validated(sigma, i, e2)
        )

    def test_reproduces_weight_rule_on_quadrant(self):
        for n in (1, 2, 3):
            pair = self._pair(self.QUADRANT, (-1, 0), (-1, n), (1, 0))
            rule = ComultRule(n)
            for u in box_lattice_points(self.QUADRANT.dual(), 4):
                assert comult_from_root_pair(self.QUADRANT, pair, u) == comult(rule, u)

    def test_grouplike_when_pairing_vanishes(self):
        pair = self._pair(self.QUADRANT, (-1, 0), (-1, 2), (1, 0))
        assert comult_from_root_pair(self.QUADRANT, pair, (0, 3)) == TensorElement.monomial(
            (0, 3), (0, 3)
        )

    def test_equal_roots_cocommutative(self):
        sigma = Cone2.from_rays((1, 0), (-2, 1), N)
        pair = self._pair(sigma, (-1, 1), (-1, 1), (1, 0))
        for u in box_lattice_points(sigma.dual(), 4):
            t = comult_from_root_pair(sigma, pair, u)
            assert t.flip() == t

    def test_unequal_roots_not_cocommutative(self):
        pair = self._pair(self.QUADRANT, (-1, 0), (-1, 1), (1, 0))
        t = comult_from_root_pair(self.QUADRANT, pair, (1, 0))
        assert t.flip() != t

    def test_membership_enforced(self):
        pair = self._pair(self.QUADRANT, (-1, 0), (-1, 1), (1, 0))
        with pytest.raises(ValueError):
            comult_from_root_pair(self.QUADRANT, pair, (-1, 2))

    def test_cone_in_m_rejected(self):
        sigma = Cone2.from_rays((1, 0), (0, 1), M)
        pair = RootPair(
            DemazureRoot(LatticePoint(-1, 0, M), 1), DemazureRoot(LatticePoint(-1, 1, M), 1)
        )
        with pytest.raises(ValueError, match="cone in N"):
            comult_from_root_pair(sigma, pair, (1, 1))

    def test_spec_route_is_root_pair_route_at_1_0(self):
        """Each X and Y spec's comultiplication is the root-pair expansion at
        the ray (1, 0) of its dual cone, with e1 = (-1, 0) and e2 = (-1, n)."""
        checked = 0
        for spec in small_xy_specs(3, 3):
            region = cone_of_spec(spec)
            sigma = region.dual()
            pair = self._pair(sigma, (-1, 0), (-1, spec.n), (1, 0))
            for u in box_lattice_points(region, 4):
                assert comult_monomial(spec, u).to_json_text() == comult_from_root_pair(
                    sigma, pair, u
                ).to_json_text()
                checked += 1
        assert checked == 540

    def test_invalid_pair_escapes_cone(self):
        # raw-constructed non-root, whose expansion would leave the cone: refused
        bogus = RootPair(
            DemazureRoot(LatticePoint(-1, -1, M), 1), DemazureRoot(LatticePoint(-1, -1, M), 1)
        )
        with pytest.raises(ValueError, match=r"\(-1, -1\) is not a Demazure root"):
            comult_from_root_pair(self.QUADRANT, bogus, (1, 0))

    @pytest.mark.parametrize(
        "e1, e2, bad",
        [
            ((5, 5), (-1, 1), (5, 5)),  # would give y^2 (x) x*y + x*y (x) x^6*y^6
            ((0, 0), (0, 0), (0, 0)),  # would give 4*x^2*y^3 (x) x^2*y^3
            ((-1, -1), (-1, -1), (-1, -1)),
            ((-1, 0), (-3, 0), (-3, 0)),  # a root, then a non-root
            ((2, 2), (-3, 0), (2, 2)),  # e1 is checked first
        ],
    )
    def test_non_roots_refused(self, e1, e2, bad):
        i = self.QUADRANT.ray_index((1, 0))
        pair = RootPair(*(DemazureRoot(LatticePoint(*e, M), i) for e in (e1, e2)))
        message = f"{LatticePoint(*bad, M)} is not a Demazure root of {self.QUADRANT} at ray {i}"
        for u in ((2, 3), (-1, 2)):  # the roots are checked before the monomial
            with pytest.raises(ValueError) as info:
                comult_from_root_pair(self.QUADRANT, pair, u)
            assert str(info.value) == message


def canonical(t: TensorElement) -> str:
    return json.dumps(t.to_json())


class TestExpansionOracles:
    """The recurrence-built expansions against the per-term ``math.comb`` routes."""

    def test_binomial_rows(self):
        for d in range(301):
            assert _binomials(d) == [comb(d, i) for i in range(d + 1)]

    @given(
        st.integers(0, 60),
        st.integers(-50, 50),
        st.integers(1, 6),
    )
    def test_comult(self, a, b, n):
        rule = ComultRule(n)
        assert canonical(comult(rule, (a, b))) == canonical(comult_by_comb(rule, (a, b)))

    @settings(max_examples=60)
    @given(data=st.data())
    def test_root_pair_on_random_cones(self, data):
        ray = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
        try:
            sigma = Cone2.from_rays(data.draw(ray), data.draw(ray), N)
        except DegenerateConeError:
            assume(False)
        i = data.draw(st.integers(0, 1))
        roots = roots_up_to(sigma, i, 8)
        assume(roots)
        pair = RootPair(data.draw(st.sampled_from(roots)), data.draw(st.sampled_from(roots)))
        u = data.draw(st.sampled_from(box_lattice_points(sigma.dual(), 5)))
        assert canonical(comult_from_root_pair(sigma, pair, u)) == canonical(
            comult_from_root_pair_by_comb(sigma, pair, u)
        )

    @settings(max_examples=200)
    @given(data=st.data())
    def test_root_pair_closure_from_segment_ends(self, data):
        # Roots and arbitrary characters mixed: a pair is refused exactly when
        # an inline pairing test finds a non-root; a pair of roots expands as
        # the oracle does, which checks every term for closure in the cone.
        ray = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
        try:
            sigma = Cone2.from_rays(data.draw(ray), data.draw(ray), N)
        except DegenerateConeError:
            assume(False)
        i = data.draw(st.integers(0, 1))
        roots = [r.e.xy for r in roots_up_to(sigma, i, 6)]
        root_like = st.one_of(st.sampled_from(roots), ray) if roots else ray
        e1, e2 = (data.draw(root_like) for _ in range(2))
        pair = RootPair(*(DemazureRoot(LatticePoint(*e, M), i) for e in (e1, e2)))
        u = data.draw(st.sampled_from(box_lattice_points(sigma.dual(), 5)))
        (px, py), (qx, qy) = sigma.rays[i].xy, sigma.rays[1 - i].xy
        is_root = [x * px + y * py == -1 and x * qx + y * qy >= 0 for x, y in (e1, e2)]
        if all(is_root):
            assert canonical(comult_from_root_pair(sigma, pair, u)) == canonical(
                comult_from_root_pair_by_comb(sigma, pair, u)
            )
        else:
            bad = e1 if not is_root[0] else e2
            with pytest.raises(ValueError, match=rf"^\({bad[0]}, {bad[1]}\) is not a Demazure root"):
                comult_from_root_pair(sigma, pair, u)

    @pytest.mark.parametrize(
        "ray, e1, e2, u, n_terms",
        [
            ((0, 1), (0, -1), (2, -1), (1, 4), 5),
            ((1, 0), (-1, 2), (-1, 0), (3, 1), 4),
            ((1, 0), (-1, 1), (-1, 1), (3, 1), 4),
            ((0, 1), (1, -1), (1, -1), (1, 3), 4),
            ((0, 1), (2, -1), (0, -1), (1, 4), 5),
            # A zero character is no root: refused before any term is built.
            ((1, 0), (-1, 1), (0, 0), (3, 1), None),
            ((0, 1), (1, -1), (0, 0), (1, 3), None),
            ((1, 0), (0, 0), (0, 0), (2, 3), None),
        ],
        ids=["e2-above-zero", "e2-below-zero", "equal-roots-below-zero", "equal-roots-above-zero",
             "e2-x-zero-below-zero", "e2-zero-e1-below-zero", "e2-zero-e1-above-zero",
             "e1-e2-zero"],
    )
    def test_root_pair_term_order(self, ray, e1, e2, u, n_terms):
        """Keys ascend or descend in j with the sign of the step (e2, -e1)."""
        sigma = Cone2.from_rays((1, 0), (0, 1), N)
        i = sigma.ray_index(ray)
        pair = RootPair(*(DemazureRoot(LatticePoint(*e, M), i) for e in (e1, e2)))
        if n_terms is None:
            with pytest.raises(ValueError, match=r"^\(0, 0\) is not a Demazure root"):
                comult_from_root_pair(sigma, pair, u)
            return
        t = comult_from_root_pair(sigma, pair, u)
        assert canonical(t) == canonical(comult_from_root_pair_by_comb(sigma, pair, u))
        assert t.to_json_text() == canonical(t)
        assert len(t.support()) == n_terms


class TestRestriction:
    def test_family_cones_pass(self):
        for s in small_xy_specs(3, 4):
            assert restriction_condition(cone_of_spec(s), s.n)

    def test_witness_example(self):
        c = Cone2.from_rays((1, 1), (1, -1), M)
        fail = restriction_failure(c, 1)
        assert fail is not None
        assert fail[0].xy == (1, -1) and fail[1].xy == (0, -1)
        assert not restriction_condition(c, 1)

    def test_half_plane_precondition(self):
        c = Cone2.from_rays((-1, 1), (1, 1), M)
        with pytest.raises(ValueError):
            restriction_condition(c, 1)

    def test_matches_scan(self):
        cones = [
            Cone2.from_rays((0, 1), (2, 3), M),
            Cone2.from_rays((0, -1), (1, -3), M),
            Cone2.from_rays((1, 1), (1, -1), M),
            Cone2.from_rays((1, 0), (1, 2), M),
            Cone2.from_rays((0, 1), (1, -2), M),
            Cone2.from_rays((0, -1), (2, -1), M),
        ]
        for c in cones:
            for n in (1, 2, 3):
                assert restriction_condition(c, n) == restriction_scan(c, n, 16), (c, n)


class TestClassify:
    def test_examples(self):
        assert classify_cone(Cone2.from_rays((0, 1), (2, 3), M), 4) == MonoidSpec.x(4, 2, 3)
        assert classify_cone(Cone2.from_rays((0, -1), (1, -3), M), 2) == MonoidSpec.y(2, 1, 1)
        assert classify_cone(Cone2.from_rays((0, 1), (1, 0), M), 3) == MonoidSpec.x(3, 1, 0)

    def test_half_plane_is_group(self):
        assert classify_cone(HalfPlane(), 5) == MonoidSpec.group(5)

    @pytest.mark.parametrize("region", [HalfPlane(N), Cone2.from_rays((0, 1), (2, 3), N)])
    def test_region_in_n_refused(self, region):
        with pytest.raises(ValueError, match="^the restriction condition applies to exponent cones in M$"):
            classify_cone(region, 2)

    def test_not_a_monoid(self):
        with pytest.raises(NotAMonoidError) as exc:
            classify_cone(Cone2.from_rays((1, 1), (1, -1), M), 1)
        assert exc.value.witness.xy == (1, -1)
        assert exc.value.missing.xy == (0, -1)

    def test_round_trip(self):
        for s in small_xy_specs(4, 5):
            assert classify_cone(cone_of_spec(s), s.n) == s

    def test_same_cone_different_weights(self):
        c = Cone2.from_rays((0, -1), (1, -3), M)
        assert classify_cone(c, 1) == MonoidSpec.y(1, 1, 2)
        assert classify_cone(c, 3) == MonoidSpec.y(3, 1, 0)


class TestInvariants:
    def test_x_at_k_equals_a(self):
        for s in small_xy_specs(3, 4):
            expected = s.b if s.family is Family.X else s.b + s.n * s.a
            assert image_ideal_codim(s, s.a) == expected

    def test_examples(self):
        assert image_ideal_codim(MonoidSpec.x(2, 3, 2), 4) == 3
        assert image_ideal_codim_search(MonoidSpec.x(2, 3, 2), 4) == 3
        assert image_ideal_codim(MonoidSpec.y(1, 1, 1), 1) == 2
        assert image_ideal_codim_search(MonoidSpec.y(1, 1, 1), 1) == 2
        for k in (1, 3, 9):
            assert image_ideal_codim(MonoidSpec.x(1, 1, 0), k) == 0

    def test_group_not_applicable(self):
        with pytest.raises(ValueError):
            image_ideal_codim(MonoidSpec.group(2), 1)
        with pytest.raises(ValueError):
            image_ideal_codim_search(MonoidSpec.group(2), 1)

    def test_closed_matches_search(self):
        for s in small_xy_specs(3, 4):
            for k in range(1, 9):
                assert image_ideal_codim(s, k) == image_ideal_codim_search(s, k)


class TestDistinguish:
    def test_separating_invariant(self):
        assert distinguish(MonoidSpec.x(1, 2, 3), MonoidSpec.x(1, 3, 2))
        assert image_ideal_codim(MonoidSpec.x(1, 2, 3), 6) == 9
        assert image_ideal_codim(MonoidSpec.x(1, 3, 2), 6) == 4

    def test_equal_specs(self):
        assert not distinguish(MonoidSpec.x(1, 1, 1), MonoidSpec.x(1, 1, 1))

    def test_families_differ(self):
        assert distinguish(MonoidSpec.x(1, 1, 1), MonoidSpec.y(1, 1, 1))

    def test_weights_differ(self):
        assert distinguish(MonoidSpec.x(1, 1, 1), MonoidSpec.x(2, 1, 1))

    def test_all_pairs_in_a_box(self):
        specs = list(small_xy_specs(2, 3))
        for s1 in specs:
            for s2 in specs:
                assert distinguish(s1, s2) == (s1 != s2)

    def test_group_rejected(self):
        with pytest.raises(ValueError):
            distinguish(MonoidSpec.group(1), MonoidSpec.x(1, 1, 1))


class TestOpposite:
    def test_swap(self):
        assert opposite(MonoidSpec.x(3, 2, 1)) == MonoidSpec.y(3, 2, 1)
        assert opposite(MonoidSpec.y(3, 2, 1)) == MonoidSpec.x(3, 2, 1)
        assert opposite(MonoidSpec.group(4)) == MonoidSpec.group(4)

    def test_involution(self):
        for s in small_xy_specs(2, 3):
            assert opposite(opposite(s)) == s

    def test_witness_exchanges_cones(self):
        for s in small_xy_specs(3, 3):
            w = opposite_witness(s)
            assert w.image_cone(cone_of_spec(s)) == cone_of_spec(opposite(s))
            assert w.inverse() == w  # involution

    def test_witness_intertwines_up_to_flip(self):
        for n, a, b in [(1, 1, 0), (1, 1, 1), (2, 2, 1), (3, 1, 2)]:
            sx = MonoidSpec.x(n, a, b)
            sy = MonoidSpec.y(n, a, b)
            w = opposite_witness(sx)
            for u in box_lattice_points(cone_of_spec(sx), 4):
                lhs = comult_monomial(sx, u).flip()
                rhs = comult_monomial(sy, w.apply_xy(u)).map_exponents(w.apply_xy)
                assert lhs == rhs, (n, a, b, u)

    def test_group_has_no_witness(self):
        with pytest.raises(ValueError):
            opposite_witness(MonoidSpec.group(1))


class TestQuotient:
    def test_examples(self):
        assert quotient_by_center(MonoidSpec.x(2, 1, 2), 2) == MonoidSpec.x(1, 1, 1)
        assert quotient_by_center(MonoidSpec.x(6, 1, 2), 3) == MonoidSpec.x(2, 3, 2)
        assert quotient_by_center(MonoidSpec.x(4, 2, 3), 1) == MonoidSpec.x(4, 2, 3)

    def test_cover_identity(self):
        # the quotient of X(a*n, 1, b) by the order-a central subgroup is X(n, a, b)
        for n in (1, 2, 3):
            for a in (1, 2, 3, 4):
                for b in range(0, 5):
                    if gcd(a, b) != 1:
                        continue
                    assert quotient_by_center(MonoidSpec.x(a * n, 1, b), a) == MonoidSpec.x(n, a, b)

    def test_y_through_opposite(self):
        assert quotient_by_center(MonoidSpec.y(2, 1, 2), 2) == MonoidSpec.y(1, 1, 1)

    def test_group(self):
        assert quotient_by_center(MonoidSpec.group(6), 3) == MonoidSpec.group(2)

    def test_lattice_map_transports_cones(self):
        # the vertical stretch (a', b') -> (a', m b') carries the quotient cone onto the original
        from toricmonoids import LatticeMap

        for s in small_xy_specs(6, 4):
            if s.family is not Family.X:
                continue
            for m in range(1, s.n + 1):
                if s.n % m != 0:
                    continue
                q = quotient_by_center(s, m)
                stretch = LatticeMap(1, 0, 0, m)
                assert stretch.image_cone(cone_of_spec(q)) == cone_of_spec(s)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            quotient_by_center(MonoidSpec.x(4, 1, 1), 3)
        with pytest.raises(ValueError):
            quotient_by_center(MonoidSpec.x(4, 1, 1), 0)


class TestBoundary:
    def test_examples(self):
        info = boundary(MonoidSpec.x(1, 1, 1))
        assert (info.left_weight, info.right_weight) == (2, 1)
        assert info.has_zero and not info.idempotent_line

        info = boundary(MonoidSpec.x(2, 3, 2))
        assert (info.left_weight, info.right_weight) == (8, 2)
        assert info.has_zero

        info = boundary(MonoidSpec.x(3, 1, 0))
        assert info.idempotent_line and not info.has_zero

    def test_y_swaps_sides(self):
        ix = boundary(MonoidSpec.x(2, 1, 3))
        iy = boundary(MonoidSpec.y(2, 1, 3))
        assert (iy.left_weight, iy.right_weight) == (ix.right_weight, ix.left_weight)

    def test_group_rejected(self):
        with pytest.raises(ValueError):
            boundary(MonoidSpec.group(2))

    def test_json(self):
        data = boundary(MonoidSpec.x(1, 1, 1)).to_json()
        assert data == {
            "left_weight": 2,
            "right_weight": 1,
            "has_zero": True,
            "idempotent_line": False,
        }


class TestMultiplyPoints:
    def test_unit(self):
        rng = random.Random(3)
        for s in [MonoidSpec.x(2, 1, 3), MonoidSpec.y(1, 1, 2), MonoidSpec.x(2, 2, 3)]:
            e = chart_unit(s)
            for _ in range(5):
                if s.a == 1:
                    p = (rand_fraction(rng), rand_fraction(rng))
                else:
                    u, v = rand_fraction(rng), rand_fraction(rng)
                    p = (u * u, u * v, v * v)
                assert multiply_points(s, e, p) == p
                assert multiply_points(s, p, e) == p

    def test_plane_example(self):
        assert multiply_points(MonoidSpec.x(1, 1, 1), (1, 2), (3, 4)) == (16, 8)

    def test_idempotent_line(self):
        for n in (1, 2, 3):
            s = MonoidSpec.x(n, 1, 0)
            assert multiply_points(s, (5, 0), (7, 0)) == (5, 0)

    def test_boundary_zero(self):
        s = MonoidSpec.x(2, 1, 3)
        assert multiply_points(s, (5, 0), (7, 0)) == chart_zero(s)

    def test_associative_on_random_points(self):
        rng = random.Random(11)
        specs = [MonoidSpec.x(1, 1, 1), MonoidSpec.y(2, 1, 1), MonoidSpec.x(1, 2, 1), MonoidSpec.x(2, 2, 3)]
        for s in specs:
            for _ in range(100):
                pts = []
                for _ in range(3):
                    if s.a == 1:
                        pts.append((rand_fraction(rng), rand_fraction(rng)))
                    else:
                        u, v = rand_fraction(rng), rand_fraction(rng)
                        pts.append((u * u, u * v, v * v))
                p, q, r = pts
                assert multiply_points(s, multiply_points(s, p, q), r) == multiply_points(
                    s, p, multiply_points(s, q, r)
                )

    def test_quadric_relation_enforced(self):
        s = MonoidSpec.x(1, 2, 1)
        good = (Fraction(4), Fraction(2), Fraction(1))
        with pytest.raises(ValueError):
            multiply_points(s, (1, 1, 2), good)
        out = multiply_points(s, good, good)
        assert out[0] * out[2] == out[1] ** 2

    def test_quadric_covered_by_plane_chart(self):
        # (X, Y) -> (Y^2, X*Y, X^2) is a surjection of monoids from the plane chart
        rng = random.Random(5)
        for n in (1, 2):
            for k in (0, 1):
                quadric = MonoidSpec.x(n, 2, 2 * k + 1)
                cover = MonoidSpec.x(2 * n, 1, 2 * k + 1)

                def down(pt):
                    return (pt[1] ** 2, pt[0] * pt[1], pt[0] ** 2)

                for _ in range(25):
                    p = (rand_fraction(rng), rand_fraction(rng))
                    q = (rand_fraction(rng), rand_fraction(rng))
                    assert down(multiply_points(cover, p, q)) == multiply_points(
                        quadric, down(p), down(q)
                    )

    def test_unsupported_chart(self):
        with pytest.raises(UnsupportedChartError):
            multiply_points(MonoidSpec.x(1, 3, 1), (1, 1), (1, 1))
        with pytest.raises(UnsupportedChartError):
            multiply_points(MonoidSpec.y(1, 2, 1), (1, 1, 1), (1, 1, 1))


class TestChartValues:
    def test_out_of_cone_rejected(self):
        with pytest.raises(ValueError):
            chart_monomial_value(MonoidSpec.x(1, 1, 2), (1, 1), (Fraction(1), Fraction(1)))

    def test_plane_chart_value(self):
        s = MonoidSpec.x(2, 1, 1)
        # chi^(1,1) is the first chart coordinate, chi^(0,1) the second
        assert chart_monomial_value(s, (1, 1), (Fraction(5), Fraction(7))) == 5
        assert chart_monomial_value(s, (0, 1), (Fraction(5), Fraction(7))) == 7
        assert chart_monomial_value(s, (2, 3), (Fraction(5), Fraction(7))) == 25 * 7

    def test_point_symbol_agreement(self):
        rng = random.Random(23)
        for s in [MonoidSpec.x(1, 1, 1), MonoidSpec.x(3, 1, 2), MonoidSpec.y(2, 1, 1), MonoidSpec.y(1, 1, 0)]:
            basis = hilbert_basis(cone_of_spec(s))
            for _ in range(15):
                p = (rand_fraction(rng), rand_fraction(rng))
                q = (rand_fraction(rng), rand_fraction(rng))
                product = multiply_points(s, p, q)
                for g in basis:
                    via_comult = tensor_chart_value(s, comult_monomial(s, g), p, q)
                    assert via_comult == chart_monomial_value(s, g, product), (s, g.xy)

    def test_quadric_point_symbol_agreement(self):
        rng = random.Random(29)
        s = MonoidSpec.x(1, 2, 1)
        basis = hilbert_basis(cone_of_spec(s))
        assert [g.xy for g in basis] == [(0, 1), (1, 1), (2, 1)]
        for _ in range(15):
            u1, v1 = rand_fraction(rng), rand_fraction(rng)
            u2, v2 = rand_fraction(rng), rand_fraction(rng)
            p = (u1 * u1, u1 * v1, v1 * v1)
            q = (u2 * u2, u2 * v2, v2 * v2)
            product = multiply_points(s, p, q)
            for g in basis:
                via_comult = tensor_chart_value(s, comult_monomial(s, g), p, q)
                assert via_comult == chart_monomial_value(s, g, product)


class TestTorusWeights:
    def test_x_family_boundary_weights(self):
        rng = random.Random(41)
        for n in (1, 2, 3):
            for b in (1, 2, 3):
                s = MonoidSpec.x(n, 1, b)
                info = boundary(s)
                for _ in range(10):
                    tau = rand_nonzero_fraction(rng)
                    x = rand_fraction(rng)
                    torus = (Fraction(0), tau)
                    left = multiply_points(s, torus, (x, Fraction(0)))
                    right = multiply_points(s, (x, Fraction(0)), torus)
                    assert left == (tau**info.left_weight * x, 0)
                    assert right == (tau**info.right_weight * x, 0)

    def test_y_family_boundary_weights(self):
        rng = random.Random(43)
        for n, b in [(1, 1), (2, 3)]:
            s = MonoidSpec.y(n, 1, b)
            info = boundary(s)
            for _ in range(10):
                tau = rand_nonzero_fraction(rng)
                x = rand_fraction(rng)
                torus = (Fraction(0), tau)
                assert multiply_points(s, torus, (x, Fraction(0))) == (tau**info.left_weight * x, 0)
                assert multiply_points(s, (x, Fraction(0)), torus) == (tau**info.right_weight * x, 0)


class TestCounit:
    def test_values(self):
        assert counit((0, 5)) == 1
        assert counit((0, -2)) == 1
        assert counit((3, 1)) == 0

    def test_counit_is_evaluation_at_the_unit(self):
        for u in [(0, 0), (0, 3), (1, 0), (2, 5), (3, 1)]:
            assert counit(u) == LaurentElement.monomial(u).evaluate((0, 1))

    def test_counit_axiom_through_comult(self):
        for s in [MonoidSpec.x(2, 3, 2), MonoidSpec.y(1, 1, 1), MonoidSpec.group(2)]:
            region = cone_of_spec(s)
            for u in box_lattice_points(region, 4):
                t = comult_monomial(s, u)
                left = LaurentElement(
                    [(r, c * counit(l)) for (l, r), c in t.terms()]
                )
                right = LaurentElement(
                    [(l, c * counit(r)) for (l, r), c in t.terms()]
                )
                assert left == LaurentElement.monomial(u)
                assert right == LaurentElement.monomial(u)


class TestVerify:
    def test_passing_specs(self):
        assert verify_bialgebra(MonoidSpec.x(1, 1, 0), 5).passed
        assert verify_bialgebra(MonoidSpec.x(2, 3, 2), 4).passed
        assert verify_bialgebra(MonoidSpec.y(2, 1, 1), 4).passed
        assert verify_bialgebra(MonoidSpec.group(3), 3).passed

    def test_corrupted_rule_fails_with_witness(self):
        cone = cone_of_spec(MonoidSpec.y(2, 1, 1))
        report = verify_comultiplication(cone, ComultRule(5), 4)
        assert not report.passed
        failure = report.first_failure()
        assert failure.name == "cone-closure"
        assert failure.witness is not None
        assert "monomial" in failure.witness and "escaped" in failure.witness

    def test_report_json_shape(self):
        report = verify_bialgebra(MonoidSpec.x(1, 1, 1), 2)
        data = report.to_json()
        assert set(data) == {"checks"}
        names = [c["name"] for c in data["checks"]]
        assert names == [
            "cone-closure",
            "counit-left",
            "counit-right",
            "coassociativity",
            "multiplicativity",
        ]
        assert all(c["status"] == "pass" and c["witness"] is None for c in data["checks"])

    def test_box_validated(self):
        with pytest.raises(ValueError):
            verify_bialgebra(MonoidSpec.x(1, 1, 1), 0)

    @pytest.mark.parametrize(
        "region", [HalfPlane(N), Cone2.from_rays((1, 0), (0, 1), N)], ids=["half-plane", "quadrant"]
    )
    def test_region_in_n_refused(self, region):
        with pytest.raises(ValueError, match="region of M"):
            verify_comultiplication(region, ComultRule(1), 2)


@pytest.mark.parametrize("size", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize(
    "scan",
    [
        lambda size: verify_bialgebra(MonoidSpec.x(1, 1, 0), size),
        lambda size: verify_comultiplication(HalfPlane(), ComultRule(1), size),
        lambda size: roots_up_to(Cone2.from_rays((1, 0), (0, 1), N), 0, size),
        lambda size: box_lattice_points(HalfPlane(), size),
    ],
    ids=["verify_bialgebra", "verify_comultiplication", "roots_up_to", "box_lattice_points"],
)
def test_loop_size_is_an_exact_int(scan, size):
    # True is not 1, and a float is refused before any scan, not by range().
    with pytest.raises(ValueError, match="exact integer required"):
        scan(size)


class TestVerifyExpandsOnce:
    """One ``comult`` call per distinct exponent, and the same report as re-expanding."""

    @pytest.mark.parametrize(
        "spec, rule, box",
        [
            (MonoidSpec.group(3), ComultRule(3), 3),
            (MonoidSpec.x(2, 3, 2), ComultRule(2), 4),
            (MonoidSpec.y(2, 1, 1), ComultRule(2), 4),
            (MonoidSpec.y(2, 1, 1), ComultRule(5), 4),
        ],
        ids=["group", "x", "y", "corrupted-rule"],
    )
    def test_matches_reexpansion(self, spec, rule, box):
        region = cone_of_spec(spec)
        assert (
            verify_comultiplication(region, rule, box).to_json()
            == verify_by_reexpansion(region, rule, box).to_json()
        )

    def test_wrong_coefficient_gives_pair_witness(self, monkeypatch):
        exact = monoids.comult

        def skewed(rule, u):
            t = exact(rule, u)
            a, b = u
            return t if a < 2 else t + TensorElement.monomial((a - 1, b + rule.n), (1, b))

        monkeypatch.setattr(monoids, "comult", skewed)
        region = cone_of_spec(MonoidSpec.x(1, 1, 0))
        report = verify_comultiplication(region, ComultRule(1), 3)
        assert report.to_json() == verify_by_reexpansion(region, ComultRule(1), 3).to_json()
        multiplicativity = report.checks[-1]
        assert multiplicativity.name == "multiplicativity" and not multiplicativity.passed
        assert set(multiplicativity.witness) == {"pair"}

    def test_one_comult_call_per_distinct_exponent(self, monkeypatch):
        exact = monoids.comult
        calls = Counter()

        def counting(rule, u):
            calls[u] += 1
            return exact(rule, u)

        monkeypatch.setattr(monoids, "comult", counting)
        region, rule = cone_of_spec(MonoidSpec.x(2, 3, 2)), ComultRule(2)
        verify_by_reexpansion(region, rule, 4)
        needed = set(calls)
        assert sum(calls.values()) > len(needed)
        calls.clear()
        verify_comultiplication(region, rule, 4)
        assert calls == Counter(dict.fromkeys(needed, 1))


def _key_components(t: TensorElement) -> list[int]:
    return [c for (left, right) in t.support() for c in (*left, *right)]


class TestPackedMultiplicativity:
    """Multiplicativity by Kronecker substitution gives the report of ``TensorElement`` products."""

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(list(Family)),
        n=st.integers(1, 6),
        a=st.integers(1, 6),
        b=st.integers(0, 6),
        weight=st.integers(1, 6),
        box=st.integers(1, 6),
    )
    def test_matches_reexpansion(self, family, n, a, b, weight, box):
        if family is Family.GROUP:
            spec = MonoidSpec.group(n)
        else:
            assume(gcd(a, b) == 1)
            spec = MonoidSpec(family, n, a, b)
        region, rule = cone_of_spec(spec), ComultRule(weight)
        assert (
            verify_comultiplication(region, rule, box).to_json()
            == verify_by_reexpansion(region, rule, box).to_json()
        )

    @staticmethod
    def _check_against_oracle(monkeypatch, corrupt, spec, box):
        monkeypatch.setattr(monoids, "comult", corrupt)
        region, rule = cone_of_spec(spec), ComultRule(spec.n)
        report = verify_comultiplication(region, rule, box)
        assert report.to_json() == verify_by_reexpansion(region, rule, box).to_json()
        multiplicativity = report.checks[-1]
        assert multiplicativity.name == "multiplicativity" and not multiplicativity.passed
        assert set(multiplicativity.witness) == {"pair"}
        return multiplicativity.witness["pair"]

    def test_zero_coefficient_term(self, monkeypatch):
        # Only the sums drop zeros: a stored zero term makes comult(u0) differ
        # from the product comult(0, 0) * comult(u0), the first pair summing to u0.
        exact, u0 = monoids.comult, (1, 1)

        def corrupt(rule, u):
            t = exact(rule, u)
            return TensorElement._of({**t._terms, ((0, 0), (0, 0)): 0}) if u == u0 else t

        witness = self._check_against_oracle(monkeypatch, corrupt, MonoidSpec.x(1, 1, 0), 3)
        assert witness == [[0, 0], list(u0)]

    def test_fraction_coefficient(self, monkeypatch):
        exact, u0 = monoids.comult, (1, 1)

        def corrupt(rule, u):
            t = exact(rule, u)
            if u != u0:
                return t
            (key, c), *rest = t.terms()
            return TensorElement._of({key: Fraction(c, 2), **dict(rest)})

        self._check_against_oracle(monkeypatch, corrupt, MonoidSpec.x(1, 1, 0), 3)

    @pytest.mark.parametrize("spread", [4, 2], ids=["beyond-2m", "inside-2m"])
    def test_key_that_aliases_under_a_smaller_base(self, monkeypatch, spread):
        # Moves one term of comult(w) by (0, 0, 1, -(spread*m + 1)), which packs
        # to 0 in base spread*m + 1.  With spread 4 the moved key leaves
        # [-2m, 2m]; with spread 2 it stays inside and aliases only in the
        # too-small base 2m + 1.
        spec, box = MonoidSpec.x(2, 3, 2), 3
        exact, rule = monoids.comult, ComultRule(spec.n)
        points = box_lattice_points(cone_of_spec(spec), box)
        m = max(abs(c) for u in points for c in _key_components(exact(rule, u)))
        shift = spread * m + 1
        last = points[-1]
        w = (2 * last[0], 2 * last[1])
        (left, (r0, r1)), c = exact(rule, w).terms()[0]
        moved = (left, (r0 + 1, r1 - shift))
        assert (max(abs(x) for x in (*moved[0], *moved[1])) > 2 * m) == (spread == 4)

        def corrupt(rule, u):
            t = exact(rule, u)
            if u != w:
                return t
            terms = dict(t.terms())
            del terms[(left, (r0, r1))]
            return TensorElement({**terms, moved: c})

        witness = self._check_against_oracle(monkeypatch, corrupt, spec, box)
        assert witness == [list(last), list(last)]


@pytest.fixture
def products(monkeypatch):
    """Counts ``TensorElement.__mul__`` calls: the product route of multiplicativity."""
    calls = []
    mul = TensorElement.__mul__

    def spy(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(TensorElement, "__mul__", spy)
    return calls


# Ids of the real-spec rows below: ``plus`` is the y chart, the one ``ComultRule`` reads.
REAL_SPEC_IDS = ["group-plus", "x-plus", "y-plus", "x-one-term-box-plus"]


def _verify_and_count(products, region, rule, box):
    """The report, checked against the oracle, and the products verifying took."""
    products.clear()
    report = verify_comultiplication(region, rule, box)
    taken = len(products)
    assert report.to_json() == verify_by_reexpansion(region, rule, box).to_json()
    return report, taken


def _drop_middle(terms, keys, bits):
    del terms[keys[len(keys) // 2]]


def _add_off_the_run(terms, keys, bits):
    terms[((7, 0), (0, 0))] = 1


def _fold_top_digit(terms, keys, bits):
    # The top coefficient moves one digit down, times 2**bits: the Kronecker
    # code is unchanged, and only the digit bound tells target from product.
    terms[keys[-2]] += terms.pop(keys[-1]) << bits


def _zero_past_the_top(terms, keys, bits):
    # A stored zero one step past the top term leaves the code unchanged too.
    (a0, a1), (a2, a3) = keys[-2]
    (b0, b1), (b2, b3) = keys[-1]
    terms[((2 * b0 - a0, 2 * b1 - a1), (2 * b2 - a2, 2 * b3 - a3))] = 0


def _shift_run(terms, keys, bits):
    # The same digits one step up in the right y-exponent: only the first key differs.
    for left, (r0, r1) in keys:
        terms[(left, (r0, r1 + 1))] = terms.pop((left, (r0, r1)))


class TestKroneckerMultiplicativity:
    """Corrupted targets are decided by Kronecker codes, corrupted box
    expansions by ``TensorElement`` products; both as the oracle decides."""

    @staticmethod
    def _corrupt_target(monkeypatch, w, change):
        exact = monoids.comult

        def corrupt(rule, u):
            t = exact(rule, u)
            if u != w:
                return t
            terms = dict(t.terms())
            change(terms, sorted(terms))
            return TensorElement._of(terms)

        monkeypatch.setattr(monoids, "comult", corrupt)

    @pytest.mark.parametrize(
        "change",
        [_drop_middle, _add_off_the_run, _fold_top_digit, _zero_past_the_top, _shift_run],
        ids=[
            "missing-middle-term",
            "extra-term-off-the-run",
            "coefficient-above-limit",
            "stored-zero",
            "shifted-run",
        ],
    )
    def test_corrupted_target_fails_without_products(self, monkeypatch, products, change):
        # (6, 6) is reached only as (3, 3) + (3, 3), the last pair of box 3.
        spec, box = MonoidSpec.x(1, 1, 0), 3
        rule = ComultRule(spec.n)
        points = box_lattice_points(cone_of_spec(spec), box)
        s_max = max(sum(c for _, c in comult(rule, u).terms()) for u in points)
        bits = (s_max * s_max).bit_length()
        self._corrupt_target(monkeypatch, (6, 6), lambda terms, keys: change(terms, keys, bits))
        report, taken = _verify_and_count(products, cone_of_spec(spec), rule, box)
        assert taken == 0
        assert report.first_failure() is report.checks[-1]
        assert report.checks[-1].witness == {"pair": [[3, 3], [3, 3]]}

    @pytest.mark.parametrize("stored", [Fraction(2, 1), True], ids=["fraction", "bool"])
    def test_integral_target_coefficient_passes_without_products(
        self, monkeypatch, products, stored
    ):
        def change(terms, keys):
            terms[next(k for k in keys if terms[k] == stored)] = stored

        # comult(2, 6) = y^8 (x) x^2 y^6 + 2 x y^7 (x) x y^6 + x^2 y^6 (x) y^6,
        # reached only as a sum of two box monomials.
        self._corrupt_target(monkeypatch, (2, 6), change)
        spec = MonoidSpec.x(1, 1, 0)
        report, taken = _verify_and_count(products, cone_of_spec(spec), ComultRule(spec.n), 3)
        assert report.passed and taken == 0

    def test_two_term_target_over_one_term_box_fails(self, monkeypatch, products):
        # Box 1 of X(1, 1, 3) holds (0, 0) and (0, 1), whose expansions have
        # one term each: there is no step, and every product has one term.
        def change(terms, keys):
            terms[((1, 2), (0, 0))] = 1

        self._corrupt_target(monkeypatch, (0, 2), change)
        spec = MonoidSpec.x(1, 1, 3)
        report, taken = _verify_and_count(products, cone_of_spec(spec), ComultRule(spec.n), 1)
        assert taken == 0
        assert report.first_failure().witness == {"pair": [[0, 1], [0, 1]]}

    @pytest.mark.parametrize("coef", [-1, Fraction(1, 2)], ids=["negative", "fraction"])
    def test_corrupted_box_expansion_takes_products(self, monkeypatch, products, coef):
        exact, u0 = monoids.comult, (1, 1)

        def corrupt(rule, u):
            t = exact(rule, u)
            if u != u0:
                return t
            (key, _), *rest = t.terms()
            return TensorElement._of({key: coef, **dict(rest)})

        monkeypatch.setattr(monoids, "comult", corrupt)
        spec = MonoidSpec.x(1, 1, 0)
        report, taken = _verify_and_count(products, cone_of_spec(spec), ComultRule(spec.n), 3)
        assert taken > 0 and not report.checks[-1].passed

    @pytest.mark.parametrize(
        "spec, box",
        [
            (MonoidSpec.group(2), 4),
            (MonoidSpec.x(2, 3, 2), 4),
            (MonoidSpec.y(2, 1, 1), 4),
            (MonoidSpec.x(1, 1, 3), 1),
        ],
        ids=REAL_SPEC_IDS,
    )
    def test_real_spec_takes_no_products(self, products, spec, box):
        rule = ComultRule(spec.n)
        _, taken = _verify_and_count(products, cone_of_spec(spec), rule, box)
        assert taken == 0


def _head_not_least(terms, keys, bits):
    # The least key moves to the end of the dict: the walk from the first key fails.
    terms[keys[0]] = terms.pop(keys[0])


def _zero_middle(terms, keys, bits):
    terms[keys[len(keys) // 2]] = 0


def _move_middle_right_y(terms, keys, bits):
    # One term off the run in the last key component only.
    left, (r0, r1) = keys[len(keys) // 2]
    terms[(left, (r0, r1 + 1))] = terms.pop((left, (r0, r1)))


def _top_bit(terms, keys, bits):
    terms[keys[0]] = 1 << bits


def _fraction_middle(terms, keys, bits):
    terms[keys[len(keys) // 2]] = Fraction(terms[keys[len(keys) // 2]])


def _true_first(terms, keys, bits):
    assert terms[keys[0]] == 1
    terms[keys[0]] = True


class TestOnePassCode:
    """``_code`` and ``_box_codes`` walk each expansion once; the lookup route
    of ``oracles.code_by_lookup``, which they replaced, gives the same codes
    and the same ``None``."""

    @pytest.mark.parametrize(
        "spec, box",
        [(MonoidSpec.group(2), 3), (MonoidSpec.x(2, 3, 2), 4), (MonoidSpec.y(1, 2, 1), 4),
         (MonoidSpec.x(1, 1, 3), 1)],
        ids=REAL_SPEC_IDS,
    )
    def test_real_expansions_and_targets(self, spec, box):
        rule = ComultRule(spec.n)
        points = box_lattice_points(cone_of_spec(spec), box)
        expansions = {u: comult(rule, u) for u in points}
        codes = monoids._box_codes(expansions)
        assert codes is not None and codes == box_codes_by_lookup(expansions)
        step, bits, _ = codes
        for u in points:
            for v in points:
                t = comult(rule, (u[0] + v[0], u[1] + v[1]))
                assert monoids._code(t._terms, step, bits) == code_by_lookup(t, step, bits)
                assert code_by_lookup(t, step, bits) is not None

    @pytest.mark.parametrize(
        "change, is_run",
        [
            (_head_not_least, True),
            (_drop_middle, False),
            (_add_off_the_run, False),
            (_move_middle_right_y, False),
            (_zero_middle, False),
            (_zero_past_the_top, False),
            (_top_bit, False),
            (_fold_top_digit, False),
            (_fraction_middle, True),
            (_true_first, True),
            (_shift_run, True),
        ],
        ids=["head-not-least", "missing-term", "extra-term", "moved-term", "zero", "zero-past-the-top",
             "digit-2**bits", "folded-top-digit", "fraction-2/1", "true", "shifted-run"],
    )
    def test_corrupted_expansions(self, change, is_run):
        spec, box = MonoidSpec.x(1, 1, 0), 3
        rule = ComultRule(spec.n)
        expansions = {u: comult(rule, u) for u in box_lattice_points(cone_of_spec(spec), box)}
        step, bits, _ = monoids._box_codes(expansions)
        for w in ((6, 6), (3, 3)):
            terms = dict(comult(rule, w)._terms)
            change(terms, sorted(terms), bits)
            corrupt = TensorElement._of(terms)
            code = monoids._code(terms, step, bits)
            assert code == code_by_lookup(corrupt, step, bits)
            assert (code is not None) == is_run
            # The same expansion in the box: no digit bound there, bits follow the sums.
            boxed = {**expansions, w: corrupt} if w in expansions else expansions
            assert monoids._box_codes(boxed) == box_codes_by_lookup(boxed)


class TestOneDictCoassociativity:
    """Coassociativity sums both sides into one signed dict; the oracle merges
    each side and compares, with the same verdict and witness."""

    @pytest.mark.parametrize(
        "extra, passes",
        [
            # Both sides gain only zero terms, at different keys: they cancel.
            ({((0, 2), (0, 0)): 0}, True),
            ({((0, 2), (0, 0)): 1, ((0, 0), (0, 2)): -1}, False),
        ],
        ids=["zero-terms-cancel", "opposite-terms"],
    )
    def test_corrupted_leg_expansion(self, monkeypatch, extra, passes):
        exact, w = monoids.comult, (0, 1)

        def corrupt(rule, u):
            t = exact(rule, u)
            return TensorElement._of({**t._terms, **extra}) if u == w else t

        monkeypatch.setattr(monoids, "comult", corrupt)
        spec, box = MonoidSpec.x(1, 1, 0), 3
        region, rule = cone_of_spec(spec), ComultRule(spec.n)
        report = verify_comultiplication(region, rule, box)
        assert report.to_json() == verify_by_reexpansion(region, rule, box).to_json()
        coassociativity = report.checks[3]
        assert coassociativity.name == "coassociativity"
        assert coassociativity.passed is passes
        if not passes:
            assert coassociativity.witness == {"monomial": list(w)}


class TestNoncommutativityWitness:
    def test_flip_variance_iff_roots_differ(self):
        sigma = Cone2.from_rays((1, 0), (0, 1), N)
        i = sigma.ray_index((1, 0))
        from toricmonoids import roots_up_to

        roots = roots_up_to(sigma, i, 2)
        monomials = box_lattice_points(sigma.dual(), 4)
        for r1 in roots:
            for r2 in roots:
                pair = RootPair(r1, r2)
                variant = any(
                    comult_from_root_pair(sigma, pair, u).flip()
                    != comult_from_root_pair(sigma, pair, u)
                    for u in monomials
                )
                assert variant == (r1 != r2)
