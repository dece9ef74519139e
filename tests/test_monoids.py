import json
import math
import random
import re
import tracemalloc
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
    RootPair,
    TensorElement,
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

from toricmonoids.algebra import _SMALL_DEGREES, _SMALL_ROWS, _binomials, _stepped_binomials
from toricmonoids.lattice import int_xy
from toricmonoids.monoids import _expand, _image_ideal_codims, _progression

from oracles import (
    comult_by_comb,
    comult_from_root_pair_by_comb,
    image_ideal_codim_search,
    multiply_points_by_formula,
    on_surface_by_pair_relations,
    rand_fraction,
    rand_nonzero_fraction,
    restriction_scan,
    verify_by_reexpansion,
)


def chart_of(spec):
    """The chart monomials in coordinate order: the Hilbert basis, a two-element one reversed."""
    basis = [g.xy for g in hilbert_basis(cone_of_spec(spec))]
    return basis[::-1] if len(basis) == 2 else basis


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

    def test_group_str(self):
        assert str(MonoidSpec.group(3)) == "Group(3)"

    def test_group_json_with_a_or_b_refused(self):
        for extra in ({"a": "x"}, {"a": 1, "b": 0}, {"b": 0}):
            with pytest.raises(ValueError, match="no \\(a, b\\)"):
                MonoidSpec.from_json({"family": "Group", "n": 2, **extra})
        null = {"family": "Group", "n": 2, "a": None, "b": None}
        assert MonoidSpec.from_json(null) == MonoidSpec.group(2)


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

    def test_half_plane_json(self):
        assert HalfPlane().to_json() == {"halfplane": True, "ambient": "M"}

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
            HalfPlane(N).contains(LatticePoint(1, 0, M))
        assert HalfPlane().contains(LatticePoint(1, 0, M))
        assert HalfPlane().contains((Fraction(1, 2), -3))
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
                assert "".join(comult_monomial(spec, u).json_chunks()) == "".join(
                    comult_from_root_pair(sigma, pair, u).json_chunks()
                )
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


class _TuplePair(tuple):
    """A ``tuple`` subclass: ``comult`` reads it through ``int_xy``, not inline."""


class TestExpansionOracles:
    """The recurrence-built expansions against the per-term ``math.comb`` routes."""

    def test_binomial_rows(self):
        for d in range(301):
            assert _binomials(d) == [comb(d, i) for i in range(d + 1)]

    def test_binomial_rows_from_the_table_are_new_lists(self):
        # Rows of small degree are copied from a table; changing one changes no later row.
        for d in (0, 1, 32, 33):
            row = _binomials(d)
            row[0] = 0
            assert _binomials(d)[0] == 1

    @given(
        st.integers(0, 60),
        st.integers(-50, 50),
        st.integers(1, 6),
    )
    def test_comult(self, a, b, n):
        rule = ComultRule(n)
        assert canonical(comult(rule, (a, b))) == canonical(comult_by_comb(rule, (a, b)))

    @pytest.mark.parametrize(
        "n, points",
        [
            *((n, [(a, b) for a in range(61) for b in range(-50, 51)]) for n in range(1, 7)),
            (10**30, [(2000, -7), (2000, 0), (2000, 10**30)]),
        ],
        ids=[*map(str, range(1, 7)), "n-1e30-a-2000"],
    )
    def test_comult_fills_the_keys_of_the_progression(self, n, points):
        # comult writes out the progression of d = a, e1 = (-1, 0), e2 = (-1, n), which
        # _expand builds on the route of comult_monomial and comult_from_root_pair.
        # json_chunks reads its step from the first two keys, so the printed text is also
        # checked against math.comb through to_json, at every fifth b of the grid.
        rule = ComultRule(n)
        for a, b in points:
            got = comult(rule, (a, b))
            want = _expand(*_progression(a, b, a, (-1, 0), (-1, n)))
            assert list(got._terms.items()) == list(want._terms.items()), (a, b)
            assert got._degree == want._degree == a
            if b % 5 == 0 or a == 2000:
                expected = json.dumps(comult_by_comb(rule, (a, b)).to_json())
                assert "".join(got.json_chunks()) == expected, (a, b)

    @pytest.mark.parametrize(
        "form",
        [lambda a, b: [a, b], lambda a, b: LatticePoint(a, b, M), lambda a, b: _TuplePair((a, b))],
        ids=["list", "lattice-point", "tuple-subclass"],
    )
    def test_comult_reads_other_forms_as_the_plain_tuple(self, form):
        # Only a plain tuple of two ints is read inline; every other form goes through int_xy.
        for n in (1, 3):
            rule = ComultRule(n)
            for a, b in [(0, 0), (1, -2), (5, 7), (32, 1), (33, -4)]:
                got, want = comult(rule, form(a, b)), comult(rule, (a, b))
                assert list(got._terms.items()) == list(want._terms.items())
                assert got._degree == want._degree == a

    @pytest.mark.parametrize(
        "u",
        [(True, 0), (1.0, 0), ("1", "0"), LatticePoint(1, 0, N)],
        ids=["bool", "float", "str", "point-of-N"],
    )
    def test_comult_refuses_other_forms_as_int_xy_does(self, u):
        with pytest.raises(ValueError) as want:
            int_xy(u, M)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            comult(ComultRule(1), u)

    def test_comult_across_the_shared_rows_edge(self):
        # Degrees below _SMALL_DEGREES iterate a shared row, degree 33 on steps its own.
        assert _SMALL_DEGREES == 33
        for n in (1, 2, 7):
            rule = ComultRule(n)
            for a in range(31, 35):
                for b in (-9, 0, 4):
                    got, want = comult(rule, (a, b)), comult_by_comb(rule, (a, b))
                    assert list(got._terms.items()) == list(want._terms.items()), (a, b)
                    assert got._degree == a

    def test_verify_leaves_the_shared_rows_as_built(self):
        for spec, box in [(MonoidSpec.group(1), 6), (MonoidSpec.x(2, 3, 1), 8)]:
            assert verify_bialgebra(spec, box).passed
        assert _SMALL_ROWS == tuple(tuple(_stepped_binomials(d)) for d in range(_SMALL_DEGREES))

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
        assert "".join(t.json_chunks()) == canonical(t)
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: restriction_failure(cone_of_spec(MonoidSpec.x(1, 1, 0)), 0),
         "n must be a positive integer, got 0"),
        (lambda: restriction_failure(Cone2.from_rays((0, 1), (1, 0), N), 1),
         "the restriction condition applies to exponent cones in M"),
        (lambda: image_ideal_codim(MonoidSpec.x(2, 3, 2), 0), "k must be a positive integer, got 0"),
        (lambda: multiply_points(MonoidSpec.x(1, 1, 1), (1, 2, 3), (1, 2)),
         "X(1,1,1) chart points have 2 coordinates, got 3"),
        (lambda: tensor_chart_value(MonoidSpec.x(1, 1, 2), TensorElement.monomial((1, 2), (1, 1)), (1, 1), (1, 1)),
         "monomial (1, 1) is not in the cone of X(1,1,2)"),
        (lambda: tensor_chart_value(MonoidSpec.x(1, 2, 1), TensorElement.monomial((2, 0), (0, 1)), (4, 2, 1), (1, 1, 1)),
         "monomial (2, 0) is not in the cone of X(1,2,1)"),
    ],
    ids=["restriction-n-0", "restriction-n-cone", "codim-k-0",
         "multiply-triple-on-a-plane-chart", "tensor-value-right-leg-off-the-cone",
         "tensor-value-left-leg-off-the-cone"],
)
def test_refused_with_value_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


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

    def test_list_matches_each_k(self):
        # The list ``invariants`` and ``catalog`` print, against the checked
        # per-k function, an exact ceiling and (k <= 6) the cone search.
        for s in small_xy_specs(3, 7):
            got = _image_ideal_codims(s, range(1, 41))
            assert got == [image_ideal_codim(s, k) for k in range(1, 41)], s
            shift = s.n if s.family is Family.Y else 0
            assert got == [math.ceil(Fraction(k * s.b, s.a)) + shift * k for k in range(1, 41)], s
            assert got[:6] == [image_ideal_codim_search(s, k) for k in range(1, 7)], s

    @pytest.mark.parametrize(
        "spec, k, message",
        [
            (MonoidSpec.x(2, 3, 2), 0, "k must be a positive integer, got 0"),
            (MonoidSpec.y(2, 3, 2), True, "k must be a positive integer, got True"),
            (MonoidSpec.x(2, 3, 2), 2.0, "k must be a positive integer, got 2.0"),
            (MonoidSpec.group(2), 1, "the image-ideal codimension is not defined for the group family"),
            (MonoidSpec.group(2), 0, "the image-ideal codimension is not defined for the group family"),
        ],
        ids=["k-0", "k-true", "k-float", "group", "group-k-0"],
    )
    def test_refusals_kept(self, spec, k, message):
        with pytest.raises(ValueError) as exc:
            image_ideal_codim(spec, k)
        assert type(exc.value) is ValueError and str(exc.value) == message
        if spec.family is Family.GROUP:
            with pytest.raises(ValueError, match=f"^{message}$"):
                _image_ideal_codims(spec, range(1, 3))


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
        # The specs the hand-written charts left out multiply on their Hilbert
        # basis: a torus point (x, y) has the coordinates chi^g(x, y), and the
        # product of (x1, y1) and (x2, y2) is (x1 + y1^n * x2, y1 * y2).
        x131 = MonoidSpec.x(1, 3, 1)  # chart (0, 1), (1, 1), (2, 1), (3, 1)
        assert multiply_points(x131, (1, 2, 4, 8), (1, 1, 1, 1)) == (1, 3, 9, 27)
        y121 = MonoidSpec.y(1, 2, 1)  # chart (0, -1), (1, -2), (2, -3)
        assert multiply_points(y121, (2, 8, 32), (1, 1, 1)) == (2, 10, 50)

    @pytest.mark.parametrize("chart", ["X1", "Y1", "X2"])
    @pytest.mark.parametrize("kind", ["int", "fraction"])
    def test_matches_formula_oracle_in_normal_form(self, chart, kind):
        # n and b span the benchmark's range (n <= 5, b in 60..161) and beyond.
        rng = random.Random(f"{chart}-{kind}")

        def coordinate():
            if kind == "int":
                return rng.randint(-9, 9)
            return rand_fraction(rng, dmax=4)

        for _ in range(40):
            n = rng.randint(1, 6)
            if chart == "X2":
                s = MonoidSpec.x(n, 2, 2 * rng.randint(0, 80) + 1)
                points = []
                for _ in range(2):
                    r, w = coordinate(), coordinate()
                    points.append((r, r * w, r * w * w))
            else:
                b = rng.randint(0, 160)
                s = MonoidSpec.x(n, 1, b) if chart == "X1" else MonoidSpec.y(n, 1, b)
                points = [(coordinate(), coordinate()) for _ in range(2)]
            out = multiply_points(s, *points)
            assert out == multiply_points_by_formula(s, *points), (s, points)
            assert all(type(c) is int or c.denominator > 1 for c in out), out

    def test_integral_product_of_fractions_is_an_int(self):
        s = MonoidSpec.x(1, 1, 1)
        out = multiply_points(s, (Fraction(1, 2), Fraction(1, 2)), (4, 2))
        assert out == (2, 1) and [type(c) for c in out] == [int, int]
        quadric = MonoidSpec.x(1, 2, 1)
        half = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        out = multiply_points(quadric, half, (4, 4, 4))
        assert out == (2, 3, Fraction(9, 2)) and [type(c) for c in out] == [int, int, Fraction]


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

    @pytest.mark.parametrize("kind", ["int", "fraction"])
    def test_tensor_value_is_the_sum_of_leg_values_in_normal_form(self, kind):
        rng = random.Random(f"tensor-value-{kind}")

        def coordinate():
            return rng.randint(-9, 9) if kind == "int" else rand_fraction(rng, dmax=4)

        for s in [MonoidSpec.x(3, 1, 120), MonoidSpec.y(2, 1, 5), MonoidSpec.x(2, 2, 3)]:
            for _ in range(10):
                if s.a == 1:
                    p, q = [(coordinate(), coordinate()) for _ in range(2)]
                else:
                    p, q = [(r, r * w, r * w * w) for r, w in [(coordinate(), coordinate()) for _ in range(2)]]
                for g in hilbert_basis(cone_of_spec(s)):
                    t = comult_monomial(s, g)
                    value = tensor_chart_value(s, t, p, q)
                    by_legs = sum(
                        c * chart_monomial_value(s, left, p) * chart_monomial_value(s, right, q)
                        for (left, right), c in t.terms()
                    )
                    assert value == by_legs, (s, g, p, q)
                    assert type(value) is int or value.denominator > 1, value

    @pytest.mark.parametrize(
        "spec", [MonoidSpec.x(2, 1, 3), MonoidSpec.y(1, 1, 2), MonoidSpec.x(2, 2, 3)], ids=str
    )
    def test_unit_zero_and_counit_in_normal_form(self, spec):
        counits = [counit(g) for g in hilbert_basis(cone_of_spec(spec))]
        values = [*chart_unit(spec), *chart_zero(spec), *counits]
        assert all(type(value) is int or value.denominator > 1 for value in values), values
        assert set(counits) == {0, 1}

    @pytest.mark.parametrize(
        "spec, u, point",
        [(MonoidSpec.x(1, 1, 1), (1, 2), ("1/2", 2)), (MonoidSpec.x(1, 2, 1), (2, 2), ("1/2", 1, 2))],
        ids=str,
    )
    def test_integral_monomial_value_of_fractions_is_an_int(self, spec, u, point):
        value = chart_monomial_value(spec, u, point)
        assert value == 1 and type(value) is int

    def test_quadric_chart_zero(self):
        assert chart_zero(MonoidSpec.x(1, 2, 1)) == (0, 0, 0)

    @pytest.mark.parametrize("u", [(1, 0), (2, 0), (-1, 5)])
    def test_quadric_monomial_outside_the_cone_refused(self, u):
        s = MonoidSpec.x(1, 2, 1)
        with pytest.raises(ValueError, match=r"^monomial \(.*\) is not in the cone of X\(1,2,1\)$"):
            chart_monomial_value(s, u, (4, 2, 1))

    @pytest.mark.parametrize(
        "spec, size, u",
        [(MonoidSpec.x(1, 3, 1), 4, (5, 3)), (MonoidSpec.y(1, 2, 1), 3, (5, -8))],
        ids=["X(1,3,1)", "Y(1,2,1)"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda s, size, u, point: (chart_unit(s), (1,) + (0,) * (size - 1)),
            lambda s, size, u, point: (chart_zero(s), (0,) * size),
            lambda s, size, u, point: (chart_monomial_value(s, u, point), 2 ** u[0] * Fraction(1, 2) ** u[1]),
        ],
        ids=["chart_unit", "chart_zero", "chart_monomial_value"],
    )
    def test_unsupported_chart(self, spec, size, u, call):
        # The specs the hand-written charts left out get their Hilbert basis as
        # chart, the axis ray first: a torus point (x, y) has the coordinates
        # chi^g(x, y), and the unit is (x, y) = (0, 1).
        point = tuple(2**gx * Fraction(1, 2) ** gy for gx, gy in chart_of(spec))
        got, expected = call(spec, size, u, point)
        assert got == expected

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: chart_monomial_value(s, (2, 2), (1, 1, 5)),
            lambda s: tensor_chart_value(s, TensorElement.monomial((2, 2), (0, 1)), (1, 1, 5), (1, 1, 1)),
            lambda s: tensor_chart_value(s, TensorElement.monomial((0, 1), (2, 2)), (1, 1, 1), (1, 1, 5)),
            lambda s: multiply_points(s, (1, 1, 1), (1, 1, 5)),
        ],
        ids=["chart_monomial_value", "tensor_chart_value-p", "tensor_chart_value-q", "multiply_points"],
    )
    def test_point_off_the_surface_refused(self, call):
        # (2, 2) is (0, 1) + (2, 1) and 2 * (1, 1): off the surface x*z = y^2,
        # the value would depend on the decomposition (5 or 1).
        with pytest.raises(ValueError, match=r"^\(1, 1, 5\) is not a point of the X\(1,2,1\) surface$"):
            call(MonoidSpec.x(1, 2, 1))


def _surface_points(spec, rng, count):
    """Seeded torus points chi^g(x, y), points of both boundary rays, and the origin."""
    chart = chart_of(spec)
    values = [Fraction(v) for v in (1, -1, 2, -2, 3)] + [Fraction(1, 2), Fraction(-2, 3)]
    points = [(0,) * len(chart)]
    for _ in range(count):
        x, y = rng.choice(values), rng.choice(values)
        points.append(tuple(x**gx * y**gy for gx, gy in chart))
        c = rng.choice(values)
        points.append((c,) + (0,) * (len(chart) - 1))
        points.append((0,) * (len(chart) - 1) + (c,))
    return points


def _accepted(spec, z) -> bool:
    try:
        chart_monomial_value(spec, chart_of(spec)[0], z)
    except ValueError:
        return False
    return True


class TestHilbertBasisChart:
    """Every X and Y spec multiplies on its Hilbert-basis chart, checked against
    the monoid laws and the pair relations on n <= 3, a <= 7 and b <= 11."""

    SPECS = list(small_xy_specs(3, 7)) + [
        s for s in small_xy_specs(3, 11) if s.a <= 7 and s.b > 7
    ]

    def test_grid(self):
        assert len(self.SPECS) == len({str(s) for s in self.SPECS}) > 300
        assert {len(chart_of(s)) for s in self.SPECS} >= {2, 3, 4, 5, 6, 7, 8}

    def test_plane_and_quadric_charts_are_the_hand_written_ones(self):
        for s in self.SPECS:
            if s.a == 1 and s.family is Family.X:
                assert chart_of(s) == [(1, s.b), (0, 1)]
            elif s.a == 1:
                assert chart_of(s) == [(1, -s.b - s.n), (0, -1)]
            elif s.a == 2 and s.family is Family.X:
                assert chart_of(s) == [(0, 1), (1, (s.b + 1) // 2), (2, s.b)]

    def test_two_sided_unit_and_products_on_the_surface(self):
        rng = random.Random("hilbert-unit")
        for s in self.SPECS:
            unit, chart = chart_unit(s), chart_of(s)
            assert on_surface_by_pair_relations(chart, unit)
            for p in _surface_points(s, rng, 2):
                assert multiply_points(s, unit, p) == p == multiply_points(s, p, unit), (s, p)
                assert on_surface_by_pair_relations(chart, multiply_points(s, p, p)), (s, p)

    def test_associative(self):
        rng = random.Random("hilbert-associative")
        for s in self.SPECS:
            points = _surface_points(s, rng, 1)
            for _ in range(3):
                p, q, r = (rng.choice(points) for _ in range(3))
                left = multiply_points(s, multiply_points(s, p, q), r)
                assert left == multiply_points(s, p, multiply_points(s, q, r)), (s, p, q, r)

    def test_origin_absorbs_exactly_when_the_boundary_has_a_zero(self):
        rng = random.Random("hilbert-zero")
        for s in self.SPECS:
            zero = chart_zero(s)
            absorbs = all(
                multiply_points(s, zero, p) == zero == multiply_points(s, p, zero)
                for p in _surface_points(s, rng, 2)
            )
            assert absorbs is boundary(s).has_zero, s

    def test_surface_test_agrees_with_the_pair_relations(self):
        rng = random.Random("hilbert-surface")
        outcomes = Counter()
        for s in self.SPECS:
            chart = chart_of(s)
            for z in _surface_points(s, rng, 2):
                z = list(z)
                i = rng.randrange(len(z))
                z[i] = rng.choice([z[i], z[i] + 1, 0, 2 * z[i], Fraction(1, 3)])
                on_surface = on_surface_by_pair_relations(chart, z)
                assert _accepted(s, z) is on_surface, (s, z)
                outcomes[on_surface] += 1
        assert min(outcomes[True], outcomes[False]) > 300, outcomes


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

    def test_failing_report_json(self):
        cone = cone_of_spec(MonoidSpec.y(2, 1, 1))
        assert verify_comultiplication(cone, ComultRule(5), 4).to_json() == {
            "checks": [
                {"name": "cone-closure", "status": "fail", "witness": {"monomial": [1, -4], "escaped": [0, 1]}},
                {"name": "counit-left", "status": "pass", "witness": None},
                {"name": "counit-right", "status": "pass", "witness": None},
                {"name": "coassociativity", "status": "pass", "witness": None},
                {"name": "multiplicativity", "status": "pass", "witness": None},
            ]
        }

    def test_passing_report_has_no_first_failure(self):
        report = verify_bialgebra(MonoidSpec.x(1, 1, 1), 2)
        assert report.passed and report.first_failure() is None

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

    def test_region_left_of_the_axis_refused_before_any_expansion(self, monkeypatch):
        def refuse(rule, u):
            raise AssertionError(f"{u} expanded")

        monkeypatch.setattr(monoids, "comult", refuse)
        region = Cone2.from_rays((-1, 0), (0, 1), M)
        message = "box monomial (-2, 0) has a negative x-exponent: the region must lie in u_x >= 0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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


def _check_against_oracle(report, region, rule, box):
    """Checks ``report`` against ``verify_by_reexpansion`` and returns the
    oracle's JSON, or ``None`` when the oracle raised ``ValueError`` (its
    coassociativity expands a leg of negative x-exponent).

    The closure checks are the same, and closure fails wherever the oracle
    raised.  The other four checks either pass, and the report is then the
    oracle's, or all fail with one ``{"disagrees": point}`` witness.  So a
    report passes only when the oracle's passes.
    """
    try:
        expected = verify_by_reexpansion(region, rule, box).to_json()
    except ValueError:
        expected = None
    closure, *rest = report.to_json()["checks"]
    if expected is None:
        assert closure["status"] == "fail"
    else:
        assert closure == expected["checks"][0]
    if all(c["status"] == "pass" for c in rest):
        assert report.to_json() == expected
    else:
        point = rest[0]["witness"]["disagrees"]
        assert [c["witness"] for c in rest] == [{"disagrees": point}] * 4
    return expected


class TestVerifyExpandsOnce:
    """One ``comult`` call per distinct exponent on a passing run, one expansion held
    at a time, and the same report as re-expanding."""

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

    def test_wrong_coefficient_gives_the_disagrees_witness(self, monkeypatch):
        exact = monoids.comult

        def skewed(rule, u):
            t = exact(rule, u)
            a, b = u
            return t if a < 2 else t + TensorElement.monomial((a - 1, b + rule.n), (1, b))

        monkeypatch.setattr(monoids, "comult", skewed)
        region, rule = cone_of_spec(MonoidSpec.x(1, 1, 0)), ComultRule(1)
        report = verify_comultiplication(region, rule, 3)
        expected = _check_against_oracle(report, region, rule, 3)
        assert set(expected["checks"][-1]["witness"]) == {"pair"}
        multiplicativity = report.checks[-1]
        assert multiplicativity.name == "multiplicativity"
        # (2, 0) is the least point of P with x-exponent 2, the first that skewed changes.
        assert multiplicativity.witness == {"disagrees": [2, 0]}

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

    @pytest.mark.parametrize(
        "spec, box", [(MonoidSpec.group(1), 16), (MonoidSpec.y(1, 6, 25), 68)], ids=["group", "y"]
    )
    def test_holds_one_expansion_at_a_time(self, spec, box):
        # With every expansion of P held, the peaks were about 8,900 KB (group) and 5,100 KB (y).
        tracemalloc.start()
        try:
            assert verify_bialgebra(spec, box).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, peak

    def test_failing_run_expands_the_box_again_up_to_the_witness(self, monkeypatch):
        region, rule, box = cone_of_spec(MonoidSpec.y(2, 1, 1)), ComultRule(5), 4
        expected = verify_by_reexpansion(region, rule, box).to_json()
        exact = monoids.comult
        calls = Counter()

        def counting(rule, u):
            calls[u] += 1
            return exact(rule, u)

        monkeypatch.setattr(monoids, "comult", counting)
        report = verify_comultiplication(region, rule, box)
        assert report.to_json() == expected
        assert [c.name for c in report.checks if not c.passed] == ["cone-closure"]
        points = box_lattice_points(region, box)
        premise = _run_points(monoids._premise_runs(monoids._runs(points), rule.n))
        witnessed = points[: points.index(tuple(report.checks[0].witness["monomial"])) + 1]
        assert calls == Counter(premise) + Counter(witnessed)


def _key_components(t: TensorElement) -> list[int]:
    return [c for (left, right) in t.support() for c in (*left, *right)]


class TestMultiplicativityAgainstPairLoop:
    """Multiplicativity decided by the closed-form premise gives the report of
    ``TensorElement`` products, and a corrupted expansion that the oracle's
    pair loop rejects fails the premise too."""

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
    def _oracle_pair(monkeypatch, corrupt, spec, box):
        """The oracle's multiplicativity witness, where verify reports ``disagrees``."""
        monkeypatch.setattr(monoids, "comult", corrupt)
        region, rule = cone_of_spec(spec), ComultRule(spec.n)
        report = verify_comultiplication(region, rule, box)
        multiplicativity = _check_against_oracle(report, region, rule, box)["checks"][-1]
        assert not report.checks[-1].passed
        assert multiplicativity["name"] == "multiplicativity" and set(multiplicativity["witness"]) == {"pair"}
        return multiplicativity["witness"]["pair"]

    def test_zero_coefficient_term(self, monkeypatch):
        # Only the sums drop zeros: a stored zero term makes comult(u0) differ
        # from the product comult(0, 0) * comult(u0), the first pair summing to u0.
        exact, u0 = monoids.comult, (1, 1)

        def corrupt(rule, u):
            t = exact(rule, u)
            return TensorElement._of({**t._terms, ((0, 0), (0, 0)): 0}) if u == u0 else t

        witness = self._oracle_pair(monkeypatch, corrupt, MonoidSpec.x(1, 1, 0), 3)
        assert witness == [[0, 0], list(u0)]

    def test_fraction_coefficient(self, monkeypatch):
        exact, u0 = monoids.comult, (1, 1)

        def corrupt(rule, u):
            t = exact(rule, u)
            if u != u0:
                return t
            (key, c), *rest = t.terms()
            return TensorElement._of({key: Fraction(c, 2), **dict(rest)})

        self._oracle_pair(monkeypatch, corrupt, MonoidSpec.x(1, 1, 0), 3)

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

        witness = self._oracle_pair(monkeypatch, corrupt, spec, box)
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
    _check_against_oracle(report, region, rule, box)
    return report, taken


def _corrupted_at(w, change):
    """``comult``, with ``change(terms, sorted keys)`` applied to the expansion at ``w``."""
    exact = monoids.comult

    def corrupt(rule, u):
        t = exact(rule, u)
        if u != w:
            return t
        terms = dict(t._terms)
        change(terms, sorted(terms))
        return TensorElement._of(terms)

    return corrupt


def _drop_middle(terms, keys):
    del terms[keys[len(keys) // 2]]


def _add_off_the_run(terms, keys):
    terms[((7, 0), (0, 0))] = 1


def _fold_top_digit(terms, keys):
    # The top term is carried into the one below it as a higher digit: one term
    # fewer, and a coefficient far above the binomial row's.
    terms[keys[-2]] += terms.pop(keys[-1]) << 16


def _zero_past_the_top(terms, keys):
    # A stored zero one step past the top term: the values are unchanged.
    (a0, a1), (a2, a3) = keys[-2]
    (b0, b1), (b2, b3) = keys[-1]
    terms[((2 * b0 - a0, 2 * b1 - a1), (2 * b2 - a2, 2 * b3 - a3))] = 0


def _shift_run(terms, keys):
    # The same coefficients one step up in the right y-exponent: every key differs.
    for left, (r0, r1) in keys:
        terms[(left, (r0, r1 + 1))] = terms.pop((left, (r0, r1)))


class TestMultiplicativeNoProducts:
    """Corrupted expansions at a sum of two box monomials or at a box monomial
    fail the closed-form comparison on ``P`` with the ``disagrees`` witness,
    and verifying takes no ``TensorElement`` product, corrupted or not."""

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
        monkeypatch.setattr(monoids, "comult", _corrupted_at((6, 6), change))
        report, taken = _verify_and_count(products, cone_of_spec(spec), ComultRule(spec.n), box)
        assert taken == 0
        assert [c.witness for c in report.checks] == [None] + [{"disagrees": [6, 6]}] * 4

    @pytest.mark.parametrize("stored", [Fraction(2, 1), True], ids=["fraction", "bool"])
    def test_integral_target_coefficient_passes_without_products(
        self, monkeypatch, products, stored
    ):
        def change(terms, keys):
            terms[next(k for k in keys if terms[k] == stored)] = stored

        # comult(2, 6) = y^8 (x) x^2 y^6 + 2 x y^7 (x) x y^6 + x^2 y^6 (x) y^6,
        # reached only as a sum of two box monomials.
        monkeypatch.setattr(monoids, "comult", _corrupted_at((2, 6), change))
        spec = MonoidSpec.x(1, 1, 0)
        report, taken = _verify_and_count(products, cone_of_spec(spec), ComultRule(spec.n), 3)
        assert report.passed and taken == 0

    def test_two_term_target_over_one_term_box_fails(self, monkeypatch, products):
        # Box 1 of X(1, 1, 3) holds (0, 0) and (0, 1), whose expansions have
        # one term each, and so has every product of two.
        def change(terms, keys):
            terms[((1, 2), (0, 0))] = 1

        monkeypatch.setattr(monoids, "comult", _corrupted_at((0, 2), change))
        spec = MonoidSpec.x(1, 1, 3)
        report, _ = _verify_and_count(products, cone_of_spec(spec), ComultRule(spec.n), 1)
        assert report.first_failure().witness == {"disagrees": [0, 2]}

    @pytest.mark.parametrize("coef", [-1, Fraction(1, 2)], ids=["negative", "fraction"])
    def test_corrupted_box_expansion_takes_no_products(self, monkeypatch, products, coef):
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
        assert taken == 0 and report.checks[-1].witness == {"disagrees": list(u0)}

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


def _head_not_least(terms, keys):
    # The least key moves to the end of the dict: same terms, another order.
    terms[keys[0]] = terms.pop(keys[0])


def _zero_middle(terms, keys):
    terms[keys[len(keys) // 2]] = 0


def _move_middle_right_y(terms, keys):
    # One term off the run in the last key component only.
    left, (r0, r1) = keys[len(keys) // 2]
    terms[(left, (r0, r1 + 1))] = terms.pop((left, (r0, r1)))


PRECHECK_REGIONS = [
    MonoidSpec.group(1),
    MonoidSpec.group(3),
    MonoidSpec.x(1, 1, 0),
    MonoidSpec.x(2, 3, 2),
    MonoidSpec.x(1, 2, 5),
    MonoidSpec.y(2, 1, 1),
    MonoidSpec.y(3, 2, 1),
    MonoidSpec.y(1, 5, 3),
]


def _run_points(runs):
    return [(x, y) for x, lo, hi in runs for y in range(lo, hi + 1)]


def _premise_run_points(runs, n):
    """The points of ``_premise_runs(runs, n)``, checked to be disjoint maximal runs
    in order: none touches or overlaps the next."""
    premise = monoids._premise_runs(runs, n)
    assert all(x1 < x2 or hi1 + 1 < lo2 for (x1, _, hi1), (x2, lo2, _) in zip(premise, premise[1:]))
    points = _run_points(premise)
    assert points == sorted(set(points))
    return points


def _legs_by_terms(points, n):
    """Both legs of every term of the rule's expansion of every point."""
    return {leg for x, y in points for k in range(x + 1) for leg in ((k, y + n * (x - k)), (x - k, y))}


def _sums_by_pairs(points):
    return {(u[0] + v[0], u[1] + v[1]) for u in points for v in points}


def _premise_by_terms(points, n):
    """``P``, brute force: the legs of every point's expansion and the sums of two points."""
    return _legs_by_terms(points, n) | _sums_by_pairs(points)


class TestReferencePrecheck:
    """Multiplicativity is decided by comparing every expansion on the premise
    set ``P`` (the legs of the box expansions and the sums of two box
    monomials) with the rule's closed form, with no product: the report is
    the re-expanding oracle's when that holds, and fails with the
    ``disagrees`` witness when it does not."""

    @pytest.mark.parametrize("box", range(1, 9))
    @pytest.mark.parametrize("spec", PRECHECK_REGIONS, ids=str)
    def test_sum_runs_are_the_sum_set(self, spec, box):
        points = box_lattice_points(cone_of_spec(spec), box)
        runs = monoids._runs(points)
        assert len(runs) == len({x for x, _ in points})  # one run per column
        assert _run_points(runs) == points
        assert set(_premise_run_points(runs, spec.n)) == _premise_by_terms(points, spec.n)

    def test_sum_runs_of_gapped_columns(self):
        # Random point sets with gaps in their columns: several runs per column.
        rng = random.Random(21)
        for _ in range(200):
            points = sorted({(rng.randint(0, 4), rng.randint(-5, 5)) for _ in range(rng.randint(1, 20))})
            n = rng.randint(1, 4)
            assert _premise_run_points(monoids._runs(points), n) == sorted(_premise_by_terms(points, n))

    @pytest.mark.parametrize("weight", [1, 2, 5])
    @pytest.mark.parametrize("box", [1, 3, 5])
    @pytest.mark.parametrize("spec", PRECHECK_REGIONS, ids=str)
    def test_real_comult_never_takes_the_pair_loop(self, products, spec, box, weight):
        region, rule = cone_of_spec(spec), ComultRule(weight)
        report, taken = _verify_and_count(products, region, rule, box)
        assert taken == 0
        assert report.checks[-1].passed

    @pytest.mark.parametrize(
        "change",
        [_drop_middle, _add_off_the_run, _fold_top_digit, _zero_past_the_top, _shift_run],
        ids=["missing-middle-term", "extra-term-off-the-run", "coefficient-above-limit", "stored-zero",
             "shifted-run"],
    )
    @pytest.mark.parametrize("w", [(5, 6), (4, 2), (6, 6)], ids=str)
    def test_one_corrupted_sum_outside_the_box(self, monkeypatch, products, change, w):
        spec, box = MonoidSpec.x(1, 1, 0), 3
        region, rule = cone_of_spec(spec), ComultRule(spec.n)
        assert w not in box_lattice_points(region, box)
        monkeypatch.setattr(monoids, "comult", _corrupted_at(w, change))
        report, taken = _verify_and_count(products, region, rule, box)
        assert taken == 0
        assert report.first_failure() is report.checks[1]
        assert report.checks[1].witness == {"disagrees": list(w)}

    def test_box_codes_are_compared_before_any_target(self):
        # The walk stops at the first point of P that disagrees: a shifted run
        # at the box monomial (2, 3) ends it, and no later point of P, such as
        # the sums outside the box, is expanded.
        spec, box, u0 = MonoidSpec.x(1, 1, 0), 3, (2, 3)
        rule = ComultRule(spec.n)
        points = box_lattice_points(cone_of_spec(spec), box)
        premise = monoids._premise_runs(monoids._runs(points), rule.n)
        order = _run_points(premise)
        walked = order[: order.index(u0) + 1]
        assert set(order) - set(walked) - set(points)  # the walk stops short of sums outside the box
        corrupt = _corrupted_at(u0, _shift_run)
        seen = []

        def expand(u):
            seen.append(u)
            return corrupt(rule, u)

        assert monoids._first_disagreement(premise, expand, rule.n) == u0
        assert seen == walked


CORRUPTIONS = [
    _drop_middle,
    _add_off_the_run,
    _fold_top_digit,
    _zero_past_the_top,
    _shift_run,
    _head_not_least,
    _zero_middle,
    _move_middle_right_y,
]


class TestAgreesWithRule:
    """The closed-form comparison on ``P`` holds for the real comultiplication.
    Each corrupted expansion, at a box monomial, at a sum outside the box or
    at a leg outside the box, is the first disagreement, and the report is
    sound against the oracle: the same closure check, and the other four
    checks failing with that point as their witness."""

    @pytest.mark.parametrize("box", range(1, 6))
    @pytest.mark.parametrize("spec", PRECHECK_REGIONS, ids=str)
    def test_real_comult_agrees(self, spec, box):
        rule = ComultRule(spec.n)
        points = box_lattice_points(cone_of_spec(spec), box)
        premise = monoids._premise_runs(monoids._runs(points), rule.n)
        assert monoids._first_disagreement(premise, lambda u: comult(rule, u), rule.n) is None

    @pytest.mark.parametrize("change", CORRUPTIONS, ids=lambda change: change.__name__.strip("_"))
    @pytest.mark.parametrize(
        "spec, w",
        [(MonoidSpec.x(1, 1, 0), (2, 3)), (MonoidSpec.x(1, 1, 0), (6, 6)), (MonoidSpec.x(2, 1, 0), (1, 7))],
        ids=["box-monomial", "sum-outside-the-box", "leg-outside-the-box"],
    )
    def test_corrupted_expansion_disagrees(self, monkeypatch, change, spec, w):
        # (1, 7) is the left leg of term k = 1 of comult(3, 3) at weight 2.
        box = 3
        region, rule = cone_of_spec(spec), ComultRule(spec.n)
        points = box_lattice_points(region, box)
        assert (w in points) == (w == (2, 3))
        corrupt = _corrupted_at(w, change)
        premise = monoids._premise_runs(monoids._runs(points), rule.n)
        assert monoids._first_disagreement(premise, lambda u: corrupt(rule, u), rule.n) == w
        monkeypatch.setattr(monoids, "comult", corrupt)
        report = verify_comultiplication(region, rule, box)
        _check_against_oracle(report, region, rule, box)
        assert [c.witness for c in report.checks[1:]] == [{"disagrees": list(w)}] * 4


class TestCorruptedLegFailsCoassociativity:
    """A corrupted leg expansion fails coassociativity with the ``disagrees``
    witness, also where the oracle's merged sides agree: zero terms that
    cancel leave the element, so no axiom, unchanged, but not the expansion
    that the proof reads."""

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
        expected = _check_against_oracle(report, region, rule, box)
        assert (expected["checks"][3]["status"] == "pass") is passes
        coassociativity = report.checks[3]
        assert coassociativity.name == "coassociativity"
        assert coassociativity.witness == {"disagrees": list(w)}


def _refuse(*args):
    raise AssertionError("the closure loop ran")


class TestClosedFormPremises:
    """All four algebraic checks are decided by one agreement with the rule's
    closed form on ``P``, the legs of the box expansions and the sums of two
    box monomials, and closure by the ends of the runs of ``P``; with the
    real comultiplication every report is the re-expanding oracle's."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("box", range(1, 9))
    @pytest.mark.parametrize("spec", PRECHECK_REGIONS, ids=str)
    def test_leg_runs_are_the_leg_set(self, spec, box, n):
        points = box_lattice_points(cone_of_spec(spec), box)
        assert set(_premise_run_points(monoids._runs(points), n)) == _premise_by_terms(points, n)

    def test_leg_runs_of_gapped_columns(self):
        rng = random.Random(23)
        for _ in range(200):
            points = sorted({(rng.randint(0, 4), rng.randint(-5, 5)) for _ in range(rng.randint(1, 20))})
            n = rng.randint(1, 4)
            assert set(_premise_run_points(monoids._runs(points), n)) == _premise_by_terms(points, n)

    @pytest.mark.parametrize("box", range(1, 6))
    @pytest.mark.parametrize("spec", PRECHECK_REGIONS, ids=str)
    def test_real_comult_enters_no_check_loop(self, monkeypatch, products, spec, box):
        # support() is read only by the closure loop, and verify takes no product.
        region, rule = cone_of_spec(spec), ComultRule(spec.n)
        expected = verify_by_reexpansion(region, rule, box).to_json()
        monkeypatch.setattr(TensorElement, "support", _refuse)
        products.clear()
        report = verify_comultiplication(region, rule, box)
        assert report.to_json() == expected and report.passed
        assert not products

    @pytest.mark.parametrize("change", CORRUPTIONS, ids=lambda change: change.__name__.strip("_"))
    def test_corrupted_left_leg_outside_the_box(self, monkeypatch, change):
        # (1, 7) is the left leg of term k = 1 of comult(3, 3) at weight 2, and
        # neither a box monomial nor a sum of two.
        spec, box, w = MonoidSpec.x(2, 1, 0), 3, (1, 7)
        region, rule = cone_of_spec(spec), ComultRule(spec.n)
        points = box_lattice_points(region, box)
        assert w in _legs_by_terms([(3, 3)], rule.n) and w not in _sums_by_pairs(points)
        monkeypatch.setattr(monoids, "comult", _corrupted_at(w, change))
        report = verify_comultiplication(region, rule, box)
        expected = _check_against_oracle(report, region, rule, box)
        assert [c.witness for c in report.checks[1:]] == [{"disagrees": list(w)}] * 4
        # An order change or a stored zero leaves the element, so the oracle's sums,
        # unchanged: verify fails where the oracle passes.
        changed = change not in (_head_not_least, _zero_past_the_top)
        failing = [c["name"] for c in expected["checks"] if c["status"] == "fail"]
        assert failing == (["coassociativity"] if changed else [])
        if changed:
            assert expected["checks"][3]["witness"] == {"monomial": [3, 3]}

    @pytest.mark.parametrize(
        "change, failing",
        [(_shift_run, ["counit-left"]), (_drop_middle, []), (_zero_middle, [])],
        ids=["shifted-run", "missing-middle-term", "zero-middle"],
    )
    def test_corrupted_box_monomial_gives_the_counit_witness(self, monkeypatch, change, failing):
        # ``failing`` is the oracle's verdict; verify fails both counits at w either way.
        spec, box, w = MonoidSpec.x(1, 1, 0), 3, (2, 3)
        region, rule = cone_of_spec(spec), ComultRule(spec.n)
        monkeypatch.setattr(monoids, "comult", _corrupted_at(w, change))
        report = verify_comultiplication(region, rule, box)
        counits = _check_against_oracle(report, region, rule, box)["checks"][1:3]
        assert [c["name"] for c in counits if c["status"] == "fail"] == failing
        assert all(c["witness"] == {"monomial": list(w)} for c in counits if c["status"] == "fail")
        assert [c.witness for c in report.checks[1:3]] == [{"disagrees": list(w)}] * 2

    def test_leg_run_joined_to_a_sum_run_escapes_at_the_leg(self):
        # Box 1 of Y(1,1,0) at weight 2: column 0 of P is the one run [-2, 1],
        # the leg run [-1, 1] joined to the sum run [-2, 0].  Its top (0, 1),
        # the left leg of term 0 of comult(1, -1) and no sum, leaves the region.
        region, rule, box = cone_of_spec(MonoidSpec.y(1, 1, 0)), ComultRule(2), 1
        points = box_lattice_points(region, box)
        legs, sums = _legs_by_terms(points, rule.n), _sums_by_pairs(points)
        assert monoids._premise_runs(monoids._runs(points), rule.n)[0] == [0, -2, 1]
        assert (0, -2) in sums - legs and (0, 1) in legs - sums and not region.contains((0, 1))
        report = verify_comultiplication(region, rule, box)
        assert report.to_json() == verify_by_reexpansion(region, rule, box).to_json()
        assert [c.name for c in report.checks if not c.passed] == ["cone-closure"]
        assert report.checks[0].witness == {"monomial": [1, -1], "escaped": [0, 1]}

    def test_seeded_cones_match_the_oracle(self):
        rng = random.Random(23)
        escaped = 0
        for _ in range(200):
            while True:
                r1, r2 = [(rng.randint(0, 4), rng.randint(-6, 6)) for _ in range(2)]
                if (0, 0) not in (r1, r2) and r1[0] * r2[1] != r1[1] * r2[0]:
                    break
            region, rule, box = Cone2.from_rays(r1, r2, M), ComultRule(rng.randint(1, 4)), rng.randint(1, 4)
            report = verify_comultiplication(region, rule, box)
            assert report.to_json() == verify_by_reexpansion(region, rule, box).to_json()
            escaped += not report.checks[0].passed
        assert escaped >= 50


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
