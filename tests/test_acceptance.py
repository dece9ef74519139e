"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything is exact arithmetic; random data uses fixed seeds.
"""

import random
import time
from fractions import Fraction
from math import gcd

from toricmonoids import (
    ComultRule,
    Cone2,
    DegenerateConeError,
    LatticeMap,
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
    derivation_for,
    hilbert_basis,
    image_ideal_codim,
    is_locally_nilpotent_on,
    multiply_points,
    opposite_witness,
    quotient_by_center,
    restriction_condition,
    root_basis,
    roots_up_to,
    tensor_chart_value,
    verify_bialgebra,
)

from oracles import image_ideal_codim_search, rand_fraction, rand_nonzero_fraction


def _report(number: int, title: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {number:02d}] {status} - {title}")
    assert not failures, f"criterion {number}: first failures: {failures[:5]}"


def _coprime_pairs(a_max: int, b_max: int):
    for a in range(1, a_max + 1):
        for b in range(0, b_max + 1):
            if gcd(a, b) == 1:
                yield a, b


def _xy_specs(n_max: int, a_max: int, b_max: int):
    for n in range(1, n_max + 1):
        for a, b in _coprime_pairs(a_max, b_max):
            yield MonoidSpec.x(n, a, b)
            yield MonoidSpec.y(n, a, b)


def _primitive_vectors(bound: int):
    out = []
    for x in range(0, bound + 1):
        for y in range(-bound, bound + 1):
            if (x, y) != (0, 0) and gcd(abs(x), abs(y)) == 1:
                out.append((x, y))
    return out


def test_criterion_01_bialgebra_axiom_suite():
    start = time.monotonic()
    failures = []
    for spec in _xy_specs(3, 4, 4):
        report = verify_bialgebra(spec, 4)
        if not report.passed:
            failures.append((str(spec), report.first_failure()))
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    _report(1, f"bialgebra axioms, all specs n<=3 a,b<=4 at box 4 ({elapsed:.1f}s)", failures)


def test_criterion_02_restriction_certificate_equals_scan():
    def scan(r1, r2, n, bound=12):
        d = r1[0] * r2[1] - r1[1] * r2[0]

        def inside(x, y):
            na = x * r2[1] - y * r2[0]
            nb = r1[0] * y - r1[1] * x
            return (na >= 0 and nb >= 0) if d > 0 else (na <= 0 and nb <= 0)

        for x in range(0, bound + 1):
            for y in range(-bound, bound + 1):
                if inside(x, y) and not (inside(0, y) and inside(0, y + n * x)):
                    return False
        return True

    vectors = _primitive_vectors(6)
    failures = []
    checked = 0
    for i, r1 in enumerate(vectors):
        for r2 in vectors[i + 1 :]:
            try:
                cone = Cone2.from_rays(r1, r2, M)
            except DegenerateConeError:
                continue
            for n in (1, 2, 3):
                certificate = restriction_condition(cone, n)
                brute = scan(r1, r2, n)
                checked += 1
                if certificate != brute:
                    failures.append((r1, r2, n, certificate, brute))
    assert checked > 3000
    _report(2, f"restriction certificate vs box-12 scan ({checked} cases)", failures)


def test_criterion_03_invariant_closed_form_equals_search():
    failures = []
    for spec in _xy_specs(6, 6, 6):
        for k in range(1, 13):
            closed = image_ideal_codim(spec, k)
            searched = image_ideal_codim_search(spec, k)
            if closed != searched:
                failures.append((str(spec), k, closed, searched))
    _report(3, "image-ideal codimension: closed form vs direct search", failures)


def test_criterion_04_classification_round_trip():
    failures = []
    for spec in _xy_specs(8, 8, 8):
        if classify_cone(cone_of_spec(spec), spec.n) != spec:
            failures.append(("spec", str(spec)))

    vectors = _primitive_vectors(8)
    admissible = 0
    for i, r1 in enumerate(vectors):
        for r2 in vectors[i + 1 :]:
            try:
                cone = Cone2.from_rays(r1, r2, M)
            except DegenerateConeError:
                continue
            for n in (1, 2, 3):
                if not restriction_condition(cone, n):
                    continue
                admissible += 1
                try:
                    spec = classify_cone(cone, n)
                except NotAMonoidError:
                    failures.append(("classify", r1, r2, n))
                    continue
                if cone_of_spec(spec) != cone:
                    failures.append(("cone", r1, r2, n, str(spec)))
    assert admissible > 50
    _report(4, f"classification round trips both ways ({admissible} admissible cones)", failures)


def test_criterion_05_point_level_matches_symbolic_level():
    rng = random.Random(20240)
    failures = []
    for n in range(1, 5):
        for b in range(0, 5):
            for spec in (MonoidSpec.x(n, 1, b), MonoidSpec.y(n, 1, b)):
                basis = hilbert_basis(cone_of_spec(spec))
                expansions = [(g, comult_monomial(spec, g)) for g in basis]
                for _ in range(50):
                    p = (rand_fraction(rng), rand_fraction(rng))
                    q = (rand_fraction(rng), rand_fraction(rng))
                    product = multiply_points(spec, p, q)
                    for g, tensor in expansions:
                        lhs = tensor_chart_value(spec, tensor, p, q)
                        rhs = chart_monomial_value(spec, g, product)
                        if lhs != rhs:
                            failures.append((str(spec), g.xy, p, q))
                unit = chart_unit(spec)
                for _ in range(100):
                    pts = [(rand_fraction(rng), rand_fraction(rng)) for _ in range(3)]
                    p, q, r = pts
                    left = multiply_points(spec, multiply_points(spec, p, q), r)
                    right = multiply_points(spec, p, multiply_points(spec, q, r))
                    if left != right:
                        failures.append(("assoc", str(spec), pts))
                    if multiply_points(spec, unit, p) != p or multiply_points(spec, p, unit) != p:
                        failures.append(("unit", str(spec), p))
    _report(5, "chart products match comultiplication values; associative and unital", failures)


def test_criterion_06_opposite_intertwines_comultiplications():
    failures = []
    for n in range(1, 4):
        for a, b in _coprime_pairs(3, 3):
            sx = MonoidSpec.x(n, a, b)
            sy = MonoidSpec.y(n, a, b)
            w = opposite_witness(sx)
            for u in box_lattice_points(cone_of_spec(sx), 5):
                lhs = comult_monomial(sx, u).flip()
                rhs = comult_monomial(sy, w.apply_xy(u)).map_exponents(w.apply_xy)
                if lhs != rhs:
                    failures.append((str(sx), u))
    _report(6, "opposite witness transports the comultiplication up to flip", failures)


def test_criterion_07_central_quotients():
    failures = []
    for n in range(1, 7):
        for m in range(1, n + 1):
            if n % m != 0:
                continue
            for a, b in _coprime_pairs(4, 4):
                spec = MonoidSpec.x(n, a, b)
                quotient = quotient_by_center(spec, m)
                for k in range(1, 9):
                    if image_ideal_codim(quotient, k) != image_ideal_codim_search(quotient, k):
                        failures.append(("invariant", str(spec), m, k))
                stretch = LatticeMap(1, 0, 0, m)
                if stretch.image_cone(cone_of_spec(quotient)) != cone_of_spec(spec):
                    failures.append(("transport", str(spec), m))
    for n in range(1, 5):
        for a, b in _coprime_pairs(4, 4):
            if quotient_by_center(MonoidSpec.x(a * n, 1, b), a) != MonoidSpec.x(n, a, b):
                failures.append(("cover", n, a, b))
    _report(7, "central quotients: invariants, cone transport, plane-chart cover", failures)


def test_criterion_08_boundary_behavior():
    rng = random.Random(777)
    failures = []
    for n in range(1, 5):
        for b in range(1, 5):
            spec = MonoidSpec.x(n, 1, b)
            zero = chart_zero(spec)
            for _ in range(50):
                p = (rand_fraction(rng), Fraction(0))
                q = (rand_fraction(rng), Fraction(0))
                if multiply_points(spec, p, q) != zero:
                    failures.append(("zero", str(spec), p, q))
            info = boundary(spec)
            if (info.left_weight, info.right_weight, info.has_zero) != (b + n, b, True):
                failures.append(("info", str(spec)))
            for _ in range(20):
                tau = rand_nonzero_fraction(rng)
                x = rand_fraction(rng)
                torus = (Fraction(0), tau)
                left = multiply_points(spec, torus, (x, Fraction(0)))
                right = multiply_points(spec, (x, Fraction(0)), torus)
                if left != (tau ** (b + n) * x, 0) or right != (tau**b * x, 0):
                    failures.append(("weight", str(spec), tau, x))
        spec = MonoidSpec.x(n, 1, 0)
        if not boundary(spec).idempotent_line:
            failures.append(("idempotent-flag", str(spec)))
        for _ in range(20):
            p = (rand_fraction(rng), Fraction(0))
            q = (rand_fraction(rng), Fraction(0))
            if multiply_points(spec, p, q) != p:
                failures.append(("idempotent", str(spec), p, q))
    _report(8, "boundary line: absorbing zero, idempotent case, torus weights", failures)


TEST_SIGMAS = [
    Cone2.from_rays((1, 0), (0, 1), N),
    Cone2.from_rays((1, 0), (-2, 1), N),
    Cone2.from_rays((1, 0), (-3, 2), N),
    Cone2.from_rays((0, 1), (2, 3), M).dual(),
    Cone2.from_rays((0, 1), (5, 2), M).dual(),
    Cone2.from_rays((0, -1), (1, -3), M).dual(),
    Cone2.from_rays((0, -1), (3, -7), M).dual(),
]


def test_criterion_09_demazure_roots_drive_the_structure():
    failures = []
    for sigma in TEST_SIGMAS:
        dual = sigma.dual()
        for i in (0, 1):
            for root in roots_up_to(sigma, i, 4):
                rule = derivation_for(sigma, root)
                if not is_locally_nilpotent_on(rule, dual):
                    failures.append(("nilpotent", str(sigma), root.e.xy))
                minus_e, v = root_basis(sigma, root)
                if minus_e.x * v.y - minus_e.y * v.x not in (1, -1):
                    failures.append(("basis", str(sigma), root.e.xy))

    quadrant = TEST_SIGMAS[0]
    i = quadrant.ray_index((1, 0))
    enumerated = {r.e.xy: r for r in roots_up_to(quadrant, i, 1)}
    pair = RootPair(enumerated[(-1, 0)], enumerated[(-1, 1)])
    on_x = comult_from_root_pair(quadrant, pair, (1, 0))
    expected_x = TensorElement.monomial((1, 0), (0, 0)) + TensorElement.monomial((0, 1), (1, 0))
    if on_x != expected_x or on_x != comult(ComultRule(1), (1, 0)):
        failures.append(("expansion-x", on_x.to_json()))
    on_y = comult_from_root_pair(quadrant, pair, (0, 1))
    if on_y != TensorElement.monomial((0, 1), (0, 1)):
        failures.append(("expansion-y", on_y.to_json()))
    _report(9, "roots: nilpotency certificates, unimodular bases, expansion identity", failures)


def test_criterion_10_noncommutativity_witnesses():
    failures = []
    for sigma in TEST_SIGMAS:
        monomials = box_lattice_points(sigma.dual(), 4)
        for i in (0, 1):
            roots = roots_up_to(sigma, i, 3)
            for r1 in roots:
                for r2 in roots:
                    pair = RootPair(r1, r2)
                    flip_variant = any(
                        comult_from_root_pair(sigma, pair, u).flip()
                        != comult_from_root_pair(sigma, pair, u)
                        for u in monomials
                    )
                    if (r1 != r2) != flip_variant:
                        failures.append((str(sigma), r1.e.xy, r2.e.xy, flip_variant))
    _report(10, "flip variance holds exactly for unequal root pairs", failures)
