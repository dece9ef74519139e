"""Independent brute-force oracles shared by the test modules.

Everything here recomputes results from first principles (box scans,
memoized representability, literal double loops) so the library's fast paths
are checked against a second, unrelated route.
"""

import json
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd

from toricmonoids import (
    CheckResult,
    ComultRule,
    Cone2,
    DegenerateConeError,
    Family,
    LatticeMap,
    LatticePoint,
    M,
    MonoidSpec,
    LaurentElement,
    RootPair,
    TensorElement,
    VerificationReport,
    boundary,
    box_lattice_points,
    cone_of_spec,
    hilbert_basis,
    monoids,
    parse_rational,
    primitive,
)
from toricmonoids.algebra import _merge
from toricmonoids.demazure import _check_sigma
from toricmonoids.lattice import int_xy
from toricmonoids.monoids import _image_ideal_codims, _require_surface_family


def dual_rays_by_scan(cone: Cone2, bound: int = 12) -> set[tuple[int, int]]:
    """Primitive edge directions of the dual cone, by scanning a box.

    Collects every lattice point pairing nonnegatively with both rays and
    keeps the directions that have the whole collection on one side.
    """
    r1, r2 = (r.xy for r in cone.rays)
    pts = [
        (x, y)
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
        if (x, y) != (0, 0)
        and x * r1[0] + y * r1[1] >= 0
        and x * r2[0] + y * r2[1] >= 0
    ]
    extreme = set()
    for w in pts:
        crosses = [w[0] * s[1] - w[1] * s[0] for s in pts]
        if all(c >= 0 for c in crosses) or all(c <= 0 for c in crosses):
            g = gcd(abs(w[0]), abs(w[1]))
            extreme.add((w[0] // g, w[1] // g))
    return extreme


def cone_from_rays_by_primitive(r1, r2, ambient=None) -> Cone2:
    """``Cone2.from_rays`` by its earlier route: each ray read as a
    ``LatticePoint`` and passed through ``primitive``, then the two sorted."""
    if ambient is None:
        tagged = [v.ambient for v in (r1, r2) if isinstance(v, LatticePoint)]
        ambient = tagged[0] if tagged else M
    points = []
    for r in (r1, r2):
        x, y = int_xy(r, ambient)
        if x == 0 and y == 0:
            raise DegenerateConeError("zero vector is not a ray generator")
        points.append(primitive(LatticePoint(x, y, ambient)))
    lo, hi = sorted(points)
    return Cone2((lo, hi), ambient)


def can_represent(u, gens, cone, memo=None) -> bool:
    """Is ``u`` a nonnegative integer combination of ``gens`` inside ``cone``?"""
    memo = {} if memo is None else memo
    gens = [tuple(g) for g in gens]

    def rec(v):
        if v == (0, 0):
            return True
        if v in memo:
            return memo[v]
        memo[v] = False
        for g in gens:
            w = (v[0] - g[0], v[1] - g[1])
            if cone.contains(w) and rec(w):
                memo[v] = True
                break
        return memo[v]

    return rec(tuple(u))


def image_ideal_codim_search(spec: MonoidSpec, k: int) -> int:
    """Image-ideal codimension by direct cone search, independent of the closed form.

    Scans for the least ``t >= 0`` with ``(k, t)`` (X family) or ``(k, -t)``
    (Y family) in the spec's cone; this is the number of kernel monomials not
    reached by the k-th iterate of the left derivation.
    """
    _require_surface_family(spec, "the image-ideal codimension")
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    cone = cone_of_spec(spec)
    sign = 1 if spec.family is Family.X else -1
    cap = k * (spec.b + spec.n * spec.a) + 1  # (k, sign*cap) is always inside
    for t in range(cap + 1):
        if cone.contains((k, sign * t)):
            return t
    raise AssertionError(f"no axis point found for {spec} at k={k}")


def catalog_lines_by_records(n_max: int, a_max: int, b_max: int, k_max: int):
    """The catalog's lines through the library's records: each spec's ``MonoidSpec``, its cone
    by ``cone_of_spec``, ``hilbert_basis``, the invariants and ``boundary``, as one dict
    written by ``json.dumps``, in the catalog's order."""
    for n in range(1, n_max + 1):
        for a in range(1, a_max + 1):
            for b in range(0, b_max + 1):
                if gcd(a, b) != 1:
                    continue
                for family in (Family.X, Family.Y):
                    spec = MonoidSpec(family, n, a, b)
                    cone = cone_of_spec(spec)
                    entry = {
                        "spec": spec.to_json(),
                        "cone": cone.to_json(),
                        "hilbert_basis": [g.to_json() for g in hilbert_basis(cone)],
                        "invariants": _image_ideal_codims(spec, range(1, k_max + 1)),
                        "boundary": boundary(spec).to_json(),
                    }
                    yield json.dumps(entry) + "\n"


def restriction_scan(cone: Cone2, n: int, bound: int) -> bool:
    """Literal check of the restriction condition on all cone points in a box."""
    for (x, y) in box_lattice_points(cone, bound):
        if not (cone.contains((0, y)) and cone.contains((0, y + n * x))):
            return False
    return True


def lnd_by_probe(rule, region, probe_bound: int) -> bool:
    """Local nilpotency probed on the region's monomials in a box.

    For every lattice point ``u`` of ``region`` with coordinates bounded by
    ``probe_bound``, some iterate of the derivation must kill ``chi^u`` within
    ``|<u, ray>| + 1`` steps, and every nonzero iterate must stay in the region.
    """
    if probe_bound < 1:
        raise ValueError("probe_bound must be at least 1")
    px, py = rule.ray.xy
    for (x, y) in box_lattice_points(region, probe_bound):
        limit = abs(x * px + y * py) + 1
        f = LaurentElement.monomial((x, y))
        for _ in range(limit):
            f = rule.apply(f)
            if not f:
                break
            if not all(region.contains(k) for k in f.support()):
                return False
        if f:
            return False
    return True


def roots_by_double_loop(sigma: Cone2, ray_index: int, bound: int) -> list[tuple[int, int]]:
    """Demazure-root enumeration re-derived with inline dot products."""
    p = sigma.rays[ray_index].xy
    q = sigma.rays[1 - ray_index].xy
    out = []
    for ex in range(-bound, bound + 1):
        for ey in range(-bound, bound + 1):
            if ex * p[0] + ey * p[1] == -1 and ex * q[0] + ey * q[1] >= 0:
                out.append((ex, ey))
    return sorted(out)


def dual_ray_swap(sigma: Cone2) -> LatticeMap | None:
    """The linear map exchanging the two rays of the dual cone, if it preserves M.

    With dual rays ``w1 = (p, q)``, ``w2 = (r, s)`` and ``d = p*s - q*r``, the
    swap is ``(r*s - p*q, p*p - r*r, s*s - q*q, p*q - r*s) / d``; returns it
    when ``d`` divides all four entries, else None.  The swap is an involution
    of determinant -1, so integral entries already give an integer inverse.
    """
    (p, q), (r, s) = (w.xy for w in _check_sigma(sigma).dual().rays)
    d = p * s - q * r
    entries = (r * s - p * q, p * p - r * r, s * s - q * q, p * q - r * s)
    if any(t % d for t in entries):
        return None
    return LatticeMap(*(t // d for t in entries))


def pair_equivalence_by_swap(sigma: Cone2, p: RootPair, q: RootPair) -> bool:
    """Do two root pairs induce isomorphic monoid structures on the surface?

    True when the pairs are equal, or when the ray-swapping map preserves the
    lattice and carries one ordered pair onto the other.  Reflexive and
    symmetric (the swap map is an involution).
    """
    _check_sigma(sigma)
    if p == q:
        return True
    swap = dual_ray_swap(sigma)
    if swap is None:
        return False
    return swap.apply(q.e1.e) == p.e1.e and swap.apply(q.e2.e) == p.e2.e


def dual_ray_swap_by_cramer(sigma: Cone2) -> LatticeMap | None:
    """The swap of the dual rays ``w1 <-> w2``, each matrix row solved by
    Cramer's rule in ``Fraction``s; None unless all four entries are integers."""
    w1, w2 = sigma.dual().rays
    d = w1.x * w2.y - w1.y * w2.x

    def solve(b1: int, b2: int) -> tuple[Fraction, Fraction]:
        # [[w1.x, w1.y], [w2.x, w2.y]] . row = (b1, b2)
        return (Fraction(b1 * w2.y - b2 * w1.y, d), Fraction(w1.x * b2 - w2.x * b1, d))

    entries = (*solve(w2.x, w1.x), *solve(w2.y, w1.y))
    if any(t.denominator != 1 for t in entries):
        return None
    return LatticeMap(*(int(t) for t in entries))


def hilbert_basis_by_sieve(cone: Cone2) -> list[LatticePoint]:
    """Minimal generators of the cone's lattice points by an O(det^2) sieve.

    Every irreducible semigroup element lies in the fundamental parallelogram
    spanned by the two ray generators (anything beyond it has a ray generator
    as a summand), so the candidates are enumerated from a bounding box of the
    parallelogram and points that split as a sum of two nonzero cone points
    are sieved out.  Output is sorted in the fixed total order.
    """
    r1, r2 = (r.xy for r in cone.rays)
    corners = [(0, 0), r1, r2, (r1[0] + r2[0], r1[1] + r2[1])]
    xs = [p[0] for p in corners]
    ys = [p[1] for p in corners]
    candidates = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if (x, y) == (0, 0):
                continue
            alpha, beta = cone.ray_coefficients((x, y))
            if 0 <= alpha <= 1 and 0 <= beta <= 1:
                candidates.append((x, y))
    generators = []
    for u in candidates:
        decomposable = any(
            v != u and cone.contains((u[0] - v[0], u[1] - v[1])) for v in candidates
        )
        if not decomposable:
            generators.append(u)
    return [LatticePoint(x, y, cone.ambient) for (x, y) in sorted(generators)]


def comult_by_comb(rule: ComultRule, u) -> TensorElement:
    """The weight-``n`` comultiplication with every binomial from ``math.comb``,
    built through the checking ``TensorElement`` constructor."""
    a, b = int_xy(u, M)
    if a < 0:
        raise ValueError(f"monomial ({a}, {b}) has a negative x-exponent")
    n = rule.n
    return TensorElement(
        [(((a - i, b + n * i), (i, b)), comb(a, i)) for i in range(a + 1)]
    )


def comult_from_root_pair_by_comb(sigma: Cone2, pair: RootPair, u) -> TensorElement:
    """The root-pair comultiplication with every binomial from ``math.comb``,
    built through the checking ``TensorElement`` constructor.

    Takes no root check of its own: every term's exponents are checked for
    membership in the dual cone, which a pair of roots never fails, so a
    failure is an ``AssertionError``."""
    dual = sigma.dual()
    ux, uy = int_xy(u, M)
    if not dual.contains((ux, uy)):
        raise ValueError(f"monomial ({ux}, {uy}) is not in the dual cone of {sigma}")
    p = sigma.rays[pair.ray_index]
    d = ux * p.x + uy * p.y
    e1 = pair.e1.e.xy
    e2 = pair.e2.e.xy
    terms = []
    for j in range(d + 1):
        left = (ux + j * e2[0], uy + j * e2[1])
        right = (ux + (d - j) * e1[0], uy + (d - j) * e1[1])
        for exponent in (left, right):
            assert dual.contains(exponent), f"expansion of ({ux}, {uy}) leaves the cone at {exponent}"
        terms.append(((left, right), comb(d, j)))
    return TensorElement(terms)


def _quadric_k(spec: MonoidSpec) -> int:
    # X(n, 2, b) has odd b by coprimality; write b = 2k + 1.
    return (spec.b - 1) // 2


def _formula_point(spec: MonoidSpec, p, arity: int) -> tuple:
    point = tuple(parse_rational(v) for v in p)
    if len(point) != arity:
        raise ValueError(f"{spec} chart points have {arity} coordinates, got {len(point)}")
    return point


def multiply_points_by_formula(spec: MonoidSpec, p, q) -> tuple:
    """Chart-level products by the hand-written formulas of the three charts.

    The plane charts ``X(n, 1, b)`` and ``Y(n, 1, b)``, and the quadric chart
    ``X(n, 2, b)`` whose points ``(x, y, z)`` satisfy ``x*z = y^2``; the
    library evaluates the comultiplication instead.
    """
    _require_surface_family(spec, "point multiplication")
    n, a, b = spec.n, spec.a, spec.b
    if a == 1:
        p1, p2 = _formula_point(spec, p, 2)
        q1, q2 = _formula_point(spec, q, 2)
        if spec.family is Family.X:
            return (p1 * q2**b + p2 ** (b + n) * q1, p2 * q2)
        return (p1 * q2 ** (b + n) + p2**b * q1, p2 * q2)
    if spec.family is Family.X and a == 2:
        k = _quadric_k(spec)
        px, py, pz = _formula_point(spec, p, 3)
        qx, qy, qz = _formula_point(spec, q, 3)
        for (cx, cy, cz) in ((px, py, pz), (qx, qy, qz)):
            if cx * cz != cy**2:
                raise ValueError(f"({cx}, {cy}, {cz}) violates the chart relation x*z = y^2")
        out = (
            px * qx,
            py * qx ** (k + 1) + px ** (n + k + 1) * qy,
            pz * qx ** (2 * k + 1)
            + 2 * px ** (n + k) * py * qx**k * qy
            + px ** (2 * n + 2 * k + 1) * qz,
        )
        assert out[0] * out[2] == out[1] ** 2
        return out
    raise ValueError(f"no explicit chart multiplication for {spec}")


def on_surface_by_pair_relations(chart, z) -> bool:
    """Does ``z`` satisfy every pair relation ``z_i * z_j = z(g_i + g_j)`` of the chart monomials ``g``?

    ``z(u)`` is read in the cell of ``u``: the consecutive pair of monomials
    whose nonnegative integral combination it is, found by solving each
    pair's 2x2 system with Cramer's rule.  Consecutive monomials form a
    lattice basis, so every cone point has such a cell, and these binomials,
    one per pair ``i <= j``, cut out the surface: the torus and its boundary
    alike.
    """

    def value(u):
        for k in range(len(chart) - 1):
            (gx, gy), (hx, hy) = chart[k], chart[k + 1]
            det = gx * hy - gy * hx
            e, f = Fraction(u[0] * hy - u[1] * hx, det), Fraction(gx * u[1] - gy * u[0], det)
            if e >= 0 and f >= 0 and e.denominator == f.denominator == 1:
                return z[k] ** int(e) * z[k + 1] ** int(f)
        raise AssertionError(f"{u} lies in no cell of {chart}")

    return all(
        z[i] * z[j] == value((gi[0] + gj[0], gi[1] + gj[1]))
        for i, gi in enumerate(chart)
        for j, gj in enumerate(chart[i:], i)
    )


def verify_by_reexpansion(region, rule: ComultRule, box: int) -> VerificationReport:
    """The bialgebra axiom checks with a fresh ``monoids.comult`` call for every
    expansion they need, so a monomial met k times is expanded k times."""
    if box < 1:
        raise ValueError("box must be at least 1")
    points = box_lattice_points(region, box)
    expansions = {u: monoids.comult(rule, u) for u in points}
    checks = []

    witness = None
    for u, t in expansions.items():
        for (left, right) in t.support():
            if not (region.contains(left) and region.contains(right)):
                escaped = left if not region.contains(left) else right
                witness = {"monomial": list(u), "escaped": list(escaped)}
                break
        if witness:
            break
    checks.append(CheckResult("cone-closure", witness))

    for name, keep in (("counit-left", "right"), ("counit-right", "left")):
        witness = None
        for u, t in expansions.items():
            collapsed = LaurentElement(
                [
                    (right if keep == "right" else left, coef)
                    for (left, right), coef in t.terms()
                    if (left if keep == "right" else right)[0] == 0
                ]
            )
            if collapsed != LaurentElement.monomial(u):
                witness = {"monomial": list(u)}
                break
        checks.append(CheckResult(name, witness))

    witness = None
    for u, t in expansions.items():
        lhs = []
        rhs = []
        for (left, right), coef in t.terms():
            lhs += [((l2, r2, right), coef * c2) for (l2, r2), c2 in monoids.comult(rule, left).terms()]
            rhs += [((left, l2, r2), coef * c2) for (l2, r2), c2 in monoids.comult(rule, right).terms()]
        if _merge(lhs) != _merge(rhs):
            witness = {"monomial": list(u)}
            break
    checks.append(CheckResult("coassociativity", witness))

    witness = None
    for u, v in combinations_with_replacement(points, 2):
        product = monoids.comult(rule, (u[0] + v[0], u[1] + v[1]))
        if product != expansions[u] * expansions[v]:
            witness = {"pair": [list(u), list(v)]}
            break
    checks.append(CheckResult("multiplicativity", witness))

    return VerificationReport(tuple(checks))


def rand_fraction(rng, lo: int = -9, hi: int = 9, dmax: int = 7) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, dmax))


def rand_nonzero_fraction(rng, lo: int = -9, hi: int = 9, dmax: int = 7) -> Fraction:
    while True:
        q = rand_fraction(rng, lo, hi, dmax)
        if q:
            return q


def add_laurent_keys(k1, k2):
    return (k1[0] + k2[0], k1[1] + k2[1])


def add_tensor_keys(k1, k2):
    return (add_laurent_keys(k1[0], k2[0]), add_laurent_keys(k1[1], k2[1]))


def sparse_sum(*terms_lists) -> dict:
    """Sum of ``(key, coefficient)`` lists as ``{key: Fraction}``, zero terms dropped."""
    out: dict = {}
    for terms in terms_lists:
        for key, c in terms:
            out[key] = out.get(key, Fraction(0)) + Fraction(c)
    return {k: c for k, c in out.items() if c}


def sparse_product(f: dict, g: dict, add) -> dict:
    """Product of two ``{key: Fraction}`` sums by a literal double loop."""
    return sparse_sum([(add(k1, k2), c1 * c2) for k1, c1 in f.items() for k2, c2 in g.items()])


def sparse_power(f: dict, k: int, unit, add) -> dict:
    """``f`` multiplied into the unit ``k`` times, one factor at a time."""
    out = {unit: Fraction(1)}
    for _ in range(k):
        out = sparse_product(out, f, add)
    return out


def sparse_json(f: dict, fields: tuple[str, ...]) -> list[dict]:
    """Canonical JSON of ``{key: Fraction}``: keys sorted, coefficients as ``str``."""
    rows = []
    for key in sorted(f):
        legs = (key,) if len(fields) == 1 else key
        rows.append({**{name: list(leg) for name, leg in zip(fields, legs)}, "coef": str(f[key])})
    return rows
