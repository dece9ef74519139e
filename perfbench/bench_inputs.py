"""Seeded inputs for the benchmark workloads.

Every workload is a sequence of rounds.  A round is a list of CLI argv lists
(subcommand first) drawn from ``random.Random`` seeded by the workload name,
the seed and the round index, so the same seed always yields the same rounds
and any round can be regenerated on its own.

A round always has the same slots: three light, four medium and three heavy
operations, shuffled.  Fixed slots keep one run's mix like another's, so the
median sits in the middle of the medium class and the 90th percentile inside
the heavy class whatever the seed draws.  The parameters inside each slot are drawn
from the seed.

Root pairs, chart points and cones are built with the benchmark's own
integer arithmetic; nothing here imports the package under test.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

WORKLOADS = ("verify", "expand", "geometry")
OPS_PER_ROUND = 10

# Tiny fixed invocations, one per subcommand, run during set-up to warm the
# interpreter and the bytecode cache.
WARMUP = {
    "verify": [["verify", '{"family": "Group", "n": 1}', "--box", "1"]],
    "expand": [
        ["comult", '{"family": "Group", "n": 1}', "--monomial", "[2, 0]"],
        ["multiply", '{"family": "X", "n": 1, "a": 1, "b": 1}', "--p", '["1", "2"]', "--q", '["3", "4"]'],
    ],
    "geometry": [
        ["catalog", "--n-max", "1", "--a-max", "1", "--b-max", "1", "--k-max", "1"],
        ["roots", '{"rays": [[0, 1], [1, 0]], "ambient": "N"}', "--ray", "0", "--bound", "2"],
        ["classify", '{"halfplane": true}', "--n", "1"],
    ],
}


def round_ops(workload: str, seed: int, index: int) -> list[list[str]]:
    """The argv lists of one round, in the order they are run."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    ops = _GENERATORS[workload](rng)
    rng.shuffle(ops)
    return ops


def rounds(workload: str, seed: int, count: int) -> list[list[list[str]]]:
    return [round_ops(workload, seed, i) for i in range(count)]


# --- shared integer geometry -------------------------------------------------


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, s, t)`` with ``s*a + t*b = g = gcd(a, b) >= 0``."""
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def det(p, q) -> int:
    return p[0] * q[1] - p[1] * q[0]


def dot(p, q) -> int:
    return p[0] * q[0] + p[1] * q[1]


def coprime_pair(rng: random.Random, a_max: int, b_max: int) -> tuple[int, int]:
    while True:
        a, b = rng.randint(1, a_max), rng.randint(0, b_max)
        if math.gcd(a, b) == 1:
            return a, b


def random_n_cone(rng: random.Random, coord: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Two primitive, non-parallel rays in canonical (sorted) order."""
    while True:
        rays = []
        while len(rays) < 2:
            p = (rng.randint(-coord, coord), rng.randint(-coord, coord))
            if p != (0, 0) and math.gcd(*p) == 1:
                rays.append(p)
        if det(*rays) != 0:
            return tuple(sorted(rays))


def root_line(rays, ray_index: int) -> tuple[tuple[int, int], tuple[int, int], int]:
    """Roots at ``rays[ray_index]`` are ``e0 + k*v`` for every integer ``k >= k0``.

    ``<e0, p_i> = -1`` comes from an extended gcd, ``v`` is orthogonal to
    ``p_i`` and oriented so that ``<e, p_j>`` grows with ``k``, and ``k0`` is
    the least ``k`` with ``<e, p_j> >= 0``.
    """
    p, q = rays[ray_index], rays[1 - ray_index]
    _, s, t = ext_gcd(p[0], p[1])
    e0 = (-s, -t)
    v = (-p[1], p[0])
    if dot(v, q) < 0:
        v = (-v[0], -v[1])
    step = dot(v, q)
    k0 = -(dot(e0, q) // step)  # least k with dot(e0, q) + k*step >= 0
    return e0, v, k0


def roots_in_box(rays, ray_index: int, bound: int) -> list[tuple[int, int]]:
    """All roots at ``rays[ray_index]`` with both coordinates in [-bound, bound], sorted."""
    e0, v, k0 = root_line(rays, ray_index)
    span = bound + max(abs(e0[0]), abs(e0[1])) + 1  # |k| beyond this leaves the box
    out = []
    for k in range(max(k0, -span), span + 1):
        e = (e0[0] + k * v[0], e0[1] + k * v[1])
        if abs(e[0]) <= bound and abs(e[1]) <= bound:
            out.append(e)
    return sorted(out)


def region_columns(spec: dict, box: int) -> list[tuple[int, int]]:
    """``(x, count)`` of the region's lattice points in the box, one entry per column."""
    fam, n = spec["family"], spec["n"]
    cols = []
    for x in range(0, box + 1):
        if fam == "Group":
            lo, hi = -box, box
        elif fam == "X":
            a, b = spec["a"], spec["b"]
            lo, hi = max(-box, -((-b * x) // a)), box
        else:
            a, c = spec["a"], n * spec["a"] + spec["b"]
            lo, hi = -box, min(box, (-c * x) // a)
        if hi >= lo:
            cols.append((x, hi - lo + 1))
    return cols


def box_points(spec: dict, box: int) -> int:
    """Number of region monomials ``verify --box`` checks (the verify item count)."""
    return sum(count for _, count in region_columns(spec, box))


def verify_cost(spec: dict, box: int) -> int:
    """Cost model of ``verify``: (sum over box monomials of comult terms)^2.

    Multiplicativity multiplies the expansions of every monomial pair, and
    the expansion of ``x^a y^b`` has ``a + 1`` terms.
    """
    return sum((x + 1) * count for x, count in region_columns(spec, box)) ** 2


def random_spec(rng: random.Random, family: str, n_max: int = 6, ab_max: int = 6) -> dict:
    n = rng.randint(1, n_max)
    if family == "Group":
        return {"family": "Group", "n": n}
    a, b = coprime_pair(rng, ab_max, ab_max)
    return {"family": family, "n": n, "a": a, "b": b}


def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 999), rng.randint(1, 999))


# --- verify ------------------------------------------------------------------

_VERIFY_SLOTS = (
    # (family or None for a random surface family, target cost)
    ("Group", 4_900), ("X", 3_500), ("Y", 3_500),
    ("Group", 18_225), ("X", 10_000), ("Y", 10_000), (None, 10_000),
    ("X", 20_000), ("Y", 20_000), (None, 20_000),
)


def _verify_round(rng: random.Random) -> list[list[str]]:
    ops = []
    for family, target in _VERIFY_SLOTS:
        spec = random_spec(rng, family or rng.choice(("X", "Y")))
        ops.append(["verify", json.dumps(spec), "--box", str(_box_for(spec, target))])
    return ops


def _box_for(spec: dict, target: int) -> int:
    """The box whose cost is nearest ``target`` on a log scale (cost grows with the box)."""
    box = 1
    while verify_cost(spec, box) < target and box < 120:
        box += 1
    if box > 1 and verify_cost(spec, box) * verify_cost(spec, box - 1) > target * target:
        box -= 1
    return box


# --- expand ------------------------------------------------------------------


def _comult_spec_op(rng: random.Random, a: int) -> list[str]:
    spec = random_spec(rng, rng.choice(("Group", "X", "Y")), n_max=5)
    if spec["family"] == "Group":
        y = rng.randint(-50, 50)
    elif spec["family"] == "X":
        y = -((-spec["b"] * a) // spec["a"]) + rng.randint(0, 50)
    else:
        y = (-(spec["n"] * spec["a"] + spec["b"]) * a) // spec["a"] - rng.randint(0, 50)
    return ["comult", json.dumps(spec), "--monomial", json.dumps([a, y])]


def _comult_pair_op(rng: random.Random, d_target: int) -> list[str]:
    rays = random_n_cone(rng, 4)
    i = rng.randint(0, 1)
    p, q = rays[i], rays[1 - i]
    e0, v, k0 = root_line(rays, i)
    roots = [(e0[0] + k * v[0], e0[1] + k * v[1]) for k in (k0 + rng.randint(0, 3), k0 + rng.randint(0, 3))]
    w_a = (-q[1], q[0]) if dot((-q[1], q[0]), p) > 0 else (q[1], -q[0])  # orthogonal to q
    w_b = (-p[1], p[0]) if dot((-p[1], p[0]), q) > 0 else (p[1], -p[0])  # orthogonal to p
    lam = max(1, round(d_target / dot(w_a, p)))
    mu = rng.randint(0, 20)
    u = [lam * w_a[0] + mu * w_b[0], lam * w_a[1] + mu * w_b[1]]
    pair = [{"e": list(e), "ray_index": i} for e in roots]
    cone = {"rays": [list(r) for r in rays], "ambient": "N"}
    return ["comult", json.dumps(cone), "--monomial", json.dumps(u), "--pair", json.dumps(pair)]


def _multiply_op(rng: random.Random) -> list[str]:
    chart = rng.choice(("X1", "Y1", "X2"))
    n = rng.randint(1, 5)
    if chart == "X2":
        spec = {"family": "X", "n": n, "a": 2, "b": 2 * rng.randint(30, 80) + 1}
        points = []
        for _ in range(2):
            r, w = rational(rng), rational(rng)
            points.append((r, r * w, r * w * w))  # on the chart relation x*z = y^2
    else:
        spec = {"family": chart[0], "n": n, "a": 1, "b": rng.randint(60, 160)}
        points = [(rational(rng), rational(rng)) for _ in range(2)]
    p, q = (json.dumps([str(c) for c in pt]) for pt in points)
    return ["multiply", json.dumps(spec), "--p", p, "--q", q]


def _expand_round(rng: random.Random) -> list[list[str]]:
    ops = [_multiply_op(rng) for _ in range(3)]
    ops += [_comult_spec_op(rng, rng.randint(700, 900)) for _ in range(2)]
    ops += [_comult_pair_op(rng, rng.randint(700, 900)) for _ in range(2)]
    ops.append(_comult_spec_op(rng, rng.randint(1800, 2000)))
    ops.append(_comult_pair_op(rng, rng.randint(1800, 2000)))
    ops.append(rng.choice((_comult_spec_op, _comult_pair_op))(rng, rng.randint(1800, 2000)))
    return ops


# --- geometry ----------------------------------------------------------------


def _classify_op(rng: random.Random, kind: str) -> list[str]:
    n = rng.randint(1, 5)
    if kind == "halfplane":
        return ["classify", json.dumps({"halfplane": True}), "--n", str(n)]
    a, b = coprime_pair(rng, 12, 12)
    if kind == "X":
        rays = [[0, 1], [a, b]]
    elif kind == "Generic":  # both rays off the axis: never a monoid
        rays = []
        while len(rays) < 2 or det(*rays) == 0:
            rays = [list(coprime_pair(rng, 12, 12)), list(coprime_pair(rng, 12, 12))]
            rays = [[x, y * rng.choice((-1, 1))] for x, y in rays]
    else:  # a Y cone, read with a weight that fits (Y) or one that does not (Ybad)
        c = n * a + b
        rays = [[0, -1], [a, -c]]
        n = rng.randint(1, c // a) if kind == "Y" else c // a + rng.randint(1, 3)
    rng.shuffle(rays)
    return ["classify", json.dumps({"rays": rays, "ambient": "M"}), "--n", str(n)]


def _roots_op(rng: random.Random) -> list[str]:
    # Roots step along the box by the distinguished ray's largest coordinate;
    # fixing it at 4 keeps the root count of one op near bound / 4.
    i = rng.randint(0, 1)
    rays = random_n_cone(rng, 6)
    while max(map(abs, rays[i])) != 4:
        rays = random_n_cone(rng, 6)
    cone = {"rays": [list(r) for r in rays], "ambient": "N"}
    return ["roots", json.dumps(cone), "--ray", str(i), "--bound", str(rng.randint(100, 110))]


def _catalog_op(rng: random.Random) -> list[str]:
    return [
        "catalog",
        "--n-max", "1",
        "--a-max", str(rng.randint(10, 11)),
        "--b-max", str(rng.randint(10, 11)),
        "--k-max", str(rng.randint(4, 8)),
    ]


def _geometry_round(rng: random.Random) -> list[list[str]]:
    kinds = [rng.choice(("X", "halfplane")), "Y", rng.choice(("Ybad", "Generic"))]
    ops = [_classify_op(rng, k) for k in kinds]
    ops += [_catalog_op(rng) for _ in range(4)]
    ops += [_roots_op(rng) for _ in range(3)]
    return ops


_GENERATORS = {"verify": _verify_round, "expand": _expand_round, "geometry": _geometry_round}
