"""The package's value classes behave as frozen dataclasses did, without importing them.

Every class is checked against one table: equality and hashing on the field
tuple and only within the class, the exact repr, immutability, ``copy`` and
``pickle`` round trips, and keyword construction with defaults.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import toricmonoids
from toricmonoids import (
    BoundaryInfo,
    CheckResult,
    ComultRule,
    Cone2,
    DemazureRoot,
    DerivationRule,
    HalfPlane,
    LatticeMap,
    LatticePoint,
    M,
    MonoidSpec,
    N,
    RootPair,
    VerificationReport,
)
from toricmonoids.monoids import Family

ROOT = DemazureRoot(LatticePoint(-1, 0), 1)
ROOT_2 = DemazureRoot(LatticePoint(-1, 1), 1)

# (class, every field by keyword in declaration order, the fields left to
# their defaults in the defaults check, the repr a frozen dataclass gave)
TABLE = [
    (
        LatticePoint,
        {"x": 1, "y": -2, "ambient": N},
        {"ambient": M},
        "LatticePoint(x=1, y=-2, ambient='N')",
    ),
    (
        Cone2,
        {"rays": (LatticePoint(0, 1), LatticePoint(2, 3)), "ambient": M},
        {"ambient": M},
        "Cone2(rays=(LatticePoint(x=0, y=1, ambient='M'), LatticePoint(x=2, y=3, ambient='M')),"
        " ambient='M')",
    ),
    (LatticeMap, {"a": 1, "b": 0, "c": -2, "d": -1}, {}, "LatticeMap(a=1, b=0, c=-2, d=-1)"),
    (
        DerivationRule,
        {"root": LatticePoint(-1, 0), "ray": LatticePoint(1, 0, N)},
        {},
        "DerivationRule(root=LatticePoint(x=-1, y=0, ambient='M'),"
        " ray=LatticePoint(x=1, y=0, ambient='N'))",
    ),
    (
        DemazureRoot,
        {"e": LatticePoint(-1, 0), "ray_index": 1},
        {},
        "DemazureRoot(e=LatticePoint(x=-1, y=0, ambient='M'), ray_index=1)",
    ),
    (
        RootPair,
        {"e1": ROOT, "e2": ROOT_2},
        {},
        "RootPair(e1=DemazureRoot(e=LatticePoint(x=-1, y=0, ambient='M'), ray_index=1),"
        " e2=DemazureRoot(e=LatticePoint(x=-1, y=1, ambient='M'), ray_index=1))",
    ),
    (
        MonoidSpec,
        {"family": Family.X, "n": 1, "a": 2, "b": 3},
        {},
        "MonoidSpec(family=<Family.X: 'X'>, n=1, a=2, b=3)",
    ),
    (
        MonoidSpec,
        {"family": Family.GROUP, "n": 2, "a": None, "b": None},
        {"a": None, "b": None},
        "MonoidSpec(family=<Family.GROUP: 'Group'>, n=2, a=None, b=None)",
    ),
    (HalfPlane, {"ambient": M}, {"ambient": M}, "HalfPlane(ambient='M')"),
    (ComultRule, {"n": 2}, {}, "ComultRule(n=2)"),
    (
        BoundaryInfo,
        {"left_weight": 5, "right_weight": 3, "has_zero": True},
        {},
        "BoundaryInfo(left_weight=5, right_weight=3, has_zero=True)",
    ),
    (
        CheckResult,
        {"name": "counit-left", "witness": None},
        {"witness": None},
        "CheckResult(name='counit-left', witness=None)",
    ),
    (
        VerificationReport,
        {"checks": (CheckResult("cone-closure"),)},
        {},
        "VerificationReport(checks=(CheckResult(name='cone-closure', witness=None),))",
    ),
]
# Each ID keeps the row number it had while the table's row 1 was the removed
# RationalPoint, so a test's history reads under one ID.
IDS = [f"{cls.__name__}-{i + (i > 0)}" for i, (cls, *_) in enumerate(TABLE)]


def test_table_covers_every_value_class():
    assert {cls for cls, *_ in TABLE} == {
        LatticePoint, Cone2, LatticeMap, DerivationRule, DemazureRoot,
        RootPair, MonoidSpec, HalfPlane, ComultRule, BoundaryInfo, CheckResult,
        VerificationReport,
    }


@pytest.mark.parametrize("cls, fields, defaults, text", TABLE, ids=IDS)
class TestValueClassParity:
    def test_equal_fields_equal_and_hash_equal(self, cls, fields, defaults, text):
        a, b = cls(**fields), cls(*fields.values())
        assert a == b and not (a != b)
        try:
            expected = hash(tuple(fields.values()))
        except TypeError:  # a list field: unhashable, as with the dataclass
            with pytest.raises(TypeError):
                hash(a)
            return
        assert hash(a) == hash(b) == expected

    def test_unequal_to_its_field_tuple(self, cls, fields, defaults, text):
        obj = cls(**fields)
        values = tuple(fields.values())
        assert obj != values and not (obj == values)
        assert obj.__eq__(values) is NotImplemented

    def test_repr(self, cls, fields, defaults, text):
        assert repr(cls(**fields)) == text

    def test_frozen(self, cls, fields, defaults, text):
        obj = cls(**fields)
        name = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(obj, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.not_a_field = 1
        assert getattr(obj, name) == fields[name]

    def test_copy_and_pickle_round_trip(self, cls, fields, defaults, text):
        obj = cls(**fields)
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is cls
            assert twin == obj
            assert repr(twin) == text
            with pytest.raises(AttributeError):
                setattr(twin, next(iter(fields)), None)

    def test_keywords_and_defaults(self, cls, fields, defaults, text):
        given_fields = {k: v for k, v in fields.items() if k not in defaults}
        obj = cls(**given_fields)
        for name, value in {**given_fields, **defaults}.items():
            assert getattr(obj, name) == value
        assert cls.__match_args__ == tuple(fields)

    def test_missing_argument(self, cls, fields, defaults, text):
        required = [k for k in fields if k not in defaults]
        if not required:
            assert cls() == cls(**fields)
            return
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in fields.items() if k != required[0]})


class TestDerivedValues:
    """Values read from other fields are properties, never stored or given."""

    @pytest.mark.parametrize("has_zero", [True, False])
    def test_idempotent_line_is_not_has_zero(self, has_zero):
        info = BoundaryInfo(2, 1, has_zero)
        assert info.idempotent_line is (not has_zero)
        assert info.to_json() == {
            "left_weight": 2, "right_weight": 1, "has_zero": has_zero, "idempotent_line": not has_zero,
        }
        with pytest.raises(AttributeError):
            info.idempotent_line = has_zero

    def test_four_argument_boundary_info_refused(self):
        with pytest.raises(TypeError):
            BoundaryInfo(1, 0, False, True)

    @pytest.mark.parametrize(
        "witness, status",
        [(None, "pass"), ({"monomial": [1, 0]}, "fail"), ({"pair": [[0, 1], [1, 0]]}, "fail")],
        ids=["none", "monomial", "pair"],
    )
    def test_check_status_and_passed_read_from_the_witness(self, witness, status):
        check = CheckResult("coassociativity", witness)
        assert (check.status, check.passed) == (status, status == "pass")
        assert check.to_json() == {"name": "coassociativity", "status": status, "witness": witness}
        for name in ("status", "passed"):
            with pytest.raises(AttributeError):
                setattr(check, name, "pass")

    @pytest.mark.parametrize("witness", ["pass", "fail", [1, 0], 0, True])
    def test_check_witness_that_is_not_a_dict_refused(self, witness):
        with pytest.raises(ValueError, match="witness is a dict or None"):
            CheckResult("cone-closure", witness)


class _OtherPoint(LatticePoint):
    """A second class with the fields of ``LatticePoint``."""


def test_points_of_two_classes_with_equal_fields_are_unequal():
    assert LatticePoint(1, 2) != _OtherPoint(1, 2)
    assert _OtherPoint(1, 2) != LatticePoint(1, 2)
    assert len({LatticePoint(1, 2), _OtherPoint(1, 2)}) == 2


def test_match_by_position():
    match LatticePoint(3, -4, N):
        case LatticePoint(x, y, ambient):
            assert (x, y, ambient) == (3, -4, N)
        case _:
            pytest.fail("LatticePoint did not match its own class pattern")


def test_lattice_point_order_against_other_types():
    with pytest.raises(TypeError):
        LatticePoint(0, 0) < (1, 1)
    with pytest.raises(TypeError):
        LatticePoint(0, 0) <= _OtherPoint(0, 0)
    assert LatticePoint(0, 0, M) < LatticePoint(0, 0, N)
    assert LatticePoint(0, 0, N) >= LatticePoint(0, 0, M)


_points = st.builds(
    LatticePoint, st.integers(-3, 3), st.integers(-3, 3), st.sampled_from([M, N])
)


@given(st.lists(_points, max_size=12))
def test_sorting_points_sorts_their_field_tuples(points):
    assert [(p.x, p.y, p.ambient) for p in sorted(points)] == sorted(
        (p.x, p.y, p.ambient) for p in points
    )
    for p in points:
        for q in points:
            key_p, key_q = (p.x, p.y, p.ambient), (q.x, q.y, q.ambient)
            assert (p < q, p <= q, p > q, p >= q) == (
                key_p < key_q, key_p <= key_q, key_p > key_q, key_p >= key_q
            )


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """A fresh interpreter without ``site``: the package import pulls in none of them."""
    src = str(Path(toricmonoids.__file__).resolve().parent.parent)
    code = (
        "import sys, toricmonoids.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
