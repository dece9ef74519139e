"""Point arguments: every function taking a coordinate pair reads it through
``int_xy`` (lattice points) or ``exact_xy`` (rational points), so inexact
coordinates and points of the other lattice raise ``ValueError``."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from toricmonoids import (
    ComultRule,
    Cone2,
    DemazureRoot,
    LatticeMap,
    LatticePoint,
    LaurentElement,
    M,
    MonoidSpec,
    N,
    RootPair,
    TensorElement,
    chart_monomial_value,
    comult,
    comult_from_root_pair,
    comult_monomial,
    counit,
    is_demazure_root,
    pairing,
    primitive,
)
from toricmonoids.cli import main
from toricmonoids.lattice import int_xy

QUADRANT_M = Cone2.from_rays((1, 0), (0, 1), M)
QUADRANT_N = Cone2.from_rays((1, 0), (0, 1), N)
X110 = MonoidSpec.x(1, 1, 0)
PAIR = RootPair(
    DemazureRoot(LatticePoint(-1, 0, M), QUADRANT_N.ray_index((1, 0))),
    DemazureRoot(LatticePoint(-1, 1, M), QUADRANT_N.ray_index((1, 0))),
)
LAURENT = LaurentElement([((1, 0), 2), ((0, 1), 3)])
TENSOR = TensorElement([(((1, 0), (0, 0)), 5)])

# (id, call on one point, a point the call accepts, the ambient it checks or
# None, whether the reader is the rational one).
READERS = [
    ("Cone2.from_rays", lambda p: Cone2.from_rays(p, (0, 1), M), (1, 0), M, False),
    ("Cone2.ray_index", QUADRANT_M.ray_index, (1, 0), M, False),
    ("Cone2.ray_coefficients", QUADRANT_M.ray_coefficients, (1, 0), M, True),
    ("LatticeMap.apply_xy", LatticeMap(2, 1, 0, 1).apply_xy, (1, 0), None, False),
    ("LatticePoint.from_json", LatticePoint.from_json, (1, 0), None, False),
    ("LaurentElement.monomial", LaurentElement.monomial, (1, 0), M, False),
    ("LaurentElement.from_json", lambda p: LaurentElement.from_json([{"exp": p, "coef": "1"}]),
     (1, 0), M, False),
    ("LaurentElement.coefficient", LAURENT.coefficient, (1, 0), M, False),
    ("TensorElement.monomial-left", lambda p: TensorElement.monomial(p, (0, 0)), (1, 0), M, False),
    ("TensorElement.monomial-right", lambda p: TensorElement.monomial((0, 0), p), (1, 0), M, False),
    ("TensorElement.coefficient", lambda p: TENSOR.coefficient(p, (0, 0)), (1, 0), M, False),
    ("is_demazure_root", lambda p: is_demazure_root(QUADRANT_N, 0, p), (1, 0), M, False),
    ("DemazureRoot.validated", lambda p: DemazureRoot.validated(QUADRANT_N, PAIR.ray_index, p),
     (-1, 0), M, False),
    ("comult", lambda p: comult(ComultRule(2), p), (1, 0), M, False),
    ("comult_monomial", lambda p: comult_monomial(X110, p), (1, 0), M, False),
    ("comult_from_root_pair", lambda p: comult_from_root_pair(QUADRANT_N, PAIR, p),
     (1, 0), M, False),
    ("chart_monomial_value", lambda p: chart_monomial_value(X110, p, (2, 3)), (1, 0), M, False),
    ("counit", counit, (1, 0), M, False),
]


def _bad_points(good, ambient, rational):
    """Each way to spoil ``good``: a bool, float or str coordinate, a
    non-integral one for the integer reader, and the other lattice's points."""
    x, y = good
    spoilt = [("bool", (x, bool(y)) if y in (0, 1) else (bool(x), y))]
    spoilt += [("float", (float(x), y)), ("str", (str(x), y)), ("float-pair", (x + 0.5, y + 0.5))]
    if not rational:
        spoilt.append(("fraction", (Fraction(2 * x + 1, 2), y)))
    if ambient is not None:
        other = N if ambient == M else M
        spoilt.append(("other-lattice-point", LatticePoint(x, y, other)))
    return spoilt


BAD_CASES = [
    pytest.param(call, bad, id=f"{name}-{kind}")
    for name, call, good, ambient, rational in READERS
    for kind, bad in _bad_points(good, ambient, rational)
] + [
    # Functions typed to take a LatticePoint refuse a coordinate pair.
    pytest.param(LatticeMap(1, 0, 0, 1).apply, (1, 0), id="LatticeMap.apply-pair"),
    pytest.param(lambda p: pairing(p, LatticePoint(0, 1, N)), (1, 0), id="pairing-pair-left"),
    pytest.param(lambda p: pairing(LatticePoint(1, 0, M), p), (0, 1), id="pairing-pair-right"),
    pytest.param(primitive, (2, 4), id="primitive-pair"),
]


@pytest.mark.parametrize("call, bad", BAD_CASES)
def test_inexact_or_foreign_point_refused(call, bad):
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize(
    "call, good, ambient",
    [pytest.param(call, good, ambient, id=name) for name, call, good, ambient, _ in READERS],
)
def test_every_form_of_a_good_point_agrees(call, good, ambient):
    x, y = good
    forms = [(x, y), [x, y], LatticePoint(x, y, ambient or M)]
    expected = call(forms[0])
    for p in forms[1:]:
        assert call(p) == expected


@pytest.mark.parametrize(
    "probe",
    [
        lambda: Cone2.from_rays((0, 1), (1, 0)).ray_index((True, 0)),
        lambda: Cone2.from_rays((0, 1), (1, 0)).ray_coefficients((0.5, 0.5)),
        lambda: LatticeMap(1, 0, 0, 1).apply_xy((0.5, True)),
        lambda: counit((0.0, 1)),
        lambda: counit((True, 1)),
        lambda: comult(ComultRule(1), LatticePoint(1, 0, N)),
        lambda: comult_monomial(X110, LatticePoint(1, 0, N)),
        lambda: counit(LatticePoint(0, 1, N)),
        lambda: chart_monomial_value(X110, LatticePoint(1, 0, N), (2, 3)),
    ],
    ids=[
        "ray_index-bool",
        "ray_coefficients-float",
        "apply_xy-float-bool",
        "counit-float",
        "counit-bool",
        "comult-n-point",
        "comult_monomial-n-point",
        "counit-n-point",
        "chart_monomial_value-n-point",
    ],
)
def test_earlier_accepted_probes_refused(probe):
    with pytest.raises(ValueError):
        probe()


@pytest.mark.parametrize("monomial", ["[true,0]", "[1.0,0]", '["1",0]', "[0.5,0]"])
def test_cli_monomial_refused(capsys, monomial):
    code = main(["comult", json.dumps(X110.to_json()), "--monomial", monomial])
    assert code == 2
    assert "exact integer required" in capsys.readouterr().err


def test_evaluate_reads_a_torus_point():
    # A torus point is not a lattice point: rationals are fine, floats and
    # bools are refused by parse_rational with TypeError.
    assert LAURENT.evaluate((Fraction(1, 2), 3)) == 10
    for point in ((0.5, 1), (True, 1)):
        with pytest.raises(TypeError):
            LAURENT.evaluate(point)


@given(st.integers(-(10**30), 10**30), st.integers(-(10**30), 10**30), st.sampled_from([M, N]))
def test_int_xy_reads_every_form_alike(x, y, ambient):
    pair = (x, y)
    assert int_xy(pair, ambient) is pair
    for p in ([x, y], LatticePoint(x, y, ambient)):
        assert int_xy(p, ambient) == pair
        assert int_xy(p, None) == pair
        assert all(type(v) is int for v in int_xy(p, ambient))

