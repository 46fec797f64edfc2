"""Conics-model tests: parametrization, globality evidence, sl3 action."""

from fractions import Fraction

from pgl3dops import conics as C
from pgl3dops import pgl3 as P
from pgl3dops.ring import RatFunc
from pgl3dops.weyl import commutator, op_apply, parse_operator, regular_on


def test_identity_point():
    s, sp = C.parametrization()
    point = {"u12": 0, "u13": 0, "u23": 0, "x": 1, "y": 1}
    for i in range(3):
        for j in range(3):
            assert s[i][j].evaluate(point) == Fraction(int(i == j))
            assert sp[i][j].evaluate(point) == Fraction(int(i == j))


def test_membership_identity():
    defects, scalar = C.membership_defect()
    assert all(d.is_zero() for d in defects)
    assert scalar == C.CONIC_TABLE.var("x") * C.CONIC_TABLE.var("y")


def test_rank_one_boundary():
    assert all(m.is_zero() for m in C.boundary_rank_one_minors())


def test_entry_chart_roundtrip():
    assert C.map_conic_to_entry().roundtrip_checks()


def test_mixed_derivative_monomials():
    d = C.mixed_derivative_conic()
    t = C.CONIC_TABLE
    for a, b in ((1, 1), (4, 2)):
        f = RatFunc.from_poly(t.var("x") ** a * t.var("y") ** b)
        want = RatFunc.from_poly(
            t.var("x") ** (a - 1) * t.var("y") ** (b - 1)).scale(a * b)
        assert op_apply(d, f) == want


def test_transported_operator_regular_and_explicit():
    op = C.mixed_derivative_entry()
    ok, witness = regular_on(op, C.ENTRY)
    assert ok and witness is None
    expected = parse_operator(
        "(s22 - s12^2) * d/ds22 d/ds33 + (s23 - s12*s13) * d/ds23 d/ds33"
        " + (s33 - s13^2) * d/ds33^2 + d/ds33", C.ENTRY)
    assert op == expected


def test_nilpotency_depths_finite():
    depths = C.cone_nilpotency_depths(12)
    assert all(v is not None and v <= 12 for v in depths.values())


def test_euler_bihomogeneity():
    d = C.mixed_derivative_cone()
    assert commutator(d, C.euler_field_cone("S")).is_zero()
    assert commutator(d, C.euler_field_cone("T")).is_zero()


def test_bracket_table():
    assert P.bracket_defects(C.generator_field_cone, C.action_field_cone) == []


def test_twisted_operator_specialises():
    tw = C.twisted_mixed_derivative()
    assert tw.order() == 2
    zero = {n: RatFunc.const(C.CONE_TABLE, 0) for n in ("lam1", "lam2")}
    from pgl3dops.weyl import DiffOp
    at0 = DiffOp(C.CONE, {K: c.substitute(zero) for K, c in tw.terms.items()})
    assert at0 == C.mixed_derivative_cone()
