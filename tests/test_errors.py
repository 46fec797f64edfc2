"""Contract error paths: every promised failure mode raises as documented."""

import pytest

from pgl3dops import pgl3 as P
from pgl3dops.ring import (ParameterDerivative, ParseError, RatFunc,
                           VarTable, ZeroDenominator, parse_ratfunc)
from pgl3dops.weyl import (Chart, ChartMap, ChartMismatch, DiffOp,
                           ExpressFailure, PowerSection, SingularJacobian,
                           express_as_multiple, parse_operator, transport)

T = VarTable(coords=("x", "y"), params=("k",))
CH = Chart("plane", T)
X = RatFunc.var(T, "x")
Y = RatFunc.var(T, "y")


def test_vartable_rejects_duplicates():
    with pytest.raises(ValueError):
        VarTable(coords=("x", "y"), params=("x",))


def test_vartable_mismatch():
    other = VarTable(coords=("u", "v"))
    from pgl3dops.ring import VarTableMismatch
    with pytest.raises(VarTableMismatch):
        T.var("x") + other.var("u")


def test_zero_denominator_everywhere():
    with pytest.raises(ZeroDenominator):
        RatFunc(T.one(), T.zero())
    with pytest.raises(ZeroDenominator):
        X / RatFunc.const(T, 0)
    with pytest.raises(ZeroDenominator):
        (RatFunc.const(T, 1) / X).evaluate({"x": 0, "y": 1, "k": 0})
    with pytest.raises(ZeroDenominator):
        (RatFunc.const(T, 1) / (X - Y)).substitute({"x": Y})


def test_evaluate_needs_every_occurring_variable():
    with pytest.raises(ValueError, match="variable y"):
        (T.var("x") + T.var("y")).evaluate({"x": 1})
    with pytest.raises(ValueError, match="variable x"):
        (T.var("y") + T.var("x")).evaluate({})
    with pytest.raises(ValueError, match="variable y"):
        (X / Y).evaluate({"x": 1})
    # a variable that does not occur needs no value
    assert (T.var("x") + T.var("y")).evaluate({"x": 1, "y": 2}) == 3


def test_constant_value_of_a_nonconstant_polynomial():
    for poly in (T.var("x"), T.var("x") + T.one(), T.var("x") + T.var("y")):
        with pytest.raises(ValueError, match="polynomial is not constant"):
            poly.constant_value()
    assert (T.var("x") - T.var("x")).constant_value() == 0


def test_parameter_derivative_rejected():
    with pytest.raises(ParameterDerivative):
        X.differentiate("k")
    with pytest.raises(ParameterDerivative):
        T.var("k").differentiate("k")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_ratfunc("x +", T)
    with pytest.raises(ParseError):
        parse_ratfunc("unknown_name", T)
    with pytest.raises(ParseError):
        parse_operator("d/dx * x", CH)    # coefficient right of a derivative
    with pytest.raises(ParseError):
        parse_operator("x / d/dx", CH)
    # an empty term, a dangling product sign, d/d of a non-coordinate
    for text in ("x +", "-", "x + + d/dx", "x *", "* x", "x * * d/dx",
                 "d/dk", "d/dz", "d/dx^\u00b2"):
        with pytest.raises(ParseError):
            parse_operator(text, CH)
    # digits are ASCII 0-9 only: a superscript or another script's decimal
    # is an unexpected character, not a number
    for text in ("\u00b2", "x^\u00b2", "1\u00b2", "\u0663", "x + \u0663"):
        with pytest.raises(ParseError):
            parse_ratfunc(text, T)


def test_chart_invariants():
    with pytest.raises(ValueError):
        Chart("bad", T, units=(T.zero(),))
    with pytest.raises(ValueError):     # no largest power of it divides
        Chart("bad", T, units=(T.const(2),))
    with pytest.raises(ValueError):
        VarTable(coords=("x", "x"))


def test_chart_mismatch_on_compose():
    from pgl3dops.weyl import op_compose
    other = Chart("other", VarTable(coords=("u", "v"), params=("k",)))
    with pytest.raises(ChartMismatch):
        op_compose(DiffOp.partial(CH, "x"), DiffOp.partial(other, "u"))


def test_singular_transport():
    # x -> u, y -> u is not invertible
    U = VarTable(coords=("u", "v"), params=("k",))
    target = Chart("uv", U)
    m = ChartMap(CH, target,
                 {"x": RatFunc.var(U, "u"), "y": RatFunc.var(U, "u")},
                 {"u": X, "v": Y})
    with pytest.raises(SingularJacobian):
        transport(DiffOp.partial(CH, "x"), m)


def test_power_section_invariants():
    with pytest.raises(ZeroDenominator):
        PowerSection(CH, T.one(), [(T.zero(), T.var("k"))])
    with pytest.raises(ValueError):
        # constant base 2 with a symbolic exponent is not representable
        PowerSection(CH, T.one(), [(T.const(2), T.var("k"))])
    # constant base with a concrete exponent folds into the numerator
    s = PowerSection(CH, T.one(), [(T.const(2), 3)])
    assert s.num == T.const(8)
    # an exponent is a parameter polynomial over the section's own table
    with pytest.raises(ValueError, match="not a polynomial in the parameters"):
        PowerSection(CH, T.one(), [(T.var("x"), T.var("x"))])
    other = VarTable(coords=("x", "y"), params=("k",))
    with pytest.raises(ValueError, match="not a polynomial in the parameters"):
        PowerSection(CH, T.one(), [(T.var("x"), other.var("k"))])


def test_equality_without_hash_is_unhashable():
    # equality is decided up to normalisation, so none of these has a hash
    for value in (X / Y, DiffOp.partial(CH, "x"),
                  PowerSection(CH, T.one(), [(T.var("x"), T.var("k"))])):
        with pytest.raises(TypeError):
            hash(value)


def test_express_failures():
    s = PowerSection(CH, T.one(), [(T.var("x"), T.var("k"))])
    with pytest.raises(ZeroDenominator):
        express_as_multiple(s, PowerSection(CH, T.zero()))
    bad = s.scale(X + Y)
    with pytest.raises(ExpressFailure) as exc:
        express_as_multiple(bad, s)
    assert exc.value.witness is not None


def test_substitution_must_keep_bases_polynomial():
    s = PowerSection(CH, T.one(), [(T.var("x"), T.var("k"))])
    inv = RatFunc.const(T, 1) / Y
    with pytest.raises(ValueError):
        s.substitute_coords({"x": inv + X})
    with pytest.raises(ZeroDenominator):
        s.substitute_coords({"x": RatFunc.const(T, 0)})


def test_section_sums_and_comparisons_check_the_chart():
    # BMINUSB shares the matrix table; the big cell has its own
    s = P.monomial_section(1, 2, (3, 2))
    on_bminusb = PowerSection(P.BMINUSB, s.num, s.factors)
    big = P.monomial_section_big(1, 2)
    zero = s.scale(0)
    for a, b in ((zero, big), (big, zero), (s, on_bminusb), (on_bminusb, s),
                 (zero, on_bminusb), (s, big)):
        with pytest.raises(ChartMismatch):
            a + b
        with pytest.raises(ChartMismatch):
            a.ratio_to(b)
        assert a != b and not a == b
    assert zero != big.scale(0)
    assert s == PowerSection(P.MATRIX, s.num, s.factors)
