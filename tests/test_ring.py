"""Exact-ring tests: ring axioms, calculus, substitution, text round trips."""

import random
from fractions import Fraction

import pytest

from pgl3dops.ring import (ParameterDerivative, Poly, RatFunc, VarTable,
                           ZeroDenominator, parse_ratfunc)


TABLE = VarTable(coords=("x", "y", "z"), params=("m1", "m2"))


def rand_poly(rng, table=TABLE, nterms=4, deg=3):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        exp = tuple(rng.randint(0, deg) if i < len(table.coords) else 0
                    for i in range(len(table.names)))
        terms[exp] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    p = table.zero()
    for exp, c in terms.items():
        p = p + Poly(table, {exp: c})
    return p


def naive_mul(p, q):
    # independent convolution oracle: plain double loop over exponent tuples
    out = {}
    for e1, c1 in p.terms_as_tuples().items():
        for e2, c2 in q.terms_as_tuples().items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + Fraction(c1) * Fraction(c2)
    return Poly(p.table, {k: v for k, v in out.items() if v != 0})


def test_additive_inverse():
    x = TABLE.var("x")
    assert (x + (-x)).is_zero()


def test_mul_identity():
    p = TABLE.var("x") * TABLE.var("y") - TABLE.var("z")
    assert p * TABLE.one() == p


def test_mul_matches_convolution_oracle():
    rng = random.Random(7)
    for _ in range(30):
        p, q = rand_poly(rng), rand_poly(rng)
        assert p * q == naive_mul(p, q)


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(15):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_rf_add_neg_cancels():
    rng = random.Random(3)
    for _ in range(10):
        num, den = rand_poly(rng), rand_poly(rng)
        if den.is_zero():
            continue
        f = RatFunc(num, den)
        assert (f + (-f)).is_zero()


def test_rf_mul_inverse_is_one():
    rng = random.Random(5)
    one = RatFunc.const(TABLE, 1)
    for _ in range(10):
        p, q = rand_poly(rng), rand_poly(rng)
        if p.is_zero() or q.is_zero():
            continue
        assert RatFunc(p, q) * RatFunc(q, p) == one


def test_rf_equality_invariant_under_common_factor():
    rng = random.Random(9)
    for _ in range(10):
        p, q, r = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        if q.is_zero() or r.is_zero():
            continue
        assert RatFunc(p, q) == RatFunc(p * r, q * r)


def test_div_by_zero_fraction():
    f = RatFunc.var(TABLE, "x")
    with pytest.raises(ZeroDenominator):
        f / RatFunc.const(TABLE, 0)


def test_differentiate_basics():
    x, y = RatFunc.var(TABLE, "x"), RatFunc.var(TABLE, "y")
    f = x * x / y
    expected = x.scale(2) / y
    assert f.differentiate("x") == expected
    with pytest.raises(ParameterDerivative):
        f.differentiate("m1")


def test_leibniz_rule_random():
    rng = random.Random(13)
    for _ in range(10):
        p, q = rand_poly(rng), rand_poly(rng)
        den = rand_poly(rng)
        if den.is_zero():
            continue
        f, g = RatFunc(p, den), RatFunc.from_poly(q)
        prod = f * g
        assert prod.differentiate("x") == \
            f.differentiate("x") * g + f * g.differentiate("x")


def test_substitute_identity_and_composition():
    rng = random.Random(17)
    x = RatFunc.var(TABLE, "x")
    y = RatFunc.var(TABLE, "y")
    for _ in range(8):
        f = RatFunc.from_poly(rand_poly(rng))
        assert f.substitute({"x": x, "y": y}) == f
        m1 = {"x": x + y, "y": x * y}
        m2 = {"x": x - y}
        composed = {"x": (x - y) + y, "y": (x - y) * y}
        lhs = f.substitute(m1).substitute(m2)
        rhs = f.substitute(composed)
        assert lhs == rhs


def test_evaluate_matches_num_den():
    rng = random.Random(19)
    point = {"x": Fraction(2, 3), "y": Fraction(-1, 2), "z": 5,
             "m1": 1, "m2": 2}
    for _ in range(10):
        p, q = rand_poly(rng), rand_poly(rng)
        if q.is_zero() or q.evaluate(point) == 0:
            continue
        f = RatFunc(p, q)
        assert f.evaluate(point) == p.evaluate(point) / q.evaluate(point)


def test_evaluate_denominator_zero():
    x = RatFunc.var(TABLE, "x")
    one = RatFunc.const(TABLE, 1)
    with pytest.raises(ZeroDenominator):
        (one / x).evaluate({"x": 0, "y": 1, "z": 1, "m1": 0, "m2": 0})


def test_exact_division():
    x, y = TABLE.var("x"), TABLE.var("y")
    p = (x + y) * (x - y)
    assert p.divide_exact(x + y) == x - y
    assert p.divide_exact(x + TABLE.one()) is None


def test_exact_quotient_cancels_at_any_size():
    # no step budget decides the normal form: the 560-term quotient is found
    x, y, z, one = (TABLE.var("x"), TABLE.var("y"), TABLE.var("z"),
                    TABLE.one())
    p, q = (x + y + z + one) ** 13, x + one
    assert len(p.terms) == 560
    for f in (RatFunc(p * q, q),
              RatFunc.from_poly(p * q) / RatFunc.from_poly(q)):
        assert f.is_poly()
        assert f.to_text() == p.to_text()


def test_const_stores_integers_as_int():
    # an integral constant is stored as an int, whatever type it came in
    for value in (3, Fraction(6, 2)):
        [(key, c)] = TABLE.const(value).terms.items()
        assert key == 0 and c == 3 and type(c) is int
    [(_, c)] = TABLE.const(Fraction(1, 2)).terms.items()
    assert c == Fraction(1, 2)
    assert TABLE.const(0).is_zero() and TABLE.const(Fraction(0)).is_zero()


def test_packed_exponent_overflow_raises():
    # exponents are packed 16 bits per variable and must stay below 2^15;
    # each of these used to wrap into the neighbouring variable
    t = VarTable(coords=("x", "y"))
    x, y = t.var("x"), t.var("y")
    with pytest.raises(OverflowError):
        y ** 40000 * y ** 40000
    with pytest.raises(OverflowError):
        x ** 70000
    with pytest.raises(OverflowError):
        y ** 16384 * y ** 16384
    with pytest.raises(ValueError):
        Poly(t, {(0, 70000): 1})
    assert (y ** 16384 * y ** 16383).terms_as_tuples() == {(0, 32767): 1}


def test_text_round_trip():
    rng = random.Random(23)
    for _ in range(12):
        p, q = rand_poly(rng), rand_poly(rng)
        if q.is_zero():
            continue
        f = RatFunc(p, q)
        text = f.to_text()
        again = parse_ratfunc(text, TABLE)
        assert again == f
        assert again.to_text() == text  # printing is bit-stable


def test_text_format_example():
    g11 = TABLE.var("x")  # stand-ins for the documented example shape
    p = g11 * g11
    assert p.to_text() == "x^2"
    q = p.scale(Fraction(3, 2)) - TABLE.var("y")
    assert q.to_text() == "(3/2)*x^2 - y"
