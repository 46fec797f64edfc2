"""Property tests of the exact ring over a small variable table."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pgl3dops.ring import (Poly, RatFunc, VarTable, evaluate_text,
                           parse_ratfunc)

TABLE = VarTable(coords=("x", "y"), params=("m",))

coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(
    lambda c: c != 0)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
polys = st.dictionaries(exponents, coeffs, max_size=4).map(
    lambda terms: Poly(TABLE, terms))
nonzero = st.dictionaries(exponents, coeffs, min_size=1, max_size=4).map(
    lambda terms: Poly(TABLE, terms))

SETTINGS = settings(deadline=None, max_examples=40)


@SETTINGS
@given(polys, nonzero)
def test_text_round_trip(n, d):
    f = RatFunc(n, d)
    assert parse_ratfunc(f.to_text(), TABLE) == f
    assert parse_ratfunc(n.to_text(), TABLE) == RatFunc.from_poly(n)


@SETTINGS
@given(polys, nonzero)
def test_divide_exact_inverts_multiplication(p, q):
    assert (p * q).divide_exact(q) == p
    assert RatFunc(p * q, q).to_text() == p.to_text()


@SETTINGS
@given(polys, nonzero, nonzero)
def test_fraction_equality_ignores_a_common_factor(n, d, h):
    assert RatFunc(n * h, d * h) == RatFunc(n, d)


@SETTINGS
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero()


@SETTINGS
@given(polys, st.one_of(st.integers(-20, 20), coeffs))
def test_number_coercion_in_sums(p, n):
    assert p + n == n + p == p + TABLE.const(n)
    assert p - n == p + TABLE.const(-n)


@SETTINGS
@given(polys, st.tuples(coeffs, coeffs, coeffs))
def test_evaluate_text_matches_evaluate(p, point):
    values = dict(zip(TABLE.names, point))
    assert evaluate_text(p.to_text(), values) == p.evaluate(values)
