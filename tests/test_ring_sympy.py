"""sympy as an independent oracle for the exact ring: products, exact
quotients and fraction values on random polynomials.  sympy is a test-only
import; the package never needs it."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from pgl3dops.ring import Poly, RatFunc, VarTable  # noqa: E402

TABLE = VarTable(coords=("x", "y"), params=("m",))
SYMBOLS = sympy.symbols(TABLE.names)


def _rand_poly(rng, nterms=4, deg=3):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        exp = tuple(rng.randint(0, deg) for _ in TABLE.names)
        c = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 9)))
        terms[exp] = terms.get(exp, 0) + c
    return Poly(TABLE, terms)


def _nonzero(rng, **kw):
    while True:
        p = _rand_poly(rng, **kw)
        if not p.is_zero():
            return p


def _sympy(p: Poly):
    out = sympy.Integer(0)
    for exp, c in p.terms_as_tuples().items():
        c = Fraction(c)
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(SYMBOLS, exp):
            term *= s ** e
        out += term
    return out


def _same_value(f: RatFunc, want) -> bool:
    """f equals the sympy fraction ``want``, compared by cross multiplication
    with the numerator and denominator that ``sympy.cancel`` gives."""
    num, den = sympy.fraction(sympy.cancel(want))
    return sympy.expand(_sympy(f.num) * den - num * _sympy(f.den)) == 0


def test_products_match_sympy_expand():
    rng = random.Random(301)
    for _ in range(40):
        p, q = _rand_poly(rng), _rand_poly(rng)
        assert sympy.expand(_sympy(p * q) - _sympy(p) * _sympy(q)) == 0


def test_exact_quotients_and_failures_match_sympy_div():
    rng = random.Random(302)
    exact = failed = 0
    for _ in range(40):
        q, d, r = _rand_poly(rng), _nonzero(rng, deg=2), _rand_poly(rng)
        for p in (q * d, q * d + r):
            want_q, want_r = sympy.div(_sympy(p), _sympy(d), *SYMBOLS,
                                       domain="QQ")
            got = p.divide_exact(d)
            if want_r == 0:
                exact += 1
                assert got is not None
                assert sympy.expand(_sympy(got) - want_q) == 0
            else:
                failed += 1
                assert got is None
    assert exact and failed


def test_fraction_values_match_sympy_cancel():
    rng = random.Random(303)
    for _ in range(12):
        n, d, h = _rand_poly(rng), _nonzero(rng, deg=2), _nonzero(rng, deg=1)
        f = RatFunc(n * h, d * h)
        g = RatFunc(_rand_poly(rng), _nonzero(rng, deg=2))
        sf = _sympy(n) / _sympy(d)
        sg = _sympy(g.num) / _sympy(g.den)
        for got, want in ((f, sf), (f + g, sf + sg), (f * g, sf * sg),
                          (f.differentiate("x"), sympy.diff(sf, SYMBOLS[0]))):
            assert _same_value(got, want)
