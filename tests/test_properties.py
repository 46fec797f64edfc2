"""Property tests of the exact ring over a small variable table, of the
central character at constant weights, and of the Casimir on sections whose
numerators mix left weights."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pgl3dops import pgl3 as P
from pgl3dops.ring import (Poly, RatFunc, VarTable, evaluate_text,
                           parse_ratfunc)
from pgl3dops.weyl import PowerSection
from test_pgl3 import _composed_casimir, _row_homogeneous

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


images = st.dictionaries(st.sampled_from(TABLE.names), polys, min_size=1).map(
    lambda m: {name: RatFunc.from_poly(p) for name, p in m.items()})


@SETTINGS
@given(polys, images)
def test_polynomial_substitution_matches_the_fraction_route(p, mapping):
    # the Poly route wraps once; the fraction route multiplies fractions
    got = p.substitute(mapping)
    want = p._substituted(TABLE, mapping, RatFunc.from_poly)
    assert got.den.is_one() and want.den.is_one()
    assert got.num.terms == want.num.terms


@SETTINGS
@given(polys, polys, nonzero, st.tuples(coeffs, coeffs, coeffs))
def test_substitution_with_a_fraction_image(p, y_image, den, point):
    # one non-polynomial image: the value at a point is p at the images
    mapping = {"x": RatFunc(TABLE.var("y"), den),
               "y": RatFunc.from_poly(y_image)}
    values = dict(zip(TABLE.names, point))
    assume(den.evaluate(values) != 0)
    at = {"x": mapping["x"].evaluate(values), "y": y_image.evaluate(values),
          "m": values["m"]}
    assert p.substitute(mapping).evaluate(values) == p.evaluate(at)


def test_a_fraction_image_takes_the_fraction_route(monkeypatch):
    lifts = []
    route = Poly._substituted

    def spy(self, target, mapping, lift):
        lifts.append(lift)
        return route(self, target, mapping, lift)

    monkeypatch.setattr(Poly, "_substituted", spy)
    x, y = TABLE.var("x"), TABLE.var("y")
    f = x * x + y
    got = f.substitute({"x": RatFunc(TABLE.one(), y + TABLE.one()),
                        "y": RatFunc.from_poly(y)})
    assert lifts == [RatFunc.from_poly]
    assert got == RatFunc(1 + y * (y + 1) * (y + 1), (y + 1) * (y + 1))
    f.substitute({"x": RatFunc.from_poly(y)})
    assert lifts[1] is not RatFunc.from_poly


@SETTINGS
@given(st.integers(-30, 30), st.integers(-30, 30))
def test_central_character_at_constant_weights(a, b):
    # the Fraction route equals the symbolic formula evaluated at (a, b)
    t = P.MATRIX_TABLE
    symbolic = P.central_character(t.var("nu1"), t.var("nu2"))
    value = symbolic.evaluate({"nu1": a, "nu2": b})
    for mu in ((a, b), (t.const(a), t.const(b))):
        chi = P.central_character(*mu)
        assert chi.den.is_one() and chi.table is t
        assert chi.num == t.const(value)


ROW_PATTERNS = ((), (1,), (2,), (3,), (1, 1), (1, 2), (2, 3), (3, 3))


@settings(deadline=None, max_examples=12)
@given(st.randoms(use_true_random=False), st.booleans(),
       st.lists(st.sampled_from(ROW_PATTERNS), min_size=2, max_size=3,
                unique=True))
def test_casimir_on_mixed_numerators_is_the_composed_operator(rng, symbolic,
                                                              patterns):
    # each row pattern has its own left weight, over bases shared by all
    t = P.MATRIX_TABLE
    num = sum((_row_homogeneous(rng, rows) for rows in patterns),
              start=t.zero())
    bases = [P.gvar(rng.randint(1, 3), rng.randint(1, 3)),
             P.minor(rng.randint(1, 3), rng.randint(1, 3)), P.det_g()]
    factors = []
    for base in rng.sample(bases, rng.randint(1, 2)):
        exp = t.const(rng.randint(-3, 4))
        if symbolic:
            m = t.var(rng.choice(P.PARAMS[:4]))
            exp = exp + m.scale(rng.randint(-2, 2))
        factors.append((base, exp))
    s = PowerSection(P.MATRIX, num, factors)
    assert P.casimir_apply(s) == _composed_casimir(s)
