"""Property tests of the exact ring over a small variable table, of the
central character at constant weights, and of the Casimir on sections whose
numerators mix left weights."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pgl3dops import pgl3 as P
from pgl3dops.ring import (Poly, RatFunc, VarTable, evaluate_text,
                           parse_ratfunc)
from pgl3dops.weyl import DiffOp, PowerSection, op_apply_section
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


# -- one power-rule pass for polynomial vector fields --------------------------

M = P.MATRIX_TABLE
ACTION_FIELDS = [P.action_field_matrix(P.Generator(label, factor))
                 for label in P.GENERATOR_LABELS for factor in ("left", "right")]
ROW = [[P.gvar(i, j) for j in (1, 2, 3)] for i in (1, 2, 3)]
FIELD_BASES = (
    P.gvar(1, 1), P.gvar(2, 3), P.gvar(3, 3), P.minor(1, 1), P.minor(3, 3),
    P.minor(2, 1), P.det_g(),
    # two-row products
    sum((a * b for a, b in zip(ROW[0], ROW[1])), start=M.zero()),
    sum((a * b for a, b in zip(ROW[1], ROW[2])), start=M.zero()),
    ROW[0][0] * ROW[2][1] + ROW[0][1] * ROW[2][2].scale(2) + ROW[1][0],
)

coords = st.sampled_from(P.MATRIX_NAMES)
small_ints = st.integers(-3, 3).filter(lambda c: c != 0)


def _product(names, c, param=None):
    out = M.const(c)
    for name in names:
        out = out * M.var(name)
    return out if param is None else out * M.var(param)


monomials = st.builds(_product, st.lists(coords, max_size=3), small_ints,
                      st.one_of(st.none(), st.sampled_from(("m1", "lam2"))))
numerators = st.lists(monomials, max_size=3).map(
    lambda ts: sum(ts, start=M.zero()))
field_exponents = st.one_of(
    st.integers(-2, 3),
    st.builds(lambda k, c, name: M.var(name).scale(k) + c,
              small_ints, st.integers(-2, 2), st.sampled_from(P.PARAMS[:4])))
sections = st.builds(
    lambda num, factors: PowerSection(P.MATRIX, num, factors),
    numerators,
    st.lists(st.tuples(st.sampled_from(FIELD_BASES), field_exponents),
             max_size=3, unique_by=lambda f: FIELD_BASES.index(f[0])))
derivations = st.dictionaries(
    coords, st.lists(monomials, min_size=1, max_size=2).map(
        lambda ts: sum(ts, start=M.zero())), min_size=1, max_size=4).map(
    lambda coeffs: DiffOp.field(P.MATRIX, {
        name: RatFunc.from_poly(c) for name, c in coeffs.items()}))
fields = st.one_of(st.sampled_from(ACTION_FIELDS), derivations)


def _derivative_by_coordinate(s, name):
    # the power rule one coordinate at a time, as op_apply_section had it
    live = [(i, b, e, b.differentiate(name))
            for i, (b, e) in enumerate(s.factors)]
    live = [(i, b, e, db) for i, b, e, db in live if not db.is_zero()]
    total = s.num.differentiate(name)
    for _, b, _, _ in live:
        total = total * b
    for i, b, e, db in live:
        term = s.num * e * db
        for j, bj, _, _ in live:
            if j != i:
                term = term * bj
        total = total + term
    shifted = {i for i, *_ in live}
    return PowerSection(s.chart, total, [
        (b, e - 1 if i in shifted else e) for i, (b, e) in enumerate(s.factors)])


def _summed_route(A, s):
    """Sum over coordinates of c_i * d_i(s), then one reduce_num; and
    whether each base lost one from its exponent in every coordinate that
    reaches it.  A term that vanishes, or a running sum that passes through
    zero, drops the bases it lowered, so the stored form of the sum then
    depends on the order of the terms."""
    total, regular, added = PowerSection(s.chart, M.zero()), True, False
    for n, (K, c) in enumerate(A.terms.items(), start=1):
        name = A.chart.coords[K.index(1)]
        term = _derivative_by_coordinate(s, name).scale(c)
        total = total + term
        added |= not term.is_zero()
        reaches = any(not b.differentiate(name).is_zero() for b, _ in s.factors)
        regular &= not (term.is_zero() and reaches)
        regular &= not (total.is_zero() and added and n < len(A.terms))
    return total.reduce_num(), regular


@settings(deadline=None, max_examples=150)
@given(fields, sections)
def test_one_pass_field_action_equals_the_summed_derivatives(A, s):
    got, (want, regular) = op_apply_section(A, s), _summed_route(A, s)
    assert got == want
    if regular:
        assert (got.num, got.factors) == (want.num, want.factors)
    name = A.chart.coords[next(iter(A.terms)).index(1)]
    d, dd = s.derivative(name), _derivative_by_coordinate(s, name)
    assert (d.num, d.factors) == (dd.num, dd.factors)


def test_one_pass_form_does_not_depend_on_the_order_of_the_terms():
    # X1 annihilates the minor; its first two terms cancel on g13 * minor
    # and drop the lowered minor, so the summed route keeps minor^1, and
    # with the terms reversed it does not.  The one pass lowers every base
    # that a coordinate of the field reaches.
    A = P.action_field_matrix(P.Generator("X1"))
    s = PowerSection(P.MATRIX, M.var("g13"), [(P.minor(3, 3), 1)])
    reverse = DiffOp(P.MATRIX, dict(reversed(list(A.terms.items()))))
    got = op_apply_section(A, s)
    forward, regular = _summed_route(A, s)
    backward, _ = _summed_route(reverse, s)
    assert not regular and got == forward == backward
    assert got.factors == backward.factors == ()
    assert forward.factors == ((P.minor(3, 3), M.one()),)
    assert (got.num, op_apply_section(reverse, s).num) == (backward.num,) * 2
