"""Weyl-engine tests: composition, application, transport, conjugation."""

import random
from fractions import Fraction

import pytest

from pgl3dops import pgl3 as P
from pgl3dops.ring import Poly, RatFunc, VarTable
from pgl3dops.weyl import (Chart, ChartMap, DiffOp, ExpressFailure,
                           PowerSection, ad_nilpotency_depth, commutator,
                           conjugate, express_as_multiple, op_apply,
                           op_apply_section, op_compose, parse_operator,
                           regular_on, transport)

TABLE = VarTable(coords=("x", "y"), params=("k", "m1"))
CHART = Chart("plane", TABLE)

X = RatFunc.var(TABLE, "x")
Y = RatFunc.var(TABLE, "y")
ONE = RatFunc.const(TABLE, 1)
DX = DiffOp.partial(CHART, "x")
DY = DiffOp.partial(CHART, "y")


def mul_op(f):
    return DiffOp.multiplication(CHART, f)


def rand_ratfunc(rng, deg=2):
    p = TABLE.zero()
    for _ in range(rng.randint(1, 4)):
        e = (rng.randint(0, deg), rng.randint(0, deg), 0, 0)
        p = p + Poly(TABLE, {e: Fraction(rng.randint(-4, 4))})
    if p.is_zero():
        p = TABLE.one()
    return RatFunc.from_poly(p)


def rand_op(rng, order=2):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        idx = (rng.randint(0, order), rng.randint(0, order - 1))
        terms[idx] = rand_ratfunc(rng)
    return DiffOp(CHART, terms)


def test_canonical_commutation():
    # d/dx ∘ x = x d/dx + 1
    assert op_compose(DX, mul_op(X)) == mul_op(X) + DiffOp(CHART, {(1, 0): X}) - mul_op(X) + DiffOp.identity(CHART) + DiffOp(CHART, {(1, 0): X}) - DiffOp(CHART, {(1, 0): X})
    assert op_compose(DX, mul_op(X)) == DiffOp(CHART, {(1, 0): X, (0, 0): ONE})


def test_constant_partials_commute():
    assert op_compose(DX, DY) == op_compose(DY, DX)


def test_compose_matches_sequential_application():
    rng = random.Random(2)
    for _ in range(12):
        A, B = rand_op(rng), rand_op(rng)
        AB = op_compose(A, B)
        for _ in range(4):
            f = rand_ratfunc(rng)
            assert op_apply(AB, f) == op_apply(A, op_apply(B, f))


def test_compose_associative():
    rng = random.Random(4)
    for _ in range(6):
        A, B, C = rand_op(rng), rand_op(rng), rand_op(rng)
        assert op_compose(op_compose(A, B), C) == op_compose(A, op_compose(B, C))


def test_euler_operator():
    euler = DiffOp(CHART, {(1, 0): X})
    for k in range(6):
        xk = RatFunc.from_poly(TABLE.var("x") ** k)
        assert op_apply(euler, xk) == xk.scale(k)


def test_monomial_second_derivative():
    dxdy = op_compose(DX, DY)
    f = RatFunc.from_poly(TABLE.var("x") ** 3 * TABLE.var("y") ** 2)
    expected = RatFunc.from_poly(TABLE.var("x") ** 2 * TABLE.var("y")).scale(6)
    assert op_apply(dxdy, f) == expected


def test_commutator_basics():
    assert commutator(DX, mul_op(X)) == DiffOp.identity(CHART)


def test_ad_nilpotency_depths():
    euler_x = DiffOp(CHART, {(1, 0): X})
    assert ad_nilpotency_depth(euler_x, DX, 12) == 2
    assert ad_nilpotency_depth(DX, DX, 12) == 1
    # x^2 d/dx is not ad-nilpotent under itself within any small limit
    bad = DiffOp(CHART, {(1, 0): X * X})
    assert ad_nilpotency_depth(bad, bad, 1) == 1  # [A, A] = 0 immediately


def test_ad_nilpotency_limit_exhausted():
    # brackets with x^3 d/dx keep raising the coefficient degree
    grower = DiffOp(CHART, {(1, 0): X * X * X})
    assert ad_nilpotency_depth(DX, grower, 6) is None


def test_regular_on_units():
    plain = Chart("plain", TABLE)
    with_unit = Chart("unit_x", TABLE, units=(TABLE.var("x"),))
    op = DiffOp(CHART, {(1, 0): ONE / X})
    ok, witness = regular_on(op, plain)
    assert not ok and witness is not None
    ok, witness = regular_on(op, with_unit)
    assert ok and witness is None
    assert regular_on(DiffOp.zero(CHART), plain) == (True, None)


# -- transport ---------------------------------------------------------------

UV_TABLE = VarTable(coords=("u", "v"), params=("k", "m1"))
UV_CHART = Chart("uv", UV_TABLE)
U = RatFunc.var(UV_TABLE, "u")
V = RatFunc.var(UV_TABLE, "v")


def squares_map():
    # x = u^2 v, y = v; inverse: u = (x/y)^(1/2)? -- not rational, so use
    # a simple invertible rational map instead: x = u + v^2, y = v
    forward = {"x": U + V * V, "y": V}
    inverse = {"u": X - Y * Y, "v": Y}
    return ChartMap(CHART, UV_CHART, forward, inverse)


def test_transport_identity_map():
    ident = ChartMap(CHART, CHART, {"x": X, "y": Y}, {"x": X, "y": Y})
    rng = random.Random(6)
    for _ in range(6):
        A = rand_op(rng)
        assert transport(A, ident) == A


def test_transport_defining_property():
    M = squares_map()
    rng = random.Random(8)
    for _ in range(6):
        A = rand_op(rng)
        TA = transport(A, M)
        for _ in range(3):
            # f is a function on the target chart
            f = RatFunc.from_poly(
                UV_TABLE.var("u") ** rng.randint(0, 2) *
                UV_TABLE.var("v") ** rng.randint(0, 2))
            lhs = op_apply(TA, f)
            rhs = M.substitute_to_target(op_apply(A, M.substitute_to_source(f)))
            assert lhs == rhs


def test_transport_respects_composition():
    M = squares_map()
    rng = random.Random(10)
    for _ in range(5):
        A, B = rand_op(rng), rand_op(rng)
        assert transport(op_compose(A, B), M) == \
            op_compose(transport(A, M), transport(B, M))


def test_roundtrip_checks():
    assert squares_map().roundtrip_checks()


# -- power sections ------------------------------------------------------------


def test_symbolic_power_rule():
    m1 = TABLE.var("m1")
    s = PowerSection(CHART, ONE, [(TABLE.var("x"), m1)])
    ds = s.derivative("x")
    # d(x^m1) = m1 x^(m1-1)
    expected = PowerSection(CHART, RatFunc.var(TABLE, "m1"),
                            [(TABLE.var("x"), m1 - 1)])
    assert ds == expected
    # exponents differ by a concrete integer, so the ratio is a fraction
    assert ds.ratio_to(s) == RatFunc.var(TABLE, "m1") / X


def test_int_and_fraction_coefficients_name_one_base():
    # the same base stored with int coefficients and with Fraction(n, 1)
    # coefficients (packed keys are stored as given) is one factor
    x, y, k = TABLE.var("x"), TABLE.var("y"), TABLE.var("k")
    base = x + y.scale(2)
    as_fractions = Poly(TABLE, {key: Fraction(c) for key, c in base.terms.items()})
    assert [type(c) for c in as_fractions.terms.values()] == [Fraction] * 2
    assert as_fractions == base and hash(as_fractions) == hash(base)
    s = PowerSection(CHART, ONE, [(base, k), (as_fractions, 3)])
    assert len(s.factors) == 1
    assert s.factors[0][1] == k + 3
    assert s == PowerSection(CHART, ONE, [(base, k + 3)])


def test_apply_section_reduces_to_apply():
    rng = random.Random(12)
    k = TABLE.var("k")
    s = PowerSection(CHART, X + Y, [(TABLE.var("x"), k)])
    for _ in range(6):
        A = rand_op(rng)
        symbolic = op_apply_section(A, s)
        for kval in (0, 1, 3):
            spec = symbolic.substitute_params({"k": kval})
            concrete = spec.ratio_to(PowerSection.one(CHART))
            f = (X + Y) * X ** kval
            assert concrete == op_apply(
                DiffOp(A.chart, {i: c.substitute({"k": RatFunc.const(TABLE, kval)})
                                 for i, c in A.terms.items()}), f)


def test_conjugate_single_log_derivative():
    k = TABLE.var("k")
    s = PowerSection(CHART, ONE, [(TABLE.var("x"), k)])
    conj = conjugate(DX, s)
    expected = DX + DiffOp.multiplication(CHART, RatFunc.var(TABLE, "k") / X)
    assert conj == expected


def test_conjugate_by_one_and_composition():
    s = PowerSection(CHART, ONE, [(TABLE.var("x"), TABLE.var("k")),
                                  (TABLE.var("y") + TABLE.one(), TABLE.var("m1"))])
    rng = random.Random(14)
    A = rand_op(rng)
    assert conjugate(A, PowerSection.one(CHART)) == A
    B = rand_op(rng)
    assert conjugate(op_compose(A, B), s) == \
        op_compose(conjugate(A, s), conjugate(B, s))


def test_express_as_multiple():
    table = TABLE
    m1 = TABLE.var("m1")
    sig = PowerSection(CHART, ONE, [(table.var("x"), m1), (table.var("y"), 2)])
    scaled = sig.scale(RatFunc.var(table, "m1") * RatFunc.var(table, "k"))
    c = express_as_multiple(scaled, sig)
    assert c == RatFunc.var(table, "m1") * RatFunc.var(table, "k")
    assert express_as_multiple(sig, sig) == ONE
    with pytest.raises(ExpressFailure):
        express_as_multiple(sig.scale(X), sig)
    # the message names the offending quotient, so a failed check's details do
    s = P.canonical_section()
    with pytest.raises(ExpressFailure, match="g11"):
        express_as_multiple(s.scale(RatFunc.from_poly(P.gvar(1, 1))), s)


def test_express_handles_integer_exponent_shift():
    m1 = TABLE.var("m1")
    s = PowerSection(CHART, ONE, [(TABLE.var("x"), m1 + 1)])
    t = PowerSection(CHART, ONE, [(TABLE.var("x"), m1)])
    with pytest.raises(ExpressFailure):
        express_as_multiple(s, t)  # quotient x depends on coordinates


def test_operator_text_round_trip():
    rng = random.Random(16)
    for _ in range(10):
        A = rand_op(rng)
        text = A.to_text()
        B = parse_operator(text, CHART)
        assert B == A
        assert B.to_text() == text


def test_nilpotency_depth_transport_invariant():
    # the depth is intrinsic: it does not change under a chart change
    M = squares_map()
    A = DiffOp(CHART, {(1, 0): X, (2, 0): Y})
    V = DX
    d_src = ad_nilpotency_depth(A, V, 8)
    d_tgt = ad_nilpotency_depth(transport(A, M), transport(V, M), 8)
    assert d_src == d_tgt
