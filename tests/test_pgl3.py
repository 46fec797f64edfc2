"""Model-level tests: charts, fields, twisted operators, Casimir."""

import random
from fractions import Fraction

import pytest

from pgl3dops import certify as CERT
from pgl3dops import checks as CK
from pgl3dops import pgl3 as P
from pgl3dops.ring import Poly, RatFunc
from pgl3dops.weyl import (PowerSection, commutator,
                           express_as_multiple, op_apply, op_apply_section,
                           op_compose, parse_operator, regular_on)

ONE = RatFunc.const(P.MATRIX_TABLE, 1)


def rf(p):
    return RatFunc.from_poly(p)


def test_minor_examples():
    # minors behave like derivative cofactors of the determinant
    assert P.det_g().differentiate("g11") == P.minor(1, 1)
    assert P.minor(1, 1).differentiate("g11").is_zero()
    assert P.minor(1, 1) == P.gvar(2, 2) * P.gvar(3, 3) - P.gvar(2, 3) * P.gvar(3, 2)


def test_alpha2_is_minor_over_g33_squared():
    fw = P.big_cell_in_matrix()
    assert fw["a2"] == rf(P.minor(1, 1)) / rf(P.gvar(3, 3) * P.gvar(3, 3))


def test_forward_at_identity():
    point = {f"g{i}{j}": Fraction(int(i == j)) for i in (1, 2, 3) for j in (1, 2, 3)}
    fw = P.big_cell_in_matrix()
    assert fw["a1"].evaluate(point) == 1
    assert fw["a2"].evaluate(point) == 1
    for name in ("U12", "U21", "U13", "U31", "U23", "U32"):
        assert fw[name].evaluate(point) == 0


def test_backward_substitution_roundtrip():
    # substituting the derived ratios into the a2 formula recovers a2
    bw = P.matrix_ratios_in_big_cell()
    subs = {f"g{i}{j}": rf(bw[f"g{i}{j}"]) for i in (1, 2, 3) for j in (1, 2, 3)}
    a2 = P.big_cell_in_matrix()["a2"].substitute(subs)
    assert a2 == RatFunc.var(P.BIG_TABLE, "a2")


def test_backward_g22_formula():
    bw = P.matrix_ratios_in_big_cell()
    t = P.BIG_TABLE
    assert bw["g22"] == t.var("a2") + t.var("U23") * t.var("U32")
    assert bw["g32"] == t.var("U32")  # the display prints U23 here


def test_field_x1_matrix():
    got = P.action_field_matrix(P.Generator("X1", "left"))
    want = parse_operator("-g21 * d/dg11 - g22 * d/dg12 - g23 * d/dg13", P.MATRIX)
    assert got == want


def test_field_h1_kills_constants():
    h1 = P.action_field_matrix(P.Generator("H1", "left"))
    assert op_apply(h1, ONE).is_zero()


def test_bracket_x1_y1_is_h1():
    x1 = P.action_field_matrix(P.Generator("X1", "left"))
    y1 = P.action_field_matrix(P.Generator("Y1", "left"))
    h1 = P.action_field_matrix(P.Generator("H1", "left"))
    assert commutator(x1, y1) == h1


def test_ratio_field_restricts_the_matrix_field():
    # the ratio-chart field moves x_ij as the matrix field moves g_ij/g33
    g33 = rf(P.gvar(3, 3))
    for label in P.GENERATOR_LABELS:
        for factor in ("left", "right"):
            xi = P.Generator(label, factor).matrix
            field = P.field_of_matrix(xi, factor)
            ratio = P.ratio_field_of_matrix(xi, factor)
            for name in P.RATIO_NAMES:
                g = rf(P.gvar(int(name[1]), int(name[2])))
                want = P.slice_to_ratio(op_apply(field, g / g33))
                got = op_apply(ratio, RatFunc.var(P.RATIO_TABLE, name))
                assert got == want, (label, factor, name)


def test_big_cell_x_fields():
    assert P.action_field_big_cell(P.Generator("X3", "left")) == \
        parse_operator("-d/dU13", P.BIG)
    assert P.action_field_big_cell(P.Generator("X1", "left")) == \
        parse_operator("-d/dU12 - U23 * d/dU13", P.BIG)
    assert P.action_field_big_cell(P.Generator("X2", "left")) == \
        parse_operator("-d/dU23", P.BIG)


def test_partial_alpha_formulas():
    p1, p2 = P.alpha_derivations_matrix()
    assert p1 == parse_operator("((g22*g33 - g23*g32)/g33) * d/dg11", P.MATRIX)
    fw = P.big_cell_in_matrix()
    assert op_apply(p1, fw["a1"]) == ONE
    assert op_apply(p1, fw["U13"]).is_zero()
    assert op_apply(p2, fw["a2"]) == ONE
    assert op_apply(p2, fw["a1"]).is_zero()


def test_d0_displayed_expansion():
    d0 = P.mixed_second_order_matrix()
    first = parse_operator("d/dg11", P.MATRIX)
    second = parse_operator(
        "(g11*g33 - g13*g31) * d/dg11 + (g22*g33 - g23*g32) * d/dg22"
        " + (g12*g33 - g13*g32) * d/dg12 + (g21*g33 - g23*g31) * d/dg21",
        P.MATRIX)
    assert d0 == op_compose(first, second)
    assert regular_on(d0, P.MATRIX) == (True, None)


def test_d0_applied_through_both_charts():
    # D0 applied to a1*a2 written through the change of variables equals 1
    fw = P.big_cell_in_matrix()
    f = fw["a1"] * fw["a2"]
    assert op_apply(P.mixed_second_order_matrix(), f) == ONE


def test_sigma_weights_and_exponents():
    sig = P.monomial_section()
    nu1, nu2 = P.weight_exponents(P.sym_m1(), P.sym_m2())
    for label, want in (("H1", nu1), ("H2", nu2)):
        w = express_as_multiple(
            P.apply_generator(P.Generator(label, "left"), sig), sig)
        assert w == RatFunc.from_poly(want)
    # right factor acts by -nu
    for label, want in (("H1", nu1), ("H2", nu2)):
        w = express_as_multiple(
            P.apply_generator(P.Generator(label, "right"), sig), sig)
        assert w == RatFunc.from_poly(-want)
    # the g33 exponent of sigma is lam1 + m1 - 2 m2
    g33_exp = [e for b, e in sig.factors if b == P.gvar(3, 3)]
    assert g33_exp == [nu2]


def test_sigma_zero_is_canonical_section():
    assert P.monomial_section(0, 0) == P.canonical_section()


def test_twist_corrections_displayed():
    t = P.BIG_TABLE
    assert P.twist_correction_big(P.Generator("Y1", "left")) == \
        -rf(t.var("U12")).scale(1) * RatFunc.var(t, "lam2")
    assert P.twist_correction_big(P.Generator("X2", "left")).is_zero()
    # at lam = 0 the twisted field is the plain field
    zero = {"lam1": RatFunc.const(P.MATRIX_TABLE, 0),
            "lam2": RatFunc.const(P.MATRIX_TABLE, 0)}
    for label in P.GENERATOR_LABELS:
        tw = P.twisted_field_matrix(P.Generator(label, "left"))
        plain = P.action_field_matrix(P.Generator(label, "left"))
        from pgl3dops.weyl import DiffOp
        spec = DiffOp(P.MATRIX, {K: c.substitute(zero) for K, c in tw.terms.items()})
        assert spec == plain


def test_case1_both_chart_routes():
    m1, m2 = P.sym_m1(), P.sym_m2()
    target = P.monomial_section(m1 - 1, m2 - 1)
    out = P.apply_descent(P.monomial_section(), P.W_E, P.canonical_section())
    t = P.MATRIX_TABLE
    assert express_as_multiple(out, target) == \
        RatFunc.var(t, "m1") * RatFunc.var(t, "m2")
    # big-cell coefficient route: d/da1 d/da2 on a1^m1 a2^m2
    big = P.monomial_section_big()
    moved = op_apply_section(P.mixed_second_order_big(), big)
    tb = P.BIG_TABLE
    lowered = P.monomial_section_big(tb.var("m1") - 1, tb.var("m2") - 1)
    assert express_as_multiple(moved, lowered) \
        == RatFunc.var(tb, "m1") * RatFunc.var(tb, "m2")


def test_apply_descent_on_powers():
    # sampled agreement of the twisted operator with direct differentiation
    for m1v, m2v, l1, l2 in ((1, 1, 0, 0), (3, 2, 1, 2), (2, 5, 4, 3),
                             (4, 1, 2, 0), (2, 2, 3, 3)):
        vals = {"lam1": l1, "lam2": l2, "m1": m1v, "m2": m2v}
        sig = P.monomial_section(m1v, m2v).substitute_params(vals)
        f = P.canonical_section().substitute_params(vals)
        out = P.apply_descent(sig, P.W_E, f)
        target = P.monomial_section(m1v - 1, m2v - 1).substitute_params(vals)
        assert express_as_multiple(out, target).constant_value() == m1v * m2v


def test_weyl_element_matrices():
    assert P.W_S1.matrix == ((0, 1, 0), (-1, 0, 0), (0, 0, 1))
    assert P.W_S2.matrix == ((1, 0, 0), (0, 0, 1), (0, -1, 0))
    w0 = P.W_LONG.matrix
    assert w0 == ((0, 0, 1), (0, -1, 0), (1, 0, 0))
    assert P.mat_mul(w0, w0) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for w in (P.W_E, P.W_S1, P.W_S2, P.W_S1S2, P.W_S2S1, P.W_LONG):
        assert P.mat_mul(w.matrix, w.inverse().matrix) == (
            (1, 0, 0), (0, 1, 0), (0, 0, 1)), w.label


def test_twist_by_identity():
    d0 = P.mixed_second_order_matrix()
    assert P.twist_operator(d0, P.W_E) == d0
    sig = P.monomial_section(1, 2)
    assert P.twist_section(sig, P.W_E) == sig


WEYL_ELEMENTS = (P.W_E, P.W_S1, P.W_S2, P.W_S1S2, P.W_S2S1, P.W_LONG)


def test_one_descent_matches_the_twist_sandwich():
    # oracle: twist the section back, apply the untwisted descent, twist again
    def sandwich(s, w, f):
        inner = P.apply_descent(P.twist_section(s, w.inverse()), P.W_E, f)
        return P.twist_section(inner, w)

    assert P.descent_operator(P.W_E) == P.mixed_second_order_matrix()
    sig, f = P.monomial_section(), P.canonical_section()
    for w in WEYL_ELEMENTS:
        assert P.apply_descent(sig, w, f) == sandwich(sig, w, f), w.label
    # concrete points; the last has nu = (1, 1), where the w0 move starts
    assert CERT.weight_at((2, 2), 1, 1) == (1, 1)
    for lam, m, ws in (((3, 2), (1, 1), WEYL_ELEMENTS),
                       ((4, 1), (2, 0), WEYL_ELEMENTS),
                       ((2, 2), (1, 1), (P.W_LONG,))):
        s = P.monomial_section(*m, lam)
        f = P.monomial_section(0, 0, lam)
        for w in ws:
            assert P.apply_descent(s, w, f) == sandwich(s, w, f), (lam, m, w.label)


def test_twisted_section_s1():
    sig = P.monomial_section()
    tw = P.twist_section(sig, P.W_S1.inverse())
    nu1, nu2 = P.weight_exponents(P.sym_m1(), P.sym_m2())
    expected = PowerSection(P.MATRIX, ONE, [
        (P.gvar(3, 3), nu2), (P.minor(2, 2), nu1), (P.det_g(), P.sym_m1())])
    assert tw == expected


def test_casimir_chi_values():
    t = P.MATRIX_TABLE
    assert P.central_character(0, 0) == RatFunc.const(t, 0)
    assert P.central_character(1, 1) == RatFunc.const(t, 1)
    # chi(2, 0) = 2/3 + 4/9 = 10/9
    assert P.central_character(2, 0) == \
        RatFunc.const(t, Fraction(10, 9))


def test_casimir_eigenvalue_on_sections():
    sig = P.monomial_section()
    nu = P.weight_exponents(P.sym_m1(), P.sym_m2())
    assert express_as_multiple(P.casimir_apply(sig), sig) == \
        P.central_character(*nu)


def test_casimir_chain_stays_integral(monkeypatch):
    # the Casimir factors of a move act on integer-primitive numerators, so
    # no product inside a first-order action sees a Fraction coefficient
    state = {"depth": 0, "products": 0, "fraction": 0}
    apply_generator, mul = P.apply_generator, Poly.__mul__

    def counted_generator(gen, s):
        state["depth"] += 1
        try:
            return apply_generator(gen, s)
        finally:
            state["depth"] -= 1

    def counted_mul(a, b):
        if state["depth"]:
            state["products"] += 1
            state["fraction"] += any(type(c) is Fraction for q in (a, b)
                                     for c in q.terms.values())
        return mul(a, b)

    monkeypatch.setattr(P, "apply_generator", counted_generator)
    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    scalar = CERT.move_scalar("3a", (1, 2), (3, 2))
    monkeypatch.undo()
    assert scalar.constant_value() == Fraction(-224, 9)
    assert state["products"] > 0 and state["fraction"] == 0

    # negative, non-integral content goes back on once, exactly
    sig = P.monomial_section(1, 2, (3, 2))
    chi = P.central_character(*P.weight_exponents(1, 2, (3, 2)))
    k = Fraction(-7, 3)
    assert P.casimir_apply(sig.scale(k)) == sig.scale(k * chi.constant_value())
    zero = sig.scale(0)
    assert P.casimir_apply(zero) is zero



def test_generator_actions_and_scaling_skip_the_public_checks(monkeypatch):
    # one action builds its result and reduce_num's section; scale and sums
    # reuse factors that a section already checked
    t, built = P.MATRIX_TABLE, []
    init = PowerSection.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    sig = P.twist_section(P.monomial_section(1, 2, (3, 2)), P.W_S1)
    mixed = sig.scale(P.gvar(1, 2) * P.gvar(2, 1) + P.gvar(3, 1).scale(3))
    symbolic = P.monomial_section()
    poly = P.gvar(1, 3) + t.var("m1")
    monkeypatch.setattr(PowerSection, "__init__", counted_init)
    for s in (sig, mixed, symbolic):
        for label in P.GENERATOR_LABELS:
            for factor in ("left", "right"):
                built.clear()
                P.apply_generator(P.Generator(label, factor), s)
                assert len(built) <= 2
        built.clear()
        scaled = [(s.scale(k), s.num.scale(k)) for k in (Fraction(-7, 3), 0)]
        scaled += [(s.scale(c), s.num * poly)
                   for c in (poly, RatFunc.from_poly(poly))]
        assert built == []
        for got, num in scaled:
            want = PowerSection(s.chart, num, s.factors)
            assert (got.chart, got.num, got.factors) == \
                (want.chart, want.num, want.factors)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="not a polynomial in the parameters"):
        PowerSection(P.MATRIX, t.one(), [(P.gvar(1, 1), t.var("g12"))])


def _row_homogeneous(rng, rows):
    """A random polynomial whose monomials take one g entry from each row in
    ``rows``, so every monomial has the same left torus weight."""
    t = P.MATRIX_TABLE
    out = t.zero()
    while out.is_zero():
        for _ in range(rng.randint(1, 3)):
            mono = t.const(rng.choice([-3, -1, 1, 2, 5]))
            if rng.random() < 0.3:
                mono = mono * (t.var("lam1") + rng.randint(-2, 2))
            for r in rows:
                mono = mono * P.gvar(r, rng.randint(1, 3))
            out = out + mono
    return out


def _random_weight_section(rng, symbolic):
    t = P.MATRIX_TABLE
    bases = [P.gvar(rng.randint(1, 3), rng.randint(1, 3)),
             P.minor(rng.randint(1, 3), rng.randint(1, 3)), P.det_g(),
             _row_homogeneous(rng, (1, 2))]
    factors = []
    for base in rng.sample(bases, rng.randint(1, 4)):
        exp = t.const(rng.randint(-3, 4))
        if symbolic:
            exp = exp + t.var(rng.choice(P.PARAMS[:4])).scale(rng.randint(-2, 2))
        factors.append((base, exp))
    rows = [rng.randint(1, 3) for _ in range(rng.randint(0, 3))]
    num = _row_homogeneous(rng, rows) if rows else t.const(rng.randint(1, 4))
    return PowerSection(P.MATRIX, num, factors)


def test_left_weights_are_the_cartan_eigenvalues():
    rng = random.Random(22)
    t = P.MATRIX_TABLE
    most = 0
    for trial in range(12):
        s = _random_weight_section(rng, symbolic=trial % 2 == 1)
        if trial % 3:
            # a second row pattern mixes the weights of the numerator
            extra = _row_homogeneous(rng, (trial % 3,))
            s = PowerSection(P.MATRIX, s.num + extra, s.factors)
        parts = P.left_weights(s)
        most = max(most, len(parts))
        assert sum((part for *_, part in parts), start=t.zero()) == s.num
        for h1, h2, part in parts:
            v = PowerSection(P.MATRIX, part, s.factors)
            for label, hk in (("H1", h1), ("H2", h2)):
                assert P.apply_generator(P.Generator(label), v) == v.scale(hk)
            if trial % 2 == 0:
                assert h1.is_constant() and h2.is_constant()
    assert most > 1


def _composed_casimir(s):
    f = P.canonical_section()
    return op_apply_section(P.casimir_operator(), s / f) * f


def test_mixed_numerators_split_and_mixed_bases_raise():
    t = P.MATRIX_TABLE
    mixed_num = PowerSection(P.MATRIX, P.gvar(1, 1) + P.gvar(2, 1),
                             [(P.gvar(3, 3), P.lam1()), (P.minor(1, 1), 2)])
    assert len(P.left_weights(mixed_num)) == 2
    assert P.casimir_apply(mixed_num) == _composed_casimir(mixed_num)
    mixed_base = PowerSection(P.MATRIX, P.gvar(1, 2) * t.var("lam2"),
                              [(P.gvar(1, 1) + P.gvar(3, 2), -1),
                               (P.gvar(3, 3), P.lam2())])
    for apply in (P.left_weights, P.casimir_apply):
        with pytest.raises(ValueError, match="g32 mixes left weights"):
            apply(mixed_base)
    big = PowerSection(P.BIG, P.BIG_TABLE.var("a1"))
    for apply in (P.left_weights, P.casimir_apply):
        with pytest.raises(ValueError, match="not over the matrix table"):
            apply(big)
    with pytest.raises(ValueError):
        P._euler_weights(P.action_field_matrix(P.Generator("X1")))


def test_wrong_coordinate_weights_are_caught(monkeypatch):
    # H1 read as a right action: the weight route alone changes, and both
    # the composed operator and the central character see it
    right = P._euler_weights(P.action_field_matrix(P.Generator("H1", "right")))
    wrong = tuple((w, h2) for w, (_, h2) in zip(right, P._coordinate_weights()))
    assert wrong != P._coordinate_weights()
    monkeypatch.setattr(P, "_coordinate_weights", lambda: wrong)
    assert CK.check_casimir_routes_agree(CK.CheckConfig())[0] == "fail"
    sig = P.monomial_section()
    nu = P.weight_exponents(P.sym_m1(), P.sym_m2())
    assert express_as_multiple(P.casimir_apply(sig), sig) != \
        P.central_character(*nu)


def test_casimir_centrality_spot():
    cas = P.casimir_operator()
    for label in ("X1", "Y3", "H2"):
        assert commutator(
            cas, P.twisted_field_matrix(P.Generator(label, "left"))).is_zero()


def test_descent_regular_both_presentations():
    assert regular_on(P.mixed_second_order_big(), P.BIG) == (True, None)
    ok, witness = regular_on(P.descent_bminusb_presentation(), P.BMINUSB)
    assert ok and witness is None


def test_bminusb_units_required():
    # without the unit set the conjugated operator is not polynomial
    conj = P.descent_bminusb_presentation()
    ok, witness = regular_on(conj, P.MATRIX)
    assert not ok and witness is not None


def test_conjugate_route_reproduces_descent():
    # conjugating the mixed derivative by the inverse canonical section gives
    # the section-level twisted operator
    from pgl3dops.weyl import conjugate
    conj = conjugate(P.mixed_second_order_matrix(),
                     P.canonical_section().inverse())
    sig = P.monomial_section()
    assert op_apply_section(conj, sig) == \
        P.apply_descent(sig, P.W_E, P.canonical_section())


def test_twisted_cross_factor_brackets_vanish():
    for a, b in (("X1", "Y1"), ("H1", "X2")):
        lhs = commutator(P.twisted_field_matrix(P.Generator(a, "left")),
                         P.twisted_field_matrix(P.Generator(b, "right")))
        assert lhs.is_zero()


def test_weight_helpers():
    # nu = lam* - m1 alpha1 - m2 alpha2 in the omega basis
    nu1, nu2 = P.weight_exponents(P.sym_m1(), P.sym_m2())
    assert (nu1, nu2) == P.weight_exponents(P.sym_m1(), P.sym_m2(),
                                            (P.lam1(), P.lam2()))
    at = {"lam1": 3, "lam2": 1, "m1": 2, "m2": 1}
    assert tuple(e.constant_value() for e in P.weight_exponents(2, 1, (3, 1))) \
        == (nu1.evaluate(at), nu2.evaluate(at))


def test_monomial_section_at_a_weight():
    # building at a concrete weight is the symbolic section specialised
    for lam in ((0, 0), (3, 1), (8, 1), (2, 5)):
        values = {"lam1": lam[0], "lam2": lam[1]}
        for m in ((0, 0), (1, 2), (3, 1)):
            direct = P.monomial_section(*m, lam)
            specialised = P.monomial_section(*m).substitute_params(values)
            assert direct.to_text() == specialised.to_text(), (lam, m)


def test_partial_alpha_regularity_depends_on_units():
    from pgl3dops.weyl import Chart
    p1, _ = P.alpha_derivations_matrix()
    ok, witness = regular_on(p1, P.MATRIX)          # empty unit set
    assert not ok and witness is not None
    with_unit = Chart("matrix_g33", P.MATRIX_TABLE, units=(P.gvar(3, 3),))
    assert regular_on(p1, with_unit) == (True, None)
