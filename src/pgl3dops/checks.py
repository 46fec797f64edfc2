"""Registered identity suites, the concordance report, and report assembly.

Every check verifies an exact identity (or a finite family of them) and
returns pass/fail; comparisons against the reference *display* may instead
return the status "mismatch-reported" when the engine derivation is
validated independently but disagrees with the displayed form (a known typo
in the display).  Mismatch-reported checks never fail a run, but they are
always listed, with the exact residual.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import certify as CERT
from . import conics as CON
from . import pgl3 as P
from . import reference as REF
from .ring import RatFunc
from .weyl import (DiffOp, PowerSection, ad_nilpotency_depth,
                   commutator, express_as_multiple, op_apply, op_apply_section,
                   op_compose, regular_on)


@dataclass
class CheckResult:
    check_id: str
    status: str          # "pass" | "fail" | "mismatch-reported"
    details: str
    wall_time: float

    def to_json(self) -> dict:
        # wall time is excluded so that identical runs give identical bytes
        return {"id": self.check_id, "status": self.status,
                "details": self.details}


@dataclass
class CheckConfig:
    grid: int = 4
    seed: int = 0


SCHEMA_VERSION = "1"
NILPOTENCY_LIMIT = 12       # ad-nilpotency depth searched before a check fails


# -- small helpers ----------------------------------------------------------------------


def _sym_nu():
    return P.weight_exponents(P.sym_m1(), P.sym_m2())


def _sub_nu(rf: RatFunc) -> RatFunc:
    """Replace the stand-alone parameters nu1, nu2 by their (lam, m) forms."""
    n1, n2 = _sym_nu()
    return rf.substitute({"nu1": RatFunc.from_poly(n1),
                          "nu2": RatFunc.from_poly(n2)})


def _parse_composed(text):
    first, second = text.split(" compose ")
    return op_compose(REF.op_matrix(first), REF.op_matrix(second))


# The reference displays, family by family: display texts by name, the parser
# of a text, and the engine's derivation of the same name.
DISPLAY = {
    "cdv.forward": (REF.CDV_FORWARD, REF.rf_matrix,
                    lambda name: P.big_cell_in_matrix()[name]),
    "cdv.backward": (REF.CDV_BACKWARD, REF.rf_big,
                     lambda name: RatFunc.from_poly(
                         P.matrix_ratios_in_big_cell()[name])),
    "fields.matrix.left": (REF.FIELDS_MATRIX_LEFT, REF.op_matrix,
                           lambda label: P.action_field_matrix(
                               P.Generator(label, "left"))),
    "fields.big_cell.left": (REF.FIELDS_BIG_LEFT, REF.op_big,
                             lambda label: P.action_field_big_cell(
                                 P.Generator(label, "left"))),
    "partials": ({"a1": REF.PARTIAL_A1, "a2": REF.PARTIAL_A2}, REF.op_matrix,
                 lambda name: P.alpha_derivations_matrix()[
                     ("a1", "a2").index(name)]),
    "order2": ({"matrix": " compose ".join(REF.ORDER2_FACTORS)},
               _parse_composed, lambda name: P.mixed_second_order_matrix()),
    "twists.correction": (REF.TWIST_CORRECTIONS, REF.rf_big,
                          lambda label: P.twist_correction_big(
                              P.Generator(label, "left"))),
}


def display_rows(family):
    """(name, display text, engine value, parsed display) for each display of
    the family, sorted by name."""
    texts, parse, engine = DISPLAY[family]
    return [(name, texts[name], engine(name), parse(texts[name]))
            for name in sorted(texts)]


def _mismatches(family):
    return [(name, text, eng, ref)
            for name, text, eng, ref in display_rows(family) if eng != ref]


def lagrange_interpolate(values, names, degrees, table):
    """Tensor-grid Lagrange interpolation over integer nodes 0..d_i.

    ``values`` maps integer tuples (one per name) to Fractions; every node of
    the product grid must be present.  Returns a Poly over ``table`` in the
    named parameters.
    """
    def rec(prefix, rest):
        if not rest:
            return table.const(values[prefix])
        name, deg = rest[0]
        var = table.var(name)
        total = table.zero()
        for i in range(deg + 1):
            branch = rec(prefix + (i,), rest[1:])
            basis = table.one()
            denom = Fraction(1)
            for j in range(deg + 1):
                if j != i:
                    basis = basis * (var - table.const(j))
                    denom *= (i - j)
            total = total + basis * branch.scale(Fraction(1, 1) / denom)
        return total

    return rec((), list(zip(names, degrees)))


# -- cdv suite -----------------------------------------------------------------------------


def check_cdv_forward_reference(cfg):
    bad = [name for name, *_ in _mismatches("cdv.forward")]
    if bad:
        return "fail", f"forward formulas differ from the reference: {bad}"
    return "pass", "all 8 forward formulas equal the reference display"


def check_cdv_backward_reference(cfg):
    mismatches = [f"{name}/g33: engine {eng.to_text()} vs display {text}"
                  for name, text, eng, _ in _mismatches("cdv.backward")]
    if mismatches == [f"g32/g33: engine U32 vs display U23"]:
        return "mismatch-reported", mismatches[0] + " (display typo)"
    if mismatches:
        return "fail", "; ".join(mismatches)
    return "fail", "expected the known g32 display typo to be detected"


def check_cdv_roundtrip_forward(cfg):
    fw = P.big_cell_in_matrix()
    bw = P.matrix_ratios_in_big_cell()
    subs = {f"g{i}{j}": RatFunc.from_poly(bw[f"g{i}{j}"])
            for i in (1, 2, 3) for j in (1, 2, 3)}
    bad = [name for name, f in fw.items()
           if f.substitute(subs) != RatFunc.var(P.BIG_TABLE, name)]
    if bad:
        return "fail", f"forward∘backward is not the identity on {bad}"
    return "pass", "forward∘backward fixes all 8 big-cell coordinates"


def check_cdv_roundtrip_backward(cfg):
    fw = P.big_cell_in_matrix()
    bw = P.matrix_ratios_in_big_cell()
    g33 = RatFunc.from_poly(P.gvar(3, 3))
    bad = []
    for i, j in itertools.product((1, 2, 3), repeat=2):
        expr = RatFunc.from_poly(bw[f"g{i}{j}"]).substitute(fw)
        if expr != RatFunc.from_poly(P.gvar(i, j)) / g33:
            bad.append(f"g{i}{j}")
    if bad:
        return "fail", f"backward∘forward differs from g_ij/g33 on {bad}"
    return "pass", "backward∘forward reproduces every ratio g_ij/g33"


def check_cdv_identity_values(cfg):
    fw = P.big_cell_in_matrix()
    point = {f"g{i}{j}": Fraction(int(i == j))
             for i in (1, 2, 3) for j in (1, 2, 3)}
    expected = {"a1": 1, "a2": 1}
    bad = [n for n, f in fw.items()
           if f.evaluate(point) != expected.get(n, 0)]
    if bad:
        return "fail", f"values at the identity matrix are wrong for {bad}"
    return "pass", "forward formulas at the identity give (1, 1, 0, ..., 0)"


def check_cdv_homogeneous(cfg):
    euler = P.euler_field_matrix()
    bad = [n for n, f in P.big_cell_in_matrix().items()
           if not op_apply(euler, f).is_zero()]
    if bad:
        return "fail", f"not degree-0 homogeneous: {bad}"
    return "pass", "all forward formulas are annihilated by the Euler field"


# -- vectorfields suite ---------------------------------------------------------------------


def check_fields_matrix_reference(cfg):
    mismatches = [f"{label}: residual engine-display = {(eng - ref).to_text()}"
                  for label, _, eng, ref in _mismatches("fields.matrix.left")]
    if mismatches:
        if all(m.startswith("Y3") for m in mismatches):
            return "mismatch-reported", ("7 of 8 displayed matrix fields "
                                         "match verbatim; " + mismatches[0] +
                                         " (display typo)")
        return "fail", "; ".join(mismatches)
    return "fail", "expected the known Y3 display typo to be detected"


def check_fields_bracket_left(cfg):
    return _bracket_table("left")


def check_fields_bracket_right(cfg):
    return _bracket_table("right")


def _bracket_table(factor):
    bad = P.bracket_defects(
        lambda label: P.action_field_matrix(P.Generator(label, factor)),
        lambda xi: P.field_of_matrix(xi, factor))
    if bad:
        a, b = bad[0]
        return "fail", f"[{a},{b}] ({factor}) differs from the matrix bracket"
    return "pass", f"all 28 {factor}-factor brackets match matrix commutators"


def check_fields_bracket_cross(cfg):
    for a in P.GENERATOR_LABELS:
        for b in P.GENERATOR_LABELS:
            c = commutator(P.action_field_matrix(P.Generator(a, "left")),
                           P.action_field_matrix(P.Generator(b, "right")))
            if not c.is_zero():
                return "fail", f"[{a}-left, {b}-right] != 0"
    return "pass", "all 64 cross-factor brackets vanish"


def check_fields_big_cell_reference(cfg):
    matched, mismatches = [], []
    for label, _, eng, ref in display_rows("fields.big_cell.left"):
        if eng == ref:
            matched.append(label)
        else:
            mismatches.append(
                f"{label}: residual engine-display = {(eng - ref).to_text()}")
    if set(matched) >= {"X1", "X2", "X3"} and mismatches:
        return "mismatch-reported", (f"matched: {matched}; " +
                                     "; ".join(mismatches))
    if mismatches:
        return "fail", "; ".join(mismatches)
    return "fail", "expected the known Y-field display typos to be detected"


def check_fields_big_cell_roundtrip(cfg):
    # transporting the big-cell form back to the matrix chart recovers the field
    for label in ("Y1", "X1", "H2"):
        gen = P.Generator(label, "left")
        big = P.action_field_big_cell(gen)
        ratio = P.transport(big, P.map_big_to_ratio())
        lifted = P.homogenize(ratio)
        direct = P.action_field_matrix(gen)
        # both act identically on degree-0 functions; compare on the ratios
        for i, j in ((1, 1), (1, 2), (2, 3)):
            f = RatFunc.from_poly(P.gvar(i, j)) / RatFunc.from_poly(P.gvar(3, 3))
            if op_apply(lifted, f) != op_apply(direct, f):
                return "fail", f"transport roundtrip broke {label} on g{i}{j}/g33"
    return "pass", "big-cell fields transport back to the matrix-chart fields"


def check_fields_homogeneous(cfg):
    euler = P.euler_field_matrix()
    for label in P.GENERATOR_LABELS:
        for factor in ("left", "right"):
            f = P.action_field_matrix(P.Generator(label, factor))
            if not commutator(f, euler).is_zero():
                return "fail", f"{label}-{factor} does not commute with Euler"
    return "pass", "all 16 matrix-chart fields commute with the Euler field"


# -- d0 suite ----------------------------------------------------------------------------------


def check_partials_reference(cfg):
    bad = _mismatches("partials")
    if bad:
        return "fail", f"d/d{bad[0][0]} differs from the displayed form"
    return "pass", "Jacobian inversion reproduces both displayed derivations"


def check_partials_action(cfg):
    p1, p2 = P.alpha_derivations_matrix()
    fw = P.big_cell_in_matrix()
    checks = [(p1, "a1", 1), (p1, "a2", 0), (p1, "U13", 0),
              (p2, "a2", 1), (p2, "a1", 0), (p2, "U21", 0)]
    for op, name, want in checks:
        got = op_apply(op, fw[name])
        if got != RatFunc.const(P.MATRIX_TABLE, want):
            return "fail", f"d/dalpha applied to {name} gave {got.to_text()}"
    return "pass", "derivations act correctly on the coordinate functions"


def check_d0_reference(cfg):
    if _mismatches("order2"):
        return "fail", "composed operator differs from the displayed expansion"
    return "pass", "composed operator equals the displayed second-order form"


def check_d0_polynomial(cfg):
    ok, witness = regular_on(P.mixed_second_order_matrix(), P.MATRIX)
    if not ok:
        return "fail", f"non-polynomial coefficient: {witness.to_text()}"
    return "pass", "all matrix-chart coefficients are polynomials"


def check_d0_monomial_action(cfg):
    d0 = P.mixed_second_order_big()
    for m, n in ((1, 1), (3, 2), (2, 5)):
        f = RatFunc.from_poly(P.BIG_TABLE.var("a1") ** m * P.BIG_TABLE.var("a2") ** n)
        want = RatFunc.from_poly(
            P.BIG_TABLE.var("a1") ** (m - 1) * P.BIG_TABLE.var("a2") ** (n - 1)
        ).scale(m * n)
        if op_apply(d0, f) != want:
            return "fail", f"wrong action on a1^{m} a2^{n}"
    return "pass", "acts on a1^m a2^n as m n a1^(m-1) a2^(n-1)"


def check_d0_nilpotency(cfg):
    d0 = P.mixed_second_order_matrix()
    depths = {}
    for label in P.NILPOTENT_LABELS:
        for factor in ("left", "right"):
            V = P.action_field_matrix(P.Generator(label, factor))
            d = ad_nilpotency_depth(d0, V, NILPOTENCY_LIMIT)
            if d is None:
                return "fail", (f"ad({label}-{factor}) not nilpotent within "
                                f"limit {NILPOTENCY_LIMIT}")
            depths[f"{label}-{factor}"] = d
    worst = max(depths.values())
    return "pass", f"finite for all 12 nilpotent fields, max depth {worst}"


def check_d0_euler(cfg):
    d0 = P.mixed_second_order_matrix()
    if not commutator(d0, P.euler_field_matrix()).is_zero():
        return "fail", "does not commute with the Euler field"
    return "pass", "commutes with the Euler field (degree-0 homogeneous)"


# -- twists suite ------------------------------------------------------------------------------


def check_twist_corrections(cfg):
    bad = _mismatches("twists.correction")
    if bad:
        label, text, eng, _ = bad[0]
        return "fail", (f"correction of {label} is {eng.to_text()}, "
                        f"display has {text}")
    return "pass", "all six zero-order corrections match the display"


def check_twist_regular_big_cell(cfg):
    ok, witness = regular_on(P.mixed_second_order_big(), P.BIG)
    if not ok:
        return "fail", f"witness: {witness.to_text()}"
    return "pass", "twisted operator is regular on the big cell"


def check_twist_regular_bminusb(cfg):
    ok, witness = regular_on(P.descent_bminusb_presentation(), P.BMINUSB)
    if not ok:
        return "fail", f"witness: {witness.to_text()}"
    return "pass", ("coefficients lie in k[g][1/g11, 1/Delta33] on the "
                    "opposite cell")


def check_twist_nilpotency(cfg):
    d0 = P.mixed_second_order_matrix()
    for label in P.NILPOTENT_LABELS:
        for factor in ("left", "right"):
            V = P.twisted_field_matrix(P.Generator(label, factor))
            if ad_nilpotency_depth(d0, V, NILPOTENCY_LIMIT) is None:
                return "fail", f"twisted ad({label}-{factor}) exceeded the limit"
    return "pass", "twisted operator is ad-nilpotent under all twisted fields"


def check_twist_section_example(cfg):
    sig = P.monomial_section()
    tw = P.twist_section(sig, P.W_S1.inverse())
    nu1, nu2 = _sym_nu()
    one = RatFunc.const(P.MATRIX_TABLE, 1)
    expected = PowerSection(P.MATRIX, one, [
        (P.gvar(3, 3), nu2), (P.minor(2, 2), nu1), (P.det_g(), P.sym_m1())])
    if tw != expected:
        return "fail", "twisted section is not (a1 + U12 U21)^nu1 sigma"
    return "pass", ("s1-twisted section equals (a1 + U12*U21)^nu1 sigma "
                    "(minor Delta22 replaces Delta11)")


def check_twist_descent_example(cfg):
    # D^{s1} sigma = m2 ( m1 U12 U21 sigma_{nu+rho} + (m1 + nu1) sigma_{nu+a2} )
    sig = P.monomial_section()
    out = P.apply_descent(sig, P.W_S1, P.canonical_section())
    m1, m2 = P.sym_m1(), P.sym_m2()
    s_rho = P.monomial_section(m1 - 1, m2 - 1)
    s_a2 = P.monomial_section(m1, m2 - 1)
    t = P.MATRIX_TABLE
    u12u21 = (RatFunc.from_poly(P.minor(2, 1)) * RatFunc.from_poly(P.minor(1, 2))
              / (RatFunc.from_poly(P.minor(1, 1)) ** 2))
    m1r, m2r = RatFunc.var(t, "m1"), RatFunc.var(t, "m2")
    nu1r = RatFunc.from_poly(_sym_nu()[0])
    expected = s_rho.scale(m2r * m1r * u12u21) + \
        s_a2.scale(m2r * (m1r + nu1r))
    if out != expected:
        return "fail", "twisted descent does not match the displayed splitting"
    return "pass", ("twisted descent splits as m2 (m1 U12 U21 sigma_{nu+rho}"
                    " + (m1+nu1) sigma_{nu+alpha2}) symbolically")


def check_twist_bracket_table(cfg):
    """[twisted(xi), twisted(eta)] = twisted([xi, eta]) with symbolic lam."""
    bad = P.bracket_defects(
        lambda label: P.twisted_field_matrix(P.Generator(label, "left")),
        P.twisted_field_of_matrix)
    if bad:
        a, b = bad[0]
        return "fail", f"twisted bracket [{a},{b}] fails"
    for a, b in (("X1", "Y2"), ("H1", "Y3"), ("Y1", "X3"), ("H2", "H1")):
        lhs = commutator(P.twisted_field_matrix(P.Generator(a, "left")),
                         P.twisted_field_matrix(P.Generator(b, "right")))
        if not lhs.is_zero():
            return "fail", f"twisted cross bracket [{a}-left, {b}-right] != 0"
    return "pass", ("twisted fields satisfy the full bracket table and "
                    "cross-factor brackets vanish, symbolically in lam")


def check_twist_operator_identity(cfg):
    rng = random.Random(cfg.seed)
    d0 = P.mixed_second_order_matrix()
    for w in (P.W_E, P.W_S1, P.W_S1S2, P.W_S2, P.W_S2S1, P.W_LONG):
        M = P.weyl_substitution(w)
        tw = P.twist_operator(d0, w)
        if w.label == "e" and tw != d0:
            return "fail", "identity twist changed the operator"
        for _ in range(3):
            exps = [rng.randint(0, 1) for _ in range(9)]
            mono = P.MATRIX_TABLE.one()
            for name, e in zip(P.MATRIX_NAMES, exps):
                mono = mono * P.MATRIX_TABLE.var(name) ** e
            f = RatFunc.from_poly(mono)
            lhs = op_apply(tw, f)
            rhs = M.substitute_to_target(op_apply(d0, M.substitute_to_source(f)))
            if lhs != rhs:
                return "fail", f"twist by {w.label} fails the defining identity"
    return "pass", "operator twists satisfy w.(D(w^{-1}.f)) on samples"


# -- casimir suite ------------------------------------------------------------------------------


def check_casimir_centrality(cfg):
    cas = P.casimir_operator()
    for label in P.GENERATOR_LABELS:
        com = commutator(cas, P.twisted_field_matrix(P.Generator(label, "left")))
        if not com.is_zero():
            return "fail", f"[c, {label}] != 0 with symbolic lam"
    return "pass", "the Casimir commutes with all 8 twisted left fields"


def check_casimir_routes_agree(cfg):
    # composed-operator route against the iterated section route
    sig = P.monomial_section()
    f = P.canonical_section()
    via_op = op_apply_section(P.casimir_operator(), sig / f) * f
    via_sections = P.casimir_apply(sig)
    if via_op != via_sections:
        return "fail", "operator route and section route disagree"
    return "pass", "composed-operator and iterated-section routes agree"


def check_casimir_eigenvalue(cfg):
    sig = P.monomial_section()
    w = express_as_multiple(P.casimir_apply(sig), sig)
    if w != P.central_character(*_sym_nu()):
        return "fail", f"eigenvalue {w.to_text()} differs from the character"
    return "pass", "c sigma_nu = chi_nu(c) sigma_nu symbolically"


def check_chi_values(cfg):
    t = P.MATRIX_TABLE
    if P.central_character(0, 0) != RatFunc.const(t, 0):
        return "fail", "chi(0) != 0"
    if P.central_character(1, 1) != RatFunc.const(t, 1):
        return "fail", "chi(rho) != 1"
    chi_ref = _sub_nu(REF.rf_matrix(REF.CHI_TEXT))
    chi_eng = _sub_nu(P.central_character(t.var("nu1"), t.var("nu2")))
    if chi_eng != chi_ref:
        return "fail", "character formula differs from the display"
    return "pass", "chi(0) = 0, chi(rho) = 1, formula matches the display"


def check_casimir_alpha_free(cfg):
    sig = P.monomial_section()
    B = P.BIG_TABLE
    samples = [B.one(), B.var("U12") * B.var("U21"),
               B.var("U13") * B.var("U31") + B.var("U23"),
               B.var("U12") * B.var("U23") * B.var("U32") - B.var("U21")]
    z = RatFunc.const(B, 0)
    nonzero_seen = False
    for f in samples:
        fm = P.big_to_matrix_deg0(RatFunc.from_poly(f))
        res = CERT.apply_filters(sig.scale(fm), [(0, 0)], _sym_nu())
        if res.is_zero():
            continue
        nonzero_seen = True
        q = P.matrix_deg0_to_big(res.ratio_to(sig))
        at0 = q.substitute({"a1": z, "a2": z})
        if not at0.is_zero():
            return "fail", (f"alpha-free component {at0.to_text()} "
                            f"for f = {f.to_text()}")
    if not nonzero_seen:
        return "fail", "all samples were annihilated; the check is vacuous"
    return "pass", ("(c - chi_nu)(f sigma_nu) lies in a1*(sections) + "
                    "a2*(sections) for symbolic parameters, including "
                    "U-dependent coefficients f")


def check_casimir_lemma_operator(cfg):
    # the intended reading of the displayed second-order reduction operator
    B = P.BIG_TABLE

    def pd(name):
        return DiffOp.partial(P.BIG, name)

    def mul(name):
        return DiffOp.multiplication(P.BIG, RatFunc.var(B, name))

    a1, a2 = RatFunc.var(B, "a1"), RatFunc.var(B, "a2")
    omega = (op_compose(pd("U12"), pd("U21")).scale(a1)
             + op_compose(pd("U23") + op_compose(mul("U12"), pd("U13")),
                          pd("U32") + op_compose(mul("U21"), pd("U31"))).scale(a2)
             + op_compose(pd("U13"), pd("U31")).scale(a1 * a2)
             ).scale(Fraction(1, 3))
    sig = P.monomial_section()
    unames = ("U12", "U21", "U13", "U31", "U23", "U32")
    samples = [B.one()]
    samples += [B.var(u) for u in unames]
    samples += [B.var(a) * B.var(b)
                for a, b in itertools.combinations_with_replacement(unames, 2)]
    rng = random.Random(cfg.seed)
    extra = B.zero()
    for u in unames:
        extra = extra + B.var(u).scale(rng.randint(-3, 3))
    samples.append(extra * extra)
    for f in samples:
        fb = RatFunc.from_poly(f)
        fm = P.big_to_matrix_deg0(fb)
        lhs = CERT.apply_filters(sig.scale(fm), [(0, 0)], _sym_nu())
        rhs = sig.scale(P.big_to_matrix_deg0(op_apply(omega, fb)))
        if lhs != rhs:
            return "fail", f"lemma operator fails on f = {f.to_text()}"
    return "pass", (f"(c - chi_nu)(f sigma_nu) = (1/3) Omega(f) sigma_nu on "
                    f"{len(samples)} coefficient samples, symbolic parameters")


# -- cases suite ---------------------------------------------------------------------------------


def _sym_case_scalar(case):
    """Symbolic engine scalar of a case move (parameters lam, m kept free)."""
    return CERT.move_scalar(case, (P.sym_m1(), P.sym_m2()))


def _closed_form(case):
    """The closed form certificates print for the case, with nu1, nu2 written
    in (lam, m)."""
    return _sub_nu(REF.rf_matrix(CERT.MOVES[case].closed_form))


def check_case1_symbolic(cfg):
    got = _sym_case_scalar("1")
    if got != _closed_form("1"):
        return "fail", f"engine scalar {got.to_text()}"
    return "pass", "descent scalar = m1*m2 symbolically"


def check_case2b_engine_form(cfg):
    got = _sym_case_scalar("2b")
    if got != _closed_form("2b"):
        return "fail", f"engine scalar {got.to_text()} != recorded closed form"
    return "pass", ("scalar = -(m2/3) nu1 (m1 + nu1 + 1) symbolically "
                    "(engine-verified closed form)")


def check_case2b_displayed_form(cfg):
    got = _sym_case_scalar("2b")
    displayed = _sub_nu(REF.rf_matrix(REF.CASE2B_SCALAR_DISPLAYED))
    if got == displayed:
        return "pass", "matches the displayed closed form"
    diff = got - displayed
    return "mismatch-reported", (
        "engine scalar -(m2/3)*nu1*(m1+nu1+1) differs from the displayed "
        "-(m2/3)*((m1+nu1)*(nu1+1)+nu1) by " + diff.to_text() +
        "; the displayed middle factor (nu1+1) should read nu1 "
        "(equivalently chi_{nu+alpha2}-chi_{nu+rho} = -(nu1+1)/3, "
        "not -(nu1+2)/3); zero/nonzero agree on all support edges")


def check_case2a_engine_form(cfg):
    got = _sym_case_scalar("2a")
    if got != _closed_form("2a"):
        return "fail", f"engine scalar {got.to_text()} != recorded closed form"
    return "pass", ("scalar = -(m1/3) nu2 (m2 + nu2 + 1) symbolically "
                    "(engine-derived, the display only says 'likewise')")


def check_case2b_interpolation(cfg):
    # recover the scalar by interpolating its values on a grid
    degrees = {"lam1": 1, "lam2": 3, "m1": 3, "m2": 4}
    names = tuple(degrees)
    values = {}
    for pt in itertools.product(*(range(degrees[n] + 1) for n in names)):
        vals = dict(zip(names, pt))
        lam = (vals["lam1"], vals["lam2"])
        p = CERT.SupportPoint.at(lam, vals["m1"], vals["m2"])
        values[pt] = CERT.case_scalar(lam, p, "2b")
    poly = lagrange_interpolate(values, names, tuple(degrees[n] for n in names),
                                P.MATRIX_TABLE)
    sym = _sym_case_scalar("2b")
    if RatFunc.from_poly(poly) != sym:
        return "fail", "interpolated polynomial differs from the symbolic scalar"
    # out-of-grid confirmation points
    rng = random.Random(cfg.seed)
    for _ in range(3):
        vals = {n: rng.randint(degrees[n] + 1, degrees[n] + 4) for n in names}
        lam = (vals["lam1"], vals["lam2"])
        p = CERT.SupportPoint.at(lam, vals["m1"], vals["m2"])
        direct = CERT.case_scalar(lam, p, "2b")
        if poly.evaluate(vals) != direct:
            return "fail", f"interpolant wrong outside the grid at {vals}"
    return "pass", ("grid interpolation (degree bounds 1,3,3,4) recovers the "
                    "symbolic scalar and matches out-of-grid samples")


def _grid_scalars(cfg, case, keep):
    """Compare the case's engine scalar with its closed form at each grid
    point (lam, m) in [0, grid]^4 whose support point ``keep`` admits.

    Returns the (point, scalar) pairs checked, or the text of the failure.
    """
    checked = []
    for l1, l2, m1, m2 in itertools.product(range(cfg.grid + 1), repeat=4):
        p = CERT.SupportPoint.at((l1, l2), m1, m2)
        if not keep(p):
            continue
        got = CERT.case_scalar((l1, l2), p, case)
        want = CERT.closed_form_value(case, p)
        if got != want:
            return (f"engine {got} vs closed form {want} at "
                    f"lam=({l1},{l2}) m=({m1},{m2})")
        checked.append((p, got))
    if not checked:
        return "no grid point was checked; the check is vacuous"
    return checked


def check_case2_grid(cfg):
    rows = _grid_scalars(cfg, "2b", lambda p: True)
    if isinstance(rows, str):
        return "fail", rows
    display_disagreements = sum(
        got != CERT.scalar_at(REF.CASE2B_SCALAR_DISPLAYED, p) for p, got in rows)
    return "pass", (f"engine matches the corrected closed form on all "
                    f"{len(rows)} grid points; the displayed form disagrees on "
                    f"{display_disagreements} of them (see concordance)")


def check_case3a_grid(cfg):
    rows = _grid_scalars(cfg, "3a", lambda p: p.nu1 >= 2)
    if isinstance(rows, str):
        return "fail", rows
    return "pass", (f"engine scalar equals the displayed 7-factor product at "
                    f"all {len(rows)} grid points with nu1 >= 2")


def check_case3b_grid(cfg):
    rows = _grid_scalars(cfg, "3b", lambda p: p.nu2 >= 2)
    if isinstance(rows, str):
        return "fail", rows
    return "pass", (f"engine-derived mirrored product verified at all "
                    f"{len(rows)} grid points with nu2 >= 2")


def check_case4_scalar(cfg):
    m1, m2 = P.sym_m1(), P.sym_m2()
    # the weights whose support point m has the source weight of the move
    n1, n2 = CERT.MOVES["4"].source_nu
    lam = (n2 + m2.scale(2) - m1, n1 + m1.scale(2) - m2)
    got = CERT.move_scalar("4", (m1, m2), lam)
    if got != _closed_form("4"):
        return "fail", f"engine scalar {got.to_text()}"
    return "pass", "-(2/3)(m1+4)(m2+4) with symbolic m1, m2"


def check_case_signs(cfg):
    # the sign remarks of the display versus the computed scalars
    notes = []
    # case 2b: computed scalar is <= 0, zero exactly when nu1 = 0
    boundary = CERT.SupportPoint.at((1, 1), 1, 1)
    got = CERT.case_scalar((1, 1), boundary, "2b")
    # the display claims that minus its case-2 scalar is positive for m2 >= 1
    claimed_positive = -CERT.scalar_at(REF.CASE2B_SCALAR_DISPLAYED, boundary)
    if got == 0 and claimed_positive > 0:
        notes.append("case 2 scalar vanishes at nu1 = 0 (m1 >= 1) although "
                     "the displayed positivity bound is nonzero there; with "
                     "the corrected closed form the move is exactly "
                     "unavailable when the target leaves the dominant cone")
    p3 = CERT.SupportPoint.at((1, 3), 1, 1)
    r = CERT.case_scalar((1, 3), p3, "3a")
    if r < 0:
        notes.append(f"case 3 scalar is negative (example r = {r} at "
                     "nu=(2,0), m=(1,1)) although the display asserts > 0; "
                     "nonzero-ness, which the certificates need, holds")
    if not notes:
        return "pass", "computed signs agree with the displayed remarks"
    return "mismatch-reported", "; ".join(notes)


def check_certificates_small(cfg):
    for lam, want in (((1, 1), "irreducible"), ((0, 0), "irreducible"),
                      ((-1, 0), "zero_module"), ((2, 1), "irreducible")):
        report = CERT.certify(lam)
        if report["status"] != want:
            return "fail", f"certify{lam} gave {report['status']}"
        problems = CERT.validate_certificate(report)
        if problems:
            return "fail", f"checker rejected certify{lam}: {problems}"
    return "pass", "small certificates build and re-validate"


# -- conics suite ------------------------------------------------------------------------------


def check_conics_membership(cfg):
    defects, scal = CON.membership_defect()
    if not all(d.is_zero() for d in defects):
        return "fail", "S S' is not scalar"
    xy = CON.CONIC_TABLE.var("x") * CON.CONIC_TABLE.var("y")
    if scal != xy:
        return "fail", f"scalar is {scal.to_text()}, not x*y"
    return "pass", "S S' = x*y*I identically in (u, x, y)"


def check_conics_boundary(cfg):
    if not all(m.is_zero() for m in CON.boundary_rank_one_minors()):
        return "fail", "some 2x2 minor of S survives at x = 0"
    return "pass", "S has rank 1 along x = 0 (all 2x2 minors vanish)"


def check_conics_roundtrip(cfg):
    if not CON.map_conic_to_entry().roundtrip_checks():
        return "fail", "cell <-> entry chart maps do not invert each other"
    return "pass", "cell <-> entry chart maps are mutually inverse"


def check_conics_regular(cfg):
    ok, witness = regular_on(CON.mixed_derivative_entry(), CON.ENTRY)
    if not ok:
        return "fail", f"witness: {witness.to_text()}"
    return "pass", ("d/dx d/dy transported to the entry chart has polynomial "
                    "coefficients")


def check_conics_monomial_action(cfg):
    d = CON.mixed_derivative_conic()
    t = CON.CONIC_TABLE
    for a, b in ((1, 1), (3, 2)):
        f = RatFunc.from_poly(t.var("x") ** a * t.var("y") ** b)
        want = RatFunc.from_poly(t.var("x") ** (a - 1) * t.var("y") ** (b - 1)
                                 ).scale(a * b)
        if op_apply(d, f) != want:
            return "fail", f"wrong action on x^{a} y^{b}"
    return "pass", "acts on x^a y^b as a b x^(a-1) y^(b-1)"


def check_conics_nilpotency(cfg):
    depths = CON.cone_nilpotency_depths(NILPOTENCY_LIMIT)
    missing = [k for k, v in depths.items() if v is None]
    if missing:
        return "fail", f"limit exhausted for {missing}"
    return "pass", f"finite for all 6 nilpotent fields, max depth {max(depths.values())}"


def check_conics_euler(cfg):
    d = CON.mixed_derivative_cone()
    for prefix in ("S", "T"):
        if not commutator(d, CON.euler_field_cone(prefix)).is_zero():
            return "fail", f"does not commute with the {prefix}-cone Euler field"
    return "pass", "lifted operator commutes with both cone Euler fields"


def check_conics_brackets(cfg):
    bad = P.bracket_defects(CON.generator_field_cone, CON.action_field_cone)
    if bad:
        return "fail", f"bracket failures: {bad}"
    return "pass", "cone fields satisfy the full sl3 bracket table"


def check_conics_twisted(cfg):
    tw = CON.twisted_mixed_derivative()
    if tw.order() != 2:
        return "fail", "twisted conjugate lost its order"
    spec0 = {name: RatFunc.const(CON.CONE_TABLE, 0)
             for name in ("lam1", "lam2")}
    at0 = DiffOp(CON.CONE, {K: c.substitute(spec0) for K, c in tw.terms.items()})
    if at0 != CON.mixed_derivative_cone():
        return "fail", "twisted conjugate does not specialise to the untwisted lift"
    return "pass", ("conjugating by S11^lam1 T33^lam2 stays order 2 and "
                    "specialises correctly at lam = 0")


# -- suite registry ----------------------------------------------------------------------------

SUITES: dict[str, dict] = {
    "cdv": {
        "cdv.forward.reference": check_cdv_forward_reference,
        "cdv.backward.reference": check_cdv_backward_reference,
        "cdv.roundtrip.forward_backward": check_cdv_roundtrip_forward,
        "cdv.roundtrip.backward_forward": check_cdv_roundtrip_backward,
        "cdv.identity_values": check_cdv_identity_values,
        "cdv.homogeneous": check_cdv_homogeneous,
    },
    "vectorfields": {
        "fields.matrix.reference": check_fields_matrix_reference,
        "fields.brackets.left": check_fields_bracket_left,
        "fields.brackets.right": check_fields_bracket_right,
        "fields.brackets.cross": check_fields_bracket_cross,
        "fields.big_cell.reference": check_fields_big_cell_reference,
        "fields.big_cell.roundtrip": check_fields_big_cell_roundtrip,
        "fields.homogeneous": check_fields_homogeneous,
    },
    "d0": {
        "partials.reference": check_partials_reference,
        "partials.action": check_partials_action,
        "d0.reference": check_d0_reference,
        "d0.polynomial": check_d0_polynomial,
        "d0.monomial_action": check_d0_monomial_action,
        "d0.nilpotency": check_d0_nilpotency,
        "d0.euler": check_d0_euler,
    },
    "twists": {
        "twists.corrections": check_twist_corrections,
        "twists.regular.big_cell": check_twist_regular_big_cell,
        "twists.regular.bminusb": check_twist_regular_bminusb,
        "twists.nilpotency": check_twist_nilpotency,
        "twists.section_example": check_twist_section_example,
        "twists.descent_example": check_twist_descent_example,
        "twists.operator_identity": check_twist_operator_identity,
        "twists.bracket_table": check_twist_bracket_table,
    },
    "casimir": {
        "casimir.centrality": check_casimir_centrality,
        "casimir.routes_agree": check_casimir_routes_agree,
        "casimir.eigenvalue": check_casimir_eigenvalue,
        "casimir.chi_values": check_chi_values,
        "casimir.alpha_free": check_casimir_alpha_free,
        "casimir.lemma_operator": check_casimir_lemma_operator,
    },
    "cases": {
        "cases.case1.symbolic": check_case1_symbolic,
        "cases.case2b.engine_form": check_case2b_engine_form,
        "cases.case2b.displayed_form": check_case2b_displayed_form,
        "cases.case2a.engine_form": check_case2a_engine_form,
        "cases.case2b.interpolation": check_case2b_interpolation,
        "cases.case2.grid": check_case2_grid,
        "cases.case3a.grid": check_case3a_grid,
        "cases.case3b.grid": check_case3b_grid,
        "cases.case4.scalar": check_case4_scalar,
        "cases.signs": check_case_signs,
        "cases.certificates_small": check_certificates_small,
    },
    "conics": {
        "conics.membership": check_conics_membership,
        "conics.boundary_rank": check_conics_boundary,
        "conics.roundtrip": check_conics_roundtrip,
        "conics.regular": check_conics_regular,
        "conics.monomial_action": check_conics_monomial_action,
        "conics.nilpotency": check_conics_nilpotency,
        "conics.euler": check_conics_euler,
        "conics.brackets": check_conics_brackets,
        "conics.twisted": check_conics_twisted,
    },
}


def suite_names() -> list[str]:
    return list(SUITES)


def checks_for(selection: str) -> dict:
    suites = SUITES.values() if selection == "all" else [SUITES[selection]]
    return {check_id: fn for suite in suites for check_id, fn in suite.items()}


def run_check(check_id: str, cfg: CheckConfig) -> CheckResult:
    fn = checks_for("all")[check_id]
    start = time.monotonic()
    try:
        status, details = fn(cfg)
    except Exception as exc:           # a crash is a failing check, not a crash
        status, details = "fail", f"exception: {type(exc).__name__}: {exc}"
    return CheckResult(check_id, status, details, time.monotonic() - start)


def run_suite(selection: str, cfg: CheckConfig, jobs: int = 1) -> list[CheckResult]:
    ids = sorted(checks_for(selection))
    workers = min(jobs, len(ids), _cpu_count())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_check_job,
                                    [(i, cfg) for i in ids]))
    else:
        results = [run_check(i, cfg) for i in ids]
    return sorted(results, key=lambda r: r.check_id)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_check_job(arg):
    check_id, cfg = arg
    return run_check(check_id, cfg)


# -- concordance -------------------------------------------------------------------------------


def _item(item_id, reference, engine, residual=None):
    out = {"id": item_id,
           "status": "matched" if residual is None else "mismatch",
           "reference": reference, "engine": engine}
    if residual is not None:
        out["residual"] = residual
    return out


def concordance_items() -> list[dict]:
    """Formula-by-formula comparison of the engine against the display."""
    items = [_item(f"{family}.{name}", text, eng.to_text(),
                   None if eng == ref else (eng - ref).to_text())
             for family in DISPLAY
             for name, text, eng, ref in display_rows(family)]
    # case scalars (symbolic where available)
    c1 = _sym_case_scalar("1")
    ref1 = _sub_nu(REF.rf_matrix(REF.CASE1_SCALAR))
    items.append(_item("cases.1.scalar", REF.CASE1_SCALAR, c1.to_text(),
                       None if c1 == ref1 else (c1 - ref1).to_text()))
    c2 = _sym_case_scalar("2b")
    ref2 = _sub_nu(REF.rf_matrix(REF.CASE2B_SCALAR_DISPLAYED))
    eng2 = _sub_nu(REF.rf_matrix(REF.CASE2B_SCALAR_ENGINE))
    items.append(_item("cases.2b.scalar", REF.CASE2B_SCALAR_DISPLAYED,
                       REF.CASE2B_SCALAR_ENGINE if c2 == eng2 else c2.to_text(),
                       None if c2 == ref2 else (c2 - ref2).to_text()))
    # case 3: displayed product (verified against the engine on grids)
    p = CERT.SupportPoint.at((1, 3), 1, 1)
    r_eng = CERT.case_scalar((1, 3), p, "3a")
    r_ref = CERT.closed_form_value("3a", p)
    items.append(_item("cases.3a.scalar", REF.CASE3A_SCALAR_DISPLAYED,
                       CERT.MOVES["3a"].closed_form,
                       None if r_eng == r_ref else f"sample defect {r_eng - r_ref}"))
    items.append(_item("cases.3.sign", "display asserts the scalar is > 0",
                       f"computed r = {r_eng} < 0 at nu=(2,0), m=(1,1)",
                       "sign remark disagrees (nonzero-ness is unaffected)"))
    c4sym = REF.rf_matrix(REF.CASE4_SCALAR)
    p4 = CERT.SupportPoint.at((1, 1), 0, 0)
    got4 = CERT.case_scalar((1, 1), p4, "4")
    items.append(_item("cases.4.scalar", REF.CASE4_SCALAR,
                       CERT.MOVES["4"].closed_form,
                       None if got4 == c4sym.evaluate({"m1": 0, "m2": 0})
                       else f"sample defect {got4}"))
    chi_eng = _sub_nu(P.central_character(P.MATRIX_TABLE.var("nu1"),
                                          P.MATRIX_TABLE.var("nu2")))
    chi_ref = _sub_nu(REF.rf_matrix(REF.CHI_TEXT))
    items.append(_item("casimir.chi", REF.CHI_TEXT, chi_eng.to_text() if chi_eng != chi_ref else REF.CHI_TEXT,
                       None if chi_eng == chi_ref else (chi_eng - chi_ref).to_text()))
    return items


# -- report assembly ---------------------------------------------------------------------------


def report_json(checks: list[CheckResult] = (), certificates: list[dict] = (),
                concordance: list[dict] = ()) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "checks": [c.to_json() for c in checks],
        "certificates": list(certificates),
        "concordance": list(concordance),
    }


def transcript(checks: list[CheckResult]) -> str:
    lines = []
    for c in checks:
        lines.append(f"[{c.status:>18}] {c.check_id}  ({c.wall_time:.2f}s)")
        lines.append(f"{'':21}{c.details}")
    n_fail = sum(1 for c in checks if c.status == "fail")
    n_mis = sum(1 for c in checks if c.status == "mismatch-reported")
    lines.append(f"{len(checks)} checks: {len(checks) - n_fail - n_mis} passed, "
                 f"{n_mis} mismatch-reported, {n_fail} failed")
    return "\n".join(lines)
