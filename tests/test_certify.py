"""Certifier tests: supports, case scalars, certificates and the checker."""

from fractions import Fraction

import dataclasses
import itertools

import pytest

from pgl3dops import certify as C
from pgl3dops import checks as CK
from pgl3dops import pgl3 as P
from pgl3dops import reference as REF
from pgl3dops.ring import parse_ratfunc
from pgl3dops.weyl import ExpressFailure, express_as_multiple


def test_dominant_support_examples():
    assert [(p.m1, p.m2) for p in C.dominant_support((0, 0))] == [(0, 0)]
    assert C.dominant_support((-1, 0)) == []
    pts = {(p.m1, p.m2): (p.nu1, p.nu2) for p in C.dominant_support((1, 1))}
    assert pts == {(0, 0): (1, 1), (1, 1): (0, 0)}


def test_dominant_support_brute_force_oracle():
    # enumeration with an independent, generous bound
    for lam in ((2, 3), (4, 0), (0, 4), (3, 3)):
        got = {(p.m1, p.m2) for p in C.dominant_support(lam)}
        brute = set()
        for m1 in range(25):
            for m2 in range(25):
                if lam[1] - 2 * m1 + m2 >= 0 and lam[0] + m1 - 2 * m2 >= 0:
                    brute.add((m1, m2))
        assert got == brute


def test_module_dimension_examples():
    assert C.module_dimension((0, 0)) == 1
    assert C.module_dimension((1, 1)) == 65
    assert C.module_dimension((-1, 0)) == 0


def test_case1_scalars():
    p = C.SupportPoint(1, 1, *C.weight_at((1, 1), 1, 1))
    assert C.case_scalar((1, 1), p, "1") == 1
    p = C.SupportPoint(3, 2, *C.weight_at((4, 4), 3, 2))
    assert C.case_scalar((4, 4), p, "1") == 6


def test_case2_zero_at_boundary():
    # nu1 = 0, m1 = 0, m2 = 1: the move's scalar vanishes
    lam = (2, 1)
    nu = C.weight_at(lam, 0, 1)
    assert nu[0] == 2  # pick instead lam2 - 2m1 + m2 = 0
    lam = (2, -1)
    p = C.SupportPoint(0, 1, *C.weight_at(lam, 0, 1))
    assert p.nu1 == 0
    assert C.case_scalar(lam, p, "2b") == 0
    # a lowering move out of m2 = 0 is evaluated, not refused, and gives 0
    assert C.case_scalar((2, 2), C.SupportPoint.at((2, 2), 1, 0), "2b") == 0


def test_case3_example_value():
    # nu = (2, 0), m = (1, 1): r = -(2/3^5) * 3*4*3*5*7*2*1
    lam = (1, 3)
    p = C.SupportPoint(1, 1, *C.weight_at(lam, 1, 1))
    assert (p.nu1, p.nu2) == (2, 0)
    want = Fraction(-2, 3 ** 5) * 3 * 4 * 3 * 5 * 7 * 2 * 1
    assert C.case_scalar(lam, p, "3a") == want == Fraction(-560, 27)


def test_case3_zero_when_motion_unavailable():
    # nu1 = 1 makes the (nu1 - 1) factor vanish
    lam = (2, 1)
    p = C.SupportPoint(0, 0, *C.weight_at(lam, 0, 0))
    assert p.nu1 == 1
    assert C.case_scalar(lam, p, "3a") == 0


def test_case4_values():
    p = C.SupportPoint(0, 0, 1, 1)
    assert C.case_scalar((1, 1), p, "4") == Fraction(-32, 3)
    # away from nu = (1, 1) the long-element move is no multiple of sigma
    for lam, m in (((2, 2), (0, 0)), ((3, 3), (1, 1))):
        with pytest.raises(ExpressFailure):
            C.case_scalar(lam, C.SupportPoint.at(lam, *m), "4")


def test_unknown_case_label_raises():
    with pytest.raises(ValueError, match="unknown case"):
        C.case_scalar((2, 2), C.SupportPoint(1, 1, 1, 1), "5")


def test_closed_forms_match_engine_on_samples():
    for lam in ((2, 2), (3, 1)):
        for p in C.dominant_support(lam):
            for case in ("1", "2a", "2b", "3a", "3b"):
                got = C.case_scalar(lam, p, case)
                assert got == C.closed_form_value(case, p), (lam, p, case)


def test_closed_forms_equal_their_expansions():
    # factor-by-factor evaluation against the expanded parse, over
    # (lam, m) in [0,4]^4, negative weights included
    texts = {case: move.closed_form for case, move in C.MOVES.items()}
    texts["displayed"] = REF.CASE2B_SCALAR_DISPLAYED
    expanded = {key: parse_ratfunc(text, P.MATRIX_TABLE)
                for key, text in texts.items()}
    for l1, l2, m1, m2 in itertools.product(range(5), repeat=4):
        p = C.SupportPoint(m1, m2, *C.weight_at((l1, l2), m1, m2))
        at = {"m1": m1, "m2": m2, "nu1": p.nu1, "nu2": p.nu2}
        for key, text in texts.items():
            got = (C.scalar_at(text, p) if key == "displayed"
                   else C.closed_form_value(key, p))
            assert got == expanded[key].evaluate(at), (key, l1, l2, m1, m2)


@pytest.mark.parametrize("case", ["3a", "3b"])
def test_case3_symbolic_scalars_equal_their_closed_forms(case, monkeypatch):
    # with lam and m free, not a sample: the engine scalar is the closed
    # form; the filters other than the spare one leave a multiple of
    # sigma_target (one express, no fallback), that multiple times the
    # spare gap is the closed form, and so is the scalar of the full route,
    # which applies the spare filter to the same output
    seen = []

    def spy(s, t):
        seen.append((s, t, express_as_multiple(s, t)))
        return seen[-1][2]

    monkeypatch.setattr(C, "express_as_multiple", spy)
    closed = CK._closed_form(case)
    assert CK._sym_case_scalar(case) == closed
    ((out, sigma_t, multiple),) = seen
    move = C.MOVES[case]
    ((d1, d2),) = move.spare
    m = (P.sym_m1(), P.sym_m2())
    nu = P.weight_exponents(*m)
    gap = P.central_character(*P.weight_exponents(
        m[0] + move.step[0], m[1] + move.step[1])) - \
        P.central_character(nu[0] + d1, nu[1] + d2)
    assert multiple * gap == closed
    full = C.apply_filters(out, move.spare, nu)
    assert express_as_multiple(full, sigma_t) == closed


# the weights certify_sweep certifies in one pass (perfbench/workloads.py)
SWEEP_WEIGHTS = (
    (8, 1), (7, 2), (5, 3), (3, 4), (4, 4), (3, 5),
    (10, 1), (12, 0), (5, 4), (5, 5), (4, 5), (9, 1),
    (11, 1), (10, 2), (7, 3), (8, 3), (6, 4), (7, 4),
)


def _count_express_failures(monkeypatch) -> list[int]:
    """Count the ExpressFailures of certify's express_as_multiple, each of
    which makes move_scalar fall back to the spare filters."""
    failures = [0]

    def counted(s, t):
        try:
            return express_as_multiple(s, t)
        except ExpressFailure:
            failures[0] += 1
            raise

    monkeypatch.setattr(C, "express_as_multiple", counted)
    return failures


def test_spare_route_equals_full_route(monkeypatch):
    # at degenerate nu (nu1 or nu2 in {0, 1}, nu1 = nu2) and at non-dominant
    # points the scalar without the spare filters equals the scalar with all
    # five, computed by rows that mark nothing spare
    points = [((l1, l2), C.SupportPoint.at((l1, l2), m1, m2))
              for l1, l2, m1, m2 in itertools.product(
                  range(-1, 4), range(-1, 4), range(2), range(2))]
    points = [(lam, p) for lam, p in points if {p.nu1, p.nu2} & {0, 1}
              or p.nu1 == p.nu2 or min(p.nu1, p.nu2) < 0]
    assert {0, 1} <= {p.nu1 for _, p in points} & {p.nu2 for _, p in points}
    assert any(p.nu1 == p.nu2 >= 2 for _, p in points)
    assert any(min(p.nu1, p.nu2) < 0 for _, p in points)
    spare = {(case, lam, p): C.case_scalar(lam, p, case)
             for case in ("3a", "3b") for lam, p in points}
    for case in ("3a", "3b"):
        monkeypatch.setitem(C.MOVES, case,
                            dataclasses.replace(C.MOVES[case], spare=()))
    for (case, lam, p), scalar in spare.items():
        assert C.case_scalar(lam, p, case) == scalar, (case, lam, p)


def test_no_fallback_on_the_sweep_weights(monkeypatch):
    # a spare flag in MOVES that a move needs would show up here
    failures = _count_express_failures(monkeypatch)
    for lam in SWEEP_WEIGHTS:
        assert C.certify(lam).status == "irreducible", lam
    assert failures[0] == 0


def test_a_wrong_spare_flag_falls_back(monkeypatch):
    # marking the needed filter (1, 1) spare leaves no multiple of
    # sigma_target; the fallback applies it and the scalar stays right
    lam, p = (5, 3), C.SupportPoint.at((5, 3), 1, 1)
    assert (p.nu1, p.nu2) == (2, 4)
    failures = _count_express_failures(monkeypatch)
    monkeypatch.setitem(C.MOVES, "3a",
                        dataclasses.replace(C.MOVES["3a"], spare=((1, 1),)))
    assert C.case_scalar(lam, p, "3a") == C.closed_form_value("3a", p) \
        == Fraction(-8624, 27)
    assert failures[0] == 1


def test_every_row_closed_form_evaluates():
    # each row's text, evaluated through closed_form_value, is the scalar of
    # the edges the factory builds for that case
    found = set()
    for lam in ((1, 1), (2, 2)):
        factory = C._EdgeFactory(lam, C.dominant_support(lam))
        for m, p in factory.points.items():
            for case in C.MOVES:
                edge = factory.get(m, case)
                if edge is not None:
                    assert edge.scalar == C.closed_form_value(case, p)
                    found.add(case)
    assert found == set(C.MOVES)


def test_factory_keeps_case4_to_its_source_weight():
    # nu = (2, 2) at m = (0, 0) and the target (1, 1) is in the support, yet
    # case 4 exists only from nu = (1, 1): no edge, where the move's scalar
    # would raise ExpressFailure
    lam = (2, 2)
    factory = C._EdgeFactory(lam, C.dominant_support(lam))
    p = factory.points[(0, 0)]
    assert (p.nu1, p.nu2) == (2, 2) and (1, 1) in factory.points
    assert factory.get((0, 0), "4") is None


def test_certify_small_examples():
    cert = C.certify((1, 1))
    assert cert.status == "irreducible"
    assert {(e.source, e.target, e.case) for e in cert.edges} == \
        {((1, 1), (0, 0), "1"), ((0, 0), (1, 1), "4")}
    assert C.validate_certificate(cert) == []

    cert = C.certify((0, 0))
    assert cert.status == "irreducible" and cert.edges == []
    assert C.validate_certificate(cert) == []

    cert = C.certify((-1, 0))
    assert cert.status == "zero_module"
    assert C.validate_certificate(cert) == []


def test_certify_grid_row():
    for lam in ((2, 0), (0, 3), (2, 2)):
        cert = C.certify(lam)
        assert cert.status in ("irreducible", "zero_module")
        assert C.validate_certificate(cert) == []


def test_checker_rejects_corruption():
    cert = C.certify((2, 1))
    assert cert.status == "irreducible"
    # corrupt one edge's target
    bad = C.Certificate(cert.lam, cert.support,
                        [C.CaseEdge(e.source, (9, 9), e.case, e.scalar)
                         if i == 0 else e
                         for i, e in enumerate(cert.edges)],
                        cert.basepoint, cert.paths, cert.status)
    assert C.validate_certificate(bad)
    # remove a support point
    bad2 = C.Certificate(cert.lam, cert.support[1:], cert.edges,
                         cert.basepoint, cert.paths, cert.status)
    assert C.validate_certificate(bad2)
    # an unknown case label is reported, not raised
    bad3 = C.Certificate(cert.lam, cert.support,
                         [C.CaseEdge(e.source, e.target, "zz", e.scalar)
                          if i == 0 else e
                          for i, e in enumerate(cert.edges)],
                         cert.basepoint, cert.paths, cert.status)
    problems = C.validate_certificate(bad3)
    assert any("unknown case label" in p for p in problems)
    # a wrong nonzero scalar is reported
    first = cert.edges[0]
    assert first.scalar == Fraction(-2560, 81)
    corrupt = C.CaseEdge(first.source, first.target, first.case, Fraction(7))
    bad5 = C.Certificate(cert.lam, cert.support, [corrupt] + cert.edges[1:],
                         cert.basepoint, cert.paths, cert.status)
    assert C.validate_certificate(bad5)
    # a case-4 edge from a point away from the row's source weight carries
    # its closed form value, but the move has no scalar there
    p = next(p for p in cert.support if p.m == (0, 0))
    assert (p.nu1, p.nu2) != C.MOVES["4"].source_nu
    forged = C.CaseEdge((0, 0), (1, 1), "4", C.closed_form_value("4", p))
    bad6 = C.Certificate(cert.lam, cert.support, cert.edges + [forged],
                         cert.basepoint, cert.paths, cert.status)
    assert any("case 4" in msg for msg in C.validate_certificate(bad6))
    # corrupt paths are reported, not raised: an edge index past the end, a
    # missing leg, a negative index naming the right edge from the end, and
    # a support point whose paths were dropped
    pt = next(pt for pt, trip in cert.paths.items() if trip["to_basepoint"])
    trip = cert.paths[pt]
    wrapped = [i - len(cert.edges) for i in trip["to_basepoint"]]
    for trip_at_pt in ({**trip, "to_basepoint": [999]},
                       {"to_basepoint": trip["to_basepoint"]},
                       {**trip, "to_basepoint": wrapped},
                       None):
        paths = {k: v for k, v in cert.paths.items() if k != pt}
        if trip_at_pt is not None:
            paths[pt] = trip_at_pt
        bad4 = C.Certificate(cert.lam, cert.support, cert.edges,
                             cert.basepoint, paths, cert.status)
        assert C.validate_certificate(bad4), trip_at_pt
    # a chain that skips its first edge starts at the wrong point; the cut
    # leg still ends at the basepoint, so only the chain check catches it
    cert22 = C.certify((2, 2))
    trip = cert22.paths[(2, 2)]
    assert trip["to_basepoint"] == [7, 5]
    paths = {**cert22.paths, (2, 2): {**trip, "to_basepoint": [5]}}
    forged_chain = C.Certificate(cert22.lam, cert22.support, cert22.edges,
                                 cert22.basepoint, paths, cert22.status)
    assert C.validate_certificate(forged_chain) == \
        ["broken path at (2, 2) (to_basepoint)"]
    # zero scalar cannot even be constructed
    with pytest.raises(ValueError):
        C.CaseEdge((1, 0), (0, 0), "2a", Fraction(0))


def test_certificate_json_shape():
    data = C.certify((1, 1)).to_json()
    assert set(data) == {"lambda", "status", "module_dimension", "support",
                         "basepoint", "edges", "paths", "unreachable"}
    assert data["lambda"] == [1, 1]
    assert data["module_dimension"] == 65
    for e in data["edges"]:
        assert e["scalar_num"] != 0
        assert set(e) == {"from", "to", "case", "scalar_num", "scalar_den",
                          "closed_form"}


def test_case2b_strictly_negative_on_interior():
    # with the corrected closed form the scalar is strictly negative exactly
    # when the move stays inside the dominant cone (nu1 >= 1, m2 >= 1)
    for lam in ((2, 2), (3, 1), (1, 3)):
        for p in C.dominant_support(lam):
            if p.m2 < 1:
                continue
            s = C.case_scalar(lam, p, "2b")
            if p.nu1 >= 1:
                assert s < 0, (lam, p)
            else:
                assert s == 0, (lam, p)
