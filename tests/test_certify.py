"""Certifier tests: supports, case scalars, certificates and the checker."""

from fractions import Fraction

import copy
import dataclasses
import itertools
import json
import time

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


def test_dominant_count_is_the_support_size():
    # the checker's interval count against the enumerated support
    for lam in itertools.product(range(-3, 9), repeat=2):
        assert C._dominant_count(lam) == len(C.dominant_support(lam)), lam


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
        assert C.certify(lam)["status"] == "irreducible", lam
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
    # the edges the factory builds for that case, and the edges carry it
    found = set()
    for lam in ((1, 1), (2, 2)):
        factory = C._EdgeFactory(lam, C.dominant_support(lam))
        for m, p in factory.points.items():
            for case in C.MOVES:
                edge = factory.get(m, case)
                if edge is not None:
                    assert Fraction(edge["scalar_num"], edge["scalar_den"]) \
                        == C.closed_form_value(case, p)
                    assert edge["closed_form"] == C.MOVES[case].closed_form
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
    report = C.certify((1, 1))
    assert report["status"] == "irreducible"
    assert {(tuple(e["from"]), tuple(e["to"]), e["case"])
            for e in report["edges"]} == \
        {((1, 1), (0, 0), "1"), ((0, 0), (1, 1), "4")}
    assert C.validate_certificate(report) == []

    report = C.certify((0, 0))
    assert report["status"] == "irreducible" and report["edges"] == []
    assert C.validate_certificate(report) == []

    report = C.certify((-1, 0))
    assert report["status"] == "zero_module"
    assert C.validate_certificate(report) == []


def test_certify_grid_row():
    for lam in ((2, 0), (0, 3), (2, 2)):
        report = C.certify(lam)
        assert report["status"] in ("irreducible", "zero_module")
        assert C.validate_certificate(report) == []


def _checked(report, edit):
    """The checker's problems with a deep copy of report after edit(copy)."""
    bad = copy.deepcopy(report)
    edit(bad)
    return C.validate_certificate(bad)


def test_checker_rejects_corruption():
    report = C.certify((2, 1))
    assert report["status"] == "irreducible"
    first = report["edges"][0]
    name = f"edge 0 ({first['case']}: {tuple(first['from'])} -> " \
           f"{tuple(first['to'])})"

    def edit_first(**fields):
        return lambda bad: bad["edges"][0].update(fields)

    # corrupt one edge's target
    assert _checked(report, edit_first(to=[9, 9]))
    # remove a support point
    assert _checked(report, lambda bad: bad["support"].pop(0))
    # an unknown case label is reported, not raised
    problems = _checked(report, edit_first(case="zz"))
    assert any("unknown case label" in p for p in problems)
    # a wrong nonzero scalar is reported
    assert Fraction(first["scalar_num"], first["scalar_den"]) == \
        Fraction(-2560, 81)
    assert _checked(report, edit_first(scalar_num=7, scalar_den=1))
    # a zero scalar is reported
    problems = _checked(report, edit_first(scalar_num=0))
    assert f"zero scalar on {name}" in problems
    # a zero or negative denominator, and the right value unreduced
    for num, den in ((-2560, 0), (2560, -81), (-5120, 162)):
        problems = _checked(report, edit_first(scalar_num=num,
                                               scalar_den=den))
        assert problems == [f"scalar {num}/{den} of {name} is not in lowest "
                            "terms over a positive denominator"], (num, den)
    # a closed form that is not the row's text, though it has the same value
    problems = _checked(report, edit_first(
        closed_form=C.MOVES[first["case"]].closed_form + " + 0"))
    assert len(problems) == 1 and problems[0].startswith(
        f"closed_form of {name}")
    # a wrong module dimension
    problems = _checked(report, lambda bad: bad.update(module_dimension=1))
    assert problems == [f"module_dimension 1 is not "
                        f"{C.module_dimension((2, 1))}"]
    # a lambda far larger than the listed support is refused by its count,
    # before the support is enumerated
    start = time.perf_counter()
    problems = _checked(report, lambda bad: bad.update({"lambda": [10**6, 0]}))
    assert time.perf_counter() - start < 10
    assert problems == [f"support mismatch: {C._dominant_count((10**6, 0))} "
                        f"dominant points, {len(report['support'])} listed"]
    # fields that cannot be read: a missing edge key, a wrong type, a row
    # that is no object, a report that is no object
    assert _checked(report, lambda bad: bad["edges"][0].pop("closed_form")) \
        == ["edges[0] has no 'closed_form'"]
    assert _checked(report, lambda bad: bad.update({"lambda": "2,1"})) == \
        ["certificate has an unreadable 'lambda': '2,1'"]
    assert _checked(report, edit_first(scalar_den=81.0)) == \
        ["edges[0] has an unreadable 'scalar_den': 81.0"]
    assert _checked(report, lambda bad: bad["support"].append(None)) == \
        [f"support[{len(report['support'])}] is not an object"]
    assert C.validate_certificate([]) == ["certificate is not an object"]
    # a row listed twice, a status that does not fit the unreachable points,
    # a basepoint outside the support, a zero module that lists a basepoint
    for field in ("support", "edges", "paths"):
        assert _checked(report, lambda bad: bad[field].append(
            copy.deepcopy(bad[field][0]))) == [f"{field} lists an entry twice"]
    assert _checked(report, lambda bad: bad.update(status="unreachable")) == \
        ["status unreachable does not fit the unreachable points []"]
    assert _checked(report, lambda bad: bad.update(unreachable=[[0, 0]])) == \
        ["status irreducible does not fit the unreachable points [(0, 0)]"]
    assert "basepoint (9, 9) is not in the support" in \
        _checked(report, lambda bad: bad.update(basepoint=[9, 9]))
    assert _checked(C.certify((-1, 0)),
                    lambda bad: bad.update(basepoint=[0, 0])) == \
        ["empty support must be a zero-module certificate that lists "
         "nothing else"]
    # a case-4 edge from a point away from the row's source weight carries
    # its closed form value, but the move has no scalar there
    p = C.SupportPoint(**next(row for row in report["support"]
                              if (row["m1"], row["m2"]) == (0, 0)))
    assert (p.nu1, p.nu2) != C.MOVES["4"].source_nu
    value = C.closed_form_value("4", p)
    forged = {"from": [0, 0], "to": [1, 1], "case": "4",
              "scalar_num": value.numerator, "scalar_den": value.denominator,
              "closed_form": C.MOVES["4"].closed_form}
    problems = _checked(report, lambda bad: bad["edges"].append(forged))
    assert any("case 4" in msg for msg in problems)
    # corrupt paths are reported, not raised: an edge index past the end, a
    # missing leg, a negative index naming the right edge from the end, and
    # a support point whose paths were dropped
    at = next(i for i, trip in enumerate(report["paths"])
              if trip["to_basepoint"])
    trip = report["paths"][at]
    wrapped = [i - len(report["edges"]) for i in trip["to_basepoint"]]
    for trip_at_pt in ({**trip, "to_basepoint": [999]},
                       {"point": trip["point"],
                        "to_basepoint": trip["to_basepoint"]},
                       {**trip, "to_basepoint": wrapped},
                       None):
        def edit(bad):
            if trip_at_pt is None:
                del bad["paths"][at]
            else:
                bad["paths"][at] = trip_at_pt
        assert _checked(report, edit), trip_at_pt
    # a chain that skips its first edge starts at the wrong point; the cut
    # leg still ends at the basepoint, so only the chain check catches it
    report22 = C.certify((2, 2))
    at = next(i for i, trip in enumerate(report22["paths"])
              if trip["point"] == [2, 2])
    assert report22["paths"][at]["to_basepoint"] == [7, 5]
    assert _checked(report22, lambda bad: bad["paths"][at].update(
        to_basepoint=[5])) == ["broken path at (2, 2) (to_basepoint)"]


def test_certificate_json_shape():
    data = C.certify((1, 1))
    assert set(data) == {"lambda", "status", "module_dimension", "support",
                         "basepoint", "edges", "paths", "unreachable"}
    assert data["lambda"] == [1, 1]
    assert data["module_dimension"] == 65
    for e in data["edges"]:
        assert e["scalar_num"] != 0
        assert set(e) == {"from", "to", "case", "scalar_num", "scalar_den",
                          "closed_form"}


def test_report_survives_json_round_trip():
    # the checked object is exactly what the printed bytes hold
    for lam in ((1, 1), (0, 0), (-1, 0), (2, 1), (2, 2), (3, 1), (1, 4)):
        report = C.certify(lam)
        assert json.loads(json.dumps(report)) == report, lam


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
