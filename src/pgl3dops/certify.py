"""Generation certificates for the spaces of global twisted sections.

For a concrete integer weight (lam1, lam2) the space of global sections
decomposes along its *dominant support*: the pairs (m1, m2) of nonnegative
integers for which

    nu1 = lam2 - 2 m1 + m2 >= 0   and   nu2 = lam1 + m1 - 2 m2 >= 0.

A certificate is a directed graph over the support whose edges carry exact
nonzero scalars: an edge p -> q asserts that the section at q is obtained
from the section at p by an explicit global operator (one of four kinds of
moves, each built from the twisted order-2 operator, Weyl twists and Casimir
shifts).  Every scalar is computed by actually applying the operators to the
sections.  ``certify`` returns the certificate as the JSON-ready report that
``certify --json`` prints, and the checker ``validate_certificate`` reads
that report, recomputing every edge scalar from its row's closed form.

The move catalogue is ``MOVES``: one row per case label, holding the step,
the twist, the Casimir factors, the closed form of the scalar, the weight
the move needs at its source, if any, and the Casimir factors that act on
the move's output as numbers (``Move.spare``).

A certificate is *connected* when every support point reaches the basepoint
and is reached from it through recorded edges; the path construction replays
the inductive descent on |m1' - m1| + |m2' - m2|.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

from .ring import RatFunc, evaluate_text
from .weyl import ExpressFailure, PowerSection, express_as_multiple
# unused here, but perfbench/tests/test_harness.py checks that the benchmark's
# patcher rewrites this binding too
from .weyl import op_apply_section  # noqa: F401
from . import pgl3 as P


@dataclass(frozen=True)
class Move:
    """The (m1, m2) step, the Weyl twist of the descent, the Casimir factors
    c - chi(nu + d) listed by their offsets d, the engine-derived closed form
    of the scalar over (m1, m2, nu1, nu2) that certificates print, the
    weight nu the move needs at its source, if it needs one, and ``spare``:
    the offsets among ``shifts`` whose isotypic component the descent output
    never contains, so that their factors act on the filtered output
    c * sigma_target as the numbers chi(nu_target) - chi(nu + d)."""

    step: tuple[int, int]
    weyl: P.WeylElement
    shifts: tuple[tuple[int, int], ...]
    closed_form: str
    source_nu: tuple[int, int] | None = None
    spare: tuple[tuple[int, int], ...] = ()


MOVES = {
    "1": Move((-1, -1), P.W_E, (), "m1*m2"),
    "2a": Move((-1, 0), P.W_S2, ((1, 1),),
               "-(1/3)*m1*nu2*(m2 + nu2 + 1)"),
    "2b": Move((0, -1), P.W_S1, ((1, 1),),
               "-(1/3)*m2*nu1*(m1 + nu1 + 1)"),
    "3a": Move((1, 0), P.W_S1S2,
               ((1, 1), (2, -1), (-3, 3), (-1, 2), (0, 0)),
               "-(2/243)*(nu2+3)*(nu1+m1+1)*(nu1+nu2+1)*(nu1+nu2+m2+2)*(2*nu1+nu2+3)*nu1*(nu1-1)",
               spare=((-3, 3),)),
    "3b": Move((0, 1), P.W_S2S1,
               ((1, 1), (-1, 2), (3, -3), (2, -1), (0, 0)),
               "-(2/243)*(nu1+3)*(nu2+m2+1)*(nu1+nu2+1)*(nu1+nu2+m1+2)*(nu1+2*nu2+3)*nu2*(nu2-1)",
               spare=((3, -3),)),
    "4": Move((1, 1), P.W_LONG, ((1, 1), (2, -1), (0, 0)),
              "-(2/3)*(m1+4)*(m2+4)", source_nu=(1, 1)),
}


@dataclass(frozen=True)
class SupportPoint:
    m1: int
    m2: int
    nu1: int
    nu2: int

    @classmethod
    def at(cls, lam: tuple[int, int], m1: int, m2: int) -> SupportPoint:
        """The point m = (m1, m2) of the weight lam, dominant or not."""
        return cls(m1, m2, *weight_at(lam, m1, m2))

    @property
    def m(self) -> tuple[int, int]:
        return (self.m1, self.m2)


def weight_at(lam: tuple[int, int], m1: int, m2: int) -> tuple[int, int]:
    return (lam[1] - 2 * m1 + m2, lam[0] + m1 - 2 * m2)


def dominant_support(lam: tuple[int, int]) -> list[SupportPoint]:
    """All (m1, m2) >= 0 with dominant weight; empty iff the space is zero."""
    span = range(max(sum(lam), 0) + 1)
    points = (SupportPoint.at(lam, m1, m2) for m1 in span for m2 in span)
    return sorted((p for p in points if p.nu1 >= 0 and p.nu2 >= 0),
                  key=lambda p: (p.m1 + p.m2, p.m1))


def module_dimension(lam: tuple[int, int]) -> int:
    """Sum over the support of (dim of the simple module of weight nu)^2."""
    return sum(((p.nu1 + 1) * (p.nu2 + 1) * (p.nu1 + p.nu2 + 2) // 2) ** 2
               for p in dominant_support(lam))


# -- engine computation of the case scalars ----------------------------------------


def apply_filters(s: PowerSection, offsets, nu) -> PowerSection:
    """The Casimir filters prod_d (c - chi(nu + d)) over the offsets d,
    applied to s; nu holds numbers or parameter polynomials over the matrix
    table."""
    for d1, d2 in offsets:
        chi = P.central_character(nu[0] + d1, nu[1] + d2)
        s = P.casimir_apply(s) + s.scale(-chi)
    return s


def move_scalar(case: str, m, lam=None) -> RatFunc:
    """The scalar by which the case move sends sigma_m to sigma_(m + step).

    m and the weight lam are pairs of numbers or parameter polynomials over
    the matrix table, lam symbolic by default; the move is applied as an
    algebraic identity, with no certificate-level precondition.

    The filters of the row's ``spare`` offsets are not applied: once the
    others leave c * sigma_target, each spare factor multiplies c by its gap
    chi(nu_target) - chi(nu + d), as the Casimir acts on sigma_target by
    chi(nu_target) (``casimir.eigenvalue``).  If the output is no multiple
    of sigma_target, the spare filters are applied and the output is
    expressed again, so a wrong flag costs time only.
    """
    move = MOVES[case]
    target = (m[0] + move.step[0], m[1] + move.step[1])
    nu = P.weight_exponents(*m, lam)
    out = P.apply_descent(P.monomial_section(*m, lam), move.weyl,
                          P.monomial_section(0, 0, lam))
    out = apply_filters(out, [d for d in move.shifts if d not in move.spare],
                        nu)
    sigma_t = P.monomial_section(*target, lam)
    try:
        scalar = express_as_multiple(out, sigma_t)
    except ExpressFailure:
        return express_as_multiple(apply_filters(out, move.spare, nu), sigma_t)
    chi_t = P.central_character(*P.weight_exponents(*target, lam))
    for d1, d2 in move.spare:
        scalar = scalar * (chi_t - P.central_character(nu[0] + d1, nu[1] + d2))
    return scalar


def case_scalar(lam: tuple[int, int], p: SupportPoint, case: str) -> Fraction:
    """Exact scalar of the case move at p, by applying the actual operators.

    The move is evaluated as an algebraic identity: a lowering move at
    m = 0 gives 0, and case 4 away from its source weight raises
    ExpressFailure.  Which moves a certificate may use is decided by
    ``_EdgeFactory.get``.
    """
    if case not in MOVES:
        raise ValueError(f"unknown case {case!r}")
    return move_scalar(case, p.m, lam).constant_value()


def scalar_at(text: str, p: SupportPoint) -> Fraction:
    """Value of a scalar formula over (m1, m2, nu1, nu2) at a support point."""
    return evaluate_text(text, {"m1": p.m1, "m2": p.m2,
                                "nu1": p.nu1, "nu2": p.nu2})


def closed_form_value(case: str, p: SupportPoint) -> Fraction:
    """Evaluate the closed form of a case scalar factor by factor, without
    expanding the products."""
    if case not in MOVES:
        raise ValueError(f"unknown case {case!r}")
    return scalar_at(MOVES[case].closed_form, p)


# -- certificate construction ---------------------------------------------------------


class _EdgeFactory:
    def __init__(self, lam: tuple[int, int], support: list[SupportPoint]):
        self.lam = lam
        self.points = {p.m: p for p in support}
        self.cache: dict[tuple[tuple[int, int], str], dict | None] = {}

    def get(self, source: tuple[int, int], case: str) -> dict | None:
        """The report edge of the case move from source: None unless its
        target is in the support, its source has the row's ``source_nu`` (if
        set) and its scalar is nonzero."""
        key = (source, case)
        if key in self.cache:
            return self.cache[key]
        p = self.points[source]
        move = MOVES[case]
        target = (p.m1 + move.step[0], p.m2 + move.step[1])
        edge = None
        if target in self.points and move.source_nu in (None, (p.nu1, p.nu2)):
            scalar = case_scalar(self.lam, p, case)
            if scalar != 0:
                edge = {"from": list(source), "to": list(target), "case": case,
                        "scalar_num": scalar.numerator,
                        "scalar_den": scalar.denominator,
                        "closed_form": move.closed_form}
        self.cache[key] = edge
        return edge


def _replay_path(factory: _EdgeFactory, start: tuple[int, int],
                 goal: tuple[int, int]) -> list[dict] | None:
    """Follow the inductive move selection from start until goal is reached."""
    path = []
    cur = factory.points[start]
    seen = set()
    while cur.m != goal:
        if cur.m in seen:
            return None
        seen.add(cur.m)
        m1, m2 = cur.m
        g1, g2 = goal
        if g1 < m1 and g2 < m2:
            cases = ("1",)
        elif g1 < m1:
            cases = ("2a",)
        elif g2 < m2:
            cases = ("2b",)
        elif g2 == m2:
            cases = ("3a",)
        else:
            # raise m2 (or m1) through a case-3 move when one exists,
            # otherwise through the long-element move
            cases = ("3b", "3a", "4") if g1 > m1 else ("3b", "4")
        edge = next(filter(None, (factory.get(cur.m, c) for c in cases)),
                    None)
        if edge is None:
            return None
        path.append(edge)
        cur = factory.points[tuple(edge["to"])]
    return path


def certify(lam: tuple[int, int]) -> dict:
    """The generation certificate for a concrete weight pair, as the report
    that ``certify --json`` prints under "certificates" (without the CLI's
    ``checker_problems``): pairs as lists, edges sorted by (from, case), each
    path a list of edge indices."""
    support = dominant_support(lam)
    factory = _EdgeFactory(lam, support)
    basepoint = support[0].m if support else None
    paths: dict[tuple[int, int], dict[str, list[dict]]] = {}
    unreachable = []
    for p in support:
        trip = {"to_basepoint": _replay_path(factory, p.m, basepoint),
                "from_basepoint": _replay_path(factory, basepoint, p.m)}
        if None in trip.values():
            unreachable.append(p.m)
        paths[p.m] = {leg: path or [] for leg, path in trip.items()}
    edges = sorted({(*e["from"], e["case"]): e for trip in paths.values()
                    for path in trip.values() for e in path}.items())
    index = {key: i for i, (key, _) in enumerate(edges)}
    return {
        "lambda": list(lam),
        "status": ("unreachable" if unreachable else "irreducible")
                  if support else "zero_module",
        "module_dimension": module_dimension(lam),
        "support": [asdict(p) for p in support],
        "basepoint": basepoint and list(basepoint),
        "edges": [e for _, e in edges],
        "paths": [{"point": list(pt),
                   **{leg: [index[(*e["from"], e["case"])] for e in path]
                      for leg, path in trip.items()}}
                  for pt, trip in sorted(paths.items())],
        "unreachable": [list(pt) for pt in sorted(unreachable)],
    }


# -- the independent certificate checker ---------------------------------------------------


def _ints(v) -> bool:
    return type(v) is list and all(type(x) is int for x in v)


def _pair(v) -> bool:
    return _ints(v) and len(v) == 2


# the fields of a report, each a type or a test of the value; a dict stands
# for a list of rows with those fields
_REPORT_FIELDS = {
    "lambda": _pair, "status": str, "module_dimension": int,
    "support": dict.fromkeys(("m1", "m2", "nu1", "nu2"), int),
    "basepoint": lambda v: v is None or _pair(v),
    "edges": {"from": _pair, "to": _pair, "case": str, "scalar_num": int,
              "scalar_den": int, "closed_form": str},
    "paths": {"point": _pair, "to_basepoint": _ints, "from_basepoint": _ints},
    "unreachable": lambda v: type(v) is list and all(map(_pair, v)),
}


def _unreadable(obj, fields: dict, where: str) -> list[str]:
    """The fields of obj that are missing or have the wrong shape."""
    if type(obj) is not dict:
        return [f"{where} is not an object"]
    out = []
    for key, ok in fields.items():
        if key not in obj:
            out.append(f"{where} has no {key!r}")
        elif type(ok) is dict and type(obj[key]) is list:
            for i, row in enumerate(obj[key]):
                out += _unreadable(row, ok, f"{key}[{i}]")
        elif type(ok) is dict or (type(obj[key]) is not ok
                                  if type(ok) is type else not ok(obj[key])):
            out.append(f"{where} has an unreadable {key!r}: {obj[key]!r}")
    return out


def _dominant_count(lam: tuple[int, int]) -> int:
    """The number of dominant points of lam: for each m1 >= 0 the m2 >= 0
    with nu1 = lam2 - 2 m1 + m2 >= 0 and nu2 = lam1 + m1 - 2 m2 >= 0 form
    the interval [max(0, 2 m1 - lam2), (lam1 + m1) // 2]."""
    return sum(max(0, (lam[0] + m1) // 2 - max(0, 2 * m1 - lam[1]) + 1)
               for m1 in range(max(sum(lam), 0) + 1))


def validate_certificate(report: dict) -> list[str]:
    """Re-verify a certificate report, as ``certify`` returns it and
    ``certify --json`` prints it, with plain loops: every field is read,
    every edge scalar is recomputed from its row's closed form and every
    path is followed.  Returns the problems found; a field that cannot be
    read is one, never an exception."""
    problems = _unreadable(report, _REPORT_FIELDS, "certificate")
    if problems:
        return problems
    lam = tuple(report["lambda"])
    keys = {"support": [(p["m1"], p["m2"]) for p in report["support"]],
            "edges": [(*e["from"], e["case"]) for e in report["edges"]],
            "paths": [tuple(r["point"]) for r in report["paths"]]}
    problems += [f"{name} lists an entry twice" for name, listed in keys.items()
                 if len(set(listed)) < len(listed)]
    got = set(keys["support"])
    # the count costs one step per m1, so a lambda far larger than the listed
    # support is refused before the enumeration below
    if (count := _dominant_count(lam)) != len(got):
        problems.append(f"support mismatch: {count} dominant points, "
                        f"{len(got)} listed")
        return problems
    # independent support enumeration
    span = range(max(sum(lam), 0) + 1)
    expected = {(m1, m2) for m1 in span for m2 in span
                if min(weight_at(lam, m1, m2)) >= 0}
    if expected != got:
        problems.append(f"support mismatch: {sorted(expected ^ got)}")
    if report["module_dimension"] != module_dimension(lam):
        problems.append(f"module_dimension {report['module_dimension']} is "
                        f"not {module_dimension(lam)}")
    status = report["status"]
    if not expected:
        if [status, report["basepoint"], report["edges"], report["paths"],
                report["unreachable"]] != ["zero_module", None, [], [], []]:
            problems.append("empty support must be a zero-module certificate "
                            "that lists nothing else")
        return problems
    unreachable = {tuple(pt) for pt in report["unreachable"]}
    if not unreachable <= got or \
            status != ("unreachable" if unreachable else "irreducible"):
        problems.append(f"status {status} does not fit the unreachable "
                        f"points {sorted(unreachable)}")
    for p in report["support"]:
        if (p["nu1"], p["nu2"]) != weight_at(lam, p["m1"], p["m2"]):
            problems.append(f"wrong weight at {(p['m1'], p['m2'])}")
    edges = report["edges"]
    for i, e in enumerate(edges):
        source, target, case = tuple(e["from"]), tuple(e["to"]), e["case"]
        num, den = e["scalar_num"], e["scalar_den"]
        name = f"edge {i} ({case}: {source} -> {target})"
        scalar = Fraction(num, den) if den else None
        if num == 0:
            problems.append(f"zero scalar on {name}")
        if scalar is None or scalar.as_integer_ratio() != (num, den):
            problems.append(f"scalar {num}/{den} of {name} is not in lowest "
                            "terms over a positive denominator")
        if source not in got or target not in got:
            problems.append(f"edge endpoint outside support: {name}")
        if case not in MOVES:
            problems.append(f"unknown case label on {name}")
            continue
        move = MOVES[case]
        if e["closed_form"] != move.closed_form:
            problems.append(f"closed_form of {name} is not the row's "
                            f"{move.closed_form!r}")
        if (source[0] + move.step[0], source[1] + move.step[1]) != target:
            problems.append(f"edge target inconsistent with case: {name}")
        point = SupportPoint.at(lam, *source)
        if move.source_nu not in (None, (point.nu1, point.nu2)):
            problems.append(f"case {case} edge away from nu = "
                            f"{move.source_nu}: {name}")
        want = closed_form_value(case, point)
        if scalar is not None and scalar != want:
            problems.append(f"scalar of {name} differs from the closed form "
                            f"value {want}")
    base = report["basepoint"] and tuple(report["basepoint"])
    if base not in got:
        problems.append(f"basepoint {base} is not in the support")
    paths = {tuple(r["point"]): r for r in report["paths"]}
    for pt in sorted(expected - unreachable):
        if pt not in paths:
            problems.append(f"paths of {pt} are missing")
            continue
        for leg, start, goal in (("to_basepoint", pt, base),
                                 ("from_basepoint", base, pt)):
            cur = start
            for idx in paths[pt][leg]:
                if not 0 <= idx < len(edges):
                    problems.append(f"path of {pt} ({leg}) names edge {idx}, "
                                    "which does not exist")
                    break
                if tuple(edges[idx]["from"]) != cur:
                    problems.append(f"broken path at {pt} ({leg})")
                    break
                cur = tuple(edges[idx]["to"])
            else:
                if cur != goal:
                    problems.append(f"path of {pt} ({leg}) ends at {cur}")
    return problems
