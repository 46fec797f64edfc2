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
sections; the independent checker evaluates the closed forms to recompute
every edge scalar.

The move catalogue is ``MOVES``: one row per case label, holding the step,
the twist, the Casimir factors, the closed form of the scalar, the weight
the move needs at its source, if any, and the Casimir factors that act on
the move's output as numbers (``Move.spare``).

A certificate is *connected* when every support point reaches the basepoint
and is reached from it through recorded edges; the path construction replays
the inductive descent on |m1' - m1| + |m2' - m2|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class CaseEdge:
    source: tuple[int, int]
    target: tuple[int, int]
    case: str
    scalar: Fraction

    def __post_init__(self):
        if self.scalar == 0:
            raise ValueError("a certificate edge must carry a nonzero scalar")


@dataclass
class Certificate:
    lam: tuple[int, int]
    support: list[SupportPoint]
    edges: list[CaseEdge]
    basepoint: tuple[int, int] | None
    paths: dict[tuple[int, int], dict[str, list[int]]]
    status: str               # "irreducible" | "zero_module" | "unreachable"
    unreachable: list[tuple[int, int]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam),
            "status": self.status,
            "module_dimension": module_dimension(self.lam),
            "support": [{"m1": p.m1, "m2": p.m2, "nu1": p.nu1, "nu2": p.nu2}
                        for p in self.support],
            "basepoint": list(self.basepoint) if self.basepoint else None,
            "edges": [{"from": list(e.source), "to": list(e.target),
                       "case": e.case,
                       "scalar_num": e.scalar.numerator,
                       "scalar_den": e.scalar.denominator,
                       "closed_form": MOVES[e.case].closed_form}
                      for e in self.edges],
            "paths": [{"point": list(pt),
                       "to_basepoint": self.paths[pt]["to_basepoint"],
                       "from_basepoint": self.paths[pt]["from_basepoint"]}
                      for pt in sorted(self.paths)],
            "unreachable": [list(p) for p in sorted(self.unreachable)],
        }


def weight_at(lam: tuple[int, int], m1: int, m2: int) -> tuple[int, int]:
    return (lam[1] - 2 * m1 + m2, lam[0] + m1 - 2 * m2)


def dominant_support(lam: tuple[int, int]) -> list[SupportPoint]:
    """All (m1, m2) >= 0 with dominant weight; empty iff the space is zero."""
    l1, l2 = lam
    out = []
    bound = max(l1 + l2, 0)
    for m1 in range(bound + 1):
        for m2 in range(bound + 1):
            p = SupportPoint.at(lam, m1, m2)
            if p.nu1 >= 0 and p.nu2 >= 0:
                out.append(p)
    out.sort(key=lambda p: (p.m1 + p.m2, p.m1))
    return out


def module_dimension(lam: tuple[int, int]) -> int:
    """Sum over the support of (dim of the simple module of weight nu)^2."""
    total = 0
    for p in dominant_support(lam):
        d = (p.nu1 + 1) * (p.nu2 + 1) * (p.nu1 + p.nu2 + 2) // 2
        total += d * d
    return total


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
        self.cache: dict[tuple[tuple[int, int], str], CaseEdge | None] = {}

    def get(self, source: tuple[int, int], case: str) -> CaseEdge | None:
        """The edge of the case move from source: None unless its target is
        in the support, its source has the row's ``source_nu`` (if set) and
        its scalar is nonzero."""
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
                edge = CaseEdge(source, target, case, scalar)
        self.cache[key] = edge
        return edge


def _replay_path(factory: _EdgeFactory, start: tuple[int, int],
                 goal: tuple[int, int]) -> list[CaseEdge] | None:
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
        cur = factory.points[edge.target]
    return path


def certify(lam: tuple[int, int]) -> Certificate:
    """Build the generation certificate for a concrete weight pair."""
    support = dominant_support(lam)
    if not support:
        return Certificate(lam, [], [], None, {}, "zero_module")
    basepoint = support[0].m
    factory = _EdgeFactory(lam, support)
    paths: dict[tuple[int, int], dict[str, list[CaseEdge]]] = {}
    unreachable = []
    for p in support:
        to_base = _replay_path(factory, p.m, basepoint)
        from_base = _replay_path(factory, basepoint, p.m)
        if to_base is None or from_base is None:
            unreachable.append(p.m)
        paths[p.m] = {"to_basepoint": to_base or [],
                      "from_basepoint": from_base or []}
    edges = sorted({(e.source, e.case): e
                    for trip in paths.values()
                    for leg in trip.values() for e in leg}.values(),
                   key=lambda e: (e.source, e.case))
    index = {(e.source, e.case): i for i, e in enumerate(edges)}
    indexed = {pt: {leg: [index[(e.source, e.case)] for e in trip[leg]]
                    for leg in trip}
               for pt, trip in paths.items()}
    status = "unreachable" if unreachable else "irreducible"
    return Certificate(lam, support, edges, basepoint, indexed, status,
                       unreachable)


# -- the independent certificate checker ---------------------------------------------------


def validate_certificate(cert: Certificate) -> list[str]:
    """Re-verify a certificate with plain loops, recomputing each edge scalar
    from its closed form; returns a list of problems."""
    problems = []
    l1, l2 = cert.lam
    # independent support enumeration
    expected = set()
    for m1 in range(max(l1 + l2, 0) + 1):
        for m2 in range(max(l1 + l2, 0) + 1):
            q = SupportPoint.at(cert.lam, m1, m2)
            if q.nu1 >= 0 and q.nu2 >= 0:
                expected.add(q.m)
    got = {p.m for p in cert.support}
    if expected != got:
        problems.append(f"support mismatch: {sorted(expected ^ got)}")
    if not expected:
        if cert.status != "zero_module":
            problems.append("empty support must be a zero-module certificate")
        return problems
    if cert.status == "zero_module":
        problems.append("nonempty support marked as zero module")
        return problems
    for p in cert.support:
        if p.nu1 < 0 or p.nu2 < 0:
            problems.append(f"non-dominant support point {p}")
        if p != SupportPoint.at(cert.lam, p.m1, p.m2):
            problems.append(f"wrong weight at {p.m}")
    for e in cert.edges:
        if e.scalar == 0:
            problems.append(f"zero scalar on {e}")
        if e.source not in got or e.target not in got:
            problems.append(f"edge endpoint outside support: {e}")
        if e.case not in MOVES:
            problems.append(f"unknown case label on {e}")
            continue
        dm1, dm2 = MOVES[e.case].step
        if (e.source[0] + dm1, e.source[1] + dm2) != e.target:
            problems.append(f"edge target inconsistent with case: {e}")
        point = SupportPoint.at(cert.lam, *e.source)
        source_nu = MOVES[e.case].source_nu
        if source_nu not in (None, (point.nu1, point.nu2)):
            problems.append(f"case {e.case} edge away from nu = {source_nu}: {e}")
        want = closed_form_value(e.case, point)
        if e.scalar != want:
            problems.append(f"scalar of {e} differs from the closed form "
                            f"value {want}")
    if cert.status == "irreducible":
        for pt in sorted(expected):
            trip = cert.paths.get(pt, {})
            for leg, start, goal in (("to_basepoint", pt, cert.basepoint),
                                     ("from_basepoint", cert.basepoint, pt)):
                if leg not in trip:
                    problems.append(f"path of {pt} ({leg}) is missing")
                    continue
                cur = start
                for idx in trip[leg]:
                    if not 0 <= idx < len(cert.edges):
                        problems.append(
                            f"path of {pt} ({leg}) names edge {idx}, which "
                            "does not exist")
                        break
                    e = cert.edges[idx]
                    if e.source != cur:
                        problems.append(f"broken path at {pt} ({leg})")
                        break
                    cur = e.target
                else:
                    if cur != goal:
                        problems.append(f"path of {pt} ({leg}) ends at {cur}")
    return problems
