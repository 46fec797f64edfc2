"""The complete-conics picture: pairs of symmetric matrices with scalar product.

The variety consists of pairs ([S], [S']) of symmetric 3x3 matrices with
S S' scalar.  Its open cell is parametrised by an upper unipotent u and two
affine coordinates (x, y):

    S  = t(u^-1) diag(1, x, xy) u^-1,      S' = u diag(xy, y, 1) t(u)

so that S S' = xy I identically.  The mixed derivative d/dx d/dy plays the
same globalising role as the order-2 operator on the group compactification:
transported to the entry chart s_ij = S_ij / S_11 it has polynomial
coefficients, and it is ad-nilpotent under the infinitesimal sl3 action.

Charts:

* ``conic``  -- u12, u13, u23, x, y (the cell coordinates),
* ``entry``  -- s12, s13, s22, s23, s33 (normalised S-entries),
* ``cone``   -- all twelve entries S11..S33, T11..T33 of the two symmetric
  matrices (T stands for S'); operators lifted here are checked to commute
  with both Euler fields (bi-degree (0,0) homogeneity).
"""

from __future__ import annotations

from functools import lru_cache

from .ring import Poly, RatFunc, VarTable
from .weyl import (Chart, ChartMap, DiffOp, PowerSection,
                   ad_nilpotency_depth, conjugate, op_compose, transport)
from .pgl3 import (PARAMS, Generator, NILPOTENT_LABELS, const_matrix,
                   homogenize, mat_mul)

CONIC_NAMES = ("u12", "u13", "u23", "x", "y")
ENTRY_NAMES = ("s12", "s13", "s22", "s23", "s33")
SYM_POSITIONS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
CONE_NAMES = tuple(f"S{i}{j}" for i, j in SYM_POSITIONS) + \
    tuple(f"T{i}{j}" for i, j in SYM_POSITIONS)

CONIC_TABLE = VarTable(coords=CONIC_NAMES, params=PARAMS)
ENTRY_TABLE = VarTable(coords=ENTRY_NAMES, params=PARAMS)
CONE_TABLE = VarTable(coords=CONE_NAMES, params=PARAMS)

CONIC = Chart("conic", CONIC_TABLE)
ENTRY = Chart("conic_entry", ENTRY_TABLE)
CONE = Chart("conic_cone", CONE_TABLE)


def _sym_entry(prefix: str, i: int, j: int, table: VarTable) -> Poly:
    if i > j:
        i, j = j, i
    return table.var(f"{prefix}{i}{j}")


@lru_cache(maxsize=None)
def parametrization() -> tuple[tuple, tuple]:
    """Polynomial entries of (S, S') in the cell coordinates (u, x, y)."""
    t = CONIC_TABLE
    one, zero = t.one(), t.zero()
    u12, u13, u23 = t.var("u12"), t.var("u13"), t.var("u23")
    x, y = t.var("x"), t.var("y")
    # u^-1 for the standard upper unipotent placement
    vinv = [[one, -u12, u12 * u23 - u13],
            [zero, one, -u23],
            [zero, zero, one]]
    u = [[one, u12, u13],
         [zero, one, u23],
         [zero, zero, one]]
    d1 = [[one, zero, zero], [zero, x, zero], [zero, zero, x * y]]
    d2 = [[x * y, zero, zero], [zero, y, zero], [zero, zero, one]]
    s = mat_mul(mat_mul(tuple(zip(*vinv)), d1, zero), vinv, zero)
    sp = mat_mul(mat_mul(u, d2, zero), tuple(zip(*u)), zero)
    return s, sp


def membership_defect() -> tuple[list, Poly]:
    """Entries of S S' - (S S')_11 I; all must vanish identically.

    Returns (list of off-diagonal/diagonal-difference polynomials, the
    common scalar (S S')_11, which should equal x*y).
    """
    s, sp = parametrization()
    prod = mat_mul(s, sp, CONIC_TABLE.zero())
    defects = []
    for i in range(3):
        for j in range(3):
            if i != j:
                defects.append(prod[i][j])
            elif i > 0:
                defects.append(prod[i][i] - prod[0][0])
    return defects, prod[0][0]


def boundary_rank_one_minors() -> list[Poly]:
    """All 2x2 minors of S at x = 0 (each must vanish: rank drops to one)."""
    s, _ = parametrization()
    zero = RatFunc.const(CONIC_TABLE, 0)
    at0 = [[RatFunc.from_poly(e).substitute({"x": zero}) for e in row]
           for row in s]
    minors = []
    for r1 in range(3):
        for r2 in range(r1 + 1, 3):
            for c1 in range(3):
                for c2 in range(c1 + 1, 3):
                    m = at0[r1][c1] * at0[r2][c2] - at0[r1][c2] * at0[r2][c1]
                    minors.append(m.num)
    return minors


@lru_cache(maxsize=None)
def entry_formulas() -> dict[str, Poly]:
    """The five entry coordinates s_ij = S_ij/S_11 in cell coordinates."""
    s, _ = parametrization()
    return {"s12": s[0][1], "s13": s[0][2], "s22": s[1][1],
            "s23": s[1][2], "s33": s[2][2]}


@lru_cache(maxsize=None)
def map_conic_to_entry() -> ChartMap:
    """Invertible rational chart change between the cell and entry charts."""
    t = ENTRY_TABLE
    s12, s13 = RatFunc.var(t, "s12"), RatFunc.var(t, "s13")
    s22, s23 = RatFunc.var(t, "s22"), RatFunc.var(t, "s23")
    s33 = RatFunc.var(t, "s33")
    x = s22 - s12 * s12
    c = (s23 - s12 * s13) / x
    u23 = -c
    u12 = -s12
    u13 = u12 * u23 - s13
    y = (s33 - s13 * s13 - x * c * c) / x
    forward = {"u12": u12, "u13": u13, "u23": u23, "x": x, "y": y}
    inverse = {name: RatFunc.from_poly(p) for name, p in entry_formulas().items()}
    return ChartMap(CONIC, ENTRY, forward, inverse)


@lru_cache(maxsize=None)
def mixed_derivative_conic() -> DiffOp:
    return op_compose(DiffOp.partial(CONIC, "x"), DiffOp.partial(CONIC, "y"))


@lru_cache(maxsize=None)
def mixed_derivative_entry() -> DiffOp:
    """d/dx d/dy transported to the entry chart (Jacobian inversion)."""
    return transport(mixed_derivative_conic(), map_conic_to_entry())


# -- the twelve-entry double cone ---------------------------------------------------------


def _cone_var(prefix: str, i: int, j: int) -> Poly:
    return _sym_entry(prefix, i, j, CONE_TABLE)


@lru_cache(maxsize=None)
def _cone_matrix(prefix: str) -> tuple:
    return tuple(tuple(_cone_var(prefix, i, j) for j in range(1, 4))
                 for i in range(1, 4))


def action_field_cone(xi) -> DiffOp:
    """Infinitesimal action on the double cone.

    The flow of exp(-t xi) sends S to t(exp(t xi)) S exp(t xi) and S' to
    exp(-t xi) S' t(exp(-t xi)), so S moves with t(xi) S + S xi and S' with
    -(xi S' + S' t(xi)).  Each is P + t(P) for one product P, as S and S' are
    symmetric; entry (i <= j) coefficients are read off.
    """
    zero = CONE_TABLE.zero()
    p = mat_mul(const_matrix(tuple(zip(*xi)), CONE_TABLE), _cone_matrix("S"),
                zero)
    q = mat_mul(const_matrix([[-x for x in row] for row in xi], CONE_TABLE),
                _cone_matrix("T"), zero)
    coeffs = {}
    for i, j in SYM_POSITIONS:
        coeffs[f"S{i}{j}"] = RatFunc.from_poly(p[i - 1][j - 1] + p[j - 1][i - 1])
        coeffs[f"T{i}{j}"] = RatFunc.from_poly(q[i - 1][j - 1] + q[j - 1][i - 1])
    return DiffOp.field(CONE, coeffs)


@lru_cache(maxsize=None)
def generator_field_cone(label: str) -> DiffOp:
    return action_field_cone(Generator(label).matrix)


def euler_field_cone(prefix: str) -> DiffOp:
    names = [f"{prefix}{i}{j}" for i, j in SYM_POSITIONS]
    return DiffOp.field(CONE, {n: RatFunc.var(CONE_TABLE, n) for n in names})


@lru_cache(maxsize=None)
def mixed_derivative_cone() -> DiffOp:
    """Lift of the entry-chart operator to the S-cone (degree-0 homogeneous)."""
    return homogenize(mixed_derivative_entry(), CONE, "S11")


def cone_nilpotency_depths(limit: int) -> dict[str, int | None]:
    d = mixed_derivative_cone()
    return {label: ad_nilpotency_depth(d, generator_field_cone(label), limit)
            for label in NILPOTENT_LABELS}


def twisted_mixed_derivative() -> DiffOp:
    """Conjugate of the lifted operator by S11^lam1 T33^lam2 (the twisted
    analogue of the canonical-section conjugation)."""
    one = RatFunc.const(CONE_TABLE, 1)
    section = PowerSection(CONE, one, [
        (_cone_var("S", 1, 1), CONE_TABLE.var("lam1")),
        (_cone_var("T", 3, 3), CONE_TABLE.var("lam2"))])
    return conjugate(mixed_derivative_cone(), section)

