"""Charts, group actions and operators for the compactified PGL3 picture.

Three affine charts are used throughout:

* ``matrix``   -- all nine entries g11..g33 of a 3x3 matrix (the affine cone
  over the first projective factor; nothing is normalised, operators built
  here are checked to be homogeneous of degree 0),
* ``ratio``    -- the eight ratios x_ij = g_ij/g33 (the g33 != 0 chart),
* ``big_cell`` -- coordinates a1, a2 (the two simple-root directions, which
  cut out the boundary divisors) and the six unipotent coordinates U_ij.

The change of variables between the big cell and the ratio chart is rational
and square, so operators move across it by exact Jacobian inversion; the
ratio and matrix charts are bridged by homogenisation.  The displayed
formulas of the underlying construction are *derived* here (from the
infinitesimal action and from Jacobian inversion) and compared elsewhere
against the reference forms.

Sections of the line bundle attached to a weight (lam1, lam2) are modelled
on the matrix chart as power products: the canonical section is
g33^lam1 * Delta11^lam2, and its monomial multiples carry exponents that are
polynomials in the parameters lam1, lam2, m1, m2 over the matrix table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .ring import Poly, RatFunc, VarTable
from .weyl import (Chart, ChartMap, DiffOp, PowerSection,
                   commutator, conjugate, op_apply_section, op_compose,
                   transport)

PARAMS = ("lam1", "lam2", "m1", "m2", "nu1", "nu2")

MATRIX_NAMES = ("g11", "g12", "g13", "g21", "g22", "g23", "g31", "g32", "g33")
BIG_NAMES = ("a1", "a2", "U12", "U21", "U13", "U31", "U23", "U32")
RATIO_NAMES = ("x11", "x12", "x13", "x21", "x22", "x23", "x31", "x32")

MATRIX_TABLE = VarTable(coords=MATRIX_NAMES, params=PARAMS)
BIG_TABLE = VarTable(coords=BIG_NAMES, params=PARAMS)
RATIO_TABLE = VarTable(coords=RATIO_NAMES, params=PARAMS)

MATRIX = Chart("matrix", MATRIX_TABLE)
BIG = Chart("big_cell", BIG_TABLE)
RATIO = Chart("ratio", RATIO_TABLE)


def gvar(i: int, j: int) -> Poly:
    return MATRIX_TABLE.var(f"g{i}{j}")


G_MAT = [[gvar(i + 1, j + 1) for j in range(3)] for i in range(3)]


@lru_cache(maxsize=None)
def minor(i: int, j: int) -> Poly:
    """2x2 determinant of g with row i and column j deleted (1-based)."""
    rows = [r for r in range(3) if r != i - 1]
    cols = [c for c in range(3) if c != j - 1]
    return (G_MAT[rows[0]][cols[0]] * G_MAT[rows[1]][cols[1]]
            - G_MAT[rows[0]][cols[1]] * G_MAT[rows[1]][cols[0]])


@lru_cache(maxsize=None)
def det_g() -> Poly:
    """det g, expanded along the first row."""
    return G_MAT[0][0] * minor(1, 1) - G_MAT[0][1] * minor(1, 2) \
        + G_MAT[0][2] * minor(1, 3)


BMINUSB = Chart("bminusb", MATRIX_TABLE, units=(gvar(1, 1), minor(3, 3)))


# -- ratio-chart entries (g33 normalised to 1) -------------------------------------

def xvar(i: int, j: int) -> Poly:
    if (i, j) == (3, 3):
        return RATIO_TABLE.one()
    return RATIO_TABLE.var(f"x{i}{j}")


X_MAT = [[xvar(i + 1, j + 1) for j in range(3)] for i in range(3)]


# -- Lie algebra generators and Weyl representatives ---------------------------------

_GEN_MATRICES: dict[str, tuple[tuple[int, ...], ...]] = {
    "X1": ((0, 1, 0), (0, 0, 0), (0, 0, 0)),
    "X2": ((0, 0, 0), (0, 0, 1), (0, 0, 0)),
    "X3": ((0, 0, 1), (0, 0, 0), (0, 0, 0)),
    "Y1": ((0, 0, 0), (1, 0, 0), (0, 0, 0)),
    "Y2": ((0, 0, 0), (0, 0, 0), (0, 1, 0)),
    "Y3": ((0, 0, 0), (0, 0, 0), (1, 0, 0)),
    "H1": ((1, 0, 0), (0, -1, 0), (0, 0, 0)),
    "H2": ((0, 0, 0), (0, 1, 0), (0, 0, -1)),
}

GENERATOR_LABELS = tuple(_GEN_MATRICES)
NILPOTENT_LABELS = ("X1", "X2", "X3", "Y1", "Y2", "Y3")


@dataclass(frozen=True)
class Generator:
    """A basis element of sl3 acting through the left or the right factor."""

    label: str
    factor: str = "left"

    def __post_init__(self):
        if self.label not in _GEN_MATRICES:
            raise ValueError(f"unknown generator {self.label!r}")
        if self.factor not in ("left", "right"):
            raise ValueError("factor must be 'left' or 'right'")

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        return _GEN_MATRICES[self.label]


def mat_mul(a, b, zero=0):
    """Product of two 3x3 matrices whose entries add up from ``zero``."""
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(3)), start=zero)
                       for j in range(3)) for i in range(3))


def const_matrix(xi, table: VarTable):
    """A matrix of numbers as constants of ``table``, so that ``mat_mul`` with
    a matrix of polynomials keeps their integer coefficients."""
    return tuple(tuple(table.const(x) for x in row) for row in xi)


def mat_bracket(a, b):
    ab, ba = mat_mul(a, b), mat_mul(b, a)
    return tuple(tuple(ab[i][j] - ba[i][j] for j in range(3)) for i in range(3))


@dataclass(frozen=True)
class WeylElement:
    """A Weyl-group representative as a concrete 3x3 matrix.

    Every representative is a signed permutation matrix, so its inverse is
    its transpose.
    """

    label: str
    matrix: tuple[tuple[int, ...], ...]

    def inverse(self) -> "WeylElement":
        return WeylElement(f"{self.label}^-1", tuple(zip(*self.matrix)))


W_E = WeylElement("e", ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
W_S1 = WeylElement("s1", ((0, 1, 0), (-1, 0, 0), (0, 0, 1)))
W_S2 = WeylElement("s2", ((1, 0, 0), (0, 0, 1), (0, -1, 0)))
W_S1S2 = WeylElement("s1s2", mat_mul(W_S1.matrix, W_S2.matrix))
W_S2S1 = WeylElement("s2s1", mat_mul(W_S2.matrix, W_S1.matrix))
W_LONG = WeylElement("w0", mat_mul(W_S1S2.matrix, W_S1.matrix))


# -- infinitesimal action on the matrix chart ------------------------------------------


def _flow(xi, factor: str, g, table: VarTable):
    """The velocity of the flow of xi at the matrix g: -xi g for the left
    factor, g xi for the right."""
    zero = table.zero()
    if factor == "left":
        return mat_mul(const_matrix([[-x for x in row] for row in xi], table),
                       g, zero)
    return mat_mul(g, const_matrix(xi, table), zero)


def field_of_matrix(xi, factor: str) -> DiffOp:
    """Vector field of the one-parameter flow of a 3x3 matrix xi.

    Left factor: coefficient of d/dg_ij is -(xi g)_ij; right factor: +(g xi)_ij.
    Both conventions give Lie-algebra homomorphisms and commute with each
    other; the right-factor sign is calibrated so the canonical section has
    torus weight (-lam2, -lam1) under the right Cartan fields.
    """
    v = _flow(xi, factor, G_MAT, MATRIX_TABLE)
    return DiffOp.field(MATRIX, {f"g{i + 1}{j + 1}": RatFunc.from_poly(v[i][j])
                                 for i in range(3) for j in range(3)})


def ratio_field_of_matrix(xi, factor: str) -> DiffOp:
    """``field_of_matrix`` restricted to the ratio chart.

    With V the same product at X = (x_ij, x33 = 1), the ratio x_ij = g_ij/g33
    moves with V_ij - x_ij V_33.
    """
    v = _flow(xi, factor, X_MAT, RATIO_TABLE)
    return DiffOp.field(RATIO, {
        f"x{i + 1}{j + 1}": RatFunc.from_poly(v[i][j] - X_MAT[i][j] * v[2][2])
        for i in range(3) for j in range(3) if (i, j) != (2, 2)})


@lru_cache(maxsize=None)
def action_field_matrix(gen: Generator) -> DiffOp:
    """Infinitesimal action of a generator, on the nine matrix entries."""
    return field_of_matrix(gen.matrix, gen.factor)


def bracket_defects(field, field_of_matrix) -> list[tuple[str, str]]:
    """Generator pairs (a, b) whose fields break the bracket table, that is
    [field(a), field(b)] != field_of_matrix([a, b]); ``field`` maps a
    generator label and ``field_of_matrix`` an sl3 matrix to an operator."""
    return [(a, b) for a, b in itertools.combinations(GENERATOR_LABELS, 2)
            if commutator(field(a), field(b)) != field_of_matrix(
                mat_bracket(Generator(a).matrix, Generator(b).matrix))]


@lru_cache(maxsize=None)
def euler_field_matrix() -> DiffOp:
    return DiffOp.field(MATRIX, {name: RatFunc.var(MATRIX_TABLE, name)
                                 for name in MATRIX_NAMES})


# -- change of variables -----------------------------------------------------------------


@lru_cache(maxsize=None)
def big_cell_in_matrix() -> dict[str, RatFunc]:
    """The eight big-cell coordinates as degree-0 fractions of matrix entries."""
    g33 = RatFunc.from_poly(gvar(3, 3))
    d11 = RatFunc.from_poly(minor(1, 1))
    return {
        "a1": RatFunc.from_poly(gvar(3, 3) * det_g()) / (d11 * d11),
        "a2": d11 / (g33 * g33),
        "U12": RatFunc.from_poly(minor(2, 1)) / d11,
        "U21": RatFunc.from_poly(minor(1, 2)) / d11,
        "U13": RatFunc.from_poly(gvar(1, 3)) / g33,
        "U31": RatFunc.from_poly(gvar(3, 1)) / g33,
        "U23": RatFunc.from_poly(gvar(2, 3)) / g33,
        "U32": RatFunc.from_poly(gvar(3, 2)) / g33,
    }


@lru_cache(maxsize=None)
def matrix_ratios_in_big_cell() -> dict[str, Poly]:
    """The ratios g_ij/g33 derived by expanding the unipotent-torus product.

    Multiplies u * a * u' with u upper unipotent (U12, U13, U23), u' lower
    unipotent (U21, U31, U32) and torus ratios a = diag(a1*a2, a2, 1).
    """
    t = BIG_TABLE
    one, zero = t.one(), t.zero()
    u = [[one, t.var("U12"), t.var("U13")],
         [zero, one, t.var("U23")],
         [zero, zero, one]]
    a = [[t.var("a1") * t.var("a2"), zero, zero],
         [zero, t.var("a2"), zero],
         [zero, zero, one]]
    up = [[one, zero, zero],
          [t.var("U21"), one, zero],
          [t.var("U31"), t.var("U32"), one]]
    prod = mat_mul(mat_mul(u, a, zero), up, zero)
    return {f"g{i + 1}{j + 1}": prod[i][j] for i in range(3) for j in range(3)}


@lru_cache(maxsize=None)
def big_cell_in_ratio() -> dict[str, RatFunc]:
    """Forward formulas restricted to the ratio chart (g33 = 1)."""
    return {name: slice_to_ratio(f) for name, f in big_cell_in_matrix().items()}


@lru_cache(maxsize=None)
def map_big_to_ratio() -> ChartMap:
    inverse = {f"x{i}{j}": RatFunc.from_poly(matrix_ratios_in_big_cell()[f"g{i}{j}"])
               for i in (1, 2, 3) for j in (1, 2, 3) if (i, j) != (3, 3)}
    return ChartMap(BIG, RATIO, big_cell_in_ratio(), inverse)


@lru_cache(maxsize=None)
def map_ratio_to_big() -> ChartMap:
    return map_big_to_ratio().reversed()


def slice_to_ratio(f: RatFunc) -> RatFunc:
    """Restrict a matrix-chart function to the slice g33 = 1."""
    mapping = {f"g{i}{j}": RatFunc.from_poly(xvar(i, j))
               for i in (1, 2, 3) for j in (1, 2, 3)}
    return f.substitute(mapping)


def matrix_deg0_to_big(f: RatFunc) -> RatFunc:
    """Express a degree-0 matrix-chart function in big-cell coordinates."""
    return f.substitute({name: RatFunc.from_poly(p)
                         for name, p in matrix_ratios_in_big_cell().items()})


def big_to_matrix_deg0(f: RatFunc) -> RatFunc:
    """Express a big-cell function as a degree-0 matrix-chart function."""
    return f.substitute(big_cell_in_matrix())


def homogenize(op: DiffOp, target: Chart = MATRIX, unit: str = "g33") -> DiffOp:
    """Lift an operator on a ratio chart to the homogeneous chart ``target``.

    Each coordinate c of the ratio chart stands for (unit[0] + c[1:]) / unit,
    for instance x12 for g12/g33.  Coefficients are rewritten through these
    ratios and each derivative order picks up one factor of the unit; the
    lift acts identically on functions that are homogeneous of degree 0.
    """
    names = [unit[0] + c[1:] for c in op.chart.coords]
    if unit in names or not set(names) <= set(target.coords):
        raise ValueError("homogenize expects an operator on a ratio chart")
    u = RatFunc.var(target.table, unit)
    ratios = {c: RatFunc.var(target.table, name) / u
              for c, name in zip(op.chart.coords, names)}
    positions = [target.coord_index(name) for name in names]
    terms = {}
    for K, c in op.terms.items():
        idx = [0] * len(target.coords)
        for pos, k in zip(positions, K):
            idx[pos] = k
        terms[tuple(idx)] = c.substitute(ratios) * u ** sum(K)
    return DiffOp(target, terms)


@lru_cache(maxsize=None)
def action_field_big_cell(gen: Generator) -> DiffOp:
    """The generator's field in big-cell coordinates, derived by transport."""
    return transport(ratio_field_of_matrix(gen.matrix, gen.factor),
                     map_ratio_to_big())


# -- the two boundary derivations and the global order-2 operator ---------------------


@lru_cache(maxsize=None)
def alpha_derivations_ratio() -> tuple[DiffOp, DiffOp]:
    m = map_big_to_ratio()
    return (transport(DiffOp.partial(BIG, "a1"), m),
            transport(DiffOp.partial(BIG, "a2"), m))


@lru_cache(maxsize=None)
def alpha_derivations_matrix() -> tuple[DiffOp, DiffOp]:
    """d/da1 and d/da2 as matrix-chart operators, by Jacobian inversion."""
    r1, r2 = alpha_derivations_ratio()
    return homogenize(r1), homogenize(r2)


@lru_cache(maxsize=None)
def mixed_second_order_big() -> DiffOp:
    return op_compose(DiffOp.partial(BIG, "a1"), DiffOp.partial(BIG, "a2"))


@lru_cache(maxsize=None)
def mixed_second_order_matrix() -> DiffOp:
    """The globally defined order-2 operator, composed on the matrix chart."""
    p1, p2 = alpha_derivations_matrix()
    return op_compose(p1, p2)


# -- sections ------------------------------------------------------------------------------


def _exponent(value) -> Poly:
    """A section exponent over the matrix table; a number becomes a constant."""
    return value if isinstance(value, Poly) else MATRIX_TABLE.const(value)


def lam1() -> Poly:
    return MATRIX_TABLE.var("lam1")


def lam2() -> Poly:
    return MATRIX_TABLE.var("lam2")


def sym_m1() -> Poly:
    return MATRIX_TABLE.var("m1")


def sym_m2() -> Poly:
    return MATRIX_TABLE.var("m2")


def weight_exponents(m1, m2, lam=None) -> tuple[Poly, Poly]:
    """(nu1, nu2) = (lam2 - 2 m1 + m2, lam1 + m1 - 2 m2) for m and lam numbers
    or matrix-table parameter polynomials, lam symbolic by default."""
    l1, l2 = (lam1(), lam2()) if lam is None else map(_exponent, lam)
    m1, m2 = _exponent(m1), _exponent(m2)
    return l2 - m1.scale(2) + m2, l1 + m1 - m2.scale(2)


def monomial_section(m1=None, m2=None, lam=None) -> PowerSection:
    """sigma = a1^m1 a2^m2 times the canonical section, in matrix coordinates.

    With symbolic (default) or concrete m1, m2 and weight lam (as in
    ``weight_exponents``); the matrix-chart power product is
    g33^nu2 * Delta11^nu1 * Delta^m1.
    """
    m1 = sym_m1() if m1 is None else m1
    m2 = sym_m2() if m2 is None else m2
    nu1, nu2 = weight_exponents(m1, m2, lam)
    one = RatFunc.const(MATRIX_TABLE, 1)
    return PowerSection(MATRIX, one, [
        (gvar(3, 3), nu2), (minor(1, 1), nu1), (det_g(), m1)])


@lru_cache(maxsize=None)
def canonical_section() -> PowerSection:
    """The eigensection trivialising the bundle on the big cell: g33^lam1 Delta11^lam2."""
    return monomial_section(0, 0)


def monomial_section_big(m1=None, m2=None) -> PowerSection:
    """Big-cell coefficient of sigma relative to the canonical section:
    a1^m1 a2^m2, with exponents over the big-cell table (symbolic by default)."""
    m1 = BIG_TABLE.var("m1") if m1 is None else m1
    m2 = BIG_TABLE.var("m2") if m2 is None else m2
    one = RatFunc.const(BIG_TABLE, 1)
    return PowerSection(BIG, one, [(BIG_TABLE.var("a1"), m1),
                                   (BIG_TABLE.var("a2"), m2)])


def apply_generator(gen: Generator, s: PowerSection) -> PowerSection:
    """Twisted action of a generator on a section (plain Leibniz action)."""
    return op_apply_section(action_field_matrix(gen), s)


def apply_descent(s: PowerSection, w: WeylElement,
                  f: PowerSection) -> PowerSection:
    """The w-twisted order-2 operator on sections, w ( D ( w^{-1} s / f ) f ).

    f is the trivialising section with the same weight parameters as ``s``
    (``canonical_section()`` when they are symbolic).  g -> w^{-1} g w acts on
    functions and on operators alike, so this is (w D w^{-1})(s / wf) wf: the
    operator is twisted once per Weyl element and only f is twisted here.
    """
    wf = twist_section(f, w)
    return op_apply_section(descent_operator(w), s / wf) * wf


# -- twisted operators (coefficient side, big-cell trivialisation) ----------------------


def _log_derivative(field: DiffOp) -> RatFunc:
    """Logarithmic derivative of the canonical section along a field."""
    f = canonical_section()
    return op_apply_section(field, f).ratio_to(f)


def twisted_field_of_matrix(xi) -> DiffOp:
    """Coefficient-side twisted left-factor field of an arbitrary sl3 matrix."""
    field = field_of_matrix(xi, "left")
    return field + DiffOp.multiplication(MATRIX, _log_derivative(field))


@lru_cache(maxsize=None)
def twist_correction_matrix(gen: Generator) -> RatFunc:
    """Logarithmic derivative of the canonical section along the generator."""
    return _log_derivative(action_field_matrix(gen))


@lru_cache(maxsize=None)
def twisted_field_matrix(gen: Generator) -> DiffOp:
    """Coefficient-side twisted generator: the plain field plus a zero-order
    logarithmic correction."""
    corr = twist_correction_matrix(gen)
    return action_field_matrix(gen) + DiffOp.multiplication(MATRIX, corr)


@lru_cache(maxsize=None)
def twist_correction_big(gen: Generator) -> RatFunc:
    return matrix_deg0_to_big(twist_correction_matrix(gen))


@lru_cache(maxsize=None)
def twisted_field_big(gen: Generator) -> DiffOp:
    return action_field_big_cell(gen) + DiffOp.multiplication(
        BIG, twist_correction_big(gen))


# -- Casimir -------------------------------------------------------------------------------


@lru_cache(maxsize=None)
def casimir_operator() -> DiffOp:
    """Twisted image of the degree-2 central element, as one composed operator:

        (H1 + H2)/3 + (H1^2 + H2^2 + H1 H2)/9 + (Y1 X1 + Y2 X2 + Y3 X3)/3
    """
    f = {lbl: twisted_field_matrix(Generator(lbl, "left"))
         for lbl in GENERATOR_LABELS}
    third, ninth = Fraction(1, 3), Fraction(1, 9)
    linear = (f["H1"] + f["H2"]).scale(third)
    cartan = (op_compose(f["H1"], f["H1"]) + op_compose(f["H2"], f["H2"])
              + op_compose(f["H1"], f["H2"])).scale(ninth)
    raised = (op_compose(f["Y1"], f["X1"]) + op_compose(f["Y2"], f["X2"])
              + op_compose(f["Y3"], f["X3"])).scale(third)
    return linear + cartan + raised


@lru_cache(maxsize=None)
def _coordinate_weights() -> tuple[tuple[int, int], ...]:
    """The (H1, H2) weights of g11 .. g33, read off the left Cartan fields."""
    return tuple(zip(*(_euler_weights(action_field_matrix(Generator(label)))
                       for label in ("H1", "H2"))))


def _euler_weights(field: DiffOp) -> tuple:
    """The weights w_ij of a matrix-chart field sum w_ij g_ij d/dg_ij, one per
    coordinate; raises if a coefficient is not a constant multiple of g_ij."""
    if field.chart.coords != MATRIX_NAMES:
        raise ValueError(f"{field!r} is not on the matrix chart")
    weights = dict.fromkeys(MATRIX_NAMES, 0)
    for K, c in field.terms.items():
        if sum(K) != 1 or not c.is_poly():
            raise ValueError(f"{field!r} is not a Euler-type field")
        name = MATRIX_NAMES[K.index(1)]
        g = MATRIX_TABLE.var(name)
        k = c.num.terms.get(next(iter(g.terms)), 0)
        if c.num != g.scale(k):
            raise ValueError(f"the d/d{name} coefficient of {field!r} is not "
                             f"a constant multiple of {name}")
        weights[name] = k
    return tuple(weights.values())


def _weight_parts(p: Poly, weights) -> dict[tuple[int, int], Poly]:
    """p split by the (H1, H2) weight of its monomials, one part per weight
    that occurs; only coordinate fields count, parameters carry no weight."""
    table, pbits = p.table, p.table.param_bits
    parts: dict[tuple[int, int], dict] = {}
    for key, c in p.terms.items():
        exps = table.decode((key >> pbits) << pbits)
        w = (sum(e * w1 for e, (w1, _) in zip(exps, weights)),
             sum(e * w2 for e, (_, w2) in zip(exps, weights)))
        parts.setdefault(w, {})[key] = c
    return {w: Poly(table, terms) for w, terms in parts.items()}


def left_weights(s: PowerSection) -> list[tuple[Poly, Poly, Poly]]:
    """One (h1, h2, part) per left weight of the numerator of s, with
    H_k (part * bases) = h_k (part * bases) for the left Cartan fields.

    The fields are Euler-type, so a section whose bases each have one torus
    weight splits into weight vectors along the weights of its numerator:
    h_k is the weight of the part plus each exponent times the weight of its
    base, a parameter polynomial over the matrix table (a constant when the
    exponents are).  The parts sum to the numerator.  Raises ``ValueError``
    when a base mixes weights or the chart is not over the matrix table.
    """
    if s.chart.table is not MATRIX_TABLE:
        raise ValueError(f"{s!r} is not over the matrix table")
    weights = _coordinate_weights()
    h = [MATRIX_TABLE.zero(), MATRIX_TABLE.zero()]
    for base, exp in s.factors:
        wb = _weight_parts(base, weights)
        if len(wb) != 1:
            raise ValueError(f"base {base.to_text()} mixes left weights")
        h = [hk + exp.scale(wk) for hk, wk in zip(h, next(iter(wb)))]
    return [(h[0] + w1, h[1] + w2, part)
            for (w1, w2), part in _weight_parts(s.num, weights).items()]


def casimir_apply(s: PowerSection) -> PowerSection:
    """Apply the Casimir to a section by first-order actions.

    C = (H1 + H2)/3 + (H1^2 + H2^2 + H1 H2)/9 + (Y1 X1 + Y2 X2 + Y3 X3)/3
    has thirds and ninths, which would put Fraction coefficients into every
    product of the later actions.  So the numerator is split as c * p with p
    integer-primitive, the integer operator
    9C = 3(H1 + H2) + (H1^2 + H2^2 + H1 H2) + 3(Y1 X1 + Y2 X2 + Y3 X3)
    is applied to the section with numerator p, and c/9 is applied once at
    the end.  ``left_weights`` splits p into weight vectors (h1, h2), and the
    Cartan part scales each by 3(h1 + h2) + h1^2 + h2^2 + h1 h2.  The six X
    and Y actions go through ``apply_generator``.
    """
    if s.is_zero():
        return s
    prim, c = s.num.primitive()
    p = PowerSection(s.chart, prim, s.factors)

    def ap(label, t):
        return apply_generator(Generator(label, "left"), t)

    cartan = sum((part * ((h1 + h2).scale(3) + h1 * h1 + h2 * h2 + h1 * h2)
                  for h1, h2, part in left_weights(p)),
                 start=MATRIX_TABLE.zero())
    out = PowerSection(s.chart, cartan, p.factors)
    out = out + (ap("Y1", ap("X1", p)) + ap("Y2", ap("X2", p))
                 + ap("Y3", ap("X3", p))).scale(3)
    return out.scale(c / 9)


def central_character(mu1, mu2) -> RatFunc:
    """Scalar action of the Casimir on the simple module of highest weight mu:
    (mu1 + mu2)/3 + (mu1^2 + mu1 mu2 + mu2^2)/9, formed in ``Poly``."""
    e1, e2 = _exponent(mu1), _exponent(mu2)
    chi = (e1 + e2).scale(Fraction(1, 3)) \
        + (e1 * e1 + e1 * e2 + e2 * e2).scale(Fraction(1, 9))
    return RatFunc.from_poly(chi)


# -- Weyl twists ------------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _conjugation_formulas(w: WeylElement) -> dict[str, RatFunc]:
    """g_ij as entries of w^{-1} g w (a linear polynomial substitution)."""
    t = MATRIX_TABLE
    conj = mat_mul(mat_mul(const_matrix(w.inverse().matrix, t), G_MAT, t.zero()),
                   const_matrix(w.matrix, t), t.zero())
    return {f"g{i + 1}{j + 1}": RatFunc.from_poly(conj[i][j])
            for i in range(3) for j in range(3)}


def weyl_substitution(w: WeylElement) -> ChartMap:
    """The linear chart map induced by g -> w^{-1} g w on the matrix chart."""
    return ChartMap(MATRIX, MATRIX, _conjugation_formulas(w),
                    _conjugation_formulas(w.inverse()))


def twist_operator(D: DiffOp, w: WeylElement) -> DiffOp:
    """Diagonal Weyl twist of an operator: transport along g -> w^{-1} g w."""
    return transport(D, weyl_substitution(w))


def twist_section(s: PowerSection, w: WeylElement) -> PowerSection:
    """Diagonal Weyl twist of a section (substitute g -> w^{-1} g w everywhere)."""
    return s.substitute_coords(_conjugation_formulas(w))


@lru_cache(maxsize=None)
def descent_operator(w: WeylElement) -> DiffOp:
    """The order-2 operator twisted by w, w D w^{-1}."""
    return twist_operator(mixed_second_order_matrix(), w)


# -- twisted-operator globality data ------------------------------------------------------------


@lru_cache(maxsize=None)
def descent_bminusb_presentation() -> DiffOp:
    """The twisted order-2 operator written in the opposite-cell trivialisation.

    Conjugating the mixed second-order operator by
    (g33/g11)^(-lam1) (Delta11/Delta33)^(-lam2) expresses it relative to the
    section that trivialises the bundle where g11 * Delta33 != 0.
    """
    one = RatFunc.const(MATRIX_TABLE, 1)
    h = PowerSection(MATRIX, one, [
        (gvar(3, 3), -lam1()), (gvar(1, 1), lam1()),
        (minor(1, 1), -lam2()), (minor(3, 3), lam2())])
    return conjugate(mixed_second_order_matrix(), h)
