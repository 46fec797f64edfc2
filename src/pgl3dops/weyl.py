"""Differential operators with rational-function coefficients on named charts.

An operator is kept in normal form: every coefficient stands to the left of
the derivative monomials, which are recorded as multi-indices over the
chart's coordinates.  Composition uses the generalised Leibniz rule, so the
normal form is unique and equality is decidable.

``PowerSection`` models expressions ``prefactor * b1^e1 * ... * bk^ek`` with
polynomial bases and exponents that are polynomials in the parameters alone,
over the chart's own table; first-order operators act through the symbolic
power rule ``d(b^e) = e b^(e-1) db``, and higher orders by iteration, so
applying an operator never leaves this class.

``ChartMap`` carries an invertible rational change of coordinates; operators
are transported by inverting the Jacobian of the forward formulas, exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb
from typing import Iterable, Mapping

from .ring import (Number, Poly, RatFunc, VarTable, ZeroDenominator,
                   _parse_factor, _table_atom, _Tokens, ParseError)

MultiIndex = tuple[int, ...]


class ChartMismatch(ValueError):
    """Operands live on different charts."""


class SingularJacobian(ValueError):
    """The chart map's Jacobian is not invertible."""


class ExpressFailure(ValueError):
    """A section is not a parameter-scalar multiple of the reference section."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class Chart:
    """A named affine chart: coordinates plus the denominators allowed there.

    ``units`` lists polynomials that are invertible on the chart; a
    coefficient is regular if clearing unit factors from its denominator
    leaves an exact polynomial divisor of the numerator.
    """

    __slots__ = ("name", "table", "coords", "units")

    def __init__(self, name: str, table: VarTable, units: Iterable[Poly] = ()):
        self.name = name
        self.table = table
        self.coords = table.coords
        self.units = tuple(units)
        for u in self.units:
            if u.is_constant():
                raise ValueError("unit-set entries must be non-constant")

    def __repr__(self) -> str:
        return f"Chart({self.name!r})"

    def coord_index(self, name: str) -> int:
        return self.coords.index(name)

    def zero_index(self) -> MultiIndex:
        return (0,) * len(self.coords)


def _check_chart(a: "DiffOp", b: "DiffOp") -> None:
    if a.chart is not b.chart and a.chart.coords != b.chart.coords:
        raise ChartMismatch(f"{a.chart!r} vs {b.chart!r}")


class DiffOp:
    """Normal-ordered differential operator on a chart."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: Mapping[MultiIndex, RatFunc]):
        self.chart = chart
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "DiffOp":
        return DiffOp(chart, {})

    @staticmethod
    def identity(chart: Chart) -> "DiffOp":
        return DiffOp.multiplication(chart, RatFunc.const(chart.table, 1))

    @staticmethod
    def multiplication(chart: Chart, f: RatFunc) -> "DiffOp":
        return DiffOp(chart, {chart.zero_index(): f})

    @staticmethod
    def partial(chart: Chart, name: str) -> "DiffOp":
        return DiffOp.field(chart, {name: RatFunc.const(chart.table, 1)})

    @staticmethod
    def field(chart: Chart, coeffs: Mapping[str, RatFunc]) -> "DiffOp":
        """The first-order operator sum of coeff * d/dname, terms in the
        mapping's order."""
        terms = {}
        for name, coeff in coeffs.items():
            idx = [0] * len(chart.coords)
            idx[chart.coord_index(name)] = 1
            terms[tuple(idx)] = coeff
        return DiffOp(chart, terms)

    # -- linear structure ------------------------------------------------------

    def __add__(self, other: "DiffOp") -> "DiffOp":
        _check_chart(self, other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            _accumulate(terms, k, v)
        return DiffOp(self.chart, terms)

    def __neg__(self) -> "DiffOp":
        return DiffOp(self.chart, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def scale(self, f: RatFunc | Number) -> "DiffOp":
        if not isinstance(f, RatFunc):
            f = RatFunc.const(self.chart.table, f)
        if f.is_zero():
            return DiffOp.zero(self.chart)
        return DiffOp(self.chart, {k: v * f for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        """Derived quantity: maximal total derivative order (-1 if zero)."""
        if not self.terms:
            return -1
        return max(sum(k) for k in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        if self.chart.coords != other.chart.coords:
            return False
        keys = set(self.terms) | set(other.terms)
        zero = RatFunc.const(self.chart.table, 0)
        return all(self.terms.get(k, zero) == other.terms.get(k, zero) for k in keys)

    # -- printing --------------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for idx in sorted(self.terms, reverse=True):
            coeff = self.terms[idx]
            dd = " ".join(
                f"d/d{name}^{k}" if k > 1 else f"d/d{name}"
                for name, k in zip(self.chart.coords, idx) if k
            )
            if not dd:
                pieces.append(f"({coeff.to_text()})")
            elif coeff.is_poly() and coeff.num.is_one():
                pieces.append(dd)
            else:
                pieces.append(f"({coeff.to_text()}) * {dd}")
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"DiffOp[{self.chart.name}]({self.to_text()})"


# -- multi-index helpers --------------------------------------------------------


def _sub_indices(K: MultiIndex, low: MultiIndex):
    """All multi-indices J with low <= J <= K componentwise, the first
    component varying fastest."""
    ranges = [range(lo, k + 1) for lo, k in zip(reversed(low), reversed(K))]
    for J in product(*ranges):
        yield J[::-1]


def _degrees(p: Poly, n: int) -> MultiIndex:
    """The largest exponent of each of the first n variables of p."""
    top = [0] * n
    for key in p.terms:
        for i, e in enumerate(p.table.decode(key)[:n]):
            if e > top[i]:
                top[i] = e
    return tuple(top)


def _binom(K: MultiIndex, J: MultiIndex) -> int:
    out = 1
    for k, j in zip(K, J):
        out *= comb(k, j)
    return out


def _derivatives(f, coords, d):
    """The memoised map M -> d^M f, where ``d(g, name)`` differentiates once;
    each M is reduced along its first positive component.  The reduction
    walks down to the nearest memoised index in a loop and differentiates
    back up, so a high order costs no recursion depth."""
    memo: dict[MultiIndex, object] = {(0,) * len(coords): f}

    def deriv(M: MultiIndex):
        hit = memo.get(M)
        if hit is not None:
            return hit
        steps = []
        while hit is None:
            i = next(i for i, m in enumerate(M) if m)
            steps.append((M, coords[i]))
            M = M[:i] + (M[i] - 1,) + M[i + 1:]
            hit = memo.get(M)
        for M, name in reversed(steps):
            hit = memo[M] = d(hit, name)
        return hit

    return deriv


def _accumulate(out: dict, key: MultiIndex, value: RatFunc) -> None:
    """out[key] += value, dropping the key when the sum vanishes."""
    s = out.get(key)
    s = value if s is None else s + value
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


def _leibniz(A: DiffOp, deriv, L: MultiIndex, out: dict,
             top: MultiIndex | None = None) -> None:
    """Accumulate A∘(g d^L) into ``out``, given deriv(M) = d^M g.

    When g is a polynomial of degree ``top[i]`` in coordinate i, only the J
    with K - J <= top are visited: every other d^(K-J) g is zero."""
    for K, a in A.terms.items():
        low = (0,) * len(K) if top is None else tuple(
            max(k - t, 0) for k, t in zip(K, top))
        for J in _sub_indices(K, low):
            db = deriv(tuple(k - j for k, j in zip(K, J)))
            if db.is_zero():
                continue
            coeff = a * db
            c = _binom(K, J)
            if c != 1:
                coeff = coeff.scale(c)
            _accumulate(out, tuple(j + l for j, l in zip(J, L)), coeff)


def _iter_derivative(f: RatFunc, chart: Chart, M: MultiIndex) -> RatFunc:
    for name, k in zip(chart.coords, M):
        for _ in range(k):
            f = f.differentiate(name)
            if f.is_zero():
                return f
    return f


# -- core operations ---------------------------------------------------------------


def op_compose(A: DiffOp, B: DiffOp) -> DiffOp:
    """Normal-ordered product A∘B via the generalised Leibniz rule."""
    _check_chart(A, B)
    chart = A.chart
    out: dict[MultiIndex, RatFunc] = {}
    n = len(chart.coords)
    for L, b in B.terms.items():
        top = _degrees(b.num, n) if b.is_poly() else None
        _leibniz(A, _derivatives(b, chart.coords, RatFunc.differentiate), L,
                 out, top)
    return DiffOp(chart, out)


def op_apply(A: DiffOp, f: RatFunc) -> RatFunc:
    """Exact action of the operator on a rational function."""
    # no `_derivatives` memo here: it raised peak memory and saved no arithmetic
    chart = A.chart
    total = RatFunc.const(chart.table, 0)
    for K, c in A.terms.items():
        df = _iter_derivative(f, chart, K)
        if df.is_zero():
            continue
        total = total + c * df
    return total


def commutator(A: DiffOp, B: DiffOp) -> DiffOp:
    return op_compose(A, B) - op_compose(B, A)


def ad_nilpotency_depth(A: DiffOp, V: DiffOp, limit: int) -> int | None:
    """Smallest n <= limit with ad(V)^n(A) = 0, or None if not reached."""
    cur = A
    for n in range(1, limit + 1):
        cur = commutator(V, cur)
        if cur.is_zero():
            return n
    return None


def regular_on(A: DiffOp, chart: Chart) -> tuple[bool, DiffOp | None]:
    """Check every coefficient is polynomial after clearing unit denominators.

    Returns (True, None) or (False, witness) where the witness is the
    offending term as a one-term operator.
    """
    for K, coeff in A.terms.items():
        den = coeff.den
        for u in chart.units:
            den, _ = _divide_out(den, u)
        if den.is_constant():
            continue
        if coeff.num.divide_exact(den) is None:
            return False, DiffOp(chart, {K: coeff})
    return True, None


# -- chart maps and transport ---------------------------------------------------------


def invert_matrix(rows: list[list[RatFunc]]) -> list[list[RatFunc]]:
    """Exact inverse of a square matrix over the fraction field (Gauss-Jordan)."""
    n = len(rows)
    table = rows[0][0].table
    work = [list(r) for r in rows]
    iden = [[RatFunc.const(table, 1 if i == j else 0) for j in range(n)]
            for i in range(n)]
    for col in range(n):
        # pick the simplest nonzero pivot in this column
        pivot = None
        best = None
        for r in range(col, n):
            entry = work[r][col]
            if entry.is_zero():
                continue
            size = len(entry.num.terms) + len(entry.den.terms)
            if best is None or size < best:
                best, pivot = size, r
        if pivot is None:
            raise SingularJacobian("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        iden[col], iden[pivot] = iden[pivot], iden[col]
        inv = RatFunc.const(table, 1) / work[col][col]
        work[col] = [x * inv for x in work[col]]
        iden[col] = [x * inv for x in iden[col]]
        for r in range(n):
            if r == col:
                continue
            factor = work[r][col]
            if factor.is_zero():
                continue
            work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
            iden[r] = [a - factor * b for a, b in zip(iden[r], iden[col])]
    return iden


class ChartMap:
    """Invertible rational coordinate change between two charts.

    ``forward`` expresses each source coordinate in target coordinates;
    ``inverse`` expresses each target coordinate in source coordinates.
    Operators are transported by substituting coefficients through
    ``forward`` and mapping each source derivation through the inverse of
    the Jacobian matrix of the forward formulas.
    """

    def __init__(self, source: Chart, target: Chart,
                 forward: Mapping[str, RatFunc],
                 inverse: Mapping[str, RatFunc]):
        self.source = source
        self.target = target
        self.forward = dict(forward)
        self.inverse = dict(inverse)
        self._powers = None

    def reversed(self) -> "ChartMap":
        return ChartMap(self.target, self.source, self.inverse, self.forward)

    def substitute_to_target(self, f: RatFunc) -> RatFunc:
        """Express a source-chart function in target coordinates."""
        return f.substitute(self.forward)

    def substitute_to_source(self, f: RatFunc) -> RatFunc:
        return f.substitute(self.inverse)

    def roundtrip_checks(self) -> bool:
        """forward∘inverse and inverse∘forward are the identity substitutions."""
        for name, f in self.forward.items():
            back = f.substitute(self.inverse)
            if back != RatFunc.var(self.source.table, name):
                return False
        for name, f in self.inverse.items():
            back = f.substitute(self.forward)
            if back != RatFunc.var(self.target.table, name):
                return False
        return True

    def partial_power(self, K: MultiIndex) -> DiffOp:
        """The source derivation d^K as a target-chart operator; each source
        derivation is transported through the inverse Jacobian."""
        if self._powers is None:
            src, tgt = self.source, self.target
            if len(src.coords) != len(tgt.coords):
                raise SingularJacobian(
                    "transport requires equally many source and target coordinates")
            jac = [[self.forward[y].differentiate(z) for z in tgt.coords]
                   for y in src.coords]
            inv = invert_matrix(jac)
            image = {y: DiffOp.field(tgt, {z: row[i]
                                           for z, row in zip(tgt.coords, inv)})
                     for i, y in enumerate(src.coords)}
            self._powers = _derivatives(DiffOp.identity(tgt), src.coords,
                                        lambda op, y: op_compose(image[y], op))
        return self._powers(K)


def transport(A: DiffOp, M: ChartMap) -> DiffOp:
    """Push an operator along a chart map; exact on the function-field level."""
    if A.chart.coords != M.source.coords:
        raise ChartMismatch("operator is not presented on the map's source chart")
    out = DiffOp.zero(M.target)
    for K, c in A.terms.items():
        coeff = M.substitute_to_target(c)
        out = out + M.partial_power(K).scale(coeff)
    return out


# -- power sections --------------------------------------------------------------------


def _divide_out(p: Poly, base: Poly) -> tuple[Poly, int]:
    """(p / base^k, k) for the largest k with base^k dividing p exactly; the
    base is non-constant, so a constant p is left as it is."""
    k = 0
    while not p.is_constant() and (q := p.divide_exact(base)) is not None:
        p, k = q, k + 1
    return p, k


def _base_key(p: Poly):
    # exponent keys are unique, and equal ints and Fractions compare and hash
    # alike, so the stored coefficient type does not split a base
    return tuple(sorted(p.terms.items()))


def _integer(e: Poly) -> int | None:
    """The value of an exponent that is a constant integer, else None."""
    c = e.constant_value() if e.is_constant() else None
    return int(c) if c is not None and c.denominator == 1 else None


def _check_section_charts(a: "PowerSection", b: "PowerSection") -> None:
    if a.chart is not b.chart:
        raise ChartMismatch(f"sections on {a.chart!r} and {b.chart!r}")


class PowerSection:
    """num * product of polynomial bases raised to parameter exponents.

    Each exponent is a ``Poly`` over the chart's table in which no coordinate
    occurs (a number stands for a constant one); the constructor checks every
    exponent, which is what keeps the power rule exact.  The numerator is
    always a polynomial: every denominator is absorbed into the power product as an integer shift of an exponent (with new bases
    created on demand).  Two sections are compatible for addition whenever
    they have the same bases up to concrete integer exponent differences,
    which are reconciled by multiplying base powers into the numerators.
    """

    __slots__ = ("chart", "num", "factors")

    def __init__(self, chart: Chart, prefactor, factors=()):
        table = chart.table
        merged: dict = {}

        def push(base: Poly, exp):
            if not isinstance(exp, Poly):
                exp = table.const(exp)
            elif exp.table is not table or not exp.params_only():
                raise ValueError(f"exponent {exp.to_text()} is not a polynomial "
                                 f"in the parameters of {chart!r}")
            if base.is_zero():
                raise ZeroDenominator("power-section base is identically zero")
            key = _base_key(base)
            if key in merged:
                b, e = merged[key]
                merged[key] = (b, e + exp)
            else:
                merged[key] = (base, exp)

        for base, exp in factors:
            push(base, exp)

        if isinstance(prefactor, RatFunc):
            num, den = prefactor.num, prefactor.den
        elif isinstance(prefactor, Poly):
            num, den = prefactor, None
        else:
            num, den = table.const(prefactor), None

        if den is not None and not den.is_constant():
            # factor the denominator through the bases, newest remainder last
            for key in list(merged):
                b = merged[key][0]
                if b.is_constant():
                    continue
                den, k = _divide_out(den, b)
                if k:
                    push(b, -k)
            if not den.is_constant():
                rem, c = den.primitive()
                push(rem, -1)
                den = den.table.const(c)
        if den is not None:
            c = den.constant_value()
            if c != 1:
                num = num.scale(Fraction(1, 1) / c)

        out = []
        for key, (base, exp) in merged.items():
            if exp.is_zero():
                continue
            if base.is_constant():
                c = base.constant_value()
                if c == 1:
                    continue
                if (n := _integer(exp)) is not None:
                    num = num.scale(c ** n)
                    continue
                raise ValueError(
                    f"constant base {c} with symbolic exponent {exp.to_text()}")
            out.append((key, base, exp))
        if num.is_zero():
            out = []
        out.sort(key=lambda t: t[0])
        self.chart = chart
        self.num = num
        self.factors = tuple((b, e) for _, b, e in out)

    # -- basic views -----------------------------------------------------------

    @staticmethod
    def one(chart: Chart) -> "PowerSection":
        return PowerSection(chart, chart.table.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    @staticmethod
    def _checked(chart: Chart, num: Poly, factors) -> "PowerSection":
        """A section from factors that some section already checked: sorted
        by base key, no exponent zero and no base constant."""
        out = PowerSection.__new__(PowerSection)
        out.chart = chart
        out.num = num
        out.factors = tuple(factors) if not num.is_zero() else ()
        return out

    def _aligned(self, other: "PowerSection", context: str = ""):
        """Common power product: returns (factors, num_self, num_other).
        Every caller checks first that both sections share a chart."""
        if self.factors == other.factors:
            return self.factors, self.num, other.num
        sdict = {_base_key(b): (b, e) for b, e in self.factors}
        odict = {_base_key(b): (b, e) for b, e in other.factors}
        factors = []
        n1, n2 = self.num, other.num
        zero = self.chart.table.zero()
        for key in sorted(set(sdict) | set(odict)):
            base = (sdict.get(key) or odict.get(key))[0]
            e1 = sdict[key][1] if key in sdict else zero
            e2 = odict[key][1] if key in odict else zero
            shift = _integer(e1 - e2)
            if shift is None:
                raise ExpressFailure(
                    f"incompatible exponents on base {base.to_text()}: "
                    f"{e1.to_text()} vs {e2.to_text()}" +
                    (f" ({context})" if context else ""),
                    witness=base)
            if shift >= 0:
                target = e2
                n1 = n1 * base ** shift
            else:
                target = e1
                n2 = n2 * base ** (-shift)
            if not target.is_zero():
                factors.append((base, target))
        return factors, n1, n2

    def __add__(self, other: "PowerSection") -> "PowerSection":
        _check_section_charts(self, other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        factors, n1, n2 = self._aligned(other, "sum of sections")
        return PowerSection._checked(self.chart, n1 + n2, factors)

    def scale(self, f) -> "PowerSection":
        if isinstance(f, RatFunc):
            if not f.is_poly():
                return PowerSection(self.chart, RatFunc(self.num * f.num, f.den,
                                                        normalise=False),
                                    self.factors)
            f = f.num
        num = self.num * f if isinstance(f, Poly) else self.num.scale(f)
        return PowerSection._checked(self.chart, num, self.factors)

    def __mul__(self, other: "PowerSection") -> "PowerSection":
        _check_section_charts(self, other)
        return PowerSection(self.chart, self.num * other.num,
                            self.factors + other.factors)

    def inverse(self) -> "PowerSection":
        if self.is_zero():
            raise ZeroDenominator("inverting the zero section")
        factors = [(b, -e) for b, e in self.factors]
        if self.num.is_constant():
            num = self.chart.table.const(Fraction(1, 1) / self.num.constant_value())
        else:
            prim, c = self.num.primitive()
            factors.append((prim, -1))
            num = self.chart.table.const(Fraction(1, 1) / c)
        return PowerSection(self.chart, num, factors)

    def __truediv__(self, other: "PowerSection") -> "PowerSection":
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSection):
            return NotImplemented
        if self.chart is not other.chart:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        try:
            _, n1, n2 = self._aligned(other)
        except ExpressFailure:
            return False
        return n1 == n2

    def ratio_to(self, other: "PowerSection") -> RatFunc:
        """self / other as a rational function (power products must align)."""
        _check_section_charts(self, other)
        if other.is_zero():
            raise ZeroDenominator("ratio to the zero section")
        if self.is_zero():
            return RatFunc.const(self.chart.table, 0)
        _, n1, n2 = self._aligned(other, "ratio of sections")
        return RatFunc(n1, n2)

    # -- calculus ---------------------------------------------------------------

    def derivative(self, name: str) -> "PowerSection":
        """First-order derivative via the symbolic power rule."""
        touched = [(i, db) for i, (b, _) in enumerate(self.factors)
                   if not (db := b.differentiate(name)).is_zero()]
        return self._power_rule(self.num.differentiate(name), touched)

    def _power_rule(self, dnum: Poly, touched) -> "PowerSection":
        """V(self) for a derivation V with polynomial coefficients, given
        dnum = V(num) and one (i, V(b_i)) per base that a coordinate of V
        reaches (V(b_i) may vanish).  Each reached base loses one from its
        exponent and d(b^e) = e b^(e-1) V(b) puts the rest into one numerator:
        V(num) * prod b + num * sum e_i V(b_i) prod_(j != i) b_j."""
        if not touched:
            return PowerSection(self.chart, dnum, self.factors)
        inner = self.chart.table.zero()
        for i, db in touched:
            if db.is_zero():
                continue
            term = self.factors[i][1] * db
            for j, _ in touched:
                if j != i:
                    term = term * self.factors[j][0]
            inner = inner + term
        total = dnum
        for i, _ in touched:
            total = total * self.factors[i][0]
        total = total + self.num * inner
        lowered = {i for i, _ in touched}
        factors = [(b, e - 1 if i in lowered else e)
                   for i, (b, e) in enumerate(self.factors)]
        return PowerSection(self.chart, total, factors)

    def substitute_params(self, values: Mapping[str, Number]) -> "PowerSection":
        """Specialise parameters in the exponents and the numerator."""
        table = self.chart.table
        mapping = {name: RatFunc.const(table, v) for name, v in values.items()}
        return PowerSection(
            self.chart, self.num.substitute(mapping).as_poly(),
            [(b, e.substitute(mapping).as_poly()) for b, e in self.factors])

    def substitute_coords(self, mapping: Mapping[str, RatFunc]
                          ) -> "PowerSection":
        """Coordinate substitution on this section's chart.  Every base must
        stay a polynomial: a normalised image keeps a denominator only if it
        does not divide the numerator.  A base that vanishes raises
        ``ZeroDenominator`` in the constructor."""
        factors = []
        for base, exp in self.factors:
            image = base.substitute(mapping)
            if not image.is_poly():
                raise ValueError(
                    f"base {base.to_text()} is not polynomial after substitution")
            factors.append((image.num, exp))
        return PowerSection(self.chart, self.num.substitute(mapping), factors)

    def reduce_num(self) -> "PowerSection":
        """Move base factors of the numerator back into the exponents.

        Iterated derivatives multiply the numerator by base polynomials; this
        undoes that growth by exact trial division (no gcd machinery).
        """
        if self.is_zero() or not self.factors:
            return self
        num = self.num
        shifts = []
        for base, _ in self.factors:
            num, k = _divide_out(num, base)
            shifts.append(k)
        if not any(shifts):
            return self
        factors = tuple((b, e + s) for (b, e), s in zip(self.factors, shifts))
        return PowerSection(self.chart, num, factors)

    def to_text(self) -> str:
        parts = [f"({self.num.to_text()})"]
        for base, exp in self.factors:
            parts.append(f"({base.to_text()})^({exp.to_text()})")
        return " * ".join(parts)

    def __repr__(self) -> str:
        return f"PowerSection[{self.chart.name}]({self.to_text()})"


def op_apply_section(A: DiffOp, s: PowerSection) -> PowerSection:
    """Apply an operator to a power section; stays in power-section form.

    A first-order operator with polynomial coefficients (a vector field such
    as every generator action) takes one power-rule pass; any other operator
    sums its memoised multi-index derivatives of the section."""
    if A.chart.coords != s.chart.coords:
        raise ChartMismatch("operator and section on different charts")
    field = _polynomial_field(A)
    if field is not None:
        return _apply_field(field, s).reduce_num()
    deriv = _derivatives(s, A.chart.coords, PowerSection.derivative)
    total = PowerSection(s.chart, s.chart.table.zero(), s.factors)
    for K, c in A.terms.items():
        total = total + deriv(K).scale(c)
    return total.reduce_num()


def _polynomial_field(A: DiffOp) -> list[tuple[str, Poly]] | None:
    """The (coordinate, coefficient) pairs of a first-order operator whose
    coefficients are all polynomials, else None."""
    field = []
    for K, c in A.terms.items():
        if sum(K) != 1 or not c.is_poly():
            return None
        field.append((A.chart.coords[K.index(1)], c.num))
    return field


def _apply_field(field: list[tuple[str, Poly]], s: PowerSection) -> PowerSection:
    """V(s) for V = sum c * d/dname, before ``reduce_num``."""
    zero = s.chart.table.zero()
    dnum = zero
    for name, c in field:
        if not (d := s.num.differentiate(name)).is_zero():
            dnum = dnum + c * d
    touched = []
    for i, (b, _) in enumerate(s.factors):
        db, reached = zero, False
        for name, c in field:
            if not (d := b.differentiate(name)).is_zero():
                db, reached = db + c * d, True
        if reached:
            touched.append((i, db))
    return s._power_rule(dnum, touched)


def conjugate(A: DiffOp, s: PowerSection) -> DiffOp:
    """s^{-1} ∘ A ∘ s as an operator; coefficients pick up log-derivatives."""
    if A.chart.coords != s.chart.coords:
        raise ChartMismatch("operator and section on different charts")
    chart = A.chart
    if s.is_zero():
        raise ZeroDenominator("conjugation by the zero section")
    dsec = _derivatives(s, chart.coords, PowerSection.derivative)
    out: dict[MultiIndex, RatFunc] = {}
    _leibniz(A, lambda M: dsec(M).ratio_to(s), chart.zero_index(), out)
    return DiffOp(chart, out)


def express_as_multiple(s: PowerSection, t: PowerSection) -> RatFunc:
    """Scalar c with s = c·t where c involves only parameters.

    Bases are aligned by exact polynomial equality; exponent differences must
    be concrete integers, which are folded into the quotient.  Raises
    ``ExpressFailure`` (carrying a witness) if the quotient depends on
    coordinates.
    """
    if t.is_zero():
        raise ZeroDenominator("reference section is zero")
    if s.is_zero():
        return RatFunc.const(s.chart.table, 0)
    return _parameter_scalar(s.ratio_to(t))


def _parameter_scalar(q: RatFunc) -> RatFunc:
    """Certify that a fraction only involves parameters, and return it reduced."""
    table = q.table
    pbits = table.param_bits

    def split(p: Poly) -> dict:
        out: dict = {}
        for key, c in p.terms.items():
            out.setdefault(key >> pbits, {})[key] = c
        return out

    if q.params_only():
        return q
    nmap, dmap = split(q.num), split(q.den)
    mstar = max(dmap)
    dref = Poly._raw(table, dmap[mstar])
    nref = Poly._raw(table, nmap.get(mstar, {}))
    if q.num * dref != q.den * nref:
        raise ExpressFailure(
            f"quotient depends on coordinates: {q.to_text()}", witness=q)
    # strip the shared coordinate monomial from the reference pair
    floor = mstar << pbits
    scalar = RatFunc(nref.shift_down(floor) if not nref.is_zero() else nref,
                     dref.shift_down(floor))
    if not scalar.params_only():
        raise ExpressFailure(
            f"quotient depends on coordinates: {scalar.to_text()}", witness=scalar)
    return scalar


# -- operator text parsing ---------------------------------------------------------


def parse_operator(text: str, chart: Chart) -> DiffOp:
    """Parse the canonical operator grammar: sums of coeff * d/dv^k products.

    Within one product every scalar factor must precede the derivative
    factors (operators are written in normal order).
    """
    toks = _Tokens(text)
    result = DiffOp.zero(chart)
    sign = 1
    first = True
    while True:
        tok = toks.peek()
        if tok is None:
            if first:
                raise ParseError("empty operator expression")
            break
        if not first:
            if tok not in ("+", "-"):
                raise ParseError(f"expected + or - between terms, got {tok!r}")
            toks.next()
            sign = 1 if tok == "+" else -1
        else:
            if tok in ("+", "-"):
                toks.next()
                sign = 1 if tok == "+" else -1
            first = False
        term = _parse_op_product(toks, chart)
        result = result + (term if sign > 0 else -term)
    return result


def _parse_op_product(toks: _Tokens, chart: Chart) -> DiffOp:
    table = chart.table
    coeff = RatFunc.const(table, 1)
    index = [0] * len(chart.coords)
    seen_derivative = False
    while True:
        tok = toks.peek()
        if tok is None or tok in ("+", "-", "*"):
            raise ParseError("expected a factor, got "
                             + ("end of input" if tok is None else repr(tok)))
        if tok.startswith("d/d"):
            toks.next()
            name = tok[3:]
            if name not in chart.coords:
                raise ParseError(f"{tok}: {name!r} is not a coordinate "
                                 f"of {chart!r}")
            power = 1
            if toks.peek() == "^":
                toks.next()
                p = toks.next()
                if not p.isdigit():
                    raise ParseError(f"expected integer power, got {p!r}")
                power = int(p)
            index[chart.coord_index(name)] += power
            seen_derivative = True
        else:
            if seen_derivative:
                raise ParseError(
                    "coefficients must be written to the left of derivatives")
            # a scalar factor: parse one multiplicative factor
            factor = _parse_scalar_factor(toks, table)
            coeff = coeff * factor
        tok = toks.peek()
        if tok is None or tok in ("+", "-"):
            break
        if tok == "*":
            toks.next()
    return DiffOp(chart, {tuple(index): coeff})


def _parse_scalar_factor(toks: _Tokens, table: VarTable) -> RatFunc:
    atom = _table_atom(table)
    value = _parse_factor(toks, atom)
    while toks.peek() == "/":
        # only allow division by a following scalar factor
        toks.next()
        nxt = toks.peek()
        if nxt is not None and nxt.startswith("d/d"):
            raise ParseError("cannot divide by a derivative")
        value = value / _parse_factor(toks, atom)
    return value
