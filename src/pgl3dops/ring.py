"""Exact sparse multivariate arithmetic: polynomials and fractions over Q.

A polynomial is a dictionary mapping exponent tuples to rational
coefficients; the zero polynomial is the empty dictionary and zero
coefficients are never stored.  Variables come from a ``VarTable`` which
splits names into *coordinates* (differentiable) and *parameters* (never
differentiated; they enter coefficients and symbolic exponents only).

Fractions of polynomials (``RatFunc``) are not reduced by multivariate
gcd.  They are normalised by rational content and by common monomial
factors, and a denominator that divides the numerator exactly is divided
out; no step budget decides the normal form.  Equality is decided by cross
multiplication, which is independent of normalisation.

All values are immutable after construction and all operations are pure,
so everything here is safe to share between threads.

Canonical text grammar (see README for the full grammar):

    poly    :=  term (('+'|'-') term)*
    term    :=  coeff ('*' monomial)? | monomial
    coeff   :=  integer | '(' integer '/' integer ')'
    monomial:=  var ('^' power)? ('*' var ('^' power)?)*
    ratfunc :=  poly | '(' poly ')' '/' '(' poly ')'
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Union

Number = Union[int, Fraction]
Exponent = tuple[int, ...]


class VarTableMismatch(ValueError):
    """Operands built over different variable tables."""


class ParameterDerivative(ValueError):
    """Attempt to differentiate with respect to a parameter."""


class ZeroDenominator(ZeroDivisionError):
    """Division by the zero fraction, or a denominator vanished."""


def _num(value) -> Number:
    """Normalise a rational scalar: Fraction with denominator 1 becomes int.

    Exact types are tested first: ``isinstance(3, Fraction)`` goes through
    ``ABCMeta.__instancecheck__``, which was a visible share of every profile."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def _frac(value) -> Fraction:
    return value if type(value) is Fraction else Fraction(value)


def _over(v: int, d: int) -> Number:
    """The stored form of v / d, for an int v and a positive int d."""
    g = gcd(v, d)
    if g == d:
        return v // d
    return Fraction(v // g, d // g)


def _cleared(terms: dict):
    """(d, items): d is the lcm of the coefficient denominators and items
    are the (key, d * c) pairs, all ints, in the order of ``terms``."""
    d = 1
    for c in terms.values():
        if type(c) is not int:
            q = c.denominator
            d = d * q // gcd(d, q)
    if d == 1:
        return 1, terms.items()
    return d, [(k, c * d if type(c) is int
                else c.numerator * (d // c.denominator))
               for k, c in terms.items()]


def _floor(keys: Iterable[int], guard: int) -> int:
    """Packed componentwise minimum of packed keys (0 for no keys).

    ``(key | guard) - floor`` keeps the guard bit of a field exactly when
    that field of ``key`` is not below the one of ``floor``; no field
    borrows from its neighbour, since every field is below the guard bit.
    The fields that lost their guard bit are where ``key`` is smaller."""
    top = VarTable.BITS - 1
    floor = None
    for key in keys:
        if floor is None:
            floor = key
        else:
            borrow = ~((key | guard) - floor) & guard
            if borrow:
                mask = (borrow << 1) - (borrow >> top)
                floor = (floor & ~mask) | (key & mask)
        if not floor:
            return 0
    return floor or 0


class VarTable:
    """Ordered variable names, split into coordinates and parameters.

    Coordinates may be differentiated and substituted by chart maps;
    parameters are ordinary variables for arithmetic but are rejected by
    ``differentiate``.

    Exponent vectors are packed into integers, 16 bits per variable with the
    first variable in the highest field, so that integer comparison agrees
    with descending lexicographic order and multiplying monomials is a
    single integer addition.  Individual exponents must stay below 2^15:
    ``encode`` rejects a larger one and a product that reaches one raises
    ``OverflowError``, so no exponent carries into its neighbour.
    """

    BITS = 16

    __slots__ = ("coords", "params", "names", "index", "shifts",
                 "guard", "field_mask", "param_mask", "param_bits")

    def __init__(self, coords: Iterable[str], params: Iterable[str] = ()):
        self.coords = tuple(coords)
        self.params = tuple(params)
        self.names = self.coords + self.params
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        self.index = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.shifts = tuple((n - 1 - i) * self.BITS for i in range(n))
        self.field_mask = (1 << self.BITS) - 1
        self.guard = 0
        for s in self.shifts:
            self.guard |= 1 << (s + self.BITS - 1)
        self.param_bits = len(self.params) * self.BITS
        self.param_mask = (1 << self.param_bits) - 1

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"VarTable(coords={self.coords!r}, params={self.params!r})"

    def is_param(self, name: str) -> bool:
        return name in self.params

    def encode(self, exp) -> int:
        key = 0
        for e, s in zip(exp, self.shifts):
            if e < 0:
                raise ValueError("negative exponent")
            if e >> (self.BITS - 1):
                raise ValueError(f"exponent {e} is not below 2^{self.BITS - 1}")
            key |= e << s
        return key

    def decode(self, key: int) -> Exponent:
        m = self.field_mask
        return tuple((key >> s) & m for s in self.shifts)

    def const(self, value) -> "Poly":
        value = value if type(value) is int else _num(_frac(value))
        if value == 0:
            return Poly(self, {})
        return Poly(self, {0: value})

    def var(self, name: str) -> "Poly":
        return Poly(self, {1 << self.shifts[self.index[name]]: 1})

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)


def _check_table(a: "Poly", b: "Poly") -> None:
    if a.table is not b.table and a.table.names != b.table.names:
        raise VarTableMismatch(f"{a.table!r} vs {b.table!r}")


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    ``terms`` maps packed exponent keys (see ``VarTable``) to nonzero
    coefficients; tuple-keyed dictionaries are accepted and converted.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping):
        self.table = table
        if terms:
            first = next(iter(terms))
            if isinstance(first, tuple):
                packed = {}
                for exp, c in terms.items():
                    if c == 0:
                        continue
                    key = table.encode(exp)
                    packed[key] = _num(packed.get(key, 0) + c)
                self.terms = {k: v for k, v in packed.items() if v != 0}
            else:
                self.terms = dict(terms)
        else:
            self.terms = {}

    @staticmethod
    def _raw(table: VarTable, terms: dict) -> "Poly":
        p = Poly.__new__(Poly)
        p.table = table
        p.terms = terms
        return p

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(k == 0 for k in self.terms)

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial (0 for the zero polynomial)."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return _frac(self.terms.get(0, 0))

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def params_only(self) -> bool:
        """No coordinate occurs: every key lies in the low parameter fields."""
        pbits = self.table.param_bits
        return not any(key >> pbits for key in self.terms)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "Poly | Number") -> "Poly":
        if not isinstance(other, Poly):
            other = self.table.const(other)
        _check_table(self, other)
        terms = dict(self.terms)
        get = terms.get
        for key, c in other.terms.items():
            s = get(key, 0) + c
            if s == 0:
                terms.pop(key, None)
            else:
                terms[key] = s if type(s) is int else _num(s)
        return Poly._raw(self.table, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw(self.table, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Poly | Number") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        """Product; each operand is cleared of denominators once, the terms
        are multiplied as ints and each output coefficient is divided once
        by the product of the two denominators."""
        _check_table(self, other)
        if not self.terms or not other.terms:
            return Poly._raw(self.table, {})
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        da, a = _cleared(a)
        db, b = _cleared(b)
        out: dict = {}
        get = out.get
        for ea, ca in a:
            for eb, cb in b:
                key = ea + eb
                s = get(key, 0) + ca * cb
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        # every field of a factor is below 2^15, so a field of a product key
        # reaches at most its guard bit and never carries past it
        guard = self.table.guard
        for k in out:
            if k & guard:
                raise OverflowError("a product exponent is not below 2^15")
        d = da * db
        if d != 1:
            out = {k: _over(v, d) for k, v in out.items()}
        return Poly._raw(self.table, out)

    def scale(self, k) -> "Poly":
        if type(k) is not int:
            k = _num(_frac(k))
        if k == 0:
            return Poly._raw(self.table, {})
        if type(k) is int:
            return Poly._raw(self.table, {
                key: c * k if type(c) is int else _num(c * k)
                for key, c in self.terms.items()})
        n, d = k.numerator, k.denominator
        return Poly._raw(self.table, {
            key: _over(c * n, d) if type(c) is int else _num(c * k)
            for key, c in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.table.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # equal ints and Fractions hash alike
        return hash(frozenset(self.terms.items()))

    # -- calculus -------------------------------------------------------------

    def differentiate(self, name: str) -> "Poly":
        if self.table.is_param(name):
            raise ParameterDerivative(f"{name} is a parameter")
        shift = self.table.shifts[self.table.index[name]]
        mask = self.table.field_mask
        step = 1 << shift
        # lowering one positive field by one keeps distinct keys distinct,
        # so each term is written once
        out: dict = {}
        for key, c in self.terms.items():
            k = (key >> shift) & mask
            if k:
                out[key - step] = c * k if type(c) is int else _num(c * k)
        return Poly._raw(self.table, out)

    # -- evaluation and substitution -------------------------------------------

    def evaluate(self, assignment: Mapping[str, Number]) -> Fraction:
        """Exact value of the polynomial at a point that gives a value to
        every variable occurring in it."""
        occurring = 0
        for key in self.terms:
            occurring |= key
        values = []
        for name, e in zip(self.table.names, self.table.decode(occurring)):
            if e and name not in assignment:
                raise ValueError(f"no value given for the variable {name}")
            values.append(_frac(assignment.get(name, 0)))
        total = Fraction(0)
        for key, c in self.terms.items():
            v = _frac(c)
            for i, e in enumerate(self.table.decode(key)):
                if e:
                    v *= values[i] ** e
            total += v
        return total

    def substitute(self, mapping: Mapping[str, "RatFunc"]) -> "RatFunc":
        """Substitute fractions for variables; unmapped names map to themselves.

        The values of ``mapping`` must all live over a common table, which
        becomes the table of the result.  When every value is a polynomial
        the sum is formed in ``Poly`` and wrapped once: a fraction with
        denominator one is already in normal form, so both routes agree.
        """
        if mapping:
            target = next(iter(mapping.values())).table
        else:
            target = self.table
        if all(val.is_poly() for val in mapping.values()):
            return RatFunc.from_poly(self._substituted(
                target, {name: val.num for name, val in mapping.items()},
                lambda p: p))
        return self._substituted(target, mapping, RatFunc.from_poly)

    def _substituted(self, target: VarTable, mapping: Mapping, lift):
        """The sum of the terms with each variable replaced by its image in
        ``mapping``, or by itself over ``target``; ``lift`` turns a Poly
        over ``target`` into the type of the images (Poly or RatFunc)."""
        base = {self.table.index[name]: val for name, val in mapping.items()}
        powers: dict = {}

        def power(i: int, e: int):
            key = (i, e)
            hit = powers.get(key)
            if hit is None:
                if i in base:
                    hit = base[i] ** e
                else:
                    hit = lift(target.var(self.table.names[i]) ** e)
                powers[key] = hit
            return hit

        total = lift(target.zero())
        for key, c in self.terms.items():
            term = lift(target.const(c))
            for i, e in enumerate(self.table.decode(key)):
                if e:
                    term = term * power(i, e)
            total = total + term
        return total

    # -- content / division -----------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational content: gcd of numerators over lcm of denominators."""
        if not self.terms:
            return Fraction(1)
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            if type(c) is int:
                num_gcd = gcd(num_gcd, c)
            else:
                num_gcd = gcd(num_gcd, c.numerator)
                q = c.denominator
                den_lcm = den_lcm * q // gcd(den_lcm, q)
        return Fraction(num_gcd, den_lcm)

    def primitive(self) -> tuple["Poly", Fraction]:
        """(self / c, c) with self / c integer-primitive and its leading
        coefficient positive; self must be nonzero."""
        c = self.content()
        if self.leading()[1] < 0:
            c = -c
        return (self if c == 1 else self.scale(1 / c)), c

    def leading(self) -> tuple[int, Number]:
        """Leading term in descending lexicographic order on exponents."""
        key = max(self.terms)
        return key, self.terms[key]

    def monomial_floor(self) -> int:
        """Packed componentwise minimum exponent over all terms."""
        return _floor(self.terms, self.table.guard)

    def shift_down(self, floor: int) -> "Poly":
        """Divide by the monomial with packed exponent ``floor``."""
        if not floor:
            return self
        return Poly._raw(self.table,
                         {key - floor: c for key, c in self.terms.items()})

    def divide_exact(self, divisor: "Poly") -> "Poly | None":
        """Exact quotient self/divisor, or None if it does not divide.

        The lex-trailing term of an exact product is the product of the
        trailing terms, so a divisor whose trailing key exceeds the one of
        ``self`` in some field is rejected at once.  Otherwise long division
        in descending lex order, run to completion.
        """
        _check_table(self, divisor)
        if divisor.is_zero():
            raise ZeroDenominator("division by the zero polynomial")
        if self.is_zero():
            return self
        if divisor.is_constant():
            return self.scale(Fraction(1, 1) / divisor.constant_value())
        guard = self.table.guard
        if ((min(self.terms) | guard) - min(divisor.terms)) & guard != guard:
            return None
        lkey, lc = divisor.leading()
        dterms = divisor.terms.items()
        rem = dict(self.terms)
        get = rem.get
        out: dict = {}
        while rem:
            key = max(rem)
            if ((key | guard) - lkey) & guard != guard:
                return None          # some exponent of the divisor is larger
            qkey = key - lkey
            c = rem[key]
            if type(c) is int and type(lc) is int and c % lc == 0:
                qc = c // lc
            else:
                qc = _num(_frac(c) / lc)
            out[qkey] = qc
            for dkey, dc in dterms:
                k = qkey + dkey
                s = get(k, 0) - qc * dc
                if s == 0:
                    rem.pop(k, None)
                else:
                    rem[k] = s if type(s) is int else _num(s)
        return Poly._raw(self.table, out)

    # -- printing ----------------------------------------------------------------

    def terms_as_tuples(self) -> dict[Exponent, Number]:
        return {self.table.decode(k): c for k, c in self.terms.items()}

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        names = self.table.names
        pieces: list[str] = []
        for key in sorted(self.terms, reverse=True):
            c = _frac(self.terms[key])
            exp = self.table.decode(key)
            mono = "*".join(
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(exp) if e
            )
            ac = abs(c)
            if ac.denominator == 1:
                ctext = str(ac.numerator)
            else:
                ctext = f"({ac.numerator}/{ac.denominator})"
            if mono:
                body = mono if ac == 1 else f"{ctext}*{mono}"
            else:
                body = ctext
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self.to_text()})"


class RatFunc:
    """Fraction of two polynomials; equality by cross multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, normalise: bool = True):
        if den.is_zero():
            raise ZeroDenominator("zero denominator")
        _check_table(num, den)
        if normalise:
            num, den = _normalise(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def from_poly(p: Poly) -> "RatFunc":
        return RatFunc(p, p.table.one(), normalise=False)

    @staticmethod
    def const(table: VarTable, value) -> "RatFunc":
        return RatFunc.from_poly(table.const(value))

    @staticmethod
    def var(table: VarTable, name: str) -> "RatFunc":
        return RatFunc.from_poly(table.var(name))

    @property
    def table(self) -> VarTable:
        return self.num.table

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.is_one()

    def as_poly(self) -> Poly:
        """The underlying polynomial; requires a trivial denominator."""
        if self.den.is_one():
            return self.num
        q = self.num.divide_exact(self.den)
        if q is None:
            raise ValueError(f"not a polynomial: {self.to_text()}")
        return q

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    # -- field operations -------------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        _check_table(self.num, other.num)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, normalise=False)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        _check_table(self.num, other.num)
        if self.is_zero() or other.is_zero():
            return RatFunc.from_poly(self.table.zero())
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDenominator("division by the zero fraction")
        return self * RatFunc(other.den, other.num, normalise=False)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            if self.is_zero():
                raise ZeroDenominator("negative power of zero")
            return RatFunc(self.den ** (-n), self.num ** (-n))
        return RatFunc(self.num ** n, self.den ** n)

    def scale(self, k) -> "RatFunc":
        return RatFunc(self.num.scale(k), self.den, normalise=False)

    # equality is by cross multiplication, so no hash can agree with it and
    # RatFunc stays unhashable
    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    # -- calculus -----------------------------------------------------------------

    def differentiate(self, name: str) -> "RatFunc":
        if self.table.is_param(name):
            raise ParameterDerivative(f"{name} is a parameter")
        dnum = self.num.differentiate(name)
        if self.den.is_one():
            return RatFunc.from_poly(dnum)
        dden = self.den.differentiate(name)
        if dden.is_zero():
            return RatFunc(dnum, self.den)
        return RatFunc(dnum * self.den - self.num * dden, self.den * self.den)

    def evaluate(self, assignment: Mapping[str, Number]) -> Fraction:
        d = self.den.evaluate(assignment)
        if d == 0:
            raise ZeroDenominator("denominator vanishes at the point")
        return self.num.evaluate(assignment) / d

    def substitute(self, mapping: Mapping[str, "RatFunc"]) -> "RatFunc":
        den = self.den.substitute(mapping)
        if den.is_zero():
            raise ZeroDenominator("substituted denominator is identically zero")
        return self.num.substitute(mapping) / den

    def params_only(self) -> bool:
        return self.num.params_only() and self.den.params_only()

    # -- printing -------------------------------------------------------------------

    def to_text(self) -> str:
        if self.den.is_one():
            return self.num.to_text()
        return f"({self.num.to_text()})/({self.den.to_text()})"

    def __repr__(self) -> str:
        return f"RatFunc({self.to_text()})"


def _normalise(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Divide out the rational content and the common monomial, then the
    denominator itself if it divides the numerator exactly."""
    if num.is_zero():
        return num, den.table.one()
    common = 0
    if 0 not in num.terms and 0 not in den.terms:
        common = _floor((num.monomial_floor(), den.monomial_floor()),
                        num.table.guard)
    if common:
        num = num.shift_down(common)
        den = den.shift_down(common)
    if den.is_constant():
        c = den.constant_value()
        if c != 1:
            num = num.scale(Fraction(1, 1) / c)
            den = den.table.one()
        return num, den
    den, c = den.primitive()
    if c != 1:
        num = num.scale(Fraction(1, 1) / c)
    q = num.divide_exact(den)
    if q is not None:
        return q, den.table.one()
    return num, den


# -- canonical text parsing -------------------------------------------------------

class ParseError(ValueError):
    pass


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[str] = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*/^()":
                self.toks.append(ch)
                i += 1
            elif "0" <= ch <= "9":
                # ASCII only: str.isdigit also accepts "²", which int() rejects
                j = i
                while j < len(text) and "0" <= text[j] <= "9":
                    j += 1
                self.toks.append(text[i:j])
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                # derivative atom: d/dNAME
                if word == "d" and text[j:j + 2] == "/d":
                    k = j + 2
                    m = k
                    while m < len(text) and (text[m].isalnum() or text[m] == "_"):
                        m += 1
                    if m == k:
                        raise ParseError("expected variable after d/d")
                    self.toks.append("d/d" + text[k:m])
                    i = m
                else:
                    self.toks.append(word)
                    i = j
            else:
                raise ParseError(f"unexpected character {ch!r}")
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")


def parse_ratfunc(text: str, table: VarTable) -> RatFunc:
    """Parse the canonical fraction grammar over the given table."""
    return _parse(text, _table_atom(table))


def evaluate_text(text: str, values: Mapping[str, Number]) -> Fraction:
    """Exact value of a text in the fraction grammar at a point, computed
    factor by factor without expanding products; every name must be given."""
    def atom(tok: str) -> Fraction:
        if tok.isdigit():
            return Fraction(int(tok))
        if tok in values:
            return _frac(values[tok])
        raise ParseError(f"unknown name {tok!r}")
    return _parse(text, atom)


def _table_atom(table: VarTable):
    """Resolve an integer or a variable name to a fraction over ``table``."""
    def atom(tok: str) -> RatFunc:
        if tok.isdigit():
            return RatFunc.const(table, int(tok))
        if tok in table.index:
            return RatFunc.var(table, tok)
        raise ParseError(f"unknown name {tok!r}")
    return atom


def _parse(text: str, atom):
    """Recursive descent over the grammar that only adds, multiplies,
    divides and raises to integer powers; ``atom`` turns each integer or
    name token into a value."""
    toks = _Tokens(text)
    value = _parse_sum(toks, atom)
    if toks.peek() is not None:
        raise ParseError(f"trailing input at {toks.peek()!r}")
    return value


def _parse_sum(toks: _Tokens, atom):
    value = _parse_product(toks, atom)
    while toks.peek() in ("+", "-"):
        op = toks.next()
        rhs = _parse_product(toks, atom)
        value = value + rhs if op == "+" else value - rhs
    return value


def _parse_product(toks: _Tokens, atom):
    value = _parse_factor(toks, atom)
    while toks.peek() in ("*", "/"):
        op = toks.next()
        rhs = _parse_factor(toks, atom)
        value = value * rhs if op == "*" else value / rhs
    return value


def _parse_factor(toks: _Tokens, atom):
    tok = toks.peek()
    if tok == "-":
        toks.next()
        return -_parse_factor(toks, atom)
    if tok == "+":
        toks.next()
        return _parse_factor(toks, atom)
    value = _parse_atom(toks, atom)
    while toks.peek() == "^":
        toks.next()
        sign = 1
        if toks.peek() == "-":
            toks.next()
            sign = -1
        exp_tok = toks.next()
        if not exp_tok.isdigit():
            raise ParseError(f"expected integer exponent, got {exp_tok!r}")
        value = value ** (sign * int(exp_tok))
    return value


def _parse_atom(toks: _Tokens, atom):
    tok = toks.next()
    if tok == "(":
        value = _parse_sum(toks, atom)
        toks.expect(")")
        return value
    return atom(tok)
