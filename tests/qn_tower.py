"""The nested Q(n)(k) tower, for the tests only.

Q -> Q[n] -> Q(n) -> Q(n)[k] -> Q(n)(k), built from ``Fraction`` upward on
a dense polynomial over a field of its own (``FieldPoly``, over Q or Q(n)):
a ``TowerFunction`` is a quotient over Q or over Q(n), reduced by Euclid's
algorithm over that field, with a monic denominator.  It is the only Q(n)(k)
arithmetic: telesum computes on reduced pairs in Z[n][k] and on factored
quotients, and its ``RationalFunction`` is the value of one such pair, with
no operators.  The tower shares no arithmetic with telesum, whose
polynomials are over Z[n] only, so it is an independent reference:
``to_tower`` lifts a value (``pair_to_tower`` a pair) into the tower, where
the tests add, multiply and shift, and ``tower_pair`` clears a tower element
back into the pair that value must hold.  ``znk`` builds a polynomial in k
over Z[n] from int rows, and ``record_value`` reads a ``--machine`` record
back into its value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from telesum.polynomials import Polynomial, RationalFunction, ZnPoly


class RationalField:
    """The field Q, its elements ``Fraction``s."""

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def exact_div(self, a: Fraction, b: Fraction) -> Fraction:
        return a / b

    def coerce(self, value) -> Fraction:
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def __repr__(self) -> str:
        return "Q"


QQ = RationalField()


class FieldPoly:
    """Dense univariate polynomial over a field; ``coeffs[i]`` multiplies
    ``var**i``."""

    __slots__ = ("var", "field", "coeffs")

    def __init__(self, var: str, field, coeffs: Sequence) -> None:
        n = len(coeffs)
        while n > 0 and not coeffs[n - 1]:
            n -= 1
        self.var, self.field, self.coeffs = var, field, tuple(coeffs[:n])

    @property
    def degree(self):
        """Degree, with the zero polynomial mapped to -infinity."""
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def lc(self):
        return self.coeffs[-1] if self.coeffs else self.field.zero()

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero()

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _spawn(self, coeffs: Sequence) -> FieldPoly:
        return FieldPoly(self.var, self.field, coeffs)

    def _coerce(self, other):
        if isinstance(other, FieldPoly) and other.var == self.var and other.field == self.field:
            return other
        try:
            return self._spawn((self.field.coerce(other),))
        except TypeError:
            return None

    def __eq__(self, other) -> bool:
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self.coeffs == p.coeffs

    def __hash__(self) -> int:
        return hash((self.var, self.coeffs))

    def __add__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        a, b = self.coeffs, p.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return self._spawn(out)

    __radd__ = __add__

    def __neg__(self):
        return self._spawn(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        p = self._coerce(other)
        return NotImplemented if p is None else self + (-p)

    def __rsub__(self, other):
        p = self._coerce(other)
        return NotImplemented if p is None else p + (-self)

    def __mul__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        a, b = self.coeffs, p.coeffs
        if not a or not b:
            return self._spawn(())
        out = [self.field.zero()] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return self._spawn(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> FieldPoly:
        result = self._spawn((self.field.one(),))
        for _ in range(exponent):
            result = result * self
        return result

    def __divmod__(self, other):
        """Long division over the field."""
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        if not p:
            raise ZeroDivisionError("polynomial division by zero")
        rem, db = list(self.coeffs), len(p.coeffs) - 1
        if len(rem) - 1 < db:
            return self._spawn(()), self
        quot = [self.field.zero()] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            q = quot[i - db] = self.field.exact_div(rem[i], p.lc())
            for j, cb in enumerate(p.coeffs):
                rem[i - db + j] = rem[i - db + j] - q * cb
        return self._spawn(quot), self._spawn(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> FieldPoly:
        q, r = divmod(self, other)
        if r:
            raise ValueError(f"inexact polynomial division: {self!r} by {other!r}")
        return q

    def monic(self) -> FieldPoly:
        return self.map_coeffs(lambda c: self.field.exact_div(c, self.lc())) if self else self

    def shift(self, j) -> FieldPoly:
        """Substitute ``var + j`` for ``var``, by Horner's rule."""
        base, result = self._spawn((self.field.coerce(j), self.field.one())), self._spawn(())
        for c in reversed(self.coeffs):
            result = result * base + c
        return result

    def evaluate(self, point):
        """Horner evaluation at a point of the field."""
        x, acc = self.field.coerce(point), self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def map_coeffs(self, fn) -> FieldPoly:
        return self._spawn(tuple(map(fn, self.coeffs)))

    def to_string(self) -> str:
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            if not (c := self.coeffs[i]):
                continue
            cs = str(c) if isinstance(c, Fraction) or str(c).lstrip("-").isdigit() else f"({c})"
            v = "" if i == 0 else self.var if i == 1 else f"{self.var}^{i}"
            piece = cs if not v else v if cs == "1" else f"-{v}" if cs == "-1" else f"{cs}*{v}"
            parts.append(piece if not parts or piece.startswith("-") else "+" + piece)
        return "".join(parts) or "0"

    def __repr__(self) -> str:
        return f"Poly({self.to_string()})"


class PolyRing:
    """Constructors of ``FieldPoly``s in one variable over one field."""

    def __init__(self, var: str, field) -> None:
        self.var, self.field = var, field

    def zero(self) -> FieldPoly:
        return FieldPoly(self.var, self.field, ())

    def one(self) -> FieldPoly:
        return FieldPoly(self.var, self.field, (self.field.one(),))

    def from_int(self, value: int) -> FieldPoly:
        return self.constant(value)

    def constant(self, value) -> FieldPoly:
        return FieldPoly(self.var, self.field, (self.field.coerce(value),))

    def gen(self) -> FieldPoly:
        return FieldPoly(self.var, self.field, (self.field.zero(), self.field.one()))

    def poly(self, coeffs: Iterable) -> FieldPoly:
        return FieldPoly(self.var, self.field, tuple(map(self.field.coerce, coeffs)))

    def __repr__(self) -> str:
        return f"{self.field!r}[{self.var}]"


POLY_N = PolyRing("n", QQ)


def n_poly(*coeffs) -> FieldPoly:
    """A polynomial in n over Q from ascending coefficients: ints, Fractions."""
    return POLY_N.poly(coeffs)


def euclid_gcd(p: FieldPoly, q: FieldPoly) -> FieldPoly:
    """Monic gcd over the coefficient field, by Euclid's algorithm."""
    a, b = p.monic(), q.monic()
    while b:
        a, b = b, (a % b).monic()
    return a


class FractionField:
    """The fraction field of Q[n] or of Q(n)[k]."""

    def __init__(self, poly_ring: PolyRing) -> None:
        self.poly_ring = poly_ring

    def zero(self) -> TowerFunction:
        return TowerFunction(self.poly_ring.zero())

    def one(self) -> TowerFunction:
        return TowerFunction(self.poly_ring.one())

    def from_int(self, value: int) -> TowerFunction:
        return TowerFunction(self.poly_ring.from_int(value))

    def exact_div(self, a: TowerFunction, b: TowerFunction) -> TowerFunction:
        return a / b

    def coerce(self, value) -> TowerFunction:
        if isinstance(value, TowerFunction) and value.field is self:
            return value
        if isinstance(value, FieldPoly) and value.var == self.poly_ring.var:
            return TowerFunction(value)
        if isinstance(value, ZnPoly) and self is QN:
            return TowerFunction(n_poly(*value))
        return TowerFunction(self.poly_ring.constant(value))

    def __repr__(self) -> str:
        return f"Frac({self.poly_ring!r})"


class TowerFunction:
    """num/den, polynomials in n over Q or in k over Q(n), reduced by
    ``euclid_gcd``, den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: FieldPoly, den: FieldPoly | None = None) -> None:
        one = num._spawn((num.field.one(),))
        if den is None:
            den = one
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            den = one
        elif num.degree > 0 and den.degree > 0:  # else the gcd is 1
            g = euclid_gcd(num, den)
            num, den = num.exact_div(g), den.exact_div(g)
        lead = den.lc()
        self.num = num.map_coeffs(lambda c: num.field.exact_div(c, lead))
        self.den = den.monic()

    @property
    def field(self) -> FractionField:
        return QN if self.num.var == "n" else QNK

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_one(self) -> bool:
        return self.num == self.den

    def _coerce(self, other):
        try:
            return self.field.coerce(other)
        except TypeError:
            return None

    def __eq__(self, other) -> bool:
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self.num == p.num and self.den == p.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return TowerFunction(self.num * p.den + p.num * self.den, self.den * p.den)

    __radd__ = __add__

    def __neg__(self):
        return TowerFunction(-self.num, self.den)

    def __sub__(self, other):
        p = self._coerce(other)
        return NotImplemented if p is None else self + (-p)

    def __rsub__(self, other):
        p = self._coerce(other)
        return NotImplemented if p is None else p + (-self)

    def __mul__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return TowerFunction(self.num * p.num, self.den * p.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        if not p:
            raise ZeroDivisionError("division by zero rational function")
        return TowerFunction(self.num * p.den, self.den * p.num)

    def __rtruediv__(self, other):
        p = self._coerce(other)
        return NotImplemented if p is None else p / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            return (self.field.one() / self) ** (-exponent)
        return TowerFunction(self.num**exponent, self.den**exponent)

    def shift(self, j) -> TowerFunction:
        """The value at var + j, var being n for Q(n) and k for Q(n)(k)."""
        return TowerFunction(self.num.shift(j), self.den.shift(j))

    def shift_n(self, j: int) -> TowerFunction:
        """The value at n + j."""
        if self.num.var == "n":
            return self.shift(j)
        return TowerFunction(*(p.map_coeffs(lambda c: c.shift_n(j)) for p in (self.num, self.den)))

    def evaluate(self, point):
        """At a point of the coefficient ring; raises on a pole."""
        d = self.den.evaluate(point)
        if not d:
            raise ZeroDivisionError(f"pole of {self!r} at {point!r}")
        return self.num.evaluate(point) / d

    def __str__(self) -> str:
        if self.den.degree == 0:
            return self.num.to_string()
        return f"({self.num.to_string()})/({self.den.to_string()})"

    def __repr__(self) -> str:
        return f"Tower({self})"


QN = FractionField(POLY_N)
POLY_K = PolyRing("k", QN)
QNK = FractionField(POLY_K)


def k_poly(*coeffs) -> FieldPoly:
    """Polynomial in k over Q(n); coefficients may be ints, Fractions,
    ``ZnPoly``s, polynomials in n, or Q(n) elements."""
    return FieldPoly("k", QN, [QN.coerce(c) for c in coeffs])


def qnk(num: FieldPoly, den: FieldPoly | None = None) -> TowerFunction:
    return TowerFunction(num, den)


def znk(*rows) -> Polynomial:
    """A polynomial in k over Z[n] from ascending rows of ints."""
    return Polynomial([ZnPoly(r) for r in rows])


def record_value(record: dict) -> RationalFunction:
    """The Q(n)(k) value of a ``--machine`` record's rows of decimal strings."""
    return RationalFunction(*(znk(*(map(int, row) for row in record[side]))
                              for side in ("num", "den")))


def lift(p: Polynomial) -> FieldPoly:
    """A polynomial in k over Z[n] as one over Q(n)."""
    return k_poly(*p.coeffs)


def pair_to_tower(num: Polynomial, den: Polynomial) -> TowerFunction:
    """num/den, polynomials in k over Z[n], reduced in the tower."""
    return TowerFunction(lift(num), lift(den))


def to_tower(value: RationalFunction) -> TowerFunction:
    return pair_to_tower(value.num, value.den)


def clear_qn(values) -> list[ZnPoly]:
    """Q(n) elements times the lcm of their monic denominators and a
    positive integer, as ``ZnPoly``s with joint content 1."""
    common = POLY_N.one()
    for v in values:
        common = common * v.den.exact_div(euclid_gcd(common, v.den))
    polys = [v.num * common.exact_div(v.den) for v in values]
    scale = math.lcm(*(c.denominator for p in polys for c in p.coeffs))
    rows = [[int(c * scale) for c in p.coeffs] for p in polys]
    g = math.gcd(*(c for r in rows for c in r)) or 1
    return [ZnPoly(c // g for c in r) for r in rows]


def tower_pair(value: TowerFunction) -> tuple[Polynomial, Polynomial]:
    """A Q(n)(k) element's num and den over one ``clear_qn`` multiplier:
    the reduced pair in Z[n][k], the denominator's top integer positive."""
    rows = clear_qn(value.num.coeffs + value.den.coeffs)
    size = len(value.num.coeffs)
    return Polynomial(rows[:size]), Polynomial(rows[size:])


def eval_qn(value: TowerFunction, n: int) -> Fraction:
    """A Q(n) element at an integer; raises ZeroDivisionError on a pole."""
    return value.evaluate(Fraction(n))


def eval_qnk(value: TowerFunction, n: int, k: int) -> Fraction:
    """A Q(n)(k) element at integers, on its cleared pair; raises
    ZeroDivisionError where that pair's denominator vanishes."""
    num, den = (sum(c(n) * k**i for i, c in enumerate(p.coeffs)) for p in tower_pair(value))
    if not den:
        raise ZeroDivisionError(f"pole at (n, k) = ({n}, {k})")
    return Fraction(num, den)


def rref_nullspace(matrix: list[list], ncols: int) -> list[list]:
    """Reference: Gauss-Jordan over Q(n), one vector per free column."""
    rows = [[QN.coerce(e) for e in row] for row in matrix]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = rows[r][c]
        rows[r] = [e / inv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [QN.zero()] * ncols
        v[fc] = QN.one()
        for i, c in enumerate(pivots):
            v[c] = -rows[i][fc]
        basis.append(v)
    return basis
