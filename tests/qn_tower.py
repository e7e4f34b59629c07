"""The nested Q(n)(k) tower, for the tests only.

Q -> Q[n] -> Q(n) -> Q(n)[k] -> Q(n)(k), built from ``Fraction`` upward on
telesum's generic ``Polynomial``: a ``TowerFunction`` is a quotient over Q
or over Q(n), reduced by Euclid's algorithm over that field, with a monic
denominator.  It shares no gcd, clear or reduction with telesum, so it is an
independent reference for ``RationalFunction``, one reduced pair in
Z[n][k]: ``to_tower`` lifts a value into the tower, and ``tower_pair``
clears a tower element back into the pair that value must hold.  ``znk``
builds a polynomial in k over Z[n] from int rows.
"""

from __future__ import annotations

import math
from fractions import Fraction

from telesum.polynomials import (
    POLY_N,
    ZN,
    Polynomial,
    PolynomialRing,
    RationalFunction,
    ZnPoly,
)


def euclid_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd over the coefficient field, by Euclid's algorithm."""
    a, b = p.monic(), q.monic()
    while b:
        a, b = b, (a % b).monic()
    return a


class FractionField:
    """The fraction field of Q[n] or of Q(n)[k]."""

    def __init__(self, poly_ring: PolynomialRing) -> None:
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
        if isinstance(value, Polynomial) and value.var == self.poly_ring.var:
            return TowerFunction(value)
        return TowerFunction(self.poly_ring.constant(value))

    def __repr__(self) -> str:
        return f"Frac({self.poly_ring!r})"


class TowerFunction:
    """num/den, polynomials in n over Q or in k over Q(n), reduced by
    ``euclid_gcd``, den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None) -> None:
        if den is None:
            den = Polynomial(num.var, num.ring, (num.ring.one(),))
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            den = Polynomial(num.var, num.ring, (num.ring.one(),))
        elif num.degree > 0 and den.degree > 0:  # else the gcd is 1
            g = euclid_gcd(num, den)
            num, den = num.exact_div(g), den.exact_div(g)
        lead = den.lc()
        self.num = num.map_coeffs(lambda c: num.ring.exact_div(c, lead))
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
POLY_K = PolynomialRing("k", QN)
QNK = FractionField(POLY_K)


def k_poly(*coeffs) -> Polynomial:
    """Polynomial in k over Q(n); coefficients may be ints, Fractions,
    polynomials in n, or Q(n) elements."""
    return Polynomial("k", QN, [QN.coerce(c) for c in coeffs])


def qnk(num: Polynomial, den: Polynomial | None = None) -> TowerFunction:
    return TowerFunction(num, den)


def znk(*rows) -> Polynomial:
    """A polynomial in k over Z[n] from ascending rows of ints."""
    return Polynomial("k", ZN, [ZnPoly(r) for r in rows])


def lift(p: Polynomial) -> Polynomial:
    """A polynomial in k over Z[n] as one over Q(n)."""
    return Polynomial("k", QN, [QN.coerce(c.to_poly()) for c in p.coeffs])


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
    return Polynomial("k", ZN, rows[:size]), Polynomial("k", ZN, rows[size:])


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
