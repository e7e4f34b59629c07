"""Truncated formal power series over Q, plus the generating functions
used to cross-check convolution identities.

A series is the value of its coefficients through a fixed truncation
order, kept as integer numerators over one common denominator; only
`coeffs` and `coeff` build Fractions.  It has two operations, both exact:
the product, truncated to the shorter order, which the convolution check
reads, and one power kernel, which takes O(order) steps on 1-4x; `inverse`
and `sqrt` are its powers -1 and 1/2.  Sums, scalar multiples and shifts
are linear steps on the integer rows (`as_integer_ratio`).

Every bundled series takes one call of that kernel, the central series
B_0 = (1-4x)^(-1/2), and then linear steps on its integer coefficients:
B_1 = (B_0 - 1)/(2x) and x*B_(j+2) = B_(j+1) - B_j, which is the Catalan
equation x*C^2 = C - 1 times C^j*B_0 (Flajolet & Sedgewick, Analytic
Combinatorics, I.5).  Ballot(k) is B_k, shifted central 2*B_1 and Catalan
2*B_0 - B_1; none of them takes a series product.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul, sub
from typing import Iterable

from .hyperterm import binomial_value


class PowerSeries:
    """Coefficients c_0..c_order of a series truncated at x^order."""

    __slots__ = ("_num", "_den")

    def __new__(cls, coeffs: Iterable[Fraction | int]) -> "PowerSeries":
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least its constant term")
        if not all(isinstance(c, (int, Fraction)) for c in coeffs):
            raise TypeError("series coefficients must be int or Fraction")
        den = lcm(*(c.denominator for c in coeffs))
        return _make([c.numerator * (den // c.denominator) for c in coeffs], den)

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    def __reduce__(self):
        return PowerSeries, (self.coeffs,)

    @property
    def order(self) -> int:
        return len(self._num) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._num)

    def coeff(self, i: int) -> Fraction:
        if i < 0:
            raise IndexError("negative index")
        if i > self.order:
            raise IndexError(f"coefficient {i} beyond truncation order {self.order}")
        return Fraction(self._num[i], self._den)

    def as_integer_ratio(self) -> tuple[tuple[int, ...], int]:
        """The numerators of c_0..c_order over their least common denominator,
        and that denominator."""
        return self._num, self._den

    def __eq__(self, other) -> bool:
        return (isinstance(other, PowerSeries)
                and self._den == other._den and self._num == other._num)

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:5])
        tail = ", ..." if self.order >= 5 else ""
        return f"PowerSeries([{head}{tail}]; order={self.order})"

    def __mul__(self, other):
        """The product, truncated to the shorter of the two orders."""
        if not isinstance(other, PowerSeries):
            return NotImplemented
        m = min(self.order, other.order)
        a, rb = self._num, other._num[m::-1]
        conv = [sum(map(mul, a[: i + 1], rb[m - i:])) for i in range(m + 1)]
        return _make(conv, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, alpha: int | Fraction) -> "PowerSeries":
        """f**alpha for an int or Fraction alpha by J.C.P. Miller's recurrence
        (Knuth, TAOCP vol. 2, 4.7): O(order * deg f) steps, O(order) on 1-4x.

        On the numerators F over the common denominator, with alpha = p/q and
        s = q^2*F_0, h_m = s^m*g_m/g_0 is an integer for g = f**alpha, and
        m*h_m = sum_(1<=i<=min(m, deg f)) ((p+q)*i - q*m)*q*F_i*s^(i-1)*h_(m-i)
        divides exactly.  A fractional power needs constant term 1, and a
        power other than 0 or 1 a nonzero one.
        """
        if not isinstance(alpha, (int, Fraction)):
            raise TypeError(f"series powers take int or Fraction exponents, not {alpha!r}")
        f, n, p, q = self._num, self.order, alpha.numerator, alpha.denominator
        if alpha in (0, 1):
            return self if alpha else one_series(n)
        if q != 1 and f[0] != self._den:
            raise ValueError("a fractional power requires constant term 1")
        if not f[0]:
            raise (ZeroDivisionError("series with zero constant term has no inverse") if p < 0
                   else ValueError("a power other than 0 or 1 needs a nonzero constant term"))
        s, pq = q * q * f[0], p + q
        t = n - list(map(bool, reversed(f))).index(True)  # the degree of f
        # h_m = sum_i ic_i*h_(m-i)/m + sum_i c_i*h_(m-i), i = 1..t
        c = [-q * q * fi * s ** (i - 1) for i, fi in enumerate(f[1:t + 1], 1)]
        ic = [pq * i * ci // -q for i, ci in enumerate(c, 1)] if pq else []
        h = [1]
        for m in range(1, n + 1):
            hs = h[:-t - 1:-1]  # h_(m-1), ..., h_(m-t), as far as they go
            y, r = divmod(sum(map(mul, ic, hs)), m) if pq else (0, 0)
            if r:
                raise ArithmeticError(f"inexact step {m} of the power recurrence")
            h.append(sum(map(mul, c, hs), y))
        g0 = Fraction(f[0], self._den) ** p  # 1 when q > 1
        num, w = [], g0.numerator
        for hm in reversed(h):
            num.append(hm * w)
            w *= s
        return _make(num[::-1], g0.denominator * s ** n)

    def inverse(self) -> "PowerSeries":
        return self ** -1

    def sqrt(self) -> "PowerSeries":
        """Square root of a series with constant term 1."""
        return self ** Fraction(1, 2)


def _make(num, den: int) -> PowerSeries:
    """num/den in the canonical form: numerators over den > 0, gcd(den, *num) 1."""
    g = gcd(den, *num) if den > 0 else -gcd(den, *num)
    s = object.__new__(PowerSeries)
    object.__setattr__(s, "_num", tuple(c // g for c in num) if g != 1 else tuple(num))
    object.__setattr__(s, "_den", den // g)
    return s


def _order(order: int) -> int:
    if order < 0:
        raise ValueError(f"the truncation order must be >= 0, got {order}")
    return order


def one_series(order: int) -> PowerSeries:
    return PowerSeries((1,) + (0,) * _order(order))


def central_binomial_gf(order: int) -> PowerSeries:
    """B_0 = 1/sqrt(1-4x): coefficients binom(2n, n).  The one power under
    every bundled series."""
    base = PowerSeries((1, -4)[: _order(order) + 1] + (0,) * (order - 1))
    return base ** Fraction(-1, 2)


def catalan_gf(order: int) -> PowerSeries:
    """(1 - sqrt(1-4x))/(2x) = 2*B_0 - B_1: the Catalan numbers
    binom(2n, n)/(n+1).  B_1 = (B_0 - 1)/(2x) halves B_0 one order up."""
    b0 = central_binomial_gf(_order(order) + 1)._num
    return _make([2 * a - (b >> 1) for a, b in zip(b0, b0[1:])], 1)


def ballot_gf(k: int, order: int) -> PowerSeries:
    """B_k = C^k/sqrt(1-4x), C the Catalan series: coefficients binom(2n+k, n).
    B_0 to order + k, then B_1 = (B_0 - 1)/(2x) and x*B_(j+2) = B_(j+1) - B_j,
    each row one order shorter: one power and about k*order subtractions."""
    if k < 0:
        raise ValueError("the family index must be >= 0")
    central = central_binomial_gf(_order(order) + k)
    if not k:
        return central
    prev, row = central._num, [c >> 1 for c in central._num[1:]]  # B_0, B_1
    for _ in range(k - 1):
        prev, row = row, list(map(sub, row[1:], prev[1:]))
    return _make(row, 1)


def shifted_central_gf(order: int) -> PowerSeries:
    """(1/sqrt(1-4x) - 1)/x = 2*B_1: coefficients binom(2n+2, n+1), read
    off the central series one order up."""
    return _make(central_binomial_gf(_order(order) + 1)._num[1:], 1)


def check_shifted_central_identity(order: int = 64) -> bool:
    """The closed form above really generates binom(2n+2, n+1)."""
    gf = shifted_central_gf(order)
    return all(
        gf.coeff(j) == binomial_value(2 * j + 2, j + 1) for j in range(order + 1)
    )


def check_convolution_11897(order: int = 64) -> bool:
    """Convolving Catalan numbers with binom(2j+2, j+1) doubles a
    central-family coefficient: coefficient n equals 2*binom(2n+2, n)."""
    prod = catalan_gf(order) * shifted_central_gf(order)
    return all(
        prod.coeff(n) == 2 * binomial_value(2 * n + 2, n) for n in range(order + 1)
    )


_KNOWN = {
    "catalan": catalan_gf,
    "central": central_binomial_gf,
    "shifted-central": shifted_central_gf,
}


def known_gf(name: str, order: int, family_index: int | None = None) -> PowerSeries:
    """Bundled generating functions by name; 'ballot' takes a family index."""
    if name == "ballot":
        return ballot_gf(0 if family_index is None else family_index, order)
    try:
        fn = _KNOWN[name]
    except KeyError:
        known = ", ".join(sorted(_KNOWN) + ["ballot"])
        raise KeyError(f"unknown series {name!r}; known: {known}") from None
    return fn(order)
