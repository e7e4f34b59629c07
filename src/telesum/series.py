"""Truncated formal power series over Q, plus the generating functions
used to cross-check convolution identities.

A series carries its coefficients through a fixed truncation order;
combining two series truncates to the shorter one.  All arithmetic is
exact and runs on integers, numerators over one common denominator; only
`coeffs` and `coeff` build Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
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

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError(f"cannot extend truncation {self.order} to {order}")
        return _make(self._num[: _order(order) + 1], self._den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PowerSeries)
                and self._den == other._den and self._num == other._num)

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:5])
        tail = ", ..." if self.order >= 5 else ""
        return f"PowerSeries([{head}{tail}]; order={self.order})"

    def __add__(self, other):
        a, d = self._num, self._den
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return _make([a[0] * q + p * d] + [c * q for c in a[1:]], d * q)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        e = other._den
        return _make([x * e + y * d for x, y in zip(a, other._num)], d * e)

    __radd__ = __add__

    def __neg__(self):
        return _make([-c for c in self._num], self._den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make([c * other.numerator for c in self._num], self._den * other.denominator)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        m = min(self.order, other.order)
        a, rb = self._num, other._num[m::-1]
        conv = [sum(map(mul, a[: i + 1], rb[m - i:])) for i in range(m + 1)]
        return _make(conv, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = one_series(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("series divided by zero")
            return _make([c * other.denominator for c in self._num], self._den * other.numerator)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self * other.inverse()

    def inverse(self) -> "PowerSeries":
        f, f0, n = self._num, self._num[0], self.order
        if not f0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        # h_m = g_m*f0^(m+1) for g = 1/f is an integer: h_0 = 1 and
        # h_m = -sum_{i=1..m} f_i*f0^(i-1)*h_(m-i).
        scaled = [fi * f0 ** i for i, fi in enumerate(f[1:])]
        h = [1]
        for m in range(1, n + 1):
            h.append(-sum(map(mul, scaled[:m], h[::-1])))
        return _make([self._den * hm * f0 ** (n - m) for m, hm in enumerate(h)], f0 ** (n + 1))

    def sqrt(self) -> "PowerSeries":
        """Square root of a series with constant term 1."""
        f, d, n = self._num, self._den, self.order
        if f[0] != d:
            raise ValueError("sqrt requires constant term 1")
        # t_m = s_m*(4d)^m is an even integer for m >= 1:
        # 2*t_m = f_m*4^m*d^(m-1) - sum_{i=1..m-1} t_i*t_(m-i).
        t = [1]
        for m in range(1, n + 1):
            t.append((f[m] * 4 ** m * d ** (m - 1) - sum(map(mul, t[1:m], t[m - 1:0:-1]))) // 2)
        return _make([tm * (4 * d) ** (n - m) for m, tm in enumerate(t)], (4 * d) ** n)

    def shift_down(self, m: int) -> "PowerSeries":
        """Divide by x^m; the first m coefficients must vanish."""
        if any(self._num[:m]):
            raise ValueError(f"series is not divisible by x^{m}")
        if not 0 <= m <= self.order:
            raise ValueError(f"shift {m} is outside 0..{self.order}")
        return _make(self._num[m:], self._den)


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


def x_series(order: int) -> PowerSeries:
    return PowerSeries((0, 1)[: _order(order) + 1] + (0,) * (order - 1))


def one_series(order: int) -> PowerSeries:
    return PowerSeries((1,) + (0,) * _order(order))


def central_binomial_gf(order: int) -> PowerSeries:
    """1/sqrt(1-4x): coefficients binom(2n, n)."""
    base = PowerSeries((1, -4)[: _order(order) + 1] + (0,) * (order - 1))
    return base.sqrt().inverse()


def catalan_gf(order: int) -> PowerSeries:
    """(1 - sqrt(1-4x))/(2x): the Catalan numbers."""
    root = PowerSeries((1, -4) + (0,) * _order(order)).sqrt()  # one spare order for the shift
    return (one_series(order + 1) - root).shift_down(1) / 2


def ballot_gf(k: int, order: int) -> PowerSeries:
    """central * catalan^k: coefficients binom(2n+k, n)."""
    if k < 0:
        raise ValueError("the family index must be >= 0")
    return central_binomial_gf(order) * catalan_gf(order) ** k


def shifted_central_gf(order: int) -> PowerSeries:
    """(1 - sqrt(1-4x))/(x*sqrt(1-4x)) = 2 * catalan * central: coefficients
    binom(2n+2, n+1)."""
    return catalan_gf(order) * central_binomial_gf(order) * 2


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
