"""Exact arithmetic over Z[n]: dense polynomials and rational functions.

``ZnPoly`` is Z[n], ascending int coefficients in a tuple; it is the one
coefficient type.  A ``Polynomial`` is dense over it, in k: Z[n][k], the one
exact form of the engine.  Its products, powers and int shifts run on int
rows (``_rows_mul``, ``_rows_shift``; ``ZnPoly.shift`` is the same Taylor
shift on one-entry rows).  One long division, ``_exact_division``, gives the
exact quotient in Z[n] and in Z[n][k], None where the division is not
exact.  ``zn_reduced`` brings a pair num/den in Z[n][k] to lowest terms by
the cofactors of ``_zn_gcd``; a ``RationalFunction``, an element of
Q(n)(k), is the value of such a reduced pair, with no arithmetic of its
own.  ``FactoredRatio`` keeps a quotient as multisets of primitive factors
in Z[n][k], the form the Gosper normal form reads.  ``meeting_shifts``
gives the shifts where two factors meet, and ``dispersion_set`` applies it
to two primitive parts: on their squarefree parts, a closed form for two
linear factors, and otherwise a resultant over Z[j] at integer points n0
(``_shift_resultant_roots``) whose roots a gcd confirms.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Iterable, Sequence

NEG_INFINITY = float("-inf")


class Polynomial:
    """Dense polynomial in k over Z[n]: ``coeffs[i]``, a ``ZnPoly``,
    multiplies ``k**i``.  Ints and ``ZnPoly``s act as constants."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[ZnPoly]) -> None:
        n = len(coeffs)
        while n > 0 and not coeffs[n - 1]:
            n -= 1
        object.__setattr__(self, "coeffs", tuple(coeffs[:n]))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic structure ------------------------------------------------

    @property
    def degree(self):
        """Degree, with the zero polynomial mapped to -infinity."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def lc(self) -> ZnPoly:
        return self.coeffs[-1] if self.coeffs else ZN_ZERO

    def coeff(self, i: int) -> ZnPoly:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return ZN_ZERO

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @staticmethod
    def _coerce(other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
            other = ZnPoly((other,))
        return Polynomial((other,)) if isinstance(other, ZnPoly) else None

    # -- ring operations ------------------------------------------------

    def __eq__(self, other) -> bool:
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self.coeffs == p.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        pairs = zip_longest(self.coeffs, p.coeffs, fillvalue=ZN_ZERO)
        return Polynomial([a + b for a, b in pairs])

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        p = self._coerce(other)
        return NotImplemented if p is None else self + -p

    def __rsub__(self, other):
        p = self._coerce(other)
        return NotImplemented if p is None else p + -self

    def __mul__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        if not self.coeffs or not p.coeffs:
            return Polynomial(())
        return Polynomial(list(map(ZnPoly, _rows_mul(self.coeffs, p.coeffs))))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial((ZN_ONE,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def quotient(self, other: "Polynomial") -> "Polynomial | None":
        """self / other in Z[n][k] by ``_exact_division``, or None when other
        does not divide self there (a coefficient division in Z[n] that is
        not exact included)."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        quot = _exact_division(list(self.coeffs), other.coeffs, ZnPoly.quotient)
        return None if quot is None else Polynomial(quot)

    # -- substitution ---------------------------------------------------

    def shift(self, j: int) -> "Polynomial":
        """p(k + j), a Taylor shift of the int rows (``_rows_shift``)."""
        return Polynomial(list(map(ZnPoly, _rows_shift(self.coeffs, j)))) if self.coeffs else self

    def evaluate(self, point: int) -> ZnPoly:
        """The value in Z[n] at k = point, by Horner's rule."""
        x, acc = ZnPoly((point,)), ZN_ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def map_coeffs(self, fn) -> "Polynomial":
        return Polynomial(tuple(map(fn, self.coeffs)))

    def __repr__(self) -> str:
        return f"Polynomial({[tuple(c) for c in self.coeffs]!r})"


def _znk_scaled(value) -> tuple[Polynomial, int]:
    """(p, s) with value = p/s, p a polynomial in k over Z[n] and s > 0 an
    int, for a polynomial in k over Z[n], a ``ZnPoly``, an int or a Fraction."""
    if isinstance(value, Polynomial):
        return value, 1
    if isinstance(value, ZnPoly):
        return Polynomial((value,)), 1
    if isinstance(value, (int, Fraction)):
        value = Fraction(value)
        return Polynomial((ZnPoly((value.numerator,)),)), value.denominator
    raise TypeError(f"cannot read {value!r} as an element of Q(n)(k)")


class RationalFunction:
    """An element of Q(n)(k), or of Q(n) when k does not occur in it: one pair
    num/den of polynomials in k over Z[n], brought to lowest terms by
    ``zn_reduced`` (no common factor, joint content 1, the denominator's top
    integer positive), so that equal values have equal pairs.

    It is a value, with no arithmetic: the engine computes on the pairs
    (``zn_reduced``) and on ``FactoredRatio``s.  num and den may be anything
    ``_znk_scaled`` reads; den defaults to 1.  A constant value equals, and
    hashes as, the int or Fraction it is."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None) -> None:
        (p, a), (q, b) = _znk_scaled(num), _znk_scaled(1 if den is None else den)
        if not q:
            raise ZeroDivisionError("rational function with zero denominator")
        num, den = zn_reduced(p * b if b > 1 else p, q * a if a > 1 else q)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction(other)
        elif not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        rows = self.num.coeffs + self.den.coeffs
        if self.num.degree <= 0 and self.den.degree == 0 and max(map(len, rows)) == 1:
            return hash(Fraction(self.num.coeff(0)(0), self.den.coeffs[0][0]))
        return hash((self.num.coeffs, self.den.coeffs))

    def evaluate(self, n, k=0) -> Fraction:
        """The value at (n, k), ints or Fractions; a ZeroDivisionError where
        the denominator of the pair vanishes."""
        num, den = (sum(r(Fraction(n)) * Fraction(k) ** i for i, r in enumerate(p.coeffs))
                    for p in (self.num, self.den))
        if not den:
            raise ZeroDivisionError(f"pole of {self} at (n, k) = ({n}, {k})")
        return num / den

    def __str__(self) -> str:
        from .serialize import ratfun_to_text
        return ratfun_to_text((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


# ---------------------------------------------------------------------------
# gcd machinery


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    da, db = len(a) - 1, len(b) - 1
    lead = b[-1]
    r = list(a)
    for i in range(da, db - 1, -1):
        coef = r[i]
        if coef:
            for j in range(len(r)):
                r[j] *= lead
            for j, cb in enumerate(b):
                r[i - db + j] -= coef * cb
        # invariant: r[i] is now zero
    while r and r[-1] == 0:
        r.pop()
    return r[: db] if len(r) > db else r

def _int_primitive(coeffs: list[int]) -> list[int]:
    g = 0
    for v in coeffs:
        g = math.gcd(g, v)
    if g > 1:
        coeffs = [v // g for v in coeffs]
    if coeffs and coeffs[-1] < 0:
        coeffs = [-v for v in coeffs]
    return coeffs


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd in Q[x] of two integer coefficient lists, as a primitive integer
    list with positive lead: a primitive pseudo-remainder sequence."""
    a, b = _int_primitive(a), _int_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _int_primitive(_int_pseudo_rem(a, b))
    return a


def _zn_gcd(num: Sequence[ZnPoly], den: Sequence[ZnPoly]) -> tuple[list[ZnPoly], ...] | None:
    """(G, num/G, den/G): the gcd G in Z[n][k] of two polynomials in k over
    Z[n], primitive with a positive leading integer, and the cofactors; None
    when the gcd is 1.

    At the first n0 >= 0 with lc_k(N)(n0) * lc_k(D)(n0) != 0, a gcd of
    degree 0 in Q[k] of N(n0, k) and D(n0, k) proves the gcd is 1: a common
    factor G, primitive in Z[n][k], has lc_k(G) | lc_k(N) (Gauss's lemma), so
    G(n0, k) keeps its degree and divides both images.  Otherwise the gcd
    comes from Brown's dense interpolation (JACM 18, 1971): with gamma =
    gcd(lc_k N, lc_k D) of the primitive parts, the images gamma(n0) times
    the gcd of lead 1 at points of least image degree are the values of
    H = (gamma / lc_k G) * G, of n-degree at most e = deg gamma + min(deg_n N, deg_n D),
    fixed by e + 1 points.  Its primitive part is accepted only if it divides
    N and D in Z[n][k], the quotients being the cofactors; unlucky points
    (image degree too high) give candidates that fail, finitely often.
    """
    n0 = _good_point(num, den, 0)
    g = _zn_image_gcd(num, den, n0)
    if len(g) == 1:
        return None
    pnum, pden = _zn_primitive_part(list(num)), _zn_primitive_part(list(den))
    gamma = ZnPoly(_int_gcd(list(pnum[-1]), list(pden[-1])))
    need = len(gamma) + min(max(map(len, pnum)), max(map(len, pden))) - 1
    points: list[int] = []
    images: list[list[int]] = []
    while True:
        if points and len(g) < len(images[0]):
            points, images = [], []
        if not points or len(g) == len(images[0]):
            points.append(n0)
            images.append(g)
        if len(points) == need:
            cand = _zn_primitive_part(_interpolate_images(points, images, gamma))
            nq, dq = (_exact_division(list(f), cand, ZnPoly.quotient) for f in (num, den))
            if nq is not None and dq is not None:
                return cand, nq, dq
            points, images = [], []
        n0 = _good_point(pnum, pden, n0 + 1)
        g = _zn_image_gcd(pnum, pden, n0)
        if len(g) == 1:
            return None


def zn_reduced(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """num/den, polynomials in k over Z[n] with den nonzero, in lowest terms:
    the cofactors of their gcd in Z[n][k] (``_zn_gcd``), divided by their
    joint content in Z[n], the denominator's top integer positive; zero is
    0/1.  It is the one form of a ``RationalFunction``."""
    if not num:
        return num, Polynomial((ZN_ONE,))
    found = num.degree > 0 and den.degree > 0 and _zn_gcd(num.coeffs, den.coeffs)
    num_rows, den_rows = found[1:] if found else (num.coeffs, den.coeffs)
    rows = _zn_primitive_part([*num_rows, *den_rows])
    return Polynomial(rows[:len(num_rows)]), Polynomial(rows[len(num_rows):])


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """The gcd in Q(n)[k] of two polynomials in k over Z[n], as ``_zn_gcd``
    gives it: primitive in Z[n][k] with a positive leading integer, 1 when
    it is a unit, 0 for two zeros."""
    if not p or not q:
        f = p or q
        return Polynomial(_zn_primitive_part(list(f.coeffs))) if f else f
    found = p.degree > 0 and q.degree > 0 and _zn_gcd(p.coeffs, q.coeffs)
    return Polynomial(found[0] if found else (ZN_ONE,))


def poly_lcm(p: Polynomial, q: Polynomial) -> Polynomial:
    """The lcm in Q(n)[k] of two polynomials in k over Z[n], normalized as
    ``poly_gcd``'s result is; 0 when either is 0."""
    if not p or not q:
        return Polynomial(())
    return Polynomial(_zn_primitive_part(list((p * q.quotient(poly_gcd(p, q))).coeffs)))


# ---------------------------------------------------------------------------
# integer roots


def integer_roots(p: ZnPoly) -> list[int]:
    """The distinct integer roots, sorted, of a nonzero integer polynomial,
    found without factoring any integer: 0 when the constant term vanishes,
    and the roots of the squarefree part s of the rest.  At the first prime
    q not dividing lc(s) where each root of s mod q is simple, every integer
    root reduces to one of them, whose lift by Newton's iteration modulo
    q^(2^i) is unique.  Once q^(2^i) exceeds twice Cauchy's bound on |root|,
    a lift can only be its symmetric residue, kept if s vanishes there
    exactly."""
    if not p:
        raise ValueError("integer_roots of the zero polynomial")
    low = next(i for i, c in enumerate(p) if c)
    roots, s = [0] if low else [], p[low:]
    if len(s) < 2:
        return roots
    s = ZnPoly(s).quotient(ZnPoly(_int_gcd(s, [i * c for i, c in enumerate(s)][1:])))
    ds = ZnPoly([i * c for i, c in enumerate(s)][1:])
    q = 2
    while True:
        if s[-1] % q and all(q % d for d in range(2, math.isqrt(q) + 1)):
            lifts = [r for r in range(q) if not s(r) % q]
            if all(ds(r) % q for r in lifts):
                break
        q += 1
    modulus, bound = q, 2 * (1 + max(map(abs, s[:-1])) // abs(s[-1]))
    while modulus <= bound:
        modulus *= modulus
        lifts = [(r - s(r) * pow(ds(r), -1, modulus)) % modulus for r in lifts]
    candidates = (r - modulus if 2 * r > modulus else r for r in lifts)
    return sorted(roots + [r for r in candidates if not s(r)])


# ---------------------------------------------------------------------------
# resultants and dispersion


def bareiss(rows: list[list[ZnPoly]]) -> ZnPoly:
    """Determinant of a square matrix over Z[n], by fraction-free (Bareiss)
    elimination in place: every division is exact (``ZnPoly.quotient``), so
    entries stay in Z[n], and the last pivot is the determinant of the
    row-permuted matrix."""
    sign, prev = 1, ZN_ONE
    for c in range(len(rows)):
        sel = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if sel is None:
            return ZN_ZERO
        if sel != c:
            rows[c], rows[sel] = rows[sel], rows[c]
            sign = -sign
        piv = rows[c][c]
        for i in range(c + 1, len(rows)):
            head = rows[i][c]
            for j in range(c + 1, len(rows)):
                rows[i][j] = (piv * rows[i][j] - head * rows[c][j]).quotient(prev)
        prev = piv
    return -prev if sign < 0 else prev


def resultant(p: Polynomial, q: Polynomial) -> ZnPoly:
    """Resultant in k of p and q: the determinant of their Sylvester
    matrix, by Bareiss elimination.

    Returns an element of Z[n], lc(p)^deg q * lc(q)^deg p times the product
    of (a - b) over the roots a of p and b of q; all divisions performed are
    exact.  A constant operand gives the other's degree as a power of it, two
    give the empty determinant 1.
    """
    if not p or not q:
        return ZN_ZERO
    dp, dq = len(p.coeffs) - 1, len(q.coeffs) - 1
    size = dp + dq
    zero = ZN_ZERO
    rows = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for i in range(dq):
        rows.append([zero] * i + pc + [zero] * (size - i - dp - 1))
    for i in range(dp):
        rows.append([zero] * i + qc + [zero] * (size - i - dq - 1))
    return bareiss(rows)


def _shift_resultant_roots(num: Sequence[ZnPoly], den: Sequence[ZnPoly]) -> list[int]:
    """The j >= 0, sorted, at which Res_k(num(k), den(k + j)) in Z[n][j] may
    vanish: roots of the gcd of its values at two points n0 where neither
    leading coefficient in k vanishes.  There it is the resultant of the
    images, taken over Z[j] (each ``ZnPoly`` of the shifted image read as a
    polynomial in j): b(k + j) has sum_i b_i C(i, m) j^(i-m) at k^m.  So it
    has every j at which num(k) and den(k+j) share a factor."""
    witness: list[int] = []
    n0 = -1
    for _ in range(2):
        n0 = _good_point(num, den, n0 + 1)
        b = [c(n0) for c in den]
        shifted = Polynomial([ZnPoly(c * math.comb(i, m) for i, c in enumerate(b[m:], m))
                              for m in range(len(b))])
        image = Polynomial([ZnPoly((c(n0),)) for c in num])
        witness = _int_gcd(witness, list(resultant(image, shifted)))
    return [j for j in integer_roots(ZnPoly(witness)) if j >= 0]


def _squarefree_part(f: Polynomial) -> Polynomial:
    """f over its gcd with df/dk: the same roots in k, each once."""
    found = _zn_gcd(f.coeffs, [ZnPoly(i * c for c in r) for i, r in enumerate(f.coeffs)][1:])
    return Polynomial(found[1]) if found else f


def meeting_shifts(u: Polynomial, v: Polynomial) -> list[int]:
    """The j >= 0 at which gcd(u(k), v(k + j)) has positive degree.  They
    share a factor exactly when their squarefree parts do, so a power of a
    factor costs one gcd, not a resultant of its full degree."""
    u, v = (f if is_linear(f) else _squarefree_part(f) for f in (u, v))
    if is_linear(u) and is_linear(v):
        gap, alpha = u.coeffs[0] - v.coeffs[0], u.coeffs[1][0]
        j, rem = divmod(gap[0] if gap else 0, alpha)
        return [j] if alpha == v.coeffs[1][0] and len(gap) < 2 and not rem and j >= 0 else []
    return [j for j in _shift_resultant_roots(u.coeffs, v.coeffs)
            if _zn_gcd(u.coeffs, v.shift(j).coeffs)]


def dispersion_set(p: Polynomial, q: Polynomial) -> list[int]:
    """All integers j >= 0 with deg gcd(p(k), q(k + j)) >= 1, sorted, for
    polynomials in k over Z[n]: ``meeting_shifts`` of their primitive parts."""
    if p.degree < 1 or q.degree < 1:
        return []
    return meeting_shifts(*(Polynomial(_zn_primitive_part(list(f.coeffs))) for f in (p, q)))


# ---------------------------------------------------------------------------
# substitution in n


def shift_in_n(p: Polynomial, j: int) -> Polynomial:
    """Substitute n + j for n in a polynomial in k over Z[n]."""
    return p.map_coeffs(lambda c: c.shift(j))


def clear_qnk_pair(value: RationalFunction) -> tuple[Polynomial, Polynomial]:
    """The pair (num, den) in Z[n][k] of a Q(n)(k) value."""
    return value.num, value.den


# ---------------------------------------------------------------------------
# integer polynomials in n, as int tuples


class ZnPoly(tuple):
    """An element of Z[n]: ascending int coefficients, no trailing zeros.

    Its operators are those of the ring (an int is not coerced: ``2 * z`` is
    a TypeError, not tuple repetition); it is the coefficient type of every
    ``Polynomial``, of a recurrence and of an operator.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[int] = ()) -> "ZnPoly":
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return tuple.__new__(cls, coeffs)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self):
            acc = acc * x + c
        return acc

    def shift(self, j: int) -> "ZnPoly":
        """self(n + j): the Taylor shift ``_rows_shift`` of one-entry rows."""
        rows = _rows_shift([(c,) for c in self], j) if self else ()
        return tuple.__new__(ZnPoly, [r[0] for r in rows])

    def __neg__(self) -> "ZnPoly":
        return tuple.__new__(ZnPoly, [-c for c in self])

    def __add__(self, other: "ZnPoly") -> "ZnPoly":
        if not isinstance(other, ZnPoly):
            return NotImplemented  # a Polynomial's reflected operator, or a TypeError
        if len(self) < len(other):
            self, other = other, self
        out = list(self)
        for i, c in enumerate(other):
            out[i] += c
        return ZnPoly(out)

    def __sub__(self, other: "ZnPoly") -> "ZnPoly":
        return self + -other if isinstance(other, ZnPoly) else NotImplemented

    def __mul__(self, other: "ZnPoly") -> "ZnPoly":
        if not isinstance(other, ZnPoly):
            return NotImplemented
        if not self or not other:
            return ZN_ZERO
        out = [0] * (len(self) + len(other) - 1)
        for i, a in enumerate(self):
            if a:
                for j, b in enumerate(other, i):
                    out[j] += a * b
        return tuple.__new__(ZnPoly, out)

    __rmul__ = __mul__  # not tuple repetition: an int times a ZnPoly is a TypeError

    def quotient(self, other: "ZnPoly") -> "ZnPoly | None":
        """self / other in Z[n] by ``_exact_division``, or None when the
        division is not exact."""
        if not other:
            raise ZeroDivisionError("division by zero in Z[n]")
        if len(other) == 1 and other[0] == 1:
            return self
        quot = _exact_division(list(self), other, _int_quotient)
        return None if quot is None else tuple.__new__(ZnPoly, quot)


def _int_quotient(a: int, b: int) -> int | None:
    q, r = divmod(a, b)
    return None if r else q


def _exact_division(rem: list, divisor: Sequence, divide: Callable) -> list | None:
    """The quotient of rem by divisor, coefficient lists over Z or Z[n]
    (lowest first, divisor's top nonzero), by long division, or None when
    it is not exact: divide(a, b) is a/b in the coefficient ring, or None
    when that is not exact.  rem is used up."""
    db, lead = len(divisor) - 1, divisor[-1]
    quot = []
    for i in range(len(rem) - 1, db - 1, -1):
        q = rem[i] and divide(rem[i], lead)  # a zero rem[i] is a zero of the ring
        if q is None:
            return None
        quot.append(q)
        if q:
            for j, b in enumerate(divisor, i - db):
                rem[j] = rem[j] - q * b
    return None if any(rem[:db]) else quot[::-1]


def _rows_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """The product of two polynomials in k over Z[n], each a nonempty list of
    int rows (ascending in k, each row ascending in n): the n-convolutions of
    the row pairs summed into one int list per output row."""
    width = max(map(len, a)) + max(map(len, b)) - 1
    out = [[0] * width for _ in range(len(a) + len(b) - 1)]
    for i, ra in enumerate(a):
        for acc, rb in zip(out[i:], b):
            for s, x in enumerate(ra):
                if x:
                    for t, y in enumerate(rb, s):
                        acc[t] += x * y
    return out


def _rows_shift(rows: Sequence[Sequence[int]], j: int) -> list[list[int]]:
    """The int rows of p(k + j), p in Z[n][k] given as int rows: a Taylor
    shift by repeated synthetic division, in place on fresh copies of the rows."""
    width = max(map(len, rows))
    out = [[*r, *[0] * (width - len(r))] for r in rows]
    for i in range(len(out) - 1):
        for t in range(len(out) - 2, i - 1, -1):
            row = out[t]
            for s, y in enumerate(out[t + 1]):
                row[s] += j * y
    return out


ZN_ZERO = ZnPoly()
ZN_ONE = ZnPoly((1,))


def _good_point(num: list[ZnPoly], den: list[ZnPoly], start: int) -> int:
    """The first n0 >= start where neither leading coefficient in k vanishes."""
    n0 = start
    while not (num[-1](n0) and den[-1](n0)):
        n0 += 1
    return n0


def _zn_image_gcd(num: list[ZnPoly], den: list[ZnPoly], n0: int) -> list[int]:
    return _int_gcd([c(n0) for c in num], [c(n0) for c in den])


def _zn_primitive_part(rows: list[ZnPoly]) -> list[ZnPoly]:
    """A polynomial in k over Z[n], its top coefficient nonzero, divided by
    its content in Z[n] and by the sign of its leading integer."""
    content: list[int] = []
    for r in rows:
        content = _int_gcd(content, list(r))
    if len(content) > 1:
        rows = [r.quotient(ZnPoly(content)) for r in rows]
    g = math.gcd(*(c for r in rows for c in r))
    g = -g if rows[-1][-1] < 0 else g
    if g != 1:
        rows = [ZnPoly([c // g for c in r]) for r in rows]
    return rows


def _interpolate_images(
    points: list[int], images: list[list[int]], gamma: ZnPoly
) -> list[ZnPoly]:
    """An integer multiple, in Z[n][k], of the H in Q[n][k] of n-degree
    below len(points) with H(x, k) = gamma(x) * g / lc(g) at each point x
    and its image g.

    Lagrange form over a common denominator: with w = prod (n - x_j) and
    w_i = w / (n - x_i), H = sum_i gamma(x_i) g_i / (lc(g_i) w_i(x_i)) w_i.
    """
    w = [1]
    for x in points:
        w = [0] + w
        for i in range(len(w) - 1):
            w[i] -= x * w[i + 1]
    basis, dens = [], []
    for x in points:
        wi = [0] * (len(w) - 1)
        acc = 0
        for i in range(len(w) - 1, 0, -1):
            acc = acc * x + w[i]
            wi[i - 1] = acc
        basis.append(wi)
        dens.append(ZnPoly(wi)(x))
    lcm = math.lcm(*(g[-1] * d for g, d in zip(images, dens)))
    rows = []
    for c in range(len(images[0])):
        row = [0] * len(points)
        for x, g, d, wi in zip(points, images, dens, basis):
            s = gamma(x) * g[c] * (lcm // (g[-1] * d))
            if s:
                for i, b in enumerate(wi):
                    row[i] += s * b
        rows.append(ZnPoly(row))
    return rows


# ---------------------------------------------------------------------------
# factored quotients in Z[n](k), and identities in Z[n][k] at one point


def is_linear(f: Polynomial) -> bool:
    """Whether a polynomial in k over Z[n] is alpha*k + beta with alpha in Z."""
    return len(f.coeffs) == 2 and len(f.coeffs[1]) == 1


def primitive_factors(p: Polynomial) -> tuple[int, list[Polynomial]]:
    """A nonzero polynomial in k over Z[n] as an integer times factors with
    a positive leading integer: its content in Z[n] unless that is an
    integer (a factor of degree 0 in k), and its primitive part unless that
    is 1.  The product is p exactly."""
    prim = _zn_primitive_part(list(p.coeffs))
    unit = p.coeffs[-1].quotient(prim[-1])  # the content times an integer
    g = math.gcd(*unit) if unit[-1] > 0 else -math.gcd(*unit)
    factors = [(ZnPoly(c // g for c in unit),)] if len(unit) > 1 else []
    factors += [prim] if len(prim) > 1 or len(prim[0]) > 1 else []
    return g, [Polynomial(rows) for rows in factors]


def zn_product(factors: Counter, const: int = 1) -> Polynomial:
    """const times the product of a multiset of polynomials in k over Z[n],
    multiplied into one accumulator of int rows."""
    rows = [[const]]
    for f in factors.elements():
        rows = _rows_mul(rows, f.coeffs)
    return Polynomial(list(map(ZnPoly, rows)))


def coprime_base(*multisets: Counter) -> None:
    """Rewrite multisets of factors (as in ``FactoredRatio``) in place over one
    base whose factors of positive degree in k are pairwise coprime or equal:
    while two share a factor g, each becomes g and its cofactor."""
    coprime: set = set()
    while split := _common_factor(multisets, coprime):
        (u, v), (g, *rests) = split
        for m in multisets:
            for f, rest in zip((u, v), rests):
                for h in (g, rest) if (times := m.pop(f, 0)) else ():
                    if len(h) > 1:
                        m[Polynomial(h)] += times


def _common_factor(multisets, coprime: set):
    keys = [f for f in dict.fromkeys(f for m in multisets for f in m) if f.degree > 0]
    for i, u in enumerate(keys):
        for v in keys[i + 1:]:
            if (u, v) not in coprime and not (is_linear(u) and is_linear(v)):
                if found := _zn_gcd(u.coeffs, v.coeffs):
                    return (u, v), found
                coprime.add((u, v))
    return None


class FactoredRatio:
    """const[0]/const[1] * prod(num) / prod(den) in Q(n)(k), kept factored:
    const two nonzero ints, num and den multisets (Counters) of polynomials
    in k over Z[n] with a positive leading integer, primitive or of degree 0
    in k (units).  ``pair`` multiplies them out."""

    __slots__ = ("const", "num", "den")

    def __init__(self, const: tuple[int, int] = (1, 1), num=(), den=()) -> None:
        self.const, self.num, self.den = const, Counter(num), Counter(den)

    def pair(self) -> tuple[Polynomial, Polynomial]:
        return zn_product(self.num, self.const[0]), zn_product(self.den, self.const[1])

    def at(self, value: Callable) -> tuple:
        """num and den from value(f) of each factor f: none is multiplied out."""
        return tuple(math.prod((value(f) ** m for f, m in side.items()), start=c)
                     for c, side in zip(self.const, (self.num, self.den)))

    def __mul__(self, other: "FactoredRatio") -> "FactoredRatio":
        return FactoredRatio((self.const[0] * other.const[0], self.const[1] * other.const[1]),
                             self.num + other.num, self.den + other.den)

    def shift_n(self, j: int) -> "FactoredRatio":
        """The ratio at n + j: Taylor shifts keep content and leading terms."""
        return FactoredRatio(self.const, *(Counter({shift_in_n(f, j): m for f, m in side.items()})
                                           for side in (self.num, self.den)))

    def cancelled(self) -> "FactoredRatio":
        """The same ratio, num and den coprime over one coprime base; units cancel where equal."""
        num, den = Counter(self.num), Counter(self.den)
        coprime_base(num, den)
        common = num & den
        return FactoredRatio(self.const, num - common, den - common)


def zn_value(p: Polynomial, x: int, y: int) -> int:
    """p in Z[n][k] at (x, y), y = 2^b + s: by Horner's rule in k, each step
    a shift and a product by s."""
    b = max(y.bit_length() - 1, 0)
    s, acc = y - (1 << b), 0
    for r in reversed(p.coeffs):
        acc = (acc << b) + acc * s + r(x)
    return acc


class _Bound:
    """What ``zn_identity`` knows of g in Z[n][k] before it picks its point:
    l1 >= the sum of g's absolute coefficients, d >= its n-degree, top >= that
    sum over its terms of n-degree d.  A sum adds l1 and takes the larger d
    with its top (both tops at one d); a product multiplies l1 and top, adds d."""

    __slots__ = ("l1", "d", "top")

    def __init__(self, l1: int, d: int, top: int) -> None:
        self.l1, self.d, self.top = l1, d, top

    def __add__(self, other) -> "_Bound":
        o = other if isinstance(other, _Bound) else _Bound(abs(other), 0, abs(other))
        top = self.top + o.top if self.d == o.d else (self if self.d > o.d else o).top
        return _Bound(self.l1 + o.l1, max(self.d, o.d), top)

    def __mul__(self, other) -> "_Bound":
        o = other if isinstance(other, _Bound) else _Bound(abs(other), 0, abs(other))
        return _Bound(self.l1 * o.l1, self.d + o.d, self.top * o.top)

    def __pow__(self, m: int) -> "_Bound":
        return _Bound(self.l1 ** m, self.d * m, self.top ** m)

    __radd__ = __sub__ = __rsub__ = __add__
    __rmul__ = __mul__


def _leaf_bound(p: Polynomial, i: int, s: int) -> _Bound:
    """The ``_Bound`` of p(n + i, k + s) from p's absolute coefficients at
    (1 + |i|, 1 + |s|), the l1 norms of n + i and k + s; the shift keeps
    the n-degree d, whose coefficient becomes p_d(k + s)."""
    u, v, d = 1 + abs(s), 1 + abs(i), max(map(len, p.coeffs), default=1) - 1
    l1 = top = 0
    for r in reversed(p.coeffs):
        row = sum(map(abs, r)) if v == 1 else sum(abs(c) * v**a for a, c in enumerate(r))
        l1, top = l1 * u + row, top * u + (abs(r[d]) if len(r) > d else 0)
    return _Bound(l1, d, top)


def _leaves(value: Callable) -> Callable:
    """at(f, i, s) for sides: value(f, i, s), per factor for a ``FactoredRatio``."""
    return lambda f, i=0, s=0: f.at(lambda g: value(g, i, s)) if isinstance(
        f, FactoredRatio) else value(f, i, s)


def zn_identity(sides: Callable) -> bool:
    """Whether lhs = rhs in Z[n][k], (lhs, rhs) = sides(at), by comparing two
    ints, with no product polynomial: sides builds both by + and * from leaves
    at(f, i, s) = f(n+i, k+s) at a point, f in Z[n][k] or a ``FactoredRatio``.

    Write g = lhs - rhs = sum_b f_b(n) k^b, f_b = sum_a c_ab n^a.  Run once on
    ``_leaf_bound`` leaves, sides gives l1 >= sum |c_ab|, d >= deg_n g and
    top >= sum_b |c_db|.  At x = 2 * 2^bitlen(l1) > 2*l1, sum_b |f_b(x)| <=
    l1 * x^(d-1) + top * x^d < (top + 1/2) * x^d < y/2 for
    y = 2 * 2^bitlen((top + 1) * x^d).  At (x, y) it is a proof (Kronecker
    substitution; von zur Gathen and Gerhard, Modern Computer Algebra, 8.4):
    an integer polynomial h != 0 with coefficients below z/2 in size is
    c z^t mod z^(t+1) at z, c its least nonzero one, so h(z) != 0.  Thus
    g(x, y) = 0 only if every f_b(x) = 0, and f_b(x) = 0 only if f_b = 0.
    """
    lhs, rhs = sides(_leaves(_leaf_bound))
    g = _Bound(0, 0, 0) + lhs - rhs
    x = 2 << g.l1.bit_length()
    y = 2 << (g.top + 1).bit_length() + g.d * (x.bit_length() - 1)  # x^d is 2^(d*(bitlen(x)-1))
    lhs, rhs = sides(_leaves(lambda f, i, s: zn_value(f, x + i, y + s)))
    return lhs == rhs
