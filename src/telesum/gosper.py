"""Indefinite hypergeometric summation.

Given a term F(k) with rational shift quotient r(k) = F(k+1)/F(k), decide
whether F has a hypergeometric antidifference G (so G(k+1) - G(k) = F(k))
and produce it with a checkable rational certificate R = G/F when it does.

The pipeline is the classical one: bring r into Gosper normal form
r = z * (a/b) * (c(k+1)/c(k)) with the shift-coprimality property, bound
the degree of a polynomial unknown, and solve

    z * a(k) * x(k+1) - b(k-1) * x(k) = c(k)

by linear algebra.  Then R = b(k-1) * x(k) / c(k), and soundness is the
exact identity R(k+1) * r(k) - R(k) = 1.  Both the indefinite decision and
Zeilberger's creative telescoping reach a checked certificate by one
routine, ``gosper_step``: given T_0 = 1, ..., T_J it solves
sum_j sigma_j T_j = R(k+1) r(k) - R(k) by ``parameterized_gosper`` and
checks that identity.  Gosper is its case with the single T_0 = 1.

The normal form is read off the factors of r (``FactoredRatio``), as in
Petkovsek-Wilf-Zeilberger, *A = B*, ch. 5, and Paule's greatest factorial
factorization (JSC 20, 1995): linear factors alpha*k + beta and
alpha*k + beta' meet at the shift j = (beta - beta')/alpha when that is an
n-free integer >= 0, and any other two factors where a resultant at
integer points and a gcd say (``meeting_shifts``).  The shifts are
cancelled in ascending order, as Gosper's algorithm does.  a, b, c, z, the
degree bound, the system, x and R stay in Z[n][k], as pairs reduced by
``zn_reduced``.  A ``GosperCertificate`` builds its ``RationalFunction``
values (the shift quotient, x and R) from those pairs only when they are
read.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from .hyperterm import (
    HyperTerm,
    eval_term,
    factored_shift_pair,
    shift_quotient,
    term_to_string,
)
from .linalg import nullspace
from .polynomials import (
    ZN_ONE,
    ZN_ZERO,
    FactoredRatio,
    Polynomial,
    RationalFunction,
    ZnPoly,
    _rows_mul,
    _rows_shift,
    _zn_primitive_part,
    coprime_base,
    integer_roots,
    meeting_shifts,
    primitive_factors,
    zn_product,
    zn_reduced,
)
from .serialize import ratfun_to_record, ratfun_to_text
from .verify import telescoping_identity


class NotSummableError(Exception):
    """The term has no hypergeometric antidifference."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _shifted(factors: Counter, j: int) -> Counter:
    return Counter({f.shift(j): m for f, m in factors.items()})


@dataclass(frozen=True)
class IntegerNormalForm:
    """Gosper's normal form r = z * (a/b) * (c(k+1)/c(k)) in Z[n][k], with
    gcd(a(k), b(k+j)) = 1 for j >= 0: z = zn/zd, and a, b and c are Z[n]
    multiples of the a, b and c of lead 1."""

    zn: ZnPoly
    zd: ZnPoly
    a: Polynomial
    b: Polynomial
    c: Polynomial
    dispersion: list[int]

    def pairs(self) -> dict[str, tuple[Polynomial, Polynomial]]:
        """The a, b, c of lead 1 and z, each a pair of ``zn_reduced``."""
        pairs = {name: zn_reduced(p, Polynomial((p.lc(),)))
                 for name, p in zip("abc", (self.a, self.b, self.c))}
        pairs["z"] = zn_reduced(Polynomial((self.zn,)), Polynomial((self.zd,)))
        return pairs

    def ratio(self) -> RationalFunction:
        """The shift quotient this normal form came from."""
        return RationalFunction(self.a * self.c.shift(1) * (self.zn * self.b.lc()),
                                self.b * self.c * (self.zd * self.a.lc()))


def factored_normal_form(ratio: FactoredRatio) -> IntegerNormalForm:
    """The normal form of a ratio with coprime num and den, z its leading
    coefficient in k.  At each shift j of the dispersion set in turn, a(k) and
    b(k + j) are rewritten over one coprime base; their common part g leaves
    both, and c gains g(k-1)...g(k-j)."""
    zn, zd = (math.prod((f.lc() for f in side.elements()), start=ZnPoly((c,)))
              for side, c in zip((ratio.num, ratio.den), ratio.const))
    a, b = (Counter({f: m for f, m in side.items() if f.degree > 0})
            for side in (ratio.num, ratio.den))
    c: Counter = Counter()
    dispersion = sorted({j for u in a for v in b for j in meeting_shifts(u, v)})
    for j in dispersion:
        moved = _shifted(b, j)
        coprime_base(a, moved)
        common = a & moved
        a, b = a - common, _shifted(moved - common, -j)
        for i in range(1, j + 1):
            c += _shifted(common, -i)
    return IntegerNormalForm(zn, zd, *map(zn_product, (a, b, c)), dispersion)


def gosper_normal_form(ratio: RationalFunction) -> IntegerNormalForm:
    """The normal form of a nonzero Q(n)(k) value: each side of its pair
    split by ``primitive_factors``, read by ``factored_normal_form``."""
    if not ratio:
        raise ValueError("the normal form of zero")
    (gn, num), (gd, den) = map(primitive_factors, (ratio.num, ratio.den))
    return factored_normal_form(FactoredRatio((gn, gd), num, den))


def degree_bound(nf: IntegerNormalForm, rhs_extra: int = 0) -> int | None:
    """Largest possible degree of x in z*a(k)*x(k+1) - b(k-1)*x(k) = rhs,
    where deg rhs <= deg c + rhs_extra, read off the normal form in Z[n][k].
    None means no degree works.  When z = 1 and a and B = b(k-1) share the
    degree d, theta = (B_{d-1}*lc a - a_{d-1}*lc B) / (lc a * lc B), the
    difference of their next coefficients over their leads, is a candidate
    when it is an integer >= 0."""
    a, B = nf.a, nf.b.shift(-1)
    na, nb = int(a.degree), int(B.degree)
    K = int(nf.c.degree) + rhs_extra
    if na != nb or nf.zn != nf.zd:
        d = K - max(na, nb)
        return d if d >= 0 else None
    if na == 0:
        return max(K + 1, 0)
    candidates = [K - na + 1]
    theta = (B.coeff(na - 1) * a.lc() - a.coeff(na - 1) * B.lc()).quotient(a.lc() * B.lc())
    if theta is not None and len(theta) <= 1:  # an integer, zero included
        candidates.append(theta[0] if theta else 0)
    d = max(candidates)
    return d if d >= 0 else None


def parameterized_gosper(
    nf: IntegerNormalForm, rhs: Sequence[Polynomial]
) -> tuple[int | None, tuple[list[ZnPoly], ZnPoly, tuple] | None]:
    """Gosper's step with parameters on the right-hand side.

    Bounds the degree d of a polynomial x and solves

        z * a(k) * x(k+1) - b(k-1) * x(k) = c(k) * sum_j sigma_j * p_j(k)

    for x and constants sigma_j in Q(n), given rhs = [p_0, ..., p_J] in
    Z[n][k], as one nullspace over Z[n]: with the a, b, c of lead 1 of nf, the
    equation times zd*lc(a)*lc(b)*lc(c) is in Z[n][k].  When d is None only
    x = 0 can occur; with a single nonzero p_0 the only solution is then
    sigma_0 = 0, and no elimination is run.
    Returns d and the first solution with some sigma_j nonzero, normalized
    by ``_normalize_solution``, or None.  With rhs [1] this is Gosper's
    equation: sigma is (1,) and the free coefficients of x are zero.
    """
    extra = max(int(p.degree) for p in rhs)
    d = degree_bound(nf, rhs_extra=extra)
    if d is None and len(rhs) == 1 and rhs[0]:
        return d, None
    nx = 0 if d is None else d + 1
    la, lb, lc = nf.a.lc(), nf.b.lc(), nf.c.lc()
    za = _rows_mul(nf.a.coeffs, [nf.zn * lb * lc])
    B = _rows_mul(_rows_shift(nf.b.coeffs, -1), [nf.zd * la * lc])
    cz = _rows_mul(nf.c.coeffs, [-(nf.zd * la * lb)])
    cols = [_rows_mul(cz, p.coeffs) if p else [] for p in rhs]
    for i in range(nx):  # column i is za*(k+1)^i - B*k^i on int rows: za by a shift and an add
        cols[i:i] = [[[u - v for u, v in zip_longest(a, b, fillvalue=0)]
                      for a, b in zip_longest(za, [()] * i + B, fillvalue=())]]
        za = [za[0], *([u + v for u, v in zip(*pair)] for pair in zip(za, za[1:])), za[-1]]
    matrix = [[ZnPoly(col[r]) if r < len(col) else ZN_ZERO for col in cols]
              for r in range(max(map(len, cols)))]
    while not any(matrix[-1]):  # the tops of za and B cancel
        matrix.pop()
    for vec in nullspace(matrix, ncols=len(cols)):
        if any(vec[nx:]):
            return d, _normalize_solution(vec[:nx], vec[nx:])
    return d, None


def _normalize_solution(x: list[ZnPoly], sigma: list[ZnPoly]) -> tuple[list[ZnPoly], ZnPoly, tuple]:
    """(x, sigma) in Z[n] divided by the one k-free scale that makes sigma, cut
    after its last nonzero entry, primitive with a positive top lead: x's
    coefficients over that scale, the scale, and sigma."""
    while not sigma[-1]:
        sigma = sigma[:-1]
    prim = _zn_primitive_part(sigma)
    return x, sigma[-1].quotient(prim[-1]), tuple(prim)


def _common_denominator(t_list: list[FactoredRatio]) -> tuple[Counter, int, list[Polynomial]]:
    """Q = scale * prod(q), the lcm of the T_j's denominators (over a
    coprime base, units and integers too), and the p_j = T_j * Q."""
    dens = [Counter(tj.den) for tj in t_list]
    coprime_base(*dens)
    q = functools.reduce(operator.or_, dens)
    scale = math.lcm(*(tj.const[1] for tj in t_list))
    return q, scale, [zn_product(tj.num + (q - d), scale // tj.const[1] * tj.const[0])
                      for tj, d in zip(t_list, dens)]


def gosper_step(term: HyperTerm, r_k: FactoredRatio, r_n: FactoredRatio | None,
                t_list: list[FactoredRatio]) -> tuple[int | None, IntegerNormalForm, tuple | None]:
    """sigma_j in Z[n] and R with sum_j sigma_j T_j = R(k+1) r_k - R, given
    T_0 = 1, ..., T_J: ``parameterized_gosper`` on the normal form of
    rho = r_k q(k)/q(k+1) and the p_j = T_j * Q (``_common_denominator``),
    R = b(k-1) x(k) / (c(k) Q(k)) reduced by ``zn_reduced``, and the one
    self-check, ``telescoping_identity`` on r_k and r_n (which may be None
    when J = 0).  Returns the degree bound, the normal form and
    (x, scale, sigma, R), or None in its place when no solution exists."""
    q, scale, p_list = _common_denominator(t_list)
    rho = r_k * FactoredRatio((1, 1), q, (f.shift(1) for f in q.elements()))
    nf = factored_normal_form(rho.cancelled())
    d, solution = parameterized_gosper(nf, p_list)
    if solution is None:
        return d, nf, None
    x, x_scale, sigma = solution
    num = nf.b.shift(-1) * Polynomial(x) * nf.c.lc()
    pair = zn_reduced(num, nf.c * zn_product(q, scale) * (nf.b.lc() * x_scale))
    if not telescoping_identity(term, sigma, pair, r_k, r_n):
        raise AssertionError("internal error: certificate failed its own check")
    return d, nf, (x, x_scale, sigma, pair)


@dataclass(frozen=True)
class GosperCertificate:
    """Antidifference certificate: G = R * F satisfies G(k+1) - G(k) = F(k).

    It holds integer forms: the normal form in Z[n][k], and x (over its
    scale) and R as pairs in Z[n][k] reduced by ``zn_reduced``.  ``ratio``,
    ``x`` and ``certificate`` are their ``RationalFunction`` values, built
    when read."""

    term: HyperTerm
    integer_form: IntegerNormalForm
    x_pair: tuple[Polynomial, Polynomial]
    certificate_pair: tuple[Polynomial, Polynomial]

    @property
    def ratio(self) -> RationalFunction:
        """The shift quotient r = F(k+1)/F(k) in Q(n)(k)."""
        return shift_quotient(self.term, "k")

    @property
    def x(self) -> RationalFunction:
        """x, the polynomial solution of Gosper's equation, over its scale in Z[n]."""
        return RationalFunction(*self.x_pair)

    @property
    def certificate(self) -> RationalFunction:
        """R, built when read from its pair (P, Q) of ``zn_reduced``."""
        return RationalFunction(*self.certificate_pair)

    def antidifference(self) -> HyperTerm:
        return self.term.scale_rational(self.certificate_pair)

    def check(self) -> bool:
        """Exact soundness: R(k+1) * r(k) - R(k) = 1, the telescoping
        identity with the single coefficient sigma_0 = 1 (``telescoping_identity``)."""
        return telescoping_identity(self.term, (ZN_ONE,), self.certificate_pair)

    def text(self) -> str:
        return f"R(n,k) = {ratfun_to_text(self.certificate_pair)}"

    def record(self) -> dict:
        """x, the a, b, c of lead 1, z and R, each a pair of ``zn_reduced``."""
        pairs = {"x": self.x_pair, **self.integer_form.pairs(), "R": self.certificate_pair}
        return {name: ratfun_to_record(pair) for name, pair in pairs.items()}


def gosper_antidifference(term: HyperTerm) -> GosperCertificate:
    """Decide indefinite summability of the term, by ``gosper_step`` with
    the single T_0 = 1; raises NotSummableError."""
    d, nf, found = gosper_step(term, factored_shift_pair(term, "k"), None, [FactoredRatio()])
    if found is None:
        reason = ("degree bound rules out a polynomial solution" if d is None
                  else f"no polynomial solution up to degree {d}")
        raise NotSummableError(f"{reason} for {term_to_string(term)}")
    x, scale, _, pair = found
    return GosperCertificate(term, nf, zn_reduced(Polynomial(x), Polynomial((scale,))), pair)


def telescoped_sum(cert: GosperCertificate, n: int, lo: int, hi: int) -> Fraction:
    """Sum of F(k) for lo <= k <= hi: G(e+1) - G(s), G = R*F, over each run
    s..e of steps k -> k+1 that telescope, and F(k) itself at each other k.

    The certificate's identity R(k+1) r(k) - R(k) = 1 gives G(k+1) - G(k) =
    F(k) where G's denominator is nonzero at k and k+1 and each factor of r
    as ``factored_shift_pair`` builds it is nonzero at k; no factor argument
    then leaves its sign class (negative or not) from k to k+1, so F(k+1) =
    r(k) F(k) holds for the evaluated values too.  Elsewhere it need not:
    binom(k,-k) is -1 at k = -1 and 1 at k = 0, but r(-1) = -1/2.
    """
    g = cert.antidifference()
    r_k = factored_shift_pair(cert.term, "k")
    den = g.prefactor[1]
    breaks = set()  # k where a factor of r, or G's denominator at k or k+1, is 0
    for p in (*r_k.num, *r_k.den, den, den.shift(1)):
        at_n = ZnPoly(c(n) for c in p.coeffs)  # p at this n, a polynomial in k
        breaks.update(integer_roots(at_n) if at_n else range(lo, hi + 1))
    total, k = Fraction(0), lo
    for b in sorted(b for b in breaks if lo <= b <= hi) + [hi + 1]:
        if k < b:
            total += eval_term(g, n, b) - eval_term(g, n, k)
        if b <= hi:
            total += eval_term(cert.term, n, b)
        k = b + 1
    return total
