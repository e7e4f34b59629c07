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
Zeilberger's creative telescoping run this step through one routine,
``parameterized_gosper``, whose right-hand side is c(k) times a linear
combination of given polynomials; Gosper is its case with the single
polynomial 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .hyperterm import HyperTerm, ParamBinding, eval_term, shift_quotient, term_to_string
from .linalg import nullspace
from .polynomials import (
    POLY_K,
    POLY_N,
    QN,
    ZN,
    Polynomial,
    RationalFunction,
    ZnPoly,
    _zn_primitive_part,
    clear_qn,
    dispersion_set,
    poly_gcd,
)
from .serialize import ratfun_to_record, ratfun_to_text
from .verify import telescoping_identity


class NotSummableError(Exception):
    """The term has no hypergeometric antidifference."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class GosperNormalForm:
    """r = z * (a/b) * (c(k+1)/c(k)) with gcd(a(k), b(k+j)) = 1 for j >= 0."""

    z: RationalFunction
    a: Polynomial
    b: Polynomial
    c: Polynomial

    def ratio(self) -> RationalFunction:
        """Reconstruct the shift quotient this normal form came from."""
        return RationalFunction(self.a * self.c.shift(1), self.b * self.c) * self.z


def gosper_normal_form(ratio: RationalFunction) -> GosperNormalForm:
    z = QN.coerce(ratio.num.lc())
    a = ratio.num.monic()
    b = ratio.den
    c = POLY_K.one()
    for j in dispersion_set(a, b):
        if j == 0:
            continue
        g = poly_gcd(a, b.shift(j))
        if g.degree < 1:
            continue
        a = a.exact_div(g)
        b = b.exact_div(g.shift(-j))
        for i in range(1, j + 1):
            c = c * g.shift(-i)
    return GosperNormalForm(z, a, b, c)


def degree_bound(
    z: RationalFunction, a: Polynomial, b: Polynomial, c: Polynomial, rhs_extra: int = 0
) -> int | None:
    """Largest possible degree of x in z*a(k)*x(k+1) - b(k-1)*x(k) = rhs,
    where deg rhs <= deg c + rhs_extra.  None means no degree works."""
    B = b.shift(-1)
    na, nb = int(a.degree), int(B.degree)
    K = int(c.degree) + rhs_extra
    if na != nb or not (z - 1).is_zero():
        d = K - max(na, nb)
        return d if d >= 0 else None
    if na == 0:
        return max(K + 1, 0)
    candidates = []
    if K - na + 1 >= 0:
        candidates.append(K - na + 1)
    theta = B.coeff(na - 1) - a.coeff(na - 1)
    if theta.is_constant():
        tv = theta.constant_value()
        if tv.denominator == 1 and tv >= 0:
            candidates.append(int(tv))
    return max(candidates) if candidates else None


def parameterized_gosper(
    ratio: RationalFunction, rhs: Sequence[Polynomial]
) -> tuple[GosperNormalForm, int | None, tuple[Polynomial, tuple] | None]:
    """Gosper's step with parameters on the right-hand side.

    Brings the k-shift quotient into normal form, bounds the degree d of a
    polynomial x, and solves

        z * a(k) * x(k+1) - b(k-1) * x(k) = c(k) * sum_j sigma_j * p_j(k)

    for x and constants sigma_j in Q(n), given rhs = [p_0, ..., p_J], as
    one nullspace computation over Z[n]: one ``clear_qn`` multiplier takes
    z*a, b(k-1) and every c*p_j into Z[n][k].  When d is None only x = 0
    can occur; with a single nonzero p_0 the only solution is then
    sigma_0 = 0, and no elimination is run.  Returns the normal form, d,
    and the first solution with some sigma_j nonzero, normalized by
    ``_normalize_solution``, or None.  With rhs [1] this is Gosper's
    equation: sigma is (1,) and the free coefficients of x are zero.
    """
    nf = gosper_normal_form(ratio)
    extra = max(int(p.degree) for p in rhs)
    d = degree_bound(nf.z, nf.a, nf.b, nf.c, rhs_extra=extra)
    if d is None and len(rhs) == 1 and rhs[0]:
        return nf, d, None
    nx = 0 if d is None else d + 1
    parts = [nf.a.mul_ground(nf.z), nf.b.shift(-1)] + [nf.c * p for p in rhs]
    cleared = iter(clear_qn([c for p in parts for c in p.coeffs]))
    za, B, *cps = [Polynomial("k", ZN, [next(cleared) for _ in p.coeffs]) for p in parts]
    k = Polynomial("k", ZN, (ZN.zero(), ZN.one()))
    cols = [za * (k + 1)**i - B * k**i for i in range(nx)] + [-cp for cp in cps]
    height = max(int(col.degree) for col in cols if col) + 1
    matrix = [[col.coeff(r) for col in cols] for r in range(height)]
    for vec in nullspace(matrix, ncols=len(cols)):
        if any(vec[nx:]):
            return nf, d, _normalize_solution(vec[:nx], vec[nx:])
    return nf, d, None


def _normalize_solution(x: list[ZnPoly], sigma: list[ZnPoly]) -> tuple[Polynomial, tuple]:
    """(x, sigma) in Z[n] divided by the one k-free scale that makes sigma, cut
    after its last nonzero entry, primitive with a positive top lead; x in Q(n)[k]."""
    while not sigma[-1]:
        sigma = sigma[:-1]
    prim = _zn_primitive_part(sigma)
    scale = ZN.exact_div(sigma[-1], prim[-1]).to_poly()
    return Polynomial("k", QN, [RationalFunction(v.to_poly(), scale) for v in x]), tuple(prim)


@dataclass(frozen=True)
class GosperCertificate:
    """Antidifference certificate: G = R * F satisfies G(k+1) - G(k) = F(k)."""

    term: HyperTerm
    ratio: RationalFunction
    normal_form: GosperNormalForm
    x: Polynomial
    certificate: RationalFunction

    def antidifference(self) -> HyperTerm:
        return self.term.scale_rational(self.certificate)

    def check(self) -> bool:
        """Exact soundness: R(k+1) * r(k) - R(k) = 1, the telescoping
        identity with the single coefficient sigma_0 = 1."""
        return telescoping_identity(self.term, (POLY_N.one(),), self.certificate)

    def text(self) -> str:
        return f"R(n,k) = {ratfun_to_text(self.certificate)}"

    def record(self) -> dict:
        nf = self.normal_form
        return {
            "x": ratfun_to_record(RationalFunction(self.x)),
            "a": ratfun_to_record(RationalFunction(nf.a)),
            "b": ratfun_to_record(RationalFunction(nf.b)),
            "c": ratfun_to_record(RationalFunction(nf.c)),
            "z": ratfun_to_record(RationalFunction(POLY_K.constant(nf.z))),
            "R": ratfun_to_record(self.certificate),
        }


def gosper_antidifference(
    term: HyperTerm, binding: ParamBinding | None = None
) -> GosperCertificate:
    """Decide indefinite summability of the term; raises NotSummableError."""
    t = term.bind(binding)
    t.require_bound()
    ratio = shift_quotient(t, "k")
    nf, d, solution = parameterized_gosper(ratio, [POLY_K.one()])
    if d is None:
        raise NotSummableError(
            f"degree bound rules out a polynomial solution for {term_to_string(t)}"
        )
    if solution is None:
        raise NotSummableError(
            f"no polynomial solution up to degree {d} for {term_to_string(t)}"
        )
    x = solution[0]
    cert = RationalFunction(nf.b.shift(-1) * x, nf.c)
    result = GosperCertificate(t, ratio, nf, x, cert)
    if not result.check():
        raise AssertionError("internal error: certificate failed its own check")
    return result


def telescoped_sum(cert: GosperCertificate, n: int, lo: int, hi: int) -> Fraction:
    """Sum of F(k) for lo <= k <= hi via G(hi+1) - G(lo)."""
    if hi < lo:
        return Fraction(0)
    g = cert.antidifference()
    return eval_term(g, n, hi + 1) - eval_term(g, n, lo)
