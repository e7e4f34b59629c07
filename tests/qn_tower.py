"""Constructors and evaluators in the Q(n)(k) tower, for the tests only."""

from __future__ import annotations

from fractions import Fraction

from telesum.polynomials import (
    POLY_K,
    QN,
    QQ,
    FractionField,
    Polynomial,
    RationalFunction,
    clear_qnk_pair,
)

QNK = FractionField(POLY_K)


def k_poly(*coeffs) -> Polynomial:
    """Polynomial in k over Q(n); coefficients may be ints, Fractions,
    polynomials in n, or Q(n) elements."""
    lifted = []
    for c in coeffs:
        if isinstance(c, RationalFunction):
            lifted.append(QN.coerce(c))
        elif isinstance(c, Polynomial):
            lifted.append(RationalFunction(c))
        else:
            lifted.append(QN.coerce(Fraction(c)))
    return Polynomial("k", QN, lifted)


def qnk(num: Polynomial, den: Polynomial | None = None) -> RationalFunction:
    return RationalFunction(num, den)


def eval_qn(value: RationalFunction, n: int) -> Fraction:
    """Evaluate a Q(n) element at an integer; raises ZeroDivisionError on a pole."""
    return value.evaluate(Fraction(n))


def eval_qnk(value: RationalFunction, n: int, k: int) -> Fraction:
    """Evaluate a Q(n)(k) element at integers; raises ZeroDivisionError on a pole.

    Evaluation happens on the denominator-cleared bivariate form, so a pole
    is reported only where the reduced quotient genuinely has one.
    """
    num, den = clear_qnk_pair(value)
    nf, kf = Fraction(n), Fraction(k)
    dval = den.map_coeffs(lambda c: c.evaluate(nf), QQ).evaluate(kf)
    if not dval:
        raise ZeroDivisionError(f"pole at (n, k) = ({n}, {k})")
    nval = num.map_coeffs(lambda c: c.evaluate(nf), QQ).evaluate(kf)
    return nval / dval
