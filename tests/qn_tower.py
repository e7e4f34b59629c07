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
