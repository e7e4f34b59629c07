"""Creative telescoping: linear recurrences for definite hypergeometric sums.

For a bivariate term F(n, k) this finds polynomials sigma_0..sigma_J in n
and a rational certificate R(n, k) with

    sum_j sigma_j(n) F(n+j, k) = G(n, k+1) - G(n, k),   G = R * F,

verified exactly as an identity in Z[n][k], at one Kronecker point.  Summing
over k then turns the right side into boundary terms; when the summand
vanishes outside its natural support the sum w(n) = sum_k F(n, k) satisfies
sum_j sigma_j w(n+j) = 0.

The search calls gosper.gosper_step, the one Gosper step, on the factored
shift quotients (``FactoredRatio``) T_j = F(n+j, k)/F(n, k), j = 0..J,
increasing the order J until the homogeneous system has a solution that
actually involves the sigma's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .gosper import gosper_step
from .hyperterm import (
    BinomialFactor,
    FactorialFactor,
    HyperTerm,
    factored_shift_pair,
)
from .polynomials import FactoredRatio, Polynomial, RationalFunction, ZnPoly
from .serialize import _npoly_string, npoly_to_list, ratfun_to_record, ratfun_to_text
from .verify import _exact_sum, telescoping_identity


class NoRecurrenceFound(Exception):
    def __init__(self, max_order: int) -> None:
        super().__init__(
            f"no telescoping recurrence of order <= {max_order}; "
            "raise the order limit to search further"
        )
        self.max_order = max_order


class BoundaryCheckError(Exception):
    """The summand does not vanish at the edge of the scanned k-window."""


class RecurrenceCheckError(Exception):
    pass


@dataclass(frozen=True)
class Recurrence:
    """sum_j coeffs[j](n) * w(n+j) = 0 (or a supplied right-hand side).

    Coefficients are ``ZnPoly``s, in Z[n]; from ``creative_telescope`` they
    have joint content 1, and the top one is nonzero with a positive leading
    integer.
    """

    coeffs: tuple[ZnPoly, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def apply(self, values: Mapping[int, Fraction] | Callable[[int], Fraction], n: int) -> Fraction:
        get = values.__getitem__ if hasattr(values, "__getitem__") else values
        total = Fraction(0)
        for j, c in enumerate(self.coeffs):
            cv = c(n)
            if cv:
                total += cv * get(n + j)
        return total

    def to_text(self, rhs: str = "0") -> str:
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            arg = "n" if j == 0 else f"n+{j}"
            parts.append(f"({_npoly_string(c)})*w({arg})")
        return " + ".join(parts) + f" = {rhs}"

    def record(self) -> dict:
        return {"order": self.order, "sigma": [npoly_to_list(c) for c in self.coeffs]}


def operator_equal(r1: Recurrence, r2: Recurrence) -> bool:
    """Normalized recurrences are canonical, so equality is structural."""
    return r1.coeffs == r2.coeffs


@dataclass(frozen=True)
class TelescopingCertificate:
    """Recurrence plus rational certificate, checkable without re-running."""

    term: HyperTerm
    recurrence: Recurrence
    certificate_pair: tuple[Polynomial, Polynomial]

    @property
    def certificate(self) -> RationalFunction:
        """R, built when read from its pair (P, Q) of ``zn_reduced``."""
        return RationalFunction(*self.certificate_pair)

    def companion(self) -> HyperTerm:
        """G = R * F, the telescoped partner of the summand."""
        return self.term.scale_rational(self.certificate_pair)

    def check(self) -> bool:
        """Exact identity sum_j sigma_j t_j = R(k+1) r(k) - R(k), where
        t_j = F(n+j,k)/F(n,k) and r is the k-shift quotient of F, checked in
        Z[n][k] at one Kronecker point by verify.telescoping_identity."""
        return telescoping_identity(self.term, self.recurrence.coeffs, self.certificate_pair)

    def text(self) -> str:
        return (
            self.recurrence.to_text()
            + f"\nR(n,k) = {ratfun_to_text(self.certificate_pair)}"
        )

    def record(self) -> dict:
        rec = self.recurrence.record()
        rec["R"] = ratfun_to_record(self.certificate_pair)
        return rec


def creative_telescope(term: HyperTerm, max_order: int = 6) -> TelescopingCertificate:
    """Minimal-order telescoping recurrence for the term, tried in
    ascending order up to max_order; raises NoRecurrenceFound."""
    r_k = factored_shift_pair(term, "k")
    r_n = factored_shift_pair(term, "n")
    t_list = [FactoredRatio()]
    for order in range(1, max_order + 1):
        t_list.append((t_list[-1] * r_n.shift_n(order - 1)).cancelled())
        _, _, found = gosper_step(term, r_k, r_n, t_list)
        if found is not None:
            _, _, sigma, pair = found
            return TelescopingCertificate(term, Recurrence(sigma), pair)
    raise NoRecurrenceFound(max_order)


def _nonnegative(coeff_k: int, const: int) -> tuple[int | None, int | None] | None:
    """The k-interval where coeff_k*k + const >= 0 (None bounds are open)."""
    if coeff_k == 0:
        return (None, None) if const >= 0 else None
    if coeff_k > 0:
        return (-(const // coeff_k), None)
    return (None, const // -coeff_k)


def _meet(x, y):
    if x is None or y is None:
        return None
    los = [v for v in (x[0], y[0]) if v is not None]
    his = [v for v in (x[1], y[1]) if v is not None]
    lo = max(los) if los else None
    hi = min(his) if his else None
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


def natural_support(term: HyperTerm, n: int) -> list[tuple[int | None, int | None]]:
    """Disjoint k-intervals outside which the bound term is zero at this n.

    They come from the factors' integer-linear arguments: binom(a, b) is
    zero where b < 0 or 0 <= a < b, so a numerator binomial is nonzero only
    on {b >= 0, a < 0} or {b >= 0, a >= b}; a factorial at a negative
    argument zeroes the term whatever its exponent.  The factors' sets
    intersect.  A bound of None means the interval is open on that side.
    """
    pieces: list = [(None, None)]
    for f, e in term.factors:
        if isinstance(f, BinomialFactor) and e > 0:
            a, b = f.top, f.bottom
            ac = a.coeff_n * n + a.constant
            bc = b.coeff_n * n + b.constant
            b_ok = _nonnegative(b.coeff_k, bc)
            allowed = [
                _meet(b_ok, _nonnegative(-a.coeff_k, -ac - 1)),
                _meet(b_ok, _nonnegative(a.coeff_k - b.coeff_k, ac - bc)),
            ]
        elif isinstance(f, FactorialFactor):
            allowed = [_nonnegative(f.arg.coeff_k, f.arg.coeff_n * n + f.arg.constant)]
        else:
            continue
        pieces = [m for x in pieces for y in allowed if (m := _meet(x, y)) is not None]
    return pieces


def natural_sum(term: HyperTerm, n: int) -> Fraction:
    """sum_k F(n, k) over the term's natural support (see natural_support).

    Raises BoundaryCheckError when that support is unbounded in k.
    """
    pair = term.evaluator().pair
    pieces = natural_support(term, n)
    for lo, hi in pieces:
        if lo is None or hi is None:
            raise BoundaryCheckError(
                f"the factors leave the support in k unbounded at n = {n}; "
                "no natural support edge found"
            )
    return _exact_sum(pair(n, k) for lo, hi in pieces for k in range(lo, hi + 1))


def sum_recurrence_natural(
    term: HyperTerm,
    recurrence: Recurrence,
    n_lo: int = 0,
    n_hi: int = 25,
    rhs: Callable[[int], Fraction] | None = None,
) -> dict[int, Fraction]:
    """Check the recurrence against exact natural-support sums of the term.

    Returns the table of sums on success; raises RecurrenceCheckError at
    the first violated instance and BoundaryCheckError if the summand has
    no finite natural support.
    """
    values = {n: natural_sum(term, n) for n in range(n_lo, n_hi + recurrence.order + 1)}
    for n in range(n_lo, n_hi + 1):
        want = rhs(n) if rhs is not None else Fraction(0)
        got = recurrence.apply(values, n)
        if got != want:
            raise RecurrenceCheckError(f"recurrence fails at n = {n}: got {got}, expected {want}")
    return values
