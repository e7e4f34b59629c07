"""Independent verification layer: brute-force oracles and exact
certificate checks used to confirm every identity the engine handles.

Nothing here trusts the solvers.  Sums are evaluated term by term in
exact integers over one running denominator; telescoping claims are
re-checked as polynomial identities in Z[n][k] on the certificate's integer
pair, at one Kronecker point (``zn_identity``), which needs no gcd and no
product polynomial; auxiliary parameters are bound to integers before checking.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .hyperterm import (
    HyperTerm,
    ParamBinding,
    binomial_value,
    eval_term,
    factored_shift_pair,
    ratio_rational,
    term_ratio_is_one,
)
from .polynomials import FactoredRatio, Polynomial, ZnPoly, zn_identity


class VerificationError(Exception):
    pass


def _pair_sum(
    pairs: Iterable[tuple[int, int]], total: int = 0, common: int = 1,
    running: list[tuple[int, int]] | None = None,
) -> tuple[int, int]:
    """total/common plus the sum of num/den over int pairs (num, den),
    den != 0, as one int pair (total, common): a running numerator over one
    common denominator, a plain int add for a pair over it, and an lcm by one
    gcd for any other.  Each running sum is appended to running when it is
    given."""
    for num, den in pairs:
        if den == common:
            total += num
        else:
            g = math.gcd(common, den)
            total = total * (den // g) + num * (common // g)
            common = common // g * den
        if running is not None:
            running.append((total, common))
    return total, common


def _exact_sum(pairs: Iterable[tuple[int, int]]) -> Fraction:
    """The exact sum of num/den over int pairs (num, den), den != 0, by
    ``_pair_sum``, and one Fraction at the end."""
    return Fraction(*_pair_sum(pairs))


def oracle_sum(term: HyperTerm, n: int, k_lo: int, k_hi: int) -> Fraction:
    """Plain exact summation over an explicit k-range; the ground truth: the
    term's ``TermEvaluator.pair`` values, added by ``_exact_sum``."""
    if k_hi < k_lo:
        return Fraction(0)
    pair = term.evaluator().pair
    return _exact_sum(pair(n, k) for k in range(k_lo, k_hi + 1))


def telescoping_identity(
    term: HyperTerm, coeffs: Sequence[ZnPoly], certificate: tuple[Polynomial, Polynomial],
    r_k: FactoredRatio | None = None, r_n: FactoredRatio | None = None,
) -> bool:
    """Exact identity sum_j sigma_j(n) T_j = R(k+1) r_k - R for a bound term F,
    with T_j = F(n+j,k)/F(n,k) = prod_{i<j} r_n(n+i, k), r_k and r_n the
    shift quotients of F, sigma_j = coeffs[j] and R the certificate.

    With r_k = A/B, r_n = C/D (``factored_shift_pair``), R = P/Q and sigma_j
    in Z[n], the left side is L/Delta, Delta = prod_{i<J} D(n+i), J =
    len(coeffs) - 1, L = sum_j sigma_j prod_{i<j} C(n+i) prod_{j<=i<J} D(n+i)
    (by Horner's rule).  B, Q, Delta != 0 in the domain Z[n][k], so the
    identity holds exactly when
    (L*Q + Delta*P) * B*Q(k+1) = Delta*A*P(k+1) * Q,
    which ``zn_identity`` decides from the factors.  A solver that holds r_k
    and r_n passes them; otherwise they are built."""
    p, q = certificate
    sigmas = [Polynomial((s,)) for s in coeffs] or [Polynomial(())]
    r_k = r_k or factored_shift_pair(term, "k")
    r_n = (r_n or factored_shift_pair(term, "n")) if len(coeffs) > 1 else None

    def sides(at):
        (a, b), p_at, q_at = at(r_k), at(p), at(q)
        lhs, delta, rising = at(sigmas[0]), 1, 1
        for i, s in enumerate(sigmas[1:]):
            c, d = at(r_n, i)
            rising = rising * c
            lhs, delta = lhs * d + at(s) * rising, delta * d
        return ((lhs * q_at + delta * p_at) * (b * at(q, 0, 1)),
                delta * q_at * (a * at(p, 0, 1)))

    return zn_identity(sides)


@dataclass(frozen=True)
class WZPair:
    """Summand f with companion g certifying an n-operator applied to f.

    coeffs[j], in Z[n], multiplies f(n+j, k); the pair is valid when
    sum_j coeffs[j](n) f(n+j,k) = g(n,k+1) - g(n,k) identically.  An
    operator with rational coefficients is cleared first: times an integer
    e, with g times e too, the identity holds exactly when it held before.
    """

    f: HyperTerm
    g: HyperTerm
    coeffs: tuple[ZnPoly, ...]

    def check(self) -> bool:
        """The exact identity sum_j coeffs[j](n) f(n+j, k) = g(n, k+1) - g(n, k).

        g must be a rational multiple of f (the same factor structure);
        divided through by f, this is ``telescoping_identity`` with R = g/f."""
        self.g.require_bound()
        return telescoping_identity(self.f, self.coeffs, ratio_rational(self.g, self.f))

    def vanishes_at_k(self, k0: int, n_lo: int = 0, n_hi: int = 12) -> bool:
        """g(n, k0) = 0: structurally when the substituted prefactor dies,
        otherwise confirmed on a range of concrete n."""
        self.g.require_bound()
        fixed = self.g.subst_k(k0)
        if not fixed.prefactor[0]:
            return True
        return all(eval_term(fixed, n, 0) == 0 for n in range(n_lo, n_hi + 1))


def check_boundary_couple(
    f1: HyperTerm,
    g1: HyperTerm,
    upper1: str,
    f2: HyperTerm,
    g2: HyperTerm,
    upper2: str,
    coeffs: tuple[ZnPoly, ...],
    rhs: HyperTerm,
    binding: ParamBinding,
    n_lo: int = 1,
    n_hi: int = 12,
) -> None:
    """Two sums with parameter-valued upper limits satisfying one
    inhomogeneous first-order equation, hence equal once initial values
    agree.

    For each member: the telescoping identity holds exactly, the
    companion vanishes at k = 0, and its value at the upper limit equals
    the common right-hand side.  Both boundary values are matched to each
    other and to rhs as whole terms in n.  Finally the two sums are
    compared directly over n_lo..n_hi.  Raises VerificationError.
    """
    hi1 = int(binding[upper1])
    hi2 = int(binding[upper2])
    pair1 = WZPair(f1.bind(binding), g1.bind(binding), coeffs)
    pair2 = WZPair(f2.bind(binding), g2.bind(binding), coeffs)
    if not pair1.check():
        raise VerificationError(f"telescoping fails for the first member at {binding}")
    if not pair2.check():
        raise VerificationError(f"telescoping fails for the second member at {binding}")
    if not pair1.vanishes_at_k(0, n_lo=n_lo, n_hi=n_hi):
        raise VerificationError(f"first companion nonzero at k = 0 at {binding}")
    if not pair2.vanishes_at_k(0, n_lo=n_lo, n_hi=n_hi):
        raise VerificationError(f"second companion nonzero at k = 0 at {binding}")
    b1 = pair1.g.subst_k(hi1)
    b2 = pair2.g.subst_k(hi2)
    rhs_b = rhs.bind(binding)
    if not term_ratio_is_one(b1, b2):
        raise VerificationError(f"boundary values disagree at {binding}")
    if not term_ratio_is_one(b1, rhs_b):
        raise VerificationError(
            f"boundary value differs from the stated right-hand side at {binding}"
        )
    for n in range(n_lo, n_hi + 1):
        s1 = oracle_sum(pair1.f, n, 0, hi1 - 1)
        s2 = oracle_sum(pair2.f, n, 0, hi2 - 1)
        if s1 != s2:
            raise VerificationError(
                f"sums disagree at n = {n}, {binding}: {s1} vs {s2}"
            )
        lhs_rec = sum(
            c(n) * oracle_sum(pair1.f, n + j, 0, hi1 - 1)
            for j, c in enumerate(coeffs)
        )
        if lhs_rec != eval_term(rhs_b, n, 0):
            raise VerificationError(
                f"difference equation fails at n = {n}, {binding}"
            )


# ---------------------------------------------------------------------------
# sequences for the generic double-sum transform


@dataclass(frozen=True)
class SequenceSpec:
    """A named sequence a_0, a_1, ... with a hard validity bound.

    ``scaled`` holds the values as integers over one common positive
    denominator, computed once here so that transform checks can run on
    integer sums.
    """

    name: str
    length: int
    _values: tuple[Fraction, ...]
    scaled: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        den = math.lcm(*(v.denominator for v in self._values))
        scaled = tuple(v.numerator * (den // v.denominator) for v in self._values)
        object.__setattr__(self, "scaled", scaled)

    def value(self, i: int) -> Fraction:
        if not 0 <= i < self.length:
            raise IndexError(
                f"sequence {self.name} has no term {i} (length {self.length})"
            )
        return self._values[i]


def catalan_sequence(length: int = 64) -> SequenceSpec:
    vals = [Fraction(binomial_value(2 * i, i), i + 1) for i in range(length)]
    return SequenceSpec("catalan", length, tuple(vals))


def binomial_column_sequence(column: int, length: int = 64) -> SequenceSpec:
    vals = [Fraction(binomial_value(i, column)) for i in range(length)]
    return SequenceSpec(f"binom(i,{column})", length, tuple(vals))


def binomial_row_sequence(row: int, length: int = 64) -> SequenceSpec:
    vals = [Fraction(binomial_value(row, i)) for i in range(length)]
    return SequenceSpec(f"binom({row},i)", length, tuple(vals))


def rational_sequence(name: str, values: Sequence[Fraction | int]) -> SequenceSpec:
    return SequenceSpec(name, len(values), tuple(Fraction(v) for v in values))


def seeded_random_sequences(
    count: int, length: int, seed: int = 11928
) -> list[SequenceSpec]:
    """Deterministic pseudo-random rational sequences for transform tests."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        vals = tuple(
            Fraction(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(length)
        )
        out.append(SequenceSpec(f"random-{seed}-{i}", length, vals))
    return out


def _pascal(top: int) -> dict[int, list[int]]:
    """Rows 0..top of Pascal's triangle by t: rows[t][j] = binom(t, j)."""
    rows, row = {}, [1]
    for t in range(top + 1):
        rows[t], row = row, [1, *map(operator.add, row, row[1:]), 1]
    return rows


def _transform_mismatch(
    a: Sequence[int], points: Sequence[tuple[int, int]], rows: dict[int, list[int]],
    check: Callable[[int], object] | None = None,
) -> tuple[int, int] | None:
    """The first (n, m) where the binomial transform identity fails on the
    int sequence a, or None; check(n + m) runs first at each point with
    n + m >= 0.  b_m(i) = sum_j binom(m,j) a_{i+j} is computed once per m
    and shared by every n, the left side being sum_i binom(n,i) b_m(i)."""
    inner: dict[int, list[int]] = {}
    for n, m in points:
        top = n + m
        if check is not None and top >= 0:
            check(top)
        b = inner.setdefault(m, [])
        for i in range(len(b), n + 1):
            b.append(sum(c * a[i + j] for j, c in enumerate(rows.get(m, ()))))
        lhs = sum(map(operator.mul, rows.get(n, ()), b))
        if lhs != sum(map(operator.mul, rows.get(top, ()), a)):
            return n, m
    return None


def _packed_transform_holds(
    seqs: Sequence[SequenceSpec], points: Sequence[tuple[int, int]], rows: dict[int, list[int]]
) -> bool:
    """True when one pass on a packed sequence proves the transform identity
    for every sequence at every point; False says nothing.

    Entry i of the packed sequence is sum_s a_s(i) 2^(w s), each sequence's
    scaled value a signed digit.  Both sides are linear in the sequence, so
    each packed side is sum_s X_s 2^(w s), X_s that side for sequence s.
    When every row t read has at most t + 1 entries, no side reads past
    index n + m, and |X_s| is at most l1(row n) l1(row m) M on the left and
    l1(row n+m) M on the right, M the largest |a_s(i)| read.  w is the bit
    length of the largest such bound on |lhs_s - rhs_s|, so every digit of
    the packed difference lies strictly between -2^w and 2^w; its lowest
    nonzero digit would have to be a multiple of 2^w, so the packed sides
    are equal only when the sides of every sequence are.  A sequence too
    short for a point, or a longer row, gives False."""
    length = max((n + m for n, m in points), default=-1) + 1
    read = {t for n, m in points for t in (n, m, n + m)}
    if any(seq.length < length for seq in seqs) or any(
            len(rows.get(t, ())) > max(t + 1, 0) for t in read):
        return False
    l1 = {t: sum(map(abs, rows.get(t, ()))) for t in read}
    reach = max((l1[n] * l1[m] + l1[n + m] for n, m in points), default=0)
    biggest = max((abs(v) for seq in seqs for v in seq.scaled[:length]), default=0)
    w = max((reach * biggest).bit_length(), 1)
    packed = [0] * length
    for seq in reversed(seqs):
        packed = [(p << w) + v for p, v in zip(packed, seq.scaled)]
    return _transform_mismatch(packed, points, rows) is None


def _transform_failure(
    seqs: Sequence[SequenceSpec], points: Sequence[tuple[int, int]]
) -> tuple[SequenceSpec, int, int] | None:
    """The first (sequence, n, m), sequences outermost, where the binomial
    transform identity fails, or None.  One Pascal triangle serves all points.
    With more than one sequence, one packed pass (``_packed_transform_holds``)
    proves them all at once; only when it cannot is each sequence checked on
    its own, which finds the failure, or the IndexError of a sequence too
    short, that the sequences in turn meet first."""
    rows = _pascal(max((max(n, m, n + m) for n, m in points), default=-1))
    if len(seqs) > 1 and _packed_transform_holds(seqs, points, rows):
        return None
    for seq in seqs:
        failure = _transform_mismatch(seq.scaled, points, rows, seq.value)
        if failure is not None:
            return seq, *failure
    return None


def check_binomial_transform(seq: SequenceSpec, n: int, m: int) -> bool:
    """sum_{i<=n} sum_{j<=m} binom(n,i) binom(m,j) a_{i+j}
       == sum_{k<=n+m} binom(n+m,k) a_k.

    Both sides are compared on the sequence's integer-scaled values, which
    share one positive denominator, by ``_transform_failure``.
    """
    return _transform_failure([seq], [(n, m)]) is None


def _power_failure(points: Sequence[tuple[int, int]]) -> tuple[int, int] | None:
    """The first (n, m) where the power identity fails, or None.  One Pascal
    triangle serves all points.  With n or m negative both double sums are
    empty, so the identity holds exactly when binom(n+m, n) is 0."""
    rows = _pascal(max((n + m for n, m in points), default=-1))
    for n, m in points:
        if min(n, m) < 0:
            holds = not binomial_value(n + m, n)
        else:  # binom(i+j, n) is 0 for i + j < n
            lhs = sum(rows[n][i] * rows[m][j] * rows[i + j][n]
                      for i in range(n + 1) for j in range(max(n - i, 0), m + 1))
            holds = lhs == rows[n + m][n] << m
        if not holds:
            return n, m
    return None


def check_transform_power_identity(n: int, m: int) -> bool:
    """sum_{i<=n} sum_{j<=m} binom(n,i) binom(m,j) binom(i+j,n)
       == binom(n+m,n) * 2^m, by ``_power_failure``."""
    return _power_failure([(n, m)]) is None


def _lower_triangle_failure(ns: Iterable[int]) -> int | None:
    """The first n where the lower-triangle identity fails, or None.  One
    Pascal triangle serves every n; for n < 0 both sums are empty."""
    ns = list(ns)
    rows = _pascal(2 * max(ns, default=0))
    for n in ns:
        if n < 0:
            continue
        row = rows[n]  # binom(i+j, n) is 0 for i + j < n
        lhs = sum(row[i] * row[j] * rows[i + j][n]
                  for j in range(n + 1) for i in range(max(n - j, 0), j))
        rhs = sum(row[i] * row[j] ** 2 for j in range(n + 1) for i in range(j))
        if lhs != rhs:
            return n
    return None


def check_lower_triangle_identity(n: int) -> bool:
    """sum_{i<j} binom(n,i) binom(n,j) binom(i+j,n)
       == sum_{i<j} binom(n,i) binom(n,j)^2, both over 0 <= i < j <= n,
    by ``_lower_triangle_failure``."""
    return _lower_triangle_failure([n]) is None
