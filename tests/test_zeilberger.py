"""Creative telescoping: recurrence discovery and certificate checking."""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest

from telesum import gosper, linalg, polynomials
from telesum.gosper import _normalize_solution
from telesum.hyperterm import binomial_value, eval_term, parse_term
from telesum.polynomials import Polynomial, ZnPoly
from telesum.verify import oracle_sum
from telesum.zeilberger import (
    BoundaryCheckError,
    NoRecurrenceFound,
    Recurrence,
    RecurrenceCheckError,
    TelescopingCertificate,
    creative_telescope,
    natural_sum,
    natural_support,
    operator_equal,
    sum_recurrence_natural,
)

from qn_tower import QN, n_poly, pair_to_tower, rref_nullspace


def test_binomial_row_sum_recurrence():
    cert = creative_telescope(parse_term("binom(n,k)"))
    rec = cert.recurrence
    assert rec.order == 1
    # w(n+1) = 2 w(n), normalized with positive top coefficient
    assert rec.coeffs[0] == ZnPoly((-2,))
    assert rec.coeffs[1] == ZnPoly((1,))
    assert cert.check()


def test_central_binomial_recurrence():
    cert = creative_telescope(parse_term("binom(n,k)^2"))
    rec = cert.recurrence
    assert rec.order == 1
    # (n+1) w(n+1) = (4n+2) w(n)
    assert rec.coeffs[0] == ZnPoly((-2, -4))
    assert rec.coeffs[1] == ZnPoly((1, 1))
    values = {n: sum(binomial_value(n, k) ** 2 for k in range(n + 1)) for n in range(10)}
    for n in range(8):
        assert rec.apply(values, n) == 0


def test_franel_recurrence():
    cert = creative_telescope(parse_term("binom(n,k)^3"))
    rec = cert.recurrence
    assert rec.order == 2
    # (n+2)^2 w(n+2) - (7n^2+21n+16) w(n+1) - 8(n+1)^2 w(n) = 0
    assert rec.coeffs[2] == ZnPoly((4, 4, 1))
    assert rec.coeffs[1] == ZnPoly((-16, -21, -7))
    assert rec.coeffs[0] == ZnPoly((-8, -16, -8))
    assert cert.check()


def test_franel_values_satisfy_recurrence():
    cert = creative_telescope(parse_term("binom(n,k)^3"))
    franel = [1, 2, 10, 56, 346, 2252]
    values = {n: Fraction(v) for n, v in enumerate(franel)}
    for n in range(len(franel) - 2):
        assert cert.recurrence.apply(values, n) == 0


def test_crux_terms_share_operator():
    c1 = creative_telescope(parse_term("binom(n,k)^2*binom(2k,n)"))
    c2 = creative_telescope(parse_term("binom(n,k)^3"))
    assert operator_equal(c1.recurrence, c2.recurrence)
    assert c1.check() and c2.check()


def test_companion_telescopes_pointwise():
    from telesum.hyperterm import PoleError

    cert = creative_telescope(parse_term("binom(n,k)"))
    f, g = cert.term, cert.companion()
    rec = cert.recurrence
    checked = 0
    for n in range(2, 7):
        for k in range(0, n + 2):
            # the certificate is allowed poles where the summand vanishes
            try:
                rhs = eval_term(g, n, k + 1) - eval_term(g, n, k)
            except PoleError:
                continue
            lhs = sum(
                c(n) * eval_term(f, n + j, k)
                for j, c in enumerate(rec.coeffs)
            )
            assert lhs == rhs
            checked += 1
    assert checked >= 20


def test_inhomogeneous_11899_reduction():
    # the even-weighted product sum satisfies a first-order recurrence
    # with hypergeometric (not zero) right-hand side
    cert = creative_telescope(parse_term("2*binom(2n,k)*binom(2n+1,k)"))
    rec = cert.recurrence
    assert rec.order == 1
    assert rec.coeffs[1] == ZnPoly((3, 5, 2))
    assert rec.coeffs[0] == ZnPoly((-30, -64, -32))
    rhs_term = parse_term("binom(2n,n)^2*(-16n^2-38n-18)/(n+1)")
    t = parse_term("2*binom(2n,k)*binom(2n+1,k)")
    w = {n: oracle_sum(t, n, 0, n) for n in range(0, 14)}
    for n in range(0, 12):
        assert rec.apply(w, n) == eval_term(rhs_term, n, 0)


def test_an_order_zero_certificate_sums_to_its_boundary_terms():
    """The 11897 summand is Gosper-summable: creative telescoping stops at
    order 0 with a true certificate, and the sum over its support k = 0..n+1
    is G(n, n+2) - G(n, 0), G = R*F, not 0."""
    term = parse_term("binom(2k,k)*binom(2n-2k+2,n-k+1)/(k+1)")
    cert = creative_telescope(term)
    assert cert.recurrence.coeffs == (ZnPoly((1,)),) and cert.check()
    g = cert.companion()
    sums = [eval_term(g, n, n + 2) - eval_term(g, n, 0) for n in range(4)]
    assert sums == [natural_sum(term, n) for n in range(4)] == [3, 10, 35, 126]


def test_recurrence_to_text():
    cert = creative_telescope(parse_term("binom(n,k)"))
    assert cert.recurrence.to_text() == "(-2)*w(n) + (1)*w(n+1) = 0"


def test_record_round_trip_certificate():
    from qn_tower import record_value

    cert = creative_telescope(parse_term("binom(n,k)^2"))
    rec = cert.record()
    assert rec["order"] == 1
    r = record_value(rec["R"])
    rebuilt = TelescopingCertificate(cert.term, Recurrence(cert.recurrence.coeffs), (r.num, r.den))
    assert rebuilt.check()


@pytest.mark.parametrize("text", ["binom(n,k)^2", "binom(n,k)^2*binom(n+k,k)^2",
                                  "(-1)^k*binom(2n,n+k)^3"])
def test_record_lifts_to_the_certificate(text):
    from qn_tower import record_value

    cert = creative_telescope(parse_term(text))
    assert record_value(cert.record()["R"]) == cert.certificate


def test_no_recurrence_at_insufficient_order():
    with pytest.raises(NoRecurrenceFound) as info:
        creative_telescope(parse_term("binom(n,k)^3"), max_order=1)
    assert info.value.max_order == 1


def test_normalized_sigmas_have_a_positive_top_and_scale_x_to_match():
    # the sigmas -2, 0, -4n/(n+1) (and a zero top) over their denominator n+1,
    # as the Z[n] nullspace returns them
    sigmas = [ZnPoly((-2, -2)), ZnPoly(), ZnPoly((0, -4)), ZnPoly()]
    xs = [ZnPoly((6,)), ZnPoly(), ZnPoly((1, 0, 3))]
    rows, scale, coeffs = _normalize_solution(xs, sigmas)
    x = pair_to_tower(Polynomial(rows), Polynomial((scale,))).num
    assert coeffs == (ZnPoly((1, 1)), ZnPoly(), ZnPoly((0, 2)))
    assert all(type(c) is ZnPoly for c in coeffs)
    # one k-free scale for x and sigma: x_i * sigma_j is unchanged up to it
    for s, c in zip(sigmas, coeffs):
        for i, v in enumerate(xs):
            assert QN.coerce(s) * x.coeff(i) == QN.coerce(c * v)
    half = Fraction(-1, 2)
    assert x.coeffs == (QN.from_int(-3), QN.zero(), QN.coerce(n_poly(half, 0, 3 * half)))
    # Gosper's single sigma always normalizes to 1
    rows, scale, coeffs = _normalize_solution([ZnPoly((4,))], [ZnPoly((0, -2))])
    x = pair_to_tower(Polynomial(rows), Polynomial((scale,))).num
    assert coeffs == (ZnPoly((1,)),)
    assert x.coeffs == (QN.coerce(ZnPoly((-2,))) / QN.coerce(ZnPoly((0, 1))),)


def test_fifth_power_has_no_recurrence_up_to_order_2():
    # binom(n,k)^5 needs order 3; its normal form is (k-n-2)^5 against (k+1)^5
    with pytest.raises(NoRecurrenceFound) as info:
        creative_telescope(parse_term("binom(n,k)^5"), max_order=2)
    assert info.value.max_order == 2


def _count_bareiss(monkeypatch) -> list:
    """The sizes of the exact eliminations run from now on (``bareiss`` is in
    polynomials, for ``resultant``)."""
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    real = polynomials.bareiss
    monkeypatch.setattr(polynomials, "bareiss", counted)
    return calls


@pytest.mark.parametrize("text, max_order", [("binom(n,k)^7", 3), ("binom(n,k)^5", 2)])
def test_refused_orders_run_no_exact_elimination(text, max_order, monkeypatch):
    # every order's system has full column rank at the modular point
    calls = _count_bareiss(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(NoRecurrenceFound) as info:
        creative_telescope(parse_term(text), max_order=max_order)
    assert time.perf_counter() - start < 0.5
    assert str(info.value) == (f"no telescoping recurrence of order <= {max_order}; "
                               "raise the order limit to search further")
    assert calls == []


def test_the_order_with_a_solution_runs_no_exact_elimination(monkeypatch):
    calls = _count_bareiss(monkeypatch)
    systems = []

    def spy(matrix, ncols=None):
        systems.append((matrix, ncols, linalg.nullspace(matrix, ncols)))
        return systems[-1][2]

    monkeypatch.setattr(gosper, "nullspace", spy)
    cert = creative_telescope(parse_term("binom(n,k)^4"))
    assert cert.recurrence.order == 2 and cert.check()
    assert calls == []
    # the solvable 9 x 9 system: the one Q(n) vector, primitive in Z[n], of
    # n-degree 7 (Cramer's rule gives it n-degree 30)
    matrix, ncols, basis = systems[-1]
    assert (len(matrix), ncols, len(basis)) == (9, 9, 1)
    free = QN.coerce(basis[0][-1])
    assert [[QN.coerce(e) / free for e in basis[0]]] == rref_nullspace(matrix, ncols)
    assert max(len(e) for e in basis[0]) - 1 == 7


@pytest.mark.parametrize("text, max_order, seconds", [("binom(n,k)^6", 3, 5.0),
                                                      ("binom(n,k)^7", 4, 10.0)])
def test_hard_powers_are_solved_by_the_modular_nullspace(text, max_order, seconds):
    # the exact Z[n] elimination took 1.3 s and 22 s on these
    start = time.perf_counter()
    cert = creative_telescope(parse_term(text), max_order=max_order)
    assert time.perf_counter() - start < seconds
    assert cert.recurrence.order == max_order and cert.check()
    sum_recurrence_natural(cert.term, cert.recurrence, n_hi=20)


def test_fifth_power_recurrence_of_order_3():
    cert = creative_telescope(parse_term("binom(n,k)^5"), max_order=3)
    assert cert.recurrence.order == 3
    assert cert.check()
    sum_recurrence_natural(cert.term, cert.recurrence, n_hi=25)


def _rows(*rows):
    return [[str(c) for c in row] for row in rows]


FRANEL_SIGMA = _rows([-8, -16, -8], [-16, -21, -7], [4, 4, 1])
DEN_2 = _rows([4, 12, 13, 6, 1], [-12, -26, -18, -4], [13, 18, 6], [-6, -4], [1])


# Records taken from the solver before its gcds and eliminations moved to Z[n].
@pytest.mark.parametrize(
    "text, expected",
    [
        ("binom(n,k)^3", {
            "order": 2, "sigma": FRANEL_SIGMA,
            "R": {
                "num": _rows([0], [0], [0], [-72, -272, -402, -290, -102, -14],
                             [78, 249, 291, 147, 27], [-30, -78, -66, -18], [4, 8, 4]),
                "den": _rows([8, 36, 66, 63, 33, 9, 1], [-36, -132, -189, -132, -45, -6],
                             [66, 189, 198, 90, 15], [-63, -132, -90, -20], [33, 45, 15],
                             [-9, -6], [1]),
            },
        }),
        ("binom(n,k)^2*binom(2*k,n)", {
            "order": 2, "sigma": FRANEL_SIGMA,
            "R": {
                "num": _rows([0], [0], [0, -6, -15, -12, -3], [12, 44, 46, 14],
                             [-28, -48, -20], [8, 8]),
                "den": DEN_2,
            },
        }),
        ("binom(n,k)^2*binom(n+k,k)^2", {
            "order": 2,
            "sigma": _rows([1, 3, 3, 1], [-117, -231, -153, -34], [8, 12, 6, 1]),
            "R": {
                "num": _rows([0], [0], [0], [0], [-96, -208, -144, -32], [-36, -24], [24, 16]),
                "den": DEN_2,
            },
        }),
        ("binom(n,k)^4", {
            "order": 2,
            "sigma": _rows([-60, -188, -192, -64], [-42, -82, -54, -12], [8, 12, 6, 1]),
            "R": {
                "num": _rows([0], [0], [0], [0],
                             [-1080, -5380, -11330, -13075, -8930, -3610, -800, -75],
                             [2256, 9776, 17412, 16312, 8476, 2316, 260],
                             [-1980, -7302, -10620, -7612, -2688, -374],
                             [900, 2744, 3088, 1520, 276], [-210, -508, -402, -104],
                             [20, 36, 16]),
                "den": _rows([16, 96, 248, 360, 321, 180, 62, 12, 1],
                             [-96, -496, -1080, -1284, -900, -372, -84, -8],
                             [248, 1080, 1926, 1800, 930, 252, 28],
                             [-360, -1284, -1800, -1240, -420, -56],
                             [321, 900, 930, 420, 70], [-180, -372, -252, -56],
                             [62, 84, 28], [-12, -8], [1]),
            },
        }),
    ],
)
def test_ladder_record_values(text, expected):
    assert creative_telescope(parse_term(text)).record() == expected


def test_natural_sum_binomial_row():
    t = parse_term("binom(n,k)")
    for n in range(8):
        assert natural_sum(t, n) == 2**n


@pytest.mark.parametrize("text", ["binom(n,k)/(1-2k)", "binom(2n,k)/fact(k)*(k-2n-1)"])
def test_natural_sum_is_the_fraction_loop(text):
    t = parse_term(text)
    for n in range(8):
        total = Fraction(0)
        for k in range(0, 2 * n + 1):
            total += eval_term(t, n, k)
        assert natural_sum(t, n) == total


def test_natural_sum_unbounded_support_raises():
    t = parse_term("2^k")
    with pytest.raises(BoundaryCheckError):
        natural_sum(t, 0)


def test_natural_sum_support_starting_past_k_16():
    # the support of binom(2k,n) begins at k = ceil(n/2), beyond 16 for n >= 33
    t = parse_term("binom(n,k)^2*binom(2k,n)")
    assert natural_sum(t, 33) == 6988453515115800846190860404
    for n in range(33, 37):
        assert natural_sum(t, n) == oracle_sum(t, n, 0, n)


@pytest.mark.parametrize(
    "text",
    [
        "binom(n,k)^2*binom(2k,n)",
        "binom(2n,n+k)*binom(2n,n-k)",  # support reaches negative k
        "binom(n,2k)*fact(n-k)",
        "fact(n-k)*fact(k)/fact(n)",
        "binom(n+2,k+1)*binom(n,k-1)*2^k",
    ],
)
def test_natural_sum_matches_a_wide_window(text):
    t = parse_term(text)
    for n in range(0, 9):
        assert natural_sum(t, n) == oracle_sum(t, n, -3 * n - 10, 3 * n + 10), n


def test_natural_support_intervals():
    assert natural_support(parse_term("binom(n,k)^2*binom(2k,n)"), 7) == [(4, 7)]
    assert natural_support(parse_term("binom(m,k)*binom(n,p-k)", {"m": 4, "p": 3}), 1) == [
        (2, 3)
    ]
    # a negative top keeps its terms, and a factorial cuts them off
    assert natural_support(parse_term("binom(k-5,k)*fact(3-k)"), 0) == [(0, 3)]
    assert natural_support(parse_term("binom(n,k)/binom(n+k,k)"), 2) == [(0, 2)]
    assert natural_support(parse_term("binom(n,2)"), 1) == []


def test_natural_sum_skips_poles_outside_the_support():
    t = parse_term("binom(n,k)/(k+1)")
    assert natural_sum(t, 3) == Fraction(15, 4)


@pytest.mark.parametrize("text", ["binom(-n-1,k)", "binom(2k,n)"])
def test_natural_sum_unbounded_support_raises_before_summing(text):
    # binom(2k,n) is nonzero on two unbounded rays, k < 0 and k >= n/2
    with pytest.raises(BoundaryCheckError):
        natural_sum(parse_term(text), 3)


def test_sum_recurrence_natural_table():
    cert = creative_telescope(parse_term("binom(n,k)^3"))
    table = sum_recurrence_natural(parse_term("binom(n,k)^3"), cert.recurrence, n_hi=10)
    assert table[0] == 1
    assert table[5] == 2252


def test_sum_recurrence_natural_detects_wrong_operator():
    wrong = Recurrence((ZnPoly((-3,)), ZnPoly((1,))))  # claims w(n+1) = 3 w(n)
    with pytest.raises(RecurrenceCheckError):
        sum_recurrence_natural(parse_term("binom(n,k)"), wrong, n_hi=6)


def test_vandermonde_with_bound_parameter():
    # sum_k binom(m,k) binom(n, p-k) = binom(m+n, p) at fixed m, p
    t = parse_term("binom(m,k)*binom(n,p-k)", {"m": 4, "p": 3})
    cert = creative_telescope(t)
    assert cert.check()
    w = {n: natural_sum(t, n) for n in range(0, cert.recurrence.order + 9)}
    for n in range(0, 8):
        assert cert.recurrence.apply(w, n) == 0
        assert w[n] == binomial_value(4 + n, 3)


def test_dixon_sum_recurrence_and_values():
    # Dixon: sum_k (-1)^k binom(2n,n+k)^3 = (3n)!/n!^3
    term = parse_term("(-1)^k*binom(2n,n+k)^3")
    cert = creative_telescope(term)
    assert cert.check()
    # (n+1)^2 w(n+1) = 3(3n+1)(3n+2) w(n)
    assert cert.recurrence.coeffs == (ZnPoly((-6, -27, -27)), ZnPoly((1, 2, 1)))
    values = sum_recurrence_natural(term, cert.recurrence, n_hi=12)
    for n in range(13):
        assert values[n] == math.factorial(3 * n) // math.factorial(n) ** 3


def test_alternating_cubes_recurrence_matches_natural_sums():
    term = parse_term("(-1)^k*binom(n,k)^3")
    cert = creative_telescope(term)
    assert cert.recurrence.coeffs == (ZnPoly((24, 54, 27)), ZnPoly((0,)), ZnPoly((4, 4, 1)))
    values = sum_recurrence_natural(term, cert.recurrence, n_hi=12)
    # zero at odd n, (-1)^m (3m)!/m!^3 at n = 2m
    for m in range(7):
        assert values[2 * m] == (-1) ** m * math.factorial(3 * m) // math.factorial(m) ** 3
        assert values[2 * m + 1] == 0


def test_kummer_type_alternating_squares():
    # sum_k (-1)^k binom(2n,k)^2 = (-1)^n binom(2n,n)
    term = parse_term("(-1)^k*binom(2n,k)^2")
    cert = creative_telescope(term)
    assert cert.recurrence.coeffs == (ZnPoly((2, 4)), ZnPoly((1, 1)))
    values = sum_recurrence_natural(term, cert.recurrence, n_hi=12)
    for n in range(13):
        assert values[n] == (-1) ** n * binomial_value(2 * n, n)
