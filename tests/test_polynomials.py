"""Exact polynomial arithmetic over Z[n], and Q(n)(k) values, against the
nested tower of tests/qn_tower.py, whose own polynomials over Q and Q(n) are
tested here too."""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qn_tower import (
    POLY_K,
    POLY_N,
    QN,
    QNK,
    FieldPoly,
    TowerFunction,
    clear_qn,
    euclid_gcd,
    eval_qn,
    eval_qnk,
    k_poly,
    lift,
    n_poly,
    pair_to_tower,
    qnk,
    to_tower,
    tower_pair,
)
from qn_tower import znk as _znk
from telesum import polynomials
from telesum.polynomials import (
    FactoredRatio,
    Polynomial,
    RationalFunction,
    ZnPoly,
    _Bound,
    _leaf_bound,
    _leaves,
    clear_qnk_pair,
    dispersion_set,
    integer_roots,
    meeting_shifts,
    poly_gcd,
    poly_lcm,
    resultant,
    shift_in_n,
    zn_identity,
    zn_product,
    zn_value,
)


def _np(*coeffs) -> FieldPoly:
    """A polynomial in n over Q, in the tower."""
    return n_poly(*coeffs)


def _zn(*coeffs: int) -> ZnPoly:
    return ZnPoly(coeffs)


def _zk(*coeffs: int) -> Polynomial:
    """A polynomial in k with integer coefficients, in Z[n][k]."""
    return _znk(*((c,) for c in coeffs))


def _cleared(*polys: FieldPoly) -> list[Polynomial]:
    """Polynomials in k over Q(n) times one ``clear_qn`` multiplier, in Z[n][k]."""
    rows = clear_qn([c for p in polys for c in p.coeffs])
    sizes = [0, *itertools.accumulate(len(p.coeffs) for p in polys)]
    return [Polynomial(rows[a:b]) for a, b in zip(sizes, sizes[1:])]


small_ints = st.integers(min_value=-20, max_value=20)
coeff_lists = st.lists(small_ints, min_size=0, max_size=5)
small_znk = st.lists(st.lists(st.integers(-4, 4), max_size=3), max_size=4).map(
    lambda rows: _znk(*rows))


def npoly_strategy():
    """Polynomials in n over Q, in the tower."""
    return coeff_lists.map(lambda cs: POLY_N.poly([Fraction(c) for c in cs]))


# -- construction and basic structure -----------------------------------


def test_trailing_zeros_trimmed():
    p = Polynomial([_zn(1), _zn(2), _zn(0), _zn(0, 0)])
    assert p.degree == 1
    assert p.coeffs == (_zn(1), _zn(2))


def test_zero_polynomial():
    z = Polynomial(())
    assert not z
    assert z.coeff(5) == ZnPoly()
    assert z.lc() == ZnPoly()


def test_degree_and_lc():
    p = _zk(3, 0, 2)
    assert p.degree == 2
    assert p.lc() == _zn(2)
    assert p.coeff(0) == _zn(3)
    assert p.coeff(1) == ZnPoly()


def test_polynomial_immutable():
    p = _zk(1, 2)
    with pytest.raises(AttributeError):
        p.coeffs = ()


def test_mixed_int_arithmetic():
    p = _zk(0, 1)
    assert p + 1 == _zk(1, 1)
    assert 1 + p == _zk(1, 1)
    assert 2 * p == _zk(0, 2)
    assert p - 1 == _zk(-1, 1)
    assert 1 - p == _zk(1, -1)


def test_pow():
    p = _zk(1, 1)
    assert p**0 == _zk(1)
    assert p**3 == _zk(1, 3, 3, 1)


def test_evaluate():
    p = _zk(1, -3, 2)
    assert p.evaluate(0) == _zn(1)
    assert p.evaluate(2) == _zn(3)
    assert p.evaluate(1) == ZnPoly()
    assert _znk((0, 1), (), (1,)).evaluate(-2) == _zn(4, 1)  # k^2 + n at k = -2


def test_shift_matches_composition():
    p = _znk((1, 5), (-3,), (2, 0, -1))
    q = p.shift(4)
    for x in range(-3, 4):
        assert q.evaluate(x) == p.evaluate(x + 4)


# -- division, gcd, lcm --------------------------------------------------


def test_quotient_is_exact_or_none():
    assert _zk(-1, 0, 1).quotient(_zk(1, 1)) == _zk(-1, 1)
    assert _zk(1, 0, 1).quotient(_zk(1, 1)) is None  # a remainder
    assert _zk(1, 1).quotient(_zk(1, 2)) is None  # a coefficient division is not exact
    assert _znk((0, 2), (0, 0, 2)).quotient(_znk((0, 2))) == _znk((1,), (0, 1))
    # coefficient divisions in Z[n] that are not exact: n/(2n), and (n+1)/n
    assert _znk((1,), (0, 1)).quotient(_znk((1,), (0, 2))) is None
    assert _znk((), (1, 1)).quotient(_znk((), (0, 1))) is None
    assert _zk(3).quotient(_zk(1, 1)) is None and _zk().quotient(_zk(1, 1)) == _zk()
    with pytest.raises(ZeroDivisionError):
        _zk(1, 1).quotient(_zk())
    with pytest.raises(ZeroDivisionError):
        _zn(1, 2).quotient(ZnPoly())


@settings(max_examples=60, deadline=None)
@given(small_znk, small_znk.filter(bool), small_znk)
def test_quotient_undoes_a_product(p, q, r):
    assert (p * q).quotient(q) == p
    got = (p * q + r).quotient(q)
    assert got is None or got * q == p * q + r


def test_gcd_basic():
    a = _zk(-1, 1) * _zk(2, 1)
    b = _zk(-1, 1) * _zk(3, 1)
    assert poly_gcd(a, b) == _zk(-1, 1)


def test_gcd_coprime_is_one():
    assert poly_gcd(_zk(1, 1), _zk(2, 1)) == _zk(1)


def test_lcm_product_relation():
    a = _zk(-1, 1) * _zk(2, 1)
    b = _zk(-1, 1) * _zk(3, 1)
    ell = poly_lcm(a, b)
    assert ell.quotient(a) is not None and ell.quotient(b) is not None
    assert ell.degree == 3


@settings(max_examples=60, deadline=None)
@given(small_znk, small_znk)
def test_gcd_divides_both(p, q):
    """The gcd is primitive with a positive leading integer, divides both in
    Z[n][k], and is Euclid's gcd over Q(n) up to a factor in Q(n)."""
    g = poly_gcd(p, q)
    if not g:
        assert not p and not q
        return
    assert math.gcd(*(c for r in g.coeffs for c in r)) == 1 and g.lc()[-1] > 0
    assert p.quotient(g) is not None
    assert q.quotient(g) is not None
    assert lift(g).monic() == euclid_gcd(lift(p), lift(q))
    if p and q:
        assert lift(poly_lcm(p, q)).monic() == (lift(p) * lift(q)).exact_div(lift(g)).monic()


# -- gcd over Q(n) --------------------------------------------------------


def _falling(lc: Polynomial, vanish: int) -> Polynomial:
    """lc times n(n-1)...(n-vanish+1), which is zero at n = 0..vanish-1."""
    for i in range(vanish):
        lc = lc * _np(-i, 1)
    return lc


def qnk_strategy(min_degree: int, max_degree: int):
    """Polynomials in k over Z[n]; the leading coefficient may vanish at
    n = 0, 1, 2, which makes those points bad for a gcd by specialization."""
    zn = st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=3)
    return st.builds(
        lambda rows, vanish: k_poly(*[_np(*r) for r in rows[:-1]],
                                    _falling(_np(*rows[-1]) or _np(1), vanish)),
        st.integers(min_value=min_degree, max_value=max_degree).flatmap(
            lambda d: st.lists(zn, min_size=d + 1, max_size=d + 1)),
        st.integers(min_value=0, max_value=3),
    )


_K = k_poly(0, 1)
_N = QN.coerce(_np(0, 1))


@settings(max_examples=30, deadline=None)
@given(qnk_strategy(0, 3), qnk_strategy(0, 2), qnk_strategy(0, 2))
@example(k_poly(1), k_poly(_np(0, 1), 1), k_poly(2, 1))  # coprime
@example(  # planted gcd of degree 2 with lc n(n-1)(n-2), cofactors sharing nothing
    k_poly(_np(1, 1), 0, _falling(_np(1), 3)), k_poly(_np(0, 1), 1), k_poly(_np(0, 2), 1))
def test_qn_gcd_matches_euclid_on_planted_factors(g, a, b):
    p = g * a * (_N / (_N + 3))
    q = g * b
    got = poly_gcd(*_cleared(p, q))
    assert lift(got).monic() == euclid_gcd(p, q)
    assert got.degree >= g.degree


@pytest.mark.parametrize(
    "p, q, expected",
    [
        # n = 0 is unlucky (both images are k); n = 1 shows the gcd is 1
        (_K + _N, _K + 2 * _N, k_poly(1)),
        # n = 0 gives (k+1)^2 of too high degree; the true gcd has degree 1
        ((_K + _N * _N + 1) * (_K + _N), (_K + _N * _N + 1) * (_K + 2 * _N), _K + _N * _N + 1),
        # one point suffices, and n = 0's image k(k+1) fails the division check
        ((_K + _N) * (_K + 1), _K * (_K + 1), _K + 1),
        # every k-coefficient vanishes at n = 0, 1, 2 except the constant one
        ((_K * _N * (_N - 1) * (_N - 2) + 1) * (_K + _N), (_K * _N * (_N - 1) * (_N - 2) + 1) * _K,
         (_K * _N * (_N - 1) * (_N - 2) + 1).monic()),
    ],
)
def test_qn_gcd_at_unlucky_points(p, q, expected):
    assert lift(poly_gcd(*_cleared(p, q))).monic() == expected == euclid_gcd(p, q)


@settings(max_examples=40)
@given(small_znk, small_znk, small_znk)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40)
@given(small_znk, st.integers(min_value=-4, max_value=4))
def test_shift_additivity(p, j):
    assert p.shift(j).shift(-j) == p


# -- integer roots, resultant, dispersion --------------------------------


def test_integer_roots():
    p = _zn(-2, 1) * _zn(3, 1) * _zn(0, 2)
    assert sorted(integer_roots(p)) == [-3, 0, 2]


def test_integer_roots_none():
    assert integer_roots(_zn(1, 0, 1)) == []


def _divisor_search_roots(p: ZnPoly) -> list[int]:
    """Integer roots by trial of each divisor of the lowest nonzero
    coefficient of p, and of 0."""
    low = next(c for c in p if c)
    divisors = {e for d in range(1, math.isqrt(abs(low)) + 1) if low % d == 0
                for e in (d, abs(low) // d)}
    return sorted(c for c in {0, *divisors, *(-e for e in divisors)} if p(c) == 0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-6, max_value=6).filter(bool),
    st.lists(st.tuples(st.integers(min_value=-12, max_value=12),
                       st.integers(min_value=1, max_value=3)), max_size=3),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=3),
    st.integers(min_value=1, max_value=6),
)
@example(-3, [(0, 2), (5, 2)], [], 1)  # repeated roots, 0 among them, negative lead
@example(2, [(-1, 3)], [1, 0, 1], 4)
def test_integer_roots_match_a_divisor_search(lead, planted, cofactor, content):
    p = _zn(lead * content)
    for root, multiplicity in planted:
        p = math.prod([_zn(-root, 1)] * multiplicity, start=p)
    if any(cofactor):
        p = p * _zn(*cofactor)
    roots = integer_roots(p)
    assert roots == _divisor_search_roots(p)
    assert {r for r, _ in planted} <= set(roots)


def test_resultant_shared_root_vanishes():
    common = _zk(-5, 1)
    assert resultant(common * _zk(1, 1), common * _zk(2, 1)) == ZnPoly()


def test_resultant_vs_gcd():
    # nonzero resultant exactly when the gcd is trivial
    a = _zk(1, 1) * _zk(2, 1)
    b = _zk(3, 1)
    assert resultant(a, b) == ZnPoly((2,))
    assert poly_gcd(a, b).degree == 0
    assert resultant(a, b * _zk(2, 1)) == ZnPoly() and poly_gcd(a, b * _zk(2, 1)) == _zk(2, 1)


def _with_roots(roots) -> Polynomial:
    p = _zk(1)
    for a in roots:
        p = p * _zk(-a, 1)
    return p


small_roots = st.lists(st.integers(min_value=-3, max_value=3), max_size=4)


@settings(max_examples=40, deadline=None)
@given(small_roots, small_roots)
# the Sylvester elimination swaps rows on these two
@example([-2, 1], [-1])
@example([1, 1], [2])
def test_resultant_is_product_of_root_differences(a_roots, b_roots):
    # res(prod (x - a_i), prod (x - b_j)) = prod (a_i - b_j), sign included
    expected = math.prod(a - b for a in a_roots for b in b_roots)
    assert resultant(_with_roots(a_roots), _with_roots(b_roots)) == _zn(expected)


def test_resultant_with_a_constant_operand():
    # the Sylvester matrix is lc times the identity, of the other's degree,
    # and the empty matrix when both are constants
    c, q = _znk((0, 2)), _zk(1, 0, 1)
    assert resultant(c, q) == resultant(q, c) == _zn(0, 0, 4)
    assert resultant(c, _zk(-3)) == _zn(1)


def test_resultant_over_qn():
    # (k + n)(k - 2n) against k - n: the elimination swaps rows here too
    n, k = _znk((0, 1)), _znk((), (1,))
    assert resultant((k + n) * (k - 2 * n), k - n) == _zn(0, -2) * _zn(0, 1)


def test_dispersion_set():
    # roots of p at 0, of q at 2 and 3: shifts 2 and 3 align them
    p = _zk(0, 1)
    q = _zk(-2, 1) * _zk(-3, 1)
    assert dispersion_set(p, q) == [2, 3]


def test_dispersion_set_self():
    p = _zk(0, 1) * _zk(-4, 1)
    assert dispersion_set(p, p) == [0, 4]


def test_dispersion_empty():
    assert dispersion_set(_zk(1, 1), _zk(1, 1, 1)) == []


def test_dispersion_set_repeated_roots_over_q():
    assert dispersion_set(_zk(4, 1) ** 3, _zk(1, 1) ** 2) == [3]
    p = _zk(0, 1) ** 2 * _zk(-4, 1) ** 3
    assert dispersion_set(p, p) == dispersion_set(_zk(0, 1) * _zk(-4, 1), p) == [0, 4]


def test_dispersion_of_a_linear_factor_against_a_nonlinear_one():
    # k + 4 meets (k + 1)(k^2 + n) at j = 3, and only in that order; the
    # n-linear k + n + 2 meets (k + n)(k^2 + 1) at j = 2
    k, n = _znk((), (1,)), _znk((0, 1))
    assert dispersion_set((k + 4) * (k * k + n), k + 1) == [3]
    assert dispersion_set(k + 1, (k + 4) * (k * k + n)) == []
    assert dispersion_set((k + n + 2) * (k * k + 1), k + n) == [2]
    assert dispersion_set(k + n, (k + n + 2) * (k * k + 1)) == []
    assert meeting_shifts(k + 4, (k + 1) * (k * k + n)) == [3]
    assert meeting_shifts((k + 1) * (k * k + n), k + 4) == []
    assert meeting_shifts(k + n + 2, (k + n) * (k * k + 1)) == [2]
    assert meeting_shifts((k + n) * (k * k + 1), k + n + 2) == []
    assert meeting_shifts(k + 1, k * k + n) == meeting_shifts(k * k + n, k + 1) == []


powered_linear = st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6)),
                          min_size=1, max_size=3, unique_by=lambda t: t[0])


@settings(max_examples=40, deadline=None)
@given(powered_linear, powered_linear)
def test_meeting_shifts_of_powers_of_linear_factors(us, vs):
    # u = prod (k + a_i)^e_i and v = prod (k + b_l)^f_l: u(k) and v(k + j)
    # share the root -a_i = -b_l - j exactly when j = a_i - b_l
    k = _znk((), (1,))
    u, v = (math.prod(((k + a) ** e for a, e in fs), start=_znk((1,))) for fs in (us, vs))
    assert meeting_shifts(u, v) == sorted({a - b for a, _ in us for b, _ in vs if a >= b})


def _lin(n_coeff: int, const: int) -> Polynomial:
    """k + n_coeff*n + const in Z[n][k]."""
    return _znk((const, n_coeff), (1,))


# (p, q, squarefree part of p, squarefree part of q, dispersion set)
QNK_DISPERSION_CASES = [
    # roots n, -3, -n against n+4-j, -1-j, -n-5-j: j = 4 and j = 2
    (
        _lin(-1, 0) ** 3 * _lin(0, 3) ** 2 * _lin(1, 0),
        _lin(-1, -4) ** 2 * _lin(0, 1) ** 4 * _lin(1, 5),
        _lin(-1, 0) * _lin(0, 3) * _lin(1, 0),
        _lin(-1, -4) * _lin(0, 1) * _lin(1, 5),
        [2, 4],
    ),
    # the a and b of binom(n,k)^5's normal form: n+2 = -1-j has no solution
    (_lin(-1, -2) ** 5, _lin(0, 1) ** 5, _lin(-1, -2), _lin(0, 1), []),
    # a repeated factor irreducible over Q(n): (k+2)^2 + n against k^2 + n
    (
        _znk((4, 1), (4,), (1,)) ** 2,
        _znk((0, 1), (), (1,)) ** 3,
        _znk((4, 1), (4,), (1,)),
        _znk((0, 1), (), (1,)),
        [2],
    ),
    # a repeated factor against itself: only j = 0
    (_lin(-1, 0) ** 2 * _lin(0, 3) ** 3, _lin(-1, 0) * _lin(0, 3) ** 2,
     _lin(-1, 0) * _lin(0, 3), _lin(-1, 0) * _lin(0, 3), [0]),
    # a content in Z[n] and negative leads, stripped before the shifts are read:
    # -2(n+1)(k+1) against 3(k-2) meet at j = 3, and not the other way round
    (_znk((-2, -2), (-2, -2)), _zk(-6, 3), _lin(0, 1), _lin(0, -2), [3]),
    (_zk(-6, 3), _znk((-2, -2), (-2, -2)), _lin(0, -2), _lin(0, 1), []),
]


@pytest.mark.parametrize("p, q, sp, sq, expected", QNK_DISPERSION_CASES)
def test_dispersion_set_repeated_roots_over_qn(p, q, sp, sq, expected):
    assert dispersion_set(p, q) == dispersion_set(sp, sq) == expected


# roots a_i(n) = e*n^2 + c*n + d with distinct (e, c), so that a_i - a_l is
# never constant for i != l and only the planted shifts j align roots
planted_roots = st.lists(
    st.tuples(st.integers(0, 1), st.integers(-3, 3), st.integers(-5, 5), st.integers(0, 6)),
    min_size=1, max_size=3, unique_by=lambda t: t[:2],
)
qn_units = st.sampled_from([Fraction(1), Fraction(-1, 2), _np(1, 1), (_np(3), _np(2, 1))])


def _qn_unit(u):
    if isinstance(u, tuple):
        return QN.coerce(u[0]) / QN.coerce(u[1])
    return QN.coerce(u)


@settings(max_examples=30, deadline=None)
@given(planted_roots, qn_units, qn_units)
def test_dispersion_set_finds_planted_shifts_over_qn(roots, up, uq):
    # p = prod (k + a_i(n)) and q = prod (k + a_i(n) + j_i): the roots of q
    # are those of p moved by -j_i, so q(k) and p(k + j) share one exactly
    # when j is some j_i
    p = k_poly(_qn_unit(up))
    q = k_poly(_qn_unit(uq))
    for e, c, d, j in roots:
        p = p * _lin_poly(_np(d, c, e))
        q = q * _lin_poly(_np(d + j, c, e))
    assert dispersion_set(*_cleared(q, p)) == sorted({j for *_, j in roots})


def _lin_poly(a: Polynomial) -> Polynomial:
    """k + a(n) in Q(n)[k]."""
    return k_poly(a, 1)


# -- rational functions: one reduced pair in Z[n][k] ---------------------


def test_ratfun_reduces():
    num = _zn(-1, 1) * _zn(1, 1)
    den = _zn(-1, 1) * _zn(2, 1)
    f = RationalFunction(num, den)
    assert (f.num, f.den) == (_znk((1, 1)), _znk((2, 1)))


def test_ratfun_denominator_has_a_positive_top_integer():
    f = RationalFunction(_zn(1), _zn(0, -2))
    assert (f.num, f.den) == (_znk((-1,)), _znk((0, 2)))
    assert RationalFunction(Fraction(-1, 2), _zn(0, 1)) == f


def test_ratfun_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(_zn(1), ZnPoly())


def test_ratfun_evaluate_and_str():
    f = RationalFunction(_zn(1, 1), _zn(-2, 1))
    assert f.evaluate(3) == 4
    assert str(f) == "((n+1)) / ((n-2))"
    g = RationalFunction(_znk((0, 1), (1,)), _znk((1,), (1,)))
    assert g.evaluate(3, 2) == Fraction(5, 3)
    assert str(g) == "(k+n) / (k+1)" and repr(g) == "RationalFunction((k+n) / (k+1))"


def test_eval_qn_pole():
    f = RationalFunction(_zn(1), _zn(0, 1))
    with pytest.raises(ZeroDivisionError):
        f.evaluate(0)
    with pytest.raises(ZeroDivisionError):
        eval_qn(TowerFunction(_np(1), _np(0, 1)), 0)
    assert f.evaluate(2) == eval_qn(TowerFunction(_np(1), _np(0, 1)), 2) == Fraction(1, 2)


# -- the tower of tests/qn_tower.py, and values against it -----------------


def test_to_string_samples():
    assert _np(1, 1).to_string() == "n+1"
    assert _np(-2, -4).to_string() == "-4*n-2"
    assert _np(0, 0, 1).to_string() == "n^2"
    assert POLY_N.zero().to_string() == "0"
    assert _np(5).to_string() == "5"


def test_tower_evaluates_at_a_fraction():
    p = _np(1, -3, 2)
    assert p.evaluate(Fraction(0)) == 1
    assert p.evaluate(Fraction(2)) == 3
    assert p.evaluate(Fraction(1, 2)) == 0


def test_divmod_exact():
    p = _np(-1, 0, 1)
    q = _np(1, 1)
    quo, rem = divmod(p, q)
    assert rem.is_zero()
    assert quo == _np(-1, 1)


def test_exact_div_raises_on_remainder():
    with pytest.raises(ValueError):
        _np(1, 0, 1).exact_div(_np(1, 1))


def test_monic():
    p = _np(2, 4)
    assert p.monic() == _np(Fraction(1, 2), 1)


@settings(max_examples=60)
@given(npoly_strategy(), npoly_strategy())
def test_divrem_reconstruction_property(p, q):
    if q.is_zero():
        return
    quo, rem = divmod(p, q)
    assert quo * q + rem == p
    assert rem.is_zero() or rem.degree < q.degree


def test_tower_construction():
    p = k_poly(_np(0, 1), 1)  # k + n
    assert p.degree == 1
    assert p.coeff(0) == QN.coerce(_np(0, 1))
    assert p.coeff(1) == QN.one()


def test_shift_in_n():
    p, q = _znk((0, 1), (1,)), _znk((1,), (1,))  # k + n, k + 1
    assert shift_in_n(p, 2) == _znk((2, 1), (1,))
    assert shift_in_n(q, 2) == q
    assert pair_to_tower(shift_in_n(p, 2), shift_in_n(q, 2)) == pair_to_tower(p, q).shift_n(2)


def test_eval_qnk():
    f = RationalFunction(_znk((0, 1), (1,)), _znk((1,), (1,)))  # (k+n)/(k+1)
    assert f.evaluate(3, 2) == eval_qnk(to_tower(f), 3, 2) == Fraction(5, 3)
    for evaluate in (f.evaluate, lambda n, k: eval_qnk(to_tower(f), n, k)):
        with pytest.raises(ZeroDivisionError):
            evaluate(0, -1)


def test_clear_qnk_pair_polynomial_coeffs():
    f = RationalFunction(_zn(0, 1), _zn(1, 1))  # n/(n+1)
    num, den = clear_qnk_pair(f)
    # coefficients live in Z[n]: no rational-function denominators left
    for p in (num, den):
        assert all(type(c) is ZnPoly for c in p.coeffs)
        assert all(type(v) is int for c in p.coeffs for v in c)
    assert (num, den) == (f.num, f.den) == (_znk((0, 1)), _znk((1, 1)))
    assert RationalFunction(num, den) == f


def test_integer_qnk_pair_normalization():
    f = RationalFunction(_znk((0, 1), (1,)), _znk((2,), (-2,)))  # (k+n)/(2-2k)
    num, den = f.num, f.den
    values = [v for p in (num, den) for c in p.coeffs for v in c]
    assert all(type(v) is int for v in values)
    assert math.gcd(*values) == 1
    # denominator leading coefficient is positive
    assert den.lc()[-1] > 0
    half = QN.coerce(Fraction(1, 2))
    assert to_tower(f) == qnk(POLY_K.constant(half) * k_poly(_np(0, 1), 1), k_poly(_np(1), -1))


def _qn_element(num: list[int], den: list[int], scale: int) -> TowerFunction:
    den_poly = _np(*den) if any(den) else _np(1)
    return QN.coerce(_np(*num)) / QN.coerce(den_poly * Fraction(scale))


qn_elements = st.builds(
    _qn_element,
    st.lists(st.integers(-6, 6), max_size=3),
    st.lists(st.integers(-6, 6), max_size=3),
    st.integers(1, 4),
)
qnk_polys = st.lists(qn_elements, max_size=3).map(lambda cs: FieldPoly("k", QN, tuple(cs)))


@settings(max_examples=40, deadline=None)
@given(qnk_polys, qnk_polys)
@example(FieldPoly("k", QN, ()), k_poly(_np(0, 1), 1))  # a zero numerator
@example(k_poly(_np(0, 1), 2), k_poly(_np(2, 2)))  # (n+2k)/(2n+2), degree 0 in k below
@example(k_poly(_np(1, 1), _np(1, 1)), k_poly(_np(2, 2), _np(1, 1)))  # n+1 in both
@example(k_poly(_np(0, 1), _np(1, 1), 1), k_poly(_np(0, 2), _np(2, 1), 1))  # k+n in both
def test_integer_qnk_pair_is_the_integer_form(num, den):
    """num and den cleared with one multiplier, unreduced, give the value
    whose pair is the tower element's, cleared."""
    if not den:
        den = POLY_K.one()
    f = RationalFunction(*_cleared(num, den))
    p, q = f.num, f.den
    assert all(type(c) is ZnPoly for part in (p, q) for c in part.coeffs)
    ints = [v for part in (p, q) for c in part.coeffs for v in c]
    assert all(type(v) is int for v in ints)
    assert all(c[-1] for part in (p, q) for c in part.coeffs if c)
    assert math.gcd(*ints) == 1
    assert q.lc()[-1] > 0
    assert (p, q) == tower_pair(qnk(num, den))
    assert to_tower(f) == qnk(num, den)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, st.integers(-6, 6))
def test_znpoly_shift_matches_the_q_n_shift(coeffs, j):
    z = ZnPoly(coeffs)
    assert _np(*z.shift(j)) == _np(*coeffs).shift(j)
    assert shift_in_n(Polynomial((z, -z)), j) == Polynomial((z.shift(j), -z.shift(j)))


@pytest.mark.parametrize("z", [ZnPoly((1, 1)), ZnPoly()])
@pytest.mark.parametrize("scalar", [2, 0, True])
def test_znpoly_times_an_int_is_a_type_error_in_both_orders(z, scalar):
    # not tuple repetition on the left, not a silent zero on the right; a sum
    # or difference with an int is a TypeError too, and with a Polynomial on
    # the right it is the Polynomial's
    with pytest.raises(TypeError):
        scalar * z
    with pytest.raises(TypeError):
        z * scalar
    assert z * ZnPoly((2,)) == ZnPoly([2 * c for c in z])
    k = _znk((), (1,))
    for op in (operator.add, operator.sub):
        with pytest.raises(TypeError, match="unsupported operand"):
            op(z, scalar)
        with pytest.raises(TypeError, match="unsupported operand"):
            op(scalar, z)
        assert op(z, k) == op(_znk(z), k)


@settings(max_examples=80, deadline=None)
@given(coeff_lists, coeff_lists)
def test_znpoly_addition_is_pointwise_and_matches_subtracting_the_negation(a, b):
    x, y = ZnPoly(a), ZnPoly(b)
    total = x + y
    assert type(total) is ZnPoly and (not total or total[-1])
    assert all(total(n) == x(n) + y(n) for n in range(-3, 4))
    assert total == x - (-y) == y + x


def _reduced_by_division(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """The tower's reduction written out: divide by the monic gcd with Q(n)
    long division, then make the denominator monic."""
    g = euclid_gcd(num, den)
    num, den = num.exact_div(g), den.exact_div(g)
    lead = den.lc()
    return num.map_coeffs(lambda c: c / lead), den.monic()


@settings(max_examples=60, deadline=None)
@given(qnk_polys, qnk_polys, qnk_polys)
def test_rational_function_reduces_as_the_long_division_did(num, den, common):
    """The constructor divides by the gcd's cofactors made in Z[n][k]; the
    reduced value is that of dividing by the gcd in Q(n)[k]."""
    if not den:
        den = POLY_K.gen()
    if common:
        num, den = num * common, den * common
    f = to_tower(RationalFunction(*_cleared(num, den)))
    assert (f.num, f.den) == _reduced_by_division(num, den)


# Pairs in Z[n][k] whose denominators' leads in k may be negative and may
# vanish at small n, and whose parts may share factors.
tiny_znk = st.lists(st.lists(st.integers(-3, 3), max_size=2), max_size=3).map(
    lambda rows: _znk(*rows))
znk_pairs = st.builds(
    lambda p, q, common: (p * common, q * common),
    tiny_znk, tiny_znk.filter(bool), tiny_znk.filter(bool) | st.just(_znk((1,))),
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


def _same_value(got: RationalFunction, want: TowerFunction) -> bool:
    return (got.num, got.den) == tower_pair(want)


@settings(max_examples=60, deadline=None)
@given(znk_pairs, znk_pairs, st.integers(-2, 2))
@example((_znk((1,)), _znk((0, -2), (-1,))), (_znk((0, 1)), _znk((1,))), 1)  # a negative lead
@example((_znk((1,), (1,)), _znk((1, 1), (1, 1))), (_zk(0, 1), _zk(1, 1)), -1)  # k+1 in both
def test_rational_function_matches_the_tower(f_pair, g_pair, j):
    """The value built from the unreduced pair of a sum, difference,
    product, quotient or shift of two pairs is the tower's result: the same
    reduced pair.  Equality, hash and truth follow the tower's, and the
    values and poles are the tower's."""
    (p, q), (u, v) = f_pair, g_pair
    f, g = RationalFunction(p, q), RationalFunction(u, v)
    tf, tg = pair_to_tower(p, q), pair_to_tower(u, v)
    assert _same_value(f, tf) and _same_value(g, tg)
    built = [((p * v + u * q, q * v), tf + tg), ((p * v - u * q, q * v), tf - tg),
             ((p * u, q * v), tf * tg), ((-p, q), -tf), ((p.shift(j), q.shift(j)), tf.shift(j)),
             ((shift_in_n(p, j), shift_in_n(q, j)), tf.shift_n(j))]
    if u:
        built += [((p * v, q * u), tf / tg), ((v, u), 1 / tg)]
    for pair, want in built:
        assert _same_value(RationalFunction(*pair), want)
    assert (f == g) == (tf == tg) and (f == 1) == tf.is_one() and bool(f) == bool(tf)
    if f == g:
        assert hash(f) == hash(g)
    for n in range(-2, 3):
        for k in range(-2, 3):
            assert _outcome(f.evaluate, n, k) == _outcome(eval_qnk, tf, n, k), (n, k)


values = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.builds(RationalFunction, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(RationalFunction, small_znk, small_znk.filter(bool)),
)


@settings(max_examples=200, deadline=None)
@given(values, values, small_znk.filter(bool))
@example(RationalFunction(3), 3, _zk(1))
@example(RationalFunction(_zk(-1), _zk(-2)), Fraction(1, 2), _znk((0, 1), (1,)))
def test_equal_values_hash_equal(a, b, common):
    """a == b exactly when the tower's values are equal, and then hash(a) ==
    hash(b), ints and Fractions included; the same value built from a pair
    times a common factor, from the negated pair or from the tower's pair is
    equal, hashes equal and has the tower's values."""
    assert (a == b) == (_in_tower(a) == _in_tower(b))
    if a == b:
        assert b == a and hash(a) == hash(b)
    assert len({RationalFunction(3), 3}) == 1 and len({RationalFunction(Fraction(1, 2)), Fraction(1, 2)}) == 1
    if isinstance(a, RationalFunction):
        p, q = a.num, a.den
        same = (RationalFunction(p * common, q * common), RationalFunction(-p, -q),
                RationalFunction(*tower_pair(to_tower(a))))
        assert all(v == a and hash(v) == hash(a) for v in same)
        assert len({a, *same}) == 1
        for n, k in ((0, 0), (2, -1), (3, 2)):
            want = _outcome(eval_qnk, to_tower(a), n, k)
            assert all(_outcome(v.evaluate, n, k) == want for v in (a, *same)), (n, k)


def _in_tower(value) -> TowerFunction:
    """An int, Fraction or ``RationalFunction`` as an element of the tower's Q(n)(k)."""
    return to_tower(value) if isinstance(value, RationalFunction) else QNK.coerce(value)


# -- identities in Z[n][k] at one Kronecker point ---------------------------


def _same(f: Polynomial, g: Polynomial) -> bool:
    return zn_identity(lambda at: (at(f), at(g)))


@pytest.mark.parametrize("t", range(1, 40))
def test_zn_identity_is_not_fooled_by_a_root_at_a_power_of_two(t):
    """n - 2^t vanishes at n = 2^t and k - n^t at k = n^t: the point must
    grow with the coefficients and the n-degree of both sides."""
    n, k = _znk((0, 1)), _znk((), (1,))
    assert not _same(n, _znk((2**t,)))
    assert not _same(n * n, _znk((0, 2**t)))
    assert not _same(k, _znk((0,) * t + (1,)))
    assert not _same(k * _znk((2**t,)), _znk((0, 1), (0, 1)))  # 2^t k vs n(k + 1)
    assert _same(n * n, _znk((0, 0, 1)))


znk_polys = st.lists(coeff_lists, max_size=4).map(lambda rows: _znk(*rows))


@settings(max_examples=80, deadline=None)
@given(znk_polys, znk_polys, znk_polys, st.integers(-3, 3), st.integers(-2, 2))
def test_zn_identity_is_polynomial_equality(f, g, h, i, s):
    assert _same(f, g) == (f == g)
    assert zn_identity(lambda at: (at(f) * (at(g) + at(h)), at(f * g + f * h)))
    shifted = shift_in_n(f, i).shift(s)
    assert zn_identity(lambda at: (at(f, i, s), at(shifted)))
    assert zn_identity(lambda at: (at(f, i, s) * at(g), at(shifted * g)))
    assert not zn_identity(lambda at: (at(f, i, s), at(shifted + _znk((0, 1)))))


def test_zn_identity_bounds_a_negative_shift_by_its_size():
    # f(n - 1) = (n - 1)(n - 2) for f = n^2 - n; a bound read at n = 1 + i = 0
    # would see f(1) = 0 and pick x = 2, where f(x - 1) = 0
    f = _znk((0, -1, 1))
    assert not zn_identity(lambda at: (at(f, -1), 0))
    assert zn_identity(lambda at: (at(f, -1), at(_znk((2, -3, 1)))))
    assert not zn_identity(lambda at: (at(f, 0, -1) * at(f, -1), 0))
    # a k-shift may take the point k = y + s to 0 or below: y = 32 here
    five = _znk((5,))
    assert all(zn_identity(lambda at, s=s: (at(five, 0, s), 5)) for s in range(-40, 1))


def test_zn_identity_takes_the_documented_point(monkeypatch):
    """x = 2 * 2^bitlen(l1) and y = 2 * 2^bitlen((top + 1) * x^d): for g = n
    or g = -n, (l1, d, top) = (1, 1, 1), so x = 4 and y = 2 * 2^bitlen(8) = 32."""
    points = []
    real = polynomials.zn_value

    def spy(p, x, y):
        points.append((x, y))
        return real(p, x, y)

    monkeypatch.setattr(polynomials, "zn_value", spy)
    assert not zn_identity(lambda at: (at(_znk((0, 1))), 0))
    assert not zn_identity(lambda at: (0, at(_znk((0, 1)))))
    assert points == [(4, 32), (4, 32)]


def _leaf_spec(draw_polys):
    """An int, a shifted polynomial, or the num or den of a shifted ratio."""
    return st.one_of(
        st.integers(-5, 5),
        st.tuples(st.just("poly"), draw_polys, st.integers(-3, 3), st.integers(-2, 2)),
        st.tuples(st.just("ratio"), st.tuples(st.integers(-4, 4).filter(bool), st.integers(1, 4)),
                  st.lists(draw_polys.filter(bool), max_size=2),
                  st.lists(draw_polys.filter(bool), max_size=2), st.integers(0, 1),
                  st.integers(-3, 3), st.integers(-2, 2)))


sides_trees = st.recursive(
    _leaf_spec(small_znk), lambda kids: st.tuples(st.sampled_from("+-*"), kids, kids),
    max_leaves=6)


def _build(tree, at):
    """The tree's value with leaves at(f, i, s); a ratio leaf picks num or den."""
    if isinstance(tree, int):
        return tree
    if tree[0] in "+-*":
        op = {"+": operator.add, "-": operator.sub, "*": operator.mul}[tree[0]]
        return op(_build(tree[1], at), _build(tree[2], at))
    if tree[0] == "poly":
        return at(*tree[1:])
    const, num, den, side, i, s = tree[1:]
    return at(FactoredRatio(const, num, den), i, s)[side]


def _expanded(f, i=0, s=0):
    """f(n + i, k + s) multiplied out: a ``Polynomial``, or a ratio's (num, den)."""
    if isinstance(f, FactoredRatio):
        return tuple(shift_in_n(p, i).shift(s) for p in f.pair())
    return shift_in_n(f, i).shift(s)


@settings(max_examples=150, deadline=None)
@given(sides_trees, sides_trees)
def test_the_propagated_bound_is_at_least_the_multiplied_out_difference(lhs, rhs):
    """(l1, d, top) carried through sides bound lhs - rhs multiplied out: its
    l1 norm, its n-degree and the l1 norm of its terms of n-degree d; and
    ``zn_identity`` decides lhs = rhs."""
    def sides(at):
        return _build(lhs, at), _build(rhs, at)

    lhs_bound, rhs_bound = sides(_leaves(_leaf_bound))
    bound = _Bound(0, 0, 0) + lhs_bound - rhs_bound
    g = Polynomial(()) + _build(lhs, _expanded) - _build(rhs, _expanded)
    assert bound.l1 >= sum(abs(c) for r in g.coeffs for c in r)
    assert bound.d >= max(map(len, g.coeffs), default=1) - 1
    assert bound.top >= sum(abs(r[bound.d]) for r in g.coeffs if len(r) > bound.d)
    assert zn_identity(sides) == (not g)


# -- the Z[n][k] kernel: products and k-shifts on int rows ------------------


def _terms(f: Polynomial) -> dict[tuple[int, int], int]:
    """f in Z[n][k] as {(n exponent, k exponent): coefficient}."""
    return {(a, b): c for b, row in enumerate(f.coeffs) for a, c in enumerate(row) if c}


def _from_terms(terms: dict[tuple[int, int], int]) -> Polynomial:
    nonzero = {ab: c for ab, c in terms.items() if c}
    rows = [[0] * (max(a for a, _ in nonzero) + 1 if nonzero else 0)
            for _ in range(max((b for _, b in nonzero), default=-1) + 1)]
    for (a, b), c in nonzero.items():
        rows[b][a] = c
    return _znk(*rows)


def _schoolbook_product(f: Polynomial, g: Polynomial) -> Polynomial:
    """f * g one monomial pair at a time."""
    out: dict[tuple[int, int], int] = {}
    for (a1, b1), c1 in _terms(f).items():
        for (a2, b2), c2 in _terms(g).items():
            out[a1 + a2, b1 + b2] = out.get((a1 + a2, b1 + b2), 0) + c1 * c2
    return _from_terms(out)


def _termwise_difference(f: Polynomial, g: Polynomial) -> Polynomial:
    """f - g one monomial at a time."""
    out = _terms(f)
    for ab, c in _terms(g).items():
        out[ab] = out.get(ab, 0) - c
    return _from_terms(out)


def _normalized(f: Polynomial) -> bool:
    """ZnPoly rows without trailing zeros, and a nonzero top row."""
    return (all(type(r) is ZnPoly and (not r or r[-1]) for r in f.coeffs)
            and (not f.coeffs or bool(f.coeffs[-1])))


def _binomial_shift(f: Polynomial, j: int) -> Polynomial:
    """f(n, k + j) by the binomial theorem: k^b -> sum_m C(b, m) j^(b-m) k^m."""
    out: dict[tuple[int, int], int] = {}
    for (a, b), c in _terms(f).items():
        for m in range(b + 1):
            out[a, m] = out.get((a, m), 0) + c * math.comb(b, m) * j ** (b - m)
    return _from_terms(out)


kernel_ints = st.one_of(st.integers(-9, 9), st.sampled_from([0, 0, 0]),
                        st.integers(-2**80, 2**80))
kernel_rows = st.lists(kernel_ints, max_size=4)  # empty and all-zero rows included
kernel_polys = st.lists(kernel_rows, max_size=5).map(lambda rows: _znk(*rows))
_K_ZNK, _N_ZNK = _znk((), (1,)), _znk((0, 1))


@settings(max_examples=150, deadline=None)
@given(kernel_polys, kernel_polys)
@example(_znk((1,), (), (2, -3)), _znk((0, 1), (5,)))  # a zero row inside, top row kept
@example(_znk((-(2**90), 1)), _znk((3,), (0, 0, -7)))  # a constant in k, large coefficients
def test_znk_product_matches_the_schoolbook_product(f, g):
    """So does the difference, both ways, the termwise one."""
    product = f * g
    assert product == _schoolbook_product(f, g) == g * f
    assert f - g == _termwise_difference(f, g) and g - f == _termwise_difference(g, f)
    assert all(map(_normalized, (product, f - g, g - f, f - f)))


@settings(max_examples=80, deadline=None)
@given(kernel_polys, kernel_ints, kernel_rows)
def test_znk_product_takes_int_and_znpoly_scalars_on_either_side(f, c, row):
    """So does the difference, an int or a ``ZnPoly`` on either side."""
    z = ZnPoly(row)
    assert f * c == c * f == _schoolbook_product(f, _znk((c,)))
    assert f * z == z * f == _schoolbook_product(f, _znk(row))
    for scalar, as_poly in ((c, _znk((c,))), (z, _znk(row))):
        assert f - scalar == _termwise_difference(f, as_poly)
        assert scalar - f == _termwise_difference(as_poly, f)
        assert _normalized(f - scalar) and _normalized(scalar - f)
    assert (f * _N_ZNK) * _K_ZNK == f * (_N_ZNK * _K_ZNK) == _schoolbook_product(f, _znk((), (0, 1)))


@settings(max_examples=150, deadline=None)
@given(kernel_polys, st.integers(-4, 4), st.integers(-4, 4), st.integers(-3, 3), st.integers(5, 9))
@example(_znk((0, 1), (), (1,)), 1, 0, 2, 5)  # n + k^2: a sign flip of j shows
def test_znk_shift_in_k_is_the_binomial_expansion(f, i, j, x, y):
    shifted = f.shift(j)
    assert shifted == _binomial_shift(f, j)
    assert all(type(r) is ZnPoly and (not r or r[-1]) for r in shifted.coeffs)
    assert f.shift(i).shift(j) == f.shift(i + j)
    assert zn_value(shifted, x, y) == zn_value(f, x, y + j)


@settings(max_examples=60, deadline=None)
@given(st.lists(kernel_polys.filter(bool), max_size=4), st.integers(-50, 50))
def test_zn_product_is_the_product_of_the_multiset(factors, const):
    multiset = Counter(factors)
    expected = _znk((const,))
    for f in multiset.elements():
        expected = _schoolbook_product(expected, f)
    assert zn_product(multiset, const) == expected


@pytest.mark.parametrize("p", [_znk((1, 1), (0, -2), (3,)), _zk(1, 1), _znk((2,))])
def test_pow_is_the_repeated_product_with_no_wasted_squaring(p, monkeypatch):
    products = []
    mul = Polynomial.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    expected = p * 0 + 1
    for e in range(10):
        products.clear()
        assert p**e == expected
        assert len(products) == (e.bit_length() - 1 if e else 0) + bin(e).count("1")
        expected = mul(expected, p)
