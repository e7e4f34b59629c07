"""Differential tests on generated proper hypergeometric terms.

Each term is a product of one to three binomial, factorial or power
factors with small integer-linear arguments in n and k, times an optional
polynomial in n and k.  The solvers' answers are compared with exact
brute-force sums: Gosper antidifferences against ``oracle_sum``, Zeilberger
recurrences against sums over the term's natural support.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from telesum.gosper import (
    IntegerNormalForm,
    NotSummableError,
    _common_denominator,
    degree_bound,
    factored_normal_form,
    gosper_antidifference,
    gosper_normal_form,
    telescoped_sum,
)
from telesum.hyperterm import (
    BinomialFactor,
    DegenerateSampleError,
    FactorialFactor,
    HyperTerm,
    LinearForm,
    PoleError,
    PowerFactor,
    eval_term,
    factored_shift_pair,
    parse_term,
    shift_quotient,
    term_ratio_is_one,
    term_to_string,
)
from qn_tower import TowerFunction, k_poly, lift, n_poly, pair_to_tower, tower_pair, znk
from telesum.polynomials import (
    FactoredRatio,
    Polynomial,
    RationalFunction,
    ZnPoly,
    _Bound,
    _leaf_bound,
    _leaves,
    dispersion_set,
    poly_lcm,
    shift_in_n,
    zn_product,
    zn_value,
)
from telesum.verify import _exact_sum, oracle_sum, telescoping_identity
from telesum.zeilberger import (
    NoRecurrenceFound,
    creative_telescope,
    sum_recurrence_natural,
)

_ZNK_ONE = znk((1,))

# alpha*n + beta*k + gamma with 0 <= alpha <= 1 and |beta| <= 2, and the same
# bound for the difference of a binomial's arguments
linear_forms = st.builds(
    LinearForm.make,
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2),
)
powers = st.builds(
    lambda base, exponent: (PowerFactor(Fraction(base), exponent), 1),
    st.sampled_from([2, 3, -1, Fraction(1, 2)]),
    linear_forms,
)
factors = st.one_of(
    st.builds(lambda top, bottom: (BinomialFactor(top, bottom), 1), linear_forms, linear_forms)
    .filter(lambda fe: abs(fe[0].top.coeff_k - fe[0].bottom.coeff_k) <= 2),
    st.builds(lambda arg, e: (FactorialFactor(arg), e), linear_forms, st.sampled_from([1, -1])),
    powers,
)
# polynomial prefactors in k whose coefficients are linear in n; 1 when empty
prefactors = st.lists(
    st.tuples(st.integers(min_value=-3, max_value=3), st.integers(min_value=-2, max_value=2)),
    max_size=2,
).map(lambda cs: znk(*cs) if cs else _ZNK_ONE)


def _pair(value: RationalFunction) -> tuple[Polynomial, Polynomial]:
    return value.num, value.den


def _terms(max_factors: int):
    return st.builds(
        lambda fs, p: HyperTerm(fs, _pair(RationalFunction(p))),
        st.lists(factors, min_size=1, max_size=max_factors),
        prefactors.filter(bool),
    )


terms = _terms(3)


def _kfree_top_binomials(min_alpha: int):
    """binom(alpha*n + gamma, +-k + delta) with gamma >= 0: the top is an
    integer >= 0 at every n >= 0, and for alpha >= 1 the binomial is zero
    outside a finite k-range."""
    return st.builds(
        lambda a, g, s, d: (BinomialFactor(LinearForm.make(a, 0, g), LinearForm.make(0, s, d)), 1),
        st.integers(min_value=min_alpha, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.sampled_from([1, -1]),
        st.integers(min_value=-2, max_value=2),
    )


# Terms entire in k (as Gamma quotients) with a finite support at each n >= 0:
# their factorials sit in denominators, where fact(m) = 0 for m < 0 is the
# zero of 1/Gamma, and binomial tops never go negative.  A factorial in a
# numerator makes the support an artefact of that convention, and summed
# over it the certificate's identity leaves boundary terms.
natural_terms = st.builds(
    lambda f, fs, p: HyperTerm([f] + fs, _pair(RationalFunction(p))),
    _kfree_top_binomials(1),
    st.lists(
        st.one_of(
            _kfree_top_binomials(0),
            st.builds(lambda arg: (FactorialFactor(arg), -1), linear_forms),
            powers,
        ),
        max_size=2,
    ),
    prefactors.filter(bool),
)

N_RANGE = range(0, 5)
K_WINDOW = range(-3, 8)


def _nonzero_and_finite(term: HyperTerm, antidifference: HyperTerm, n: int, k: int) -> bool:
    try:
        eval_term(antidifference, n, k)
        return eval_term(term, n, k) != 0
    except PoleError:
        return False


def _telescoped_sums_match(cert, term: HyperTerm) -> None:
    """telescoped_sum equals oracle_sum on ranges [lo, hi] of the window
    where F and G = R*F are finite and F is nonzero at each k in lo..hi+1:
    in each maximal such run, from its start to every end and from every
    start to its end.

    Where F vanishes its k-shift quotient need not relate F(k) and F(k+1),
    so a range crossing such a k may telescope to another value.
    """
    g = cert.antidifference()
    for n in N_RANGE:
        good = [k for k in K_WINDOW if _nonzero_and_finite(term, g, n, k)]
        runs: list[list[int]] = []
        for k in good:
            if runs and runs[-1][-1] == k - 1:
                runs[-1].append(k)
            else:
                runs.append([k])
        for run in runs:
            ranges = {(run[0], hi) for hi in run[:-1]} | {(lo, run[-2]) for lo in run[:-1]}
            for lo, hi in ranges:
                assert telescoped_sum(cert, n, lo, hi) == oracle_sum(term, n, lo, hi), (n, lo, hi)


@settings(max_examples=30, deadline=None)
@given(terms)
def test_gosper_sum_matches_the_oracle_or_refuses_with_a_reason(term):
    try:
        cert = gosper_antidifference(term)
    except NotSummableError as exc:
        assert exc.reason and term_to_string(term) in exc.reason
        return
    _telescoped_sums_match(cert, term)


@settings(max_examples=20, deadline=None)
@given(terms)
def test_constructed_difference_is_never_refused(g):
    step = pair_to_tower(*_pair(shift_quotient(g, "k"))) - 1
    if not step:
        return  # G does not depend on k, so G(k+1) - G(k) is the zero term
    f = g.scale_rational(tower_pair(step))
    cert = gosper_antidifference(f)
    assert cert.check()
    _telescoped_sums_match(cert, f)


def _defined_at(value: RationalFunction, n: int) -> bool:
    """Whether the denominator of a Q(n)(k) element is not zero for all k at n."""
    return any(c(n) for c in value.den.coeffs)


@settings(max_examples=50, deadline=None)
@given(natural_terms)
def test_zeilberger_recurrence_holds_on_natural_sums_or_refuses_with_a_reason(term):
    """At each n where R(n, k) is a rational function of k, G = R*F is entire
    in k (F is, and G(k+1) - G(k) is a sum of F's), and zero at integers k
    far out, where F is; so the certificate's identity, summed over k, is
    the recurrence of the natural sums.  The recurrence is in the form its
    docstring states: ``ZnPoly`` coefficients with joint content 1, the top
    one with a positive leading integer."""
    try:
        cert = creative_telescope(term, max_order=2)
    except NoRecurrenceFound as exc:
        assert exc.max_order == 2 and str(exc)
        return
    coeffs = cert.recurrence.coeffs
    assert all(type(c) is ZnPoly for c in coeffs) and coeffs[-1][-1] > 0
    assert math.gcd(*(v for c in coeffs for v in c)) == 1
    for n in range(0, 9):
        if _defined_at(cert.certificate, n):
            sum_recurrence_natural(cert.term, cert.recurrence, n_lo=n, n_hi=n)


# -- integer pairs against Fractions -------------------------------------

# rational prefactors whose denominators take negative values at some (n, k)
DENOMINATORS = ["1", "1/(1-2k)", "1/(-3)", "(k+2)/(n-k)", "1/(k^2-n-1)", "(2n+1)/(3-2k)"]
rational_terms = st.builds(
    lambda t, text: t.scale_rational(parse_term(text).prefactor),
    terms,
    st.sampled_from(DENOMINATORS),
)


def _outcome(fn, n: int, k: int):
    """fn(n, k), or the PoleError it raises as (type, args)."""
    try:
        return fn(n, k)
    except PoleError as exc:
        return PoleError, exc.args


@settings(max_examples=60, deadline=None)
@given(rational_terms)
@example(parse_term("fact(k)/fact(n-k)*(1-2k)"))
@example(parse_term("fact(k)/binom(n,k)*(1-2k)"))  # zero factor with a negative exponent
@example(parse_term("2^(k-n)/fact(2k-n)*(k-n)"))  # prefactor pole
def test_evaluator_pair_is_the_call_as_a_pair(term):
    """pair(n, k) is an unreduced (num, den) with den != 0 whose Fraction is
    the call's value, and it raises the call's PoleError at the same points."""
    value = term.evaluator()
    for n in N_RANGE:
        for k in K_WINDOW:
            got, want = _outcome(value.pair, n, k), _outcome(value, n, k)
            if isinstance(want, Fraction):
                num, den = got
                assert den and Fraction(num, den) == want, (n, k)
            else:
                assert got == want, (n, k)


def _fraction_loop(values) -> Fraction:
    total = Fraction(0)
    for v in values:
        total += v
    return total


nonzero = st.integers(min_value=-720, max_value=720).filter(bool)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=-10**6, max_value=10**6),
                          st.one_of(nonzero, st.sampled_from([1, -1, 6, -6, 24])))))
def test_exact_sum_is_the_fraction_loop(pairs):
    assert _exact_sum(pairs) == _fraction_loop(Fraction(a, b) for a, b in pairs)


@settings(max_examples=40, deadline=None)
@given(rational_terms)
@example(parse_term("fact(k)/fact(n-k)*(1-2k)"))
@example(parse_term("2^(k-n)/fact(2k-n)*(k-n)"))
def test_oracle_sum_is_the_fraction_loop_over_values(term):
    def loop(n, lo, hi):
        return _fraction_loop(eval_term(term, n, k) for k in range(lo, hi + 1))

    for n in N_RANGE:
        for lo, hi in ((-3, 7), (0, n), (2, 1)):
            got = _outcome(lambda n, hi: oracle_sum(term, n, lo, hi), n, hi)
            assert got == _outcome(lambda n, hi: loop(n, lo, hi), n, hi), (n, lo, hi)


# -- the integer shift pair against values and the Q(n)(k) construction ---


def _at(p, n: int, k: int) -> int:
    """A polynomial in k over Z[n] at integers."""
    return sum(c(n) * k**i for i, c in enumerate(p.coeffs))


@settings(max_examples=60, deadline=None)
@given(terms, st.sampled_from(["k", "n"]))
def test_integer_shift_pair_is_the_ratio_of_values(term, var):
    num, den = factored_shift_pair(term, var).pair()
    value = term.evaluator()
    for n in N_RANGE:
        for k in K_WINDOW:
            b = _at(den, n, k)
            if not b:
                continue
            try:
                here = value(n, k)
                there = value(n + 1, k) if var == "n" else value(n, k + 1)
            except PoleError:
                continue
            if here:
                assert there / here == Fraction(_at(num, n, k), b), (n, k)


def _falling_in_qn(lf: LinearForm, delta: int):
    """fact(L + delta)/fact(L) over Q(n)[k], as shift quotients were once built."""
    arg = k_poly(n_poly(lf.constant, lf.coeff_n), lf.coeff_k)
    num = den = k_poly(1)
    for i in range(1, delta + 1):
        num = num * (arg + i)
    for i in range(0, -delta):
        den = den * (arg - i)
    return num, den


def _shift_quotient_in_qn(term: HyperTerm, var: str) -> TowerFunction:
    """An independent copy of the Q(n)(k) shift-quotient construction, in
    the tower of tests/qn_tower.py."""
    num = den = k_poly(1)
    for f, e in term.factors:
        if isinstance(f, PowerFactor):
            a, b = k_poly(f.base ** f.exponent.coeff(var)), k_poly(1)
        elif isinstance(f, FactorialFactor):
            a, b = _falling_in_qn(f.arg, f.arg.coeff(var))
        else:
            diff = f.top - f.bottom
            n1, d1 = _falling_in_qn(f.top, f.top.coeff(var))
            n2, d2 = _falling_in_qn(f.bottom, f.bottom.coeff(var))
            n3, d3 = _falling_in_qn(diff, diff.coeff(var))
            a, b = n1 * d2 * d3, d1 * n2 * n3
        if e < 0:
            a, b, e = b, a, -e
        num, den = num * a**e, den * b**e
    pref = pair_to_tower(*term.prefactor)
    shifted = pref.shift(1) if var == "k" else pref.shift_n(1)
    return TowerFunction(num * shifted.num * pref.den, den * shifted.den * pref.num)


@settings(max_examples=40, deadline=None)
@given(terms, st.sampled_from(["k", "n"]))
def test_shift_quotient_equals_the_q_n_k_construction(term, var):
    r = shift_quotient(term, var)
    assert (r.num, r.den) == tower_pair(_shift_quotient_in_qn(term, var))


def _zn_falling(lf: LinearForm, var: str):
    num = den = _ZNK_ONE
    lead, delta = ZnPoly((lf.coeff_k,)), lf.coeff(var)
    for i in range(1, delta + 1):
        num = num * Polynomial((ZnPoly((lf.constant + i, lf.coeff_n)), lead))
    for i in range(0, -delta):
        den = den * Polynomial((ZnPoly((lf.constant - i, lf.coeff_n)), lead))
    return num, den


def _unfactored_shift_pair(term: HyperTerm, var: str):
    """An independent copy of the unreduced pair as a plain product in Z[n][k]."""
    num = den = _ZNK_ONE
    for f, e in term.factors:
        if isinstance(f, PowerFactor):
            r = f.base ** f.exponent.coeff(var)
            a, b = _ZNK_ONE * r.numerator, _ZNK_ONE * r.denominator
        elif isinstance(f, FactorialFactor):
            a, b = _zn_falling(f.arg, var)
        else:
            (n1, d1), (n2, d2), (n3, d3) = (
                _zn_falling(lf, var) for lf in (f.top, f.bottom, f.top - f.bottom))
            a, b = n1 * d2 * d3, d1 * n2 * n3
        num, den = (num * a**e, den * b**e) if e > 0 else (num * b**-e, den * a**-e)
    p, q = term.prefactor
    p1, q1 = (p.shift(1), q.shift(1)) if var == "k" else (shift_in_n(p, 1), shift_in_n(q, 1))
    return num * p1 * q, den * q1 * p


@settings(max_examples=60, deadline=None)
@given(terms, st.sampled_from(["k", "n"]))
def test_factored_pair_multiplies_out_to_the_unfactored_pair(term, var):
    ratio = factored_shift_pair(term, var)
    assert ratio.pair() == _unfactored_shift_pair(term, var)
    for f in list(ratio.num) + list(ratio.den):
        assert f.lc()[-1] > 0 and (f.degree < 1 or f == _primitive(f))
    reduced = ratio.cancelled()
    assert RationalFunction(*reduced.pair()) == shift_quotient(term, var)
    assert not (set(reduced.num) & set(reduced.den))


@settings(max_examples=40, deadline=None)
@given(terms, st.sampled_from(["k", "n"]), st.integers(0, 3), st.integers(0, 1))
def test_factored_pair_at_a_point_is_the_products_value_there(term, var, i, s):
    """at() is the product's value at (n, k); the bound ``zn_identity``
    takes of its num and den at (n + i, k + s) bounds the l1 norm and the
    n-degree of the product there."""
    ratio = factored_shift_pair(term, var)
    for x, y in ((3, 5), (2**20 + i, 2**90 + s), (1, 1)):
        values = tuple(zn_value(p, x, y) for p in ratio.pair())
        assert ratio.at(lambda f: zn_value(f, x, y)) == values
    for side, p in enumerate(ratio.pair()):
        bound = _Bound(0, 0, 0) + _leaves(_leaf_bound)(ratio, i, s)[side]
        shifted = shift_in_n(p, i).shift(s)
        assert bound.l1 >= sum(abs(c) for r in shifted.coeffs for c in r)
        assert bound.d >= max(map(len, shifted.coeffs)) - 1


def _primitive(f):
    rows = [ZnPoly([c // g for c in r]) for r in f.coeffs] if (
        g := math.gcd(*(c for r in f.coeffs for c in r))) else f.coeffs
    return Polynomial(rows)


@settings(max_examples=60, deadline=None)
@given(terms)
def test_factored_normal_form_and_dispersion_match_the_q_n_k_ones(term):
    """The normal form read off the factors equals the one of the reduced
    quotient, whose numerator and denominator are one factor each; so does
    the dispersion, against the resultant-based dispersion_set."""
    ratio = shift_quotient(term, "k")
    nf = factored_normal_form(factored_shift_pair(term, "k").cancelled())
    assert nf.pairs() == gosper_normal_form(ratio).pairs()
    assert nf.ratio() == ratio
    assert nf.dispersion == dispersion_set(ratio.num, ratio.den)


def _zeilberger_quotients(term: HyperTerm):
    """(t_list, q, scale, p_list, rho) at orders 1 and 2, as creative_telescope
    builds them: rho = r_k * q(k)/q(k+1)."""
    r_k, r_n = factored_shift_pair(term, "k"), factored_shift_pair(term, "n")
    t_list = [FactoredRatio()]
    for order in (1, 2):
        t_list.append((t_list[-1] * r_n.shift_n(order - 1)).cancelled())
        q, scale, p_list = _common_denominator(t_list)
        rho = (r_k * FactoredRatio((1, 1), q, [f.shift(1) for f in q.elements()])).cancelled()
        yield t_list, q, scale, p_list, rho


@settings(max_examples=20, deadline=None)
@given(natural_terms)
def test_zeilbergers_quotient_has_the_same_normal_form_factored(term):
    """rho = r_k * q(k)/q(k+1) at orders 1 and 2, as creative_telescope
    builds it, against its reduced Q(n)(k) form; and q is the lcm of the T_j's
    reduced denominators, up to a factor in n."""
    for t_list, q, scale, p_list, rho in _zeilberger_quotients(term):
        big_q = zn_product(q, scale)
        for tj, p in zip(t_list, p_list):
            assert pair_to_tower(*tj.pair()) * lift(big_q) == lift(p)
        lcm = functools.reduce(poly_lcm, (RationalFunction(*tj.pair()).den for tj in t_list))
        assert lift(zn_product(q)).monic() == lift(lcm).monic()
        nf = factored_normal_form(rho)
        assert nf.pairs() == gosper_normal_form(RationalFunction(*rho.pair())).pairs()


def _q_n_degree_bound(nf: IntegerNormalForm, rhs_extra: int) -> int | None:
    """The degree bound read off the monic z, a, b and c in Q(n)[k], in the
    tower of tests/qn_tower.py: the reference for ``degree_bound`` on the
    integer form."""
    pairs = nf.pairs()
    a, b, c = (lift(pairs[name][0]).monic() for name in "abc")
    z, B = pair_to_tower(*pairs["z"]), b.shift(-1)
    na, nb = int(a.degree), int(B.degree)
    K = int(c.degree) + rhs_extra
    if na != nb or not (z - 1).is_zero():
        d = K - max(na, nb)
        return d if d >= 0 else None
    if na == 0:
        return max(K + 1, 0)
    candidates = [K - na + 1] if K - na + 1 >= 0 else []
    theta = B.coeff(na - 1) - a.coeff(na - 1)
    if theta.num.degree <= 0 and theta.den.degree == 0:
        tv = theta.num.coeff(0)
        if tv.denominator == 1 and tv >= 0:
            candidates.append(int(tv))
    return max(candidates) if candidates else None


@settings(max_examples=60, deadline=None)
@given(terms)
@example(parse_term("fact(k-1)/fact(k+1)"))  # z = 1, theta = 1
@example(parse_term("fact(k)/fact(k+1)"))  # z = 1, theta = 0
@example(parse_term("binom(2k,k)/4^k"))  # z = 4/4, theta = -1/2
@example(parse_term("fact(k+n)/fact(k+1)"))  # z = 1, theta = -n
def test_degree_bound_on_the_integer_form_matches_the_q_n_one(term):
    nf = factored_normal_form(factored_shift_pair(term, "k").cancelled())
    for extra in range(3):
        assert degree_bound(nf, extra) == _q_n_degree_bound(nf, extra)


@settings(max_examples=20, deadline=None)
@given(natural_terms)
def test_degree_bound_on_zeilbergers_quotient_matches_the_q_n_one(term):
    for *_, rho in _zeilberger_quotients(term):
        nf = factored_normal_form(rho)
        for extra in range(3):
            assert degree_bound(nf, extra) == _q_n_degree_bound(nf, extra)


_MULTIPLIERS = [1, 2, -1, znk((1,), (1,)), ZnPoly((2, 1))]


def _as_factorials(term: HyperTerm) -> HyperTerm:
    """Each binom(a, b) written as fact(a)/(fact(b)*fact(a-b)); the term as it
    is when two factorials of the result cancel, as in binom(n-1, n-1) or
    binom(n, k-2)*fact(k-2): a cancelled factorial at a negative argument no
    longer zeroes the value, so the rewrite would change it (at n = 0, or at
    k = 0), not only its form."""
    factors = []
    for f, e in term.factors:
        if isinstance(f, BinomialFactor):
            factors += [(FactorialFactor(f.top), e), (FactorialFactor(f.bottom), -e),
                        (FactorialFactor(f.top - f.bottom), -e)]
        else:
            factors.append((f, e))
    rewritten = HyperTerm(factors, term.prefactor)
    kept = sum(abs(e) for _, e in rewritten.factors) == sum(abs(e) for _, e in factors)
    return rewritten if kept else term


@settings(max_examples=40, deadline=None)
@given(terms, st.sampled_from(range(len(_MULTIPLIERS))), st.booleans())
def test_term_ratio_is_one_agrees_with_the_reduced_comparison(term, which, rewrite):
    """t2 = m * t1, possibly with its binomials as factorials: the cross-
    multiplied pairs agree exactly when the reduced shift quotients do, and
    the ratio is one exactly when m is."""
    other = term.scale_rational(_pair(RationalFunction(_MULTIPLIERS[which])))
    if rewrite:
        other = _as_factorials(other)
    for var in ("k", "n"):
        a1, b1 = factored_shift_pair(term, var).pair()
        a2, b2 = factored_shift_pair(other, var).pair()
        assert (a1 * b2 == a2 * b1) == (shift_quotient(term, var) == shift_quotient(other, var))
    same_quotients = all(shift_quotient(term, v) == shift_quotient(other, v) for v in "kn")
    assert same_quotients == (which < 3)
    try:
        assert term_ratio_is_one(term, other) == (which == 0)
    except DegenerateSampleError:
        assert same_quotients  # only the sampling can run out of points


@settings(max_examples=60, deadline=None)
@given(terms)
def test_parse_print_parse_round_trip(term):
    text = term_to_string(term)
    again = parse_term(text)
    assert again == term
    assert term_to_string(again) == text


def _sympy_term(term: HyperTerm, sp, n, k):
    """The term as a sympy expression; a factor free of n and k is left out,
    since sympy evaluates it (to 0, say) while the solvers read it as a
    constant, and a constant multiple does not change R."""
    def form(lf: LinearForm):
        return lf.coeff_n * n + lf.coeff_k * k + lf.constant

    def value(f):
        if isinstance(f, BinomialFactor):
            return sp.binomial(form(f.top), form(f.bottom))
        if isinstance(f, FactorialFactor):
            return sp.factorial(form(f.arg))
        return sp.Rational(f.base.numerator, f.base.denominator) ** form(f.exponent)

    def constant(f):
        forms = (f.top, f.bottom) if isinstance(f, BinomialFactor) else (
            (f.arg,) if isinstance(f, FactorialFactor) else (f.exponent,))
        return all(lf.is_constant() for lf in forms)

    num, den = (sum(c * n**e * k**i for i, row in enumerate(p.coeffs) for e, c in enumerate(row))
                for p in term.prefactor)
    return sp.Mul(*(value(f) ** e for f, e in term.factors if not constant(f))) * num / den


def _from_sympy(expr, sp, n, k) -> tuple[Polynomial, Polynomial]:
    """A rational function of n and k from sympy as an integer pair in Z[n][k]."""
    polys = [sp.Poly(p, k, n) for p in sp.fraction(sp.cancel(sp.together(expr)))]
    scale = math.lcm(*(sp.Rational(c).q for p in polys for c in p.coeffs()))
    pair = []
    for p in polys:
        rows = [[0] * (p.degree(n) + 1) for _ in range(p.degree(k) + 1)]
        for (i, e), c in p.terms():
            rows[i][e] = int(c * scale)
        pair.append(Polynomial([ZnPoly(r) for r in rows]))
    return pair[0], pair[1]


# at most two factors: sympy's Gosper step took 13 s on a squared binomial
# times a prefactor
@settings(max_examples=25, deadline=None)
@given(_terms(2))
@example(parse_term("binom(2k,k)*binom(2n-2k+2,n-k+1)/(k+1)"))  # the 11897 summand
@example(parse_term("k*fact(k)"))
@example(parse_term("(-1)^k*binom(n,k)"))
@example(parse_term("binom(n,k)"))
@example(parse_term("2^k/k"))
@example(parse_term("(n*k+3*k+1)/fact(k+1)"))  # sympy's R fails the identity
@example(parse_term("binom(1,k)*(-1)^k"))  # r = (k-1)/(k+1): R is not unique
def test_gosper_agrees_with_sympy(term):
    """Gosper's verdict and R against sympy's ``gosper_term``, on terms
    sympy reads as hypergeometric (``hypersimp``; it reads none with a
    binomial whose Gamma form has a pole, as binom(-2,k)).  An R from sympy
    is a certificate when it passes the exact telescoping identity; sympy
    may return one that does not.  The verdicts agree, and so do the two R,
    unless F is rational in k as a hypergeometric term (its shift quotient
    is rho(k+1)/rho(k) for a rational rho): R is then unique only up to
    c/F, and sympy's must be a certificate."""
    sp = pytest.importorskip("sympy")
    from sympy.concrete.gosper import gosper_term

    n, k = sp.symbols("n k", integer=True)
    f = _sympy_term(term, sp, n, k)
    assume(f.is_zero is not True and f.is_finite is not False)
    assume(sp.hypersimp(f, k) is not None)
    theirs = gosper_term(f, k)
    certified = theirs is not None and telescoping_identity(
        term, (ZnPoly((1,)),), _from_sympy(theirs, sp, n, k))
    try:
        ours = gosper_antidifference(term).certificate_pair
    except NotSummableError:
        assert not certified
        return
    assert theirs is not None
    r = _sympy_term(HyperTerm([], ours), sp, n, k)
    assert sp.cancel(theirs - r) == 0 or certified
