"""Indefinite hypergeometric summation and its certificate checks."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telesum import gosper, polynomials
from telesum.gosper import (
    NotSummableError,
    degree_bound,
    factored_normal_form,
    gosper_antidifference,
    gosper_normal_form,
    telescoped_sum,
)
from telesum.hyperterm import PoleError, eval_term, factored_shift_pair, parse_term, shift_quotient
from qn_tower import lift, pair_to_tower, record_value, to_tower, znk
from telesum.polynomials import RationalFunction, ZnPoly
from telesum.serialize import bivariate_string
from telesum.verify import oracle_sum


# -- normal form ---------------------------------------------------------


def _monic(nf, name: str) -> str:
    """The monic a, b or c of a normal form, printed in the tower."""
    return lift(nf.pairs()[name][0]).monic().to_string()


def test_normal_form_reconstructs_ratio():
    t = parse_term("binom(n,k)")
    r = shift_quotient(t, "k")
    nf = gosper_normal_form(r)
    assert nf.ratio() == r


def test_normal_form_shift_coprimality():
    # r = (k+3)/(k+1): the dispersion-2 overlap moves into c entirely
    r = RationalFunction(znk((3,), (1,)), znk((1,), (1,)))
    nf = gosper_normal_form(r)
    assert bivariate_string(nf.a) == "1"
    assert bivariate_string(nf.b) == "1"
    assert bivariate_string(nf.c) == "k^2+3*k+2"
    assert nf.pairs()["z"] == (znk((1,)), znk((1,)))
    assert nf.ratio() == r


def test_normal_form_reversed_quotient_stays_split():
    # r = (k+1)/(k+3) has no nonnegative-shift overlap: a and b keep their parts
    r = RationalFunction(znk((1,), (1,)), znk((3,), (1,)))
    nf = gosper_normal_form(r)
    assert bivariate_string(nf.a) == "k+1"
    assert bivariate_string(nf.b) == "k+3"
    assert bivariate_string(nf.c) == "1"
    assert nf.ratio() == r


def test_normal_form_extracts_leading_constant():
    t = parse_term("2^k")
    nf = gosper_normal_form(shift_quotient(t, "k"))
    assert RationalFunction(*nf.pairs()["z"]) == 2
    assert bivariate_string(nf.a) == "1"
    assert bivariate_string(nf.b) == "1"


def test_normal_form_geometric_series_stays_split():
    t = parse_term("fact(k)")
    nf = gosper_normal_form(shift_quotient(t, "k"))
    # ratio k+1: pure 'a' part, no b or c content
    assert bivariate_string(nf.a) == "k+1"
    assert bivariate_string(nf.b) == "1"
    assert bivariate_string(nf.c) == "1"


@pytest.mark.parametrize("text, dispersion, c", [
    # two linear factors, k+3 over k+1, meet at j = 2
    ("2^k*fact(k+2)/fact(k)", [2], "k^2+3*k+2"),
    # the linear factor k+7 meets the prefactor piece (k+6)*(n*k+n+1) at j = 1
    ("fact(k+6)/(n*k^2+5*n*k+k+5)", [1], "k+6"),
    # pieces of degree 1 with a lead in n, P(k+1) and P(k), meet at j = 1
    ("binom(n,k)*((n+1)*k+2)", [1], "k+((2)/(n+1))"),
    # the prefactor's pieces P(k+1) and P(k) meet at j = 1, by a resultant
    ("binom(n,k)^2*(k^2+n*k+1)", [1], "k^2+(n)*k+1"),
])
def test_normal_form_read_off_the_factors(text, dispersion, c):
    t = parse_term(text)
    nf = factored_normal_form(factored_shift_pair(t, "k").cancelled())
    assert nf.dispersion == dispersion
    assert nf.pairs() == gosper_normal_form(shift_quotient(t, "k")).pairs()
    assert _monic(nf, "c") == c


SLOW_DISPERSION = "binom(2n-k,2n-2k-2)*binom(2n+2k,-2k-2)*3^(n+k-2)*(n*k^2-2*k^2+n*k-n-2)"


def test_degree_8_quotient_gets_its_normal_form_quickly():
    # a shift quotient of degree 8 over 8 in k, whose dispersion resultant
    # over Z[n][j] alone once took about 40 s
    t = parse_term(SLOW_DISPERSION)
    start = time.perf_counter()
    nf = factored_normal_form(factored_shift_pair(t, "k").cancelled())
    assert time.perf_counter() - start < 0.5
    assert nf.dispersion == [1]
    with pytest.raises(NotSummableError) as info:
        gosper_antidifference(t)
    assert info.value.reason == (
        "degree bound rules out a polynomial solution for binom(2n-k,2n-2k-2)*"
        "binom(2n+2k,-2k-2)*3^(n+k-2)*(n*k^2-2*k^2+n*k-n-2)")


def test_a_high_power_of_k_is_summed_quickly():
    # the quotient (k+1)^40/k^40 meets itself at j = 1 through the squarefree
    # parts k + 1 and k, not through an 80 x 80 resultant over Z[j]
    t = parse_term("k^40")
    start = time.perf_counter()
    cert = gosper_antidifference(t)
    assert time.perf_counter() - start < 1.0
    assert cert.integer_form.dispersion == [1]
    for lo, hi in ((0, 6), (1, 9), (-4, 3)):
        assert telescoped_sum(cert, 0, lo, hi) == oracle_sum(t, 0, lo, hi)


def test_degree_bound_rules_out_factorial():
    t = parse_term("fact(k)")
    nf = factored_normal_form(factored_shift_pair(t, "k").cancelled())
    assert degree_bound(nf) is None


# -- decision procedure: summable corpus ---------------------------------


def test_telescoping_k_fact_k():
    cert = gosper_antidifference(parse_term("k*fact(k)"))
    assert cert.check()
    # sum of k*k! from 0 to m is (m+1)! - 1
    assert telescoped_sum(cert, 0, 0, 5) == 720 - 1


def test_telescoping_geometric():
    cert = gosper_antidifference(parse_term("2^k"))
    assert telescoped_sum(cert, 0, 0, 10) == 2**11 - 1


def test_telescoping_partial_fractions_term():
    # 1/(k(k+1)) written with factorials; classic telescoping sum
    t = parse_term("fact(k-1)/fact(k+1)")
    cert = gosper_antidifference(t)
    assert cert.check()
    for m in range(1, 9):
        assert telescoped_sum(cert, 0, 1, m) == 1 - Fraction(1, m + 1)


def test_main_summand_is_gosper_summable():
    t = parse_term("binom(2k,k)*binom(2n-2k+2,n-k+1)/(k+1)")
    cert = gosper_antidifference(t)
    assert cert.check()
    for n in range(0, 12):
        assert telescoped_sum(cert, n, 0, n) == oracle_sum(t, n, 0, n)


def test_certificate_soundness_identity():
    t = parse_term("binom(2k,k)*binom(2n-2k+2,n-k+1)/(k+1)")
    cert = gosper_antidifference(t)
    r, R = to_tower(cert.ratio), to_tower(cert.certificate)
    assert (R.shift(1) * r - R).is_one()


def test_antidifference_term_telescopes_pointwise():
    t = parse_term("k*fact(k)")
    cert = gosper_antidifference(t)
    g = cert.antidifference()
    for k in range(1, 8):
        assert eval_term(g, 0, k + 1) - eval_term(g, 0, k) == eval_term(t, 0, k)


def test_telescoped_sum_does_not_telescope_across_a_sign_change():
    """binom(k,-k) is -1 at k = -1 and 1 at k = 0, but its shift quotient
    -k/(2(2k+1)) is -1/2 there: G(hi+1) - G(lo) over a range ending at
    k = -1 gave 11 for k = -3..-1 at n = 0, where the sum is 21/2."""
    t = parse_term("binom(k,-k)*(-5*k-2)/(4*k+2)")
    cert = gosper_antidifference(t)
    assert telescoped_sum(cert, 0, -3, -1) == Fraction(21, 2)
    for n in range(5):
        for lo in range(-4, 8):
            for hi in range(lo, 8):
                assert telescoped_sum(cert, n, lo, hi) == oracle_sum(t, n, lo, hi), (n, lo, hi)


def test_telescoped_sum_raises_where_the_oracle_does():
    """binom(0,k)*(-2k-1)/(k+1) has a prefactor pole at k = -1: a range over
    it has no sum, though G = R*F is finite at both of its ends."""
    t = parse_term("binom(0,k)*(-2*k-1)/(k+1)")
    cert = gosper_antidifference(t)
    for lo, hi in [(-4, -1), (-3, 2), (-1, -1)]:
        with pytest.raises(PoleError):
            oracle_sum(t, 0, lo, hi)
        with pytest.raises(PoleError):
            telescoped_sum(cert, 0, lo, hi)
    assert telescoped_sum(cert, 0, 0, 3) == oracle_sum(t, 0, 0, 3)


def test_empty_range_sum_is_zero():
    cert = gosper_antidifference(parse_term("2^k"))
    assert telescoped_sum(cert, 0, 3, 2) == 0


def test_record_structure():
    cert = gosper_antidifference(parse_term("k*fact(k)"))
    rec = cert.record()
    assert set(rec) == {"x", "a", "b", "c", "z", "R"}
    for key in rec:
        assert set(rec[key]) == {"num", "den"}


# -- decision procedure: not-summable corpus -----------------------------


@pytest.mark.parametrize(
    "text",
    ["binom(n,k)", "fact(k)", "1/k", "2^k/k"],
)
def test_not_summable_corpus(text):
    with pytest.raises(NotSummableError):
        gosper_antidifference(parse_term(text))


@pytest.mark.parametrize(
    "text, reason",
    [
        ("2^k/k", "degree bound rules out a polynomial solution for 2^(k)/(k)"),
        ("binom(2k,k)", "degree bound rules out a polynomial solution for binom(2k,k)"),
        ("fact(k)", "degree bound rules out a polynomial solution for fact(k)"),
    ],
)
def test_degree_bound_refusal_runs_no_elimination(text, reason, monkeypatch):
    def no_nullspace(*args, **kwargs):
        raise AssertionError("nullspace called on a term the degree bound refuses")

    monkeypatch.setattr(gosper, "nullspace", no_nullspace)
    with pytest.raises(NotSummableError) as info:
        gosper_antidifference(parse_term(text))
    assert info.value.reason == reason


def test_polynomial_refusal_runs_no_exact_elimination(monkeypatch):
    # its 3 x 3 system has full column rank at the modular point
    def no_bareiss(*args, **kwargs):
        raise AssertionError("exact elimination of a system the modular check refutes")

    def guarded(*args, **kwargs):  # resultants of the normal form may run bareiss
        with monkeypatch.context() as inside:
            inside.setattr(polynomials, "bareiss", no_bareiss)
            return real(*args, **kwargs)

    real = gosper.nullspace
    monkeypatch.setattr(gosper, "nullspace", guarded)
    with pytest.raises(NotSummableError) as info:
        gosper_antidifference(parse_term("binom(n,k)*(k^2+n*k+1)"))
    assert info.value.reason == "no polynomial solution up to degree 1 for binom(n,k)*(k^2+n*k+1)"


def test_not_summable_reason_is_informative():
    with pytest.raises(NotSummableError) as info:
        gosper_antidifference(parse_term("fact(k)"))
    assert "fact(k)" in str(info.value)


def test_harmonic_like_term_rejected():
    with pytest.raises(NotSummableError):
        gosper_antidifference(parse_term("1/(k+1)"))


# -- property: constructed summable family -------------------------------


def _poly_text(coeffs: list[int]) -> str:
    # polynomial in k over Z rendered in the term grammar
    parts = []
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        if e == 0:
            parts.append(str(c) if c > 0 else f"0-{-c}")
        else:
            mono = "k" if e == 1 else f"k^{e}"
            mag = "" if abs(c) == 1 else str(abs(c))
            parts.append(f"{mag}{mono}" if c > 0 else f"0-{mag}{mono}")
    if not parts:
        return "0"
    return "(" + ")+(".join(parts) + ")"


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=3),
    st.integers(min_value=2, max_value=4),
)
def test_constructed_differences_are_summable(coeffs, base):
    # G(k) = p(k)*base^k gives F = G(k+1)-G(k) = (p(k+1)*base - p(k))*base^k,
    # summable by construction with partial sums G(m+1) - G(lo)
    p = ZnPoly(coeffs)  # an integer polynomial, here in k
    if not p:
        return
    q_text = _poly_text(list(ZnPoly((base,)) * p.shift(1) - p))
    if q_text == "0":
        return
    f = parse_term(f"({q_text})*{base}^k")
    cert = gosper_antidifference(f)
    assert cert.check()
    direct = Fraction(0)
    for k in range(0, 6):
        direct += eval_term(f, 0, k)
        assert telescoped_sum(cert, 0, 0, k) == direct


# -- the polynomial solution behind the certificate ----------------------

SUMMABLE = (
    "k*fact(k)",
    "2^k",
    "fact(k-1)/fact(k+1)",
    "binom(2k,k)*binom(2n-2k+2,n-k+1)/(k+1)",
    "binom(n,k)*(n-2*k)",
    "k^3*2^k",
)


@pytest.mark.parametrize("text", SUMMABLE)
def test_x_solves_gosper_equation(text):
    # z*a(k)*x(k+1) - b(k-1)*x(k) = c(k), which check() sees only through R
    cert = gosper_antidifference(parse_term(text))
    nf, x = cert.integer_form.pairs(), to_tower(cert.x)
    a, b, c, z = (pair_to_tower(*nf[name]) for name in "abcz")
    assert z * a * x.shift(1) - b.shift(-1) * x == c


def _rec(num, den=(("1",),)):
    return {"num": [list(row) for row in num], "den": [list(row) for row in den]}


ONE = _rec((("1",),))


@pytest.mark.parametrize(
    "text, expected",
    [
        ("k*fact(k)", {
            "x": ONE, "a": _rec((("1",), ("1",))), "b": ONE, "c": _rec((("0",), ("1",))),
            "z": ONE, "R": _rec((("1",),), (("0",), ("1",))),
        }),
        ("binom(n,k)*(n-2*k)", {
            "x": _rec((("-1",),), (("2",),)), "a": _rec((("0", "-1"), ("1",))),
            "b": _rec((("1",), ("1",))), "c": _rec((("0", "-1"), ("2",)), (("2",),)),
            "z": _rec((("-1",),)), "R": _rec((("0",), ("-1",)), (("0", "-1"), ("2",))),
        }),
        ("k^3*2^k", {
            "x": _rec((("-26",), ("18",), ("-6",), ("1",))), "a": ONE, "b": ONE,
            "c": _rec((("0",), ("0",), ("0",), ("1",))), "z": _rec((("2",),)),
            "R": _rec((("-26",), ("18",), ("-6",), ("1",)), (("0",), ("0",), ("0",), ("1",))),
        }),
    ],
)
def test_record_values(text, expected):
    assert gosper_antidifference(parse_term(text)).record() == expected


@pytest.mark.parametrize("text", SUMMABLE)
def test_records_lift_to_the_public_values(text):
    # a --machine record read back by record_value is the value the
    # certificate shows, for each of x, the normal form and R
    cert = gosper_antidifference(parse_term(text))
    rec, nf = cert.record(), cert.integer_form.pairs()
    values = {"x": cert.x, **{name: RationalFunction(*pair) for name, pair in nf.items()},
              "R": cert.certificate}
    assert set(values) == set(rec)
    for name, value in values.items():
        assert record_value(rec[name]) == value, name
