"""Machine encodings: decimal-string coefficient lists and human text."""

from __future__ import annotations

from fractions import Fraction

import pytest

from qn_tower import k_poly, lift, n_poly, qnk, record_value, to_tower, tower_pair, znk
from telesum.polynomials import Polynomial, RationalFunction, ZnPoly
from telesum.serialize import (
    bivariate_string,
    kpoly_to_lists,
    npoly_to_list,
    ratfun_to_record,
    ratfun_to_text,
)


def test_npoly_round_trip():
    p = ZnPoly((-2, 0, 7))
    assert npoly_to_list(p) == ["-2", "0", "7"]
    assert record_value({"num": [npoly_to_list(p)], "den": [["1"]]}) == RationalFunction(p)


def test_npoly_zero():
    assert npoly_to_list(ZnPoly()) == ["0"]


def test_kpoly_nested_lists():
    num, _ = tower_pair(qnk(k_poly(n_poly(1, 2), n_poly(3))))  # (2n+1) + 3k
    assert kpoly_to_lists(num) == [["1", "2"], ["3"]]


def test_kpoly_round_trip():
    p = k_poly(n_poly(1, 2), n_poly(3))
    lists = [["1", "2"], ["3"]]
    back = record_value({"num": lists, "den": [["1"]]})
    assert lift(back.num) == p and back.den == Polynomial((ZnPoly((1,)),))
    assert back.num.coeff(0) == ZnPoly((1, 2))


def test_ratfun_record_round_trip():
    f = qnk(k_poly(n_poly(0, 1), 2), k_poly(n_poly(1), 1))  # (n+2k)/(1+k)
    rec = ratfun_to_record(tower_pair(f))
    assert rec == {"num": [["0", "1"], ["2"]], "den": [["1"], ["1"]]}
    assert to_tower(record_value(rec)) == f


def test_ratfun_record_clears_fractions():
    f = RationalFunction(Fraction(1, 2))
    rec = ratfun_to_record((f.num, f.den))
    assert rec == {"num": [["1"]], "den": [["2"]]}
    assert record_value(rec) == f == Fraction(1, 2)


def test_record_with_a_zero_denominator_is_refused():
    with pytest.raises(ZeroDivisionError):
        record_value({"num": [["1"]], "den": [["0"]]})


def test_bivariate_string_samples():
    assert bivariate_string(znk((1,), (1,))) == "k+1"
    assert bivariate_string(znk((0, -4), (1,))) == "k-4*n"
    assert bivariate_string(znk((), (1, 2))) == "(2*n+1)*k"


def test_bivariate_string_powers():
    assert bivariate_string(znk((0, 0, 3), (), (-1,))) == "-k^2+3*n^2"


def test_ratfun_to_text():
    f = RationalFunction(znk((0, 1)), znk((1,), (1,)))  # n/(k+1)
    assert ratfun_to_text((f.num, f.den)) == str(f) == "(n) / (k+1)"
    g = RationalFunction(2)
    assert ratfun_to_text((g.num, g.den)) == str(g) == "2"
