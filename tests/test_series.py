"""Truncated power series: the value, the product, the power kernel, and the
bundled generating functions."""

from __future__ import annotations

import copy
import json
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telesum.cli import main
from telesum.hyperterm import binomial_value
from telesum.series import (
    PowerSeries,
    ballot_gf,
    catalan_gf,
    central_binomial_gf,
    check_convolution_11897,
    check_shifted_central_identity,
    known_gf,
    one_series,
    shifted_central_gf,
)


def _series(*vals: int) -> PowerSeries:
    return PowerSeries(tuple(Fraction(v) for v in vals))


# -- arithmetic ----------------------------------------------------------


def test_order_and_coeff():
    s = _series(1, 2, 3)
    assert s.order == 2
    assert s.coeff(1) == 2
    with pytest.raises(IndexError):
        s.coeff(3)


def test_mul_is_convolution():
    ones = _series(1, 1, 1, 1)
    sq = ones * ones
    assert [sq.coeff(i) for i in range(4)] == [1, 2, 3, 4]


def test_mul_by_one_identity():
    s = _series(3, -1, 5)
    assert s * one_series(2) == s


def test_scalar_ops():
    # a scalar multiple or a difference is a linear step on the integer rows
    s = PowerSeries([Fraction(1, 3), 2])
    num, den = s.as_integer_ratio()
    assert (num, den) == ((1, 6), 3)
    assert PowerSeries([Fraction(2 * c, den) for c in num]).coeff(1) == 4
    assert PowerSeries([Fraction(c - c, den) for c in num]) == _series(0, 0)


def test_inverse_of_one_minus_x():
    geom = _series(1, -1, 0, 0, 0, 0, 0).inverse()
    assert [geom.coeff(i) for i in range(7)] == [1] * 7


def test_inverse_defining_identity():
    s = _series(1, 3, -2, 5, 7)
    prod = s * s.inverse()
    assert prod == one_series(4)


def test_inverse_requires_unit_constant():
    with pytest.raises(ZeroDivisionError):
        _series(0, 1).inverse()


def test_inverse_involution():
    s = _series(2, -1, 4, 3)
    assert s.inverse().inverse() == s


def test_sqrt_squares_back():
    base = _series(1, -4, 0, 0, 0, 0, 0, 0, 0)
    root = base.sqrt()
    assert root * root == base
    assert [root.coeff(i) for i in range(5)] == [1, -2, -2, -4, -10]


def test_sqrt_requires_constant_one():
    with pytest.raises(ValueError):
        _series(4, 1).sqrt()


def test_pow_and_negative_pow():
    s = _series(1, 1, 0, 0, 0)
    assert (s**3).coeff(1) == 3
    assert (s**-1) == s.inverse()
    assert (s**0) == one_series(4)
    assert _series(4, 1) ** Fraction(2, 1) == _series(16, 8)


# -- bundled generating functions ---------------------------------------


def test_catalan_coefficients():
    gf = catalan_gf(10)
    catalans = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
    assert [gf.coeff(i) for i in range(11)] == catalans
    # closed form binom(2j,j)/(j+1)
    for j in range(11):
        assert gf.coeff(j) == Fraction(binomial_value(2 * j, j), j + 1)


def test_central_binomial_coefficients():
    gf = central_binomial_gf(10)
    for j in range(11):
        assert gf.coeff(j) == binomial_value(2 * j, j)


def test_catalan_functional_equation():
    # C = 1 + x C^2: coefficient m of C is coefficient m - 1 of C^2
    order = 16
    c = catalan_gf(order)
    assert c.coeff(0) == 1
    assert all((c * c).coeff(m - 1) == c.coeff(m) for m in range(1, order + 1))


def test_ballot_family_coefficients():
    # coefficient n of ballot(k) is binom(2n+k, n)
    for k in range(6):
        gf = ballot_gf(k, 20)
        for n in range(21):
            assert gf.coeff(n) == binomial_value(2 * n + k, n)


def test_ballot_zero_is_central():
    assert ballot_gf(0, 12) == central_binomial_gf(12)


def test_shifted_central_coefficients():
    gf = shifted_central_gf(12)
    for j in range(13):
        assert gf.coeff(j) == binomial_value(2 * j + 2, j + 1)


def test_shifted_central_identity_check():
    assert check_shifted_central_identity(64)
    assert check_shifted_central_identity(10)


def test_convolution_identity_check():
    assert check_convolution_11897(64)
    assert check_convolution_11897(50)


def test_convolution_identity_small_values():
    # coefficient n of catalan * shifted-central equals 2*binom(2n+2, n)
    order = 12
    prod = catalan_gf(order) * shifted_central_gf(order)
    for n in range(order + 1):
        assert prod.coeff(n) == 2 * binomial_value(2 * n + 2, n)


def test_known_gf_registry():
    assert known_gf("catalan", 5) == catalan_gf(5)
    assert known_gf("central", 5) == central_binomial_gf(5)
    assert known_gf("shifted-central", 5) == shifted_central_gf(5)
    assert known_gf("ballot", 5, 2) == ballot_gf(2, 5)
    with pytest.raises(KeyError):
        known_gf("unknown", 5)


# The definitions the power kernel replaced, kept as references: the
# central series as an inverted square root, the shifted central series as
# twice a product, and Catalan powers by square-and-multiply.


def old_central(order: int) -> PowerSeries:
    return PowerSeries(((1, -4) + (0,) * order)[: order + 1]).sqrt().inverse()


def old_catalan_power(order: int, k: int) -> PowerSeries:
    result, base = one_series(order), catalan_gf(order)
    while k:
        if k & 1:
            result = result * base
        base, k = base * base, k >> 1
    return result


def test_bundled_series_match_their_old_definitions():
    for order in range(65):
        central = old_central(order)
        assert central_binomial_gf(order) == central
        twice = tuple(2 * c for c in (catalan_gf(order) * central).coeffs)
        assert shifted_central_gf(order).coeffs == twice
        for k in range(9):
            assert ballot_gf(k, order) == central * old_catalan_power(order, k)


def count_calls(monkeypatch, name: str, *aliases: str) -> list[int]:
    calls, method = [0], getattr(PowerSeries, name)

    def counted(*args):
        calls[0] += 1
        return method(*args)

    for attr in (name, *aliases):
        monkeypatch.setattr(PowerSeries, attr, counted)
    return calls


BUNDLED = [
    central_binomial_gf,
    catalan_gf,
    shifted_central_gf,
    *(lambda order, k=k: ballot_gf(k, order) for k in (0, 1, 5, 40)),
]
BUNDLED_IDS = ["central", "catalan", "shifted-central", "ballot-0", "ballot-1", "ballot-5",
               "ballot-40"]


@pytest.mark.parametrize("build", BUNDLED, ids=BUNDLED_IDS)
def test_bundled_series_make_no_product(build, monkeypatch):
    calls = count_calls(monkeypatch, "__mul__", "__rmul__")
    build(40)
    assert calls[0] == 0


@pytest.mark.parametrize("build", BUNDLED, ids=BUNDLED_IDS)
def test_bundled_series_call_the_power_kernel_once(build, monkeypatch):
    calls = count_calls(monkeypatch, "__pow__")
    build(40)
    assert calls[0] == 1


# -- ring axioms of the product at order 16 --------------------------------


fracs = st.fractions(min_value=-9, max_value=9, max_denominator=8)
series16 = st.lists(fracs, min_size=17, max_size=17).map(
    lambda vs: PowerSeries(tuple(vs))
)


def plus(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """The sum of two series of one order, built from their coefficients."""
    return PowerSeries([x + y for x, y in zip(a.coeffs, b.coeffs)])


@settings(max_examples=40, deadline=None)
@given(series16, series16, series16)
def test_series_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * plus(b, c) == plus(a * b, a * c)


@settings(max_examples=40, deadline=None)
@given(series16, series16)
def test_mul_matches_double_loop(a, b):
    prod = a * b
    for n in range(prod.order + 1):
        direct = sum(a.coeff(s) * b.coeff(n - s) for s in range(n + 1))
        assert prod.coeff(n) == direct


# -- the integer core against a Fraction reference ---------------------
#
# These are the Fraction loops the integer core replaced, kept as the
# reference: products, inverses and square roots coefficient by coefficient.


def ref_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    m = min(len(a), len(b)) - 1
    out = [Fraction(0)] * (m + 1)
    for i, x in enumerate(a[: m + 1]):
        for j in range(m + 1 - i):
            out[i + j] += x * b[j]
    return out


def ref_inverse(f: list[Fraction]) -> list[Fraction]:
    out = [1 / f[0]]
    for m in range(1, len(f)):
        acc = sum(f[i] * out[m - i] for i in range(1, m + 1))
        out.append(-acc / f[0])
    return out


def ref_sqrt(f: list[Fraction]) -> list[Fraction]:
    out = [Fraction(1)]
    for m in range(1, len(f)):
        acc = sum(out[i] * out[m - i] for i in range(1, m))
        out.append((f[m] - acc) / 2)
    return out


def ref_pow(f: list[Fraction], e: int) -> list[Fraction]:
    base = ref_inverse(f) if e < 0 else f
    out = [Fraction(1)] + [Fraction(0)] * (len(f) - 1)
    for _ in range(abs(e)):
        out = ref_mul(out, base)
    return out


def assert_is(series: PowerSeries, coeffs: list[Fraction]) -> None:
    """Same values, and the same canonical form as a series built from them."""
    assert series.coeffs == tuple(coeffs)
    assert all(type(c) is Fraction for c in series.coeffs)
    rebuilt = PowerSeries(coeffs)
    assert series == rebuilt and hash(series) == hash(rebuilt)


wide = st.fractions(min_value=-40, max_value=40, max_denominator=30)
nonzero = wide.filter(bool)
coeff_lists = st.lists(wide, min_size=1, max_size=14)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists)
def test_product_of_unequal_orders_matches_reference(a, b):
    assert_is(PowerSeries(a) * PowerSeries(b), ref_mul(a, b))
    assert_is(PowerSeries(b) * PowerSeries(a), ref_mul(a, b))


@settings(max_examples=60, deadline=None)
@given(nonzero, st.lists(wide, max_size=12))
def test_inverse_with_rational_constant_term_matches_reference(f0, rest):
    f = [f0] + rest
    assert_is(PowerSeries(f).inverse(), ref_inverse(f))


@settings(max_examples=60, deadline=None)
@given(st.lists(wide, max_size=14))
def test_sqrt_of_rational_series_matches_reference(rest):
    f = [Fraction(1)] + rest
    root = PowerSeries(f).sqrt()
    assert_is(root, ref_sqrt(f))
    assert root * root == PowerSeries(f)


@settings(max_examples=40, deadline=None)
@given(nonzero, st.lists(wide, max_size=7), st.integers(min_value=-3, max_value=3))
def test_pow_with_negative_exponents_matches_reference(f0, rest, e):
    f = [f0] + rest
    assert_is(PowerSeries(f) ** e, ref_pow(f, e))


@st.composite
def unit_series(draw) -> list[Fraction]:
    """Constant term 1, then either every coefficient drawn or a few nonzero
    ones at scattered places with gaps of zeros between them."""
    order = draw(st.integers(min_value=0, max_value=10))
    if draw(st.booleans()):
        return [Fraction(1)] + draw(st.lists(wide, min_size=order, max_size=order))
    rest = [Fraction(0)] * order
    for j in draw(st.sets(st.integers(min_value=0, max_value=order - 1), max_size=3)) if order else ():
        rest[j] = draw(nonzero)
    return [Fraction(1)] + rest


@settings(max_examples=80, deadline=None)
@given(unit_series(), st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4))
def test_fractional_power_to_its_denominator_is_the_integer_power(f, p, q):
    power = PowerSeries(f) ** p
    assert_is(power, ref_pow(f, p))
    assert (PowerSeries(f) ** Fraction(p, q)) ** q == power


@pytest.mark.parametrize("alpha", [0.5, 1.0, "2", None])
def test_power_takes_only_int_or_fraction(alpha):
    with pytest.raises(TypeError):
        _series(1, 2, 3) ** alpha


def test_power_of_a_zero_constant_term():
    # only the powers 0 and 1 exist; x^v * f is built from its coefficients
    x = _series(0, 1, 0, 0, 0, 0, 0)
    assert x ** 0 == one_series(6) and x ** 1 == x
    for alpha in (2, 3, 7, Fraction(1, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            x ** alpha
    with pytest.raises(ZeroDivisionError):
        x ** -1


def test_canonical_form_is_structural():
    half = PowerSeries([Fraction(1, 2), 3])
    assert PowerSeries([Fraction(2, 4), 3]) == half
    assert hash(PowerSeries([Fraction(2, 4), 3])) == hash(half)
    # the same series reached through products and powers that leave
    # common factors
    for built in (
        PowerSeries([2, -12]).inverse(),
        PowerSeries([Fraction(1, 4), Fraction(3, 2)]) * PowerSeries([2, 0]),
        PowerSeries([Fraction(1, 6), 1]) * PowerSeries([3, 0, 7]),
        PowerSeries([Fraction(1, 2), 3, Fraction(1, 7)]) * one_series(1),
        PowerSeries([2, 0]) * PowerSeries([Fraction(1, 4), Fraction(3, 2)]),
    ):
        assert built == half and hash(built) == hash(half)
        assert built.coeffs == (Fraction(1, 2), Fraction(3))


@pytest.mark.parametrize("copier", [
    copy.copy,
    copy.deepcopy,
    lambda s: pickle.loads(pickle.dumps(s)),
], ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_round_trip(copier):
    s = PowerSeries([Fraction(1, 3), Fraction(-5, 6), 2, 0])
    t = copier(s)
    assert type(t) is PowerSeries
    assert t == s and hash(t) == hash(s)
    assert t.coeffs == (Fraction(1, 3), Fraction(-5, 6), 2, 0) and t.order == 3
    assert copier(PowerSeries([1, 2])) == PowerSeries([1, 2])


def test_zero_series_behaves():
    zero = PowerSeries([0, 0, 0])
    s = PowerSeries([Fraction(1, 3), Fraction(-5, 6), 2])
    assert zero.coeffs == (0, 0, 0) and zero.order == 2
    assert zero.as_integer_ratio() == ((0, 0, 0), 1)
    assert PowerSeries([Fraction(0, 5), 0, Fraction(0)]) == zero
    assert s * zero == zero and zero * s == zero and hash(s * zero) == hash(zero)
    assert zero ** 1 == zero and zero ** 0 == one_series(2)
    with pytest.raises(ZeroDivisionError):
        zero.inverse()
    with pytest.raises(ValueError):
        zero.sqrt()
    with pytest.raises(ValueError):
        zero ** 2


# -- only int and Fraction coefficients; no negative orders --------------


@pytest.mark.parametrize("coeffs", [[0.1], [1, 0.5], ["1/3", 2], [None], [1j]])
def test_non_rational_coefficients_rejected(coeffs):
    with pytest.raises(TypeError):
        PowerSeries(coeffs)


@pytest.mark.parametrize(
    "op",
    [
        lambda s: s * 0.5,
        lambda s: 0.5 * s,
        lambda s: s + 0.5,
        lambda s: 0.5 + s,
        lambda s: s - 0.5,
        lambda s: 0.5 - s,
        lambda s: s / 0.5,
        lambda s: s * "2",
    ],
)
def test_float_scalars_rejected(op):
    with pytest.raises(TypeError):
        op(_series(1, 2))


@pytest.mark.parametrize(
    "build",
    [
        one_series,
        catalan_gf,
        central_binomial_gf,
        shifted_central_gf,
        lambda order: ballot_gf(2, order),
        lambda order: known_gf("central", order),
    ],
)
def test_negative_order_rejected(build):
    with pytest.raises(ValueError):
        build(-1)
    assert build(0).order == 0


def test_small_orders_of_the_constructors():
    assert central_binomial_gf(0) == _series(1)
    assert central_binomial_gf(1) == _series(1, 2)


# -- closed forms at the sizes the benchmark asks for ----------------------


def closed_form(name: str, index: int | None, i: int) -> Fraction:
    if name == "catalan":
        return Fraction(math.comb(2 * i, i), i + 1)
    if name == "central":
        return Fraction(math.comb(2 * i, i))
    if name == "shifted-central":
        return Fraction(math.comb(2 * i + 2, i + 1))
    return Fraction(math.comb(2 * i + index, i))


CLOSED_FORM_SIZES = [("catalan", None, 256), ("central", None, 192), ("shifted-central", None, 128)]
CLOSED_FORM_SIZES += [("ballot", k, 96) for k in range(6)]


@pytest.mark.parametrize("name,index,order", CLOSED_FORM_SIZES)
def test_known_gf_matches_closed_form(name, index, order):
    gf = known_gf(name, order, index)
    assert gf.order == order
    assert gf.coeffs == tuple(closed_form(name, index, i) for i in range(order + 1))


# The first orders, where the linear steps start, and the largest the CLI
# allows, with family indices up to that bound.
EDGE_SIZES = [("ballot", k, order) for k in [*range(9), 100, 512] for order in (0, 1, 2, 96, 512)]
EDGE_SIZES += [(name, None, order) for name in ("catalan", "shifted-central")
               for order in (0, 1, 256, 512)]


@pytest.mark.parametrize("name,index,order", EDGE_SIZES)
def test_known_gf_matches_closed_form_at_the_edges(name, index, order):
    num, den = known_gf(name, order, index).as_integer_ratio()
    assert den == 1
    assert num == tuple(closed_form(name, index, i) for i in range(order + 1))


@pytest.mark.parametrize("name,index,order", CLOSED_FORM_SIZES)
def test_cli_series_matches_closed_form(name, index, order, capsys):
    argv = ["series", name, "--order", str(order)]
    argv += [] if index is None else ["--family-index", str(index)]
    want = [closed_form(name, index, i) for i in range(order + 1)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "".join(f"{i}: {v}\n" for i, v in enumerate(want))
    assert main(argv + ["--machine"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records == [{"index": str(i), "value": str(v)} for i, v in enumerate(want)]
