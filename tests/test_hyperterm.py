"""Parsing, evaluation, and shift structure of proper hypergeometric terms."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telesum.hyperterm import (
    BinomialFactor,
    DegenerateSampleError,
    FactorialFactor,
    HyperTerm,
    LinearForm,
    ParseError,
    PoleError,
    PowerFactor,
    UnboundParameterError,
    binomial_value,
    eval_term,
    factored_shift_pair,
    parse_linear_form,
    parse_n_polynomial,
    parse_term,
    ratio_rational,
    shift_quotient,
    term_ratio_is_one,
    term_to_string,
)
from qn_tower import eval_qnk, pair_to_tower, znk
from telesum.gosper import gosper_antidifference
from telesum.polynomials import RationalFunction, ZnPoly
from telesum.verify import WZPair, oracle_sum
from telesum.zeilberger import Recurrence, creative_telescope, natural_sum, sum_recurrence_natural

_ONE = (RationalFunction(1).num, RationalFunction(1).den)  # the prefactor 1 as an integer pair


# -- the extended binomial convention ------------------------------------


def test_binomial_ordinary():
    assert binomial_value(5, 2) == 10
    assert binomial_value(0, 0) == 1
    assert binomial_value(4, 4) == 1


def test_binomial_out_of_range_zero():
    assert binomial_value(3, 5) == 0
    assert binomial_value(3, -1) == 0
    assert binomial_value(0, 2) == 0


def test_binomial_negative_top():
    # binom(-a, b) = (-1)^b binom(a+b-1, b)
    assert binomial_value(-1, 0) == 1
    assert binomial_value(-1, 1) == -1
    assert binomial_value(-1, 2) == 1
    assert binomial_value(-3, 2) == 6
    assert binomial_value(-2, 3) == -4


# -- parsing and evaluation ----------------------------------------------


def test_parse_basic_binomial():
    t = parse_term("binom(n,k)")
    assert eval_term(t, 5, 2) == 10
    assert eval_term(t, 5, 7) == 0
    assert eval_term(t, 5, -1) == 0


def test_parse_product_juxtaposition():
    t = parse_term("binom(n,k)binom(n,k)")
    u = parse_term("binom(n,k)^2")
    assert t == u
    assert eval_term(t, 4, 2) == 36


def test_parse_single_slash_splits_products():
    # everything after the one slash is the denominator product
    t = parse_term("binom(2k,k)*binom(2n-2k+2,n-k+1)/(k+1)")
    assert eval_term(t, 3, 1) == Fraction(2 * 20, 2)
    u = parse_term("fact(n)/fact(k)*fact(n-k)")
    assert eval_term(u, 5, 2) == Fraction(120, 2 * 6)


def test_parse_integer_power_of_base():
    t = parse_term("2^k*binom(n,k)")
    assert eval_term(t, 3, 2) == 4 * 3
    u = parse_term("2^(n-k)")
    assert eval_term(u, 5, 2) == 8


def test_parse_negative_exponent_power():
    t = parse_term("binom(n,k)^2*binom(2k,n)")
    assert eval_term(t, 4, 3) == 16 * binomial_value(6, 4)


def test_parse_polynomial_prefactor():
    t = parse_term("(2k-2n-3)(k+1)binom(n,k)")
    assert eval_term(t, 2, 1) == (2 - 4 - 3) * 2 * 2


def test_parse_rational_prefactor_pole():
    t = parse_term("binom(n,k)/(n-2)")
    assert eval_term(t, 3, 1) == 3
    with pytest.raises(PoleError):
        eval_term(t, 2, 1)


def test_negative_factorial_kills_term():
    t = parse_term("fact(k-1)*binom(n,k)")
    assert eval_term(t, 3, 0) == 0  # fact(-1) convention
    assert eval_term(t, 3, 2) == 3


def test_fact_values():
    t = parse_term("fact(k)")
    assert [eval_term(t, 0, k) for k in range(5)] == [1, 1, 2, 6, 24]


def test_parse_error_position():
    with pytest.raises(ParseError) as info:
        parse_term("binom(n,k")
    assert info.value.pos == 9
    assert "expected" in str(info.value)


def test_parse_error_trailing_garbage():
    with pytest.raises(ParseError):
        parse_term("binom(n,k))")


def test_parse_error_double_slash():
    with pytest.raises(ParseError):
        parse_term("fact(n)/fact(k)/fact(n-k)")


def test_unbound_parameter_in_prefactor():
    with pytest.raises(UnboundParameterError):
        parse_term("(r+1)*binom(n,k)")
    # the same text parses fine once the parameter is bound
    t = parse_term("(r+1)*binom(n,k)", {"r": 3})
    assert eval_term(t, 2, 1) == 8


def test_symbolic_parameter_in_binomial_argument():
    t = parse_term("binom(n+r,k)")
    with pytest.raises(UnboundParameterError):
        eval_term(t, 2, 1)
    assert eval_term(t.bind({"r": 2}), 2, 1) == 4


def test_bind_rejects_negative():
    t = parse_term("binom(n+r,k)")
    with pytest.raises(ValueError):
        t.bind({"r": -1})


def test_parse_term_and_bind_share_the_binding_rule():
    message = "parameter bindings must be integers >= 0, got -1"
    with pytest.raises(ValueError, match=message):
        parse_term("binom(n+r,k)", {"r": -1})
    with pytest.raises(ValueError, match=message):
        parse_term("binom(n+r,k)").bind({"r": -1})
    for bad in (Fraction(1, 2), "2"):
        with pytest.raises(ValueError):
            parse_term("binom(n+r,k)", {"r": bad})
        with pytest.raises(ValueError):
            parse_term("binom(n+r,k)").bind({"r": bad})
    parsed = parse_term("binom(n+r,k)", {"r": 0})
    assert parsed == parse_term("binom(n+r,k)").bind({"r": 0})
    assert eval_term(parsed, 3, 1) == 3


def test_canonical_merge_of_factors():
    t = parse_term("2^k*2^k")
    u = parse_term("4^k")
    assert eval_term(t, 0, 3) == eval_term(u, 0, 3) == 64


def test_subst_k():
    t = parse_term("binom(n,k)")
    fixed = t.subst_k(2)
    assert eval_term(fixed, 5, 0) == 10
    assert eval_term(fixed, 5, 99) == 10  # k no longer appears


# -- shift quotients -----------------------------------------------------


def test_shift_quotient_binomial_k():
    t = parse_term("binom(n,k)")
    r = shift_quotient(t, "k")
    # binom(n,k+1)/binom(n,k) = (n-k)/(k+1)
    assert r.evaluate(5, 1) == Fraction(4, 2)
    assert r.evaluate(7, 3) == Fraction(4, 4)


def test_shift_quotient_binomial_n():
    t = parse_term("binom(n,k)")
    r = shift_quotient(t, "n")
    # binom(n+1,k)/binom(n,k) = (n+1)/(n+1-k)
    assert r.evaluate(4, 2) == Fraction(5, 3)


def test_shift_quotient_matches_values():
    for text in ("binom(2n,k)*binom(2n+1,k)", "binom(n,k)^3", "2^k/fact(k)"):
        t = parse_term(text)
        rk = shift_quotient(t, "k")
        rn = shift_quotient(t, "n")
        for n in range(3, 6):
            for k in range(0, 3):
                fv = eval_term(t, n, k)
                if fv == 0:
                    continue
                assert eval_term(t, n, k + 1) == fv * rk.evaluate(n, k)
                assert eval_term(t, n + 1, k) == fv * rn.evaluate(n, k)


def test_shift_quotient_with_symbolic_param_needs_binding():
    t = parse_term("binom(n+r,k)")
    with pytest.raises(UnboundParameterError):
        shift_quotient(t, "k")
    r = shift_quotient(t.bind({"r": 1}), "k")
    assert r.evaluate(2, 0) == Fraction(3, 1)


# -- structural ratio and sampling equivalence ---------------------------


def test_ratio_rational_cancels_factors():
    f = parse_term("binom(n,k)")
    g = parse_term("(k+1)*binom(n,k)/(n+1)")
    r = ratio_rational(g, f)
    assert RationalFunction(*r).evaluate(4, 2) == Fraction(3, 5)


def test_ratio_rational_rejects_mismatched_structure():
    f = parse_term("binom(n,k)")
    g = parse_term("binom(2n,k)")
    with pytest.raises(ValueError):
        ratio_rational(g, f)


@pytest.mark.parametrize("zero", ["0", "(0)*2^n", "0*binom(n,k)"])
def test_ratio_rational_of_zero_is_the_zero_pair(zero):
    # zero is 0 times any nonzero term, whatever factors it is written with
    num, den = ratio_rational(parse_term(zero), parse_term("2^n*(k+1)"))
    assert not num and den.coeffs == ((1,),)
    with pytest.raises(ZeroDivisionError):
        ratio_rational(parse_term(zero), parse_term("0*binom(n,k)"))


def test_term_ratio_is_one_positive():
    # binom(2n+2,n) rewritten through the adjacent column
    t = parse_term("binom(2n+2,n)")
    v = parse_term("(n+1)*binom(2n+2,n+1)/(n+2)")
    lhs = [eval_term(t, n, 0) for n in range(6)]
    rhs = [eval_term(v, n, 0) for n in range(6)]
    assert lhs == rhs
    assert term_ratio_is_one(t, v)


def test_term_ratio_is_one_skips_points_where_either_term_vanishes():
    # n*fact(n-1) is 0 at n = 0, where fact(n) is 1; the order does not matter
    a, b = parse_term("n*fact(n-1)*binom(n,k)"), parse_term("fact(n)*binom(n,k)")
    assert term_ratio_is_one(a, b) and term_ratio_is_one(b, a)
    # binom(-1,-1) is 0 at every point, so no point compares the two
    zero, one = parse_term("binom(-1,-1)"), parse_term("1/fact(0)")
    for t1, t2 in ((zero, one), (one, zero)):
        with pytest.raises(DegenerateSampleError):
            term_ratio_is_one(t1, t2)


def test_term_ratio_is_one_is_not_true_for_terms_that_differ():
    # equal shift quotients and values at every n, k >= 0, but the second
    # term is 0 at k = -1, -2, -3 where binom(k,-k) is not: every sample
    # point lies on a line where a factor of a shift pair vanishes
    a = parse_term("binom(k,-k)")
    b = parse_term("fact(k)*fact(-k)^-1*fact(2k)^-1")
    assert [eval_term(a, 0, k) for k in (-1, -2, -3)] == [-1, 3, -10]
    assert [eval_term(b, 0, k) for k in (-1, -2, -3)] == [0, 0, 0]
    for t1, t2 in ((a, b), (b, a)):
        with pytest.raises(DegenerateSampleError):
            term_ratio_is_one(t1, t2)


def test_term_ratio_is_one_compares_the_zero_term_as_zero():
    zero, two = parse_term("0"), parse_term("2^k/n")
    assert term_ratio_is_one(zero, parse_term("0*binom(n,k)"))
    assert not term_ratio_is_one(zero, two) and not term_ratio_is_one(two, zero)


def test_term_ratio_is_one_negative():
    t = parse_term("binom(n,k)")
    u = parse_term("2*binom(n,k)")
    assert not term_ratio_is_one(t, u)


def test_term_ratio_is_one_shift_mismatch():
    t = parse_term("binom(n,k)")
    u = parse_term("binom(n,k)*2^k")
    assert not term_ratio_is_one(t, u)


# -- printing ------------------------------------------------------------


def test_print_parse_round_trip():
    texts = [
        "binom(n,k)",
        "binom(2k,k)*binom(2n-2k+2,n-k+1)/(k+1)",
        "2*binom(2n,k)*binom(2n+1,k)",
        "binom(n,k)^3",
        "2^k*fact(k)/fact(n)",
        "(2k-2n-3)(k+1)binom(2k,k)binom(2n-2k+2,n-k+1)fact(k)/fact(k+1)*(n+2)",
    ]
    for text in texts:
        t = parse_term(text)
        printed = term_to_string(t)
        assert parse_term(printed) == t


@pytest.mark.parametrize("form, printed", [
    (LinearForm.make(), "0"),
    (LinearForm.make(constant=-3), "-3"),
    (LinearForm.make(1, -1, 0, {"r": 1}), "n-k+r"),
    (LinearForm.make(-1, 1, 0, {"r": -1}), "-n+k-r"),
    (LinearForm.make(2, -2, 5, {"r": 2}), "2n-2k+2r+5"),
    (LinearForm.make(-2, 2, -1, {"r": -2}), "-2n+2k-2r-1"),
    (LinearForm.make(0, 1, -1), "k-1"),
])
def test_linear_form_to_string(form, printed):
    assert form.to_string() == printed


def test_term_to_string_simple():
    # structured factors print first, the rational prefactor last
    assert term_to_string(parse_term("binom(n,k)")) == "binom(n,k)"
    assert term_to_string(parse_term("2*binom(n,k)")) == "binom(n,k)*2"
    assert term_to_string(parse_term("binom(n,k)/(n+1)")) == "binom(n,k)/(n+1)"


# -- linear forms --------------------------------------------------------


def test_parse_linear_form():
    lf = parse_linear_form("2n+1")
    assert lf.evaluate(3, 0) == 7
    lf2 = parse_linear_form("n-1")
    assert lf2.evaluate(0, 0) == -1
    lf3 = parse_linear_form("s-1")
    assert lf3.bind({"s": 4}).evaluate(0, 0) == 3


def test_parse_linear_form_rejects_quadratic():
    with pytest.raises(ParseError):
        parse_linear_form("n*n")


def test_linear_form_unbound_evaluate():
    lf = parse_linear_form("r+1")
    with pytest.raises(UnboundParameterError):
        lf.evaluate(0, 0)


def _linear_texts():
    """(text, form, atomic) triples: random integer-linear expressions with
    nested parentheses, juxtaposition, ``*``, unary signs and parameters,
    each with the form it spells built directly.  An atomic text is a
    literal, a symbol or parenthesized, so it can stand as an operand."""
    symbols = {"n": LinearForm.make(1), "k": LinearForm.make(0, 1),
               "r": LinearForm.make(params={"r": 1}), "s": LinearForm.make(params={"s": 1})}
    leaves = st.one_of(
        st.integers(0, 12).map(lambda c: (str(c), LinearForm.make(constant=c), True)),
        st.sampled_from(sorted(symbols)).map(lambda v: (v, symbols[v], True)),
    )

    def wrap(x):
        return x[0] if x[2] else f"({x[0]})"

    def combine(children):
        def add(a, b, minus):
            if minus:
                return f"{a[0]}-{wrap(b)}", a[1] - b[1], False
            return f"{a[0]}+{wrap(b)}", a[1] + b[1], False

        def mul(a, b, star):
            ta, tb = wrap(a), wrap(b)
            joint = "*" if star or (ta[-1].isdigit() and tb[0].isdigit()) else ""
            form = b[1].scale(a[1].constant) if a[1].is_constant() else a[1].scale(b[1].constant)
            return ta + joint + tb, form, False

        constants = children.filter(lambda x: x[1].is_constant())
        return st.one_of(
            st.builds(add, children, children, st.booleans()),
            st.builds(lambda a, sign: (sign + wrap(a), a[1].scale(-1 if sign == "-" else 1), False),
                      children, st.sampled_from("-+")),
            st.builds(mul, constants, children, st.booleans()),
            st.builds(mul, children, constants, st.booleans()),
            st.builds(lambda a, e: (f"{wrap(a)}^{e}", a[1] if e else LinearForm.make(constant=1),
                                    False), children, st.integers(0, 1)),
            children.map(lambda x: (f"({x[0]})", x[1], True)),
        )

    return st.recursive(leaves, combine, max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(_linear_texts())
def test_integer_linear_expressions_parse_to_their_form(spelled):
    text, form, _ = spelled
    assert parse_linear_form(text) == form
    assert parse_term(f"fact({text})").factors == ((FactorialFactor(form), 1),)


@settings(max_examples=60, deadline=None)
@given(_linear_texts(), st.sampled_from(["n*k", "n^2", "r*n", "n/2", "k(n+1)", "(n-k)^2"]))
def test_nonlinear_arguments_are_parse_errors(spelled, nonlinear):
    text = f"{spelled[0]}+{nonlinear}"
    with pytest.raises(ParseError):
        parse_linear_form(text)
    with pytest.raises(ParseError) as info:
        parse_term(f"binom({text},k)")
    assert info.value.pos == len("binom(")


@pytest.mark.parametrize("text, canonical", [
    ("binom(2(n+1),k)", "binom(2n+2,k)"),
    ("fact(2*(n-k))", "fact(2n-2k)"),
    ("2^(2(n-k))", "2^(2n-2k)"),
    ("binom(n,k)*(n/2)", "n*binom(n,k)/2"),
    ("(n+1)^-1*binom(n,k)", "binom(n,k)/(n+1)"),
    ("binom(2k,k)*binom(2(n-k+1),n-k+1)/(k+1)", "binom(2k,k)*binom(2n-2k+2,n-k+1)/(k+1)"),
    ("(1+1)^k*(2/4)^(n)", "2^k*(1/2)^n"),
])
def test_the_one_expression_grammar_accepts_other_spellings(text, canonical):
    assert parse_term(text) == parse_term(canonical)


# -- property: parse/print and eval/shift coherence ----------------------


_term_texts = st.sampled_from(
    [
        "binom(n,k)",
        "binom(n,k)^2",
        "binom(2n,k)",
        "binom(n+2,k+1)",
        "2^k*binom(n,k)",
        "3^(n-k)",
        "fact(k)/fact(n)",
        "binom(2k,k)/(k+1)",
        "(k+2)*binom(n,k)",
        "binom(n,k)*binom(n,k+1)",
    ]
)


@settings(max_examples=30, deadline=None)
@given(_term_texts)
def test_round_trip_property(text):
    t = parse_term(text)
    assert parse_term(term_to_string(t)) == t


@settings(max_examples=20, deadline=None)
@given(_term_texts, st.integers(min_value=3, max_value=7), st.integers(min_value=0, max_value=3))
def test_k_shift_property(text, n, k):
    t = parse_term(text)
    fv = eval_term(t, n, k)
    if fv == 0:
        return
    r = shift_quotient(t, "k")
    assert eval_term(t, n, k + 1) == fv * r.evaluate(n, k)


# -- the compiled evaluator against the Q(n)(k) reference ------------------


def _reference_value(t, n, k):
    """The term's value built from the generic tower, factor by factor."""
    try:
        value = eval_qnk(pair_to_tower(*t.prefactor), n, k)
    except ZeroDivisionError:
        raise PoleError(
            f"prefactor denominator vanishes at (n, k) = ({n}, {k})", (n, k)
        ) from None
    for f, e in t.factors:
        if isinstance(f, BinomialFactor):
            base = Fraction(binomial_value(f.top.evaluate(n, k), f.bottom.evaluate(n, k)))
        elif isinstance(f, FactorialFactor):
            arg = f.arg.evaluate(n, k)
            if arg < 0:
                return Fraction(0)
            base = Fraction(math.factorial(arg))
        else:
            exp = f.exponent.evaluate(n, k)
            if f.base == 0 and exp < 0:
                raise PoleError(f"zero base with negative exponent at (n, k) = ({n}, {k})", (n, k))
            base = f.base**exp
        if base == 0 and e < 0:
            raise PoleError(
                f"zero factor {f.to_string()} with negative exponent at (n, k) = ({n}, {k})",
                (n, k),
            )
        value *= base**e
    return value


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except PoleError as exc:
        return ("pole", str(exc), exc.point)


@pytest.mark.parametrize(
    "text",
    [
        "binom(n,k)*(2n+1)/(k+1)",  # rational prefactor, pole at k = -1
        "binom(n,k)^2*(n^2-3k)/(2n-k)",  # prefactor pole along k = 2n
        "binom(k-n-1,k)*binom(n,k)",  # negative-top binomial
        "binom(n-2k,k)",  # top turns negative as k grows
        "fact(k-2)*binom(n,k)",  # factorial at a negative argument
        "binom(n,k)/fact(k-n)",  # ... also in the denominator
        "2^(n-k)*binom(n,k)",  # negative exponent of a power
        "3^(k-n)/5^k",  # rational powers in both parts
        "binom(n,k+1)/binom(n,k)",  # zero factor with a negative exponent
        # zero base: a pole for k > n, zero for k < n; the parser refuses
        # it, so the term is built by hand
        pytest.param(
            HyperTerm([(PowerFactor(Fraction(0), LinearForm.make(1, -1)), 1)], _ONE),
            id="0^(n-k)",
        ),
        "fact(n-k)*fact(k)/(k-3)fact(n)^2",  # prefactor pole before any factor
    ],
)
def test_compiled_evaluator_matches_reference(text):
    t = parse_term(text) if isinstance(text, str) else text
    for n in range(-2, 7):
        for k in range(-3, 9):
            assert _outcome(eval_term, t, n, k) == _outcome(_reference_value, t, n, k), (n, k)


def test_bound_term_evaluates_like_one_parsed_with_the_binding():
    # binom(n,r)*binom(n,2) merges into binom(n,2)^2 only at r = 2
    for text in ("binom(n+r,k)*2^(r-k)*fact(s-k)/(k+1)", "binom(n,r)*binom(n,2)",
                 "(1/2)^(n+r)*binom(n,k)"):
        parent = parse_term(text)
        for r in range(3):
            for s in range(3):
                binding = {"r": r, "s": s}
                bound = parent.bind(binding)
                parsed = parse_term(text, binding)
                assert bound == parsed
                # the same term as the text with the values written in
                assert parsed == parse_term(text.replace("r", f"({r})").replace("s", f"({s})"))
                # the prefactor's pair is shared, not rebuilt
                assert bound.prefactor is parent.prefactor
                for n in range(5):
                    for k in range(-2, 7):
                        want = _outcome(eval_term, parsed, n, k)
                        assert _outcome(eval_term, bound, n, k) == want


def _answer(fn, t):
    """fn(t) in a comparable form: a certificate's record, a factored
    quotient's pair, or the type and text of what it raised."""
    try:
        out = fn(t)
    except Exception as exc:  # the raised error is the answer
        return type(exc), str(exc)
    return out.record() if hasattr(out, "record") else getattr(out, "pair", lambda: out)()


_ONE_N = (ZnPoly((1,)),)
# the solvers and oracles, each on a bound term only
BOUND_ONLY = {
    "eval_term": lambda t: eval_term(t, 3, 1),
    "factored_shift_pair": lambda t: factored_shift_pair(t, "k"),
    "shift_quotient": lambda t: shift_quotient(t, "n"),
    "term_ratio_is_one": lambda t: term_ratio_is_one(t, t),
    "oracle_sum": lambda t: oracle_sum(t, 3, -1, 4),
    "WZPair.check": lambda t: WZPair(t, t, _ONE_N).check(),
    "WZPair.vanishes_at_k": lambda t: WZPair(t, t, _ONE_N).vanishes_at_k(0),
    "gosper_antidifference": gosper_antidifference,
    "creative_telescope": lambda t: creative_telescope(t, max_order=2),
    "natural_sum": lambda t: natural_sum(t, 3),
    "sum_recurrence_natural": lambda t: sum_recurrence_natural(
        t, Recurrence((ZnPoly((2,)), ZnPoly((-1,)))), n_hi=4),
}


@pytest.mark.parametrize("name", BOUND_ONLY)
def test_solvers_and_oracles_take_terms_bound_once(name):
    """Parameters are bound on the term, at parse time or by ``bind``; the
    solvers and oracles refuse an unbound term and answer alike for both."""
    fn = BOUND_ONLY[name]
    with pytest.raises(UnboundParameterError):
        fn(parse_term("binom(n+r,k)"))
    for text in ("binom(n+r,k)", "binom(k+r,r)*2^(s-k)"):
        for binding in ({"r": 0, "s": 1}, {"r": 2, "s": 0}):
            assert _answer(fn, parse_term(text).bind(binding)) == _answer(
                fn, parse_term(text, binding))


def test_an_unbound_companion_is_refused():
    f, g = parse_term("binom(n,k)"), parse_term("binom(n,k)*2^r")
    with pytest.raises(UnboundParameterError):
        WZPair(f, g, _ONE_N).check()
    with pytest.raises(UnboundParameterError):
        WZPair(f, g, _ONE_N).vanishes_at_k(0)


def test_evaluator_is_compiled_once_and_keeps_unbound_errors():
    t = parse_term("binom(n,k)*3^k/(n+1)")
    assert t.evaluator() is t.evaluator()
    assert t.evaluator()(2, 1) == eval_term(t, 2, 1) == 2
    with pytest.raises(UnboundParameterError):
        parse_term("binom(n+r,k)").evaluator()


def test_parse_n_polynomial():
    assert parse_n_polynomial("n^2-1") == (ZnPoly((-1, 0, 1)), 1)
    assert parse_n_polynomial("(r+1)n", {"r": 2}) == (ZnPoly((0, 3)), 1)
    with pytest.raises(ValueError, match="may not involve k"):
        parse_n_polynomial("n+k")
    with pytest.raises(UnboundParameterError, match=r"'r' in the operator coefficient 'r\*n'"):
        parse_n_polynomial("r*n")
    with pytest.raises(ParseError):
        parse_n_polynomial("n+")


def test_parse_n_polynomial_divides_by_integer_constants():
    """(p, d) in Z[n] over an integer, as the grammar computes it: the value
    p/d, not reduced."""
    assert parse_n_polynomial("(n+2)/2") == parse_n_polynomial("n/2+1") == (ZnPoly((2, 1)), 2)
    assert parse_n_polynomial("-n/2") == (ZnPoly((0, -1)), 2)
    assert parse_n_polynomial("(r+1)n/4/3", {"r": 2}) == (ZnPoly((0, 3)), 12)
    for text in ("n/n", "n/(n+1)", "(n+2)/k", "n/0", "n/r"):
        with pytest.raises(ParseError, match="may divide only by a nonzero integer"):
            parse_n_polynomial(text, {"r": 2})
    # one expression grammar: a term's prefactor divides by integers too
    assert parse_term("binom(n,k)*(n/2)") == parse_term("n*binom(n,k)/2")


# -- power bases: negative and rational ------------------------------------


@pytest.mark.parametrize(
    "text, base, printed",
    [
        ("(-1)^k*binom(n,k)", Fraction(-1), "binom(n,k)*(-1)^(k)"),
        ("(-1)^(n+k)", Fraction(-1), "(-1)^(n+k)"),
        ("(1/2)^k", Fraction(1, 2), "(1/2)^(k)"),
        ("(-2/3)^(2n-k)", Fraction(-2, 3), "(-2/3)^(2n-k)"),
        ("(5)^k", Fraction(5), "5^(k)"),
    ],
)
def test_parse_and_print_negative_and_rational_bases(text, base, printed):
    t = parse_term(text)
    powers = [f for f, _ in t.factors if isinstance(f, PowerFactor)]
    assert [f.base for f in powers] == [base]
    assert term_to_string(t) == printed
    assert parse_term(printed) == t


def test_rational_base_values():
    t = parse_term("(-1)^k*(1/2)^(n-k)*binom(n,k)")
    for n in range(5):
        for k in range(-1, 6):
            want = (-1) ** k * Fraction(1, 2) ** (n - k) * binomial_value(n, k)
            assert eval_term(t, n, k) == want


def test_power_of_a_symbolic_power_round_trips():
    # the printer writes a repeated power factor as 2^(k)^2, like binom(n,k)^2
    t = parse_term("2^k*2^k/(-1)^(n)^3")
    assert term_to_string(t) == "2^(k)^2/(-1)^(n)^3"
    assert parse_term(term_to_string(t)) == t
    assert eval_term(t, 1, 3) == -64


def test_constant_bases_with_integer_exponents_fold_into_the_prefactor():
    assert parse_term("(1/2)^3*binom(n,k)") == parse_term("binom(n,k)/8")
    assert parse_term("(-1)^-1*k") == parse_term("(-1)*k")
    assert not parse_term("0^(3)").prefactor[0]


@pytest.mark.parametrize("text", ["0^k", "0^(n-k)", "(0)^k", "0^-2", "0^(-1)", "0^(2)^-1", "(3/0)^k"])
def test_zero_base_with_symbolic_or_negative_exponent_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_term(text)


@pytest.mark.parametrize("var", ["k", "n"])
def test_integer_shift_pair_refuses_a_hand_built_zero_base(var):
    t = HyperTerm([(PowerFactor(Fraction(0), LinearForm.make(0, 1, 0)), 1)], _ONE)
    with pytest.raises(ValueError):
        factored_shift_pair(t, var)


def test_integer_shift_pair_is_unreduced_and_lifts_to_shift_quotient():
    t = parse_term("binom(2k,k)")
    a, b = factored_shift_pair(t, "k").pair()
    # (2k+1)(2k+2)/(k+1)^2, the common factor k+1 still in place
    assert a.degree == 2 and b.degree == 2
    assert shift_quotient(t, "k") == RationalFunction(znk((2,), (4,)), znk((1,), (1,)))
