"""Proper hypergeometric terms: parsing, printing, evaluation, shift quotients.

A term is a product of binomial/factorial/power factors with integer-linear
arguments in (n, k) and optional auxiliary parameter symbols, times a
rational prefactor held as a reduced integer pair (num, den) in Z[n][k]
(``zn_reduced``); only ``shift_quotient`` makes a ``RationalFunction``
of it.  The parser has one
expression grammar; an argument or exponent must read as a linear form, a
power base as a constant, any nonzero rational (``2^k``, ``(-1)^(n+k)``,
``(1/2)^k``; a zero base, which has no shift quotient, only with a constant
exponent >= 0), and a prefactor piece as a polynomial over an integer.

Shift quotients F(.., var+1)/F are built factored (``factored_shift_pair``):
primitive linear factors alpha*k + beta(n) in Z[n][k] from the falling
products of the factors' linear forms, integers from power bases, and the
prefactor's pieces.  The Gosper and Zeilberger layers read the factors; the
certificate check and ``term_ratio_is_one`` evaluate them at one integer
point (``zn_identity``); ``shift_quotient`` reduces their product.

Evaluation conventions (fixed, and relied on by every oracle):

* ``binom(a, b) = 0`` for ``b < 0``, and for ``a >= 0, b > a``;
* ``binom(a, b) = (-1)^b * binom(b-a-1, b)`` for ``a < 0, b >= 0``;
* a factorial at a negative integer makes the whole term 0;
* a vanishing prefactor denominator is a pole error naming the point.

Evaluation runs on integer data compiled once per bound term (see
``TermEvaluator``): the prefactor's pair as integer coefficient rows and
each factor's integer argument tuples.  The conventions above are unchanged by
it, and so are the order of the checks and the errors raised.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .polynomials import (
    ZN_ONE,
    ZN_ZERO,
    FactoredRatio,
    Polynomial,
    RationalFunction,
    ZnPoly,
    primitive_factors,
    shift_in_n,
    zn_identity,
    zn_reduced,
)
from .serialize import _join_signed, bivariate_string

ParamBinding = Mapping[str, int]


class TermError(Exception):
    pass


class ParseError(TermError):
    def __init__(self, message: str, pos: int, text: str = "") -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos
        self.text = text


class UnboundParameterError(TermError):
    pass


class PoleError(TermError):
    def __init__(self, message: str, point: tuple[int, int] | None = None) -> None:
        super().__init__(message)
        self.point = point


class DegenerateSampleError(TermError):
    pass


# ---------------------------------------------------------------------------
# linear forms


@dataclass(frozen=True)
class LinearForm:
    """Integer-linear expression alpha*n + beta*k + gamma plus parameter terms."""

    coeff_n: int = 0
    coeff_k: int = 0
    constant: int = 0
    params: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def make(coeff_n=0, coeff_k=0, constant=0, params: Mapping[str, int] | None = None):
        items = tuple(sorted((s, c) for s, c in (params or {}).items() if c))
        return LinearForm(coeff_n, coeff_k, constant, items)

    def coeff(self, var: str) -> int:
        if var == "n":
            return self.coeff_n
        if var == "k":
            return self.coeff_k
        return dict(self.params).get(var, 0)

    def is_constant(self) -> bool:
        return not (self.coeff_n or self.coeff_k or self.params)

    def __add__(self, other: "LinearForm") -> "LinearForm":
        merged = dict(self.params)
        for s, c in other.params:
            merged[s] = merged.get(s, 0) + c
        return LinearForm.make(
            self.coeff_n + other.coeff_n,
            self.coeff_k + other.coeff_k,
            self.constant + other.constant,
            merged,
        )

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + other.scale(-1)

    def scale(self, c: int) -> "LinearForm":
        return LinearForm.make(
            self.coeff_n * c,
            self.coeff_k * c,
            self.constant * c,
            {s: v * c for s, v in self.params},
        )

    def bind(self, binding: ParamBinding) -> "LinearForm":
        const = self.constant
        left = {}
        for s, c in self.params:
            if s in binding:
                const += c * int(binding[s])
            else:
                left[s] = c
        return LinearForm.make(self.coeff_n, self.coeff_k, const, left)

    def subst_k(self, value: int) -> "LinearForm":
        return LinearForm.make(
            self.coeff_n, 0, self.constant + self.coeff_k * value, dict(self.params)
        )

    def evaluate(self, n: int, k: int) -> int:
        if self.params:
            missing = ", ".join(s for s, _ in self.params)
            raise UnboundParameterError(f"unbound parameter(s): {missing}")
        return self.coeff_n * n + self.coeff_k * k + self.constant

    def sort_key(self):
        return (self.coeff_n, self.coeff_k, self.params, self.constant)

    def to_string(self) -> str:
        """The form as ``2n-k+r-3``: no ``*`` between a coefficient and its
        symbol, and 0 for the zero form."""
        terms = [(self.coeff_n, "n"), (self.coeff_k, "k"), *((c, s) for s, c in self.params),
                 (self.constant, "")]
        return _join_signed([(c > 0, sym if sym and abs(c) == 1 else f"{abs(c)}{sym}")
                             for c, sym in terms if c])


# ---------------------------------------------------------------------------
# factors


@dataclass(frozen=True)
class BinomialFactor:
    top: LinearForm
    bottom: LinearForm

    def sort_key(self):
        return (0, self.top.sort_key(), self.bottom.sort_key())

    def to_string(self) -> str:
        return f"binom({self.top.to_string()},{self.bottom.to_string()})"


@dataclass(frozen=True)
class FactorialFactor:
    arg: LinearForm

    def sort_key(self):
        return (1, self.arg.sort_key(), ())

    def to_string(self) -> str:
        return f"fact({self.arg.to_string()})"


@dataclass(frozen=True)
class PowerFactor:
    base: Fraction
    exponent: LinearForm

    def sort_key(self):
        return (2, (self.base.numerator, self.base.denominator), self.exponent.sort_key())

    def to_string(self) -> str:
        base = str(self.base)
        if self.base.denominator != 1 or self.base < 0:
            base = f"({base})"
        return f"{base}^({self.exponent.to_string()})"


Factor = BinomialFactor | FactorialFactor | PowerFactor


def _map_forms(f: Factor, fn) -> Factor:
    """The factor with fn applied to each of its linear forms."""
    if isinstance(f, BinomialFactor):
        return BinomialFactor(fn(f.top), fn(f.bottom))
    if isinstance(f, FactorialFactor):
        return FactorialFactor(fn(f.arg))
    return PowerFactor(f.base, fn(f.exponent))


def _factor_linforms(f: Factor) -> list[LinearForm]:
    if isinstance(f, BinomialFactor):
        return [f.top, f.bottom]
    if isinstance(f, FactorialFactor):
        return [f.arg]
    return [f.exponent]


def _check_binding(binding: ParamBinding) -> None:
    """Parameter values must be integers >= 0; raises ValueError otherwise."""
    for value in binding.values():
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"parameter bindings must be integers >= 0, got {value!r}")


def _term_params(term: "HyperTerm") -> set[str]:
    """The parameter symbols in a term's factors."""
    return {s for f, _ in term.factors for lf in _factor_linforms(f) for s, _c in lf.params}


# ---------------------------------------------------------------------------
# the term itself


class HyperTerm:
    """Canonical product of factors with a rational prefactor.

    The prefactor is a pair (num, den) of polynomials in k over Z[n] in the
    lowest terms ``zn_reduced`` gives; the constructor takes it as given.
    ``_evaluator`` caches the compiled evaluator, filled on first use.
    """

    __slots__ = ("factors", "prefactor", "_evaluator")

    def __init__(
        self, factors: Iterable[tuple[Factor, int]], prefactor: tuple[Polynomial, Polynomial]
    ):
        merged: dict[Factor, int] = {}
        for f, e in factors:
            merged[f] = merged.get(f, 0) + e
        canon = tuple(
            (f, e)
            for f, e in sorted(merged.items(), key=lambda fe: fe[0].sort_key())
            if e != 0
        )
        object.__setattr__(self, "factors", canon)
        object.__setattr__(self, "prefactor", prefactor)
        object.__setattr__(self, "_evaluator", None)

    def __setattr__(self, name, value):
        raise AttributeError("HyperTerm is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HyperTerm)
            and self.factors == other.factors
            and self.prefactor == other.prefactor
        )

    def __hash__(self) -> int:
        return hash((self.factors, self.prefactor))

    def __repr__(self) -> str:
        return f"HyperTerm({term_to_string(self)!r})"

    def bind(self, binding: ParamBinding | None) -> "HyperTerm":
        if not binding:
            return self
        _check_binding(binding)
        factors = [(_map_forms(f, lambda lf: lf.bind(binding)), e) for f, e in self.factors]
        return HyperTerm(factors, self.prefactor)

    def evaluator(self) -> "TermEvaluator":
        """The term compiled for exact evaluation; raises if it is unbound."""
        if self._evaluator is None:
            self.require_bound()
            object.__setattr__(self, "_evaluator", TermEvaluator(self))
        return self._evaluator

    def require_bound(self) -> None:
        syms = _term_params(self)
        if syms:
            raise UnboundParameterError(f"unbound parameter(s): {', '.join(sorted(syms))}")

    def scale_rational(self, multiplier: tuple[Polynomial, Polynomial]) -> "HyperTerm":
        """The term multiplied by a rational function num/den of (n, k), given
        as a pair of polynomials in k over Z[n]."""
        (p, q), (a, b) = self.prefactor, multiplier
        return HyperTerm(self.factors, zn_reduced(p * a, q * b))

    def subst_k(self, value: int) -> "HyperTerm":
        """Substitute a concrete integer for k, leaving a term in n alone."""
        factors = [(_map_forms(f, lambda lf: lf.subst_k(value)), e) for f, e in self.factors]
        num, den = (Polynomial((p.evaluate(value),)) for p in self.prefactor)
        if not den:
            raise PoleError(f"prefactor pole on substituting k = {value}")
        return HyperTerm(factors, zn_reduced(num, den))


# ---------------------------------------------------------------------------
# evaluation


def binomial_value(a: int, b: int) -> int:
    if b < 0:
        return 0
    if a >= 0:
        return math.comb(a, b) if b <= a else 0
    v = math.comb(b - a - 1, b)
    return -v if b % 2 else v


def _integer_rows(p: Polynomial) -> tuple[tuple[int, ...], ...]:
    """The int coefficient rows of a polynomial in k over Z[n]."""
    return tuple(tuple(reversed(cf)) for cf in reversed(p.coeffs))


def _eval_rows(rows: tuple[tuple[int, ...], ...], n: int, k: int) -> int:
    acc = 0
    for row in rows:
        c = 0
        for a in row:
            c = c * n + a
        acc = acc * k + c
    return acc


def _int_form(lf: LinearForm) -> tuple[int, int, int]:
    return lf.coeff_n, lf.coeff_k, lf.constant


_BINOM, _FACT, _POWER = 0, 1, 2


class TermEvaluator:
    """A bound term compiled to integer data, evaluated exactly at (n, k).

    Holds the integer coefficient rows of the prefactor's pair and, per
    factor, its ``(coeff_n, coeff_k, constant)`` argument tuples and exponent.
    ``pair`` works on Python ints; a call is the Fraction of that pair.
    """

    __slots__ = ("num_rows", "den_rows", "steps")

    def __init__(self, term: HyperTerm) -> None:
        self.num_rows, self.den_rows = map(_integer_rows, term.prefactor)
        steps = []
        for f, e in term.factors:
            if isinstance(f, BinomialFactor):
                steps.append((_BINOM, _int_form(f.top), _int_form(f.bottom), e, f))
            elif isinstance(f, FactorialFactor):
                steps.append((_FACT, _int_form(f.arg), None, e, f))
            else:
                base = (f.base.numerator, f.base.denominator)
                steps.append((_POWER, _int_form(f.exponent), base, e, f))
        self.steps = tuple(steps)

    def __call__(self, n: int, k: int) -> Fraction:
        return Fraction(*self.pair(n, k))

    def pair(self, n: int, k: int) -> tuple[int, int]:
        """The value at (n, k) as ints (num, den), den != 0, neither reduced
        nor made positive.  The checks run in the order prefactor pole, then
        each factor in turn, and raise the same PoleError as a call."""
        den = _eval_rows(self.den_rows, n, k)
        if not den:
            raise PoleError(f"prefactor denominator vanishes at (n, k) = ({n}, {k})", (n, k))
        num = _eval_rows(self.num_rows, n, k)
        for kind, (an, ak, ac), extra, e, f in self.steps:
            arg = an * n + ak * k + ac
            w = 1  # the factor's value is v/w
            if kind == _BINOM:
                bn, bk, bc = extra
                v = binomial_value(arg, bn * n + bk * k + bc)
            elif kind == _FACT:
                if arg < 0:
                    return 0, 1
                v = math.factorial(arg)
            else:
                p, q = extra
                if p == 0 and arg < 0:
                    raise PoleError(
                        f"zero base with negative exponent at (n, k) = ({n}, {k})", (n, k)
                    )
                v, w = (p**arg, q**arg) if arg >= 0 else (q**-arg, p**-arg)
            if e > 0:
                num *= v**e
                if w != 1:
                    den *= w**e
            elif not v:
                raise PoleError(
                    f"zero factor {f.to_string()} with negative exponent at (n, k) = ({n}, {k})",
                    (n, k),
                )
            else:
                den *= v**-e
                if w != 1:
                    num *= w**-e
        return num, den


def eval_term(term: HyperTerm, n: int, k: int) -> Fraction:
    return term.evaluator()(n, k)


# ---------------------------------------------------------------------------
# shift quotients

def _falling(lf: LinearForm, var: str) -> tuple[list[tuple[int, int, int]], list]:
    """fact(L + delta)/fact(L), delta = L's var coefficient, as (coeff_k, constant, coeff_n)."""
    delta = lf.coeff(var)
    return ([(lf.coeff_k, lf.constant + i, lf.coeff_n) for i in range(1, delta + 1)],
            [(lf.coeff_k, lf.constant - i, lf.coeff_n) for i in range(0, -delta)])


def _factor_forms(f: Factor, var: str) -> tuple[list[tuple[int, int, int]], list]:
    if isinstance(f, PowerFactor):
        if not f.base:
            raise ValueError(f"zero base in {f.to_string()} has no shift quotient")
        r = f.base ** f.exponent.coeff(var)
        return [(0, r.numerator, 0)], [(0, r.denominator, 0)]
    if isinstance(f, FactorialFactor):
        return _falling(f.arg, var)
    (n1, d1), (n2, d2), (n3, d3) = (
        _falling(lf, var) for lf in (f.top, f.bottom, f.top - f.bottom))
    return n1 + d2 + d3, d1 + n2 + n3


def _primitive_linear(coeff_k: int, constant: int, coeff_n: int) -> tuple[int, list[Polynomial]]:
    """coeff_k*k + coeff_n*n + constant as an integer times a primitive
    factor with a positive leading integer, or times nothing."""
    if not (coeff_k or coeff_n):
        return constant, []
    g = math.gcd(coeff_k, coeff_n, constant)
    g = -g if coeff_k < 0 or not coeff_k and coeff_n < 0 else g
    return g, [Polynomial((ZnPoly((constant // g, coeff_n // g)), ZnPoly((coeff_k // g,))))]


def factored_shift_pair(term: HyperTerm, var: str) -> FactoredRatio:
    """T(.., var+1, ..)/T as a ``FactoredRatio``, nothing cancelled: the
    falling products as primitive linear factors (content and sign go to the
    integers), p^delta/q^delta for a power base p/q, and P(var+1)*Q/(Q(var+1)*P)
    for the prefactor's pair P/Q, split by ``primitive_factors``."""
    if var not in ("n", "k"):
        raise ValueError(f"shift variable must be n or k, not {var!r}")
    term.require_bound()
    p, q = term.prefactor
    if not p:
        raise ValueError("shift quotient of the zero term")
    p1, q1 = (p.shift(1), q.shift(1)) if var == "k" else (shift_in_n(p, 1), shift_in_n(q, 1))
    sides = ([primitive_factors(p1), primitive_factors(q)],
             [primitive_factors(q1), primitive_factors(p)])
    for f, e in term.factors:
        for side, forms in enumerate(_factor_forms(f, var)):
            splits = [_primitive_linear(*lf) for lf in forms]
            sides[side if e > 0 else 1 - side].extend(splits * abs(e))
    return FactoredRatio(tuple(math.prod(g for g, _ in s) for s in sides),
                         *([f for _, fs in s for f in fs] for s in sides))


def shift_quotient(term: HyperTerm, var: str) -> RationalFunction:
    """Exact rational function T(.., var+1, ..)/T as an element of Q(n)(k):
    the unreduced pair of ``factored_shift_pair`` multiplied out and reduced."""
    return RationalFunction(*factored_shift_pair(term, var).pair())


def ratio_rational(t1: HyperTerm, t2: HyperTerm) -> tuple[Polynomial, Polynomial]:
    """t1/t2 as a rational function, a pair in Z[n][k] reduced by
    ``zn_reduced``; factor parts must cancel structurally unless t1 is zero,
    which is 0 times any nonzero t2."""
    merged: dict[Factor, int] = dict()
    for f, e in t1.factors:
        merged[f] = merged.get(f, 0) + e
    for f, e in t2.factors:
        merged[f] = merged.get(f, 0) - e
    leftovers = [f for f, e in merged.items() if e != 0]
    (p1, q1), (p2, q2) = t1.prefactor, t2.prefactor
    if leftovers and p1:
        names = ", ".join(f.to_string() for f in leftovers)
        raise ValueError(f"terms differ by non-rational factors: {names}")
    if not p2:
        raise ZeroDivisionError("ratio against the zero term")
    return zn_reduced(p1 * q2, q1 * p2)


_SAMPLE_LIMIT = 400  # sample points term_ratio_is_one tries before giving up


def term_ratio_is_one(t1: HyperTerm, t2: HyperTerm) -> bool:
    """True iff t1 and t2 are equal as hypergeometric terms: t1/t2 is 1
    wherever both shift recurrences hold, not at every integer point.

    Both shift quotients of the ratio must be 1 (the shift pairs agree
    cross-multiplied, by ``zn_identity``) and the values must agree at one
    sample point where neither term vanishes or poles, off every line where
    a factor of either term's k- or n-shift pair vanishes: there a
    recurrence may break, so a sample taken on it pins nothing.  The zero
    term, which has no shift quotient, equals only itself.
    """
    if not (t1.prefactor[0] and t2.prefactor[0]):
        return not (t1.prefactor[0] or t2.prefactor[0])
    breaks = []
    for var in ("k", "n"):
        r1, r2 = factored_shift_pair(t1, var), factored_shift_pair(t2, var)
        if not zn_identity(lambda at: (at(r1)[0] * at(r2)[1], at(r2)[0] * at(r1)[1])):
            return False
        breaks += [f for r in (r1, r2) for side in (r.num, r.den) for f in side]
    points = ((total - k0, k0) for total in range(64) for k0 in range(total + 1))
    for n0, k0 in itertools.islice(points, _SAMPLE_LIMIT):
        if not all(f.evaluate(k0)(n0) for f in breaks):
            continue
        try:
            va, vb = eval_term(t1, n0, k0), eval_term(t2, n0, k0)
        except PoleError:
            continue
        if va and vb:
            return va == vb
    raise DegenerateSampleError(f"no usable sample point among {_SAMPLE_LIMIT} candidates")


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>binom|fact)\b|(?P<int>\d+)|(?P<sym>[a-z])|(?P<op>[()^*/+,-]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos, text)
        kind = m.lastgroup  # the one alternative that matched
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


class _Parser:
    """Recursive-descent parser for the term grammar: a product of factors,
    perhaps over one ``/``.  Factor arguments, exponents, constant bases and
    prefactor pieces are all polynomial expressions (``parse_poly_expr``),
    each read in its own way."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos, self.text)
        self.next()

    def fail(self, message: str):
        raise ParseError(message, self.peek()[2], self.text)

    def parse_term(self) -> tuple[list, list]:
        num = self.parse_product()
        den: list = []
        kind, val, _ = self.peek()
        if kind == "op" and val == "/":
            self.next()
            den = self.parse_product()
        if self.peek()[0] != "end":
            self.fail("trailing input after term")
        return num, den

    def parse_product(self) -> list:
        atoms = [self.parse_atom()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                atoms.append(self.parse_atom())
            elif kind in ("name", "int", "sym") or (kind == "op" and val == "("):
                atoms.append(self.parse_atom())
            else:
                break
        return atoms

    def parse_atom(self):
        """A triple (item, e, pos): a ``BinomialFactor``, ``FactorialFactor``
        or ``PowerFactor`` to an integer power e, or a prefactor piece, an
        expression (a tuple) to the integer power e given at pos."""
        kind, val, pos = self.peek()
        if kind == "name":
            self.next()
            self.expect_op("(")
            first = self.parse_form()
            if val == "binom":
                self.expect_op(",")
                second = self.parse_form()
                self.expect_op(")")
                return BinomialFactor(first, second), self.parse_int_power(), pos
            self.expect_op(")")
            return FactorialFactor(first), self.parse_int_power(), pos
        if kind not in ("int", "sym") and (kind, val) != ("op", "("):
            raise ParseError("expected a factor", pos, self.text)
        ast = self.parse_poly_primary()
        if self.peek()[:2] != ("op", "^"):
            return ast, 1, pos
        self.next()
        kind, val, epos = self.peek()
        if kind == "int" or (kind, val) == ("op", "-"):
            return ast, self.parse_signed_int(), epos
        if kind != "sym" and (kind, val) != ("op", "("):
            raise ParseError("expected exponent", epos, self.text)
        if _has_symbol(ast):
            raise ParseError("only constant bases may carry symbolic exponents", epos, self.text)
        lin = self.linear(self.parse_poly_primary(), epos)
        e = self.parse_int_power() if kind == "op" else 1
        p, d = _poly_eval(ast, None)
        base = Fraction(p.coeff(0)(0), d)
        if base:
            return PowerFactor(base, lin), e, pos
        if not lin.is_constant():
            raise ParseError("a zero base may not carry a symbolic exponent", epos, self.text)
        return ast, lin.constant * e, epos

    def parse_int_power(self) -> int:
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return self.parse_signed_int()
        return 1

    def parse_signed_int(self) -> int:
        kind, val, pos = self.peek()
        sign = 1
        if kind == "op" and val == "-":
            self.next()
            sign = -1
            kind, val, pos = self.peek()
        if kind != "int":
            raise ParseError("expected integer exponent", pos, self.text)
        self.next()
        return sign * int(val)

    # -- linear forms ---------------------------------------------------

    def parse_form(self) -> LinearForm:
        pos = self.peek()[2]
        return self.linear(self.parse_poly_expr(), pos)

    def linear(self, ast, pos: int) -> LinearForm:
        """The integer-linear form an AST spells: sums, differences and
        negations of linear forms, products with a constant side, and powers
        0 and 1 or of a constant.  Anything else is an error at pos."""
        tag = ast[0]
        if tag == "lit":
            return LinearForm(constant=ast[1])
        if tag == "sym":
            return _SYMBOL_FORMS.get(ast[1]) or LinearForm(params=((ast[1], 1),))
        if tag == "neg":
            return self.linear(ast[1], pos).scale(-1)
        if tag == "pow":
            a, e = self.linear(ast[1], pos), ast[2]
            if e == 1:
                return a
            if e == 0 or a.is_constant():
                return LinearForm(constant=a.constant**e)
        elif tag != "div":
            a, b = self.linear(ast[1], pos), self.linear(ast[2], pos)
            if tag == "add":
                return a + b
            if tag == "sub":
                return a - b
            if a.is_constant() or b.is_constant():
                return b.scale(a.constant) if a.is_constant() else a.scale(b.constant)
        raise ParseError("expected an integer-linear form", pos, self.text)

    # -- polynomial expressions ----------------------------------------

    def parse_poly_primary(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "(":
            self.next()
            ast = self.parse_poly_expr()
            self.expect_op(")")
            return ast
        if kind == "sym":
            self.next()
            return ("sym", val)
        if kind == "int":
            self.next()
            return ("lit", int(val))
        raise ParseError("expected a polynomial", pos, self.text)

    def parse_poly_expr(self):
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
        ast = self.parse_poly_term()
        if kind == "op" and val == "-":
            ast = ("neg", ast)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.parse_poly_term()
                ast = ("add", ast, rhs) if val == "+" else ("sub", ast, rhs)
            else:
                return ast

    def parse_poly_term(self):
        ast = self.parse_poly_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                ast = ("mul", ast, self.parse_poly_factor())
            elif kind in ("sym", "int") or (kind == "op" and val == "("):
                ast = ("mul", ast, self.parse_poly_factor())
            elif kind == "op" and val == "/":
                self.next()
                kind, val, pos = self.next()
                if kind != "int" or not int(val):
                    raise ParseError("may divide only by a nonzero integer", pos, self.text)
                ast = ("div", ast, int(val))
            else:
                return ast

    def parse_poly_factor(self):
        base = self.parse_poly_primary()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind2, val2, pos2 = self.peek()
            if kind2 != "int":
                raise ParseError("expected integer exponent", pos2, self.text)
            self.next()
            return ("pow", base, int(val2))
        return base


_SYMBOL_FORMS = {"n": LinearForm(coeff_n=1), "k": LinearForm(coeff_k=1)}
_SYMBOL_POLYS = {"n": Polynomial((ZnPoly((0, 1)),)), "k": Polynomial((ZN_ZERO, ZN_ONE))}


def _has_symbol(ast) -> bool:
    return ast[0] == "sym" or any(type(a) is tuple and _has_symbol(a) for a in ast[1:])


def _poly_eval(ast, binding: ParamBinding | None,
               where: str = "a prefactor") -> tuple[Polynomial, int]:
    """Evaluate a polynomial AST to a pair (p, d), p in Z[n][k] over an
    integer d > 0; parameters need a binding, and an unbound one is named
    with where it occurs."""
    tag = ast[0]
    if tag == "lit":
        return Polynomial((ZnPoly((ast[1],)),)), 1
    if tag == "sym":
        sym = ast[1]
        if sym in _SYMBOL_POLYS:
            return _SYMBOL_POLYS[sym], 1
        if binding is not None and sym in binding:
            return Polynomial((ZnPoly((int(binding[sym]),)),)), 1
        raise UnboundParameterError(f"parameter {sym!r} in {where} needs a concrete binding")
    p, d = _poly_eval(ast[1], binding, where)
    if tag == "neg":
        return -p, d
    if tag == "pow":
        return p ** ast[2], d ** ast[2]
    if tag == "div":
        return p, d * ast[2]
    q, e = _poly_eval(ast[2], binding, where)
    if tag == "mul":
        return p * q, d * e
    if d != e:
        p, q, d = p * e, q * d, d * e
    return (p + q if tag == "add" else p - q), d


def parse_linear_form(text: str) -> LinearForm:
    """Parse an integer-linear expression in n and parameter symbols."""
    parser = _Parser(text)
    lf = parser.parse_form()
    if parser.peek()[0] != "end":
        parser.fail("trailing input after linear form")
    return lf


def parse_n_polynomial(text: str, binding: ParamBinding | None = None) -> tuple[ZnPoly, int]:
    """Parse a polynomial in n, its terms perhaps over integers as in
    ``(n+2)/2``, into a pair (p, d), p in Z[n] over an integer d > 0;
    parameters need a binding.  Raises ParseError on malformed text,
    UnboundParameterError naming the text on an unbound parameter, and
    ValueError when it involves k."""
    parser = _Parser(text)
    ast = parser.parse_poly_expr()
    if parser.peek()[0] != "end":
        parser.fail("trailing input after polynomial")
    p, d = _poly_eval(ast, binding, f"the operator coefficient {text!r}")
    if p.degree > 0:
        raise ValueError(f"may not involve k: {text!r}")
    return p.coeff(0), d


def parse_term(text: str, binding: ParamBinding | None = None) -> HyperTerm:
    """Parse the ASCII grammar into a canonical HyperTerm.

    With a binding, parameter symbols may appear inside rational prefactors,
    where they are substituted as each piece is evaluated, and the factors'
    arguments are bound by ``HyperTerm.bind`` on the parsed term; without
    one they stay symbolic and are restricted to binomial/factorial/power
    arguments.  Binding values are checked first.  Each prefactor piece is
    evaluated to a pair in Z[n][k], and the product reduced once.
    """
    if binding:
        _check_binding(binding)
    parser = _Parser(text)
    num_atoms, den_atoms = parser.parse_term()
    factors: list[tuple[Factor, int]] = []
    pref_num = pref_den = Polynomial((ZN_ONE,))

    def absorb(atoms: list, sign: int) -> None:
        nonlocal pref_num, pref_den
        for item, e, pos in atoms:
            if not isinstance(item, tuple):  # a factor
                factors.append((item, sign * e))
                continue
            top, d = _poly_eval(item, binding)  # a prefactor piece p/d to the power e
            bottom = Polynomial((ZnPoly((d,)),))
            if e < 0:
                if not top:
                    raise ParseError("zero base with a negative exponent", pos, text)
                top, bottom, e = bottom, top, -e
            if e != 1:
                top, bottom = top**e, bottom**e
            if sign < 0:
                top, bottom = bottom, top
            pref_num, pref_den = pref_num * top, pref_den * bottom

    absorb(num_atoms, 1)
    absorb(den_atoms, -1)
    if not pref_den:
        raise ParseError("prefactor denominator is identically zero", 0, text)
    return HyperTerm(factors, zn_reduced(pref_num, pref_den)).bind(binding)


# ---------------------------------------------------------------------------
# printing


def term_to_string(term: HyperTerm) -> str:
    num_parts: list[str] = []
    den_parts: list[str] = []
    for f, e in term.factors:
        target = num_parts if e > 0 else den_parts
        mag = abs(e)
        target.append(f.to_string() + (f"^{mag}" if mag != 1 else ""))
    ns, ds = (bivariate_string(p, expand=True) for p in term.prefactor)
    if ns != "1" or not num_parts:
        num_parts.append(ns if ns.lstrip("-").isdigit() and "-" not in ns else f"({ns})")
    if ds != "1":
        den_parts.append(ds if ds.isdigit() else f"({ds})")
    text = "*".join(num_parts)
    if den_parts:
        text += "/" + "*".join(den_parts)
    return text
