"""Reference answers computed without telesum.

Everything here uses math.comb, math.factorial and Fraction directly, so a
defect in telesum's own evaluator or self-checks cannot make a wrong answer
look right.
"""

from __future__ import annotations

import ast
import math
import re
from fractions import Fraction


def C(a: int, b: int) -> int:
    """Binomial coefficient, zero outside 0 <= b <= a."""
    return math.comb(a, b) if 0 <= b <= a else 0


def fact(a: int) -> int:
    return math.factorial(a) if a >= 0 else 0


# ---------------------------------------------------------------------------
# closed forms and sums


def franel(n: int) -> int:
    return sum(C(n, k) ** 3 for k in range(n + 1))


def franel_strehl(n: int) -> int:
    """sum_k binom(n,k)^2 binom(2k,n); equals franel(n)."""
    return sum(C(n, k) ** 2 * C(2 * k, n) for k in range(n + 1))


def apery(n: int) -> int:
    return sum(C(n, k) ** 2 * C(n + k, k) ** 2 for k in range(n + 1))


def binom_power_sum(n: int, p: int) -> int:
    return sum(C(n, k) ** p for k in range(n + 1))


def sum_11897(n: int) -> Fraction:
    return sum(
        (Fraction(C(2 * k, k) * C(2 * n - 2 * k + 2, n - k + 1), k + 1) for k in range(n + 1)),
        Fraction(0),
    )


def closed_11897(n: int) -> int:
    return 2 * C(2 * n + 2, n)


def catalan(i: int) -> Fraction:
    return Fraction(C(2 * i, i), i + 1)


def series_coefficient(name: str, index: int, i: int) -> Fraction:
    """Coefficient i of a bundled generating function, from its closed form."""
    if name == "catalan":
        return catalan(i)
    if name == "central":
        return Fraction(C(2 * i, i))
    if name == "shifted-central":
        return Fraction(C(2 * i + 2, i + 1))
    if name == "ballot":
        return Fraction(C(2 * i + index, i))
    raise ValueError(f"no closed form for series {name!r}")


def apply_operator(coeffs: list[list[int]], values, n: int) -> Fraction:
    """sum_j sigma_j(n) w(n+j) for sigma_j given as coefficient lists in n."""
    return sum(
        (poly_value(c, n) * values(n + j) for j, c in enumerate(coeffs)),
        Fraction(0),
    )


def poly_value(coeffs: list[int], x) -> Fraction:
    """Polynomial with coefficients constant-term first, at x."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# reading telesum's printed answers


def bivariate_record_value(lists: list[list[str]], n: int, k: int) -> Fraction:
    """Value of a --machine polynomial record: k-exponent outside, n inside."""
    acc = Fraction(0)
    for row in reversed(lists):
        acc = acc * k + poly_value([int(s) for s in row], n)
    return acc


def machine_ratfun(record: dict):
    """Evaluator (n, k) -> value for a --machine rational-function record."""
    return lambda n, k: bivariate_record_value(record["num"], n, k) / bivariate_record_value(
        record["den"], n, k
    )


_ALLOWED_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a**b,
}


def text_ratfun(text: str):
    """Evaluator (n, k) -> value for a printed polynomial or rational function
    in n and k such as '(2*k^2+(-2*n-1)*k) / ((n+2))'."""
    tree = ast.parse(text.replace("^", "**"), mode="eval").body

    def walk(node, env):
        if isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
            if isinstance(node.op, ast.Pow):
                return walk(node.left, env) ** _int_literal(node.right)
            return _ALLOWED_BINOPS[type(node.op)](walk(node.left, env), walk(node.right, env))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -walk(node.operand, env)
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return Fraction(node.value)
        if isinstance(node, ast.Name) and node.id in env:
            return env[node.id]
        raise ValueError(f"unexpected syntax in {text!r}")

    return lambda n, k: walk(tree, {"n": Fraction(n), "k": Fraction(k)})


def _int_literal(node) -> int:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    raise ValueError("exponent must be an integer literal")


_OPERATOR_TERM = re.compile(r"\(([^()]*)\)\*w\(n(?:\+(\d+))?\)")


def text_operator(line: str) -> list[list[int]]:
    """Coefficient lists of a printed recurrence '(...)*w(n) + ... = 0'."""
    lhs, sep, rhs = line.partition(" = ")
    if not sep or rhs.strip() != "0":
        raise ValueError(f"not a homogeneous recurrence: {line!r}")
    found = {}
    for m in _OPERATOR_TERM.finditer(lhs):
        j = int(m.group(2) or 0)
        found[j] = _npoly_coeffs(m.group(1))
    if not found:
        raise ValueError(f"no operator terms in {line!r}")
    return [found.get(j, [0]) for j in range(max(found) + 1)]


def _npoly_coeffs(text: str) -> list[int]:
    """Integer coefficient list (constant first) of a printed polynomial in n,
    recovered by interpolation at small points."""
    f = text_ratfun(text)
    values = [f(x, 0) for x in range(12)]
    coeffs = _interpolate(values)
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError(f"non-integer coefficient in {text!r}")
    return [int(c) for c in coeffs]


def _interpolate(values: list[Fraction]) -> list[Fraction]:
    """Coefficients of the least-degree polynomial through (i, values[i])."""
    size = len(values)
    rows = [[Fraction(x) ** e for e in range(size)] + [values[x]] for x in range(size)]
    for col in range(size):
        piv = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(size):
            if r != col and rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    coeffs = [rows[i][size] / rows[i][i] for i in range(size)]
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def telescopes(F, R, sigma: list[list[int]], points) -> tuple[int, str | None]:
    """Check sum_j sigma_j(n) F(n+j,k) = G(n,k+1) - G(n,k), G = R*F, at the
    given points where every value involved is nonzero and R is defined.
    An empty sigma means the Gosper case G(n,k+1) - G(n,k) = F(n,k).
    Returns (points checked, first failure or None)."""
    checked = 0
    for n, k in points:
        order = max(len(sigma) - 1, 0)
        fs = [F(n + j, k) for j in range(order + 1)] + [F(n, k + 1)]
        if any(v == 0 for v in fs):
            continue
        try:
            g0 = R(n, k) * fs[0]
            g1 = R(n, k + 1) * fs[-1]
        except ZeroDivisionError:
            continue
        lhs = (
            sum((poly_value(c, n) * fs[j] for j, c in enumerate(sigma)), Fraction(0))
            if sigma
            else fs[0]
        )
        if lhs != g1 - g0:
            return checked, f"telescoping identity fails at (n, k) = ({n}, {k})"
        checked += 1
    return checked, None
