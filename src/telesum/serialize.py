"""Machine-readable encodings of polynomials and certificates.

Integers are rendered as decimal strings so consumers never lose
precision to floating point; polynomial coefficient lists are nested
with the k-exponent outside and the n-exponent inside.  Records and texts
take a rational function as its reduced pair (num, den) of polynomials in
k over Z[n] (``zn_reduced``), the pair a ``RationalFunction`` holds, and
read their ints.  One printer serves polynomials in n and k: certificates
group each coefficient in n, terms (``hyperterm.term_to_string``) expand
every monomial.
"""

from __future__ import annotations

from typing import Sequence

from .polynomials import Polynomial, ZnPoly


def npoly_to_list(p: ZnPoly) -> list[str]:
    """An element of Z[n] as decimal strings, constant term first."""
    return [str(c) for c in p] or ["0"]


def kpoly_to_lists(p: Polynomial) -> list[list[str]]:
    """Polynomial in k over Z[n] as nested decimal strings."""
    return [[str(v) for v in c] or ["0"] for c in p.coeffs] or [["0"]]


def ratfun_to_record(pair: tuple[Polynomial, Polynomial]) -> dict:
    num, den = pair
    return {"num": kpoly_to_lists(num), "den": kpoly_to_lists(den)}


def _monomial_string(coeff: int, n_exp: int, k_exp: int) -> str:
    """|coeff|*n^n_exp*k^k_exp with unit factors left out; no sign."""
    parts = []
    if abs(coeff) != 1 or (n_exp == 0 and k_exp == 0):
        parts.append(str(abs(coeff)))
    if n_exp:
        parts.append("n" if n_exp == 1 else f"n^{n_exp}")
    if k_exp:
        parts.append("k" if k_exp == 1 else f"k^{k_exp}")
    return "*".join(parts)


def _monomials(c: Sequence, k_exp: int) -> list[tuple[bool, str]]:
    """(positive, body) of each nonzero term of c(n) * k^k_exp, highest
    power of n first; c holds integral coefficients, constant term first."""
    return [(v > 0, _monomial_string(int(v), e, k_exp))
            for e, v in reversed(list(enumerate(c))) if v]


def _join_signed(pieces: list[tuple[bool, str]]) -> str:
    out = []
    for positive, body in pieces:
        out.append(("+" if out else "") + body if positive else f"-{body}")
    return "".join(out) or "0"


def _npoly_string(c: Sequence) -> str:
    """Human form of an integer polynomial in n, highest power first, from
    its coefficients, constant term first."""
    return _join_signed(_monomials(c, 0))


def bivariate_string(p: Polynomial, expand: bool = False) -> str:
    """Human form of a polynomial in k over Z[n], highest power of k first.

    A coefficient in n with more than one term is grouped, as in
    ``(2*n+1)*k``, unless expand is set, which writes every monomial out
    (``2*n*k+k``), as the term printer does.
    """
    pieces = []
    for k_exp in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k_exp]
        terms = _monomials(c, k_exp)
        if expand or len(terms) == 1:
            pieces += terms
        elif terms:
            kpart = f"*{_monomial_string(1, 0, k_exp)}" if k_exp else ""
            pieces.append((True, f"({_npoly_string(c)}){kpart}"))
    return _join_signed(pieces)


def ratfun_to_text(pair: tuple[Polynomial, Polynomial]) -> str:
    ns, ds = map(bivariate_string, pair)
    if ds == "1":
        return ns
    return f"({ns}) / ({ds})"
