"""Machine-readable encodings of polynomials and certificates.

Integers are rendered as decimal strings so consumers never lose
precision to floating point; polynomial coefficient lists are nested
with the k-exponent outside and the n-exponent inside.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import POLY_N, QN, Polynomial, RationalFunction, integer_qnk_pair


def npoly_to_list(p: Polynomial) -> list[str]:
    """Integer polynomial in n as decimal strings, constant term first."""
    out = []
    for c in p.coeffs:
        if c.denominator != 1:
            raise ValueError(f"non-integer coefficient {c} in {p!r}")
        out.append(str(c.numerator))
    return out or ["0"]


def kpoly_to_lists(p: Polynomial) -> list[list[str]]:
    """Integer polynomial in k over Z[n] as nested decimal strings."""
    return [npoly_to_list(c) for c in p.coeffs] or [["0"]]


def list_to_npoly(items: list[str]) -> Polynomial:
    return Polynomial("n", POLY_N.coeff_ring, tuple(Fraction(int(s)) for s in items))


def lists_to_kpoly(items: list[list[str]]) -> Polynomial:
    coeffs = tuple(QN.coerce(list_to_npoly(row)) for row in items)
    return Polynomial("k", QN, coeffs)


def ratfun_to_record(r: RationalFunction) -> dict:
    num, den = integer_qnk_pair(r)
    return {"num": kpoly_to_lists(num), "den": kpoly_to_lists(den)}


def record_to_ratfun(record: dict) -> RationalFunction:
    return RationalFunction(
        lists_to_kpoly(record["num"]), lists_to_kpoly(record["den"])
    )


def _npoly_string(p: Polynomial, var: str = "n") -> str:
    """Human form of an integer polynomial, highest power first."""
    terms = []
    for e in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeff(e)
        if not c:
            continue
        v = int(c)
        if e == 0:
            body = str(abs(v))
        else:
            mag = "" if abs(v) == 1 else f"{abs(v)}*"
            body = f"{mag}{var}" + (f"^{e}" if e > 1 else "")
        if not terms:
            terms.append(body if v > 0 else f"-{body}")
        else:
            terms.append(("+" if v > 0 else "-") + body)
    return "".join(terms) or "0"


def bivariate_string(p: Polynomial) -> str:
    """Human form of an integer polynomial in k over Z[n]."""
    pieces = []
    for k_exp in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeff(k_exp)
        if not c:
            continue
        nonzero = [(e, int(v)) for e, v in enumerate(c.coeffs) if v]
        kpart = ("k" + (f"^{k_exp}" if k_exp > 1 else "")) if k_exp else ""
        if len(nonzero) == 1:
            e, v = nonzero[0]
            npart = ("n" + (f"^{e}" if e > 1 else "")) if e else ""
            mag = "" if abs(v) == 1 and (npart or kpart) else str(abs(v))
            body = "*".join(x for x in (mag, npart, kpart) if x)
            pieces.append((v > 0, body))
        else:
            body = f"({_npoly_string(c)})"
            if kpart:
                body += f"*{kpart}"
            pieces.append((True, body))
    out = []
    for positive, body in pieces:
        if not out:
            out.append(body if positive else f"-{body}")
        else:
            out.append(("+" if positive else "-") + body)
    return "".join(out) or "0"


def ratfun_to_text(r: RationalFunction) -> str:
    num, den = integer_qnk_pair(r)
    ns = bivariate_string(num)
    ds = bivariate_string(den)
    if ds == "1":
        return ns
    return f"({ns}) / ({ds})"
