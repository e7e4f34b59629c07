"""Exact linear algebra for the telescoping solvers.

Systems come in over Q or over Q(n).  Rows are cleared to polynomial
entries and reduced with fraction-free (Bareiss) elimination so no
rational-function gcd work happens inside the pivoting loop; solutions
are then back-substituted in the coefficient field.
"""

from __future__ import annotations

import math

from .polynomials import POLY_N, QQ, Polynomial, clear_qn


def _clear_row(field, row: list) -> list[Polynomial]:
    """Scale a row by a common factor into integer-coefficient polynomials."""
    elems = [field.coerce(e) for e in row]
    if field is QQ:
        m = math.lcm(*(f.denominator for f in elems)) if elems else 1
        return [POLY_N.constant(f * m) for f in elems]
    return clear_qn(elems)[0]


def _echelon(rows: list[list[Polynomial]], ncols: int) -> list[tuple[int, int]]:
    """In-place fraction-free echelon form; pivoting only in the first ncols
    columns (extra columns ride along as right-hand sides).  Returns the
    pivot (row, column) pairs in order."""
    pivots: list[tuple[int, int]] = []
    prev = POLY_N.one()
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, len(rows)):
            head = rows[i][c]
            for j in range(c, len(rows[i])):
                rows[i][j] = (piv * rows[i][j] - head * rows[r][j]).exact_div(prev)
        pivots.append((r, c))
        prev = piv
        r += 1
    return pivots


def _to_field(field, p: Polynomial):
    if field is QQ:
        return p.coeff(0)
    return field.coerce(p)


def solve_linear_system(matrix: list[list], rhs: list, field=QQ) -> list | None:
    """One solution of A x = rhs over the field, or None if inconsistent.

    Underdetermined systems get free variables set to zero.  Entries may be
    ints, Fractions, polynomials, or rational functions coercible into the
    field.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if len(rhs) != nrows:
        raise ValueError("matrix and right-hand side sizes differ")
    if nrows == 0:
        return []
    rows = [_clear_row(field, list(row) + [b]) for row, b in zip(matrix, rhs)]
    if any(len(r) != ncols + 1 for r in rows):
        raise ValueError("ragged matrix")
    pivots = _echelon(rows, ncols)
    used = len(pivots)
    for i in range(used, nrows):
        if rows[i][ncols]:
            return None
    zero = field.zero()
    sol = [zero] * ncols
    for r, c in reversed(pivots):
        acc = _to_field(field, rows[r][ncols])
        for c2 in range(c + 1, ncols):
            if rows[r][c2]:
                acc = acc - _to_field(field, rows[r][c2]) * sol[c2]
        sol[c] = field.exact_div(acc, _to_field(field, rows[r][c]))
    return sol


def nullspace(matrix: list[list], field=QQ, ncols: int | None = None) -> list[list]:
    """Basis of the right nullspace of A over the field.

    One vector per free column, in ascending column order; the vector for
    free column f has a 1 there and 0 in every other free column.
    """
    nrows = len(matrix)
    if ncols is None:
        if nrows == 0:
            raise ValueError("ncols is required for an empty matrix")
        ncols = len(matrix[0])
    rows = [_clear_row(field, list(row)) for row in matrix]
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    pivots = _echelon(rows, ncols)
    pivot_cols = {c for _, c in pivots}
    one = field.one()
    zero = field.zero()
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for r, c in reversed(pivots):
            if c > fc:
                continue
            acc = zero
            for c2 in range(c + 1, ncols):
                if rows[r][c2] and vec[c2] != zero:
                    acc = acc + _to_field(field, rows[r][c2]) * vec[c2]
            vec[c] = field.exact_div(-acc, _to_field(field, rows[r][c]))
        basis.append(vec)
    return basis
