"""Exact linear algebra for the telescoping solvers.

Systems come in over Q(n).  ``clear_qn`` turns each row into integer
polynomials in n (``ZnPoly``, int tuples), which fraction-free (Bareiss)
elimination (``polynomials.bareiss``) reduces, so neither the pivoting
loop nor the back-substitution does rational arithmetic.
Each nullspace vector is back-substituted in Z[n] over one common
denominator and turned into Q(n) entries once, at the end.
"""

from __future__ import annotations

from .polynomials import QN, ZN, RationalFunction, bareiss, clear_qn


def solve_linear_system(matrix: list[list], rhs: list) -> list | None:
    """One solution of A x = rhs over Q(n), or None if inconsistent.

    It is the nullspace vector of [A | -rhs] that is 1 in the last column,
    so free variables are set to zero.  Entries may be ints, Fractions,
    polynomials, or rational functions coercible into Q(n).
    """
    if len(rhs) != len(matrix):
        raise ValueError("matrix and right-hand side sizes differ")
    ncols = len(matrix[0]) if matrix else 0
    basis = nullspace([list(row) + [-b] for row, b in zip(matrix, rhs)], ncols=ncols + 1)
    if not basis or not basis[-1][ncols]:
        return None
    return basis[-1][:ncols]


def nullspace(matrix: list[list], ncols: int | None = None) -> list[list]:
    """Basis of the right nullspace of A over Q(n).

    One vector per free column, in ascending column order; the vector for
    free column f has a 1 there and 0 in every other free column.
    """
    nrows = len(matrix)
    if ncols is None:
        if nrows == 0:
            raise ValueError("ncols is required for an empty matrix")
        ncols = len(matrix[0])
    rows = [clear_qn([QN.coerce(e) for e in row])[0] for row in matrix]
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    pivots, _ = bareiss(ZN, rows, ncols)
    # By Cramer's rule the vector for free column fc, times the pivot of the
    # last pivot row left of fc, lies in Z[n]; so every division below is exact.
    pivot_rows = {c: r for r, c in pivots}
    den = ZN.one()
    basis = []
    for fc in range(ncols):
        if fc in pivot_rows:
            den = rows[pivot_rows[fc]][fc]
            continue
        vec = [ZN.zero()] * ncols
        vec[fc] = den
        for r, c in reversed(pivots):
            if c > fc:
                continue
            row = rows[r]
            acc = ZN.zero()
            for c2 in range(c + 1, fc + 1):
                if row[c2] and vec[c2]:
                    acc = acc + row[c2] * vec[c2]
            vec[c] = ZN.exact_div(-acc, row[c])
        common = den.to_poly()
        basis.append([RationalFunction(v.to_poly(), common) if v else QN.zero() for v in vec])
    return basis
