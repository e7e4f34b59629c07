"""Exact linear algebra for the telescoping solvers.

Systems come in over Q(n).  Rows are cleared to integer polynomials in n
(``clear_qn``) and reduced with fraction-free (Bareiss) elimination
(``polynomials.bareiss``), so no rational-function gcd work happens inside
the pivoting loop; nullspace vectors are then back-substituted in Q(n).
"""

from __future__ import annotations

from .polynomials import POLY_N, QN, bareiss, clear_qn


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
    pivots, _ = bareiss(POLY_N, rows, ncols)
    pivot_cols = {c for _, c in pivots}
    one = QN.one()
    zero = QN.zero()
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
                    acc = acc + QN.coerce(rows[r][c2]) * vec[c2]
            vec[c] = -acc / QN.coerce(rows[r][c])
        basis.append(vec)
    return basis
