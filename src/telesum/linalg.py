"""Exact linear algebra for the telescoping solvers.

Systems come in over Z[n] (``ZnPoly`` entries).  Fraction-free (Bareiss)
elimination (``polynomials.bareiss``) and back-substitution both stay in
Z[n], with no rational arithmetic; ``solve_linear_system`` alone takes
Q(n) entries and clears them first.  A system of full column rank at one
point n = n0 modulo one prime is refuted there, without elimination.
"""

from __future__ import annotations

from .polynomials import QN, ZN, RationalFunction, ZnPoly, bareiss, clear_qn

# The point n = _N0 and the prime _P at which nullspace refutes a system.
_N0, _P = 12345, (1 << 61) - 1


def solve_linear_system(matrix: list[list], rhs: list) -> list | None:
    """One solution of A x = rhs over Q(n), or None if inconsistent.

    It is the nullspace vector of [A | -rhs] that is 1 in the last column,
    so free variables are set to zero.  Entries may be ints, Fractions,
    polynomials, or rational functions coercible into Q(n).
    """
    if len(rhs) != len(matrix):
        raise ValueError("matrix and right-hand side sizes differ")
    ncols = len(matrix[0]) if matrix else 0
    rows = [clear_qn([QN.coerce(e) for e in list(row) + [-b]]) for row, b in zip(matrix, rhs)]
    basis = nullspace(rows, ncols=ncols + 1)
    if not basis or not basis[-1][ncols]:
        return None
    den = basis[-1][ncols].to_poly()
    return [RationalFunction(v.to_poly(), den) for v in basis[-1][:ncols]]


def nullspace(matrix: list[list[ZnPoly]], ncols: int | None = None) -> list[list[ZnPoly]]:
    """Basis over Z[n] of the right nullspace of A, which is not modified.

    One vector per free column f, in ascending order: 0 past f and in every
    other free column, and at f the pivot of the last pivot row left of f
    (1 if there is none); divided by that entry it is 1 there.

    If A's image at n = n0 modulo p has full column rank, a maximal minor
    of A is nonzero there, hence a nonzero polynomial: the nullspace over
    Q(n) is {0}, a proof, and [] returns without Bareiss.  A rank drop may
    be an unlucky point and decides nothing; the exact path runs.
    """
    if ncols is None:
        if not matrix:
            raise ValueError("ncols is required for an empty matrix")
        ncols = len(matrix[0])
    rows = [list(row) for row in matrix]
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    if _full_column_rank_at_point(rows, ncols):
        return []
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
        basis.append(vec)
    return basis


def _full_column_rank_at_point(rows: list[list[ZnPoly]], ncols: int) -> bool:
    """Whether the image of the rows at n = _N0 modulo _P has rank ncols."""
    if len(rows) < ncols:
        return False
    image = [[e(_N0) % _P for e in row] for row in rows]
    for c in range(ncols):
        top = next((row for row in image if row[c]), None)
        if top is None:
            return False
        image.remove(top)
        inv = pow(top[c], -1, _P)
        for row in image:
            f = row[c] * inv % _P
            if f:
                for j in range(c + 1, ncols):
                    row[j] = (row[j] - f * top[j]) % _P
    return True
