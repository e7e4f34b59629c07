"""Fraction-free linear solving over Q and over Q(n), and nullspaces over Z[n]."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from telesum import linalg
from telesum.linalg import nullspace, solve_linear_system
from telesum.polynomials import QN, QQ, RationalFunction, ZnPoly, clear_qn, n_poly


def _q(v) -> Fraction:
    return Fraction(v)


def test_identity_system():
    sol = solve_linear_system([[_q(1), _q(0)], [_q(0), _q(1)]], [_q(3), _q(4)])
    assert sol == [3, 4]


def test_underdetermined_free_variable_zero():
    sol = solve_linear_system([[_q(1), _q(1)]], [_q(2)])
    assert sol == [2, 0]


def test_inconsistent_returns_none():
    sol = solve_linear_system([[_q(1)], [_q(1)]], [_q(1), _q(2)])
    assert sol is None


def test_rational_entries():
    # x/2 + y = 1, x - y = 1/2  ->  x = 1, y = 1/2
    sol = solve_linear_system(
        [[_q("1/2"), _q(1)], [_q(1), _q(-1)]], [_q(1), _q("1/2")]
    )
    assert sol == [1, Fraction(1, 2)]


def test_solve_over_function_field():
    n = QN.coerce(n_poly(0, 1))
    one = QN.one()
    # n*x + y = n^2 + 1, x + y = n + 1  ->  x = n, y = 1
    sol = solve_linear_system(
        [[n, one], [one, one]], [n * n + 1, n + 1]
    )
    assert sol == [n, one]


def test_singular_but_consistent_over_qn():
    n = QN.coerce(n_poly(0, 1))
    sol = solve_linear_system([[n, n]], [n])
    assert sol == [QN.one(), QN.zero()]


def _zn_rows(matrix: list[list]) -> list[list[ZnPoly]]:
    """Each row of a Q(n) matrix times its own clear_qn multiplier."""
    return [clear_qn([QN.coerce(e) for e in row]) for row in matrix]


def _qn_nullspace(matrix: list[list], ncols: int | None = None) -> list[list]:
    """nullspace on the cleared rows, each Z[n] vector divided by its free
    entry, its last nonzero one; checks the integer contract on the way."""
    rows = _zn_rows(matrix)
    before = [list(row) for row in rows]
    basis = []
    for vec in nullspace(rows, ncols=ncols):
        assert all(type(v) is ZnPoly for v in vec)
        free = next(v for v in reversed(vec) if v).to_poly()
        basis.append([RationalFunction(v.to_poly(), free) for v in vec])
    assert rows == before
    return basis


def test_nullspace_trivial():
    assert _qn_nullspace([[_q(1), _q(0)], [_q(0), _q(1)]]) == []


def test_nullspace_one_dimensional():
    basis = _qn_nullspace([[_q(1), _q(1)]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0
    assert any(c == 1 for c in v)


def test_nullspace_zero_matrix_full():
    basis = _qn_nullspace([[_q(0), _q(0)]], ncols=2)
    assert len(basis) == 2
    assert basis[0] != basis[1]


def test_nullspace_over_qn():
    n = QN.coerce(n_poly(0, 1))
    # single relation x0*n + x1 = 0
    basis = _qn_nullspace([[n, QN.one()]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * n + v[1] == QN.zero()


def test_nullspace_skipped_column_stays_free():
    # column 1 never gets a pivot: [ [1, 0, 2] ] has x1 free and x2 free
    basis = _qn_nullspace([[_q(1), _q(0), _q(2)]])
    assert len(basis) == 2
    for v in basis:
        assert v[0] + 2 * v[2] == 0


small_fracs = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda cols: st.tuples(
            st.lists(
                st.lists(small_fracs, min_size=cols, max_size=cols),
                min_size=1,
                max_size=4,
            ),
            st.just(cols),
        )
    )
)
def test_solution_satisfies_system(matrix_cols):
    matrix, cols = matrix_cols
    rhs = [sum(row) for row in matrix]  # all-ones is always a solution
    sol = solve_linear_system(matrix, rhs)
    assert sol is not None
    for row, b in zip(matrix, rhs):
        assert sum(a * x for a, x in zip(row, sol)) == b


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda cols: st.lists(
            st.lists(small_fracs, min_size=cols, max_size=cols),
            min_size=1,
            max_size=4,
        )
    )
)
def test_nullspace_vectors_annihilate(matrix):
    cols = len(matrix[0])
    basis = _qn_nullspace(matrix, ncols=cols)
    for v in basis:
        assert any(c != 0 for c in v)
        for row in matrix:
            assert sum(a * x for a, x in zip(row, v)) == 0


def _rref_nullspace(matrix: list[list], ncols: int) -> list[list]:
    """Reference: Gauss-Jordan over Q(n), one vector per free column."""
    rows = [[QN.coerce(e) for e in row] for row in matrix]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = rows[r][c]
        rows[r] = [e / inv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [QN.zero()] * ncols
        v[fc] = QN.one()
        for i, c in enumerate(pivots):
            v[c] = -rows[i][fc]
        basis.append(v)
    return basis


zn_entries = st.one_of(
    st.just(n_poly()),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3).map(
        lambda cs: n_poly(*cs)),
)


_N = n_poly(0, 1)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda cols: st.lists(
            st.lists(zn_entries, min_size=cols, max_size=cols), min_size=1, max_size=4
        )
    )
)
@example([[_N, n_poly(1), n_poly(2)], [_N * _N, _N, _N * 2]])  # rank 1, two free columns
@example([[n_poly(0), _N, n_poly(1), n_poly(0, 0, 1)], [n_poly(0), n_poly(1), _N, n_poly(3)],
          [n_poly(0), _N + 1, _N + 1, n_poly(3, 0, 1)]])  # leading zero column, row 3 = rows 1+2
def test_nullspace_over_zn_matches_qn_reference(matrix):
    ncols = len(matrix[0])
    assert _qn_nullspace(matrix, ncols=ncols) == _rref_nullspace(matrix, ncols)


# -- the modular refutation in nullspace ----------------------------------

def _count_bareiss(monkeypatch) -> list:
    calls = []

    def counted(ring, rows, ncols):
        calls.append((len(rows), ncols))
        return real(ring, rows, ncols)

    real = linalg.bareiss
    monkeypatch.setattr(linalg, "bareiss", counted)
    return calls


tall_zn_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda cols: st.lists(
        st.lists(zn_entries, min_size=cols, max_size=cols), min_size=cols, max_size=cols + 2
    )
)


@settings(max_examples=60, deadline=None)
@given(tall_zn_matrices)
def test_modular_full_rank_means_an_empty_exact_nullspace(matrix):
    ncols = len(matrix[0])
    refuted = linalg._full_column_rank_at_point(_zn_rows(matrix), ncols)
    reference = _rref_nullspace(matrix, ncols)
    if refuted:
        assert reference == []
    assert _qn_nullspace(matrix, ncols=ncols) == reference


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda cols: st.tuples(
            st.lists(st.lists(zn_entries, min_size=cols, max_size=cols), min_size=1,
                     max_size=cols + 3),
            st.lists(zn_entries, min_size=cols, max_size=cols),
        )
    ),
    st.integers(min_value=0, max_value=3),
)
def test_a_planted_nullspace_vector_is_never_refuted(matrix_coeffs, at):
    # a column that is a Z[n] combination of the others: (coeffs, -1) with -1
    # at column `at` is in the nullspace
    matrix, coeffs = matrix_coeffs
    at = at % (len(coeffs) + 1)
    rows = []
    for row in matrix:
        planted = n_poly()
        for e, c in zip(row, coeffs):
            planted = planted + e * c
        rows.append(row[:at] + [planted] + row[at:])
    ncols = len(rows[0])
    assert not linalg._full_column_rank_at_point(_zn_rows(rows), ncols)
    reference = _rref_nullspace(rows, ncols)
    assert reference
    assert _qn_nullspace(rows, ncols=ncols) == reference


_N0 = n_poly(linalg._N0)


@pytest.mark.parametrize("corner", [_N - _N0 + 1, n_poly(linalg._P + 1)])
def test_an_unlucky_point_falls_through_to_the_exact_elimination(corner, monkeypatch):
    # det [[1, 1], [1, corner]] is n - n0 or p: nonzero, but 0 at (n0, p)
    matrix = [[n_poly(1), n_poly(1)], [n_poly(1), corner]]
    assert not linalg._full_column_rank_at_point(_zn_rows(matrix), 2)
    calls = _count_bareiss(monkeypatch)
    assert _qn_nullspace(matrix) == [] == _rref_nullspace(matrix, 2)
    assert calls == [(2, 2)]
