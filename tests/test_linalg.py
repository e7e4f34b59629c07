"""Linear solving over Q and over Q(n), and modular nullspaces over Z[n]."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from telesum import linalg, polynomials
from telesum.linalg import nullspace
from telesum.polynomials import RationalFunction, ZnPoly, _int_gcd

from qn_tower import QN, clear_qn, n_poly, rref_nullspace, to_tower


def _q(v) -> Fraction:
    return Fraction(v)


def solve_linear_system(matrix: list[list], rhs: list) -> list | None:
    """linalg.solve_linear_system on the system with each equation times its
    own clear_qn multiplier, which keeps its solutions."""
    rows = [clear_qn([QN.coerce(e) for e in [*row, b]]) for row, b in zip(matrix, rhs)]
    return linalg.solve_linear_system([row[:-1] for row in rows], [row[-1] for row in rows])


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
    n = ZnPoly((0, 1))
    one = ZnPoly((1,))
    # n*x + y = n^2 + 1, x + y = n + 1  ->  x = n, y = 1
    sol = linalg.solve_linear_system([[n, one], [one, one]], [ZnPoly((1, 0, 1)), ZnPoly((1, 1))])
    assert sol == [RationalFunction(n), 1]
    assert all(isinstance(v, RationalFunction) for v in sol)


def test_singular_but_consistent_over_qn():
    n = ZnPoly((0, 1))
    assert linalg.solve_linear_system([[n, n]], [n]) == [1, 0]
    # x/(n+1) + y = 1/n, y = 0: the entries in Z[n] after clearing
    sol = solve_linear_system([[QN.one() / (QN.coerce(n_poly(1, 1))), 1], [0, 1]],
                              [QN.one() / QN.coerce(n_poly(0, 1)), 0])
    assert sol == [RationalFunction(ZnPoly((1, 1)), ZnPoly((0, 1))), 0]


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
        free = QN.coerce(next(v for v in reversed(vec) if v))
        basis.append([QN.coerce(v) / free for v in vec])
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
        assert sum(a * to_tower(x) for a, x in zip(row, sol)) == b


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
    assert _qn_nullspace(matrix, ncols=ncols) == rref_nullspace(matrix, ncols)


# -- the modular nullspace --------------------------------------------------

def _count_bareiss(monkeypatch) -> list:
    """The sizes of the exact eliminations run from now on (``bareiss`` is in
    polynomials, for ``resultant``)."""
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    real = polynomials.bareiss
    monkeypatch.setattr(polynomials, "bareiss", counted)
    return calls


def _primes_used(monkeypatch) -> list:
    used = []
    real = linalg._solve_at_prime

    def spy(rows, ncols, p):
        used.append(p)
        return real(rows, ncols, p)

    monkeypatch.setattr(linalg, "_solve_at_prime", spy)
    return used


def _expansions(monkeypatch) -> list:
    """(point, pivots) of every kernel expansion from now on."""
    seen = []
    real = linalg._series_kernel

    def spy(rows, ncols, width, x0, *rest):
        seen.append((x0, rest[-3]))  # rest ends with the pivots, p and the order bound
        return real(rows, ncols, width, x0, *rest)

    monkeypatch.setattr(linalg, "_series_kernel", spy)
    return seen


def _full_rank_at_first_point(rows: list[list[ZnPoly]], ncols: int) -> bool:
    image = [[e[0] if e else 0 for e in row] for row in rows]  # A at n = 0
    return len(linalg._echelon(image, ncols, linalg._PRIMES[0])[0]) == ncols


tall_zn_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda cols: st.lists(
        st.lists(zn_entries, min_size=cols, max_size=cols), min_size=cols, max_size=cols + 2
    )
)


@settings(max_examples=60, deadline=None)
@given(tall_zn_matrices)
def test_modular_full_rank_means_an_empty_exact_nullspace(matrix):
    ncols = len(matrix[0])
    refuted = _full_rank_at_first_point(_zn_rows(matrix), ncols)
    reference = rref_nullspace(matrix, ncols)
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
    assert not _full_rank_at_first_point(_zn_rows(rows), ncols)
    reference = rref_nullspace(rows, ncols)
    assert reference
    assert _qn_nullspace(rows, ncols=ncols) == reference


def _assert_primitive(basis: list[list[ZnPoly]]) -> None:
    """Each vector has content 1 in Z[n] and a positive lead at its free entry."""
    for vec in basis:
        content: list[int] = []
        for e in vec:
            content = _int_gcd(content, list(e))
        assert len(content) == 1
        assert math.gcd(*(c for e in vec for c in e)) == 1
        assert next(e for e in reversed(vec) if e)[-1] > 0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_planted_nullspace_is_rebuilt_vector_by_vector(data):
    # columns `planted` are Z[n] combinations of the `rank` base columns, so
    # the nullspace has dimension at least `dim`; the columns are shuffled
    dim = data.draw(st.integers(min_value=0, max_value=3), label="dim")
    rank = data.draw(st.integers(min_value=1, max_value=4), label="rank")
    nrows = data.draw(st.integers(min_value=rank, max_value=rank + 2), label="rows")
    base = [[data.draw(zn_entries) for _ in range(rank)] for _ in range(nrows)]
    coeffs = [[data.draw(zn_entries) for _ in range(dim)] for _ in range(rank)]
    order = data.draw(st.permutations(range(rank + dim)), label="order")
    matrix = []
    for row in base:
        planted = [sum((e * c[j] for e, c in zip(row, coeffs)), n_poly()) for j in range(dim)]
        matrix.append([(row + planted)[c] for c in order])
    reference = rref_nullspace(matrix, rank + dim)
    assert len(reference) >= dim
    assert _qn_nullspace(matrix, ncols=rank + dim) == reference
    _assert_primitive(nullspace(_zn_rows(matrix), ncols=rank + dim))


_N0 = n_poly(linalg._N0)


_UNLUCKY = [_N, _N - _N0, _N * (_N - _N0)]  # 0 at the point 0, at n0, or at both


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_unlucky_expansion_points_never_shape_the_basis(data):
    # a planted nullspace (as above) with some rows and columns times n,
    # n - n0 or n (n - n0): at 0, at n0 or at both the rank drops or the
    # pivots move, and the kernel's entries gain those factors
    dim = data.draw(st.integers(min_value=1, max_value=2), label="dim")
    rank = data.draw(st.integers(min_value=1, max_value=3), label="rank")
    nrows = data.draw(st.integers(min_value=rank, max_value=rank + 1), label="rows")
    base = [[data.draw(zn_entries) for _ in range(rank)] for _ in range(nrows)]
    coeffs = [[data.draw(zn_entries) for _ in range(dim)] for _ in range(rank)]
    order = data.draw(st.permutations(range(rank + dim)), label="order")
    factor = data.draw(st.sampled_from(_UNLUCKY), label="factor")
    scaled_rows = data.draw(st.sets(st.integers(0, nrows - 1)), label="scaled rows")
    scaled_cols = data.draw(st.sets(st.integers(0, rank + dim - 1)), label="scaled columns")
    matrix = []
    for r, row in enumerate(base):
        planted = [sum((e * c[j] for e, c in zip(row, coeffs)), n_poly()) for j in range(dim)]
        matrix.append([(row + planted)[c] * (factor if c in scaled_cols else n_poly(1))
                       * (factor if r in scaled_rows else n_poly(1)) for c in order])
    reference = rref_nullspace(matrix, rank + dim)
    assert _qn_nullspace(matrix, ncols=rank + dim) == reference
    _assert_primitive(nullspace(_zn_rows(matrix), ncols=rank + dim))


@pytest.mark.parametrize("corner", [_N + 1, n_poly(linalg._PRIMES[0] + 1), _N * (_N - _N0) + 1])
def test_an_unlucky_point_or_prime_runs_no_exact_elimination(corner, monkeypatch):
    # det [[1, 1], [1, corner]] is n, p or n (n - n0): nonzero, but 0 at
    # the first point 0, modulo p, or at both 0 and n0
    matrix = [[n_poly(1), n_poly(1)], [n_poly(1), corner]]
    assert not _full_rank_at_first_point(_zn_rows(matrix), 2)
    calls = _count_bareiss(monkeypatch)
    assert _qn_nullspace(matrix) == [] == rref_nullspace(matrix, 2)
    assert calls == []


@pytest.mark.parametrize("j", range(3))
@pytest.mark.parametrize("drop", ["rank", "pivots"])
def test_a_point_of_lower_rank_or_later_pivots_is_dropped(drop, j, monkeypatch):
    # zero is 0 at the point 0, at n0, or at both
    zero = [_N, _N - _N0, _N * (_N - _N0)][j]
    if drop == "rank":
        # the second row vanishes there: rank 1 at those points, 2 elsewhere
        matrix = [[n_poly(1), n_poly(1), _N], [zero, zero * 2, zero * 3]]
    else:
        # the first column vanishes there: pivots (1, 2) at those points, (0, 1) elsewhere
        matrix = [[zero, n_poly(1), n_poly(1)], [zero * _N, n_poly(2), _N]]
    expanded = _expansions(monkeypatch)
    calls = _count_bareiss(monkeypatch)
    basis = _qn_nullspace(matrix)
    assert basis == rref_nullspace(matrix, 3) and len(basis) == 1
    unlucky = (0,) if drop == "rank" else (1, 2)
    n0 = linalg._N0
    # a lucky first or second point is the only one expanded; when both are
    # unlucky, their bases fail the proof and the next point gives the basis
    assert expanded == [[(n0, (0, 1))], [(0, (0, 1))],
                        [(0, unlucky), (n0, unlucky), (n0 + 1, (0, 1))]][j]
    assert calls == []


def test_entries_divisible_by_the_first_prime_still_give_the_right_basis(monkeypatch):
    # modulo p the second row is n times the first: rank 1 at every point,
    # where it is 2 over Q(n); the two vectors rebuilt there fail the proof
    p = n_poly(linalg._PRIMES[0])
    matrix = [[n_poly(1), n_poly(1) + p, _N], [_N, _N, _N * _N + p]]
    used = _primes_used(monkeypatch)
    basis = _qn_nullspace(matrix)
    assert basis == rref_nullspace(matrix, 3) and len(basis) == 1
    assert used == list(linalg._PRIMES[:2])


def test_coefficients_past_31_bits_climb_to_the_next_prime(monkeypatch):
    # the vector (-(c n + d), a n + b) has 34- and 35-bit coefficients; its
    # rational images need about 69 bits, more than 2^61 - 1 can give back
    a, b, c, d = 2**33 + 1, 2**34 + 7, 3**21, 5**15
    matrix = [[n_poly(b, a), n_poly(d, c)]]
    used = _primes_used(monkeypatch)
    assert _qn_nullspace(matrix) == rref_nullspace(matrix, 2)
    assert nullspace(_zn_rows(matrix)) == [[ZnPoly((-d, -c)), ZnPoly((b, a))]]
    assert used == list(linalg._PRIMES[:2]) * 2


@pytest.mark.parametrize("t", [0, 1, 8, 60, 61, 127, 200])
def test_the_proof_is_not_fooled_by_a_root_at_a_power_of_two(t):
    # A v = n - 2^t, zero at n = 2^t only
    rows = [[ZnPoly((0, 1)), ZnPoly((1,))]]
    assert not linalg._annihilates(rows, [[ZnPoly((1,)), ZnPoly((-(2**t),))]])
    assert linalg._annihilates(rows, [[ZnPoly((1,)), ZnPoly((0, -1))]])


def test_a_prime_that_rebuilds_nothing_is_left_after_its_point_bound(monkeypatch):
    # with no denominator ever rebuilt, each prime stops after 2 * 1 + 2
    # orders (entries of degree <= 1), rebuilding from order 3 on, and the
    # ladder ends in an error
    orders = []

    def nothing(g, modulus, p):
        orders.append((p, len(modulus) - 1))

    monkeypatch.setattr(linalg, "_fraction", nothing)
    with pytest.raises(ArithmeticError, match="no prime of the ladder"):
        nullspace([[ZnPoly((1, 1)), ZnPoly((-1,))]])
    assert orders == [(p, m) for p in linalg._PRIMES for m in (3, 4)]


def test_empty_shapes():
    one = ZnPoly((1,))
    assert nullspace([], ncols=2) == [[one, ZnPoly()], [ZnPoly(), one]]
    assert nullspace([[]], ncols=0) == [] == nullspace([], ncols=0)
