"""Brute-force oracles, telescoping-pair checks, and sequence transforms."""

from __future__ import annotations

from fractions import Fraction

import pytest

from telesum.hyperterm import binomial_value, parse_term
from telesum.polynomials import n_poly
from telesum.verify import (
    VerificationError,
    WZPair,
    binomial_column_sequence,
    binomial_row_sequence,
    catalan_sequence,
    check_binomial_transform,
    check_boundary_couple,
    check_lower_triangle_identity,
    check_telescoping,
    check_transform_power_identity,
    oracle_sum,
    rational_sequence,
    seeded_random_sequences,
    sum_table,
)

F1_TEXT = "binom(n+r,n)binom(r+k,r-1)binom(n+k,n)"
G1_TEXT = "(-1)binom(n+r,n)binom(r+k,r-1)binom(n+k,n)*k(k+1)/(n+1)"
F2_TEXT = "binom(n+s,n)binom(s+k,s-1)binom(n+k,n)"
G2_TEXT = "(-1)binom(n+s,n)binom(s+k,s-1)binom(n+k,n)*k(k+1)/(n+1)"
COUPLE_COEFFS = (n_poly(0, 1), n_poly(-1, -1))  # n*w(n) - (n+1)*w(n+1)


def test_oracle_sum_binomial_row():
    t = parse_term("binom(n,k)")
    assert oracle_sum(t, 5, 0, 5) == 32
    assert oracle_sum(t, 5, 0, 99) == 32
    assert oracle_sum(t, 5, 2, 1) == 0


def test_sum_table():
    t = parse_term("binom(n,k)^2")
    table = sum_table(t, 0, 6, lambda n: (0, n))
    for n, v in table.items():
        assert v == binomial_value(2 * n, n)


def test_check_telescoping_true_pair():
    f = parse_term(F1_TEXT, {"r": 2})
    g = parse_term(G1_TEXT, {"r": 2})
    assert check_telescoping(f, g, COUPLE_COEFFS)


def test_check_telescoping_wrong_sign_fails():
    f = parse_term(F1_TEXT, {"r": 2})
    g_wrong = parse_term(G1_TEXT.replace("(-1)", ""), {"r": 2})
    assert not check_telescoping(f, g_wrong, COUPLE_COEFFS)


def test_wz_pair_check_on_grid():
    for r in (1, 2, 3):
        pair = WZPair(
            parse_term(F1_TEXT, {"r": r}),
            parse_term(G1_TEXT, {"r": r}),
            COUPLE_COEFFS,
        )
        assert pair.check()


def test_wz_pair_vanishes_at_zero():
    pair = WZPair(
        parse_term(F1_TEXT, {"r": 2}),
        parse_term(G1_TEXT, {"r": 2}),
        COUPLE_COEFFS,
    )
    assert pair.vanishes_at_k(0)
    assert not pair.vanishes_at_k(1)


def test_boundary_couple_accepts_true_instance():
    rhs = parse_term(
        "(-1)binom(n+r,n)binom(r+s,r-1)binom(n+s,n)*s(s+1)/(n+1)", {"r": 2, "s": 3}
    )
    check_boundary_couple(
        parse_term(F1_TEXT),
        parse_term(G1_TEXT),
        "s",
        parse_term(F2_TEXT),
        parse_term(G2_TEXT),
        "r",
        COUPLE_COEFFS,
        rhs,
        {"r": 2, "s": 3},
        n_lo=1,
        n_hi=8,
    )


def test_boundary_couple_rejects_swapped_limits():
    rhs = parse_term(
        "(-1)binom(n+r,n)binom(r+s,r-1)binom(n+s,n)*s(s+1)/(n+1)", {"r": 2, "s": 3}
    )
    with pytest.raises(VerificationError):
        check_boundary_couple(
            parse_term(F1_TEXT),
            parse_term(G1_TEXT),
            "r",  # wrong upper limit pairing
            parse_term(F2_TEXT),
            parse_term(G2_TEXT),
            "s",
            COUPLE_COEFFS,
            rhs,
            {"r": 2, "s": 3},
            n_lo=1,
            n_hi=6,
        )


# -- sequences and double-sum transforms ---------------------------------


def test_catalan_sequence_values():
    seq = catalan_sequence(8)
    assert [seq.value(i) for i in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    with pytest.raises(IndexError):
        seq.value(8)


def test_binomial_sequences():
    col = binomial_column_sequence(2, 6)
    assert [col.value(i) for i in range(6)] == [0, 0, 1, 3, 6, 10]
    row = binomial_row_sequence(4, 6)
    assert [row.value(i) for i in range(6)] == [1, 4, 6, 4, 1, 0]


def test_seeded_random_sequences_deterministic():
    a = seeded_random_sequences(3, 10, seed=11928)
    b = seeded_random_sequences(3, 10, seed=11928)
    assert [s._values for s in a] == [s._values for s in b]
    c = seeded_random_sequences(3, 10, seed=1)
    assert [s._values for s in a] != [s._values for s in c]


def test_binomial_transform_catalan():
    seq = catalan_sequence(32)
    for n in range(6):
        for m in range(6):
            assert check_binomial_transform(seq, n, m)


def test_binomial_transform_random_sequences():
    for seq in seeded_random_sequences(5, 24):
        for n, m in ((0, 0), (1, 2), (3, 3), (5, 7), (10, 10)):
            assert check_binomial_transform(seq, n, m)


def test_binomial_transform_holds_for_any_values():
    # the identity is universal in the sequence, so arbitrary values satisfy it
    seq = rational_sequence("arb", [1, 1, 2, 5, 999, 42, 132, 429, 1430, 4862])
    assert check_binomial_transform(seq, 2, 2)


def test_binomial_transform_overrun_raises():
    seq = rational_sequence("short", [1, 2, 3])
    with pytest.raises(IndexError):
        check_binomial_transform(seq, 4, 4)


def test_transform_power_identity():
    for n in range(7):
        for m in range(7):
            assert check_transform_power_identity(n, m)


def test_transform_power_identity_values():
    # n=1, m=2: direct double sum equals binom(3,1)*4 = 12
    total = Fraction(0)
    for i in range(2):
        for j in range(3):
            total += (
                binomial_value(1, i) * binomial_value(2, j) * binomial_value(i + j, 1)
            )
    assert total == 12
    assert binomial_value(3, 1) * 2**2 == 12


def test_lower_triangle_identity():
    for n in range(12):
        assert check_lower_triangle_identity(n)


def test_sequence_scaled_to_one_common_denominator():
    seq = rational_sequence("mixed", [Fraction(1, 2), Fraction(1, 3), Fraction(1, 12), -1])
    assert seq.scaled == (6, 4, 1, -12)
    assert seq.value(2) == Fraction(1, 12)


def test_binomial_transform_mixed_denominators():
    values = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 12), Fraction(-5, 6), 7, Fraction(1, 4)]
    seq = rational_sequence("mixed", values)
    for n in range(6):
        for m in range(6 - n):
            assert check_binomial_transform(seq, n, m)
    with pytest.raises(IndexError, match="sequence mixed has no term 6"):
        check_binomial_transform(seq, 3, 3)
