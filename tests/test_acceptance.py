"""Acceptance gate: every deliverable identity, one pass/fail line each."""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from telesum.cli import main
from telesum.gosper import NotSummableError, gosper_antidifference, telescoped_sum
from telesum.hyperterm import binomial_value, eval_term, parse_term, term_ratio_is_one
from telesum.polynomials import ZnPoly
from telesum.suite import mutation_catalog, run_case
from telesum.verify import (
    WZPair,
    binomial_column_sequence,
    catalan_sequence,
    check_binomial_transform,
    check_lower_triangle_identity,
    check_transform_power_identity,
    oracle_sum,
    seeded_random_sequences,
)
from telesum.series import (
    ballot_gf,
    catalan_gf,
    central_binomial_gf,
    check_convolution_11897,
    check_shifted_central_identity,
)
from telesum.zeilberger import Recurrence, creative_telescope, operator_equal

from qn_tower import to_tower

SUMMAND_11897 = "binom(2k,k)*binom(2n-2k+2,n-k+1)/(k+1)"
ANTIDIFFERENCE_11897 = (
    "(2k-2n-3)(k+1)binom(2k,k)binom(2n-2k+2,n-k+1)fact(k)/fact(k+1)*(n+2)"
)
CRUX_CUBE = "binom(n,k)^3"
CRUX_SQUARE = "binom(n,k)^2*binom(2k,n)"
F1_11916 = "binom(n+r,n)binom(r+k,r-1)binom(n+k,n)"
G1_11916 = "(-1)binom(n+r,n)binom(r+k,r-1)binom(n+k,n)*k(k+1)/(n+1)"
F2_11916 = "binom(n+s,n)binom(s+k,s-1)binom(n+k,n)"
G2_11916 = "(-1)binom(n+s,n)binom(s+k,s-1)binom(n+k,n)*k(k+1)/(n+1)"
COUPLE_COEFFS = (ZnPoly((0, 1)), ZnPoly((-1, -1)))


@contextmanager
def _criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}", flush=True)
        raise
    print(f"PASS {label}", flush=True)


def test_criterion_1_indefinite_certificate_11897():
    with _criterion("criterion 1: 11897 summand has the displayed antidifference"):
        start = time.monotonic()
        term = parse_term(SUMMAND_11897)
        cert = gosper_antidifference(term)
        assert term_ratio_is_one(
            cert.antidifference(), parse_term(ANTIDIFFERENCE_11897)
        )
        assert cert.check()
        R, r = to_tower(cert.certificate), to_tower(cert.ratio)
        assert (R.shift(1) * r - R).is_one()
        for n in range(41):
            assert telescoped_sum(cert, n, 0, n) == 2 * binomial_value(2 * n + 2, n)
        assert time.monotonic() - start < 5.0


def test_criterion_2_shared_operator_for_crux_sums():
    with _criterion("criterion 2: both crux summands share one order-2 operator"):
        start = time.monotonic()
        cert_cube = creative_telescope(parse_term(CRUX_CUBE))
        t_cube = time.monotonic() - start
        start = time.monotonic()
        cert_square = creative_telescope(parse_term(CRUX_SQUARE))
        t_square = time.monotonic() - start
        assert t_cube < 30.0 and t_square < 30.0
        assert operator_equal(cert_cube.recurrence, cert_square.recurrence)
        assert cert_cube.recurrence.order == 2
        assert cert_cube.recurrence.coeffs == (
            ZnPoly((-8, -16, -8)),
            ZnPoly((-16, -21, -7)),
            ZnPoly((4, 4, 1)),
        )
        franel = {0: 1, 1: 2, 2: 10, 3: 56, 4: 346, 5: 2252}
        for n in range(4):
            assert cert_cube.recurrence.apply(franel, n) == 0


def test_criterion_3_inhomogeneous_recurrence_11899():
    with _criterion("criterion 3: 11899 recurrence holds for both closed forms"):
        rec = Recurrence((ZnPoly((-30, -64, -32)), ZnPoly((3, 5, 2))))
        rhs = parse_term("binom(2n,n)^2*(-16n^2-38n-18)/(n+1)")
        summand = parse_term("2*binom(2n,k)*binom(2n+1,k)")

        def left(n: int) -> Fraction:
            return oracle_sum(summand, n, 0, n)

        def right(n: int) -> Fraction:
            return Fraction(
                binomial_value(4 * n + 1, 2 * n) + binomial_value(2 * n, n) ** 2
            )

        for w in (left, right):
            assert w(0) == 2
            for n in range(41):
                assert rec.apply(w, n) == eval_term(rhs, n, 0)
        assert rec.apply(left, 0) == -18


def test_criterion_4_telescoping_couple_11916():
    with _criterion("criterion 4: 11916 pair telescopes and both sums agree"):
        pairs1 = {}
        pairs2 = {}
        for v in range(1, 9):
            pairs1[v] = WZPair(
                parse_term(F1_11916, {"r": v}),
                parse_term(G1_11916, {"r": v}),
                COUPLE_COEFFS,
            )
            pairs2[v] = WZPair(
                parse_term(F2_11916, {"s": v}),
                parse_term(G2_11916, {"s": v}),
                COUPLE_COEFFS,
            )
            assert pairs1[v].check() and pairs2[v].check()
            assert pairs1[v].vanishes_at_k(0) and pairs2[v].vanishes_at_k(0)
        for r in range(1, 9):
            for s in range(1, 9):
                assert term_ratio_is_one(
                    pairs1[r].g.subst_k(s), pairs2[s].g.subst_k(r)
                )
                assert oracle_sum(pairs1[r].f, 1, 0, s - 1) == r * (
                    r + 1
                ) * binomial_value(r + s, s - 1)
                assert oracle_sum(pairs2[s].f, 1, 0, r - 1) == r * (
                    r + 1
                ) * binomial_value(r + s, s - 1)
        for r in range(1, 13):
            f1 = parse_term(F1_11916, {"r": r})
            for s in range(1, 13):
                f2 = parse_term(F2_11916, {"s": s})
                for n in range(1, 13):
                    assert oracle_sum(f1, n, 0, s - 1) == oracle_sum(f2, n, 0, r - 1)


def test_criterion_5_binomial_transform_family_11928():
    with _criterion("criterion 5: 11928 transform identities hold on their grids"):
        sequences = [catalan_sequence(21), binomial_column_sequence(5, 21)]
        sequences.extend(seeded_random_sequences(20, 21, seed=11928))
        for seq in sequences:
            for n in range(21):
                for m in range(21 - n):
                    assert check_binomial_transform(seq, n, m)
        for n in range(16):
            for m in range(16):
                assert check_transform_power_identity(n, m)
        for n in range(21):
            assert check_lower_triangle_identity(n)
        catalan_long = catalan_sequence(31)
        for n in range(16):
            for m in range(16):
                assert check_binomial_transform(catalan_long, n, m)


def test_criterion_6_generating_function_identities():
    with _criterion("criterion 6: generating-function coefficient identities hold"):
        start = time.monotonic()
        cat = catalan_gf(64)
        central = central_binomial_gf(64)
        for i in range(65):
            assert cat.coeff(i) == Fraction(binomial_value(2 * i, i), i + 1)
            assert central.coeff(i) == binomial_value(2 * i, i)
        for k in range(6):
            gf = ballot_gf(k, 64)
            for i in range(65):
                assert gf.coeff(i) == binomial_value(2 * i + k, i)
        assert check_shifted_central_identity(64)
        assert check_convolution_11897(50)
        assert time.monotonic() - start < 5.0


def test_criterion_7_honest_refusals_and_mutations():
    with _criterion("criterion 7: non-summable terms refused, mutations all fail"):
        for text in ("binom(n,k)", "fact(k)", "1/k", "2^k/k"):
            with pytest.raises(NotSummableError) as info:
                gosper_antidifference(parse_term(text))
            assert info.value.reason
        mutations = mutation_catalog()
        assert len(mutations) >= 8
        for case in mutations:
            assert not run_case(case).ok, case["id"]


def test_criterion_8_bundled_suite_passes(capsys):
    with _criterion("criterion 8: bundled identity suite passes end to end"):
        start = time.monotonic()
        assert main(["suite", "paper.suite"]) == 0
        assert time.monotonic() - start < 120.0
        assert "8/8 cases pass" in capsys.readouterr().out
