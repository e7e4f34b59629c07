"""Brute-force oracles, telescoping-pair checks, and sequence transforms."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telesum import verify

from telesum.gosper import gosper_antidifference
from telesum.hyperterm import (
    binomial_value,
    factored_shift_pair,
    parse_term,
    ratio_rational,
    shift_quotient,
)
from telesum.polynomials import Polynomial, ZnPoly, shift_in_n
from telesum.verify import (
    VerificationError,
    WZPair,
    binomial_column_sequence,
    binomial_row_sequence,
    catalan_sequence,
    check_binomial_transform,
    check_boundary_couple,
    check_lower_triangle_identity,
    check_transform_power_identity,
    oracle_sum,
    rational_sequence,
    seeded_random_sequences,
    telescoping_identity,
)
from telesum.zeilberger import (
    NoRecurrenceFound,
    Recurrence,
    TelescopingCertificate,
    creative_telescope,
)
from qn_tower import QNK, pair_to_tower, to_tower, tower_pair
from test_generated_terms import natural_terms, terms

F1_TEXT = "binom(n+r,n)binom(r+k,r-1)binom(n+k,n)"
G1_TEXT = "(-1)binom(n+r,n)binom(r+k,r-1)binom(n+k,n)*k(k+1)/(n+1)"
F2_TEXT = "binom(n+s,n)binom(s+k,s-1)binom(n+k,n)"
G2_TEXT = "(-1)binom(n+s,n)binom(s+k,s-1)binom(n+k,n)*k(k+1)/(n+1)"
COUPLE_COEFFS = (ZnPoly((0, 1)), ZnPoly((-1, -1)))  # n*w(n) - (n+1)*w(n+1)


def test_oracle_sum_binomial_row():
    t = parse_term("binom(n,k)")
    assert oracle_sum(t, 5, 0, 5) == 32
    assert oracle_sum(t, 5, 0, 99) == 32
    assert oracle_sum(t, 5, 2, 1) == 0


def test_sum_table():
    t = parse_term("binom(n,k)^2")
    table = {n: oracle_sum(t, n, 0, n) for n in range(7)}
    for n, v in table.items():
        assert v == binomial_value(2 * n, n)


def test_check_telescoping_true_pair():
    f = parse_term(F1_TEXT, {"r": 2})
    g = parse_term(G1_TEXT, {"r": 2})
    assert WZPair(f, g, COUPLE_COEFFS).check()


def test_check_telescoping_wrong_sign_fails():
    f = parse_term(F1_TEXT, {"r": 2})
    g_wrong = parse_term(G1_TEXT.replace("(-1)", ""), {"r": 2})
    assert not WZPair(f, g_wrong, COUPLE_COEFFS).check()


# -- the identity check at one point against the cross-multiplied one -----


def _cross_multiplied_identity(term, coeffs, certificate):
    """The check that telescoping_identity replaced, kept here as its
    reference: (L*Q + Delta*P) * B*Q(k+1) = Delta*A*P(k+1) * Q with every
    product multiplied out in Z[n][k]."""
    a, b = factored_shift_pair(term, "k").pair()
    p, q = certificate
    order = len(coeffs) - 1
    c, d = factored_shift_pair(term, "n").pair() if order > 0 else (None, None)
    cs = [shift_in_n(c, i) for i in range(order)]
    ds = [shift_in_n(d, i) for i in range(order)]
    total = Polynomial(())
    for j, s in enumerate(coeffs):
        t = Polynomial((s,))
        if not t:
            continue
        for factor in cs[:j] + ds[j:]:
            t = t * factor
        total = total + t
    delta = Polynomial((ZnPoly((1,)),))
    for factor in ds:
        delta = delta * factor
    return (total * q + delta * p) * (b * q.shift(1)) == delta * a * p.shift(1) * q


def _reference_identity(term, coeffs, certificate):
    """The summation in Q(n)(k) that the Z[n][k] checks replaced, kept here
    as a second reference, in the tower of tests/qn_tower.py: every addition
    and product reduces by a gcd.  certificate is a tower element."""
    r_k = to_tower(shift_quotient(term, "k"))
    r_n = to_tower(shift_quotient(term, "n"))
    lhs, t_j = QNK.zero(), QNK.one()
    for j, c in enumerate(coeffs):
        if j > 0:
            t_j = t_j * r_n.shift_n(j - 1)
        if c:
            lhs = lhs + t_j * c
    return lhs == certificate.shift(1) * r_k - certificate


def _agree_in_znk(term, coeffs, pair):
    got = telescoping_identity(term, coeffs, pair)
    assert got == _cross_multiplied_identity(term, coeffs, pair)
    return got


def _agree(term, coeffs, certificate):
    """The checks in Z[n][k] on the pair of a tower element, and the
    tower's own summation, agree."""
    got = _agree_in_znk(term, coeffs, tower_pair(certificate))
    assert got == _reference_identity(term, coeffs, certificate)
    return got


def _tamperings(coeffs, certificate):
    """sigma_0 + 1, R * 2 and R shifted in k, R a tower element; each
    breaks the identity."""
    yield (coeffs[0] + ZnPoly((1,)),) + tuple(coeffs[1:]), certificate
    yield coeffs, certificate * 2
    yield coeffs, certificate.shift(1)


@pytest.mark.parametrize(
    "text, order",
    [
        ("binom(n,k)", 1),
        ("binom(n,k)^2", 1),
        ("binom(n,k)^3", 2),
        ("binom(n,k)^2*binom(2k,n)", 2),
    ],
)
def test_identity_check_on_ladder_certificates(text, order):
    cert = creative_telescope(parse_term(text))
    coeffs, R = cert.recurrence.coeffs, to_tower(cert.certificate)
    assert cert.recurrence.order == order
    assert _agree(cert.term, coeffs, R)
    for bad_coeffs, bad_cert in _tamperings(coeffs, R):
        assert not _agree_in_znk(cert.term, bad_coeffs, tower_pair(bad_cert))
    tampered = TelescopingCertificate(
        cert.term, Recurrence((coeffs[0] + ZnPoly((1,)),) + coeffs[1:]), cert.certificate_pair
    )
    assert not tampered.check()


@pytest.mark.parametrize(
    "param, f_text, g_text", [("r", F1_TEXT, G1_TEXT), ("s", F2_TEXT, G2_TEXT)], ids=["r", "s"]
)
def test_identity_check_on_11916_pairs(param, f_text, g_text):
    """Every pair of the suite's p11916 grid (r, s in 1..12), and its
    companion with the sign flipped."""
    for v in range(1, 13):
        f = parse_term(f_text, {param: v})
        for g, want in ((parse_term(g_text, {param: v}), True),
                        (parse_term(g_text.replace("(-1)", ""), {param: v}), False)):
            assert WZPair(f, g, COUPLE_COEFFS).check() is want
            assert _agree(f, COUPLE_COEFFS, pair_to_tower(*ratio_rational(g, f))) is want


@pytest.mark.parametrize("text", ["fact(k)*k", "binom(n,k)*(n-2k)", "k*2^k", "binom(k,n)"])
def test_identity_check_at_order_zero_is_gospers(text):
    cert = gosper_antidifference(parse_term(text))
    one, R = (ZnPoly((1,)),), to_tower(cert.certificate)
    assert cert.check() and _agree(cert.term, one, R)
    for bad_coeffs, bad_cert in _tamperings(one, R):
        assert not _agree(cert.term, bad_coeffs, bad_cert)
    for bad_cert in (R * 2, R.shift(1)):
        bad = dataclasses.replace(cert, certificate_pair=tower_pair(bad_cert))
        assert not bad.check()


def test_identity_check_with_zero_sigma_entries():
    """(S_n + 2)(S_n - 2) = S_n^2 - 4 annihilates sum_k binom(n,k); its
    certificate is R(n+1,k) r_n + 2R, and sigma_1 = 0.  A zero sigma on
    top, which lengthens the common denominator, changes nothing."""
    cert = creative_telescope(parse_term("binom(n,k)"))
    term, R = cert.term, to_tower(cert.certificate)
    assert cert.recurrence.coeffs == (ZnPoly((-2,)), ZnPoly((1,)))
    R2 = R.shift_n(1) * to_tower(shift_quotient(term, "n")) + R * 2
    coeffs = (ZnPoly((-4,)), ZnPoly(), ZnPoly((1,)))
    assert _agree(term, coeffs, R2)
    assert _agree(term, cert.recurrence.coeffs + (ZnPoly(),), R)
    assert _agree(term, coeffs + (ZnPoly(),), R2)
    for bad_coeffs, bad_cert in _tamperings(coeffs, R2):
        assert not _agree(term, bad_coeffs, bad_cert)
    assert not _agree(term, (ZnPoly((-4,)), ZnPoly((1,)), ZnPoly((1,))), R2)
    # the identity is linear in (sigma, R)
    three = ZnPoly((3,))
    assert _agree(term, tuple(c * three for c in coeffs), R2 * 3)
    assert not _agree(term, tuple(c * three for c in coeffs), R2)


ZERO_CERT = (Polynomial(()), Polynomial((ZnPoly((1,)),)))  # R = 0/1


@pytest.mark.parametrize("sigma_0, holds", [(-2, True), (-3, False), (0, False)])
def test_identity_check_with_a_zero_certificate(sigma_0, holds):
    """P = 0: sigma_0 F(n) + F(n+1) = 0 for F = 2^n and 2^n * binom(n, k)
    only with sigma_0 = -2, the second with nothing to telescope in k."""
    coeffs = (ZnPoly((sigma_0,)), ZnPoly((1,)))
    assert _agree_in_znk(parse_term("2^n"), coeffs, ZERO_CERT) is holds
    assert _agree_in_znk(parse_term("2^n"), coeffs[:1], ZERO_CERT) is (sigma_0 == 0)
    assert _agree_in_znk(parse_term("2^n"), (), ZERO_CERT)  # no sigma: 0 = R(k+1) r_k - R
    assert WZPair(parse_term("2^n"), parse_term("0"), coeffs).check() is holds
    assert not WZPair(parse_term("binom(n,k)"), parse_term("binom(n,k)"), ()).check()
    assert not _agree_in_znk(parse_term("2^n*binom(n,k)"), coeffs, ZERO_CERT)


def test_identity_check_is_not_fooled_by_a_root_at_a_power_of_two():
    """-2n F(n) + 2^t F(n+1) = 2(2^t - n) F(n) for F = 2^n is zero only at
    n = 2^t, so no fixed point n = 2^t can decide it."""
    for t in range(1, 40):
        assert not _agree_in_znk(parse_term("2^n"), (ZnPoly((0, -2)), ZnPoly((2**t,))), ZERO_CERT)
    assert _agree_in_znk(parse_term("2^n"), (ZnPoly((0, -2)), ZnPoly((0, 1))), ZERO_CERT)


def _differential(term, coeffs, pair, data):
    """The certificate, with sigma and R multiplied by one m, passes both
    checks; one coefficient of P, Q or a sigma_j moved by +-1 gets the same
    verdict from both."""
    m = data.draw(st.sampled_from([1, 2, 3]), "m")
    coeffs = [c * ZnPoly((m,)) for c in coeffs]
    pair = [pair[0] * m, pair[1]]
    assert _agree_in_znk(term, coeffs, tuple(pair))
    step = data.draw(st.sampled_from([1, -1]), "step")
    where = data.draw(st.sampled_from(["P", "Q", "sigma"]), "where")
    if where == "sigma":
        j = data.draw(st.integers(0, len(coeffs) - 1), "j")
        a = data.draw(st.integers(0, len(coeffs[j])), "a")
        coeffs[j] = coeffs[j] + ZnPoly([0] * a + [step])
    else:
        rows = [list(r) for r in pair[where == "Q"].coeffs]
        b = data.draw(st.integers(0, len(rows)), "b")
        rows += [[]] * (b + 1 - len(rows))
        a = data.draw(st.integers(0, max(map(len, rows))), "a")
        rows[b] += [0] * (a + 1 - len(rows[b]))
        rows[b][a] += step
        pair[where == "Q"] = Polynomial([ZnPoly(r) for r in rows])
        if not pair[1]:
            return
    _agree_in_znk(term, coeffs, tuple(pair))


@settings(max_examples=40, deadline=None)
@given(natural_terms, st.data())
def test_identity_check_is_the_cross_multiplied_one_on_zeilberger_certificates(term, data):
    try:
        cert = creative_telescope(term, max_order=2)
    except NoRecurrenceFound:
        return
    _differential(cert.term, cert.recurrence.coeffs, cert.certificate_pair, data)


@settings(max_examples=40, deadline=None)
@given(terms, st.data())
def test_identity_check_is_the_cross_multiplied_one_on_gosper_certificates(g, data):
    step = to_tower(shift_quotient(g, "k")) - 1
    if not step:
        return  # G does not depend on k
    cert = gosper_antidifference(g.scale_rational(tower_pair(step)))
    _differential(cert.term, (ZnPoly((1,)),), cert.certificate_pair, data)


def test_every_solver_raises_when_its_certificate_fails_the_check(monkeypatch):
    monkeypatch.setattr(verify, "zn_identity", lambda sides: False)
    with pytest.raises(AssertionError, match="internal error"):
        gosper_antidifference(parse_term("k*fact(k)"))
    with pytest.raises(AssertionError, match="internal error"):
        creative_telescope(parse_term("binom(n,k)^2"))
    assert not WZPair(parse_term("2^n"), parse_term("0"), (ZnPoly((-2,)), ZnPoly((1,)))).check()


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


COUPLE_RHS = "(-1)binom(n+r,n)binom(r+s,r-1)binom(n+s,n)*s(s+1)/(n+1)"
ZERO_AT_1_2 = "binom(n-3,n-3)*"  # 1 as a hypergeometric term, but 0 at n = 1 and n = 2


@pytest.mark.parametrize("f1, g1, f2, g2, rhs, message", [
    (F1_TEXT, G1_TEXT.replace("(-1)", ""), F2_TEXT, G2_TEXT, COUPLE_RHS,
     "telescoping fails for the first member at {'r': 2, 's': 3}"),
    (F1_TEXT, G1_TEXT, F2_TEXT, G2_TEXT.replace("(-1)", ""), COUPLE_RHS,
     "telescoping fails for the second member at {'r': 2, 's': 3}"),
    ("2^k", "(-1)2^k", F2_TEXT, G2_TEXT, COUPLE_RHS,
     "first companion nonzero at k = 0 at {'r': 2, 's': 3}"),
    (F1_TEXT, G1_TEXT, "2^k", "(-1)2^k", COUPLE_RHS,
     "second companion nonzero at k = 0 at {'r': 2, 's': 3}"),
    (F1_TEXT, G1_TEXT, F2_TEXT, G2_TEXT, "2*" + COUPLE_RHS,
     "boundary value differs from the stated right-hand side at {'r': 2, 's': 3}"),
    (F1_TEXT, G1_TEXT, ZERO_AT_1_2 + F2_TEXT, ZERO_AT_1_2 + G2_TEXT, COUPLE_RHS,
     "sums disagree at n = 1, {'r': 2, 's': 3}: 60 vs 0"),
    (ZERO_AT_1_2 + F1_TEXT, ZERO_AT_1_2 + G1_TEXT, ZERO_AT_1_2 + F2_TEXT,
     ZERO_AT_1_2 + G2_TEXT, COUPLE_RHS, "difference equation fails at n = 1, {'r': 2, 's': 3}"),
    ("2^k/n", "0", "3^k/n", "0", "0", "sums disagree at n = 1, {'r': 2, 's': 3}: 7 vs 4"),
], ids=["first-sign", "second-sign", "first-companion", "second-companion", "rhs-doubled",
        "sums", "difference-equation", "zero-companions"])
def test_boundary_couple_names_the_check_that_fails(f1, g1, f2, g2, rhs, message):
    """Each refusal in order.  2^k with companion -2^k telescopes under
    n w(n) - (n+1) w(n+1) but is -1 at k = 0; the sums and difference-equation
    rows pass every proof on terms, and only the direct sums see the values at
    n = 1 and 2.  Zero companions are equal boundary values, so 2^k/n and
    3^k/n reach the direct comparison, 7/n against 4/n."""
    binding = {"r": 2, "s": 3}
    with pytest.raises(VerificationError) as info:
        check_boundary_couple(parse_term(f1), parse_term(g1), "s", parse_term(f2),
                              parse_term(g2), "r", COUPLE_COEFFS, parse_term(rhs, binding),
                              binding, n_lo=1, n_hi=6)
    assert str(info.value) == message


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


def _direct_transform_failure(seqs, points, binom=math.comb):
    """The first (sequence name, n, m) where the direct double sum differs
    from the right side, sequences outermost; binom(t, j) for 0 <= j <= t."""
    for seq in seqs:
        a = seq.scaled
        for n, m in points:
            lhs = sum(binom(n, i) * binom(m, j) * a[i + j]
                      for i in range(n + 1) for j in range(m + 1))
            rhs = sum(binom(n + m, k) * a[k] for k in range(n + m + 1))
            if lhs != rhs:
                return seq.name, n, m
    return None


def _shared_transform_failure(seqs, points):
    failure = verify._transform_failure(seqs, points)
    return failure and (failure[0].name, failure[1], failure[2])


fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9))
transform_cases = st.tuples(
    st.lists(st.lists(fractions, min_size=13, max_size=13), min_size=1, max_size=4),
    st.one_of(
        st.integers(0, 12).map(lambda t: [(n, m) for n in range(t + 1) for m in range(t + 1 - n)]),
        st.tuples(st.integers(0, 6), st.integers(0, 6)).map(
            lambda nm: [(n, m) for n in range(nm[0] + 1) for m in range(nm[1] + 1)]),
    ),
)


@settings(max_examples=40, deadline=None)
@given(transform_cases)
def test_shared_transform_check_is_the_direct_double_sum(case):
    values, points = case
    seqs = [rational_sequence(f"s{i}", v) for i, v in enumerate(values)]
    assert _shared_transform_failure(seqs, points) is None
    assert _direct_transform_failure(seqs, points) is None


@settings(max_examples=60, deadline=None)
@given(transform_cases, st.integers(0, 12), st.integers(0, 12), st.integers(-3, 3).filter(bool))
def test_a_planted_wrong_binomial_fails_at_the_same_first_point(case, t, j, delta):
    """One entry binom(t, j) of Pascal's triangle is made wrong by delta, in
    the shared check's triangle and in the direct double sum alike: both
    report the same first failing (sequence, n, m), and so does
    check_binomial_transform point by point."""
    values, points = case
    seqs = [rational_sequence(f"s{i}", v) for i, v in enumerate(values)]
    j = min(j, t)
    real = verify._pascal

    def planted(top):
        rows = real(top)
        if t < len(rows):
            rows[t][j] += delta
        return rows

    def binom(a, b):
        return math.comb(a, b) + (delta if (a, b) == (t, j) else 0)

    want = _direct_transform_failure(seqs, points, binom)
    with mock.patch.object(verify, "_pascal", planted):
        assert _shared_transform_failure(seqs, points) == want
        for seq in seqs:
            for n, m in points:
                direct = _direct_transform_failure([seq], [(n, m)], binom)
                assert check_binomial_transform(seq, n, m) == (direct is None), (seq.name, n, m)


def _one_by_one(seqs, points):
    """What checking each sequence on its own reports first: a failing
    (name, n, m), the IndexError of a sequence too short, or None."""
    try:
        for seq in seqs:
            failure = _shared_transform_failure([seq], points)
            if failure:
                return failure
    except IndexError as exc:
        return str(exc)
    return None


def _packed_or_not(seqs, points):
    try:
        return _shared_transform_failure(seqs, points)
    except IndexError as exc:
        return str(exc)


big_fractions = st.builds(Fraction, st.integers(-2**200, 2**200), st.integers(1, 2**40))
uneven_cases = st.tuples(
    st.lists(st.lists(st.one_of(fractions, big_fractions), min_size=0, max_size=14),
             min_size=2, max_size=5),
    transform_cases.map(lambda case: case[1]),
)


@settings(max_examples=80, deadline=None)
@given(uneven_cases, st.integers(0, 12), st.integers(0, 12), st.integers(-3, 3))
def test_the_packed_pass_agrees_with_the_sequences_one_by_one(case, t, j, delta):
    """Large values, unequal lengths, and a Pascal triangle perhaps wrong in
    one entry: the packed pass decides as the sequences checked one at a
    time do, and proves them all only when each of them holds."""
    values, points = case
    seqs = [rational_sequence(f"s{i}", v) for i, v in enumerate(values)]
    j = min(j, t)
    real = verify._pascal

    def planted(top):
        rows = real(top)
        if t < len(rows):
            rows[t][j] += delta
        return rows

    with mock.patch.object(verify, "_pascal", planted):
        want = _one_by_one(seqs, points)
        assert _packed_or_not(seqs, points) == want
        rows = planted(max(max(n, m, n + m) for n, m in points))
    if verify._packed_transform_holds(seqs, points, rows):
        assert want is None


@pytest.mark.parametrize("bits", [0, 1, 2, 31, 32, 63, 64, 65, 200])
def test_the_packed_width_is_no_narrower_than_its_bound(bits):
    """The bound on a digit is met: with the rows [0] and [1], the point
    (1, 0) reads lhs 0 and rhs a_0, so a_0 = -2^bits and a_0 = 1 differ by
    2^bits and -1.  One bit narrower, the two digits would cancel and the
    packed pass would prove two failing sequences."""
    seqs = [rational_sequence("low", [-2**bits, 0]), rational_sequence("high", [1, 0])]
    with mock.patch.object(verify, "_pascal", lambda top: {0: [0], 1: [1]}):
        assert _shared_transform_failure(seqs, [(1, 0)]) == ("low", 1, 0)
        assert not verify._packed_transform_holds(seqs, [(1, 0)], {0: [0], 1: [1]})


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


def _direct_power_identity(n, m):
    """The power identity with both sides term by term, by binomial_value."""
    lhs = sum(binomial_value(n, i) * binomial_value(m, j) * binomial_value(i + j, n)
              for i in range(n + 1) for j in range(m + 1))
    return lhs == binomial_value(n + m, n) * Fraction(2) ** m


def test_shared_power_identity_is_the_direct_double_sum():
    # negative n or m included: both sums are empty and binom(n+m, n) decides
    points = [(n, m) for n in range(-5, 13) for m in range(-5, 13)]
    for n, m in points:
        assert check_transform_power_identity(n, m) == _direct_power_identity(n, m), (n, m)
    assert verify._power_failure([(n, m) for n, m in points if min(n, m) >= 0]) is None
    first = next(p for p in points if not _direct_power_identity(*p))
    assert verify._power_failure(points) == first == (0, -5)


def test_lower_triangle_identity():
    for n in range(12):
        assert check_lower_triangle_identity(n)


def _direct_lower_triangle(n, binom=binomial_value):
    lhs = sum(binom(n, i) * binom(n, j) * binom(i + j, n) for j in range(n + 1) for i in range(j))
    return lhs == sum(binom(n, i) * binom(n, j) ** 2 for j in range(n + 1) for i in range(j))


@pytest.mark.parametrize("t, j, delta", [(4, 2, 1), (7, 3, -2), (9, 5, 1), (13, 6, 3)])
def test_the_lower_triangle_check_finds_a_planted_wrong_binomial(t, j, delta):
    """On one Pascal triangle for all n, one entry binom(t, j) made wrong
    shows at the first n the direct double sum with that entry fails."""
    real = verify._pascal

    def planted(top):
        rows = real(top)
        if t < len(rows):
            rows[t][j] += delta
        return rows

    def binom(a, b):
        return binomial_value(a, b) + (delta if (a, b) == (t, j) else 0)

    ns = range(-2, 16)
    assert verify._lower_triangle_failure(ns) is None
    assert all(check_lower_triangle_identity(n) == _direct_lower_triangle(n) for n in ns)
    want = next((n for n in ns if not _direct_lower_triangle(n, binom)), None)
    assert want is not None
    with mock.patch.object(verify, "_pascal", planted):
        assert verify._lower_triangle_failure(ns) == want


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
