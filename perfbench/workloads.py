"""The three workloads: what each request is and how its answer is checked.

Every workload is a closed loop with one client: the next request is sent
only after the previous one returned.  A pass is the workload's full list of
requests; the seed fixes the list and its order.  Requests call telesum
through module attributes looked up at call time, so the layer wrappers of a
traced pass see them.  Import this module after telesum is importable.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracle
from oracle import C, fact
from telesum import cli, hyperterm, suite, zeilberger

KNOWN_DEFECT = "known defect"


@dataclass
class Item:
    """One request of a pass."""

    key: str  # unique within the pass; names the per-item row
    kind: str  # request class, for per-kind rows
    call: Callable[[], object]  # the timed request
    check: Callable[[object], str | None]  # None when the answer is right
    fact_key: str = ""  # identity of the work done, for the facts reference

    def __post_init__(self) -> None:
        self.fact_key = self.fact_key or self.key


@dataclass
class Workload:
    name: str
    min_passes: int  # passes every run completes, however short --seconds is
    pass_s: float  # scaled seconds of one pass at the reference speed
    build: Callable[[int], list[Item]]  # the pass for a seed
    pool: Callable[[], list[Item]]  # every item any seed can draw
    validate: Callable[[], list[str]] = field(default=lambda: [])  # reference self-checks

    def passes(self, seconds: float) -> int:
        """Passes in a run of `seconds`: fixed by the arguments, not by the
        clock, so the same command always attempts the same requests."""
        return max(self.min_passes, round(seconds / self.pass_s))


# ---------------------------------------------------------------------------
# ladder: creative telescoping on harder and harder summands

# Operators as coefficient lists of sigma_j(n), constant term first, in the
# normal form telesum prints (integer, content 1, positive top coefficient).
#   Franel: (n+2)^2 w(n+2) - (7n^2+21n+16) w(n+1) - 8(n+1)^2 w(n) = 0
FRANEL_OP = [[-8, -16, -8], [-16, -21, -7], [4, 4, 1]]
#   Apery: (n+2)^3 w(n+2) - (2n+3)(17n^2+51n+39) w(n+1) + (n+1)^3 w(n) = 0
APERY_OP = [[1, 3, 3, 1], [-117, -231, -153, -34], [8, 12, 6, 1]]
#   fourth powers: (n+2)^3 w(n+2) - 2(2n+3)(3n^2+9n+7) w(n+1)
#                  - 4(n+1)(4n+3)(4n+5) w(n) = 0
BINOM4_OP = [[-60, -188, -192, -64], [-42, -82, -54, -12], [8, 12, 6, 1]]

LADDER = (
    ("binom(n,k)^3", FRANEL_OP, oracle.franel, lambda n, k: C(n, k) ** 3),
    ("binom(n,k)^2*binom(2k,n)", FRANEL_OP, oracle.franel_strehl,
     lambda n, k: C(n, k) ** 2 * C(2 * k, n)),
    ("binom(n,k)^2*binom(n+k,k)^2", APERY_OP, oracle.apery,
     lambda n, k: C(n, k) ** 2 * C(n + k, k) ** 2),
    ("binom(n,k)^4", BINOM4_OP, lambda n: oracle.binom_power_sum(n, 4),
     lambda n, k: C(n, k) ** 4),
)
# Orders 1 and 2 have no telescoper for the fifth power; the order-3 search
# does not finish in minutes, so the ladder stops the search at order 2.
LADDER_REFUSAL = "binom(n,k)^5"
LADDER_MAX_ORDER = 2
_SUM_RANGE = range(0, 21)
_CERT_POINTS = [(n, k) for n in range(3, 8) for k in range(1, 7)]


def _ladder_item(text: str, op, sums, summand) -> Item:
    def call():
        term = hyperterm.parse_term(text)
        return zeilberger.creative_telescope(term)

    def check(cert) -> str | None:
        record = cert.record()
        sigma = [[int(c) for c in row] for row in record["sigma"]]
        if sigma != op:
            return f"operator {sigma} differs from the expected {op}"
        checked, bad = oracle.telescopes(summand, oracle.machine_ratfun(record["R"]), sigma,
                                         _CERT_POINTS)
        if bad or checked < 3:
            return bad or "certificate could not be checked at enough points"
        return None

    return Item(text, "zeil", call, check)


def _ladder_refusal_item() -> Item:
    def call():
        term = hyperterm.parse_term(LADDER_REFUSAL)
        try:
            zeilberger.creative_telescope(term, max_order=LADDER_MAX_ORDER)
        except zeilberger.NoRecurrenceFound as exc:
            return exc
        return None

    def check(result) -> str | None:
        if not isinstance(result, zeilberger.NoRecurrenceFound):
            return f"expected NoRecurrenceFound up to order {LADDER_MAX_ORDER}, got {result!r}"
        return None

    return Item(f"{LADDER_REFUSAL} max_order={LADDER_MAX_ORDER}", "zeil-refusal", call, check)


def _ladder_pool() -> list[Item]:
    return [_ladder_item(*row) for row in LADDER] + [_ladder_refusal_item()]


def _ladder_build(seed: int) -> list[Item]:
    items = _ladder_pool()
    random.Random(seed).shuffle(items)
    return items


def _ladder_validate() -> list[str]:
    """The expected operators annihilate the sums computed with math.comb."""
    problems = []
    for text, op, sums, _ in LADDER:
        bad = [n for n in _SUM_RANGE if oracle.apply_operator(op, sums, n)]
        if bad:
            problems.append(f"reference operator for {text} fails at n = {bad[0]}")
    if any(oracle.franel(n) != oracle.franel_strehl(n) for n in _SUM_RANGE):
        problems.append("Franel sums disagree")
    return problems


# ---------------------------------------------------------------------------
# suite: the bundled identity suite and the mutation catalog, case by case


def _suite_pool() -> list[Item]:
    cases = [(c, True) for c in suite.bundled_suite()["cases"]]
    cases += [(c, False) for c in suite.mutation_catalog()]
    items = []
    for case, want in cases:
        def call(case=case):
            return suite.run_case(case)

        def check(result, want=want) -> str | None:
            if result.ok != want:
                verdict = "PASS" if want else "FAIL"
                return f"expected {verdict}, got ok={result.ok} {result.detail}".rstrip()
            return None

        items.append(Item(case["id"], "bundled" if want else "mutation", call, check))
    return items


def _suite_build(seed: int) -> list[Item]:
    items = _suite_pool()
    random.Random(seed).shuffle(items)
    return items


def _suite_validate() -> list[str]:
    """The bundled identities that the suite must PASS hold by math.comb."""
    problems = []
    if any(oracle.sum_11897(n) != oracle.closed_11897(n) for n in range(41)):
        problems.append("11897 sums differ from 2*binom(2n+2,n)")
    for n in range(41):
        a = sum(C(2 * n, k) * C(2 * n + 1, k) for k in range(n + 1))
        if 2 * a != C(4 * n + 1, 2 * n) + C(2 * n, n) ** 2:
            problems.append(f"11899 identity fails at n = {n}")
            break
    for n in range(1, 13):
        for r in range(1, 13):
            for s in range(1, 13):
                left = sum(C(n + r, n) * C(r + k, r - 1) * C(n + k, n) for k in range(s))
                right = sum(C(n + s, n) * C(s + k, s - 1) * C(n + k, n) for k in range(r))
                if left != right:
                    problems.append(f"11916 identity fails at n={n}, r={r}, s={s}")
                    return problems
    if any(oracle.franel(n) != oracle.franel_strehl(n) for n in range(21)):
        problems.append("binom(n,k)^3 and binom(n,k)^2*binom(2k,n) sums differ")
    return problems


# ---------------------------------------------------------------------------
# certify: a seeded stream of short CLI requests, run in-process


def _cli(argv: list[str]):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    return call


def _status(result, want_code: int) -> tuple[str | None, list[str]]:
    code, out, err = result
    if code != want_code:
        tail = (err or out).strip().splitlines()[-1:] or [""]
        return f"exit {code}, expected {want_code}: {tail[0][:160]}", []
    return None, out.strip().splitlines()


def _machine(lines: list[str]) -> list[dict]:
    return [json.loads(line) for line in lines]


# Gosper-summable terms with an independent evaluator F(n, k, params).
GOSPER_SUMMABLE = (
    ("k*fact(k)", lambda n, k, p: k * fact(k)),
    ("binom(2k,k)*binom(2n-2k+2,n-k+1)/(k+1)",
     lambda n, k, p: Fraction(C(2 * k, k) * C(2 * n - 2 * k + 2, n - k + 1), k + 1)),
    ("(n-2k)*binom(n,k)", lambda n, k, p: (n - 2 * k) * C(n, k)),
    ("(2k+1)", lambda n, k, p: 2 * k + 1),
    ("k^3", lambda n, k, p: k**3),
    ("2^k*(k+1)", lambda n, k, p: 2**k * (k + 1)),
    ("binom(k,m)", lambda n, k, p: C(k, p["m"])),
    ("binom(n+k,k)", lambda n, k, p: C(n + k, k)),
    ("1/(k(k+1))", lambda n, k, p: Fraction(1, k * (k + 1))),
    ("binom(r+k,k)", lambda n, k, p: C(p["r"] + k, k)),
    ("k*2^k", lambda n, k, p: k * 2**k),
    ("3^k*(2k+3)", lambda n, k, p: 3**k * (2 * k + 3)),
    ("(-1)*binom(n,k)*(n-2k)", lambda n, k, p: -C(n, k) * (n - 2 * k)),
)
GOSPER_REFUSED = ("binom(n,k)", "fact(k)", "1/k", "2^k/k", "binom(n,k)^2", "binom(2k,k)",
                  "k*binom(n,k)")
# Definite sums with an easy telescoper: (term, minimal order, summand F).
ZEIL_EASY = (
    ("binom(n,k)", 1, lambda n, k, p: C(n, k)),
    ("binom(n,k)^2", 1, lambda n, k, p: C(n, k) ** 2),
    ("binom(n,k)*binom(r,k)", 1, lambda n, k, p: C(n, k) * C(p["r"], k)),
    ("2^k*binom(n,k)", 1, lambda n, k, p: 2**k * C(n, k)),
    ("binom(n,k)*binom(r,n-k)", 1, lambda n, k, p: C(n, k) * C(p["r"], n - k)),
    ("binom(n-k,k)", 2, lambda n, k, p: C(n - k, k)),
    ("binom(n,k)*binom(n+k,k)", 2, lambda n, k, p: C(n, k) * C(n + k, k)),
    ("binom(n,k)*binom(2k,k)", 2, lambda n, k, p: C(n, k) * C(2 * k, k)),
    ("binom(n+k,2k)", 2, lambda n, k, p: C(n + k, 2 * k)),
)
PARAM_RANGE = range(2, 14)  # values drawn for --param r; r >= 2 leaves interior points to check
M_RANGE = range(1, 5)  # values drawn for --param m
# The 11916 telescoping pair, and variants of it that are false.
F_11916 = "binom(n+r,n)binom(r+k,r-1)binom(n+k,n)"
G_11916 = "(-1)binom(n+r,n)binom(r+k,r-1)binom(n+k,n)*k(k+1)/(n+1)"
WZ_VARIANTS = (
    ("true", G_11916, ("n", "-n-1"), 1),
    ("coeff", G_11916, ("n", "-n"), 1),
    ("scaled", G_11916.replace("(-1)", "(-2)", 1), ("n", "-n-1"), 2),
    ("shifted", G_11916, ("n+1", "-n-1"), 1),
)
# Series slots: (name, family index or None, nominal orders).
SERIES_SLOTS = (
    ("catalan", None, (64, 128, 192, 256)),
    ("central", None, (48, 96, 144, 192)),
    ("shifted-central", None, (40, 80, 128)),
    ("ballot", "draw", (24, 48, 72, 96, 96)),
)
_GOSPER_POINTS = [(n, k) for n in (9, 12) for k in range(1, 9)]
_ZEIL_POINTS = [(n, k) for n in range(3, 8) for k in range(0, 7)]


def _params_used(term: str) -> list[str]:
    """Auxiliary parameters of a term: single letters other than n and k."""
    return sorted({w for w in re.findall(r"[a-z]+", term) if len(w) == 1 and w not in "nk"})


def _gosper_item(text, F, params, machine) -> Item:
    argv = ["gosper", text] + _param_args(params) + (["--machine"] if machine else [])
    used = {v: params[v] for v in _params_used(text)}

    def check(result) -> str | None:
        bad, lines = _status(result, 0)
        if bad:
            return bad
        if machine:
            R = oracle.machine_ratfun(_machine(lines)[0]["R"])
        else:
            if not lines or not lines[-1].startswith("R(n,k) = "):
                return f"no certificate line in {lines!r}"
            R = oracle.text_ratfun(lines[-1][len("R(n,k) = "):])
        checked, bad = oracle.telescopes(lambda n, k: F(n, k, used), R, [], _GOSPER_POINTS)
        if bad or checked < 3:
            return bad or "certificate could not be checked at enough points"
        return None

    return Item(" ".join(argv), "gosper", _cli(argv), check, _fact_key("gosper", text, used))


def _refusal_item(text, params, machine) -> Item:
    argv = ["gosper", text] + _param_args(params) + (["--machine"] if machine else [])

    def check(result) -> str | None:
        bad, lines = _status(result, 2)
        if bad:
            return bad
        if machine:
            rec = _machine(lines)[0]
            ok = rec.get("status") == "not_summable" and rec.get("reason")
        else:
            ok = lines and lines[0].startswith("not summable: ") and len(lines[0]) > 14
        return None if ok else f"refusal without a reason: {lines!r}"

    return Item(" ".join(argv), "gosper-refusal", _cli(argv), check,
                _fact_key("gosper", text, {}))


def _zeil_item(text, order, F, params, machine) -> Item:
    argv = ["zeil", text] + _param_args(params) + (["--machine"] if machine else [])
    used = {v: params[v] for v in _params_used(text)}

    def summand(n, k):
        return F(n, k, used)

    def total(n):
        return sum(summand(n, k) for k in range(0, 2 * n + used.get("r", 0) + 2))

    def check(result) -> str | None:
        bad, lines = _status(result, 0)
        if bad:
            return bad
        if machine:
            rec = _machine(lines)[0]
            sigma = [[int(c) for c in row] for row in rec["sigma"]]
            R = oracle.machine_ratfun(rec["R"])
        else:
            if len(lines) != 2 or not lines[1].startswith("R(n,k) = "):
                return f"unexpected output {lines!r}"
            sigma = oracle.text_operator(lines[0])
            R = oracle.text_ratfun(lines[1][len("R(n,k) = "):])
        if len(sigma) - 1 != order:
            return f"order {len(sigma) - 1}, expected the minimal order {order}"
        if not any(sigma[-1]):
            return "top coefficient is zero"
        wrong = [n for n in range(13) if oracle.apply_operator(sigma, total, n)]
        if wrong:
            return f"operator does not annihilate the sums at n = {wrong[0]}"
        checked, bad = oracle.telescopes(summand, R, sigma, _ZEIL_POINTS)
        if bad or checked < 3:
            return bad or "certificate could not be checked at enough points"
        return None

    return Item(" ".join(argv), "zeil", _cli(argv), check, _fact_key("zeil", text, used))


def _wz_holds(g_scale: int, coeffs: tuple[str, str], r: int) -> bool:
    """Whether n-polynomial coefficients and companion telescope the 11916
    summand, decided pointwise with math.comb."""
    def f(n, k):
        return C(n + r, n) * C(r + k, r - 1) * C(n + k, n)

    def g(n, k):
        return Fraction(-g_scale * f(n, k) * k * (k + 1), n + 1)

    c0, c1 = (oracle.text_ratfun(c) for c in coeffs)
    return all(
        c0(n, 0) * f(n, k) + c1(n, 0) * f(n + 1, k) == g(n, k + 1) - g(n, k)
        for n in range(0, 6) for k in range(0, 6)
    )


def _wz_item(variant, r, machine) -> Item:
    name, g_text, coeffs, g_scale = variant
    argv = ["wz-check", F_11916, g_text] + [f"--coeff={c}" for c in coeffs]
    argv += ["--param", f"r={r}"] + (["--machine"] if machine else [])
    holds = _wz_holds(g_scale, coeffs, r)

    def check(result) -> str | None:
        bad, lines = _status(result, 0 if holds else 4)
        if bad:
            return bad
        if machine:
            ok = _machine(lines)[0].get("status") == ("ok" if holds else "fail")
        else:
            ok = lines == ["WZ pair verified"] if holds else (
                len(lines) == 1 and lines[0].startswith("WZ check failed"))
        return None if ok else f"unexpected verdict {lines!r}"

    return Item(" ".join(argv), "wz-check", _cli(argv), check, f"wz-check {name} r={r}")


def _series_item(name, index, order, machine) -> Item:
    argv = ["series", name, "--order", str(order)]
    if index is not None:
        argv += ["--family-index", str(index)]
    argv += ["--machine"] if machine else []

    def check(result) -> str | None:
        bad, lines = _status(result, 0)
        if bad:
            return bad
        if machine:
            got = [(int(r["index"]), Fraction(r["value"])) for r in _machine(lines)]
        else:
            got = [(int(a), Fraction(b)) for a, b in (line.split(": ") for line in lines)]
        want = [(i, oracle.series_coefficient(name, index, i)) for i in range(order + 1)]
        if got != want:
            first = next((w for g, w in zip(got, want) if g != w), None)
            return f"coefficients differ from the closed form (first at {first})"
        return None

    return Item(" ".join(argv), "series", _cli(argv), check)


# Sum slots: (label, term, bounds or None for natural support, reference S(n, params)).
SUM_KINDS = {
    "strehl-natural": ("binom(n,k)^2*binom(2k,n)", None, lambda n, p: oracle.franel_strehl(n)),
    "franel-natural": ("binom(n,k)^3", None, lambda n, p: oracle.franel(n)),
    "11897": ("binom(2k,k)*binom(2n-2k+2,n-k+1)/(k+1)", ("0", "n"),
              lambda n, p: oracle.closed_11897(n)),
    "apery": ("binom(n,k)^2*binom(n+k,k)^2", ("0", "n"), lambda n, p: oracle.apery(n)),
    "binom4": ("binom(n,k)^4", ("0", "n"), lambda n, p: oracle.binom_power_sum(n, 4)),
    "vandermonde": ("binom(n,k)*binom(r,k)", ("0", "r"), lambda n, p: C(n + p["r"], n)),
}
# (kind, count per pass, lowest first n, highest first n); a request sums
# from its first n to 1-3 more.  The natural-support Strehl sums reach
# n >= 33, where the summand's support starts past k = 16: three slots per
# pass start there and three end below it, so every pass meets the defect
# the same number of times whatever the seed.
SUM_SLOTS = (
    ("strehl-natural", 3, 24, 29),
    ("strehl-natural", 3, 33, 36),
    ("franel-natural", 4, 0, 28),
    ("11897", 5, 0, 36),
    ("apery", 4, 0, 24),
    ("binom4", 4, 0, 24),
    ("vandermonde", 2, 0, 24),
)


def _sum_item(kind, lo, hi, params, machine) -> Item:
    text, bounds, ref = SUM_KINDS[kind]
    argv = ["sum", text, "--n", str(lo), str(hi)]
    if bounds:
        argv += ["--from", bounds[0], "--to", bounds[1]]
    argv += _param_args(params) + (["--machine"] if machine else [])

    def check(result) -> str | None:
        bad, lines = _status(result, 0)
        if bad:
            return bad
        if machine:
            got = [(int(r["n"]), Fraction(r["value"])) for r in _machine(lines)]
        else:
            got = [(int(a), Fraction(b)) for a, b in (line.split(": ") for line in lines)]
        want = [(n, Fraction(ref(n, params))) for n in range(lo, hi + 1)]
        wrong = [(w, g) for g, w in zip(got, want) if g != w]
        if len(got) != len(want):
            return f"{len(got)} rows, expected {len(want)}"
        if not wrong:
            return None
        if kind == "strehl-natural" and all(g[1] == 0 and w[0] >= 33 for w, g in wrong):
            # natural_sum stops scanning after 16 zero terms in a row, so a
            # summand whose support starts past k = 16 sums to 0.
            return f"{KNOWN_DEFECT}: natural-support sum printed 0 for n >= 33"
        (n, want_v), (_, got_v) = wrong[0]
        return f"sum at n = {n} is {got_v}, expected {want_v}"

    return Item(" ".join(argv), "sum-natural" if bounds is None else "sum", _cli(argv), check)


def _param_args(params: dict) -> list[str]:
    out = []
    for name, value in sorted(params.items()):
        out += ["--param", f"{name}={value}"]
    return out


def _fact_key(kind: str, text: str, used: dict) -> str:
    return " ".join([kind, text] + [f"{k}={v}" for k, v in sorted(used.items())])


def _certify_build(seed: int) -> list[Item]:
    """About a hundred distinct requests.  Every pass has the same slots, so
    its cost barely depends on the seed; the seed draws parameters, ranges,
    output mode and order."""
    rng = random.Random(seed)
    items: list[Item] = []
    seen: set[str] = set()

    def add(make):
        for _ in range(100):
            item = make()
            if item.key not in seen:
                seen.add(item.key)
                items.append(item)
                return
        raise RuntimeError("could not draw a distinct request")

    def params():
        return {"m": rng.choice(M_RANGE), "r": rng.choice(PARAM_RANGE)}

    def mode():
        return rng.random() < 0.5

    for text, F in GOSPER_SUMMABLE:
        add(lambda: _gosper_item(text, F, params(), mode()))
    for text in GOSPER_REFUSED:
        add(lambda: _refusal_item(text, {}, mode()))
    for text, order, F in ZEIL_EASY:
        for _ in range(3 if _params_used(text) else 2):
            add(lambda: _zeil_item(text, order, F, {"r": rng.choice(PARAM_RANGE)}, mode()))
    rs = rng.sample(range(1, 15), 12)
    for r in rs:
        add(lambda: _wz_item(WZ_VARIANTS[0], r, mode()))
    for variant in WZ_VARIANTS[1:]:
        add(lambda: _wz_item(variant, rng.randint(1, 14), mode()))
    for name, index, orders in SERIES_SLOTS:
        indices = rng.sample(range(6), len(orders)) if index == "draw" else [None] * len(orders)
        for order, idx in zip(orders, indices):
            add(lambda: _series_item(name, idx, order - rng.randint(0, 7), mode()))
    for kind, count, lo_min, lo_max in SUM_SLOTS:
        for _ in range(count):
            def make():
                lo = rng.randint(lo_min, lo_max)
                p = {v: rng.choice(PARAM_RANGE) for v in _params_used(SUM_KINDS[kind][0])}
                return _sum_item(kind, lo, lo + rng.randint(1, 3), p, mode())
            add(make)
    rng.shuffle(items)
    return items


def _certify_pool() -> list[Item]:
    """One item per distinct piece of solver work a certify pass can draw."""
    items = []
    for text, F in GOSPER_SUMMABLE:
        values = {"m": M_RANGE, "r": PARAM_RANGE}.get("".join(_params_used(text)), [1])
        for v in values:
            items.append(_gosper_item(text, F, {"m": v, "r": v}, True))
    items += [_refusal_item(text, {}, True) for text in GOSPER_REFUSED]
    for text, order, F in ZEIL_EASY:
        for v in PARAM_RANGE if _params_used(text) else [1]:
            items.append(_zeil_item(text, order, F, {"r": v}, True))
    return items


WORKLOADS = {
    "ladder": Workload("ladder", 1, 18.0, _ladder_build, _ladder_pool, _ladder_validate),
    "suite": Workload("suite", 2, 11.0, _suite_build, _suite_pool, _suite_validate),
    "certify": Workload("certify", 1, 5.0, _certify_build, _certify_pool),
}
