"""Command-line interface: exit codes, diagnostics, machine output."""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from telesum import cli
from telesum.cli import MAX_SERIES_ORDER, main
from telesum.hyperterm import parse_linear_form, parse_term, shift_quotient
from telesum.suite import mutation_catalog

from qn_tower import record_value, to_tower

CRUX = "binom(n,k)^3"
SUMMAND_11897 = "binom(2k,k)*binom(2n-2k+2,n-k+1)/(k+1)"
F_11916 = "binom(n+r,n)binom(r+k,r-1)binom(n+k,n)"
G_11916 = "(-1)binom(n+r,n)binom(r+k,r-1)binom(n+k,n)*k(k+1)/(n+1)"


def _machine_lines(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.strip().splitlines()]


def _is_gosper_certificate(certificate, ratio) -> bool:
    """R(k+1) * r - R = 1, computed in the tower."""
    big_r = to_tower(certificate)
    return (big_r.shift(1) * to_tower(ratio) - big_r).is_one()


def test_gosper_summable_exit_zero(capsys):
    assert main(["gosper", "k*fact(k)"]) == 0
    out = capsys.readouterr().out
    assert "summable" in out
    assert "R(n,k)" in out


def test_gosper_not_summable_exit_two(capsys):
    assert main(["gosper", "binom(n,k)"]) == 2
    assert "not summable" in capsys.readouterr().out


def test_gosper_machine_record_round_trip(capsys):
    assert main(["gosper", "--machine", "k*fact(k)"]) == 0
    (rec,) = _machine_lines(capsys)
    assert rec["status"] == "ok"
    r = shift_quotient(parse_term("k*fact(k)"), "k")
    assert _is_gosper_certificate(record_value(rec["R"]), r)


@pytest.mark.parametrize("command, term", [("gosper", "k*fact(k)"), ("zeil", "binom(n,k)^2")])
def test_each_output_mode_builds_only_its_own_side(command, term, monkeypatch):
    from telesum.gosper import GosperCertificate
    from telesum.zeilberger import TelescopingCertificate

    cls = GosperCertificate if command == "gosper" else TelescopingCertificate
    built = []
    for side in ("record", "text"):
        real = getattr(cls, side)
        monkeypatch.setattr(cls, side, lambda self, s=side, f=real: built.append(s) or f(self))
    assert main([command, term]) == 0
    assert main([command, "--machine", term]) == 0
    assert built == ["text", "record"]


def test_parse_error_exit_one_with_caret(capsys):
    assert main(["gosper", "binom(n,k"]) == 1
    err = capsys.readouterr().err
    assert "parse error" in err
    assert "^" in err
    caret_line = err.splitlines()[-1]
    assert caret_line.index("^") == 2 + len("binom(n,k")


@pytest.mark.parametrize("coeff, message", [
    ("n+", "expected a polynomial (at position 2)"),
    ("n/x", "may divide only by a nonzero integer (at position 2)"),
])
def test_coeff_parse_error_points_into_the_text_as_typed(coeff, message, capsys):
    assert main(["wz-check", "binom(n,k)", "binom(n,k)", "--coeff", coeff]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"parse error: {message}", f"  {coeff}", "    ^"]


def test_unbound_parameter_exit_one(capsys):
    assert main(["gosper", "binom(n+r,k)"]) == 1
    assert "--param" in capsys.readouterr().err


def test_bad_param_syntax_exit_one(capsys):
    assert main(["gosper", "--param", "r=x", "binom(n,k)"]) == 1
    assert "NAME=INT" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gosper", "binom(k,m)"], ["zeil", "binom(n,k)*binom(m,k)"],
    ["wz-check", "binom(n,k)*m", "binom(n,k)", "--coeff=2", "--coeff=-1"],
    ["sum", "binom(n,k)*m", "--n", "0", "2"],
])
@pytest.mark.parametrize("values", [("1", "2"), ("2", "2")])
def test_repeated_param_name_exit_one(argv, values, capsys):
    assert main([*argv, *(arg for v in values for arg in ("--param", f"m={v}"))]) == 1
    captured = capsys.readouterr()
    assert captured.err == "usage error: parameter m is bound more than once\n"
    assert captured.out == ""


def test_single_param_binds_the_certificate(capsys):
    assert main(["gosper", "binom(k,m)", "--param", "m=2"]) == 0
    assert "R(n,k) = (k-2) / (3)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["series", "catalan"], ["suite", "paper.suite"]])
def test_param_is_not_an_option_of_series_or_suite(argv, capsys):
    assert main(argv + ["--param", "r=2"]) == 1
    assert "unrecognized arguments: --param r=2" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["r=--5", "r=²"])
def test_param_value_that_int_rejects_exit_one(value, capsys):
    # str.isdigit() accepts both values; int() does not.
    assert main(["zeil", "binom(n,k)*binom(r,k)", "--param", value]) == 1
    assert f"--param expects NAME=INT, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["r=+5", "r=1_0", "r= 5", "r=5 ", "r=\u0663"])
def test_param_value_outside_the_integer_syntax_exit_one(value, capsys):
    assert main(["zeil", "binom(n,k)*binom(r,k)", "--param", value]) == 1
    assert capsys.readouterr().err == f"usage error: --param expects NAME=INT, got {value!r}\n"


# Every integer flag reads the syntax of --param values: an optional '-',
# then ASCII digits.  int() would take each of these.
@pytest.mark.parametrize("argv, flag, text", [
    (["series", "catalan", "--order", "1_0"], "--order", "1_0"),
    (["series", "catalan", "--order", " 5"], "--order", " 5"),
    (["series", "catalan", "--order", "\u0663"], "--order", "\u0663"),
    (["series", "ballot", "--family-index", "+5"], "--family-index", "+5"),
    (["zeil", "binom(n,k)", "--jmax", "0_1"], "--jmax", "0_1"),
    (["sum", "binom(n,k)", "--n", "0", "+2"], "--n", "+2"),
    (["sum", "binom(n,k)", "--n", "1_0", "12"], "--n", "1_0"),
], ids=["order-underscore", "order-space", "order-arabic-indic", "family-index-plus",
        "jmax-underscore", "n-plus", "n-underscore"])
def test_integer_flags_take_only_sign_and_ascii_digits(argv, flag, text, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: argument {flag}: expected an integer, got {text!r}\n"
    assert captured.out == ""


def test_integer_flags_take_leading_zeros_and_a_minus(capsys):
    assert main(["series", "ballot", "--order", "002", "--family-index", "01"]) == 0
    assert capsys.readouterr().out == "0: 1\n1: 3\n2: 10\n"
    assert main(["sum", "binom(n,k)", "--n", "-0", "01"]) == 0
    assert capsys.readouterr().out == "0: 1\n1: 2\n"


def test_zeil_exit_zero_prints_operator(capsys):
    assert main(["zeil", CRUX]) == 0
    out = capsys.readouterr().out
    assert "w(n+2)" in out


def test_zeil_exhausted_exit_three(capsys):
    assert main(["zeil", CRUX, "--jmax", "1"]) == 3
    assert "no recurrence" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["gosper", "0"], ["zeil", "0*binom(n,k)"]])
def test_zero_summand_exit_one(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "usage error: the summand is identically zero\n"
    assert captured.out == ""


@pytest.mark.parametrize("jmax", ["0", "-1"])
def test_zeil_jmax_below_one_exit_one(jmax, capsys):
    assert main(["zeil", "binom(n,k)", "--jmax", jmax]) == 1
    captured = capsys.readouterr()
    assert "--jmax must be >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    [SUMMAND_11897], ["(-1)^k*binom(n,k)"], [F_11916, "--param", "r=3"], ["(n-2k)*binom(n,k)"],
])
def test_zeil_refuses_an_order_zero_result_as_gosper_summable(argv, capsys):
    """An order-0 certificate says F itself telescopes: its sums are the
    boundary terms of G = R*F, not 0, so no recurrence is printed."""
    assert main(["zeil", *argv]) == 3
    first, r_line = capsys.readouterr().out.splitlines()
    assert first == ("no recurrence: the summand is Gosper-summable; its sum over k = lo..hi"
                     " is G(n,hi+1) - G(n,lo) with G = R(n,k)*F(n,k)")
    assert main(["zeil", "--machine", *argv]) == 3
    (rec,) = _machine_lines(capsys)
    assert list(rec) == ["status", "R"] and rec["status"] == "gosper_summable"
    big_r = record_value(rec["R"])
    assert r_line == f"R(n,k) = {big_r}"
    r = shift_quotient(parse_term(argv[0], {"r": 3}), "k")
    assert _is_gosper_certificate(big_r, r)


def test_zeil_machine_matches_plain_run(capsys):
    assert main(["zeil", "--machine", "binom(n,k)"]) == 0
    (rec,) = _machine_lines(capsys)
    assert rec["status"] == "ok"
    assert rec["order"] == "1"


@pytest.mark.xfail(strict=True, reason="fact(-k) in a numerator is read as 0 at k > 0, where "
                   "Gamma has a pole (ROADMAP item 12)")
def test_zeil_on_a_numerator_factorial_at_negative_k_refuses_or_holds(capsys):
    # every natural sum of fact(-k)*binom(n,k) is 1, which the printed
    # (n+1)*w(n) + (-2*n-1)*w(n+1) + (n+1)*w(n+2) = 0 does not satisfy
    term = "fact(-k)*binom(n,k)"
    code = main(["zeil", "--machine", term])
    records = _machine_lines(capsys)
    if code != 0:
        return
    assert main(["sum", "--machine", term, "--n", "0", "8"]) == 0
    w = [Fraction(r["value"]) for r in _machine_lines(capsys)]
    sigma = [[int(c) for c in row] for row in records[0]["sigma"]]
    for n in range(7):
        assert sum(sum(c * n**i for i, c in enumerate(row)) * w[n + j]
                   for j, row in enumerate(sigma)) == 0, n


def test_wz_check_true_pair_exit_zero(capsys):
    code = main(
        [
            "wz-check",
            F_11916,
            G_11916,
            "--coeff=n",
            "--coeff=-n-1",
            "--param",
            "r=2",
        ]
    )
    assert code == 0
    assert "verified" in capsys.readouterr().out


def test_wz_check_false_pair_exit_four(capsys):
    code = main(
        ["wz-check", "binom(n,k)", "binom(n,k)", "--coeff=n", "--coeff=-n-1"]
    )
    assert code == 4
    assert "failed" in capsys.readouterr().out


@pytest.mark.parametrize("f_term, g_term", [("0", "0"), ("0*binom(n,k)", "binom(n,k)")])
def test_wz_check_zero_f_exit_one(f_term, g_term, capsys):
    assert main(["wz-check", f_term, g_term, "--coeff", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "usage error: F is identically zero\n"
    assert captured.out == ""


@pytest.mark.parametrize("g_term", ["0", "(0)*2^n"])
@pytest.mark.parametrize("coeffs, code, out", [
    ("-2", 0, "WZ pair verified\n"),
    ("-3", 4, "WZ check failed: telescoping identity does not hold\n"),
])
def test_wz_check_zero_companion_is_zero_times_f(g_term, coeffs, code, out, capsys):
    # G = 0 is 0 * F however it is spelled: -2 F(n) + F(n+1) = 0 for F = 2^n
    assert main(["wz-check", "2^n", g_term, f"--coeff={coeffs}", "--coeff=1"]) == code
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("coeff, code", [("(n+2)/2", 0), ("n/2+1", 0), ("(n+2)/3", 4)])
def test_wz_check_reads_a_coefficient_over_an_integer(coeff, code, capsys):
    # (-n-1) F(n) + (n+2)/2 F(n+1) telescopes for F = binom(n,k)/(n+1)
    argv = ["wz-check", "binom(n,k)/(n+1)", "binom(n,k)*k/(2*(k-n-1))", "--coeff=-n-1"]
    assert main(argv + [f"--coeff={coeff}"]) == code
    assert capsys.readouterr().out.startswith("WZ pair verified" if code == 0 else "WZ check failed")


@pytest.mark.parametrize("coeff", ["n/(n+1)", "(n+2)/k", "n/0", "n/-2"])
def test_wz_check_refuses_a_divisor_that_is_not_a_nonzero_integer(coeff, capsys):
    assert main(["wz-check", "2^n", "0", "--coeff=-2", f"--coeff={coeff}"]) == 1
    captured = capsys.readouterr()
    assert "may divide only by a nonzero integer" in captured.err and captured.out == ""


LARGE = 10**18 + 9


@pytest.mark.parametrize("argv, code, first_line", [
    (["gosper", f"binom(n,k)*(k^2+{LARGE})"], 2,
     f"not summable: no polynomial solution up to degree 1 for binom(n,k)*(k^2+{LARGE})"),
    (["zeil", f"binom(n,k)*(k^2+{LARGE})"], 0,
     "(-2*n^2-6*n-8000000000000000076)*w(n) + (n^2+n+4000000000000000036)*w(n+1) = 0"),
])
def test_large_integer_in_the_term_answers_quickly(argv, code, first_line, capsys):
    # the dispersion's integer roots are found without factoring 10^18 + 9
    start = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out.splitlines()[0] == first_line


def test_zeil_fifth_power_at_order_3(capsys):
    assert main(["zeil", "binom(n,k)^5", "--jmax", "3"]) == 0
    assert "w(n+3) = 0" in capsys.readouterr().out.splitlines()[0]


def test_wz_check_k_coefficient_rejected(capsys):
    code = main(["wz-check", "binom(n,k)", "binom(n,k)", "--coeff=k"])
    assert code == 1
    assert "may not involve k" in capsys.readouterr().err


@pytest.mark.parametrize("coeff", ["r", "r*n+1"])
def test_wz_check_unbound_parameter_names_the_coefficient(coeff, capsys):
    assert main(["wz-check", "binom(n,k)", "binom(n,k)", f"--coeff={coeff}", "--coeff=1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"usage error: parameter 'r' in the operator coefficient {coeff!r} needs a concrete "
        "binding (use --param NAME=INT)\n")


def test_sum_explicit_range(capsys):
    code = main(["sum", "binom(n,k)", "--n", "0", "4", "--from", "0", "--to", "n"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["0: 1", "1: 2", "2: 4", "3: 8", "4: 16"]


def test_sum_natural_range_machine(capsys):
    assert main(["sum", "--machine", "binom(n,k)^2", "--n", "3", "3"]) == 0
    (rec,) = _machine_lines(capsys)
    assert rec == {"n": "3", "value": "20"}


def test_sum_natural_support_beyond_k_16(capsys):
    assert main(["sum", "binom(n,k)^2*binom(2k,n)", "--n", "32", "34"]) == 0
    natural = capsys.readouterr().out
    args = ["sum", "binom(n,k)^2*binom(2k,n)", "--n", "32", "34", "--from", "0", "--to", "n"]
    assert main(args) == 0
    assert natural == capsys.readouterr().out
    assert "33: 6988453515115800846190860404" in natural


def test_sum_half_open_bounds_rejected(capsys):
    code = main(["sum", "binom(n,k)", "--n", "0", "2", "--from", "0"])
    assert code == 1
    assert "together" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, err", [
    (["sum", "binom(-1,k)", "--n", "0", "1"], cli.EXIT_SEARCH_EXHAUSTED,
     "search bound exhausted: the factors leave the support in k unbounded at n = 0; "
     "no natural support edge found\n"),
    (["sum", "1/(k-1)", "--n", "0", "0", "--from", "0", "--to", "2"], cli.EXIT_VERIFICATION,
     "verification failure: prefactor denominator vanishes at (n, k) = (0, 1)\n"),
], ids=["unbounded-support", "pole"])
def test_sum_refusals_exit_through_their_handlers(argv, code, err, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == err


def test_series_catalan(capsys):
    assert main(["series", "catalan", "--order", "6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[:4] == ["0: 1", "1: 1", "2: 2", "3: 5"]
    assert lines[6] == "6: 132"


def test_series_unknown_name_exit_one(capsys):
    assert main(["series", "no-such-series"]) == 1
    assert "no-such-series" in capsys.readouterr().err
    assert main(["series", "foo"]) == 1
    assert capsys.readouterr().err == (
        "usage error: unknown series 'foo'; known: catalan, central, shifted-central, ballot\n")


def test_a_key_error_from_a_solver_is_not_a_usage_error(monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("a fault inside the solver")

    monkeypatch.setattr(cli, "creative_telescope", broken)
    with pytest.raises(KeyError, match="a fault inside the solver"):
        main(["zeil", "binom(n,k)"])


@pytest.mark.parametrize("name", ["catalan", "central", "shifted-central", "ballot"])
def test_series_negative_order_exit_one(name, capsys):
    assert main(["series", name, "--order", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "usage error: --order must be >= 0, got -1\n"
    assert captured.out == ""


@pytest.mark.parametrize("name", ["catalan", "central", "shifted-central", "ballot"])
@pytest.mark.parametrize("order", [str(MAX_SERIES_ORDER + 1), "99999999999999999999"])
def test_series_order_above_the_bound_exit_one(name, order, capsys):
    assert main(["series", name, "--order", order]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: --order must be <= {MAX_SERIES_ORDER}, got {order}\n"
    assert captured.out == ""


def test_series_order_bound_admits_the_tested_sizes():
    assert MAX_SERIES_ORDER >= 256


def test_series_negative_family_index_exit_one(capsys):
    assert main(["series", "ballot", "--family-index", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "usage error: --family-index must be >= 0, got -1\n"
    assert captured.out == ""


@pytest.mark.parametrize("index", [str(MAX_SERIES_ORDER + 1), "100000000000000000000"])
def test_series_family_index_above_the_bound_exit_one(index, capsys):
    assert main(["series", "ballot", "--order", "4", "--family-index", index]) == 1
    captured = capsys.readouterr()
    bound = MAX_SERIES_ORDER
    assert captured.err == f"usage error: --family-index must be <= {bound}, got {index}\n"
    assert captured.out == ""


@pytest.mark.parametrize("index", [0, 1, 2, 3, 4, 5, 6, MAX_SERIES_ORDER])
def test_series_family_index_bound_admits_the_used_indices(index, capsys):
    assert main(["series", "ballot", "--order", "3", "--family-index", str(index)]) == 0
    want = "".join(f"{i}: {math.comb(2 * i + index, i)}\n" for i in range(4))
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("name", ["catalan", "central", "shifted-central"])
def test_series_family_index_only_for_ballot(name, capsys):
    assert main(["series", name, "--family-index", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: --family-index applies only to ballot, not {name!r}\n"
    assert captured.out == ""


def test_series_order_zero_and_ballot_index_zero(capsys):
    assert main(["series", "central", "--order", "0"]) == 0
    assert capsys.readouterr().out == "0: 1\n"
    assert main(["series", "ballot", "--order", "2", "--family-index", "0"]) == 0
    assert capsys.readouterr().out == "0: 1\n1: 2\n2: 6\n"


def test_suite_passing_and_failing(tmp_path, capsys):
    good = tmp_path / "good.suite"
    good.write_text(
        json.dumps(
            {
                "suite": "smoke",
                "cases": [
                    {
                        "id": "vandermonde",
                        "kind": "sum_identity",
                        "grid": {"n": [0, 6], "m": [0, 6]},
                        "sides": [
                            [{"sum": "binom(n,k)*binom(m,n-k)", "from": "0", "to": "n"}],
                            [{"term": "binom(n+m,n)"}],
                        ],
                    }
                ],
            }
        )
    )
    assert main(["suite", str(good)]) == 0
    assert "PASS vandermonde" in capsys.readouterr().out

    bad = tmp_path / "bad.suite"
    bad.write_text(json.dumps({"suite": "broken", "cases": [mutation_catalog()[0]]}))
    assert main(["suite", str(bad)]) == 4
    out = capsys.readouterr().out
    assert "FAIL mut-scaled-rhs" in out
    assert "0/1 cases pass" in out


def test_suite_missing_file_exit_one(capsys):
    assert main(["suite", "/nonexistent/missing.suite"]) == 1
    assert "usage error" in capsys.readouterr().err


# (manifest text, exit code, what the report says): a manifest that is not a
# JSON object with a "cases" list is a usage error naming the file; a case
# that cannot be checked is a failing case
MALFORMED_SUITES = [
    ("{bad", 1, "is not valid JSON"),
    ("[1, 2]", 1, 'is not a JSON object with a "cases" list'),
    ('{"suite": "s", "cases": [3]}', 4, "FAIL <unnamed>: the case is not a JSON object: 3"),
    ('{"suite": "s"}', 1, 'is not a JSON object with a "cases" list'),
    ('{"suite": "s", "cases": [{"kind": []}]}', 4, "FAIL <unnamed>: unknown case kind []"),
]


@pytest.mark.parametrize("text, code, message", MALFORMED_SUITES)
def test_malformed_suite_is_refused_without_a_traceback(tmp_path, text, code, message):
    path = tmp_path / "malformed.suite"
    path.write_text(text)
    proc = subprocess.run([sys.executable, "-m", "telesum", "suite", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == cli.EXIT_USAGE:
        assert proc.stderr.startswith(f"usage error: suite file {str(path)!r} ")
    assert message in (proc.stderr if code == cli.EXIT_USAGE else proc.stdout)


def test_missing_subcommand_exit_one(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_output_is_deterministic(capsys):
    assert main(["zeil", "--machine", CRUX]) == 0
    first = capsys.readouterr().out
    assert main(["zeil", "--machine", CRUX]) == 0
    assert capsys.readouterr().out == first


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "telesum", "series", "central", "--order", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines() == ["0: 1", "1: 2", "2: 6", "3: 20"]


def test_closed_stdout_pipe_exits_141_with_nothing_on_stderr():
    # 513 lines, about 80 kB: more than a pipe buffer, so the writes after the
    # first line meet the closed pipe whatever the scheduling
    proc = subprocess.Popen(
        [sys.executable, "-m", "telesum", "series", "catalan", "--order", "512"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == cli.EXIT_BROKEN_PIPE == 141
    assert first == b"0: 1\n"
    assert err == b""


def test_closed_stdout_pipe_exits_141_with_nothing_on_stderr_in_machine_form():
    proc = subprocess.Popen(
        [sys.executable, "-m", "telesum", "series", "catalan", "--order", "512", "--machine"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == cli.EXIT_BROKEN_PIPE == 141
    assert first == b'{"index": "0", "value": "1"}\n'
    assert err == b""


def _run_calls(calls, capsys):
    out = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def test_cached_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    calls = [
        ["gosper", "k*fact(k)"],
        ["gosper", "--machine", "binom(n+r,k)*(n+r-2k)", "--param", "r=2"],
        ["gosper", "binom(n+r,k)"],  # the --param list of the call before is not kept
        ["zeil", "--frobnicate", CRUX],  # usage error
        ["sum", "binom(n+r,k)", "--n", "0", "3", "--param", "r=1", "--machine"],
        ["sum", "binom(n,k)", "--n", "0", "3"],
        ["gosper", "binom(n,k"],  # parse error
        ["zeil", "--machine", "binom(n,k)^2"],
        ["series", "catalan", "--order", "5"],
        ["gosper", "k*fact(k)"],
    ]
    assert cli.build_parser() is cli.build_parser()
    cached = _run_calls(calls, capsys)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = _run_calls(calls, capsys)
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 0, 1, 1, 0, 0, 1, 0, 0, 0]
    assert cached[0] == cached[-1]


@pytest.mark.parametrize("term", ["0^k", "0^(-k)", "(0)^(n+k)", "(0/3)^k*binom(n,k)", "0^-1", "(1/0)^k"])
def test_zero_base_or_zero_denominator_is_a_parse_error(term, capsys):
    assert main(["gosper", term]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "bounds", [["--from", "0", "--to", "k"], ["--from", "k-n", "--to", "n"], ["--from", "0", "--to", "n+2k-k"]]
)
def test_sum_bounds_may_not_involve_k(bounds, capsys):
    assert main(["sum", "binom(n,k)", "--n", "4", "4"] + bounds) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --") and "may not involve k" in captured.err


def test_sum_bounds_are_parsed_once(capsys, monkeypatch):
    seen = []

    def counting(text):
        seen.append(text)
        return parse_linear_form(text)

    monkeypatch.setattr(cli, "parse_linear_form", counting)
    assert main(["sum", "binom(n,k)", "--n", "0", "5", "--from", "0", "--to", "n-1"]) == 0
    assert seen == ["0", "n-1"]
    assert capsys.readouterr().out.splitlines() == [f"{n}: {2**n - 1}" for n in range(6)]


def test_zeil_alternating_cubes(capsys):
    assert main(["zeil", "(-1)^k*binom(n,k)^3"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "(27*n^2+54*n+24)*w(n) + (n^2+4*n+4)*w(n+2) = 0"
