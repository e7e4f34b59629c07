"""Write output_corpus.json: the stdout, stderr and exit code of each CLI call
in CALLS, run in-process through ``telesum.cli.main``.

tests/test_output_corpus.py replays the calls and compares byte for byte, so
the file pins the CLI's output.  Regenerate it only for an intended change of
output, from the repository root:

    PYTHONPATH=src python tests/data/make_output_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "output_corpus.json"

F_11916 = "binom(n+r,n)binom(r+k,r-1)binom(n+k,n)"
G_11916 = "(-1)binom(n+r,n)binom(r+k,r-1)binom(n+k,n)*k(k+1)/(n+1)"
GOSPER_TERMS = [
    "k*fact(k)",
    "binom(n,k)",
    "(-1)^k*binom(n,k)",
    "(n-2k)*binom(n,k)",
    "k^2*2^k",
    "1/((k+1)*(k+2))",
    "binom(2k,k)/4^k",
    "(4k+1)*binom(2k,k)/4^k",
    "fact(k)/fact(k+3)",
    "(-1)^k*binom(n,k)*k",
    "binom(n,k)^2",
    "(1/2)^k*k",
    "(k^2+n*k+1)*binom(n,k)",
    "k*(k+n)*2^k/(k+n+1)",
    "(n*k+1)*(n*k+n+1)*fact(k)",
]
ZEIL_TERMS = [
    ["binom(n,k)"],
    ["binom(n,k)^2"],
    ["binom(n,k)^3"],
    ["binom(n,k)^2*binom(2k,n)"],
    ["binom(n,k)^2*binom(n+k,k)^2"],
    ["2*binom(2n,k)*binom(2n+1,k)"],
    ["binom(2k,k)*binom(2n-2k+2,n-k+1)/(k+1)"],
    ["binom(n,k)/(k+1)"],
    ["k*binom(n,k)^2"],
    ["binom(n,k)*2^k"],
    ["binom(n,k)*binom(n,k+1)"],
    ["binom(n,k)*(k^2+n*k+1)"],
    ["(-1)^k*binom(2n,n+k)^3"],
    ["binom(n,k)^3", "--jmax", "1"],
]
# Rational prefactors of each shape: a pole in n, a factor that cancels, a
# negative rational constant, a --param value, a pole outside the support.
G_PARAM = ("binom(n,k)*(k+r)*((n^2+10n+21)*k^2+(2n^2+23n+51)*k)"
           "/((n+r)*(k^2+(2-n)*k-3n-3))")
PREFACTOR_CALLS = [
    ["zeil", "binom(n,k)/(n+1)"],
    ["zeil", "--machine", "binom(n,k)/(n+1)"],
    ["gosper", "binom(n,k)/(n+1)"],
    ["gosper", "(k+1)*binom(n,k)/((k+1)*(n+3))"],
    ["gosper", "--machine", "(k+1)*binom(n,k)/((k+1)*(n+3))"],
    ["gosper", "(-3/2)*(k+1)*2^k"],
    ["gosper", "--machine", "(-3/2)*(k+1)*2^k"],
    ["gosper", "(-3/2)*(k^2+1)*binom(n,k)"],
    ["gosper", "--machine", "k*2^k/(-6)"],
    ["zeil", "(-3/2)*(n*k+1)*binom(n,k)"],
    ["zeil", "--machine", "(-3/2)*(n*k+1)*binom(n,k)"],
    ["gosper", "binom(n+r,k)*(k+r)/(n+r+1)", "--param", "r=2"],
    ["zeil", "binom(n,k)*(k+r)/(n+r)", "--param", "r=3"],
    ["zeil", "--machine", "binom(n,k)*(k+r)/(n+r)", "--param", "r=3"],
    ["wz-check", "binom(n,k)/(n+1)", "binom(n,k)*k/(k-n-1)", "--coeff=-2n-2", "--coeff=n+2"],
    ["wz-check", "binom(n,k)/(n+1)", "(-1)*binom(n,k)*k/(k-n-1)", "--coeff=-2n-2",
     "--coeff=n+2"],
    ["wz-check", "binom(n,k)*(k+r)/(n+r)", G_PARAM, "--coeff=-2n^2-20n-42",
     "--coeff=n^2+10n+24", "--param", "r=3"],
    ["wz-check", "--machine", "binom(n,k)*(k+r)/(n+r)", G_PARAM, "--coeff=-2n^2-20n-42",
     "--coeff=n^2+10n+24", "--param", "r=2"],
    ["sum", "binom(n,k)*(k+r)/(n+r)", "--n", "0", "4", "--param", "r=1"],
    ["sum", "binom(n,k)*(k+r)/(n+r)", "--n", "0", "4", "--from", "0", "--to", "n+r",
     "--param", "r=1"],
    ["sum", "binom(n,k)/(k+1)", "--n", "0", "5"],
    ["sum", "binom(n,k)/(k-n-1)", "--n", "0", "5"],
    ["sum", "--machine", "binom(n,k)*(2k+1)/((k+1)*(k+2))", "--n", "0", "4"],
]
# Refusals where every order tried has no telescoper.
REFUSAL_CALLS = [
    ["zeil", "binom(n,k)^6", "--jmax", "2"],
    ["zeil", "binom(n,k)^7", "--jmax", "3"],
]
# The bundled suite, plain and --machine, and the mutation catalog (exit 4).
SUITE_CALLS = [
    ["suite", "paper.suite"],
    ["suite", "paper.suite", "--machine"],
    ["suite", "mutations.suite"],
]
# Arguments and bounds written as integer-linear expressions, not just sums
# of c*s terms.
GRAMMAR_CALLS = [
    ["gosper", "binom(2k,k)*binom(2(n-k+1),n-k+1)/(k+1)"],
    ["sum", "binom(2(n+1),k)", "--n", "0", "3"],
    ["sum", "binom(n,k)", "--n", "0", "3", "--from", "2*(n-n)", "--to", "n"],
]
# The series requests at the benchmark's sizes, as text and --machine.
SERIES_CALLS = [
    ["series", name, "--order", order] + index + machine
    for name, order, index in [
        ("catalan", "256", []),
        ("central", "192", []),
        ("shifted-central", "128", []),
        ("ballot", "96", ["--family-index", "0"]),
        ("ballot", "96", ["--family-index", "5"]),
    ]
    for machine in ([], ["--machine"])
]
CALLS = (
    [["gosper", t] for t in GOSPER_TERMS]
    + [["gosper", "--machine", t] for t in GOSPER_TERMS[:6]]
    + [["gosper", "binom(n+r,k)*(n+r-2k)", "--param", "r=2"]]
    + [["zeil"] + t for t in ZEIL_TERMS]
    + [["zeil", "--machine"] + t for t in ZEIL_TERMS[:6] + ZEIL_TERMS[-1:]]
    + [
        ["wz-check", F_11916, G_11916, "--coeff=n", "--coeff=-n-1", "--param", "r=2"],
        ["wz-check", F_11916, G_11916[4:], "--coeff=n", "--coeff=-n-1", "--param", "r=2"],
        ["wz-check", "--machine", F_11916, G_11916, "--coeff=n", "--coeff=-n-1",
         "--param", "r=3"],
        ["wz-check", "binom(n,k)", "binom(n,k)", "--coeff=n", "--coeff=-n-1"],
        ["wz-check", "binom(n,k)", "binom(n,k)", "--coeff=k"],
        ["wz-check", "0*binom(n,k)", "binom(n,k)", "--coeff", "1"],
        ["sum", "binom(n,k)", "--n", "0", "4", "--from", "0", "--to", "n"],
        ["sum", "--machine", "binom(n,k)^2", "--n", "3", "5"],
        ["sum", "binom(n,k)^2*binom(2k,n)", "--n", "0", "6"],
        ["sum", "binom(n,k)", "--n", "0", "2", "--from", "0"],
        ["series", "catalan", "--order", "6"],
        ["series", "--machine", "central", "--order", "5"],
        ["series", "ballot", "--order", "4", "--family-index", "2"],
        ["series", "no-such-series"],
        ["series", "catalan", "--order", "-1"],
        [],
        ["frobnicate"],
        ["gosper", "binom(n,k"],
        ["gosper", "binom(n+r,k)"],
        ["gosper", "--param", "r=x", "binom(n,k)"],
        ["zeil", "binom(n,k)", "--jmax", "0"],
        ["sum", "binom(n,k)", "--n", "4", "2"],
    ]
    + PREFACTOR_CALLS
    + REFUSAL_CALLS
    + SUITE_CALLS
    + GRAMMAR_CALLS
    + SERIES_CALLS
)


def run_cli(argv: list[str]) -> dict:
    """One in-process CLI call: its exit code and what it wrote."""
    from telesum.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's --help
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> None:
    rows = [run_cli(argv) for argv in CALLS]
    CORPUS.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} calls to {CORPUS}")


if __name__ == "__main__":
    main()
