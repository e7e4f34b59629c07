"""The CLI's output, byte for byte, against a committed corpus.

tests/data/output_corpus.json holds the stdout, stderr and exit code of
about a hundred fast in-process calls: gosper and zeil (plain and --machine),
wz-check on a true and a sign-flipped pair, sum, series (also at the sizes
the benchmark asks for), the bundled suite and the mutation catalog, usage
errors, and terms with rational prefactors of several shapes.
tests/data/make_output_corpus.py wrote it and regenerates it.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "make_output_corpus", DATA / "make_output_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = _generator()
CORPUS = json.loads((DATA / "output_corpus.json").read_text(encoding="utf-8"))


def test_the_corpus_covers_the_generator_calls():
    assert [row["argv"] for row in CORPUS] == GENERATOR.CALLS


@pytest.mark.parametrize("row", CORPUS, ids=lambda row: " ".join(row["argv"])[:60] or "(none)")
def test_cli_output_is_byte_identical(row):
    assert GENERATOR.run_cli(row["argv"]) == row


# The routines that make or read Q(n)(k) values, by module; RationalFunction
# construction is watched on its class.
Q_N_ROUTINES = {
    "polynomials": ("poly_gcd", "poly_lcm", "dispersion_set"),
    "hyperterm": ("shift_quotient",),
}


def test_certificates_and_prefactors_are_not_cleared_again(monkeypatch):
    """Prefactors, normal forms, degree bounds, systems and certificates are
    held as pairs in Z[n][k], and the CLI prints and records them from there:
    replaying the corpus constructs no RationalFunction and calls none of the
    routines that make or read Q(n)(k) values.  Reading a certificate's
    values afterwards does, which shows the wrappers are in place."""
    import telesum
    from telesum import gosper, polynomials

    calls: list[tuple[str, str, str]] = []

    def logged(name, real):
        def wrapper(*args, **kwargs):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):  # a comprehension's frame
                frame = frame.f_back
            calls.append((name, frame.f_globals["__name__"], frame.f_code.co_name))
            return real(*args, **kwargs)
        return wrapper

    modules = [m for name, m in list(sys.modules.items()) if name.partition(".")[0] == "telesum"]
    for home, names in Q_N_ROUTINES.items():
        for name in names:
            real = getattr(getattr(telesum, home), name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, logged(name, real))
    init = polynomials.RationalFunction.__init__
    monkeypatch.setattr(polynomials.RationalFunction, "__init__", logged("RationalFunction", init))
    for row in CORPUS:
        GENERATOR.run_cli(row["argv"])
    assert calls == []

    cert = gosper.gosper_antidifference(telesum.parse_term("(n-2k)*binom(n,k)"))
    assert calls == []
    assert gosper.gosper_normal_form(cert.ratio).pairs() == cert.integer_form.pairs()
    assert cert.x and cert.certificate
    assert polynomials.dispersion_set(cert.certificate.den, cert.ratio.den) == [0]
    assert polynomials.poly_lcm(cert.certificate.den, cert.ratio.den).degree == 2
    assert {name for name, _, _ in calls} == {
        "RationalFunction", "shift_quotient", "dispersion_set", "poly_lcm", "poly_gcd"}
