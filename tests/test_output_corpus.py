"""The CLI's output, byte for byte, against a committed corpus.

tests/data/output_corpus.json holds the stdout, stderr and exit code of
about ninety fast in-process calls: gosper and zeil (plain and --machine),
wz-check on a true and a sign-flipped pair, sum, series and usage errors,
and terms with rational prefactors of several shapes.
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


def test_certificates_and_prefactors_are_not_cleared_again(monkeypatch):
    """Prefactors and certificates are held as reduced pairs in Z[n][k], so
    replaying the corpus clears no Q(n) denominators through poly_lcm, and
    integer_qnk_pair runs only for the Q(n)[k] normal-form parts x, a, b, c
    and z of a Gosper record."""
    from telesum import polynomials

    callers: dict[str, list] = {"poly_lcm": [], "integer_qnk_pair": []}
    for name, log in callers.items():
        real = getattr(polynomials, name)

        def wrapper(*args, real=real, log=log):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):  # a comprehension's frame
                frame = frame.f_back
            owner = type(frame.f_locals.get("self")).__name__
            log.append((frame.f_globals["__name__"], owner, frame.f_code.co_name))
            return real(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] == "telesum":
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, wrapper)
    for row in CORPUS:
        GENERATOR.run_cli(row["argv"])
    records = sum(row["argv"][:2] == ["gosper", "--machine"] and row["exit"] == 0
                  for row in CORPUS)
    assert records == 7
    assert callers["poly_lcm"] == []
    record_edge = ("telesum.gosper", "GosperCertificate", "record")
    assert callers["integer_qnk_pair"] == [record_edge] * 5 * records
