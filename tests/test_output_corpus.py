"""The CLI's output, byte for byte, against a committed corpus.

tests/data/output_corpus.json holds the stdout, stderr and exit code of
about sixty fast in-process calls: gosper and zeil (plain and --machine),
wz-check on a true and a sign-flipped pair, sum, series and usage errors.
tests/data/make_output_corpus.py wrote it and regenerates it.
"""

from __future__ import annotations

import importlib.util
import json
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
