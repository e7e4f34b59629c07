"""Identity suite runner: JSON manifests of summation identities checked
against the brute-force oracles, with a deterministic pass/fail report.

A manifest is {"suite": name, "cases": [...]}; each case carries a
"kind" that selects its checker.  All checking is exact; a case fails on
the first grid point where the identity breaks, and the report says
where.  A case with no point to check fails too.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .hyperterm import HyperTerm, LinearForm, UnboundParameterError, parse_linear_form, parse_term
from .series import check_convolution_11897, check_shifted_central_identity
from .verify import (
    SequenceSpec,
    _exact_sum,
    _power_failure,
    _transform_failure,
    binomial_column_sequence,
    binomial_row_sequence,
    catalan_sequence,
    check_lower_triangle_identity,
    seeded_random_sequences,
)

BUNDLED_SUITE = "paper.suite"


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    ok: bool
    detail: str
    elapsed: float


def load_suite(path: str) -> dict:
    """Load a manifest from a file path, falling back to the bundled
    resource of the same basename when no such file exists.  A ValueError
    names the file when it is not a JSON object with a "cases" list."""
    p = Path(path)
    res = p if p.is_file() else resources.files("telesum").joinpath("data").joinpath(p.name)
    if not res.is_file():
        raise FileNotFoundError(f"no suite file {path!r} and no bundled suite named {p.name!r}")
    try:
        manifest = json.loads(res.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"suite file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("cases"), list):
        raise ValueError(f'suite file {path!r} is not a JSON object with a "cases" list')
    return manifest


def bundled_suite() -> dict:
    return load_suite(BUNDLED_SUITE)


# ---------------------------------------------------------------------------
# grids and side evaluation


# the detail of a case whose grid, sequences or checks are empty
_NO_POINT = "the case checks no point"


def _grid_points(grid: dict) -> list[dict]:
    names = list(grid)
    ranges = [range(int(lo), int(hi) + 1) for lo, hi in (grid[v] for v in names)]
    return [dict(zip(names, combo)) for combo in itertools.product(*ranges)]


class _Values(dict):
    """(num, den) values of one bound term at one n, by k, each evaluated on
    first use (``TermEvaluator.pair``)."""

    def __init__(self, term: HyperTerm, n: int) -> None:
        self.term, self.n = term, n

    def __missing__(self, k: int) -> tuple[int, int]:
        value = self[k] = self.term.evaluator().pair(self.n, k)
        return value


class _CaseTexts:
    """The side texts of one case, each parsed once while the case runs.

    A term text is parsed with its parameters left symbolic and bound once
    per binding; the grid's points share the bound term.  A text whose
    prefactor uses a parameter cannot be parsed that way
    (UnboundParameterError), so it is parsed once per binding instead.
    Equal bound terms are interned, so bindings that differ only in a
    parameter the text does not use share one term and one table of its
    values, which holds the current n only.  Each ``from``/``to`` form is
    bound once per binding too.
    """

    def __init__(self) -> None:
        self._terms: dict[str, HyperTerm | None] = {}  # None: parse per binding
        self._tables: dict[tuple, _Values] = {}  # by (text, binding)
        self._interned: dict[HyperTerm, _Values] = {}
        self._forms: dict[str, LinearForm] = {}
        self._limits: dict[tuple, LinearForm] = {}  # by (text, binding)
        self._n, self._params, self._key = 0, {}, ()

    def at(self, point: dict) -> None:
        """Move to a grid point: its n and the binding of its parameters."""
        n = point.get("n", 0)
        self._params = {v: point[v] for v in point if v != "n"}
        self._key = tuple(sorted(self._params.items()))
        if n != self._n:
            self._n = n
            for table in self._interned.values():
                table.clear()
                table.n = n

    def values(self, text: str) -> _Values:
        """The table of the text's term bound at the current point."""
        key = (text, self._key)
        table = self._tables.get(key)
        if table is None:
            if text not in self._terms:
                try:
                    self._terms[text] = parse_term(text)
                except UnboundParameterError:
                    self._terms[text] = None
            term, params = self._terms[text], self._params
            term = parse_term(text, params) if term is None else term.bind(params)
            table = self._interned.setdefault(term, _Values(term, self._n))
            self._tables[key] = table
        return table

    def limit(self, text: str) -> int:
        """A ``from`` or ``to`` form's value at the current point."""
        key = (text, self._key)
        form = self._limits.get(key)
        if form is None:
            if text not in self._forms:
                self._forms[text] = parse_linear_form(text)
            form = self._limits[key] = self._forms[text].bind(self._params)
        return form.evaluate(self._n, 0)


def _side_value(side: list[dict], texts: _CaseTexts) -> Fraction:
    pairs: list[tuple[int, int]] = []
    for comp in side:
        if "sum" in comp:
            values = texts.values(comp["sum"])
            lo, hi = texts.limit(comp["from"]), texts.limit(comp["to"])
            pairs.extend(map(values.__getitem__, range(lo, hi + 1)))
        elif "term" in comp:
            pairs.append(texts.values(comp["term"])[0])
        else:
            raise ValueError(f"unknown side component {comp!r}")
    return _exact_sum(pairs)


def _check_sum_identity(case: dict) -> str | None:
    sides = case["sides"]
    if len(sides) < 2:
        raise ValueError(f"case {case.get('id')}: need at least two sides")
    points = _grid_points(case["grid"])
    if not points:
        return _NO_POINT
    texts = _CaseTexts()
    for point in points:
        texts.at(point)
        values = [_side_value(side, texts) for side in sides]
        first = values[0]
        for i, v in enumerate(values[1:], start=2):
            if v != first:
                at = ", ".join(f"{k}={point[k]}" for k in point)
                return f"side 1 gives {first} but side {i} gives {v} at {at}"
    return None


# ---------------------------------------------------------------------------
# sequence transforms


def _sequences(specs: list[str], length: int) -> list[SequenceSpec]:
    out: list[SequenceSpec] = []
    for spec in specs:
        head, *rest = spec.split(":")
        if head == "catalan":
            out.append(catalan_sequence(length))
        elif head == "binom_row":
            out.append(binomial_row_sequence(int(rest[0]), length))
        elif head == "binom_column":
            out.append(binomial_column_sequence(int(rest[0]), length))
        elif head == "random":
            count, seed = int(rest[0]), int(rest[1])
            out.extend(seeded_random_sequences(count, length, seed))
        else:
            raise ValueError(f"unknown sequence spec {spec!r}")
    return out


def _transform_grid(grid: dict) -> list[tuple[int, int]]:
    if "total_max" in grid:
        t = int(grid["total_max"])
        return [(n, m) for n in range(t + 1) for m in range(t + 1 - n)]
    n_max, m_max = int(grid["n_max"]), int(grid["m_max"])
    return [(n, m) for n in range(n_max + 1) for m in range(m_max + 1)]


def _check_transform_identity(case: dict) -> str | None:
    """Every sequence at every point, on one Pascal triangle for the case."""
    points = _transform_grid(case["grid"])
    seqs = _sequences(case["sequences"], max(n + m for n, m in points) + 1) if points else []
    if not seqs:
        return _NO_POINT
    failure = _transform_failure(seqs, points)
    if failure is not None:
        seq, n, m = failure
        return f"transform fails for sequence {seq.name} at n={n}, m={m}"
    return None


def _check_lower_triangle(case: dict) -> str | None:
    if int(case["n_max"]) < 0:
        return _NO_POINT
    for n in range(int(case["n_max"]) + 1):
        if not check_lower_triangle_identity(n):
            return f"lower-triangle identity fails at n={n}"
    return None


def _check_power_identity(case: dict) -> str | None:
    n_max, m_max = int(case["n_max"]), int(case["m_max"])
    if min(n_max, m_max) < 0:
        return _NO_POINT
    failure = _power_failure([(n, m) for n in range(n_max + 1) for m in range(m_max + 1)])
    if failure is not None:
        return "power identity fails at n={}, m={}".format(*failure)
    return None


_SERIES_CHECKS = {
    "shifted_central": check_shifted_central_identity,
    "catalan_convolution": check_convolution_11897,
}


def _check_convolution_identity(case: dict) -> str | None:
    order = int(case.get("order", 64))
    if not case["checks"]:
        return _NO_POINT
    for name in case["checks"]:
        try:
            fn = _SERIES_CHECKS[name]
        except KeyError:
            raise ValueError(f"unknown series check {name!r}") from None
        if not fn(order):
            return f"series check {name} fails at order {order}"
    return None


_CHECKERS = {
    "sum_identity": _check_sum_identity,
    "transform_identity": _check_transform_identity,
    "lower_triangle_identity": _check_lower_triangle,
    "power_identity": _check_power_identity,
    "convolution_identity": _check_convolution_identity,
}


def run_case(case: dict) -> CaseResult:
    if not isinstance(case, dict):
        return CaseResult("<unnamed>", False, f"the case is not a JSON object: {case!r}", 0.0)
    case_id = case.get("id", "<unnamed>")
    kind = case.get("kind")
    checker = _CHECKERS.get(kind) if isinstance(kind, str) else None
    start = time.monotonic()
    if checker is None:
        return CaseResult(case_id, False, f"unknown case kind {kind!r}", 0.0)
    try:
        detail = checker(case)
    except Exception as exc:  # a broken case is a failing case, with the cause
        return CaseResult(
            case_id, False, f"error: {exc}", time.monotonic() - start
        )
    elapsed = time.monotonic() - start
    if detail is None:
        return CaseResult(case_id, True, "", elapsed)
    return CaseResult(case_id, False, detail, elapsed)


def run_identity_suite(manifest: dict) -> list[CaseResult]:
    return [run_case(case) for case in manifest["cases"]]


def report_lines(results: list[CaseResult]) -> list[str]:
    lines = []
    for r in results:
        if r.ok:
            lines.append(f"PASS {r.case_id}")
        else:
            lines.append(f"FAIL {r.case_id}: {r.detail}")
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} cases pass")
    return lines


# ---------------------------------------------------------------------------
# mutation catalog: deliberately broken variants that the runner must reject


def mutation_catalog() -> list[dict]:
    """Cases that are each false; the suite runner must fail every one.

    They twist the bundled identities in typical wrong-by-one ways: a
    scaled right side, a clipped summation range, a shifted denominator,
    a dropped squaring, mismatched upper limits, and so on.  They live in
    the bundled manifest data/mutations.suite.
    """
    res = resources.files("telesum").joinpath("data").joinpath("mutations.suite")
    return json.loads(res.read_text(encoding="utf-8"))["cases"]
