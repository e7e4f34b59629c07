"""Identity suite runner: JSON manifests of summation identities checked
against the brute-force oracles, with a deterministic pass/fail report.

A manifest is {"suite": name, "cases": [...]}; each case carries a
"kind" that selects its checker.  All checking is exact; a case fails on
the first grid point where the identity breaks, and the report says
where.  A case with no point to check fails too, and so does a case
with a malformed field, with a detail that names the field.
"""

from __future__ import annotations

import itertools
import json
import operator
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .hyperterm import (
    HyperTerm,
    LinearForm,
    UnboundParameterError,
    _check_binding,
    _term_params,
    _tokenize,
    parse_linear_form,
    parse_term,
)
from .series import check_convolution_11897, check_shifted_central_identity
from .verify import (
    SequenceSpec,
    _lower_triangle_failure,
    _pair_sum,
    _power_failure,
    _transform_failure,
    binomial_column_sequence,
    binomial_row_sequence,
    catalan_sequence,
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


_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _field(obj: dict, key: str, where: str = "the case", kind: type | None = None):
    """obj[key]; a ValueError names the field when it is missing, or when
    kind is given and the value is not of it."""
    try:
        value = obj[key]
    except KeyError:
        raise ValueError(f'{where} has no "{key}" field') from None
    if kind is not None and not isinstance(value, kind):
        raise ValueError(f'"{key}" must be {_KINDS[kind]}, got {value!r}')
    return value


def _integer(obj: dict, key: str, where: str = "the case", default=None) -> int:
    """obj[key], which must be an int (not a bool, float or string); a
    ValueError names the field otherwise."""
    value = _field(obj, key, where) if default is None else obj.get(key, default)
    if type(value) is not int:
        raise ValueError(f'"{key}" must be an integer, got {value!r}')
    return value


def _grid(grid: dict) -> tuple[list[str], list[range]]:
    """A sum_identity grid's variable names and the range of each.  Each
    variable takes [lo, hi] with int bounds; k, the summation variable,
    may not be bound."""
    names, ranges = list(grid), []
    for v in names:
        bounds = grid[v]
        if v == "k":
            raise ValueError('grid "k" binds the summation variable k')
        if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2
                and all(type(b) is int for b in bounds)):
            raise ValueError(f'grid "{v}" must be [lo, hi] with int lo and hi, got {bounds!r}')
        ranges.append(range(bounds[0], bounds[1] + 1))
    return names, ranges


class _Values:
    """Running sums of one bound term's (num, den) values at one n, by lower
    limit lo: the sums over lo..lo+i, each an int pair (total, common).  A
    value is evaluated (``TermEvaluator.pair``) when a sum from lo first
    reaches it, and read only there."""

    def __init__(self, term: HyperTerm, n: int) -> None:
        self.term, self.n, self.runs = term, n, {}

    def at(self, n: int) -> None:
        self.runs.clear()
        self.n = n

    def sum(self, lo: int, hi: int) -> tuple[int, int]:
        """The sum over k = lo..hi, (0, 1) when it is empty; the values that
        no earlier sum from lo reached are evaluated in k order."""
        if hi < lo:
            return 0, 1
        run = self.runs.get(lo)
        if run is None:
            run = self.runs[lo] = []
        if len(run) <= hi - lo:
            pair, n = self.term.evaluator().pair, self.n
            values = (pair(n, k) for k in range(lo + len(run), hi + 1))
            _pair_sum(values, *(run[-1] if run else (0, 1)), run)
        return run[hi - lo]


class _CaseTexts:
    """The side texts of one case, each parsed once while the case runs.

    A term text is parsed with its parameters left symbolic and bound once
    per value of the grid parameters it uses; the grid's points share the
    bound term.  A text whose prefactor uses a parameter cannot be parsed
    that way (UnboundParameterError), so it is parsed once per such value
    instead.  Equal bound terms are interned, so texts and values that bind
    to one term share one table of its values, which holds the current n
    only.  Each ``from``/``to`` form is bound once per value too.  The
    point's whole binding is checked before a text is bound: a grid's first
    point has every parameter at its lowest value, so a negative one fails
    there, at the first text.
    """

    def __init__(self, params: list[str]) -> None:
        self._params = params  # the grid's names other than n
        self._terms: dict[str, HyperTerm | None] = {}  # None: parse per binding
        self._forms: dict[str, LinearForm] = {}
        self._uses: dict[str, tuple[str, ...]] = {}  # by text: the grid parameters in it
        self._tables: dict[tuple, _Values] = {}  # by (text, *values of its parameters)
        self._interned: dict[HyperTerm, _Values] = {}
        self._limits: dict[tuple, LinearForm] = {}  # by (text, *values of its parameters)
        self._n = 0

    def at(self, n: int) -> None:
        """Move to a grid point's n."""
        if n != self._n:
            self._n = n
            for table in self._interned.values():
                table.at(n)

    def _bound(self, text: str, binding: dict) -> tuple[tuple, dict]:
        """The key of a parsed text at a point and its binding by the grid
        parameters it uses."""
        names = self._uses[text]
        if not names:
            return (text,), {}
        used = {v: binding[v] for v in names}
        return (text, *used.values()), used

    def table(self, text: str, binding: dict) -> _Values:
        """The table of the text's term bound by the point's parameters."""
        if text not in self._terms:
            try:
                term = parse_term(text)
                syms = _term_params(term) if self._params else ()
            except UnboundParameterError:
                term, syms = None, {val for kind, val, _ in _tokenize(text) if kind == "sym"}
            self._terms[text] = term
            self._uses[text] = tuple(v for v in self._params if v in syms)
        _check_binding(binding)
        key, used = self._bound(text, binding)
        table = self._tables.get(key)
        if table is None:
            term = self._terms[text]
            term = parse_term(text, used) if term is None else term.bind(used)
            table = self._tables[key] = self._interned.setdefault(term, _Values(term, self._n))
        return table

    def limit(self, comp: dict, field: str, binding: dict) -> tuple[int, int]:
        """A sum component's ``from`` or ``to`` form bound by the point's
        parameters, as its (coeff_n, constant); raises UnboundParameterError
        if it keeps one, and a ValueError naming the field if it involves k."""
        text = _field(comp, field, "a sum component", str)
        if text not in self._forms:
            form = self._forms[text] = parse_linear_form(text)
            if form.coeff_k:
                raise ValueError(f'"{field}" form {text!r} involves k, the summation variable')
            self._uses[text] = tuple(v for v in self._params if v in dict(form.params))
        key, used = self._bound(text, binding)
        form = self._limits.get(key)
        if form is None:
            form = self._limits[key] = self._forms[text].bind(used)
        form.evaluate(self._n, 0)
        return form.coeff_n, form.constant

    def plan(self, side: list[dict], binding: dict) -> tuple[list[tuple], tuple[int, int], set[str]]:
        """A side compiled at a point, with its value there and the grid
        parameters its texts use.  The plan holds, per component, its table
        and its bound ``from`` and ``to`` as (table, fn, fc, tn, tc); a term
        is the sum over k = 0..0.  Each component is compiled and then
        summed, in order."""
        plan, pairs, texts, n = [], [], [], self._n
        for comp in side:
            if "sum" in comp:
                text = _field(comp, "sum", kind=str)
                table = self.table(text, binding)
                fn, fc = self.limit(comp, "from", binding)
                tn, tc = self.limit(comp, "to", binding)
                texts += text, comp["from"], comp["to"]
            elif "term" in comp:
                text = _field(comp, "term", kind=str)
                table, fn, fc, tn, tc = self.table(text, binding), 0, 0, 0, 0
                texts.append(text)
            else:
                raise ValueError(f"unknown side component {comp!r}")
            pairs.append(table.sum(fn * n + fc, tn * n + tc))
            plan.append((table, fn, fc, tn, tc))
        uses = {v for text in texts for v in self._uses[text]}
        return plan, _pair_sum(pairs), uses


def _check_sum_identity(case: dict) -> str | None:
    """Both sides at every grid point, in grid order; each side is compiled
    once per value of the parameters its texts use (``_CaseTexts.plan``),
    a sum over lo..hi is one lookup in its table's running sums from lo, and
    sides compare as cross-multiplied int pairs."""
    sides = _field(case, "sides", kind=list)
    if not all(isinstance(side, list) and all(isinstance(c, dict) for c in side) for side in sides):
        raise ValueError(f'"sides" must be a list of lists of objects, got {sides!r}')
    if len(sides) < 2:
        raise ValueError(f"case {case.get('id')}: need at least two sides")
    names, ranges = _grid(_field(case, "grid", kind=dict))
    if not all(ranges):
        return _NO_POINT
    params = [i for i, v in enumerate(names) if v != "n"]
    n_at = names.index("n") if "n" in names else None
    texts = _CaseTexts([names[i] for i in params])
    plans: list[dict] = [{} for _ in sides]  # by side: plans by the values it uses
    keys: list = [None] * len(sides)  # by side: those values at a point, once a plan is built
    for point in itertools.product(*ranges):
        n = 0 if n_at is None else point[n_at]
        texts.at(n)
        values = []
        for s, side in enumerate(sides):
            key = keys[s]
            plan = None if key is None else plans[s].get(key(point))
            if plan is None:
                binding = {names[i]: point[i] for i in params}
                plan, value, used = texts.plan(side, binding)
                idx = [i for i in params if names[i] in used]
                key = keys[s] = operator.itemgetter(*idx) if idx else lambda point: ()
                plans[s][key(point)] = plan
            elif len(plan) == 1:
                table, fn, fc, tn, tc = plan[0]
                value = table.sum(fn * n + fc, tn * n + tc)
            else:
                value = _pair_sum([table.sum(fn * n + fc, tn * n + tc)
                                   for table, fn, fc, tn, tc in plan])
            values.append(value)
        (t0, c0), rest = values[0], values[1:]
        for i, (t, c) in enumerate(rest, start=2):
            if t0 * c != t * c0:
                at = ", ".join(f"{v}={x}" for v, x in zip(names, point))
                return f"side 1 gives {Fraction(t0, c0)} but side {i} gives {Fraction(t, c)} at {at}"
    return None


# ---------------------------------------------------------------------------
# sequence transforms


# each sequence spec's head and the names of its int arguments
_SEQUENCE_ARGS = {
    "catalan": (),
    "binom_row": ("row",),
    "binom_column": ("column",),
    "random": ("count", "seed"),
}


def _sequences(specs: list[str], length: int) -> list[SequenceSpec]:
    out: list[SequenceSpec] = []
    for spec in specs:
        head, *rest = spec.split(":") if isinstance(spec, str) else (None,)
        if head not in _SEQUENCE_ARGS:
            raise ValueError(f"unknown sequence spec {spec!r}")
        names = _SEQUENCE_ARGS[head]
        if len(rest) != len(names) or not all(re.fullmatch(r"-?\d+", a) for a in rest):
            form = ":".join([head, *(f"<{a}>" for a in names)])
            raise ValueError(f'"sequences" entry {spec!r} is not of the form {form}')
        args = [int(a) for a in rest]
        if head == "catalan":
            out.append(catalan_sequence(length))
        elif head == "binom_row":
            out.append(binomial_row_sequence(args[0], length))
        elif head == "binom_column":
            out.append(binomial_column_sequence(args[0], length))
        else:
            out.extend(seeded_random_sequences(args[0], length, args[1]))
    return out


def _transform_grid(grid: dict) -> list[tuple[int, int]]:
    if "total_max" in grid:
        t = _integer(grid, "total_max", "the grid")
        return [(n, m) for n in range(t + 1) for m in range(t + 1 - n)]
    n_max, m_max = _integer(grid, "n_max", "the grid"), _integer(grid, "m_max", "the grid")
    return [(n, m) for n in range(n_max + 1) for m in range(m_max + 1)]


def _check_transform_identity(case: dict) -> str | None:
    """Every sequence at every point, on one Pascal triangle for the case."""
    points = _transform_grid(_field(case, "grid", kind=dict))
    seqs = (_sequences(_field(case, "sequences", kind=list), max(n + m for n, m in points) + 1)
            if points else [])
    if not seqs:
        return _NO_POINT
    failure = _transform_failure(seqs, points)
    if failure is not None:
        seq, n, m = failure
        return f"transform fails for sequence {seq.name} at n={n}, m={m}"
    return None


def _check_lower_triangle(case: dict) -> str | None:
    """Every n in 0..n_max, on one Pascal triangle for the case."""
    n_max = _integer(case, "n_max")
    if n_max < 0:
        return _NO_POINT
    failure = _lower_triangle_failure(range(n_max + 1))
    if failure is not None:
        return f"lower-triangle identity fails at n={failure}"
    return None


def _check_power_identity(case: dict) -> str | None:
    n_max, m_max = _integer(case, "n_max"), _integer(case, "m_max")
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
    order = _integer(case, "order", default=64)
    checks = _field(case, "checks", kind=list)
    if not checks:
        return _NO_POINT
    for name in checks:
        fn = _SERIES_CHECKS.get(name) if isinstance(name, str) else None
        if fn is None:
            raise ValueError(f"unknown series check {name!r}")
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
