"""Identity-suite loading, execution, mutation fixtures, and reporting."""

from __future__ import annotations

import copy
import itertools
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telesum.hyperterm import UnboundParameterError, parse_linear_form, parse_term
from telesum.suite import (
    CaseResult,
    bundled_suite,
    load_suite,
    mutation_catalog,
    report_lines,
    run_case,
    run_identity_suite,
)
from telesum.verify import oracle_sum

REPO_SUITE = Path(__file__).resolve().parent.parent / "paper.suite"


def test_bundled_matches_repo_copy():
    res = resources.files("telesum").joinpath("data").joinpath("paper.suite")
    assert res.read_bytes() == REPO_SUITE.read_bytes()


def test_load_suite_explicit_path():
    manifest = load_suite(REPO_SUITE)
    cases = manifest["cases"]
    assert len(cases) == 8
    assert [c["id"] for c in cases[:3]] == ["p11897", "p11899", "p11916"]


def test_load_suite_fallback_to_bundle(tmp_path):
    manifest = load_suite(tmp_path / "paper.suite")
    assert len(manifest["cases"]) == 8
    assert manifest == bundled_suite()


def test_load_suite_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_suite(tmp_path / "nope.suite")


def test_full_suite_passes():
    results = run_identity_suite(load_suite(REPO_SUITE))
    assert len(results) == 8
    assert all(r.ok for r in results), [r.detail for r in results if not r.ok]


def test_report_lines_format():
    results = [
        CaseResult("alpha", True, "", 0.1),
        CaseResult("beta", False, "value mismatch", 0.2),
    ]
    lines = report_lines(results)
    assert lines[0] == "PASS alpha"
    assert lines[1] == "FAIL beta: value mismatch"
    assert lines[-1] == "1/2 cases pass"


def test_report_lines_omit_timing():
    results = [CaseResult("alpha", True, "", 12.5)]
    assert "12.5" not in "\n".join(report_lines(results))


def test_mutation_catalog_all_fail():
    muts = mutation_catalog()
    assert len(muts) >= 8
    for case in muts:
        result = run_case(case)
        assert not result.ok, case["id"]
        assert result.detail


def test_unknown_kind_fails_gracefully():
    result = run_case({"id": "mystery", "kind": "no-such-kind"})
    assert not result.ok
    assert "kind" in result.detail


def test_broken_case_reports_error_detail():
    case = copy.deepcopy(load_suite(REPO_SUITE)["cases"][0])
    case["id"] = "broken"
    case["sides"][0][0]["sum"] = "binom(n,k"  # malformed on purpose
    result = run_case(case)
    assert not result.ok
    assert result.detail.startswith("error:")


def _count_parses(monkeypatch):
    import telesum.suite as suite_mod

    calls = []
    real = suite_mod.parse_term

    def counted(text, binding=None):
        calls.append((text, dict(binding or {})))
        return real(text, binding)

    monkeypatch.setattr(suite_mod, "parse_term", counted)
    return calls


def test_sum_identity_parses_each_side_text_once(monkeypatch):
    calls = _count_parses(monkeypatch)
    case = {
        "id": "p11916-small",
        "kind": "sum_identity",
        "grid": {"n": [1, 3], "r": [1, 3], "s": [1, 3]},
        "sides": [
            [{"sum": "binom(n+r,n)*binom(r+k,r-1)*binom(n+k,n)", "from": "0", "to": "s-1"}],
            [{"sum": "binom(n+s,n)*binom(s+k,s-1)*binom(n+k,n)", "from": "0", "to": "r-1"}],
        ],
    }
    result = run_case(case)
    assert result.ok, result.detail
    assert len(calls) <= 2


def test_parameter_in_prefactor_is_parsed_once_per_binding(monkeypatch):
    calls = _count_parses(monkeypatch)
    case = {
        "id": "scaled-row",
        "kind": "sum_identity",
        "grid": {"n": [0, 4], "r": [0, 3]},
        "sides": [
            [{"sum": "binom(n,k)*(r+1)", "from": "0", "to": "n"}],
            [{"term": "(r+1)*2^n"}],
        ],
    }
    result = run_case(case)
    assert result.ok, result.detail
    # per text: one unbound attempt, then one parse for each of the 4 r values
    assert len(calls) == 2 * (1 + 4)
    assert sorted(b["r"] for t, b in calls if b) == sorted(2 * [0, 1, 2, 3])


def test_each_binding_is_bound_once_per_case(monkeypatch):
    """p11916's 1728 grid points bind each side's term by the one parameter
    it uses, r on side 1 and s on side 2: once for each of its 12 values,
    and again in the next case."""
    from telesum.hyperterm import HyperTerm

    bindings = []
    real = HyperTerm.bind

    def counted(self, binding):
        if binding:
            bindings.append(tuple(sorted(binding.items())))
        return real(self, binding)

    monkeypatch.setattr(HyperTerm, "bind", counted)
    case = next(c for c in bundled_suite()["cases"] if c["id"] == "p11916")
    for runs in (1, 2):
        assert run_case(case).ok
        assert len(bindings) == runs * 2 * 12
    assert set(bindings) == {((v, a),) for v in "rs" for a in range(1, 13)}


def test_parse_cache_does_not_outlive_a_case(monkeypatch):
    calls = _count_parses(monkeypatch)
    case = mutation_catalog()[0]
    run_case(case)
    first = len(calls)
    run_case(case)
    assert len(calls) == 2 * first


@pytest.mark.parametrize(
    "case",
    [
        {"kind": "sum_identity", "grid": {"n": [5, 0]},
         "sides": [[{"term": "1"}], [{"term": "2"}]]},
        {"kind": "transform_identity", "sequences": [], "grid": {"total_max": 3}},
        {"kind": "transform_identity", "sequences": ["random:0:1"], "grid": {"total_max": 3}},
        {"kind": "transform_identity", "sequences": ["catalan"],
         "grid": {"n_max": -1, "m_max": 3}},
        {"kind": "lower_triangle_identity", "n_max": -1},
        {"kind": "power_identity", "n_max": 3, "m_max": -2},
        {"kind": "convolution_identity", "checks": []},
    ],
    ids=lambda case: case["kind"],
)
def test_a_case_that_checks_no_point_fails(case):
    result = run_case(dict(case, id="vacuous"))
    assert not result.ok
    assert result.detail == "the case checks no point"


def test_suite_with_a_vacuous_case_exits_4(tmp_path, capsys):
    from telesum.cli import main

    path = tmp_path / "vacuous.suite"
    path.write_text(json.dumps({"suite": "v", "cases": [
        {"id": "empty-grid", "kind": "lower_triangle_identity", "n_max": -1}]}))
    assert main(["suite", str(path)]) == 4
    assert capsys.readouterr().out == (
        "FAIL empty-grid: the case checks no point\n0/1 cases pass\n")


def test_series_checks_pass_and_a_failing_one_is_named(monkeypatch):
    import telesum.suite as suite_mod

    case = {"id": "conv", "kind": "convolution_identity",
            "checks": ["catalan_convolution", "shifted_central"], "order": 20}
    assert run_case(case).ok
    monkeypatch.setitem(suite_mod._SERIES_CHECKS, "shifted_central", lambda order: False)
    assert run_case(case).detail == "series check shifted_central fails at order 20"


@pytest.mark.parametrize("case, routine, failure, detail", [
    ({"kind": "transform_identity", "sequences": ["catalan"], "grid": {"total_max": 3}},
     "_transform_failure", lambda seqs, points: (seqs[0], *points[2]),
     "transform fails for sequence catalan at n=0, m=2"),
    ({"kind": "lower_triangle_identity", "n_max": 3}, "_lower_triangle_failure",
     lambda ns: ns[-1], "lower-triangle identity fails at n=3"),
    ({"kind": "power_identity", "n_max": 2, "m_max": 1}, "_power_failure",
     lambda points: points[-1], "power identity fails at n=2, m=1"),
], ids=["transform", "lower-triangle", "power"])
def test_a_failing_triangle_check_names_its_point(case, routine, failure, detail, monkeypatch):
    import telesum.suite as suite_mod

    assert run_case(dict(case, id="ok")).ok
    monkeypatch.setattr(suite_mod, routine, failure)
    result = run_case(dict(case, id="broken"))
    assert (result.ok, result.detail) == (False, detail)


def _p11916(extra_side_2=None) -> dict:
    case = copy.deepcopy(next(c for c in bundled_suite()["cases"] if c["id"] == "p11916"))
    if extra_side_2:
        case["sides"][1].append(extra_side_2)
    return case


def test_a_late_failure_is_found_at_its_point():
    """binom(n,12)*binom(12,n) is nonzero only at n = 12, the last n of the grid."""
    result = run_case(_p11916({"term": "binom(n,12)*binom(12,n)"}))
    assert not result.ok
    assert result.detail == "side 1 gives 13 but side 2 gives 14 at n=12, r=1, s=1"


def test_a_fractional_failure_prints_its_fractions():
    case = {"id": "frac", "kind": "sum_identity", "grid": {"n": [0, 6]}, "sides": [
        [{"sum": "binom(n,k)/(1-2k)", "from": "0", "to": "n"}, {"term": "1/(n+3)"}],
        [{"sum": "binom(n,k)/(1-2k)", "from": "0", "to": "n"}, {"term": "1/(n+2)"}]]}
    assert run_case(case).detail == "side 1 gives 4/3 but side 2 gives 3/2 at n=0"


def test_p11916_evaluates_each_value_once(monkeypatch):
    """Side 1 at r = a and side 2 at s = a bind to one term, whatever the
    other parameter: 12 terms x 12 n x 12 k = 1728 distinct values, each
    evaluated once (the grid's 1728 points once took 22 464 evaluations)."""
    from telesum.hyperterm import TermEvaluator

    calls = []
    real = TermEvaluator.pair

    def counted(self, n, k):
        calls.append((n, k))
        return real(self, n, k)

    monkeypatch.setattr(TermEvaluator, "pair", counted)
    assert run_case(_p11916()).ok
    assert len(calls) <= 1728


# ---------------------------------------------------------------------------
# the sum checker against a per-point reference


def _reference_bind(text, params):
    try:
        term = parse_term(text)
    except UnboundParameterError:
        return parse_term(text, params)
    return term.bind(params)


def _reference_sum_identity(case):
    """The sum checker point by point, sharing nothing: each text parsed
    and bound at each point, each component summed by oracle_sum, and the
    sides compared as Fractions."""
    sides = case["sides"]
    if len(sides) < 2:
        raise ValueError(f"case {case.get('id')}: need at least two sides")
    names = list(case["grid"])
    ranges = [range(lo, hi + 1) for lo, hi in case["grid"].values()]
    points = [dict(zip(names, combo)) for combo in itertools.product(*ranges)]
    if not points:
        return "the case checks no point"
    for point in points:
        n = point.get("n", 0)
        params = {v: x for v, x in point.items() if v != "n"}
        values = []
        for side in sides:
            total = Fraction(0)
            for comp in side:
                if "sum" in comp:
                    term = _reference_bind(comp["sum"], params)
                    lo, hi = (parse_linear_form(comp[f]).bind(params).evaluate(n, 0)
                              for f in ("from", "to"))
                    total += oracle_sum(term, n, lo, hi)
                elif "term" in comp:
                    total += oracle_sum(_reference_bind(comp["term"], params), n, 0, 0)
                else:
                    raise ValueError(f"unknown side component {comp!r}")
            values.append(total)
        for i, v in enumerate(values[1:], start=2):
            if v != values[0]:
                at = ", ".join(f"{k}={point[k]}" for k in point)
                return f"side 1 gives {values[0]} but side {i} gives {v} at {at}"
    return None


def _reference_run(case):
    try:
        detail = _reference_sum_identity(case)
    except Exception as exc:
        return False, f"error: {exc}"
    return detail is None, detail or ""


# true identities in n and the parameters r and s, with the parameters each uses
IDENTITIES = [
    ([[{"sum": "binom(n,k)", "from": "0", "to": "n"}], [{"term": "2^n"}]], ""),
    ([[{"sum": "binom(n+r,k)", "from": "0", "to": "n+r"}], [{"term": "2^(n+r)"}]], "r"),
    ([[{"sum": "binom(n,k)*binom(r,n-k)", "from": "0", "to": "n"}],
      [{"term": "binom(n+r,n)"}]], "r"),
    ([[{"sum": "(r+1)*binom(n,k)", "from": "0", "to": "n"}], [{"term": "(r+1)*2^n"}]], "r"),
    ([[{"sum": "binom(r+k,k)", "from": "0", "to": "s-1"}], [{"term": "binom(r+s,s-1)"}]], "rs"),
    ([[{"sum": "binom(n,k)*binom(s,k)", "from": "0", "to": "n+s"}],
      [{"sum": "binom(n,k)*binom(s,k)", "from": "0", "to": "n"},
       {"sum": "binom(n,k)*binom(s,k)", "from": "n+1", "to": "n+s"}]], "s"),
    ([[{"sum": "binom(n+r,n)*binom(r+k,r-1)*binom(n+k,n)", "from": "0", "to": "s-1"}],
      [{"sum": "binom(n+s,n)*binom(s+k,s-1)*binom(n+k,n)", "from": "0", "to": "r-1"}]], "rs"),
]

# a component added to one side: wrong at some points, a pole at some, or unbound
EXTRAS = [
    {"term": "binom(n,2)*binom(2,n)"},  # 1 at n = 2 only
    {"term": "binom(r,1)*binom(1,r)"},  # 1 at r = 1 only
    {"sum": "binom(n,k)", "from": "1", "to": "n-1"},
    {"sum": "binom(s,k)/(k+1)", "from": "0", "to": "s"},
    {"term": "1/(n-r)"},  # a pole where n = r
    {"sum": "binom(n,k)/(k-2)", "from": "0", "to": "n"},  # a pole at k = 2 once n >= 2
    {"sum": "binom(n,k)", "from": "0", "to": "q"},  # q is in no grid
    {"sum": "binom(q,k)", "from": "0", "to": "r-1"},  # unbound once the range is not empty
    {"sum": "binom(n,k)", "from": "r", "to": "n+s"},
    {"term": "(s-1)*binom(n,s)"},
]


@st.composite
def sum_manifests(draw):
    sides, uses = draw(st.sampled_from(IDENTITIES))
    sides = copy.deepcopy(sides)
    extra = draw(st.sets(st.sampled_from("rs"), max_size=2))
    names = ["n", *sorted(set(uses) | extra)]
    grid = {}
    for v in draw(st.permutations(names)):
        lo = draw(st.integers(-1, 2) if v == "n" else st.sampled_from([-1, 0, 1, 1, 2]))
        grid[v] = [lo, lo + draw(st.integers(-1 if v == "n" else 0, 4))]
    for comp in draw(st.lists(st.sampled_from(EXTRAS), max_size=2)):
        where = draw(st.integers(0, len(sides) - 1))
        sides[where].append(comp)
        if draw(st.booleans()):  # the same component on the other side too
            sides[1 - where].append(comp)
    if draw(st.booleans()):
        sides.append(copy.deepcopy(sides[draw(st.integers(0, 1))]))
    return {"id": "generated", "kind": "sum_identity", "grid": grid, "sides": sides}


@settings(max_examples=120, deadline=None)
@given(sum_manifests())
def test_sum_identity_matches_the_per_point_reference(case):
    result = run_case(case)
    assert (result.ok, result.detail) == _reference_run(case)


@pytest.mark.parametrize("grid, extra, detail", [
    ({"n": [0, 3], "r": [-1, 2]}, None,
     "error: parameter bindings must be integers >= 0, got -1"),
    ({"r": [0, 2], "n": [0, 3], "s": [1, 2]}, {"term": "1/(n-r)"},
     "error: prefactor denominator vanishes at (n, k) = (0, 0)"),
    ({"n": [0, 3], "r": [0, 2]}, {"sum": "binom(n,k)", "from": "0", "to": "q"},
     "error: unbound parameter(s): q"),
    ({"n": [0, 4], "r": [1, 2]}, {"term": "binom(n,2)*binom(2,n)"},
     "side 1 gives 4 but side 2 gives 3 at n=2, r=1"),
])
def test_sum_identity_edges_match_the_reference(grid, extra, detail):
    sides = copy.deepcopy(IDENTITIES[2][0])
    if extra:
        sides[0].append(extra)
    case = {"id": "edge", "kind": "sum_identity", "grid": grid, "sides": sides}
    assert run_case(case).detail == detail
    assert _reference_run(case) == (False, detail)


def test_a_negative_value_of_an_unused_parameter_fails_where_it_did():
    """Side 1 uses no parameter, so its plan is shared by every s; the
    binding is still checked whole at the first point with s = -1."""
    case = {"id": "neg", "kind": "sum_identity", "grid": {"s": [-1, 1], "n": [0, 2]},
            "sides": copy.deepcopy(IDENTITIES[0][0])}
    detail = "error: parameter bindings must be integers >= 0, got -1"
    assert run_case(case).detail == detail
    assert _reference_run(case) == (False, detail)


# ---------------------------------------------------------------------------
# malformed manifest fields


def _transform_case(**fields):
    return dict({"id": "bad", "kind": "transform_identity", "sequences": ["catalan"],
                 "grid": {"total_max": 3}}, **fields)


def _sum_case(grid=None, sides=None):
    return {"id": "bad", "kind": "sum_identity", "grid": grid or {"n": [0, 3]},
            "sides": sides or [[{"sum": "binom(n,k)", "from": "0", "to": "n"}],
                               [{"term": "2^n"}]]}


@pytest.mark.parametrize("case, detail", [
    (_transform_case(sequences=["binom_row"]),
     "error: \"sequences\" entry 'binom_row' is not of the form binom_row:<row>"),
    (_transform_case(sequences=["catalan", "random:3"]),
     "error: \"sequences\" entry 'random:3' is not of the form random:<count>:<seed>"),
    (_transform_case(sequences=["binom_column:x"]),
     "error: \"sequences\" entry 'binom_column:x' is not of the form binom_column:<column>"),
    (_transform_case(grid={"n_max": 3}), 'error: the grid has no "m_max" field'),
    (_transform_case(grid={"total_max": 2.5}), 'error: "total_max" must be an integer, got 2.5'),
    ({"id": "bad", "kind": "power_identity", "n_max": 3},
     'error: the case has no "m_max" field'),
    ({"id": "bad", "kind": "lower_triangle_identity", "n_max": True},
     'error: "n_max" must be an integer, got True'),
    ({"id": "bad", "kind": "convolution_identity", "checks": ["catalan_convolution"],
      "order": "8"}, "error: \"order\" must be an integer, got '8'"),
    (_sum_case(sides=[[{"sum": "binom(n,k)", "from": "0"}], [{"term": "2^n"}]]),
     'error: a sum component has no "to" field'),
    (_sum_case(grid={"n": [0, 3, 5]}),
     'error: grid "n" must be [lo, hi] with int lo and hi, got [0, 3, 5]'),
    (_sum_case(grid={"n": [0, 2.5]}),
     'error: grid "n" must be [lo, hi] with int lo and hi, got [0, 2.5]'),
    (_sum_case(grid={"n": [0, 3], "k": [0, 2]}),
     'error: grid "k" binds the summation variable k'),
    (_sum_case(sides=[[{"sum": "binom(n,k)", "from": "0", "to": "n+k"}], [{"term": "2^n"}]]),
     "error: \"to\" form 'n+k' involves k, the summation variable"),
    ({"id": "bad", "kind": "convolution_identity", "checks": "catalan_convolution"},
     "error: \"checks\" must be a list, got 'catalan_convolution'"),
    ({"id": "bad", "kind": "convolution_identity", "checks": [["shifted_central"]]},
     "error: unknown series check ['shifted_central']"),
    (_transform_case(sequences="catalan"), "error: \"sequences\" must be a list, got 'catalan'"),
    (_transform_case(sequences=[3]), "error: unknown sequence spec 3"),
    (_transform_case(grid=[3]), 'error: "grid" must be an object, got [3]'),
    (_sum_case(sides="ab"), "error: \"sides\" must be a list, got 'ab'"),
    (_sum_case(grid=[["n", 0, 2]]), "error: \"grid\" must be an object, got [['n', 0, 2]]"),
    (_sum_case(sides=[{"term": "2^n"}, [{"term": "2^n"}]]),
     "error: \"sides\" must be a list of lists of objects, got "
     "[{'term': '2^n'}, [{'term': '2^n'}]]"),
    (_sum_case(sides=[["term"], [{"term": "2^n"}]]),
     "error: \"sides\" must be a list of lists of objects, got [['term'], [{'term': '2^n'}]]"),
    (_sum_case(sides=[[{"sum": "binom(n,k)", "from": 0, "to": "n"}], [{"term": "2^n"}]]),
     'error: "from" must be a string, got 0'),
    (_sum_case(sides=[[{"term": 2}], [{"term": "2^n"}]]), 'error: "term" must be a string, got 2'),
], ids=["binom_row-without-row", "random-without-seed", "binom_column-not-int",
        "missing-m_max", "fractional-total_max", "power-missing-m_max", "bool-n_max",
        "string-order", "missing-to", "three-bounds", "fractional-bound", "grid-binds-k",
        "limit-involves-k", "checks-not-a-list", "check-not-a-string", "sequences-not-a-list",
        "sequence-not-a-string", "transform-grid-not-an-object", "sides-not-a-list",
        "grid-not-an-object", "side-an-object", "component-not-an-object", "int-from",
        "int-term"])
def test_a_malformed_field_fails_with_a_detail_naming_it(case, detail):
    result = run_case(case)
    assert not result.ok
    assert result.detail == detail
