"""Identity-suite loading, execution, mutation fixtures, and reporting."""

from __future__ import annotations

import copy
import json
from importlib import resources
from pathlib import Path

import pytest

from telesum.suite import (
    CaseResult,
    bundled_suite,
    load_suite,
    mutation_catalog,
    report_lines,
    run_case,
    run_identity_suite,
)

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
    """p11916's 1728 grid points share 144 bindings of (r, s); each side's
    term is bound once for each of them, and again in the next case."""
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
        assert len(bindings) == runs * 2 * 144
    assert len(set(bindings)) == 144


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
