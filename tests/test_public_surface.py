"""The public surface, pinned: ``telesum.__all__`` with the signature of each
name, the CLI's subcommands and flags, and its exit codes.

A change to any of them fails here, so it is made on purpose: edit the
expected values below in the same change, and note it in CHANGES.md.
"""

from __future__ import annotations

import argparse
import inspect
import operator
from fractions import Fraction

import pytest

import telesum
from telesum import cli

SIGNATURES = {
    "BoundaryCheckError": "Exception(...)",
    "CaseResult": "(case_id: 'str', ok: 'bool', detail: 'str', elapsed: 'float') -> None",
    "DegenerateSampleError": "TermError(...)",
    "GosperCertificate": (
        "(term: 'HyperTerm', integer_form: 'IntegerNormalForm', "
        "x_pair: 'tuple[Polynomial, Polynomial]', certificate_pair: 'tuple[Polynomial, "
        "Polynomial]') -> None"),
    "HyperTerm": (
        "(factors: 'Iterable[tuple[Factor, int]]', prefactor: 'tuple[Polynomial, "
        "Polynomial]')"),
    "NoRecurrenceFound": "(max_order: 'int') -> 'None'",
    "NotSummableError": "(reason: 'str') -> 'None'",
    "ParseError": "(message: 'str', pos: 'int', text: 'str' = '') -> 'None'",
    "PoleError": "(message: 'str', point: 'tuple[int, int] | None' = None) -> 'None'",
    "Polynomial": "(coeffs: 'Sequence[ZnPoly]') -> 'None'",
    "PowerSeries": '(coeffs: \'Iterable[Fraction | int]\') -> "\'PowerSeries\'"',
    "RationalFunction": "(num: 'Polynomial', den: 'Polynomial | None' = None) -> 'None'",
    "Recurrence": "(coeffs: 'tuple[ZnPoly, ...]') -> None",
    "RecurrenceCheckError": "Exception(...)",
    "SequenceSpec": "(name: 'str', length: 'int', _values: 'tuple[Fraction, ...]') -> None",
    "TelescopingCertificate": (
        "(term: 'HyperTerm', recurrence: 'Recurrence', "
        "certificate_pair: 'tuple[Polynomial, Polynomial]') -> None"),
    "TermError": "Exception(...)",
    "UnboundParameterError": "TermError(...)",
    "VerificationError": "Exception(...)",
    "WZPair": "(f: 'HyperTerm', g: 'HyperTerm', coeffs: 'tuple[ZnPoly, ...]') -> None",
    "ZnPoly": "(coeffs: 'Iterable[int]' = ()) -> \"'ZnPoly'\"",
    "ballot_gf": "(k: 'int', order: 'int') -> 'PowerSeries'",
    "bundled_suite": "() -> 'dict'",
    "catalan_gf": "(order: 'int') -> 'PowerSeries'",
    "catalan_sequence": "(length: 'int' = 64) -> 'SequenceSpec'",
    "central_binomial_gf": "(order: 'int') -> 'PowerSeries'",
    "check_binomial_transform": "(seq: 'SequenceSpec', n: 'int', m: 'int') -> 'bool'",
    "check_boundary_couple": (
        "(f1: 'HyperTerm', g1: 'HyperTerm', upper1: 'str', f2: 'HyperTerm', "
        "g2: 'HyperTerm', upper2: 'str', coeffs: 'tuple[ZnPoly, ...]', "
        "rhs: 'HyperTerm', binding: 'ParamBinding', n_lo: 'int' = 1, "
        "n_hi: 'int' = 12) -> 'None'"),
    "check_convolution_11897": "(order: 'int' = 64) -> 'bool'",
    "check_lower_triangle_identity": "(n: 'int') -> 'bool'",
    "check_shifted_central_identity": "(order: 'int' = 64) -> 'bool'",
    "check_transform_power_identity": "(n: 'int', m: 'int') -> 'bool'",
    "creative_telescope": (
        "(term: 'HyperTerm', max_order: 'int' = 6) -> 'TelescopingCertificate'"),
    "degree_bound": "(nf: 'IntegerNormalForm', rhs_extra: 'int' = 0) -> 'int | None'",
    "dispersion_set": "(p: 'Polynomial', q: 'Polynomial') -> 'list[int]'",
    "eval_term": "(term: 'HyperTerm', n: 'int', k: 'int') -> 'Fraction'",
    "gosper_antidifference": "(term: 'HyperTerm') -> 'GosperCertificate'",
    "gosper_normal_form": "(ratio: 'RationalFunction') -> 'IntegerNormalForm'",
    "integer_roots": "(p: 'ZnPoly') -> 'list[int]'",
    "known_gf": "(name: 'str', order: 'int', family_index: 'int | None' = None) -> 'PowerSeries'",
    "load_suite": "(path: 'str') -> 'dict'",
    "mutation_catalog": "() -> 'list[dict]'",
    "natural_sum": "(term: 'HyperTerm', n: 'int') -> 'Fraction'",
    "operator_equal": "(r1: 'Recurrence', r2: 'Recurrence') -> 'bool'",
    "oracle_sum": "(term: 'HyperTerm', n: 'int', k_lo: 'int', k_hi: 'int') -> 'Fraction'",
    "parse_term": "(text: 'str', binding: 'ParamBinding | None' = None) -> 'HyperTerm'",
    "poly_gcd": "(p: 'Polynomial', q: 'Polynomial') -> 'Polynomial'",
    "poly_lcm": "(p: 'Polynomial', q: 'Polynomial') -> 'Polynomial'",
    "report_lines": "(results: 'list[CaseResult]') -> 'list[str]'",
    "resultant": "(p: 'Polynomial', q: 'Polynomial') -> 'ZnPoly'",
    "run_case": "(case: 'dict') -> 'CaseResult'",
    "run_identity_suite": "(manifest: 'dict') -> 'list[CaseResult]'",
    "shift_quotient": "(term: 'HyperTerm', var: 'str') -> 'RationalFunction'",
    "shifted_central_gf": "(order: 'int') -> 'PowerSeries'",
    "sum_recurrence_natural": (
        "(term: 'HyperTerm', recurrence: 'Recurrence', "
        "n_lo: 'int' = 0, n_hi: 'int' = 25, "
        "rhs: 'Callable[[int], Fraction] | None' = None) -> 'dict[int, Fraction]'"),
    "telescoped_sum": "(cert: 'GosperCertificate', n: 'int', lo: 'int', hi: 'int') -> 'Fraction'",
    "term_ratio_is_one": "(t1: 'HyperTerm', t2: 'HyperTerm') -> 'bool'",
    "term_to_string": "(term: 'HyperTerm') -> 'str'",
}

# Methods of public classes whose signature changed on purpose.
METHOD_SIGNATURES = {
    "Polynomial.shift": "(self, j: 'int') -> \"'Polynomial'\"",
}

SUBCOMMANDS = {
    "gosper": ["-h", "term", "--param", "--machine"],
    "zeil": ["-h", "term", "--jmax", "--param", "--machine"],
    "wz-check": ["-h", "f_term", "g_term", "--coeff", "--param", "--machine"],
    "sum": ["-h", "term", "--n", "--from", "--to", "--param", "--machine"],
    "series": ["-h", "name", "--order", "--family-index", "--machine"],
    "suite": ["-h", "path", "--machine"],
}

EXIT_CODES = {
    "EXIT_OK": 0,
    "EXIT_USAGE": 1,
    "EXIT_NOT_SUMMABLE": 2,
    "EXIT_SEARCH_EXHAUSTED": 3,
    "EXIT_VERIFICATION": 4,
    "EXIT_BROKEN_PIPE": 141,
}


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except ValueError:  # an exception class that keeps its base's constructor
        return f"{obj.__mro__[1].__name__}(...)"


def test_all_names_the_pinned_surface():
    assert sorted(telesum.__all__) == list(SIGNATURES)


def test_each_public_name_keeps_its_signature():
    assert {name: _signature(getattr(telesum, name)) for name in telesum.__all__} == SIGNATURES


def test_pinned_methods_keep_their_signatures():
    got = {label: _signature(operator.attrgetter(label)(telesum)) for label in METHOD_SIGNATURES}
    assert got == METHOD_SIGNATURES


BINDING_SITES = {"parse_term", "parse_n_polynomial", "check_boundary_couple"}


def test_parameters_are_bound_only_at_parse_time_or_on_the_term():
    """Solvers and oracles take bound terms: outside the parsers, the terms'
    ``bind`` and ``check_boundary_couple`` (which reads its upper limits from
    the binding), no public callable or public method takes a binding."""
    takers = []
    for name in telesum.__all__:
        obj = getattr(telesum, name)
        members = [(name, obj)] + [
            (f"{name}.{attr}", fn) for attr, fn in vars(obj).items()
            if isinstance(obj, type) and callable(fn) and not attr.startswith("_")
            and attr != "bind"
        ]
        for label, fn in members:
            try:
                params = inspect.signature(fn).parameters
            except (TypeError, ValueError):
                continue
            if "binding" in params:
                takers.append(label)
    assert sorted(takers) == sorted(BINDING_SITES & set(telesum.__all__))
    assert "binding" in inspect.signature(telesum.hyperterm.parse_n_polynomial).parameters


def test_rational_function_is_a_value_with_no_arithmetic():
    """Q(n)(k) arithmetic on pairs goes through ``zn_reduced`` or the
    factored path; the value type only compares, hashes, evaluates and prints."""
    f = telesum.RationalFunction(telesum.Polynomial((telesum.ZnPoly((0, 1)),)))
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.pow):
        for left, right in ((f, f), (f, 2), (2, f)):
            with pytest.raises(TypeError):
                op(left, right)
    with pytest.raises(TypeError):
        -f
    assert not any(hasattr(f, name) for name in ("shift", "reciprocal", "is_one"))
    half = Fraction(1, 2)
    assert telesum.RationalFunction(half) == half and hash(telesum.RationalFunction(half)) == hash(half)


def test_power_series_has_only_the_product_and_powers():
    """Sums, differences, quotients and scalar multiples of series are linear
    steps on ``as_integer_ratio()`` rows, f/g is ``f * g.inverse()``."""
    s = telesum.PowerSeries([1, 2, 3])
    for op in (operator.add, operator.sub, operator.truediv):
        for left, right in ((s, s), (s, 2), (2, s)):
            with pytest.raises(TypeError):
                op(left, right)
    for scalar in (2, Fraction(1, 2)):
        for left, right in ((s, scalar), (scalar, s)):
            with pytest.raises(TypeError):
                left * right
    with pytest.raises(TypeError):
        -s
    assert not any(hasattr(s, name) for name in ("truncate", "shift_down"))
    assert s * s == telesum.PowerSeries([1, 4, 10]) and s ** -1 == s.inverse()


def test_cli_subcommands_and_flags():
    parser = cli.build_parser()
    assert [a.option_strings for a in parser._actions if a.option_strings] == [["-h", "--help"]]
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {
        name: [a.option_strings[0] if a.option_strings else a.dest for a in p._actions]
        for name, p in sub.choices.items()
    } == SUBCOMMANDS


def test_cli_exit_codes():
    assert {name: value for name, value in vars(cli).items() if name.startswith("EXIT_")} == (
        EXIT_CODES)
