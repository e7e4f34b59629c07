"""Command-line front end.

Exit codes: 0 success, 1 usage or parse problems, 2 not summable,
3 a search bound was exhausted, 4 a verification failure, 141 (128 +
SIGPIPE) when the reader closed stdout early.  ``zeil`` exits 3 with
status ``gosper_summable`` when the search ends at order 0: the summand
itself telescopes, so its sums are boundary terms G(n,hi+1) - G(n,lo),
G = R*F, and no homogeneous recurrence is claimed.  Output is
deterministic for identical inputs; --machine switches to JSON lines
with every integer rendered as a decimal string.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from .gosper import NotSummableError, gosper_antidifference
from .hyperterm import (
    HyperTerm,
    LinearForm,
    ParseError,
    PoleError,
    UnboundParameterError,
    parse_linear_form,
    parse_n_polynomial,
    parse_term,
)
from .polynomials import ZN_ONE, Polynomial, ZnPoly
from .serialize import ratfun_to_record, ratfun_to_text
from .series import known_gf
from .suite import load_suite, report_lines, run_identity_suite
from .verify import WZPair, oracle_sum
from .zeilberger import (
    BoundaryCheckError,
    NoRecurrenceFound,
    creative_telescope,
    natural_sum,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_SUMMABLE = 2
EXIT_SEARCH_EXHAUSTED = 3
EXIT_VERIFICATION = 4
EXIT_BROKEN_PIPE = 141

# Largest --order of `series`, and --family-index of ballot.  The worst case,
# `telesum series ballot --order 512 --family-index 512`, takes about 0.06 s
# in-process and 0.3 s as a whole process, start-up included, on a 2-CPU
# Xeon: one power to order 1024, then 512 rows of subtractions.
MAX_SERIES_ORDER = 512


class _UsageError(Exception):
    pass


class _Argv(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _integer(text: str) -> int:
    """The integer syntax of every flag: an optional '-', then ASCII digits.
    int() alone would also take '1_0', '+5', ' 5' and non-ASCII digits."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _parse_params(pairs: list[str]) -> dict[str, int]:
    binding = {}
    for pair in pairs:
        name, _, value = pair.partition("=")  # no '=' leaves the value empty
        try:
            v = _integer(value)
        except argparse.ArgumentTypeError:
            v = None
        if not name or v is None:
            raise _UsageError(f"--param expects NAME=INT, got {pair!r}")
        if len(name) != 1 or not name.islower() or name in ("n", "k"):
            raise _UsageError(f"parameter must be a single letter other than n, k: {name!r}")
        if v < 0:
            raise _UsageError(f"parameter {name} must be >= 0, got {v}")
        if name in binding:
            raise _UsageError(f"parameter {name} is bound more than once")
        binding[name] = v
    return binding


def _nonzero(term: HyperTerm, name: str) -> HyperTerm:
    if not term.prefactor[0]:
        raise _UsageError(f"{name} is identically zero")
    return term


def _summand(args) -> HyperTerm:
    """The term of a gosper or zeil command, bound to its --param values."""
    return _nonzero(parse_term(args.term, _parse_params(args.param)), "the summand")


def _stringify(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    return obj


def _emit(args, record, text) -> None:
    """Print record as a --machine JSON line, else text; a callable given for
    either side is called only when that side is printed."""
    out = record if args.machine else text
    out = out() if callable(out) else out
    print(json.dumps(_stringify(out), separators=(", ", ": ")) if args.machine else out)


def _caret_diagnostic(err: ParseError) -> str:
    lines = [f"parse error: {err}"]
    if err.text:
        lines.append("  " + err.text)
        lines.append("  " + " " * err.pos + "^")
    return "\n".join(lines)


def _cmd_gosper(args) -> int:
    term = _summand(args)
    try:
        cert = gosper_antidifference(term)
    except NotSummableError as exc:
        _emit(args, {"status": "not_summable", "reason": exc.reason},
              f"not summable: {exc.reason}")
        return EXIT_NOT_SUMMABLE
    _emit(args, lambda: {"status": "ok", "term": args.term, **cert.record()},
          lambda: f"summable: G(n,k) = R(n,k) * F(n,k) telescopes F\n{cert.text()}")
    return EXIT_OK


def _cmd_zeil(args) -> int:
    if args.jmax < 1:
        raise _UsageError(f"--jmax must be >= 1, got {args.jmax}")
    term = _summand(args)
    try:
        cert = creative_telescope(term, max_order=args.jmax)
    except NoRecurrenceFound as exc:
        _emit(args, {"status": "no_recurrence", "max_order": exc.max_order},
              f"no recurrence found: {exc}")
        return EXIT_SEARCH_EXHAUSTED
    if cert.recurrence.order == 0:  # F itself telescopes: its sums are boundary terms, not 0
        r = cert.certificate_pair
        _emit(args, lambda: {"status": "gosper_summable", "R": ratfun_to_record(r)},
              lambda: "no recurrence: the summand is Gosper-summable; its sum over k = lo..hi is"
              f" G(n,hi+1) - G(n,lo) with G = R(n,k)*F(n,k)\nR(n,k) = {ratfun_to_text(r)}")
        return EXIT_SEARCH_EXHAUSTED
    _emit(args, lambda: {"status": "ok", "term": args.term, **cert.record()}, cert.text)
    return EXIT_OK


def _cmd_wz_check(args) -> int:
    binding = _parse_params(args.param)
    f = _nonzero(parse_term(args.f_term, binding), "F")
    g = parse_term(args.g_term, binding)
    try:
        parsed = [parse_n_polynomial(c, binding) for c in args.coeff]
    except ValueError as exc:
        raise _UsageError(f"operator coefficient {exc}") from None
    # Coefficients p/d are cleared by e = lcm(d): the identity times e holds
    # exactly when it does, with G times e.
    e = math.lcm(*(d for _, d in parsed))
    coeffs = tuple(p * ZnPoly((e // d,)) for p, d in parsed)
    if e > 1:
        g = g.scale_rational((Polynomial((ZnPoly((e,)),)), Polynomial((ZN_ONE,))))
    try:
        pair = WZPair(f, g, coeffs)
        ok = pair.check()
    except ValueError as exc:
        _emit(args, {"status": "fail", "reason": str(exc)}, f"WZ check failed: {exc}")
        return EXIT_VERIFICATION
    if ok:
        _emit(args, {"status": "ok"}, "WZ pair verified")
        return EXIT_OK
    reason = "telescoping identity does not hold"
    _emit(args, {"status": "fail", "reason": reason}, f"WZ check failed: {reason}")
    return EXIT_VERIFICATION


def _k_bound(text: str, flag: str) -> LinearForm:
    form = parse_linear_form(text)
    if form.coeff_k:
        raise _UsageError(f"{flag} may not involve k: {text!r}")
    return form


def _cmd_sum(args) -> int:
    binding = _parse_params(args.param)
    term = parse_term(args.term, binding)
    n_lo, n_hi = args.n
    if n_hi < n_lo:
        raise _UsageError("--n expects LO HI with LO <= HI")
    explicit = args.k_from is not None or args.k_to is not None
    if explicit and (args.k_from is None or args.k_to is None):
        raise _UsageError("--from and --to must be given together")
    if explicit:
        lo_form = _k_bound(args.k_from, "--from").bind(binding)
        hi_form = _k_bound(args.k_to, "--to").bind(binding)
    rows = []
    for n in range(n_lo, n_hi + 1):
        if explicit:
            lo, hi = lo_form.evaluate(n, 0), hi_form.evaluate(n, 0)
            rows.append((n, oracle_sum(term, n, lo, hi)))
        else:
            rows.append((n, natural_sum(term, n)))
    for n, value in rows:
        _emit(args, {"n": n, "value": value}, f"{n}: {value}")
    return EXIT_OK


def _cmd_series(args) -> int:
    if args.order < 0:
        raise _UsageError(f"--order must be >= 0, got {args.order}")
    if args.order > MAX_SERIES_ORDER:
        raise _UsageError(f"--order must be <= {MAX_SERIES_ORDER}, got {args.order}")
    if args.family_index is not None and args.name != "ballot":
        raise _UsageError(f"--family-index applies only to ballot, not {args.name!r}")
    if (args.family_index or 0) < 0:
        raise _UsageError(f"--family-index must be >= 0, got {args.family_index}")
    if (args.family_index or 0) > MAX_SERIES_ORDER:
        raise _UsageError(f"--family-index must be <= {MAX_SERIES_ORDER}, got {args.family_index}")
    try:
        gf = known_gf(args.name, args.order, args.family_index)
    except KeyError as exc:  # an unknown series name
        raise _UsageError(exc.args[0]) from None
    nums, den = gf.as_integer_ratio()
    values = nums if den == 1 else [Fraction(c, den) for c in nums]
    # One print of the whole answer.  Its newline is a write of its own, which
    # meets a reader that left early even where stdout is unbuffered and a
    # short write of the body goes unreported.
    line = '{{"index": "{}", "value": "{}"}}' if args.machine else "{}: {}"
    print("\n".join(map(line.format, range(len(values)), values)))
    return EXIT_OK


def _cmd_suite(args) -> int:
    try:
        manifest = load_suite(args.path)
    except (FileNotFoundError, ValueError) as exc:
        raise _UsageError(str(exc)) from None
    results = run_identity_suite(manifest)
    if args.machine:
        for r in results:
            _emit(args, {"case": r.case_id, "ok": r.ok, "detail": r.detail}, None)
    else:
        for line in report_lines(results):
            print(line)
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFICATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once: parse_args keeps no state in it."""
    top = _Argv(
        prog="telesum",
        description="Exact summation toolkit: indefinite and definite "
        "hypergeometric summation with checkable certificates.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, param=True):
        if param:
            p.add_argument(
                "--param",
                action="append",
                default=[],
                metavar="NAME=INT",
                help="bind an auxiliary parameter (repeatable)",
            )
        p.add_argument(
            "--machine", action="store_true", help="JSON-lines output, ints as strings"
        )

    p = sub.add_parser("gosper", help="indefinite summation certificate for a term")
    p.add_argument("term")
    common(p)
    p.set_defaults(fn=_cmd_gosper)

    p = sub.add_parser("zeil", help="telescoping recurrence for a definite sum")
    p.add_argument("term")
    p.add_argument("--jmax", type=_integer, default=6, help="largest recurrence order tried")
    common(p)
    p.set_defaults(fn=_cmd_zeil)

    p = sub.add_parser("wz-check", help="verify a summand/companion telescoping pair")
    p.add_argument("f_term")
    p.add_argument("g_term")
    p.add_argument(
        "--coeff",
        action="append",
        required=True,
        metavar="POLY",
        help="operator coefficient of w(n+j), in order from j=0 (repeatable)",
    )
    common(p)
    p.set_defaults(fn=_cmd_wz_check)

    p = sub.add_parser("sum", help="exact sums of a term over k for a range of n")
    p.add_argument("term")
    p.add_argument("--n", type=_integer, nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--from", dest="k_from", metavar="EXPR", help="lower k bound, linear in n")
    p.add_argument("--to", dest="k_to", metavar="EXPR", help="upper k bound, linear in n")
    common(p)
    p.set_defaults(fn=_cmd_sum)

    p = sub.add_parser("series", help="coefficients of a bundled generating function")
    p.add_argument("name")
    p.add_argument("--order", type=_integer, default=64)
    p.add_argument("--family-index", type=_integer, default=None)
    common(p, param=False)
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("suite", help="run an identity suite manifest")
    p.add_argument("path")
    common(p, param=False)
    p.set_defaults(fn=_cmd_suite)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(_caret_diagnostic(exc), file=sys.stderr)
        return EXIT_USAGE
    except UnboundParameterError as exc:
        print(f"usage error: {exc} (use --param NAME=INT)", file=sys.stderr)
        return EXIT_USAGE
    except BoundaryCheckError as exc:
        print(f"search bound exhausted: {exc}", file=sys.stderr)
        return EXIT_SEARCH_EXHAUSTED
    except PoleError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: end quietly, as Unix filters do
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    run()
