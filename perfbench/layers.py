"""Layer timings and work-size facts, taken from outside the program.

The benchmark never edits telesum.  It rebinds public functions of each
module to timing wrappers while a traced pass runs.  telesum's modules import
functions from one another by name, so a wrapper replaces the function under
every name in every telesum module that holds it; methods and the
RationalFunction constructor are replaced on their class.

Spans (name, start, end, parent span, request) stay in memory and are written
out when the run ends.  A layer's self time is its span's duration minus the
time its wrapped callees took.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from types import ModuleType

MODULES = (
    "hyperterm", "polynomials", "linalg", "gosper", "zeilberger",
    "verify", "series", "suite", "serialize", "cli",
)

# (module, public name).  "Class" wraps construction; "Class.method" a method.
LAYER_FUNCTIONS = (
    ("hyperterm", "parse_term"),
    ("hyperterm", "eval_term"),
    ("hyperterm", "shift_quotient"),
    ("polynomials", "RationalFunction"),
    ("polynomials", "poly_gcd"),
    ("polynomials", "poly_lcm"),
    ("polynomials", "dispersion_set"),
    ("polynomials", "clear_qnk_pair"),
    ("linalg", "nullspace"),
    ("linalg", "solve_linear_system"),
    ("gosper", "gosper_normal_form"),
    ("gosper", "degree_bound"),
    ("gosper", "gosper_antidifference"),
    ("zeilberger", "creative_telescope"),
    ("zeilberger", "TelescopingCertificate.check"),
    ("verify", "oracle_sum"),
    ("verify", "check_binomial_transform"),
    ("series", "PowerSeries.mul"),
    ("series", "PowerSeries.sqrt"),
    ("series", "PowerSeries.inverse"),
    ("suite", "run_case"),
    ("serialize", "ratfun_to_text"),
    ("cli", "main"),
)

# Method names behind a layer name where Python spells them differently.
_METHOD_ATTRS = {"mul": ("__mul__", "__rmul__")}

# Spans kept per layer; calls past this are still counted and timed.
SPAN_CAP = 2000


def _telesum_modules() -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "telesum" or name.startswith("telesum."))]


def _sites(module: str, name: str) -> list[tuple[object, str]]:
    """Every (owner, attribute) through which telesum reaches the layer."""
    mod = sys.modules[f"telesum.{module}"]
    head, _, method = name.partition(".")
    target = getattr(mod, head)
    if isinstance(target, type):
        attrs = _METHOD_ATTRS.get(method, (method,)) if method else ("__init__",)
        return [(target, a) for a in attrs]
    return [(m, attr) for m in _telesum_modules()
            for attr, value in vars(m).items() if value is target]


class _Patch:
    """Replaces attributes and puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, sites, make_wrapper) -> None:
        originals = {id(getattr(owner, attr)): getattr(owner, attr) for owner, attr in sites}
        wrappers = {key: make_wrapper(fn) for key, fn in originals.items()}
        for owner, attr in sites:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


class Tracer:
    """Per-layer call counts and self time, plus spans, while installed."""

    def __init__(self) -> None:
        self.stats = {f"{m}.{n}": [0, 0.0] for m, n in LAYER_FUNCTIONS}
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._request = 0
        self._patch = _Patch()
        self._sites = {f"{m}.{n}": _sites(m, n) for m, n in LAYER_FUNCTIONS}

    def install(self) -> None:
        for name, sites in self._sites.items():
            self._patch.wrap(sites, lambda fn, name=name: self._wrapper(name, fn))

    def uninstall(self) -> None:
        self._patch.restore()

    @contextlib.contextmanager
    def request(self, label: str):
        """Root span of one request; the layer spans inside it share its id."""
        self._next_id += 1
        self._request = rid = self._next_id
        frame = [0.0, rid]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append((rid, None, rid, label, start, time.perf_counter()))

    def _wrapper(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [0.0, self._next_id]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stat[0] += 1
                stat[1] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if stat[0] <= SPAN_CAP:
                    spans.append((frame[1], parent, self._request, name, start, end))

        traced.__wrapped__ = fn
        return traced

    def metrics(self, passes: int) -> dict[str, float]:
        """calls and self_s per traced pass, per layer and per module."""
        out: dict[str, float] = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls / passes
            out[f"{name}.self_s"] = self_s / passes
            module_self[name.split(".", 1)[0]] += self_s / passes
        for module, self_s in module_self.items():
            out[f"{module}.self_s"] = self_s
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, rid, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": rid,
                                     "name": name, "start": start, "end": end}) + "\n")


class Facts:
    """Work-size facts of each request, recorded in every run.

    Light wrappers note the shape of each nullspace system, each degree
    bound, and each creative_telescope outcome.  The certificate's size is
    read from its public record after the request's timing has stopped.
    """

    def __init__(self) -> None:
        self._patch = _Patch()
        self._current: dict = {}
        self._certs: list = []

    def install(self) -> None:
        self._patch.wrap(_sites("linalg", "nullspace"), self._on_nullspace)
        self._patch.wrap(_sites("gosper", "degree_bound"), self._on_degree_bound)
        self._patch.wrap(_sites("zeilberger", "creative_telescope"), self._on_telescope)

    def uninstall(self) -> None:
        self._patch.restore()

    def begin(self) -> None:
        self._current = {}
        self._certs = []

    def take(self) -> tuple[dict, list]:
        """What the request since begin() recorded; cheap, so it may run
        inside the timed region."""
        return self._current, self._certs

    @staticmethod
    def finish(raw: tuple[dict, list] | None) -> dict:
        """Facts of one request, with the certificate sizes; call outside
        the timed region and outside any traced pass."""
        if raw is None:
            return {}
        facts, certs = raw
        for cert in certs:
            bits = _max_bits(cert.record())
            facts["certificate_bits"] = max(facts.get("certificate_bits", 0), bits)
        return facts

    def _bump_max(self, key: str, value: int) -> None:
        self._current[key] = max(self._current.get(key, value), value)

    def _on_nullspace(self, fn):
        def noted(matrix, *args, **kwargs):
            ncols = kwargs.get("ncols")
            if ncols is None:
                ncols = args[1] if len(args) > 1 else (len(matrix[0]) if matrix else 0)
            self._bump_max("nullspace_rows", len(matrix))
            self._bump_max("nullspace_cols", ncols)
            return fn(matrix, *args, **kwargs)
        return noted

    def _on_degree_bound(self, fn):
        def noted(*args, **kwargs):
            d = fn(*args, **kwargs)
            if d is not None:
                self._bump_max("degree_bound", d)
            return d
        return noted

    def _on_telescope(self, fn):
        from telesum.zeilberger import NoRecurrenceFound

        def noted(*args, **kwargs):
            cur = self._current
            try:
                cert = fn(*args, **kwargs)
            except NoRecurrenceFound as exc:
                cur["orders_tried"] = cur.get("orders_tried", 0) + exc.max_order
                raise
            cur["orders_tried"] = cur.get("orders_tried", 0) + cert.recurrence.order
            cur["orders_found"] = cur.get("orders_found", 0) + 1
            self._certs.append(cert)
            return cert
        return noted


def _max_bits(obj) -> int:
    """Largest bit length of an integer in a record of decimal strings."""
    if isinstance(obj, dict):
        return max((_max_bits(v) for v in obj.values()), default=0)
    if isinstance(obj, (list, tuple)):
        return max((_max_bits(v) for v in obj), default=0)
    if isinstance(obj, str):
        try:
            return int(obj).bit_length()
        except ValueError:
            return 0
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj.bit_length()
    return 0


def aggregate_facts(per_item: list[dict], passes: int) -> dict[str, float]:
    """Run-level facts: maxima of sizes, per-pass totals of orders."""
    def top(key):
        return max((f.get(key, 0) for f in per_item), default=0)

    tried = sum(f.get("orders_tried", 0) for f in per_item)
    found = sum(f.get("orders_found", 0) for f in per_item)
    return {
        "linalg.nullspace.max_rows": top("nullspace_rows"),
        "linalg.nullspace.max_cols": top("nullspace_cols"),
        "gosper.degree_bound.max": top("degree_bound"),
        "zeilberger.orders_tried": tried / passes,
        "zeilberger.useful_attempt_ratio": found / tried if tried else 0.0,
        "zeilberger.certificate_bits": top("certificate_bits"),
    }
