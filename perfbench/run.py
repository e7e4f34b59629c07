"""telesum benchmark: one closed-loop workload per run, every answer checked.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  With --trace 0 the last line of stdout is a JSON object
holding the end-to-end metrics; with --trace 1 it holds the per-layer
metrics.  perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference_facts.json"

REQUEST_CAP_S = 30.0  # a request still running after this is a timeout
RUN_LIMIT_S = 165.0  # no request runs past this point of the run
SETUP_LAUNCHES = 9  # timed fresh-interpreter launches behind setup_s
PROBE_TIMEOUT_S = 60.0


class RequestTimeout(BaseException):
    """Raised by the interval timer; BaseException so no handler inside
    telesum turns it into an ordinary failure."""


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _require_program() -> None:
    if not (SRC / "telesum" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {SRC / 'telesum'} is missing")


def _import_program():
    """Import telesum from this checkout's src/, or exit without a result."""
    _require_program()
    sys.path.insert(0, str(SRC))
    import telesum
    import telesum.cli  # noqa: F401  (the CLI is part of what a user loads)

    if SRC.resolve() not in Path(telesum.__file__).resolve().parents:
        sys.exit(f"perfbench: imported telesum from {telesum.__file__}, not from {SRC}")
    return telesum


# ---------------------------------------------------------------------------
# set-up time


def _probe(workload: str, seed: int, launched: float) -> None:
    """Child side of a set-up launch: import, build the inputs, report the
    time taken and the speed factor measured in this process right after."""
    _import_program()
    from workloads import WORKLOADS

    WORKLOADS[workload].build(seed)
    took = _clock() - launched
    sampler = SpeedSampler()
    for _ in range(5):
        sampler.sample()
    print(f"ready {took!r} {sampler.factor(0, math.inf)!r}", flush=True)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from launching a fresh interpreter until it is ready to send
    its first request, for SETUP_LAUNCHES launches after one warm-up: scaled
    to the reference machine speed, and raw."""
    scaled, raw = [], []
    for i in range(SETUP_LAUNCHES + 1):
        launched = _clock()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", repr(launched),
               "--workload", workload, "--seed", str(seed)]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
        try:
            out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        words = out.decode().split()
        if proc.returncode != 0 or len(words) != 3 or words[0] != "ready":
            sys.exit(f"perfbench: set-up launch failed: {err.decode().strip()[-400:]}")
        if i:
            raw.append(float(words[1]))
            scaled.append(float(words[1]) * float(words[2]))
    return scaled, raw


# ---------------------------------------------------------------------------
# passes


def _on_alarm(signum, frame):
    raise RequestTimeout()


def run_request(item, facts, tracer, sampler, run_start: float) -> dict:
    """One request under the time cap; the answer is checked later.  Speed
    samples taken during the request are not part of its time."""
    sampler.bracket()
    cap = min(REQUEST_CAP_S, RUN_LIMIT_S - (_clock() - run_start))
    row = {"key": item.key, "kind": item.kind, "status": "ok"}
    facts.begin()
    spent = sampler.spent
    start, cpu = time.perf_counter(), time.process_time()
    if cap <= 0:
        row["status"] = "timeout"
    else:
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                if tracer:
                    with tracer.request(item.key):
                        result = item.call()
                else:
                    result = item.call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except RequestTimeout:
            row["status"] = "timeout"
        except Exception as exc:  # a request that raises is a failed request
            row["status"] = "error"
            row["reason"] = f"{type(exc).__name__}: {exc}"[:300]
        else:
            row["result"] = result
    end = time.perf_counter()
    taken = sampler.spent - spent
    row["raw_latency_s"] = end - start - taken
    row["raw_cpu_s"] = time.process_time() - cpu - taken
    row["span"] = (start, end)
    row["facts_raw"] = facts.take()
    return row


def run_pass(items, facts, tracer, run_start: float) -> dict:
    """One pass.  Its wall and CPU times are the sums over its requests,
    scaled to the reference machine speed.  Traced passes sample the speed
    only between requests, so that no sampling lands in a layer's self time;
    their scaled times are not reported."""
    sampler = SpeedSampler()
    if tracer:
        tracer.install()
    else:
        sampler.start()
    try:
        rows = [run_request(item, facts, tracer, sampler, run_start) for item in items]
    finally:
        if tracer:
            tracer.uninstall()
        else:
            sampler.stop()
    sampler.bracket()
    for row in rows:
        scale = sampler.factor(*row.pop("span"))
        row["latency_s"] = row["raw_latency_s"] * scale
        row["cpu_s"] = row["raw_cpu_s"] * scale
    return {"traced": bool(tracer), "rows": rows,
            "wall_s": sum(row["latency_s"] for row in rows),
            "cpu_s": sum(row["cpu_s"] for row in rows),
            "raw_wall_s": sum(row["raw_latency_s"] for row in rows),
            "raw_cpu_s": sum(row["raw_cpu_s"] for row in rows),
            "speed_samples": len(sampler.samples)}


def check_rows(items, passes, facts) -> None:
    """Check every answer and size the work, outside the timed region."""
    by_key = {item.key: item for item in items}
    for p in passes:
        for row in p["rows"]:
            row["facts"] = facts.finish(row.pop("facts_raw", None))
            if "result" not in row:
                row.setdefault("reason", row["status"])
                continue
            result = row.pop("result")
            try:
                reason = by_key[row["key"]].check(result)
            except Exception as exc:  # an answer the checker cannot read is wrong
                reason = f"unreadable answer: {type(exc).__name__}: {exc}"[:300]
            if reason:
                row["status"] = "wrong"
                row["reason"] = reason
            if hasattr(result, "elapsed"):
                row["case_elapsed_s"] = result.elapsed


# ---------------------------------------------------------------------------
# statistics


def hd_quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of quantile q: a Beta-weighted mean of all
    order statistics.  Unlike a single order statistic it does not jump when
    the quantile falls in a gap between request kinds."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 20 * n + 2000
    cdf, acc = [0.0], 0.0
    for i in range(steps):
        x = (i + 0.5) / steps
        acc += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)) / steps
        cdf.append(acc)
    total = cdf[-1]
    weights = [(cdf[(i + 1) * steps // n] - cdf[i * steps // n]) / total for i in range(n)]
    return sum(w * v for w, v in zip(weights, ordered))


def tail_latency(samples: list[float], guaranteed: int) -> tuple[float, str]:
    """Highest percentile with at least 10 samples beyond it, at the sample
    count every run is guaranteed (items x minimum passes), so the level is
    the same on every run; the maximum when there are fewer samples."""
    if guaranteed <= 10:
        return max(samples), "max"
    level = 1 - 10 / guaranteed
    return hd_quantile(samples, level), f"p{100 * level:.2f}"


def item_rows(passes) -> list[dict]:
    """Per-item medians beside the gated metrics."""
    grouped: dict[str, list[dict]] = {}
    for p in passes:
        if not p["traced"]:
            for row in p["rows"]:
                grouped.setdefault(row["key"], []).append(row)
    out = []
    for key, rows in sorted(grouped.items()):
        entry = {"key": key, "kind": rows[0]["kind"], "samples": len(rows),
                 "median_s": statistics.median(r["latency_s"] for r in rows),
                 "raw_median_s": statistics.median(r["raw_latency_s"] for r in rows),
                 "status": sorted({r["status"] for r in rows})}
        cases = [r["case_elapsed_s"] for r in rows if "case_elapsed_s" in r]
        if cases:
            entry["case_elapsed_median_s"] = statistics.median(cases)
        out.append(entry)
    return out


def kind_rows(items: list[dict]) -> list[dict]:
    kinds: dict[str, list[dict]] = {}
    for row in items:
        kinds.setdefault(row["kind"], []).append(row)
    return [{"kind": k, "median_s": statistics.median(r["median_s"] for r in v),
             "raw_median_s": statistics.median(r["raw_median_s"] for r in v)}
            for k, v in sorted(kinds.items())]


def compare_facts(workload: str, rows: list[dict], fact_keys: dict[str, str]) -> list[str]:
    """Differences between this run's work sizes and the committed reference."""
    if not REFERENCE.is_file():
        return ["no reference facts file"]
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {})
    diffs = set()
    for row in rows:
        want = reference.get(fact_keys[row["key"]], {})
        if row["status"] == "ok" and row["facts"] != want:
            diffs.add(f"{row['key']}: {row['facts']} (reference {want})")
    return sorted(diffs)


# ---------------------------------------------------------------------------
# main


def measure(args) -> int:
    run_start = _clock()
    _require_program()
    setup, raw_setup = measure_setup(args.workload, args.seed) if not args.trace else ([], [])
    _import_program()
    from layers import Facts, Tracer, aggregate_facts
    from workloads import KNOWN_DEFECT, WORKLOADS

    workload = WORKLOADS[args.workload]
    facts = Facts()
    facts.install()
    tracer = Tracer() if args.trace else None
    items = workload.build(args.seed)
    problems = workload.validate()

    signal.signal(signal.SIGALRM, _on_alarm)
    passes = []
    planned = max(2, workload.passes(args.seconds)) if tracer else workload.passes(args.seconds)
    while len(passes) < planned and _clock() - run_start < RUN_LIMIT_S:
        traced = bool(tracer) and len(passes) % 2 == 1
        passes.append(run_pass(items, facts, tracer if traced else None, run_start))
    if tracer and len(passes) < 2:
        problems.append("the run ended before a traced pass")

    check_rows(items, passes, facts)
    facts.uninstall()

    rows = [row for p in passes for row in p["rows"]]
    failures = [row for row in rows if row["status"] != "ok"]
    unexpected = [row for row in failures if not row.get("reason", "").startswith(KNOWN_DEFECT)]
    correct = not problems and not unexpected
    fact_keys = {item.key: item.fact_key for item in items}
    fact_diffs = compare_facts(args.workload, rows, fact_keys)
    plain = [p for p in passes if not p["traced"]]
    latencies = [row["latency_s"] for p in plain for row in p["rows"]]
    guaranteed = len(items) * workload.min_passes
    tail, tail_level = tail_latency(latencies, guaranteed)
    raw_latencies = [row["raw_latency_s"] for p in plain for row in p["rows"]]
    per_item = item_rows(passes)

    if tracer:
        traced = [p for p in passes if p["traced"]]
        metrics = tracer.metrics(len(traced))
        metrics.update(aggregate_facts([row["facts"] for row in rows], len(passes)))
        metrics["trace.overhead_frac"] = (
            statistics.median(p["raw_wall_s"] for p in traced)
            / statistics.median(p["raw_wall_s"] for p in plain) - 1)
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "latency_p50_s": hd_quantile([r["median_s"] for r in per_item], 0.5),
            "latency_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "latency_p50_s": "s",
                 "latency_tail_s": "s", "peak_rss_mb": "MB"}

    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "planned_passes": planned, "passes": len(passes),
        "traced_passes": len(passes) - len(plain),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_cpu_s": [p["cpu_s"] for p in passes], "setup_launches_s": setup,
        "speed_samples": [p["speed_samples"] for p in passes],
        "raw": {
            "setup_s": statistics.median(raw_setup) if raw_setup else None,
            "wall_s": statistics.median(p["raw_wall_s"] for p in plain),
            "cpu_s": statistics.median(p["raw_cpu_s"] for p in plain),
            "latency_p50_s": hd_quantile([r["raw_median_s"] for r in per_item], 0.5),
            "latency_tail_s": tail_latency(raw_latencies, guaranteed)[0],
            "pass_wall_s": [p["raw_wall_s"] for p in passes],
            "setup_launches_s": raw_setup,
        },
        "attempted": len(rows), "failed": len(failures),
        "failed_frac": len(failures) / len(rows), "known_defect_failures": len(failures) - len(unexpected),
        "latency_tail_level": tail_level, "latency_samples": len(latencies),
        "problems": problems, "facts_differ": fact_diffs,
        "failures": [{k: r.get(k) for k in ("key", "status", "reason")} for r in failures],
        "metrics": metrics, "items": per_item,
        "requests": [[row["key"], row["status"], row["latency_s"], row["raw_latency_s"]]
                     for p in plain for row in p["rows"]],
        "python": sys.version.split()[0],
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    if tracer:
        tracer.write_spans(RESULTS / f"{stem}-spans.jsonl")

    _print_report(summary, units, per_item)
    print(json.dumps({
        "correct": correct, "attempted": len(rows), "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".max_rows", ".max_cols", ".max", ".orders_tried")):
        return "count"
    if name.endswith("_bits"):
        return "bits"
    return "ratio"


def _print_report(summary: dict, units: dict, per_item: list[dict]) -> None:
    s = summary
    print(f"workload {s['workload']} seed {s['seed']}: {s['passes']} passes "
          f"({s['traced_passes']} traced), {s['attempted']} requests, {s['failed']} failed "
          f"(failed_frac {s['failed_frac']:.4f}, {s['known_defect_failures']} from a known defect)")
    for name, value in s["metrics"].items():
        extra = ""
        if s["raw"].get(name) is not None:
            extra = f"  (raw {s['raw'][name]:.6g})"
        if name == "latency_tail_s":
            extra += f"  {s['latency_tail_level']} of {s['latency_samples']} samples"
        print(f"  {name} {value:.6g} {units[name]}{extra}")
    print(f"  failed_frac {s['failed_frac']:.6g} ratio")
    rows = kind_rows(per_item) if len(per_item) > 20 else per_item
    print("per kind:" if len(per_item) > 20 else "per item:")
    for row in rows:
        label = row.get("key", row.get("kind"))
        case = row.get("case_elapsed_median_s")
        raw = f" (raw {row['raw_median_s']:.6f})" if "raw_median_s" in row else ""
        print(f"  {label:48.48s} {row['median_s']:10.6f} s{raw}"
              + (f"  CaseResult.elapsed {case:.6f} s" if case is not None else ""))
    for failure in s["failures"][:10]:
        print(f"  FAILED {failure['key'][:70]}: {failure['status']} {failure.get('reason') or ''}"[:200])
    for problem in s["problems"]:
        print(f"  REFERENCE PROBLEM: {problem}")
    if s["facts_differ"]:
        print(f"WORK SIZES DIFFER FROM THE REFERENCE ({len(s['facts_differ'])} items):")
        for line in s["facts_differ"][:10]:
            print(f"  {line}"[:200])
    else:
        print("work sizes match the reference")


def write_reference() -> int:
    """Record the work-size facts of every item any seed can draw."""
    _import_program()
    from layers import Facts
    from workloads import WORKLOADS

    facts = Facts()
    facts.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    reference = {}
    start = _clock()
    for name, workload in WORKLOADS.items():
        items = workload.pool()
        p = run_pass(items, facts, None, start)
        check_rows(items, [p], facts)
        bad = [r for r in p["rows"] if r["status"] != "ok"]
        if bad:
            sys.exit(f"perfbench: {name}: {bad[0]['key']}: {bad[0].get('reason')}")
        reference[name] = {item.fact_key: row["facts"]
                           for item, row in zip(items, p["rows"]) if row["facts"]}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("ladder", "suite", "certify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the work-size facts of every item as the reference")
    parser.add_argument("--probe", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe is not None:
        _probe(args.workload, args.seed, args.probe)
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
