"""The tier-ladder benchmark: one command, three workloads.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 8 --trace 0

Run from the repository root.  Each run starts fresh worker processes
(``worker.py``), one client each, in a closed loop: a request is sent
only after the previous one returned.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run also writes its spans to
``perfbench/out/trace-<workload>-<seed>.json``.  See README.md for the
workloads and the meaning of every metric.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from tracer import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Each of these makes the run measure a different program than the
# pinned configuration does.
REFUSED_ENV = ("REPRO_BACKEND", "REPRO_LINK_CALLS", "REPRO_OPT_VERIFY",
               "REPRO_PROFILE")

WORKLOADS = ("steady", "compile", "tierup")
# steady and compile: this many workers split the timed seconds, each
# with its own set-up.  tierup: epochs of TIERUP_REQUESTS requests, one
# worker each, at least TIERUP_EPOCHS and more while time remains.
WORKERS = 3
TIERUP_EPOCHS = 2
TIERUP_REQUESTS = 160
# A run must end within this many seconds.  A traced run gives its
# untraced pass the first UNTRACED_SHARE of it.  A pass starts no further
# worker that would likely end past its share (judged by its slowest
# worker so far), so a slower program is measured on fewer workers
# rather than cut off; only a single worker longer than the whole budget
# fails the run.
RUN_BUDGET_S = 170.0
UNTRACED_SHARE = 0.45

with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _f:
    PROGRAMS = sorted(json.load(_f))

END_TO_END = (("setup_s", "s"), ("req_per_s", "1/s"), ("p50_ms", "ms"),
              ("p90_ms", "ms"), ("geomean_ms", "ms"), ("ttfr_ms", "ms"),
              ("peak_rss_mb", "MB"))


class RunError(Exception):
    pass


def run_worker(job: dict, deadline: float) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # One string-hash layout for every worker: with random seeds the
    # same code runs up to ~15% faster or slower from process to process.
    env["PYTHONHASHSEED"] = "0"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("run budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"),
             json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {job} timed out") from None
    if proc.returncode != 0:
        raise RunError(f"worker {job['workload']}#{job['proc']} failed "
                       f"({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workers(workload: str, seed: int, seconds: int, trace: bool,
                pass_end: float, deadline: float) -> List[dict]:
    base = {"workload": workload, "seed": seed, "trace": int(trace),
            "out": OUT}
    results: List[dict] = []
    start = time.monotonic()
    slowest = 0.0
    while True:
        now = time.monotonic()
        if workload == "tierup":
            job = dict(base, proc=len(results), requests=TIERUP_REQUESTS)
            done = (len(results) >= TIERUP_EPOCHS
                    and now - start >= seconds)
        else:
            job = dict(base, proc=len(results), seconds=seconds / WORKERS)
            done = len(results) >= WORKERS
        if done or (results and now + slowest > pass_end):
            return results
        results.append(run_worker(job, deadline))
        slowest = max(slowest, time.monotonic() - now)


# ----------------------------------------------------------------------
# End-to-end metrics.
# ----------------------------------------------------------------------
def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_p90(values: List[float]) -> float:
    """The mean of the values ranked from the 85th to the 95th
    percentile.  The tail is sparse (a few slow programs, tier-0
    requests, promotion stalls), so the single value at the 90th
    percentile jumps between its clusters: on tierup it spread 0.18 to
    0.21 between runs, this estimate 0.09 to 0.11."""
    ordered = sorted(values)
    lo = int(0.85 * len(ordered))
    hi = max(lo + 1, int(0.95 * len(ordered)))
    return statistics.fmean(ordered[lo:hi])


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def program_latency(ops: List[list]) -> Dict[str, float]:
    """Each program's typical latency: the geometric mean over its
    request sizes of the median latency at that size.  (A median over
    both sizes at once would jump between their two clusters.)"""
    per_pair: Dict[tuple, List[float]] = {}
    for op in ops:
        per_pair.setdefault((op[0], op[1]), []).append(op[2])
    sizes: Dict[str, List[float]] = {}
    for (name, _size), values in per_pair.items():
        sizes.setdefault(name, []).append(statistics.median(values))
    return {name: geomean(values) for name, values in sizes.items()}


def ttfr(results: List[dict], key: str) -> float:
    """Geometric mean over programs of each program's median over
    workers.  (A median over programs rests on one program's two or
    three samples and moved by 10% from run to run.)"""
    per_program: Dict[str, List[float]] = {}
    for r in results:
        for name, value in r[key].items():
            per_program.setdefault(name, []).append(value)
    return geomean(statistics.median(v) for v in per_program.values())


def request_ops(results: List[dict]) -> List[list]:
    """The operations the request metrics take: the successful ones,
    without a tierup program's first request, which includes its lazy
    start and is measured by ttfr_ms."""
    return [op for r in results for op in r["ops"]
            if op[3] and op[4] != "start"]


def end_to_end(results: List[dict]) -> Dict[str, float]:
    ops = request_ops(results)
    latencies = [op[2] for op in ops]
    typical = program_latency(ops)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "req_per_s": len(ops) / sum(latencies),
        "p50_ms": 1000 * quantile(latencies, 0.5),
        "p90_ms": 1000 * tail_p90(latencies),
        "geomean_ms": 1000 * geomean(typical.values()),
        "ttfr_ms": 1000 * ttfr(results, "ttfr_s"),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }


def extra_metrics(workload: str, results: List[dict]) -> Dict[str, tuple]:
    """Figures printed beside the JSON metrics: the error rate, the
    compile-phase walls, and unscaled times for reference."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    ops = [op for r in results for op in r["ops"]]
    out = {"error_rate": (failed / attempted, ""),
           "operations": (len(ops), "count")}
    if workload == "compile":
        out["cold_compile_s"] = (statistics.median(
            r["intervals"]["cold_compile_s"] for r in results), "s")
        out["warm_compile_s"] = (statistics.median(
            sum(op[2] for op in r["ops"]) * len(PROGRAMS) / len(r["ops"])
            for r in results), "s")
    if workload == "steady":
        out["aot_compile_s"] = (statistics.median(
            r["intervals"]["aot_compile_s"] for r in results), "s")
    out["unscaled.setup_s"] = (statistics.median(
        r["setup_raw_s"] for r in results), "s")
    out["unscaled.ttfr_ms"] = (
        1000 * ttfr(results, "ttfr_raw_s"), "ms")
    out["unscaled.p50_ms"] = (1000 * quantile([op[5] for op in ops], 0.5),
                              "ms")
    out["kernel_ms"] = (1000 * statistics.median(
        r["kernel_s"] for r in results), "ms")
    return out


# ----------------------------------------------------------------------
# Per-layer metrics (traced runs).
# ----------------------------------------------------------------------
CALL_SPANS = ("aot_compile", "compile_backend", "resume", "tiered_start")


def per_layer(results: List[dict]) -> Dict[str, float]:
    total: Dict[str, float] = {}    # deltas summed over every call span
    timed: Dict[str, float] = {}    # ... over timed requests only
    end: Dict[str, float] = {}
    span_time: Dict[str, float] = {}
    requests = tier0_requests = 0
    tier0_s = exec_s = stall_max = promote_in_calls = 0.0
    for r in results:
        for key, value in r["end_state"].items():
            end[key] = end.get(key, 0) + value
        for name, value in self_times(r["spans"]).items():
            span_time[name] = span_time.get(name, 0.0) + value
        for span in r["spans"]:
            deltas = span["deltas"]
            for key, value in deltas.items():
                total[key] = total.get(key, 0) + value
            stall = deltas.get("tiering.promote_seconds", 0.0)
            if span["name"] in ("request", "tiered_start"):
                promote_in_calls += stall
            if span["name"] != "request":
                continue
            stall_max = max(stall_max, stall)
            if not span["attrs"]["timed"]:
                continue
            requests += 1
            for key, value in deltas.items():
                timed[key] = timed.get(key, 0) + value
            duration = span["end"] - span["start"]
            if span["attrs"]["path"] == "tier0":
                tier0_requests += 1
                tier0_s += duration - stall
            else:
                exec_s += duration

    def per_req(key):
        return timed.get(key, 0) / requests if requests else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    t = total.get
    m = {
        "jsvm.build_s": span_time.get("build", 0.0),
        "jsvm.slow_prop_per_req": per_req("js.slow_getprop_calls")
        + per_req("js.slow_setprop_calls"),
        "jsvm.ic_attaches": t("js.ic_attaches", 0),
        "vm.tier0_s": tier0_s,
        "vm.tier0_share": ratio(tier0_requests, requests),
    }
    for name in ("fuel", "loads", "stores", "calls", "indirect_calls",
                 "host_calls"):
        m[f"vm.{name}_per_req"] = per_req(f"exec.{name}")
    visits, revisits = t("spec.block_visits", 0), t("spec.block_revisits", 0)
    hits, misses = t("spec.intern_hits", 0), t("spec.intern_misses", 0)
    m.update({
        "core.specialize_s": t("engine.specialize_seconds", 0.0),
        "core.functions_specialized": t("engine.functions_specialized", 0),
        "core.block_visits": visits,
        "core.block_revisits": revisits,
        "core.revisit_rate": ratio(revisits, visits),
        "core.meets_skipped": t("spec.meets_skipped", 0),
        "core.intern_hit_rate": ratio(hits, hits + misses),
        "core.output_instrs": t("spec.output_instrs", 0),
        "core.output_blocks": t("spec.output_blocks", 0),
        "opt.s": t("opt.seconds", 0.0),
        "opt.pass_runs": t("opt.pass_runs", 0),
        "opt.passes_skipped": t("opt.passes_skipped", 0),
        "opt.instrs_removed": t("opt.instrs_before", 0)
        - t("opt.instrs_after", 0),
        "backend.emit_s": t("engine.emit_seconds", 0.0),
        "backend.emitted": t("engine.backend_emitted", 0),
        "backend.source_hits": t("engine.backend_source_hits", 0),
        "backend.code_hits": t("engine.backend_code_hits", 0),
        "backend.fallbacks": t("engine.backend_fallbacks", 0),
        "backend.exec_s": exec_s,
        "engine.requests": t("engine.requests", 0),
        "engine.cache_hits": t("engine.cache_hits", 0),
        "engine.wall_s": t("engine.wall_seconds", 0.0),
        "engine.requests_failed": t("engine.requests_failed", 0),
        "artifacts.hits": t("engine.artifact_hits", 0),
        "artifacts.written": t("engine.artifacts_written", 0),
        "artifacts.invalid": t("engine.artifact_invalid", 0),
        "artifacts.hit_rate": ratio(t("engine.artifact_hits", 0),
                                    t("engine.requests", 0)),
        "artifacts.store_bytes": sum(r["deterministic"].get("store_bytes",
                                                            0)
                                     for r in results),
        "tiering.promotions": t("tiering.promotions", 0),
        "tiering.tier2_installs": t("tiering.tier2_installs", 0),
        "tiering.tier0_calls": t("tiering.tier0_calls", 0),
        "tiering.promote_s": t("tiering.promote_seconds", 0.0),
        "tiering.stall_max_ms": 1000 * stall_max,
        "tiering.deopts": t("tiering.deopts", 0),
        "tiering.demotions": t("tiering.demotions", 0),
        "tiering.compile_failures": t("tiering.compile_failures", 0),
        "tiering.t0": end.get("tiering.t0", 0),
        "tiering.t1": end.get("tiering.t1", 0),
        "tiering.t2": end.get("tiering.t2", 0),
        "links.linked": end.get("links.linked", 0),
        "links.links_made": t("links.links_made", 0),
        "links.ic_links_made": t("links.ic_links_made", 0),
        "links.epoch": t("links.epoch", 0),
    })
    typical = program_latency(request_ops(results))
    for name in PROGRAMS:
        m[f"prog.{name}.p50_ms"] = 1000 * typical.get(name, 0.0)
    # Self time per layer.  Spans wrap the benchmark's calls into the
    # program; inside a compile the program's own timers split the span.
    compile_spans = sum(span_time.get(n, 0.0) for n in CALL_SPANS)
    specialize, emit = m["core.specialize_s"], m["backend.emit_s"]
    m.update({
        "self.bench_s": sum(span_time.get(n, 0.0) for n in
                            ("setup", "serve", "cold", "warm")),
        "self.jsvm_s": m["jsvm.build_s"],
        "self.core_s": max(0.0, specialize - m["opt.s"]),
        "self.opt_s": m["opt.s"],
        "self.backend_s": emit + exec_s,
        "self.vm_s": tier0_s + span_time.get("tiered_start", 0.0)
        - sum(s["deltas"].get("tiering.promote_seconds", 0.0)
              for r in results for s in r["spans"]
              if s["name"] == "tiered_start"),
        "self.pipeline_s": max(0.0, compile_spans
                               - span_time.get("tiered_start", 0.0)
                               + promote_in_calls - specialize - emit),
        "trace.spans": sum(len(r["spans"]) for r in results),
        "machine.kernel_ms": 1000 * statistics.median(
            r["kernel_s"] for r in results),
    })
    return m


UNITS = {"_s": "s", ".s": "s", "_ms": "ms", "_share": "ratio",
         "_rate": "ratio", "_bytes": "bytes", "_per_req": "count/req"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# ----------------------------------------------------------------------
def environment() -> Dict[str, object]:
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "repro_env": {k: v for k, v in os.environ.items()
                          if k.startswith("REPRO_")}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    refused = [k for k in REFUSED_ENV if k in os.environ]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set: each one "
              f"measures a different configuration", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    env = environment()
    try:
        plain = run_workers(
            args.workload, args.seed, args.seconds, False,
            start + RUN_BUDGET_S * UNTRACED_SHARE if args.trace
            else deadline, deadline)
        traced = (run_workers(args.workload, args.seed, args.seconds, True,
                              deadline, deadline)
                  if args.trace else None)
    except RunError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds} python {env['python']} nproc {env['nproc']} "
          f"REPRO_* {env['repro_env'] or 'none'}")
    # Both passes are checked; a failed operation fails the run.
    checked = plain + (traced or [])
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    wrong = [w for r in checked for w in r["wrong"]]
    if failed or wrong:
        print(f"  error_rate {failed / attempted:.6g}")
        for line in wrong[:20]:
            print(f"WRONG {line}")
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    e2e = end_to_end(plain)
    if args.trace:
        traced_e2e = end_to_end(traced)
        layers = per_layer(traced)
        layers["trace.overhead_ms"] = traced_e2e["p50_ms"] - e2e["p50_ms"]
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in layers.items()}
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"environment": env, "per_layer": layers,
                       "end_to_end_untraced": e2e,
                       "end_to_end_traced": traced_e2e,
                       "deterministic": [r["deterministic"]
                                         for r in traced],
                       "workers": [{"spans": r["spans"],
                                    "end_state": r["end_state"]}
                                   for r in traced]}, handle)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    for name, (value, unit) in extra_metrics(args.workload, plain).items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
