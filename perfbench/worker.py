"""One worker process of a benchmark run: set-up, then timed operations.

``run.py`` starts every worker as a fresh process, so each one pays a
cold set-up (the lattice intern table of ``repro.core.lattice`` is
process-global; a second "cold" compile in one process is not cold).
A worker prints one JSON object as its last line of output.

    python3 perfbench/worker.py '{"workload": "steady", "seed": 1, ...}'
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from speed import Speed  # noqa: E402

# Speed samples on both sides of the set-up, which setup_s is scaled by
# (tierup's set-up, imports only, is too short to hold samples).
SPEED = Speed()
SPEED.bracket()
T_START = time.perf_counter()  # before any import of the program

import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from typing import Dict, List  # noqa: E402

from programs import (PAIRS, PROGRAM_NAMES, PROGRAMS, Served,  # noqa: E402
                      load_expected, start_tiered, uniform_stream,
                      zipf_stream)
from tracer import Tracer, read_counters  # noqa: E402


class Worker:
    def __init__(self, job: dict):
        self.job = job
        self.seed = job["seed"] * 1009 + job["proc"]
        self.tracer = Tracer(bool(job["trace"]))
        self.speed = SPEED
        self.expected = load_expected()
        # [program, size, start, end, ok, path] per timed operation.
        self.ops: List[list] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []
        self.ttfr: Dict[str, tuple] = {}      # program -> (start, end)
        self.intervals: Dict[str, list] = {}  # named (start, end) lists
        self.deterministic: Dict[str, object] = {}
        self.served: Dict[str, object] = {}
        self.setup_end = None

    # -- checked operations -------------------------------------------
    def check(self, what: str, got, want) -> bool:
        if got == want:
            return True
        self.wrong.append(f"{what}: got {got!r}, want {want!r}")
        return False

    def raised(self, what: str, exc: Exception) -> None:
        self.wrong.append(f"{what}: raised {type(exc).__name__}: {exc}")

    def request(self, served, size: str, timed: bool, req: int) -> list:
        """One checked guest request; returns its [program, size, start,
        end, ok, path] record (kept in ``ops`` when timed)."""
        name = served.program.name
        path = "compiled" if served.entry_compiled() else "tier0"
        self.attempted += 1
        ok = False
        start = time.perf_counter()
        with self.tracer.span("request", req=req,
                              counters=lambda: read_counters(served.rt,
                                                             served.vm),
                              program=name, size=size, path=path,
                              timed=timed):
            try:
                got = served.call(size)
            except Exception as exc:  # a failed operation, not a crash
                self.raised(f"{name}/{size}", exc)
            else:
                ok = True
        end = time.perf_counter()
        if ok and not self.check(f"{name}/{size}", got,
                                 self.expected[(name, size)]):
            ok = False
        if not ok:
            self.failed += 1
        op = [name, size, start, end, ok, path]
        if timed:
            self.ops.append(op)
        return op

    def build(self, program, **kwargs):
        with self.tracer.span("build", program=program.name):
            return program.build(**kwargs)

    def aot(self, rt, name: str) -> None:
        with self.tracer.span("aot_compile",
                              counters=lambda: read_counters(rt),
                              program=name):
            rt.aot_compile()
        with self.tracer.span("compile_backend",
                              counters=lambda: read_counters(rt),
                              program=name):
            rt.compiler.compile_backend()

    def interval(self, name: str, start: float) -> None:
        self.intervals.setdefault(name, []).append(
            (start, time.perf_counter()))

    # -- workloads -----------------------------------------------------
    def steady(self) -> None:
        tracer, speed = self.tracer, self.speed
        with tracer.span("setup"):
            for name in PROGRAM_NAMES:
                program = PROGRAMS[name]
                start = time.perf_counter()
                rt = self.build(program)
                compile_start = time.perf_counter()
                self.aot(rt, name)
                self.interval("aot_compile_s", compile_start)
                with tracer.span("resume", program=name):
                    served = Served(program, rt, rt.compiler.resume())
                self.served[name] = served
                # First response, then one warm-up request per size.
                if self.request(served, "default", False, -1)[4]:
                    self.ttfr[name] = (start, time.perf_counter())
                for size in program.sizes:
                    self.request(served, size, False, -1)
                speed.tick()
        self.setup_done()
        self.deterministic_totals()
        with tracer.span("serve"):
            # Whole rounds only, so every run serves the same mix.
            deadline = time.perf_counter() + self.job["seconds"]
            for req, (name, size) in enumerate(uniform_stream(self.seed)):
                if req % len(PAIRS) == 0 and time.perf_counter() >= deadline:
                    break
                speed.tick()
                self.request(self.served[name], size, True, req)
        speed.tick(force=True)

    def compile(self) -> None:
        tracer, speed = self.tracer, self.speed
        os.makedirs(self.job["out"], exist_ok=True)
        store = tempfile.mkdtemp(prefix="store-", dir=self.job["out"])
        try:
            cold = {}
            with tracer.span("cold"):
                phase_start = time.perf_counter()
                for name in PROGRAM_NAMES:
                    start = time.perf_counter()
                    rt = self.build(PROGRAMS[name], cache_dir=store)
                    self.aot(rt, name)
                    self.ttfr[name] = (start, time.perf_counter())
                    self.attempted += 1
                    cold[name] = self.shape(rt)
                    self.served[name] = rt
                    speed.tick()
                self.interval("cold_compile_s", phase_start)
            self.setup_done()
            self.deterministic["store_bytes"] = _du(store)
            self.deterministic_totals()
            self.served.clear()
            rng = random.Random(self.seed)
            passes = 0
            with tracer.span("warm"):
                # Whole passes, at least two, while the next one fits.
                start = time.perf_counter()
                deadline = start + self.job["seconds"]
                while passes < 2 or (time.perf_counter() + (
                        time.perf_counter() - start) / passes < deadline):
                    order = list(PROGRAM_NAMES)
                    rng.shuffle(order)
                    # Build the pass's fresh runtimes first and collect the
                    # constructors' garbage, so that a collection they made
                    # due does not land inside a timed compile.
                    runtimes = [self.build(PROGRAMS[name], cache_dir=store)
                                for name in order]
                    gc.collect()
                    for name, rt in zip(order, runtimes):
                        speed.tick()
                        self.warm_compile(name, rt, cold[name], passes == 0)
                    runtimes = None
                    passes += 1
            speed.tick(force=True)
        finally:
            shutil.rmtree(store, ignore_errors=True)

    @staticmethod
    def shape(rt) -> list:
        """What a compile produced: functions, backend functions and
        backend fallbacks."""
        compiler = rt.compiler
        return [len(compiler.processed), len(compiler.backend_functions),
                len(compiler.backend_fallbacks)]

    def warm_compile(self, name: str, rt, cold_shape: list,
                     keep: bool) -> None:
        """One timed operation: a fresh runtime compiled from the store.
        It must produce what the cold compile did, with no fresh
        specialization and nothing failed."""
        self.attempted += 1
        ok = False
        start = time.perf_counter()
        try:
            self.aot(rt, name)
        except Exception as exc:  # a failed operation, not a crash
            self.raised(f"{name}/warm", exc)
        else:
            ok = True
        end = time.perf_counter()
        if ok:
            stats = rt.compiler.engine.stats
            got = self.shape(rt) + [stats.functions_specialized,
                                    stats.requests_failed]
            ok = self.check(f"{name}/warm", got, cold_shape + [0, 0])
            if keep:
                self.served[name] = rt  # end-state counters
        if not ok:
            self.failed += 1
        self.ops.append([name, "warm", start, end, ok, "store"])

    def tierup(self) -> None:
        tracer, speed = self.tracer, self.speed
        stream = zipf_stream(self.seed, self.job["requests"])
        self.setup_done()
        with tracer.span("serve"):
            for req, (name, size) in enumerate(stream):
                speed.tick()
                served = self.served.get(name)
                if served is not None:
                    self.request(served, size, True, req)
                    continue
                # Lazy start: the first request pays for building the
                # runtime and running its top-level code on tier 0.
                start = time.perf_counter()
                program = PROGRAMS[name]
                rt = self.build(program)
                with tracer.span("tiered_start",
                                 counters=lambda: read_counters(rt),
                                 program=name):
                    served = self.served[name] = start_tiered(program, rt)
                op = self.request(served, size, True, req)
                op[2], op[5] = start, "start"
                if op[4]:
                    self.ttfr[name] = (start, op[3])
        speed.tick(force=True)
        self.deterministic_totals()

    # -- bookkeeping -----------------------------------------------------
    def setup_done(self) -> None:
        self.setup_end = time.perf_counter()
        self.speed.bracket()

    def deterministic_totals(self) -> None:
        """Counters that must repeat exactly for one seed (read at a
        point whose work does not depend on timing)."""
        totals: Dict[str, float] = {}
        for served in self.served.values():
            rt = getattr(served, "rt", served)
            for key, value in read_counters(
                    rt, getattr(served, "vm", None)).items():
                totals[key] = totals.get(key, 0) + value
        keep = ("engine.functions_specialized", "spec.output_instrs",
                "tiering.promotions", "tiering.tier0_calls",
                "links.links_made", "engine.artifacts_written",
                "exec.fuel")
        self.deterministic.update({k: totals.get(k, 0) for k in keep})

    def end_state(self) -> Dict[str, float]:
        """Tier and link state at the end of the worker."""
        linked = 0
        tiers = [0, 0, 0]
        for served in self.served.values():
            rt = getattr(served, "rt", served)
            vm = getattr(served, "vm", None)
            if vm is not None:
                linked += vm.links.linked_count()
            if rt.controller is not None:
                for tier, count in rt.controller.tier_counts().items():
                    tiers[tier] += count
            elif rt.compiler is not None:
                backend = len(rt.compiler.backend_functions)
                tiers[2] += backend
                tiers[1] += len(rt.compiler.processed) - backend
        return {"links.linked": linked, "tiering.t0": tiers[0],
                "tiering.t1": tiers[1], "tiering.t2": tiers[2]}

    def result(self) -> dict:
        speed = self.speed
        spans = self.tracer.export()
        fuel: Dict[str, set] = {}
        for span in spans:
            if span["name"] == "request" and span["attrs"]["timed"]:
                key = f"{span['attrs']['program']}/{span['attrs']['size']}"
                fuel.setdefault(key, set()).add(
                    span["deltas"].get("exec.fuel", 0))
        if fuel:
            self.deterministic["fuel_per_request"] = {
                k: sorted(v) for k, v in sorted(fuel.items())}
        # Operations as [program, size, scaled s, ok, path, raw s].
        ops = [[name, size, speed.scaled(start, end), ok, path, end - start]
               for name, size, start, end, ok, path in self.ops]
        return {
            "setup_s": speed.scaled(T_START, self.setup_end),
            "setup_raw_s": self.setup_end - T_START,
            "ttfr_s": {name: speed.scaled(*span)
                       for name, span in self.ttfr.items()},
            "ttfr_raw_s": {name: end - start
                           for name, (start, end) in self.ttfr.items()},
            "ops": ops,
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "intervals": {name: sum(speed.scaled(*i) for i in spans_)
                          for name, spans_ in self.intervals.items()},
            "kernel_s": speed.median_kernel_s(),
            "deterministic": self.deterministic,
            "end_state": self.end_state() if self.tracer.enabled else {},
            "spans": spans,
        }


def _du(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def main() -> int:
    job = json.loads(sys.argv[1])
    worker = Worker(job)
    getattr(worker, job["workload"])()
    print(json.dumps(worker.result()), flush=True)
    # Skip interpreter teardown: freeing a heap of a few hundred MB object
    # by object takes seconds and measures nothing.
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
