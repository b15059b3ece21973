"""Fault containment: steady-state overhead and degraded-mode cost (PR 9).

The production question PR 9 answers: what does the fault-containment
layer *cost* when nothing is failing, and what does the service look
like when its persistence layer *is* failing?  The containment seams
(``FaultPlan`` consults in the engine, quarantine bookkeeping in the
controller, health tracking in the stores) all live on the compile
path; the settled serve path — the one that handles every steady-state
request — must be untouched.

Workload: the PR 8 call-chain service (``bench_inlining``'s richards-
flavored scheduler) under the same staged pipeline, three ways:

* **plain** — no fault plan at all (the PR 8 configuration);
* **inert** — an *armed* ``FaultPlan`` with a 0.0 rate on every seam:
  every consult happens, no fault ever fires.  This is the worst case
  for containment overhead short of an actual outage;
* **degraded** — ``FaultPlan.always("store_write")`` against a real
  ``cache_dir``: every artifact write fails, the store flips to
  memory-only degraded mode, and the service keeps running.

Reported metrics:

* **fuel per request** — settled ``schedule(5)``, plain vs inert.
  Guarded *byte-identical*: the plan is consulted only between tiers,
  never inside one, so the deterministic cost model cannot move;
* **steady-state latency** — best-observed wall clock for
  ``schedule(50)`` over interleaved batches, plain vs inert, guarded
  at <= 2% overhead (the acceptance bound);
* **degraded mode** — responses (guarded identical to plain), settle
  wall clock, and the store's health counters.  Reported without a
  wall guard: an outage is not a steady state we promise numbers for.

Regression guards (CI, ``--quick``): identical responses across all
three services, inert fuel == plain fuel, inert/plain wall ratio
<= 1.02, zero faults fired by the inert plan (with > 0 consults),
degraded store reporting ``degraded`` with every write failed and zero
artifacts on disk.  Measured locally (py backend, structured emit):
plain and inert both 6953 fuel per schedule(5), steady-state ~6.3ms
per schedule(50) with ratio ~1.00x, degraded settle within noise of
plain while every residual/source write fails over to memory.
"""

import os
import time

from conftest import write_result
from bench_inlining import CALLCHAIN_SERVICE, STAGED, Service, _best_latency
from repro.bench import format_table
from repro.core.specialize import SpecializeOptions
from repro.pipeline.faults import SEAMS, FaultPlan

MAX_STEADY_OVERHEAD = 1.02


def _service(plan=None, cache_dir=None):
    options = SpecializeOptions(backend="py", emit_mode="structured",
                                fault_plan=plan)
    return Service(CALLCHAIN_SERVICE, cache_dir=cache_dir,
                   options=options, **STAGED)


def test_fault_containment_overhead(benchmark, request, tmp_path):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    quick = request.config.getoption("--quick")

    inert_plan = FaultPlan(seed=0, rates={seam: 0.0 for seam in SEAMS})
    plain = _service()
    inert = _service(plan=inert_plan)

    reference = plain.settle()
    assert inert.settle() == reference
    assert inert.serve("schedule", 7) == plain.serve("schedule", 7)

    # The inert plan was consulted at every seam crossing during
    # tier-up, and never fired: containment is pure bookkeeping.
    consults = sum(inert_plan.consults.values())
    assert consults > 0, "armed plan was never consulted during tier-up"
    assert inert_plan.total_fired() == 0

    # Deterministic cost model: byte-identical, not merely close.
    plain_fuel = plain.fuel_for(5)
    inert_fuel = inert.fuel_for(5)
    assert inert_fuel == plain_fuel, (
        f"inert fault plan changed the cost model: "
        f"{plain_fuel} vs {inert_fuel} fuel per schedule(5)")

    batches, per_batch = (4, 3) if quick else (8, 4)
    plain_wall, inert_wall = _best_latency([plain, inert], 50,
                                           batches, per_batch)
    overhead = inert_wall / plain_wall

    # Degraded mode: every artifact write fails against a real store.
    store_root = str(tmp_path / "store")
    degrade_start = time.perf_counter()
    degraded = _service(plan=FaultPlan.always("store_write"),
                        cache_dir=store_root)
    degraded_responses = degraded.settle()
    degrade_wall = time.perf_counter() - degrade_start
    assert degraded_responses == reference
    health = degraded.controller.compiler.engine.store.health()
    on_disk = sum(len(files) for _, _, files in os.walk(store_root))

    plain_engine = plain.engine_stats()
    rows = [
        ["fuel / schedule(5) (plain)", plain_fuel, "PR 8 pipeline"],
        ["fuel / schedule(5) (inert plan)", inert_fuel,
         "byte-identical cost model"],
        ["steady-state (plain)", f"{plain_wall * 1e6:.0f}us/req",
         "schedule(50) best-of"],
        ["steady-state (inert plan)", f"{inert_wall * 1e6:.0f}us/req",
         f"{(overhead - 1) * 100:+.1f}% vs plain"],
        ["inert plan consults", consults,
         f"fired={inert_plan.total_fired()} across {len(SEAMS)} seams"],
        ["plain engine failures", plain_engine.requests_failed,
         f"store_degraded={plain_engine.store_degraded}"],
        ["degraded-store settle", f"{degrade_wall * 1e3:.1f}ms",
         "every artifact write failing (no wall guard)"],
        ["degraded-store health",
         f"degraded={health['degraded']}",
         f"write_failures={health['write_failures']}, "
         f"memory_entries={health['memory_entries']}, "
         f"files on disk={on_disk}"],
    ]
    report = ("Fault containment — call-chain service, inert plan vs "
              "none, plus store-outage degraded mode\n" +
              format_table(["metric", "value", "detail"], rows) +
              "\n\n" + degraded.controller.report())
    write_result("faults", report)

    # --- regression guards -------------------------------------------
    assert overhead <= MAX_STEADY_OVERHEAD, (
        f"inert fault plan costs {(overhead - 1) * 100:.1f}% steady-state "
        f"wall ({plain_wall * 1e6:.0f}us vs {inert_wall * 1e6:.0f}us, "
        f"bound {MAX_STEADY_OVERHEAD:.2f}x)")
    assert health["degraded"], "store outage did not flip degraded mode"
    assert health["memory_entries"] > 0
    assert on_disk == 0, (
        f"{on_disk} files reached a store whose every write failed")
