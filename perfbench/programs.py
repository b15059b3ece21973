"""The benchmark's program set, request streams and request execution.

Sixteen guest programs: the thirteen MiniJS Octane analogs of
``repro.jsvm.workloads`` and the three MiniLua programs of
``benchmarks/bench_lua.py`` (copied below, since that module is a pytest
file).  A JS request calls the program's top-level entry function, the
one its last line prints, with either its default argument list or the
last argument cut to a quarter ("quarter").  A Lua request re-runs the
chunk.

Everything here goes through the runtimes' public API: the
constructors, ``aot_compile``, ``compiler.resume``, ``run(mode="tiered")``
and ``VM.call``/``VM.call_table``.
"""

from __future__ import annotations

import json
import os
import random
import re
from typing import Dict, List, Optional, Tuple

from repro.core.specialize import SpecializeOptions
from repro.jsvm import workloads as js_workloads
from repro.jsvm.runtime import HEAP_PTR_ADDR, SPEC_FIELD_WORD, JSRuntime
from repro.jsvm.values import VALUE_UNDEFINED, box_double, describe
from repro.luavm import LuaRuntime
from repro.luavm.runtime import SPEC_FIELD_OFFSET

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

LUA_PROGRAMS = {
    "fib": """
function fib(n)
  if n < 2 then return n end
  return fib(n-1) + fib(n-2)
end
print(fib(14))
""",
    "sumloop": """
function sumloop(n)
  local total = 0
  for i = 1, n do
    total = total + i * i
  end
  return total
end
print(sumloop(800))
""",
    "nested": """
function inner(a, b)
  return a * b + a - b
end
function outer(n)
  local acc = 0
  for i = 1, n do
    for j = 1, 5 do
      acc = acc + inner(i, j)
    end
  end
  return acc % 1000000
end
print(outer(120))
""",
}

# The order is the suite's listing order (Octane, then Lua).  It is the
# Zipf rank order of the tierup workload.
PROGRAM_NAMES: List[str] = list(js_workloads.BENCHMARK_NAMES) + \
    list(LUA_PROGRAMS)

_ENTRY_RE = re.compile(r"print\((\w+)\(([^()]*)\)\);\s*$")


class Program:
    """One guest program and the request sizes it accepts."""

    def __init__(self, name: str):
        self.name = name
        self.is_lua = name in LUA_PROGRAMS
        if self.is_lua:
            self.source = LUA_PROGRAMS[name]
            self.entry = None
            self.sizes: Dict[str, Tuple[float, ...]] = {"default": ()}
            return
        self.source = js_workloads.WORKLOADS[name]
        match = _ENTRY_RE.search(self.source)
        if match is None:
            raise ValueError(f"{name}: no top-level print(entry(...))")
        self.entry = match.group(1)
        args = tuple(float(a) for a in match.group(2).split(",")
                     if a.strip())
        self.sizes = {"default": args}
        if args:
            quarter = args[:-1] + (float(max(1, int(args[-1]) // 4)),)
            self.sizes["quarter"] = quarter

    def build(self, config: str = "wevaled_state",
              cache_dir: Optional[str] = None):
        """A fresh runtime with the pinned options: ``backend="py"``,
        everything else at its default."""
        options = SpecializeOptions(backend="py", cache_dir=cache_dir)
        if self.is_lua:
            return LuaRuntime(self.source, options=options)
        return JSRuntime(self.source, config, options=options)


PROGRAMS: Dict[str, Program] = {name: Program(name)
                                for name in PROGRAM_NAMES}

#: Every (program, size) pair a request can name.
PAIRS: List[Tuple[str, str]] = [(p.name, size) for p in PROGRAMS.values()
                                for size in p.sizes]


class Served:
    """One program's runtime plus the VM its requests run on.

    A JS request resets the guest bump-heap pointer to its value at
    construction first: MiniJS has no GC, so one arena per request is
    the serving model.
    """

    def __init__(self, program: Program, runtime, vm):
        self.program = program
        self.rt = runtime
        self.vm = vm
        if program.is_lua:
            self.slot = runtime.proto_addrs[0] + SPEC_FIELD_OFFSET
        else:
            func = next(f for f in runtime.compiled.functions
                        if f.name == program.entry)
            self.struct = runtime.func_addrs[func.index]
            self.slot = self.struct + SPEC_FIELD_WORD * 8
            self.heap0 = vm.load_u64(HEAP_PTR_ADDR)

    def entry_compiled(self) -> bool:
        """Whether the next request enters through a filled dispatch slot
        (compiled code) rather than the generic interpreter."""
        return self.vm.load_u64(self.slot) != 0

    def call(self, size: str) -> str:
        """Serve one request; returns the rendered result."""
        vm, rt = self.vm, self.rt
        if self.program.is_lua:
            vm.call("lua_call", [rt.proto_addrs[0], rt.stack_base])
            out = ",".join(str(v) for v in rt.printed)
            rt.printed.clear()
            return out
        vm.store_u64(HEAP_PTR_ADDR, self.heap0)
        frame = rt.frame_base
        vm.store_u64(frame, VALUE_UNDEFINED)
        for i, arg in enumerate(self.program.sizes[size]):
            vm.store_u64(frame + 8 * (i + 1), box_double(arg))
        spec = vm.load_u64(self.slot)
        if spec:
            result = vm.call_table(spec, [self.struct, frame])
        else:
            result = vm.call(rt.generic_entry, [self.struct, frame])
        return describe(result)


def start_tiered(program: Program, rt) -> Served:
    """Start a freshly built runtime under dynamic tier-up: its top-level
    code runs once on ``run(mode="tiered")`` and that VM then serves the
    requests."""
    vm = rt.run(mode="tiered")
    rt.printed.clear()
    return Served(program, rt, vm)


def serve_reference(program: Program) -> Tuple[Served, List]:
    """The generic interpreters (JS ``interp_ic``, Lua
    ``run_interpreted``), the source of the expected results; also
    returns what the top-level code printed."""
    if program.is_lua:
        rt = LuaRuntime(program.source)
        vm = rt.run_interpreted()
    else:
        rt = JSRuntime(program.source, "interp_ic")
        vm = rt.run()
    printed = list(rt.printed)
    rt.printed.clear()
    return Served(program, rt, vm), printed


def load_expected() -> Dict[Tuple[str, str], str]:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return {(name, size): value for name, sizes in data.items()
            for size, value in sizes.items()}


# ----------------------------------------------------------------------
# Request streams.  The seed only reorders work whose composition is
# fixed, so runs with different seeds measure the same mix.
# ----------------------------------------------------------------------
def uniform_stream(seed: int):
    """Endless (program, size) requests, uniform over every pair: each
    round of ``len(PAIRS)`` requests is a seeded shuffle of all pairs."""
    rng = random.Random(seed)
    while True:
        deck = list(PAIRS)
        rng.shuffle(deck)
        yield from deck


ZIPF_S = 1.0


def zipf_counts(total: int) -> Dict[str, int]:
    """Largest-remainder split of ``total`` requests over the programs
    by Zipf(s=1) rank in :data:`PROGRAM_NAMES` order."""
    weights = [1.0 / (rank ** ZIPF_S)
               for rank in range(1, len(PROGRAM_NAMES) + 1)]
    scale = total / sum(weights)
    shares = [w * scale for w in weights]
    counts = [int(s) for s in shares]
    order = sorted(range(len(shares)), key=lambda i: counts[i] - shares[i])
    for i in order[:total - sum(counts)]:
        counts[i] += 1
    return dict(zip(PROGRAM_NAMES, counts))


def zipf_stream(seed: int, total: int) -> List[Tuple[str, str]]:
    """A fixed-composition Zipf request stream in seeded order.

    Each program's own requests alternate over its sizes, default first,
    whatever the seed: every program has its own runtime, so its tier-up
    depends only on that sequence, and the seed only changes how the
    programs interleave."""
    names = [name for name, count in zipf_counts(total).items()
             for _ in range(count)]
    random.Random(seed).shuffle(names)
    seen: Dict[str, int] = {}
    stream = []
    for name in names:
        index = seen[name] = seen.get(name, -1) + 1
        sizes = list(PROGRAMS[name].sizes)
        stream.append((name, sizes[index % len(sizes)]))
    return stream
