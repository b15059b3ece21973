"""In-memory spans with stats deltas, and the per-layer roll-up.

A span records name, start, end, parent and request id around one
public call the benchmark makes.  Spans that wrap a call also carry the
deltas of the public stats objects that call can move: ``ExecStats``
(``vm.stats``), ``EngineStats`` (``compiler.engine.stats``),
``TieringStats`` (``controller.stats``), ``compiler.total_stats``
(including ``.opt``) and the VM's ``CallLinkTable``.  Spans are kept in
memory and written out once, at the end of the worker process.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

# JSRuntime counters of host slow paths (not a stats object of their own).
_JS_COUNTERS = ("slow_getprop_calls", "slow_setprop_calls", "ic_attaches")


def _fields(prefix: str, obj, out: Dict[str, float]) -> None:
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[prefix + field.name] = value


def read_counters(rt, vm=None) -> Dict[str, float]:
    """A flat snapshot of every public counter reachable from one
    runtime and its VM."""
    out: Dict[str, float] = {}
    if vm is not None:
        _fields("exec.", vm.stats, out)
        links = vm.links
        out["links.links_made"] = links.links_made
        out["links.ic_links_made"] = links.ic_links_made
        out["links.epoch"] = links.epoch
    for name in _JS_COUNTERS:
        if hasattr(rt, name):
            out["js." + name] = getattr(rt, name)
    controller = getattr(rt, "controller", None)
    compiler = rt.compiler
    if controller is not None:
        _fields("tiering.", controller.stats, out)
        compiler = controller.compiler
    if compiler is not None:
        _fields("engine.", compiler.engine.stats, out)
        total = compiler.total_stats
        _fields("spec.", total, out)
        _fields("opt.", total.opt, out)
        out["opt.pass_runs"] = sum(p.runs for p in total.opt.per_pass.values())
    return out


def delta(after: Dict[str, float], before: Dict[str, float]
          ) -> Dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()
            if v != before.get(k, 0)}


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    req: Optional[int] = None
    attrs: Dict[str, object] = dataclasses.field(default_factory=dict)
    deltas: Dict[str, float] = dataclasses.field(default_factory=dict)


class Tracer:
    """Collects spans; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, req: Optional[int] = None,
             counters: Optional[Callable[[], Dict[str, float]]] = None,
             **attrs):
        """Record a span; ``counters`` (read before and after) supplies
        the stats the wrapped call can move."""
        if not self.enabled:
            yield None
            return
        before = counters() if counters is not None else None
        span = Span(name, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else None,
                    req=req, attrs=attrs)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if before is not None:
                span.deltas = delta(counters(), before)

    def export(self) -> List[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Self time by span name: duration minus the child spans' share."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: Dict[str, float] = {}
    for span, children in zip(spans, child_time):
        own = span["end"] - span["start"] - children
        out[span["name"]] = out.get(span["name"], 0.0) + own
    return out
