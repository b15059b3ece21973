"""The tiered compilation engine: one subsystem for every AOT flow.

Before this layer existed, each guest runtime hand-wired its own
specialize → optimize → emit sequence, and both the in-memory
:class:`~repro.core.cache.SpecializationCache` and the compiled Python
artifacts evaporated at process exit.  The :class:`CompilationEngine`
owns the whole tier-up path instead:

* it accepts **batches** of
  :class:`~repro.core.request.SpecializationRequest`\\s and runs them
  serially in fixed stages — probe and dedup, specialize (which includes
  the verifying mid-end) every miss, emit backend code for every
  residual, then cache accounting, artifact writes and ``exec`` of
  emitted source — each stage **in request order**, so fault-seam
  consults, store contents and counters are reproducible; the caller's
  module mutation / table registration / heap patching follows in the
  same order;
* it layers the in-memory cache over a **persistent on-disk artifact
  store** (``cache_dir=``, :mod:`repro.pipeline.artifacts`): residual IR,
  emitted backend source and its precompiled code object survive
  process exit, a warm restart compiles zero functions, and fingerprint
  mismatches / version skew / corruption silently fall back to a fresh
  compile;
* residuals loaded from disk are **verified** before use (the artifact
  file is outside the process's trust boundary; a verifier rejection is
  treated exactly like corruption).
"""

from __future__ import annotations

import dataclasses
import marshal
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.cache import (
    SpecializationCache,
    request_key,
)
from repro.core.request import SpecializationRequest
from repro.core.specialize import SpecializeOptions, specialize
from repro.core.stats import EngineStats
from repro.ir.clone import clone_function
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.printer import print_function
from repro.ir.verifier import VerificationError, verify_function
from repro.pipeline.artifacts import (
    HIT,
    INVALID,
    MISS,
    ArtifactStore,
    residual_fingerprint,
)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclasses.dataclass
class EngineResult:
    """Outcome of one request in a batch, in request order.

    Exactly one of ``cache_hit`` / ``artifact_hit`` / ``specialized`` is
    true for the request that *produced* the function; a duplicate
    request in the same batch reuses the producer's *residual* (one
    specialize run) and counts as a cache hit — backend source is still
    emitted per request, because the emitted code embeds the unique
    function name in its trap messages.  ``pyfunc``/``py_source`` are
    populated when the engine's backend is ``"py"``;
    ``fallback_reason`` records a residual the emitter cannot express
    (it stays on the IR VM).

    ``error`` is the fault-containment surface: an exception anywhere in
    this request's pipeline (specialize, verify, emit) fails *this
    result only* — ``function`` is ``None``, nothing was cached or
    stored for it, and the rest of the batch is unaffected.  Callers
    must treat an errored result as "stay on the current tier"; the
    tiering controller turns it into quarantine.
    """

    request: SpecializationRequest
    function: Optional[Function]
    cache_hit: bool = False
    artifact_hit: bool = False
    specialized: bool = False
    py_source: Optional[str] = None
    pyfunc: Optional[Callable] = None
    fallback_reason: Optional[str] = None
    error: Optional[str] = None


class _Plan:
    """Mutable per-request bookkeeping while a batch is in flight."""

    __slots__ = ("request", "name", "key", "func", "cache_hit",
                 "artifact_hit", "specialized", "dup_of",
                 "py_source", "py_fallback", "py_code", "py_from_store",
                 "error")

    def __init__(self, request: SpecializationRequest, name: str,
                 key: tuple):
        self.request = request
        self.name = name
        self.key = key
        self.func: Optional[Function] = None
        self.cache_hit = False
        self.artifact_hit = False
        self.specialized = False
        self.dup_of: Optional[int] = None
        self.py_source: Optional[str] = None
        self.py_fallback: Optional[str] = None
        self.py_code: Optional[object] = None
        self.py_from_store = False
        self.error: Optional[str] = None


class CompilationEngine:
    """Batch compiler for specialization requests (specialize → opt →
    verify → emit) with tiered caching."""

    def __init__(self, module: Module,
                 options: Optional[SpecializeOptions] = None,
                 cache: Optional[SpecializationCache] = None,
                 cache_dir: Optional[str] = None):
        self.module = module
        self.options = options or SpecializeOptions()
        self.cache = cache
        self.fault_plan = self.options.fault_plan
        root = cache_dir if cache_dir is not None else self.options.cache_dir
        self.store: Optional[ArtifactStore] = None
        if root:
            try:
                self.store = ArtifactStore(root, fault_plan=self.fault_plan)
            except OSError:
                # An uncreatable cache directory (read-only image, path
                # collision) degrades to "no cache", never to a failed
                # build — matching the store's own write behavior.
                self.store = None
        self.stats = EngineStats()
        self._fingerprints: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Batch compilation.
    # ------------------------------------------------------------------
    def compile_batch(self, requests: List[SpecializationRequest],
                      snapshot: Optional[bytes] = None
                      ) -> List[EngineResult]:
        """Compile a batch of requests against one heap snapshot.

        Returns one :class:`EngineResult` per request, in request order.
        The engine does not mutate the module; the caller applies the
        functions (``module.add_function`` + table registration + heap
        patching) in this order — see
        :class:`~repro.core.snapshot.SnapshotCompiler`.
        """
        start = time.perf_counter()
        snapshot = bytes(snapshot if snapshot is not None
                         else self.module.memory_init)
        stats = self.stats
        stats.requests += len(requests)
        stats.inline_requests += sum(
            1 for r in requests if getattr(r, "inline_plan", ()))
        want_py = self.options.backend == "py"

        # Stage 0: keys, in-memory probes, in-batch dedup.
        plans: List[_Plan] = []
        first_of_key: Dict[tuple, int] = {}
        for request in requests:
            plan = _Plan(request, request.name(),
                         request_key(self.module, request, self.options,
                                     snapshot, self._fingerprints))
            owner = first_of_key.get(plan.key)
            if owner is not None:
                # Same key seen earlier in this batch: reuse its output
                # (compiled one request at a time, it would hit the
                # producer's cache entry).
                plan.dup_of = owner
            else:
                if self.cache is not None:
                    plan.func = self.cache.lookup(plan.key, plan.name)
                    plan.cache_hit = plan.func is not None
                if plan.func is None:
                    first_of_key[plan.key] = len(plans)
            plans.append(plan)

        # Stage 1: artifact load / fresh specialize for every
        # first-occurrence miss.
        for plan in plans:
            if plan.func is None and plan.dup_of is None:
                self._load_or_specialize(plan, snapshot)

        # Resolve duplicates: clone the producer's function.
        for plan in plans:
            if plan.dup_of is not None:
                producer = plans[plan.dup_of]
                if producer.error is not None:
                    # The producer crashed; its duplicates share the
                    # failure (there is no residual to clone).
                    plan.error = producer.error
                    continue
                plan.func = clone_function(producer.func, plan.name)
                plan.cache_hit = True
                if self.cache is not None:
                    # Accounting parity with compiling one request at a
                    # time, where the producer's insert precedes this
                    # probe.
                    self.cache.hits += 1

        # Stage 2: backend emission for every function.
        if want_py:
            for plan in plans:
                if plan.error is not None:
                    continue
                begin = time.perf_counter()
                status = MISS
                try:
                    (plan.py_source, plan.py_fallback, plan.py_code,
                     status) = self._emit_one(plan.func)
                    plan.py_from_store = status == HIT
                except Exception as exc:
                    plan.error = _describe(exc)
                if status == INVALID:
                    stats.artifact_invalid += 1
                stats.emit_seconds += time.perf_counter() - begin

        # Stage 3: cache/artifact writes and ``exec`` of emitted source.
        # Errored plans write nothing — a crashed stage must not leave
        # partial state in the caches.
        results = []
        for plan in plans:
            if plan.error is not None:
                stats.requests_failed += 1
            elif plan.cache_hit:
                stats.cache_hits += 1
                if self.store is not None and plan.dup_of is None and \
                        not self.store.has_residual(plan.key):
                    # A warm in-memory cache combined with a fresh
                    # cache_dir must still leave a complete store behind
                    # (the warm-start-on-disk contract).
                    ir_text = print_function(plan.func, order="id")
                    if self.store.store_residual(
                            plan.key, plan.func, ir_text,
                            plan.key[0], plan.key[2]):
                        stats.artifacts_written += 1
            elif plan.artifact_hit:
                stats.artifact_hits += 1
                if self.cache is not None:
                    self.cache.insert(plan.key, plan.func)
            elif plan.specialized:
                stats.functions_specialized += 1
                if self.cache is not None:
                    self.cache.insert(plan.key, plan.func)
                if self.store is not None:
                    ir_text = print_function(plan.func, order="id")
                    if self.store.store_residual(
                            plan.key, plan.func, ir_text,
                            plan.key[0], plan.key[2]):
                        stats.artifacts_written += 1
            results.append(self._finalize(plan))
        if self.store is not None:
            health = self.store.health()
            stats.store_write_failures = health["write_failures"]
            stats.store_degraded = 1 if health["degraded"] else 0
        stats.wall_seconds += time.perf_counter() - start
        return results

    def _load_or_specialize(self, plan: _Plan, snapshot: bytes) -> None:
        """Stage 1 for one miss: load the residual from the artifact
        store, or specialize it fresh.  An exception fails this request
        only; the caches and sibling requests are untouched."""
        fault = self.fault_plan
        begin = time.perf_counter()
        status = MISS
        try:
            func: Optional[Function] = None
            if self.store is not None:
                func, status = self.store.load_residual(
                    plan.key, plan.name, plan.key[0], plan.key[2])
                if func is not None:
                    try:
                        # Disk artifacts sit outside the process's trust
                        # boundary: verify before use, and treat a
                        # rejection exactly like corruption.
                        verify_function(func, self.module)
                    except VerificationError:
                        func, status = None, INVALID
            if func is None:
                if fault is not None:
                    fault.check("specialize")
                func = specialize(self.module, plan.request, self.options,
                                  snapshot)
                if fault is not None:
                    fault.check("verify")
            plan.func = func
            plan.artifact_hit = status == HIT
            plan.specialized = not plan.artifact_hit
        except Exception as exc:
            plan.error = _describe(exc)
        if status == INVALID:
            self.stats.artifact_invalid += 1
        self.stats.specialize_seconds += time.perf_counter() - begin

    def _emit_one(self, func: Function
                  ) -> Tuple[Optional[str], Optional[str], Optional[object],
                             str]:
        """Emit (or warm-load) backend source for one residual function.

        Returns ``(source, fallback_reason, code, store_status)``.

        ``code`` is the tier-3½ rung: the ``compile()``d code object for
        ``source``, either unmarshaled from the artifact store (warm
        start skips parse+compile entirely) or compiled here, so the
        ``exec`` in :meth:`_finalize` only has to bind globals.  ``None``
        means "compile from source"; any marshal/interpreter skew in the
        store degrades to that silently.
        """
        from repro.backend import (
            UnsupportedConstruct,
            compile_emitted,
            emit_function_source,
        )
        mode = self.options.emit_mode
        fp = None
        if self.store is not None:
            fp = residual_fingerprint(print_function(func, order="id"))
            cached, status = self.store.load_py_source(fp, mode)
            if cached is not None:
                return cached[0], cached[1], cached[2], status
        if self.fault_plan is not None:
            self.fault_plan.check("emit")
        code = code_bytes = fallback = None
        try:
            source, _mode_used, _emitter = emit_function_source(
                func, self.module, mode=mode)
            # Compiled here, once: a source CPython rejects becomes the
            # stored fallback verdict, so no warm start compiles it again.
            code = compile_emitted(func.name, source)
            code_bytes = marshal.dumps(code)
        except UnsupportedConstruct as exc:
            source, fallback = None, str(exc)
        if self.store is not None:
            self.store.store_py_source(fp, source, fallback, mode,
                                       code_bytes=code_bytes)
        return source, fallback, code, MISS

    def _finalize(self, plan: _Plan) -> EngineResult:
        """Turn a finished plan into a result; ``exec`` emitted source
        (callable identity is created in request order)."""
        from repro.backend import UnsupportedConstruct, compile_python_source
        stats = self.stats
        pyfunc = None
        if plan.py_source is not None:
            try:
                pyfunc = compile_python_source(plan.name, plan.py_source,
                                               code=plan.py_code)
            except UnsupportedConstruct as exc:
                plan.py_source, plan.py_fallback = None, str(exc)
            except Exception as exc:
                # ``exec`` of emitted source is deterministic for a given
                # residual, so an unexpected crash here is a permanent
                # emitter bug for this function: record a fallback (tier
                # 1 keeps serving it) instead of failing the request.
                plan.py_source = None
                plan.py_fallback = _describe(exc)
        if plan.py_source is not None or plan.py_fallback is not None:
            if plan.py_from_store:
                stats.backend_source_hits += 1
                if plan.py_code is not None:
                    stats.backend_code_hits += 1
            else:
                stats.backend_emitted += 1
            if plan.py_fallback is not None:
                stats.backend_fallbacks += 1
        return EngineResult(
            request=plan.request,
            function=plan.func,
            cache_hit=plan.cache_hit,
            artifact_hit=plan.artifact_hit,
            specialized=plan.specialized,
            py_source=plan.py_source,
            pyfunc=pyfunc,
            fallback_reason=plan.py_fallback,
            error=plan.error,
        )

    # ------------------------------------------------------------------
    # Backend-only compilation (tier-up of functions already in the
    # module, e.g. ``SnapshotCompiler.compile_backend`` after a
    # ``backend="vm"`` specialization run).
    # ------------------------------------------------------------------
    def compile_backend_functions(
            self, names: List[str]
            ) -> Tuple[Dict[str, Callable], List[Tuple[str, str]]]:
        """Emit + compile module functions to Python callables.

        Returns ``(compiled, fallbacks)`` like
        :func:`repro.backend.compile_functions`, but with artifact-store
        reuse.
        """
        from repro.backend import UnsupportedConstruct, compile_python_source
        start = time.perf_counter()
        stats = self.stats
        compiled: Dict[str, Callable] = {}
        fallbacks: List[Tuple[str, str]] = []
        todo: List[str] = []
        for name in names:
            if self.module.functions.get(name) is None:
                fallbacks.append((name, "not an IR function"))
            else:
                todo.append(name)
        for name in todo:
            begin = time.perf_counter()
            try:
                source, fallback, code, status = self._emit_one(
                    self.module.functions[name])
            except Exception:
                # Contained emit crash.  Deliberately *neither* compiled
                # nor a fallback: a fallback is the permanent
                # "emitter cannot express this" verdict, while a crash
                # is transient — leaving the name out of both tells the
                # tiering controller to quarantine and retry.
                stats.requests_failed += 1
                continue
            finally:
                stats.emit_seconds += time.perf_counter() - begin
            if source is not None:
                try:
                    compiled[name] = compile_python_source(name, source,
                                                           code=code)
                except UnsupportedConstruct as exc:
                    source, fallback = None, str(exc)
                except Exception as exc:
                    source, fallback = None, _describe(exc)
            if source is None:
                fallbacks.append((name, fallback))
            if status == HIT:
                stats.backend_source_hits += 1
                if code is not None:
                    stats.backend_code_hits += 1
            else:
                stats.backend_emitted += 1
            if status == INVALID:
                stats.artifact_invalid += 1
        stats.backend_fallbacks += len(fallbacks)
        stats.wall_seconds += time.perf_counter() - start
        return compiled, fallbacks
