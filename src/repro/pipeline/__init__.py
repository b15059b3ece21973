"""The compilation pipeline layer: batch AOT with tiered caching.

This package unifies the per-runtime AOT flows behind one subsystem,
the paper's production story (S6.5) made concrete:

* :class:`~repro.pipeline.engine.CompilationEngine` — serial batch
  specialize → opt → verify → emit; every stage, all module mutation
  and all cache accounting run in request order, and each request's
  failures are contained to that request;
* :class:`~repro.pipeline.artifacts.ArtifactStore` — the persistent
  on-disk cache (``cache_dir=``) of residual IR and emitted backend
  source, keyed by the same fingerprints as the in-memory
  :class:`~repro.core.cache.SpecializationCache`;
* :mod:`~repro.pipeline.serialize` — structural JSON round-tripping of
  IR functions with a strict corruption-is-a-miss contract;
* :class:`~repro.pipeline.tiering.TieringController` — profile-guided
  dynamic tier-up at run time (tier 0 generic interpreter → tier 1
  residual IR → tier 2 compiled Python), with guarded speculation and
  deopt back to the generic interpreter.  Pure AOT is the special case
  :meth:`~repro.pipeline.tiering.TieringController.promote_all`;
* :class:`~repro.pipeline.profiles.ProfileStore` — the fleet's
  persisted hot-set: per-function call/backedge heat merged across
  worker processes in the shared ``cache_dir``, published by
  :meth:`~repro.pipeline.tiering.TieringController.publish_heat` and
  re-adopted by
  :meth:`~repro.pipeline.tiering.TieringController.adopt_heat`, so a
  fresh worker starts at the fleet's steady state.

Every embedder reaches this layer through
:class:`~repro.core.snapshot.SnapshotCompiler`, which delegates its
``process_requests()`` / ``compile_backend()`` to an engine; configure
it with ``SpecializeOptions(cache_dir=...)``.
"""

from repro.pipeline.artifacts import (
    ARTIFACT_VERSION,
    EMITTER_VERSION,
    ArtifactStore,
    atomic_write_json,
    locked_write_json,
    residual_fingerprint,
)
from repro.pipeline.engine import CompilationEngine, EngineResult
from repro.pipeline.faults import SEAMS, FaultInjected, FaultPlan
from repro.pipeline.profiles import (
    PROFILE_VERSION,
    ProfileStore,
    open_profile_store,
    profile_key,
)
from repro.pipeline.serialize import (
    SerializationError,
    function_from_dict,
    function_to_dict,
)
from repro.pipeline.tiering import (
    DEFAULT_THRESHOLD,
    FunctionProfile,
    PromotionError,
    TierEntry,
    TieringController,
)

__all__ = [
    "ARTIFACT_VERSION",
    "DEFAULT_THRESHOLD",
    "EMITTER_VERSION",
    "PROFILE_VERSION",
    "SEAMS",
    "ArtifactStore",
    "CompilationEngine",
    "EngineResult",
    "FaultInjected",
    "FaultPlan",
    "FunctionProfile",
    "ProfileStore",
    "PromotionError",
    "SerializationError",
    "TierEntry",
    "TieringController",
    "atomic_write_json",
    "function_from_dict",
    "function_to_dict",
    "locked_write_json",
    "open_profile_store",
    "profile_key",
    "residual_fingerprint",
]
