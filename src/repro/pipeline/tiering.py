"""Profile-guided dynamic tier-up: the runtime half of the pipeline.

The paper's deployment — and this repo's AOT flows until now — is
strictly ahead-of-time: every guest runtime specializes its whole
snapshot before the first guest instruction runs, which front-loads the
entire compile cost onto startup even though most functions in a real
workload are cold.  The :class:`TieringController` refactors that into a
three-tier runtime system over the *same* compilation machinery:

* **tier 0** — the generic interpreter on the VM, with lightweight
  call and loop-backedge counters (``vm.tier_hook`` /
  ``vm.count_backedges`` in :mod:`repro.vm.machine`);
* **tier 1** — the weval residual IR, interpreted by the VM;
* **tier 2** — the residual compiled to native Python by
  :mod:`repro.backend`.

Promotion happens *at call boundaries*: the VM's tier hook fires when a
guest-level dispatch slot is still empty and the call is about to fall
back to the generic interpreter.  When a function's profile crosses the
hot threshold the controller compiles it right there — through the
owning :class:`~repro.core.snapshot.SnapshotCompiler` and therefore the
:class:`~repro.pipeline.engine.CompilationEngine` with its batching
and persistent artifact store — installs it in the module
table, patches the guest dispatch slot in the *live* heap, and redirects
the triggering call itself.  Because the redirect replaces the exact
call that would have gone generic, a threshold of 1 reproduces the
pure-AOT execution bit for bit (same residuals, same fuel), and a
threshold of ∞ degenerates to the plain interpreter; the tiered
differential tier asserts both.  Pure AOT itself is now just
:meth:`TieringController.promote_all` — "promote everything at
startup" through the same code path the dynamic system uses.

**Guarded speculation.**  With ``speculate=True`` the controller
watches the values of designated runtime arguments while a function is
cold.  If an argument held one stable value across every profiled call,
promotion specializes it as a
:class:`~repro.core.request.SpeculatedConst`: the specializer folds the
value as a constant behind an entry ``guard`` instruction.  A failed
guard raises :class:`~repro.vm.machine.GuardFailed`; the VM unwinds the
call, rolls the execution counters back (sound because the verifier
pins guards ahead of every side effect), re-runs the generic function,
and notifies the controller, which *demotes exactly once*: the
speculative residual is retired and the function is respecialized
without the failed speculation, so steady state never ping-pongs.

**Speculative inlining (PR 8).**  With ``inline=True`` (staged tier 2
only) the controller additionally profiles ``call_indirect`` *sites*
inside promoted residuals during the tier-1 window: the VM's site hook
records a per-site histogram of callee table indices.  When the
function earns its backend compile, hot nearly-monomorphic sites become
an **inline plan** — ``(site, ((table_index, callee_fingerprint),
...))`` entries carried on the
:class:`~repro.core.request.SpecializationRequest` (and so in the cache
and artifact keys) — and the respecialized residual splices the callee
bodies at those sites behind polymorphic guards
(:mod:`repro.opt.inline`).  A guard miss demotes **per site**, exactly
once: the site id travels on the resuming guard's VM notification (or
on :class:`~repro.vm.machine.GuardFailed` for unwinding guards), and
the controller respecializes with that one site removed from the plan
while every other speculation survives.

**Tier state.**  Each function's tier is one :class:`TierState` in
:attr:`FunctionProfile.state`, changed only by
:meth:`TieringController._transition`, which performs every side effect
of entering the state (dispatch slot, site-profiling set, speculation
registry, tier-2 install, link invalidation, stats), so the tiers
cannot drift apart:

===========  ====  ===========  ==============================================
state        tier  guest slot   entered by
===========  ====  ===========  ==============================================
COLD         0     0            registration; demotion by a guard failure
STAGED       1     0            promotion in staged mode; tier 2 pending
TIER1        1     table index  promotion on the vm backend; emitter fallback
TIER2        2     table index  promotion or staged install with a callable
BLACKLISTED  0     0            ``max_compile_failures`` contained failures
PINNED       0     0            the deopt-storm breaker
===========  ====  ===========  ==============================================

BLACKLISTED and PINNED are final.  Quarantine is not a state: it is the
``retry_at_score`` gate on compile attempts, in COLD and STAGED alike.
"""

from __future__ import annotations

import dataclasses
import enum
import time
from typing import Dict, List, Optional, Tuple

from repro.core.cache import function_fingerprint
from repro.core.request import (
    Runtime,
    SpecializationRequest,
    SpeculatedConst,
)
from repro.core.snapshot import SnapshotCompiler
from repro.core.specialize import SpecializeOptions
from repro.core.stats import TieringStats
from repro.ir.module import Module
from repro.pipeline.profiles import ProfileStore, profile_key
from repro.vm.machine import VM

# Calls a function must accumulate before promotion.  Deliberately low:
# a guest call is expensive relative to the profile bookkeeping, and the
# residual usually wins after a handful of calls.
DEFAULT_THRESHOLD = 8

_UNSTABLE = object()


class TierState(enum.Enum):
    """Where one function executes (see the module docstring's table)."""

    COLD = "cold"
    STAGED = "staged"
    TIER1 = "tier1"
    TIER2 = "tier2"
    BLACKLISTED = "blacklisted"
    PINNED = "pinned"


# Module-level aliases: the tier hook tests states on every tier-0 call,
# and enum attribute access costs several times a global load.
COLD, STAGED, TIER1, TIER2, BLACKLISTED, PINNED = TierState

_TIER_OF = {COLD: 0, STAGED: 1, TIER1: 1, TIER2: 2,
            BLACKLISTED: 0, PINNED: 0}


class PromotionError(Exception):
    """A compile failure surfaced by the engine (``EngineResult.error``)
    re-raised inside the controller so one containment policy handles
    both in-process exceptions and contained engine-task crashes."""


@dataclasses.dataclass
class TierEntry:
    """One tierable guest function, declared by the embedding runtime.

    ``generic`` is the *runnable* generic entry (the function the guest
    dispatch falls back to and the tier hook watches); ``request`` may
    target a different, specialization-only variant (e.g. the
    state-intrinsic interpreter body).  ``key`` is the guest identity of
    the function (function-struct/proto/bytecode pointer) and must equal
    ``args[key_index]`` of a generic call; ``result_addr`` is the heap
    slot guest code dispatches through, patched with the module-table
    index on installation.  ``speculate_args`` lists indices of
    ``Runtime`` parameters eligible for guarded value speculation.
    """

    generic: str
    key: int
    request: SpecializationRequest
    result_addr: int
    key_index: int = 0
    speculate_args: Tuple[int, ...] = ()
    # Stable cross-process identity for persisted heat.  ``key`` is a
    # raw guest pointer, and pointers get *reused*: drop an endpoint and
    # register a different program at the same base and the default
    # ``profile_key(generic, key)`` would adopt the dead program's heat
    # into the new one.  Embedders whose keys can be reused set this to
    # a content-derived token (e.g. a hash of the guest program) so heat
    # follows the program, not the address.
    heat_key: Optional[str] = None
    # Embedder policy hook for speculative inlining: given a candidate
    # callee's installed function name, return whether its body may be
    # spliced into this function's residual (e.g. the JS runtime admits
    # IC stubs only while their shape is still live in the shape table).
    # ``None`` admits every structurally eligible callee.
    inline_gate: Optional[object] = None


class FunctionProfile:
    """Per-function tiering state (tier 0 counters and beyond)."""

    __slots__ = ("entry", "calls", "backedges", "state", "installed_name",
                 "table_index", "deopts", "samples", "no_speculate",
                 "calls_at_promotion",
                 "published_calls", "published_backedges",
                 "site_callees", "no_inline_sites", "inline_plan",
                 "active_request", "compile_failures", "retry_at_score",
                 "deopt_marks", "last_error")

    def __init__(self, entry: TierEntry):
        self.entry = entry
        self.calls = 0
        self.backedges = 0
        # High-water marks of counters already published to (or adopted
        # from) a shared ProfileStore: publishes send only the delta
        # beyond these, so fleet heat accumulates without double counts.
        self.published_calls = 0
        self.published_backedges = 0
        # Assigned only by TieringController._transition.
        self.state = COLD
        self.installed_name: Optional[str] = None
        self.table_index = 0
        self.deopts = 0
        # arg index -> first observed value, or _UNSTABLE once two calls
        # disagreed (speculation is then off for that argument).
        self.samples: Dict[int, object] = {}
        self.no_speculate = False
        self.calls_at_promotion = 0
        # Per-call-site callee histograms from the tier-1 window:
        # site id -> {table index -> count}.
        self.site_callees: Dict[int, Dict[int, int]] = {}
        # Sites whose speculation failed once — never replanned.
        self.no_inline_sites: set = set()
        # The inline plan the installed residual was built with.
        self.inline_plan: tuple = ()
        # The request actually used at promotion (speculation applied);
        # inline (re)specializations derive from it.
        self.active_request: Optional[SpecializationRequest] = None
        # Fault containment: consecutive contained compile failures and
        # the score this function must reach before the next compile
        # attempt (None = not quarantined).
        self.compile_failures = 0
        self.retry_at_score: Optional[float] = None
        # Call-count marks of recent deopt/guard-miss events, for the
        # storm breaker's sliding window.
        self.deopt_marks: List[int] = []
        self.last_error: Optional[str] = None

    @property
    def tier(self) -> int:
        """The tier ``state`` executes on (0, 1 or 2); read-only."""
        return _TIER_OF[self.state]

    def score(self, backedge_weight: int) -> int:
        return self.calls + self.backedges // backedge_weight


class TieringController:
    """Owns per-function tier state and drives promotion and deopt.

    One controller serves one module and one live VM.  The AOT flows
    construct it, :meth:`register` every function, and call
    :meth:`promote_all`; the tiered flows :meth:`attach` it to the VM
    and let the profile decide.  All compilation goes through the
    controller's :class:`~repro.core.snapshot.SnapshotCompiler` (and so
    the batching/caching :class:`~repro.pipeline.engine.CompilationEngine`).

    ``compile_threshold`` staggers tier 2: ``0`` (default) installs the
    backend callable at promotion time when ``options.backend == "py"``;
    ``n > 0`` keeps a promoted function on tier 1 — redirected at the
    call boundary, its dispatch slot deliberately unpatched so calls
    keep entering the hook — for ``n`` further calls before paying for
    backend compilation and patching the slot.
    """

    # Policy constants.  Every caller uses these values; a test that
    # needs another one overrides the attribute on its instance.
    #
    # How many loop backedges count as one call toward the hot score: a
    # function that is entered rarely but spins long loops still promotes
    # (at its next call boundary).
    backedge_weight = 512
    # Inlining: a site must have been observed this many times in the
    # tier-1 window, with at most this many distinct callees, and each
    # callee residual at most this many instructions.
    inline_min_site_calls = 2
    inline_max_targets = 2
    inline_max_instrs = 400
    # Fault containment (PR 9).  A contained compile failure quarantines
    # the function: the next attempt waits for exponential backoff
    # measured in *threshold crossings* (the retry is earned by fresh
    # heat, not by wall clock — a function nobody calls never retries),
    # and after ``max_compile_failures`` contained failures the function
    # is blacklisted to tier 0 permanently.  Separately, the deopt-storm
    # breaker pins a function generic for good when ``storm_deopts``
    # guard misses land within a window of ``storm_window`` calls — with
    # the demote-exactly-once design a healthy function can deopt at most
    # once per speculation, so a storm means its guards are
    # systematically wrong.
    max_compile_failures = 3
    storm_deopts = 8
    storm_window = 64

    def __init__(self, module: Module,
                 options: Optional[SpecializeOptions] = None,
                 cache=None,
                 cache_dir: Optional[str] = None,
                 threshold: float = DEFAULT_THRESHOLD,
                 speculate: bool = False,
                 compile_threshold: int = 0,
                 inline: bool = False):
        self.module = module
        self.options = options or SpecializeOptions()
        self.threshold = (DEFAULT_THRESHOLD if threshold is None
                          else threshold)
        self.speculate = speculate
        self.compile_threshold = compile_threshold
        self.want_py = self.options.backend == "py"
        staged = self.want_py and compile_threshold > 0
        self._staged_tier2 = staged
        self.inline = inline
        if inline and not staged:
            # Site histograms only exist while a promoted residual runs
            # on the VM with its dispatch slot unpatched — that *is* the
            # staged tier-1 window.
            raise ValueError(
                "inline=True requires a staged tier-2 window "
                "(backend='py' and compile_threshold > 0)")
        # In staged mode the engine specializes to residual IR only; the
        # backend emit for a function is paid when *it* reaches tier 2.
        compiler_options = (dataclasses.replace(self.options, backend="vm")
                            if staged else self.options)
        self.compiler = SnapshotCompiler(module, compiler_options, cache,
                                         cache_dir=cache_dir)
        self.vm: Optional[VM] = None
        self.stats = TieringStats()
        self.entries: List[TierEntry] = []
        self.profiles: Dict[Tuple[str, int], FunctionProfile] = {}
        self._key_index: Dict[str, int] = {}
        self._speculative: Dict[str, FunctionProfile] = {}
        self._last_profile: Optional[FunctionProfile] = None
        self._backedges_seen = 0
        # Installed residual name -> owning profile (all installs, old
        # names kept for in-flight frames); and the names currently in
        # their site-profiling window (the STAGED installs).
        self._site_owner: Dict[str, FunctionProfile] = {}
        self._site_profiled: frozenset = frozenset()

    # ------------------------------------------------------------------
    # Setup.
    # ------------------------------------------------------------------
    def _bump_links(self) -> None:
        """Reset the VM's call link slots (PR 10) after a
        dispatch-changing event the VM cannot observe itself:
        (un)registration changing ``tier_generics``, attachment, and
        every tier transition (a raw-linked call must never outlive the
        conditions its link probe checked)."""
        if self.vm is not None:
            self.vm.links.invalidate()

    def _transition(self, profile: FunctionProfile, to: TierState) -> None:
        """Enter state ``to``: the only place ``profile.state`` changes.

        Performs every side effect of being in ``to``, so the dispatch
        slot, the site-profiling set, the speculation registry, the
        installed callables and the link table always agree with the
        state.  Re-entering the current state re-establishes them after
        a failed attempt (the snapshot compiler patches the slot as it
        installs a residual).
        """
        profile.state = to
        name = profile.installed_name
        vm = self.vm
        if to is TIER2:
            pyfunc = self.compiler.backend_functions[name]
            # promote_all installs its whole batch in one call first.
            if vm is not None and vm.compiled.get(name) is not pyfunc:
                vm.install_compiled({name: pyfunc})
            self.stats.tier2_installs += 1
        elif to is BLACKLISTED:
            self.stats.blacklists += 1
        elif to is PINNED:
            self.stats.storm_pins += 1
        if to is COLD or to is BLACKLISTED or to is PINNED:
            # No new call may reach a retired speculative residual, so a
            # later guard failure is an in-flight frame, not a demotion.
            self._speculative.pop(name, None)
        if vm is None:
            return
        vm.store_u64(profile.entry.result_addr,
                     profile.table_index if to is TIER1 or to is TIER2
                     else 0)
        if self.inline:
            self._site_profiled = vm.site_profile_functions = frozenset(
                p.installed_name for p in self.profiles.values()
                if p.state is STAGED)
        self._bump_links()

    def register(self, entry: TierEntry) -> None:
        """Declare one tierable function (before or after attaching)."""
        index = self._key_index.setdefault(entry.generic, entry.key_index)
        if index != entry.key_index:
            raise ValueError(
                f"{entry.generic}: inconsistent key_index "
                f"({index} vs {entry.key_index})")
        self.entries.append(entry)
        self.profiles[(entry.generic, entry.key)] = FunctionProfile(entry)
        if self.vm is not None:
            self.vm.tier_generics = frozenset(self._key_index)
            self._bump_links()

    def unregister(self, entry: TierEntry) -> None:
        """Retire one registered function (endpoint churn).

        Drops its profile and entry — so the tier hook can never again
        redirect a call with this key to the retired residual, and
        ``promote_all`` / ``adopt_heat`` batches no longer include it —
        and zeroes its guest dispatch slot so heap-level dispatch falls
        back to the generic path.  The residual function itself stays in
        the module (installed names are never reused; a later tenant's
        residual gets a fresh unique name), so in-flight frames are
        unaffected.
        """
        profile = self.profiles.pop((entry.generic, entry.key), None)
        self.entries = [e for e in self.entries
                        if (e.generic, e.key) != (entry.generic, entry.key)]
        if profile is not None:
            if self._last_profile is profile:
                self._last_profile = None
            if profile.installed_name is not None:
                self._speculative.pop(profile.installed_name, None)
        if self.vm is not None:
            self.vm.store_u64(entry.result_addr, 0)
        self._bump_links()

    def attach(self, vm: VM) -> VM:
        """Bind the controller to a live VM and enable profiling."""
        self.vm = vm
        self.compiler.vm = vm
        vm.tier_hook = self._on_call
        vm.tier_generics = frozenset(self._key_index)
        vm.deopt_hook = self._on_deopt
        vm.count_backedges = True
        if self.inline:
            vm.site_profile_hook = self._on_site
            vm.site_miss_hook = self._on_site_miss
            vm.site_profile_functions = self._site_profiled
        # Activating the tier hook changes what generic names dispatch
        # to; drop any links made before attachment.
        self._bump_links()
        return vm

    # ------------------------------------------------------------------
    # The pure-AOT path: promote everything, up front, in one batch.
    # ------------------------------------------------------------------
    def promote_all(self, entries: Optional[List[TierEntry]] = None
                    ) -> List[str]:
        """Compile and install every registered function now (one engine
        batch, artifact-cached).

        ``entries`` restricts the batch to a subset (the heat-adoption
        path promotes only the fleet's hot set); the default promotes
        everything, which is the pure-AOT flow.
        """
        start = time.perf_counter()
        entries = self.entries if entries is None else entries
        for entry in entries:
            self.compiler.enqueue(entry.request, entry.result_addr)
        processed = self.compiler.process_requests()
        if self.vm is not None and self.compiler.backend_functions:
            self.vm.install_compiled(self.compiler.backend_functions)
        names = []
        for entry, item in zip(entries, processed):
            profile = self.profiles[(entry.generic, entry.key)]
            if item.error is not None:
                # Contained engine failure for this one function: it
                # stays on tier 0 (nothing was installed) and enters
                # quarantine; the rest of the batch installs normally.
                self._contain_failure(profile, item.error)
                continue
            profile.installed_name = item.function_name
            profile.table_index = item.table_index
            self._transition(profile,
                             self._compiled_state(item.function_name))
            names.append(item.function_name)
        self.stats.promotions += len(names)
        self.stats.promote_seconds += time.perf_counter() - start
        return names

    # ------------------------------------------------------------------
    # Fleet heat: persisted cross-process profiles.
    # ------------------------------------------------------------------
    def publish_heat(self, store: ProfileStore) -> bool:
        """Merge this worker's profiling since the last publish into the
        shared heat file (per-function call/backedge deltas).

        Idempotent bookkeeping: the high-water marks only advance when
        the merge lands, so a failed publish (read-only store, lost
        validation) retains the delta for the next attempt.
        """
        deltas = {}
        pending = []
        for (generic, key), profile in self.profiles.items():
            calls = profile.calls - profile.published_calls
            backedges = profile.backedges - profile.published_backedges
            if calls or backedges:
                heat_key = (profile.entry.heat_key
                            or profile_key(generic, key))
                deltas[heat_key] = {"calls": calls, "backedges": backedges}
                pending.append((profile, calls, backedges))
        if not deltas:
            return True
        if not store.merge(deltas):
            return False
        for profile, calls, backedges in pending:
            # Advance the marks by exactly the delta that was merged —
            # NOT to the live counters, which another thread (or the
            # profiled workload itself, re-entering through a host call
            # during the merge) may have advanced since the snapshot
            # above; those extra counts belong to the *next* publish.
            profile.published_calls += calls
            profile.published_backedges += backedges
        return True

    def adopt_heat(self, store: ProfileStore) -> List[str]:
        """Warm this worker from the fleet's persisted heat.

        Every registered function's counters are seeded with the merged
        fleet heat (marked as already published, so this worker never
        re-contributes it), and functions whose persisted score already
        crosses the promotion threshold are compiled **now** in one
        batch — against a warm artifact store that batch is pure loads,
        so a fresh worker reaches the fleet's steady state before its
        first request instead of re-discovering the hot set through
        threshold-many generic calls per function.

        Returns the installed names of the adopted hot set.
        """
        heat = store.load()
        if not heat:
            return []
        hot = []
        for entry in self.entries:
            record = heat.get(entry.heat_key
                              or profile_key(entry.generic, entry.key))
            if record is None:
                continue
            profile = self.profiles[(entry.generic, entry.key)]
            profile.calls += record["calls"]
            profile.backedges += record["backedges"]
            profile.published_calls += record["calls"]
            profile.published_backedges += record["backedges"]
            if profile.state is COLD and \
                    profile.score(self.backedge_weight) >= self.threshold:
                hot.append(entry)
        if not hot:
            return []
        return self.promote_all(entries=hot)

    # ------------------------------------------------------------------
    # Tier-0 profiling hook (VM call boundary).
    # ------------------------------------------------------------------
    def _on_call(self, name: str, args) -> Optional[str]:
        profile = self.profiles.get((name, args[self._key_index[name]]))
        if profile is None:
            return None
        vm = self.vm
        # Attribute loop backedges observed since the last boundary to
        # the most recent cold function (a deliberately lightweight
        # heuristic: exact attribution would need per-frame tracking).
        delta = vm.stats.backedges - self._backedges_seen
        if delta:
            self._backedges_seen = vm.stats.backedges
            if self._last_profile is not None:
                self._last_profile.backedges += delta
        self._last_profile = profile
        profile.calls += 1
        state = profile.state
        if state is COLD:
            if self.speculate and profile.entry.speculate_args \
                    and not profile.no_speculate:
                samples = profile.samples
                for index in profile.entry.speculate_args:
                    seen = samples.get(index)
                    if seen is None:
                        samples[index] = args[index]
                    elif seen is not _UNSTABLE and seen != args[index]:
                        samples[index] = _UNSTABLE
            if profile.score(self.backedge_weight) >= self.threshold and \
                    self._may_attempt(profile):
                name = self._promote_contained(profile)
                if name is not None:
                    return name
        elif state is STAGED:
            # Promoted but deliberately unpatched: redirect to the
            # residual, and pay for tier 2 once it proves durable.
            if (profile.calls - profile.calls_at_promotion
                    >= self.compile_threshold
                    and self._may_attempt(profile)):
                try:
                    self._install_tier2(profile)
                except Exception as exc:
                    # Contained tier-2 failure: keep serving the tier-1
                    # residual and retry the install after backoff.
                    self._contain_failure(
                        profile, f"{type(exc).__name__}: {exc}")
            if profile.state is not BLACKLISTED:
                return profile.installed_name
        elif state is TIER1 or state is TIER2:
            return profile.installed_name
        # Only now is the call certain to execute on the generic
        # interpreter (every earlier path redirected it).  BLACKLISTED
        # and PINNED are final: tier 0 for the rest of the session.
        self.stats.tier0_calls += 1
        return None

    # ------------------------------------------------------------------
    # Fault containment (PR 9): quarantine, blacklist, storm breaker.
    # ------------------------------------------------------------------
    def _may_attempt(self, profile: FunctionProfile) -> bool:
        """The quarantine gate: after a contained failure, the next
        compile attempt waits until the backoff score is reached."""
        return (profile.retry_at_score is None
                or profile.score(self.backedge_weight)
                >= profile.retry_at_score)

    def _promote_contained(self, profile: FunctionProfile) -> Optional[str]:
        """:meth:`_promote` under the containment policy: an exception
        anywhere in the compile fails *this promotion attempt only* —
        the triggering call (and every call until the backoff expires)
        runs generically, which is always correct."""
        retrying = profile.compile_failures > 0
        if retrying:
            self.stats.quarantine_retries += 1
        try:
            name = self._promote(profile)
        except Exception as exc:
            self._contain_failure(profile,
                                  f"{type(exc).__name__}: {exc}")
            return None
        if retrying:
            self.stats.quarantine_recoveries += 1
        profile.compile_failures = 0
        profile.retry_at_score = None
        return name

    def _contain_failure(self, profile: FunctionProfile,
                         message: str) -> None:
        """Apply quarantine policy after one contained compile failure."""
        self.stats.compile_failures += 1
        profile.compile_failures += 1
        profile.last_error = message
        # Drop any queued requests the failed attempt left behind so the
        # next (unrelated) promotion does not replay a poisoned batch.
        self.compiler.pending = []
        if profile.compile_failures >= self.max_compile_failures:
            self._transition(profile, BLACKLISTED)
            return
        if profile.compile_failures == 1:
            self.stats.quarantines += 1
        # Exponential backoff measured in threshold crossings: the Nth
        # consecutive failure defers the retry until the function has
        # earned 2^(N-1) further thresholds' worth of heat.
        backoff = max(1.0, float(self.threshold)) * \
            (2 ** (profile.compile_failures - 1))
        profile.retry_at_score = \
            profile.score(self.backedge_weight) + backoff
        if profile.state is STAGED:
            # A failed tier-2 attempt may already have respecialized the
            # residual (new name, patched slot): re-enter the state.
            self._transition(profile, STAGED)

    def _record_deopt_event(self, profile: FunctionProfile) -> bool:
        """Feed one deopt/guard-miss event to the storm breaker; returns
        True when it just pinned the function generic.

        The pin is final: this function's speculation is systematically
        wrong, so it serves tier 0 from now on.  In-flight frames of old
        residuals still deopt safely (their fallback mappings survive).
        """
        marks = profile.deopt_marks
        marks.append(profile.calls)
        cutoff = profile.calls - self.storm_window
        while marks and marks[0] < cutoff:
            marks.pop(0)
        if len(marks) < self.storm_deopts:
            return False
        profile.no_speculate = True
        self._transition(profile, PINNED)
        return True

    # ------------------------------------------------------------------
    # Promotion.
    # ------------------------------------------------------------------
    def _speculative_request(self, profile: FunctionProfile
                             ) -> Tuple[SpecializationRequest, bool]:
        entry = profile.entry
        request = entry.request
        if not (self.speculate and entry.speculate_args
                and not profile.no_speculate):
            return request, False
        modes = list(request.args)
        speculated = False
        for index in entry.speculate_args:
            value = profile.samples.get(index)
            if value is None or value is _UNSTABLE:
                continue
            if isinstance(modes[index], Runtime):
                modes[index] = SpeculatedConst(value)
                speculated = True
        if not speculated:
            return request, False
        return dataclasses.replace(
            request, args=modes,
            specialized_name=request.name() + ".guarded"), True

    def _promote(self, profile: FunctionProfile) -> str:
        """Compile ``profile``'s function and install it at this call
        boundary; returns the installed name (the call redirect)."""
        start = time.perf_counter()
        entry = profile.entry
        request, speculative = self._speculative_request(profile)
        self.compiler.enqueue(request, entry.result_addr)
        item = self.compiler.process_requests()[-1]
        if item.error is not None:
            # The engine contained a compile crash for this request (no
            # module/table/heap mutation happened); surface it to the
            # quarantine policy.
            raise PromotionError(item.error)
        name = item.function_name
        profile.installed_name = name
        profile.table_index = item.table_index
        profile.calls_at_promotion = profile.calls
        profile.active_request = request
        if speculative:
            # A failed guard must land in the *runnable* generic body.
            self.vm.deopt_fallbacks[name] = entry.generic
            self._speculative[name] = profile
            self.stats.speculative_promotions += 1
        if self.inline:
            self._site_owner[name] = profile
        # Staged: dispatch keeps flowing through the hook until the
        # function earns its backend compile.
        self._transition(profile, STAGED if self._staged_tier2
                         else self._compiled_state(name))
        self.stats.promotions += 1
        self.stats.promote_seconds += time.perf_counter() - start
        return name

    def _compiled_state(self, name: str) -> TierState:
        """TIER2 when the backend compiled ``name``, else TIER1 (the vm
        backend, or an emitter fallback that stays on the IR VM)."""
        if self.want_py and name in self.compiler.backend_functions:
            return TIER2
        return TIER1

    def _install_tier2(self, profile: FunctionProfile) -> None:
        """Compile a STAGED residual to tier 2 and patch the guest
        dispatch slot.  An emitter fallback leaves the function on the
        tier-1 residual for good.  With inlining on, this is also the
        moment the site histograms gathered in the tier-1 window become
        an inline plan and the residual is respecialized with it."""
        if self.inline:
            plan = self._build_plan(profile)
            if plan:
                self._respecialize_with_plan(profile, plan)
                self.stats.inline_sites_planned += len(plan)
        name = profile.installed_name
        if name in self.compiler.compile_backend([name]):
            self._transition(profile, TIER2)
        elif any(f[0] == name for f in self.compiler.backend_fallbacks):
            self._transition(profile, TIER1)
        else:
            # Neither compiled nor a recorded emitter fallback: the emit
            # stage *crashed* (a fallback is the permanent "cannot
            # express" verdict; a crash is transient).  The function
            # stays STAGED and the install is retried after backoff.
            raise PromotionError(f"tier-2 emit failed for {name}")

    # ------------------------------------------------------------------
    # Speculative inlining (plan building and per-site demotion).
    # ------------------------------------------------------------------
    def _inlinable_target(self, entry: TierEntry, profile: FunctionProfile,
                          index: int) -> Optional[Tuple[int, str]]:
        """Vet one observed callee table index; ``None`` rejects the
        whole site (the guard must cover every hot callee, or it would
        just miss its way to a demotion)."""
        if not (0 < index < len(self.module.table)):
            return None
        name = self.module.table[index]
        if name is None:
            return None
        callee = self.module.functions.get(name)
        if callee is None or callee.entry is None:
            return None
        if index == profile.table_index:
            return None  # self-recursion only grows the body
        if callee.num_instrs() > self.inline_max_instrs:
            return None
        if entry.inline_gate is not None and not entry.inline_gate(name):
            return None
        return index, function_fingerprint(callee)

    def _build_plan(self, profile: FunctionProfile) -> tuple:
        """Turn the tier-1 window's site histograms into an inline plan
        (deterministically ordered by site id)."""
        entry = profile.entry
        plan = []
        for site in sorted(profile.site_callees):
            if site in profile.no_inline_sites:
                continue
            hist = profile.site_callees[site]
            if sum(hist.values()) < self.inline_min_site_calls:
                continue
            if len(hist) > self.inline_max_targets:
                self.stats.inline_candidates_rejected += 1
                continue
            targets = []
            for index in sorted(hist):
                target = self._inlinable_target(entry, profile, index)
                if target is None:
                    targets = None
                    break
                targets.append(target)
            if not targets:
                self.stats.inline_candidates_rejected += 1
                continue
            plan.append((site, tuple(targets)))
        return tuple(plan)

    def _respecialize_with_plan(self, profile: FunctionProfile,
                                plan: tuple) -> None:
        """Compile and install the residual for ``active_request`` +
        ``plan`` (which may be empty: that is exactly the base
        residual's request, so the engine cache serves it)."""
        entry = profile.entry
        request = profile.active_request or entry.request
        if plan:
            request = dataclasses.replace(request, inline_plan=plan)
        self.compiler.enqueue(request, entry.result_addr)
        item = self.compiler.process_requests()[-1]
        if item.error is not None:
            # Contained engine crash: the previously installed residual
            # is still live and correct, so the caller's containment
            # wrapper just records the failure.
            raise PromotionError(item.error)
        old_name = profile.installed_name
        name = item.function_name
        profile.installed_name = name
        profile.table_index = item.table_index
        profile.inline_plan = plan
        self._site_owner[name] = profile
        if old_name is not None and old_name in self._speculative:
            # The entry speculation travels with the function, not with
            # one residual: keep demote-once working under the new name.
            self._speculative[name] = self._speculative.pop(old_name)
        if self._needs_fallback(name):
            self.vm.deopt_fallbacks[name] = entry.generic

    def _needs_fallback(self, name: str) -> bool:
        """True when the installed residual contains an *unwinding*
        guard (legacy int imm or ``(site, values)``) — only those raise
        :class:`GuardFailed` and need a registered generic fallback."""
        func = self.module.functions.get(name)
        if func is None:
            return False
        for block in func.blocks.values():
            for instr in block.instrs:
                if instr.op == "guard" and (
                        not isinstance(instr.imm, tuple)
                        or len(instr.imm) == 2):
                    return True
        return False

    def _on_site(self, name: str, site: int, index: int) -> None:
        """VM site-profiling hook: one ``call_indirect`` dispatch inside
        a residual in its tier-1 window."""
        profile = self._site_owner.get(name)
        if profile is None:
            return
        hist = profile.site_callees.setdefault(site, {})
        hist[index] = hist.get(index, 0) + 1

    def _on_site_miss(self, name: str, site: int) -> None:
        """VM notification from a *resuming* inline guard: the callee at
        ``site`` was not in the speculated set.  Execution continued on
        the materialized slow path, so only the plan needs repair."""
        self.stats.site_misses += 1
        profile = self._site_owner.get(name)
        if profile is None:
            return
        self._demote_site(profile, site)

    def _demote_site(self, profile: FunctionProfile, site: int) -> None:
        """Retire one speculation site, exactly once: respecialize with
        the remaining plan; every other inlined site survives.

        Contained: if the repair compile itself crashes, the *old*
        residual keeps serving (its guard at this site now always takes
        the slow path / generic fallback — slower, never wrong) and the
        failure feeds the quarantine policy.
        """
        if site in profile.no_inline_sites or \
                profile.state is BLACKLISTED or profile.state is PINNED:
            return  # in-flight frames of a retired residual
        start = time.perf_counter()
        profile.no_inline_sites.add(site)
        self.stats.site_demotions += 1
        if self._record_deopt_event(profile):
            return  # storm breaker: pinned generic, no repair compile
        try:
            plan = tuple(e for e in profile.inline_plan if e[0] != site)
            self._respecialize_with_plan(profile, plan)
            name = profile.installed_name
            to = profile.state
            if to is TIER2 and \
                    name not in self.compiler.compile_backend([name]):
                to = TIER1
            self._transition(profile, to)
        except Exception as exc:
            self._contain_failure(profile, f"{type(exc).__name__}: {exc}")
        finally:
            self.stats.promote_seconds += time.perf_counter() - start

    # ------------------------------------------------------------------
    # Deopt (guard failure at a call boundary).
    # ------------------------------------------------------------------
    def _on_deopt(self, name: str, site: Optional[int] = None) -> None:
        self.stats.deopts += 1
        # The VM has just rolled its counters back to the pre-call
        # snapshot, which can sit *below* the controller's backedge
        # high-water mark; without a resync the next call boundary would
        # compute a negative delta and drain heat from whichever profile
        # happened to be most recent.  This covers the mid-function
        # unwind path too: a polymorphic guard deep in the body abandons
        # backedges its own loops already counted.
        if self.vm is not None and \
                self.vm.stats.backedges < self._backedges_seen:
            self._backedges_seen = self.vm.stats.backedges
        if site is not None:
            # Per-site attribution: an unwinding polymorphic guard
            # failed.  Demote that one site, never the whole function
            # (and never an unrelated guard in the same function).
            profile = self._site_owner.get(name)
            if profile is not None:
                self._demote_site(profile, site)
            return
        profile = self._speculative.pop(name, None)
        if profile is None:
            # Already demoted (an in-flight frame hit the same retired
            # residual); the VM's fallback mapping still routes it to
            # the generic body, nothing more to do.
            return
        profile.deopts += 1
        profile.no_speculate = True
        self.stats.demotions += 1
        self._transition(profile, COLD)
        if self._record_deopt_event(profile):
            return  # storm breaker: pinned generic, no replacement
        # Respecialize without the failed speculation and install the
        # plain residual; the deopted call itself runs generically (the
        # VM re-dispatches it after this hook returns).  Contained: a
        # crashed replacement compile leaves the function on tier 0,
        # quarantined.
        self._promote_contained(profile)

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------
    def tier_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {0: 0, 1: 0, 2: 0}
        for profile in self.profiles.values():
            counts[profile.tier] = counts.get(profile.tier, 0) + 1
        return counts

    def report(self) -> str:
        """Human-readable per-function tier table (examples, benches)."""
        lines = ["function".ljust(34) + "tier  calls  backedges  deopts"]
        for (generic, key), profile in sorted(self.profiles.items()):
            label = profile.installed_name or f"{generic}[{key:#x}]"
            lines.append(f"{label[:33].ljust(34)}{profile.tier:>4}"
                         f"{profile.calls:>7}{profile.backedges:>11}"
                         f"{profile.deopts:>8}")
        counts = self.tier_counts()
        stats = self.stats
        lines.append(
            f"tiers: {counts.get(0, 0)}/t0 {counts.get(1, 0)}/t1 "
            f"{counts.get(2, 0)}/t2 | promotions={stats.promotions} "
            f"(speculative={stats.speculative_promotions}) "
            f"deopts={stats.deopts} demotions={stats.demotions} "
            f"promote={stats.promote_seconds * 1000:.1f}ms")
        if self.inline:
            lines.append(
                f"inline: sites={stats.inline_sites_planned} "
                f"rejected={stats.inline_candidates_rejected} "
                f"misses={stats.site_misses} "
                f"site_demotions={stats.site_demotions}")
        if stats.compile_failures or stats.blacklists or stats.storm_pins:
            lines.append(
                f"containment: failures={stats.compile_failures} "
                f"quarantines={stats.quarantines} "
                f"retries={stats.quarantine_retries} "
                f"recoveries={stats.quarantine_recoveries} "
                f"blacklists={stats.blacklists} "
                f"storm_pins={stats.storm_pins}")
        estats = self.compiler.engine.stats
        if estats.requests_failed or estats.store_degraded:
            lines.append(
                f"engine: failed={estats.requests_failed} "
                f"store_degraded={bool(estats.store_degraded)} "
                f"store_write_failures={estats.store_write_failures}")
        return "\n".join(lines)
