"""The :class:`Session` facade: one object, the whole protocol, cached.

A session owns a characterised :class:`~repro.cells.library.Library` and
memoizes every expensive derived artefact around it:

* the **Flimit table** (library characterisation, Fig. 7 step 1) is
  computed at most once per session and shared by every optimization;
* **benchmarks** are parsed/generated once and handed out as copies;
* **STA results, critical-path extractions and delay bounds** are keyed
  by a circuit *state hash* (structure + sizing), so a Tc-sweep over one
  benchmark pays extraction and the eq. 4 fixed point once, not per job;
* an **incremental STA engine** is kept per circuit *structure hash*:
  when only sizes changed since the last analysis, the miss re-times
  just the affected fan-out cones instead of the whole circuit (the
  result stays bit-identical to a from-scratch run, and stale state is
  impossible -- any timing-relevant mutation changes the state hash).

Operations take a declarative :class:`~repro.api.job.Job` and return a
:class:`~repro.api.records.RunRecord` -- a serializable envelope that the
CLI renders, campaigns archive, and the batch runner ships across process
boundaries.  :meth:`Session.optimize_many` is the scale-out surface: a
``concurrent.futures`` process pool with a transparent serial fallback,
guaranteed to produce payloads byte-identical to the serial loop.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.activity import estimate_activity
from repro.analysis.area import circuit_area_um
from repro.analysis.power import estimate_power
from repro.analysis.variation import VariationSpec
from repro.api.cache import BoundedCache
from repro.api.job import Job, JobError
from repro.api.records import (
    KIND_BOUNDS,
    KIND_CHARACTERIZE,
    KIND_MC,
    KIND_OPTIMIZE_CIRCUIT,
    KIND_OPTIMIZE_PATH,
    KIND_POWER,
    RunRecord,
)
from repro.buffering.flimit import TABLE2_GATES, characterize_library
from repro.buffering.insertion import default_flimits
from repro.cells.library import Library, default_library
from repro.iscas.loader import load_benchmark
from repro.mc.compile import CompiledCircuit
from repro.mc.result import McResult, mc_analyze
from repro.netlist.circuit import Circuit
from repro.obs.trace import NULL_TRACER, Stopwatch, Tracer
from repro.process.technology import Technology
from repro.protocol.optimizer import WarmStart, optimize_circuit, optimize_path
from repro.sizing.bounds import DelayBounds, delay_bounds
from repro.timing.batch_probe import BatchProbeEngine
from repro.timing.critical_paths import ExtractedPath, critical_path
from repro.timing.incremental import IncrementalSta
from repro.timing.sta import StaResult

#: Circuit state key: structure plus sizing, hashable.
StateKey = Tuple

log = logging.getLogger("repro.session")


@dataclass
class SessionStats:
    """Cache behaviour counters (observability for the scale-out story)."""

    characterizations: int = 0
    benchmark_hits: int = 0
    benchmark_misses: int = 0
    sta_hits: int = 0
    sta_misses: int = 0
    sta_incremental: int = 0
    path_hits: int = 0
    path_misses: int = 0
    bounds_hits: int = 0
    bounds_misses: int = 0
    compile_hits: int = 0
    compile_misses: int = 0
    probe_hits: int = 0
    probe_misses: int = 0
    jobs_run: int = 0
    # Process-pool supervision (see optimize_many): broken-pool events,
    # fresh-pool retries, and batches that fell back to the serial loop.
    pool_broken: int = 0
    pool_retries: int = 0
    pool_fallbacks: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for logging."""
        return dict(self.__dict__)


def circuit_state_key(circuit: Circuit) -> StateKey:
    """A hashable fingerprint of a circuit's structure *and* sizing.

    Any mutation that can change timing -- topology, gate kinds, fan-in
    order, per-gate sizes -- changes the key, so memoized STA/extraction
    results can never go stale: a circuit mutated *after* an analysis was
    cached simply presents a new key and gets a fresh analysis (see the
    session-invalidation tests).
    """
    return circuit.state_key()


def circuit_structure_key(circuit: Circuit) -> StateKey:
    """The sizing-free prefix of :func:`circuit_state_key`.

    Two circuits with the same structure key differ at most in per-gate
    ``cin_ff`` values -- exactly the precondition for re-timing one from
    the other with an incremental cone update instead of a full STA.
    """
    return circuit.structure_key()


class Session:
    """Cached programmatic entry point to the whole POPS protocol.

    Parameters
    ----------
    library:
        A pre-built characterised library; mutually exclusive with
        ``tech``.
    tech:
        Technology to build the default library for (0.25 um if omitted).
    backend:
        Delay-model backend name (``"analytic"`` or ``"nldm"``); mutually
        exclusive with ``library``.  ``"nldm"`` requires ``liberty`` and
        builds the session library from the ``.lib`` tables
        (:func:`repro.liberty.library_from_lib`).  Omitted, the session
        runs whatever backend its library carries (analytic by default).
    liberty:
        Path to the ``.lib`` file for ``backend="nldm"``.
    bench_dir:
        Default directory of real ``.bench`` netlists for benchmark jobs
        that do not set their own.
    cache_limit:
        Per-cache LRU bound (entries).  ``None`` (the default) keeps the
        historical unbounded behaviour; a long-lived server sets a bound
        so a session over millions of distinct circuits cannot grow
        without limit.  Eviction is safe -- every cached artefact is a
        pure function of its key and is recomputed on the next miss.
    tracer:
        An optional :class:`repro.obs.Tracer`.  When given (and enabled)
        every job method runs inside a ``session.<op>`` span, the
        circuit optimizer records pass/path spans and the incremental
        engines emit ``sta.update`` events.  The default is the shared
        :data:`~repro.obs.NULL_TRACER`, whose overhead is a single
        attribute check -- results are byte-identical either way.

    Sessions are safe for concurrent readers: every cache-miss populate
    path is guarded by a per-key lock (double-checked against the cache),
    so N threads asking for the same artefact compute it once and the
    shared incremental engines / compiled circuits are never mutated
    concurrently.  Distinct keys populate in parallel.
    """

    def __init__(
        self,
        library: Optional[Library] = None,
        tech: Optional[Technology] = None,
        bench_dir: Optional[str] = None,
        cache_limit: Optional[int] = None,
        backend: Optional[str] = None,
        liberty: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if library is not None and tech is not None:
            raise ValueError("give at most one of 'library' and 'tech'")
        if backend is not None and library is not None:
            raise ValueError("give at most one of 'library' and 'backend'")
        if backend not in (None, "analytic", "nldm"):
            raise JobError(f"unknown backend {backend!r}")
        if backend == "nldm":
            if liberty is None:
                raise JobError("backend='nldm' requires a liberty .lib path")
            from repro.liberty import library_from_lib

            library = library_from_lib(liberty, tech=tech)
        elif liberty is not None:
            raise JobError("liberty applies only to backend='nldm' sessions")
        self._library = library if library is not None else default_library(tech)
        #: Backend identity stamped into job echoes and cache keys.
        self.backend_name: str = self._library.delay_backend.capabilities.name
        self.liberty_path: Optional[str] = liberty
        self.bench_dir = bench_dir
        self.cache_limit = cache_limit
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = SessionStats()
        # Library/backend identity prefixed onto every circuit-keyed
        # cache key: two sessions over different libraries (or backends)
        # can never alias each other's derived artefacts, even through a
        # shared or serialized cache store.  The benchmarks cache stays
        # unprefixed on purpose -- parsed netlists carry no timing and
        # are backend-independent.
        self._fp = self._library.fingerprint()
        self._flimits: Optional[Dict] = None
        self._benchmarks: BoundedCache = BoundedCache(cache_limit, "benchmarks")
        self._sta_cache: BoundedCache = BoundedCache(cache_limit, "sta")
        self._engines: BoundedCache = BoundedCache(cache_limit, "engines")
        self._path_cache: BoundedCache = BoundedCache(cache_limit, "paths")
        self._bounds_cache: BoundedCache = BoundedCache(cache_limit, "bounds")
        self._compiled: BoundedCache = BoundedCache(cache_limit, "compiled")
        self._probes: BoundedCache = BoundedCache(cache_limit, "probes")
        # Concurrency plumbing: `_lock` guards the cache maps and the
        # key-lock table; `_key_locks` holds one refcounted RLock per
        # in-flight populate key, dropped as soon as no thread needs it
        # (the table stays bounded by in-flight work, not by history).
        self._lock = threading.RLock()
        self._key_locks: Dict[Tuple[str, Any], List[Any]] = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Session(tech={self._library.tech.name!r}, "
            f"jobs_run={self.stats.jobs_run})"
        )

    # -- concurrency plumbing ------------------------------------------

    @contextmanager
    def _populate_lock(self, name: str, key: Any) -> Iterator[None]:
        """A refcounted per-key RLock for one cache-miss populate.

        Two threads missing on the same key serialize here (the second
        one re-checks the cache and finds the first one's result); misses
        on distinct keys proceed in parallel.  The lock is reentrant so
        an operation may nest inside its own key (``mc`` holds the
        compiled-circuit key around the whole batch analysis).  Entries
        are dropped when the last holder leaves, so the table is bounded
        by in-flight work.
        """
        token = (name, key)
        with self._lock:
            entry = self._key_locks.get(token)
            if entry is None:
                entry = [threading.RLock(), 0]
                self._key_locks[token] = entry
            entry[1] += 1
        entry[0].acquire()
        try:
            yield
        finally:
            entry[0].release()
            with self._lock:
                entry[1] -= 1
                if entry[1] == 0:
                    self._key_locks.pop(token, None)

    # -- cached primitives ---------------------------------------------

    @property
    def library(self) -> Library:
        """The session's characterised library."""
        return self._library

    def flimits(self) -> Dict:
        """The ``(driver, gate) -> Flimit`` table, characterised once.

        ``stats.characterizations`` counts *actual* characterisations:
        it stays at zero when the insertion-layer cache already holds the
        table for this library instance (e.g. a sibling session built it).
        """
        if self._flimits is None:
            with self._populate_lock("flimits", None):
                if self._flimits is None:
                    from repro.buffering.insertion import flimit_cache_contains

                    if not flimit_cache_contains(self._library):
                        self.stats.characterizations += 1
                    self._flimits = default_flimits(self._library)
        return self._flimits

    def benchmark(self, name: str, bench_dir: Optional[str] = None) -> Circuit:
        """A fresh copy of a registered benchmark, parsed/generated once."""
        directory = bench_dir if bench_dir is not None else self.bench_dir
        key = (name, directory)
        with self._lock:
            master = self._benchmarks.get(key)
        if master is None:
            with self._populate_lock("benchmark", key):
                with self._lock:
                    master = self._benchmarks.peek(key)
                if master is None:
                    self.stats.benchmark_misses += 1
                    master = load_benchmark(name, bench_dir=directory)
                    with self._lock:
                        self._benchmarks[key] = master
                else:
                    self.stats.benchmark_hits += 1
        else:
            self.stats.benchmark_hits += 1
        return master.copy()

    def sta(self, circuit: Circuit) -> StaResult:
        """Static timing analysis, memoized on the circuit state hash.

        Mutating a circuit after a result was cached can never serve
        stale arrivals: the state hash covers structure *and* sizing, so
        the mutated circuit misses the result cache.  The miss is then
        served by an :class:`~repro.timing.incremental.IncrementalSta`
        engine cached per *structure* hash -- a pure re-sizing re-times
        only the changed fan-out cones (``stats.sta_incremental``), a
        structural edit builds a fresh engine; either way the payload is
        bit-identical to a from-scratch analysis.
        """
        key = (self._fp, circuit_state_key(circuit))
        with self._lock:
            cached = self._sta_cache.get(key)
        if cached is not None:
            self.stats.sta_hits += 1
            return cached
        skey = (self._fp, circuit_structure_key(circuit))
        # The populate lock is per *structure*: the incremental engine is
        # shared mutable state, so two different sizings of one netlist
        # must not drive it concurrently.
        with self._populate_lock("sta", skey):
            with self._lock:
                cached = self._sta_cache.peek(key)
            if cached is not None:
                self.stats.sta_hits += 1
                return cached
            self.stats.sta_misses += 1
            with self._lock:
                engine = self._engines.get(skey)
            if engine is None:
                # The engine owns a private copy: later caller-side
                # mutations cannot desynchronise its cached annotation.
                with self.tracer.span("sta.build", circuit=circuit.name):
                    engine = IncrementalSta(circuit.copy(), self._library)
                with self._lock:
                    self._engines[skey] = engine
                result = engine.result()
            else:
                # Refresh the tracer attachment on every reuse: the
                # session's tracer decides whether this update emits
                # ``sta.update`` events, and a stale attachment from an
                # earlier traced run must not outlive it.
                engine.tracer = self.tracer if self.tracer.enabled else None
                changed = []
                for name, gate in circuit.gates.items():
                    own = engine.circuit.gates[name]
                    if own.cin_ff != gate.cin_ff:
                        own.cin_ff = gate.cin_ff
                        changed.append(name)
                result = engine.update(changed)
                self.stats.sta_incremental += 1
            with self._lock:
                self._sta_cache[key] = result
        return result

    def critical_path(self, circuit: Circuit) -> ExtractedPath:
        """Critical-path extraction, memoized on the circuit state hash."""
        key = (self._fp, circuit_state_key(circuit))
        with self._lock:
            cached = self._path_cache.get(key)
        if cached is not None:
            self.stats.path_hits += 1
            return cached
        with self._populate_lock("path", key):
            with self._lock:
                cached = self._path_cache.peek(key)
            if cached is not None:
                self.stats.path_hits += 1
                return cached
            self.stats.path_misses += 1
            sta = self.sta(circuit)
            with self.tracer.span("paths.extract", k=1):
                extracted = critical_path(circuit, self._library, sta=sta)
            with self._lock:
                self._path_cache[key] = extracted
        return extracted

    def path_bounds(self, circuit: Circuit) -> DelayBounds:
        """Critical-path ``(Tmin, Tmax)`` window, memoized per state."""
        key = (self._fp, circuit_state_key(circuit))
        with self._lock:
            cached = self._bounds_cache.get(key)
        if cached is not None:
            self.stats.bounds_hits += 1
            return cached
        with self._populate_lock("bounds", key):
            with self._lock:
                cached = self._bounds_cache.peek(key)
            if cached is not None:
                self.stats.bounds_hits += 1
                return cached
            self.stats.bounds_misses += 1
            extracted = self.critical_path(circuit)
            bounds = delay_bounds(extracted.path, self._library)
            with self._lock:
                self._bounds_cache[key] = bounds
        return bounds

    def compiled(self, circuit: Circuit) -> CompiledCircuit:
        """Batch-engine compilation, memoized on the circuit *structure*.

        The struct-of-arrays form (levelized topology, fan-in indices,
        cell constants) is a pure function of the structure, so a
        Tc-sweep's many sizings of one netlist share one compilation;
        only the cheap sizing-dependent arrays are re-bound per call
        (:meth:`~repro.mc.compile.CompiledCircuit.bind`), which also
        means the returned object always reflects ``circuit``'s
        *current* sizes -- stale bindings are impossible.
        """
        key = (self._fp, circuit_structure_key(circuit))
        # Per-structure lock: ``bind`` rewrites the sizing arrays of a
        # shared object, so concurrent binds of different sizings must
        # serialize (``mc`` holds this same key around its whole batch
        # analysis, reentrantly, so the arrays stay pinned while in use).
        with self._populate_lock("compiled", key):
            with self._lock:
                comp = self._compiled.get(key)
            if comp is None:
                self.stats.compile_misses += 1
                comp = CompiledCircuit(circuit, self._library)
                with self._lock:
                    self._compiled[key] = comp
            else:
                self.stats.compile_hits += 1
                comp.bind(circuit)
        return comp

    def probe_engine(self, circuit: Circuit) -> BatchProbeEngine:
        """Cone-sparse batch probe engine, memoized on the *structure*.

        The :class:`~repro.timing.batch_probe.BatchProbeEngine` owns a
        private compiled form plus the memoized fan-out-cone closures of
        every probed gate -- both pure functions of the structure, so a
        Tc-sweep's many sizings of one netlist share one engine and pay
        only the cheap sizing re-bind per call
        (:meth:`~repro.timing.batch_probe.BatchProbeEngine.bind`).  The
        engine is separate from :meth:`compiled`'s object on purpose:
        probe batches and ``mc`` batches may run concurrently, and each
        holds its own per-structure populate lock around its own arrays.
        """
        key = (self._fp, circuit_structure_key(circuit))
        # Per-structure lock: ``bind`` rewrites the shared base
        # annotation, so concurrent binds of different sizings must
        # serialize, and callers run their batch under this same key.
        with self._populate_lock("probes", key):
            with self._lock:
                engine = self._probes.get(key)
            if engine is None:
                self.stats.probe_misses += 1
                engine = BatchProbeEngine(circuit, self._library)
                with self._lock:
                    self._probes[key] = engine
            else:
                self.stats.probe_hits += 1
                engine.bind(circuit)
        return engine

    def clear_caches(self) -> None:
        """Drop every memoized artefact (the Flimit table included)."""
        with self._lock:
            self._flimits = None
            self._benchmarks.clear()
            self._sta_cache.clear()
            self._engines.clear()
            self._path_cache.clear()
            self._bounds_cache.clear()
            self._compiled.clear()
            self._probes.clear()

    def cache_stats(self) -> Dict[str, Any]:
        """Size, bound, counters and rates of every cache, one schema.

        The shape is JSON-native: ``{"limit": ..., "caches": {name:
        {size, maxsize, hits, misses, evictions, hit_rate}}, "hit_rates":
        {name: rate}, "evictions": total, "counters": {...}}``.  Per
        cache, ``hit_rate`` is the hit fraction in ``[0, 1]`` (``None``
        before any lookups); ``hit_rates`` and ``evictions`` repeat the
        rates and the eviction total at the top level so dashboards need
        not walk the nested dicts.  This is the surface the serving
        layer's ``status`` endpoint and ``pops status`` expose;
        ``counters`` echoes :attr:`stats`.
        """
        with self._lock:
            caches = {
                cache.name: cache.stats()
                for cache in (
                    self._benchmarks,
                    self._sta_cache,
                    self._engines,
                    self._path_cache,
                    self._bounds_cache,
                    self._compiled,
                    self._probes,
                )
            }
            return {
                "limit": self.cache_limit,
                "caches": caches,
                "hit_rates": {
                    name: stats["hit_rate"] for name, stats in caches.items()
                },
                "evictions": sum(
                    stats["evictions"] for stats in caches.values()
                ),
                "counters": self.stats.as_dict(),
            }

    # -- job plumbing --------------------------------------------------

    def _prepare_job(self, job: Job) -> Job:
        """Validate a job's backend pin and stamp the session's identity.

        A job that names a backend (or a ``.lib``) other than the one
        this session runs is a spec error -- silently serving it with a
        different delay model would corrupt campaign bookkeeping.  Jobs
        that leave the backend unset inherit it: non-analytic sessions
        stamp ``backend``/``liberty`` into the echo so the produced
        :class:`~repro.api.records.RunRecord` names the model that made
        it (analytic stays unstamped to keep the historical byte form).
        """
        if job.backend is not None and job.backend != self.backend_name:
            raise JobError(
                f"job {job.name!r} pins backend {job.backend!r} but this "
                f"session runs {self.backend_name!r}"
            )
        if (
            job.liberty is not None
            and self.liberty_path is not None
            and os.path.abspath(job.liberty) != os.path.abspath(self.liberty_path)
        ):
            raise JobError(
                f"job {job.name!r} pins liberty {job.liberty!r} but this "
                f"session loaded {self.liberty_path!r}"
            )
        if self.backend_name != "analytic" and job.backend is None:
            job = replace(
                job, backend=self.backend_name, liberty=self.liberty_path
            )
        return job

    def resolve_circuit(self, job: Job) -> Circuit:
        """The working netlist a job refers to."""
        if job.circuit is not None:
            return job.circuit
        return self.benchmark(job.benchmark, bench_dir=job.bench_dir)

    def resolve_tc(self, job: Job, tmin_ps: float) -> float:
        """The absolute delay constraint (ps) a job requests."""
        if job.tc_ps is not None:
            return job.tc_ps
        if job.tc_ratio is not None:
            return job.tc_ratio * tmin_ps
        raise JobError(
            f"job {job.name!r} needs a constraint: set tc_ps or tc_ratio"
        )

    # -- operations ----------------------------------------------------

    def characterize(self, with_simulation: bool = False) -> RunRecord:
        """Full Table 2 characterisation as a run record."""
        sw = Stopwatch()
        with self.tracer.span("session.characterize"):
            self.stats.characterizations += 1
            entries = characterize_library(
                self._library, gates=TABLE2_GATES, with_simulation=with_simulation
            )
            return RunRecord(
                kind=KIND_CHARACTERIZE,
                job=None,
                payload=entries,
                extra={"with_simulation": bool(with_simulation)},
                elapsed_s=sw.elapsed_s,
                created_unix=time.time(),
            )

    def bounds(self, job: Job) -> RunRecord:
        """Critical-path delay window of the job's circuit."""
        sw = Stopwatch()
        with self.tracer.span("session.bounds", job=job.name):
            self.stats.jobs_run += 1
            job = self._prepare_job(job)
            circuit = self.resolve_circuit(job)
            extracted = self.critical_path(circuit)
            bounds = self.path_bounds(circuit)
            return RunRecord(
                kind=KIND_BOUNDS,
                job=job,
                payload={
                    "gate_names": extracted.gate_names,
                    "path": extracted.path,
                    "bounds": bounds,
                },
                extra={
                    "extraction_delay_ps": float(extracted.delay_ps),
                    "path_gates": len(extracted.gate_names),
                },
                elapsed_s=sw.elapsed_s,
                created_unix=time.time(),
            )

    def optimize(self, job: Job, warm: Optional[WarmStart] = None) -> RunRecord:
        """Run the Fig. 7 protocol for one job (path or circuit scope).

        ``warm`` threads a sweep's carry-over state (neighbour-seeded
        incremental engine plus pure-function memos) into the circuit
        driver; payloads are byte-identical with or without it (see
        :class:`~repro.protocol.optimizer.WarmStart`).
        """
        sw = Stopwatch()
        with self.tracer.span(
            "session.optimize", job=job.name, scope=job.scope
        ):
            self.stats.jobs_run += 1
            job = self._prepare_job(job)
            circuit = self.resolve_circuit(job)
            bounds = self.path_bounds(circuit)
            tc_ps = self.resolve_tc(job, bounds.tmin_ps)
            limits = self.flimits()

            telemetry = None
            if job.scope == "path":
                extracted = self.critical_path(circuit)
                outcome = optimize_path(
                    extracted.path,
                    self._library,
                    tc_ps,
                    limits=limits,
                    allow_restructuring=job.allow_restructuring,
                    weight_mode=job.weight_mode,
                    tmin_ps=bounds.tmin_ps,
                )
                kind = KIND_OPTIMIZE_PATH
                extra = {
                    "tc_ps": float(tc_ps),
                    "tmin_ps": float(bounds.tmin_ps),
                    "tmax_ps": float(bounds.tmax_ps),
                    "path_gates": len(extracted.gate_names),
                }
            else:
                outcome = optimize_circuit(
                    circuit,
                    self._library,
                    tc_ps,
                    k_paths=job.k_paths,
                    max_passes=job.max_passes,
                    limits=limits,
                    weight_mode=job.weight_mode,
                    allow_restructuring=job.allow_restructuring,
                    warm=warm,
                    tracer=self.tracer if self.tracer.enabled else None,
                    sta=self.sta(circuit),
                )
                kind = KIND_OPTIMIZE_CIRCUIT
                extra = {
                    "tc_ps": float(tc_ps),
                    "tmin_ps": float(bounds.tmin_ps),
                    "area_um": float(
                        circuit_area_um(outcome.circuit, self._library)
                    ),
                }
                if outcome.telemetry is not None:
                    telemetry = outcome.telemetry.as_dict()
            return RunRecord(
                kind=kind,
                job=job,
                payload=outcome,
                extra=extra,
                elapsed_s=sw.elapsed_s,
                created_unix=time.time(),
                telemetry=telemetry,
            )

    def power(self, job: Job) -> RunRecord:
        """Area / activity / power report for the job's circuit."""
        sw = Stopwatch()
        with self.tracer.span("session.power", job=job.name):
            self.stats.jobs_run += 1
            job = self._prepare_job(job)
            circuit = self.resolve_circuit(job)
            activity = estimate_activity(circuit, n_vectors=job.activity_vectors)
            report = estimate_power(
                circuit,
                self._library,
                frequency_mhz=job.frequency_mhz,
                activity=activity,
            )
            return RunRecord(
                kind=KIND_POWER,
                job=job,
                payload=report,
                extra={
                    "area_um": float(circuit_area_um(circuit, self._library)),
                    "mean_activity": float(activity.mean_rate),
                },
                elapsed_s=sw.elapsed_s,
                created_unix=time.time(),
            )

    def mc(
        self,
        job: Job,
        spec: Optional[VariationSpec] = None,
        target_yield: float = 0.99,
    ) -> RunRecord:
        """Monte-Carlo corner analysis of the job's circuit (``KIND_MC``).

        The sizing stays fixed while ``job.mc_samples`` process corners
        (seeded by ``job.mc_seed``) are evaluated in one vectorized batch
        over the structure-cached compilation.  A constraint on the job
        (``tc_ps``, or ``tc_ratio`` as a multiple of the critical path's
        ``Tmin``) becomes the yield target; without one the record still
        carries the distribution and guard bands.
        """
        sw = Stopwatch()
        with self.tracer.span("session.mc", job=job.name):
            self.stats.jobs_run += 1
            job = self._prepare_job(job)
            circuit = self.resolve_circuit(job)
            # Only a Tmin-relative constraint needs the (eq. 4) bounds
            # solve; an absolute tc_ps must not pay extraction + fixed
            # point for a value it would discard.
            tc_ps: Optional[float] = job.tc_ps
            if tc_ps is None and job.tc_ratio is not None:
                tc_ps = self.resolve_tc(job, self.path_bounds(circuit).tmin_ps)
            # Hold the compiled-circuit key for the whole batch analysis:
            # the compilation is shared per structure and ``bind``
            # rewrites its sizing arrays, so a concurrent mc over another
            # sizing of the same netlist must wait (the inner
            # ``compiled`` call re-enters the same RLock).
            with self._populate_lock(
                "compiled", (self._fp, circuit_structure_key(circuit))
            ):
                result: McResult = mc_analyze(
                    circuit,
                    self._library,
                    spec=spec,
                    n_samples=job.mc_samples,
                    seed=job.mc_seed,
                    tc_ps=tc_ps,
                    target_yield=target_yield,
                    compiled=self.compiled(circuit),
                )
            extra: Dict[str, object] = {
                "nominal_ps": float(result.nominal_ps),
                "p99_ps": float(result.p99_ps),
                "guard_band": float(result.guard_band),
                "required_guard_band": float(result.required_guard_band),
            }
            if tc_ps is not None:
                extra["tc_ps"] = float(tc_ps)
                extra["yield"] = float(result.yield_fraction or 0.0)
            return RunRecord(
                kind=KIND_MC,
                job=job,
                payload=result,
                extra=extra,
                elapsed_s=sw.elapsed_s,
                created_unix=time.time(),
            )

    # -- batch / scale-out ---------------------------------------------

    def optimize_many(
        self,
        jobs: Iterable[Job],
        workers: Optional[int] = None,
    ) -> List[RunRecord]:
        """Optimize a batch of jobs, optionally across worker processes.

        ``workers`` at ``None``/``0``/``1`` runs the plain serial loop
        (sharing every session cache).  Higher values fan the jobs out to
        a ``concurrent.futures`` process pool seeded with this session's
        library and (already characterised) Flimit table; environments
        where subprocesses are unavailable fall back to the serial loop
        transparently.  Record payloads are byte-identical between the
        two paths; only the timing metadata differs.
        """
        job_list = list(jobs)
        for job in job_list:
            if not isinstance(job, Job):
                raise JobError(f"optimize_many expects Job instances, got {job!r}")
        # Stamp the backend identity up front so the serial loop and the
        # pool path ship (and echo) byte-identical job dicts.
        job_list = [self._prepare_job(job) for job in job_list]
        if workers and workers > 1 and len(job_list) > 1:
            # Two distinct failure classes (never conflated -- the old
            # bare `except POOL_ERRORS: pass` hid crashed workers behind
            # the no-subprocess fallback):
            #
            # * transport/import errors mean this environment cannot run
            #   subprocesses at all -- fall back to serial immediately;
            # * BrokenProcessPool means a *worker died mid-batch* (OOM
            #   kill, segfault, injected crash).  The batch is safe to
            #   re-run -- jobs are pure functions of their specs -- so
            #   retry once on a fresh pool before surrendering to serial.
            #
            # Job failures never land here: workers marshal them back
            # and _optimize_parallel re-raises the original exception.
            for attempt in (0, 1):
                try:
                    return self._optimize_parallel(job_list, workers)
                except BrokenProcessPool as exc:
                    self.stats.pool_broken += 1
                    if attempt == 0:
                        self.stats.pool_retries += 1
                        log.warning(
                            "optimize_many: worker crashed mid-batch (%s); "
                            "retrying once on a fresh pool",
                            exc,
                        )
                        continue
                    log.error(
                        "optimize_many: pool broke again on retry (%s); "
                        "falling back to the serial loop",
                        exc,
                    )
                    break
                except (OSError, ImportError) as exc:
                    # Process pools need working semaphores / fork
                    # support; restricted environments (sandboxes, some
                    # CI runners) deny them -- the serial path is always
                    # available.
                    log.warning(
                        "optimize_many: process pool unavailable (%s); "
                        "running the batch serially",
                        exc,
                    )
                    break
            self.stats.pool_fallbacks += 1
        return [self.optimize(job) for job in job_list]

    def _optimize_parallel(self, jobs: Sequence[Job], workers: int) -> List[RunRecord]:
        from concurrent.futures import ProcessPoolExecutor

        limits = self.flimits()
        tasks = [
            (self._library, limits, self.bench_dir, job.to_dict()) for job in jobs
        ]
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            outcomes = list(pool.map(_optimize_job_worker, tasks))
        for outcome in outcomes:
            if JOB_ERROR_KEY in outcome:
                raise outcome[JOB_ERROR_KEY]
        self.stats.jobs_run += len(jobs)
        return [RunRecord.from_dict(d, library=self._library) for d in outcomes]


#: Sentinel key a worker uses to marshal a job failure back to the parent
#: (so pool-infrastructure errors stay distinguishable from job errors).
#: Shared by every process-pool runner over sessions (the batch runner
#: here and the sweep runner in :mod:`repro.explore`).
JOB_ERROR_KEY = "__pops_job_error__"

#: Pool-infrastructure failures that trigger the serial fallback.
POOL_ERRORS: Tuple[type, ...] = (OSError, ImportError, BrokenProcessPool)

# Backwards-compatible private aliases (pre-explore spelling).
_JOB_ERROR_KEY = JOB_ERROR_KEY
_POOL_ERRORS = POOL_ERRORS


def worker_session(
    library: Library, limits: Dict, bench_dir: Optional[str]
) -> Session:
    """A fresh worker-side session seeded with the parent's Flimit table.

    The one supported way for pool workers to avoid re-characterising:
    the parent ships its (already computed) limits along with the
    library, and the worker session starts with them installed.
    """
    session = Session(library=library, bench_dir=bench_dir)
    session._flimits = limits
    return session


def _optimize_job_worker(task: Tuple[Library, Dict, Optional[str], Dict]) -> Dict:
    """Process-pool entry: run one job in a fresh session, return a dict.

    The parent's Flimit table is injected so workers never re-characterise;
    the record crosses the process boundary in serialized form, which is
    also what pins the byte-identical-payload guarantee.  Exceptions from
    the job itself are marshalled rather than raised so the parent can
    tell them apart from pool breakage.
    """
    library, limits, bench_dir, job_dict = task
    from repro.resilience import faults

    faults.maybe_crash(faults.SITE_WORKER_CRASH)
    session = worker_session(library, limits, bench_dir)
    try:
        return session.optimize(Job.from_dict(job_dict)).to_dict()
    except Exception as exc:
        return {JOB_ERROR_KEY: exc}
