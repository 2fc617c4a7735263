"""The four POPS Job workloads, their seeded inputs and their output checks.

Every workload drives the public ``repro`` API only.  The workload seed
drives the stand-in netlists (``generate_circuit`` on a profile with the
seed swapped in; serve-mixed keeps the registered ones), the
``tc_ratio`` draws and the serve mix; the program receives only the
generated inputs.

A *unit* is what one harness call runs: one optimize (circuit-large,
path-suite), one whole sweep (sweep-warm) or one block of served submits
(serve-mixed).  A unit yields one :class:`Outcome` per ``RunRecord``
(a sweep point counts as one Job).  Timed runs execute whole passes of
the seeded plan (whole blocks of the serve mix), so every run of a seed
covers the same stratified inputs, and the quality metrics (area,
feasibility) are taken over the first pass.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api import Job, RunRecord, Session, SweepSpec
from repro.api.records import KIND_OPTIMIZE_CIRCUIT, KIND_OPTIMIZE_PATH
from repro.cells.library import Library, default_library
from repro.explore.runner import run_sweep
from repro.explore.store import CampaignStore
from repro.iscas.generator import generate_circuit
from repro.iscas.loader import load_benchmark
from repro.iscas.profiles import PAPER_ORDER, PROFILES
from repro.netlist.bench_parser import to_bench
from repro.netlist.circuit import Circuit
from repro.serve import ServeClient, ServeConfig, start_server_thread
from repro.timing.evaluation import path_delay_ps
from repro.timing.sta import analyze

#: Constraint bands as ``tc_ratio`` draw ranges (multiples of the
#: critical path's Tmin), inside the paper's Fig. 6 domains.  The medium
#: band is drawn from its lower part: the buffer search makes a
#: path-scope optimize on the largest stand-ins cost 2-3 s at 1.5 x Tmin
#: and 5-10 s at 2.0-2.4 x Tmin, which would stretch one 40-Job
#: path-suite pass to a minute.
BANDS: Dict[str, Tuple[float, float]] = {
    "infeasible": (0.85, 0.98),
    "hard": (1.02, 1.18),
    "medium": (1.25, 1.5),
    "weak": (2.6, 4.0),
}

#: Absolute tolerance (ps) of the from-scratch re-timing check; the
#: incremental STA is bit-identical to ``analyze`` by contract.
RETIME_TOL_PS = 1e-6

#: Time of one :func:`reference_s` batch at the nominal host speed (about
#: its median on the 2-vCPU Xeon VM where the bounds were set).
#: Normalised times are wall times times ``REFERENCE_NOMINAL_S / measured``.
REFERENCE_NOMINAL_S = 0.010


def _relaxation() -> float:
    """An eq. 4-like relaxation in Python floats plus small numpy ops."""
    n = 48
    sizes = [1.0] * n
    side = [0.5 + 0.01 * i for i in range(n)]
    total = 0.0
    for _ in range(40):
        for i in range(1, n - 1):
            sizes[i] = math.sqrt(sizes[i - 1] * (side[i] + sizes[i + 1])) + 1e-3 * i
        arr = np.array(sizes)
        total += float(np.sum(arr / (arr + 1.0)))
    return total


def _graph_walk() -> float:
    """An STA-like pass of scattered lookups over a netlist-sized dict."""
    nodes = 2048
    arrival = {f"n{i}": 0.0 for i in range(nodes)}
    for i in range(nodes):
        a, b = f"n{(i * 7919) % nodes}", f"n{(i * 104729) % nodes}"
        arrival[f"n{i}"] = max(arrival[a], arrival[b]) + 1.0
    return arrival["n1"]


def reference_s() -> float:
    """Wall time of one fixed batch of reference work: the host's speed now.

    The work mixes the kinds of the protocol's hot paths (Python float
    loops, small numpy ops, scattered dict lookups over a netlist-sized
    table) but is part of the benchmark, not of ``repro``, so no change
    to the program can move it; only the host's speed does.

    The shared host this benchmark was tuned on drifts by up to 40% in
    speed within minutes (one optimize repeated in a single process took
    3.3-4.7 s); timed between Jobs, this batch follows that drift.
    """
    start = time.perf_counter()
    for _ in range(12):
        _relaxation()
    _graph_walk()
    return time.perf_counter() - start


@dataclass
class Outcome:
    """One Job: its latency, record and the properties the metrics read."""

    kind: str
    latency_s: float
    record: Optional[RunRecord] = None
    error: Optional[str] = None
    #: Part of the seeded first pass (the quality-metric population).
    first_pass: bool = False
    #: ``REFERENCE_NOMINAL_S`` over the reference time measured around
    #: this Job; ``latency_s * scale`` is its normalised latency.
    scale: float = 1.0
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_optimize(self) -> bool:
        return self.record is not None and self.record.kind in (
            KIND_OPTIMIZE_PATH, KIND_OPTIMIZE_CIRCUIT,
        )

    @property
    def area_um(self) -> float:
        rec = self.record
        if rec.kind == KIND_OPTIMIZE_CIRCUIT:
            return float(rec.extra["area_um"])
        return float(rec.payload.area_um)

    @property
    def sizing_domain(self) -> bool:
        """Whether Tc >= Tmin, so sizing alone meets Tc at minimum area."""
        extra = self.record.extra
        return extra["tc_ps"] >= extra["tmin_ps"]

    @property
    def feasible(self) -> bool:
        return bool(self.record.payload.feasible)


def stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> List[float]:
    """One draw in each of ``n`` equal strata of ``[lo, hi)``, in stratum order.

    Stratifying keeps every run's draws spread over the whole range, so
    runs of different seeds do comparable work.
    """
    edges = np.linspace(lo, hi, n + 1)
    return [round(float(rng.uniform(a, b)), 4) for a, b in zip(edges[:-1], edges[1:])]


def band_ratios(rng: np.random.Generator, band: str, n: int) -> List[float]:
    """``n`` stratified ``tc_ratio`` draws in a constraint band, shuffled."""
    draws = stratified(rng, *BANDS[band], n)
    return [draws[i] for i in rng.permutation(n)]


def stand_in(name: str, seed: int) -> Circuit:
    """The seeded stand-in of a registered benchmark.

    ``adder16`` is built exactly (a NAND ripple-carry adder), so it has
    no seed; every other profile is generated with the workload seed.
    """
    prof = PROFILES[name]
    if not prof.synthetic:
        return load_benchmark(name)
    return generate_circuit(dataclasses.replace(prof, seed=seed))


def new_library() -> Library:
    """A fresh library with its Flimit table characterised.

    The insertion layer caches the table per library *instance*, so a
    fresh library pays characterisation again -- which is what a set-up
    measurement has to include.
    """
    lib = default_library()
    Session(library=lib).flimits()
    return lib


# -- output checks (outside every timed region) -------------------------------


def check_record(record: RunRecord, library: Library) -> List[str]:
    """Problems with one record: re-timing, feasibility, JSON round trip."""
    problems: List[str] = []
    payload = record.payload
    if record.kind == KIND_OPTIMIZE_CIRCUIT:
        retimed = analyze(payload.circuit, library).critical_delay_ps
        if abs(retimed - payload.critical_delay_ps) > RETIME_TOL_PS:
            problems.append(
                f"re-timed delay {retimed!r} != reported {payload.critical_delay_ps!r}"
            )
        if payload.feasible and payload.critical_delay_ps > payload.tc_ps + RETIME_TOL_PS:
            problems.append("marked feasible but critical delay exceeds Tc")
    elif record.kind == KIND_OPTIMIZE_PATH:
        retimed = path_delay_ps(payload.path, payload.sizes, library)
        if abs(retimed - payload.delay_ps) > RETIME_TOL_PS:
            problems.append(f"re-timed path delay {retimed!r} != {payload.delay_ps!r}")
        if payload.feasible and payload.delay_ps > payload.tc_ps + RETIME_TOL_PS:
            problems.append("marked feasible but path delay exceeds Tc")
    text = record.to_json()
    if RunRecord.from_json(text, library=library).to_json() != text:
        problems.append("RunRecord JSON round trip is lossy")
    return problems


# -- sequential workloads ------------------------------------------------------


def should_stop(walls: List[Tuple[float, float]], steps: int, seconds: float,
                whole_passes: bool) -> bool:
    """Whether a run that finished ``steps`` passes (or units) should end.

    A run lasts ``seconds`` of normalised time, the summed unit times of
    ``walls`` scaled to the nominal host speed, so every run of a seed
    covers the same work whatever the host's speed: the share of warm-up
    in it, and with it the latency mix, stays the same.  Whole passes end
    at the pass boundary closest to ``seconds``: another pass starts only
    when at least half of it fits in the time left.
    """
    elapsed = sum(wall * scale for wall, scale in walls)
    if not whole_passes:
        return elapsed >= seconds
    return elapsed + 0.5 * elapsed / steps >= seconds


Unit = Callable[[], List[Outcome]]


class Workload:
    """A named workload: seeded set-up, a plan of units and output checks.

    Its one-line description is the ``why`` of ``BENCHMARK.json``.
    """

    name = ""

    def setup(self, seed: int, scratch: str) -> Dict[str, Any]:
        raise NotImplementedError

    def teardown(self, fixture: Dict[str, Any]) -> None:
        """Release what :meth:`setup` started (nothing by default)."""

    def plan(self, fixture: Dict[str, Any], seed: int) -> List[Unit]:
        raise NotImplementedError

    def run(self, fixture: Dict[str, Any], seed: int, seconds: float,
            whole_passes: bool = True, max_units: Optional[int] = None,
            tracer: Any = None) -> Tuple[List[Outcome], List[Tuple[float, float]]]:
        """Run units for ``seconds`` of normalised time (see :func:`should_stop`).

        With ``whole_passes`` the run covers whole passes of the plan, as
        many as end closest to ``seconds``; without it, units until
        ``seconds`` have passed (at least one).  ``max_units`` runs
        exactly that many units instead (the traced run replays the
        units its untraced reference ran).  The reference batch is timed
        before the first unit and after every unit.  Returns the
        outcomes and ``(wall time, scale)`` of each unit.
        """
        units = self.plan(fixture, seed)
        step = len(units) if whole_passes else 1
        outcomes: List[Outcome] = []
        walls: List[Tuple[float, float]] = []
        reference = reference_s()
        while True:
            index = len(walls)
            if max_units is not None:
                if index >= max_units:
                    break
            elif index and index % step == 0 and should_stop(
                    walls, index // step, seconds, whole_passes):
                break
            context = tracer.job(f"job-{index}") if tracer is not None else nullcontext()
            start = time.perf_counter()
            with context:
                produced = units[index % len(units)]()
            wall = time.perf_counter() - start
            after = reference_s()
            scale = REFERENCE_NOMINAL_S / (0.5 * (reference + after))
            reference = after
            walls.append((wall, scale))
            for outcome in produced:
                outcome.first_pass = index < len(units)
                outcome.scale = scale
            outcomes.extend(produced)
        return outcomes, walls

    def job_wall(self, outcomes: List[Outcome], units: List[Tuple[float, float]]) -> float:
        """The time the run's Jobs took, which the layer self times add up to."""
        return sum(wall for wall, _ in units)

    def check(self, fixture: Dict[str, Any], outcomes: List[Outcome],
              seed: int) -> None:
        """Mark every outcome whose output fails a check."""
        for outcome in outcomes:
            if outcome.error is None and outcome.record is not None:
                problems = check_record(outcome.record, fixture["library"])
                if problems:
                    outcome.error = "; ".join(problems)


def _timed_optimize(library: Library, job: Job, info: Dict[str, Any]) -> List[Outcome]:
    """One cold optimize: a fresh Session over the set-up library."""
    session = Session(library=library)
    start = time.perf_counter()
    try:
        record = session.optimize(job)
    except Exception as exc:  # a failed Job is counted, not fatal
        return [Outcome("optimize", time.perf_counter() - start,
                        error=f"{type(exc).__name__}: {exc}", info=info)]
    latency = time.perf_counter() - start
    info = dict(info, cache=session.cache_stats()["caches"])
    return [Outcome("optimize", latency, record=record, info=info)]


class CircuitLarge(Workload):
    name = "circuit-large"

    CIRCUITS = ("c7552", "c5315")
    BANDS = ("hard", "medium")
    #: Extract-optimize passes per Job.  At the default of 6 the stall
    #: rule ends a Job after 3 to 6 passes depending on the netlist, which
    #: alone spreads a run's wall time by about a fifth between seeds; a
    #: fixed 2 keeps every pass's layer work and fits twice the Jobs.
    MAX_PASSES = 2
    #: Stand-ins per circuit and band (seeds ``8 * seed + slot``): a
    #: Job's cost follows its netlist, and eight netlists per run average
    #: that out where one per circuit and band spread jobs_per_s by 0.13
    #: over ten seeds.
    VARIANTS = 2

    def setup(self, seed: int, scratch: str) -> Dict[str, Any]:
        slots = [(name, band, v) for name in self.CIRCUITS for band in self.BANDS
                 for v in range(self.VARIANTS)]
        return {
            "library": new_library(),
            "circuits": {slot: stand_in(slot[0], len(slots) * seed + k)
                         for k, slot in enumerate(slots)},
        }

    def plan(self, fixture: Dict[str, Any], seed: int) -> List[Unit]:
        rng = np.random.default_rng([seed, 1])
        circuits = fixture["circuits"]
        n = len(self.CIRCUITS) * self.VARIANTS
        ratios = {band: band_ratios(rng, band, n) for band in self.BANDS}
        units: List[Unit] = []
        # Circuits and bands alternate, so the first few units (all that a
        # traced run replays) cover both circuits.
        for v in range(self.VARIANTS):
            for band in self.BANDS:
                for c, name in enumerate(self.CIRCUITS):
                    job = Job(circuit=circuits[name, band, v],
                              tc_ratio=ratios[band][c * self.VARIANTS + v],
                              scope="circuit", max_passes=self.MAX_PASSES,
                              label=f"{name}/{band}")
                    info = {"circuit": name, "band": band}
                    units.append(lambda job=job, info=info: _timed_optimize(
                        fixture["library"], job, info))
        return units


class PathSuite(Workload):
    name = "path-suite"

    def setup(self, seed: int, scratch: str) -> Dict[str, Any]:
        # One stand-in per circuit and band (seeds ``4 * seed + band``):
        # the cost of a Job follows its netlist, and forty independent
        # netlists average that out where ten shared by four bands did not.
        return {
            "library": new_library(),
            "circuits": {(name, band): stand_in(name, len(BANDS) * seed + b)
                         for name in PAPER_ORDER for b, band in enumerate(BANDS)},
        }

    def plan(self, fixture: Dict[str, Any], seed: int) -> List[Unit]:
        rng = np.random.default_rng([seed, 2])
        ratios = {band: band_ratios(rng, band, len(PAPER_ORDER)) for band in BANDS}
        units: List[Unit] = []
        for i, name in enumerate(PAPER_ORDER):
            for band in BANDS:
                job = Job(circuit=fixture["circuits"][name, band],
                          tc_ratio=ratios[band][i], label=f"{name}/{band}")
                info = {"circuit": name, "band": band}
                units.append(lambda job=job, info=info: _timed_optimize(
                    fixture["library"], job, info))
        order = rng.permutation(len(units))
        return [units[i] for i in order]


class SweepWarm(Workload):
    name = "sweep-warm"

    #: Stand-in variants per run, one sweep each (seeds ``3 * seed + v``).
    #: A sweep's points share its netlist, whose cost varies between
    #: seeds; three sweeps of five points average over three netlists,
    #: where two sweeps of ten points spread the run's median by a
    #: quarter between seeds.  A pass of three sweeps fits twice in a
    #: run, so every point is timed twice.
    VARIANTS = 3
    #: The ``tc_ratio`` grid of every sweep, over the hard, medium and
    #: weak bands; the seed moves each point by up to ``JITTER``.  The
    #: hardest point costs most, and drawn from a whole stratum
    #: ([1.02, 1.42)) its cost alone varied 2x between seeds.
    GRID = (1.1, 1.5, 1.9, 2.3, 2.7)
    JITTER = 0.03

    def setup(self, seed: int, scratch: str) -> Dict[str, Any]:
        library = new_library()
        bench_dirs = []
        for v in range(self.VARIANTS):
            bench_dir = os.path.join(scratch, f"bench-{v}")
            os.makedirs(bench_dir)
            with open(os.path.join(bench_dir, "c880.bench"), "w", encoding="utf-8") as fh:
                fh.write(to_bench(stand_in("c880", self.VARIANTS * seed + v)))
            bench_dirs.append(bench_dir)
        return {"library": library, "bench_dirs": bench_dirs, "scratch": scratch,
                "sweeps": 0}

    def teardown(self, fixture: Dict[str, Any]) -> None:
        """Remove the run's campaign stores (outside every timed unit)."""
        for n in range(1, fixture["sweeps"] + 1):
            shutil.rmtree(os.path.join(fixture["scratch"], f"store-{n}"), ignore_errors=True)

    def plan(self, fixture: Dict[str, Any], seed: int) -> List[Unit]:
        rng = np.random.default_rng([seed, 3])
        units: List[Unit] = []
        for v, bench_dir in enumerate(fixture["bench_dirs"]):
            points = tuple(round(float(p + rng.uniform(-self.JITTER, self.JITTER)), 4)
                           for p in self.GRID)
            spec = SweepSpec(benchmarks=("c880",), tc_ratio_points=points,
                             max_passes=CircuitLarge.MAX_PASSES, bench_dir=bench_dir,
                             label=f"sweep-warm.{v}")
            units.append(lambda spec=spec: self._sweep(fixture, spec))
        return units

    def _sweep(self, fixture: Dict[str, Any], spec: SweepSpec) -> List[Outcome]:
        fixture["sweeps"] += 1
        store = CampaignStore(os.path.join(fixture["scratch"], f"store-{fixture['sweeps']}"))
        session = Session(library=fixture["library"])
        stamps: List[float] = []
        start = time.perf_counter()
        try:
            result = run_sweep(session, spec, store=store, with_power=True,
                               with_yield=True,
                               progress=lambda done, total, label: stamps.append(
                                   time.perf_counter()))
        except Exception as exc:
            return [Outcome("sweep", time.perf_counter() - start,
                            error=f"{type(exc).__name__}: {exc}")]
        cache = session.cache_stats()["caches"]
        marks = [start] + stamps
        outcomes = []
        for i, record in enumerate(result.records):
            info = {"cache": cache} if i == 0 else {}
            outcomes.append(Outcome("sweep-point", marks[i + 1] - marks[i],
                                    record=record, info=info))
        return outcomes


# -- serve-mixed ---------------------------------------------------------------


def round_robin(shares: Dict[str, int]) -> Tuple[str, ...]:
    """Each key in turn, in key order, until each has appeared its share."""
    return tuple(kind for turn in range(max(shares.values()))
                 for kind, n in shares.items() if turn < n)


class ServeMixed(Workload):
    name = "serve-mixed"

    #: The registered stand-ins, the same in every run and submitted
    #: inline.  Unlike the other workloads the seed does not draw these
    #: netlists: the critical path, and with it every eq. 4 solve, changes
    #: with the netlist, and with seeded netlists the throughput of a 20 s
    #: closed loop varied 1.7x between seeds.  The seed draws the mix.
    CIRCUITS = ("c432", "c499", "c880", "c1355")
    #: One block of the mix: equal shares of new specs of the four kinds,
    #: plus repeats of earlier specs (4 of 16, about a quarter).  No
    #: measured traffic gives other shares.
    BLOCK_NEW = {"bounds": 3, "optimize": 3, "mc": 3, "power": 3}
    BLOCK_REPEATS = 4
    BLOCK = sum(BLOCK_NEW.values()) + BLOCK_REPEATS
    #: The order of every block: round robin over the kinds and the
    #: repeats ("") until each has its share.  The seed draws the specs,
    #: not the order, so in every run the two clients overlap the same
    #: kinds; with blocks shuffled by the seed, which light submits waited
    #: on the interpreter lock behind heavy ones changed from seed to seed.
    ORDER = round_robin({**BLOCK_NEW, "": BLOCK_REPEATS})
    PLAN_BLOCKS = 400
    #: Submits that every run completes; the quality metrics use them.
    FIRST_PASS = 3 * BLOCK
    #: Served records re-computed on a direct Session per run.
    PARITY_SAMPLES = 3

    def __init__(self) -> None:
        self.clients = max(1, min(2, os.cpu_count() or 1))

    def setup(self, seed: int, scratch: str) -> Dict[str, Any]:
        library = new_library()
        circuits = [load_benchmark(name) for name in self.CIRCUITS]
        store_dir = os.path.join(scratch, f"store-{time.perf_counter_ns()}")
        config = ServeConfig(host="127.0.0.1", port=0, threads=self.clients,
                             heavy_threads=self.clients, procs=0, store_dir=store_dir)
        server, thread = start_server_thread(config, session=Session(library=library))
        address = server.address
        client = ServeClient(host=address["host"], port=address["port"], library=library)
        client.wait_ready()
        return {"library": library, "circuits": circuits, "server": server,
                "thread": thread, "address": address, "store_dir": store_dir}

    def teardown(self, fixture: Dict[str, Any]) -> None:
        server, thread = fixture["server"], fixture["thread"]
        server.request_shutdown(drain=True)
        thread.join(timeout=60)
        if thread.is_alive():
            raise RuntimeError("serve daemon did not stop")
        shutil.rmtree(fixture["store_dir"], ignore_errors=True)

    def mix(self, fixture: Dict[str, Any], seed: int) -> List[Tuple[str, Job, bool]]:
        """``(kind, job, repeats an earlier spec)`` per submit."""
        rng = np.random.default_rng([seed, 4])
        circuits = fixture["circuits"]
        specs: List[Tuple[str, Job, bool]] = []
        distinct: List[Tuple[str, Job]] = []
        for _ in range(self.PLAN_BLOCKS):
            # Netlists rotate through every kind block by block, so each
            # block costs about the same.
            shift = len(specs) // self.BLOCK
            ratios = stratified(rng, 0.9, 1.6, self.BLOCK_NEW["optimize"])
            used = {kind: 0 for kind in self.BLOCK_NEW}
            for kind in self.ORDER:
                if not kind:
                    repeat_kind, repeat_job = distinct[int(rng.integers(len(distinct)))]
                    specs.append((repeat_kind, repeat_job, True))
                    continue
                n = used[kind]
                used[kind] += 1
                circuit = circuits[(shift + n) % len(circuits)]
                # The label makes every new spec distinct, so only the
                # planned repeats can be served from the result store.
                label = f"{kind}-{len(distinct)}"
                if kind == "optimize":
                    job = Job(circuit=circuit, tc_ratio=ratios[n], label=label)
                elif kind == "mc":
                    job = Job(circuit=circuit, tc_ratio=1.3, mc_samples=256,
                              mc_seed=int(rng.integers(1 << 30)), label=label)
                elif kind == "power":
                    job = Job(circuit=circuit, activity_vectors=64,
                              frequency_mhz=round(float(rng.uniform(50, 400)), 1),
                              label=label)
                else:
                    job = Job(circuit=circuit, label=label)
                distinct.append((kind, job))
                specs.append(distinct[-1] + (False,))
        return specs

    def run(self, fixture: Dict[str, Any], seed: int, seconds: float,
            whole_passes: bool = True, max_units: Optional[int] = None,
            tracer: Any = None) -> Tuple[List[Outcome], List[Tuple[float, float]]]:
        """Closed loop of the client threads over the seeded mix, block by block.

        Each unit is one block of the mix: the clients submit its specs
        in a closed loop, and once every submit of the block is done the
        reference batch is timed while the daemon is idle.  Timed while
        the clients run, it would measure contention for the interpreter
        lock, not the host.  Runs cover whole blocks: with
        ``whole_passes`` at least the first-pass blocks and then as many
        as end closest to ``seconds``; without it, blocks until
        ``seconds`` have passed; ``max_units`` runs that many blocks.
        """
        specs = self.mix(fixture, seed)
        library, address = fixture["library"], fixture["address"]
        outcomes: List[Outcome] = []
        walls: List[Tuple[float, float]] = []
        failures: List[BaseException] = []
        first_blocks = self.FIRST_PASS // self.BLOCK if whole_passes else 1
        reference = reference_s()
        while True:
            block = len(walls)
            if max_units is not None:
                if block >= max_units:
                    break
            elif block >= first_blocks and should_stop(walls, block, seconds, whole_passes):
                break
            if (block + 1) * self.BLOCK > len(specs):
                raise RuntimeError("serve plan exhausted; raise PLAN_BLOCKS")
            pending = list(range(block * self.BLOCK, (block + 1) * self.BLOCK))
            produced: List[Outcome] = []
            lock = threading.Lock()

            def client_loop() -> None:
                client = ServeClient(host=address["host"], port=address["port"],
                                     library=library)
                try:
                    while True:
                        with lock:
                            if not pending:
                                return
                            index = pending.pop(0)
                        kind, job, repeat = specs[index]
                        context = (tracer.job(f"job-{index}") if tracer is not None
                                   else nullcontext())
                        with context:
                            outcome = self._submit(client, library, kind, job)
                        outcome.first_pass = index < self.FIRST_PASS
                        outcome.info.update(index=index, repeat=repeat, spec=job)
                        with lock:
                            produced.append(outcome)
                except BaseException as exc:  # surfaced to the harness thread
                    failures.append(exc)

            threads = [threading.Thread(target=client_loop, name=f"perfbench-client-{i}")
                       for i in range(self.clients)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=170)
                if thread.is_alive():
                    raise RuntimeError("serve client did not finish")
            wall = time.perf_counter() - start
            if failures:
                raise failures[0]
            after = reference_s()
            scale = REFERENCE_NOMINAL_S / (0.5 * (reference + after))
            reference = after
            walls.append((wall, scale))
            for outcome in produced:
                outcome.scale = scale
            outcomes.extend(produced)
        outcomes.sort(key=lambda o: o.info["index"])
        status = ServeClient(host=address["host"], port=address["port"]).status()
        fixture["status"] = status
        return outcomes, walls

    def job_wall(self, outcomes: List[Outcome], units: List[Tuple[float, float]]) -> float:
        """Summed submit latencies: the clients' Jobs overlap within a block."""
        return sum(outcome.latency_s for outcome in outcomes)

    @staticmethod
    def _submit(client: ServeClient, library: Library, kind: str,
                job: Dict[str, Any]) -> Outcome:
        stamps: Dict[str, float] = {}

        def on_event(event: Dict[str, Any]) -> None:
            stamps.setdefault(str(event.get("event")), time.perf_counter())

        start = time.perf_counter()
        try:
            done = client.submit(kind, job, on_event=on_event)
            record = RunRecord.from_dict(done["record"], library=library)
        except Exception as exc:
            return Outcome(kind, time.perf_counter() - start,
                           error=f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - start
        info: Dict[str, Any] = {"cached": bool(done.get("cached"))}
        if "queued" in stamps and "started" in stamps:
            info["queue_wait_s"] = stamps["started"] - stamps["queued"]
        return Outcome(kind, latency, record=record, info=info)

    def check(self, fixture: Dict[str, Any], outcomes: List[Outcome],
              seed: int) -> None:
        super().check(fixture, outcomes, seed)
        # Served records must equal direct-Session records for the same
        # spec; a seeded sample of distinct executed specs is re-run.
        seen: Dict[str, Outcome] = {}
        for outcome in outcomes:
            if outcome.error is None and not outcome.info.get("cached"):
                seen.setdefault(outcome.info["spec"].label, outcome)
        candidates = list(seen.values())
        rng = np.random.default_rng([seed, 5])
        picks = rng.choice(len(candidates), size=min(self.PARITY_SAMPLES, len(candidates)),
                           replace=False) if candidates else []
        for i in picks:
            outcome = candidates[int(i)]
            session = Session(library=fixture["library"])
            direct = getattr(session, outcome.kind)(outcome.info["spec"])
            if direct.to_dict(with_timing=False) != outcome.record.to_dict(with_timing=False):
                outcome.error = "served record differs from the direct Session record"
            outcome.info["parity_checked"] = True


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (CircuitLarge(), PathSuite(), SweepWarm(), ServeMixed())
}
