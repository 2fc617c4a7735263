"""Incremental STA: re-propagate only the affected fan-out cone.

Every sweep of the eq. 4 fixed point, every sensitivity probe and every
trial buffer insertion perturbs a handful of gates, yet the block-based
engine in :mod:`repro.timing.sta` rebuilds every arrival dict from
scratch.  :class:`IncrementalSta` keeps the full timing annotation of a
live :class:`~repro.netlist.circuit.Circuit` -- topological order,
fan-out map, per-gate sizes/loads, per-net arrival events -- and updates
it with a levelized worklist seeded at the changed gates: a gate is
re-evaluated once (its topological level orders the heap), and
propagation stops early wherever the recomputed arrivals are identical
to the stored ones (the change-propagation discipline of incremental
timers; only the affected cone pays).

Each gate's delay arcs are bound once per size/load
(:func:`~repro.timing.sta.bind_gate`) and kept beside its size and
load; an update rebinds only the gates whose size or load changed, so
a cone re-propagation times every fan-in event with one multiply and
one add instead of a full eq. 1 evaluation.

Bit-identical contract
----------------------
``IncrementalSta`` shares the per-gate kernels of the full engine
(:func:`~repro.timing.sta.bind_gate`,
:func:`~repro.timing.sta.propagate_gate`,
:func:`~repro.timing.sta.gate_external_load`,
:func:`~repro.timing.sta.critical_endpoint`), recomputes loads in the
same fan-out-map order, and compares events exactly -- so after any
sequence of :meth:`update` / :meth:`refresh_structure` calls its state
equals a from-scratch :func:`~repro.timing.sta.analyze` of the current
circuit *bit for bit* (asserted by the randomized-edit equivalence
tests).  The full engine stays the oracle; this engine is the hot path.

Two kinds of change are supported:

* **sizing changes** -- mutate ``gate.cin_ff`` on the circuit, then call
  :meth:`update` with the gate names; loads of the fan-in drivers and
  the downstream cone re-propagate;
* **structural changes** -- insert/remove gates, rewire fan-in, move
  primary outputs (e.g.
  :func:`~repro.buffering.netlist_insertion.insert_buffer_pair` and its
  undo), then call :meth:`refresh_structure`; the structure tables are
  rebuilt (cheap dictionary work) and only gates whose size, load or
  fan-in actually differ seed the worklist.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.cells.library import Library
from repro.netlist.circuit import Circuit
from repro.netlist.wireload import WireLoadModel
from repro.timing.backend import GateArcs
from repro.timing.delay_model import Edge
from repro.timing.sta import (
    ArrivalEvent,
    StaResult,
    bind_gate,
    check_input_transition,
    critical_endpoint,
    gate_external_load,
    propagate_gate,
)


@dataclass
class IncrementalStats:
    """Work counters: how much of the circuit each update actually paid.

    Attributes
    ----------
    full_builds:
        From-scratch propagations (construction and
        :meth:`IncrementalSta.rebuild`).
    updates:
        :meth:`IncrementalSta.update` calls.
    structure_refreshes:
        :meth:`IncrementalSta.refresh_structure` calls.
    gates_reevaluated:
        Gates popped off the worklist across all updates (full builds
        excluded) -- the incremental cost metric.
    cone_truncations:
        Re-evaluated gates whose arrivals came out identical, so their
        fan-out was *not* enqueued (the early-termination win).
    """

    full_builds: int = 0
    updates: int = 0
    structure_refreshes: int = 0
    gates_reevaluated: int = 0
    cone_truncations: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for logging."""
        return dict(self.__dict__)


class IncrementalSta:
    """Block-based STA over a live circuit with cone-limited updates.

    Parameters mirror :func:`~repro.timing.sta.analyze`; the engine owns
    a *reference* to ``circuit`` (not a copy): callers mutate the
    circuit, then tell the engine what changed.  ``start`` seeds the
    engine with a finished annotation of ``circuit``'s current state
    (timed under the same boundary, e.g. a cached :meth:`result` of
    another engine) instead of a full build.

    Notes
    -----
    :meth:`result` returns a view whose arrivals dict is a snapshot but
    whose per-net event dicts and size/load/arc/structure tables are
    shared; the engine never mutates a shared table in place (it
    replaces per-net dicts, and copies the size/load/arc tables before
    its first change after handing them out), so returned results stay
    internally consistent after further updates.
    """

    def __init__(
        self,
        circuit: Circuit,
        library: Library,
        input_transition_ps: float = 0.0,
        output_load_ff: Optional[float] = None,
        wire_model: Optional[WireLoadModel] = None,
        start: Optional[StaResult] = None,
    ) -> None:
        check_input_transition(input_transition_ps)
        self.circuit = circuit
        self.library = library
        self.input_transition_ps = input_transition_ps
        self.output_load_ff = (
            4.0 * library.cref if output_load_ff is None else output_load_ff
        )
        self.wire_model = wire_model
        self.stats = IncrementalStats()
        # Optional repro.obs tracer.  None (the default) keeps update()
        # on its fastest path: one None check per call, no span
        # bookkeeping -- the contract the benchmarks/test_perf_obs.py
        # overhead gate enforces.
        self.tracer: Optional[Any] = None
        self._arrivals: Dict[str, Dict[Edge, ArrivalEvent]] = {}
        # Whether _sizes/_loads/_arcs are referenced by a handed-out
        # result (copy them before the next in-place change).
        self._tables_shared = False
        if start is None:
            self.rebuild()
        else:
            self._adopt(start)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncrementalSta({self.circuit.name!r}, gates={len(self.circuit.gates)}, "
            f"updates={self.stats.updates})"
        )

    # -- structure tables ---------------------------------------------

    def _gate_size(self, name: str) -> float:
        gate = self.circuit.gates[name]
        if gate.cin_ff is not None:
            return gate.cin_ff
        return self.library.cell(gate.kind).cin_min(self.library.tech)

    def _gate_load(self, name: str) -> float:
        return gate_external_load(
            self._fanout.get(name, ()),
            self._sizes,
            name in self._output_set,
            self.output_load_ff,
            self.wire_model,
        )

    def _bind(self, name: str) -> GateArcs:
        return bind_gate(
            self.circuit.gates[name], self.library, self._sizes[name], self._loads[name]
        )

    def _own_tables(self) -> None:
        """Copy the size/load/arc tables a result still references."""
        if self._tables_shared:
            self._sizes = dict(self._sizes)
            self._loads = dict(self._loads)
            self._arcs = dict(self._arcs)
            self._tables_shared = False

    def _build_structure(self) -> None:
        """Validate, then build the structure tables from one fan-out map."""
        fanout = self.circuit.fanout_map()
        self._set_structure(self.circuit.validate(fanout), fanout)

    def _set_structure(self, order: List[str], fanout: Dict[str, List[str]]) -> None:
        """Topological order, levels, fan-out map and fan-in snapshot."""
        self._order = order
        self._level: Dict[str, int] = {name: i for i, name in enumerate(order)}
        self._fanout = fanout
        self._output_set: Set[str] = set(self.circuit.outputs)
        # Fan-in tuple and kind per gate: the rewiring/retyping part of
        # the structure diff (sizes and loads are diffed separately).
        self._fanin: Dict[str, Tuple[object, Tuple[str, ...]]] = {
            name: (gate.kind, gate.fanin) for name, gate in self.circuit.gates.items()
        }

    def _seed_inputs(self) -> None:
        event = ArrivalEvent(0.0, self.input_transition_ps)
        for net in self.circuit.inputs:
            if net not in self._arrivals:
                self._arrivals[net] = {Edge.RISE: event, Edge.FALL: event}

    # -- full build ----------------------------------------------------

    def rebuild(self) -> StaResult:
        """From-scratch propagation (the constructor's path)."""
        self.stats.full_builds += 1
        self._build_structure()
        self._sizes: Dict[str, float] = {
            name: self._gate_size(name) for name in self.circuit.gates
        }
        self._loads: Dict[str, float] = {
            name: self._gate_load(name) for name in self.circuit.gates
        }
        self._arcs: Dict[str, GateArcs] = {}
        self._tables_shared = False
        self._arrivals = {}
        self._seed_inputs()
        gates = self.circuit.gates
        for name in self._order:
            arcs = self._arcs[name] = self._bind(name)
            self._arrivals[name] = propagate_gate(gates[name], arcs, self._arrivals)
        self._refresh_critical()
        return self.result()

    def _adopt(self, start: StaResult) -> None:
        """Take over ``start``, an annotation of the circuit as it stands.

        Checks the boundary and the per-gate sizes; the structure, load
        and arc tables are shared with ``start`` (copy-on-write) and
        nothing is re-timed.
        """
        start.check_boundary(self.input_transition_ps, self.output_load_ff)
        sizes = {name: self._gate_size(name) for name in self.circuit.gates}
        if sizes != start.sizes_ff:
            raise ValueError("start annotation was timed at a different sizing")
        self._set_structure(start.order, start.fanout)
        self._sizes = sizes
        self._loads = start.loads_ff
        self._arcs = start.arcs
        self._tables_shared = True
        self._arrivals = dict(start.arrivals)
        self.critical_delay_ps = start.critical_delay_ps
        self.critical_output = start.critical_output

    def _refresh_critical(self) -> None:
        self.critical_delay_ps, self.critical_output = critical_endpoint(
            self._arrivals, self.circuit.outputs
        )

    # -- incremental updates -------------------------------------------

    def update(self, changed_gates: Iterable[str]) -> StaResult:
        """Re-propagate after sizing changes to ``changed_gates``.

        Gates whose size is in fact unchanged are skipped, so passing a
        superset (even every gate name) is correct and only costs the
        diff.  Raises ``KeyError`` on names that are not gates -- a
        structural edit requires :meth:`refresh_structure` instead.

        When a :attr:`tracer` is attached (and enabled) each update
        emits an ``sta.update`` event carrying the cone size actually
        re-evaluated; with no tracer the cost over :meth:`_update_core`
        is a single attribute check.
        """
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return self._update_core(changed_gates)
        before = self.stats.gates_reevaluated
        truncated_before = self.stats.cone_truncations
        result = self._update_core(changed_gates)
        tracer.event(
            "sta.update",
            circuit=self.circuit.name,
            cone_gates=self.stats.gates_reevaluated - before,
            cone_truncations=self.stats.cone_truncations - truncated_before,
        )
        return result

    def _update_core(self, changed_gates: Iterable[str]) -> StaResult:
        """The uninstrumented body of :meth:`update` (perf-gate baseline)."""
        self.stats.updates += 1
        dirty: Set[str] = set()
        load_dirty: Set[str] = set()
        for name in changed_gates:
            gate = self.circuit.gates[name]
            new_size = self._gate_size(name)
            if new_size != self._sizes[name]:
                self._own_tables()
                self._sizes[name] = new_size
                dirty.add(name)
                for source in gate.fanin:
                    if source in self.circuit.gates:
                        load_dirty.add(source)
        for name in load_dirty:
            new_load = self._gate_load(name)
            if new_load != self._loads[name]:
                self._loads[name] = new_load
                dirty.add(name)
        if dirty:
            for name in dirty:
                self._arcs[name] = self._bind(name)
            self._propagate(dirty)
        return self.result()

    def refresh_structure(self) -> StaResult:
        """Re-sync after structural edits (gates added/removed/rewired).

        Rebuilds the cheap structure tables, diffs sizes, loads and
        fan-in against the previous state, and re-propagates only from
        the gates that actually differ -- a trial buffer insertion pays
        dictionary work plus its fan-out cone, not a full STA.
        """
        self.stats.structure_refreshes += 1
        old_sizes = self._sizes
        old_loads = self._loads
        old_fanin = self._fanin
        old_arcs = self._arcs
        self._build_structure()
        self._sizes = {name: self._gate_size(name) for name in self.circuit.gates}
        self._loads = {name: self._gate_load(name) for name in self.circuit.gates}

        live = set(self.circuit.inputs) | set(self.circuit.gates)
        for net in list(self._arrivals):
            if net not in live:
                del self._arrivals[net]

        dirty: Set[str] = set()
        event = ArrivalEvent(0.0, self.input_transition_ps)
        seed = {Edge.RISE: event, Edge.FALL: event}
        for net in self.circuit.inputs:
            if self._arrivals.get(net) != seed:
                self._arrivals[net] = dict(seed)
                dirty.update(self._fanout.get(net, ()))
        for name in self.circuit.gates:
            if (
                name not in self._arrivals
                or old_sizes.get(name) != self._sizes[name]
                or old_loads.get(name) != self._loads[name]
                or old_fanin.get(name) != self._fanin[name]
            ):
                dirty.add(name)
        # Arcs follow (kind, size, load), all of which mark a gate dirty:
        # keep every clean gate's entry in a fresh, unshared table.
        self._arcs = {
            name: self._bind(name) if name in dirty else old_arcs[name]
            for name in self.circuit.gates
        }
        self._tables_shared = False
        if dirty:
            self._propagate(dirty)
        else:
            self._refresh_critical()
        return self.result()

    def retarget(self, circuit: Circuit) -> StaResult:
        """Re-point the engine at a different :class:`Circuit` object.

        The warm-start primitive of the Tc-sweep layer: instead of paying
        a from-scratch build for every sweep point, the engine keeps the
        annotation of the previous point's circuit and re-propagates only
        what differs -- size diffs, load diffs, gates added or removed.
        The circuits need not share structure (``refresh_structure``
        diffs both ways), but the closer they are, the less is re-timed;
        the resulting annotation is bit-identical to a fresh build of the
        new circuit either way.
        """
        self.circuit = circuit
        return self.refresh_structure()

    def _propagate(self, seeds: Set[str]) -> None:
        """Levelized worklist from ``seeds``; stops where arrivals settle."""
        heap = [(self._level[name], name) for name in seeds]
        heapq.heapify(heap)
        queued = set(seeds)
        while heap:
            _, name = heapq.heappop(heap)
            queued.discard(name)
            self.stats.gates_reevaluated += 1
            best = propagate_gate(
                self.circuit.gates[name], self._arcs[name], self._arrivals
            )
            if best == self._arrivals.get(name):
                # Replace anyway: keeps dict insertion order canonical.
                self._arrivals[name] = best
                self.stats.cone_truncations += 1
                continue
            self._arrivals[name] = best
            for succ in self._fanout.get(name, ()):
                if succ not in queued:
                    queued.add(succ)
                    heapq.heappush(heap, (self._level[succ], succ))
        self._refresh_critical()

    # -- views ---------------------------------------------------------

    def result(self) -> StaResult:
        """Current annotation as a :class:`~repro.timing.sta.StaResult`.

        The arrivals dict is copied; the per-net event dicts and the
        size/load/arc/structure tables are shared but never mutated in
        place afterwards (see the class notes), so the result is stable
        against later updates.
        """
        self._tables_shared = True
        return StaResult(
            arrivals=dict(self._arrivals),
            loads_ff=self._loads,
            critical_delay_ps=self.critical_delay_ps,
            critical_output=self.critical_output,
            input_transition_ps=self.input_transition_ps,
            output_load_ff=self.output_load_ff,
            sizes_ff=self._sizes,
            arcs=self._arcs,
            order=self._order,
            fanout=self._fanout,
        )

    def arrival(self, net: str, edge: Edge) -> float:
        """Arrival time of ``edge`` at ``net`` (ps) in the current state."""
        return self._arrivals[net][edge].time_ps

    def sizes(self) -> Dict[str, float]:
        """Current per-gate input capacitances (a copy)."""
        return dict(self._sizes)
