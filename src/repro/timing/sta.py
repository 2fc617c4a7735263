"""Static timing analysis on sized circuit DAGs.

Polarity-aware block-based STA using the eq. 1 delay model: every net
carries separate rising/falling arrival times and transition times; gate
arcs map input polarity to output polarity through the cell's inversion
property.  Each gate's arcs are bound once at its size and load
(:func:`bind_gate`) and then timed per fan-in event.  Loads are
assembled from the fan-out input capacitances plus a configurable
primary-output (register) load, exactly the bounded-path boundary
conditions of the paper lifted to whole circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cells.library import Library
from repro.netlist.circuit import Circuit, GateInstance
from repro.netlist.wireload import WireLoadModel
from repro.timing.backend import GateArcs
from repro.timing.delay_model import Edge


@dataclass(frozen=True)
class ArrivalEvent:
    """Latest arrival of one polarity at a net."""

    time_ps: float
    transition_ps: float
    #: (driving net, input edge at that driver) or None at primary inputs.
    cause: Optional[Tuple[str, Edge]] = None


@dataclass
class StaResult:
    """Full-circuit timing annotation.

    Attributes
    ----------
    arrivals:
        ``net -> {Edge -> ArrivalEvent}``.
    loads_ff:
        External load seen by each gate output.
    critical_delay_ps:
        Worst arrival over all primary outputs and polarities.
    critical_output:
        The (net, edge) achieving it.
    input_transition_ps / output_load_ff:
        The boundary the annotation was timed under: the primary-input
        transition and the (resolved) primary-output load.  Consumers
        that reuse an annotation check them against their own.
    sizes_ff:
        Per-gate input capacitance the annotation was timed at.
    arcs:
        Per-gate bound arcs (:meth:`DelayBackend.bind_arcs
        <repro.timing.backend.DelayBackend.bind_arcs>`) at ``sizes_ff``
        and ``loads_ff``.
    order / fanout:
        Topological gate order and net -> fan-out gate names of the
        timed structure.

    ``loads_ff``, ``sizes_ff``, ``arcs``, ``order`` and ``fanout`` may be
    shared with the engine that produced the result (and with other
    results of it); the engine replaces a shared table before changing
    it, never edits it, so they are read-only snapshots.
    """

    arrivals: Dict[str, Dict[Edge, ArrivalEvent]]
    loads_ff: Dict[str, float]
    critical_delay_ps: float
    critical_output: Tuple[str, Edge]
    input_transition_ps: float
    output_load_ff: float
    sizes_ff: Dict[str, float]
    arcs: Dict[str, GateArcs]
    order: List[str]
    fanout: Dict[str, List[str]]

    def arrival(self, net: str, edge: Edge) -> float:
        """Arrival time of ``edge`` at ``net`` (ps)."""
        return self.arrivals[net][edge].time_ps

    def check_boundary(
        self, input_transition_ps: float, output_load_ff: float
    ) -> None:
        """Raise ``ValueError`` unless timed under exactly this boundary."""
        if (
            self.input_transition_ps != input_transition_ps
            or self.output_load_ff != output_load_ff
        ):
            raise ValueError(
                "StaResult was timed under input_transition_ps="
                f"{self.input_transition_ps}, output_load_ff={self.output_load_ff}; "
                f"caller asked for {input_transition_ps}, {output_load_ff}"
            )


def check_input_transition(input_transition_ps: float) -> None:
    """Reject a negative primary-input transition (as every arc would)."""
    if input_transition_ps < 0:
        raise ValueError(
            f"input_transition_ps must be non-negative, got {input_transition_ps}"
        )


def gate_sizes(circuit: Circuit, library: Library) -> Dict[str, float]:
    """Current per-gate input capacitance, defaulting to the cell minimum."""
    sizes: Dict[str, float] = {}
    for gate in circuit.gates.values():
        cell = library.cell(gate.kind)
        sizes[gate.name] = (
            gate.cin_ff if gate.cin_ff is not None else cell.cin_min(library.tech)
        )
    return sizes


def gate_external_load(
    sinks: Sequence[str],
    sizes: Mapping[str, float],
    is_output: bool,
    output_load_ff: float,
    wire_model: Optional["WireLoadModel"] = None,
) -> float:
    """External load (fF) of one gate output.

    The single-gate kernel shared by :func:`external_loads` and the
    incremental engine; both must sum the fan-out capacitances in the
    same (fan-out map) order so their results stay bit-identical.
    """
    load = sum(sizes[succ] for succ in sinks)
    n_sinks = len(sinks)
    if is_output:
        load += output_load_ff
        n_sinks += 1
    if wire_model is not None:
        load += wire_model.wire_cap_ff(n_sinks)
    return load


def external_loads(
    circuit: Circuit,
    library: Library,
    output_load_ff: Optional[float] = None,
    sizes: Optional[Mapping[str, float]] = None,
    wire_model: Optional["WireLoadModel"] = None,
    fanout: Optional[Mapping[str, Sequence[str]]] = None,
) -> Dict[str, float]:
    """External load (fF) at every gate output.

    Fan-out gate input capacitances, plus ``output_load_ff`` on every
    primary output net (default: four reference inverters -- a register
    input), plus -- when a :class:`~repro.netlist.wireload.WireLoadModel`
    is supplied -- the fan-out based routing estimate.  ``fanout`` reuses
    a fan-out map the caller already holds.
    """
    if output_load_ff is None:
        output_load_ff = 4.0 * library.cref
    if sizes is None:
        sizes = gate_sizes(circuit, library)
    if fanout is None:
        fanout = circuit.fanout_map()
    output_set = set(circuit.outputs)
    return {
        name: gate_external_load(
            fanout.get(name, ()), sizes, name in output_set, output_load_ff, wire_model
        )
        for name in circuit.gates
    }


def bind_gate(
    gate: GateInstance, library: Library, size_ff: float, load_ff: float
) -> GateArcs:
    """The gate's arcs under the library's delay backend at one size/load."""
    return library.delay_backend.bind_arcs(
        library.cell(gate.kind), library.tech, size_ff, load_ff
    )


def propagate_gate(
    gate: GateInstance,
    arcs: GateArcs,
    arrivals: Mapping[str, Dict[Edge, ArrivalEvent]],
) -> Dict[Edge, ArrivalEvent]:
    """Latest arrival events at one gate output from its fan-in arrivals.

    The per-gate propagation kernel of block-based STA, shared verbatim
    by :func:`analyze` and :class:`~repro.timing.incremental.IncrementalSta`
    so a cone re-propagation reproduces the full run bit for bit
    (including the strict ``>`` tie-breaking and dict insertion order).
    ``arcs`` is the gate's bound arc pair (:func:`bind_gate`): each
    fan-in event is timed by the arc of its polarity, and an event is
    built only for a candidate that takes the lead.
    """
    rise_arc, fall_arc = arcs
    best: Dict[Edge, ArrivalEvent] = {}
    for source in gate.fanin:
        for in_edge, event in arrivals[source].items():
            arc = fall_arc if in_edge is Edge.FALL else rise_arc
            delay, tout = arc.at(event.transition_ps)
            time_ps = event.time_ps + delay
            out_edge = arc.output_edge
            current = best.get(out_edge)
            if current is None or time_ps > current.time_ps:
                best[out_edge] = ArrivalEvent(time_ps, tout, (source, in_edge))
    return best


def critical_endpoint(
    arrivals: Mapping[str, Dict[Edge, ArrivalEvent]],
    outputs: Sequence[str],
) -> Tuple[float, Tuple[str, Edge]]:
    """Worst arrival over the primary outputs (shared selection kernel)."""
    critical_time = -1.0
    critical: Tuple[str, Edge] = ("", Edge.RISE)
    for net in outputs:
        for edge, event in arrivals[net].items():
            if event.time_ps > critical_time:
                critical_time = event.time_ps
                critical = (net, edge)
    if critical_time < 0:
        raise ValueError("circuit has no timed outputs")
    return critical_time, critical


def analyze(
    circuit: Circuit,
    library: Library,
    input_transition_ps: float = 0.0,
    output_load_ff: Optional[float] = None,
    sizes: Optional[Mapping[str, float]] = None,
    wire_model: Optional["WireLoadModel"] = None,
) -> StaResult:
    """Run polarity-aware STA; returns arrivals and the critical delay."""
    fanout = circuit.fanout_map()
    order = circuit.validate(fanout)
    check_input_transition(input_transition_ps)
    if output_load_ff is None:
        output_load_ff = 4.0 * library.cref
    # A private copy: the result keeps the sizes it was timed at.
    sizes = gate_sizes(circuit, library) if sizes is None else dict(sizes)
    loads = external_loads(
        circuit, library, output_load_ff, sizes, wire_model, fanout=fanout
    )

    arrivals: Dict[str, Dict[Edge, ArrivalEvent]] = {}
    for net in circuit.inputs:
        arrivals[net] = {
            Edge.RISE: ArrivalEvent(0.0, input_transition_ps),
            Edge.FALL: ArrivalEvent(0.0, input_transition_ps),
        }

    arcs: Dict[str, GateArcs] = {}
    for name in order:
        gate = circuit.gates[name]
        arcs[name] = bind_gate(gate, library, sizes[name], loads[name])
        arrivals[name] = propagate_gate(gate, arcs[name], arrivals)

    critical_time, critical = critical_endpoint(arrivals, circuit.outputs)
    return StaResult(
        arrivals=arrivals,
        loads_ff=loads,
        critical_delay_ps=critical_time,
        critical_output=critical,
        input_transition_ps=input_transition_ps,
        output_load_ff=output_load_ff,
        sizes_ff=sizes,
        arcs=arcs,
        order=order,
        fanout=fanout,
    )


def trace_critical_gates(result: StaResult, circuit: Circuit) -> List[str]:
    """Backtrack the critical path; returns gate names input-side first."""
    net, edge = result.critical_output
    chain: List[str] = []
    while net in circuit.gates:
        chain.append(net)
        event = result.arrivals[net][edge]
        if event.cause is None:
            break
        source, in_edge = event.cause
        net, edge = source, in_edge
    chain.reverse()
    return chain
