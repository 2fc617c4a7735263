"""K most-critical path extraction and path <-> circuit conversion.

POPS ("Performance Optimization by Path Selection") works on a small,
user-specified number of critical paths (refs. [11-12] of the paper).  We
extract them with a best-first search guided by a reverse potential
computed under the STA slews -- an A*-style enumeration that yields paths
in (near) decreasing delay order -- then re-evaluate each candidate path
exactly and sort.

Extracted paths are converted to :class:`~repro.timing.path.BoundedPath`
objects: off-path fan-out becomes the fixed ``cside`` loads, the driving
size of the first gate becomes the fixed input capacitance, and the total
external load of the last gate becomes the terminal load -- the bounded
boundary conditions of section 2.2.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cells.library import Library
from repro.netlist.circuit import Circuit
from repro.timing.delay_model import Edge
from repro.timing.evaluation import evaluate_path
from repro.timing.path import BoundedPath, PathStage
from repro.timing.sta import StaResult, analyze, external_loads, gate_sizes


@dataclass(frozen=True)
class ExtractedPath:
    """A gate-name path plus its bounded-path realisation.

    Attributes
    ----------
    gate_names:
        Gates along the path, input side first.
    input_edge:
        Polarity entering the first gate.
    path:
        The bounded-path view used by every optimizer.
    delay_ps:
        Exact eq. 1 delay of the path at the extraction sizing.
    """

    gate_names: Tuple[str, ...]
    input_edge: Edge
    path: BoundedPath
    delay_ps: float


def to_bounded_path(
    circuit: Circuit,
    library: Library,
    gate_names: Sequence[str],
    input_edge: Edge,
    sizes: Optional[Mapping[str, float]] = None,
    output_load_ff: Optional[float] = None,
    input_transition_ps: float = 0.0,
    loads: Optional[Mapping[str, float]] = None,
) -> BoundedPath:
    """Freeze a gate-name chain into a bounded path.

    ``sizes`` provides the off-path loading context (defaults to the
    current circuit sizing); the first gate's current size becomes the
    fixed drive.  ``loads`` reuses the external loads of an STA of the
    same sizing and boundary (:attr:`StaResult.loads_ff
    <repro.timing.sta.StaResult.loads_ff>`) instead of recomputing them.
    """
    if not gate_names:
        raise ValueError("gate_names must be non-empty")
    if sizes is None:
        sizes = gate_sizes(circuit, library)
    if loads is None:
        loads = external_loads(circuit, library, output_load_ff, sizes)

    stages: List[PathStage] = []
    for position, name in enumerate(gate_names):
        gate = circuit.gate(name)
        if position + 1 < len(gate_names):
            next_name = gate_names[position + 1]
            next_gate = circuit.gate(next_name)
            if name not in next_gate.fanin:
                raise ValueError(
                    f"{next_name!r} is not a fan-out of {name!r}: not a path"
                )
            cside = loads[name] - sizes[next_name]
        else:
            cside = 0.0
        cell = library.cell(gate.kind)
        stages.append(PathStage(cell=cell, cside_ff=max(cside, 0.0), name=name))

    cterm = loads[gate_names[-1]]
    return BoundedPath(
        stages=tuple(stages),
        cin_first_ff=sizes[gate_names[0]],
        cterm_ff=cterm,
        input_edge=input_edge,
        tin_first_ps=input_transition_ps,
    )


def apply_path_sizes(
    circuit: Circuit, gate_names: Sequence[str], sizes: Sequence[float]
) -> None:
    """Write a path sizing vector back onto the circuit instances."""
    arr = np.asarray(sizes, dtype=float)
    if arr.shape != (len(gate_names),):
        raise ValueError("sizes must match gate_names")
    for name, cin in zip(gate_names, arr):
        circuit.gate(name).cin_ff = float(cin)


def _reverse_potentials(
    circuit: Circuit, sta: StaResult
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Max remaining delay from (net, edge) to any primary output.

    Returns ``(rise, fall)``: per-edge maps from net to potential, so
    the A* loop indexes them with ``edge is Edge.FALL``.  Uses the STA
    slews as the per-pin input transition estimate, which makes the
    potential a tight (if not strictly admissible) heuristic.
    """
    arcs = sta.arcs
    fanout = sta.fanout
    arrivals = sta.arrivals
    output_set = set(circuit.outputs)
    fall = Edge.FALL
    neg_inf = float("-inf")
    potential: Tuple[Dict[str, float], Dict[str, float]] = ({}, {})
    sides = tuple(enumerate(zip((Edge.RISE, fall), potential)))
    all_nets = list(circuit.inputs) + list(sta.order)
    for net in reversed(all_nets):
        per_net = arrivals[net]
        succs = fanout.get(net, ())
        start = 0.0 if net in output_set else neg_inf
        for side, (edge, own) in sides:
            best = start
            slew = per_net[edge].transition_ps
            for succ in succs:
                arc = arcs[succ][side]
                downstream = potential[arc.output_edge is fall].get(succ)
                if downstream is None:
                    continue
                candidate = arc.at(slew)[0] + downstream
                if candidate > best:  # max(best, candidate), first wins ties
                    best = candidate
            if best > neg_inf:
                own[net] = best
    return potential


def k_critical_paths(
    circuit: Circuit,
    library: Library,
    k: int = 1,
    input_transition_ps: float = 0.0,
    output_load_ff: Optional[float] = None,
    max_expansions: int = 200_000,
    sta: Optional[StaResult] = None,
) -> List[ExtractedPath]:
    """Extract the ``k`` most critical paths of a sized circuit.

    Returns them sorted by exact path delay, longest first.  ``k = 1``
    degenerates to the classic critical path.  ``sta`` skips the
    internal full analysis when the caller already holds the circuit's
    current annotation (e.g. from an
    :class:`~repro.timing.incremental.IncrementalSta` engine); the
    search then runs on its arc, fan-out, order, size and load tables.
    It must have been timed under the same transition/load parameters:
    a mismatch raises ``ValueError``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if output_load_ff is None:
        output_load_ff = 4.0 * library.cref
    if sta is None:
        sta = analyze(
            circuit,
            library,
            input_transition_ps=input_transition_ps,
            output_load_ff=output_load_ff,
        )
    else:
        sta.check_boundary(input_transition_ps, output_load_ff)
    sizes = sta.sizes_ff
    arcs = sta.arcs
    fanout = sta.fanout
    potential = _reverse_potentials(circuit, sta)

    counter = itertools.count()
    heap: List[Tuple[float, int, str, Edge, float, float, Tuple[str, ...]]] = []
    for net in circuit.inputs:
        for edge in (Edge.RISE, Edge.FALL):
            pot = potential[edge is Edge.FALL].get(net)
            if pot is None:
                continue
            heapq.heappush(
                heap,
                (-pot, next(counter), net, edge, 0.0, input_transition_ps, ()),
            )

    output_set = set(circuit.outputs)
    gates = circuit.gates
    results: List[ExtractedPath] = []
    seen_paths: set = set()
    expansions = 0
    # Collect extra candidates: the heuristic is approximate, so over-pull
    # then exact-sort.
    want = max(k * 3, k + 2)
    while heap and len(results) < want and expansions < max_expansions:
        neg_priority, _, net, edge, arrival, slew, prefix = heapq.heappop(heap)
        expansions += 1
        if net in output_set and net in gates:
            if prefix not in seen_paths:
                seen_paths.add(prefix)
                first_edge = _path_input_edge(circuit, library, prefix, edge)
                bounded = to_bounded_path(
                    circuit,
                    library,
                    prefix,
                    first_edge,
                    sizes=sizes,
                    input_transition_ps=input_transition_ps,
                    loads=sta.loads_ff,
                )
                exact = evaluate_path(
                    bounded, [sizes[g] for g in prefix], library
                ).total_delay_ps
                results.append(
                    ExtractedPath(
                        gate_names=prefix,
                        input_edge=first_edge,
                        path=bounded,
                        delay_ps=exact,
                    )
                )
        side = edge is Edge.FALL
        for succ in fanout.get(net, ()):
            arc = arcs[succ][side]
            out_edge = arc.output_edge
            pot = potential[out_edge is Edge.FALL].get(succ)
            if pot is None and succ not in output_set:
                continue
            delay, tout = arc.at(slew)
            new_arrival = arrival + delay
            priority = new_arrival + (pot or 0.0)
            heapq.heappush(
                heap,
                (
                    -priority,
                    next(counter),
                    succ,
                    out_edge,
                    new_arrival,
                    tout,
                    prefix + (succ,),
                ),
            )

    results.sort(key=lambda p: p.delay_ps, reverse=True)
    return results[:k]


def _path_input_edge(
    circuit: Circuit, library: Library, gate_names: Sequence[str], last_edge: Edge
) -> Edge:
    """Recover the path-entry polarity from the polarity at the last output."""
    edge = last_edge
    for name in reversed(gate_names):
        cell = library.cell(circuit.gate(name).kind)
        if cell.inverting:
            edge = edge.flipped
    return edge


def critical_path(
    circuit: Circuit,
    library: Library,
    input_transition_ps: float = 0.0,
    output_load_ff: Optional[float] = None,
    sta: Optional[StaResult] = None,
) -> ExtractedPath:
    """The single most critical path (convenience wrapper)."""
    paths = k_critical_paths(
        circuit,
        library,
        k=1,
        input_transition_ps=input_transition_ps,
        output_load_ff=output_load_ff,
        sta=sta,
    )
    if not paths:
        raise ValueError(f"no paths found in circuit {circuit.name!r}")
    return paths[0]
