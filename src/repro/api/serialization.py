"""Lossless JSON-compatible conversion of every result the facade emits.

Numbers survive the round trip exactly: Python's ``json`` serialises floats
with ``repr``, which is read back to the identical IEEE-754 value, and numpy
arrays are flattened to plain float lists.  Enum-keyed tables (the Flimit
lookup) are stored as explicit ``driver``/``gate`` rows, and bounded paths
are stored structurally -- gate kind, side load, name -- and re-bound to a
characterised library on the way back, so deserialisation needs the same
library the run used (the default library is deterministic, making records
portable between processes).
"""

from __future__ import annotations

import math
from sys import intern
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.power import PowerReport
from repro.buffering.flimit import FlimitEntry
from repro.cells.gate_types import GateKind
from repro.cells.library import Library
from repro.netlist.circuit import Circuit
from repro.protocol.domains import (
    ConstraintDomain,
    DomainClassification,
)
from repro.protocol.optimizer import CircuitOptimizationResult, ProtocolResult
from repro.sizing.bounds import BoundsHistoryPoint, DelayBounds
from repro.timing.delay_model import Edge
from repro.timing.path import BoundedPath, PathStage


def array_to_list(arr: Sequence[float]) -> List[float]:
    """A numpy vector as a plain list of Python floats."""
    return [float(x) for x in np.asarray(arr, dtype=float)]


def _finite(value: float) -> float:
    """Pass through a float; JSON handles inf/nan via Python's extension."""
    return float(value)


# -- circuits ----------------------------------------------------------


def circuit_to_dict(circuit: Circuit) -> Dict[str, Any]:
    """Structural + sizing snapshot of a netlist."""
    return {
        "name": circuit.name,
        "inputs": list(circuit.inputs),
        "outputs": list(circuit.outputs),
        "gates": [
            {
                "name": gate.name,
                "kind": gate.kind.value,
                "fanin": list(gate.fanin),
                "cin_ff": None if gate.cin_ff is None else float(gate.cin_ff),
            }
            for gate in circuit.gates.values()
        ],
    }


def circuit_from_dict(data: Mapping[str, Any]) -> Circuit:
    """Rebuild a :class:`Circuit` from :func:`circuit_to_dict` output.

    Net names are interned: JSON decoding makes a fresh string for every
    fan-in reference to a net, and a deserialized record's inline
    circuit would otherwise hold one copy per reference.
    """
    circuit = Circuit(data["name"])
    for net in data["inputs"]:
        circuit.add_input(intern(net))
    for gate in data["gates"]:
        circuit.add_gate(
            intern(gate["name"]),
            GateKind(gate["kind"]),
            [intern(net) for net in gate["fanin"]],
            cin_ff=gate["cin_ff"],
        )
    for net in data["outputs"]:
        circuit.add_output(intern(net))
    return circuit


# -- bounded paths -----------------------------------------------------


def path_to_dict(path: BoundedPath) -> Dict[str, Any]:
    """Structural snapshot of a bounded path (cells stored by kind)."""
    return {
        "stages": [
            {
                "kind": stage.cell.kind.value,
                "cside_ff": float(stage.cside_ff),
                "name": stage.name,
            }
            for stage in path.stages
        ],
        "cin_first_ff": float(path.cin_first_ff),
        "cterm_ff": float(path.cterm_ff),
        "input_edge": path.input_edge.value,
        "tin_first_ps": float(path.tin_first_ps),
    }


def path_from_dict(data: Mapping[str, Any], library: Library) -> BoundedPath:
    """Re-bind a serialized path to a characterised library."""
    stages = tuple(
        PathStage(
            cell=library.cell(GateKind(stage["kind"])),
            cside_ff=stage["cside_ff"],
            name=intern(stage["name"]),
        )
        for stage in data["stages"]
    )
    return BoundedPath(
        stages=stages,
        cin_first_ff=data["cin_first_ff"],
        cterm_ff=data["cterm_ff"],
        input_edge=Edge(data["input_edge"]),
        tin_first_ps=data["tin_first_ps"],
    )


# -- protocol results --------------------------------------------------


def classification_to_dict(classification: DomainClassification) -> Dict[str, Any]:
    """Serialize a Fig. 6 domain classification."""
    return {
        "domain": classification.domain.value,
        "tc_ps": _finite(classification.tc_ps),
        "tmin_ps": _finite(classification.tmin_ps),
    }


def classification_from_dict(data: Mapping[str, Any]) -> DomainClassification:
    """Rebuild a :class:`DomainClassification`."""
    return DomainClassification(
        domain=ConstraintDomain(data["domain"]),
        tc_ps=data["tc_ps"],
        tmin_ps=data["tmin_ps"],
    )


def protocol_result_to_dict(result: ProtocolResult) -> Dict[str, Any]:
    """Serialize a path-protocol outcome."""
    return {
        "method": result.method,
        "domain": classification_to_dict(result.domain),
        "path": path_to_dict(result.path),
        "sizes": array_to_list(result.sizes),
        "delay_ps": _finite(result.delay_ps),
        "area_um": _finite(result.area_um),
        "tc_ps": _finite(result.tc_ps),
        "feasible": bool(result.feasible),
        "tmin_ps": _finite(result.tmin_ps),
    }


def protocol_result_from_dict(
    data: Mapping[str, Any], library: Library
) -> ProtocolResult:
    """Rebuild a :class:`ProtocolResult`."""
    return ProtocolResult(
        method=data["method"],
        domain=classification_from_dict(data["domain"]),
        path=path_from_dict(data["path"], library),
        sizes=np.asarray(data["sizes"], dtype=float),
        delay_ps=data["delay_ps"],
        area_um=data["area_um"],
        tc_ps=data["tc_ps"],
        feasible=data["feasible"],
        tmin_ps=data["tmin_ps"],
    )


def circuit_result_to_dict(result: CircuitOptimizationResult) -> Dict[str, Any]:
    """Serialize a circuit-driver outcome."""
    return {
        "circuit": circuit_to_dict(result.circuit),
        "tc_ps": _finite(result.tc_ps),
        "critical_delay_ps": _finite(result.critical_delay_ps),
        "feasible": bool(result.feasible),
        "passes": int(result.passes),
        "rescued_gates": list(result.rescued_gates),
        "path_results": [protocol_result_to_dict(r) for r in result.path_results],
    }


def circuit_result_from_dict(
    data: Mapping[str, Any], library: Library
) -> CircuitOptimizationResult:
    """Rebuild a :class:`CircuitOptimizationResult`."""
    return CircuitOptimizationResult(
        circuit=circuit_from_dict(data["circuit"]),
        tc_ps=data["tc_ps"],
        critical_delay_ps=data["critical_delay_ps"],
        feasible=data["feasible"],
        passes=data["passes"],
        rescued_gates=tuple(data.get("rescued_gates", ())),
        path_results=[
            protocol_result_from_dict(r, library) for r in data["path_results"]
        ],
    )


# -- delay bounds ------------------------------------------------------


def bounds_to_dict(bounds: DelayBounds) -> Dict[str, Any]:
    """Serialize a ``(Tmin, Tmax)`` window with its Fig. 1 history."""
    return {
        "tmin_ps": _finite(bounds.tmin_ps),
        "tmax_ps": _finite(bounds.tmax_ps),
        "sizes_tmin": array_to_list(bounds.sizes_tmin),
        "sizes_tmax": array_to_list(bounds.sizes_tmax),
        "area_tmin_um": _finite(bounds.area_tmin_um),
        "area_tmax_um": _finite(bounds.area_tmax_um),
        "history": [
            [int(p.iteration), _finite(p.total_cin_over_cref), _finite(p.delay_ps)]
            for p in bounds.history
        ],
        "iterations": int(bounds.iterations),
    }


def bounds_from_dict(data: Mapping[str, Any]) -> DelayBounds:
    """Rebuild a :class:`DelayBounds`."""
    return DelayBounds(
        tmin_ps=data["tmin_ps"],
        tmax_ps=data["tmax_ps"],
        sizes_tmin=np.asarray(data["sizes_tmin"], dtype=float),
        sizes_tmax=np.asarray(data["sizes_tmax"], dtype=float),
        area_tmin_um=data["area_tmin_um"],
        area_tmax_um=data["area_tmax_um"],
        history=tuple(
            BoundsHistoryPoint(iteration=it, total_cin_over_cref=cin, delay_ps=d)
            for it, cin, d in data["history"]
        ),
        iterations=data["iterations"],
    )


# -- power -------------------------------------------------------------


def power_to_dict(report: PowerReport) -> Dict[str, Any]:
    """Serialize a power breakdown."""
    return {
        "dynamic_uw": _finite(report.dynamic_uw),
        "short_circuit_uw": _finite(report.short_circuit_uw),
        "frequency_mhz": _finite(report.frequency_mhz),
        "switched_cap_ff": _finite(report.switched_cap_ff),
    }


def power_from_dict(data: Mapping[str, Any]) -> PowerReport:
    """Rebuild a :class:`PowerReport`."""
    return PowerReport(
        dynamic_uw=data["dynamic_uw"],
        short_circuit_uw=data["short_circuit_uw"],
        frequency_mhz=data["frequency_mhz"],
        switched_cap_ff=data["switched_cap_ff"],
    )


# -- Flimit tables -----------------------------------------------------


def flimit_table_to_list(
    limits: Mapping[Tuple[GateKind, GateKind], float],
) -> List[Dict[str, Any]]:
    """An enum-keyed ``(driver, gate) -> Flimit`` table as explicit rows.

    ``inf`` entries (the buffer never wins) are stored as the string
    ``"inf"`` so the rows stay strict-JSON compatible.
    """
    rows = []
    for (driver, gate), value in sorted(
        limits.items(), key=lambda item: (item[0][0].value, item[0][1].value)
    ):
        rows.append(
            {
                "driver": driver.value,
                "gate": gate.value,
                "flimit": "inf" if math.isinf(value) else float(value),
            }
        )
    return rows


def flimit_table_from_list(
    rows: Sequence[Mapping[str, Any]],
) -> Dict[Tuple[GateKind, GateKind], float]:
    """Rebuild the enum-keyed lookup from :func:`flimit_table_to_list` rows."""
    return {
        (GateKind(row["driver"]), GateKind(row["gate"])): (
            math.inf if row["flimit"] == "inf" else float(row["flimit"])
        )
        for row in rows
    }


def flimit_entries_to_list(entries: Sequence[FlimitEntry]) -> List[Dict[str, Any]]:
    """Serialize characterisation entries (Table 2 rows)."""

    def encode(value: Optional[float]) -> Any:
        if value is None:
            return None
        return "inf" if math.isinf(value) else float(value)

    return [
        {
            "driver": entry.driver.value,
            "gate": entry.gate.value,
            "computed": encode(entry.computed),
            "simulated": encode(entry.simulated),
        }
        for entry in entries
    ]


def flimit_entries_from_list(rows: Sequence[Mapping[str, Any]]) -> List[FlimitEntry]:
    """Rebuild :class:`FlimitEntry` rows."""

    def decode(value: Any) -> Optional[float]:
        if value is None:
            return None
        return math.inf if value == "inf" else float(value)

    return [
        FlimitEntry(
            driver=GateKind(row["driver"]),
            gate=GateKind(row["gate"]),
            computed=decode(row["computed"]),
            simulated=decode(row["simulated"]),
        )
        for row in rows
    ]
