"""ISCAS'85 ``.bench`` format reader / writer.

The paper's benchmarks (c432 ... c7552) are distributed in the ``.bench``
netlist format::

    # comment
    INPUT(G1)
    OUTPUT(G17)
    G10 = NAND(G1, G3)
    G11 = NOT(G10)

We support the full ISCAS'85 vocabulary (AND/OR/NAND/NOR/XOR/XNOR up to
fan-in 4, NOT, BUFF).  Wider gates are decomposed into balanced trees of
the widest available primitive, preserving logic -- the original ISCAS
netlists contain e.g. 8-input NANDs which no realistic 0.25 um library
offers as a single stage.
"""

from __future__ import annotations

import re
from typing import Dict, List

from repro.cells.gate_types import (
    GateKind,
    and_kind,
    nand_kind,
    nor_kind,
    or_kind,
)
from repro.netlist.circuit import Circuit, NetlistError

_INPUT_RE = re.compile(r"^INPUT\s*\(\s*([^)]+?)\s*\)$", re.IGNORECASE)
_OUTPUT_RE = re.compile(r"^OUTPUT\s*\(\s*([^)]+?)\s*\)$", re.IGNORECASE)
_GATE_RE = re.compile(
    r"^(?P<out>\S+)\s*=\s*(?P<fn>[A-Za-z]+)\s*\(\s*(?P<args>[^)]*)\s*\)$"
)

_MAX_FANIN = 4


class BenchParseError(NetlistError):
    """Malformed ``.bench`` text."""


def _tree_reduce(
    circuit: Circuit,
    base: str,
    nets: List[str],
    make_kind,
    invert_last: bool,
) -> str:
    """Reduce ``nets`` with a balanced tree of AND/OR primitives.

    ``make_kind`` maps a width (2..4) to the non-inverting kind; when
    ``invert_last`` is set the final stage uses the inverting counterpart
    (NAND/NOR) so the overall function is the wide NAND/NOR.
    """
    counter = 0
    current = nets
    while len(current) > _MAX_FANIN:
        grouped: List[str] = []
        for start in range(0, len(current), _MAX_FANIN):
            chunk = current[start : start + _MAX_FANIN]
            if len(chunk) == 1:
                grouped.append(chunk[0])
                continue
            net = f"{base}__t{counter}"
            counter += 1
            circuit.add_gate(net, make_kind(len(chunk)), chunk)
            grouped.append(net)
        current = grouped
    final_kind = make_kind(len(current))
    if invert_last:
        if make_kind is and_kind:
            final_kind = nand_kind(len(current))
        else:
            final_kind = nor_kind(len(current))
    circuit.add_gate(base, final_kind, current)
    return base


#: Gate functions the ``.bench`` dialect defines.
_BENCH_FUNCTIONS = frozenset(
    ("NOT", "BUFF", "BUF", "XOR", "XNOR", "AND", "OR", "NAND", "NOR")
)


def _add_parsed_gate(circuit: Circuit, out: str, fn: str, args: List[str]) -> None:
    fn = fn.upper()
    if fn not in _BENCH_FUNCTIONS:
        raise BenchParseError(f"unknown gate function {fn!r} at {out!r}")
    n = len(args)
    if fn == "NOT":
        if n != 1:
            raise BenchParseError(f"NOT expects 1 input at {out!r}")
        circuit.add_gate(out, GateKind.INV, args)
        return
    if fn in ("BUFF", "BUF"):
        if n != 1:
            raise BenchParseError(f"BUFF expects 1 input at {out!r}")
        circuit.add_gate(out, GateKind.BUF, args)
        return
    if fn in ("XOR", "XNOR"):
        if n != 2:
            raise BenchParseError(f"{fn} beyond 2 inputs is not supported at {out!r}")
        kind = GateKind.XOR2 if fn == "XOR" else GateKind.XNOR2
        circuit.add_gate(out, kind, args)
        return
    if n < 2:
        raise BenchParseError(f"{fn} expects >= 2 inputs at {out!r}")
    if fn == "AND":
        if n <= _MAX_FANIN:
            circuit.add_gate(out, and_kind(n), args)
        else:
            _tree_reduce(circuit, out, args, and_kind, invert_last=False)
        return
    if fn == "OR":
        if n <= _MAX_FANIN:
            circuit.add_gate(out, or_kind(n), args)
        else:
            _tree_reduce(circuit, out, args, or_kind, invert_last=False)
        return
    if fn == "NAND":
        if n <= _MAX_FANIN:
            circuit.add_gate(out, nand_kind(n), args)
        else:
            _tree_reduce(circuit, out, args, and_kind, invert_last=True)
        return
    if fn == "NOR":
        if n <= _MAX_FANIN:
            circuit.add_gate(out, nor_kind(n), args)
        else:
            _tree_reduce(circuit, out, args, or_kind, invert_last=True)


def parse_bench(text: str, name: str = "bench") -> Circuit:
    """Parse ``.bench`` text into a validated :class:`Circuit`."""
    circuit = Circuit(name)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _INPUT_RE.match(line)
        if match:
            circuit.add_input(match.group(1))
            continue
        match = _OUTPUT_RE.match(line)
        if match:
            circuit.add_output(match.group(1))
            continue
        match = _GATE_RE.match(line)
        if match:
            args = [a.strip() for a in match.group("args").split(",") if a.strip()]
            try:
                _add_parsed_gate(circuit, match.group("out"), match.group("fn"), args)
            except NetlistError as exc:
                raise BenchParseError(f"line {lineno}: {exc}") from exc
            continue
        raise BenchParseError(f"line {lineno}: cannot parse {raw!r}")
    circuit.validate()
    return circuit


def load_bench(path: str) -> Circuit:
    """Read a ``.bench`` file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stem = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return parse_bench(text, name=stem)


_KIND_TO_BENCH: Dict[GateKind, str] = {
    GateKind.INV: "NOT",
    GateKind.BUF: "BUFF",
    GateKind.NAND2: "NAND",
    GateKind.NAND3: "NAND",
    GateKind.NAND4: "NAND",
    GateKind.NOR2: "NOR",
    GateKind.NOR3: "NOR",
    GateKind.NOR4: "NOR",
    GateKind.AND2: "AND",
    GateKind.AND3: "AND",
    GateKind.AND4: "AND",
    GateKind.OR2: "OR",
    GateKind.OR3: "OR",
    GateKind.OR4: "OR",
    GateKind.XOR2: "XOR",
    GateKind.XNOR2: "XNOR",
}


def to_bench(circuit: Circuit) -> str:
    """Serialise a circuit back to ``.bench`` text (round-trips with parse)."""
    lines: List[str] = [f"# {circuit.name}"]
    for net in circuit.inputs:
        lines.append(f"INPUT({net})")
    for net in circuit.outputs:
        lines.append(f"OUTPUT({net})")
    for name in circuit.topological_order():
        gate = circuit.gates[name]
        fn = _KIND_TO_BENCH.get(gate.kind)
        if fn is None:
            raise NetlistError(
                f"gate kind {gate.kind} has no .bench spelling "
                f"(decompose complex gates before writing)"
            )
        lines.append(f"{name} = {fn}({', '.join(gate.fanin)})")
    return "\n".join(lines) + "\n"
