"""Characterised standard cell: electrical view of a gate kind.

A :class:`Cell` carries everything the closed-form delay model (eqs. 1-3 of
the paper) needs about one gate type:

* ``k_ratio`` -- the P/N configuration ratio ``k``;
* ``dw_hl`` / ``dw_lh`` -- the *logical weights* ``DW`` of eq. 3, defined as
  the ratio of the current available in an inverter to that of the gate's
  serial transistor array, per output edge;
* ``p_intrinsic`` -- the self-loading coefficient: the output parasitic
  (junction) capacitance is ``C_par = p_intrinsic * C_IN``;
* stack heights, used by the transistor-level reference simulator.

Sizing works directly on the per-input capacitance ``C_IN``; widths and
areas are derived views (``sum W`` is the paper's area/power metric).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cells.gate_types import GateKind, is_inverting, num_inputs
from repro.process.technology import Technology


@dataclass(frozen=True)
class Cell:
    """Electrical characterisation of one gate kind.

    Attributes
    ----------
    kind:
        The logic primitive this cell implements.
    k_ratio:
        P/N width ratio ``k`` (eq. 3).
    dw_hl:
        Logical weight of the falling output edge (N pull-down array).
    dw_lh:
        Logical weight of the rising output edge (P pull-up array).
    p_intrinsic:
        Output parasitic capacitance per unit of input capacitance.
    area_factor:
        Total transistor width per input, in units of ``C_IN / c_gate``.
        1.0 for single-stage primitives; composites (BUF, AND, OR, XOR)
        carry their internal stage.
    stack_n / stack_p:
        Series transistor counts of the pull-down / pull-up networks
        (transistor-level simulator view).
    cin_min_ff:
        Optional explicit minimum drive (fF).  Cells imported from a
        Liberty library carry the characterised pin capacitance here;
        ``None`` derives the floor from the technology's minimum width
        exactly as before.
    """

    kind: GateKind
    k_ratio: float
    dw_hl: float
    dw_lh: float
    p_intrinsic: float
    area_factor: float = 1.0
    stack_n: int = 1
    stack_p: int = 1
    cin_min_ff: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cin_min_ff is not None and self.cin_min_ff <= 0:
            raise ValueError("cin_min_ff must be positive when given")
        if self.k_ratio <= 0:
            raise ValueError(f"k_ratio must be positive, got {self.k_ratio}")
        if self.dw_hl < 1.0 or self.dw_lh < 1.0:
            raise ValueError(
                f"logical weights must be >= 1 (inverter reference), "
                f"got dw_hl={self.dw_hl}, dw_lh={self.dw_lh}"
            )
        if self.p_intrinsic < 0:
            raise ValueError("p_intrinsic must be non-negative")
        if self.area_factor <= 0:
            raise ValueError("area_factor must be positive")
        if self.stack_n < 1 or self.stack_p < 1:
            raise ValueError("stack heights must be >= 1")

    @property
    def name(self) -> str:
        """Library name of the cell (the gate kind value)."""
        return self.kind.value

    @property
    def n_inputs(self) -> int:
        """Logic fan-in."""
        return num_inputs(self.kind)

    @property
    def inverting(self) -> bool:
        """Whether the cell inverts edge polarity."""
        return is_inverting(self.kind)

    def s_hl(self, tech: Technology) -> float:
        """Symmetry factor of the falling output edge (eq. 3).

        ``S_HL = DW_HL * (1 + k) / 2``: for a fixed input capacitance,
        widening P (larger ``k``) starves the N device of width, and a
        serial N array divides the discharge current by ``DW_HL``.
        """
        return self.dw_hl * (1.0 + self.k_ratio) / 2.0

    def s_lh(self, tech: Technology) -> float:
        """Symmetry factor of the rising output edge (eq. 3).

        ``S_LH = DW_LH * (R / k) * (1 + k) / 2``: the pull-up current is
        ``R`` times weaker per micron and scales with the P share
        ``k / (1 + k)`` of the input capacitance.
        """
        return self.dw_lh * (tech.r_ratio / self.k_ratio) * (1.0 + self.k_ratio) / 2.0

    def coupling_cap(self, cin_ff: float, input_rising: bool) -> float:
        """Input-output coupling capacitance ``C_M`` (eq. 1).

        Half the input capacitance of the P (N) transistor for a rising
        (falling) input edge, following the paper's prescription.
        """
        if cin_ff < 0:
            raise ValueError("cin_ff must be non-negative")
        if input_rising:
            return 0.5 * cin_ff * self.k_ratio / (1.0 + self.k_ratio)
        return 0.5 * cin_ff / (1.0 + self.k_ratio)

    def parasitic_cap(self, cin_ff: float) -> float:
        """Output junction capacitance ``C_par`` for a drive of ``cin_ff``."""
        if cin_ff < 0:
            raise ValueError("cin_ff must be non-negative")
        return self.p_intrinsic * cin_ff

    def cin_min(self, tech: Technology) -> float:
        """Minimum available drive: per-input C_IN at minimum widths (fF).

        Cached per instance (netlist-level sizing and path stage-table
        construction ask for it per gate); the stored technology reference
        pins the key's identity, so the slot can never serve a value for
        a recycled technology object.
        """
        entry = self.__dict__.get("_cin_min_entry")
        if entry is not None and entry[0] is tech:
            return entry[1]
        if self.cin_min_ff is not None:
            value = self.cin_min_ff
        else:
            value = tech.cin_for_width(tech.w_min_um * (1.0 + self.k_ratio))
        object.__setattr__(self, "_cin_min_entry", (tech, value))
        return value

    def total_width_um(self, cin_ff: float, tech: Technology) -> float:
        """Total transistor width (um) of the gate at drive ``cin_ff``.

        Every input presents ``cin_ff``, so the device width scales with
        the fan-in; ``area_factor`` folds in internal stages of composite
        cells.  This is the per-gate contribution to the paper's ``sum W``.
        """
        return self.area_factor * self.n_inputs * tech.width_for_cin(cin_ff)

    def wn_wp_um(self, cin_ff: float, tech: Technology) -> tuple:
        """(W_N, W_P) in um of the devices tied to one input."""
        w_total = tech.width_for_cin(cin_ff)
        wn = w_total / (1.0 + self.k_ratio)
        return wn, self.k_ratio * wn
