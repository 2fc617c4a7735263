"""Closed-form CMOS delay model (eqs. 1-3 of the paper).

The model separates two quantities per gate and per output edge:

* the **output transition time** (eq. 2/3), linear in the fan-out ratio::

      tau_out = S_edge * tau * (C_L_total / C_IN)

  where ``S_edge`` is the cell symmetry factor (logical weight, P/N ratio
  and ``R`` folded together, eq. 3) and ``C_L_total`` includes the gate's
  own junction parasitic;

* the **switching delay** (eq. 1), which adds the input-slope contribution
  and the input-to-output coupling through ``C_M``::

      t = (v_T / 2) * tau_in + (1 + 2 C_M / (C_M + C_L)) * tau_out / 2

All capacitances are in fF and all times in ps.  The model is valid in the
*fast input control range* (input transition comparable to or faster than
the output transition); the optimizers keep sizings inside that regime by
construction (tapering factors stay moderate).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Tuple

from repro.cells.cell import Cell
from repro.process.technology import Technology


class Edge(Enum):
    """Signal edge polarity."""

    RISE = "rise"
    FALL = "fall"

    @property
    def flipped(self) -> "Edge":
        """The complementary edge."""
        return Edge.FALL if self is Edge.RISE else Edge.RISE

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def output_edge_for(cell: Cell, input_edge: Edge) -> Edge:
    """Edge polarity at the cell output for a given switching-input edge."""
    return input_edge.flipped if cell.inverting else input_edge


def output_transition_time(
    cell: Cell,
    tech: Technology,
    cin_ff: float,
    cload_total_ff: float,
    output_edge: Edge,
) -> float:
    """Output transition time (ps), eq. 2.

    ``cload_total_ff`` must already include the cell parasitic
    (:meth:`repro.cells.Cell.parasitic_cap`); the helper
    :func:`total_load` assembles it.
    """
    if cin_ff <= 0:
        raise ValueError(f"cin_ff must be positive, got {cin_ff}")
    if cload_total_ff < 0:
        raise ValueError("cload_total_ff must be non-negative")
    s = cell.s_hl(tech) if output_edge is Edge.FALL else cell.s_lh(tech)
    return s * tech.tau_ps * cload_total_ff / cin_ff


def total_load(cell: Cell, cin_ff: float, cload_ext_ff: float) -> float:
    """External load plus the cell's own junction parasitic (fF)."""
    return cell.parasitic_cap(cin_ff) + cload_ext_ff


def coupling_factor(cm_ff: float, cload_total_ff: float) -> float:
    """The Miller overshoot factor ``1 + 2 C_M / (C_M + C_L)`` of eq. 1."""
    if cm_ff < 0 or cload_total_ff < 0:
        raise ValueError("capacitances must be non-negative")
    denominator = cm_ff + cload_total_ff
    if denominator == 0:
        return 1.0
    return 1.0 + 2.0 * cm_ff / denominator


@dataclass(frozen=True)
class GateTiming:
    """Timing of one gate switching event.

    Attributes
    ----------
    delay_ps:
        50%-to-50% switching delay (eq. 1).
    tout_ps:
        Output transition time (eq. 2).
    output_edge:
        Polarity of the output event.
    """

    delay_ps: float
    tout_ps: float
    output_edge: Edge


class AffineArc(NamedTuple):
    """One eq. 1 gate arc bound at a fixed ``(size, load)``.

    Under eq. 1-3 a gate's output transition depends on its size and
    load but not on its input slope, so once those are fixed an input
    edge reduces to four numbers: the output polarity, the slope
    coefficient ``a = 0.5 * v_T``, the intercept
    ``b = 0.5 * coupling * tout`` and ``tout`` itself.  :meth:`at`
    evaluates ``a * tin + b`` -- the same two products and one sum, in
    the same order, as the closed form
    ``0.5 * v_T * tin + 0.5 * coupling * tout``, so a bound arc is bit
    for bit the scalar kernel.
    """

    output_edge: Edge
    a: float
    b: float
    tout_ps: float

    def at(self, tin_ps: float) -> Tuple[float, float]:
        """``(delay_ps, tout_ps)`` of the arc for an input transition."""
        return self.a * tin_ps + self.b, self.tout_ps


def bind_arc(
    cell: Cell,
    tech: Technology,
    cin_ff: float,
    cload_ext_ff: float,
    input_edge: Edge,
) -> AffineArc:
    """The eq. 1 arc of one gate input edge at a fixed drive and load.

    This is the one implementation of eq. 1-3: :func:`gate_delay` and
    every whole-circuit engine evaluate through it.  Raises
    ``ValueError`` for a non-positive drive or a negative total load,
    exactly as the per-arc kernel always did.
    """
    out_edge = output_edge_for(cell, input_edge)
    cl_total = total_load(cell, cin_ff, cload_ext_ff)
    tout = output_transition_time(cell, tech, cin_ff, cl_total, out_edge)
    cm = cell.coupling_cap(cin_ff, input_rising=input_edge is Edge.RISE)
    vt = tech.vtn_reduced if input_edge is Edge.RISE else tech.vtp_reduced
    b = 0.5 * coupling_factor(cm, cl_total) * tout
    return AffineArc(out_edge, 0.5 * vt, b, tout)


def gate_delay(
    cell: Cell,
    tech: Technology,
    cin_ff: float,
    cload_ext_ff: float,
    tin_ps: float,
    input_edge: Edge,
) -> GateTiming:
    """Full eq. 1 delay of one gate arc (a thin caller of :func:`bind_arc`).

    Parameters
    ----------
    cin_ff:
        Per-input capacitance of the switching input (the sizing variable).
    cload_ext_ff:
        External load at the output: fan-in capacitance of downstream
        gates plus any routing estimate.  The cell's own parasitic is
        added internally.
    tin_ps:
        Transition time of the switching input (output transition of the
        upstream gate).
    input_edge:
        Polarity of the switching input.
    """
    if tin_ps < 0:
        raise ValueError(f"tin_ps must be non-negative, got {tin_ps}")
    arc = bind_arc(cell, tech, cin_ff, cload_ext_ff, input_edge)
    delay, tout = arc.at(tin_ps)
    return GateTiming(delay_ps=delay, tout_ps=tout, output_edge=arc.output_edge)


def fanout_four_delay(cell: Cell, tech: Technology, cin_ff: float) -> float:
    """FO4-style figure of merit: delay driving four copies of itself.

    Convenience for library sanity checks and reporting; uses a step-like
    input (``tin = tout`` self-consistent single iteration).
    """
    first = gate_delay(cell, tech, cin_ff, 4.0 * cin_ff, 0.0, Edge.RISE)
    second = gate_delay(cell, tech, cin_ff, 4.0 * cin_ff, first.tout_ps, Edge.RISE)
    return second.delay_ps
