"""NLDM table-lookup delay backend over parsed Liberty libraries.

:class:`NldmBackend` implements the full
:class:`~repro.timing.backend.DelayBackend` surface from the stacked
tables of :class:`~repro.liberty.tables.NldmTables`:

* the **scalar** surface binds a gate's :class:`TableArc` arcs (table
  index, effective load, output edge) and bilinearly interpolates the cell's
  ``cell_rise``/``cell_fall`` (delay) and ``rise_transition``/
  ``fall_transition`` (output slew) tables at ``(input slew, effective
  load)``.  The load axis is electrical effort: a gate sized to ``cin``
  enters the table at ``load * cin_ref / cin``, where ``cin_ref`` is the
  input capacitance the cell was characterised at -- that is what lets
  one table serve a continuously sized gate;
* the **batch** surface (:class:`NldmBatchModel`) propagates one
  nominal column with per-level vectorized lookups, then scales every
  corner column by the global speed ratio ``tau_corner / tau_nominal``
  (``capabilities.exact_corners`` is ``False``: tables are
  characterised at one process point);
* the **probe** surface (:class:`NldmProbeModel`) evaluates
  ``(gate, column)`` pair groups for the cone-sparse engine, including
  the trial inverter-pair chaining through the library's INV tables.

Bit-exactness: all three surfaces share the interpolation kernels of
:mod:`repro.liberty.tables`, evaluated in one operation order, so the
four evaluators agree bit for bit *within* this backend.  Unlike the
analytic model, an NLDM output transition depends on the winning fan-in
arc's slew, so the group evaluation tracks the argmax winner; ``max``
ties resolve to the first slot, matching the scalar engine's
strict-``>`` first-wins selection over the same fan-in order.

No bit-level relationship with the analytic backend is promised, even
for a ``.lib`` exported *from* the analytic model: lookups between grid
nodes see bilinear interpolation error (exactly zero only where the
analytic quantity is itself linear in the table variables).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Tuple

import numpy as np

from repro.cells.cell import Cell
from repro.cells.gate_types import GateKind
from repro.cells.library import UnknownCellError
from repro.liberty.tables import NldmTables, interp_table, interp_table_stack
from repro.process.technology import Technology
from repro.timing.backend import (
    BackendCapabilities,
    BatchDelayModel,
    DelayBackend,
    ProbeDelayModel,
)
from repro.timing.delay_model import Edge, output_edge_for
from repro.timing.sta import gate_external_load

if TYPE_CHECKING:  # pragma: no cover - type names only
    from repro.mc.compile import CompiledCircuit
    from repro.mc.corners import CornerSamples
    from repro.timing.batch_probe import BatchProbeEngine


class TableArc(NamedTuple):
    """One NLDM gate arc bound at a fixed ``(cell, size, load)``.

    Binding fixes the cell's table index, the effective table load
    ``load * cin_ref / cin`` and the output edge; an NLDM output slew
    depends on the input slew, so :meth:`at` still interpolates both
    tables per input transition.
    """

    output_edge: Edge
    table_index: int
    l_eff: float
    tables: NldmTables

    def at(self, tin_ps: float) -> Tuple[float, float]:
        """Bilinear lookup of ``(delay_ps, tout_ps)`` at one input slew."""
        if tin_ps < 0:
            raise ValueError(f"tin_ps must be non-negative, got {tin_ps}")
        t = self.tables
        idx = self.table_index
        if self.output_edge is Edge.RISE:
            delay_table, tout_table = t.cell_rise[idx], t.rise_transition[idx]
        else:
            delay_table, tout_table = t.cell_fall[idx], t.fall_transition[idx]
        delay = interp_table(delay_table, t.slew_axis, t.load_axis, tin_ps, self.l_eff)
        tout = interp_table(tout_table, t.slew_axis, t.load_axis, tin_ps, self.l_eff)
        return float(delay), float(tout)


class NldmBackend(DelayBackend):
    """Table-lookup delay model over one :class:`NldmTables` set."""

    capabilities = BackendCapabilities(
        name="nldm", closed_form_bounds=False, exact_corners=False
    )

    def __init__(self, tables: NldmTables) -> None:
        self.tables = tables

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NldmBackend(cells={self.tables.n_cells}, digest={self.tables.digest[:8]})"

    def cache_token(self) -> Tuple:
        """Identity = the table content digest (axes, cin_ref, values)."""
        return ("nldm", self.tables.digest)

    def _cell_index(self, kind: GateKind) -> int:
        idx = self.tables.kind_index.get(kind)
        if idx is None:
            raise UnknownCellError(
                f"no NLDM tables for gate kind {kind!r} in this library"
            )
        return idx

    def bind_arc(
        self,
        cell: Cell,
        tech: Technology,
        cin_ff: float,
        cload_ext_ff: float,
        input_edge: Edge,
    ) -> TableArc:
        """Bind one table arc: cell index, effective load, output edge.

        Validation mirrors the analytic kernel so both backends reject
        the same ill-posed inputs with the same exception types.
        """
        if cin_ff <= 0:
            raise ValueError(f"cin_ff must be positive, got {cin_ff}")
        if cload_ext_ff < 0:
            raise ValueError("cload_ext_ff must be non-negative")
        t = self.tables
        idx = self._cell_index(cell.kind)
        out_edge = output_edge_for(cell, input_edge)
        l_eff = cload_ext_ff * (t.cin_ref[idx] / cin_ff)
        return TableArc(out_edge, idx, l_eff, t)

    def compile_model(self, compiled: "CompiledCircuit") -> BatchDelayModel:
        """Fold per-gate table selectors into a batch model."""
        return NldmBatchModel(self, compiled)

    def probe_model(self, engine: "BatchProbeEngine") -> ProbeDelayModel:
        """Pair-group evaluation sharing the compiled batch model's stacks."""
        return NldmProbeModel(self, engine)


class NldmBatchModel(BatchDelayModel):
    """Batch surface: vectorized table lookups over one nominal column.

    The constructor concatenates the rise/fall stacks into one
    ``(2 * n_cells, S, L)`` array per quantity and folds a per-gate
    *input-polarity* table selector: ``_ir_sel[g]`` picks the table of
    the output edge a rising input produces at gate ``g`` (``cell_fall``
    for inverting cells), ``_if_sel`` the falling-input twin.  That
    turns the level loop into two gather-interpolate-max sweeps, one per
    input polarity, mirroring the analytic kernel's ``b_rise``/
    ``b_fall`` split.

    Corners: one nominal column is propagated exactly, then every
    corner column is the nominal value scaled by
    ``tau_corner / tau_nominal`` -- exact at the nominal corner (scale
    is exactly ``1.0``), a first-order global-speed approximation
    elsewhere (``exact_corners=False``).
    """

    def __init__(self, backend: NldmBackend, compiled: "CompiledCircuit") -> None:
        self._backend = backend
        t = backend.tables
        idx = np.empty(len(compiled.cells), dtype=np.intp)
        for gate_id, cell in enumerate(compiled.cells):
            idx[gate_id] = backend._cell_index(cell.kind)
        self._idx = idx
        n = t.n_cells
        # Output-edge table stacks: rows [0, n) are the rise tables,
        # rows [n, 2n) the fall tables of the same cell.
        self._delay_stack = np.concatenate([t.cell_rise, t.cell_fall])
        self._tran_stack = np.concatenate([t.rise_transition, t.fall_transition])
        inv = compiled.inverting
        self._ir_sel = np.where(inv, idx + n, idx)
        self._if_sel = np.where(inv, idx, idx + n)
        self._cin_ref = t.cin_ref[idx]

    def bind(self, compiled: "CompiledCircuit") -> None:
        """Refresh the effective table loads of the bound sizing.

        Same operation order as the scalar kernel's
        ``cload_ext_ff * (cin_ref / cin_ff)``, elementwise.
        """
        self._l_eff = compiled.load * (self._cin_ref / compiled.cin)

    def propagate(
        self,
        compiled: "CompiledCircuit",
        corners: "CornerSamples",
        time_rise: np.ndarray,
        time_fall: np.ndarray,
        tran_rise: np.ndarray,
        tran_fall: np.ndarray,
    ) -> None:
        """One exact nominal propagation, then the tau-ratio corner scale."""
        t = self._backend.tables
        sax = t.slew_axis
        lax = t.load_axis
        n_in = compiled.n_inputs
        n_nets = compiled.n_nets
        neg_inf = -np.inf

        t_r = np.empty(n_nets)
        t_f = np.empty(n_nets)
        x_r = np.empty(n_nets)
        x_f = np.empty(n_nets)
        t_r[:n_in] = 0.0
        t_f[:n_in] = 0.0
        x_r[:n_in] = compiled.input_transition_ps
        x_f[:n_in] = compiled.input_transition_ps

        for start, end in compiled.levels:
            rows = compiled.fanin_rows[start:end]
            mask = compiled.fanin_mask[start:end]
            le = self._l_eff[start:end]
            ir_sel = self._ir_sel[start:end]
            if_sel = self._if_sel[start:end]
            pi = np.arange(end - start)

            # Rising-input arcs: delay lookup per (gate, fan-in slot),
            # candidate arrival, first-max winner, winner's output slew.
            slew = x_r[rows]
            d = interp_table_stack(
                self._delay_stack, ir_sel[:, None], sax, lax, slew, le[:, None]
            )
            cand = np.where(mask, t_r[rows] + d, neg_inf)
            m_ir = np.max(cand, axis=1)
            win = np.argmax(cand, axis=1)
            tr_ir = interp_table_stack(
                self._tran_stack, ir_sel, sax, lax, slew[pi, win], le
            )

            # Falling-input arcs.
            slew = x_f[rows]
            d = interp_table_stack(
                self._delay_stack, if_sel[:, None], sax, lax, slew, le[:, None]
            )
            cand = np.where(mask, t_f[rows] + d, neg_inf)
            m_if = np.max(cand, axis=1)
            win = np.argmax(cand, axis=1)
            tr_if = interp_table_stack(
                self._tran_stack, if_sel, sax, lax, slew[pi, win], le
            )

            inv = compiled.inverting[start:end]
            out = slice(n_in + start, n_in + end)
            t_r[out] = np.where(inv, m_if, m_ir)
            t_f[out] = np.where(inv, m_ir, m_if)
            x_r[out] = np.where(inv, tr_if, tr_ir)
            x_f[out] = np.where(inv, tr_ir, tr_if)

        scale = corners.tau_ps / compiled.library.tech.tau_ps
        time_rise[:] = t_r[:, None] * scale[None, :]
        time_fall[:] = t_f[:, None] * scale[None, :]
        tran_rise[:] = x_r[:, None] * scale[None, :]
        tran_fall[:] = x_f[:, None] * scale[None, :]


class NldmProbeModel(ProbeDelayModel):
    """Probe surface: per-pair table lookups for the cone-sparse engine.

    Shares the table stacks and selectors of the engine's compiled
    :class:`NldmBatchModel` (the engine's base annotation is that
    model's nominal column, so served base cells and recomputed cells
    agree bit for bit).  The only per-pair parameter is the effective
    table load; delays are looked up per ``(pair, fan-in slot)`` and the
    winning arc's slew drives the output-transition lookup.
    """

    def __init__(self, backend: NldmBackend, engine: "BatchProbeEngine") -> None:
        self._backend = backend
        self._engine = engine
        model = engine.compiled.model
        if not isinstance(model, NldmBatchModel):  # pragma: no cover - guard
            raise TypeError("engine compiled under a different backend")
        self._batch = model

    def bind(self, engine: "BatchProbeEngine") -> None:
        """Nothing beyond the batch model's ``bind`` (shared ``l_eff``)."""

    def chunk_params(
        self,
        pair_g: np.ndarray,
        over_pos: np.ndarray,
        over_cin: np.ndarray,
        over_load: np.ndarray,
    ) -> Tuple[np.ndarray, ...]:
        """Effective table load per pair, overrides scattered in."""
        batch = self._batch
        l_eff = batch._l_eff[pair_g].copy()
        l_eff[over_pos] = over_load * (batch._cin_ref[pair_g[over_pos]] / over_cin)
        return (l_eff,)

    def eval_group(
        self,
        params: Tuple[np.ndarray, ...],
        gs: int,
        ge: int,
        g: np.ndarray,
        rows: np.ndarray,
        mask: np.ndarray,
        cc: np.ndarray,
        time_rise: np.ndarray,
        time_fall: np.ndarray,
        tran_rise: np.ndarray,
        tran_fall: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Table-lookup arrivals of one level group of pairs."""
        batch = self._batch
        t = self._backend.tables
        sax = t.slew_axis
        lax = t.load_axis
        (l_eff,) = params
        le = l_eff[gs:ge]
        ir_sel = batch._ir_sel[g]
        if_sel = batch._if_sel[g]
        neg_inf = -np.inf
        pi = np.arange(ge - gs)

        slew = tran_rise[rows, cc]
        d = interp_table_stack(
            batch._delay_stack, ir_sel[:, None], sax, lax, slew, le[:, None]
        )
        cand = np.where(mask, time_rise[rows, cc] + d, neg_inf)
        m_ir = np.max(cand, axis=1)
        win = np.argmax(cand, axis=1)
        tr_ir = interp_table_stack(
            batch._tran_stack, ir_sel, sax, lax, slew[pi, win], le
        )

        slew = tran_fall[rows, cc]
        d = interp_table_stack(
            batch._delay_stack, if_sel[:, None], sax, lax, slew, le[:, None]
        )
        cand = np.where(mask, time_fall[rows, cc] + d, neg_inf)
        m_if = np.max(cand, axis=1)
        win = np.argmax(cand, axis=1)
        tr_if = interp_table_stack(
            batch._tran_stack, if_sel, sax, lax, slew[pi, win], le
        )

        inv = self._engine.compiled.inverting[g]
        t_rise = np.where(inv, m_if, m_ir)
        t_fall = np.where(inv, m_ir, m_if)
        tr_rise = np.where(inv, tr_if, tr_ir)
        tr_fall = np.where(inv, tr_ir, tr_if)
        return t_rise, t_fall, tr_rise, tr_fall

    def pair_constants(self, pair_cin: float) -> Tuple:
        """Column-independent terms of the trial pair's first inverter."""
        engine = self._engine
        t = self._backend.tables
        inv_idx = self._backend._cell_index(GateKind.INV)
        load_a = gate_external_load(
            ("__bufb__",),
            {"__bufb__": pair_cin},
            False,
            engine.compiled.output_load_ff,
            engine.compiled.wire_model,
        )
        cin_ref_inv = t.cin_ref[inv_idx]
        l_eff_a = load_a * (cin_ref_inv / pair_cin)
        return (pair_cin, inv_idx, l_eff_a, cin_ref_inv)

    def through_pair(
        self,
        consts: Tuple,
        t_rise_g: np.ndarray,
        t_fall_g: np.ndarray,
        tr_rise_g: np.ndarray,
        tr_fall_g: np.ndarray,
        load_b: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Chain a candidate's output through both trial INV tables.

        Each inverter has a single fan-in, so the per-edge reduction
        degenerates to the lone candidate: four lookups per inverter
        (delay and transition, per polarity), in the scalar engine's
        operation order on the rewired netlist.
        """
        pair_cin, inv_idx, l_eff_a, cin_ref_inv = consts
        t = self._backend.tables
        sax = t.slew_axis
        lax = t.load_axis
        d_rise = t.cell_rise[inv_idx]
        d_fall = t.cell_fall[inv_idx]
        x_rise = t.rise_transition[inv_idx]
        x_fall = t.fall_transition[inv_idx]

        # First inverter: rising input -> falling output and vice versa.
        t_fall_a = t_rise_g + interp_table(d_fall, sax, lax, tr_rise_g, l_eff_a)
        t_rise_a = t_fall_g + interp_table(d_rise, sax, lax, tr_fall_g, l_eff_a)
        x_fall_a = interp_table(x_fall, sax, lax, tr_rise_g, l_eff_a)
        x_rise_a = interp_table(x_rise, sax, lax, tr_fall_g, l_eff_a)

        # Second inverter: per-column load (the candidate's old sinks).
        l_eff_b = load_b * (cin_ref_inv / pair_cin)
        t_fall_b = t_rise_a + interp_table(d_fall, sax, lax, x_rise_a, l_eff_b)
        t_rise_b = t_fall_a + interp_table(d_rise, sax, lax, x_fall_a, l_eff_b)
        x_fall_b = interp_table(x_fall, sax, lax, x_rise_a, l_eff_b)
        x_rise_b = interp_table(x_rise, sax, lax, x_fall_a, l_eff_b)
        return t_rise_b, t_fall_b, x_rise_b, x_fall_b
