"""Pluggable delay-model backends: the seam under every evaluator.

The repo's four bit-exact evaluators -- the scalar
:func:`~repro.timing.sta.analyze`, the warm
:class:`~repro.timing.incremental.IncrementalSta`, the Monte-Carlo batch
kernel (:func:`repro.mc.kernel.batch_analyze`) and the cone-sparse
:class:`~repro.timing.batch_probe.BatchProbeEngine` -- historically
hard-wired the paper's analytic eq. 1-3 model.  A
:class:`DelayBackend` lifts that model behind an interface with three
surfaces:

* **scalar** -- :meth:`DelayBackend.bind_arc`, which binds one gate
  input-edge arc at a fixed ``(cell, size, load)``.  The dict-walking
  engines (STA propagation, incremental STA, K-path extraction) bind a
  gate's two arcs (:meth:`DelayBackend.bind_arcs`) once per size/load
  change and evaluate them per input transition;
  :meth:`DelayBackend.gate_timing`, the single-arc kernel of generic
  path evaluation, binds and evaluates one arc;
* **batch** -- :meth:`DelayBackend.compile_model`, a per-compilation
  :class:`BatchDelayModel` that folds per-gate constants into
  :class:`~repro.mc.compile.CompiledCircuit` arrays and propagates whole
  levels over ``(gates, corners)`` arrays;
* **probe** -- :meth:`DelayBackend.probe_model`, a
  :class:`ProbeDelayModel` evaluating ``(gate, column)`` pair groups for
  the cone-sparse candidate engine.

Capabilities (:class:`BackendCapabilities`) tell the optimizer stack
what a backend can promise: ``closed_form_bounds`` gates the eq. 4/6
closed forms in :mod:`repro.sizing.bounds` (table backends fall back to
a numeric warm-started bisection), ``exact_corners`` records whether
Monte-Carlo corners are evaluated exactly (analytic) or by a global
speed-scale approximation (tables).

Bit-exactness contract
----------------------
Within one backend, all four evaluators agree bit for bit: every
implementation must evaluate the same arithmetic in the same operation
order on its scalar, batch and probe surfaces.  *Across* backends no
bit-level relationship is promised -- an NLDM table characterised from
the analytic model agrees only to interpolation accuracy.  The
:class:`AnalyticBackend` delegates straight to
:func:`~repro.timing.delay_model.bind_arc` and to the pre-existing
batch kernels, so refactoring the consumers through this seam changed
no float anywhere (pinned by the equivalence ladder in
``tests/test_mc.py`` / ``tests/test_batch_probe.py`` /
``tests/test_backend_parity.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Tuple

import numpy as np

from repro.cells.cell import Cell
from repro.process.technology import Technology
from repro.timing.delay_model import Edge, GateTiming, bind_arc

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free type names
    from repro.mc.compile import CompiledCircuit
    from repro.mc.corners import CornerSamples
    from repro.timing.batch_probe import BatchProbeEngine


class BoundArc(Protocol):
    """One gate arc bound at a fixed ``(cell, size, load)``.

    ``output_edge`` is the polarity the arc drives; :meth:`at` times the
    arc for one input transition.  Bound arcs are immutable values: an
    engine replaces a gate's arcs when its size or load changes, never
    edits them.
    """

    @property
    def output_edge(self) -> Edge:
        """Polarity of the output event."""

    def at(self, tin_ps: float) -> Tuple[float, float]:
        """``(delay_ps, tout_ps)`` for an input transition of ``tin_ps``."""


#: A gate's bound arcs, ``(rising-input arc, falling-input arc)``:
#: index with ``input_edge is Edge.FALL``.
GateArcs = Tuple[BoundArc, BoundArc]


@dataclass(frozen=True)
class BackendCapabilities:
    """What one delay backend can promise to the optimizer stack.

    Attributes
    ----------
    name:
        Stable identifier (``"analytic"``, ``"nldm"``); the CLI/Job
        backend spec and the cache-key token lead with it.
    closed_form_bounds:
        Whether the eq. 4/6 closed-form link equations are exact for
        this backend.  When ``False``, :mod:`repro.sizing.bounds`
        replaces each Gauss-Seidel link update with a numeric
        bisection on the windowed delay derivative.
    exact_corners:
        Whether Monte-Carlo corner batches are evaluated under the
        exact per-corner model.  Table backends approximate a corner
        as a global ``tau``-ratio time scale instead.
    """

    name: str
    closed_form_bounds: bool
    exact_corners: bool


class BatchDelayModel(ABC):
    """Per-compilation batch surface of one backend.

    Created once per :class:`~repro.mc.compile.CompiledCircuit` by
    :meth:`DelayBackend.compile_model`; the constructor folds the
    structure-only per-gate constants (from ``compiled.cells``) into
    arrays, :meth:`bind` refreshes the sizing-dependent ones, and
    :meth:`propagate` runs the level loop of
    :func:`~repro.mc.kernel.batch_analyze` in place.
    """

    @abstractmethod
    def bind(self, compiled: "CompiledCircuit") -> None:
        """Refresh sizing-dependent per-gate arrays after a re-bind."""

    @abstractmethod
    def propagate(
        self,
        compiled: "CompiledCircuit",
        corners: "CornerSamples",
        time_rise: np.ndarray,
        time_fall: np.ndarray,
        tran_rise: np.ndarray,
        tran_fall: np.ndarray,
    ) -> None:
        """Fill the gate rows of the ``(n_nets, n_samples)`` arrays.

        Input rows are pre-seeded by the caller; the model must leave
        them untouched (or rescale them consistently with its corner
        model) and write every gate row.
        """


class ProbeDelayModel(ABC):
    """Per-engine probe surface of one backend.

    Created by :meth:`DelayBackend.probe_model` for one
    :class:`~repro.timing.batch_probe.BatchProbeEngine`.  The engine
    keeps the backend-independent machinery (cones, column schedule,
    chunking, the dense base backing); the model owns every eq. 1-3
    (or table-lookup) float: per-pair parameters, the per-level group
    evaluation, and the trial buffer-pair chaining.
    """

    @abstractmethod
    def bind(self, engine: "BatchProbeEngine") -> None:
        """Capture the per-gate base parameters of the bound sizing."""

    @abstractmethod
    def chunk_params(
        self,
        pair_g: np.ndarray,
        over_pos: np.ndarray,
        over_cin: np.ndarray,
        over_load: np.ndarray,
    ) -> Tuple[np.ndarray, ...]:
        """Per-pair parameter arrays for one chunk's flat schedule.

        Base values are gathered at ``pair_g`` and the overridden
        ``(cin, load)`` pairs are scattered at ``over_pos``.  Every
        returned array is 1-D over pairs, so the engine can re-order
        all of them with the level argsort generically.
        """

    @abstractmethod
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
        """Arrivals/transitions of one level group of ``(gate, column)`` pairs.

        Returns ``(t_rise, t_fall, tr_rise, tr_fall)`` for pairs
        ``gs:ge`` (already polarity-swapped for inverting cells); the
        engine scatters them onto the chunk backing.
        """

    @abstractmethod
    def pair_constants(self, pair_cin: float) -> Tuple:
        """Column-independent terms of a trial pair's first inverter."""

    @abstractmethod
    def through_pair(
        self,
        consts: Tuple,
        t_rise_g: np.ndarray,
        t_fall_g: np.ndarray,
        tr_rise_g: np.ndarray,
        tr_fall_g: np.ndarray,
        load_b: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Chain a candidate's output through both trial inverters."""


class DelayBackend(ABC):
    """A pluggable gate-delay model.

    Implementations must keep their scalar, batch and probe surfaces
    bit-identical to each other (see the module docstring); the
    analytic reference lives here, the NLDM table backend in
    :mod:`repro.liberty.nldm`.
    """

    capabilities: BackendCapabilities

    @abstractmethod
    def cache_token(self) -> Tuple:
        """Hashable identity folded into every timing cache key.

        Two backends whose tokens differ must never alias a cached
        timing artefact; table backends fold a content digest in.
        """

    @abstractmethod
    def bind_arc(
        self,
        cell: Cell,
        tech: Technology,
        cin_ff: float,
        cload_ext_ff: float,
        input_edge: Edge,
    ) -> BoundArc:
        """Bind one gate input-edge arc at a fixed size and load.

        Everything that does not depend on the input transition is
        evaluated here, once; :meth:`BoundArc.at` then times the arc per
        input slope in the same operation order as a one-shot
        evaluation, so binding never moves a float.  Raises
        ``ValueError`` for a non-positive drive or a negative load.
        """

    def bind_arcs(
        self, cell: Cell, tech: Technology, cin_ff: float, cload_ext_ff: float
    ) -> GateArcs:
        """Both input-edge arcs of one gate: ``(rising, falling)``."""
        return (
            self.bind_arc(cell, tech, cin_ff, cload_ext_ff, Edge.RISE),
            self.bind_arc(cell, tech, cin_ff, cload_ext_ff, Edge.FALL),
        )

    def gate_timing(
        self,
        cell: Cell,
        tech: Technology,
        cin_ff: float,
        cload_ext_ff: float,
        tin_ps: float,
        input_edge: Edge,
    ) -> GateTiming:
        """Delay/transition of one gate arc (a thin caller of :meth:`bind_arc`)."""
        if tin_ps < 0:
            raise ValueError(f"tin_ps must be non-negative, got {tin_ps}")
        arc = self.bind_arc(cell, tech, cin_ff, cload_ext_ff, input_edge)
        delay, tout = arc.at(tin_ps)
        return GateTiming(delay_ps=delay, tout_ps=tout, output_edge=arc.output_edge)

    @abstractmethod
    def compile_model(self, compiled: "CompiledCircuit") -> BatchDelayModel:
        """Build the batch surface for one compiled structure."""

    @abstractmethod
    def probe_model(self, engine: "BatchProbeEngine") -> ProbeDelayModel:
        """Build the probe surface for one batch-probe engine."""


class AnalyticBackend(DelayBackend):
    """The paper's closed-form eq. 1-3 model behind the backend seam.

    Every surface delegates to the pre-existing kernels --
    :func:`~repro.timing.delay_model.bind_arc`, the mc level loop,
    the batch-probe pair math -- so the analytic stack through the seam
    is bit-identical to the pre-seam code, float for float.
    """

    capabilities = BackendCapabilities(
        name="analytic", closed_form_bounds=True, exact_corners=True
    )

    def cache_token(self) -> Tuple:
        """The analytic model is fully determined by (tech, cells)."""
        return ("analytic",)

    def bind_arc(
        self,
        cell: Cell,
        tech: Technology,
        cin_ff: float,
        cload_ext_ff: float,
        input_edge: Edge,
    ) -> BoundArc:
        """Eq. 1 arc via :func:`~repro.timing.delay_model.bind_arc`."""
        return bind_arc(cell, tech, cin_ff, cload_ext_ff, input_edge)

    def compile_model(self, compiled: "CompiledCircuit") -> BatchDelayModel:
        """The mc kernel's analytic level loop (lazy import: no cycle)."""
        from repro.mc.kernel import AnalyticBatchModel

        return AnalyticBatchModel(compiled)

    def probe_model(self, engine: "BatchProbeEngine") -> ProbeDelayModel:
        """The batch-probe analytic pair math (lazy import: no cycle)."""
        from repro.timing.batch_probe import AnalyticProbeModel

        return AnalyticProbeModel(engine)


#: The shared analytic backend instance: libraries built without an
#: explicit backend resolve to this singleton, so identity checks and
#: cache tokens stay stable across all default libraries.
ANALYTIC_BACKEND = AnalyticBackend()


def backend_fo4(
    cell: Cell, tech: Technology, cin_ff: float, backend: DelayBackend
) -> float:
    """FO4-style figure of merit through an arbitrary backend.

    The backend-generic twin of
    :func:`~repro.timing.delay_model.fanout_four_delay` (same two-call
    self-consistent structure, so the analytic backend reproduces it
    exactly); the ``pops lib`` report uses it to put analytic and NLDM
    figures side by side.
    """
    first = backend.gate_timing(cell, tech, cin_ff, 4.0 * cin_ff, 0.0, Edge.RISE)
    second = backend.gate_timing(
        cell, tech, cin_ff, 4.0 * cin_ff, first.tout_ps, Edge.RISE
    )
    return second.delay_ps
