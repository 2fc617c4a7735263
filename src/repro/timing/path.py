"""Bounded combinational path: the unit of optimization in the paper.

A *bounded* path (section 2.2) is a chain of gates where

* the **first gate's input capacitance is fixed** -- it is the load budget
  granted by the latch or primary input that drives the path, and
* the **terminal load is fixed** -- the input capacitance of the latches /
  gates the path drives.

Only the interior gate input capacitances are free.  Under the eq. 1-3
model the path delay is then a convex function of those sizes, which is
what makes the eq. 4 link equations a *global* optimum condition.

Side (off-path) fan-out at each stage output is carried as a fixed
capacitance ``cside_ff`` -- the standard single-path abstraction; the
circuit-level driver re-extracts paths after each change.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.cell import Cell
from repro.cells.gate_types import GateKind
from repro.cells.library import Library
from repro.timing.delay_model import Edge


@dataclass(frozen=True)
class PathStage:
    """One gate position on a bounded path.

    Attributes
    ----------
    cell:
        The characterised cell occupying this position.
    cside_ff:
        Fixed off-path capacitance hanging at this stage's output (side
        fan-in of other paths, routing estimate).
    name:
        Optional instance name, kept when the path was extracted from a
        circuit so results can be written back.
    """

    cell: Cell
    cside_ff: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.cside_ff < 0:
            raise ValueError(f"cside_ff must be non-negative, got {self.cside_ff}")


@dataclass(frozen=True)
class BoundedPath:
    """An ordered chain of stages with fixed boundary conditions.

    Attributes
    ----------
    stages:
        Gate chain, input side first.
    cin_first_ff:
        Fixed input capacitance of the first gate (latch load budget).
    cterm_ff:
        Fixed terminal load (fF) at the last stage output.
    input_edge:
        Polarity of the switching event entering the path.
    tin_first_ps:
        Transition time of the path input signal.
    """

    stages: Tuple[PathStage, ...]
    cin_first_ff: float
    cterm_ff: float
    input_edge: Edge = Edge.RISE
    tin_first_ps: float = 0.0

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a path needs at least one stage")
        if self.cin_first_ff <= 0:
            raise ValueError("cin_first_ff must be positive")
        if self.cterm_ff < 0:
            raise ValueError("cterm_ff must be non-negative")
        if self.tin_first_ps < 0:
            raise ValueError("tin_first_ps must be non-negative")

    def __len__(self) -> int:
        return len(self.stages)

    @property
    def cells(self) -> Tuple[Cell, ...]:
        """The cells along the path, input side first."""
        return tuple(stage.cell for stage in self.stages)

    @property
    def kinds(self) -> Tuple[GateKind, ...]:
        """The gate kinds along the path."""
        return tuple(stage.cell.kind for stage in self.stages)

    def fingerprint(self) -> Tuple:
        """Hashable identity of everything the sizing machinery reads.

        Two paths with equal fingerprints are interchangeable inputs to
        every pure path function (delay evaluation, the eq. 4 bounds,
        constraint distribution): same cell kinds, side loads, boundary
        conditions and polarity.  Stage names ride along so memo keys
        stay scoped to the netlist gates they came from.
        """
        return (
            tuple(
                (stage.cell.kind, stage.cside_ff, stage.name)
                for stage in self.stages
            ),
            self.cin_first_ff,
            self.cterm_ff,
            self.input_edge,
            self.tin_first_ps,
        )

    def edge_at(self, index: int) -> Edge:
        """Polarity of the switching input of stage ``index``."""
        edge = self.input_edge
        for stage in self.stages[:index]:
            if stage.cell.inverting:
                edge = edge.flipped
        return edge

    def min_sizes(self, library: Library) -> np.ndarray:
        """Minimum-drive sizing vector (stage 0 pinned to ``cin_first_ff``)."""
        from repro.timing.evaluation import _constants, _min_list

        return np.array(_min_list(self, _constants(self, library.tech)))

    def clamp_sizes(self, sizes: Sequence[float], library: Library) -> np.ndarray:
        """Project a sizing vector onto the feasible box.

        Pins the first stage, and clamps every interior stage to its
        minimum available drive.
        """
        from repro.timing.evaluation import _clamp_list, _constants

        arr = np.asarray(sizes, dtype=float)
        if arr.shape != (len(self.stages),):
            raise ValueError(
                f"expected {len(self.stages)} sizes, got shape {arr.shape}"
            )
        k = _constants(self, library.tech)
        return np.array(_clamp_list(self, k, arr.tolist()))

    def with_stage_inserted(self, index: int, stage: PathStage) -> "BoundedPath":
        """A new path with ``stage`` inserted before position ``index``."""
        if not 0 <= index <= len(self.stages):
            raise ValueError(f"index {index} out of range")
        stages = self.stages[:index] + (stage,) + self.stages[index:]
        return replace(self, stages=stages)

    def with_stage_replaced(self, index: int, stage: PathStage) -> "BoundedPath":
        """A new path with position ``index`` substituted by ``stage``."""
        if not 0 <= index < len(self.stages):
            raise ValueError(f"index {index} out of range")
        stages = self.stages[:index] + (stage,) + self.stages[index + 1 :]
        return replace(self, stages=stages)

    def with_terminal_load(self, cterm_ff: float) -> "BoundedPath":
        """A new path with a different terminal load."""
        return replace(self, cterm_ff=cterm_ff)


def make_path(
    kinds: Iterable[GateKind],
    library: Library,
    cin_first_ff: Optional[float] = None,
    cterm_ff: Optional[float] = None,
    cside_ff: Optional[Sequence[float]] = None,
    input_edge: Edge = Edge.RISE,
    tin_first_ps: float = 0.0,
) -> BoundedPath:
    """Build a bounded path from a sequence of gate kinds.

    Defaults chosen for experiment ergonomics: the first drive defaults to
    twice ``CREF`` (a small latch budget) and the terminal load to
    ``8 * CREF`` (a register bank input) -- both overridable.
    """
    kind_list: List[GateKind] = list(kinds)
    if not kind_list:
        raise ValueError("kinds must be non-empty")
    cref = library.cref
    if cin_first_ff is None:
        cin_first_ff = 2.0 * cref
    if cterm_ff is None:
        cterm_ff = 8.0 * cref
    if cside_ff is None:
        side = [0.0] * len(kind_list)
    else:
        side = list(cside_ff)
        if len(side) != len(kind_list):
            raise ValueError("cside_ff must match the number of stages")
    stages = tuple(
        PathStage(cell=library.cell(kind), cside_ff=s, name=f"g{i}")
        for i, (kind, s) in enumerate(zip(kind_list, side))
    )
    return BoundedPath(
        stages=stages,
        cin_first_ff=cin_first_ff,
        cterm_ff=cterm_ff,
        input_edge=input_edge,
        tin_first_ps=tin_first_ps,
    )
