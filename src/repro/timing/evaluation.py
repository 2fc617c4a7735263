"""Path delay evaluation, analytic coefficients and gradients.

This module turns a :class:`~repro.timing.path.BoundedPath` plus a sizing
vector into the quantities every optimizer consumes:

* the total path delay and per-stage breakdown (:func:`evaluate_path`);
* the *effective* eq. 4 coefficients ``A_i`` (:func:`effective_a_coeffs`),
  i.e. the weight of the ``load / C_IN`` term of each stage once the
  slope contribution to the *next* stage and the coupling factor are
  folded in;
* the exact gradient ``dT/dC_IN`` (:func:`delay_gradient`) -- closed-form,
  O(n), including the Miller-factor derivatives the eq. 4 surrogate
  drops; a central-difference fallback
  (:func:`delay_gradient_numeric`) cross-checks it in the tests;
* the area metric ``sum W`` (:func:`path_area_um`).

Because the optimizers evaluate paths tens of thousands of times, the
per-stage model constants (symmetry factors, thresholds, coupling and
parasitic coefficients, minimum drives -- all functions of the
*structure*, not the sizing) are computed once per (path, technology)
pair and cached as tuples of Python floats.  The analytic kernels
(``_delay``, ``_a_coeffs``, ``_gradient``) run on those tables and on a
float sizing list; the public functions validate their sizing vector
once and the ``repro.sizing`` solvers validate at entry and iterate on
floats, converting to :class:`numpy.ndarray` only on return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.cells.library import Library
from repro.process.technology import Technology
from repro.timing.backend import AnalyticBackend, DelayBackend
from repro.timing.delay_model import Edge, output_edge_for
from repro.timing.path import BoundedPath


@dataclass(frozen=True)
class PathTiming:
    """Detailed timing of a sized path.

    Attributes
    ----------
    total_delay_ps:
        Sum of stage delays -- the path delay the paper constrains.
    stage_delays_ps / stage_tout_ps:
        Per-stage eq. 1 delays and eq. 2 output transitions.
    stage_loads_ff:
        Total load (parasitic + side + next C_IN or terminal) per stage.
    edges:
        Switching-input polarity per stage.
    """

    total_delay_ps: float
    stage_delays_ps: Tuple[float, ...]
    stage_tout_ps: Tuple[float, ...]
    stage_loads_ff: Tuple[float, ...]
    edges: Tuple[Edge, ...]


@dataclass(frozen=True)
class _PathConstants:
    """Structure-only model constants of one (path, technology) pair.

    Every per-stage table is a tuple of Python floats, so the analytic
    kernels below run on plain float arithmetic with no per-stage numpy
    scalar or cell-method overhead:

    ``s_tau`` -- per-stage eq. 2 symmetry factor times tau;
    ``half_vt`` -- half the reduced threshold of the switching input edge;
    ``half_vt_next`` -- the next stage's ``half_vt`` (0.0 after the last
    stage, whose output slope drives only the terminal load);
    ``m`` -- coupling capacitance per unit of input capacitance;
    ``p`` -- parasitic (junction) capacitance per unit of input cap;
    ``cside`` -- fixed off-path load per stage;
    ``cin_min`` -- minimum available drive per stage;
    ``edges`` -- input edge per stage.
    """

    s_tau: Tuple[float, ...]
    half_vt: Tuple[float, ...]
    half_vt_next: Tuple[float, ...]
    m: Tuple[float, ...]
    p: Tuple[float, ...]
    cside: Tuple[float, ...]
    cin_min: Tuple[float, ...]
    edges: Tuple[Edge, ...]


def _constants(path: BoundedPath, tech: Technology) -> _PathConstants:
    """Model constants of ``(path, tech)``, cached on the path instance.

    The previous ``lru_cache`` keyed on the full ``BoundedPath`` value,
    deep-hashing every stage's cell dataclass on *every* delay
    evaluation -- measurably the hottest non-numeric cost of the eq. 4/6
    inner loops.  A single per-instance slot (paths are immutable, and
    the sizing machinery evaluates one path object millions of times
    against one technology) replaces the hash with an identity check;
    the stored technology reference keeps the key object alive, so the
    identity can never be recycled while the entry exists.
    """
    entry = path.__dict__.get("_constants_entry")
    if entry is not None and entry[0] is tech:
        return entry[1]
    constants = _build_constants(path, tech)
    object.__setattr__(path, "_constants_entry", (tech, constants))
    return constants


def _build_constants(path: BoundedPath, tech: Technology) -> _PathConstants:
    s_tau = []
    half_vt = []
    m = []
    p = []
    cside = []
    cin_min = []
    edges = []
    edge = path.input_edge
    for stage in path.stages:
        cell = stage.cell
        out_edge = output_edge_for(cell, edge)
        s = cell.s_hl(tech) if out_edge is Edge.FALL else cell.s_lh(tech)
        s_tau.append(float(s * tech.tau_ps))
        vt = tech.vtn_reduced if edge is Edge.RISE else tech.vtp_reduced
        half_vt.append(float(0.5 * vt))
        m.append(float(cell.coupling_cap(1.0, input_rising=edge is Edge.RISE)))
        p.append(float(cell.p_intrinsic))
        cside.append(float(stage.cside_ff))
        cin_min.append(float(cell.cin_min(tech)))
        edges.append(edge)
        edge = out_edge
    return _PathConstants(
        s_tau=tuple(s_tau),
        half_vt=tuple(half_vt),
        half_vt_next=tuple(half_vt[1:]) + (0.0,),
        m=tuple(m),
        p=tuple(p),
        cside=tuple(cside),
        cin_min=tuple(cin_min),
        edges=tuple(edges),
    )


# -- float kernels ------------------------------------------------------------
#
# The kernels below take a sizing vector that is already a validated list
# of Python floats with stage 0 pinned to ``cin_first_ff``; the public
# functions validate once and the solvers of ``repro.sizing`` validate at
# their entry, then iterate on floats.  Each expression keeps the
# operation order of eqs. 1-3 as written (``half_vt`` and
# ``half_vt_next`` hoist a product that was always evaluated first), so
# results are bit-identical to an element-wise numpy evaluation.


def _sizes_list(path: BoundedPath, sizes: Sequence[float]) -> List[float]:
    """Validate ``sizes`` once; a float list with stage 0 pinned."""
    arr = np.asarray(sizes, dtype=float)
    if arr.shape != (len(path),):
        raise ValueError(f"expected {len(path)} sizes, got shape {arr.shape}")
    values = arr.tolist()
    if any(c <= 0 for c in values):
        raise ValueError("all sizes must be positive")
    values[0] = float(path.cin_first_ff)
    return values


def _check_sizes(path: BoundedPath, sizes: Sequence[float]) -> np.ndarray:
    return np.array(_sizes_list(path, sizes))


def _downstream(path: BoundedPath, c: List[float]) -> List[float]:
    """External load each stage drives on the path: next C_IN or terminal."""
    down = c[1:]
    down.append(path.cterm_ff)
    return down


def _min_list(path: BoundedPath, k: _PathConstants) -> List[float]:
    """Minimum-drive sizing (stage 0 pinned) as a float list."""
    values = list(k.cin_min)
    values[0] = float(path.cin_first_ff)
    return values


def _clamp_list(path: BoundedPath, k: _PathConstants, values: List[float]) -> List[float]:
    """Project a float sizing list onto the feasible box (stage 0 pinned)."""
    out = [floor if floor > c else c for c, floor in zip(values, k.cin_min)]
    out[0] = float(path.cin_first_ff)
    return out


def _delay(path: BoundedPath, k: _PathConstants, c: List[float]) -> float:
    """Total eq. 1 path delay (ps) of a float sizing list."""
    total = 0.0
    tin = path.tin_first_ps
    for ci, down, p, cside, s_tau, m, half_vt in zip(
        c, _downstream(path, c), k.p, k.cside, k.s_tau, k.m, k.half_vt
    ):
        cl = p * ci + cside + down
        tout = s_tau * cl / ci
        cm = m * ci
        total += half_vt * tin + 0.5 * (1.0 + 2.0 * cm / (cm + cl)) * tout
        tin = tout
    return total


def _a_coeffs(path: BoundedPath, k: _PathConstants, c: List[float]) -> List[float]:
    """Effective eq. 4 coefficients ``A_i`` of a float sizing list."""
    coeffs = []
    for ci, down, p, cside, s_tau, m, half_vt_next in zip(
        c, _downstream(path, c), k.p, k.cside, k.s_tau, k.m, k.half_vt_next
    ):
        cl = p * ci + cside + down
        cm = m * ci
        coeffs.append((0.5 * (1.0 + 2.0 * cm / (cm + cl)) + half_vt_next) * s_tau)
    return coeffs


def _gradient(path: BoundedPath, k: _PathConstants, c: List[float]) -> List[float]:
    """Closed-form ``dT/dC_IN(i)`` of a float sizing list (component 0 is 0)."""
    # Forward quantities per stage: total load, output transition,
    # coupling cap and the weight of tout in T (own K/2 plus the next
    # stage's slope term).
    cl = []
    tout = []
    cm = []
    w = []
    for ci, down, p, cside, s_tau, m, half_vt_next in zip(
        c, _downstream(path, c), k.p, k.cside, k.s_tau, k.m, k.half_vt_next
    ):
        cl_i = p * ci + cside + down
        cm_i = m * ci
        cl.append(cl_i)
        tout.append(s_tau * cl_i / ci)
        cm.append(cm_i)
        w.append(0.5 * (1.0 + 2.0 * cm_i / (cm_i + cl_i)) + half_vt_next)

    p = k.p
    m = k.m
    s_tau = k.s_tau
    grad = [0.0]
    for j in range(1, len(c)):
        cj = c[j]
        denominator = (cm[j] + cl[j]) ** 2
        # d tout_j / d c_j: only the external part of the load divides c.
        ext_j = cl[j] - p[j] * cj
        dtout_j = -s_tau[j] * ext_j / cj**2
        # d K_j / d c_j through cm (m_j) and cl (p_j).
        dk_j = (2.0 * cl[j] * m[j] - 2.0 * cm[j] * p[j]) / denominator
        value = w[j] * dtout_j + 0.5 * tout[j] * dk_j

        # Upstream stage j-1 sees c_j in its load.
        i = j - 1
        dtout_i = s_tau[i] / c[i]
        dk_i = -2.0 * cm[i] / (cm[i] + cl[i]) ** 2
        value += w[i] * dtout_i + 0.5 * tout[i] * dk_i
        grad.append(value)
    return grad


def _path_delay_list(path: BoundedPath, c: List[float], library: Library) -> float:
    """:func:`path_delay_ps` of a validated float list, any backend."""
    backend = library.delay_backend
    if not isinstance(backend, AnalyticBackend):
        return _backend_path_delay(path, np.array(c), library, backend)
    return _delay(path, _constants(path, library.tech), c)


def _gradient_list(path: BoundedPath, c: List[float], library: Library) -> List[float]:
    """:func:`delay_gradient` of a validated float list, any backend."""
    if not isinstance(library.delay_backend, AnalyticBackend):
        return delay_gradient_numeric(path, np.array(c), library).tolist()
    return _gradient(path, _constants(path, library.tech), c)


def stage_external_loads(path: BoundedPath, sizes: np.ndarray) -> np.ndarray:
    """External (non-parasitic) load of each stage for a sizing vector."""
    n = len(path)
    loads = np.empty(n)
    for i in range(n):
        downstream = sizes[i + 1] if i + 1 < n else path.cterm_ff
        loads[i] = path.stages[i].cside_ff + downstream
    return loads


def evaluate_path(path: BoundedPath, sizes: Sequence[float], library: Library) -> PathTiming:
    """Evaluate the eq. 1 delay of ``path`` under ``sizes``.

    ``sizes[0]`` is forced to the path's fixed first drive; interior sizes
    are used as given (callers clamp to CREF beforehand when needed).

    Non-analytic backends take the generic chain (one scalar
    :meth:`~repro.timing.backend.DelayBackend.gate_timing` call per
    stage); the analytic branch runs on the cached float stage tables.
    """
    c = _sizes_list(path, sizes)
    backend = library.delay_backend
    if not isinstance(backend, AnalyticBackend):
        return _backend_evaluate_path(path, np.array(c), library, backend)
    k = _constants(path, library.tech)

    delays = []
    touts = []
    loads_total = []
    tin = path.tin_first_ps
    for ci, down, p, cside, s_tau, m, half_vt in zip(
        c, _downstream(path, c), k.p, k.cside, k.s_tau, k.m, k.half_vt
    ):
        cl = p * ci + cside + down
        tout = s_tau * cl / ci
        cm = m * ci
        coupling = 1.0 + 2.0 * cm / (cm + cl)
        delays.append(half_vt * tin + 0.5 * coupling * tout)
        touts.append(tout)
        loads_total.append(cl)
        tin = tout
    return PathTiming(
        total_delay_ps=float(sum(delays)),
        stage_delays_ps=tuple(delays),
        stage_tout_ps=tuple(touts),
        stage_loads_ff=tuple(loads_total),
        edges=k.edges,
    )


def path_delay_ps(path: BoundedPath, sizes: Sequence[float], library: Library) -> float:
    """Total path delay (ps) of a sizing vector, validated on entry."""
    return _path_delay_list(path, _sizes_list(path, sizes), library)


def _backend_evaluate_path(
    path: BoundedPath, arr: np.ndarray, library: Library, backend: DelayBackend
) -> PathTiming:
    """Generic backend chain behind :func:`evaluate_path`.

    Walks the path stage by stage through the backend's scalar kernel,
    threading the output transition and polarity of each stage into the
    next -- exactly the arc chaining :func:`~repro.timing.sta.analyze`
    performs on a linear circuit, so path and circuit views of the same
    chain agree for every backend.
    """
    tech = library.tech
    n = len(path)
    delays: List[float] = []
    touts: List[float] = []
    loads_total: List[float] = []
    edges: List[Edge] = []
    tin = path.tin_first_ps
    edge = path.input_edge
    for i in range(n):
        stage = path.stages[i]
        downstream = arr[i + 1] if i + 1 < n else path.cterm_ff
        ext = stage.cside_ff + downstream
        timing = backend.gate_timing(
            stage.cell, tech, float(arr[i]), float(ext), tin, edge
        )
        delays.append(timing.delay_ps)
        touts.append(timing.tout_ps)
        loads_total.append(stage.cell.parasitic_cap(float(arr[i])) + float(ext))
        edges.append(edge)
        tin = timing.tout_ps
        edge = timing.output_edge
    return PathTiming(
        total_delay_ps=float(sum(delays)),
        stage_delays_ps=tuple(delays),
        stage_tout_ps=tuple(touts),
        stage_loads_ff=tuple(loads_total),
        edges=tuple(edges),
    )


def _backend_path_delay(
    path: BoundedPath, arr: np.ndarray, library: Library, backend: DelayBackend
) -> float:
    """Total-delay-only variant of :func:`_backend_evaluate_path`."""
    tech = library.tech
    n = len(path)
    total = 0.0
    tin = path.tin_first_ps
    edge = path.input_edge
    for i in range(n):
        stage = path.stages[i]
        downstream = arr[i + 1] if i + 1 < n else path.cterm_ff
        timing = backend.gate_timing(
            stage.cell,
            tech,
            float(arr[i]),
            float(stage.cside_ff + downstream),
            tin,
            edge,
        )
        total += timing.delay_ps
        tin = timing.tout_ps
        edge = timing.output_edge
    return total


def path_area_um(path: BoundedPath, sizes: Sequence[float], library: Library) -> float:
    """Area metric ``sum W`` (um) of the sized path (paper's Figs. 4/8)."""
    arr = np.asarray(sizes, dtype=float)
    if arr.shape != (len(path),):
        raise ValueError(f"expected {len(path)} sizes, got shape {arr.shape}")
    return float(
        sum(
            stage.cell.total_width_um(c, library.tech)
            for stage, c in zip(path.stages, arr)
        )
    )


def effective_a_coeffs(
    path: BoundedPath, sizes: np.ndarray, library: Library
) -> np.ndarray:
    """Effective eq. 4 coefficients ``A_i`` at the current sizing point.

    Writing the path delay as ``T = sum_i A_i * C_L_total(i) / C_IN(i)``
    (plus the fixed input-slope term), the coefficient of stage ``i``
    collects its own coupling factor and the slope contribution of its
    output transition to stage ``i+1``::

        A_i = (K_i / 2 + v_T(i+1) / 2) * S_i * tau

    The ``A_i`` depend (weakly) on the sizing through ``K_i``; the eq. 4 /
    eq. 6 solvers therefore recompute them every sweep (Gauss-Seidel).

    Analytic-model-only: the coefficients *are* eq. 1-3 quantities, so
    there is nothing to evaluate for a table backend.  Callers gate on
    ``library.delay_backend.capabilities.closed_form_bounds`` and fall
    back to the numeric link sweep of :mod:`repro.sizing.bounds`.
    """
    c = np.asarray(sizes, dtype=float).tolist()
    return np.array(_a_coeffs(path, _constants(path, library.tech), c))


def delay_gradient(
    path: BoundedPath,
    sizes: Sequence[float],
    library: Library,
) -> np.ndarray:
    """Exact closed-form gradient ``dT/dC_IN(i)`` in ps/fF, O(n).

    Includes every dependency of eq. 1 on the sizes: the load and drive
    terms of the transition times, the downstream slope contribution and
    the Miller coupling factor's own derivatives.  Component 0 is 0: the
    first drive is a fixed boundary condition, not a free variable.

    The closed form differentiates eq. 1-3, so non-analytic backends
    dispatch to the central-difference fallback (which itself routes
    every evaluation through the backend's scalar kernel).
    """
    return np.array(_gradient_list(path, _sizes_list(path, sizes), library))


def delay_gradient_numeric(
    path: BoundedPath,
    sizes: Sequence[float],
    library: Library,
    rel_step: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient; the analytic form's cross-check."""
    arr = _check_sizes(path, sizes)
    grad = np.zeros(len(arr))
    for i in range(1, len(arr)):
        h = max(arr[i] * rel_step, 1e-9)
        up = arr.copy()
        up[i] += h
        down = arr.copy()
        down[i] -= h
        t_up = path_delay_ps(path, up, library)
        t_down = path_delay_ps(path, down, library)
        grad[i] = (t_up - t_down) / (2.0 * h)
    return grad


def stage_fanout_ratios(path: BoundedPath, sizes: Sequence[float]) -> np.ndarray:
    """Fan-out ratio ``F = C_L / C_IN`` per stage (buffering metric input)."""
    arr = np.asarray(sizes, dtype=float)
    ext = stage_external_loads(path, arr)
    return ext / arr
