"""Path delay bounds ``Tmax`` / ``Tmin`` (section 3.1, eq. 4, Figs. 1-2).

* ``Tmax`` is the paper's pseudo-upper bound: every gate at the minimum
  available drive.  (Without a size floor no upper bound exists.)
* ``Tmin`` is the global minimum of the convex bounded-path delay.  It is
  found exactly as in the paper: cancel ``dT/dC_IN(i)``, which yields the
  link equations (eq. 4)::

      C_IN(i)^2 = (A_i / A_{i-1}) * C_IN(i-1) * (C_par + C_side + C_IN(i+1))

  seeded by a backward pass with ``C_IN(i-1) = CREF``, then iterated to a
  fixed point with the effective ``A_i`` recomputed every sweep.  A short
  projected-gradient polish (exact numerical gradient) follows, so the
  result is a certified stationary point of the *full* model including the
  coupling-factor derivatives the link equations neglect.

The iteration history (total input capacitance vs delay) is recorded to
regenerate Fig. 1.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from math import sqrt
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.library import Library
from repro.timing.delay_model import Edge, GateTiming
from repro.timing.evaluation import (
    _a_coeffs,
    _clamp_list,
    _constants,
    _downstream,
    _gradient_list,
    _min_list,
    _path_delay_list,
    path_area_um,
    path_delay_ps,
)
from repro.timing.path import BoundedPath


@dataclass(frozen=True)
class BoundsHistoryPoint:
    """One iteration snapshot for the Fig. 1 trajectory."""

    iteration: int
    total_cin_over_cref: float
    delay_ps: float


@dataclass(frozen=True)
class DelayBounds:
    """Result of a bounds computation on one path.

    Attributes
    ----------
    tmin_ps / tmax_ps:
        The achievable delay window of the path.
    sizes_tmin / sizes_tmax:
        Sizing vectors realising each bound.
    area_tmin_um / area_tmax_um:
        ``sum W`` of each realisation.
    history:
        (iteration, sum C_IN / CREF, delay) trace of the Tmin iteration.
    iterations:
        Number of eq. 4 sweeps used (excluding the polish).
    """

    tmin_ps: float
    tmax_ps: float
    sizes_tmin: np.ndarray
    sizes_tmax: np.ndarray
    area_tmin_um: float
    area_tmax_um: float
    history: Tuple[BoundsHistoryPoint, ...]
    iterations: int

    def feasible(self, tc_ps: float) -> bool:
        """Whether a delay constraint can be met by sizing alone."""
        return tc_ps >= self.tmin_ps


#: The active sweep-scoped ``Tmin`` memo (``None`` outside a sweep).
#: :func:`min_delay_bound` is a pure function of ``(path, library)`` for
#: default solver arguments, yet a Tc-sweep re-runs it on largely
#: identical candidate paths at every constraint point -- by far the
#: protocol's hottest pure computation.  The memo is *opt-in and scoped*:
#: the circuit driver activates a :class:`~repro.protocol.optimizer`
#: warm-start's dict around one optimization and deactivates it after,
#: so independent (cold) jobs never share state, and values served from
#: the memo are exactly the tuples a fresh solve would produce.
_ACTIVE_TMIN_MEMO: Optional[Dict[Tuple, Tuple]] = None

#: :func:`min_delay_bound` solver defaults -- referenced by both the
#: signature and the memo-eligibility gate, so tuning one cannot
#: silently strand the other (a mismatch would never error, it would
#: just stop every memo hit).
_DEFAULT_MAX_ITERATIONS = 200
_DEFAULT_TOL_PS = 1e-6


@contextmanager
def tmin_memo(memo: Optional[Dict[Tuple, Tuple]]) -> Iterator[None]:
    """Activate a sweep's ``Tmin`` memo for the enclosed computation."""
    global _ACTIVE_TMIN_MEMO
    previous = _ACTIVE_TMIN_MEMO
    _ACTIVE_TMIN_MEMO = memo
    try:
        yield
    finally:
        _ACTIVE_TMIN_MEMO = previous


def max_delay_bound(path: BoundedPath, library: Library) -> Tuple[float, np.ndarray]:
    """``Tmax``: the minimum-area (all gates at CREF-level drive) delay."""
    sizes = path.min_sizes(library)
    return path_delay_ps(path, sizes, library), sizes


def _link_equation_sweep(
    path: BoundedPath,
    sizes: List[float],
    library: Library,
    sensitivity: float = 0.0,
    area_weights: Optional[Sequence[float]] = None,
    frozen: Optional[Sequence[bool]] = None,
) -> List[float]:
    """One Gauss-Seidel sweep of the eq. 4 / eq. 6 link equations.

    With ``sensitivity = a = 0`` this is eq. 4 (the Tmin condition); with
    ``a < 0`` it is eq. 6, the constant-sensitivity condition
    ``dT/dC_IN(i) = a * w_i`` (``w_i = 1`` reproduces the paper exactly;
    passing area weights yields the KKT-exact minimum-``sum W`` variant).
    Stages flagged in ``frozen`` keep their current size (used by the
    local buffer-insertion mode, which sizes only the inserted buffers).

    ``sizes`` is a validated float list with stage 0 pinned (the solvers
    validate once at entry); the ``max(., cin_min)`` floor keeps every
    iterate positive, so the returned list needs no re-validation.

    Backends without closed-form bounds (NLDM tables) take the numeric
    twin :func:`_numeric_link_sweep`: the same Gauss-Seidel update, but
    each stage's stationarity condition is solved by a bracketed root
    search on the windowed delay derivative instead of eq. 4.
    """
    if not library.delay_backend.capabilities.closed_form_bounds:
        return _numeric_link_sweep(
            path, np.array(sizes), library, sensitivity, area_weights, frozen
        ).tolist()
    k = _constants(path, library.tech)
    coeffs = _a_coeffs(path, k, sizes)
    weights = repeat(1.0) if area_weights is None else area_weights[1:]
    flags = repeat(False) if frozen is None else frozen[1:]
    out = [sizes[0]]
    previous = sizes[0]
    # Gauss-Seidel: stage i reads the already-updated C_IN(i-1) and the
    # not-yet-updated C_IN(i+1).
    for a_prev, a_i, cside, down, cin_min, w_i, is_frozen, current in zip(
        coeffs, coeffs[1:], k.cside[1:], _downstream(path, sizes)[1:],
        k.cin_min[1:], weights, flags, sizes[1:],
    ):
        if is_frozen:
            previous = current
        else:
            ext_i = cside + down
            denominator = a_prev / previous - sensitivity * w_i
            if denominator <= 0:
                # Sensitivity more negative than the upstream stage can
                # express: the gate collapses to its minimum drive.
                previous = cin_min
            else:
                root = sqrt(a_i * ext_i / denominator)
                # max(root, cin_min), spelled out: the builtin call is
                # the costliest operation of the sweep.
                previous = cin_min if cin_min > root else root
        out.append(previous)
    return out


def _frozen_flags(
    path: BoundedPath, frozen: Optional[Sequence[bool]]
) -> Optional[List[bool]]:
    """A solver's ``frozen`` mask as a validated list of bools."""
    if frozen is None:
        return None
    flags = [bool(f) for f in frozen]
    if len(flags) != len(path):
        raise ValueError(f"expected {len(path)} frozen flags, got {len(flags)}")
    return flags


def _stage_timing(
    path: BoundedPath,
    sizes: np.ndarray,
    library: Library,
    i: int,
    tin_ps: float,
    edge: Edge,
) -> GateTiming:
    """One stage's backend timing under the current sweep sizing."""
    stage = path.stages[i]
    downstream = sizes[i + 1] if i + 1 < len(path) else path.cterm_ff
    return library.delay_backend.gate_timing(
        stage.cell,
        library.tech,
        float(sizes[i]),
        float(stage.cside_ff + downstream),
        tin_ps,
        edge,
    )


def _numeric_link_root(
    window: Callable[[float], float],
    cin_min: float,
    c_start: float,
    target: float,
) -> float:
    """Smallest drive where the windowed delay derivative reaches ``target``.

    Solves ``d(window)/dc = target`` (``target = a * w_i <= 0``) with a
    central-difference derivative and an Illinois-damped regula falsi on
    the bracketed sign change; the derivative is non-decreasing for any
    sane delay table (the windowed delay is convex-ish in the drive), so
    the bracket expansion upward from the warm start always terminates.
    """

    def g(c: float) -> float:
        h = max(c * 1e-6, 1e-9)
        return (window(c + h) - window(c - h)) / (2.0 * h) - target

    g_lo = g(cin_min)
    if g_lo >= 0.0:
        # Already no faster than the target slope at the floor: collapse
        # to minimum drive, mirroring the closed-form branch.
        return cin_min
    lo, hi = cin_min, max(c_start, 2.0 * cin_min)
    g_hi = g(hi)
    expansions = 0
    while g_hi < 0.0:
        if expansions >= 60:
            return hi
        lo, g_lo = hi, g_hi
        hi *= 2.0
        g_hi = g(hi)
        expansions += 1
    for _ in range(80):
        if hi - lo <= 1e-7 * hi:
            break
        mid = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if g_mid < 0.0:
            lo, g_lo = mid, g_mid
            g_hi *= 0.5
        else:
            hi, g_hi = mid, g_mid
            g_lo *= 0.5
    return 0.5 * (lo + hi)


def _numeric_link_sweep(
    path: BoundedPath,
    sizes: np.ndarray,
    library: Library,
    sensitivity: float = 0.0,
    area_weights: Optional[np.ndarray] = None,
    frozen: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Numeric Gauss-Seidel sweep for backends without closed-form bounds.

    Each free stage ``i`` is moved to the drive where the derivative of
    the three-stage windowed delay (stages ``i-1 .. i+1`` -- every term
    of the path delay that depends on ``C_IN(i)`` when output
    transitions are slew-independent, and a tight truncation otherwise)
    equals ``a * w_i``.  Entry transitions/polarities into the window
    come from a forward chain refreshed incrementally as the sweep
    rewrites sizes, exactly the Gauss-Seidel discipline of the
    closed-form sweep.  Fixed points therefore satisfy the same
    stationarity conditions eq. 4 / eq. 6 encode, evaluated through the
    backend's own tables.
    """
    n = len(path)
    out = sizes.copy()
    out[0] = path.cin_first_ff
    tech = library.tech

    tins = np.empty(n)
    edges: List[Edge] = []
    tin = path.tin_first_ps
    edge = path.input_edge
    for i in range(n):
        tins[i] = tin
        edges.append(edge)
        timing = _stage_timing(path, out, library, i, tin, edge)
        tin = timing.tout_ps
        edge = timing.output_edge

    for i in range(1, n):
        if frozen is not None and frozen[i]:
            continue
        w_i = 1.0 if area_weights is None else area_weights[i]
        target = sensitivity * w_i
        cin_min = path.stages[i].cell.cin_min(tech)
        i0 = i - 1
        i1 = min(i + 1, n - 1)

        def window(c: float, i: int = i, i0: int = i0, i1: int = i1) -> float:
            saved = out[i]
            out[i] = c
            try:
                total = 0.0
                tin_w = float(tins[i0])
                edge_w = edges[i0]
                for j in range(i0, i1 + 1):
                    timing = _stage_timing(path, out, library, j, tin_w, edge_w)
                    total += timing.delay_ps
                    tin_w = timing.tout_ps
                    edge_w = timing.output_edge
                return total
            finally:
                out[i] = saved

        out[i] = _numeric_link_root(window, cin_min, float(out[i]), target)
        # The new size shifted stage i-1's load and stage i's drive:
        # refresh the entry transitions downstream of the edit.
        for j in (i - 1, i):
            timing = _stage_timing(path, out, library, j, float(tins[j]), edges[j])
            if j + 1 < n:
                tins[j + 1] = timing.tout_ps
    return out


def _projected_gradient_polish(
    path: BoundedPath,
    sizes: List[float],
    library: Library,
    max_steps: int = 60,
    tol_ps: float = 1e-4,
    frozen: Optional[Sequence[bool]] = None,
) -> List[float]:
    """Backtracking projected gradient descent on the exact path delay."""
    k = _constants(path, library.tech)
    current = _clamp_list(path, k, sizes)
    t_current = _path_delay_list(path, current, library)
    step = 1.0  # fF^2 / ps scale; adapted by backtracking
    for _ in range(max_steps):
        grad = _gradient_list(path, current, library)
        if frozen is not None:
            grad = [0.0 if f else g for f, g in zip(frozen, grad)]
        norm = float(np.linalg.norm(grad))
        if norm < 1e-9:
            break
        improved = False
        while step > 1e-6:
            candidate = _clamp_list(
                path, k, [c - step * g for c, g in zip(current, grad)]
            )
            t_candidate = _path_delay_list(path, candidate, library)
            if t_candidate < t_current - 1e-12:
                current, t_current = candidate, t_candidate
                improved = True
                step *= 1.3
                break
            step *= 0.5
        if not improved or abs(norm) * step < tol_ps:
            break
    return current


def min_delay_bound(
    path: BoundedPath,
    library: Library,
    cref_ff: Optional[float] = None,
    max_iterations: int = _DEFAULT_MAX_ITERATIONS,
    tol_ps: float = _DEFAULT_TOL_PS,
    polish: bool = True,
    start_sizes: Optional[np.ndarray] = None,
    frozen: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray, List[BoundsHistoryPoint], int]:
    """``Tmin`` via the eq. 4 fixed point.

    Parameters
    ----------
    cref_ff:
        Seed drive for the backward initial pass.  The paper notes (and
        our property tests verify) that the converged ``Tmin`` does not
        depend on this choice; it defaults to the library ``CREF``.
    start_sizes:
        Optional explicit starting point (overrides the backward pass);
        required when some stages are frozen.
    frozen:
        Boolean mask of stages whose size must not move (local buffer
        sizing keeps the original gates untouched).

    Returns ``(tmin, sizes, history, iterations)``.
    """
    # Serve default-argument solves from the active sweep memo, if any:
    # the result is a pure function of (path, library, polish), so the
    # cached tuple is exactly what a fresh solve would return (callers
    # get copies -- the memo's arrays are never handed out mutable).
    memo = _ACTIVE_TMIN_MEMO
    cacheable = (
        memo is not None
        and cref_ff is None
        and max_iterations == _DEFAULT_MAX_ITERATIONS
        and tol_ps == _DEFAULT_TOL_PS
        and start_sizes is None
        and frozen is None
    )
    key: Optional[Tuple] = None
    if cacheable and memo is not None:
        key = (id(library), polish, path.fingerprint())
        hit = memo.get(key)
        if hit is not None:
            delay, sizes, history, iterations = hit
            return delay, sizes.copy(), list(history), iterations
    if cref_ff is None:
        cref_ff = library.cref
    if cref_ff <= 0:
        raise ValueError("cref_ff must be positive")
    n = len(path)
    cref_lib = library.cref
    closed_form = library.delay_backend.capabilities.closed_form_bounds
    if not closed_form:
        # Numeric sweeps cost a root search per stage; cap the fixed
        # point accordingly (it converges geometrically and the polish
        # certifies stationarity on the exact backend delay anyway).
        max_iterations = min(max_iterations, 60)
        tol_ps = max(tol_ps, 1e-5)

    # Validate once at entry; the loop below iterates on a float list.
    k = _constants(path, library.tech)
    frozen_flags = _frozen_flags(path, frozen)
    if start_sizes is not None:
        sizes = path.clamp_sizes(start_sizes, library).tolist()
    elif not closed_form:
        # No eq. 4 coefficients to seed from: start the numeric fixed
        # point at the minimum-drive corner.
        sizes = _min_list(path, k)
    else:
        # Backward initial pass: local eq. 4 solutions with C_IN(i-1) = cref.
        sizes = _min_list(path, k)
        coeffs = _a_coeffs(path, k, sizes)
        for i in range(n - 1, 0, -1):
            ext_i = k.cside[i] + (sizes[i + 1] if i + 1 < n else path.cterm_ff)
            target_sq = (coeffs[i] / coeffs[i - 1]) * cref_ff * ext_i
            sizes[i] = max(sqrt(target_sq), k.cin_min[i])
        sizes[0] = float(path.cin_first_ff)

    # History totals use numpy's pairwise sum: a sequential Python sum()
    # over the same floats differs in the last bit.
    history: List[BoundsHistoryPoint] = []
    delay = _path_delay_list(path, sizes, library)
    history.append(BoundsHistoryPoint(0, float(np.sum(sizes) / cref_lib), delay))

    iterations = 0
    for iteration in range(1, max_iterations + 1):
        iterations = iteration
        sizes = _link_equation_sweep(
            path, sizes, library, sensitivity=0.0, frozen=frozen_flags
        )
        sizes[0] = float(path.cin_first_ff)
        new_delay = _path_delay_list(path, sizes, library)
        history.append(
            BoundsHistoryPoint(iteration, float(np.sum(sizes) / cref_lib), new_delay)
        )
        if abs(new_delay - delay) < tol_ps:
            delay = new_delay
            break
        delay = new_delay

    if polish and n > 1:
        sizes = _projected_gradient_polish(path, sizes, library, frozen=frozen_flags)
        delay = _path_delay_list(path, sizes, library)
        history.append(
            BoundsHistoryPoint(iterations + 1, float(np.sum(sizes) / cref_lib), delay)
        )
    result = np.array(sizes)
    if key is not None and memo is not None:
        memo[key] = (delay, result.copy(), tuple(history), iterations)
    return delay, result, history, iterations


def delay_bounds(
    path: BoundedPath,
    library: Library,
    cref_ff: Optional[float] = None,
    polish: bool = True,
) -> DelayBounds:
    """Compute the full ``(Tmin, Tmax)`` window of a bounded path."""
    tmax, sizes_max = max_delay_bound(path, library)
    tmin, sizes_min_delay, history, iterations = min_delay_bound(
        path, library, cref_ff=cref_ff, polish=polish
    )
    return DelayBounds(
        tmin_ps=tmin,
        tmax_ps=tmax,
        sizes_tmin=sizes_min_delay,
        sizes_tmax=sizes_max,
        area_tmin_um=path_area_um(path, sizes_min_delay, library),
        area_tmax_um=path_area_um(path, sizes_max, library),
        history=tuple(history),
        iterations=iterations,
    )
