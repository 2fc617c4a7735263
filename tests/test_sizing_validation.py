"""Sizing-vector validation at the public path and solver entry points.

The solvers validate a sizing vector once at entry and then iterate on
floats, so these tests pin what each entry point does with a vector of
the wrong length or with a non-positive entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sizing.bounds import min_delay_bound
from repro.sizing.sensitivity import solve_sensitivity
from repro.timing.evaluation import delay_gradient, evaluate_path, path_delay_ps

EVALUATORS = [path_delay_ps, evaluate_path, delay_gradient]


def _with_entry(sizes, index, value):
    bad = np.array(sizes, dtype=float)
    bad[index] = value
    return bad


@pytest.mark.parametrize("evaluate", EVALUATORS, ids=lambda f: f.__name__)
class TestEvaluatorValidation:
    def test_wrong_length(self, evaluate, eleven_gate_path, lib):
        sizes = eleven_gate_path.min_sizes(lib)
        with pytest.raises(ValueError, match=r"expected 11 sizes, got shape \(10,\)"):
            evaluate(eleven_gate_path, sizes[:-1], lib)
        with pytest.raises(ValueError, match=r"expected 11 sizes, got shape \(2, 11\)"):
            evaluate(eleven_gate_path, np.vstack([sizes, sizes]), lib)

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("index", [0, 4, 10])
    def test_non_positive_entry(self, evaluate, eleven_gate_path, lib, index, value):
        # Stage 0 is pinned to the fixed first drive, but a non-positive
        # value there is still rejected: validation precedes the pin.
        bad = _with_entry(eleven_gate_path.min_sizes(lib), index, value)
        with pytest.raises(ValueError, match="all sizes must be positive"):
            evaluate(eleven_gate_path, bad, lib)

    def test_accepts_lists(self, evaluate, eleven_gate_path, lib):
        sizes = eleven_gate_path.min_sizes(lib) * 2.0
        as_list = evaluate(eleven_gate_path, sizes.tolist(), lib)
        as_array = evaluate(eleven_gate_path, sizes, lib)
        np.testing.assert_array_equal(
            np.asarray(getattr(as_list, "stage_delays_ps", as_list)),
            np.asarray(getattr(as_array, "stage_delays_ps", as_array)),
        )


def _solve_tmin(path, lib, start):
    return min_delay_bound(path, lib, start_sizes=start)


def _solve_sensitivity(path, lib, start):
    solution = solve_sensitivity(path, lib, -0.5, start_sizes=start)
    return solution.delay_ps, solution.sizes, solution.iterations


SOLVERS = [
    pytest.param(_solve_tmin, id="min_delay_bound"),
    pytest.param(_solve_sensitivity, id="solve_sensitivity"),
]


@pytest.mark.parametrize("solve", SOLVERS)
class TestSolverStartValidation:
    def test_wrong_length(self, solve, eleven_gate_path, lib):
        start = eleven_gate_path.min_sizes(lib) * 2.0
        with pytest.raises(ValueError, match=r"expected 11 sizes, got shape \(12,\)"):
            solve(eleven_gate_path, lib, np.append(start, 1.0))
        with pytest.raises(ValueError, match=r"expected 11 sizes, got shape \(10,\)"):
            solve(eleven_gate_path, lib, start[:-1])

    @pytest.mark.parametrize("value", [0.0, -3.0])
    def test_non_positive_entry_is_projected(self, solve, eleven_gate_path, lib, value):
        # Start points are projected onto the feasible box, not rejected:
        # a non-positive interior entry starts at the stage's minimum drive.
        start = eleven_gate_path.min_sizes(lib) * 2.0
        bad = _with_entry(start, 5, value)
        floored = _with_entry(start, 5, eleven_gate_path.min_sizes(lib)[5])
        got = solve(eleven_gate_path, lib, bad)
        want = solve(eleven_gate_path, lib, floored)
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2]
        assert np.all(got[1] > 0)


@pytest.mark.parametrize("solve", SOLVERS)
def test_frozen_mask_length_is_checked(solve, eleven_gate_path, lib):
    start = eleven_gate_path.min_sizes(lib) * 2.0
    frozen = np.zeros(len(eleven_gate_path) - 1, dtype=bool)
    with pytest.raises(ValueError, match="expected 11 frozen flags, got 10"):
        if solve is _solve_tmin:
            min_delay_bound(eleven_gate_path, lib, start_sizes=start, frozen=frozen)
        else:
            solve_sensitivity(
                eleven_gate_path, lib, -0.5, start_sizes=start, frozen=frozen
            )
