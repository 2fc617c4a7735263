"""Tests for K-critical-path extraction and path/circuit conversion."""

import numpy as np
import pytest

from repro.cells.gate_types import GateKind
from repro.iscas.loader import load_benchmark
from repro.netlist.builders import ripple_carry_adder
from repro.netlist.circuit import Circuit
from repro.timing.critical_paths import (
    apply_path_sizes,
    critical_path,
    k_critical_paths,
    to_bounded_path,
)
from repro.timing.delay_model import Edge
from repro.timing.evaluation import path_delay_ps
from repro.timing.sta import analyze, gate_sizes


class TestExtraction:
    def test_matches_sta_critical_delay(self, lib):
        for name in ("fpd", "c432"):
            circuit = load_benchmark(name)
            sta = analyze(circuit, lib)
            top = critical_path(circuit, lib)
            assert top.delay_ps == pytest.approx(sta.critical_delay_ps, rel=1e-9)

    def test_k_paths_sorted_and_distinct(self, lib):
        circuit = load_benchmark("c432")
        paths = k_critical_paths(circuit, lib, k=5)
        assert len(paths) == 5
        delays = [p.delay_ps for p in paths]
        assert delays == sorted(delays, reverse=True)
        assert len({p.gate_names for p in paths}) == 5

    def test_k_validation(self, lib):
        with pytest.raises(ValueError):
            k_critical_paths(load_benchmark("fpd"), lib, k=0)

    def test_adder_critical_is_deep(self, lib):
        adder = ripple_carry_adder(16)
        top = critical_path(adder, lib)
        assert len(top.gate_names) >= 30  # the carry chain

    def test_path_is_structurally_connected(self, lib):
        circuit = load_benchmark("c880")
        top = critical_path(circuit, lib)
        for upstream, downstream in zip(top.gate_names, top.gate_names[1:]):
            assert upstream in circuit.gates[downstream].fanin


class TestBoundedConversion:
    def test_side_loads_accounted(self, lib):
        c = Circuit("f")
        c.add_input("a")
        c.add_gate("g0", GateKind.INV, ["a"])
        c.add_gate("g1", GateKind.INV, ["g0"])
        c.add_gate("side", GateKind.INV, ["g0"])  # off-path load on g0
        c.add_output("g1")
        c.add_output("side")
        sizes = gate_sizes(c, lib)
        path = to_bounded_path(c, lib, ["g0", "g1"], Edge.RISE)
        assert path.stages[0].cside_ff == pytest.approx(sizes["side"])

    def test_rejects_non_paths(self, lib):
        c = Circuit("f")
        c.add_input("a")
        c.add_gate("g0", GateKind.INV, ["a"])
        c.add_gate("g1", GateKind.INV, ["a"])  # not fed by g0
        c.add_output("g1")
        c.add_output("g0")


        with pytest.raises(ValueError):
            to_bounded_path(c, lib, ["g0", "g1"], Edge.RISE)

    def test_extracted_delay_consistent(self, lib):
        """Evaluating the bounded path at circuit sizes == claimed delay."""
        circuit = load_benchmark("fpd")
        top = critical_path(circuit, lib)
        sizes = gate_sizes(circuit, lib)
        vector = [sizes[g] for g in top.gate_names]
        assert path_delay_ps(top.path, vector, lib) == pytest.approx(
            top.delay_ps, rel=1e-12
        )


class TestWriteBack:
    def test_apply_path_sizes(self, lib):
        circuit = load_benchmark("fpd")
        top = critical_path(circuit, lib)
        new_sizes = np.full(len(top.gate_names), 5.0 * lib.cref)
        apply_path_sizes(circuit, top.gate_names, new_sizes)
        for name in top.gate_names:
            assert circuit.gates[name].cin_ff == pytest.approx(5.0 * lib.cref)

    def test_apply_shape_checked(self, lib):
        circuit = load_benchmark("fpd")
        top = critical_path(circuit, lib)
        with pytest.raises(ValueError):
            apply_path_sizes(circuit, top.gate_names, [1.0])

    def test_sizing_critical_path_speeds_that_path_up(self, lib):
        """Write-back speeds up the extracted path itself; the *circuit*
        critical delay may migrate to a newly loaded sibling path (the
        interaction the circuit driver iterates over), so the honest
        invariant is path-local."""
        from repro.sizing.bounds import min_delay_bound

        circuit = load_benchmark("fpd")
        top = critical_path(circuit, lib)
        tmin, sizes, _, _ = min_delay_bound(top.path, lib)
        assert tmin < top.delay_ps
        apply_path_sizes(circuit, top.gate_names, sizes)
        # Re-extract the same gate chain as a bounded path under the new
        # circuit state: its delay matches the promised Tmin (the side
        # loads along the chain did not change -- only its own sizes did).
        new_path = to_bounded_path(circuit, lib, top.gate_names, top.input_edge)
        assert path_delay_ps(new_path, sizes, lib) == pytest.approx(tmin, rel=1e-6)

    def test_circuit_driver_never_regresses(self, lib):
        """optimize_circuit snapshots the best state: its result is never
        slower than the starting circuit."""
        from repro.protocol.optimizer import optimize_circuit

        circuit = load_benchmark("fpd")
        before = analyze(circuit, lib).critical_delay_ps
        result = optimize_circuit(circuit, lib, tc_ps=0.8 * before, k_paths=2,
                                  max_passes=3)
        assert result.critical_delay_ps <= before + 1e-6


class TestStaReuse:
    """A passed ``sta=`` must match the extraction's boundary."""

    def test_matching_annotation_gives_identical_paths(self, lib):
        circuit = load_benchmark("c432")
        sta = analyze(circuit, lib)
        fresh = k_critical_paths(circuit, lib, k=3)
        reused = k_critical_paths(circuit, lib, k=3, sta=sta)
        assert [p.gate_names for p in reused] == [p.gate_names for p in fresh]
        assert [p.delay_ps for p in reused] == [p.delay_ps for p in fresh]
        assert [p.path for p in reused] == [p.path for p in fresh]

    @pytest.mark.parametrize(
        "sta_kwargs, call_kwargs",
        [
            (dict(input_transition_ps=20.0), {}),
            ({}, dict(input_transition_ps=20.0)),
            (dict(output_load_ff=3.0), {}),
            ({}, dict(output_load_ff=3.0)),
        ],
    )
    def test_mismatched_boundary_is_rejected(self, lib, sta_kwargs, call_kwargs):
        circuit = load_benchmark("fpd")
        sta = analyze(circuit, lib, **sta_kwargs)
        with pytest.raises(ValueError, match="timed under"):
            k_critical_paths(circuit, lib, k=2, sta=sta, **call_kwargs)

    def test_explicit_default_load_matches_resolved_default(self, lib):
        circuit = load_benchmark("fpd")
        sta = analyze(circuit, lib)
        assert sta.output_load_ff == 4.0 * lib.cref
        top = critical_path(circuit, lib, output_load_ff=4.0 * lib.cref, sta=sta)
        assert top.gate_names == critical_path(circuit, lib).gate_names

    def test_negative_input_transition_is_rejected(self, lib):
        with pytest.raises(ValueError, match="non-negative"):
            k_critical_paths(load_benchmark("fpd"), lib, input_transition_ps=-1.0)
