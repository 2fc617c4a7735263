"""Binding coverage of the layer tracer.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layertrace  # noqa: E402
import workloads  # noqa: E402,F401  (imports every repro layer module)
from repro import Job, Session  # noqa: E402


def _function_bindings():
    """``(module, attr, original)`` of every module binding of a function layer."""
    originals = {}
    for layer in layertrace.LAYERS:
        owner, _, raw = layertrace._resolve(layer)
        if owner is None:
            originals[id(raw)] = raw
    bindings = []
    for module in list(sys.modules.values()):
        for attr, value in layertrace._module_items(module):
            if id(value) in originals and originals[id(value)] is value:
                bindings.append((module, attr, value))
    return bindings


def test_every_binding_is_patched_then_restored():
    before = _function_bindings()
    names = {(m.__name__, a) for m, a, _ in before}
    # min_delay_bound is imported by name across the sizing, buffering,
    # restructuring and protocol layers, not only defined in one place.
    assert sum(a == "min_delay_bound" for _, a in names) >= 5
    tracer = layertrace.LayerTracer()
    tracer.install()
    try:
        for module, attr, original in before:
            wrapper = getattr(module, attr)
            assert wrapper is not original
            assert getattr(wrapper, layertrace.WRAPPED_ATTR) is original
        assert set(tracer.patched_bindings) == names
        for layer in layertrace.LAYERS:
            owner, attr, raw = layertrace._resolve(layer)
            if owner is not None:
                func = getattr(raw, "__func__", raw)
                assert hasattr(func, layertrace.WRAPPED_ATTR), layer.qualname
        with pytest.raises(RuntimeError):
            layertrace.assert_untraced()
    finally:
        tracer.uninstall()
    for module, attr, original in before:
        assert getattr(module, attr) is original
    layertrace.assert_untraced()


def test_module_imported_after_install_is_patched(tmp_path, monkeypatch):
    # The late module binds the *original* function through a route the
    # install-time scan cannot see; the import hook must patch it.
    (tmp_path / "late_binding_mod.py").write_text(
        "from repro.sizing.bounds import min_delay_bound as _wrapped\n"
        f"min_delay_bound = _wrapped.{layertrace.WRAPPED_ATTR}\n",
        encoding="utf-8",
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    from repro.sizing import bounds

    original = bounds.min_delay_bound
    tracer = layertrace.LayerTracer()
    tracer.install()
    try:
        late = importlib.import_module("late_binding_mod")
        assert late.min_delay_bound is bounds.min_delay_bound
        assert late.min_delay_bound is not original
    finally:
        tracer.uninstall()
        sys.modules.pop("late_binding_mod", None)
    # Both the patched original and the wrapper the late import captured
    # are handed the original back.
    assert late.min_delay_bound is original
    assert late._wrapped is original
    assert bounds.min_delay_bound is original


def test_self_times_add_up_and_path_scope_has_no_k_paths():
    session = Session()
    circuit = session.benchmark("fpd")
    session.flimits()
    tracer = layertrace.LayerTracer()
    tracer.install()
    try:
        tracer.phase = "jobs"
        with tracer.job("job-0"):
            session.optimize(Job(circuit=circuit, tc_ratio=1.4))
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s.job == "job-0"]
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == ["api.session.optimize"]
    total_self = sum(s.self_s for s in spans)
    assert total_self == pytest.approx(roots[0].end - roots[0].start, abs=1e-9)
    totals = tracer.layer_totals("jobs")
    assert totals["timing.critical_path"]["calls"] >= 1
    assert totals["timing.k_critical_paths"]["calls"] == 0
    assert tracer.leaf_calls("jobs")["timing.path_delay_ps"][0] > 0


def test_disabled_tracer_records_nothing():
    session = Session()
    circuit = session.benchmark("fpd")
    tracer = layertrace.LayerTracer()
    tracer.install()
    try:
        tracer.enabled = False
        session.bounds(Job(circuit=circuit))
    finally:
        tracer.uninstall()
    assert tracer.spans == []


def test_memo_served_solves_are_not_counted_as_sweeps():
    from repro.protocol.optimizer import WarmStart

    session = Session()
    circuit = session.benchmark("c432")
    session.flimits()
    warm = WarmStart()
    tracer = layertrace.LayerTracer()
    tracer.install()
    try:
        tracer.phase = "jobs"
        for i, ratio in enumerate((1.1, 1.3)):
            with tracer.job(f"job-{i}"):
                session.optimize(Job(circuit=circuit, tc_ratio=ratio, scope="circuit",
                                     max_passes=2), warm=warm)
    finally:
        tracer.uninstall()
    # The tracer's view of the memo, kept from call arguments only, holds
    # exactly the solves the warm start's memo stored.
    (seen_warm, keys), = tracer._memos.values()
    assert seen_warm is warm
    assert len(keys) == len(warm.bounds_memo)
    calls = tracer.layer_totals("jobs")["sizing.min_delay_bound"]["calls"]
    served = tracer.count("jobs", "sizing.min_delay_bound.memo_served")
    assert 0 < served < calls
    assert tracer.count("jobs", "sizing.min_delay_bound.capped") <= calls - served
