"""Warm-started Tc sweeps vs cold independent jobs (the ISSUE 3 bar).

A sweep's constraint points share everything that does not depend on
``Tc``: characterisation, benchmark parsing, delay bounds, first-pass
extractions, eq. 4 fixed points, and the incremental STA engine (seeded
from the nearest already-solved neighbour).  This bench runs the same
20-point grid both ways, asserts the record payloads are *byte
identical* (warm starting is a cost optimization, never a result
change), and asserts the >= 2x wall-clock bar on a CORE circuit: the
best of three interleaved rounds per arm, beside counted-work checks
(full STA builds, eq. 4 sweeps) that do not depend on the host.

A small warm-sweep kernel also feeds the CI perf gate
(``compare_bench.py`` against ``BENCH_BASELINE.json``).
"""

import json
import time

from repro.api import Session, SweepSpec
from repro.explore import run_sweep
from repro.obs.metrics import session_metrics
from repro.protocol.report import format_table
from repro.sizing import bounds

from conftest import emit

#: The acceptance grid: 20 constraint points on one CORE circuit.
SWEEP_BENCH = "c432"
SWEEP_RATIOS = tuple(round(1.05 + 0.05 * i, 4) for i in range(20))

#: Interleaved measurement rounds; best-of-rounds defeats transient noise.
ROUNDS = 3


def _payload_bytes(record) -> bytes:
    return json.dumps(
        record.to_dict(with_timing=False), sort_keys=True
    ).encode("utf-8")


def _count_link_sweeps(monkeypatch):
    """Count the eq. 4 Gauss-Seidel sweeps actually run (memo hits run none)."""
    count = {"n": 0}
    real = bounds._link_equation_sweep

    def counting(*args, **kwargs):
        count["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds, "_link_equation_sweep", counting)
    return count


def test_warm_sweep_2x_faster_and_byte_identical(lib, limits, monkeypatch):
    spec = SweepSpec(
        benchmarks=(SWEEP_BENCH,),
        tc_ratio_points=SWEEP_RATIOS,
        k_paths=2,
        max_passes=2,
    )
    jobs = spec.jobs()
    sweeps = _count_link_sweeps(monkeypatch)

    t_cold = []
    t_warm = []
    for _ in range(ROUNDS):
        # Interleave both arms inside every round so drift (competing
        # load on a shared host) hits them equally; the best round of
        # each arm is compared below.
        #
        # Cold: 20 independent jobs, each in its own fresh session (the
        # library object is shared, so characterisation -- already paid
        # by the fixture -- is excluded from both sides).
        sweeps["n"] = 0
        cold_builds = 0
        cold = []
        start = time.perf_counter()
        for job in jobs:
            session = Session(library=lib)
            cold.append(session.optimize(job))
            cold_builds += session_metrics(session)["sta"]["full_builds"]
        t_cold.append(time.perf_counter() - start)
        cold_sweeps = sweeps["n"]

        # Warm: one campaign through one session.
        sweeps["n"] = 0
        warm_session = Session(library=lib)
        start = time.perf_counter()
        warm = run_sweep(warm_session, spec, with_power=False)
        t_warm.append(time.perf_counter() - start)
        warm_sweeps = sweeps["n"]

        for a, b in zip(warm.records, cold):
            assert _payload_bytes(a) == _payload_bytes(b)
        # Counted work, deterministic every round: the warm campaign
        # times the pristine netlist once where cold jobs time it once
        # each, and its eq. 4 memo serves most fixed points that cold
        # jobs re-solve sweep by sweep.
        assert cold_builds == len(jobs)
        assert session_metrics(warm_session)["sta"]["full_builds"] == 1
        assert 2 * warm_sweeps <= cold_sweeps, (warm_sweeps, cold_sweeps)

    best_cold = min(t_cold)
    best_warm = min(t_warm)
    speedup = best_cold / best_warm
    rows = [
        ("cold (20 independent jobs)", f"{best_cold:.2f}", "1.0x"),
        ("warm (one campaign)", f"{best_warm:.2f}", f"{speedup:.2f}x"),
    ]
    emit(
        f"Tc sweep -- 20 points on {SWEEP_BENCH}, warm vs cold "
        "(byte-identical payloads)",
        format_table(("mode", "wall (s)", "speedup"), rows),
    )
    assert speedup >= 2.0, (
        f"warm sweep only {speedup:.2f}x faster "
        f"(best of {ROUNDS} interleaved rounds: cold {t_cold}, warm {t_warm})"
    )


def test_sweep_resume_skips_completed_points(lib, tmp_path):
    spec = SweepSpec(
        benchmarks=("fpd",),
        tc_ratio_points=(1.2, 1.5, 1.8),
        k_paths=2,
        max_passes=2,
    )
    store = str(tmp_path / "campaign")
    session = Session(library=lib)
    first = run_sweep(session, spec, store=store)
    assert first.computed == 3

    start = time.perf_counter()
    again = run_sweep(session, spec, store=store, resume=True)
    t_resume = time.perf_counter() - start
    assert again.computed == 0
    assert again.resumed == 3
    for a, b in zip(first.records, again.records):
        assert _payload_bytes(a) == _payload_bytes(b)
    # Resume replays the optimize records from the journal (the summary's
    # power column is recomputed -- deterministic and cheap next to the
    # optimizations themselves), so it must beat the original run.
    assert t_resume < first.elapsed_s


# -- CI perf-gate kernel ----------------------------------------------


def test_kernel_warm_sweep_fpd(benchmark, lib, limits):
    """Warm 5-point sweep on the 60-gate paper example (gate kernel)."""
    spec = SweepSpec(
        benchmarks=("fpd",),
        tc_ratio_points=(1.1, 1.3, 1.5, 1.7, 1.9),
        k_paths=2,
        max_passes=2,
    )

    def sweep():
        return run_sweep(
            Session(library=lib), spec, with_power=False
        )

    result = benchmark(sweep)
    assert len(result.records) == 5
