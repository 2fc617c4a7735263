"""The POPS Job benchmark: whole Jobs timed end to end, layers timed from outside.

Run from the repository root::

    python3 perfbench/run.py --workload circuit-large --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload path-suite --seed 1 --seconds 16 --trace 1

Workloads (see ``workloads.py``): ``circuit-large``, ``path-suite``,
``sweep-warm`` and ``serve-mixed``.

``--trace 0`` is a timed run.  It asserts that no layer function is
wrapped, sets up three times (``setup_s`` is the median), runs whole
passes of the seeded plan, as many as end closest to ``--seconds``, then
checks every output outside the timed region.  It prints all eight
end-to-end metrics with unit and sample count.

Times are normalised to a nominal host speed.  A fixed batch of
reference work (``workloads.reference_s``), which no change to the
program can move, is timed between set-ups and between units (for
serve-mixed, between blocks of submits while the daemon is idle); each
wall time is scaled by the nominal over the measured reference time, so
the drift of a shared host's speed between runs does not read as a
change of the program.  The table prints the wall-clock value beside
each normalised one.

``--trace 1`` is a traced run.  It first runs untraced for a third of
``--seconds``.  It then installs the layer wrappers (``layertrace.py``),
sets up once and replays exactly the same units traced.  The difference
of the normalised unit times of the two is ``trace.overhead_frac``.  The
run prints the per-layer self-time table, in which the layer self times
plus the unattributed share add up to Job wall time.  Spans are written
as JSONL.

Every run writes a full report (environment stamp, metrics, sample
counts, workload character) to ``perfbench/out/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Share of ``--seconds`` the traced run spends on its untraced reference;
#: the traced replay of the same units takes about as long again.
REFERENCE_SHARE = 1.0 / 3.0
#: ``job_s.p90`` needs at least ten samples beyond it.
P90_MIN_SAMPLES = 100

#: End-to-end metrics of the result line, the ones ``BENCHMARK.json``
#: bounds.  The table prints four more that cannot carry a bound:
#: ``job_s.p90`` exists only on runs of >= 100 Jobs; ``error_frac`` is 0
#: when the program is right (the result line carries it as
#: ``failed``/``attempted``); ``feasible_frac`` reads 0 on circuit-large
#: and on some sweep-warm seeds; and ``area_um.sum`` is a fixed function
#: of the seed that varies several-fold between seeds on serve-mixed.
END_TO_END = ("setup_s", "jobs_per_s", "job_s.p50", "peak_rss_mb")


def workload_why(name: str) -> str:
    """The workload's ``why`` from ``BENCHMARK.json``, its one description."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return ""
    return next((w["why"] for w in spec.get("workloads", []) if w.get("name") == name), "")


# -- environment stamp -----------------------------------------------------------


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int, workloads: Any) -> Dict[str, Any]:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(ROOT),
        "seed": seed,
        # Fastest of five batches of the fixed reference kernel.
        "calibration_s": min(workloads.reference_s() for _ in range(5)),
        "calibration_nominal_s": workloads.REFERENCE_NOMINAL_S,
    }


# -- metrics ---------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _p90(values: List[float]) -> Optional[float]:
    if len(values) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(values, n=10)[8]


def end_to_end(outcomes: List[Any], units: List[Tuple[float, float]],
               setups: List[Tuple[float, float]]) -> Dict[str, Tuple]:
    """``name -> (value, wall-clock value, unit, samples)`` for all eight metrics.

    Times are normalised to the nominal host speed (``value``) and also
    given as measured (``wall-clock value``; ``None`` for the metrics
    that are not times).  ``units`` and ``setups`` hold ``(wall time,
    scale)`` pairs.  Throughput is over the summed unit times, which
    leave out the reference batches timed between units.
    """
    done = [o for o in outcomes if o.record is not None]
    latencies = [o.latency_s for o in done]
    normalised = [o.latency_s * o.scale for o in done]
    jobs_wall = (sum(w * k for w, k in units), sum(w for w, _ in units))
    optimized = [o for o in outcomes if o.first_pass and o.is_optimize]
    # Area is what the protocol minimises once Tc >= Tmin; below Tmin the
    # result is a best-effort minimum-delay implementation whose area
    # the protocol does not minimise, and a few of those would outweigh
    # every other Job in the sum.
    sized = [o for o in optimized if o.sizing_domain]
    failed = sum(o.error is not None for o in outcomes)
    median = statistics.median
    return {
        "setup_s": (median(w * k for w, k in setups), median(w for w, _ in setups), "s",
                    len(setups)),
        "jobs_per_s": (len(done) / jobs_wall[0], len(done) / jobs_wall[1], "Jobs/s",
                       len(done)),
        "job_s.p50": (median(normalised) if done else None,
                      median(latencies) if done else None, "s", len(done)),
        "job_s.p90": (_p90(normalised), _p90(latencies), "s", len(done)),
        "peak_rss_mb": (peak_rss_mb(), None, "MB", 1),
        "error_frac": (failed / len(outcomes) if outcomes else None, None, "ratio",
                       len(outcomes)),
        "area_um.sum": (sum(o.area_um for o in sized), None, "um", len(sized)),
        "feasible_frac": (sum(o.feasible for o in optimized) / len(optimized)
                          if optimized else None, None, "ratio", len(optimized)),
    }


def character(workload: str, outcomes: List[Any]) -> Dict[str, Any]:
    """Shares of the input properties an optimisation might depend on."""
    total = len(outcomes) or 1
    info: Dict[str, Any] = {"jobs": len(outcomes)}
    kinds = Counter(o.kind for o in outcomes)
    info["kind_share"] = {k: v / total for k, v in sorted(kinds.items())}
    domains = Counter(
        o.record.payload.domain.domain.value
        for o in outcomes
        if o.record is not None and o.record.kind == "optimize-path"
    )
    if domains:
        n = sum(domains.values())
        info["domain_share"] = {k: v / n for k, v in sorted(domains.items())}
    if workload == "serve-mixed":
        info["repeat_share"] = sum(bool(o.info.get("repeat")) for o in outcomes) / total
        info["store_hit_share"] = sum(bool(o.info.get("cached")) for o in outcomes) / total
        info["parity_checked"] = sum(bool(o.info.get("parity_checked")) for o in outcomes)
    passes = [o.record.payload.passes for o in outcomes
              if o.record is not None and o.record.kind == "optimize-circuit"]
    if passes:
        info["circuit_passes_mean"] = sum(passes) / len(passes)
    return info


def cache_hit_rates(outcomes: List[Any], fixture: Dict[str, Any]) -> Dict[str, float]:
    """Hit rates of the Session caches over the run (summed over sessions)."""
    if "status" in fixture:
        caches_list = [fixture["status"]["session"]["caches"]]
    else:
        caches_list = [o.info["cache"] for o in outcomes if "cache" in o.info]
    rates = {}
    for name in ("sta", "paths", "bounds", "compiled"):
        hits = sum(c.get(name, {}).get("hits", 0) for c in caches_list)
        misses = sum(c.get(name, {}).get("misses", 0) for c in caches_list)
        rates[name] = hits / (hits + misses) if hits + misses else 0.0
    return rates


def per_layer(tracer: Any, outcomes: List[Any], fixture: Dict[str, Any],
              job_wall_s: float, overhead_frac: float
              ) -> Tuple[Dict[str, Tuple[float, str]], List[Tuple], Dict[str, Tuple]]:
    """Per-layer metrics, self-time table rows and leaf totals of a traced run."""
    metrics: Dict[str, Tuple[float, str]] = {}
    setup_spans = [s for s in tracer.spans if s.phase == "setup"]
    for layer, name in (("buffering.flimit.characterize", "buffering.flimit.characterize_s"),
                        ("iscas.generate", "iscas.generate_s")):
        metrics[name] = (sum(s.end - s.start for s in setup_spans if s.name == layer), "s")
    totals = tracer.layer_totals("jobs")
    rows = []
    for layer, entry in totals.items():
        if layer not in ("buffering.flimit.characterize", "iscas.generate"):
            metrics[f"{layer}.calls"] = (entry["calls"], "count")
            metrics[f"{layer}.self_s"] = (entry["self_s"], "s")
        if entry["calls"]:
            rows.append((layer, entry["calls"], entry["self_s"]))
    rows.sort(key=lambda row: -row[2])
    leaves = tracer.leaf_calls("jobs")
    for layer, (calls, seconds) in leaves.items():
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.total_s"] = (seconds, "s")

    def count(name: str) -> float:
        return tracer.count("jobs", name)

    tmin_calls = totals["sizing.min_delay_bound"]["calls"]
    memo_served = count("sizing.min_delay_bound.memo_served")
    # Sweeps and caps count only the solves that ran, not the ones the
    # sweep's warm-start memo served.
    solved = tmin_calls - memo_served
    metrics["sizing.min_delay_bound.memo_served"] = (memo_served, "count")
    metrics["sizing.min_delay_bound.sweeps"] = (count("sizing.min_delay_bound.sweeps"), "count")
    metrics["sizing.min_delay_bound.capped_frac"] = (
        count("sizing.min_delay_bound.capped") / solved if solved else 0.0, "ratio")
    metrics["sizing.min_delay_bound.repeat_frac"] = (
        count("sizing.min_delay_bound.repeats") / tmin_calls if tmin_calls else 0.0, "ratio")
    metrics["sizing.distribute_constraint.evals"] = (
        count("sizing.distribute_constraint.evals"), "count")
    metrics["timing.incremental.gates_reevaluated"] = (
        count("timing.incremental.gates_reevaluated"), "count")
    # Serialised size of the run's records (their lossless JSON), taken
    # here because the daemon and the campaign store serialise through
    # ``to_dict`` and their own ``json.dumps``.
    metrics["api.records.bytes"] = (
        sum(len(o.record.to_json()) for o in outcomes if o.record is not None), "bytes")

    circuit_records = [o.record for o in outcomes
                       if o.record is not None and o.record.kind == "optimize-circuit"]
    proposed = applied = 0
    for record in circuit_records:
        for p in (record.telemetry or {}).get("passes", []):
            proposed += p["proposed"]
            applied += p["applied_sizing"] + p["applied_structural"]
    metrics["protocol.passes"] = (sum(r.payload.passes for r in circuit_records), "count")
    metrics["protocol.moves_applied_frac"] = (applied / proposed if proposed else 0.0, "ratio")

    for name, rate in cache_hit_rates(outcomes, fixture).items():
        metrics[f"api.cache.hit_rate.{name}"] = (rate, "ratio")

    waits = [o.info["queue_wait_s"] for o in outcomes if "queue_wait_s" in o.info]
    serve = fixture.get("status", {}).get("serve", {})
    metrics["serve.queue_wait_s.p50"] = (statistics.median(waits) if waits else 0.0, "s")
    metrics["serve.store_hit_frac"] = (
        sum(bool(o.info.get("cached")) for o in outcomes) / len(outcomes)
        if serve and outcomes else 0.0, "ratio")
    metrics["serve.coalesced"] = (serve.get("coalesced", 0), "count")
    metrics["serve.failed"] = (serve.get("failed", 0), "count")

    self_total = sum(entry["self_s"] for entry in totals.values())
    metrics["trace.job_wall_s"] = (job_wall_s, "s")
    metrics["trace.unattributed_frac"] = (1.0 - self_total / job_wall_s, "ratio")
    metrics["trace.overhead_frac"] = (overhead_frac, "ratio")
    return metrics, rows, leaves


# -- runs ------------------------------------------------------------------------


def fresh_scratch(tag: str) -> str:
    path = OUT / f"tmp-{os.getpid()}-{tag}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return str(path)


def timed_run(workload: Any, seed: int, seconds: float, layertrace: Any,
              workloads: Any) -> Dict[str, Any]:
    layertrace.assert_untraced()
    setups = []
    fixture = None
    reference = workloads.reference_s()
    for k in range(SETUP_REPEATS):
        if fixture is not None:
            workload.teardown(fixture)
        scratch = fresh_scratch(f"setup{k}")
        start = time.perf_counter()
        fixture = workload.setup(seed, scratch)
        wall = time.perf_counter() - start
        after = workloads.reference_s()
        setups.append((wall, workloads.REFERENCE_NOMINAL_S / (0.5 * (reference + after))))
        reference = after
    try:
        outcomes, units = workload.run(fixture, seed, seconds)
        workload.check(fixture, outcomes, seed)
    finally:
        workload.teardown(fixture)
    layertrace.assert_untraced()
    return {
        "outcomes": outcomes,
        "end_to_end": end_to_end(outcomes, units, setups),
        "host_scale": sum(w * k for w, k in units) / sum(w for w, _ in units),
    }


def traced_run(workload: Any, seed: int, seconds: float, layertrace: Any,
               spans_path: Path) -> Dict[str, Any]:
    layertrace.assert_untraced()
    fixture = workload.setup(seed, fresh_scratch("reference"))
    try:
        _, reference_units = workload.run(fixture, seed, seconds * REFERENCE_SHARE,
                                          whole_passes=False)
    finally:
        workload.teardown(fixture)

    tracer = layertrace.LayerTracer()
    tracer.install()
    try:
        tracer.phase = "setup"
        fixture = workload.setup(seed, fresh_scratch("traced"))
        try:
            tracer.phase = "jobs"
            outcomes, traced_units = workload.run(fixture, seed, 0.0,
                                                  max_units=len(reference_units),
                                                  tracer=tracer)
            tracer.enabled = False
            workload.check(fixture, outcomes, seed)
        finally:
            workload.teardown(fixture)
    finally:
        tracer.uninstall()
    tracer.write_jsonl(str(spans_path))
    job_wall = workload.job_wall(outcomes, traced_units)
    # Overhead compares normalised unit times, so host drift between the
    # untraced and the traced half does not read as tracing cost.
    overhead = (sum(w * k for w, k in traced_units)
                / sum(w * k for w, k in reference_units) - 1.0)
    metrics, rows, leaves = per_layer(tracer, outcomes, fixture, job_wall, overhead)
    return {"outcomes": outcomes, "per_layer": metrics, "rows": rows, "leaves": leaves,
            "units": len(traced_units), "job_wall_s": job_wall}


def fmt(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layertrace
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-s{args.seed}-t{args.trace}"
    env = environment(args.seed, workloads)
    print(f"# {workload.name}: {workload_why(workload.name)}")
    print("# env " + json.dumps(env, sort_keys=True))
    try:
        if args.trace:
            spans_path = OUT / f"{workload.name}-s{args.seed}.spans.jsonl"
            result = traced_run(workload, args.seed, args.seconds, layertrace, spans_path)
            metrics = result["per_layer"]
            print(f"# traced {result['units']} unit(s); Job wall "
                  f"{result['job_wall_s']:.4f} s; spans -> {spans_path.relative_to(ROOT)}")
            print(f"{'layer':48s} {'calls':>9s} {'self_s':>10s} {'share':>7s}")
            wall = result["job_wall_s"]
            for layer, calls, self_s in result["rows"]:
                print(f"{layer:48s} {calls:9d} {self_s:10.4f} {self_s / wall:7.2%}")
            unattributed = metrics["trace.unattributed_frac"][0]
            print(f"{'(unattributed)':48s} {'':9s} {unattributed * wall:10.4f} "
                  f"{unattributed:7.2%}")
            total = sum(row[2] for row in result["rows"]) + unattributed * wall
            print(f"{'(Job wall)':48s} {'':9s} {total:10.4f} {total / wall:7.2%}")
            for layer, (calls, seconds) in result["leaves"].items():
                print(f"{'leaf ' + layer:48s} {calls:9d} {seconds:10.4f} {seconds / wall:7.2%}"
                      "  (inside the self times above)")
            print("# per-layer metrics")
            for name, (value, unit) in metrics.items():
                print(f"{name:52s} {fmt(value):>14s} {unit}")
            report = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        else:
            result = timed_run(workload, args.seed, args.seconds, layertrace, workloads)
            print(f"# host speed {result['host_scale']:.3f} x nominal; times are "
                  "normalised to nominal speed, wall-clock values beside them")
            print(f"{'metric':16s} {'value':>14s} {'wall-clock':>14s} {'unit':8s} samples")
            for name, (value, raw, unit, n) in result["end_to_end"].items():
                note = ""
                if name == "job_s.p90" and value is None:
                    note = f"  (needs >= {P90_MIN_SAMPLES} Jobs)"
                wall_clock = "" if raw is None else fmt(raw)
                print(f"{name:16s} {fmt(value):>14s} {wall_clock:>14s} {unit:8s} {n}{note}")
            report = {name: {"value": v, "wall_clock": r, "unit": u, "samples": n}
                      for name, (v, r, u, n) in result["end_to_end"].items()}
    finally:
        for tmp in OUT.glob(f"tmp-{os.getpid()}-*"):
            shutil.rmtree(tmp, ignore_errors=True)

    outcomes = result["outcomes"]
    failed = [o for o in outcomes if o.error is not None]
    shape = character(workload.name, outcomes)
    print("# character " + json.dumps(shape, sort_keys=True))
    for outcome in failed[:5]:
        print(f"# failed {outcome.kind}: {outcome.error}")
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "env": env, "metrics": report,
                   "character": shape, "attempted": len(outcomes),
                   "failed": len(failed),
                   "jobs": [{"kind": o.kind, "latency_s": o.latency_s, "scale": o.scale,
                             "first_pass": o.first_pass, "error": o.error,
                             "cached": o.info.get("cached"),
                             "label": o.record.job.label if o.record and o.record.job
                             else None}
                            for o in outcomes]},
                  fh, indent=1, sort_keys=True)

    if args.trace:
        names = list(result["per_layer"])
        source = result["per_layer"]
        line = {name: {"value": source[name][0], "unit": source[name][1]} for name in names}
    else:
        source = result["end_to_end"]
        line = {name: {"value": source[name][0], "unit": source[name][2]}
                for name in END_TO_END}
    print(json.dumps({"correct": not failed, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": line}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
