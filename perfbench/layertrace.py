"""Per-layer tracing of the ``repro`` package, done entirely from outside it.

A :class:`LayerTracer` replaces each public layer function listed in
:data:`LAYERS` by a recording wrapper at **every module binding** of it:
every attribute of every module in ``sys.modules`` that *is* the
original function object is swapped for the wrapper, and a meta-path
hook does the same for modules imported while the tracer is installed.
Methods are wrapped on their class.  :meth:`LayerTracer.uninstall` puts
every original back and :func:`assert_untraced` proves it.

Each wrapped call records a :class:`Span` (name, start, end, parent span,
Job id, phase).  Spans stay in memory and are written as JSONL at the
end.  A layer's self time is its span duration minus the time its child
spans cover.  Hot leaves (``leaf=True``) record only a call count and
summed time, not a span, so their time stays inside the self time of
the layer that called them and is reported beside it, never added on
top.  Ratios come from return values and from the call arguments
(``after`` hooks), never from program internals.
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Marks a wrapper so scans can tell it from an original.
WRAPPED_ATTR = "__layertrace_original__"


@dataclass(frozen=True)
class Layer:
    """One public layer function to wrap.

    ``qualname`` is ``"function"`` or ``"Class.method"`` inside
    ``module``; ``metric`` is the name the per-layer table reports.
    ``after(tracer, span, args, kwargs, result, before)`` derives counts
    from a call's arguments and return value; ``before(args, kwargs)``
    captures what ``after`` needs from the state before the call.
    """

    module: str
    qualname: str
    metric: str
    leaf: bool = False
    before: Optional[Callable[..., Any]] = None
    after: Optional[Callable[..., None]] = None
    #: Calls made directly from a span of one of these layers are folded
    #: into that caller (a convenience wrapper and the function it
    #: delegates to count as one layer call).
    folds_into: Tuple[str, ...] = ()


class Span:
    """One recorded call of a wrapped layer function."""

    __slots__ = (
        "id", "parent", "job", "name", "phase", "start", "end", "thread", "child_s",
        "before",
    )

    def __init__(self, sid: int, parent: Optional["Span"], job: Optional[str],
                 name: str, phase: str) -> None:
        self.id = sid
        self.parent = parent.id if parent is not None else None
        self.job = job
        self.name = name
        self.phase = phase
        self.thread = threading.get_ident()
        self.child_s = 0.0
        #: What the layer's ``before`` hook captured from the call.
        self.before: Any = None
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id, "parent": self.parent, "job": self.job,
            "name": self.name, "phase": self.phase, "thread": self.thread,
            "start": self.start, "end": self.end, "self_s": self.self_s,
        }


# -- derived counts (after hooks) -------------------------------------------


@functools.lru_cache(maxsize=None)
def _signature(module: str, name: str) -> inspect.Signature:
    """A layer function's signature (``inspect`` follows a wrapper to it)."""
    return inspect.signature(getattr(importlib.import_module(module), name))


def _call_arguments(module: str, name: str, args: tuple, kwargs: dict) -> Dict[str, Any]:
    """Every argument of a call by parameter name, defaults filled in."""
    bound = _signature(module, name).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _warm_before(args: tuple, kwargs: dict) -> Any:
    """The sweep's warm start of an ``optimize_circuit`` call, if any."""
    return _call_arguments("repro.protocol.optimizer", "optimize_circuit", args, kwargs)["warm"]


def _enclosing_warm(tracer: "LayerTracer") -> Any:
    """The warm start of the innermost ``optimize_circuit`` on this thread.

    ``optimize_circuit`` activates its warm start's eq. 4 memo around the
    whole call, so every ``min_delay_bound`` below it can be memo-served.
    """
    for span in reversed(tracer._stack()):
        if span.name == "protocol.optimize_circuit":
            return span.before
    return None


def _min_delay_bound_after(tracer: "LayerTracer", span: Span, args: tuple,
                           kwargs: dict, result: Any, before: Any) -> None:
    signature = _signature("repro.sizing.bounds", "min_delay_bound")
    call = _call_arguments("repro.sizing.bounds", "min_delay_bound", args, kwargs)
    if not call["library"].delay_backend.capabilities.closed_form_bounds:
        # Without closed-form bounds the solver lowers its own cap.
        raise RuntimeError("capped_frac is defined for closed-form delay backends only")
    path = call["path"]
    iterations = int(result[3])
    fingerprint = path.fingerprint()
    extra = tuple(
        None if call[name] is None else bytes(memoryview(call[name]).cast("B"))
        for name in ("start_sizes", "frozen")
    )
    key = (fingerprint, call["cref_ff"], call["polish"], extra)
    # The warm-start memo serves a default-argument solve it has seen
    # before without running a sweep; it returns the stored iteration
    # count, which must not be counted as work again.
    defaults = (all(call[name] is None for name in ("cref_ff", "start_sizes", "frozen"))
                and all(call[name] == signature.parameters[name].default
                        for name in ("max_iterations", "tol_ps")))
    warm = _enclosing_warm(tracer) if defaults else None
    with tracer.lock:
        seen = tracer.solved[span.job]
        repeat = key in seen
        seen.add(key)
        memo_served = False
        if warm is not None:
            memo_keys = tracer.memo_keys(warm)
            memo_key = (id(call["library"]), call["polish"], fingerprint)
            memo_served = memo_key in memo_keys
            memo_keys.add(memo_key)
        tracer.add(span, "sizing.min_delay_bound.repeats", int(repeat))
        tracer.add(span, "sizing.min_delay_bound.memo_served", int(memo_served))
        if not memo_served:
            tracer.add(span, "sizing.min_delay_bound.sweeps", iterations)
            tracer.add(span, "sizing.min_delay_bound.capped",
                       int(iterations >= call["max_iterations"]))


def _distribute_after(tracer: "LayerTracer", span: Span, args: tuple,
                      kwargs: dict, result: Any, before: Any) -> None:
    with tracer.lock:
        tracer.add(span, "sizing.distribute_constraint.evals",
                   int(result.solver_evaluations))


def _engine_before(args: tuple, kwargs: dict) -> int:
    return int(args[0].stats.gates_reevaluated)


def _engine_after(tracer: "LayerTracer", span: Span, args: tuple,
                  kwargs: dict, result: Any, before: Any) -> None:
    with tracer.lock:
        tracer.add(span, "timing.incremental.gates_reevaluated",
                   int(args[0].stats.gates_reevaluated) - before)


#: The layers the benchmark times, by public function.
LAYERS: Tuple[Layer, ...] = (
    Layer("repro.buffering.flimit", "characterize_library", "buffering.flimit.characterize"),
    Layer("repro.iscas.generator", "generate_circuit", "iscas.generate"),
    Layer("repro.api.session", "Session.optimize", "api.session.optimize"),
    Layer("repro.api.session", "Session.bounds", "api.session.bounds"),
    Layer("repro.api.session", "Session.power", "api.session.power"),
    Layer("repro.api.session", "Session.mc", "api.session.mc"),
    Layer("repro.sizing.bounds", "min_delay_bound", "sizing.min_delay_bound",
          after=_min_delay_bound_after),
    Layer("repro.sizing.sensitivity", "distribute_constraint",
          "sizing.distribute_constraint", after=_distribute_after),
    Layer("repro.sizing.sensitivity", "solve_sensitivity", "sizing.solve_sensitivity"),
    Layer("repro.timing.evaluation", "path_delay_ps", "timing.path_delay_ps", leaf=True),
    Layer("repro.buffering.insertion", "distribute_with_buffers",
          "buffering.distribute_with_buffers"),
    Layer("repro.buffering.insertion", "min_delay_with_buffers",
          "buffering.min_delay_with_buffers"),
    Layer("repro.restructuring.demorgan", "distribute_with_restructuring",
          "restructuring.distribute_with_restructuring"),
    Layer("repro.timing.critical_paths", "critical_path", "timing.critical_path"),
    Layer("repro.timing.critical_paths", "k_critical_paths", "timing.k_critical_paths",
          folds_into=("timing.critical_path",)),
    Layer("repro.timing.incremental", "IncrementalSta.rebuild", "timing.incremental.rebuild"),
    Layer("repro.timing.incremental", "IncrementalSta.update", "timing.incremental.update",
          before=_engine_before, after=_engine_after),
    Layer("repro.timing.incremental", "IncrementalSta.refresh_structure",
          "timing.incremental.refresh_structure", before=_engine_before, after=_engine_after),
    Layer("repro.timing.incremental", "IncrementalSta.retarget",
          "timing.incremental.retarget"),
    Layer("repro.protocol.optimizer", "optimize_circuit", "protocol.optimize_circuit",
          before=_warm_before),
    Layer("repro.protocol.optimizer", "optimize_path", "protocol.optimize_path"),
    Layer("repro.api.records", "RunRecord.to_dict", "api.records.to_dict"),
    Layer("repro.api.records", "RunRecord.to_json", "api.records.to_json"),
    Layer("repro.api.records", "RunRecord.from_dict", "api.records.from_dict"),
    Layer("repro.explore.runner", "run_sweep", "explore.run_sweep"),
    Layer("repro.explore.store", "CampaignStore.append", "explore.store.append"),
    Layer("repro.analysis.power", "estimate_power", "analysis.estimate_power"),
    Layer("repro.analysis.activity", "estimate_activity", "analysis.estimate_activity"),
    Layer("repro.mc.result", "mc_analyze", "mc.mc_analyze"),
    Layer("repro.mc.kernel", "batch_analyze", "mc.batch_analyze"),
)


def _resolve(layer: Layer) -> Tuple[Optional[type], str, Any]:
    """``(owner class or None, attribute name, raw attribute)`` of a layer."""
    module = importlib.import_module(layer.module)
    owner_name, _, attr = layer.qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        return owner, attr, owner.__dict__[attr]
    return None, attr, getattr(module, attr)


def assert_untraced(layers: Tuple[Layer, ...] = LAYERS) -> None:
    """Raise unless every layer's original object is in place everywhere.

    Checks the defining binding of every layer and scans every loaded
    module for a leftover wrapper, so timed numbers are never taken with
    tracing patched in.
    """
    for layer in layers:
        _, _, raw = _resolve(layer)
        func = getattr(raw, "__func__", raw)
        if hasattr(func, WRAPPED_ATTR):
            raise RuntimeError(f"{layer.module}.{layer.qualname} is still wrapped")
    for name, module in list(sys.modules.items()):
        for attr, value in _module_items(module):
            if callable(value) and hasattr(value, WRAPPED_ATTR):
                raise RuntimeError(f"{name}.{attr} is still a layer-trace wrapper")


def _module_items(module: Any) -> List[Tuple[str, Any]]:
    try:
        return list(vars(module).items())
    except TypeError:
        return []


class _PatchingLoader(importlib.abc.Loader):
    """Delegates to the real loader, then patches the fresh module."""

    def __init__(self, inner: Any, tracer: "LayerTracer") -> None:
        self._inner = inner
        self._tracer = tracer

    def create_module(self, spec: Any) -> Any:
        return self._inner.create_module(spec)

    def exec_module(self, module: Any) -> None:
        self._inner.exec_module(module)
        self._tracer.patch_module(module)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class _PatchingFinder(importlib.abc.MetaPathFinder):
    """Meta-path hook: modules imported while installed get patched too."""

    def __init__(self, tracer: "LayerTracer") -> None:
        self._tracer = tracer

    def find_spec(self, fullname: str, path: Any, target: Any = None) -> Any:
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is None:
                continue
            if spec.loader is not None and hasattr(spec.loader, "exec_module"):
                spec.loader = _PatchingLoader(spec.loader, self._tracer)
            return spec
        return None


class LayerTracer:
    """Installs layer wrappers, records spans and aggregates per layer."""

    def __init__(self, layers: Tuple[Layer, ...] = LAYERS) -> None:
        self.layers = layers
        self.enabled = True
        #: Set by the harness: ``"setup"`` or ``"jobs"``; stamped on spans.
        self.phase = "setup"
        self.lock = threading.Lock()
        self.spans: List[Span] = []
        #: One ``(phase, name) -> [calls, seconds]`` table per thread, so
        #: concurrent leaf calls never race on a shared counter.
        self._leaf_tables: List[Dict[Tuple[str, str], List[float]]] = []
        #: (phase, counter) -> value for after-hook counts.
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        #: Job id -> eq. 4 problems solved in that Job (repeat detection).
        self.solved: Dict[Optional[str], set] = defaultdict(set)
        #: id(warm start) -> (warm start, eq. 4 keys its memo holds).  The
        #: warm start is kept so its id is not reused while traced.
        self._memos: Dict[int, Tuple[Any, set]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._by_original: Dict[int, Tuple[Any, Any]] = {}
        self._by_wrapper: Dict[int, Tuple[Any, Any]] = {}
        self._class_patches: List[Tuple[type, str, Any]] = []
        self._module_patches: List[Tuple[Any, str, Any, Any]] = []
        self._finder: Optional[_PatchingFinder] = None

    # -- thread-local context -------------------------------------------

    def _leaf_table(self) -> Dict[Tuple[str, str], List[float]]:
        table = getattr(self._local, "leaf", None)
        if table is None:
            table = self._local.leaf = defaultdict(lambda: [0, 0.0])
            with self.lock:
                self._leaf_tables.append(table)
        return table

    @property
    def leaf_totals(self) -> Dict[Tuple[str, str], List[float]]:
        """``(phase, name) -> [calls, seconds]`` summed over threads."""
        merged: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0])
        with self.lock:
            tables = list(self._leaf_tables)
        for table in tables:
            for key, (calls, seconds) in list(table.items()):
                merged[key][0] += calls
                merged[key][1] += seconds
        return merged

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def job(self, job_id: str) -> Iterator[None]:
        """Spans opened in this thread inside the block belong to ``job_id``."""
        previous = getattr(self._local, "job", None)
        self._local.job = job_id
        try:
            yield
        finally:
            self._local.job = previous

    def memo_keys(self, warm: Any) -> set:
        """The eq. 4 keys a warm start's memo holds (caller holds lock)."""
        entry = self._memos.setdefault(id(warm), (warm, set()))
        return entry[1]

    def add(self, span: Span, counter: str, value: float) -> None:
        """Add to a derived counter in the span's phase (caller holds lock)."""
        self.counts[(span.phase, counter)] += value

    # -- wrappers -------------------------------------------------------

    def _make_wrapper(self, layer: Layer, original: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        name = layer.metric

        if layer.leaf:
            @functools.wraps(original)
            def leaf_wrapper(*args: Any, **kwargs: Any) -> Any:
                if not tracer.enabled:
                    return original(*args, **kwargs)
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    totals = tracer._leaf_table()[(tracer.phase, name)]
                    totals[0] += 1
                    totals[1] += elapsed
            setattr(leaf_wrapper, WRAPPED_ATTR, original)
            return leaf_wrapper

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent.name in layer.folds_into:
                return original(*args, **kwargs)
            sid = next(tracer._ids)
            if parent is not None:
                job = parent.job
            else:
                # A root span outside any harness Job (a daemon worker
                # thread) is its own Job.
                job = getattr(tracer._local, "job", None) or f"span-{sid}"
            span = Span(sid, parent, job, name, tracer.phase)
            before = layer.before(args, kwargs) if layer.before is not None else None
            span.before = before
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                tracer.spans.append(span)
            if layer.after is not None:
                layer.after(tracer, span, args, kwargs, result, before)
            return result

        setattr(wrapper, WRAPPED_ATTR, original)
        return wrapper

    # -- install / uninstall --------------------------------------------

    def install(self) -> None:
        """Wrap every layer at every module binding and hook new imports."""
        for layer in self.layers:
            owner, attr, raw = _resolve(layer)
            is_classmethod = isinstance(raw, classmethod)
            original = raw.__func__ if is_classmethod else raw
            if hasattr(original, WRAPPED_ATTR):
                raise RuntimeError(f"{layer.qualname} is already wrapped")
            wrapper = self._make_wrapper(layer, original)
            if owner is not None:
                self._class_patches.append((owner, attr, raw))
                setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
            else:
                self._by_original[id(original)] = (original, wrapper)
                self._by_wrapper[id(wrapper)] = (original, wrapper)
        for module in list(sys.modules.values()):
            self.patch_module(module)
        self._finder = _PatchingFinder(self)
        sys.meta_path.insert(0, self._finder)

    def patch_module(self, module: Any) -> None:
        """Swap every attribute of ``module`` that is a wrapped original.

        A module imported while the tracer is installed may already hold
        a wrapper (``from x import f``); that binding is recorded too, so
        :meth:`uninstall` hands it the original back.
        """
        for attr, value in _module_items(module):
            entry = self._by_original.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                self._module_patches.append((module, attr, value, entry[1]))
                continue
            entry = self._by_wrapper.get(id(value))
            if entry is not None and entry[1] is value:
                self._module_patches.append((module, attr, entry[0], value))

    def uninstall(self) -> None:
        """Restore every original binding, then verify none is left wrapped."""
        if self._finder is not None:
            sys.meta_path.remove(self._finder)
            self._finder = None
        for module, attr, original, wrapper in reversed(self._module_patches):
            if getattr(module, attr, None) is wrapper:
                setattr(module, attr, original)
        for owner, attr, raw in reversed(self._class_patches):
            setattr(owner, attr, raw)
        self._module_patches.clear()
        self._class_patches.clear()
        self._by_original.clear()
        self._by_wrapper.clear()
        self.enabled = False
        assert_untraced(self.layers)

    @property
    def patched_bindings(self) -> List[Tuple[str, str]]:
        """``(module name, attribute)`` of every module binding patched."""
        return [(m.__name__, attr) for m, attr, _, _ in self._module_patches]

    # -- aggregation ----------------------------------------------------

    def layer_totals(self, phase: str) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls": n, "self_s": s}}`` of the span layers in a phase."""
        totals: Dict[str, Dict[str, float]] = {
            layer.metric: {"calls": 0, "self_s": 0.0} for layer in self.layers
            if not layer.leaf
        }
        for span in self.spans:
            if span.phase == phase:
                entry = totals[span.name]
                entry["calls"] += 1
                entry["self_s"] += span.self_s
        return totals

    def leaf_calls(self, phase: str) -> Dict[str, Tuple[int, float]]:
        """``{leaf layer: (calls, summed seconds)}`` in a phase."""
        merged = {layer.metric: (0, 0.0) for layer in self.layers if layer.leaf}
        for (leaf_phase, name), (calls, seconds) in self.leaf_totals.items():
            if leaf_phase == phase:
                merged[name] = (int(calls), float(seconds))
        return merged

    def count(self, phase: str, counter: str) -> float:
        return self.counts.get((phase, counter), 0.0)

    def write_jsonl(self, path: str) -> None:
        """Spans, one JSON object a line, then one line per leaf total."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")
            for (phase, name), (calls, seconds) in sorted(self.leaf_totals.items()):
                fh.write(json.dumps({"leaf": name, "phase": phase, "calls": calls,
                                     "total_s": seconds}) + "\n")
