"""Span tracer and the wrappers that time calls into each layer.

Tracing lives entirely in the benchmark: :func:`install` replaces the
public functions and methods listed in :data:`TARGETS` with wrappers that
record a span per call (name, start, end, parent span, operation id) and
bump counters.  Module-level functions are replaced in every loaded
``repro`` module that imported them by name, so call sites that did
``from .heuristic import schedule_layer_greedy`` are covered too.
:meth:`Installation.undo` restores the originals.

Spans stay in memory until :meth:`Tracer.write` exports them as JSON
lines and as Chrome trace events (open the latter in Perfetto or
``chrome://tracing``).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import importlib.abc
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict

_current_span: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
_current_op: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_op", default=None
)


def set_operation(op_id: str | None) -> contextvars.Token:
    """Mark the calling context as working on operation ``op_id``."""
    return _current_op.set(op_id)


def reset_operation(token: contextvars.Token) -> None:
    """Undo the matching :func:`set_operation`."""
    _current_op.reset(token)


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._next = 0
        self.enabled = False

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += value

    def wrap(self, name: str, fn, hook=None):
        """``fn`` wrapped to record a ``name`` span.

        ``hook``, when given, is a pair of callables: ``before(args)``
        runs ahead of the call and ``after(result, args, state)`` after it,
        with ``state`` what ``before`` returned; they add counters.
        """
        tracer = self
        before, after = hook or (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            span_id = tracer._new_id()
            parent = _current_span.get()
            token = _current_span.set(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _current_span.reset(token)
                record = (
                    span_id, parent, name, start, end,
                    _current_op.get(), threading.get_ident(),
                )
                with tracer._lock:
                    tracer.spans.append(record)
            if after is not None:
                after(result, args, state)
            return result

        return traced

    # -- analysis ---------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Busy time counts a span only when no ancestor carries the same
        name (so re-entrant layers are not counted twice); self time is a
        span's duration minus the durations of its direct children.
        """
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[1] is not None:
                child_time[span[1]] += span[4] - span[3]
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(
                span[2], {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            duration = span[4] - span[3]
            entry["calls"] += 1
            entry["self_s"] += duration - child_time.get(span[0], 0.0)
            parent = span[1]
            nested = False
            while parent is not None:
                ancestor = by_id.get(parent)
                if ancestor is None:
                    break
                if ancestor[2] == span[2]:
                    nested = True
                    break
                parent = ancestor[1]
            if not nested:
                entry["busy_s"] += duration
        return out

    def write(self, stem: str) -> tuple[str, str]:
        """Write ``<stem>.spans.jsonl`` and ``<stem>.chrome.json``."""
        origin = min((s[3] for s in self.spans), default=0.0)
        jsonl = f"{stem}.spans.jsonl"
        chrome = f"{stem}.chrome.json"
        pid = os.getpid()
        events = []
        with open(jsonl, "w") as out:
            for span_id, parent, name, start, end, op, thread in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start - origin, "end": end - origin,
                    "op": op, "thread": thread,
                }) + "\n")
                events.append({
                    "name": name, "ph": "X", "pid": pid, "tid": thread,
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {"id": span_id, "parent": parent, "op": op},
                })
        with open(chrome, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)
        return jsonl, chrome


# -- counter hooks ---------------------------------------------------------
# Each factory takes the tracer and returns ``(before, after)``.


def _after_only(fn):
    def factory(tracer):
        return None, lambda result, args, state: fn(tracer, result)
    return factory


@_after_only
def _count_layers(tracer, result):
    tracer.count("layering.layers", result.num_layers)


@_after_only
def _count_model(tracer, result):
    model = result.model
    tracer.count("model.rows", model.num_constraints)
    tracer.count("model.cols", model.num_variables)
    tracer.count("model.nnz", sum(len(c.expr.terms) for c in model.constraints))


@_after_only
def _count_declined(tracer, result):
    if result is None:
        tracer.count("encode.delta.declined")


@_after_only
def _count_lookup(tracer, result):
    tracer.count("cache.lookups")
    if result is not None:
        tracer.count("cache.hits")


@_after_only
def _count_periodic(tracer, result):
    tracer.count("periodic.probes", len(result.probes))
    tracer.count("periodic.ii_sum", result.ii)


def _count_sessions(tracer):
    """Which of created / reused / rebuilt one acquire moved."""
    keys = ("created", "reused", "rebuilt")

    def before(args):
        return [getattr(args[0], k) for k in keys]

    def after(result, args, state):
        for key, old in zip(keys, state):
            tracer.count(f"session.{key}", getattr(args[0], key) - old)

    return before, after


def _count_policy(policy):
    def factory(tracer):
        def after(result, args, state):
            tracer.count(f"policy.{policy}.attempts")
            if result is not None and result.recovered:
                tracer.count(f"policy.{policy}.recovered")
        return None, after
    return factory


#: ``(module, qualified attribute, span name, counter hook factory)``.
TARGETS = (
    ("repro.layering.layering", "layer_assay", "layering", _count_layers),
    ("repro.hls.pipeline", "prepare_layer_problem", "prepare", None),
    ("repro.hls.pipeline", "apply_layer_result", "apply", None),
    ("repro.hls.milp_model", "build_layer_model", "encode.build",
     _count_model),
    ("repro.hls.milp_model", "encode_layer_delta", "encode.delta",
     _count_declined),
    ("repro.hls.milp_model", "encode_layer_start", "encode.warm", None),
    ("repro.hls.session", "SessionPool.acquire", "session.acquire",
     _count_sessions),
    ("repro.ilp.highs", "HighsSession.solve", "mip", None),
    ("repro.ilp.highs", "solve_highs", "mip", None),
    ("repro.ilp.solve", "available_backends", "ilp.attach", None),
    ("repro.ilp.relaxation", "relaxation_bound", "lp", None),
    ("repro.hls.heuristic", "schedule_layer_greedy", "greedy", None),
    ("repro.hls.rounding", "derive_rounding_guide", "rounding", None),
    ("repro.hls.decode", "decode_layer_solution", "decode", None),
    ("repro.hls.cache", "LayerSolveCache.lookup", "cache", _count_lookup),
    ("repro.hls.cache", "LayerSolveCache.store", "cache", None),
    ("repro.hls.transport", "TransportEstimator.refine", "transport", None),
    ("repro.storage.planner", "plan_storage", "storage.plan", None),
    ("repro.storage.planner", "validate_storage_plan", "storage.validate",
     None),
    ("repro.hls.validate", "validate_result", "validate", None),
    ("repro.periodic.scheduler", "schedule_throughput", "periodic",
     _count_periodic),
    ("repro.service.client", "ServiceClient.submit", "client.submit", None),
    ("repro.service.client", "ServiceClient.status", "client.wait", None),
    ("repro.service.client", "ServiceClient.result", "client.result", None),
    ("repro.service.store", "ResultStore.get", "store.get", None),
    ("repro.service.store", "ResultStore.put", "store.put", None),
    ("repro.cyberphysical.engine", "ExecutionEngine.run", "engine", None),
    ("repro.cyberphysical.policies", "RetryBackoffPolicy.attempt",
     "policy.retry", _count_policy("retry")),
    ("repro.cyberphysical.policies", "RebindSparePolicy.attempt",
     "policy.rebind", _count_policy("rebind")),
    ("repro.cyberphysical.policies", "ResynthesisPolicy.attempt",
     "policy.resynth", _count_policy("resynth")),
    ("repro.runtime.executor", "execute_schedule", "replay", None),
) + tuple(
    ("repro.service.journal", f"JobJournal.record_{kind}", "journal.append",
     None)
    for kind in ("submitted", "started", "finished", "failed", "cancelled")
)


#: Modules the program imports on first use; importing them up front
#: would move their cost (SciPy) out of the first timed operation.
LAZY_MODULES = ("repro.ilp.highs",)


class Installation:
    """The replacements made by :func:`install`, for :meth:`undo`."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []
        self.finder = None

    def patch(self, owner, attr: str, value) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        if self.finder is not None:
            sys.meta_path.remove(self.finder)
            self.finder = None
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def _patch_target(done, tracer, module, qualname, span, factory) -> None:
    hook = factory(tracer) if factory is not None else None
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name)
        done.patch(cls, attr, tracer.wrap(span, cls.__dict__[attr], hook))
        return
    original = getattr(module, qualname)
    wrapper = tracer.wrap(span, original, hook)
    for name, loaded in list(sys.modules.items()):
        if not name.startswith("repro") or loaded is None:
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                done.patch(loaded, attr, wrapper)


class _DeferredPatcher(importlib.abc.MetaPathFinder):
    """Patches targets of modules the program imports lazily (such as the
    SciPy-backed ``repro.ilp.highs``) when they are first imported, so
    tracing does not move their import cost."""

    def __init__(self, done, tracer, pending) -> None:
        self.done, self.tracer, self.pending = done, tracer, pending

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.pending:
            return None
        for finder in sys.meta_path:
            if finder is self:
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        exec_module = loader.exec_module
        patcher = self

        def exec_and_patch(module):
            exec_module(module)
            for target in patcher.pending.pop(fullname, ()):
                _patch_target(patcher.done, patcher.tracer, module, *target)

        loader.exec_module = exec_and_patch
        return spec


def install(tracer: Tracer) -> Installation:
    """Wrap every target in :data:`TARGETS`; returns what to undo."""
    done = Installation()
    pending: dict[str, list] = defaultdict(list)
    for module_name, *target in TARGETS:
        module = sys.modules.get(module_name)
        if module is None and module_name in LAZY_MODULES:
            pending[module_name].append(target)
            continue
        module = importlib.import_module(module_name)
        _patch_target(done, tracer, module, *target)
    if pending:
        finder = _DeferredPatcher(done, tracer, pending)
        sys.meta_path.insert(0, finder)
        done.finder = finder
    return done
