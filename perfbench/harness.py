"""Run bookkeeping shared by the workloads: set-up timing, whole rounds in
the timed window, operation records, metrics and the run record."""

from __future__ import annotations

import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import threading
import time

import repro
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: run records, span files and service scratch space (git-ignored).
OUT = os.path.join(HERE, "out")

#: Per-layer metrics printed by every traced run (see README.md for the
#: layer each belongs to and what it should move).
LAYER_METRICS = (
    ("layering.busy_s", "s"), ("layering.self_s", "s"),
    ("layering.calls", "count"), ("layering.layers", "count"),
    ("prepare.busy_s", "s"), ("prepare.calls", "count"),
    ("apply.busy_s", "s"),
    ("encode.build.busy_s", "s"), ("encode.build.self_s", "s"),
    ("encode.build.calls", "count"),
    ("model.rows", "count"), ("model.cols", "count"), ("model.nnz", "count"),
    ("encode.delta.busy_s", "s"), ("encode.delta.calls", "count"),
    ("encode.delta.declined", "count"), ("encode.warm.busy_s", "s"),
    ("session.acquire.busy_s", "s"), ("session.acquire.self_s", "s"),
    ("session.created", "count"), ("session.reused", "count"),
    ("session.rebuilt", "count"),
    ("mip.busy_s", "s"), ("mip.self_s", "s"), ("mip.calls", "count"),
    ("ilp.attach.busy_s", "s"),
    ("lp.busy_s", "s"), ("lp.self_s", "s"), ("lp.calls", "count"),
    ("greedy.busy_s", "s"), ("greedy.self_s", "s"), ("greedy.calls", "count"),
    ("rounding.busy_s", "s"),
    ("decode.busy_s", "s"), ("decode.calls", "count"),
    ("cache.lookups", "count"), ("cache.hits", "count"),
    ("cache.hit_ratio", "ratio"), ("cache.busy_s", "s"),
    ("transport.busy_s", "s"),
    ("storage.plan.calls", "count"), ("storage.plan.busy_s", "s"),
    ("storage.validate.busy_s", "s"),
    ("validate.busy_s", "s"),
    ("periodic.calls", "count"), ("periodic.busy_s", "s"),
    ("periodic.self_s", "s"), ("periodic.probes", "count"),
    ("periodic.ii_sum", "count"),
    ("client.submit_s", "s"), ("client.wait_s", "s"), ("client.result_s", "s"),
    ("queue.wait_s", "s"), ("worker.busy_s", "s"),
    ("worker.utilization", "ratio"),
    ("store.hits", "count"), ("store.misses", "count"),
    ("coalesce.hits", "count"), ("solve.jobs", "count"),
    ("worker.encode_s", "s"), ("worker.solve_s", "s"),
    ("store.get.calls", "count"), ("store.get.busy_s", "s"),
    ("store.put.calls", "count"), ("store.put.busy_s", "s"),
    ("journal.append.calls", "count"), ("journal.append.busy_s", "s"),
    ("engine.runs", "count"), ("engine.busy_s", "s"), ("engine.self_s", "s"),
    ("policy.retry.attempts", "count"), ("policy.retry.recovered", "count"),
    ("policy.retry.busy_s", "s"),
    ("policy.rebind.attempts", "count"), ("policy.rebind.recovered", "count"),
    ("policy.rebind.busy_s", "s"),
    ("policy.resynth.attempts", "count"),
    ("policy.resynth.recovered", "count"), ("policy.resynth.busy_s", "s"),
    ("policy.resynth.self_s", "s"),
    ("replay.runs", "count"), ("replay.busy_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
)

#: Span names whose call count is reported under another metric name.
_CALL_ALIASES = {"engine": "engine.runs", "replay": "replay.runs"}
#: Span names whose busy time is reported under another metric name.
_BUSY_ALIASES = {
    "client.submit": "client.submit_s",
    "client.wait": "client.wait_s",
    "client.result": "client.result_s",
}


#: Known program faults kept as counted failures (see README.md): a failed
#: operation counts as its fault only when every one of its problems
#: matches the fault's signature; any other problem is unexpected.
KNOWN_FAULTS = {
    "F1": r"F1: greedy schedule differs between hash seeds",
    "F2": r"raised .*one-shot schedule fails periodic replay at II = makespan",
    "F3": r"run failed: .* after 3 re-syntheses$",
    "F4": r"F4: reported bound \S+ exceeds the kept schedule's objective",
}


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Run:
    """One benchmark invocation: its set-up, rounds and operations."""

    def __init__(self, args, started: float, hash_seed: int) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.started = started
        self.hash_seed = hash_seed
        self.tracer = tracing.Tracer()
        self.installation = tracing.install(self.tracer) if self.trace else None
        self.setup_s: float | None = None
        #: (latency seconds, ok, traced, round index, label, delivered);
        #: ``delivered`` is true when the operation passed or failed only
        #: by F4, whose schedule is delivered and checked and only the
        #: reported bound is wrong.
        self.ops: list[tuple[float, bool, bool, int, str, bool]] = []
        #: (label, first problems, whether they are the label's known fault)
        self.failures: list[tuple[str, list[str], bool]] = []
        #: operation label -> the known fault (``KNOWN_FAULTS``) it trips.
        self.expected_faults: dict[str, str] = {}
        self.quality: dict[str, float] = {}
        self.layer_extra: dict[str, float] = {}
        self.notes: dict = {"child_hash_seeds": []}
        self.rounds_run = 0
        #: whether the round now running is traced.
        self.traced_round = False
        self.window_start = self.window_end = 0.0
        self._lock = threading.Lock()

    # -- set-up -----------------------------------------------------------

    def setup(self, fn):
        """Run set-up once; ``setup_s`` is the time from process start
        (before ``import repro``) to the end of set-up, which is the start
        of the first timed operation."""
        value = fn()
        self.setup_s = time.monotonic() - self.started
        return value

    # -- the timed window ---------------------------------------------------

    def rounds(self, round_fn) -> None:
        """Run whole rounds until ``seconds`` have elapsed.

        Traced runs alternate traced and untraced rounds (the first is
        traced, so first-call costs are seen) and run at least three, so
        the tracing overhead compares later traced rounds with untraced
        ones.
        """
        self.window_start = time.monotonic()
        index = 0
        while True:
            self.traced_round = self.trace and index % 2 == 0
            self.tracer.enabled = self.traced_round
            round_fn(index)
            index += 1
            elapsed = time.monotonic() - self.window_start
            if elapsed >= self.seconds and index >= (3 if self.trace else 1):
                break
        self.tracer.enabled = False
        self.traced_round = False
        self.window_end = time.monotonic()
        self.rounds_run = index

    def call(self, round_index: int, label: str, fn):
        """Time one operation; returns ``(latency, value, error)``."""
        token = tracing.set_operation(f"r{round_index}:{label}")
        began = time.perf_counter()
        try:
            value, error = fn(), None
        except Exception as exc:  # an operation that raises has failed
            value, error = None, exc
        latency = time.perf_counter() - began
        tracing.reset_operation(token)
        return latency, value, error

    def record(self, latency: float, problems: list[str], round_index: int,
               label: str, traced: bool | None = None) -> None:
        """Record one attempted operation and whether it passed."""
        traced = self.traced_round if traced is None else traced
        fault = self.expected_faults.get(label)
        known = bool(problems) and fault is not None and all(
            re.match(KNOWN_FAULTS[fault], p) for p in problems)
        delivered = not problems or (known and fault == "F4")
        with self._lock:
            self.ops.append((latency, not problems, traced, round_index,
                             label, delivered))
            if problems:
                self.failures.append((label, list(problems)[:3], known))

    # -- results ------------------------------------------------------------

    def _end_to_end(self) -> dict[str, tuple[float, str]]:
        good = [op[0] for op in self.ops if op[5]]
        window = self.window_end - self.window_start
        rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
        metrics = {
            "setup_s": (self.setup_s, "s"),
            "op_p50_s": (statistics.median(good) if good else None, "s"),
            "op_p95_s": (percentile(good, 0.95) if good else None, "s"),
            "goodput_ops_s": (len(good) / window, "1/s"),
            "rss_peak_mb": (rss, "MB"),
        }
        units = {"makespan_sum": "min", "devices_sum": "count",
                 "paths_sum": "count", "objective_sum": "cost",
                 "bound_sum": "cost"}
        for name, unit in units.items():
            metrics[name] = (self.quality.get(name), unit)
        return metrics

    def _per_layer(self) -> dict[str, tuple[float, str]]:
        values: dict[str, float] = {name: 0.0 for name, _ in LAYER_METRICS}
        for name, totals in self.tracer.layer_totals().items():
            values[_BUSY_ALIASES.get(name, f"{name}.busy_s")] = totals["busy_s"]
            values[f"{name}.self_s"] = totals["self_s"]
            values[_CALL_ALIASES.get(name, f"{name}.calls")] = totals["calls"]
        values.update(self.tracer.counts)
        values.update(self.layer_extra)
        lookups = values.get("cache.lookups", 0)
        values["cache.hit_ratio"] = values["cache.hits"] / lookups if lookups else 0.0
        values["trace.spans"] = len(self.tracer.spans)
        late_traced = [op[0] for op in self.ops
                       if op[5] and op[2] and op[3] >= 2]
        untraced = [op[0] for op in self.ops if op[5] and not op[2]]
        if late_traced and untraced:
            base = statistics.median(untraced)
            overhead = statistics.median(late_traced) - base
            values["trace.overhead_s"] = overhead
            values["trace.overhead_pct"] = 100.0 * overhead / base
        units = dict(LAYER_METRICS)
        return {name: (values[name], units[name]) for name, _ in LAYER_METRICS}

    def finish(self) -> dict:
        """The summary line, after writing the run record."""
        if self.installation is not None:
            self.installation.undo()
        attempted = len(self.ops)
        failed = sum(1 for op in self.ops if not op[1])
        unexpected = [f for f in self.failures if not f[2]]
        metrics = self._per_layer() if self.trace else self._end_to_end()
        summary = {
            "correct": not unexpected and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        self._write_record(summary, unexpected)
        return summary

    def _by_kind(self) -> dict:
        kinds: dict[str, list] = {}
        for latency, ok, _, _, label, _ in self.ops:
            kinds.setdefault(label, []).append((latency, ok))
        return {label: {"attempted": len(ops),
                        "failed": sum(1 for _, ok in ops if not ok),
                        "median_s": statistics.median(t for t, _ in ops)}
                for label, ops in sorted(kinds.items())}

    def _write_record(self, summary: dict, unexpected: list) -> None:
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(
            OUT, f"{self.workload}-seed{self.seed}-trace{int(self.trace)}")
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "hash_seed": self.hash_seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "rounds": self.rounds_run,
            "git_revision": git_revision(),
            "machine": machine(),
            **summary,
            # the first failures in full; operations_by_kind counts them all
            "failures": [{"op": label, "problems": problems,
                          "known_fault": self.expected_faults[label] if known
                          else None}
                         for label, problems, known in self.failures[:20]],
            "unexpected_failures": len(unexpected),
            "operations_by_kind": self._by_kind(),
            "notes": self.notes,
        }
        if self.trace:
            jsonl, chrome = self.tracer.write(stem)
            record["span_files"] = [os.path.relpath(jsonl, ROOT),
                                    os.path.relpath(chrome, ROOT)]
        with open(f"{stem}.record.json", "w") as out:
            json.dump(record, out, indent=1, default=str)



def git_revision() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
    }
