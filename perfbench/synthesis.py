"""The in-process synthesis workloads: ``paper-resynth`` and ``assay-batch``."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

from repro import SynthesisSpec, synthesize
from repro.assays import gene_expression_assay, random_assay
from repro.io.json_io import result_to_json
from repro.periodic import schedule_throughput

import checks
import inputs
from harness import HERE, ROOT

#: Per-layer wall-clock limit: only a safety net, far above any solve the
#: workloads make.  A solve that reaches it fails its operation.
SAFETY_LIMIT = 120.0


def kept_record(result):
    """The pass whose schedule the result kept (earliest full match)."""
    for record in result.history:
        if (record.fixed_makespan, record.num_devices, record.num_paths) == (
                result.fixed_makespan, result.num_devices, result.num_paths):
            return record
    return None


def check_result(result, report: dict, facts: dict, exact_mip: bool) -> list[str]:
    """Independent checks of one in-process synthesis result."""
    spec = result.spec
    problems = checks.check_schedule(
        report, facts, spec.threshold, spec.max_devices, result.edge_transport)
    if exact_mip:
        for stats in result.solve_stats:
            if not stats.cache_hit and stats.status != "optimal":
                problems.append(
                    f"layer {stats.layer} solve ended {stats.status!r}, "
                    f"not on its gap")
    kept = kept_record(result)
    if kept is None:
        return problems + ["no pass matches the kept schedule"]
    # The bound the program reports must hold for the schedule it keeps.
    return problems + checks.check_certificate(kept.total_objective,
                                               result.lower_bound)


def seeded(run, problems: list[str]) -> list[str]:
    """``problems`` of a seeded input, without F4.

    Whether F4 trips on an input depends on how the seed presents it (see
    README.md), and a failure that comes and goes with the seed would
    make the failed share differ between runs; so on seeded inputs F4 is
    tallied in the run record (``f4_seeded_trips``) instead of failing
    the operation.
    """
    rest = [p for p in problems if not p.startswith("F4:")]
    if len(rest) < len(problems):
        run.notes["f4_seeded_trips"] = run.notes.get("f4_seeded_trips", 0) + 1
    return rest


def add_quality(quality: dict, result) -> None:
    """Add one result to the quality sums: the kept pass's achieved layer
    objective and the certified bound the program reports."""
    kept = kept_record(result)
    for name, value in (
            ("makespan_sum", result.fixed_makespan),
            ("devices_sum", result.num_devices),
            ("paths_sum", result.num_paths),
            ("objective_sum", kept.total_objective or 0.0 if kept else 0.0),
            ("bound_sum", result.lower_bound or 0.0)):
        quality[name] = quality.get(name, 0) + value


def synthesis_op(run, index: int, label: str, assay, spec, facts,
                 first_reports: dict | None, exact_mip: bool,
                 quality: dict | None, is_seeded: bool):
    """One synthesis operation; returns the result (or ``None``)."""
    latency, result, error = run.call(index, label, lambda: synthesize(assay, spec))
    if error is not None:
        run.record(latency, [f"raised {error!r}"], index, label)
        return None
    report = result_to_json(result, deterministic=True)
    problems = check_result(result, report, facts, exact_mip)
    if is_seeded:
        problems = seeded(run, problems)
    # A round that repeats an earlier round's input is due the same answer.
    if first_reports is not None and first_reports.setdefault(label, report) != report:
        problems.append("result differs from the same input's first round")
    if quality is not None:
        add_quality(quality, result)
    run.record(latency, problems, index, label)
    return result


def paper_resynth(run) -> None:
    """The paper's case 2 at t=4, mip_gap 0.05, portfolio scheduler."""
    spec = SynthesisSpec(threshold=4, mip_gap=0.05, scheduler="portfolio",
                         time_limit=SAFETY_LIMIT)

    def make():
        assay = gene_expression_assay()
        return assay, checks.assay_facts(assay)

    run.expected_faults["case2"] = "F4"
    assay, facts = run.setup(make)
    first: dict = {}

    def one_round(index: int) -> None:
        synthesis_op(run, index, "case2", assay, spec, facts, first, True,
                     run.quality if index == 0 else None, False)

    run.rounds(one_round)


def assay_batch(run) -> None:
    """Generator assays on ``approx-lp`` with storage ``auto``, a periodic
    share, and the F1 and F2 canaries (see README.md)."""
    spec = SynthesisSpec(threshold=2, max_devices=25, scheduler="approx-lp",
                         storage_mode="auto", time_limit=SAFETY_LIMIT)
    periodic_spec = {
        mode: SynthesisSpec(threshold=2, max_devices=25, scheduler="approx-lp",
                            storage_mode=mode, time_limit=SAFETY_LIMIT)
        for mode in ("off", "auto")
    }
    run.expected_faults.update({"F1-canary": "F1", "F2-periodic": "F2"})

    rng = random.Random(run.seed)

    def make():
        batch = inputs.batch_assays(random.Random(rng.random()))
        periodic = [(random_assay(n, seed=s), mode)
                    for n, s, mode in (inputs.PERIODIC_PASS, inputs.PERIODIC_F2)]
        facts = {a.name: checks.assay_facts(a) for a, _ in periodic}
        return batch, periodic, facts

    batch, periodic, facts = run.setup(make)
    first: dict = {}
    batches = {0: batch}

    def one_round(index: int) -> None:
        quality = run.quality if index == 0 else None
        # Every round draws fresh relabelings of the population; traced
        # runs give each traced round the inputs of the untraced round
        # before it, so the tracing overhead compares equal work.
        key = (index + 1) // 2 if run.trace else index
        if key not in batches:
            batches[key] = inputs.batch_assays(rng)
        for assay in batches[key]:
            synthesis_op(run, index, assay.name, assay, spec,
                         checks.assay_facts(assay), None, False, quality, True)
        for (assay, mode), label in zip(periodic, ("periodic", "F2-periodic")):
            periodic_op(run, index, label, assay, periodic_spec[mode],
                        facts[assay.name], first, quality)

    run.rounds(one_round)
    f1_canary(run)


def periodic_op(run, index, label, assay, spec, facts, first, quality) -> None:
    """Synthesis followed by periodic re-timing of the result."""
    def work():
        result = synthesize(assay, spec)
        holder["result"] = result
        return schedule_throughput(result, spec)

    holder: dict = {}
    latency, throughput, error = run.call(index, label, work)
    result = holder.get("result")
    problems = []
    if result is not None:
        report = result_to_json(result, deterministic=True)
        problems += check_result(result, report, facts, False)
        if first.setdefault(label, report) != report:
            problems.append("result differs from the same input's first round")
        if quality is not None:
            add_quality(quality, result)
    if error is not None:
        problems.append(f"raised {error!r}")
    else:
        for probe in throughput.probes:
            if probe.solve_time >= spec.time_limit:
                problems.append(f"periodic probe II={probe.ii} hit the limit")
        if not throughput.stats.lower_bound <= throughput.ii <= result.fixed_makespan:
            problems.append(f"II {throughput.ii} outside [bound, makespan]")
    run.record(latency, problems, index, label)


def f1_canary(run) -> None:
    """Fault F1, once per round, outside the timed window: the canary is
    synthesized with the greedy scheduler in two child processes under
    fixed hash seeds; different schedules fail the round's canary."""
    reports = []
    for hash_seed in inputs.F1_HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "f1_child.py"),
             str(run.rounds_run)],
            env=env, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"F1 child failed: {done.stderr[-400:]}")
        reports.append(json.loads(done.stdout.strip().splitlines()[-1]))
        run.notes["child_hash_seeds"].append(hash_seed)
    for index, (a, b) in enumerate(zip(*reports)):
        problems = [] if a["report"] == b["report"] else [
            f"F1: greedy schedule differs between hash seeds "
            f"{inputs.F1_HASH_SEEDS} (makespan "
            f"{a['report']['fixed_makespan']} vs "
            f"{b['report']['fixed_makespan']})"]
        run.record(max(a["seconds"], b["seconds"]), problems, index,
                   "F1-canary", traced=run.trace and index % 2 == 0)
