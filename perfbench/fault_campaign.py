"""The ``fault-campaign`` workload: seeded closed-loop engine runs under
four fault plans, with open-loop replays beside them."""

from __future__ import annotations

import random

from repro import SynthesisSpec, synthesize
from repro.assays import gene_expression_assay
from repro.cyberphysical.campaign import CampaignConfig, run_one
from repro.cyberphysical.faults import FaultPlan
from repro.cyberphysical.policies import build_policies
from repro.experiments.robustness import simulate_makespans
from repro.io.json_io import result_to_json

import checks
from synthesis import SAFETY_LIMIT, add_quality, check_result

#: Operations per round, by kind.  The mix puts the median inside the
#: engine runs and the 95th percentile inside contingency re-synthesis.
MIX = (("replay", 4), ("retry", 4), ("rebind", 5), ("resynth", 5), ("F3", 1))


def plans(result) -> dict[str, tuple[CampaignConfig, str]]:
    """Fault plans over the synthesized schedule: ``label -> (config,
    policy expected to recover)``."""
    layers = result.schedule.layers
    first = sorted(layers[0].placements.values(), key=lambda p: p.uid)
    indeterminate = next(p.uid for p in first if p.indeterminate)
    # The device carrying the most operations of layer 1.
    load: dict[str, int] = {}
    for placement in layers[1].placements.values():
        load[placement.device_uid] = load.get(placement.device_uid, 0) + 1
    busiest = max(sorted(load), key=load.get)

    def config(faults: str, policies: tuple[str, ...]) -> CampaignConfig:
        return CampaignConfig(runs=1, jobs=1, policies=policies,
                              faults=FaultPlan.parse(faults))

    return {
        # exhausted retries, recovered by retry with backoff.
        "retry": (config(f"exhaust:{indeterminate}", ("all",)), "retry"),
        # a device down with a covering spare, recovered by rebind.
        "rebind": (config(f"down:{busiest}@1", ("all",)), "rebind"),
        # a device down and no spare to rebind to: contingency
        # re-synthesis through the policy's persistent layer-solve cache.
        "resynth": (config(f"down:{first[0].device_uid}@0",
                           ("retry", "resynth")), "resynth"),
        # fault F3: the persistent fault fails more operations of one layer
        # than the re-synthesis splice cap, so every run fails.
        "F3": (config(f"down:{busiest}@1", ("retry", "resynth")), "resynth"),
    }


def fault_campaign(run) -> None:
    spec = SynthesisSpec(max_devices=8, threshold=4, mip_gap=0.05,
                         time_limit=SAFETY_LIMIT)
    run.expected_faults["F3"] = "F3"

    def make():
        assay = gene_expression_assay(cells=2)
        result = synthesize(assay, spec)
        configs = plans(result)
        chains = {label: build_policies(cfg.policies)
                  for label, (cfg, _) in configs.items()}
        return assay, result, configs, chains

    assay, result, configs, chains = run.setup(make)
    report = result_to_json(result, deterministic=True)
    problems = check_result(result, report, checks.assay_facts(assay), True)
    # The schedule is set-up, not an operation: F4 on it is written to the
    # run record, any other problem stops the run.
    run.notes["campaign_schedule_f4"] = [p for p in problems
                                         if p.startswith("F4:")]
    problems = [p for p in problems if not p.startswith("F4:")]
    if problems:
        raise RuntimeError(f"campaign schedule fails its checks: {problems}")
    add_quality(run.quality, result)
    uids = set(assay.uids)
    rng = random.Random(run.seed)
    order = [kind for kind, count in MIX for _ in range(count)]

    def one_round(index: int) -> None:
        for k, kind in enumerate(rng.sample(order, len(order))):
            seed = rng.getrandbits(31)
            label = f"{kind}-{k}"
            if kind == "replay":
                latency, dist, error = run.call(
                    index, label, lambda: simulate_makespans(result, runs=1,
                                                             seed=seed))
                problems = [f"raised {error!r}"] if error else []
                if not error and (dist.failure_rate or
                                  dist.worst < result.fixed_makespan):
                    problems.append("replay failed or beat the fixed makespan")
                run.record(latency, problems, index, kind)
                continue
            config, policy = configs[kind]
            latency, record, error = run.call(
                index, label, lambda: run_one(result, config, seed, chains[kind]))
            if error is not None:
                run.record(latency, [f"raised {error!r}"], index, kind)
                continue
            problems = checks.check_engine_run(record, uids)
            if not record.completed:
                problems.append(
                    f"run failed: ops {list(record.failed_ops)[:3]} after "
                    f"{record.resyntheses} re-syntheses")
            elif not record.recoveries.get(policy):
                problems.append(f"{policy} did not recover the fault")
            elif record.makespan < result.fixed_makespan:
                problems.append("run finished before the fixed makespan")
            run.record(latency, problems, index, kind)

    run.rounds(one_round)
