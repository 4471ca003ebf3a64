"""Output checks written apart from the program.

Each check is a property every correct result must have, computed here
from the result JSON (``repro.io.json_io.result_to_json``) and the input
assay; none of them calls the program's own validator.  A check returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

from collections import defaultdict


def assay_facts(assay) -> dict:
    """The input facts the checks need, read once from the assay."""
    ops = {}
    for op in assay.operations:
        ops[op.uid] = {
            "duration": op.duration.minimum,
            "indeterminate": op.duration.is_indeterminate,
            "container": op.container.value if op.container else None,
            "capacity": op.capacity.value,
            "accessories": set(op.accessories),
        }
    return {"ops": ops, "edges": list(assay.edges)}


def check_schedule(report: dict, facts: dict, threshold: int,
                   max_devices: int, edge_transport: dict) -> list[str]:
    """Re-check one synthesized schedule.

    ``edge_transport`` maps ``(parent, child)`` to the transport time the
    program scheduled the edge with.
    """
    problems: list[str] = []
    ops = facts["ops"]
    devices = {d["uid"]: d for d in report["devices"]}
    placed: dict[str, tuple[int, dict]] = {}
    for layer in report["layers"]:
        for p in layer["placements"]:
            if p["uid"] in placed:
                problems.append(f"{p['uid']} placed twice")
            placed[p["uid"]] = (layer["index"], p)
    missing = set(ops) - set(placed)
    extra = set(placed) - set(ops)
    if missing or extra:
        return problems + [f"placed set differs: missing {sorted(missing)[:3]}"
                           f" extra {sorted(extra)[:3]}"]
    if len(devices) > max_devices:
        problems.append(f"{len(devices)} devices exceed |D|={max_devices}")
    if report["num_devices"] != len(devices):
        problems.append("num_devices disagrees with the device list")

    # device coverage: kind, capacity and accessories of each binding.
    for uid, (_, p) in placed.items():
        op, device = ops[uid], devices.get(p["device"])
        if device is None:
            problems.append(f"{uid} bound to unknown device {p['device']}")
            continue
        if op["container"] is not None and device["container"] != op["container"]:
            problems.append(f"{uid}: container {device['container']}")
        if device["capacity"] != op["capacity"]:
            problems.append(f"{uid}: capacity {device['capacity']}")
        if not op["accessories"] <= set(device["accessories"]):
            problems.append(f"{uid}: accessories missing on {p['device']}")
        if p["duration"] != op["duration"]:
            problems.append(f"{uid}: duration {p['duration']}")
        if p["indeterminate"] != op["indeterminate"]:
            problems.append(f"{uid}: indeterminate flag")

    children = defaultdict(list)
    for parent, child in facts["edges"]:
        children[parent].append(child)
        (lp, pp), (lc, pc) = placed[parent], placed[child]
        if lp > lc:
            problems.append(f"{parent}->{child} runs backwards across layers")
        elif lp == lc:
            ready = (pp["start"] + pp["duration"]
                     + edge_transport.get((parent, child), 0))
            if pc["start"] < ready:
                problems.append(f"{child} starts before {parent} delivers")

    for layer in report["layers"]:
        here = {p["uid"]: p for p in layer["placements"]}
        # one operation at a time per device; a device stays held while
        # its output is transported to a consumer in the same layer.
        busy = defaultdict(list)
        for uid, p in here.items():
            hold = max((edge_transport.get((uid, c), 0)
                        for c in children[uid] if c in here), default=0)
            end = float("inf") if p["indeterminate"] else (
                p["start"] + p["duration"] + hold)
            busy[p["device"]].append((p["start"], end, uid))
        for device, spans in busy.items():
            spans.sort()
            for (s1, e1, u1), (s2, _e2, u2) in zip(spans, spans[1:]):
                if s2 < e1:
                    problems.append(f"{device}: {u1} and {u2} overlap")
        # indeterminate operations come last and are at most t per layer.
        tail = [p for p in here.values() if p["indeterminate"]]
        if len(tail) > threshold:
            problems.append(f"layer {layer['index']}: {len(tail)} > t")
        last_start = max(p["start"] for p in here.values())
        for p in tail:
            if p["start"] + p["duration"] < last_start:
                problems.append(f"{p['uid']} is not last in its layer")
            if any(c in here for c in children[p["uid"]]):
                problems.append(f"{p['uid']} feeds its own layer")
        ends = max(p["start"] + p["duration"] for p in here.values())
        if layer["makespan"] != ends:
            problems.append(f"layer {layer['index']}: makespan {layer['makespan']}")
    return problems + check_makespan_floor(report, facts)


def check_makespan_floor(report: dict, facts: dict) -> list[str]:
    """The fixed makespan is no smaller than the longest chain of
    durations inside each layer, summed over the layers."""
    ops = facts["ops"]
    floor = 0
    for layer in report["layers"]:
        here = {p["uid"] for p in layer["placements"]}
        preds = defaultdict(list)
        for parent, child in facts["edges"]:
            if parent in here and child in here:
                preds[child].append(parent)
        longest: dict[str, int] = {}

        def chain(uid: str) -> int:
            if uid not in longest:
                longest[uid] = ops[uid]["duration"] + max(
                    (chain(p) for p in preds[uid]), default=0)
            return longest[uid]

        floor += max((chain(uid) for uid in here), default=0)
    total = sum(layer["makespan"] for layer in report["layers"])
    problems = []
    if report["fixed_makespan"] != total:
        problems.append("fixed makespan is not the sum of layer makespans")
    if report["fixed_makespan"] < floor:
        problems.append(f"fixed makespan {report['fixed_makespan']} < chain "
                        f"floor {floor}")
    return problems


def check_certificate(objective: float | None, bound: float | None) -> list[str]:
    """A certified result reports ``bound <= objective`` of the schedule
    it delivers; a bound above it is fault F4 (see README.md)."""
    if objective is None or bound is None:
        return ["result carries no certified bound"]
    if bound > objective + 1e-6 * max(1.0, abs(objective)):
        return [f"F4: reported bound {bound:g} exceeds the kept schedule's "
                f"objective {objective:g}"]
    return []


def check_engine_run(record, schedule_uids: set[str]) -> list[str]:
    """A completed campaign run dispatched every operation of its final
    schedule exactly once: each operation once, plus once more for each
    operation re-planned by contingency re-synthesis (its failed dispatch
    is not part of the final schedule)."""
    if not record.completed:
        return []
    dispatched: dict[str, int] = defaultdict(int)
    replanned: dict[str, int] = defaultdict(int)
    for event in record.trace:
        if event["kind"] == "layer_dispatch":
            for uid in event["ops"]:
                dispatched[uid] += 1
        elif event["kind"] == "resynthesis_splice":
            replanned[event["op"]] += 1
    problems = [f"{uid} dispatched {dispatched.get(uid, 0)} times"
                for uid in sorted(schedule_uids)
                if dispatched.get(uid, 0) != 1 + replanned.get(uid, 0)]
    if set(dispatched) - schedule_uids:
        problems.append("dispatched an operation outside the schedule")
    return problems
