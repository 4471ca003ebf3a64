"""Seeded workload inputs.

Every input the program sees is made here from the workload seed.  A
workload draws from a fixed, stratified population of assays (generator
assays on a ladder of sizes, or small protocol assays) and the seed
decides how each member is presented: operation uids are replaced by
seeded random names and operations and dependencies are inserted in a
seeded order.  The members are therefore isomorphic from seed to seed,
so the amount of work per run holds steady, while everything that
depends on names or insertion order (hash order, tie-breaking, run
fingerprints) changes with the seed.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.assays import gene_expression_assay, kinase_assay, random_assay
from repro.operations.assay import Assay

#: ``(num_ops, generator seed)`` of the ``assay-batch`` population:
#: generator assays of 12 to 18 operations, ~15% indeterminate.  Members
#: were drawn from ``random_assay(12 + k % 10, seed=9200 + k)``, k < 30,
#: by their ``approx-lp`` latency on the reference machine: six from the
#: dense middle of the distribution (0.45-0.55 s), two of the fastest and
#: one of the slowest (the periodic operation is the other slow one), so
#: that the median operation of a run falls inside a dense cluster and
#: holds steady from run to run.
BATCH_POPULATION = (
    (12, 9200), (16, 9204), (18, 9206), (13, 9211), (16, 9214), (16, 9224),
    (12, 9210), (18, 9216),
    (17, 9205),
)

#: The periodic share of ``assay-batch``, fixed so its outcome cannot
#: depend on the seed: ``(num_ops, generator seed, storage mode)``.  The
#: storage-off member replays periodically; the storage-auto member
#: trips fault F2 (see README.md).
PERIODIC_PASS = (15, 7002, "off")
PERIODIC_F2 = (18, 7001, "auto")

#: Fault F1 canary: this generator assay gets two different greedy
#: schedules under hash seeds 0 and 1 (see README.md).
F1_CANARY = (27, 1006)
F1_HASH_SEEDS = (0, 1)

#: ``service-mix`` cold population: small generator assays for
#: ``approx-lp`` as ``(num_ops, generator seed, storage mode)``, plus
#: the small protocol assays of :func:`protocol_assays` for ``portfolio``.
SERVICE_GENERATOR = ((8, 9300, "off"), (10, 9302, "auto"),
                     (11, 9303, "off"), (12, 9304, "auto"))


def relabel(assay: Assay, rng: random.Random, name: str) -> Assay:
    """An isomorphic copy of ``assay`` with seeded uids and insertion order."""
    uids = assay.uids
    names: set[str] = set()
    while len(names) < len(uids):
        names.add(f"u{rng.getrandbits(32):08x}")
    fresh = dict(zip(uids, rng.sample(sorted(names), len(uids))))
    out = Assay(name)
    for op in rng.sample(assay.operations, len(uids)):
        out.add(replace(op, uid=fresh[op.uid]))
    edges = assay.edges
    for parent, child in rng.sample(edges, len(edges)):
        out.add_dependency(fresh[parent], fresh[child])
    return out


def batch_assays(rng: random.Random) -> list[Assay]:
    """One round of ``assay-batch`` inputs, freshly relabeled, in seeded
    order."""
    members = rng.sample(BATCH_POPULATION, len(BATCH_POPULATION))
    return [
        relabel(random_assay(n, seed=s), rng, f"batch-{n}-{s}")
        for n, s in members
    ]


def protocol_assays() -> list[Assay]:
    """Small protocol assays for the service's portfolio jobs."""
    return [kinase_assay(samples=1), gene_expression_assay(cells=1)]


def service_bodies(rng: random.Random, tag: str) -> list[tuple[Assay, str, str]]:
    """One round of cold ``service-mix`` jobs as ``(assay, scheduler,
    storage mode)``, freshly relabeled so every round's fingerprints are
    new."""
    jobs = [(relabel(random_assay(n, seed=s), rng, f"{tag}-gen-{n}-{s}"),
             "approx-lp", mode) for n, s, mode in SERVICE_GENERATOR]
    jobs += [(relabel(a, rng, f"{tag}-{a.name}"), "portfolio", "off")
             for a in protocol_assays()]
    return jobs
