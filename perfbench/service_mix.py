"""The ``service-mix`` workload: an in-process synthesis service with one
worker, driven over HTTP by one closed-loop request stream; a second
client connection sends the concurrent duplicates.

The stream is closed-loop and serial apart from the duplicate pairs: with
two clients looping over it, store hits queued behind cold jobs and
competed with each other for the interpreter, and the hit-path median
moved by a third between two sets of runs of the same commit."""

from __future__ import annotations

import multiprocessing
import os
import random
import shutil
import threading

from repro import SynthesisSpec, synthesize
from repro.io.json_io import (
    assay_from_json,
    assay_to_json,
    result_to_json,
    spec_to_json,
)
from repro.service.client import ServiceClient
from repro.service.server import ServerConfig, run_server

import checks
import inputs
from harness import OUT
from synthesis import SAFETY_LIMIT, add_quality, check_result, seeded

#: Per round: every cold job once, a concurrent duplicate of the first
#: ``DUPLICATES`` of them (coalesced by the queue while the original is in
#: flight), and ``REPEATS`` resubmissions of bodies finished in earlier
#: rounds (answered from the store).
DUPLICATES = 2
REPEATS = 66
CLIENTS = 2


def job_spec(scheduler: str, storage: str) -> SynthesisSpec:
    return SynthesisSpec(threshold=2, max_devices=25, scheduler=scheduler,
                         storage_mode=storage, mip_gap=0.05,
                         time_limit=SAFETY_LIMIT)


class Body:
    """One distinct request body and what became of it."""

    def __init__(self, assay, scheduler: str, storage: str, round_index: int):
        self.assay = assay
        self.spec = job_spec(scheduler, storage)
        self.scheduler = scheduler
        self.assay_json = assay_to_json(assay)
        self.spec_json = spec_to_json(self.spec)
        self.round = round_index
        self.payload: dict | None = None
        #: the in-process synthesis of the same body (after the window).
        self.result = None
        self.problems: list[str] = []


class Server:
    """A ``SynthesisServer`` on an ephemeral port in a background thread."""

    def __init__(self, workdir: str) -> None:
        config = ServerConfig(port=0, workers=1, queue_capacity=64,
                              store_dir=os.path.join(workdir, "store"),
                              job_timeout=600.0)
        started = threading.Event()
        holder: dict = {}

        def announce(server):
            holder["port"] = server.port
            started.set()

        self.thread = threading.Thread(
            target=run_server, args=(config,), kwargs={"announce": announce},
            daemon=True)
        self.thread.start()
        if not started.wait(60):
            raise RuntimeError("synthesis server did not start")
        self.port = holder["port"]

    def client(self) -> ServiceClient:
        return ServiceClient(port=self.port, timeout=600.0)

    def stop(self) -> None:
        self.client().shutdown()
        self.thread.join(60)
        for child in multiprocessing.active_children():
            child.join(60)


def request(run, client, body: Body, index: int, label: str):
    """Submit, wait, fetch: one operation."""
    def work():
        handle = client.submit(body.assay_json, body.spec_json)
        handle = client.wait(handle.id, deadline=600.0)
        if handle.status != "done":
            raise RuntimeError(f"job {handle.status}: {handle.error}")
        return client.result(handle.id)
    return run.call(index, label, work)


def service_mix(run) -> None:
    rng = random.Random(run.seed)
    workdir = os.path.join(OUT, f"service-{os.getpid()}")
    servers: list[Server] = []

    def make():
        shutil.rmtree(workdir, ignore_errors=True)
        server = Server(workdir)
        servers.append(server)
        # Warm bodies: answered by the worker now, resubmitted in round 0.
        warm = [Body(a, s, m, -1)
                for a, s, m in inputs.service_bodies(rng, "warm")[:2]]
        client = server.client()
        for body in warm:
            handle = client.submit(body.assay_json, body.spec_json)
            client.wait(handle.id, deadline=600.0)
            body.payload = client.result(handle.id)
        return warm

    try:
        warm = run.setup(make)
        server = servers[0]
        bodies: list[Body] = []
        finished: list[Body] = list(warm)
        #: (latency, body, traced, round index, label, error, payload)
        outcomes: list[tuple] = []
        lock = threading.Lock()

        def one_round(index: int) -> None:
            cold = [Body(a, s, m, index)
                    for a, s, m in inputs.service_bodies(rng, f"r{index}")]
            bodies.extend(cold)
            # Fixed shape, seeded content: each cold job is followed by
            # an equal share of repeats, which cycle through the bodies
            # finished so far in a seeded order.
            pool = rng.sample(finished, len(finished))
            share = REPEATS // len(cold)
            stream: list[tuple[Body, str]] = []
            for k, body in enumerate(cold):
                stream.append((body, "cold"))
                stream += [(pool[(k * share + j) % len(pool)], "repeat")
                           for j in range(share)]
            traced = run.traced_round
            clients = [server.client() for _ in range(CLIENTS)]

            def one(client, k: int, body: Body, kind: str) -> None:
                latency, payload, error = request(
                    run, client, body, index, f"{kind}-{k}")
                with lock:
                    if kind == "cold" and payload is not None:
                        body.payload = payload
                    outcomes.append(
                        (latency, body, traced, index, kind, error, payload))

            duplicates = 0
            for k, (body, kind) in enumerate(stream):
                if kind == "cold" and duplicates < DUPLICATES:
                    # A concurrent duplicate on the second connection: the
                    # queue coalesces it onto the cold job.
                    duplicates += 1
                    pair = [threading.Thread(target=one, args=(c, k, body, kd))
                            for c, kd in zip(clients, ("cold", "duplicate"))]
                    for thread in pair:
                        thread.start()
                    for thread in pair:
                        thread.join()
                else:
                    one(clients[0], k, body, kind)
            finished.extend(cold)

        run.rounds(one_round)
        metrics = server.client().metrics()
        verify(run, warm + bodies)
        for latency, body, traced, index, kind, error, payload in outcomes:
            problems = list(body.problems)
            if error is not None:
                problems.append(f"raised {error!r}")
            elif answer(payload) != answer(body.payload):
                problems.append(f"{kind} answer differs from the cold answer")
            run.record(latency, problems, index, kind, traced=traced)
        service_layers(run, metrics, bodies)
        # Quality over round 0's distinct jobs, which every run completes.
        for body in bodies:
            if body.round == 0:
                add_quality(run.quality, body.result)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def answer(payload: dict | None) -> dict | None:
    """A job payload without its per-submission job record."""
    if payload is None:
        return None
    return {k: v for k, v in payload.items() if k != "job"}


def verify(run, bodies: list[Body]) -> None:
    """Outside the timed window: each distinct job's answer must equal an
    in-process synthesis of the same body and pass the independent checks."""
    for body in bodies:
        result = synthesize(assay_from_json(body.assay_json), body.spec)
        body.result = result
        report = result_to_json(result, deterministic=True)
        body.problems += seeded(run, check_result(
            result, report, checks.assay_facts(body.assay),
            body.scheduler == "portfolio"))
        payload = body.payload
        if payload is None:
            body.problems.append("job never answered")
            continue
        if payload.get("degraded"):
            body.problems.append("job came back degraded")
        if payload["result"] != report:
            body.problems.append("service answer differs from in-process synthesis")
        if body.scheduler == "portfolio":
            for record in payload["profile"]["passes"]:
                for layer in record["layers"]:
                    if not layer["cache_hit"] and layer["status"] != "optimal":
                        body.problems.append(
                            f"service layer solve ended {layer['status']!r}")


def service_layers(run, metrics: dict, bodies: list[Body]) -> None:
    """Per-layer figures the service reports itself (whole run)."""
    counters = metrics["counters"]
    waits = metrics["histograms"].get("queue_wait_seconds", {})
    run.layer_extra.update({
        "queue.wait_s": waits.get("sum", 0.0),
        "worker.busy_s": metrics["workers"]["busy_seconds"],
        "worker.utilization": metrics["workers"]["utilization"],
        "store.hits": counters.get("store_hits", 0),
        "store.misses": counters.get("store_misses", 0),
        "coalesce.hits": counters.get("coalesce_hits", 0),
        "solve.jobs": counters.get("solve_jobs", 0),
        "worker.encode_s": sum(
            b.payload["profile"]["totals"]["encode_time"]
            for b in bodies if b.payload),
        "worker.solve_s": sum(
            b.payload["profile"]["totals"]["solve_time"]
            for b in bodies if b.payload),
    })
