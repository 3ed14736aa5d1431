"""The three workloads: fixed sizes, fixed loads, and how each is deployed.

Every number here is a constant, never derived from a capacity measured in
the same run, so a parent commit and a change always receive the same load.
The same constants are quoted in each workload's ``why`` in
``BENCHMARK.json`` and in ``perfbench/README.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.serving.fleet import deploy_fleet
from repro.serving.gateway import (
    ServingGateway,
    VersionedEmbeddingStore,
    clustered_embeddings,
    zipf_query_ids,
)
from repro.serving.sharded import ShardedGateway

DIM = 48
NUM_CLUSTERS = 16
TOP_K = 10
#: Share of service rows a publish perturbs, and by how much.
PUBLISH_ROW_SHARE = 0.05
PUBLISH_NOISE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    num_services: int
    num_queries: int
    #: Zipf exponent of the query-id stream, or ``None`` for uniform ids.
    zipf: Optional[float]
    #: Callers of the closed loop, each sending when its reply lands.
    clients: int
    #: Client-observed latency limit behind ``slo_attainment``.
    slo_ms: float
    #: Seconds between publishes under read traffic (``None``: no publisher).
    publish_period_s: Optional[float] = None
    num_sessions: int = 0
    #: Gateways serving the load: fleet replicas, or one gateway.
    replicas: int = 1


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("cold-scan", num_services=100_000, num_queries=100_000,
                 zipf=None, clients=128, slo_ms=1_000.0),
        Workload("refresh-sharded", num_services=20_000, num_queries=20_000,
                 zipf=None, clients=8, slo_ms=100.0,
                 publish_period_s=1.0),
        Workload("fleet-sessions", num_services=12_000, num_queries=2_000,
                 zipf=1.1, clients=32, slo_ms=100.0,
                 num_sessions=5_000, replicas=2),
    )
}


@dataclass
class Data:
    """The seeded inputs of one run (the program sees only these)."""

    queries: np.ndarray
    services: np.ndarray
    rng: np.random.Generator

    def stream(self, workload: Workload, count: int) -> np.ndarray:
        if workload.zipf is None:
            return self.rng.integers(workload.num_queries, size=count)
        return zipf_query_ids(workload.num_queries, count,
                              exponent=workload.zipf,
                              seed=int(self.rng.integers(1 << 31)))

    def sessions(self, workload: Workload, query_ids: np.ndarray) -> np.ndarray:
        if not workload.num_sessions:
            return query_ids
        return self.rng.integers(workload.num_sessions, size=len(query_ids))

    def perturbed(self, services: np.ndarray) -> np.ndarray:
        """A republished service table with about 5% of its rows moved."""
        rows = self.rng.random(services.shape[0]) < PUBLISH_ROW_SHARE
        moved = services.copy()
        moved[rows] += PUBLISH_NOISE * self.rng.normal(size=(int(rows.sum()), DIM))
        return moved


def make_data(workload: Workload, seed: int) -> Data:
    queries, services = clustered_embeddings(
        workload.num_queries, workload.num_services, DIM,
        num_clusters=NUM_CLUSTERS, seed=seed)
    return Data(queries, services, np.random.default_rng([seed, 1]))


@dataclass
class Deployment:
    """A deployed workload: what the load calls and what the trace wraps."""

    store: VersionedEmbeddingStore
    #: Every gateway that owns a scheduler (one, or one per replica).
    gateways: List[ServingGateway]
    send: Callable
    #: Coroutine function stopping the schedulers' drive tasks on the loop.
    stop_async: Callable
    close: Callable[[], None]
    router: object = None


def deploy(workload: Workload, data: Data, scratch_dir: str) -> Deployment:
    """Construct the workload's deployment from its tables until ready."""
    if workload.name == "cold-scan":
        gateway = ServingGateway(VersionedEmbeddingStore(data.queries, data.services),
                                 index="exact", top_k=TOP_K)
        return _single(gateway)
    if workload.name == "refresh-sharded":
        store = VersionedEmbeddingStore(
            data.queries, data.services, num_shards=2, quantization=("int8",),
            durable_dir=os.path.join(scratch_dir, "durable"), keep_last=2)
        gateway = ShardedGateway(store, index="int8", workers="process", top_k=TOP_K)
        return _single(gateway)
    if workload.name == "fleet-sessions":
        store = VersionedEmbeddingStore(data.queries, data.services)
        router = deploy_fleet(None, num_replicas=workload.replicas, store=store,
                              index="ivf", top_k=TOP_K)

        async def send(query_id: int, session_id: int) -> np.ndarray:
            ids, _ = await router.search_async(query_id, session_id=session_id)
            return ids

        gateways = [replica.gateway for replica in router.replicas]
        return Deployment(store, gateways, send, router.stop_async, router.close,
                          router=router)
    raise ValueError(f"unknown workload {workload.name!r}")


def _single(gateway: ServingGateway) -> Deployment:
    async def send(query_id: int, session_id: int) -> np.ndarray:
        ids, _ = await gateway.search_async(query_id)
        return ids

    return Deployment(gateway.store, [gateway], send, gateway.stop_async,
                      gateway.close)
