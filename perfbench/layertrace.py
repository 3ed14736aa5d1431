"""Bench-side tracing: wrappers around each layer's public calls.

Nothing inside ``src/`` is instrumented for the benchmark.  The traced run
installs wrappers from here instead:

* module functions the layers call through their module attribute
  (``build_index`` in the gateway, ``quantize_table`` in the store,
  ``write_snapshot`` in the snapshot package, ``merge_top_k`` in the
  sharded gateway) are replaced for the traced deployment's lifetime;
* per-object public methods (the scheduler's ``executor``, the gateway's
  ``submit_async`` / ``prepare`` / ``activate``, the cache's ``get`` /
  ``put``, the telemetry's ``record_request`` / ``record_batch``, each
  built index's ``search``, the pool's ``search_async`` / ``prepare``)
  are shadowed by instance attributes;
* public counters (cache hits, ``scheduler.stats()``, telemetry and fleet
  ``summary()``, ``ShardReply.latency_s``, ``WriteReport``) are read at the
  edges of the window.

Every wrapper times with :func:`time.monotonic`, the clock the load
generator and the serving stack use.  A gateway's scheduler executes one
batch at a time, so a child call made while gateway ``g`` has a batch open
is charged to that batch.  The accounting then reconciles the bench's
figures with the server's own, batch by batch and request by request:

* the wrapped children of a batch took no longer than the batch;
* the batch, as the wrapper timed it, took no longer than the execute time
  the scheduler itself recorded for it (its ``execute_latency`` histogram,
  read at the start of the gateway's next batch);
* each request's server-side stamps (``PendingRequest.enqueued_at`` and
  ``completed_at``) lie inside the client's send-to-answer interval, and the
  server's latency covers the execution of the request's batch.

See :func:`batch_violation` and :func:`request_violation`.
"""

from __future__ import annotations

import contextvars
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from loadgen import Hooks, Phase

_REQUEST = contextvars.ContextVar("perfbench_request", default=None)
now = time.monotonic


class Batch:
    __slots__ = ("gateway", "size", "start", "end", "child", "scheduler_s")

    def __init__(self, gateway: int, size: int) -> None:
        self.gateway = gateway
        self.size = size
        self.start = now()
        self.end = 0.0
        self.child = 0.0
        #: Execute time the scheduler recorded for this batch, once known.
        self.scheduler_s: Optional[float] = None


def batch_violation(batch: Batch) -> Optional[str]:
    """Why a batch's accounting does not add up, or ``None``."""
    execute = batch.end - batch.start
    if batch.child > execute:
        return (f"children of a batch of {batch.size} took {batch.child * 1e3:.3f} ms, "
                f"longer than the batch's {execute * 1e3:.3f} ms")
    if batch.scheduler_s is not None and execute > batch.scheduler_s:
        return (f"a batch of {batch.size} took {execute * 1e3:.3f} ms, longer than "
                f"the {batch.scheduler_s * 1e3:.3f} ms its scheduler recorded")
    return None


def request_violation(sent: float, done: float, enqueued_at: float,
                      completed_at: float, execute_s: float) -> Optional[str]:
    """Why one request's client and server figures disagree, or ``None``.

    ``sent`` and ``done`` are the client's stamps, ``enqueued_at`` and
    ``completed_at`` the server's, ``execute_s`` the wrapper's time of the
    request's batch.
    """
    server = completed_at - enqueued_at
    if not sent <= enqueued_at <= completed_at <= done:
        return (f"server latency {server * 1e3:.3f} ms "
                f"[{(enqueued_at - sent) * 1e3:+.3f}, {(completed_at - sent) * 1e3:+.3f}] "
                f"is not inside client latency {(done - sent) * 1e3:.3f} ms")
    if execute_s > server:
        return (f"batch execute {execute_s * 1e3:.3f} ms is longer than its "
                f"request's server latency {server * 1e3:.3f} ms")
    return None


class LayerTrace(Hooks):
    """Installs the wrappers, collects samples, reconciles the accounting."""

    def __init__(self, num_gateways: int) -> None:
        self.num_gateways = num_gateways
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.batches: List[Batch] = []
        self.write_reports: list = []
        self.indexes: list = []
        #: The first few accounting violations, and how many there were.
        self.violations: List[str] = []
        self.violation_count = 0
        self.requests_reconciled = 0
        self._current: Dict[int, Batch] = {}
        #: Per gateway: its scheduler's execute histogram, and the last
        #: batch with the histogram's (count, sum) when that batch started.
        self._histograms: Dict[int, object] = {}
        self._marks: Dict[int, tuple] = {}
        self._batch_of: Dict[int, Batch] = {}
        self._builds = 0
        self._undo: List[Callable[[], None]] = []
        self._router = None

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def _patch(self, owner, attr: str, make: Callable) -> None:
        original = getattr(owner, attr)
        own = isinstance(owner, types.ModuleType) or attr in vars(owner)
        setattr(owner, attr, make(original))
        if own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _timed(self, name: str, gateway: Optional[int] = None) -> Callable:
        """A wrapper factory: time every call into ``samples[name]``."""
        def make(original):
            def timed(*args, **kwargs):
                started = now()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = now() - started
                    self.samples[name].append(elapsed)
                    if gateway is not None:
                        self._charge(gateway, elapsed)
            return timed
        return make

    def _charge(self, gateway: int, elapsed: float) -> None:
        batch = self._current.get(gateway)
        if batch is not None:
            batch.child += elapsed

    def install_modules(self) -> None:
        """Wrap module-level entry points; call before deploying."""
        import repro.serving.gateway.gateway as gateway_module
        import repro.serving.gateway.store as store_module
        import repro.serving.sharded.gateway as sharded_module
        import repro.serving.snapshot as snapshot_package

        self._patch(gateway_module, "build_index", self._wrap_build)
        self._patch(store_module, "quantize_table", self._timed("store.quantize"))
        self._patch(sharded_module, "merge_top_k", self._timed("merge", gateway=0))

        def make_write(original):
            def write_snapshot(*args, **kwargs):
                started = now()
                report = original(*args, **kwargs)
                self.samples["snapshot.write"].append(now() - started)
                self.write_reports.append(report)
                return report
            return write_snapshot

        self._patch(snapshot_package, "write_snapshot", make_write)

    def _wrap_build(self, original):
        def build_index(kind, services, **params):
            started = now()
            index = original(kind, services, **params)
            self.samples["index.build"].append(now() - started)
            # Gateways subscribe, and so build, in deployment order; every
            # publish prepares its listeners in that same order.
            owner = self._builds % self.num_gateways
            self._builds += 1
            self.indexes.append(index)
            search = index.search

            def timed_search(queries, k):
                started = now()
                try:
                    return search(queries, k)
                finally:
                    elapsed = now() - started
                    self.samples["index.search"].append(elapsed)
                    self.samples["index.rows"].append(len(queries))
                    self._charge(owner, elapsed)

            index.search = timed_search
            self._undo.append(lambda: delattr(index, "search"))
            return index
        return build_index

    def install_deployment(self, deployment) -> None:
        """Wrap the deployed objects' public methods; call after deploying."""
        for number, gateway in enumerate(deployment.gateways):
            scheduler = gateway.scheduler.async_scheduler
            self._histograms[number] = scheduler.execute_latency
            self._patch(scheduler, "executor", self._wrap_executor(number))
            self._patch(gateway, "submit_async", self._wrap_submit)
            self._patch(gateway.cache, "get", self._timed("cache.get", number))
            self._patch(gateway.cache, "put", self._timed("cache.put", number))
            for method in ("record_request", "record_batch"):
                self._patch(gateway.telemetry, method,
                            self._timed("telemetry.record", number))
            self._patch(gateway, "prepare", self._timed("store.prepare"))
            self._patch(gateway, "activate", self._timed("store.activate"))
            pool = getattr(gateway, "pool", None)
            if pool is not None:
                self._patch(pool, "search_async", self._wrap_scatter(number))
                self._patch(pool, "prepare", self._timed("pool.prepare"))
        if deployment.router is not None:
            self._router = deployment.router
            self._patch(deployment.router.telemetry, "record_request",
                        self._timed("telemetry.record"))
        self._patch(deployment.store, "publish", self._timed("store.publish"))

    def _wrap_executor(self, number: int) -> Callable:
        def make(original):
            async def executor(live):
                # The scheduler has recorded the previous batch by now.
                self._settle(number)
                batch = Batch(number, len(live))
                histogram = self._histograms[number]
                self._marks[number] = (batch, histogram.count, histogram.sum)
                self._current[number] = batch
                try:
                    return await original(live)
                finally:
                    batch.end = now()
                    del self._current[number]
                    self.batches.append(batch)
                    for pending in live:
                        self._batch_of[id(pending)] = batch
            return executor
        return make

    def _wrap_submit(self, original):
        async def submit_async(query_id, k=None, deadline_s=None, tag=None):
            entered = now()
            pending = await original(query_id, k, deadline_s=deadline_s, tag=tag)
            handles = _REQUEST.get()
            if handles is not None:
                handles.append((entered, pending))
            return pending
        return submit_async

    def _wrap_scatter(self, number: int) -> Callable:
        def make(original):
            async def search_async(*args, **kwargs):
                started = now()
                replies = await original(*args, **kwargs)
                elapsed = now() - started
                slowest = max(reply.latency_s for reply in replies)
                self.samples["pool.scatter"].append(elapsed)
                self.samples["pool.worker"].append(slowest)
                self.samples["pool.ipc"].append(elapsed - slowest)
                for reply in replies:
                    self.samples["index.search"].append(reply.latency_s)
                    self.samples["index.rows"].append(len(reply.ids))
                self._charge(number, elapsed)
                return replies
            return search_async
        return make

    def _settle(self, number: int) -> None:
        """Give the gateway's last batch the execute time its scheduler
        recorded for it; exactly one batch must have been recorded since."""
        mark = self._marks.pop(number, None)
        if mark is None:
            return
        batch, count, total = mark
        histogram = self._histograms[number]
        if histogram.count == count + 1:
            batch.scheduler_s = histogram.sum - total
        else:
            self._violation(f"the scheduler recorded {histogram.count - count} "
                            f"batches while one batch of {batch.size} executed")

    def finish(self) -> None:
        """Close the window: settle every gateway's last batch."""
        for number in list(self._marks):
            self._settle(number)

    # ------------------------------------------------------------------ #
    # Per-request hooks (run in each request's task)
    # ------------------------------------------------------------------ #
    def before(self, phase: Phase, index: int) -> None:
        _REQUEST.set([])

    def after(self, phase: Phase, index: int) -> None:
        handles = _REQUEST.get()
        if not handles or not phase.ok[index]:
            return
        latency = phase.done[index] - phase.due[index]
        for entered, pending in handles:
            batch = self._batch_of.pop(id(pending), None)
            if batch is None or pending.completed_at is None:
                continue
            execute = batch.end - batch.start
            self.requests_reconciled += 1
            self.samples["scheduler.wait"].append(latency - execute)
            problem = request_violation(phase.sent[index], phase.done[index],
                                        pending.enqueued_at, pending.completed_at,
                                        execute)
            if problem:
                self._violation(problem)
        if self._router is not None and len(handles) == 1:
            entered, pending = handles[0]
            if pending.completed_at is not None:
                routed = phase.done[index] - phase.sent[index]
                self.samples["fleet.route"].append(
                    routed - (pending.completed_at - entered))

    def _violation(self, message: str) -> None:
        if len(self.violations) < 5:
            self.violations.append(message)
        self.violation_count += 1

    def reset(self) -> None:
        """Forget what the warm-up recorded; keep set-up samples."""
        kept = {name: self.samples[name] for name in ("index.build",)}
        self.samples = defaultdict(list, kept)
        self.batches = []
        self._marks.clear()
        self._batch_of.clear()
        self.requests_reconciled = 0
        self.write_reports = []

    def reconcile_batches(self) -> int:
        """Check every batch against its children and its scheduler's
        record; returns how many batches were checked against both."""
        for batch in self.batches:
            problem = batch_violation(batch)
            if problem:
                self._violation(problem)
        return sum(batch.scheduler_s is not None for batch in self.batches)


def index_cost(kind: str, num_services: int, dim: int, rows_per_call: float,
               num_shards: int = 1, index=None) -> Dict[str, float]:
    """Computed (not measured) work per query row of one index search call.

    Exact and int8 scans read their whole table (one shard's rows, for a
    sharded deployment) once per call, so the table bytes are shared by
    the call's rows.  IVF reads the probed lists for every row: an upper
    bound, since rows probing the same list share it.  When the IVF probe
    count is left to the index's default, which the index does not expose,
    every list counts as probed: the figure is then the bound of a full
    scan, and a change of the default probe rule does not move it.
    """
    rows = max(rows_per_call, 1.0)
    scanned = num_services / num_shards
    if kind == "ivf":
        cells = index.num_cells
        probes = min(index.num_probes or cells, cells)
        return {"flops": 2.0 * dim * (cells + scanned * probes / cells),
                "bytes": index.nbytes * probes / cells}
    if kind == "exact":
        return {"flops": 2.0 * dim * scanned, "bytes": index.nbytes / rows}
    # int8 codes: one byte per element.
    return {"flops": 2.0 * dim * scanned, "bytes": scanned * dim / rows}
