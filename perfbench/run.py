"""The serving benchmark of record: one workload, one seed, one run.

    python3 perfbench/run.py --workload fleet-sessions --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run sets the deployment up several times (the median
is ``setup_s``), warms it up, measures ``--seconds`` of load, republishes,
probes and checks the answers, and prints every end-to-end metric.  With
``--trace 1`` it splits ``--seconds`` between an untraced window and a
window on a fresh deployment with the bench-side layer wrappers of
:mod:`layertrace` installed, and prints
every per-layer metric plus the traced run's end-to-end deltas (the
tracing overhead).  Both print a table of every metric with its unit, then
the machine fingerprint, and last one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program to measure under {ROOT / 'src'}; "
             f"run from the root of a checkout")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import procstat  # noqa: E402
from layertrace import LayerTrace, index_cost  # noqa: E402
from loadgen import Hooks, Phase, closed_loop, open_loop  # noqa: E402
from workloads import DIM, TOP_K, WORKLOADS, Data, Workload, deploy, make_data  # noqa: E402

from repro.serving.gateway import build_index  # noqa: E402

#: Deployments built per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPS = 7
WARMUP_S = 3.0
#: Publishes timed after the window on workloads without a publisher.
POST_WINDOW_PUBLISHES = 15
#: Pause before each timed set-up and each publish after the window: the
#: medians then sample the machine over seconds, not one stretch of it
#: (its speed moves by a quarter from one second to the next).
PAUSE_S = 0.2
PROBE_QUERIES = 256
#: Window answers of an exact index checked against the exact top-k.
EXACT_CHECK_ROWS = 1024
#: Depth of the reference search that finds every id tied at rank k.
TIE_DEPTH = 64
#: Latency percentiles are medians over consecutive slices of this many
#: requests (see ``sliced_percentile_ms``), so each slice's p99 has at
#: least ten samples beyond it.
SLICE = 1000
#: CPU is sampled this often; ``cpu_ms_per_request`` and the closed-loop
#: throughput are medians over these intervals.
CPU_INTERVAL_S = 1.0
#: Query ids a closed-loop client cycles through.
CLOSED_LOOP_IDS = 200_000
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

Metrics = Dict[str, Tuple[float, str]]


# ---------------------------------------------------------------------- #
# Load phases
# ---------------------------------------------------------------------- #
async def drive(workload: Workload, data: Data, deployment, seconds: float,
                name: str, hooks: Optional[Hooks] = None) -> Phase:
    query_ids = data.stream(workload, CLOSED_LOOP_IDS)
    return await closed_loop(deployment.send, query_ids,
                             data.sessions(workload, query_ids), workload.clients,
                             seconds, name, TOP_K, hooks)


class Publisher:
    """One thread republishing precomputed tables at a fixed period."""

    def __init__(self, store, queries: np.ndarray, tables: List[np.ndarray],
                 period_s: float) -> None:
        self.store = store
        self.queries = queries
        self.tables = tables
        self.period_s = period_s
        self.times: List[float] = []
        self.published: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-publisher")

    def _run(self) -> None:
        next_at = time.monotonic() + self.period_s / 2
        try:
            for table in self.tables:
                if self._stop.wait(max(0.0, next_at - time.monotonic())):
                    return
                started = time.monotonic()
                self.store.publish(self.queries, table)
                self.times.append(time.monotonic() - started)
                self.published = table
                next_at += self.period_s
        except BaseException as error:  # surfaced by stop()
            self.error = error

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        if self.error is not None:
            raise RuntimeError("publish under read traffic failed") from self.error


@dataclass
class Window:
    warmup: Phase
    phase: Phase
    seconds: float
    #: CPU samples every ``CPU_INTERVAL_S`` through the window.
    cpu: List[procstat.Sample]
    counters: Tuple[dict, dict]
    publish_times: List[float]
    peak_rss_mb: float
    #: ``summary()`` of every gateway at the end of the window.
    summaries: List[dict]
    index_kind: str
    num_shards: int
    router: object


def counters(deployment) -> dict:
    """Public counters read at the edges of a window."""
    gateways = deployment.gateways
    return {
        "cache_hits": sum(g.cache.hits for g in gateways),
        "cache_misses": sum(g.cache.misses for g in gateways),
        "backend_queries": sum(g.telemetry.backend_queries for g in gateways),
        "batches": sum(g.scheduler.stats()["batches_dispatched"] for g in gateways),
        "dispatched": sum(g.scheduler.stats()["requests_dispatched"] for g in gateways),
        "fleet": dict(deployment.router.summary()) if deployment.router else {},
        "routed": ({row["replica"]: row["routed"] for row in deployment.router.replica_rows()}
                   if deployment.router else {}),
    }


async def measure(workload: Workload, data: Data, deployment, seconds: float,
                  state: dict, hooks: Optional[LayerTrace] = None) -> Window:
    """Warm up, then measure one window (with the publisher, if any)."""
    warmup = await drive(workload, data, deployment, WARMUP_S, "warm-up", hooks)
    if hooks is not None:
        hooks.reset()
    publisher = None
    if workload.publish_period_s is not None:
        tables, table = [], state["services"]
        for _ in range(int(seconds / workload.publish_period_s) + 1):
            table = data.perturbed(table)
            tables.append(table)
        publisher = Publisher(deployment.store, data.queries, tables,
                              workload.publish_period_s)
    cpu = [procstat.sample()]

    async def sample_cpu() -> None:
        while True:
            await asyncio.sleep(CPU_INTERVAL_S)
            cpu.append(procstat.sample())

    first = counters(deployment)
    sampler = asyncio.get_running_loop().create_task(sample_cpu())
    if publisher is not None:
        publisher.start()
    try:
        phase = await drive(workload, data, deployment, seconds, "window", hooks)
        if hooks is not None:
            hooks.finish()
    finally:
        sampler.cancel()
        if publisher is not None:
            publisher.stop()
    cpu.append(procstat.sample())
    last = counters(deployment)
    if publisher is not None and publisher.published is not None:
        state["services"] = publisher.published
    return Window(warmup, phase, seconds, cpu, (first, last),
                  publisher.times if publisher is not None else [],
                  procstat.peak_rss_mb(),
                  [gateway.summary() for gateway in deployment.gateways],
                  deployment.gateways[0].index_kind,
                  deployment.store.num_shards, deployment.router)


def publish_after_window(data: Data, deployment, state: dict) -> List[float]:
    times = []
    for _ in range(POST_WINDOW_PUBLISHES):
        table = data.perturbed(state["services"])
        time.sleep(PAUSE_S)
        started = time.monotonic()
        deployment.store.publish(data.queries, table)
        times.append(time.monotonic() - started)
        state["services"] = table
    return times


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def sliced_percentile_ms(workload: Workload, window: Window, q: float) -> float:
    """Median over consecutive slices of ``SLICE`` requests of the window
    of their ``q``-th latency percentile: a burst of machine noise shorter
    than half the window moves a minority of slices, not the reported
    figure, and each slice's p99 has at least ten samples beyond it.

    With a publisher the tail is made by the publishes, and a slice holds
    one or two of them, so its p99 falls on either side of the edge of the
    publish-delayed requests.  There the percentile pools the whole window,
    every publish of it.
    """
    phase = window.phase
    latency = phase.latency_s[np.argsort(phase.due[phase.ok], kind="stable")]
    slices = [latency[start:start + SLICE]
              for start in range(0, len(latency) - SLICE + 1, SLICE)]
    if workload.publish_period_s is not None or not slices:
        return _p(latency, q)
    return float(np.median([np.percentile(part, q) for part in slices])) * 1e3


def per_second_median(window: Window) -> Tuple[float, float]:
    """Median over the window's whole seconds of (answers landed, CPU ms
    per answer)."""
    phase = window.phase
    done = np.sort(phase.done[phase.ok])
    rates, costs = [], []
    intervals = [(before, after) for before, after in zip(window.cpu, window.cpu[1:])
                 if after.wall_s - before.wall_s >= 0.9 * CPU_INTERVAL_S]
    for before, after in intervals or [(window.cpu[0], window.cpu[-1])]:
        answered = int(np.searchsorted(done, after.wall_s) - np.searchsorted(done, before.wall_s))
        rates.append(answered / (after.wall_s - before.wall_s))
        if answered:
            costs.append((after.cpu_s - before.cpu_s) * 1e3 / answered)
    return statistics.median(rates), statistics.median(costs)


def end_to_end(workload: Workload, window: Window, bad: int, recall: float,
               publish_times: List[float], setup_times: List[float]) -> Metrics:
    phase = window.phase
    sent = phase.sent_count
    latency = phase.latency_s
    throughput, cpu_ms = per_second_median(window)
    within = int((latency <= workload.slo_ms * 1e-3).sum())
    errors = phase.failed + bad
    return {
        "setup_s": (statistics.median(setup_times) if setup_times else 0.0, "s"),
        "throughput_qps": (throughput, "req/s"),
        "latency_p50_ms": (sliced_percentile_ms(workload, window, 50), "ms"),
        "latency_p99_ms": (sliced_percentile_ms(workload, window, 99), "ms"),
        "slo_attainment": (within / sent, "share"),
        "success_rate": (1.0 - errors / sent, "share"),
        "recall_at_10": (recall, "share"),
        "publish_ms": (statistics.median(publish_times) * 1e3, "ms"),
        "cpu_ms_per_request": (cpu_ms, "ms"),
        "peak_rss_mb": (window.peak_rss_mb, "MB"),
    }


def _p(samples, q: float, scale: float = 1e3) -> float:
    return float(np.percentile(samples, q)) * scale if len(samples) else 0.0


def _mean(samples, scale: float = 1.0) -> float:
    return float(np.mean(samples)) * scale if len(samples) else 0.0


def layer_metrics(workload: Workload, window: Window, trace: LayerTrace,
                  untraced: Metrics, traced: Metrics) -> Metrics:
    phase, seconds = window.phase, window.seconds
    samples = trace.samples
    start, end = window.counters
    delta = {key: end[key] - start[key] for key in
             ("cache_hits", "cache_misses", "backend_queries", "batches", "dispatched")}
    summaries = window.summaries
    cpu_s = window.cpu[-1].cpu_s - window.cpu[0].cpu_s
    wall_s = window.cpu[-1].wall_s - window.cpu[0].wall_s
    answered = max(phase.completed, 1)
    executes = [batch.end - batch.start for batch in trace.batches]
    rows = samples["index.rows"]
    rows_per_call = _mean(rows)
    searched = samples["index.search"]
    lookups = delta["cache_hits"] + delta["cache_misses"]
    num_shards = window.num_shards
    cost = index_cost(window.index_kind, workload.num_services, DIM, rows_per_call,
                      num_shards=num_shards,
                      index=trace.indexes[-1] if trace.indexes else None)
    reports = trace.write_reports
    metrics: Metrics = {
        "loadgen.lag_p99_ms": (_p(phase.lag_s, 99), "ms"),
        "loadgen.sent": (float(phase.sent_count), "count"),
        "loadgen.completed": (float(phase.completed), "count"),
        "loadgen.failed": (float(phase.failed), "count"),
        "loadgen.latency_p99_all_ms": (_p(phase.latency_s, 99), "ms"),
        "scheduler.batches": (float(delta["batches"]), "count"),
        "scheduler.batch_size_mean": (delta["dispatched"] / max(delta["batches"], 1), "req"),
        "scheduler.execute_ms_p50": (_p(executes, 50), "ms"),
        "scheduler.execute_ms_p95": (_p(executes, 95), "ms"),
        "scheduler.wait_ms_p50": (_p(samples["scheduler.wait"], 50), "ms"),
        "scheduler.queue_depth_mean": (_mean([s["queue_depth_mean"] for s in summaries]), "req"),
        "scheduler.loop_lag_max_ms": (max(s["loop_lag_max_ms"] for s in summaries), "ms"),
        "cache.hit_rate": (delta["cache_hits"] / max(lookups, 1), "share"),
        "cache.get_us_mean": (_mean(samples["cache.get"], 1e6), "us"),
        "cache.backend_queries": (float(delta["backend_queries"]), "count"),
        "telemetry.record_us_mean": (_mean(samples["telemetry.record"], 1e6), "us"),
        "telemetry.calls": (float(len(samples["telemetry.record"])), "count"),
        "index.search_calls": (float(len(searched)), "count"),
        "index.rows_per_call": (rows_per_call, "rows"),
        "index.search_ms_p50": (_p(searched, 50), "ms"),
        "index.search_us_per_row": (sum(searched) * 1e6 / max(sum(rows), 1), "us"),
        "index.busy_share": (sum(searched) / (seconds * num_shards * workload.replicas),
                             "share"),
        "index.build_s": (_p(samples["index.build"], 50, 1.0), "s"),
        "index.flops_per_row": (cost["flops"], "flop.computed"),
        "index.bytes_per_row": (cost["bytes"], "B.computed"),
        "store.publishes": (float(len(samples["store.publish"])), "count"),
        "store.quantize_ms_p50": (_p(samples["store.quantize"], 50), "ms"),
        "store.prepare_ms_p50": (_p(samples["store.prepare"], 50), "ms"),
        "store.activate_ms_p50": (_p(samples["store.activate"], 50), "ms"),
        "snapshot.write_ms_p50": (_p(samples["snapshot.write"], 50), "ms"),
        "snapshot.chunks_written": (float(sum(r.chunks_written for r in reports)), "count"),
        "snapshot.chunks_shared": (float(sum(r.chunks_shared for r in reports)), "count"),
        "snapshot.bytes_written": (float(sum(r.bytes_written for r in reports)), "B"),
        "pool.scatter_ms_p50": (_p(samples["pool.scatter"], 50), "ms"),
        "pool.worker_ms_p50": (_p(samples["pool.worker"], 50), "ms"),
        "pool.ipc_ms_p50": (_p(samples["pool.ipc"], 50), "ms"),
        "pool.prepare_ms_p50": (_p(samples["pool.prepare"], 50), "ms"),
        "merge.ms_p50": (_p(samples["merge"], 50), "ms"),
    }
    metrics.update(fleet_metrics(window, samples))
    metrics.update({
        "proc.cpu_util": (cpu_s / (wall_s * os.cpu_count()), "share"),
        "proc.ctx_switches_per_request": (
            (window.cpu[-1].ctx_switches - window.cpu[0].ctx_switches) / answered, "count"),
        "trace.batches_reconciled": (float(trace.reconcile_batches()), "count"),
        "trace.requests_reconciled": (float(trace.requests_reconciled), "count"),
    })
    for name in ("throughput_qps", "latency_p50_ms", "latency_p99_ms",
                 "cpu_ms_per_request"):
        base = untraced[name][0]
        metrics[f"trace.overhead.{name}"] = (
            (traced[name][0] - base) / base if base else 0.0, "share")
    return metrics


def fleet_metrics(window: Window, samples) -> Metrics:
    if window.router is None:
        return {name: (0.0, unit) for name, unit in (
            ("fleet.replica_share_max", "share"), ("fleet.fallback_share", "share"),
            ("fleet.failovers", "count"), ("fleet.ejections", "count"),
            ("fleet.route_us_mean", "us"), ("fleet.replica_cache_hit_rate", "share"))}
    start, end = window.counters
    routed = {name: end["routed"][name] - start["routed"].get(name, 0.0)
              for name in end["routed"]}
    total = max(sum(routed.values()), 1.0)
    fleet = {key: end["fleet"][key] - start["fleet"].get(key, 0.0)
             for key in ("requests", "fallback_routes", "failovers", "ejections")}
    # The router's own summary()["cache_hit_rate"] reads 0.0 (it records
    # every answer as a miss), so the rate comes from the replicas.
    replicas = window.summaries
    requests = sum(s["requests"] for s in replicas)
    hits = sum(s["cache_hit_rate"] * s["requests"] for s in replicas)
    return {
        "fleet.replica_share_max": (max(routed.values()) / total, "share"),
        "fleet.fallback_share": (fleet["fallback_routes"] / max(fleet["requests"], 1.0), "share"),
        "fleet.failovers": (fleet["failovers"], "count"),
        "fleet.ejections": (fleet["ejections"], "count"),
        "fleet.route_us_mean": (_mean(samples["fleet.route"], 1e6), "us"),
        "fleet.replica_cache_hit_rate": (hits / max(requests, 1.0), "share"),
    }


# ---------------------------------------------------------------------- #
# Checks
# ---------------------------------------------------------------------- #
def wrong_exact_answers(data: Data, phase: Phase, services: np.ndarray,
                        rows: Optional[int] = None) -> int:
    """Well-formed answers of an exact index that are not the exact top-k,
    over every answer of ``phase`` or a seeded sample of ``rows`` of them."""
    ok = np.nonzero(phase.ok)[0]
    ok = ok[checks.well_formed(phase.ids[ok], len(services))]
    if rows is not None and len(ok) > rows:
        ok = np.sort(data.rng.choice(ok, rows, replace=False))
    return checks.exact_mismatches(phase.ids[ok], data.queries[phase.query_ids[ok]],
                                   services)


async def probe(workload: Workload, data: Data, deployment, state: dict,
                problems: List[str]) -> Tuple[Phase, float]:
    """Probe queries at the final version: recall and, for the exact and
    int8 indexes, the answers themselves."""
    probe_ids = data.rng.choice(workload.num_queries, PROBE_QUERIES, replace=False)
    phase = await open_loop(deployment.send, probe_ids,
                            data.sessions(workload, probe_ids),
                            np.zeros(len(probe_ids)), "probes", TOP_K)
    served = phase.ids[phase.ok]
    exact = checks.exact_top_k(data.queries[probe_ids[phase.ok]],
                               state["services"], TOP_K)
    recall = checks.recall(served, exact)
    if deployment.gateways[0].index_kind == "exact":
        wrong = wrong_exact_answers(data, phase, state["services"])
        state["wrong"] += wrong
        if wrong:
            problems.append(f"{wrong} probe answers of the exact index are "
                            f"not the exact top-{TOP_K}")
    if workload.name == "refresh-sharded":
        snapshot = deployment.store.snapshot()
        if snapshot.version != state["version"]:
            problems.append(f"store serves v{snapshot.version}, "
                            f"expected v{state['version']}")
        reference = build_index("int8", snapshot.services,
                                int8_table=snapshot.quantized["int8"])
        expected = reference.search(snapshot.query(probe_ids[phase.ok]), TIE_DEPTH)
        differing, tied = checks.ranking_mismatches(served, *expected)
        state["tie_divergent"] = tied
        if differing:
            problems.append(f"{differing} probe answers differ from a "
                            f"single-process int8 index of the same snapshot")
    return phase, recall


# ---------------------------------------------------------------------- #
# Runs
# ---------------------------------------------------------------------- #
@dataclass
class Session:
    phases: List[Phase]
    metrics: Metrics
    window: Window
    problems: List[str]
    #: Probe answers that differ from the int8 reference only among ids
    #: tied at rank k (see ``checks.ranking_mismatches``).
    tie_divergent: int
    #: Well-formed answers of an exact index that are not the exact top-k.
    wrong: int


async def session(workload: Workload, data: Data, seconds: float, scratch: Path,
                  setup_reps: int, trace: Optional[LayerTrace] = None) -> Session:
    """Deploy, measure one window, republish, probe and check the answers."""
    if trace is not None:
        trace.install_modules()
    setup_times = []
    for rep in range(setup_reps):
        time.sleep(PAUSE_S)
        started = time.monotonic()
        deployment = deploy(workload, data, tempfile.mkdtemp(dir=scratch))
        setup_times.append(time.monotonic() - started)
        if rep < setup_reps - 1:
            deployment.close()
        # Reclaim each discarded deployment now: peak memory then holds one
        # deployment, and no collector pause falls inside the window.
        gc.collect()
    state = {"services": data.services, "wrong": 0, "window_wrong": 0}
    problems: List[str] = []
    try:
        if trace is not None:
            trace.install_deployment(deployment)
        window = await measure(workload, data, deployment, seconds, state, trace)
        publish_times = window.publish_times
        if not publish_times:
            publish_times = publish_after_window(data, deployment, state)
        state["version"] = len(publish_times)
        if deployment.gateways[0].index_kind == "exact" and not window.publish_times:
            # No publish during the window: every answer is at the first version.
            wrong = wrong_exact_answers(data, window.phase, data.services,
                                        EXACT_CHECK_ROWS)
            state["wrong"] += wrong
            state["window_wrong"] = wrong
            if wrong:
                problems.append(f"{wrong} of {EXACT_CHECK_ROWS} window answers of "
                                f"the exact index are not the exact top-{TOP_K}")
        if trace is not None:
            trace.uninstall()
        probes, recall = await probe(workload, data, deployment, state, problems)
    finally:
        if trace is not None:
            trace.uninstall()
        await shutdown(deployment)
    phases = [window.warmup, window.phase, probes]
    for phase in phases:
        bad = checks.bad_answers(phase, workload.num_services)
        if bad:
            problems.append(f"{bad} {phase.name} answers are not {TOP_K} "
                            f"distinct in-range ids")
    if not window.publish_times and workload.publish_period_s is not None:
        problems.append("no publish completed under read traffic")
    if window.router is not None:
        first, last = window.counters
        idle = [name for name, routed in last["routed"].items()
                if routed <= first["routed"].get(name, 0.0)]
        if idle:
            problems.append(f"replicas {idle} were routed no request in the window")
    metrics = end_to_end(workload, window,
                         checks.bad_answers(window.phase, workload.num_services)
                         + state["window_wrong"],
                         recall, publish_times, setup_times)
    return Session(phases, metrics, window, problems, state.get("tie_divergent", 0),
                   state["wrong"])


async def shutdown(deployment) -> None:
    await deployment.stop_async()
    deployment.close()


async def run(workload: Workload, seed: int, seconds: float, traced: bool,
              scratch: Path) -> Tuple[List[Session], Metrics, Metrics]:
    data = make_data(workload, seed)
    if not traced:
        plain = await session(workload, data, seconds, scratch, SETUP_REPS)
        return [plain], plain.metrics, plain.metrics
    # The two windows share the run's measuring time.
    plain = await session(workload, data, seconds / 2, scratch, 1)
    trace = LayerTrace(num_gateways=workload.replicas)
    with_trace = await session(workload, data, seconds / 2, scratch, 1, trace)
    layers = layer_metrics(workload, with_trace.window, trace, plain.metrics,
                           with_trace.metrics)
    layers["merge.tie_divergent_probes"] = (float(with_trace.tie_divergent), "count")
    if trace.violations:
        with_trace.problems.append(
            f"{trace.violation_count} accounting violations, "
            f"e.g. {trace.violations[0]}")
    return [plain, with_trace], plain.metrics, layers


# ---------------------------------------------------------------------- #
# Reporting
# ---------------------------------------------------------------------- #
def fingerprint(workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy without mode="dicts"
        pass
    commit = None
    try:
        # The ceiling keeps git from reading a repository above the checkout.
        found = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.split()
        if len(found) == 2 and Path(found[0]).resolve() == ROOT:
            commit = found[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(traced), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def print_table(title: str, metrics: Metrics) -> None:
    print(f"== {title}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build_dir))
    try:
        sessions, untraced, reported = asyncio.run(
            run(workload, args.seed, args.seconds, bool(args.trace), scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
    problems = [problem for s in sessions for problem in s.problems]
    phases = [phase for s in sessions for phase in s.phases]
    print_table(f"{workload.name}: end to end (untraced window of "
                f"{sessions[0].window.seconds:g} s, "
                f"{sessions[0].window.phase.completed} latency samples)", untraced)
    if args.trace:
        print_table(f"{workload.name}: per layer (traced window)", reported)
    print("== phases")
    for number, phase in enumerate(phases):
        run_name = "traced" if number >= 3 else "untraced"
        print(f"  {run_name:<8} {phase.name:<8} sent {phase.sent_count:>7} "
              f"completed {phase.completed:>7} failed {phase.failed:>5} "
              f"errors {phase.errors}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    tied = sum(s.tie_divergent for s in sessions)
    if tied:
        print(f"note: {tied} probe answers differ from the single-process int8 "
              f"index only in which of several ids tied at rank {TOP_K} made the cut")
    print("fingerprint " + json.dumps(
        fingerprint(workload, args.seed, args.seconds, bool(args.trace))))
    bad = sum(checks.bad_answers(phase, workload.num_services) for phase in phases)
    bad += sum(s.wrong for s in sessions)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(phase.sent_count for phase in phases),
        "failed": sum(phase.failed for phase in phases) + bad,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
