"""Self-tests of the benchmark's load generator and checks.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import asyncio
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from layertrace import Batch, batch_violation, request_violation  # noqa: E402
from loadgen import open_loop  # noqa: E402


class StallingGateway:
    """Answers at once, except one call that blocks the event loop."""

    def __init__(self, stall_at: int, stall_s: float) -> None:
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.calls = 0
        self.stall_ended = 0.0

    async def send(self, query_id: int, session_id: int) -> np.ndarray:
        self.calls += 1
        if self.calls == self.stall_at:
            time.sleep(self.stall_s)  # a synchronous stall, like a GC pause
            self.stall_ended = time.monotonic()
        return np.arange(10)


def test_open_loop_charges_a_stall_to_requests_due_during_it():
    gateway = StallingGateway(stall_at=100, stall_s=0.2)
    offsets = np.arange(600) * 1e-3  # one request per millisecond
    phase = asyncio.run(open_loop(gateway.send, np.zeros(600, dtype=int),
                                  np.zeros(600, dtype=int), offsets, "window", 10))
    stall_started = phase.sent[99]
    stalled = (phase.due > stall_started) & (phase.due < gateway.stall_ended)
    assert stalled.sum() >= 150
    # Each request due during the stall waited at least until it ended.
    owed = gateway.stall_ended - phase.due[stalled]
    assert np.all(phase.latency_s[stalled] >= owed)
    assert np.all(phase.lag_s[stalled] >= owed)
    assert np.percentile(phase.lag_s, 99) >= 0.15
    assert phase.completed == 600


def test_bad_answers_counts_duplicates_and_out_of_range_ids():
    phase = asyncio.run(open_loop(_answers([[0, 1, 2], [0, 0, 2], [0, 1, 9]]),
                                  [0, 1, 2], [0, 1, 2], np.zeros(3), "probes", 3))
    assert checks.bad_answers(phase, num_services=5) == 2


def test_ranking_mismatches_accepts_only_ties_at_rank_k():
    ids = np.array([[4, 7, 2, 9, 1]])
    scores = np.array([[5.0, 4.0, 3.0, 3.0, 1.0]])
    assert checks.ranking_mismatches(np.array([[4, 7, 2]]), ids, scores) == (0, 0)
    assert checks.ranking_mismatches(np.array([[4, 7, 9]]), ids, scores) == (0, 1)
    assert checks.ranking_mismatches(np.array([[4, 2, 9]]), ids, scores) == (1, 0)
    assert checks.ranking_mismatches(np.array([[4, 7, 1]]), ids, scores) == (1, 0)


def test_exact_mismatches_accepts_ties_and_rejects_wrong_or_misordered_rows():
    queries = np.array([[1.0, 0.0]])
    services = np.array([[3.0, 0.0], [2.0, 0.0], [2.0, 5.0], [1.0, 0.0], [0.0, 1.0]])
    exact = lambda rows: checks.exact_mismatches(np.array(rows), queries, services)
    assert exact([[0, 1, 2]]) == 0
    assert exact([[0, 2, 1]]) == 0  # ids 1 and 2 tie at rank 2
    assert exact([[0, 1, 3]]) == 1  # id 3 scores below the cut
    assert exact([[1, 0, 2]]) == 1  # out of order
    assert exact([[1, 2, 3]]) == 1  # misses id 0


def test_batch_accounting_fails_on_inconsistent_pairs():
    batch = Batch(gateway=0, size=4)
    batch.start, batch.end, batch.child = 10.0, 10.004, 0.003
    batch.scheduler_s = 0.0041
    assert batch_violation(batch) is None
    batch.child = 0.005  # children longer than their batch
    assert "children" in batch_violation(batch)
    batch.child, batch.scheduler_s = 0.003, 0.002  # the scheduler saw less
    assert "scheduler recorded" in batch_violation(batch)


def test_request_accounting_fails_on_inconsistent_pairs():
    # Client sent at 1.000 and got the answer at 1.010; the server stamped
    # the request at 1.001 and completed it at 1.009; its batch ran 5 ms.
    assert request_violation(1.000, 1.010, 1.001, 1.009, 0.005) is None
    # Server latency longer than the client's.
    assert "not inside" in request_violation(1.000, 1.010, 0.999, 1.009, 0.005)
    assert "not inside" in request_violation(1.000, 1.010, 1.001, 1.011, 0.005)
    # A batch longer than the server latency of a request in it.
    assert "longer than" in request_violation(1.000, 1.010, 1.006, 1.009, 0.005)


def _answers(rows):
    async def send(query_id: int, session_id: int) -> np.ndarray:
        return np.array(rows[query_id])
    return send
