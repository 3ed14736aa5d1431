"""Load generators: a fixed-size closed loop and a scheduled open loop.

Both run on the caller's asyncio loop and call one coroutine per request,
``send(query_id, session_id)``, which returns the answered top-k id array.
All times come from :func:`time.monotonic`, the clock the serving stack
stamps its own request handles with, so bench-side and server-side times
can be compared directly.

Closed loop (every measured window): ``clients`` callers each wait for
their reply before sending the next request; latency counts from the send.

Open loop (the probes, and any schedule a caller fixes before the run):
each request's latency counts from its *scheduled* instant, not
from when its task first ran, so a stall in the server or in the loop is
charged to every request that fell due during it.  How late the generator
actually started each request is reported as its lag.

Outcomes live in preallocated numpy arrays, not one object per request:
a heap that grows with the run would make the interpreter's cyclic garbage
collector pause for longer and longer, and those pauses would be charged
to the server.  For the same reason finished tasks are not retained.  The
arrays are written in full when a phase starts, so the bench's own memory
is set by the phase's capacity (the open loop's schedule, or the closed
loop's reserve of ``CLOSED_LOOP_MAX_QPS``), not by how many requests the
server answered: a faster server does not read as a larger footprint.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, Dict, Optional, Sequence

import numpy as np

Send = Callable[[int, int], Awaitable[np.ndarray]]
#: Requests per second a closed loop reserves room for (not a load).
CLOSED_LOOP_MAX_QPS = 100_000


class Hooks:
    """Called around every request; the traced run overrides both."""

    def before(self, phase: "Phase", index: int) -> None:
        """Runs in the request's task just before the send."""

    def after(self, phase: "Phase", index: int) -> None:
        """Runs in the request's task once its outcome is recorded."""


class Phase:
    """The outcomes of one phase (warm-up, measured window or probes)."""

    def __init__(self, name: str, capacity: int, k: int) -> None:
        self.name = name
        self.count = 0
        self.due = np.zeros(capacity)
        self.sent = np.zeros(capacity)
        self.done = np.zeros(capacity)
        self.ok = np.zeros(capacity, dtype=bool)
        #: Answered ids; a row of -1 where an answer had the wrong length.
        self.ids = np.zeros((capacity, k), dtype=np.int32)
        self.query_ids = np.zeros(capacity, dtype=np.int64)
        for name in self._ARRAYS:
            getattr(self, name).fill(0)  # map every page now (see above)
        self.errors: Dict[str, int] = {}
        self.started = 0.0
        self.ended = 0.0

    def claim(self, due: float, query_id: int) -> int:
        index = self.count
        if index == len(self.due):
            self._grow()
        self.count += 1
        self.due[index] = due
        self.query_ids[index] = query_id
        return index

    _ARRAYS = ("due", "sent", "done", "ok", "ids", "query_ids")

    def _grow(self) -> None:
        for name in self._ARRAYS:
            array = getattr(self, name)
            grown = np.zeros((2 * len(array),) + array.shape[1:], dtype=array.dtype)
            grown[: len(array)] = array
            grown[len(array):] = 0
            setattr(self, name, grown)

    def trim(self) -> "Phase":
        for name in self._ARRAYS:
            setattr(self, name, getattr(self, name)[: self.count])
        return self

    @property
    def sent_count(self) -> int:
        return self.count

    @property
    def completed(self) -> int:
        return int(self.ok.sum())

    @property
    def failed(self) -> int:
        return self.count - self.completed

    @property
    def latency_s(self) -> np.ndarray:
        """Latency of every answered request, from when it was due."""
        return (self.done - self.due)[self.ok]

    @property
    def lag_s(self) -> np.ndarray:
        """How late the generator started each request."""
        return self.sent - self.due


async def _call(send: Send, phase: Phase, index: int, session_id: int,
                hooks: Optional[Hooks]) -> None:
    phase.sent[index] = time.monotonic()
    if hooks is not None:
        hooks.before(phase, index)
    try:
        ids = await send(int(phase.query_ids[index]), session_id)
    except Exception as error:  # every failure is counted, none stops the load
        key = type(error).__name__
        phase.errors[key] = phase.errors.get(key, 0) + 1
    else:
        phase.ok[index] = True
        if len(ids) == phase.ids.shape[1]:
            phase.ids[index] = ids
        else:
            phase.ids[index] = -1  # wrong length: fails the id check
    phase.done[index] = time.monotonic()
    if hooks is not None:
        hooks.after(phase, index)


async def open_loop(send: Send, query_ids: Sequence[int],
                    session_ids: Sequence[int], offsets_s: Sequence[float],
                    name: str, k: int,
                    hooks: Optional[Hooks] = None) -> Phase:
    """Send request ``i`` at ``start + offsets_s[i]`` whether or not earlier
    requests have finished; wait for every request before returning."""
    loop = asyncio.get_running_loop()
    phase = Phase(name, len(offsets_s), k)
    pending: set = set()
    phase.started = start = time.monotonic()
    for query_id, session_id, offset in zip(query_ids, session_ids, offsets_s):
        due = start + float(offset)
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        index = phase.claim(due, int(query_id))
        task = loop.create_task(_call(send, phase, index, int(session_id), hooks))
        pending.add(task)
        task.add_done_callback(pending.discard)
    phase.ended = start + float(offsets_s[-1])
    while pending:
        await asyncio.gather(*list(pending))
    return phase.trim()


async def closed_loop(send: Send, query_ids: Sequence[int],
                      session_ids: Sequence[int], clients: int,
                      seconds: float, name: str, k: int,
                      hooks: Optional[Hooks] = None) -> Phase:
    """``clients`` callers send back to back for ``seconds``; each takes the
    next query and session id of ``query_ids`` and ``session_ids`` (cycled).
    Requests sent before the deadline are all waited for and counted."""
    phase = Phase(name, int(seconds * CLOSED_LOOP_MAX_QPS) + 4096, k)
    phase.started = start = time.monotonic()
    phase.ended = stop_at = start + seconds

    async def client() -> None:
        while time.monotonic() < stop_at:
            position = phase.count % len(query_ids)
            index = phase.claim(time.monotonic(), int(query_ids[position]))
            await _call(send, phase, index, int(session_ids[position]), hooks)

    await asyncio.gather(*(client() for _ in range(clients)))
    return phase.trim()
