"""CPU time, context switches and peak memory of this process and its
worker children, read while the children are still alive.

``resource.getrusage(RUSAGE_CHILDREN)`` only covers children that have
exited and been waited for, so live shard workers are read from
``/proc/<pid>`` instead (Linux).
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import time
from dataclasses import dataclass

_TICK = os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    ctx_switches: int


def _child_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 of stat (utime, stime) are 12 and 13 after the name.
    return (int(fields[11]) + int(fields[12])) / _TICK


def _child_status(pid: int) -> dict:
    status = {}
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            status[key] = value.split()
    return status


def _children():
    return [child.pid for child in multiprocessing.active_children()]


def sample() -> Sample:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = usage.ru_utime + usage.ru_stime
    switches = usage.ru_nvcsw + usage.ru_nivcsw
    for pid in _children():
        try:
            cpu_s += _child_cpu_s(pid)
            status = _child_status(pid)
            switches += int(status["voluntary_ctxt_switches"][0])
            switches += int(status["nonvoluntary_ctxt_switches"][0])
        except (OSError, KeyError, IndexError):  # the child exited meanwhile
            continue
    return Sample(time.monotonic(), cpu_s, switches)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live worker children."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in _children():
        try:
            kib += int(_child_status(pid)["VmHWM"][0])
        except (OSError, KeyError, IndexError):
            continue
    return kib / 1024.0
