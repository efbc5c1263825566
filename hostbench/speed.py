"""Machine-speed probe that puts host times on one reference speed.

On a shared VM the same pure-Python work runs at speeds that differ by up
to 2x, in phases that last from a fraction of a second to several minutes
(other tenants contend for caches and memory bandwidth; the process is not
descheduled, since thread CPU time drifts with wall time).  A 30 s run
cannot average such phases out, so raw host times spread across runs of
the same code by more than any useful bound.

The probe measures that speed while the workload runs.  A ``SIGALRM``
timer interrupts the workload every :data:`INTERVAL_S` and runs :func:`reference` once, a fixed piece of work of a millisecond
or two that mixes what the program's host time goes to: canonical JSON
and BLAKE2b hashing, method calls on small objects, generator resumes
from a heap-ordered queue, and lookups scattered over a table larger than
a core's private cache.  Each sample's duration is recorded, and the time
the probe took is subtracted from the phase.  Each part alone follows the
workloads' slow phases; the mix follows them most closely (per-pass
correlation of the logarithms 0.8 to 0.9 on both bursts).

:meth:`SpeedProbe.normalise` then scales a host time by
``REFERENCE_S / median(samples taken during it)``: the figure is how long
the work would have taken on a machine that runs the reference in
:data:`REFERENCE_S`.  A change to the program moves that figure; a change
in the machine's speed moves the samples too and cancels out.  The probe
is part of the benchmark, not of the program, so no program change can
move it.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Iterator

#: Seconds of wall between two samples.
INTERVAL_S = 0.05
#: Duration of :func:`reference` that normalised times are quoted at: about
#: the median sample inside the workloads on a 2-vCPU VM (Python 3.11).
REFERENCE_S = 0.0018

#: A table of 20 000 small objects (about 5 MB with the dict, more than a
#: core's private cache), probed in an order that scatters the accesses.
#: The lookups are about half the probe's time; weighted less, the probe moved
#: more than the chaos workload between slow and fast phases.
_TABLE = {index * 7919 % 33_331: (index, str(index)) for index in range(20_000)}
_PROBED_KEYS = tuple(range(0, 33_331, 12))


class _Account:
    __slots__ = ("balance", "nonce")

    def __init__(self, balance: int) -> None:
        self.balance = balance
        self.nonce = 0

    def debit(self, amount: int) -> int:
        self.nonce += 1
        self.balance -= amount
        return self.balance


def _process(step: int) -> Iterator[int]:
    value = 0
    while True:
        value = yield value + step


def reference() -> int:
    """The fixed reference work; returns a checksum so nothing is skipped."""
    checksum = 0
    for index in range(60):
        record = {"to": index, "amount": str(index * 3), "path": [index, index + 1]}
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        checksum += hashlib.blake2b(text.encode(), digest_size=32).digest()[0]
    accounts = [_Account(1_000_000) for _ in range(64)]
    for index in range(600):
        checksum += accounts[index & 63].debit(index % 7) & 1
    processes = [_process(step) for step in range(16)]
    for process in processes:
        next(process)
    queue = [(index * 0.37 % 1.0, index, index % 16) for index in range(32)]
    heapq.heapify(queue)
    for _ in range(300):
        at, key, which = heapq.heappop(queue)
        value = processes[which].send(key)
        heapq.heappush(queue, (at + value % 13 * 0.01, key + 32, which))
    for key in _PROBED_KEYS:
        entry = _TABLE.get(key)
        if entry:
            checksum += entry[0]
    return checksum


@dataclass(frozen=True)
class Mark:
    """Probe state at one instant: samples taken and probe time so far."""

    samples: int
    probe_s: float


class SpeedProbe:
    """Samples :func:`reference` every :data:`INTERVAL_S` of wall.

    ``start()`` and ``stop()`` bracket the measured code; a ``mark()`` at
    each phase boundary delimits the samples and probe time of a phase.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.probe_s = 0.0
        self._previous = None

    def sample(self, *_signal: object) -> None:
        """Run the reference once and record it (the ``SIGALRM`` handler)."""
        began = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - began)
        self.probe_s += time.perf_counter() - began

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> Mark:
        return Mark(len(self.samples), self.probe_s)

    def window(self, windows: list[tuple[Mark, Mark]]) -> tuple[list[float], float]:
        """Samples taken, and probe seconds spent, inside ``windows``."""
        samples = [s for low, high in windows for s in self.samples[low.samples:high.samples]]
        return samples, sum(high.probe_s - low.probe_s for low, high in windows)

    @staticmethod
    def normalise(seconds: float, samples: list[float]) -> float:
        """``seconds`` of work quoted at the reference speed."""
        return seconds * REFERENCE_S / statistics.median(samples)
