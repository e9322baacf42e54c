"""Host-speed calibration: times scaled to a reference host speed.

The benchmark runs on shared hosts whose speed drifts by 30% or more
within a minute, as neighbours load the same cores and caches, so raw
wall times of the same code spread past any useful bound.  A fixed
pure-Python kernel, :func:`chunk`, is timed right next to the code being
measured, and a time ``t`` is reported as ``t * REF_CHUNK_S / c``, where
``c`` is the mean time of the chunks run alongside it: the seconds ``t``
would take on a host where one chunk takes :data:`REF_CHUNK_S`.  The
kernel exercises the interpreter paths the simulator spends its time in
(dict probes, slotted attribute updates, bound-method calls, heap pushes
and pops, integer bit operations) but lives here, so no change to the
simulator can move it.

* :class:`Interleaved` runs one machine's event queue in segments of
  :data:`SEGMENT_EVENTS` events with one chunk after each segment, so
  the chunks see the same host as the simulation, segment by segment.
* :class:`Sampler` times chunks on a thread of the parent while forked
  sweep workers run, in thread CPU time, so the parent's own scheduling
  against its workers does not count.
"""

from __future__ import annotations

import heapq
import statistics
import threading
import time
from typing import List, Optional

#: one chunk's wall time on the reference host (2-CPU x86_64 Xeon,
#: CPython 3.11): the median over a quiet minute
REF_CHUNK_S = 0.005
#: events simulated between two calibration chunks
SEGMENT_EVENTS = 20_000
#: pause between two chunks of the sampler thread
SAMPLER_PAUSE_S = 0.045

_ITERATIONS = 3000


class _Line:
    __slots__ = ("key", "hits", "owner")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0
        self.owner = -1

    def touch(self, who: int) -> int:
        self.hits += 1
        if self.owner != who:
            self.owner = who
            return 1
        return 0


def chunk() -> int:
    """The calibration kernel: a fixed amount of work, about 5 ms."""
    lines = {}
    heap: list = []
    x = 12345
    acc = 0
    for i in range(_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 1023
        line = lines.get(key)
        if line is None:
            line = lines[key] = _Line(key)
        acc += line.touch(i & 31)
        heapq.heappush(heap, (x & 0xFFFF, i, line.touch, (key & 31,)))
        if len(heap) > 64:
            _, _, callback, args = heapq.heappop(heap)
            acc += callback(*args)
        acc += (x & -x).bit_length()
    return acc


def timed_chunk() -> float:
    """Wall seconds of one :func:`chunk`."""
    t0 = time.perf_counter()
    chunk()
    return time.perf_counter() - t0


def scale(seconds: float, chunk_s: float) -> float:
    """``seconds`` measured beside chunks of mean ``chunk_s``, at reference speed."""
    return seconds * REF_CHUNK_S / chunk_s


class Interleaved:
    """Runs one machine's event queue with a chunk after every segment.

    ``with Interleaved(system.events) as il: system.run()`` swaps the
    queue's class for a subclass whose unbounded ``run`` drains the heap
    ``SEGMENT_EVENTS`` at a time; everything else, the events run and
    their order included, is the queue's own.  The class is restored on
    exit.  Afterwards ``cal_wall``/``cal_cpu`` hold the chunks' total
    wall and CPU seconds and ``chunks`` their number.
    """

    def __init__(self, queue) -> None:
        self.queue = queue
        self.base = type(queue)
        self.cal_wall = 0.0
        self.cal_cpu = 0.0
        self.chunks = 0

    def __enter__(self) -> "Interleaved":
        base, recorder = self.base, self

        class SegmentedQueue(base):
            __slots__ = ()

            def run(self, *, max_events: Optional[int] = None) -> None:
                if max_events is not None:
                    base.run(self, max_events=max_events)
                    return
                while self:
                    base.run(self, max_events=SEGMENT_EVENTS)
                    recorder.calibrate()

        self.queue.__class__ = SegmentedQueue
        return self

    def __exit__(self, *exc) -> None:
        self.queue.__class__ = self.base

    def calibrate(self) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        chunk()
        self.cal_wall += time.perf_counter() - w0
        self.cal_cpu += time.process_time() - c0
        self.chunks += 1

    def wall_chunk_s(self) -> float:
        return self.cal_wall / max(1, self.chunks)

    def cpu_chunk_s(self) -> float:
        return self.cal_cpu / max(1, self.chunks)


class Sampler:
    """Times chunks in thread CPU time on a thread, while the block runs.

    On exit ``cpu_chunk_s()`` is the chunks' mean and ``cpu_s`` the
    thread's whole CPU time, which the caller takes out of the process's
    own.  At least one chunk is always timed.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.cpu_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        start = time.thread_time()
        try:
            while True:
                c0 = time.thread_time()
                chunk()
                self.samples.append(time.thread_time() - c0)
                if self._stop.wait(SAMPLER_PAUSE_S):
                    return
        finally:
            self.cpu_s = time.thread_time() - start

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def cpu_chunk_s(self) -> float:
        return statistics.fmean(self.samples)
