"""How slow the box runs right now, from a calibration snippet.

The benchmark box is shared with other tenants, and its speed swings by
up to 2x within seconds; every wall time the program reports moves
with it.  A fixed snippet that uses only the standard library, timed
between batches, follows the same swing, but more strongly than the
program does: when the snippet takes twice as long, a serial run takes
about 1.7 times as long, and a pool batch about 1.4 times.  The
benchmark scales its times by :meth:`BoxSpeed.slowdown`, the snippet's
time over its reference time raised to :data:`SERIAL_EXPONENT` or
:data:`POOL_EXPONENT`.  The snippet runs none of the program's code, so
a change to the program moves the scaled figures exactly as much as the
raw ones.

The snippet runs with the same parallelism as the workload: a workload
that keeps two worker processes busy is calibrated by two processes
timing the snippet at once, in worker processes this module starts and
stops.  They are forked, not spawned: a spawned worker also starts the
multiprocessing resource tracker, a helper process that outlives every
join and ends only after the benchmark has exited.
"""

from __future__ import annotations

import gc
import multiprocessing
import statistics
import time
from typing import Dict, List

#: seconds the snippet takes on an idle 2-core reference box (x86-64,
#: Python 3.11): the fast end of the swing
REFERENCE_S = 0.006

#: how strongly run times follow the snippet's time, fitted over ninety
#: runs of the three workloads (see ``perfbench/README.md``): in-process,
#: and on a pool, where process start, pipes and waiting on the slower
#: shard do not follow it
SERIAL_EXPONENT = 0.75
POOL_EXPONENT = 0.5


class _Node:
    __slots__ = ("key", "nbrs", "label")

    def __init__(self, key: int) -> None:
        self.key = key
        self.nbrs: List["_Node"] = []
        self.label: tuple = ()


def calibration_snippet() -> float:
    """Seconds a fixed piece of integer, dict, set and object work takes.

    The mix resembles the program's own: small dicts and sets, sorting,
    attribute access and tuple building.  The collector is paused so that
    only the box's speed, not the heap of the calling process, shows.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: Dict[int, int] = {}
        acc = 0
        for i in range(12000):
            table[i & 1023] = table.get(i & 1023, 0) + i
            acc += (i * 2654435761) % 97
        adj: Dict[int, set] = {v: set() for v in range(400)}
        for i in range(1200):
            u, v = (i * 7919) % 400, (i * 104729 + 13) % 400
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        seen, stack = {0}, [0]
        while stack:
            for v in sorted(adj[stack.pop()]):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        nodes = [_Node(v) for v in range(400)]
        for node in nodes:
            node.nbrs = [nodes[v] for v in adj[node.key]]
            node.label = tuple((node.key, len(node.nbrs), k) for k in range(3))
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def _calibrate_on_request(conn) -> None:
    """Worker loop: time the snippet twice each time the parent asks.

    A pool batch lasts most of a second, so one sample between batches
    covers a smaller share of it than between the serial runs; timing
    twice halves that gap at about 1% of the batch time.
    """
    while conn.recv():
        conn.send((calibration_snippet() + calibration_snippet()) / 2)
    conn.close()


class BoxSpeed:
    """Calibration samples of one measured phase, at a given parallelism.

    With ``width`` above 1 this starts ``width`` idle worker processes;
    use it as a context manager so that they are stopped and joined.
    """

    def __init__(self, width: int = 1) -> None:
        self.samples: List[float] = []
        self.exponent = POOL_EXPONENT if width > 1 else SERIAL_EXPONENT
        self._workers = []
        ctx = multiprocessing.get_context("fork")
        for _ in range(width if width > 1 else 0):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_calibrate_on_request, args=(child,), daemon=True)
            proc.start()
            child.close()
            self._workers.append((proc, parent))

    def sample(self) -> None:
        """Time the snippet once (in every worker at once, if there are any)."""
        if not self._workers:
            self.samples.append(calibration_snippet())
            return
        for _, conn in self._workers:
            conn.send(True)
        self.samples.append(statistics.fmean(conn.recv() for _, conn in self._workers))

    def slowdown(self) -> float:
        """How much slower than on the reference box runs were (above 1: slower)."""
        return (statistics.fmean(self.samples) / REFERENCE_S) ** self.exponent

    def batch_slowdowns(self) -> List[float]:
        """The slowdown over each batch, from the mean of the samples around it."""
        return [
            ((a + b) / 2 / REFERENCE_S) ** self.exponent
            for a, b in zip(self.samples, self.samples[1:])
        ]

    def close(self) -> None:
        for proc, conn in self._workers:
            try:
                conn.send(False)
            except OSError:  # the worker is gone already; join() reaps it
                pass
            conn.close()
        for proc, _ in self._workers:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._workers = []

    def __enter__(self) -> "BoxSpeed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
