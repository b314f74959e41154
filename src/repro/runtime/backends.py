"""Pluggable execution backends for the batched runtime.

Every batch runs through one engine,
:class:`~repro.runtime.resilience._ResilientExecution`, which owns the
failure policy (strict, retry, degrade).  A backend owns only where the
shards of each wave execute, behind one method,
:meth:`ExecutionBackend.execute`:

* :class:`SerialBackend` — the ``workers=0`` reference path, in process.
* :class:`ProcessPoolBackend` — a local ``ProcessPoolExecutor``, kept
  warm across batches until :meth:`~ExecutionBackend.close`; a pool
  broken by a lost worker, or holding a hung one, is terminated and
  rebuilt for the next wave.
* :class:`~repro.runtime.remote.RemoteWorkerBackend` — socket-dispatched
  agents started by ``repro worker --connect host:port`` (its own
  module; resolvable here by the ``remote:host:port`` spec string).

The load-bearing invariant is inherited from
:mod:`repro.runtime.seeds` and restated here because every backend must
preserve it: run ``i`` of a batch with master seed ``s`` derives all of
its randomness from ``SeedSequence(s).child(i)`` — keyed by *run index*,
never by shard layout, worker assignment, or backend — so all backends
produce byte-identical ``BatchReport.canonical_json()`` for the same
``(task, n, seeds)`` batch.  ``tests/test_backends.py`` pins that
differentially.

Backends are addressable by name (:func:`resolve_backend`): ``"serial"``,
``"process"``, and ``"remote:host:port"``; ``None`` maps ``workers``
(0 means serial, anything else the pool).
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..obs import metrics as obs_metrics
from .resilience import _execute_resilient_shard, _ResilientExecution

#: records + failures + cache-stats triple every execution returns
ExecutionResult = Tuple[List[Any], List[Any], Optional[Dict[str, int]]]


def plan_shards(
    indices: Iterable[int],
    *,
    workers: int = 1,
    chunk_size: Optional[int] = None,
) -> List[List[int]]:
    """Partition run indices into dispatchable shards, order-preserving.

    The plan is a *permutation-free tiling*: concatenating the shards
    reproduces the input order exactly, every shard is non-empty, and no
    index is dropped or duplicated.  Nothing downstream may depend on
    the tiling — per-run seed streams are keyed by run index alone — but
    the property keeps shard/record bookkeeping trivially auditable
    (``tests/test_backends.py`` holds the hypothesis proof).

    Without an explicit ``chunk_size`` the default granularity is ~4
    shards per worker, the historical ``BatchRunner`` heuristic.
    """
    indices = list(indices)
    if chunk_size is not None and chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    chunk = chunk_size or max(1, math.ceil(len(indices) / (max(1, workers) * 4)))
    return [indices[lo : lo + chunk] for lo in range(0, len(indices), chunk)]


class ExecutionBackend(ABC):
    """Where (and how) the runs of one batch execute.

    A backend receives a pickled-or-picklable ``_BatchSpec`` plus a run
    count and returns per-run records; it owns worker lifecycle, shard
    dispatch, and transport.  Determinism is not its job — the spec's
    seed streams guarantee byte-identical records on every backend — but
    *transparency* is: a backend must never reorder, drop, or duplicate
    run indices, and failure metadata must stay outside the canonical
    identity.

    ``last_run_info`` is refreshed by each execution with a JSON-safe
    description of how it went (spawn width, worker losses, bytes moved,
    ...); the runner surfaces it as ``report.meta["backend"]``.
    """

    name: str = "?"

    def __init__(self) -> None:
        self.last_run_info: Dict[str, Any] = {}

    def describe(self) -> Dict[str, Any]:
        """Static JSON-safe description (subclasses extend)."""
        return {"backend": self.name}

    @abstractmethod
    def execute(
        self, spec, n_runs: int, *, chunk_size: Optional[int] = None, **policy
    ) -> ExecutionResult:
        """Execute runs ``0..n_runs-1`` of ``spec`` through the batch engine.

        ``policy`` carries the engine's failure-policy knobs
        (``failure_policy``, ``run_timeout``, ``max_retries``,
        ``backoff_base``, ``backoff_cap``); without them the batch is
        strict, and its first failure raises.  Returns ``(records,
        failures, cache_stats)`` with records sorted by run index.
        """

    def close(self) -> None:
        """Release backend resources: pool workers, sockets (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """In-process execution — the reference every other backend is pinned to."""

    name = "serial"

    def execute(self, spec, n_runs, *, chunk_size=None, **policy) -> ExecutionResult:
        self.last_run_info = self.describe()
        state = _ResilientExecution(
            spec, n_runs, workers=0, chunk_size=chunk_size, **policy
        )

        def run_wave(shards: List[List[int]]) -> None:
            # one run at a time, so a strict batch stops at the failing run
            for shard in shards:
                for i in shard:
                    state.absorb(
                        *_execute_resilient_shard(
                            spec, (i,), state.attempts, state.run_timeout,
                            in_worker=False,
                        )
                    )

        return state.run(run_wave)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down hard: cancel queued work, kill and reap its processes."""
    # read before shutdown(), which drops the executor's process table
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    for proc in processes:
        proc.join(timeout=5.0)


class ProcessPoolBackend(ExecutionBackend):
    """Local ``ProcessPoolExecutor`` sharding, on one pool kept until :meth:`close`.

    The pool is forked on first use and serves every later batch, so
    its workers stay warm: imports done and per-process caches (label
    schemas, wire plans, instances) filled by earlier batches.  Like
    remote agents, the workers see the parent process, its environment
    and its ``REPRO_*`` settings as they were at first use.  Determinism
    does not depend on that warmth: a kept worker runs batch after batch
    in one process, as the serial path always has, and every run
    rebuilds its state from its own seed streams.

    Every shard submission carries the batch spec (a few hundred bytes
    pickled) and the attempt counts of its runs.  Shards are absorbed as
    they complete, so a strict batch aborts at its first failure: queued
    shards are cancelled and the pool's processes terminated.  A pool
    broken by a lost worker, or holding one hung past the backstop
    deadline, is terminated and rebuilt for the next wave.  The next
    batch forks a fresh pool after any of those, or when
    :meth:`spawn_width` changed since the pool was made.

    ``workers`` is the *configured* width; the width actually spawned is
    re-clamped against :func:`~repro.runtime.runner._usable_cores` at
    every execution (see :meth:`spawn_width`), so a backend constructed
    under one CPU affinity — or swapped onto a runner later — never
    spawns more processes than the box can schedule.

    :meth:`close` shuts the pool down and reaps its workers; the backend
    stays usable and forks a new pool if it runs again.  A backend
    dropped without ``close()`` shuts its pool down when it is
    garbage-collected.
    """

    name = "process"

    def __init__(self, workers: int, chunk_size: Optional[int] = None):
        super().__init__()
        if workers < 1:
            raise ValueError("process backend needs workers >= 1")
        self.workers = workers
        self.chunk_size = chunk_size
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_width = 0

    def describe(self) -> Dict[str, Any]:
        return {"backend": self.name, "workers": self.workers}

    def spawn_width(self) -> int:
        """Worker processes to actually spawn, re-checked per execution.

        Looked up through the runner module (not a captured import) so
        both affinity changes and test monkeypatches of
        ``runner._usable_cores`` are honoured at run time.
        """
        from . import runner

        return max(1, min(self.workers, runner._usable_cores()))

    def _ensure_pool(self, width: int) -> None:
        """Keep the pool, or replace it if it broke or ``width`` changed."""
        pool = self._pool
        # a worker lost between batches breaks the pool only once the
        # executor notices; is_alive() sees it at once
        processes = list((pool._processes or {}).values()) if pool is not None else []
        if pool is not None and (
            width != self._pool_width
            or pool._broken
            or not all(p.is_alive() for p in processes)
        ):
            _terminate_pool(pool)
            pool = None
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=width)
            self._pool_width = width
        self._pool = pool

    def execute(self, spec, n_runs, *, chunk_size=None, **policy) -> ExecutionResult:
        width = self.spawn_width()
        info = self.describe()
        info["workers_spawned"] = width
        if width != self.workers:
            info["clamped_to_cores"] = True
        self.last_run_info = info
        state = _ResilientExecution(
            spec,
            n_runs,
            workers=width,
            chunk_size=chunk_size or self.chunk_size,
            **policy,
        )
        self._ensure_pool(width)

        def run_wave(shards: List[List[int]]) -> None:
            self._pool = _run_pool_wave(self._pool, width, state, shards)

        try:
            return state.run(run_wave)
        except BaseException:
            # an abort leaves shards queued or running: kill the pool
            pool, self._pool = self._pool, None
            _terminate_pool(pool)
            raise

    def close(self) -> None:
        """Shut the kept pool down and reap its workers (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __del__(self) -> None:
        pool = getattr(self, "_pool", None)
        if pool is not None:
            # no waiting inside the garbage collector: the executor's own
            # management thread joins the workers
            pool.shutdown(wait=False)


def _run_pool_wave(
    pool: ProcessPoolExecutor,
    width: int,
    state: _ResilientExecution,
    shards: List[List[int]],
) -> ProcessPoolExecutor:
    """Submit one wave of shards, absorbing each one as it completes.

    Returns the pool for the next wave: a ``kill`` fault breaks the
    whole ``ProcessPoolExecutor``, and a worker hung past the
    coordinator-side backstop deadline can only be reclaimed by
    terminating the pool; either way the next wave gets a fresh one.
    """
    run_timeout = state.run_timeout
    futures: Dict[Any, List[int]] = {}
    deadlines: Dict[Any, Optional[float]] = {}
    lost: List[Tuple[int, str]] = []
    broken = False
    for shard in shards:
        try:
            fut = pool.submit(
                _execute_resilient_shard,
                state.spec,
                shard,
                {i: state.attempts[i] for i in shard},
                run_timeout,
            )
        except BrokenProcessPool:
            # a worker died while this wave was still being submitted
            broken = True
            lost.extend((i, "worker-lost") for i in shard)
            continue
        futures[fut] = shard
        deadlines[fut] = (
            None
            if run_timeout is None
            # generous backstop: the in-worker SIGALRM should fire far
            # earlier; this only triggers for alarm-immune hangs
            else time.monotonic() + run_timeout * (3 * len(shard) + 2) + 1.0
        )
    pending = set(futures)
    while pending:
        poll = None if run_timeout is None else 0.05
        done, _ = wait(pending, timeout=poll, return_when=FIRST_COMPLETED)
        for fut in done:
            pending.discard(fut)
            try:
                outcomes, stats_delta = fut.result()
            except BrokenProcessPool:
                # every sibling future is (or is about to be) failed by
                # the executor; drain them via the loop
                broken = True
                lost.extend((i, "worker-lost") for i in futures[fut])
                continue
            state.absorb(outcomes, stats_delta)  # strict raises right here
        if pending and run_timeout is not None:
            now = time.monotonic()
            overdue = {
                fut
                for fut in pending
                if deadlines[fut] is not None and now > deadlines[fut]
            }
            if overdue:
                _terminate_pool(pool)
                for fut in pending:
                    label = "timeout" if fut in overdue else "worker-lost"
                    lost.extend((i, label) for i in futures[fut])
                pending = set()
                broken = True
    if not broken:
        return pool
    _terminate_pool(pool)
    state.absorb(lost=lost)  # strict raises before a fresh pool exists
    obs_metrics.inc(
        "repro_pool_rebuilds_total",
        help="process pools rebuilt after a lost or hung worker",
    )
    return ProcessPoolExecutor(max_workers=width)


# ---------------------------------------------------------------------------
# the name registry
# ---------------------------------------------------------------------------

#: name -> factory(workers, chunk_size, spec_tail) building a backend
_BACKENDS: Dict[str, Callable[..., ExecutionBackend]] = {}


def register_backend(name: str, factory: Callable[..., ExecutionBackend]) -> None:
    """Register a backend factory under ``name`` (idempotent overwrite)."""
    _BACKENDS[name] = factory


def backend_names() -> Tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def _make_serial(workers: int, chunk_size: Optional[int], tail: str) -> ExecutionBackend:
    return SerialBackend()


def _make_process(workers: int, chunk_size: Optional[int], tail: str) -> ExecutionBackend:
    if workers < 1:
        raise ValueError(
            "backend 'process' needs workers >= 1 (pass workers=k, or use "
            "'serial' for in-process execution)"
        )
    return ProcessPoolBackend(workers, chunk_size)


def _make_remote(workers: int, chunk_size: Optional[int], tail: str) -> ExecutionBackend:
    from .remote import RemoteWorkerBackend, parse_address

    host, port = parse_address(tail or "127.0.0.1:0")
    return RemoteWorkerBackend(
        host, port, min_workers=max(1, workers), chunk_size=chunk_size
    )


register_backend("serial", _make_serial)
register_backend("process", _make_process)
register_backend("remote", _make_remote)


def resolve_backend(
    backend: Any = None,
    *,
    workers: int = 0,
    chunk_size: Optional[int] = None,
) -> ExecutionBackend:
    """Resolve a backend argument into an :class:`ExecutionBackend`.

    ``backend`` may be:

    * ``None`` — map ``workers``: ``0`` runs serially, anything else
      on a local process pool;
    * an :class:`ExecutionBackend` instance — returned as-is (caller
      owns its lifecycle);
    * a name — ``"serial"``, ``"process"``, or ``"remote[:host:port]"``
      (the spec tail after the first ``:`` goes to the factory, so
      ``"remote:127.0.0.1:7077"`` listens there; bare ``"remote"``
      binds an ephemeral localhost port).
    """
    if backend is None:
        return SerialBackend() if workers == 0 else ProcessPoolBackend(workers, chunk_size)
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, str):
        name, _, tail = backend.partition(":")
        key = name.strip().lower()
        if key in _BACKENDS:
            return _BACKENDS[key](workers, chunk_size, tail.strip())
        raise ValueError(
            f"unknown backend {backend!r}; choose from {backend_names()} "
            "(or pass an ExecutionBackend instance)"
        )
    raise TypeError(
        f"backend must be None, a name, or an ExecutionBackend; got {backend!r}"
    )
