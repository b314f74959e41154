"""The batch engine: failure policies, per-run timeouts, retries.

Every batch :class:`~repro.runtime.runner.BatchRunner` executes goes
through :class:`_ResilientExecution`, whichever backend runs it.  The
engine makes large Monte Carlo sweeps survive infrastructure faults —
the injected ones of :mod:`repro.runtime.faults` and the real ones they
model — without ever compromising the runtime's central invariant:

    **a run that succeeds after retries is byte-identical to its
    fault-free serial counterpart.**

That invariant is structural, not aspirational: every attempt of run
``i`` rebuilds its instance and RNGs from scratch out of
``SeedSequence(master_seed).child(i)``, and all retry/backoff randomness
lives in a *separate* child stream (``child(i).child("retry")``), so
retrying can never perturb the run's own draw.  All failure and attempt
metadata stays outside ``BatchReport.canonical_dict()``, next to wall
times, exactly like ``RunRecord.extra``.

Failure policies (:data:`FAILURE_POLICIES`):

``strict``
    the default, a zero-retry policy: the first failure aborts the
    batch and raises the original exception where it survived
    pickling, otherwise a ``RuntimeError`` naming the batch.
``retry``
    each failed run is retried up to ``max_retries`` times with capped
    exponential backoff + deterministic jitter; a run that exhausts its
    budget aborts the batch (:class:`RetryExhaustedError`).
``degrade``
    like ``retry``, but exhausted runs become typed
    :class:`FailureRecord` entries in a *partial* report whose surviving
    records are an index-subset of the fault-free reference.

Mechanics: per-run wall-clock timeouts use ``SIGALRM`` (available in the
coordinating main thread and in pool workers, which execute tasks on
their main thread); where ``SIGALRM`` is unavailable the deadline is not
enforced in-process and only the coordinator-side backstop applies.  A
worker hard-killed mid-shard or hung past that backstop costs its
shard: the backend (:mod:`repro.runtime.backends`) reports the shard's
runs lost, each consuming one attempt, and the engine resubmits them.
"""

from __future__ import annotations

import pickle
import signal
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import metrics as obs_metrics
from .faults import InjectedFault, clear_fault_plan, install_fault_plan
from .seeds import retry_jitter

FAILURE_POLICIES = ("strict", "retry", "degrade")

#: fault classification labels carried by :class:`FailureRecord`
FAULT_LABELS = ("raise", "timeout", "worker-lost", "error")


class RunTimeoutError(RuntimeError):
    """A run blew its per-run wall-clock deadline."""


class RetryExhaustedError(RuntimeError):
    """A run kept failing after its whole retry budget (policy=retry)."""


@dataclass(frozen=True)
class FailureRecord:
    """Typed record of one run the batch could not complete (JSON-safe).

    Lives in ``BatchReport.failures`` — *outside* the canonical identity,
    like wall times and ``RunRecord.extra``.
    """

    index: int
    fault: str  #: one of :data:`FAULT_LABELS`
    attempts: int  #: attempts consumed (1 = failed with no retry)
    elapsed: float  #: seconds measured across attempts (0 for lost workers)
    error: str  #: repr of the last error seen

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "fault": self.fault,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
            "error": self.error,
        }


def backoff_delay(
    master_seed: int,
    run_index: int,
    failed_attempt: int,
    base: float,
    cap: float,
) -> float:
    """Deterministic capped-exponential backoff before the next attempt.

    ``base * 2**failed_attempt`` capped at ``cap``, scaled into
    ``[0.5, 1.0)`` by jitter drawn from the run's own ``"retry"`` seed
    stream — a pure function of ``(master_seed, run_index,
    failed_attempt)``, so replaying a chaos batch replays its waits too.
    """
    raw = min(cap, base * (2.0 ** failed_attempt))
    return raw * (0.5 + 0.5 * retry_jitter(master_seed, run_index, failed_attempt))


# ---------------------------------------------------------------------------
# per-run deadline
# ---------------------------------------------------------------------------


def _sigalrm_usable() -> bool:
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def run_deadline(seconds: Optional[float]):
    """Raise :class:`RunTimeoutError` if the body runs past ``seconds``.

    Uses ``SIGALRM``; in contexts where that is unavailable (non-main
    thread, non-POSIX) the deadline is not enforced here and only the
    pool-level backstop applies.
    """
    if seconds is None or not _sigalrm_usable():
        yield
        return

    def _on_alarm(signum, frame):
        raise RunTimeoutError(f"run exceeded its {seconds}s wall-clock deadline")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# one attempt of one run
# ---------------------------------------------------------------------------


@dataclass
class _RunOutcome:
    """What one attempt of one run produced (must pickle)."""

    index: int
    record: Optional[Any] = None  #: RunRecord on success
    fault: Optional[str] = None  #: FAULT_LABELS entry on failure
    error: Optional[str] = None  #: repr of the failure
    exc: Optional[BaseException] = None  #: original exception, if it pickles
    elapsed: float = 0.0


def _classify(exc: BaseException) -> str:
    if isinstance(exc, InjectedFault):
        return "raise"
    if isinstance(exc, RunTimeoutError):
        return "timeout"
    return "error"


def _picklable_or_none(exc: BaseException) -> Optional[BaseException]:
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return None


def _attempt_run(
    spec, index: int, attempt: int, run_timeout: Optional[float], in_worker: bool
) -> _RunOutcome:
    # imported per call: runner imports this module (via backends) at load
    # time, and a patched ``runner.execute_one_run`` must be honoured
    from .runner import execute_one_run

    t0 = time.perf_counter()
    try:
        with run_deadline(run_timeout):
            if spec.fault_plan is not None:
                spec.fault_plan.fire(index, attempt, in_worker=in_worker)
            record = execute_one_run(spec, index)
    except Exception as exc:
        return _RunOutcome(
            index=index,
            fault=_classify(exc),
            error=repr(exc),
            exc=_picklable_or_none(exc) if in_worker else exc,
            elapsed=time.perf_counter() - t0,
        )
    return _RunOutcome(index=index, record=record, elapsed=time.perf_counter() - t0)


def _execute_resilient_shard(
    spec,
    indices: Sequence[int],
    attempts: Dict[int, int],
    run_timeout: Optional[float],
    in_worker: bool = True,
) -> Tuple[List[_RunOutcome], Optional[Dict[str, int]]]:
    """Shard entry point on every backend: run a shard, catching failures.

    Failures do not escape (except a ``kill`` fault's ``os._exit``,
    which nothing can catch): each run reports an outcome, so one bad
    run never poisons its shard-mates.

    ``in_worker`` stays True in disposable pool/agent processes; the
    in-process remote worker harness of :mod:`repro.runtime.remote`
    passes False so a planned ``kill`` degrades to a transient raise
    instead of taking down the hosting interpreter.
    """
    plan = spec.fault_plan
    if plan is not None:
        install_fault_plan(plan)
    cache = getattr(spec.instance_factory, "cache", None)
    stats_before = cache.stats() if cache is not None else None
    try:
        outcomes = [
            _attempt_run(spec, i, attempts.get(i, 0), run_timeout, in_worker=in_worker)
            for i in indices
        ]
    finally:
        if plan is not None:
            clear_fault_plan(plan)
    stats_delta = None
    if stats_before is not None:
        after = cache.stats()
        stats_delta = {
            "hits": after["hits"] - stats_before["hits"],
            "misses": after["misses"] - stats_before["misses"],
        }
    return outcomes, stats_delta


# ---------------------------------------------------------------------------
# the coordinator
# ---------------------------------------------------------------------------


def _spec_context(spec) -> str:
    name = getattr(spec.protocol, "name", type(spec.protocol).__name__)
    return f"{name} (n={spec.n}, seed={spec.master_seed})"


class _ResilientExecution:
    """Failure-policy state machine for one batch, on any backend.

    The engine owns the policy; a backend owns transport.  :meth:`run`
    plans the shards and calls the backend's ``run_wave(shards)`` once
    per wave; the backend hands every finished shard (and every run it
    lost) to :meth:`absorb`, which raises at once under ``strict`` or
    when a ``retry`` run exhausts its budget.  Whatever failed without
    raising is resubmitted in the next wave, after a backoff.
    """

    def __init__(
        self,
        spec,
        n_runs: int,
        *,
        workers: int,
        chunk_size: Optional[int],
        failure_policy: str = "strict",
        run_timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ):
        self.spec = spec
        self.n_runs = n_runs
        self.workers = workers
        self.chunk_size = chunk_size
        self.policy = failure_policy
        self.run_timeout = run_timeout
        self.retries = 0 if failure_policy == "strict" else max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.attempts: Dict[int, int] = defaultdict(int)
        self.elapsed: Dict[int, float] = defaultdict(float)
        self.records: Dict[int, Any] = {}
        self.failures: Dict[int, FailureRecord] = {}
        self.cache_stats: Optional[Dict[str, int]] = None
        self._retry: List[int] = []

    def _note_failure(
        self, index: int, fault: str, error: str, exc: Optional[BaseException]
    ) -> None:
        """One attempt of ``index`` failed; decide retry / abort / degrade."""
        if fault == "timeout":
            obs_metrics.inc(
                "repro_run_timeouts_total",
                help="run attempts that blew their wall-clock deadline",
            )
        if self.policy == "strict":
            if exc is not None:
                raise exc
            raise RuntimeError(
                f"run {index} of {_spec_context(self.spec)} failed "
                f"[{fault}]: {error}"
            )
        if self.attempts[index] <= self.retries:
            self._retry.append(index)
            obs_metrics.inc(
                "repro_run_retries_total",
                help="run attempts resubmitted after a failure",
                fault=fault,
            )
            return
        if self.policy == "retry":
            raise RetryExhaustedError(
                f"run {index} of {_spec_context(self.spec)} still failing "
                f"after {self.attempts[index]} attempts [{fault}]: {error}"
            ) from exc
        obs_metrics.inc(
            "repro_degrade_drops_total",
            help="runs dropped from a degraded report after exhausting retries",
            fault=fault,
        )
        self.failures[index] = FailureRecord(
            index=index,
            fault=fault,
            attempts=self.attempts[index],
            elapsed=round(self.elapsed[index], 6),
            error=error,
        )

    def absorb(
        self,
        outcomes: Sequence[_RunOutcome] = (),
        stats_delta: Optional[Dict[str, int]] = None,
        lost: Sequence[Tuple[int, str]] = (),
        lost_detail: str = "worker died or hung",
    ) -> None:
        """Fold one finished shard (or a wave's lost runs) into the state.

        Every outcome and loss consumes one attempt of its run; failures
        route through :meth:`_note_failure`, which raises under strict /
        exhausted-retry policies.  The policy semantics must not depend
        on where the shard executed.
        """
        if stats_delta is not None:
            if self.cache_stats is None:
                self.cache_stats = {"hits": 0, "misses": 0}
            self.cache_stats["hits"] += stats_delta["hits"]
            self.cache_stats["misses"] += stats_delta["misses"]
        for outcome in outcomes:
            self.attempts[outcome.index] += 1
            self.elapsed[outcome.index] += outcome.elapsed
            if outcome.record is not None:
                self.records[outcome.index] = outcome.record
            else:
                self._note_failure(
                    outcome.index, outcome.fault, outcome.error, outcome.exc
                )
        for index, fault in lost:
            self.attempts[index] += 1
            self._note_failure(
                index,
                fault,
                f"shard lost: {lost_detail} while batching "
                f"{_spec_context(self.spec)}",
                None,
            )

    def run(
        self, run_wave: Callable[[List[List[int]]], None]
    ) -> Tuple[List[Any], List[FailureRecord], Optional[Dict[str, int]]]:
        """Drive waves until every run has a record or a failure record.

        Returns ``(records, failures, cache_stats)`` with both lists
        sorted by run index.  Retry waves keep the first wave's chunk
        size.
        """
        from .backends import plan_shards  # backends imports this module at load

        wave = plan_shards(
            range(self.n_runs), workers=self.workers, chunk_size=self.chunk_size
        )
        chunk = len(wave[0]) if wave else 1
        while wave:
            run_wave(wave)
            retry, self._retry = sorted(self._retry), []
            if not retry:
                break
            self._backoff(retry)
            wave = plan_shards(retry, chunk_size=chunk)
        records = [self.records[i] for i in sorted(self.records)]
        failures = [self.failures[i] for i in sorted(self.failures)]
        return records, failures, self.cache_stats

    def _backoff(self, retry_indices: Sequence[int]) -> None:
        delay = max(
            backoff_delay(
                self.spec.master_seed,
                i,
                self.attempts[i] - 1,
                self.backoff_base,
                self.backoff_cap,
            )
            for i in retry_indices
        )
        time.sleep(delay)
