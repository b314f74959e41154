"""Reusable experiment drivers behind the benchmark harness.

Each driver matches one experiment of DESIGN.md's per-experiment index and
returns plain dicts so the benchmarks can both assert the claimed shape and
print the paper-vs-measured rows for EXPERIMENTS.md.

All drivers execute through :class:`repro.runtime.BatchRunner`, so every
one takes a ``workers`` knob: ``workers=0`` (the default) runs serially
in-process, ``workers=k`` shards the runs over ``k`` worker processes.
The two paths are bit-identical by construction — run ``i`` of a batch
with master seed ``s`` draws its instance and protocol randomness from
``SeedSequence(s).child(i)`` regardless of which worker executes it (see
``repro.runtime.seeds``).  Note this seeding scheme differs from the
pre-runtime drivers, which threaded one shared ``random.Random(seed)``
through all runs; numbers in EXPERIMENTS.md were re-measured when the
drivers moved onto the runtime.

With ``workers > 0`` the protocol and factories must pickle: pass
module-level factories (e.g. from ``repro.runtime.registry``), not
lambdas.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..runtime.runner import BatchReport, BatchRunner
from ..runtime.seeds import SeedSequence
from .metrics import acceptance_stats, loglog_growth_verdict

#: analysis batches too small for their pool run serially (see run_batch)
MIN_RUNS_PER_SHARD = 8


def run_batch(
    protocol,
    instance_factory: Callable,
    n_runs: int,
    n: int,
    seed: int = 0,
    prover_factory: Optional[Callable] = None,
    workers: int = 0,
    failure_policy: str = "strict",
    run_timeout: Optional[float] = None,
    max_retries: int = 2,
    fault_plan=None,
    trace: bool = False,
    journal=None,
    min_runs_per_shard: Optional[int] = MIN_RUNS_PER_SHARD,
    backend=None,
) -> BatchReport:
    """One aggregated batch of runs; the substrate of every driver here.

    ``protocol`` may be an instance or a no-argument protocol class (the
    class is instantiated here; anything without an ``execute`` method
    raises ``TypeError`` immediately instead of crashing mid-batch).

    The resilience knobs (``failure_policy`` / ``run_timeout`` /
    ``max_retries`` / ``fault_plan``) and observability knobs
    (``trace`` / ``journal``, see :mod:`repro.obs`) pass straight
    through to :class:`~repro.runtime.BatchRunner`; at their defaults
    a batch is strict, and its first failure aborts it.  Unlike a bare
    BatchRunner, analysis batches default ``min_runs_per_shard=8``:
    small ``workers>0`` batches fall back to serial execution (noted in
    ``report.meta["auto_serial"]``) rather than paying more in process
    spawns than the parallelism returns.  The runner is closed before
    this returns, so a one-shot pooled batch reaps its workers.

    ``backend`` picks where the runs execute (a name like ``"serial"`` /
    ``"process"`` / ``"remote:host:port"``, or an
    :class:`~repro.runtime.backends.ExecutionBackend` instance); results
    are byte-identical on every backend.
    """
    with BatchRunner(
        protocol,
        instance_factory,
        prover_factory=prover_factory,
        workers=workers,
        failure_policy=failure_policy,
        run_timeout=run_timeout,
        max_retries=max_retries,
        fault_plan=fault_plan,
        trace=trace,
        journal=journal,
        min_runs_per_shard=min_runs_per_shard,
        backend=backend,
    ) as runner:
        return runner.run(n_runs, n, seed=seed)


def size_sweep(
    protocol,
    instance_factory: Callable,
    ns: Sequence[int],
    seed: int = 0,
    repeats: int = 3,
    workers: int = 0,
    failure_policy: str = "strict",
    run_timeout: Optional[float] = None,
    max_retries: int = 2,
    fault_plan=None,
    trace: bool = False,
    journal=None,
    backend=None,
) -> Dict:
    """Max measured proof size per n; fits for the growth verdict (E1).

    Each n gets its own derived master seed (``SeedSequence(seed).child(n)``)
    so adding or reordering sweep points never perturbs other points.
    Under ``failure_policy="degrade"`` a point's maxima are taken over the
    runs that survived (the per-point reports say how many).  A
    ``journal`` accumulates one batch section per sweep point.  One
    runner serves every point, so a pooled sweep forks its workers once.
    """
    sizes: List[int] = []
    rounds: List[int] = []
    failed: List[int] = []
    with BatchRunner(
        protocol,
        instance_factory,
        workers=workers,
        failure_policy=failure_policy,
        run_timeout=run_timeout,
        max_retries=max_retries,
        fault_plan=fault_plan,
        trace=trace,
        journal=journal,
        min_runs_per_shard=MIN_RUNS_PER_SHARD,
        backend=backend,
    ) as runner:
        for n in ns:
            point_seed = SeedSequence(seed).child(n).seed_int()
            report = runner.run(repeats, n, seed=point_seed)
            rejected = [r for r in report.records if not r.accepted]
            if rejected:
                raise AssertionError(
                    f"{runner.protocol.name}: honest run rejected at n={n} "
                    f"(runs {[r.index for r in rejected]})"
                )
            sizes.append(report.proof_size_max)
            rounds.append(report.rounds_max)
            failed.append(report.n_failed)
    out = {"ns": list(ns), "sizes": sizes, "rounds": rounds}
    if any(failed):
        out["failed_runs"] = failed
    if len(ns) >= 2:
        out.update(loglog_growth_verdict(list(ns), sizes))
    return out


def completeness_sweep(
    protocol,
    instance_factory: Callable,
    n: int,
    trials: int = 20,
    seed: int = 0,
    workers: int = 0,
) -> Dict:
    """Honest-prover acceptance rate on yes-instances (must be 1.0)."""
    report = run_batch(
        protocol, instance_factory, n_runs=trials, n=n, seed=seed, workers=workers
    )
    return acceptance_stats([r.accepted for r in report.records])


def soundness_sweep(
    protocol,
    no_instance_factory: Callable,
    n: int,
    trials: int = 20,
    seed: int = 0,
    prover_factory: Optional[Callable] = None,
    workers: int = 0,
) -> Dict:
    """Rejection rate on no-instances (optionally with a given adversary)."""
    report = run_batch(
        protocol,
        no_instance_factory,
        n_runs=trials,
        n=n,
        seed=seed,
        prover_factory=prover_factory,
        workers=workers,
    )
    return acceptance_stats([not r.accepted for r in report.records])


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Plain-text experiment table (captured into bench output)."""
    print(f"\n== {title} ==")
    print(" | ".join(str(h) for h in headers))
    for row in rows:
        print(" | ".join(str(c) for c in row))
