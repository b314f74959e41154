"""E10-bench: recovery overhead of the batch engine's failure policies.

Every batch runs through one engine, whose default ``strict`` policy is
its zero-retry policy.  Measures, on one seed and one task (Theorem-1.2
path-outerplanarity):

1. **retry overhead** — a fault-free batch under
   ``failure_policy="retry"`` vs. the same batch under ``strict``, with
   byte-identical canonical reports asserted; the ratio is taken over
   interleaved same-process pairs and recorded as median and quartiles;
2. **recovery overhead** — the same batch with transient ``raise``
   faults injected at rate 0.15 (each clears on its first retry),
   asserting the recovered report is *still* byte-identical to the
   fault-free reference;
3. **degraded throughput** — persistent faults under
   ``failure_policy="degrade"``, recording the surviving fraction and
   asserting the survivors are an index-subset of the reference with
   matching canonical dicts.

Numbers land in ``BENCH_resilience.json`` at the repo root.  Overheads
are recorded, not asserted (1-core CI containers time noisily); the
determinism invariants are asserted everywhere.

    pytest benchmarks/bench_resilience.py -q
    REPRO_BENCH_RUNS=50 pytest benchmarks/bench_resilience.py -q   # quick look
"""

import json
import os
import platform
import statistics
from pathlib import Path

from repro.runtime import BatchRunner, FaultPlan, PERSISTENT, get_task

RUNS = int(os.environ.get("REPRO_BENCH_RUNS", "200"))
N = 64
SEED = 0
FAULT_RATE = 0.15
#: interleaved strict/retry pairs behind the overhead ratio
PAIRS = 10
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"


def _batch(runs=RUNS, **kwargs):
    spec = get_task("path_outerplanarity")
    kwargs.setdefault("backoff_base", 0.001)
    kwargs.setdefault("backoff_cap", 0.01)
    runner = BatchRunner(spec.protocol(c=2), spec.yes_factory, **kwargs)
    return runner.run(runs, N, seed=SEED)


def _retry_vs_strict_ratios(runs):
    """Fault-free retry/strict wall-clock ratios from interleaved pairs
    (order alternates per pair, so box drift does not favour one side)."""
    ratios = []
    for k in range(PAIRS):
        first, second = ("strict", "retry") if k % 2 == 0 else ("retry", "strict")
        wall = {
            policy: _batch(failure_policy=policy, runs=runs).wall_clock_total
            for policy in (first, second)
        }
        ratios.append(wall["retry"] / wall["strict"])
    return ratios


def test_resilience_overhead_and_recovery():
    reference = _batch()  # strict: the engine's default zero-retry policy

    fault_free = _batch(failure_policy="retry")
    assert fault_free.canonical_json() == reference.canonical_json()
    pair_runs = max(1, RUNS // PAIRS)
    ratios = _retry_vs_strict_ratios(pair_runs)
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")

    plan = FaultPlan(7, rate=FAULT_RATE, kinds=("raise",), fires=1)
    n_faulted = len(plan.faulted_indices(RUNS))
    recovered = _batch(failure_policy="retry", fault_plan=plan, max_retries=2)
    assert recovered.canonical_json() == reference.canonical_json()

    persistent = FaultPlan(7, rate=0.1, kinds=("raise",), fires=PERSISTENT)
    degraded = _batch(
        failure_policy="degrade", fault_plan=persistent, max_retries=1
    )
    ref_by_index = {r.index: r for r in reference.records}
    for rec in degraded.records:
        assert rec.canonical_dict() == ref_by_index[rec.index].canonical_dict()
    assert len(degraded.records) + degraded.n_failed == RUNS

    payload = {
        "experiment": f"{RUNS}-run resilient batch, path_outerplanarity, n={N}",
        "runs": RUNS,
        "n": N,
        "master_seed": SEED,
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "strict_s": round(reference.wall_clock_total, 3),
        "retry_fault_free_s": round(fault_free.wall_clock_total, 3),
        "retry_vs_strict": {
            "pairs": PAIRS,
            "runs_per_batch": pair_runs,
            "median": round(median, 3),
            "q1": round(q1, 3),
            "q3": round(q3, 3),
            "ratios": [round(r, 3) for r in ratios],
        },
        "chaos_recovery": {
            "fault_rate": FAULT_RATE,
            "faulted_runs": n_faulted,
            "wall_clock_s": round(recovered.wall_clock_total, 3),
            "recovery_overhead": round(
                recovered.wall_clock_total / reference.wall_clock_total, 3
            ),
            "canonical_identical_to_reference": True,
        },
        "degraded": {
            "fault_rate": 0.1,
            "survivors": len(degraded.records),
            "failed": degraded.n_failed,
            "surviving_fraction": round(len(degraded.records) / RUNS, 4),
            "survivors_match_reference": True,
        },
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
