"""Batched soundness estimation: 10,000 runs on 8 workers, one seed.

Estimates the empirical soundness error of the Theorem-1.5 planarity
protocol by running a large batch of executions on random *non-planar*
no-instances through ``repro.runtime.BatchRunner``.  The batch is sharded
across worker processes, yet fully reproducible: run ``i`` of master seed
``s`` always draws its instance from ``SeedSequence(s).child(i)``'s
"instance" stream and its public coins from the "protocol" stream, so

    python examples/batch_soundness.py                      # 8 workers
    python examples/batch_soundness.py --workers 0          # serial
    python examples/batch_soundness.py --workers 3          # any sharding

all print byte-identical canonical reports (only the wall-clock block
differs).  Expect ~1k runs/minute/core at n=128; pass ``--runs 500`` for
a quick look.
"""

import argparse

from repro.runtime import BatchRunner, get_task


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10_000)
    parser.add_argument("--n", type=int, default=128)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--workers", type=int, default=8)
    args = parser.parse_args()

    spec = get_task("planarity")
    print(
        f"estimating planarity soundness: {args.runs} runs at n={args.n}, "
        f"seed {args.seed}, workers={args.workers} ..."
    )
    with BatchRunner(
        spec.protocol(c=2),
        spec.no_factory,  # random non-planar graphs
        workers=args.workers,
    ) as runner:
        report = runner.run(args.runs, args.n, seed=args.seed)

    lo, hi = report.rejection_wilson_95()
    print(f"\n{report.summary()}")
    print(f"rejection rate: {report.rejection_rate:.5f}  Wilson 95% [{lo:.5f}, {hi:.5f}]")
    print(f"soundness error (paper: 1/polylog n): {report.acceptance_rate:.5f}")
    accepted = [r.index for r in report.records if r.accepted]
    if accepted:
        shown = ", ".join(str(i) for i in accepted[:10])
        print(f"fooled on runs [{shown}{', ...' if len(accepted) > 10 else ''}] — "
              f"replay any of them with repro.runtime.run_streams(seed, index)")
    else:
        print("no accepting run in the whole batch")


if __name__ == "__main__":
    main()
