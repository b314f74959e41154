#!/usr/bin/env python3
"""Certification-throughput benchmark: batches of DIP runs at a stated n.

Each workload is a closed loop with one caller: batches go through the
public :class:`repro.runtime.BatchRunner` API back to back, and the next
batch is issued only after the previous one returns.  Every run's output
is checked, and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
nothing patched; times are scaled to a reference box speed by the
calibration of :mod:`boxspeed`, and the raw wall-clock figures are
printed on the line starting with ``raw``.  With ``--trace 1`` they are
the per-layer ledger of :mod:`ledger`, taken from traced batches
interleaved with untraced ones on the same seeds, plus the tracing
overhead.

    python3 perfbench/run.py --workload honest-planarity-n256 --seed 1 \\
        --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from boxspeed import BoxSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
FLOORS = ROOT / "tests" / "data" / "soundness_floors.json"

#: variables that each select a different program than the default one
REFUSED_PREFIX = "REPRO_DISABLE_"
REFUSED_VARS = ("REPRO_VECTOR_MIN_NODES", "REPRO_VALIDATE_EXTRA")

#: setups measured per run (in fresh processes); ``setup_s`` is their median
SETUP_PROBES = 7


@dataclass(frozen=True)
class Workload:
    task: str
    n: int
    adversary: Optional[str]
    workers: int
    #: runs per ``BatchRunner.run`` call
    batch_runs: int
    #: runs of the warm-up batch that fills schema and plan caches
    warmup_runs: int
    #: batches always run, however slow the box; the seed-exact metrics
    #: (``proof_bits_p50``, ``expected_verdict_rate``) come from these
    exact_batches: int


WORKLOADS: Dict[str, Workload] = {
    "honest-planarity-n256": Workload("planarity", 256, None, 0, 1, 2, 64),
    "honest-outerplanarity-n256": Workload("outerplanarity", 256, None, 0, 1, 2, 64),
    "fuzz-pathop-n64-pool2": Workload("path_outerplanarity", 64, "fuzz_r3", 2, 48, 16, 8),
}

END_TO_END_UNITS = {
    "runs_per_s": "1/s",
    "run_ms_iqm": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "proof_bits_p50": "bits",
    "expected_verdict_rate": "share",
}

PER_LAYER_UNITS = {
    "graphs.instance_ms": "ms/run",
    "graphs.embed_ms": "ms/run",
    "protocols.prover_self_ms": "ms/run",
    "protocols.interactions_per_run": "count/run",
    "core.prover_round_ms": "ms/run",
    "core.verifier_round_ms": "ms/run",
    "core.pack_calls_per_run": "count/run",
    "core.decide_ms": "ms/run",
    "core.extract_ms": "ms/run",
    "core.kernel_ms": "ms/run",
    "core.views_ms": "ms/run",
    "core.kernel_node_share": "share",
    "core.decode_cache_hit_ratio": "share",
    "adversaries.tap_ms": "ms/run",
    "runtime.run_self_ms": "ms/run",
    "runtime.dispatch_ms_per_run": "ms/run",
    "runtime.worker_busy_share": "share",
    "obs.trace_overhead": "ratio",
}

#: per-layer metric -> ledger span whose self time it reports
SELF_TIME_SPANS = {
    "graphs.instance_ms": "graphs.instance",
    "graphs.embed_ms": "graphs.embed",
    "protocols.prover_self_ms": "protocols.execute",
    "core.prover_round_ms": "core.prover_round",
    "core.verifier_round_ms": "core.verifier_round",
    "core.decide_ms": "core.decide",
    "core.extract_ms": "core.extract",
    "core.kernel_ms": "core.kernel",
    "core.views_ms": "core.views",
    "adversaries.tap_ms": "adversaries.tap",
    "runtime.run_self_ms": "runtime.run",
}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def batch_seeds(workload: str, seed: int) -> Iterator[int]:
    """Master seeds of the timed batches: a pure function of the seed."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    while True:
        yield rng.getrandbits(63)


def warmup_seed(workload: str, seed: int) -> int:
    return random.Random(f"perfbench:{workload}:{seed}:warmup").getrandbits(63)


def soundness_floor(w: Workload) -> Optional[float]:
    """The committed rejection-rate floor for the workload's adversary."""
    if w.adversary is None:
        return None
    floors = json.loads(FLOORS.read_text())["floors"]
    found = [
        f["min_rejection_rate"]
        for f in floors
        if f["task"] == w.task and f["adversary"] == w.adversary and f["instances"] == "yes"
    ]
    if not found:
        raise SystemExit(f"no soundness floor for {w.task}/{w.adversary} in {FLOORS}")
    return max(found)


def environment(workload: str, seed: int) -> dict:
    from repro.core.columnar import numpy_available

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_path": numpy_available(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# running batches
# ---------------------------------------------------------------------------


def set_up(name: str, w: Workload, seed: int):
    """Import, construct, and warm up: everything before the first timed run."""
    from repro.runtime import BatchRunner, get_task

    spec = get_task(w.task)
    prover = spec.adversaries[w.adversary] if w.adversary else None
    runner = BatchRunner(
        spec.protocol(), spec.yes_factory, prover_factory=prover, workers=w.workers
    )
    runner.run(w.warmup_runs, w.n, seed=warmup_seed(name, seed))
    return runner


def serial_twin(runner):
    """A ``workers=0`` runner over the same protocol and factories."""
    from repro.runtime import BatchRunner

    return BatchRunner(
        runner.protocol, runner.instance_factory, prover_factory=runner.prover_factory
    )


def run_for(runner, w: Workload, seeds: Iterator[int], seconds: float,
            speed: Optional[BoxSpeed] = None):
    """Issue batches back to back until ``seconds`` passed (and the exact ones ran).

    Returns the reports and the seconds each spent inside ``BatchRunner.run``;
    with ``speed`` given, the box is calibrated before every batch and
    once after the last.
    """
    reports = []
    busy = []
    t0 = time.perf_counter()
    while len(reports) < w.exact_batches or time.perf_counter() - t0 < seconds:
        if speed is not None:
            speed.sample()
        t = time.perf_counter()
        reports.append(runner.run(w.batch_runs, w.n, seed=next(seeds)))
        busy.append(time.perf_counter() - t)
    if speed is not None:
        speed.sample()
    return reports, busy


def replay(runner, w: Workload, reports) -> list:
    return [runner.run(w.batch_runs, w.n, seed=r.master_seed) for r in reports]


def mismatched_runs(reports, references) -> int:
    """Runs of every batch whose canonical report differs from its reference."""
    return sum(
        len(r.records)
        for r, ref in zip(reports, references)
        if r.canonical_json() != ref.canonical_json()
    )


def check_verdicts(w: Workload, reports, floor: Optional[float]) -> Tuple[int, float]:
    """Failed runs, and the share of exact-prefix runs with the expected verdict.

    Honest workloads expect every run to accept (completeness 1); each
    rejection is one failed run.  The fuzz workload expects rejection,
    at a rate no lower than the committed floor; below it, every accepted
    run of the exact prefix counts as failed.
    """
    exact = reports[: w.exact_batches]
    total = sum(len(r.records) for r in exact)
    accepted = sum(r.n_accepted for r in exact)
    if w.adversary is None:
        failed = sum(len(r.records) - r.n_accepted for r in reports)
        return failed, accepted / total
    rate = (total - accepted) / total
    return (0 if rate >= floor else accepted), rate


def interquartile_mean(values: List[float]) -> float:
    """Mean of the middle half of ``values``."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def spawn_width(report) -> int:
    return report.meta.get("backend", {}).get("workers_spawned", 1)


def runtime_metrics(reports, slowdown: float) -> Dict[str, float]:
    """Dispatch cost and worker busy share from the reports' public timings."""
    capacity = sum(spawn_width(r) * r.wall_clock_total for r in reports)
    busy = sum(rec.wall_time for r in reports for rec in r.records)
    runs = sum(len(r.records) for r in reports)
    return {
        "runtime.dispatch_ms_per_run": 1000.0 * (capacity - busy) / runs / slowdown,
        "runtime.worker_busy_share": busy / capacity,
    }


def peak_rss_mb(width: int) -> float:
    """Peak RSS of this process plus ``width`` times that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if width else 0
    return (own + width * child) / 1024.0


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh process to its first timed run."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=120)
        except BaseException:
            # leaving the block waits for the probe, so stop it first
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"setup probe failed (exit {proc.returncode}): {line!r}")
    return elapsed


def with_units(values: Dict[str, float], units: Dict[str, str]) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in units}


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------


def measure_end_to_end(name: str, w: Workload, seed: int, seconds: float) -> dict:
    runner = set_up(name, w, seed)
    with BoxSpeed(width=w.workers) as speed:
        reports, busy = run_for(runner, w, batch_seeds(name, seed), seconds, speed)
    # each batch is scaled by the box's speed around it, and the scaled
    # figures are interquartile means over batches: a stretch of a few
    # seconds where the snippet and the program disagree falls in the tails
    scales = speed.batch_slowdowns()
    batch_rates = [len(r.records) / b * k for r, b, k in zip(reports, busy, scales)]
    batch_ms = [
        1000.0 * statistics.fmean(rec.wall_time for rec in r.records) / k
        for r, k in zip(reports, scales)
    ]
    walls_ms = [1000.0 * rec.wall_time for r in reports for rec in r.records]
    exact = [rec for r in reports[: w.exact_batches] for rec in r.records]
    failed, verdict_rate = check_verdicts(w, reports, soundness_floor(w))
    if w.workers:
        # the pool's report must equal a serial replay of the same seed
        failed += mismatched_runs(reports[:1], replay(serial_twin(runner), w, reports[:1]))
    raw = {
        "runs_per_s": len(walls_ms) / sum(busy),
        "run_ms_mean": statistics.fmean(walls_ms),
        # shown, not bounded: a run of a few ms lands in one of the box's
        # two speeds, and the median jumps between them from seed to seed
        "run_ms_p50": statistics.median(walls_ms),
        "run_ms_p90": statistics.quantiles(walls_ms, n=10)[-1],
    }
    metrics = {
        "runs_per_s": interquartile_mean(batch_rates),
        "run_ms_iqm": interquartile_mean(batch_ms),
        "peak_rss_mb": peak_rss_mb(spawn_width(reports[0]) if w.workers else 0),
        "proof_bits_p50": statistics.median(rec.proof_size_bits for rec in exact),
        "expected_verdict_rate": verdict_rate,
    }
    # probed after the RSS reading, so probe processes do not count as
    # workers; not scaled: imports and process start do not follow the
    # snippet, and scaling widened the spread of ten seeds from 0.2 to 0.3
    metrics["setup_s"] = statistics.median(probe_setup(name, seed) for _ in range(SETUP_PROBES))
    print(f"timed: {len(walls_ms)} runs in {len(reports)} batches, {sum(busy):.2f} s busy; "
          f"box slowdown {speed.slowdown():.3f}")
    print("raw " + json.dumps(raw))
    return {"attempted": len(walls_ms), "failed": failed,
            "metrics": with_units(metrics, END_TO_END_UNITS)}


def measure_per_layer(name: str, w: Workload, seed: int, seconds: float) -> dict:
    from ledger import Ledger, traced

    runner = set_up(name, w, seed)
    seeds = batch_seeds(name, seed)
    failed = 0
    values: Dict[str, float] = {}
    serial = runner
    if w.workers:
        # pool workers keep their spans in their own memory: the in-run
        # spans come from a serial replay of the pool's batch seeds
        with BoxSpeed(width=w.workers) as pool_speed:
            pool_reports, _ = run_for(runner, w, seeds, 0.0, pool_speed)
        failed += check_verdicts(w, pool_reports, soundness_floor(w))[0]
        values.update(runtime_metrics(pool_reports, pool_speed.slowdown()))
        seeds = iter([r.master_seed for r in pool_reports])
        serial = serial_twin(runner)
        serial.run(w.warmup_runs, w.n, seed=warmup_seed(name, seed))

    # untraced and traced batches interleaved on the same seeds, alternating
    # which goes first: a seed's second batch can find caches its first filled
    ledger = Ledger()
    speed = BoxSpeed()
    base, traced_reports = [], []

    def traced_batch(batch_seed):
        with traced(ledger, type(runner.protocol)):
            return serial.run(w.batch_runs, w.n, seed=batch_seed)

    t0 = time.perf_counter()
    for batch_seed in seeds:
        speed.sample()
        if len(base) % 2:
            traced_reports.append(traced_batch(batch_seed))
            base.append(serial.run(w.batch_runs, w.n, seed=batch_seed))
        else:
            base.append(serial.run(w.batch_runs, w.n, seed=batch_seed))
            traced_reports.append(traced_batch(batch_seed))
        if len(base) >= w.exact_batches and time.perf_counter() - t0 >= seconds:
            break
    if w.workers:
        failed += mismatched_runs(pool_reports, base)
    else:
        failed += check_verdicts(w, base, None)[0]
        values.update(runtime_metrics(base, speed.slowdown()))
    failed += mismatched_runs(traced_reports, base)

    for metric, span in SELF_TIME_SPANS.items():
        values[metric] = ledger.self_ms_per_run(span) / speed.slowdown()
    runs = max(1, ledger.runs)
    counts = ledger.counts
    values["protocols.interactions_per_run"] = counts["interactions"] / runs
    values["core.pack_calls_per_run"] = counts["core.pack"] / runs
    values["core.kernel_node_share"] = counts["kernel_nodes"] / max(1, counts["decided_nodes"])
    looked_up = counts["decode_cache_hits"] + counts["decode_cache_misses"]
    values["core.decode_cache_hit_ratio"] = (
        counts["decode_cache_hits"] / looked_up if looked_up else 0.0
    )
    values["obs.trace_overhead"] = (
        sum(r.wall_clock_total for r in traced_reports)
        / sum(r.wall_clock_total for r in base)
    )
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    ledger.dump(spans_path, {"env": environment(name, seed), "runs": ledger.runs})
    print(f"traced: {ledger.runs} runs, {len(ledger.spans)} spans -> {spans_path}")
    attempted = sum(len(r.records) for r in base) + ledger.runs
    return {"attempted": attempted, "failed": failed,
            "metrics": with_units(values, PER_LAYER_UNITS)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def refused_variables() -> List[str]:
    return sorted(
        k for k in os.environ if k.startswith(REFUSED_PREFIX) or k in REFUSED_VARS
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    refused = refused_variables()
    if refused:
        print(f"refusing to run: {', '.join(refused)} set; each selects a "
              "different program than the one this benchmark measures", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    w = WORKLOADS[args.workload]
    if args.setup_probe:
        set_up(args.workload, w, args.seed)
        print("ready", flush=True)
        return 0

    if args.trace:
        result = measure_per_layer(args.workload, w, args.seed, args.seconds)
    else:
        result = measure_end_to_end(args.workload, w, args.seed, args.seconds)
    # recorded after measuring: probing numpy here would import it into the
    # parent first, and forked pool workers would then inherit it
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    for metric, entry in result["metrics"].items():
        print(f"  {metric:32s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
