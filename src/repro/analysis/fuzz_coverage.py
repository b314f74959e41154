"""Checker-coverage analysis: which field, which round, who notices.

The mutation engine (:mod:`repro.adversaries.mutation`) corrupts one
uniformly chosen label field per run; this module batches such runs
through the :class:`~repro.runtime.runner.BatchRunner` and aggregates,
per ``(task, round, field-path)``, the rejection rate and which decision
locus caught the corruption (the mutated owner itself, one of its
neighbors, a distant node, or a composite sub-run whose node ids do not
live in the host graph).  The resulting matrix is the reproduction's
mechanical reading of the soundness theorems: every row should reject at
a high rate, and a row that does not names the exact wire field whose
checker is loose.

An honest control batch (same instances, same seeds, no mutation) rides
along in every report; its acceptance rate must be 1.0, otherwise the
coverage numbers would conflate completeness failures with caught
corruptions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..runtime.backends import resolve_backend
from ..runtime.registry import FUZZ_ROUNDS, get_task
from ..runtime.runner import BatchRunner
from .metrics import wilson_interval

#: every classification ``MutatingProver.finalize_report`` can emit
CAUGHT_BY = ("owner", "neighbor", "distant", "sub-run", "none")


@dataclass
class FieldCoverage:
    """Aggregated outcomes of all mutations that landed on one field."""

    round: int
    path: str
    stage: str
    site: str  #: "node" | "edge"
    trials: int = 0
    rejected: int = 0
    caught: Dict[str, int] = field(default_factory=dict)
    ops: Dict[str, int] = field(default_factory=dict)
    #: mutations per wire-position quartile of the owner label ("q1" =
    #: the most significant quarter of the packed bits, ... "q4" = the
    #: least significant); populated from the tap's wire_offset report
    bit_buckets: Dict[str, int] = field(default_factory=dict)

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.trials if self.trials else 0.0

    def wilson_95(self) -> Tuple[float, float]:
        return wilson_interval(self.rejected, self.trials)

    def add(self, extra: Dict[str, Any]) -> None:
        self.trials += 1
        caught_by = extra["caught_by"]
        if caught_by != "none":
            self.rejected += 1
        self.caught[caught_by] = self.caught.get(caught_by, 0) + 1
        op = extra["applied_op"]
        self.ops[op] = self.ops.get(op, 0) + 1
        offset = extra.get("wire_offset")
        label_bits = extra.get("wire_label_bits")
        if offset is not None and label_bits:
            bucket = f"q{min(3, offset * 4 // label_bits) + 1}"
            self.bit_buckets[bucket] = self.bit_buckets.get(bucket, 0) + 1

    def to_dict(self) -> Dict[str, Any]:
        lo, hi = self.wilson_95()
        return {
            "round": self.round,
            "path": self.path,
            "stage": self.stage,
            "site": self.site,
            "trials": self.trials,
            "rejected": self.rejected,
            "rejection_rate": self.rejection_rate,
            "wilson_95": [lo, hi],
            "caught_by": {k: self.caught[k] for k in sorted(self.caught)},
            "ops": {k: self.ops[k] for k in sorted(self.ops)},
            "bit_buckets": {k: self.bit_buckets[k] for k in sorted(self.bit_buckets)},
        }


@dataclass
class FuzzCoverageReport:
    """The per-field coverage matrix for one task."""

    task: str
    n: int
    trials_per_round: int
    seed: int
    op: str
    rounds: List[int]
    fields: List[FieldCoverage]
    honest_trials: int
    honest_accepted: int
    mutated_runs: int
    total_runs: int

    @property
    def honest_ok(self) -> bool:
        """The control invariant: unmutated runs accept with probability 1."""
        return self.honest_accepted == self.honest_trials

    @property
    def overall_rejection_rate(self) -> float:
        if not self.mutated_runs:
            return 0.0
        return sum(f.rejected for f in self.fields) / self.mutated_runs

    def weak_fields(self, floor: float = 0.5) -> List[FieldCoverage]:
        """Fields whose measured rejection rate falls below ``floor``."""
        return [f for f in self.fields if f.rejection_rate < floor]

    def bit_bucket_totals(self) -> Dict[str, int]:
        """Mutations per wire-position quartile, summed over all fields.

        An empty or heavily skewed histogram means the fuzzer is blind to
        part of the wire image (the PR-2 gap this closes): every quartile
        of every mutated label layout should eventually receive hits.
        """
        totals: Dict[str, int] = {}
        for f in self.fields:
            for bucket, count in f.bit_buckets.items():
                totals[bucket] = totals.get(bucket, 0) + count
        return {k: totals[k] for k in sorted(totals)}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "task": self.task,
            "n": self.n,
            "trials_per_round": self.trials_per_round,
            "seed": self.seed,
            "op": self.op,
            "rounds": list(self.rounds),
            "honest": {
                "trials": self.honest_trials,
                "accepted": self.honest_accepted,
                "ok": self.honest_ok,
            },
            "mutated_runs": self.mutated_runs,
            "total_runs": self.total_runs,
            "overall_rejection_rate": self.overall_rejection_rate,
            "fields": [f.to_dict() for f in self.fields],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def format_table(self) -> str:
        """Plain-text coverage matrix, one row per (round, field path)."""
        headers = (
            "round", "field path", "stage", "site",
            "trials", "reject", "rate", "95% CI", "caught by",
        )
        rows = []
        for f in self.fields:
            lo, hi = f.wilson_95()
            caught = " ".join(
                f"{k}:{f.caught[k]}" for k in CAUGHT_BY if k in f.caught
            )
            rows.append((
                str(f.round), f.path, f.stage, f.site,
                str(f.trials), str(f.rejected),
                f"{f.rejection_rate:.3f}", f"[{lo:.2f},{hi:.2f}]", caught,
            ))
        widths = [
            max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
            for i, h in enumerate(headers)
        ]
        def fmt(row):
            return "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
        lines = [
            f"checker coverage: {self.task} @ n={self.n} "
            f"(seed {self.seed}, op {self.op}, "
            f"{self.trials_per_round} trials/round)",
            f"honest control: {self.honest_accepted}/{self.honest_trials} "
            f"accepted ({'ok' if self.honest_ok else 'FAILED'})",
            fmt(headers),
            fmt(tuple("-" * w for w in widths)),
        ]
        lines.extend(fmt(r) for r in rows)
        lines.append(
            f"overall: {sum(f.rejected for f in self.fields)}/"
            f"{self.mutated_runs} mutated runs rejected "
            f"({self.overall_rejection_rate:.3f})"
        )
        return "\n".join(lines)


def fuzz_coverage(
    task: str,
    rounds: Optional[Sequence[int]] = None,
    n: int = 64,
    trials: int = 40,
    seed: int = 2025,
    op: str = "random",
    workers: int = 0,
) -> FuzzCoverageReport:
    """Measure the checker-coverage matrix for one registered task.

    For each round in ``rounds`` (default: all prover rounds, 1/3/5) the
    task's ``fuzz_rK`` adversary runs ``trials`` times through the
    :class:`BatchRunner` on yes-instances; ``op`` restricts the mutation
    operator (default ``"random"``: uniform over all four).  A final
    honest batch over the same seeds provides the completeness control.
    Deterministic in ``(task, rounds, n, trials, seed, op)``.
    """
    spec = get_task(task)
    rounds = list(rounds) if rounds is not None else list(FUZZ_ROUNDS)
    by_field: Dict[Tuple[int, str], FieldCoverage] = {}
    mutated = 0
    total = 0
    # one pool serves every round's batch and the honest control
    with resolve_backend(None, workers=workers) as backend:
        for r in rounds:
            name = f"fuzz_r{r}"
            if name not in spec.adversaries:
                raise KeyError(f"task {task!r} has no adversary {name!r}")
            factory = spec.adversaries[name]
            if op != "random":
                factory = factory.with_op(op)
            report = BatchRunner(
                spec.protocol(),
                spec.yes_factory,
                prover_factory=factory,
                workers=workers,
                backend=backend,
            ).run(trials, n, seed=seed)
            for record in report.records:
                total += 1
                extra = record.extra
                if extra is None or not extra.get("mutated"):
                    continue  # round had nothing to corrupt (e.g. empty round 5)
                mutated += 1
                key = (r, extra["path"])
                cov = by_field.get(key)
                if cov is None:
                    cov = by_field[key] = FieldCoverage(
                        round=r,
                        path=extra["path"],
                        stage=extra["stage"],
                        site=extra["site"],
                    )
                cov.add(extra)
        honest = BatchRunner(
            spec.protocol(), spec.yes_factory, workers=workers, backend=backend
        ).run(trials, n, seed=seed)
    return FuzzCoverageReport(
        task=spec.name,
        n=n,
        trials_per_round=trials,
        seed=seed,
        op=op,
        rounds=rounds,
        fields=sorted(by_field.values(), key=lambda f: (f.round, f.path)),
        honest_trials=len(honest.records),
        honest_accepted=honest.n_accepted,
        mutated_runs=mutated,
        total_runs=total,
    )
