"""Per-round cost breakdown: aggregate traces into a bits × time table.

The paper's headline claims are *per-round* bounds — O(log log n) proof
size over exactly 5 interaction rounds — so the natural unit of cost
attribution is the round, not the run.  This module folds the per-run
trace summaries produced by :class:`repro.obs.tracer.Tracer` (collected
either live from a traced :class:`~repro.runtime.runner.BatchReport` or
replayed from a :class:`~repro.obs.journal.Journal` JSONL file) into one
:class:`TraceCostReport` per task: for each round, the max and mean
label/coin bits and the share of wall time spent producing and checking
that round, with the final decide sweep reported alongside.

Both entry points — ``repro trace`` (live) and
:func:`aggregate_journal` (post hoc) — render the identical table, which
is pinned by tests: a journal is a faithful replay of the batch it
recorded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..obs.journal import Journal

#: trace-summary round rows carry these accumulator keys
_ACC_KEYS = ("time_s", "bits_total", "n_sites", "n_spans")


@dataclass
class RoundCost:
    """Aggregated cost of one interaction round across many runs."""

    round: int  #: 1-based interaction round; 0 for the decide sweep
    kind: str  #: "prover" | "verifier" | "decide"
    n_runs: int = 0
    bits_max: int = 0
    bits_total: int = 0
    n_sites: int = 0
    time_s: float = 0.0

    @property
    def bits_mean(self) -> float:
        return self.bits_total / self.n_sites if self.n_sites else 0.0

    def fold(self, row: Dict[str, Any]) -> None:
        self.n_runs += 1
        self.bits_max = max(self.bits_max, row["bits_max"])
        self.bits_total += row["bits_total"]
        self.n_sites += row["n_sites"]
        self.time_s += row["time_s"]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "round": self.round,
            "kind": self.kind,
            "n_runs": self.n_runs,
            "bits_max": self.bits_max,
            "bits_mean": self.bits_mean,
            "time_s": self.time_s,
        }


@dataclass
class TraceCostReport:
    """The per-round bits × time breakdown for one task."""

    task: str
    n_runs: int = 0
    ns: List[int] = field(default_factory=list)  #: distinct instance sizes seen
    rounds: List[RoundCost] = field(default_factory=list)
    decide: Optional[RoundCost] = None

    @property
    def total_time_s(self) -> float:
        total = sum(r.time_s for r in self.rounds)
        if self.decide is not None:
            total += self.decide.time_s
        return total

    def _all_rows(self) -> List[RoundCost]:
        rows = list(self.rounds)
        if self.decide is not None:
            rows.append(self.decide)
        return rows

    def to_dict(self) -> Dict[str, Any]:
        return {
            "task": self.task,
            "n_runs": self.n_runs,
            "ns": list(self.ns),
            "total_time_s": self.total_time_s,
            "rounds": [r.to_dict() for r in self.rounds],
            "decide": self.decide.to_dict() if self.decide else None,
        }

    def format_table(self) -> str:
        """Plain-text per-round table: one row per interaction round."""
        total = self.total_time_s or 1.0
        headers = ("round", "phase", "bits max", "bits mean", "time", "share")
        rows: List[Tuple[str, ...]] = []
        for r in self._all_rows():
            rows.append((
                str(r.round) if r.round else "decide",
                r.kind if r.kind != "decide" else "-",
                str(r.bits_max),
                f"{r.bits_mean:.1f}",
                f"{r.time_s * 1000:.2f}ms",
                f"{100.0 * r.time_s / total:.1f}%",
            ))
        widths = [
            max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
            for i, h in enumerate(headers)
        ]

        def fmt(row):
            return "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()

        ns = ",".join(str(n) for n in self.ns)
        lines = [
            f"per-round cost: {self.task} @ n={ns or '?'} "
            f"({self.n_runs} traced run{'s' if self.n_runs != 1 else ''}, "
            f"{self.total_time_s * 1000:.1f}ms traced)",
            fmt(headers),
            fmt(tuple("-" * w for w in widths)),
        ]
        lines.extend(fmt(r) for r in rows)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def summaries_from_report(report) -> List[Dict[str, Any]]:
    """The per-run trace summaries a traced batch shipped in ``extra``."""
    out = []
    for rec in report.records:
        trace = (rec.extra or {}).get("trace")
        if trace is not None:
            out.append(trace)
    return out


def aggregate_summaries(
    summaries: Iterable[Dict[str, Any]],
) -> Dict[str, TraceCostReport]:
    """Fold per-run trace summaries into one report per task."""
    by_task: Dict[str, TraceCostReport] = {}
    for summary in summaries:
        task = summary["task"]
        report = by_task.get(task)
        if report is None:
            report = by_task[task] = TraceCostReport(task=task)
        report.n_runs += 1
        if summary["n"] not in report.ns:
            report.ns.append(summary["n"])
        by_round = {r.round: r for r in report.rounds}
        for row in summary["rounds"]:
            cost = by_round.get(row["round"])
            if cost is None:
                cost = RoundCost(round=row["round"], kind=row["kind"])
                by_round[cost.round] = cost
                report.rounds.append(cost)
                report.rounds.sort(key=lambda r: r.round)
            cost.fold(row)
        decide = summary.get("decide")
        if decide is not None:
            if report.decide is None:
                report.decide = RoundCost(round=0, kind="decide")
            report.decide.fold(decide)
    for report in by_task.values():
        report.ns.sort()
    return by_task


def aggregate_journal(
    source: Union[str, Sequence[Dict[str, Any]], Journal],
) -> Dict[str, TraceCostReport]:
    """Aggregate the ``trace_summary`` events of a journal, per task.

    ``source`` may be a JSONL path, an in-memory event list, or a
    :class:`~repro.obs.journal.Journal`.
    """
    if isinstance(source, Journal):
        events = source.events
    elif isinstance(source, str):
        events = Journal.read_jsonl(source)
    else:
        events = list(source)
    summaries = [e for e in events if e.get("event") == "trace_summary"]
    return aggregate_summaries(summaries)


# ---------------------------------------------------------------------------
# the live driver behind ``repro trace``
# ---------------------------------------------------------------------------


def trace_task(
    task: str,
    n: int = 64,
    seed: int = 0,
    runs: int = 3,
    c: int = 2,
    workers: int = 0,
    journal: Optional[Journal] = None,
):
    """Run ``runs`` traced honest executions of ``task`` and aggregate.

    Returns ``(batch_report, cost_report)``.  Deterministic in
    ``(task, n, seed, runs, c)`` — tracing is observability-only, so the
    batch report is byte-identical to an untraced batch on the same
    arguments.
    """
    from ..runtime.registry import get_task
    from ..runtime.runner import BatchRunner

    spec = get_task(task)
    with BatchRunner(
        spec.protocol(c=c),
        spec.yes_factory,
        workers=workers,
        trace=True,
        journal=journal,
    ) as runner:
        report = runner.run(runs, n, seed=seed)
    by_task = aggregate_summaries(summaries_from_report(report))
    (cost_report,) = by_task.values()
    return report, cost_report


def format_journal_tables(source) -> str:
    """Render every task of a journal as one table block (CLI helper)."""
    by_task = aggregate_journal(source)
    if not by_task:
        return "no trace_summary events in journal"
    return "\n\n".join(by_task[t].format_table() for t in sorted(by_task))


def dump_reports(by_task: Dict[str, TraceCostReport], path: str) -> None:
    """Write aggregated per-task reports as a JSON file."""
    with open(path, "w") as f:
        json.dump(
            {t: by_task[t].to_dict() for t in sorted(by_task)},
            f, indent=2, sort_keys=True,
        )
