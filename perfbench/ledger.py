"""Per-layer ledger for the benchmark: spans recorded from outside the program.

Nothing here changes what the program computes.  Spans come from two
sources, both in this file:

* wrappers patched over the names each layer is called through, at the
  site where the caller looks the name up (``core/protocol.py`` binds
  ``run_columnar_kernel`` and ``build_views`` by name, and
  ``protocols/planarity.py`` binds ``find_planar_embedding`` by name, so
  those module attributes are the ones replaced);
* a read-only :class:`~repro.core.protocol.TraceHook` installed with
  :func:`~repro.core.protocol.install_tracer`, which counts interactions.

Decode-cache hits and misses come from the program's own
``repro_decode_cache_{hits,misses}_total`` counters, which are enabled
only while the wrappers are installed.

Each span records its name, start, end, parent span and run id.  Spans
stay in memory and are written out by :meth:`Ledger.dump` when the run
ends.  A layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: span tuple: (id, name, start, end, parent id or -1, run id)
Span = Tuple[int, str, float, float, int, str]


class Ledger:
    """In-memory span recorder with self-time accounting."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.self_time: Dict[str, float] = defaultdict(float)
        self.run_id = ""
        self.runs = 0
        self._next_id = 0
        #: open spans: [id, name, start, child time]
        self._stack: List[list] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        self.self_time[name] += dur - child
        parent = -1
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.spans.append((sid, name, start - self.t0, end - self.t0, parent, self.run_id))

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a call counter (no span: it is called too often)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output ------------------------------------------------------------

    def self_ms_per_run(self, name: str) -> float:
        return 1000.0 * self.self_time.get(name, 0.0) / max(1, self.runs)

    def dump(self, path, header: dict) -> None:
        """Write the header and every span as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, name, start, end, parent, run in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "run": run}
                    )
                    + "\n"
                )


def _interaction_hook(ledger: Ledger):
    from repro.core.protocol import TraceHook

    class InteractionCounter(TraceHook):
        """Read-only hook: counts interactions (root and composite sub-runs)."""

        def on_interaction_start(self, interaction) -> None:
            ledger.counts["interactions"] += 1

    return InteractionCounter()


@contextmanager
def traced(ledger: Ledger, protocol_cls: type):
    """Install every wrapper and the trace hook; restore all on exit.

    ``protocol_cls`` is the workload's top-level protocol class: its
    ``execute`` span minus child spans is the prover's own work.
    """
    from repro.adversaries.mutation import MutationTap
    from repro.core import columnar
    from repro.core import protocol as core_protocol
    from repro.core.labels import Label, PackedLabel
    from repro.core.protocol import Interaction, clear_tracer, install_tracer
    from repro.obs import metrics as obs_metrics
    from repro.protocols import planarity as planarity_protocol
    from repro.runtime import runner

    def run_span(fn):
        @functools.wraps(fn)
        def wrapper(spec, i):
            ledger.run_id = f"{spec.master_seed}:{i}"
            ledger.runs += 1
            ledger.begin("runtime.run")
            try:
                return fn(spec, i)
            finally:
                ledger.end()

        return wrapper

    def decide_span(fn):
        timed = ledger.timed("core.decide", fn)

        @functools.wraps(fn)
        def wrapper(interaction, *args, **kwargs):
            ledger.counts["decided_nodes"] += interaction.graph.n
            return timed(interaction, *args, **kwargs)

        return wrapper

    def kernel_span(fn):
        timed = ledger.timed("core.kernel", fn)

        @functools.wraps(fn)
        def wrapper(kernel, graph, transcript):
            out = timed(kernel, graph, transcript)
            if out is not None:
                ledger.counts["kernel_nodes"] += graph.n - int(out[1].sum())
            return out

        return wrapper

    patches = [
        (runner, "execute_one_run", run_span),
        (runner, "_build_instance", lambda fn: ledger.timed("graphs.instance", fn)),
        (planarity_protocol, "find_planar_embedding",
         lambda fn: ledger.timed("graphs.embed", fn)),
        (protocol_cls, "execute", lambda fn: ledger.timed("protocols.execute", fn)),
        (Interaction, "prover_round", lambda fn: ledger.timed("core.prover_round", fn)),
        (Interaction, "verifier_round",
         lambda fn: ledger.timed("core.verifier_round", fn)),
        (Interaction, "decide", decide_span),
        (core_protocol, "run_columnar_kernel", kernel_span),
        (columnar, "extract_columns", lambda fn: ledger.timed("core.extract", fn)),
        (core_protocol, "build_views", lambda fn: ledger.timed("core.views", fn)),
        (Label, "pack", lambda fn: ledger.counted("core.pack", fn)),
        (PackedLabel, "pack", lambda fn: ledger.counted("core.pack", fn)),
        (MutationTap, "on_prover_round", lambda fn: ledger.timed("adversaries.tap", fn)),
    ]
    saved: List[Tuple[object, str, Optional[object]]] = []
    hook = _interaction_hook(ledger)
    decode_counters = {
        "decode_cache_hits": obs_metrics.REGISTRY.counter("repro_decode_cache_hits_total"),
        "decode_cache_misses": obs_metrics.REGISTRY.counter("repro_decode_cache_misses_total"),
    }
    before = {k: c.value() for k, c in decode_counters.items()}
    was_enabled = obs_metrics.enabled()
    try:
        for owner, attr, make in patches:
            # read from __dict__ so that restoring puts back exactly what was
            # there: a plain function, or nothing when the class inherits it
            own = vars(owner).get(attr)
            saved.append((owner, attr, own))
            setattr(owner, attr, make(own if own is not None else getattr(owner, attr)))
        install_tracer(hook)
        obs_metrics.enable()
        yield ledger
    finally:
        if not was_enabled:
            obs_metrics.disable()
        for k, c in decode_counters.items():
            ledger.counts[k] += c.value() - before[k]
        clear_tracer(hook)
        for owner, attr, own in reversed(saved):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
