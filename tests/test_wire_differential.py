"""Differential harness: decide-path configurations collapse to one report.

The serial in-process run is the reference.  For every registered task,
the canonical batch report (acceptance, proof-size bits and rejection
counts per run) must be byte-identical across

- the vectorized columnar kernels vs. the per-view Python checkers,
- the shared decode cache vs. each checker's private per-node cache,
- serial execution vs. 2 pool workers (runs execute in forked workers,
  and their specs and records cross the process boundary pickled),

and fuzz adversaries must mutate the same fields with the same outcomes
and the same reported wire offsets.  ``tests/test_backends.py`` pins the
pooled and remote transports against the same serial reference.

The reference paths are reached by substitution inside the test, never
by an option: patching ``protocol.DecodeCache`` to return None sends the
checkers to their private-cache fallback, patching ``columnar._NP`` away
puts every node on the per-view path, and lowering ``columnar.MIN_NODES``
lets the kernels decide these deliberately small graphs.  Pool workers
fork after the patch, so they inherit it.
"""

import pickle
from contextlib import contextmanager

import pytest

from repro.core import columnar, protocol
from repro.core.labels import PackedLabel
from repro.runtime.registry import FUZZ_ROUNDS, get_task, task_names
from repro.runtime.runner import BatchRunner

ALL_TASKS = sorted(task_names())
FUZZ_ADVERSARIES = [f"fuzz_r{r}" for r in FUZZ_ROUNDS]

#: the extra keys a mutation report must agree on across configurations
#: (the rest of ``extra`` is timing/bookkeeping outside the invariant)
MUTATION_KEYS = (
    "mutated", "round", "path", "stage", "site", "applied_op", "caught_by",
    "wire_offset", "wire_width", "wire_label_bits",
)

#: pickled bytes of the test transcript below with labels shipped as
#: object trees, recorded before that transport was removed
TREE_PICKLE_BYTES = 22479


@contextmanager
def _mode(*, cache=True, vector=None):
    """Run the block under one decide configuration (None: the default)."""
    with pytest.MonkeyPatch.context() as mp:
        if not cache:
            mp.setattr(protocol, "DecodeCache", lambda: None)
        if vector is True:
            # the harness n sits below the size floor: drop the gate so
            # the kernels genuinely decide these runs
            mp.setattr(columnar, "MIN_NODES", 2)
        elif vector is False:
            mp.setattr(columnar, "_NP", None)
            mp.setattr(columnar, "_NP_CHECKED", True)
        yield


def _run(task, adversary=None, *, workers=0, n=24, runs=3, seed=11):
    spec = get_task(task)
    factory = spec.adversaries[adversary] if adversary else None
    with BatchRunner(
        spec.protocol(), spec.yes_factory, prover_factory=factory, workers=workers
    ) as runner:
        return runner.run(runs, n, seed=seed)


def _outcomes(report):
    """The soundness-relevant view of a batch: per-run verdict triples."""
    return [
        (r.accepted, r.proof_size_bits, r.n_rejecting, r.n_rounds)
        for r in report.records
    ]


class TestFullCross:
    """{cache on, off} x {serial, 2 workers} -> one report."""

    @pytest.mark.parametrize("task", ["lr_sorting", "path_outerplanarity"])
    def test_four_way_cross_is_byte_identical(self, task):
        reports = {}
        for cache in (True, False):
            for workers in (0, 2):
                with _mode(cache=cache):
                    reports[(cache, workers)] = _run(
                        task, workers=workers
                    ).canonical_json()
        baseline = reports[(True, 0)]
        for combo, canonical in reports.items():
            assert canonical == baseline, combo


class TestVectorDifferential:
    """Vectorized columnar decide on vs. off, with the decode cache on and off.

    Kernel verdicts must collapse to the per-view path's byte for byte --
    honest and adversarial.  The vector-on legs lower ``MIN_NODES`` so
    the kernels actually decide these (deliberately small) runs instead
    of ducking under the size gate.
    """

    @pytest.mark.parametrize("task", ALL_TASKS)
    @pytest.mark.parametrize("adversary", [None] + FUZZ_ADVERSARIES)
    def test_vector_cross_cache(self, task, adversary):
        reports = {}
        for vector in (True, False):
            for cache in (True, False):
                with _mode(cache=cache, vector=vector):
                    reports[(vector, cache)] = _run(task, adversary)
        baseline = reports[(False, True)]
        base_json = baseline.canonical_json()
        for combo, report in reports.items():
            assert report.canonical_json() == base_json, combo
            assert _outcomes(report) == _outcomes(baseline), combo
            if adversary:
                # fuzz wire coordinates unchanged across both axes
                for a, b in zip(baseline.records, report.records):
                    extra_a = a.extra or {}
                    extra_b = b.extra or {}
                    for key in MUTATION_KEYS:
                        assert extra_a.get(key) == extra_b.get(key), (combo, key)

    @pytest.mark.parametrize("task", ALL_TASKS)
    def test_vector_cross_workers(self, task):
        """Vector on/off x {serial, 2 workers}: forked workers inherit the
        patched gate and decide exactly as the serial run does."""
        reports = {}
        for vector in (True, False):
            for workers in (0, 2):
                with _mode(vector=vector):
                    reports[(vector, workers)] = _run(
                        task, workers=workers
                    ).canonical_json()
        baseline = reports[(False, 0)]
        for combo, canonical in reports.items():
            assert canonical == baseline, combo


class TestPackedTransport:
    def test_packed_transport_is_smaller(self):
        """The point of the blob: shard bytes drop vs. pickled trees."""
        spec = get_task("path_outerplanarity")
        from repro.runtime.seeds import SeedSequence

        run_ss = SeedSequence(11).child(0)
        factory = spec.yes_factory
        if hasattr(factory, "build_seeded"):
            instance = factory.build_seeded(24, run_ss.child("instance").seed_int())
        else:
            instance = factory(24, run_ss.child("instance").rng())
        result = spec.protocol().execute(
            instance, rng=run_ss.child("protocol").rng()
        )
        packed_bytes = len(pickle.dumps(result.transcript))
        assert packed_bytes < TREE_PICKLE_BYTES / 2, packed_bytes
        # and the packed pickle round-trips to an equal transcript of views
        clone = pickle.loads(pickle.dumps(result.transcript))
        assert clone.wire_hex() == result.transcript.wire_hex()
        for rnd in clone.prover_rounds():
            assert all(type(l) is PackedLabel for l in rnd.labels.values())
