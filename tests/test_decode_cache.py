"""Bit-identity and bookkeeping of the decide-phase decode cache.

The cache is a pure memo: with no cache installed every checker falls
back to a private per-node cache, which is exactly the old
decode-everything-locally behavior.  These tests reach that path by
substituting ``protocol.DecodeCache`` (pool workers fork after the
patch, so they inherit it), pin the canonical reports byte-identical
with the cache on and off — serially and across worker processes — for
every registered task, and cover the cache's counters, the metrics
export, and the runner's auto-serial heuristic.
"""

import pytest

from repro.analysis.experiments import run_batch
from repro.core import protocol
from repro.core.network import path_graph
from repro.core.protocol import DecodeCache, Interaction, active_decode_cache
from repro.obs import metrics as obs_metrics
from repro.runtime.registry import canonical_name, get_task, task_names
from repro.runtime.runner import BatchRunner, _usable_cores

ALL_TASKS = sorted(task_names())


def _canonical(task, *, workers, disabled, n=24, runs=3, seed=11):
    spec = get_task(task)
    with pytest.MonkeyPatch.context() as mp:
        if disabled:
            mp.setattr(protocol, "DecodeCache", lambda: None)
        with BatchRunner(
            spec.protocol(c=2), spec.yes_factory, workers=workers
        ) as runner:
            return runner.run(runs, n, seed=seed).canonical_json()


class TestBitIdentity:
    @pytest.mark.parametrize("task", ALL_TASKS)
    def test_cache_on_off_serial(self, task):
        on = _canonical(task, workers=0, disabled=False)
        off = _canonical(task, workers=0, disabled=True)
        assert on == off

    @pytest.mark.parametrize("task", ALL_TASKS)
    def test_cache_on_off_two_workers(self, task):
        on = _canonical(task, workers=2, disabled=False)
        off = _canonical(task, workers=2, disabled=True)
        assert on == off

    def test_serial_matches_workers_with_cache(self):
        serial = _canonical("path_outerplanarity", workers=0, disabled=False)
        pooled = _canonical("path_outerplanarity", workers=2, disabled=False)
        assert serial == pooled


class TestDecodeCacheUnit:
    def test_counting_get(self):
        cache = DecodeCache()
        memo = cache.sub("k")
        calls = []

        def fn(x):
            calls.append(x)
            return x * 2

        assert cache.get(memo, 1, fn, 1) == 2
        assert cache.get(memo, 1, fn, 1) == 2
        assert calls == [1]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_cached_none_is_a_hit(self):
        cache = DecodeCache()
        memo = cache.sub("k")
        assert cache.get(memo, "a", lambda: None) is None
        assert cache.get(memo, "a", lambda: None) is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_sub_partitions_by_kind(self):
        cache = DecodeCache()
        cache.sub("a")[1] = "x"
        assert 1 not in cache.sub("b")
        assert cache.sub("a") is cache.sub("a")

    def test_decide_scopes_a_fresh_cache_to_its_sweep(self):
        first, second = _sweep_caches(), _sweep_caches()
        assert all(isinstance(c, DecodeCache) for c in first + second)
        assert first[0] is first[1] is first[2]  # shared by the sweep's nodes
        assert first[0] is not second[0]

    def test_substitution_leaves_the_sweep_without_a_cache(self, monkeypatch):
        # the cache-off reference the bit-identity tests compare against
        monkeypatch.setattr(protocol, "DecodeCache", lambda: None)
        assert _sweep_caches() == [None, None, None]


def _sweep_caches():
    """The decode cache each node's check sees during one decide sweep."""
    seen = []
    interaction = Interaction(path_graph(3))
    interaction.verifier_round({})
    interaction.prover_round({})
    interaction.decide(lambda view: seen.append(active_decode_cache()) or True)
    assert active_decode_cache() is None  # restored after the sweep
    return seen


class TestMetricsExport:
    def test_counters_flow_to_registry(self):
        obs_metrics.enable()
        try:
            obs_metrics.REGISTRY.reset()
            spec = get_task("path_outerplanarity")
            BatchRunner(spec.protocol(c=2), spec.yes_factory).run(1, 24, seed=3)
            rendered = obs_metrics.REGISTRY.render()
        finally:
            obs_metrics.disable()
        assert "repro_decode_cache_hits_total" in rendered
        assert "repro_decode_cache_misses_total" in rendered
        # the counted decode kinds (forest/nesting decodes among them)
        # guarantee a non-trivial sweep records both hits and misses
        for line in rendered.splitlines():
            if line.startswith("repro_decode_cache_hits_total"):
                assert float(line.split()[-1]) > 0
            if line.startswith("repro_decode_cache_misses_total"):
                assert float(line.split()[-1]) > 0


class TestAutoSerial:
    def test_small_batch_falls_back_to_serial(self):
        spec = get_task("lr_sorting")
        with BatchRunner(
            spec.protocol(c=2), spec.yes_factory, workers=2, min_runs_per_shard=8
        ) as auto:
            small = auto.run(4, 32, seed=5)  # 4 < 8 * 2 -> serial
        reference = BatchRunner(spec.protocol(c=2), spec.yes_factory, workers=0)
        assert "auto_serial" in small.meta
        assert small.workers == 2  # the configured layout stays visible
        assert small.canonical_json() == reference.run(4, 32, seed=5).canonical_json()

    def test_large_batch_keeps_pool_when_cores_allow(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.runner._usable_cores", lambda: 4)
        spec = get_task("lr_sorting")
        with BatchRunner(
            spec.protocol(c=2), spec.yes_factory, workers=2, min_runs_per_shard=2
        ) as runner:
            assert runner._auto_serial_reason(16) is None

    def test_single_core_box_falls_back(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.runner._usable_cores", lambda: 1)
        spec = get_task("lr_sorting")
        with BatchRunner(
            spec.protocol(c=2), spec.yes_factory, workers=2, min_runs_per_shard=1
        ) as runner:
            reason = runner._auto_serial_reason(64)
        assert reason is not None and "core" in reason

    def test_default_never_second_guesses(self):
        spec = get_task("lr_sorting")
        with BatchRunner(spec.protocol(c=2), spec.yes_factory, workers=2) as runner:
            assert runner._auto_serial_reason(1) is None  # pool path preserved

    def test_usable_cores_positive(self):
        assert _usable_cores() >= 1

    def test_run_batch_defaults_to_auto_serial(self):
        spec = get_task("lr_sorting")
        report = run_batch(
            spec.protocol, spec.yes_factory, n_runs=3, n=32, seed=1, workers=2
        )
        assert "auto_serial" in report.meta

    def test_validation(self):
        spec = get_task("lr_sorting")
        with pytest.raises(ValueError):
            BatchRunner(spec.protocol(c=2), spec.yes_factory, min_runs_per_shard=0)


class TestProtocolNormalization:
    def test_run_batch_accepts_protocol_class(self):
        spec = get_task("lr_sorting")
        by_class = run_batch(spec.protocol, spec.yes_factory, n_runs=2, n=32, seed=4)
        by_inst = run_batch(spec.protocol(), spec.yes_factory, n_runs=2, n=32, seed=4)
        assert by_class.canonical_json() == by_inst.canonical_json()

    def test_non_protocol_raises_type_error_at_entry(self):
        spec = get_task("lr_sorting")
        with pytest.raises(TypeError, match="execute"):
            BatchRunner(object(), spec.yes_factory)
        with pytest.raises(TypeError, match="execute"):
            run_batch("planarity", spec.yes_factory, n_runs=1, n=16)


class TestRegistryAliases:
    def test_no_self_aliases_and_all_distinct(self):
        from repro.runtime.registry import _ALIASES

        names = set(task_names())
        for alias, target in _ALIASES.items():
            assert alias != target, f"self-alias {alias!r} is a no-op"
            assert alias not in names, f"alias {alias!r} shadows a real task"
            assert target in names, f"alias {alias!r} -> unregistered {target!r}"
        # aliases map to *distinct* tasks: no two spell the same target
        targets = list(_ALIASES.values())
        assert len(targets) == len(set(targets))

    def test_alias_resolution_still_works(self):
        assert canonical_name("treewidth_2") == "treewidth2"
        assert canonical_name("treewidth-2") == "treewidth2"
        assert get_task("treewidth_2") is get_task("treewidth2")
        # the dropped self-alias changed nothing observable
        assert canonical_name("series_parallel") == "series_parallel"
        assert get_task("series_parallel").name == "series_parallel"
