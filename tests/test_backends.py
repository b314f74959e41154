"""Cross-backend conformance: serial vs process-pool vs remote workers.

The tentpole invariant of the backend refactor is *bit-identity*: run
``i`` of a batch derives every draw from ``SeedSequence(seed).child(i)``,
keyed by run index alone, so where the run executes — in process, in a
local pool worker, or on a socket-connected agent — cannot leave a trace
in ``BatchReport.canonical_json()``.  This suite pins that
differentially over the whole registry (honest + the universal fuzz
family, packed and tree wire legs), property-tests the shard planner,
and drives the remote coordinator through seeded chaos (a worker killed
mid-shard, a connection dropped mid-RESULT-blob) to show resubmission
converges back to the fault-free serial bytes.
"""

import multiprocessing
import os
import socket
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as obs_metrics
from repro.runtime.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    backend_names,
    plan_shards,
    resolve_backend,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.registry import conformance_cases, get_task
from repro.runtime.remote import (
    HEADER_SIZE,
    OP_HELLO,
    OP_SPEC,
    InProcessWorker,
    RemoteProtocolError,
    RemoteWorkerBackend,
    _FrameBuffer,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.runtime.runner import BatchRunner
from repro.runtime.seeds import SeedSequence

CASES = conformance_cases()

#: the mutation-report keys that must agree across backends (identical
#: fuzz *wire coordinates*, not just identical verdicts)
MUTATION_KEYS = (
    "mutated", "round", "path", "stage", "site", "applied_op", "caught_by",
    "wire_offset", "wire_width", "wire_label_bits",
)


def _run(task, adversary=None, *, backend=None, workers=0, runs=3, n=24,
         seed=11, **knobs):
    spec = get_task(task)
    factory = spec.adversaries[adversary] if adversary else None
    with BatchRunner(
        spec.protocol(), spec.yes_factory, prover_factory=factory,
        workers=workers, backend=backend, **knobs,
    ) as runner:
        return runner.run(runs, n, seed=seed)


def _set_wire(monkeypatch, packed):
    if packed:
        monkeypatch.delenv("REPRO_DISABLE_PACKED_LABELS", raising=False)
    else:
        monkeypatch.setenv("REPRO_DISABLE_PACKED_LABELS", "1")


@pytest.fixture(scope="module")
def remote_backend():
    """One coordinator + two localhost worker agents for the whole module.

    The agents run on threads of this process (protocol-faithful at the
    socket layer; the wire-format env flags are read per call, so both
    packed legs exercise them) and serve every batch the module runs —
    the spec-once protocol re-ships each batch's spec on first contact.
    """
    backend = RemoteWorkerBackend(min_workers=2, accept_timeout=20.0)
    workers = [InProcessWorker(backend.address).start() for _ in range(2)]
    yield backend
    backend.close()
    for worker in workers:
        worker.join(timeout=5)


# ---------------------------------------------------------------------------
# the differential conformance suite
# ---------------------------------------------------------------------------


class TestBackendConformance:
    """serial vs pool vs remote, all tasks, honest + fuzz, both wire legs."""

    @pytest.mark.parametrize("packed", [True, False], ids=["packed", "tree"])
    @pytest.mark.parametrize(
        "task,adversary", CASES, ids=[f"{t}-{a or 'honest'}" for t, a in CASES]
    )
    def test_three_backends_byte_identical(
        self, task, adversary, packed, remote_backend, monkeypatch
    ):
        _set_wire(monkeypatch, packed)
        serial = _run(task, adversary, backend=SerialBackend())
        with ProcessPoolBackend(2) as backend:
            pool = _run(task, adversary, backend=backend, workers=2)
        remote = _run(task, adversary, backend=remote_backend)

        reference = serial.canonical_json()
        assert pool.canonical_json() == reference, (task, adversary, "pool")
        assert remote.canonical_json() == reference, (task, adversary, "remote")

        # identical soundness outcomes, run by run
        for a, b, c in zip(serial.records, pool.records, remote.records):
            verdicts = {
                (r.accepted, r.proof_size_bits, r.n_rejecting, r.n_rounds)
                for r in (a, b, c)
            }
            assert len(verdicts) == 1, (task, adversary, a.index)

        # fuzz adversaries must report the same wire coordinates everywhere
        if adversary is not None:
            for a, b, c in zip(serial.records, pool.records, remote.records):
                for key in MUTATION_KEYS:
                    values = {
                        (rec.extra or {}).get(key) for rec in (a, b, c)
                    }
                    assert len(values) == 1, (task, adversary, a.index, key)

        # execution provenance is meta, never canonical
        assert serial.meta["backend"]["backend"] == "serial"
        assert pool.meta["backend"]["backend"] == "process"
        assert remote.meta["backend"]["backend"] == "remote"


class TestReplanInvariance:
    """Shard layout is invisible: any chunking collapses to one report."""

    def test_chunk_sizes_collapse_to_serial(self, remote_backend):
        reference = _run("lr_sorting", runs=8).canonical_json()
        for chunk in (1, 3, 8):
            with ProcessPoolBackend(2, chunk_size=chunk) as backend:
                pool = _run("lr_sorting", runs=8, workers=2, backend=backend)
            assert pool.canonical_json() == reference, ("pool", chunk)
        for chunk in (1, 5):
            spec = get_task("lr_sorting")
            runner = BatchRunner(spec.protocol(), spec.yes_factory,
                                 backend=remote_backend, chunk_size=chunk)
            assert runner.run(8, 24, seed=11).canonical_json() == reference, (
                "remote", chunk)


def _crashing_factory(n, rng):
    raise ValueError("intentional factory crash")


class TestStrictPolicyConformance:
    """strict is the engine's zero-retry policy on every backend: one
    planted factory crash surfaces as the same exception, type and
    message, wherever the run executed."""

    @pytest.mark.parametrize("where", ["serial", "pool", "remote"])
    def test_factory_crash_raises_identically(self, where, remote_backend):
        backend, workers = {
            "serial": (SerialBackend(), 0),
            "pool": (ProcessPoolBackend(2), 2),
            "remote": (remote_backend, 0),
        }[where]
        spec = get_task("lr_sorting")
        runner = BatchRunner(
            spec.protocol(), _crashing_factory, workers=workers, backend=backend
        )
        with pytest.raises(Exception) as raised:
            runner.run(4, 24, seed=11)
        assert type(raised.value) is ValueError, where
        assert str(raised.value) == "intentional factory crash", where


def _pool_pids(backend):
    """PIDs of the worker processes of a backend's kept pool."""
    return sorted(backend._pool._processes)


class TestPoolProcessLifecycle:
    """A pool lives as long as its backend: warm across batches, replaced
    when it breaks or its width changes, and never left behind."""

    def test_fault_free_batch_reaps_its_workers(self):
        spec = get_task("lr_sorting")
        runner = BatchRunner(spec.protocol(), spec.yes_factory, workers=2)
        first = runner.run(6, 24, seed=11)
        assert first.meta["backend"]["workers_spawned"] >= 1
        pids = _pool_pids(runner.backend)
        second = runner.run(6, 24, seed=12)
        assert _pool_pids(runner.backend) == pids  # the same warm workers
        assert len(second.records) == 6
        runner.close()
        assert multiprocessing.active_children() == []

        with BatchRunner(spec.protocol(), spec.yes_factory, workers=2) as runner:
            runner.run(6, 24, seed=11)
            assert multiprocessing.active_children() != []
        assert multiprocessing.active_children() == []

    def test_strict_abort_reaps_its_workers(self):
        spec = get_task("lr_sorting")
        runner = BatchRunner(
            spec.protocol(), _crashing_factory, workers=2,
            backend=ProcessPoolBackend(2, chunk_size=1),
        )
        with pytest.raises(ValueError, match="intentional factory crash"):
            runner.run(8, 24, seed=11)
        assert multiprocessing.active_children() == []

    def test_caller_owned_backend_outlives_the_runner(self):
        spec = get_task("lr_sorting")
        with ProcessPoolBackend(2) as backend:
            with BatchRunner(spec.protocol(), spec.yes_factory,
                             backend=backend) as runner:
                runner.run(4, 24, seed=11)
            pids = _pool_pids(backend)  # leaving the runner left it alone
            BatchRunner(spec.protocol(), spec.yes_factory,
                        backend=backend).run(4, 24, seed=12)
            assert _pool_pids(backend) == pids
        assert multiprocessing.active_children() == []

    def test_next_batch_after_a_kill_runs_on_the_rebuilt_pool(self):
        spec = get_task("lr_sorting")
        reference = _run("lr_sorting", runs=6, seed=11).canonical_json()
        plan = FaultPlan(0, overrides={1: ("kill", 1)})
        with ProcessPoolBackend(2) as backend:
            with obs_metrics.enabled_metrics() as registry:
                killed = BatchRunner(
                    spec.protocol(), spec.yes_factory, backend=backend,
                    chunk_size=2, failure_policy="retry", fault_plan=plan,
                    max_retries=3, backoff_base=0.01, backoff_cap=0.05,
                ).run(6, 24, seed=11)
                rebuilds = registry.counter("repro_pool_rebuilds_total").value()
            assert rebuilds >= 1
            assert killed.canonical_json() == reference
            rebuilt = backend._pool
            pids = _pool_pids(backend)
            report = BatchRunner(
                spec.protocol(), spec.yes_factory, backend=backend
            ).run(6, 24, seed=11)
            assert backend._pool is rebuilt and _pool_pids(backend) == pids
        assert report.canonical_json() == reference
        assert multiprocessing.active_children() == []

    def test_worker_lost_between_batches_is_replaced(self):
        spec = get_task("lr_sorting")
        with BatchRunner(spec.protocol(), spec.yes_factory, workers=2) as runner:
            first = runner.run(4, 24, seed=11)
            victim = runner.backend._pool._processes[_pool_pids(runner.backend)[0]]
            victim.kill()
            victim.join(timeout=5)
            # a strict batch: a run sent to the dead pool would abort it
            second = runner.run(4, 24, seed=11)
            assert victim.pid not in _pool_pids(runner.backend)
        assert second.canonical_json() == first.canonical_json()
        assert multiprocessing.active_children() == []

    def test_pool_breaking_during_submission_loses_only_its_shards(self):
        from concurrent.futures.process import BrokenProcessPool

        def broken_submit(*args, **kwargs):
            raise BrokenProcessPool("a worker died mid-submission")

        spec = get_task("lr_sorting")
        reference = _run("lr_sorting", runs=4, seed=11).canonical_json()
        with ProcessPoolBackend(2) as backend:
            runner = BatchRunner(
                spec.protocol(), spec.yes_factory, backend=backend,
                failure_policy="retry", backoff_base=0.01, backoff_cap=0.05,
            )
            runner.run(4, 24, seed=12)
            backend._pool.submit = broken_submit
            report = runner.run(4, 24, seed=11)
        assert report.canonical_json() == reference
        assert multiprocessing.active_children() == []

    def test_spawn_width_change_rebuilds_the_pool(self, monkeypatch):
        spec = get_task("lr_sorting")
        monkeypatch.setattr("repro.runtime.runner._usable_cores", lambda: 1)
        with BatchRunner(spec.protocol(), spec.yes_factory, workers=2) as runner:
            narrow = runner.run(4, 24, seed=11)
            (old_pid,) = _pool_pids(runner.backend)
            monkeypatch.setattr("repro.runtime.runner._usable_cores", lambda: 2)
            wide = runner.run(4, 24, seed=11)
            assert wide.meta["backend"]["workers_spawned"] == 2
            assert len(_pool_pids(runner.backend)) == 2
            assert old_pid not in {p.pid for p in multiprocessing.active_children()}
        assert wide.canonical_json() == narrow.canonical_json()
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# shard planning properties
# ---------------------------------------------------------------------------


class TestShardPlanning:
    @given(
        n_runs=st.integers(min_value=0, max_value=400),
        workers=st.integers(min_value=1, max_value=16),
        chunk=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    )
    @settings(max_examples=80, deadline=None)
    def test_plan_is_permutation_free_tiling(self, n_runs, workers, chunk):
        shards = plan_shards(range(n_runs), workers=workers, chunk_size=chunk)
        assert all(shards), "no empty shards"
        flat = [i for shard in shards for i in shard]
        assert flat == list(range(n_runs))  # order, coverage, no duplicates

    @given(
        n_runs=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chunk_a=st.integers(min_value=1, max_value=16),
        chunk_b=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_seed_streams_ignore_shard_layout(self, n_runs, seed, chunk_a, chunk_b):
        """Re-planning with a different shard count touches no run's seeds."""

        def per_run_seeds(chunk):
            out = {}
            for shard in plan_shards(range(n_runs), workers=1, chunk_size=chunk):
                for i in shard:
                    run_ss = SeedSequence(seed).child(i)
                    out[i] = (
                        run_ss.child("instance").seed_int(),
                        run_ss.child("protocol").seed_int(),
                        run_ss.child("adversary").seed_int(),
                    )
            return out

        assert per_run_seeds(chunk_a) == per_run_seeds(chunk_b)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(range(4), chunk_size=0)


# ---------------------------------------------------------------------------
# backend resolution + the usable-cores clamp
# ---------------------------------------------------------------------------


class TestResolveBackend:
    def test_registry_names(self):
        assert set(backend_names()) >= {"serial", "process", "remote"}

    def test_legacy_mapping(self):
        assert isinstance(resolve_backend(None, workers=0), SerialBackend)
        pool = resolve_backend(None, workers=3)
        assert isinstance(pool, ProcessPoolBackend) and pool.workers == 3

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_name_resolution(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("process", workers=2), ProcessPoolBackend)
        remote = resolve_backend("remote:127.0.0.1:0", workers=2)
        try:
            assert isinstance(remote, RemoteWorkerBackend)
            assert remote.min_workers == 2 and remote.port != 0
        finally:
            remote.close()

    def test_errors(self):
        with pytest.raises(ValueError):
            resolve_backend("warp-drive")
        with pytest.raises(ValueError):
            resolve_backend("process", workers=0)
        with pytest.raises(TypeError):
            resolve_backend(42)


class TestUsableCoresClamp:
    """The latent bug: core width must be re-checked per run, not frozen."""

    def test_spawn_width_reclamped_per_execution(self, monkeypatch):
        backend = ProcessPoolBackend(workers=8)
        monkeypatch.setattr("repro.runtime.runner._usable_cores", lambda: 1)
        assert backend.spawn_width() == 1
        monkeypatch.setattr("repro.runtime.runner._usable_cores", lambda: 4)
        assert backend.spawn_width() == 4  # same instance, affinity changed
        monkeypatch.setattr("repro.runtime.runner._usable_cores", lambda: 64)
        assert backend.spawn_width() == 8  # never wider than configured

    def test_workers_above_cores_clamped_and_reported(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.runner._usable_cores", lambda: 1)
        report = _run("lr_sorting", workers=4, runs=4)
        info = report.meta["backend"]
        assert info["workers_spawned"] == 1
        assert info["clamped_to_cores"] is True
        assert report.workers == 4  # the configured value is preserved

    def test_backend_swap_rechecks_width(self, monkeypatch):
        spec = get_task("lr_sorting")
        runner = BatchRunner(spec.protocol(), spec.yes_factory, workers=2)
        monkeypatch.setattr("repro.runtime.runner._usable_cores", lambda: 1)
        first = runner.run(4, 24, seed=11)
        assert first.meta["backend"]["workers_spawned"] == 1
        # swap to a fresh pool backend under a different affinity: the
        # width must come from the swap-time (run-time) core count
        with ProcessPoolBackend(2) as backend:
            runner.set_backend(backend)
            monkeypatch.setattr("repro.runtime.runner._usable_cores", lambda: 2)
            second = runner.run(4, 24, seed=11)
        assert second.meta["backend"]["workers_spawned"] == 2
        assert second.canonical_json() == first.canonical_json()

    def test_swap_to_serial_by_name(self):
        spec = get_task("lr_sorting")
        runner = BatchRunner(spec.protocol(), spec.yes_factory, workers=2)
        reference = runner.run(3, 24, seed=11)
        swapped = runner.set_backend("serial")
        assert isinstance(swapped, SerialBackend)
        report = runner.run(3, 24, seed=11)
        assert report.canonical_json() == reference.canonical_json()
        assert report.meta["backend"]["backend"] == "serial"


# ---------------------------------------------------------------------------
# the wire protocol, in isolation
# ---------------------------------------------------------------------------


class TestWireProtocol:
    def test_parse_address(self):
        assert parse_address("127.0.0.1:7077") == ("127.0.0.1", 7077)
        assert parse_address("worker-9.cluster.local:80") == (
            "worker-9.cluster.local", 80)
        for bad in ("nonsense", ":80", "host:", "host:a"):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_frame_roundtrip_over_a_socketpair(self):
        a, b = socket.socketpair()
        try:
            payload = b"x" * 70_000  # bigger than one recv() buffer slice
            send_frame(a, OP_SPEC, payload)
            op, got = recv_frame(b)
            assert op == OP_SPEC and got == payload
        finally:
            a.close()
            b.close()

    def test_frame_buffer_reassembles_split_frames(self):
        frame = bytearray()
        send_frame_bytes = []

        class _Capture:
            def sendall(self, data):
                frame.extend(data)

        send_frame(_Capture(), OP_HELLO, b'{"version":1}')
        buf = _FrameBuffer()
        # feed one byte at a time: nothing until the last byte lands
        for i, byte in enumerate(bytes(frame)):
            frames = buf.feed(bytes([byte]))
            if i < len(frame) - 1:
                assert frames == []
                send_frame_bytes.append(byte)
        assert frames == [(OP_HELLO, b'{"version":1}')]

    def test_unknown_opcode_rejected(self):
        buf = _FrameBuffer()
        with pytest.raises(RemoteProtocolError):
            buf.feed(b"Z\x00\x00\x00\x00" + b"\x00" * HEADER_SIZE)


# ---------------------------------------------------------------------------
# chaos: worker loss and dropped connections
# ---------------------------------------------------------------------------


def _spawn_agent(port: int) -> subprocess.Popen:
    """A real ``repro worker`` agent process (kill faults genuinely kill)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--connect", f"127.0.0.1:{port}", "--connect-timeout", "20"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestRemoteChaos:
    def test_worker_killed_mid_shard_resubmits_byte_identical(self):
        """A seeded kill takes a real agent down; the survivor finishes.

        The surviving report must be byte-identical to the fault-free
        serial reference, and the coordinator must count the loss.
        """
        reference = _run("lr_sorting", runs=6, seed=11).canonical_json()
        plan = FaultPlan(0, overrides={1: ("kill", 1)})
        backend = RemoteWorkerBackend(min_workers=2, accept_timeout=30.0)
        agents = [_spawn_agent(backend.port) for _ in range(2)]
        try:
            with obs_metrics.enabled_metrics() as registry:
                report = _run(
                    "lr_sorting", runs=6, seed=11,
                    backend=backend, chunk_size=2,
                    failure_policy="retry", fault_plan=plan, max_retries=3,
                    backoff_base=0.01, backoff_cap=0.05,
                )
                losses = registry.counter(
                    "repro_remote_worker_losses_total").value()
        finally:
            backend.close()
            for agent in agents:
                try:
                    agent.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    agent.kill()
        assert report.canonical_json() == reference
        assert not report.failures
        assert losses >= 1
        assert backend.last_run_info["worker_losses"] >= 1
        # exactly one agent died of the injected kill (exit code 23)
        assert sorted(a.returncode for a in agents) == [0, 23]

    def test_connection_dropped_mid_result_blob(self):
        """A socket cut halfway through a RESULT frame is a lost shard."""
        reference = _run("lr_sorting", runs=8, seed=11).canonical_json()

        class _DropOnce:
            def __init__(self):
                self.fired = False

            def __call__(self, sock, data):
                if not self.fired:
                    self.fired = True
                    sock.sendall(data[: max(1, len(data) // 2)])
                    sock.close()
                    raise ConnectionError("injected mid-blob drop")
                sock.sendall(data)

        backend = RemoteWorkerBackend(min_workers=2, accept_timeout=20.0)
        saboteur = InProcessWorker(
            backend.address, result_send_hook=_DropOnce()
        ).start()
        survivor = InProcessWorker(backend.address).start()
        try:
            with obs_metrics.enabled_metrics() as registry:
                report = _run(
                    "lr_sorting", runs=8, seed=11,
                    backend=backend, chunk_size=2,
                    failure_policy="retry", max_retries=3,
                    backoff_base=0.01, backoff_cap=0.05,
                )
                losses = registry.counter(
                    "repro_remote_worker_losses_total").value()
        finally:
            backend.close()
            saboteur.join(timeout=5)
            survivor.join(timeout=5)
        assert report.canonical_json() == reference
        assert not report.failures
        assert losses >= 1
        assert backend.last_run_info["worker_losses"] >= 1

    def test_raise_faults_on_remote_retry_to_reference(self, remote_backend):
        """Transient raises on remote workers heal exactly like local ones."""
        reference = _run("treewidth2", runs=5, seed=11).canonical_json()
        plan = FaultPlan(0, overrides={0: ("raise", 1), 3: ("raise", 2)})
        report = _run(
            "treewidth2", runs=5, seed=11,
            backend=remote_backend,
            failure_policy="retry", fault_plan=plan, max_retries=3,
            backoff_base=0.01, backoff_cap=0.05,
        )
        assert report.canonical_json() == reference
        assert not report.failures


class TestRemoteLifecycle:
    def test_min_workers_timeout_is_actionable(self):
        backend = RemoteWorkerBackend(min_workers=1, accept_timeout=0.2)
        spec = get_task("lr_sorting")
        runner = BatchRunner(
            spec.protocol(), spec.yes_factory, backend=backend
        )
        try:
            with pytest.raises(RuntimeError, match="repro worker --connect"):
                runner.run(2, 24, seed=11)
        finally:
            backend.close()

    def test_closed_backend_refuses_work(self):
        backend = RemoteWorkerBackend()
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            backend.execute(object(), 1)

    def test_worker_exits_cleanly_on_bye(self):
        backend = RemoteWorkerBackend(min_workers=1, accept_timeout=10.0)
        worker = InProcessWorker(backend.address).start()
        report = _run("lr_sorting", runs=3, seed=11, backend=backend)
        assert report.meta["backend"]["backend"] == "remote"
        backend.close()
        worker.join(timeout=5)
        assert worker.exit_status == 0
        assert worker.error is None


# ---------------------------------------------------------------------------
# frame limits and worker reconnect (service-era hardening)
# ---------------------------------------------------------------------------


class TestFrameLimits:
    def test_forged_2gib_header_rejected_before_allocation(self):
        """Regression: a forged header declaring a 2 GiB payload must be
        refused on the declared length alone — typed, and without the
        receiver ever trying to buffer the body."""
        from repro.runtime.remote import WireError

        a, b = socket.socketpair()
        try:
            a.sendall(__import__("struct").pack(">cI", OP_SPEC, (1 << 31) + 17))
            with pytest.raises(WireError, match="frame too large"):
                recv_frame(b, max_frame_bytes=1 << 24)
        finally:
            a.close()
            b.close()

    def test_frame_buffer_limit_is_configurable(self):
        from repro.runtime.remote import WireError, _encode_frame

        buf = _FrameBuffer(max_frame_bytes=16)
        with pytest.raises(WireError):
            buf.feed(__import__("struct").pack(">cI", OP_SPEC, 17))
        # at the limit is fine
        ok = _FrameBuffer(max_frame_bytes=16)
        frames = ok.feed(_encode_frame(OP_SPEC, b"x" * 16))
        assert frames == [(OP_SPEC, b"x" * 16)]

    def test_send_side_enforces_the_same_limit(self):
        from repro.runtime.remote import WireError, _encode_frame

        with pytest.raises(WireError):
            _encode_frame(OP_SPEC, b"x" * 17, max_frame_bytes=16)

    def test_wire_error_is_a_protocol_error(self):
        from repro.runtime.remote import WireError

        assert issubclass(WireError, RemoteProtocolError)


class TestWorkerReconnect:
    def test_backoff_is_deterministic_capped_and_jittered(self):
        from repro.runtime.remote import reconnect_backoff

        series = [reconnect_backoff(7, a, 0.05, 2.0) for a in range(1, 12)]
        again = [reconnect_backoff(7, a, 0.05, 2.0) for a in range(1, 12)]
        assert series == again  # replayable
        other = [reconnect_backoff(8, a, 0.05, 2.0) for a in range(1, 12)]
        assert series != other  # fleet does not thunder in lockstep
        for attempt, delay in enumerate(series, start=1):
            raw = min(0.05 * 2 ** (attempt - 1), 2.0)
            assert 0.5 * raw <= delay < raw
        assert max(series) < 2.0  # cap holds forever

    def test_dropped_connection_rejoins_then_bye_ends_service(self):
        """The reconnect loop end-to-end: the coordinator slams the first
        connection, the agent backs off and rejoins, BYE ends with 0."""
        import json as _json
        import threading as _threading

        from repro.runtime.remote import OP_BYE, serve_worker

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        port = listener.getsockname()[1]
        hellos = []

        def _coordinator():
            first, _ = listener.accept()
            op, payload = recv_frame(first)
            hellos.append((op, _json.loads(payload.decode("utf-8"))))
            first.close()  # drop without BYE -> agent must come back
            second, _ = listener.accept()
            op, payload = recv_frame(second)
            hellos.append((op, _json.loads(payload.decode("utf-8"))))
            send_frame(second, OP_BYE, b"{}")
            second.close()

        coord = _threading.Thread(target=_coordinator, daemon=True)
        coord.start()
        status = serve_worker(
            ("127.0.0.1", port),
            connect_timeout=10.0,
            in_worker=False,
            reconnect=True,
            backoff_base=0.01,
            backoff_cap=0.05,
            reconnect_seed=3,
        )
        coord.join(timeout=10.0)
        listener.close()
        assert status == 0
        assert [op for op, _ in hellos] == [OP_HELLO, OP_HELLO]
        assert hellos[0][1]["pid"] == hellos[1][1]["pid"]

    def test_gives_up_after_max_reconnects(self):
        from repro.runtime.remote import serve_worker

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        port = listener.getsockname()[1]
        drops = {"n": 0}
        stop = False

        def _coordinator():
            while not stop:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                recv_frame(conn)
                drops["n"] += 1
                conn.close()

        import threading as _threading

        coord = _threading.Thread(target=_coordinator, daemon=True)
        coord.start()
        status = serve_worker(
            ("127.0.0.1", port),
            connect_timeout=5.0,
            in_worker=False,
            reconnect=True,
            max_reconnects=2,
            backoff_base=0.01,
            backoff_cap=0.02,
            reconnect_seed=5,
        )
        stop = True
        listener.close()
        coord.join(timeout=5.0)
        assert status == 0
        assert drops["n"] == 3  # initial dial + two reconnects, then give up

    def test_non_reconnect_agent_still_exits_on_drop(self):
        from repro.runtime.remote import serve_worker

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        import threading as _threading

        def _coordinator():
            conn, _ = listener.accept()
            recv_frame(conn)
            conn.close()

        coord = _threading.Thread(target=_coordinator, daemon=True)
        coord.start()
        status = serve_worker(
            ("127.0.0.1", port), connect_timeout=5.0, in_worker=False)
        coord.join(timeout=5.0)
        listener.close()
        assert status == 0
