"""The remote executor: a worker fleet is a pure scheduling choice.

Extends the executor-equivalence contract of
``test_engine_executors.py`` across the network: ``executor="remote"``
against in-process :class:`FabricWorker` fleets must produce reports
byte-identical to serial execution, survive a worker dying mid-batch
by re-enqueueing its lost chunks on the survivors (the same
``worker-crash`` fault taxonomy and retry budget the process pool
uses), and fail with typed, actionable errors when the whole fleet is
unreachable.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import socket
import threading
import time

import pytest

from repro.appsim.corpus import build, seven_apps
from repro.core.analyzer import Analyzer, AnalyzerConfig
from repro.core.engine import ProbeEngine
from repro.core.faults import (
    FAULT_WORKER_CRASH,
    FaultPolicy,
    PoolRecoveredNotice,
    ProbeFaultError,
)
from repro.core.policy import stubbing
from repro.core.runner import BackendCapabilities
from repro.fabric.executor import (
    FabricConnectionError,
    FabricExecutor,
    parse_worker_address,
    parse_worker_list,
)
from repro.fabric.protocol import (
    KIND_ACK,
    KIND_CHUNK,
    KIND_HEARTBEAT,
    KIND_RESULT,
    FabricProtocolError,
    decode_chunk,
    encode_ack,
    encode_frame,
    encode_result,
    read_frame,
)
from repro.fabric.worker import FabricWorker, _ConnectionHandler


def _digest(result):
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def fleet():
    """Two live in-process workers, shared by the equivalence tests."""
    with FabricWorker() as one, FabricWorker() as two:
        yield (one.address, two.address)


def _analyze(app, workload, *, executor="serial", workers=()):
    with Analyzer(AnalyzerConfig(
        replicas=3,
        parallel=1 if executor == "serial" else 3,
        executor=executor,
        workers=workers,
    )) as analyzer:
        return analyzer.analyze(
            app.backend(), app.workload(workload),
            app=app.name, app_version=app.version,
        )


class TestRemoteEquivalence:
    def test_remote_reports_byte_identical_to_serial(self, fleet):
        for app in seven_apps()[:3]:
            serial = _analyze(app, "bench")
            remote = _analyze(
                app, "bench", executor="remote", workers=fleet
            )
            assert _digest(remote) == _digest(serial), app.name

    def test_remote_resolves_regardless_of_parallel(self, fleet):
        """Fleet width comes from the worker count, not --jobs: even
        parallel=1 ships chunks instead of degrading to serial."""
        with ProbeEngine(
            parallel=1, executor="remote", workers=fleet
        ) as engine:
            assert engine.executor_name == "remote"
            assert engine.mode_for(build("redis").backend()) == "remote"

    def test_unshardable_backend_falls_back_locally(self, fleet):
        backend = build("redis").backend()
        backend._poison = lambda: None  # defeats the pickle probe
        with ProbeEngine(
            parallel=3, executor="remote", workers=fleet
        ) as engine:
            assert engine.mode_for(backend) == "serial"
        with ProbeEngine(
            parallel=1, executor="remote", workers=fleet
        ) as engine:
            assert engine.mode_for(backend) == "serial"


# -- failure injection -------------------------------------------------------


class _DropAfterAckHandler(_ConnectionHandler):
    """Handshakes fine, then hangs up right after ACKing each chunk —
    the footprint of a worker SIGKILLed mid-execution (the scheduler
    saw the ACK, never the RESULT)."""

    def _chunk_loop(self, worker, reader, send) -> None:
        while True:
            frame = read_frame(reader)
            if frame is None:
                return
            kind, payload = frame
            if kind == KIND_HEARTBEAT:
                continue
            if kind != KIND_CHUNK:
                raise FabricProtocolError(f"unexpected kind {kind}")
            chunk_id, _job = decode_chunk(payload)
            send(encode_frame(KIND_ACK, encode_ack(chunk_id)))
            self.request.close()
            return


class _BurstHandler(_ConnectionHandler):
    """Answers each chunk with ``ACK``, an empty ``RESULT`` and a
    ``HEARTBEAT`` in one write, so all three reach the scheduler in one
    segment; a reader that buffers past the first frame strands the
    other two."""

    def _chunk_loop(self, worker, reader, send) -> None:
        while True:
            frame = read_frame(reader)
            if frame is None:
                return
            chunk_id, _job = decode_chunk(frame[1])
            send(
                encode_frame(KIND_ACK, encode_ack(chunk_id))
                + encode_frame(KIND_RESULT, encode_result(chunk_id, []))
                + encode_frame(KIND_HEARTBEAT, b"")
            )


class _MuteHandler(_ConnectionHandler):
    """Accepts chunks but never answers them. Combined with a huge
    ``heartbeat_s`` this is the footprint of a *wedged* (not crashed)
    worker; only the silence timeout can unmask it."""

    def _chunk_loop(self, worker, reader, send) -> None:
        while read_frame(reader) is not None:
            pass


def _flaky_worker(handler, **kwargs):
    worker = FabricWorker(**kwargs)
    # socketserver reads RequestHandlerClass at dispatch time, so the
    # swap applies to every connection this worker accepts.
    worker._server.RequestHandlerClass = handler
    return worker


_RECOVERY_POLICY = FaultPolicy(
    retries=1, retry_backoff_s=0.0, on_fault="degrade"
)


class TestLostChunkReenqueue:
    def test_dead_worker_chunks_requeue_on_survivor(self):
        app = build("redis")
        notices = []
        with _flaky_worker(_DropAfterAckHandler) as flaky, \
                FabricWorker() as steady:
            with ProbeEngine(
                parallel=3, executor="remote",
                workers=(flaky.address, steady.address),
                cache=False, fault_policy=_RECOVERY_POLICY,
                on_notice=notices.append,
            ) as engine:
                outcome = engine.run_replicas(
                    app.backend(), app.workload("health"),
                    stubbing("futex"), 3, early_exit=False,
                )
                stats = engine.stats
        recoveries = [
            n for n in notices if isinstance(n, PoolRecoveredNotice)
        ]
        assert recoveries and sum(n.lost_runs for n in recoveries) >= 1
        assert stats.faulted == 0  # recovered, not quarantined
        assert stats.runs_requested == (
            stats.runs_executed + stats.cache_hits
            + stats.replicas_skipped + stats.faulted
        )
        serial = ProbeEngine(cache=False).run_replicas(
            app.backend(), app.workload("health"),
            stubbing("futex"), 3, early_exit=False,
        )
        assert [r.to_dict() for r in outcome.results] == [
            r.to_dict() for r in serial.results
        ]

    def test_every_worker_dead_exhausts_the_budget(self):
        app = build("redis")
        with _flaky_worker(_DropAfterAckHandler) as flaky:
            with ProbeEngine(
                parallel=2, executor="remote", workers=(flaky.address,),
                cache=False,
                fault_policy=FaultPolicy(
                    retries=1, retry_backoff_s=0.0, on_fault="fail"
                ),
            ) as engine:
                with pytest.raises(
                    (ProbeFaultError, FabricConnectionError)
                ) as excinfo:
                    engine.run_replicas(
                        app.backend(), app.workload("health"),
                        stubbing("futex"), 2,
                    )
            if isinstance(excinfo.value, ProbeFaultError):
                assert excinfo.value.fault.kind == FAULT_WORKER_CRASH

    @staticmethod
    def _dropping_fleet(on_fault, replicas, notices=None):
        """Probe replicas on a fleet whose every worker dies holding
        its first chunk, with enough workers that each run can be
        lost on all of its attempts before the fleet runs dry."""
        app = build("redis")
        # Each run gets the first attempt plus retries + 1 re-enqueues.
        attempts = _RECOVERY_POLICY.retries + 2
        with contextlib.ExitStack() as stack:
            workers = [
                stack.enter_context(_flaky_worker(_DropAfterAckHandler))
                for _ in range(attempts * replicas)
            ]
            with ProbeEngine(
                parallel=2, executor="remote",
                workers=tuple(worker.address for worker in workers),
                cache=False,
                fault_policy=dataclasses.replace(
                    _RECOVERY_POLICY, on_fault=on_fault
                ),
                on_notice=None if notices is None else notices.append,
            ) as engine:
                outcome = engine.run_replicas(
                    app.backend(), app.workload("health"),
                    stubbing("futex"), replicas, early_exit=False,
                )
                return outcome, engine.stats

    def test_lost_on_every_attempt_degrades_to_worker_crash(self):
        notices = []
        outcome, stats = self._dropping_fleet("degrade", 2, notices)
        assert not outcome.results
        assert [fault.replica for fault in outcome.faults] == [0, 1]
        for fault in outcome.faults:
            assert fault.kind == FAULT_WORKER_CRASH
            assert fault.attempts == _RECOVERY_POLICY.retries + 2
            assert fault.detail == "remote worker died on every attempt"
        assert stats.faulted == 2
        assert stats.runs_requested == (
            stats.runs_executed + stats.cache_hits
            + stats.replicas_skipped + stats.faulted
        )
        # One notice per lost chunk: two runs, three losses each.
        recoveries = [
            n for n in notices if isinstance(n, PoolRecoveredNotice)
        ]
        assert [n.rebuilds for n in recoveries] == list(range(1, 7))

    def test_lost_on_every_attempt_fails_under_fail_policy(self):
        with pytest.raises(ProbeFaultError) as excinfo:
            self._dropping_fleet("fail", 1)
        assert excinfo.value.fault.kind == FAULT_WORKER_CRASH
        assert excinfo.value.fault.detail == (
            "remote worker died on every attempt"
        )

    def test_silent_worker_is_presumed_dead(self):
        app = build("redis")
        notices = []
        # The mute worker never beats (heartbeat_s is an hour); the
        # steady one beats well inside the 1s silence budget.
        with _flaky_worker(_MuteHandler, heartbeat_s=3600.0) as mute, \
                FabricWorker(heartbeat_s=0.2) as steady:
            with ProbeEngine(
                parallel=3, executor="remote",
                workers=(mute.address, steady.address),
                cache=False, fault_policy=_RECOVERY_POLICY,
                on_notice=notices.append,
            ) as engine:
                engine._fabric = FabricExecutor(
                    engine.workers, dead_after_s=1.0
                ).connect()
                outcome = engine.run_replicas(
                    app.backend(), app.workload("health"),
                    stubbing("futex"), 3, early_exit=False,
                )
        serial = ProbeEngine(cache=False).run_replicas(
            app.backend(), app.workload("health"),
            stubbing("futex"), 3, early_exit=False,
        )
        assert [r.to_dict() for r in outcome.results] == [
            r.to_dict() for r in serial.results
        ]
        assert any(
            isinstance(n, PoolRecoveredNotice) for n in notices
        )


class TestConnectionErrors:
    def test_no_reachable_workers_is_actionable(self):
        executor = FabricExecutor(["127.0.0.1:1"])
        with pytest.raises(FabricConnectionError) as excinfo:
            executor.connect()
        assert "loupe worker" in str(excinfo.value)

    def test_worker_without_process_safety_is_refused(self):
        caps = BackendCapabilities(
            deterministic=True, parallel_safe=True, process_safe=False
        )
        with FabricWorker(capabilities=caps) as worker:
            executor = FabricExecutor([worker.address])
            with pytest.raises(FabricConnectionError) as excinfo:
                executor.connect()
            assert "process_safe" in str(excinfo.value)

    def test_worker_addresses_parse_or_refuse(self):
        assert parse_worker_address("host:1234") == ("host", 1234)
        with pytest.raises(FabricConnectionError):
            parse_worker_address("no-port")
        with pytest.raises(FabricConnectionError):
            parse_worker_address("host:http")

    def test_worker_lists_parse_from_strings_and_iterables(self):
        assert parse_worker_list(" a:1, ,b:2,") == ("a:1", "b:2")
        assert parse_worker_list(["a:1 ", "", " b:2"]) == ("a:1", "b:2")
        assert parse_worker_list(None) == ()
        assert parse_worker_list("") == ()

    def test_empty_fleet_is_refused_up_front(self):
        with pytest.raises(FabricConnectionError):
            FabricExecutor([])
        with pytest.raises(ValueError):
            ProbeEngine(executor="remote")


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _settles(probe, baseline, timeout=5.0) -> bool:
    """Whether *probe()* comes back down to *baseline* within *timeout*:
    the worker side of a connection (in this process too) winds down on
    its own threads after the scheduler hangs up."""
    deadline = time.monotonic() + timeout
    while probe() > baseline:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestLinkLifecycle:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_close_is_prompt_and_leaks_nothing(self):
        app = build("redis")
        job = (
            app.backend(), app.workload("health"),
            [(0, 0, stubbing("futex"))], False, None,
        )
        # A 30s heartbeat: nothing arrives to wake a blocked reader
        # before close() returns.
        with FabricWorker(heartbeat_s=30.0) as worker:
            fds, threads = _open_fds(), threading.active_count()
            executor = FabricExecutor([worker.address]).connect()
            chunk_id = executor.submit(job)
            event, done_id, rows = executor.next_event()
            assert (event, done_id) == ("done", chunk_id)
            assert rows
            started = time.monotonic()
            executor.close()
            assert time.monotonic() - started < 1.0
            assert _settles(threading.active_count, threads)
            assert _settles(_open_fds, fds)

    def test_frames_sent_together_are_all_read(self):
        with _flaky_worker(_BurstHandler, heartbeat_s=3600.0) as worker:
            with FabricExecutor([worker.address], dead_after_s=5) as executor:
                chunk_id = executor.submit(None)
                started = time.monotonic()
                assert executor.next_event() == ("done", chunk_id, [])
                assert time.monotonic() - started < 1.0


class TestWireLatency:
    def test_both_ends_of_a_link_disable_nagle(self):
        seen = []

        class _Recording(_ConnectionHandler):
            def _chunk_loop(self, worker, reader, send) -> None:
                seen.append(self.request.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                ))
                super()._chunk_loop(worker, reader, send)

        with _flaky_worker(_Recording) as worker:
            with FabricExecutor([worker.address]) as executor:
                link_sock = executor._links[0].sock
                assert link_sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
                chunk_id = executor.submit(None)
                assert executor.next_event()[:2] == ("failed", chunk_id)
        assert seen and all(seen)

    def test_sequential_round_trips_never_wait_on_delayed_acks(self):
        # ACK then RESULT is a write-write-read: with Nagle on, every
        # round trip waits out a delayed TCP ACK (tens of ms each).
        app = build("redis")
        job = (
            app.backend(), app.workload("health"),
            [(0, 0, stubbing("futex"))], False, None,
        )
        with FabricWorker() as worker:
            with FabricExecutor([worker.address]) as executor:
                started = time.monotonic()
                for _ in range(200):
                    chunk_id = executor.submit(job)
                    assert executor.next_event()[:2] == ("done", chunk_id)
                elapsed = time.monotonic() - started
        assert elapsed < 4.0, f"200 round trips took {elapsed:.2f}s"
