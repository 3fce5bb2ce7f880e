"""Tests for the campaign server: job store, state machine, worker
pool, HTTP surface, CLI clients, and cooperative cancellation."""

import dataclasses
import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.api.events import SCHEMA_VERSION, envelope
from repro.api.registry import (
    register_backend,
    resolve_backend,
    unregister_backend,
)
from repro.api.session import LoupeSession
from repro.cli import main
from repro.core.analyzer import AnalyzerConfig
from repro.core.cachestore import open_store
from repro.errors import AnalysisCancelledError, LoupeError
from repro.server import (
    CANCELLED,
    DONE,
    FAILED,
    LEGAL_TRANSITIONS,
    QUARANTINED,
    QUEUED,
    RUNNING,
    STATES,
    TERMINAL_STATES,
    CampaignServer,
    JobSpec,
    JobSpecError,
    JobStateError,
    JobStore,
    ServiceClient,
    ServiceError,
    UnknownJobError,
    encode_report,
)
from repro.server.handlers import CampaignRequestHandler

DEADLINE_S = 30.0


def _wait_until(predicate, *, timeout=DEADLINE_S, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not reached within deadline")


class _SlowBackend:
    """Delegating wrapper that sleeps before every run — makes a
    campaign slow enough to be observably ``running``."""

    def __init__(self, inner, delay_s):
        self.inner = inner
        self.delay_s = delay_s
        self.name = getattr(inner, "name", "slow")
        self.deterministic = getattr(inner, "deterministic", False)

    def capabilities(self):
        from repro.core.runner import capabilities_of

        return capabilities_of(self.inner)

    def run(self, workload, policy, *, replica=0):
        time.sleep(self.delay_s)
        return self.inner.run(workload, policy, replica=replica)


@pytest.fixture
def slow_backend_name():
    def factory(request):
        target = resolve_backend("appsim")(request)
        return dataclasses.replace(
            target, backend=_SlowBackend(target.backend, 0.05)
        )

    register_backend("slowsim", factory, replace=True)
    yield "slowsim"
    unregister_backend("slowsim")


@pytest.fixture
def server(tmp_path):
    with CampaignServer(tmp_path / "svc", workers=1) as running:
        yield running


@pytest.fixture
def client(server):
    return ServiceClient(server.url)


QUICK_SPEC = {"app": "weborf", "workload": "health", "replicas": 1}
SLOW_SPEC = {**QUICK_SPEC, "backend": "slowsim"}


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec.from_dict({"app": "redis", "replicas": 2})
        assert spec.app == "redis"
        assert spec.replicas == 2
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(JobSpecError, match="replcias"):
            JobSpec.from_dict({"replcias": 2})

    def test_non_object_rejected(self):
        with pytest.raises(JobSpecError, match="JSON object"):
            JobSpec.from_dict(["not", "a", "spec"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(JobSpecError, match="workload"):
            JobSpec.from_dict({"workload": "nope"})

    def test_invalid_analyzer_knob_rejected(self):
        with pytest.raises(JobSpecError):
            JobSpec.from_dict({"on_fault": "explode"})

    def test_workers_accept_a_comma_string_or_a_list(self):
        for workers in ("a:1, b:2", ["a:1", "b:2"]):
            spec = JobSpec.from_dict({"workers": workers})
            assert spec.workers == ("a:1", "b:2")
        with pytest.raises(JobSpecError, match="host:port"):
            JobSpec.from_dict({"workers": ["a:1", 2]})

    def test_maps_to_analyzer_config(self):
        spec = JobSpec.from_dict({
            "replicas": 2, "jobs": 3, "on_fault": "degrade",
            "retries": 1, "probe_timeout": 4.0,
        })
        config = spec.analyzer_config()
        assert config.replicas == 2
        assert config.parallel == 3
        assert config.on_fault == "degrade"
        assert config.retries == 1
        assert config.probe_timeout_s == 4.0


class TestStateMachine:
    def _job_in_state(self, store, state):
        meta = store.new_job(JobSpec())
        if state == QUEUED:
            return meta.id
        if state == CANCELLED:
            store.transition(meta.id, CANCELLED)
            return meta.id
        store.transition(meta.id, RUNNING)
        if state != RUNNING:
            store.transition(meta.id, state)
        return meta.id

    @pytest.mark.parametrize("source", STATES)
    @pytest.mark.parametrize("wanted", STATES)
    def test_every_transition(self, tmp_path, source, wanted):
        store = JobStore(tmp_path)
        job_id = self._job_in_state(store, source)
        assert store.meta(job_id).status == source
        if (source, wanted) in LEGAL_TRANSITIONS:
            assert store.transition(job_id, wanted).status == wanted
        else:
            with pytest.raises(JobStateError):
                store.transition(job_id, wanted)
            assert store.meta(job_id).status == source

    def test_terminal_states_closed(self):
        for state in TERMINAL_STATES:
            assert not any(src == state for src, _ in LEGAL_TRANSITIONS)

    def test_unknown_job(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(UnknownJobError):
            store.meta("job-999999")
        with pytest.raises(UnknownJobError):
            store.transition("job-999999", RUNNING)

    def test_timestamps_and_reason(self, tmp_path):
        store = JobStore(tmp_path)
        meta = store.new_job(JobSpec())
        assert meta.created_at > 0 and meta.started_at is None
        running = store.transition(meta.id, RUNNING)
        assert running.started_at is not None
        failed = store.transition(meta.id, FAILED, reason="boom")
        assert failed.finished_at is not None
        assert failed.reason == "boom"

    def test_ids_monotonic_across_reopen(self, tmp_path):
        first = JobStore(tmp_path).new_job(JobSpec())
        second = JobStore(tmp_path).new_job(JobSpec())
        assert second.id > first.id


class TestRecovery:
    def test_running_jobs_resume_after_server_restart(self, tmp_path):
        store = JobStore(tmp_path)
        orphan = store.new_job(JobSpec())
        store.transition(orphan.id, RUNNING)
        queued_a = store.new_job(JobSpec())
        queued_b = store.new_job(JobSpec())
        finished = store.new_job(JobSpec())
        store.transition(finished.id, RUNNING)
        store.transition(finished.id, DONE)

        reopened = JobStore(tmp_path)
        resumed, quarantined, requeue = reopened.recover()
        assert [m.id for m in resumed] == [orphan.id]
        assert resumed[0].status == QUEUED
        assert resumed[0].attempt == 2
        assert resumed[0].history[-1]["outcome"] == "server-restart"
        assert quarantined == []
        assert [m.id for m in requeue] == [queued_a.id, queued_b.id]
        assert reopened.meta(finished.id).status == DONE

    def test_recovery_quarantines_exhausted_attempts(self, tmp_path):
        store = JobStore(tmp_path)
        orphan = store.new_job(JobSpec())
        store.transition(orphan.id, RUNNING)

        resumed, quarantined, _ = JobStore(tmp_path).recover(max_attempts=1)
        assert resumed == []
        assert [m.id for m in quarantined] == [orphan.id]
        assert quarantined[0].status == QUARANTINED
        assert "attempt budget exhausted" in quarantined[0].reason
        assert quarantined[0].history[-1]["outcome"] == "server-restart"

    def test_server_restart_drains_survivors(self, tmp_path):
        data_dir = tmp_path / "svc"
        store = JobStore(data_dir)
        orphan = store.new_job(JobSpec(**QUICK_SPEC))
        store.transition(orphan.id, RUNNING)
        survivor = store.new_job(JobSpec(**QUICK_SPEC))

        with CampaignServer(data_dir, workers=1) as server:
            client = ServiceClient(server.url)
            final = _wait_until(lambda: (
                client.job(survivor.id)["status"] in TERMINAL_STATES
                and client.job(survivor.id)
            ))
            assert final["status"] == DONE
            # The orphaned running job is not failed any more — it
            # resumes: requeued with attempt 2 and run to completion.
            orphan_final = _wait_until(lambda: (
                client.job(orphan.id)["status"] in TERMINAL_STATES
                and client.job(orphan.id)
            ))
            assert orphan_final["status"] == DONE
            assert orphan_final["attempt"] == 2


class TestHTTPSurface:
    def test_health_and_stats_shape(self, server, client):
        health = client.health()
        assert health["ok"] is True
        assert health["url"] == server.url
        stats = client.stats()
        assert set(stats) == {
            "queue_depth", "workers", "busy_workers", "jobs",
            "queue", "attempts", "run_cache", "cache", "fleet",
        }
        assert stats["jobs"]["total"] == 0
        assert all(stats["jobs"][state] == 0 for state in STATES)
        assert stats["queue"]["draining"] is False
        assert stats["attempts"]["retries"] == 0

    def test_accepted_sockets_disable_nagle(self, server, client):
        # Headers and body are two writes; on a keep-alive connection
        # Nagle would hold the body for the client's delayed ACK.
        seen = []

        class _Recording(CampaignRequestHandler):
            def handle(self) -> None:
                seen.append(self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                ))
                super().handle()

        server._httpd.RequestHandlerClass = _Recording
        assert client.health()["ok"] is True
        assert seen and all(seen)

    def test_submit_runs_to_done(self, client):
        meta = client.submit(QUICK_SPEC)
        assert meta["status"] == QUEUED
        final = _wait_until(lambda: (
            client.job(meta["id"])["status"] in TERMINAL_STATES
            and client.job(meta["id"])
        ))
        assert final["status"] == DONE
        assert final["engine_stats"]["runs_requested"] > 0
        report = client.report(meta["id"])
        assert report["app"] == "weborf"
        assert client.stats()["jobs"][DONE] == 1

    def test_submit_unknown_backend_rejected(self, client):
        with pytest.raises(ServiceError) as caught:
            client.submit({**QUICK_SPEC, "backend": "warpdrive"})
        assert caught.value.status == 400
        assert "warpdrive" in caught.value.message

    def test_submit_malformed_spec_rejected(self, client):
        with pytest.raises(ServiceError) as caught:
            client.submit({"replcias": 2})
        assert caught.value.status == 400

    def test_unknown_job_is_404(self, client):
        for call in (
            lambda: client.job("job-999999"),
            lambda: client.cancel("job-999999"),
            lambda: client.report("job-999999"),
            lambda: client.events("job-999999"),
        ):
            with pytest.raises(ServiceError) as caught:
                call()
            assert caught.value.status == 404

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as caught:
            client._json("GET", "/nope")
        assert caught.value.status == 404

    def test_report_before_done_is_404(self, client, slow_backend_name):
        meta = client.submit(SLOW_SPEC)
        with pytest.raises(ServiceError) as caught:
            client.report(meta["id"])
        assert caught.value.status == 404
        client.cancel(meta["id"])

    def test_jobs_listing(self, client):
        first = client.submit(QUICK_SPEC)
        second = client.submit(QUICK_SPEC)
        listed = client.jobs()
        assert [meta["id"] for meta in listed] == [first["id"], second["id"]]


class TestEventStreaming:
    def test_events_paginate_with_since(self, client):
        meta = client.submit(QUICK_SPEC)
        _wait_until(
            lambda: client.job(meta["id"])["status"] in TERMINAL_STATES
        )
        lines, next_since, status = client.events(meta["id"])
        assert status == DONE
        assert next_since == len(lines) > 0
        tail_lines, tail_next, _ = client.events(
            meta["id"], since=next_since - 1
        )
        assert tail_lines == lines[-1:]
        assert tail_next == next_since
        empty, unchanged, _ = client.events(meta["id"], since=next_since)
        assert empty == [] and unchanged == next_since

    def test_long_poll_waits_for_lines(self, client, slow_backend_name):
        meta = client.submit(SLOW_SPEC)
        lines, next_since, _status = client.events(
            meta["id"], since=0, timeout=10.0
        )
        assert lines and next_since == len(lines)
        client.cancel(meta["id"])

    def test_every_line_carries_schema_version(self, client):
        meta = client.submit(QUICK_SPEC)
        _wait_until(
            lambda: client.job(meta["id"])["status"] in TERMINAL_STATES
        )
        lines, _, _ = client.events(meta["id"])
        for line in lines:
            document = json.loads(line)
            assert document["schema_version"] == SCHEMA_VERSION
            assert "event" in document

    def test_replay_is_byte_identical_to_the_job_log(self, server, client):
        meta = client.submit(QUICK_SPEC)
        _wait_until(
            lambda: client.job(meta["id"])["status"] in TERMINAL_STATES
        )
        lines, _, _ = client.events(meta["id"])
        on_disk = server.store.events_path(meta["id"]).read_text()
        assert "".join(lines) == on_disk


def _normalize_durations(line):
    document = json.loads(line)
    for key in list(document):
        if key.endswith("duration_s"):
            document[key] = 0.0
    if document.get("event") == "store_stats":
        # The run-cache store's identity fields are inherently
        # run-dependent: the server's job checkpoints under
        # jobs/<id>/runcache.sqlite, the direct run under its own
        # path, and file sizes track sqlite page allocation.
        document["path"] = ""
        document["file_bytes"] = 0
    return document


class TestByteIdentityWithDirectRun:
    def test_report_and_events_match_direct_session(self, client, tmp_path):
        meta = client.submit(QUICK_SPEC)
        _wait_until(
            lambda: client.job(meta["id"])["status"] in TERMINAL_STATES
        )
        assert client.job(meta["id"])["status"] == DONE
        server_report = client.report_bytes(meta["id"])
        server_lines, _, _ = client.events(meta["id"])

        # The server gives every job a private checkpoint store, which
        # adds one store_stats event to the stream — so the direct
        # comparison run gets a store of its own, and the store's
        # identity fields are normalized below.
        spec = JobSpec.from_dict(QUICK_SPEC)
        config = dataclasses.replace(
            spec.analyzer_config(),
            run_cache=str(tmp_path / "direct.sqlite"),
        )
        direct_lines = []
        with LoupeSession(config=config) as session:
            outcome = session.analyze(
                spec.request(),
                on_event=lambda event: direct_lines.append(
                    json.dumps(event.to_dict()) + "\n"
                ),
            )
        assert server_report == encode_report(outcome).encode()

        stripped = []
        for line in server_lines:
            document = json.loads(line)
            assert document.pop("schema_version") == SCHEMA_VERSION
            stripped.append(json.dumps(document) + "\n")
        # Stripping the envelope restores the exact --events jsonl
        # byte layout; wall-clock durations and store identity are the
        # legitimately run-dependent fields.
        assert [
            _normalize_durations(line) for line in stripped
        ] == [
            _normalize_durations(line) for line in direct_lines
        ]
        identical = [
            pair for pair in zip(stripped, direct_lines)
            if "duration_s" not in pair[0]
            and '"store_stats"' not in pair[0]
        ]
        assert all(ours == theirs for ours, theirs in identical)


class TestCancellation:
    def test_cancel_queued_job(self, client, slow_backend_name):
        blocker = client.submit(SLOW_SPEC)
        _wait_until(lambda: client.job(blocker["id"])["status"] == RUNNING)
        queued = client.submit(QUICK_SPEC)
        cancelled = client.cancel(queued["id"])
        assert cancelled["status"] == CANCELLED
        assert cancelled["reason"] == "cancelled while queued"
        # The dead job must not run once the worker frees up.
        client.cancel(blocker["id"])
        _wait_until(
            lambda: client.job(blocker["id"])["status"] in TERMINAL_STATES
        )
        time.sleep(0.2)
        assert client.job(queued["id"])["status"] == CANCELLED
        assert not client.events(queued["id"])[0]

    def test_cancel_running_job_keeps_stats(self, client, slow_backend_name):
        meta = client.submit(SLOW_SPEC)
        _wait_until(lambda: client.job(meta["id"])["status"] == RUNNING)
        client.cancel(meta["id"])
        final = _wait_until(lambda: (
            client.job(meta["id"])["status"] in TERMINAL_STATES
            and client.job(meta["id"])
        ))
        assert final["status"] == CANCELLED
        assert final["reason"] == "cancelled while running"
        lines, _, _ = client.events(meta["id"])
        kinds = [json.loads(line)["event"] for line in lines]
        assert kinds[-1] == "analysis_cancelled"
        assert "engine_stats" in kinds

    def test_cancel_is_idempotent(self, client, slow_backend_name):
        blocker = client.submit(SLOW_SPEC)
        queued = client.submit(QUICK_SPEC)
        assert client.cancel(queued["id"])["status"] == CANCELLED
        assert client.cancel(queued["id"])["status"] == CANCELLED
        client.cancel(blocker["id"])

    def test_cancel_terminal_job_is_409(self, client):
        meta = client.submit(QUICK_SPEC)
        _wait_until(lambda: client.job(meta["id"])["status"] == DONE)
        with pytest.raises(ServiceError) as caught:
            client.cancel(meta["id"])
        assert caught.value.status == 409

    def test_concurrent_submit_and_cancel_races(self, tmp_path):
        with CampaignServer(tmp_path / "race", workers=2) as server:
            client = ServiceClient(server.url)
            ids = [client.submit(QUICK_SPEC)["id"] for _ in range(6)]
            errors = []

            def cancel_all():
                for job_id in ids:
                    try:
                        client.cancel(job_id)
                    except ServiceError as error:
                        # Losing the race to a finished job is the one
                        # legitimate refusal.
                        if error.status != 409:
                            errors.append(error)

            threads = [
                threading.Thread(target=cancel_all) for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            for job_id in ids:
                final = _wait_until(lambda j=job_id: (
                    client.job(j)["status"] in TERMINAL_STATES
                    and client.job(j)
                ))
                assert final["status"] in (DONE, CANCELLED)


class TestSessionCancellation:
    def test_immediate_cancel(self):
        events = []
        with LoupeSession() as session:
            with pytest.raises(AnalysisCancelledError) as caught:
                session.analyze(
                    "weborf", workload="health",
                    on_event=events.append,
                    cancel_check=lambda: True,
                )
        kinds = [event.kind for event in events]
        assert kinds[0] == "analysis_started"
        assert kinds[-1] == "analysis_cancelled"
        assert caught.value.stats is not None

    def test_cancel_reason_string_propagates(self):
        events = []
        with LoupeSession() as session:
            with pytest.raises(AnalysisCancelledError):
                session.analyze(
                    "weborf", workload="health",
                    on_event=events.append,
                    cancel_check=lambda: "signal",
                )
        assert events[-1].reason == "signal"

    def test_cancel_after_some_waves_has_partial_stats(self):
        calls = {"n": 0}

        def check():
            calls["n"] += 1
            return calls["n"] > 3

        with LoupeSession() as session:
            with pytest.raises(AnalysisCancelledError) as caught:
                session.analyze(
                    "weborf", workload="health", cancel_check=check
                )
        assert caught.value.stats.runs_requested > 0

    def test_cancel_check_does_not_change_config_identity(self):
        plain = AnalyzerConfig()
        hooked = AnalyzerConfig(cancel_check=lambda: False)
        assert plain == hooked
        assert hash(plain) == hash(hooked)

    def test_uncancelled_run_completes(self):
        with LoupeSession() as session:
            result = session.analyze(
                "weborf", workload="health", cancel_check=lambda: False
            )
        assert result.app == "weborf"


class TestSigintHelper:
    def test_first_interrupt_cancels_second_raises(self, capsys):
        from repro.cli import _sigint_cancel

        cancel_check, restore = _sigint_cancel()
        try:
            assert cancel_check() is False
            os.kill(os.getpid(), signal.SIGINT)
            _wait_until(lambda: cancel_check() == "signal", timeout=5.0)
            assert "finishing the wave in flight" in capsys.readouterr().err
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGINT)
                for _ in range(1000):
                    time.sleep(0.001)
        finally:
            restore()

    def test_off_main_thread_degrades(self):
        from repro.cli import _sigint_cancel

        outcome = {}

        def probe():
            cancel_check, restore = _sigint_cancel()
            outcome["check"] = cancel_check()
            restore()

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        assert outcome["check"] is False


class TestServerRunCache:
    def test_service_default_store_is_inherited_and_reported(self, tmp_path):
        cache_path = tmp_path / "runs.sqlite"
        with CampaignServer(
            tmp_path / "svc", workers=1, run_cache=str(cache_path)
        ) as server:
            client = ServiceClient(server.url)
            meta = client.submit(QUICK_SPEC)
            _wait_until(
                lambda: client.job(meta["id"])["status"] in TERMINAL_STATES
            )
            spec_doc = json.loads(
                server.store.spec_path(meta["id"]).read_text()
            )
            assert spec_doc["run_cache"] == str(cache_path)
            stats = client.stats()
            # The served handle reads through live: the job's commits
            # show without a reopen, while loaded_records stays the
            # count the server started with.
            assert stats["run_cache"]["entries"] > 0
            assert stats["run_cache"]["loaded_records"] == 0
            assert stats["run_cache"]["kind"] == "sqlite"

        # GET /stats embeds exactly the `loupe cache stats --json` shape.
        exit_code = main(["cache", "stats", str(cache_path), "--json"])
        assert exit_code == 0

    def test_explicit_spec_store_wins(self, tmp_path):
        service_cache = tmp_path / "service.sqlite"
        job_cache = tmp_path / "job.sqlite"
        with CampaignServer(
            tmp_path / "svc", workers=1, run_cache=str(service_cache)
        ) as server:
            client = ServiceClient(server.url)
            meta = client.submit(
                {**QUICK_SPEC, "run_cache": str(job_cache)}
            )
            _wait_until(
                lambda: client.job(meta["id"])["status"] in TERMINAL_STATES
            )
        with open_store(job_cache) as job, \
                open_store(service_cache) as service:
            assert len(job) > 0
            assert len(service) == 0


class TestCLIClients:
    def test_submit_jobs_tail_cancel_flow(self, server, capsys):
        url = ["--url", server.url]
        assert main(["submit", *url, "--app", "weborf",
                     "--workload", "health", "--replicas", "1"]) == 0
        job_id = capsys.readouterr().out.split()[0]
        assert job_id.startswith("job-")

        exit_code = main(["tail", *url, job_id])
        captured = capsys.readouterr()
        assert exit_code == 0
        lines = captured.out.splitlines()
        assert lines
        assert json.loads(lines[0])["schema_version"] == SCHEMA_VERSION
        assert f"{job_id} done" in captured.err

        assert main(["jobs", *url]) == 0
        assert job_id in capsys.readouterr().out

        assert main(["jobs", *url, "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert listed[0]["id"] == job_id

    def test_tail_of_cancelled_job_exits_3(
        self, server, capsys, slow_backend_name
    ):
        url = ["--url", server.url]
        client = ServiceClient(server.url)
        blocker = client.submit(SLOW_SPEC)
        queued = client.submit(QUICK_SPEC)
        assert main(["cancel", *url, queued["id"]]) == 0
        assert f"{queued['id']} cancelled" in capsys.readouterr().out
        assert main(["tail", *url, queued["id"]]) == 3
        client.cancel(blocker["id"])

    def test_submit_tail_streams_to_terminal(self, server, capsys):
        exit_code = main([
            "submit", "--url", server.url, "--app", "weborf",
            "--workload", "health", "--replicas", "1", "--tail",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "analysis_finished" in captured.out

    def test_cancel_terminal_job_is_an_error(self, server, capsys):
        client = ServiceClient(server.url)
        meta = client.submit(QUICK_SPEC)
        _wait_until(
            lambda: client.job(meta["id"])["status"] in TERMINAL_STATES
        )
        assert main(["cancel", "--url", server.url, meta["id"]]) == 2
        assert "409" in capsys.readouterr().err

    def test_discovery_file_resolves_the_server(self, server, capsys):
        data_dir = str(server.data_dir)
        assert main(["jobs", "--data-dir", data_dir]) == 0
        assert "no jobs" in capsys.readouterr().out

    def test_missing_discovery_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["jobs", "--data-dir", str(tmp_path)]) == 2
        assert "no running server" in capsys.readouterr().err


class TestDiscoveryFile:
    def test_written_on_start_removed_on_close(self, tmp_path):
        server = CampaignServer(tmp_path / "svc")
        server.start()
        document = json.loads(server.discovery_path.read_text())
        assert document["url"] == server.url
        assert document["pid"] == os.getpid()
        server.close()
        assert not server.discovery_path.exists()

    def test_discover_url_errors_without_file(self, tmp_path):
        from repro.server import discover_url

        with pytest.raises(LoupeError, match="no running server"):
            discover_url(tmp_path)
