"""The HTTP run-cache backend and its server-side cache surface.

Covers the wire store (:class:`RemoteRunCache` against a live
:class:`CampaignServer`) as a plain key-value store, TTL expiry on the
local store that the served store builds on, and the in-process
:class:`CacheService` primitives.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.cachestore import (
    CacheStoreError,
    RemoteRunCache,
    open_store,
)
from repro.core.cachestore.base import encode_record
from repro.core.cachestore.factory import parse_store_path, store_identity
from repro.core.cachestore.remote import (
    MAX_BODY_BYTES,
    decode_key_id,
    encode_key_id,
)
from repro.core.runner import RunResult
from repro.server import CampaignServer
from repro.server.cache import CacheService, FleetTracker
from repro.server.handlers import CampaignRequestHandler

KEY = ("sim:redis-1.0", "bench", "fingerprint", 0)


def _result(reads: int = 3) -> RunResult:
    return RunResult(success=True, traced=Counter({"read": reads}))


@pytest.fixture
def cache_server(tmp_path):
    with CampaignServer(
        tmp_path / "svc", workers=1,
        run_cache=str(tmp_path / "cache.sqlite"),
    ) as server:
        yield server


# -- key ids -----------------------------------------------------------------


class TestKeyIds:
    @settings(max_examples=50, deadline=None)
    @given(
        backend=st.text(max_size=40),
        workload=st.text(max_size=40),
        fingerprint=st.text(max_size=40),
        replica=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_round_trip(self, backend, workload, fingerprint, replica):
        key = (backend, workload, fingerprint, replica)
        token = encode_key_id(key)
        assert "/" not in token and "+" not in token and "=" not in token
        assert decode_key_id(token) == key

    def test_garbage_is_refused(self):
        for junk in ("%%%", "bm90LWpzb24", encode_key_id(KEY)[:-4] + "AAAA"):
            with pytest.raises(ValueError):
                decode_key_id(junk)


# -- the wire store ----------------------------------------------------------


class TestRemoteRoundTrip:
    def test_put_get_len_stats(self, cache_server):
        with RemoteRunCache(cache_server.url) as store:
            assert store.get(KEY) is None
            store.put(KEY, _result(), policy={"mode": "stub"})
            hit = store.get(KEY)
            assert hit is not None
            assert hit.to_dict() == _result().to_dict()
            assert len(store) == 1
            stats = store.stats()
            assert stats.kind == "sqlite"
            assert stats.entries == 1

    def test_get_many_is_a_plain_batched_read(self, cache_server):
        other = ("sim:redis-1.0", "bench", "fingerprint", 1)
        with RemoteRunCache(cache_server.url) as store:
            store.put(KEY, _result())
            found = store.get_many([KEY, other])
            assert set(found) == {KEY}
            assert found[KEY].to_dict() == _result().to_dict()
            assert store.get_many([]) == {}

    def test_ops_verbs_point_at_the_server_file(self, cache_server):
        with RemoteRunCache(cache_server.url) as store:
            for operation in (
                store.records, store.compact, store.gc, store.expired,
            ):
                with pytest.raises(CacheStoreError, match="loupe cache"):
                    operation()

    def test_lookup_reply_bytes_are_stable(self, cache_server):
        """The lookup route embeds each record as an object; its bytes
        are the canonical record JSON, pinned here on a fixed record."""
        result = RunResult(success=True, traced=Counter({"read": 3}),
                           metric=12.5)
        with RemoteRunCache(cache_server.url) as store:
            store.put(KEY, result, policy={"syscalls": {"read": "stub"}})
        request = urllib.request.Request(
            cache_server.url + "/cache/lookup", method="POST",
            data=json.dumps({"keys": [encode_key_id(KEY)]}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as reply:
            body = reply.read()
        assert body == (
            b'{"hits": {"WyJzaW06cmVkaXMtMS4wIiwgImJlbmNoIiwgImZpbmdlcnBya'
            b'W50IiwgMF0": {"backend": "sim:redis-1.0", "fingerprint": '
            b'"fingerprint", "replica": 0, "result": {"duration_s": 0.0, '
            b'"exit_code": 0, "failure_reason": null, "metric": 12.5, '
            b'"pseudo_files": {}, "resources": {"fd_peak": 0, '
            b'"mem_peak_kb": 0}, "success": true, "traced": {"read": 3}}, '
            b'"workload": "bench"}}}\n'
        )
        hit = json.loads(body)["hits"][encode_key_id(KEY)]
        assert json.dumps(hit, sort_keys=True) == encode_record(KEY, result)

    def test_open_store_dispatches_http(self, cache_server):
        with open_store(cache_server.url) as store:
            assert isinstance(store, RemoteRunCache)
            assert store.kind == "http"

    def test_server_without_cache_surface_is_actionable(self, tmp_path):
        with CampaignServer(tmp_path / "svc", workers=1) as server:
            with pytest.raises(CacheStoreError, match="--run-cache"):
                RemoteRunCache(server.url)

    def test_dead_server_is_actionable_at_open(self):
        with pytest.raises(CacheStoreError, match="is it running"):
            open_store("http://127.0.0.1:1")

    def test_local_knobs_are_refused_on_http(self, cache_server):
        for knobs in ({"max_entries": 5}, {"ttl_s": 60.0}):
            with pytest.raises(CacheStoreError, match="loupe serve"):
                open_store(cache_server.url, **knobs)

    def test_parse_and_identity(self):
        kind, _path = parse_store_path("http://localhost:80")
        assert kind == "http"
        assert store_identity("http://h:1/") == store_identity("http://h:1")
        assert store_identity("http://h:1") != store_identity("http://h:2")


class TestPlainKeyValue:
    def test_unwritten_miss_never_stalls_another_reader(self, cache_server):
        # A misses and never puts, as an early-exit-skipped replica
        # does; B's read of the same key is still an immediate miss.
        first = RemoteRunCache(cache_server.url)
        second = RemoteRunCache(cache_server.url)
        try:
            assert first.get(KEY) is None
            started = time.monotonic()
            assert second.get(KEY) is None
            assert time.monotonic() - started < 1.0
            # Both execute and both put: the second put upserts.
            second.put(KEY, _result())
            first.put(KEY, _result())
            assert len(first) == 1
            assert first.get(KEY).to_dict() == _result().to_dict()
        finally:
            first.close()
            second.close()
        with urllib.request.urlopen(f"{cache_server.url}/cache/stats") as reply:
            counters = json.load(reply)["counters"]
        assert counters == {"hits": 1, "misses": 2}


class TestBatchedPublish:
    """``POST /cache/publish``: batches of any size land whole, and a
    bad batch lands not at all."""

    def _post(self, server, document) -> "tuple[int, dict]":
        request = urllib.request.Request(
            f"{server.url}/cache/publish",
            data=json.dumps(document).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request) as reply:
                return reply.status, {}
        except urllib.error.HTTPError as error:
            with error:
                return error.code, json.loads(error.read())

    def test_publish_over_the_body_cap_lands_every_record(
        self, cache_server
    ):
        publishes = []

        class _Counting(CampaignRequestHandler):
            def _receive_cache_publish(self) -> None:
                publishes.append(int(self.headers["Content-Length"]))
                super()._receive_cache_publish()

        cache_server._httpd.RequestHandlerClass = _Counting
        # About 10 KB per record: 150 of them are well over 1 MiB.
        big = RunResult(
            success=True,
            traced=Counter({f"feature_{index:05d}": index
                            for index in range(400)}),
        )
        items = [
            (KEY[:3] + (replica,), big, {"mode": "stub"})
            for replica in range(150)
        ]
        with RemoteRunCache(cache_server.url) as store:
            store.put_many(items)
            assert len(store) == 150
            found = store.get_many([key for key, _result, _policy in items])
        assert len(found) == 150
        assert all(result == big for result in found.values())
        assert len(publishes) > 1
        assert sum(publishes) > MAX_BODY_BYTES
        assert max(publishes) <= MAX_BODY_BYTES

    def test_malformed_batch_persists_nothing(self, cache_server):
        good = {
            "key": encode_key_id(KEY),
            "record": json.loads(encode_record(KEY, _result())),
        }
        other = KEY[:3] + (1,)
        for bad in (
            {"key": encode_key_id(other), "record": good["record"]},
            {"key": encode_key_id(other), "record": {"backend": "b"}},
            {"key": "%%%", "record": good["record"]},
            {"record": good["record"]},
            "not-a-record",
        ):
            status, body = self._post(
                cache_server, {"records": [good, bad]}
            )
            assert status == 400, (bad, body)
            assert "cache record 1" in body["error"]
        for junk in ({}, {"records": "many"}, []):
            status, _body = self._post(cache_server, junk)
            assert status == 400
        with RemoteRunCache(cache_server.url) as store:
            assert len(store) == 0

    def test_client_surfaces_a_refused_publish(self, cache_server):
        with RemoteRunCache(cache_server.url) as store:
            with pytest.raises(CacheStoreError, match="said 400"):
                store.put_many([(KEY, _result(), "not-a-policy")])
            assert len(store) == 0


class TestConnectionReuse:
    """One keep-alive connection per concurrent caller, not one per
    request; ``close()`` releases every socket on both ends."""

    def test_sequential_calls_share_one_connection(self, cache_server):
        ports = []

        class _Recording(CampaignRequestHandler):
            def handle_one_request(self) -> None:
                ports.append(self.client_address[1])
                super().handle_one_request()

        cache_server._httpd.RequestHandlerClass = _Recording
        with RemoteRunCache(cache_server.url) as store:
            for replica in range(25):
                key = KEY[:3] + (replica,)
                assert store.get(key) is None
                store.put(key, _result(replica))
        assert len(ports) >= 51
        assert len(set(ports)) == 1

    def test_concurrent_callers_never_see_each_others_replies(
        self, cache_server
    ):
        errors = []
        with RemoteRunCache(cache_server.url) as store:

            def caller(name: str, base: int) -> None:
                try:
                    for index in range(40):
                        key = (name, "bench", "fingerprint", index)
                        store.put(key, _result(base + index))
                        hit = store.get(key)
                        assert hit is not None
                        assert hit.to_dict() == _result(base + index).to_dict()
                        assert set(store.get_many([key])) == {key}
                except Exception as error:  # surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=caller, args=(name, base))
                for name, base in (("one", 100), ("two", 200))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        assert errors == []

    def test_dropped_idle_connection_reconnects(self, cache_server):
        ports = []

        class _HangUpAfterEachReply(CampaignRequestHandler):
            # Ends the connection after every reply without saying so,
            # like a server reaping idle keep-alive connections.
            def handle_one_request(self) -> None:
                ports.append(self.client_address[1])
                super().handle_one_request()
                self.close_connection = True

        cache_server._httpd.RequestHandlerClass = _HangUpAfterEachReply
        with RemoteRunCache(cache_server.url) as store:
            assert store.get(KEY) is None
            store.put(KEY, _result())
            assert store.get(KEY).to_dict() == _result().to_dict()
            assert len(store) == 1
        assert len(ports) == 5  # the ping and four calls, each reconnected

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_close_releases_every_socket_and_handler_thread(
        self, cache_server
    ):
        threads = threading.active_count()
        # The served store opens its files on first use; do that first.
        with RemoteRunCache(cache_server.url) as warmup:
            warmup.put(KEY, _result())
        assert _settles(threading.active_count, threads)
        fds = len(os.listdir("/proc/self/fd"))

        entered = threading.Event()
        release = threading.Event()

        class _HeldGet(CampaignRequestHandler):
            def _send_cache_lookup(self) -> None:
                entered.set()
                release.wait(10.0)
                super()._send_cache_lookup()

        cache_server._httpd.RequestHandlerClass = _HeldGet
        store = RemoteRunCache(cache_server.url)
        answers = []
        parked = threading.Thread(target=lambda: answers.append(
            store.get(KEY)
        ))
        parked.start()
        # The reply is held until released; close the store meanwhile,
        # with its connection still in use.
        assert entered.wait(5.0)
        assert store._idle == []
        store.close()
        release.set()
        parked.join(timeout=30.0)
        assert answers[0].to_dict() == _result().to_dict()
        assert store._idle == []  # closed on return, not pooled
        store.close()  # idempotent

        assert _settles(threading.active_count, threads)
        assert _settles(lambda: len(os.listdir("/proc/self/fd")), fds)

        # Closed is not dead: the next operation reconnects.
        assert store.get(KEY).to_dict() == _result().to_dict()
        store.close()
        assert _settles(threading.active_count, threads)

    def test_torn_get_reply_is_not_retried(self, cache_server):
        gets = []

        class _TornReply(CampaignRequestHandler):
            def _send_cache_lookup(self) -> None:
                gets.append(self._read_body())
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", "64")
                self.end_headers()
                self.wfile.write(b'{"hi')
                self.close_connection = True

        cache_server._httpd.RequestHandlerClass = _TornReply
        with RemoteRunCache(cache_server.url) as store:
            # The ping left a pooled connection: the get goes out on a
            # reused one, where a retry would be most tempting.
            with pytest.raises(CacheStoreError, match="cache server"):
                store.get(KEY)
        assert len(gets) == 1


def _settles(probe, target, timeout=5.0) -> bool:
    """Whether *probe()* comes down to *target* within *timeout*: the
    server side of a connection winds down on its own thread after the
    client hangs up."""
    deadline = time.monotonic() + timeout
    while probe() > target:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


# -- TTL on the local store --------------------------------------------------


@pytest.mark.parametrize("suffix", ["runs.sqlite"])
class TestTTLExpiry:
    def test_expiry_gc_and_revive(self, tmp_path, suffix):
        path = tmp_path / suffix
        with open_store(path, ttl_s=0.05) as store:
            store.put(KEY, _result())
            assert store.get(KEY) is not None
            time.sleep(0.1)
            # Reads treat the stale record as a miss immediately…
            assert store.get(KEY) is None
            assert store.expired() == 1
            stats = store.stats()
            assert stats.ttl_s == 0.05
            assert stats.expired == 1
            # …and a gc sweep reclaims it.
            assert store.gc() == 1
            assert len(store) == 0
            # A fresh put after expiry revives the key.
            store.put(KEY, _result())
            assert store.get(KEY) is not None

    def test_ad_hoc_ttl_on_untimed_store(self, tmp_path, suffix):
        path = tmp_path / suffix
        with open_store(path) as store:
            store.put(KEY, _result())
            time.sleep(0.05)
            # No configured TTL: the record never expires on read…
            assert store.get(KEY) is not None
            assert store.stats().expired == 0
            # …but ops may ask with an explicit horizon.
            assert store.expired(0.01) == 1
            assert store.expired(3600.0) == 0
            assert store.gc(ttl_s=0.01) == 1
            assert len(store) == 0


class TestTTLCli:
    def _warm(self, path):
        with open_store(path) as store:
            store.put(KEY, _result())

    def test_stats_ttl_reports_expired(self, tmp_path, capsys):
        path = str(tmp_path / "runs.sqlite")
        self._warm(path)
        time.sleep(0.05)
        assert main(["cache", "stats", path, "--ttl", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "expired: 1" in out

    def test_gc_ttl_sweeps_both_backends(self, tmp_path, capsys):
        # Both spellings of a local store: a SQLite name, and none.
        for suffix in ("runs.sqlite", "runs"):
            path = str(tmp_path / suffix)
            self._warm(path)
            time.sleep(0.05)
            assert main(["cache", "gc", path, "--ttl", "0.01"]) == 0
            assert "evicted 1" in capsys.readouterr().out
            with open_store(path) as store:
                assert len(store) == 0

    def test_gc_needs_a_bound(self, tmp_path, capsys):
        path = str(tmp_path / "runs.sqlite")
        self._warm(path)
        capsys.readouterr()
        assert main(["cache", "gc", path]) == 2
        assert "--ttl" in capsys.readouterr().err


# -- in-process primitives ---------------------------------------------------


class TestCacheServiceUnit:
    def test_fetch_publish_and_counters(self, tmp_path):
        service = CacheService(open_store(tmp_path / "runs.sqlite"))
        try:
            assert service.lookup([KEY]) == {}
            service.publish_many([(KEY, _result(), None)])
            found = service.lookup([KEY])
            assert found[KEY].to_dict() == _result().to_dict()
            assert service.counters() == {"hits": 1, "misses": 1}
        finally:
            service.close()

    def test_lookup_is_a_batched_read(self, tmp_path):
        service = CacheService(open_store(tmp_path / "runs.sqlite"))
        try:
            service.publish_many([(KEY, _result(), None)])
            found = service.lookup([KEY, ("b", "w", "f", 9)])
            assert set(found) == {KEY}
            assert service.counters() == {"hits": 1, "misses": 1}
        finally:
            service.close()


class TestFleetTracker:
    def test_heartbeats_feed_gauges_and_age_out(self):
        tracker = FleetTracker()
        assert tracker.gauges() == {"workers": 0, "chunks_in_flight": 0}
        ack = tracker.heartbeat({
            "worker_id": "w-1", "chunks_in_flight": 2, "ttl_s": 0.05,
        })
        assert ack == {"ok": True, "worker_id": "w-1"}
        tracker.heartbeat({
            "worker_id": "w-2", "chunks_in_flight": 1, "ttl_s": 30.0,
        })
        assert tracker.gauges() == {"workers": 2, "chunks_in_flight": 3}
        time.sleep(0.1)
        # w-1's TTL lapsed: it vanishes without any deregistration.
        assert tracker.gauges() == {"workers": 1, "chunks_in_flight": 1}

    def test_malformed_heartbeats_are_refused(self):
        tracker = FleetTracker()
        for document in (
            None, [], {}, {"worker_id": ""},
            {"worker_id": "w", "ttl_s": 0},
            {"worker_id": "w", "ttl_s": "soon"},
            {"worker_id": "w", "chunks_in_flight": "many"},
        ):
            with pytest.raises(ValueError):
                tracker.heartbeat(document)
