"""Tests for the run-cache storage subsystem (`repro.core.cachestore`).

Covers the `open_store` factory (scheme/extension dispatch, and the
refusal of JSONL paths with the migrate hint), the SQLite backend
(upsert puts, LRU eviction, live cross-process read-through, crash
tolerance mid-transaction), `migrate_store` (JSONL import and export
keeping every key, result and policy, so warm campaigns stay warm),
the session's store-identity normalization, and the session-emitted
`store_stats` event.
"""

import json
import os
import sqlite3
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.api.events import StoreStatsEvent
from repro.api.session import AnalysisRequest, LoupeSession
from repro.appsim.corpus import build
from repro.core.analyzer import AnalyzerConfig
from repro.core.cachestore import (
    CacheStoreError,
    SqliteRunCache,
    encode_record,
    migrate_store,
    open_store,
    parse_store_path,
    store_identity,
    verify_store,
)
from repro.core.runner import ResourceUsage, RunResult


def _result(metric=100.0, success=True):
    return RunResult(
        success=success,
        traced=Counter({"read": 3, "close": 1}),
        pseudo_files=Counter({"/proc/self/maps": 1}),
        metric=metric,
        resources=ResourceUsage(fd_peak=12, mem_peak_kb=2048),
        exit_code=0 if success else 1,
        failure_reason=None if success else "boom",
    )


def _key(replica=0, fingerprint="stub:close"):
    return ("sim:app-1.0", "bench", fingerprint, replica)


def _subprocess(code: str, *argv: str) -> None:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


class TestOpenStoreFactory:
    def test_scheme_always_wins(self, tmp_path):
        kind, path = parse_store_path(f"sqlite:{tmp_path / 'runs.jsonl'}")
        assert kind == "sqlite" and path.name == "runs.jsonl"
        kind, path = parse_store_path(f"jsonl:{tmp_path / 'runs.db'}")
        assert kind == "jsonl" and path.name == "runs.db"

    @pytest.mark.parametrize("name,expected", [
        ("runs.sqlite", SqliteRunCache),
        ("runs.sqlite3", SqliteRunCache),
        ("runs.db", SqliteRunCache),
        ("runs.cache", SqliteRunCache),
        ("runs", SqliteRunCache),  # no extension
    ])
    def test_extension_dispatch(self, tmp_path, name, expected):
        with open_store(tmp_path / name) as store:
            assert isinstance(store, expected)
            store.put(_key(), _result())
        conn = sqlite3.connect(str(tmp_path / name))
        try:
            assert conn.execute("SELECT COUNT(*) FROM runs").fetchone() \
                == (1,)
        finally:
            conn.close()

    def test_magic_sniff_rescues_renamed_sqlite(self, tmp_path):
        original = tmp_path / "runs.sqlite"
        with open_store(original) as store:
            store.put(_key(), _result())
        renamed = tmp_path / "runs.cache"  # any name but *.jsonl
        original.rename(renamed)
        with open_store(renamed) as reopened:
            assert isinstance(reopened, SqliteRunCache)
            assert reopened.get(_key()) == _result()

    @pytest.mark.parametrize("spelling", ["runs.jsonl", "jsonl:runs.db"])
    def test_jsonl_path_refused_with_migrate_hint(self, tmp_path,
                                                  monkeypatch, spelling):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "runs.jsonl").write_text(
            encode_record(_key(), _result()) + "\n"
        )
        for knobs in ({}, {"ttl_s": 60.0}):
            with pytest.raises(CacheStoreError,
                               match="loupe cache migrate <src.jsonl>"):
                open_store(spelling, **knobs)
        # Refused before anything is opened or created.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.jsonl"]

    def test_max_entries_refused_on_jsonl(self, tmp_path):
        with pytest.raises(CacheStoreError, match="loupe cache migrate"):
            open_store(tmp_path / "runs.jsonl", max_entries=10)

    def test_mis_extensioned_jsonl_raises_cachestore_error(self, tmp_path):
        with SqliteRunCache(tmp_path / "runs.sqlite") as store:
            store.put(_key(), _result())
        path = tmp_path / "runs.db"  # sqlite extension, jsonl content
        migrate_store(tmp_path / "runs.sqlite", f"jsonl:{path}")
        with pytest.raises(CacheStoreError, match="not a SQLite") as error:
            open_store(path)
        assert "loupe cache migrate" in str(error.value)

    def test_store_identity_normalizes_spellings(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        absolute = str(tmp_path / "runs.sqlite")
        assert store_identity("runs.sqlite") == store_identity(absolute)
        assert store_identity("./runs.sqlite") == store_identity(absolute)
        assert store_identity(f"sqlite:{absolute}") == \
            store_identity("runs.sqlite")
        # The JSONL format over one path is a different thing.
        assert store_identity(f"jsonl:{absolute}") != \
            store_identity(absolute)


class TestSqliteStore:
    def test_round_trip_across_instances(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        with SqliteRunCache(path) as store:
            assert store.get(_key()) is None
            store.put(_key(), _result())
            assert store.get(_key()) == _result()
        reopened = SqliteRunCache(path)
        assert reopened.get(_key()) == _result()
        assert len(reopened) == reopened.loaded_records == 1

    def test_close_idempotent_and_reconnects(self, tmp_path):
        store = SqliteRunCache(tmp_path / "runs.sqlite")
        store.put(_key(0), _result())
        store.close()
        store.close()
        store.put(_key(1), _result())  # reconnects transparently
        assert len(store) == 2

    def test_upsert_fixes_two_writer_duplicates(self, tmp_path):
        # Two writer instances sharing one file: SQLite's upsert is
        # shared state, so the store never grows with re-put records.
        path = tmp_path / "runs.sqlite"
        a, b = SqliteRunCache(path), SqliteRunCache(path)
        a.put(_key(), _result(1.0))
        b.put(_key(), _result(1.0))   # no duplicate row
        b.put(_key(), _result(2.0))   # last writer wins, in place
        assert len(a) == len(b) == 1
        assert a.get(_key()).metric == 2.0  # a sees b's write live
        a.close(), b.close()

    def test_lru_eviction_under_max_entries(self, tmp_path):
        store = SqliteRunCache(tmp_path / "runs.sqlite", max_entries=2)
        store.put(_key(0), _result(0.0))
        store.put(_key(1), _result(1.0))
        assert store.get(_key(0)) is not None  # refresh replica 0
        store.put(_key(2), _result(2.0))      # evicts replica 1 (LRU)
        assert len(store) == 2
        assert store.get(_key(1)) is None
        assert store.get(_key(0)) is not None
        assert store.get(_key(2)) is not None
        assert store.stats().evictions == 1

    def test_gc_explicit_cap(self, tmp_path):
        store = SqliteRunCache(tmp_path / "runs.sqlite")
        for replica in range(5):
            store.put(_key(replica), _result(float(replica)))
        assert store.gc(2) == 3
        assert len(store) == 2
        with pytest.raises(ValueError, match="cap"):
            store.gc()  # no configured cap, none passed

    def test_live_read_through_across_processes(self, tmp_path):
        """Two concurrent processes sharing one SQLite cache observe
        each other's records without reopening the store."""
        path = tmp_path / "shared.sqlite"
        store = SqliteRunCache(path)  # opened before the writer runs
        assert store.get(_key()) is None
        _subprocess(
            "import sys\n"
            "from collections import Counter\n"
            "from repro.core.cachestore import SqliteRunCache\n"
            "from repro.core.runner import RunResult\n"
            "store = SqliteRunCache(sys.argv[1])\n"
            "store.put(('sim:app-1.0', 'bench', 'stub:close', 0),\n"
            "          RunResult(success=True, traced=Counter({'read': 3,"
            " 'close': 1}), pseudo_files=Counter({'/proc/self/maps': 1}),"
            " metric=100.0))\n"
            "store.close()\n",
            str(path),
        )
        # No reopen: the same store instance sees the other process's
        # committed write on its next read.
        hit = store.get(_key())
        assert hit is not None and hit.metric == 100.0
        store.close()

    def test_crash_mid_transaction_loads_cleanly(self, tmp_path):
        """A SQLite file killed mid-transaction rolls back on the next
        open: every committed record is served, the torn one is gone."""
        path = tmp_path / "killed.sqlite"
        _subprocess(
            "import os, sqlite3, sys\n"
            "from collections import Counter\n"
            "from repro.core.cachestore import SqliteRunCache\n"
            "from repro.core.runner import RunResult\n"
            "store = SqliteRunCache(sys.argv[1])\n"
            "store.put(('sim:app-1.0', 'bench', 'stub:close', 0),\n"
            "          RunResult(success=True, traced=Counter({'read': 3,"
            " 'close': 1}), pseudo_files=Counter({'/proc/self/maps': 1}),"
            " metric=100.0))\n"
            "conn = sqlite3.connect(sys.argv[1], isolation_level=None)\n"
            "conn.execute('BEGIN IMMEDIATE')\n"
            "conn.execute(\"INSERT INTO runs VALUES"
            " ('sim:app-1.0', 'bench', 'stub:close', 1, 'torn', 0, 0, 0)\")\n"
            "os._exit(0)\n",  # hard kill: no commit, no close
            str(path),
        )
        survivor = SqliteRunCache(path)
        assert len(survivor) == 1
        assert survivor.get(_key(0)) is not None
        assert survivor.get(_key(1)) is None  # uncommitted: rolled back


def _usage(path, replica):
    """``(last_used, use_count)`` of one row, read past the store."""
    conn = sqlite3.connect(str(path))
    try:
        return conn.execute(
            "SELECT last_used, use_count FROM runs WHERE replica = ?",
            (replica,),
        ).fetchone()
    finally:
        conn.close()


class TestSqliteBatches:
    def test_get_many_treats_expired_rows_as_misses_without_a_bump(
        self, tmp_path
    ):
        path = tmp_path / "runs.sqlite"
        with SqliteRunCache(path, ttl_s=0.05) as store:
            store.put_many([(_key(0), _result(), None),
                            (_key(1), _result(), None)])
            time.sleep(0.1)
            store.put_many([(_key(2), _result(2.0), {"mode": "stub"})])
            stale = _usage(path, 0)
            found = store.get_many([_key(0), _key(1), _key(2), _key(3)])
            assert found == {_key(2): _result(2.0)}
            # The expired rows earned no recency; the live hit did.
            assert _usage(path, 0) == stale
            assert _usage(path, 1)[1] == 0
            assert _usage(path, 2)[1] == 1
            assert store.expired() == 2
            assert store.get_many([]) == {}

    def test_put_many_enforces_max_entries(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        with SqliteRunCache(path, max_entries=3) as store:
            store.put_many([
                (_key(replica), _result(float(replica)), None)
                for replica in range(5)
            ])
            assert len(store) == 3
            assert store.stats().evictions == 2
        with SqliteRunCache(path, max_entries=3) as store:
            keys = [_key(replica) for replica in range(2, 5)]
            assert set(store.get_many(keys[:1])) == {_key(2)}  # refresh
            store.put_many([(_key(5), _result(), None)])
            # The least recently used row (replica 3) made room.
            assert set(store.get_many(keys + [_key(5)])) == {
                _key(2), _key(4), _key(5),
            }

    def test_put_many_upserts_duplicates_in_one_batch(self, tmp_path):
        with SqliteRunCache(tmp_path / "runs.sqlite") as store:
            store.put_many([
                (_key(0), _result(1.0), None),
                (_key(0), _result(2.0), None),
            ])
            assert len(store) == 1
            assert store.get(_key(0)).metric == 2.0


class TestMigration:
    def test_migrate_copies_live_records_only(self, tmp_path):
        """A JSONL import keeps each key's last record, once."""
        path = tmp_path / "runs.jsonl"
        path.write_text("".join(
            encode_record(key, result) + "\n" for key, result in (
                (_key(0), _result(1.0)),
                (_key(0), _result(2.0)),  # supersedes the line above
                (_key(1), _result(3.0)),
            )
        ))
        migrated = migrate_store(path, tmp_path / "runs.sqlite")
        assert migrated == 2
        with open_store(tmp_path / "runs.sqlite") as dst:
            assert len(dst) == 2
            assert dst.get(_key(0)).metric == 2.0
            assert dst.get(_key(1)).metric == 3.0

    def test_migrate_is_one_put_many(self, tmp_path, monkeypatch):
        path = tmp_path / "runs.jsonl"
        path.write_text("".join(
            encode_record(_key(replica), _result(float(replica))) + "\n"
            for replica in range(4)
        ))
        batches = []
        original = SqliteRunCache.put_many

        def put_many(store, items):
            batches.append(len(items))
            original(store, items)

        monkeypatch.setattr(SqliteRunCache, "put_many", put_many)
        assert migrate_store(path, tmp_path / "runs.sqlite") == 4
        assert batches == [4]

    def test_migrate_same_file_refused(self, tmp_path):
        with pytest.raises(CacheStoreError, match="same file"):
            migrate_store(tmp_path / "runs.sqlite",
                          f"sqlite:{tmp_path / 'runs.sqlite'}")
        # A scheme naming the same physical file under the *other*
        # format must be refused too — not corrupt it mid-copy.
        with pytest.raises(CacheStoreError, match="same file"):
            migrate_store(tmp_path / "runs.jsonl",
                          f"sqlite:{tmp_path / 'runs.jsonl'}")

    def test_policy_survives_jsonl_import(self, tmp_path):
        """The policy document is what makes a record re-executable: a
        JSONL import must keep it, and `verify` must re-run it."""
        app = build("weborf")
        with LoupeSession(cache_path=str(tmp_path / "warm.sqlite")) as s:
            s.analyze(AnalysisRequest.for_app(app, "health"))
        with SqliteRunCache(tmp_path / "warm.sqlite") as store:
            key, result, policy = next(
                record for record in sorted(store.records(), key=str)
                if record[2] is not None
            )
        path = tmp_path / "runs.jsonl"
        path.write_text(encode_record(key, result, policy) + "\n")
        assert migrate_store(path, tmp_path / "runs.sqlite") == 1
        with SqliteRunCache(tmp_path / "runs.sqlite") as store:
            assert store.records() == [(key, result, policy)]
            report = verify_store(store)
        assert (report.checked, report.matched) == (1, 1)
        assert report.unverifiable == 0 and report.ok

    def test_round_trip_keeps_every_key_result_and_policy(self, tmp_path):
        items = [
            (_key(0), _result(1.0), {"syscalls": {"read": "stub"}}),
            (_key(1), _result(2.0, success=False), None),
            (_key(0, "fake:open"), _result(None), {"syscalls": {}}),
        ]
        with SqliteRunCache(tmp_path / "a.sqlite") as store:
            store.put_many(items)
        assert migrate_store(tmp_path / "a.sqlite",
                             tmp_path / "runs.jsonl") == 3
        assert migrate_store(tmp_path / "runs.jsonl",
                             tmp_path / "b.sqlite") == 3
        with SqliteRunCache(tmp_path / "b.sqlite") as store:
            assert sorted(store.records(), key=str) == \
                sorted(items, key=str)
        # The export is whole: no temporary file is left behind.
        assert sorted(p.name for p in tmp_path.iterdir()
                      if "jsonl" in p.name) == ["runs.jsonl"]

    def test_export_refuses_an_entry_cap(self, tmp_path):
        with SqliteRunCache(tmp_path / "runs.sqlite") as store:
            store.put(_key(), _result())
        with pytest.raises(CacheStoreError, match="max_entries"):
            migrate_store(tmp_path / "runs.sqlite", tmp_path / "runs.jsonl",
                          max_entries=5)

    def test_warm_campaign_survives_migration(self, tmp_path):
        """The acceptance criterion: a campaign warmed on SQLite,
        exported to JSONL and imported into a fresh SQLite store,
        reports the same persistent_hits as a warm re-run of the
        original store — and re-executes nothing."""
        sqlite_path = str(tmp_path / "campaign.sqlite")
        jsonl_path = str(tmp_path / "campaign.jsonl")
        imported_path = str(tmp_path / "imported.sqlite")
        app = build("weborf")
        request = AnalysisRequest.for_app(app, "health")

        with LoupeSession(cache_path=sqlite_path) as cold:
            cold.analyze(request)
        with LoupeSession(cache_path=sqlite_path) as warm:
            warm_result = warm.analyze(request)
            warm_stats = warm.last_engine_stats
        assert warm_stats.persistent_hits > 0
        assert warm_stats.runs_executed == 0

        migrate_store(sqlite_path, jsonl_path)
        migrate_store(jsonl_path, imported_path)

        with LoupeSession(cache_path=imported_path) as warm_imported:
            imported_result = warm_imported.analyze(
                AnalysisRequest.for_app(app, "health")
            )
            imported_stats = warm_imported.last_engine_stats
        assert imported_stats.persistent_hits == warm_stats.persistent_hits
        assert imported_stats.runs_executed == 0
        assert json.dumps(imported_result.to_dict(), sort_keys=True) == \
            json.dumps(warm_result.to_dict(), sort_keys=True)


class TestSessionIntegration:
    def test_store_for_normalizes_path_spellings(self, tmp_path,
                                                 monkeypatch):
        """The `_store_for` bugfix: two spellings of one file must
        share one store, not open two connections on one file."""
        monkeypatch.chdir(tmp_path)
        absolute = str(tmp_path / "cache.sqlite")
        with LoupeSession(cache_path="cache.sqlite") as session:
            assert session._store_for(absolute) is session.run_cache
            assert session._store_for("./cache.sqlite") is session.run_cache
            assert len(session._stores) == 1

    def test_sqlite_session_campaign_warm(self, tmp_path):
        path = str(tmp_path / "campaign.sqlite")
        app = build("weborf")
        with LoupeSession(cache_path=path) as cold:
            cold.analyze(AnalysisRequest.for_app(app, "health"))
            assert cold.last_engine_stats.persistent_hits == 0
        with LoupeSession(cache_path=path) as warm:
            warm.analyze(AnalysisRequest.for_app(app, "health"))
            stats = warm.last_engine_stats
        assert stats.runs_executed == 0
        assert stats.persistent_hits == stats.cache_hits > 0

    def test_store_stats_event_emitted(self, tmp_path):
        events = []
        path = str(tmp_path / "campaign.sqlite")
        with LoupeSession(on_event=events.append, cache_path=path) as s:
            s.analyze(AnalysisRequest.for_app(build("weborf"), "health"))
        store_events = [e for e in events
                        if isinstance(e, StoreStatsEvent)]
        assert len(store_events) == 1
        event = store_events[0]
        assert event.store == "sqlite"
        assert event.entries > 0
        assert event.app == "weborf"
        assert event.to_dict()["event"] == "store_stats"
        # The legacy string protocol never reported store state.
        assert event.legacy_line() is None

    def test_no_store_no_event(self):
        events = []
        with LoupeSession(on_event=events.append) as session:
            session.analyze(AnalysisRequest.for_app(build("weborf"),
                                                    "health"))
        assert not any(isinstance(e, StoreStatsEvent) for e in events)

    def test_config_max_entries_bounds_session_store(self, tmp_path):
        path = str(tmp_path / "bounded.sqlite")
        config = AnalyzerConfig(run_cache=path, run_cache_max_entries=10)
        with LoupeSession(config=config) as session:
            session.analyze(AnalysisRequest.for_app(build("weborf"),
                                                    "health"))
            assert len(session.run_cache) <= 10
            assert session.run_cache.stats().evictions > 0

    def test_config_rejects_nonpositive_max_entries(self):
        with pytest.raises(ValueError, match="run_cache_max_entries"):
            AnalyzerConfig(run_cache_max_entries=0)
