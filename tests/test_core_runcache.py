"""Tests for the persistent cross-campaign run cache.

Covers the store itself (round-trip, and the JSONL import's torn-line
tolerance and last-writer-wins), its wiring into the probe engine (persistent hits counted
separately, LRU promotion, determinism gating, reset survival), and
the campaign-level behavior through ``LoupeSession(cache_path=...)``.
"""

import json
from collections import Counter

import pytest

from repro.api.session import AnalysisRequest, LoupeSession
from repro.appsim.corpus import build
from repro.core.cachestore import SqliteRunCache, encode_record, migrate_store
from repro.core.engine import EngineStats, ProbeEngine
from repro.core.policy import stubbing
from repro.core.runner import BackendCapabilities, ResourceUsage, RunResult
from repro.core.workload import benchmark


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


KEY = ("sim:app-1.0", "bench", "stub:close", 0)


class TestRunResultSerialization:
    def test_round_trip_exact(self):
        for result in (_result(), _result(success=False), _result(metric=None)):
            assert RunResult.from_dict(result.to_dict()) == result

    def test_json_safe(self):
        document = json.loads(json.dumps(_result().to_dict()))
        assert RunResult.from_dict(document) == _result()


class TestRunCacheStore:
    def test_round_trip_across_instances(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        store = SqliteRunCache(path)
        assert store.get(KEY) is None
        store.put(KEY, _result())
        assert store.get(KEY) == _result()
        reopened = SqliteRunCache(path)
        assert reopened.get(KEY) == _result()
        assert len(reopened) == 1
        assert reopened.loaded_records == 1

    def test_missing_file_is_empty(self, tmp_path):
        store = SqliteRunCache(tmp_path / "nowhere" / "runs.sqlite")
        assert len(store) == 0  # parent directories created at open
        store.put(KEY, _result())
        assert SqliteRunCache(store.path).get(KEY) is not None

    def test_torn_final_line_tolerated(self, tmp_path):
        """A JSONL file whose writer was killed mid-append imports
        every complete record."""
        with SqliteRunCache(tmp_path / "runs.sqlite") as store:
            store.put(KEY, _result())
            store.put(KEY[:3] + (1,), _result(metric=200.0))
        path = tmp_path / "runs.jsonl"
        migrate_store(tmp_path / "runs.sqlite", path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"backend": "sim:app-1.0", "work')  # killed mid-append
        assert migrate_store(path, tmp_path / "imported.sqlite") == 2
        survivor = SqliteRunCache(tmp_path / "imported.sqlite")
        assert len(survivor) == 2
        assert survivor.get(KEY) == _result()

    def test_duplicate_key_last_writer_wins(self, tmp_path):
        """A key written twice to a JSONL file imports its last
        record."""
        path = tmp_path / "runs.jsonl"
        path.write_text("".join(
            encode_record(KEY, _result(metric=metric)) + "\n"
            for metric in (1.0, 2.0)
        ))
        assert migrate_store(path, tmp_path / "runs.sqlite") == 1
        assert SqliteRunCache(tmp_path / "runs.sqlite").get(KEY).metric == 2.0


class _CountingBackend:
    name = "sim:counting"

    def __init__(self):
        self.calls = 0

    def capabilities(self):
        return BackendCapabilities(deterministic=True, parallel_safe=True)

    def run(self, workload, policy, *, replica=0):
        self.calls += 1
        return RunResult(success=True, traced=Counter({"read": 1}),
                         metric=100.0 + replica)


class TestEnginePersistence:
    def test_cold_engine_answers_from_store(self, tmp_path):
        store = SqliteRunCache(tmp_path / "runs.sqlite")
        workload = benchmark("b", "m")
        writer_backend = _CountingBackend()
        with ProbeEngine(store=store) as writer:
            writer.run_replicas(writer_backend, workload, stubbing("close"), 3)
        assert writer_backend.calls == 3
        assert writer.stats.persistent_hits == 0

        reader_backend = _CountingBackend()
        with ProbeEngine(store=SqliteRunCache(store.path)) as reader:
            reader.run_replicas(reader_backend, workload, stubbing("close"), 3)
        assert reader_backend.calls == 0
        stats = reader.stats
        assert stats == EngineStats(
            runs_requested=3, runs_executed=0, cache_hits=3,
            replicas_skipped=0, persistent_hits=3,
        )
        assert stats.persistent_hit_rate == pytest.approx(1.0)

    def test_lru_promotion_counts_disk_hit_once(self, tmp_path):
        store = SqliteRunCache(tmp_path / "runs.sqlite")
        workload = benchmark("b", "m")
        with ProbeEngine(store=store) as writer:
            writer.run(writer_backend := _CountingBackend(), workload,
                       stubbing("close"))
        assert writer_backend.calls == 1
        with ProbeEngine(store=SqliteRunCache(store.path)) as reader:
            for _ in range(3):
                reader.run(_CountingBackend(), workload, stubbing("close"))
        stats = reader.stats
        # First hit came from disk and was promoted; repeats hit the LRU.
        assert stats.cache_hits == 3
        assert stats.persistent_hits == 1

    def test_nondeterministic_backend_never_persisted(self, tmp_path):
        class _Nondeterministic(_CountingBackend):
            def capabilities(self):
                return BackendCapabilities(parallel_safe=True)

        store = SqliteRunCache(tmp_path / "runs.sqlite")
        with ProbeEngine(store=store) as engine:
            engine.run_replicas(_Nondeterministic(), benchmark("b", "m"),
                                stubbing("close"), 2)
        assert len(store) == 0

    def test_reset_keeps_store(self, tmp_path):
        store = SqliteRunCache(tmp_path / "runs.sqlite")
        workload = benchmark("b", "m")
        with ProbeEngine(store=store) as engine:
            engine.run(_CountingBackend(), workload, stubbing("close"))
            engine.reset()
            assert engine.cached_runs() == 0
            backend = _CountingBackend()
            engine.run(backend, workload, stubbing("close"))
            assert backend.calls == 0  # answered from the store post-reset
            assert engine.stats.persistent_hits == 1

    def test_describe_mentions_persistent_hits_only_when_present(self):
        silent = EngineStats(runs_requested=2, runs_executed=2)
        assert "persistent" not in silent.describe()
        loud = EngineStats(runs_requested=2, cache_hits=2, persistent_hits=2)
        assert "2 from the persistent cache" in loud.describe()


class TestSessionCampaigns:
    def test_second_campaign_starts_warm(self, tmp_path):
        path = str(tmp_path / "campaign.sqlite")
        app = build("weborf")

        with LoupeSession(cache_path=path) as cold:
            cold.analyze(AnalysisRequest.for_app(app, "health"))
            cold_stats = cold.last_engine_stats
        assert cold_stats.persistent_hits == 0
        assert cold_stats.runs_executed > 0

        with LoupeSession(cache_path=path) as warm:
            result = warm.analyze(AnalysisRequest.for_app(app, "health"))
            warm_stats = warm.last_engine_stats
        assert warm_stats.runs_executed == 0
        assert warm_stats.persistent_hits == warm_stats.cache_hits > 0
        assert warm_stats.persistent_hit_rate > 0.5

        with LoupeSession() as fresh:
            reference = fresh.analyze(AnalysisRequest.for_app(app, "health"))
        assert json.dumps(result.to_dict(), sort_keys=True) == \
            json.dumps(reference.to_dict(), sort_keys=True)

    def test_analyzer_owns_store_built_from_config(self, tmp_path):
        from repro.core.analyzer import Analyzer, AnalyzerConfig
        from repro.core.workload import health_check

        path = str(tmp_path / "owned.sqlite")
        app = build("weborf")
        with Analyzer(AnalyzerConfig(run_cache=path)) as analyzer:
            analyzer.analyze(app.backend(), app.workload("health"))
            owned = analyzer._owned_store
            assert owned is not None
        assert owned._conn is None  # closed with the analyzer

    def test_session_shares_store_for_config_override(self, tmp_path):
        from repro.core.analyzer import AnalyzerConfig

        path = str(tmp_path / "override.sqlite")
        override = AnalyzerConfig(run_cache=path)
        with LoupeSession() as session:
            for workload in ("health", "bench"):
                session.analyze(
                    AnalysisRequest.for_app(build("weborf"), workload),
                    config=override,
                )
            # One store per identity, shared by both analyses — not
            # one connection per analyzer.
            from repro.core.cachestore import store_identity

            assert list(session._stores) == [store_identity(path)]

    def test_per_call_run_cache_overrides_session_default(self, tmp_path):
        from repro.core.analyzer import AnalyzerConfig

        default_path = str(tmp_path / "default.sqlite")
        special_path = str(tmp_path / "special.sqlite")
        with LoupeSession(cache_path=default_path) as session:
            session.analyze(AnalysisRequest.for_app(build("weborf"), "health"))
            session.analyze(
                AnalysisRequest.for_app(build("weborf"), "bench"),
                config=AnalyzerConfig(run_cache=special_path),
            )
        # The override went to its own file, the default to the other.
        assert SqliteRunCache(default_path).loaded_records > 0
        assert SqliteRunCache(special_path).loaded_records > 0

    def test_cache_off_rejects_persistent_store(self, tmp_path):
        from repro.core.analyzer import AnalyzerConfig
        from repro.core.engine import ProbeEngine

        path = str(tmp_path / "contradiction.sqlite")
        with pytest.raises(ValueError, match="cache=True"):
            AnalyzerConfig(cache=False, run_cache=path)
        with pytest.raises(ValueError, match="cache=True"):
            ProbeEngine(cache=False, store=SqliteRunCache(path))
        from repro.cli import main
        assert main(["analyze", "--app", "weborf", "--workload", "health",
                     "--no-cache", "--run-cache", path]) == 2

    def test_session_store_benched_by_cache_off_override(self, tmp_path):
        from repro.core.analyzer import AnalyzerConfig

        path = str(tmp_path / "bench.sqlite")
        with LoupeSession(cache_path=path) as session:
            session.analyze(
                AnalysisRequest.for_app(build("weborf"), "health"),
                config=AnalyzerConfig(cache=False),
            )
            stats = session.last_engine_stats
        assert stats.cache_hits == 0
        assert not SqliteRunCache(path).loaded_records  # store not fed

    def test_cli_run_cache_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "cli.sqlite")
        argv = ["analyze", "--app", "weborf", "--workload", "health",
                "--run-cache", path]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "persistent cache" not in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "from the persistent cache" in warm
        assert "0 executed" in warm
