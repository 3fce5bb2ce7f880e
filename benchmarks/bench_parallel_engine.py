"""Probe-engine benchmark — executor sharding + run caching.

The paper's run-time model (Section 3.3) is ``(2 + 2·t·s)·ceil(r/p)``:
Loupe amortizes its run cost over a parallelism factor ``p``. This
bench makes ``p`` observable in our reproduction under *padded* cost
models (labelled model rows, not real-workload numbers — the ledger for
those is ``perfbench/``), for both local executors and both cache
tiers:

* **latency model** — the seven-app corpus is analyzed once with the
  seed's strictly-serial semantics (``parallel=1``, cache and
  early-exit off) and once on the process executor (``parallel=4``
  worker processes plus 4 app-level jobs). Simulated runs complete in
  microseconds, so each run is padded with a small sleep modeling real
  workload wall time (the paper quotes 4 minutes to 1.5 days per
  analysis).
* **GIL model** — the same corpus with run cost modeled as *GIL-bound
  compute*: a process-local lock stands in for the GIL, so runs in one
  process serialize exactly as pure-Python compute does, while worker
  processes proceed independently. The measured overlap therefore
  depends only on the engine's sharding — not on how many cores the
  bench machine happens to have. The acceptance gate is
  ``executor="process"`` beating serial >= 2x at 4 shards.
* **equivalence** — every configuration must produce byte-identical
  ``AnalysisResult``s: the engine changes how fast an analysis runs,
  never what it concludes.
* **cache hits** — a crafted conflicting program (the Section 5.2
  ``mremap``/``mmap`` fallback interaction) forces the combined-run
  confirmation and ddmin bisection stages, which must be answered
  partly from the probe-phase run cache.
* **persistent cache** — a campaign writes its runs to an on-disk
  SQLite run-cache store (:mod:`repro.core.cachestore`); a second
  campaign over the same path must answer >50% of its requests from
  disk without re-executing anything.

Every test records its numbers into ``BENCH_parallel_engine.json``
(wall-clock per executor, cache hit rates) so CI can archive the perf
trajectory. ``LOUPE_BENCH_APPS=N`` shrinks the corpus for smoke runs;
the speedup gates relax accordingly.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.api.session import AnalysisRequest, LoupeSession
from repro.appsim.backend import SimBackend
from repro.appsim.behavior import abort, breaks_core, fallback, harmless, ignore
from repro.appsim.program import SimProgram, SyscallOp, WorkloadProfile
from repro.core.analyzer import Analyzer, AnalyzerConfig, estimated_runtime_s
from repro.core.engine import EngineStats
from repro.core.workload import health_check

#: Wall-clock cost added to every simulated run. Real workloads run for
#: seconds to hours; a few milliseconds keeps the bench honest about
#: scheduling overlap while finishing quickly.
RUN_COST_S = 0.003

#: Worker-pool width under test (the acceptance point of this bench).
PARALLEL = 4

#: Where the perf numbers land (CI uploads this file).
RESULTS_PATH = Path("BENCH_parallel_engine.json")

#: Collected across tests; flushed to RESULTS_PATH at module teardown.
_RESULTS: dict = {}


def _reduced(apps):
    """Honor ``LOUPE_BENCH_APPS=N`` (CI smoke runs a reduced corpus)."""
    limit = int(os.environ.get("LOUPE_BENCH_APPS", "0"))
    return list(apps)[:limit] if limit else list(apps)


@pytest.fixture(scope="module", autouse=True)
def _flush_results():
    yield
    if not _RESULTS:
        return
    _RESULTS["run_cost_s"] = RUN_COST_S
    _RESULTS["parallel"] = PARALLEL
    RESULTS_PATH.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True))
    print(f"\nbench results written to {RESULTS_PATH}")


class _TimedBackend:
    """Wraps a backend so every run costs ``RUN_COST_S`` of wall time
    (latency-bound: the sleep holds no lock, so workers overlap it)."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name

    def capabilities(self):
        from repro.core.runner import capabilities_of

        return capabilities_of(self._inner)

    def run(self, workload, policy, *, replica=0):
        time.sleep(RUN_COST_S)
        return self._inner.run(workload, policy, replica=replica)


#: One lock per process: the stand-in GIL of :class:`_GilBoundBackend`.
#: Keyed by PID so a forked worker never inherits the parent's lock
#: state — each process contends only with its own threads, exactly
#: like the real GIL.
_GIL_MODELS: dict[int, threading.Lock] = {}


def _gil_model() -> threading.Lock:
    pid = os.getpid()
    lock = _GIL_MODELS.get(pid)
    if lock is None:
        lock = _GIL_MODELS.setdefault(pid, threading.Lock())
    return lock


class _GilBoundBackend:
    """Wraps a backend so every run costs ``RUN_COST_S`` of *GIL-bound*
    time: within one process the cost serializes across threads (a
    process-local lock models the GIL on pure-Python compute), while
    separate worker processes pay it concurrently. This isolates what
    the process executor buys from how many cores the host exposes —
    on any machine, one process cannot overlap this cost and several
    can, which is precisely the contention the appsim backend's
    CPU-bound simulation hits at scale."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name

    def capabilities(self):
        from repro.core.runner import capabilities_of

        return capabilities_of(self._inner)

    def run(self, workload, policy, *, replica=0):
        with _gil_model():
            time.sleep(RUN_COST_S)
        return self._inner.run(workload, policy, replica=replica)


def _analyze_corpus(
    apps, workload_name, *,
    parallel, jobs, cache, early_exit,
    executor="serial", wrap=_TimedBackend,
):
    """Analyze every app with fresh wrapped backends; returns (results, stats)."""

    def one(app):
        analyzer = Analyzer(AnalyzerConfig(
            parallel=parallel, cache=cache, early_exit=early_exit,
            executor=executor,
        ))
        backend = app.backend() if wrap is None else wrap(app.backend())
        result = analyzer.analyze(
            backend, app.workload(workload_name),
            app=app.name, app_version=app.version,
        )
        return result, analyzer.engine.stats

    if jobs == 1:
        pairs = [one(app) for app in apps]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            pairs = list(pool.map(one, apps))
    results = [result for result, _ in pairs]
    totals = sum((stats for _, stats in pairs), EngineStats())
    return results, totals


def _digest(results):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


def test_parallel_engine_speedup(seven_app_set):
    apps = _reduced(seven_app_set)
    started = time.monotonic()
    serial_results, serial_stats = _analyze_corpus(
        apps, "bench",
        parallel=1, jobs=1, cache=False, early_exit=False,
    )
    serial_s = time.monotonic() - started

    started = time.monotonic()
    parallel_results, parallel_stats = _analyze_corpus(
        apps, "bench",
        parallel=PARALLEL, jobs=PARALLEL, cache=True, early_exit=True,
        executor="process",
    )
    parallel_s = time.monotonic() - started
    speedup = serial_s / parallel_s

    print(f"\n=== Process sharding, latency model: {len(apps)}-app "
          f"corpus (bench) ===")
    print(f"run cost model: {RUN_COST_S * 1000:.1f} ms of latency per run")
    print(f"serial    (p=1, no cache, no early-exit): {serial_s:6.2f}s  "
          f"[{serial_stats.describe()}]")
    print(f"processes (p={PARALLEL}, {PARALLEL} jobs, cache, early-exit): "
          f"{parallel_s:6.2f}s  [{parallel_stats.describe()}]")
    print(f"speedup: {speedup:.2f}x")
    model = estimated_runtime_s(1.0, 40, replicas=3, parallel=1) / \
        estimated_runtime_s(1.0, 40, replicas=3, parallel=3)
    print(f"(paper model predicts {model:.0f}x from replica fan-out alone)")

    _RESULTS["latency_model"] = {
        "apps": len(apps),
        "serial_s": round(serial_s, 3),
        "process_s": round(parallel_s, 3),
        "speedup": round(speedup, 2),
        "cache_hit_rate": round(parallel_stats.hit_rate, 3),
    }
    # The engine only reschedules runs — it must not change conclusions.
    assert _digest(parallel_results) == _digest(serial_results)
    # The acceptance point: >= 2x wall-clock at parallelism 4.
    floor = 2.0 if len(apps) == len(seven_app_set) else 1.3
    assert speedup >= floor, f"only {speedup:.2f}x at parallel={PARALLEL}"


def test_process_shard_speedup(seven_app_set):
    """Process sharding must beat serial execution >= 2x on GIL-bound
    run cost, without changing a byte of any report."""
    apps = _reduced(seven_app_set)
    reference_results, _ = _analyze_corpus(
        apps, "bench",
        parallel=1, jobs=1, cache=True, early_exit=True, wrap=None,
    )

    started = time.monotonic()
    serial_results, serial_stats = _analyze_corpus(
        apps, "bench",
        parallel=1, jobs=1, cache=True, early_exit=True,
        wrap=_GilBoundBackend,
    )
    serial_s = time.monotonic() - started

    started = time.monotonic()
    process_results, process_stats = _analyze_corpus(
        apps, "bench",
        parallel=PARALLEL, jobs=1, cache=True, early_exit=True,
        executor="process", wrap=_GilBoundBackend,
    )
    process_s = time.monotonic() - started
    speedup = serial_s / process_s

    print(f"\n=== Process sharding, GIL model: {len(apps)}-app corpus, "
          f"GIL-bound cost ({RUN_COST_S * 1000:.1f} ms/run) ===")
    print(f"serial    (p=1): {serial_s:6.2f}s  "
          f"[{serial_stats.describe()}]")
    print(f"processes (p={PARALLEL}): {process_s:6.2f}s  "
          f"[{process_stats.describe()}]")
    print(f"process-over-serial speedup: {speedup:.2f}x")

    _RESULTS["process"] = {
        "apps": len(apps),
        "serial_s": round(serial_s, 3),
        "process_s": round(process_s, 3),
        "speedup_over_serial": round(speedup, 2),
        "runs_executed": process_stats.runs_executed,
    }
    # Sharding across processes must not change conclusions either.
    assert _digest(process_results) == _digest(reference_results)
    assert _digest(serial_results) == _digest(reference_results)
    # The acceptance point: >= 2x over serial execution.
    floor = 2.0 if len(apps) == len(seven_app_set) else 1.3
    assert speedup >= floor, (
        f"process sharding only {speedup:.2f}x over serial"
    )


def test_persistent_cache_warm_campaign(seven_app_set, tmp_path):
    """A second campaign over the same run-cache path starts warm:
    >50% of its requested runs answered from disk, zero re-executed."""
    apps = _reduced(seven_app_set)
    cache_path = tmp_path / "runs.sqlite"

    def campaign():
        started = time.monotonic()
        with LoupeSession(cache_path=str(cache_path)) as session:
            stats = EngineStats()
            for app in apps:
                session.analyze(AnalysisRequest.for_app(app, "bench"))
                stats = stats + session.last_engine_stats
        return stats, time.monotonic() - started

    cold, cold_s = campaign()
    warm, warm_s = campaign()

    print(f"\n=== Persistent run cache across campaigns "
          f"({len(apps)} apps, sqlite) ===")
    print(f"cold campaign: {cold_s:6.2f}s  [{cold.describe()}]")
    print(f"warm campaign: {warm_s:6.2f}s  [{warm.describe()}]")
    print(f"warm persistent hit rate: {warm.persistent_hit_rate:.0%}")

    _RESULTS["persistent_cache_sqlite"] = {
        "apps": len(apps),
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "cold_runs_executed": cold.runs_executed,
        "warm_runs_executed": warm.runs_executed,
        "warm_persistent_hit_rate": round(warm.persistent_hit_rate, 3),
    }
    assert cold.persistent_hits == 0
    assert warm.runs_executed == 0, "warm campaign re-executed runs"
    # The acceptance point: a warm campaign is >50% served from disk
    # (the rest is early-exit skips, which cost nothing either).
    assert warm.persistent_hit_rate > 0.5, (
        f"only {warm.persistent_hit_rate:.0%} persistent hits"
    )


def _conflicting_program():
    """Two individually-stubbable syscalls whose stubs conflict (S5.2)."""

    def op(syscall, **kwargs):
        kwargs.setdefault("on_stub", ignore())
        kwargs.setdefault("on_fake", harmless())
        return SyscallOp(syscall=syscall, **kwargs)

    inner = op("mmap", on_stub=abort(), on_fake=breaks_core())
    return SimProgram(
        name="conflicted",
        version="1",
        ops=(
            op("mremap", on_stub=fallback(inner), on_fake=harmless()),
            op("mmap", on_stub=fallback(
                op("mremap", on_stub=abort(), on_fake=breaks_core())
            ), on_fake=breaks_core()),
            op("close", on_stub=ignore(), on_fake=harmless()),
        ),
        features=frozenset({"core"}),
        profiles={"*": WorkloadProfile(metric=1000.0)},
    )


def test_bisection_cache_hit_rate():
    cached = Analyzer(AnalyzerConfig(cache=True))
    result = cached.analyze(
        SimBackend(_conflicting_program()), health_check("health")
    )
    uncached = Analyzer(AnalyzerConfig(cache=False))
    uncached.analyze(
        SimBackend(_conflicting_program()), health_check("health")
    )
    hot = cached.engine.stats
    cold = uncached.engine.stats

    print("\n=== Run cache during combined confirmation + ddmin bisection ===")
    print(f"cache on : {hot.describe()}")
    print(f"cache off: {cold.describe()}")

    _RESULTS["bisection_cache"] = {
        "hit_rate": round(hot.hit_rate, 3),
        "runs_executed_cached": hot.runs_executed,
        "runs_executed_uncached": cold.runs_executed,
    }
    assert result.final_run_ok and result.conflicts
    assert hot.cache_hits > 0, "bisection must reuse probe-phase runs"
    assert hot.hit_rate > 0.0
    assert hot.runs_executed < cold.runs_executed
