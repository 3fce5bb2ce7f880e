"""The seeded app draw and the three campaign workloads.

Each workload is a closed loop: one client runs one analysis (or one
server job) at a time and starts the next only when the previous one
has returned. One *iteration* is a cold pass over the workload's apps
and, for the two store workloads, a warm pass over the same apps from
the store the cold pass filled. ``open_env`` builds what an iteration
needs (a fresh store, a fresh server and worker fleet); the first
``open_env`` of a run is part of its set-up time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

from repro.appsim.corpus import CLOUD_APPS, corpus
from repro.core.analyzer import Analyzer, AnalyzerConfig
from repro.core.engine import EngineStats
from repro.errors import LoupeError
from repro.plans import AppRequirements, generate_plan, table1_states

from tracing import TimedBackend, TimedStore

#: The checkout's sources, which the benchmark runs.
SRC = Path(__file__).resolve().parent.parent / "src"

#: The synthetic apps are drawn from a corpus this large (15 hand-built
#: cloud apps, 3 extra hand-built apps, then generated ones).
CORPUS_POOL = 200
#: Apps drawn beside the 15 cloud apps: 100 analyses per pass, so a
#: pass's p90 has ten analyses beyond it.
SYNTHETIC_DRAW = 85
#: Jobs per fleet pass. A cold job costs seconds on the fleet path, so
#: the fleet workload takes a smaller sample of the same draw.
FLEET_APPS = 8
#: ``loupe worker`` processes in the fleet workload.
FLEET_WORKERS = 2
WORKLOAD = "bench"
#: The support plan every corpus pass ends with (Table 1).
PLAN_OS = "unikraft"
#: Registry name under which the fleet server resolves the drawn apps.
FLEET_BACKEND = "perfbench-corpus"

SERIAL = AnalyzerConfig(executor="serial")


def draw(seed: int) -> list:
    """The 15 cloud apps plus a seeded draw of the rest of the corpus,
    in corpus order."""
    apps = corpus(CORPUS_POOL)
    cloud, rest = apps[:len(CLOUD_APPS)], apps[len(CLOUD_APPS):]
    picked = sorted(random.Random(seed).sample(range(len(rest)), SYNTHETIC_DRAW))
    return cloud + [rest[index] for index in picked]


def fleet_sample(apps: list, seed: int) -> list:
    """One app from each of ``FLEET_APPS`` strata of the drawn non-cloud
    apps ordered by size (their op count), picked by the seed, in corpus
    order. With so few jobs, stratifying keeps the pass's total work
    alike from seed to seed, so seeds vary the inputs and not the size."""
    rest = apps[len(CLOUD_APPS):]
    by_size = sorted(range(len(rest)), key=lambda index: len(rest[index].program.ops))
    rng = random.Random(f"fleet/{seed}")
    bounds = [len(rest) * stratum // FLEET_APPS for stratum in range(FLEET_APPS + 1)]
    picked = sorted(
        by_size[rng.randrange(low, high)] for low, high in zip(bounds, bounds[1:])
    )
    return [rest[index] for index in picked]


def canonical_digest(document: object) -> str:
    """SHA-256 of a JSON document in canonical form, so a report read
    back from ``report.json`` and one built in-process compare equal
    exactly when their contents do."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(result) -> str:
    return canonical_digest(result.to_dict())


def plan_digest(plan) -> str:
    return canonical_digest(dataclasses.asdict(plan))


@dataclasses.dataclass
class PassRecord:
    """What one pass did, as the client saw it."""

    wall_s: float = 0.0
    latencies_s: list = dataclasses.field(default_factory=list)
    stats: EngineStats = dataclasses.field(default_factory=EngineStats)
    #: App name -> report digest; ``None`` for an analysis that failed.
    reports: dict = dataclasses.field(default_factory=dict)
    failures: list = dataclasses.field(default_factory=list)
    plan: "str | None" = None
    apps_planned: int = 0
    #: Final job metas (fleet passes only).
    jobs: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class Iteration:
    cold: PassRecord
    warm: "PassRecord | None" = None
    #: The fleet server's cache counters after both passes.
    server_cache: "dict | None" = None


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _warm_phase(tracer) -> None:
    if tracer is not None:
        tracer.phase = "warm"


def support_plan(results: list, tracer=None):
    """The unikraft support plan for the analyzed apps (Table 1)."""
    with _span(tracer, "plans.requirements"):
        requirements = {r.app: AppRequirements.from_result(r) for r in results}
    with _span(tracer, "plans.states"):
        states = table1_states({name: requirements[name] for name in CLOUD_APPS})
    with _span(tracer, "plans.generate"):
        return generate_plan(states[PLAN_OS], requirements)


def corpus_pass(apps, config, *, store=None, tracer=None, plan=False) -> PassRecord:
    """Analyze every app in turn, then (with *plan*) build the support
    plan from the results. Reports are digested after the clock stops."""
    record = PassRecord()
    results = []
    started = time.perf_counter()
    for app in apps:
        backend = app.backend()
        if tracer is not None and config.executor == "serial":
            backend = TimedBackend(backend, tracer)
        begun = time.perf_counter()
        result = None
        analyzer = Analyzer(config, store=store)
        try:
            with analyzer:
                result = analyzer.analyze(
                    backend, app.workload(WORKLOAD),
                    app=app.name, app_version=app.version,
                )
        except Exception as error:  # noqa: BLE001 - a failed analysis is counted, not fatal
            record.failures.append(f"{app.name}: {type(error).__name__}: {error}")
        record.latencies_s.append(time.perf_counter() - begun)
        record.stats = record.stats + analyzer.engine.stats
        results.append((app.name, result))
    built = None
    analyzed = [result for _name, result in results if result is not None]
    if plan and len(analyzed) == len(results):
        built = support_plan(analyzed, tracer)
    record.wall_s = time.perf_counter() - started
    record.reports = {
        name: report_digest(result) if result is not None else None
        for name, result in results
    }
    if built is not None:
        record.plan = plan_digest(built)
        record.apps_planned = len(analyzed)
    return record


class CorpusSerial:
    """The drawn apps analyzed serially with the in-memory LRU only,
    then the support plan: the path users run today."""

    name = "corpus-serial"
    has_warm = False
    builds_plan = True
    config = SERIAL

    def __init__(self, apps, seed, workdir: Path) -> None:
        self.apps = apps
        self.workdir = workdir

    @property
    def parallel(self) -> int:
        return self.config.parallel

    def open_env(self, tracer=None):
        return None

    def iteration(self, env, tracer=None) -> Iteration:
        return Iteration(cold=corpus_pass(
            self.apps, self.config, tracer=tracer, plan=True
        ))

    def close_env(self, env) -> None:
        pass

    def shutdown(self) -> None:
        pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class CorpusProcessSqlite(CorpusSerial):
    """The same apps on the process executor into a fresh SQLite store
    (cold: chunk shipping and ``put``), then again from it (warm: ``get``)."""

    name = "corpus-process-sqlite"
    has_warm = True

    def __init__(self, apps, seed, workdir: Path) -> None:
        super().__init__(apps, seed, workdir)
        self.config = AnalyzerConfig(executor="process", parallel=nproc())
        self._stores = 0
        # Start the shared worker-process pool and its first chunks now,
        # so the timed passes measure a warm pool.
        warm = apps[-1]
        with Analyzer(self.config) as analyzer:
            analyzer.analyze(warm.backend(), warm.workload("health"), app=warm.name)

    def open_env(self, tracer=None):
        from repro.core.cachestore import open_store

        self._stores += 1
        path = self.workdir / f"runs-{self._stores}.sqlite"
        with _span(tracer, "cachestore.open"):
            store = open_store(str(path))
        return store if tracer is None else TimedStore(store, tracer)

    def iteration(self, store, tracer=None) -> Iteration:
        cold = corpus_pass(
            self.apps, self.config, store=store, tracer=tracer, plan=True
        )
        _warm_phase(tracer)
        warm = corpus_pass(self.apps, self.config, store=store, tracer=tracer)
        if tracer is not None:
            store.stats()  # a timed call, so the spans carry the store size
        return Iteration(cold=cold, warm=warm)

    def close_env(self, store) -> None:
        store.close()

    def shutdown(self) -> None:
        from repro.core.engine import shutdown_worker_pools

        shutdown_worker_pools()


@dataclasses.dataclass
class Fleet:
    server: object
    client: object
    workers: list
    addresses: list
    directory: Path


class FleetService:
    """A sample of the apps as campaign-server jobs on the remote
    executor, with two ``loupe worker`` processes and the server's HTTP
    run cache, cold and then warm."""

    name = "fleet-service"
    has_warm = True
    builds_plan = False
    parallel = FLEET_WORKERS

    def __init__(self, apps, seed, workdir: Path) -> None:
        from repro.api.registry import ResolvedTarget, register_backend

        self.workdir = workdir
        self.apps = fleet_sample(apps, seed)
        self._fleets = 0
        by_name = {app.name: app for app in self.apps}

        def resolve(request) -> ResolvedTarget:
            app = by_name[request.app]
            return ResolvedTarget(
                backend=app.backend(),
                workload=app.workload(request.workload),
                app=app.name,
                app_version=app.version,
            )

        # The server resolves job specs through the backend registry; the
        # drawn app models reach it only through this factory.
        register_backend(FLEET_BACKEND, resolve, replace=True)

    def open_env(self, tracer=None) -> Fleet:
        from repro.server import CampaignServer
        from repro.server.client import ServiceClient

        self._fleets += 1
        directory = self.workdir / f"fleet-{self._fleets}"
        directory.mkdir()
        server = CampaignServer(
            directory / "server", run_cache=str(directory / "runs.sqlite")
        ).start()
        fleet = Fleet(server, ServiceClient(server.url), [], [], directory)
        try:
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, (str(SRC), env.get("PYTHONPATH")))
            )
            for index in range(FLEET_WORKERS):
                log = open(directory / f"worker-{index}.log", "wb")
                with log:
                    fleet.workers.append(subprocess.Popen(
                        [sys.executable, "-m", "repro.cli", "worker",
                         "--port", "0",
                         "--port-file", str(directory / f"worker-{index}.addr"),
                         "--announce", server.url],
                        stdout=log, stderr=subprocess.STDOUT, env=env,
                    ))
            self._await_fleet(fleet)
        except BaseException:
            self.close_env(fleet)
            raise
        return fleet

    @staticmethod
    def _await_fleet(fleet: Fleet, timeout_s: float = 60.0) -> None:
        """Wait until every worker listens and has announced itself."""
        deadline = time.monotonic() + timeout_s
        for index, worker in enumerate(fleet.workers):
            port_file = fleet.directory / f"worker-{index}.addr"
            while not (port_file.exists() and port_file.read_text().strip()):
                if worker.poll() is not None or time.monotonic() > deadline:
                    log = (fleet.directory / f"worker-{index}.log").read_text()
                    raise RuntimeError(f"fabric worker {index} did not start: {log}")
                time.sleep(0.01)
            fleet.addresses.append(port_file.read_text().strip())
        while fleet.server.fleet.gauges()["workers"] < len(fleet.workers):
            if time.monotonic() > deadline:
                raise RuntimeError("fabric workers never announced to the server")
            time.sleep(0.01)

    def _spec(self, app, fleet: Fleet) -> dict:
        return {
            "app": app.name,
            "workload": WORKLOAD,
            "backend": FLEET_BACKEND,
            "executor": "remote",
            "workers": fleet.addresses,
            "run_cache": fleet.server.url,
        }

    def _pass(self, fleet: Fleet) -> PassRecord:
        """Submit each app as a job; wait for it and fetch its report
        before submitting the next."""
        record = PassRecord()
        bodies = []
        started = time.perf_counter()
        for app in self.apps:
            begun = time.perf_counter()
            body = None
            try:
                meta = fleet.client.submit(self._spec(app, fleet))
                meta = fleet.client.wait(meta["id"])
                if meta["status"] == "done":
                    body = fleet.client.report_bytes(meta["id"])
                else:
                    record.failures.append(
                        f"{app.name}: job {meta['status']}: {meta.get('reason')}"
                    )
                record.jobs.append((begun, time.perf_counter(), meta))
            except (LoupeError, OSError) as error:
                record.failures.append(f"{app.name}: {type(error).__name__}: {error}")
            record.latencies_s.append(time.perf_counter() - begun)
            bodies.append((app.name, body))
        record.wall_s = time.perf_counter() - started
        for name, body in bodies:
            record.reports[name] = (
                canonical_digest(json.loads(body)) if body is not None else None
            )
        for _begun, _ended, meta in record.jobs:
            if meta.get("engine_stats"):
                record.stats = record.stats + EngineStats(**meta["engine_stats"])
        return record

    def iteration(self, fleet: Fleet, tracer=None) -> Iteration:
        cold = self._pass(fleet)
        _warm_phase(tracer)
        warm = self._pass(fleet)
        return Iteration(
            cold=cold, warm=warm, server_cache=fleet.server.cache.counters()
        )

    def close_env(self, fleet: Fleet) -> None:
        fleet.server.close()
        for worker in fleet.workers:
            worker.terminate()
        for worker in fleet.workers:
            try:
                worker.wait(timeout=10)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
        shutil.rmtree(fleet.directory, ignore_errors=True)

    def shutdown(self) -> None:
        pass


WORKLOADS = {
    workload.name: workload
    for workload in (CorpusSerial, CorpusProcessSqlite, FleetService)
}
