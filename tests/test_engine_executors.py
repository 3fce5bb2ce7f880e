"""Executor-equivalence tests: sharding never changes conclusions.

The engine's contract is that ``executor="serial"``, ``"process"``,
and ``"remote"`` are pure scheduling choices — every one of them must
produce byte-identical :class:`FeatureReport`s (and therefore
identical :class:`Database` payloads) for the same analysis. This
module pins that contract two ways:

* a property test over *generated* simulated programs (hypothesis
  drives op count, stub/fake reactions, and replica counts), and
* an exhaustive sweep over the hand-modeled appsim corpus.

It also covers the capability fallback: non-parallel-safe backends
and declared-but-unpicklable backends both run serially.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appsim.backend import SimBackend
from repro.appsim.behavior import (
    abort,
    breaks,
    breaks_core,
    disable,
    harmless,
    ignore,
    safe_default,
)
from repro.appsim.corpus import seven_apps
from repro.appsim.program import SimProgram, SyscallOp, WorkloadProfile
from repro.core.analyzer import Analyzer, AnalyzerConfig
from repro.core.engine import ProbeEngine
from repro.core.policy import stubbing
from repro.core.runner import BackendCapabilities, process_shardable
from repro.core.workload import benchmark, health_check
from repro.db import Database
from repro.fabric.worker import FabricWorker

EXECUTORS = ("serial", "process", "remote")


@pytest.fixture(scope="module")
def fleet():
    """Two live in-process fabric workers for the ``remote`` legs."""
    with FabricWorker() as one, FabricWorker() as two:
        yield (one.address, two.address)

#: Syscalls the generated programs draw ops from.
_SYSCALLS = ("read", "close", "uname", "prctl", "mmap", "brk", "fcntl")

_STUBS = (ignore, abort, safe_default, lambda: disable("extra"))
_FAKES = (harmless, breaks_core, lambda: breaks("extra"))


def _digest(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def _database_payload(results):
    return json.dumps(
        Database.collect(results).to_document(), sort_keys=True
    )


@st.composite
def _programs(draw):
    count = draw(st.integers(min_value=1, max_value=len(_SYSCALLS)))
    syscalls = draw(st.permutations(_SYSCALLS))[:count]
    ops = tuple(
        SyscallOp(
            syscall=syscall,
            feature="extra" if draw(st.booleans()) else "core",
            on_stub=_STUBS[draw(st.integers(0, len(_STUBS) - 1))](),
            on_fake=_FAKES[draw(st.integers(0, len(_FAKES) - 1))](),
        )
        for syscall in syscalls
    )
    return SimProgram(
        name="generated",
        version="1",
        ops=ops,
        features=frozenset({"core", "extra"}),
        profiles={"*": WorkloadProfile(metric=500.0)},
    )


def _analyze(program, workload, executor, replicas, workers=()):
    with Analyzer(AnalyzerConfig(
        replicas=replicas,
        parallel=1 if executor == "serial" else 3,
        executor=executor,
        workers=workers,
    )) as analyzer:
        return analyzer.analyze(SimBackend(program), workload)


class TestExecutorEquivalenceProperty:
    @settings(max_examples=12, deadline=None)
    @given(program=_programs(), replicas=st.integers(1, 3),
           measured=st.booleans())
    def test_all_executors_byte_identical(
        self, fleet, program, replicas, measured
    ):
        workload = (
            benchmark("bench", metric_name="req/s")
            if measured else health_check("health")
        )
        reference = _analyze(program, workload, "serial", replicas)
        for executor in ("process", "remote"):
            variant = _analyze(
                program, workload, executor, replicas,
                workers=fleet if executor == "remote" else (),
            )
            assert _digest(variant) == _digest(reference), executor
            for feature, report in reference.features.items():
                assert variant.features[feature] == report


class TestExecutorEquivalenceCorpus:
    @pytest.fixture(scope="class")
    def corpus_reference(self):
        apps = seven_apps()
        results = [
            _analyze_app(app, "serial") for app in apps
        ]
        return apps, results

    def test_process_matches_serial(self, corpus_reference):
        apps, reference = corpus_reference
        results = [_analyze_app(app, "process") for app in apps]
        for left, right in zip(reference, results):
            assert _digest(left) == _digest(right), (left.app, "process")
        assert _database_payload(results) == _database_payload(reference)

    def test_remote_matches_serial(self, corpus_reference, fleet):
        apps, reference = corpus_reference
        results = [
            _analyze_app(app, "remote", workers=fleet) for app in apps
        ]
        for left, right in zip(reference, results):
            assert _digest(left) == _digest(right), (left.app, "remote")
        assert _database_payload(results) == _database_payload(reference)


def _analyze_app(app, executor, workers=()):
    with Analyzer(AnalyzerConfig(
        parallel=1 if executor == "serial" else 4, executor=executor,
        workers=workers,
    )) as analyzer:
        return analyzer.analyze(
            app.backend(), app.workload("bench"),
            app=app.name, app_version=app.version,
        )


class TestCapabilityFallback:
    def test_unsafe_backend_serializes_under_process_executor(self):
        """No parallel_safe declaration -> strictly serial, even when
        the engine was asked for processes (observable through
        early-exit skipping every sibling after the first failure)."""

        class _Unsafe:
            name = "sim:unsafe"

            def __init__(self):
                self.calls = 0

            def run(self, workload, policy, *, replica=0):
                self.calls += 1
                from collections import Counter

                from repro.core.runner import RunResult
                return RunResult(success=False, traced=Counter({"read": 1}),
                                 failure_reason="always fails")

        backend = _Unsafe()
        with ProbeEngine(parallel=4, executor="process") as engine:
            outcome = engine.run_replicas(
                backend, benchmark("b", "m"), stubbing("close"), 3,
            )
        assert backend.calls == 1
        assert engine.stats.replicas_skipped == 2
        assert not outcome.all_succeeded

    def test_unpicklable_backend_degrades_to_serial(self):
        """process_safe declared but the object cannot cross a process
        boundary -> serial execution, not a pool crash."""
        program = SimProgram(
            name="local", version="1",
            ops=(SyscallOp(syscall="read", on_stub=ignore(),
                           on_fake=harmless()),),
            profiles={"*": WorkloadProfile(metric=10.0)},
        )

        class _Wrapper:
            def __init__(self, inner):
                self._inner = inner
                self.name = inner.name
                self._poison = lambda: None  # unpicklable on purpose

            def capabilities(self):
                return BackendCapabilities(
                    deterministic=True, parallel_safe=True,
                    process_safe=True,
                )

            def run(self, workload, policy, *, replica=0):
                return self._inner.run(workload, policy, replica=replica)

        backend = _Wrapper(SimBackend(program))
        assert not process_shardable(backend)
        with Analyzer(AnalyzerConfig(parallel=3, executor="process")) \
                as analyzer:
            assert analyzer.engine.mode_for(backend) == "serial"
            result = analyzer.analyze(backend, health_check("health"))
        reference = _analyze(program, health_check("health"), "serial", 3)
        assert _digest(result) == _digest(reference)

    def test_process_shardable_requires_declaration(self):
        backend = SimBackend(SimProgram(
            name="declared", version="1",
            ops=(SyscallOp(syscall="read", on_stub=ignore(),
                           on_fake=harmless()),),
        ))
        assert process_shardable(backend)
        backend.process_safe = False
        assert not process_shardable(backend)
