"""The probe engine talks to a persistent store once each way per batch.

A scheduling call prefetches every key its LRU cannot answer with one
``get_many`` before it runs anything, and publishes every run it
executed with one ``put_many`` when it ends — on the serial, process
and remote executors alike, and also when the batch raises. These
tests pin that traffic shape with a counting store, and pin that the
prefetch changes no accounting: a prefetched record is a hit only
when a run consumes it.
"""

from __future__ import annotations

import pytest

from repro.appsim.backend import SimBackend
from repro.appsim.behavior import abort, harmless, ignore
from repro.appsim.program import SimProgram, SyscallOp, WorkloadProfile
from repro.core.cachestore import JsonlRunCache
from repro.core.engine import ProbeEngine
from repro.core.faults import (
    ChaosBackend,
    ChaosSpec,
    FaultPolicy,
    ProbeFaultError,
)
from repro.core.policy import stubbing
from repro.core.workload import health_check
from repro.fabric.worker import FabricWorker

_PROGRAM = SimProgram(
    name="batched",
    version="1",
    ops=(
        SyscallOp(syscall="read", on_stub=ignore(), on_fake=harmless()),
        SyscallOp(syscall="uname", on_stub=ignore(), on_fake=harmless()),
        SyscallOp(syscall="close", on_stub=abort(), on_fake=harmless()),
        SyscallOp(syscall="prctl", on_stub=ignore(), on_fake=harmless()),
    ),
    profiles={"*": WorkloadProfile(metric=500.0)},
)

_WORKLOAD = health_check("health")

_POLICIES = tuple(
    stubbing(syscall) for syscall in ("read", "uname", "close", "prctl")
)

EXECUTORS = ("serial", "process", "remote")


@pytest.fixture(scope="module")
def fleet():
    """Two live in-process fabric workers for the ``remote`` legs."""
    with FabricWorker() as one, FabricWorker() as two:
        yield (one.address, two.address)


class _CountingStore:
    """A JSONL store that records every call the engine makes on it."""

    def __init__(self, path) -> None:
        self.inner = JsonlRunCache(path)
        self.calls: list[tuple[str, int]] = []

    def get_many(self, keys):
        self.calls.append(("get_many", len(keys)))
        return self.inner.get_many(keys)

    def put_many(self, items):
        self.calls.append(("put_many", len(items)))
        self.inner.put_many(items)

    def get(self, key):
        self.calls.append(("get", 1))
        return self.inner.get(key)

    def put(self, key, result, *, policy=None):
        self.calls.append(("put", 1))
        self.inner.put(key, result, policy=policy)

    def __len__(self) -> int:
        return len(self.inner)

    def names(self) -> list[str]:
        return [name for name, _count in self.calls]


def _engine(executor, fleet, store, **kwargs) -> ProbeEngine:
    return ProbeEngine(
        executor=executor,
        parallel=1 if executor == "serial" else 2,
        workers=fleet if executor == "remote" else (),
        store=store,
        **kwargs,
    )


def _balanced(stats) -> bool:
    return stats.runs_requested == (
        stats.runs_executed + stats.cache_hits
        + stats.replicas_skipped + stats.faulted
    )


@pytest.mark.parametrize("executor", EXECUTORS)
class TestOneRoundTripPerBatch:
    def test_cold_then_warm_batch(self, tmp_path, fleet, executor):
        store = _CountingStore(tmp_path / "runs.jsonl")
        with _engine(executor, fleet, store) as cold:
            outcomes = cold.run_probe_batch(
                SimBackend(_PROGRAM), _WORKLOAD, _POLICIES, 3,
                early_exit=False,
            )
        assert store.names() == ["get_many", "put_many"]
        assert store.calls == [("get_many", 12), ("put_many", 12)]
        assert cold.stats.runs_executed == 12
        assert len(store) == 12

        store.calls.clear()
        with _engine(executor, fleet, store) as warm:
            again = warm.run_probe_batch(
                SimBackend(_PROGRAM), _WORKLOAD, _POLICIES, 3,
                early_exit=False,
            )
        # Everything answered from the prefetch: nothing to publish.
        assert store.calls == [("get_many", 12)]
        assert warm.stats.runs_executed == 0
        assert warm.stats.persistent_hits == 12
        assert again == outcomes

    def test_lru_hits_are_not_looked_up(self, tmp_path, fleet, executor):
        store = _CountingStore(tmp_path / "runs.jsonl")
        with _engine(executor, fleet, store) as engine:
            backend = SimBackend(_PROGRAM)
            engine.run_probe_batch(
                backend, _WORKLOAD, _POLICIES[:2], 3, early_exit=False
            )
            store.calls.clear()
            engine.run_probe_batch(
                backend, _WORKLOAD, _POLICIES, 3, early_exit=False
            )
        # Only the two policies the LRU has never seen are prefetched.
        assert store.calls == [("get_many", 6), ("put_many", 6)]
        assert engine.stats.persistent_hits == 0
        assert engine.stats.cache_hits == 6


@pytest.mark.parametrize("executor", ("serial", "process"))
def test_prefetched_replica_skipped_by_early_exit_is_not_a_hit(
    tmp_path, fleet, executor
):
    store = _CountingStore(tmp_path / "runs.jsonl")
    failing = (stubbing("close"),)
    with _engine(executor, fleet, store) as warmer:
        warmer.run_probe_batch(
            SimBackend(_PROGRAM), _WORKLOAD, failing, 3, early_exit=False
        )
    assert len(store) == 3

    store.calls.clear()
    with _engine(executor, fleet, store) as engine:
        [outcome] = engine.run_probe_batch(
            SimBackend(_PROGRAM), _WORKLOAD, failing, 3, early_exit=True
        )
    # All three replicas were prefetched; the first one's failure
    # ends the probe, so only it is consumed.
    assert store.calls == [("get_many", 3)]
    assert not outcome.all_succeeded
    stats = engine.stats
    assert stats.cache_hits == stats.persistent_hits == 1
    assert stats.replicas_skipped == 2
    assert stats.runs_executed == 0
    assert _balanced(stats)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_failed_batch_still_persists_its_completed_runs(
    tmp_path, fleet, executor
):
    chaos = ChaosBackend(
        SimBackend(_PROGRAM),
        ChaosSpec(seed=1, error_features=frozenset({"prctl"})),
    )
    store = _CountingStore(tmp_path / "runs.jsonl")
    with _engine(
        executor, fleet, store,
        fault_policy=FaultPolicy(retries=1, retry_backoff_s=0.0),
    ) as engine:
        with pytest.raises(ProbeFaultError):
            engine.run_probe_batch(
                chaos, _WORKLOAD, _POLICIES, 3, early_exit=False
            )
    # Every run the engine accounted as executed was published, in
    # one put_many. (On the sharded executors, how many chunks land
    # before the failing one depends on completion order.)
    executed = engine.stats.runs_executed
    assert store.calls[0] == ("get_many", 12)
    assert store.calls[1:] == ([("put_many", executed)] if executed else [])
    assert len(store) == executed
    if executor == "serial":
        # read, uname and close ran all their replicas before prctl
        # raised on its first.
        assert executed == 9
