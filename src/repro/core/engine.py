"""The probe execution engine: sharded run scheduling + result caching.

The paper's run-time model (Section 3.3, ``(2 + 2·t·s) · ceil(r/p)``)
assumes Loupe amortizes its run cost over a parallelism factor ``p``.
This module supplies that ``p``: a :class:`ProbeEngine` turns the
analyzer's implicit run loop into an explicit scheduler that

* fans run requests out over a pluggable executor —
  ``executor="serial"`` runs every probe inline in the exact
  historical order, ``"process"`` shards runs over a
  ``ProcessPoolExecutor`` in pickled chunks for backends that declare
  themselves process-safe, and ``"remote"`` ships the same chunks to
  a TCP worker fleet (:mod:`repro.fabric`); ``"auto"``, the default,
  means serial, because no sharded path beats it on a simulated
  campaign,
* accepts whole probe *batches* (:meth:`ProbeEngine.run_probe_batch`):
  every ``(policy, replica)`` pair of an analysis stage is submitted
  up front, so the pool stays full across features instead of
  draining at each feature boundary,
* short-circuits the remaining replicas of a probe as soon as one
  replica fails — the conservative merge in
  :class:`~repro.core.replicas.ProbeOutcome` only needs a single
  failure, and metric samples are only consumed on success,
* memoizes :class:`~repro.core.runner.RunResult`s in an LRU cache
  keyed by ``(backend.name, workload.name, policy.fingerprint(),
  replica)``, so the combined-run confirmation and the ddmin conflict
  bisection never re-pay for a run the probe phase already executed,
* optionally spills every executed run to a persistent run-cache
  store (:mod:`repro.core.cachestore`, same key), so repeated
  campaigns — new processes, new sessions, CI re-runs — start warm.
  A scheduling call talks to the store twice at most: one
  ``get_many`` prefetch of the keys the LRU cannot answer before it
  runs anything, and one ``put_many`` of the runs it executed when it
  ends, raising or not — one round trip each way per batch on the
  HTTP store, one transaction each on SQLite.

Correctness contract: a run may only be answered from either cache when
the backend is deterministic for a fixed ``(workload, policy,
replica)`` triple. Backends declare this through their capability
contract (:func:`~repro.core.runner.capabilities_of`; the simulation
backend declares ``deterministic`` — it is reproducible by
construction); backends that do not — notably the real ptrace
backend, whose runs are replicated precisely *because* they are not
reproducible — are never served from the caches, even when caching is
enabled. Under that contract the caches never change
*what* an analysis concludes, only how many runs it takes to conclude
it. Cache keys assume ``backend.name`` uniquely identifies the
application build — callers analyzing two different programs behind
identically-named backends must use separate engines (the
:class:`~repro.core.analyzer.Analyzer` clears its engine at the start
of every analysis for exactly this reason) and, when persisting,
separate cache files (the simulation backends embed name *and*
version in their backend name for exactly this reason).

Executor fallback is per-backend and always conservative: a backend
whose capabilities do not include ``parallel_safe``, or that fails
:func:`~repro.core.runner.process_shardable` (capabilities without
``process_safe``, or not picklable), runs serially no matter what was
requested. Capability descriptors resolve once per backend object
through :meth:`ProbeEngine.capabilities_for`.

Run submission (:meth:`ProbeEngine.run` / :meth:`ProbeEngine.run_replicas`
/ :meth:`ProbeEngine.run_probe_batch`) is thread-safe; the engine is
shared freely between worker threads.

Fault tolerance (:mod:`repro.core.faults`): an engine built with a
:class:`~repro.core.faults.FaultPolicy` gives every run a wall-clock
timeout and bounded retries, classifies exhausted runs by the fault
taxonomy, and — under ``on_fault="degrade"`` — quarantines them as
:class:`~repro.core.faults.ProbeFault` entries on the outcome instead
of aborting the campaign. A dead worker no longer poisons the batch
either: the process pool and the remote fleet share one chunk-dispatch
loop (:meth:`ProbeEngine._dispatch_chunks`), which re-enqueues only
the runs of each lost chunk (bounded by the retry budget) — the shared
process pool is rebuilt once per break — and emits one
:class:`~repro.core.faults.PoolRecoveredNotice` per lost chunk.

Accounting invariant: ``runs_requested`` counts every run a caller
asked for — including replicas that early exit later skips — so
``runs_requested == runs_executed + cache_hits + replicas_skipped +
faulted`` holds after every scheduling call, on every executor.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import dataclasses
import multiprocessing
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures.process import BrokenProcessPool

from repro.core.faults import (
    FAULT_WORKER_CRASH,
    FaultNotice,
    FaultPolicy,
    PoolRecoveredNotice,
    ProbeFault,
    ProbeFaultError,
    ProbeRunError,
    RetryNotice,
    describe_probe_error,
    guarded_run,
)
from repro.core.policy import InterpositionPolicy
from repro.core.replicas import ProbeOutcome, aggregate
from repro.core.cachestore import RunCacheBackend
from repro.core.runner import (
    BackendCapabilities,
    ExecutionBackend,
    RunResult,
    backend_name,
    capabilities_of,
    process_shardable,
)
from repro.core.workload import Workload

#: Default LRU capacity: comfortably holds every run of one analysis
#: (hundreds of features x 2 actions x a handful of replicas).
DEFAULT_CACHE_SIZE = 4096

#: Cache key: (backend name, workload name, policy fingerprint, replica).
CacheKey = tuple[str, str, str, int]

#: Accepted values of ``ProbeEngine(executor=...)``.
EXECUTORS = ("auto", "serial", "process", "remote")

#: Target chunks per process-pool worker: enough slack for the pool to
#: load-balance, few enough that per-chunk IPC stays negligible.
_CHUNKS_PER_WORKER = 8

#: The process-wide shared worker-process pool (see
#: :func:`_shared_process_pool`). Starting worker processes is the
#: single most expensive thing this module does — every engine of the
#: process shares one pool instead of paying it per analysis.
_PROCESS_POOL: "concurrent.futures.ProcessPoolExecutor | None" = None
_PROCESS_POOL_WIDTH = 0
_POOL_LOCK = threading.Lock()
#: Pools displaced by a wider request. They stay alive — an engine
#: that fetched one may still be mid-batch, and shutting it down under
#: that engine would abort the analysis — until
#: :func:`shutdown_worker_pools` reclaims everything. Bounded by the
#: number of distinct pool growths in one process (rare: campaigns
#: run at one width).
_RETIRED_POOLS: list[concurrent.futures.ProcessPoolExecutor] = []


def _process_context() -> "multiprocessing.context.BaseContext":
    """The start method for process sharding.

    Plain fork is only safe while the process is still
    single-threaded: forking under another thread's held lock
    (session-level ``jobs`` workers, a store flushing its file) can
    deadlock the child. So fork is used exactly when that holds at
    pool start — otherwise workers come from forkserver's clean
    single-threaded helper (or spawn where forkserver is missing).
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    if "forkserver" in methods:
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context("spawn")


def _shared_process_pool(width: int) -> concurrent.futures.Executor:
    """The process-wide worker-process pool, at least *width* wide.

    Worker processes are expensive to start (fork-eagerly, or a full
    interpreter under spawn/forkserver) and hold no per-analysis
    state: tasks carry everything they need. So one pool
    serves every engine of the process, created on first use and
    grown (never shrunk) when a wider engine comes along; a campaign
    over N applications pays pool start-up once, not N times.
    ``ProbeEngine.close()`` deliberately leaves it alone; call
    :func:`shutdown_worker_pools` to reclaim the workers explicitly.
    """
    global _PROCESS_POOL, _PROCESS_POOL_WIDTH
    with _POOL_LOCK:
        if _PROCESS_POOL is None or _PROCESS_POOL_WIDTH < width:
            if _PROCESS_POOL is not None:
                # Never shut a displaced pool down here: an engine
                # that fetched it may still be submitting chunks.
                _RETIRED_POOLS.append(_PROCESS_POOL)
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=width, mp_context=_process_context()
            )
            # Force the workers to start now, while the thread picture
            # the context choice was based on still holds (a fork
            # context must not fork later, once callers go threaded).
            pool.submit(int).result()
            _PROCESS_POOL, _PROCESS_POOL_WIDTH = pool, width
        return _PROCESS_POOL


def _replace_broken_process_pool(broken: concurrent.futures.Executor) -> None:
    """Retire *broken* so the next fetch starts a fresh process pool.

    Identity-guarded: if another engine already replaced the shared
    pool (two engines share one pool, so one dead worker breaks both),
    the healthy replacement is left alone and only *broken* is shut
    down. Shutdown of a broken pool is quick — its workers are gone.
    """
    global _PROCESS_POOL, _PROCESS_POOL_WIDTH
    with _POOL_LOCK:
        if _PROCESS_POOL is broken:
            _PROCESS_POOL = None
            _PROCESS_POOL_WIDTH = 0
        elif broken in _RETIRED_POOLS:
            _RETIRED_POOLS.remove(broken)
    broken.shutdown(wait=True)


def shutdown_worker_pools() -> None:
    """Shut the shared worker-process pool down (idempotent).

    The next process-sharded run transparently starts a fresh pool.
    Registered at interpreter exit; long-lived embedders can call it
    earlier to reclaim the worker processes.
    """
    global _PROCESS_POOL, _PROCESS_POOL_WIDTH
    with _POOL_LOCK:
        pools = list(_RETIRED_POOLS)
        _RETIRED_POOLS.clear()
        if _PROCESS_POOL is not None:
            pools.append(_PROCESS_POOL)
        _PROCESS_POOL = None
        _PROCESS_POOL_WIDTH = 0
    for pool in pools:
        pool.shutdown(wait=True)


atexit.register(shutdown_worker_pools)


def _execute_chunk(
    backend: ExecutionBackend,
    workload: Workload,
    tasks: Sequence[tuple[int, int, InterpositionPolicy]],
    early_exit: bool,
    fault_policy: "FaultPolicy | None" = None,
) -> "list[tuple[int, int, RunResult | ProbeFault]]":
    """Execute a contiguous slice of a batch inside one worker process.

    Process sharding ships tasks in chunks so the backend is pickled
    once per chunk instead of once per run — at thousands of
    microsecond-scale simulated runs, per-task IPC would otherwise eat
    the sharding win. ``tasks`` are ``(probe_index, replica, policy)``
    triples in submission order; with *early_exit* the worker skips
    the later replicas of a probe that already failed inside this
    chunk (the same replicas the serial path would skip), and the
    scheduler accounts anything absent from the return as skipped.

    Backend exceptions never cross the process boundary raw: without a
    fault policy they re-raise as :class:`ProbeRunError` carrying the
    probe key (a pickled anonymous traceback identifies nothing);
    with an active policy each run goes through :func:`guarded_run` —
    the same timeout/retry semantics as the scheduling process — and
    exhausted runs come back as :class:`ProbeFault` rows (degrade) or
    raise :class:`ProbeFaultError` (fail). Faulted probes do not
    trigger the in-chunk skip: only a *decided* failure does.
    """
    results: "list[tuple[int, int, RunResult | ProbeFault]]" = []
    failed: set[int] = set()
    guarded = fault_policy is not None and fault_policy.active
    for probe_index, replica, policy in tasks:
        if early_exit and probe_index in failed:
            continue
        if guarded:
            outcome = guarded_run(
                backend, workload, policy, replica, fault_policy
            )
            if outcome.faulted:
                fault = outcome.fault(workload, policy, replica)
                if not fault_policy.degrade:
                    raise ProbeFaultError(fault)
                results.append((probe_index, replica, fault))
                continue
            result = outcome.result
        else:
            try:
                result = backend.run(workload, policy, replica=replica)
            except (ProbeRunError, ProbeFaultError):
                raise
            except Exception as error:
                raise ProbeRunError(
                    describe_probe_error(workload, policy, replica, error)
                ) from error
        results.append((probe_index, replica, result))
        if not result.success:
            failed.add(probe_index)
    return results


class _ProcessChunkPool:
    """The shared process pool behind the fabric's chunk-event contract.

    Gives ``ProcessPoolExecutor`` futures the ``FabricExecutor`` event
    shape (the futures are the chunk ids), so one loop —
    :meth:`ProbeEngine._dispatch_chunks` — serves both transports. A
    future raising ``BrokenProcessPool`` (its worker died) is *lost*;
    any other exception is *failed*. A dead worker breaks the whole
    pool: the pool's first lost chunk replaces it, its other lost
    chunks find it replaced, so the pool is rebuilt once per break. A
    ``submit`` that hits a broken or shut-down pool replaces it too
    and retries once.
    """

    def __init__(self, width: int) -> None:
        self._width = width
        self._pool = _shared_process_pool(self._width)
        #: In-flight future -> the pool it was submitted to.
        self._futures: dict[
            concurrent.futures.Future, concurrent.futures.Executor
        ] = {}

    def _replace(self, broken: concurrent.futures.Executor) -> None:
        if broken is self._pool:
            _replace_broken_process_pool(broken)
            self._pool = _shared_process_pool(self._width)

    def submit(self, job: tuple) -> concurrent.futures.Future:
        try:
            future = self._pool.submit(_execute_chunk, *job)
        except RuntimeError:
            # The shared pool was shut down under us, or a worker died
            # before this chunk was accepted (BrokenProcessPool is a
            # RuntimeError): retire the dead pool — else the re-fetch
            # hands back the same one — and retry once on a fresh pool.
            self._replace(self._pool)
            future = self._pool.submit(_execute_chunk, *job)
        self._futures[future] = self._pool
        return future

    def next_event(self) -> "tuple[str, concurrent.futures.Future, object]":
        """Block until a chunk completes, fails, or is lost."""
        done, _ = concurrent.futures.wait(
            self._futures, return_when=concurrent.futures.FIRST_COMPLETED
        )
        future = done.pop()
        pool = self._futures.pop(future)
        try:
            return "done", future, future.result()
        except concurrent.futures.CancelledError:
            return "done", future, []  # never ran: its runs count as skipped
        except BrokenProcessPool as error:
            self._replace(pool)
            return "lost", future, error
        except Exception as error:
            return "failed", future, error

    def cancel(self) -> None:
        for future in self._futures:
            future.cancel()


@dataclasses.dataclass(frozen=True)
class EngineStats:
    """Immutable snapshot of one engine's run accounting.

    ``runs_requested`` counts every run the analysis asked for,
    including replicas that early exit never started;
    ``runs_executed`` the subset that actually reached the backend;
    ``cache_hits`` the subset answered from either cache, of which
    ``persistent_hits`` came from the on-disk store rather than this
    engine's own LRU; ``replicas_skipped`` the replicas never run
    because an earlier replica of the same probe already failed
    (early exit); ``faulted`` the runs the fault policy quarantined
    (timeout / worker-crash / backend-error / torn-result), which
    therefore produced no result. ``runs_requested == runs_executed +
    cache_hits + replicas_skipped + faulted`` always holds.
    """

    runs_requested: int = 0
    runs_executed: int = 0
    cache_hits: int = 0
    replicas_skipped: int = 0
    persistent_hits: int = 0
    faulted: int = 0

    def __add__(self, other: "EngineStats") -> "EngineStats":
        """Field-wise total, e.g. folding per-analysis stats into a
        campaign total (new counters join automatically)."""
        if not isinstance(other, EngineStats):
            return NotImplemented
        return EngineStats(**{
            field.name: getattr(self, field.name) + getattr(other, field.name)
            for field in dataclasses.fields(self)
        })

    @property
    def hit_rate(self) -> float:
        """Fraction of requested runs answered from the caches."""
        if self.runs_requested == 0:
            return 0.0
        return self.cache_hits / self.runs_requested

    @property
    def persistent_hit_rate(self) -> float:
        """Fraction of requested runs answered from the on-disk store."""
        if self.runs_requested == 0:
            return 0.0
        return self.persistent_hits / self.runs_requested

    def describe(self) -> str:
        base = (
            f"{self.runs_requested} run(s) requested, "
            f"{self.runs_executed} executed, "
            f"{self.cache_hits} cache hit(s) ({self.hit_rate:.0%}), "
            f"{self.replicas_skipped} replica(s) early-exited"
        )
        if self.persistent_hits:
            base += f", {self.persistent_hits} from the persistent cache"
        if self.faulted:
            base += f", {self.faulted} run(s) faulted"
        return base


@dataclasses.dataclass
class _StoreBatch:
    """One scheduling call's traffic with the persistent store, local
    to that call (the engine is shared between threads): the records
    its ``get_many`` prefetch found, and the executed runs its
    ``put_many`` will publish."""

    hits: "dict[CacheKey, RunResult]" = dataclasses.field(
        default_factory=dict
    )
    pending: "list[tuple[CacheKey, RunResult, dict | None]]" = (
        dataclasses.field(default_factory=list)
    )


class ProbeEngine:
    """Schedules probe runs over a pluggable executor with run caching.

    Parameters
    ----------
    parallel:
        Width of the worker-process pool under ``executor="process"``;
        ``1`` (the default) runs every replica inline on the calling
        thread, byte-for-byte preserving the serial execution order.
        The other executors ignore it for scheduling (the analyzer
        still sizes its probe waves from it).
    executor:
        The sharding strategy: ``"process"`` shards runs over a
        ``ProcessPoolExecutor`` at ``parallel > 1``, ``"remote"``
        ships them to the *workers* fleet (both only for backends
        passing :func:`~repro.core.runner.process_shardable` — others
        run serially), and ``"serial"`` and ``"auto"`` (the default)
        run every probe inline.
    cache:
        Enable run-result memoization. Disabling it forces every
        request through the backend (useful for benchmarking the raw
        run cost). Even when enabled, only backends whose capability
        contract declares ``deterministic`` are ever answered from a
        cache.
    cache_size:
        Maximum cached :class:`RunResult`s before least-recently-used
        eviction (this engine's in-memory LRU only; the persistent
        store bounds itself — SQLite evicts under its own
        ``max_entries``).
    store:
        Optional persistent run-cache store (any
        :class:`~repro.core.cachestore.RunCacheBackend` —
        :func:`~repro.core.cachestore.open_store` builds one from a
        path). Each scheduling call prefetches the keys its LRU cannot
        answer with one ``get_many`` before reaching the backend, and
        publishes every cacheable run it executed with one
        ``put_many`` when it ends (also when it raises), so later
        campaigns sharing the store start warm. A prefetched record
        counts as a hit only when a run consumes it. Survives
        :meth:`reset` — cross-campaign reuse is its entire point.
    fault_policy:
        Optional :class:`~repro.core.faults.FaultPolicy`. When active,
        every run gets a wall-clock timeout and bounded retries;
        exhausted runs either abort the campaign as
        :class:`~repro.core.faults.ProbeFaultError` (``on_fault=
        "fail"``) or are quarantined as
        :class:`~repro.core.faults.ProbeFault` entries on the
        :class:`~repro.core.replicas.ProbeOutcome` (``"degrade"``).
        ``None`` (the default) keeps the historical fast path: raw
        exception propagation, zero per-run overhead.
    on_notice:
        Optional callback receiving fault-activity notices
        (:class:`~repro.core.faults.RetryNotice` /
        :class:`~repro.core.faults.FaultNotice` /
        :class:`~repro.core.faults.PoolRecoveredNotice`) from the
        scheduling thread; the analyzer adapts them into typed
        session events. Also assignable later via ``notice_sink``.
    """

    def __init__(
        self,
        *,
        parallel: int = 1,
        cache: bool = True,
        cache_size: int = DEFAULT_CACHE_SIZE,
        executor: str = "auto",
        store: "RunCacheBackend | None" = None,
        fault_policy: "FaultPolicy | None" = None,
        on_notice: "Callable[[object], None] | None" = None,
        workers: "Sequence[str]" = (),
    ) -> None:
        if parallel < 1:
            raise ValueError("parallel must be >= 1")
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from: "
                f"{', '.join(EXECUTORS)}"
            )
        if executor == "remote" and not workers:
            raise ValueError(
                "the remote executor needs at least one worker address "
                "(workers=('host:port', ...))"
            )
        if store is not None and not cache:
            # cache=False means "every request reaches the backend";
            # silently ignoring the store the caller asked for would
            # be worse than refusing the contradiction.
            raise ValueError(
                "a persistent run-cache store requires cache=True"
            )
        self.parallel = parallel
        self.executor = executor
        self.workers = tuple(workers)
        #: Lazily-connected fabric client (``executor="remote"`` only);
        #: built on the first remote dispatch, torn down by ``close``.
        self._fabric = None
        self.cache_enabled = cache
        self.cache_size = cache_size
        self.store = store
        self.fault_policy = fault_policy
        #: Fault-activity callback; reassignable (the analyzer points
        #: it at the live event stream for the duration of an analysis).
        self.notice_sink = on_notice
        self._lock = threading.Lock()
        self._cache: OrderedDict[CacheKey, RunResult] = OrderedDict()
        self._requested = 0
        self._executed = 0
        self._hits = 0
        self._skipped = 0
        self._persistent_hits = 0
        self._faulted = 0
        #: id(backend) -> (backend, BackendCapabilities); resolved once
        #: per backend object, not per run. The backend reference pins
        #: the id so a descriptor can never be served to a recycled
        #: object.
        self._capability_cache: dict[
            int, tuple[object, BackendCapabilities]
        ] = {}
        #: id(backend) -> (backend, process_shardable(backend)); same
        #: id-pinning contract as the capability cache.
        self._shard_verdicts: dict[int, tuple[object, bool]] = {}

    # -- lifecycle ---------------------------------------------------------

    @property
    def executor_name(self) -> str:
        """The resolved sharding strategy (``serial``/``process``/``remote``).

        Per-backend capability fallback can still demote an individual
        scheduling call to ``serial`` (see :meth:`mode_for`).
        ``remote`` resolves regardless of ``parallel`` — fleet width
        comes from the worker count, not this engine's pool width.
        """
        if self.executor == "remote":
            return "remote"
        if self.executor == "process" and self.parallel > 1:
            return "process"
        return "serial"

    def close(self) -> None:
        """Release this engine's hold on scheduling state (idempotent).

        The worker-process pool is process-wide and deliberately
        survives this call for the other engines of the process
        (:func:`shutdown_worker_pools` reclaims it explicitly); the
        engine stays usable, re-fetching the pool — at the *current*
        ``parallel`` width — on the next scheduling call. The fabric
        connection, by contrast, is this engine's own: it is torn down
        here (workers survive a scheduler hangup and serve the next
        connection). Kept as an explicit lifecycle
        point so analyzers and sessions can context-manage engines
        uniformly.
        """
        self._close_fabric()

    def _fabric_client(self):
        """The lazily-connected fleet client (remote executor only)."""
        if self._fabric is None:
            # Imported here, not at module level: the fabric worker
            # imports this module for ``_execute_chunk``.
            from repro.fabric.executor import FabricExecutor

            self._fabric = FabricExecutor(self.workers).connect()
        return self._fabric

    def _close_fabric(self) -> None:
        fabric, self._fabric = self._fabric, None
        if fabric is not None:
            fabric.close()

    def __enter__(self) -> "ProbeEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def capabilities_for(self, backend: ExecutionBackend) -> BackendCapabilities:
        """The backend's capability descriptor, resolved once per object.

        Memoizing here keeps the hot paths (`_cacheable` runs per
        scheduled run) off the descriptor resolution, a call into the
        backend's ``capabilities()``. Cleared on :meth:`reset`.
        """
        with self._lock:
            cached = self._capability_cache.get(id(backend))
        if cached is not None and cached[0] is backend:
            return cached[1]
        capabilities = capabilities_of(backend)
        with self._lock:
            # The strong backend reference keeps the id stable for the
            # descriptor's lifetime (cleared on reset).
            self._capability_cache[id(backend)] = (backend, capabilities)
        return capabilities

    def mode_for(self, backend: ExecutionBackend) -> str:
        """The executor one backend's probes actually get.

        Sharding requires the backend's capability contract to declare
        ``parallel_safe``: overlapping replicas of a live command (the
        ptrace backend) would contend on ports and on-disk state and
        corrupt each other's outcomes. Both sharded executors ship the
        backend as a pickle — to a pool child or over a socket — so
        the backend must also survive pickling; one that does not runs
        serially rather than failing inside the pool. The (potentially
        costly) pickle check runs once per backend object, not once
        per scheduling call — the verdict cannot change mid-analysis.
        """
        kind = self.executor_name
        if kind == "serial":
            return "serial"
        capabilities = self.capabilities_for(backend)
        if not capabilities.parallel_safe:
            return "serial"
        with self._lock:
            cached = self._shard_verdicts.get(id(backend))
        if cached is not None and cached[0] is backend:
            shardable = cached[1]
        else:
            shardable = process_shardable(backend, capabilities=capabilities)
            with self._lock:
                # The strong backend reference keeps the id stable for
                # the verdict's lifetime (cleared on reset).
                self._shard_verdicts[id(backend)] = (backend, shardable)
        return kind if shardable else "serial"

    # -- accounting --------------------------------------------------------

    @property
    def stats(self) -> EngineStats:
        """A consistent snapshot of the run accounting so far."""
        with self._lock:
            return EngineStats(
                runs_requested=self._requested,
                runs_executed=self._executed,
                cache_hits=self._hits,
                replicas_skipped=self._skipped,
                persistent_hits=self._persistent_hits,
                faulted=self._faulted,
            )

    def reset(self) -> None:
        """Drop the LRU, zero the statistics, forget backend verdicts.

        The next scheduling call re-fetches the shared pool at the
        current ``parallel`` width, so resizing an engine between
        campaigns takes effect here (a wider width grows the shared
        pool; narrower engines simply use fewer of its slots). The
        persistent store — whose entire purpose is surviving campaign
        boundaries — is deliberately left alone.
        """
        self.close()
        with self._lock:
            self._cache.clear()
            self._capability_cache.clear()
            self._shard_verdicts.clear()
            self._requested = 0
            self._executed = 0
            self._hits = 0
            self._skipped = 0
            self._persistent_hits = 0
            self._faulted = 0

    def cached_runs(self) -> int:
        with self._lock:
            return len(self._cache)

    # -- caching -----------------------------------------------------------

    @staticmethod
    def _key(
        backend: ExecutionBackend,
        workload: Workload,
        policy: InterpositionPolicy,
        replica: int,
    ) -> CacheKey:
        return (
            backend_name(backend), workload.name,
            policy.fingerprint(), replica,
        )

    def _cacheable(self, backend: ExecutionBackend) -> bool:
        return (
            self.cache_enabled
            and self.capabilities_for(backend).deterministic
        )

    def _evict_locked(self) -> None:
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def _prefetch(
        self,
        backend: ExecutionBackend,
        workload: Workload,
        runs: "Iterable[tuple[InterpositionPolicy, int]]",
    ) -> "_StoreBatch":
        """Open one scheduling call's store traffic: a single
        ``get_many`` for the keys of *runs* the LRU cannot answer.

        Without a store, or for a backend that is not cacheable, no
        key is looked up and nothing will be published.
        """
        batch = _StoreBatch()
        if self.store is None or not self._cacheable(backend):
            return batch
        keys = dict.fromkeys(
            self._key(backend, workload, policy, replica)
            for policy, replica in runs
        )
        with self._lock:
            misses = [key for key in keys if key not in self._cache]
        if misses:
            batch.hits = self.store.get_many(misses)
        return batch

    def _publish(self, batch: "_StoreBatch") -> None:
        """Close one scheduling call's store traffic: a single
        ``put_many`` of every run it executed."""
        if batch.pending:
            self.store.put_many(batch.pending)

    def _lookup(
        self, key: CacheKey, batch: "_StoreBatch"
    ) -> "RunResult | None":
        """Answer a cacheable run from the LRU, then from the batch's
        prefetch; counts the hit."""
        with self._lock:
            hit = self._cache.get(key)
            if hit is not None:
                self._cache.move_to_end(key)
                self._hits += 1
                return hit
            persisted = batch.hits.get(key)
            if persisted is not None:
                self._hits += 1
                self._persistent_hits += 1
                self._cache[key] = persisted  # promote into the LRU
                self._cache.move_to_end(key)
                self._evict_locked()
            return persisted

    def _record(
        self,
        key: "CacheKey | None",
        result: RunResult,
        policy: "InterpositionPolicy | None",
        batch: "_StoreBatch",
    ) -> None:
        """Account one executed run; memoize it when *key* is cacheable
        and queue it for the batch's ``put_many``.

        The policy rides along to the persistent store so ``loupe
        cache verify`` can later re-execute the record (the key's
        fingerprint is lossy and cannot be reversed into a policy).
        """
        with self._lock:
            self._executed += 1
            if key is not None:
                self._cache[key] = result
                self._cache.move_to_end(key)
                self._evict_locked()
        if key is not None and self.store is not None:
            batch.pending.append((
                key, result,
                policy.to_dict() if policy is not None else None,
            ))

    # -- fault handling ----------------------------------------------------

    def _notify(self, notice: object) -> None:
        sink = self.notice_sink
        if sink is not None:
            sink(notice)

    def _account_fault(self, fault: ProbeFault) -> None:
        with self._lock:
            self._faulted += 1
        self._notify(FaultNotice(fault))

    def _notify_retries(
        self,
        workload: Workload,
        policy: InterpositionPolicy,
        replica: int,
        failures: Sequence[object],
        recovered: bool,
    ) -> None:
        """Emit one RetryNotice per *retried* attempt.

        On eventual success every recorded failure was retried; on an
        exhausted outcome the last failure was terminal (it becomes
        the FaultNotice instead).
        """
        retried = failures if recovered else failures[:-1]
        for attempt, failure in enumerate(retried, start=1):
            self._notify(RetryNotice(
                workload=workload.name,
                probe=policy.describe(),
                replica=replica,
                attempt=attempt,
                kind=failure.kind,
                detail=failure.detail,
            ))

    # -- the run API -------------------------------------------------------

    def run(
        self,
        backend: ExecutionBackend,
        workload: Workload,
        policy: InterpositionPolicy,
        replica: int = 0,
    ) -> RunResult:
        """One run, answered from the caches when possible.

        Caching requires the backend to declare ``deterministic =
        True``; a fresh execution of a nondeterministic backend is the
        whole point of replication, so its results are never memoized.

        The single-run API never degrades: a run that exhausts its
        fault budget raises :class:`ProbeFaultError` even under
        ``on_fault="degrade"`` — only probe outcomes (which can carry
        quarantined faults) support degradation.
        """
        with self._lock:
            self._requested += 1
        batch = self._prefetch(backend, workload, ((policy, replica),))
        try:
            out = self._one(backend, workload, policy, replica, batch)
        finally:
            self._publish(batch)
        if isinstance(out, ProbeFault):
            raise ProbeFaultError(out)
        return out

    def _one(
        self,
        backend: ExecutionBackend,
        workload: Workload,
        policy: InterpositionPolicy,
        replica: int,
        batch: "_StoreBatch",
    ) -> "RunResult | ProbeFault":
        """Lookup-or-execute without touching ``runs_requested`` (the
        scheduling entry points account for requests up front).

        Returns the quarantine record instead of a result when the run
        exhausted its fault budget under ``on_fault="degrade"`` (the
        fault is already accounted and notified by then); raises
        :class:`ProbeFaultError` under ``"fail"``.
        """
        key = None
        if self._cacheable(backend):
            key = self._key(backend, workload, policy, replica)
            hit = self._lookup(key, batch)
            if hit is not None:
                return hit
        fault_policy = self.fault_policy
        if fault_policy is None or not fault_policy.active:
            result = backend.run(workload, policy, replica=replica)
            self._record(key, result, policy, batch)
            return result
        outcome = guarded_run(backend, workload, policy, replica, fault_policy)
        self._notify_retries(
            workload, policy, replica, outcome.failures,
            recovered=outcome.result is not None,
        )
        if outcome.result is not None:
            self._record(key, outcome.result, policy, batch)
            return outcome.result
        fault = outcome.fault(workload, policy, replica)
        self._account_fault(fault)
        if not fault_policy.degrade:
            raise ProbeFaultError(fault)
        return fault

    def run_replicas(
        self,
        backend: ExecutionBackend,
        workload: Workload,
        policy: InterpositionPolicy,
        replicas: int,
        *,
        early_exit: bool = True,
    ) -> ProbeOutcome:
        """Run *replicas* executions of one probe and aggregate them.

        With ``early_exit`` (the default) the remaining replicas of a
        probe are abandoned as soon as one replica fails: the
        conservative merge needs only a single failure, and metric
        samples are only consumed on all-success outcomes. Results
        always appear in replica-index order, so an all-success
        parallel outcome is identical to the serial one.
        """
        return self.run_probe_batch(
            backend, workload, (policy,), replicas, early_exit=early_exit
        )[0]

    def run_probe_batch(
        self,
        backend: ExecutionBackend,
        workload: Workload,
        policies: Sequence[InterpositionPolicy],
        replicas: int,
        *,
        early_exit: bool = True,
    ) -> list[ProbeOutcome]:
        """Run every ``(policy, replica)`` probe of a batch; aggregate
        per policy.

        This is the analyzer's stage-2 entry point: submitting all
        probes of an analysis at once keeps the worker pool saturated
        across feature boundaries instead of draining it after each
        feature's handful of replicas. Outcomes come back in *policies*
        order; early exit remains per-probe (a failed replica only
        cancels its own probe's siblings). On the serial path the
        batch degenerates to the exact historical execution order —
        policy by policy, replica by replica.

        With a persistent store, the whole batch makes one
        ``get_many`` (the keys the LRU cannot answer) before any run
        and one ``put_many`` (every run it executed) at the end — also
        when a run raises, so a failed batch still persists the runs
        it completed.
        """
        if replicas < 1:
            raise ValueError("need at least one replica")
        if not policies:
            return []
        mode = self.mode_for(backend)
        batch = self._prefetch(backend, workload, (
            (policy, replica)
            for policy in policies
            for replica in range(replicas)
        ))
        try:
            if mode == "serial":
                return [
                    self._serial_probe(
                        backend, workload, policy, replicas, early_exit,
                        batch,
                    )
                    for policy in policies
                ]
            return self._pooled_batch(
                mode, backend, workload, policies, replicas, early_exit,
                batch,
            )
        finally:
            self._publish(batch)

    # -- execution strategies ----------------------------------------------

    def _serial_probe(
        self,
        backend: ExecutionBackend,
        workload: Workload,
        policy: InterpositionPolicy,
        replicas: int,
        early_exit: bool,
        batch: "_StoreBatch",
    ) -> ProbeOutcome:
        with self._lock:
            self._requested += replicas
        results: list[RunResult] = []
        faults: list[ProbeFault] = []
        for index in range(replicas):
            out = self._one(backend, workload, policy, index, batch)
            if isinstance(out, ProbeFault):
                # A fault is not a decision — later replicas still run
                # (one of them may observe a genuine failure, which
                # dominates; see replicas.aggregate).
                faults.append(out)
                continue
            results.append(out)
            if early_exit and not out.success:
                with self._lock:
                    self._skipped += replicas - index - 1
                break
        return aggregate(results, faults=tuple(faults))

    def _pooled_batch(
        self,
        mode: str,
        backend: ExecutionBackend,
        workload: Workload,
        policies: Sequence[InterpositionPolicy],
        replicas: int,
        early_exit: bool,
        batch: "_StoreBatch",
    ) -> list[ProbeOutcome]:
        cacheable = self._cacheable(backend)
        with self._lock:
            self._requested += len(policies) * replicas
        collected: list[dict[int, RunResult]] = [{} for _ in policies]
        faulted: list[dict[int, ProbeFault]] = [{} for _ in policies]
        failed = [False] * len(policies)
        # Resolve the caches up front; only misses reach the pool.
        tasks: list[tuple[int, int, InterpositionPolicy, CacheKey | None]] = []
        for probe_index, policy in enumerate(policies):
            for replica in range(replicas):
                if early_exit and failed[probe_index]:
                    break  # cached failure: siblings are never submitted
                key = None
                if cacheable:
                    key = self._key(backend, workload, policy, replica)
                    hit = self._lookup(key, batch)
                    if hit is not None:
                        collected[probe_index][replica] = hit
                        if early_exit and not hit.success:
                            failed[probe_index] = True
                        continue
                tasks.append((probe_index, replica, policy, key))
        keys = {
            (probe_index, replica): key
            for probe_index, replica, _policy, key in tasks
        }
        self._dispatch_chunks(
            mode, backend, workload, tasks, keys, collected, faulted,
            early_exit, batch,
        )
        # Whatever was asked for but never ran — skipped by a worker
        # after an in-chunk failure, or never submitted after a cached
        # failure — was skipped. Quarantined runs are accounted as
        # faults, so ``requested == executed + hits + skipped +
        # faulted`` holds.
        obtained = sum(len(by_replica) for by_replica in collected)
        obtained += sum(len(by_replica) for by_replica in faulted)
        missing = len(policies) * replicas - obtained
        if missing:
            with self._lock:
                self._skipped += missing
        return [
            aggregate(
                [by_replica[index] for index in sorted(by_replica)],
                faults=tuple(
                    by_fault[index] for index in sorted(by_fault)
                ),
            )
            for by_replica, by_fault in zip(collected, faulted)
        ]

    def _dispatch_chunks(
        self,
        mode: str,
        backend: ExecutionBackend,
        workload: Workload,
        tasks: Sequence[tuple[int, int, InterpositionPolicy, "CacheKey | None"]],
        keys: dict[tuple[int, int], "CacheKey | None"],
        collected: list[dict[int, RunResult]],
        faulted: list[dict[int, ProbeFault]],
        early_exit: bool,
        batch: "_StoreBatch",
    ) -> None:
        """Chunk sharding over worker processes (``process``) or a
        worker fleet (``remote``).

        Both transports run ``_execute_chunk`` jobs behind one event
        contract — ``submit(job) -> chunk_id``, then ``next_event() ->
        ("done" | "failed" | "lost", chunk_id, body)`` — so this loop
        is the one place chunks are cut, rows folded in and lost runs
        re-enqueued. Chunking pickles the backend once per chunk, not
        once per run, while several chunks per worker (``parallel``
        local processes, or the live fleet width) keep the workers
        load-balanced. Early exit works at chunk granularity: workers
        skip the later replicas of probes that fail within their own
        chunk; cross-chunk failures run to completion.

        A chunk that raised (a fail-mode ``ProbeFaultError``, a raw
        backend error) re-raises here. A chunk whose worker died is
        *lost*: its runs are re-enqueued as singleton chunks, so a
        poison run cannot take chunk-mates down with it again. Each
        run is re-enqueued at most ``retries + 1`` times (once without
        a fault policy); beyond that it is a ``worker-crash`` fault —
        quarantined under degrade, raised otherwise.
        """
        if not tasks:
            return
        fault_policy = self.fault_policy
        if fault_policy is not None and not fault_policy.active:
            fault_policy = None
        if mode == "remote":
            transport = self._fabric_client()
            width = transport.worker_count
            # Chunks may still be in flight on live workers; dropping
            # the connection on abort (workers tolerate a scheduler
            # hangup) keeps their late results from leaking into the
            # next batch. The next remote dispatch reconnects.
            abort = self._close_fabric
            died = "remote worker died on every attempt"
        else:
            transport = _ProcessChunkPool(self.parallel)
            width = self.parallel
            abort = transport.cancel
            died = "worker process died on every attempt"
        per_chunk = max(
            1, -(-len(tasks) // (max(1, width) * _CHUNKS_PER_WORKER))
        )
        policies = {
            (probe_index, replica): policy
            for probe_index, replica, policy, _key in tasks
        }
        #: How often one lost run may be re-enqueued.
        max_requeues = (fault_policy.retries if fault_policy else 0) + 1
        requeues: dict[tuple[int, int], int] = {}
        lost_chunks = 0
        inflight: dict[object, list[tuple[int, int, InterpositionPolicy]]] = {}

        def submit(chunk: list[tuple[int, int, InterpositionPolicy]]) -> None:
            job = (backend, workload, chunk, early_exit, fault_policy)
            inflight[transport.submit(job)] = chunk

        try:
            for start in range(0, len(tasks), per_chunk):
                submit([
                    (probe_index, replica, policy)
                    for probe_index, replica, policy, _key
                    in tasks[start:start + per_chunk]
                ])
            while inflight:
                event, chunk_id, body = transport.next_event()
                chunk = inflight.pop(chunk_id, None)
                if chunk is None:
                    continue
                if event == "done":
                    for probe_index, replica, row in body:
                        if isinstance(row, ProbeFault):
                            self._account_fault(row)
                            faulted[probe_index][replica] = row
                            continue
                        self._record(
                            keys[(probe_index, replica)], row,
                            policies[(probe_index, replica)], batch,
                        )
                        collected[probe_index][replica] = row
                    continue
                if event == "failed":
                    raise body
                # "lost": the worker died holding this chunk.
                lost_chunks += 1
                requeued = 0
                for probe_index, replica, policy in chunk:
                    if (
                        replica in collected[probe_index]
                        or replica in faulted[probe_index]
                    ):
                        continue  # already answered by another chunk
                    count = requeues.get((probe_index, replica), 0)
                    if count < max_requeues:
                        requeues[(probe_index, replica)] = count + 1
                        requeued += 1
                        # Singleton chunk: isolate the potential poison
                        # run so it cannot take chunk-mates down again.
                        submit([(probe_index, replica, policy)])
                        continue
                    fault = ProbeFault(
                        workload=workload.name,
                        probe=policy.describe(),
                        replica=replica,
                        kind=FAULT_WORKER_CRASH,
                        attempts=count + 1,
                        detail=died,
                    )
                    self._account_fault(fault)
                    if fault_policy is None or not fault_policy.degrade:
                        raise ProbeFaultError(fault) from body
                    faulted[probe_index][replica] = fault
                self._notify(PoolRecoveredNotice(
                    lost_runs=requeued, rebuilds=lost_chunks,
                ))
        except BaseException:
            abort()
            raise
