"""The campaign server's shared run-cache surface.

A worker fleet wants one persistent run cache, not N private ones —
that is what makes a *warm* distributed campaign cheap. The server
owns the store (the same ``--run-cache`` file its own jobs inherit)
and exposes it over HTTP (``POST /cache/lookup``, ``POST
/cache/publish``); :class:`CacheService` is the in-process half of
that surface: serialized store access and hit/miss counters. Each
route is one ``get_many``/``put_many`` call on the store, so an engine
batch costs the served store one transaction each way.

The surface is a plain key-value store. Two campaigns missing the
same key at once each execute the run and both publish it; the
second publish upserts an identical record, because only
deterministic backends are ever cached (a cached run is a saving,
never a verdict).

:class:`FleetTracker` is the observability side: workers announce
themselves with periodic ``POST /fleet/heartbeat`` documents, each
carrying its own TTL; the tracker ages them out so ``GET /stats``
reports live gauges (connected workers, chunks in flight) without a
deregistration protocol — a SIGKILL'd worker just stops heartbeating.
"""

from __future__ import annotations

import threading
import time

from repro.core.cachestore.base import StoreItem, StoreKey
from repro.core.runner import RunResult


class CacheService:
    """Serialized access to the server's run store.

    Handlers call :meth:`lookup` / :meth:`publish_many`; everything
    is internally locked because the HTTP server is threading. The
    ``hits`` and ``misses`` counters feed the ``cache`` block of
    ``GET /stats``. They count *keys looked up*: the probe engine
    prefetches every key of a batch its own LRU cannot answer, so
    they include replicas that early exit later skips, and ``hits``
    can exceed the hits the engine consumes.
    """

    def __init__(self, store) -> None:
        self.store = store
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def lookup(self, keys: "list[StoreKey]") -> "dict[StoreKey, RunResult]":
        """Batched read: one ``get_many`` on the store."""
        with self._lock:
            found = self.store.get_many(keys)
            hits = sum(1 for key in keys if key in found)
            self.hits += hits
            self.misses += len(keys) - hits
        return found

    def publish_many(self, items: "list[StoreItem]") -> None:
        """Batched upsert: one ``put_many`` on the store."""
        with self._lock:
            self.store.put_many(items)

    # -- observability -------------------------------------------------------

    def counters(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses}

    def store_stats(self) -> dict:
        with self._lock:
            return self.store.stats().to_dict()

    def close(self) -> None:
        with self._lock:
            self.store.close()


class FleetTracker:
    """Live worker gauges, fed by ``POST /fleet/heartbeat``.

    Each heartbeat document carries ``worker_id``, the worker's
    current ``chunks_in_flight``, and a ``ttl_s`` after which this
    entry goes stale (workers send ``heartbeat_s * 5``). Stale entries
    are pruned lazily on read — a killed worker disappears from the
    gauges within one TTL without any deregistration traffic.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: worker_id -> (monotonic deadline, chunks_in_flight, doc)
        self._workers: "dict[str, tuple[float, int, dict]]" = {}

    def heartbeat(self, document: object) -> dict:
        if not isinstance(document, dict):
            raise ValueError("heartbeat must be a JSON object")
        worker_id = document.get("worker_id")
        if not isinstance(worker_id, str) or not worker_id:
            raise ValueError("heartbeat needs a non-empty worker_id")
        try:
            ttl_s = float(document.get("ttl_s", 10.0))
            chunks = int(document.get("chunks_in_flight", 0))
        except (TypeError, ValueError):
            raise ValueError("heartbeat ttl_s/chunks_in_flight must be numbers")
        if ttl_s <= 0:
            raise ValueError("heartbeat ttl_s must be positive")
        with self._lock:
            self._workers[worker_id] = (
                time.monotonic() + ttl_s,
                max(chunks, 0),
                dict(document),
            )
        return {"ok": True, "worker_id": worker_id}

    def _prune_locked(self, now: float) -> None:
        stale = [
            worker_id
            for worker_id, (deadline, _chunks, _doc) in self._workers.items()
            if now >= deadline
        ]
        for worker_id in stale:
            del self._workers[worker_id]

    def gauges(self) -> dict:
        with self._lock:
            self._prune_locked(time.monotonic())
            return {
                "workers": len(self._workers),
                "chunks_in_flight": sum(
                    chunks for _deadline, chunks, _doc in self._workers.values()
                ),
            }
