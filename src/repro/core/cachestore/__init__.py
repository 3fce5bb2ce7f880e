"""Persistent run-cache storage: the engine's LRU as a service.

The in-memory LRU of :class:`~repro.core.engine.ProbeEngine` amortizes
run cost *within* one analysis; this package extends that amortization
*across* campaigns, processes and concurrent writers:

* :mod:`~repro.core.cachestore.base` — the :class:`RunCacheBackend`
  protocol, the shared record codec, :class:`StoreStats` and
  :class:`CompactionResult`;
* :mod:`~repro.core.cachestore.sqlite` — the local store, WAL-mode
  SQLite: multi-process safe, live read-through, upsert puts, LRU
  eviction via ``last_used``/``use_count`` under ``max_entries``;
* :mod:`~repro.core.cachestore.remote` — :class:`RemoteRunCache`, an
  HTTP client for the campaign server's ``/cache`` surface: one
  store shared by a whole worker fleet;
* :mod:`~repro.core.cachestore.factory` — :func:`open_store` (scheme
  and extension aware) and :func:`migrate_store`, which copies
  records between stores and imports or exports JSONL files, the
  format's only reader and writer;
* :mod:`~repro.core.cachestore.verify` — :func:`verify_store`
  re-executes (a seeded sample of) the records and diffs stored vs
  fresh results, auditing the determinism contract the whole cache
  rests on (``loupe cache verify``).

Correctness inherits the engine's caching contract: only runs of
backends declaring ``deterministic = True`` are ever stored or served,
so a persisted answer is byte-identical to re-executing the run. The
key's ``backend`` component is :func:`~repro.core.runner.backend_name`,
which for the simulation backends embeds the application name *and
version* (``sim:redis-7.0.11``) — two campaigns only share entries
when they analyze the very same build.
"""

from repro.core.cachestore.base import (
    CacheStoreError,
    CompactionResult,
    RunCacheBackend,
    StoreItem,
    StoreKey,
    StoreStats,
    decode_record,
    decode_record_full,
    encode_record,
    record_document,
)
from repro.core.cachestore.verify import (
    VerifyMismatch,
    VerifyReport,
    default_resolver,
    verify_store,
)
from repro.core.cachestore.factory import (
    migrate_store,
    open_store,
    parse_store_path,
    store_identity,
)
from repro.core.cachestore.remote import RemoteRunCache
from repro.core.cachestore.sqlite import SqliteRunCache

__all__ = [
    "CacheStoreError",
    "CompactionResult",
    "RemoteRunCache",
    "RunCacheBackend",
    "SqliteRunCache",
    "StoreItem",
    "StoreKey",
    "StoreStats",
    "decode_record",
    "decode_record_full",
    "default_resolver",
    "encode_record",
    "migrate_store",
    "open_store",
    "parse_store_path",
    "record_document",
    "store_identity",
    "verify_store",
    "VerifyMismatch",
    "VerifyReport",
]
