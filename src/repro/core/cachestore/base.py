"""The run-cache storage contract shared by every backend.

The probe engine sees a run cache as four operations — ``get_many``,
``put_many``, ``__len__``, ``close`` — one batched read before an
engine batch dispatches and one batched write after it ends, so a
batch costs one store round trip each way, not one per key. ``get``
and ``put`` are the one-key forms of the same two calls. The ops
tooling (``loupe cache``) adds four more: ``stats``, ``items``,
``compact``, ``gc``.
:class:`RunCacheBackend` is that contract as a protocol; the concrete
stores live next door (:mod:`repro.core.cachestore.jsonl`,
:mod:`repro.core.cachestore.sqlite`) and
:func:`~repro.core.cachestore.factory.open_store` picks between them
by path.

The on-disk *record* is shared too: one JSON object carrying the
engine's cache key — ``(backend, workload, fingerprint, replica)``,
the same quad as :data:`repro.core.engine.CacheKey` — and the
serialized :class:`~repro.core.runner.RunResult`. The JSONL backend
stores the object verbatim as one line; the SQLite backend stores the
key as columns and the result as the same JSON payload, so migrating
between backends is a lossless copy of ``items()``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.core.runner import RunResult
from repro.errors import LoupeError

#: Cache key: (backend name, workload name, policy fingerprint, replica)
#: — the same shape as :data:`repro.core.engine.CacheKey`.
StoreKey = tuple[str, str, str, int]

#: One run to publish: ``(key, result, policy document or None)``.
StoreItem = tuple[StoreKey, RunResult, "dict | None"]


class CacheStoreError(LoupeError):
    """A run-cache store operation is invalid or unsupported."""


def encode_record(
    key: StoreKey,
    result: RunResult,
    policy: "dict | None" = None,
    *,
    created: "float | None" = None,
) -> str:
    """One run as its canonical JSON record (no trailing newline).

    *policy* is the optional JSON form of the run's
    :class:`~repro.core.policy.InterpositionPolicy`
    (``InterpositionPolicy.to_dict()``). The key's fingerprint is a
    lossy digest — good enough to discriminate, not to *reconstruct*
    the policy — so recording the full document is what makes a
    record independently re-executable (``loupe cache verify``).
    *created* is the record's write timestamp (``time.time()``), the
    anchor of TTL eviction. Either being ``None`` omits its field
    entirely, keeping records of writers that never knew about
    policies or timestamps byte-identical.
    """
    backend, workload, fingerprint, replica = key
    record: dict = {
        "backend": backend,
        "workload": workload,
        "fingerprint": fingerprint,
        "replica": replica,
        "result": result.to_dict(),
    }
    if policy is not None:
        record["policy"] = policy
    if created is not None:
        record["created"] = created
    return json.dumps(record, sort_keys=True)


def decode_record(line: str) -> tuple[StoreKey, RunResult]:
    """Parse one JSON record back to ``(key, result)``.

    Raises ``ValueError``/``KeyError``/``TypeError`` on torn or
    foreign input — loaders treat any of those as "skip this line".
    A ``policy`` field, when present, is simply ignored here; use
    :func:`decode_record_full` to read it.
    """
    key, result, _policy = decode_record_full(line)
    return key, result


def decode_record_full(
    line: str,
) -> "tuple[StoreKey, RunResult, dict | None]":
    """Parse one JSON record to ``(key, result, policy_doc)``.

    ``policy_doc`` is ``None`` for records written before policies
    were stored (or by writers that chose not to store one).
    """
    key, result, policy, _created = decode_record_meta(line)
    return key, result, policy


def decode_record_meta(
    line: str,
) -> "tuple[StoreKey, RunResult, dict | None, float | None]":
    """Parse one JSON record to ``(key, result, policy_doc, created)``.

    ``created`` is ``None`` for records written before timestamps were
    stored; TTL eviction treats such records as ageless (never
    expired) — conservative, since their age is unknowable.
    """
    return decode_record_document(json.loads(line))


def decode_record_document(
    record: dict,
) -> "tuple[StoreKey, RunResult, dict | None, float | None]":
    """:func:`decode_record_meta` for a record already parsed from
    JSON (the HTTP wire carries records as objects inside a larger
    document). Raises like it on malformed input."""
    key = (
        record["backend"],
        record["workload"],
        record["fingerprint"],
        int(record["replica"]),
    )
    policy = record.get("policy")
    if policy is not None and not isinstance(policy, dict):
        raise TypeError(f"malformed policy document: {policy!r}")
    created = record.get("created")
    if created is not None:
        created = float(created)
    return key, RunResult.from_dict(record["result"]), policy, created


@dataclasses.dataclass(frozen=True)
class StoreStats:
    """One store's observable state, for ``loupe cache stats`` and the
    session's ``store_stats`` event.

    ``entries`` is the live record count (what ``len(store)`` says);
    ``loaded_records`` the *unique* complete records found on disk when
    the store was opened; ``stale_records`` the superseded duplicates
    currently wasting space (always 0 on SQLite, whose upsert replaces
    in place). ``file_bytes`` is the on-disk footprint (for SQLite:
    database + WAL).
    """

    kind: str
    path: str
    entries: int
    loaded_records: int = 0
    stale_records: int = 0
    file_bytes: int = 0
    max_entries: "int | None" = None
    evictions: int = 0
    ttl_s: "float | None" = None
    #: Live entries older than the TTL (still counted in ``entries``
    #: until a gc sweep; reads already treat them as misses). Always 0
    #: when no TTL applies.
    expired: int = 0

    def describe(self) -> str:
        base = (
            f"{self.kind} store at {self.path}: {self.entries} entr"
            f"{'y' if self.entries == 1 else 'ies'} in "
            f"{self.file_bytes} byte(s)"
        )
        if self.stale_records:
            base += f", {self.stale_records} stale record(s)"
        if self.max_entries is not None:
            base += f", capped at {self.max_entries}"
        if self.ttl_s is not None:
            base += (
                f", ttl {self.ttl_s:g}s ({self.expired} expired)"
            )
        return base

    def to_dict(self) -> dict:
        """Machine-readable form — the single serialization shared by
        ``loupe cache stats --json`` and the campaign server's
        ``GET /stats`` endpoint (clients parse one shape, not two)."""
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class CompactionResult:
    """What one ``compact()`` pass reclaimed."""

    bytes_before: int
    bytes_after: int
    records_dropped: int
    records_kept: int

    @property
    def ratio(self) -> float:
        """Shrink factor (``>= 1.0``; 1.0 means nothing reclaimed)."""
        if self.bytes_after == 0:
            return 1.0 if self.bytes_before == 0 else float(self.bytes_before)
        return self.bytes_before / self.bytes_after

    def describe(self) -> str:
        return (
            f"compacted {self.bytes_before} -> {self.bytes_after} byte(s) "
            f"({self.ratio:.2f}x), dropped {self.records_dropped} stale "
            f"record(s), kept {self.records_kept}"
        )


@runtime_checkable
class RunCacheBackend(Protocol):
    """A persistent run-result store the probe engine can warm from.

    Implementations must be thread-safe (one campaign's app-level
    workers share a single instance), tolerate a process killed
    mid-write (every *complete* record must load), and keep
    ``close()`` idempotent with the store still usable afterwards —
    the next operation transparently reopens the backing file.
    """

    #: Stable backend discriminator (``"jsonl"``/``"sqlite"``).
    kind: str
    path: Path

    def get_many(self, keys: "list[StoreKey]") -> "dict[StoreKey, RunResult]":
        """The live records among *keys*, in one read: a missing or
        expired key is simply absent from the answer."""
        ...

    def put_many(self, items: "list[StoreItem]") -> None:
        """Store every ``(key, result, policy)`` item in one write; a
        duplicate key overwrites (an upsert)."""
        ...

    def get(self, key: StoreKey) -> "RunResult | None":
        """``get_many([key]).get(key)``."""
        ...

    def put(
        self,
        key: StoreKey,
        result: RunResult,
        *,
        policy: "dict | None" = None,
    ) -> None:
        """``put_many([(key, result, policy)])``."""
        ...

    def __len__(self) -> int: ...

    def items(self) -> list[tuple[StoreKey, RunResult]]:
        """A snapshot of every live record (migration's read side)."""
        ...

    def records(self) -> "list[tuple[StoreKey, RunResult, dict | None]]":
        """Like :meth:`items`, plus each record's stored policy
        document (``None`` when the writer didn't store one) — the
        read side of ``loupe cache verify``."""
        ...

    def stats(self) -> StoreStats: ...

    def compact(self) -> CompactionResult:
        """Rewrite the backing file without its dead weight.

        An *offline* ops operation: run it from ``loupe cache
        compact``, not while other processes hold open write handles
        on the same file.
        """
        ...

    def gc(
        self,
        max_entries: "int | None" = None,
        *,
        ttl_s: "float | None" = None,
    ) -> int:
        """Evict records: entries older than *ttl_s* (or the
        configured TTL) are swept first, then least-recently-used
        records down to *max_entries* (or the configured cap).
        Returns how many were dropped. Backends that cannot honor a
        given dimension raise :class:`CacheStoreError`."""
        ...

    def expired(self, ttl_s: "float | None" = None) -> int:
        """How many live records are older than *ttl_s* (or the
        configured TTL) — what a ``gc`` sweep with that TTL would
        drop. Records without a stored timestamp never count."""
        ...

    def close(self) -> None: ...

    def __enter__(self) -> "RunCacheBackend": ...

    def __exit__(self, *exc_info: object) -> None: ...
