"""The run-cache storage contract shared by every backend.

The probe engine sees a run cache as four operations — ``get_many``,
``put_many``, ``__len__``, ``close`` — one batched read before an
engine batch dispatches and one batched write after it ends, so a
batch costs one store round trip each way, not one per key. ``get``
and ``put`` are the one-key forms of the same two calls. The ops
tooling (``loupe cache``) adds four more: ``stats``, ``records``,
``compact``, ``gc``.
:class:`RunCacheBackend` is that contract as a protocol; the local
store lives next door (:mod:`repro.core.cachestore.sqlite`) and
:func:`~repro.core.cachestore.factory.open_store` picks it, or the
HTTP client, by path.

The *record* is shared too: one JSON object carrying the engine's
cache key — ``(backend, workload, fingerprint, replica)``, the same
quad as :data:`repro.core.engine.CacheKey` — and the serialized
:class:`~repro.core.runner.RunResult`. SQLite stores the key as
columns and the record as its ``result`` payload, the HTTP cache
carries it as a JSON object, and a JSONL export
(``loupe cache migrate``) writes it as one line.
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


#: How to turn a JSONL file into a live store, quoted by every error
#: that meets one where a store was expected.
MIGRATE_HINT = (
    "convert it with `loupe cache migrate <src.jsonl> <dst.sqlite>`"
)


def record_document(
    key: StoreKey,
    result: RunResult,
    policy: "dict | None" = None,
) -> dict:
    """One run as its record object, the parsed form of
    :func:`encode_record` (the HTTP cache embeds it in a larger
    document).

    *policy* is the optional JSON form of the run's
    :class:`~repro.core.policy.InterpositionPolicy`
    (``InterpositionPolicy.to_dict()``). The key's fingerprint is a
    lossy digest — good enough to discriminate, not to *reconstruct*
    the policy — so recording the full document is what makes a
    record independently re-executable (``loupe cache verify``).
    ``None`` omits the field entirely.
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
    return record


def encode_record(
    key: StoreKey,
    result: RunResult,
    policy: "dict | None" = None,
) -> str:
    """:func:`record_document` as canonical JSON (no trailing
    newline)."""
    return json.dumps(record_document(key, result, policy), sort_keys=True)


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
    were stored (or by writers that chose not to store one). Fields
    the record carries beyond these (an old export's ``created``
    timestamp) are ignored.
    """
    return decode_record_document(json.loads(line))


def decode_record_document(
    record: dict,
) -> "tuple[StoreKey, RunResult, dict | None]":
    """:func:`decode_record_full` for a record already parsed from
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
    return key, RunResult.from_dict(record["result"]), policy


@dataclasses.dataclass(frozen=True)
class StoreStats:
    """One store's observable state, for ``loupe cache stats`` and the
    session's ``store_stats`` event.

    ``entries`` is the live record count (what ``len(store)`` says);
    ``loaded_records`` the records found when the store was opened.
    ``file_bytes`` is the on-disk footprint (database + WAL).
    """

    kind: str
    path: str
    entries: int
    loaded_records: int = 0
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
            f"({self.ratio:.2f}x), kept {self.records_kept} record(s)"
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

    #: Stable backend discriminator (``"sqlite"``/``"http"``).
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

    def records(self) -> "list[StoreItem]":
        """A snapshot of every live record with its stored policy
        document (``None`` when the writer didn't store one) — the
        read side of ``loupe cache migrate`` and ``verify``."""
        ...

    def stats(self) -> StoreStats: ...

    def compact(self) -> CompactionResult:
        """Reclaim the backing file's free space.

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
