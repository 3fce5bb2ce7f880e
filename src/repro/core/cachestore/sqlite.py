"""The SQLite run-cache backend: shared-state, bounded, concurrent.

Where the JSONL backend is a per-process index over an append-only
file, this backend delegates the shared state to SQLite itself:

* **WAL mode** — writers append to a write-ahead log while readers
  keep reading; safe for several concurrent campaign *processes*
  sharing one cache file, with crash recovery (a process killed
  mid-transaction rolls back cleanly on the next open).
* **Live read-through** — every ``get_many`` is a fresh transaction,
  so one campaign's committed writes are visible to another *without
  reopening* the store. (The probe engine still promotes hits into
  its own LRU, so hot keys don't re-pay the query.)
* **Upsert puts** — ``INSERT ... ON CONFLICT DO UPDATE`` makes the
  already-durable check shared state rather than per-process memory:
  two writers racing on one key leave exactly one row, fixing the
  JSONL backend's duplicate re-appends. A ``put_many`` batch is one
  transaction.
* **LRU eviction** — every row carries ``last_used``/``use_count``;
  with ``max_entries`` set, a put that pushes the table over the cap
  evicts the least-recently-used rows, keeping a long-lived service
  cache bounded. ``gc()`` applies the same policy on demand.

``compact()`` here means checkpointing the WAL back into the main
database and ``VACUUM``-ing free pages — nothing is ever superseded
in place, so there are no stale records to drop.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from pathlib import Path

from repro.core.cachestore.base import (
    CacheStoreError,
    CompactionResult,
    StoreItem,
    StoreKey,
    StoreStats,
    decode_record,
    decode_record_full,
    encode_record,
)
from repro.core.runner import RunResult

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    backend     TEXT    NOT NULL,
    workload    TEXT    NOT NULL,
    fingerprint TEXT    NOT NULL,
    replica     INTEGER NOT NULL,
    result      TEXT    NOT NULL,
    created     REAL    NOT NULL,
    last_used   REAL    NOT NULL,
    use_count   INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (backend, workload, fingerprint, replica)
);
CREATE INDEX IF NOT EXISTS runs_last_used ON runs (last_used);
"""

#: How long a connection waits on a competing writer's lock before
#: giving up (seconds). Campaign writes are one short transaction per
#: engine batch, so contention windows are milliseconds; the margin is
#: for CI boxes.
_BUSY_TIMEOUT_S = 30.0

#: Application-level retries when SQLite reports the database locked
#: *despite* the busy timeout (which it can, e.g. when a competing
#: writer holds the lock across its own busy wait, or on filesystems
#: with advisory-lock quirks). Small and bounded: the point is riding
#: out a momentary stall, not masking a wedged peer.
_LOCK_ATTEMPTS = 3
_LOCK_RETRY_DELAY_S = 0.05


#: The primary-key match every per-key statement shares.
_WHERE = (
    "backend = ? AND workload = ? AND fingerprint = ? AND replica = ?"
)


def _retry_locked(action):
    """Run *action*, retrying briefly on lock/busy contention.

    Only ``sqlite3.OperationalError``s that look like lock contention
    are retried (with linear backoff); everything else — corruption,
    schema errors, disk-full — propagates immediately, as does the
    contention error itself once the attempts are spent.
    """
    for attempt in range(_LOCK_ATTEMPTS):
        try:
            return action()
        except sqlite3.OperationalError as error:
            message = str(error).lower()
            if "locked" not in message and "busy" not in message:
                raise
            if attempt == _LOCK_ATTEMPTS - 1:
                raise
            time.sleep(_LOCK_RETRY_DELAY_S * (attempt + 1))


def _in_transaction(conn: sqlite3.Connection, body):
    """Run *body* in one write transaction, retried as a whole on lock
    contention (:func:`_retry_locked`); any failure rolls it back.

    ``BEGIN IMMEDIATE`` takes the write lock up front, under the busy
    timeout: a deferred transaction that read first could not upgrade
    to a write once another process had committed meanwhile.
    """

    def attempt():
        conn.execute("BEGIN IMMEDIATE")
        try:
            out = body()
            conn.execute("COMMIT")
        except BaseException:
            if conn.in_transaction:  # some errors already rolled back
                conn.execute("ROLLBACK")
            raise
        return out

    return _retry_locked(attempt)


class SqliteRunCache:
    """A run-result cache backed by one SQLite database file.

    Parameters
    ----------
    path:
        The database file. Created (with parent directories) at open.
    max_entries:
        Optional LRU cap: a ``put`` that grows the table past this
        many rows evicts the least-recently-used surplus. ``None``
        (the default) leaves the store unbounded, like JSONL.
    ttl_s:
        Optional record age cap: a ``get`` of a row written (or last
        refreshed) more than this many seconds ago reads as a miss;
        ``gc`` deletes such rows. Complements the LRU cap — the cap
        bounds size, the TTL bounds staleness.

    Thread-safe (one guarded connection per store instance) and
    multi-process-safe (WAL journaling; every read is a fresh
    snapshot, so other processes' commits are picked up live).
    """

    kind = "sqlite"

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        *,
        max_entries: "int | None" = None,
        ttl_s: "float | None" = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        self.path = Path(path)
        self.max_entries = max_entries
        self.ttl_s = ttl_s
        self._lock = threading.Lock()
        self._conn: "sqlite3.Connection | None" = None
        self._evictions = 0
        with self._lock:
            self._connect_locked()
            self._loaded_records = self._count_locked()

    # -- connection lifecycle ----------------------------------------------

    def _connect_locked(self) -> sqlite3.Connection:
        if self._conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                str(self.path),
                timeout=_BUSY_TIMEOUT_S,
                isolation_level=None,  # autocommit: every get is a
                check_same_thread=False,  # fresh snapshot (read-through)
            )
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.executescript(_SCHEMA)
            except sqlite3.DatabaseError as error:
                # A mis-extensioned file (say, JSONL content behind a
                # *.db name): surface the family error callers already
                # handle, not a raw sqlite3 traceback.
                conn.close()
                raise CacheStoreError(
                    f"{self.path} is not a SQLite database: {error} "
                    f"(jsonl files need a jsonl: prefix or a non-sqlite "
                    f"extension)"
                ) from error
            self._conn = conn
        return self._conn

    def _count_locked(self) -> int:
        conn = self._connect_locked()
        return conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    # -- the store API -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return self._count_locked()

    @property
    def loaded_records(self) -> int:
        """Complete records in the database when the store was opened."""
        return self._loaded_records

    @property
    def stale_records(self) -> int:
        """Always 0: the upsert replaces superseded records in place."""
        return 0

    def get(self, key: StoreKey) -> "RunResult | None":
        return self.get_many([key]).get(key)

    def put(
        self,
        key: StoreKey,
        result: RunResult,
        *,
        policy: "dict | None" = None,
    ) -> None:
        self.put_many([(key, result, policy)])

    def get_many(self, keys: "list[StoreKey]") -> "dict[StoreKey, RunResult]":
        """One transaction: a live read of every key, plus one
        ``executemany`` recency bump (``last_used``/``use_count``, what
        LRU eviction and ``gc`` order by) for the hits. The probe
        engine calls this once per batch, for the keys its own LRU
        cannot answer, so the bookkeeping write costs one transaction
        per batch, not one per hit."""
        if not keys:
            return {}
        now = time.time()
        with self._lock:
            conn = self._connect_locked()

            def read() -> "dict[StoreKey, str]":
                found: "dict[StoreKey, str]" = {}
                for key in keys:
                    row = conn.execute(
                        f"SELECT result, created FROM runs WHERE {_WHERE}",
                        key,
                    ).fetchone()
                    # An expired row is a miss (it stays for gc to
                    # sweep; no use-count bump — an unservable row
                    # earned no recency).
                    if row is not None and (
                        self.ttl_s is None or now - row[1] <= self.ttl_s
                    ):
                        found[key] = row[0]
                conn.executemany(
                    f"UPDATE runs SET last_used = ?, use_count = use_count + 1"
                    f" WHERE {_WHERE}",
                    [(now, *key) for key in found],
                )
                return found

            found = _in_transaction(conn, read)
        return {key: decode_record(line)[1] for key, line in found.items()}

    def put_many(self, items: "list[StoreItem]") -> None:
        """Upsert every run in one transaction: a duplicate key updates
        the existing row in place — shared state, so concurrent
        campaigns never grow the store with records another writer
        already persisted — then ``max_entries`` eviction runs once.
        The optional policy document rides inside the record JSON of
        the ``result`` column (same wire format as the JSONL backend)."""
        if not items:
            return
        now = time.time()
        rows = [
            (*key, encode_record(key, result, policy), now, now)
            for key, result, policy in items
        ]
        with self._lock:
            conn = self._connect_locked()

            def write() -> None:
                conn.executemany(
                    "INSERT INTO runs (backend, workload, fingerprint, replica,"
                    " result, created, last_used, use_count)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, 0)"
                    " ON CONFLICT (backend, workload, fingerprint, replica)"
                    " DO UPDATE SET result = excluded.result,"
                    "               created = excluded.created,"
                    "               last_used = excluded.last_used",
                    rows,
                )
                if self.max_entries is not None:
                    self._evict_locked(self.max_entries)

            _in_transaction(conn, write)

    def _evict_locked(self, max_entries: int) -> int:
        conn = self._connect_locked()
        surplus = self._count_locked() - max_entries
        if surplus <= 0:
            return 0
        conn.execute(
            "DELETE FROM runs WHERE rowid IN ("
            " SELECT rowid FROM runs"
            " ORDER BY last_used ASC, use_count ASC, rowid ASC"
            " LIMIT ?)",
            (surplus,),
        )
        self._evictions += surplus
        return surplus

    def items(self) -> list[tuple[StoreKey, RunResult]]:
        with self._lock:
            conn = self._connect_locked()
            rows = conn.execute("SELECT result FROM runs").fetchall()
        return [decode_record(row[0]) for row in rows]

    def records(self) -> "list[tuple[StoreKey, RunResult, dict | None]]":
        with self._lock:
            conn = self._connect_locked()
            rows = conn.execute("SELECT result FROM runs").fetchall()
        return [decode_record_full(row[0]) for row in rows]

    # -- ops ---------------------------------------------------------------

    def _file_bytes(self) -> int:
        total = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                total += os.stat(str(self.path) + suffix).st_size
            except OSError:
                pass
        return total

    def stats(self) -> StoreStats:
        with self._lock:
            entries = self._count_locked()
            evictions = self._evictions
            expired = (
                self._expired_locked(self.ttl_s)
                if self.ttl_s is not None else 0
            )
        return StoreStats(
            kind=self.kind,
            path=str(self.path),
            entries=entries,
            loaded_records=self._loaded_records,
            stale_records=0,
            file_bytes=self._file_bytes(),
            max_entries=self.max_entries,
            evictions=evictions,
            ttl_s=self.ttl_s,
            expired=expired,
        )

    def _expired_locked(self, ttl_s: float) -> int:
        conn = self._connect_locked()
        return conn.execute(
            "SELECT COUNT(*) FROM runs WHERE created < ?",
            (time.time() - ttl_s,),
        ).fetchone()[0]

    def expired(self, ttl_s: "float | None" = None) -> int:
        """Live rows older than *ttl_s* (or the configured TTL)."""
        ttl = ttl_s if ttl_s is not None else self.ttl_s
        if ttl is None:
            raise CacheStoreError(
                "expired() needs a TTL: pass ttl_s or open the store "
                "with one"
            )
        if ttl <= 0:
            raise ValueError("ttl_s must be positive")
        with self._lock:
            return self._expired_locked(ttl)

    def compact(self) -> CompactionResult:
        """Checkpoint the WAL into the main database and reclaim free
        pages (``VACUUM``). Drops no records — SQLite never leaves
        superseded duplicates behind."""
        bytes_before = self._file_bytes()
        with self._lock:
            conn = self._connect_locked()
            kept = self._count_locked()
            # Consume the pragma cursors: an unread cursor leaves its
            # statement live, and a live reader stops the truncating
            # checkpoint from emptying the WAL.
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchall()
            conn.execute("VACUUM")
            # VACUUM's rewritten pages land in the WAL; fold them back
            # so the measured footprint reflects the reclaim.
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchall()
        return CompactionResult(
            bytes_before=bytes_before,
            bytes_after=self._file_bytes(),
            records_dropped=0,
            records_kept=kept,
        )

    def gc(
        self,
        max_entries: "int | None" = None,
        *,
        ttl_s: "float | None" = None,
    ) -> int:
        """Evict by age, then by recency: rows older than *ttl_s* (or
        the configured TTL) are deleted first, then least-recently-used
        rows down to *max_entries* (or the configured cap). Returns
        the total dropped. At least one dimension must apply."""
        cap = max_entries if max_entries is not None else self.max_entries
        ttl = ttl_s if ttl_s is not None else self.ttl_s
        if cap is None and ttl is None:
            raise ValueError(
                "gc needs a cap or a TTL: pass max_entries/ttl_s or "
                "open the store with one"
            )
        if cap is not None and cap < 1:
            raise ValueError("max_entries must be >= 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl_s must be positive")
        dropped = 0
        with self._lock:
            if ttl is not None:
                conn = self._connect_locked()
                cursor = _retry_locked(lambda: conn.execute(
                    "DELETE FROM runs WHERE created < ?",
                    (time.time() - ttl,),
                ))
                dropped += cursor.rowcount
                self._evictions += cursor.rowcount
            if cap is not None:
                dropped += self._evict_locked(cap)
        return dropped

    def close(self) -> None:
        """Close the connection (idempotent; the store stays usable
        and reconnects on the next operation)."""
        with self._lock:
            conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    def __enter__(self) -> "SqliteRunCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
