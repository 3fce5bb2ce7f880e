"""The HTTP run-cache backend: a store served by the campaign server.

``open_store("http://host:port")`` yields a :class:`RemoteRunCache`
speaking the server's cache surface (:mod:`repro.server.cache` is the
other side of this wire):

=========  =======================  ===================================
Method     Path                     Meaning
=========  =======================  ===================================
``POST``   ``/cache/lookup``        batched read: ``{"keys": [...]}``
                                    → ``{"hits": {keyid: record}}``
``POST``   ``/cache/publish``       batched upsert: ``{"records":
                                    [{"key": keyid, "record": ...}]}``
``GET``    ``/cache/stats``         the store's stats + counters
=========  =======================  ===================================

One read route and one write route: :meth:`RemoteRunCache.get_many`
and :meth:`RemoteRunCache.put_many` are one request each (a publish
larger than the server's :data:`MAX_BODY_BYTES` goes out as several),
and ``get``/``put`` are their one-key forms. The *keyid* is the store
key — the engine's ``(backend, workload, fingerprint, replica)`` quad
— as a URL-safe base64 encoding of its JSON list form. Record bodies
are the very same JSON objects the local backends write as lines
(:func:`~repro.core.cachestore.base.encode_record`): the wire format
*is* the file format.

A remote read means what a local one does: the live records among
the keys asked for. Two campaigns missing one key at once both
execute it and both publish it; the second publish upserts an
identical record.

Ops verbs that need the records on disk (``records``, ``items``,
``compact``, ``gc``) are refused with a pointer at the server's own
store file — run ``loupe cache ...`` against the path the server was
started with, not through the wire.
"""

from __future__ import annotations

import base64
import http.client
import json
import threading
import urllib.parse
from pathlib import Path

from repro.core.cachestore.base import (
    CacheStoreError,
    StoreItem,
    StoreKey,
    StoreStats,
    decode_record_document,
    encode_record,
)
from repro.core.runner import RunResult

#: Per-request transport timeout.
DEFAULT_TIMEOUT_S = 10.0

#: The largest request body the campaign server accepts (its handlers
#: refuse anything bigger: a campaign spec is a small flat object);
#: :meth:`RemoteRunCache.put_many` splits a batch into requests under
#: it.
MAX_BODY_BYTES = 1 << 20

#: The publish body around its comma-separated records.
_PUBLISH_HEAD, _PUBLISH_TAIL = b'{"records": [', b"]}"


def encode_key_id(key: StoreKey) -> str:
    """A store key as its URL-path-safe token."""
    raw = json.dumps(list(key), sort_keys=True).encode("utf-8")
    return base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")


def decode_key_id(key_id: str) -> StoreKey:
    """Invert :func:`encode_key_id`; raises ``ValueError`` on garbage."""
    try:
        padded = key_id + "=" * (-len(key_id) % 4)
        doc = json.loads(base64.urlsafe_b64decode(padded.encode("ascii")))
        backend, workload, fingerprint, replica = doc
        if not all(
            isinstance(part, str) for part in (backend, workload, fingerprint)
        ):
            raise TypeError("key parts must be strings")
        return (backend, workload, fingerprint, int(replica))
    except (ValueError, TypeError, KeyError) as error:
        raise ValueError(f"malformed cache key id {key_id!r}: {error}")


class RemoteRunCache:
    """A run cache living behind a campaign server's cache surface.

    Parameters
    ----------
    url:
        The server's base URL (``http://host:port``). The constructor
        pings ``GET /cache/stats`` so a dead or cache-less server is
        reported at open time with an actionable message, not on the
        first mid-campaign miss.

    Every operation is one HTTP request (a ``put_many`` past the body
    cap, several) over a keep-alive connection
    taken from a lock-guarded idle pool and returned after the
    response is read, so a campaign pays one TCP connect per thread
    instead of one per request. The store is thread-safe: a connection
    serves one request at a time. :meth:`close` closes the pooled
    connections (the store reconnects on the next operation).
    """

    kind = "http"

    def __init__(
        self,
        url: str,
        *,
        timeout: float = DEFAULT_TIMEOUT_S,
    ) -> None:
        self.url = url.rstrip("/")
        parts = urllib.parse.urlsplit(self.url)
        self.path = Path(parts.netloc or self.url)
        self.timeout = timeout
        self._connection_class = (
            http.client.HTTPSConnection if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._host, self._port = parts.hostname, parts.port
        self._prefix = parts.path
        self._lock = threading.Lock()
        self._idle: "list[http.client.HTTPConnection]" = []
        #: Bumped by :meth:`close`; a connection checked out before the
        #: bump is closed, not pooled, when it comes back.
        self._epoch = 0
        self._ping()

    # -- transport -----------------------------------------------------------

    def _request(
        self, method: str, path: str, data: "bytes | None" = None
    ) -> "dict | None":
        """One request; the reply's JSON document (``None`` when it
        has no body). Any error status raises :class:`CacheStoreError`."""
        headers = {"Accept": "application/json"}
        if data is not None:
            headers["Content-Type"] = "application/json"
        with self._lock:
            conn = self._idle.pop() if self._idle else None
            epoch = self._epoch
        try:
            if conn is not None:
                try:
                    response = self._send(conn, method, path, data, headers)
                except ConnectionError:
                    # The server dropped the idle connection before its
                    # response began: retry once on a fresh one.
                    conn.close()
                    conn = None
            if conn is None:
                conn = self._connection_class(
                    self._host, self._port, timeout=self.timeout
                )
                response = self._send(conn, method, path, data, headers)
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            if conn is not None:
                conn.close()
            raise CacheStoreError(
                f"cannot reach the cache server at {self.url} ({error}); "
                f"is it running? start one with: "
                f"loupe serve --run-cache PATH"
            )
        status = response.status
        if status < 400:
            self._release(conn, epoch)
            return json.loads(raw) if raw else None
        # The server may refuse a request before reading its body, so a
        # connection that carried a refusal is not reused.
        conn.close()
        try:
            document = json.loads(raw)
        except ValueError:
            document = {"error": raw.decode("utf-8", "replace").strip()}
        message = document.get("error") if isinstance(document, dict) \
            else None
        raise CacheStoreError(
            f"cache server at {self.url} said {status}: "
            f"{message or response.reason}"
        )

    def _send(self, conn, method, path, data, headers):
        conn.request(method, self._prefix + path, body=data, headers=headers)
        return conn.getresponse()

    def _release(self, conn: http.client.HTTPConnection, epoch: int) -> None:
        """Return *conn* to the idle pool (which so never holds more
        connections than were ever in use at once), or close it if the
        server ended it or :meth:`close` ran meanwhile."""
        with self._lock:
            if conn.sock is not None and epoch == self._epoch:
                self._idle.append(conn)
                return
        conn.close()

    def _ping(self) -> None:
        self._request("GET", "/cache/stats")

    # -- the store API -------------------------------------------------------

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

    def get_many(
        self, keys: "list[StoreKey]"
    ) -> "dict[StoreKey, RunResult]":
        """Batched read (``POST /cache/lookup``): the hits among
        *keys*, in one request."""
        if not keys:
            return {}
        body = {"keys": [encode_key_id(key) for key in keys]}
        document = self._request(
            "POST", "/cache/lookup", json.dumps(body).encode("utf-8")
        )
        found: "dict[StoreKey, RunResult]" = {}
        for record in (document or {}).get("hits", {}).values():
            key, result, _policy, _created = decode_record_document(record)
            found[key] = result
        return found

    def put_many(self, items: "list[StoreItem]") -> None:
        """Batched upsert (``POST /cache/publish``): one request per
        :data:`MAX_BODY_BYTES` of records, so a batch of any size
        lands whole without the server refusing its body."""
        entries: "list[bytes]" = []
        size = len(_PUBLISH_HEAD) + len(_PUBLISH_TAIL)
        for key, result, policy in items:
            # The key id is URL-safe base64 and the record is ASCII
            # JSON, so the entry needs no further escaping.
            entry = (
                f'{{"key": "{encode_key_id(key)}", '
                f'"record": {encode_record(key, result, policy)}}}'
            ).encode("ascii")
            if entries and size + len(entry) + 2 > MAX_BODY_BYTES:
                self._publish(entries)
                entries = []
                size = len(_PUBLISH_HEAD) + len(_PUBLISH_TAIL)
            entries.append(entry)
            size += len(entry) + 2  # the ", " separator
        if entries:
            self._publish(entries)

    def _publish(self, entries: "list[bytes]") -> None:
        self._request(
            "POST", "/cache/publish",
            _PUBLISH_HEAD + b", ".join(entries) + _PUBLISH_TAIL,
        )

    def __len__(self) -> int:
        return int(self.stats().entries)

    def stats(self) -> StoreStats:
        document = self._request("GET", "/cache/stats")
        store = (document or {}).get("store") or {}
        known = {
            field: store[field]
            for field in StoreStats.__dataclass_fields__
            if field in store
        }
        return StoreStats(**known)

    # -- ops verbs need the file, not the wire -------------------------------

    def _refuse_ops(self, verb: str) -> CacheStoreError:
        return CacheStoreError(
            f"cannot {verb} a remote cache over HTTP; run `loupe cache "
            f"{verb}` against the server's own store file (the path its "
            f"`loupe serve --run-cache` was started with)"
        )

    def items(self):
        raise self._refuse_ops("migrate")

    def records(self):
        raise self._refuse_ops("verify")

    def compact(self):
        raise self._refuse_ops("compact")

    def gc(self, max_entries=None, *, ttl_s=None):
        raise self._refuse_ops("gc")

    def expired(self, ttl_s=None):
        raise self._refuse_ops("stats --ttl")

    def close(self) -> None:
        """Close the pooled connections, so the server's handler
        threads end too; a connection in use closes when it is
        returned. Idempotent; the store stays usable and reconnects on
        the next operation."""
        with self._lock:
            idle, self._idle = self._idle, []
            self._epoch += 1
        for conn in idle:
            conn.close()

    def __enter__(self) -> "RemoteRunCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
