"""HTTP request handling for the campaign server.

One :class:`http.server.BaseHTTPRequestHandler` subclass routes the
service's whole surface:

=========  ==============================  =====================================
Method     Path                            Meaning
=========  ==============================  =====================================
``POST``   ``/jobs``                       submit a campaign spec, get a job id
``GET``    ``/jobs``                       list job metas (``?state=`` filters)
``GET``    ``/jobs/<id>``                  one job's meta
``GET``    ``/jobs/<id>/events``           replay/long-poll the event stream
``GET``    ``/jobs/<id>/report``           the finished job's report.json
``POST``   ``/jobs/<id>/cancel``           cooperative cancellation
``POST``   ``/admin/drain``                close intake, finish in-flight work
``GET``    ``/healthz``                    liveness
``GET``    ``/stats``                      queue/worker/store observability
``GET``    ``/cache/stats``                the served run store's stats
``POST``   ``/cache/lookup``               batched cache read
``POST``   ``/cache/publish``              batched cache write (an upsert)
``POST``   ``/fleet/heartbeat``            a worker's liveness announcement
=========  ==============================  =====================================

The ``/cache`` family is the fleet's shared run store (present only
when the server was started with ``--run-cache``; 503 otherwise), one
read route and one write route. A lookup body is ``{"keys":
["<keyid>", ...]}`` and its reply ``{"hits": {"<keyid>": record}}``
(a miss is simply absent); a publish body is ``{"records": [{"key":
"<keyid>", "record": record}, ...]}``, answered ``204``. The *keyid*
is the store key's URL-safe token
(:func:`repro.core.cachestore.remote.encode_key_id`) and a record is
the same JSON object the local backends write as a line. A publish is
validated whole before anything is written: one malformed record, or
one whose key id does not match its body, is a ``400`` naming it, and
the store is left untouched. ``/fleet/heartbeat`` feeds the worker
gauges in ``/stats``.

Everything speaks JSON except ``/events``, which replays the job's
``events.jsonl`` verbatim as ``application/x-ndjson`` — the body *is*
the on-disk stream, one envelope-wrapped event per line — with two
response headers carrying the tailing cursor:

* ``X-Loupe-Next-Since`` — the ``since`` value for the next poll;
* ``X-Loupe-Job-Status`` — the job's status at reply time, so a
  client knows to stop tailing once the stream drains *and* the
  status is terminal.

``?since=N`` skips the first N lines; ``?timeout=S`` long-polls: the
reply is held up to S seconds waiting for fresh lines (returning
early the moment one lands, or immediately if the job is terminal).
Both are validated like the spec validator validates specs — negative
or non-finite values are a 400 with details, not a silent pass into
the wait loop; timeouts beyond :data:`MAX_POLL_TIMEOUT_S` are clamped
(long tails are built from repeated polls, not one huge one).

Admission control speaks in status codes: a full queue is ``429``
with a ``Retry-After`` header (seconds, advisory), a draining server
is ``503`` — both tell a well-behaved submitter exactly what to do
next. Torn job metadata (crash footprint, repaired at the next
restart) reads as ``503`` rather than a stack trace.

The handler holds no state of its own — it reaches the
:class:`~repro.server.app.CampaignServer` through
``self.server.campaign`` and translates its exceptions to status
codes (unknown job → 404, bad spec → 400, illegal cancel → 409).
"""

from __future__ import annotations

import json
import math
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core.cachestore.base import (
    CacheStoreError,
    decode_record_document,
    record_document,
)
from repro.core.cachestore.remote import (
    MAX_BODY_BYTES,  # the body cap the run cache's client splits under
    decode_key_id,
    encode_key_id,
)
from repro.server.jobstore import (
    STATES,
    JobSpecError,
    JobStateError,
    TornMetaError,
    UnknownJobError,
)
from repro.server.queue import QueueFullError, ServerDrainingError

#: Upper bound on one long-poll's hold time; clients wanting longer
#: tails simply poll again with the returned cursor.
MAX_POLL_TIMEOUT_S = 30.0


class CampaignHTTPServer(ThreadingHTTPServer):
    """The listening socket: one thread per connection (which is what
    lets long-polls park without starving other clients; a keep-alive
    client holds its thread until it hangs up), all of them daemons so
    a wedged client never blocks process exit."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple, campaign) -> None:
        super().__init__(address, CampaignRequestHandler)
        #: The :class:`~repro.server.app.CampaignServer` behind this
        #: socket — handlers reach all state through it.
        self.campaign = campaign


class CampaignRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "loupe-campaign/1"
    # Headers and body go out as two writes; on a keep-alive connection
    # Nagle would hold the body until the client's delayed TCP ACK.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: object) -> None:
        # Per-request stderr chatter off by default; the server's
        # jsonl event logs are the observability story.
        if getattr(self.server.campaign, "verbose", False):
            super().log_message(format, *args)

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:
        parsed = urllib.parse.urlsplit(self.path)
        query = urllib.parse.parse_qs(parsed.query)
        parts = [part for part in parsed.path.split("/") if part]
        try:
            if parts == ["healthz"]:
                self._send_json(200, self.server.campaign.health())
            elif parts == ["stats"]:
                self._send_json(200, self.server.campaign.stats())
            elif parts == ["jobs"]:
                self._send_jobs(query)
            elif len(parts) == 2 and parts[0] == "jobs":
                meta = self.server.campaign.store.meta(parts[1])
                self._send_json(200, meta.to_dict())
            elif len(parts) == 3 and parts[:1] == ["jobs"] \
                    and parts[2] == "events":
                self._send_events(parts[1], query)
            elif len(parts) == 3 and parts[:1] == ["jobs"] \
                    and parts[2] == "report":
                self._send_report(parts[1])
            elif parts == ["cache", "stats"]:
                self._send_cache_stats()
            else:
                self._send_json(404, {"error": f"no such path: {parsed.path}"})
        except UnknownJobError as error:
            self._send_json(404, {"error": str(error)})
        except TornMetaError as error:
            self._send_json(503, {"error": str(error)})
        except CacheStoreError as error:
            self._send_json(503, {"error": str(error)})
        except ValueError as error:
            self._send_json(400, {"error": str(error)})

    def do_POST(self) -> None:
        parsed = urllib.parse.urlsplit(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        try:
            if parts == ["jobs"]:
                meta = self.server.campaign.submit(self._read_body())
                self._send_json(201, meta.to_dict())
            elif len(parts) == 3 and parts[:1] == ["jobs"] \
                    and parts[2] == "cancel":
                meta = self.server.campaign.cancel(parts[1])
                self._send_json(200, meta.to_dict())
            elif parts == ["admin", "drain"]:
                self._send_json(200, self.server.campaign.drain())
            elif parts == ["cache", "lookup"]:
                self._send_cache_lookup()
            elif parts == ["cache", "publish"]:
                self._receive_cache_publish()
            elif parts == ["fleet", "heartbeat"]:
                self._send_json(
                    200,
                    self.server.campaign.fleet.heartbeat(self._read_body()),
                )
            else:
                self._send_json(404, {"error": f"no such path: {parsed.path}"})
        except UnknownJobError as error:
            self._send_json(404, {"error": str(error)})
        except QueueFullError as error:
            self._send_json(
                429, {"error": str(error), "retry_after_s": error.retry_after_s},
                headers={"Retry-After": str(int(error.retry_after_s) or 1)},
            )
        except ServerDrainingError as error:
            self._send_json(503, {"error": str(error)})
        except JobSpecError as error:
            self._send_json(400, {"error": str(error)})
        except JobStateError as error:
            self._send_json(409, {"error": str(error)})
        except TornMetaError as error:
            self._send_json(503, {"error": str(error)})
        except CacheStoreError as error:
            self._send_json(503, {"error": str(error)})
        except ValueError as error:
            self._send_json(400, {"error": str(error)})

    # -- endpoint bodies -----------------------------------------------------

    def _send_jobs(self, query: dict) -> None:
        metas = self.server.campaign.store.list_jobs()
        states = query.get("state")
        if states:
            wanted = states[-1]
            if wanted not in STATES:
                raise ValueError(
                    f"unknown state {wanted!r}; choose from: "
                    f"{', '.join(STATES)}"
                )
            metas = [meta for meta in metas if meta.status == wanted]
        self._send_json(200, {"jobs": [meta.to_dict() for meta in metas]})

    def _send_events(self, job_id: str, query: dict) -> None:
        since = _int_param(query, "since", 0)
        if since < 0:
            raise ValueError(
                f"query parameter 'since' must be >= 0, got {since}"
            )
        timeout = _float_param(query, "timeout", 0.0)
        if not math.isfinite(timeout) or timeout < 0:
            # min() would happily return nan, and a negative wait is a
            # confused client — both are 400s with the same tone as
            # the spec validator, not silent passes into the poll.
            raise ValueError(
                f"query parameter 'timeout' must be a finite number "
                f">= 0, got {timeout!r}"
            )
        timeout = min(timeout, MAX_POLL_TIMEOUT_S)
        lines, next_since, status = (
            self.server.campaign.store.wait_for_events(job_id, since, timeout)
        )
        body = "".join(lines).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Loupe-Next-Since", str(next_since))
        self.send_header("X-Loupe-Job-Status", status)
        self.end_headers()
        self.wfile.write(body)

    def _send_report(self, job_id: str) -> None:
        store = self.server.campaign.store
        if not store.exists(job_id):
            raise UnknownJobError(job_id)
        try:
            body = store.report_path(job_id).read_bytes()
        except FileNotFoundError:
            status = store.meta(job_id).status
            self._send_json(404, {
                "error": f"job {job_id} has no report (status: {status})",
            })
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- the cache surface ---------------------------------------------------

    def _cache_service(self):
        service = self.server.campaign.cache
        if service is None:
            raise CacheStoreError(
                "this server serves no run cache; restart it with "
                "`loupe serve --run-cache PATH` to enable the /cache "
                "surface"
            )
        return service

    def _send_cache_stats(self) -> None:
        service = self._cache_service()
        self._send_json(200, {
            "store": service.store_stats(),
            "counters": service.counters(),
            "fleet": self.server.campaign.fleet.gauges(),
        })

    def _send_cache_lookup(self) -> None:
        service = self._cache_service()
        document = self._read_body()
        keys = document.get("keys") if isinstance(document, dict) else None
        if not isinstance(keys, list) or not all(
            isinstance(key_id, str) for key_id in keys
        ):
            raise ValueError(
                'lookup body must be {"keys": ["<keyid>", ...]}'
            )
        found = service.lookup([decode_key_id(key_id) for key_id in keys])
        self._send_json(200, {
            "hits": {
                encode_key_id(key): record_document(key, result)
                for key, result in found.items()
            },
        })

    def _receive_cache_publish(self) -> None:
        service = self._cache_service()
        document = self._read_body()
        records = document.get("records") if isinstance(document, dict) \
            else None
        if not isinstance(records, list):
            raise ValueError(
                'publish body must be {"records": [{"key": "<keyid>", '
                '"record": {...}}, ...]}'
            )
        # Validate every record before writing any: a bad batch is
        # refused whole, never half-applied.
        items = []
        for index, entry in enumerate(records):
            try:
                key = decode_key_id(entry["key"])
                record_key, result, policy = decode_record_document(
                    entry["record"]
                )
            except (AttributeError, KeyError, TypeError, ValueError) as error:
                raise ValueError(f"malformed cache record {index}: {error}")
            if record_key != key:
                raise ValueError(
                    f"cache record {index}: the record's key does not "
                    f"match its key id"
                )
            items.append((key, result, policy))
        service.publish_many(items)
        self.send_response(204)
        self.send_header("Content-Length", "0")
        self.end_headers()

    # -- plumbing ------------------------------------------------------------

    def _read_body(self) -> object:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise JobSpecError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise JobSpecError("request body is empty; expected a JSON spec")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise JobSpecError(f"request body is not valid JSON: {error}")

    def _send_json(
        self,
        code: int,
        document: dict,
        *,
        headers: "dict | None" = None,
    ) -> None:
        body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)


def _int_param(query: dict, name: str, default: int) -> int:
    values = query.get(name)
    if not values:
        return default
    try:
        return int(values[-1])
    except ValueError:
        raise ValueError(f"query parameter {name!r} must be an integer")


def _float_param(query: dict, name: str, default: float) -> float:
    values = query.get(name)
    if not values:
        return default
    try:
        return float(values[-1])
    except ValueError:
        raise ValueError(f"query parameter {name!r} must be a number")
