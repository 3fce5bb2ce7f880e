"""The scheduler side of the run fabric: a pool of remote workers.

:class:`FabricExecutor` is to ``--executor remote`` what
``ProcessPoolExecutor`` is to ``--executor process``: the engine hands
it pickled chunk jobs and consumes completion events. The differences
are all about distrust of the transport:

* every connection opens with the versioned ``HELLO``/``WELCOME``
  handshake, and a worker whose advertised
  :class:`~repro.core.runner.BackendCapabilities` is not
  ``process_safe`` is refused — it could not honor pickled chunks;
* each worker runs one chunk at a time (a worker is one slot); excess
  chunks queue client-side and drain as workers free up;
* a worker that closes its socket, breaks the protocol, or goes
  *silent* longer than ``dead_after_s`` (several missed heartbeats) is
  declared dead, and its in-flight chunk surfaces as a ``("lost", ...)``
  event — the engine re-enqueues lost runs on the survivors under the
  same retry budget the process pool uses, so a SIGKILLed worker costs
  wall-clock, never correctness.

The executor starts no thread. The one scheduling thread that calls
:meth:`~FabricExecutor.submit` and :meth:`~FabricExecutor.next_event`
also reads every worker link, through one selector: ``next_event``
waits until a link is readable or the earliest silence deadline
passes, and reads one frame per ready link. A :class:`FabricExecutor`
is therefore driven by one scheduling thread; it holds no locks, and
concurrent dispatch from several threads is unsupported. Nothing ever
blocks on a link outside those calls, so :meth:`~FabricExecutor.close`
returns at once.

Events from :meth:`FabricExecutor.next_event`:

``("done", chunk_id, rows)``
    The worker executed the chunk; *rows* are ``_execute_chunk``'s rows.
``("failed", chunk_id, exception)``
    The chunk itself raised (e.g. a fail-mode :class:`ProbeFaultError`);
    the engine re-raises it exactly as a process future would.
``("lost", chunk_id, exception)``
    The worker died with the chunk assigned; the rows never arrived.
"""

from __future__ import annotations

import itertools
import selectors
import socket
import time
from collections import deque

from repro.errors import LoupeError
from repro.fabric.protocol import (
    KIND_ACK,
    KIND_CHUNK,
    KIND_ERROR,
    KIND_HEARTBEAT,
    KIND_HELLO,
    KIND_RESULT,
    KIND_WELCOME,
    FabricProtocolError,
    decode_error,
    decode_result,
    decode_welcome,
    encode_chunk,
    encode_frame,
    hello_payload,
    read_frame,
)

#: Presume a worker dead after this much silence. Workers heartbeat
#: every ~2s even while executing, so this is ~5 missed beats.
DEFAULT_DEAD_AFTER_S = 10.0

DEFAULT_CONNECT_TIMEOUT_S = 5.0


class FabricConnectionError(LoupeError):
    """The worker fleet is unreachable or has no live members left."""


def parse_worker_address(spec: str) -> "tuple[str, int]":
    """``host:port`` → ``(host, port)``, with a typed error on junk."""
    host, separator, port = spec.rpartition(":")
    if not separator or not host:
        raise FabricConnectionError(
            f"worker address {spec!r} is not host:port"
        )
    try:
        return host, int(port)
    except ValueError:
        raise FabricConnectionError(
            f"worker address {spec!r} has a non-numeric port"
        ) from None


def parse_worker_list(workers) -> "tuple[str, ...]":
    """A ``host:port,...`` string, or an iterable of addresses, as a
    tuple of addresses; blanks around and between entries are dropped."""
    if not workers:
        return ()
    if isinstance(workers, str):
        workers = workers.split(",")
    return tuple(
        address for address in (str(part).strip() for part in workers)
        if address
    )


class _WorkerLink:
    """One connected worker: socket, unbuffered reader, slot state."""

    def __init__(self, addr: str, sock: socket.socket) -> None:
        self.addr = addr
        self.sock = sock
        # Unbuffered, so a read takes exactly one frame's bytes: frames
        # left behind stay in the kernel, where the selector sees them.
        self.reader = sock.makefile("rb", buffering=0)
        self.busy_chunk: "int | None" = None
        self.alive = True
        self.last_frame = time.monotonic()

    def close(self) -> None:
        # The reader holds a reference to the socket: the descriptor is
        # only released once both are closed.
        for closer in (self.reader.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass


class FabricExecutor:
    """A chunk scheduler over a fleet of ``loupe worker`` processes.

    Driven by one scheduling thread (see the module docstring).
    """

    def __init__(
        self,
        workers,
        *,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT_S,
        dead_after_s: float = DEFAULT_DEAD_AFTER_S,
    ) -> None:
        self.addresses = parse_worker_list(workers)
        if not self.addresses:
            raise FabricConnectionError(
                "the remote executor needs at least one worker address "
                "(--workers host:port,...)"
            )
        self.connect_timeout = connect_timeout
        self.dead_after_s = dead_after_s
        self._selector: "selectors.BaseSelector | None" = None
        self._links: "list[_WorkerLink]" = []
        self._pending: "deque[tuple[int, bytes]]" = deque()
        self._inflight: "dict[int, _WorkerLink]" = {}
        self._ids = itertools.count(1)
        self._connected = False
        #: ``addr -> error`` for workers that never joined the fleet.
        self.connect_errors: "dict[str, Exception]" = {}

    # -- connection management ---------------------------------------------

    def connect(self) -> "FabricExecutor":
        """Dial every worker; at least one must join or this raises."""
        if self._connected:
            return self
        self._connected = True
        self._selector = selectors.DefaultSelector()
        for addr in self.addresses:
            try:
                self._connect_one(addr)
            except (OSError, FabricProtocolError) as error:
                self.connect_errors[addr] = error
        if not self._links:
            self.close()
            details = "; ".join(
                f"{addr}: {error}" for addr, error in self.connect_errors.items()
            )
            raise FabricConnectionError(
                f"no fabric workers reachable ({details}) — start them "
                f"with `loupe worker --port PORT`"
            )
        return self

    def _connect_one(self, addr: str) -> None:
        host, port = parse_worker_address(addr)
        sock = socket.create_connection((host, port), timeout=self.connect_timeout)
        # A CHUNK is one small write answered by small frames; with
        # Nagle on, each exchange can wait out a delayed TCP ACK.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        link = _WorkerLink(addr, sock)
        try:
            sock.settimeout(self.dead_after_s)
            sock.sendall(encode_frame(KIND_HELLO, hello_payload()))
            frame = read_frame(link.reader)
            if frame is None:
                raise FabricProtocolError(
                    f"worker {addr} hung up during the handshake"
                )
            kind, payload = frame
            if kind == KIND_ERROR:
                raise FabricProtocolError(
                    f"worker {addr} refused the handshake: "
                    f"{decode_error(payload)[1]}"
                )
            if kind != KIND_WELCOME:
                raise FabricProtocolError(
                    f"worker {addr} answered frame kind {kind}, "
                    f"not WELCOME"
                )
            if not decode_welcome(payload)["capabilities"].process_safe:
                raise FabricProtocolError(
                    f"worker {addr} does not declare process_safe "
                    f"execution; it cannot honor pickled chunks"
                )
        except Exception:
            link.close()
            raise
        self._links.append(link)
        self._selector.register(sock, selectors.EVENT_READ, link)

    def _retire(self, link: _WorkerLink) -> None:
        """Stop watching *link* and release its descriptors."""
        if link.alive:
            link.alive = False
            self._selector.unregister(link.sock)
            link.close()

    # -- scheduling --------------------------------------------------------

    @property
    def worker_count(self) -> int:
        return sum(1 for link in self._links if link.alive)

    def submit(self, job: object) -> int:
        """Queue one ``_execute_chunk`` job; returns its chunk id."""
        self.connect()
        if not any(link.alive for link in self._links):
            raise FabricConnectionError(
                "every fabric worker has died; cannot place chunks"
            )
        chunk_id = next(self._ids)
        frame = encode_frame(KIND_CHUNK, encode_chunk(chunk_id, job))
        for link in self._links:
            if self._assign(link, chunk_id, frame):
                return chunk_id
        self._pending.append((chunk_id, frame))
        return chunk_id

    def _assign(self, link: _WorkerLink, chunk_id: int, frame: bytes) -> bool:
        """Send the chunk to *link* if it is live and idle. A send that
        fails retires the link, so the chunk can move on at once."""
        if not link.alive or link.busy_chunk is not None:
            return False
        try:
            link.sock.sendall(frame)
        except OSError:
            self._retire(link)
            return False
        link.busy_chunk = chunk_id
        self._inflight[chunk_id] = link
        return True

    def _drain_pending(self, link: _WorkerLink) -> None:
        """Hand the freed *link* the oldest queued chunk, if any."""
        if self._pending and self._assign(link, *self._pending[0]):
            self._pending.popleft()

    def next_event(self) -> "tuple[str, int, object]":
        """Block until a chunk completes, fails, or is lost."""
        while True:
            live = [link for link in self._links if link.alive]
            if not live and (self._inflight or self._pending):
                raise FabricConnectionError(
                    "every fabric worker has died with chunks "
                    "outstanding"
                )
            timeout = None
            if live:
                deadline = min(link.last_frame for link in live)
                timeout = max(
                    0.0, deadline + self.dead_after_s - time.monotonic()
                )
            # Ready links are read before any deadline is judged: after
            # a pause between batches, the heartbeats buffered meanwhile
            # prove a worker alive.
            for key, _ in self._selector.select(timeout):
                if key.data.alive:
                    event = self._read(key.data)
                    if event is not None:
                        return event
            now = time.monotonic()
            for link in live:
                if link.alive and now - link.last_frame >= self.dead_after_s:
                    event = self._worker_down(link, self._silence(link))
                    if event is not None:
                        return event

    def _silence(self, link: _WorkerLink) -> FabricConnectionError:
        return FabricConnectionError(
            f"worker {link.addr} went silent for "
            f"{self.dead_after_s:g}s (presumed dead)"
        )

    def _read(self, link: _WorkerLink):
        """Read and handle one frame from a readable *link*."""
        try:
            frame = read_frame(link.reader)
        except socket.timeout:
            return self._worker_down(link, self._silence(link))
        except (OSError, ValueError, FabricProtocolError) as error:
            return self._worker_down(link, FabricConnectionError(
                f"worker {link.addr} connection broke: {error}"
            ))
        if frame is None:
            return self._worker_down(link, FabricConnectionError(
                f"worker {link.addr} closed the connection"
            ))
        link.last_frame = time.monotonic()
        kind, payload = frame
        if kind in (KIND_HEARTBEAT, KIND_ACK):
            return None
        if kind in (KIND_RESULT, KIND_ERROR):
            decode = decode_result if kind == KIND_RESULT else decode_error
            chunk_id, body = decode(payload)
            owner = self._inflight.pop(chunk_id, None)
            if link.busy_chunk == chunk_id:
                link.busy_chunk = None
            self._drain_pending(link)
            if owner is None:
                return None  # stale frame for a chunk already written off
            label = "done" if kind == KIND_RESULT else "failed"
            return label, chunk_id, body
        # Anything else after the handshake is a protocol breach;
        # treat the worker as gone rather than guessing.
        return self._worker_down(link, FabricProtocolError(
            f"worker {link.addr} sent unexpected frame kind {kind}"
        ))

    def _worker_down(self, link: _WorkerLink, error: Exception):
        """Retire a link; surface its in-flight chunk as lost."""
        chunk_id = link.busy_chunk
        link.busy_chunk = None
        if chunk_id is not None:
            self._inflight.pop(chunk_id, None)
        self._retire(link)
        # Any surviving idle worker should pick up queued chunks the
        # dead one will never take.
        for survivor in self._links:
            self._drain_pending(survivor)
        if chunk_id is not None:
            return "lost", chunk_id, error
        return None

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        links, self._links = self._links, []
        self._pending.clear()
        self._inflight.clear()
        for link in links:
            self._retire(link)
        if self._selector is not None:
            self._selector.close()
            self._selector = None

    def __enter__(self) -> "FabricExecutor":
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()
