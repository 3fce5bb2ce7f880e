"""Choosing run-cache stores by path, and the JSONL import/export format.

:func:`open_store` is the single way the rest of the system — the
analyzer (``AnalyzerConfig.run_cache``), the session
(``LoupeSession(cache_path=...)``), and the CLI (``--run-cache``,
``loupe cache``) — turns a user-supplied path into a concrete store:

=====================================  =========
path                                   store
=====================================  =========
``http://`` / ``https://`` URL         remote (a campaign server's
                                       ``/cache`` surface)
``jsonl:anything`` / ``*.jsonl``       refused: an import/export
                                       format, not a live store
anything else (``sqlite:`` optional)   sqlite
=====================================  =========

:func:`migrate_store` is the only code that reads or writes JSONL:
one JSON record per line (:func:`~repro.core.cachestore.base.encode_record`),
the format run caches were once kept in. Importing one into SQLite,
or exporting a store to one, keeps every key, result and policy
document, so a warmed campaign stays warm across the round trip.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.core.cachestore.base import (
    MIGRATE_HINT,
    CacheStoreError,
    RunCacheBackend,
    StoreItem,
    decode_record_full,
    encode_record,
)
from repro.core.cachestore.sqlite import SqliteRunCache


def parse_store_path(
    path: "str | os.PathLike[str]",
) -> tuple[str, Path]:
    """Resolve *path* to ``(kind, concrete file path)``.

    The kind is ``"http"`` for a URL, ``"jsonl"`` for a ``jsonl:``
    scheme or a ``*.jsonl`` name, and ``"sqlite"`` for everything
    else; a ``sqlite:`` scheme forces SQLite onto a ``*.jsonl`` name.
    """
    text = os.fspath(path)
    if text.startswith(("http://", "https://")):
        return "http", Path(text)
    if text.startswith("sqlite:"):
        return "sqlite", Path(text[len("sqlite:"):])
    if text.startswith("jsonl:"):
        return "jsonl", Path(text[len("jsonl:"):])
    concrete = Path(text)
    if concrete.suffix.lower() == ".jsonl":
        return "jsonl", concrete
    return "sqlite", concrete


def store_identity(path: "str | os.PathLike[str]") -> tuple[str, str]:
    """A canonical ``(kind, absolute path)`` identity for *path*.

    Two spellings of one file — relative vs absolute, with or without
    a scheme prefix — share an identity, so store-sharing caches
    (the session's) never open two handles on one file.
    """
    kind, concrete = parse_store_path(path)
    if kind == "http":
        # URLs are their own identity; resolving them as filesystem
        # paths would mangle the double slash.
        return kind, os.fspath(path).rstrip("/")
    return kind, str(concrete.expanduser().resolve())


def open_store(
    path: "str | os.PathLike[str]",
    *,
    max_entries: "int | None" = None,
    ttl_s: "float | None" = None,
) -> RunCacheBackend:
    """Open the run-cache store *path* names (see the module table).

    *max_entries* bounds a local store with LRU eviction; *ttl_s*
    makes its records read as misses once older than that many
    seconds. An ``http(s)://`` URL opens the remote backend — a
    campaign server's ``/cache`` surface — whose eviction posture
    lives with the server's own store, so both knobs are refused
    there. A JSONL path is refused with the ``loupe cache migrate``
    command that converts it.
    """
    kind, concrete = parse_store_path(path)
    if kind == "http":
        url = os.fspath(path)
        if max_entries is not None or ttl_s is not None:
            raise CacheStoreError(
                "run_cache_max_entries/run_cache_ttl_s apply to the "
                "server's own store, not the remote client; configure "
                "them where `loupe serve --run-cache` runs"
            )
        from repro.core.cachestore.remote import RemoteRunCache

        return RemoteRunCache(url)
    if kind == "jsonl":
        raise CacheStoreError(
            f"{os.fspath(path)!r} names a JSONL file, an import/export "
            f"format rather than a live run cache; {MIGRATE_HINT}"
        )
    return SqliteRunCache(concrete, max_entries=max_entries, ttl_s=ttl_s)


def _read_jsonl(path: Path) -> "list[StoreItem]":
    """Every record of a JSONL file, in one pass: torn or foreign
    lines (a writer killed mid-append) are skipped, and a key written
    twice keeps its last record."""
    records = {}
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            try:
                key, result, policy = decode_record_full(line)
            except (ValueError, KeyError, TypeError):
                continue
            records[key] = (key, result, policy)
    return list(records.values())


def _write_jsonl(path: Path, items: "list[StoreItem]") -> None:
    """Write *items* one record per line through a temporary file and
    an atomic rename, so a crash mid-export leaves no torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + ".tmp")
    with temp.open("w", encoding="utf-8") as handle:
        handle.writelines(
            encode_record(key, result, policy) + "\n"
            for key, result, policy in items
        )
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)


def migrate_store(
    source: "str | os.PathLike[str]",
    destination: "str | os.PathLike[str]",
    *,
    max_entries: "int | None" = None,
) -> int:
    """Copy every live record, with its policy document, from
    *source* into *destination*; returns how many were copied.

    Either side may be a JSONL file (``*.jsonl`` or ``jsonl:``): a
    JSONL source is imported in one pass, and a JSONL destination is
    written whole and atomically renamed into place. A store
    destination receives one ``put_many`` — one transaction into
    SQLite — and existing records are overwritten key by key. The
    source is left untouched.
    """
    # Compare the resolved *files*, not (kind, path) identities: a
    # scheme prefix naming the same physical file under the other
    # format would otherwise slip past and corrupt it mid-copy.
    if store_identity(source)[1] == store_identity(destination)[1]:
        raise CacheStoreError(
            "source and destination name the same file; nothing to "
            "migrate"
        )
    source_kind, source_path = parse_store_path(source)
    if source_kind == "jsonl":
        items = _read_jsonl(source_path)
    else:
        with open_store(source) as src:
            items = src.records()
    destination_kind, destination_path = parse_store_path(destination)
    if destination_kind == "jsonl":
        if max_entries is not None:
            raise CacheStoreError(
                "max_entries caps a store; a JSONL export holds "
                "every record"
            )
        _write_jsonl(destination_path, items)
    else:
        with open_store(destination, max_entries=max_entries) as dst:
            dst.put_many(items)
    return len(items)
