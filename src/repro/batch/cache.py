"""Result cache keyed on ``(generator, seed, params)``.

Conjecture sweeps re-run the same deterministic workloads over and over
(every CLI invocation, every report regeneration); since the generators are
fully reproducible, a result computed once for a given
``(generator, seed, params)`` triple never changes.  :class:`ResultCache`
memoizes such results in process memory with optional LRU eviction, and can
persist them to a JSON file so repeated sweeps across processes skip
recomputation too.
"""

from __future__ import annotations

import functools
import json
import os
import stat
import threading
import uuid
from collections import OrderedDict
from typing import Any, Callable, Mapping

__all__ = ["cache_key", "ResultCache"]


def _canonical(value: Any) -> Any:
    """Normalise a parameter value into a JSON-stable representation."""
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_canonical(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return float(value)
    if hasattr(value, "item"):  # NumPy scalars
        return _canonical(value.item())
    if isinstance(value, functools.partial):
        # repr(partial) embeds the wrapped function's memory address, which
        # would make the key unstable across calls; key on the pieces instead.
        return {
            "partial": _canonical(value.func),
            "args": _canonical(value.args),
            "keywords": _canonical(value.keywords),
        }
    if callable(value):
        qualname = getattr(value, "__qualname__", None)
        if qualname is not None:
            return f"{getattr(value, '__module__', '')}.{qualname}"
        return repr(value)
    return repr(value)


def cache_key(generator: Any, seed: Any, params: Mapping[str, Any] | None = None) -> str:
    """Canonical cache key for a ``(generator, seed, params)`` triple.

    ``generator`` may be a name or the generator callable itself (callables
    are keyed by qualified name); ``params`` is any mapping of run parameters
    (sizes, counts, backends, tolerances, ...).  The key is a deterministic
    JSON string, safe to use across processes and sessions.
    """
    payload = {
        "generator": _canonical(generator),
        "seed": _canonical(seed),
        "params": _canonical(dict(params or {})),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class ResultCache:
    """A small thread-safe LRU cache for deterministic sweep results.

    Parameters
    ----------
    maxsize:
        Maximum number of entries kept in memory (``None`` = unbounded).
    path:
        Optional JSON file backing the cache.  Entries are loaded on
        construction and written back by :meth:`save`; only JSON-serialisable
        results survive the round trip, so persistence is best suited to the
        aggregated summaries the experiments store (gap lists, ratio lists).
        A missing file is an empty cache; one that cannot be read or is not
        a JSON object raises ``ValueError`` naming the path and is left
        untouched.
    """

    def __init__(self, maxsize: int | None = 1024, path: str | os.PathLike | None = None):
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._maxsize = maxsize
        self._path = os.fspath(path) if path is not None else None
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        if self._path and os.path.exists(self._path):
            try:
                with open(self._path, "r", encoding="utf-8") as handle:
                    loaded = json.load(handle)
                if not isinstance(loaded, dict):
                    raise ValueError(f"expected a JSON object, got {type(loaded).__name__}")
            except (OSError, ValueError) as exc:
                raise ValueError(
                    f"cannot load the result cache {self._path}: {exc}; "
                    "delete the file to start with an empty cache"
                ) from exc
            self._entries.update(loaded)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str, default: Any = None) -> Any:
        """Look up ``key``, counting a hit or miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            return default

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key``, evicting the oldest entry if full."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while self._maxsize is not None and len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing and storing it on miss."""
        sentinel = object()
        value = self.get(key, sentinel)
        if value is not sentinel:
            return value
        value = compute()
        self.put(key, value)
        return value

    @property
    def path(self) -> str | None:
        """The backing file, or ``None`` for a purely in-memory cache."""
        return self._path

    @property
    def stats(self) -> dict[str, int]:
        """Hit/miss/size counters (for reports and tests)."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self._entries)}

    def discard(self, key: str) -> bool:
        """Drop one entry if present; True when something was removed."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def save(self, path: str | os.PathLike | None = None) -> str:
        """Persist the JSON-serialisable entries to ``path`` (or the backing file).

        The entries go to a temporary file in the same directory, which then
        atomically replaces ``path``: a failed or interrupted save raises and
        leaves the previous file byte-intact, never a torn one.  The file
        keeps the permissions a plain overwrite would give it: an existing
        file's mode, else ``0o666`` narrowed by the umask.
        """
        target = os.fspath(path) if path is not None else self._path
        if target is None:
            raise ValueError("no path given and the cache has no backing file")
        serialisable = {}
        with self._lock:
            for key, value in self._entries.items():
                try:
                    json.dumps(value)
                except (TypeError, ValueError):
                    continue
                serialisable[key] = value
        directory, name = os.path.split(os.path.abspath(target))
        temp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                if os.path.exists(target):
                    os.fchmod(handle.fileno(), stat.S_IMODE(os.stat(target).st_mode))
                json.dump(serialisable, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, target)
        except BaseException:
            os.unlink(temp)
            raise
        return target
