"""A small thread-safe LRU answer cache.

Keys are ``(query fingerprint, alpha)`` pairs: the same query under a
different resource ratio is a different entry, because the paper's
algorithms trade accuracy for resources and the answer legitimately changes
with α.  The cache never crosses services — every :class:`GraphService` owns
one, so answers computed against one prepared graph can never leak into a
session serving a different graph.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Tuple

from repro import obs

CacheKey = Tuple[str, float]

_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters plus the current occupancy."""

    hits: int
    misses: int
    entries: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when untouched)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class AnswerCache:
    """LRU cache of query answers keyed on ``(fingerprint, alpha)``.

    ``capacity <= 0`` disables caching entirely (every lookup misses), which
    the engine uses to honour ``cache_size=0`` without sprinkling ``if``\\ s
    over the answer path.
    """

    def __init__(self, capacity: int = 4096):
        self._capacity = capacity
        self._entries: "OrderedDict[CacheKey, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        """Maximum number of retained answers."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: str, alpha: float) -> Tuple[bool, Any]:
        """Return ``(hit, answer)``; ``answer`` is ``None`` on a miss."""
        key = (fingerprint, alpha)
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return False, None
            self._entries.move_to_end(key)
            self._hits += 1
            return True, value

    def put(self, fingerprint: str, alpha: float, answer: Any) -> List[CacheKey]:
        """Insert (or refresh) an answer, evicting the least recently used.

        Returns the keys evicted by the capacity bound so callers keeping
        side tables (the engine's invalidation anchors) can stay in sync.
        """
        if self._capacity <= 0:
            return []
        key = (fingerprint, alpha)
        evicted: List[CacheKey] = []
        with self._lock:
            self._entries[key] = answer
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                evicted.append(self._entries.popitem(last=False)[0])
        return evicted

    def keys(self) -> List[CacheKey]:
        """A snapshot of the cached keys (LRU order, oldest first)."""
        with self._lock:
            return list(self._entries)

    def invalidate(self, keys: Iterable[CacheKey]) -> int:
        """Drop specific entries (hit/miss counters untouched); returns count."""
        dropped = 0
        with self._lock:
            for key in keys:
                if self._entries.pop(key, None) is not None:
                    dropped += 1
        if dropped:
            obs.counter("cache.invalidated").inc(dropped)
        return dropped

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def stats(self) -> CacheStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                entries=len(self._entries),
                capacity=self._capacity,
            )

    # The lock cannot be pickled; the cache never travels to workers anyway
    # (only the prepared state does), but keep the object picklable so an
    # engine embedded in a larger structure does not poison its pickling.
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
