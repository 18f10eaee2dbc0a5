"""Shared, thread-safe result caching for query engines and the service layer.

The paper (Section 5.1) observes that Charles issues only two kinds of
back-end operations — medians and counts over predicates — which makes the
advisor *embarrassingly cacheable*: the same selection masks and aggregates
recur across iterations of HB-cuts, across drill-down steps, and, in a
multi-user deployment, across users exploring the same table.

:class:`ResultCache` is the one cache implementation behind all of that:
a lockable, size-bounded LRU keyed by strings (engines namespace each
query's :attr:`~repro.sdl.query.SDLQuery.key`, as in ``mask:<key>`` or
``median:<attribute>:<key>``).  A single instance can be shared by many
:class:`~repro.storage.engine.QueryEngine` objects **over the same table**;
the :mod:`repro.service` layer creates one per registered table and wires
every session engine to it.

Live data adds a second dimension: entries may be tagged with the **data
version** they were computed at (see :class:`repro.live.VersionedTable`).
A lookup carrying a version only matches entries of that same version —
a mask computed before an ingest can never answer a query issued after it
— and :meth:`ResultCache.evict_superseded` surgically drops the entries
of superseded versions while leaving everything else (untagged entries,
entries already recomputed at the current version, other namespaces in a
shared cache) in place.  That is the precision alternative to
flush-the-world invalidation: an ingest into one table leaves every
other table's entries whole.

Selection masks are the bulk of what is cached, and a mask is one bit of
information per row: a one-dimensional ``bool`` array is stored
``np.packbits``-ed (``ceil(n / 8)`` bytes beside its length) and every
lookup hands back a fresh, equal ``bool`` array — callers never see the
packed form, and no two lookups alias.

Statistics (hits, misses, evictions, invalidations, approximate byte
footprint) are tracked under the cache's own lock, so concurrent sessions
always observe consistent numbers: ``hits + misses == lookups`` holds at
any instant (a version mismatch counts as a miss *and* an invalidation).
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, Optional

import numpy as np

__all__ = ["CacheStats", "ResultCache"]


class _PackedMask(NamedTuple):
    """A selection mask as stored: eight rows a byte, and the row count."""

    bits: np.ndarray
    length: int


def _pack(value: Any) -> Any:
    """The stored form of a value: masks packed, anything else as it is."""
    if isinstance(value, np.ndarray) and value.dtype == np.bool_ and value.ndim == 1:
        return _PackedMask(np.packbits(value), len(value))
    return value


def _unpack(stored: Any) -> Any:
    """The value a lookup returns: a fresh ``bool`` array for a packed mask."""
    if type(stored) is _PackedMask:
        return np.unpackbits(stored.bits, count=stored.length).view(np.bool_)
    return stored


def _approx_size(stored: Any) -> int:
    """Approximate in-memory footprint of a stored value, in bytes."""
    if type(stored) is _PackedMask:
        return int(stored.bits.nbytes)
    if isinstance(stored, np.ndarray):
        return int(stored.nbytes)
    try:
        return int(sys.getsizeof(stored))
    except TypeError:  # pragma: no cover - exotic objects
        return 0


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time statistics of a :class:`ResultCache`.

    Attributes
    ----------
    capacity:
        Maximum number of entries retained; ``0`` disables the cache.
    entries:
        Current number of cached values.
    hits / misses:
        Lookup outcomes since creation (or the last :meth:`ResultCache.reset_stats`).
    evictions:
        Entries dropped to respect ``capacity``.
    puts:
        Successful insertions.
    approx_bytes:
        Approximate footprint of the cached values as stored (``ceil(n /
        8)`` bytes for an ``n``-row mask, ``ndarray.nbytes`` for any other
        array, ``sys.getsizeof`` otherwise).
    invalidations:
        Entries dropped because their data version was superseded — by a
        version-mismatched lookup or by :meth:`ResultCache.evict_superseded`.
    """

    capacity: int
    entries: int
    hits: int
    misses: int
    evictions: int
    puts: int
    approx_bytes: int
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict copy, convenient for report tables and JSON output."""
        return {
            "capacity": self.capacity,
            "entries": self.entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "puts": self.puts,
            "approx_bytes": self.approx_bytes,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """A thread-safe, size-bounded LRU cache with usage statistics.

    Parameters
    ----------
    capacity:
        Maximum number of entries.  ``0`` disables the cache: every lookup
        misses and every insertion is dropped (used by the scalability
        ablations, which measure uncached work).
    name:
        Cosmetic label shown in service reports.

    Version-keyed entries
    ---------------------
    ``get``/``peek``/``put``/``get_or_compute`` take a required
    keyword-only ``version`` — the monotonically increasing data version
    of a live table — so an unversioned call is a ``TypeError``, not a
    stale answer served across a mutation.  A versioned lookup matches
    only entries tagged with the same version (a mismatch is a miss, and
    the stale entry is dropped on the spot); ``version=None``, written
    out, marks an entry of a table that never changes and matches any
    lookup.  :meth:`evict_superseded` removes every entry older than a
    given version in one pass.
    """

    def __init__(self, capacity: int = 256, name: str = "results"):
        self.name = name
        self._capacity = max(0, int(capacity))
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._bytes: Dict[str, int] = {}
        self._versions: Dict[str, int] = {}
        self._approx_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._puts = 0
        self._invalidations = 0

    # -- properties ---------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def enabled(self) -> bool:
        """Whether the cache retains anything at all."""
        return self._capacity > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    # -- core operations ----------------------------------------------------

    def _drop_locked(self, key: str) -> None:
        """Remove one entry and its bookkeeping (caller holds the lock)."""
        del self._entries[key]
        self._approx_bytes -= self._bytes.pop(key, 0)
        self._versions.pop(key, None)

    def get(self, key: str, *, version: Optional[int]) -> Optional[Any]:
        """The cached value, or ``None`` (recorded as hit/miss).

        With ``version`` given, an entry tagged with a *different* version
        is a miss — and is invalidated immediately, since a monotonically
        versioned table can never serve it again.
        """
        if not self.enabled:
            return None
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            if version is not None and self._versions.get(key, version) != version:
                self._drop_locked(key)
                self._invalidations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
        return _unpack(value)

    def peek(self, key: str, *, version: Optional[int]) -> Optional[Any]:
        """The cached value without any observable side effect.

        Unlike :meth:`get`, a peek records no hit or miss, does not touch
        LRU recency, and leaves version-mismatched entries in place.  It
        exists for *opportunistic* reuse — the engine's mask-algebra
        shortcut peeks at parent masks it was never asked for, and must
        not perturb the statistics or eviction order the unindexed
        execution would produce (the differential harness compares both).
        """
        if not self.enabled:
            return None
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                return None
            if version is not None and self._versions.get(key, version) != version:
                return None
        return _unpack(value)

    def put(self, key: str, value: Any, *, version: Optional[int]) -> None:
        """Insert (or refresh) an entry, evicting LRU entries beyond capacity.

        ``version`` tags the entry with the data version it was computed
        at; versioned lookups only match the same tag.
        """
        if not self.enabled:
            return
        value = _pack(value)
        size = _approx_size(value)
        with self._lock:
            if key in self._entries:
                self._approx_bytes -= self._bytes.get(key, 0)
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._bytes[key] = size
            self._approx_bytes += size
            if version is None:
                self._versions.pop(key, None)
            else:
                self._versions[key] = int(version)
            self._puts += 1
            while len(self._entries) > self._capacity:
                evicted_key, _ = self._entries.popitem(last=False)
                self._approx_bytes -= self._bytes.pop(evicted_key, 0)
                self._versions.pop(evicted_key, None)
                self._evictions += 1

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], Any],
        *,
        version: Optional[int],
    ) -> Any:
        """The cached value, computing and inserting it on a miss.

        ``compute`` runs *outside* the lock so a slow producer never blocks
        other readers; two threads racing on the same key may both compute,
        which is harmless for the deterministic values cached here.
        """
        value = self.get(key, version=version)
        if value is None:
            value = compute()
            self.put(key, value, version=version)
        return value

    def evict_superseded(self, version: int) -> int:
        """Drop every entry tagged with a data version below ``version``.

        The surgical half of live-data invalidation: untagged entries and
        entries already recomputed at (or beyond) the current version
        survive, so in a shared cache only the work invalidated by the
        mutation is lost.  Returns the number of entries removed (also
        tallied in the ``invalidations`` statistic).
        """
        version = int(version)
        removed = 0
        with self._lock:
            stale = [
                key for key, tag in self._versions.items() if tag < version
            ]
            for key in stale:
                self._drop_locked(key)
                removed += 1
            self._invalidations += removed
        return removed

    def clear(self) -> None:
        """Drop every entry (statistics are retained)."""
        with self._lock:
            self._entries.clear()
            self._bytes.clear()
            self._versions.clear()
            self._approx_bytes = 0

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction/put counters."""
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._puts = 0
            self._invalidations = 0

    # -- reporting ----------------------------------------------------------

    def stats(self) -> CacheStats:
        """A consistent point-in-time view of the cache statistics."""
        with self._lock:
            return CacheStats(
                capacity=self._capacity,
                entries=len(self._entries),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                puts=self._puts,
                approx_bytes=self._approx_bytes,
                invalidations=self._invalidations,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (
            f"ResultCache(name={self.name!r}, entries={stats.entries}/"
            f"{stats.capacity}, hit_rate={stats.hit_rate:.1%})"
        )
