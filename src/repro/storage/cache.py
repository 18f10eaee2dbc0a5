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

Live data adds a second dimension: every entry is tagged with the **data
version** it was computed at (see :class:`repro.live.VersionedTable`).
A lookup only matches an entry of its own version — a mask computed
before an ingest can never answer a query issued after it, and a reader
still behind the data neither gets nor disturbs a newer entry — and
:meth:`ResultCache.evict_superseded` surgically drops the entries of
superseded versions while leaving everything else (entries already
recomputed at the current version, other namespaces in a shared cache)
in place.  That is the precision alternative to flush-the-world
invalidation: an ingest into one table leaves every other table's
entries whole.

Selection masks are the bulk of what is cached, and a mask is one bit of
information per row: a one-dimensional ``bool`` array is stored
``np.packbits``-ed (``ceil(n / 8)`` bytes beside its length) and every
lookup hands back a fresh, equal ``bool`` array — callers never see the
packed form, and no two lookups alias.

Each entry is one record (:class:`_Entry`): the stored value, its data
version, and the bytes the entry holds — its key, its stored value and a
fixed per-entry overhead (:data:`_ENTRY_OVERHEAD`), so ``approx_bytes``
tracks what the process really spends on the cache.  Statistics (hits,
misses, evictions, invalidations, that byte footprint) are tracked under
the cache's own lock, so concurrent sessions always observe consistent
numbers: ``hits + misses == lookups`` holds at any instant (a lookup
newer than its entry counts as a miss *and* an invalidation).
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, NamedTuple, Optional

import numpy as np

__all__ = ["CacheStats", "ResultCache"]

#: Bytes one entry costs beyond its key and stored value: the record, its
#: byte count, and the ``OrderedDict`` slot, node and index holding it.
#: Measured with ``tracemalloc`` on CPython 3.11.7: 165–197 bytes from
#: 4 096 to 30 000 entries (the dict's table grows in steps).
_ENTRY_OVERHEAD = 176


class _PackedMask(NamedTuple):
    """A selection mask as stored: eight rows a byte, and the row count."""

    bits: np.ndarray
    length: int


class _Entry(NamedTuple):
    """One cached entry: the stored value, its data version, its bytes."""

    stored: Any
    version: int
    size: int


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


def _entry_bytes(key: str, stored: Any) -> int:
    """The bytes an entry holds: key, stored value and the fixed overhead.

    A tuple — a packed mask (its bits with their array header, and its
    length) or a min/max pair — counts with its items; anything else
    counts ``sys.getsizeof``, which is shallow: an :class:`Advice` counts
    its own object, not the answers it refers to.
    """
    size = sys.getsizeof(key) + sys.getsizeof(stored) + _ENTRY_OVERHEAD
    if isinstance(stored, tuple):
        size += sum(map(sys.getsizeof, stored))
    return size


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
        Lookup outcomes since creation.
    evictions:
        Entries dropped to respect ``capacity``.
    puts:
        Successful insertions.
    approx_bytes:
        Approximate footprint of the entries: each one's key, its stored
        value (a mask's packed bits, a tuple with its items, a scalar's
        ``sys.getsizeof``) and a fixed per-entry overhead.
    invalidations:
        Entries dropped because their data version was superseded — by a
        newer lookup or by :meth:`ResultCache.evict_superseded`.
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
        return {**asdict(self), "hit_rate": self.hit_rate}


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
    keyword-only ``int`` ``version`` — the monotonically increasing data
    version of a table — so an unversioned call is a ``TypeError``, not a
    stale answer served across a mutation.  A lookup matches only an entry
    of the same version.  An entry older than the lookup is a miss and is
    dropped on the spot, since a monotonically versioned table can never
    serve it again; an entry newer than the lookup is a miss that drops
    nothing, and a put older than its entry is ignored, so a reader that
    an ingest overtook never evicts or overwrites the newer work.
    :meth:`evict_superseded` removes every entry older than a given
    version in one pass.
    """

    def __init__(self, capacity: int = 256, name: str = "results"):
        self.name = name
        self._capacity = max(0, int(capacity))
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
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
        """Remove one entry (caller holds the lock)."""
        self._approx_bytes -= self._entries.pop(key).size

    def get(self, key: str, *, version: int) -> Optional[Any]:
        """The cached value, or ``None`` (recorded as hit/miss).

        An entry of a *different* version is a miss; an older one is also
        invalidated, since a monotonically versioned table can never serve
        it again.
        """
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.stored is None or entry.version > version:
                self._misses += 1
                return None
            if entry.version < version:
                self._drop_locked(key)
                self._invalidations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
        return _unpack(entry.stored)

    def peek(self, key: str, *, version: int) -> Optional[Any]:
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
            entry = self._entries.get(key)
        if entry is None or entry.version != version:
            return None
        return _unpack(entry.stored)

    def put(self, key: str, value: Any, *, version: int) -> None:
        """Insert (or refresh) an entry, evicting LRU entries beyond capacity.

        ``version`` tags the entry with the data version it was computed
        at; a put older than the entry already held is ignored.
        """
        if not self.enabled:
            return
        stored = _pack(value)
        entry = _Entry(stored, int(version), _entry_bytes(key, stored))
        with self._lock:
            held = self._entries.get(key)
            if held is not None:
                if held.version > entry.version:
                    return
                self._approx_bytes -= held.size
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._approx_bytes += entry.size
            self._puts += 1
            while len(self._entries) > self._capacity:
                self._approx_bytes -= self._entries.popitem(last=False)[1].size
                self._evictions += 1

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], Any],
        *,
        version: int,
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

        The surgical half of live-data invalidation: entries already
        recomputed at (or beyond) the current version survive, so in a
        shared cache only the work invalidated by the mutation is lost.
        Returns the number of entries removed (also tallied in the
        ``invalidations`` statistic).
        """
        with self._lock:
            stale = [
                key for key, entry in self._entries.items() if entry.version < version
            ]
            for key in stale:
                self._drop_locked(key)
            self._invalidations += len(stale)
        return len(stale)

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
